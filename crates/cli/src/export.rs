//! Artifact export: turns checkpointed campaign state into the
//! machine-readable results tree.
//!
//! ```text
//! <out>/results/
//!   summary.json            campaign-level rollup
//!   summary.csv             one row per job
//!   <job_id>/
//!     records.csv           canonical (sorted, deduplicated) records
//!     records.json          full campaign document (qufi_core::serialize)
//!     heatmap.csv|.json     mean-QVF (φ, θ) lattice (paper Fig. 5)
//!     qubit_ranking.csv|.json  per-qubit vulnerability (paper Fig. 6/§I)
//! ```
//!
//! Everything derives from the checkpoint files, never from in-memory
//! campaign state — so an interrupted-and-resumed campaign exports
//! byte-identical artifacts to an uninterrupted one, and `qufi export`
//! can regenerate results offline at any time.

use crate::checkpoint::{CheckpointStore, JobMeta};
use crate::error::CliError;
use crate::job::job_matrix;
use crate::manifest::Manifest;
use qufi_core::mapping::{qubit_reliability, QubitReliability};
use qufi_core::report::Heatmap;
use qufi_core::serialize::{
    json, push_campaign_json, push_fixed, push_heatmap_json, push_records_csv, push_uint,
    RECORDS_CSV_HEADER,
};
use qufi_core::{CampaignResult, CampaignStats};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// What an export pass produced.
#[derive(Debug, Clone)]
pub struct ExportReport {
    /// Files written, in write order.
    pub files: Vec<PathBuf>,
    /// Jobs with full record coverage.
    pub jobs_complete: usize,
    /// Jobs exported from partial checkpoints (flagged in the summary).
    pub jobs_partial: usize,
    /// The human-facing completion table, rendered from the same loaded
    /// state (so callers need not re-read the checkpoints to print it).
    pub summary_table: String,
}

struct JobExport {
    meta: JobMeta,
    result: CampaignResult,
    /// Computed once; `records.json`, both summaries and the table all
    /// report it.
    stats: CampaignStats,
    points_done: usize,
}

impl JobExport {
    fn is_complete(&self) -> bool {
        self.points_done >= self.meta.points_total
    }
}

/// Exports the full results tree for `manifest`'s campaign from the
/// checkpoints under `out_dir`.
///
/// # Errors
///
/// Missing/corrupt checkpoints and filesystem failures.
pub fn export_artifacts(manifest: &Manifest, out_dir: &Path) -> Result<ExportReport, CliError> {
    let _export_span = qufi_obs::span("export.write_ns");
    let store = CheckpointStore::open(out_dir)?;
    let grid = manifest.grid.to_grid()?;
    let results_dir = out_dir.join("results");
    fs::create_dir_all(&results_dir)
        .map_err(|e| CliError::io("creating results directory", &results_dir, e))?;

    let mut jobs = Vec::new();
    for spec in job_matrix(manifest) {
        let id = spec.id();
        let meta = store.load_meta(&id)?.ok_or_else(|| {
            CliError::checkpoint(format!(
                "job {id} has no checkpoint; run the campaign first"
            ))
        })?;
        let records = store.load_records(&id)?;
        // Canonicalize through merge_records: deduplicate replayed
        // shards and restore (point, φ, θ) order.
        let mut result = CampaignResult::from_parts(
            meta.circuit.clone(),
            meta.golden.clone(),
            meta.baseline_qvf,
            grid.clone(),
            Vec::new(),
        );
        result.merge_records(records);
        let points_done = result.len() / grid.len().max(1);
        jobs.push(JobExport {
            stats: result.stats(),
            meta,
            result,
            points_done,
        });
    }

    // One artifact at a time through one reused buffer: peak memory is
    // the largest artifact, not a job's whole tree.
    let mut files = Vec::new();
    let mut buf = String::new();
    for job in &jobs {
        let dir = results_dir.join(&job.meta.id);
        fs::create_dir_all(&dir).map_err(|e| CliError::io("creating job directory", &dir, e))?;
        let mut artifact = |name: &str, render: &dyn Fn(&mut String)| {
            write(&mut files, &mut buf, dir.join(name), render)
        };
        artifact("records.csv", &|out| {
            out.push_str(RECORDS_CSV_HEADER);
            push_records_csv(out, &job.result.records);
        })?;
        artifact("records.json", &|out| {
            push_campaign_json(out, &job.result, &job.stats);
        })?;
        let heatmap = Heatmap::from_campaign(&job.result);
        artifact("heatmap.csv", &|out| heatmap.push_csv(out))?;
        artifact("heatmap.json", &|out| push_heatmap_json(out, &heatmap))?;
        let ranking = qubit_reliability(&job.result);
        artifact("qubit_ranking.csv", &|out| ranking_csv(out, &ranking))?;
        artifact("qubit_ranking.json", &|out| ranking_json(out, &ranking))?;
    }
    write(
        &mut files,
        &mut buf,
        results_dir.join("summary.csv"),
        &|out| summary_csv(out, manifest, &jobs),
    )?;
    write(
        &mut files,
        &mut buf,
        results_dir.join("summary.json"),
        &|out| summary_json(out, manifest, &jobs),
    )?;

    let jobs_complete = jobs.iter().filter(|j| j.is_complete()).count();
    Ok(ExportReport {
        files,
        jobs_complete,
        jobs_partial: jobs.len() - jobs_complete,
        summary_table: render_summary_table(&jobs),
    })
}

/// Renders one artifact into `buf` (cleared first) and writes it.
fn write(
    files: &mut Vec<PathBuf>,
    buf: &mut String,
    path: PathBuf,
    render: &dyn Fn(&mut String),
) -> Result<(), CliError> {
    buf.clear();
    render(buf);
    crate::chaos::kill_point("export.write");
    qufi_obs::add("export.files", 1);
    qufi_obs::add("export.bytes", buf.len() as u64);
    // Atomic per artifact: a crash mid-export leaves each file either
    // old or new, never torn — and a re-export repairs the tree, since
    // everything derives from checkpoints.
    crate::atomic_write(&path, buf.as_bytes(), "writing artifact")?;
    files.push(path);
    Ok(())
}

fn ranking_csv(out: &mut String, ranking: &[QubitReliability]) {
    out.push_str("qubit,mean_qvf,sdc_fraction,samples\n");
    for r in ranking {
        push_uint(out, r.qubit as u64);
        out.push(',');
        push_fixed(out, r.mean_qvf, 6);
        out.push(',');
        push_fixed(out, r.sdc_fraction, 6);
        out.push(',');
        push_uint(out, r.samples as u64);
        out.push('\n');
    }
}

fn ranking_json(out: &mut String, ranking: &[QubitReliability]) {
    json::push_array(out, ranking, |out, r| {
        out.push_str("{\"qubit\":");
        push_uint(out, r.qubit as u64);
        out.push_str(",\"mean_qvf\":");
        json::push_num(out, r.mean_qvf);
        out.push_str(",\"sdc_fraction\":");
        json::push_num(out, r.sdc_fraction);
        out.push_str(",\"samples\":");
        push_uint(out, r.samples as u64);
        out.push('}');
    });
}

fn summary_csv(out: &mut String, manifest: &Manifest, jobs: &[JobExport]) {
    out.push_str(
        "job,workload,backend,scale,executor,points_done,points_total,records,\
         baseline_qvf,mean_qvf,stddev_qvf,masked,dubious,sdc,improved_fraction,complete\n",
    );
    for job in jobs {
        let s = &job.stats;
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{},",
            job.meta.id,
            job.meta.workload,
            job.meta.backend,
            job.meta.scale,
            manifest.executor.keyword(),
            job.points_done,
            job.meta.points_total,
            job.result.len(),
        );
        for v in [job.meta.baseline_qvf, s.mean_qvf, s.stddev_qvf] {
            push_fixed(out, v, 6);
            out.push(',');
        }
        let _ = write!(out, "{},{},{},", s.masked, s.dubious, s.sdc);
        push_fixed(out, s.improved_fraction, 6);
        let _ = writeln!(out, ",{}", job.is_complete());
    }
}

fn summary_json(out: &mut String, manifest: &Manifest, jobs: &[JobExport]) {
    out.push_str("{\"campaign\":");
    json::push_string(out, &manifest.name);
    out.push_str(",\"executor\":");
    json::push_string(out, manifest.executor.keyword());
    let _ = write!(
        out,
        ",\"seed\":{},\"grid_size\":{},\"jobs\":",
        manifest.seed,
        manifest.grid.to_grid().map(|g| g.len()).unwrap_or_default(),
    );
    json::push_array(out, jobs, |out, job| {
        let s = &job.stats;
        out.push_str("{\"job\":");
        json::push_string(out, &job.meta.id);
        out.push_str(",\"workload\":");
        json::push_string(out, &job.meta.workload);
        out.push_str(",\"backend\":");
        json::push_string(out, &job.meta.backend);
        out.push_str(",\"scale\":");
        json::push_num(out, job.meta.scale);
        let _ = write!(
            out,
            ",\"points_done\":{},\"points_total\":{},\"records\":{},\"baseline_qvf\":",
            job.points_done,
            job.meta.points_total,
            job.result.len(),
        );
        json::push_num(out, job.meta.baseline_qvf);
        out.push_str(",\"mean_qvf\":");
        json::push_num(out, s.mean_qvf);
        out.push_str(",\"stddev_qvf\":");
        json::push_num(out, s.stddev_qvf);
        let _ = write!(
            out,
            ",\"severity\":{{\"masked\":{},\"dubious\":{},\"sdc\":{}}},\"improved_fraction\":",
            s.masked, s.dubious, s.sdc
        );
        json::push_num(out, s.improved_fraction);
        let _ = write!(out, ",\"complete\":{}}}", job.is_complete());
    });
    out.push('}');
}

/// Renders the human-facing completion table printed after `qufi run`.
fn render_summary_table(jobs: &[JobExport]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "job", "records", "baseline", "mean_qvf", "masked", "dubious", "sdc"
    );
    for job in jobs {
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>9.4} {:>9.4} {:>8} {:>8} {:>8}{}",
            job.meta.id,
            job.result.len(),
            job.meta.baseline_qvf,
            job.stats.mean_qvf,
            job.stats.masked,
            job.stats.dubious,
            job.stats.sdc,
            if job.is_complete() { "" } else { "  (partial)" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, RunOptions};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qufi-export-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_manifest() -> Manifest {
        Manifest::from_toml(
            "[campaign]\nname = \"t\"\nthreads = 2\nexecutor = \"noisy\"\n\
             workloads = [\"bv-3\"]\nbackends = [\"lima\"]\n\
             [grid]\nthetas = [0.0, 3.141592653589793]\nphis = [0.0]\n",
        )
        .unwrap()
    }

    #[test]
    fn full_results_tree_is_written() {
        let dir = temp_dir("tree");
        let m = small_manifest();
        run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report = export_artifacts(&m, &dir).unwrap();
        assert_eq!(report.jobs_complete, 1);
        assert_eq!(report.jobs_partial, 0);
        for name in [
            "results/bv-3@lima/records.csv",
            "results/bv-3@lima/records.json",
            "results/bv-3@lima/heatmap.csv",
            "results/bv-3@lima/heatmap.json",
            "results/bv-3@lima/qubit_ranking.csv",
            "results/bv-3@lima/qubit_ranking.json",
            "results/summary.csv",
            "results/summary.json",
        ] {
            assert!(dir.join(name).is_file(), "missing {name}");
        }
        let summary = fs::read_to_string(dir.join("results/summary.json")).unwrap();
        assert!(summary.contains("\"complete\":true"));
        assert!(summary.contains("\"campaign\":\"t\""));
        assert!(report.summary_table.contains("bv-3@lima"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn export_without_checkpoints_is_an_error() {
        let dir = temp_dir("empty");
        let err = export_artifacts(&small_manifest(), &dir).unwrap_err();
        assert!(err.to_string().contains("no checkpoint"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn partial_campaigns_export_with_flag() {
        let dir = temp_dir("partial");
        let m = small_manifest();
        run_campaign(
            &m,
            &dir,
            &RunOptions {
                quiet: true,
                point_budget: Some(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let report = export_artifacts(&m, &dir).unwrap();
        assert_eq!(report.jobs_partial, 1);
        let summary = fs::read_to_string(dir.join("results/summary.json")).unwrap();
        assert!(summary.contains("\"complete\":false"));
        let _ = fs::remove_dir_all(dir);
    }
}
