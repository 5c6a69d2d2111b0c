//! Campaign workloads, untraced: the timed loop and the scalar-oracle
//! reference. Each runs in a child process of its own.

use crate::util::{digest_dir, vm_hwm_kib};
use qufi_cli::job::{job_matrix, prepare_cached, RuntimeCache};
use qufi_cli::{run_to_completion, Manifest, RunOptions, RunStatus};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One campaign run as `qufi run` makes it, with set-up timed apart.
pub struct UntracedRun {
    /// Building every `JobRuntime` through a fresh `RuntimeCache`.
    pub setup: Duration,
    /// `run_to_completion` with that cache: score, checkpoint, export.
    pub run: Duration,
    /// Grid cells scored.
    pub cells: u64,
    /// Digest of the campaign's `results/`.
    pub digest: String,
}

/// Runs `manifest` into the fresh directory `out` with `threads` threads
/// and the telemetry `qufi run` ships with (metrics on, trace off), then
/// digests `results/`. `out` is left in place for the caller.
pub fn run_untraced(
    manifest: &Manifest,
    out: &Path,
    threads: usize,
) -> Result<UntracedRun, String> {
    let _ = fs::remove_dir_all(out);
    let started = Instant::now();
    let specs = job_matrix(manifest);
    let cache = Arc::new(RuntimeCache::new(specs.len().max(1)));
    for spec in &specs {
        prepare_cached(&cache, manifest, spec).map_err(|e| e.to_string())?;
    }
    let setup = started.elapsed();
    let opts = RunOptions {
        threads: Some(threads),
        quiet: true,
        metrics: true,
        runtime_cache: Some(cache),
        ..RunOptions::default()
    };
    let outcome = run_to_completion(manifest, out, &opts).map_err(|e| e.to_string())?;
    let run = started.elapsed() - setup;
    if outcome.summary.status != RunStatus::Complete {
        return Err("campaign did not complete".to_string());
    }
    let grid = manifest.grid.to_grid().map_err(|e| e.to_string())?;
    let points: usize = outcome.summary.jobs.iter().map(|j| j.points_done).sum();
    let digest = digest_dir(&out.join("results")).map_err(|e| e.to_string())?;
    Ok(UntracedRun {
        setup,
        run,
        cells: (points * grid.len()) as u64,
        digest,
    })
}

/// The timed loop: one warm-up campaign, then campaigns back to back
/// until `seconds` have passed (at least three timed). Prints one JSON
/// line: per-campaign timings and digests, plus this process's VmHWM.
pub fn timed_loop(
    manifest: &Manifest,
    work: &Path,
    threads: usize,
    seconds: f64,
) -> Result<(), String> {
    let out = work.join("campaign");
    let warmup = run_untraced(manifest, &out, threads)?;
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        runs.push(run_untraced(manifest, &out, threads)?);
    }
    let _ = fs::remove_dir_all(&out);
    let hwm = vm_hwm_kib(None).map_err(|e| e.to_string())?;
    let mut line = format!(
        "{{\"vm_hwm_kib\":{hwm},\"warmup_digest\":\"{}\",\"runs\":[",
        warmup.digest
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            line,
            "{}{{\"setup_s\":{},\"run_s\":{},\"cells\":{},\"digest\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            r.setup.as_secs_f64(),
            r.run.as_secs_f64(),
            r.cells,
            r.digest
        );
    }
    line.push_str("]}");
    println!("{line}");
    Ok(())
}

/// The scalar-oracle reference: each manifest run on one thread with the
/// engine's scalar path (`QUFI_BATCH_CELLS=1`, which the parent sets for
/// this process, as `qufi run --no-batch` does). Prints one JSON line of
/// digests, in manifest order.
pub fn reference(manifests: &[Manifest], work: &Path) -> Result<(), String> {
    let out = work.join("reference");
    let mut line = String::from("{\"digests\":[");
    for (i, m) in manifests.iter().enumerate() {
        let _ = fs::remove_dir_all(&out);
        let opts = RunOptions {
            threads: Some(1),
            quiet: true,
            ..RunOptions::default()
        };
        let outcome = run_to_completion(m, &out, &opts).map_err(|e| e.to_string())?;
        if outcome.summary.status != RunStatus::Complete {
            return Err("reference campaign did not complete".to_string());
        }
        let digest = digest_dir(&out.join("results")).map_err(|e| e.to_string())?;
        let _ = write!(line, "{}\"{digest}\"", if i == 0 { "" } else { "," });
    }
    let _ = fs::remove_dir_all(&out);
    line.push_str("]}");
    println!("{line}");
    Ok(())
}
