//! Repeatable benchmark of the qufi campaign stack, end to end and layer
//! by layer. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, measured with the
//! benchmark's tracing off; with `--trace 1` it prints the per-layer
//! metrics of a separate traced run. Every campaign's `results/` is
//! checked against a scalar-oracle reference computed outside the timed
//! runs. The last stdout line is the JSON result; the line before it
//! records the host, the build and the run's settings.
//!
//! The work of a run happens in child processes of this executable
//! (`--role ...`), so each measurement starts with fresh process-global
//! telemetry and its own peak-memory mark.

mod campaign;
mod serve;
mod trace;
mod traced;
mod util;
mod workloads;

use qufi_cli::job::job_matrix;
use qufi_cli::Manifest;
use qufi_obs::json::{self, quote, Value};
use serve::Daemon;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use util::{digest_dir, host_facts_json, median, quantile};
use workloads::Workload;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 33] = [
    ("engine.replay_us_per_cell", "us"),
    ("engine.prepare_us_per_point", "us"),
    ("engine.suffix_gates_per_point", "count"),
    ("engine.cells_per_block", "count"),
    ("engine.scalar_fallback_ratio", "ratio"),
    ("transpile.run_us_per_point", "us"),
    ("transpile.swaps_per_point", "count"),
    ("noise.plan_us_per_point", "us"),
    ("noise.prefix_us_per_point", "us"),
    ("noise.traj_us_per_shot", "us"),
    ("noise.traj_draws_per_shot", "count"),
    ("sim.suffix_mflop_per_cell", "Mflop"),
    ("sim.suffix_gflops", "Gflop/s"),
    ("sim.state_copies_per_cell", "count"),
    ("metrics.qvf_ns_per_cell", "ns"),
    ("job.prepare_ms_per_job", "ms"),
    ("checkpoint.append_us_per_point", "us"),
    ("checkpoint.bytes_per_cell", "B"),
    ("export.ms_per_campaign", "ms"),
    ("export.mb_per_s", "MB/s"),
    ("runner.worker_busy_ratio", "ratio"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.status_rtt_us", "us"),
    ("serve.shed_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("self.cli.runner_ms", "ms"),
    ("self.cli.job_ms", "ms"),
    ("self.core.engine_ms", "ms"),
    ("self.core.metrics_ms", "ms"),
    ("self.cli.checkpoint_ms", "ms"),
    ("self.cli.export_ms", "ms"),
];

/// Traced rounds per run: each is one untraced and one traced campaign.
const TRACED_ROUNDS: usize = 3;

/// Daemon start-ups timed per `serve-ideal` run (the last one serves the
/// load).
const DAEMON_STARTS: usize = 9;

/// Where runs keep their scratch directories, under the working directory.
const WORK_ROOT: &str = ".perfbench-work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match flag(&args, "--role") {
        Some(role) => child(&role, &args),
        None => bench(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The single value of `--name`.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Every value of a repeated `--name`.
fn flags(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse().map_err(|_| format!("bad {name} value {raw:?}"))
}

fn load_manifests(args: &[String]) -> Result<Vec<Manifest>, String> {
    flags(args, "--manifest")
        .iter()
        .map(|p| {
            let text = fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            Manifest::from_toml(&text).map_err(|e| e.to_string())
        })
        .collect()
}

/// The work of one child process.
fn child(role: &str, args: &[String]) -> Result<(), String> {
    qufi_obs::log::set_verbosity(qufi_obs::log::Verbosity::Quiet);
    let work = || {
        flag(args, "--work")
            .map(PathBuf::from)
            .ok_or("missing --work")
    };
    match role {
        "campaign" => {
            let m = load_manifests(args)?;
            let m = m.first().ok_or("missing --manifest")?;
            campaign::timed_loop(
                m,
                &work()?,
                required(args, "--threads")?,
                required(args, "--seconds")?,
            )
        }
        "reference" => campaign::reference(&load_manifests(args)?, &work()?),
        "traced" => traced::traced_rounds(
            &load_manifests(args)?,
            &work()?,
            required(args, "--threads")?,
            required(args, "--rounds")?,
            Path::new(&flag(args, "--spans").ok_or("missing --spans")?),
        ),
        "daemon" => {
            let dir = flag(args, "--dir").ok_or("missing --dir")?;
            qufi_cli::serve(&qufi_cli::ServeOptions {
                addr: flag(args, "--addr").ok_or("missing --addr")?,
                dir: PathBuf::from(dir),
                workers: 2,
                ..qufi_cli::ServeOptions::default()
            })
            .map_err(|e| e.to_string())
        }
        other => Err(format!("unknown role {other:?}")),
    }
}

/// Runs a child role and parses the JSON line it prints last.
fn run_child(args: &[&str], scalar: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::inherit());
    if scalar {
        // The engine's scalar path, as `qufi run --no-batch` selects it.
        cmd.env("QUFI_BATCH_CELLS", "1");
    } else {
        cmd.env_remove("QUFI_BATCH_CELLS");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} failed: {}", args.first(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(last).map_err(|e| format!("child {:?} printed no result: {e}", args.first()))
}

fn strings(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|d| d.as_str().map(str::to_string))
        .collect()
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        _ => f64::NAN,
    }
}

/// Scalar-oracle digests of `manifests`, split across `procs` reference
/// processes that run side by side (each single-threaded).
fn reference_digests(
    manifests: &[PathBuf],
    work: &Path,
    procs: usize,
) -> Result<Vec<String>, String> {
    let chunk = manifests.len().div_ceil(procs.max(1)).max(1);
    let results: Vec<Result<Value, String>> = std::thread::scope(|scope| {
        manifests
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                let dir = work.join(format!("ref-{i}"));
                scope.spawn(move || {
                    let mut args: Vec<String> = vec!["--role".into(), "reference".into()];
                    for p in part {
                        args.push("--manifest".into());
                        args.push(p.display().to_string());
                    }
                    args.push("--work".into());
                    args.push(dir.display().to_string());
                    let args: Vec<&str> = args.iter().map(String::as_str).collect();
                    run_child(&args, true)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut digests = Vec::new();
    for r in results {
        digests.extend(strings(&r?, "digests"));
    }
    if digests.len() != manifests.len() {
        return Err("reference returned the wrong number of digests".into());
    }
    Ok(digests)
}

/// What a run found, before printing.
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
    threads: usize,
    samples: usize,
}

fn bench(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let seed: u64 = required(args, "--seed")?;
    let seconds: f64 = required(args, "--seconds")?;
    let traced = match flag(args, "--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let root = PathBuf::from(WORK_ROOT);
    let work = root.join(format!("{}-{}", workload.name(), std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let spans = root.join(format!("spans-{}.jsonl", workload.name()));
    let outcome = match workload {
        Workload::ServeIdeal => serve_ideal(seed, seconds, traced, &work, &spans),
        _ => campaign_workload(workload, seed, seconds, traced, &work, &spans),
    };
    let _ = fs::remove_dir_all(&work);
    let outcome = outcome?;

    let wanted: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let failed = outcome.failures.len() as u64;
    let failed_ratio = failed as f64 / outcome.attempted.max(1) as f64;
    let mut report = format!(
        "{{\"host\":{},\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{},\
         \"threads\":{},\"samples\":{},\"attempted\":{},\"failed\":{failed},\"failed_ratio\":{failed_ratio},\
         \"failures\":[",
        host_facts_json(),
        quote(workload.name()),
        u8::from(traced),
        outcome.threads,
        outcome.samples,
        outcome.attempted,
    );
    for (i, f) in outcome.failures.iter().take(8).enumerate() {
        let _ = write!(report, "{}{}", if i == 0 { "" } else { "," }, quote(f));
    }
    report.push_str("]}");

    eprintln!(
        "{} (seed {seed}, {} threads, {} samples):",
        workload.name(),
        outcome.threads,
        outcome.samples
    );
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        let _ = write!(
            metrics,
            "{}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    eprintln!(
        "  {:<34} {failed_ratio:>16.6} ({failed} of {})",
        "failed_ratio", outcome.attempted
    );
    println!("{report}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        failed == 0,
        outcome.attempted,
    );
    Ok(())
}

/// Threads a campaign may use: two, or fewer on a smaller host.
fn campaign_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Compares each digest against the reference for its manifest
/// (`digests[i]` belongs to manifest `i % refs.len()`).
fn check_digests(digests: &[String], refs: &[String], what: &str, failures: &mut Vec<String>) {
    for (i, d) in digests.iter().enumerate() {
        let want = &refs[i % refs.len()];
        if d != want {
            failures.push(format!(
                "{what} {i}: results digest {d} != reference {want}"
            ));
        }
    }
}

/// The per-layer metrics from a `traced` child, checked against `refs`.
fn traced_child(
    manifests: &[PathBuf],
    refs: &[String],
    threads: usize,
    work: &Path,
    spans: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut args: Vec<String> = vec!["--role".into(), "traced".into()];
    for p in manifests {
        args.push("--manifest".into());
        args.push(p.display().to_string());
    }
    let extra = [
        ("--work", work.join("traced").display().to_string()),
        ("--threads", threads.to_string()),
        ("--rounds", TRACED_ROUNDS.to_string()),
        ("--spans", spans.display().to_string()),
    ];
    for (k, v) in extra {
        args.push(k.into());
        args.push(v);
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let reply = run_child(&args, false)?;
    let untraced = strings(&reply, "untraced_digests");
    let traced = strings(&reply, "traced_digests");
    check_digests(&untraced, refs, "untraced campaign", &mut out.failures);
    check_digests(&traced, refs, "traced campaign", &mut out.failures);
    out.attempted += (untraced.len() + traced.len()) as u64;
    out.samples = traced.len();
    let metrics = reply
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("traced run printed no metrics")?;
    for (name, _) in PER_LAYER {
        if let Some(Value::Num(v)) = metrics.get(name) {
            out.metrics.insert(name, *v);
        }
    }
    Ok(())
}

fn campaign_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let text = workload.manifest(seed).expect("campaign workload");
    let path = work.join("manifest.toml");
    fs::write(&path, text).map_err(|e| e.to_string())?;
    let threads = campaign_threads();
    let refs = reference_digests(std::slice::from_ref(&path), work, 1)?;
    let mut out = Outcome {
        metrics: BTreeMap::new(),
        attempted: 0,
        failures: Vec::new(),
        threads,
        samples: 0,
    };
    if traced {
        traced_child(&[path], &refs, threads, work, spans, &mut out)?;
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
            // No daemon on this workload.
            out.metrics.insert(name, 0.0);
        }
        return Ok(out);
    }
    let reply = run_child(
        &[
            "--role",
            "campaign",
            "--manifest",
            &path.display().to_string(),
            "--work",
            &work.join("timed").display().to_string(),
            "--threads",
            &threads.to_string(),
            "--seconds",
            &seconds.to_string(),
        ],
        false,
    )?;
    let runs = reply
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("campaign child printed no runs")?;
    let mut digests = vec![reply
        .get("warmup_digest")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string()];
    let (mut rates, mut setups, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    for r in runs {
        let (setup, run, cells) = (num(r, "setup_s"), num(r, "run_s"), num(r, "cells"));
        rates.push(cells / run);
        setups.push(setup);
        latencies.push((setup + run) * 1e3);
        digests.push(
            r.get("digest")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        );
    }
    check_digests(&digests, &refs, "campaign", &mut out.failures);
    out.attempted = digests.len() as u64;
    out.samples = runs.len();
    out.metrics.insert("cells_per_s", median(&rates));
    out.metrics.insert("setup_s", median(&setups));
    out.metrics
        .insert("peak_rss_mb", num(&reply, "vm_hwm_kib") / 1024.0);
    out.metrics
        .insert("job_latency_p50_ms", quantile(&latencies, 0.5));
    out.metrics
        .insert("job_latency_p90_ms", quantile(&latencies, 0.9));
    Ok(out)
}

/// Grid cells one `serve-ideal` campaign scores.
fn cells_per_serve_campaign(seed: u64) -> Result<f64, String> {
    let m =
        Manifest::from_toml(&workloads::serve_manifest(seed, 0, 0)).map_err(|e| e.to_string())?;
    let grid = m.grid.to_grid().map_err(|e| e.to_string())?;
    let mut points = 0;
    for spec in job_matrix(&m) {
        let w = qufi_algos::build_workload(&spec.workload).map_err(|e| e.to_string())?;
        points += qufi_core::fault::enumerate_injection_points(&w.circuit).len();
    }
    Ok((points * grid.len()) as f64)
}

fn serve_ideal(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    spans: &Path,
) -> Result<Outcome, String> {
    let mut startups = Vec::new();
    for i in 0..DAEMON_STARTS - 1 {
        let (daemon, took) = Daemon::start(&work.join(format!("svc-start-{i}")))?;
        startups.push(took.as_secs_f64());
        daemon.stop()?;
    }
    let (daemon, took) = Daemon::start(&work.join("svc"))?;
    startups.push(took.as_secs_f64());
    let load = serve::closed_loop(&daemon.addr, seed, seconds);
    let hwm = daemon.vm_hwm_kib();
    let svc = daemon.dir.clone();
    let stopped = daemon.stop();
    let load = load?;
    stopped?;
    let hwm = hwm.map_err(|e| format!("reading the daemon's VmHWM: {e}"))?;

    let mut out = Outcome {
        metrics: BTreeMap::new(),
        attempted: load.jobs.len() as u64,
        failures: Vec::new(),
        threads: 2,
        samples: 0,
    };
    // Correctness, outside the timed window: every accepted job's
    // results against a single-threaded scalar run of its manifest.
    let accepted: Vec<&serve::JobSample> = load.jobs.iter().filter(|j| j.job.is_some()).collect();
    let mut paths = Vec::new();
    for (i, j) in accepted.iter().enumerate() {
        let p = work.join(format!("job-{i}.toml"));
        fs::write(&p, &j.manifest).map_err(|e| e.to_string())?;
        paths.push(p);
    }
    let refs = reference_digests(&paths, work, 2)?;
    for j in &load.jobs {
        if let Some(f) = &j.failure {
            out.failures.push(format!("job {:?}: {f}", j.job));
        }
    }
    for (j, want) in accepted.iter().zip(&refs) {
        let id = j.job.as_deref().expect("accepted");
        if j.failure.is_none() {
            let got = digest_dir(&svc.join("jobs").join(id).join("results"))
                .map_err(|e| e.to_string())?;
            if &got != want {
                out.failures.push(format!(
                    "job {id}: results digest {got} != reference {want}"
                ));
            }
        }
    }

    let done: Vec<&serve::JobSample> = load.jobs.iter().filter(|j| j.done_at.is_some()).collect();
    out.samples = done.len();
    let ms = |f: fn(&serve::JobSample) -> Duration| {
        done.iter()
            .map(|j| f(j).as_secs_f64() * 1e3)
            .collect::<Vec<f64>>()
    };
    if traced {
        let first: Vec<PathBuf> = paths.iter().take(2).cloned().collect();
        traced_child(&first, &refs[..first.len()], 1, work, spans, &mut out)?;
        // The run's samples are the load's jobs, not the traced campaigns.
        out.samples = done.len();
        let submits = load.jobs.len() as f64;
        out.metrics.insert(
            "serve.submit_rtt_ms",
            median(
                &load
                    .jobs
                    .iter()
                    .map(|j| j.submit_rtt.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        out.metrics
            .insert("serve.queue_wait_ms", median(&ms(|j| j.queue_wait)));
        out.metrics.insert("serve.run_ms", median(&ms(|j| j.run)));
        out.metrics.insert(
            "serve.status_rtt_us",
            median(
                &load
                    .status_rtts
                    .iter()
                    .map(|d| d.as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        out.metrics.insert(
            "serve.shed_ratio",
            load.jobs.iter().filter(|j| j.shed).count() as f64 / submits,
        );
        return Ok(out);
    }
    let last_done = done
        .iter()
        .filter_map(|j| j.done_at)
        .max()
        .ok_or("no job finished")?;
    let cells = done.len() as f64 * cells_per_serve_campaign(seed)?;
    out.metrics.insert(
        "cells_per_s",
        cells / (last_done - load.started).as_secs_f64(),
    );
    out.metrics.insert("setup_s", median(&startups));
    out.metrics.insert("peak_rss_mb", hwm as f64 / 1024.0);
    let latencies = ms(|j| j.latency);
    out.metrics
        .insert("job_latency_p50_ms", quantile(&latencies, 0.5));
    out.metrics
        .insert("job_latency_p90_ms", quantile(&latencies, 0.9));
    Ok(out)
}
