//! The traced run: each campaign replayed through the same public calls
//! the runner makes, in the same order and with the same thread split,
//! with one span per call, alternated with untraced runs of the same
//! campaign. Runs in a child process of its own, so the program's
//! process-global telemetry starts empty.

use crate::campaign::run_untraced;
use crate::trace::{self_ns_by_layer, total_ns, SpanRec, Tracer};
use crate::util::{bytes_under, digest_dir, median};
use qufi_cli::checkpoint::{CheckpointStore, JobMeta};
use qufi_cli::job::{job_matrix, JobRuntime, JobSpec};
use qufi_cli::{export_artifacts, store_or_check_manifest, ExecutorKind, Manifest};
use qufi_core::campaign::split_thread_budget;
use qufi_core::engine::SeedHasher;
use qufi_core::executor::{IdealExecutor, NoisyExecutor, TrajectoryExecutor};
use qufi_core::fault::InjectionPoint;
use qufi_core::mapping::{extract_splice_sites, mark_injection_site};
use qufi_core::metrics::qvf_from_dist;
use qufi_core::{InjectionRecord, SweepExecutor};
use qufi_noise::{BackendCalibration, NoisePlan};
use qufi_sim::{Op, QuantumCircuit};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The executor a job's points run on — built the way `JobRuntime`
/// builds its own, which is private to it.
enum JobExec {
    Ideal(IdealExecutor),
    /// Boxed: its calibration tables dwarf the other variants.
    Noisy(Box<NoisyExecutor>),
    Trajectory {
        calibration: BackendCalibration,
        shots: u64,
        campaign_seed: u64,
        job_id: String,
    },
}

impl JobExec {
    fn new(manifest: &Manifest, spec: &JobSpec) -> Result<JobExec, String> {
        let calibration = || {
            let cal = BackendCalibration::named(&spec.backend)
                .ok_or_else(|| format!("unknown backend {:?}", spec.backend))?;
            Ok::<_, String>(if (spec.scale - 1.0).abs() < f64::EPSILON {
                cal
            } else {
                cal.scaled(spec.scale)
            })
        };
        Ok(match manifest.executor {
            ExecutorKind::Ideal => JobExec::Ideal(IdealExecutor),
            ExecutorKind::Noisy => JobExec::Noisy(Box::new(NoisyExecutor::new(calibration()?))),
            ExecutorKind::Trajectory => JobExec::Trajectory {
                calibration: calibration()?,
                shots: manifest.shots,
                campaign_seed: manifest.seed,
                job_id: spec.id(),
            },
            ExecutorKind::Hardware => return Err("hardware executor is not benchmarked".into()),
        })
    }

    /// Runs `f` on the executor for `point` (trajectory executors are
    /// seeded per point, as the runner seeds them).
    fn with<R>(&self, point: InjectionPoint, f: impl FnOnce(&dyn SweepExecutor) -> R) -> R {
        match self {
            JobExec::Ideal(ex) => f(ex),
            JobExec::Noisy(ex) => f(ex.as_ref()),
            JobExec::Trajectory {
                calibration,
                shots,
                campaign_seed,
                job_id,
            } => {
                let seed = SeedHasher::new()
                    .mix_u64(*campaign_seed)
                    .mix_bytes(job_id.as_bytes())
                    .mix_u64(point.op_index as u64)
                    .mix_u64(point.qubit as u64)
                    .finish();
                f(&TrajectoryExecutor::with_shots(
                    calibration.clone(),
                    seed,
                    *shots,
                ))
            }
        }
    }
}

/// What one traced campaign leaves besides its spans.
struct TracedRun {
    wall_ns: u64,
    digest: String,
    points: u64,
    cells: u64,
    jobs: u64,
    suffix_gates: u64,
    checkpoint_bytes: u64,
    export_bytes: u64,
}

/// One campaign through the runner's public calls, spanned.
fn traced_campaign(
    manifest: &Manifest,
    out: &Path,
    threads: usize,
    tracer: &Tracer,
) -> Result<TracedRun, String> {
    let _ = fs::remove_dir_all(out);
    let specs = job_matrix(manifest);
    let execs = specs
        .iter()
        .map(|s| JobExec::new(manifest, s))
        .collect::<Result<Vec<_>, _>>()?;
    let grid = manifest.grid.to_grid().map_err(|e| e.to_string())?;

    let started = Instant::now();
    let root = tracer.open("cli.runner", "run_to_completion", None, None);
    store_or_check_manifest(manifest, out).map_err(|e| e.to_string())?;
    let store = CheckpointStore::open(out).map_err(|e| e.to_string())?;
    let mut jobs = Vec::with_capacity(specs.len());
    for (j, spec) in specs.iter().enumerate() {
        let span = tracer.open("cli.job", "JobRuntime::prepare", Some(root.id()), Some(j));
        let rt = JobRuntime::prepare(manifest, spec).map_err(|e| e.to_string())?;
        span.close();
        let meta = JobMeta::from_runtime(&rt);
        store.save_meta(&meta).map_err(|e| e.to_string())?;
        jobs.push((rt, meta, Mutex::new(())));
    }
    let tasks: Vec<(usize, InjectionPoint)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, (rt, _, _))| rt.points.iter().map(move |&p| (j, p)))
        .collect();
    let (workers, grid_threads) = split_thread_budget(threads, tasks.len());
    let next = AtomicUsize::new(0);
    let suffix_gates = AtomicUsize::new(0);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let execute = tracer.open("cli.runner", "execute", Some(root.id()), None);
    let execute_id = execute.id();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(&(j, point)) = tasks.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let (rt, meta, append_lock) = &jobs[j];
                    let task = tracer.open("cli.runner", "point", Some(execute_id), Some(j));
                    let result = execs[j].with(point, |ex| {
                        let span = tracer.open(
                            "core.engine",
                            "SweepExecutor::prepare",
                            Some(task.id()),
                            Some(j),
                        );
                        let prepared = ex.prepare(&rt.circuit, point)?;
                        span.close();
                        suffix_gates.fetch_add(prepared.suffix_gates(), Ordering::Relaxed);
                        let span = tracer.open(
                            "core.engine",
                            "PreparedSweep::replay_grid_batched",
                            Some(task.id()),
                            Some(j),
                        );
                        let dists = prepared.replay_grid_batched(&grid, grid_threads)?;
                        span.close();
                        Ok::<_, qufi_core::ExecError>(dists)
                    });
                    let dists = match result {
                        Ok(d) => d,
                        Err(e) => {
                            failure
                                .lock()
                                .expect("failure slot")
                                .get_or_insert(e.to_string());
                            break;
                        }
                    };
                    let span =
                        tracer.open("core.metrics", "qvf_from_dist", Some(task.id()), Some(j));
                    let records: Vec<InjectionRecord> = grid
                        .iter()
                        .zip(dists)
                        .map(|((theta, phi), dist)| InjectionRecord {
                            point,
                            theta,
                            phi,
                            qvf: qvf_from_dist(&dist, &rt.golden),
                        })
                        .collect();
                    span.close();
                    let span = tracer.open(
                        "cli.checkpoint",
                        "CheckpointStore::append_records",
                        Some(task.id()),
                        Some(j),
                    );
                    let guard = append_lock.lock().expect("append lock");
                    let appended = store.append_records(&meta.id, &records);
                    drop(guard);
                    span.close();
                    task.close();
                    if let Err(e) = appended {
                        failure
                            .lock()
                            .expect("failure slot")
                            .get_or_insert(e.to_string());
                        break;
                    }
                }
                qufi_obs::flush();
            });
        }
    });
    execute.close();
    if let Some(e) = failure.into_inner().expect("failure slot") {
        return Err(e);
    }
    let span = tracer.open("cli.export", "export_artifacts", Some(root.id()), None);
    let report = export_artifacts(manifest, out).map_err(|e| e.to_string())?;
    span.close();
    root.close();
    let wall_ns = started.elapsed().as_nanos() as u64;

    let export_bytes = report
        .files
        .iter()
        .map(|f| fs::metadata(f).map(|m| m.len()))
        .sum::<Result<u64, _>>()
        .map_err(|e| e.to_string())?;
    Ok(TracedRun {
        wall_ns,
        digest: digest_dir(&out.join("results")).map_err(|e| e.to_string())?,
        points: tasks.len() as u64,
        cells: (tasks.len() * grid.len()) as u64,
        jobs: specs.len() as u64,
        suffix_gates: suffix_gates.into_inner() as u64,
        checkpoint_bytes: bytes_under(&out.join("checkpoints"), ".records.csv")
            .map_err(|e| e.to_string())?,
        export_bytes,
    })
}

/// Per-point layer facts no runner call exposes on its own: the
/// transpile of the marked circuit (timed) and the suffix flop count.
#[derive(Default)]
struct Probe {
    points: u64,
    transpile_ns: u64,
    swaps: u64,
    /// Σ over points of the computed suffix flops of one cell.
    flops_per_cell: f64,
}

/// Complex multiply-add: 4 multiplications and 4 additions.
const FLOPS_PER_CMAC: f64 = 8.0;

fn probe(manifest: &Manifest, tracer: &Tracer) -> Result<Probe, String> {
    let mut probe = Probe::default();
    for (j, spec) in job_matrix(manifest).iter().enumerate() {
        let rt = JobRuntime::prepare(manifest, spec).map_err(|e| e.to_string())?;
        let exec = JobExec::new(manifest, spec)?;
        for &point in &rt.points {
            probe.points += 1;
            let flops = match &exec {
                // The ideal engine replays the logical circuit: no
                // transpile, statevector kernels.
                JobExec::Ideal(_) => statevector_flops(&rt.circuit, point.op_index + 1),
                JobExec::Noisy(ex) => {
                    let (active, physical, from, qubit) = transpile_point(
                        ex.transpiler(),
                        &rt.circuit,
                        point,
                        tracer,
                        j,
                        &mut probe,
                    )?;
                    let model = ex.calibration().restrict(&active).noise_model();
                    density_suffix_flops(&NoisePlan::compile(&physical, &model), from, qubit)
                }
                JobExec::Trajectory {
                    calibration, shots, ..
                } => {
                    // Transpiling does not depend on the sampling seed.
                    let ex = TrajectoryExecutor::with_shots(calibration.clone(), 0, *shots);
                    let (_, physical, from, _) = transpile_point(
                        ex.transpiler(),
                        &rt.circuit,
                        point,
                        tracer,
                        j,
                        &mut probe,
                    )?;
                    statevector_flops(&physical, from) * *shots as f64
                }
            };
            probe.flops_per_cell += flops;
        }
    }
    Ok(probe)
}

/// Marks and transpiles one point as the engine's prepare does, timing
/// `Transpiler::run`; returns the active physical qubits, the compact
/// physical circuit, and the splice site's index and qubit.
fn transpile_point(
    transpiler: &qufi_transpile::Transpiler,
    circuit: &QuantumCircuit,
    point: InjectionPoint,
    tracer: &Tracer,
    job: usize,
    probe: &mut Probe,
) -> Result<(Vec<usize>, QuantumCircuit, usize, usize), String> {
    let marked = mark_injection_site(circuit, point).map_err(|e| e.to_string())?;
    let span = tracer.open("transpile", "Transpiler::run", None, Some(job));
    let result = transpiler.run(&marked).map_err(|e| e.to_string())?;
    probe.transpile_ns += span.close();
    probe.swaps += result.swaps_inserted() as u64;
    let active = result.active_physical_qubits();
    let (physical, sites) = extract_splice_sites(&compact(result.circuit(), &active));
    Ok((active, physical, sites[0].index, sites[0].qubit))
}

/// Computed flops of one cell's suffix on the density engine: a k-qubit
/// unitary is two passes over ρ as a 2n-bit state (16·4ⁿ·2ᵏ flops), a
/// t-qubit channel superoperator one pass (8·4ⁿ·4ᵗ). The injector counts
/// as a 1-qubit gate with its channels. Readout and marginalisation are
/// left out.
fn density_suffix_flops(plan: &NoisePlan, from: usize, qubit: usize) -> f64 {
    let rho = 4f64.powi(plan.num_qubits() as i32);
    let unitary = |k: usize| 2.0 * FLOPS_PER_CMAC * rho * 2f64.powi(k as i32);
    let channels = |chans: &[(qufi_math::CMatrix, Vec<usize>)]| {
        chans
            .iter()
            .map(|(_, t)| FLOPS_PER_CMAC * rho * 4f64.powi(t.len() as i32))
            .sum::<f64>()
    };
    let mut flops = unitary(1) + channels(plan.injector_channels(qubit));
    for (_, qubits, chans) in plan.planned_steps(from, plan.size()) {
        flops += unitary(qubits.len()) + channels(chans);
    }
    flops
}

/// Computed flops of one statevector pass over `qc` from instruction
/// `from` (8·2ⁿ·2ᵏ per k-qubit gate, plus the 1-qubit injector); noise
/// channels are left out.
fn statevector_flops(qc: &QuantumCircuit, from: usize) -> f64 {
    let amps = 2f64.powi(qc.num_qubits() as i32);
    let gate = |k: usize| FLOPS_PER_CMAC * amps * 2f64.powi(k as i32);
    gate(1)
        + qc.instructions()
            .skip(from)
            .map(|op| match op {
                Op::Gate { qubits, .. } => gate(qubits.len()),
                _ => 0.0,
            })
            .sum::<f64>()
}

/// Remaps a transpiled circuit onto its active physical qubits, as the
/// engine does before simulating.
fn compact(qc: &QuantumCircuit, active: &[usize]) -> QuantumCircuit {
    let mut pos = vec![usize::MAX; qc.num_qubits()];
    for (i, &p) in active.iter().enumerate() {
        pos[p] = i;
    }
    let mut out = QuantumCircuit::with_name(active.len(), qc.num_clbits(), &qc.name);
    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } => {
                let mapped: Vec<usize> = qubits.iter().map(|&q| pos[q]).collect();
                out.append(*gate, &mapped);
            }
            Op::Barrier(qs) => {
                let mapped: Vec<usize> = qs
                    .iter()
                    .map(|&q| pos[q])
                    .filter(|&q| q != usize::MAX)
                    .collect();
                out.barrier(&mapped);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(pos[*qubit], *clbit);
            }
        }
    }
    out
}

/// `numerator / denominator`, or 0 when nothing was counted.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The `traced` child: for each round and each manifest, one untraced
/// campaign then one traced campaign (after one untraced warm-up per
/// manifest). Prints one JSON line with the per-layer metrics and every
/// results digest. Spans are written to `spans_out` at the end.
pub fn traced_rounds(
    manifests: &[Manifest],
    work: &Path,
    threads: usize,
    rounds: usize,
    spans_out: &Path,
) -> Result<(), String> {
    let out = work.join("traced");
    for m in manifests {
        run_untraced(m, &out, threads)?;
    }
    let tracer = Tracer::new();
    let mut untraced_digests = Vec::new();
    let mut traced_digests = Vec::new();
    let mut overheads = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hist_sums: BTreeMap<String, u64> = BTreeMap::new();
    let (mut busy_ns, mut execute_capacity_ns) = (0u64, 0u64);
    let mut runs = Vec::new();
    for _ in 0..rounds {
        for m in manifests {
            let u = run_untraced(m, &out, threads)?;
            untraced_digests.push(u.digest);
            // The untraced run's shipped telemetry: worker busy time.
            let snap = qufi_obs::Snapshot::from_json(
                &fs::read_to_string(out.join("metrics.json")).map_err(|e| e.to_string())?,
            )?;
            let costs = qufi_obs::parse_costs_csv(
                &fs::read_to_string(out.join("costs.csv")).map_err(|e| e.to_string())?,
            )?;
            let points = costs.len();
            busy_ns += costs
                .iter()
                .map(|c| c.prepare_ns + c.replay_ns)
                .sum::<u64>();
            let workers = split_thread_budget(threads, points).0 as u64;
            execute_capacity_ns +=
                workers * snap.hists.get("campaign.execute_ns").map_or(0, |h| h.sum);

            qufi_obs::reset();
            qufi_obs::enable();
            let t = traced_campaign(m, &out, threads, &tracer);
            qufi_obs::disable();
            let t = t?;
            let snap = qufi_obs::snapshot();
            for (k, v) in &snap.counters {
                *counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &snap.hists {
                *hist_sums.entry(k.clone()).or_insert(0) += h.sum;
            }
            overheads.push(t.wall_ns as f64 / (u.setup + u.run).as_nanos() as f64 - 1.0);
            traced_digests.push(t.digest.clone());
            runs.push(t);
        }
    }
    let _ = fs::remove_dir_all(&out);

    let mut probe_total = Probe::default();
    for m in manifests {
        let p = probe(m, &tracer)?;
        probe_total.points += p.points;
        probe_total.transpile_ns += p.transpile_ns;
        probe_total.swaps += p.swaps;
        probe_total.flops_per_cell += p.flops_per_cell;
    }
    tracer.write_jsonl(spans_out).map_err(|e| e.to_string())?;

    let spans: Vec<SpanRec> = tracer.spans();
    let sum = |f: fn(&TracedRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let (points, cells, jobs) = (sum(|r| r.points), sum(|r| r.cells), sum(|r| r.jobs));
    let campaigns = runs.len() as f64;
    let counter = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let hist = |k: &str| hist_sums.get(k).copied().unwrap_or(0) as f64;
    let replay_ns = total_ns(&spans, "PreparedSweep::replay_grid_batched") as f64;
    let export_ns = total_ns(&spans, "export_artifacts") as f64;
    // Each probed point stands for `cells / points` cells per traced
    // campaign; flops per cell is the mean over points.
    let flops_per_cell = ratio(probe_total.flops_per_cell, probe_total.points as f64);
    let shots = manifests.first().map_or(0, |m| m.shots) as f64;
    let traj_shots = if manifests
        .iter()
        .all(|m| m.executor == ExecutorKind::Trajectory)
    {
        cells * shots
    } else {
        0.0
    };

    let mut metrics: Vec<(String, f64)> = vec![
        (
            "engine.replay_us_per_cell".into(),
            ratio(replay_ns / 1e3, cells),
        ),
        (
            "engine.prepare_us_per_point".into(),
            ratio(
                total_ns(&spans, "SweepExecutor::prepare") as f64 / 1e3,
                points,
            ),
        ),
        (
            "engine.suffix_gates_per_point".into(),
            ratio(sum(|r| r.suffix_gates), points),
        ),
        (
            "engine.cells_per_block".into(),
            ratio(
                counter("replay.batch.cells"),
                counter("replay.batch.blocks"),
            ),
        ),
        (
            "engine.scalar_fallback_ratio".into(),
            ratio(
                counter("replay.batch.scalar_fallback"),
                counter("replay.cells"),
            ),
        ),
        (
            "transpile.run_us_per_point".into(),
            ratio(
                probe_total.transpile_ns as f64 / 1e3,
                probe_total.points as f64,
            ),
        ),
        (
            "transpile.swaps_per_point".into(),
            ratio(probe_total.swaps as f64, probe_total.points as f64),
        ),
        (
            "noise.plan_us_per_point".into(),
            ratio(hist("prepare.plan_ns") / 1e3, points),
        ),
        (
            "noise.prefix_us_per_point".into(),
            ratio(hist("prepare.prefix_ns") / 1e3, points),
        ),
        (
            "noise.traj_us_per_shot".into(),
            ratio(replay_ns / 1e3, traj_shots),
        ),
        (
            "noise.traj_draws_per_shot".into(),
            ratio(counter("traj.branch_draws"), counter("traj.shots")),
        ),
        ("sim.suffix_mflop_per_cell".into(), flops_per_cell / 1e6),
        (
            "sim.suffix_gflops".into(),
            ratio(flops_per_cell * cells, replay_ns),
        ),
        (
            "sim.state_copies_per_cell".into(),
            ratio(counter("sim.state_copies"), cells),
        ),
        (
            "metrics.qvf_ns_per_cell".into(),
            ratio(total_ns(&spans, "qvf_from_dist") as f64, cells),
        ),
        (
            "job.prepare_ms_per_job".into(),
            ratio(total_ns(&spans, "JobRuntime::prepare") as f64 / 1e6, jobs),
        ),
        (
            "checkpoint.append_us_per_point".into(),
            ratio(
                total_ns(&spans, "CheckpointStore::append_records") as f64 / 1e3,
                points,
            ),
        ),
        (
            "checkpoint.bytes_per_cell".into(),
            ratio(sum(|r| r.checkpoint_bytes), cells),
        ),
        (
            "export.ms_per_campaign".into(),
            ratio(export_ns / 1e6, campaigns),
        ),
        (
            "export.mb_per_s".into(),
            ratio(sum(|r| r.export_bytes) * 1e3, export_ns),
        ),
        (
            "runner.worker_busy_ratio".into(),
            ratio(busy_ns as f64, execute_capacity_ns as f64),
        ),
        ("obs.trace_overhead_ratio".into(), median(&overheads)),
    ];
    let self_ns = self_ns_by_layer(&spans);
    for layer in [
        "cli.runner",
        "cli.job",
        "core.engine",
        "core.metrics",
        "cli.checkpoint",
        "cli.export",
    ] {
        let ns = self_ns.get(layer).copied().unwrap_or(0) as f64;
        metrics.push((format!("self.{layer}_ms"), ratio(ns / 1e6, campaigns)));
    }

    let mut line = String::from("{\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{k}\":{}",
            if i == 0 { "" } else { "," },
            finite(*v)
        );
    }
    let list = |v: &[String]| {
        v.iter()
            .map(|d| format!("\"{d}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = write!(
        line,
        "}},\"untraced_digests\":[{}],\"traced_digests\":[{}]}}",
        list(&untraced_digests),
        list(&traced_digests)
    );
    println!("{line}");
    Ok(())
}

/// A JSON-safe number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
