//! Single-fault injection campaigns (paper §IV-B, results §V-B).
//!
//! A campaign sweeps every injection point of a circuit (after each gate,
//! on each operand qubit) across the φ/θ fault grid, executes each faulty
//! circuit, and records the QVF. Points are independent, so the work is
//! distributed over [`run_units`], the point pool every campaign driver
//! shares: this module, [`crate::double`] and the `qufi` CLI's
//! checkpointed runner.
//!
//! Execution goes through the forked-state sweep engine
//! ([`crate::engine`]): each point transpiles and evolves its circuit
//! prefix **once**, then replays all grid configurations from a state
//! snapshot through one grid fan-out,
//! [`PreparedSweep::replay_grid_batched`](crate::engine::PreparedSweep::replay_grid_batched).
//! [`run_point_sweep`] is that per-point unit. The pre-engine
//! per-configuration pipeline survives only as
//! [`PreparedSweep::replay_naive`](crate::engine::PreparedSweep::replay_naive),
//! the oracle the differential test suites compare against.

use crate::engine::SweepExecutor;
use crate::error::ExecError;
use crate::executor::{Executor, IdealExecutor};
use crate::fault::{enumerate_injection_points, FaultGrid, InjectionPoint};
use crate::metrics::{mean, qvf_from_dist, stddev, Severity};
use parking_lot::Mutex;
use qufi_sim::QuantumCircuit;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One executed injection and its measured QVF.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct InjectionRecord {
    /// Where the fault struck.
    pub point: InjectionPoint,
    /// θ shift injected.
    pub theta: f64,
    /// φ shift injected.
    pub phi: f64,
    /// Resulting Quantum Vulnerability Factor.
    pub qvf: f64,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// The φ/θ sweep; defaults to the paper's 312-configuration grid.
    pub grid: FaultGrid,
    /// Explicit injection points (`None` = every gate/operand pair).
    pub points: Option<Vec<InjectionPoint>>,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            grid: FaultGrid::paper(),
            points: None,
            threads: 0,
        }
    }
}

impl CampaignOptions {
    /// The paper's full grid on all injection points.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A coarse grid for quick runs and benches.
    pub fn coarse() -> Self {
        CampaignOptions {
            grid: FaultGrid::coarse(),
            ..Self::default()
        }
    }
}

/// A thread budget with `0` meaning every available core.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Summary statistics of a campaign ([`CampaignResult::stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Records classified masked.
    pub masked: usize,
    /// Records classified dubious.
    pub dubious: usize,
    /// Records classified as silent data corruption.
    pub sdc: usize,
    /// [`CampaignResult::mean_qvf`].
    pub mean_qvf: f64,
    /// [`CampaignResult::stddev_qvf`].
    pub stddev_qvf: f64,
    /// [`CampaignResult::improved_fraction`].
    pub improved_fraction: f64,
}

/// The outcome of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Name of the analyzed circuit.
    pub circuit_name: String,
    /// Golden outcome indices used for the QVF.
    pub golden: Vec<usize>,
    /// QVF of the fault-free (but still noisy) execution — the `(0, 0)`
    /// reference spot of the paper's heatmaps.
    pub baseline_qvf: f64,
    /// One record per (point, θ, φ), sorted by (point, φ, θ).
    pub records: Vec<InjectionRecord>,
    /// The grid that was swept.
    pub grid: FaultGrid,
}

/// The deterministic record order: (point, φ, θ).
fn record_key(r: &InjectionRecord) -> (InjectionPoint, f64, f64) {
    (r.point, r.phi, r.theta)
}

fn cmp_records(a: &InjectionRecord, b: &InjectionRecord) -> std::cmp::Ordering {
    record_key(a)
        .partial_cmp(&record_key(b))
        .expect("angles are finite")
}

fn sort_records(records: &mut [InjectionRecord]) {
    records.sort_by(cmp_records);
}

impl CampaignResult {
    /// Assembles a result from independently-produced pieces (checkpoint
    /// shards, per-point jobs) — records are sorted into the canonical
    /// (point, φ, θ) order so the result is identical to what one
    /// uninterrupted [`run_single_campaign`] call would have returned.
    pub fn from_parts(
        circuit_name: impl Into<String>,
        golden: Vec<usize>,
        baseline_qvf: f64,
        grid: FaultGrid,
        mut records: Vec<InjectionRecord>,
    ) -> Self {
        sort_records(&mut records);
        CampaignResult {
            circuit_name: circuit_name.into(),
            golden,
            baseline_qvf,
            records,
            grid,
        }
    }

    /// Incrementally merges more records into this result (e.g. a resumed
    /// campaign folding fresh injections into a checkpoint). Duplicate
    /// (point, θ, φ) entries keep the already-present record, so replaying
    /// a checkpoint over itself is a no-op; ordering is restored.
    ///
    /// Precisely: a new record is dropped when its (point, θ bits, φ bits)
    /// key matches a present record or an earlier new one; the survivors
    /// are stably sorted by (point, φ, θ) after the present records.
    pub fn merge_records(&mut self, extra: Vec<InjectionRecord>) {
        if extra.is_empty() {
            return;
        }
        let present = self.records.len();
        let mut all = std::mem::take(&mut self.records);
        all.extend(extra);
        // A stable sort of indices: within a run of equal sort keys the
        // present records come first, then the new ones in arrival order.
        // Bit-equal angles compare equal, so every duplicate of a key
        // lands in the run of its first occurrence.
        let mut order: Vec<usize> = (0..all.len()).collect();
        order.sort_by(|&a, &b| cmp_records(&all[a], &all[b]));
        let bits = |r: &InjectionRecord| (r.point, r.theta.to_bits(), r.phi.to_bits());
        let mut merged: Vec<InjectionRecord> = Vec::with_capacity(all.len());
        let mut run = 0;
        for i in order {
            let r = all[i];
            if merged
                .last()
                .is_some_and(|last| cmp_records(last, &r).is_ne())
            {
                run = merged.len();
            }
            // A run's keys differ at most in the signs of zero angles, so
            // it holds at most four distinct keys: the scan is short.
            if i < present || !merged[run..].iter().any(|k| bits(k) == bits(&r)) {
                merged.push(r);
            }
        }
        self.records = merged;
    }

    /// Severity counts, mean, standard deviation and improved fraction,
    /// computed together for writers that report all of them. Each field
    /// equals its single-statistic method bit for bit.
    pub fn stats(&self) -> CampaignStats {
        let qvfs = self.qvfs();
        let (masked, dubious, sdc) = self.severity_counts();
        CampaignStats {
            masked,
            dubious,
            sdc,
            mean_qvf: mean(&qvfs),
            stddev_qvf: stddev(&qvfs),
            improved_fraction: self.improved_fraction(),
        }
    }

    /// All QVF values.
    pub fn qvfs(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.qvf).collect()
    }

    /// Mean QVF over all injections.
    pub fn mean_qvf(&self) -> f64 {
        mean(&self.qvfs())
    }

    /// Population standard deviation of the QVF.
    pub fn stddev_qvf(&self) -> f64 {
        stddev(&self.qvfs())
    }

    /// `(masked, dubious, sdc)` counts (paper §V-B classification).
    pub fn severity_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for r in &self.records {
            match Severity::classify(r.qvf) {
                Severity::Masked => c.0 += 1,
                Severity::Dubious => c.1 += 1,
                Severity::Sdc => c.2 += 1,
            }
        }
        c
    }

    /// Fraction of injections that *improved* the QVF relative to the
    /// fault-free baseline — the paper reports ~0.9% of injections
    /// compensating the intrinsic noise (§V-B).
    pub fn improved_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let improved = self
            .records
            .iter()
            .filter(|r| r.qvf < self.baseline_qvf - 1e-12)
            .count();
        improved as f64 / self.records.len() as f64
    }

    /// Records restricted to faults on one qubit (per-qubit heatmaps,
    /// paper Fig. 6).
    pub fn records_for_qubit(&self, qubit: usize) -> Vec<InjectionRecord> {
        self.records
            .iter()
            .copied()
            .filter(|r| r.point.qubit == qubit)
            .collect()
    }

    /// The distinct qubits that received injections.
    pub fn injected_qubits(&self) -> Vec<usize> {
        let mut qs: Vec<usize> = self.records.iter().map(|r| r.point.qubit).collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }

    /// Total number of injections.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no injection was performed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Determines the golden (expected) outputs of a circuit from its ideal,
/// fault-free execution: all outcomes within `1e-9` of the maximum
/// probability (multiple-winner circuits like GHZ yield several).
///
/// # Errors
///
/// [`ExecError::NoGoldenState`] when the ideal output is all-zero (cannot
/// happen for valid circuits) and simulation errors otherwise.
pub fn golden_outputs(qc: &QuantumCircuit) -> Result<Vec<usize>, ExecError> {
    let dist = IdealExecutor.execute(qc)?;
    let (_, max_p) = dist.most_probable();
    if max_p <= 0.0 {
        return Err(ExecError::NoGoldenState);
    }
    Ok((0..dist.len())
        .filter(|&i| dist.prob(i) >= max_p - 1e-9)
        .collect())
}

/// Executes one scheduling unit of a campaign: every (θ, φ) of `grid`
/// injected at a single `point`, in grid order, through the forked-state
/// fast path — the point is prepared (transpile + prefix evolution) once
/// and the grid replays from the snapshot across `grid_threads` threads
/// ([`crate::engine::PreparedSweep::replay_grid_batched`]). Records are
/// identical — bit-for-bit, including sampling scenarios — for every
/// `grid_threads` value and every batch width, `QUFI_BATCH_CELLS=1` (the
/// CLI's `--no-batch`) included. Campaign schedulers (the point pool
/// here, the `qufi` CLI's checkpointed runner) fan these out and merge
/// the records with [`CampaignResult::merge_records`].
///
/// # Errors
///
/// Preparation failures.
pub fn run_point_sweep<E: SweepExecutor + ?Sized>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    point: InjectionPoint,
    grid: &FaultGrid,
    grid_threads: usize,
) -> Result<Vec<InjectionRecord>, ExecError> {
    let prepare_span = qufi_obs::span("point.prepare_ns");
    let prepared = executor.prepare(qc, point)?;
    let prepare_ns = prepare_span.finish();
    let replay_span = qufi_obs::span("point.replay_ns");
    let dists = prepared.replay_grid_batched(grid, grid_threads)?;
    let replay_ns = replay_span.finish();
    qufi_obs::record_cost(
        point.op_index,
        point.qubit,
        prepare_ns,
        replay_ns,
        grid.len() as u64,
    );
    Ok(grid
        .iter()
        .zip(dists)
        .map(|((theta, phi), dist)| InjectionRecord {
            point,
            theta,
            phi,
            qvf: qvf_from_dist(&dist, golden),
        })
        .collect())
}

/// Splits a total thread budget between point-level workers and per-point
/// grid threads: `(point_workers, grid_threads)` with `point_workers ×
/// grid_threads ≤ total`. Point-level parallelism is preferred (points
/// amortize a transpile + prefix evolution each); leftover budget goes to
/// the per-point grid. The split affects scheduling only — results are
/// identical for any split.
pub fn split_thread_budget(total: usize, points: usize) -> (usize, usize) {
    let total = total.max(1);
    let workers = total.min(points.max(1));
    (workers, (total / workers).max(1))
}

/// Runs a single-fault campaign of `qc` on `executor`.
///
/// Every injection builds the faulty circuit, executes it, and scores the
/// output against `golden` with the QVF. Records come back sorted by
/// (point, φ, θ) for reproducibility regardless of thread scheduling.
///
/// # Errors
///
/// The first execution error aborts the campaign.
pub fn run_single_campaign<E: SweepExecutor>(
    qc: &QuantumCircuit,
    golden: &[usize],
    executor: &E,
    options: &CampaignOptions,
) -> Result<CampaignResult, ExecError> {
    let points = options
        .points
        .clone()
        .unwrap_or_else(|| enumerate_injection_points(qc));
    let baseline_qvf = qvf_from_dist(&executor.execute(qc)?, golden);

    // One unit per injection point; each sweeps the whole grid, which
    // amortizes scheduling overhead over ~312 executions. Two-level split:
    // point workers claim units; each point fans its grid across the
    // leftover per-worker budget.
    let (workers, grid_threads) =
        split_thread_budget(resolve_threads(options.threads), points.len());
    let pooled = run_units(&points, workers, Vec::new, |records, &point| {
        records.extend(run_point_sweep(
            qc,
            golden,
            executor,
            point,
            &options.grid,
            grid_threads,
        )?);
        Ok::<_, ExecError>(ControlFlow::Continue(()))
    })?;
    Ok(CampaignResult::from_parts(
        qc.name.clone(),
        golden.to_vec(),
        baseline_qvf,
        options.grid.clone(),
        pooled.states.into_iter().flatten().collect(),
    ))
}

/// What a [`run_units`] pool left behind.
#[derive(Debug)]
pub struct Pooled<S> {
    /// Each worker's state after its last unit, in worker order.
    pub states: Vec<S>,
    /// A unit returned [`ControlFlow::Break`], so later units never ran.
    pub stopped: bool,
}

/// The point pool behind every campaign driver: `workers` scoped threads
/// claim `units` in order, each folding the units it claims into its own
/// state, made by `init` — records, a [`ReplayScratch`](crate::engine::ReplayScratch),
/// or nothing.
///
/// Once a unit returns an error or [`ControlFlow::Break`] (a budget or a
/// cancel), no worker claims another unit; units already claimed finish.
/// Every worker flushes its `qufi-obs` telemetry before the scope ends, so
/// a snapshot taken after this returns sees all of it.
///
/// # Errors
///
/// The first error a unit returned; the workers' states are dropped.
pub fn run_units<U, S, E>(
    units: &[U],
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &U) -> Result<ControlFlow<()>, E> + Sync,
) -> Result<Pooled<S>, E>
where
    U: Sync,
    S: Send,
    E: Send,
{
    let next = AtomicUsize::new(0);
    let halt = AtomicBool::new(false);
    let first_error: Mutex<Option<E>> = Mutex::new(None);
    let states = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1).min(units.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    while !halt.load(Ordering::SeqCst) {
                        let Some(unit) = units.get(next.fetch_add(1, Ordering::SeqCst)) else {
                            break;
                        };
                        match work(&mut state, unit) {
                            Ok(ControlFlow::Continue(())) => {}
                            Ok(ControlFlow::Break(())) => halt.store(true, Ordering::SeqCst),
                            Err(e) => {
                                first_error.lock().get_or_insert(e);
                                halt.store(true, Ordering::SeqCst);
                            }
                        }
                    }
                    // Merge telemetry before the closure returns: the
                    // scope's exit synchronizes with closure completion,
                    // not with TLS destructors, so at-exit merging would
                    // race a snapshot taken after the scope.
                    qufi_obs::flush();
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect()
    });
    match first_error.into_inner() {
        Some(e) => Err(e),
        None => Ok(Pooled {
            states,
            stopped: halt.into_inner(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NoisyExecutor;
    use qufi_algos::{bernstein_vazirani, ghz};
    use qufi_noise::BackendCalibration;
    use std::f64::consts::PI;

    #[test]
    fn golden_outputs_single_and_multi() {
        let bv = bernstein_vazirani(0b101, 3);
        assert_eq!(golden_outputs(&bv.circuit).unwrap(), vec![0b101]);
        let g = ghz(3);
        assert_eq!(golden_outputs(&g.circuit).unwrap(), vec![0, 0b111]);
    }

    #[test]
    fn ideal_campaign_null_fault_has_zero_qvf() {
        let w = bernstein_vazirani(0b11, 2);
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![0.0], vec![0.0]),
            points: None,
            threads: 2,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        assert!(!res.is_empty());
        for r in &res.records {
            assert!(
                r.qvf < 1e-9,
                "null fault should be invisible, got {}",
                r.qvf
            );
        }
        assert_eq!(res.baseline_qvf, 0.0);
    }

    #[test]
    fn theta_pi_everywhere_is_harmful_somewhere() {
        let w = bernstein_vazirani(0b101, 3);
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![PI], vec![0.0]),
            points: None,
            threads: 0,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        // A bit-flip-equivalent fault on a measured qubit must produce SDCs.
        let (_, _, sdc) = res.severity_counts();
        assert!(sdc > 0, "no SDC from θ=π faults: {res:?}");
    }

    #[test]
    fn records_are_sorted_and_complete() {
        let w = bernstein_vazirani(0b1, 1);
        let opts = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads: 3,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        let n_points = enumerate_injection_points(&w.circuit).len();
        assert_eq!(res.len(), n_points * opts.grid.len());
        for w in res.records.windows(2) {
            assert!(
                (w[0].point, w[0].phi, w[0].theta) <= (w[1].point, w[1].phi, w[1].theta),
                "records unsorted"
            );
        }
    }

    #[test]
    fn thread_budget_split_prefers_points_then_grid() {
        // More points than threads: all budget to point workers.
        assert_eq!(split_thread_budget(4, 12), (4, 1));
        // Fewer points than threads: leftover budget goes to the grid.
        assert_eq!(split_thread_budget(8, 3), (3, 2));
        assert_eq!(split_thread_budget(8, 1), (1, 8));
        // Degenerate inputs stay sane.
        assert_eq!(split_thread_budget(0, 0), (1, 1));
        assert_eq!(split_thread_budget(1, 100), (1, 1));
    }

    #[test]
    fn grid_parallel_point_sweep_matches_serial() {
        let w = bernstein_vazirani(0b101, 3);
        let golden = golden_outputs(&w.circuit).unwrap();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let point = InjectionPoint {
            op_index: 2,
            qubit: 0,
        };
        let grid = FaultGrid::coarse();
        let serial = run_point_sweep(&w.circuit, &golden, &ex, point, &grid, 1).unwrap();
        for threads in [2, 4] {
            let parallel =
                run_point_sweep(&w.circuit, &golden, &ex, point, &grid, threads).unwrap();
            assert_eq!(serial, parallel, "{threads}-thread grid sweep diverged");
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let w = bernstein_vazirani(0b10, 2);
        let mk = |threads| CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads,
        };
        let a =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &mk(1)).unwrap();
        let b =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &mk(4)).unwrap();
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn noisy_campaign_baseline_is_nonzero() {
        let w = bernstein_vazirani(0b101, 3);
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let opts = CampaignOptions {
            grid: FaultGrid::custom(vec![0.0, PI], vec![0.0]),
            points: Some(vec![InjectionPoint {
                op_index: 2,
                qubit: 0,
            }]),
            threads: 0,
        };
        let res = run_single_campaign(&w.circuit, &w.correct_outputs, &ex, &opts).unwrap();
        // "A fault-free execution … its color is not solid green (QVF > 0)
        // due to noise" (§V-B).
        assert!(res.baseline_qvf > 0.0);
        assert!(res.baseline_qvf < 0.45, "baseline should still be masked");
        // The θ=0 injection behaves like the baseline; θ=π is much worse.
        let q0 = res.records.iter().find(|r| r.theta == 0.0).unwrap().qvf;
        let qpi = res.records.iter().find(|r| r.theta == PI).unwrap().qvf;
        assert!(qpi > q0 + 0.3, "θ=π ({qpi}) vs θ=0 ({q0})");
    }

    #[test]
    fn point_sweeps_merge_into_the_full_campaign() {
        // Fan the campaign out point-by-point through the public job unit
        // and reassemble with merge_records: must bit-match the one-shot
        // run, regardless of merge order or duplicated shards.
        let w = bernstein_vazirani(0b10, 2);
        let opts = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads: 1,
        };
        let whole =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();

        let mut rebuilt = CampaignResult::from_parts(
            w.circuit.name.clone(),
            whole.golden.clone(),
            whole.baseline_qvf,
            opts.grid.clone(),
            Vec::new(),
        );
        let mut points = enumerate_injection_points(&w.circuit);
        points.reverse(); // out-of-order merges must not matter
        for p in points {
            let shard = run_point_sweep(
                &w.circuit,
                &w.correct_outputs,
                &IdealExecutor,
                p,
                &opts.grid,
                1,
            )
            .unwrap();
            rebuilt.merge_records(shard.clone());
            rebuilt.merge_records(shard); // replaying a shard is a no-op
        }
        assert_eq!(rebuilt.records, whole.records);
    }

    #[test]
    fn merge_keeps_the_first_occurrence_of_each_key() {
        // The dedup key is (op, qubit, θ bits, φ bits): conflicting
        // duplicates lose to the earlier record (existing before new,
        // earlier before later within a batch), while ±0.0 angle twins
        // are distinct keys that sort as equals and so keep their
        // first-occurrence order.
        let rec = |op: usize, theta: f64, phi: f64, qvf: f64| InjectionRecord {
            point: InjectionPoint {
                op_index: op,
                qubit: 0,
            },
            theta,
            phi,
            qvf,
        };
        let grid = FaultGrid::custom(vec![0.0, 0.5, 1.0], vec![0.0]);
        let mut result = CampaignResult::from_parts(
            "t",
            vec![0],
            0.0,
            grid,
            vec![
                rec(1, 1.0, 0.0, 0.2),
                rec(1, 0.0, 0.0, 0.1),
                rec(2, 0.0, -0.0, 0.3),
            ],
        );
        result.merge_records(vec![
            rec(1, 1.0, 0.0, 0.9),  // conflicts with an existing record
            rec(1, 0.5, 0.0, 0.4),  // new
            rec(1, 0.5, 0.0, 0.8),  // duplicate within the batch
            rec(3, -0.0, 0.0, 0.6), // twins, the negative one first
            rec(2, 0.0, 0.0, 0.5),  // φ twin of an existing record
            rec(3, 0.0, 0.0, 0.7),
            rec(2, -0.0, 0.0, 0.55), // θ twin
            rec(2, 0.0, -0.0, 0.35), // duplicate of an existing record
            rec(3, -0.0, 0.0, 0.65), // duplicate of a new twin
        ]);
        let expected = [
            rec(1, 0.0, 0.0, 0.1),
            rec(1, 0.5, 0.0, 0.4),
            rec(1, 1.0, 0.0, 0.2),
            rec(2, 0.0, -0.0, 0.3),
            rec(2, 0.0, 0.0, 0.5),
            rec(2, -0.0, 0.0, 0.55),
            rec(3, -0.0, 0.0, 0.6),
            rec(3, 0.0, 0.0, 0.7),
        ];
        let bits =
            |r: &InjectionRecord| (r.point, r.theta.to_bits(), r.phi.to_bits(), r.qvf.to_bits());
        let got: Vec<_> = result.records.iter().map(bits).collect();
        let want: Vec<_> = expected.iter().map(bits).collect();
        assert_eq!(got, want);
        // Existing duplicates are never dropped, and merging nothing is a
        // no-op that keeps them.
        let mut dup = result.clone();
        dup.records.push(rec(1, 0.0, 0.0, 0.15));
        dup.merge_records(vec![rec(1, 0.0, 0.0, 0.25)]);
        assert_eq!(dup.records.len(), expected.len() + 1);
        assert_eq!(dup.records[1].qvf, 0.15);
    }

    #[test]
    fn per_qubit_filter_partitions_records() {
        let w = bernstein_vazirani(0b11, 2);
        let opts = CampaignOptions {
            grid: FaultGrid::coarse(),
            points: None,
            threads: 0,
        };
        let res =
            run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &opts).unwrap();
        let total: usize = res
            .injected_qubits()
            .iter()
            .map(|&q| res.records_for_qubit(q).len())
            .sum();
        assert_eq!(total, res.len());
    }
}
