//! The forked-state sweep engine.
//!
//! The paper's sweep varies only the injected `U(θ, φ, 0)` gate: all 312
//! configurations of one injection point (§IV-B) share everything before
//! the injector. The naive pipeline nevertheless rebuilt, re-transpiled and
//! re-simulated the whole faulty circuit per configuration. This module
//! splits that work:
//!
//! 1. [`SweepExecutor::prepare`] runs **once per injection point**: it
//!    carries the logical site through transpilation with a splice marker
//!    ([`crate::mapping`]), compacts the physical circuit, evolves the
//!    prefix up to the splice boundary, and parks the simulator state.
//! 2. [`PreparedSweep::replay`] runs **once per configuration**: it forks
//!    the parked state, applies the injector gate (which suffers gate noise
//!    like any physical gate), finishes the suffix, and reads out.
//! 3. [`PreparedSweep::replay_grid_batched`] is the one grid entry point:
//!    one deterministic fan-out of θ-sorted cell blocks across threads.
//!    Blocks wider than one cell evolve in lockstep through the batched
//!    kernels; one-cell blocks (`QUFI_BATCH_CELLS=1`, one-cell grids,
//!    trajectory) take step 2 per cell. Both give the same bits.
//!
//! A sweep has k splice sites, one injector each: k = 1 for a single
//! fault, k = 2 for the multi-qubit strike of §III-C, whose second, weaker
//! injector lands on a neighboring qubit at the same position
//! ([`SweepExecutor::prepare_sites`]). A configuration is one
//! [`FaultParams`] per site, and one check guards every replay entry point
//! of every executor (see [`PreparedSweep`]).
//!
//! Because the prefix/suffix evolution applies exactly the same operation
//! sequence as a straight run (see [`qufi_noise::simulate::NoisyCursor`]),
//! a replay is **bit-identical** to the naive rebuild — a guarantee pinned
//! by `tests/fork_equivalence.rs`, which diffs every replay against
//! [`PreparedSweep::replay_naive`], the retained per-configuration oracle
//! path.
//!
//! Faults are spliced into the **transpiled physical circuit**, matching
//! the paper's methodology ("QuFI keeps track of the logical and physical
//! qubits throughout the transpiling process", §IV-C): a radiation strike
//! is a runtime event, so the injector must not be fused away or merged
//! with neighboring gates by the circuit optimizer.

use crate::error::ExecError;
use crate::executor::{
    compact_circuit, Executor, HardwareExecutor, IdealExecutor, NoisyExecutor, TrajectoryExecutor,
};
use crate::fault::{
    check_double_site, check_fault_order, check_injection_point, FaultGrid, FaultParams,
    InjectionPoint,
};
use crate::mapping::{
    extract_splice_sites, mark_double_injection_site, mark_injection_site, SpliceSite,
};
use qufi_math::CMatrix;
use qufi_noise::readout::apply_readout_errors;
use qufi_noise::simulate::{NoisePlan, NoisyCursor};
use qufi_noise::trajectory::{
    finish_trajectory_dist, ShotAccumulator, TrajPlan, TrajWorkspace, TrajectoryCursor,
};
use qufi_noise::NoiseModel;
use qufi_sim::{
    BatchedDensity, BatchedStatevector, CircuitCursor, DensityMatrix, EvolvableState, Op, ProbDist,
    QuantumCircuit, Statevector, StepProgram,
};
use qufi_transpile::Transpiler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

/// An [`Executor`] that can split a fault sweep into per-point preparation
/// and per-configuration replay.
pub trait SweepExecutor: Executor {
    /// Prepares a single-fault sweep (k = 1) at `point`: transpile once,
    /// evolve the shared prefix once, park the state.
    ///
    /// # Errors
    ///
    /// Out-of-range points, transpilation and simulation failures.
    fn prepare<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        self.prepare_sites(qc, point, None)
    }

    /// Prepares a sweep with a splice site at `point` and, given a
    /// `neighbor`, a second one on that qubit at the same position — the
    /// double fault of §III-C (k = 2). `None` is [`SweepExecutor::prepare`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SweepExecutor::prepare`], plus a neighbor
    /// that is out of range or equal to `point.qubit`.
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError>;
}

impl<E: SweepExecutor + ?Sized> SweepExecutor for &E {
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        (**self).prepare_sites(qc, point, neighbor)
    }
}

/// Per-thread reusable buffers for replaying against a parked snapshot:
/// the simulator state a replay evolves in, restored from the borrowed
/// snapshot by a buffer-reusing copy instead of a fresh clone per replay.
///
/// A scratch carries no results between replays — only capacity — so one
/// scratch per worker thread is the entire threading discipline, and a
/// replay through a reused scratch is bit-identical to one through a fresh
/// scratch.
#[derive(Default)]
pub struct ReplayScratch {
    /// Density-matrix buffer for the noisy/hardware replay paths.
    pub(crate) rho: Option<DensityMatrix>,
    /// Statevector buffer for the ideal replay path.
    pub(crate) sv: Option<Statevector>,
    /// Statevector buffer for the trajectory replay path (one shot's
    /// evolving state).
    pub(crate) traj_sv: Option<Statevector>,
    /// Kraus branch-sampling workspace for the trajectory replay path.
    pub(crate) traj_ws: TrajWorkspace,
}

impl ReplayScratch {
    /// An empty scratch; buffers are allocated on first replay.
    pub fn new() -> Self {
        ReplayScratch::default()
    }
}

/// A parked k-site sweep: replay any fault configuration against the
/// snapshot.
///
/// A configuration is a slice of one [`FaultParams`] per splice site, in
/// program order: the struck qubit first, then the neighbor of a double
/// fault. Every replay entry point rejects any other slice with
/// [`ExecError::InvalidFault`] before simulating anything: a length other
/// than [`PreparedSweep::sites`], or a fault stronger than the one before
/// it (§III-C, [`check_fault_order`]).
///
/// Implementations are `Sync`: replays only *borrow* the parked snapshot
/// (each one copies it into caller-owned [`ReplayScratch`] buffers), so any
/// number of threads may replay concurrently against one prepared sweep —
/// the foundation of [`PreparedSweep::replay_grid_batched`].
pub trait PreparedSweep: Sync {
    /// Splice sites k: the length of every fault slice a replay takes.
    fn sites(&self) -> usize;

    /// Fast path: fork the parked prefix state and finish the suffix with
    /// one injector spliced in per site.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidFault`] for a bad fault slice; simulation
    /// failures.
    fn replay(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        self.replay_with(faults, &mut ReplayScratch::new())
    }

    /// [`PreparedSweep::replay`] through caller-owned scratch buffers: the
    /// parked snapshot is copied into the scratch state (reusing its
    /// allocation) and the suffix evolves there, so a replay loop performs
    /// zero steady-state allocations for state buffers. Bit-identical to
    /// [`PreparedSweep::replay`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`PreparedSweep::replay`].
    fn replay_with(
        &self,
        faults: &[FaultParams],
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError>;

    /// Oracle path: rebuild, re-transpile and re-simulate the entire
    /// faulty circuit from scratch — the pre-engine per-configuration
    /// pipeline. Kept as the ground truth the differential suite diffs
    /// [`PreparedSweep::replay`] against.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidFault`] for a bad fault slice; simulation and
    /// transpilation failures.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError>;

    /// Replays the entire `(θ, φ)` grid of single faults across `threads`
    /// worker threads, returning one distribution per cell **in grid
    /// order** ([`FaultGrid::iter`] order). The grid entry point of every
    /// executor.
    ///
    /// Cells are stably sorted by θ and chunked into blocks of a fixed
    /// width; workers take contiguous ranges of blocks. Blocks wider than
    /// one cell evolve in lockstep through the cell-major kernels of
    /// [`qufi_sim::batch`], so each suffix gate's index arithmetic is
    /// computed once per block, and θ-identical cells share one
    /// `sin/cos(θ/2)` evaluation of the injector. One-cell blocks replay
    /// through [`PreparedSweep::replay_with`], one [`ReplayScratch`] per
    /// worker.
    ///
    /// The width is read from `QUFI_BATCH_CELLS` per call (default 16,
    /// clamped to `1..=`[`qufi_sim::MAX_BATCH_CELLS`]) and shrunk to the
    /// grid size and an amplitude budget. Width 1 — the CLI's
    /// `--no-batch` — one-cell grids, and scenarios without a batched path
    /// (trajectory) replay cell by cell.
    ///
    /// Determinism contract: a batched cell goes through exactly the
    /// scalar per-cell operation sequence, and every replay depends only
    /// on `(self, fault)` — sampling scenarios seed from the fault angles,
    /// never from replay order — so the returned cells are bit-identical
    /// to [`PreparedSweep::replay`] for every width and thread count.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidFault`] before any replay when the sweep has
    /// k ≠ 1 sites, since a grid cell is one fault.
    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError>;

    /// Gates evolved once at preparation time (the shared prefix).
    fn prefix_gates(&self) -> usize;

    /// Gates evolved per replay (the suffix, excluding the injectors).
    fn suffix_gates(&self) -> usize;
}

/// The check every replay's fault slice passes, for every executor and
/// both the fast and the naive paths: one fault per splice site, each no
/// stronger than the one before it (§III-C).
fn check_faults(sites: usize, faults: &[FaultParams]) -> Result<(), ExecError> {
    if faults.len() != sites {
        return Err(ExecError::InvalidFault(format!(
            "{} fault(s) given to a sweep with {sites} splice site(s)",
            faults.len()
        )));
    }
    faults
        .windows(2)
        .try_for_each(|pair| check_fault_order(pair[0], pair[1]))
}

/// Default number of grid cells evolved per batched block. 16 keeps the
/// single-operand kernels (the bulk of a transpiled suffix) on their widest,
/// fastest monomorphization; the 2q/generic kernels tile the cell axis
/// internally, so a wide block never hurts them.
const DEFAULT_BATCH_CELLS: usize = 16;

/// Ceiling on `flat state length × batch width`: a batched block holds at
/// most this many split-complex amplitudes (~64 MiB), shrinking the width
/// for wide registers instead of ballooning memory.
const MAX_BATCH_AMPS: usize = 1 << 22;

/// Block width for a grid of `grid_len` cells over states of `flat_len`
/// amplitudes: `QUFI_BATCH_CELLS` (clamped to
/// `1..=`[`qufi_sim::MAX_BATCH_CELLS`]), shrunk to the grid size and the
/// amplitude budget. At most 1 means cell-by-cell replay.
fn batch_width(flat_len: usize, grid_len: usize) -> usize {
    std::env::var("QUFI_BATCH_CELLS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|w| w.clamp(1, qufi_sim::MAX_BATCH_CELLS))
        .unwrap_or(DEFAULT_BATCH_CELLS)
        .min(grid_len)
        .min(MAX_BATCH_AMPS / flat_len.max(1))
}

/// One injector matrix per cell of a θ-sorted block, hoisting the
/// `sin/cos(θ/2)` pair across runs of θ-identical cells. Bit-identical to
/// per-cell [`CMatrix::u_gate`] construction because `u_gate` delegates to
/// [`CMatrix::u_gate_from_trig`].
fn injector_matrices(faults: &[FaultParams]) -> Vec<CMatrix> {
    let mut mats = Vec::with_capacity(faults.len());
    let mut run: Option<(u64, (f64, f64))> = None;
    for f in faults {
        let bits = f.theta.to_bits();
        let (s, c) = match run {
            Some((b, sc)) if b == bits => sc,
            _ => {
                let sc = ((f.theta / 2.0).sin(), (f.theta / 2.0).cos());
                run = Some((bits, sc));
                sc
            }
        };
        mats.push(CMatrix::u_gate_from_trig(s, c, f.phi, f.lambda));
    }
    mats
}

/// The deterministic fan-out behind [`PreparedSweep::replay_grid_batched`]:
/// cells are stably sorted by θ bit pattern, chunked into `width`-sized
/// blocks — the ragged tail simply forms a narrower block — and blocks
/// are handed to workers in contiguous ranges, a pure function of
/// `(grid.len(), width, threads)`. Each worker owns one [`ReplayScratch`].
/// Results scatter back to **grid order** by original cell index; the
/// sort is invisible in the output because every replay depends only on
/// `(self, fault)`.
///
/// Block replays are infallible: the fallible work — transpilation,
/// planning, prefix evolution — happened at prepare time, and the fault
/// slices are single faults of a checked single-site sweep.
fn replay_blocks<F>(
    grid: &FaultGrid,
    threads: usize,
    width: usize,
    replay_block: F,
) -> Vec<ProbDist>
where
    F: Fn(&[FaultParams], &mut ReplayScratch) -> Vec<ProbDist> + Sync,
{
    let mut sorted: Vec<(usize, FaultParams)> = grid
        .iter()
        .map(|(theta, phi)| FaultParams::shift(theta, phi))
        .enumerate()
        .collect();
    if sorted.is_empty() {
        return Vec::new();
    }
    sorted.sort_by_key(|(_, f)| f.theta.to_bits());
    // One span per grid, a few counter adds per grid: the per-cell loop
    // stays telemetry-free.
    let _grid_span = qufi_obs::span("replay.grid_ns");
    let block_count = sorted.len().div_ceil(width);
    let run_blocks = |blocks: std::ops::Range<usize>| -> Vec<(usize, ProbDist)> {
        let mut results = Vec::with_capacity(blocks.len() * width);
        let mut faults = Vec::with_capacity(width);
        let mut scratch = ReplayScratch::new();
        for b in blocks {
            let cells = &sorted[b * width..((b + 1) * width).min(sorted.len())];
            faults.clear();
            faults.extend(cells.iter().map(|&(_, f)| f));
            let dists = replay_block(&faults, &mut scratch);
            debug_assert_eq!(dists.len(), cells.len());
            results.extend(cells.iter().map(|&(i, _)| i).zip(dists));
        }
        results
    };
    let workers = threads.max(1).min(block_count);
    let per_worker = block_count.div_ceil(workers);
    let parts = if workers == 1 {
        vec![run_blocks(0..block_count)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let run_blocks = &run_blocks;
                    scope.spawn(move || {
                        let part =
                            run_blocks(w * per_worker..((w + 1) * per_worker).min(block_count));
                        // Merge before the closure returns: the scope's
                        // exit synchronizes with closure completion, not
                        // with TLS destructors, so relying on the sink's
                        // at-exit Drop would race the caller's snapshot.
                        qufi_obs::flush();
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("grid replay worker panicked"))
                .collect()
        })
    };
    let mut out: Vec<Option<ProbDist>> = vec![None; sorted.len()];
    for (i, dist) in parts.into_iter().flatten() {
        out[i] = Some(dist);
    }
    qufi_obs::add("replay.cells", sorted.len() as u64);
    if width > 1 {
        let theta_groups = 1 + sorted
            .windows(2)
            .filter(|w| w[0].1.theta.to_bits() != w[1].1.theta.to_bits())
            .count();
        qufi_obs::add("replay.batch.cells", sorted.len() as u64);
        qufi_obs::add("replay.batch.blocks", block_count as u64);
        qufi_obs::add("replay.batch.theta_groups", theta_groups as u64);
    }
    out.into_iter()
        .map(|slot| slot.expect("every cell was replayed"))
        .collect()
}

/// One executor's parked k-site sweep, beneath the fault-slice check:
/// [`Checked`] is the one [`PreparedSweep`] implementation, and it calls
/// these methods only with exactly one fault per site in §III-C order.
trait SiteSweep: Sync {
    /// Splice sites of the replayed circuit, in program order.
    fn sites(&self) -> &[SpliceSite];

    /// The circuit replays run on, and the instruction index its prefix
    /// is parked at.
    fn parked(&self) -> (&QuantumCircuit, usize);

    /// Fast path through caller-owned scratch buffers.
    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist;

    /// Oracle path: rebuild and re-simulate the whole faulty circuit.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError>;

    /// Flat amplitude count of one cell's state, for scenarios with a
    /// batched grid path; `None` keeps grids on the scalar fan-out.
    fn batch_len(&self) -> Option<usize> {
        None
    }

    /// One θ-sorted block of the batched grid replay; only called when
    /// [`SiteSweep::batch_len`] is `Some`.
    fn replay_block(&self, _faults: &[FaultParams]) -> Vec<ProbDist> {
        unreachable!("replay_block on a sweep without a batched path")
    }
}

/// The [`PreparedSweep`] every executor returns: checks each fault slice,
/// then hands the replay to the executor's [`SiteSweep`].
struct Checked<S>(S);

impl<S: SiteSweep> PreparedSweep for Checked<S> {
    fn sites(&self) -> usize {
        self.0.sites().len()
    }

    fn replay_with(
        &self,
        faults: &[FaultParams],
        scratch: &mut ReplayScratch,
    ) -> Result<ProbDist, ExecError> {
        check_faults(self.sites(), faults)?;
        Ok(self.0.replay(faults, scratch))
    }

    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        check_faults(self.sites(), faults)?;
        self.0.replay_naive(faults)
    }

    fn replay_grid_batched(
        &self,
        grid: &FaultGrid,
        threads: usize,
    ) -> Result<Vec<ProbDist>, ExecError> {
        let sites = self.0.sites();
        if sites.len() != 1 {
            return Err(ExecError::InvalidFault(format!(
                "a fault grid replays single faults, but this sweep has {} splice sites",
                sites.len()
            )));
        }
        // A block splices one injector per cell right at the parked prefix.
        let width = self
            .0
            .batch_len()
            .filter(|_| sites[0].index == self.0.parked().1)
            .map_or(1, |flat_len| batch_width(flat_len, grid.len()));
        if width > 1 {
            return Ok(replay_blocks(grid, threads, width, |faults, _| {
                self.0.replay_block(faults)
            }));
        }
        qufi_obs::add("replay.batch.scalar_fallback", grid.len() as u64);
        Ok(replay_blocks(grid, threads, 1, |fault, scratch| {
            vec![self.0.replay(fault, scratch)]
        }))
    }

    fn prefix_gates(&self) -> usize {
        let (circuit, pos) = self.0.parked();
        gates_in(circuit, 0..pos)
    }

    fn suffix_gates(&self) -> usize {
        let (circuit, pos) = self.0.parked();
        gates_in(circuit, pos..circuit.size())
    }
}

/// Marks a sweep's splice sites in a logical circuit — the strike at
/// `point`, then `neighbor` for a double fault — and returns the marked
/// circuit with its site count k.
fn mark_sites(
    qc: &QuantumCircuit,
    point: InjectionPoint,
    neighbor: Option<usize>,
) -> Result<(QuantumCircuit, usize), ExecError> {
    Ok(match neighbor {
        None => (mark_injection_site(qc, point)?, 1),
        Some(n) => (mark_double_injection_site(qc, point, n)?, 2),
    })
}

/// Transpiles a marked circuit, compacts it onto its active physical
/// qubits and strips the `n_sites` splice markers: returns the physical
/// circuit, its splice sites and the active qubits. Preparation runs this
/// once per point; the naive oracles rerun it per replay.
fn transpile_marked(
    transpiler: &Transpiler,
    marked: &QuantumCircuit,
    n_sites: usize,
) -> Result<(QuantumCircuit, Vec<SpliceSite>, Vec<usize>), ExecError> {
    let transpile_span = qufi_obs::span("prepare.transpile_ns");
    let result = transpiler.run(marked)?;
    transpile_span.finish();
    let compact_span = qufi_obs::span("prepare.compact_ns");
    let active = result.active_physical_qubits();
    let (physical, sites) = extract_splice_sites(&compact_circuit(result.circuit(), &active));
    compact_span.finish();
    if sites.len() != n_sites {
        return Err(ExecError::Engine(format!(
            "expected {n_sites} splice markers after transpilation, found {}",
            sites.len()
        )));
    }
    Ok((physical, sites, active))
}

/// Splices injector gates into a circuit at the given sites (ascending
/// index order, equal indices keep fault order).
fn splice_faults(
    qc: &QuantumCircuit,
    sites: &[SpliceSite],
    faults: &[FaultParams],
) -> QuantumCircuit {
    debug_assert_eq!(sites.len(), faults.len());
    let mut out = qc.clone();
    for (site, fault) in sites.iter().zip(faults).rev() {
        out.insert(site.index, fault.injector_gate(), &[site.qubit]);
    }
    out.name = format!("{}+fault", qc.name);
    out
}

/// Gate count of instructions `[0, upto)` / `[upto, len)` of a circuit.
fn gates_in(qc: &QuantumCircuit, range: std::ops::Range<usize>) -> usize {
    qc.ops()[range]
        .iter()
        .filter(|op| matches!(op, Op::Gate { .. }))
        .count()
}

/// Applies instructions `[from, upto)` of `qc` to a borrowed state — the
/// cursor-advance loop without cursor ownership, so replays can evolve a
/// scratch state restored from a parked snapshot. Bit-identical to
/// [`CircuitCursor::advance_to`] by construction (same loop).
fn advance_state<S: EvolvableState>(state: &mut S, qc: &QuantumCircuit, from: usize, upto: usize) {
    for op in &qc.ops()[from..upto] {
        if let Op::Gate { gate, qubits } = op {
            state.apply_gate(*gate, qubits);
        }
    }
}

/// [`advance_state`] for a batched block: the same instruction walk, each
/// gate shared by every cell of the block.
fn advance_batched(batch: &mut BatchedStatevector, qc: &QuantumCircuit, from: usize, upto: usize) {
    for op in &qc.ops()[from..upto] {
        if let Op::Gate { gate, qubits } = op {
            batch.apply_gate(*gate, qubits);
        }
    }
}

// ---------------------------------------------------------------------------
// Ideal executor: no transpilation, statevector prefix forking.

struct IdealPrepared {
    circuit: QuantumCircuit,
    sites: Vec<SpliceSite>,
    prefix: CircuitCursor<Statevector>,
}

impl IdealPrepared {
    fn new(qc: &QuantumCircuit, sites: Vec<SpliceSite>) -> Result<Self, ExecError> {
        let prefix_span = qufi_obs::span("prepare.prefix_ns");
        let mut prefix = CircuitCursor::<Statevector>::start(qc).map_err(ExecError::Sim)?;
        prefix.advance_to(qc, sites[0].index);
        prefix_span.finish();
        Ok(IdealPrepared {
            circuit: qc.clone(),
            sites,
            prefix,
        })
    }
}

impl SiteSweep for IdealPrepared {
    fn sites(&self) -> &[SpliceSite] {
        &self.sites
    }

    fn parked(&self) -> (&QuantumCircuit, usize) {
        (&self.circuit, self.prefix.position())
    }

    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        // Borrow the parked snapshot: restore it into the scratch
        // statevector (reusing its buffer) instead of cloning per replay.
        let sv = match scratch.sv.as_mut() {
            Some(sv) => {
                sv.copy_from(self.prefix.state());
                sv
            }
            None => scratch.sv.insert(self.prefix.state().clone()),
        };
        let mut pos = self.prefix.position();
        for (site, fault) in self.sites.iter().zip(faults) {
            advance_state(sv, &self.circuit, pos, site.index);
            pos = site.index;
            sv.apply_gate(fault.injector_gate(), &[site.qubit]);
        }
        advance_state(sv, &self.circuit, pos, self.circuit.size());
        sv.measurement_distribution(&self.circuit)
    }

    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let faulty = splice_faults(&self.circuit, &self.sites, faults);
        let sv = Statevector::from_circuit(&faulty).map_err(ExecError::Sim)?;
        Ok(sv.measurement_distribution(&faulty))
    }

    fn batch_len(&self) -> Option<usize> {
        Some(self.prefix.state().amplitudes().len())
    }

    /// Broadcasts the parked prefix into the block, applies each cell's
    /// injector, and evolves the shared suffix once across all cells.
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let site = &self.sites[0];
        let mats = injector_matrices(faults);
        let mut batch = BatchedStatevector::broadcast(self.prefix.state(), faults.len());
        batch.apply_matrix_per_cell(&mats, site.qubit);
        advance_batched(&mut batch, &self.circuit, site.index, self.circuit.size());
        (0..faults.len())
            .map(|c| batch.measurement_distribution(c, &self.circuit))
            .collect()
    }
}

impl SweepExecutor for IdealExecutor {
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        match neighbor {
            None => check_injection_point(qc, point)?,
            Some(n) => check_double_site(qc, point, n)?,
        }
        let index = point.op_index + 1;
        let sites = std::iter::once(point.qubit)
            .chain(neighbor)
            .map(|qubit| SpliceSite { index, qubit })
            .collect();
        Ok(Box::new(Checked(IdealPrepared::new(qc, sites)?)))
    }
}

// ---------------------------------------------------------------------------
// Transpiling executors: marker through the pipeline, density-matrix
// prefix forking under the noise model.

/// Everything the noisy/hardware replay paths share for one point: the
/// stripped compact physical circuit, its splice sites, the noise model,
/// and the parked prefix state.
struct PhysicalSweep<'a> {
    /// Re-runs the pipeline for `replay_naive`.
    transpiler: &'a Transpiler,
    /// Marked logical circuit — `replay_naive` re-transpiles it per call.
    marked: QuantumCircuit,
    /// Stripped compact physical circuit the replays run on.
    physical: QuantumCircuit,
    /// Splice sites in compact physical coordinates, program order.
    sites: Vec<SpliceSite>,
    /// Shared with the executor's model cache (hardware sweeps own theirs).
    model: Arc<NoiseModel>,
    /// The physical circuit compiled against the model: gate matrices and
    /// channel superoperators resolved once per point, reused per replay.
    plan: NoisePlan,
    prefix: DensityMatrix,
    prefix_pos: usize,
    /// Compiled on the first batched block, so sweeps that only replay
    /// cell by cell never pay for it.
    suffix_programs: OnceLock<SuffixPrograms>,
}

/// What a batched block runs after the per-cell injector unitary: the
/// injector's channels, then every suffix step of the plan, each compiled
/// once into a fused [`StepProgram`].
struct SuffixPrograms {
    programs: Vec<StepProgram>,
    /// Coefficient applications per cell: executed, and what the dense
    /// kernels would execute for the same ops.
    taps: u64,
    dense_taps: u64,
}

impl SuffixPrograms {
    fn compile(sweep: &PhysicalSweep<'_>) -> Self {
        let n = sweep.physical.num_qubits();
        let injector = sweep.plan.injector_channels(sweep.sites[0].qubit);
        let programs: Vec<StepProgram> = std::iter::once(StepProgram::density(n, None, injector))
            .chain(
                sweep
                    .plan
                    .planned_steps(sweep.prefix_pos, sweep.physical.size())
                    .map(|(u, qubits, channels)| {
                        StepProgram::density(n, Some((u, qubits)), channels)
                    }),
            )
            .collect();
        SuffixPrograms {
            taps: programs.iter().map(StepProgram::taps_per_cell).sum(),
            dense_taps: programs.iter().map(StepProgram::dense_taps_per_cell).sum(),
            programs,
        }
    }
}

impl<'a> PhysicalSweep<'a> {
    /// Transpiles a marked circuit, recovers the physical splice sites and
    /// parks the prefix evolution under `model_for(active)`.
    fn prepare(
        transpiler: &'a Transpiler,
        marked: QuantumCircuit,
        n_sites: usize,
        model_for: impl FnOnce(&[usize]) -> Arc<NoiseModel>,
    ) -> Result<Self, ExecError> {
        let (physical, sites, active) = transpile_marked(transpiler, &marked, n_sites)?;
        let plan_span = qufi_obs::span("prepare.plan_ns");
        let model = model_for(&active);
        let plan = NoisePlan::compile(&physical, &model);
        plan_span.finish();
        let prefix_span = qufi_obs::span("prepare.prefix_ns");
        let mut cursor = NoisyCursor::start(&physical, &model).map_err(ExecError::Sim)?;
        cursor.advance_planned(&plan, sites[0].index);
        let prefix_pos = cursor.position();
        let prefix = cursor.into_state();
        prefix_span.finish();
        Ok(PhysicalSweep {
            transpiler,
            marked,
            physical,
            sites,
            model,
            plan,
            prefix,
            prefix_pos,
            suffix_programs: OnceLock::new(),
        })
    }
}

impl SiteSweep for PhysicalSweep<'_> {
    fn sites(&self) -> &[SpliceSite] {
        &self.sites
    }

    fn parked(&self) -> (&QuantumCircuit, usize) {
        (&self.physical, self.prefix_pos)
    }

    /// Borrows the parked state into the scratch density matrix, splices
    /// the injectors, and finishes the suffix through the compiled plan.
    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        let rho = match scratch.rho.take() {
            Some(mut rho) => {
                rho.copy_from(&self.prefix);
                rho
            }
            None => self.prefix.clone(),
        };
        let mut cur = NoisyCursor::resume(rho, &self.model, self.prefix_pos);
        for (site, fault) in self.sites.iter().zip(faults) {
            cur.advance_planned(&self.plan, site.index);
            cur.apply_planned_injector(&self.plan, fault.injector_gate(), site.qubit);
        }
        cur.advance_planned(&self.plan, self.physical.size());
        let dist = cur.finish_dist(&self.physical);
        scratch.rho = Some(cur.into_state());
        dist
    }

    /// The full pre-engine pipeline: re-transpile the marked circuit,
    /// splice, and simulate the whole faulty circuit from `|0…0⟩`.
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let (physical, sites, _) = transpile_marked(self.transpiler, &self.marked, faults.len())?;
        let faulty = splice_faults(&physical, &sites, faults);
        qufi_noise::simulate::run_noisy(&faulty, &self.model).map_err(ExecError::Sim)
    }

    fn batch_len(&self) -> Option<usize> {
        Some(self.prefix.dim() * self.prefix.dim())
    }

    /// Broadcasts the parked prefix into the block, applies each cell's
    /// noisy injector, runs the planned suffix once across all cells — one
    /// fused step program per plan step — and finishes each cell exactly
    /// like [`NoisyCursor::finish_dist`].
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        let site = &self.sites[0];
        let mats = injector_matrices(faults);
        let suffix = self
            .suffix_programs
            .get_or_init(|| SuffixPrograms::compile(self));
        let mut batch = BatchedDensity::broadcast(&self.prefix, faults.len());
        batch.apply_unitary_per_cell(&mats, site.qubit);
        for program in &suffix.programs {
            batch.apply_program(program);
        }
        let cells = faults.len() as u64;
        qufi_obs::add("replay.batch.taps", suffix.taps * cells);
        qufi_obs::add("replay.batch.dense_taps", suffix.dense_taps * cells);
        let map = self.physical.measurement_map();
        (0..faults.len())
            .map(|c| {
                let dist =
                    apply_readout_errors(&batch.probabilities(c), self.model.readout_errors());
                if map.is_empty() {
                    dist
                } else {
                    dist.marginalize(&map, self.physical.num_clbits())
                }
            })
            .collect()
    }
}

impl SweepExecutor for NoisyExecutor {
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let (marked, n_sites) = mark_sites(qc, point, neighbor)?;
        let sweep =
            PhysicalSweep::prepare(self.transpiler(), marked, n_sites, |a| self.model_for(a))?;
        Ok(Box::new(Checked(sweep)))
    }
}

// ---------------------------------------------------------------------------
// Hardware executor: per-point calibration drift, per-configuration shot
// sampling, both derived deterministically so results are independent of
// scheduling order.

/// Incremental FNV-1a hasher for deriving deterministic RNG streams.
///
/// The single implementation behind every schedule-independence guarantee
/// in the stack: hardware sweeps derive per-point drift and per-fault
/// sampling seeds here, and the `qufi` CLI derives per-(job, point)
/// executor seeds from the same construction — so results never depend on
/// thread interleaving, replay order, or interrupt/resume splits.
#[derive(Debug, Clone)]
pub struct SeedHasher(u64);

impl SeedHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        SeedHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn mix_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        self
    }

    /// Mixes one word (little-endian bytes).
    pub fn mix_u64(&mut self, w: u64) -> &mut Self {
        self.mix_bytes(&w.to_le_bytes())
    }

    /// The derived seed.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for SeedHasher {
    fn default() -> Self {
        SeedHasher::new()
    }
}

/// FNV-1a mix of arbitrary words — the seed-derivation shorthand for
/// hardware and trajectory sweeps.
pub(crate) fn derive_seed(words: &[u64]) -> u64 {
    let mut h = SeedHasher::new();
    for &w in words {
        h.mix_u64(w);
    }
    h.finish()
}

/// The per-point stream base of a sampling sweep: (executor seed, point,
/// neighbor), so drift and sampling never depend on scheduling.
fn point_seed(seed: u64, point: InjectionPoint, neighbor: Option<usize>) -> u64 {
    derive_seed(&[
        seed,
        point.op_index as u64,
        point.qubit as u64,
        neighbor.map_or(u64::MAX, |n| n as u64),
    ])
}

struct HardwarePrepared<'a> {
    sweep: PhysicalSweep<'a>,
    /// Base for per-configuration sampling seeds.
    sample_base: u64,
    shots: u64,
}

impl<'a> HardwarePrepared<'a> {
    /// One calibration batch per injection point: the drifted device and
    /// the sampling-seed base derive from (executor seed, point identity),
    /// never from the executor's shared stream.
    fn prepare(
        executor: &'a HardwareExecutor,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Self, ExecError> {
        let (marked, n_sites) = mark_sites(qc, point, neighbor)?;
        let mut rng = SmallRng::seed_from_u64(point_seed(executor.seed(), point, neighbor));
        let cal = executor
            .calibration()
            .with_drift(&mut rng, executor.drift_sigma());
        let sample_base: u64 = rng.gen();
        let sweep = PhysicalSweep::prepare(executor.transpiler(), marked, n_sites, |active| {
            Arc::new(cal.restrict(active).noise_model())
        })?;
        Ok(HardwarePrepared {
            sweep,
            sample_base,
            shots: executor.shots(),
        })
    }

    /// The finite-shot view of an exact distribution, seeded by the fault
    /// angles so replay order never matters.
    fn sample(&self, exact: ProbDist, faults: &[FaultParams]) -> ProbDist {
        let mut words = vec![self.sample_base];
        for f in faults {
            words.push(f.theta.to_bits());
            words.push(f.phi.to_bits());
        }
        let mut rng = SmallRng::seed_from_u64(derive_seed(&words));
        exact.sample(&mut rng, self.shots).to_prob_dist()
    }
}

impl SiteSweep for HardwarePrepared<'_> {
    fn sites(&self) -> &[SpliceSite] {
        self.sweep.sites()
    }

    fn parked(&self) -> (&QuantumCircuit, usize) {
        self.sweep.parked()
    }

    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        self.sample(self.sweep.replay(faults, scratch), faults)
    }

    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        Ok(self.sample(self.sweep.replay_naive(faults)?, faults))
    }

    fn batch_len(&self) -> Option<usize> {
        self.sweep.batch_len()
    }

    /// Sampling seeds derive from the fault angles, so drawing the
    /// finite-shot view per cell of a batched block changes nothing.
    fn replay_block(&self, faults: &[FaultParams]) -> Vec<ProbDist> {
        self.sweep
            .replay_block(faults)
            .into_iter()
            .zip(faults)
            .map(|(exact, fault)| self.sample(exact, std::slice::from_ref(fault)))
            .collect()
    }
}

impl SweepExecutor for HardwareExecutor {
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        Ok(Box::new(Checked(HardwarePrepared::prepare(
            self, qc, point, neighbor,
        )?)))
    }
}

// ---------------------------------------------------------------------------
// Trajectory executor: per-shot statevector prefixes, Kraus-branch sampling
// through the suffix, seeds derived per (point, fault angles, shot) so the
// Monte-Carlo estimate is as schedule-invariant as the exact paths.

/// Stream tag separating per-shot *prefix* seeds from per-(cell, shot)
/// *suffix* seeds: suffix seeds mix fault-angle bit patterns in this slot,
/// and no valid angle has the all-ones (NaN) pattern.
const PREFIX_STREAM_TAG: u64 = u64::MAX;

/// Default ceiling on parked prefix-bank memory (amplitude bytes). Above
/// it the sweep recomputes the prefix per (cell, shot) from the same seed
/// stream — bit-identical, just slower. Override with
/// `QUFI_TRAJ_BANK_BYTES`.
const DEFAULT_BANK_BYTES: u64 = 256 << 20;

/// Where a replay gets shot `s`'s prefix state from.
enum PrefixBank {
    /// One parked statevector per shot, computed once at prepare time and
    /// shared (borrowed) by every grid cell.
    Banked(Vec<Statevector>),
    /// The bank would exceed the memory budget: replays re-evolve the
    /// prefix from `|0…0⟩` under the same per-shot seed, which yields the
    /// identical state.
    Recompute,
}

/// Everything the trajectory replay path shares for one injection point.
struct TrajectorySweep<'a> {
    /// Re-runs the pipeline for `replay_naive`.
    transpiler: &'a Transpiler,
    /// Marked logical circuit — `replay_naive` re-transpiles it per call.
    marked: QuantumCircuit,
    /// Stripped compact physical circuit the replays run on.
    physical: QuantumCircuit,
    /// Splice sites in compact physical coordinates, program order.
    sites: Vec<SpliceSite>,
    /// Shared with the executor's model cache.
    model: Arc<NoiseModel>,
    /// Kraus-operator plan compiled once per point, reused per shot.
    plan: TrajPlan,
    prefix_pos: usize,
    /// `|0…0⟩` template restored into scratch when recomputing prefixes.
    zero: Statevector,
    bank: PrefixBank,
    /// Base for the per-shot prefix and per-(cell, shot) suffix streams.
    point_base: u64,
    shots: u64,
}

fn bank_byte_limit() -> u64 {
    std::env::var("QUFI_TRAJ_BANK_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_BANK_BYTES)
}

impl<'a> TrajectorySweep<'a> {
    /// Marks and transpiles the sweep's sites, compiles the Kraus plan,
    /// and parks one prefix statevector per shot (or arranges seed-identical
    /// recompute when the bank would exceed `bank_limit` bytes of
    /// amplitudes).
    fn prepare(
        executor: &'a TrajectoryExecutor,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
        bank_limit: u64,
    ) -> Result<Self, ExecError> {
        let (marked, n_sites) = mark_sites(qc, point, neighbor)?;
        let (physical, sites, active) = transpile_marked(executor.transpiler(), &marked, n_sites)?;
        let plan_span = qufi_obs::span("prepare.plan_ns");
        let model = executor.model_for(&active);
        let plan = TrajPlan::compile(&physical, &model);
        plan_span.finish();
        let shots = executor.shots();
        let zero = Statevector::new(physical.num_qubits()).map_err(ExecError::Sim)?;
        let mut sweep = TrajectorySweep {
            transpiler: executor.transpiler(),
            marked,
            prefix_pos: sites[0].index,
            physical,
            sites,
            model,
            plan,
            zero,
            bank: PrefixBank::Recompute,
            point_base: point_seed(executor.seed(), point, neighbor),
            shots,
        };
        let amp_bytes = (std::mem::size_of::<qufi_math::Complex>() as u64)
            .saturating_mul(1u64 << sweep.physical.num_qubits())
            .saturating_mul(shots);
        if amp_bytes <= bank_limit {
            let prefix_span = qufi_obs::span("prepare.prefix_ns");
            let mut ws = TrajWorkspace::new();
            // `bank` is still `Recompute` here, so this fills the bank
            // through the exact code path the fallback replays later.
            let bank = (0..shots)
                .map(|shot| sweep.prefix_into(sweep.zero.clone(), shot, &mut ws))
                .collect();
            sweep.bank = PrefixBank::Banked(bank);
            prefix_span.finish();
        }
        Ok(sweep)
    }

    /// The per-shot prefix RNG stream; disjoint from every suffix stream
    /// by the [`PREFIX_STREAM_TAG`] slot.
    fn prefix_seed(&self, shot: u64) -> u64 {
        derive_seed(&[self.point_base, PREFIX_STREAM_TAG, shot])
    }

    /// The per-(cell, shot) suffix RNG stream, keyed by the fault angles
    /// so replay order and grid chunking never matter.
    fn suffix_seed(&self, faults: &[FaultParams], shot: u64) -> u64 {
        let mut words = Vec::with_capacity(2 + 2 * faults.len());
        words.push(self.point_base);
        for f in faults {
            words.push(f.theta.to_bits());
            words.push(f.phi.to_bits());
        }
        words.push(shot);
        derive_seed(&words)
    }

    /// Loads shot `shot`'s prefix state into `state` (buffer reused, no
    /// allocation): from the bank when parked, otherwise re-evolved from
    /// `|0…0⟩` under the same per-shot stream — the single code path the
    /// bank fill itself runs, which is what makes the two modes
    /// bit-identical.
    fn prefix_into(
        &self,
        mut state: Statevector,
        shot: u64,
        ws: &mut TrajWorkspace,
    ) -> Statevector {
        match &self.bank {
            PrefixBank::Banked(bank) => {
                state.copy_from(&bank[shot as usize]);
                state
            }
            PrefixBank::Recompute => {
                state.copy_from(&self.zero);
                let mut rng = SmallRng::seed_from_u64(self.prefix_seed(shot));
                let mut cursor = TrajectoryCursor::resume(state, 0);
                cursor.advance_planned(&self.plan, self.prefix_pos, &mut rng, ws);
                cursor.into_state()
            }
        }
    }

    /// All shots of one cell — prefix from the bank, suffix under the
    /// cell's seed stream — averaged, confused, and marginalized.
    fn run_shots(
        &self,
        faults: &[FaultParams],
        sv_buf: &mut Option<Statevector>,
        ws: &mut TrajWorkspace,
    ) -> ProbDist {
        let n = self.physical.num_qubits();
        let mut acc = ShotAccumulator::new(n, self.shots);
        for shot in 0..self.shots {
            let state = match sv_buf.take() {
                Some(s) => s,
                None => self.zero.clone(),
            };
            let state = self.prefix_into(state, shot, ws);
            let mut rng = SmallRng::seed_from_u64(self.suffix_seed(faults, shot));
            let mut cursor = TrajectoryCursor::resume(state, self.prefix_pos);
            for (site, fault) in self.sites.iter().zip(faults) {
                cursor.advance_planned(&self.plan, site.index, &mut rng, ws);
                cursor.apply_planned_injector(
                    &self.plan,
                    fault.injector_gate(),
                    site.qubit,
                    &mut rng,
                    ws,
                );
            }
            cursor.advance_planned(&self.plan, self.plan.size(), &mut rng, ws);
            acc.add_shot(shot, cursor.state());
            *sv_buf = Some(cursor.into_state());
        }
        finish_trajectory_dist(acc.mean(), n, &self.model, &self.physical)
    }
}

impl SiteSweep for TrajectorySweep<'_> {
    fn sites(&self) -> &[SpliceSite] {
        &self.sites
    }

    fn parked(&self) -> (&QuantumCircuit, usize) {
        (&self.physical, self.prefix_pos)
    }

    /// [`TrajectorySweep::run_shots`] through the scratch statevector and
    /// workspace; the workspace's branch tallies go to the recorder once
    /// per cell.
    fn replay(&self, faults: &[FaultParams], scratch: &mut ReplayScratch) -> ProbDist {
        qufi_obs::add("traj.shots", self.shots);
        let dist = self.run_shots(faults, &mut scratch.traj_sv, &mut scratch.traj_ws);
        scratch.traj_ws.flush_counts();
        dist
    }

    /// Re-transpiles the marked circuit and recompiles the Kraus plan from
    /// scratch, then runs every shot un-banked. The seed streams are the
    /// same pure functions of `(point, fault angles, shot)`, so this is
    /// **bit-identical** to the fast path — it independently re-derives
    /// everything the prepare step amortizes (transpilation, plan, prefix
    /// bank, scratch reuse).
    fn replay_naive(&self, faults: &[FaultParams]) -> Result<ProbDist, ExecError> {
        let (physical, sites, _) = transpile_marked(self.transpiler, &self.marked, faults.len())?;
        let naive = TrajectorySweep {
            transpiler: self.transpiler,
            marked: self.marked.clone(),
            plan: TrajPlan::compile(&physical, &self.model),
            prefix_pos: sites[0].index,
            zero: Statevector::new(physical.num_qubits()).map_err(ExecError::Sim)?,
            physical,
            sites,
            model: self.model.clone(),
            bank: PrefixBank::Recompute,
            point_base: self.point_base,
            shots: self.shots,
        };
        Ok(naive.run_shots(faults, &mut None, &mut TrajWorkspace::new()))
    }
}

impl SweepExecutor for TrajectoryExecutor {
    fn prepare_sites<'a>(
        &'a self,
        qc: &QuantumCircuit,
        point: InjectionPoint,
        neighbor: Option<usize>,
    ) -> Result<Box<dyn PreparedSweep + 'a>, ExecError> {
        let sweep = TrajectorySweep::prepare(self, qc, point, neighbor, bank_byte_limit())?;
        Ok(Box::new(Checked(sweep)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_algos::bernstein_vazirani;
    use qufi_noise::BackendCalibration;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn bv() -> QuantumCircuit {
        bernstein_vazirani(0b101, 3).circuit
    }

    fn some_point() -> InjectionPoint {
        InjectionPoint {
            op_index: 2,
            qubit: 0,
        }
    }

    fn assert_bit_identical(a: &ProbDist, b: &ProbDist, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: width mismatch");
        for i in 0..a.len() {
            assert_eq!(
                a.prob(i).to_bits(),
                b.prob(i).to_bits(),
                "{what}: outcome {i} differs ({} vs {})",
                a.prob(i),
                b.prob(i)
            );
        }
    }

    #[test]
    fn ideal_replay_matches_naive_bitwise() {
        let qc = bv();
        let prepared = IdealExecutor.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, PI), (0.3, 5.9)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(&[fault]).unwrap();
            let slow = prepared.replay_naive(&[fault]).unwrap();
            assert_bit_identical(&fast, &slow, "ideal");
        }
    }

    #[test]
    fn noisy_replay_matches_naive_bitwise() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, FRAC_PI_2)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(&[fault]).unwrap();
            let slow = prepared.replay_naive(&[fault]).unwrap();
            assert_bit_identical(&fast, &slow, "noisy");
        }
    }

    #[test]
    fn hardware_replay_matches_naive_bitwise_and_is_order_independent() {
        let qc = bv();
        let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 42);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(0.0, PI),
            FaultParams::shift(FRAC_PI_2, FRAC_PI_2),
        ];
        let forward: Vec<ProbDist> = faults
            .iter()
            .map(|&f| prepared.replay(&[f]).unwrap())
            .collect();
        // Naive replays in reverse order must reproduce each distribution.
        for (i, &f) in faults.iter().enumerate().rev() {
            let slow = prepared.replay_naive(&[f]).unwrap();
            assert_bit_identical(&forward[i], &slow, "hardware");
        }
        // A fresh prepare of the same point reproduces everything.
        let again = ex.prepare(&qc, some_point()).unwrap();
        for (i, &f) in faults.iter().enumerate() {
            assert_bit_identical(&forward[i], &again.replay(&[f]).unwrap(), "re-prepare");
        }
    }

    #[test]
    fn hardware_preparation_ignores_the_shared_stream() {
        // Burning executions on the ad-hoc path must not change sweep
        // results: per-point streams derive from the seed, not the shared
        // RNG state.
        let qc = bv();
        let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 7);
        let before = ex
            .prepare(&qc, some_point())
            .unwrap()
            .replay(&[FaultParams::shift(PI, 0.0)])
            .unwrap();
        let _ = ex.execute(&qc).unwrap();
        let _ = ex.execute(&qc).unwrap();
        let after = ex
            .prepare(&qc, some_point())
            .unwrap()
            .replay(&[FaultParams::shift(PI, 0.0)])
            .unwrap();
        assert_bit_identical(&before, &after, "shared-stream independence");
    }

    /// One executor per scenario, for the checks every executor must pass.
    fn executors() -> Vec<(&'static str, Box<dyn SweepExecutor>)> {
        vec![
            ("ideal", Box::new(IdealExecutor)),
            (
                "noisy",
                Box::new(NoisyExecutor::new(BackendCalibration::lima())),
            ),
            (
                "hardware",
                Box::new(HardwareExecutor::new(BackendCalibration::jakarta(), 5)),
            ),
            (
                "trajectory",
                Box::new(TrajectoryExecutor::with_shots(
                    BackendCalibration::jakarta(),
                    5,
                    130,
                )),
            ),
        ]
    }

    #[test]
    fn double_replay_matches_naive_across_executors() {
        let qc = bv();
        let faults = [
            FaultParams::shift(PI, PI),
            FaultParams::shift(FRAC_PI_2, FRAC_PI_2),
        ];
        for (name, ex) in executors() {
            let p = ex.prepare_sites(&qc, some_point(), Some(1)).unwrap();
            assert_eq!(p.sites(), 2);
            assert_bit_identical(
                &p.replay(&faults).unwrap(),
                &p.replay_naive(&faults).unwrap(),
                &format!("{name} double"),
            );
        }
    }

    #[test]
    fn trajectory_replay_matches_naive_bitwise() {
        // 130 shots = two full blocks plus a partial tail, so the naive
        // path exercises the same block-folding edge cases as the fast one.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 42, 130);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        for (theta, phi) in [(0.0, 0.0), (PI, 0.0), (FRAC_PI_2, FRAC_PI_2), (0.3, 5.9)] {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(&[fault]).unwrap();
            let slow = prepared.replay_naive(&[fault]).unwrap();
            assert_bit_identical(&fast, &slow, "trajectory");
        }
    }

    #[test]
    fn trajectory_bank_modes_are_bit_identical() {
        // The parked prefix bank is a cache, not a semantic switch: forcing
        // recompute (limit 0) must reproduce the banked path bit for bit.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::lima(), 9, 96);
        let point = some_point();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(FRAC_PI_2, PI),
        ];
        let banked = TrajectorySweep::prepare(&ex, &qc, point, None, u64::MAX).unwrap();
        let recomputed = TrajectorySweep::prepare(&ex, &qc, point, None, 0).unwrap();
        assert!(matches!(banked.bank, PrefixBank::Banked(_)));
        assert!(matches!(recomputed.bank, PrefixBank::Recompute));
        let mut scratch = ReplayScratch::new();
        for &fault in &faults {
            assert_bit_identical(
                &banked.replay(&[fault], &mut scratch),
                &recomputed.replay(&[fault], &mut scratch),
                "bank mode",
            );
        }
    }

    #[test]
    fn double_replay_enforces_fault_ordering() {
        // Every executor, on the fast and the naive path alike, rejects a
        // fault slice that breaks the §III-C order or does not match the
        // site count: an error, never a panic or a silent `zip` truncation.
        let qc = bv();
        let weak = FaultParams::shift(FRAC_PI_2, 0.0);
        let strong = FaultParams::shift(PI, 0.0);
        let grid = FaultGrid::coarse();
        for (name, ex) in executors() {
            let double = ex.prepare_sites(&qc, some_point(), Some(1)).unwrap();
            let single = ex.prepare(&qc, some_point()).unwrap();
            let cases: [(&dyn PreparedSweep, &[FaultParams]); 4] = [
                (&*double, &[weak, strong]),
                (&*double, &[strong]),
                (&*single, &[]),
                (&*single, &[strong, weak]),
            ];
            for (i, (sweep, faults)) in cases.into_iter().enumerate() {
                assert!(
                    matches!(sweep.replay(faults), Err(ExecError::InvalidFault(_))),
                    "{name}: case {i}, fast path"
                );
                assert!(
                    matches!(sweep.replay_naive(faults), Err(ExecError::InvalidFault(_))),
                    "{name}: case {i}, naive path"
                );
            }
            assert!(
                matches!(
                    double.replay_grid_batched(&grid, 2),
                    Err(ExecError::InvalidFault(_))
                ),
                "{name}: batched grid on a double sweep"
            );
        }
    }

    #[test]
    fn prepare_rejects_bad_sites() {
        let qc = bv();
        let bad = InjectionPoint {
            op_index: qc.size() + 3,
            qubit: 0,
        };
        for (name, ex) in executors() {
            assert!(
                matches!(
                    ex.prepare(&qc, bad),
                    Err(ExecError::InjectionOutOfRange { .. })
                ),
                "{name}: point out of range"
            );
            assert!(
                matches!(
                    ex.prepare_sites(&qc, some_point(), Some(0)),
                    Err(ExecError::InvalidFault(_))
                ),
                "{name}: neighbor is the struck qubit"
            );
            assert!(
                matches!(
                    ex.prepare_sites(&qc, some_point(), Some(qc.num_qubits())),
                    Err(ExecError::InjectionOutOfRange { .. })
                ),
                "{name}: neighbor out of range"
            );
        }
    }

    #[test]
    fn forked_path_skips_prefix_work() {
        // The whole point of the engine: replays only evolve the suffix.
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let late_point = {
            // Choose the last gate so the prefix dominates.
            let points = crate::fault::enumerate_injection_points(&qc);
            *points.last().unwrap()
        };
        let prepared = ex.prepare(&qc, late_point).unwrap();
        assert!(
            prepared.prefix_gates() > prepared.suffix_gates(),
            "late-point sweep should park most gates in the prefix \
             ({} prefix vs {} suffix)",
            prepared.prefix_gates(),
            prepared.suffix_gates()
        );
    }

    #[test]
    fn replay_grid_is_grid_ordered_and_thread_count_invariant() {
        let qc = bv();
        let grid = FaultGrid::coarse();
        for prepared in [
            IdealExecutor.prepare(&qc, some_point()).unwrap(),
            NoisyExecutor::new(BackendCalibration::lima())
                .prepare(&qc, some_point())
                .unwrap(),
            HardwareExecutor::new(BackendCalibration::jakarta(), 3)
                .prepare(&qc, some_point())
                .unwrap(),
            TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 11, 128)
                .prepare(&qc, some_point())
                .unwrap(),
        ] {
            // Serial reference, one replay per cell in grid order.
            let reference: Vec<ProbDist> = grid
                .iter()
                .map(|(t, p)| prepared.replay(&[FaultParams::shift(t, p)]).unwrap())
                .collect();
            for threads in [1, 2, 4, 7] {
                let cells = prepared.replay_grid_batched(&grid, threads).unwrap();
                assert_eq!(cells.len(), grid.len());
                for (i, (cell, want)) in cells.iter().zip(&reference).enumerate() {
                    assert_bit_identical(cell, want, &format!("grid cell {i} at {threads}t"));
                }
            }
        }
    }

    /// The parked snapshot is only borrowed: hammering one prepared sweep
    /// from several threads at once — grid replays against grid replays
    /// against single replays — must leave every later replay bit-identical
    /// to the pre-concurrency reference.
    #[test]
    fn concurrent_replay_grid_leaves_the_parked_snapshot_unmutated() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let grid = FaultGrid::coarse();
        let probe = FaultParams::shift(FRAC_PI_2, PI);
        let before = prepared.replay(&[probe]).unwrap();
        let grid_before = prepared.replay_grid_batched(&grid, 1).unwrap();

        let prepared = &*prepared;
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let cells = prepared.replay_grid_batched(&grid, 2).unwrap();
                    for (cell, want) in cells.iter().zip(&grid_before) {
                        assert_bit_identical(cell, want, "concurrent grid");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..5 {
                    assert_bit_identical(
                        &prepared.replay(&[probe]).unwrap(),
                        &before,
                        "concurrent single replay",
                    );
                }
            });
        });
        assert_bit_identical(
            &prepared.replay(&[probe]).unwrap(),
            &before,
            "post-concurrency replay",
        );
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh_scratch() {
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let faults = [
            FaultParams::shift(PI, 0.0),
            FaultParams::shift(0.3, 5.9),
            FaultParams::shift(FRAC_PI_2, FRAC_PI_2),
        ];
        let mut scratch = ReplayScratch::new();
        for &fault in &faults {
            let reused = prepared.replay_with(&[fault], &mut scratch).unwrap();
            let fresh = prepared.replay(&[fault]).unwrap();
            assert_bit_identical(&reused, &fresh, "scratch reuse");
        }
        // The trajectory path keeps its own statevector + workspace in the
        // scratch; reuse across faults must not leak state between replays.
        let traj = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 21, 96);
        let prepared = traj.prepare(&qc, some_point()).unwrap();
        for &fault in &faults {
            let reused = prepared.replay_with(&[fault], &mut scratch).unwrap();
            let fresh = prepared.replay(&[fault]).unwrap();
            assert_bit_identical(&reused, &fresh, "trajectory scratch reuse");
        }
    }

    #[test]
    fn replay_grid_batched_matches_scalar_bitwise() {
        // Bit-identity with per-cell replays must hold for every executor,
        // batch width, thread count and grid shape — including θ-duplicate
        // cells (hoisted trig run), a ragged 7-cell grid (len not a
        // multiple of the width), a one-cell grid and an empty grid, which
        // replay cell by cell. (Other tests may race on the env var; every
        // assertion here holds for any width, so the race is benign by
        // design.)
        let qc = bv();
        let grids = [
            FaultGrid::paper(),
            FaultGrid::coarse(),
            FaultGrid::custom(vec![0.0, 0.7, 2.1, 0.7, PI, 1.9, 0.7], vec![1.3]),
            FaultGrid::custom(vec![FRAC_PI_2], vec![PI]),
            FaultGrid::custom(vec![], vec![0.0]),
        ];
        for (name, ex) in executors() {
            let prepared = ex.prepare(&qc, some_point()).unwrap();
            for grid in &grids {
                let reference: Vec<ProbDist> = grid
                    .iter()
                    .map(|(t, p)| prepared.replay(&[FaultParams::shift(t, p)]).unwrap())
                    .collect();
                for width in ["1", "3", "16"] {
                    std::env::set_var("QUFI_BATCH_CELLS", width);
                    for threads in [1, 2, 4] {
                        let cells = prepared.replay_grid_batched(grid, threads).unwrap();
                        assert_eq!(cells.len(), grid.len());
                        for (i, (cell, want)) in cells.iter().zip(&reference).enumerate() {
                            assert_bit_identical(
                                cell,
                                want,
                                &format!("{name} cell {i} w={width} t={threads}"),
                            );
                        }
                    }
                }
                std::env::remove_var("QUFI_BATCH_CELLS");
            }
        }
    }

    #[test]
    fn trajectory_replay_grid_batched_falls_back_to_scalar() {
        // The trajectory scenario has no batched path: the grid entry
        // point must transparently replay it cell by cell.
        let qc = bv();
        let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 11, 64);
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let grid = FaultGrid::custom(vec![0.0, PI], vec![0.3]);
        let batched = prepared.replay_grid_batched(&grid, 2).unwrap();
        assert_eq!(batched.len(), grid.len());
        for (cell, (theta, phi)) in batched.iter().zip(grid.iter()) {
            let want = prepared.replay(&[FaultParams::shift(theta, phi)]).unwrap();
            assert_bit_identical(cell, &want, "trajectory fallback");
        }
    }

    #[test]
    fn replay_grid_on_empty_grid_is_empty() {
        let qc = bv();
        let prepared = IdealExecutor.prepare(&qc, some_point()).unwrap();
        let empty = FaultGrid::custom(vec![], vec![0.0]);
        assert!(prepared.replay_grid_batched(&empty, 4).unwrap().is_empty());
    }

    #[test]
    fn null_fault_replay_still_carries_injector_noise() {
        // The injector is a physical runtime gate: even (0,0) adds one
        // noisy gate relative to the clean execution.
        let qc = bv();
        let ex = NoisyExecutor::new(BackendCalibration::jakarta());
        let clean = ex.execute(&qc).unwrap();
        let prepared = ex.prepare(&qc, some_point()).unwrap();
        let null = prepared.replay(&[FaultParams::shift(0.0, 0.0)]).unwrap();
        let tv = clean.tv_distance(&null);
        assert!(tv > 0.0, "injector should cost one gate of noise");
        assert!(tv < 5e-3, "a null fault must stay nearly invisible: {tv}");
    }
}
