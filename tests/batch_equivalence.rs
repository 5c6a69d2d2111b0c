//! Differential suite for the batched grid-replay engine.
//!
//! The engine's contract: replaying a fault grid through the batched
//! cell-major block path ([`PreparedSweep::replay_grid_batched`]) is
//! **bit-identical** to replaying it cell by cell
//! ([`PreparedSweep::replay`], itself pinned against the naive oracle by
//! `fork_equivalence.rs`) — for every registry workload family, every
//! scenario with a batched path (ideal, noisy, fixed-seed hardware), every
//! batch width, every thread count, and every grid shape including ragged
//! grids whose size is not a multiple of the width and single-cell grids
//! that take the scalar fallback.
//!
//! Several tests vary `QUFI_BATCH_CELLS`; the test harness runs them in
//! parallel threads, so tests may observe each other's widths. That race
//! is benign by design: every assertion here holds for *any* width.

use qufi::core::engine::{PreparedSweep, SweepExecutor};
use qufi::prelude::*;

/// One 3-qubit instance of every registry family — wide enough to exercise
/// routing/SWAPs, small enough to replay the full paper grid per family.
fn registry_workloads() -> Vec<Workload> {
    qufi::algos::registry::families()
        .iter()
        .map(|f| {
            qufi::algos::build_workload(&format!("{}-3", f.family))
                .expect("every family supports 3 qubits")
        })
        .collect()
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

/// The per-cell reference: one [`PreparedSweep::replay`] per cell, in
/// grid order.
fn per_cell(prepared: &dyn PreparedSweep, grid: &FaultGrid) -> Vec<ProbDist> {
    grid.iter()
        .map(|(theta, phi)| {
            prepared
                .replay(&[FaultParams::shift(theta, phi)])
                .expect("replay")
        })
        .collect()
}

/// A mid-circuit injection point: representative prefix/suffix balance.
fn mid_point(qc: &QuantumCircuit) -> InjectionPoint {
    let points = enumerate_injection_points(qc);
    points[points.len() / 2]
}

fn assert_grids_match<E: SweepExecutor>(ex: &E, grid: &FaultGrid, threads: usize, label: &str) {
    assert_workload_grids_match(ex, &registry_workloads(), grid, threads, label);
}

fn assert_workload_grids_match<E: SweepExecutor>(
    ex: &E,
    workloads: &[Workload],
    grid: &FaultGrid,
    threads: usize,
    label: &str,
) {
    for w in workloads {
        let prepared = ex
            .prepare(&w.circuit, mid_point(&w.circuit))
            .unwrap_or_else(|e| panic!("{label}/{}: prepare: {e}", w.name));
        let scalar = per_cell(&*prepared, grid);
        let batched = prepared
            .replay_grid_batched(grid, threads)
            .expect("batched grid");
        assert_eq!(batched.len(), scalar.len(), "{label}/{}: cells", w.name);
        for (i, (got, want)) in batched.iter().zip(&scalar).enumerate() {
            assert_bit_identical(got, want, &format!("{label}/{}: cell {i}", w.name));
        }
    }
}

/// Every registry family × scenario, full 312-cell paper grid, default
/// batch width: batched and scalar paths agree bit for bit.
#[test]
fn batched_paper_grid_matches_scalar_ideal() {
    assert_grids_match(&IdealExecutor, &FaultGrid::paper(), 2, "ideal");
}

#[test]
fn batched_paper_grid_matches_scalar_noisy() {
    let ex = NoisyExecutor::new(BackendCalibration::lima());
    assert_grids_match(&ex, &FaultGrid::paper(), 2, "noisy-lima");
}

/// The paper's own 4-qubit workloads on jakarta (`manifests/paper.toml`):
/// long suffixes on a 4-qubit ρ, dominated by CX steps carrying 2-qubit
/// depolarizing plus relaxation channels — the shape the fused step
/// programs were built for, which the shorter 3-qubit registry cases
/// only sample.
#[test]
fn batched_paper_grid_matches_scalar_on_paper_workloads() {
    let workloads: Vec<Workload> = ["bv-4", "dj-4", "qft-4"]
        .iter()
        .map(|name| qufi::algos::build_workload(name).expect("paper workload"))
        .collect();
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    assert_workload_grids_match(&ex, &workloads, &FaultGrid::paper(), 2, "noisy-jakarta-4q");
}

#[test]
fn batched_paper_grid_matches_scalar_hardware() {
    let ex = HardwareExecutor::new(BackendCalibration::jakarta(), 0xD5A1);
    assert_grids_match(&ex, &FaultGrid::paper(), 2, "hardware-jakarta");
}

/// Ragged grids (cell count not a multiple of any width, down to a single
/// cell) × widths 1/4/8/16 × threads 1/2/4: the tail block simply runs
/// narrower, width 1 takes the scalar path, and everything stays
/// bit-identical to the scalar reference.
#[test]
fn batched_ragged_grids_match_scalar_across_widths_and_threads() {
    let w = qufi::algos::build_workload("bv-3").expect("bv-3");
    let grids = [
        // 5 θ × 3 φ = 15 cells: not a multiple of 4, 8 or 16; the repeated
        // θ exercises the hoisted-trig run sharing.
        FaultGrid::custom(
            vec![0.0, 0.7, 0.7, 2.1, std::f64::consts::PI],
            vec![0.0, 1.3, 5.0],
        ),
        // Single-cell grid: always the scalar fallback.
        FaultGrid::custom(vec![std::f64::consts::FRAC_PI_2], vec![0.4]),
    ];
    let ideal = IdealExecutor;
    let noisy = NoisyExecutor::new(BackendCalibration::jakarta());
    let hw = HardwareExecutor::new(BackendCalibration::jakarta(), 7);
    let prepared: Vec<Box<dyn PreparedSweep + '_>> = vec![
        ideal.prepare(&w.circuit, mid_point(&w.circuit)).unwrap(),
        noisy.prepare(&w.circuit, mid_point(&w.circuit)).unwrap(),
        hw.prepare(&w.circuit, mid_point(&w.circuit)).unwrap(),
    ];
    for (e, p) in prepared.iter().enumerate() {
        for grid in &grids {
            let scalar = per_cell(&**p, grid);
            for width in ["1", "4", "8", "16"] {
                std::env::set_var("QUFI_BATCH_CELLS", width);
                for threads in [1usize, 2, 4] {
                    let batched = p.replay_grid_batched(grid, threads).expect("batched grid");
                    assert_eq!(batched.len(), scalar.len());
                    for (i, (got, want)) in batched.iter().zip(&scalar).enumerate() {
                        assert_bit_identical(
                            got,
                            want,
                            &format!("executor {e} cell {i} w={width} t={threads}"),
                        );
                    }
                }
            }
            std::env::remove_var("QUFI_BATCH_CELLS");
        }
    }
}

/// The campaign layer routes through the batched entry point; campaign
/// records must not depend on the batch width either.
#[test]
fn campaign_records_are_identical_with_batching_on_and_off() {
    let w = qufi::algos::build_workload("bv-3").expect("bv-3");
    let golden = golden_outputs(&w.circuit).expect("golden");
    let opts = CampaignOptions {
        grid: FaultGrid::coarse(),
        points: None,
        threads: 0,
    };
    std::env::set_var("QUFI_BATCH_CELLS", "8");
    let batched = run_single_campaign(
        &w.circuit,
        &golden,
        &NoisyExecutor::new(BackendCalibration::jakarta()),
        &opts,
    )
    .expect("batched campaign");
    std::env::set_var("QUFI_BATCH_CELLS", "1");
    let scalar = run_single_campaign(
        &w.circuit,
        &golden,
        &NoisyExecutor::new(BackendCalibration::jakarta()),
        &opts,
    )
    .expect("scalar campaign");
    std::env::remove_var("QUFI_BATCH_CELLS");
    assert_eq!(
        qufi::core::report::records_to_csv(&batched.records),
        qufi::core::report::records_to_csv(&scalar.records),
        "campaign CSV must not depend on the batch width"
    );
    assert_eq!(
        qufi::core::serialize::campaign_to_json(&batched),
        qufi::core::serialize::campaign_to_json(&scalar),
        "campaign JSON must not depend on the batch width"
    );
}
