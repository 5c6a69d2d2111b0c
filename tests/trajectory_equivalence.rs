//! Statistical differential suite for the Monte-Carlo trajectory executor.
//!
//! The density-matrix path computes the *exact* output distribution of a
//! faulty circuit under the backend's noise model; the trajectory path
//! estimates the same distribution from `shots` sampled Kraus-branch
//! histories. The contract pinned here, for 4–7-qubit registry workloads
//! against the density oracle:
//!
//! 1. per-cell tv distance is bounded by `C/√shots`,
//! 2. the grid-mean tv distance tightens monotonically as shots grow
//!    through 256 → 1024 → 4096 (deterministic at fixed seeds), and
//! 3. at 4096 shots the masked/dubious/SDC severity classification agrees
//!    with the oracle's on every cell whose oracle QVF sits clear of the
//!    0.45–0.55 dubious band (a small guard band around the thresholds
//!    absorbs the residual `O(1/√shots)` estimator error).
//!
//! Everything is seeded: the suite is a deterministic regression gate, not
//! a flaky tolerance test. CI runs it in release mode (the `trajectory`
//! job).

use qufi::core::engine::SweepExecutor;
use qufi::core::metrics::Severity;
use qufi::prelude::*;

/// tv bound numerator: `tv ≤ C/√shots` per grid cell. The constant
/// absorbs the output dimension: wide distributions (qft-6 spreads mass
/// over 64 outcomes) accumulate more per-outcome estimator noise than
/// peaked ones, but every workload keeps the `1/√shots` decay.
const C: f64 = 3.0;

/// Severity must agree when the oracle QVF is this far outside the
/// dubious band — absorbs estimator noise right at a threshold.
const GUARD: f64 = 0.03;

const SHOT_LEVELS: [u64; 3] = [256, 1024, 4096];

/// Runs one workload at a mid-circuit injection point over a 3×3 θ/φ
/// grid and checks all three contract clauses against the density oracle.
fn assert_statistical_equivalence(workload: &str, seed: u64) {
    let w = qufi::algos::build_workload(workload).expect("registry workload");
    let golden = golden_outputs(&w.circuit).expect("golden");
    let cal = BackendCalibration::jakarta();
    let grid = FaultGrid::custom(
        vec![0.0, std::f64::consts::FRAC_PI_2, std::f64::consts::PI],
        vec![0.0, std::f64::consts::FRAC_PI_2, std::f64::consts::PI],
    );
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];

    let oracle = NoisyExecutor::new(cal.clone());
    let oracle_prepared = oracle.prepare(&w.circuit, point).expect("oracle prepare");
    let oracle_cells: Vec<ProbDist> = grid
        .iter()
        .map(|(t, p)| {
            oracle_prepared
                .replay(&[FaultParams::shift(t, p)])
                .expect("oracle replay")
        })
        .collect();

    let mut mean_tvs = Vec::new();
    let mut finest: Vec<ProbDist> = Vec::new();
    for &shots in &SHOT_LEVELS {
        let ex = TrajectoryExecutor::with_shots(cal.clone(), seed, shots);
        let prepared = ex.prepare(&w.circuit, point).expect("trajectory prepare");
        let bound = C / (shots as f64).sqrt();
        let mut tv_sum = 0.0;
        let mut cells = Vec::new();
        for ((theta, phi), want) in grid.iter().zip(&oracle_cells) {
            let got = prepared
                .replay(&[FaultParams::shift(theta, phi)])
                .expect("trajectory replay");
            let tv = got.tv_distance(want);
            assert!(
                tv <= bound,
                "{workload} {point:?} (θ={theta:.3}, φ={phi:.3}) at {shots} shots: \
                 tv = {tv:.4} exceeds {C}/√shots = {bound:.4}"
            );
            tv_sum += tv;
            cells.push(got);
        }
        mean_tvs.push(tv_sum / grid.len() as f64);
        finest = cells;
    }

    for pair in mean_tvs.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "{workload}: grid-mean tv did not tighten with shots: {mean_tvs:?}"
        );
    }

    for ((theta, phi), (got, want)) in grid.iter().zip(finest.iter().zip(&oracle_cells)) {
        let oracle_qvf = qvf_from_dist(want, &golden);
        let clear_of_band = !(0.45 - GUARD..=0.55 + GUARD).contains(&oracle_qvf);
        if !clear_of_band {
            continue;
        }
        let traj_qvf = qvf_from_dist(got, &golden);
        assert_eq!(
            Severity::classify(traj_qvf),
            Severity::classify(oracle_qvf),
            "{workload} (θ={theta:.3}, φ={phi:.3}): severity flipped at 4096 shots \
             (trajectory qvf {traj_qvf:.4} vs oracle {oracle_qvf:.4})"
        );
    }
}

#[test]
fn trajectory_matches_density_oracle_bv4() {
    assert_statistical_equivalence("bv-4", 0x7261_4A01);
}

#[test]
fn trajectory_matches_density_oracle_ghz5() {
    assert_statistical_equivalence("ghz-5", 0x7261_4A02);
}

#[test]
fn trajectory_matches_density_oracle_qft6() {
    assert_statistical_equivalence("qft-6", 0x7261_4A03);
}

#[test]
fn trajectory_matches_density_oracle_dj7() {
    assert_statistical_equivalence("dj-7", 0x7261_4A04);
}

/// The trajectory fast path must stay bit-identical to its own naive
/// oracle (fresh transpile + plan + un-banked shots) — same contract the
/// other executors pin in `fork_equivalence.rs`, here on a 6-qubit
/// workload the density suite cannot afford to sweep.
#[test]
fn trajectory_forked_sweep_matches_naive_oracle_qft6() {
    let w = qufi::algos::build_workload("qft-6").expect("qft-6");
    let ex = TrajectoryExecutor::with_shots(BackendCalibration::jakarta(), 0xD5A2, 128);
    let points = enumerate_injection_points(&w.circuit);
    for &point in [points.first(), points.last()].into_iter().flatten() {
        let prepared = ex.prepare(&w.circuit, point).expect("prepare");
        for (theta, phi) in FaultGrid::custom(vec![0.0, 1.2], vec![0.0, 4.4]).iter() {
            let fault = FaultParams::shift(theta, phi);
            let fast = prepared.replay(&[fault]).expect("replay");
            let slow = prepared.replay_naive(&[fault]).expect("naive replay");
            assert!(
                fast.tv_distance(&slow) < 1e-12,
                "qft-6 {point:?} (θ={theta:.3}, φ={phi:.3}) diverged from naive"
            );
        }
    }
}
