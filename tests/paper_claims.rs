//! The paper's headline experimental claims, encoded as integration tests.
//! Each test cites the section of the paper it reproduces. These run on
//! coarse grids so the suite stays fast; the `fig*` binaries confirm the
//! same claims on the full 15° grids.

use qufi::prelude::*;
use std::f64::consts::PI;

fn noisy() -> NoisyExecutor {
    NoisyExecutor::new(BackendCalibration::jakarta())
}

fn campaign(w: &Workload, ex: &impl SweepExecutor, grid: FaultGrid) -> CampaignResult {
    let opts = CampaignOptions {
        grid,
        points: None,
        threads: 0,
    };
    run_single_campaign(&w.circuit, &w.correct_outputs, ex, &opts).expect("campaign")
}

/// §V-B: "a shift in θ … is indeed more critical than a shift in φ".
#[test]
fn theta_shifts_are_more_critical_than_phi_shifts() {
    let ex = noisy();
    for w in qufi::algos::paper_workloads(4) {
        // Pure θ=π vs pure φ=π faults across all positions.
        let theta_only = campaign(&w, &ex, FaultGrid::custom(vec![PI], vec![0.0]));
        let phi_only = campaign(&w, &ex, FaultGrid::custom(vec![0.0], vec![PI]));
        assert!(
            theta_only.mean_qvf() > phi_only.mean_qvf(),
            "{}: θ-fault QVF {:.3} should exceed φ-fault QVF {:.3}",
            w.name,
            theta_only.mean_qvf(),
            phi_only.mean_qvf()
        );
    }
}

/// §V-B: "the QVF, for Bernstein-Vazirani and Deutsch-Jozsa, is almost
/// symmetric on φ with respect to π".
#[test]
fn bv_and_dj_are_phi_symmetric_about_pi() {
    let ex = noisy();
    let phis: Vec<f64> = vec![PI / 4.0, 7.0 * PI / 4.0, PI / 2.0, 3.0 * PI / 2.0];
    let thetas: Vec<f64> = vec![0.0, PI / 2.0, PI];
    for w in &qufi::algos::paper_workloads(4)[..2] {
        let res = campaign(w, &ex, FaultGrid::custom(thetas.clone(), phis.clone()));
        let hm = Heatmap::from_campaign(&res);
        // φ and 2π−φ cells must be close.
        for (lo, hi) in [(0usize, 1usize), (2, 3)] {
            for ti in 0..thetas.len() {
                let a = hm.value(lo, ti);
                let b = hm.value(hi, ti);
                assert!(
                    (a - b).abs() < 0.06,
                    "{}: asymmetry at θ idx {ti}: {a:.3} vs {b:.3}",
                    w.name
                );
            }
        }
    }
}

/// §V-B: "a fault of (φ = π, θ = π) is critical for QFT, but is harmless
/// for Bernstein-Vazirani and Deutsch-Jozsa".
#[test]
fn pi_pi_fault_is_circuit_dependent() {
    let ex = noisy();
    let grid = FaultGrid::custom(vec![PI], vec![PI]);
    let ws = qufi::algos::paper_workloads(4);
    let bv = campaign(&ws[0], &ex, grid.clone()).mean_qvf();
    let dj = campaign(&ws[1], &ex, grid.clone()).mean_qvf();
    let qft = campaign(&ws[2], &ex, grid).mean_qvf();
    assert!(bv < 0.45, "(π,π) should be masked on BV, got {bv:.3}");
    assert!(dj < 0.45, "(π,π) should be masked on DJ, got {dj:.3}");
    assert!(
        qft > bv + 0.1,
        "(π,π) should hit QFT ({qft:.3}) harder than BV ({bv:.3})"
    );
}

/// §V-B: the fault-free spot of the noisy heatmap "is not solid green
/// (i.e., QVF > 0) due to noise".
#[test]
fn noisy_baseline_qvf_is_positive_but_masked() {
    let ex = noisy();
    for w in qufi::algos::paper_workloads(4) {
        let res = campaign(&w, &ex, FaultGrid::custom(vec![0.0], vec![0.0]));
        assert!(res.baseline_qvf > 0.0, "{}", w.name);
        assert!(res.baseline_qvf < 0.45, "{}", w.name);
    }
}

/// §V-C: BV and DJ reliability profiles are scale-independent; QFT
/// concentrates toward QVF ≈ 0.5 (its σ drops) as the circuit grows.
#[test]
fn qft_concentrates_with_scale_bv_does_not() {
    let ex = noisy();
    let grid = FaultGrid::coarse();
    let sigma = |family: &str, n: usize| -> f64 {
        let ws = qufi::algos::scaling_family(family, n);
        let w = ws.last().expect("family nonempty");
        // Subsample fault sites on the larger instances: σ is estimated
        // across positions, so every-other-site keeps the statistic while
        // halving the 6-qubit simulation cost.
        let points: Vec<_> = enumerate_injection_points(&w.circuit)
            .into_iter()
            .step_by(if n >= 6 { 2 } else { 1 })
            .collect();
        let opts = CampaignOptions {
            grid: grid.clone(),
            points: Some(points),
            threads: 0,
        };
        run_single_campaign(&w.circuit, &w.correct_outputs, &ex, &opts)
            .expect("campaign")
            .stddev_qvf()
    };
    let bv_4 = sigma("bv", 4);
    let bv_6 = sigma("bv", 6);
    let qft_4 = sigma("qft", 4);
    let qft_6 = sigma("qft", 6);
    // QFT's σ must visibly shrink; BV's change stays comparatively small.
    assert!(
        qft_4 - qft_6 > 0.02,
        "QFT σ should drop with scale: {qft_4:.4} → {qft_6:.4}"
    );
    assert!(
        (bv_4 - bv_6).abs() < qft_4 - qft_6 + 0.05,
        "BV profile should be steadier: Δbv {:.4} vs Δqft {:.4}",
        bv_4 - bv_6,
        qft_4 - qft_6
    );
}

/// §V-D: "a double fault actually has a higher (negative) effect on the
/// output" — mean QVF rises and the distribution shifts upward.
#[test]
fn double_faults_are_worse_than_single_faults() {
    let ex = noisy();
    let w = bernstein_vazirani(0b101, 3);
    let grid = FaultGrid::coarse();
    let single = campaign(&w, &ex, grid.clone());
    let pairs = qufi::core::double::neighbor_pairs(&w.circuit, ex.transpiler()).expect("pairs");
    let double = run_double_campaign(
        &w.circuit,
        &w.correct_outputs,
        &ex,
        &DoubleOptions {
            grid,
            points: None,
            pairs,
            threads: 0,
        },
    )
    .expect("double campaign");
    assert!(
        double.mean_qvf() > single.mean_qvf() + 0.05,
        "double {:.4} vs single {:.4}",
        double.mean_qvf(),
        single.mean_qvf()
    );
}

/// §V-E: simulation with the noise model tracks (simulated) hardware to
/// small absolute QVF differences for the T, S, Z, Y gate-equivalent
/// faults (paper: < 0.052; we allow sampling slack).
#[test]
fn hardware_and_simulation_agree() {
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();
    let hw = HardwareExecutor::new(cal.clone(), 99);
    let sim = NoisyExecutor::new(cal);
    for gate in [Gate::T, Gate::S, Gate::Z, Gate::Y] {
        let (theta, phi) = gate.as_fault_shift().expect("fault shift");
        let grid = FaultGrid::custom(vec![theta], vec![phi]);
        let opts = CampaignOptions {
            grid,
            points: None,
            threads: 0,
        };
        let a = run_single_campaign(&w.circuit, &w.correct_outputs, &hw, &opts)
            .expect("hw campaign")
            .mean_qvf();
        let b = run_single_campaign(&w.circuit, &w.correct_outputs, &sim, &opts)
            .expect("sim campaign")
            .mean_qvf();
        assert!(
            (a - b).abs() < 0.08,
            "{}: hardware {a:.4} vs simulation {b:.4}",
            gate.name()
        );
    }
}

/// §IV-B: the paper's grid yields exactly 312 faults per injection point.
#[test]
fn paper_grid_injection_counts() {
    let w = bernstein_vazirani(0b101, 3);
    let points = enumerate_injection_points(&w.circuit);
    let grid = FaultGrid::paper();
    assert_eq!(grid.len(), 312);
    // BV-4 with secret 101: x + 4 H + 2 CX + 3 H = 10 gates, 12 operand slots.
    assert_eq!(points.len(), 12);
}
