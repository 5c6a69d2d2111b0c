//! A double-fault campaign's records are bit-identical for every worker
//! count, and against the naive rebuild-per-configuration oracle
//! ([`PreparedSweep::replay_naive`]), on every executor: the point pool
//! and the per-worker replay scratch change scheduling and allocation
//! only.

use qufi_algos::bernstein_vazirani;
use qufi_core::double::{neighbor_pairs, run_double_campaign, DoubleOptions};
use qufi_core::fault::{FaultGrid, FaultParams, InjectionPoint};
use qufi_core::metrics::qvf_from_dist;
use qufi_core::{
    DoubleInjectionRecord, HardwareExecutor, IdealExecutor, NoisyExecutor, PreparedSweep,
    SweepExecutor, TrajectoryExecutor,
};
use qufi_noise::BackendCalibration;
use qufi_transpile::{CouplingMap, OptimizationLevel, Transpiler};

/// The bit patterns of every field, so `-0.0`/`0.0` or NaN could not hide
/// a difference.
fn bits(records: &[DoubleInjectionRecord]) -> Vec<(InjectionPoint, usize, [u64; 5])> {
    records
        .iter()
        .map(|r| {
            (
                r.point,
                r.neighbor,
                [r.theta0, r.phi0, r.theta1, r.phi1, r.qvf].map(f64::to_bits),
            )
        })
        .collect()
}

#[test]
fn double_campaign_is_thread_and_oracle_invariant_on_every_executor() {
    // bv-2: three qubits, the ancilla coupled to both data qubits.
    let w = bernstein_vazirani(0b11, 2);
    let transpiler = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level3);
    let pairs = neighbor_pairs(&w.circuit, &transpiler).unwrap();
    assert!(!pairs.is_empty());
    let points = vec![
        InjectionPoint {
            op_index: 2,
            qubit: 0,
        },
        InjectionPoint {
            op_index: 4,
            qubit: 0,
        },
    ];
    let executors: Vec<(&str, Box<dyn SweepExecutor>)> = vec![
        ("ideal", Box::new(IdealExecutor)),
        (
            "noisy",
            Box::new(NoisyExecutor::new(BackendCalibration::jakarta())),
        ),
        (
            "hardware",
            Box::new(HardwareExecutor::new(BackendCalibration::jakarta(), 17)),
        ),
        (
            "trajectory",
            Box::new(TrajectoryExecutor::with_shots(
                BackendCalibration::jakarta(),
                17,
                64,
            )),
        ),
    ];
    for (name, executor) in &executors {
        let run = |threads| {
            let options = DoubleOptions {
                grid: FaultGrid::coarse(),
                points: Some(points.clone()),
                pairs: pairs.clone(),
                threads,
            };
            run_double_campaign(&w.circuit, &w.correct_outputs, &executor.as_ref(), &options)
                .unwrap()
                .records
        };
        let records = run(1);
        let reference = bits(&records);
        assert!(!reference.is_empty(), "{name}: no double injections");
        for threads in [2, 4] {
            assert_eq!(bits(&run(threads)), reference, "{name}: {threads} threads");
        }
        // Every record re-derived through the naive oracle, one fresh
        // two-site preparation per (point, neighbor).
        let mut prepared: Option<((InjectionPoint, usize), Box<dyn PreparedSweep + '_>)> = None;
        let naive: Vec<DoubleInjectionRecord> = records
            .iter()
            .map(|r| {
                let key = (r.point, r.neighbor);
                if prepared.as_ref().is_none_or(|(k, _)| *k != key) {
                    let sweep = executor
                        .prepare_sites(&w.circuit, r.point, Some(r.neighbor))
                        .unwrap();
                    prepared = Some((key, sweep));
                }
                let (_, sweep) = prepared.as_ref().unwrap();
                let faults = [
                    FaultParams::shift(r.theta0, r.phi0),
                    FaultParams::shift(r.theta1, r.phi1),
                ];
                let dist = sweep.replay_naive(&faults).unwrap();
                DoubleInjectionRecord {
                    qvf: qvf_from_dist(&dist, &w.correct_outputs),
                    ..*r
                }
            })
            .collect();
        assert_eq!(bits(&naive), reference, "{name}: naive");
    }
}
