//! The campaign point pool flushes every worker's telemetry before it
//! returns, so a snapshot taken right after `run_single_campaign` holds
//! one `point.prepare_ns` sample and one cost row per injection point.
//! The replay counters are exact on every grid path: `replay.cells`
//! counts every cell, `replay.batch.*` only cells that evolved in blocks
//! wider than one, and `replay.batch.scalar_fallback` the rest.
//!
//! A binary of its own: the `qufi-obs` recorder is process-global, and a
//! test running beside this one would add to its counts.

use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{run_single_campaign, CampaignOptions};
use qufi_core::fault::{enumerate_injection_points, FaultGrid};
use qufi_core::{
    HardwareExecutor, IdealExecutor, NoisyExecutor, SweepExecutor, TrajectoryExecutor,
};
use qufi_noise::BackendCalibration;

#[test]
fn single_campaign_workers_flush_their_point_telemetry() {
    let w = bernstein_vazirani(0b101, 3);
    let points = enumerate_injection_points(&w.circuit).len() as u64;
    qufi_obs::reset();
    qufi_obs::enable();
    let options = CampaignOptions {
        grid: FaultGrid::coarse(),
        points: None,
        threads: 2,
    };
    run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &options).unwrap();
    let snapshot = qufi_obs::snapshot();
    let prepares = snapshot
        .hists
        .get("point.prepare_ns")
        .map_or(0, |h| h.count);
    assert_eq!(prepares, points, "point.prepare_ns samples");
    assert_eq!(snapshot.costs.len() as u64, points, "cost rows");

    // Two points on two point workers with two grid threads each, so both
    // levels of the thread split report.
    let options = CampaignOptions {
        points: Some(enumerate_injection_points(&w.circuit)[..2].to_vec()),
        threads: 4,
        ..options
    };
    let grid_len = options.grid.len() as u64;
    let cells = 2 * grid_len;
    let shots = 64;
    let executors: Vec<(&str, Box<dyn SweepExecutor>)> = vec![
        ("ideal", Box::new(IdealExecutor)),
        (
            "noisy",
            Box::new(NoisyExecutor::new(BackendCalibration::jakarta())),
        ),
        (
            "hardware",
            Box::new(HardwareExecutor::new(BackendCalibration::jakarta(), 3)),
        ),
        (
            "trajectory",
            Box::new(TrajectoryExecutor::with_shots(
                BackendCalibration::jakarta(),
                3,
                shots,
            )),
        ),
    ];
    for (name, executor) in &executors {
        for width in [1u64, 16] {
            std::env::set_var("QUFI_BATCH_CELLS", width.to_string());
            qufi_obs::reset();
            run_single_campaign(&w.circuit, &w.correct_outputs, &executor.as_ref(), &options)
                .unwrap();
            let snapshot = qufi_obs::snapshot();
            let what = format!("{name} at width {width}");
            assert_eq!(snapshot.counter("replay.cells"), cells, "{what}: cells");
            let batch = [
                "replay.batch.cells",
                "replay.batch.blocks",
                "replay.batch.theta_groups",
            ]
            .map(|key| snapshot.counters.get(key).copied());
            let fallback = snapshot
                .counters
                .get("replay.batch.scalar_fallback")
                .copied();
            // Trajectory has no batched path.
            if width > 1 && *name != "trajectory" {
                let blocks = 2 * grid_len.div_ceil(width);
                let theta_groups = 2 * options.grid.thetas.len() as u64;
                assert_eq!(
                    batch,
                    [Some(cells), Some(blocks), Some(theta_groups)],
                    "{what}: batch counters"
                );
                assert_eq!(fallback, None, "{what}: scalar fallback");
            } else {
                assert_eq!(batch, [None; 3], "{what}: batch counters");
                assert_eq!(fallback, Some(cells), "{what}: scalar fallback");
            }
            // The fault-free baseline runs one more cell's worth of shots.
            let traj_shots = if *name == "trajectory" {
                (cells + 1) * shots
            } else {
                0
            };
            assert_eq!(snapshot.counter("traj.shots"), traj_shots, "{what}: shots");
        }
    }
    std::env::remove_var("QUFI_BATCH_CELLS");
    qufi_obs::disable();
}
