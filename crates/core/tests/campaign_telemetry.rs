//! The campaign point pool flushes every worker's telemetry before it
//! returns, so a snapshot taken right after `run_single_campaign` holds
//! one `point.prepare_ns` sample and one cost row per injection point.
//!
//! A binary of its own: the `qufi-obs` recorder is process-global, and a
//! test running beside this one would add to its counts.

use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{run_single_campaign, CampaignOptions};
use qufi_core::fault::{enumerate_injection_points, FaultGrid};
use qufi_core::IdealExecutor;

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
        naive: false,
    };
    run_single_campaign(&w.circuit, &w.correct_outputs, &IdealExecutor, &options).unwrap();
    let snapshot = qufi_obs::snapshot();
    qufi_obs::disable();
    let prepares = snapshot
        .hists
        .get("point.prepare_ns")
        .map_or(0, |h| h.count);
    assert_eq!(prepares, points, "point.prepare_ns samples");
    assert_eq!(snapshot.costs.len() as u64, points, "cost rows");
}
