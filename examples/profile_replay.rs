use qufi::core::engine::SweepExecutor;
use qufi::prelude::*;
use std::time::Instant;

fn main() {
    let w = qufi::algos::build_workload("bv-4").unwrap();
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).unwrap();
    println!(
        "prefix_gates={} suffix_gates={}",
        prepared.prefix_gates(),
        prepared.suffix_gates()
    );
    let grid = FaultGrid::paper();
    // serial cell-by-cell replays with reused scratch: width-1 blocks
    std::env::set_var("QUFI_BATCH_CELLS", "1");
    let t = Instant::now();
    let cells = prepared.replay_grid_batched(&grid, 1).unwrap();
    println!(
        "replay_grid_batched w1 t1: {:?} for {} cells -> {:?}/cell",
        t.elapsed(),
        cells.len(),
        t.elapsed() / cells.len() as u32
    );
    // fresh-scratch replays
    let t = Instant::now();
    for (theta, phi) in grid.iter() {
        let _ = prepared.replay(&[FaultParams::shift(theta, phi)]).unwrap();
    }
    println!("replay fresh: {:?}", t.elapsed());
}
