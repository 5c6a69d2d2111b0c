//! Microbenchmarks of the simulation and transpilation engines — the
//! substrate costs underneath every campaign number in EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qufi_algos::bernstein_vazirani;
use qufi_core::campaign::{golden_outputs, run_point_sweep};
use qufi_core::engine::SweepExecutor;
use qufi_core::executor::{Executor, NoisyExecutor};
use qufi_core::fault::{enumerate_injection_points, FaultGrid, FaultParams};
use qufi_core::metrics::qvf_from_dist;
use qufi_noise::{simulate, BackendCalibration, KrausChannel};
use qufi_sim::{DensityMatrix, Gate, Statevector};
use qufi_transpile::{CouplingMap, OptimizationLevel, Transpiler};

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for n in [4usize, 7, 10] {
        group.bench_function(format!("h_layer_{n}q"), |b| {
            b.iter_batched(
                || Statevector::new(n).expect("fits"),
                |mut sv| {
                    for q in 0..n {
                        sv.apply_gate(Gate::H, &[q]);
                    }
                    sv
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("cx_chain_{n}q"), |b| {
            b.iter_batched(
                || Statevector::new(n).expect("fits"),
                |mut sv| {
                    for q in 0..n - 1 {
                        sv.apply_gate(Gate::Cx, &[q, q + 1]);
                    }
                    sv
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    let channel = KrausChannel::thermal_relaxation(120e-6, 80e-6, 400e-9);
    for n in [4usize, 7] {
        group.bench_function(format!("unitary_gate_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_gate(Gate::H, &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("kraus_channel_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_kraus(channel.kraus_operators(), &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("superop_channel_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::new(n).expect("fits"),
                |mut rho| {
                    rho.apply_superoperator(channel.superoperator(), &[0]);
                    rho
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    let w = bernstein_vazirani(0b101, 3);
    let cal = BackendCalibration::jakarta();

    group.bench_function("transpile_bv4_level3", |b| {
        let t = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level3);
        b.iter(|| t.run(&w.circuit).expect("transpiles"))
    });
    group.bench_function("transpile_bv4_level0", |b| {
        let t = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level0);
        b.iter(|| t.run(&w.circuit).expect("transpiles"))
    });
    group.bench_function("noisy_run_bv4_raw", |b| {
        let model = cal.noise_model();
        let t = Transpiler::new(CouplingMap::ibm_h7(), OptimizationLevel::Level3);
        let routed = t.run(&w.circuit).expect("transpiles");
        b.iter(|| simulate::run_noisy(routed.circuit(), &model).expect("runs"))
    });
    group.bench_function("noisy_executor_bv4_end_to_end", |b| {
        let ex = NoisyExecutor::new(cal.clone());
        b.iter(|| ex.execute(&w.circuit).expect("runs"))
    });
    group.finish();
}

/// Forked-state sweep engine vs the naive per-configuration oracle on the
/// paper's bv-4/jakarta baseline — the BENCHMARKS.md before/after numbers.
/// Per-iteration work is one injection point's full grid sweep; the naive
/// case prepares the point, then rebuilds every cell through
/// `replay_naive` and scores it.
fn bench_sweep_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let golden = golden_outputs(&w.circuit).expect("golden");
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    // A mid-circuit point: representative prefix/suffix balance.
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];

    for (label, grid) in [
        ("coarse", FaultGrid::coarse()),
        ("paper312", FaultGrid::paper()),
    ] {
        group.bench_function(format!("forked_point_sweep_bv4_{label}"), |b| {
            b.iter(|| run_point_sweep(&w.circuit, &golden, &ex, point, &grid, 1).expect("sweep"))
        });
        group.bench_function(format!("naive_point_sweep_bv4_{label}"), |b| {
            b.iter(|| {
                let prepared = ex.prepare(&w.circuit, point).expect("prepare");
                grid.iter()
                    .map(|(theta, phi)| {
                        let fault = FaultParams::shift(theta, phi);
                        let dist = prepared.replay_naive(&[fault]).expect("naive replay");
                        qvf_from_dist(&dist, &golden)
                    })
                    .collect::<Vec<f64>>()
            })
        });
    }
    group.finish();
}

/// Grid-parallel replay on one prepared point — the BENCHMARKS.md
/// per-point numbers for the two-level thread model. Per iteration: all
/// 312 paper configurations of one bv-4/jakarta injection point, replayed
/// cell by cell (`QUFI_BATCH_CELLS=1`) from the parked snapshot across
/// 1/2/4 grid threads.
fn bench_replay_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_grid");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    let grid = FaultGrid::paper();
    std::env::set_var("QUFI_BATCH_CELLS", "1");
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("bv4_paper312_t{threads}"), |b| {
            b.iter(|| {
                prepared
                    .replay_grid_batched(&grid, threads)
                    .expect("grid replay")
            })
        });
    }
    std::env::remove_var("QUFI_BATCH_CELLS");
    group.finish();
}

/// Batched cell-major replay vs the scalar per-cell path on the same
/// prepared bv-4/jakarta point — the BENCHMARKS.md "batched grid replay"
/// numbers. The width is pinned via `QUFI_BATCH_CELLS` around each case;
/// `scalar` is width 1, the per-cell path on the identical prepared
/// snapshot, so the ratio isolates batching itself. Exports from both
/// paths are bit-identical; only the wall clock moves.
fn bench_replay_grid_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay_grid_batched");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    for (label, grid) in [
        ("coarse", FaultGrid::coarse()),
        ("paper312", FaultGrid::paper()),
    ] {
        for width in [1usize, 4, 8, 16] {
            std::env::set_var("QUFI_BATCH_CELLS", width.to_string());
            let case = match width {
                1 => "scalar".to_string(),
                w => format!("w{w}"),
            };
            group.bench_function(format!("bv4_{label}_{case}_t1"), |b| {
                b.iter(|| prepared.replay_grid_batched(&grid, 1).expect("grid replay"))
            });
        }
        std::env::remove_var("QUFI_BATCH_CELLS");
    }
    group.finish();
}

/// Telemetry overhead on the hot replay path (BENCHMARKS.md "phase
/// attribution"). `disabled` is the default campaign configuration —
/// every record call is one relaxed atomic load — and must match PR 5's
/// recorded cell-by-cell grid numbers (`QUFI_BATCH_CELLS=1`); `enabled`
/// pays one `Instant::now()` pair per phase (never per cell) and should
/// sit within noise of it.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let w = bernstein_vazirani(0b101, 3);
    let ex = NoisyExecutor::new(BackendCalibration::jakarta());
    let points = enumerate_injection_points(&w.circuit);
    let point = points[points.len() / 2];
    let prepared = ex.prepare(&w.circuit, point).expect("prepare");
    let grid = FaultGrid::paper();

    std::env::set_var("QUFI_BATCH_CELLS", "1");
    qufi_obs::disable();
    group.bench_function("replay_bv4_paper312_t1_disabled", |b| {
        b.iter(|| prepared.replay_grid_batched(&grid, 1).expect("grid replay"))
    });
    qufi_obs::reset();
    qufi_obs::enable();
    group.bench_function("replay_bv4_paper312_t1_enabled", |b| {
        b.iter(|| prepared.replay_grid_batched(&grid, 1).expect("grid replay"))
    });
    qufi_obs::disable();
    qufi_obs::reset();
    std::env::remove_var("QUFI_BATCH_CELLS");
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_statevector, bench_density, bench_pipeline, bench_sweep_engine,
        bench_replay_grid, bench_replay_grid_batched, bench_obs_overhead
}
criterion_main!(benches);
