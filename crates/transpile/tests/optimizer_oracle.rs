//! The compact-op optimizer against the `Op`-based passes it replaced,
//! kept below verbatim (renamed `legacy_*`) as the oracle. Every level,
//! with and without native resynthesis, must produce the same circuit op
//! for op, with parameters equal bit for bit: the transpiled circuits feed
//! the noise simulation, whose exports are byte-pinned.
//!
//! Covered: every registry workload on every built-in backend it fits, at
//! every injection point, with a single and a double splice marker, run
//! through the transpiler's decompose → dense layout → routing → basis
//! stages; and random circuits with barriers, markers, measurements,
//! signed-zero angles, rotation chains that merge to zero or wrap at ±π,
//! and inverse pairs split by barriers. Debug builds check every sixteenth
//! injection point; run in release for the full case counts:
//!
//! ```bash
//! cargo test --release -p qufi-transpile --test optimizer_oracle
//! ```

use proptest::prelude::*;
use qufi_algos::registry::{build_workload, workload_names, MAX_REGISTRY_QUBITS};
use qufi_math::{decompose::normalize_angle, zyz_decompose, CMatrix};
use qufi_noise::BackendCalibration;
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};
use qufi_transpile::basis::{decompose_1q_matrix, decompose_ccx, translate_to_basis};
use qufi_transpile::optimize::{optimize, Level};
use qufi_transpile::routing::{route_with, RoutingStrategy};
use qufi_transpile::{CouplingMap, Layout};
use std::f64::consts::PI;

// ---------------------------------------------------------------------
// Reference implementation: the passes as they were before compact ops.

/// Runs the optimization pipeline at the given level. `native` controls
/// whether fused runs are resynthesized into `{rz, sx}` (true) or a single
/// `U` gate (false).
fn legacy_optimize(qc: &QuantumCircuit, level: Level, native: bool) -> QuantumCircuit {
    match level {
        Level::Level0 => qc.clone(),
        Level::Level1 => {
            let qc = legacy_run_to_fixpoint(qc, legacy_cancel_inverse_pairs, 10);
            legacy_merge_rotations(&qc)
        }
        Level::Level2 => {
            let qc = legacy_run_to_fixpoint(qc, legacy_cancel_inverse_pairs, 10);
            let qc = legacy_merge_rotations(&qc);
            let qc = legacy_fuse_single_qubit_runs(&qc, native);
            legacy_run_to_fixpoint(&qc, legacy_cancel_inverse_pairs, 10)
        }
        Level::Level3 => {
            let mut cur = qc.clone();
            for _ in 0..10 {
                let next = legacy_fuse_single_qubit_runs(
                    &legacy_merge_rotations(&legacy_run_to_fixpoint(
                        &cur,
                        legacy_cancel_inverse_pairs,
                        10,
                    )),
                    native,
                );
                if next == cur {
                    break;
                }
                cur = next;
            }
            cur
        }
    }
}

fn legacy_run_to_fixpoint(
    qc: &QuantumCircuit,
    pass: fn(&QuantumCircuit) -> QuantumCircuit,
    max_iter: usize,
) -> QuantumCircuit {
    let mut cur = qc.clone();
    for _ in 0..max_iter {
        let next = pass(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn legacy_params_match(a: Gate, b: Gate) -> bool {
    let (pa, pb) = (a.params(), b.params());
    pa.len() == pb.len() && pa.iter().zip(&pb).all(|(x, y)| (x - y).abs() < 1e-12)
}

/// Removes adjacent gate pairs `G · G⁻¹` acting on identical operand lists.
fn legacy_cancel_inverse_pairs(qc: &QuantumCircuit) -> QuantumCircuit {
    let mut out: Vec<Option<Op>> = Vec::with_capacity(qc.size());
    // last[q] = index in `out` of the most recent op touching qubit q.
    let mut last: Vec<Option<usize>> = vec![None; qc.num_qubits()];

    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } => {
                // Candidate for cancellation: all operands point at the same
                // previous instruction, which is our inverse on the same
                // operand list.
                let candidate = qubits
                    .iter()
                    .map(|&q| last[q])
                    .collect::<Option<Vec<usize>>>()
                    .and_then(|idxs| {
                        let first = idxs[0];
                        idxs.iter().all(|&i| i == first).then_some(first)
                    });
                if let Some(j) = candidate {
                    if let Some(Op::Gate {
                        gate: prev,
                        qubits: prev_qs,
                    }) = &out[j]
                    {
                        let inv = gate.inverse();
                        if prev_qs == qubits
                            && std::mem::discriminant(prev) == std::mem::discriminant(&inv)
                            && legacy_params_match(*prev, inv)
                        {
                            out[j] = None;
                            for &q in qubits {
                                last[q] = None;
                            }
                            continue;
                        }
                    }
                }
                let idx = out.len();
                out.push(Some(op.clone()));
                for &q in qubits {
                    last[q] = Some(idx);
                }
            }
            Op::Barrier(qs) => {
                let idx = out.len();
                out.push(Some(op.clone()));
                for &q in qs {
                    last[q] = Some(idx);
                }
            }
            Op::Measure { qubit, .. } => {
                let idx = out.len();
                out.push(Some(op.clone()));
                last[*qubit] = Some(idx);
            }
        }
    }
    legacy_rebuild(qc, out.into_iter().flatten())
}

/// Merges adjacent `rz`/`p` rotations on the same qubit and `cp` rotations on
/// the same ordered pair; zero-angle results are dropped.
fn legacy_merge_rotations(qc: &QuantumCircuit) -> QuantumCircuit {
    let mut out: Vec<Option<Op>> = Vec::with_capacity(qc.size());
    let mut last: Vec<Option<usize>> = vec![None; qc.num_qubits()];

    for op in qc.instructions() {
        if let Op::Gate { gate, qubits } = op {
            let mergeable = matches!(gate, Gate::Rz(_) | Gate::P(_) | Gate::Cp(_));
            if mergeable {
                let candidate = qubits
                    .iter()
                    .map(|&q| last[q])
                    .collect::<Option<Vec<usize>>>()
                    .and_then(|idxs| {
                        let first = idxs[0];
                        idxs.iter().all(|&i| i == first).then_some(first)
                    });
                if let Some(j) = candidate {
                    if let Some(Op::Gate {
                        gate: prev,
                        qubits: prev_qs,
                    }) = &out[j]
                    {
                        let merged = match (*prev, *gate) {
                            (Gate::Rz(a), Gate::Rz(b)) if prev_qs == qubits => {
                                Some(Gate::Rz(normalize_angle(a + b)))
                            }
                            (Gate::P(a), Gate::P(b)) if prev_qs == qubits => {
                                Some(Gate::P(normalize_angle(a + b)))
                            }
                            (Gate::Cp(a), Gate::Cp(b)) if legacy_same_pair(prev_qs, qubits) => {
                                Some(Gate::Cp(normalize_angle(a + b)))
                            }
                            _ => None,
                        };
                        if let Some(m) = merged {
                            if m.params()[0].abs() < 1e-12 {
                                out[j] = None;
                                for &q in qubits {
                                    last[q] = None;
                                }
                            } else {
                                out[j] = Some(Op::Gate {
                                    gate: m,
                                    qubits: prev_qs.clone(),
                                });
                            }
                            continue;
                        }
                    }
                }
            }
        }
        let idx = out.len();
        let touched: Vec<usize> = match op {
            Op::Gate { qubits, .. } => qubits.clone(),
            Op::Barrier(qs) => qs.clone(),
            Op::Measure { qubit, .. } => vec![*qubit],
        };
        out.push(Some(op.clone()));
        for q in touched {
            last[q] = Some(idx);
        }
    }
    legacy_rebuild(qc, out.into_iter().flatten())
}

/// `cp` is symmetric: control/target order does not matter.
fn legacy_same_pair(a: &[usize], b: &[usize]) -> bool {
    a.len() == 2 && b.len() == 2 && (a == b || (a[0] == b[1] && a[1] == b[0]))
}

/// Fuses maximal runs of single-qubit gates into a minimal resynthesis;
/// identity runs vanish.
fn legacy_fuse_single_qubit_runs(qc: &QuantumCircuit, native: bool) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    let mut pending: Vec<Vec<Gate>> = vec![Vec::new(); qc.num_qubits()];

    let flush = |out: &mut QuantumCircuit, pending: &mut Vec<Vec<Gate>>, q: usize| {
        let run = std::mem::take(&mut pending[q]);
        if run.is_empty() {
            return;
        }
        if run.len() == 1 && !matches!(run[0], Gate::I) {
            out.append(run[0], &[q]);
            return;
        }
        let mut m = CMatrix::identity(2);
        for g in &run {
            m = g.matrix().matmul(&m);
        }
        if m.approx_eq_up_to_phase(&CMatrix::identity(2), 1e-10) {
            return;
        }
        if native {
            for g in decompose_1q_matrix(&m) {
                out.append(g, &[q]);
            }
        } else {
            let a = zyz_decompose(&m);
            out.u(a.theta, a.phi, a.lambda, q);
        }
    };

    for op in qc.instructions() {
        match op {
            Op::Gate { gate, qubits } if qubits.len() == 1 => {
                pending[qubits[0]].push(*gate);
            }
            Op::Gate { gate, qubits } => {
                for &q in qubits {
                    flush(&mut out, &mut pending, q);
                }
                out.append(*gate, qubits);
            }
            Op::Barrier(qs) => {
                for &q in qs {
                    flush(&mut out, &mut pending, q);
                }
                out.barrier(qs);
            }
            Op::Measure { qubit, clbit } => {
                flush(&mut out, &mut pending, *qubit);
                out.measure(*qubit, *clbit);
            }
        }
    }
    for q in 0..qc.num_qubits() {
        flush(&mut out, &mut pending, q);
    }
    out
}

fn legacy_rebuild<I: IntoIterator<Item = Op>>(qc: &QuantumCircuit, ops: I) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    for op in ops {
        match op {
            Op::Gate { gate, qubits } => {
                out.append(gate, &qubits);
            }
            Op::Barrier(qs) => {
                out.barrier(&qs);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(qubit, clbit);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Comparison

const LEVELS: [Level; 4] = [Level::Level0, Level::Level1, Level::Level2, Level::Level3];

/// Op-for-op equality with gate parameters compared by bit pattern.
fn assert_identical(got: &QuantumCircuit, want: &QuantumCircuit, what: &str) {
    assert_eq!(got.name, want.name, "{what}: name");
    assert_eq!(got.num_qubits(), want.num_qubits(), "{what}: width");
    assert_eq!(got.num_clbits(), want.num_clbits(), "{what}: clbits");
    assert_eq!(
        got.size(),
        want.size(),
        "{what}: op count\n{got}\nvs\n{want}"
    );
    for (i, (a, b)) in got.instructions().zip(want.instructions()).enumerate() {
        let same = match (a, b) {
            (
                Op::Gate {
                    gate: ga,
                    qubits: qa,
                },
                Op::Gate {
                    gate: gb,
                    qubits: qb,
                },
            ) => {
                let bits = |g: &Gate| g.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                std::mem::discriminant(ga) == std::mem::discriminant(gb)
                    && bits(ga) == bits(gb)
                    && qa == qb
            }
            _ => a == b,
        };
        assert!(same, "{what}: op {i}: {a:?} vs {b:?}");
    }
}

/// Every level × native setting against the reference.
fn assert_all_levels(qc: &QuantumCircuit, what: &str) {
    for level in LEVELS {
        for native in [true, false] {
            assert_identical(
                &optimize(qc, level, native),
                &legacy_optimize(qc, level, native),
                &format!("{what} {level:?} native={native}"),
            );
        }
    }
}

/// `qc` with splice markers (barriers naming one qubit twice) right after
/// instruction `after`, as the fault injector plants them.
fn marked(qc: &QuantumCircuit, after: usize, qubits: &[usize]) -> QuantumCircuit {
    let mut out = QuantumCircuit::with_name(qc.num_qubits(), qc.num_clbits(), &qc.name);
    for (i, op) in qc.instructions().enumerate() {
        match op {
            Op::Gate { gate, qubits } => {
                out.append(*gate, qubits);
            }
            Op::Barrier(qs) => {
                out.barrier(qs);
            }
            Op::Measure { qubit, clbit } => {
                out.measure(*qubit, *clbit);
            }
        }
        if i == after {
            for &q in qubits {
                out.barrier(&[q, q]);
            }
        }
    }
    out
}

/// Every registry workload × every built-in backend it fits × every
/// injection point, single and double marker: the optimizer's input is
/// the marked circuit after decomposition, dense layout and routing —
/// with (`native`) and without basis translation — exactly what
/// `Transpiler::run` hands it.
#[test]
fn registry_points_match_legacy_on_every_backend() {
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    let mut checked = 0usize;
    for name in workload_names(MAX_REGISTRY_QUBITS) {
        let qc = build_workload(&name).expect("registry name").circuit;
        let n = qc.num_qubits();
        let points: Vec<(usize, usize)> = qc
            .instructions()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Gate { qubits, .. } => Some(qubits.iter().map(move |&q| (i, q))),
                _ => None,
            })
            .flatten()
            .collect();
        for backend in BackendCalibration::builtin_names() {
            let cal = BackendCalibration::named(backend).expect("built-in");
            if n > cal.num_qubits() {
                continue;
            }
            let cm = CouplingMap::from_edges(cal.num_qubits(), cal.coupling());
            let layout = Layout::dense(&cm, n);
            for &(op_index, qubit) in points.iter().step_by(stride) {
                let neighbor = (qubit + 1) % n;
                for sites in [vec![qubit], vec![qubit, neighbor]] {
                    let m = marked(&qc, op_index, &sites);
                    let routed = route_with(
                        &decompose_ccx(&m),
                        &cm,
                        layout.clone(),
                        RoutingStrategy::ShortestPath,
                    )
                    .expect("fits")
                    .circuit;
                    let what = format!("{name}@{backend} point ({op_index}, {qubit}) {sites:?}");
                    assert_all_levels(&translate_to_basis(&routed), &what);
                    for level in LEVELS {
                        assert_identical(
                            &optimize(&routed, level, false),
                            &legacy_optimize(&routed, level, false),
                            &format!("{what} untranslated {level:?}"),
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} marked circuits checked");
}

/// Deterministic splitmix64 stream for the random-circuit generator.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Angles that stress merging: signed zeros, ±π and near-zero values
    /// next to generic ones.
    fn angle(&mut self) -> f64 {
        match self.below(10) {
            0 => 0.0,
            1 => -0.0,
            2 => PI,
            3 => -PI,
            4 => PI / 2.0,
            5 => 1e-13,
            6 => -1e-13,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0 * PI - 2.0 * PI,
        }
    }

    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut qs = Vec::with_capacity(k);
        while qs.len() < k {
            let q = self.below(n);
            if !qs.contains(&q) {
                qs.push(q);
            }
        }
        qs
    }

    fn gate(&mut self, n: usize) -> (Gate, Vec<usize>) {
        let a = self.angle();
        let gate = match self.below(21) {
            0 => Gate::I,
            1 => Gate::H,
            2 => Gate::X,
            3 => Gate::Y,
            4 => Gate::Z,
            5 => Gate::S,
            6 => Gate::Sdg,
            7 => Gate::T,
            8 => Gate::Tdg,
            9 => Gate::Sx,
            10 => Gate::Sxdg,
            11 => Gate::Rx(a),
            12 => Gate::Ry(a),
            13 => Gate::Rz(a),
            14 => Gate::P(a),
            15 => Gate::U(a, self.angle(), self.angle()),
            16 => Gate::Cx,
            17 => Gate::Cz,
            18 => Gate::Cp(a),
            19 => Gate::Swap,
            _ => Gate::Ccx,
        };
        let k = gate.num_qubits();
        if k > n {
            return (Gate::H, vec![self.below(n)]);
        }
        (gate, self.distinct(k, n))
    }
}

/// A random circuit over 1–5 qubits built from gates, barriers, splice
/// markers, measurements, rotation chains and barrier-split inverse pairs.
fn random_circuit(seed: u64) -> QuantumCircuit {
    let mut s = Stream(seed);
    let n = 1 + s.below(5);
    let mut qc = QuantumCircuit::with_name(n, n, "random");
    for _ in 0..s.below(40) {
        match s.below(12) {
            0..=4 => {
                let (g, qs) = s.gate(n);
                qc.append(g, &qs);
            }
            5 => {
                let k = s.below(n + 1);
                let qs = s.distinct(k, n);
                qc.barrier(&qs);
            }
            6 => {
                let q = s.below(n);
                qc.barrier(&[q, q]);
            }
            7 => {
                qc.measure(s.below(n), s.below(n));
            }
            8 => {
                // A rotation chain summing to zero, or wrapping past ±π.
                let (a, b) = (s.angle(), s.angle());
                let q = s.below(n);
                let rz = s.below(2) == 0;
                let close = if s.below(2) == 0 { -a - b } else { PI - a - b };
                for x in [a, b, close] {
                    qc.append(if rz { Gate::Rz(x) } else { Gate::P(x) }, &[q]);
                }
            }
            9 if n >= 2 => {
                // A controlled-phase chain, operand order flipped midway.
                let qs = s.distinct(2, n);
                let (a, b) = (s.angle(), s.angle());
                qc.cp(a, qs[0], qs[1])
                    .cp(b, qs[1], qs[0])
                    .cp(-a - b, qs[0], qs[1]);
            }
            10 => {
                // An inverse pair, sometimes split by a barrier.
                let (g, qs) = s.gate(n);
                qc.append(g, &qs);
                if s.below(2) == 0 {
                    qc.barrier(&qs);
                }
                qc.append(g.inverse(), &qs);
            }
            _ => {
                let (g, qs) = s.gate(n);
                qc.append(g, &qs).append(g, &qs);
            }
        }
    }
    qc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 4096 }))]

    /// Random circuits, every level and native setting, against the
    /// reference passes.
    #[test]
    fn random_circuits_match_legacy(seed in 0u64..u64::MAX) {
        assert_all_levels(&random_circuit(seed), &format!("seed {seed}"));
    }
}

/// The single-pass wrappers against their reference passes.
#[test]
fn single_passes_match_legacy() {
    for seed in 0..512u64 {
        let qc = random_circuit(seed);
        let what = format!("seed {seed}");
        assert_identical(
            &qufi_transpile::optimize::cancel_inverse_pairs(&qc),
            &legacy_cancel_inverse_pairs(&qc),
            &what,
        );
        assert_identical(
            &qufi_transpile::optimize::merge_rotations(&qc),
            &legacy_merge_rotations(&qc),
            &what,
        );
        for native in [true, false] {
            assert_identical(
                &qufi_transpile::optimize::fuse_single_qubit_runs(&qc, native),
                &legacy_fuse_single_qubit_runs(&qc, native),
                &what,
            );
        }
    }
}
