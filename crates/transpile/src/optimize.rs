//! Peephole optimization passes.
//!
//! Three passes mirror the workhorses of Qiskit's higher optimization
//! levels: inverse-pair cancellation (`H·H`, `CX·CX`, `T·T†` …), rotation
//! merging (`RZ(a)·RZ(b) → RZ(a+b)`), and single-qubit-run fusion (multiply
//! the run's matrices, drop it when the product is the identity, otherwise
//! resynthesize a minimal sequence).
//!
//! # Compact ops
//!
//! Every pass runs on [`CompactOp`]s, a `Copy` form of [`Op`]: a gate with
//! its (at most three) operands inline, a measurement, or a barrier stored
//! as an index into a side table of the source circuit's barrier operand
//! lists. [`optimize`] converts a circuit into this form once, runs the
//! whole level's pipeline on plain `Vec<CompactOp>`s, and converts back
//! once — no pass allocates per op or rebuilds a circuit. The result is
//! exactly that of running each pass over [`QuantumCircuit`]s:
//!
//! * Passes keep barriers in order and never drop one, so two op lists
//!   that compare equal position by position hold the same barrier at each
//!   position, and comparing barrier indices equals comparing operand lists.
//! * Cancellation only removes ops, so "removed something" is the same test
//!   as "the circuit changed" for its fixpoint loop. The Level-3 round
//!   compares op lists with the derived `PartialEq`, i.e. the exact `f64 ==`
//!   semantics of comparing circuits.
//! * Parameters are compared through [`Gate::params_array`] and run fusion
//!   multiplies [`Gate::matrix_1q`] arrays with the loop of
//!   [`CMatrix::matmul`] (i, k, j order, zero left factors skipped,
//!   accumulated from zero), so every parameter and product is bit-identical
//!   to the `Vec`/[`CMatrix`] arithmetic.

use crate::basis::decompose_1q_matrix;
use qufi_math::mat2::{self, Mat2};
use qufi_math::{decompose::normalize_angle, zyz_decompose, CMatrix, Complex};
use qufi_sim::circuit::Op;
use qufi_sim::{Gate, QuantumCircuit};

/// How hard the optimizer works; matches Qiskit's levels in spirit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Level {
    /// No optimization.
    Level0,
    /// Inverse-pair cancellation and rotation merging.
    Level1,
    /// Level 1 plus one round of single-qubit-run fusion.
    Level2,
    /// All passes iterated to a fixpoint (the paper's setting).
    #[default]
    Level3,
}

/// Pass-iteration cap of every fixpoint loop.
const MAX_ROUNDS: usize = 10;

/// Runs the optimization pipeline at the given level. `native` controls
/// whether fused runs are resynthesized into `{rz, sx}` (true) or a single
/// `U` gate (false).
pub fn optimize(qc: &QuantumCircuit, level: Level, native: bool) -> QuantumCircuit {
    let c = Compact::new(qc);
    let ops = match level {
        Level::Level0 => return qc.clone(),
        Level::Level1 => c.merge(&c.cancel_to_fixpoint(c.ops.clone())),
        Level::Level2 => {
            let ops = c.merge(&c.cancel_to_fixpoint(c.ops.clone()));
            c.cancel_to_fixpoint(c.fuse(&ops, native))
        }
        Level::Level3 => {
            let mut cur = c.ops.clone();
            for _ in 0..MAX_ROUNDS {
                let next = c.fuse(&c.merge(&c.cancel_to_fixpoint(cur.clone())), native);
                if next == cur {
                    break;
                }
                cur = next;
            }
            cur
        }
    };
    c.to_circuit(&ops)
}

/// Removes adjacent gate pairs `G · G⁻¹` acting on identical operand lists.
pub fn cancel_inverse_pairs(qc: &QuantumCircuit) -> QuantumCircuit {
    let c = Compact::new(qc);
    c.to_circuit(&c.cancel(&c.ops).0)
}

/// Merges adjacent `rz`/`p` rotations on the same qubit and `cp` rotations on
/// the same ordered pair; zero-angle results are dropped.
pub fn merge_rotations(qc: &QuantumCircuit) -> QuantumCircuit {
    let c = Compact::new(qc);
    c.to_circuit(&c.merge(&c.ops))
}

/// Fuses maximal runs of single-qubit gates into a minimal resynthesis;
/// identity runs vanish.
pub fn fuse_single_qubit_runs(qc: &QuantumCircuit, native: bool) -> QuantumCircuit {
    let c = Compact::new(qc);
    c.to_circuit(&c.fuse(&c.ops, native))
}

/// A gate's operand list, inline. Unused slots hold zero, so the derived
/// equality is operand-list equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Operands {
    qubits: [usize; 3],
    len: u8,
}

impl Operands {
    fn new(qubits: &[usize]) -> Self {
        let mut inline = [0usize; 3];
        inline[..qubits.len()].copy_from_slice(qubits);
        Operands {
            qubits: inline,
            len: qubits.len() as u8,
        }
    }

    fn as_slice(&self) -> &[usize] {
        &self.qubits[..self.len as usize]
    }
}

/// One instruction in the optimizer's copyable form.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompactOp {
    Gate {
        gate: Gate,
        qubits: Operands,
    },
    /// Index into [`Compact::barriers`].
    Barrier(usize),
    Measure {
        qubit: usize,
        clbit: usize,
    },
}

/// A circuit in compact form, and the passes over it: the source circuit's
/// ops, plus the barrier side table, which borrows the source's operand
/// lists.
struct Compact<'a> {
    source: &'a QuantumCircuit,
    ops: Vec<CompactOp>,
    barriers: Vec<&'a [usize]>,
}

impl<'a> Compact<'a> {
    fn new(source: &'a QuantumCircuit) -> Self {
        let mut barriers = Vec::new();
        let ops = source
            .instructions()
            .map(|op| match op {
                Op::Gate { gate, qubits } => CompactOp::Gate {
                    gate: *gate,
                    qubits: Operands::new(qubits),
                },
                Op::Barrier(qs) => {
                    barriers.push(&qs[..]);
                    CompactOp::Barrier(barriers.len() - 1)
                }
                Op::Measure { qubit, clbit } => CompactOp::Measure {
                    qubit: *qubit,
                    clbit: *clbit,
                },
            })
            .collect();
        Compact {
            source,
            ops,
            barriers,
        }
    }

    /// Rebuilds a circuit with the source's width, clbits and name.
    fn to_circuit(&self, ops: &[CompactOp]) -> QuantumCircuit {
        let src = self.source;
        let mut out = QuantumCircuit::with_name(src.num_qubits(), src.num_clbits(), &src.name);
        for op in ops {
            match *op {
                CompactOp::Gate { gate, qubits } => {
                    out.append(gate, qubits.as_slice());
                }
                CompactOp::Barrier(i) => {
                    out.barrier(self.barriers[i]);
                }
                CompactOp::Measure { qubit, clbit } => {
                    out.measure(qubit, clbit);
                }
            }
        }
        out
    }

    /// The qubits an op occupies.
    fn qubits_of<'s>(&'s self, op: &'s CompactOp) -> &'s [usize] {
        match op {
            CompactOp::Gate { qubits, .. } => qubits.as_slice(),
            CompactOp::Barrier(i) => self.barriers[*i],
            CompactOp::Measure { qubit, .. } => std::slice::from_ref(qubit),
        }
    }

    /// Cancellation passes until one removes nothing (at most
    /// [`MAX_ROUNDS`]).
    fn cancel_to_fixpoint(&self, mut ops: Vec<CompactOp>) -> Vec<CompactOp> {
        for _ in 0..MAX_ROUNDS {
            let (next, removed) = self.cancel(&ops);
            if !removed {
                break;
            }
            ops = next;
        }
        ops
    }

    /// One inverse-pair cancellation pass; `true` when it removed a pair.
    fn cancel(&self, ops: &[CompactOp]) -> (Vec<CompactOp>, bool) {
        let mut out: Vec<Option<CompactOp>> = Vec::with_capacity(ops.len());
        // last[q] = index in `out` of the most recent op touching qubit q.
        let mut last: Vec<Option<usize>> = vec![None; self.source.num_qubits()];
        let mut removed = false;
        for op in ops {
            if let CompactOp::Gate { gate, qubits } = *op {
                // Candidate for cancellation: all operands point at the
                // same previous instruction, which is our inverse on the
                // same operand list.
                if let Some((j, prev, prev_qs)) = previous_gate(&out, &last, qubits) {
                    let inv = gate.inverse();
                    if prev_qs == qubits
                        && std::mem::discriminant(&prev) == std::mem::discriminant(&inv)
                        && params_match(prev, inv)
                    {
                        out[j] = None;
                        for &q in qubits.as_slice() {
                            last[q] = None;
                        }
                        removed = true;
                        continue;
                    }
                }
            }
            let idx = out.len();
            out.push(Some(*op));
            for &q in self.qubits_of(op) {
                last[q] = Some(idx);
            }
        }
        (out.into_iter().flatten().collect(), removed)
    }

    /// One rotation-merging pass.
    fn merge(&self, ops: &[CompactOp]) -> Vec<CompactOp> {
        let mut out: Vec<Option<CompactOp>> = Vec::with_capacity(ops.len());
        let mut last: Vec<Option<usize>> = vec![None; self.source.num_qubits()];
        for op in ops {
            if let CompactOp::Gate { gate, qubits } = *op {
                let merged = previous_gate(&out, &last, qubits).and_then(|(j, prev, prev_qs)| {
                    merged_rotation(prev, prev_qs, gate, qubits).map(|m| (j, prev_qs, m))
                });
                if let Some((j, prev_qs, m)) = merged {
                    if m.params_array().0[0].abs() < 1e-12 {
                        out[j] = None;
                        for &q in qubits.as_slice() {
                            last[q] = None;
                        }
                    } else {
                        out[j] = Some(CompactOp::Gate {
                            gate: m,
                            qubits: prev_qs,
                        });
                    }
                    continue;
                }
            }
            let idx = out.len();
            out.push(Some(*op));
            for &q in self.qubits_of(op) {
                last[q] = Some(idx);
            }
        }
        out.into_iter().flatten().collect()
    }

    /// One single-qubit-run fusion pass.
    fn fuse(&self, ops: &[CompactOp], native: bool) -> Vec<CompactOp> {
        let mut out = Vec::with_capacity(ops.len());
        let mut runs = vec![Run::EMPTY; self.source.num_qubits()];
        let identity = CMatrix::identity(2);
        let flush = |out: &mut Vec<CompactOp>, runs: &mut [Run], q: usize| {
            let run = std::mem::replace(&mut runs[q], Run::EMPTY);
            let gate_on_q = |gate| CompactOp::Gate {
                gate,
                qubits: Operands::new(&[q]),
            };
            match run.len {
                0 => return,
                // A lone identity multiplies out to the identity and
                // vanishes below; any other lone gate is kept as is.
                1 if !matches!(run.first, Gate::I) => {
                    out.push(gate_on_q(run.first));
                    return;
                }
                _ => {}
            }
            let m = CMatrix::from_vec(2, 2, run.product.to_vec());
            if m.approx_eq_up_to_phase(&identity, 1e-10) {
                return;
            }
            if native {
                out.extend(decompose_1q_matrix(&m).into_iter().map(gate_on_q));
            } else {
                let a = zyz_decompose(&m);
                out.push(gate_on_q(Gate::U(a.theta, a.phi, a.lambda)));
            }
        };
        for op in ops {
            match *op {
                CompactOp::Gate { gate, qubits } if qubits.len == 1 => {
                    runs[qubits.qubits[0]].push(gate);
                    continue;
                }
                CompactOp::Gate { qubits, .. } => {
                    for &q in qubits.as_slice() {
                        flush(&mut out, &mut runs, q);
                    }
                }
                CompactOp::Barrier(i) => {
                    for &q in self.barriers[i] {
                        flush(&mut out, &mut runs, q);
                    }
                }
                CompactOp::Measure { qubit, .. } => flush(&mut out, &mut runs, qubit),
            }
            out.push(*op);
        }
        for q in 0..runs.len() {
            flush(&mut out, &mut runs, q);
        }
        out
    }
}

/// The gate every operand's `last` entry points at, when they all point
/// at the same one: its index in `out`, the gate and its operands.
fn previous_gate(
    out: &[Option<CompactOp>],
    last: &[Option<usize>],
    qubits: Operands,
) -> Option<(usize, Gate, Operands)> {
    let qs = qubits.as_slice();
    let j = last[qs[0]]?;
    if !qs.iter().all(|&q| last[q] == Some(j)) {
        return None;
    }
    match out[j] {
        Some(CompactOp::Gate { gate, qubits }) => Some((j, gate, qubits)),
        _ => None,
    }
}

/// `prev` followed by `gate` as one rotation, when the two merge.
fn merged_rotation(prev: Gate, prev_qs: Operands, gate: Gate, qubits: Operands) -> Option<Gate> {
    match (prev, gate) {
        (Gate::Rz(a), Gate::Rz(b)) if prev_qs == qubits => Some(Gate::Rz(normalize_angle(a + b))),
        (Gate::P(a), Gate::P(b)) if prev_qs == qubits => Some(Gate::P(normalize_angle(a + b))),
        (Gate::Cp(a), Gate::Cp(b)) if same_pair(prev_qs.as_slice(), qubits.as_slice()) => {
            Some(Gate::Cp(normalize_angle(a + b)))
        }
        _ => None,
    }
}

fn params_match(a: Gate, b: Gate) -> bool {
    let ((pa, na), (pb, nb)) = (a.params_array(), b.params_array());
    na == nb
        && pa[..na]
            .iter()
            .zip(&pb[..nb])
            .all(|(x, y)| (x - y).abs() < 1e-12)
}

/// `cp` is symmetric: control/target order does not matter.
fn same_pair(a: &[usize], b: &[usize]) -> bool {
    a.len() == 2 && b.len() == 2 && (a == b || (a[0] == b[1] && a[1] == b[0]))
}

/// A pending run of single-qubit gates on one qubit: its first gate and,
/// from the second gate on, the running product `Gₖ·…·G₁·I` — exactly the
/// product of the `CMatrix` fold `m = g.matrix().matmul(&m)` from the
/// identity.
#[derive(Clone, Copy)]
struct Run {
    len: usize,
    first: Gate,
    product: Mat2,
}

impl Run {
    const EMPTY: Run = Run {
        len: 0,
        first: Gate::I,
        product: mat2::IDENTITY,
    };

    fn push(&mut self, gate: Gate) {
        if self.len == 0 {
            self.first = gate;
        } else {
            if self.len == 1 {
                self.product = matmul_2x2(&matrix_of(self.first), &mat2::IDENTITY);
            }
            self.product = matmul_2x2(&matrix_of(gate), &self.product);
        }
        self.len += 1;
    }
}

fn matrix_of(gate: Gate) -> Mat2 {
    gate.matrix_1q()
        .unwrap_or_else(|| panic!("{gate} on one operand"))
}

/// `a · b` for row-major 2×2 matrices, with exactly the loop of
/// [`CMatrix::matmul`]: i, k, j order, zero left factors skipped, each
/// output accumulated from zero.
fn matmul_2x2(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [Complex::ZERO; 4];
    for i in 0..2 {
        for k in 0..2 {
            let x = a[i * 2 + k];
            if x == Complex::ZERO {
                continue;
            }
            for j in 0..2 {
                out[i * 2 + j] += x * b[k * 2 + j];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_sim::Statevector;

    fn equivalent(a: &QuantumCircuit, b: &QuantumCircuit) -> bool {
        let pa = Statevector::from_circuit(a).unwrap().probabilities();
        let pb = Statevector::from_circuit(b).unwrap().probabilities();
        pa.tv_distance(&pb) < 1e-9
    }

    fn run_to_fixpoint(
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

    #[test]
    fn hh_cancels() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).h(0);
        let opt = cancel_inverse_pairs(&qc);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn cx_pair_cancels_only_with_same_orientation() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.cx(0, 1).cx(0, 1);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);

        let mut qc2 = QuantumCircuit::new(2, 0);
        qc2.cx(0, 1).cx(1, 0);
        assert_eq!(cancel_inverse_pairs(&qc2).gate_count(), 2);
    }

    #[test]
    fn t_tdg_cancels() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.t(0).tdg(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);
    }

    #[test]
    fn rz_pair_cancels_only_when_opposite() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.rz(0.7, 0).rz(-0.7, 0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 0);
        let mut qc2 = QuantumCircuit::new(1, 0);
        qc2.rz(0.7, 0).rz(0.6, 0);
        assert_eq!(cancel_inverse_pairs(&qc2).gate_count(), 2);
    }

    #[test]
    fn intervening_gate_blocks_cancellation() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1).h(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 3);
    }

    #[test]
    fn barrier_blocks_cancellation() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).barrier(&[0]).h(0);
        assert_eq!(cancel_inverse_pairs(&qc).gate_count(), 2);
    }

    #[test]
    fn nested_pairs_cancel_across_iterations() {
        // X H H X -> X X -> nothing (needs two passes).
        let mut qc = QuantumCircuit::new(1, 0);
        qc.x(0).h(0).h(0).x(0);
        let opt = run_to_fixpoint(&qc, cancel_inverse_pairs, 10);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn rotations_merge_and_vanish() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0);
        let opt = merge_rotations(&qc);
        assert_eq!(opt.gate_count(), 0);
    }

    #[test]
    fn cp_merges_regardless_of_operand_order() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.cp(0.5, 0, 1).cp(0.25, 1, 0);
        let opt = merge_rotations(&qc);
        assert_eq!(opt.gate_count(), 1);
        assert!(equivalent(&qc, &opt));
    }

    #[test]
    fn fuse_collapses_runs() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).t(0).h(0).s(0).h(0);
        let fused = fuse_single_qubit_runs(&qc, false);
        assert_eq!(fused.gate_count(), 1);
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn fuse_native_emits_only_native() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).t(0).sdg(0);
        let fused = fuse_single_qubit_runs(&qc, true);
        for op in fused.instructions() {
            if let Op::Gate { gate, .. } = op {
                assert!(crate::basis::is_native(*gate));
            }
        }
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn fuse_respects_two_qubit_boundaries() {
        let mut qc = QuantumCircuit::new(2, 0);
        qc.h(0).cx(0, 1).h(0);
        let fused = fuse_single_qubit_runs(&qc, false);
        assert_eq!(fused.gate_count(), 3);
        assert!(equivalent(&qc, &fused));
    }

    #[test]
    fn level3_shrinks_redundant_circuit() {
        let mut qc = QuantumCircuit::new(2, 2);
        qc.h(0)
            .h(0)
            .t(1)
            .tdg(1)
            .cx(0, 1)
            .cx(0, 1)
            .rz(0.4, 0)
            .rz(-0.4, 0)
            .h(1)
            .s(1)
            .sdg(1)
            .h(1)
            .measure_all();
        let opt = optimize(&qc, Level::Level3, false);
        assert_eq!(opt.gate_count(), 0, "{opt}");
    }

    #[test]
    fn level0_is_identity_transform() {
        let mut qc = QuantumCircuit::new(1, 0);
        qc.h(0).h(0);
        assert_eq!(optimize(&qc, Level::Level0, false), qc);
    }

    #[test]
    fn optimization_preserves_semantics_on_random_circuit() {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0)
            .cx(0, 1)
            .t(1)
            .t(1)
            .h(2)
            .h(2)
            .cp(0.9, 1, 2)
            .rz(1.1, 0)
            .rz(0.2, 0)
            .cx(1, 2)
            .y(2)
            .measure_all();
        for level in [Level::Level1, Level::Level2, Level::Level3] {
            let opt = optimize(&qc, level, false);
            let a = Statevector::from_circuit(&qc)
                .unwrap()
                .measurement_distribution(&qc);
            let b = Statevector::from_circuit(&opt)
                .unwrap()
                .measurement_distribution(&opt);
            assert!(a.tv_distance(&b) < 1e-9, "level {level:?} broke circuit");
            assert!(opt.gate_count() <= qc.gate_count());
        }
    }
}
