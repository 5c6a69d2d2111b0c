//! Batched (cell-major) state containers for the grid replay engine.
//!
//! A fault-grid sweep replays the same suffix gate sequence over many forked
//! copies of one parked prefix state — one copy per (θ, φ) cell. This module
//! lays `width ≤` [`MAX_BATCH_CELLS`] such copies out as columns of a single
//! split-complex matrix (flat index `amp · width + cell`, real and imaginary
//! parts in separate `f64` buffers) so each suffix gate's index arithmetic is
//! computed once and its arithmetic runs in stride-1 loops *across cells*.
//!
//! **Bit compatibility is the load-bearing invariant**: a cell evolved inside
//! a batch goes through exactly the per-cell operation sequence of the scalar
//! [`Statevector`] / [`DensityMatrix`] engines, minus terms that provably
//! cannot change a bit (see `kernel.rs` on step programs), so extracting any
//! cell's distribution is bit-identical to replaying that cell alone. The engine layer relies on this to keep batched campaign exports
//! byte-identical to the scalar path at any batch width.

use crate::circuit::QuantumCircuit;
use crate::counts::ProbDist;
use crate::density::DensityMatrix;
use crate::gate::Gate;
use crate::kernel::{
    batch_apply_1q_per_cell, batch_apply_matrix_on_bits, batch_apply_program, StepProgram,
};
use crate::statevector::Statevector;
use qufi_math::{CMatrix, Complex};

/// Largest supported batch width (cells per block).
pub const MAX_BATCH_CELLS: usize = crate::kernel::MAX_BATCH_CELLS;

/// The shared cell-major split-complex buffer: `width` states of `1 << m`
/// amplitudes each, amplitude-major × cell-minor.
#[derive(Debug, Clone)]
struct CellBlock {
    re: Vec<f64>,
    im: Vec<f64>,
    width: usize,
}

impl CellBlock {
    fn broadcast(amps: &[Complex], width: usize) -> Self {
        assert!(
            (1..=MAX_BATCH_CELLS).contains(&width),
            "batch width must be 1..={MAX_BATCH_CELLS}"
        );
        let mut re = vec![0.0f64; amps.len() * width];
        let mut im = vec![0.0f64; amps.len() * width];
        for (a, z) in amps.iter().enumerate() {
            re[a * width..(a + 1) * width].fill(z.re);
            im[a * width..(a + 1) * width].fill(z.im);
        }
        CellBlock { re, im, width }
    }

    #[inline]
    fn at(&self, amp: usize, cell: usize) -> (f64, f64) {
        let i = amp * self.width + cell;
        (self.re[i], self.im[i])
    }
}

/// Packs one 2×2 matrix per cell into the element-major split layout the
/// per-cell kernel consumes (entry `e` of cell `c` at `e · width + c`).
fn pack_per_cell_1q(us: &[CMatrix], width: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(us.len(), width, "one matrix per cell");
    let mut u_re = vec![0.0f64; 4 * width];
    let mut u_im = vec![0.0f64; 4 * width];
    for (c, u) in us.iter().enumerate() {
        let s = u.as_slice();
        assert_eq!(s.len(), 4, "per-cell matrices must be 2×2");
        for (e, z) in s.iter().enumerate() {
            u_re[e * width + c] = z.re;
            u_im[e * width + c] = z.im;
        }
    }
    (u_re, u_im)
}

/// `width` forked pure states evolving in lockstep.
#[derive(Debug, Clone)]
pub struct BatchedStatevector {
    block: CellBlock,
    n: usize,
}

impl BatchedStatevector {
    /// Broadcasts one parked state into all `width` cells.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn broadcast(sv: &Statevector, width: usize) -> Self {
        BatchedStatevector {
            block: CellBlock::broadcast(sv.amplitudes(), width),
            n: sv.num_qubits(),
        }
    }

    /// Number of cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.block.width
    }

    /// Register width.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies one shared gate to every cell.
    ///
    /// # Panics
    ///
    /// Panics on operand arity mismatch or out-of-range qubits.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) {
        assert_eq!(qubits.len(), gate.num_qubits(), "operand arity mismatch");
        self.apply_matrix(&gate.matrix(), qubits);
    }

    /// Applies one shared `2^k × 2^k` unitary to every cell.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn apply_matrix(&mut self, u: &CMatrix, qubits: &[usize]) {
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range for width {}", self.n);
        }
        batch_apply_matrix_on_bits(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            u.as_slice(),
            qubits,
            self.n,
            false,
        );
    }

    /// Applies one single-qubit unitary **per cell** (the grid's per-cell
    /// fault injector) on the shared target qubit.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `width` 2×2 matrices are given and the qubit is
    /// in range.
    pub fn apply_matrix_per_cell(&mut self, us: &[CMatrix], qubit: usize) {
        assert!(qubit < self.n, "qubit {qubit} out of range");
        let (u_re, u_im) = pack_per_cell_1q(us, self.block.width);
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            qubit,
            false,
        );
    }

    /// Born-rule probabilities of one cell.
    pub fn probabilities(&self, cell: usize) -> ProbDist {
        ProbDist::from_probs(
            (0..1usize << self.n)
                .map(|a| {
                    let (re, im) = self.block.at(a, cell);
                    re * re + im * im
                })
                .collect(),
            self.n,
        )
    }

    /// One cell's distribution over classical bits (marginalized through the
    /// circuit's measurement map, like the scalar engine).
    pub fn measurement_distribution(&self, cell: usize, qc: &QuantumCircuit) -> ProbDist {
        let map = qc.measurement_map();
        if map.is_empty() {
            return self.probabilities(cell);
        }
        self.probabilities(cell).marginalize(&map, qc.num_clbits())
    }
}

/// `width` forked mixed states evolving in lockstep. ρ (row-major) is
/// treated exactly as the scalar engine treats it: a statevector over `2n`
/// flat bits, row bit `q` at flat bit `n + q`, column bit `q` at flat bit
/// `q`.
#[derive(Debug, Clone)]
pub struct BatchedDensity {
    block: CellBlock,
    n: usize,
    dim: usize,
}

impl BatchedDensity {
    /// Broadcasts one parked density matrix into all `width` cells.
    ///
    /// # Panics
    ///
    /// Panics when `width` is 0 or exceeds [`MAX_BATCH_CELLS`].
    pub fn broadcast(rho: &DensityMatrix, width: usize) -> Self {
        BatchedDensity {
            block: CellBlock::broadcast(rho.raw(), width),
            n: rho.num_qubits(),
            dim: rho.dim(),
        }
    }

    /// Number of cells.
    #[inline]
    pub fn width(&self) -> usize {
        self.block.width
    }

    /// Register width.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies one single-qubit unitary **per cell** (the grid's per-cell
    /// fault injector) on the shared target qubit.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `width` 2×2 matrices are given and the qubit is
    /// in range.
    pub fn apply_unitary_per_cell(&mut self, us: &[CMatrix], qubit: usize) {
        assert!(qubit < self.n, "qubit {qubit} out of range");
        let (u_re, u_im) = pack_per_cell_1q(us, self.block.width);
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            self.n + qubit,
            false,
        );
        batch_apply_1q_per_cell(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            &u_re,
            &u_im,
            qubit,
            true,
        );
    }

    /// Runs one compiled [`StepProgram`] — a noisy gate step or an
    /// injector's channels — on every cell: each cell goes through exactly
    /// the dense op sequence the program was compiled from, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled for a different register width.
    pub fn apply_program(&mut self, program: &StepProgram) {
        assert_eq!(
            program.flat_bits(),
            2 * self.n,
            "program compiled for another register width"
        );
        batch_apply_program(
            &mut self.block.re,
            &mut self.block.im,
            self.block.width,
            program,
        );
    }

    /// Entry `(i, j)` of one cell's ρ.
    pub fn entry(&self, cell: usize, i: usize, j: usize) -> Complex {
        let (re, im) = self.block.at(i * self.dim + j, cell);
        Complex::new(re, im)
    }

    /// Born-rule probabilities of one cell: the diagonal of that cell's ρ.
    pub fn probabilities(&self, cell: usize) -> ProbDist {
        ProbDist::from_probs(
            (0..self.dim)
                .map(|i| self.block.at(i * self.dim + i, cell).0)
                .collect(),
            self.n,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_dist_bitwise(a: &ProbDist, b: &ProbDist, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for i in 0..a.len() {
            assert_eq!(
                a.prob(i).to_bits(),
                b.prob(i).to_bits(),
                "{what}: index {i}: {} vs {}",
                a.prob(i),
                b.prob(i)
            );
        }
    }

    fn suffix_circuit() -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(3, 3);
        qc.h(0).cx(0, 1).t(1).ry(0.7, 2).cx(1, 2).h(0);
        qc.measure(0, 0).measure(1, 1).measure(2, 2);
        qc
    }

    #[test]
    fn batched_statevector_cells_match_scalar_bitwise() {
        let mut prep = QuantumCircuit::new(3, 0);
        prep.h(0).cx(0, 1).ry(0.4, 2);
        let parked = Statevector::from_circuit(&prep).unwrap();
        let suffix = suffix_circuit();
        for width in [1usize, 3, 8] {
            let injectors: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.2 + 0.3 * c as f64, 0.1 * c as f64, 0.0))
                .collect();
            let mut batch = BatchedStatevector::broadcast(&parked, width);
            batch.apply_matrix_per_cell(&injectors, 1);
            for op in suffix.instructions() {
                if let crate::circuit::Op::Gate { gate, qubits } = op {
                    batch.apply_gate(*gate, qubits);
                }
            }
            for (c, u) in injectors.iter().enumerate() {
                let mut sv = parked.clone();
                sv.apply_matrix(u, &[1]);
                for op in suffix.instructions() {
                    if let crate::circuit::Op::Gate { gate, qubits } = op {
                        sv.apply_gate(*gate, qubits);
                    }
                }
                assert_dist_bitwise(
                    &batch.measurement_distribution(c, &suffix),
                    &sv.measurement_distribution(&suffix),
                    &format!("sv width={width} cell={c}"),
                );
            }
        }
    }

    #[test]
    fn batched_density_cells_match_scalar_bitwise() {
        let mut prep = QuantumCircuit::new(2, 0);
        prep.h(0).cx(0, 1);
        let mut parked = DensityMatrix::new(2).unwrap();
        parked.run_circuit(&prep);
        // A non-trivial channel: amplitude damping as a superoperator.
        let g: f64 = 0.3;
        let kraus = vec![
            CMatrix::from_2x2(
                Complex::ONE,
                Complex::ZERO,
                Complex::ZERO,
                Complex::real((1.0 - g).sqrt()),
            ),
            CMatrix::from_2x2(
                Complex::ZERO,
                Complex::real(g.sqrt()),
                Complex::ZERO,
                Complex::ZERO,
            ),
        ];
        let mut sup = CMatrix::zeros(4, 4);
        for k in &kraus {
            for a in 0..2 {
                for b in 0..2 {
                    for c in 0..2 {
                        for d in 0..2 {
                            sup[(a * 2 + b, c * 2 + d)] += k[(a, c)] * k[(b, d)].conj();
                        }
                    }
                }
            }
        }
        for width in [1usize, 5, MAX_BATCH_CELLS] {
            let injectors: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.25 * c as f64, 0.4, 0.0))
                .collect();
            let mut batch = BatchedDensity::broadcast(&parked, width);
            batch.apply_unitary_per_cell(&injectors, 0);
            batch.apply_program(&StepProgram::density(2, None, &[(sup.clone(), vec![0])]));
            batch.apply_program(&StepProgram::density(
                2,
                Some((&CMatrix::cnot(), &[0, 1])),
                &[(sup.clone(), vec![1])],
            ));
            for (c, u) in injectors.iter().enumerate() {
                let mut rho = parked.clone();
                rho.apply_unitary(u, &[0]);
                rho.apply_superoperator(&sup, &[0]);
                rho.apply_unitary(&CMatrix::cnot(), &[0, 1]);
                rho.apply_superoperator(&sup, &[1]);
                assert_dist_bitwise(
                    &batch.probabilities(c),
                    &rho.probabilities(),
                    &format!("rho width={width} cell={c}"),
                );
            }
        }
    }
}
