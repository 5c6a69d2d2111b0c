//! Kernel-vs-dense-oracle property tests.
//!
//! The in-place index-arithmetic kernels (`crates/sim/src/kernel.rs`) are
//! the arithmetic underneath every statevector gate, density-matrix
//! unitary, Kraus channel, and channel superoperator in the stack. These
//! tests pin them against an *independent* dense oracle: the operator is
//! embedded entry-by-entry into the full `2^n × 2^n` matrix and applied by
//! plain matrix multiplication (`qufi_math::CMatrix`), with no shared index
//! arithmetic. Random circuits and channels must agree with the oracle to
//! `< 1e-12` per application, and unitary application must be **bitwise**
//! invariant under kernel dispatch: padding a gate with an identity operand
//! (which reroutes it through the wider specialized/generic kernel paths)
//! must not change a single bit of the state. Fused, zero-skipping step
//! programs (the batched density replay) must be **bitwise** equal to the
//! dense scalar unitary + superoperator sequence they were compiled from,
//! and the zero-skipping scalar generic kernel (3- and 4-operand matrices)
//! must be **bitwise** equal to the dense loop it replaced, kept here as a
//! reference.

use proptest::prelude::*;
use qufi_math::{CMatrix, Complex};
use qufi_sim::{
    BatchedDensity, DensityMatrix, EvolutionWorkspace, Gate, Statevector, StepProgram,
    MAX_BATCH_CELLS,
};

/// Embeds a `2^k × 2^k` operator over `qubits` of an `n`-qubit register
/// into the full `2^n × 2^n` matrix, entry by entry. Matches the kernel's
/// operand convention (first operand = most significant matrix bit) but
/// shares none of its index arithmetic.
fn embed(u: &CMatrix, qubits: &[usize], n: usize) -> CMatrix {
    let k = qubits.len();
    let dim = 1usize << n;
    let sub = |i: usize| -> usize {
        let mut m = 0usize;
        for (t, &q) in qubits.iter().enumerate() {
            m |= ((i >> q) & 1) << (k - 1 - t);
        }
        m
    };
    let rest_mask = {
        let mut mask = dim - 1;
        for &q in qubits {
            mask &= !(1usize << q);
        }
        mask
    };
    let mut full = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            if i & rest_mask == j & rest_mask {
                full[(i, j)] = u[(sub(i), sub(j))];
            }
        }
    }
    full
}

/// The density matrix as a dense `CMatrix` (oracle side).
fn to_matrix(rho: &DensityMatrix) -> CMatrix {
    let dim = rho.dim();
    let mut m = CMatrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            m[(i, j)] = rho.entry(i, j);
        }
    }
    m
}

fn max_entry_diff(rho: &DensityMatrix, oracle: &CMatrix) -> f64 {
    let dim = rho.dim();
    let mut worst: f64 = 0.0;
    for i in 0..dim {
        for j in 0..dim {
            let d = rho.entry(i, j) - oracle[(i, j)];
            worst = worst.max(d.norm());
        }
    }
    worst
}

fn assert_bitwise_state(a: &Statevector, b: &Statevector, what: &str) {
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: amplitude {i}: {x:?} vs {y:?}"
        );
    }
}

fn assert_bitwise_density(a: &DensityMatrix, b: &DensityMatrix, what: &str) {
    for i in 0..a.dim() {
        for j in 0..a.dim() {
            let (x, y) = (a.entry(i, j), b.entry(i, j));
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: entry ({i},{j}): {x:?} vs {y:?}"
            );
        }
    }
}

/// A random gate over `n` qubits, as (matrix, operands).
fn arb_gate(n: usize) -> impl Strategy<Value = (CMatrix, Vec<usize>)> {
    let q = 0..n;
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    prop_oneof![
        (angle.clone(), angle.clone(), angle.clone(), q.clone())
            .prop_map(|(t, p, l, a)| (CMatrix::u_gate(t, p, l), vec![a])),
        q.clone().prop_map(|a| (CMatrix::hadamard(), vec![a])),
        (q.clone(), q.clone())
            .prop_filter("distinct", |(a, b)| a != b)
            .prop_map(|(a, b)| (CMatrix::cnot(), vec![a, b])),
        (angle.clone(), angle.clone(), q.clone(), q)
            .prop_filter("distinct", |(_, _, a, b)| a != b)
            .prop_map(|(t, p, a, b)| {
                // An entangling random 2q unitary: CX · (U(t,p,0) ⊗ U(p,t,0)).
                let u = CMatrix::cnot()
                    .matmul(&CMatrix::u_gate(t, p, 0.0).kron(&CMatrix::u_gate(p, t, 0.0)));
                (u, vec![a, b])
            }),
    ]
}

/// A random CPTP channel `{√(1-p)·I, √p·V}` with V unitary over k qubits,
/// as its Kraus operators.
fn arb_channel(n: usize) -> impl Strategy<Value = (Vec<CMatrix>, Vec<usize>)> {
    let p = 0.05f64..0.95;
    let angle = -std::f64::consts::PI..std::f64::consts::PI;
    prop_oneof![
        (p.clone(), angle.clone(), angle.clone(), 0..n).prop_map(|(p, t, l, q)| {
            let v = CMatrix::u_gate(t, l, 0.0);
            (
                vec![
                    CMatrix::identity(2).scale_real((1.0 - p).sqrt()),
                    v.scale_real(p.sqrt()),
                ],
                vec![q],
            )
        }),
        (p, angle.clone(), angle, 0..n, 0..n)
            .prop_filter("distinct", |(_, _, _, a, b)| a != b)
            .prop_map(|(p, t, l, a, b)| {
                let v = CMatrix::cnot()
                    .matmul(&CMatrix::u_gate(t, l, 0.0).kron(&CMatrix::u_gate(l, t, 0.0)));
                (
                    vec![
                        CMatrix::identity(4).scale_real((1.0 - p).sqrt()),
                        v.scale_real(p.sqrt()),
                    ],
                    vec![a, b],
                )
            }),
    ]
}

/// The channel superoperator `S[(a,b),(c,d)] = Σₖ Kₖ[a,c]·K̄ₖ[b,d]`, built
/// densely from the Kraus set (oracle-side construction).
fn superop_of(kraus: &[CMatrix]) -> CMatrix {
    let d = kraus[0].rows();
    let mut s = CMatrix::zeros(d * d, d * d);
    for k in kraus {
        for a in 0..d {
            for b in 0..d {
                for c in 0..d {
                    for e in 0..d {
                        s[(a * d + b, c * d + e)] += k[(a, c)] * k[(b, e)].conj();
                    }
                }
            }
        }
    }
    s
}

const N: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Statevector kernels vs dense matvec: every gate of a random circuit
    /// agrees with the embedded full-matrix product to < 1e-12.
    #[test]
    fn statevector_gates_match_dense_matvec(gates in prop::collection::vec(arb_gate(N), 1..12)) {
        let mut sv = Statevector::new(N).expect("fits");
        // Leave |0…0⟩ with a couple of fixed gates so later gates act on a
        // non-trivial state.
        sv.apply_gate(Gate::H, &[0]);
        sv.apply_gate(Gate::Cx, &[0, 1]);
        for (u, qs) in gates {
            let before: Vec<Complex> = sv.amplitudes().to_vec();
            sv.apply_matrix(&u, &qs);
            let oracle = embed(&u, &qs, N).matvec(&before);
            for (i, (got, want)) in sv.amplitudes().iter().zip(&oracle).enumerate() {
                let d = *got - *want;
                prop_assert!(d.norm() < 1e-12, "amplitude {i}: {got:?} vs {want:?}");
            }
        }
    }

    /// Density-matrix unitary kernels vs dense `UρU†`, plus the per-gate
    /// distribution distance the sweep engine's guarantees quote.
    #[test]
    fn density_unitaries_match_dense_matmul(gates in prop::collection::vec(arb_gate(N), 1..10)) {
        let mut rho = DensityMatrix::new(N).expect("fits");
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_gate(Gate::Cx, &[0, 1]);
        for (u, qs) in gates {
            let full = embed(&u, &qs, N);
            let oracle = full.matmul(&to_matrix(&rho)).matmul(&full.adjoint());
            rho.apply_unitary(&u, &qs);
            prop_assert!(max_entry_diff(&rho, &oracle) < 1e-12);
            // tv distance of the Born distributions: a strictly weaker view
            // of the same bound, stated because it is what replay
            // equivalence is measured in.
            let mut dense = Vec::with_capacity(rho.dim());
            for i in 0..rho.dim() {
                dense.push(oracle[(i, i)].re);
            }
            let tv: f64 = rho
                .probabilities()
                .probs()
                .iter()
                .zip(&dense)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            prop_assert!(tv < 1e-12, "per-gate tv {tv}");
        }
    }

    /// Unitary application is **bitwise** invariant under kernel dispatch:
    /// padding the operand list with an identity qubit reroutes a 1q gate
    /// through the 2q kernel and a 2q gate through the generic kernel, and
    /// must not change one bit of the state.
    #[test]
    fn padded_dispatch_is_bitwise_identical(
        gates in prop::collection::vec(arb_gate(N), 1..10),
        pad_seed in 0usize..1024,
    ) {
        let mut sv = Statevector::new(N).expect("fits");
        let mut sv_padded = Statevector::new(N).expect("fits");
        let mut rho = DensityMatrix::new(N).expect("fits");
        let mut rho_padded = DensityMatrix::new(N).expect("fits");
        for (i, (u, qs)) in gates.iter().enumerate() {
            let pad = (0..N)
                .find(|q| (q + pad_seed + i) % N == 0 && !qs.contains(q))
                .or_else(|| (0..N).find(|q| !qs.contains(q)))
                .expect("a free qubit exists");
            let padded_u = CMatrix::identity(2).kron(u);
            let mut padded_qs = vec![pad];
            padded_qs.extend_from_slice(qs);

            sv.apply_matrix(u, qs);
            sv_padded.apply_matrix(&padded_u, &padded_qs);
            assert_bitwise_state(&sv, &sv_padded, "statevector dispatch");

            rho.apply_unitary(u, qs);
            rho_padded.apply_unitary(&padded_u, &padded_qs);
            assert_bitwise_density(&rho, &rho_padded, "density dispatch");
        }
    }

    /// Kraus kernels vs dense `Σₖ KₖρKₖ†`, the superoperator path against
    /// both, and workspace reuse against fresh workspaces (bitwise).
    #[test]
    fn channels_match_dense_oracle(channels in prop::collection::vec(arb_channel(N), 1..6)) {
        let mut rho = DensityMatrix::new(N).expect("fits");
        rho.apply_gate(Gate::H, &[0]);
        rho.apply_gate(Gate::Cx, &[0, 1]);
        rho.apply_gate(Gate::Cx, &[1, 2]);
        let mut via_superop = rho.clone();
        let mut via_fresh = rho.clone();
        let mut ws = EvolutionWorkspace::new();
        for (kraus, qs) in channels {
            // Dense oracle: embed each Kraus operator and matmul.
            let mut oracle = CMatrix::zeros(rho.dim(), rho.dim());
            for k in &kraus {
                let full = embed(k, &qs, N);
                oracle = oracle.add(&full.matmul(&to_matrix(&rho)).matmul(&full.adjoint()));
            }
            rho.apply_kraus_with(&kraus, &qs, &mut ws);
            prop_assert!(max_entry_diff(&rho, &oracle) < 1e-12, "kraus vs dense");

            // Superoperator path: same channel compiled to a superop.
            via_superop.apply_superoperator(&superop_of(&kraus), &qs);
            prop_assert!(max_entry_diff(&via_superop, &oracle) < 1e-12, "superop vs dense");

            // Workspace reuse never changes bits vs a fresh workspace.
            via_fresh.apply_kraus(&kraus, &qs);
            assert_bitwise_density(&rho, &via_fresh, "workspace reuse");

            // Keep the two kernel evolutions aligned for the next round
            // (they agree to 1e-12, not bitwise — different arithmetic).
            via_superop = rho.clone();
        }
        // The evolved state is still a density matrix.
        prop_assert!((rho.trace().re - 1.0).abs() < 1e-9);
        prop_assert!(rho.is_hermitian(1e-9));
    }
}

/// Deterministic xorshift stream in `[-0.5, 0.5)` for the step-program
/// property (one seed draws a whole case).
fn stream(mut seed: u64) -> impl FnMut() -> f64 {
    seed |= 1;
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// A `dim × dim` matrix mixing exact zeros, real-only, imaginary-only,
/// `-0.0`-imaginary, tiny (not zero) and general entries — or, one time in
/// three, a permutation (exact `1.0` entries, one tap per row, like CX).
fn sparse_matrix(dim: usize, next: &mut impl FnMut() -> f64) -> CMatrix {
    let mut u = CMatrix::zeros(dim, dim);
    if next() < -0.17 {
        let mut cols: Vec<usize> = (0..dim).collect();
        for r in 0..dim {
            let i = (((next() + 0.5) * cols.len() as f64) as usize).min(cols.len() - 1);
            u[(r, cols.remove(i))] = Complex::ONE;
        }
        return u;
    }
    for r in 0..dim {
        for c in 0..dim {
            let x = next();
            u[(r, c)] = match ((x + 0.5) * 7.0) as usize {
                0 | 1 => Complex::ZERO,
                2 => Complex::new(x, 0.0),
                3 => Complex::new(0.0, x),
                4 => Complex::new(x, -0.0),
                5 => Complex::new(x * 1e-300, 0.0),
                _ => Complex::new(x, next()),
            };
        }
    }
    u
}

/// `k` distinct qubits of `0..n` in random order.
fn distinct_qubits(k: usize, n: usize, next: &mut impl FnMut() -> f64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let i = (((next() + 0.5) * pool.len() as f64) as usize).min(pool.len() - 1);
        out.push(pool.remove(i));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A fused program — the gate's row and conjugated column passes plus
    /// its channel superoperators — is bitwise equal, cell by cell, to
    /// `DensityMatrix::apply_unitary` followed by `apply_superoperator` per
    /// channel. States carry exact `+0.0`/`-0.0` entries (or, with
    /// `distinct`, differ per cell through a per-cell injector); matrices
    /// carry exact zeros and real-, imaginary- and `-0.0`-imaginary
    /// entries; 2q operands come in either order, and a 3q gate (6 flat
    /// bits) must split into segments. Program unions span 2–4 flat bits.
    #[test]
    fn step_programs_match_dense_scalar_sequence_bitwise(
        seed in 0u64..u64::MAX,
        width in 1usize..=MAX_BATCH_CELLS,
        gate_qubits in 0usize..4,
        n_channels in 0usize..4,
        distinct in any::<bool>(),
    ) {
        let mut next = stream(seed);
        let signed_zeros = |x: f64| match ((x + 0.5) * 4.0) as usize {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        };
        let amps: Vec<Complex> = (0..1 << N)
            .map(|_| Complex::new(signed_zeros(next()), signed_zeros(next())))
            .collect();
        let base = DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps));
        let gate = (gate_qubits > 0).then(|| {
            let qs = distinct_qubits(gate_qubits, N, &mut next);
            (sparse_matrix(1 << qs.len(), &mut next), qs)
        });
        let channels: Vec<(CMatrix, Vec<usize>)> = (0..n_channels)
            .map(|_| {
                let k = if next() < 0.0 { 1 } else { 2 };
                let qs = distinct_qubits(k, N, &mut next);
                (sparse_matrix(1 << (2 * k), &mut next), qs)
            })
            .collect();
        let injectors: Vec<CMatrix> = (0..width)
            .map(|c| CMatrix::u_gate(0.3 * c as f64 + next(), next(), 0.0))
            .collect();

        let program = StepProgram::density(
            N,
            gate.as_ref().map(|(u, qs)| (u, qs.as_slice())),
            &channels,
        );
        let mut batch = BatchedDensity::broadcast(&base, width);
        if distinct {
            batch.apply_unitary_per_cell(&injectors, 0);
        }
        batch.apply_program(&program);
        for (c, injector) in injectors.iter().enumerate() {
            let mut rho = base.clone();
            if distinct {
                rho.apply_unitary(injector, &[0]);
            }
            if let Some((u, qs)) = &gate {
                rho.apply_unitary(u, qs);
            }
            for (s, qs) in &channels {
                rho.apply_superoperator(s, qs);
            }
            for i in 0..rho.dim() {
                for j in 0..rho.dim() {
                    let (x, y) = (batch.entry(c, i, j), rho.entry(i, j));
                    prop_assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "cell {c} entry ({i},{j}): program {x:?} vs dense {y:?}"
                    );
                }
            }
        }
    }
}

/// The scalar generic kernel as it was before zero-skipping: over every
/// `2^k`-amplitude group (first operand the most significant matrix bit),
/// each output accumulates every coefficient × input in ascending column
/// order from `+0.0`, conjugating coefficients when `conj`.
fn dense_generic_reference(
    data: &mut [Complex],
    u: &CMatrix,
    positions: &[usize],
    m: usize,
    conj: bool,
) {
    let k = positions.len();
    let group = 1usize << k;
    let offset = |mm: usize| -> usize {
        (0..k)
            .filter(|b| (mm >> b) & 1 == 1)
            .map(|b| 1usize << positions[k - 1 - b])
            .fold(0, |a, o| a | o)
    };
    let mask: usize = positions.iter().map(|&q| 1usize << q).sum();
    for base in (0..1usize << m).filter(|i| i & mask == 0) {
        let gathered: Vec<Complex> = (0..group).map(|c| data[base | offset(c)]).collect();
        for row in 0..group {
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (col, g) in gathered.iter().enumerate() {
                let x = u[(row, col)];
                let (ar, ai) = (x.re, if conj { -x.im } else { x.im });
                re += ar * g.re - ai * g.im;
                im += ar * g.im + ai * g.re;
            }
            data[base | offset(row)] = Complex::new(re, im);
        }
    }
}

/// What the nonzero entries of [`matrix_at_density`] look like.
#[derive(Debug, Clone, Copy)]
enum Entries {
    /// Real-only, imaginary-only, nearly real or general.
    Mixed,
    /// All real with `±0.0` imaginary parts, like every channel
    /// superoperator of the noise model.
    Real,
    /// All with tiny nonzero imaginary parts, whose `im` halves must
    /// not be dropped.
    NearlyReal,
}

/// A `dim × dim` matrix with about `pct`% of its entries nonzero; the
/// others are `+0.0` or `-0.0` parts.
fn matrix_at_density(
    dim: usize,
    pct: f64,
    entries: Entries,
    next: &mut impl FnMut() -> f64,
) -> CMatrix {
    let mut u = CMatrix::zeros(dim, dim);
    for r in 0..dim {
        for c in 0..dim {
            let x = next();
            let zero_im = if x < 0.2 { 0.0 } else { -0.0 };
            u[(r, c)] = if (next() + 0.5) * 100.0 >= pct {
                Complex::new(if x < 0.0 { -0.0 } else { 0.0 }, zero_im)
            } else {
                match entries {
                    Entries::Real => Complex::new(next(), zero_im),
                    Entries::NearlyReal => Complex::new(x, 1e-9 * (next() + 0.75)),
                    Entries::Mixed => match ((next() + 0.5) * 4.0) as usize {
                        0 => Complex::new(x, 0.0),
                        1 => Complex::new(0.0, x),
                        2 => Complex::new(x, 1e-9 * next()),
                        _ => Complex::new(x, next()),
                    },
                }
            };
        }
    }
    u
}

/// Flat row-major copy of a density matrix.
fn flat(rho: &DensityMatrix) -> Vec<Complex> {
    (0..rho.dim())
        .flat_map(|i| (0..rho.dim()).map(move |j| (i, j)))
        .map(|(i, j)| rho.entry(i, j))
        .collect()
}

fn assert_bitwise_flat(got: &[Complex], want: &[Complex], what: &str) {
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: entry {i}: {x:?} vs {y:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The zero-skipping generic kernel against the dense loop, bit for
    /// bit, at every density from 0% to 100%, for k = 3 and k = 4 operand
    /// bits: statevector gates (no conjugation) on states holding `±0.0`
    /// amplitudes, density-matrix unitaries (row pass, then the
    /// conjugated column pass) and 2-qubit channel superoperators on
    /// density matrices built from such states.
    #[test]
    fn generic_kernel_matches_dense_loop_bitwise(
        seed in 0u64..u64::MAX,
        tenth in 0usize..=10,
        entries in prop_oneof![
            Just(Entries::Mixed),
            Just(Entries::Real),
            Just(Entries::NearlyReal),
        ],
    ) {
        const SV: usize = 5;
        const RHO: usize = 4;
        let mut next = stream(seed);
        let pct = 10.0 * tenth as f64;
        let signed_zeros = |x: f64| match ((x + 0.5) * 4.0) as usize {
            0 => 0.0,
            1 => -0.0,
            _ => x,
        };
        let amps = |n: usize, next: &mut dyn FnMut() -> f64| -> Vec<Complex> {
            (0..1 << n)
                .map(|_| Complex::new(signed_zeros(next()), signed_zeros(next())))
                .collect()
        };
        for k in [3usize, 4] {
            let u = matrix_at_density(1 << k, pct, entries, &mut next);

            let qs = distinct_qubits(k, SV, &mut next);
            let mut sv = Statevector::from_amplitudes(amps(SV, &mut next));
            let mut want = sv.amplitudes().to_vec();
            sv.apply_matrix(&u, &qs);
            dense_generic_reference(&mut want, &u, &qs, SV, false);
            assert_bitwise_flat(sv.amplitudes(), &want, &format!("statevector k={k} {pct}%"));

            let qs = distinct_qubits(k, RHO, &mut next);
            let mut rho =
                DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps(RHO, &mut next)));
            let mut want = flat(&rho);
            rho.apply_unitary(&u, &qs);
            let rows: Vec<usize> = qs.iter().map(|q| RHO + q).collect();
            dense_generic_reference(&mut want, &u, &rows, 2 * RHO, false);
            dense_generic_reference(&mut want, &u, &qs, 2 * RHO, true);
            assert_bitwise_flat(&flat(&rho), &want, &format!("density unitary k={k} {pct}%"));
        }

        let s = matrix_at_density(16, pct, entries, &mut next);
        let qs = distinct_qubits(2, RHO, &mut next);
        let mut rho =
            DensityMatrix::from_statevector(&Statevector::from_amplitudes(amps(RHO, &mut next)));
        let mut want = flat(&rho);
        rho.apply_superoperator(&s, &qs);
        let combined = [RHO + qs[0], RHO + qs[1], qs[0], qs[1]];
        dense_generic_reference(&mut want, &s, &combined, 2 * RHO, false);
        assert_bitwise_flat(&flat(&rho), &want, &format!("superoperator {pct}%"));
    }
}
