//! Index-arithmetic kernels shared by the statevector and density-matrix
//! engines.
//!
//! A `k`-qubit unitary applied to an `n`-qubit register never materializes a
//! `2^n × 2^n` matrix: it transforms groups of `2^k` amplitudes in place.
//! Everything in the stack reduces to one primitive,
//! [`apply_matrix_on_bits`]: apply a `2^k × 2^k` matrix to `k` *flat bit
//! positions* of a `2^m`-amplitude buffer.
//!
//! * Statevector gates: `m = n`, positions are the operand qubits.
//! * Density-matrix `ρ ↦ UρU†`: ρ (row-major) is a statevector over `2n`
//!   bits — row bit `q` is flat bit `n + q`, column bit `q` is flat bit `q`.
//!   The row pass applies `U` at positions `n + qubits`, the column pass
//!   applies the element-wise conjugate at positions `qubits`.
//! * Channel superoperators: a `4^k × 4^k` matrix at the combined positions
//!   `[n + qubits..., qubits...]`.
//!
//! The 1- and 2-qubit cases — all of a transpiled circuit's gates and every
//! 1-qubit channel — run through specialized loops; larger operands (Toffoli,
//! 2-qubit-channel superoperators) fall back to a generic `k ≤ 4` path. All
//! paths are allocation-free (fixed stack buffers) because campaigns call
//! them hundreds of millions of times, and all paths perform **exactly** the
//! same arithmetic in the same order (gather the group, accumulate each
//! output row from zero in column order, scatter), so results are
//! bit-identical regardless of which path dispatches — a property the
//! campaign layer's byte-pinned golden exports rely on. The generic path
//! skips exact-zero coefficients (a Toffoli has 8 of 64 nonzero, a 2-qubit
//! depolarizing superoperator 28 of 256), which changes no bit by the
//! argument below. These scalar kernels are also the reference the batched
//! kernels below are tested against.
//!
//! # Zero-skipping and fusion without changing a bit
//!
//! The scalar generic kernel stores its matrix as per-row taps — its
//! coefficients that are not exactly zero, in ascending column order — and
//! accumulates each output over those taps only.
//!
//! The batched density replay runs each noisy gate step — the unitary's row
//! pass, its conjugated column pass, then every channel superoperator — as
//! one [`StepProgram`]: consecutive ops whose flat bits fit one
//! `2^4`-amplitude group are fused into a single gather → ops → scatter
//! pass, and each op keeps only its coefficients that are not exactly zero
//! (a 2-qubit depolarizing superoperator has 28 of 256; CX is a
//! permutation). Both results stay bit-identical to the dense kernels
//! because:
//!
//! * Every output is accumulated from `+0.0` in ascending column order, and
//!   a sum of the form `+0.0 + x₁ + … + xₖ` is never `−0.0` under
//!   round-to-nearest, so no kernel output is ever `−0.0`.
//! * For finite inputs a zero coefficient contributes a product of `±0.0`,
//!   and adding `±0.0` to an accumulator that is never `−0.0` leaves it
//!   unchanged — so dropping the term changes nothing. Likewise a
//!   coefficient with a zero imaginary part may drop the `0 · im` half of
//!   its complex product (such taps are flagged real): that half is
//!   `±0.0`, so the term either equals the real product or is itself
//!   `±0.0` and leaves the accumulator unchanged.
//! * Fusion applies the same ops, each to the same amplitude groups, in the
//!   same order: every op's groups nest inside the fused group, so applying
//!   op after op group by group performs exactly the per-element sequence of
//!   whole-buffer passes.
//! * No multiply-add is fused and nothing is reassociated: every kept term
//!   is `acc += c · x` exactly as in the dense kernels. (Do not replace a
//!   lone `+0.0 + 1 · x` with a move, even for a permutation like CX: it
//!   maps an input `−0.0` to `+0.0`, and the dense kernels do too.)

use qufi_math::{CMatrix, Complex};

/// Largest supported operand count: 3-qubit gates (Toffoli) and 2-qubit
/// channel superoperators (4 combined row/column bits).
pub(crate) const MAX_KERNEL_QUBITS: usize = 4;

/// Applies `u` (a row-major `2^k × 2^k` matrix over the listed flat bit
/// `positions`) to `data`, a buffer of `2^m` amplitudes.
///
/// Matrix-index convention: bit `k-1-j` of a matrix index corresponds to
/// `positions[j]`, i.e. the **first operand is the most significant** matrix
/// bit, matching [`qufi_math::CMatrix::cnot`] (control first).
///
/// When `conjugate` is true the element-wise conjugate of `u` is used
/// (needed for the density-matrix column pass: `ρ ↦ K ρ K†`).
pub(crate) fn apply_matrix_on_bits(
    data: &mut [Complex],
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conjugate: bool,
) {
    let k = positions.len();
    debug_assert_eq!(data.len(), 1usize << m, "buffer is not 2^m amplitudes");
    debug_assert_eq!(u.len(), 1usize << (2 * k), "matrix size mismatch");
    debug_assert!(positions.iter().all(|&q| q < m));
    assert!(
        k <= MAX_KERNEL_QUBITS,
        "kernel supports at most {MAX_KERNEL_QUBITS} operand qubits"
    );
    match k {
        1 => apply_1q(data, u, positions[0], conjugate),
        2 => apply_2q(data, u, positions[0], positions[1], conjugate),
        _ => apply_generic(data, u, positions, m, conjugate),
    }
}

/// Specialized single-operand kernel: transforms amplitude pairs in place.
///
/// Blocks are walked as `chunks_exact_mut(2·bit)` split at `bit`, so the
/// inner pair loop is a bounds-check-free zip over two slices the compiler
/// can pipeline and vectorize. Each pair performs the exact operation
/// sequence of the generic path (accumulate from zero in column order), so
/// dispatch never changes bits.
fn apply_1q(data: &mut [Complex], u: &[Complex], q: usize, conjugate: bool) {
    let bit = 1usize << q;
    let (u00, u01, u10, u11) = if conjugate {
        (u[0].conj(), u[1].conj(), u[2].conj(), u[3].conj())
    } else {
        (u[0], u[1], u[2], u[3])
    };
    for block in data.chunks_exact_mut(bit << 1) {
        let (lo, hi) = block.split_at_mut(bit);
        for (p0, p1) in lo.iter_mut().zip(hi.iter_mut()) {
            let v0 = *p0;
            let v1 = *p1;
            let mut a0 = Complex::ZERO;
            a0 += u00 * v0;
            a0 += u01 * v1;
            let mut a1 = Complex::ZERO;
            a1 += u10 * v0;
            a1 += u11 * v1;
            *p0 = a0;
            *p1 = a1;
        }
    }
}

/// Specialized two-operand kernel: 4-amplitude gather, 4×4 transform,
/// scatter. `p_hi` is the most significant matrix bit.
///
/// The transform accumulates column-outer into four independent output
/// accumulators (through a transposed matrix copy, so the inner row loop is
/// contiguous): each output still sums its columns in ascending order —
/// bit-identical to the row-major form — but the four chains pipeline
/// instead of serializing on one accumulator.
fn apply_2q(data: &mut [Complex], u: &[Complex], p_hi: usize, p_lo: usize, conjugate: bool) {
    let o_hi = 1usize << p_hi;
    let o_lo = 1usize << p_lo;
    // Transposed (and optionally conjugated) split-layout copy of the 4×4
    // matrix: real and imaginary parts in separate arrays, so the
    // accumulation below is plain `f64` array arithmetic the compiler can
    // keep in SIMD registers.
    let mut ut_re = [0.0f64; 16];
    let mut ut_im = [0.0f64; 16];
    for row in 0..4 {
        for col in 0..4 {
            let x = u[row * 4 + col];
            ut_re[col * 4 + row] = x.re;
            ut_im[col * 4 + row] = if conjugate { -x.im } else { x.im };
        }
    }
    // Enumerate the "rest" space by depositing counter bits around the two
    // operand holes (sorted ascending).
    let (qa, qb) = if p_hi < p_lo {
        (p_hi, p_lo)
    } else {
        (p_lo, p_hi)
    };
    let mask_a = (1usize << qa) - 1;
    let mask_b = (1usize << qb) - 1;
    let rest = data.len() >> 2;
    for r in 0..rest {
        let t = ((r >> qa) << (qa + 1)) | (r & mask_a);
        let idx = ((t >> qb) << (qb + 1)) | (t & mask_b);
        let i0 = idx;
        let i1 = idx | o_lo;
        let i2 = idx | o_hi;
        let i3 = idx | o_lo | o_hi;
        let g = [data[i0], data[i1], data[i2], data[i3]];
        let mut o_re = [0.0f64; 4];
        let mut o_im = [0.0f64; 4];
        for (col, &gc) in g.iter().enumerate() {
            let (cr, ci) = (gc.re, gc.im);
            let ur = &ut_re[col * 4..col * 4 + 4];
            let ui = &ut_im[col * 4..col * 4 + 4];
            // Exactly `slot += u · g` unrolled into parts: each output's
            // column order — and therefore every bit — is unchanged.
            for (((or_, oi_), &ar), &ai) in o_re.iter_mut().zip(o_im.iter_mut()).zip(ur).zip(ui) {
                *or_ += ar * cr - ai * ci;
                *oi_ += ar * ci + ai * cr;
            }
        }
        data[i0] = Complex::new(o_re[0], o_im[0]);
        data[i1] = Complex::new(o_re[1], o_im[1]);
        data[i2] = Complex::new(o_re[2], o_im[2]);
        data[i3] = Complex::new(o_re[3], o_im[3]);
    }
}

/// Generic fallback for 3 and 4 operands (Toffoli, 2-qubit-channel
/// superoperators; 0 operands scale by a scalar). Each output accumulates
/// only the matrix's nonzero coefficients, in ascending column order, from
/// `+0.0` — bit-identical to multiplying every coefficient, see the module
/// documentation.
fn apply_generic(data: &mut [Complex], u: &[Complex], positions: &[usize], m: usize, conj: bool) {
    // Monomorphized per operand count, so every group loop has a
    // compile-time trip count. One and two operands never get here: they
    // run through `apply_1q` and `apply_2q`.
    match positions.len() {
        0 => generic_k::<0, 1>(data, u, positions, m, conj),
        3 => generic_k::<3, 8>(data, u, positions, m, conj),
        4 => generic_k::<4, 16>(data, u, positions, m, conj),
        k => unreachable!("{k} operands do not take the generic kernel"),
    }
}

/// [`apply_generic`] for `K` operands, `G = 2^K` amplitudes per group.
fn generic_k<const K: usize, const G: usize>(
    data: &mut [Complex],
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conj: bool,
) {
    // The data offset of each matrix index: matrix bit (K-1-j) is flat
    // bit positions[j].
    let mut pos = [0usize; G];
    for (mm, slot) in pos.iter_mut().enumerate() {
        for (j, &q) in positions.iter().enumerate() {
            if (mm >> (K - 1 - j)) & 1 == 1 {
                *slot |= 1usize << q;
            }
        }
    }
    // Sorted bit positions for enumerating the "rest" space.
    let mut holes = [0usize; K];
    holes.copy_from_slice(positions);
    holes.sort_unstable();
    // The taps: the nonzero coefficients (optionally conjugated) in
    // row-major order, so each output row meets its taps in ascending
    // column order.
    let mut tap_row = [0u8; 1 << (2 * MAX_KERNEL_QUBITS)];
    let mut tap_col = [0u8; 1 << (2 * MAX_KERNEL_QUBITS)];
    let mut tap_re = [0.0f64; 1 << (2 * MAX_KERNEL_QUBITS)];
    let mut tap_im = [0.0f64; 1 << (2 * MAX_KERNEL_QUBITS)];
    let mut taps = 0;
    for (i, &x) in u.iter().enumerate() {
        if x != Complex::ZERO {
            tap_row[taps] = (i / G) as u8;
            tap_col[taps] = (i % G) as u8;
            tap_re[taps] = x.re;
            tap_im[taps] = if conj { -x.im } else { x.im };
            taps += 1;
        }
    }
    let (rows, cols) = (&tap_row[..taps], &tap_col[..taps]);
    let (res, ims) = (&tap_re[..taps], &tap_im[..taps]);
    for_each_group::<K, G>(data, &pos, &holes, m, |gathered| {
        let mut o_re = [0.0f64; G];
        let mut o_im = [0.0f64; G];
        for (((&r, &c), &ar), &ai) in rows.iter().zip(cols).zip(res).zip(ims) {
            let (r, g) = (r as usize % G, gathered[c as usize % G]);
            o_re[r] += ar * g.re - ai * g.im;
            o_im[r] += ar * g.im + ai * g.re;
        }
        std::array::from_fn(|row| Complex::new(o_re[row], o_im[row]))
    });
}

/// Runs `transform` over every amplitude group of a `K`-operand pass:
/// gathers the `G` amplitudes at offsets `pos` around each base index
/// (zeros at the sorted `holes` bits), and scatters the outputs back.
#[inline(always)]
fn for_each_group<const K: usize, const G: usize>(
    data: &mut [Complex],
    pos: &[usize; G],
    holes: &[usize; K],
    m: usize,
    mut transform: impl FnMut(&[Complex; G]) -> [Complex; G],
) {
    for r in 0..1usize << (m - K) {
        // Deposit the rest-bits of `r` around the holes.
        let mut idx = r;
        for &q in holes {
            idx = ((idx >> q) << (q + 1)) | (idx & ((1 << q) - 1));
        }
        let gathered: [Complex; G] = std::array::from_fn(|j| data[idx | pos[j]]);
        let out = transform(&gathered);
        for (&v, &p) in out.iter().zip(pos) {
            data[idx | p] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// Batched (cell-major) kernels
// ---------------------------------------------------------------------------
//
// The batched replay engine lays `width` forked states out as columns of one
// split-complex matrix: flat index `amp * width + cell`, real and imaginary
// parts in separate `f64` buffers. A gate's index arithmetic (block walks,
// rest-space deposits, gather/scatter offsets) is computed once per amplitude
// group and applied to all cells through stride-1 inner loops the compiler
// vectorizes *across cells*. Each cell's own operation sequence — gather,
// accumulate each output from zero in column order, scatter — is exactly the
// scalar kernel's, so a batched cell is bit-identical to a scalar replay of
// the same state. (Like the scalar kernels, nothing here may fold the first
// product into the accumulator's initialization: `0.0 + x` normalizes the
// sign of zero exactly as the scalar path does.)
//
// Every public entry point dispatches the runtime `width` to a `const W`
// monomorphization: the cell loops' trip counts must be compile-time
// constants, or the vectorizer emits runtime-trip prologue/epilogue checks
// around 4–16-element loops and the batched path loses to the scalar
// kernels' fully unrolled fixed-length loops. Monomorphizing is what turns
// the cell axis into straight-line vector code (one or two full-width
// vectors per accumulate at W = 8/16 on AVX-512). Unrolling never changes
// arithmetic order, so const and odd-width paths stay bit-identical.

/// Largest supported batch width (cells per block). Sized so a 4-operand
/// gather/accumulate group (16 amplitudes × 16 cells × 4 buffers) still fits
/// comfortably in stack arrays and L1.
pub(crate) const MAX_BATCH_CELLS: usize = 16;

/// Expands `match width` over 1..=[`MAX_BATCH_CELLS`] so each arm calls the
/// kernel with a `const W` equal to the runtime width.
macro_rules! dispatch_width {
    ($width:expr => $f:ident($($args:expr),* $(,)?)) => {
        match $width {
            1 => $f::<1>($($args),*),
            2 => $f::<2>($($args),*),
            3 => $f::<3>($($args),*),
            4 => $f::<4>($($args),*),
            5 => $f::<5>($($args),*),
            6 => $f::<6>($($args),*),
            7 => $f::<7>($($args),*),
            8 => $f::<8>($($args),*),
            9 => $f::<9>($($args),*),
            10 => $f::<10>($($args),*),
            11 => $f::<11>($($args),*),
            12 => $f::<12>($($args),*),
            13 => $f::<13>($($args),*),
            14 => $f::<14>($($args),*),
            15 => $f::<15>($($args),*),
            16 => $f::<16>($($args),*),
            _ => unreachable!("batch width asserted to 1..=MAX_BATCH_CELLS"),
        }
    };
}

/// Batched counterpart of [`apply_matrix_on_bits`]: applies one shared
/// `2^k × 2^k` matrix to every cell of a cell-major split-complex buffer
/// holding `width` states of `2^m` amplitudes each. One operand runs the
/// pair kernel; wider operands run as a one-op [`StepProgram`].
pub(crate) fn batch_apply_matrix_on_bits(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u: &[Complex],
    positions: &[usize],
    m: usize,
    conjugate: bool,
) {
    debug_assert_eq!(re.len(), width << m, "buffer is not width · 2^m reals");
    debug_assert_eq!(re.len(), im.len());
    assert!(
        (1..=MAX_BATCH_CELLS).contains(&width),
        "batch width must be 1..={MAX_BATCH_CELLS}"
    );
    if let [q] = positions {
        debug_assert_eq!(u.len(), 4, "matrix size mismatch");
        debug_assert!(*q < m);
        dispatch_width!(width => batch_apply_1q(re, im, u, *q, conjugate));
    } else {
        let program = StepProgram::compile(m, &[ProgramOp::new(u, positions, conjugate)]);
        batch_apply_program(re, im, width, &program);
    }
}

/// Reborrows one cell row (`W` reals starting at `amp · W`) as a fixed-size
/// array so the cell loops below carry no bounds checks or runtime trips.
#[inline(always)]
fn row_mut<const W: usize>(buf: &mut [f64], amp: usize) -> &mut [f64; W] {
    (&mut buf[amp * W..(amp + 1) * W])
        .try_into()
        .expect("row of W reals")
}

/// Batched single-operand kernel with one shared matrix: the scalar pair
/// loop with a `W`-cell stride-1 lane under every amplitude pair.
fn batch_apply_1q<const W: usize>(
    re: &mut [f64],
    im: &mut [f64],
    u: &[Complex],
    q: usize,
    conj: bool,
) {
    let bit = 1usize << q;
    let (u00, u01, u10, u11) = if conj {
        (u[0].conj(), u[1].conj(), u[2].conj(), u[3].conj())
    } else {
        (u[0], u[1], u[2], u[3])
    };
    let block = (bit << 1) * W;
    let half = bit * W;
    for (bre, bim) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let (lo_re, hi_re) = bre.split_at_mut(half);
        let (lo_im, hi_im) = bim.split_at_mut(half);
        for p in 0..bit {
            let p0r = row_mut::<W>(lo_re, p);
            let p0i = row_mut::<W>(lo_im, p);
            let p1r = row_mut::<W>(hi_re, p);
            let p1i = row_mut::<W>(hi_im, p);
            for c in 0..W {
                let (v0r, v0i) = (p0r[c], p0i[c]);
                let (v1r, v1i) = (p1r[c], p1i[c]);
                let mut a0r = 0.0f64;
                let mut a0i = 0.0f64;
                a0r += u00.re * v0r - u00.im * v0i;
                a0i += u00.re * v0i + u00.im * v0r;
                a0r += u01.re * v1r - u01.im * v1i;
                a0i += u01.re * v1i + u01.im * v1r;
                let mut a1r = 0.0f64;
                let mut a1i = 0.0f64;
                a1r += u10.re * v0r - u10.im * v0i;
                a1i += u10.re * v0i + u10.im * v0r;
                a1r += u11.re * v1r - u11.im * v1i;
                a1i += u11.re * v1i + u11.im * v1r;
                p0r[c] = a0r;
                p0i[c] = a0i;
                p1r[c] = a1r;
                p1i[c] = a1i;
            }
        }
    }
}

/// Batched single-operand kernel with one matrix **per cell** (the grid's
/// per-cell injector). `u_re`/`u_im` hold the four matrix entries in
/// element-major layout: entry `e` of cell `c` at `e * width + c`.
pub(crate) fn batch_apply_1q_per_cell(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    u_re: &[f64],
    u_im: &[f64],
    q: usize,
    conjugate: bool,
) {
    debug_assert_eq!(u_re.len(), 4 * width);
    debug_assert_eq!(u_im.len(), 4 * width);
    assert!(
        (1..=MAX_BATCH_CELLS).contains(&width),
        "batch width must be 1..={MAX_BATCH_CELLS}"
    );
    dispatch_width!(width => batch_apply_1q_per_cell_w(re, im, u_re, u_im, q, conjugate));
}

fn batch_apply_1q_per_cell_w<const W: usize>(
    re: &mut [f64],
    im: &mut [f64],
    u_re: &[f64],
    u_im: &[f64],
    q: usize,
    conjugate: bool,
) {
    let bit = 1usize << q;
    let block = (bit << 1) * W;
    let half = bit * W;
    // Conjugate the entries once up front. Negation by `-1.0 ·` is exact, so
    // this is bit-identical to the scalar path's per-use `u[i].conj()`.
    let s = if conjugate { -1.0f64 } else { 1.0f64 };
    let mut e_re = [[0.0f64; W]; 4];
    let mut e_im = [[0.0f64; W]; 4];
    for e in 0..4 {
        for c in 0..W {
            e_re[e][c] = u_re[e * W + c];
            e_im[e][c] = s * u_im[e * W + c];
        }
    }
    for (bre, bim) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let (lo_re, hi_re) = bre.split_at_mut(half);
        let (lo_im, hi_im) = bim.split_at_mut(half);
        for p in 0..bit {
            let p0r = row_mut::<W>(lo_re, p);
            let p0i = row_mut::<W>(lo_im, p);
            let p1r = row_mut::<W>(hi_re, p);
            let p1i = row_mut::<W>(hi_im, p);
            for c in 0..W {
                let (v0r, v0i) = (p0r[c], p0i[c]);
                let (v1r, v1i) = (p1r[c], p1i[c]);
                let mut a0r = 0.0f64;
                let mut a0i = 0.0f64;
                a0r += e_re[0][c] * v0r - e_im[0][c] * v0i;
                a0i += e_re[0][c] * v0i + e_im[0][c] * v0r;
                a0r += e_re[1][c] * v1r - e_im[1][c] * v1i;
                a0i += e_re[1][c] * v1i + e_im[1][c] * v1r;
                let mut a1r = 0.0f64;
                let mut a1i = 0.0f64;
                a1r += e_re[2][c] * v0r - e_im[2][c] * v0i;
                a1i += e_re[2][c] * v0i + e_im[2][c] * v0r;
                a1r += e_re[3][c] * v1r - e_im[3][c] * v1i;
                a1i += e_re[3][c] * v1i + e_im[3][c] * v1r;
                p0r[c] = a0r;
                p0i[c] = a0i;
                p1r[c] = a1r;
                p1i[c] = a1i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Step programs: fused, zero-skipping batched passes
// ---------------------------------------------------------------------------

/// Tap-byte flag: the coefficient's imaginary part is exactly zero, so the
/// tap stores one `f64` and skips the `0 · im` half of the product.
const TAP_REAL: u8 = 0x80;
/// Tap-byte mask of the source's group-local amplitude index.
const TAP_SRC: u8 = (1 << MAX_KERNEL_QUBITS) as u8 - 1;

/// One matrix operation of a program before compilation: `matrix`
/// (row-major `2^k × 2^k`, element-wise conjugated when `conjugate`) over
/// `k` flat bit `positions`, first operand most significant — exactly the
/// arguments of [`apply_matrix_on_bits`].
struct ProgramOp<'a> {
    matrix: &'a [Complex],
    positions: &'a [usize],
    conjugate: bool,
}

impl<'a> ProgramOp<'a> {
    fn new(matrix: &'a [Complex], positions: &'a [usize], conjugate: bool) -> Self {
        assert!(
            positions.len() <= MAX_KERNEL_QUBITS,
            "kernel supports at most {MAX_KERNEL_QUBITS} operand qubits"
        );
        assert_eq!(
            matrix.len(),
            1usize << (2 * positions.len()),
            "matrix size mismatch"
        );
        ProgramOp {
            matrix,
            positions,
            conjugate,
        }
    }
}

/// A run of consecutive ops sharing one amplitude group: the union of
/// their flat bits, at most [`MAX_KERNEL_QUBITS`] of them.
#[derive(Debug, Clone)]
struct Segment {
    /// Union bits, ascending: group-local index bit `i` is flat bit
    /// `bits[i]`.
    bits: [u8; MAX_KERNEL_QUBITS],
    len: u8,
    ops: u8,
    /// End offsets of this segment's bytes in `code` and reals in `coefs`.
    code_end: u32,
    coef_end: u32,
}

/// A sequence of matrix operations — one noisy gate step: the unitary's row
/// pass, its conjugated column pass, then each channel superoperator —
/// compiled once into fused, zero-skipping form for the batched density
/// replay.
///
/// Consecutive ops are grouped greedily while the union of their flat bits
/// stays within four (`MAX_KERNEL_QUBITS`); each group (segment) is one pass
/// over the state: gather a `2^u`-amplitude group once, run every op of the
/// segment through stack buffers, scatter once. Each op is stored as
/// per-output-row *taps* `(source, coefficient)` — only the coefficients
/// that are not exactly zero, in the op matrix's ascending column order —
/// and taps with a zero imaginary part are flagged real. See the module
/// documentation for why this is bit-identical to the dense kernels.
#[derive(Debug, Clone)]
pub struct StepProgram {
    /// Flat bits of the state the program runs on.
    m: usize,
    segments: Vec<Segment>,
    /// Per segment, op and group-local output row in order: the row's tap
    /// count, then one byte per tap (source index | [`TAP_REAL`]).
    code: Vec<u8>,
    /// Coefficients in tap order: one real per real tap, `re, im` per
    /// complex tap.
    coefs: Vec<f64>,
    taps_per_cell: u64,
    dense_taps_per_cell: u64,
}

impl StepProgram {
    /// Compiles one noisy density-matrix step on an `n`-qubit ρ: `ρ ↦ UρU†`
    /// for the optional `unitary` (row pass at flat bits `n + qubits`,
    /// conjugated column pass at `qubits`), then each `(superoperator,
    /// targets)` channel at the combined bits `[n + targets..., targets...]`
    /// — the exact op sequence of `DensityMatrix::apply_unitary` followed by
    /// `DensityMatrix::apply_superoperator` per channel.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range qubits, matrices of the wrong size, or
    /// operands wider than the kernels support.
    pub fn density(
        n: usize,
        unitary: Option<(&CMatrix, &[usize])>,
        channels: &[(CMatrix, Vec<usize>)],
    ) -> Self {
        let bits = |qs: &[usize], row: bool| -> Vec<usize> {
            qs.iter()
                .map(|&q| {
                    assert!(q < n, "qubit {q} out of range for width {n}");
                    if row {
                        n + q
                    } else {
                        q
                    }
                })
                .collect()
        };
        let mut positions: Vec<(&[Complex], Vec<usize>, bool)> = Vec::new();
        if let Some((u, qubits)) = unitary {
            positions.push((u.as_slice(), bits(qubits, true), false));
            positions.push((u.as_slice(), bits(qubits, false), true));
        }
        for (s, targets) in channels {
            let mut combined = bits(targets, true);
            combined.extend(bits(targets, false));
            positions.push((s.as_slice(), combined, false));
        }
        let ops: Vec<ProgramOp<'_>> = positions
            .iter()
            .map(|(u, p, conj)| ProgramOp::new(u, p, *conj))
            .collect();
        Self::compile(2 * n, &ops)
    }

    /// Compiles `ops` for a state of `2^m` amplitudes.
    fn compile(m: usize, ops: &[ProgramOp<'_>]) -> Self {
        let mut program = StepProgram {
            m,
            segments: Vec::new(),
            code: Vec::new(),
            coefs: Vec::new(),
            taps_per_cell: 0,
            dense_taps_per_cell: 0,
        };
        let mut start = 0;
        let mut union = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let mut mask = 0usize;
            for &p in op.positions {
                assert!(p < m, "flat bit {p} out of range for 2^{m} amplitudes");
                assert_eq!(mask & (1 << p), 0, "repeated operand bit {p}");
                mask |= 1 << p;
            }
            program.dense_taps_per_cell += 1u64 << (m + op.positions.len());
            if (union | mask).count_ones() as usize > MAX_KERNEL_QUBITS {
                program.push_segment(union, &ops[start..i]);
                start = i;
                union = 0;
            }
            union |= mask;
        }
        if start < ops.len() {
            program.push_segment(union, &ops[start..]);
        }
        // A program lives as long as its prepared point: drop growth slack.
        program.segments.shrink_to_fit();
        program.code.shrink_to_fit();
        program.coefs.shrink_to_fit();
        program
    }

    fn push_segment(&mut self, union: usize, ops: &[ProgramOp<'_>]) {
        let mut bits = [0u8; MAX_KERNEL_QUBITS];
        let mut len = 0usize;
        for b in 0..self.m {
            if union >> b & 1 == 1 {
                bits[len] = b as u8;
                len += 1;
            }
        }
        let local = |p: usize| {
            bits[..len]
                .iter()
                .position(|&b| b as usize == p)
                .expect("bit in union")
        };
        let code_start = self.code.len();
        for op in ops {
            let k = op.positions.len();
            // Group-local bit of each matrix bit: matrix bit `k-1-j` is
            // `positions[j]`.
            let mut lbit = [0usize; MAX_KERNEL_QUBITS];
            let mut op_mask = 0usize;
            for (j, &p) in op.positions.iter().enumerate() {
                lbit[k - 1 - j] = local(p);
                op_mask |= 1 << local(p);
            }
            let deposit = |mm: usize| {
                (0..k)
                    .filter(|&b| mm >> b & 1 == 1)
                    .fold(0usize, |acc, b| acc | 1 << lbit[b])
            };
            let extract = |o: usize| (0..k).fold(0usize, |acc, b| acc | (o >> lbit[b] & 1) << b);
            let dim = 1usize << k;
            for out in 0..1usize << len {
                let row = extract(out);
                let rest = out & !op_mask;
                let count_at = self.code.len();
                self.code.push(0);
                for col in 0..dim {
                    let z = op.matrix[row * dim + col];
                    let (re, im) = (z.re, if op.conjugate { -z.im } else { z.im });
                    if re == 0.0 && im == 0.0 {
                        continue;
                    }
                    let src = (rest | deposit(col)) as u8;
                    if im == 0.0 {
                        self.code.push(src | TAP_REAL);
                        self.coefs.push(re);
                    } else {
                        self.code.push(src);
                        self.coefs.extend([re, im]);
                    }
                }
                self.code[count_at] = (self.code.len() - count_at - 1) as u8;
            }
        }
        let taps = (self.code.len() - code_start - (ops.len() << len)) as u64;
        self.taps_per_cell += taps << (self.m - len);
        self.segments.push(Segment {
            bits,
            len: len as u8,
            ops: u8::try_from(ops.len()).expect("segment ops fit u8"),
            code_end: u32::try_from(self.code.len()).expect("program code fits u32"),
            coef_end: u32::try_from(self.coefs.len()).expect("program coefficients fit u32"),
        });
    }

    /// Flat bits of the state the program runs on (`2n` for an `n`-qubit
    /// density matrix).
    #[inline]
    pub(crate) fn flat_bits(&self) -> usize {
        self.m
    }

    /// Coefficient applications the program executes per cell (one per
    /// kept tap per amplitude group).
    #[inline]
    pub fn taps_per_cell(&self) -> u64 {
        self.taps_per_cell
    }

    /// Coefficient applications the dense kernels execute per cell for the
    /// same ops: `2^m · 2^k` for each `k`-bit op.
    #[inline]
    pub fn dense_taps_per_cell(&self) -> u64 {
        self.dense_taps_per_cell
    }
}

/// Runs `program` on every cell of a cell-major split-complex buffer
/// holding `width` states of `2^program.m` amplitudes each.
pub(crate) fn batch_apply_program(
    re: &mut [f64],
    im: &mut [f64],
    width: usize,
    program: &StepProgram,
) {
    assert!(
        (1..=MAX_BATCH_CELLS).contains(&width),
        "batch width must be 1..={MAX_BATCH_CELLS}"
    );
    assert_eq!(
        re.len(),
        width << program.m,
        "buffer is not width · 2^m reals"
    );
    assert_eq!(re.len(), im.len());
    dispatch_width!(width => batch_program_w(re, im, program));
}

/// Amplitudes in the largest segment group.
const GROUP: usize = 1 << MAX_KERNEL_QUBITS;

/// One segment's compiled ops and its group's flat offsets.
struct SegmentRun<'a> {
    offsets: [usize; GROUP],
    group: usize,
    ops: u8,
    code: &'a [u8],
    coefs: &'a [f64],
}

fn batch_program_w<const W: usize>(re: &mut [f64], im: &mut [f64], program: &StepProgram) {
    // Ping-pong buffers of one `W`-cell group, shared by every group.
    let mut buf_re = [[[0.0f64; W]; GROUP]; 2];
    let mut buf_im = [[[0.0f64; W]; GROUP]; 2];
    let (mut code_start, mut coef_start) = (0usize, 0usize);
    for seg in &program.segments {
        let (code_end, coef_end) = (seg.code_end as usize, seg.coef_end as usize);
        let len = seg.len as usize;
        let mut run = SegmentRun {
            offsets: [0; GROUP],
            group: 1 << len,
            ops: seg.ops,
            code: &program.code[code_start..code_end],
            coefs: &program.coefs[coef_start..coef_end],
        };
        for (j, off) in run.offsets.iter_mut().enumerate().take(run.group) {
            for (i, &b) in seg.bits[..len].iter().enumerate() {
                if j >> i & 1 == 1 {
                    *off |= 1 << b;
                }
            }
        }
        for r in 0..1usize << (program.m - len) {
            // Deposit the rest-bits of `r` around the union holes.
            let mut idx = r;
            for &b in &seg.bits[..len] {
                let b = b as usize;
                idx = ((idx >> b) << (b + 1)) | (idx & ((1 << b) - 1));
            }
            program_group::<W>(re, im, idx, &run, &mut buf_re, &mut buf_im);
        }
        code_start = code_end;
        coef_start = coef_end;
    }
}

/// One amplitude group of a segment across all `W` cells: gathers once,
/// runs the segment's ops ping-pong through the stack buffers, scatters
/// once. Every output row accumulates from `+0.0` over its taps in order —
/// the dense kernels' exact per-element sequence with the exactly-zero
/// terms left out.
#[inline(always)]
fn program_group<const W: usize>(
    re: &mut [f64],
    im: &mut [f64],
    idx: usize,
    run: &SegmentRun<'_>,
    buf_re: &mut [[[f64; W]; GROUP]; 2],
    buf_im: &mut [[[f64; W]; GROUP]; 2],
) {
    let group = run.group;
    for j in 0..group {
        let amp = idx | run.offsets[j];
        buf_re[0][j] = *row_mut::<W>(re, amp);
        buf_im[0][j] = *row_mut::<W>(im, amp);
    }
    let (code, coefs) = (run.code, run.coefs);
    let (mut pc, mut kc) = (0usize, 0usize);
    let mut cur = 0usize;
    for _ in 0..run.ops {
        let ([re0, re1], [im0, im1]) = (&mut *buf_re, &mut *buf_im);
        let (src_re, src_im, dst_re, dst_im) = if cur == 0 {
            (&*re0, &*im0, re1, im1)
        } else {
            (&*re1, &*im1, re0, im0)
        };
        for row in 0..group {
            let n = code[pc] as usize;
            let taps = &code[pc + 1..pc + 1 + n];
            pc += 1 + n;
            let mut acc_re = [0.0f64; W];
            let mut acc_im = [0.0f64; W];
            for &tap in taps {
                let s = (tap & TAP_SRC) as usize;
                let (xr, xi) = (&src_re[s], &src_im[s]);
                if tap & TAP_REAL != 0 {
                    let ar = coefs[kc];
                    kc += 1;
                    for c in 0..W {
                        acc_re[c] += ar * xr[c];
                        acc_im[c] += ar * xi[c];
                    }
                } else {
                    let (ar, ai) = (coefs[kc], coefs[kc + 1]);
                    kc += 2;
                    for c in 0..W {
                        acc_re[c] += ar * xr[c] - ai * xi[c];
                        acc_im[c] += ar * xi[c] + ai * xr[c];
                    }
                }
            }
            dst_re[row] = acc_re;
            dst_im[row] = acc_im;
        }
        cur ^= 1;
    }
    for j in 0..group {
        let amp = idx | run.offsets[j];
        *row_mut::<W>(re, amp) = buf_re[cur][j];
        *row_mut::<W>(im, amp) = buf_im[cur][j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qufi_math::CMatrix;

    fn apply(data: &mut [Complex], u: &CMatrix, positions: &[usize], m: usize, conj: bool) {
        apply_matrix_on_bits(data, u.as_slice(), positions, m, conj);
    }

    #[test]
    fn single_qubit_gate_on_lsb() {
        // |0> --X--> |1> on a 2-qubit register (qubit 0).
        let mut v = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::pauli_x(), &[0], 2, false);
        assert!(v[1].approx_eq(Complex::ONE, 1e-15));
    }

    #[test]
    fn single_qubit_gate_on_msb() {
        let mut v = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::pauli_x(), &[1], 2, false);
        assert!(v[2].approx_eq(Complex::ONE, 1e-15));
    }

    #[test]
    fn cnot_control_order() {
        // control = qubit 0, target = qubit 1; state |01> (q0=1) -> |11>.
        let mut v = vec![Complex::ZERO, Complex::ONE, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::cnot(), &[0, 1], 2, false);
        assert!(v[3].approx_eq(Complex::ONE, 1e-15), "{v:?}");

        // control = qubit 1: |01> unchanged.
        let mut v = vec![Complex::ZERO, Complex::ONE, Complex::ZERO, Complex::ZERO];
        apply(&mut v, &CMatrix::cnot(), &[1, 0], 2, false);
        assert!(v[1].approx_eq(Complex::ONE, 1e-15), "{v:?}");
    }

    #[test]
    fn conjugate_flag_conjugates_entries() {
        let s = CMatrix::phase(std::f64::consts::FRAC_PI_2); // diag(1, i)
        let mut v = vec![Complex::ZERO, Complex::ONE];
        apply(&mut v, &s, &[0], 1, true);
        assert!(v[1].approx_eq(-Complex::I, 1e-15));
    }

    #[test]
    fn three_qubit_gate_supported() {
        // Toffoli |110> -> |111> with operands [c0=2, c1=1, t=0].
        let mut v = vec![Complex::ZERO; 8];
        v[0b110] = Complex::ONE;
        let ccx = {
            let mut m = CMatrix::identity(8);
            m[(6, 6)] = Complex::ZERO;
            m[(7, 7)] = Complex::ZERO;
            m[(6, 7)] = Complex::ONE;
            m[(7, 6)] = Complex::ONE;
            m
        };
        apply(&mut v, &ccx, &[2, 1, 0], 3, false);
        assert!(v[0b111].approx_eq(Complex::ONE, 1e-15), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "kernel supports at most")]
    fn too_many_operands_rejected() {
        let mut v = vec![Complex::ONE; 32];
        let u = CMatrix::identity(32);
        apply(&mut v, &u, &[0, 1, 2, 3, 4], 5, false);
    }

    /// The plain dense loop every kernel path reproduces: gather each
    /// group, accumulate each output row from zero over all columns in
    /// ascending order, scatter.
    fn dense_reference(data: &mut [Complex], u: &[Complex], positions: &[usize], conj: bool) {
        let k = positions.len();
        let g = 1usize << k;
        let offset = |mm: usize| -> usize {
            (0..k)
                .filter(|&j| (mm >> (k - 1 - j)) & 1 == 1)
                .map(|j| 1usize << positions[j])
                .sum()
        };
        let mask: usize = (0..g).map(offset).fold(0, |a, b| a | b);
        for base in (0..data.len()).filter(|&i| i & mask == 0) {
            let gathered: Vec<Complex> = (0..g).map(|mm| data[base | offset(mm)]).collect();
            for row in 0..g {
                let mut acc = Complex::ZERO;
                for (col, &x) in gathered.iter().enumerate() {
                    let c = u[row * g + col];
                    acc += if conj { c.conj() } else { c } * x;
                }
                data[base | offset(row)] = acc;
            }
        }
    }

    /// Every dispatch path — the specialized 1q/2q loops and the generic
    /// zero-skipping kernel — must be *bit-identical* to the dense loop on
    /// random data: the dispatch must never change results.
    #[test]
    fn specialized_paths_match_generic_bitwise() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let m = 5usize;
        let data: Vec<Complex> = (0..1 << m).map(|_| Complex::new(next(), next())).collect();
        // A dense 4-operand matrix with a few exact zeros and one
        // imaginary-only entry.
        let dense4: Vec<Complex> = (0..256)
            .map(|i| match i % 7 {
                0 => Complex::ZERO,
                3 => Complex::new(0.0, next()),
                _ => Complex::new(next(), next()),
            })
            .collect();
        let cases: Vec<(CMatrix, Vec<usize>)> = vec![
            (CMatrix::hadamard(), vec![0]),
            (CMatrix::u_gate(0.7, 1.3, 0.2), vec![3]),
            (CMatrix::sx(), vec![4]),
            (CMatrix::cnot(), vec![1, 3]),
            (CMatrix::cnot(), vec![4, 0]),
            (CMatrix::swap(), vec![2, 1]),
            (CMatrix::cphase(0.9), vec![0, 4]),
            (crate::Gate::Ccx.matrix(), vec![4, 0, 2]),
            (CMatrix::from_vec(16, 16, dense4), vec![1, 4, 0, 3]),
        ];
        for (u, positions) in cases {
            for conj in [false, true] {
                let mut fast = data.clone();
                apply_matrix_on_bits(&mut fast, u.as_slice(), &positions, m, conj);
                let mut slow = data.clone();
                dense_reference(&mut slow, u.as_slice(), &positions, conj);
                for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "{u:?} on {positions:?} (conj={conj}): amp {i}: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    fn rng(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// Packs `width` scalar states into the cell-major split layout.
    fn pack(states: &[Vec<Complex>]) -> (Vec<f64>, Vec<f64>) {
        let width = states.len();
        let len = states[0].len();
        let mut re = vec![0.0f64; len * width];
        let mut im = vec![0.0f64; len * width];
        for (c, s) in states.iter().enumerate() {
            for (a, z) in s.iter().enumerate() {
                re[a * width + c] = z.re;
                im[a * width + c] = z.im;
            }
        }
        (re, im)
    }

    fn assert_cell_bitwise(
        re: &[f64],
        im: &[f64],
        width: usize,
        scalar: &[Vec<Complex>],
        what: &str,
    ) {
        for (c, s) in scalar.iter().enumerate() {
            for (a, z) in s.iter().enumerate() {
                let (br, bi) = (re[a * width + c], im[a * width + c]);
                assert!(
                    br.to_bits() == z.re.to_bits() && bi.to_bits() == z.im.to_bits(),
                    "{what}: cell {c} amp {a}: batched ({br}, {bi}) vs scalar {z:?}"
                );
            }
        }
    }

    /// Every batched shared-matrix path must be *bit-identical*, cell by
    /// cell, to the scalar kernel run on each cell's state separately —
    /// including ragged widths (1, 3) that exercise partial blocks.
    #[test]
    fn batched_shared_matrix_matches_scalar_bitwise() {
        let m = 5usize;
        let cases: Vec<(CMatrix, Vec<usize>)> = vec![
            (CMatrix::hadamard(), vec![0]),
            (CMatrix::u_gate(0.7, 1.3, 0.2), vec![3]),
            (CMatrix::cnot(), vec![1, 3]),
            (CMatrix::swap(), vec![2, 1]),
            (CMatrix::cphase(0.9), vec![0, 4]),
            (
                {
                    let mut ccx = CMatrix::identity(8);
                    ccx[(6, 6)] = Complex::ZERO;
                    ccx[(7, 7)] = Complex::ZERO;
                    ccx[(6, 7)] = Complex::ONE;
                    ccx[(7, 6)] = Complex::ONE;
                    ccx
                },
                vec![4, 2, 0],
            ),
        ];
        for width in [1usize, 3, 8, MAX_BATCH_CELLS] {
            let mut next = rng(0xA5A5_1234_5678_9ABC ^ width as u64);
            let states: Vec<Vec<Complex>> = (0..width)
                .map(|_| (0..1 << m).map(|_| Complex::new(next(), next())).collect())
                .collect();
            for (u, positions) in &cases {
                for conj in [false, true] {
                    let mut scalar = states.clone();
                    for s in &mut scalar {
                        apply_matrix_on_bits(s, u.as_slice(), positions, m, conj);
                    }
                    let (mut re, mut im) = pack(&states);
                    batch_apply_matrix_on_bits(
                        &mut re,
                        &mut im,
                        width,
                        u.as_slice(),
                        positions,
                        m,
                        conj,
                    );
                    assert_cell_bitwise(
                        &re,
                        &im,
                        width,
                        &scalar,
                        &format!("{u:?} on {positions:?} conj={conj} width={width}"),
                    );
                }
            }
        }
    }

    /// The per-cell 1q kernel (grid injectors: one matrix per cell) must be
    /// bit-identical to applying each cell's matrix with the scalar kernel.
    #[test]
    fn batched_per_cell_matrix_matches_scalar_bitwise() {
        let m = 4usize;
        for width in [1usize, 5, MAX_BATCH_CELLS] {
            let mut next = rng(0xDEAD_BEEF_0BAD_F00D ^ width as u64);
            let states: Vec<Vec<Complex>> = (0..width)
                .map(|_| (0..1 << m).map(|_| Complex::new(next(), next())).collect())
                .collect();
            let mats: Vec<CMatrix> = (0..width)
                .map(|c| CMatrix::u_gate(0.3 + c as f64, 0.1 * c as f64, 0.0))
                .collect();
            for q in 0..m {
                for conj in [false, true] {
                    let mut scalar = states.clone();
                    for (s, u) in scalar.iter_mut().zip(&mats) {
                        apply_matrix_on_bits(s, u.as_slice(), &[q], m, conj);
                    }
                    let (mut re, mut im) = pack(&states);
                    let mut u_re = vec![0.0f64; 4 * width];
                    let mut u_im = vec![0.0f64; 4 * width];
                    for (c, u) in mats.iter().enumerate() {
                        for (e, z) in u.as_slice().iter().enumerate() {
                            u_re[e * width + c] = z.re;
                            u_im[e * width + c] = z.im;
                        }
                    }
                    batch_apply_1q_per_cell(&mut re, &mut im, width, &u_re, &u_im, q, conj);
                    assert_cell_bitwise(
                        &re,
                        &im,
                        width,
                        &scalar,
                        &format!("per-cell u on q{q} conj={conj} width={width}"),
                    );
                }
            }
        }
    }

    /// A matrix with a mix of exact zeros, real-only, imaginary-only,
    /// `-0.0`-imaginary, tiny (not zero) and general entries — or, one time
    /// in three, a permutation (exact `1.0` entries, one tap per row, like
    /// CX).
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

    /// Programs over arbitrary flat-bit ops — 1- to 4-bit unions, ops that
    /// must split into segments, either operand order — are bit-identical,
    /// cell by cell, to the dense scalar kernels applied op after op, on
    /// states holding exact `+0.0` and `-0.0` entries.
    #[test]
    fn programs_match_sequential_scalar_kernels_bitwise() {
        let m = 5usize;
        let op_sets: Vec<Vec<(Vec<usize>, bool)>> = vec![
            vec![(vec![2], false)],
            vec![(vec![0], false), (vec![0], true)],
            vec![(vec![3, 1], false), (vec![1, 3], true), (vec![3], false)],
            vec![(vec![4, 0, 2], false), (vec![1, 3], true)],
            vec![
                (vec![0, 1, 2], false),
                (vec![3, 4, 0], true),
                (vec![2, 4], false),
            ],
            vec![
                (vec![4, 1, 0, 2], false),
                (vec![3], true),
                (vec![3, 2, 1, 0], false),
            ],
        ];
        for (set_no, set) in op_sets.iter().enumerate() {
            let mut next = rng(0x5EED_0000 + set_no as u64);
            let mats: Vec<CMatrix> = set
                .iter()
                .map(|(p, _)| sparse_matrix(1 << p.len(), &mut next))
                .collect();
            let ops: Vec<ProgramOp<'_>> = set
                .iter()
                .zip(&mats)
                .map(|((p, conj), u)| ProgramOp::new(u.as_slice(), p, *conj))
                .collect();
            let program = StepProgram::compile(m, &ops);
            for width in [1usize, 3, 8, MAX_BATCH_CELLS] {
                let states: Vec<Vec<Complex>> = (0..width)
                    .map(|_| {
                        (0..1 << m)
                            .map(|_| {
                                let pick = |x: f64| match ((x + 0.5) * 4.0) as usize {
                                    0 => 0.0,
                                    1 => -0.0,
                                    _ => x,
                                };
                                Complex::new(pick(next()), pick(next()))
                            })
                            .collect()
                    })
                    .collect();
                let mut scalar = states.clone();
                for s in &mut scalar {
                    for ((p, conj), u) in set.iter().zip(&mats) {
                        apply_matrix_on_bits(s, u.as_slice(), p, m, *conj);
                    }
                }
                let (mut re, mut im) = pack(&states);
                batch_apply_program(&mut re, &mut im, width, &program);
                assert_cell_bitwise(
                    &re,
                    &im,
                    width,
                    &scalar,
                    &format!("op set {set_no} width={width}"),
                );
            }
        }
    }

    /// The tap counters: CX's row pass keeps one tap per output row, and a
    /// dense op of `k` bits costs `2^m · 2^k` applications per cell.
    #[test]
    fn program_tap_counts() {
        let cx = CMatrix::cnot();
        let program = StepProgram::compile(3, &[ProgramOp::new(cx.as_slice(), &[0, 2], false)]);
        assert_eq!(program.taps_per_cell(), 8);
        assert_eq!(program.dense_taps_per_cell(), 8 * 4);
        let zero = CMatrix::zeros(2, 2);
        let program = StepProgram::compile(3, &[ProgramOp::new(zero.as_slice(), &[1], false)]);
        assert_eq!(program.taps_per_cell(), 0);
        assert_eq!(program.dense_taps_per_cell(), 8 * 2);
    }
}
