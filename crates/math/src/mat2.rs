//! Single-qubit gate matrices as allocation-free row-major `[Complex; 4]`
//! arrays.
//!
//! These are the one definition of every single-qubit gate formula: the
//! 2×2 [`CMatrix`](crate::CMatrix) constructors (`CMatrix::hadamard`,
//! `CMatrix::rz`, `CMatrix::u_gate`, …) wrap them, so an array and the
//! matching matrix agree bit for bit. Hot paths that multiply many small
//! matrices (the transpiler's run fusion) use the arrays directly.

use crate::complex::Complex;
use std::f64::consts::FRAC_1_SQRT_2;

/// A row-major 2×2 complex matrix.
pub type Mat2 = [Complex; 4];

/// The 2×2 identity.
pub const IDENTITY: Mat2 = [Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ONE];

/// Hadamard gate.
pub fn hadamard() -> Mat2 {
    let s = FRAC_1_SQRT_2;
    real([s, s, s, -s])
}

/// Pauli-X (bit-flip) gate.
pub fn pauli_x() -> Mat2 {
    real([0.0, 1.0, 1.0, 0.0])
}

/// Pauli-Y gate.
pub fn pauli_y() -> Mat2 {
    [Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO]
}

/// Pauli-Z (phase-flip) gate.
pub fn pauli_z() -> Mat2 {
    real([1.0, 0.0, 0.0, -1.0])
}

/// The generic IBM `U(θ, φ, λ)` gate (see [`crate::CMatrix::u_gate`]).
pub fn u_gate(theta: f64, phi: f64, lambda: f64) -> Mat2 {
    let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
    u_gate_from_trig(s, c, phi, lambda)
}

/// [`u_gate`] with `sin(θ/2)`/`cos(θ/2)` supplied by the caller.
pub fn u_gate_from_trig(s: f64, c: f64, phi: f64, lambda: f64) -> Mat2 {
    [
        Complex::real(c),
        -Complex::cis(lambda) * s,
        Complex::cis(phi) * s,
        Complex::cis(phi + lambda) * c,
    ]
}

/// `RZ(λ) = diag(e^{-iλ/2}, e^{iλ/2})`.
pub fn rz(lambda: f64) -> Mat2 {
    [
        Complex::cis(-lambda / 2.0),
        Complex::ZERO,
        Complex::ZERO,
        Complex::cis(lambda / 2.0),
    ]
}

/// `RY(θ)` rotation about the Y axis.
pub fn ry(theta: f64) -> Mat2 {
    let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
    real([c, -s, s, c])
}

/// `RX(θ)` rotation about the X axis.
pub fn rx(theta: f64) -> Mat2 {
    let (s, c) = ((theta / 2.0).sin(), (theta / 2.0).cos());
    [
        Complex::real(c),
        Complex::new(0.0, -s),
        Complex::new(0.0, -s),
        Complex::real(c),
    ]
}

/// Square root of X (the IBM native `sx` gate).
pub fn sx() -> Mat2 {
    let half = 0.5;
    [
        Complex::new(half, half),
        Complex::new(half, -half),
        Complex::new(half, -half),
        Complex::new(half, half),
    ]
}

/// Phase gate `P(λ) = diag(1, e^{iλ})`.
pub fn phase(lambda: f64) -> Mat2 {
    [
        Complex::ONE,
        Complex::ZERO,
        Complex::ZERO,
        Complex::cis(lambda),
    ]
}

/// Conjugate transpose, entry for entry as [`crate::CMatrix::adjoint`].
pub fn adjoint(m: &Mat2) -> Mat2 {
    [m[0].conj(), m[2].conj(), m[1].conj(), m[3].conj()]
}

fn real(entries: [f64; 4]) -> Mat2 {
    entries.map(Complex::real)
}
