//! Mathematical foundations for the QuFI quantum fault-injection stack.
//!
//! The QuFI reproduction deliberately avoids external linear-algebra
//! dependencies; everything the simulator needs lives here:
//!
//! * [`Complex`] — a `f64`-based complex scalar (`c64` alias) with the usual
//!   arithmetic, polar form and `e^{iθ}` helpers.
//! * [`CMatrix`] — a small dense complex matrix used for gate unitaries,
//!   Kraus operators and density matrices, with multiplication, adjoint,
//!   Kronecker product and unitarity checks.
//! * [`mat2`] — the single-qubit gate matrices as allocation-free
//!   `[Complex; 4]` arrays; the 2×2 [`CMatrix`] constructors wrap them.
//! * [`decompose`] — ZYZ (Euler-angle) decomposition of arbitrary 2×2
//!   unitaries, used by the transpiler's basis-translation pass.
//! * [`angles`] — the φ/θ grids of the QuFI fault model (15° steps) and
//!   pretty-printing of angles as fractions of π for figure axes.
//!
//! # Example
//!
//! ```
//! use qufi_math::{c64, CMatrix};
//!
//! let h = CMatrix::hadamard();
//! assert!(h.is_unitary(1e-12));
//! let hh = h.matmul(&h);
//! assert!(hh.approx_eq(&CMatrix::identity(2), 1e-12));
//! let _amp = c64::new(0.5, -0.5);
//! ```

pub mod angles;
pub mod complex;
pub mod decompose;
pub mod mat2;
pub mod matrix;

pub use angles::{deg, AngleGrid, PiFraction};
pub use complex::Complex;
pub use decompose::{zyz_decompose, ZyzAngles};
pub use matrix::CMatrix;

/// Convenience alias mirroring the `num_complex::Complex64` spelling.
#[allow(non_camel_case_types)]
pub type c64 = Complex;

/// Tolerance used across the workspace when comparing floating-point
/// quantum amplitudes and probabilities.
pub const EPS: f64 = 1e-9;
