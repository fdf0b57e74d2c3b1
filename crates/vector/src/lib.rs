//! # morph-vector
//!
//! Hardware-oblivious vector (SIMD) processing abstraction for MorphStore-rs.
//!
//! This crate is the Rust analogue of the *Template Vector Library* (TVL)
//! used by the original MorphStore engine (Ungethüm et al., CIDR 2020,
//! reference \[63\] of the paper).  The TVL lets a single operator
//! implementation be specialised to a scalar version or to a particular SIMD
//! extension by passing a template parameter.  Here, the same idea is
//! expressed with a trait, [`VectorExtension`], and zero-sized backend types
//! that implement it:
//!
//! * [`scalar::Scalar`] — one 64-bit lane, plain Rust integer operations.
//! * [`emu::V128`], [`emu::V256`], [`emu::V512`] — 2, 4 and 8 lanes of
//!   `u64` stored in fixed-size arrays.  The operations are written as simple
//!   per-lane loops which the compiler auto-vectorises to the widest SIMD
//!   extension available for the target (SSE/AVX2/AVX-512/NEON).  This keeps
//!   the crate 100 % safe and portable while still exercising the exact code
//!   structure of explicitly vectorised processing.
//! * [`x86`] — optional `std::arch` kernels for x86_64 (AVX2), selected at
//!   run time via feature detection, used by a few hot loops (comparison
//!   scans, horizontal sums).  All of them have portable fallbacks.
//!
//! The kernels the engine's operators run (filtering a slice into a position
//! list, sums and maxima, element-wise arithmetic) live in [`kernels`] and
//! are generic over the backend.  The integer key tables the
//! join operators build and probe ([`keys::KeySet`], [`keys::KeyIndex`]) live
//! in [`keys`].
//!
//! ## Example
//!
//! ```
//! use morph_vector::{kernels, emu::V256, scalar::Scalar};
//!
//! let data: Vec<u64> = (0..1000).collect();
//! let scalar_sum = kernels::sum::<Scalar>(&data);
//! let simd_sum = kernels::sum::<V256>(&data);
//! assert_eq!(scalar_sum, simd_sum);
//! assert_eq!(scalar_sum, 999 * 1000 / 2);
//! ```
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emu;
pub mod kernels;
pub mod keys;
pub mod scalar;
pub mod x86;

/// The comparison predicates supported by vectorised comparison operations.
///
/// These mirror the predicates needed by the `select` operator of the engine
/// (point and range predicates on dictionary-encoded integer columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VecCmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl VecCmp {
    /// Evaluate the predicate on a single pair of values.
    #[inline(always)]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            VecCmp::Eq => a == b,
            VecCmp::Ne => a != b,
            VecCmp::Lt => a < b,
            VecCmp::Le => a <= b,
            VecCmp::Gt => a > b,
            VecCmp::Ge => a >= b,
        }
    }
}

/// Processing style selected at query time.
///
/// The paper evaluates MorphStore both with scalar processing and with
/// AVX-512 vectorised processing (Figures 1 and 9).  The engine keeps this a
/// runtime value so the benchmark harness can sweep it; internally it
/// dispatches to kernels monomorphised over a [`VectorExtension`] backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessingStyle {
    /// One data element at a time (64-bit scalar).
    Scalar,
    /// Explicitly vectorised processing (8×64-bit lanes, auto-vectorised or
    /// mapped to native SIMD where available).
    #[default]
    Vectorized,
}

impl ProcessingStyle {
    /// Human-readable label used by the benchmark harness.
    pub fn label(self) -> &'static str {
        match self {
            ProcessingStyle::Scalar => "scalar",
            ProcessingStyle::Vectorized => "vectorized",
        }
    }
}

/// A hardware-oblivious vector extension over unsigned 64-bit integers.
///
/// A type implementing this trait is a zero-sized tag describing a register
/// width; the associated type [`VectorExtension::Reg`] is the register
/// (an array of [`VectorExtension::LANES`] lanes).  The operations are the
/// ones the [`kernels`] use; comparisons into position lists go through
/// [`kernels::compact_positions`], not through lane masks.
pub trait VectorExtension: Copy + Default + 'static {
    /// Number of 64-bit lanes per register.
    const LANES: usize;

    /// The register type.
    type Reg: Copy;

    /// A register with every lane set to `value`.
    fn set1(value: u64) -> Self::Reg;

    /// Load [`Self::LANES`] values from `src` (which must be at least that long).
    fn load(src: &[u64]) -> Self::Reg;

    /// Store the register into `dst` (which must be at least [`Self::LANES`] long).
    fn store(dst: &mut [u64], reg: Self::Reg);

    /// Lane-wise wrapping addition.
    fn add(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise wrapping subtraction.
    fn sub(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise wrapping multiplication.
    fn mul(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise maximum.
    fn max(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Horizontal wrapping sum of all lanes.
    fn hadd(a: Self::Reg) -> u64;

    /// Horizontal maximum of all lanes.
    fn hmax(a: Self::Reg) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_covers_all_predicates() {
        assert!(VecCmp::Eq.eval(3, 3));
        assert!(!VecCmp::Eq.eval(3, 4));
        assert!(VecCmp::Ne.eval(3, 4));
        assert!(!VecCmp::Ne.eval(4, 4));
        assert!(VecCmp::Lt.eval(3, 4));
        assert!(!VecCmp::Lt.eval(4, 4));
        assert!(VecCmp::Le.eval(4, 4));
        assert!(!VecCmp::Le.eval(5, 4));
        assert!(VecCmp::Gt.eval(5, 4));
        assert!(!VecCmp::Gt.eval(4, 4));
        assert!(VecCmp::Ge.eval(4, 4));
        assert!(!VecCmp::Ge.eval(3, 4));
    }

    #[test]
    fn processing_style_labels() {
        assert_eq!(ProcessingStyle::Scalar.label(), "scalar");
        assert_eq!(ProcessingStyle::Vectorized.label(), "vectorized");
    }

    #[test]
    fn default_processing_style_is_vectorized() {
        assert_eq!(ProcessingStyle::default(), ProcessingStyle::Vectorized);
    }
}
