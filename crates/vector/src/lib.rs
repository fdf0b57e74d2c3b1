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
//! Generic kernels that operators and compression routines share (filtering a
//! slice into a position list, horizontal sums, delta encoding, …) live in
//! [`kernels`] and are generic over the backend.  The integer key tables the
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
    /// Number of 64-bit lanes processed per step for this style.
    pub fn lanes(self) -> usize {
        match self {
            ProcessingStyle::Scalar => scalar::Scalar::LANES,
            ProcessingStyle::Vectorized => emu::V512::LANES,
        }
    }

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
/// (an array of [`VectorExtension::LANES`] lanes).  Masks are represented as
/// plain `u64` bitmaps with one bit per lane (lane 0 = least significant
/// bit), which matches how AVX-512 mask registers behave and keeps mask
/// manipulation cheap for every backend.
pub trait VectorExtension: Copy + Default + 'static {
    /// Number of 64-bit lanes per register.
    const LANES: usize;

    /// The register type.
    type Reg: Copy;

    /// A register with every lane set to `value`.
    fn set1(value: u64) -> Self::Reg;

    /// A register with lanes `start, start + step, start + 2*step, …`.
    fn set_sequence(start: u64, step: u64) -> Self::Reg;

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

    /// Lane-wise bitwise and.
    fn and(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise bitwise or.
    fn or(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise bitwise xor.
    fn xor(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise logical shift left by a per-call constant amount.
    fn shl(a: Self::Reg, amount: u32) -> Self::Reg;

    /// Lane-wise logical shift right by a per-call constant amount.
    fn shr(a: Self::Reg, amount: u32) -> Self::Reg;

    /// Lane-wise minimum.
    fn min(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise maximum.
    fn max(a: Self::Reg, b: Self::Reg) -> Self::Reg;

    /// Lane-wise comparison, producing a bitmask with bit *i* set iff the
    /// predicate holds for lane *i*.
    fn cmp(op: VecCmp, a: Self::Reg, b: Self::Reg) -> u64;

    /// Horizontal wrapping sum of all lanes.
    fn hadd(a: Self::Reg) -> u64;

    /// Horizontal maximum of all lanes.
    fn hmax(a: Self::Reg) -> u64;

    /// Horizontal bitwise or of all lanes (useful for computing effective bit
    /// widths of a block in one pass).
    fn hor(a: Self::Reg) -> u64;

    /// Store only the lanes whose mask bit is set, compacted to the front of
    /// `dst`.  Returns the number of lanes written.  `dst` must have room for
    /// [`Self::LANES`] values.
    fn compress_store(dst: &mut [u64], mask: u64, reg: Self::Reg) -> usize;

    /// Extract lane `idx`.
    fn extract(reg: Self::Reg, idx: usize) -> u64;

    /// Number of mask bits set among the low [`Self::LANES`] bits.
    #[inline(always)]
    fn mask_count(mask: u64) -> usize {
        let lane_mask = if Self::LANES >= 64 {
            u64::MAX
        } else {
            (1u64 << Self::LANES) - 1
        };
        (mask & lane_mask).count_ones() as usize
    }
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
    fn processing_style_lanes() {
        assert_eq!(ProcessingStyle::Scalar.lanes(), 1);
        assert_eq!(ProcessingStyle::Vectorized.lanes(), 8);
        assert_eq!(ProcessingStyle::Scalar.label(), "scalar");
        assert_eq!(ProcessingStyle::Vectorized.label(), "vectorized");
    }

    #[test]
    fn default_processing_style_is_vectorized() {
        assert_eq!(ProcessingStyle::default(), ProcessingStyle::Vectorized);
    }
}
