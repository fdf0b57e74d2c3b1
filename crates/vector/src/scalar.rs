//! The scalar backend: one 64-bit lane per "register".
//!
//! This backend corresponds to the TVL's scalar specialisation used for the
//! "MorphStore scalar" configurations of the paper (Figures 1 and 9).  All
//! operations degenerate to plain integer arithmetic, so kernels
//! monomorphised over [`Scalar`] compile to the same code a hand-written
//! scalar loop would.

use crate::VectorExtension;

/// Zero-sized tag for scalar processing (`LANES == 1`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scalar;

impl VectorExtension for Scalar {
    const LANES: usize = 1;
    type Reg = u64;

    #[inline(always)]
    fn set1(value: u64) -> u64 {
        value
    }

    #[inline(always)]
    fn load(src: &[u64]) -> u64 {
        src[0]
    }

    #[inline(always)]
    fn store(dst: &mut [u64], reg: u64) {
        dst[0] = reg;
    }

    #[inline(always)]
    fn add(a: u64, b: u64) -> u64 {
        a.wrapping_add(b)
    }

    #[inline(always)]
    fn sub(a: u64, b: u64) -> u64 {
        a.wrapping_sub(b)
    }

    #[inline(always)]
    fn mul(a: u64, b: u64) -> u64 {
        a.wrapping_mul(b)
    }

    #[inline(always)]
    fn max(a: u64, b: u64) -> u64 {
        a.max(b)
    }

    #[inline(always)]
    fn hadd(a: u64) -> u64 {
        a
    }

    #[inline(always)]
    fn hmax(a: u64) -> u64 {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arithmetic() {
        assert_eq!(Scalar::add(3, 4), 7);
        assert_eq!(Scalar::sub(3, 4), u64::MAX);
        assert_eq!(Scalar::mul(3, 4), 12);
        assert_eq!(Scalar::max(3, 4), 4);
    }

    #[test]
    fn scalar_horizontal_ops_are_identity() {
        assert_eq!(Scalar::hadd(42), 42);
        assert_eq!(Scalar::hmax(42), 42);
    }

    #[test]
    fn scalar_load_store_sequence() {
        let src = [11u64, 22];
        let reg = Scalar::load(&src);
        assert_eq!(reg, 11);
        let mut dst = [0u64; 1];
        Scalar::store(&mut dst, reg);
        assert_eq!(dst, [11]);
        assert_eq!(Scalar::set1(9), 9);
    }
}
