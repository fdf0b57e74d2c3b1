//! Emulated wide backends: 2, 4 and 8 lanes of `u64` in fixed-size arrays.
//!
//! The lane-wise loops below are written so that the optimiser turns them
//! into SSE/AVX2/AVX-512/NEON instructions on targets where those are
//! available (the arrays have a constant, power-of-two length and the loops
//! have no data-dependent control flow).  This reproduces the
//! hardware-oblivious design of the TVL: one operator implementation,
//! specialised per register width by a type parameter, without committing the
//! source code to a particular instruction set.

use crate::VectorExtension;

/// Generic emulated register of `L` 64-bit lanes.
///
/// `V128`, `V256` and `V512` correspond to SSE, AVX2 and AVX-512 register
/// widths.  The engine runs only `V512` (its vectorised processing style);
/// `V128` and `V256` are test references.  `V128` never takes the AVX2
/// kernels of [`x86`](crate::x86), so it is the portable path the tests
/// compare with the AVX2 path that `V256` and `V512` take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wide<const L: usize>;

/// 128-bit registers (2 × u64 lanes).
pub type V128 = Wide<2>;
/// 256-bit registers (4 × u64 lanes).
pub type V256 = Wide<4>;
/// 512-bit registers (8 × u64 lanes).
pub type V512 = Wide<8>;

impl<const L: usize> VectorExtension for Wide<L> {
    const LANES: usize = L;
    type Reg = [u64; L];

    #[inline(always)]
    fn set1(value: u64) -> [u64; L] {
        [value; L]
    }

    #[inline(always)]
    fn load(src: &[u64]) -> [u64; L] {
        let mut reg = [0u64; L];
        reg.copy_from_slice(&src[..L]);
        reg
    }

    #[inline(always)]
    fn store(dst: &mut [u64], reg: [u64; L]) {
        dst[..L].copy_from_slice(&reg);
    }

    #[inline(always)]
    fn add(a: [u64; L], b: [u64; L]) -> [u64; L] {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = a[i].wrapping_add(b[i]);
        }
        out
    }

    #[inline(always)]
    fn sub(a: [u64; L], b: [u64; L]) -> [u64; L] {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = a[i].wrapping_sub(b[i]);
        }
        out
    }

    #[inline(always)]
    fn mul(a: [u64; L], b: [u64; L]) -> [u64; L] {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = a[i].wrapping_mul(b[i]);
        }
        out
    }

    #[inline(always)]
    fn max(a: [u64; L], b: [u64; L]) -> [u64; L] {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = a[i].max(b[i]);
        }
        out
    }

    #[inline(always)]
    fn hadd(a: [u64; L]) -> u64 {
        let mut acc = 0u64;
        for lane in a {
            acc = acc.wrapping_add(lane);
        }
        acc
    }

    #[inline(always)]
    fn hmax(a: [u64; L]) -> u64 {
        let mut acc = 0u64;
        for lane in a {
            acc = acc.max(lane);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq<const L: usize>() -> [u64; L] {
        std::array::from_fn(|i| i as u64)
    }

    #[test]
    fn lane_counts() {
        assert_eq!(V128::LANES, 2);
        assert_eq!(V256::LANES, 4);
        assert_eq!(V512::LANES, 8);
    }

    #[test]
    fn load_store_roundtrip() {
        let src: Vec<u64> = (100..108).collect();
        let reg = V512::load(&src);
        let mut dst = vec![0u64; 8];
        V512::store(&mut dst, reg);
        assert_eq!(dst, src);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = seq::<4>();
        let b = V256::set1(10);
        assert_eq!(V256::add(a, b), [10, 11, 12, 13]);
        assert_eq!(V256::sub(b, a), [10, 9, 8, 7]);
        assert_eq!(V256::mul(a, b), [0, 10, 20, 30]);
        assert_eq!(V256::max(a, V256::set1(2)), [2, 2, 2, 3]);
    }

    #[test]
    fn wrapping_behaviour_matches_scalar() {
        let a = V128::set1(u64::MAX);
        let b = V128::set1(2);
        assert_eq!(V128::add(a, b), [1, 1]);
        assert_eq!(V128::sub([0, 0], [1, 1]), [u64::MAX, u64::MAX]);
        assert_eq!(V128::mul(a, b), [u64::MAX - 1, u64::MAX - 1]);
    }

    #[test]
    fn horizontal_reductions() {
        let a = seq::<8>();
        assert_eq!(V512::hadd(a), 28);
        assert_eq!(V512::hmax(a), 7);
    }
}
