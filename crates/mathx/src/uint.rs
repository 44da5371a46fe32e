//! The fixed-width unsigned integer type.

use crate::slice_ops;
use core::cmp::Ordering;
use core::fmt;
use rand::Rng;

/// Fixed-width unsigned integer with `L` little-endian 64-bit limbs.
///
/// Widths used across the workspace are exposed as the aliases
/// [`U128`], [`U256`], [`U512`], [`U1024`], [`U2048`], [`U3072`],
/// [`U4096`]. Arithmetic that can overflow comes in `wrapping_*` /
/// `overflowing_*` flavours.
///
/// ```
/// use vbx_mathx::U256;
/// let a = U256::from_u64(1_000_000_007);
/// let b = U256::from_u64(998_244_353);
/// let (q, r) = a.checked_mul(&b).unwrap().div_rem(&b);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize>(pub(crate) [u64; L]);

/// 128-bit unsigned integer (2 limbs).
pub type U128 = Uint<2>;
/// 256-bit unsigned integer (4 limbs).
pub type U256 = Uint<4>;
/// 512-bit unsigned integer (8 limbs).
pub type U512 = Uint<8>;
/// 1024-bit unsigned integer (16 limbs).
pub type U1024 = Uint<16>;
/// 2048-bit unsigned integer (32 limbs).
pub type U2048 = Uint<32>;
/// 3072-bit unsigned integer (48 limbs).
pub type U3072 = Uint<48>;
/// 4096-bit unsigned integer (64 limbs).
pub type U4096 = Uint<64>;

impl<const L: usize> Uint<L> {
    /// Number of limbs.
    pub const LIMBS: usize = L;
    /// Width in bits.
    pub const BITS: usize = L * 64;
    /// The value 0.
    pub const ZERO: Self = Self([0; L]);
    /// The value 1.
    pub const ONE: Self = {
        let mut limbs = [0; L];
        limbs[0] = 1;
        Self(limbs)
    };
    /// The maximum representable value (all bits set).
    pub const MAX: Self = Self([u64::MAX; L]);

    /// Construct from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0; L];
        limbs[0] = v;
        Self(limbs)
    }

    /// Construct from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        assert!(L >= 2);
        let mut limbs = [0; L];
        limbs[0] = v as u64;
        limbs[1] = (v >> 64) as u64;
        Self(limbs)
    }

    /// Construct from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; L]) -> Self {
        Self(limbs)
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64; L] {
        &self.0
    }

    /// Lowest limb as `u64` (truncating).
    pub fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        slice_ops::is_zero(&self.0)
    }

    /// True iff the value is one.
    pub fn is_one(&self) -> bool {
        self.0[0] == 1 && self.0[1..].iter().all(|&l| l == 0)
    }

    /// True iff the lowest bit is zero.
    pub fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        slice_ops::bits(&self.0)
    }

    /// Read bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        slice_ops::bit(&self.0, i)
    }

    /// Set bit `i` to 1.
    pub fn set_bit(&mut self, i: usize) {
        assert!(i < Self::BITS);
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Wrapping addition with carry-out flag.
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = *self;
        let carry = slice_ops::add_assign(&mut out.0, &rhs.0);
        (out, carry != 0)
    }

    /// Wrapping subtraction with borrow-out flag.
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = *self;
        let borrow = slice_ops::sub_assign(&mut out.0, &rhs.0);
        (out, borrow != 0)
    }

    /// Addition that panics on overflow.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction that returns `None` on underflow.
    pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Wrapping (mod 2^BITS) addition.
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Wrapping (mod 2^BITS) subtraction.
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Widening multiplication: returns `(low, high)` halves of the
    /// `2·BITS`-bit product.
    pub fn mul_wide(&self, rhs: &Self) -> (Self, Self) {
        let mut out = vec![0u64; 2 * L];
        slice_ops::mul(&mut out, &self.0, &rhs.0);
        let mut lo = [0u64; L];
        let mut hi = [0u64; L];
        lo.copy_from_slice(&out[..L]);
        hi.copy_from_slice(&out[L..]);
        (Self(lo), Self(hi))
    }

    /// Truncating multiplication (panics if the product overflows, in
    /// debug builds).
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        self.mul_wide(rhs).0
    }

    /// Multiplication returning `None` on overflow.
    pub fn checked_mul(&self, rhs: &Self) -> Option<Self> {
        let (lo, hi) = self.mul_wide(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// Shift left by `n` bits (panics if `n >= BITS`).
    #[allow(clippy::needless_range_loop)]
    pub fn shl(&self, n: usize) -> Self {
        assert!(n < Self::BITS);
        let mut out = [0u64; L];
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        for i in (0..L).rev() {
            if i < limb_shift {
                break;
            }
            let src = i - limb_shift;
            let mut v = self.0[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                v |= self.0[src - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        Self(out)
    }

    /// Shift right by `n` bits (panics if `n >= BITS`).
    #[allow(clippy::needless_range_loop)]
    pub fn shr(&self, n: usize) -> Self {
        assert!(n < Self::BITS);
        let mut out = [0u64; L];
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        for i in 0..L {
            let src = i + limb_shift;
            if src >= L {
                break;
            }
            let mut v = self.0[src] >> bit_shift;
            if bit_shift > 0 && src + 1 < L {
                v |= self.0[src + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        Self(out)
    }

    /// Quotient and remainder. Panics if `den` is zero.
    pub fn div_rem(&self, den: &Self) -> (Self, Self) {
        assert!(!den.is_zero(), "division by zero");
        let mut num = self.0;
        let mut quot = [0u64; L];
        slice_ops::div_rem(&mut num, &den.0, Some(&mut quot));
        (Self(quot), Self(num))
    }

    /// Remainder only.
    pub fn rem(&self, den: &Self) -> Self {
        let mut num = self.0;
        slice_ops::div_rem(&mut num, &den.0, None);
        Self(num)
    }

    /// Big-endian byte encoding (fixed width, `L * 8` bytes).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(L * 8);
        self.extend_be_bytes(&mut out);
        out
    }

    /// Append the big-endian byte encoding (`L * 8` bytes) to `out`.
    pub fn extend_be_bytes(&self, out: &mut Vec<u8>) {
        for limb in self.0.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
    }

    /// Parse from big-endian bytes. Bytes beyond the width are rejected
    /// unless they are leading zeros.
    pub fn from_be_bytes(bytes: &[u8]) -> Option<Self> {
        let mut trimmed = bytes;
        while let Some((&0, rest)) = trimmed.split_first() {
            trimmed = rest;
        }
        if trimmed.len() > L * 8 {
            return None;
        }
        let mut limbs = [0u64; L];
        for (i, &b) in trimmed.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        Some(Self(limbs))
    }

    /// Parse from a hex string (whitespace tolerated, no `0x` prefix
    /// required). Returns `None` if invalid or too wide.
    pub fn from_hex(s: &str) -> Option<Self> {
        let cleaned: String = s
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_')
            .collect();
        let cleaned = cleaned.strip_prefix("0x").unwrap_or(&cleaned);
        if cleaned.is_empty() || !cleaned.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        if cleaned.len() > L * 16 {
            // allow leading zeros
            let nonzero = cleaned.trim_start_matches('0');
            if nonzero.len() > L * 16 {
                return None;
            }
        }
        let mut limbs = [0u64; L];
        for (i, c) in cleaned.chars().rev().enumerate() {
            let nibble = c.to_digit(16).unwrap() as u64;
            let limb = i / 16;
            if limb >= L {
                if nibble != 0 {
                    return None;
                }
                continue;
            }
            limbs[limb] |= nibble << (4 * (i % 16));
        }
        Some(Self(limbs))
    }

    /// Lower-case hex rendering without leading zeros (at least one digit).
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let mut started = false;
        for limb in self.0.iter().rev() {
            if started {
                s.push_str(&format!("{limb:016x}"));
            } else if *limb != 0 {
                s.push_str(&format!("{limb:x}"));
                started = true;
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// Uniformly random value with exactly `bits` significant bits
    /// (top bit forced to 1).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0 && bits <= Self::BITS);
        let mut limbs = [0u64; L];
        let full = bits / 64;
        for limb in limbs.iter_mut().take(full) {
            *limb = rng.gen();
        }
        let rem = bits % 64;
        if rem > 0 {
            limbs[full] = rng.gen::<u64>() >> (64 - rem);
        }
        let mut v = Self(limbs);
        v.set_bit(bits - 1);
        v
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero());
        let nbits = bound.bits();
        loop {
            let mut limbs = [0u64; L];
            let full = nbits / 64;
            for limb in limbs.iter_mut().take(full) {
                *limb = rng.gen();
            }
            let rem = nbits % 64;
            if rem > 0 {
                limbs[full] = rng.gen::<u64>() >> (64 - rem);
            }
            let v = Self(limbs);
            if v < *bound {
                return v;
            }
        }
    }

    /// Widen (or narrow, if the value fits) to another limb count.
    /// Returns `None` when narrowing would truncate non-zero limbs.
    pub fn resize<const M: usize>(&self) -> Option<Uint<M>> {
        let mut limbs = [0u64; M];
        for (i, &l) in self.0.iter().enumerate() {
            if i < M {
                limbs[i] = l;
            } else if l != 0 {
                return None;
            }
        }
        Some(Uint(limbs))
    }
}

impl<const L: usize> Default for Uint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        slice_ops::cmp(&self.0, &other.0)
    }
}

impl<const L: usize> fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint<{}>(0x{})", L, self.to_hex())
    }
}

impl<const L: usize> fmt::Display for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl<const L: usize> From<u64> for Uint<L> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert!(U256::ONE.is_one());
        assert_eq!(U256::BITS, 256);
    }

    #[test]
    fn add_sub() {
        let a = U256::from_u64(10);
        let b = U256::from_u64(3);
        assert_eq!(a.wrapping_sub(&b), U256::from_u64(7));
        assert_eq!(a.wrapping_add(&b), U256::from_u64(13));
        assert_eq!(U256::MAX.overflowing_add(&U256::ONE), (U256::ZERO, true));
        assert_eq!(U256::ZERO.overflowing_sub(&U256::ONE), (U256::MAX, true));
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = U256::from_u128(0xDEAD_BEEF_0123_4567_89AB_CDEF);
        let b = U256::from_u64(0xFFFF_FFFF);
        let p = a.checked_mul(&b).unwrap();
        let (q, r) = p.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
    }

    #[test]
    fn hex_roundtrip() {
        let a = U256::from_hex("deadbeef0123456789abcdef").unwrap();
        assert_eq!(a.to_hex(), "deadbeef0123456789abcdef");
        let b = U256::from_hex(&a.to_hex()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hex_with_whitespace() {
        let a = U128::from_hex("FFFF FFFF  0000_0001").unwrap();
        assert_eq!(a, U128::from_u128(0xFFFF_FFFF_0000_0001));
    }

    #[test]
    fn be_bytes_roundtrip() {
        let a = U256::from_u128(0x0102_0304_0506_0708_090A_0B0C_0D0E_0F10);
        let bytes = a.to_be_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(U256::from_be_bytes(&bytes).unwrap(), a);
        // short input with implicit leading zeros
        assert_eq!(U256::from_be_bytes(&[1, 0]).unwrap(), U256::from_u64(256));
    }

    #[test]
    fn shifts() {
        let a = U256::from_u64(1);
        assert_eq!(a.shl(200).shr(200), a);
        assert_eq!(a.shl(64), U256::from_limbs([0, 1, 0, 0]));
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_limbs([0, 0, 0, 1]);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn resize_widen_narrow() {
        let a = U128::from_u128(u128::MAX);
        let w: U256 = a.resize().unwrap();
        assert_eq!(w.bits(), 128);
        let back: U128 = w.resize().unwrap();
        assert_eq!(back, a);
        let too_big: Option<U128> = U256::MAX.resize();
        assert!(too_big.is_none());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::thread_rng();
        let bound = U256::from_u64(1000);
        for _ in 0..100 {
            let v = U256::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_top_bit() {
        let mut rng = rand::thread_rng();
        for bits in [1usize, 63, 64, 65, 255, 256] {
            let v = U256::random_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits);
        }
    }
}
