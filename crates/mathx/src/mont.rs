//! Montgomery-form modular arithmetic.
//!
//! [`MontCtx`] precomputes everything needed for fast repeated modular
//! multiplication and exponentiation modulo an odd modulus. Exponentiation
//! is square-and-multiply with a reduction after every step — the
//! "repeated squaring coupled with modulo reductions" optimisation that
//! Section 3.2 of the paper prescribes for evaluating `h(x) = g^x mod p`.
//!
//! Every product — squarings, window multiplications, entering and
//! leaving Montgomery form — runs through one kernel,
//! [`MontCtx::mont_mul`]: a fused CIOS multiply-reduce over an `L`-limb
//! stack accumulator, with no heap or thread-local scratch.

use crate::slice_ops;
use crate::uint::Uint;

/// Precomputed context for arithmetic modulo an odd modulus `n`.
#[derive(Clone, Debug)]
pub struct MontCtx<const L: usize> {
    n: Uint<L>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64·L)`; used to enter Montgomery form.
    r2: Uint<L>,
    /// `R mod n` — the Montgomery representation of 1.
    r1: Uint<L>,
}

/// Multiply-accumulate: `acc + a·b + carry` as `(low, high)` limbs. The
/// sum is at most `2^128 - 1`, so it never overflows.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let x = acc as u128 + a as u128 * b as u128 + carry as u128;
    (x as u64, (x >> 64) as u64)
}

/// Inverse of an odd `u64` modulo `2^64` via Newton–Hensel lifting.
fn inv64(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    let mut x = n; // 3 correct bits to start
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x
}

impl<const L: usize> MontCtx<L> {
    /// Create a context for the odd modulus `n > 1`.
    ///
    /// # Panics
    /// Panics if `n` is even or `n <= 1`.
    pub fn new(n: Uint<L>) -> Self {
        assert!(!n.is_even(), "Montgomery modulus must be odd");
        assert!(!n.is_one() && !n.is_zero(), "modulus must exceed 1");
        let n0_inv = inv64(n.limbs()[0]).wrapping_neg();

        // r1 = 2^(64L) mod n by long division.
        let mut num = vec![0u64; L + 1];
        num[L] = 1;
        slice_ops::div_rem(&mut num, n.limbs(), None);
        let mut r1 = [0u64; L];
        r1.copy_from_slice(&num[..L]);
        let r1 = Uint::from_limbs(r1);

        // r2 = r1^2 mod n via a wide product + long division.
        let mut prod = vec![0u64; 2 * L];
        slice_ops::mul(&mut prod, r1.limbs(), r1.limbs());
        slice_ops::div_rem(&mut prod, n.limbs(), None);
        let mut r2 = [0u64; L];
        r2.copy_from_slice(&prod[..L]);
        let r2 = Uint::from_limbs(r2);

        Self { n, n0_inv, r2, r1 }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Uint<L> {
        &self.n
    }

    /// Montgomery product: `a·b·R^{-1} mod n` (inputs in Montgomery form,
    /// or any values `< R`).
    ///
    /// One fused CIOS (coarsely integrated operand scanning) pass: each
    /// row adds `a·b_i` into an `L`-limb stack accumulator and at once
    /// adds the multiple `m_i·n` that clears its low limb, then shifts
    /// down one limb. The accumulator stays below `a + n < 2R`, so `L`
    /// limbs plus one carry word hold it and no `2L`-limb product is
    /// ever formed. The result is `(ab + mn)/R` followed by one
    /// conditional subtraction of `n`.
    #[inline]
    pub fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let (a, n) = (a.limbs(), self.n.limbs());
        let mut t = [0u64; L];
        let mut top = 0u64; // limb L of the accumulator: 0 or 1 between rows
        for &bi in b.limbs() {
            // t += a·b_i; the row's top may reach 2^64, so it stays wide.
            let mut c = 0u64;
            for (tj, &aj) in t.iter_mut().zip(a) {
                (*tj, c) = mac(*tj, aj, bi, c);
            }
            let wide = top as u128 + c as u128;
            // t = (t + m·n) / 2^64 with m chosen so the low limb clears.
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut c) = mac(t[0], m, n[0], 0);
            for j in 1..L {
                (t[j - 1], c) = mac(t[j], m, n[j], c);
            }
            let x = wide + c as u128;
            t[L - 1] = x as u64;
            top = (x >> 64) as u64;
        }
        if top != 0 || slice_ops::cmp(&t, n) != core::cmp::Ordering::Less {
            slice_ops::sub_assign(&mut t, n);
        }
        Uint::from_limbs(t)
    }

    /// Montgomery squaring: `a²·R^{-1} mod n` (input in Montgomery form).
    pub fn mont_sqr(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, a)
    }

    /// Enter Montgomery form: `a·R mod n`.
    pub fn to_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, &self.r2)
    }

    /// Leave Montgomery form: `a·R^{-1} mod n`.
    pub fn from_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.mont_mul(a, &Uint::ONE)
    }

    /// The Montgomery representation of 1 (`R mod n`).
    pub fn one(&self) -> Uint<L> {
        self.r1
    }

    /// Modular multiplication of plain (non-Montgomery) values.
    pub fn mul_mod(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.mont_mul(&am, &bm))
    }

    /// Modular exponentiation `base^exp mod n` of plain values.
    ///
    /// 4-bit sliding-window exponentiation over Montgomery form: odd
    /// powers `base^1, base^3, …, base^15` are precomputed, and every
    /// squaring and multiplication is one fused
    /// [`mont_mul`](Self::mont_mul) that reduces as it multiplies — the
    /// "repeated squaring coupled with modulo reductions" optimisation
    /// Section 3.2 prescribes, with ~⅓ the multiplications of plain
    /// square-and-multiply.
    pub fn pow_mod(&self, base: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        self.pow_mod_varexp(base, exp.limbs())
    }

    /// Modular exponentiation with an exponent given as little-endian
    /// limbs of arbitrary width (used when exponents are wider than the
    /// modulus type).
    pub fn pow_mod_varexp(&self, base: &Uint<L>, exp: &[u64]) -> Uint<L> {
        let nbits = slice_ops::bits(exp);
        if nbits == 0 {
            return self.from_mont(&self.r1); // base^0 = 1
        }
        let base_m = self.to_mont(&base.rem(&self.n));
        if nbits <= 24 {
            // Short exponents — including RSA verify's e = 65537
            // (17 bits, 2 set bits): the 8-multiplication window table
            // would cost more than it saves below ~24 bits.
            let mut acc = base_m;
            for i in (0..nbits - 1).rev() {
                acc = self.mont_sqr(&acc);
                if slice_ops::bit(exp, i) {
                    acc = self.mont_mul(&acc, &base_m);
                }
            }
            return self.from_mont(&acc);
        }

        // Odd powers base^(2k+1) for k in 0..8, in Montgomery form.
        let base_sq = self.mont_sqr(&base_m);
        let mut odd = [base_m; 8];
        for k in 1..8 {
            odd[k] = self.mont_mul(&odd[k - 1], &base_sq);
        }

        let mut acc = self.r1; // 1 in Montgomery form
        let mut i = nbits as isize - 1;
        while i >= 0 {
            if !slice_ops::bit(exp, i as usize) {
                acc = self.mont_sqr(&acc);
                i -= 1;
                continue;
            }
            // Greedy window [j, i] of at most 4 bits ending on a set bit.
            let mut j = (i - 3).max(0);
            while !slice_ops::bit(exp, j as usize) {
                j += 1;
            }
            let mut val = 0usize;
            for k in (j..=i).rev() {
                val = (val << 1) | slice_ops::bit(exp, k as usize) as usize;
            }
            for _ in j..=i {
                acc = self.mont_sqr(&acc);
            }
            acc = self.mont_mul(&acc, &odd[val >> 1]);
            i = j - 1;
        }
        self.from_mont(&acc)
    }

    /// Reference modular exponentiation: plain left-to-right
    /// square-and-multiply, one Montgomery reduction per step. Kept as
    /// the baseline the windowed/fixed-base fast paths are proven
    /// bit-identical to (see the property tests), and for measuring the
    /// speedup.
    pub fn pow_mod_naive(&self, base: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        let nbits = exp.bits();
        if nbits == 0 {
            return self.from_mont(&self.r1); // base^0 = 1
        }
        let base_m = self.to_mont(&base.rem(&self.n));
        let mut acc = self.r1; // 1 in Montgomery form
        for i in (0..nbits).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        self.from_mont(&acc)
    }

    /// Modular squaring of a plain value.
    pub fn sqr_mod(&self, a: &Uint<L>) -> Uint<L> {
        self.mul_mod(a, a)
    }
}

/// A running product `∏ x_i mod n` of plain (non-Montgomery) values
/// that costs one Montgomery product per factor instead of the four
/// behind [`MontCtx::mul_mod`].
///
/// `mont_mul` of two plain values loses one factor of `R`, so after `k`
/// factors the accumulator holds `∏ x_i · R^{-k}`; [`value`](Self::value)
/// multiplies the `R^k` back in once, at `O(log k)` products.
#[derive(Clone, Debug)]
pub struct MontProduct<const L: usize> {
    /// `∏ x_i · R^{-factors} mod n`.
    acc: Uint<L>,
    factors: u64,
}

impl<const L: usize> Default for MontProduct<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const L: usize> MontProduct<L> {
    /// The empty product (`value` is 1).
    pub fn new() -> Self {
        Self {
            acc: Uint::ONE,
            factors: 0,
        }
    }

    /// Multiply in one factor `x < n`.
    pub fn mul(&mut self, ctx: &MontCtx<L>, x: &Uint<L>) {
        self.acc = ctx.mont_mul(&self.acc, x);
        self.factors += 1;
    }

    /// Multiply in a whole other product — one Montgomery product, which
    /// (like any other) counts as one more factor of `R^{-1}`.
    pub fn mul_product(&mut self, ctx: &MontCtx<L>, other: &Self) {
        self.acc = ctx.mont_mul(&self.acc, &other.acc);
        self.factors += other.factors + 1;
    }

    /// Factors multiplied in so far.
    pub fn factors(&self) -> u64 {
        self.factors
    }

    /// The product `∏ x_i mod n` as a plain value; `ctx` must be the
    /// context every factor was multiplied in under.
    pub fn value(&self, ctx: &MontCtx<L>) -> Uint<L> {
        // acc · R^{k+1} · R^{-1} = ∏ x_i · R^{-k} · R^k.
        let r_k1 = ctx.pow_mod_varexp(&ctx.r1, &[self.factors + 1]);
        ctx.mont_mul(&self.acc, &r_k1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uint::{U128, U256};

    #[test]
    fn mont_product_matches_mul_mod_chain() {
        let n = U256::from_hex("9f9b41d4cd3cc3db42914b1df5f84da30c82ed1e4728e754fda103b8924619f3")
            .unwrap();
        let ctx = MontCtx::new(n);
        let mut prod = MontProduct::new();
        let mut chain = U256::ONE;
        assert_eq!(prod.value(&ctx), chain);
        for i in 1..=300u64 {
            let x = U256::from_limbs([i, i ^ 0xABCD, i.rotate_left(17), i]).rem(&n);
            prod.mul(&ctx, &x);
            chain = ctx.mul_mod(&chain, &x);
            assert_eq!(prod.value(&ctx), chain, "after {i} factors");
        }
        assert_eq!(prod.factors(), 300);

        // Product of products, including an empty one.
        let mut inner = MontProduct::new();
        for i in 1..=7u64 {
            let x = U256::from_limbs([i, 3, i << 40, 9]).rem(&n);
            inner.mul(&ctx, &x);
            chain = ctx.mul_mod(&chain, &x);
        }
        prod.mul_product(&ctx, &inner);
        prod.mul_product(&ctx, &MontProduct::new());
        assert_eq!(prod.value(&ctx), chain);
        assert_eq!(prod.factors(), 300 + 7 + 2);
    }

    #[test]
    fn inv64_works() {
        for n in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            assert_eq!(n.wrapping_mul(inv64(n)), 1);
        }
    }

    #[test]
    fn mont_roundtrip() {
        let n = U256::from_u64(1_000_003); // odd modulus
        let ctx = MontCtx::new(n);
        let a = U256::from_u64(123_456);
        let am = ctx.to_mont(&a);
        assert_eq!(ctx.from_mont(&am), a);
    }

    #[test]
    fn mul_mod_small() {
        let n = U128::from_u64(97);
        let ctx = MontCtx::new(n);
        let a = U128::from_u64(53);
        let b = U128::from_u64(80);
        assert_eq!(ctx.mul_mod(&a, &b), U128::from_u64(53 * 80 % 97));
    }

    #[test]
    fn pow_mod_fermat() {
        // 2^(p-1) = 1 mod p for prime p
        let p = U128::from_u64(1_000_000_007);
        let ctx = MontCtx::new(p);
        let r = ctx.pow_mod(&U128::from_u64(2), &U128::from_u64(1_000_000_006));
        assert_eq!(r, U128::ONE);
    }

    #[test]
    fn pow_mod_zero_exponent() {
        let p = U128::from_u64(101);
        let ctx = MontCtx::new(p);
        assert_eq!(ctx.pow_mod(&U128::from_u64(7), &U128::ZERO), U128::ONE);
    }

    #[test]
    fn pow_mod_matches_naive() {
        let p = U128::from_u64(2_147_483_659); // prime
        let ctx = MontCtx::new(p);
        let mut expected = 1u128;
        let base = 1234_5678u128;
        for e in 0..40u64 {
            let got = ctx.pow_mod(&U128::from_u64(base as u64), &U128::from_u64(e));
            assert_eq!(got, U128::from_u128(expected), "exp {e}");
            expected = expected * base % 2_147_483_659u128;
        }
    }

    #[test]
    fn pow_mod_big_modulus() {
        // (a*b) mod n computed two ways
        let n = U256::from_hex("f000000000000000000000000000000000000000000000000000000000000001")
            .unwrap();
        let ctx = MontCtx::new(n);
        let a = U256::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let sq1 = ctx.mul_mod(&a, &a);
        let sq2 = ctx.pow_mod(&a, &U256::from_u64(2));
        assert_eq!(sq1, sq2);
        // wide product check: a^2 mod n via div_rem
        let (lo, hi) = a.mul_wide(&a);
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(lo.limbs());
        wide[4..].copy_from_slice(hi.limbs());
        crate::slice_ops::div_rem(&mut wide, n.limbs(), None);
        let mut r = [0u64; 4];
        r.copy_from_slice(&wide[..4]);
        assert_eq!(sq1, U256::from_limbs(r));
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_modulus() {
        let _ = MontCtx::new(U128::from_u64(100));
    }

    #[test]
    fn mont_sqr_matches_mont_mul() {
        let n = U256::from_hex("9f9b41d4cd3cc3db42914b1df5f84da30c82ed1e4728e754fda103b8924619f3")
            .unwrap();
        let ctx = MontCtx::new(n);
        for seed in [1u64, 42, 0xFFFF_FFFF_FFFF_FFFF] {
            let a = ctx.to_mont(&U256::from_limbs([seed, seed ^ 7, seed.rotate_left(13), 0]));
            assert_eq!(ctx.mont_sqr(&a), ctx.mont_mul(&a, &a));
        }
    }

    #[test]
    fn windowed_pow_matches_naive() {
        let n = U256::from_hex("f000000000000000000000000000000000000000000000000000000000000001")
            .unwrap();
        let ctx = MontCtx::new(n);
        let base = U256::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let exps = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(65_537),
            U256::from_u64(0xDEAD_BEEF_CAFE),
            U256::MAX,
            n, // exponent >= modulus
        ];
        for e in exps {
            assert_eq!(
                ctx.pow_mod(&base, &e),
                ctx.pow_mod_naive(&base, &e),
                "exp {e}"
            );
        }
    }
}
