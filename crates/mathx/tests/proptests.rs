//! Property tests for the multiprecision substrate: arithmetic laws
//! against native-integer references, division reconstruction, and
//! modular identities.

use proptest::prelude::*;
use vbx_mathx::{modular, FixedBaseTable, MontCtx, Uint, U128, U256};

fn u256(v: u128) -> U256 {
    U256::from_u128(v)
}

/// Full-width value from two u128 halves.
fn wide(lo: u128, hi: u128) -> U256 {
    U256::from_limbs([lo as u64, (lo >> 64) as u64, hi as u64, (hi >> 64) as u64])
}

/// A random odd 256-bit modulus > 1.
fn odd_modulus(lo: u128, hi: u128) -> U256 {
    let m = wide(lo | 1, hi);
    if m.is_one() {
        U256::from_u64(3)
    } else {
        m
    }
}

/// `R mod n` for `R = 2^(64·L)`, as `(R − n) mod n`: no Montgomery step.
fn r_mod<const L: usize>(n: &Uint<L>) -> Uint<L> {
    Uint::ZERO.wrapping_sub(n).rem(n)
}

/// Check `mont_mul` against `modular::mul_mod` (wide schoolbook product
/// and Knuth division, no Montgomery step). A result `x` that is
/// canonical (`x < n`) and satisfies `x·R ≡ a·b (mod n)` is exactly
/// `a·b·R⁻¹ mod n`, since `R` is invertible modulo an odd `n`.
///
/// `shape` picks the modulus: 0 random full width, 1 top limb
/// `u64::MAX` (the accumulator's carry word and the final subtraction
/// both fire), 2 a single low limb (every upper limb of `n` is zero).
fn check_mont_mul<const L: usize>(mut n: [u64; L], a: [u64; L], b: [u64; L], shape: u8) {
    n[0] |= 1;
    match shape {
        0 => {}
        1 => n[L - 1] = u64::MAX,
        _ => n[1..].fill(0),
    }
    let n = Uint::from_limbs(n);
    let n = if n.is_one() { Uint::from_u64(3) } else { n };
    let ctx = MontCtx::new(n);
    let r = r_mod(&n);
    assert_eq!(ctx.one(), r, "R mod n");
    let operands = [
        Uint::from_limbs(a).rem(&n),
        Uint::from_limbs(b).rem(&n),
        Uint::ZERO,
        Uint::ONE,
        n.wrapping_sub(&Uint::ONE),
        r,
    ];
    for x in &operands {
        for y in &operands {
            let got = ctx.mont_mul(x, y);
            assert!(got < n, "{x} · {y} mod {n}: {got} not reduced");
            assert_eq!(
                modular::mul_mod(&got, &r, &n),
                modular::mul_mod(x, y, &n),
                "{x} · {y} mod {n}"
            );
        }
        assert_eq!(ctx.to_mont(x), modular::mul_mod(x, &r, &n));
        assert_eq!(ctx.from_mont(&ctx.to_mont(x)), *x);
    }
}

proptest! {
    /// The fused Montgomery kernel at every width the system runs:
    /// `L = 4` (accumulator), `8` (RSA-1024 CRT halves), `16` (RSA-1024
    /// verify and the condensed-RSA sweep), plus `1` and `2`.
    #[test]
    fn mont_mul_matches_oracle_l1(n in any::<[u64; 1]>(), a in any::<[u64; 1]>(), b in any::<[u64; 1]>(), shape in 0u8..3) {
        check_mont_mul(n, a, b, shape);
    }

    #[test]
    fn mont_mul_matches_oracle_l2(n in any::<[u64; 2]>(), a in any::<[u64; 2]>(), b in any::<[u64; 2]>(), shape in 0u8..3) {
        check_mont_mul(n, a, b, shape);
    }

    #[test]
    fn mont_mul_matches_oracle_l4(n in any::<[u64; 4]>(), a in any::<[u64; 4]>(), b in any::<[u64; 4]>(), shape in 0u8..3) {
        check_mont_mul(n, a, b, shape);
    }

    #[test]
    fn mont_mul_matches_oracle_l8(n in any::<[u64; 8]>(), a in any::<[u64; 8]>(), b in any::<[u64; 8]>(), shape in 0u8..3) {
        check_mont_mul(n, a, b, shape);
    }

    #[test]
    fn mont_mul_matches_oracle_l16(n in any::<[u64; 16]>(), a in any::<[u64; 16]>(), b in any::<[u64; 16]>(), shape in 0u8..3) {
        check_mont_mul(n, a, b, shape);
    }
}

proptest! {
    #[test]
    fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let sum = u256(a as u128).wrapping_add(&u256(b as u128));
        prop_assert_eq!(sum, u256(a as u128 + b as u128));
    }

    #[test]
    fn sub_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        let diff = u256(hi).wrapping_sub(&u256(lo));
        prop_assert_eq!(diff, u256(hi - lo));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = u256(a as u128).checked_mul(&u256(b as u128)).unwrap();
        prop_assert_eq!(prod, u256(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_reconstructs(n in any::<u128>(), d in 1u128..) {
        let (q, r) = u256(n).div_rem(&u256(d));
        prop_assert_eq!(q, u256(n / d));
        prop_assert_eq!(r, u256(n % d));
        // reconstruction in the wide domain
        let back = q.checked_mul(&u256(d)).unwrap().checked_add(&r).unwrap();
        prop_assert_eq!(back, u256(n));
    }

    #[test]
    fn hex_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let v = U256::from_limbs([a as u64, (a >> 64) as u64, b as u64, (b >> 64) as u64]);
        prop_assert_eq!(U256::from_hex(&v.to_hex()).unwrap(), v);
    }

    #[test]
    fn be_bytes_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let v = U256::from_limbs([a as u64, (a >> 64) as u64, b as u64, (b >> 64) as u64]);
        prop_assert_eq!(U256::from_be_bytes(&v.to_be_bytes()).unwrap(), v);
    }

    #[test]
    fn shifts_invert(v in any::<u64>(), n in 0usize..190) {
        let x = u256(v as u128);
        prop_assert_eq!(x.shl(n).shr(n), x);
    }

    #[test]
    fn mont_mul_matches_generic(a in any::<u64>(), b in any::<u64>(), m in any::<u64>()) {
        let m = (m | 1).max(3); // odd modulus > 1
        let ctx = MontCtx::new(U128::from_u64(m));
        let x = U128::from_u64(a % m);
        let y = U128::from_u64(b % m);
        let fast = ctx.mul_mod(&x, &y);
        let slow = modular::mul_mod(&x, &y, &U128::from_u64(m));
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast, U128::from_u128((a % m) as u128 * (b % m) as u128 % m as u128));
    }

    #[test]
    fn pow_laws_mod_prime(a in 2u64..1_000_000, x in 0u64..200, y in 0u64..200) {
        // a^(x+y) == a^x · a^y (mod p) for prime p.
        const P: u64 = 1_000_000_007;
        let p = U128::from_u64(P);
        let ctx = MontCtx::new(p);
        let base = U128::from_u64(a);
        let lhs = ctx.pow_mod(&base, &U128::from_u64(x + y));
        let rhs = ctx.mul_mod(
            &ctx.pow_mod(&base, &U128::from_u64(x)),
            &ctx.pow_mod(&base, &U128::from_u64(y)),
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_mod_even_modulus_matches_naive(a in 1u64..1000, e in 0u32..12, m in 2u64..10_000) {
        let got = modular::pow_mod(
            &U128::from_u64(a),
            &U128::from_u64(e as u64),
            &U128::from_u64(m),
        );
        let mut expect = 1u128;
        for _ in 0..e {
            expect = expect * a as u128 % m as u128;
        }
        prop_assert_eq!(got, U128::from_u128(expect));
    }

    #[test]
    fn gcd_divides_both(a in 1u64.., b in 1u64..) {
        let g = modular::gcd(&U128::from_u64(a), &U128::from_u64(b));
        let gv = g.low_u64();
        prop_assert!(gv > 0);
        prop_assert_eq!(a % gv, 0);
        prop_assert_eq!(b % gv, 0);
        // matches Euclid on native ints
        fn native_gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        prop_assert_eq!(gv, native_gcd(a, b));
    }

    #[test]
    fn inverse_multiplies_to_one(a in 1u64.., m in 3u64..) {
        let am = U256::from_u64(a % m);
        let mm = U256::from_u64(m);
        if let Some(inv) = modular::inv_mod(&am, &mm) {
            prop_assert_eq!(modular::mul_mod(&am, &inv, &mm), U256::ONE);
        } else {
            // gcd must be > 1 when no inverse exists
            let g = modular::gcd(&am, &mm);
            prop_assert!(!g.is_one());
        }
    }

    #[test]
    fn resize_widen_is_lossless(a in any::<u128>()) {
        let v = U128::from_u128(a);
        let wide: U256 = v.resize().unwrap();
        let back: U128 = wide.resize().unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn ordering_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        prop_assert_eq!(u256(a).cmp(&u256(b)), a.cmp(&b));
    }

    /// The 4-bit sliding-window `pow_mod` is bit-identical to plain
    /// square-and-multiply over random full-width operands and moduli.
    #[test]
    fn windowed_pow_matches_naive_random(
        b in any::<(u128, u128)>(),
        e in any::<(u128, u128)>(),
        m in any::<(u128, u128)>(),
    ) {
        let modulus = odd_modulus(m.0, m.1);
        let ctx = MontCtx::new(modulus);
        let base = wide(b.0, b.1);
        let exp = wide(e.0, e.1);
        prop_assert_eq!(ctx.pow_mod(&base, &exp), ctx.pow_mod_naive(&base, &exp));
    }

    /// Windowed vs naive at the edge cases the fast path special-cases:
    /// zero exponent, tiny exponents (short-exponent path), exponent
    /// equal to / above the modulus, and max-width operands.
    #[test]
    fn windowed_pow_matches_naive_edges(
        b in any::<(u128, u128)>(),
        m in any::<(u128, u128)>(),
    ) {
        let modulus = odd_modulus(m.0, m.1);
        let ctx = MontCtx::new(modulus);
        let base = wide(b.0, b.1);
        let edges = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(65_537),
            modulus, // exponent >= group order
            modulus.wrapping_add(&U256::ONE),
            U256::MAX,
        ];
        for e in edges {
            prop_assert_eq!(ctx.pow_mod(&base, &e), ctx.pow_mod_naive(&base, &e));
        }
    }

    /// `mont_sqr` is bit-identical to `mont_mul(a, a)` for any operand.
    #[test]
    fn mont_sqr_matches_mont_mul(a in any::<(u128, u128)>(), m in any::<(u128, u128)>()) {
        let ctx = MontCtx::new(odd_modulus(m.0, m.1));
        let am = ctx.to_mont(&wide(a.0, a.1));
        prop_assert_eq!(ctx.mont_sqr(&am), ctx.mont_mul(&am, &am));
    }

    /// Fixed-base comb lifts are bit-identical to the naive path for any
    /// base and exponent (including exponents above the modulus).
    #[test]
    fn fixed_base_matches_naive(
        b in any::<(u128, u128)>(),
        e in any::<(u128, u128)>(),
        m in any::<(u128, u128)>(),
    ) {
        let ctx = MontCtx::new(odd_modulus(m.0, m.1));
        let base = wide(b.0, b.1);
        let table = FixedBaseTable::new(&ctx, &base);
        let exp = wide(e.0, e.1);
        prop_assert_eq!(table.pow(&ctx, &exp), ctx.pow_mod_naive(&base, &exp));
        prop_assert_eq!(table.pow(&ctx, &U256::ZERO), ctx.pow_mod_naive(&base, &U256::ZERO));
        prop_assert_eq!(table.pow(&ctx, &U256::MAX), ctx.pow_mod_naive(&base, &U256::MAX));
    }
}
