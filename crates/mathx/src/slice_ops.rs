//! Low-level arithmetic on little-endian `u64` limb slices.
//!
//! These are the shared kernels behind [`crate::Uint`], the generic
//! modular helpers and Montgomery setup. They operate on plain slices so
//! that double-width intermediates (wide products, long-division
//! numerators) can reuse the same code without const-generic width
//! arithmetic.

/// Add with carry: returns `(sum, carry_out)`.
#[inline(always)]
pub fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` with borrow in {0,1}.
#[inline(always)]
pub fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// `acc += b`, returning the final carry. `b` may be shorter than `acc`.
pub fn add_assign(acc: &mut [u64], b: &[u64]) -> u64 {
    debug_assert!(acc.len() >= b.len());
    let mut carry = 0u64;
    for (i, limb) in acc.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0);
        if rhs == 0 && carry == 0 && i >= b.len() {
            break;
        }
        let (s, c) = adc(*limb, rhs, carry);
        *limb = s;
        carry = c;
    }
    carry
}

/// `acc -= b`, returning the final borrow. `b` may be shorter than `acc`.
pub fn sub_assign(acc: &mut [u64], b: &[u64]) -> u64 {
    debug_assert!(acc.len() >= b.len());
    let mut borrow = 0u64;
    for (i, limb) in acc.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0);
        if rhs == 0 && borrow == 0 && i >= b.len() {
            break;
        }
        let (d, br) = sbb(*limb, rhs, borrow);
        *limb = d;
        borrow = br;
    }
    borrow
}

/// Lexicographic comparison of two equal-length limb slices.
pub fn cmp(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

/// True iff every limb is zero.
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Number of significant bits (index of highest set bit + 1; 0 for zero).
pub fn bits(a: &[u64]) -> usize {
    for i in (0..a.len()).rev() {
        if a[i] != 0 {
            return i * 64 + (64 - a[i].leading_zeros() as usize);
        }
    }
    0
}

/// Read bit `i` (little-endian bit order).
#[inline]
pub fn bit(a: &[u64], i: usize) -> bool {
    let limb = i / 64;
    if limb >= a.len() {
        return false;
    }
    (a[limb] >> (i % 64)) & 1 == 1
}

/// Shift right by one bit in place; returns the bit shifted out of the
/// bottom.
#[allow(dead_code)]
pub fn shr1(a: &mut [u64]) -> u64 {
    let mut carry = 0u64;
    for limb in a.iter_mut().rev() {
        let next = *limb & 1;
        *limb = (*limb >> 1) | (carry << 63);
        carry = next;
    }
    carry
}

/// Schoolbook multiplication: `out = a * b`. `out` must have length
/// `a.len() + b.len()` and is fully overwritten.
pub fn mul(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
}

/// Shift left by `s < 64` bits in place; returns the bits shifted out of
/// the top limb.
fn shl_bits(a: &mut [u64], s: u32) -> u64 {
    let mut carry = 0u64;
    for limb in a.iter_mut() {
        // Two-step shift: `>> (64 - s)` would overflow at `s == 0`.
        let next = (*limb >> 1) >> (63 - s);
        *limb = (*limb << s) | carry;
        carry = next;
    }
    carry
}

/// Shift right by `s < 64` bits in place.
fn shr_bits(a: &mut [u64], s: u32) {
    let mut carry = 0u64;
    for limb in a.iter_mut().rev() {
        let next = (*limb << 1) << (63 - s);
        *limb = (*limb >> s) | carry;
        carry = next;
    }
}

/// Long division: computes `num mod den` in place (into `num`) and, if
/// `quot` is provided, the quotient (must be at least `num.len()` limbs).
///
/// Word-level schoolbook division (Knuth, TAOCP vol. 2, 4.3.1,
/// algorithm D): one quotient limb per step from a 128-by-64-bit
/// estimate that the two-limb correction leaves at most one too large,
/// a multiply-subtract over the divisor, and the rare add-back. The
/// numerator is normalised in place (the limb shifted out of its top
/// rides in a register) and the normalised divisor's limbs are formed
/// as they are used, so the routine needs no buffer of either width.
///
/// # Panics
/// Panics if `den` is zero.
pub fn div_rem(num: &mut [u64], den: &[u64], mut quot: Option<&mut [u64]>) {
    // Limb counts up to the highest non-zero limb.
    let n = bits(den).div_ceil(64);
    assert!(n > 0, "division by zero");
    if let Some(q) = quot.as_deref_mut() {
        q.fill(0);
    }
    let nl = bits(num).div_ceil(64);
    if nl < n {
        return; // remainder is num itself, quotient zero
    }
    let den = &den[..n];

    if n == 1 {
        let d = den[0] as u128;
        let mut rem = 0u64;
        for i in (0..nl).rev() {
            let cur = (rem as u128) << 64 | num[i] as u128;
            let q = (cur / d) as u64;
            rem = (cur - q as u128 * d) as u64;
            num[i] = 0;
            if let Some(qs) = quot.as_deref_mut() {
                qs[i] = q;
            }
        }
        num[0] = rem;
        return;
    }

    // D1: normalise so the divisor's top bit is set. `hi` is the limb
    // above the current window `num[j..j + n]`.
    let s = den[n - 1].leading_zeros();
    let norm = |hi: u64, lo: u64| (hi << s) | ((lo >> 1) >> (63 - s));
    let v1 = norm(den[n - 1], den[n - 2]);
    let v2 = norm(den[n - 2], if n > 2 { den[n - 3] } else { 0 });
    let mut hi = shl_bits(&mut num[..nl], s);

    for j in (0..=nl - n).rev() {
        let u = &mut num[j..j + n];

        // D3: q̂ = ⌊(hi·b + u1) / v1⌋, lowered until q̂·v2 ≤ r̂·b + u2.
        // `hi ≤ v1` (the running remainder is below the divisor), so
        // q̂ ≤ b + 1 before the correction and at most one too large
        // after it.
        let top = (hi as u128) << 64 | u[n - 1] as u128;
        let mut qhat = top / v1 as u128;
        let mut rhat = top - qhat * v1 as u128;
        while qhat > u64::MAX as u128 || qhat * v2 as u128 > (rhat << 64 | u[n - 2] as u128) {
            qhat -= 1;
            rhat += v1 as u128;
            if rhat > u64::MAX as u128 {
                break;
            }
        }
        let mut qhat = qhat as u64;

        // D4: window -= q̂ · v.
        let (mut carry, mut borrow, mut prev) = (0u64, 0u64, 0u64);
        for (ui, &di) in u.iter_mut().zip(den) {
            let p = qhat as u128 * norm(di, prev) as u128 + carry as u128;
            prev = di;
            carry = (p >> 64) as u64;
            (*ui, borrow) = sbb(*ui, p as u64, borrow);
        }
        let (rest, underflow) = sbb(hi, carry, borrow);

        // D6: q̂ was one too large — add the divisor back.
        if underflow != 0 {
            qhat -= 1;
            let (mut carry, mut prev) = (0u64, 0u64);
            for (ui, &di) in u.iter_mut().zip(den) {
                (*ui, carry) = adc(*ui, norm(di, prev), carry);
                prev = di;
            }
            debug_assert_eq!(rest.wrapping_add(carry), 0);
        } else {
            debug_assert_eq!(rest, 0);
        }

        if let Some(qs) = quot.as_deref_mut() {
            qs[j] = qhat;
        }
        // The window's top limb becomes the next step's `hi`; as part
        // of the remainder it ends up zero.
        if j > 0 {
            hi = core::mem::take(&mut num[j + n - 1]);
        }
    }

    // D8: the remainder is the low n limbs, denormalised.
    shr_bits(&mut num[..n], s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_sbb_roundtrip() {
        let (s, c) = adc(u64::MAX, 1, 0);
        assert_eq!((s, c), (0, 1));
        let (d, b) = sbb(0, 1, 0);
        assert_eq!((d, b), (u64::MAX, 1));
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut a = [5u64, 7, 9];
        let b = [1u64, 2, 3];
        assert_eq!(add_assign(&mut a, &b), 0);
        assert_eq!(a, [6, 9, 12]);
        assert_eq!(sub_assign(&mut a, &b), 0);
        assert_eq!(a, [5, 7, 9]);
    }

    #[test]
    fn mul_small() {
        let a = [0xFFFF_FFFF_FFFF_FFFFu64];
        let b = [0xFFFF_FFFF_FFFF_FFFFu64];
        let mut out = [0u64; 2];
        mul(&mut out, &a, &b);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(out, [1, 0xFFFF_FFFF_FFFF_FFFE]);
    }

    /// Shift left by one bit in place; returns the bit shifted out of
    /// the top.
    fn shl1(a: &mut [u64]) -> u64 {
        let mut carry = 0u64;
        for limb in a.iter_mut() {
            let next = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = next;
        }
        carry
    }

    /// Compare slices of possibly different lengths (treating missing
    /// high limbs as zero).
    fn cmp_varlen(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
        let n = a.len().max(b.len());
        for i in (0..n).rev() {
            let x = a.get(i).copied().unwrap_or(0);
            let y = b.get(i).copied().unwrap_or(0);
            match x.cmp(&y) {
                core::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// The bit-by-bit binary long division [`div_rem`] replaced, kept as
    /// the oracle the word-level version is checked against.
    fn div_rem_binary(num: &mut [u64], den: &[u64], mut quot: Option<&mut [u64]>) {
        assert!(!is_zero(den), "division by zero");
        if let Some(q) = quot.as_deref_mut() {
            q.fill(0);
        }
        let nbits = bits(num);
        if nbits < bits(den) {
            return;
        }
        let mut rem = vec![0u64; den.len() + 1];
        for i in (0..nbits).rev() {
            shl1(&mut rem);
            if bit(num, i) {
                rem[0] |= 1;
            }
            if cmp_varlen(&rem, den) != core::cmp::Ordering::Less {
                sub_assign(&mut rem, den);
                if let Some(q) = quot.as_deref_mut() {
                    q[i / 64] |= 1 << (i % 64);
                }
            }
        }
        num.fill(0);
        let n = num.len().min(rem.len());
        num[..n].copy_from_slice(&rem[..n]);
    }

    /// Divide both ways and check the word-level result against the
    /// oracle and against `q · den + r == num`, `r < den`.
    fn check_division(num: &[u64], den: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut r = num.to_vec();
        let mut q = vec![u64::MAX; num.len()]; // stale contents must be overwritten
        div_rem(&mut r, den, Some(&mut q));

        let mut r_ref = num.to_vec();
        let mut q_ref = vec![0u64; num.len()];
        div_rem_binary(&mut r_ref, den, Some(&mut q_ref));
        assert_eq!(q, q_ref, "quotient of {num:x?} / {den:x?}");
        assert_eq!(r, r_ref, "remainder of {num:x?} / {den:x?}");

        let mut r_only = num.to_vec();
        div_rem(&mut r_only, den, None);
        assert_eq!(r_only, r, "remainder without a quotient buffer");

        assert_eq!(cmp_varlen(&r, den), core::cmp::Ordering::Less, "r < den");
        let mut back = vec![0u64; q.len() + den.len()];
        mul(&mut back, &q, den);
        assert_eq!(add_assign(&mut back, &r), 0);
        assert_eq!(&back[..num.len()], num, "q * den + r == num");
        assert!(is_zero(&back[num.len()..]));
        (q, r)
    }

    #[test]
    fn div_rem_matches_binary_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::StdRng::seed_from_u64(0xD1D1_5EED);
        // Limb shapes that stress the estimate: all-ones, a lone top
        // bit, zero, small, and uniformly random.
        let limb = |rng: &mut rand::StdRng| match rng.gen_range(0..8u32) {
            0 => u64::MAX,
            1 => 1 << 63,
            2 => 0,
            3 => rng.gen_range(0..4u64),
            _ => rng.gen::<u64>(),
        };
        for _ in 0..4000 {
            let nl = rng.gen_range(1..=33usize);
            let dl = rng.gen_range(1..=33usize);
            let num: Vec<u64> = (0..nl).map(|_| limb(&mut rng)).collect();
            let mut den: Vec<u64> = (0..dl).map(|_| limb(&mut rng)).collect();
            // Leading zero limbs on the divisor, sometimes.
            let zeros = rng.gen_range(0..dl);
            if rng.gen_range(0..3u32) == 0 {
                den[dl - zeros..].fill(0);
            }
            if is_zero(&den) {
                den[0] = 1 + rng.gen_range(0..u64::MAX);
            }
            check_division(&num, &den);
        }
    }

    #[test]
    fn div_rem_edge_shapes() {
        // num < den, num == den, den with leading zero limbs.
        assert_eq!(check_division(&[5, 1], &[6, 1]), (vec![0, 0], vec![5, 1]));
        assert_eq!(check_division(&[6, 1], &[6, 1]), (vec![1, 0], vec![0, 0]));
        assert_eq!(
            check_division(&[6, 1, 0], &[6, 1, 0, 0]),
            (vec![1, 0, 0], vec![0, 0, 0])
        );
        assert_eq!(check_division(&[0, 0], &[9]), (vec![0, 0], vec![0, 0]));
        // Single-limb divisors, against a wide numerator.
        for d in [1u64, 2, 3, 10, 1 << 63, u64::MAX] {
            check_division(&[u64::MAX; 33], &[d]);
            check_division(&[u64::MAX; 33], &[d, 0, 0]);
        }
        // All-ones numerator against every divisor width below it.
        for dl in 1..=33 {
            check_division(&[u64::MAX; 33], &vec![u64::MAX; dl]);
            let mut den = vec![0u64; dl];
            den[dl - 1] = 1;
            check_division(&[u64::MAX; 33], &den);
            den[0] = 1;
            check_division(&[u64::MAX; 33], &den);
        }
        // The 2L+1-limb Montgomery buffers over a U2048 modulus.
        let mut r = vec![0u64; 65];
        r[64] = 1;
        let mut n = vec![0xDEAD_BEEF_0BAD_F00Du64; 32];
        n[0] |= 1;
        check_division(&r, &n);
    }

    #[test]
    fn div_rem_add_back_branch() {
        // The 64-bit analogues of Hacker's Delight's `divmnu` cases: the
        // corrected estimate is still one too large, so the
        // multiply-subtract underflows and the divisor is added back.
        const TOP: u64 = 1 << 63;
        let (q, r) = check_division(&[3, 0, TOP], &[1, 0, 1 << 61]);
        assert_eq!((q, r), (vec![3, 0, 0], vec![0, 0, 1 << 61]));
        let (q, _) = check_division(&[0, 0, TOP, TOP - 1], &[1, 0, TOP]);
        assert_eq!(q, vec![u64::MAX - 1, 0, 0, 0]);
        let (q, _) = check_division(&[0, u64::MAX - 1, 0, TOP], &[u64::MAX, 0, TOP]);
        assert_eq!(q, vec![u64::MAX, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_rem_rejects_zero_divisor() {
        div_rem(&mut [1, 2], &[0, 0], None);
    }

    #[test]
    fn div_rem_basic() {
        let mut num = [100u64, 0];
        let den = [7u64, 0];
        let mut q = [0u64; 2];
        div_rem(&mut num, &den, Some(&mut q));
        assert_eq!(num, [2, 0]);
        assert_eq!(q, [14, 0]);
    }

    #[test]
    fn div_rem_big() {
        // num = 2^127, den = 3 -> q = (2^127 - 2)/3 ... check via reconstruction
        let mut num = [0u64, 1 << 63];
        let den = [3u64, 0];
        let orig = num;
        let mut q = [0u64; 2];
        div_rem(&mut num, &den, Some(&mut q));
        // reconstruct q*3 + r == orig
        let mut prod = [0u64; 4];
        mul(&mut prod, &q, &den);
        add_assign(&mut prod, &num);
        assert_eq!(&prod[..2], &orig[..]);
        assert!(is_zero(&prod[2..]));
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(bits(&[0, 0]), 0);
        assert_eq!(bits(&[1, 0]), 1);
        assert_eq!(bits(&[0, 1]), 65);
        assert!(bit(&[0, 1], 64));
        assert!(!bit(&[0, 1], 63));
    }

    #[test]
    fn shifts() {
        let mut a = [1u64 << 63, 0];
        assert_eq!(shl1(&mut a), 0);
        assert_eq!(a, [0, 1]);
        assert_eq!(shr1(&mut a), 0);
        assert_eq!(a, [1 << 63, 0]);
    }
}
