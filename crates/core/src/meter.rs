//! Operation counters for the cost model.
//!
//! Section 4 prices queries and updates in units of primitive operations:
//! `Cost_h1` (deriving an attribute digest), `Cost_h2` (combining two
//! digests), `Cost_s` (decrypting/verifying a signature), and signing.
//! [`CostMeter`] counts exactly those events in the real implementation so
//! the measured series in `vbx-bench` can be compared against the
//! analytical formulas (Figures 12–13, equations (10)–(12)).

use core::fmt;

/// Counters for the paper's primitive operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostMeter {
    /// Attribute-digest derivations (`Cost_h1`: one-way hash of
    /// db‖table‖attr‖key‖value).
    pub hash_ops: u64,
    /// Digest combinations (`Cost_h2`: one exponent multiplication).
    pub combine_ops: u64,
    /// Signature creations (central server only).
    pub sign_ops: u64,
    /// Signature verifications run (`Cost_s` — the paper's dominant
    /// client cost; a screen sweep over a whole response counts once).
    pub verify_ops: u64,
    /// Lifts `g^E mod p` (evaluations of the paper's `h(x)` at the top of
    /// the enveloping subtree).
    pub lift_ops: u64,
}

impl CostMeter {
    /// Fresh zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Sum of another meter into this one.
    pub fn absorb(&mut self, other: &CostMeter) {
        self.hash_ops += other.hash_ops;
        self.combine_ops += other.combine_ops;
        self.sign_ops += other.sign_ops;
        self.verify_ops += other.verify_ops;
        self.lift_ops += other.lift_ops;
    }

    /// Total cost in units of `Cost_h1`, with `combine_ratio` =
    /// `Cost_h2 / Cost_h1` and `x` = `Cost_s / Cost_h1` (the paper's `X`
    /// sweep in Figure 12; signing is priced at `sign_ratio`, typically
    /// `100·x` per the paper's citation of \[15\]).
    pub fn weighted(&self, combine_ratio: f64, x: f64, sign_ratio: f64) -> f64 {
        self.hash_ops as f64
            + self.combine_ops as f64 * combine_ratio
            + self.verify_ops as f64 * x
            + self.lift_ops as f64 * combine_ratio
            + self.sign_ops as f64 * sign_ratio
    }
}

impl fmt::Display for CostMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hash={} combine={} sign={} verify={} lift={}",
            self.hash_ops, self.combine_ops, self.sign_ops, self.verify_ops, self.lift_ops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums() {
        let mut a = CostMeter {
            hash_ops: 1,
            combine_ops: 2,
            sign_ops: 3,
            verify_ops: 4,
            lift_ops: 5,
        };
        a.absorb(&a.clone());
        assert_eq!(a.hash_ops, 2);
        assert_eq!(a.lift_ops, 10);
        a.reset();
        assert_eq!(a, CostMeter::default());
    }

    #[test]
    fn weighted_cost() {
        let m = CostMeter {
            hash_ops: 10,
            combine_ops: 4,
            sign_ops: 0,
            verify_ops: 2,
            lift_ops: 1,
        };
        // 10 + 4*0.5 + 2*10 + 1*0.5 = 32.5
        assert!((m.weighted(0.5, 10.0, 0.0) - 32.5).abs() < 1e-9);
    }
}
