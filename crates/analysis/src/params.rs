//! Table 1 — the parameters of the analysis, with the paper's defaults.

use vbx_storage::Geometry;

/// The cost-model parameters (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// `|D|` — length of a signed digest, bytes (default 16).
    pub digest_len: usize,
    /// `|K|` — search-key length, bytes (default 16).
    pub key_len: usize,
    /// `|P|` — node-pointer length, bytes (default 4).
    pub ptr_len: usize,
    /// `|B|` — block/node size, bytes (default 4096).
    pub block_size: usize,
    /// `N_R` — rows in the table (default 1 million).
    pub n_r: u64,
    /// `N_C` — attributes per tuple (default 10).
    pub n_c: usize,
    /// `Q_C` — attributes in the query result (default 10).
    pub q_c: usize,
    /// `|A|` — bytes per attribute value (the evaluation fixes 200-byte
    /// tuples with 10 × 20-byte attributes).
    pub attr_size: f64,
    /// `X = Cost_s / Cost_h1` — signature verification relative to one
    /// attribute-digest hash (default 10; Figure 12 sweeps {5, 10, 100}).
    pub x: f64,
    /// `Cost_h2 / Cost_h1` — combining two digests relative to hashing
    /// one attribute (Figure 13(a)'s `Cost_k/Cost_h` sweep; default 0.5,
    /// which reproduces the peaks of Figure 12).
    pub combine_ratio: f64,
    /// `Cost_sign / Cost_h1` — signature *generation* cost. The paper
    /// cites \[15\]: signing ≈ 100× verification ≈ 10000× hashing.
    pub sign_ratio: f64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            digest_len: 16,
            key_len: 16,
            ptr_len: 4,
            block_size: 4096,
            n_r: 1_000_000,
            n_c: 10,
            q_c: 10,
            attr_size: 20.0,
            x: 10.0,
            combine_ratio: 0.5,
            sign_ratio: 10_000.0,
        }
    }
}

impl Params {
    /// The node geometry implied by these parameters.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            block_size: self.block_size,
            key_len: self.key_len,
            ptr_len: self.ptr_len,
            digest_len: self.digest_len,
        }
    }

    /// Result size `N_Q` for a selectivity factor in `[0, 1]`.
    pub fn result_size(&self, selectivity: f64) -> u64 {
        assert!((0.0..=1.0).contains(&selectivity));
        ((self.n_r as f64) * selectivity).round() as u64
    }

    /// Number of filtered (projected-away) attributes per result tuple.
    pub fn filtered_cols(&self) -> usize {
        self.n_c.saturating_sub(self.q_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let p = Params::default();
        assert_eq!(p.digest_len, 16);
        assert_eq!(p.key_len, 16);
        assert_eq!(p.ptr_len, 4);
        assert_eq!(p.block_size, 4096);
        assert_eq!(p.n_r, 1_000_000);
        assert_eq!(p.n_c, 10);
        assert_eq!(p.q_c, 10);
        assert_eq!(p.x, 10.0);
    }

    #[test]
    fn result_size_rounds() {
        let p = Params::default();
        assert_eq!(p.result_size(0.0), 0);
        assert_eq!(p.result_size(0.2), 200_000);
        assert_eq!(p.result_size(1.0), 1_000_000);
    }

    #[test]
    fn filtered_cols_saturates() {
        let mut p = Params {
            q_c: 3,
            ..Params::default()
        };
        assert_eq!(p.filtered_cols(), 7);
        p.q_c = 12;
        assert_eq!(p.filtered_cols(), 0);
    }
}
