//! Composing measures as linear systems.
//!
//! Every measure in this crate is obtained by solving `A x = b` where
//! `A = I − d·W` depends only on the snapshot graph and the damping factor,
//! and `b` encodes the query (Section 1 of the paper).  The matrix work is
//! done once per snapshot by a LUDEM solver; this module only builds the
//! right-hand sides and normalises results.

use clude_lu::{LuError, LuResult};
use clude_sparse::vector;

/// The damping factor used throughout the paper's examples.
pub const DEFAULT_DAMPING: f64 = 0.85;

/// Right-hand side of the global PageRank system: `b = ((1 − d)/n)·1`.
pub fn pagerank_rhs(n: usize, damping: f64) -> Vec<f64> {
    assert!(n > 0, "PageRank needs at least one node");
    vec![(1.0 - damping) / n as f64; n]
}

/// Right-hand side of a single-seed RWR / personalised PageRank system:
/// `b = (1 − d)·e_u`.
pub fn rwr_rhs(n: usize, seed: usize, damping: f64) -> Vec<f64> {
    assert!(seed < n, "seed node out of range");
    let mut b = vec![0.0; n];
    b[seed] = 1.0 - damping;
    b
}

/// Right-hand side of a multi-seed personalised PageRank system with a
/// uniform restart distribution over `seeds`: `b = (1 − d)·q`, `q` uniform on
/// the seed set.  Used by the paper's §7 case study (a company's patents form
/// the seed set).
///
/// # Panics
/// Panics on an empty seed set or a seed outside `0..n`;
/// [`crate::personalized_pagerank`] refuses both as errors first.
pub fn ppr_rhs(n: usize, seeds: &[usize], damping: f64) -> Vec<f64> {
    assert!(!seeds.is_empty(), "the seed set must not be empty");
    assert!(seeds.iter().all(|&s| s < n), "seed node out of range");
    let mut b = vec![0.0; n];
    let mass = (1.0 - damping) / seeds.len() as f64;
    for &s in seeds {
        b[s] += mass;
    }
    b
}

/// Normalises a raw solution into a probability distribution (the solutions
/// of the damped systems already sum to ~1, but truncation and dangling nodes
/// introduce small deviations).
pub fn normalize_scores(mut scores: Vec<f64>) -> Vec<f64> {
    vector::normalize_l1(&mut scores);
    scores
}

/// Sums the scores of a group of nodes — e.g. all patents of one company —
/// which is how the case study turns node scores into a company proximity.
/// A member outside `scores` is [`LuError::InvalidParameter`] named
/// `"group"`.
pub fn group_score(scores: &[f64], members: &[usize]) -> LuResult<f64> {
    members
        .iter()
        .map(|&m| {
            scores.get(m).copied().ok_or(LuError::InvalidParameter {
                name: "group",
                value: m as f64,
            })
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_rhs_sums_to_one_minus_d() {
        let b = pagerank_rhs(10, 0.85);
        assert!((b.iter().sum::<f64>() - 0.15).abs() < 1e-12);
        assert!(b.iter().all(|&v| (v - 0.015).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn pagerank_rhs_rejects_empty_graph() {
        pagerank_rhs(0, 0.85);
    }

    #[test]
    fn rwr_rhs_is_an_indicator() {
        let b = rwr_rhs(5, 2, 0.85);
        assert_eq!(b[2], 0.15000000000000002);
        assert_eq!(b.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn ppr_rhs_spreads_mass_uniformly() {
        let b = ppr_rhs(6, &[1, 4], 0.8);
        assert!((b[1] - 0.1).abs() < 1e-12);
        assert!((b[4] - 0.1).abs() < 1e-12);
        assert!((b.iter().sum::<f64>() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "seed set")]
    fn ppr_rhs_rejects_empty_seed_set() {
        ppr_rhs(5, &[], 0.85);
    }

    #[test]
    fn normalize_and_group() {
        let scores = normalize_scores(vec![1.0, 1.0, 2.0]);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((group_score(&scores, &[0, 2]).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn group_score_refuses_a_member_out_of_range() {
        let refused = group_score(&[0.5, 0.5], &[1, 2]);
        assert!(matches!(
            refused,
            Err(LuError::InvalidParameter { name: "group", value }) if value == 2.0
        ));
    }
}
