//! The cost model of CLUDE's member step.
//!
//! CLUDE reaches a cluster member from its predecessor by the cheaper of two
//! exact updates, priced here in nanoseconds from counts only: no clock is
//! read, so the same input decides the same way on every run.  Each function
//! is one term of the model.
//!
//! * [`sweep_ns`] — Bennett's rank-one sweeps, per factor entry touched; what
//!   a sweep will touch is predicted from the running share of the factor
//!   entries past sweeps touched, which a [`crate::Maintainer`] keeps and
//!   prices sweeps with ([`crate::Maintainer::sweep_ns`]);
//! * [`numeric_pass_ns`] — one numeric pass down a fixed structure (a
//!   pattern-frozen refactorization, or a factorization over a cluster's
//!   universal structure).
//!
//! The numeric pass has two terms, because no per-multiply-add constant is
//! right on both a dense 400-node block and a sparse 500-node one.  The
//! per-entry term carries what is linear in the factor size: the matrix
//! assembly, the kernel's per-row reach and the structure.  The per-work
//! term is the elimination loop.
//!
//! The streaming engine prices nothing: every shard slice the quality
//! trigger does not re-order takes the numeric pass over its changed rows'
//! elimination reach.

use crate::bennett::BennettStats;

// The model's constants, nanoseconds, private on purpose: they are measured,
// not tuned.  Read off the `clude_perf` probes on the `live-mono` (one 400-node
// block, 58 updates a batch) and `ingest-structure` (four 500-node blocks, 14
// updates a batch) matrices (CHANGES.md): `lu.bennett_us_per_pivot` over the
// entries a pivot touches and `lu.refactor_us_per_pass`.  Only their ratios
// decide anything, so a faster host moves no decision.
const BENNETT_NS_PER_ENTRY: f64 = 15.0;
const FROZEN_NS_PER_NNZ: f64 = 20.0;
const FROZEN_NS_PER_MADD: f64 = 2.5;
/// Factor entries one rank-one update touches, as a share of the factor
/// size, assumed before any sweep was seen (0.25–0.45 on the engine
/// workloads' blocks).
const PRIOR_REACH: f64 = 0.3;
/// Weight of the newest sweep in a running reach.
const REACH_GAIN: f64 = 0.25;

/// Bennett sweeps that touch `entries_touched` factor entries.
pub fn sweep_ns(entries_touched: u64) -> f64 {
    BENNETT_NS_PER_ENTRY * entries_touched as f64
}

/// One numeric pass over a fixed structure of `factor_nnz` slots doing
/// `multiply_adds` of elimination work.
pub fn numeric_pass_ns(factor_nnz: usize, multiply_adds: u64) -> f64 {
    FROZEN_NS_PER_NNZ * factor_nnz as f64 + FROZEN_NS_PER_MADD * multiply_adds as f64
}

/// The running share of the factor entries one rank-one update touches,
/// exponentially weighted over the sweeps seen so far: what a sweep is
/// predicted from.  A share, because a densifying factor set's sweeps grow
/// with its factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RunningReach(f64);

impl Default for RunningReach {
    /// The prior, before any sweep was seen.
    fn default() -> Self {
        RunningReach(PRIOR_REACH)
    }
}

impl RunningReach {
    /// Factor entries `columns` rank-one updates are predicted to touch on
    /// factors of `factor_nnz` entries — one update per changed column.
    pub fn predicted_entries(self, columns: usize, factor_nnz: usize) -> u64 {
        (columns as f64 * self.0 * factor_nnz as f64) as u64
    }

    /// Folds in a sweep that counted `stats` on factors that held
    /// `factor_nnz` entries before it; a sweep without updates teaches
    /// nothing.
    pub fn observe(&mut self, stats: &BennettStats, factor_nnz: usize) {
        if stats.rank_one_updates > 0 {
            let share = stats.entries_touched as f64 / (stats.rank_one_updates * factor_nnz) as f64;
            self.0 += REACH_GAIN * (share - self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reach_starts_at_the_prior_and_moves_a_quarter_of_the_way() {
        let mut reach = RunningReach::default();
        assert_eq!(reach.0, PRIOR_REACH);
        assert_eq!(reach.predicted_entries(4, 1_000), 1_200);
        reach.observe(&BennettStats::default(), 1_000);
        assert_eq!(reach.0, PRIOR_REACH);
        let stats = BennettStats {
            rank_one_updates: 2,
            pivots_processed: 9,
            entries_touched: 1_400,
        };
        reach.observe(&stats, 1_000);
        assert!((reach.0 - (0.3 + 0.25 * (0.7 - 0.3))).abs() < 1e-15);
    }

    #[test]
    fn one_column_sweeps_stay_below_a_numeric_pass_and_sixteen_do_not() {
        // The structural fact the member step relies on: at any reach a
        // one-column sweep is cheaper than a pass over the same factors, and
        // at the prior sixteen are dearer unless elimination dominates.
        let (nnz, madds) = (20_000, 100_000);
        let reach = RunningReach::default();
        let pass = numeric_pass_ns(nnz, madds);
        assert!(sweep_ns(RunningReach(1.0).predicted_entries(1, nnz)) < pass);
        assert!(sweep_ns(reach.predicted_entries(16, nnz)) > pass);
    }
}
