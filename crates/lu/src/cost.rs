//! The one cost model of factor maintenance.
//!
//! Every place that chooses between ways of bringing factors up to date — the
//! engine's per-shard maintenance decision and CLUDE's per-member step —
//! prices its arms here, in nanoseconds, from counts only: no clock is read,
//! so the same input decides the same way on every run.  Each function is one
//! term of the model; a caller adds the terms its arm pays.
//!
//! * [`sweep_ns`] — Bennett's rank-one sweeps, per factor entry touched; what
//!   a sweep will touch is predicted from the running share of the factor
//!   entries past sweeps touched, which a [`crate::Maintainer`] keeps and
//!   prices sweeps with ([`crate::Maintainer::sweep_ns`]);
//! * [`freeze_ns`] — the copy of a block a sweep runs on, with its structure
//!   extended when the batch's entries escape it;
//! * [`numeric_pass_ns`] — one numeric pass down a fixed structure (a
//!   pattern-frozen refactorization, or a factorization over a cluster's
//!   universal structure);
//! * [`rebuild_ns`] — a re-symbolic + numeric factorization under a held
//!   ordering, and [`ordering_ns`] a fresh ordering before it.
//!
//! Two terms per factorizing arm, because no per-multiply-add constant is
//! right on both a dense 400-node block and a sparse 500-node one.  The
//! per-entry term carries what is linear in the factor size: the matrix
//! assembly, the kernel's per-row reach and sort, and the structure.  The
//! per-work term is the elimination loop.

use crate::bennett::BennettStats;

// The model's constants, nanoseconds, private on purpose: they are measured,
// not tuned.  Read off the `clude_perf` probes on the `live-mono` (one 400-node
// block, 58 updates a batch) and `ingest-structure` (four 500-node blocks, 14
// updates a batch) matrices and confirmed by replaying both streams with
// each arm timed per shard-batch (CHANGES.md):
// `lu.bennett_us_per_pivot` over the entries a pivot touches, the freeze of a
// moved pattern, matrix assembly + the factorization + list reload,
// `lu.refactor_us_per_pass`, Markowitz per pivot of a re-order.  Only their
// ratios decide anything, so a faster host moves no decision.  The rebuild
// pair predates the up-looking kernel, which made the arm about a third
// cheaper on both shapes, but a re-fit to match (70 / 0.6) sent more of the
// sparse blocks' shard-batches to rebuilds and made `live-durable` slower in
// paired runs (ROADMAP "Measured"), so the decision still prices a rebuild as
// it did.  `FREEZE_NS_PER_NNZ` was fitted to the freeze of dynamic lists a
// sweep used to be followed by; it now prices the copy a sweep runs on (a
// full copy, extended when the batch's entries escape its structure, made on
// the coordinating thread), a different operation kept at the old constant
// without a new measurement (ROADMAP item 9 has the re-fit).
const BENNETT_NS_PER_ENTRY: f64 = 15.0;
const FREEZE_NS_PER_NNZ: f64 = 10.0;
const FROZEN_NS_PER_NNZ: f64 = 20.0;
const FROZEN_NS_PER_MADD: f64 = 2.5;
const REBUILD_NS_PER_NNZ: f64 = 100.0;
const REBUILD_NS_PER_MADD: f64 = 1.0;
const ORDERING_NS_PER_PIVOT: f64 = 3_000.0;
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

/// Copying a block of `factor_nnz` entries for a sweep to run on, and
/// extending its structure when the batch's entries escape it.
pub fn freeze_ns(factor_nnz: usize) -> f64 {
    FREEZE_NS_PER_NNZ * factor_nnz as f64
}

/// One numeric pass over a fixed structure of `factor_nnz` slots doing
/// `multiply_adds` of elimination work.
pub fn numeric_pass_ns(factor_nnz: usize, multiply_adds: u64) -> f64 {
    FROZEN_NS_PER_NNZ * factor_nnz as f64 + FROZEN_NS_PER_MADD * multiply_adds as f64
}

/// A re-symbolic + numeric factorization under a held ordering, producing
/// `factor_nnz` entries with `multiply_adds` of elimination work.
pub fn rebuild_ns(factor_nnz: usize, multiply_adds: u64) -> f64 {
    REBUILD_NS_PER_NNZ * factor_nnz as f64 + REBUILD_NS_PER_MADD * multiply_adds as f64
}

/// A fresh fill-reducing ordering of a matrix of order `order`.
pub fn ordering_ns(order: usize) -> f64 {
    ORDERING_NS_PER_PIVOT * order as f64
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
