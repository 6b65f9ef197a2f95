//! Run reports: timing breakdowns and per-matrix statistics.
//!
//! The paper evaluates algorithms by (1) ordering quality and (2) speed, and
//! explains CLUDE's advantage with a breakdown of its running time into
//! clustering, Markowitz, full LU and Bennett components (Figure 8).  The
//! types here capture exactly those quantities so the benchmark harness can
//! print the same rows.

use clude_lu::BennettStats;
use clude_sparse::{Ordering, StructuralStats};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock time spent in each phase of a LUDEM algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingBreakdown {
    /// Time spent clustering the sequence (α- or β-clustering), including the
    /// maintenance of `A_∩` / `A_∪`.
    pub clustering: Duration,
    /// Time spent computing Markowitz / minimum-degree orderings.
    pub ordering: Duration,
    /// Time spent in symbolic decomposition and building (static or dynamic)
    /// factor structures.
    pub symbolic: Duration,
    /// Time spent in full numeric LU decompositions.
    pub full_decomposition: Duration,
    /// Time spent in Bennett incremental updates (including forming the
    /// per-step matrix deltas).
    pub incremental: Duration,
}

impl TimingBreakdown {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.clustering + self.ordering + self.symbolic + self.full_decomposition + self.incremental
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &TimingBreakdown) {
        self.clustering += other.clustering;
        self.ordering += other.ordering;
        self.symbolic += other.symbolic;
        self.full_decomposition += other.full_decomposition;
        self.incremental += other.incremental;
    }
}

/// Everything an algorithm run reports besides the factors themselves.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm name ("BF", "INC", "CINC", "CLUDE", …).
    pub algorithm: String,
    /// Wall-clock breakdown.
    pub timings: TimingBreakdown,
    /// Sizes of the clusters used (a single `T`-sized cluster for INC, `T`
    /// singleton clusters for BF).
    pub cluster_sizes: Vec<usize>,
    /// The ordering `O_i` chosen for every matrix, for quality evaluation —
    /// the members of a cluster share one allocation.
    pub orderings: Vec<Arc<Ordering>>,
    /// The number of slots of the decomposed representation `Â_i` of every
    /// matrix (structure size for static storage, list nodes for dynamic).
    pub factor_nnz: Vec<usize>,
    /// Bennett work counters accumulated over the run.
    pub bennett: BennettStats,
    /// Structural-maintenance counters accumulated over the run (dynamic
    /// storage only; zero for CLUDE and BF).
    pub structural: StructuralStats,
    /// Cluster members after the first reached from their predecessor by
    /// Bennett's updates.
    pub bennett_members: usize,
    /// Cluster members after the first factorized numerically over their
    /// cluster's universal structure instead (CLUDE outside its
    /// paper-faithful mode).
    pub numeric_members: usize,
}

impl RunReport {
    /// Creates an empty report for the given algorithm.
    pub fn new(algorithm: impl Into<String>) -> Self {
        RunReport {
            algorithm: algorithm.into(),
            timings: TimingBreakdown::default(),
            cluster_sizes: Vec::new(),
            orderings: Vec::new(),
            factor_nnz: Vec::new(),
            bennett: BennettStats::default(),
            structural: StructuralStats::default(),
            bennett_members: 0,
            numeric_members: 0,
        }
    }

    /// Number of clusters used by the run.
    pub fn cluster_count(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Average size of the decomposed representation across the sequence.
    pub fn average_factor_nnz(&self) -> f64 {
        if self.factor_nnz.is_empty() {
            return 0.0;
        }
        self.factor_nnz.iter().sum::<usize>() as f64 / self.factor_nnz.len() as f64
    }

    /// Speed-up of this run relative to a baseline total time (the paper
    /// reports every algorithm's time as a speed-up factor over BF).
    pub fn speedup_over(&self, baseline_total: Duration) -> f64 {
        let own = self.timings.total().as_secs_f64();
        if own == 0.0 {
            return f64::INFINITY;
        }
        baseline_total.as_secs_f64() / own
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_merge() {
        let mut a = TimingBreakdown {
            clustering: Duration::from_millis(1),
            ordering: Duration::from_millis(2),
            symbolic: Duration::from_millis(3),
            full_decomposition: Duration::from_millis(4),
            incremental: Duration::from_millis(5),
        };
        assert_eq!(a.total(), Duration::from_millis(15));
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), Duration::from_millis(30));
    }

    #[test]
    fn report_accessors() {
        let mut r = RunReport::new("CLUDE");
        assert_eq!(r.algorithm, "CLUDE");
        assert_eq!(r.cluster_count(), 0);
        assert_eq!(r.average_factor_nnz(), 0.0);
        r.cluster_sizes = vec![3, 4];
        r.factor_nnz = vec![10, 20, 30];
        assert_eq!(r.cluster_count(), 2);
        assert_eq!(r.average_factor_nnz(), 20.0);
    }

    #[test]
    fn speedup_is_relative_to_baseline() {
        let mut r = RunReport::new("X");
        r.timings.incremental = Duration::from_millis(10);
        assert!((r.speedup_over(Duration::from_millis(100)) - 10.0).abs() < 1e-9);
        let zero = RunReport::new("Y");
        assert!(zero.speedup_over(Duration::from_millis(5)).is_infinite());
    }
}
