//! The cluster-based incremental algorithm (CINC, Algorithm 2).
//!
//! CINC first α-clusters the sequence, then runs INC independently inside
//! every cluster: the Markowitz ordering of the cluster's first matrix is
//! shared by its members, the first member is decomposed in full, the rest by
//! Bennett updates.  Clustering restores ordering quality (the ordering never
//! has to fit matrices outside its own cluster) at the price of one extra
//! Markowitz ordering and one extra full decomposition per cluster.

use crate::algorithms::common::{
    decompose_cluster_incremental, ensure_finite, LudemSolution, LudemSolver, SolverConfig,
};
use crate::cluster::alpha_clustering;
use crate::ems::EvolvingMatrixSequence;
use crate::report::RunReport;
use clude_lu::LuResult;
use std::time::Instant;

/// The CINC solver with its α-clustering similarity threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterIncremental {
    /// Similarity threshold `α ∈ [0, 1]` of Definition 8; `solve` answers any
    /// other value (NaN included) with `LuError::InvalidParameter`.
    pub alpha: f64,
}

impl ClusterIncremental {
    /// Creates a CINC solver with the given threshold.
    pub fn new(alpha: f64) -> Self {
        ClusterIncremental { alpha }
    }
}

impl Default for ClusterIncremental {
    /// The paper's sweet-spot threshold of 0.95.
    fn default() -> Self {
        ClusterIncremental { alpha: 0.95 }
    }
}

impl LudemSolver for ClusterIncremental {
    fn name(&self) -> &'static str {
        "CINC"
    }

    fn solve(
        &self,
        ems: &EvolvingMatrixSequence,
        config: &SolverConfig,
    ) -> LuResult<LudemSolution> {
        ensure_finite(ems)?;
        let mut report = RunReport::new(self.name());
        let mut decomposed = Vec::with_capacity(ems.len());
        let t = Instant::now();
        let clustering = alpha_clustering(ems, self.alpha)?;
        report.timings.clustering += t.elapsed();
        for cluster in clustering.clusters() {
            decompose_cluster_incremental(
                ems,
                cluster,
                None,
                config,
                &mut report,
                &mut decomposed,
            )?;
        }
        Ok(LudemSolution { decomposed, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::max_reconstruction_error;
    use crate::test_support::small_random_walk_ems;

    #[test]
    fn cinc_reproduces_every_matrix() {
        let ems = small_random_walk_ems(30, 12, 17);
        let solution = ClusterIncremental::new(0.97)
            .solve(&ems, &SolverConfig::default())
            .unwrap();
        assert_eq!(solution.decomposed.len(), ems.len());
        assert!(max_reconstruction_error(&ems, &solution).unwrap() < 1e-8);
        // Cluster sizes tile the sequence.
        assert_eq!(
            solution.report.cluster_sizes.iter().sum::<usize>(),
            ems.len()
        );
    }

    #[test]
    fn alpha_one_reduces_cinc_to_bf_like_clustering() {
        let ems = small_random_walk_ems(25, 6, 23);
        let solution = ClusterIncremental::new(1.0)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        // With a drifting sequence and α = 1 every cluster is (almost surely)
        // a singleton, so no Bennett updates happen.
        if solution.report.cluster_sizes.iter().all(|&s| s == 1) {
            assert_eq!(solution.report.bennett.rank_one_updates, 0);
        }
        assert_eq!(
            solution.report.cluster_sizes.iter().sum::<usize>(),
            ems.len()
        );
    }

    #[test]
    fn members_of_a_cluster_share_their_ordering() {
        let ems = small_random_walk_ems(30, 10, 29);
        let solution = ClusterIncremental::new(0.95)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let orderings = &solution.report.orderings;
        assert_eq!(orderings.len(), ems.len());
        let mut index = 0;
        for &size in &solution.report.cluster_sizes {
            let first = &orderings[index];
            for ordering in &orderings[index..index + size] {
                assert_eq!(ordering, first);
            }
            index += size;
        }
    }

    #[test]
    fn queries_are_answerable_at_any_snapshot() {
        let ems = small_random_walk_ems(20, 8, 31);
        let solution = ClusterIncremental::default()
            .solve(&ems, &SolverConfig::default())
            .unwrap();
        let b = vec![1.0; ems.order()];
        let x = solution.solve(ems.len() - 1, &b).unwrap();
        let ax = ems.matrix(ems.len() - 1).mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-8);
        }
    }
}
