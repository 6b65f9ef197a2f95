//! CLUDE — the fast cluster-based LU decomposition (Algorithm 3).
//!
//! CLUDE keeps CINC's α-clustering but changes two things inside each
//! cluster:
//!
//! 1. the shared ordering is the Markowitz ordering of the cluster's *union*
//!    matrix `A_∪`, which fits every member (better quality than CINC's
//!    first-matrix ordering);
//! 2. the symbolic decomposition of `A_∪^{O_∪}` yields a *universal symbolic
//!    sparsity pattern* (Theorem 1) from which one static factor structure is
//!    built and shared by every member, so Bennett's updates never perform
//!    structural maintenance.
//!
//! Together these give the order-of-magnitude speed-ups and quality gains the
//! paper reports.
//!
//! The universal structure is also all a numeric-only pass needs, so CLUDE
//! runs in one of two modes ([`SolverConfig::bennett_only`]):
//!
//! * **paper-faithful** (`bennett_only: true`) — every member after a
//!   cluster's first is reached from its predecessor by Bennett's updates,
//!   one rank-one sweep per changed column, exactly as Algorithm 3; the
//!   figure experiments run this mode, since their claims are about
//!   Bennett's share of the time;
//! * **default** (`bennett_only: false`) — each such member is reached by a
//!   numeric pass over the changed rows' elimination reach — the structure
//!   is closed, so every other row keeps its values — the step the engine's
//!   shards take, so each member's factors are bit for bit its own
//!   factorization over the universal structure.  A pass that fails leaves
//!   the predecessor's factors untouched, and the member falls back to
//!   Bennett's updates from them.  Clusters, orderings and factor sizes are
//!   those of the faithful mode; only the arithmetic that produced a
//!   member's values differs.

use crate::algorithms::common::{
    decompose_cluster_universal, ensure_finite, LudemSolution, LudemSolver, SolverConfig,
};
use crate::cluster::alpha_clustering_with_unions;
use crate::ems::EvolvingMatrixSequence;
use crate::report::RunReport;
use clude_lu::LuResult;
use std::time::Instant;

/// The CLUDE solver with its α-clustering similarity threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clude {
    /// Similarity threshold `α ∈ [0, 1]` of Definition 8; `solve` answers any
    /// other value (NaN included) with `LuError::InvalidParameter`.
    pub alpha: f64,
}

impl Clude {
    /// Creates a CLUDE solver with the given threshold.
    pub fn new(alpha: f64) -> Self {
        Clude { alpha }
    }
}

impl Default for Clude {
    /// The paper's sweet-spot threshold of 0.95.
    fn default() -> Self {
        Clude { alpha: 0.95 }
    }
}

impl LudemSolver for Clude {
    fn name(&self) -> &'static str {
        "CLUDE"
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
        let (clustering, unions) = alpha_clustering_with_unions(ems, self.alpha)?;
        report.timings.clustering += t.elapsed();
        for (cluster, union) in clustering.clusters().iter().zip(unions) {
            decompose_cluster_universal(
                ems,
                cluster,
                &union,
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
    use crate::algorithms::{BruteForce, ClusterIncremental, Incremental};
    use crate::quality::evaluate_orderings;
    use crate::test_support::small_random_walk_ems;
    use clude_lu::LuError;

    #[test]
    fn clude_reproduces_every_matrix() {
        let ems = small_random_walk_ems(30, 12, 3);
        let solution = Clude::new(0.95)
            .solve(&ems, &SolverConfig::default())
            .unwrap();
        assert_eq!(solution.decomposed.len(), ems.len());
        assert!(max_reconstruction_error(&ems, &solution).unwrap() < 1e-8);
    }

    #[test]
    fn invalid_alpha_is_a_typed_error_not_a_panic() {
        let ems = small_random_walk_ems(12, 4, 3);
        for alpha in [f64::NAN, -0.5, 1.0001, f64::INFINITY] {
            for solver in [
                &Clude::new(alpha) as &dyn LudemSolver,
                &ClusterIncremental::new(alpha),
            ] {
                let err = solver.solve(&ems, &SolverConfig::default()).unwrap_err();
                assert!(
                    matches!(err, LuError::InvalidParameter { name: "alpha", .. }),
                    "{} at alpha {alpha}: {err:?}",
                    solver.name()
                );
            }
        }
    }

    #[test]
    fn clude_never_touches_structure_during_updates() {
        let ems = small_random_walk_ems(35, 10, 13);
        let faithful = SolverConfig {
            bennett_only: true,
            ..SolverConfig::timing_only()
        };
        let solution = Clude::new(0.9).solve(&ems, &faithful).unwrap();
        // Static storage: no structural maintenance at all.
        assert_eq!(solution.report.structural.inserts, 0);
        assert_eq!(solution.report.structural.removals, 0);
        assert!(solution.report.bennett.rank_one_updates > 0);
    }

    #[test]
    fn factors_within_a_cluster_share_their_slot_count() {
        let ems = small_random_walk_ems(30, 9, 19);
        let solution = Clude::new(0.9)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let mut index = 0;
        for &size in &solution.report.cluster_sizes {
            let first = solution.report.factor_nnz[index];
            for &nnz in &solution.report.factor_nnz[index..index + size] {
                assert_eq!(nnz, first, "universal structure is shared within a cluster");
            }
            index += size;
        }
    }

    #[test]
    fn clude_quality_is_at_least_as_good_as_inc() {
        let ems = small_random_walk_ems(40, 15, 37);
        let (_, reference) = BruteForce
            .solve_with_reference(&ems, &SolverConfig::timing_only())
            .unwrap();
        let clude = Clude::new(0.95)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let inc = Incremental
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let q_clude = evaluate_orderings(&ems, &clude.report.orderings, &reference).average();
        let q_inc = evaluate_orderings(&ems, &inc.report.orderings, &reference).average();
        assert!(
            q_clude <= q_inc + 1e-9,
            "CLUDE quality-loss {q_clude} should not exceed INC's {q_inc}"
        );
    }

    #[test]
    fn clude_and_cinc_use_identical_clusterings() {
        let ems = small_random_walk_ems(30, 10, 41);
        let clude = Clude::new(0.93)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let cinc = ClusterIncremental::new(0.93)
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        assert_eq!(clude.report.cluster_sizes, cinc.report.cluster_sizes);
    }

    #[test]
    fn queries_match_brute_force_answers() {
        let ems = small_random_walk_ems(25, 8, 47);
        let clude = Clude::default()
            .solve(&ems, &SolverConfig::default())
            .unwrap();
        let bf = BruteForce.solve(&ems, &SolverConfig::default()).unwrap();
        let b = vec![0.15 / ems.order() as f64; ems.order()];
        for i in 0..ems.len() {
            let x1 = clude.solve(i, &b).unwrap();
            let x2 = bf.solve(i, &b).unwrap();
            for (u, v) in x1.iter().zip(x2.iter()) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
