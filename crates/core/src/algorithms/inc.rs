//! The straightforwardly incremental algorithm (INC).
//!
//! INC computes the Markowitz ordering of the *first* matrix only, applies it
//! to the whole sequence, fully decomposes `A_1` once, and obtains every
//! subsequent factorization with Bennett's algorithm over dynamic adjacency
//! lists.  Its weakness, which the paper quantifies in Figures 5 and 7, is
//! that `O*(A_1)` fits later matrices progressively worse, so the factors
//! grow and every incremental step slows down.

use crate::algorithms::common::{
    decompose_cluster_incremental, ensure_finite, LudemSolution, LudemSolver, SolverConfig,
};
use crate::cluster::Cluster;
use crate::ems::EvolvingMatrixSequence;
use crate::report::RunReport;
use clude_lu::LuResult;

/// The INC solver: one ordering, one full decomposition, `T − 1` Bennett
/// updates over the whole sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct Incremental;

impl LudemSolver for Incremental {
    fn name(&self) -> &'static str {
        "INC"
    }

    fn solve(
        &self,
        ems: &EvolvingMatrixSequence,
        config: &SolverConfig,
    ) -> LuResult<LudemSolution> {
        ensure_finite(ems)?;
        let mut report = RunReport::new(self.name());
        let mut decomposed = Vec::with_capacity(ems.len());
        let whole = Cluster {
            start: 0,
            end: ems.len(),
        };
        decompose_cluster_incremental(ems, &whole, None, config, &mut report, &mut decomposed)?;
        Ok(LudemSolution { decomposed, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::max_reconstruction_error;
    use crate::test_support::small_random_walk_ems;

    #[test]
    fn inc_reproduces_every_matrix() {
        let ems = small_random_walk_ems(25, 10, 5);
        let solution = Incremental.solve(&ems, &SolverConfig::default()).unwrap();
        assert_eq!(solution.decomposed.len(), ems.len());
        assert!(max_reconstruction_error(&ems, &solution).unwrap() < 1e-8);
        // INC uses a single cluster spanning the sequence.
        assert_eq!(solution.report.cluster_sizes, vec![ems.len()]);
        // All matrices share the first matrix's ordering.
        let first = &solution.decomposed[0].ordering;
        assert!(solution.decomposed.iter().all(|d| &d.ordering == first));
    }

    #[test]
    fn inc_answers_queries_on_every_snapshot() {
        let ems = small_random_walk_ems(20, 6, 9);
        let solution = Incremental.solve(&ems, &SolverConfig::default()).unwrap();
        let b = vec![0.15 / ems.order() as f64; ems.order()];
        for i in 0..ems.len() {
            let x = solution.solve(i, &b).unwrap();
            let ax = ems.matrix(i).mul_vec(&x).unwrap();
            for (l, r) in ax.iter().zip(b.iter()) {
                assert!((l - r).abs() < 1e-8, "snapshot {i}");
            }
        }
    }

    #[test]
    fn inc_performs_structural_maintenance() {
        // Over a drifting sequence the dynamic storage must insert fill
        // nodes — the cost the paper attributes ~70 % of Bennett time to.
        let ems = small_random_walk_ems(40, 12, 21);
        let solution = Incremental
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        assert!(solution.report.bennett.rank_one_updates > 0);
        assert!(solution.report.structural.inserts > 0);
        // Factor size is non-decreasing under INC (entries are only added).
        let nnz = &solution.report.factor_nnz;
        assert!(nnz.windows(2).all(|w| w[1] >= w[0]));
    }
}
