//! The Brute Force baseline (BF).
//!
//! BF determines the Markowitz ordering of *every* matrix of the sequence,
//! reorders it into its best form `A_i*` and decomposes it from scratch.  It
//! is the slowest approach but attains quality-loss 0 by definition, and the
//! paper expresses every other algorithm's running time as a speed-up over
//! BF.  As a by-product BF yields the reference sizes `|s̃p(A_i*)|` that the
//! quality-loss metric needs.

use crate::algorithms::common::{push_member, LudemSolution, LudemSolver, SolverConfig};
use crate::ems::EvolvingMatrixSequence;
use crate::quality::MarkowitzReference;
use crate::report::RunReport;
use clude_lu::{markowitz_ordering, LuFactors, LuResult, LuStructure};
use std::sync::Arc;
use std::time::Instant;

/// The brute-force LUDEM solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForce;

impl BruteForce {
    /// Runs BF and additionally returns the Markowitz reference sizes it
    /// computed along the way (so callers do not need to recompute them for
    /// quality evaluation).
    pub fn solve_with_reference(
        &self,
        ems: &EvolvingMatrixSequence,
        config: &SolverConfig,
    ) -> LuResult<(LudemSolution, MarkowitzReference)> {
        let mut report = RunReport::new(self.name());
        let mut decomposed = Vec::with_capacity(ems.len());
        let mut reference_sizes = Vec::with_capacity(ems.len());
        for (i, a) in ems.iter().enumerate() {
            let t = Instant::now();
            let ordering_result = markowitz_ordering(&a.pattern());
            report.timings.ordering += t.elapsed();
            reference_sizes.push(ordering_result.symbolic_size);

            let ordering = Arc::new(ordering_result.ordering);
            let t = Instant::now();
            let reordered = a.reorder(&ordering).expect("ordering matches the matrix");
            let structure = LuStructure::from_pattern(&reordered.pattern())?.into_shared();
            report.timings.symbolic += t.elapsed();

            let t = Instant::now();
            let factors = LuFactors::factorize(structure, &reordered)?;
            report.timings.full_decomposition += t.elapsed();

            report.cluster_sizes.push(1);
            let nnz = factors.nnz();
            let kept = config.keep_factors.then_some(factors);
            push_member(i, &ordering, nnz, kept, &mut report, &mut decomposed);
        }
        let solution = LudemSolution { decomposed, report };
        Ok((solution, MarkowitzReference::from_sizes(reference_sizes)))
    }
}

impl LudemSolver for BruteForce {
    fn name(&self) -> &'static str {
        "BF"
    }

    fn solve(
        &self,
        ems: &EvolvingMatrixSequence,
        config: &SolverConfig,
    ) -> LuResult<LudemSolution> {
        self.solve_with_reference(ems, config).map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::max_reconstruction_error;
    use crate::test_support::small_random_walk_ems;

    #[test]
    fn bf_decomposes_every_matrix_exactly() {
        let ems = small_random_walk_ems(30, 8, 42);
        let (solution, reference) = BruteForce
            .solve_with_reference(&ems, &SolverConfig::default())
            .unwrap();
        assert_eq!(solution.decomposed.len(), ems.len());
        assert_eq!(reference.len(), ems.len());
        assert!(max_reconstruction_error(&ems, &solution).unwrap() < 1e-9);
        // Every cluster is a singleton.
        assert_eq!(solution.report.cluster_count(), ems.len());
        assert!(solution.report.cluster_sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn bf_factor_sizes_match_reference_sizes() {
        let ems = small_random_walk_ems(25, 5, 7);
        let (solution, reference) = BruteForce
            .solve_with_reference(&ems, &SolverConfig::default())
            .unwrap();
        // The factors BF builds have exactly |s̃p(A_i*)| slots.
        assert_eq!(solution.report.factor_nnz, reference.sizes());
    }

    #[test]
    fn bf_solves_queries_per_snapshot() {
        let ems = small_random_walk_ems(20, 4, 3);
        let solution = BruteForce.solve(&ems, &SolverConfig::default()).unwrap();
        let n = ems.order();
        let b = vec![1.0; n];
        for i in [0usize, ems.len() / 2, ems.len() - 1] {
            let x = solution.solve(i, &b).unwrap();
            let residual = ems.matrix(i).mul_vec(&x).unwrap();
            for (l, r) in residual.iter().zip(b.iter()) {
                assert!((l - r).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn solving_past_the_sequence_is_an_error_not_a_panic() {
        let ems = small_random_walk_ems(10, 3, 5);
        let solution = BruteForce.solve(&ems, &SolverConfig::default()).unwrap();
        let past = ems.len();
        let err = solution.solve(past, &vec![1.0; ems.order()]).unwrap_err();
        assert!(
            matches!(err, clude_lu::LuError::InvalidParameter { name: "snapshot", value }
                if value == past as f64),
            "{err:?}"
        );
    }

    #[test]
    fn timing_only_run_keeps_no_factors() {
        let ems = small_random_walk_ems(15, 4, 11);
        let solution = BruteForce
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        assert!(solution.decomposed.is_empty());
        assert_eq!(solution.report.orderings.len(), ems.len());
        assert!(solution.solve(0, &vec![1.0; ems.order()]).is_err());
        assert_eq!(max_reconstruction_error(&ems, &solution), None);
    }
}
