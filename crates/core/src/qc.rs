//! LUDEM-QC: LU decomposition with a quality constraint (§5).
//!
//! For symmetric matrices the Markowitz reference `|s̃p(A*)|` can be obtained
//! without a numeric decomposition, so an algorithm can *guarantee* that
//! every ordering it emits has quality-loss at most `β` (Definition 5).  Both
//! cluster-based algorithms are extended by replacing the α-boundedness test
//! with the β quality test during cluster construction:
//!
//! * [`CincQc`] (Algorithm 4) — the candidate matrix is checked against the
//!   ordering of the cluster's first matrix;
//! * [`CludeQc`] (Algorithm 5) — the cluster's union ordering is recomputed
//!   for every candidate and checked, using the shortcut
//!   `|s̃p(A_∪^{O_∪})| ≤ (1 + β)·|s̃p(A_l*)|  ⇒  ql(O_∪, A_l) ≤ β`.

use crate::algorithms::common::{
    decompose_cluster_incremental, decompose_cluster_universal, ensure_finite, LudemSolution,
    LudemSolver, SolverConfig,
};
use crate::cluster::{cluster_union_pattern, Cluster, Clustering};
use crate::ems::EvolvingMatrixSequence;
use crate::quality::MarkowitzReference;
use crate::report::RunReport;
use clude_lu::{markowitz_ordering, symbolic_size_under, LuResult};
use clude_sparse::Ordering;
use std::time::Instant;

/// Checks the LUDEM-QC precondition and the β value.
fn validate(ems: &EvolvingMatrixSequence, beta: f64) {
    assert!(beta >= 0.0, "the quality requirement must be non-negative");
    debug_assert!(
        ems.is_symmetric(),
        "LUDEM-QC is defined for symmetric matrices (the fast Markowitz reference requires it)"
    );
}

/// Result of a β-clustering pass: the clusters together with the shared
/// ordering chosen for each of them during construction.
#[derive(Debug, Clone)]
pub struct BetaClustering {
    /// The clusters, tiling `0..T`.
    pub clustering: Clustering,
    /// The ordering selected for each cluster while it was being built.
    pub orderings: Vec<Ordering>,
    /// The Markowitz reference sizes computed along the way (one per matrix).
    pub reference: MarkowitzReference,
}

/// Algorithm 4: β-clustering, CINC version.
pub fn beta_clustering_cinc(ems: &EvolvingMatrixSequence, beta: f64) -> BetaClustering {
    validate(ems, beta);
    let reference: Vec<usize> = ems
        .iter()
        .map(|a| markowitz_ordering(&a.pattern()).symbolic_size)
        .collect();
    let mut clusters = Vec::new();
    let mut orderings = Vec::new();
    let mut start = 0usize;
    let mut current = markowitz_ordering(&ems.pattern(0)).ordering;
    for i in 1..ems.len() {
        let size_under = symbolic_size_under(&ems.pattern(i), &current);
        let reference_size = reference[i];
        let within_budget =
            size_under as f64 - reference_size as f64 <= beta * reference_size as f64;
        if !within_budget {
            clusters.push(Cluster { start, end: i });
            orderings.push(current.clone());
            start = i;
            current = markowitz_ordering(&ems.pattern(i)).ordering;
        }
    }
    clusters.push(Cluster {
        start,
        end: ems.len(),
    });
    orderings.push(current);
    BetaClustering {
        clustering: Clustering::new(clusters),
        orderings,
        reference: MarkowitzReference::from_sizes(reference),
    }
}

/// Algorithm 5: β-clustering, CLUDE version.
pub fn beta_clustering_clude(ems: &EvolvingMatrixSequence, beta: f64) -> BetaClustering {
    validate(ems, beta);
    let reference: Vec<usize> = ems
        .iter()
        .map(|a| markowitz_ordering(&a.pattern()).symbolic_size)
        .collect();
    let mut clusters = Vec::new();
    let mut orderings = Vec::new();

    let mut start = 0usize;
    let mut union = ems.pattern(0);
    let mut accepted = markowitz_ordering(&union);
    // The shortcut check only needs the smallest reference among members.
    let mut min_reference = reference[0];

    for i in 1..ems.len() {
        let candidate_union = union.union(&ems.pattern(i)).expect("shapes agree");
        let candidate = markowitz_ordering(&candidate_union);
        let candidate_min_reference = min_reference.min(reference[i]);
        // φ_∪ of the paper: |s̃p(A_∪^{O_∪})| − |s̃p(A_l*)| ≤ β·|s̃p(A_l*)|
        // for every member l, which is implied by the check on the smallest
        // reference.
        let within_budget = candidate.symbolic_size as f64 - candidate_min_reference as f64
            <= beta * candidate_min_reference as f64;
        if within_budget {
            union = candidate_union;
            accepted = candidate;
            min_reference = candidate_min_reference;
        } else {
            clusters.push(Cluster { start, end: i });
            orderings.push(accepted.ordering.clone());
            start = i;
            union = ems.pattern(i);
            accepted = markowitz_ordering(&union);
            min_reference = reference[i];
        }
    }
    clusters.push(Cluster {
        start,
        end: ems.len(),
    });
    orderings.push(accepted.ordering);
    BetaClustering {
        clustering: Clustering::new(clusters),
        orderings,
        reference: MarkowitzReference::from_sizes(reference),
    }
}

/// The CINC solver for LUDEM-QC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CincQc {
    /// Quality requirement `β ≥ 0` of Definition 5.
    pub beta: f64,
}

impl CincQc {
    /// Creates a solver with the given quality requirement.
    pub fn new(beta: f64) -> Self {
        CincQc { beta }
    }
}

impl LudemSolver for CincQc {
    fn name(&self) -> &'static str {
        "CINC-QC"
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
        let beta_clusters = beta_clustering_cinc(ems, self.beta);
        report.timings.clustering += t.elapsed();
        for (cluster, ordering) in beta_clusters
            .clustering
            .clusters()
            .iter()
            .zip(beta_clusters.orderings.iter())
        {
            decompose_cluster_incremental(
                ems,
                cluster,
                Some(ordering.clone()),
                config,
                &mut report,
                &mut decomposed,
            )?;
        }
        Ok(LudemSolution { decomposed, report })
    }
}

/// The CLUDE solver for LUDEM-QC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CludeQc {
    /// Quality requirement `β ≥ 0` of Definition 5.
    pub beta: f64,
}

impl CludeQc {
    /// Creates a solver with the given quality requirement.
    pub fn new(beta: f64) -> Self {
        CludeQc { beta }
    }
}

impl LudemSolver for CludeQc {
    fn name(&self) -> &'static str {
        "CLUDE-QC"
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
        let beta_clusters = beta_clustering_clude(ems, self.beta);
        report.timings.clustering += t.elapsed();
        for (cluster, ordering) in beta_clusters
            .clustering
            .clusters()
            .iter()
            .zip(beta_clusters.orderings.iter())
        {
            let t = Instant::now();
            let union = cluster_union_pattern(ems, cluster);
            report.timings.clustering += t.elapsed();
            decompose_cluster_universal(
                ems,
                cluster,
                &union,
                Some(ordering.clone()),
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
    use crate::quality::evaluate_orderings;
    use crate::test_support::small_symmetric_ems;

    #[test]
    fn beta_zero_forces_markowitz_quality() {
        let ems = small_symmetric_ems(25, 8, 11);
        for solver_orderings in [
            beta_clustering_cinc(&ems, 0.0),
            beta_clustering_clude(&ems, 0.0),
        ] {
            // Every matrix's quality-loss under its cluster's ordering is 0
            // within the β = 0 budget.
            let mut per_matrix_orderings = Vec::new();
            for (cluster, ordering) in solver_orderings
                .clustering
                .clusters()
                .iter()
                .zip(solver_orderings.orderings.iter())
            {
                for _ in cluster.range() {
                    per_matrix_orderings.push(ordering.clone());
                }
            }
            let eval = evaluate_orderings(&ems, &per_matrix_orderings, &solver_orderings.reference);
            assert!(eval.max() <= 1e-12, "max loss {}", eval.max());
        }
    }

    #[test]
    fn quality_constraint_is_respected_for_positive_beta() {
        let ems = small_symmetric_ems(30, 10, 3);
        for beta in [0.05, 0.15, 0.3] {
            let cinc = CincQc::new(beta)
                .solve(&ems, &SolverConfig::timing_only())
                .unwrap();
            let clude = CludeQc::new(beta)
                .solve(&ems, &SolverConfig::timing_only())
                .unwrap();
            let reference = MarkowitzReference::compute(&ems);
            for solution in [&cinc, &clude] {
                let eval = evaluate_orderings(&ems, &solution.report.orderings, &reference);
                assert!(
                    eval.max() <= beta + 1e-9,
                    "{}: max loss {} exceeds beta {beta}",
                    solution.report.algorithm,
                    eval.max()
                );
            }
        }
    }

    #[test]
    fn larger_beta_allows_fewer_clusters() {
        let ems = small_symmetric_ems(30, 12, 7);
        let tight = beta_clustering_clude(&ems, 0.0).clustering.len();
        let loose = beta_clustering_clude(&ems, 0.5).clustering.len();
        assert!(loose <= tight);
        let tight_cinc = beta_clustering_cinc(&ems, 0.0).clustering.len();
        let loose_cinc = beta_clustering_cinc(&ems, 0.5).clustering.len();
        assert!(loose_cinc <= tight_cinc);
    }

    #[test]
    fn qc_solvers_reproduce_matrices() {
        let ems = small_symmetric_ems(20, 6, 19);
        for beta in [0.0, 0.2] {
            let cinc = CincQc::new(beta)
                .solve(&ems, &SolverConfig::default())
                .unwrap();
            let clude = CludeQc::new(beta)
                .solve(&ems, &SolverConfig::default())
                .unwrap();
            assert!(max_reconstruction_error(&ems, &cinc).unwrap() < 1e-8);
            assert!(max_reconstruction_error(&ems, &clude).unwrap() < 1e-8);
            assert_eq!(cinc.decomposed.len(), ems.len());
            assert_eq!(clude.decomposed.len(), ems.len());
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_beta_is_rejected() {
        let ems = small_symmetric_ems(10, 3, 1);
        beta_clustering_cinc(&ems, -0.5);
    }
}
