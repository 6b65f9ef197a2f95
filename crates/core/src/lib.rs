//! # clude
//!
//! The core of the CLUDE (EDBT 2014) reproduction: LU decomposition over an
//! evolving matrix sequence (the **LUDEM** problem) and its quality-constrained
//! variant (**LUDEM-QC**).
//!
//! Given an evolving graph sequence, the workflow is:
//!
//! 1. derive the evolving matrix sequence ([`ems::EvolvingMatrixSequence`]),
//! 2. pick a solver — [`algorithms::BruteForce`], [`algorithms::Incremental`],
//!    [`algorithms::ClusterIncremental`] or [`algorithms::Clude`] (and for
//!    symmetric sequences [`qc::CincQc`] / [`qc::CludeQc`]),
//! 3. call [`algorithms::LudemSolver::solve`] to obtain per-snapshot LU
//!    factors and a [`report::RunReport`],
//! 4. answer linear-system queries per snapshot through
//!    [`algorithms::LudemSolution::solve`], and evaluate ordering quality with
//!    [`quality::evaluate_orderings`].
//!
//! ```
//! use clude::algorithms::{Clude, LudemSolver, SolverConfig};
//! use clude::ems::EvolvingMatrixSequence;
//! use clude_graph::{DiGraph, EvolvingGraphSequence, MatrixKind};
//!
//! // Two tiny snapshots of a directed graph.
//! let g1 = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
//! let g2 = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let egs = EvolvingGraphSequence::from_snapshots(vec![g1, g2]);
//! let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::random_walk_default());
//!
//! let solution = Clude::new(0.9).solve(&ems, &SolverConfig::default()).unwrap();
//! // RWR scores from node 0 at the last snapshot.
//! let mut b = vec![0.0; 4];
//! b[0] = 0.15;
//! let scores = solution.solve(1, &b).unwrap();
//! assert_eq!(scores.len(), 4);
//! ```

#![forbid(unsafe_code)]
// Indexed loops mirror the paper's matrix notation throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod cluster;
pub mod ems;
pub mod partition;
pub mod qc;
pub mod quality;
pub mod report;
pub mod ussp;

#[cfg(test)]
pub(crate) mod test_support;

pub use algorithms::{
    BruteForce, Clude, ClusterIncremental, DecomposedMatrix, Incremental, LudemSolution,
    LudemSolver, SolverConfig,
};
pub use cluster::{alpha_clustering, Cluster, Clustering};
pub use ems::EvolvingMatrixSequence;
pub use partition::edge_locality_partition;
pub use qc::{beta_clustering_cinc, beta_clustering_clude, CincQc, CludeQc};
pub use quality::{
    evaluate_orderings, quality_loss_from_sizes, quality_loss_with_reference, MarkowitzReference,
    QualityEvaluation,
};
pub use report::{RunReport, TimingBreakdown};
