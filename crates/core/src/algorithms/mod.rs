//! The four LUDEM solvers of the paper (§4) plus their shared machinery.
//!
//! | Algorithm | Clustering | Ordering source | Maintained storage | Incremental? |
//! |-----------|------------|-----------------|---------|--------------|
//! | [`BruteForce`] (BF) | none (per-matrix) | Markowitz of each `A_i` | static | no |
//! | [`Incremental`] (INC) | none (one big cluster) | Markowitz of `A_1` | dynamic | Bennett |
//! | [`ClusterIncremental`] (CINC) | α-clustering | Markowitz of each cluster's first matrix | dynamic | Bennett |
//! | [`Clude`] (CLUDE) | α-clustering | Markowitz of each cluster's `A_∪` | static (USSP) | Bennett |
//!
//! Every solver outputs static factors: INC and CINC keep a flat copy of
//! each member of their dynamic lists.

pub mod bf;
pub mod cinc;
pub mod clude;
pub mod common;
pub mod inc;

pub use bf::BruteForce;
pub use cinc::ClusterIncremental;
pub use clude::Clude;
pub use common::{
    decompose_cluster_incremental, decompose_cluster_universal, max_reconstruction_error,
    DecomposedMatrix, LudemSolution, LudemSolver, SolverConfig,
};
pub use inc::Incremental;
