//! # clude-lu
//!
//! The sparse LU engine of the CLUDE (EDBT 2014) reproduction.
//!
//! The paper decomposes every matrix of an evolving matrix sequence into
//! triangular factors so that arbitrarily many linear-system queries can be
//! answered by cheap substitutions.  This crate provides every piece of that
//! pipeline for a single matrix (the sequence-level orchestration lives in the
//! `clude` crate):
//!
//! * [`symbolic`] — the SD-phase: fill-in pattern `fp(A)` and symbolic
//!   sparsity pattern `s̃p(A)` (Eq. 2–3 of the paper), computed by the one
//!   up-looking kernel — per row, the symmetrically pruned reach through the
//!   finished rows of `U` — which, run with values, is also how every matrix
//!   is factorized over its own pattern ([`factorize_fresh`],
//!   [`rebuild_under_ordering`], [`DynamicLuFactors::factorize`]); a closed
//!   structure is extended to cover a batch's new entries by the same reach,
//!   walked only over what is new to the rows those entries reach
//!   ([`extend_structure`]).
//! * [`ordering`] — fill-reducing Markowitz / minimum-degree orderings and
//!   the `|s̃p(A^O)|` accounting used by the quality-loss metric.
//! * [`amd`] — the quotient-graph minimum-degree ordering over `A + Aᵀ`
//!   (the SuiteSparse-AMD idea), an alternative to Markowitz that the
//!   benchmark's ordering probes compare it with; no engine or CLUDE path
//!   orders by it.
//! * [`refactor`] — pattern-frozen refactorization: redo the numerics down
//!   the existing symbolic pattern in one pass (the KLU `refactor` idea) —
//!   over a structure closed under elimination, only the changed rows'
//!   elimination reach — the bulk alternative to per-entry Bennett sweeps
//!   for value-only deltas, in the engine and between CLUDE's members.
//! * [`rebuild`] — refactorization under a held ordering: the up-looking
//!   kernel with the relative pivot guard, writing a fresh static structure
//!   and its factors in one pass — the bulk alternative to Bennett sweeps
//!   for structural deltas that change many columns.
//! * [`cost`] — the one cost model every maintenance decision prices its
//!   arms with: Bennett sweeps against numeric passes and rebuilds.
//! * [`maintain`] — [`Maintainer`], what CLUDE's member steps and each engine
//!   shard carry from one matrix to the next: the matrix the factors
//!   factorize, in factor coordinates, the running reach sweeps are priced
//!   from, and both update arms' scratch, with the operations on them —
//!   write a delta, price a sweep, sweep, run the reach pass.
//! * [`structure`] — static slot layouts (`LuStructure`), including the
//!   universal structures CLUDE shares across a cluster.
//! * [`factors`] — the ND-phase over a structure supplied from outside
//!   (CLUDE's cluster-universal USSP), plus triangular solves; its row
//!   routine is the one numeric row kernel over a closed structure, which
//!   [`symbolic`] and [`refactor`] run too.
//! * [`dynamic`] — adjacency-list factors with insertion-on-demand, the
//!   storage model of the straightforward incremental algorithms (INC,
//!   CINC).  The streaming engine keeps none: each shard's live factors are
//!   the flat block it publishes, over a structure kept closed under
//!   elimination.
//! * [`bennett`] — Bennett's incremental factor update, generic over the two
//!   storage back-ends, plus sparse-delta application.
//! * [`solve`] — answering queries on the *original* matrix through the
//!   reordered factors.

#![forbid(unsafe_code)]
// Indexed loops mirror the paper's matrix notation throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

// `tests/common/mod.rs` is written against the public `clude_lu::` paths;
// the alias lets it serve the unit tests inside this crate as well.
#[cfg(test)]
extern crate self as clude_lu;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_support;

pub mod amd;
pub mod bennett;
pub mod cost;
pub mod dynamic;
pub mod error;
pub mod factors;
pub mod maintain;
pub mod ordering;
pub mod rebuild;
pub mod refactor;
pub mod solve;
pub mod structure;
pub mod symbolic;

pub use amd::amd_ordering;

pub use bennett::{
    apply_delta_with, rank_one_update_with, BennettStats, BennettWorkspace, LuStorage,
};
pub use dynamic::DynamicLuFactors;
pub use error::{LuError, LuResult};
pub use factors::{factorize_fresh, LuFactors};
pub use maintain::Maintainer;
pub use ordering::{
    markowitz_ordering, natural_order_symbolic_size, reorder_pattern, symbolic_size_under,
    OrderingResult,
};
pub use rebuild::{rebuild_under_ordering, RebuildStats};
pub use refactor::{
    refactor_frozen, refactor_frozen_reach, FrozenRows, RefactorStats, RefactorWorkspace,
    PIVOT_DEGRADE_TOL,
};
pub use solve::{
    solve_original, solve_original_into, solve_original_many_into, solve_original_transposed_into,
    PanelScratch, SolveScratch, TriangularSolve,
};
pub use structure::LuStructure;
pub use symbolic::{
    extend_structure, fill_in_pattern, symbolic_decomposition, symbolic_size, SymbolicDecomposition,
};
