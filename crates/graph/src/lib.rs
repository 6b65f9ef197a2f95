//! # clude-graph
//!
//! Evolving graph sequences (EGS) and dataset generators for the CLUDE
//! (EDBT 2014) reproduction.
//!
//! * [`digraph::DiGraph`] — one snapshot graph.
//! * [`delta::GraphDelta`] — edge changes between successive snapshots.
//! * [`egs::EvolvingGraphSequence`] — the archived sequence `{G_1, …, G_T}`.
//! * [`matrix`] — graph → matrix composition (`A = I − dW`, symmetric
//!   Laplacian) producing the evolving matrix sequence the LU machinery
//!   consumes, plus the sharded block/coupling split of that composition
//!   and the entries a delta batch changes.
//! * [`partition`] — [`partition::NodePartition`], the node→shard map the
//!   streaming engine shards its factor store by.
//! * [`btf`] — block-triangular-form analysis (maximum transversal + SCC
//!   blocks, the KLU/BTF idea) producing partitions whose cross-shard
//!   coupling is triangular, so block Gauss–Seidel solves them in one sweep.
//! * [`generators`] — the paper's synthetic generator plus Wiki-like,
//!   DBLP-like and patent-citation-like dataset simulators.
//! * [`wire`] — the little-endian binary codec the engine's write-ahead log
//!   and checkpoints persist deltas, graphs and partitions with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btf;
pub mod delta;
pub mod digraph;
pub mod egs;
pub mod generators;
pub mod matrix;
pub mod partition;
pub mod wire;

pub use btf::{btf_partition, maximum_transversal, scc_blocks, BtfReport};
pub use delta::GraphDelta;
pub use digraph::DiGraph;
pub use egs::EvolvingGraphSequence;
pub use matrix::{
    coupling_matrix, evolving_matrix_sequence, measure_matrix, shard_measure_matrix, MatrixKind,
};
pub use partition::NodePartition;
pub use wire::{WireError, WireReader, WireResult, WireWriter};
