//! Graph → matrix composition.
//!
//! The paper derives, from each snapshot graph `G_i` and a chosen measure, a
//! matrix `A_i` such that the measure is obtained by solving `A_i x = b`
//! (§1).  This module provides the two compositions used throughout the
//! reproduction:
//!
//! * [`MatrixKind::RandomWalk`] — `A = I − d·W`, where `W` is the
//!   column-normalised adjacency matrix (`W(j, i) = 1/λ(i)` for each edge
//!   `(i, j)`, with `λ(i)` the out-degree).  This is the matrix behind
//!   PageRank, personalised PageRank, RWR and discounted hitting time.
//! * [`MatrixKind::SymmetricLaplacian`] — `A = σ·I + D − Adj` for undirected
//!   graphs, the symmetric positive-definite composition used for the
//!   LUDEM-QC experiments (the paper's DBLP matrices are symmetric).

use crate::digraph::DiGraph;
use crate::egs::EvolvingGraphSequence;
use crate::partition::NodePartition;
use clude_sparse::{CooMatrix, CsrMatrix};

/// Which matrix to derive from a snapshot graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixKind {
    /// `A = I − d·W` with damping factor `d` and `W` the column-normalised
    /// adjacency matrix of the snapshot.
    RandomWalk {
        /// Damping factor `d ∈ (0, 1)`, typically 0.85.
        damping: f64,
    },
    /// `A = σ·I + D − Adj` (shifted combinatorial Laplacian) for undirected
    /// snapshots; symmetric and positive definite for `σ > 0`.
    SymmetricLaplacian {
        /// Diagonal shift `σ > 0`.
        shift: f64,
    },
}

impl MatrixKind {
    /// The conventional PageRank/RWR composition with damping 0.85.
    pub fn random_walk_default() -> Self {
        MatrixKind::RandomWalk { damping: 0.85 }
    }

    /// A well-conditioned symmetric composition (`σ = 1`).
    pub fn symmetric_default() -> Self {
        MatrixKind::SymmetricLaplacian { shift: 1.0 }
    }

    /// Returns `true` when matrices of this kind are symmetric by
    /// construction (given a symmetric input graph).
    pub fn produces_symmetric(&self) -> bool {
        matches!(self, MatrixKind::SymmetricLaplacian { .. })
    }

    /// Checks the parameter against the domain [`measure_matrix`] asserts:
    /// a finite damping in `[0, 1)`, a finite shift above zero.  Callers
    /// that take a kind as input check it here and refuse it, instead of
    /// panicking at the first matrix they build.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            MatrixKind::RandomWalk { damping } if !(0.0..1.0).contains(&damping) => {
                Err(format!("damping factor must lie in [0, 1), got {damping}"))
            }
            MatrixKind::SymmetricLaplacian { shift } if !(shift.is_finite() && shift > 0.0) => Err(
                format!("the diagonal shift must be finite and positive, got {shift}"),
            ),
            _ => Ok(()),
        }
    }
}

/// The column-normalised adjacency matrix `W` of a snapshot:
/// `W(j, i) = 1 / out_degree(i)` for every edge `(i, j)`.
pub fn column_normalized_adjacency(graph: &DiGraph) -> CsrMatrix {
    let n = graph.n_nodes();
    let mut coo = CooMatrix::with_capacity(n, n, graph.n_edges());
    for u in 0..n {
        let deg = graph.out_degree(u);
        if deg == 0 {
            continue;
        }
        let w = 1.0 / deg as f64;
        for v in graph.successors(u) {
            coo.push(v, u, w).expect("edge endpoints are in bounds");
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Streams the measure-matrix entries keyed by each source node in
/// `sources`: the node's diagonal entry plus the off-diagonal entries its
/// out-edges induce (column `u` of `I − d·W` — the entry `(v, u)` of `W`
/// contributes `-d·W` — or row `u` of `σ·I + D − Adj`, whose diagonal counts
/// undirected neighbours, the out-degree of a symmetric `DiGraph`).
///
/// The single source of truth for the composition: [`measure_matrix`],
/// [`shard_measure_matrix`] and [`coupling_matrix`] all feed from it, so the
/// sharded block/coupling split can never drift from the full matrix.
fn for_each_measure_entry(
    graph: &DiGraph,
    kind: MatrixKind,
    sources: impl Iterator<Item = usize>,
    mut emit: impl FnMut(usize, usize, f64),
) {
    if let Err(why) = kind.validate() {
        panic!("{why}");
    }
    match kind {
        MatrixKind::RandomWalk { damping } => {
            for u in sources {
                emit(u, u, 1.0);
                let deg = graph.out_degree(u);
                if deg == 0 {
                    continue;
                }
                let w = damping / deg as f64;
                for v in graph.successors(u) {
                    emit(v, u, -w);
                }
            }
        }
        MatrixKind::SymmetricLaplacian { shift } => {
            for u in sources {
                emit(u, u, shift + graph.out_degree(u) as f64);
                for v in graph.successors(u) {
                    emit(u, v, -1.0);
                }
            }
        }
    }
}

/// Derives the measure matrix `A` of the requested kind from a snapshot.
pub fn measure_matrix(graph: &DiGraph, kind: MatrixKind) -> CsrMatrix {
    let n = graph.n_nodes();
    let mut coo = CooMatrix::with_capacity(n, n, graph.n_edges() + n);
    for_each_measure_entry(graph, kind, 0..n, |i, j, v| {
        coo.push(i, j, v).expect("entries are in bounds");
    });
    CsrMatrix::from_coo(&coo)
}

/// The principal submatrix `A[S_s, S_s]` of the measure matrix over one
/// shard's nodes, in that shard's *local* coordinates.
///
/// Degree-dependent entries use the node's **global** degree (the RandomWalk
/// column weight `-d/λ(u)` counts cross-shard successors too, and the
/// Laplacian diagonal counts cross-shard neighbours), so the block-diagonal
/// of all shard matrices plus [`coupling_matrix`] reassembles
/// [`measure_matrix`] exactly.
pub fn shard_measure_matrix(
    graph: &DiGraph,
    kind: MatrixKind,
    partition: &NodePartition,
    shard: usize,
) -> CsrMatrix {
    assert_eq!(
        graph.n_nodes(),
        partition.n_nodes(),
        "partition must cover the graph's node universe"
    );
    let nodes = partition.nodes_of(shard);
    let m = nodes.len();
    let mut coo = CooMatrix::new(m, m);
    // Entries are keyed by their source node, so streaming the shard's own
    // nodes and keeping the rows/columns that stay inside the shard yields
    // exactly the principal submatrix.
    for_each_measure_entry(graph, kind, nodes.iter().copied(), |i, j, v| {
        if partition.shard_of(i) == shard && partition.shard_of(j) == shard {
            coo.push(partition.local_of(i), partition.local_of(j), v)
                .expect("local indices are in bounds");
        }
    });
    CsrMatrix::from_coo(&coo)
}

/// The cross-shard coupling matrix: [`measure_matrix`] restricted to the
/// entries whose row and column nodes live in *different* shards, in global
/// coordinates.  Diagonal entries are always intra-shard, so the coupling
/// holds only (negated, scaled) cross-shard adjacency.
pub fn coupling_matrix(graph: &DiGraph, kind: MatrixKind, partition: &NodePartition) -> CsrMatrix {
    assert_eq!(
        graph.n_nodes(),
        partition.n_nodes(),
        "partition must cover the graph's node universe"
    );
    let n = graph.n_nodes();
    let mut coo = CooMatrix::new(n, n);
    // Diagonal entries are always intra-shard, so the cross-shard filter
    // keeps exactly the (negated, scaled) cross-shard adjacency.
    for_each_measure_entry(graph, kind, 0..n, |i, j, v| {
        if !partition.is_intra(i, j) {
            coo.push(i, j, v).expect("edge endpoints are in bounds");
        }
    });
    CsrMatrix::from_coo(&coo)
}

/// Derives the evolving matrix sequence `M = {A_1, …, A_T}` from an EGS.
pub fn evolving_matrix_sequence(egs: &EvolvingGraphSequence, kind: MatrixKind) -> Vec<CsrMatrix> {
    egs.snapshots().map(|g| measure_matrix(&g, kind)).collect()
}

/// The right-hand side for a single-seed random-walk measure (RWR / PPR):
/// `b_u = (1 − d)·q_u` where `q_u` is the indicator vector of the seed.
pub fn rwr_rhs(n: usize, seed: usize, damping: f64) -> Vec<f64> {
    assert!(seed < n, "seed node out of range");
    let mut b = vec![0.0; n];
    b[seed] = 1.0 - damping;
    b
}

/// The right-hand side for global PageRank: `b = ((1 − d)/n)·1`.
pub fn pagerank_rhs(n: usize, damping: f64) -> Vec<f64> {
    vec![(1.0 - damping) / n as f64; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph() -> DiGraph {
        // 0 -> 1 -> 2, 0 -> 2
        DiGraph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn column_normalized_adjacency_columns_sum_to_one() {
        let g = chain_graph();
        let w = column_normalized_adjacency(&g);
        // Column u sums to 1 when out_degree(u) > 0.
        for u in 0..3 {
            let col_sum: f64 = (0..3).map(|v| w.get(v, u)).sum();
            if g.out_degree(u) > 0 {
                assert!((col_sum - 1.0).abs() < 1e-12);
            } else {
                assert_eq!(col_sum, 0.0);
            }
        }
        assert_eq!(w.get(1, 0), 0.5);
        assert_eq!(w.get(2, 1), 1.0);
    }

    #[test]
    fn random_walk_matrix_is_i_minus_dw() {
        let g = chain_graph();
        let d = 0.85;
        let a = measure_matrix(&g, MatrixKind::RandomWalk { damping: d });
        let w = column_normalized_adjacency(&g);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 } - d * w.get(i, j);
                assert!((a.get(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "damping factor")]
    fn random_walk_rejects_bad_damping() {
        measure_matrix(&chain_graph(), MatrixKind::RandomWalk { damping: 1.5 });
    }

    #[test]
    fn symmetric_laplacian_is_symmetric() {
        let mut g = DiGraph::new(4);
        g.add_undirected_edge(0, 1);
        g.add_undirected_edge(1, 2);
        g.add_undirected_edge(2, 3);
        let a = measure_matrix(&g, MatrixKind::SymmetricLaplacian { shift: 0.5 });
        assert!(a.pattern().is_symmetric());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(a.get(i, j), a.get(j, i));
            }
        }
        // Diagonal = shift + degree.
        assert_eq!(a.get(1, 1), 0.5 + 2.0);
        assert_eq!(a.get(0, 0), 0.5 + 1.0);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn symmetric_laplacian_rejects_zero_shift() {
        measure_matrix(
            &chain_graph(),
            MatrixKind::SymmetricLaplacian { shift: 0.0 },
        );
    }

    #[test]
    fn evolving_matrix_sequence_has_one_matrix_per_snapshot() {
        let g1 = chain_graph();
        let mut g2 = chain_graph();
        g2.add_edge(2, 0);
        let egs = crate::egs::EvolvingGraphSequence::from_snapshots(vec![g1, g2]);
        let ems = evolving_matrix_sequence(&egs, MatrixKind::random_walk_default());
        assert_eq!(ems.len(), 2);
        assert_eq!(ems[0].n_rows(), 3);
        // Second snapshot has the extra edge reflected.
        assert!(ems[1].get(0, 2) < 0.0);
        assert_eq!(ems[0].get(0, 2), 0.0);
    }

    /// Reassembles the global matrix from per-shard blocks plus coupling and
    /// compares against the direct composition.
    fn assert_sharding_reassembles(graph: &DiGraph, kind: MatrixKind, partition: &NodePartition) {
        let n = graph.n_nodes();
        let full = measure_matrix(graph, kind);
        let coupling = coupling_matrix(graph, kind, partition);
        let mut coo = CooMatrix::new(n, n);
        for s in 0..partition.n_shards() {
            let block = shard_measure_matrix(graph, kind, partition, s);
            let nodes = partition.nodes_of(s);
            for (li, lj, v) in block.iter() {
                coo.push(nodes[li], nodes[lj], v).unwrap();
            }
        }
        for (i, j, v) in coupling.iter() {
            assert!(
                !partition.is_intra(i, j),
                "coupling entry ({i}, {j}) is intra-shard"
            );
            coo.push(i, j, v).unwrap();
        }
        let reassembled = CsrMatrix::from_coo(&coo);
        assert_eq!(reassembled.max_abs_diff(&full).unwrap(), 0.0);
    }

    #[test]
    fn shard_blocks_plus_coupling_reassemble_random_walk_matrix() {
        let mut g = DiGraph::from_edges(9, (0..9).map(|i| (i, (i + 1) % 9)).collect::<Vec<_>>());
        g.add_edge(0, 4);
        g.add_edge(7, 2);
        g.add_edge(3, 8);
        let p = NodePartition::contiguous(9, 3);
        assert_sharding_reassembles(&g, MatrixKind::random_walk_default(), &p);
    }

    #[test]
    fn shard_blocks_plus_coupling_reassemble_laplacian() {
        let mut g = DiGraph::new(8);
        for i in 0..7 {
            g.add_undirected_edge(i, i + 1);
        }
        g.add_undirected_edge(0, 5);
        g.add_undirected_edge(2, 7);
        let p = NodePartition::contiguous(8, 2);
        assert_sharding_reassembles(&g, MatrixKind::symmetric_default(), &p);
    }

    #[test]
    fn singleton_partition_has_empty_coupling() {
        let g = chain_graph();
        let p = NodePartition::singleton(3);
        let kind = MatrixKind::random_walk_default();
        assert_eq!(coupling_matrix(&g, kind, &p).nnz(), 0);
        let block = shard_measure_matrix(&g, kind, &p, 0);
        assert_eq!(block.max_abs_diff(&measure_matrix(&g, kind)).unwrap(), 0.0);
    }

    #[test]
    fn rhs_constructors() {
        let b = rwr_rhs(4, 2, 0.85);
        assert_eq!(b, vec![0.0, 0.0, 0.15000000000000002, 0.0]);
        let p = pagerank_rhs(4, 0.85);
        assert!((p.iter().sum::<f64>() - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "seed node")]
    fn rwr_rhs_rejects_bad_seed() {
        rwr_rhs(3, 7, 0.85);
    }

    #[test]
    fn matrix_kind_helpers() {
        assert!(MatrixKind::symmetric_default().produces_symmetric());
        assert!(!MatrixKind::random_walk_default().produces_symmetric());
    }
}
