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
//!
//! Every builder writes its CSR arrays row by row, in order and at exact
//! capacity: a random-walk row walks the node's sorted predecessors, each
//! weighted by its source's `d / λ(u)`, computed once per node, and a
//! Laplacian row walks the node's sorted successors.  No triplet list is
//! built and no row is sorted; the bits are those a triplet assembly
//! summing from `0.0` would give.

use crate::delta::GraphDelta;
use crate::digraph::DiGraph;
use crate::egs::EvolvingGraphSequence;
use crate::partition::NodePartition;
use clude_sparse::CsrMatrix;

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
/// `W(j, i) = 1 / out_degree(i)` for every edge `(i, j)`.  Row `j` walks
/// `j`'s sorted predecessors, so the rows are written in order.
pub fn column_normalized_adjacency(graph: &DiGraph) -> CsrMatrix {
    let n = graph.n_nodes();
    let weight: Vec<f64> = (0..n)
        .map(|u| match graph.out_degree(u) {
            0 => 0.0,
            deg => 1.0 / deg as f64,
        })
        .collect();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(graph.n_edges());
    let mut values = Vec::with_capacity(graph.n_edges());
    for j in 0..n {
        for &u in graph.predecessor_slice(j) {
            col_idx.push(u);
            values.push(weight[u]);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)
}

/// The entry every edge `(u, v)` puts at `(v, u)` of `I − d·W`:
/// `0.0 − d / λ(u)`, written `0.0 −`, not as a negation, so that at damping
/// 0 it is `+0.0`, the sum a triplet assembly gives.
fn column_weight(damping: f64, out_degree: usize) -> f64 {
    match out_degree {
        0 => 0.0,
        deg => 0.0 - damping / deg as f64,
    }
}

/// The measure matrix's rows, ready to stream: the graph, the validated
/// kind and, for [`MatrixKind::RandomWalk`], every node's column weight.
struct MeasureRows<'g> {
    graph: &'g DiGraph,
    kind: MatrixKind,
    /// [`column_weight`] per node.
    weight: Vec<f64>,
}

impl<'g> MeasureRows<'g> {
    /// # Panics
    /// Panics when `kind` fails [`MatrixKind::validate`].
    fn new(graph: &'g DiGraph, kind: MatrixKind) -> Self {
        if let Err(why) = kind.validate() {
            panic!("{why}");
        }
        let weight = match kind {
            MatrixKind::RandomWalk { damping } => (0..graph.n_nodes())
                .map(|u| column_weight(damping, graph.out_degree(u)))
                .collect(),
            MatrixKind::SymmetricLaplacian { .. } => Vec::new(),
        };
        MeasureRows {
            graph,
            kind,
            weight,
        }
    }

    /// Streams row `i` of the measure matrix as `(column, value)`, columns
    /// ascending: the diagonal plus the off-diagonal entries of row `i` —
    /// `−d / λ(u)` at column `u` for each predecessor `u` of `i` in
    /// `I − d·W`, `−1` at column `v` for each successor `v` of `i` in
    /// `σ·I + D − Adj`, whose diagonal counts undirected neighbours, the
    /// out-degree of a symmetric `DiGraph`.
    ///
    /// The single source of truth for the composition: [`measure_matrix`],
    /// [`shard_measure_matrix`] and [`coupling_matrix`] all write from it, so
    /// the sharded block/coupling split can never drift from the full
    /// matrix.
    fn for_each_measure_entry(&self, i: usize, mut emit: impl FnMut(usize, f64)) {
        let (neighbours, diagonal) = match self.kind {
            MatrixKind::RandomWalk { .. } => (self.graph.predecessor_slice(i), 1.0),
            MatrixKind::SymmetricLaplacian { shift } => (
                self.graph.successor_slice(i),
                shift + self.graph.out_degree(i) as f64,
            ),
        };
        let value = |u: usize| match self.kind {
            MatrixKind::RandomWalk { .. } => self.weight[u],
            MatrixKind::SymmetricLaplacian { .. } => -1.0,
        };
        let (below, above) = neighbours.split_at(neighbours.partition_point(|&u| u < i));
        for &u in below {
            emit(u, value(u));
        }
        emit(i, diagonal);
        for &u in above {
            emit(u, value(u));
        }
    }

    /// Writes the CSR matrix whose `r`-th row is the measure matrix's row
    /// named `r`-th by `rows`, with the entries `col` maps to a column of
    /// its own, `n_cols` wide.  Rows, `col_idx` and `values` are written in
    /// order at exact capacity: `nnz`, when the caller knows it, or a
    /// counting pass over the rows first.
    fn assemble(
        &self,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
        n_cols: usize,
        nnz: Option<usize>,
        col: impl Fn(usize, usize) -> Option<usize>,
    ) -> CsrMatrix {
        let n_rows = rows.len();
        let nnz = nnz.unwrap_or_else(|| {
            let mut nnz = 0;
            for i in rows.clone() {
                self.for_each_measure_entry(i, |j, _| nnz += usize::from(col(i, j).is_some()));
            }
            nnz
        });
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for i in rows {
            self.for_each_measure_entry(i, |j, v| {
                if let Some(c) = col(i, j) {
                    col_idx.push(c);
                    values.push(v);
                }
            });
            row_ptr.push(col_idx.len());
        }
        debug_assert_eq!(col_idx.len(), nnz, "the row count was exact");
        CsrMatrix::from_raw_parts(n_rows, n_cols, row_ptr, col_idx, values)
    }
}

/// Derives the measure matrix `A` of the requested kind from a snapshot.
pub fn measure_matrix(graph: &DiGraph, kind: MatrixKind) -> CsrMatrix {
    let n = graph.n_nodes();
    // Every edge puts one off-diagonal entry in one row.
    let nnz = n + graph.n_edges();
    MeasureRows::new(graph, kind).assemble(0..n, n, Some(nnz), |_, j| Some(j))
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
    // A shard's nodes ascend, so their local indices keep each row's
    // columns in order.
    MeasureRows::new(graph, kind).assemble(nodes.iter().copied(), nodes.len(), None, |_, j| {
        (partition.shard_of(j) == shard).then(|| partition.local_of(j))
    })
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
    MeasureRows::new(graph, kind).assemble(0..n, n, None, |i, j| {
        (!partition.is_intra(i, j)).then_some(j)
    })
}

/// Derives the evolving matrix sequence `M = {A_1, …, A_T}` from an EGS.
pub fn evolving_matrix_sequence(egs: &EvolvingGraphSequence, kind: MatrixKind) -> Vec<CsrMatrix> {
    egs.snapshots().map(|g| measure_matrix(&g, kind)).collect()
}

/// The pre-delta successor lists of a batch's affected sources — the source
/// endpoint of every changed edge, the only nodes whose matrix column / row
/// the batch perturbs — captured into one flat buffer before the graph
/// mutates.
#[derive(Debug)]
pub struct OldSuccessors {
    /// The affected sources, ascending and distinct.
    sources: Vec<usize>,
    /// Source `i` owns `successors[offsets[i]..offsets[i + 1]]`, ascending.
    offsets: Vec<usize>,
    successors: Vec<usize>,
}

impl OldSuccessors {
    /// Captures the successors `graph` holds, before `delta` is applied to
    /// it, for every source `delta` names.
    pub fn capture(graph: &DiGraph, delta: &GraphDelta) -> Self {
        let mut sources: Vec<usize> = delta
            .added
            .iter()
            .chain(&delta.removed)
            .map(|&(u, _)| u)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        let mut offsets = Vec::with_capacity(sources.len() + 1);
        let mut successors = Vec::new();
        offsets.push(0);
        for &u in &sources {
            successors.extend_from_slice(graph.successor_slice(u));
            offsets.push(successors.len());
        }
        OldSuccessors {
            sources,
            offsets,
            successors,
        }
    }

    /// `(source, its pre-delta successors)`, ascending by source.
    fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.sources
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&u, run)| (u, &self.successors[run[0]..run[1]]))
    }
}

/// The changed entries `(row, col, old, new)` of the measure matrix, in
/// global (whole-graph) coordinates, given the pre-delta successor lists of
/// the affected sources and the already-updated graph: the entries
/// `measure_matrix(before).delta_to(&measure_matrix(after), 0.0)` holds.
///
/// An edge operation only perturbs entries keyed by its source: for
/// `I − d·W` the source's column (the degree normalisation rescales the whole
/// column), for the Laplacian the source's row plus its diagonal.  Entries
/// come out ascending by source, then by the other coordinate (the Laplacian
/// diagonal last).
pub fn global_matrix_delta(
    graph: &DiGraph,
    kind: MatrixKind,
    old: &OldSuccessors,
) -> Vec<(usize, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut new_succ: Vec<usize> = Vec::new();
    for (u, old_succ) in old.iter() {
        new_succ.clear();
        new_succ.extend(graph.successors(u));
        match kind {
            MatrixKind::RandomWalk { damping } => {
                // Column u of A = I − d·W holds −d/deg(u) at each
                // successor's row; a degree change rescales the whole
                // column, an edge change moves its support.
                let old_w = column_weight(damping, old_succ.len());
                let new_w = column_weight(damping, new_succ.len());
                for_each_in_union(old_succ, &new_succ, |v, in_old, in_new| {
                    let old = if in_old { old_w } else { 0.0 };
                    let new = if in_new { new_w } else { 0.0 };
                    if old != new {
                        out.push((v, u, old, new));
                    }
                });
            }
            MatrixKind::SymmetricLaplacian { shift } => {
                // Row u of A = σ·I + D − Adj: −1 at each successor and
                // the degree on the diagonal (a graph holds no self-loop).
                for_each_in_union(old_succ, &new_succ, |v, in_old, in_new| {
                    if in_old != in_new {
                        let value = |present: bool| if present { -1.0 } else { 0.0 };
                        out.push((u, v, value(in_old), value(in_new)));
                    }
                });
                let (old_diag, new_diag) =
                    (shift + old_succ.len() as f64, shift + new_succ.len() as f64);
                if old_diag != new_diag {
                    out.push((u, u, old_diag, new_diag));
                }
            }
        }
    }
    out
}

/// Two-pointer walk over the union of two ascending lists:
/// `visit(v, in a, in b)` once per distinct `v`, ascending.
fn for_each_in_union(a: &[usize], b: &[usize], mut visit: impl FnMut(usize, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let in_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
        let in_b = i == a.len() || (j < b.len() && b[j] <= a[i]);
        let v = if in_a { a[i] } else { b[j] };
        visit(v, in_a, in_b);
        i += usize::from(in_a);
        j += usize::from(in_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::CooMatrix;
    use proptest::prelude::*;

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

    /// The triplet assembly the row-order builders replaced, kept as their
    /// oracle: each source node `u` pushes its diagonal and the entries its
    /// out-edges induce (column `u` of `I − d·W`, row `u` of `σ·I + D −
    /// Adj`), `place` maps each kept entry into the result's coordinates,
    /// and `CsrMatrix::from_coo` sorts the rows and sums from `0.0`.
    fn triplet_oracle(
        graph: &DiGraph,
        kind: MatrixKind,
        n: usize,
        place: impl Fn(usize, usize) -> Option<(usize, usize)>,
    ) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut push = |i, j, v| {
            if let Some((r, c)) = place(i, j) {
                coo.push(r, c, v).unwrap();
            }
        };
        for u in 0..graph.n_nodes() {
            match kind {
                MatrixKind::RandomWalk { damping } => {
                    push(u, u, 1.0);
                    let deg = graph.out_degree(u);
                    for v in graph.successors(u) {
                        push(v, u, -(damping / deg as f64));
                    }
                }
                MatrixKind::SymmetricLaplacian { shift } => {
                    push(u, u, shift + graph.out_degree(u) as f64);
                    for v in graph.successors(u) {
                        push(u, v, -1.0);
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    fn bits(m: &CsrMatrix) -> (usize, usize, Vec<(usize, usize, u64)>) {
        let entries = m.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect();
        (m.n_rows(), m.n_cols(), entries)
    }

    /// `W` written in row order against the triplet assembly it replaced:
    /// each edge `(u, v)` pushes `1 / λ(u)` at `(v, u)`, and
    /// `CsrMatrix::from_coo` sorts the rows and sums from `0.0`.
    fn assert_w_matches_the_coo_assembly(graph: &DiGraph) {
        let n = graph.n_nodes();
        let mut coo = CooMatrix::new(n, n);
        for (u, v) in graph.edges() {
            coo.push(v, u, 1.0 / graph.out_degree(u) as f64).unwrap();
        }
        let w = column_normalized_adjacency(graph);
        assert_eq!(bits(&w), bits(&CsrMatrix::from_coo(&coo)));
    }

    /// Every builder against the triplet oracle, bit for bit: the full
    /// matrix, each shard's block in local coordinates and the coupling.
    fn assert_builders_match_the_oracle(graph: &DiGraph, kind: MatrixKind, p: &NodePartition) {
        let n = graph.n_nodes();
        let full = triplet_oracle(graph, kind, n, |i, j| Some((i, j)));
        assert_eq!(bits(&measure_matrix(graph, kind)), bits(&full));
        for s in 0..p.n_shards() {
            let block = triplet_oracle(graph, kind, p.shard_len(s), |i, j| {
                (p.shard_of(i) == s && p.shard_of(j) == s).then(|| (p.local_of(i), p.local_of(j)))
            });
            assert_eq!(
                bits(&shard_measure_matrix(graph, kind, p, s)),
                bits(&block),
                "shard {s}"
            );
        }
        let coupling = triplet_oracle(graph, kind, n, |i, j| (!p.is_intra(i, j)).then_some((i, j)));
        assert_eq!(bits(&coupling_matrix(graph, kind, p)), bits(&coupling));
    }

    #[test]
    fn row_order_builders_match_the_triplet_assembly_bit_for_bit() {
        // Node 5 is dangling (in-edges only), node 6 isolated, node 3 has
        // in-edges from both sides of the diagonal.
        let g = DiGraph::from_edges(
            8,
            vec![
                (0, 3),
                (4, 3),
                (7, 3),
                (3, 1),
                (1, 5),
                (2, 5),
                (7, 0),
                (4, 2),
                (2, 4),
            ],
        );
        let mut sym = g.clone();
        for (u, v) in g.edges() {
            sym.add_edge(v, u);
        }
        assert_w_matches_the_coo_assembly(&g);
        assert_w_matches_the_coo_assembly(&sym);
        let scattered = NodePartition::from_assignments(vec![2, 0, 1, 0, 2, 1, 0, 1]);
        for p in [
            NodePartition::contiguous(8, 3),
            scattered,
            NodePartition::singleton(8),
        ] {
            for damping in [0.0, 0.3, 0.85] {
                assert_builders_match_the_oracle(&g, MatrixKind::RandomWalk { damping }, &p);
            }
            for shift in [0.25, 1.0] {
                let kind = MatrixKind::SymmetricLaplacian { shift };
                assert_builders_match_the_oracle(&sym, kind, &p);
                assert_builders_match_the_oracle(&g, kind, &p);
            }
        }
    }

    #[test]
    fn damping_zero_writes_positive_zero_weights() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (2, 1)]);
        let a = measure_matrix(&g, MatrixKind::RandomWalk { damping: 0.0 });
        assert_eq!(a.nnz(), 5);
        for (i, j, v) in a.iter() {
            let want = if i == j { 1.0f64 } else { 0.0 };
            assert_eq!(v.to_bits(), want.to_bits(), "entry ({i}, {j})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_order_builders_match_the_triplet_assembly_on_random_graphs(
            n in 1usize..24,
            edges in proptest::collection::vec((0usize..24, 0usize..24), 0..80),
            assign in proptest::collection::vec(0usize..3, 24),
            damping in 0.0f64..0.99,
        ) {
            let g = DiGraph::from_edges(n, edges.into_iter().map(|(u, v)| (u % n, v % n)));
            // Shard ids must be dense: renumber the ones in use.
            let mut used: Vec<usize> = assign[..n].to_vec();
            used.sort_unstable();
            used.dedup();
            let p = NodePartition::from_assignments(
                assign[..n].iter().map(|a| used.binary_search(a).unwrap()).collect(),
            );
            assert_builders_match_the_oracle(&g, MatrixKind::RandomWalk { damping }, &p);
            assert_builders_match_the_oracle(&g, MatrixKind::RandomWalk { damping: 0.0 }, &p);
            assert_builders_match_the_oracle(&g, MatrixKind::symmetric_default(), &p);
            assert_w_matches_the_coo_assembly(&g);
        }

        /// A batch's entries against the difference of the measure
        /// matrices before and after it, both kinds: the same entries,
        /// values bit for bit, as a set, on deltas with repeated sources,
        /// no-op operations, self-loops, sources that lose every successor
        /// and sources that gain their first.
        #[test]
        fn matrix_delta_equals_the_measure_matrix_difference(
            edges in proptest::collection::vec((0usize..10, 0usize..10), 0..40),
            added in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
            removed in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
            drained in 0usize..10,
        ) {
            let before = DiGraph::from_edges(10, edges);
            // One source loses its whole successor list.
            let mut removed = removed;
            removed.extend(before.successors(drained).map(|v| (drained, v)));
            let delta = GraphDelta { added, removed };
            let old = OldSuccessors::capture(&before, &delta);
            let mut after = before.clone();
            delta.apply(&mut after);
            let sorted_bits = |entries: Vec<(usize, usize, f64, f64)>| {
                let mut bits: Vec<_> = entries
                    .into_iter()
                    .map(|(r, c, old, new)| (r, c, old.to_bits(), new.to_bits()))
                    .collect();
                bits.sort_unstable();
                bits
            };
            for kind in [
                MatrixKind::random_walk_default(),
                MatrixKind::SymmetricLaplacian { shift: 1.0 },
            ] {
                let want = measure_matrix(&before, kind)
                    .delta_to(&measure_matrix(&after, kind), 0.0)
                    .unwrap();
                let got = global_matrix_delta(&after, kind, &old);
                prop_assert_eq!(sorted_bits(got), sorted_bits(want), "{:?}", kind);
            }
        }
    }

    #[test]
    fn matrix_kind_helpers() {
        assert!(MatrixKind::symmetric_default().produces_symmetric());
        assert!(!MatrixKind::random_walk_default().produces_symmetric());
    }
}
