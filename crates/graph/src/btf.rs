//! Block-triangular-form partitioning (the KLU BTF idea).
//!
//! KLU never factorizes a circuit matrix whole: it first permutes it to
//! *block triangular form* — a maximum transversal puts nonzeros on the whole
//! diagonal, then the strongly connected components of the resulting digraph
//! become diagonal blocks, ordered so every off-block entry lies on one side
//! of the diagonal.  Factorizing the blocks independently and substituting
//! through the off-block entries in topological order then solves the whole
//! system *exactly*, with no iteration.
//!
//! The sharded engine has precisely this shape: shards are diagonal blocks,
//! the coupling store holds the off-block entries, and block Gauss–Seidel is
//! the substitution.  A [`btf_partition`] therefore assigns nodes to shards
//! along SCC boundaries, numbering shards in dependency-topological order —
//! when the cross-shard structure is acyclic, the engine's Gauss–Seidel sweep
//! in shard order is a *direct* solve: one sweep, exact, no iteration.
//!
//! Pieces, each usable on its own:
//!
//! * [`maximum_transversal`] — MC21-style augmenting-path matching of
//!   columns to rows, proving structural nonsingularity (the measure
//!   matrices of this reproduction carry a full diagonal, so their
//!   transversal is the identity — asserted, not assumed).
//! * [`scc_blocks`] — iterative Tarjan over a sparsity pattern viewed as a
//!   digraph (`entry (i, j) ⇒ edge i → j`), emitting component ids such
//!   that every cross-component entry satisfies `block(j) < block(i)`:
//!   block *lower* triangular, dependencies first.
//! * [`btf_partition`] — the full pipeline: measure-matrix pattern →
//!   transversal → SCC blocks → contiguous coarsening to at most
//!   `max_shards` balanced shards (contiguous grouping of topologically
//!   ordered blocks preserves triangularity).

use crate::digraph::DiGraph;
use crate::matrix::{measure_matrix, MatrixKind};
use crate::partition::NodePartition;
use clude_sparse::SparsityPattern;

/// Summary of a BTF analysis, reported alongside the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtfReport {
    /// Number of strongly connected components of the matrix digraph.
    pub n_sccs: usize,
    /// Size of the largest component (1 ⇒ fully triangularizable).
    pub largest_scc: usize,
    /// Whether the maximum transversal covered every column (structural
    /// nonsingularity) — always true for the engine's measure matrices.
    pub transversal_full: bool,
}

/// Finds a maximum transversal of a square pattern: a matching of columns to
/// distinct rows along structural entries, maximised by MC21-style
/// augmenting-path search.  Returns `row_of_col`, with `None` for columns the
/// maximum matching leaves uncovered (the pattern is then structurally
/// singular).
///
/// # Panics
/// Panics if the pattern is not square.
pub fn maximum_transversal(sp: &SparsityPattern) -> Vec<Option<usize>> {
    assert_eq!(
        sp.n_rows(),
        sp.n_cols(),
        "transversal needs a square pattern"
    );
    let n = sp.n_rows();
    // cols_of_row: the candidate columns each row can serve.
    let mut cols_of_row: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j) in sp.iter() {
        cols_of_row[i].push(j);
    }
    let mut row_of_col: Vec<Option<usize>> = vec![None; n];
    let mut col_of_row: Vec<Option<usize>> = vec![None; n];
    // Iterative DFS augmenting path from each unmatched row.
    let mut visited = vec![usize::MAX; n]; // per-column visit stamp
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (row, next candidate idx)
    for start in 0..n {
        if col_of_row[start].is_some() {
            continue;
        }
        stack.clear();
        stack.push((start, 0));
        'search: while let Some(&mut (row, ref mut idx)) = stack.last_mut() {
            while *idx < cols_of_row[row].len() {
                let col = cols_of_row[row][*idx];
                *idx += 1;
                if visited[col] == start {
                    continue;
                }
                visited[col] = start;
                match row_of_col[col] {
                    // Free column: augment along the whole stack.
                    None => {
                        let mut carry = col;
                        for &(r, ref i) in stack.iter().rev() {
                            // The column each frame is currently trying is
                            // the one at `i - 1`.
                            let c = cols_of_row[r][*i - 1];
                            let _ = c;
                            row_of_col[carry] = Some(r);
                            let prev = col_of_row[r].replace(carry);
                            match prev {
                                Some(p) => carry = p,
                                None => break,
                            }
                        }
                        break 'search;
                    }
                    // Occupied: try to re-route its current row.
                    Some(occupant) => {
                        stack.push((occupant, 0));
                        continue 'search;
                    }
                }
            }
            stack.pop();
        }
    }
    row_of_col
}

/// Strongly connected components of a square pattern viewed as a digraph
/// (`entry (i, j), i ≠ j ⇒ edge i → j`, i.e. "row i depends on column j").
///
/// Returns `(block_of, n_blocks)` with components numbered in Tarjan emit
/// order, which is *reverse* topological for the dependency digraph: every
/// cross-component entry `(i, j)` satisfies `block_of[j] < block_of[i]`.
/// Reading blocks `0, 1, 2, …` therefore visits dependencies before
/// dependents — solving in that order needs each value exactly once.
///
/// # Panics
/// Panics if the pattern is not square.
pub fn scc_blocks(sp: &SparsityPattern) -> (Vec<usize>, usize) {
    assert_eq!(sp.n_rows(), sp.n_cols(), "SCCs need a square pattern");
    let n = sp.n_rows();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut block_of = vec![UNSET; n];
    let mut scc_stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut n_blocks = 0usize;
    // Explicit DFS frames: (node, position within its successor row).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        scc_stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let row = sp.row(v);
            if *pos < row.len() {
                let w = row[*pos];
                *pos += 1;
                if w == v {
                    continue;
                }
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    scc_stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // v is finished: maybe an SCC root, then propagate lowlink.
                if lowlink[v] == index[v] {
                    loop {
                        let w = scc_stack.pop().expect("component members on stack");
                        on_stack[w] = false;
                        block_of[w] = n_blocks;
                        if w == v {
                            break;
                        }
                    }
                    n_blocks += 1;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
    }
    (block_of, n_blocks)
}

/// Builds a BTF-ordered [`NodePartition`] for a snapshot: nodes are grouped
/// along the SCCs of the measure-matrix digraph, SCCs are numbered
/// dependencies-first, and consecutive SCCs are coarsened into at most
/// `max_shards` balanced shards.  Cross-shard coupling entries `(i, j)` of
/// the resulting partition always satisfy `shard(j) ≤ shard(i)` whenever the
/// cross-structure is acyclic — which the engine's coupling plan detects and
/// turns into a one-sweep exact Gauss–Seidel.
///
/// # Panics
/// Panics when the graph has no nodes or `max_shards` is zero.
pub fn btf_partition(
    graph: &DiGraph,
    kind: MatrixKind,
    max_shards: usize,
) -> (NodePartition, BtfReport) {
    assert!(graph.n_nodes() > 0, "cannot partition an empty universe");
    assert!(max_shards > 0, "need at least one shard");
    let n = graph.n_nodes();
    let sp = measure_matrix(graph, kind).pattern();
    let transversal = maximum_transversal(&sp);
    let transversal_full = transversal.iter().all(Option::is_some);
    let (block_of, n_blocks) = scc_blocks(&sp);
    let mut block_sizes = vec![0usize; n_blocks];
    for &b in &block_of {
        block_sizes[b] += 1;
    }
    let largest_scc = block_sizes.iter().copied().max().unwrap_or(0);

    // Coarsen consecutive blocks into at most `max_shards` groups of roughly
    // equal node count.  Contiguity in block order preserves triangularity;
    // the per-group target keeps shards balanced for the parallel sweeps.
    let n_shards = max_shards.min(n_blocks);
    let target = n.div_ceil(n_shards);
    let mut group_of_block = vec![0usize; n_blocks];
    let mut group = 0usize;
    let mut in_group = 0usize;
    for b in 0..n_blocks {
        if in_group >= target && group + 1 < n_shards {
            group += 1;
            in_group = 0;
        }
        group_of_block[b] = group;
        in_group += block_sizes[b];
    }
    let assignments: Vec<usize> = block_of.iter().map(|&b| group_of_block[b]).collect();
    let partition = NodePartition::from_assignments(assignments);
    (
        partition,
        BtfReport {
            n_sccs: n_blocks,
            largest_scc,
            transversal_full,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, entries: &[(usize, usize)]) -> SparsityPattern {
        SparsityPattern::from_entries(n, n, entries.to_vec()).unwrap()
    }

    #[test]
    fn transversal_of_full_diagonal_is_identity() {
        let sp = pattern(3, &[(0, 0), (1, 1), (2, 2), (0, 2)]);
        let t = maximum_transversal(&sp);
        assert_eq!(t, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn transversal_augments_through_occupied_columns() {
        // Row 0 can only serve column 1; row 1 can serve 0 or 1.  The
        // augmenting path must re-route row 1 to column 0.
        let sp = pattern(2, &[(0, 1), (1, 0), (1, 1)]);
        let t = maximum_transversal(&sp);
        assert_eq!(t[0], Some(1));
        assert_eq!(t[1], Some(0));
    }

    #[test]
    fn structurally_singular_pattern_leaves_a_column_unmatched() {
        // Column 2 has no entries at all.
        let sp = pattern(3, &[(0, 0), (1, 1), (2, 0), (2, 1)]);
        let t = maximum_transversal(&sp);
        assert_eq!(t[2], None);
        assert_eq!(t.iter().filter(|m| m.is_some()).count(), 2);
    }

    #[test]
    fn scc_blocks_order_dependencies_first() {
        // 0 depends on 1 (entry (0,1)), 1 depends on 2: blocks must come out
        // with block(2) < block(1) < block(0).
        let sp = pattern(3, &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]);
        let (block_of, n_blocks) = scc_blocks(&sp);
        assert_eq!(n_blocks, 3);
        assert!(block_of[2] < block_of[1]);
        assert!(block_of[1] < block_of[0]);
    }

    #[test]
    fn scc_blocks_group_cycles() {
        // 0 ↔ 1 form one component; 2 depends on both.
        let sp = pattern(3, &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (2, 0), (2, 1)]);
        let (block_of, n_blocks) = scc_blocks(&sp);
        assert_eq!(n_blocks, 2);
        assert_eq!(block_of[0], block_of[1]);
        assert!(block_of[0] < block_of[2]);
    }

    #[test]
    fn cross_block_entries_are_lower_triangular_in_block_order() {
        // Random-ish DAG-with-cycles pattern; the invariant must hold for
        // every cross-block entry.
        let sp = pattern(
            6,
            &[
                (0, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 5),
                (0, 1),
                (1, 0), // cycle {0,1}
                (2, 0),
                (3, 2),
                (4, 3),
                (3, 4), // cycle {3,4}
                (5, 4),
            ],
        );
        let (block_of, _) = scc_blocks(&sp);
        for (i, j) in sp.iter() {
            if block_of[i] != block_of[j] {
                assert!(
                    block_of[j] < block_of[i],
                    "entry ({i},{j}) violates block triangularity"
                );
            }
        }
    }

    #[test]
    fn btf_partition_on_dag_graph_is_triangular() {
        // A chain of 3-cliques connected acyclically (RandomWalk: edge u→v
        // makes row v depend on column u — shard(v's block) must come after).
        let mut edges = Vec::new();
        for c in 0..3 {
            let base = c * 3;
            for a in 0..3 {
                for b in 0..3 {
                    if a != b {
                        edges.push((base + a, base + b));
                    }
                }
            }
            if c > 0 {
                edges.push((base - 1, base)); // forward edge between cliques
            }
        }
        let g = DiGraph::from_edges(9, edges);
        let kind = MatrixKind::random_walk_default();
        let (p, report) = btf_partition(&g, kind, 3);
        assert!(report.transversal_full);
        assert_eq!(report.n_sccs, 3);
        assert_eq!(report.largest_scc, 3);
        assert_eq!(p.n_shards(), 3);
        // Every cross-shard matrix entry must point from a later shard's row
        // to an earlier shard's column.
        let sp = measure_matrix(&g, kind).pattern();
        for (i, j) in sp.iter() {
            if p.shard_of(i) != p.shard_of(j) {
                assert!(p.shard_of(j) < p.shard_of(i));
            }
        }
    }

    #[test]
    fn btf_partition_coarsens_to_max_shards() {
        // A pure DAG chain of 12 singleton SCCs coarsened into 4 shards.
        let edges: Vec<(usize, usize)> = (0..11).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(12, edges);
        let kind = MatrixKind::random_walk_default();
        let (p, report) = btf_partition(&g, kind, 4);
        assert_eq!(report.n_sccs, 12);
        assert_eq!(p.n_shards(), 4);
        let sizes = p.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert!(sizes.iter().all(|&s| s == 3), "balanced groups: {sizes:?}");
        // Triangularity survives coarsening.
        let sp = measure_matrix(&g, kind).pattern();
        for (i, j) in sp.iter() {
            if p.shard_of(i) != p.shard_of(j) {
                assert!(p.shard_of(j) < p.shard_of(i));
            }
        }
    }

    #[test]
    fn one_big_cycle_collapses_to_one_shard() {
        let edges: Vec<(usize, usize)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let g = DiGraph::from_edges(6, edges);
        let (p, report) = btf_partition(&g, MatrixKind::random_walk_default(), 4);
        assert_eq!(report.n_sccs, 1);
        assert_eq!(report.largest_scc, 6);
        assert_eq!(p.n_shards(), 1);
    }

    #[test]
    fn symmetric_laplacian_components_become_shards() {
        // Two disconnected undirected triangles: two SCCs, no cross coupling.
        let mut edges = Vec::new();
        for base in [0usize, 3] {
            for a in 0..3 {
                for b in 0..3 {
                    if a != b {
                        edges.push((base + a, base + b));
                    }
                }
            }
        }
        let g = DiGraph::from_edges(6, edges);
        let (p, report) = btf_partition(&g, MatrixKind::symmetric_default(), 2);
        assert!(report.transversal_full);
        assert_eq!(report.n_sccs, 2);
        assert_eq!(p.n_shards(), 2);
    }
}
