//! Directed graph snapshots.
//!
//! A [`DiGraph`] is one snapshot `G_i` of an evolving graph sequence: a fixed
//! node set `0..n` and a set of directed edges.  Undirected graphs (e.g. the
//! DBLP-like co-authorship snapshots) are represented by storing both
//! directions of every edge.
//!
//! Adjacency is packed and copy-on-write at chunk granularity: per direction
//! a `Vec<Arc<Chunk>>`, a chunk holding the neighbour lists of `CHUNK`
//! consecutive nodes as offsets into one sorted `Vec<usize>`.  Cloning (and
//! dropping) a graph is `2·⌈n / CHUNK⌉` pointer operations, and a clone that
//! is later mutated copies one chunk per changed endpoint through
//! [`Arc::make_mut`] — what [`crate::EvolvingGraphSequence`]'s iterator
//! pays to hand out each step's graph, and the engine's checkpoint capture
//! to copy its live one, while a delta touches a handful of nodes.

use std::sync::Arc;

/// Consecutive nodes per adjacency chunk.  Measured on `clude_perf`'s
/// `ingest-value` and `ingest-structure` at 16 / 32 / 64 (CHANGES.md, PR 24):
/// `timed_s` does not tell the three apart, peak RSS rises with the width —
/// every batch then left the engine's snapshot ring, which held a graph per
/// entry, a private copy of each chunk it touched — and 16 is the one that
/// stays at the per-node sets' footprint.
const CHUNK: usize = 16;

/// The neighbour lists of `CHUNK` consecutive nodes: slot `i` (node
/// `chunk · CHUNK + i`) owns `targets[offsets[i]..offsets[i + 1]]`, ascending.
/// Slots past the graph's last node stay empty.
#[derive(Debug)]
struct Chunk {
    offsets: [usize; CHUNK + 1],
    targets: Vec<usize>,
}

impl Clone for Chunk {
    /// A chunk is only ever copied by [`Arc::make_mut`], for an edge about to
    /// change: room for one more target saves the insert its reallocation.
    fn clone(&self) -> Self {
        let mut targets = Vec::with_capacity(self.targets.len() + 1);
        targets.extend_from_slice(&self.targets);
        Chunk {
            offsets: self.offsets,
            targets,
        }
    }
}

impl Chunk {
    fn neighbours(&self, slot: usize) -> &[usize] {
        &self.targets[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// Where in `targets` `target` sits — or would — in `slot`'s list.
    fn position(&self, slot: usize, target: usize) -> usize {
        self.offsets[slot] + self.neighbours(slot).partition_point(|&t| t < target)
    }
}

/// One direction of adjacency over the node set `0..n`.
#[derive(Debug, Clone)]
struct Adjacency {
    chunks: Vec<Arc<Chunk>>,
}

impl Adjacency {
    fn new(n: usize) -> Self {
        // Every chunk starts out sharing one empty run.
        let empty = Arc::new(Chunk {
            offsets: [0; CHUNK + 1],
            targets: Vec::new(),
        });
        Adjacency {
            chunks: vec![empty; n.div_ceil(CHUNK)],
        }
    }

    fn neighbours(&self, node: usize) -> &[usize] {
        self.chunks[node / CHUNK].neighbours(node % CHUNK)
    }

    /// Inserts `target` into `node`'s list; the caller has probed that it is
    /// absent (a no-op must not un-share the chunk).
    fn insert(&mut self, node: usize, target: usize) {
        let chunk = Arc::make_mut(&mut self.chunks[node / CHUNK]);
        let slot = node % CHUNK;
        chunk.targets.insert(chunk.position(slot, target), target);
        for end in &mut chunk.offsets[slot + 1..] {
            *end += 1;
        }
    }

    /// Removes `target` from `node`'s list; the caller has probed that it is
    /// present.
    fn remove(&mut self, node: usize, target: usize) {
        let chunk = Arc::make_mut(&mut self.chunks[node / CHUNK]);
        let slot = node % CHUNK;
        let at = chunk.position(slot, target);
        debug_assert_eq!(chunk.targets[at], target);
        chunk.targets.remove(at);
        for end in &mut chunk.offsets[slot + 1..] {
            *end -= 1;
        }
    }
}

/// A directed graph over the node set `0..n`.
///
/// Cloning is cheap (copy-on-write adjacency chunks, see the module docs);
/// equality compares the edge sets, not the sharing.
#[derive(Debug, Clone)]
pub struct DiGraph {
    n: usize,
    /// Out-adjacency: for each node, its successors in ascending order.
    out: Adjacency,
    /// In-adjacency: for each node, its predecessors in ascending order.
    inc: Adjacency,
    n_edges: usize,
}

impl PartialEq for DiGraph {
    fn eq(&self, other: &Self) -> bool {
        // The in-adjacency is a function of the out-adjacency; a chunk two
        // graphs still share needs no look inside.
        self.n == other.n
            && self.n_edges == other.n_edges
            && self.out.chunks.iter().zip(&other.out.chunks).all(|(a, b)| {
                Arc::ptr_eq(a, b) || (a.offsets == b.offsets && a.targets == b.targets)
            })
    }
}

impl Eq for DiGraph {}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            n,
            out: Adjacency::new(n),
            inc: Adjacency::new(n),
            n_edges: 0,
        }
    }

    /// Creates a graph from an edge list; duplicate and self-loop edges are
    /// ignored (graph measures in the paper operate on simple graphs).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Returns `true` if the edge `(u, v)` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.out.neighbours(u).binary_search(&v).is_ok()
    }

    /// Adds edge `(u, v)`.  Self-loops and duplicates are ignored.
    /// Returns `true` when the edge was newly added.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge endpoint out of bounds");
        // Probe first: a no-op must not un-share a chunk.
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.out.insert(u, v);
        self.inc.insert(v, u);
        self.n_edges += 1;
        true
    }

    /// Removes edge `(u, v)`.  Returns `true` when it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge endpoint out of bounds");
        // Probe first: a miss must not un-share a chunk.
        if !self.has_edge(u, v) {
            return false;
        }
        self.out.remove(u, v);
        self.inc.remove(v, u);
        self.n_edges -= 1;
        true
    }

    /// Adds the undirected edge `{u, v}` (both directions); returns the number
    /// of directed edges actually added (0, 1 or 2).
    pub fn add_undirected_edge(&mut self, u: usize, v: usize) -> usize {
        usize::from(self.add_edge(u, v)) + usize::from(self.add_edge(v, u))
    }

    /// Out-degree of node `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.out.neighbours(u).len()
    }

    /// In-degree of node `u`.
    pub fn in_degree(&self, u: usize) -> usize {
        self.inc.neighbours(u).len()
    }

    /// Iterator over the successors of `u` in ascending order.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.out.neighbours(u).iter().copied()
    }

    /// Iterator over the predecessors of `u` in ascending order.
    pub fn predecessors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.inc.neighbours(u).iter().copied()
    }

    /// The successors of `u`, ascending, as one slice.
    pub(crate) fn successor_slice(&self, u: usize) -> &[usize] {
        self.out.neighbours(u)
    }

    /// The predecessors of `u`, ascending, as one slice.
    pub(crate) fn predecessor_slice(&self, u: usize) -> &[usize] {
        self.inc.neighbours(u)
    }

    /// Iterator over every directed edge `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(|u| self.successors(u).map(move |v| (u, v)))
    }

    /// Returns `true` when for every edge `(u, v)` the reverse edge is also
    /// present, i.e. the graph is effectively undirected.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(u, v)| self.has_edge(v, u))
    }

    /// Average out-degree (`|E| / |V|`), the density statistic the paper
    /// reports for its datasets.
    pub fn average_out_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.n_edges as f64 / self.n as f64
        }
    }

    /// The out-degree histogram: entry `d` counts nodes with out-degree `d`.
    pub fn out_degree_histogram(&self) -> Vec<usize> {
        let max_d = (0..self.n).map(|u| self.out_degree(u)).max().unwrap_or(0);
        let mut hist = vec![0usize; max_d + 1];
        for u in 0..self.n {
            hist[self.out_degree(u)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn add_and_remove_edges() {
        let mut g = DiGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1)); // duplicate
        assert!(!g.add_edge(1, 1)); // self loop
        assert_eq!(g.n_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_out_of_bounds_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (3, 1)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.successors(0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(g.predecessors(1).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(g.edges().count(), 3);
    }

    #[test]
    fn from_edges_ignores_duplicates_and_loops() {
        let g = DiGraph::from_edges(3, vec![(0, 1), (0, 1), (2, 2)]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn undirected_edges_and_symmetry() {
        let mut g = DiGraph::new(3);
        assert_eq!(g.add_undirected_edge(0, 1), 2);
        assert_eq!(g.add_undirected_edge(0, 1), 0);
        assert!(g.is_symmetric());
        g.add_edge(1, 2);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn equality_is_over_edge_sets_not_sharing_or_history() {
        let a = DiGraph::from_edges(40, vec![(0, 1), (35, 2), (2, 35)]);
        let mut b = DiGraph::from_edges(40, vec![(2, 35), (0, 1), (35, 2), (7, 8)]);
        assert_ne!(a, b);
        b.remove_edge(7, 8);
        assert_eq!(a, b);
        assert_ne!(a, DiGraph::from_edges(41, a.edges()));
        assert_eq!(DiGraph::new(0), DiGraph::new(0));
    }

    #[test]
    fn statistics() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 2)]);
        assert!((g.average_out_degree() - 0.75).abs() < 1e-12);
        let hist = g.out_degree_histogram();
        assert_eq!(hist, vec![2, 1, 1]); // two nodes deg 0, one deg 1, one deg 2
        assert_eq!(DiGraph::new(0).average_out_degree(), 0.0);
    }

    /// The graph read back through its public accessors: the edge set, and
    /// every node's successor / predecessor list in iteration order.
    type Observed = (Vec<(usize, usize)>, Vec<Vec<usize>>, Vec<Vec<usize>>);

    fn observe(g: &DiGraph) -> Observed {
        let n = g.n_nodes();
        (
            g.edges().collect(),
            (0..n).map(|u| g.successors(u).collect()).collect(),
            (0..n).map(|u| g.predecessors(u).collect()).collect(),
        )
    }

    /// What the accessors must return for a plain edge-set model.
    fn expected(n: usize, model: &BTreeSet<(usize, usize)>) -> Observed {
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(u, v) in model {
            succ[u].push(v);
            pred[v].push(u);
        }
        pred.iter_mut().for_each(|p| p.sort_unstable());
        (model.iter().copied().collect(), succ, pred)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One random operation: add (`0`) or remove (`1`, `2`) of the edge
        /// `(u mod n, v mod n)` — duplicates, misses and self-loops included,
        /// so a good share of every stream are no-ops.
        type Op = (usize, usize, usize);

        /// Drives graph and model through `ops`; returns the edges that
        /// actually changed.
        fn run(
            g: &mut DiGraph,
            model: &mut BTreeSet<(usize, usize)>,
            ops: &[Op],
        ) -> Vec<(usize, usize)> {
            let n = g.n_nodes();
            let mut changed_edges = Vec::new();
            for &(op, u, v) in ops {
                let (u, v) = (u % n, v % n);
                let changed = if op == 0 {
                    let added = g.add_edge(u, v);
                    assert_eq!(added, u != v && model.insert((u, v)));
                    added
                } else {
                    let removed = g.remove_edge(u, v);
                    assert_eq!(removed, model.remove(&(u, v)));
                    removed
                };
                assert_eq!(g.has_edge(u, v), model.contains(&(u, v)));
                if changed {
                    changed_edges.push((u, v));
                }
            }
            changed_edges
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Copy-on-write contract against a `BTreeSet<(usize, usize)>`
            /// model, at node counts around the chunk boundaries: a clone
            /// taken mid-stream keeps its edge set and iteration order, the
            /// mutated graph equals the model, and *exactly* the chunks
            /// holding a changed endpoint stop being pointer-shared with the
            /// clone — a no-op add / remove never un-shares.
            #[test]
            fn mutations_match_the_model_and_unshare_only_touched_chunks(
                size in 0usize..6,
                before in proptest::collection::vec((0usize..3, 0usize..4096, 0usize..4096), 0..160),
                after in proptest::collection::vec((0usize..3, 0usize..4096, 0usize..4096), 0..24),
            ) {
                let n = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5][size];
                let mut g = DiGraph::new(n);
                let mut model = BTreeSet::new();
                if n == 0 {
                    prop_assert_eq!(observe(&g.clone()), expected(0, &model));
                    prop_assert_eq!(g.out.chunks.len() + g.inc.chunks.len(), 0);
                    return Ok(());
                }
                run(&mut g, &mut model, &before);
                prop_assert_eq!(observe(&g), expected(n, &model));

                let frozen = g.clone();
                let frozen_model = model.clone();
                let n_chunks = n.div_ceil(CHUNK);
                prop_assert_eq!(g.out.chunks.len(), n_chunks);
                prop_assert_eq!(g.inc.chunks.len(), n_chunks);
                prop_assert!((0..n_chunks).all(|c| {
                    Arc::ptr_eq(&g.out.chunks[c], &frozen.out.chunks[c])
                        && Arc::ptr_eq(&g.inc.chunks[c], &frozen.inc.chunks[c])
                }));

                let changed = run(&mut g, &mut model, &after);
                let touched_out: BTreeSet<usize> = changed.iter().map(|e| e.0 / CHUNK).collect();
                let touched_in: BTreeSet<usize> = changed.iter().map(|e| e.1 / CHUNK).collect();

                prop_assert_eq!(observe(&g), expected(n, &model));
                prop_assert_eq!(g.n_edges(), model.len());
                prop_assert_eq!(observe(&frozen), expected(n, &frozen_model));
                prop_assert_eq!(frozen.n_edges(), frozen_model.len());
                for c in 0..n_chunks {
                    prop_assert_eq!(
                        Arc::ptr_eq(&g.out.chunks[c], &frozen.out.chunks[c]),
                        !touched_out.contains(&c),
                        "successor chunk {}", c
                    );
                    prop_assert_eq!(
                        Arc::ptr_eq(&g.inc.chunks[c], &frozen.inc.chunks[c]),
                        !touched_in.contains(&c),
                        "predecessor chunk {}", c
                    );
                }
                prop_assert_eq!(g == frozen, model == frozen_model);
                prop_assert_eq!(&DiGraph::from_edges(n, model.iter().copied()), &g);
            }
        }
    }
}
