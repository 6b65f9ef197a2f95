//! Directed graph snapshots.
//!
//! A [`DiGraph`] is one snapshot `G_i` of an evolving graph sequence: a fixed
//! node set `0..n` and a set of directed edges.  Undirected graphs (e.g. the
//! DBLP-like co-authorship snapshots) are represented by storing both
//! directions of every edge.
//!
//! Every node's successor and predecessor set sits behind an [`Arc`] and is
//! mutated through [`Arc::make_mut`], so cloning a graph is `2·n` pointer
//! bumps and a clone that is later mutated copies only the sets of the nodes
//! it touches — the streaming engine clones the graph into every published
//! snapshot, and a batch touches a handful of nodes.

use std::collections::BTreeSet;
use std::sync::Arc;

/// A directed graph over the node set `0..n`.
///
/// Cloning is cheap (copy-on-write adjacency sets, see the module docs);
/// equality compares the edge sets, not the sharing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    /// Out-adjacency: for each node, the sorted set of successors.
    out: Vec<Arc<BTreeSet<usize>>>,
    /// In-adjacency: for each node, the sorted set of predecessors.
    inc: Vec<Arc<BTreeSet<usize>>>,
    n_edges: usize,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        // Every node starts out sharing one empty set.
        let empty = Arc::new(BTreeSet::new());
        DiGraph {
            n,
            out: vec![Arc::clone(&empty); n],
            inc: vec![empty; n],
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
        u < self.n && self.out[u].contains(&v)
    }

    /// Adds edge `(u, v)`.  Self-loops and duplicates are ignored.
    /// Returns `true` when the edge was newly added.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge endpoint out of bounds");
        if u == v || self.out[u].contains(&v) {
            return false;
        }
        Arc::make_mut(&mut self.out[u]).insert(v);
        Arc::make_mut(&mut self.inc[v]).insert(u);
        self.n_edges += 1;
        true
    }

    /// Removes edge `(u, v)`.  Returns `true` when it was present.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u < self.n && v < self.n, "edge endpoint out of bounds");
        // Probe first: a miss must not un-share the set.
        if !self.out[u].contains(&v) {
            return false;
        }
        Arc::make_mut(&mut self.out[u]).remove(&v);
        Arc::make_mut(&mut self.inc[v]).remove(&u);
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
        self.out[u].len()
    }

    /// In-degree of node `u`.
    pub fn in_degree(&self, u: usize) -> usize {
        self.inc[u].len()
    }

    /// Iterator over the successors of `u` in ascending order.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.out[u].iter().copied()
    }

    /// Iterator over the predecessors of `u` in ascending order.
    pub fn predecessors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.inc[u].iter().copied()
    }

    /// Iterator over every directed edge `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(u, succ)| succ.iter().map(move |&v| (u, v)))
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

    /// Copy-on-write contract, against a plain edge-set model: a clone taken
    /// before a run of random adds/removes still equals its pre-mutation
    /// self afterwards, the mutated graph equals the model, and exactly the
    /// nodes the run never touched stay pointer-shared with the clone.
    #[test]
    fn clone_then_mutate_leaves_the_clone_intact_and_untouched_nodes_shared() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let n = 24;
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut g = DiGraph::new(n);
            for _ in 0..60 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if g.add_edge(u, v) {
                    model.insert((u, v));
                }
            }
            let frozen = g.clone();
            let frozen_model = model.clone();
            assert!((0..n).all(|u| Arc::ptr_eq(&g.out[u], &frozen.out[u])));

            let mut touched_out = BTreeSet::new();
            let mut touched_in = BTreeSet::new();
            for _ in 0..rng.gen_range(1..12usize) {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let changed = if rng.gen_bool(0.5) {
                    let added = g.add_edge(u, v);
                    assert_eq!(added, u != v && model.insert((u, v)));
                    added
                } else {
                    let removed = g.remove_edge(u, v);
                    assert_eq!(removed, model.remove(&(u, v)));
                    removed
                };
                if changed {
                    touched_out.insert(u);
                    touched_in.insert(v);
                }
            }

            assert_eq!(g.edges().collect::<BTreeSet<_>>(), model);
            assert_eq!(g.n_edges(), model.len());
            assert_eq!(frozen.edges().collect::<BTreeSet<_>>(), frozen_model);
            assert_eq!(frozen.n_edges(), frozen_model.len());
            for u in 0..n {
                assert_eq!(
                    frozen.predecessors(u).collect::<Vec<_>>(),
                    frozen_model
                        .iter()
                        .filter(|&&(_, v)| v == u)
                        .map(|&(s, _)| s)
                        .collect::<Vec<_>>()
                );
                // A no-op add/remove must not un-share either.
                assert_eq!(
                    Arc::ptr_eq(&g.out[u], &frozen.out[u]),
                    !touched_out.contains(&u),
                    "seed {seed}: successor set of node {u}"
                );
                assert_eq!(
                    Arc::ptr_eq(&g.inc[u], &frozen.inc[u]),
                    !touched_in.contains(&u),
                    "seed {seed}: predecessor set of node {u}"
                );
            }
            assert_eq!(g == frozen, model == frozen_model);
        }
    }

    #[test]
    fn statistics() {
        let g = DiGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 2)]);
        assert!((g.average_out_degree() - 0.75).abs() < 1e-12);
        let hist = g.out_degree_histogram();
        assert_eq!(hist, vec![2, 1, 1]); // two nodes deg 0, one deg 1, one deg 2
        assert_eq!(DiGraph::new(0).average_out_degree(), 0.0);
    }
}
