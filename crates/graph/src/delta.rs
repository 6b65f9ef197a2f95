//! Edge deltas between successive graph snapshots.
//!
//! An evolving graph sequence stores its first snapshot in full and every
//! later snapshot as a [`GraphDelta`] against its predecessor, reflecting the
//! paper's observation that successive snapshots share more than 99 % of
//! their edges.

use crate::digraph::DiGraph;
use crate::partition::NodePartition;
use std::collections::BTreeSet;

/// The set of edge insertions and deletions turning one snapshot into the next.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Directed edges added in the newer snapshot.
    pub added: Vec<(usize, usize)>,
    /// Directed edges removed in the newer snapshot.
    pub removed: Vec<(usize, usize)>,
}

impl GraphDelta {
    /// An empty delta (snapshot identical to its predecessor).
    pub fn empty() -> Self {
        GraphDelta::default()
    }

    /// Builds the delta turning `from` into `to`.
    ///
    /// # Panics
    /// Panics when the two graphs have different node counts (snapshots of an
    /// EGS share a fixed node universe).
    pub fn between(from: &DiGraph, to: &DiGraph) -> Self {
        assert_eq!(
            from.n_nodes(),
            to.n_nodes(),
            "snapshots must share a node universe"
        );
        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (u, v) in to.edges() {
            if !from.has_edge(u, v) {
                added.push((u, v));
            }
        }
        for (u, v) in from.edges() {
            if !to.has_edge(u, v) {
                removed.push((u, v));
            }
        }
        GraphDelta { added, removed }
    }

    /// Total number of edge changes, `|ΔE⁺| + |ΔE⁻|` in the paper's notation.
    pub fn size(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Returns `true` when the delta contains no changes.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies the delta to a graph in place (removals first, then additions).
    pub fn apply(&self, graph: &mut DiGraph) {
        for &(u, v) in &self.removed {
            graph.remove_edge(u, v);
        }
        for &(u, v) in &self.added {
            graph.add_edge(u, v);
        }
    }

    /// The inverse delta (applying it undoes `self`).
    pub fn inverse(&self) -> GraphDelta {
        GraphDelta {
            added: self.removed.clone(),
            removed: self.added.clone(),
        }
    }

    /// Composes `self` followed by `later` into a single delta, cancelling
    /// opposite changes: an edge added by `self` and removed by `later` (or
    /// vice versa) disappears from the merged delta entirely.
    ///
    /// For deltas that are valid against some graph `G` (adds of absent
    /// edges, removals of present edges), `merged.apply(G)` is equivalent to
    /// `self.apply(G); later.apply(G)`.
    ///
    /// # Order stability
    /// The merged edge lists are *canonical*: always sorted ascending and
    /// deduplicated, regardless of the order the input lists stored their
    /// edges in.  Two merges over inputs that are equal as edge *sets*
    /// therefore produce identical `GraphDelta` values — the engine's
    /// ingestor relies on this to keep coalesced batches deterministic.
    pub fn merge(&self, later: &GraphDelta) -> GraphDelta {
        let mut added: BTreeSet<(usize, usize)> = self.added.iter().copied().collect();
        let mut removed: BTreeSet<(usize, usize)> = self.removed.iter().copied().collect();
        for &e in &later.removed {
            // Removing an edge this delta added cancels the addition.
            if !added.remove(&e) {
                removed.insert(e);
            }
        }
        for &e in &later.added {
            // Re-adding an edge this delta removed cancels the removal.
            if !removed.remove(&e) {
                added.insert(e);
            }
        }
        GraphDelta {
            added: added.into_iter().collect(),
            removed: removed.into_iter().collect(),
        }
    }

    /// Splits the delta by a node partition into per-shard intra deltas plus
    /// the cross-shard remainder.
    ///
    /// An edge change is *intra* when both endpoints live in the same shard;
    /// it lands in that shard's delta (indexed by shard id in the returned
    /// `Vec`).  Changes whose endpoints straddle two shards form the second
    /// return value.  The relative order of `self`'s edge lists is preserved
    /// within every output, and the outputs together hold exactly `self`'s
    /// changes: applying all per-shard deltas plus the remainder (in any
    /// order — they touch disjoint edges) equals applying `self`.
    ///
    /// # Panics
    /// Panics when an edge endpoint lies outside the partition's universe.
    pub fn split_by(&self, partition: &NodePartition) -> (Vec<GraphDelta>, GraphDelta) {
        let mut intra = vec![GraphDelta::empty(); partition.n_shards()];
        let mut cross = GraphDelta::empty();
        for &(u, v) in &self.added {
            if partition.is_intra(u, v) {
                intra[partition.shard_of(u)].added.push((u, v));
            } else {
                cross.added.push((u, v));
            }
        }
        for &(u, v) in &self.removed {
            if partition.is_intra(u, v) {
                intra[partition.shard_of(u)].removed.push((u, v));
            } else {
                cross.removed.push((u, v));
            }
        }
        (intra, cross)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn between_and_apply_roundtrip() {
        let a = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let b = DiGraph::from_edges(4, vec![(0, 1), (2, 3), (3, 0), (1, 3)]);
        let d = GraphDelta::between(&a, &b);
        assert_eq!(d.size(), 3); // removed (1,2); added (3,0),(1,3)
        assert_eq!(d.removed, vec![(1, 2)]);
        let mut a2 = a.clone();
        d.apply(&mut a2);
        assert_eq!(a2, b);
        // Inverse restores the original.
        let mut b2 = b.clone();
        d.inverse().apply(&mut b2);
        assert_eq!(b2, a);
    }

    #[test]
    fn empty_delta() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let d = GraphDelta::between(&g, &g);
        assert!(d.is_empty());
        assert_eq!(d, GraphDelta::empty());
        assert_eq!(d.size(), 0);
    }

    #[test]
    #[should_panic(expected = "node universe")]
    fn between_requires_same_node_count() {
        let a = DiGraph::new(2);
        let b = DiGraph::new(3);
        GraphDelta::between(&a, &b);
    }

    #[test]
    fn merge_cancels_add_followed_by_remove() {
        let first = GraphDelta {
            added: vec![(0, 1), (1, 2)],
            removed: vec![],
        };
        let second = GraphDelta {
            added: vec![],
            removed: vec![(0, 1)],
        };
        let merged = first.merge(&second);
        assert_eq!(merged.added, vec![(1, 2)]);
        assert!(merged.removed.is_empty());
        assert_eq!(merged.size(), 1);
    }

    #[test]
    fn merge_cancels_remove_followed_by_add() {
        let first = GraphDelta {
            added: vec![],
            removed: vec![(2, 3)],
        };
        let second = GraphDelta {
            added: vec![(2, 3), (3, 0)],
            removed: vec![],
        };
        let merged = first.merge(&second);
        assert_eq!(merged.added, vec![(3, 0)]);
        assert!(merged.removed.is_empty());
    }

    #[test]
    fn merge_of_inverse_is_empty() {
        let d = GraphDelta {
            added: vec![(0, 1), (2, 3)],
            removed: vec![(1, 2)],
        };
        assert!(d.merge(&d.inverse()).is_empty());
    }

    #[test]
    fn merge_agrees_with_sequential_application() {
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let first = GraphDelta {
            added: vec![(4, 0), (0, 2)],
            removed: vec![(1, 2)],
        };
        let second = GraphDelta {
            added: vec![(1, 2)],
            removed: vec![(4, 0), (3, 4)],
        };
        // Sequential application.
        let mut sequential = g.clone();
        first.apply(&mut sequential);
        second.apply(&mut sequential);
        // Merged application.
        let mut merged_g = g.clone();
        let merged = first.merge(&second);
        merged.apply(&mut merged_g);
        assert_eq!(sequential, merged_g);
        // (4,0) and (1,2) cancelled: only (0,2) added, only (3,4) removed.
        assert_eq!(merged.added, vec![(0, 2)]);
        assert_eq!(merged.removed, vec![(3, 4)]);
    }

    #[test]
    fn merge_output_is_order_stable() {
        // The same edge sets in different list orders must merge to the same
        // canonical (sorted, deduplicated) delta.
        let shuffled = GraphDelta {
            added: vec![(3, 1), (0, 2), (3, 1)],
            removed: vec![(2, 0), (1, 4)],
        };
        let sorted = GraphDelta {
            added: vec![(0, 2), (3, 1)],
            removed: vec![(1, 4), (2, 0)],
        };
        let later = GraphDelta {
            added: vec![(4, 4), (1, 4)],
            removed: vec![(3, 1)],
        };
        let a = shuffled.merge(&later);
        let b = sorted.merge(&later);
        assert_eq!(a, b);
        // And the outputs themselves are sorted ascending.
        assert!(a.added.windows(2).all(|w| w[0] < w[1]));
        assert!(a.removed.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn split_by_partitions_changes_and_preserves_order() {
        let p = NodePartition::contiguous(6, 2); // {0,1,2} | {3,4,5}
        let d = GraphDelta {
            added: vec![(5, 4), (0, 3), (1, 0), (2, 1)],
            removed: vec![(3, 5), (4, 0)],
        };
        let (intra, cross) = d.split_by(&p);
        assert_eq!(intra.len(), 2);
        assert_eq!(intra[0].added, vec![(1, 0), (2, 1)]);
        assert!(intra[0].removed.is_empty());
        assert_eq!(intra[1].added, vec![(5, 4)]);
        assert_eq!(intra[1].removed, vec![(3, 5)]);
        assert_eq!(cross.added, vec![(0, 3)]);
        assert_eq!(cross.removed, vec![(4, 0)]);
        // Nothing lost, nothing invented.
        let total: usize = intra.iter().map(GraphDelta::size).sum::<usize>() + cross.size();
        assert_eq!(total, d.size());
    }

    #[test]
    fn split_by_application_equals_direct_application() {
        let p = NodePartition::contiguous(6, 3);
        let base = DiGraph::from_edges(6, vec![(0, 1), (2, 3), (4, 5), (1, 4)]);
        let d = GraphDelta {
            added: vec![(1, 0), (3, 2), (5, 0), (2, 4)],
            removed: vec![(2, 3), (1, 4)],
        };
        let mut direct = base.clone();
        d.apply(&mut direct);
        let (intra, cross) = d.split_by(&p);
        let mut pieced = base;
        for shard_delta in &intra {
            shard_delta.apply(&mut pieced);
        }
        cross.apply(&mut pieced);
        assert_eq!(direct, pieced);
    }

    #[test]
    fn merge_with_empty_is_identity_up_to_ordering() {
        let d = GraphDelta {
            added: vec![(1, 0), (0, 1)],
            removed: vec![(2, 2)],
        };
        let merged = d.merge(&GraphDelta::empty());
        assert_eq!(merged.added, vec![(0, 1), (1, 0)]);
        assert_eq!(merged.removed, vec![(2, 2)]);
        let merged2 = GraphDelta::empty().merge(&d);
        assert_eq!(merged2.added, vec![(0, 1), (1, 0)]);
    }
}
