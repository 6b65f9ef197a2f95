//! Edge-delta ingestion and batch coalescing.
//!
//! The engine accepts single edge insertions/deletions and coalesces them
//! into [`GraphDelta`] batches before touching the factors: factor updates
//! amortise much better over a batch (one matrix delta, one numeric pass
//! over the reach of every changed row) than per edge, and opposite
//! operations on the same edge cancel without ever reaching the numeric
//! layer.
//!
//! A batch is cut when either bound of the [`BatchPolicy`] trips:
//!
//! * `max_ops` — the number of net pending changes, or
//! * `min_similarity` — the paper's snapshot-similarity threshold
//!   (Definition 6 restricted to edge sets): once the pending batch would
//!   drag the next snapshot's similarity to the current one below the
//!   threshold, the batch is applied so snapshots stay paper-plausibly
//!   close to each other.

use crate::error::{EngineError, EngineResult};
use clude_graph::{DiGraph, GraphDelta};
use clude_telemetry::{Stage, TelemetryRegistry};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A single streamed edge operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert the directed edge `(from, to)`.
    Insert(usize, usize),
    /// Remove the directed edge `(from, to)`.
    Remove(usize, usize),
}

impl EdgeOp {
    /// The edge endpoints.
    pub fn edge(&self) -> (usize, usize) {
        match *self {
            EdgeOp::Insert(u, v) | EdgeOp::Remove(u, v) => (u, v),
        }
    }
}

/// When to cut a pending batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Apply the batch once this many net edge changes are pending.
    pub max_ops: usize,
    /// Apply the batch once the would-be next snapshot's edge-set similarity
    /// to the current snapshot drops below this threshold (`None` disables
    /// the similarity trigger).
    pub min_similarity: Option<f64>,
}

impl Default for BatchPolicy {
    /// 64 changes per batch, no similarity trigger.
    fn default() -> Self {
        BatchPolicy {
            max_ops: 64,
            min_similarity: None,
        }
    }
}

impl BatchPolicy {
    /// A policy flushing every `max_ops` changes.
    pub fn by_count(max_ops: usize) -> Self {
        assert!(max_ops > 0, "batch size must be positive");
        BatchPolicy {
            max_ops,
            min_similarity: None,
        }
    }

    /// Refuses a policy whose cut rule cannot work: `max_ops` 0 (read as 1),
    /// or a `min_similarity` outside `[0, 1]` — NaN never cuts, since no
    /// similarity compares below it, and above 1 cuts on every op.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_ops == 0 {
            return Err("batch max_ops must be at least 1".into());
        }
        match self.min_similarity {
            Some(alpha) if !(0.0..=1.0).contains(&alpha) => Err(format!(
                "batch min_similarity must lie in [0, 1], got {alpha}"
            )),
            _ => Ok(()),
        }
    }

    /// A policy additionally flushing when similarity falls below `alpha`
    /// (the paper's clustering threshold, reused as a batch bound).
    pub fn by_similarity(max_ops: usize, alpha: f64) -> Self {
        assert!(max_ops > 0, "batch size must be positive");
        assert!(
            (0.0..=1.0).contains(&alpha),
            "similarity must lie in [0, 1]"
        );
        BatchPolicy {
            max_ops,
            min_similarity: Some(alpha),
        }
    }
}

/// What [`DeltaIngestor::offer`] decided about one edge operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The operation is pending in the current batch.
    Buffered,
    /// The operation was a no-op (inserting a present edge or a self-loop,
    /// removing an absent edge) or cancelled a pending opposite operation.
    Coalesced,
    /// The operation completed a batch; apply this delta to advance.
    Flush(GraphDelta),
}

/// Accepts single edge operations and coalesces them into [`GraphDelta`]
/// batches.
///
/// The ingestor tracks the *current* snapshot's edge set through the graph
/// reference passed to [`offer`](DeltaIngestor::offer) and keeps its own
/// pending add/remove sets; the batch counter advances only when a batch is
/// cut.
///
/// The cancellation rules are the same as [`GraphDelta::merge`]'s, applied
/// incrementally: `merge` composes two finished deltas in one pass, while
/// the ingestor pays `O(log pending)` per streamed operation (and also
/// drops no-ops against the live graph, which `merge` cannot see).  A
/// change to the cancellation semantics must keep the two in agreement.
#[derive(Debug, Clone)]
pub struct DeltaIngestor {
    policy: BatchPolicy,
    pending_adds: BTreeSet<(usize, usize)>,
    pending_removes: BTreeSet<(usize, usize)>,
    batches_cut: u64,
    telemetry: Arc<TelemetryRegistry>,
}

impl DeltaIngestor {
    /// A fresh ingestor with the given batch policy.
    pub fn new(policy: BatchPolicy) -> Self {
        DeltaIngestor {
            policy,
            pending_adds: BTreeSet::new(),
            pending_removes: BTreeSet::new(),
            batches_cut: 0,
            telemetry: Arc::new(TelemetryRegistry::disabled()),
        }
    }

    /// Attaches a telemetry registry; [`offer`](DeltaIngestor::offer) then
    /// records an `ingest.merge` span per coalescing step.
    pub fn with_telemetry(mut self, telemetry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Number of net pending edge changes.
    pub fn pending_ops(&self) -> usize {
        self.pending_adds.len() + self.pending_removes.len()
    }

    /// Number of batches cut so far.
    pub fn batches_cut(&self) -> u64 {
        self.batches_cut
    }

    /// The batch policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Edge-set similarity between the current snapshot and the snapshot the
    /// pending batch would produce: `|E ∩ E'| / |E ∪ E'|`.
    pub fn pending_similarity(&self, graph: &DiGraph) -> f64 {
        let base = graph.n_edges();
        let common = base - self.pending_removes.len();
        let union = base + self.pending_adds.len();
        if union == 0 {
            1.0
        } else {
            common as f64 / union as f64
        }
    }

    /// Offers one edge operation against the current snapshot `graph`.
    ///
    /// Returns [`IngestOutcome::Flush`] with the coalesced batch when the
    /// operation trips the batch policy; the caller must then apply the
    /// delta and advance the snapshot before offering further operations.
    pub fn offer(&mut self, op: EdgeOp, graph: &DiGraph) -> EngineResult<IngestOutcome> {
        // An owned handle so the span outlives `&mut self` uses below.
        let telemetry = Arc::clone(&self.telemetry);
        let _span = telemetry.span(Stage::IngestMerge);
        let (u, v) = op.edge();
        let n = graph.n_nodes();
        if u >= n || v >= n {
            return Err(EngineError::NodeOutOfRange {
                node: u.max(v),
                n_nodes: n,
            });
        }
        // Short-circuit order matters: the opposite-set `remove` (the
        // cancellation) must always run first, and the pending-set `insert`
        // only when the edge state actually changes.  A self-loop never
        // changes it (the graph ignores one), so it is dropped like a
        // present edge; no self-loop ever pends, so none is cancelled.
        let buffered = match op {
            EdgeOp::Insert(..) => {
                u != v
                    && !self.pending_removes.remove(&(u, v))
                    && !graph.has_edge(u, v)
                    && self.pending_adds.insert((u, v))
            }
            EdgeOp::Remove(..) => {
                !self.pending_adds.remove(&(u, v))
                    && graph.has_edge(u, v)
                    && self.pending_removes.insert((u, v))
            }
        };
        if !buffered {
            return Ok(IngestOutcome::Coalesced);
        }
        let over_count = self.pending_ops() >= self.policy.max_ops;
        let under_similarity = self
            .policy
            .min_similarity
            .is_some_and(|alpha| self.pending_similarity(graph) < alpha);
        if over_count || under_similarity {
            return Ok(IngestOutcome::Flush(self.take_batch()));
        }
        Ok(IngestOutcome::Buffered)
    }

    /// Cuts the current batch unconditionally; `None` when nothing pends.
    pub fn flush(&mut self) -> Option<GraphDelta> {
        if self.pending_ops() == 0 {
            None
        } else {
            Some(self.take_batch())
        }
    }

    fn take_batch(&mut self) -> GraphDelta {
        self.batches_cut += 1;
        GraphDelta {
            added: std::mem::take(&mut self.pending_adds).into_iter().collect(),
            removed: std::mem::take(&mut self.pending_removes)
                .into_iter()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> DiGraph {
        DiGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn self_loops_are_dropped_like_present_edges() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(1));
        for op in [EdgeOp::Insert(2, 2), EdgeOp::Remove(2, 2)] {
            assert_eq!(ing.offer(op, &g).unwrap(), IngestOutcome::Coalesced);
        }
        assert_eq!(ing.pending_ops(), 0);
        assert_eq!(ing.batches_cut(), 0);
    }

    #[test]
    fn count_policy_cuts_batches() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(2));
        assert_eq!(
            ing.offer(EdgeOp::Insert(3, 4), &g).unwrap(),
            IngestOutcome::Buffered
        );
        match ing.offer(EdgeOp::Remove(0, 1), &g).unwrap() {
            IngestOutcome::Flush(d) => {
                assert_eq!(d.added, vec![(3, 4)]);
                assert_eq!(d.removed, vec![(0, 1)]);
            }
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(ing.pending_ops(), 0);
        assert_eq!(ing.batches_cut(), 1);
    }

    #[test]
    fn opposite_operations_cancel() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(10));
        assert_eq!(
            ing.offer(EdgeOp::Insert(3, 4), &g).unwrap(),
            IngestOutcome::Buffered
        );
        // Removing the just-buffered addition cancels it.
        assert_eq!(
            ing.offer(EdgeOp::Remove(3, 4), &g).unwrap(),
            IngestOutcome::Coalesced
        );
        assert_eq!(ing.pending_ops(), 0);
        // And the same the other way around for a present edge.
        assert_eq!(
            ing.offer(EdgeOp::Remove(1, 2), &g).unwrap(),
            IngestOutcome::Buffered
        );
        assert_eq!(
            ing.offer(EdgeOp::Insert(1, 2), &g).unwrap(),
            IngestOutcome::Coalesced
        );
        assert_eq!(ing.pending_ops(), 0);
        assert!(ing.flush().is_none());
    }

    #[test]
    fn noop_operations_are_coalesced() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(10));
        // Edge already present.
        assert_eq!(
            ing.offer(EdgeOp::Insert(0, 1), &g).unwrap(),
            IngestOutcome::Coalesced
        );
        // Edge absent.
        assert_eq!(
            ing.offer(EdgeOp::Remove(4, 0), &g).unwrap(),
            IngestOutcome::Coalesced
        );
        // Duplicate pending addition.
        assert_eq!(
            ing.offer(EdgeOp::Insert(3, 4), &g).unwrap(),
            IngestOutcome::Buffered
        );
        assert_eq!(
            ing.offer(EdgeOp::Insert(3, 4), &g).unwrap(),
            IngestOutcome::Coalesced
        );
        assert_eq!(ing.pending_ops(), 1);
    }

    #[test]
    fn similarity_policy_cuts_early() {
        let g = chain(); // 3 edges
        let mut ing = DeltaIngestor::new(BatchPolicy::by_similarity(100, 0.75));
        // One addition: similarity 3/4 = 0.75, not yet below threshold.
        assert_eq!(
            ing.offer(EdgeOp::Insert(3, 4), &g).unwrap(),
            IngestOutcome::Buffered
        );
        // Second addition: similarity 3/5 = 0.6 < 0.75 -> flush.
        match ing.offer(EdgeOp::Insert(4, 0), &g).unwrap() {
            IngestOutcome::Flush(d) => assert_eq!(d.added.len(), 2),
            other => panic!("expected flush, got {other:?}"),
        }
    }

    #[test]
    fn pending_similarity_counts_both_directions() {
        let g = chain(); // 3 edges
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(100));
        ing.offer(EdgeOp::Insert(3, 4), &g).unwrap();
        ing.offer(EdgeOp::Remove(0, 1), &g).unwrap();
        // common = 3 - 1 = 2, union = 3 + 1 = 4.
        assert!((ing.pending_similarity(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::default());
        assert!(matches!(
            ing.offer(EdgeOp::Insert(0, 9), &g),
            Err(EngineError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn forced_flush_drains_pending() {
        let g = chain();
        let mut ing = DeltaIngestor::new(BatchPolicy::by_count(100));
        ing.offer(EdgeOp::Insert(3, 4), &g).unwrap();
        ing.offer(EdgeOp::Remove(2, 3), &g).unwrap();
        let d = ing.flush().expect("pending batch");
        assert_eq!(d.added, vec![(3, 4)]);
        assert_eq!(d.removed, vec![(2, 3)]);
        assert_eq!(ing.pending_ops(), 0);
        assert_eq!(ing.batches_cut(), 1);
    }
}
