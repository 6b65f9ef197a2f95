//! Edge-delta ingestion and batch coalescing.
//!
//! The engine accepts single edge insertions/deletions and coalesces them
//! into [`GraphDelta`] batches before touching the factors: factor updates
//! amortise much better over a batch (one matrix delta, one numeric pass
//! over the reach of every changed row) than per edge, and opposite
//! operations on the same edge cancel without ever reaching the numeric
//! layer.
//!
//! A batch is cut once `max_ops` net changes are pending
//! ([`crate::EngineConfig::max_batch_ops`]).  Where a new CLUDE cluster
//! starts is the store's quality budget
//! ([`crate::EngineConfig::max_quality_loss`]), not the batch cut.

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
    max_ops: usize,
    pending_adds: BTreeSet<(usize, usize)>,
    pending_removes: BTreeSet<(usize, usize)>,
    batches_cut: u64,
    telemetry: Arc<TelemetryRegistry>,
}

impl DeltaIngestor {
    /// A fresh ingestor cutting a batch once `max_ops` net changes pend; a
    /// `max_ops` of 0 is [`EngineError::InvalidConfig`].
    pub fn new(max_ops: usize) -> EngineResult<Self> {
        if max_ops == 0 {
            return Err(EngineError::InvalidConfig(
                "batch max_ops must be at least 1".into(),
            ));
        }
        Ok(DeltaIngestor {
            max_ops,
            pending_adds: BTreeSet::new(),
            pending_removes: BTreeSet::new(),
            batches_cut: 0,
            telemetry: Arc::new(TelemetryRegistry::disabled()),
        })
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

    /// Offers one edge operation against the current snapshot `graph`.
    ///
    /// Returns [`IngestOutcome::Flush`] with the coalesced batch when the
    /// operation brings the pending changes to `max_ops`; the caller must
    /// then apply the delta and advance the snapshot before offering further
    /// operations.
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
        if self.pending_ops() >= self.max_ops {
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
    fn an_ingestor_refuses_max_ops_zero() {
        assert!(matches!(
            DeltaIngestor::new(0),
            Err(EngineError::InvalidConfig(m)) if m.contains("max_ops")
        ));
        assert!(DeltaIngestor::new(1).is_ok());
    }

    #[test]
    fn self_loops_are_dropped_like_present_edges() {
        let g = chain();
        let mut ing = DeltaIngestor::new(1).unwrap();
        for op in [EdgeOp::Insert(2, 2), EdgeOp::Remove(2, 2)] {
            assert_eq!(ing.offer(op, &g).unwrap(), IngestOutcome::Coalesced);
        }
        assert_eq!(ing.pending_ops(), 0);
        assert_eq!(ing.batches_cut(), 0);
    }

    #[test]
    fn count_policy_cuts_batches() {
        let g = chain();
        let mut ing = DeltaIngestor::new(2).unwrap();
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
        let mut ing = DeltaIngestor::new(10).unwrap();
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
        let mut ing = DeltaIngestor::new(10).unwrap();
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
    fn out_of_range_nodes_are_rejected() {
        let g = chain();
        let mut ing = DeltaIngestor::new(64).unwrap();
        assert!(matches!(
            ing.offer(EdgeOp::Insert(0, 9), &g),
            Err(EngineError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn forced_flush_drains_pending() {
        let g = chain();
        let mut ing = DeltaIngestor::new(100).unwrap();
        ing.offer(EdgeOp::Insert(3, 4), &g).unwrap();
        ing.offer(EdgeOp::Remove(2, 3), &g).unwrap();
        let d = ing.flush().expect("pending batch");
        assert_eq!(d.added, vec![(3, 4)]);
        assert_eq!(d.removed, vec![(2, 3)]);
        assert_eq!(ing.pending_ops(), 0);
        assert_eq!(ing.batches_cut(), 1);
    }
}
