//! The benchmark's own span recorder: one span around every call it makes
//! into a layer, kept in memory and written once, at exit, by the traced run.
//! Spans inside the crates are a later issue; these are taken from outside.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.  `id` is the batch or query the call belongs to;
/// `calls` is how many back-to-back calls the span covers (a run of edge
/// operations that only buffered is recorded as one span).
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    id: u64,
    calls: u32,
}

/// Records nothing unless enabled, so the untraced run pays a branch.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
            calls: 1,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(index) = self.open.pop() {
            self.spans[index as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished call (or `calls` back-to-back ones) under the
    /// innermost open span, from clock readings the driver took anyway.
    pub fn leaf(&mut self, name: &'static str, id: u64, start: Instant, end: Instant, calls: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
            calls,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: how many spans, their total time, and their self time
    /// (total minus the part their children cover).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = by_name.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        by_name
    }

    /// The trace document: every span, plus the per-name summary.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("batch_or_query_id", Json::Num(s.id as f64)),
                    ("calls", Json::Num(s.calls as f64)),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ]),
                )
            });
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
            ("summary", Json::obj(summary)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new(true);
        let t0 = rec.origin;
        rec.enter("round", 0);
        rec.leaf(
            "engine.insert_edge",
            1,
            t0 + Duration::from_nanos(100),
            t0 + Duration::from_nanos(400),
            63,
        );
        rec.leaf(
            "engine.query",
            2,
            t0 + Duration::from_nanos(400),
            t0 + Duration::from_nanos(500),
            1,
        );
        rec.exit();
        rec.spans[0].start_ns = 0;
        rec.spans[0].end_ns = 1_000;
        let summary = rec.summary();
        assert_eq!(summary["round"], (1, 1_000, 600));
        assert_eq!(summary["engine.insert_edge"], (1, 300, 300));
        let doc = rec.to_json("w", 7);
        let spans = match doc.get("spans") {
            Some(Json::Arr(spans)) => spans,
            other => panic!("no span array: {other:?}"),
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        rec.enter("round", 0);
        rec.leaf("x", 0, Instant::now(), Instant::now(), 1);
        rec.exit();
        assert_eq!(rec.len(), 0);
    }
}
