//! Binary wire encoding of graph-layer durability state.
//!
//! The engine's write-ahead log and checkpoints persist [`GraphDelta`]s,
//! snapshot edge sets, and [`NodePartition`] assignments.  This module is
//! the shared little-endian codec for those payloads: a bump-pointer
//! [`WireWriter`] and a bounds-checked [`WireReader`] whose every read
//! returns a [`WireError`] instead of panicking — the reader's input is a
//! possibly-torn, possibly-corrupt file tail, so decoding must fail loudly
//! and recoverably, never by panic and never silently wrong.
//!
//! The format is deliberately boring: `u32`/`u64` little-endian integers,
//! `f64` as IEEE-754 bits, and length-prefixed sequences.  Versioning and
//! checksumming are the *container's* job (the engine's WAL records and
//! checkpoint files carry magic/version tags and CRCs around these
//! payloads); the codec itself is stable within a container version.

use crate::delta::GraphDelta;
use crate::digraph::DiGraph;
use crate::partition::NodePartition;
use std::fmt;

/// A decoding failure: the input was shorter than the payload it claims to
/// hold, or a declared count/id is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The reader ran past the end of the buffer.
    UnexpectedEnd {
        /// Byte offset of the failed read.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A decoded value violates a structural invariant (e.g. a node id at or
    /// beyond the declared universe size).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated payload at byte {offset}: needed {needed} bytes, {remaining} left"
            ),
            WireError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias.
pub type WireResult<T> = Result<T, WireError>;

/// An append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `usize` as a `u64` (the on-disk format is
    /// pointer-width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends one `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn put_usize_seq(&mut self, seq: &[usize]) {
        self.put_usize(seq.len());
        for &v in seq {
            self.put_usize(v);
        }
    }

    /// Appends a length-prefixed edge list.
    pub fn put_edges(&mut self, edges: &[(usize, usize)]) {
        self.put_usize(edges.len());
        for &(u, v) in edges {
            self.put_usize(u);
            self.put_usize(v);
        }
    }
}

/// A bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEnd {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one little-endian `u32`.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one little-endian `u64`.
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads one `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> WireResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid(format!("{v} overflows usize")))
    }

    /// Reads one `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed `usize` sequence.
    pub fn get_usize_seq(&mut self) -> WireResult<Vec<usize>> {
        let len = self.get_usize()?;
        self.check_count(len, 8)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_usize()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed edge list.
    pub fn get_edges(&mut self) -> WireResult<Vec<(usize, usize)>> {
        let len = self.get_usize()?;
        self.check_count(len, 16)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let u = self.get_usize()?;
            let v = self.get_usize()?;
            out.push((u, v));
        }
        Ok(out)
    }

    /// Rejects a declared element count whose minimal encoding would already
    /// overrun the buffer — so corrupt length prefixes fail fast instead of
    /// driving a near-unbounded allocation loop.
    fn check_count(&self, count: usize, min_bytes_each: usize) -> WireResult<()> {
        if count.saturating_mul(min_bytes_each) > self.remaining() {
            return Err(WireError::UnexpectedEnd {
                offset: self.pos,
                needed: count.saturating_mul(min_bytes_each),
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Encodes a delta as `added edges, removed edges` (both length-prefixed).
pub fn encode_delta(w: &mut WireWriter, delta: &GraphDelta) {
    w.put_edges(&delta.added);
    w.put_edges(&delta.removed);
}

/// Decodes a delta written by [`encode_delta`].
pub fn decode_delta(r: &mut WireReader<'_>) -> WireResult<GraphDelta> {
    let added = r.get_edges()?;
    let removed = r.get_edges()?;
    Ok(GraphDelta { added, removed })
}

/// Encodes a graph as `n_nodes, edge list`.
pub fn encode_graph(w: &mut WireWriter, graph: &DiGraph) {
    w.put_usize(graph.n_nodes());
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    w.put_edges(&edges);
}

/// Decodes a graph written by [`encode_graph`] over the `n_nodes`-node
/// universe the caller expects, validating the declared node count before a
/// node is allocated and every edge against it.  The edges must be strictly
/// ascending and free of self-loops, as [`encode_graph`] writes them, so one
/// graph has one encoding and a repeated edge or a self-loop is corruption,
/// not an edge [`DiGraph::from_edges`] silently drops.
pub fn decode_graph(r: &mut WireReader<'_>, n_nodes: usize) -> WireResult<DiGraph> {
    let n = r.get_usize()?;
    if n != n_nodes {
        return Err(WireError::Invalid(format!(
            "graph of {n} nodes where {n_nodes} were expected"
        )));
    }
    let edges = r.get_edges()?;
    for (k, &(u, v)) in edges.iter().enumerate() {
        if u >= n || v >= n {
            return Err(WireError::Invalid(format!(
                "edge ({u}, {v}) outside the {n}-node universe"
            )));
        }
        if u == v {
            return Err(WireError::Invalid(format!("self-loop ({u}, {u})")));
        }
        if k > 0 && edges[k - 1] >= (u, v) {
            return Err(WireError::Invalid(format!(
                "edge ({u}, {v}) does not follow its predecessor in ascending order"
            )));
        }
    }
    Ok(DiGraph::from_edges(n, edges))
}

/// Encodes a partition as its dense `node → shard` assignment vector.
pub fn encode_partition(w: &mut WireWriter, partition: &NodePartition) {
    w.put_usize_seq(partition.assignments());
}

/// Decodes a partition written by [`encode_partition`], validating that the
/// assignment forms the dense non-empty shard range the constructor demands.
/// Every shard holds a node, so a shard id at or past the node count is
/// rejected before anything is sized by it.
pub fn decode_partition(r: &mut WireReader<'_>) -> WireResult<NodePartition> {
    let assignments = r.get_usize_seq()?;
    let n = assignments.len();
    if let Some(&s) = assignments.iter().find(|&&s| s >= n) {
        return Err(WireError::Invalid(format!(
            "shard id {s} in a partition of {n} nodes"
        )));
    }
    let k = assignments.iter().copied().max().map_or(1, |m| m + 1);
    let mut seen = vec![false; k];
    for &s in &assignments {
        seen[s] = true;
    }
    if !assignments.is_empty() && seen.iter().any(|&s| !s) {
        return Err(WireError::Invalid(format!(
            "partition assignment skips a shard id below {k}"
        )));
    }
    Ok(NodePartition::from_assignments(assignments))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 7);
        w.put_usize(42);
        w.put_f64(-0.1);
        w.put_f64(f64::MIN_POSITIVE);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.get_f64().unwrap(), f64::MIN_POSITIVE);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail_loudly() {
        let mut w = WireWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..5]);
        let err = r.get_u64().unwrap_err();
        assert!(matches!(
            err,
            WireError::UnexpectedEnd {
                needed: 8,
                remaining: 5,
                ..
            }
        ));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn corrupt_length_prefix_fails_instead_of_allocating() {
        let mut w = WireWriter::new();
        w.put_usize(usize::MAX / 2); // absurd element count, no elements
        let bytes = w.into_bytes();
        let err = WireReader::new(&bytes).get_edges().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEnd { .. }));
        let err = WireReader::new(&bytes).get_usize_seq().unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEnd { .. }));
    }

    #[test]
    fn delta_round_trips() {
        let delta = GraphDelta {
            added: vec![(0, 1), (3, 2)],
            removed: vec![(5, 0)],
        };
        let mut w = WireWriter::new();
        encode_delta(&mut w, &delta);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(decode_delta(&mut r).unwrap(), delta);
        assert!(r.is_exhausted());
    }

    #[test]
    fn graph_round_trips_and_validates() {
        let g = DiGraph::from_edges(5, vec![(0, 1), (1, 2), (4, 0)]);
        let mut w = WireWriter::new();
        encode_graph(&mut w, &g);
        let bytes = w.into_bytes();
        let decoded = decode_graph(&mut WireReader::new(&bytes), 5).unwrap();
        assert_eq!(decoded, g);
        // An out-of-universe edge is rejected, not constructed.
        let mut w = WireWriter::new();
        w.put_usize(2);
        w.put_edges(&[(0, 7)]);
        let bytes = w.into_bytes();
        let err = decode_graph(&mut WireReader::new(&bytes), 2).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)));
        // A repeated edge, edges out of ascending order, a self-loop.
        for edges in [[(0, 1), (0, 1)], [(1, 0), (0, 1)], [(0, 1), (1, 1)]] {
            let mut w = WireWriter::new();
            w.put_usize(2);
            w.put_edges(&edges);
            let bytes = w.into_bytes();
            let err = decode_graph(&mut WireReader::new(&bytes), 2).unwrap_err();
            assert!(matches!(err, WireError::Invalid(_)), "{edges:?}");
        }
    }

    /// A partition payload of `assignments`, as [`encode_partition`] writes
    /// it.
    fn partition_bytes(assignments: &[usize]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_usize_seq(assignments);
        w.into_bytes()
    }

    #[test]
    fn a_shard_id_past_the_node_count_is_rejected_before_allocating() {
        let bytes = partition_bytes(&[0, 1 << 40]);
        let err = decode_partition(&mut WireReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("shard id 1099511627776"), "{err}");
    }

    #[test]
    fn a_shard_id_of_usize_max_is_rejected_without_overflow() {
        let bytes = partition_bytes(&[usize::MAX, 0]);
        let err = decode_partition(&mut WireReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "{err}");
    }

    #[test]
    fn a_graph_of_an_unexpected_node_count_is_rejected_before_allocating() {
        let mut w = WireWriter::new();
        w.put_usize(1 << 50);
        w.put_edges(&[]);
        let bytes = w.into_bytes();
        let err = decode_graph(&mut WireReader::new(&bytes), 3).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("3 were expected"), "{err}");
    }

    #[test]
    fn partition_round_trips_and_validates() {
        let p = NodePartition::from_assignments(vec![1, 0, 1, 2, 0]);
        let mut w = WireWriter::new();
        encode_partition(&mut w, &p);
        let bytes = w.into_bytes();
        let decoded = decode_partition(&mut WireReader::new(&bytes)).unwrap();
        assert_eq!(decoded, p);
        // A sparse shard range (id 2 without id 1) is rejected before the
        // constructor can panic on it.
        let mut w = WireWriter::new();
        w.put_usize_seq(&[0, 2, 0]);
        let bytes = w.into_bytes();
        let err = decode_partition(&mut WireReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, WireError::Invalid(_)));
    }
}
