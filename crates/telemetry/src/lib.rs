//! Telemetry for the streaming engine: timed spans, lock-free histograms,
//! counters/gauges, and a bounded structured event journal.
//!
//! The engine's hot paths (numeric passes, coupling solves, snapshot freezes,
//! cached query solves) run concurrently on reader and writer threads, so the
//! recording side of this crate is built entirely from relaxed atomics: a
//! [`LogHistogram`] is an array of `AtomicU64` buckets that any number of
//! threads may record into through a shared reference, exactly like the
//! structural probe counters the sparse substrate already carries. Rare,
//! high-information events (refresh trips, convergence failures) instead go
//! through a mutex-guarded ring, the [`EventJournal`] — they happen a handful
//! of times per replay, so contention is irrelevant and the typed payload is
//! worth the lock.
//!
//! Everything hangs off a [`TelemetryRegistry`]:
//!
//! * [`Stage`] is the static registry of instrumented stages
//!   (`ingest.merge`, `shard.refactor`, `coupling.gauss_seidel`, ...); each
//!   stage owns one duration histogram.
//! * [`TelemetryRegistry::span`] returns a RAII [`Span`] that records the
//!   elapsed time into the stage's histogram on drop. With
//!   [`TelemetryConfig::disabled`] it never reads the clock — a span is
//!   then a single branch on a `bool`.
//! * [`Counter`], [`ShardCounter`] and [`Gauge`] name the monotonic
//!   counters, the per-shard counters (one row per shard, sized by
//!   [`TelemetryRegistry::with_shards`]) and the sampled gauges (coupling
//!   nnz, resident factor bytes, ring depth).  They record whether or not
//!   the registry is enabled — a relaxed add — because the engine's
//!   statistics are read from them; `enabled` gates only the clock, the
//!   histograms and the journal.
//! * [`TelemetryRegistry::render_prometheus`] and
//!   [`TelemetryRegistry::render_json`] expose the whole registry in the
//!   Prometheus text format (summary-style, seconds) and as a JSON document.
//!
//! The crate has **no dependencies**: the build environment is hermetic, so
//! like the vendored `rand`/`proptest` it implements the small surface it
//! needs from scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod journal;
mod registry;
mod stage;

pub use hist::{HistogramSnapshot, LogHistogram};
pub use journal::{EngineEvent, EventJournal, EventKind, JournalEntry, RefreshReason};
pub use registry::{
    validate_prometheus, Counter, Gauge, ShardCounter, Span, TelemetryConfig, TelemetryRegistry,
};
pub use stage::Stage;
