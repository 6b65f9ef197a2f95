//! Bennett per-pivot cost: replay a long matrix-delta stream against dynamic
//! LU factors and report µs/pivot and pivots/sec.
//!
//! Run with:
//! ```text
//! cargo run --release --bin bennett_pivot [tiny|default|large] [min_deltas]
//! ```
//!
//! The replay walks the Wiki-like evolving matrix sequence end to end,
//! applying every snapshot-to-snapshot delta through [`clude_lu::apply_delta_with`]
//! with one reused [`clude_lu::BennettWorkspace`], and cycles through the
//! sequence until at least `min_deltas` changed matrix entries (default
//! 10 000) have been streamed.  Only the Bennett sweep itself is timed; the
//! per-cycle re-factorization that resets fill between laps is not.  This is
//! the ROADMAP "per-pivot cost" probe: the number to watch is µs/pivot.
//!
//! The report also carries `probe steps per entry touched` — list-search
//! steps over factor entries visited, a pure count that is the same on every
//! machine for a given scale and seed.  The sweep walks cursors, so the ratio
//! sits well under one; a kernel that goes back to a search per access lands
//! near five.  Above [`MAX_PROBES_PER_ENTRY`] the binary exits non-zero,
//! which is what the CI "Bennett pivot smoke" step gates on.

// CLI tool: printing the report is its entire purpose.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use clude_bench::{BenchScale, Datasets};
use clude_lu::{apply_delta_with, BennettStats, BennettWorkspace, DynamicLuFactors};
use clude_telemetry::LogHistogram;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Ceiling on probe steps per entry touched (see the module docs).
const MAX_PROBES_PER_ENTRY: f64 = 1.0;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let scale = args
        .next()
        .map(|s| BenchScale::parse(&s).expect("scale is tiny|default|large"))
        .unwrap_or(BenchScale::Tiny);
    let min_deltas: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10_000);

    let data = Datasets::new(scale, 42);
    let ems = data.wiki_ems();
    assert!(ems.len() >= 2, "need at least one delta in the sequence");
    println!(
        "replay: {:?} wiki-like EMS, {} snapshots of order {}, streaming >= {} changed entries",
        scale,
        ems.len(),
        ems.matrix(0).n_rows(),
        min_deltas
    );

    // Precompute the per-step deltas once so the timed loop does no CSR work.
    let steps: Vec<Vec<(usize, usize, f64, f64)>> = (0..ems.len() - 1)
        .map(|i| {
            ems.matrix(i)
                .delta_to(ems.matrix(i + 1), 0.0)
                .expect("sequence matrices share a shape")
        })
        .collect();
    let entries_per_cycle: usize = steps.iter().map(Vec::len).sum();
    assert!(entries_per_cycle > 0, "sequence never changes");

    let mut workspace = BennettWorkspace::new();
    let mut stats = BennettStats::default();
    let mut structural = clude_sparse::StructuralStats::default();
    let mut streamed = 0usize;
    let mut sweep_time = Duration::ZERO;
    // Per-delta sweep latency distribution; recorded outside the timed
    // window so the histogram costs the measurement nothing.
    let sweep_hist = LogHistogram::new();
    while streamed < min_deltas {
        // Fresh factors per lap: each lap measures the same steady drift
        // instead of unboundedly accumulating fill across repeats.
        let mut factors =
            DynamicLuFactors::factorize(ems.matrix(0)).expect("base matrix factorizes");
        factors.reset_structural_stats();
        for delta in &steps {
            let t = Instant::now();
            let s = apply_delta_with(&mut factors, &mut workspace, delta)
                .expect("replay deltas stay factorizable");
            let elapsed = t.elapsed();
            sweep_time += elapsed;
            sweep_hist.record_duration(elapsed);
            stats.merge(&s);
            streamed += delta.len();
        }
        let s = factors.structural_stats();
        structural.inserts += s.inserts;
        structural.removals += s.removals;
        structural.probes += s.probes;
    }

    let pivots = stats.pivots_processed.max(1);
    let us_per_pivot = sweep_time.as_secs_f64() * 1e6 / pivots as f64;
    let pivots_per_sec = pivots as f64 / sweep_time.as_secs_f64();
    println!("\n--- bennett sweep ---");
    println!(
        "streamed {} changed entries as {} rank-one updates in {:.3?}",
        streamed, stats.rank_one_updates, sweep_time
    );
    println!(
        "pivots processed: {}  entries touched: {}",
        stats.pivots_processed, stats.entries_touched
    );
    println!(
        "structural: {} inserts, {} removals, {} probe steps",
        structural.inserts, structural.removals, structural.probes
    );
    let probes_per_entry = structural.probes as f64 / stats.entries_touched.max(1) as f64;
    println!("probe steps per entry touched: {probes_per_entry:.2}");
    println!(
        "per-delta sweep latency: p50 {:?}  p90 {:?}  p99 {:?}  max {:?}",
        sweep_hist.duration_at_quantile(0.50),
        sweep_hist.duration_at_quantile(0.90),
        sweep_hist.duration_at_quantile(0.99),
        sweep_hist.max_duration()
    );
    println!("us/pivot: {us_per_pivot:.3}");
    println!("pivots/sec: {pivots_per_sec:.0}");
    if probes_per_entry > MAX_PROBES_PER_ENTRY {
        eprintln!(
            "FAIL: {probes_per_entry:.2} probe steps per entry touched (ceiling \
             {MAX_PROBES_PER_ENTRY}): the sweep is searching per access again"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
