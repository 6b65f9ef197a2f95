//! Streaming RWR over an evolving graph, served by `clude-engine`.
//!
//! The batch examples decompose a *finished* sequence; this one replays a
//! Wiki-like evolving graph as a live stream of edge operations and asks the
//! engine for random-walk-with-restart scores between batches — the paper's
//! "one decomposition, many cheap queries" promise in its online form.
//!
//! Run with:
//! ```text
//! cargo run --release --example streaming_rwr
//! ```

// CLI tool: printing the report is its entire purpose.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use clude_engine::{CludeEngine, EngineConfig};
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_measures::MeasureQuery;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let damping = 0.85;
    // A small Wiki-like sequence: 200 pages, 20 daily snapshots.
    let config = WikiLikeConfig::tiny();
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(42));
    let n = egs.n_nodes();
    println!(
        "wiki-like stream: {} pages, {} snapshots, {} -> {} links",
        n,
        egs.len(),
        egs.first_last_edge_counts().0,
        egs.first_last_edge_counts().1
    );

    // Bring up the engine on the first snapshot; cut a batch every 256 edge
    // changes, and start a new CLUDE "cluster" — re-order the block — once
    // its factors grow 50 % past their size at the last re-order
    // (`f64::INFINITY` would be INC's one ordering forever).
    let engine = CludeEngine::new(
        egs.snapshot(0),
        EngineConfig {
            max_batch_ops: 256,
            max_quality_loss: 0.5,
            ..EngineConfig::default()
        },
    )
    .expect("base snapshot factorizes");

    // The page we track: the one with the most in-links at the start.
    let tracked = (0..n)
        .max_by_key(|&u| egs.snapshot(0).in_degree(u))
        .unwrap();
    let query = MeasureQuery::Rwr {
        seed: tracked,
        damping,
    };

    // Replay every archived delta as single edge operations.
    for step in 0..egs.len() - 1 {
        let delta = egs.delta(step);
        for &(u, v) in &delta.removed {
            engine.remove_edge(u, v).expect("valid removal");
        }
        for &(u, v) in &delta.added {
            engine.insert_edge(u, v).expect("valid insertion");
        }
        // Close the day: apply whatever is still pending.
        engine.flush().expect("batch applies");

        let scores = engine.query(&query).expect("RWR query succeeds");
        let best_neighbour = (0..n)
            .filter(|&u| u != tracked)
            .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
            .unwrap();
        println!(
            "day {:>3} | snapshot {:>3} | rwr(self) {:.5} | closest page {:>4} ({:.5})",
            step + 1,
            engine.current_snapshot_id(),
            scores[tracked],
            best_neighbour,
            scores[best_neighbour]
        );
    }

    println!("\nengine counters:\n{}", engine.stats());
    println!(
        "retained snapshots for time travel: {:?}",
        engine.retained_snapshot_ids()
    );
}
