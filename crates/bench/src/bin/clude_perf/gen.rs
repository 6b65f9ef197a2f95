//! Workload generators.  Everything the program under test receives — base
//! graphs, edge-operation streams, query lists — is made here from the seed;
//! the same seed gives the same inputs.

use crate::dict::Workload;
use clude_engine::EdgeOp;
use clude_graph::generators::wiki_like::{self, WikiLikeConfig};
use clude_graph::{DiGraph, EvolvingGraphSequence};
use clude_measures::MeasureQuery;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashSet;

/// Damping of every query; matches the engine's default matrix composition.
pub const DAMPING: f64 = 0.85;
/// Pages at the head of the id range that the hot query mix favours (the
/// generator attaches preferentially, so low ids are the popular pages).
pub const HOT_SET: usize = 32;
/// Edges the value-toggle stream flips per round.  Must be at least one
/// ingest batch (64) wide: a narrower pool would put an edge's removal and
/// its re-insertion into one batch, where they cancel.
pub const TOGGLE_POOL: usize = 512;

/// Batches the durable stream applies after its last checkpoint: the WAL
/// records recovery replays (the issue asks for 40-60).
pub const WAL_TAIL: u64 = 50;

/// Full scale measures; smoke scale exercises every phase and check in well
/// under a second per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Seed of round `round` of a run seeded `seed` (splitmix64 of the pair), so
/// the rounds of one run see different inputs of the same distribution.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Size knobs of one workload at one scale.  Full-scale sizes are chosen so
/// one round's timed section lasts 0.5-2 s on the 2-core reference box: a
/// run measures several inputs three times each within `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// The wiki-like sequence behind the base graph and the structural
    /// stream.
    pub wiki: WikiLikeConfig,
    pub shards: usize,
    /// Length of the value-toggle stream (ingest-value).
    pub toggle_ops: usize,
    /// The durable stream stops `WAL_TAIL` batches after this many
    /// checkpoints (live-durable).
    pub durable_checkpoints: u64,
    /// Lengths of the three read phases, and the Zipf key-set size
    /// (serve-static).
    pub cold_queries: usize,
    pub hot_queries: usize,
    pub zipf_queries: usize,
    pub zipf_keys: usize,
}

fn wiki(n_pages: usize, grow_by: usize, n_snapshots: usize) -> WikiLikeConfig {
    WikiLikeConfig {
        n_pages,
        initial_links: n_pages * 3,
        final_links: n_pages * 3 + grow_by,
        n_snapshots,
        removals_per_snapshot: if n_pages >= 400 { 8 } else { 3 },
        burst_probability: 0.08,
        burst_size: if n_pages >= 1_000 { 25 } else { 10 },
    }
}

/// The wiki-like configuration and the other sizes of `workload`.
pub fn sizing(workload: Workload, scale: Scale) -> Sizing {
    let full = scale == Scale::Full;
    let pick = |at_full: WikiLikeConfig, at_smoke: WikiLikeConfig| {
        if full {
            at_full
        } else {
            at_smoke
        }
    };
    let none = Sizing {
        wiki: wiki(3, 0, 1),
        shards: 1,
        toggle_ops: 0,
        durable_checkpoints: 0,
        cold_queries: 0,
        hot_queries: 0,
        zipf_queries: 0,
        zipf_keys: 0,
    };
    match workload {
        Workload::EgsClude => Sizing {
            wiki: pick(wiki(2_500, 2_000, 50), wiki(300, 600, 24)),
            ..none
        },
        Workload::IngestStructure => Sizing {
            wiki: pick(wiki(2_000, 12_000, 120), wiki(240, 900, 24)),
            shards: 4,
            ..none
        },
        Workload::IngestValue => Sizing {
            wiki: pick(wiki(2_000, 0, 1), wiki(240, 0, 1)),
            shards: 4,
            toggle_ops: if full { 40_000 } else { 6_000 },
            ..none
        },
        Workload::ServeStatic => Sizing {
            wiki: pick(wiki(1_000, 9_200, 120), wiki(200, 700, 20)),
            shards: 4,
            cold_queries: if full { 125 } else { 60 },
            hot_queries: if full { 1_500_000 } else { 20_000 },
            zipf_queries: if full { 1_600 } else { 1_500 },
            // Four times the default result cache (8 shards x 128 entries).
            zipf_keys: 4_096,
            ..none
        },
        Workload::LiveMono => Sizing {
            wiki: pick(wiki(400, 2_200, 30), wiki(150, 500, 16)),
            ..none
        },
        Workload::LiveDurable => Sizing {
            wiki: pick(wiki(1_000, 9_200, 120), wiki(200, 4_000, 40)),
            shards: 4,
            durable_checkpoints: if full { 2 } else { 1 },
            ..none
        },
    }
}

/// The wiki-like sequence of `config` under `seed`.
pub fn wiki_egs(config: &WikiLikeConfig, seed: u64) -> EvolvingGraphSequence {
    wiki_like::generate(config, &mut StdRng::seed_from_u64(seed))
}

/// Flattens a sequence into one edge-operation stream: per step, the
/// removals and then the additions.
pub fn structural_stream(egs: &EvolvingGraphSequence) -> Vec<EdgeOp> {
    let mut ops = Vec::new();
    for step in 0..egs.len().saturating_sub(1) {
        let delta = egs.delta(step);
        ops.extend(delta.removed.iter().map(|&(u, v)| EdgeOp::Remove(u, v)));
        ops.extend(delta.added.iter().map(|&(u, v)| EdgeOp::Insert(u, v)));
    }
    ops
}

/// Alternating rounds that remove and then re-insert a fixed pool of
/// `pool_size` edges of `base`, at least `target` operations long and ending
/// on a re-insert round so the final graph is `base` again.  The pool prefers
/// edges whose source has a high out-degree (a toggle rescales the source's
/// whole matrix column) and skips `exclude`, the edges an interleaved
/// structural stream touches, so every pool edge keeps its strict
/// remove/insert alternation.  Every position a toggle changes already has a
/// factor slot, which is what makes a batch of them value-only.
pub fn value_toggle_stream(
    base: &DiGraph,
    target: usize,
    pool_size: usize,
    exclude: &HashSet<(usize, usize)>,
    seed: u64,
) -> Vec<EdgeOp> {
    let mut candidates: Vec<(usize, usize)> =
        base.edges().filter(|e| !exclude.contains(e)).collect();
    // Ties among equally hot sources are broken by the seed.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keyed: Vec<(std::cmp::Reverse<usize>, u64, (usize, usize))> = candidates
        .drain(..)
        .map(|e| (std::cmp::Reverse(base.out_degree(e.0)), rng.next_u64(), e))
        .collect();
    keyed.sort();
    let pool: Vec<(usize, usize)> = keyed.into_iter().take(pool_size).map(|k| k.2).collect();
    assert!(
        pool.len() >= 64,
        "toggle pool narrower than one ingest batch"
    );
    let rounds = target.div_ceil(2 * pool.len()).max(1);
    let mut ops = Vec::with_capacity(rounds * 2 * pool.len());
    for _ in 0..rounds {
        ops.extend(pool.iter().map(|&(u, v)| EdgeOp::Remove(u, v)));
        ops.extend(pool.iter().map(|&(u, v)| EdgeOp::Insert(u, v)));
    }
    ops
}

/// The structural stream interleaved one-for-one with value toggles on edges
/// it never touches.
pub fn mixed_stream(egs: &EvolvingGraphSequence, seed: u64) -> Vec<EdgeOp> {
    let structural = structural_stream(egs);
    let touched: HashSet<(usize, usize)> = structural.iter().map(EdgeOp::edge).collect();
    let toggles = value_toggle_stream(
        &egs.snapshot(0),
        structural.len(),
        TOGGLE_POOL,
        &touched,
        seed,
    );
    structural
        .into_iter()
        .zip(toggles)
        .flat_map(|(s, t)| [s, t])
        .collect()
}

fn rwr(seed: usize) -> MeasureQuery {
    MeasureQuery::Rwr {
        seed,
        damping: DAMPING,
    }
}

fn ppr(a: usize, b: usize) -> MeasureQuery {
    MeasureQuery::PprSeedSet {
        seeds: vec![a, b],
        damping: DAMPING,
    }
}

/// A random permutation of `0..n`.
fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    p.shuffle(rng);
    p
}

/// `count` distinct PPR seed pairs `(a, b)` with `a < b`.
fn distinct_pairs(n: usize, count: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    assert!(n >= 2 && count <= n * (n - 1) / 2, "not enough seed pairs");
    let mut seen = HashSet::new();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let pair = (a.min(b), a.max(b));
        if a != b && seen.insert(pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// `count` pairwise distinct queries: four RWR seeds to one PPR seed pair
/// (all-PPR once the RWR seeds run out).
pub fn cold_queries(n: usize, count: usize, seed: u64) -> Vec<MeasureQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_rwr = (count * 4 / 5).min(n);
    let seeds = permutation(n, &mut rng);
    let mut queries: Vec<MeasureQuery> = seeds[..n_rwr].iter().map(|&s| rwr(s)).collect();
    for (a, b) in distinct_pairs(n, count - n_rwr, &mut rng) {
        queries.push(ppr(a, b));
    }
    // Interleave the kinds so the warm-up prefix and the tail see both.
    queries.shuffle(&mut rng);
    queries
}

/// The hot mix, as a key table plus `count` picks into it: 70 % RWR — four in
/// five of those on the `HOT_SET` hottest pages, the rest on a 256-page warm
/// set — and 30 % PageRank.  The 289 keys fit the default cache (8 × 128)
/// with room to spare; the driver touches every key once before the clock
/// starts, so every timed query is a hit.
pub fn hot_queries(n: usize, count: usize, seed: u64) -> (Vec<MeasureQuery>, Vec<u16>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = HOT_SET.min(n);
    let warm = 256.min(n - hot);
    let mut keys: Vec<MeasureQuery> = (0..hot + warm).map(rwr).collect();
    let pagerank = keys.len() as u16;
    keys.push(MeasureQuery::PageRank { damping: DAMPING });
    let picks = (0..count)
        .map(|_| {
            if rng.gen_range(0usize..10) < 7 {
                if warm == 0 || rng.gen_bool(0.8) {
                    rng.gen_range(0..hot) as u16
                } else {
                    (hot + rng.gen_range(0..warm)) as u16
                }
            } else {
                pagerank
            }
        })
        .collect();
    (keys, picks)
}

/// `n_keys` distinct keys ranked by popularity — RWR seeds first, PPR seed
/// pairs once the pages run out — and `count` picks drawn Zipf(1.0) over the
/// ranks.
pub fn zipf_queries(
    n: usize,
    n_keys: usize,
    count: usize,
    seed: u64,
) -> (Vec<MeasureQuery>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_rwr = n_keys.min(n);
    let mut keys: Vec<MeasureQuery> = permutation(n, &mut rng)[..n_rwr]
        .iter()
        .map(|&s| rwr(s))
        .collect();
    for (a, b) in distinct_pairs(n, n_keys - n_rwr, &mut rng) {
        keys.push(ppr(a, b));
    }
    keys.shuffle(&mut rng);
    let mut cdf = Vec::with_capacity(n_keys);
    let mut total = 0.0;
    for rank in 1..=n_keys {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let picks = (0..count)
        .map(|_| {
            let u = rng.gen_range(0.0..total);
            cdf.partition_point(|&c| c <= u).min(n_keys - 1) as u32
        })
        .collect();
    (keys, picks)
}

/// Fresh RWR seeds for the live schedule: a stream of pages in which no page
/// repeats within `n` draws.
pub fn live_seeds(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seeds = Vec::with_capacity(count);
    while seeds.len() < count {
        seeds.extend(permutation(n, &mut rng));
    }
    seeds.truncate(count);
    seeds
}

/// The four probe queries every engine workload ends on.
pub fn probe_queries(n: usize) -> Vec<MeasureQuery> {
    vec![
        MeasureQuery::PageRank { damping: DAMPING },
        rwr(0),
        rwr(n - 1),
        ppr(1, n / 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_egs(seed: u64) -> EvolvingGraphSequence {
        wiki_egs(&sizing(Workload::LiveDurable, Scale::Smoke).wiki, seed)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (smoke_egs(11), smoke_egs(11), smoke_egs(12));
        assert_eq!(structural_stream(&a), structural_stream(&b));
        assert_ne!(structural_stream(&a), structural_stream(&c));
        assert_eq!(mixed_stream(&a, 5), mixed_stream(&b, 5));
        assert_eq!(cold_queries(200, 60, 3), cold_queries(200, 60, 3));
        assert_ne!(cold_queries(200, 60, 3), cold_queries(200, 60, 4));
        assert_eq!(hot_queries(200, 500, 3), hot_queries(200, 500, 3));
        assert_ne!(hot_queries(200, 500, 3).1, hot_queries(200, 500, 4).1);
        assert_eq!(
            zipf_queries(200, 900, 500, 3),
            zipf_queries(200, 900, 500, 3)
        );
        assert_ne!(
            zipf_queries(200, 900, 500, 3).1,
            zipf_queries(200, 900, 500, 4).1
        );
        assert_eq!(live_seeds(50, 120, 9), live_seeds(50, 120, 9));
        assert_ne!(round_seed(11, 0), round_seed(11, 1));
        assert_ne!(round_seed(11, 0), round_seed(12, 0));
    }

    #[test]
    fn query_lists_have_the_promised_shape() {
        let cold = cold_queries(200, 150, 1);
        let distinct: HashSet<&MeasureQuery> = cold.iter().collect();
        assert_eq!((cold.len(), distinct.len()), (150, 150));
        let (keys, picks) = hot_queries(1_000, 10_000, 1);
        assert_eq!(keys.len(), HOT_SET + 256 + 1);
        assert!(picks.iter().all(|&p| (p as usize) < keys.len()));
        let hot_share =
            picks.iter().filter(|&&p| (p as usize) < HOT_SET).count() as f64 / picks.len() as f64;
        assert!((hot_share - 0.56).abs() < 0.03, "hot share {hot_share}");
        let (keys, picks) = zipf_queries(200, 900, 4_000, 1);
        let distinct: HashSet<&MeasureQuery> = keys.iter().collect();
        assert_eq!(distinct.len(), 900);
        let top = picks.iter().filter(|&&p| p == 0).count();
        let second = picks.iter().filter(|&&p| p == 1).count();
        assert!(top > second && second > 0, "zipf head {top} {second}");
        let seeds = live_seeds(50, 120, 9);
        let window: HashSet<usize> = seeds[..50].iter().copied().collect();
        assert_eq!(window.len(), 50);
    }

    #[test]
    fn toggle_stream_keeps_its_invariants() {
        let egs = smoke_egs(7);
        let base = egs.snapshot(0);
        let touched: HashSet<(usize, usize)> =
            structural_stream(&egs).iter().map(EdgeOp::edge).collect();
        let ops = value_toggle_stream(&base, 1_000, 128, &touched, 7);
        assert!(ops.len() >= 1_000 && ops.len().is_multiple_of(256));
        // Every round removes the whole pool, then re-inserts it, and never
        // touches an excluded edge; the replayed graph ends as the base.
        let mut graph = base.clone();
        for (i, op) in ops.iter().enumerate() {
            assert!(!touched.contains(&op.edge()));
            let removing = (i / 128) % 2 == 0;
            match *op {
                EdgeOp::Remove(u, v) => assert!(removing && graph.remove_edge(u, v)),
                EdgeOp::Insert(u, v) => assert!(!removing && graph.add_edge(u, v)),
            }
        }
        assert_eq!(graph.n_edges(), base.n_edges());
        assert!(base.edges().all(|(u, v)| graph.has_edge(u, v)));
    }
}
