//! Bit-identity pin for the Bennett sweep.
//!
//! The sweep's floating-point operation order is part of its contract: the
//! engine's checkpoint and WAL bytes, the quality-loss metric and every
//! refresh decision downstream are functions of the exact factor bits.  The
//! hashes below were captured on the commit *before* the sweep moved from
//! per-entry `(i, j)` lookups to slot cursors, so any rewrite of how entries
//! are addressed has to reproduce them — factors, work counters and
//! structural inserts alike.  Only `StructuralStats::probes` is free to move.

use clude_graph::generators::{wiki_like, WikiLikeConfig};
use clude_graph::{evolving_matrix_sequence, MatrixKind};
use clude_lu::{
    apply_delta_with, markowitz_ordering, reorder_pattern, BennettStats, BennettWorkspace,
    DynamicLuFactors, LuFactors, LuStructure,
};
use clude_sparse::{CsrMatrix, SparsityPattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the `(row, col, value bits)` triples of an entry list.
fn fnv1a(entries: &[(usize, usize, f64)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &(i, j, v) in entries {
        eat(i as u64);
        eat(j as u64);
        eat(v.to_bits());
    }
    hash
}

/// What one seeded stream leaves behind on both storages: factor hashes,
/// `(rank_one_updates, pivots_processed, entries_touched)` and the dynamic
/// lists' structural inserts.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    dynamic_hash: u64,
    dynamic_stats: (usize, usize, usize),
    dynamic_inserts: usize,
    static_hash: u64,
    static_stats: (usize, usize, usize),
}

fn triple(s: &BennettStats) -> (usize, usize, usize) {
    (s.rank_one_updates, s.pivots_processed, s.entries_touched)
}

/// Streams every snapshot-to-snapshot delta of a wiki-like EMS (`A = I − dW`,
/// Markowitz-ordered over the union pattern, as CLUDE orders a cluster)
/// through dynamic storage and through static storage over the universal
/// structure.  Returns the pin and the dynamic lists' probe steps.
fn run(seed: u64) -> (Pin, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let egs = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
    let raw = evolving_matrix_sequence(&egs, MatrixKind::RandomWalk { damping: 0.85 });
    let union: SparsityPattern = raw[1..].iter().fold(raw[0].pattern(), |acc, m| {
        acc.union(&m.pattern()).expect("one shape")
    });
    let ordering = markowitz_ordering(&union).ordering;
    let matrices: Vec<CsrMatrix> = raw
        .iter()
        .map(|m| m.reorder(&ordering).expect("one shape"))
        .collect();
    let structure = LuStructure::from_pattern(&reorder_pattern(&union, &ordering))
        .expect("square")
        .into_shared();

    let mut dynamic = DynamicLuFactors::factorize(&matrices[0]).expect("factorizes");
    let mut fixed = LuFactors::factorize(structure, &matrices[0]).expect("factorizes");
    let mut ws = BennettWorkspace::new();
    let mut dynamic_stats = BennettStats::default();
    let mut static_stats = BennettStats::default();
    for pair in matrices.windows(2) {
        let delta = pair[0].delta_to(&pair[1], 0.0).expect("one shape");
        dynamic_stats.merge(&apply_delta_with(&mut dynamic, &mut ws, &delta).expect("dynamic"));
        static_stats.merge(&apply_delta_with(&mut fixed, &mut ws, &delta).expect("static"));
    }
    let structural = dynamic.structural_stats();
    let pin = Pin {
        dynamic_hash: fnv1a(&dynamic.export_entries()),
        dynamic_stats: triple(&dynamic_stats),
        dynamic_inserts: structural.inserts,
        static_hash: fnv1a(&fixed.export_entries()),
        static_stats: triple(&static_stats),
    };
    (pin, structural.probes)
}

/// Captured at the parent commit (per-entry `(i, j)` lookups); the last
/// column is that commit's probe count, an upper bound from here on.
const GOLDEN: [(u64, Pin, usize); 3] = [
    (
        11,
        Pin {
            dynamic_hash: 1149582541300563215,
            dynamic_stats: (827, 33595, 1091463),
            dynamic_inserts: 3007,
            static_hash: 17228905536852842343,
            static_stats: (827, 33595, 1293895),
        },
        8_783_750,
    ),
    (
        12,
        Pin {
            dynamic_hash: 1100785268245125635,
            dynamic_stats: (812, 38074, 1489025),
            dynamic_inserts: 3549,
            static_hash: 13241990954302754435,
            static_stats: (812, 38074, 1730808),
        },
        12_401_123,
    ),
    (
        97,
        Pin {
            dynamic_hash: 4556049187040560479,
            dynamic_stats: (813, 32211, 1046868),
            dynamic_inserts: 2870,
            static_hash: 8071784832860438688,
            static_stats: (813, 32211, 1229038),
        },
        8_297_175,
    ),
];

#[test]
fn sweep_reproduces_the_pinned_factor_bits_and_counters() {
    for (seed, pin, parent_probes) in GOLDEN {
        let (got, probes) = run(seed);
        assert_eq!(got, pin, "seed {seed}");
        assert!(
            probes <= parent_probes,
            "seed {seed}: {probes} probe steps, the lookup-per-entry sweep took {parent_probes}"
        );
    }
}
