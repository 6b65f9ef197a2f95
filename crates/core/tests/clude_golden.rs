//! Bit-identity pin for the cluster-based solvers.
//!
//! α-clustering, the Markowitz ordering of each cluster's union, the
//! universal structure and the per-member Bennett deltas are all free to be
//! computed more cheaply, but what they produce is part of the contract: the
//! same clusters, the same orderings and, entry for entry, the same factor
//! bits.  The values below were captured on the commit *before* clustering
//! stopped materialising a pattern per probe, Markowitz moved to a keyed
//! queue and cluster deltas were mapped instead of re-permuted.  CLUDE is
//! pinned in its paper-faithful mode ([`SolverConfig::bennett_only`]); the
//! default mode, which reaches each member by a numeric pass instead, is
//! pinned against it — the same clusters, orderings and factor sizes, factors
//! that reconstruct their matrices and answers that match brute force — and
//! by its own factor bits, including a sequence of one-column steps.

use clude::algorithms::common::max_reconstruction_error;
use clude::{BruteForce, Clude, ClusterIncremental, EvolvingMatrixSequence, LudemSolver};
use clude::{LudemSolution, SolverConfig};
use clude_graph::generators::{wiki_like, WikiLikeConfig};
use clude_graph::MatrixKind;
use clude_sparse::{CooMatrix, CsrMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Everything a run leaves behind that a cheaper implementation must
/// reproduce: the clusters, a hash of every matrix's ordering (both
/// permutations), the factor sizes, `(rank_one_updates, pivots_processed,
/// entries_touched)` and a hash of the `(row, col, value bits)` of every kept
/// factor's `export_entries`.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    cluster_sizes: Vec<usize>,
    orderings_hash: u64,
    factor_nnz: Vec<usize>,
    bennett: (usize, usize, usize),
    factors_hash: u64,
}

fn pin(solution: &LudemSolution) -> Pin {
    let report = &solution.report;
    let mut orderings = Fnv::new();
    let mut factors = Fnv::new();
    assert_eq!(solution.decomposed.len(), report.orderings.len());
    for (d, reported) in solution.decomposed.iter().zip(&report.orderings) {
        assert_eq!(d.ordering, *reported, "report and decomposition agree");
        for perm in [d.ordering.row(), d.ordering.col()] {
            for &old in perm.as_new_to_old() {
                orderings.eat(old as u64);
            }
        }
        for (i, j, v) in d.factors.export_entries() {
            factors.eat(i as u64);
            factors.eat(j as u64);
            factors.eat(v.to_bits());
        }
    }
    Pin {
        cluster_sizes: report.cluster_sizes.clone(),
        orderings_hash: orderings.0,
        factor_nnz: report.factor_nnz.clone(),
        bennett: (
            report.bennett.rank_one_updates,
            report.bennett.pivots_processed,
            report.bennett.entries_touched,
        ),
        factors_hash: factors.0,
    }
}

fn wiki_ems(seed: u64) -> EvolvingMatrixSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let egs = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
    EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping: 0.85 })
}

/// Captured at the parent commit: `(seed, CLUDE pin, CINC pin)` at α = 0.95.
fn golden() -> [(u64, Pin, Pin); 2] {
    [
        (
            11,
            Pin {
                cluster_sizes: vec![2, 2, 3, 3, 3, 3, 4],
                orderings_hash: 11972474753360425317,
                factor_nnz: vec![
                    857, 857, 1246, 1246, 1796, 1796, 1796, 2257, 2257, 2257, 2766, 2766, 2766,
                    3259, 3259, 3259, 4059, 4059, 4059, 4059,
                ],
                bennett: (556, 21747, 663438),
                factors_hash: 838622803291511517,
            },
            Pin {
                cluster_sizes: vec![2, 2, 3, 3, 3, 3, 4],
                orderings_hash: 4033586678692159141,
                factor_nnz: vec![
                    794, 931, 1044, 1286, 1330, 1627, 1929, 1893, 2171, 2466, 2394, 2602, 3206,
                    2915, 3308, 3502, 3535, 4340, 4627, 4883,
                ],
                bennett: (556, 23421, 765292),
                factors_hash: 7446418616333006951,
            },
        ),
        (
            97,
            Pin {
                cluster_sizes: vec![2, 2, 3, 3, 3, 3, 4],
                orderings_hash: 14144630983840422757,
                factor_nnz: vec![
                    839, 839, 1106, 1106, 1556, 1556, 1556, 2079, 2079, 2079, 2711, 2711, 2711,
                    3151, 3151, 3151, 3960, 3960, 3960, 3960,
                ],
                bennett: (554, 22034, 679897),
                factors_hash: 4752033388845774717,
            },
            Pin {
                cluster_sizes: vec![2, 2, 3, 3, 3, 3, 4],
                orderings_hash: 1141393095456491365,
                factor_nnz: vec![
                    794, 895, 999, 1184, 1213, 1516, 1682, 1781, 2091, 2275, 2349, 2586, 3079,
                    2919, 3067, 3297, 3412, 3648, 3858, 4137,
                ],
                bennett: (554, 23218, 719369),
                factors_hash: 16702377296304188952,
            },
        ),
    ]
}

/// The paper-faithful mode: every member after a cluster's first by Bennett.
fn faithful() -> SolverConfig {
    SolverConfig {
        bennett_only: true,
        ..SolverConfig::default()
    }
}

#[test]
fn cluster_solvers_reproduce_the_pinned_clusters_orderings_and_factor_bits() {
    for (seed, clude, cinc) in golden() {
        let ems = wiki_ems(seed);
        let config = faithful();
        let got = Clude::new(0.95).solve(&ems, &config).expect("CLUDE solves");
        assert_eq!(pin(&got), clude, "CLUDE, seed {seed}");
        let got = ClusterIncremental::new(0.95)
            .solve(&ems, &config)
            .expect("CINC solves");
        assert_eq!(pin(&got), cinc, "CINC, seed {seed}");
    }
}

#[test]
fn the_default_mode_keeps_the_faithful_clusters_orderings_and_sizes_and_its_answers_are_exact() {
    // `(seed, members reached by Bennett, members reached by a numeric pass)`.
    for (seed, bennett_members, numeric_members) in [(11, 0, 13), (97, 0, 13)] {
        let ems = wiki_ems(seed);
        let faithful = pin(&Clude::new(0.95)
            .solve(&ems, &faithful())
            .expect("CLUDE solves"));
        let got = Clude::new(0.95)
            .solve(&ems, &SolverConfig::default())
            .expect("CLUDE solves");
        let adaptive = pin(&got);
        assert_eq!(
            adaptive.cluster_sizes, faithful.cluster_sizes,
            "seed {seed}"
        );
        assert_eq!(
            adaptive.orderings_hash, faithful.orderings_hash,
            "seed {seed}"
        );
        assert_eq!(adaptive.factor_nnz, faithful.factor_nnz, "seed {seed}");
        let report = &got.report;
        assert_eq!(
            (report.bennett_members, report.numeric_members),
            (bennett_members, numeric_members),
            "seed {seed}"
        );
        assert_eq!(
            report.bennett_members + report.numeric_members + report.cluster_count(),
            ems.len()
        );
        let error = max_reconstruction_error(&ems, &got).expect("factors were kept");
        assert!(
            error <= 1e-10,
            "seed {seed}: reconstruction error {error:e}"
        );
        let reference = BruteForce
            .solve(&ems, &SolverConfig::default())
            .expect("BF solves");
        let b = vec![0.15 / ems.order() as f64; ems.order()];
        for i in 0..ems.len() {
            let (x, y) = (got.solve(i, &b).unwrap(), reference.solve(i, &b).unwrap());
            let gap = x
                .iter()
                .zip(&y)
                .map(|(u, v)| (u - v).abs())
                .fold(0.0, f64::max);
            assert!(gap <= 1e-9, "seed {seed}, matrix {i}: {gap:e} from BF");
        }
    }
}

/// `egs-clude`'s wiki-like shape at a fifth of its pages, first matrix only,
/// followed by 30 steps that each rescale the off-diagonal entries of one
/// column: one rank-one update a member, the sparse churn on which Bennett's
/// sweeps are cheapest.
fn one_column_per_step(seed: u64) -> EvolvingMatrixSequence {
    let config = WikiLikeConfig {
        n_pages: 500,
        initial_links: 1_500,
        final_links: 1_900,
        n_snapshots: 50,
        removals_per_snapshot: 8,
        burst_probability: 0.08,
        burst_size: 10,
    };
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(seed));
    let first = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::random_walk_default())
        .matrix(0)
        .clone();
    let n = first.n_rows();
    let mut matrices = vec![first];
    for step in 0..30 {
        let column = (step * 37 + 11) % n;
        let last = matrices.last().expect("seeded");
        let mut coo = CooMatrix::new(n, n);
        for (i, j, v) in last.iter() {
            let scaled = if j == column && i != j { 0.9 * v } else { v };
            coo.push(i, j, scaled).expect("in bounds");
        }
        matrices.push(CsrMatrix::from_coo(&coo));
    }
    EvolvingMatrixSequence::new(matrices).expect("one shape")
}

#[test]
fn the_default_mode_reproduces_its_pinned_factor_bits() {
    // `(sequence, (Bennett members, numeric members), the Bennett counters,
    // factors_hash)`, captured before CLUDE's members and the engine's shards
    // shared one maintainer.
    for (name, ems, members, bennett, factors_hash) in [
        (
            "seed 11",
            wiki_ems(11),
            (0, 13),
            (0, 0, 0),
            16071286414759699574,
        ),
        (
            "seed 97",
            wiki_ems(97),
            (0, 13),
            (0, 0, 0),
            15610532126662940363,
        ),
        (
            "one column a step",
            one_column_per_step(11),
            (0, 30),
            (0, 0, 0),
            10912923068701773149,
        ),
    ] {
        let got = Clude::new(0.95)
            .solve(&ems, &SolverConfig::default())
            .expect("CLUDE solves");
        let report = &got.report;
        assert_eq!(
            (report.bennett_members, report.numeric_members),
            members,
            "{name}"
        );
        let got = pin(&got);
        assert_eq!(got.bennett, bennett, "{name}");
        assert_eq!(got.factors_hash, factors_hash, "{name}");
    }
}
