//! Typed measure queries.
//!
//! The serving layer (`clude-engine`) needs a single dispatchable
//! representation of "which measure, with which parameters" that can be
//! hashed into a cache key and routed to the measure implementations.
//! [`MeasureQuery`] is that representation, and [`evaluate_query_with`] is
//! the one entry point turning a snapshot's factors plus a query into
//! scores.

use crate::measures::{hitting_time, pagerank, personalized_pagerank, rwr};
use clude::DecomposedMatrix;
use clude_graph::MatrixKind;
use clude_lu::LuResult;
use std::hash::{Hash, Hasher};

/// A proximity-measure query against one snapshot.
///
/// All variants carry their damping/discount factor explicitly; queries with
/// the same parameters hash equally, which is what the engine's result cache
/// keys on.  Equality and hashing both compare the damping factor *by bits*
/// (so `0.0` and `-0.0` are distinct keys, and the `Eq`/`Hash` contract
/// holds); damping factors must be finite.
#[derive(Debug, Clone)]
pub enum MeasureQuery {
    /// Global PageRank.
    PageRank {
        /// Damping factor `d ∈ (0, 1)`.
        damping: f64,
    },
    /// Random walk with restart from a single seed node.
    Rwr {
        /// The restart node.
        seed: usize,
        /// Damping factor `d ∈ (0, 1)`.
        damping: f64,
    },
    /// Personalised PageRank with a uniform restart over a seed set.
    PprSeedSet {
        /// The restart nodes.
        seeds: Vec<usize>,
        /// Damping factor `d ∈ (0, 1)`.
        damping: f64,
    },
    /// Discounted hitting time from every node to a target.
    HittingTime {
        /// The absorbing target node.
        target: usize,
        /// Discount factor `d ∈ (0, 1)`.
        damping: f64,
    },
}

impl PartialEq for MeasureQuery {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MeasureQuery::PageRank { damping: a }, MeasureQuery::PageRank { damping: b }) => {
                a.to_bits() == b.to_bits()
            }
            (
                MeasureQuery::Rwr {
                    seed: sa,
                    damping: a,
                },
                MeasureQuery::Rwr {
                    seed: sb,
                    damping: b,
                },
            ) => sa == sb && a.to_bits() == b.to_bits(),
            (
                MeasureQuery::PprSeedSet {
                    seeds: sa,
                    damping: a,
                },
                MeasureQuery::PprSeedSet {
                    seeds: sb,
                    damping: b,
                },
            ) => sa == sb && a.to_bits() == b.to_bits(),
            (
                MeasureQuery::HittingTime {
                    target: ta,
                    damping: a,
                },
                MeasureQuery::HittingTime {
                    target: tb,
                    damping: b,
                },
            ) => ta == tb && a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for MeasureQuery {}

impl Hash for MeasureQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            MeasureQuery::PageRank { damping } => {
                0u8.hash(state);
                damping.to_bits().hash(state);
            }
            MeasureQuery::Rwr { seed, damping } => {
                1u8.hash(state);
                seed.hash(state);
                damping.to_bits().hash(state);
            }
            MeasureQuery::PprSeedSet { seeds, damping } => {
                2u8.hash(state);
                seeds.hash(state);
                damping.to_bits().hash(state);
            }
            MeasureQuery::HittingTime { target, damping } => {
                3u8.hash(state);
                target.hash(state);
                damping.to_bits().hash(state);
            }
        }
    }
}

impl MeasureQuery {
    /// The damping/discount factor of the query.
    pub fn damping(&self) -> f64 {
        match self {
            MeasureQuery::PageRank { damping }
            | MeasureQuery::Rwr { damping, .. }
            | MeasureQuery::PprSeedSet { damping, .. }
            | MeasureQuery::HittingTime { damping, .. } => *damping,
        }
    }

    /// The matrix composition this query needs its snapshot factors built
    /// with: `I − d·W` at the query's damping, for every variant — hitting
    /// time included, which is answered by transposed solves through the
    /// same factors.
    pub fn required_matrix_kind(&self) -> Option<MatrixKind> {
        Some(MatrixKind::RandomWalk {
            damping: self.damping(),
        })
    }

    /// Short display name for stats and logs.
    pub fn kind_name(&self) -> &'static str {
        match self {
            MeasureQuery::PageRank { .. } => "pagerank",
            MeasureQuery::Rwr { .. } => "rwr",
            MeasureQuery::PprSeedSet { .. } => "ppr",
            MeasureQuery::HittingTime { .. } => "hitting_time",
        }
    }

    /// Validates the query against a snapshot of `n` nodes.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if !self.damping().is_finite() || !(0.0..1.0).contains(&self.damping()) {
            return Err(format!("damping factor {} outside [0, 1)", self.damping()));
        }
        match self {
            MeasureQuery::PageRank { .. } if n == 0 => {
                Err("PageRank needs at least one node".to_string())
            }
            MeasureQuery::PageRank { .. } => Ok(()),
            MeasureQuery::Rwr { seed, .. } if *seed >= n => {
                Err(format!("seed {seed} out of range for {n} nodes"))
            }
            MeasureQuery::PprSeedSet { seeds, .. } if seeds.is_empty() => {
                Err("empty PPR seed set".to_string())
            }
            MeasureQuery::PprSeedSet { seeds, .. } => match seeds.iter().find(|&&s| s >= n) {
                Some(s) => Err(format!("seed {s} out of range for {n} nodes")),
                None => Ok(()),
            },
            MeasureQuery::HittingTime { target, .. } if *target >= n => {
                Err(format!("target {target} out of range for {n} nodes"))
            }
            _ => Ok(()),
        }
    }
}

/// Anything that can solve the snapshot's measure system `A x = b` and its
/// transpose `Aᵀ x = b`.
///
/// The random-walk measures only need *some* exact solver for
/// `(I − d·W) x = b` — hitting time for its transpose; a monolithic
/// [`DecomposedMatrix`] answers by one pair of triangular substitutions,
/// while the engine's sharded snapshots combine per-shard solves with a
/// cross-shard coupling correction.  Implementing this trait is what plugs a
/// snapshot representation into [`evaluate_query_with`].
pub trait MeasureSolver {
    /// Solves the snapshot's measure system for one right-hand side.
    fn solve_measure_system(&self, b: &[f64]) -> LuResult<Vec<f64>>;

    /// Solves the transposed system `Aᵀ x = b` for one right-hand side.
    fn solve_transposed_system(&self, b: &[f64]) -> LuResult<Vec<f64>>;
}

impl MeasureSolver for DecomposedMatrix {
    fn solve_measure_system(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        self.solve(b)
    }

    fn solve_transposed_system(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        let mut out = Vec::new();
        self.solve_transposed_into(b, &mut clude_lu::SolveScratch::new(), &mut out)?;
        Ok(out)
    }
}

/// Evaluates a query through any [`MeasureSolver`] over a universe of `n`
/// nodes.
///
/// The solver must hold (or emulate) factors of the snapshot's `I − d·W`
/// matrix with the query's damping factor — the query's
/// [`MeasureQuery::required_matrix_kind`]; a caller serving factors of one
/// composition checks it first.
pub fn evaluate_query_with<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    query: &MeasureQuery,
) -> LuResult<Vec<f64>> {
    match query {
        MeasureQuery::PageRank { damping } => pagerank(solver, n, *damping),
        MeasureQuery::Rwr { seed, damping } => rwr(solver, n, *seed, *damping),
        MeasureQuery::PprSeedSet { seeds, damping } => {
            personalized_pagerank(solver, n, seeds, *damping)
        }
        MeasureQuery::HittingTime { target, .. } => hitting_time(solver, n, *target),
    }
}

/// The right-hand side of the query's measure system against the snapshot's
/// `I − d·W` factors, or `None` for hitting time, which takes two transposed
/// solves instead.
pub fn measure_rhs(query: &MeasureQuery, n: usize) -> Option<Vec<f64>> {
    use crate::linear_system::{pagerank_rhs, ppr_rhs, rwr_rhs};
    match query {
        MeasureQuery::PageRank { damping } => Some(pagerank_rhs(n, *damping)),
        MeasureQuery::Rwr { seed, damping } => Some(rwr_rhs(n, *seed, *damping)),
        MeasureQuery::PprSeedSet { seeds, damping } => Some(ppr_rhs(n, seeds, *damping)),
        MeasureQuery::HittingTime { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::discounted_hitting_time;
    use clude::{BruteForce, EvolvingMatrixSequence, LudemSolver, SolverConfig};
    use clude_graph::{DiGraph, EvolvingGraphSequence};
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(q: &MeasureQuery) -> u64 {
        let mut h = DefaultHasher::new();
        q.hash(&mut h);
        h.finish()
    }

    fn ring() -> DiGraph {
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(4, 0);
        g
    }

    #[test]
    fn equal_queries_hash_equally_distinct_ones_differently() {
        let a = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        let b = MeasureQuery::Rwr {
            seed: 3,
            damping: 0.85,
        };
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let c = MeasureQuery::Rwr {
            seed: 4,
            damping: 0.85,
        };
        assert_ne!(a, c);
        let d = MeasureQuery::PageRank { damping: 0.85 };
        assert_ne!(hash_of(&a), hash_of(&d));
        // Eq follows the bitwise Hash: 0.0 and -0.0 are distinct keys, so
        // the Eq/Hash contract a HashMap key needs is preserved.
        let pos = MeasureQuery::PageRank { damping: 0.0 };
        let neg = MeasureQuery::PageRank { damping: -0.0 };
        assert_ne!(pos, neg);
        assert_ne!(hash_of(&pos), hash_of(&neg));
    }

    #[test]
    fn evaluate_query_dispatches_to_the_measures() {
        let g = ring();
        let egs = EvolvingGraphSequence::from_base(g.clone());
        let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping: 0.85 });
        let solution = BruteForce.solve(&ems, &SolverConfig::default()).unwrap();
        let dec = &solution.decomposed[0];
        let n = g.n_nodes();

        let pr = evaluate_query_with(dec, n, &MeasureQuery::PageRank { damping: 0.85 }).unwrap();
        assert_eq!(pr, pagerank(dec, n, 0.85).unwrap());

        let r = evaluate_query_with(
            dec,
            n,
            &MeasureQuery::Rwr {
                seed: 2,
                damping: 0.85,
            },
        )
        .unwrap();
        assert_eq!(r, rwr(dec, n, 2, 0.85).unwrap());

        let p = evaluate_query_with(
            dec,
            n,
            &MeasureQuery::PprSeedSet {
                seeds: vec![1, 5],
                damping: 0.85,
            },
        )
        .unwrap();
        assert_eq!(p, personalized_pagerank(dec, n, &[1, 5], 0.85).unwrap());

        // Hitting time goes through the same factors, transposed.
        let ht = MeasureQuery::HittingTime {
            target: 0,
            damping: 0.85,
        };
        let h = evaluate_query_with(dec, n, &ht).unwrap();
        assert_eq!(h, hitting_time(dec, n, 0).unwrap());
        assert_eq!(h[0], 0.0);
        for (a, b) in h.iter().zip(discounted_hitting_time(&g, 0, 0.85).unwrap()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let q = MeasureQuery::Rwr {
            seed: 9,
            damping: 0.85,
        };
        assert!(q.validate(6).is_err());
        assert!(q.validate(10).is_ok());
        assert!(MeasureQuery::PageRank { damping: 1.5 }.validate(6).is_err());
        // An empty universe has no distribution to rank.
        assert!(MeasureQuery::PageRank { damping: 0.85 }
            .validate(0)
            .is_err());
        assert!(MeasureQuery::PageRank { damping: 0.85 }.validate(1).is_ok());
        assert!(MeasureQuery::PprSeedSet {
            seeds: vec![],
            damping: 0.85
        }
        .validate(6)
        .is_err());
        assert!(MeasureQuery::PprSeedSet {
            seeds: vec![2, 7],
            damping: 0.85
        }
        .validate(6)
        .is_err());
        assert!(MeasureQuery::HittingTime {
            target: 6,
            damping: 0.85
        }
        .validate(6)
        .is_err());
    }

    #[test]
    fn metadata_accessors() {
        let q = MeasureQuery::PprSeedSet {
            seeds: vec![0],
            damping: 0.7,
        };
        assert_eq!(q.damping(), 0.7);
        assert_eq!(q.kind_name(), "ppr");
        assert_eq!(
            q.required_matrix_kind(),
            Some(MatrixKind::RandomWalk { damping: 0.7 })
        );
        let h = MeasureQuery::HittingTime {
            target: 0,
            damping: 0.7,
        };
        assert_eq!(
            h.required_matrix_kind(),
            Some(MatrixKind::RandomWalk { damping: 0.7 })
        );
        assert_eq!(h.kind_name(), "hitting_time");
        assert_eq!(
            MeasureQuery::PageRank { damping: 0.5 }.kind_name(),
            "pagerank"
        );
        assert_eq!(
            MeasureQuery::Rwr {
                seed: 0,
                damping: 0.5
            }
            .kind_name(),
            "rwr"
        );
    }
}
