//! Graph structural measures answered through decomposed factors.
//!
//! All measures here reduce to solving `(I − d·W) x = b` for a suitable `b`
//! (§1 of the paper):
//!
//! * **PageRank** — `b = ((1 − d)/n)·1`;
//! * **RWR / personalised PageRank** — `b = (1 − d)·q_u` (or a uniform
//!   distribution over a seed set);
//! * **SALSA (damped)** — PageRank-style scores on the co-citation /
//!   bibliographic-coupling structure, obtained by two solves;
//! * **Discounted hitting time** — expected discounted path length to a
//!   target: two *transposed* solves through the same factors,
//!   `Aᵀy = 1 − e_t` and `Aᵀz = e_t`, combined as `h = y − (y_t / z_t)·z`
//!   ([`hitting_time`]).
//!
//! The functions take any [`MeasureSolver`] — a [`clude::DecomposedMatrix`]
//! (one snapshot's ordering and flat factors, kept by any LUDEM solver
//! unless its run is timing-only) or an engine snapshot — so a whole time
//! series costs one cheap substitution per snapshot once the sequence has
//! been decomposed.

use crate::linear_system::{group_score, normalize_scores, pagerank_rhs, ppr_rhs, rwr_rhs};
use crate::query::MeasureSolver;
use clude_graph::{DiGraph, MatrixKind};
use clude_lu::{factorize_fresh, LuError, LuResult};
use clude_sparse::{CooMatrix, CsrMatrix};

/// Global PageRank scores of a snapshot, from any solver of its measure
/// system (a decomposed matrix, a sharded engine snapshot, …).
pub fn pagerank<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    damping: f64,
) -> LuResult<Vec<f64>> {
    let b = pagerank_rhs(n, damping);
    let raw = solver.solve_measure_system(&b)?;
    Ok(normalize_scores(raw))
}

/// Random walk with restart (single-seed personalised PageRank) scores.
pub fn rwr<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    seed: usize,
    damping: f64,
) -> LuResult<Vec<f64>> {
    let b = rwr_rhs(n, seed, damping);
    let raw = solver.solve_measure_system(&b)?;
    Ok(normalize_scores(raw))
}

/// Personalised PageRank with a uniform restart over a seed set.
pub fn personalized_pagerank<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    seeds: &[usize],
    damping: f64,
) -> LuResult<Vec<f64>> {
    let b = ppr_rhs(n, seeds, damping);
    let raw = solver.solve_measure_system(&b)?;
    Ok(normalize_scores(raw))
}

/// Proximity of a group of nodes (e.g. one company's patents) from a seed
/// set, as used in the paper's §7 case study: the sum of the group's PPR
/// scores.
pub fn group_proximity<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    seeds: &[usize],
    group: &[usize],
    damping: f64,
) -> LuResult<f64> {
    let scores = personalized_pagerank(solver, n, seeds, damping)?;
    Ok(group_score(&scores, group))
}

/// Hub and authority scores in the spirit of SALSA \[18\].
///
/// SALSA's authority chain walks "backwards then forwards" along links; its
/// damped variant solves a PageRank system on that two-step chain.  The
/// matrices of the two-step chains are snapshot-specific, so this measure
/// factorizes them directly (it does not reuse the EMS factors); it exists to
/// exercise the full measure suite of §1 on single snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SalsaScores {
    /// Authority scores per node.
    pub authorities: Vec<f64>,
    /// Hub scores per node.
    pub hubs: Vec<f64>,
}

/// Computes damped SALSA scores for a snapshot graph.
pub fn salsa(graph: &DiGraph, damping: f64) -> LuResult<SalsaScores> {
    // Row-stochastic matrices of the backward (authority) and forward (hub)
    // two-step chains, built on the fly.
    let authority_chain = two_step_chain(graph, true);
    let hub_chain = two_step_chain(graph, false);
    let authorities = damped_stationary(&authority_chain, damping)?;
    let hubs = damped_stationary(&hub_chain, damping)?;
    Ok(SalsaScores { authorities, hubs })
}

/// Builds the column-normalised two-step chain matrix of SALSA:
/// authority chain = step backwards then forwards, hub chain = the reverse.
fn two_step_chain(graph: &DiGraph, authority: bool) -> CsrMatrix {
    let n = graph.n_nodes();
    let mut coo = CooMatrix::new(n, n);
    for u in 0..n {
        // Authority chain from authority u: pick a citing page w (predecessor),
        // then one of w's cited pages v; transition u -> v.
        let first_hop: Vec<usize> = if authority {
            graph.predecessors(u).collect()
        } else {
            graph.successors(u).collect()
        };
        if first_hop.is_empty() {
            continue;
        }
        let p_first = 1.0 / first_hop.len() as f64;
        for w in first_hop {
            let second_hop: Vec<usize> = if authority {
                graph.successors(w).collect()
            } else {
                graph.predecessors(w).collect()
            };
            if second_hop.is_empty() {
                continue;
            }
            let p_second = p_first / second_hop.len() as f64;
            for v in second_hop {
                // Column-normalised convention: entry (v, u) is P(u -> v).
                coo.push(v, u, p_second).expect("indices in bounds");
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Solves `(I − d·P) x = ((1 − d)/n)·1` for a column-stochastic `P`.
fn damped_stationary(p: &CsrMatrix, damping: f64) -> LuResult<Vec<f64>> {
    let n = p.n_rows();
    let identity = CsrMatrix::identity(n);
    let a = identity.add_scaled(1.0, p, -damping).expect("shapes agree");
    let factors = factorize_fresh(&a)?;
    let x = factors.solve(&pagerank_rhs(n, damping))?;
    Ok(normalize_scores(x))
}

/// Discounted hitting time \[14\] from every node to `target`, answered
/// through the snapshot's own factors of `A = I − d·W`.
///
/// The hitting-time system `(I − d·P̃) h = 1 − e_t` (see
/// [`discounted_hitting_time`]) differs from `Aᵀ` in row `t` alone, since
/// `P = Wᵀ` and `P̃` only zeroes the target's row.  So the two transposed
/// solves `Aᵀy = 1 − e_t`, then `Aᵀz = e_t`, give `h = y − (y_t / z_t)·z`:
/// every row but `t` still reads `1`, and `h_t = 0`.  The denominator is
/// safe: `A⁻¹ = Σ (d·W)ᵏ ≥ I` entrywise, so `z_t ≥ 1`.  The damping is the
/// one the solver's factors were built with.
///
/// A target outside `0..n` is [`LuError::InvalidParameter`] named
/// `"target"`.
pub fn hitting_time<S: MeasureSolver + ?Sized>(
    solver: &S,
    n: usize,
    target: usize,
) -> LuResult<Vec<f64>> {
    check_target(n, target)?;
    let mut b = vec![1.0; n];
    b[target] = 0.0;
    let y = solver.solve_transposed_system(&b)?;
    b.fill(0.0);
    b[target] = 1.0;
    let z = solver.solve_transposed_system(&b)?;
    let ratio = y[target] / z[target];
    let mut h: Vec<f64> = y.iter().zip(&z).map(|(&yu, &zu)| yu - ratio * zu).collect();
    h[target] = 0.0;
    Ok(h)
}

/// Discounted hitting time \[14\] from every node to a target node, by
/// factorizing the target's own system — the batch function, and the oracle
/// [`hitting_time`] is checked against.
///
/// `h(target) = 0` and for `u ≠ target`:
/// `h(u) = 1 + d·Σ_w P(u, w)·h(w)` with the walk restarted at absorption —
/// equivalently `(I − d·P̃) h = 1` off the target, where `P̃` zeroes the
/// target's outgoing transitions.  Smaller values mean the target is closer.
/// A target outside the graph is [`LuError::InvalidParameter`] named
/// `"target"`.
pub fn discounted_hitting_time(graph: &DiGraph, target: usize, damping: f64) -> LuResult<Vec<f64>> {
    let n = graph.n_nodes();
    check_target(n, target)?;
    // Row-normalised transition matrix with the target made absorbing.
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0).expect("diagonal in bounds");
        if i == target {
            continue;
        }
        let deg = graph.out_degree(i);
        if deg == 0 {
            continue;
        }
        let w = damping / deg as f64;
        for v in graph.successors(i) {
            coo.push(i, v, -w).expect("edge in bounds");
        }
    }
    let a = CsrMatrix::from_coo(&coo);
    let factors = factorize_fresh(&a)?;
    let mut b = vec![1.0; n];
    b[target] = 0.0;
    factors.solve(&b)
}

fn check_target(n: usize, target: usize) -> LuResult<()> {
    if target < n {
        Ok(())
    } else {
        Err(LuError::InvalidParameter {
            name: "target",
            value: target as f64,
        })
    }
}

/// The matrix kind a measure needs its EMS to be built with.
pub fn required_matrix_kind(damping: f64) -> MatrixKind {
    MatrixKind::RandomWalk { damping }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude::{BruteForce, EvolvingMatrixSequence, LudemSolver, SolverConfig};
    use clude_graph::EvolvingGraphSequence;

    fn ring_with_chord() -> DiGraph {
        // A 6-node ring plus extra links into node 0.
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        g.add_edge(4, 0);
        g
    }

    fn decomposed_single(graph: &DiGraph, damping: f64) -> (clude::LudemSolution, usize) {
        let egs = EvolvingGraphSequence::from_base(graph.clone());
        let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping });
        let solution = BruteForce.solve(&ems, &SolverConfig::default()).unwrap();
        let n = ems.order();
        (solution, n)
    }

    #[test]
    fn pagerank_favours_highly_linked_node() {
        let g = ring_with_chord();
        let (solution, n) = decomposed_single(&g, 0.85);
        let pr = pagerank(&solution.decomposed[0], n, 0.85).unwrap();
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Node 0 has three in-links, every other node has one.
        let best = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn pagerank_matches_power_iteration_reference() {
        let g = ring_with_chord();
        let (solution, n) = decomposed_single(&g, 0.85);
        let pr = pagerank(&solution.decomposed[0], n, 0.85).unwrap();
        let pi = crate::power_iteration::pagerank_power_iteration(&g, 0.85, 2000, 1e-14);
        for (a, b) in pr.iter().zip(pi.scores.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn rwr_mass_concentrates_near_seed() {
        let g = ring_with_chord();
        let (solution, n) = decomposed_single(&g, 0.85);
        let scores = rwr(&solution.decomposed[0], n, 3, 0.85).unwrap();
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3, "the seed has the largest stationary mass");
    }

    #[test]
    fn multi_seed_ppr_and_group_proximity() {
        let g = ring_with_chord();
        let (solution, n) = decomposed_single(&g, 0.85);
        let seeds = [1usize, 2];
        let scores = personalized_pagerank(&solution.decomposed[0], n, &seeds, 0.85).unwrap();
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let prox = group_proximity(&solution.decomposed[0], n, &seeds, &[3, 4], 0.85).unwrap();
        assert!(prox > 0.0 && prox < 1.0);
    }

    #[test]
    fn salsa_scores_are_distributions() {
        let g = ring_with_chord();
        let s = salsa(&g, 0.85).unwrap();
        assert!((s.authorities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((s.hubs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Node 0 is the strongest authority (three in-links).
        let best = s
            .authorities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn hitting_time_is_zero_at_target_and_monotone_with_distance() {
        // A directed chain 0 -> 1 -> 2 -> 3.
        let g = DiGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let h = discounted_hitting_time(&g, 3, 0.9).unwrap();
        assert_eq!(h[3], 0.0);
        assert!(h[0] > h[1] && h[1] > h[2] && h[2] > 0.0);
    }

    #[test]
    fn hitting_time_through_the_factors_matches_the_batch_function() {
        use clude::Incremental;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(37);
        for case in 0..12 {
            let n = 6 + case;
            let mut g = DiGraph::new(n);
            for u in 0..n {
                // Every third node dangles; the others link out at random.
                if u % 3 == 2 {
                    continue;
                }
                for _ in 0..rng.gen_range(1..4) {
                    g.add_edge(u, rng.gen_range(0..n));
                }
            }
            let target = case % n;
            g.add_edge(target, target);
            for damping in [0.5, 0.85, 0.99] {
                let want = discounted_hitting_time(&g, target, damping).unwrap();
                let egs = EvolvingGraphSequence::from_base(g.clone());
                let ems =
                    EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping });
                let config = SolverConfig::default();
                let static_f = BruteForce.solve(&ems, &config).unwrap();
                let dynamic_f = Incremental.solve(&ems, &config).unwrap();
                for solution in [static_f, dynamic_f] {
                    let got = hitting_time(&solution.decomposed[0], n, target).unwrap();
                    assert_eq!(got[target], 0.0);
                    for (a, b) in got.iter().zip(&want) {
                        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn hitting_time_rejects_bad_target() {
        let g = DiGraph::new(3);
        let bad = |err: LuError| matches!(err, LuError::InvalidParameter { name: "target", value } if value == 7.0);
        assert!(bad(discounted_hitting_time(&g, 7, 0.9).unwrap_err()));
        let (solution, n) = decomposed_single(&g, 0.9);
        assert!(bad(hitting_time(&solution.decomposed[0], n, 7).unwrap_err()));
    }

    #[test]
    fn required_matrix_kind_is_random_walk() {
        assert_eq!(
            required_matrix_kind(0.85),
            MatrixKind::RandomWalk { damping: 0.85 }
        );
    }
}
