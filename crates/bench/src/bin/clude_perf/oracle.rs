//! The correctness oracle.  It shares no factorization code with the program
//! under test: an answer is checked by multiplying it back into the measure
//! matrix of the benchmark's own replayed graph.

use clude_engine::{CludeEngine, EngineConfig};
use clude_graph::{measure_matrix, DiGraph, MatrixKind};
use clude_measures::{measure_rhs, MeasureQuery};
use clude_sparse::CsrMatrix;
use std::sync::Arc;

/// Largest residual a served answer may leave.
pub const RESIDUAL_TOL: f64 = 1e-10;
/// Largest entry-wise distance between two engines' answers.
pub const AGREEMENT_TOL: f64 = 1e-9;
/// Largest entry-wise reconstruction error of kept LU factors.
pub const RECONSTRUCTION_TOL: f64 = 1e-8;

/// The measure matrix `A = I − d·W` of one graph state.
#[derive(Debug)]
pub struct Oracle {
    a: CsrMatrix,
}

impl Oracle {
    pub fn new(graph: &DiGraph) -> Self {
        Oracle {
            a: measure_matrix(graph, MatrixKind::random_walk_default()),
        }
    }

    /// `‖A·x − s·b‖∞` for the served answer `x` of `query`.
    ///
    /// The engine serves `x` L1-normalised, so `A·x` equals the right-hand
    /// side `b = measure_rhs(query)` up to the scale `s = Σ(A·x) / Σb`; the
    /// residual is taken after fitting that one scalar, and an answer that is
    /// not normalised is charged its distance from 1.  `A` is non-singular,
    /// so direction plus norm pin the answer down.
    pub fn residual(&self, query: &MeasureQuery, x: &[f64]) -> f64 {
        let n = self.a.n_rows();
        let (Some(b), Ok(ax)) = (measure_rhs(query, n), self.a.mul_vec(x)) else {
            return f64::INFINITY;
        };
        let scale = ax.iter().sum::<f64>() / b.iter().sum::<f64>();
        let direction = ax
            .iter()
            .zip(&b)
            .map(|(l, r)| (l - scale * r).abs())
            .fold(0.0, f64::max);
        let norm = (x.iter().map(|v| v.abs()).sum::<f64>() - 1.0).abs();
        // A NaN anywhere must fail the caller's `<=` test.
        if direction.is_nan() || norm.is_nan() {
            f64::INFINITY
        } else {
            direction.max(norm)
        }
    }

    /// Whether the answer passes the residual check.
    pub fn accepts(&self, query: &MeasureQuery, x: &[f64]) -> bool {
        self.residual(query, x) <= RESIDUAL_TOL
    }
}

/// Largest entry-wise distance between two answers (infinite when their
/// lengths differ or a NaN appears).
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).fold(0.0, |worst: f64, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            worst.max(d)
        }
    })
}

/// Compares `answers` — what the engine under test gave for `probes` — to a
/// fresh default (1-shard) engine built on `final_graph`.  Returns how many
/// probes disagree by more than [`AGREEMENT_TOL`].
pub fn disagreements_with_fresh_engine(
    final_graph: &DiGraph,
    probes: &[MeasureQuery],
    answers: &[Arc<Vec<f64>>],
) -> u64 {
    let Ok(fresh) = CludeEngine::new(final_graph.clone(), EngineConfig::default()) else {
        return probes.len() as u64;
    };
    probes
        .iter()
        .zip(answers)
        .filter(|(q, served)| match fresh.query(q) {
            Ok(exact) => max_abs_diff(served, &exact) > AGREEMENT_TOL,
            Err(_) => true,
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn oracle_accepts_the_engine_and_rejects_a_perturbed_answer() {
        let graph = gen::wiki_egs(
            &gen::sizing(crate::dict::Workload::LiveMono, gen::Scale::Smoke).wiki,
            3,
        )
        .snapshot(0);
        let oracle = Oracle::new(&graph);
        let engine = CludeEngine::new(graph.clone(), EngineConfig::default()).unwrap();
        let probes = gen::probe_queries(graph.n_nodes());
        let answers: Vec<_> = probes.iter().map(|q| engine.query(q).unwrap()).collect();
        for (q, x) in probes.iter().zip(&answers) {
            assert!(oracle.accepts(q, x), "residual {}", oracle.residual(q, x));
            let mut wrong = x.to_vec();
            wrong[0] += 1e-6;
            assert!(!oracle.accepts(q, &wrong));
            let unnormalised: Vec<f64> = x.iter().map(|v| v * 1.001).collect();
            assert!(!oracle.accepts(q, &unnormalised));
        }
        assert_eq!(
            disagreements_with_fresh_engine(&graph, &probes, &answers),
            0
        );
        let mut other = graph.clone();
        other.add_edge(0, graph.n_nodes() - 1);
        other.remove_edge(1, 0);
        assert!(disagreements_with_fresh_engine(&other, &probes, &answers) > 0);
        assert_eq!(max_abs_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_abs_diff(&[f64::NAN], &[1.0]), f64::INFINITY);
    }
}
