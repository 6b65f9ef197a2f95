//! Measure time series over an evolving graph sequence.
//!
//! This is the end-to-end workflow of the paper's motivating examples
//! (Figures 1 and 11): decompose the whole EMS once with a LUDEM solver, then
//! evaluate a measure at every snapshot by substitution, producing a time
//! series that can be inspected for key moments, trends and rank changes.

use crate::linear_system::group_score;
use crate::measures::{pagerank, personalized_pagerank};
use clude::{EvolvingMatrixSequence, LudemSolution, LudemSolver, SolverConfig};
use clude_graph::{EvolvingGraphSequence, MatrixKind};
use clude_lu::LuResult;
use clude_sparse::vector;

/// A decomposed EGS ready to answer measure queries at every snapshot.
#[derive(Debug)]
pub struct MeasureSeries {
    ems: EvolvingMatrixSequence,
    solution: LudemSolution,
    damping: f64,
}

impl MeasureSeries {
    /// Decomposes the sequence derived from `egs` using `solver`.
    pub fn build<S: LudemSolver>(
        egs: &EvolvingGraphSequence,
        damping: f64,
        solver: &S,
    ) -> LuResult<Self> {
        let ems = EvolvingMatrixSequence::from_egs(egs, MatrixKind::RandomWalk { damping });
        let solution = solver.solve(&ems, &SolverConfig::default())?;
        Ok(MeasureSeries {
            ems,
            solution,
            damping,
        })
    }

    /// Wraps an already-decomposed EMS.
    pub fn from_solution(
        ems: EvolvingMatrixSequence,
        solution: LudemSolution,
        damping: f64,
    ) -> Self {
        MeasureSeries {
            ems,
            solution,
            damping,
        }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.ems.len()
    }

    /// Always `false` (an EMS has at least one matrix).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.ems.order()
    }

    /// The underlying solver report (timings, cluster sizes, …).
    pub fn report(&self) -> &clude::RunReport {
        &self.solution.report
    }

    /// PageRank scores of every node at snapshot `t`.
    pub fn pagerank_at(&self, t: usize) -> LuResult<Vec<f64>> {
        pagerank(
            self.solution.decomposition(t)?,
            self.n_nodes(),
            self.damping,
        )
    }

    /// The PageRank score of one node at every snapshot — the time series of
    /// the paper's Figure 1.
    pub fn pagerank_series(&self, node: usize) -> LuResult<Vec<f64>> {
        (0..self.len())
            .map(|t| self.pagerank_at(t).map(|scores| scores[node]))
            .collect()
    }

    /// Personalised-PageRank proximity of `group` from `seeds` at every
    /// snapshot (the §7 case-study series).
    pub fn group_proximity_series(&self, seeds: &[usize], group: &[usize]) -> LuResult<Vec<f64>> {
        (0..self.len())
            .map(|t| {
                let snapshot = self.solution.decomposition(t)?;
                personalized_pagerank(snapshot, self.n_nodes(), seeds, self.damping)
                    .map(|scores| group_score(&scores, group))
            })
            .collect()
    }

    /// Proximity *ranks* (1 = closest) of several groups at every snapshot —
    /// the quantity the paper plots in Figure 11.
    pub fn group_rank_series(
        &self,
        seeds: &[usize],
        groups: &[Vec<usize>],
    ) -> LuResult<Vec<Vec<usize>>> {
        let mut ranks = vec![vec![0usize; self.len()]; groups.len()];
        for t in 0..self.len() {
            let snapshot = self.solution.decomposition(t)?;
            let scores = personalized_pagerank(snapshot, self.n_nodes(), seeds, self.damping)?;
            let group_scores: Vec<f64> = groups.iter().map(|g| group_score(&scores, g)).collect();
            let order = vector::rank_descending(&group_scores);
            for (rank, &group_idx) in order.iter().enumerate() {
                ranks[group_idx][t] = rank + 1;
            }
        }
        Ok(ranks)
    }

    /// Snapshots where a node's PageRank changes by more than
    /// `relative_threshold` compared with the previous snapshot — the "key
    /// moments" of Example 1.
    pub fn key_moments(&self, node: usize, relative_threshold: f64) -> LuResult<Vec<usize>> {
        let series = self.pagerank_series(node)?;
        let mut moments = Vec::new();
        for t in 1..series.len() {
            let prev = series[t - 1];
            if prev > 0.0 && ((series[t] - prev) / prev).abs() >= relative_threshold {
                moments.push(t);
            }
        }
        Ok(moments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude::Clude;
    use clude_graph::DiGraph;
    use clude_lu::LuError;

    /// A small EGS where node 0 suddenly gains in-links at snapshot 2.
    fn egs_with_burst() -> EvolvingGraphSequence {
        let n = 12;
        let base: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g1 = DiGraph::from_edges(n, base.clone());
        let g2 = g1.clone();
        let mut g3 = g2.clone();
        for u in 3..9 {
            g3.add_edge(u, 0);
        }
        let g4 = g3.clone();
        EvolvingGraphSequence::from_snapshots(vec![g1, g2, g3, g4])
    }

    #[test]
    fn pagerank_series_reflects_link_burst() {
        let egs = egs_with_burst();
        let series = MeasureSeries::build(&egs, 0.85, &Clude::new(0.8)).unwrap();
        assert_eq!(series.len(), 4);
        let pr0 = series.pagerank_series(0).unwrap();
        // Node 0's score jumps when the burst of in-links arrives.
        assert!(pr0[2] > 1.5 * pr0[1], "burst not visible: {pr0:?}");
        let moments = series.key_moments(0, 0.5).unwrap();
        assert_eq!(moments, vec![2]);
    }

    #[test]
    fn every_snapshot_distribution_sums_to_one() {
        let egs = egs_with_burst();
        let series = MeasureSeries::build(&egs, 0.85, &Clude::default()).unwrap();
        for t in 0..series.len() {
            let scores = series.pagerank_at(t).unwrap();
            assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(!series.is_empty());
        assert_eq!(series.n_nodes(), 12);
    }

    #[test]
    fn group_rank_series_orders_groups_consistently() {
        let egs = egs_with_burst();
        let series = MeasureSeries::build(&egs, 0.85, &Clude::default()).unwrap();
        let seeds = vec![1usize];
        let groups = vec![vec![0usize], vec![6usize, 7usize]];
        let ranks = series.group_rank_series(&seeds, &groups).unwrap();
        assert_eq!(ranks.len(), 2);
        assert_eq!(ranks[0].len(), series.len());
        // Ranks are a permutation of 1..=groups.len() at every snapshot.
        for t in 0..series.len() {
            let mut at_t: Vec<usize> = ranks.iter().map(|r| r[t]).collect();
            at_t.sort_unstable();
            assert_eq!(at_t, vec![1, 2]);
        }
        let prox = series.group_proximity_series(&seeds, &groups[0]).unwrap();
        assert_eq!(prox.len(), series.len());
        assert!(prox.iter().all(|&p| p > 0.0));
    }

    /// `result` is the refusal of snapshot `t`, which the solution does not
    /// keep.
    fn refuses_snapshot<T>(result: LuResult<T>, t: usize) -> bool {
        matches!(result, Err(LuError::InvalidParameter { name: "snapshot", value })
            if value == t as f64)
    }

    #[test]
    fn a_snapshot_without_a_decomposition_is_an_error_not_a_panic() {
        let egs = egs_with_burst();
        let series = MeasureSeries::build(&egs, 0.85, &Clude::default()).unwrap();
        assert!(refuses_snapshot(series.pagerank_at(4), 4));
        // A timing-only run keeps no decomposition of any snapshot.
        let kind = MatrixKind::RandomWalk { damping: 0.85 };
        let ems = EvolvingMatrixSequence::from_egs(&egs, kind);
        let solution = Clude::default()
            .solve(&ems, &SolverConfig::timing_only())
            .unwrap();
        let series = MeasureSeries::from_solution(ems, solution, 0.85);
        for result in [
            series.pagerank_at(0).map(drop),
            series.pagerank_series(0).map(drop),
            series.group_proximity_series(&[1], &[0]).map(drop),
            series.group_rank_series(&[1], &[vec![0]]).map(drop),
        ] {
            assert!(refuses_snapshot(result, 0));
        }
    }

    #[test]
    fn report_is_exposed() {
        let egs = egs_with_burst();
        let series = MeasureSeries::build(&egs, 0.85, &Clude::default()).unwrap();
        assert_eq!(series.report().algorithm, "CLUDE");
    }
}
