//! `egs-clude`: the paper's own problem.  A wiki-like evolving graph sequence
//! becomes an evolving matrix sequence, and one `Clude::solve` call decomposes
//! all of it.  No engine is involved.

use crate::dict::Workload;
use crate::gen::{self, Scale};
use crate::host;
use crate::oracle;
use crate::probes::{self, MatrixPair};
use crate::round::{Laps, Round};
use crate::spans::Recorder;
use crate::stats;
use clude::algorithms::common::max_reconstruction_error;
use clude::{
    quality_loss_with_reference, Clude, EvolvingMatrixSequence, LudemSolver, SolverConfig,
};
use clude_graph::MatrixKind;
use clude_lu::markowitz_ordering;
use clude_measures::linear_system::rwr_rhs;
use std::time::{Duration, Instant};

/// Clustering threshold of the timed solve (the paper's default region).
const ALPHA: f64 = 0.95;
/// Snapshots sampled for quality-loss, and kept for the factor checks.
const SAMPLES: usize = 10;

/// `count` indices spread evenly over `0..len`, first and last included.
fn evenly_spaced(len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count)
        .map(|k| {
            if count == 1 {
                0
            } else {
                k * (len - 1) / (count - 1)
            }
        })
        .collect()
}

/// The untimed pass that keeps its factors: they must reconstruct their
/// matrices and answer `A·x = b` for an RWR seed.  One attempt for the
/// reconstruction, one per kept snapshot for the solve.
fn check_kept_factors(rec: &mut Recorder, kept: &EvolvingMatrixSequence, round: &mut Round) {
    let ((), _) = probes::timed(rec, "check.kept_factors", || {
        round.attempted += 1 + kept.len() as u64;
        let Ok(solution) = Clude::new(ALPHA).solve(kept, &SolverConfig::default()) else {
            round.failed += 1 + kept.len() as u64;
            return;
        };
        let error = max_reconstruction_error(kept, &solution);
        if !error.is_some_and(|e| e <= oracle::RECONSTRUCTION_TOL) {
            round.failed += 1;
        }
        let n = kept.order();
        for i in 0..kept.len() {
            let b = rwr_rhs(n, (i * 37) % n, gen::DAMPING);
            let residual = solution
                .solve(i, &b)
                .ok()
                .and_then(|x| kept.matrix(i).mul_vec(&x).ok())
                .map(|ax| oracle::max_abs_diff(&ax, &b));
            if !residual.is_some_and(|r| r <= oracle::RESIDUAL_TOL) {
                round.failed += 1;
            }
        }
    });
}

/// One round.  `thorough` adds the untimed pass that keeps its factors and
/// checks them (the run's first round does it).
pub fn round(scale: Scale, seed: u64, traced: bool, thorough: bool, rec: &mut Recorder) -> Round {
    let mut round = Round::default();
    let mut setup = Laps::start();
    let size = gen::sizing(Workload::EgsClude, scale);
    let egs = gen::wiki_egs(&size.wiki, seed);
    setup.cut(Duration::ZERO);
    let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::random_walk_default());
    setup.cut(Duration::ZERO);
    // Oracle preparation: the Markowitz reference of the sampled snapshots,
    // and the last few snapshots as a sequence of their own for the untimed
    // pass that keeps its factors.
    let sampled = evenly_spaced(ems.len(), SAMPLES);
    let reference: Vec<usize> = sampled
        .iter()
        .map(|&i| {
            let size = markowitz_ordering(&ems.pattern(i)).symbolic_size;
            setup.cut(Duration::ZERO);
            size
        })
        .collect();
    let kept_from = ems.len().saturating_sub(SAMPLES);
    let kept = EvolvingMatrixSequence::new(ems.matrices()[kept_from..].to_vec())
        .expect("a suffix of a valid sequence is valid");
    setup.cut(Duration::ZERO);
    round.setup_s = setup.segments.iter().sum();
    round.setup_segments = setup.segments;

    rec.enter("round", seed);
    let start = Instant::now();
    let solved = Clude::new(ALPHA).solve(&ems, &SolverConfig::timing_only());
    let end = Instant::now();
    rec.leaf("clude.solve", 0, start, end, 1);
    let decompose_s = (end - start).as_secs_f64();
    round.timed_s = decompose_s;
    round.segments = vec![decompose_s];
    round.peak_rss_mb = host::peak_rss_mb();
    round.scalars.insert("decompose_s", decompose_s);

    // One attempt per snapshot decomposed.
    round.attempted = ems.len() as u64;
    let Ok(solution) = solved else {
        round.failed = round.attempted;
        rec.exit();
        return round;
    };
    let losses: Vec<f64> = sampled
        .iter()
        .zip(&reference)
        .map(|(&i, &size)| {
            quality_loss_with_reference(&ems.pattern(i), &solution.report.orderings[i], size)
        })
        .collect();
    round.scalars.insert("quality_loss", stats::mean(&losses));

    if thorough {
        check_kept_factors(rec, &kept, &mut round);
    }

    let report = &solution.report;
    round.shape.extend([
        ("snapshots", ems.len() as f64),
        ("order", ems.order() as f64),
        ("clusters", report.cluster_count() as f64),
        ("bennett_pivots", report.bennett.pivots_processed as f64),
        ("avg_factor_nnz", report.average_factor_nnz()),
        (
            "bennett_share",
            report.timings.incremental.as_secs_f64() / decompose_s,
        ),
    ]);
    if traced {
        let t = &report.timings;
        for (name, value) in [
            ("core.clustering_s", t.clustering.as_secs_f64()),
            ("core.ordering_s", t.ordering.as_secs_f64()),
            ("core.symbolic_s", t.symbolic.as_secs_f64()),
            ("core.full_lu_s", t.full_decomposition.as_secs_f64()),
            ("core.bennett_s", t.incremental.as_secs_f64()),
            ("core.clusters", report.cluster_count() as f64),
            (
                "core.bennett_pivots",
                report.bennett.pivots_processed as f64,
            ),
        ] {
            round.layer.insert(name.to_string(), value);
        }
        let ends = [MatrixPair {
            base: ems.matrix(0).clone(),
            last: ems.matrix(ems.len() - 1).clone(),
        }];
        probes::sparse(rec, &ends, &mut round.layer);
        probes::lu(rec, &ends, true, &mut round.layer);
        // `delta_to` between consecutive matrices is what the solver itself
        // calls once per step; report that instead of the end-to-end delta.
        let steps = (ems.len() - 1).min(64);
        let ((), s) = probes::timed(rec, "sparse.delta_to", || {
            for i in 0..steps {
                let delta = ems.matrix(i).delta_to(ems.matrix(i + 1), 0.0);
                std::hint::black_box(delta.map_or(0, |d| d.len()));
            }
        });
        round
            .layer
            .insert("sparse.delta_to_us".into(), s * 1e6 / steps.max(1) as f64);
    }
    rec.exit();
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spaced_covers_both_ends() {
        assert_eq!(evenly_spaced(300, 10)[0], 0);
        assert_eq!(evenly_spaced(300, 10)[9], 299);
        assert_eq!(evenly_spaced(4, 10), vec![0, 1, 2, 3]);
        assert_eq!(evenly_spaced(1, 10), vec![0]);
    }
}
