//! What one round of a workload produces, and how the rounds of a run fold
//! into one record.
//!
//! A run is a few *inputs* drawn from the run's seed — as many as fill a
//! third of `--seconds` — each measured three times over in interleaved
//! passes.  A round is set-up, a timed section of fixed work, then the
//! correctness checks.
//!
//! - Times and rates fold as the **mean over the inputs of the best repeat**.
//!   The sandbox's noise is one-sided — a descheduled vCPU only ever adds
//!   time — so the best of a few repeats of identical work is the reading
//!   least touched by it; the inputs are unlike on purpose (one run must not
//!   hang on one random graph), so across them the mean is taken, not the
//!   median (the median of unlike values is just its middle inputs).
//! - `timed_s`, the one time the driver gates on every workload, takes the
//!   best repeat **call by call**: a round's timed section is a fixed
//!   sequence of calls (its segments), the same in every repeat, and an
//!   input's time is the sum over that sequence of each call's best repeat.
//!   On a shared host the noise comes in bursts shorter than a round, so every
//!   round catches some and the best whole round is still a disturbed one;
//!   a given call is rarely hit in all of its repeats.
//! - Set-up time is cut into pieces and folded the same way per input; the
//!   inputs' set-ups are alike, and fold by the median.
//! - Latencies are percentiles over the pooled samples of every round.
//! - Counts and the measured shape are the first input's: how many inputs a
//!   run gets through depends on the machine, the first input does not, so a
//!   count repeats exactly for one seed.
//! - Peak memory is the first round's reading, the only one taken before any
//!   of the benchmark's own checks has run in the process.

use crate::dict::{self, Better, Workload};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Cuts a stretch of work into segments: each `cut` closes the piece that
/// began at the previous one.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    fs_seen: Duration,
    pub segments: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            fs_seen: Duration::ZERO,
            segments: Vec::new(),
        }
    }

    /// Closes a segment.  `fs_waited` is the filesystem clock's running
    /// total; what it gained during the segment is left out of it.
    pub fn cut(&mut self, fs_waited: Duration) {
        let now = Instant::now();
        let fs = fs_waited.saturating_sub(self.fs_seen);
        self.segments
            .push((now - self.last).saturating_sub(fs).as_secs_f64());
        self.last = now;
        self.fs_seen = fs_waited;
    }
}

/// The readings of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Which of the run's inputs the round measured (rounds with the same
    /// index are repeats of identical work).
    pub input: usize,
    /// Generate inputs, build the EMS or engine, pre-replay, oracle set-up.
    pub setup_s: f64,
    /// The same time piece by piece (inputs, engine, each pre-replayed batch,
    /// the rest), identical work in every repeat of an input.
    pub setup_segments: Vec<f64>,
    /// Time spent inside calls into the program during the timed section.
    pub timed_s: f64,
    /// The same time call by call, in the order the calls ran; identical
    /// work in every repeat of an input.
    pub segments: Vec<f64>,
    /// Scalar end-to-end readings by dictionary name (`decompose_s`,
    /// `ingest_deltas_per_s`, `recovery_s`, …).
    pub scalars: BTreeMap<&'static str, f64>,
    /// Durations of the calls that cut and applied a batch, warm-up dropped.
    pub batch_ms: Vec<f64>,
    /// Latencies of the fresh-key queries, warm-up dropped.
    pub query_us: Vec<f64>,
    /// Operations, queries and correctness checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// The measured shape of the workload (ops, batches, refreshes, …).
    pub shape: BTreeMap<&'static str, f64>,
    /// Per-layer readings; filled by traced rounds only.
    pub layer: BTreeMap<String, f64>,
    /// `VmHWM` when the timed section ended, before this round's checks.
    pub peak_rss_mb: f64,
}

/// One run folded into named metrics.
#[derive(Debug)]
pub struct Record {
    pub workload: Workload,
    pub seed: u64,
    pub rounds: usize,
    /// Inputs measured; round `i` measured input `i % inputs`.
    pub inputs: usize,
    /// End-to-end metrics by dictionary name; only those the workload has.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Percentile used and sample count behind each `_tail_` metric.
    pub tails: BTreeMap<&'static str, stats::Tail>,
    pub layer: BTreeMap<String, f64>,
    pub shape: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Each round's `timed_s`, in order: how steady the run itself was.
    pub round_timed_s: Vec<f64>,
    /// Calls in the first round's timed section, and whether every repeat of
    /// every input made as many (or the call-by-call fold fell back to whole
    /// rounds).
    pub calls: usize,
    pub cut_alike: bool,
}

/// Per input, a stretch of work (`pick` gives its segments and their sum)
/// with every segment at its best repeat.  Repeats that are not cut alike (a
/// failed round) compare as wholes.
fn best_call_by_call(rounds: &[Round], pick: impl Fn(&Round) -> (&[f64], f64)) -> Vec<f64> {
    let mut by_input: BTreeMap<usize, Vec<(&[f64], f64)>> = BTreeMap::new();
    for round in rounds {
        by_input.entry(round.input).or_default().push(pick(round));
    }
    let least = |values: &mut dyn Iterator<Item = f64>| values.fold(f64::INFINITY, f64::min);
    by_input
        .into_values()
        .map(|repeats| {
            let calls = repeats[0].0.len();
            if calls == 0 || repeats.iter().any(|(segments, _)| segments.len() != calls) {
                return least(&mut repeats.iter().map(|(_, whole)| *whole));
            }
            (0..calls)
                .map(|call| least(&mut repeats.iter().map(|(segments, _)| segments[call])))
                .sum()
        })
        .collect()
}

impl Record {
    /// Folds the rounds of one run.
    pub fn fold(workload: Workload, seed: u64, rounds: Vec<Round>) -> Record {
        let mut e2e = BTreeMap::new();
        let mut tails = BTreeMap::new();
        // The best reading among each input's repeats, by input.
        let best = |pick: &dyn Fn(&Round) -> Option<f64>, better: Better| -> Vec<f64> {
            let mut per_input: BTreeMap<usize, f64> = BTreeMap::new();
            for round in &rounds {
                if let Some(v) = pick(round) {
                    per_input
                        .entry(round.input)
                        .and_modify(|b| {
                            *b = match better {
                                Better::Lower => b.min(v),
                                Better::Higher => b.max(v),
                            }
                        })
                        .or_insert(v);
                }
            }
            per_input.into_values().collect()
        };
        let setups = best_call_by_call(&rounds, |r| (&r.setup_segments, r.setup_s));
        e2e.insert("setup_s", stats::median(&setups));
        let timed = best_call_by_call(&rounds, |r| (&r.segments, r.timed_s));
        e2e.insert("timed_s", stats::mean(&timed));
        for metric in dict::END_TO_END {
            let by_input = best(&|r| r.scalars.get(metric.name).copied(), metric.better);
            let folded = match by_input.first() {
                None => continue,
                Some(&first) if metric.exact => first,
                Some(_) => stats::mean(&by_input),
            };
            e2e.insert(metric.name, folded);
        }
        let pooled = |pick: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            rounds
                .iter()
                .flat_map(|r| pick(r).iter().copied())
                .collect()
        };
        for (samples, p50, tail) in [
            (
                pooled(&|r| &r.batch_ms),
                "batch_apply_p50_ms",
                "batch_apply_tail_ms",
            ),
            (
                pooled(&|r| &r.query_us),
                "query_cold_p50_us",
                "query_cold_tail_us",
            ),
        ] {
            if !samples.is_empty() {
                let t = stats::tail(&samples);
                e2e.insert(p50, stats::median(&samples));
                e2e.insert(tail, t.value);
                tails.insert(tail, t);
            }
        }
        let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
        let failed: u64 = rounds.iter().map(|r| r.failed).sum();
        // `VmHWM` never falls, so every later reading also holds the earlier
        // rounds' checks (oracle matrices, kept answers): not the program's.
        let first = rounds.first();
        e2e.insert("peak_rss_mb", first.map_or(0.0, |r| r.peak_rss_mb));
        e2e.insert("failed_share", failed as f64 / attempted.max(1) as f64);
        Record {
            workload,
            seed,
            rounds: rounds.len(),
            inputs: rounds.iter().map(|r| r.input + 1).max().unwrap_or(0),
            e2e,
            tails,
            layer: BTreeMap::new(),
            shape: first.map(|r| r.shape.clone()).unwrap_or_default(),
            attempted,
            failed,
            round_timed_s: rounds.iter().map(|r| r.timed_s).collect(),
            calls: first.map_or(0, |r| r.segments.len()),
            cut_alike: rounds.iter().all(|r| {
                let same_input = rounds.iter().find(|other| other.input == r.input);
                same_input.is_some_and(|other| {
                    other.segments.len() == r.segments.len()
                        && other.setup_segments.len() == r.setup_segments.len()
                })
            }),
        }
    }

    /// The best `timed_s` among the repeats of the first input.
    pub fn first_input_timed_s(&self) -> f64 {
        self.round_timed_s
            .iter()
            .step_by(self.inputs.max(1))
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Every check passed and something was attempted.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result the benchmark contract asks for: exactly the
    /// universal end-to-end metrics, or (traced) exactly the per-layer names.
    pub fn contract_json(&self, traced: bool) -> Json {
        let metric = |value: f64, unit: &str| {
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if traced {
            dict::traced_names()
                .into_iter()
                .map(|(name, unit, _)| {
                    let value = self
                        .layer
                        .get(&name)
                        .or_else(|| self.e2e.get(name.as_str()))
                        .copied()
                        .unwrap_or(0.0);
                    (name, metric(value, unit))
                })
                .collect()
        } else {
            dict::UNIVERSAL
                .iter()
                .map(|&name| {
                    let unit = dict::end_to_end(name).map_or("", |m| m.unit);
                    (name.to_string(), metric(self.e2e[name], unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full record `clude_perf run` and `trace` write: every metric the
    /// workload has, the tail percentiles used, the measured shape, the host.
    pub fn full_json(&self, host: &Json) -> Json {
        let nums = |pairs: Vec<(String, f64)>| {
            Json::obj(pairs.into_iter().map(|(k, v)| (k, Json::Num(v))))
        };
        let own = |m: &BTreeMap<&'static str, f64>| {
            nums(m.iter().map(|(k, v)| (k.to_string(), *v)).collect())
        };
        let tails = self.tails.iter().map(|(name, t)| {
            (
                name.to_string(),
                Json::obj([
                    ("percentile", Json::Num(t.percentile)),
                    ("samples", Json::Num(t.samples as f64)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("inputs", Json::Num(self.inputs as f64)),
            ("calls", Json::Num(self.calls as f64)),
            ("cut_alike", Json::Bool(self.cut_alike)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", own(&self.e2e)),
            ("tails", Json::obj(tails)),
            (
                "per_layer",
                nums(self.layer.iter().map(|(k, v)| (k.clone(), *v)).collect()),
            ),
            ("shape", own(&self.shape)),
            (
                "round_timed_s",
                Json::Arr(self.round_timed_s.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("host", host.clone()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(input: usize, setup: f64, timed: f64, rate: f64, loss: f64, batches: &[f64]) -> Round {
        Round {
            input,
            setup_s: setup,
            timed_s: timed,
            scalars: [("ingest_deltas_per_s", rate), ("quality_loss", loss)]
                .into_iter()
                .collect(),
            batch_ms: batches.to_vec(),
            peak_rss_mb: setup,
            attempted: 10,
            failed: 0,
            shape: [("ops", 100.0)].into_iter().collect(),
            ..Round::default()
        }
    }

    #[test]
    fn fold_takes_the_best_repeat_per_input_then_the_mean_and_pools_samples() {
        let record = Record::fold(
            Workload::IngestValue,
            11,
            vec![
                // Input 0 twice, input 1 twice: interleaved passes.
                round(0, 1.0, 2.0, 100.0, 0.10, &[1.0, 2.0]),
                round(1, 3.0, 9.0, 300.0, 0.50, &[3.0]),
                round(0, 2.0, 4.0, 200.0, 0.10, &[4.0, 5.0]),
                round(1, 4.0, 7.0, 250.0, 0.50, &[]),
            ],
        );
        // Median over the inputs of the best set-up: (min(1, 2) + min(3, 4)) / 2.
        assert_eq!(record.e2e["setup_s"], 2.0);
        // Without segments the repeats compare as wholes:
        // (min(2, 4) + min(9, 7)) / 2.
        assert_eq!(record.e2e["timed_s"], 4.5);
        // Higher is better for a rate: (max(100, 200) + max(300, 250)) / 2.
        assert_eq!(record.e2e["ingest_deltas_per_s"], 250.0);
        // An exact count is the first input's, however many inputs follow.
        assert_eq!(record.e2e["quality_loss"], 0.10);
        // Peak memory is the first round's and does not grow with the rounds.
        assert_eq!(record.e2e["peak_rss_mb"], 1.0);
        assert_eq!((record.rounds, record.inputs), (4, 2));
        assert!(record.cut_alike);
        assert_eq!(record.first_input_timed_s(), 2.0);
        assert_eq!(record.e2e["batch_apply_p50_ms"], 3.0);
        assert_eq!(record.tails["batch_apply_tail_ms"].samples, 5);
        assert!(!record.e2e.contains_key("query_cold_p50_us"));
        assert_eq!((record.attempted, record.failed), (40, 0));
        assert_eq!(record.e2e["failed_share"], 0.0);
        assert_eq!(record.shape["ops"], 100.0);
        assert!(record.correct());

        let line = record.contract_json(false);
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(names, ["peak_rss_mb", "setup_s", "timed_s"]);
        let traced = record.contract_json(true);
        let metrics = traced.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), dict::traced_names().len());
        assert_eq!(
            metrics["ingest_deltas_per_s"].get("value"),
            Some(&Json::Num(250.0))
        );
        assert_eq!(metrics["coupling.nnz"].get("value"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn laps_leave_out_what_the_filesystem_clock_gained() {
        let mut laps = Laps::start();
        std::thread::sleep(Duration::from_millis(2));
        laps.cut(Duration::ZERO);
        // A lap the filesystem clock says was all waiting counts nothing,
        // and the running total is not charged twice.
        laps.cut(Duration::from_secs(5));
        std::thread::sleep(Duration::from_millis(2));
        laps.cut(Duration::from_secs(5));
        assert_eq!(laps.segments.len(), 3);
        assert!(laps.segments[0] >= 0.002 && laps.segments[2] >= 0.002);
        assert_eq!(laps.segments[1], 0.0);
    }

    #[test]
    fn timed_s_takes_the_best_repeat_of_every_call() {
        let timed = |input: usize, segments: &[f64]| Round {
            input,
            timed_s: segments.iter().sum(),
            segments: segments.to_vec(),
            setup_s: segments.iter().sum(),
            setup_segments: segments.to_vec(),
            attempted: 1,
            ..Round::default()
        };
        let record = Record::fold(
            Workload::LiveMono,
            11,
            vec![
                timed(0, &[1.0, 5.0, 1.0]),
                timed(1, &[2.0, 2.0]),
                timed(0, &[4.0, 2.0, 1.5]),
                // A repeat that made other calls: input 1 compares wholes.
                timed(1, &[3.0]),
            ],
        );
        // Input 0: 1 + 2 + 1, though its best whole round took 7; input 1: 3.
        assert_eq!(record.e2e["timed_s"], 3.5);
        assert_eq!(record.e2e["setup_s"], 3.5);
        assert_eq!((record.calls, record.cut_alike), (3, false));
        assert_eq!(record.first_input_timed_s(), 7.0);
        assert_eq!(record.round_timed_s, [7.0, 4.0, 7.5, 3.0]);
    }
}
