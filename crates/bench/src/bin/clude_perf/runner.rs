//! Running workloads: one measurement in this process, or many in fresh child
//! processes (one per workload, seed and repeat, strictly one after another,
//! so peak memory is per workload and nothing warms anything else).

use crate::dict::{self, Better, Workload};
use crate::gen::{self, Scale};
use crate::json::Json;
use crate::round::{Record, Round};
use crate::spans::Recorder;
use crate::{egs, engine, host, stats};
use std::collections::BTreeMap;
use std::process::Command;

/// How one measurement is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seconds: u64,
    pub scale: Scale,
}

/// Times each input of a run is measured.
const REPEATS: usize = 3;

fn one_round(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    thorough: bool,
    rec: &mut Recorder,
) -> Round {
    if workload.uses_engine() {
        engine::round(workload, scale, seed, traced, thorough, rec)
    } else {
        egs::round(scale, seed, traced, thorough, rec)
    }
}

/// Measures inputs 0, 1, … (`measure_one(input)` returns the timed seconds of
/// the round it ran) until they add up to `budget`, then all of them again
/// until each has been measured `repeats` times: interleaved passes, so the
/// repeats of one input lie seconds apart.
fn passes(budget: f64, repeats: usize, mut measure_one: impl FnMut(usize) -> f64) {
    let (mut inputs, mut spent) = (0, 0.0);
    while inputs == 0 || spent < budget {
        spent += measure_one(inputs);
        inputs += 1;
    }
    for _ in 1..repeats {
        (0..inputs).for_each(|input| {
            measure_one(input);
        });
    }
}

/// The end-to-end measurement, telemetry off, no spans.  The first pass takes
/// new inputs until their timed sections add up to a third of `seconds`; two
/// more passes repeat them, so the timed sections of a run add up to about
/// `seconds` on whatever machine it runs.  Smoke scale is one round.
pub fn measure(workload: Workload, seed: u64, plan: Plan) -> Record {
    let mut rec = Recorder::new(false);
    let (budget, repeats) = match plan.scale {
        Scale::Smoke => (0.0, 1),
        Scale::Full => (plan.seconds as f64 / REPEATS as f64, REPEATS),
    };
    let mut rounds: Vec<Round> = Vec::new();
    passes(budget, repeats, |input| {
        let round_seed = gen::round_seed(seed, input as u64);
        // The expensive checks run once, in the first round.
        let thorough = rounds.is_empty();
        let mut round = one_round(workload, plan.scale, round_seed, false, thorough, &mut rec);
        round.input = input;
        rounds.push(round);
        rounds.last().map_or(0.0, |r| r.timed_s)
    });
    Record::fold(workload, seed, rounds)
}

/// The traced measurement: `measure`, then the first input once more with
/// engine telemetry at its default and the span recorder on.  The end-to-end
/// metrics come from the former, the per-layer table from the latter, and the
/// tracing overhead is the traced round against the best untraced repeat of
/// the same input.
pub fn measure_traced(workload: Workload, seed: u64, plan: Plan) -> (Record, Recorder) {
    let mut record = measure(workload, seed, plan);
    let mut rec = Recorder::new(true);
    let round_seed = gen::round_seed(seed, 0);
    let mut traced = one_round(workload, plan.scale, round_seed, true, true, &mut rec);
    let plain_s = record.first_input_timed_s();
    let overhead = if workload.uses_engine() && plain_s > 0.0 {
        traced.timed_s / plain_s - 1.0
    } else {
        0.0
    };
    traced
        .layer
        .insert("telemetry.overhead_share".into(), overhead);
    record.layer = std::mem::take(&mut traced.layer);
    record.shape.extend(std::mem::take(&mut traced.shape));
    record.attempted += traced.attempted;
    record.failed += traced.failed;
    record.e2e.insert(
        "failed_share",
        record.failed as f64 / record.attempted.max(1) as f64,
    );
    (record, rec)
}

/// Runs this binary in a fresh child process and parses the record it prints
/// on the line before its last (the last is the `BENCHMARK.json` line).
fn run_child(workload: Workload, seed: u64, plan: Plan, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &plan.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if plan.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("child printed no record ({})", output.status))
        .and_then(Json::parse)?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: child exited with {}",
            workload.name(),
            output.status
        ));
    }
    Ok(record)
}

/// `metric -> values` per workload, over every record of a set.
type Readings = BTreeMap<Workload, BTreeMap<String, Vec<f64>>>;

/// Every workload (in `order`) × seed × repeat, each in its own process;
/// the readings are added to `readings`.
fn run_set(
    order: &[Workload],
    seeds: &[u64],
    repeats: usize,
    plan: Plan,
    records: &mut Vec<Json>,
    readings: &mut Readings,
) -> Result<(), String> {
    for &workload in order {
        for &seed in seeds {
            for _ in 0..repeats {
                let record = run_child(workload, seed, plan, false)?;
                let metrics = record
                    .get("end_to_end")
                    .and_then(Json::as_obj)
                    .ok_or("record without end_to_end")?;
                for (name, value) in metrics {
                    readings
                        .entry(workload)
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value.as_f64().unwrap_or(f64::NAN));
                }
                records.push(record);
            }
        }
    }
    Ok(())
}

/// `median [q1 .. q3] spread`, the quartiles left out for a single value.
/// The spread is the interquartile range as a share of the median: what a
/// metric's bound has to stay above for a regression to be resolvable.
fn summary(values: &[f64]) -> String {
    let median = stats::median(values);
    match (stats::quartiles(values), stats::iqr_share(values)) {
        (Some((q1, q3)), Some(spread)) => {
            format!("{median:.6} [{q1:.6} .. {q3:.6}] {:.1} %", 100.0 * spread)
        }
        _ => format!("{median:.6}"),
    }
}

fn aggregate_json(readings: &Readings) -> Json {
    Json::obj(readings.iter().map(|(workload, metrics)| {
        (
            workload.name(),
            Json::obj(metrics.iter().map(|(name, values)| {
                let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
                (
                    name.clone(),
                    Json::obj([
                        ("median", Json::Num(stats::median(values))),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("n", Json::Num(values.len() as f64)),
                    ]),
                )
            })),
        )
    }))
}

/// `run --all`: one set, printed as a table and optionally written as JSON.
pub fn run_all(
    seeds: &[u64],
    repeats: usize,
    plan: Plan,
    json_out: Option<&str>,
) -> Result<(), String> {
    let mut records = Vec::new();
    let mut readings = Readings::new();
    run_set(
        &Workload::ALL,
        seeds,
        repeats,
        plan,
        &mut records,
        &mut readings,
    )?;
    println!(
        "{:<18} {:<22} {:<10} median [q1 .. q3] spread, over {} run(s)",
        "workload",
        "metric",
        "unit",
        seeds.len() * repeats
    );
    for (workload, metrics) in &readings {
        for metric in dict::END_TO_END {
            if let Some(values) = metrics.get(metric.name) {
                println!(
                    "{:<18} {:<22} {:<10} {}",
                    workload.name(),
                    metric.name,
                    metric.unit,
                    summary(values)
                );
            }
        }
    }
    if let Some(path) = json_out {
        let doc = Json::obj([
            ("host", host::describe()),
            (
                "seeds",
                Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
            ),
            ("repeats", Json::Num(repeats as f64)),
            ("seconds", Json::Num(plan.seconds as f64)),
            ("summary", aggregate_json(&readings)),
            ("records", Json::Arr(records.clone())),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let failed: f64 = records
        .iter()
        .filter_map(|r| r.get("failed").and_then(Json::as_f64))
        .sum();
    if failed > 0.0 {
        return Err(format!("{failed} operations or checks failed"));
    }
    Ok(())
}

/// How far `b` is from `a` in the direction that is worse, as a share of
/// `a`; negative when `b` is the better reading.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The exact per-layer counts of a traced run of `workload` on `seed`.
fn traced_counts(workload: Workload, seed: u64, plan: Plan) -> Result<Vec<f64>, String> {
    // Counts do not depend on how long the run measures: the shortest will do.
    let plan = Plan { seconds: 0, ..plan };
    let record = run_child(workload, seed, plan, true)?;
    let layer = record.get("per_layer").ok_or("record without per_layer")?;
    // A layer the workload does not have counts nothing.
    Ok(dict::EXACT_LAYER_COUNTS
        .iter()
        .map(|name| layer.get(name).and_then(Json::as_f64).unwrap_or(0.0))
        .collect())
}

/// `aa`: two complete sets of the same binary, set A walking the workloads
/// forward and set B backward.  The sets are interleaved seed by seed (A's
/// pass over seed 1, B's pass over seed 1, A's over seed 2, …) so that a
/// slow drift of the machine lands on both.  Passes when, for every
/// end-to-end metric of every workload, the two sets' medians agree within
/// the metric's own bound (in both directions), and every exact count — end
/// to end, and per layer from one traced run per workload and set — reads
/// the same.
pub fn aa(seeds: &[u64], repeats: usize, plan: Plan) -> Result<(), String> {
    if seeds.is_empty() {
        return Err("aa needs at least one seed".to_string());
    }
    let mut records = Vec::new();
    let forward = Workload::ALL;
    let mut backward = forward;
    backward.reverse();
    let orders = [forward, backward];
    let mut sets = [Readings::new(), Readings::new()];
    let mut counts = [BTreeMap::new(), BTreeMap::new()];
    for (i, &seed) in seeds.iter().enumerate() {
        for ((order, readings), counts) in orders.iter().zip(&mut sets).zip(&mut counts) {
            run_set(order, &[seed], repeats, plan, &mut records, readings)?;
            if i == 0 {
                for &workload in order {
                    counts.insert(workload, traced_counts(workload, seed, plan)?);
                }
            }
        }
    }
    let (first, second) = (&sets[0], &sets[1]);
    let mut disagreements = 0;
    println!("| workload | metric | set A median | set B median | difference | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        for metric in dict::END_TO_END {
            let (Some(a), Some(b)) = (
                first.get(&workload).and_then(|m| m.get(metric.name)),
                second.get(&workload).and_then(|m| m.get(metric.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (stats::median(a), stats::median(b));
            let agrees = if metric.exact {
                a == b
            } else {
                worsening(ma, mb, metric.better).abs() <= metric.bound
            };
            disagreements += !agrees as usize;
            println!(
                "| {} | {} | {:.6} | {:.6} | {:+.2} % | {} | {} |",
                workload.name(),
                metric.name,
                ma,
                mb,
                100.0 * worsening(ma, mb, metric.better),
                if metric.exact {
                    "identical".to_string()
                } else {
                    format!("{:.0} %", 100.0 * metric.bound)
                },
                if agrees { "ok" } else { "DISAGREE" }
            );
        }
    }
    for workload in Workload::ALL {
        for (i, name) in dict::EXACT_LAYER_COUNTS.iter().enumerate() {
            let (a, b) = (counts[0][&workload][i], counts[1][&workload][i]);
            disagreements += (a != b) as usize;
            println!(
                "| {} | {name} | {a} | {b} | | identical | {} |",
                workload.name(),
                if a == b { "ok" } else { "DISAGREE" }
            );
        }
    }
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} metric(s) differ between two runs of the same code"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_pass_fills_the_budget_and_later_passes_repeat_it() {
        let order = |budget: f64, repeats: usize, round_s: f64| {
            let mut order = Vec::new();
            passes(budget, repeats, |input| {
                order.push(input);
                round_s
            });
            order
        };
        // 10 s in thirds, 1.8 s a round: two inputs, three times each.
        assert_eq!(order(10.0 / 3.0, 3, 1.8), [0, 1, 0, 1, 0, 1]);
        assert_eq!(order(10.0 / 3.0, 3, 5.0), [0, 0, 0]);
        // No budget, one repeat (smoke): one round.
        assert_eq!(order(0.0, 1, 0.2), [0]);
    }

    /// The call-by-call fold rests on this: a repeat of an input makes the
    /// same calls in the same order.
    #[test]
    fn repeats_of_one_input_are_cut_alike() {
        for workload in Workload::ALL {
            let mut rec = Recorder::new(false);
            let mut round = || one_round(workload, Scale::Smoke, 11, false, false, &mut rec);
            let (first, second) = (round(), round());
            assert!(!first.segments.is_empty() && !first.setup_segments.is_empty());
            assert_eq!(first.segments.len(), second.segments.len());
            assert_eq!(first.setup_segments.len(), second.setup_segments.len());
            let sum: f64 = first.segments.iter().sum();
            assert!((first.timed_s - sum).abs() <= 1e-12 * sum);
        }
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
