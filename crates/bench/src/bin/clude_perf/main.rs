//! `clude_perf`: the repository's benchmark — six workloads over the batch
//! LUDEM solver and the streaming engine, end-to-end and per-layer metrics,
//! every answer checked.  See `README.md` next to this file.
//!
//! ```text
//! clude_perf [run|trace] --workload W --seed N [--seconds S] [--trace 0|1] [--smoke]
//! clude_perf run --all [--seeds 11,12,13] [--repeats N] [--seconds S] [--smoke] [--json-out FILE]
//! clude_perf aa [--seeds 11,12,13] [--repeats 2] [--seconds S] [--smoke]
//! clude_perf list [--json]
//! ```
//!
//! The first form is one run (`trace` is `--trace 1`, `run` and no command
//! are `--trace 0`), and the one `BENCHMARK.json` names.  It prints the
//! report, then the whole record as one JSON line, then — last — the line
//! `BENCHMARK.json`'s driver reads: the universal end-to-end metrics
//! (`--trace 0`) or the per-layer table (`--trace 1`).

#![forbid(unsafe_code)]
// CLI tool: printing the report is its entire purpose.
#![allow(clippy::print_stdout, clippy::print_stderr)]

mod dict;
mod egs;
mod engine;
mod fsclock;
mod gen;
mod host;
mod json;
mod oracle;
mod probes;
mod round;
mod runner;
mod spans;
mod stats;

use dict::Workload;
use gen::Scale;
use runner::Plan;
use std::process::ExitCode;

/// Seconds a run measures unless told otherwise (`BENCHMARK.json` passes its
/// own `run_seconds`).
const DEFAULT_SECONDS: u64 = dict::RUN_SECONDS;
/// Seeds of `run --all` and `aa`.  Seed 97 is held out: a PR that claims a
/// gain shows it there too, and nobody tunes on it.
const DEFAULT_SEEDS: [u64; 3] = [11, 12, 13];

/// The parsed command line: an optional leading subcommand, then flags.
#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seeds: Option<Vec<u64>>,
    seconds: Option<u64>,
    repeats: Option<usize>,
    trace: Option<u8>,
    json_out: Option<String>,
    all: bool,
    smoke: bool,
    json: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.into_iter().peekable();
    if raw.peek().is_some_and(|first| !first.starts_with("--")) {
        args.command = raw.next();
    }
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        value
            .as_deref()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    }
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(raw.next().ok_or("--workload needs a name")?);
            }
            "--seed" => args.seed = Some(number(&flag, raw.next())?),
            "--seconds" => args.seconds = Some(number(&flag, raw.next())?),
            "--repeats" => args.repeats = Some(number(&flag, raw.next())?),
            "--trace" => args.trace = Some(number(&flag, raw.next())?),
            "--seeds" => {
                let list = raw.next().ok_or("--seeds needs a comma-separated list")?;
                let seeds: Result<Vec<u64>, _> = list.split(',').map(str::parse).collect();
                args.seeds = Some(seeds.map_err(|_| "--seeds needs numbers".to_string())?);
            }
            "--json-out" => args.json_out = Some(raw.next().ok_or("--json-out needs a path")?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

impl Args {
    fn plan(&self) -> Plan {
        Plan {
            seconds: self.seconds.unwrap_or(DEFAULT_SECONDS),
            scale: if self.smoke {
                Scale::Smoke
            } else {
                Scale::Full
            },
        }
    }

    fn one_workload(&self) -> Result<(Workload, u64), String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        let workload = Workload::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })?;
        Ok((workload, self.seed.ok_or("--seed is required")?))
    }

    fn repeats(&self) -> usize {
        self.repeats.unwrap_or(1).max(1)
    }

    fn seed_set(&self) -> Vec<u64> {
        self.seeds.clone().unwrap_or_else(|| DEFAULT_SEEDS.to_vec())
    }
}

/// One run of one workload, in this process.
fn single(args: &Args) -> Result<bool, String> {
    let (workload, seed) = args.one_workload()?;
    let traced = match (args.command.as_deref(), args.trace) {
        (Some("trace"), None | Some(1)) | (_, Some(1)) => true,
        (_, None | Some(0)) => false,
        (_, Some(other)) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let record = if traced {
        let (record, rec) = runner::measure_traced(workload, seed, args.plan());
        print_record(&record);
        println!("\nper-layer table ({} seed {seed}):", workload.name());
        for (name, unit, _) in dict::traced_names() {
            if let Some(value) = record.layer.get(&name) {
                println!("  {name:<34} {value:>16.6} {unit}");
            }
        }
        println!("\nbenchmark spans (count, total, self):");
        for (name, (count, total, own)) in rec.summary() {
            println!(
                "  {name:<34} {count:>8} {:>12.6} s {:>12.6} s",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        let path = format!("trace-{}.json", workload.name());
        std::fs::write(&path, rec.to_json(workload.name(), seed).render() + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("\nwrote {path} ({} spans)", rec.len());
        record
    } else {
        let record = runner::measure(workload, seed, args.plan());
        print_record(&record);
        record
    };
    // The record, for `run --all` and `aa`; then the driver's line, last.
    println!("{}", record.full_json(&host::describe()).render());
    println!("{}", record.contract_json(traced).render());
    Ok(record.correct())
}

fn print_record(record: &round::Record) {
    println!(
        "{} seed {}: {} input(s) in {} round(s), {} attempted, {} failed",
        record.workload.name(),
        record.seed,
        record.inputs,
        record.rounds,
        record.attempted,
        record.failed
    );
    for metric in dict::END_TO_END {
        let Some(value) = record.e2e.get(metric.name) else {
            continue;
        };
        let note = record.tails.get(metric.name).map_or(String::new(), |t| {
            format!("  (p{} of {} samples)", t.percentile, t.samples)
        });
        println!("  {:<24} {value:>16.6} {}{note}", metric.name, metric.unit);
    }
    let shape: Vec<String> = record
        .shape
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("  shape: {}", shape.join(", "));
    if !record.cut_alike {
        println!("  repeats of one input made unlike calls: timed_s compares whole rounds");
    }
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<18} {}", w.name(), w.why());
    }
    println!("\nend-to-end metrics (name, unit, better, bound, workloads):");
    for m in dict::END_TO_END {
        let on: Vec<&str> = m.workloads.iter().map(|w| w.name()).collect();
        println!(
            "  {:<22} {:<10} {:<7} {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.name(),
            100.0 * m.bound,
            if on.len() == Workload::ALL.len() {
                "all".to_string()
            } else {
                on.join(", ")
            }
        );
        println!("      {}", m.what);
    }
    println!("\nper-layer metrics (name, unit, better, layer, should move):");
    for (stage, layer, moves) in dict::STAGES {
        println!(
            "  {:<34} {:<10} {:<7} {:<20} {moves}",
            format!("stage.{stage}.busy_s / .count"),
            "s / count",
            "lower",
            layer
        );
    }
    for m in dict::PER_LAYER {
        println!(
            "  {:<34} {:<10} {:<7} {:<20} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.layer,
            m.moves
        );
    }
}

fn main() -> ExitCode {
    let outcome =
        parse_args(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            Some("run") if args.all => runner::run_all(
                &args.seed_set(),
                args.repeats(),
                args.plan(),
                args.json_out.as_deref(),
            )
            .map(|()| true),
            None | Some("run" | "trace") => single(&args),
            // Two runs per seed and set: one does not hold a 10 % bound on a
            // 2-vCPU sandbox (README, "Baseline and A/A").
            Some("aa") => runner::aa(
                &args.seed_set(),
                args.repeats.unwrap_or(2).max(1),
                args.plan(),
            )
            .map(|()| true),
            Some("list") => {
                if args.json {
                    println!("{}", dict::benchmark_json().render());
                } else {
                    list();
                }
                Ok(true)
            }
            Some(other) => Err(format!(
                "unknown command {other:?} (run, trace, aa, list, or no command with --workload)"
            )),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("clude_perf: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("clude_perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn args(line: &str) -> Args {
        parse_args(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn command_line_forms_parse() {
        let a = args("--workload live-mono --seed 3 --seconds 5 --trace 1");
        assert_eq!(a.command, None);
        assert_eq!(a.one_workload().unwrap(), (Workload::LiveMono, 3));
        assert_eq!((a.plan().seconds, a.trace), (5, Some(1)));
        assert_eq!(args("trace --workload live-mono --seed 3").repeats(), 1);
        let a = args("run --all --seeds 1,2 --repeats 2 --smoke --json-out x.json");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert!(a.all && a.smoke && a.repeats() == 2);
        assert_eq!(a.seed_set(), vec![1, 2]);
        assert_eq!(args("aa").seed_set(), DEFAULT_SEEDS.to_vec());
        assert!(parse_args(["--bogus".to_string()]).is_err());
        assert!(args("--workload nope --seed 1").one_workload().is_err());
    }

    /// Every workload at smoke scale, untraced and traced (a traced run makes
    /// both passes): every phase, every check and the JSON writer, against
    /// every name `list` prints.
    #[test]
    fn smoke_runs_are_correct_and_report_every_listed_metric() {
        for workload in Workload::ALL {
            let smoke = Plan {
                seconds: 0,
                scale: Scale::Smoke,
            };
            let (record, rec) = runner::measure_traced(workload, 11, smoke);
            assert!(record.correct(), "{}: {record:?}", workload.name());
            assert!(rec.len() > 0);
            let full = Json::parse(&record.full_json(&host::describe()).render()).unwrap();
            let reported = full.get("end_to_end").and_then(Json::as_obj).unwrap();
            for metric in dict::END_TO_END {
                assert_eq!(
                    reported.contains_key(metric.name),
                    metric.workloads.contains(&workload),
                    "{} on {}",
                    metric.name,
                    workload.name()
                );
            }
            let line = Json::parse(&record.contract_json(false).render()).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), dict::UNIVERSAL.len());
            for universal in dict::UNIVERSAL {
                let value = metrics[*universal].get("value").and_then(Json::as_f64);
                assert!(value.unwrap() > 0.0, "{universal} on {}", workload.name());
            }

            // The batch solver's own breakdown is measured on egs-clude
            // alone; everything else on every engine workload, of which the
            // batch workload shares the sparse and LU probes.
            let batch_only = |n: &str| n.starts_with("core.") && n != "core.partition_us";
            for (name, _, _) in dict::traced_names() {
                if dict::end_to_end(&name).is_some() {
                    continue;
                }
                let expected = if workload.uses_engine() {
                    !batch_only(&name)
                } else {
                    batch_only(&name)
                        || name.starts_with("sparse.")
                        || name.starts_with("lu.")
                        || name == "telemetry.overhead_share"
                };
                assert_eq!(
                    record.layer.contains_key(&name),
                    expected,
                    "{name} on {}",
                    workload.name()
                );
            }
            let line = record.contract_json(true);
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), dict::traced_names().len());
        }
    }
}
