//! What the run ran on: recorded in every output record so a number never
//! travels without its machine.

use crate::json::Json;
use std::process::Command;

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|line| line.trim().to_string())
        })
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The value of `key` in a `/proc` file of `key: value` lines.
fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// Cores, CPU model, commit and compiler of this run.
pub fn describe() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    Json::obj([
        ("cores", Json::Num(cores as f64)),
        (
            "cpu",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.  Zero where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
