//! # clude-bench
//!
//! Benchmark harness reproducing the evaluation of the CLUDE paper (EDBT
//! 2014).  Every figure of §6/§7 has a binary in `src/bin/` that prints the
//! figure's series (run with
//! `cargo run -p clude-bench --release --bin figXX_...`); kernel and
//! end-to-end timings come from the `clude_perf` binary.
//!
//! The shared machinery lives here: bench-scale dataset configurations
//! ([`datasets`]) and the experiment drivers ([`experiments`]) that produce
//! the numbers the binaries print and `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;

pub use datasets::{BenchScale, Datasets};
pub use experiments::{
    alpha_sweep, beta_sweep, delta_e_sweep, inc_quality_series, AlphaPoint, BetaPoint, DeltaEPoint,
};
