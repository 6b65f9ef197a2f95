//! # clude-measures
//!
//! Graph structural measures over evolving graph sequences, answered through
//! the LU factors produced by the `clude` solvers.
//!
//! The paper's premise (§1) is that PageRank, SALSA, personalised PageRank,
//! random walk with restart and discounted hitting time all reduce to linear
//! systems `A x = b` whose matrix depends only on the snapshot graph.  Once a
//! LUDEM solver has decomposed the whole sequence, any of these measures can
//! be evaluated at any snapshot by a pair of triangular substitutions —
//! orders of magnitude cheaper than re-running Gaussian elimination, power
//! iteration or Monte-Carlo simulation per query.
//!
//! * [`measures`] — PageRank, RWR, multi-seed PPR, damped SALSA, DHT;
//! * [`series`] — time series of measures over a whole EGS (Figures 1 & 11);
//! * [`power_iteration`] / [`monte_carlo`] — the approximate baselines the
//!   paper compares against in §8;
//! * [`linear_system`] — right-hand-side builders shared by all of the above.

#![forbid(unsafe_code)]
// Indexed loops mirror the paper's matrix notation throughout this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod linear_system;
pub mod measures;
pub mod monte_carlo;
pub mod power_iteration;
pub mod query;
pub mod series;

pub use linear_system::DEFAULT_DAMPING;
pub use measures::{
    discounted_hitting_time, group_proximity, hitting_time, pagerank, personalized_pagerank, rwr,
    salsa, SalsaScores,
};
pub use monte_carlo::{rwr_monte_carlo, MonteCarloResult};
pub use power_iteration::{
    pagerank_power_iteration, rwr_power_iteration, solve_power_iteration, PowerIterationResult,
};
pub use query::{evaluate_query_with, measure_rhs, MeasureQuery, MeasureSolver};
pub use series::MeasureSeries;
