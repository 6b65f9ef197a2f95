//! Pluggable solvers for the cross-shard coupling of sharded snapshots.
//!
//! A sharded [`EngineSnapshot`] holds per-shard factors of
//! `B = blockdiag(A_ss)` plus the frozen cross-shard coupling `C`, and every
//! query must solve `(B + C) x = b` *exactly* (to the block tolerance, well
//! under the engine's 1e-9 equivalence bar).  How much that costs depends
//! entirely on how dense `C` is — which is why the strategy is pluggable:
//!
//! * [`CouplingSolver::GaussSeidel`] — the fixed point `x ← B⁻¹(b − C·x)`
//!   swept shard by shard: each shard's solve inside a sweep already uses
//!   the solutions of the shards updated before it, traversed in an order
//!   derived from the coupling's shard-to-shard dependency weights
//!   ([`CouplingPlan::gs_order`]); sweeps are proportional to
//!   `1/log(1/ρ)` digits.
//! * [`CouplingSolver::Woodbury`] — capture the `k` hottest coupling columns
//!   into a cached low-rank correction (`clude_lu::lowrank`) at
//!   snapshot-freeze time; a solve is then one block pass plus one `k×k`
//!   dense substitution, with sweeps only over the (cold) remainder columns
//!   — and none at all when the correction captured the whole coupling.
//!
//! Both strategies converge to the same solution: the splitting
//! `A = M − N` behind each of them is regular for the engine's column-wise
//! strictly diagonally dominant M-matrices (`I − d·W`, shifted Laplacians),
//! so the fixed point is the exact solve and the strategies differ only in
//! how fast they reach it.  A store without coupling — one shard, or shards
//! no edge crosses — never iterates: its solve is one pass of substitutions
//! (see `solve_systems`).  The per-snapshot metadata each strategy needs —
//! the Gauss–Seidel traversal order and the Woodbury correction — is frozen
//! into a shared [`CouplingPlan`] that the copy-on-write snapshot ring
//! shares exactly like factor blocks.

use crate::store::{EngineSnapshot, ShardSnapshot};
use clude::DecomposedMatrix;
use clude_graph::NodePartition;
use clude_lu::{CorrectionScratch, LowRankCorrection, LuError, LuResult, PanelScratch};
use clude_sparse::CsrMatrix;
use clude_telemetry::{Counter, EngineEvent, Stage};
use std::collections::BTreeSet;

/// Which strategy combines the per-shard block solves with the cross-shard
/// coupling at query time.  Selected per snapshot: the store stamps its
/// configured strategy onto every snapshot it publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingSolver {
    /// Block Gauss–Seidel: within one sweep each shard solve sees the
    /// just-updated solutions of the shards traversed before it, in the
    /// dependency-weight order cached in the snapshot's [`CouplingPlan`].
    GaussSeidel,
    /// Cached Woodbury correction over the `max_rank` hottest coupling
    /// columns; the cold remainder (if any) is iterated Gauss–Seidel-style
    /// through the corrected operator, which contracts far faster than the
    /// full coupling.
    Woodbury {
        /// Maximum number of coupling columns the cached correction may
        /// capture.  Each captured column costs one dense length-`n` vector
        /// of memory and one block solve whenever the correction is rebuilt
        /// (coupling changed, or a shard it depends on re-froze).
        max_rank: usize,
    },
}

impl CouplingSolver {
    /// Default capture budget of [`CouplingSolver::woodbury`].
    ///
    /// Sized to capture the *whole* coupling of typical partitioned streams
    /// (cross columns at the engine's benchmark scale number in the low
    /// hundreds), because a full capture is what makes solves direct — a
    /// rank-starved correction still answers exactly but has to iterate
    /// over its remainder, which can cost more per sweep than plain
    /// Gauss–Seidel.  Lower it when the dense `n × k` cached `Z` would not
    /// fit memory at your universe size.
    pub const DEFAULT_WOODBURY_RANK: usize = 512;

    /// The Woodbury strategy with the default capture budget.
    pub fn woodbury() -> Self {
        CouplingSolver::Woodbury {
            max_rank: Self::DEFAULT_WOODBURY_RANK,
        }
    }

    /// Short display name for stats, logs and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            CouplingSolver::GaussSeidel => "gauss-seidel",
            CouplingSolver::Woodbury { .. } => "woodbury",
        }
    }
}

impl Default for CouplingSolver {
    /// Gauss–Seidel: free of the Woodbury strategy's freeze-time rebuild
    /// cost.
    fn default() -> Self {
        CouplingSolver::GaussSeidel
    }
}

/// Stopping rule of the iterative coupling solves: a relative
/// iterate-change tolerance plus a hard sweep budget.
///
/// Because the engine's block splittings contract strictly, an iterate
/// change of `tol` bounds the remaining error by `tol·ρ/(1−ρ)`: under the
/// 1e-9 equivalence bar by three decades at ρ = 0.99 and still by one
/// decade at ρ = 0.999.  When the change stops shrinking while already
/// below twice `tol`, rounding noise dominates and the iterate is accepted
/// as converged (the f64 floor); anything that exhausts `max_sweeps`
/// instead fails loudly with [`LuError::ConvergenceFailure`] rather than
/// serving a drifted answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveTolerance {
    /// Relative iterate-change tolerance.
    pub tol: f64,
    /// Hard sweep budget; a damping factor of 0.9997 still reaches the
    /// default `tol` within ~100k sweeps, and anything slower stagnates at
    /// the f64 floor first.
    pub max_sweeps: usize,
}

impl SolveTolerance {
    /// Floor-stagnation acceptance threshold, kept within 2× of `tol` so
    /// the error bound stays under the 1e-9 bar for every contraction rate
    /// reachable inside `max_sweeps`.
    fn stagnation(&self) -> f64 {
        2.0 * self.tol
    }

    fn accepted(&self, diff: f64, scale: f64, last_diff: f64) -> bool {
        // Deliberately *not* combined with an observed-contraction early
        // exit: the instantaneous ∞-norm ratio oscillates for nonsymmetric
        // couplings and any finite sample can under-estimate the rate.  The
        // `diff >= last_diff` guard keeps a transient non-monotone step
        // early in the iteration from exiting prematurely.
        diff <= self.tol * scale || (diff >= last_diff && diff <= self.stagnation() * scale)
    }
}

impl Default for SolveTolerance {
    fn default() -> Self {
        SolveTolerance {
            tol: 1e-13,
            max_sweeps: 100_000,
        }
    }
}

/// Everything the engine needs to know about coupled solves: the strategy,
/// its stopping rule, and when the sharded store should abandon its
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CouplingConfig {
    /// The combination strategy stamped onto published snapshots.
    pub solver: CouplingSolver,
    /// Stopping rule of the iterative strategies.
    pub tolerance: SolveTolerance,
    /// Adaptive re-partitioning: when the live coupling's entry count
    /// crosses this budget, the sharded store re-runs the edge-locality
    /// partition on the current graph and rebuilds its shards (amortized —
    /// after a re-partition the trigger backs off to twice the surviving
    /// coupling size until it falls under the budget again).  `None`
    /// disables re-partitioning.
    pub repartition_budget: Option<usize>,
}

/// The entries of one captured coupling column in the engine's Woodbury
/// correction: the [`LowRankCorrection`] itself, the cold remainder of the
/// coupling, and the shards whose frozen factors the cached `Z = B⁻¹U`
/// depends on.
#[derive(Debug)]
struct PlanCorrection {
    lowrank: LowRankCorrection,
    /// The coupling minus the captured columns — what the fixed-point
    /// iteration still has to sweep over (empty: solves are direct).
    rest: CsrMatrix,
    /// Shards where a captured column has support.  A batch that re-froze
    /// only other shards leaves the cached correction valid.
    support: BTreeSet<usize>,
}

/// Frozen per-snapshot solver metadata, shared through the copy-on-write
/// snapshot ring exactly like factor blocks: consecutive snapshots are
/// [`Arc::ptr_eq`](std::sync::Arc::ptr_eq) on their plan whenever neither
/// the coupling nor a shard the cached correction depends on changed.
#[derive(Debug)]
pub struct CouplingPlan {
    /// Gauss–Seidel shard traversal order, least-dependent shard first.
    gs_order: Vec<usize>,
    /// Whether the shard dependency digraph is acyclic and `gs_order` is a
    /// topological order of it — block triangular form.  When set, one
    /// Gauss–Seidel sweep in `gs_order` is the *exact* solve (every coupling
    /// entry a shard reads was updated earlier in the same sweep), so the
    /// iterative arms return after a single sweep and the Woodbury
    /// correction is never built.
    triangular: bool,
    correction: Option<PlanCorrection>,
}

impl CouplingPlan {
    /// Builds the plan for one frozen (partition, factor blocks, coupling)
    /// triple: always derives the Gauss–Seidel order, and for the Woodbury
    /// strategy also factors the hottest coupling columns into the cached
    /// correction (one block solve per captured column).
    pub(crate) fn build<D: AsRef<DecomposedMatrix>>(
        partition: &NodePartition,
        blocks: &[D],
        coupling: &CsrMatrix,
        solver: CouplingSolver,
    ) -> LuResult<Self> {
        let k = partition.n_shards();
        let (gs_order, triangular) = if k <= 1 || coupling.nnz() == 0 {
            // No coupling: vacuously triangular (never consulted — empty
            // couplings short-circuit before the iterative arms).
            ((0..k).collect(), true)
        } else {
            let w = shard_dependency_weights(k, partition, coupling);
            // Triangularity is detected from the *actual* frozen coupling, so
            // it never depends on where the partition came from: a BTF
            // partition gets its one-sweep guarantee verified here, and any
            // partition whose cross-structure happens to be acyclic gets the
            // same direct solve for free.
            match topological_shard_order(k, &w) {
                Some(topo) => (topo, true),
                None => (greedy_order_from_weights(k, &w), false),
            }
        };
        let correction = match solver {
            // A triangular coupling never builds the correction: one
            // Gauss–Seidel sweep is already the exact direct solve, cheaper
            // than a block pass plus the dense k×k substitution.
            CouplingSolver::Woodbury { max_rank } if coupling.nnz() > 0 && !triangular => {
                build_correction(partition, blocks, coupling, max_rank)?
            }
            _ => None,
        };
        Ok(CouplingPlan {
            gs_order,
            triangular,
            correction,
        })
    }

    /// The Gauss–Seidel shard traversal order.
    pub fn gs_order(&self) -> &[usize] {
        &self.gs_order
    }

    /// Whether the cross-shard structure is block triangular under
    /// `gs_order` — when true, Gauss–Seidel solves are direct (one sweep,
    /// exact).
    pub fn is_triangular(&self) -> bool {
        self.triangular
    }

    /// Rank of the cached Woodbury correction (`None` when the plan carries
    /// no correction — empty coupling, non-Woodbury strategy, or the
    /// defensive singular-Schur fallback).
    pub fn correction_rank(&self) -> Option<usize> {
        self.correction.as_ref().map(|c| c.lowrank.rank())
    }

    /// Coupling entries the cached correction did *not* capture (0 when a
    /// correction exists and covers the whole coupling).
    pub fn correction_rest_nnz(&self) -> Option<usize> {
        self.correction.as_ref().map(|c| c.rest.nnz())
    }

    /// Whether the cached correction depends on shard `s`'s frozen factors.
    /// Re-freezing a shard outside this set keeps the plan shareable.
    pub(crate) fn depends_on_shard(&self, s: usize) -> bool {
        self.correction
            .as_ref()
            .is_some_and(|c| c.support.contains(&s))
    }

    /// Rough resident size in bytes (the dense `Z` of the correction
    /// dominates), for the engine's snapshot-ring memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.gs_order.len() * std::mem::size_of::<usize>()
            + self.correction.as_ref().map_or(0, |c| {
                c.lowrank.approx_bytes() + c.rest.nnz() * 16 + c.support.len() * 8
            })
    }
}

/// Reused buffers of one coupled solve: the gathered per-shard right-hand
/// side panel, the recovered per-shard solution panel, the triangular panel
/// scratch underneath, and the Woodbury correction scratch.  Allocated once
/// per query; every sweep after the first reuses the grown capacity.
#[derive(Debug, Default)]
pub(crate) struct PanelBlockScratch {
    local_rhs: Vec<f64>,
    local_x: Vec<f64>,
    lu: PanelScratch,
    correction: CorrectionScratch,
}

/// One pass of `B⁻¹` over `n_rhs` right-hand sides stacked column-major in
/// `rhs`: every block solves its restriction of the panel and scatters the
/// local solutions into `out`, each shard's factors traversed **once** for
/// the whole panel.  Per panel column the arithmetic does not depend on the
/// panel's width, so every stripe of `out` is bit-identical to the same
/// pass at width 1.
pub(crate) fn solve_blocks_many<D: AsRef<DecomposedMatrix>>(
    partition: &NodePartition,
    blocks: &[D],
    rhs: &[f64],
    n_rhs: usize,
    out: &mut [f64],
    scratch: &mut PanelBlockScratch,
) -> LuResult<()> {
    if n_rhs == 0 {
        return Ok(());
    }
    let n = rhs.len() / n_rhs;
    for (s, block) in blocks.iter().enumerate() {
        let nodes = partition.nodes_of(s);
        scratch.local_rhs.clear();
        for c in 0..n_rhs {
            let stripe = &rhs[c * n..(c + 1) * n];
            scratch.local_rhs.extend(nodes.iter().map(|&g| stripe[g]));
        }
        block.as_ref().solve_many_into(
            &scratch.local_rhs,
            n_rhs,
            &mut scratch.lu,
            &mut scratch.local_x,
        )?;
        let m = nodes.len();
        for c in 0..n_rhs {
            let local = &scratch.local_x[c * m..(c + 1) * m];
            let stripe = &mut out[c * n..(c + 1) * n];
            for (l, &g) in nodes.iter().enumerate() {
                stripe[g] = local[l];
            }
        }
    }
    Ok(())
}

/// Solves `A x = b` for a snapshot's full measure matrix
/// `A = blockdiag(A_ss) + C` and `n_rhs` right-hand sides stacked
/// column-major in `b`, one factor traversal per block pass for the whole
/// panel.  A single right-hand side is a width-1 panel (the scalar-kernel
/// choice lives in `clude_lu::solve_original_many_into`, nowhere else).
///
/// Fast paths first: a single shard without coupling is one pair of
/// substitutions, and fully decoupled shards need exactly one block pass.
/// Everything else goes through the snapshot's [`CouplingSolver`]; a
/// Woodbury snapshot whose plan carries no correction (triangular coupling,
/// or the defensive singular-Schur fallback) runs Gauss–Seidel.
///
/// Every stripe of the result is **bit-identical** to a width-1 call on
/// that stripe: the direct arms reuse the panel kernels' per-column
/// bit-identity, and the iterative arms run a joint sweep loop in which each
/// column carries its own convergence state and is frozen the moment its
/// own acceptance test passes — so per column the sweep count, every
/// intermediate iterate, and the final answer do not depend on which other
/// columns share the panel.  A convergence or pivot failure on any column
/// fails the whole panel (the batcher reports it to every member).
pub(crate) fn solve_systems(snap: &EngineSnapshot, b: &[f64], n_rhs: usize) -> LuResult<Vec<f64>> {
    let n = snap.n_nodes();
    if b.len() != n * n_rhs {
        return Err(LuError::DimensionMismatch {
            expected: n * n_rhs,
            actual: b.len(),
        });
    }
    if n_rhs == 0 {
        return Ok(Vec::new());
    }
    let shards = snap.shards();
    let coupling = snap.coupling();
    if shards.len() == 1 && coupling.nnz() == 0 {
        let mut scratch = PanelScratch::new();
        let mut x = Vec::new();
        shards[0]
            .decomposed()
            .solve_many_into(b, n_rhs, &mut scratch, &mut x)?;
        return Ok(x);
    }
    let partition = snap.partition();
    let mut scratch = PanelBlockScratch::default();
    if coupling.nnz() == 0 {
        let mut x = vec![0.0; n * n_rhs];
        solve_blocks_many(partition, shards, b, n_rhs, &mut x, &mut scratch)?;
        return Ok(x);
    }
    let tolerance = snap.tolerance();
    let telemetry = snap.telemetry();
    let result = match snap.solver() {
        CouplingSolver::GaussSeidel => {
            let _span = telemetry.span(Stage::CouplingGaussSeidel);
            gauss_seidel_many(snap, b, n_rhs, &mut scratch)
        }
        CouplingSolver::Woodbury { .. } => match &snap.coupling_plan().correction {
            Some(c) if c.rest.nnz() == 0 => {
                // The correction captured the whole coupling: one block pass
                // plus one k×k dense substitution is the exact solve.
                let _span = telemetry.span(Stage::CouplingWoodburyApply);
                let mut x = vec![0.0; n * n_rhs];
                solve_blocks_many(partition, shards, b, n_rhs, &mut x, &mut scratch)?;
                for col in 0..n_rhs {
                    c.lowrank
                        .apply_into(&mut x[col * n..(col + 1) * n], &mut scratch.correction)?;
                }
                Ok(x)
            }
            Some(c) => {
                let _span = telemetry.span(Stage::CouplingWoodburyApply);
                fixed_point_many(n, b, n_rhs, &c.rest, tolerance, |rhs, out| {
                    solve_blocks_many(partition, shards, rhs, n_rhs, out, &mut scratch)?;
                    for col in 0..n_rhs {
                        c.lowrank.apply_into(
                            &mut out[col * n..(col + 1) * n],
                            &mut scratch.correction,
                        )?;
                    }
                    Ok(())
                })
            }
            None => {
                let _span = telemetry.span(Stage::CouplingGaussSeidel);
                gauss_seidel_many(snap, b, n_rhs, &mut scratch)
            }
        },
    };
    if let Err(LuError::ConvergenceFailure {
        iterations,
        last_diff,
    }) = &result
    {
        // Journalled, not just surfaced as an `Err`: a caller that retries or
        // falls back would otherwise leave no trace of the failed solve.
        telemetry.incr(Counter::ConvergenceFailures);
        telemetry.record_event(EngineEvent::ConvergenceFailure {
            sweeps: *iterations as u64,
            residual: *last_diff,
        });
    }
    result
}

/// Fixed-point iteration `x ← M⁻¹(b − R·x)` over a panel, with
/// `apply_inverse` as `M⁻¹` and `residual` as `R` — the Woodbury remainder
/// iteration (`M = B + C_hot`, `R = C_rest`).  The columns of the panel
/// iterate jointly — one residual pass and one `apply_inverse` panel pass
/// per sweep, all through reused buffers — but each column keeps its own
/// `last_diff` and is **frozen** (its `x` stripe no longer written) the
/// moment its own acceptance test passes.  Because the columns of a
/// fixed-point iteration are arithmetically independent, each column's
/// iterate sequence while active is exactly its width-1 sequence, so the
/// converged stripes are bit-identical to width-1 solves.  Frozen columns
/// still ride along in the panel passes (the width is fixed); their results
/// are discarded.
fn fixed_point_many<F>(
    n: usize,
    b: &[f64],
    n_rhs: usize,
    residual: &CsrMatrix,
    tolerance: SolveTolerance,
    mut apply_inverse: F,
) -> LuResult<Vec<f64>>
where
    F: FnMut(&[f64], &mut [f64]) -> LuResult<()>,
{
    let mut x = vec![0.0; n * n_rhs];
    let mut next = vec![0.0; n * n_rhs];
    let mut rhs = vec![0.0; n * n_rhs];
    let mut last_diff = vec![f64::INFINITY; n_rhs];
    let mut done = vec![false; n_rhs];
    let mut n_done = 0usize;
    for _ in 0..tolerance.max_sweeps {
        rhs.copy_from_slice(b);
        for (i, j, v) in residual.iter() {
            for c in 0..n_rhs {
                if !done[c] {
                    rhs[c * n + i] -= v * x[c * n + j];
                }
            }
        }
        apply_inverse(&rhs, &mut next)?;
        for c in 0..n_rhs {
            if done[c] {
                continue;
            }
            let stripe = c * n..(c + 1) * n;
            let (diff, scale) = diff_and_scale(&next[stripe.clone()], &x[stripe.clone()]);
            x[stripe.clone()].copy_from_slice(&next[stripe]);
            if tolerance.accepted(diff, scale, last_diff[c]) {
                done[c] = true;
                n_done += 1;
            } else {
                last_diff[c] = diff;
            }
        }
        if n_done == n_rhs {
            return Ok(x);
        }
    }
    let worst = last_diff
        .iter()
        .zip(done.iter())
        .filter(|&(_, &d)| !d)
        .map(|(&l, _)| l)
        .fold(0.0f64, f64::max);
    Err(LuError::ConvergenceFailure {
        iterations: tolerance.max_sweeps,
        last_diff: worst,
    })
}

/// Block Gauss–Seidel over a panel: one sweep updates the shards in the
/// plan's dependency order, and each shard's right-hand side reads the
/// *current* iterate — so the shards updated earlier in the sweep already
/// contribute their new solutions.  Per sweep each shard gathers the coupled
/// right-hand sides of every column, runs **one** panel solve over its
/// factors, and scatters only the still-active columns — the same
/// per-column freeze discipline as [`fixed_point_many`], so per column the
/// arithmetic does not depend on the panel's width and converged stripes
/// are bit-identical to width-1 solves.
fn gauss_seidel_many(
    snap: &EngineSnapshot,
    b: &[f64],
    n_rhs: usize,
    scratch: &mut PanelBlockScratch,
) -> LuResult<Vec<f64>> {
    let partition = snap.partition();
    let shards = snap.shards();
    let coupling = snap.coupling();
    let tolerance = snap.tolerance();
    let plan = snap.coupling_plan();
    debug_assert_eq!(plan.gs_order.len(), shards.len());
    let n = snap.n_nodes();
    let mut x = vec![0.0; n * n_rhs];
    let mut prev = vec![0.0; n * n_rhs];
    let mut last_diff = vec![f64::INFINITY; n_rhs];
    let mut done = vec![false; n_rhs];
    let mut n_done = 0usize;
    for _ in 0..tolerance.max_sweeps {
        prev.copy_from_slice(&x);
        for &s in &plan.gs_order {
            let nodes = partition.nodes_of(s);
            scratch.local_rhs.clear();
            for c in 0..n_rhs {
                let xs = &x[c * n..(c + 1) * n];
                let bs = &b[c * n..(c + 1) * n];
                for &g in nodes {
                    let (cols, vals) = coupling.row(g);
                    let mut acc = bs[g];
                    for (&j, &v) in cols.iter().zip(vals.iter()) {
                        acc -= v * xs[j];
                    }
                    scratch.local_rhs.push(acc);
                }
            }
            shards[s].decomposed().solve_many_into(
                &scratch.local_rhs,
                n_rhs,
                &mut scratch.lu,
                &mut scratch.local_x,
            )?;
            let m = nodes.len();
            for c in 0..n_rhs {
                if done[c] {
                    continue;
                }
                let local = &scratch.local_x[c * m..(c + 1) * m];
                for (l, &g) in nodes.iter().enumerate() {
                    x[c * n + g] = local[l];
                }
            }
        }
        if plan.triangular {
            // Block triangular coupling: one sweep is exact for every column.
            return Ok(x);
        }
        for c in 0..n_rhs {
            if done[c] {
                continue;
            }
            let stripe = c * n..(c + 1) * n;
            let (diff, scale) = diff_and_scale(&x[stripe.clone()], &prev[stripe]);
            if tolerance.accepted(diff, scale, last_diff[c]) {
                done[c] = true;
                n_done += 1;
            } else {
                last_diff[c] = diff;
            }
        }
        if n_done == n_rhs {
            return Ok(x);
        }
    }
    let worst = last_diff
        .iter()
        .zip(done.iter())
        .filter(|&(_, &d)| !d)
        .map(|(&l, _)| l)
        .fold(0.0f64, f64::max);
    Err(LuError::ConvergenceFailure {
        iterations: tolerance.max_sweeps,
        last_diff: worst,
    })
}

/// ∞-norm iterate change and solution scale of one sweep.
fn diff_and_scale(new: &[f64], old: &[f64]) -> (f64, f64) {
    let mut diff = 0.0f64;
    let mut scale = 1.0f64;
    for (a, b) in new.iter().zip(old.iter()) {
        diff = diff.max((a - b).abs());
        scale = scale.max(a.abs());
    }
    (diff, scale)
}

/// Derives the Gauss–Seidel shard traversal order from the coupling's
/// shard-to-shard dependency weights: a topological order of the dependency
/// digraph when it is acyclic (the block-triangular case — one sweep in that
/// order is the exact solve), else the greedy least-pending-weight order of
/// [`greedy_order_from_weights`].  [`CouplingPlan::build`] inlines the same
/// derivation (it also needs the triangularity verdict); this standalone form
/// is kept for direct unit testing of the order.
#[cfg(test)]
fn gauss_seidel_order(partition: &NodePartition, coupling: &CsrMatrix) -> Vec<usize> {
    let k = partition.n_shards();
    if k <= 1 || coupling.nnz() == 0 {
        return (0..k).collect();
    }
    let w = shard_dependency_weights(k, partition, coupling);
    topological_shard_order(k, &w).unwrap_or_else(|| greedy_order_from_weights(k, &w))
}

/// The shard-to-shard dependency weights `w[s][t] = Σ |C[i,j]|` over `i ∈ s`,
/// `j ∈ t`, `s ≠ t`: how much shard `s`'s rows read shard `t`'s solution.
fn shard_dependency_weights(k: usize, partition: &NodePartition, coupling: &CsrMatrix) -> Vec<f64> {
    let mut w = vec![0.0f64; k * k];
    for (i, j, v) in coupling.iter() {
        let (s, t) = (partition.shard_of(i), partition.shard_of(j));
        if s != t {
            w[s * k + t] += v.abs();
        }
    }
    w
}

/// Kahn's algorithm over the shard dependency digraph (`s` depends on `t`
/// when `w[s][t] > 0`): `Some(order)` with dependencies first when the
/// digraph is acyclic — block triangular form — else `None`.  Among ready
/// shards the lowest id goes first, so the order is deterministic.
fn topological_shard_order(k: usize, w: &[f64]) -> Option<Vec<usize>> {
    let mut indegree = vec![0usize; k];
    for s in 0..k {
        for t in 0..k {
            if s != t && w[s * k + t] > 0.0 {
                indegree[s] += 1;
            }
        }
    }
    let mut order = Vec::with_capacity(k);
    let mut placed = vec![false; k];
    for _ in 0..k {
        let s = (0..k).find(|&s| !placed[s] && indegree[s] == 0)?;
        placed[s] = true;
        order.push(s);
        for r in 0..k {
            if !placed[r] && r != s && w[r * k + s] > 0.0 {
                indegree[r] -= 1;
            }
        }
    }
    Some(order)
}

/// The cyclic-coupling fallback order: greedily pick the shard with the
/// least remaining dependency weight on shards not yet updated this sweep,
/// so by the time a heavily-dependent shard solves, most of what it reads is
/// already current-iterate.  Ties break toward the lower shard id.
fn greedy_order_from_weights(k: usize, w: &[f64]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..k).collect();
    let mut order = Vec::with_capacity(k);
    while !remaining.is_empty() {
        // Manual argmin instead of `min_by` + `partial_cmp().expect(…)`:
        // `<` keeps the first minimum on ties (lower shard id) and has no
        // panic surface even if a weight ever went non-finite.
        let mut pos = 0;
        let mut best = f64::INFINITY;
        for (p, &s) in remaining.iter().enumerate() {
            let pending: f64 = remaining
                .iter()
                .filter(|&&t| t != s)
                .map(|&t| w[s * k + t])
                .sum();
            if pending < best {
                best = pending;
                pos = p;
            }
        }
        order.push(remaining.remove(pos));
    }
    order
}

/// Factors the `max_rank` hottest coupling columns (by absolute column
/// weight) into the cached Woodbury correction: extracts the columns and the
/// cold remainder in one CSR pass, forms `Z = B⁻¹U`, and factorizes the
/// dense Schur complement.
///
/// The `Z` solves exploit the block structure: `B⁻¹` is block-diagonal, so a
/// captured column only needs the shards its support touches — every other
/// slice of its `Z` column is exactly zero.  A typical cross column touches
/// one or two shards, so a rebuild costs far less than `k` full block-solve
/// passes.
fn build_correction<D: AsRef<DecomposedMatrix>>(
    partition: &NodePartition,
    blocks: &[D],
    coupling: &CsrMatrix,
    max_rank: usize,
) -> LuResult<Option<PlanCorrection>> {
    let n = coupling.n_rows();
    let weights = coupling.col_abs_sums();
    let mut hot: Vec<usize> = (0..n).filter(|&j| weights[j] > 0.0).collect();
    // `total_cmp` orders every float (no `partial_cmp().expect(…)` panic
    // surface); weights are non-negative sums of absolute values, so it
    // agrees with the numeric order everywhere it matters.
    hot.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    hot.truncate(max_rank);
    if hot.is_empty() {
        return Ok(None);
    }
    let (columns, rest) = coupling
        .split_columns(&hot)
        // lint: allow(panic-surface) — `hot` is built from `(0..n)` filtered
        // and truncated above: in bounds, sorted, and duplicate-free, which
        // is exactly what `split_columns` validates.
        .expect("hot columns index the coupling");
    let mut z = vec![0.0; n * hot.len()];
    let mut scratch = PanelBlockScratch::default();
    let mut support = BTreeSet::new();
    let mut col_shards = BTreeSet::new();
    for (i, column) in columns.iter().enumerate() {
        let zi = &mut z[i * n..(i + 1) * n];
        col_shards.clear();
        col_shards.extend(column.iter().map(|&(r, _)| partition.shard_of(r)));
        for &s in &col_shards {
            support.insert(s);
            let nodes = partition.nodes_of(s);
            scratch.local_rhs.clear();
            scratch.local_rhs.resize(nodes.len(), 0.0);
            for &(r, v) in column {
                if partition.shard_of(r) == s {
                    scratch.local_rhs[partition.local_of(r)] = v;
                }
            }
            blocks[s].as_ref().solve_many_into(
                &scratch.local_rhs,
                1,
                &mut scratch.lu,
                &mut scratch.local_x,
            )?;
            for (l, &g) in nodes.iter().enumerate() {
                zi[g] = scratch.local_x[l];
            }
        }
    }
    match LowRankCorrection::new(n, hot, z) {
        Ok(lowrank) => Ok(Some(PlanCorrection {
            lowrank,
            rest,
            support,
        })),
        // A singular Schur complement cannot arise for the engine's
        // M-matrices (`B + U·Vᵀ` stays an M-matrix); if numerics ever
        // disagree, degrade to sweeps instead of failing the snapshot.
        Err(LuError::SingularPivot { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

impl AsRef<DecomposedMatrix> for ShardSnapshot {
    fn as_ref(&self) -> &DecomposedMatrix {
        self.decomposed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::CooMatrix;

    #[test]
    fn solver_names_and_defaults() {
        assert_eq!(CouplingSolver::GaussSeidel.name(), "gauss-seidel");
        assert_eq!(CouplingSolver::woodbury().name(), "woodbury");
        assert_eq!(CouplingSolver::default(), CouplingSolver::GaussSeidel);
        let tol = SolveTolerance::default();
        assert_eq!(tol.tol, 1e-13);
        assert_eq!(tol.max_sweeps, 100_000);
        let cfg = CouplingConfig::default();
        assert_eq!(cfg.solver, CouplingSolver::GaussSeidel);
        assert_eq!(cfg.repartition_budget, None);
        assert!(matches!(
            CouplingSolver::woodbury(),
            CouplingSolver::Woodbury {
                max_rank: CouplingSolver::DEFAULT_WOODBURY_RANK
            }
        ));
    }

    #[test]
    fn tolerance_acceptance_rules() {
        let tol = SolveTolerance {
            tol: 1e-13,
            max_sweeps: 10,
        };
        // Plain convergence.
        assert!(tol.accepted(5e-14, 1.0, 1e-10));
        // Floor stagnation: not shrinking, but already within 2× tol.
        assert!(tol.accepted(1.5e-13, 1.0, 1.4e-13));
        // Still shrinking above tol: keep sweeping.
        assert!(!tol.accepted(1.5e-13, 1.0, 3e-13));
        // Large change: keep sweeping.
        assert!(!tol.accepted(1e-6, 1.0, 1e-5));
    }

    #[test]
    fn trivial_plan_is_identity_order_without_correction() {
        let partition = NodePartition::contiguous(6, 3);
        let empty = CsrMatrix::from_coo(&CooMatrix::new(6, 6));
        let no_blocks: [ShardSnapshot; 0] = [];
        let plan = CouplingPlan::build(&partition, &no_blocks, &empty, CouplingSolver::woodbury())
            .unwrap();
        assert!(plan.is_triangular());
        assert_eq!(plan.gs_order(), &[0, 1, 2]);
        assert_eq!(plan.correction_rank(), None);
        assert_eq!(plan.correction_rest_nnz(), None);
        assert!(!plan.depends_on_shard(0));
        assert!(plan.approx_bytes() > 0);
    }

    #[test]
    fn gs_order_puts_least_dependent_shards_first() {
        // 3 contiguous shards of 2 nodes.  Shard 2 depends heavily on shard
        // 0, shard 0 depends lightly on shard 1, shard 1 on nothing.
        let partition = NodePartition::contiguous(6, 3);
        let mut coo = CooMatrix::new(6, 6);
        coo.push(4, 0, -5.0).unwrap(); // shard 2 <- shard 0, heavy
        coo.push(5, 1, -4.0).unwrap(); // shard 2 <- shard 0, heavy
        coo.push(0, 2, -0.1).unwrap(); // shard 0 <- shard 1, light
        let coupling = CsrMatrix::from_coo(&coo);
        let order = gauss_seidel_order(&partition, &coupling);
        // Shard 1 has no dependencies -> first; shard 2's dependency on
        // shard 0 is the heaviest -> it must come after shard 0.
        assert_eq!(order[0], 1);
        assert_eq!(order, vec![1, 0, 2]);
        // No coupling: identity order.
        let empty = CsrMatrix::from_coo(&CooMatrix::new(6, 6));
        assert_eq!(gauss_seidel_order(&partition, &empty), vec![0, 1, 2]);
    }

    #[test]
    fn fixed_point_reports_convergence_failure() {
        // An "inverse" that never moves toward the fixed point: alternate
        // between two iterates so the diff never shrinks below tolerance.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        let residual = CsrMatrix::from_coo(&coo);
        let tolerance = SolveTolerance {
            tol: 1e-13,
            max_sweeps: 7,
        };
        let mut flip = 1.0;
        let err = fixed_point_many(2, &[1.0, 1.0], 1, &residual, tolerance, |_rhs, out| {
            flip = -flip;
            out[0] = flip;
            out[1] = -flip;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            LuError::ConvergenceFailure { iterations: 7, .. }
        ));
    }
}
