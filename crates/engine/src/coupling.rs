//! The coupled solve of sharded snapshots: block Gauss–Seidel over the
//! cross-shard coupling.
//!
//! A sharded [`EngineSnapshot`] holds per-shard factors of
//! `B = blockdiag(A_ss)` plus the frozen cross-shard coupling `C`, and every
//! query must solve `(B + C) x = b` *exactly* (to the block tolerance, well
//! under the engine's 1e-9 equivalence bar).  There is one way to do that:
//! the fixed point `x ← B⁻¹(b − C·x)` swept shard by shard, each shard's
//! solve inside a sweep already using the solutions of the shards updated
//! before it, traversed in an order derived from the coupling's
//! shard-to-shard dependency weights ([`CouplingPlan::gs_order`]).  Sweeps
//! are proportional to `1/log(1/ρ)` digits, and **one** sweep is the exact
//! solve when the shard dependency digraph is acyclic
//! ([`CouplingPlan::is_triangular`]).
//!
//! The splitting `A = M − N` behind the iteration is regular for the
//! engine's column-wise strictly diagonally dominant M-matrices (`I − d·W`,
//! shifted Laplacians), so the fixed point is the exact solve.  A store
//! without coupling — one shard, or shards no edge crosses — never iterates:
//! its solve is one pass of substitutions (see `solve_systems`).  The
//! per-snapshot metadata of the iteration — the traversal order and the
//! triangularity verdict — is a pure function of (partition, frozen
//! coupling), frozen into a [`CouplingPlan`] wherever the coupling is and
//! shared through the copy-on-write snapshot ring by the same rule.

use crate::store::{EngineSnapshot, ShardSnapshot};
use clude_graph::NodePartition;
use clude_lu::{LuError, LuResult, PanelScratch};
use clude_sparse::CsrMatrix;
use clude_telemetry::{Counter, EngineEvent, Stage};

/// Stopping rule of the coupled Gauss–Seidel iteration: a relative
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

    /// Rejects a rule no solve can meet: with a non-finite or non-positive
    /// `tol` the acceptance test never passes, and with `max_sweeps: 0` it
    /// never runs — either way every coupled query would burn its budget and
    /// return [`LuError::ConvergenceFailure`].
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.tol.is_finite() && self.tol > 0.0) {
            return Err(format!(
                "coupling tolerance must be finite and positive, got {}",
                self.tol
            ));
        }
        if self.max_sweeps == 0 {
            return Err("coupling max_sweeps must be at least 1".into());
        }
        Ok(())
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

/// Everything the engine needs to know about coupled solves: the stopping
/// rule of the iteration, and when the sharded store should abandon its
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CouplingConfig {
    /// Stopping rule of the Gauss–Seidel iteration.
    pub tolerance: SolveTolerance,
    /// Adaptive re-partitioning: when the live coupling's entry count
    /// crosses this budget, the sharded store re-runs the edge-locality
    /// partition on the current graph and rebuilds its shards (amortized —
    /// after a re-partition the trigger backs off to twice the surviving
    /// coupling size until it falls under the budget again).  `None`
    /// disables re-partitioning.
    pub repartition_budget: Option<usize>,
}

/// Frozen per-snapshot metadata of the coupled solve — a pure function of
/// (partition, frozen coupling), built wherever the coupling is re-frozen
/// and shared through the copy-on-write snapshot ring by the same rule:
/// consecutive snapshots are [`Arc::ptr_eq`](std::sync::Arc::ptr_eq) on
/// their plan exactly when they are on their coupling.
#[derive(Debug)]
pub struct CouplingPlan {
    /// Gauss–Seidel shard traversal order, least-dependent shard first.
    gs_order: Vec<usize>,
    /// Whether the shard dependency digraph is acyclic and `gs_order` is a
    /// topological order of it — block triangular form.  When set, one
    /// Gauss–Seidel sweep in `gs_order` is the *exact* solve (every coupling
    /// entry a shard reads was updated earlier in the same sweep), so the
    /// iteration returns after a single sweep.
    triangular: bool,
}

impl CouplingPlan {
    /// Builds the plan for one frozen (partition, coupling) pair.
    pub(crate) fn build(partition: &NodePartition, coupling: &CsrMatrix) -> Self {
        let (gs_order, triangular) = gauss_seidel_order(partition, coupling);
        CouplingPlan {
            gs_order,
            triangular,
        }
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

    /// Resident size in bytes (the order vector), for the engine's
    /// snapshot-ring memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.gs_order.len() * std::mem::size_of::<usize>()
    }
}

/// Reused buffers of one coupled solve: the gathered per-shard right-hand
/// side panel, the recovered per-shard solution panel, and the triangular
/// panel scratch underneath.  Allocated once per query; every sweep after
/// the first reuses the grown capacity.
#[derive(Debug, Default)]
struct PanelBlockScratch {
    local_rhs: Vec<f64>,
    local_x: Vec<f64>,
    lu: PanelScratch,
}

/// One pass of `B⁻¹` over `n_rhs` right-hand sides stacked column-major in
/// `rhs`: every block solves its restriction of the panel and scatters the
/// local solutions into `out`, each shard's factors traversed **once** for
/// the whole panel.  Per panel column the arithmetic does not depend on the
/// panel's width, so every stripe of `out` is bit-identical to the same
/// pass at width 1.
fn solve_blocks_many(
    partition: &NodePartition,
    blocks: &[ShardSnapshot],
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
        block.decomposed().solve_many_into(
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
/// Everything else is block Gauss–Seidel in the plan's order.
///
/// Every stripe of the result is **bit-identical** to a width-1 call on
/// that stripe: the direct paths reuse the panel kernels' per-column
/// bit-identity, and the iteration runs a joint sweep loop in which each
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
    let mut scratch = PanelBlockScratch::default();
    if coupling.nnz() == 0 {
        let mut x = vec![0.0; n * n_rhs];
        solve_blocks_many(snap.partition(), shards, b, n_rhs, &mut x, &mut scratch)?;
        return Ok(x);
    }
    let telemetry = snap.telemetry();
    let span = telemetry.span(Stage::CouplingGaussSeidel);
    let result = gauss_seidel_many(snap, b, n_rhs, &mut scratch);
    span.stop();
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

/// Block Gauss–Seidel over a panel: one sweep updates the shards in the
/// plan's dependency order, and each shard's right-hand side reads the
/// *current* iterate — so the shards updated earlier in the sweep already
/// contribute their new solutions.  Per sweep each shard gathers the coupled
/// right-hand sides of every column, runs **one** panel solve over its
/// factors, and scatters only the still-active columns: each column keeps
/// its own `last_diff` and is **frozen** (its `x` stripe no longer written)
/// the moment its own acceptance test passes.  Because the columns of the
/// iteration are arithmetically independent, each column's iterate sequence
/// while active is exactly its width-1 sequence, so converged stripes are
/// bit-identical to width-1 solves.  Frozen columns still ride along in the
/// panel solves (the width is fixed); their results are discarded.
///
/// The sweep at which each column froze is recorded into the telemetry
/// registry's sweep histogram — one sample per solved column.
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
    let telemetry = snap.telemetry();
    debug_assert_eq!(plan.gs_order.len(), shards.len());
    let n = snap.n_nodes();
    let mut x = vec![0.0; n * n_rhs];
    let mut prev = vec![0.0; n * n_rhs];
    let mut last_diff = vec![f64::INFINITY; n_rhs];
    let mut done = vec![false; n_rhs];
    let mut n_done = 0usize;
    for sweep in 1..=tolerance.max_sweeps {
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
            for _ in 0..n_rhs {
                telemetry.observe_coupling_sweeps(1);
            }
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
                telemetry.observe_coupling_sweeps(sweep as u64);
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
/// shard-to-shard dependency weights, with the triangularity verdict: a
/// topological order of the dependency digraph when it is acyclic (the
/// block-triangular case — one sweep in that order is the exact solve), else
/// the greedy least-pending-weight order of [`greedy_order_from_weights`].
///
/// Triangularity is detected from the *actual* frozen coupling, so it never
/// depends on where the partition came from: a BTF partition gets its
/// one-sweep guarantee verified here, and any partition whose
/// cross-structure happens to be acyclic gets the same direct solve for
/// free.
fn gauss_seidel_order(partition: &NodePartition, coupling: &CsrMatrix) -> (Vec<usize>, bool) {
    let k = partition.n_shards();
    if k <= 1 || coupling.nnz() == 0 {
        // No coupling: vacuously triangular (never consulted — empty
        // couplings short-circuit before the iteration).
        return ((0..k).collect(), true);
    }
    let w = shard_dependency_weights(k, partition, coupling);
    match topological_shard_order(k, &w) {
        Some(topo) => (topo, true),
        None => (greedy_order_from_weights(k, &w), false),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::CooMatrix;

    #[test]
    fn solver_names_and_defaults() {
        // The one solver's name is its stage: what the exposition, the traced
        // benchmark (`stage.coupling.gauss_seidel.*`) and CI key on.
        assert_eq!(Stage::CouplingGaussSeidel.name(), "coupling.gauss_seidel");
        let cfg = CouplingConfig::default();
        assert_eq!(cfg.tolerance.tol, 1e-13);
        assert_eq!(cfg.tolerance.max_sweeps, 100_000);
        assert_eq!(cfg.repartition_budget, None);
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
        let plan = CouplingPlan::build(&partition, &empty);
        assert!(plan.is_triangular());
        assert_eq!(plan.gs_order(), &[0, 1, 2]);
        // A plan is the order and nothing else.
        assert_eq!(plan.approx_bytes(), 3 * std::mem::size_of::<usize>());
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
        // Shard 1 has no dependencies -> first; shard 2's dependency on
        // shard 0 is the heaviest -> it must come after shard 0.  The chain
        // 2 <- 0 <- 1 is acyclic, so the order is also a triangular one.
        assert_eq!(
            gauss_seidel_order(&partition, &coupling),
            (vec![1, 0, 2], true)
        );
        // Closing the cycle (shard 1 <- shard 2) leaves only the greedy
        // least-pending-weight order, and sweeps have to iterate: shard 0
        // reads the least, and with it placed shard 2 reads nothing pending.
        coo.push(2, 4, -0.2).unwrap();
        let cyclic = CsrMatrix::from_coo(&coo);
        assert_eq!(
            gauss_seidel_order(&partition, &cyclic),
            (vec![0, 2, 1], false)
        );
        // No coupling: identity order.
        let empty = CsrMatrix::from_coo(&CooMatrix::new(6, 6));
        assert_eq!(
            gauss_seidel_order(&partition, &empty),
            (vec![0, 1, 2], true)
        );
    }
}
