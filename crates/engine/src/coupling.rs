//! The coupled solve of sharded snapshots: restarted GMRES over the block
//! Gauss–Seidel pass.
//!
//! A sharded [`EngineSnapshot`] holds per-shard factors of
//! `B = blockdiag(A_ss)` plus the frozen cross-shard coupling `C`, and every
//! query must solve `(B + C) x = b` *exactly* (to the block tolerance, well
//! under the engine's 1e-9 equivalence bar).  There is one way to do that.
//!
//! **The pass.**  One *block pass* updates a vector in place, shard by shard
//! in the plan's order ([`CouplingPlan::gs_order`]): shard `s` becomes
//! `B_ss⁻¹(f·b_s − C_s·x)`, reading the vector as it stands, so the shards
//! updated earlier in the pass already contribute their new values.  The
//! vector lives in the plan's layout — each shard's segment in its factored
//! order, shards back to back — so shard `s`'s step is one walk over its
//! rows of the re-indexed coupling, written straight into its segment, and
//! one substitution in place on that segment: no gather through the
//! partition, no permutation and no scatter per pass.  A solve lays `b` out
//! once and reads its answer back once.  Split
//! `A = M − N` with `M` the blocks plus the coupling an earlier shard feeds a
//! later one: with `f = 1` a pass is the Gauss–Seidel step
//! `S(x) = G·x + M⁻¹b`, `G = M⁻¹N`, and with `f = 0` it is the bare operator
//! `x ↦ G·x`.  The splitting is regular for the engine's column-wise strictly
//! diagonally dominant M-matrices (`I − d·W`, shifted Laplacians), so the
//! fixed point of `S` is the exact solve — and **one** pass from zero already
//! is when the shard dependency digraph is acyclic
//! ([`CouplingPlan::is_triangular`]).
//!
//! **The iteration.**  The fixed point of `S` solves the preconditioned
//! system `(I − G)·x = M⁻¹b`, and iterating `S` alone pays
//! `log(1/tol)/log(1/ρ(G))` passes for it.  Restarted GMRES on that system
//! needs the same pass and nothing else: the residual at `x` is
//! `S(x) − x` (one `f = 1` pass), an Arnoldi step is `v − G·v` (one `f = 0`
//! pass), and the stationary iterates `Gᵏr₀` lie inside the Krylov space, so
//! within a cycle GMRES is never behind them in the 2-norm.  A cold 4-shard
//! query is ~14 passes where the stationary loop took ~55, and the count no
//! longer grows as damping → 1.
//!
//! **Acceptance.**  A Krylov iterate is never returned on the strength of
//! its own residual estimate: it is accepted by a real `f = 1` pass from it,
//! under [`SolveTolerance`] on that pass's iterate change, and the pass's
//! result is what is returned.  A failed check is not wasted — its iterate
//! change is the residual that opens the next cycle.  A non-finite iterate
//! change, scale or residual estimate fails the solve at the pass where it
//! appears; exhausting [`SolveTolerance::max_sweeps`] block passes fails it
//! too.  Both are [`LuError::ConvergenceFailure`], journalled.
//!
//! A single shard without coupling is one pair of substitutions through its
//! ordering (see `solve_systems`); shards no edge crosses have a triangular
//! plan, so they take the one pass from zero.
//! A non-finite right-hand side is refused before any path runs, as
//! [`LuError::InvalidParameter`] named `rhs`: substitutions would carry it
//! into an `Ok([NaN, …])`, and it is the caller's input, not a failure of
//! the iteration.
//!
//! **The transpose.**  `Aᵀ x = b` runs the same iteration over the
//! transposed pass: shards in reverse plan order, `Cᵀ`, and `(L U)ᵀ`
//! substitutions — the spectrum of the forward pass, so about as many
//! passes.
//!
//! The per-snapshot metadata of the pass — the traversal order, the
//! triangularity verdict and the layout — is a pure function of (partition,
//! frozen coupling, shard orderings), a [`CouplingPlan`] built by the first
//! coupled solve that reads it — inside its `coupling.gauss_seidel` span —
//! and shared through the copy-on-write snapshot ring with its
//! [`FrozenCoupling`], which the store freezes anew whenever a cross-shard
//! entry or a shard's ordering changes.

// lint: hot-path

mod plan;

pub use plan::{CouplingPlan, FrozenCoupling};

use crate::store::{static_factors, EngineSnapshot, ShardSnapshot};
use clude::DecomposedMatrix;
use clude_lu::{LuError, LuResult, PanelScratch};
use clude_sparse::vector::{axpy, dot};
use clude_telemetry::{Counter, EngineEvent, Stage};

/// Which system a solve answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum System {
    /// `A x = b`.
    Forward,
    /// `Aᵀ x = b`.
    Transposed,
}

/// Stopping rule of the coupled solve: a relative iterate-change tolerance
/// on the accepting block pass plus a hard budget of block passes.
///
/// Because the engine's block splittings contract strictly, an iterate
/// change of `tol` across a pass bounds the error of the pass's input by
/// `tol/(1−ρ)` and of its result — which is what a solve returns — by
/// `tol·ρ/(1−ρ)`: under the 1e-9 equivalence bar by three decades at
/// ρ = 0.99 and still by one decade at ρ = 0.999.  When the change stops
/// shrinking while already below twice `tol`, rounding noise dominates and
/// the iterate is accepted as converged (the f64 floor); anything that
/// exhausts `max_sweeps` instead fails loudly with
/// [`LuError::ConvergenceFailure`] rather than serving a drifted answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveTolerance {
    /// Relative iterate-change tolerance.
    pub tol: f64,
    /// Hard budget of block passes per solve (residual, Arnoldi and
    /// accepting passes all count).  The Krylov iteration spends 13–21 on
    /// every graph measured, at any damping — inside its first restart
    /// cycle; the default is eight full cycles, so a solve that cannot
    /// converge is declared failed after a few hundred passes
    /// (milliseconds), not after seconds of spinning.
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
            // A full cycle is the residual pass, RESTART Arnoldi steps and
            // the check that closes it.
            max_sweeps: 8 * (RESTART + 2),
        }
    }
}

/// Everything the engine needs to know about coupled solves: the stopping
/// rule of the iteration, and when the sharded store should abandon its
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CouplingConfig {
    /// Stopping rule of the coupled solve.
    pub tolerance: SolveTolerance,
    /// Adaptive re-partitioning: when the live coupling's entry count
    /// crosses this budget, the sharded store re-runs the edge-locality
    /// partition on the current graph and rebuilds its shards (amortized —
    /// after a re-partition the trigger backs off to twice the surviving
    /// coupling size until it falls under the budget again).  `None`
    /// disables re-partitioning.
    pub repartition_budget: Option<usize>,
}

/// Reused buffers of one coupled solve: the right-hand sides and the
/// solutions in the plan's layout, and the panel a multi-column pass builds
/// one shard's right-hand sides in.  Allocated once per query; every pass
/// after the first reuses the grown capacity.
#[derive(Debug, Default)]
struct PanelBlockScratch {
    b: Vec<f64>,
    x: Vec<f64>,
    panel: Vec<f64>,
}

/// Solves `A x = b` (or `Aᵀ x = b`) for a snapshot's full measure matrix
/// `A = blockdiag(A_ss) + C` and `n_rhs` right-hand sides stacked
/// column-major in `b`, one factor traversal per block pass for the whole
/// panel.  A single right-hand side is a width-1 panel, which the
/// substitutions take through their scalar kernel.
///
/// A NaN or ∞ anywhere in `b` is [`LuError::InvalidParameter`] (`rhs`,
/// the first such value) on every path.  A single shard without coupling is
/// one pair of substitutions; every other snapshot runs the plan's block
/// pass — once when the plan is triangular, fully decoupled shards
/// included, else under the Krylov iteration.  The first such solve after
/// the store froze a new coupling builds the plan, inside its
/// `coupling.gauss_seidel` span.
///
/// Every stripe of the result is **bit-identical** to a width-1 call on
/// that stripe: the substitutions are the panel kernels with per-column
/// bit-identity, and in the iteration each column carries its own Krylov
/// state and never reads a neighbour — so per column the pass count, every
/// intermediate vector, and the final answer do not depend on which other
/// columns share the panel.  A convergence or pivot failure on any column
/// fails the whole panel ([`EngineSnapshot::query_batch`] returns the one
/// error for every query in it).
pub(crate) fn solve_systems(
    snap: &EngineSnapshot,
    system: System,
    b: &[f64],
    n_rhs: usize,
) -> LuResult<Vec<f64>> {
    let n = snap.n_nodes();
    if b.len() != n * n_rhs {
        return Err(LuError::DimensionMismatch {
            expected: n * n_rhs,
            actual: b.len(),
        });
    }
    if let Some(&value) = b.iter().find(|v| !v.is_finite()) {
        return Err(LuError::InvalidParameter { name: "rhs", value });
    }
    // lint: allow(alloc-hot-path) — the returned solution panel: the one
    // buffer every path of a solve hands to its caller.
    let mut x = Vec::new();
    if n_rhs == 0 {
        return Ok(x);
    }
    let shards = snap.shards();
    if shards.len() == 1 && snap.coupling().nnz() == 0 {
        let mut scratch = PanelScratch::new();
        let solve = match system {
            System::Forward => DecomposedMatrix::solve_many_into,
            System::Transposed => DecomposedMatrix::solve_transposed_many_into,
        };
        solve(shards[0].decomposed(), b, n_rhs, &mut scratch, &mut x)?;
        return Ok(x);
    }
    if u32::try_from(n).is_err() {
        // The plan's layout addresses the vector with `u32` positions.
        return Err(LuError::InvalidParameter {
            name: "n_nodes",
            value: n as f64,
        });
    }
    x.resize(n * n_rhs, 0.0);
    let mut scratch = PanelBlockScratch::default();
    let telemetry = snap.telemetry();
    let span = telemetry.span(Stage::CouplingGaussSeidel);
    let result = krylov_many(snap, system, b, n_rhs, RESTART, &mut x, &mut scratch);
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
    result.map(|()| x)
}

/// Arnoldi steps per GMRES cycle before the iterate is checked and the
/// basis rebuilt from its residual.  No input measured needs a second cycle
/// (cold queries converge in 11–19 steps at any damping); 24 bounds a
/// column's basis at 25 vectors and keeps its Hessenberg in 5 KB.
const RESTART: usize = 24;

/// What a column's next block pass computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// An `f = 1` pass from the column's iterate `x`: its iterate change
    /// `S(x) − x` is the preconditioned residual at `x`, which either
    /// accepts the pass's result or opens a GMRES cycle.
    Check,
    /// An `f = 0` pass on a copy of the newest basis vector: one Arnoldi
    /// step.
    Arnoldi,
    /// Accepted; the column rides along as the zero vector.
    Done,
}

/// One panel column's GMRES state.  Nothing in it is shared with, or read
/// by, another column.
#[derive(Debug)]
struct KrylovColumn {
    phase: Phase,
    /// Iterate change of the column's last `Check` pass.
    last_diff: f64,
    /// Acceptance scale of that pass — what the residual estimate of the
    /// cycle it opened is measured against.
    scale: f64,
    /// Arnoldi steps taken in the current cycle.
    steps: usize,
    /// Vectors of `n` back to back: the orthonormal basis `v_0 … v_steps`
    /// of the cycle, then the vector the next pass runs on in place — slot
    /// 0 while checking (a copy of the iterate), slot `steps + 1` during
    /// Arnoldi (a copy of `v_steps`).  Grown by one vector the first time a
    /// cycle reaches a length, reused by every later cycle.
    basis: Vec<f64>,
    /// Upper-triangular factor of the Givens-rotated Hessenberg, one array
    /// per column of `R`.
    r: [[f64; RESTART]; RESTART],
    /// The rotations' cosines and sines.
    cs: [f64; RESTART],
    sn: [f64; RESTART],
    /// The rotated right-hand side `‖r₀‖·e₁`; the magnitude of entry
    /// `steps` is the residual 2-norm of the cycle's current iterate.
    g: [f64; RESTART + 1],
}

impl KrylovColumn {
    /// A column at the zero iterate, about to take its first `Check` pass —
    /// whose result is `S(0) = M⁻¹b` and whose iterate change is `r₀`.
    fn new(n: usize) -> Self {
        KrylovColumn {
            phase: Phase::Check,
            last_diff: f64::INFINITY,
            scale: 1.0,
            steps: 0,
            // lint: allow(alloc-hot-path) — a column's first basis slot, once
            // per solve; later slots extend this buffer as a cycle grows
            // (amortised doubling), never per pass once a length was reached.
            basis: vec![0.0; n],
            r: [[0.0; RESTART]; RESTART],
            cs: [0.0; RESTART],
            sn: [0.0; RESTART],
            g: [0.0; RESTART + 1],
        }
    }

    /// Index of the basis slot the next pass runs on.
    fn active_slot(&self) -> usize {
        match self.phase {
            Phase::Arnoldi => self.steps + 1,
            Phase::Check | Phase::Done => 0,
        }
    }

    fn active(&self, n: usize) -> &[f64] {
        let at = self.active_slot() * n;
        &self.basis[at..at + n]
    }

    fn active_mut(&mut self, n: usize) -> &mut [f64] {
        let at = self.active_slot() * n;
        &mut self.basis[at..at + n]
    }

    /// Makes slot `steps + 1` a copy of `v_steps`, ready for the `f = 0`
    /// pass of the next Arnoldi step.
    fn stage_arnoldi(&mut self, n: usize) {
        let next = (self.steps + 1) * n;
        if self.basis.len() < next + n {
            self.basis.resize(next + n, 0.0);
        }
        self.basis.copy_within(next - n..next, next);
        self.phase = Phase::Arnoldi;
    }

    /// Consumes the pass that just ran on this column's active slot.
    /// Returns whether the column was accepted by it; `pass` is the 1-based
    /// count of block passes so far, `x` the column's stripe of the result,
    /// in the plan's layout — the order the inner products sum in.
    fn advance(
        &mut self,
        x: &mut [f64],
        tolerance: &SolveTolerance,
        restart: usize,
        pass: usize,
    ) -> LuResult<bool> {
        let n = x.len();
        let failed = |last_diff: f64| LuError::ConvergenceFailure {
            iterations: pass,
            last_diff,
        };
        match self.phase {
            Phase::Done => Ok(false),
            Phase::Check => {
                let swept = &mut self.basis[..n];
                let (diff, scale) = diff_and_scale(swept, x);
                if !(diff.is_finite() && scale.is_finite()) {
                    return Err(failed(if diff.is_finite() { scale } else { diff }));
                }
                if tolerance.accepted(diff, scale, self.last_diff) {
                    x.copy_from_slice(swept);
                    swept.fill(0.0);
                    self.phase = Phase::Done;
                    return Ok(true);
                }
                self.last_diff = diff;
                self.scale = scale;
                // Open a cycle at `x`: v₀ = r₀/‖r₀‖ with r₀ = S(x) − x.
                // `diff > 0` here, so the norm is positive.
                for (r, &xi) in swept.iter_mut().zip(x.iter()) {
                    *r -= xi;
                }
                let beta = dot(swept, swept).sqrt();
                for r in swept.iter_mut() {
                    *r /= beta;
                }
                self.g[0] = beta;
                self.steps = 0;
                self.stage_arnoldi(n);
                Ok(false)
            }
            Phase::Arnoldi => {
                let j = self.steps;
                let (vs, rest) = self.basis.split_at_mut((j + 1) * n);
                let w = &mut rest[..n];
                // The slot holds G·v_j; w = (I − G)·v_j, then modified
                // Gram–Schmidt against v_0 … v_j.
                for (wi, &vi) in w.iter_mut().zip(&vs[j * n..]) {
                    *wi = vi - *wi;
                }
                let mut h = [0.0; RESTART + 1];
                for (hi, v) in h.iter_mut().zip(vs.chunks_exact(n)) {
                    *hi = dot(w, v);
                    axpy(-*hi, v, w);
                }
                let h_next = dot(w, w).sqrt();
                // Rotate the new Hessenberg column into R and the
                // right-hand side with it.
                for i in 0..j {
                    let (a, b) = (h[i], h[i + 1]);
                    h[i] = self.cs[i] * a + self.sn[i] * b;
                    h[i + 1] = self.cs[i] * b - self.sn[i] * a;
                }
                let denom = h[j].hypot(h_next);
                self.cs[j] = h[j] / denom;
                self.sn[j] = h_next / denom;
                h[j] = denom;
                self.r[j][..=j].copy_from_slice(&h[..=j]);
                self.g[j + 1] = -self.sn[j] * self.g[j];
                self.g[j] *= self.cs[j];
                self.steps = j + 1;
                let residual = self.g[j + 1].abs();
                if !residual.is_finite() {
                    return Err(failed(residual));
                }
                // ‖r‖∞ ≤ ‖r‖₂, so an estimate under the tolerance is an
                // iterate the check pass will accept.  An exhausted Krylov
                // space (`h_next == 0`, the lucky breakdown) reads as a zero
                // estimate and closes the cycle the same way.
                if residual <= tolerance.tol * self.scale || self.steps == restart {
                    self.close_cycle(x);
                } else {
                    for wi in w.iter_mut() {
                        *wi /= h_next;
                    }
                    self.stage_arnoldi(n);
                }
                Ok(false)
            }
        }
    }

    /// Ends the cycle: solves the rotated least-squares problem `R·y = g`,
    /// moves the iterate to `x + V·y`, and stages it for a `Check` pass.
    fn close_cycle(&mut self, x: &mut [f64]) {
        let n = x.len();
        let k = self.steps;
        let mut y = [0.0; RESTART];
        for i in (0..k).rev() {
            let tail: f64 = (i + 1..k).map(|l| self.r[l][i] * y[l]).sum();
            y[i] = (self.g[i] - tail) / self.r[i][i];
        }
        for (v, &yi) in self.basis.chunks_exact(n).zip(&y[..k]) {
            axpy(yi, v, x);
        }
        self.basis[..n].copy_from_slice(x);
        self.phase = Phase::Check;
    }
}

/// One ordered block pass of `system` over the panel, in place on every
/// column's active slot, all in the plan's layout: shard by shard in the
/// plan's order (reversed for `Aᵀ`), each shard's segment becomes
/// `f·b − C·v` for every column, from the vectors as they stand, and then
/// its substitutions — so the shards updated earlier in the pass already
/// contribute their new values.  `f` is per column (1 while checking, 0
/// otherwise), which is what lets columns in different phases share the
/// traversal.
///
/// A lone column is written straight into its segment (the coupling never
/// reads a shard's own segment) and substituted there; a wider panel is
/// built in `panel` and takes **one** traversal of the shard's factors for
/// every column, whose stripes are the same arithmetic bit for bit.
fn block_pass(
    shards: &[ShardSnapshot],
    plan: &CouplingPlan,
    system: System,
    b: &[f64],
    columns: &mut [KrylovColumn],
    panel: &mut Vec<f64>,
) -> LuResult<()> {
    let n = b.len() / columns.len();
    let half = plan.half(system);
    for k in 0..plan.gs_order().len() {
        let s = plan.shard_at(system, k);
        let segment = plan.segment(s);
        if segment.is_empty() {
            continue;
        }
        let factors = static_factors(shards[s].decomposed());
        if let [column] = columns {
            let b = (column.phase == Phase::Check).then_some(b);
            let v = column.active_mut(n);
            for p in segment.clone() {
                v[p] = b.map_or(0.0, |b| b[p]) - half.coupling_dot(p, v);
            }
            match system {
                System::Forward => factors.solve_in_place(&mut v[segment])?,
                System::Transposed => factors.solve_transposed_in_place(&mut v[segment])?,
            }
            continue;
        }
        panel.clear();
        for (c, column) in columns.iter().enumerate() {
            let b = (column.phase == Phase::Check).then(|| &b[c * n..(c + 1) * n]);
            let v = column.active(n);
            panel.extend(
                segment
                    .clone()
                    .map(|p| b.map_or(0.0, |b| b[p]) - half.coupling_dot(p, v)),
            );
        }
        match system {
            System::Forward => factors.solve_many_in_place(panel, columns.len())?,
            System::Transposed => factors.solve_many_transposed_in_place(panel, columns.len())?,
        }
        for (column, solved) in columns.iter_mut().zip(panel.chunks_exact(segment.len())) {
            column.active_mut(n)[segment.clone()].copy_from_slice(solved);
        }
    }
    Ok(())
}

/// Restarted GMRES on `(I − G)·x = M⁻¹b` of `system` over a panel, writing the
/// solutions into `x` (`n_rhs` stripes).  The right-hand sides are laid out
/// in the plan's layout once, the iteration runs there, and the accepted
/// iterates are read back once.  Every iteration of the loop is one
/// [`block_pass`] for the whole panel followed by each column's own
/// [`KrylovColumn::advance`]; a column spends one pass on its initial
/// residual (the pass from zero), one per Arnoldi step, and one on the check
/// that accepts it, and the pass count at which it was accepted is recorded
/// into the telemetry registry's histogram — one sample per solved column.
/// A triangular plan stops after the pass from zero, which is exact.
///
/// `restart` is [`RESTART`] outside tests.
fn krylov_many(
    snap: &EngineSnapshot,
    system: System,
    b: &[f64],
    n_rhs: usize,
    restart: usize,
    x: &mut [f64],
    scratch: &mut PanelBlockScratch,
) -> LuResult<()> {
    debug_assert!((1..=RESTART).contains(&restart));
    let tolerance = snap.tolerance();
    let telemetry = snap.telemetry();
    let plan = snap.coupling_plan();
    let half = plan.half(system);
    let n = snap.n_nodes();
    let PanelBlockScratch {
        b: laid_b,
        x: laid_x,
        panel,
    } = scratch;
    laid_b.resize(n * n_rhs, 0.0);
    for (stripe, laid) in b.chunks_exact(n).zip(laid_b.chunks_exact_mut(n)) {
        half.permute_rhs(stripe, laid);
    }
    laid_x.clear();
    laid_x.resize(n * n_rhs, 0.0);
    // lint: allow(alloc-hot-path) — the per-column Krylov state, once per
    // solve.
    let mut columns = Vec::with_capacity(n_rhs);
    columns.extend((0..n_rhs).map(|_| KrylovColumn::new(n)));
    let mut n_done = 0usize;
    for pass in 1..=tolerance.max_sweeps {
        block_pass(snap.shards(), plan, system, laid_b, &mut columns, panel)?;
        if plan.is_triangular() {
            // Block triangular coupling: the pass from zero is the exact
            // solve of every column.
            for (column, stripe) in columns.iter().zip(x.chunks_exact_mut(n)) {
                half.recover_solution(column.active(n), stripe);
                telemetry.observe_coupling_sweeps(1);
            }
            return Ok(());
        }
        for (column, stripe) in columns.iter_mut().zip(laid_x.chunks_exact_mut(n)) {
            if column.advance(stripe, &tolerance, restart, pass)? {
                n_done += 1;
                telemetry.observe_coupling_sweeps(pass as u64);
            }
        }
        if n_done == n_rhs {
            for (laid, stripe) in laid_x.chunks_exact(n).zip(x.chunks_exact_mut(n)) {
                half.recover_solution(laid, stripe);
            }
            return Ok(());
        }
    }
    let worst = columns
        .iter()
        .filter(|column| column.phase != Phase::Done)
        .fold(0.0f64, |worst, column| worst.max(column.last_diff));
    Err(LuError::ConvergenceFailure {
        iterations: tolerance.max_sweeps,
        last_diff: worst,
    })
}

/// ∞-norm iterate change and solution scale of one pass.  A NaN in either
/// vector makes the result NaN (`f64::max` would drop it and report a
/// non-finite iterate as converged).
fn diff_and_scale(new: &[f64], old: &[f64]) -> (f64, f64) {
    let sticky_max = |acc: f64, v: f64| if v > acc || v.is_nan() { v } else { acc };
    let mut diff = 0.0f64;
    let mut scale = 1.0f64;
    for (a, b) in new.iter().zip(old.iter()) {
        diff = sticky_max(diff, (a - b).abs());
        scale = sticky_max(scale, a.abs());
    }
    (diff, scale)
}

#[cfg(test)]
mod tests {
    use super::plan::gauss_seidel_order;
    use super::*;
    use crate::sharded::ShardedFactorStore;
    use crate::store::RefreshPolicy;
    use clude_graph::{measure_matrix, DiGraph, MatrixKind, NodePartition};
    use clude_measures::MeasureSolver;
    use clude_sparse::{CooMatrix, CsrMatrix};
    use clude_telemetry::{EventKind, TelemetryRegistry};
    use std::sync::Arc;

    #[test]
    fn solver_names_and_defaults() {
        // The one solver's name is its stage: what the exposition, the traced
        // benchmark (`stage.coupling.gauss_seidel.*`) and CI key on.
        assert_eq!(Stage::CouplingGaussSeidel.name(), "coupling.gauss_seidel");
        let cfg = CouplingConfig::default();
        assert_eq!(cfg.tolerance.tol, 1e-13);
        assert_eq!(cfg.tolerance.max_sweeps, 208);
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
        let identity = (0..3)
            .map(|_| Arc::new(clude_sparse::Ordering::identity(2)))
            .collect();
        let plan = CouplingPlan::build(&partition, &Arc::new(empty), identity);
        assert!(plan.is_triangular());
        assert_eq!(plan.gs_order(), &[0, 1, 2]);
        let segments: Vec<_> = (0..3).map(|s| plan.segment(s)).collect();
        assert_eq!(segments, vec![0..2, 2..4, 4..6]);
        // The order, the orderings, the offsets and the row offsets as
        // words; the two position maps as `u32`s; no coupling entry.
        let words = 3 + 3 + 4 + 7;
        assert_eq!(
            plan.approx_bytes(),
            words * std::mem::size_of::<usize>() + 12 * std::mem::size_of::<u32>()
        );
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
        // least-pending-weight order, and one pass is no longer exact: shard
        // 0 reads the least, and with it placed shard 2 reads nothing
        // pending.
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

    /// A store over `g` recording into its own registry, its coupling cyclic.
    fn coupled_store(
        g: DiGraph,
        partition: NodePartition,
        tolerance: SolveTolerance,
    ) -> (ShardedFactorStore, Arc<TelemetryRegistry>) {
        let telemetry = Arc::new(TelemetryRegistry::default());
        let store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
            partition,
        )
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry))
        .with_coupling_config(CouplingConfig {
            tolerance,
            ..CouplingConfig::default()
        })
        .unwrap();
        assert!(store.coupling_nnz() > 0, "edges cross the shards");
        assert!(!store.snapshot().coupling_plan().is_triangular());
        (store, telemetry)
    }

    /// The 6-node ring + (2, 0) at 2 contiguous shards.
    fn ring_store() -> (ShardedFactorStore, Arc<TelemetryRegistry>) {
        let mut g = DiGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)).collect::<Vec<_>>());
        g.add_edge(2, 0);
        coupled_store(
            g,
            NodePartition::contiguous(6, 2),
            SolveTolerance::default(),
        )
    }

    /// 40 nodes, three out-links each, dealt round-robin onto 4 shards:
    /// nearly every edge crosses, so `G` has rank enough that a solve needs
    /// more than a handful of Arnoldi steps.
    fn scattered_store(tolerance: SolveTolerance) -> (ShardedFactorStore, Arc<TelemetryRegistry>) {
        let n = 40;
        let edges = (0..n)
            .flat_map(|i| {
                [
                    (i, (i + 1) % n),
                    (i, (7 * i + 3) % n),
                    (i, (11 * i + 5) % n),
                ]
            })
            .filter(|(u, v)| u != v)
            .collect::<Vec<_>>();
        coupled_store(
            DiGraph::from_edges(n, edges),
            NodePartition::from_assignments((0..n).map(|i| i % 4).collect()),
            tolerance,
        )
    }

    /// Every non-finite value, at the first and at the last position of a
    /// two-column panel and of a single right-hand side, is refused as
    /// `InvalidParameter { name: "rhs" }` naming it — before any block pass,
    /// so no coupled solve is counted, journalled or sampled.
    fn assert_rhs_rejected(
        store: &ShardedFactorStore,
        telemetry: &TelemetryRegistry,
        system: System,
    ) {
        let snap = store.snapshot();
        let n = snap.n_nodes();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (n_rhs, at) in [(1, 0), (1, n - 1), (2, 2 * n - 1)] {
                let mut b = vec![1.0; n * n_rhs];
                b[at] = bad;
                let err = match system {
                    System::Forward => snap.solve_measure_systems(&b, n_rhs),
                    System::Transposed => snap.solve_transposed_systems(&b, n_rhs),
                }
                .unwrap_err();
                assert!(
                    matches!(
                        err,
                        LuError::InvalidParameter { name: "rhs", value }
                            if value.to_bits() == bad.to_bits()
                    ),
                    "{bad} at {at} of {n_rhs} column(s): {err:?}"
                );
            }
        }
        assert_eq!(telemetry.counter(Counter::ConvergenceFailures), 0);
        assert_eq!(
            telemetry.journal().count_of(EventKind::ConvergenceFailure),
            0
        );
        assert!(telemetry.coupling_sweeps().is_empty());
    }

    #[test]
    fn nan_right_hand_side_is_a_failure_not_a_converged_answer() {
        // `f64::max` drops NaN, so this used to read as an iterate change of
        // zero and return `Ok([NaN, NaN, NaN, 0, 0, 0])` after one sweep; it
        // was a journalled `ConvergenceFailure` after the first pass, and is
        // now refused before any.
        let (store, telemetry) = ring_store();
        let err = store
            .snapshot()
            .solve_measure_system(&[f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0])
            .unwrap_err();
        assert!(
            matches!(err, LuError::InvalidParameter { name: "rhs", value } if value.is_nan()),
            "{err:?}"
        );
        assert_eq!(telemetry.counter(Counter::ConvergenceFailures), 0);
        assert!(telemetry.coupling_sweeps().is_empty());
    }

    #[test]
    fn infinite_right_hand_side_is_a_failure_not_a_converged_answer() {
        let (store, telemetry) = ring_store();
        let err = store
            .snapshot()
            .solve_measure_system(&[0.0, 0.0, f64::INFINITY, 0.0, 0.0, 0.0])
            .unwrap_err();
        assert!(
            matches!(
                err,
                LuError::InvalidParameter { name: "rhs", value } if value == f64::INFINITY
            ),
            "{err:?}"
        );
        assert_eq!(telemetry.counter(Counter::ConvergenceFailures), 0);
        assert!(telemetry.coupling_sweeps().is_empty());
    }

    /// Four 4-node rings, one per shard of a contiguous 16-node partition.
    fn four_rings() -> DiGraph {
        DiGraph::from_edges(
            16,
            (0..16)
                .map(|i| (i, i / 4 * 4 + (i + 1) % 4))
                .collect::<Vec<_>>(),
        )
    }

    fn store_over(
        g: DiGraph,
        partition: NodePartition,
    ) -> (ShardedFactorStore, Arc<TelemetryRegistry>) {
        let telemetry = Arc::new(TelemetryRegistry::default());
        let store = ShardedFactorStore::new(
            g,
            MatrixKind::random_walk_default(),
            RefreshPolicy::Incremental,
            partition,
        )
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry));
        (store, telemetry)
    }

    /// Four 4-node rings, each with a link into the next: every shard of a
    /// contiguous 16-node partition reads another.
    fn four_linked_rings() -> DiGraph {
        let mut g = four_rings();
        for s in 0..4 {
            g.add_edge(s * 4, (s * 4 + 5) % 16);
        }
        g
    }

    #[test]
    fn non_finite_right_hand_side_is_rejected_on_one_shard() {
        // One pair of substitutions used to carry the NaN into every entry
        // it reaches and return `Ok`.
        let (store, telemetry) = store_over(four_rings(), NodePartition::singleton(16));
        assert_eq!((store.n_shards(), store.coupling_nnz()), (1, 0));
        assert_rhs_rejected(&store, &telemetry, System::Forward);
    }

    #[test]
    fn non_finite_right_hand_side_is_rejected_on_decoupled_shards() {
        // One block pass over shards no edge crosses: the same `Ok([NaN, …])`
        // before the check.
        let (store, telemetry) = store_over(four_rings(), NodePartition::contiguous(16, 4));
        assert_eq!((store.n_shards(), store.coupling_nnz()), (4, 0));
        assert_rhs_rejected(&store, &telemetry, System::Forward);
    }

    #[test]
    fn non_finite_right_hand_side_is_rejected_on_coupled_shards() {
        let (store, telemetry) = store_over(four_linked_rings(), NodePartition::contiguous(16, 4));
        assert_eq!(store.n_shards(), 4);
        assert!(store.coupling_nnz() > 0);
        assert_rhs_rejected(&store, &telemetry, System::Forward);
        // A finite panel through the same snapshot still solves.
        let b = vec![1.0; 32];
        assert!(store.snapshot().solve_measure_systems(&b, 2).is_ok());
    }

    #[test]
    fn non_finite_transposed_right_hand_side_is_rejected_on_one_shard() {
        let (store, telemetry) = store_over(four_rings(), NodePartition::singleton(16));
        assert_rhs_rejected(&store, &telemetry, System::Transposed);
    }

    #[test]
    fn non_finite_transposed_right_hand_side_is_rejected_on_decoupled_shards() {
        let (store, telemetry) = store_over(four_rings(), NodePartition::contiguous(16, 4));
        assert_rhs_rejected(&store, &telemetry, System::Transposed);
    }

    #[test]
    fn non_finite_transposed_right_hand_side_is_rejected_on_coupled_shards() {
        let (store, telemetry) = store_over(four_linked_rings(), NodePartition::contiguous(16, 4));
        assert_rhs_rejected(&store, &telemetry, System::Transposed);
        // No transposed half was planned for the refused solves; a finite
        // panel builds it and solves `Aᵀ x = b`.
        let snap = store.snapshot();
        assert!(snap.shared_coupling().built_plan().is_none());
        let forward_bytes = snap.coupling_plan().approx_bytes();
        let b: Vec<f64> = (0..32).map(|i| 1.0 + (i % 3) as f64).collect();
        let x = snap.solve_transposed_systems(&b, 2).unwrap();
        assert!(snap.coupling_plan().approx_bytes() > forward_bytes);
        let at = measure_matrix(store.graph(), store.matrix_kind())
            .transpose()
            .to_dense();
        for (stripe, rhs) in x.chunks_exact(16).zip(b.chunks_exact(16)) {
            for (got, want) in stripe.iter().zip(at.solve_gaussian(rhs).unwrap()) {
                assert!((got - want).abs() <= 1e-12, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn zero_right_hand_side_returns_zeros_after_one_pass() {
        // r₀ = S(0) − 0 = 0: accepted by the pass that computes it, before
        // anything divides by ‖r₀‖.
        let (store, telemetry) = ring_store();
        let x = store.snapshot().solve_measure_system(&[0.0; 6]).unwrap();
        assert_eq!(x, vec![0.0; 6]);
        assert_eq!(telemetry.coupling_sweeps().count(), 1);
        assert_eq!(telemetry.coupling_sweeps().max(), 1);
    }

    #[test]
    fn forced_restarts_reach_the_same_answer() {
        // A cycle of 3 Arnoldi steps cannot finish this solve, so the
        // iteration has to restart from a checked iterate — more passes,
        // same fixed point.
        let (store, telemetry) = scattered_store(SolveTolerance::default());
        let snap = store.snapshot();
        let n = snap.n_nodes();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let solve = |restart: usize| {
            let mut x = vec![0.0; n];
            let mut scratch = PanelBlockScratch::default();
            krylov_many(&snap, System::Forward, &b, 1, restart, &mut x, &mut scratch).unwrap();
            (x, telemetry.coupling_sweeps().max())
        };
        let (one_cycle, passes_one_cycle) = solve(RESTART);
        let (restarted, passes_restarted) = solve(3);
        // One cycle: residual, at most n Arnoldi steps, check.
        assert!(passes_one_cycle <= n as u64 + 2, "{passes_one_cycle}");
        assert!(
            passes_restarted > passes_one_cycle && passes_restarted > 3 + 2,
            "restart 3 took {passes_restarted} passes, one cycle {passes_one_cycle}"
        );
        let dense = measure_matrix(store.graph(), store.matrix_kind())
            .to_dense()
            .solve_gaussian(&b)
            .unwrap();
        for ((a, r), d) in one_cycle.iter().zip(&restarted).zip(&dense) {
            assert!((a - d).abs() <= 1e-12, "one cycle {a} vs dense {d}");
            assert!((r - d).abs() <= 1e-12, "restarted {r} vs dense {d}");
        }
    }

    #[test]
    fn a_failed_check_opens_the_next_cycle() {
        // A tolerance under the rounding noise of a pass: the first cycle's
        // iterate cannot pass its check, the check's iterate change seeds a
        // second cycle, and the floor-stagnation rule ends it — later than
        // the default tolerance would, at the same answer.
        let passes_and_answer = |tol: f64| {
            let (store, telemetry) = scattered_store(SolveTolerance {
                tol,
                max_sweeps: 200,
            });
            let x = store.snapshot().solve_measure_system(&[1.0; 40]).unwrap();
            (telemetry.coupling_sweeps().max(), x)
        };
        let (default_passes, default_x) = passes_and_answer(1e-13);
        let (floor_passes, floor_x) = passes_and_answer(3e-17);
        assert!(
            floor_passes >= default_passes + 2,
            "floor {floor_passes} vs default {default_passes}"
        );
        for (a, b) in default_x.iter().zip(&floor_x) {
            assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn budget_smaller_than_one_cycle_fails_loudly() {
        // Four passes are a residual and three Arnoldi steps: no check pass
        // ever ran on a Krylov iterate, so nothing may be returned.
        let tolerance = SolveTolerance {
            tol: 1e-13,
            max_sweeps: 4,
        };
        let (store, telemetry) = scattered_store(tolerance);
        let b = vec![1.0; 40];
        let err = store.snapshot().solve_measure_system(&b).unwrap_err();
        match err {
            LuError::ConvergenceFailure {
                iterations,
                last_diff,
            } => {
                assert_eq!(iterations, 4);
                assert!(last_diff.is_finite() && last_diff > 0.0, "{last_diff}");
            }
            other => panic!("expected ConvergenceFailure, got {other:?}"),
        }
        assert_eq!(
            telemetry.journal().count_of(EventKind::ConvergenceFailure),
            1
        );
        assert!(telemetry.coupling_sweeps().is_empty());
    }
}
