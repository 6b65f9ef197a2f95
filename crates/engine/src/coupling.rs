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
//! vector lives in the coupling's layout — each shard's segment in its factored
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
//! ordering (see `solve_system`); shards no edge crosses have a triangular
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
//! The layout and the coupling re-indexed into it are the shared structure
//! of the snapshot's [`FrozenCoupling`], which the store lays out anew only
//! when a cross-shard position, a shard's ordering or the partition
//! changes; a value-only batch gives it a new value array.  The traversal
//! order and the triangularity verdict are a pure function of (partition,
//! coupling values), a [`CouplingPlan`] built by the first coupled solve
//! that reads it — inside its `coupling.gauss_seidel` span — and shared
//! through the copy-on-write snapshot ring with its coupling.

// lint: hot-path

mod plan;

use plan::Half;
pub use plan::{CouplingPlan, CouplingStructure, FrozenCoupling};

use crate::store::EngineSnapshot;
use clude::DecomposedMatrix;
use clude_lu::{LuError, LuResult, SolveScratch};
use clude_sparse::vector::{axpy, dot};
use clude_telemetry::{Counter, EngineEvent, Stage};
use std::sync::Arc;

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

/// Solves `A x = b` (or `Aᵀ x = b`) for a snapshot's full measure matrix
/// `A = blockdiag(A_ss) + C`.
///
/// A NaN or ∞ anywhere in `b` is [`LuError::InvalidParameter`] (`rhs`,
/// the first such value) on every path.  A single shard without coupling is
/// one pair of substitutions; every other snapshot runs the plan's block
/// pass — once when the plan is triangular, fully decoupled shards
/// included, else under the Krylov iteration.  The first such solve after
/// the store froze a new coupling builds the plan, inside its
/// `coupling.gauss_seidel` span.
pub(crate) fn solve_system(snap: &EngineSnapshot, system: System, b: &[f64]) -> LuResult<Vec<f64>> {
    let n = snap.n_nodes();
    if b.len() != n {
        return Err(LuError::DimensionMismatch {
            expected: n,
            actual: b.len(),
        });
    }
    if let Some(&value) = b.iter().find(|v| !v.is_finite()) {
        return Err(LuError::InvalidParameter { name: "rhs", value });
    }
    // lint: allow(alloc-hot-path) — the returned solution: the one buffer
    // every path of a solve hands to its caller.
    let mut x = Vec::new();
    let shards = snap.shards();
    if shards.len() == 1 && snap.coupling_nnz() == 0 {
        let solve = match system {
            System::Forward => DecomposedMatrix::solve_into,
            System::Transposed => DecomposedMatrix::solve_transposed_into,
        };
        solve(&shards[0], b, &mut SolveScratch::new(), &mut x)?;
        return Ok(x);
    }
    if u32::try_from(n).is_err() {
        // The layout addresses the vector with `u32` positions.
        return Err(LuError::InvalidParameter {
            name: "n_nodes",
            value: n as f64,
        });
    }
    x.resize(n, 0.0);
    let telemetry = snap.telemetry();
    let span = telemetry.span(Stage::CouplingGaussSeidel);
    let result = krylov(snap, system, b, RESTART, &mut x);
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
/// (cold queries converge in 11–19 steps at any damping); 24 bounds the
/// basis at 25 vectors and the Hessenberg at 5 KB.
const RESTART: usize = 24;

/// One ordered block pass of `system`, in place on `v`, in the coupling's
/// layout: shard by shard in the plan's order (reversed for `Aᵀ`), each
/// shard's segment becomes `f·b − C·v` from the vector as it stands —
/// `f = 1` with `Some(b)`, `0` with `None` — and then its substitutions, so
/// the shards updated earlier in the pass already contribute their new
/// values.  The coupling never reads a shard's own segment, so the segment
/// is written and substituted in place.
fn block_pass(
    shards: &[Arc<DecomposedMatrix>],
    plan: &CouplingPlan,
    half: Half<'_>,
    system: System,
    b: Option<&[f64]>,
    v: &mut [f64],
) -> LuResult<()> {
    for k in 0..plan.gs_order().len() {
        let s = plan.shard_at(system, k);
        let segment = half.segment(s);
        if segment.is_empty() {
            continue;
        }
        for p in segment.clone() {
            v[p] = b.map_or(0.0, |b| b[p]) - half.coupling_dot(p, v);
        }
        let factors = &shards[s].factors;
        match system {
            System::Forward => factors.solve_in_place(&mut v[segment])?,
            System::Transposed => factors.solve_transposed_in_place(&mut v[segment])?,
        }
    }
    Ok(())
}

/// Restarted GMRES on `(I − G)·x = M⁻¹b` of `system`, writing the solution
/// into `x`.  `b` is laid out in the coupling's layout once, the iteration runs
/// there — the order the inner products sum in — and the accepted iterate is
/// read back once.  Each cycle is a check pass (`f = 1`) from the iterate —
/// from zero the first time, whose result is `S(0) = M⁻¹b` — then up to
/// `restart` Arnoldi passes (`f = 0`) on the newest basis vector, then the
/// least-squares update of the iterate.  The pass count at which a check
/// accepts is recorded into the telemetry registry's histogram.  A
/// triangular plan stops after the pass from zero, which is exact.
///
/// `restart` is [`RESTART`] outside tests.
fn krylov(
    snap: &EngineSnapshot,
    system: System,
    b: &[f64],
    restart: usize,
    x: &mut [f64],
) -> LuResult<()> {
    debug_assert!((1..=RESTART).contains(&restart));
    let tolerance = snap.tolerance();
    let shards = snap.shards();
    let plan = snap.coupling_plan();
    let half = snap.shared_coupling().half(system, snap.partition());
    let n = b.len();
    // The right-hand side and the iterate in the coupling's layout, and the
    // basis `v_0 … v_k` of the cycle, vectors of `n` back to back, followed
    // by the vector the next Arnoldi pass runs on.  While checking, slot 0
    // holds a copy of the iterate.  The basis grows by one vector the first
    // time a cycle reaches a length and is reused by every later cycle.
    // lint: allow(alloc-hot-path) — the solve's three buffers, once per solve.
    let (mut laid_b, mut laid_x, mut basis) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    half.permute_rhs(b, &mut laid_b);
    // The upper-triangular factor of the Givens-rotated Hessenberg (one
    // array per column of `R`), the rotations' cosines and sines, and the
    // rotated right-hand side `‖r₀‖·e₁`, whose entry `k` has the residual
    // 2-norm of the cycle's iterate after `k` steps as its magnitude.
    let mut r = [[0.0; RESTART]; RESTART];
    let (mut cs, mut sn) = ([0.0; RESTART], [0.0; RESTART]);
    let mut g = [0.0; RESTART + 1];
    let mut last_diff = f64::INFINITY;
    let mut pass = 0;
    let failed = |iterations: usize, last_diff: f64| LuError::ConvergenceFailure {
        iterations,
        last_diff,
    };
    loop {
        if pass == tolerance.max_sweeps {
            return Err(failed(pass, last_diff));
        }
        pass += 1;
        let swept = &mut basis[..n];
        block_pass(shards, plan, half, system, Some(&laid_b), swept)?;
        if plan.is_triangular() {
            // Block triangular coupling: the pass from zero is the exact
            // solve.
            half.recover_solution(swept, x);
            snap.telemetry().observe_coupling_sweeps(1);
            return Ok(());
        }
        let (diff, scale) = diff_and_scale(swept, &laid_x);
        if !(diff.is_finite() && scale.is_finite()) {
            return Err(failed(pass, if diff.is_finite() { scale } else { diff }));
        }
        if tolerance.accepted(diff, scale, last_diff) {
            half.recover_solution(swept, x);
            snap.telemetry().observe_coupling_sweeps(pass as u64);
            return Ok(());
        }
        last_diff = diff;
        // Open a cycle at the iterate: v₀ = r₀/‖r₀‖ with r₀ = S(x) − x.
        // `diff > 0` here, so the norm is positive.
        for (ri, &xi) in swept.iter_mut().zip(&laid_x) {
            *ri -= xi;
        }
        let beta = dot(swept, swept).sqrt();
        for ri in swept.iter_mut() {
            *ri /= beta;
        }
        g[0] = beta;
        let mut steps = 0;
        while steps < restart {
            if pass == tolerance.max_sweeps {
                return Err(failed(pass, last_diff));
            }
            pass += 1;
            let j = steps;
            let next = (j + 1) * n;
            if basis.len() < next + n {
                basis.resize(next + n, 0.0);
            }
            basis.copy_within(next - n..next, next);
            let (vs, rest) = basis.split_at_mut(next);
            let w = &mut rest[..n];
            block_pass(shards, plan, half, system, None, w)?;
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
            // Rotate the new Hessenberg column into R and the right-hand
            // side with it.
            for i in 0..j {
                let (a, b) = (h[i], h[i + 1]);
                h[i] = cs[i] * a + sn[i] * b;
                h[i + 1] = cs[i] * b - sn[i] * a;
            }
            let denom = h[j].hypot(h_next);
            cs[j] = h[j] / denom;
            sn[j] = h_next / denom;
            h[j] = denom;
            r[j][..=j].copy_from_slice(&h[..=j]);
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            steps = j + 1;
            let residual = g[j + 1].abs();
            if !residual.is_finite() {
                return Err(failed(pass, residual));
            }
            // ‖r‖∞ ≤ ‖r‖₂, so an estimate under the tolerance is an iterate
            // the check pass will accept.  An exhausted Krylov space
            // (`h_next == 0`, the lucky breakdown) reads as a zero estimate
            // and closes the cycle the same way.
            if residual <= tolerance.tol * scale {
                break;
            }
            for wi in w.iter_mut() {
                *wi /= h_next;
            }
        }
        // Close the cycle: solve the rotated least-squares problem
        // `R·y = g`, move the iterate to `x + V·y`, and copy it into slot 0
        // for the next check.
        let mut y = [0.0; RESTART];
        for i in (0..steps).rev() {
            let tail: f64 = (i + 1..steps).map(|l| r[l][i] * y[l]).sum();
            y[i] = (g[i] - tail) / r[i][i];
        }
        for (v, &yi) in basis.chunks_exact(n).zip(&y[..steps]) {
            axpy(yi, v, &mut laid_x);
        }
        basis[..n].copy_from_slice(&laid_x);
    }
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
        let tolerance = SolveTolerance::default();
        assert_eq!(tolerance.tol, 1e-13);
        assert_eq!(tolerance.max_sweeps, 208);
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

    /// `matrix` laid out over `partition` under identity orderings.
    fn laid_out(partition: &NodePartition, matrix: &CsrMatrix) -> Arc<FrozenCoupling> {
        let identity = (0..partition.n_shards())
            .map(|s| {
                Arc::new(clude_sparse::Ordering::identity(
                    partition.nodes_of(s).len(),
                ))
            })
            .collect();
        FrozenCoupling::new(partition, identity, matrix, false)
    }

    #[test]
    fn trivial_plan_is_identity_order_without_correction() {
        let partition = NodePartition::contiguous(6, 3);
        let empty = laid_out(&partition, &CsrMatrix::from_coo(&CooMatrix::new(6, 6)));
        let plan = empty.plan(&partition, &[]);
        assert!(plan.is_triangular());
        assert_eq!(plan.gs_order(), &[0, 1, 2]);
        let forward = empty.half(System::Forward, &partition);
        let segments: Vec<_> = (0..3).map(|s| forward.segment(s)).collect();
        assert_eq!(segments, vec![0..2, 2..4, 4..6]);
        // The order as words; the row offsets, the layout's orderings and
        // offsets as words and its three maps as `u32`s; no coupling entry
        // and no value.
        let word = std::mem::size_of::<usize>();
        assert_eq!(plan.approx_bytes(), 3 * word);
        assert_eq!(
            empty.resident_bytes(&mut std::collections::HashSet::new()),
            (3 + 7 + 3 + 4) * word + 18 * std::mem::size_of::<u32>()
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
        let order_of = |coo: &CooMatrix| {
            gauss_seidel_order(&partition, &laid_out(&partition, &CsrMatrix::from_coo(coo)))
        };
        // Shard 1 has no dependencies -> first; shard 2's dependency on
        // shard 0 is the heaviest -> it must come after shard 0.  The chain
        // 2 <- 0 <- 1 is acyclic, so the order is also a triangular one.
        assert_eq!(order_of(&coo), (vec![1, 0, 2], true));
        // Closing the cycle (shard 1 <- shard 2) leaves only the greedy
        // least-pending-weight order, and one pass is no longer exact: shard
        // 0 reads the least, and with it placed shard 2 reads nothing
        // pending.
        coo.push(2, 4, -0.2).unwrap();
        let cyclic = laid_out(&partition, &CsrMatrix::from_coo(&coo));
        assert_eq!(
            gauss_seidel_order(&partition, &cyclic),
            (vec![0, 2, 1], false)
        );
        // Zeroing the closing entry leaves a zero slot, which is no
        // dependency: the acyclic order and verdict come back.
        let opened = cyclic.written(&mut [(2, 4, 0.0)]);
        assert_eq!(opened.structure().slots(), 4);
        assert_eq!(
            gauss_seidel_order(&partition, &opened),
            (vec![1, 0, 2], true)
        );
        // No coupling: identity order.
        assert_eq!(order_of(&CooMatrix::new(6, 6)), (vec![0, 1, 2], true));
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
            f64::INFINITY,
            partition,
        )
        .unwrap()
        .with_telemetry(Arc::clone(&telemetry))
        .with_tolerance(tolerance)
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

    /// Every non-finite value, at the first and at the last position of the
    /// right-hand side, is refused as `InvalidParameter { name: "rhs" }`
    /// naming it — before any block pass, so no coupled solve is counted,
    /// journalled or sampled.
    fn assert_rhs_rejected(
        store: &ShardedFactorStore,
        telemetry: &TelemetryRegistry,
        system: System,
    ) {
        let snap = store.snapshot();
        let n = snap.n_nodes();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, n - 1] {
                let mut b = vec![1.0; n];
                b[at] = bad;
                let err = match system {
                    System::Forward => snap.solve_measure_system(&b),
                    System::Transposed => snap.solve_transposed_system(&b),
                }
                .unwrap_err();
                assert!(
                    matches!(
                        err,
                        LuError::InvalidParameter { name: "rhs", value }
                            if value.to_bits() == bad.to_bits()
                    ),
                    "{bad} at {at}: {err:?}"
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
            f64::INFINITY,
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
        // A finite right-hand side through the same snapshot still solves.
        assert!(store.snapshot().solve_measure_system(&[1.0; 16]).is_ok());
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
        // right-hand side builds it and solves `Aᵀ x = b`.
        let snap = store.snapshot();
        assert!(snap.shared_coupling().built_plan().is_none());
        let bytes = || {
            let seen = &mut std::collections::HashSet::new();
            snap.shared_coupling().resident_bytes(seen)
        };
        let forward_bytes = bytes();
        let at = measure_matrix(store.graph(), store.matrix_kind())
            .transpose()
            .to_dense();
        for b in [[1.0; 16], std::array::from_fn(|i| 1.0 + (i % 3) as f64)] {
            let x = snap.solve_transposed_system(&b).unwrap();
            assert!(bytes() > forward_bytes);
            for (got, want) in x.iter().zip(at.solve_gaussian(&b).unwrap()) {
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
            krylov(&snap, System::Forward, &b, restart, &mut x).unwrap();
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
