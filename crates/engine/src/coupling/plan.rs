//! The frozen coupling snapshots share, and the metadata of a coupled solve
//! over it: the shard traversal order of the block pass and whether that
//! order makes the coupling block triangular.
//!
//! The plan is built by the first coupled solve that reads it — the setup
//! path, which is why it lives apart from the allocation-free solve in
//! [`super`] — so a batch that writes the coupling pays only the CSR merge.

use clude_graph::NodePartition;
use clude_sparse::CsrMatrix;
use std::sync::{Arc, OnceLock};

/// The cross-shard coupling as the store holds it and snapshots share it,
/// behind one [`Arc`]: the frozen CSR and the plan cell that the first
/// coupled solve on any snapshot holding the handle fills, so snapshots
/// share their plan by pointer exactly when they share their coupling.
#[derive(Debug)]
pub struct FrozenCoupling {
    matrix: CsrMatrix,
    plan: OnceLock<CouplingPlan>,
}

impl FrozenCoupling {
    /// Freezes `matrix` with an empty plan cell.
    pub(crate) fn new(matrix: CsrMatrix) -> Arc<Self> {
        Arc::new(FrozenCoupling {
            matrix,
            plan: OnceLock::new(),
        })
    }

    /// The cross-shard entries, global coordinates, no stored zeros.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The plan over `partition`, built by the first call.  Callers pass the
    /// partition the coupling was frozen under — a repartition freezes a new
    /// coupling — so the cell never holds another partition's plan.
    pub(crate) fn plan(&self, partition: &NodePartition) -> &CouplingPlan {
        self.plan
            .get_or_init(|| CouplingPlan::build(partition, &self.matrix))
    }

    /// The plan if a solve has built it; never builds one.
    pub(crate) fn built_plan(&self) -> Option<&CouplingPlan> {
        self.plan.get()
    }
}

/// Frozen metadata of the coupled solve over one [`FrozenCoupling`] — a
/// pure function of (partition, frozen coupling), so where and when it is
/// built changes no bit of any answer.
#[derive(Debug)]
pub struct CouplingPlan {
    /// Shard traversal order of the block Gauss–Seidel pass,
    /// least-dependent shard first.
    gs_order: Vec<usize>,
    /// Whether the shard dependency digraph is acyclic and `gs_order` is a
    /// topological order of it — block triangular form.  When set, one
    /// block pass in `gs_order` is the *exact* solve (every coupling entry a
    /// shard reads was updated earlier in the same pass), so the solve
    /// returns after a single pass.
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

    /// The shard traversal order of the block Gauss–Seidel pass.
    pub fn gs_order(&self) -> &[usize] {
        &self.gs_order
    }

    /// Whether the cross-shard structure is block triangular under
    /// `gs_order` — when true, coupled solves are direct (one block pass,
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

/// Derives the Gauss–Seidel shard traversal order from the coupling's
/// shard-to-shard dependency weights, with the triangularity verdict: a
/// topological order of the dependency digraph when it is acyclic (the
/// block-triangular case — one pass in that order is the exact solve), else
/// the greedy least-pending-weight order of [`greedy_order_from_weights`].
///
/// Triangularity is detected from the *actual* frozen coupling, so it never
/// depends on where the partition came from: a BTF partition gets its
/// one-pass guarantee verified here, and any partition whose
/// cross-structure happens to be acyclic gets the same direct solve for
/// free.
pub(super) fn gauss_seidel_order(
    partition: &NodePartition,
    coupling: &CsrMatrix,
) -> (Vec<usize>, bool) {
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
/// `j ∈ t`: how much shard `s`'s rows read shard `t`'s solution.  The
/// coupling holds cross-shard entries only, so the diagonal stays zero (and
/// neither order below reads it).
///
/// Accumulated in the CSR's row-major order — one `shard_of` per row, one
/// per entry — so the sums, and with them the order and the triangularity
/// verdict, are a bit-identical function of (partition, coupling) that
/// recovery reproduces.
fn shard_dependency_weights(k: usize, partition: &NodePartition, coupling: &CsrMatrix) -> Vec<f64> {
    let mut w = vec![0.0f64; k * k];
    for i in 0..coupling.n_rows() {
        let (cols, vals) = coupling.row(i);
        let reads = &mut w[partition.shard_of(i) * k..][..k];
        for (&j, v) in cols.iter().zip(vals) {
            reads[partition.shard_of(j)] += v.abs();
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
/// least remaining dependency weight on shards not yet updated this pass,
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
