//! The frozen coupling snapshots share, and the metadata of a coupled solve
//! over it: the shard traversal order of the block pass, whether that order
//! makes the coupling block triangular, and the vector layout the pass runs
//! in — each shard's segment in its factored order, shards back to back,
//! with the coupling re-indexed into it.
//!
//! The plan is a pure function of (partition, coupling, the shards'
//! orderings).  It is built by the first coupled solve that reads it — the
//! setup path, which is why it lives apart from the allocation-free solve in
//! [`super`] — so a batch that writes the coupling pays only the CSR merge;
//! and every batch that moves an ordering freezes a new [`FrozenCoupling`],
//! so one plan cell serves exactly the snapshots it was built for.  Its
//! transposed half is built by the first transposed solve in turn.

use super::System;
use crate::store::ShardSnapshot;
use clude_graph::NodePartition;
use clude_sparse::vector::sparse_dot;
use clude_sparse::{CsrMatrix, Ordering};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cross-shard coupling as the store holds it and snapshots share it,
/// behind one [`Arc`]: the frozen CSR and the plan cell that the first
/// coupled solve on any snapshot holding the handle fills, so snapshots
/// share their plan by pointer exactly when they share their coupling.
#[derive(Debug)]
pub struct FrozenCoupling {
    /// Shared with the couplings re-frozen over it (an ordering moved, no
    /// cross-shard entry did).
    matrix: Arc<CsrMatrix>,
    plan: OnceLock<CouplingPlan>,
}

impl FrozenCoupling {
    /// Freezes `matrix` with an empty plan cell.
    pub(crate) fn new(matrix: CsrMatrix) -> Arc<Self> {
        Arc::new(FrozenCoupling {
            matrix: Arc::new(matrix),
            plan: OnceLock::new(),
        })
    }

    /// The same matrix under an empty plan cell: what the store freezes
    /// when a shard's ordering moved and no cross-shard entry did.
    pub(crate) fn refrozen(&self) -> Arc<Self> {
        Arc::new(FrozenCoupling {
            matrix: Arc::clone(&self.matrix),
            plan: OnceLock::new(),
        })
    }

    /// The cross-shard entries, global coordinates, no stored zeros.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// The matrix's handle, shared by every coupling re-frozen over it — the
    /// identity a memory accounting counts it by.
    pub(crate) fn shared_matrix(&self) -> &Arc<CsrMatrix> {
        &self.matrix
    }

    /// The plan over `partition` and the orderings of `shards`, built by
    /// the first call.  Callers pass the partition and blocks the coupling
    /// was frozen with — a repartition or a moved ordering freezes a new
    /// coupling — so the cell never holds a plan over other orderings.
    pub(crate) fn plan(
        &self,
        partition: &NodePartition,
        shards: &[ShardSnapshot],
    ) -> &CouplingPlan {
        let plan = self.plan.get_or_init(|| {
            let orderings = shards
                .iter()
                .map(|shard| Arc::clone(&shard.decomposed().ordering))
                .collect();
            CouplingPlan::build(partition, &self.matrix, orderings)
        });
        debug_assert!(
            plan.orderings
                .iter()
                .zip(shards)
                .all(|(o, shard)| Arc::ptr_eq(o, &shard.decomposed().ordering)),
            "a shard's ordering moved without a re-freeze of the coupling"
        );
        plan
    }

    /// The plan if a solve has built it; never builds one.
    pub(crate) fn built_plan(&self) -> Option<&CouplingPlan> {
        self.plan.get()
    }
}

/// Frozen metadata of the coupled solve over one [`FrozenCoupling`] — a
/// pure function of (partition, frozen coupling, shard orderings), so where
/// and when it is built changes no bit of any answer.
///
/// **The layout.**  The pass runs on vectors of `n` entries laid out shard
/// by shard, each shard's segment in its factored order: a right-hand side
/// entry at the position of its row in `P_s`, a solution entry at the
/// position of its column in `Q_s`.  A shard's segment is then exactly what
/// its substitutions read and write, and the coupling — re-indexed so that
/// layout row `p` is the coupling row of the node whose right-hand side sits
/// at `p`, its columns the layout positions of the solution entries it
/// reads — is walked straight into it.
///
/// **The transpose.**  `(A^O)ᵀ = Qᵀ Aᵀ Pᵀ`: a transposed solve swaps the
/// two position maps, reads `Cᵀ` re-indexed under them, and visits shards
/// in reverse `gs_order` — topological for `Cᵀ` whenever it is for `C`.
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
    /// The shard orderings the layout follows, by shard — held so that a
    /// debug build can check on every solve that the snapshot's blocks are
    /// still under them.
    orderings: Vec<Arc<Ordering>>,
    /// Shard `s`'s segment is `offsets[s]..offsets[s + 1]`.
    offsets: Vec<usize>,
    /// The forward pass's half, and the CSR it was re-indexed from.
    forward: Half,
    matrix: Arc<CsrMatrix>,
    /// The transposed pass's half, built by the first transposed solve.
    transposed: OnceLock<Half>,
}

/// One direction's half of a plan: where each node's right-hand side and
/// solution entries sit in the layout, and the coupling the pass reads
/// re-indexed into it — CSR over layout rows, `u32` columns.
#[derive(Debug)]
pub(crate) struct Half {
    rhs_pos: Vec<u32>,
    x_pos: Vec<u32>,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Half {
    /// `coupling` with row `g` at layout row `rhs_pos[g]` and column `j` at
    /// layout position `x_pos[j]`.
    fn new(coupling: &CsrMatrix, rhs_pos: Vec<u32>, x_pos: Vec<u32>) -> Self {
        let n = rhs_pos.len();
        let mut row_ptr = vec![0usize; n + 1];
        for (g, &p) in rhs_pos.iter().enumerate() {
            row_ptr[p as usize + 1] = coupling.row(g).0.len();
        }
        for p in 0..n {
            row_ptr[p + 1] += row_ptr[p];
        }
        let mut cols = vec![0u32; coupling.nnz()];
        let mut vals = vec![0.0f64; coupling.nnz()];
        for (g, &p) in rhs_pos.iter().enumerate() {
            let (row_cols, row_vals) = coupling.row(g);
            let at = row_ptr[p as usize];
            for (e, (&j, &v)) in row_cols.iter().zip(row_vals).enumerate() {
                cols[at + e] = x_pos[j];
                vals[at + e] = v;
            }
        }
        Half {
            rhs_pos,
            x_pos,
            row_ptr,
            cols,
            vals,
        }
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_ptr.len() * size_of::<usize>()
            + (self.rhs_pos.len() + self.x_pos.len() + self.cols.len()) * size_of::<u32>()
            + self.vals.len() * size_of::<f64>()
    }

    /// `(C·v)` at layout row `p`, for `v` in the layout.
    #[inline]
    pub(crate) fn coupling_dot(&self, p: usize, v: &[f64]) -> f64 {
        let entries = self.row_ptr[p]..self.row_ptr[p + 1];
        sparse_dot(&self.vals[entries.clone()], &self.cols[entries], v)
    }

    /// Lays the right-hand side `b` (global node order) out into `out`.
    pub(crate) fn permute_rhs(&self, b: &[f64], out: &mut [f64]) {
        for (&bg, &p) in b.iter().zip(&self.rhs_pos) {
            out[p as usize] = bg;
        }
    }

    /// Reads the solution `x` (in the layout) back into global node order.
    pub(crate) fn recover_solution(&self, x: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(&self.x_pos) {
            *o = x[p as usize];
        }
    }
}

impl CouplingPlan {
    /// Builds the plan for one frozen (partition, coupling, orderings)
    /// triple.  The coupled solve refuses universes whose positions do not
    /// fit a `u32` before it builds a plan.
    pub(crate) fn build(
        partition: &NodePartition,
        coupling: &Arc<CsrMatrix>,
        orderings: Vec<Arc<Ordering>>,
    ) -> Self {
        let (gs_order, triangular) = gauss_seidel_order(partition, coupling);
        let n = partition.n_nodes();
        let mut offsets = Vec::with_capacity(orderings.len() + 1);
        offsets.push(0);
        let mut rhs_pos = vec![0u32; n];
        let mut x_pos = vec![0u32; n];
        for (s, ordering) in orderings.iter().enumerate() {
            let (at, nodes) = (offsets[s], partition.nodes_of(s));
            for (i, &l) in ordering.row().as_new_to_old().iter().enumerate() {
                rhs_pos[nodes[l]] = (at + i) as u32;
            }
            for (j, &l) in ordering.col().as_new_to_old().iter().enumerate() {
                x_pos[nodes[l]] = (at + j) as u32;
            }
            offsets.push(at + nodes.len());
        }
        CouplingPlan {
            gs_order,
            triangular,
            orderings,
            offsets,
            forward: Half::new(coupling, rhs_pos, x_pos),
            matrix: Arc::clone(coupling),
            transposed: OnceLock::new(),
        }
    }

    /// The shard traversal order of the block Gauss–Seidel pass.
    pub fn gs_order(&self) -> &[usize] {
        &self.gs_order
    }

    /// Whether the cross-shard structure is block triangular under
    /// `gs_order` — when true, coupled solves are direct (one block pass,
    /// exact), transposed ones included.
    pub fn is_triangular(&self) -> bool {
        self.triangular
    }

    /// Resident size in bytes — the order, the layout maps and the
    /// re-indexed coupling, the transposed half's once a solve built it —
    /// for the engine's snapshot-ring memory accounting.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.gs_order.len() + self.orderings.len() + self.offsets.len()) * size_of::<usize>()
            + self.forward.approx_bytes()
            + self.transposed.get().map_or(0, Half::approx_bytes)
    }

    /// Shard `s`'s segment of the layout.
    pub(crate) fn segment(&self, s: usize) -> Range<usize> {
        self.offsets[s]..self.offsets[s + 1]
    }

    /// The shard a pass of `system` visits `k`-th.
    #[inline]
    pub(crate) fn shard_at(&self, system: System, k: usize) -> usize {
        match system {
            System::Forward => self.gs_order[k],
            System::Transposed => self.gs_order[self.gs_order.len() - 1 - k],
        }
    }

    /// The half of `system`; the first call for the transpose builds it.
    pub(crate) fn half(&self, system: System) -> &Half {
        let Half { rhs_pos, x_pos, .. } = &self.forward;
        match system {
            System::Forward => &self.forward,
            System::Transposed => self.transposed.get_or_init(|| {
                Half::new(&self.matrix.transpose(), x_pos.clone(), rhs_pos.clone())
            }),
        }
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
        // No coupling: triangular, so decoupled shards take one pass.
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

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::{CooMatrix, Permutation};

    /// Two interleaved shards of three nodes, shard 0 under a row order
    /// other than its column order, every coupling entry a dyadic value so
    /// that every sum below is exact.
    fn plan() -> (NodePartition, CsrMatrix, CouplingPlan) {
        let partition = NodePartition::from_assignments(vec![0, 1, 0, 1, 1, 0]);
        let perm = |p: Vec<usize>| Permutation::from_new_to_old(p).unwrap();
        let orderings = vec![
            Arc::new(Ordering::new(perm(vec![2, 0, 1]), perm(vec![1, 2, 0]))),
            Arc::new(Ordering::symmetric(perm(vec![1, 2, 0]))),
        ];
        let mut coo = CooMatrix::new(6, 6);
        for (i, j, v) in [
            (0, 1, -0.5),
            (0, 3, -0.25),
            (2, 4, -1.0),
            (1, 0, -0.375),
            (4, 5, -0.125),
            (4, 2, -2.0),
            (3, 2, -0.0625),
        ] {
            coo.push(i, j, v).unwrap();
        }
        let coupling = CsrMatrix::from_coo(&coo);
        let plan = CouplingPlan::build(&partition, &Arc::new(coupling.clone()), orderings);
        (partition, coupling, plan)
    }

    #[test]
    fn the_layout_is_each_shard_in_its_factored_order() {
        let (partition, _, plan) = plan();
        assert_eq!((plan.segment(0), plan.segment(1)), (0..3, 3..6));
        // Shard 0 holds nodes [0, 2, 5]: its right-hand sides sit in row
        // order [5, 0, 2], its solutions in column order [2, 5, 0]; shard 1
        // holds [1, 3, 4] in the order [3, 4, 1] for both.
        let b: Vec<f64> = (0..6).map(|g| g as f64).collect();
        let mut laid = vec![f64::NAN; 6];
        plan.forward.permute_rhs(&b, &mut laid);
        assert_eq!(laid, vec![5.0, 0.0, 2.0, 3.0, 4.0, 1.0]);
        let mut x = vec![f64::NAN; 6];
        plan.forward
            .recover_solution(&[2.0, 5.0, 0.0, 3.0, 4.0, 1.0], &mut x);
        assert_eq!(x, b);
        // The transpose swaps the two maps.
        plan.half(System::Transposed).permute_rhs(&b, &mut laid);
        assert_eq!(laid, vec![2.0, 5.0, 0.0, 3.0, 4.0, 1.0]);
        plan.half(System::Transposed)
            .recover_solution(&[5.0, 0.0, 2.0, 3.0, 4.0, 1.0], &mut x);
        assert_eq!(x, b);
        assert_eq!(plan.forward.x_pos, [2, 5, 0, 3, 4, 1]);
        for g in 0..6 {
            let s = partition.shard_of(g);
            assert!(plan
                .segment(s)
                .contains(&(plan.forward.rhs_pos[g] as usize)));
            assert!(plan.segment(s).contains(&(plan.forward.x_pos[g] as usize)));
        }
    }

    #[test]
    fn the_reindexed_coupling_is_the_coupling() {
        let (_, coupling, plan) = plan();
        let x: Vec<f64> = (0..6).map(|g| 1.0 + g as f64).collect();
        let mut laid_x = vec![0.0; 6];
        for (g, &p) in plan.forward.x_pos.iter().enumerate() {
            laid_x[p as usize] = x[g];
        }
        let cx = coupling.mul_vec(&x).unwrap();
        let laid_cx: Vec<f64> = (0..6)
            .map(|p| plan.forward.coupling_dot(p, &laid_x))
            .collect();
        let mut expected = vec![0.0; 6];
        plan.forward.permute_rhs(&cx, &mut expected);
        assert_eq!(laid_cx, expected);
        assert_eq!(plan.forward.cols.len(), coupling.nnz());
        assert!(
            plan.transposed.get().is_none(),
            "building the plan builds no transpose"
        );
    }

    #[test]
    fn the_transposed_half_is_the_transposed_coupling() {
        let (_, coupling, plan) = plan();
        let forward_bytes = plan.approx_bytes();
        let y: Vec<f64> = (0..6).map(|g| 1.0 + g as f64).collect();
        // The transpose's solution entries sit at the forward right-hand
        // side positions.
        let mut laid_y = vec![0.0; 6];
        for (g, &p) in plan.forward.rhs_pos.iter().enumerate() {
            laid_y[p as usize] = y[g];
        }
        let cty = coupling.mul_vec_transposed(&y).unwrap();
        let half = plan.half(System::Transposed);
        let laid_cty: Vec<f64> = (0..6).map(|p| half.coupling_dot(p, &laid_y)).collect();
        let mut expected = vec![0.0; 6];
        half.permute_rhs(&cty, &mut expected);
        assert_eq!(laid_cty, expected);
        // Built once, counted once.
        assert!(plan.transposed.get().is_some());
        assert_eq!(
            plan.approx_bytes() - forward_bytes,
            plan.forward.approx_bytes()
        );
        assert_eq!(
            (0..2)
                .map(|k| plan.shard_at(System::Transposed, k))
                .collect::<Vec<_>>(),
            plan.gs_order().iter().rev().copied().collect::<Vec<_>>()
        );
    }
}
