//! The frozen coupling snapshots share, and the metadata of a coupled solve
//! over it.
//!
//! A [`FrozenCoupling`] is a shared [`CouplingStructure`] — the layout the
//! block pass runs in and the coupling's pattern re-indexed into it — plus
//! one value array per snapshot, in the structure's slot order.  Writes that
//! all land on slots copy the value array, a removed entry staying behind as
//! an explicit zero slot; a new position merges into a structure of its
//! own, dropping the zero slots; a moved ordering or a restore lays the
//! structure out anew.  What depends on the values — the
//! [`CouplingPlan`] and the transposed half — is built per snapshot by the
//! first solve that reads it: the setup path, which is why it lives apart
//! from the allocation-free solve in [`super`].

use super::System;
use clude::DecomposedMatrix;
use clude_graph::NodePartition;
use clude_sparse::vector::sparse_dot;
use clude_sparse::{CsrMatrix, Ordering};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The cross-shard coupling as the store holds it and snapshots share it,
/// behind one [`Arc`]: the structure, this snapshot's values over it, and
/// the cells the first coupled solves fill — so snapshots share their plan
/// by pointer exactly when they share their coupling.
#[derive(Debug)]
pub struct FrozenCoupling {
    /// Shared across value-only batches.
    structure: Arc<CouplingStructure>,
    /// One value per slot, in slot order; `nnz` of them nonzero.
    vals: Vec<f64>,
    nnz: usize,
    plan: OnceLock<CouplingPlan>,
    /// `Cᵀ` laid out for the transposed pass, built by the first
    /// transposed solve.
    transposed: OnceLock<Arc<FrozenCoupling>>,
}

/// The part of a [`FrozenCoupling`] snapshots share across value-only
/// batches, a function of (partition, pattern, shard orderings).
///
/// **The layout.**  The pass runs on vectors of `n` entries laid out shard
/// by shard, each shard's segment in its factored order: a right-hand side
/// entry at the position of its row in `P_s`, a solution entry at the
/// position of its column in `Q_s`.  A shard's segment is then exactly what
/// its substitutions read and write, and the coupling — re-indexed so that
/// layout row `p` is the coupling row of the node whose right-hand side sits
/// at `p`, its columns the layout positions of the solution entries it
/// reads — is walked straight into it.  Each row keeps its global column
/// order, so a sum over a row runs in the order it ran over the global CSR.
///
/// **The transpose.**  `(A^O)ᵀ = Qᵀ Aᵀ Pᵀ`: a transposed solve swaps the
/// two position maps, reads `Cᵀ` re-indexed under them, and visits shards
/// in reverse `gs_order` — topological for `Cᵀ` whenever it is for `C`.
#[derive(Debug)]
pub struct CouplingStructure {
    /// Shared by every structure over the same partition and orderings.
    layout: Arc<Layout>,
    /// CSR over layout rows: each slot's layout column, and its global one
    /// — what a write finds its slot by and a merge orders a row by.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    nodes: Vec<u32>,
}

/// One direction's half of a pass as plain slices — where each node's
/// right-hand side and solution entries sit in the layout, and the
/// coupling the pass reads re-indexed into it — so the pass's loop loads
/// them once instead of through the coupling's cells.
#[derive(Clone, Copy)]
pub(crate) struct Half<'a> {
    offsets: &'a [usize],
    rhs_pos: &'a [u32],
    x_pos: &'a [u32],
    row_ptr: &'a [usize],
    cols: &'a [u32],
    vals: &'a [f64],
}

impl Half<'_> {
    /// Shard `s`'s segment of the layout.
    pub(crate) fn segment(&self, s: usize) -> Range<usize> {
        self.offsets[s]..self.offsets[s + 1]
    }

    /// `(C·v)` at layout row `p`, for `v` in the layout.
    #[inline]
    pub(crate) fn coupling_dot(&self, p: usize, v: &[f64]) -> f64 {
        let entries = self.row_ptr[p]..self.row_ptr[p + 1];
        sparse_dot(&self.vals[entries.clone()], &self.cols[entries], v)
    }

    /// Lays the right-hand side `b` (global node order) out into `out`.
    pub(crate) fn permute_rhs(&self, b: &[f64], out: &mut [f64]) {
        for (&bg, &p) in b.iter().zip(self.rhs_pos) {
            out[p as usize] = bg;
        }
    }

    /// Reads the solution `x` (in the layout) back into global node order.
    pub(crate) fn recover_solution(&self, x: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(self.x_pos) {
            *o = x[p as usize];
        }
    }
}

/// The vector layout of one (partition, shard orderings) pair.
#[derive(Debug)]
struct Layout {
    /// The shard orderings the layout follows, by shard — held so that a
    /// debug build can check on every solve that the snapshot's blocks are
    /// still under them.
    orderings: Vec<Arc<Ordering>>,
    /// Shard `s`'s segment is `offsets[s]..offsets[s + 1]`.
    offsets: Vec<usize>,
    /// Where each node's right-hand side and solution entries sit, and the
    /// node each layout row belongs to.
    rhs_pos: Vec<u32>,
    x_pos: Vec<u32>,
    rows: Vec<u32>,
}

impl Layout {
    /// The layout of `partition` under `orderings`, their row and column
    /// permutations swapped when `swap` (the transposed pass).
    fn new(partition: &NodePartition, orderings: Vec<Arc<Ordering>>, swap: bool) -> Arc<Self> {
        let n = partition.n_nodes();
        let (mut rhs_pos, mut x_pos) = (vec![0u32; n], vec![0u32; n]);
        let (mut offsets, mut rows) = (vec![0], Vec::with_capacity(n));
        for (s, ordering) in orderings.iter().enumerate() {
            let (at, members) = (offsets[s], partition.nodes_of(s));
            let (mut p, mut q) = (ordering.row(), ordering.col());
            if swap {
                (p, q) = (q, p);
            }
            for (i, &l) in p.as_new_to_old().iter().enumerate() {
                rhs_pos[members[l]] = (at + i) as u32;
                rows.push(members[l] as u32);
            }
            for (j, &l) in q.as_new_to_old().iter().enumerate() {
                x_pos[members[l]] = (at + j) as u32;
            }
            offsets.push(at + members.len());
        }
        Arc::new(Layout {
            orderings,
            offsets,
            rhs_pos,
            x_pos,
            rows,
        })
    }
}

/// A structure's slots under construction: layout columns, global columns
/// and values.
struct Slots(Vec<u32>, Vec<u32>, Vec<f64>);

impl Slots {
    fn with_capacity(n: usize) -> Self {
        Slots(
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        )
    }

    /// Appends global column `j` at layout column `l` unless `v` is zero.
    fn push(&mut self, l: u32, j: u32, v: f64) {
        if v != 0.0 {
            self.0.push(l);
            self.1.push(j);
            self.2.push(v);
        }
    }

    /// Appends `from`'s slots `range` with their `values`, zero slots
    /// dropped one by one.
    fn extend_live(&mut self, from: &CouplingStructure, values: &[f64], range: Range<usize>) {
        for e in range {
            self.push(from.cols[e], from.nodes[e], values[e]);
        }
    }

    /// Appends `from`'s slots `range` with their `values`, in bulk.
    fn extend(&mut self, from: &CouplingStructure, values: &[f64], range: Range<usize>) {
        self.0.extend_from_slice(&from.cols[range.clone()]);
        self.1.extend_from_slice(&from.nodes[range.clone()]);
        self.2.extend_from_slice(&values[range]);
    }

    /// [`Slots::extend_live`] with each layout column `c` moved to `to[c]`.
    fn relay_live(
        &mut self,
        from: &CouplingStructure,
        values: &[f64],
        range: Range<usize>,
        to: &[u32],
    ) {
        for e in range {
            self.push(to[from.cols[e] as usize], from.nodes[e], values[e]);
        }
    }

    /// [`Slots::extend`] with each layout column `c` moved to `to[c]`.
    fn relay(&mut self, from: &CouplingStructure, values: &[f64], range: Range<usize>, to: &[u32]) {
        self.0
            .extend(from.cols[range.clone()].iter().map(|&c| to[c as usize]));
        self.1.extend_from_slice(&from.nodes[range.clone()]);
        self.2.extend_from_slice(&values[range]);
    }
}

impl CouplingStructure {
    /// The slots of node `g`'s row.
    fn row(&self, g: usize) -> Range<usize> {
        let p = self.layout.rhs_pos[g] as usize;
        self.row_ptr[p]..self.row_ptr[p + 1]
    }

    /// The slot of layout row `p`, global column `c`, if the pattern holds
    /// it.
    fn slot(&self, p: usize, c: usize) -> Option<usize> {
        let row = self.row_ptr[p]..self.row_ptr[p + 1];
        let at = self.nodes[row.clone()].binary_search(&(c as u32)).ok()?;
        Some(row.start + at)
    }

    /// Number of slots, zero slots included.
    pub(crate) fn slots(&self) -> usize {
        self.cols.len()
    }
}

impl FrozenCoupling {
    /// Lays `matrix` (global coordinates) out under `partition` and the
    /// shards' `orderings` — swapped for the `transposed` pass — its exact
    /// zeros dropped.
    pub(crate) fn new(
        partition: &NodePartition,
        orderings: Vec<Arc<Ordering>>,
        matrix: &CsrMatrix,
        transposed: bool,
    ) -> Arc<Self> {
        let layout = Layout::new(partition, orderings, transposed);
        let mut row_ptr = Vec::with_capacity(layout.rows.len() + 1);
        let mut slots = Slots::with_capacity(matrix.nnz());
        row_ptr.push(0);
        for &g in &layout.rows {
            let (cols, values) = matrix.row(g as usize);
            for (&j, &v) in cols.iter().zip(values) {
                slots.push(layout.x_pos[j], j as u32, v);
            }
            row_ptr.push(slots.1.len());
        }
        Self::built(layout, row_ptr, slots)
    }

    /// This coupling with `writes` — `(row, col, value)`, distinct global
    /// positions — applied, each write's slot looked up once: every write
    /// with a slot into a copy of the value array, which shares the
    /// structure when every write had one; otherwise the new positions —
    /// moved to the front of `writes`, rows rewritten to layout rows — are
    /// merged in.
    pub(crate) fn written(&self, writes: &mut [(usize, usize, f64)]) -> Arc<Self> {
        let s = &*self.structure;
        let (mut vals, mut nnz, mut new) = (self.vals.clone(), self.nnz, 0);
        for k in 0..writes.len() {
            let (g, c, v) = writes[k];
            let p = s.layout.rhs_pos[g] as usize;
            match s.slot(p, c) {
                Some(e) => {
                    nnz = nnz - usize::from(vals[e] != 0.0) + usize::from(v != 0.0);
                    vals[e] = v;
                }
                None => {
                    writes[new] = (p, c, v);
                    new += 1;
                }
            }
        }
        if new == 0 {
            return Self::over(Arc::clone(&self.structure), vals, nnz);
        }
        let writes = &mut writes[..new];
        writes.sort_unstable_by_key(|&(p, c, _)| (p, c));
        self.merged(writes, &vals, nnz)
    }

    /// `writes` — `(layout row, col, value)`, sorted, none with a slot —
    /// merged into this coupling's structure holding `vals`, `nnz` of them
    /// nonzero, in one pass that drops the zero slots: the rows no write
    /// names are copied in bulk between the rows that hold a zero slot.
    fn merged(&self, writes: &[(usize, usize, f64)], vals: &[f64], nnz: usize) -> Arc<Self> {
        let s = &*self.structure;
        let (n, x_pos) = (s.layout.rows.len(), &s.layout.x_pos);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut out = Slots::with_capacity(s.slots() + writes.len());
        row_ptr.push(0);
        // Zero slots are dropped one by one; without them, rows are copied
        // in bulk.
        let copy = if nnz < s.slots() {
            Slots::extend_live
        } else {
            Slots::extend
        };
        let mut rest = writes;
        loop {
            let p = rest.first().map_or(n, |w| w.0);
            // Rows up to `p` take no write: copied in bulk up to the next
            // row that holds a zero slot, which is copied slot by slot.
            let mut q = row_ptr.len() - 1;
            while q < p {
                let (lo, hi, at) = (s.row_ptr[q], s.row_ptr[p], out.1.len());
                let zero = (nnz < s.slots())
                    .then(|| vals[lo..hi].iter().position(|&v| v == 0.0))
                    .flatten();
                let zero_row = zero.map_or(p, |z| {
                    q + s.row_ptr[q + 1..=p].partition_point(|&e| e <= lo + z)
                });
                row_ptr.extend(s.row_ptr[q + 1..=zero_row].iter().map(|&e| e - lo + at));
                out.extend(s, vals, lo..s.row_ptr[zero_row]);
                if zero_row < p {
                    let row = s.row_ptr[zero_row]..s.row_ptr[zero_row + 1];
                    out.extend_live(s, vals, row);
                    row_ptr.push(out.1.len());
                }
                q = zero_row + 1;
            }
            if rest.is_empty() {
                break;
            }
            let (run, tail) = rest.split_at(rest.partition_point(|w| w.0 == p));
            rest = tail;
            let (mut k, end) = (s.row_ptr[p], s.row_ptr[p + 1]);
            for &(_, c, v) in run {
                let kept = k + s.nodes[k..end].partition_point(|&j| (j as usize) < c);
                copy(&mut out, s, vals, k..kept);
                k = kept;
                out.push(x_pos[c], c as u32, v);
            }
            copy(&mut out, s, vals, k..end);
            row_ptr.push(out.1.len());
        }
        Self::built(Arc::clone(&s.layout), row_ptr, out)
    }

    /// This coupling's live entries laid out under moved `orderings`, row
    /// by row in bulk.  A solution position moves only inside the segment
    /// of a shard whose ordering moved, so each layout column is re-based
    /// through one map of the positions, built from those shards' nodes.
    pub(crate) fn reordered(
        &self,
        partition: &NodePartition,
        orderings: Vec<Arc<Ordering>>,
    ) -> Arc<Self> {
        let s = &*self.structure;
        let (old, layout) = (&*s.layout, Layout::new(partition, orderings, false));
        let mut to: Vec<u32> = (0..layout.rows.len() as u32).collect();
        for (t, (was, now)) in old.orderings.iter().zip(&layout.orderings).enumerate() {
            if !Arc::ptr_eq(was, now) {
                for &g in partition.nodes_of(t) {
                    to[old.x_pos[g] as usize] = layout.x_pos[g];
                }
            }
        }
        let relay = if self.nnz < s.slots() {
            Slots::relay_live
        } else {
            Slots::relay
        };
        let mut row_ptr = Vec::with_capacity(layout.rows.len() + 1);
        let mut slots = Slots::with_capacity(self.nnz);
        row_ptr.push(0);
        for &g in &layout.rows {
            relay(&mut slots, s, &self.vals, s.row(g as usize), &to);
            row_ptr.push(slots.1.len());
        }
        Self::built(layout, row_ptr, slots)
    }

    fn built(layout: Arc<Layout>, row_ptr: Vec<usize>, slots: Slots) -> Arc<Self> {
        let Slots(cols, nodes, vals) = slots;
        let structure = CouplingStructure {
            layout,
            row_ptr,
            cols,
            nodes,
        };
        let nnz = vals.len();
        Self::over(Arc::new(structure), vals, nnz)
    }

    fn over(structure: Arc<CouplingStructure>, vals: Vec<f64>, nnz: usize) -> Arc<Self> {
        let (plan, transposed) = (OnceLock::new(), OnceLock::new());
        Arc::new(FrozenCoupling {
            structure,
            vals,
            nnz,
            plan,
            transposed,
        })
    }

    /// The shared structure — the identity a memory accounting counts it
    /// by, and that snapshots hold in common across value-only batches.
    pub fn structure(&self) -> &Arc<CouplingStructure> {
        &self.structure
    }

    /// Number of live (nonzero) cross-shard entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Every slot in global coordinates, row-major with ascending columns —
    /// zero slots included.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let s = &*self.structure;
        (0..s.layout.rows.len()).flat_map(move |g| {
            s.row(g)
                .map(move |e| (g, s.nodes[e] as usize, self.vals[e]))
        })
    }

    /// Resident bytes of the parts of this coupling not yet in `seen` —
    /// its values, its plan and transposed half once solves built them,
    /// its structure and the structure's layout — each shared part counted
    /// once, by [`Arc`] identity, for the engine's memory accounting.
    pub(crate) fn resident_bytes(self: &Arc<Self>, seen: &mut HashSet<*const ()>) -> usize {
        use std::mem::size_of;
        if !seen.insert(Arc::as_ptr(self).cast()) {
            return 0;
        }
        let mut bytes = self.vals.len() * size_of::<f64>()
            + self.plan.get().map_or(0, CouplingPlan::approx_bytes)
            + self.transposed.get().map_or(0, |t| t.resident_bytes(seen));
        let (s, layout) = (&self.structure, &self.structure.layout);
        if seen.insert(Arc::as_ptr(s).cast()) {
            bytes += s.row_ptr.len() * size_of::<usize>() + 2 * s.cols.len() * size_of::<u32>();
        }
        if seen.insert(Arc::as_ptr(layout).cast()) {
            bytes += (layout.orderings.len() + layout.offsets.len()) * size_of::<usize>()
                + 3 * layout.rows.len() * size_of::<u32>();
        }
        bytes
    }

    /// The plan over `partition`, built by the first call.  Callers pass
    /// the partition and blocks the coupling was laid out for — a moved
    /// ordering lays out a new coupling.
    pub(crate) fn plan(
        &self,
        partition: &NodePartition,
        shards: &[Arc<DecomposedMatrix>],
    ) -> &CouplingPlan {
        debug_assert!(
            self.structure
                .layout
                .orderings
                .iter()
                .zip(shards)
                .all(|(o, shard)| Arc::ptr_eq(o, &shard.ordering)),
            "a shard's ordering moved without a re-lay of the coupling"
        );
        self.plan.get_or_init(|| {
            let (gs_order, triangular) = gauss_seidel_order(partition, self);
            CouplingPlan {
                gs_order,
                triangular,
            }
        })
    }

    /// The plan if a solve has built it; never builds one.
    #[cfg(test)]
    pub(crate) fn built_plan(&self) -> Option<&CouplingPlan> {
        self.plan.get()
    }

    /// The half of `system` — this coupling, or for the transpose `Cᵀ`
    /// under swapped position maps, which the first call builds over
    /// `partition`.
    pub(crate) fn half(&self, system: System, partition: &NodePartition) -> Half<'_> {
        let c = match system {
            System::Forward => self,
            System::Transposed => self.transposed.get_or_init(|| self.transpose(partition)),
        };
        let (s, layout) = (&*c.structure, &*c.structure.layout);
        Half {
            offsets: &layout.offsets,
            rhs_pos: &layout.rhs_pos,
            x_pos: &layout.x_pos,
            row_ptr: &s.row_ptr,
            cols: &s.cols,
            vals: &c.vals,
        }
    }

    /// `Cᵀ` laid out under the swapped orderings — row `j` at layout row
    /// `x_pos[j]`, column `i` at position `rhs_pos[i]` — zero slots dropped.
    fn transpose(&self, partition: &NodePartition) -> Arc<Self> {
        let s = &*self.structure;
        let n = s.layout.rows.len();
        let mut row_ptr = vec![0];
        for g in 0..n {
            row_ptr.push(row_ptr[g] + s.row(g).len());
        }
        let (cols, vals) = self.entries().map(|(_, j, v)| (j, v)).unzip();
        let ct = CsrMatrix::from_raw_parts(n, n, row_ptr, cols, vals).transpose();
        Self::new(partition, s.layout.orderings.clone(), &ct, true)
    }
}

/// What a coupled solve derives from one snapshot's coupling values — a
/// pure function of (partition, coupling), so where and when it is built
/// changes no bit of any answer.
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

    /// Resident size in bytes of the order, for the engine's snapshot-ring
    /// memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.gs_order.len() * std::mem::size_of::<usize>()
    }

    /// The shard a pass of `system` visits `k`-th.
    #[inline]
    pub(crate) fn shard_at(&self, system: System, k: usize) -> usize {
        match system {
            System::Forward => self.gs_order[k],
            System::Transposed => self.gs_order[self.gs_order.len() - 1 - k],
        }
    }
}

/// Derives the Gauss–Seidel shard traversal order from the coupling's
/// shard-to-shard dependency weights, with the triangularity verdict: a
/// topological order of the dependency digraph when it is acyclic (the
/// block-triangular case — one pass in that order is the exact solve), else
/// the greedy least-pending-weight order of [`greedy_order_from_weights`].
///
/// Triangularity is detected from the *actual* coupling values, so it never
/// depends on where the partition came from: a BTF partition gets its
/// one-pass guarantee verified here, and any partition whose
/// cross-structure happens to be acyclic gets the same direct solve for
/// free.  A zero slot weighs nothing, so it is never a dependency.
pub(super) fn gauss_seidel_order(
    partition: &NodePartition,
    coupling: &FrozenCoupling,
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
/// Accumulated in global row-major order, so the sums, and with them the
/// order and the triangularity verdict, are a bit-identical function of
/// (partition, live entries) that recovery reproduces: a zero slot adds
/// `+0.0` to a sum of absolute values, which leaves it as it was.
fn shard_dependency_weights(
    k: usize,
    partition: &NodePartition,
    coupling: &FrozenCoupling,
) -> Vec<f64> {
    let mut w = vec![0.0f64; k * k];
    for (i, j, v) in coupling.entries() {
        w[partition.shard_of(i) * k + partition.shard_of(j)] += v.abs();
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
    fn coupling() -> (NodePartition, CsrMatrix, Arc<FrozenCoupling>) {
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
        let matrix = CsrMatrix::from_coo(&coo);
        let coupling = FrozenCoupling::new(&partition, orderings, &matrix, false);
        (partition, matrix, coupling)
    }

    #[test]
    fn the_layout_is_each_shard_in_its_factored_order() {
        let (partition, _, coupling) = coupling();
        let forward = coupling.half(System::Forward, &partition);
        assert_eq!((forward.segment(0), forward.segment(1)), (0..3, 3..6));
        // Shard 0 holds nodes [0, 2, 5]: its right-hand sides sit in row
        // order [5, 0, 2], its solutions in column order [2, 5, 0]; shard 1
        // holds [1, 3, 4] in the order [3, 4, 1] for both.
        let b: Vec<f64> = (0..6).map(|g| g as f64).collect();
        let mut laid = vec![f64::NAN; 6];
        forward.permute_rhs(&b, &mut laid);
        assert_eq!(laid, vec![5.0, 0.0, 2.0, 3.0, 4.0, 1.0]);
        let mut x = vec![f64::NAN; 6];
        forward.recover_solution(&[2.0, 5.0, 0.0, 3.0, 4.0, 1.0], &mut x);
        assert_eq!(x, b);
        // The transpose swaps the two maps.
        let transposed = coupling.half(System::Transposed, &partition);
        transposed.permute_rhs(&b, &mut laid);
        assert_eq!(laid, vec![2.0, 5.0, 0.0, 3.0, 4.0, 1.0]);
        transposed.recover_solution(&[5.0, 0.0, 2.0, 3.0, 4.0, 1.0], &mut x);
        assert_eq!(x, b);
        let s = &coupling.structure().layout;
        assert_eq!(s.x_pos, [2, 5, 0, 3, 4, 1]);
        for g in 0..6 {
            let seg = forward.segment(partition.shard_of(g));
            assert!(seg.contains(&(s.rhs_pos[g] as usize)));
            assert!(seg.contains(&(s.x_pos[g] as usize)));
        }
    }

    /// `C·x` through `half` in the layout, read back in global order.
    fn laid_product(half: Half<'_>, x: &[f64]) -> Vec<f64> {
        let mut laid_x = vec![0.0; x.len()];
        for (g, &p) in half.x_pos.iter().enumerate() {
            laid_x[p as usize] = x[g];
        }
        let laid: Vec<f64> = (0..x.len())
            .map(|p| half.coupling_dot(p, &laid_x))
            .collect();
        half.rhs_pos.iter().map(|&p| laid[p as usize]).collect()
    }

    #[test]
    fn the_reindexed_coupling_is_the_coupling() {
        let (partition, matrix, coupling) = coupling();
        let x: Vec<f64> = (0..6).map(|g| 1.0 + g as f64).collect();
        let cx = matrix.mul_vec(&x).unwrap();
        assert_eq!(
            laid_product(coupling.half(System::Forward, &partition), &x),
            cx
        );
        assert_eq!(
            coupling.entries().collect::<Vec<_>>(),
            matrix.iter().collect::<Vec<_>>()
        );
        assert_eq!((coupling.nnz(), coupling.structure().slots()), (7, 7));
        assert!(
            coupling.transposed.get().is_none() && coupling.built_plan().is_none(),
            "laying the coupling out builds neither order nor transpose"
        );
        // Value-only writes share the structure, and a zeroed entry stays a
        // slot that no product, order or transpose notices.
        let mut writes = vec![(4, 2, 0.0), (0, 1, -0.75)];
        let written = coupling.written(&mut writes);
        assert!(Arc::ptr_eq(coupling.structure(), written.structure()));
        assert_eq!((written.nnz(), written.structure().slots()), (6, 7));
        let mut coo = CooMatrix::new(6, 6);
        for (i, j, v) in matrix.iter().filter(|&(i, j, _)| (i, j) != (4, 2)) {
            coo.push(i, j, if (i, j) == (0, 1) { -0.75 } else { v })
                .unwrap();
        }
        let live = CsrMatrix::from_coo(&coo);
        assert_eq!(
            laid_product(written.half(System::Forward, &partition), &x),
            live.mul_vec(&x).unwrap()
        );
        assert_eq!(written.half(System::Transposed, &partition).vals.len(), 6);
        // A new position merges into a structure of its own, zero slots gone.
        let mut writes = vec![(5, 1, -0.5), (4, 2, -1.5)];
        let merged = written.written(&mut writes);
        assert!(!Arc::ptr_eq(written.structure(), merged.structure()));
        assert_eq!((merged.nnz(), merged.structure().slots()), (8, 8));
        coo.push(5, 1, -0.5).unwrap();
        coo.push(4, 2, -1.5).unwrap();
        let expected = CsrMatrix::from_coo(&coo);
        assert_eq!(
            merged.entries().collect::<Vec<_>>(),
            expected.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            laid_product(merged.half(System::Forward, &partition), &x),
            expected.mul_vec(&x).unwrap()
        );
        // Without zero slots the merge is one pass over the same layout.
        let direct = coupling.written(&mut [(5, 1, -0.5)]);
        assert!(Arc::ptr_eq(
            &coupling.structure().layout,
            &direct.structure().layout
        ));
        assert_eq!(direct.entries().count(), 8);
        assert!(direct
            .entries()
            .all(|(i, j, v)| v == matrix.get(i, j) || (i, j) == (5, 1)));
        // Memory: a value-only write adds its values, a merge its values
        // and pattern over the layout it shares.
        let mut seen = HashSet::new();
        coupling.resident_bytes(&mut seen);
        let rewritten = coupling.written(&mut [(0, 1, -0.75)]);
        assert_eq!(rewritten.resident_bytes(&mut seen), 7 * 8);
        assert_eq!(direct.resident_bytes(&mut seen), 8 * 8 + 7 * 8 + 8 * 8);
        assert_eq!(direct.resident_bytes(&mut seen), 0);
    }

    #[test]
    fn the_transposed_half_is_the_transposed_coupling() {
        let (partition, matrix, coupling) = coupling();
        let shards: Vec<Arc<DecomposedMatrix>> = Vec::new();
        let plan_bytes = coupling.plan(&partition, &shards).approx_bytes();
        let (word, layout) = (8, 5 * 8 + 3 * 6 * 4);
        let bytes = |c: &Arc<FrozenCoupling>| c.resident_bytes(&mut HashSet::new());
        assert_eq!(plan_bytes, 2 * word);
        assert_eq!(
            bytes(&coupling),
            7 * 8 + plan_bytes + 7 * word + 7 * 8 + layout
        );
        let y: Vec<f64> = (0..6).map(|g| 1.0 + g as f64).collect();
        let cty = matrix.mul_vec_transposed(&y).unwrap();
        assert_eq!(
            laid_product(coupling.half(System::Transposed, &partition), &y),
            cty
        );
        // Built once, counted once: its values, structure and layout.
        let t = coupling.transposed.get().unwrap();
        assert_eq!(t.structure().slots(), 7);
        let transposed_bytes = 7 * 8 + 7 * word + 7 * 8 + layout;
        assert_eq!(bytes(t), transposed_bytes);
        assert_eq!(
            bytes(&coupling),
            7 * 8 + plan_bytes + 7 * word + 7 * 8 + layout + transposed_bytes
        );
        let plan = coupling.built_plan().unwrap();
        assert_eq!(
            (0..2)
                .map(|k| plan.shard_at(System::Transposed, k))
                .collect::<Vec<_>>(),
            plan.gs_order().iter().rev().copied().collect::<Vec<_>>()
        );
    }
}
