//! Solving the original linear system through reordered factors.
//!
//! Section 2.2 of the paper: if `A^O = P A Q` was decomposed, then
//! `A x = b  ⇔  A^O (Q⁻¹ x) = P b`, so a query is answered by permuting the
//! right-hand side, running forward/backward substitution, and permuting the
//! solution back — all `O(n)` besides the substitutions themselves.

// lint: hot-path

use crate::dynamic::DynamicLuFactors;
use crate::error::LuResult;
use crate::factors::LuFactors;
use clude_sparse::Ordering;

/// Anything that can solve `L U x' = b'` by substitution.
pub trait TriangularSolve {
    /// Solves the factored (reordered) system for one right-hand side,
    /// substituting in place inside `x` (its capacity is reused, its previous
    /// content discarded).
    fn solve_factored_into(&self, b: &[f64], x: &mut Vec<f64>) -> LuResult<()>;

    /// Solves the factored (reordered) system for one right-hand side.
    fn solve_factored(&self, b: &[f64]) -> LuResult<Vec<f64>> {
        // lint: allow(alloc-hot-path) — owning convenience wrapper; the hot
        // loops call `solve_factored_into` with a reused buffer instead.
        let mut x = Vec::new();
        self.solve_factored_into(b, &mut x)?;
        Ok(x)
    }

    /// Panel variant: solves `n_rhs` factored systems whose right-hand sides
    /// are stacked column-major in `b` (`n_rhs` contiguous stripes), writing
    /// the solutions into `x` in the same layout.  Implementations must keep
    /// every stripe bit-identical to a sequential
    /// [`TriangularSolve::solve_factored_into`] call; the default honours
    /// that trivially by solving stripe by stripe,
    /// while the in-tree factor types override it with single-traversal
    /// panel kernels.
    fn solve_many_factored_into(&self, b: &[f64], n_rhs: usize, x: &mut Vec<f64>) -> LuResult<()> {
        let n = b.len().checked_div(n_rhs).unwrap_or(0);
        // lint: allow(alloc-hot-path) — compatibility default for external
        // impls only; both in-tree factor types override with panel kernels.
        let mut column = Vec::new();
        x.clear();
        for c in 0..n_rhs {
            self.solve_factored_into(&b[c * n..(c + 1) * n], &mut column)?;
            x.extend_from_slice(&column);
        }
        Ok(())
    }
}

impl TriangularSolve for LuFactors {
    fn solve_factored_into(&self, b: &[f64], x: &mut Vec<f64>) -> LuResult<()> {
        self.solve_into(b, x)
    }

    fn solve_many_factored_into(&self, b: &[f64], n_rhs: usize, x: &mut Vec<f64>) -> LuResult<()> {
        self.solve_many_into(b, n_rhs, x)
    }
}

impl TriangularSolve for DynamicLuFactors {
    fn solve_factored_into(&self, b: &[f64], x: &mut Vec<f64>) -> LuResult<()> {
        self.solve_into(b, x)
    }

    fn solve_many_factored_into(&self, b: &[f64], n_rhs: usize, x: &mut Vec<f64>) -> LuResult<()> {
        self.solve_many_into(b, n_rhs, x)
    }
}

/// Reusable buffers of [`solve_original_into`]: the permuted right-hand side
/// `b' = P b` and the reordered solution `x'`.
///
/// A solve over factors of order `n` grows both buffers to `n` once; as long
/// as the scratch is reused across solves of no larger order, no further
/// allocations happen.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    permuted: Vec<f64>,
    factored: Vec<f64>,
}

impl SolveScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// A scratch with both buffers pre-sized for factors of order `n`.
    pub fn with_order(n: usize) -> Self {
        SolveScratch {
            // lint: allow(alloc-hot-path) — constructor pre-sizing: this
            // one-time allocation is what keeps later solves allocation-free.
            permuted: Vec::with_capacity(n),
            // lint: allow(alloc-hot-path) — constructor pre-sizing: this
            // one-time allocation is what keeps later solves allocation-free.
            factored: Vec::with_capacity(n),
        }
    }
}

/// Reusable buffers of [`solve_original_many_into`]: the permuted panel and
/// the reordered solution panel (a [`SolveScratch`], which is all a width-1
/// panel needs), and a single-stripe staging column used while permuting one
/// stripe at a time (the permutation helpers are single-RHS; permutation is
/// pure data movement, so staging preserves bit-identity).
#[derive(Debug, Clone, Default)]
pub struct PanelScratch {
    panel: SolveScratch,
    column: Vec<f64>,
}

impl PanelScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        PanelScratch::default()
    }

    /// A scratch pre-sized for panels of `n_rhs` systems of order `n`.
    pub fn with_panel(n: usize, n_rhs: usize) -> Self {
        PanelScratch {
            panel: SolveScratch::with_order(n * n_rhs),
            // lint: allow(alloc-hot-path) — constructor pre-sizing: this
            // one-time allocation keeps later panel solves allocation-free.
            column: Vec::with_capacity(n),
        }
    }
}

/// Solves the *original* system `A x = b` given the factors of `A^O = P A Q`
/// and the ordering `O = (P, Q)`.
pub fn solve_original<F: TriangularSolve>(
    factors: &F,
    ordering: &Ordering,
    b: &[f64],
) -> LuResult<Vec<f64>> {
    let mut scratch = SolveScratch::new();
    // lint: allow(alloc-hot-path) — owning convenience wrapper; repeated
    // solves use `solve_original_into` with a caller-held scratch instead.
    let mut x = Vec::new();
    solve_original_into(factors, ordering, b, &mut scratch, &mut x)?;
    Ok(x)
}

/// Allocation-free variant of [`solve_original`]: permutes, substitutes and
/// recovers through the reused `scratch` buffers, writing the solution of the
/// original system into `out` (its capacity is reused, its previous content
/// discarded).
pub fn solve_original_into<F: TriangularSolve>(
    factors: &F,
    ordering: &Ordering,
    b: &[f64],
    scratch: &mut SolveScratch,
    out: &mut Vec<f64>,
) -> LuResult<()> {
    ordering
        .permute_rhs_into(b, &mut scratch.permuted)
        .map_err(|_| crate::error::LuError::DimensionMismatch {
            expected: ordering.row().len(),
            actual: b.len(),
        })?;
    factors.solve_factored_into(&scratch.permuted, &mut scratch.factored)?;
    ordering
        .recover_solution_into(&scratch.factored, out)
        .map_err(|_| crate::error::LuError::DimensionMismatch {
            expected: ordering.col().len(),
            actual: scratch.factored.len(),
        })
}

/// Panel variant of [`solve_original_into`]: solves `n_rhs` original systems
/// whose right-hand sides are stacked column-major in `b`, writing the
/// solutions into `out` in the same layout.
///
/// Each stripe is permuted through the scratch staging column (data movement
/// only — no floating-point arithmetic), the whole panel runs through one
/// [`TriangularSolve::solve_many_factored_into`] traversal, and each solution
/// stripe is permuted back.  Every stripe of `out` is bit-identical to a
/// sequential [`solve_original_into`] call on that stripe.
pub fn solve_original_many_into<F: TriangularSolve>(
    factors: &F,
    ordering: &Ordering,
    b: &[f64],
    n_rhs: usize,
    scratch: &mut PanelScratch,
    out: &mut Vec<f64>,
) -> LuResult<()> {
    let n = ordering.row().len();
    if b.len() != n * n_rhs {
        return Err(crate::error::LuError::DimensionMismatch {
            expected: n * n_rhs,
            actual: b.len(),
        });
    }
    if n_rhs == 1 {
        // The one place a single right-hand side leaves the panel path: the
        // staging-column copies and the panel kernel cost a width-1 solve a
        // quarter of its time (`clude_perf` serve-static `timed_s` 1.72 ->
        // 2.16 s, cold p50 +34 % without this branch; ROADMAP item 2).
        return solve_original_into(factors, ordering, b, &mut scratch.panel, out);
    }
    let SolveScratch { permuted, factored } = &mut scratch.panel;
    permuted.clear();
    for c in 0..n_rhs {
        ordering
            .permute_rhs_into(&b[c * n..(c + 1) * n], &mut scratch.column)
            .map_err(|_| crate::error::LuError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            })?;
        permuted.extend_from_slice(&scratch.column);
    }
    factors.solve_many_factored_into(permuted, n_rhs, factored)?;
    out.clear();
    for c in 0..n_rhs {
        ordering
            .recover_solution_into(&factored[c * n..(c + 1) * n], &mut scratch.column)
            .map_err(|_| crate::error::LuError::DimensionMismatch {
                expected: ordering.col().len(),
                actual: factored.len(),
            })?;
        out.extend_from_slice(&scratch.column);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::LuFactors;
    use crate::ordering::markowitz_ordering;
    use crate::structure::LuStructure;
    use clude_sparse::{CooMatrix, CsrMatrix};

    fn sample_matrix() -> CsrMatrix {
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 6.0).unwrap();
        }
        for &(i, j, v) in &[
            (0, 1, 1.0),
            (1, 2, -1.0),
            (2, 0, 0.5),
            (3, 1, 2.0),
            (4, 2, -0.5),
            (0, 4, 1.5),
        ] {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn reordered_solve_matches_dense_solution() {
        let a = sample_matrix();
        let result = markowitz_ordering(&a.pattern());
        let a_reordered = a.reorder(&result.ordering).unwrap();
        let structure = LuStructure::from_pattern(&a_reordered.pattern())
            .unwrap()
            .into_shared();
        let factors = LuFactors::factorize(structure, &a_reordered).unwrap();
        let b = vec![1.0, 0.0, -2.0, 3.0, 0.5];
        let x = solve_original(&factors, &result.ordering, &b).unwrap();
        let x_dense = a.to_dense().solve_gaussian(&b).unwrap();
        for (u, v) in x.iter().zip(x_dense.iter()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn dynamic_factors_solve_through_ordering_too() {
        let a = sample_matrix();
        let result = markowitz_ordering(&a.pattern());
        let a_reordered = a.reorder(&result.ordering).unwrap();
        let factors = DynamicLuFactors::factorize(&a_reordered).unwrap();
        let b = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let x = solve_original(&factors, &result.ordering, &b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_into_reuses_scratch_bit_identically() {
        // One scratch reused across systems of different orders and both
        // factor back-ends must reproduce the allocating path exactly.
        let mut scratch = SolveScratch::with_order(5);
        let mut out = Vec::new();

        let a = sample_matrix();
        let result = markowitz_ordering(&a.pattern());
        let a_reordered = a.reorder(&result.ordering).unwrap();
        let dynamic = DynamicLuFactors::factorize(&a_reordered).unwrap();
        let structure = LuStructure::from_pattern(&a_reordered.pattern())
            .unwrap()
            .into_shared();
        let static_f = LuFactors::factorize(structure, &a_reordered).unwrap();

        for b in [
            vec![1.0, 0.0, -2.0, 3.0, 0.5],
            vec![0.25, -1.5, 4.0, 0.0, 2.0],
        ] {
            let expected = solve_original(&dynamic, &result.ordering, &b).unwrap();
            solve_original_into(&dynamic, &result.ordering, &b, &mut scratch, &mut out).unwrap();
            assert_eq!(out, expected, "dynamic solve_into drifted");
            let expected = solve_original(&static_f, &result.ordering, &b).unwrap();
            solve_original_into(&static_f, &result.ordering, &b, &mut scratch, &mut out).unwrap();
            assert_eq!(out, expected, "static solve_into drifted");
        }

        // A smaller system after a larger one: stale capacity must not leak.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        let small = CsrMatrix::from_coo(&coo);
        let ordering = clude_sparse::Ordering::identity(2);
        let factors = DynamicLuFactors::factorize(&small).unwrap();
        solve_original_into(&factors, &ordering, &[4.0, 8.0], &mut scratch, &mut out).unwrap();
        assert_eq!(
            out,
            solve_original(&factors, &ordering, &[4.0, 8.0]).unwrap()
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn wrong_rhs_length_is_reported() {
        let a = sample_matrix();
        let result = markowitz_ordering(&a.pattern());
        let a_reordered = a.reorder(&result.ordering).unwrap();
        let factors = DynamicLuFactors::factorize(&a_reordered).unwrap();
        assert!(solve_original(&factors, &result.ordering, &[1.0, 2.0]).is_err());
    }
}
