//! Ordering quality (Definition 4 of the paper).
//!
//! The quality-loss of an ordering `O` on a matrix `A` compares the size of
//! the symbolic sparsity pattern it induces against the Markowitz-ordered
//! reference:
//!
//! `ql(O, A) = (|s̃p(A^O)| − |s̃p(A*)|) / |s̃p(A*)|`
//!
//! A loss of 0 means the ordering is as good as Markowitz on that matrix; a
//! loss of 2 means the factors carry twice as many extra entries as the
//! reference (the figure the paper reports for INC on Wiki).

use crate::ems::EvolvingMatrixSequence;
use clude_lu::{markowitz_ordering, symbolic_size_under};
use clude_sparse::{Ordering, SparsityPattern};
use std::borrow::Borrow;

/// Cached `|s̃p(A_i*)|` values for every matrix of an EMS.
///
/// Computing them requires one Markowitz ordering per matrix — exactly what
/// the brute-force baseline does — so the benchmark harness computes this
/// once and shares it across every evaluated algorithm.
#[derive(Debug, Clone)]
pub struct MarkowitzReference {
    sizes: Vec<usize>,
}

impl MarkowitzReference {
    /// Computes the reference for the whole sequence.
    pub fn compute(ems: &EvolvingMatrixSequence) -> Self {
        let sizes = ems
            .iter()
            .map(|a| markowitz_ordering(&a.pattern()).symbolic_size)
            .collect();
        MarkowitzReference { sizes }
    }

    /// Builds a reference from precomputed sizes (used by the BF solver,
    /// which produces them as a by-product).
    pub fn from_sizes(sizes: Vec<usize>) -> Self {
        MarkowitzReference { sizes }
    }

    /// `|s̃p(A_i*)|`.
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Number of matrices covered.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` when the reference is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// All reference sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }
}

/// Quality-loss of an ordering on one matrix given the reference size.
pub fn quality_loss_with_reference(
    pattern: &SparsityPattern,
    ordering: &Ordering,
    reference_size: usize,
) -> f64 {
    let size = symbolic_size_under(pattern, ordering);
    quality_loss_from_sizes(size, reference_size)
}

/// Quality-loss computed directly from the two symbolic sizes.
pub fn quality_loss_from_sizes(size_under_ordering: usize, reference_size: usize) -> f64 {
    assert!(reference_size > 0, "reference size must be positive");
    (size_under_ordering as f64 - reference_size as f64) / reference_size as f64
}

/// The per-matrix and average quality-loss of a sequence of orderings
/// (one per matrix of the EMS).
#[derive(Debug, Clone)]
pub struct QualityEvaluation {
    /// `ql(O_i, A_i)` for every matrix.
    pub per_matrix: Vec<f64>,
    /// `|s̃p(A_i^{O_i})|` for every matrix.
    pub symbolic_sizes: Vec<usize>,
}

impl QualityEvaluation {
    /// Average quality-loss over the sequence.
    pub fn average(&self) -> f64 {
        if self.per_matrix.is_empty() {
            return 0.0;
        }
        self.per_matrix.iter().sum::<f64>() / self.per_matrix.len() as f64
    }

    /// Maximum quality-loss over the sequence.
    pub fn max(&self) -> f64 {
        self.per_matrix.iter().copied().fold(0.0, f64::max)
    }
}

/// Evaluates the quality-loss of the orderings an algorithm produced.
///
/// # Panics
/// Panics when the number of orderings differs from the sequence length or
/// from the reference length.
pub fn evaluate_orderings(
    ems: &EvolvingMatrixSequence,
    orderings: &[impl Borrow<Ordering>],
    reference: &MarkowitzReference,
) -> QualityEvaluation {
    assert_eq!(
        orderings.len(),
        ems.len(),
        "one ordering per matrix required"
    );
    assert_eq!(
        reference.len(),
        ems.len(),
        "reference must cover the sequence"
    );
    let mut per_matrix = Vec::with_capacity(ems.len());
    let mut symbolic_sizes = Vec::with_capacity(ems.len());
    for (i, ordering) in orderings.iter().enumerate() {
        let size = symbolic_size_under(&ems.pattern(i), ordering.borrow());
        symbolic_sizes.push(size);
        per_matrix.push(quality_loss_from_sizes(size, reference.size(i)));
    }
    QualityEvaluation {
        per_matrix,
        symbolic_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clude_sparse::{CooMatrix, CsrMatrix};

    fn arrowhead_matrix(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(0, i, -1.0).unwrap();
                coo.push(i, 0, -1.0).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn markowitz_ordering_has_zero_loss() {
        let a = arrowhead_matrix(6);
        let ems = EvolvingMatrixSequence::new(vec![a.clone()]).unwrap();
        let reference = MarkowitzReference::compute(&ems);
        let best = markowitz_ordering(&a.pattern()).ordering;
        let eval = evaluate_orderings(&ems, &[best], &reference);
        assert!(eval.average().abs() < 1e-12);
        assert_eq!(eval.symbolic_sizes[0], reference.size(0));
    }

    #[test]
    fn identity_ordering_on_arrowhead_has_large_loss() {
        let n = 8;
        let a = arrowhead_matrix(n);
        let ems = EvolvingMatrixSequence::new(vec![a]).unwrap();
        let reference = MarkowitzReference::compute(&ems);
        let eval = evaluate_orderings(&ems, &[Ordering::identity(n)], &reference);
        // Natural order fills the matrix: n^2 vs 3n-2.
        let expected = (n * n) as f64 / (3 * n - 2) as f64 - 1.0;
        assert!((eval.per_matrix[0] - expected).abs() < 1e-12);
        assert!(eval.max() > 1.0);
    }

    #[test]
    fn quality_loss_from_sizes_formula() {
        assert_eq!(quality_loss_from_sizes(30, 10), 2.0);
        assert_eq!(quality_loss_from_sizes(10, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_reference_panics() {
        quality_loss_from_sizes(5, 0);
    }

    #[test]
    fn reference_accessors() {
        let r = MarkowitzReference::from_sizes(vec![3, 4, 5]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.size(1), 4);
        assert_eq!(r.sizes(), &[3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "one ordering per matrix")]
    fn mismatched_ordering_count_panics() {
        let a = arrowhead_matrix(3);
        let ems = EvolvingMatrixSequence::new(vec![a]).unwrap();
        let reference = MarkowitzReference::compute(&ems);
        evaluate_orderings(&ems, &[] as &[Ordering], &reference);
    }

    #[test]
    fn average_of_empty_evaluation_is_zero() {
        let e = QualityEvaluation {
            per_matrix: vec![],
            symbolic_sizes: vec![],
        };
        assert_eq!(e.average(), 0.0);
    }
}
