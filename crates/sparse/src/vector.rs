//! Small dense-vector helpers shared across the workspace.
//!
//! Measures such as PageRank and RWR manipulate probability vectors; the LU
//! solvers manipulate right-hand sides and solutions.  These free functions
//! keep that code short and uniform.

/// Dot product of two equally long slices, over eight independent partial
/// sums: a single running sum is one floating-point dependency chain as long
/// as the vector, which is what a Gram–Schmidt step taking a dot per basis
/// vector would spend its time in.  The summation order is fixed, so equal
/// inputs give equal bits.
///
/// # Panics
/// Panics when the lengths differ (programming error, not data error).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    const LANES: usize = 8;
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f64 = a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut lanes = [0.0f64; LANES];
    for (x, y) in a_chunks.zip(b_chunks) {
        for ((lane, xl), yl) in lanes.iter_mut().zip(x).zip(y) {
            *lane += xl * yl;
        }
    }
    lanes.iter().sum::<f64>() + tail
}

/// The dot product of one sparse row — `vals[e]` at column `cols[e]` — with
/// the dense vector `x`, over four independent partial sums: a hub row of a
/// hundred entries is otherwise one dependency chain of a hundred
/// multiply-adds.  The summation order is fixed, so equal inputs give equal
/// bits, and an empty row gives `+0.0`.
///
/// # Panics
/// Panics when the lengths differ or a column is out of `x`'s range
/// (programming errors, not data errors).
#[inline]
pub fn sparse_dot(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    const LANES: usize = 4;
    assert_eq!(vals.len(), cols.len(), "sparse_dot: length mismatch");
    let (v_chunks, c_chunks) = (vals.chunks_exact(LANES), cols.chunks_exact(LANES));
    let tail = v_chunks
        .remainder()
        .iter()
        .zip(c_chunks.remainder())
        .fold(0.0, |acc, (v, &j)| acc + v * x[j as usize]);
    let mut lanes = [0.0f64; LANES];
    for (v, c) in v_chunks.zip(c_chunks) {
        for ((lane, vl), &jl) in lanes.iter_mut().zip(v).zip(c) {
            *lane += vl * x[jl as usize];
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// In-place `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Maximum absolute value (infinity norm).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |acc, v| acc.max(v.abs()))
}

/// Sum of absolute values (L1 norm).
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Maximum absolute component-wise difference between two vectors.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Normalises a vector in place so its L1 norm is 1 (used for probability
/// distributions).  A zero vector is left untouched.
pub fn normalize_l1(x: &mut [f64]) {
    let s = norm1(x);
    if s > 0.0 {
        for v in x.iter_mut() {
            *v /= s;
        }
    }
}

/// The standard basis vector `e_i` of length `n`.
pub fn basis(n: usize, i: usize) -> Vec<f64> {
    assert!(i < n, "basis: index out of range");
    let mut v = vec![0.0; n];
    v[i] = 1.0;
    v
}

/// The constant vector with every entry `value`.
pub fn constant(n: usize, value: f64) -> Vec<f64> {
    vec![value; n]
}

/// Indices sorted by descending value; ties broken by ascending index.
/// Used to turn measure scores into ranks (paper §7 case study).
pub fn rank_descending(x: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| {
        x[b].partial_cmp(&x[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let mut b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        axpy(2.0, &a, &mut b);
        assert_eq!(b, [6.0, 9.0, 12.0]);
    }

    /// A row of `len` entries over a 200-long `x`, its columns scattered
    /// and `value(e)` its values; returns the split sum and the serial one.
    fn sparse_dot_and_serial(len: usize, value: impl Fn(usize) -> f64) -> (f64, f64) {
        let x: Vec<f64> = (0..200).map(|i| value(i + 7)).collect();
        let cols: Vec<u32> = (0..len).map(|e| ((e * 37 + 11) % 200) as u32).collect();
        let vals: Vec<f64> = (0..len).map(&value).collect();
        let serial = vals
            .iter()
            .zip(&cols)
            .fold(0.0, |acc, (v, &j)| acc + v * x[j as usize]);
        (sparse_dot(&vals, &cols, &x), serial)
    }

    const ROW_LENGTHS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 67, 166];

    #[test]
    fn sparse_dot_is_exact_on_integer_data_at_every_row_length() {
        // Small integers: every product and partial sum is exact, so any
        // summation order gives the serial sum's bits.
        for len in ROW_LENGTHS {
            let (split, serial) = sparse_dot_and_serial(len, |e| ((e * 7) % 13) as f64 - 6.0);
            assert_eq!(split.to_bits(), serial.to_bits(), "row length {len}");
        }
        // An empty row is +0.0, so `b - dot` leaves every `b` as it was.
        let (empty, _) = sparse_dot_and_serial(0, |_| 1.0);
        assert_eq!(empty.to_bits(), 0.0f64.to_bits());
        assert_eq!((-0.0f64 - empty).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn sparse_dot_stays_within_a_few_ulps_of_the_serial_sum() {
        // One-signed products, as a coupling row's are: reordering the sum
        // moves it by rounding only.
        for len in ROW_LENGTHS {
            let (split, serial) =
                sparse_dot_and_serial(len, |e| 1.0 / (1.0 + ((e * 29) % 31) as f64));
            assert!(
                (split - serial).abs() <= 4.0 * f64::EPSILON * serial.abs(),
                "row length {len}: {split} vs {serial}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sparse_dot_length_mismatch_panics() {
        sparse_dot(&[1.0], &[0, 1], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm1(&x), 7.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_works() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn normalize_l1_makes_distribution() {
        let mut x = vec![1.0, 3.0];
        normalize_l1(&mut x);
        assert!((norm1(&x) - 1.0).abs() < 1e-15);
        assert_eq!(x, vec![0.25, 0.75]);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn basis_and_constant() {
        assert_eq!(basis(3, 1), vec![0.0, 1.0, 0.0]);
        assert_eq!(constant(2, 0.5), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        basis(2, 5);
    }

    #[test]
    fn rank_descending_orders_by_value() {
        let scores = [0.1, 0.9, 0.5, 0.9];
        // Ties (indices 1 and 3) broken by index.
        assert_eq!(rank_descending(&scores), vec![1, 3, 2, 0]);
        assert_eq!(rank_descending(&[]), Vec::<usize>::new());
    }
}
