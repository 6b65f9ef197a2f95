//! Symbolic decomposition (the SD-phase of §2.3), and the one up-looking
//! kernel that factorizes a matrix over its own pattern.
//!
//! Given the sparsity pattern of a square matrix, this module computes the
//! *fill-in pattern* `fp(A)` (Eq. 2 of the paper — the fill-path
//! characterisation of Rose & Tarjan) and the *symbolic sparsity pattern*
//! `s̃p(A) = sp(A) ∪ fp(A)` (Eq. 3).  `s̃p(A)` covers every position that can
//! become non-zero in the LU factors, so the data structures holding the
//! factors can be allocated before any numeric work.  Eq. 2 reads as a
//! symbolic Gaussian elimination, pivot by pivot; the kernel produces the
//! same set row by row instead (the up-looking form of the same
//! elimination), and the set-based reading of Eq. 2 stays in this module's
//! tests as the oracle.
//!
//! **The pruned reach.**  Row `i` of `s̃p(A)` is what row `i` of `A` reaches
//! when a column `k < i` leads on to the columns of finished row `k`'s `U`:
//! one marker array and one stack walk it, no heap — the row is a set, so
//! the walk's order does not matter.  It is pruned by Eisenstat & Liu's
//! symmetric rule (SIAM J. Matrix Anal. Appl. 13(1), 1992): once row `i`
//! stores both `L(i, k)` and `U(k, i)`, a later row reaching `k` reaches `i`
//! too (`i` is left of its diagonal), and eliminating `L(i, k)` already put
//! every column of `U(k, ·)` past `i` into row `i` — so later walks read row
//! `k`'s `U` only up to column `i` and reach exactly the same set.  On
//! `live-mono`'s 400-node blocks they read 8–16 % of the edges an unpruned
//! walk would.
//!
//! **Why the factors stay bit-identical.**  With values, each row is sorted
//! once and handed to the one numeric row kernel over a closed structure,
//! which [`LuFactors::factorize`] runs too: the `L` columns eliminated in
//! ascending order, each pivot row's whole `U` in slot order, the same
//! guards.  A topological order of the reach would be a valid elimination
//! order too, but a different floating-point sequence.
//!
//! Without values the kernel is [`symbolic_decomposition`] and
//! [`LuStructure::from_pattern`]; with them it is every factorization of a
//! matrix over its own pattern — [`crate::factorize_fresh`],
//! [`crate::DynamicLuFactors::factorize`] — rows
//! appended straight into the result's flat arrays, and the structure marked
//! closed under elimination as it is built.  The same reach, walked only
//! over what is new to the rows a batch's new entries can reach — each
//! starting from its old, already closed pattern — with the other rows
//! copied as they stand, extends a closed structure to cover those entries
//! ([`extend_structure`]).

use crate::error::{LuError, LuResult};
use crate::factors::{factorize_row, LuFactors};
use crate::structure::LuStructure;
use clude_sparse::{CsrMatrix, SparsityPattern};
use std::sync::{Arc, OnceLock};

/// The result of a symbolic decomposition.
#[derive(Debug, Clone)]
pub struct SymbolicDecomposition {
    /// The symbolic sparsity pattern `s̃p(A)` (always includes the diagonal).
    pub pattern: SparsityPattern,
    /// Number of fill-ins, `|s̃p(A)| − |sp(A) ∪ diag|`.
    pub fill_ins: usize,
}

impl SymbolicDecomposition {
    /// Size of the symbolic sparsity pattern, `|s̃p(A)|`.
    pub fn size(&self) -> usize {
        self.pattern.nnz()
    }
}

/// Computes the symbolic sparsity pattern `s̃p(A)` of a square pattern.
///
/// The diagonal is always included: LU factorization requires every pivot
/// position to exist, and the matrices the paper derives from graphs
/// (`A = I − dW`, shifted Laplacians) always carry a structural diagonal.
///
/// # Panics
/// Panics if the pattern is not square.
pub fn symbolic_decomposition(sp: &SparsityPattern) -> SymbolicDecomposition {
    let structure = closed_structure(sp);
    let diagonal_missing = (0..sp.n_rows()).filter(|&i| !sp.contains(i, i)).count();
    SymbolicDecomposition {
        fill_ins: structure.nnz() - sp.nnz() - diagonal_missing,
        pattern: structure.pattern(),
    }
}

/// The static structure over `s̃p(sp)`: the kernel's pattern-only run.
///
/// # Panics
/// Panics if the pattern is not square.
pub(crate) fn closed_structure(sp: &SparsityPattern) -> LuStructure {
    let (n, n_cols) = (sp.n_rows(), sp.n_cols());
    assert_eq!(n, n_cols, "symbolic decomposition needs a square pattern");
    let mut kernel = UpLooking::new(n, 0);
    for i in 0..n {
        kernel.push_row(i, sp.row(i));
    }
    kernel.structure.finish()
}

/// A copy of `factors` over the symbolic closure of their structure joined
/// with the positions `entries` — a structure the factors of any matrix
/// whose pattern lies in both cannot escape, so neither a Bennett sweep of
/// such a matrix's delta over the copy nor a numeric pass over its changed
/// rows' elimination reach ([`crate::refactor_frozen_reach`]) leaves it.
///
/// Over a structure closed under elimination only the elimination reach of
/// the rows whose entries escape it is re-derived: a row is re-derived when
/// it gains an entry, or when an `L` slot of it names a row whose `U` grew.
/// Every other row keeps its columns and values bit for bit.  A re-derived
/// row keeps its values on the slots it had and holds zero on the new ones,
/// so the copy stores the same `L` and `U` — the factors of the same matrix.
/// A structure that is not closed (a layout rebuilt from an arbitrary entry
/// list) has every row re-run through the kernel, which closes it.  The
/// result is marked closed; when nothing escapes a closed structure, the
/// copy shares it.  A position outside the order is an
/// [`LuError::EntryOutsideStructure`].
///
/// **Cost.**  Over a closed structure the copy costs one pass over the slots
/// plus what the batch changes, with no sort or search over the whole
/// structure and no column index: one ascending scan from the first row
/// gaining an entry finds the rows to re-derive, each row's old `L` columns
/// checked against the rows whose `U` grew; each run of rows left alone is
/// one slice copy of columns and values, its offsets shifted in bulk; and a
/// re-derived row starts from its old pattern, already closed, walks only
/// what is new to it — its escaping entries, the grown `U` rows its `L`
/// names and the `U` rows of the columns those add — and merges the new
/// columns in.  On `ingest-structure`'s 500-row blocks a batch re-derives
/// ~13 rows.
pub fn extend_structure(
    factors: &LuFactors,
    entries: impl IntoIterator<Item = (usize, usize)>,
) -> LuResult<LuFactors> {
    let old = factors.structure();
    let n = old.n();
    let mut escaping = Vec::new();
    for (i, j) in entries {
        if i >= n || j >= n {
            return Err(LuError::EntryOutsideStructure { row: i, col: j });
        }
        if !old.contains(i, j) {
            escaping.push((i, j));
        }
    }
    let closed = old.is_elimination_closed();
    if closed && escaping.is_empty() {
        return Ok(factors.clone());
    }
    escaping.sort_unstable();
    escaping.dedup();
    let (structure, values) = if closed {
        extended(factors, &escaping)
    } else {
        rerun_every_row(factors, &escaping)
    };
    Ok(LuFactors::from_values(Arc::new(structure), values))
}

/// [`extend_structure`] over a closed structure, `escaping` sorted, distinct
/// and not empty: one ascending scan of the rows, the rows it leaves alone
/// copied in runs, the others re-derived from their old patterns.
fn extended(factors: &LuFactors, escaping: &[(usize, usize)]) -> (LuStructure, Vec<f64>) {
    let old = factors.structure();
    let (n, old_values) = (old.n(), factors.values());
    // Room for the fill a batch brings, so the copy does not grow twice.
    let capacity = old.nnz() + old.nnz() / 8 + escaping.len();
    let mut new = LuStructure::growing(n, capacity, OnceLock::from(true));
    let mut values = Vec::with_capacity(capacity);
    // Per row whose U grew, the range of `new_upper` holding its new U
    // columns; `first_grown` is the first such row, `n` while there is none.
    let (mut grown, mut first_grown) = (vec![0..0; n], n);
    let mut new_upper = Vec::new();
    // `mark[j] == i` while column `j` is in row `i`'s pattern.
    let mut mark = vec![usize::MAX; n];
    let (mut stack, mut lower, mut upper) = (Vec::new(), Vec::new(), Vec::new());
    let (mut i, mut next) = (0, 0);
    loop {
        // A row is re-derived when it gains an entry — `stop` is the next
        // that does — or an old L column of it names a row whose U grew;
        // the rows before it are settled.
        let (start, stop) = (i, escaping.get(next).map_or(n, |e| e.0));
        while i < stop
            && (i <= first_grown
                || !old.col_idx[old.lower_row_slots(i)]
                    .iter()
                    .rev()
                    .take_while(|&&k| k >= first_grown)
                    .any(|&k| !grown[k].is_empty()))
        {
            i += 1;
        }
        let (lo, hi, at) = (old.row_ptr[start], old.row_ptr[i], new.col_idx.len());
        new.col_idx.extend_from_slice(&old.col_idx[lo..hi]);
        values.extend_from_slice(&old_values[lo..hi]);
        new.row_ptr
            .extend(old.row_ptr[start + 1..=i].iter().map(|&p| p - lo + at));
        new.diag_slot
            .extend(old.diag_slot[start..i].iter().map(|&p| p - lo + at));
        if i == n {
            break;
        }
        // Row i's old pattern is closed against the rows before it as they
        // were, so only what is new can add to it: its escaping entries,
        // the new U columns of the rows its L names, and the whole U of
        // every column new to it.
        let (cols, vals) = (old.row_cols(i), factors.row_values(i));
        let diag = old.diag_slot(i) - old.row_ptr[i];
        for &j in cols {
            mark[j] = i;
        }
        lower.clear();
        upper.clear();
        let mut visit = |j: usize, stack: &mut Vec<usize>| {
            if mark[j] != i {
                mark[j] = i;
                if j < i {
                    lower.push(j);
                    stack.push(j);
                } else {
                    upper.push(j);
                }
            }
        };
        while let Some(&(_, j)) = escaping.get(next).filter(|e| e.0 == i) {
            visit(j, &mut stack);
            next += 1;
        }
        for &k in &cols[..diag] {
            for &j in &new_upper[grown[k].clone()] {
                visit(j, &mut stack);
            }
        }
        while let Some(k) = stack.pop() {
            for &j in new.upper_row_cols(k) {
                visit(j, &mut stack);
            }
        }
        lower.sort_unstable();
        upper.sort_unstable();
        merge_zeros(
            &mut new.col_idx,
            &mut values,
            &cols[..diag],
            &vals[..diag],
            &lower,
        );
        new.diag_slot.push(new.col_idx.len());
        new.col_idx.push(i);
        values.push(vals[diag]);
        merge_zeros(
            &mut new.col_idx,
            &mut values,
            &cols[diag + 1..],
            &vals[diag + 1..],
            &upper,
        );
        new.row_ptr.push(new.col_idx.len());
        if !upper.is_empty() {
            grown[i] = new_upper.len()..new_upper.len() + upper.len();
            new_upper.extend_from_slice(&upper);
            first_grown = first_grown.min(i);
        }
        i += 1;
    }
    new.col_idx.shrink_to_fit();
    values.shrink_to_fit();
    (new, values)
}

/// Appends the columns `cols`, holding `vals`, and the columns `new`, holding
/// zero, merged — both ascending, none of `new` among `cols`.
fn merge_zeros(
    out: &mut Vec<usize>,
    values: &mut Vec<f64>,
    cols: &[usize],
    vals: &[f64],
    new: &[usize],
) {
    let mut p = 0;
    for &j in new {
        let q = p + cols[p..].partition_point(|&c| c < j);
        out.extend_from_slice(&cols[p..q]);
        values.extend_from_slice(&vals[p..q]);
        out.push(j);
        values.push(0.0);
        p = q;
    }
    out.extend_from_slice(&cols[p..]);
    values.extend_from_slice(&vals[p..]);
}

/// [`extend_structure`] over a structure not closed under elimination,
/// `escaping` sorted: every row re-run through the kernel with its escaping
/// entries, keeping its values on the slots it had and zero on the new ones.
fn rerun_every_row(factors: &LuFactors, escaping: &[(usize, usize)]) -> (LuStructure, Vec<f64>) {
    let old = factors.structure();
    let mut kernel = UpLooking::new(old.n(), old.nnz() + escaping.len());
    let mut values = Vec::with_capacity(old.nnz() + escaping.len());
    let (mut a_cols, mut next) = (Vec::new(), 0);
    for i in 0..old.n() {
        let (cols, vals) = (old.row_cols(i), factors.row_values(i));
        a_cols.clear();
        a_cols.extend_from_slice(cols);
        while let Some(&(_, j)) = escaping.get(next).filter(|e| e.0 == i) {
            a_cols.push(j);
            next += 1;
        }
        kernel.push_row(i, &a_cols);
        let mut p = 0;
        for &j in kernel.structure.row_cols(i) {
            if cols.get(p) == Some(&j) {
                values.push(vals[p]);
                p += 1;
            } else {
                values.push(0.0);
            }
        }
    }
    values.shrink_to_fit();
    (kernel.structure.finish(), values)
}

/// Factorizes `a` over the symbolic closure of its own pattern — the kernel
/// with values, each row's pattern followed by its [`factorize_row`] under
/// the absolute pivot floor alone.
pub(crate) fn factorize_up_looking(a: &CsrMatrix) -> LuResult<LuFactors> {
    if !a.is_square() {
        return Err(LuError::NotSquare {
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
        });
    }
    let mut kernel = UpLooking::new(a.n_rows(), 0);
    let (mut values, mut work) = (Vec::new(), vec![0.0; a.n_rows()]);
    for i in 0..a.n_rows() {
        let a_row = a.row(i);
        kernel.push_row(i, a_row.0);
        let structure = &kernel.structure;
        values.resize(structure.nnz(), 0.0);
        factorize_row(structure, i, a_row, &mut values, &mut work, 0.0)?;
    }
    values.shrink_to_fit();
    let structure = Arc::new(kernel.structure.finish());
    Ok(LuFactors::from_values(structure, values))
}

/// The kernel's state: the structure its finished rows form, and what the
/// next row's reach walks with.
struct UpLooking {
    structure: LuStructure,
    /// How much of row `k`'s `U` past the diagonal a reach reads: all of it
    /// until the symmetric rule pruned it to end at its first column `i`
    /// with `L(i, k)` stored.
    walk_len: Vec<usize>,
    /// `mark[j] == i` while column `j` is in row `i`'s pattern.
    mark: Vec<usize>,
    /// Columns left of the current diagonal whose `U` rows are still to walk.
    stack: Vec<usize>,
    /// The current row's columns left and right of its diagonal.
    lower: Vec<usize>,
    upper: Vec<usize>,
}

impl UpLooking {
    /// An empty kernel of order `n`, its structure sized for `nnz` slots.
    fn new(n: usize, nnz: usize) -> Self {
        UpLooking {
            structure: LuStructure::growing(n, nnz, OnceLock::from(true)),
            walk_len: Vec::with_capacity(n),
            mark: vec![usize::MAX; n],
            stack: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
        }
    }

    /// Appends a row as it stands — its columns `lower` and `upper` either
    /// side of the diagonal, already closed against the rows before it —
    /// without walking anything; later reaches read its whole `U`.
    #[cfg(test)]
    fn push_finished_row(&mut self, lower: &[usize], upper: &[usize]) {
        self.structure.push_row(lower, upper);
        self.walk_len.push(upper.len());
    }

    /// Appends row `i` of the closure — the diagonal, `a_cols` (row `i` of
    /// the input pattern, in range) and their reach through the finished
    /// rows' `U` — then prunes the `U` rows it proves redundant.
    fn push_row(&mut self, i: usize, a_cols: &[usize]) {
        let UpLooking {
            structure,
            walk_len,
            mark,
            stack,
            lower,
            upper,
        } = self;
        lower.clear();
        upper.clear();
        mark[i] = i;
        let mut visit = |j: usize, stack: &mut Vec<usize>| {
            if mark[j] != i {
                mark[j] = i;
                if j < i {
                    lower.push(j);
                    stack.push(j);
                } else {
                    upper.push(j);
                }
            }
        };
        for &j in a_cols {
            visit(j, stack);
        }
        while let Some(k) = stack.pop() {
            for &j in &structure.upper_row_cols(k)[..walk_len[k]] {
                visit(j, stack);
            }
        }
        lower.sort_unstable();
        upper.sort_unstable();
        structure.push_row(lower, upper);
        walk_len.push(upper.len());
        // Row i stores L(i, k): if it also stores U(k, i), later reaches
        // read row k's U only up to column i.  A row pruned at its last
        // column looks unpruned and is searched again, finding nothing.
        for &k in lower.iter() {
            let cols = structure.upper_row_cols(k);
            if walk_len[k] == cols.len() {
                if let Ok(pos) = cols.binary_search(&i) {
                    walk_len[k] = pos + 1;
                }
            }
        }
    }
}

/// The fill-in pattern `fp(A)`: positions of `s̃p(A)` that are not in `sp(A)`
/// (and not on the diagonal, which we always treat as structural).
pub fn fill_in_pattern(sp: &SparsityPattern) -> SparsityPattern {
    let symbolic = symbolic_decomposition(sp);
    let n = sp.n_rows();
    let entries = symbolic
        .pattern
        .iter()
        .filter(|&(i, j)| !(sp.contains(i, j) || i == j));
    SparsityPattern::from_entries(n, n, entries).expect("indices come from a valid pattern")
}

/// `|s̃p(A)|` without keeping the pattern (convenience for quality metrics).
pub fn symbolic_size(sp: &SparsityPattern) -> usize {
    closed_structure(sp).nnz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::factorize_fresh;
    use clude_graph::generators::{
        dblp_like, patent_like, wiki_like, DblpLikeConfig, PatentLikeConfig, WikiLikeConfig,
    };
    use clude_graph::{measure_matrix, MatrixKind};
    use clude_sparse::{CooMatrix, SparsityPattern};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Eq. 2 as written: for every pivot `k` in order, the outer product of
    /// the rows below it with the columns right of it joins the pattern.
    fn closure_by_definition(sp: &SparsityPattern) -> SparsityPattern {
        let n = sp.n_rows();
        let mut rows: Vec<BTreeSet<usize>> = (0..n)
            .map(|i| sp.row(i).iter().copied().chain([i]).collect())
            .collect();
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (i, row) in rows.iter().enumerate() {
            for &j in row {
                cols[j].insert(i);
            }
        }
        for k in 0..n {
            let below: Vec<usize> = cols[k].range(k + 1..).copied().collect();
            let right: Vec<usize> = rows[k].range(k + 1..).copied().collect();
            for &i in &below {
                for &j in &right {
                    if rows[i].insert(j) {
                        cols[j].insert(i);
                    }
                }
            }
        }
        let rows = rows.into_iter().map(|r| r.into_iter().collect()).collect();
        SparsityPattern::from_sorted_rows(n, rows)
    }

    #[test]
    fn row_merge_equals_the_set_definition_on_the_generators() {
        let kind = MatrixKind::RandomWalk { damping: 0.85 };
        for seed in [11u64, 12, 97] {
            let mut rng = StdRng::seed_from_u64(seed);
            let wiki = wiki_like::generate(&WikiLikeConfig::tiny(), &mut rng);
            let patent = patent_like::generate(&PatentLikeConfig::tiny(), &mut rng).egs;
            let dblp = dblp_like::generate(&DblpLikeConfig::tiny(), &mut rng);
            for egs in [wiki, patent, dblp] {
                for graph in [egs.snapshot(0), egs.snapshot(egs.len() - 1)] {
                    let natural = measure_matrix(&graph, kind).pattern();
                    let ordered = crate::ordering::reorder_pattern(
                        &natural,
                        &crate::ordering::markowitz_ordering(&natural).ordering,
                    );
                    for sp in [natural, ordered] {
                        let sd = symbolic_decomposition(&sp);
                        let oracle = closure_by_definition(&sp);
                        assert_eq!(sd.pattern, oracle, "seed {seed}");
                        let diag_missing = (0..sp.n_rows()).filter(|&i| !sp.contains(i, i));
                        assert_eq!(sd.fill_ins, oracle.nnz() - sp.nnz() - diag_missing.count());
                    }
                }
            }
        }
    }

    /// The arrow-head pattern: dense first row and column, diagonal elsewhere.
    /// Eliminating the first pivot fills the entire matrix.
    fn arrowhead(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            if i > 0 {
                entries.push((0, i));
                entries.push((i, 0));
            }
        }
        SparsityPattern::from_entries(n, n, entries).unwrap()
    }

    /// The same structure but with the hub last: no fill at all.
    fn reversed_arrowhead(n: usize) -> SparsityPattern {
        let mut entries = Vec::new();
        let hub = n - 1;
        for i in 0..n {
            entries.push((i, i));
            if i != hub {
                entries.push((hub, i));
                entries.push((i, hub));
            }
        }
        SparsityPattern::from_entries(n, n, entries).unwrap()
    }

    #[test]
    fn diagonal_pattern_has_no_fill() {
        let sp = SparsityPattern::identity(5);
        let sd = symbolic_decomposition(&sp);
        assert_eq!(sd.fill_ins, 0);
        assert_eq!(sd.size(), 5);
        assert!(fill_in_pattern(&sp).nnz() == 0);
    }

    #[test]
    fn arrowhead_fills_completely() {
        let n = 5;
        let sd = symbolic_decomposition(&arrowhead(n));
        assert_eq!(
            sd.size(),
            n * n,
            "bad ordering of an arrowhead fills everything"
        );
        // fill-ins = n^2 - (3n - 2)
        assert_eq!(sd.fill_ins, n * n - (3 * n - 2));
    }

    #[test]
    fn reversed_arrowhead_has_no_fill() {
        let n = 5;
        let sd = symbolic_decomposition(&reversed_arrowhead(n));
        assert_eq!(sd.fill_ins, 0);
        assert_eq!(sd.size(), 3 * n - 2);
    }

    #[test]
    fn fill_path_example_from_paper_definition() {
        // Path 0 -> 1 -> 2 with all diagonal entries: (2,0) and (0,2) are
        // *not* fill because the intermediate node (1) is larger than 0;
        // but eliminating node 0 of a pattern with (1,0) and (0,2) creates
        // (1,2).
        let sp = SparsityPattern::from_entries(3, 3, vec![(0, 0), (1, 1), (2, 2), (1, 0), (0, 2)])
            .unwrap();
        let fp = fill_in_pattern(&sp);
        assert!(fp.contains(1, 2));
        assert_eq!(fp.nnz(), 1);
    }

    #[test]
    fn symbolic_pattern_contains_original_and_diagonal() {
        let sp = SparsityPattern::from_entries(4, 4, vec![(0, 3), (3, 0), (1, 2)]).unwrap();
        let sd = symbolic_decomposition(&sp);
        for (i, j) in sp.iter() {
            assert!(sd.pattern.contains(i, j));
        }
        for i in 0..4 {
            assert!(sd.pattern.contains(i, i));
        }
    }

    #[test]
    fn monotonicity_lemma_1() {
        // Lemma 1: sp(Aa) ⊆ sp(Ab) implies s̃p(Aa) ⊆ s̃p(Ab).
        let small =
            SparsityPattern::from_entries(5, 5, vec![(0, 1), (1, 0), (2, 4), (4, 2), (1, 3)])
                .unwrap();
        let mut big = small.clone();
        big.insert(0, 4);
        big.insert(3, 2);
        let sd_small = symbolic_decomposition(&small);
        let sd_big = symbolic_decomposition(&big);
        assert!(sd_small.pattern.is_subset_of(&sd_big.pattern));
    }

    #[test]
    fn symbolic_size_matches_decomposition() {
        let sp = arrowhead(6);
        assert_eq!(symbolic_size(&sp), symbolic_decomposition(&sp).size());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_rectangular_patterns() {
        symbolic_decomposition(&SparsityPattern::empty(2, 3));
    }

    fn matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v).unwrap();
        }
        CsrMatrix::from_coo(&coo)
    }

    fn bits(factors: &LuFactors) -> Vec<(usize, usize, u64)> {
        let entries = factors.export_entries();
        entries
            .iter()
            .map(|&(i, j, v)| (i, j, v.to_bits()))
            .collect()
    }

    fn float_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On random diagonally dominant matrices — some with one row's
        /// diagonal shrunk until its pivot may degrade — the kernel's
        /// structure is the set definition's closure and its values are those
        /// of the numeric pass over that closure bit for bit; a matrix the
        /// pass refuses, the kernel refuses with the same error.
        #[test]
        fn the_kernel_is_the_closure_and_the_numeric_pass_bit_for_bit(
            n in 1usize..32,
            entries in proptest::collection::vec((0usize..32, 0usize..32, -1.0f64..1.0), 0..160),
            weak in (0usize..32, 0usize..3),
        ) {
            let mut sums = vec![1.0; n];
            let mut triplets = Vec::new();
            for (i, j, v) in entries {
                let (i, j) = (i % n, j % n);
                if i != j {
                    sums[i] += v.abs();
                    triplets.push((i, j, v));
                }
            }
            let (weak_row, shrink) = (weak.0 % n, [1.0, 1e-9, 1e-14][weak.1]);
            for (i, sum) in sums.into_iter().enumerate() {
                triplets.push((i, i, if i == weak_row { sum * shrink } else { sum }));
            }
            let a = matrix(n, &triplets);
            let closure = Arc::new(LuStructure::from_closed_pattern_unchecked(
                &closure_by_definition(&a.pattern()),
            ));
            prop_assert_eq!(&closed_structure(&a.pattern()), closure.as_ref());
            let Ok(oracle) = LuFactors::factorize(Arc::clone(&closure), &a) else {
                let want = LuFactors::factorize(Arc::clone(&closure), &a).err();
                prop_assert_eq!(factorize_up_looking(&a).err(), want);
                return Ok(());
            };
            let factors = factorize_up_looking(&a).unwrap();
            prop_assert_eq!(factors.structure().as_ref(), closure.as_ref());
            prop_assert!(factors.structure().is_elimination_closed());
            prop_assert_eq!(bits(&factors), bits(&oracle));
        }
    }

    /// The extension as it ran before it copied untouched rows in runs:
    /// every row of the reach re-run through the kernel's walk, from its old
    /// columns and its escaping entries, the rows of the reach found down
    /// the old structure's `L` columns.  The oracle the incremental
    /// extension must match bit for bit.
    fn extend_by_rederivation(
        factors: &LuFactors,
        entries: impl IntoIterator<Item = (usize, usize)>,
    ) -> LuResult<LuFactors> {
        let old = factors.structure();
        let n = old.n();
        let mut escaping = Vec::new();
        for (i, j) in entries {
            if i >= n || j >= n {
                return Err(LuError::EntryOutsideStructure { row: i, col: j });
            }
            if !old.contains(i, j) {
                escaping.push((i, j));
            }
        }
        let closed = old.is_elimination_closed();
        if closed && escaping.is_empty() {
            return Ok(factors.clone());
        }
        escaping.sort_unstable();
        escaping.dedup();
        let mut rerun = vec![!closed; n];
        for &(i, _) in &escaping {
            rerun[i] = true;
        }
        let mut kernel = UpLooking::new(n, old.nnz() + escaping.len());
        let mut values = Vec::with_capacity(old.nnz() + escaping.len());
        let (mut a_cols, mut next) = (Vec::new(), 0);
        for i in 0..n {
            let (cols, vals) = (old.row_cols(i), factors.row_values(i));
            if !rerun[i] {
                let diag = old.diag_slot(i) - old.row_range(i).start;
                kernel.push_finished_row(&cols[..diag], &cols[diag + 1..]);
                values.extend_from_slice(vals);
                continue;
            }
            a_cols.clear();
            a_cols.extend_from_slice(cols);
            while let Some(&(_, j)) = escaping.get(next).filter(|e| e.0 == i) {
                a_cols.push(j);
                next += 1;
            }
            kernel.push_row(i, &a_cols);
            let mut p = 0;
            for &j in kernel.structure.row_cols(i) {
                if cols.get(p) == Some(&j) {
                    values.push(vals[p]);
                    p += 1;
                } else {
                    values.push(0.0);
                }
            }
            if kernel.structure.upper_row_cols(i).len() > old.upper_row_cols(i).len() {
                for &r in old.lower_col(i).0 {
                    rerun[r] = true;
                }
            }
        }
        values.shrink_to_fit();
        let structure = Arc::new(kernel.structure.finish());
        Ok(LuFactors::from_values(structure, values))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random closed structures — the factors of a diagonally dominant
        /// matrix — and random new entries: the extension is the symbolic
        /// closure of the old pattern joined with the new positions, marked
        /// closed, and the full re-derivation's copy bit for bit — layout,
        /// column index and values; every row outside the elimination reach
        /// of the rows whose entries escape keeps its columns and values bit
        /// for bit; and Bennett's sweeps of the new entries over the
        /// extended copy give the fresh factorization of the new matrix to
        /// 1e-12.  Besides the scattered entries, one row takes several
        /// escapes either side of its diagonal, and row 0's U grows under
        /// rows whose L names it, so the reach cascades.
        #[test]
        fn an_extension_is_the_closure_and_keeps_every_row_outside_the_reach(
            n in 1usize..28,
            entries in proptest::collection::vec((0usize..28, 0usize..28, -1.0f64..1.0), 0..120),
            added in proptest::collection::vec((0usize..28, 0usize..28, -1.0f64..1.0), 0..12),
            focus in (0usize..28, proptest::collection::vec(0usize..28, 2..6)),
            cascade in proptest::collection::vec((1usize..28, 1usize..28), 0..4),
        ) {
            let mut sums = vec![1.0; n];
            let mut base = BTreeMap::new();
            let cascade: Vec<(usize, usize)> = cascade.into_iter().map(|(r, c)| (r % n, c % n)).collect();
            let under_row_0 = cascade.iter().filter(|&&(r, _)| r > 0).map(|&(r, _)| (r, 0, 0.25));
            for (i, j, v) in entries.into_iter().chain(under_row_0) {
                let (i, j) = (i % n, j % n);
                if i != j {
                    sums[i] += v.abs();
                    base.insert((i, j), v);
                }
            }
            // The focused row's escapes alternate sides of its diagonal
            // wherever it has both.
            let f = focus.0 % n;
            let focused = focus.1.iter().enumerate().map(|(k, &c)| {
                let left = k % 2 == 0 && f > 0 || f + 1 == n;
                (f, if left { c % f.max(1) } else { f + 1 + c % (n - f - 1).max(1) }, -0.5)
            });
            let row_0 = cascade.iter().map(|&(_, c)| (0, c, 0.5));
            let mut delta = BTreeMap::new();
            for (i, j, v) in added.into_iter().chain(focused).chain(row_0) {
                let (i, j) = (i % n, j % n);
                if i != j && v != 0.0 {
                    sums[i] += v.abs();
                    delta.insert((i, j), (base.get(&(i, j)).copied().unwrap_or(0.0), v));
                }
            }
            let diagonal = (0..n).map(|i| (i, i, sums[i]));
            let triplets: Vec<_> = base.iter().map(|(&(i, j), &v)| (i, j, v)).chain(diagonal).collect();
            let old = factorize_fresh(&matrix(n, &triplets)).unwrap();
            let mut next = base.clone();
            next.extend(delta.iter().map(|(&at, &(_, v))| (at, v)));
            let next_triplets: Vec<_> = next.iter().map(|(&(i, j), &v)| (i, j, v)).chain((0..n).map(|i| (i, i, sums[i]))).collect();
            let a_next = matrix(n, &next_triplets);

            let extended = extend_structure(&old, delta.keys().copied()).unwrap();
            let oracle = extend_by_rederivation(&old, delta.keys().copied()).unwrap();
            prop_assert_eq!(extended.structure().as_ref(), oracle.structure().as_ref());
            for j in 0..n {
                prop_assert_eq!(extended.structure().lower_col(j), oracle.structure().lower_col(j));
            }
            prop_assert_eq!(float_bits(extended.values()), float_bits(oracle.values()));
            let s = old.structure();
            let mut union = s.pattern();
            for &(i, j) in delta.keys() {
                union.insert(i, j);
            }
            prop_assert_eq!(extended.structure().as_ref(), &closed_structure(&union));
            prop_assert!(extended.structure().is_elimination_closed());
            let rebuilt = LuStructure::from_sorted_rows(n, extended.nnz(), |i| extended.structure().row_cols(i)).unwrap();
            prop_assert!(rebuilt.is_elimination_closed());
            // The elimination reach of the escaping rows, through the old
            // structure's L columns.
            let mut reach: BTreeSet<usize> =
                delta.keys().filter(|&&(i, j)| !s.contains(i, j)).map(|&(i, _)| i).collect();
            for k in 0..n {
                if reach.contains(&k) {
                    reach.extend((k + 1..n).filter(|&i| s.contains(i, k)));
                }
            }
            if reach.is_empty() {
                prop_assert!(Arc::ptr_eq(extended.structure(), s));
            }
            for i in (0..n).filter(|i| !reach.contains(i)) {
                prop_assert_eq!(extended.structure().row_cols(i), s.row_cols(i));
                let bits = |f: &LuFactors| f.row_values(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&extended), bits(&old));
            }
            // The copy stores the same L and U.
            for (i, j, v) in old.export_entries() {
                let got = if j < i { extended.l(i, j) } else { extended.u(i, j) };
                prop_assert_eq!(got.to_bits(), v.to_bits());
            }
            let mut swept = extended;
            let changes: Vec<_> = delta.iter().map(|(&(i, j), &(was, v))| (i, j, was, v)).collect();
            crate::apply_delta_with(&mut swept, &mut crate::BennettWorkspace::new(), &changes).unwrap();
            let fresh = factorize_fresh(&a_next).unwrap();
            for i in 0..n {
                for j in 0..n {
                    prop_assert!((swept.l(i, j) - fresh.l(i, j)).abs() <= 1e-12, "L({}, {})", i, j);
                    prop_assert!((swept.u(i, j) - fresh.u(i, j)).abs() <= 1e-12, "U({}, {})", i, j);
                }
            }
        }
    }

    #[test]
    fn extending_an_open_structure_closes_it_once_and_a_position_past_the_order_is_refused() {
        // Row 1 stores L(1, 0) and row 0 stores U(0, 2), but row 1 lacks
        // (1, 2): the layout is not closed, and an extension by nothing
        // closes it, keeping every value and zero-filling the new slot.
        let entries = [
            (0, 0, 2.0),
            (0, 2, 1.0),
            (1, 0, 0.5),
            (1, 1, 3.0),
            (2, 2, 4.0),
        ];
        let open = LuFactors::from_sorted_entries(3, &entries).unwrap();
        assert!(!open.structure().is_elimination_closed());
        let closed = extend_structure(&open, []).unwrap();
        assert!(closed.structure().is_elimination_closed());
        assert_eq!(closed.nnz(), 6);
        assert_eq!(closed.u(1, 2).to_bits(), 0.0f64.to_bits());
        for (i, j, v) in entries {
            let got = if j < i {
                closed.l(i, j)
            } else {
                closed.u(i, j)
            };
            assert_eq!(got.to_bits(), v.to_bits());
        }
        assert_eq!(
            extend_structure(&closed, [(1, 3)]).unwrap_err(),
            LuError::EntryOutsideStructure { row: 1, col: 3 }
        );
    }

    #[test]
    fn orders_zero_and_one_factorize_exactly() {
        let empty = factorize_up_looking(&matrix(0, &[])).unwrap();
        assert_eq!((empty.n(), empty.nnz()), (0, 0));
        assert_eq!(empty.solve(&[]).unwrap(), Vec::<f64>::new());
        assert_eq!(symbolic_size(&SparsityPattern::empty(0, 0)), 0);
        let one = factorize_up_looking(&matrix(1, &[(0, 0, -4.0)])).unwrap();
        assert_eq!(bits(&one), vec![(0, 0, (-4.0f64).to_bits())]);
        assert_eq!(one.solve(&[2.0]).unwrap(), vec![-0.5]);
        // Order one without its entry: the structural diagonal holds 0.
        assert_eq!(
            factorize_up_looking(&matrix(1, &[])).unwrap_err(),
            LuError::SingularPivot {
                index: 0,
                value: 0.0
            }
        );
    }

    #[test]
    fn a_row_without_its_diagonal_is_a_singular_pivot() {
        // Row 1 has no (1, 1) and eliminating L(1, 0) against row 0 fills
        // (1, 2) but not the diagonal: its slot exists and holds zero.
        let a = matrix(
            3,
            &[
                (0, 0, 2.0),
                (0, 2, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 2, 3.0),
            ],
        );
        assert_eq!(
            factorize_up_looking(&a).unwrap_err(),
            LuError::SingularPivot {
                index: 1,
                value: 0.0
            }
        );
        assert!(closed_structure(&a.pattern()).contains(1, 1));
    }

    #[test]
    fn a_non_finite_entry_is_refused_as_the_matrix_parameter() {
        // On or off the diagonal, in the first row or a later one: the
        // kernel and the numeric pass over an outside structure both refuse
        // it while scattering its row — the off-diagonal NaN used to pass
        // through, because `f64::max` drops it from the row's largest
        // magnitude, and come back as factors holding NaN.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [(0, 0), (2, 0), (2, 1), (2, 2)] {
                let mut entries = vec![(0, 0, 4.0), (1, 1, 4.0), (2, 2, 4.0), (2, 0, 1.0)];
                entries.push((1, 0, 1.0));
                match entries.iter_mut().find(|e| (e.0, e.1) == at) {
                    Some(entry) => entry.2 = bad,
                    None => entries.push((at.0, at.1, bad)),
                }
                let a = matrix(3, &entries);
                let structure = closed_structure(&a.pattern()).into_shared();
                for err in [
                    factorize_up_looking(&a).unwrap_err(),
                    LuFactors::factorize(structure, &a).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, LuError::InvalidParameter { name: "matrix", value }
                            if value.to_bits() == bad.to_bits()),
                        "{bad} at {at:?}: {err:?}"
                    );
                }
            }
        }
    }
}
