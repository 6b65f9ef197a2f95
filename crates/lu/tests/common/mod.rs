//! Throwaway-workspace forms of the Bennett entry points.
//!
//! Production callers hold a [`BennettWorkspace`] and use the `_with` forms so
//! the sweep stays allocation-free; tests that apply one update and look at
//! the result do not care.  Shared by `src/bennett.rs`'s unit tests,
//! `tests/proptest_lu.rs` and the workspace-level `tests/property_tests.rs`
//! (each pulls this file in with `#[path]`).

// Not every test file uses both forms.
#![allow(dead_code)]

use clude_lu::{
    apply_delta_with, rank_one_update_with, BennettStats, BennettWorkspace, LuResult, LuStorage,
};

/// [`rank_one_update_with`] over a fresh workspace.
pub fn rank_one_update<S: LuStorage>(
    storage: &mut S,
    x_entries: &[(usize, f64)],
    y_entries: &[(usize, f64)],
    g: f64,
) -> LuResult<BennettStats> {
    rank_one_update_with(
        storage,
        &mut BennettWorkspace::new(),
        x_entries,
        y_entries,
        g,
    )
}

/// [`apply_delta_with`] over a fresh workspace.
pub fn apply_delta<S: LuStorage>(
    storage: &mut S,
    delta: &[(usize, usize, f64, f64)],
) -> LuResult<BennettStats> {
    apply_delta_with(storage, &mut BennettWorkspace::new(), delta)
}

/// Writes one factor entry through the storage's own Bennett walks (`U` on
/// and right of the diagonal, `L` below it), under the storage's write rule.
pub fn write_entry<S: LuStorage>(storage: &mut S, i: usize, j: usize, value: f64) {
    let only =
        |target: usize| move |index: usize, old: f64| if index == target { value } else { old };
    if i == j {
        storage.pivot(i);
        storage.set_pivot(i, value);
    } else if j > i {
        storage.update_u_row(i, &[j], only(j)).expect("write");
    } else {
        storage.update_l_col(j, &[i], only(i)).expect("write");
    }
}
