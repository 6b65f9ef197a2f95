//! Fixture tests: every pass proves it (a) catches a seeded violation,
//! (b) honors a reasoned waiver, (c) exempts `#[cfg(test)]` code, and
//! (d) is not fooled by `unwrap()` spelled inside strings or comments —
//! plus a meta-test asserting the real workspace lints clean.
//!
//! Fixtures are in-memory [`SourceFile`]s fed straight to [`run_passes`];
//! they live inside string literals, which the lexer of the *real* workspace
//! walk sees as opaque `Str` tokens — seeding a violation here cannot trip
//! the gate on this repository itself.

use clude_lint::diag::Severity;
use clude_lint::{run_passes, LintReport, SourceFile};

/// Lints a set of `(path, source)` fixtures.
fn lint(files: &[(&str, &str)]) -> LintReport {
    let files: Vec<SourceFile> = files
        .iter()
        .map(|(p, s)| SourceFile {
            path: (*p).to_string(),
            source: (*s).to_string(),
        })
        .collect();
    run_passes(&files)
}

/// The number of findings of one lint in the report.
fn count(report: &LintReport, lint: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.lint == lint).count()
}

// ---------------------------------------------------------------- panic-surface

#[test]
fn panic_surface_catches_unwrap_in_hot_path_module() {
    let report = lint(&[(
        "crates/lu/src/bennett.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 1);
    assert!(report.has_denials());
    assert_eq!(report.diagnostics[0].line, 2);
}

#[test]
fn panic_surface_catches_panic_macros() {
    let report = lint(&[(
        "crates/engine/src/store.rs",
        "pub fn f() {\n    panic!(\"boom\");\n}\npub fn g() {\n    todo!()\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 2);
}

#[test]
fn panic_surface_catches_unreachable() {
    let report = lint(&[(
        "crates/engine/src/coupling.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    match x {\n        Some(v) => v,\n        \
         None => unreachable!(\"always Some\"),\n    }\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 1);
    assert_eq!(report.diagnostics[0].line, 4);
}

#[test]
fn panic_surface_ignores_modules_off_the_hot_path() {
    let report = lint(&[(
        "crates/graph/src/egs.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 0);
}

#[test]
fn panic_surface_honors_a_reasoned_waiver() {
    let report = lint(&[(
        "crates/lu/src/bennett.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    \
         // lint: allow(panic-surface) — x is Some by the caller's loop invariant\n    \
         x.unwrap()\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 0);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn panic_surface_exempts_cfg_test_code() {
    let report = lint(&[(
        "crates/lu/src/bennett.rs",
        "pub fn live() {}\n\
         #[cfg(test)]\n\
         mod tests {\n    \
         #[test]\n    \
         fn t() {\n        Some(1).unwrap();\n    }\n\
         }\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 0);
}

#[test]
fn panic_surface_ignores_unwrap_in_strings_and_comments() {
    let report = lint(&[(
        "crates/lu/src/bennett.rs",
        "pub fn f() -> &'static str {\n    \
         // the caller used to x.unwrap() here; see the docs\n    \
         \"please don't .unwrap() this\"\n}\n",
    )]);
    assert_eq!(count(&report, "panic-surface"), 0);
}

// -------------------------------------------------------------- atomic-ordering

#[test]
fn atomic_ordering_catches_relaxed_and_seqcst() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "pub fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    \
         a.fetch_add(1, std::sync::atomic::Ordering::SeqCst);\n    \
         a.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 2);
}

#[test]
fn atomic_ordering_leaves_acquire_release_alone() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "pub fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    \
         a.store(1, std::sync::atomic::Ordering::Release);\n    \
         a.load(std::sync::atomic::Ordering::Acquire)\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 0);
}

#[test]
fn atomic_ordering_is_not_fooled_by_cmp_ordering() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "pub fn f(a: u32, b: u32) -> std::cmp::Ordering {\n    \
         a.cmp(&b)\n}\n\
         pub fn g() -> std::cmp::Ordering {\n    \
         std::cmp::Ordering::Less\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 0);
}

#[test]
fn atomic_ordering_flags_bare_imported_names_but_not_the_import() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "use std::sync::atomic::{AtomicU64, Ordering::Relaxed};\n\
         pub fn f(a: &AtomicU64) -> u64 {\n    \
         a.load(Relaxed)\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 1);
    assert_eq!(report.diagnostics[0].line, 3);
}

#[test]
fn atomic_ordering_exempts_histogram_internals() {
    let report = lint(&[(
        "crates/telemetry/src/hist.rs",
        "pub fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    \
         a.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 0);
}

#[test]
fn atomic_ordering_honors_a_reasoned_waiver() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "pub fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    \
         // lint: allow(atomic-ordering) — independent monotonic tally, never ordered\n    \
         a.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    )]);
    assert_eq!(count(&report, "atomic-ordering"), 0);
    assert_eq!(report.waivers_used, 1);
}

// -------------------------------------------------------------- alloc-hot-path

#[test]
fn alloc_pass_is_opt_in_via_the_header() {
    let src = "pub fn f(n: usize) -> Vec<f64> {\n    vec![0.0; n]\n}\n";
    let silent = lint(&[("crates/lu/src/dense.rs", src)]);
    assert_eq!(count(&silent, "alloc-hot-path"), 0);

    let opted = format!("// lint: hot-path\n{src}");
    let loud = lint(&[("crates/lu/src/dense.rs", &opted)]);
    assert_eq!(count(&loud, "alloc-hot-path"), 1);
}

#[test]
fn alloc_pass_catches_every_constructor_shape() {
    let report = lint(&[(
        "crates/lu/src/dense.rs",
        "// lint: hot-path\n\
         pub fn f(n: usize, xs: &[f64]) {\n    \
         let a: Vec<f64> = Vec::new();\n    \
         let b = Vec::<f64>::with_capacity(n);\n    \
         let c = Box::new(4usize);\n    \
         let d = xs.to_vec();\n    \
         let e = xs.iter().copied().collect::<Vec<f64>>();\n    \
         let _ = (a, b, c, d, e);\n}\n",
    )]);
    assert_eq!(count(&report, "alloc-hot-path"), 5);
}

#[test]
fn alloc_pass_exempts_cfg_test_and_honors_waivers() {
    let report = lint(&[(
        "crates/lu/src/dense.rs",
        "// lint: hot-path\n\
         pub fn setup(n: usize) -> Vec<f64> {\n    \
         // lint: allow(alloc-hot-path) — constructor pre-sizing on the setup path\n    \
         vec![0.0; n]\n}\n\
         #[cfg(test)]\n\
         mod tests {\n    \
         fn t() {\n        let _ = vec![1];\n    }\n\
         }\n",
    )]);
    assert_eq!(count(&report, "alloc-hot-path"), 0);
    assert_eq!(report.suppressed, 1);
}

// ------------------------------------------------------------- lock-discipline

#[test]
fn lock_discipline_catches_a_second_lock_under_a_live_guard() {
    let report = lint(&[(
        "crates/graph/src/locks.rs",
        "pub fn f(&self) {\n    \
         let a = self.m.lock();\n    \
         let b = self.n.lock();\n    \
         let _ = (a, b);\n}\n",
    )]);
    assert_eq!(count(&report, "lock-discipline"), 1);
    assert_eq!(report.diagnostics[0].line, 3);
}

#[test]
fn lock_discipline_respects_drop_and_scope_release() {
    let report = lint(&[(
        "crates/graph/src/locks.rs",
        "pub fn dropped(&self) {\n    \
         let a = self.m.lock();\n    \
         drop(a);\n    \
         let b = self.n.lock();\n    \
         let _ = b;\n}\n\
         pub fn scoped(&self) {\n    \
         {\n        let a = self.m.lock();\n        let _ = a;\n    }\n    \
         let b = self.n.lock();\n    \
         let _ = b;\n}\n",
    )]);
    assert_eq!(count(&report, "lock-discipline"), 0);
}

#[test]
fn lock_discipline_sees_through_same_file_calls() {
    let report = lint(&[(
        "crates/graph/src/locks.rs",
        "fn helper(&self) {\n    \
         let g = self.n.write();\n    \
         let _ = g;\n}\n\
         pub fn f(&self) {\n    \
         let a = self.m.lock();\n    \
         self.helper();\n    \
         let _ = a;\n}\n",
    )]);
    assert_eq!(count(&report, "lock-discipline"), 1);
    assert_eq!(report.diagnostics[0].line, 7);
}

#[test]
fn lock_discipline_honors_the_documented_nesting_waiver() {
    let report = lint(&[(
        "crates/graph/src/locks.rs",
        "pub fn f(&self) {\n    \
         let a = self.m.lock();\n    \
         // lint: allow(lock-discipline) — documented order: ingest first, ring second\n    \
         let b = self.ring.write();\n    \
         let _ = (a, b);\n}\n",
    )]);
    assert_eq!(count(&report, "lock-discipline"), 0);
    assert_eq!(report.waivers_used, 1);
}

#[test]
fn lock_discipline_exempts_test_targets() {
    let report = lint(&[(
        "crates/graph/tests/locking.rs",
        "pub fn f(&self) {\n    \
         let a = self.m.lock();\n    \
         let b = self.n.lock();\n    \
         let _ = (a, b);\n}\n",
    )]);
    assert_eq!(count(&report, "lock-discipline"), 0);
}

// ---------------------------------------------------------- telemetry-coverage

#[test]
fn telemetry_coverage_flags_an_uninstrumented_variant() {
    let report = lint(&[
        (
            "crates/telemetry/src/stage.rs",
            "pub enum Stage {\n    IngestApply,\n    QuerySolve,\n}\n",
        ),
        (
            "crates/engine/src/engine.rs",
            "pub fn f(t: &T) {\n    t.span(Stage::IngestApply);\n}\n",
        ),
    ]);
    assert_eq!(count(&report, "telemetry-coverage"), 1);
    assert!(report.diagnostics[0].message.contains("Stage::QuerySolve"));
}

#[test]
fn telemetry_coverage_passes_when_every_variant_is_emitted() {
    let report = lint(&[
        (
            "crates/telemetry/src/stage.rs",
            "pub enum Stage {\n    IngestApply,\n    QuerySolve,\n}\n",
        ),
        (
            "crates/engine/src/engine.rs",
            "pub fn f(t: &T) {\n    t.span(Stage::IngestApply);\n    t.span(Stage::QuerySolve);\n}\n",
        ),
    ]);
    assert_eq!(count(&report, "telemetry-coverage"), 0);
}

#[test]
fn telemetry_coverage_does_not_count_test_only_sites() {
    let report = lint(&[
        (
            "crates/telemetry/src/stage.rs",
            "pub enum Stage {\n    IngestApply,\n}\n",
        ),
        (
            "crates/engine/src/engine.rs",
            "#[cfg(test)]\n\
             mod tests {\n    \
             fn t(t: &T) {\n        t.span(Stage::IngestApply);\n    }\n\
             }\n",
        ),
    ]);
    assert_eq!(count(&report, "telemetry-coverage"), 1);
}

#[test]
fn telemetry_coverage_rejects_a_counter_no_event_feeds() {
    let registry = "pub enum Counter {\n    BatchesApplied,\n    Orphaned,\n}\n\
                    pub enum ShardCounter {\n    Sweeps,\n}\n";
    let report = lint(&[
        ("crates/telemetry/src/registry.rs", registry),
        (
            "crates/engine/src/engine.rs",
            "pub fn f(t: &T) {\n    t.incr(Counter::BatchesApplied);\n    \
             t.add_shard(0, ShardCounter::Sweeps, 1);\n}\n\
             #[cfg(test)]\n\
             mod tests {\n    \
             fn t(t: &T) {\n        t.incr(Counter::Orphaned);\n    }\n\
             }\n",
        ),
        // The statistics view reads every counter; a read feeds nothing.
        (
            "crates/engine/src/stats.rs",
            "pub fn view(t: &T) -> u64 {\n    t.counter(Counter::Orphaned)\n}\n",
        ),
    ]);
    assert_eq!(count(&report, "telemetry-coverage"), 1);
    assert!(report.diagnostics[0].message.contains("Counter::Orphaned"));
    // Fed from live code, the same declaration passes.
    let report = lint(&[
        ("crates/telemetry/src/registry.rs", registry),
        (
            "crates/engine/src/engine.rs",
            "pub fn f(t: &T) {\n    t.incr(Counter::BatchesApplied);\n    \
             t.incr(Counter::Orphaned);\n    t.add_shard(0, ShardCounter::Sweeps, 1);\n}\n",
        ),
    ]);
    assert_eq!(count(&report, "telemetry-coverage"), 0);
}

// --------------------------------------------------------------- forbid-unsafe

#[test]
fn forbid_unsafe_requires_the_attribute_at_crate_roots() {
    let report = lint(&[
        ("crates/foo/src/lib.rs", "pub fn f() {}\n"),
        (
            "crates/bar/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        ),
        ("crates/foo/src/util.rs", "pub fn g() {}\n"),
    ]);
    assert_eq!(count(&report, "forbid-unsafe"), 1);
    assert_eq!(report.diagnostics[0].file, "crates/foo/src/lib.rs");
}

// --------------------------------------------------------------- waiver hygiene

#[test]
fn waiver_without_a_reason_is_a_deny_finding() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "// lint: allow(atomic-ordering)\n\
         pub fn f(a: &std::sync::atomic::AtomicU64) -> u64 {\n    \
         a.load(std::sync::atomic::Ordering::Relaxed)\n}\n",
    )]);
    assert_eq!(count(&report, "waiver-syntax"), 1);
    assert!(report.has_denials());
}

#[test]
fn waiver_naming_an_unknown_lint_is_a_deny_finding() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "// lint: allow(made-up-pass) — this lint does not exist anywhere\n\
         pub fn f() {}\n",
    )]);
    assert_eq!(count(&report, "waiver-syntax"), 1);
    assert!(report.has_denials());
}

#[test]
fn waiver_that_suppresses_nothing_is_a_warn_finding() {
    let report = lint(&[(
        "crates/engine/src/counters.rs",
        "// lint: allow(panic-surface) — nothing here actually panics at all\n\
         pub fn f() {}\n",
    )]);
    assert_eq!(count(&report, "waiver-syntax"), 1);
    assert_eq!(report.diagnostics[0].severity, Severity::Warn);
    assert!(!report.has_denials());
}

// ------------------------------------------------------------------- meta-test

/// The real workspace must lint clean: zero findings of any severity, every
/// waiver used.  This is the same invariant the CI gate enforces.
#[test]
fn the_workspace_itself_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = clude_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 100,
        "walk looks truncated: {} files",
        report.files_scanned
    );
    assert!(report.waivers_used > 0, "expected waivers in the workspace");
}
