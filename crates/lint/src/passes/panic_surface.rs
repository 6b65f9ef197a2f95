//! `panic-surface`: the hot path must not be able to panic.
//!
//! `unwrap` / `expect` / `panic!` / `todo!` / `unimplemented!` /
//! `unreachable!` are banned
//! outside `#[cfg(test)]` code in the engine's hot-path modules — the
//! allocation-free Bennett/solve chains and the serving-path modules where a
//! panic would poison the ingest mutex or a cache shard and take the whole
//! engine down with it.  Recoverable failures belong in `LuError` /
//! `EngineError`; the rare genuinely-impossible case takes a waiver whose
//! reason states the invariant that makes it impossible.

use crate::diag::{Diagnostic, Severity};
use crate::source::{FileContext, FileRole};

/// Modules under the panic ban (workspace-relative paths).  Files opted into
/// the hot-path allocation pass via `// lint: hot-path` are covered too.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/lu/src/bennett.rs",
    "crates/lu/src/solve.rs",
    "crates/engine/src/store.rs",
    "crates/engine/src/sharded.rs",
    "crates/engine/src/coupling.rs",
    "crates/engine/src/coupling/plan.rs",
    "crates/engine/src/query.rs",
    "crates/telemetry/src/hist.rs",
];

const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Scans one file; no-op unless the file is on the hot path.
pub fn run(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.role != FileRole::Lib {
        return;
    }
    if !(HOT_PATH_MODULES.contains(&ctx.path.as_str()) || ctx.directives.hot_path) {
        return;
    }
    let code = ctx.code_indices();
    for (k, &i) in code.iter().enumerate() {
        let tok = &ctx.tokens[i];
        if ctx.is_test_line(tok.line) {
            continue;
        }
        // `.unwrap(` / `.expect(` method calls.
        if (tok.is_ident("unwrap") || tok.is_ident("expect"))
            && k > 0
            && ctx.tokens[code[k - 1]].is_punct('.')
            && k + 1 < code.len()
            && ctx.tokens[code[k + 1]].is_punct('(')
        {
            out.push(finding(
                ctx,
                tok.line,
                format!(
                    ".{}() can panic on the hot path — propagate a LuError/EngineError \
                     instead, or waiver with the invariant that rules the failure out",
                    tok.text
                ),
            ));
        }
        // `panic!(` / `todo!(` / `unimplemented!(` / `unreachable!(` macro
        // invocations.
        if PANIC_MACROS.iter().any(|m| tok.is_ident(m))
            && k + 1 < code.len()
            && ctx.tokens[code[k + 1]].is_punct('!')
        {
            out.push(finding(
                ctx,
                tok.line,
                format!(
                    "{}! aborts the hot path — return an error variant instead",
                    tok.text
                ),
            ));
        }
    }
}

fn finding(ctx: &FileContext<'_>, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: ctx.path.clone(),
        line,
        lint: "panic-surface",
        message,
        severity: Severity::Deny,
    }
}
