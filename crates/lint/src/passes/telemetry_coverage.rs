//! `telemetry-coverage`: observability cannot silently rot.
//!
//! Every `Stage` variant declared in `crates/telemetry/src/stage.rs`, every
//! `EventKind` declared in `crates/telemetry/src/journal.rs` and every
//! `Counter` and `ShardCounter` declared in `crates/telemetry/src/registry.rs`
//! must be emitted from at least one *non-test* instrumentation site in
//! `crates/engine` — a stage timed nowhere, an event never recorded or a
//! counter no event feeds is a dashboard series that quietly flatlines.
//! Sites count whether they spell `Stage::X`, `Counter::X`,
//! `ShardCounter::X`, `EventKind::X`, or the journal's payload enum
//! `EngineEvent::X` (kinds map 1:1 onto payload variants).  The engine's
//! statistics view (`crates/engine/src/stats.rs`) reads every counter, so
//! its mentions of one are not sites.

use crate::diag::{Diagnostic, Severity};
use crate::source::FileContext;
use std::collections::HashSet;

const STAGE_DECL: &str = "crates/telemetry/src/stage.rs";
const KIND_DECL: &str = "crates/telemetry/src/journal.rs";
const COUNTER_DECL: &str = "crates/telemetry/src/registry.rs";
/// Where the engine reads its counters back: mentions there feed nothing.
const COUNTER_VIEW: &str = "crates/engine/src/stats.rs";

/// Runs the coverage check over the whole file set.  A no-op when the
/// telemetry declarations are not among the inputs (single-file fixture
/// runs).
pub fn run(files: &[FileContext<'_>], out: &mut Vec<Diagnostic>) {
    // (declaration, enum, site paths, what a site does, file not searched)
    let checks = [
        (STAGE_DECL, "Stage", &["Stage"][..], "span", ""),
        (
            KIND_DECL,
            "EventKind",
            &["EventKind", "EngineEvent"][..],
            "record_event",
            "",
        ),
        (
            COUNTER_DECL,
            "Counter",
            &["Counter"][..],
            "count",
            COUNTER_VIEW,
        ),
        (
            COUNTER_DECL,
            "ShardCounter",
            &["ShardCounter"][..],
            "count",
            COUNTER_VIEW,
        ),
    ];
    for (decl_file, enum_name, site_paths, site, view) in checks {
        let Some(decl) = files.iter().find(|f| f.path == decl_file) else {
            continue;
        };
        let variants = enum_variants(decl, enum_name);
        let mut seen: HashSet<&str> = HashSet::new();
        for file in files
            .iter()
            .filter(|f| f.path.starts_with("crates/engine/") && f.path != view)
        {
            collect_sites(file, site_paths, &variants, &mut seen);
        }
        for (name, line) in &variants {
            if !seen.contains(name.as_str()) {
                out.push(Diagnostic {
                    file: decl.path.clone(),
                    line: *line,
                    lint: "telemetry-coverage",
                    message: format!(
                        "{enum_name}::{name} is declared but never instrumented in \
                         crates/engine — add the {site} site or remove the variant",
                    ),
                    severity: Severity::Deny,
                });
            }
        }
    }
}

/// Extracts the unit-variant names (and declaration lines) of `enum <name>`.
/// Variant payloads (`X { … }` / `X(…)`) are skipped over.
fn enum_variants(ctx: &FileContext<'_>, name: &str) -> Vec<(String, usize)> {
    let code = ctx.code_indices();
    let mut out = Vec::new();
    let mut k = 0;
    while k < code.len() {
        if ctx.tokens[code[k]].is_ident("enum")
            && k + 1 < code.len()
            && ctx.tokens[code[k + 1]].is_ident(name)
        {
            // Move to the opening brace.
            let mut j = k + 2;
            while j < code.len() && !ctx.tokens[code[j]].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            let mut expect_variant = true;
            while j < code.len() {
                let t = &ctx.tokens[code[j]];
                if depth == 1 && t.is_punct('#') {
                    // Attribute on a variant: skip the `[ … ]` group without
                    // consuming the variant-expected state.
                    let mut attr_depth = 0usize;
                    j += 1;
                    while j < code.len() {
                        let a = &ctx.tokens[code[j]];
                        if a.is_punct('[') {
                            attr_depth += 1;
                        } else if a.is_punct(']') {
                            attr_depth -= 1;
                            if attr_depth == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                } else if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                    // Entering a payload: the next ident is a field, not a
                    // variant.
                    if depth > 1 {
                        expect_variant = false;
                    }
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return out;
                    }
                } else if depth == 1 {
                    if t.is_punct(',') {
                        expect_variant = true;
                    } else if expect_variant && t.kind == crate::lexer::TokenKind::Ident {
                        out.push((t.text.to_string(), t.line));
                        expect_variant = false;
                    }
                }
                j += 1;
            }
            return out;
        }
        k += 1;
    }
    out
}

/// Collects `Path::Variant` uses from non-test code.
fn collect_sites<'a>(
    ctx: &'a FileContext<'_>,
    site_paths: &[&str],
    variants: &[(String, usize)],
    seen: &mut HashSet<&'a str>,
) {
    let code = ctx.code_indices();
    for k in 3..code.len() {
        let tok = &ctx.tokens[code[k]];
        if tok.kind != crate::lexer::TokenKind::Ident || ctx.is_test_line(tok.line) {
            continue;
        }
        if !variants.iter().any(|(v, _)| v == tok.text) {
            continue;
        }
        let prev1 = &ctx.tokens[code[k - 1]];
        let prev2 = &ctx.tokens[code[k - 2]];
        let prev3 = &ctx.tokens[code[k - 3]];
        if prev1.is_punct(':')
            && prev2.is_punct(':')
            && site_paths.iter().any(|p| prev3.is_ident(p))
        {
            seen.insert(tok.text);
        }
    }
}
