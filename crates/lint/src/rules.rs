//! The lint rules (L1–L4, L6) enforcing the engine's safety and
//! determinism invariants, evaluated over the token stream of one file at a
//! time.  There is no L5; its number is not reused.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L1 | every `unsafe` block/fn/call is preceded by a `// SAFETY:` comment |
//! | L2 | no `.unwrap()` / `.expect(` in non-test code of the hot-path crates |
//! | L3 | `SeqCst` is banned outright; `Relaxed` only in sanctioned modules |
//! | L4 | `panic_any` / `catch_unwind` only at governor/executor boundaries |
//! | L6 | `Instant` / `SystemTime` only in timing and telemetry modules |

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, Severity};

/// How many lines above an `unsafe` token a `// SAFETY:` comment may sit
/// (same line counts too).
const SAFETY_WINDOW: u32 = 3;

/// Module prefixes where `Ordering::Relaxed` is sanctioned: telemetry
/// counters and transient engine counters whose exact interleaving is
/// observable only through diagnostics, never through query results.
const RELAXED_ALLOWED: &[&str] = &[
    "crates/telemetry/src/",
    "crates/core/src/ops/mod.rs",
    "crates/core/src/govern.rs",
    "crates/core/src/faults.rs",
    "crates/server/src/lib.rs",
];

/// Modules allowed to call `catch_unwind`: the governor's panic boundary
/// and the server worker loop that contains engine panics per query.
const CATCH_UNWIND_ALLOWED: &[&str] = &["crates/core/src/govern.rs", "crates/server/src/lib.rs"];

/// Modules allowed to call `panic_any`: the decode-error panicking
/// wrappers (compression, operators) and the governor that rethrows
/// payloads across the boundary.
const PANIC_ANY_ALLOWED: &[&str] = &[
    "crates/compression/src/",
    "crates/core/src/ops/",
    "crates/core/src/govern.rs",
];

/// Timing-sanctioned modules for L6: telemetry itself, the benchmark
/// harness, the scheduler's node timing and the fused pass's stage timing,
/// the governor's deadline, tuning measurement, and the server's
/// queue-wait estimation.
const TIMING_ALLOWED: &[&str] = &[
    "crates/telemetry/src/",
    "crates/bench/",
    "crates/core/src/fusion.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/govern.rs",
    "crates/cost/src/strategy.rs",
    "crates/server/src/",
];

/// Crate roots whose non-test code must stay panic-free (L2): the single
/// read path — format cursors, the column walker, the operator chunk steps
/// and the fused chunk loop — and the vector kernels.
const HOT_PATHS: &[&str] = &[
    "crates/compression/src/",
    "crates/storage/src/",
    "crates/vector/src/",
    "crates/core/src/ops/",
    "crates/core/src/fusion.rs",
];

/// One file being linted: its workspace-relative path, token stream and
/// per-token test-region flags.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Token stream from [`crate::lexer::lex`].
    pub tokens: &'a [Token],
    /// Per-token flags from [`crate::lexer::test_regions`]; a `true` means
    /// the token is inside `#[test]` / `#[cfg(test)]` code.
    pub in_test: &'a [bool],
    /// Whole-file test flag (integration tests under a `tests/` directory).
    pub is_test_file: bool,
}

impl FileContext<'_> {
    fn is_test_token(&self, idx: usize) -> bool {
        self.is_test_file || self.in_test.get(idx).copied().unwrap_or(false)
    }

    fn in_any(&self, prefixes: &[&str]) -> bool {
        prefixes.iter().any(|p| self.path.starts_with(p))
    }
}

/// Run every rule over one file, appending diagnostics to `out`.
pub fn check_file(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    l1_safety_comments(ctx, out);
    l2_no_unwrap_in_hot_paths(ctx, out);
    l3_atomic_orderings(ctx, out);
    l4_panic_boundaries(ctx, out);
    l6_time_sources(ctx, out);
}

fn diag(
    ctx: &FileContext<'_>,
    rule: &'static str,
    severity: Severity,
    line: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        file: ctx.path.to_string(),
        line,
        message,
    }
}

/// L1: every `unsafe` keyword must have a `// SAFETY:` comment on the same
/// line or within [`SAFETY_WINDOW`] lines above it. Applies to test code
/// too: a test dereferencing raw pointers needs its argument spelled out
/// just as much.
fn l1_safety_comments(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for token in ctx.tokens {
        if !token.is_ident("unsafe") {
            continue;
        }
        let justified = ctx.tokens.iter().any(|t| {
            t.kind == TokenKind::Comment
                && t.text.contains("SAFETY:")
                && t.line <= token.line
                && t.line + SAFETY_WINDOW >= token.line
        });
        if !justified {
            out.push(diag(
                ctx,
                "L1",
                Severity::Error,
                token.line,
                "`unsafe` without a `// SAFETY:` comment on the preceding lines".into(),
            ));
        }
    }
}

/// L2: `.unwrap()` / `.expect(` are banned in non-test code of the hot-path
/// crates — decode paths must return [`DecodeError`]-style results or use
/// the sanctioned `panic_any` wrappers, never an anonymous panic.
fn l2_no_unwrap_in_hot_paths(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.in_any(HOT_PATHS) {
        return;
    }
    for (i, token) in ctx.tokens.iter().enumerate() {
        let called = token.is_ident("unwrap") || token.is_ident("expect");
        if !called || ctx.is_test_token(i) {
            continue;
        }
        let receiver = i > 0 && ctx.tokens[i - 1].is_punct('.');
        let invoked = ctx.tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if receiver && invoked {
            out.push(diag(
                ctx,
                "L2",
                Severity::Error,
                token.line,
                format!(
                    "`.{}()` in hot-path production code; return a Result or use a checked helper",
                    token.text
                ),
            ));
        }
    }
}

/// L3: `SeqCst` is banned everywhere (the engine's determinism comes from
/// barriers and per-run merge order, never from global atomic ordering);
/// `Relaxed` is confined to telemetry/transient-counter modules.
fn l3_atomic_orderings(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for token in ctx.tokens {
        if token.is_ident("SeqCst") {
            out.push(diag(
                ctx,
                "L3",
                Severity::Error,
                token.line,
                "`SeqCst` is banned; use Acquire/Release pairs or a mutex".into(),
            ));
        } else if token.is_ident("Relaxed") && !ctx.in_any(RELAXED_ALLOWED) {
            out.push(diag(
                ctx,
                "L3",
                Severity::Error,
                token.line,
                "`Relaxed` ordering outside the sanctioned telemetry/counter modules".into(),
            ));
        }
    }
}

/// L4: `panic_any` / `catch_unwind` only at the sanctioned panic
/// boundaries. Test code may use both (tests assert on panic payloads).
fn l4_panic_boundaries(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for (i, token) in ctx.tokens.iter().enumerate() {
        if ctx.is_test_token(i) {
            continue;
        }
        if token.is_ident("catch_unwind") && !ctx.in_any(CATCH_UNWIND_ALLOWED) {
            out.push(diag(
                ctx,
                "L4",
                Severity::Error,
                token.line,
                "`catch_unwind` outside the governor/server panic boundaries".into(),
            ));
        } else if token.is_ident("panic_any") && !ctx.in_any(PANIC_ANY_ALLOWED) {
            out.push(diag(
                ctx,
                "L4",
                Severity::Error,
                token.line,
                "`panic_any` outside the sanctioned decode-error wrappers".into(),
            ));
        }
    }
}

/// L6: `Instant` / `SystemTime` only in timing and telemetry modules — a
/// time source in operator or planner logic is a determinism hazard.
fn l6_time_sources(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.in_any(TIMING_ALLOWED) {
        return;
    }
    for (i, token) in ctx.tokens.iter().enumerate() {
        if ctx.is_test_token(i) {
            continue;
        }
        if token.is_ident("Instant") || token.is_ident("SystemTime") {
            out.push(diag(
                ctx,
                "L6",
                Severity::Error,
                token.line,
                format!(
                    "`{}` outside timing/telemetry modules threatens determinism",
                    token.text
                ),
            ));
        }
    }
}
