//! morph-lint: the engine's in-house static-analysis pass.
//!
//! Complements the *static plan verifier* (`morphstore_engine::verify`) at
//! the source level: where the verifier proves every compiled `QueryPlan`
//! respects the engine's structural invariants, this linter proves the
//! *source code* respects its safety and determinism conventions — SAFETY
//! comments on `unsafe`, panic-free hot paths, confined atomic orderings,
//! sanctioned panic boundaries, metrics/stats co-location, and no stray
//! time sources (see [`rules`] for the rule table).
//!
//! Zero dependencies by design: like the SQL front-end's hand-written
//! lexer, the scanner in [`lexer`] is a few hundred lines of std-only Rust,
//! so the lint runs in the same offline environment as the engine itself:
//!
//! ```text
//! cargo run -p morph-lint -- crates/ src/
//! ```
//!
//! Exceptions go into `lint-allow.txt` at the repository root, one
//! `RULE path-prefix reason...` entry per line; unused entries are
//! themselves reported so the file can only shrink.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How serious a [`Diagnostic`] is: errors fail the run (exit code 1),
/// warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory; does not fail the lint run.
    Warning,
    /// Invariant violation; fails the lint run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: rule, severity, location and message.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (`"L1"` ... `"L6"`, or `"allowlist"`).
    pub rule: &'static str,
    /// Whether the finding fails the run.
    pub severity: Severity,
    /// Workspace-relative file path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// A parsed `lint-allow.txt`: justified exceptions as
/// `(rule, path-prefix, reason)` triples.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    prefix: String,
    used: std::cell::Cell<bool>,
}

impl Allowlist {
    /// Parse allowlist text: one `RULE path-prefix reason...` entry per
    /// line; `#` starts a comment; blank lines are ignored. A reason is
    /// mandatory — an exception nobody can justify is not an exception.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default();
            let prefix = parts.next().unwrap_or_default();
            let reason = parts.next().unwrap_or_default().trim();
            if !rule.starts_with('L') || prefix.is_empty() || reason.is_empty() {
                return Err(format!(
                    "lint-allow.txt:{}: expected `RULE path-prefix reason...`, got {line:?}",
                    idx + 1
                ));
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                prefix: prefix.to_string(),
                used: std::cell::Cell::new(false),
            });
        }
        Ok(Allowlist { entries })
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(err) => Err(format!("{}: {err}", path.display())),
        }
    }

    /// `true` if `diag` matches an entry (which is then marked as used).
    fn suppresses(&self, diag: &Diagnostic) -> bool {
        for entry in &self.entries {
            if entry.rule == diag.rule && diag.file.starts_with(&entry.prefix) {
                entry.used.set(true);
                return true;
            }
        }
        false
    }

    /// Diagnostics for entries that suppressed nothing: stale exceptions
    /// must be deleted, keeping the allowlist tight.
    fn unused_entries(&self) -> Vec<Diagnostic> {
        self.entries
            .iter()
            .filter(|e| !e.used.get())
            .map(|e| Diagnostic {
                rule: "allowlist",
                severity: Severity::Error,
                file: "lint-allow.txt".to_string(),
                line: 0,
                message: format!(
                    "entry `{} {}` suppressed nothing; delete it",
                    e.rule, e.prefix
                ),
            })
            .collect()
    }
}

/// Lint a single source text under a workspace-relative `path` label.
/// The entry point the self-tests and fixtures use.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let tokens = lexer::lex(source);
    let in_test = lexer::test_regions(&tokens);
    let ctx = rules::FileContext {
        path,
        tokens: &tokens,
        in_test: &in_test,
        is_test_file: is_test_path(path),
    };
    let mut out = Vec::new();
    rules::check_file(&ctx, &mut out);
    out
}

/// Normalize a path to its workspace-relative form so the rule module
/// prefixes (`crates/...`) match regardless of whether the linter was
/// invoked with relative or absolute roots.
fn workspace_label(path: &str) -> &str {
    if let Some(idx) = path.find("crates/") {
        &path[idx..]
    } else if let Some(idx) = path.find("src/") {
        &path[idx..]
    } else {
        path.strip_prefix("./").unwrap_or(path)
    }
}

/// `true` for integration-test and bench files, which are exempt from the
/// production-code rules.
fn is_test_path(path: &str) -> bool {
    path.contains("/tests/") || path.contains("/benches/")
}

/// Directories never descended into: build output, the vendored shims
/// (external API stand-ins, not engine code), and lint fixtures (which
/// violate rules on purpose).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "shims" | "fixtures" | ".git")
}

/// Recursively collect `.rs` files under `root`, skipping excluded
/// directories, in sorted order (deterministic output).
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)
        .map_err(|err| format!("{}: {err}", root.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !skip_dir(name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `roots`, applying `allow` suppressions.
/// Returns all surviving diagnostics plus unused-allowlist-entry findings.
pub fn run(roots: &[PathBuf], allow: &Allowlist) -> Result<Vec<Diagnostic>, String> {
    let mut files = Vec::new();
    for root in roots {
        if root.is_file() {
            files.push(root.clone());
        } else {
            collect_rs_files(root, &mut files)?;
        }
    }
    let mut diagnostics = Vec::new();
    for file in &files {
        let source =
            fs::read_to_string(file).map_err(|err| format!("{}: {err}", file.display()))?;
        let label = file.to_string_lossy().replace('\\', "/");
        for diag in lint_source(workspace_label(&label), &source) {
            if !allow.suppresses(&diag) {
                diagnostics.push(diag);
            }
        }
    }
    diagnostics.extend(allow.unused_entries());
    Ok(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_round_trip() {
        let allow =
            Allowlist::parse("# comment\nL3 crates/foo/src/bar.rs transient counter\n").unwrap();
        let hit = Diagnostic {
            rule: "L3",
            severity: Severity::Error,
            file: "crates/foo/src/bar.rs".into(),
            line: 7,
            message: "x".into(),
        };
        assert!(allow.suppresses(&hit));
        assert!(allow.unused_entries().is_empty());
    }

    #[test]
    fn allowlist_requires_reason() {
        assert!(Allowlist::parse("L3 crates/foo/src/bar.rs\n").is_err());
    }

    #[test]
    fn unused_entries_are_reported() {
        let allow = Allowlist::parse("L2 crates/nowhere.rs obsolete\n").unwrap();
        let unused = allow.unused_entries();
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "allowlist");
    }
}
