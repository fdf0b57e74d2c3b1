//! Self-tests for morph-lint: every rule must fire on its firing fixture
//! (exactly once) and stay silent on the clean fixtures — and the real
//! workspace must lint clean under the checked-in allowlist.

use std::path::{Path, PathBuf};

use morph_lint::{lint_source, Allowlist, Severity};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
}

/// Lint a fixture under a synthetic workspace path, returning the rules of
/// all resulting diagnostics.
fn rules_fired(label: &str, name: &str) -> Vec<&'static str> {
    lint_source(label, &fixture(name))
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn l1_fires_once_on_unjustified_unsafe() {
    let fired = rules_fired(
        "crates/vector/src/fixture.rs",
        "l1_unsafe_missing_safety.rs",
    );
    assert_eq!(fired, vec!["L1"]);
}

#[test]
fn l1_accepts_safety_comment() {
    let fired = rules_fired("crates/vector/src/fixture.rs", "l1_clean.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
}

#[test]
fn l2_fires_once_on_hot_path_unwrap() {
    // Every layer of the single read path is covered: format cursors, the
    // column walker, the operator chunk steps and the fused chunk loop.
    for label in [
        "crates/compression/src/fixture.rs",
        "crates/storage/src/fixture.rs",
        "crates/core/src/ops/fixture.rs",
        "crates/core/src/fusion.rs",
    ] {
        let fired = rules_fired(label, "l2_unwrap_in_hot_path.rs");
        assert_eq!(fired, vec!["L2"], "{label}");
    }
}

#[test]
fn l2_ignores_cold_paths_and_test_code() {
    // The same unwrap is fine outside the hot-path crates...
    let fired = rules_fired("crates/cache/src/fixture.rs", "l2_unwrap_in_hot_path.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
    // ...and the clean fixture's test-module unwrap is exempt even inside.
    let fired = rules_fired("crates/compression/src/fixture.rs", "l2_clean.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
}

#[test]
fn l3_fires_once_on_seqcst_anywhere() {
    // Even a module sanctioned for Relaxed may never use SeqCst.
    let fired = rules_fired("crates/telemetry/src/fixture.rs", "l3_seqcst.rs");
    assert_eq!(fired, vec!["L3"]);
}

#[test]
fn l3_confines_relaxed_to_sanctioned_modules() {
    let source = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                  pub fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let outside: Vec<_> = lint_source("crates/cache/src/fixture.rs", source);
    assert_eq!(outside.len(), 1);
    assert_eq!(outside[0].rule, "L3");
    let inside = lint_source("crates/telemetry/src/fixture.rs", source);
    assert!(inside.is_empty(), "unexpected diagnostics: {inside:?}");
}

#[test]
fn l4_fires_once_on_stray_panic_any() {
    let fired = rules_fired("crates/cache/src/fixture.rs", "l4_panic_any.rs");
    assert_eq!(fired, vec!["L4"]);
}

#[test]
fn l4_allows_the_sanctioned_boundaries() {
    let fired = rules_fired("crates/compression/src/fixture.rs", "l4_panic_any.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
    let source = "pub fn guard(f: impl FnOnce()) { let _ = std::panic::catch_unwind(f); }\n";
    let outside = lint_source("crates/cache/src/fixture.rs", source);
    assert_eq!(outside.len(), 1);
    assert_eq!(outside[0].rule, "L4");
    let inside = lint_source("crates/core/src/govern.rs", source);
    assert!(inside.is_empty(), "unexpected diagnostics: {inside:?}");
}

#[test]
fn l6_fires_once_on_stray_time_source() {
    let fired = rules_fired("crates/cache/src/fixture.rs", "l6_instant.rs");
    assert_eq!(fired, vec!["L6"]);
}

#[test]
fn l6_allows_timing_modules_and_tests() {
    let fired = rules_fired("crates/telemetry/src/fixture.rs", "l6_instant.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
    let fired = rules_fired("crates/cache/tests/fixture.rs", "l6_instant.rs");
    assert!(fired.is_empty(), "unexpected diagnostics: {fired:?}");
}

#[test]
fn engine_sanctions_follow_the_scheduler() {
    // The scheduler and the fused pass own the engine's node and stage
    // clocks; the plan and context modules hold none.
    for label in ["crates/core/src/parallel.rs", "crates/core/src/fusion.rs"] {
        let fired = rules_fired(label, "l6_instant.rs");
        assert!(
            fired.is_empty(),
            "{label}: unexpected diagnostics: {fired:?}"
        );
    }
    for label in ["crates/core/src/plan.rs", "crates/core/src/exec.rs"] {
        assert_eq!(rules_fired(label, "l6_instant.rs"), vec!["L6"], "{label}");
    }
    // The scheduler's counters are ordered (or guarded by its mutex).
    let source = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                  pub fn bump(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    let fired = lint_source("crates/core/src/parallel.rs", source);
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].rule, "L3");
}

/// The linter's reason to exist: the actual workspace must be clean under
/// the checked-in allowlist. This is the same run CI performs.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let allow = Allowlist::load(&root.join("lint-allow.txt")).expect("allowlist parses");
    let roots: Vec<PathBuf> = vec![root.join("crates"), root.join("src")];
    let diagnostics = morph_lint::run(&roots, &allow).expect("lint run succeeds");
    let errors: Vec<String> = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "workspace lint errors:\n{}",
        errors.join("\n")
    );
}
