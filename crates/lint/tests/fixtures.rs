//! Fixture-corpus tests: every rule has a should-flag and a should-pass
//! fixture under `tests/fixtures/`, linted through the library API under
//! a simulated in-scope path (the real fixture path is scope-excluded so
//! `scan_tree` over the workspace never sees these deliberate
//! violations).

use std::fs;
use std::path::PathBuf;

use minex_lint::{lint_source_with_stats, scope_for, Finding};

/// Lints the named fixture as if it lived at `sim_path` and returns the
/// findings plus the consumed-waiver count.
fn lint_fixture(name: &str, sim_path: &str) -> (Vec<Finding>, usize) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name]
        .iter()
        .collect();
    let src = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    let scope = scope_for(sim_path).unwrap_or_else(|| panic!("{sim_path} not in scope"));
    lint_source_with_stats(sim_path, &src, scope)
}

/// Sorted rule ids of all findings.
fn rule_ids(findings: &[Finding]) -> Vec<&str> {
    let mut ids: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    ids.sort_unstable();
    ids
}

/// Simulated path for most rules: `core` is a result-affecting crate, so
/// D001/D002/D003/D005/D006 are all active there (D004 is congest-only).
const CORE_PATH: &str = "crates/core/src/fixture.rs";
/// Simulated path for D004, which applies only under `crates/congest/src/`.
const CONGEST_PATH: &str = "crates/congest/src/fixture.rs";

#[test]
fn d001_flag_fixture() {
    let (findings, _) = lint_fixture("d001_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D001"; 4], "{findings:?}");
}

#[test]
fn d001_pass_fixture() {
    let (findings, _) = lint_fixture("d001_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d002_flag_fixture() {
    let (findings, _) = lint_fixture("d002_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D002"; 2], "{findings:?}");
}

#[test]
fn d002_pass_fixture() {
    let (findings, _) = lint_fixture("d002_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d002_fixture_passes_in_timing_crate() {
    // The same wall-clock reads are fine where timing is the job.
    let (findings, _) = lint_fixture("d002_flag.rs", "crates/bench/src/fixture.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d003_flag_fixture() {
    let (findings, _) = lint_fixture("d003_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D003"; 3], "{findings:?}");
}

#[test]
fn d003_pass_fixture() {
    let (findings, _) = lint_fixture("d003_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d004_flag_fixture() {
    let (findings, _) = lint_fixture("d004_flag.rs", CONGEST_PATH);
    assert_eq!(rule_ids(&findings), ["D004"; 5], "{findings:?}");
}

#[test]
fn d004_pass_fixture() {
    let (findings, _) = lint_fixture("d004_pass.rs", CONGEST_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d004_fixture_passes_outside_congest() {
    // Floats are only banned on the congest message plane.
    let (findings, _) = lint_fixture("d004_flag.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d005_flag_fixture() {
    let (findings, _) = lint_fixture("d005_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D005"; 3], "{findings:?}");
}

#[test]
fn d005_pass_fixture() {
    let (findings, _) = lint_fixture("d005_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d006_flag_fixture() {
    let (findings, _) = lint_fixture("d006_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D006"; 2], "{findings:?}");
}

#[test]
fn d006_pass_fixture() {
    let (findings, _) = lint_fixture("d006_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d007_flag_fixture() {
    let (findings, _) = lint_fixture("d007_flag.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["D007"; 3], "{findings:?}");
}

#[test]
fn d007_pass_fixture() {
    let (findings, _) = lint_fixture("d007_pass.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn d007_fixture_passes_in_graphs_reference() {
    // The reference Dijkstra oracle is the one sanctioned heap site.
    let (findings, _) = lint_fixture("d007_flag.rs", "crates/graphs/src/reference.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn waiver_used_fixture() {
    let (findings, used) = lint_fixture("waiver_used.rs", CORE_PATH);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(used, 2);
}

#[test]
fn waiver_unused_fixture() {
    let (findings, used) = lint_fixture("waiver_unused.rs", CORE_PATH);
    assert_eq!(rule_ids(&findings), ["W001"], "{findings:?}");
    assert_eq!(used, 0);
}

#[test]
fn waiver_malformed_fixture() {
    // Malformed waivers are flagged AND do not suppress the finding
    // they sit next to.
    let (findings, used) = lint_fixture("waiver_malformed.rs", CORE_PATH);
    assert_eq!(
        rule_ids(&findings),
        ["D001", "W002", "W002"],
        "{findings:?}"
    );
    assert_eq!(used, 0);
}

#[test]
fn fixtures_are_scope_excluded() {
    // The corpus itself must never be linted by a workspace scan.
    assert!(scope_for("crates/lint/tests/fixtures/d001_flag.rs").is_none());
}
