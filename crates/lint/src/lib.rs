//! `minex-lint` — the determinism-contract static-analysis pass.
//!
//! The minex workspace's central invariant is that every result is
//! byte-identical from run to run and from host to host. The dynamic
//! checkers (golden CSVs, trace byte-compares, the round loop's
//! differential proptests) catch violations after they run; this crate catches the classic sources *statically*, at the
//! source level: unordered `HashMap`/`HashSet` iteration, wall-clock
//! reads, thread-environment probes, floating point on the message
//! plane, ambient randomness, and non-total-order sorts.
//!
//! The tool is dependency-free in the same spirit as the hand-rolled
//! JSON layer in `minex-algo`'s wire module: a small Rust [`lexer`] plus
//! [`rules`] drivers walking the workspace sources, with per-site
//! waivers (`// minex-lint: allow(Dnnn) <reason>`) whose use is itself
//! accounted — an unused waiver is an error.
//!
//! Run it with `cargo run -p minex-lint -- check` (human output) or
//! `… -- check --json` (machine output); the library surface below is
//! what the fixture tests drive directly.
//!
//! ```
//! use minex_lint::{lint_source, scope_for};
//!
//! let scope = scope_for("crates/congest/src/example.rs").expect("in scope");
//! let findings = lint_source(
//!     "crates/congest/src/example.rs",
//!     "fn f() { let t = std::time::Instant::now(); }",
//!     scope,
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "D002");
//! ```

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::ScanResult;
pub use rules::{lint_source, lint_source_with_stats, scope_for, Finding, Scope, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Scans the workspace tree rooted at `root` (the directory holding the
/// workspace `Cargo.toml`) and returns the combined result. Which files
/// are linted, and under which rules, is decided by [`scope_for`].
///
/// # Errors
///
/// Propagates I/O errors from directory walks and file reads; a missing
/// optional top-level directory (e.g. `examples/`) is not an error.
pub fn scan_tree(root: &Path) -> io::Result<ScanResult> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort_unstable();
    let mut result = ScanResult::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        let (findings, used) = lint_source_with_stats(&rel, &src, scope);
        result.waivers_used += used;
        result.findings.extend(findings);
        result.files_scanned += 1;
    }
    result
        .findings
        .sort_unstable_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(result)
}

/// Recursively collects `.rs` files under `dir` (skipping `target`).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
