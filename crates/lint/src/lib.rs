//! # probft-lint
//!
//! The repo-specific half of the ProBFT workspace's static analysis: the
//! rules whose vocabulary — wire lengths, lock classes, slot arithmetic,
//! queue names — no compiler lint knows. Everything rustc or clippy can
//! state is declared as a lint level instead (crate-root `deny` lists in
//! `runtime`/`smr`/`core`, the root `clippy.toml`, `[workspace.lints]`)
//! and is not scanned here; the README's *Correctness tooling* table says
//! which tool owns which rule.
//!
//! The engine is a hand-rolled, dependency-free **Rust lexer + item/brace-
//! tree parser** ([`lexer`], [`ast`]): spanned tokens, `fn`-item
//! extraction, and an intra-workspace call graph for the two lock rules.
//!
//! Rules:
//!
//! - **L001** — no index expressions (`expr[…]`) in the non-test code of
//!   `crates/runtime` and `crates/smr`: `clippy::indexing_slicing` does
//!   not see `BTreeMap`/`VecDeque` `Index`, which panic just the same.
//! - **L002** — every allocation or decode loop sized from a wire-decoded
//!   length must be capped by a `MAX_*`-derived bound before use.
//! - **L003** — every `impl Wire for X` must have a matching roundtrip
//!   test.
//! - **L004** — no `Mutex` guard *live* across socket I/O, direct or via
//!   any callee; `drop(guard)` and shadowing rebinds end liveness.
//! - **L007** — the `crates/runtime` lock graph must be acyclic
//!   (call-graph-propagated static deadlock detection).
//! - **L008** — unchecked `+`/`*`/`-` on slot-, view-, length-, or
//!   sequence-named values must use `checked_*`/`saturating_*`.
//! - **L010** — every `VecDeque`/`Vec` used as a queue in `runtime`/`smr`
//!   must enforce a `MAX_*`-derived cap at the push site.
//!
//! Diagnostics are stable `file:line: RULE message` lines (sorted by file,
//! then line, then rule) so CI output is byte-for-byte reproducible. There
//! is no allowlist: the binary exits nonzero on any finding.

pub mod ast;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One source file presented to the scanner, with a repo-relative path
/// (forward slashes) used both for rule scoping and for diagnostics.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Repo-relative path, e.g. `crates/runtime/src/live.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// A single diagnostic produced by a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`L001`..`L010`).
    pub rule: &'static str,
    /// Human-readable description, stable across runs.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Render findings exactly as the binary prints them — one
/// `file:line: RULE message` per line. Byte-stable across runs.
pub fn render(findings: &[Finding]) -> String {
    findings.iter().map(|f| format!("{f}\n")).collect()
}

/// Replace comment text and string/char-literal contents with spaces,
/// preserving newlines and byte offsets. Kept as a public entry point for
/// tests and tools; internally this is a byproduct of [`lexer::lex`].
pub fn mask_code(text: &str) -> String {
    lexer::lex(text).masked
}

/// Scan a set of sources (path → text) and return all findings, sorted.
/// This is the engine entry point the fixture tests drive with synthetic
/// paths; [`scan_repo`] feeds it the real tree.
pub fn scan_sources(files: &[SourceFile]) -> Vec<Finding> {
    let ctxs: Vec<ast::FileCtx> = files
        .iter()
        .map(|f| ast::FileCtx::new(&f.path, &f.text))
        .collect();
    let graph = ast::Graph::build(&ctxs);
    let mut findings = rules::run(&ctxs, &graph);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Repo walking.
// ---------------------------------------------------------------------------

/// Directories never scanned: external shims, build output, VCS internals,
/// and the lint fixtures (which are deliberately full of violations).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Collect every `.rs` file under `root` (skipping [`SKIP_DIRS`]) with
/// repo-relative forward-slash paths, sorted for determinism.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

/// Scan the repo rooted at `root`: collect sources, run every rule, and
/// return sorted findings.
pub fn scan_repo(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_sources(root)?;
    Ok(scan_sources(&files))
}
