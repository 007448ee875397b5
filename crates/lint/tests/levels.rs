//! The rules rustc and clippy own are lint *levels*, not scans, so a clean
//! `probft-lint` run says nothing about them. This pins where the levels
//! are declared: deleting one must fail a test, not pass as "0 findings".
//! (The in-tree `#[expect]`s cannot stand in for this: an `#[expect]`
//! switches its lint on for its own scope, so it stays fulfilled with the
//! crate-root level gone — only new violations would go unseen.)

use probft_lint::ast::matching_byte;
use probft_lint::mask_code;

/// L001's calls and macros, L009, and L008's narrowing casts.
const RUNTIME_AND_SMR: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::let_underscore_must_use",
    "clippy::unused_result_ok",
    "unused_must_use",
    "clippy::cast_possible_truncation",
];
const CORE: &[&str] = &["clippy::cast_possible_truncation"];

fn repo_file(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The lint names inside the crate root's `#![cfg_attr(not(test), deny(…))]`.
fn denied_outside_tests(root: &str) -> Vec<String> {
    let code = mask_code(&repo_file(root));
    let at = code
        .find("#![cfg_attr(")
        .unwrap_or_else(|| panic!("{root}: no crate-level cfg_attr"));
    let open = at + "#![cfg_attr".len();
    let close = matching_byte(code.as_bytes(), open, b'(', b')').expect("balanced attribute");
    let (cfg, levels) = code[open + 1..close]
        .split_once(',')
        .expect("cfg_attr(predicate, attribute)");
    assert_eq!(cfg.trim(), "not(test)", "{root}");
    let levels = levels.trim();
    let inner = levels
        .strip_prefix("deny(")
        .and_then(|l| l.strip_suffix(')'))
        .unwrap_or_else(|| panic!("{root}: expected deny(…), found {levels}"));
    inner.split(',').map(|l| l.trim().to_string()).collect()
}

#[test]
fn crate_roots_deny_every_moved_rule() {
    for (root, wanted) in [
        ("crates/runtime/src/lib.rs", RUNTIME_AND_SMR),
        ("crates/smr/src/lib.rs", RUNTIME_AND_SMR),
        ("crates/core/src/lib.rs", CORE),
    ] {
        let denied = denied_outside_tests(root);
        for level in wanted {
            assert!(
                denied.iter().any(|d| d == level),
                "{root} no longer denies {level}"
            );
        }
    }
}

#[test]
fn sleep_is_disallowed_and_unsafe_forbidden_workspace_wide() {
    // L005: the root clippy.toml entry (comments do not count).
    let clippy: String = repo_file("clippy.toml")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    assert!(
        clippy.contains("disallowed-methods") && clippy.contains("\"std::thread::sleep\""),
        "clippy.toml no longer disallows std::thread::sleep"
    );
    // L006: forbidden once at the workspace root, inherited by each member.
    let root = repo_file("Cargo.toml");
    let (_, lints) = root
        .split_once("[workspace.lints.rust]")
        .expect("root manifest has [workspace.lints.rust]");
    let table = lints.split("\n[").next().unwrap_or(lints);
    assert!(
        table
            .lines()
            .any(|l| l.trim() == "unsafe_code = \"forbid\""),
        "the workspace no longer forbids unsafe_code"
    );
    let members = root
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("workspace members")
        .0;
    let manifests = members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .map(|m| format!("{m}/Cargo.toml"))
        .chain(["Cargo.toml".to_string()]);
    for manifest in manifests {
        assert!(
            repo_file(&manifest).contains("\n[lints]\nworkspace = true\n"),
            "{manifest} does not inherit the workspace lints"
        );
    }
}
