//! The rules rustc and clippy own are lint *levels*, not scans, so no
//! finding in a clean build says anything about them. This pins where the
//! levels are declared: deleting one must fail a test, not pass as "0
//! findings". (The in-tree `#[expect]`s cannot stand in for this: an
//! `#[expect]` switches its lint on for its own scope, so it stays
//! fulfilled with the crate-root level gone — only new violations would go
//! unseen.)

use probft_lint::{mask_code, matching_byte};

/// L001's calls and macros, L009, and L008: narrowing casts and arithmetic
/// that can overflow.
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
    "clippy::arithmetic_side_effects",
];
const CORE: &[&str] = &[
    "clippy::cast_possible_truncation",
    "clippy::arithmetic_side_effects",
];

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

/// The root `clippy.toml`, comment lines dropped.
fn root_clippy_toml() -> String {
    repo_file("clippy.toml")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect()
}

#[test]
fn locks_are_disallowed_types_workspace_wide() {
    // L004 and L007: a lock that cannot be named cannot be held across
    // socket I/O or closed into a cycle.
    let clippy = root_clippy_toml();
    let (_, types) = clippy
        .split_once("disallowed-types")
        .expect("clippy.toml no longer has disallowed-types");
    for ty in ["\"std::sync::Mutex\"", "\"std::sync::RwLock\""] {
        assert!(types.contains(ty), "clippy.toml no longer disallows {ty}");
    }
}

#[test]
fn sleep_is_disallowed_and_unsafe_forbidden_workspace_wide() {
    // L005: the root clippy.toml entry.
    let clippy = root_clippy_toml();
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
    let members: Vec<&str> = members
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .collect();
    for (member, _) in UNSAFE_MEMBERS {
        assert!(members.contains(member), "{member} left the workspace");
    }
    let manifests = members
        .iter()
        .filter(|m| UNSAFE_MEMBERS.iter().all(|(exempt, _)| exempt != *m))
        .map(|m| format!("{m}/Cargo.toml"))
        .chain(["Cargo.toml".to_string()]);
    for manifest in manifests {
        assert!(
            repo_file(&manifest).contains("\n[lints]\nworkspace = true\n"),
            "{manifest} does not inherit the workspace lints"
        );
    }
}

/// The members that state their own lints, and how many unsafe blocks
/// each has: the epoll binding (`epoll_create1`, adopting its descriptor,
/// `epoll_ctl`, `epoll_wait` — calling C) and the SHA-256 instruction
/// binding (calling its `#[target_feature]` function once the features are
/// detected). The workspace forbids the `unsafe` they need.
const UNSAFE_MEMBERS: &[(&str, usize)] = &[("vendor/epoll", 4), ("vendor/sha_ni", 1)];

#[test]
fn unsafe_members_deny_unsafe_outside_their_documented_blocks() {
    for &(member, expected_blocks) in UNSAFE_MEMBERS {
        // Its own table, exactly: `deny` where the workspace says `forbid`,
        // plus clippy's demand for a `// SAFETY:` comment on every block.
        let manifest = repo_file(&format!("{member}/Cargo.toml"));
        let tables: Vec<String> = manifest
            .split("\n[")
            .filter(|t| t.starts_with("lints"))
            .map(|t| {
                t.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        assert_eq!(
            tables,
            [
                "lints.rust]\nunsafe_code = \"deny\"",
                "lints.clippy]\nundocumented_unsafe_blocks = \"deny\"",
            ],
            "{member}/Cargo.toml no longer states exactly its two levels"
        );
        // Every unsafe block sits under an `#[expect(unsafe_code, reason)]`
        // and a `// SAFETY:` comment — in the one source file there is.
        let src_dir = format!("{}/../../{member}/src", env!("CARGO_MANIFEST_DIR"));
        let files: Vec<_> = std::fs::read_dir(&src_dir)
            .unwrap_or_else(|e| panic!("{src_dir}: {e}"))
            .map(|entry| entry.expect("dir entry").file_name())
            .collect();
        assert_eq!(files, ["lib.rs"], "{member}/src grew a file");
        let src = repo_file(&format!("{member}/src/lib.rs"));
        let code = mask_code(&src);
        let lines: Vec<&str> = src.lines().collect();
        let mut blocks = 0;
        for (at, _) in code.match_indices("unsafe {") {
            blocks += 1;
            let line = code[..at].matches('\n').count();
            // The comments and attributes directly above the statement.
            let above: Vec<&str> = lines[..line]
                .iter()
                .rev()
                .map(|l| l.trim_start())
                .take_while(|l| l.starts_with("//") || l.starts_with("#["))
                .collect();
            assert!(
                above
                    .iter()
                    .any(|l| l.starts_with("#[expect(unsafe_code, reason = \"")),
                "{member}/src/lib.rs:{}: unsafe block without #[expect(unsafe_code, reason = …)]",
                line + 1
            );
            assert!(
                above.iter().any(|l| l.starts_with("// SAFETY:")),
                "{member}/src/lib.rs:{}: unsafe block without a // SAFETY: comment",
                line + 1
            );
        }
        let unsafe_words = code.matches("unsafe").count() - code.matches("unsafe_code").count();
        assert_eq!(unsafe_words, blocks, "{member}: unsafe outside a block");
        assert_eq!(blocks, expected_blocks, "{member}: unsafe blocks");
    }
}

#[test]
fn the_host_and_the_replication_layer_depend_on_no_rng() {
    // An honest replica's only randomness is its VRF. With `rand` among
    // these dependencies, the host or an honest replica could hold an RNG
    // again; their tests may still draw (dev-dependencies).
    for manifest in ["crates/runtime/Cargo.toml", "crates/smr/Cargo.toml"] {
        let text = repo_file(manifest);
        let (_, deps) = text
            .split_once("\n[dependencies]\n")
            .unwrap_or_else(|| panic!("{manifest}: no [dependencies]"));
        let table = deps.split("\n[").next().unwrap_or(deps);
        let names: Vec<&str> = table
            .lines()
            .filter_map(|l| l.split(['.', '=', ' ']).next())
            .collect();
        assert!(
            names.contains(&"probft-core"),
            "{manifest}: [dependencies] unread"
        );
        assert!(!names.contains(&"rand"), "{manifest} depends on rand");
    }
}
