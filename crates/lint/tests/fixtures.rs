//! Fixture tests for the lint engine. Each `fixtures/bad/*.rs` snippet must
//! trip exactly its rule and each `fixtures/ok/*.rs` counterpart must scan
//! clean; the snippets are plain text to the engine (never compiled), and
//! the paths they are scanned under are synthetic, chosen to land inside —
//! or deliberately outside — each rule's scope.

use probft_lint::{mask_code, render, scan_sources, Finding, SourceFile};

const BAD_L001: &str = include_str!("../fixtures/bad/l001.rs");
const BAD_L002: &str = include_str!("../fixtures/bad/l002.rs");
const BAD_L003: &str = include_str!("../fixtures/bad/l003.rs");
const BAD_L003_SIGNED: &str = include_str!("../fixtures/bad/l003_signed.rs");
const BAD_L004: &str = include_str!("../fixtures/bad/l004.rs");
const BAD_L007: &str = include_str!("../fixtures/bad/l007.rs");
const BAD_L008: &str = include_str!("../fixtures/bad/l008.rs");
const BAD_L010: &str = include_str!("../fixtures/bad/l010.rs");

const OK_L001: &str = include_str!("../fixtures/ok/l001.rs");
const OK_L002: &str = include_str!("../fixtures/ok/l002.rs");
const OK_L003: &str = include_str!("../fixtures/ok/l003.rs");
const OK_L003_SIGNED: &str = include_str!("../fixtures/ok/l003_signed.rs");
const OK_L004: &str = include_str!("../fixtures/ok/l004.rs");
const OK_L007: &str = include_str!("../fixtures/ok/l007.rs");
const OK_L008: &str = include_str!("../fixtures/ok/l008.rs");
const OK_L010: &str = include_str!("../fixtures/ok/l010.rs");

/// The paths the combined bad-suite scan uses; each places its snippet in
/// the narrowest scope where its rule applies.
const BAD_SUITE: &[(&str, &str)] = &[
    ("crates/runtime/src/fixture_l001.rs", BAD_L001),
    ("crates/core/src/fixture_l002.rs", BAD_L002),
    ("crates/core/src/fixture_l003.rs", BAD_L003),
    ("crates/core/src/fixture_l004.rs", BAD_L004),
    ("crates/runtime/src/fixture_l007.rs", BAD_L007),
    ("crates/smr/src/fixture_l008.rs", BAD_L008),
    ("crates/smr/src/fixture_l010.rs", BAD_L010),
];

fn scan_one(path: &str, text: &str) -> Vec<Finding> {
    scan_sources(&[SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }])
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// --- L001 ------------------------------------------------------------------

#[test]
fn l001_flags_slice_and_map_index_expressions() {
    let findings = scan_one("crates/runtime/src/fixture_l001.rs", BAD_L001);
    assert_eq!(rules(&findings), ["L001", "L001"]);
    assert!(findings
        .iter()
        .all(|f| f.message.contains("index expression")));
    // The second is the `BTreeMap` index clippy::indexing_slicing misses.
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [9, 13]);
}

#[test]
fn l001_ignores_strings_comments_types_literals_and_test_regions() {
    let findings = scan_one("crates/runtime/src/fixture_l001.rs", OK_L001);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn l001_is_scoped_to_consensus_crates() {
    // The same bait outside crates/runtime|smr/src/ is out of scope.
    let findings = scan_one("crates/analysis/src/fixture.rs", BAD_L001);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L002 ------------------------------------------------------------------

#[test]
fn l002_flags_uncapped_allocation_and_loop() {
    let findings = scan_one("crates/core/src/fixture_l002.rs", BAD_L002);
    assert_eq!(rules(&findings), ["L002", "L002"]);
    assert!(findings[0].message.contains("allocation"));
    assert!(findings[1].message.contains("decode loop"));
}

#[test]
fn l002_accepts_max_guarded_decode() {
    let findings = scan_one("crates/core/src/fixture_l002.rs", OK_L002);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L003 ------------------------------------------------------------------

#[test]
fn l003_flags_wire_impl_without_roundtrip_test() {
    let findings = scan_one("crates/core/src/fixture_l003.rs", BAD_L003);
    assert_eq!(rules(&findings), ["L003"]);
    assert!(findings[0].message.contains("`Unproven`"));
}

#[test]
fn l003_accepts_wire_impl_with_roundtrip_test() {
    let findings = scan_one("crates/core/src/fixture_l003.rs", OK_L003);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn l003_coverage_is_corpus_wide_not_per_file() {
    // One scan over both files: `Proven` is covered by the other file's test
    // region, `Unproven` still is not.
    let findings = scan_sources(&[
        SourceFile {
            path: "crates/core/src/a.rs".to_string(),
            text: BAD_L003.to_string(),
        },
        SourceFile {
            path: "crates/core/src/b.rs".to_string(),
            text: OK_L003.to_string(),
        },
    ]);
    assert_eq!(rules(&findings), ["L003"]);
    assert!(findings[0].message.contains("`Unproven`"));
}

#[test]
fn l003_sees_through_the_signed_envelope_and_its_aliases() {
    // Generic `impl<B: Wire> Wire for Signed<B>` is named `Signed`; a body
    // is covered by a roundtrip of its `type Alias = Signed<Body>`.
    let findings = scan_one("crates/core/src/fixture_signed.rs", BAD_L003_SIGNED);
    assert_eq!(rules(&findings), ["L003", "L003"]);
    assert!(findings[0].message.contains("`Signed`"));
    assert!(findings[1].message.contains("`LooseBody`"));
    let findings = scan_one("crates/core/src/fixture_signed.rs", OK_L003_SIGNED);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L004 ------------------------------------------------------------------

#[test]
fn l004_flags_guard_held_across_socket_io() {
    let findings = scan_one("crates/core/src/fixture_l004.rs", BAD_L004);
    assert_eq!(rules(&findings), ["L004", "L004"]);
    assert_eq!(findings[0].line, 4, "anchored at the `peer.lock()` line");
    // The second acquisition reaches the socket only through `forward`.
    assert!(findings[1].message.contains("`forward`"), "{findings:?}");
}

#[test]
fn l004_accepts_guard_dropped_before_io() {
    let findings = scan_one("crates/core/src/fixture_l004.rs", OK_L004);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn l004_skips_whole_file_test_targets() {
    // Files under a tests/ directory are one big test region.
    let findings = scan_one("crates/runtime/tests/io.rs", BAD_L004);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L007 ------------------------------------------------------------------

#[test]
fn l007_flags_a_lock_order_cycle_through_a_callee() {
    let findings = scan_one("crates/runtime/src/fixture_l007.rs", BAD_L007);
    assert_eq!(rules(&findings), ["L007", "L007"]);
    assert!(findings
        .iter()
        .all(|f| f.message.contains("lock-order cycle")));
}

#[test]
fn l007_accepts_a_consistent_acquisition_order() {
    let findings = scan_one("crates/runtime/src/fixture_l007.rs", OK_L007);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn l007_is_scoped_to_the_runtime_crate() {
    let findings = scan_one("crates/smr/src/fixture_l007.rs", BAD_L007);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L008 ------------------------------------------------------------------

#[test]
fn l008_flags_unchecked_arithmetic_on_tracked_names() {
    let findings = scan_one("crates/smr/src/fixture_l008.rs", BAD_L008);
    assert_eq!(rules(&findings), ["L008", "L008"]);
    assert!(findings[0].message.contains("`+` on tracked value `slot`"));
    assert!(findings[1].message.contains("`-` on tracked value `view`"));
}

#[test]
fn l008_accepts_checked_forms_and_untracked_values() {
    let findings = scan_one("crates/smr/src/fixture_l008.rs", OK_L008);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- L010 ------------------------------------------------------------------

#[test]
fn l010_flags_an_uncapped_queue_push() {
    let findings = scan_one("crates/smr/src/fixture_l010.rs", BAD_L010);
    assert_eq!(rules(&findings), ["L010"]);
    assert!(findings[0].message.contains("`pending`"));
}

#[test]
fn l010_accepts_a_capped_push_and_non_queue_vectors() {
    let findings = scan_one("crates/smr/src/fixture_l010.rs", OK_L010);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --- Masking edge cases ----------------------------------------------------

#[test]
fn masking_neutralizes_nested_comments_and_raw_strings() {
    let text = "/* outer /* nested values[0] slot + 1 */ still comment */\n\
                pub fn f() -> &'static str {\n\
                    r#\"raw string with owners[&slot] and view - 1 inside\"#\n\
                }\n";
    let findings = scan_one("crates/runtime/src/fixture_masking.rs", text);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    // The masked text keeps byte offsets and line structure intact.
    assert_eq!(mask_code(text).len(), text.len());
    assert_eq!(
        mask_code(text).matches('\n').count(),
        text.matches('\n').count()
    );
}

// --- Byte-stable diagnostics ----------------------------------------------

#[test]
fn bad_suite_diagnostics_are_byte_stable() {
    let sources: Vec<SourceFile> = BAD_SUITE
        .iter()
        .map(|(path, text)| SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect();
    let rendered = render(&scan_sources(&sources));
    if std::env::var_os("UPDATE_LINT_FIXTURES").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/expected.txt");
        std::fs::write(path, &rendered).expect("rewrite golden file");
        return;
    }
    let expected = include_str!("../fixtures/expected.txt");
    assert_eq!(
        rendered, expected,
        "diagnostics drifted; update fixtures/expected.txt deliberately"
    );
}
