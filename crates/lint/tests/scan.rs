//! The repo rules no compiler lint can state (README § *Correctness tooling*), as scans of
//! the masked source. Each rule maps a file's code to the byte offsets it flags, so the last
//! test can feed each its bait. Only what ships is scanned: code before a file's first
//! `#[cfg(test)]`, outside `tests/`.

use probft_lint::{mask_code, matching_byte};
use std::{fs, path::Path};

const CONSENSUS: [&str; 2] = ["crates/runtime/src/", "crates/smr/src/"];
const CODECS: [&str; 2] = ["crates/core/src/wire.rs", "crates/runtime/src/transport.rs"];
const DECODES: [&str; 3] = ["::decode", "::from_wire_bytes", "::from_value"];

/// `(path, what ships, the tests)` of every `.rs` file in `crates/` and `tests/`, masked.
fn sources() -> Vec<(String, String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut dirs, mut out) = (vec![root.join("crates"), root.join("tests")], vec![]);
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let rel = path.strip_prefix(&root).unwrap().to_str().unwrap();
            if path.is_dir() && !rel.ends_with("target") {
                dirs.push(path);
            } else if rel.ends_with(".rs") {
                out.push(split(rel, mask_code(&fs::read_to_string(&path).unwrap())));
            }
        }
    }
    out
}

/// A file under `tests/` is all tests; any other is cut at its first `#[cfg(test)]`.
fn split(path: &str, mut code: String) -> (String, String, String) {
    let test_file = path.starts_with("tests/") || path.contains("/tests/");
    let cut = code.find("#[cfg(test)]").unwrap_or(code.len());
    let tests = code.split_off(if test_file { 0 } else { cut });
    (path.to_string(), code, tests)
}

fn ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn word(s: &str) -> &str {
    &s[..s.find(|c| !ident(c)).unwrap_or(s.len())]
}

fn lines(code: &str, sites: Vec<usize>) -> Vec<usize> {
    let line = |at: usize| code[..at].split('\n').count();
    sites.into_iter().map(line).collect()
}

/// L001: an index expression, a `[` right after an identifier, `)` or
/// `]`. `clippy::indexing_slicing` sees slices and arrays only, not the
/// `Index` of a `BTreeMap`, `VecDeque` or `HashMap`, which panics alike.
fn index_expressions(code: &str) -> Vec<usize> {
    let b = code.as_bytes();
    let after = |i: usize| ident(b[i - 1].into()) || b"])".contains(&b[i - 1]);
    (1..b.len()).filter(|&i| b[i] == b'[' && after(i)).collect()
}

/// L002: `with_capacity(…)` or `vec![x; n]`. Where wire bytes are decoded
/// the size may be a wire count: only [`CODECS`] size one, once checked.
fn preallocations(code: &str) -> Vec<usize> {
    let mut sites: Vec<_> = code.match_indices("with_capacity(").map(|m| m.0).collect();
    for (at, _) in code.match_indices("vec![") {
        let close = matching_byte(code.as_bytes(), at + 4, b'[', b']').unwrap_or(code.len());
        let repeat = code[at + 5..close].rsplit_once(';');
        sites.extend(repeat.filter(|(_, n)| !n.contains(']')).map(|_| at));
    }
    sites
}

/// L003: `(offset, X)` for each `impl … Wire for X`.
fn wire_impls(code: &str) -> Vec<(usize, &str)> {
    let impls = code.match_indices("Wire for ").map(|m| m.0);
    impls.map(|at| (at, word(&code[at + 9..]))).collect()
}

/// `(Body, Alias)` for each `type Alias = Signed<Body…>`.
fn signed_aliases(code: &str) -> Vec<(&str, &str)> {
    let decl = |at: usize| code[..at].rfind("type ").map_or(at, |t| t + 5);
    let pair = |at: usize| (word(&code[at + 9..]), word(&code[decl(at)..]));
    code.match_indices("= Signed<").map(|m| pair(m.0)).collect()
}

/// Whether test code `t` calls `n::decode`, `::from_wire_bytes` or
/// `::from_value` (turbofish or not), or decodes an alias of `n`.
fn decoded(t: &str, aliases: &[(&str, &str)], n: &str) -> bool {
    let by_name = t.match_indices(n).any(|(at, _)| {
        let mut rest = &t[at + n.len()..];
        if rest.starts_with("::<") {
            rest = &rest[matching_byte(rest.as_bytes(), 2, b'<', b'>').unwrap_or(0) + 1..];
        }
        DECODES.iter().any(|m| rest.starts_with(m)) && !t[..at].ends_with(ident)
    });
    by_name || aliases.iter().any(|&(b, a)| b == n && decoded(t, &[], a))
}

/// L010: `.push(` or `.push_back(` on a receiver named like a queue. The
/// node's queues are `Bounded`, which has neither.
fn queue_pushes(code: &str) -> Vec<usize> {
    let receiver = |at: usize| code[..at].rsplit(|c| !ident(c)).next().unwrap_or("");
    let queue = |r: &str| ["pending", "backlog", "inbox"].contains(&r) || r.contains("queue");
    let pushes = [".push(", ".push_back("].map(|p| code.match_indices(p).map(|m| m.0));
    let pushed = |&at: &usize| queue(receiver(at));
    pushes.into_iter().flatten().filter(pushed).collect()
}

#[test]
fn the_tree_keeps_every_rule() {
    let sources = sources();
    let tests: String = sources.iter().map(|s| s.2.as_str()).collect();
    let aliases: Vec<_> = sources.iter().flat_map(|s| signed_aliases(&s.1)).collect();
    let mut found = Vec::new();
    for (path, code, _) in &sources {
        let mut flag = |rule, sites| found.push((path, rule, lines(code, sites)));
        if CONSENSUS.iter().any(|c| path.starts_with(c)) {
            flag("L001", index_expressions(code));
            flag("L010", queue_pushes(code));
        }
        let impls = wire_impls(code);
        if !impls.is_empty() && path.contains("/src/") && !CODECS.contains(&path.as_str()) {
            flag("L002", preallocations(code));
        }
        let missing = impls.iter().filter(|i| !decoded(&tests, &aliases, i.1));
        flag("L003", missing.map(|i| i.0).collect());
    }
    found.retain(|(_, _, lines)| !lines.is_empty());
    assert!(found.is_empty(), "(file, rule, lines) {found:#?}");
}

#[test]
fn each_rule_flags_its_bait_and_nothing_masked() {
    let bait = "v[s] + m[&s]\ng()[0]\n#[x] const A: [u8; 2] = [0; 2];\n// v[s]\n\"v[s]\"; '[';";
    assert_eq!(lines(bait, index_expressions(&mask_code(bait))), [1, 1, 2]);
    let (_, code, tests) = split("a/src/x.rs", "fn a() {}\n#[cfg(test)] fn b() {}".into());
    assert_eq!(code + "|" + &tests, "fn a() {}\n|#[cfg(test)] fn b() {}");
    let bait = "Vec::with_capacity(count as usize);\nvec![0u8; n];\nvec![[0; 4], [1; 4]];";
    assert_eq!(lines(bait, preallocations(bait)), [1, 2]);
    let bait = "impl Wire for Unproven {}\nimpl<B> Wire for Signed<B> {}\ntype L = Signed<B>;";
    assert_eq!(wire_impls(bait), [(5, "Unproven"), (34, "Signed")]);
    assert_eq!(signed_aliases(bait), [("B", "L")]);
    let tests = "Vec::<u8>::decode(r); L::from_wire_bytes(b); Unproven::decode(r)";
    assert!(decoded(tests, &[], "Vec") && decoded(tests, &[("B", "L")], "B"));
    assert!(!decoded(tests, &[], "Proven") && !decoded(tests, &[], "B"));
    let bait = "pending.push_back(e);\nitems.push(e);\nsend_queue.push(e);\ninbox.try_push(e);";
    assert_eq!(lines(bait, queue_pushes(bait)), [3, 1]);
}
