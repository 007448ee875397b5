//! The masked-text rules: L002 (capped wire-length allocations) and L003
//! (Wire roundtrip coverage). These are genuinely textual properties —
//! "is there a MAX-derived guard above this allocation" does not need a
//! call graph — so they run on the masked text the lexer produces as a
//! byproduct of tokenization.

use crate::ast::{matching_byte, FileCtx};
use crate::lexer::is_ident_byte;
use crate::rules::{finding, in_scope};
use crate::Finding;

// --- L002 ------------------------------------------------------------------

pub fn l002(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.path.starts_with("vendor/") {
        return;
    }
    for body in decode_fn_bodies(ctx) {
        let text = &ctx.lexed.masked[body.0..body.1];
        scan_alloc_sites(ctx, body.0, text, out);
    }
}

/// Byte spans of function bodies that decode wire input: named
/// `decode`/`read_frame`, or touching `len_prefix(` (the length-reading
/// primitive).
fn decode_fn_bodies(ctx: &FileCtx) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    for f in &ctx.fns {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let (Some(a), Some(b)) = (
            ctx.lexed.tokens.get(open).map(|t| t.start),
            ctx.lexed.tokens.get(close).map(|t| t.end),
        ) else {
            continue;
        };
        let text = &ctx.lexed.masked[a..b];
        if f.name == "decode" || f.name == "read_frame" || text.contains("len_prefix(") {
            bodies.push((a, b));
        }
    }
    bodies
}

fn scan_alloc_sites(ctx: &FileCtx, base: usize, body: &str, out: &mut Vec<Finding>) {
    let sites = [("with_capacity(", b'(', b')'), ("vec![", b'[', b']')];
    for (tok, open_b, close_b) in sites {
        let mut from = 0usize;
        while let Some(rel) = body[from..].find(tok) {
            let at = from + rel;
            from = at + tok.len();
            let open = at + tok.len() - 1;
            let Some(close) = matching_byte(body.as_bytes(), open, open_b, close_b) else {
                continue;
            };
            let arg = &body[open + 1..close];
            // `vec![elem; n]` — only the repeat count is attacker-relevant.
            let size_expr = match arg.rsplit_once(';') {
                Some((_, n)) if tok == "vec![" => n,
                _ if tok == "vec![" => continue,
                _ => arg,
            };
            if is_literal_size(size_expr) {
                continue;
            }
            if has_cap_guard(&body[..at], size_expr) {
                continue;
            }
            out.push(finding(
                ctx,
                base + at,
                "L002",
                "wire-length-driven allocation without a MAX_*-derived cap before use".to_string(),
            ));
        }
    }
    // Decode loops `for _ in 0..n { map.insert(..) }` do bounded-per-item
    // work but unbounded total work when `n` is attacker-supplied.
    let mut from = 0usize;
    while let Some(rel) = body[from..].find("0..") {
        let at = from + rel;
        from = at + 3;
        let line_end = body[at..].find('\n').map_or(body.len(), |e| at + e);
        let bound = body[at + 3..line_end]
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
            .next()
            .unwrap_or("");
        let prefix = &body[..at];
        let is_for = prefix.trim_end().ends_with("in");
        if !is_for || is_literal_size(bound) {
            continue;
        }
        if has_cap_guard(prefix, bound) {
            continue;
        }
        out.push(finding(
            ctx,
            base + at,
            "L002",
            "wire-length-driven decode loop without a MAX_*-derived cap before use".to_string(),
        ));
    }
}

fn is_literal_size(expr: &str) -> bool {
    let e = expr.trim();
    !e.is_empty()
        && e.chars()
            .all(|c| c.is_ascii_digit() || c == '_' || c.is_ascii_whitespace())
}

/// A cap guard is an inline `.min(` on the size expression, an earlier
/// comparison against a `MAX`-named bound in the same body, or an earlier
/// `.min(`-capped allocation (the `with_capacity(n.min(LIMIT))` idiom,
/// where reader exhaustion then bounds the decode loop's total work).
fn has_cap_guard(prefix: &str, size_expr: &str) -> bool {
    if size_expr.contains(".min(") || prefix.contains(".min(") {
        return true;
    }
    prefix
        .lines()
        .any(|l| l.contains("MAX") && (l.contains('>') || l.contains('<')))
}

// --- L003 ------------------------------------------------------------------

pub fn l003(ctxs: &[FileCtx], out: &mut Vec<Finding>) {
    // Corpus: all test-region text plus whole `tests/` files (masked, so a
    // mention in a comment doesn't count as coverage).
    let mut corpus = String::new();
    for ctx in ctxs {
        for &(a, b) in &ctx.tests {
            corpus.push_str(&ctx.lexed.masked[a..b]);
            corpus.push('\n');
        }
    }
    let aliases: Vec<(String, String)> = ctxs.iter().flat_map(signed_aliases).collect();
    for ctx in ctxs {
        // Shipped code only: examples are demo material and have no test
        // targets of their own.
        if !in_scope(&ctx.path, &["crates/"]) {
            continue;
        }
        for (pos, name) in wire_impls(ctx) {
            if ctx.in_tests(pos) {
                continue;
            }
            let via_alias = aliases
                .iter()
                .any(|(body, alias)| *body == name && has_roundtrip(&corpus, alias));
            if via_alias || has_roundtrip(&corpus, &name) {
                continue;
            }
            out.push(finding(
                ctx,
                pos,
                "L003",
                format!(
                    "impl Wire for `{name}` has no roundtrip test (expected `{name}::from_wire_bytes` or `{name}::decode` in tests)"
                ),
            ));
        }
    }
}

fn wire_impls(ctx: &FileCtx) -> Vec<(usize, String)> {
    let masked = &ctx.lexed.masked;
    let bytes = masked.as_bytes();
    let mut impls = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = masked[from..].find("impl") {
        let at = from + rel;
        from = at + 4;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = bytes.get(at + 4).is_none_or(|b| !is_ident_byte(*b));
        if !before_ok || !after_ok {
            continue;
        }
        let mut j = at + 4;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) == Some(&b'<') {
            let Some(close) = matching_byte(bytes, j, b'<', b'>') else {
                continue;
            };
            j = close + 1;
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
        }
        let trait_start = j;
        while j < bytes.len() && (is_ident_byte(bytes[j]) || bytes[j] == b':') {
            j += 1;
        }
        let trait_path = &masked[trait_start..j];
        if trait_path != "Wire" && !trait_path.ends_with("::Wire") {
            continue;
        }
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if !masked[j..].starts_with("for") {
            continue;
        }
        j += 3;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let ty_start = j;
        while j < bytes.len() && (is_ident_byte(bytes[j]) || bytes[j] == b':') {
            j += 1;
        }
        let ty_path = &masked[ty_start..j];
        let name = ty_path.rsplit("::").next().unwrap_or(ty_path);
        if !name.is_empty() {
            impls.push((at, name.to_string()));
        }
    }
    impls
}

/// `(Body, Alias)` for every `type Alias = Signed<Body..>;` in `ctx`.
/// Decoding the alias decodes the body (and then its trailing signature),
/// so a roundtrip of `Alias` is coverage for `impl Wire for Body`.
fn signed_aliases(ctx: &FileCtx) -> Vec<(String, String)> {
    let masked = &ctx.lexed.masked;
    let ident = |s: &str| -> String {
        s.bytes()
            .take_while(|b| is_ident_byte(*b))
            .map(char::from)
            .collect()
    };
    let mut out = Vec::new();
    for (at, probe) in masked.match_indices("= Signed<") {
        let head = &masked[..at];
        let Some(decl) = head.rfind("type ").filter(|t| !head[*t..].contains(';')) else {
            continue;
        };
        out.push((ident(&masked[at + probe.len()..]), ident(&head[decl + 5..])));
    }
    out
}

fn has_roundtrip(corpus: &str, name: &str) -> bool {
    for method in ["from_wire_bytes", "decode", "from_value"] {
        if corpus.contains(&format!("{name}::{method}")) {
            return true;
        }
    }
    // Turbofish: `Name::<Args>::from_wire_bytes(..)`.
    let probe = format!("{name}::<");
    let mut from = 0usize;
    while let Some(rel) = corpus[from..].find(&probe) {
        let at = from + rel;
        from = at + probe.len();
        let open = at + probe.len() - 1;
        let Some(close) = matching_byte(corpus.as_bytes(), open, b'<', b'>') else {
            continue;
        };
        let rest = &corpus[close + 1..];
        if ["::from_wire_bytes", "::decode", "::from_value"]
            .iter()
            .any(|m| rest.starts_with(m))
        {
            return true;
        }
    }
    false
}
