//! A lightweight item/brace-tree parser over the token stream, plus the
//! intra-workspace call graph the lock rules run on.
//!
//! This is deliberately not a full Rust parser: the lint needs exactly
//! three structural facts — *where functions are* (name, impl context,
//! body span), *which of them are test code*, and *who calls whom* — and
//! extracts them with total, never-failing scans. Resolution is by name
//! (qualified by impl type when the call site is qualified), which
//! over-approximates: a call edge that might exist is assumed to exist.
//! For a lint that is the safe direction — over-approximation widens the
//! scanned set, it never hides a finding behind a missed edge.

use crate::lexer::{is_ident_byte, lex, matching_token, Lexed, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// One `fn` item found in a file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// The `impl` type the function sits in, if any (`SmrNode`,
    /// `Checkpointer`, …). Trait impls record the *self* type, so
    /// `impl Wire for SlotMessage` methods qualify as `SlotMessage::…`.
    pub impl_ty: Option<String>,
    /// Inclusive token indices of the body's `{` and `}`; `None` for
    /// bodyless declarations (trait methods without defaults).
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a test region or a `tests/` file.
    pub is_test: bool,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a free function (or tuple-struct constructor).
    Free,
    /// `.name(…)` — a method call, resolved across every impl.
    Method,
    /// `Qual::name(…)` — a qualified call; `Self` resolves to the
    /// enclosing impl type.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Qualification shape.
    pub kind: CallKind,
}

/// Everything the rules need to know about one file: tokens, masked text,
/// line table, test regions, and parsed `fn` items.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Raw source text.
    pub raw: String,
    /// Lexed tokens and masked text (same byte length as `raw`).
    pub lexed: Lexed,
    /// Byte offset of each line start.
    pub starts: Vec<usize>,
    /// Byte ranges covered by test-only code.
    pub tests: Vec<(usize, usize)>,
    /// Parsed function items, in source order.
    pub fns: Vec<FnItem>,
}

impl FileCtx {
    /// Lex and parse one source file.
    pub fn new(path: &str, text: &str) -> Self {
        let lexed = lex(text);
        let tests = test_regions(&lexed.masked, path);
        let starts = line_starts(text);
        let fns = parse_fns(text, &lexed, &tests, path);
        FileCtx {
            path: path.to_string(),
            raw: text.to_string(),
            lexed,
            starts,
            tests,
            fns,
        }
    }

    /// 1-based line number of byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.starts.binary_search(&pos) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }

    /// The raw text of 1-based `line`, trailing whitespace trimmed.
    pub fn raw_line(&self, line: usize) -> String {
        let begin = self.starts.get(line - 1).copied().unwrap_or(0);
        let end = self
            .starts
            .get(line)
            .map_or(self.raw.len(), |e| e.saturating_sub(1));
        self.raw
            .get(begin..end)
            .unwrap_or("")
            .trim_end()
            .to_string()
    }

    /// Whether byte offset `pos` falls in a test region.
    pub fn in_tests(&self, pos: usize) -> bool {
        self.tests.iter().any(|&(a, b)| pos >= a && pos < b)
    }

    /// Call sites inside the body of `fns[idx]`.
    pub fn calls_in_fn(&self, idx: usize) -> Vec<CallSite> {
        let Some(f) = self.fns.get(idx) else {
            return Vec::new();
        };
        let Some((open, close)) = f.body else {
            return Vec::new();
        };
        calls_in(&self.raw, &self.lexed.tokens, open + 1, close)
    }

    /// Whether the body of `fns[idx]` contains an identifier token whose
    /// text is in `names`.
    pub fn body_mentions(&self, idx: usize, names: &[&str]) -> bool {
        let Some(f) = self.fns.get(idx) else {
            return false;
        };
        let Some((open, close)) = f.body else {
            return false;
        };
        self.lexed.tokens[open..=close.min(self.lexed.tokens.len() - 1)]
            .iter()
            .any(|t| t.kind == TokKind::Ident && names.contains(&t.text(&self.raw)))
    }
}

/// Byte offset of each line start.
pub fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

// ---------------------------------------------------------------------------
// Test-region detection: `#[cfg(test)] mod`, `#[test] fn`, and whole files
// under `tests/` are exempt from the production-path rules. Operates on
// masked text so attributes inside strings never count.
// ---------------------------------------------------------------------------

/// Byte ranges of `masked` covered by test-only code.
pub fn test_regions(masked: &str, path: &str) -> Vec<(usize, usize)> {
    if is_test_file(path) {
        return vec![(0, masked.len())];
    }
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' || bytes.get(i + 1) != Some(&b'[') {
            i += 1;
            continue;
        }
        let Some(attr_end) = matching_byte(bytes, i + 1, b'[', b']') else {
            break;
        };
        let attr = &masked[i + 2..attr_end];
        let is_test_attr =
            attr.trim() == "test" || (attr.contains("cfg") && contains_word(attr, "test"));
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip whitespace and any further attributes, then look for the
        // item the attribute gates.
        let mut j = attr_end + 1;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') && bytes.get(j + 1) == Some(&b'[') {
                match matching_byte(bytes, j + 1, b'[', b']') {
                    Some(end) => j = end + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        let rest = &masked[j.min(masked.len())..];
        let gated = rest.trim_start_matches("pub").trim_start();
        let gated = gated.strip_prefix("(crate)").unwrap_or(gated).trim_start();
        if gated.starts_with("mod ") || gated.starts_with("fn ") || gated.starts_with("async fn ") {
            if let Some(open_rel) = rest.find('{') {
                let open = j + open_rel;
                let close =
                    matching_byte(bytes, open, b'{', b'}').unwrap_or(bytes.len().saturating_sub(1));
                regions.push((i, close + 1));
                i = close + 1;
                continue;
            }
        }
        i = attr_end + 1;
    }
    regions
}

fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

fn contains_word(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = haystack[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Byte index of the delimiter closing the one at `open` (depth-matched).
pub fn matching_byte(bytes: &[u8], open: usize, opener: u8, closer: u8) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == opener {
            depth += 1;
        } else if bytes[i] == closer {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// fn-item extraction.
// ---------------------------------------------------------------------------

fn parse_fns(src: &str, lexed: &Lexed, tests: &[(usize, usize)], path: &str) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let mut items = Vec::new();
    // Stack of (impl type name, token index of the impl body's `}`).
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut idx = 0usize;
    while idx < toks.len() {
        while impls.last().is_some_and(|&(_, close)| idx > close) {
            impls.pop();
        }
        let tok = toks[idx];
        if tok.kind != TokKind::Ident {
            idx += 1;
            continue;
        }
        match tok.text(src) {
            "impl" => {
                if let Some((ty, open)) = parse_impl_header(src, toks, idx) {
                    if let Some(close) = matching_token(toks, open) {
                        impls.push((ty, close));
                    }
                    idx = open + 1;
                    continue;
                }
                idx += 1;
            }
            "fn" => {
                let item = parse_fn_item(src, toks, idx, tests, path, impls.last());
                let next = item
                    .as_ref()
                    .and_then(|f| f.body)
                    .map_or(idx + 1, |(open, _)| open + 1);
                if let Some(item) = item {
                    items.push(item);
                }
                idx = next;
            }
            _ => idx += 1,
        }
    }
    items
}

/// Parse an `impl` header starting at the `impl` token; returns the self
/// type's last path segment and the token index of the body's `{`.
fn parse_impl_header(src: &str, toks: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut j = impl_idx + 1;
    j = skip_generics(src, toks, j);
    // Collect path segments until `for`, `where`, or the body `{`.
    let mut first_path = last_path_segment(src, toks, &mut j)?;
    loop {
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident && t.text(src) == "for" => {
                j += 1;
                first_path = last_path_segment(src, toks, &mut j)?;
            }
            Some(t) if t.kind == TokKind::Ident && t.text(src) == "where" => {
                // Scan to the body `{` (a where clause has no braces).
                while j < toks.len() && toks[j].kind != TokKind::OpenBrace {
                    j += 1;
                }
            }
            Some(t) if t.kind == TokKind::OpenBrace => return Some((first_path, j)),
            Some(_) => j += 1,
            None => return None,
        }
    }
}

/// Skip a `<…>` generic-parameter list at `j`, depth-matching single-char
/// angle puncts (the lexer never fuses `>>`, so nesting is countable).
fn skip_generics(src: &str, toks: &[Token], mut j: usize) -> usize {
    if !toks
        .get(j)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == "<")
    {
        return j;
    }
    let mut depth = 0isize;
    while j < toks.len() {
        let t = toks[j].text(src);
        if toks[j].kind == TokKind::Punct {
            if t == "<" {
                depth += 1;
            } else if t == ">" {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    j
}

/// Advance `j` over one (possibly `::`-qualified, possibly generic) type
/// path, returning its last identifier segment.
fn last_path_segment(src: &str, toks: &[Token], j: &mut usize) -> Option<String> {
    let mut last = None;
    loop {
        match toks.get(*j) {
            Some(t) if t.kind == TokKind::Ident => {
                let text = t.text(src);
                if text == "for" || text == "where" {
                    break;
                }
                last = Some(text.to_string());
                *j += 1;
                *j = skip_generics(src, toks, *j);
            }
            Some(t) if t.kind == TokKind::Punct && (t.text(src) == "::" || t.text(src) == "&") => {
                *j += 1;
            }
            Some(t) if t.kind == TokKind::Lifetime => {
                *j += 1;
            }
            _ => break,
        }
    }
    last
}

fn parse_fn_item(
    src: &str,
    toks: &[Token],
    fn_idx: usize,
    tests: &[(usize, usize)],
    path: &str,
    current_impl: Option<&(String, usize)>,
) -> Option<FnItem> {
    // `fn` must be a keyword position, not e.g. a field named `fn` (not
    // legal anyway) — the lexer already guarantees ident boundaries.
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text(src).to_string();
    let mut j = fn_idx + 2;
    j = skip_generics(src, toks, j);
    // Argument list.
    if toks.get(j).map(|t| t.kind) != Some(TokKind::OpenParen) {
        return None;
    }
    let args_close = matching_token(toks, j)?;
    // Between the arg list and the body `{` (or `;`): return type and
    // where clause. Track bracket depth so a `;` inside an array type
    // (`[u8; 4]`) does not end the signature.
    let mut k = args_close + 1;
    let mut body = None;
    let mut depth = 0isize;
    while let Some(t) = toks.get(k) {
        match t.kind {
            TokKind::OpenParen | TokKind::OpenBracket => depth += 1,
            TokKind::CloseParen | TokKind::CloseBracket => depth -= 1,
            TokKind::OpenBrace if depth == 0 => {
                body = matching_token(toks, k).map(|close| (k, close));
                break;
            }
            TokKind::Punct if depth == 0 && t.text(src) == ";" => break,
            _ => {}
        }
        k += 1;
    }
    let start_byte = toks[fn_idx].start;
    let in_test_region = tests
        .iter()
        .any(|&(a, b)| start_byte >= a && start_byte < b);
    Some(FnItem {
        name,
        impl_ty: current_impl.map(|(ty, _)| ty.clone()),
        body,
        is_test: in_test_region || is_test_file(path),
    })
}

// ---------------------------------------------------------------------------
// Call extraction.
// ---------------------------------------------------------------------------

/// Call sites in `toks[from..to]`: every identifier directly followed by
/// `(` that is not a definition or macro, classified by what precedes it.
pub fn calls_in(src: &str, toks: &[Token], from: usize, to: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for idx in from..to.min(toks.len()) {
        if toks[idx].kind != TokKind::Ident {
            continue;
        }
        if toks.get(idx + 1).map(|t| t.kind) != Some(TokKind::OpenParen) {
            continue;
        }
        let name = toks[idx].text(src);
        let prev = idx
            .checked_sub(1)
            .map(|p| (toks[p].kind, toks[p].text(src)));
        let kind = match prev {
            Some((TokKind::Ident, "fn")) => continue, // a nested definition
            Some((TokKind::Punct, ".")) => CallKind::Method,
            Some((TokKind::Punct, "::")) => {
                let qual = idx
                    .checked_sub(2)
                    .map(|q| toks[q])
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text(src).to_string());
                match qual {
                    Some(q) => CallKind::Qualified(q),
                    // `<T as Trait>::call(…)` and turbofish tails resolve
                    // like methods: by name across every impl.
                    None => CallKind::Method,
                }
            }
            _ => CallKind::Free,
        };
        calls.push(CallSite {
            name: name.to_string(),
            kind,
        });
    }
    calls
}

// ---------------------------------------------------------------------------
// The call graph.
// ---------------------------------------------------------------------------

/// Method names shadowed by std collection and handle types (`Vec`, the
/// maps, `Option`, `JoinHandle`, …). A bare `x.get(…)` or `Vec::new()` is
/// overwhelmingly a std call; merging it with same-named corpus methods
/// (the KV client's socket-backed `get`, a transport's `new`) would give
/// nearly every function a phantom edge into the I/O layer. These names
/// resolve only through an explicit corpus qualifier.
const STD_SHADOWED: &[&str] = &[
    "new",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "len",
    "is_empty",
    "clear",
    "join",
    "clone",
    "drain",
    "iter",
    "iter_mut",
    "next",
    "take",
    "contains_key",
    "entry",
    "swap_remove",
    "truncate",
    "extend",
    "retain",
    "last",
    "first",
    "unwrap_or",
];

/// A workspace-wide call graph over every parsed function, with
/// name-based (impl-qualified where written) resolution.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// `(file index, fn index)` for each graph node, in deterministic
    /// (file, item) order.
    pub nodes: Vec<(usize, usize)>,
    /// Forward edges: caller node → callee nodes.
    pub edges: Vec<Vec<usize>>,
    /// Nodes that perform frame I/O directly or via any callee.
    pub trans_io: Vec<bool>,
    /// Free functions by name.
    free_idx: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name, merged across impls.
    method_idx: BTreeMap<String, Vec<usize>>,
    /// Methods by `(impl type, name)`.
    qual_idx: BTreeMap<(String, String), Vec<usize>>,
}

impl Graph {
    /// Build the graph over `files` (non-test functions only — test code
    /// neither extends the attack surface nor counts as a path into it).
    pub fn build(files: &[FileCtx]) -> Graph {
        let mut nodes = Vec::new();
        for (fi, ctx) in files.iter().enumerate() {
            for (gi, f) in ctx.fns.iter().enumerate() {
                if f.is_test || f.body.is_none() {
                    continue;
                }
                nodes.push((fi, gi));
            }
        }
        // Resolution indexes.
        let mut free_idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut method_idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut qual_idx: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (node, &(fi, gi)) in nodes.iter().enumerate() {
            let f = &files[fi].fns[gi];
            match f.impl_ty.as_deref() {
                None => free_idx.entry(f.name.clone()).or_default().push(node),
                Some(ty) => {
                    method_idx.entry(f.name.clone()).or_default().push(node);
                    qual_idx
                        .entry((ty.to_string(), f.name.clone()))
                        .or_default()
                        .push(node);
                }
            }
        }
        let mut graph = Graph {
            nodes,
            edges: Vec::new(),
            trans_io: Vec::new(),
            free_idx,
            method_idx,
            qual_idx,
        };
        let mut edges = vec![Vec::new(); graph.nodes.len()];
        let mut io_direct = vec![false; graph.nodes.len()];
        for node in 0..graph.nodes.len() {
            let (fi, gi) = graph.nodes[node];
            let ctx = &files[fi];
            io_direct[node] = ctx.body_mentions(gi, &["read_frame", "write_frame"]);
            let enclosing_ty = ctx.fns[gi].impl_ty.as_deref();
            let mut targets = BTreeSet::new();
            for call in ctx.calls_in_fn(gi) {
                targets.extend(graph.resolve(&call, enclosing_ty).iter().copied());
            }
            edges[node] = targets.into_iter().collect();
        }
        graph.trans_io = closure_backward(&edges, &io_direct);
        graph.edges = edges;
        graph
    }

    /// Resolve one call site to graph nodes, by name and qualification.
    /// `enclosing_ty` is the impl type of the *calling* function (for
    /// `Self::` paths). Over-approximates: merged across same-named fns —
    /// except [`STD_SHADOWED`] names, where a bare method call is
    /// overwhelmingly a std-type call and merging would poison the graph
    /// with edges into unrelated impls.
    pub fn resolve(&self, call: &CallSite, enclosing_ty: Option<&str>) -> &[usize] {
        match &call.kind {
            CallKind::Free => self
                .free_idx
                .get(call.name.as_str())
                .map_or(&[], |v| v.as_slice()),
            CallKind::Method => self.method_merge(&call.name),
            CallKind::Qualified(q) => {
                // A lowercase qualifier is a module path (`put::u64`),
                // not a type: the callee was parsed as a free function.
                if q.chars().next().is_some_and(|c| c.is_lowercase()) {
                    return self
                        .free_idx
                        .get(call.name.as_str())
                        .map_or(&[], |v| v.as_slice());
                }
                let ty = if q == "Self" {
                    enclosing_ty.unwrap_or("Self")
                } else {
                    q.as_str()
                };
                match self.qual_idx.get(&(ty.to_string(), call.name.clone())) {
                    Some(v) => v.as_slice(),
                    // An unknown qualifier can still be a trait path
                    // (`StateMachine::apply`); fall back to method-style
                    // merge, which drops std-shadowed names (`Vec::new`).
                    None => self.method_merge(&call.name),
                }
            }
        }
    }

    fn method_merge(&self, name: &str) -> &[usize] {
        if STD_SHADOWED.contains(&name) {
            return &[];
        }
        self.method_idx.get(name).map_or(&[], |v| v.as_slice())
    }
}

/// Every node from which a seed node is reachable (inclusive): seeds
/// propagate backwards to their callers, to a fixpoint.
pub fn closure_backward(edges: &[Vec<usize>], seed: &[bool]) -> Vec<bool> {
    let mut reach = seed.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for node in 0..edges.len() {
            if !reach[node] && edges[node].iter().any(|&n| reach[n]) {
                reach[node] = true;
                changed = true;
            }
        }
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_capture_impl_context_and_bodies() {
        let src = "impl Wire for SlotMessage {\n\
                   fn encode(&self, out: &mut Vec<u8>) { put(out) }\n\
                   fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> { todo() }\n\
                   }\n\
                   fn free_helper() {}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let names: Vec<_> = ctx
            .fns
            .iter()
            .map(|f| (f.impl_ty.clone(), f.name.clone()))
            .collect();
        assert_eq!(
            names,
            [
                (Some("SlotMessage".into()), "encode".into()),
                (Some("SlotMessage".into()), "decode".into()),
                (None, "free_helper".into()),
            ]
        );
    }

    #[test]
    fn generic_impl_headers_resolve_self_type() {
        let src = "impl<S: StateMachine<Op = K>> SmrNode<S> where S: Clone {\n\
                   fn submit(&mut self) { self.open() }\n\
                   }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.fns[0].impl_ty.as_deref(), Some("SmrNode"));
    }

    #[test]
    fn calls_classify_free_method_and_qualified() {
        let src = "fn f() { helper(); obj.method(); Type::assoc(); Self::own(); mac!(x); }";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let calls = ctx.calls_in_fn(0);
        let shapes: Vec<_> = calls
            .iter()
            .map(|c| (c.name.clone(), c.kind.clone()))
            .collect();
        assert_eq!(
            shapes,
            [
                ("helper".into(), CallKind::Free),
                ("method".into(), CallKind::Method),
                ("assoc".into(), CallKind::Qualified("Type".into())),
                ("own".into(), CallKind::Qualified("Self".into())),
            ],
            "macros must not appear as calls"
        );
    }

    #[test]
    fn frame_io_propagates_back_to_callers() {
        let a = FileCtx::new(
            "crates/x/src/io.rs",
            "fn outer(s: &mut TcpStream) { relay(s) }\n\
             fn relay(s: &mut TcpStream) { write_frame(s, &b); }\n\
             fn orphan() { record_nothing() }\n",
        );
        let graph = Graph::build(&[a]);
        assert_eq!(graph.trans_io, [true, true, false]);
    }

    #[test]
    fn test_fns_stay_out_of_the_graph() {
        let a = FileCtx::new(
            "crates/x/src/io.rs",
            "fn live(s: &mut TcpStream) { read_frame(s); }\n\
             #[cfg(test)]\nmod tests {\n  fn helper() { read_frame(x); }\n}\n",
        );
        let graph = Graph::build(&[a]);
        assert_eq!(graph.nodes.len(), 1);
    }

    #[test]
    fn module_qualified_calls_resolve_to_free_fns() {
        // `put::u64` is a module path: it must hit the free fn `u64`, not
        // merge with the same-named `Reader::u64` method.
        let src = "fn u64(out: &mut Vec<u8>, v: u64) { raw(out, v) }\n\
                   impl Reader { fn u64(&mut self) -> Result<u64, E> { take8(self) } }\n\
                   fn encode(out: &mut Vec<u8>) { put::u64(out, 7); }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let graph = Graph::build(std::slice::from_ref(&ctx));
        let call = CallSite {
            name: "u64".to_string(),
            kind: CallKind::Qualified("put".to_string()),
        };
        let resolved = graph.resolve(&call, None);
        assert_eq!(resolved.len(), 1);
        let (fi, gi) = graph.nodes[resolved[0]];
        assert!(ctx.fns[gi].impl_ty.is_none(), "resolved to a method");
        assert_eq!((fi, ctx.fns[gi].name.as_str()), (0, "u64"));
    }

    #[test]
    fn std_shadowed_names_do_not_merge() {
        // `handles.get(i)` and `Vec::new()` are std calls: neither may
        // pick up edges into the corpus `Client::get` / `Client::new`.
        let src = "impl Client { fn get(&mut self) -> Result<V, E> { read_frame(x) }\n\
                   fn new() -> Self { connect(addr) } }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let graph = Graph::build(std::slice::from_ref(&ctx));
        for kind in [CallKind::Method, CallKind::Qualified("Vec".to_string())] {
            for name in ["get", "new"] {
                let call = CallSite {
                    name: name.to_string(),
                    kind: kind.clone(),
                };
                assert!(graph.resolve(&call, None).is_empty(), "{name} merged");
            }
        }
        // The explicit corpus qualifier still resolves.
        let call = CallSite {
            name: "get".to_string(),
            kind: CallKind::Qualified("Client".to_string()),
        };
        assert_eq!(graph.resolve(&call, None).len(), 1);
    }
}
