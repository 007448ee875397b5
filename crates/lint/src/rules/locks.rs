//! Guard-liveness analysis and the two mutex rules built on it:
//!
//! - **L004** — no mutex guard live across socket I/O, where "live" is now
//!   computed from the binding shape of the `.lock()` expression and cut
//!   short by an explicit `drop(guard)` or a shadowing rebind (the v1
//!   false positive this PR fixes), and "socket I/O" includes calls that
//!   *transitively* perform frame I/O via the call graph.
//! - **L007** — the runtime lock graph must be acyclic: build a
//!   per-function lock-acquisition graph over `crates/runtime` keyed by
//!   receiver name (the lock *class*), propagate acquisitions through the
//!   call graph, and flag every edge on a cycle — including self-loops,
//!   which are re-entrant acquisition of a non-reentrant `std` mutex.
//!
//! Liveness is approximated from binding shape:
//!
//! - `let g = x.lock(…)` — live to the end of the enclosing block
//! - `if let Ok(g) = x.lock()` / `while let` / `match x.lock()` — live in
//!   the block that follows
//! - no binding (a temporary, or `let _ =`) — live to the end of the
//!   statement
//! - `drop(g)` or a shadowing `let g = …` ends liveness early

use crate::ast::{calls_in, CallKind, FileCtx, Graph};
use crate::lexer::{matching_token, TokKind, Token};
use crate::rules::{finding, in_scope};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// One `.lock()` acquisition inside a function body.
pub(crate) struct Acq {
    /// Byte offset of the `.` before `lock` (diagnostics anchor here).
    pub dot_pos: usize,
    /// Token index of the `lock` identifier.
    pub lock_tok: usize,
    /// The lock class: the receiver identifier (`rules` in
    /// `self.rules.lock()`). Merged by name across instances — for a lint,
    /// over-approximation is the safe direction.
    pub class: String,
    /// Token range (end-exclusive) where the guard is live.
    pub live: (usize, usize),
}

/// All `.lock()` acquisitions in the body of `ctx.fns[g]`, with liveness.
pub(crate) fn acquisitions(ctx: &FileCtx, g: usize) -> Vec<Acq> {
    let Some(f) = ctx.fns.get(g) else {
        return Vec::new();
    };
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let src = &ctx.raw;
    let toks = &ctx.lexed.tokens;
    let mut acqs = Vec::new();
    for idx in open + 1..close {
        if !is_lock_call(src, toks, idx) {
            continue;
        }
        let class = receiver_class(src, toks, idx - 1);
        let (binder, live) = liveness(src, toks, idx, open, close);
        let live = cut_early_death(src, toks, live, binder.as_deref());
        acqs.push(Acq {
            dot_pos: toks[idx - 1].start,
            lock_tok: idx,
            class,
            live,
        });
    }
    acqs
}

/// `toks[idx]` is the `lock` of a `.lock()` call.
fn is_lock_call(src: &str, toks: &[Token], idx: usize) -> bool {
    toks[idx].kind == TokKind::Ident
        && toks[idx].text(src) == "lock"
        && idx
            .checked_sub(1)
            .is_some_and(|p| toks[p].kind == TokKind::Punct && toks[p].text(src) == ".")
        && toks.get(idx + 1).map(|t| t.kind) == Some(TokKind::OpenParen)
        && toks.get(idx + 2).map(|t| t.kind) == Some(TokKind::CloseParen)
}

/// The receiver identifier naming the lock: the nearest non-`self` path
/// segment before the dot at `dot_idx` (`self.net.rules.lock()` → `rules`).
fn receiver_class(src: &str, toks: &[Token], dot_idx: usize) -> String {
    let mut j = dot_idx;
    loop {
        let Some(p) = j.checked_sub(1) else {
            return "<expr>".to_string();
        };
        match toks[p].kind {
            TokKind::Ident => {
                let s = toks[p].text(src);
                if s != "self" {
                    return s.to_string();
                }
                return "self".to_string();
            }
            // Tuple-field hop (`pair.0.lock()`): keep walking left.
            TokKind::Number
                if p.checked_sub(1).is_some_and(|q| {
                    toks[q].kind == TokKind::Punct && toks[q].text(src) == "."
                }) =>
            {
                j = p - 1;
            }
            TokKind::CloseParen | TokKind::CloseBracket => {
                // `policy().lock()` / `locks[i].lock()` — name it after the
                // callee / indexed collection.
                let closer = toks[p].kind;
                let opener = if closer == TokKind::CloseParen {
                    TokKind::OpenParen
                } else {
                    TokKind::OpenBracket
                };
                let mut depth = 0usize;
                let mut k = p;
                loop {
                    if toks[k].kind == closer {
                        depth += 1;
                    } else if toks[k].kind == opener {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    let Some(prev) = k.checked_sub(1) else {
                        return "<expr>".to_string();
                    };
                    k = prev;
                }
                match k.checked_sub(1).map(|q| toks[q]) {
                    Some(t) if t.kind == TokKind::Ident => return t.text(src).to_string(),
                    _ => return "<expr>".to_string(),
                }
            }
            _ => return "<expr>".to_string(),
        }
    }
}

/// Classify the binding shape of the statement containing the `.lock()` at
/// `lock_idx` and return `(guard binder, live token range)`.
fn liveness(
    src: &str,
    toks: &[Token],
    lock_idx: usize,
    body_open: usize,
    body_close: usize,
) -> (Option<String>, (usize, usize)) {
    // Find the statement start: scan left to the previous `;`, `{`, or `}`
    // at delimiter depth zero. Exiting an unmatched `(`/`[` means the lock
    // expression is a call argument — a temporary.
    let mut start = body_open + 1;
    let mut depth = 0usize;
    let mut i = lock_idx;
    while let Some(p) = i.checked_sub(1) {
        if p <= body_open {
            break;
        }
        let t = toks[p];
        match t.kind {
            TokKind::CloseParen | TokKind::CloseBracket => depth += 1,
            TokKind::OpenParen | TokKind::OpenBracket => {
                if depth == 0 {
                    return (None, (lock_idx, stmt_end(src, toks, lock_idx, body_close)));
                }
                depth -= 1;
            }
            TokKind::OpenBrace | TokKind::CloseBrace => {
                start = p + 1;
                break;
            }
            TokKind::Punct if depth == 0 && t.text(src) == ";" => {
                start = p + 1;
                break;
            }
            _ => {}
        }
        i = p;
    }
    let first = toks
        .get(start)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text(src))
        .unwrap_or("");
    match first {
        "if" | "while" | "for" | "match" => {
            let binder = if first == "match" {
                None
            } else {
                pattern_binder(src, toks, start, lock_idx)
            };
            let Some(open_b) = following_block(toks, lock_idx, body_close) else {
                return (
                    binder,
                    (lock_idx, stmt_end(src, toks, lock_idx, body_close)),
                );
            };
            let close_b = matching_token(toks, open_b).unwrap_or(body_close);
            (binder, (open_b, close_b))
        }
        "let" => {
            let binder = pattern_binder(src, toks, start, lock_idx);
            // `let _ =` drops the guard at the end of the statement, and a
            // chain that consumes the guard (`.lock().map(…)…`) binds the
            // chain's result, not the guard itself.
            if binder.as_deref() == Some("_") || !binds_guard(src, toks, lock_idx) {
                return (None, (lock_idx, stmt_end(src, toks, lock_idx, body_close)));
            }
            (
                binder,
                (lock_idx, enclosing_block_close(toks, lock_idx, body_close)),
            )
        }
        _ => (None, (lock_idx, stmt_end(src, toks, lock_idx, body_close))),
    }
}

/// Whether the expression chain after `.lock()` still yields the guard:
/// only `.unwrap()`/`.expect(…)` (and `?`) preserve it; any other
/// continuation consumes the guard inside the statement.
fn binds_guard(src: &str, toks: &[Token], lock_idx: usize) -> bool {
    // `lock ( )` occupies lock_idx..=lock_idx+2.
    let mut j = lock_idx + 3;
    loop {
        let Some(t) = toks.get(j) else { return true };
        match t.kind {
            TokKind::Punct if t.text(src) == ";" => return true,
            TokKind::Punct if t.text(src) == "?" => j += 1,
            TokKind::Punct if t.text(src) == "." => {
                let keeps = toks.get(j + 1).is_some_and(|n| {
                    n.kind == TokKind::Ident && matches!(n.text(src), "unwrap" | "expect")
                }) && toks.get(j + 2).map(|n| n.kind) == Some(TokKind::OpenParen);
                if !keeps {
                    return false;
                }
                match matching_token(toks, j + 2) {
                    Some(close) => j = close + 1,
                    None => return true,
                }
            }
            _ => return false,
        }
    }
}

/// The guard identifier bound by the pattern between `start` and the lock:
/// the last plain identifier before the `=`, skipping `mut`/`ref` and
/// constructor names like `Ok`/`Some`.
fn pattern_binder(src: &str, toks: &[Token], start: usize, lock_idx: usize) -> Option<String> {
    let mut seen_let = false;
    let mut binder = None;
    for t in toks.iter().take(lock_idx).skip(start) {
        if t.kind == TokKind::Punct && t.text(src) == "=" {
            break;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text(src);
        match s {
            "let" => seen_let = true,
            "mut" | "ref" | "Ok" | "Some" | "Err" => {}
            _ if seen_let => binder = Some(s.to_string()),
            _ => {}
        }
    }
    binder
}

/// First `{` at delimiter depth zero after `from` — the block an
/// `if let`/`while let`/`match` scrutinee feeds.
fn following_block(toks: &[Token], from: usize, body_close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().take(body_close).skip(from) {
        match t.kind {
            TokKind::OpenParen | TokKind::OpenBracket => depth += 1,
            TokKind::CloseParen | TokKind::CloseBracket => depth = depth.saturating_sub(1),
            TokKind::OpenBrace if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Token index ending the statement containing `from`: the next `;` at
/// depth zero, or the close of the enclosing block.
fn stmt_end(src: &str, toks: &[Token], from: usize, body_close: usize) -> usize {
    let mut pdepth = 0usize;
    let mut bdepth = 0usize;
    for (k, t) in toks.iter().enumerate().take(body_close).skip(from) {
        match t.kind {
            TokKind::OpenParen | TokKind::OpenBracket => pdepth += 1,
            TokKind::CloseParen | TokKind::CloseBracket => {
                if pdepth == 0 {
                    return k;
                }
                pdepth -= 1;
            }
            TokKind::OpenBrace => bdepth += 1,
            TokKind::CloseBrace => {
                if bdepth == 0 {
                    return k;
                }
                bdepth -= 1;
            }
            TokKind::Punct if pdepth == 0 && bdepth == 0 && t.text(src) == ";" => {
                return k;
            }
            _ => {}
        }
    }
    body_close
}

/// Close of the block enclosing `from` (for plain-`let` guards that live
/// to the end of their block).
fn enclosing_block_close(toks: &[Token], from: usize, body_close: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().take(body_close + 1).skip(from) {
        match t.kind {
            TokKind::OpenBrace => depth += 1,
            TokKind::CloseBrace => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    body_close
}

/// Cut the live range at an explicit `drop(binder)` or a shadowing
/// `let binder = …` rebind.
fn cut_early_death(
    src: &str,
    toks: &[Token],
    live: (usize, usize),
    binder: Option<&str>,
) -> (usize, usize) {
    let Some(b) = binder else { return live };
    for k in live.0..live.1.min(toks.len()) {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        let s = toks[k].text(src);
        if s == "drop"
            && toks.get(k + 1).map(|t| t.kind) == Some(TokKind::OpenParen)
            && toks
                .get(k + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text(src) == b)
            && toks.get(k + 3).map(|t| t.kind) == Some(TokKind::CloseParen)
        {
            return (live.0, k);
        }
        if s == "let" {
            // Shadowing rebind: the binder reappears in a pattern before
            // the `=` of a later `let`.
            let mut m = k + 1;
            while m < live.1.min(toks.len()) {
                let t = toks[m];
                if t.kind == TokKind::Punct && (t.text(src) == "=" || t.text(src) == ";") {
                    break;
                }
                if t.kind == TokKind::Ident && t.text(src) == b {
                    return (live.0, k);
                }
                m += 1;
            }
        }
    }
    live
}

// --- L004 ------------------------------------------------------------------

/// Frame-level I/O called without a receiver.
const L004_FREE_IO: &[&str] = &["write_frame", "read_frame"];
/// Socket methods that block on the peer.
const L004_METHOD_IO: &[&str] = &["flush", "write_all", "read_exact"];

pub fn l004(ctx: &FileCtx, graph: &Graph, out: &mut Vec<Finding>) {
    if ctx.path.starts_with("vendor/") {
        return;
    }
    for (g, f) in ctx.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        for acq in acquisitions(ctx, g) {
            let calls = calls_in(&ctx.raw, &ctx.lexed.tokens, acq.live.0, acq.live.1);
            let direct = calls.iter().any(|c| {
                L004_FREE_IO.contains(&c.name.as_str())
                    || (c.kind == CallKind::Method && L004_METHOD_IO.contains(&c.name.as_str()))
            });
            if direct {
                out.push(finding(
                    ctx,
                    acq.dot_pos,
                    "L004",
                    "mutex guard acquired here is still in scope across socket I/O".to_string(),
                ));
                continue;
            }
            let via = calls.iter().find(|c| {
                graph
                    .resolve(c, f.impl_ty.as_deref())
                    .iter()
                    .any(|&n| graph.trans_io[n])
            });
            if let Some(call) = via {
                out.push(finding(
                    ctx,
                    acq.dot_pos,
                    "L004",
                    format!(
                        "mutex guard acquired here is held across a call to `{}`, which performs socket I/O",
                        call.name
                    ),
                ));
            }
        }
    }
}

// --- L007 ------------------------------------------------------------------

const L007_SCOPE: &[&str] = &["crates/runtime/"];

/// Static deadlock detection over the runtime's lock classes: an edge
/// `a → b` means some function acquires `b` (directly or via a callee)
/// while a guard on `a` is live. Any edge on a cycle is flagged at the
/// acquisition site that creates it.
pub fn l007(ctxs: &[FileCtx], graph: &Graph, out: &mut Vec<Finding>) {
    let n = graph.nodes.len();
    // Acquisitions per graph node, for scoped files only.
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(n);
    for node in 0..n {
        let (fi, gi) = graph.nodes[node];
        let ctx = &ctxs[fi];
        if in_scope(&ctx.path, L007_SCOPE) {
            acqs.push(acquisitions(ctx, gi));
        } else {
            acqs.push(Vec::new());
        }
    }
    // Lock classes each node acquires, propagated through callees.
    let mut trans: Vec<BTreeSet<String>> = acqs
        .iter()
        .map(|a| a.iter().map(|q| q.class.clone()).collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for node in 0..n {
            for idx in 0..graph.edges[node].len() {
                let callee = graph.edges[node][idx];
                if callee == node {
                    continue;
                }
                let add: Vec<String> = trans[callee]
                    .iter()
                    .filter(|c| !trans[node].contains(*c))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    trans[node].extend(add);
                    changed = true;
                }
            }
        }
    }
    // Class edges with first-seen provenance (file index, byte pos).
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (node, node_acqs) in acqs.iter().enumerate().take(n) {
        let (fi, gi) = graph.nodes[node];
        let ctx = &ctxs[fi];
        let impl_ty = ctx.fns[gi].impl_ty.as_deref();
        for acq in node_acqs {
            if acq.class == "<expr>" {
                continue;
            }
            // Another acquisition while this guard is live.
            for other in &acqs[node] {
                if other.lock_tok > acq.live.0 && other.lock_tok < acq.live.1 {
                    edges
                        .entry((acq.class.clone(), other.class.clone()))
                        .or_insert((fi, acq.dot_pos));
                }
            }
            // A callee that (transitively) acquires another class.
            for call in calls_in(&ctx.raw, &ctx.lexed.tokens, acq.live.0, acq.live.1) {
                for &callee in graph.resolve(&call, impl_ty) {
                    if callee == node {
                        continue;
                    }
                    for class in &trans[callee] {
                        edges
                            .entry((acq.class.clone(), class.clone()))
                            .or_insert((fi, acq.dot_pos));
                    }
                }
            }
        }
    }
    // Adjacency over classes; flag every edge on a cycle.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    for ((a, b), &(fi, pos)) in &edges {
        if !reaches(&adj, b, a) {
            continue;
        }
        let ctx = &ctxs[fi];
        let message = if a == b {
            format!("lock `{a}` acquired again while already held (self-deadlock)")
        } else {
            format!("lock `{a}` held while acquiring `{b}` completes a lock-order cycle")
        };
        out.push(finding(ctx, pos, "L007", message));
    }
}

/// Whether `to` is reachable from `from` over `adj` (trivially true when
/// they are the same class).
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    let mut seen = BTreeSet::new();
    let mut work = vec![from];
    while let Some(node) = work.pop() {
        if !seen.insert(node) {
            continue;
        }
        if let Some(next) = adj.get(node) {
            for &m in next {
                if m == to {
                    return true;
                }
                work.push(m);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Graph;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new("crates/runtime/src/x.rs", src)
    }

    #[test]
    fn drop_ends_guard_liveness_before_io() {
        let c = ctx("fn f(s: &mut TcpStream) {\n\
             let g = state.lock();\n\
             use_it(&g);\n\
             drop(g);\n\
             write_frame(s, &b);\n\
             }\n");
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l004(&c, &graph, &mut out);
        assert!(out.is_empty(), "drop(g) must end liveness: {out:?}");
    }

    #[test]
    fn guard_held_across_io_is_flagged() {
        let c = ctx("fn f(s: &mut TcpStream) {\n\
             let g = state.lock();\n\
             write_frame(s, &b);\n\
             }\n");
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l004(&c, &graph, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "L004");
    }

    #[test]
    fn transitive_io_through_a_callee_is_flagged() {
        let c = ctx("fn f(s: &mut TcpStream) {\n\
             let g = state.lock();\n\
             relay(s);\n\
             }\n\
             fn relay(s: &mut TcpStream) { write_frame(s, &b); }\n");
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l004(&c, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`relay`"));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let c = ctx("fn f(s: &mut TcpStream) {\n\
             let n = counter.lock().map(|g| *g).unwrap_or(0);\n\
             write_frame(s, &b);\n\
             }\n");
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l004(&c, &graph, &mut out);
        assert!(out.is_empty(), "temporary guard: {out:?}");
    }

    #[test]
    fn lock_order_cycle_is_flagged_both_ways() {
        let c = ctx(
            "fn ab() { if let Ok(g) = alpha.lock() { let h = beta.lock(); use_it(h); } }\n\
             fn ba() { if let Ok(g) = beta.lock() { let h = alpha.lock(); use_it(h); } }\n",
        );
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l007(std::slice::from_ref(&c), &graph, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "L007"));
    }

    #[test]
    fn ordered_nesting_is_not_a_cycle() {
        let c = ctx(
            "fn ab() { if let Ok(g) = alpha.lock() { let h = beta.lock(); use_it(h); } }\n\
             fn ab2() { if let Ok(g) = alpha.lock() { let h = beta.lock(); use_it(h); } }\n",
        );
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l007(std::slice::from_ref(&c), &graph, &mut out);
        assert!(out.is_empty(), "consistent order: {out:?}");
    }

    #[test]
    fn reacquiring_through_a_callee_is_a_self_deadlock() {
        let c = ctx("fn outer() { let g = alpha.lock(); helper(); }\n\
             fn helper() { let h = alpha.lock(); use_it(h); }\n");
        let graph = Graph::build(std::slice::from_ref(&c));
        let mut out = Vec::new();
        l007(std::slice::from_ref(&c), &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("self-deadlock"));
    }
}
