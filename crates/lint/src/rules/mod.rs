//! The rule implementations, and the shared helpers they run on.
//!
//! Each rule consumes the structured view built in [`crate::ast`]: lexed
//! tokens, masked text, parsed `fn` items, and (the lock rules only) the
//! workspace call graph.
//! Path scoping treats a bare filename (no `/`) as in scope for every
//! rule — that is what a fixture-directory scan (`--root
//! crates/lint/fixtures/bad`) produces, and it keeps the CI self-test
//! honest without widening scope inside the real tree, where every file
//! lives under `crates/`, `examples/`, `src/`, or `tests/`.

mod arith;
mod legacy;
mod locks;
mod panics;
mod queues;

use crate::ast::{FileCtx, Graph};
use crate::Finding;

/// Run every rule over the parsed files and the call graph.
pub fn run(ctxs: &[FileCtx], graph: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ctx in ctxs {
        panics::l001(ctx, &mut findings);
        legacy::l002(ctx, &mut findings);
        locks::l004(ctx, graph, &mut findings);
        arith::l008(ctx, &mut findings);
        queues::l010(ctx, &mut findings);
    }
    legacy::l003(ctxs, &mut findings);
    locks::l007(ctxs, graph, &mut findings);
    findings
}

/// Build a [`Finding`] at byte offset `pos` of `ctx`.
pub(crate) fn finding(ctx: &FileCtx, pos: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        file: ctx.path.clone(),
        line: ctx.line_of(pos),
        rule,
        message,
    }
}

/// Byte offsets of every non-test occurrence of `needle` in the masked
/// text of `ctx`.
pub(crate) fn occurrences(ctx: &FileCtx, needle: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = ctx.lexed.masked[from..].find(needle) {
        let at = from + rel;
        if !ctx.in_tests(at) {
            hits.push(at);
        }
        from = at + needle.len();
    }
    hits
}

/// Whether `path` is in scope for a rule restricted to `prefixes`. A bare
/// filename (a fixture-root scan) is always in scope.
pub(crate) fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p)) || !path.contains('/')
}
