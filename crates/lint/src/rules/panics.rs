//! L001 (the part clippy cannot state) — no index expressions in the
//! non-test code of `crates/runtime` and `crates/smr`.
//!
//! The calls and macros that panic (`unwrap`, `expect`, `panic!`, …) are
//! denied by clippy at those crates' roots. Indexing stays here because
//! `clippy::indexing_slicing` only sees slices and arrays: `map[&key]` on a
//! `BTreeMap` or `queue[i]` on a `VecDeque` go through `Index` impls it
//! does not look at, and both panic on a miss. The scan is textual and
//! type-blind, so it catches every `expr[…]`.

use crate::ast::FileCtx;
use crate::lexer::is_ident_byte;
use crate::rules::{finding, in_scope, occurrences};
use crate::Finding;

const L001_CRATES: &[&str] = &["crates/runtime/src/", "crates/smr/src/"];

pub fn l001(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_scope(&ctx.path, L001_CRATES) {
        return;
    }
    // A `[` counts as indexing when the previous byte is an identifier
    // char, `)`, or `]` — which excludes array literals and types,
    // attributes (`#[`), and macros (`vec![`).
    let bytes = ctx.lexed.masked.as_bytes();
    for pos in occurrences(ctx, "[") {
        let Some(prev) = pos.checked_sub(1).map(|i| bytes[i]) else {
            continue;
        };
        if is_ident_byte(prev) || prev == b')' || prev == b']' {
            out.push(finding(
                ctx,
                pos,
                "L001",
                "possibly-panicking index expression in consensus code; use get/get_mut"
                    .to_string(),
            ));
        }
    }
}
