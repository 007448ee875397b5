//! L008 — checked slot/view/length/sequence arithmetic.
//!
//! A Byzantine peer picks the numbers honest replicas do math on: a forged
//! far-future slot delta or length field that wraps an unchecked `+`/`*`
//! turns bounds checks inside out. In `crates/{smr,runtime,core}`,
//! arithmetic whose operand is *tracked* — an identifier with a
//! slot/view/seq/len/offset/horizon segment — must go through
//! `checked_*`/`saturating_*`/`wrapping_*` (or `min`/`clamp`/`try_from`).
//! Which values are consensus arithmetic is this repo's vocabulary, so the
//! rule lives here; the narrowing-cast half of the hazard is type-shaped
//! and is `clippy::cast_possible_truncation`'s, denied at the three crate
//! roots.

use crate::ast::FileCtx;
use crate::lexer::{TokKind, Token};
use crate::rules::{finding, in_scope};
use crate::Finding;

const L008_SCOPE: &[&str] = &["crates/smr/src/", "crates/runtime/src/", "crates/core/src/"];

/// Identifier segments that mark a value as consensus arithmetic.
const TRACKED_SEGMENTS: &[&str] = &["slot", "view", "seq", "len", "offset", "horizon"];
/// Whole identifiers tracked regardless of segmentation.
const TRACKED_IDENTS: &[&str] = &["next_open", "next_apply"];

/// Mitigations: a line mentioning any of these is already doing checked
/// math (or explicitly clamping), so the raw operator next to it is the
/// fallback arm, not the hazard.
const MITIGATIONS: &[&str] = &[
    "checked_",
    "saturating_",
    "wrapping_",
    "try_from",
    ".min(",
    ".max(",
    "clamp(",
];

fn is_tracked(name: &str) -> bool {
    if TRACKED_IDENTS.contains(&name) {
        return true;
    }
    name.split('_')
        .any(|seg| TRACKED_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

pub fn l008(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_scope(&ctx.path, L008_SCOPE) {
        return;
    }
    let src = &ctx.raw;
    let toks = &ctx.lexed.tokens;
    for f in &ctx.fns {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        for idx in open + 1..close {
            let t = toks[idx];
            if t.kind != TokKind::Punct {
                continue;
            }
            let op = t.text(src);
            let compound = matches!(op, "+=" | "-=");
            let binary = matches!(op, "+" | "*" | "-") && is_binary_position(toks, idx);
            if !compound && !binary {
                continue;
            }
            let tracked = left_tracked(src, toks, idx).or_else(|| right_tracked(src, toks, idx));
            let Some(name) = tracked else { continue };
            if line_mitigated(ctx, t.start) {
                continue;
            }
            out.push(finding(
                ctx,
                t.start,
                "L008",
                format!("unchecked `{op}` on tracked value `{name}`; use checked_*/saturating_*"),
            ));
        }
    }
}

/// `+`/`*`/`-` at `idx` is binary (not unary/deref) when something that
/// can end an expression directly precedes it.
fn is_binary_position(toks: &[Token], idx: usize) -> bool {
    let Some(p) = idx.checked_sub(1) else {
        return false;
    };
    matches!(
        toks[p].kind,
        TokKind::Ident | TokKind::Number | TokKind::CloseParen | TokKind::CloseBracket
    )
}

/// A tracked identifier ending the expression directly left of `idx`:
/// the identifier itself, the callee of a trailing call (`buf.len()`), or
/// the base of a tuple-field access (`view.0`).
fn left_tracked(src: &str, toks: &[Token], idx: usize) -> Option<String> {
    let p = idx.checked_sub(1)?;
    match toks[p].kind {
        TokKind::Ident => {
            // `x as u64 + y` — classify by the cast's own operand.
            if p >= 1 && toks[p - 1].kind == TokKind::Ident && toks[p - 1].text(src) == "as" {
                return left_tracked(src, toks, p - 1);
            }
            let s = toks[p].text(src);
            is_tracked(s).then(|| s.to_string())
        }
        // Tuple field: `view.0 - 1`.
        TokKind::Number => {
            let dot = p.checked_sub(1)?;
            let base = dot.checked_sub(1)?;
            if toks[dot].kind == TokKind::Punct
                && toks[dot].text(src) == "."
                && toks[base].kind == TokKind::Ident
            {
                let s = toks[base].text(src);
                return is_tracked(s).then(|| s.to_string());
            }
            None
        }
        TokKind::CloseParen => {
            // Walk to the matching `(`; the token before it is the callee
            // (`self.map.len() + 1` → `len`).
            let mut depth = 0usize;
            let mut k = p;
            loop {
                match toks[k].kind {
                    TokKind::CloseParen => depth += 1,
                    TokKind::OpenParen => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k = k.checked_sub(1)?;
            }
            let callee = k.checked_sub(1)?;
            if toks[callee].kind == TokKind::Ident {
                let s = toks[callee].text(src);
                return is_tracked(s).then(|| s.to_string());
            }
            None
        }
        _ => None,
    }
}

/// A tracked identifier in the operand chain directly right of `idx`
/// (`slot + self.pipeline_depth` walks `self`, `pipeline_depth`).
fn right_tracked(src: &str, toks: &[Token], idx: usize) -> Option<String> {
    let mut k = idx + 1;
    while let Some(t) = toks.get(k) {
        match t.kind {
            TokKind::Ident => {
                let s = t.text(src);
                if s == "as" {
                    return None;
                }
                if is_tracked(s) {
                    return Some(s.to_string());
                }
            }
            TokKind::Number => {}
            TokKind::Punct if matches!(t.text(src), "." | "::" | "&") => {}
            _ => return None,
        }
        k += 1;
    }
    None
}

/// Whether the raw source line at byte `pos` already applies a checked or
/// clamping operation.
fn line_mitigated(ctx: &FileCtx, pos: usize) -> bool {
    let line = ctx.raw_line(ctx.line_of(pos));
    MITIGATIONS.iter().any(|m| line.contains(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Finding> {
        let ctx = FileCtx::new("crates/smr/src/x.rs", src);
        let mut out = Vec::new();
        l008(&ctx, &mut out);
        out
    }

    #[test]
    fn unchecked_slot_addition_is_flagged() {
        let out = scan("fn f(slot: u64) -> u64 { slot + 1 }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`+`"));
        assert!(out[0].message.contains("`slot`"));
    }

    #[test]
    fn saturating_math_is_clean() {
        let out = scan("fn f(slot: u64) -> u64 { slot.saturating_add(1) }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tracked_value_on_the_right_is_flagged() {
        let out = scan("fn f(base: u64, delta_view: u64) -> u64 { base + delta_view }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`delta_view`"));
    }

    #[test]
    fn trailing_call_names_the_tracked_operand() {
        let out = scan("fn f(v: &[u8]) -> usize { v.len() + 1 }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`len`"));
    }

    #[test]
    fn casts_and_untracked_math_are_clean() {
        let out = scan("fn f(n: u32, x: u64) -> u64 { n as u64 + x }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tuple_field_of_tracked_base_is_flagged() {
        let out = scan("fn f(view: View) -> u64 { view.0 - 1 }");
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn compound_assign_on_tracked_cursor_is_flagged() {
        let out = scan("fn f(&mut self) { self.next_open += 1; }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`+=`"));
    }

    #[test]
    fn min_clamped_line_is_clean() {
        let out = scan("fn f(len: usize) -> usize { (len + 7).min(MAX_LEN) }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let out = scan("#[test]\nfn t() { let slot = 1u64; assert_eq!(slot + 1, 2); }");
        assert!(out.is_empty(), "{out:?}");
    }
}
