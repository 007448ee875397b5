//! A lightweight item/brace-tree parser over the token stream.
//!
//! This is deliberately not a full Rust parser: the rules need exactly two
//! structural facts — *where functions are* (name and body span) and
//! *which of them are test code* — and get them from total, never-failing
//! scans.

use crate::lexer::{is_ident_byte, lex, matching_token, Lexed, TokKind, Token};

/// One `fn` item found in a file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// Inclusive token indices of the body's `{` and `}`; `None` for
    /// bodyless declarations (trait methods without defaults).
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside a test region or a `tests/` file.
    pub is_test: bool,
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
    let mut idx = 0usize;
    while idx < toks.len() {
        let tok = toks[idx];
        if tok.kind != TokKind::Ident || tok.text(src) != "fn" {
            idx += 1;
            continue;
        }
        let item = parse_fn_item(src, toks, idx, tests, path);
        idx = item
            .as_ref()
            .and_then(|f| f.body)
            .map_or(idx + 1, |(open, _)| open + 1);
        items.extend(item);
    }
    items
}

fn parse_fn_item(
    src: &str,
    toks: &[Token],
    fn_idx: usize,
    tests: &[(usize, usize)],
    path: &str,
) -> Option<FnItem> {
    // A `fn` not followed by a name is a pointer type (`fn(u8) -> u8`).
    let name_tok = toks.get(fn_idx + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    // The signature runs to the body `{` or a `;`. Track paren/bracket
    // depth so a `;` inside an array type (`[u8; 4]`) does not end it.
    let mut k = fn_idx + 2;
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
        name: name_tok.text(src).to_string(),
        body,
        is_test: in_test_region || is_test_file(path),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_items_capture_names_bodies_and_test_regions() {
        let src = "impl Wire for SlotMessage {\n\
                   fn encode(&self, out: &mut Vec<u8>) { put(out) }\n\
                   fn decode<R: Read>(r: &mut R) -> Result<[u8; 4], E> { todo() }\n\
                   fn required(&self);\n\
                   }\n\
                   type Callback = fn(u8) -> u8;\n\
                   #[cfg(test)]\nmod tests {\n  fn helper() {}\n}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let items: Vec<_> = ctx
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.body.is_some(), f.is_test))
            .collect();
        assert_eq!(
            items,
            [
                ("encode", true, false),
                ("decode", true, false),
                ("required", false, false),
                ("helper", true, true),
            ]
        );
    }
}
