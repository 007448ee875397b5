//! What the workspace's source checks share — `tests/levels.rs`, which pins
//! the lint levels, and `tests/scan.rs`, the rules no lint can state: a copy
//! of a file with comments and literal contents blanked, and a bracket
//! matcher to walk it with.

/// `src` with its comments (block comments unnested) and the contents of its
/// string, char and byte literals blanked. Newlines and byte offsets are kept, so
/// a position in the copy is the same position in `src`.
pub fn mask_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        let after_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        let char_literal = src.get(i + 1..).and_then(|s| s.chars().nth(1)) == Some('\'');
        // (blanking starts at, the closing delimiter, escapes honoured, is a comment)
        let (from, close, escapes, comment) = match (b[i], b.get(i + 1)) {
            (b'/', Some(b'/')) => (i, b"\n".to_vec(), false, true),
            (b'/', Some(b'*')) => (i, b"*/".to_vec(), false, true),
            (b'r', _) if b.get(i + 1 + hashes) == Some(&b'"') && !after_ident => {
                let close = [&b"\""[..], &vec![b'#'; hashes]].concat();
                (i + 2 + hashes, close, false, false)
            }
            (b'"', _) => (i + 1, b"\"".to_vec(), true, false),
            (b'\'', Some(b'\\')) => (i + 1, b"'".to_vec(), true, false),
            (b'\'', _) if char_literal => (i + 1, b"'".to_vec(), true, false),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut end = if comment { i + 2 } else { from };
        while end < b.len() && !b[end..].starts_with(&close) {
            end += if escapes && b[end] == b'\\' { 2 } else { 1 };
        }
        let end = end.min(b.len());
        let to = if comment { end + close.len() } else { end };
        let blank = |c: &mut u8| *c = if *c == b'\n' { b'\n' } else { b' ' };
        out[from..to.min(b.len())].iter_mut().for_each(blank);
        i = end + close.len();
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The index of the `closer` that matches the `opener` at `open`.
pub fn matching_byte(bytes: &[u8], open: usize, opener: u8, closer: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        if c == opener {
            depth += 1;
        } else if c == closer {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}
