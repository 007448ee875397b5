//! Index-free shipped code. A mention of values[slot] in a comment or a
//! string literal is masked before any rule runs; array types, array
//! literals, attributes and `vec![…]` are not index expressions; and test
//! regions may index.

pub fn describe() -> &'static str {
    "writing values[slot] here would be bad, but this is just a string"
}

pub fn lookup(values: &[u32], hint: Option<usize>) -> Option<u32> {
    values.get(hint?).copied()
}

#[derive(Default)]
pub struct Header {
    pub tag: [u8; 4],
}

pub fn defaults() -> Vec<[u8; 4]> {
    vec![[0; 4], [1; 4]]
}

#[cfg(test)]
mod tests {
    use super::lookup;

    #[test]
    fn test_regions_tolerate_index_expressions() {
        let values = [7u32, 9];
        assert_eq!(lookup(&values, Some(1)), Some(values[1]));
    }
}
