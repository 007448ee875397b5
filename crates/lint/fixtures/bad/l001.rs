// Deliberate L001 bait: the test scans this with a synthetic
// crates/runtime/src/ path. Two index expressions, each a panic on a miss:
// the slice one `clippy::indexing_slicing` would also see, and the
// `BTreeMap` one it does not (`Index` on a map is just a trait method to
// clippy) — the reason this part of L001 stays a textual scan. Never
// compiled — the fixtures directory is neither a cargo target nor part of
// the repo walk.
pub fn lookup(values: &[u32], slot: usize) -> u32 {
    values[slot]
}

pub fn owner(owners: &std::collections::BTreeMap<u64, u32>, slot: u64) -> u32 {
    owners[&slot]
}
