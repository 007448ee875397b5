//! A deterministic counter-mode pseudorandom generator over SHA-256.
//!
//! The VRF turns its pseudorandom output β into a *sample*: a set of `s`
//! distinct replica IDs drawn uniformly without replacement (paper §2.4).
//! That expansion must be deterministic — every verifier must reproduce the
//! identical sample from β — so it cannot use an OS or thread-local RNG.
//! [`Prg`] provides the deterministic stream, and [`sample_distinct`]
//! implements the without-replacement draw via a partial Fisher–Yates
//! shuffle over a plain vector of the population. [`distinct_draws`] is the
//! same shuffle one draw at a time, for a receiver that only needs to know
//! whether *it* is in a sample and can stop at the draw that says so.
//!
//! # Examples
//!
//! ```
//! use probft_crypto::prg::Prg;
//!
//! let mut a = Prg::from_seed(b"seed");
//! let mut b = Prg::from_seed(b"seed");
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

use crate::sha256::{Digest, Sha256};

/// Deterministic byte/integer stream: `block_i = SHA256(seed ‖ i)`.
#[derive(Clone, Debug)]
pub struct Prg {
    seed: Digest,
    counter: u64,
    block: [u8; 32],
    /// Next unread offset within `block`; 32 means "exhausted".
    offset: usize,
}

impl Prg {
    /// Creates a PRG from arbitrary seed bytes (hashed into the state).
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_digest(Sha256::digest_parts(&[b"probft-prg-v1", seed]))
    }

    /// Creates a PRG directly from a digest-sized seed.
    pub fn from_digest(seed: Digest) -> Self {
        Prg {
            seed,
            counter: 0,
            block: [0u8; 32],
            offset: 32,
        }
    }

    fn refill(&mut self) {
        let d = Sha256::digest_parts(&[self.seed.as_bytes(), &self.counter.to_be_bytes()]);
        self.block.copy_from_slice(d.as_bytes());
        self.counter += 1;
        self.offset = 0;
    }

    /// Returns the next pseudorandom byte.
    pub fn next_byte(&mut self) -> u8 {
        if self.offset == 32 {
            self.refill();
        }
        let b = self.block[self.offset];
        self.offset += 1;
        b
    }

    /// Returns the next pseudorandom `u64` (big-endian over 8 stream bytes):
    /// in one read when the block holds them, byte by byte across a block
    /// boundary.
    pub fn next_u64(&mut self) -> u64 {
        if self.offset == self.block.len() {
            self.refill();
        }
        if let Some(word) = self.block[self.offset..].first_chunk::<8>() {
            let word = u64::from_be_bytes(*word);
            self.offset += 8;
            return word;
        }
        let mut bytes = [0u8; 8];
        for b in &mut bytes {
            *b = self.next_byte();
        }
        u64::from_be_bytes(bytes)
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for b in out {
            *b = self.next_byte();
        }
    }

    /// Returns a uniform integer in `[0, bound)` via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection sampling: accept only draws below the largest multiple
        // of `bound`, so the result is exactly uniform.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

/// The draws of a partial Fisher–Yates shuffle of `0..population`, one at a
/// time: the `i`-th item is position `i` of the shuffled order, and it is
/// final the moment it is drawn — later draws swap only later positions. So
/// a caller looking for one value can stop at the draw that produces it,
/// having consumed only the stream bytes those draws needed.
///
/// The shuffle runs over a plain vector of the population (`4·population`
/// bytes, each draw one swap).
///
/// # Panics
///
/// Panics if `count > population`.
pub fn distinct_draws(
    prg: &mut Prg,
    count: usize,
    population: usize,
) -> impl Iterator<Item = u32> + '_ {
    assert!(
        count <= population,
        "cannot draw {count} distinct items from a population of {population}"
    );
    let mut order: Vec<u32> = (0..population as u32).collect();
    (0..count).map(move |i| {
        let j = i + prg.next_below((population - i) as u64) as usize;
        order.swap(i, j);
        order[i]
    })
}

/// Draws `count` distinct values uniformly at random (without replacement)
/// from `0..population`, determined entirely by `prg`'s seed.
///
/// This is the sample-selection step of `VRF_prove` (paper §2.4): the VRF
/// output seeds the PRG, and a partial Fisher–Yates shuffle
/// ([`distinct_draws`], run to its end) yields the recipient sample. The
/// returned IDs are in selection order (callers that need a canonical set
/// should sort).
///
/// # Panics
///
/// Panics if `count > population`.
///
/// # Examples
///
/// ```
/// use probft_crypto::prg::{sample_distinct, Prg};
///
/// let sample = sample_distinct(&mut Prg::from_seed(b"s"), 10, 100);
/// assert_eq!(sample.len(), 10);
/// let mut sorted = sample.clone();
/// sorted.sort_unstable();
/// sorted.dedup();
/// assert_eq!(sorted.len(), 10, "all distinct");
/// ```
pub fn sample_distinct(prg: &mut Prg, count: usize, population: usize) -> Vec<u32> {
    distinct_draws(prg, count, population).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Prg::from_seed(b"alpha");
        let mut b = Prg::from_seed(b"alpha");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_u64_is_eight_next_bytes_at_every_offset() {
        for skip in 0..=72 {
            let (mut words, mut bytes) = (Prg::from_seed(b"offsets"), Prg::from_seed(b"offsets"));
            for _ in 0..skip {
                assert_eq!(words.next_byte(), bytes.next_byte());
            }
            // Enough words to cross two block boundaries from any offset.
            for _ in 0..10 {
                let expected = u64::from_be_bytes(std::array::from_fn(|_| bytes.next_byte()));
                assert_eq!(words.next_u64(), expected, "after {skip} bytes");
            }
            assert_eq!(words.next_byte(), bytes.next_byte());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prg::from_seed(b"alpha");
        let mut b = Prg::from_seed(b"beta");
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn next_below_in_range() {
        let mut prg = Prg::from_seed(b"range");
        for bound in [1u64, 2, 3, 7, 10, 100, 1 << 20, u64::MAX / 2 + 1] {
            for _ in 0..50 {
                assert!(prg.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Prg::from_seed(b"x").next_below(0);
    }

    #[test]
    fn next_below_roughly_uniform() {
        let mut prg = Prg::from_seed(b"uniformity");
        let mut counts = [0usize; 10];
        let draws = 20_000;
        for _ in 0..draws {
            counts[prg.next_below(10) as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            let expected = draws / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 5) as u64,
                "value {v} count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn sample_distinct_properties() {
        let mut prg = Prg::from_seed(b"sample");
        for (count, population) in [(0, 10), (1, 1), (5, 5), (10, 100), (64, 400)] {
            let s = sample_distinct(&mut prg, count, population);
            assert_eq!(s.len(), count);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), count, "distinct for ({count},{population})");
            assert!(s.iter().all(|&x| (x as usize) < population));
        }
    }

    #[test]
    fn sample_full_population_is_permutation() {
        let mut prg = Prg::from_seed(b"perm");
        let mut s = sample_distinct(&mut prg, 50, 50);
        s.sort_unstable();
        let expected: Vec<u32> = (0..50).collect();
        assert_eq!(s, expected);
    }

    #[test]
    fn sample_is_deterministic_for_seed() {
        let a = sample_distinct(&mut Prg::from_seed(b"d"), 20, 200);
        let b = sample_distinct(&mut Prg::from_seed(b"d"), 20, 200);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn oversample_panics() {
        sample_distinct(&mut Prg::from_seed(b"x"), 11, 10);
    }

    #[test]
    fn sample_inclusion_roughly_uniform() {
        // Each of n items should appear in a size-s sample with prob s/n.
        let n = 50usize;
        let s = 10usize;
        let trials = 4000;
        let mut counts = vec![0usize; n];
        for t in 0..trials {
            let mut prg = Prg::from_seed(format!("trial-{t}").as_bytes());
            for id in sample_distinct(&mut prg, s, n) {
                counts[id as usize] += 1;
            }
        }
        let expected = trials * s / n;
        for (id, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expected as i64).abs() < (expected as i64) / 2,
                "id {id}: {c} vs expected {expected}"
            );
        }
    }
}
