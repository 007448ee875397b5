//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! This is the only hash primitive in the workspace; signatures, the VRF,
//! message digests, and the deterministic PRG are all built on top of it.
//! The padding and buffering are a straightforward, allocation-free
//! translation of the specification. The compression function runs on the
//! CPU's SHA instructions when it has them (`vendor/sha_ni`, detected at
//! run time, one documented `unsafe` block) and otherwise as the portable
//! rounds below — the same bits either way: a proptest compares the two on
//! random states and blocks, and digests of every length up to 200 bytes
//! against a portable-only reference. A vote's dozen compressions are most
//! of what hashing costs a receiver, so the choice shows (DESIGN.md, "What
//! receiving a vote costs"). The NIST test vectors are in this module's
//! tests.
//!
//! # Examples
//!
//! ```
//! use probft_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::fmt;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in a SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
///
/// Digests order lexicographically (`Ord`), which the protocol layer uses to
/// break ties deterministically (e.g. the `mode{}` tie-break in the leader's
/// proposal-selection rule).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Interprets the first 8 bytes as a big-endian `u64`.
    ///
    /// Used to derive integer seeds (e.g. for the sampling PRG) from hashes.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest is 32 bytes"))
    }

    /// Parses a digest from lowercase or uppercase hex.
    ///
    /// Returns `None` if the input is not exactly 64 hex characters.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use probft_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial input block awaiting compression.
    buffer: [u8; BLOCK_LEN],
    /// Number of valid bytes in `buffer`.
    buffered: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buffered", &self.buffered)
            .finish()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte strings.
    ///
    /// Equivalent to updating with each part in order; provided because the
    /// protocol layer frequently hashes domain-tag + payload pairs.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Appends `data` to the message being hashed.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partial buffer first.
        if self.buffered > 0 {
            let want = BLOCK_LEN - self.buffered;
            let take = want.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_LEN {
                let block = self.buffer;
                compress(&mut self.state, &block);
                self.buffered = 0;
            }
        }

        // Whole blocks straight from the input.
        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            let block: [u8; BLOCK_LEN] = block.try_into().expect("split_at gives BLOCK_LEN");
            compress(&mut self.state, &block);
            input = rest;
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Consumes the hasher and returns the digest of all data seen so far.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        let pad_len = if self.buffered < 56 {
            56 - self.buffered
        } else {
            BLOCK_LEN + 56 - self.buffered
        };
        pad[0] = 0x80;
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_padding(&pad[..pad_len + 8]);

        output(self.state)
    }

    /// The digest of a message short enough (at most 55 bytes) to fit one
    /// block with its padding, handed over already padded:
    /// `message ‖ 0x80 ‖ 0… ‖ bit length`. One compression from the initial
    /// state, with no buffering — what [`Prg`](crate::prg::Prg) hashes each
    /// block of its stream with.
    pub(crate) fn digest_padded_block(block: &[u8; BLOCK_LEN]) -> Digest {
        let mut state = H0;
        compress(&mut state, block);
        output(state)
    }

    /// Like `update`, but does not advance `total_len` (padding is not part
    /// of the message).
    fn update_padding(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }
}

/// The SHA-256 compression function applied to one 64-byte block: on the
/// CPU's SHA instructions when it has them ([`sha_ni::compress`]), else by
/// [`compress_portable`].
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    if !sha_ni::compress(state, block) {
        compress_portable(state, block);
    }
}

/// The digest a final state encodes: its words, big-endian.
fn output(state: [u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// The compression function as FIPS 180-4 §6.2.2 writes it: what every
/// digest computes on a CPU without the SHA extensions, and the reference
/// the hardware path is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// NIST FIPS 180-4 / common reference vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(&Sha256::digest(input).to_hex(), expected, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 vector: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise padding around the 55/56/63/64 byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xA5u8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {len}");
        }
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let a = b"view:7|".as_slice();
        let b = b"prepare".as_slice();
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(&concat));
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }

    #[test]
    fn to_u64_is_big_endian_prefix() {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&0x0102030405060708u64.to_be_bytes());
        assert_eq!(Digest(bytes).to_u64(), 0x0102030405060708);
    }

    /// SHA-256 with no hardware: FIPS 180-4's padding written out, and
    /// every block through [`compress_portable`].
    fn portable_digest(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(BLOCK_LEN) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        output(state)
    }

    #[test]
    fn a_padded_block_digests_as_its_message_at_every_length_that_fits() {
        let data: Vec<u8> = (0..56u8).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..=55 {
            let mut block = [0u8; BLOCK_LEN];
            block[..len].copy_from_slice(&data[..len]);
            block[len] = 0x80;
            block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
            assert_eq!(
                Sha256::digest_padded_block(&block),
                Sha256::digest(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn digest_matches_the_portable_path_at_every_length() {
        let data: Vec<u8> = (0..=200u16).map(|i| (i * 7 % 256) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                Sha256::digest(&data[..len]),
                portable_digest(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Where the CPU has the SHA extensions, they compute the portable
        /// rounds' result on any state and block; where it has not, the
        /// hardware path declines and leaves the state alone.
        #[test]
        fn hardware_compression_matches_the_portable_rounds(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            block in proptest::collection::vec(any::<u8>(), BLOCK_LEN..BLOCK_LEN + 1),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; BLOCK_LEN] = block.try_into().unwrap();
            let (mut hardware, mut portable) = (state, state);
            compress_portable(&mut portable, &block);
            if sha_ni::compress(&mut hardware, &block) {
                prop_assert_eq!(hardware, portable);
            } else {
                prop_assert_eq!(hardware, state);
            }
        }
    }

    #[test]
    fn debug_display_nonempty() {
        let d = Digest::default();
        assert!(!format!("{d:?}").is_empty());
        assert_eq!(format!("{d}").len(), 64);
    }
}
