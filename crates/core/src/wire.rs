//! A hand-rolled binary wire codec.
//!
//! Message sizes drive the paper's communication-complexity results
//! (§3.3), so the workspace uses an explicit, auditable encoding rather
//! than a serializer dependency: fixed-width big-endian integers and
//! length-prefixed byte strings. A `Vec<T>` is a `u64` count followed by
//! the items; an `Option<T>` is a `0` byte, or a `1` byte followed by the
//! value.
//!
//! A message's field order *is* its wire format, and each type states it
//! once: a [`wire_fields!`](crate::wire_fields) declaration writes the
//! type's [`Wire::encode`], [`Wire::wire_len`] and [`Wire::decode`] from
//! one field list, so the byte count the simulator charges cannot drift
//! from the bytes a socket carries. Only what is not a plain field list
//! (a capped count, a flag byte, a vote's optional proof) is written by
//! hand.
//!
//! "What is signed" is exactly "what is sent", and that is enforced, not
//! promised: a signed message is a [`Signed<B>`](crate::signed::Signed)
//! whose signing payload is built in one function, from the body's own
//! [`Wire::encode`] — no type lists its fields a second time for signing.

use crate::config::View;
use probft_crypto::schnorr::{Signature, SIGNATURE_LEN};
use probft_crypto::sha256::{Digest, DIGEST_LEN};
use probft_crypto::vrf::{VrfProof, VRF_PROOF_LEN};
use probft_quorum::ReplicaId;
use std::error::Error;
use std::fmt;
use std::net::SocketAddr;

/// Errors produced while decoding wire bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// A tag byte did not correspond to any known variant.
    UnknownTag(u8),
    /// A length prefix exceeded the configured sanity bound.
    LengthOverflow(u64),
    /// A cryptographic field (key, signature, proof) failed to decode.
    BadCrypto(&'static str),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => f.write_str("unexpected end of input"),
            WireError::UnknownTag(t) => write!(f, "unknown variant tag {t}"),
            WireError::LengthOverflow(l) => write!(f, "length prefix {l} exceeds sanity bound"),
            WireError::BadCrypto(what) => write!(f, "malformed cryptographic field: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl Error for WireError {}

/// Upper bound on any single length prefix (16 MiB), a defence against
/// allocation bombs from malformed input.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// The length of an encoding made of `fields`, each the [`Wire::wire_len`]
/// of a field or the width of a fixed-size one. Saturating: no length sum
/// here is a bare `+` (`clippy::arithmetic_side_effects`, denied at the
/// crate root).
pub fn fields_len(fields: impl IntoIterator<Item = usize>) -> usize {
    fields.into_iter().fold(0, usize::saturating_add)
}

/// Types that can be encoded to and decoded from wire bytes.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError>;

    /// The length of this value's encoding. The default encodes and
    /// counts; every type a simulated run sends computes it from its
    /// fields instead, because the simulator charges each send its bytes
    /// (`Measurable::wire_size`) and never needs the encoding itself.
    fn wire_len(&self) -> usize {
        self.to_wire_bytes().len()
    }

    /// Convenience: the full encoding as a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode from a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or leftover bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(bytes);
        let value = Self::decode(&mut reader)?;
        if reader.remaining() != 0 {
            return Err(WireError::TrailingBytes(reader.remaining()));
        }
        Ok(value)
    }
}

/// Implements [`Wire`] from one list, written as the impl it expands to.
///
/// * A struct, by its fields in wire order:
///   `wire_fields! { impl<V: Wire> Wire for NewLeaderBody<V> { sender, view, … } }`
///   encodes the fields in list order, sums their [`Wire::wire_len`]s with
///   [`fields_len`], and decodes a struct literal in the same order.
/// * An enum, by tag: each variant is the tag byte, then its fields in
///   list order. A variant is a unit (`3 => Noop`), one payload named for
///   the expansion (`2 => Prepare(m)`) or named fields
///   (`1 => Propose { value, high_qc }`); an unlisted tag decodes to
///   [`WireError::UnknownTag`]. One last `_ => Reply` may wrap an enum
///   whose tags are its own: it is encoded as that enum alone, and every
///   tag not listed decodes as it.
#[macro_export]
macro_rules! wire_fields {
    (impl $(<$($g:ident: $bound:path),+>)? Wire for $ty:ident $(<$($p:ident),+>)? {
        $($field:ident),+ $(,)?
    }) => {
        impl $(<$($g: $bound),+>)? $crate::wire::Wire for $ty $(<$($p),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, out);)+
            }
            fn wire_len(&self) -> usize {
                $crate::wire::fields_len([$($crate::wire::Wire::wire_len(&self.$field)),+])
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: $crate::wire::Wire::decode(r)?),+ })
            }
        }
    };
    (impl $(<$($g:ident: $bound:path),+>)? Wire for $ty:ident $(<$($p:ident),+>)? {
        $($tag:literal => $variant:ident $(($one:ident))? $({ $($field:ident),+ $(,)? })?),+
        $(, _ => $inner:ident)? $(,)?
    }) => {
        impl $(<$($g: $bound),+>)? $crate::wire::Wire for $ty $(<$($p),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $(($one))? $({ $($field),+ })? => {
                        out.push($tag);
                        $($crate::wire::Wire::encode($one, out);)?
                        $($($crate::wire::Wire::encode($field, out);)+)?
                    })+
                    $(Self::$inner(v) => $crate::wire::Wire::encode(v, out),)?
                }
            }
            fn wire_len(&self) -> usize {
                match self {
                    $(Self::$variant $(($one))? $({ $($field),+ })? => $crate::wire::fields_len([
                        1 $(, $crate::wire::Wire::wire_len($one))?
                        $($(, $crate::wire::Wire::wire_len($field))+)?
                    ]),)+
                    $(Self::$inner(v) => $crate::wire::Wire::wire_len(v),)?
                }
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                match r.peek()? {
                    $($tag => {
                        r.u8()?;
                        $(let $one = $crate::wire::Wire::decode(r)?;)?
                        $($(let $field = $crate::wire::Wire::decode(r)?;)+)?
                        Ok(Self::$variant $(($one))? $({ $($field),+ })?)
                    })+
                    _ => $crate::wire_fields!(@unlisted r $(, $inner)?),
                }
            }
        }
    };
    (@unlisted $r:ident) => {
        Err($crate::wire::WireError::UnknownTag($r.u8()?))
    };
    (@unlisted $r:ident, $inner:ident) => {
        Ok(Self::$inner($crate::wire::Wire::decode($r)?))
    };
}

/// A cursor over input bytes with bounds-checked primitive reads.
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Reader { input }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    /// Reads exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::UnexpectedEnd);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("length checked"))
    }

    /// The next byte, not consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEnd`] if no byte remains.
    pub fn peek(&self) -> Result<u8, WireError> {
        self.input.first().copied().ok_or(WireError::UnexpectedEnd)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a `u64` length prefix, validating it against [`MAX_LEN`].
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        usize::try_from(len).map_err(|_| WireError::LengthOverflow(len))
    }

    /// Reads a `u32` item count, rejecting one above `max` before a single
    /// item is decoded: the count is attacker-supplied, and a forged one
    /// must buy neither 4 billion decode iterations nor an allocation to
    /// match. Every `u32`-counted collection on the wire takes its count here.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOverflow`] if the count exceeds `max`.
    pub fn count(&mut self, max: u32) -> Result<usize, WireError> {
        let count = self.u32()?;
        if count > max {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        usize::try_from(count).map_err(|_| WireError::LengthOverflow(u64::from(count)))
    }

    /// Reads a length-prefixed byte string.
    pub fn var_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.len_prefix()?;
        self.bytes(len)
    }
}

/// Encoder helpers mirroring [`Reader`].
pub mod put {
    /// Appends a big-endian `u32`.
    pub fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn var_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        u64(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn wire_len(&self) -> usize {
        fields_len(std::iter::once(8).chain(self.iter().map(Wire::wire_len)))
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.len_prefix()?;
        // The count is attacker-supplied: cap the up-front allocation and
        // let reader exhaustion bound the loop.
        let mut items = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
            None => out.push(0),
        }
    }
    fn wire_len(&self) -> usize {
        fields_len([1, self.as_ref().map_or(0, Wire::wire_len)])
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, *self);
    }
    fn wire_len(&self) -> usize {
        8
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u32(out, *self);
    }
    fn wire_len(&self) -> usize {
        4
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

/// Length-prefixed UTF-8.
impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put::var_bytes(out, self.as_bytes());
    }
    fn wire_len(&self) -> usize {
        fields_len([8, self.len()])
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::from_utf8(r.var_bytes()?.to_vec()).map_err(|_| WireError::BadCrypto("utf-8"))
    }
}

/// The address's text form, as a [`String`].
impl Wire for SocketAddr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_string().encode(out);
    }
    fn wire_len(&self) -> usize {
        self.to_string().wire_len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        String::decode(r)?
            .parse()
            .map_err(|_| WireError::BadCrypto("socket address"))
    }
}

impl Wire for ReplicaId {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u32(out, self.0);
    }
    fn wire_len(&self) -> usize {
        4
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaId(r.u32()?))
    }
}

impl Wire for View {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.0);
    }
    fn wire_len(&self) -> usize {
        8
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(View(r.u64()?))
    }
}

impl Wire for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_len(&self) -> usize {
        DIGEST_LEN
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Digest(r.array::<DIGEST_LEN>()?))
    }
}

impl Wire for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
    fn wire_len(&self) -> usize {
        SIGNATURE_LEN
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Signature::from_bytes(r.array::<SIGNATURE_LEN>()?).ok_or(WireError::BadCrypto("signature"))
    }
}

impl Wire for VrfProof {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
    fn wire_len(&self) -> usize {
        VRF_PROOF_LEN
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        VrfProof::from_bytes(r.array::<VRF_PROOF_LEN>()?).ok_or(WireError::BadCrypto("vrf proof"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let mut out = Vec::new();
        out.push(0xAB);
        put::u32(&mut out, 0xDEADBEEF);
        put::u64(&mut out, 42);
        put::var_bytes(&mut out, b"hello");

        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.var_bytes().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);

        let slot = 0x0102_0304_0506_0708_u64;
        assert_eq!(slot.to_wire_bytes(), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(slot.wire_len(), 8);
        assert_eq!(u64::from_wire_bytes(&slot.to_wire_bytes()), Ok(slot));
    }

    #[test]
    fn unexpected_end() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn count_is_checked_against_its_cap() {
        let mut out = Vec::new();
        put::u32(&mut out, 7);
        put::u32(&mut out, 8);
        let mut r = Reader::new(&out);
        assert_eq!(r.count(7), Ok(7));
        assert_eq!(r.count(7), Err(WireError::LengthOverflow(8)));
    }

    #[test]
    fn length_bomb_rejected() {
        let mut out = Vec::new();
        put::u64(&mut out, MAX_LEN + 1);
        let mut r = Reader::new(&out);
        assert_eq!(r.var_bytes(), Err(WireError::LengthOverflow(MAX_LEN + 1)));
    }

    #[test]
    fn truncated_var_bytes() {
        let mut out = Vec::new();
        put::var_bytes(&mut out, b"hello");
        out.truncate(out.len() - 1);
        let mut r = Reader::new(&out);
        assert_eq!(r.var_bytes(), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn error_display() {
        for e in [
            WireError::UnexpectedEnd,
            WireError::UnknownTag(7),
            WireError::LengthOverflow(1 << 40),
            WireError::BadCrypto("signature"),
            WireError::TrailingBytes(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn containers_round_trip_and_reject_bad_framing() {
        let ids = vec![ReplicaId(3), ReplicaId(9)];
        let bytes = ids.to_wire_bytes();
        assert_eq!(bytes.len(), 8 + 2 * 4); // u64 count, then the items
        assert_eq!(Vec::<ReplicaId>::from_wire_bytes(&bytes).unwrap(), ids);
        // A count larger than the data ends the decode, not the process.
        assert_eq!(
            Vec::<ReplicaId>::from_wire_bytes(&MAX_LEN.to_be_bytes()),
            Err(WireError::UnexpectedEnd)
        );
        assert_eq!(
            Vec::<ReplicaId>::from_wire_bytes(&(MAX_LEN + 1).to_be_bytes()),
            Err(WireError::LengthOverflow(MAX_LEN + 1))
        );

        assert_eq!(None::<View>.to_wire_bytes(), [0]);
        for opt in [None, Some(View(7))] {
            assert_eq!(
                Option::<View>::from_wire_bytes(&opt.to_wire_bytes()).unwrap(),
                opt
            );
        }
        assert_eq!(
            Option::<View>::from_wire_bytes(&[2]),
            Err(WireError::UnknownTag(2))
        );
    }

    #[test]
    fn primitives_round_trip() {
        let id = ReplicaId(0xA1B2_C3D4);
        assert_eq!(id.to_wire_bytes(), [0xA1, 0xB2, 0xC3, 0xD4]);
        assert_eq!(ReplicaId::from_wire_bytes(&id.to_wire_bytes()).unwrap(), id);
        assert_eq!(
            View::from_wire_bytes(&View(9).to_wire_bytes()).unwrap(),
            View(9)
        );
        let digest = probft_crypto::sha256::Sha256::digest(b"wire");
        assert_eq!(digest.to_wire_bytes(), digest.as_bytes());
        assert_eq!(Digest::from_wire_bytes(digest.as_bytes()).unwrap(), digest);

        let ring = probft_crypto::keyring::Keyring::generate(1, b"wire-test");
        let sk = ring.signing_key(0).unwrap();
        let sig = sk.sign(b"payload");
        assert_eq!(Signature::from_wire_bytes(&sig.to_bytes()).unwrap(), sig);
        let (_, proof) = probft_crypto::vrf::vrf_prove(sk, b"seed", 2, 4);
        assert_eq!(VrfProof::from_wire_bytes(&proof.to_bytes()).unwrap(), proof);
        // Non-canonical scalars are a codec error, not a panic.
        assert_eq!(
            Signature::from_wire_bytes(&[0xFF; SIGNATURE_LEN]),
            Err(WireError::BadCrypto("signature"))
        );
        assert_eq!(
            VrfProof::from_wire_bytes(&[0xFF; VRF_PROOF_LEN]),
            Err(WireError::BadCrypto("vrf proof"))
        );
    }

    /// Every variant shape the enum arm takes, over two generic parameters.
    #[derive(Debug, PartialEq)]
    enum Shape<A, B> {
        Unit,
        One(A),
        Named { first: A, second: B },
    }

    crate::wire_fields! {
        impl<A: Wire, B: Wire> Wire for Shape<A, B> {
            1 => Unit, 2 => One(v), 5 => Named { first, second }
        }
    }

    /// An enum that hands every tag it does not list to `Shape`.
    #[derive(Debug, PartialEq)]
    enum Outer {
        Own(u64),
        Inner(Shape<u32, u64>),
    }

    crate::wire_fields! { impl Wire for Outer { 3 => Own(v), _ => Inner } }

    /// `value` encodes to `bytes`, `wire_len` counts them, and they decode
    /// back to `value`.
    fn assert_encodes<T: Wire + PartialEq + fmt::Debug>(value: &T, bytes: &[u8]) {
        assert_eq!(value.to_wire_bytes(), bytes);
        assert_eq!(value.wire_len(), bytes.len());
        assert_eq!(T::from_wire_bytes(bytes).as_ref(), Ok(value));
    }

    #[test]
    fn each_variant_shape_is_its_tag_then_its_fields() {
        assert_encodes(&Shape::<u32, u64>::Unit, &[1]);
        assert_encodes(&Shape::<u32, u64>::One(7), &[2, 0, 0, 0, 7]);
        let named = Shape::<u32, u64>::Named {
            first: 1,
            second: 2,
        };
        assert_encodes(&named, &[5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]);

        let unlisted = Shape::<u32, u64>::from_wire_bytes(&[3]);
        assert_eq!(unlisted, Err(WireError::UnknownTag(3)));
        let empty = Shape::<u32, u64>::from_wire_bytes(&[]);
        assert_eq!(empty, Err(WireError::UnexpectedEnd));
        let torn = Shape::<u32, u64>::from_wire_bytes(&[5, 0, 0, 0, 1, 0]);
        assert_eq!(torn, Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn the_pass_through_variant_takes_the_tags_it_owns() {
        assert_encodes(&Outer::Own(9), &[3, 0, 0, 0, 0, 0, 0, 0, 9]);
        // The inner enum is encoded alone: its tag is the outer one.
        assert_encodes(&Outer::Inner(Shape::Unit), &[1]);
        assert_encodes(&Outer::Inner(Shape::One(4)), &[2, 0, 0, 0, 4]);
        // A tag neither enum lists is the inner enum's error.
        assert_eq!(Outer::from_wire_bytes(&[4]), Err(WireError::UnknownTag(4)));
        assert_eq!(Outer::from_wire_bytes(&[]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn strings_and_addresses_round_trip_and_reject_bad_text() {
        assert_encodes(&0xDEAD_BEEF_u32, &[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(
            u32::from_wire_bytes(&[1, 2, 3]),
            Err(WireError::UnexpectedEnd)
        );

        let text = String::from("héllo");
        let mut bytes = 6u64.to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        assert_encodes(&text, &bytes);
        assert_encodes(&String::new(), &[0; 8]);
        let mut bad = 1u64.to_be_bytes().to_vec();
        bad.push(0xFF);
        assert_eq!(
            String::from_wire_bytes(&bad),
            Err(WireError::BadCrypto("utf-8"))
        );

        for addr in ["127.0.0.1:7002", "[::1]:65535"] {
            let parsed: SocketAddr = addr.parse().unwrap();
            assert_eq!(parsed.to_wire_bytes(), String::from(addr).to_wire_bytes());
            assert_encodes(&parsed, &parsed.to_wire_bytes());
        }
        let not_an_addr = String::from("not-an-addr").to_wire_bytes();
        assert_eq!(
            SocketAddr::from_wire_bytes(&not_an_addr),
            Err(WireError::BadCrypto("socket address"))
        );
        assert_eq!(
            SocketAddr::from_wire_bytes(&bad),
            Err(WireError::BadCrypto("utf-8"))
        );
    }

    #[test]
    fn wire_trait_round_trip_and_trailing_detection() {
        #[derive(Debug, PartialEq)]
        struct Pair(u32, u64);
        impl Wire for Pair {
            fn encode(&self, out: &mut Vec<u8>) {
                put::u32(out, self.0);
                put::u64(out, self.1);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Pair(r.u32()?, r.u64()?))
            }
        }
        let p = Pair(7, 9);
        let bytes = p.to_wire_bytes();
        assert_eq!(Pair::from_wire_bytes(&bytes).unwrap(), p);

        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(
            Pair::from_wire_bytes(&extra),
            Err(WireError::TrailingBytes(1))
        );
    }
}
