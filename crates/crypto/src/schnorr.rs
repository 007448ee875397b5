//! Schnorr signatures over the [`group`](crate::group) subgroup.
//!
//! Every ProBFT message is signed by its sender (paper §2.1: "Each replica
//! signs outgoing messages with its private key and only processes an
//! incoming message if the message's signature can be verified"). This
//! module provides the classic Schnorr scheme with Fiat–Shamir challenges
//! and RFC 6979-style deterministic nonces (no RNG at signing time, so the
//! whole system stays reproducible).
//!
//! # Examples
//!
//! ```
//! use probft_crypto::schnorr::SigningKey;
//!
//! let sk = SigningKey::from_seed(b"replica-3");
//! let pk = sk.verifying_key();
//! let sig = sk.sign(b"propose:view=1");
//! assert!(pk.verify(b"propose:view=1", &sig).is_ok());
//! assert!(pk.verify(b"tampered", &sig).is_err());
//! ```

use crate::error::CryptoError;
use crate::group::{GroupElement, Scalar};
use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;
use std::fmt;

/// Domain-separation tag for signature challenges.
const SIG_DOMAIN: &[u8] = b"probft-schnorr-v1";
/// Domain-separation tag for deterministic nonces.
const NONCE_DOMAIN: &[u8] = b"probft-schnorr-nonce-v1";

/// A Schnorr signature `(e, s)` with `e = H(R ‖ pk ‖ m)` and `s = k + e·x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The Fiat–Shamir challenge.
    pub e: Scalar,
    /// The response scalar.
    pub s: Scalar,
}

/// Byte length of an encoded [`Signature`].
pub const SIGNATURE_LEN: usize = 16;

impl Signature {
    /// Encodes the signature as 16 bytes (`e ‖ s`, big-endian).
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..8].copy_from_slice(&self.e.to_bytes());
        out[8..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Decodes a signature, rejecting non-canonical scalar encodings.
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Option<Self> {
        let e = Scalar::from_bytes(bytes[..8].try_into().expect("8 bytes"))?;
        let s = Scalar::from_bytes(bytes[8..].try_into().expect("8 bytes"))?;
        Some(Signature { e, s })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature(e={}, s={})", self.e, self.s)
    }
}

/// A private signing key.
///
/// The `Debug` representation never prints the secret scalar.
#[derive(Clone)]
pub struct SigningKey {
    x: Scalar,
    /// Cached public key `g^x`.
    public: VerifyingKey,
}

impl SigningKey {
    /// Derives a signing key deterministically from seed bytes.
    ///
    /// Key distribution in ProBFT happens before the system starts (§2.1);
    /// deterministic derivation lets tests and simulations reconstruct the
    /// key universe from a run seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        // Hash until nonzero; zero has probability ~2⁻⁶².
        let mut ctr = 0u32;
        loop {
            let d = Sha256::digest_parts(&[b"probft-keygen-v1", seed, &ctr.to_be_bytes()]);
            let x = Scalar::from_digest(d);
            if x != Scalar::ZERO {
                return Self::from_scalar(x);
            }
            ctr += 1;
        }
    }

    /// Builds a key from an explicit nonzero scalar.
    ///
    /// # Panics
    ///
    /// Panics if `x` is zero (the identity public key is invalid).
    pub fn from_scalar(x: Scalar) -> Self {
        assert!(x != Scalar::ZERO, "secret scalar must be nonzero");
        let public = VerifyingKey(GroupElement::generator_pow(x));
        SigningKey { x, public }
    }

    /// Returns the corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// The secret scalar (crate-internal: the VRF prover needs it).
    pub(crate) fn secret(&self) -> Scalar {
        self.x
    }

    /// Derives the deterministic per-message nonce.
    pub(crate) fn nonce_for(&self, domain: &[u8], message: &[u8]) -> Scalar {
        let mut ctr = 0u32;
        loop {
            let tag = hmac_sha256(
                &self.x.to_bytes(),
                &[domain, message, &ctr.to_be_bytes()].concat(),
            );
            let k = Scalar::from_digest(tag);
            if k != Scalar::ZERO {
                return k;
            }
            ctr += 1;
        }
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let k = self.nonce_for(NONCE_DOMAIN, message);
        let r = GroupElement::generator_pow(k);
        let e = challenge(r, self.public, message);
        let s = k + e * self.x;
        Signature { e, s }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningKey(pk={:?})", self.public)
    }
}

/// A public verification key `g^x`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub(crate) GroupElement);

/// Byte length of an encoded [`VerifyingKey`].
pub const VERIFYING_KEY_LEN: usize = 8;

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if the signature does not
    /// verify under this key.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.verify_with(|k| self.0.pow(k), message, signature)
    }

    /// The one Schnorr verification, given how to raise this key to a
    /// power: by [`GroupElement::pow`] for a bare key, from the key's
    /// [`FixedBase`](crate::group::FixedBase) table in a
    /// [`PublicKeyring`](crate::keyring::PublicKeyring).
    pub(crate) fn verify_with(
        &self,
        key_pow: impl Fn(Scalar) -> GroupElement,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        // R' = g^s · y^(−e); accept iff H(R' ‖ y ‖ m) = e.
        let r = GroupElement::generator_pow(signature.s) * key_pow(-signature.e);
        if challenge(r, *self, message) == signature.e {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// The underlying group element.
    pub fn element(&self) -> GroupElement {
        self.0
    }

    /// Encodes the key as 8 bytes.
    pub fn to_bytes(&self) -> [u8; VERIFYING_KEY_LEN] {
        self.0.to_bytes()
    }

    /// Decodes a key, verifying subgroup membership.
    pub fn from_bytes(bytes: [u8; VERIFYING_KEY_LEN]) -> Option<Self> {
        GroupElement::from_bytes(bytes).map(VerifyingKey)
    }
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey({})", self.0)
    }
}

/// Fiat–Shamir challenge `H(domain ‖ R ‖ pk ‖ m)`.
fn challenge(r: GroupElement, pk: VerifyingKey, message: &[u8]) -> Scalar {
    Scalar::from_digest(Sha256::digest_parts(&[
        SIG_DOMAIN,
        &r.to_bytes(),
        &pk.to_bytes(),
        message,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let sk = SigningKey::from_seed(b"replica-0");
        let pk = sk.verifying_key();
        for msg in [b"".as_slice(), b"a", b"propose view=3 val=7"] {
            let sig = sk.sign(msg);
            pk.verify(msg, &sig).expect("valid signature");
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = SigningKey::from_seed(b"replica-1");
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"tampered", &sig),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sk1 = SigningKey::from_seed(b"replica-1");
        let sk2 = SigningKey::from_seed(b"replica-2");
        let sig = sk1.sign(b"msg");
        assert!(sk2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = SigningKey::from_seed(b"replica-1");
        let sig = sk.sign(b"msg");
        let bad = Signature {
            e: sig.e + Scalar::ONE,
            s: sig.s,
        };
        assert!(sk.verifying_key().verify(b"msg", &bad).is_err());
        let bad = Signature {
            e: sig.e,
            s: sig.s + Scalar::ONE,
        };
        assert!(sk.verifying_key().verify(b"msg", &bad).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        let sk = SigningKey::from_seed(b"replica-1");
        assert_eq!(sk.sign(b"m").to_bytes(), sk.sign(b"m").to_bytes());
        assert_ne!(sk.sign(b"m1").to_bytes(), sk.sign(b"m2").to_bytes());
    }

    #[test]
    fn signature_codec_round_trip() {
        let sk = SigningKey::from_seed(b"codec");
        let sig = sk.sign(b"payload");
        let decoded = Signature::from_bytes(sig.to_bytes()).expect("canonical");
        assert_eq!(decoded, sig);
    }

    #[test]
    fn signature_codec_rejects_noncanonical() {
        let mut bytes = [0xFFu8; SIGNATURE_LEN];
        bytes[0] = 0xFF; // e ≥ Q
        assert_eq!(Signature::from_bytes(bytes), None);
    }

    #[test]
    fn verifying_key_codec_round_trip() {
        let pk = SigningKey::from_seed(b"vk").verifying_key();
        assert_eq!(VerifyingKey::from_bytes(pk.to_bytes()), Some(pk));
        assert_eq!(VerifyingKey::from_bytes([0u8; 8]), None);
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = SigningKey::from_seed(b"a").verifying_key();
        let b = SigningKey::from_seed(b"b").verifying_key();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_scalar_key_panics() {
        SigningKey::from_scalar(Scalar::ZERO);
    }
}
