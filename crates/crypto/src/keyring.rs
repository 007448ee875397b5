//! Key management for a fixed replica population.
//!
//! ProBFT assumes "the distribution of keys is performed before the system
//! starts" (§2.1). [`Keyring`] models that public-key infrastructure: it
//! derives the full key universe for `n` replicas from a run seed, hands
//! each replica its own [`SigningKey`], and lets anyone look up any
//! replica's [`VerifyingKey`].
//!
//! # Examples
//!
//! ```
//! use probft_crypto::keyring::Keyring;
//!
//! let ring = Keyring::generate(4, b"run-seed");
//! let sk = ring.signing_key(2).unwrap();
//! let sig = sk.sign(b"hello");
//! assert!(ring.verifying_key(2).unwrap().verify(b"hello", &sig).is_ok());
//! ```

use crate::error::CryptoError;
use crate::group::FixedBase;
use crate::schnorr::{Signature, SigningKey, VerifyingKey};
use crate::vrf::{dleq_check, VrfProof};

/// The pre-distributed keys of a replica population of size `n`.
///
/// Replicas are indexed `0..n`. (The paper numbers replicas `1..=n` in its
/// `leader(v)` predicate; the protocol crate maps between the conventions.)
#[derive(Clone, Debug)]
pub struct Keyring {
    signing: Vec<SigningKey>,
    verifying: Vec<VerifyingKey>,
}

impl Keyring {
    /// Generates keys for `n` replicas deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn generate(n: usize, seed: &[u8]) -> Self {
        assert!(n > 0, "population must be nonempty");
        let signing: Vec<SigningKey> = (0..n)
            .map(|i| {
                let mut material = seed.to_vec();
                material.extend_from_slice(b"|replica|");
                material.extend_from_slice(&(i as u64).to_be_bytes());
                SigningKey::from_seed(&material)
            })
            .collect();
        let verifying = signing.iter().map(|sk| sk.verifying_key()).collect();
        Keyring { signing, verifying }
    }

    /// The population size `n`.
    pub fn len(&self) -> usize {
        self.signing.len()
    }

    /// Whether the keyring is empty (never true for generated rings).
    pub fn is_empty(&self) -> bool {
        self.signing.is_empty()
    }

    /// The signing key of replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownReplica`] if `i` is out of range.
    pub fn signing_key(&self, i: usize) -> Result<&SigningKey, CryptoError> {
        self.signing.get(i).ok_or(CryptoError::UnknownReplica(i))
    }

    /// The verifying key of replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownReplica`] if `i` is out of range.
    pub fn verifying_key(&self, i: usize) -> Result<&VerifyingKey, CryptoError> {
        self.verifying.get(i).ok_or(CryptoError::UnknownReplica(i))
    }

    /// All verifying keys, indexed by replica.
    pub fn verifying_keys(&self) -> &[VerifyingKey] {
        &self.verifying
    }

    /// A public-only view of the keyring (what a verifier-only party holds).
    pub fn public(&self) -> PublicKeyring {
        PublicKeyring::new(self.verifying.clone())
    }
}

/// A verifying key with its [`FixedBase`] table: what a [`PublicKeyring`]
/// holds per replica, so that the `y^(−e)` of a signature check and the
/// `y^(−c)` of a VRF check take 15 multiplications instead of some 90. It
/// accepts and rejects exactly what the bare [`VerifyingKey::verify`] and
/// [`vrf_check`](crate::vrf::vrf_check) do: both run the one verification
/// body, which is handed how to compute `y^k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TabledKey {
    key: VerifyingKey,
    powers: FixedBase,
}

impl TabledKey {
    /// The table of `key` (256 multiplications, 2 KiB).
    pub fn new(key: VerifyingKey) -> Self {
        TabledKey {
            key,
            powers: FixedBase::new(key.element()),
        }
    }

    /// The key itself.
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }

    /// [`VerifyingKey::verify`], with `y^(−e)` from the table.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if the signature does not
    /// verify under this key.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.key
            .verify_with(|k| self.powers.pow(k), message, signature)
    }

    /// [`vrf_check`](crate::vrf::vrf_check), with `y^(−c)` from the table.
    pub fn vrf_check(&self, seed: &[u8], proof: &VrfProof) -> bool {
        dleq_check(&self.key, |k| self.powers.pow(k), seed, proof)
    }
}

/// The public half of a [`Keyring`]: every replica's verifying key, each
/// with its [`FixedBase`] table (2 KiB a key, built once; share the ring
/// behind an `Arc`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKeyring {
    keys: Vec<TabledKey>,
}

impl PublicKeyring {
    /// Builds a public keyring from an explicit key list, with one table
    /// per key.
    pub fn new(verifying: Vec<VerifyingKey>) -> Self {
        PublicKeyring {
            keys: verifying.into_iter().map(TabledKey::new).collect(),
        }
    }

    /// The population size `n`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The verifying key of replica `i`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownReplica`] if `i` is out of range.
    pub fn verifying_key(&self, i: usize) -> Result<&VerifyingKey, CryptoError> {
        self.tabled_key(i).map(TabledKey::key)
    }

    /// The verifying key of replica `i` with its table: what to verify a
    /// signature or a VRF proof of replica `i` against.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownReplica`] if `i` is out of range.
    pub fn tabled_key(&self, i: usize) -> Result<&TabledKey, CryptoError> {
        self.keys.get(i).ok_or(CryptoError::UnknownReplica(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Scalar;
    use crate::vrf::{vrf_check, vrf_prove};

    #[test]
    fn deterministic_generation() {
        let a = Keyring::generate(5, b"seed");
        let b = Keyring::generate(5, b"seed");
        for i in 0..5 {
            assert_eq!(a.verifying_key(i).unwrap(), b.verifying_key(i).unwrap());
        }
    }

    #[test]
    fn distinct_replicas_distinct_keys() {
        let ring = Keyring::generate(10, b"seed");
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_ne!(
                    ring.verifying_key(i).unwrap(),
                    ring.verifying_key(j).unwrap(),
                    "replicas {i} and {j} share a key"
                );
            }
        }
    }

    #[test]
    fn distinct_seeds_distinct_universes() {
        let a = Keyring::generate(3, b"seed-a");
        let b = Keyring::generate(3, b"seed-b");
        assert_ne!(a.verifying_key(0).unwrap(), b.verifying_key(0).unwrap());
    }

    #[test]
    fn out_of_range_is_error() {
        let ring = Keyring::generate(3, b"seed");
        assert_eq!(
            ring.signing_key(3).err(),
            Some(CryptoError::UnknownReplica(3))
        );
        assert_eq!(
            ring.verifying_key(99).err(),
            Some(CryptoError::UnknownReplica(99))
        );
    }

    #[test]
    fn cross_replica_verification() {
        let ring = Keyring::generate(4, b"seed");
        let sig = ring.signing_key(1).unwrap().sign(b"msg");
        assert!(ring.verifying_key(1).unwrap().verify(b"msg", &sig).is_ok());
        assert!(ring.verifying_key(2).unwrap().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn public_view_matches() {
        let ring = Keyring::generate(4, b"seed");
        let public = ring.public();
        assert_eq!(public.len(), 4);
        for i in 0..4 {
            assert_eq!(
                public.verifying_key(i).unwrap(),
                ring.verifying_key(i).unwrap()
            );
        }
    }

    #[test]
    fn tabled_keys_accept_and_reject_what_bare_keys_do() {
        let ring = Keyring::generate(2, b"tables");
        let public = ring.public();
        let (sk, other) = (ring.signing_key(0).unwrap(), ring.signing_key(1).unwrap());

        let sig = sk.sign(b"msg");
        let signatures = [
            sig,
            Signature {
                e: sig.e + Scalar::ONE,
                ..sig
            },
            Signature {
                s: sig.s + Scalar::ONE,
                ..sig
            },
            other.sign(b"msg"),
        ];
        let (_, proof) = vrf_prove(sk, b"seed", 5, 10);
        let proofs = [
            proof,
            VrfProof {
                c: proof.c + Scalar::ONE,
                ..proof
            },
            VrfProof {
                s: proof.s + Scalar::ONE,
                ..proof
            },
            VrfProof {
                gamma: vrf_prove(other, b"seed", 5, 10).1.gamma,
                ..proof
            },
        ];

        let mut accepted = Vec::new();
        for i in 0..2 {
            let (tabled, bare) = (
                public.tabled_key(i).unwrap(),
                ring.verifying_key(i).unwrap(),
            );
            assert_eq!(tabled.key(), bare);
            for (j, signature) in signatures.iter().enumerate() {
                for message in [b"msg".as_slice(), b"other"] {
                    let verdict = tabled.verify(message, signature);
                    assert_eq!(verdict, bare.verify(message, signature), "key {i}, sig {j}");
                    if verdict.is_ok() {
                        accepted.push(("sig", i, j));
                    }
                }
            }
            for (j, proof) in proofs.iter().enumerate() {
                for seed in [b"seed".as_slice(), b"wrong"] {
                    let verdict = tabled.vrf_check(seed, proof);
                    assert_eq!(verdict, vrf_check(bare, seed, proof), "key {i}, proof {j}");
                    if verdict {
                        accepted.push(("vrf", i, j));
                    }
                }
            }
        }
        // Only the genuine pairs pass: each signature under its signer's key
        // on its message, the untampered proof under its key and seed.
        assert_eq!(accepted, [("sig", 0, 0), ("vrf", 0, 0), ("sig", 1, 3)]);
    }

    #[test]
    #[should_panic(expected = "population must be nonempty")]
    fn empty_population_panics() {
        Keyring::generate(0, b"seed");
    }
}
