//! A verifiable random function with verifiable sample selection.
//!
//! This implements the two operations ProBFT requires of its globally known
//! VRF (paper §2.4):
//!
//! - [`vrf_prove`]`(sk, z, s, n) → (S, P)`: selects a sample `S` of `s`
//!   distinct replica IDs from a population of `n`, uniformly at random but
//!   *deterministically in the prover's key and the seed `z`*, together with
//!   a proof `P`.
//! - [`vrf_verify`]`(pk, z, s, n, S, P) → bool`: checks that `S` is exactly
//!   the sample `vrf_prove` yields for those parameters. It is the
//!   composition of [`vrf_check`] (is `P` the prover's proof for `z`?) and
//!   [`expand_sample`] (which sample does `P` determine?), which a verifier
//!   holding only the proof calls separately — or, when all it wants to know
//!   is whether it is in that sample itself, [`sample_contains`].
//!
//! The construction is ECVRF-shaped, instantiated over the workspace's
//! Schnorr group: the prover computes `Γ = H2G(z)^x` and a Chaum–Pedersen
//! DLEQ proof that `log_g(y) = log_{H2G(z)}(Γ)`; the pseudorandom output is
//! `β = H(Γ)`, which seeds a Fisher–Yates draw of the sample. This yields the
//! paper's three required properties at simulation security level:
//!
//! - **Uniqueness** — `Γ` is a deterministic function of `(sk, z)` and the
//!   DLEQ proof is sound, so no prover can exhibit two different valid
//!   samples for the same `(pk, z, s)`.
//! - **Collision resistance** — finding `z ≠ z′` with equal samples requires
//!   a collision in SHA-256 (through `H2G`/`β`).
//! - **Pseudorandomness** — without the proof, `β` is indistinguishable from
//!   random under DDH in the group.
//!
//! # Examples
//!
//! ```
//! use probft_crypto::schnorr::SigningKey;
//! use probft_crypto::vrf::{vrf_prove, vrf_verify};
//!
//! let sk = SigningKey::from_seed(b"replica-7");
//! let (sample, proof) = vrf_prove(&sk, b"42|prepare", 20, 100);
//! assert_eq!(sample.len(), 20);
//! assert!(vrf_verify(&sk.verifying_key(), b"42|prepare", 20, 100, &sample, &proof));
//! ```

use crate::group::{GroupElement, Scalar};
use crate::prg::{distinct_draws, Prg};
use crate::schnorr::{SigningKey, VerifyingKey};
use crate::sha256::{Digest, Sha256};
use std::fmt;

/// Domain tag for the DLEQ challenge.
const VRF_DOMAIN: &[u8] = b"probft-vrf-v1";
/// Domain tag for deterministic DLEQ nonces.
const VRF_NONCE_DOMAIN: &[u8] = b"probft-vrf-nonce-v1";
/// Domain tag for the β output hash.
const VRF_OUTPUT_DOMAIN: &[u8] = b"probft-vrf-out-v1";

/// A VRF proof: the gamma point `Γ = H2G(z)^x` plus a DLEQ proof `(c, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VrfProof {
    /// `Γ = H2G(z)^sk` — determines the pseudorandom output.
    pub gamma: GroupElement,
    /// DLEQ challenge.
    pub c: Scalar,
    /// DLEQ response.
    pub s: Scalar,
}

/// Byte length of an encoded [`VrfProof`].
pub const VRF_PROOF_LEN: usize = 24;

impl VrfProof {
    /// Encodes the proof as 24 bytes (`Γ ‖ c ‖ s`).
    pub fn to_bytes(&self) -> [u8; VRF_PROOF_LEN] {
        let mut out = [0u8; VRF_PROOF_LEN];
        out[..8].copy_from_slice(&self.gamma.to_bytes());
        out[8..16].copy_from_slice(&self.c.to_bytes());
        out[16..].copy_from_slice(&self.s.to_bytes());
        out
    }

    /// Decodes a proof, rejecting malformed group/scalar encodings.
    pub fn from_bytes(bytes: [u8; VRF_PROOF_LEN]) -> Option<Self> {
        let gamma = GroupElement::from_bytes(bytes[..8].try_into().expect("8 bytes"))?;
        let c = Scalar::from_bytes(bytes[8..16].try_into().expect("8 bytes"))?;
        let s = Scalar::from_bytes(bytes[16..].try_into().expect("8 bytes"))?;
        Some(VrfProof { gamma, c, s })
    }

    /// The pseudorandom output β = H(Γ) this proof commits to.
    pub fn output(&self) -> Digest {
        Sha256::digest_parts(&[VRF_OUTPUT_DOMAIN, &self.gamma.to_bytes()])
    }

    /// The deterministic stream β seeds, which the sample is drawn from.
    fn stream(&self) -> Prg {
        Prg::from_digest(self.output())
    }
}

impl fmt::Debug for VrfProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VrfProof(Γ={}, c={}, s={})", self.gamma, self.c, self.s)
    }
}

/// `VRF_prove(K_p, z, s) ⇒ (S, P)` — paper §2.4.
///
/// Returns a sample of `sample_size` distinct replica IDs in `[0, n)`,
/// selected uniformly at random (determined by the private key and seed),
/// plus the proof that binds the sample to `(pk, z)`.
///
/// # Panics
///
/// Panics if `sample_size > n` (cannot draw more distinct IDs than exist).
pub fn vrf_prove(
    sk: &SigningKey,
    seed: &[u8],
    sample_size: usize,
    n: usize,
) -> (Vec<u32>, VrfProof) {
    let h = GroupElement::hash_to_group(seed);
    let x = sk.secret();
    let gamma = h.pow(x);

    // Chaum–Pedersen DLEQ: prove log_g(y) = log_h(Γ) without revealing x.
    let k = sk.nonce_for(VRF_NONCE_DOMAIN, seed);
    let u = GroupElement::generator_pow(k);
    let v = h.pow(k);
    let c = dleq_challenge(h, sk.verifying_key(), gamma, u, v);
    let s = k + c * x;

    let proof = VrfProof { gamma, c, s };
    let sample = expand_sample(&proof, sample_size, n);
    (sample, proof)
}

/// `VRF_verify(K_u, z, s, S, P) ⇒ bool` — paper §2.4.
///
/// Checks the DLEQ proof against the seed and public key ([`vrf_check`]),
/// recomputes the sample from the proof's output ([`expand_sample`]), and
/// compares it to `sample`.
pub fn vrf_verify(
    pk: &VerifyingKey,
    seed: &[u8],
    sample_size: usize,
    n: usize,
    sample: &[u32],
    proof: &VrfProof,
) -> bool {
    sample.len() == sample_size
        && sample_size <= n
        && vrf_check(pk, seed, proof)
        && expand_sample(proof, sample_size, n) == sample
}

/// The DLEQ half of [`vrf_verify`]: whether `proof` is the one proof the
/// owner of `pk` can produce for `seed`.
///
/// A proof that passes determines its sample — `expand_sample(proof, s, n)`
/// — so a verifier that is handed no sample to compare against (a ProBFT
/// vote ships only the proof) checks this and expands the proof itself.
pub fn vrf_check(pk: &VerifyingKey, seed: &[u8], proof: &VrfProof) -> bool {
    dleq_check(pk, |k| pk.element().pow(k), seed, proof)
}

/// The one DLEQ check, given how to raise the prover's key to a power: by
/// [`GroupElement::pow`] for a bare key ([`vrf_check`]), from the key's
/// [`FixedBase`](crate::group::FixedBase) table in a
/// [`PublicKeyring`](crate::keyring::PublicKeyring).
pub(crate) fn dleq_check(
    pk: &VerifyingKey,
    key_pow: impl Fn(Scalar) -> GroupElement,
    seed: &[u8],
    proof: &VrfProof,
) -> bool {
    let h = GroupElement::hash_to_group(seed);
    // u' = g^s · y^(−c), v' = h^s · Γ^(−c)
    let u = GroupElement::generator_pow(proof.s) * key_pow(-proof.c);
    let v = GroupElement::double_pow(h, proof.s, proof.gamma, -proof.c);
    dleq_challenge(h, *pk, proof.gamma, u, v) == proof.c
}

/// Expands a proof's pseudorandom output into the recipient sample.
///
/// Exposed so analysis code can reproduce sampling without a full keypair.
pub fn expand_sample(proof: &VrfProof, sample_size: usize, n: usize) -> Vec<u32> {
    distinct_draws(&mut proof.stream(), sample_size, n).collect()
}

/// Whether `id` is in [`expand_sample`]`(proof, sample_size, n)` — what a
/// receiver of a vote asks about itself. Draws only as far as the draw that
/// picks `id`, so a member found at position `i` costs the `i + 1` draws
/// (and the hash blocks behind them) that fix it, and no list is built.
pub fn sample_contains(proof: &VrfProof, sample_size: usize, n: usize, id: u32) -> bool {
    distinct_draws(&mut proof.stream(), sample_size, n).any(|drawn| drawn == id)
}

/// The Fiat–Shamir challenge over the full DLEQ transcript.
fn dleq_challenge(
    h: GroupElement,
    pk: VerifyingKey,
    gamma: GroupElement,
    u: GroupElement,
    v: GroupElement,
) -> Scalar {
    Scalar::from_digest(Sha256::digest_parts(&[
        VRF_DOMAIN,
        &GroupElement::generator().to_bytes(),
        &h.to_bytes(),
        &pk.to_bytes(),
        &gamma.to_bytes(),
        &u.to_bytes(),
        &v.to_bytes(),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Early-exit membership is membership in the expanded sample, for
        /// every id of the population (and one beyond it), whatever the
        /// proof and sizes — `s = 0`, `s = n` and `n = 1` included.
        #[test]
        fn sample_contains_is_membership_in_the_expanded_sample(
            gamma in any::<u64>(),
            n in 1usize..130,
            s in 0usize..130,
        ) {
            let s = s % (n + 1);
            // Only Γ enters the expansion; any element serves as one.
            let proof = VrfProof {
                gamma: GroupElement::hash_to_group(&gamma.to_be_bytes()),
                c: Scalar::ONE,
                s: Scalar::ONE,
            };
            let sample = expand_sample(&proof, s, n);
            prop_assert_eq!(sample.len(), s);
            for id in 0..=n as u32 {
                prop_assert_eq!(sample_contains(&proof, s, n, id), sample.contains(&id));
            }
        }
    }

    fn key(i: u32) -> SigningKey {
        SigningKey::from_seed(format!("vrf-test-{i}").as_bytes())
    }

    #[test]
    fn prove_verify_round_trip() {
        let sk = key(0);
        let (sample, proof) = vrf_prove(&sk, b"1|prepare", 20, 100);
        assert!(vrf_verify(
            &sk.verifying_key(),
            b"1|prepare",
            20,
            100,
            &sample,
            &proof
        ));
    }

    #[test]
    fn sample_is_deterministic() {
        let sk = key(1);
        let (s1, p1) = vrf_prove(&sk, b"seed", 10, 50);
        let (s2, p2) = vrf_prove(&sk, b"seed", 10, 50);
        assert_eq!(s1, s2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn different_seeds_give_different_samples() {
        let sk = key(2);
        let (prep, _) = vrf_prove(&sk, b"7|prepare", 20, 200);
        let (comm, _) = vrf_prove(&sk, b"7|commit", 20, 200);
        assert_ne!(prep, comm, "phase tag must change the sample");
    }

    #[test]
    fn different_keys_give_different_samples() {
        let (a, _) = vrf_prove(&key(3), b"z", 20, 200);
        let (b, _) = vrf_prove(&key(4), b"z", 20, 200);
        assert_ne!(a, b);
    }

    #[test]
    fn sample_ids_distinct_and_in_range() {
        let (sample, _) = vrf_prove(&key(5), b"z", 34, 100);
        assert_eq!(sample.len(), 34);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 34);
        assert!(sample.iter().all(|&id| id < 100));
    }

    #[test]
    fn verify_rejects_wrong_seed() {
        let sk = key(6);
        let (sample, proof) = vrf_prove(&sk, b"right", 10, 50);
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"wrong",
            10,
            50,
            &sample,
            &proof
        ));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let (sample, proof) = vrf_prove(&key(7), b"z", 10, 50);
        assert!(!vrf_verify(
            &key(8).verifying_key(),
            b"z",
            10,
            50,
            &sample,
            &proof
        ));
    }

    #[test]
    fn verify_rejects_forged_sample() {
        // A Byzantine replica cannot claim a sample it likes: any deviation
        // from the proof-determined sample is rejected.
        let sk = key(9);
        let (mut sample, proof) = vrf_prove(&sk, b"z", 10, 50);
        // Swap one member for an id not in the sample.
        let outsider = (0..50u32)
            .find(|id| !sample.contains(id))
            .expect("population larger than sample");
        sample[0] = outsider;
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            10,
            50,
            &sample,
            &proof
        ));
    }

    #[test]
    fn verify_rejects_reordered_sample() {
        let sk = key(10);
        let (mut sample, proof) = vrf_prove(&sk, b"z", 10, 50);
        sample.swap(0, 1);
        assert!(
            !vrf_verify(&sk.verifying_key(), b"z", 10, 50, &sample, &proof),
            "sample order is part of the canonical encoding"
        );
    }

    #[test]
    fn verify_rejects_wrong_size_params() {
        let sk = key(11);
        let (sample, proof) = vrf_prove(&sk, b"z", 10, 50);
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            9,
            50,
            &sample,
            &proof
        ));
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            10,
            49,
            &sample,
            &proof
        ));
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            60,
            50,
            &sample,
            &proof
        ));
    }

    #[test]
    fn verify_rejects_tampered_proof() {
        let sk = key(12);
        let (sample, proof) = vrf_prove(&sk, b"z", 10, 50);
        let bad = VrfProof {
            c: proof.c + Scalar::ONE,
            ..proof
        };
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            10,
            50,
            &sample,
            &bad
        ));
        let bad = VrfProof {
            s: proof.s + Scalar::ONE,
            ..proof
        };
        assert!(!vrf_verify(
            &sk.verifying_key(),
            b"z",
            10,
            50,
            &sample,
            &bad
        ));
    }

    #[test]
    fn verify_is_check_then_expand_on_every_rejection_case() {
        const S: usize = 10;
        const N: usize = 50;
        /// Checks one case against both halves and against what
        /// `vrf_verify` is frozen as: their composition.
        fn case(pk: &VerifyingKey, seed: &[u8], claimed: &[u32], proof: &VrfProof, dleq_ok: bool) {
            assert_eq!(vrf_check(pk, seed, proof), dleq_ok);
            let composed = claimed.len() == S
                && S <= N
                && vrf_check(pk, seed, proof)
                && expand_sample(proof, S, N) == claimed;
            assert_eq!(vrf_verify(pk, seed, S, N, claimed, proof), composed);
        }
        let (sk, other) = (key(15), key(16));
        let (pk, other_pk) = (sk.verifying_key(), other.verifying_key());
        let (sample, proof) = vrf_prove(&sk, b"z", S, N);
        assert!(vrf_verify(&pk, b"z", S, N, &sample, &proof));
        case(&pk, b"z", &sample, &proof, true);
        case(&pk, b"wrong", &sample, &proof, false);
        case(&other_pk, b"z", &sample, &proof, false);

        // A tampered or short sample: the proof holds, the comparison fails.
        let mut forged = sample.clone();
        forged[0] = (0..50).find(|id| !sample.contains(id)).unwrap();
        assert!(!vrf_verify(&pk, b"z", S, N, &forged, &proof));
        case(&pk, b"z", &forged, &proof, true);
        case(&pk, b"z", &sample[..9], &proof, true);

        let bad_c = VrfProof {
            c: proof.c + Scalar::ONE,
            ..proof
        };
        let bad_gamma = VrfProof {
            gamma: vrf_prove(&other, b"z", S, N).1.gamma,
            ..proof
        };
        case(&pk, b"z", &sample, &bad_c, false);
        case(&pk, b"z", &sample, &bad_gamma, false);
    }

    #[test]
    fn uniqueness_same_inputs_same_output() {
        // A prover cannot produce two *different* accepted samples for the
        // same (pk, z, s, n): the accepted sample is a function of Γ, and Γ
        // is pinned by the DLEQ proof. Exhaustively confirm the honest path.
        let sk = key(13);
        let pk = sk.verifying_key();
        let (sample, proof) = vrf_prove(&sk, b"z", 10, 50);
        // Any other claimed sample under the same valid proof fails:
        let mut other = sample.clone();
        other.rotate_left(1);
        assert!(vrf_verify(&pk, b"z", 10, 50, &sample, &proof));
        assert!(!vrf_verify(&pk, b"z", 10, 50, &other, &proof));
    }

    #[test]
    fn proof_codec_round_trip() {
        let (_, proof) = vrf_prove(&key(14), b"z", 5, 10);
        assert_eq!(VrfProof::from_bytes(proof.to_bytes()), Some(proof));
        assert_eq!(VrfProof::from_bytes([0u8; VRF_PROOF_LEN]), None);
    }

    #[test]
    fn inclusion_probability_close_to_s_over_n() {
        // Over many (key, seed) pairs, a fixed id should appear with
        // frequency ≈ s/n. This is the statistical core of probabilistic
        // quorums (paper Lemma 1).
        let n = 40;
        let s = 10;
        let trials = 2000;
        let mut hits = 0;
        for t in 0..trials {
            let sk = SigningKey::from_seed(format!("inc-{t}").as_bytes());
            let (sample, _) = vrf_prove(&sk, b"z", s, n);
            if sample.contains(&7) {
                hits += 1;
            }
        }
        let freq = hits as f64 / trials as f64;
        let expected = s as f64 / n as f64;
        assert!(
            (freq - expected).abs() < 0.05,
            "inclusion frequency {freq} vs expected {expected}"
        );
    }
}
