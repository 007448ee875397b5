//! VRF seed construction and sample generation for the prepare/commit
//! phases.
//!
//! The paper mandates the seed `z = v ‖ T` — "a concatenation of the current
//! view v and an identifier T representing the phase" (§3.1) — so that
//! faulty replicas cannot steer their recipient samples, samples differ per
//! phase, and correct replicas' samples are unpredictable before their
//! Prepare/Commit messages reveal them.

use crate::config::View;
use probft_crypto::keyring::TabledKey;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::vrf::{expand_sample, sample_contains, vrf_proof, VrfProof};
use probft_quorum::ReplicaId;

/// The protocol phase a sample belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// The prepare phase (`T = "prepare"`).
    Prepare,
    /// The commit phase (`T = "commit"`).
    Commit,
}

impl Phase {
    /// The identifier `T` appended to the seed.
    pub fn tag(self) -> &'static [u8] {
        match self {
            Phase::Prepare => b"prepare",
            Phase::Commit => b"commit",
        }
    }
}

/// Builds the VRF seed `v ‖ T` for `view` and `phase`.
pub fn vrf_seed(view: View, phase: Phase) -> Vec<u8> {
    let mut seed = view.0.to_be_bytes().to_vec();
    seed.push(b'|');
    seed.extend_from_slice(phase.tag());
    seed
}

/// `VRF_prove(K_p, v ‖ T, s)`: derives this replica's recipient sample for
/// `(view, phase)`, with its proof.
pub fn derive_sample(
    sk: &SigningKey,
    view: View,
    phase: Phase,
    sample_size: usize,
    n: usize,
) -> (Vec<ReplicaId>, VrfProof) {
    let proof = derive_proof(sk, view, phase);
    (sample_of(&proof, sample_size, n), proof)
}

/// The `P` half of [`derive_sample`]: the proof alone. A vote ships only
/// `P`, and its sender expands the sample once, when it addresses the vote
/// ([`sample_of`]).
pub fn derive_proof(sk: &SigningKey, view: View, phase: Phase) -> VrfProof {
    vrf_proof(sk, &vrf_seed(view, phase))
}

/// The `P` half of `VRF_verify(K_u, v ‖ T, s, S, P)`: whether `proof` is the
/// proof the owner of `key` must use for `(view, phase)` —
/// [`vrf_check`](probft_crypto::vrf::vrf_check), with `y^(−c)` from the
/// key's table.
pub fn verify_proof(key: &TabledKey, view: View, phase: Phase, proof: &VrfProof) -> bool {
    key.vrf_check(&vrf_seed(view, phase), proof)
}

/// The `S` half: the unique sample a verified `proof` determines. A vote
/// ships only `P`; the sender expands it from there to address the vote.
pub fn sample_of(proof: &VrfProof, sample_size: usize, n: usize) -> Vec<ReplicaId> {
    let ids = expand_sample(proof, sample_size, n);
    ids.into_iter().map(ReplicaId).collect()
}

/// `receiver ∈ S` for the sample `proof` determines — the precondition of
/// lines 17 and 21 — answered at the draw that picks `receiver`, without
/// building `S`.
pub fn in_sample(proof: &VrfProof, sample_size: usize, n: usize, receiver: ReplicaId) -> bool {
    sample_contains(proof, sample_size, n, receiver.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_crypto::keyring::Keyring;

    #[test]
    fn seeds_differ_by_view_and_phase() {
        assert_ne!(
            vrf_seed(View(1), Phase::Prepare),
            vrf_seed(View(1), Phase::Commit)
        );
        assert_ne!(
            vrf_seed(View(1), Phase::Prepare),
            vrf_seed(View(2), Phase::Prepare)
        );
    }

    #[test]
    fn derive_and_verify_round_trip() {
        let ring = Keyring::generate(50, b"sampling-test");
        let sk = ring.signing_key(3).unwrap();
        let public = ring.public();
        let pk = |i| public.tabled_key(i).unwrap();
        let (sample, proof) = derive_sample(sk, View(7), Phase::Prepare, 12, 50);
        assert_eq!(sample.len(), 12);
        assert!(verify_proof(pk(3), View(7), Phase::Prepare, &proof));
        assert_eq!(sample_of(&proof, 12, 50), sample);
        for id in (0..50).map(ReplicaId) {
            assert_eq!(in_sample(&proof, 12, 50, id), sample.contains(&id));
        }
        // Wrong phase, wrong view and wrong key fail.
        assert!(!verify_proof(pk(3), View(7), Phase::Commit, &proof));
        assert!(!verify_proof(pk(3), View(8), Phase::Prepare, &proof));
        assert!(!verify_proof(pk(4), View(7), Phase::Prepare, &proof));
    }

    #[test]
    fn prepare_and_commit_samples_usually_differ() {
        let ring = Keyring::generate(100, b"sampling-test-2");
        let sk = ring.signing_key(0).unwrap();
        let (prep, _) = derive_sample(sk, View(1), Phase::Prepare, 20, 100);
        let (comm, _) = derive_sample(sk, View(1), Phase::Commit, 20, 100);
        assert_ne!(prep, comm);
    }
}
