//! Single-shot PBFT message types (paper §2.3, after Bravo et al. [6]).
//!
//! The view-change report and the proposal are ProBFT's own
//! `NewLeader` and `Propose` instantiated over PBFT's prepare vote, and
//! that vote *is* the comparison the paper draws: Prepare/Commit are
//! **broadcast to everyone** (no VRF samples, no proofs) and name the value
//! by a bare digest (ProBFT's repeat the leader-signed `⟨v, digest⟩`
//! header, which is what lets a vote convict an equivocating leader), and
//! all quorums are the deterministic `⌈(n+f+1)/2⌉`. Its
//! [`CertVote`] impl below is the whole of PBFT's difference from
//! Algorithm 1.

use crate::byzantine::{PbftByzantine, PbftStrategy};
use probft_core::config::{ProbftConfig, View};
use probft_core::harness::Seat;
use probft_core::message::{CertVote, MessageOf, NewLeaderBody, ProposeBody};
use probft_core::signed::{Signed, SignedBody};
use probft_core::wire::{Reader, Wire, WireError};
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::process::ProcessId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The leader-signed proposal, shared with ProBFT's structure.
pub use probft_core::message::SignedProposal;

/// A broadcast vote: `⟨Prepare/Commit, v, digest⟩_i`.
///
/// PBFT votes reference the proposal by digest (the full value travelled in
/// the Propose), which is also what production PBFT implementations do.
pub type Vote = Signed<VoteBody>;

/// The contents of a [`Vote`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteBody {
    /// The voter.
    pub sender: ReplicaId,
    /// The vote's view.
    pub view: View,
    /// Digest of the proposed value.
    pub digest: Digest,
}

/// Which phase a [`Vote`] belongs to.
pub use probft_core::sampling::Phase as VotePhase;

impl SignedBody for VoteBody {
    type Phase = VotePhase;
    fn domain(phase: VotePhase) -> &'static [u8] {
        match phase {
            VotePhase::Prepare => b"pbft-prepare|",
            VotePhase::Commit => b"pbft-commit|",
        }
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

impl CertVote for VoteBody {
    const NEW_LEADER_DOMAIN: &'static [u8] = b"pbft-newleader|";
    const PROPOSE_DOMAIN: &'static [u8] = b"pbft-propose|";
    // Deterministic quorums: nothing is sampled.
    const QUORUM_PARAMS: (f64, f64) = (1.0, 1.0);

    type Strategy = PbftStrategy;
    type Byzantine = PbftByzantine;

    fn byzantine(seat: Seat, _: Arc<BTreeSet<ReplicaId>>, strategy: PbftStrategy) -> PbftByzantine {
        PbftByzantine::new(seat.cfg, seat.id, seat.sk, strategy)
    }

    fn view(&self) -> View {
        self.view
    }
    fn digest(&self) -> Digest {
        self.digest
    }

    fn cast(
        sk: &SigningKey,
        _: &ProbftConfig,
        phase: VotePhase,
        sender: ReplicaId,
        proposal: &SignedProposal,
    ) -> Vote {
        let body = VoteBody {
            sender,
            view: proposal.view,
            digest: proposal.digest,
        };
        Vote::sign_in(sk, phase, body)
    }
    fn recipients(&self, cfg: &ProbftConfig) -> Vec<ProcessId> {
        (0..cfg.n()).map(ProcessId).collect()
    }
    fn quorum(cfg: &ProbftConfig) -> usize {
        cfg.deterministic_quorum()
    }
    fn counts_for(&self, _: ReplicaId, _: &ProbftConfig) -> bool {
        true
    }
    fn proposal(&self) -> Option<&SignedProposal> {
        None
    }
}

impl Wire for VoteBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.view.encode(out);
        self.digest.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(VoteBody {
            sender: Wire::decode(r)?,
            view: Wire::decode(r)?,
            digest: Wire::decode(r)?,
        })
    }
}

/// A PBFT view-change report: the sender's latest prepared value (carried
/// whole so the new leader can re-propose it) with its deterministic-quorum
/// certificate of Prepare votes.
pub type PbftNewLeader = Signed<NewLeaderBody<VoteBody>>;

/// The leader's proposal broadcast, justified by [`PbftNewLeader`] reports
/// (none in view 1).
pub type PbftPropose = Signed<ProposeBody<VoteBody>>;

/// Any single-shot PBFT message: ProBFT's message set over broadcast
/// digest votes.
pub type PbftMessage = MessageOf<VoteBody>;

#[cfg(test)]
mod tests {
    use super::*;
    use probft_core::message::VerifyCtx;
    use probft_core::predicates::{choose_proposal, safe_proposal, valid_new_leader};
    use probft_core::value::Value;
    use probft_crypto::keyring::Keyring;

    fn setup() -> (ProbftConfig, Keyring) {
        (
            ProbftConfig::builder(7).quorum_multiplier(1.0).build(),
            Keyring::generate(7, b"pbft-msg"),
        )
    }

    #[test]
    fn vote_sign_verify_round_trip() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let d = Value::from_tag(1).digest();
        let v = Vote::sign_in(
            ring.signing_key(2).unwrap(),
            VotePhase::Prepare,
            VoteBody {
                sender: ReplicaId(2),
                view: View(1),
                digest: d,
            },
        );
        assert!(v.verify_in(VotePhase::Prepare, ctx.keys).is_ok());
        // Phase domain separation: a prepare vote is not a commit vote.
        assert!(v.verify_in(VotePhase::Commit, ctx.keys).is_err());
        let wire = PbftMessage::Prepare(v);
        assert_eq!(
            PbftMessage::from_wire_bytes(&wire.to_wire_bytes()).unwrap(),
            wire
        );
    }

    #[test]
    fn new_leader_validity() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let value = Value::from_tag(9);
        let d = value.digest();
        let dq = cfg.deterministic_quorum();
        let cert: Vec<Vote> = (0..dq)
            .map(|i| {
                Vote::sign_in(
                    ring.signing_key(i).unwrap(),
                    VotePhase::Prepare,
                    VoteBody {
                        sender: ReplicaId::from(i),
                        view: View(1),
                        digest: d,
                    },
                )
            })
            .collect();
        let good = PbftNewLeader::sign(
            ring.signing_key(0).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(0),
                view: View(2),
                prepared_view: View(1),
                prepared_value: Some(value.clone()),
                cert: cert.clone(),
            },
        );
        assert!(good.verify_signature(ctx.keys).is_ok());
        assert!(valid_new_leader(&good, &ctx));
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(
            PbftNewLeader::from_wire_bytes(&good.to_wire_bytes()).unwrap(),
            good
        );

        let undersized = PbftNewLeader::sign(
            ring.signing_key(0).unwrap(),
            NewLeaderBody {
                sender: ReplicaId(0),
                view: View(2),
                prepared_view: View(1),
                prepared_value: Some(value),
                cert: cert[..dq - 1].to_vec(),
            },
        );
        assert!(!valid_new_leader(&undersized, &ctx));
    }

    #[test]
    fn choose_prefers_highest_prepared_view() {
        let ring = Keyring::generate(7, b"pbft-msg");
        let make = |sender: usize, pview: u64, tag: u64| {
            PbftNewLeader::sign(
                ring.signing_key(sender).unwrap(),
                NewLeaderBody {
                    sender: ReplicaId::from(sender),
                    view: View(9),
                    prepared_view: View(pview),
                    prepared_value: if pview == 0 {
                        None
                    } else {
                        Some(Value::from_tag(tag))
                    },
                    cert: vec![],
                },
            )
        };
        let ms = vec![make(0, 0, 0), make(1, 2, 7), make(2, 3, 8)];
        assert_eq!(choose_proposal(&ms), Some(Value::from_tag(8)));
        let none = vec![make(0, 0, 0), make(1, 0, 0)];
        assert_eq!(choose_proposal(&none), None);
    }

    #[test]
    fn propose_round_trip() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let sk = ring.signing_key(0).unwrap();
        let p = PbftPropose::lead(sk, ReplicaId(0), View(1), Value::from_tag(3), vec![]);
        assert!(p.verify(&ctx).is_ok());
        assert!(safe_proposal(&p, &ctx));
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(PbftPropose::from_wire_bytes(&p.to_wire_bytes()).unwrap(), p);
        let wire = PbftMessage::Propose(p);
        assert_eq!(
            PbftMessage::from_wire_bytes(&wire.to_wire_bytes()).unwrap(),
            wire
        );
    }
}
