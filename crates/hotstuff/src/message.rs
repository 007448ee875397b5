//! Single-shot basic-HotStuff message types.
//!
//! HotStuff replaces PBFT's all-to-all exchanges with a star topology: every
//! vote goes to the leader, which aggregates a quorum certificate (QC) and
//! broadcasts it in the next phase's message. That makes the per-view
//! message complexity linear (`O(n)`) — at the cost of more phases (the
//! extra pre-commit round) and hence more communication steps than
//! PBFT/ProBFT's three (Figure 1a of the ProBFT paper).

use probft_core::config::View;
use probft_core::error::RejectReason;
use probft_core::message::{VerifyCtx, Wish};
use probft_core::signed::{Signed, SignedBody};
use probft_core::value::Value;
use probft_core::wire::Wire;
use probft_core::wire_fields;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::metrics::Measurable;
use std::collections::BTreeSet;

/// The HotStuff voting phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HsPhase {
    /// First round: vote on the leader's proposal.
    Prepare,
    /// Second round: vote on the prepare QC.
    PreCommit,
    /// Third round: vote on the pre-commit QC (locks the value).
    Commit,
}

wire_fields! { impl Wire for HsPhase { 1 => Prepare, 2 => PreCommit, 3 => Commit } }

/// A phase vote sent to the leader.
pub type HsVote = Signed<HsVoteBody>;

/// The contents of an [`HsVote`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HsVoteBody {
    /// The voting phase.
    pub phase: HsPhase,
    /// The voter.
    pub sender: ReplicaId,
    /// The vote's view.
    pub view: View,
    /// Digest of the value being voted.
    pub digest: Digest,
}

impl SignedBody for HsVoteBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"hotstuff-vote|"
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

wire_fields! { impl Wire for HsVoteBody { phase, sender, view, digest } }

/// A quorum certificate: `⌈(n+f+1)/2⌉` matching votes for one phase.
///
/// Production HotStuff aggregates these with threshold signatures; here the
/// QC carries the individual votes, which keeps the substrate dependency-
/// free and makes QC sizes honest in the byte metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Qc {
    /// The certified phase.
    pub phase: HsPhase,
    /// The certified view.
    pub view: View,
    /// The certified value (carried whole so replicas that missed the
    /// proposal can still adopt it).
    pub value: Value,
    /// The aggregated votes.
    pub votes: Vec<HsVote>,
}

impl Qc {
    /// Verifies the certificate: enough distinct valid votes matching
    /// `(phase, view, value)`.
    pub fn is_valid(&self, ctx: &VerifyCtx<'_>) -> bool {
        let digest = self.value.digest();
        let mut senders: BTreeSet<ReplicaId> = BTreeSet::new();
        for vote in &self.votes {
            if vote.phase == self.phase
                && vote.view == self.view
                && vote.digest == digest
                && vote.verify_signature(ctx.keys).is_ok()
            {
                senders.insert(vote.sender);
            }
        }
        senders.len() >= ctx.cfg.deterministic_quorum()
    }
}

wire_fields! { impl Wire for Qc { phase, view, value, votes } }

/// A leader broadcast: the proposal or a phase-advancing QC.
#[derive(Clone, Debug, PartialEq)]
pub enum LeaderBroadcast {
    /// The leader's proposal, justified by the highest prepare QC it saw
    /// (if any).
    Propose {
        /// The proposed value.
        value: Value,
        /// The justifying prepare QC from an earlier view.
        high_qc: Option<Qc>,
    },
    /// Prepare QC → start pre-commit voting.
    PreCommit(Qc),
    /// Pre-commit QC → start commit voting (locks replicas).
    Commit(Qc),
    /// Commit QC → decide.
    Decide(Qc),
}

wire_fields! {
    impl Wire for LeaderBroadcast {
        1 => Propose { value, high_qc }, 2 => PreCommit(qc), 3 => Commit(qc), 4 => Decide(qc)
    }
}

/// View-change report to the new leader, carrying the sender's highest
/// prepare QC.
pub type NewView = Signed<NewViewBody>;

/// The contents of a [`NewView`].
#[derive(Clone, Debug, PartialEq)]
pub struct NewViewBody {
    /// The signer.
    pub sender: ReplicaId,
    /// The view being entered.
    pub view: View,
    /// The sender's highest prepare QC.
    pub prepare_qc: Option<Qc>,
}

impl SignedBody for NewViewBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"hotstuff-newview|"
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

wire_fields! { impl Wire for NewViewBody { sender, view, prepare_qc } }

/// A leader broadcast for `view`, signed by the leader.
pub type Broadcast = Signed<BroadcastBody>;

/// The contents of a [`Broadcast`].
#[derive(Clone, Debug, PartialEq)]
pub struct BroadcastBody {
    /// The leader (signer).
    pub sender: ReplicaId,
    /// The broadcast's view.
    pub view: View,
    /// The payload.
    pub payload: LeaderBroadcast,
}

impl SignedBody for BroadcastBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"hotstuff-broadcast|"
    }
    fn signer(&self) -> ReplicaId {
        self.sender
    }
}

wire_fields! { impl Wire for BroadcastBody { sender, view, payload } }

/// Any single-shot HotStuff message.
#[derive(Clone, Debug, PartialEq)]
pub enum HsMessage {
    /// View-change report to the new leader.
    NewView(NewView),
    /// A leader broadcast.
    Broadcast(Broadcast),
    /// A phase vote to the leader.
    Vote(HsVote),
    /// Synchronizer wish (shared with ProBFT).
    Wish(Wish),
}

impl From<Wish> for HsMessage {
    fn from(wish: Wish) -> Self {
        HsMessage::Wish(wish)
    }
}

impl HsMessage {
    /// The view this message belongs to.
    pub fn view(&self) -> View {
        match self {
            HsMessage::NewView(m) => m.view,
            HsMessage::Broadcast(b) => b.view,
            HsMessage::Vote(v) => v.view,
            HsMessage::Wish(w) => w.view,
        }
    }

    /// Full cryptographic verification (signatures; QC quorum checks are
    /// separate, protocol-level decisions).
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    pub fn verify(&self, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason> {
        match self {
            HsMessage::NewView(m) => m.verify_signature(ctx.keys),
            HsMessage::Broadcast(b) => {
                if ctx.cfg.leader_of(b.view) != b.sender {
                    return Err(RejectReason::WrongLeader {
                        view: b.view,
                        claimed: b.sender,
                    });
                }
                b.verify_signature(ctx.keys)
            }
            HsMessage::Vote(v) => v.verify_signature(ctx.keys),
            HsMessage::Wish(w) => w.verify_signature(ctx.keys),
        }
    }
}

wire_fields! {
    impl Wire for HsMessage { 1 => NewView(m), 2 => Broadcast(m), 3 => Vote(m), 4 => Wish(m) }
}

impl Measurable for HsMessage {
    fn kind(&self) -> &'static str {
        match self {
            HsMessage::NewView(_) => "NewView",
            HsMessage::Broadcast(b) => match b.payload {
                LeaderBroadcast::Propose { .. } => "Propose",
                LeaderBroadcast::PreCommit(_) => "PreCommit",
                LeaderBroadcast::Commit(_) => "Commit",
                LeaderBroadcast::Decide(_) => "Decide",
            },
            HsMessage::Vote(v) => match v.phase {
                HsPhase::Prepare => "VotePrepare",
                HsPhase::PreCommit => "VotePreCommit",
                HsPhase::Commit => "VoteCommit",
            },
            HsMessage::Wish(_) => "Wish",
        }
    }
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_core::config::ProbftConfig;
    use probft_core::wire::WireError;
    use probft_crypto::keyring::Keyring;

    fn setup() -> (ProbftConfig, Keyring) {
        (
            ProbftConfig::builder(7).quorum_multiplier(1.0).build(),
            Keyring::generate(7, b"hs-msg"),
        )
    }

    #[test]
    fn phase_round_trips_and_refuses_an_unknown_tag() {
        for phase in [HsPhase::Prepare, HsPhase::PreCommit, HsPhase::Commit] {
            assert_eq!(phase.wire_len(), 1);
            assert_eq!(HsPhase::from_wire_bytes(&phase.to_wire_bytes()), Ok(phase));
        }
        assert_eq!(
            HsPhase::from_wire_bytes(&[4]),
            Err(WireError::UnknownTag(4))
        );
    }

    #[test]
    fn vote_round_trip() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let v = HsVote::sign(
            ring.signing_key(1).unwrap(),
            HsVoteBody {
                phase: HsPhase::PreCommit,
                sender: ReplicaId(1),
                view: View(3),
                digest: Value::from_tag(1).digest(),
            },
        );
        assert!(v.verify_signature(ctx.keys).is_ok());
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(HsVote::from_wire_bytes(&v.to_wire_bytes()).unwrap(), v);
        let wire = HsMessage::Vote(v);
        assert_eq!(
            HsMessage::from_wire_bytes(&wire.to_wire_bytes()).unwrap(),
            wire
        );
    }

    #[test]
    fn qc_validity() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let value = Value::from_tag(5);
        let dq = cfg.deterministic_quorum();
        let votes: Vec<HsVote> = (0..dq)
            .map(|i| {
                HsVote::sign(
                    ring.signing_key(i).unwrap(),
                    HsVoteBody {
                        phase: HsPhase::Prepare,
                        sender: ReplicaId::from(i),
                        view: View(1),
                        digest: value.digest(),
                    },
                )
            })
            .collect();
        let qc = Qc {
            phase: HsPhase::Prepare,
            view: View(1),
            value: value.clone(),
            votes: votes.clone(),
        };
        assert!(qc.is_valid(&ctx));
        // The bare struct (not just the enum wrapper) must roundtrip.
        assert_eq!(Qc::from_wire_bytes(&qc.to_wire_bytes()).unwrap(), qc);

        let undersized = Qc {
            phase: HsPhase::Prepare,
            view: View(1),
            value: value.clone(),
            votes: votes[..dq - 1].to_vec(),
        };
        assert!(!undersized.is_valid(&ctx));

        let wrong_phase = Qc {
            phase: HsPhase::Commit,
            view: View(1),
            value,
            votes,
        };
        assert!(!wrong_phase.is_valid(&ctx));
    }

    #[test]
    fn broadcast_requires_leader() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        // Replica 3 is not the leader of view 1.
        let body = BroadcastBody {
            sender: ReplicaId(3),
            view: View(1),
            payload: LeaderBroadcast::Propose {
                value: Value::from_tag(1),
                high_qc: None,
            },
        };
        let msg = HsMessage::Broadcast(Signed::sign(ring.signing_key(3).unwrap(), body));
        assert!(matches!(
            msg.verify(&ctx),
            Err(RejectReason::WrongLeader { .. })
        ));
    }

    #[test]
    fn leader_broadcast_round_trips_bare() {
        // The payload enum must roundtrip on its own, not only inside a
        // signed HsMessage envelope.
        let lb = LeaderBroadcast::Propose {
            value: Value::from_tag(2),
            high_qc: None,
        };
        assert_eq!(
            LeaderBroadcast::from_wire_bytes(&lb.to_wire_bytes()).unwrap(),
            lb
        );
        // And so must the signed broadcast that carries it.
        let ring = Keyring::generate(1, b"hs-msg");
        let body = BroadcastBody {
            sender: ReplicaId(0),
            view: View(1),
            payload: lb,
        };
        let signed = Broadcast::sign(ring.signing_key(0).unwrap(), body);
        assert_eq!(
            Broadcast::from_wire_bytes(&signed.to_wire_bytes()).unwrap(),
            signed
        );
    }

    #[test]
    fn new_view_round_trip() {
        let (cfg, ring) = setup();
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let body = NewViewBody {
            sender: ReplicaId(2),
            view: View(4),
            prepare_qc: None,
        };
        let bare = NewView::sign(ring.signing_key(2).unwrap(), body);
        // The bare signed body (not just the enum wrapper) must roundtrip.
        assert_eq!(
            NewView::from_wire_bytes(&bare.to_wire_bytes()).unwrap(),
            bare
        );
        let msg = HsMessage::NewView(bare);
        assert!(msg.verify(&ctx).is_ok());
        assert_eq!(
            HsMessage::from_wire_bytes(&msg.to_wire_bytes()).unwrap(),
            msg
        );
    }
}
