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
use probft_core::wire::{put, Reader, Wire, WireError};
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

impl HsPhase {
    fn tag(self) -> u8 {
        match self {
            HsPhase::Prepare => 1,
            HsPhase::PreCommit => 2,
            HsPhase::Commit => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            1 => Ok(HsPhase::Prepare),
            2 => Ok(HsPhase::PreCommit),
            3 => Ok(HsPhase::Commit),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

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

impl Wire for HsVoteBody {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.phase.tag());
        self.sender.encode(out);
        self.view.encode(out);
        self.digest.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HsVoteBody {
            phase: HsPhase::from_tag(r.u8()?)?,
            sender: Wire::decode(r)?,
            view: Wire::decode(r)?,
            digest: Wire::decode(r)?,
        })
    }
}

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

impl Wire for Qc {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.phase.tag());
        self.view.encode(out);
        self.value.encode(out);
        self.votes.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Qc {
            phase: HsPhase::from_tag(r.u8()?)?,
            view: Wire::decode(r)?,
            value: Wire::decode(r)?,
            votes: Wire::decode(r)?,
        })
    }
}

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

impl Wire for LeaderBroadcast {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LeaderBroadcast::Propose { value, high_qc } => {
                out.push(1);
                value.encode(out);
                high_qc.encode(out);
            }
            LeaderBroadcast::PreCommit(qc) => put::tagged(out, 2, qc),
            LeaderBroadcast::Commit(qc) => put::tagged(out, 3, qc),
            LeaderBroadcast::Decide(qc) => put::tagged(out, 4, qc),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(LeaderBroadcast::Propose {
                value: Wire::decode(r)?,
                high_qc: Wire::decode(r)?,
            }),
            2 => Ok(LeaderBroadcast::PreCommit(Qc::decode(r)?)),
            3 => Ok(LeaderBroadcast::Commit(Qc::decode(r)?)),
            4 => Ok(LeaderBroadcast::Decide(Qc::decode(r)?)),
            t => Err(WireError::UnknownTag(t)),
        }
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

impl Wire for NewViewBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.view.encode(out);
        self.prepare_qc.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NewViewBody {
            sender: Wire::decode(r)?,
            view: Wire::decode(r)?,
            prepare_qc: Wire::decode(r)?,
        })
    }
}

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

impl Wire for BroadcastBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.view.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BroadcastBody {
            sender: Wire::decode(r)?,
            view: Wire::decode(r)?,
            payload: Wire::decode(r)?,
        })
    }
}

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

impl Wire for HsMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HsMessage::NewView(m) => put::tagged(out, 1, m),
            HsMessage::Broadcast(b) => put::tagged(out, 2, b),
            HsMessage::Vote(v) => put::tagged(out, 3, v),
            HsMessage::Wish(w) => put::tagged(out, 4, w),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            1 => Ok(HsMessage::NewView(NewView::decode(r)?)),
            2 => Ok(HsMessage::Broadcast(Broadcast::decode(r)?)),
            3 => Ok(HsMessage::Vote(HsVote::decode(r)?)),
            4 => Ok(HsMessage::Wish(Wish::decode(r)?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
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
        self.to_wire_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_core::config::ProbftConfig;
    use probft_crypto::keyring::Keyring;

    fn setup() -> (ProbftConfig, Keyring) {
        (
            ProbftConfig::builder(7).quorum_multiplier(1.0).build(),
            Keyring::generate(7, b"hs-msg"),
        )
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
