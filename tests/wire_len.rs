//! The simulator charges every send its encoded length without encoding it:
//! `Measurable::wire_size` adds up `Wire::wire_len` over the message's
//! fields. This checks that sum against the encoding itself, for one
//! instance of every kind a run sends — ProBFT's five (a Propose with a
//! justification and a NewLeader with a certificate among them), PBFT's,
//! the checkpoint protocol's three and HotStuff's — so that a field added
//! to an `encode` and not to its `wire_len` fails here, not as a silently
//! shifted byte count. Each encoding must also decode back to the message
//! it came from: the roundtrip every `Wire` kind a run sends owes.

use probft::core::config::{ProbftConfig, View};
use probft::core::message::{
    CertVote, Message, NewLeader, NewLeaderBody, PhaseBody, Propose, Wish, WishBody,
};
use probft::core::sampling::Phase;
use probft::core::value::Value;
use probft::core::wire::Wire;
use probft::crypto::keyring::Keyring;
use probft::crypto::sha256::Sha256;
use probft::hotstuff::{
    Broadcast, BroadcastBody, HsMessage, HsPhase, HsVote, HsVoteBody, LeaderBroadcast, NewView,
    NewViewBody, Qc,
};
use probft::pbft::{PbftMessage, PbftNewLeader, PbftPropose, VoteBody};
use probft::quorum::ReplicaId;
use probft::simnet::Measurable;
use probft::smr::{
    CheckpointBody, CheckpointVote, SlotMessage, SmrMessage, StateReply, StateRequest,
};
use std::fmt::Debug;

/// `wire_len` is the encoding's length, and so is `wire_size`, which the
/// simulator charges; and the encoding decodes to `message`.
fn check<M: Wire + Measurable + PartialEq + Debug>(name: &str, message: &M) {
    let encoded = roundtrip(name, message);
    assert_eq!(message.wire_size(), encoded, "{name}: wire_size");
}

/// As [`check`], for an SMR message: a one-byte kind tag, then the
/// payload's encoding (what the live runtime's frame carries).
fn check_smr<P: Wire + PartialEq + Debug>(name: &str, message: SmrMessage, payload: &P) {
    let encoded = roundtrip(name, payload);
    assert_eq!(message.wire_size(), 1 + encoded, "{name}: wire_size");
}

/// `decode(encode(m)) == m`, and `wire_len` is the encoding's length,
/// which is returned.
fn roundtrip<M: Wire + PartialEq + Debug>(name: &str, message: &M) -> usize {
    let encoded = message.to_wire_bytes();
    assert_eq!(message.wire_len(), encoded.len(), "{name}: wire_len");
    let decoded = M::from_wire_bytes(&encoded);
    assert_eq!(decoded.as_ref(), Ok(message), "{name}: roundtrip");
    encoded.len()
}

#[test]
fn wire_len_is_the_encoded_length_of_every_kind() {
    let cfg = ProbftConfig::builder(7).build();
    let ring = Keyring::generate(7, b"wire-len");
    let sk = |i: usize| ring.signing_key(i).unwrap();
    let value = Value::new(vec![0xA5; 300]);

    // ProBFT: view 1's votes, a prepared NewLeader and a justified view-2
    // Propose (replica 1 leads view 2).
    let view1 = Propose::lead(sk(0), ReplicaId(0), View(1), value.clone(), vec![]).proposal;
    let vote = |phase, i: usize| PhaseBody::cast(sk(i), &cfg, phase, ReplicaId::from(i), &view1);
    let (prepare, commit) = (vote(Phase::Prepare, 3), vote(Phase::Commit, 4));
    let new_leader = |i: usize, prepared: bool| {
        let body = NewLeaderBody {
            sender: ReplicaId::from(i),
            view: View(2),
            prepared_view: if prepared { View(1) } else { View::NONE },
            prepared_value: prepared.then(|| value.clone()),
            cert: if prepared {
                vec![prepare, vote(Phase::Prepare, 5)]
            } else {
                vec![]
            },
        };
        NewLeader::sign(sk(i), body)
    };
    let justification = vec![new_leader(5, true), new_leader(6, false)];
    let propose = Propose::lead(sk(1), ReplicaId(1), View(2), value.clone(), justification);
    let wish = Wish::sign(
        sk(2),
        WishBody {
            sender: ReplicaId(2),
            view: View(5),
        },
    );
    let probft = [
        ("Propose", Message::Propose(propose)),
        ("Prepare", Message::Prepare(prepare)),
        ("Commit", Message::Commit(commit)),
        ("NewLeader", Message::NewLeader(new_leader(5, true))),
        (
            "NewLeader (unprepared)",
            Message::NewLeader(new_leader(6, false)),
        ),
        ("Wish", Message::Wish(wish.clone())),
    ];
    for (name, message) in probft {
        check(name, &message);
        let slot = SlotMessage {
            slot: 9,
            inner: message,
        };
        check_smr(name, SmrMessage::Slot(slot.clone()), &slot);
    }

    // PBFT: the same shapes over digest votes.
    let pbft_vote =
        |phase, i: usize| VoteBody::cast(sk(i), &cfg, phase, ReplicaId::from(i), &view1);
    let pbft_new_leader = PbftNewLeader::sign(
        sk(4),
        NewLeaderBody {
            sender: ReplicaId(4),
            view: View(2),
            prepared_view: View(1),
            prepared_value: Some(value.clone()),
            cert: vec![pbft_vote(Phase::Prepare, 2)],
        },
    );
    let pbft_propose = PbftPropose::lead(
        sk(1),
        ReplicaId(1),
        View(2),
        value.clone(),
        vec![pbft_new_leader.clone()],
    );
    for (name, message) in [
        ("PBFT Propose", PbftMessage::Propose(pbft_propose)),
        (
            "PBFT Prepare",
            PbftMessage::Prepare(pbft_vote(Phase::Prepare, 2)),
        ),
        (
            "PBFT Commit",
            PbftMessage::Commit(pbft_vote(Phase::Commit, 3)),
        ),
        ("PBFT NewLeader", PbftMessage::NewLeader(pbft_new_leader)),
    ] {
        check(name, &message);
    }

    // The checkpoint protocol: an attestation, a request, a certified reply.
    let attest = |i: usize| {
        CheckpointVote::sign(
            sk(i),
            CheckpointBody {
                from: ReplicaId::from(i),
                slot: 32,
                digest: Sha256::digest(b"snapshot"),
            },
        )
    };
    let request = StateRequest { min_slot: 32 };
    let reply = StateReply {
        slot: 32,
        snapshot: vec![7; 153],
        certificate: (0..5).map(attest).collect(),
    };
    check_smr(
        "CheckpointVote",
        SmrMessage::CheckpointVote(attest(1)),
        &attest(1),
    );
    check_smr("StateRequest", SmrMessage::StateRequest(request), &request);
    check_smr("StateReply", SmrMessage::StateReply(reply.clone()), &reply);

    // HotStuff: a vote, view changes with and without a QC, each broadcast.
    let hs_vote = |i: usize| {
        HsVote::sign(
            sk(i),
            HsVoteBody {
                phase: HsPhase::PreCommit,
                sender: ReplicaId::from(i),
                view: View(3),
                digest: value.digest(),
            },
        )
    };
    let qc = Qc {
        phase: HsPhase::PreCommit,
        view: View(3),
        value: value.clone(),
        votes: (0..5).map(hs_vote).collect(),
    };
    let new_view = |prepare_qc| {
        let body = NewViewBody {
            sender: ReplicaId(2),
            view: View(4),
            prepare_qc,
        };
        HsMessage::NewView(NewView::sign(sk(2), body))
    };
    let broadcast = |payload| {
        let body = BroadcastBody {
            sender: ReplicaId(3),
            view: View(3),
            payload,
        };
        HsMessage::Broadcast(Broadcast::sign(sk(3), body))
    };
    let propose = |high_qc| LeaderBroadcast::Propose {
        value: value.clone(),
        high_qc,
    };
    for (name, message) in [
        ("HotStuff Vote", HsMessage::Vote(hs_vote(1))),
        ("HotStuff NewView", new_view(Some(qc.clone()))),
        ("HotStuff NewView (no QC)", new_view(None)),
        ("HotStuff Propose", broadcast(propose(Some(qc.clone())))),
        ("HotStuff Propose (no QC)", broadcast(propose(None))),
        (
            "HotStuff PreCommit",
            broadcast(LeaderBroadcast::PreCommit(qc.clone())),
        ),
        (
            "HotStuff Commit",
            broadcast(LeaderBroadcast::Commit(qc.clone())),
        ),
        ("HotStuff Decide", broadcast(LeaderBroadcast::Decide(qc))),
        ("HotStuff Wish", HsMessage::Wish(wish)),
    ] {
        check(name, &message);
    }
}
