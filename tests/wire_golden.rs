//! Golden wire vectors: the exact length and SHA-256 of one fixed instance
//! of every signed message type and of every envelope that carries one.
//! Schnorr nonces are deterministic, so the signature bytes are pinned
//! too. The constants were generated on the commit *before* the signing
//! payloads moved into one envelope; a refactor of the codec or of the
//! signing path must leave every row alone, and a deliberate wire or
//! domain-tag change has to re-baseline them and say so.
//!
//! Re-baselined once since, when ProBFT's votes went lean: the leader signs
//! the header `⟨view, leader, digest⟩` (60 B) instead of the value, a
//! Prepare/Commit is that header plus a VRF proof (104 B, no value, no
//! sample list), and a Propose carries the value beside the header. The
//! eight rows that embed a proposal or a vote were regenerated —
//! `SignedProposal`, `PhaseMessage`, `NewLeader`, `Propose`, `PbftPropose`,
//! `Message`, `SlotMessage`, `SmrFrame::Peer`; the other ten, and the whole
//! transfer table, did not move.
//!
//! The same twelve fixtures feed one generic forgery check: no corrupted
//! body byte, foreign key or neighbouring domain gets past the envelope.

use probft::core::config::{ProbftConfig, View};
use probft::core::message::{
    CertVote, Message, NewLeader, NewLeaderBody, PhaseBody, PhaseMessage, ProposalBody, Propose,
    ProposeBody, SignedProposal, VerifyCtx, Wish, WishBody,
};
use probft::core::sampling::Phase;
use probft::core::signed::{Signed, SignedBody};
use probft::core::value::Value;
use probft::core::wire::Wire;
use probft::core::RejectReason;
use probft::crypto::keyring::Keyring;
use probft::crypto::sha256::Sha256;
use probft::hotstuff::{
    Broadcast, BroadcastBody, HsMessage, HsPhase, HsVote, HsVoteBody, LeaderBroadcast, NewView,
    NewViewBody, Qc,
};
use probft::pbft::{PbftMessage, PbftNewLeader, PbftPropose, Vote, VoteBody, VotePhase};
use probft::quorum::ReplicaId;
use probft::runtime::SmrFrame;
use probft::smr::{
    CheckpointBody, CheckpointVote, Command, KvResponse, KvStore, SlotMessage, Snapshot,
    StateMachine, StateReply, StateRequest,
};
use std::collections::BTreeMap;

/// One fixed instance of each of the twelve signed types.
struct Fixtures {
    cfg: ProbftConfig,
    ring: Keyring,
    proposal: SignedProposal,
    prepare: PhaseMessage,
    commit: PhaseMessage,
    new_leader: NewLeader,
    propose: Propose,
    wish: Wish,
    pbft_prepare: Vote,
    pbft_commit: Vote,
    pbft_new_leader: PbftNewLeader,
    pbft_propose: PbftPropose,
    hs_vote: HsVote,
    hs_new_view: NewView,
    hs_broadcast: Broadcast,
    checkpoint: CheckpointVote,
}

fn phase_message(cfg: &ProbftConfig, ring: &Keyring, phase: Phase, i: usize) -> PhaseMessage {
    let sk = ring.signing_key(i).unwrap();
    let proposal = SignedProposal::sign(
        ring.signing_key(0).unwrap(),
        ProposalBody {
            view: View(1),
            leader: ReplicaId(0),
            digest: Value::from_tag(1).digest(),
        },
    );
    PhaseBody::cast(sk, cfg, phase, ReplicaId::from(i), &proposal)
}

fn fixtures() -> Fixtures {
    let cfg = ProbftConfig::builder(7).build();
    let ring = Keyring::generate(7, b"golden");
    let sk = |i: usize| ring.signing_key(i).unwrap();
    let value = Value::from_tag(1);
    let digest = value.digest();

    let proposal = SignedProposal::sign(
        sk(0),
        ProposalBody {
            view: View(1),
            leader: ReplicaId(0),
            digest,
        },
    );
    let prepare = phase_message(&cfg, &ring, Phase::Prepare, 3);
    let commit = phase_message(&cfg, &ring, Phase::Commit, 4);
    let new_leader = NewLeader::sign(
        sk(5),
        NewLeaderBody {
            sender: ReplicaId(5),
            view: View(2),
            prepared_view: View(1),
            prepared_value: Some(value.clone()),
            cert: vec![prepare],
        },
    );
    let unprepared = NewLeader::sign(
        sk(6),
        NewLeaderBody {
            sender: ReplicaId(6),
            view: View(2),
            prepared_view: View::NONE,
            prepared_value: None,
            cert: vec![],
        },
    );
    // Replica 1 leads view 2.
    let view2 = SignedProposal::sign(
        sk(1),
        ProposalBody {
            view: View(2),
            leader: ReplicaId(1),
            digest,
        },
    );
    let propose = Propose::sign(
        sk(1),
        ProposeBody {
            proposal: view2,
            value: value.clone(),
            justification: vec![new_leader.clone(), unprepared],
        },
    );
    let wish = Wish::sign(
        sk(2),
        WishBody {
            sender: ReplicaId(2),
            view: View(5),
        },
    );

    let pbft_prepare = Vote::sign_in(
        sk(2),
        VotePhase::Prepare,
        VoteBody {
            sender: ReplicaId(2),
            view: View(1),
            digest,
        },
    );
    let pbft_commit = Vote::sign_in(
        sk(3),
        VotePhase::Commit,
        VoteBody {
            sender: ReplicaId(3),
            view: View(1),
            digest,
        },
    );
    let pbft_new_leader = PbftNewLeader::sign(
        sk(4),
        NewLeaderBody {
            sender: ReplicaId(4),
            view: View(2),
            prepared_view: View(1),
            prepared_value: Some(value.clone()),
            cert: vec![pbft_prepare.clone()],
        },
    );
    let pbft_propose = PbftPropose::sign(
        sk(1),
        ProposeBody {
            proposal: view2,
            value: value.clone(),
            justification: vec![pbft_new_leader.clone()],
        },
    );

    let hs_vote = HsVote::sign(
        sk(1),
        HsVoteBody {
            phase: HsPhase::PreCommit,
            sender: ReplicaId(1),
            view: View(3),
            digest,
        },
    );
    let qc = Qc {
        phase: HsPhase::PreCommit,
        view: View(3),
        value: value.clone(),
        votes: vec![hs_vote.clone()],
    };
    let hs_new_view = NewView::sign(
        sk(2),
        NewViewBody {
            sender: ReplicaId(2),
            view: View(4),
            prepare_qc: Some(qc),
        },
    );
    let hs_broadcast = Broadcast::sign(
        sk(0),
        BroadcastBody {
            sender: ReplicaId(0),
            view: View(1),
            payload: LeaderBroadcast::Propose {
                value,
                high_qc: None,
            },
        },
    );
    let checkpoint = CheckpointVote::sign(
        sk(1),
        CheckpointBody {
            from: ReplicaId(1),
            slot: 32,
            digest: Sha256::digest(b"snapshot"),
        },
    );

    Fixtures {
        cfg,
        ring,
        proposal,
        prepare,
        commit,
        new_leader,
        propose,
        wish,
        pbft_prepare,
        pbft_commit,
        pbft_new_leader,
        pbft_propose,
        hs_vote,
        hs_new_view,
        hs_broadcast,
        checkpoint,
    }
}

/// `(name, wire length, SHA-256 of the wire bytes)`.
const GOLDEN: &[(&str, usize, &str)] = &[
    (
        "SignedProposal",
        60,
        "252318fc766dff9603ed4858085b4a572fde93ca1bbf1ef42009e322e405d31f",
    ),
    (
        "PhaseMessage",
        104,
        "b148ae267126f7804d95c67dbfa4a35f476f41fb8fe96eaf708e7fa145e3d6c1",
    ),
    (
        "NewLeader",
        164,
        "12cf42ddf18228723046ebf2377bab0fd4540b0551a15e24faf414fb7f011389",
    ),
    (
        "Propose",
        308,
        "918258bd8202c27886bb7f40d2272295dcac2d9f9caf9ed741ef804f7319802a",
    ),
    (
        "Wish",
        28,
        "27a5a045014a735c8ce66261300d102b86c9307813c169b0b563ff510e2c907b",
    ),
    (
        "Vote",
        60,
        "e2356e672153312f7f8d80bc30e59999d9baa4f629d7cea95296c1c80eb45b3d",
    ),
    (
        "PbftNewLeader",
        120,
        "22650afe6a61e7d78f26ff962708a5af6837cb2f5c2806860a6a4fc9f0ebd53f",
    ),
    (
        "PbftPropose",
        219,
        "41279d102bb70156f1e34944bf409f4c6d9599d463154ba855d9c3154515f85b",
    ),
    (
        "HsVote",
        61,
        "e4298fd1dfec928da0740c58ce246a18ea531d622c936ea400890611c2d06bb7",
    ),
    (
        "HsMessage::NewView",
        123,
        "79ee339d7b53c4775dbe668ea7a50d1eb13c6868b79fa04cba923de6e60bb21e",
    ),
    (
        "HsMessage::Broadcast",
        46,
        "8b30d85ce10b50e6fcd16100f24f73a46752ace5dac965f0b988df7b40911ac6",
    ),
    (
        "CheckpointVote",
        60,
        "3217b82d94aa95f5f8e5275318cce1b79149a8351def4bdadfa0b3c1ff9750b6",
    ),
    (
        "Message",
        105,
        "412390f62efc45d748f34a3347a6acd570029bee2c31e0274b893def8907ec4e",
    ),
    (
        "PbftMessage",
        61,
        "2904a7384445d799a384b3aae3d0d121ce97e3413e9ac833ebe12b7d01e46b32",
    ),
    (
        "HsMessage",
        62,
        "f0d9b5419be61680b0a4f893fc286b8e35d77885eb8ee1fc3fbd791f4587d140",
    ),
    (
        "SlotMessage",
        317,
        "7bb6f6c8eecdff33da0fc4a73d797b3e5a83439a3d61784b5ef8fce022c80de1",
    ),
    (
        "SmrFrame::Peer",
        118,
        "b2359ae431689463cbb7a507e10da4479829316f1d40da905bb148dcfc22e64c",
    ),
    (
        "SmrFrame::CheckpointVote",
        61,
        "9e48e2e4d993d30f0d3f9ead6ebdc042bebe6e97480de65eda3ee62d7965d885",
    ),
];

fn rows(f: &Fixtures) -> Vec<(&'static str, Vec<u8>)> {
    let peer: SmrFrame<KvStore> = SmrFrame::Peer {
        from: 3,
        msg: SlotMessage {
            slot: 9,
            inner: Message::Prepare(f.prepare),
        },
    };
    let slot = SlotMessage {
        slot: 9,
        inner: Message::Propose(f.propose.clone()),
    };
    vec![
        ("SignedProposal", f.proposal.to_wire_bytes()),
        ("PhaseMessage", f.prepare.to_wire_bytes()),
        ("NewLeader", f.new_leader.to_wire_bytes()),
        ("Propose", f.propose.to_wire_bytes()),
        ("Wish", f.wish.to_wire_bytes()),
        ("Vote", f.pbft_prepare.to_wire_bytes()),
        ("PbftNewLeader", f.pbft_new_leader.to_wire_bytes()),
        ("PbftPropose", f.pbft_propose.to_wire_bytes()),
        ("HsVote", f.hs_vote.to_wire_bytes()),
        (
            "HsMessage::NewView",
            HsMessage::NewView(f.hs_new_view.clone()).to_wire_bytes(),
        ),
        (
            "HsMessage::Broadcast",
            HsMessage::Broadcast(f.hs_broadcast.clone()).to_wire_bytes(),
        ),
        ("CheckpointVote", f.checkpoint.to_wire_bytes()),
        ("Message", Message::Commit(f.commit).to_wire_bytes()),
        (
            "PbftMessage",
            PbftMessage::Commit(f.pbft_commit.clone()).to_wire_bytes(),
        ),
        (
            "HsMessage",
            HsMessage::Vote(f.hs_vote.clone()).to_wire_bytes(),
        ),
        ("SlotMessage", slot.to_wire_bytes()),
        ("SmrFrame::Peer", peer.to_wire_bytes()),
        (
            "SmrFrame::CheckpointVote",
            SmrFrame::<KvStore>::CheckpointVote(f.checkpoint.clone()).to_wire_bytes(),
        ),
    ]
}

/// Checks every row's length and SHA-256 against its pinned table.
fn assert_pinned(rows: Vec<(&'static str, Vec<u8>)>, golden: &[(&str, usize, &str)]) {
    let actual: Vec<(&str, usize, String)> = rows
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), Sha256::digest(&bytes).to_hex()))
        .collect();
    let pinned: Vec<(&str, usize, String)> = golden
        .iter()
        .map(|&(name, len, hex)| (name, len, hex.to_string()))
        .collect();
    assert_eq!(
        actual, pinned,
        "wire bytes moved; actual table: {actual:#?}"
    );
}

#[test]
fn encodings_are_pinned() {
    assert_pinned(rows(&fixtures()), GOLDEN);
}

/// Decodes `bytes` back and checks the value and its re-encoding.
fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) -> T {
    let bytes = value.to_wire_bytes();
    let decoded = T::from_wire_bytes(&bytes).unwrap();
    assert_eq!(&decoded, value);
    assert_eq!(decoded.to_wire_bytes(), bytes);
    decoded
}

#[test]
fn every_fixture_decodes_back_equal_and_verifies() {
    let f = fixtures();
    let public = f.ring.public();
    let ctx = VerifyCtx::new(&f.cfg, &public);

    assert_eq!(round_trip(&f.proposal).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.prepare).verify(Phase::Prepare, &ctx), Ok(()));
    assert_eq!(round_trip(&f.commit).verify(Phase::Commit, &ctx), Ok(()));
    assert_eq!(round_trip(&f.new_leader).verify_signature(&public), Ok(()));
    assert_eq!(round_trip(&f.propose).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.wish).verify_signature(&public), Ok(()));

    assert_eq!(
        round_trip(&f.pbft_prepare).verify_in(VotePhase::Prepare, &public),
        Ok(())
    );
    assert_eq!(
        round_trip(&f.pbft_commit).verify_in(VotePhase::Commit, &public),
        Ok(())
    );
    assert_eq!(
        round_trip(&f.pbft_new_leader).verify_signature(&public),
        Ok(())
    );
    assert_eq!(round_trip(&f.pbft_propose).verify(&ctx), Ok(()));

    assert_eq!(round_trip(&f.hs_vote).verify_signature(&public), Ok(()));
    round_trip(&f.hs_new_view);
    round_trip(&f.hs_broadcast);
    assert_eq!(
        round_trip(&HsMessage::NewView(f.hs_new_view.clone())).verify(&ctx),
        Ok(())
    );
    assert_eq!(
        round_trip(&HsMessage::Broadcast(f.hs_broadcast.clone())).verify(&ctx),
        Ok(())
    );

    assert_eq!(round_trip(&f.checkpoint).verify_signature(&public), Ok(()));

    assert_eq!(round_trip(&Message::Commit(f.commit)).verify(&ctx), Ok(()));
    assert_eq!(
        round_trip(&PbftMessage::Commit(f.pbft_commit.clone())).verify(&ctx),
        Ok(())
    );
    assert_eq!(
        round_trip(&HsMessage::Vote(f.hs_vote.clone())).verify(&ctx),
        Ok(())
    );
    let slot = round_trip(&SlotMessage {
        slot: 9,
        inner: Message::Propose(f.propose.clone()),
    });
    assert_eq!(slot.inner.verify(&ctx), Ok(()));
    round_trip(&SmrFrame::<KvStore>::Peer {
        from: 3,
        msg: SlotMessage {
            slot: 9,
            inner: Message::Prepare(f.prepare),
        },
    });
    round_trip(&SmrFrame::<KvStore>::CheckpointVote(f.checkpoint.clone()));
}

/// The envelope's whole promise, for any body: the signed fixture verifies;
/// corrupting any one byte of the encoded body makes it fail to decode or
/// to verify; and the same body signed with another replica's key is a
/// `BadSignature`.
fn assert_unforgeable<B>(phase: B::Phase, signed: &Signed<B>, ring: &Keyring)
where
    B: SignedBody + Clone + PartialEq + std::fmt::Debug,
{
    let keys = ring.public();
    assert_eq!(signed.verify_in(phase, &keys), Ok(()));

    let bytes = signed.to_wire_bytes();
    for at in 0..signed.body.to_wire_bytes().len() {
        for mask in [0x01, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            if let Ok(decoded) = Signed::<B>::from_wire_bytes(&corrupt) {
                assert_ne!(&decoded, signed);
                assert!(
                    decoded.verify_in(phase, &keys).is_err(),
                    "body byte {at} ^ {mask:#04x} still verifies: {decoded:?}"
                );
            }
        }
    }

    let other = (signed.signer().index() + 1) % ring.len();
    let resigned = Signed::sign_in(ring.signing_key(other).unwrap(), phase, signed.body.clone());
    assert_eq!(
        resigned.verify_in(phase, &keys),
        Err(RejectReason::BadSignature)
    );
}

#[test]
fn no_signed_type_survives_tampering_or_a_foreign_key() {
    let f = fixtures();
    let ring = &f.ring;
    assert_unforgeable((), &f.proposal, ring);
    assert_unforgeable(Phase::Prepare, &f.prepare, ring);
    assert_unforgeable(Phase::Commit, &f.commit, ring);
    assert_unforgeable((), &f.new_leader, ring);
    assert_unforgeable((), &f.propose, ring);
    assert_unforgeable((), &f.wish, ring);
    assert_unforgeable(VotePhase::Prepare, &f.pbft_prepare, ring);
    assert_unforgeable(VotePhase::Commit, &f.pbft_commit, ring);
    assert_unforgeable((), &f.pbft_new_leader, ring);
    assert_unforgeable((), &f.pbft_propose, ring);
    assert_unforgeable((), &f.hs_vote, ring);
    assert_unforgeable((), &f.hs_new_view, ring);
    assert_unforgeable((), &f.hs_broadcast, ring);
    assert_unforgeable((), &f.checkpoint, ring);

    // The phase lives outside the vote body, so only the domain tag keeps
    // a Prepare vote from being replayed as a Commit vote.
    let keys = ring.public();
    assert_eq!(
        f.prepare.verify_in(Phase::Commit, &keys),
        Err(RejectReason::BadSignature)
    );
    assert_eq!(
        f.pbft_prepare.verify_in(VotePhase::Commit, &keys),
        Err(RejectReason::BadSignature)
    );
}

#[test]
fn domain_tags_are_distinct_and_prefix_free() {
    let tags: [&[u8]; 14] = [
        ProposalBody::domain(()),
        PhaseBody::domain(Phase::Prepare),
        PhaseBody::domain(Phase::Commit),
        NewLeaderBody::<PhaseBody>::domain(()),
        ProposeBody::<PhaseBody>::domain(()),
        WishBody::domain(()),
        VoteBody::domain(VotePhase::Prepare),
        VoteBody::domain(VotePhase::Commit),
        NewLeaderBody::<VoteBody>::domain(()),
        ProposeBody::<VoteBody>::domain(()),
        HsVoteBody::domain(()),
        NewViewBody::domain(()),
        BroadcastBody::domain(()),
        CheckpointBody::domain(()),
    ];
    for (i, a) in tags.iter().enumerate() {
        for (j, b) in tags.iter().enumerate() {
            // A tag that prefixes another would let `tag_a ‖ body` be read
            // as `tag_b ‖ other body`; equality is the degenerate case.
            assert!(
                i == j || !b.starts_with(a),
                "{:?} is a prefix of {:?}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            );
        }
    }
}

/// One fixed snapshot, the request for it and the certified reply that
/// carries it: `(name, wire bytes)`, each checked to decode back equal.
/// The checkpoint path's wire types had no vector before the checkpoint
/// protocol moved behind `smr::checkpoint`; generated on the commit before
/// that move.
fn transfer_rows() -> Vec<(&'static str, Vec<u8>)> {
    let ring = Keyring::generate(7, b"golden");
    let mut state = KvStore::new();
    for (key, value) in [("a", "1"), ("b", "2"), ("a", "3")] {
        state.apply(&Command::Put {
            key: key.into(),
            value: value.into(),
        });
    }
    let mut replies = BTreeMap::new();
    replies.insert(7, (3, KvResponse::Prev(Some("1".into()))));
    replies.insert(9, (1, KvResponse::Value(None)));
    let snapshot = Snapshot {
        slot: 32,
        log_len: 40,
        log_digest: Sha256::digest(b"log"),
        state,
        replies,
    };
    let snapshot_bytes = round_trip(&snapshot).to_wire_bytes();
    let digest = Snapshot::<KvStore>::digest(&snapshot_bytes);

    let req = round_trip(&StateRequest { min_slot: 32 });
    // Five of seven: the deterministic quorum ⌈(n + f + 1) / 2⌉.
    let certificate: Vec<CheckpointVote> = (0..5)
        .map(|i| {
            CheckpointVote::sign(
                ring.signing_key(i).unwrap(),
                CheckpointBody {
                    from: ReplicaId::from(i),
                    slot: 32,
                    digest,
                },
            )
        })
        .collect();
    let rep = round_trip(&StateReply {
        slot: 32,
        snapshot: snapshot_bytes.clone(),
        certificate,
    });
    let req_frame = round_trip(&SmrFrame::<KvStore>::StateRequest { from: 6, req });
    let rep_frame = round_trip(&SmrFrame::<KvStore>::StateReply {
        from: 2,
        rep: rep.clone(),
    });
    vec![
        ("Snapshot<KvStore>", snapshot_bytes),
        ("StateRequest", req.to_wire_bytes()),
        ("StateReply", rep.to_wire_bytes()),
        ("SmrFrame::StateRequest", req_frame.to_wire_bytes()),
        ("SmrFrame::StateReply", rep_frame.to_wire_bytes()),
    ]
}

/// `(name, wire length, SHA-256 of the wire bytes)`.
const GOLDEN_TRANSFER: &[(&str, usize, &str)] = &[
    (
        "Snapshot<KvStore>",
        153,
        "94b865619e5fa503b8d5a6bac509311c9cbd252f442153a40796df5a1fb1ef10",
    ),
    (
        "StateRequest",
        8,
        "707d56f1f282aee234577e650bea2e7b18bb6131a499582be18876aba99d4b60",
    ),
    (
        "StateReply",
        473,
        "c83d8b16f6054a39dec45a7dc38348210e85985b1604bef11df7c7fb6adf9214",
    ),
    (
        "SmrFrame::StateRequest",
        13,
        "558674a81729b8083c818330de31887a2698b10053a52996ffb21a3f9f8300b0",
    ),
    (
        "SmrFrame::StateReply",
        478,
        "cc35e3f4bf69e68c094132c059d67286c5d9bef895e80eee595b12f844237b81",
    ),
];

#[test]
fn checkpoint_transfer_encodings_are_pinned() {
    assert_pinned(transfer_rows(), GOLDEN_TRANSFER);
}
