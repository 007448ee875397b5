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
//! Re-baselined a second time when a vote began to carry its VRF proof only
//! where the sample is smaller than the cluster: the fixtures' cluster is
//! n = 7, where `s = n`, so its votes now carry the one-byte no-proof marker
//! in the proof's 24 B. The six rows that embed a ProBFT vote each fell by
//! 23 B — `PhaseMessage` 104 → 81, `NewLeader` 164 → 141, `Propose`
//! 308 → 285, `Message` 105 → 82, `SlotMessage` 317 → 294, `SmrFrame::Peer`
//! 118 → 95; no PBFT, HotStuff or checkpoint row, and nothing in the
//! transfer table, moved. The row `PhaseMessage (s < n)`, a vote cast at
//! n = 16 (s = 14), was added then and taken on the commit before the
//! change: it is byte for byte the n = 7 vote as it was, since a vote's
//! bytes do not depend on `n` where it carries a proof.
//!
//! The same fixtures feed one generic forgery check: no corrupted body
//! byte, foreign key or neighbouring domain gets past the envelope, and a
//! vote whose proof is present or absent against its cluster's regime is
//! a `BadVrfProof`.

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
use probft::runtime::{SmrFrame, SmrReply};
use probft::smr::{
    CheckpointBody, CheckpointVote, Command, Consistency, KvResponse, KvStore, OpKind, RequestId,
    SlotMessage, Snapshot, StateMachine, StateReply, StateRequest,
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
    /// A cluster whose sample is smaller than itself (n = 16, s = 14), and
    /// a vote cast in it: the one place here a vote carries a VRF proof.
    sampled_cfg: ProbftConfig,
    sampled_ring: Keyring,
    sampled_prepare: PhaseMessage,
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

    let sampled_cfg = ProbftConfig::builder(16).build();
    let sampled_ring = Keyring::generate(16, b"golden");
    let sampled_prepare = phase_message(&sampled_cfg, &sampled_ring, Phase::Prepare, 3);

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
        sampled_cfg,
        sampled_ring,
        sampled_prepare,
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
        81,
        "3689fa7607f329aa6cd0adb8e417520f01863386e941700e8c6413221cd21ec3",
    ),
    (
        "NewLeader",
        141,
        "464be19af46f8d13400c39acdff02b21e8e72f0d668374e62e8b602adfc4b2c9",
    ),
    (
        "Propose",
        285,
        "d3af713a7556a74e8ad1673180dabf7ae78371b9ce7d3d29d8ba6587d657ec7d",
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
        82,
        "9b312dc241d443194b72ca4dd43ecd5335ffa10842376293f18099045f13f255",
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
        294,
        "e5d4a09192076a48ca1bbd66487669bdd755bd5400dfd1858839f9174b177aa7",
    ),
    (
        "SmrFrame::Peer",
        95,
        "fc517ddeaa732fb4656499cee6844ce98141720654d4d56680feec382371bf05",
    ),
    (
        "SmrFrame::CheckpointVote",
        61,
        "9e48e2e4d993d30f0d3f9ead6ebdc042bebe6e97480de65eda3ee62d7965d885",
    ),
    (
        "PhaseMessage (s < n)",
        104,
        "b148ae267126f7804d95c67dbfa4a35f476f41fb8fe96eaf708e7fa145e3d6c1",
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
        ("PhaseMessage (s < n)", f.sampled_prepare.to_wire_bytes()),
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

    let sampled_keys = f.sampled_ring.public();
    let sampled_ctx = VerifyCtx::new(&f.sampled_cfg, &sampled_keys);
    assert_eq!(
        round_trip(&f.sampled_prepare).verify(Phase::Prepare, &sampled_ctx),
        Ok(())
    );
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
    assert_unforgeable(Phase::Prepare, &f.sampled_prepare, &f.sampled_ring);

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

    // A vote carries a VRF proof exactly where the sample is smaller than
    // the cluster. Moved to the other regime's form and re-signed honestly,
    // each vote still passes the envelope, and the proof check stops it:
    // the n = 7 vote (s = n) with its sender's proof, the n = 16 vote
    // (s < n) without one.
    let with_proof = PhaseBody {
        proof: f.sampled_prepare.proof,
        ..f.prepare.body
    };
    let without_proof = PhaseBody {
        proof: None,
        ..f.sampled_prepare.body
    };
    let sampled_keys = f.sampled_ring.public();
    for (body, cfg, keys) in [
        (with_proof, &f.cfg, &keys),
        (without_proof, &f.sampled_cfg, &sampled_keys),
    ] {
        let sk = ring.signing_key(body.sender.index()).unwrap();
        let forged = PhaseMessage::sign_in(sk, Phase::Prepare, body);
        assert_eq!(forged.verify_in(Phase::Prepare, keys), Ok(()));
        assert_eq!(
            forged.verify(Phase::Prepare, &VerifyCtx::new(cfg, keys)),
            Err(RejectReason::BadVrfProof)
        );
    }
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

/// One fixed instance of each encoding on the client path: the two frames a
/// client sends, the four replies it gets back (a redirect carrying the
/// leader's address), each `Command` and `KvResponse` shape and the request
/// id. `(name, wire bytes)`, each checked to decode back equal. Generated on
/// the commit before these enums' codecs became `wire_fields!` declarations.
fn client_rows() -> Vec<(&'static str, Vec<u8>)> {
    let request = RequestId { client: 7, seq: 3 };
    let frame = |frame: SmrFrame<KvStore>| round_trip(&frame).to_wire_bytes();
    let reply = |reply: SmrReply<KvResponse>| frame(SmrFrame::Reply(reply));
    let mut rows = vec![
        ("RequestId", round_trip(&request).to_wire_bytes()),
        (
            "SmrFrame::Request",
            frame(SmrFrame::Request {
                request,
                kind: OpKind::Write,
                op: Command::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
            }),
        ),
        (
            "SmrFrame::ReadRequest",
            frame(SmrFrame::ReadRequest {
                request,
                consistency: Consistency::Leader,
                op: Command::Get { key: "k".into() },
            }),
        ),
        (
            "SmrReply::Applied",
            reply(SmrReply::Applied {
                request,
                response: KvResponse::Prev(Some("old".into())),
            }),
        ),
        (
            "SmrReply::Read",
            reply(SmrReply::Read {
                request,
                response: KvResponse::Value(Some("v".into())),
            }),
        ),
        (
            "SmrReply::Redirect",
            reply(SmrReply::Redirect {
                request,
                leader: ReplicaId(2),
                addr: "127.0.0.1:7002".parse().unwrap(),
            }),
        ),
        (
            "SmrReply::Overloaded",
            reply(SmrReply::Overloaded {
                request,
                queued: 64,
            }),
        ),
    ];
    let commands = [
        (
            "Command::Put",
            Command::Put {
                key: "key".into(),
                value: "value".into(),
            },
        ),
        ("Command::Delete", Command::Delete { key: "key".into() }),
        ("Command::Noop", Command::Noop),
        ("Command::Get", Command::Get { key: "key".into() }),
    ];
    let responses = [
        ("KvResponse::Unit", KvResponse::Unit),
        ("KvResponse::Prev(None)", KvResponse::Prev(None)),
        (
            "KvResponse::Prev(Some)",
            KvResponse::Prev(Some("old".into())),
        ),
        (
            "KvResponse::Removed(Some)",
            KvResponse::Removed(Some("gone".into())),
        ),
        ("KvResponse::Removed(None)", KvResponse::Removed(None)),
        (
            "KvResponse::Value(Some)",
            KvResponse::Value(Some("v".into())),
        ),
        ("KvResponse::Value(None)", KvResponse::Value(None)),
    ];
    rows.extend(commands.map(|(name, c)| (name, round_trip(&c).to_wire_bytes())));
    rows.extend(responses.map(|(name, r)| (name, round_trip(&r).to_wire_bytes())));
    rows
}

/// `(name, wire length, SHA-256 of the wire bytes)`.
const GOLDEN_CLIENT: &[(&str, usize, &str)] = &[
    (
        "RequestId",
        16,
        "4258d21fa8b089775e259aa9febfd960b65e9680b40d5bb7e9dfc74ccc784538",
    ),
    (
        "SmrFrame::Request",
        37,
        "5ce42ebdfae0fc4fb8d78416b9f0f07ac6d97b723d72a28400f49f45587f5716",
    ),
    (
        "SmrFrame::ReadRequest",
        28,
        "9138ab079ec714a907fb0407f95d567b86a80febd222f06c5b9bf739988607c2",
    ),
    (
        "SmrReply::Applied",
        30,
        "f2b9335c1e81531a92742ed0d388254562b896fd1af90b7f71d820f367a1cf16",
    ),
    (
        "SmrReply::Read",
        28,
        "8ef2e8c35a3ebbe4ab71112877cb4830a5b45ee072e42090d8762a05989dd999",
    ),
    (
        "SmrReply::Redirect",
        43,
        "2d6c6325af0cf127782f2a6e4b9f86b52fc2450ab98398487a959a23842f401f",
    ),
    (
        "SmrReply::Overloaded",
        21,
        "702359a78934596dc5f2ce1da89567a85875ffb6de4a7a02b8772fa283225153",
    ),
    (
        "Command::Put",
        25,
        "0844a24926c9dcfed9468704648a5128142f8352ee6f7054c68a3792e0cc2fc2",
    ),
    (
        "Command::Delete",
        12,
        "79e4ed2d6c0089dbfb21077f31231bf1cfe42c12775a406a5eea90f694cc3f4b",
    ),
    (
        "Command::Noop",
        1,
        "084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5",
    ),
    (
        "Command::Get",
        12,
        "7b9ded4fb7cc2b6a07f528ad3c14dbb9d74f87bb4c4034c3a72571e93feef01b",
    ),
    (
        "KvResponse::Unit",
        1,
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    ),
    (
        "KvResponse::Prev(None)",
        2,
        "99be5efb88ca2013bd8e4eb035fd42d5245468fe9afa70d8ba9c1c419a48c4e8",
    ),
    (
        "KvResponse::Prev(Some)",
        13,
        "389e5f06e03353f9172fb4de0c36cac615f07b9f2ea4ce85981282030fd2b30a",
    ),
    (
        "KvResponse::Removed(Some)",
        14,
        "86f869707b31dd4307671f4d9eae5fc1b16258e3d16e1767af1d6de5895fedf2",
    ),
    (
        "KvResponse::Removed(None)",
        2,
        "9b4fb24edd6d1d8830e272398263cdbf026b97392cc35387b991dc0248a628f9",
    ),
    (
        "KvResponse::Value(Some)",
        11,
        "097820c25f8b413ddea156cd9ab570fd876076a251e8a52034f13e5aa1ff7052",
    ),
    (
        "KvResponse::Value(None)",
        2,
        "c0ba8a33ac67f44abff5984dfbb6f56c46b880ac2b86e1f23e7fa9c402c53ae7",
    ),
];

#[test]
fn client_encodings_are_pinned() {
    assert_pinned(client_rows(), GOLDEN_CLIENT);
}
