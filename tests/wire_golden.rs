//! Golden wire vectors: the exact length and SHA-256 of one fixed instance
//! of every signed message type and of every envelope that carries one.
//! Schnorr nonces are deterministic, so the signature bytes are pinned
//! too. The constants were generated on the commit *before* the signing
//! payloads moved into one envelope; a refactor of the codec or of the
//! signing path must leave every row alone, and a deliberate wire or
//! domain-tag change has to re-baseline them and say so.

use probft::core::config::{ProbftConfig, View};
use probft::core::message::{
    Message, NewLeader, PhaseMessage, Propose, SignedProposal, VerifyCtx, Wish,
};
use probft::core::sampling::{derive_sample, Phase};
use probft::core::value::Value;
use probft::core::wire::Wire;
use probft::crypto::keyring::Keyring;
use probft::crypto::sha256::Sha256;
use probft::hotstuff::{HsMessage, HsPhase, HsVote, LeaderBroadcast, Qc};
use probft::pbft::{PbftMessage, PbftNewLeader, PbftPropose, Vote, VotePhase};
use probft::quorum::ReplicaId;
use probft::runtime::SmrFrame;
use probft::smr::{CheckpointVote, KvStore, SlotMessage};

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
    hs_new_view: HsMessage,
    hs_broadcast: HsMessage,
    checkpoint: CheckpointVote,
}

fn phase_message(cfg: &ProbftConfig, ring: &Keyring, phase: Phase, i: usize) -> PhaseMessage {
    let sk = ring.signing_key(i).unwrap();
    let proposal = SignedProposal::sign(
        ring.signing_key(0).unwrap(),
        ReplicaId(0),
        View(1),
        Value::from_tag(1),
    );
    let (sample, proof) = derive_sample(sk, View(1), phase, cfg.sample_size(), cfg.n());
    PhaseMessage::sign(sk, phase, ReplicaId::from(i), proposal, sample, proof)
}

fn fixtures() -> Fixtures {
    let cfg = ProbftConfig::builder(7).build();
    let ring = Keyring::generate(7, b"golden");
    let sk = |i: usize| ring.signing_key(i).unwrap();
    let value = Value::from_tag(1);
    let digest = value.digest();

    let proposal = SignedProposal::sign(sk(0), ReplicaId(0), View(1), value.clone());
    let prepare = phase_message(&cfg, &ring, Phase::Prepare, 3);
    let commit = phase_message(&cfg, &ring, Phase::Commit, 4);
    let new_leader = NewLeader::sign(
        sk(5),
        ReplicaId(5),
        View(2),
        View(1),
        Some(value.clone()),
        vec![prepare.clone()],
    );
    let unprepared = NewLeader::sign(sk(6), ReplicaId(6), View(2), View::NONE, None, vec![]);
    // Replica 1 leads view 2.
    let view2 = SignedProposal::sign(sk(1), ReplicaId(1), View(2), value.clone());
    let propose = Propose::sign(sk(1), view2.clone(), vec![new_leader.clone(), unprepared]);
    let wish = Wish::sign(sk(2), ReplicaId(2), View(5));

    let pbft_prepare = Vote::sign(sk(2), VotePhase::Prepare, ReplicaId(2), View(1), digest);
    let pbft_commit = Vote::sign(sk(3), VotePhase::Commit, ReplicaId(3), View(1), digest);
    let pbft_new_leader = PbftNewLeader::sign(
        sk(4),
        ReplicaId(4),
        View(2),
        View(1),
        Some(value.clone()),
        vec![pbft_prepare.clone()],
    );
    let pbft_propose = PbftPropose::sign(sk(1), view2, vec![pbft_new_leader.clone()]);

    let hs_vote = HsVote::sign(sk(1), HsPhase::PreCommit, ReplicaId(1), View(3), digest);
    let qc = Qc {
        phase: HsPhase::PreCommit,
        view: View(3),
        value: value.clone(),
        votes: vec![hs_vote.clone()],
    };
    let hs_new_view = HsMessage::sign_new_view(sk(2), ReplicaId(2), View(4), Some(qc.clone()));
    let hs_broadcast = HsMessage::sign_broadcast(
        sk(0),
        ReplicaId(0),
        View(1),
        LeaderBroadcast::Propose {
            value,
            high_qc: None,
        },
    );
    let checkpoint = CheckpointVote::sign(sk(1), ReplicaId(1), 32, Sha256::digest(b"snapshot"));

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
        43,
        "2e69841253ce69d52bf4b6b0f0262e98ffa79af1ad14c67c3e6dd96950710547",
    ),
    (
        "PhaseMessage",
        123,
        "6bc05dd61481b548f255624849b73be8a930ddf953e0e33b1c5007c01de5ee90",
    ),
    (
        "NewLeader",
        183,
        "d5893ad341b06338f399a0b9785eecefb2a771f2d26c048819d17f061ff98f2e",
    ),
    (
        "Propose",
        295,
        "983fb0973f89264292e255a6b09db7c34d2dbb6d9caace88efa3a97092516853",
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
        187,
        "813994fe4500b33053d3b9cac52c4f776bdac77a57204086aa0dbe84fa0f82e1",
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
        124,
        "fe3506ff162f7218d42f5afc5cb470b7f81316880e4d643b8c64d7f02262e018",
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
        304,
        "f24db7263148cb61b5db9dbbc7500368d532a1c35a0a6dbf82441b9839d1e26c",
    ),
    (
        "SmrFrame::Peer",
        137,
        "2305420fe5755035947cb4617e5aa25e0d90da251b32c7793975946bb9840888",
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
            inner: Message::Prepare(f.prepare.clone()),
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
        ("HsMessage::NewView", f.hs_new_view.to_wire_bytes()),
        ("HsMessage::Broadcast", f.hs_broadcast.to_wire_bytes()),
        ("CheckpointVote", f.checkpoint.to_wire_bytes()),
        ("Message", Message::Commit(f.commit.clone()).to_wire_bytes()),
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

#[test]
fn encodings_are_pinned() {
    let actual: Vec<(&str, usize, String)> = rows(&fixtures())
        .into_iter()
        .map(|(name, bytes)| (name, bytes.len(), Sha256::digest(&bytes).to_hex()))
        .collect();
    let pinned: Vec<(&str, usize, String)> = GOLDEN
        .iter()
        .map(|&(name, len, hex)| (name, len, hex.to_string()))
        .collect();
    assert_eq!(
        actual, pinned,
        "wire bytes moved; actual table: {actual:#?}"
    );
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
    assert_eq!(round_trip(&f.new_leader).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.propose).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.wish).verify(&ctx), Ok(()));

    assert_eq!(
        round_trip(&f.pbft_prepare).verify(VotePhase::Prepare, &ctx),
        Ok(())
    );
    assert_eq!(
        round_trip(&f.pbft_commit).verify(VotePhase::Commit, &ctx),
        Ok(())
    );
    assert_eq!(round_trip(&f.pbft_new_leader).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.pbft_propose).verify(&ctx), Ok(()));

    assert_eq!(round_trip(&f.hs_vote).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.hs_new_view).verify(&ctx), Ok(()));
    assert_eq!(round_trip(&f.hs_broadcast).verify(&ctx), Ok(()));

    assert!(round_trip(&f.checkpoint).verify(&public));

    assert_eq!(
        round_trip(&Message::Commit(f.commit.clone())).verify(&ctx),
        Ok(())
    );
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
            inner: Message::Prepare(f.prepare.clone()),
        },
    });
    round_trip(&SmrFrame::<KvStore>::CheckpointVote(f.checkpoint.clone()));
}
