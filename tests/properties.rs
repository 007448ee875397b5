//! Cross-crate property-based tests (proptest): wire codecs, crypto
//! round-trips, sampling invariants, and quorum-tracker model checks over
//! randomized inputs.

use probft::core::config::{ProbftConfig, View};
use probft::core::message::{
    Message, PhaseBody, PhaseMessage, ProposalBody, SignedProposal, VerifyCtx, Wish, WishBody,
};
use probft::core::sampling::{derive_sample, Phase};
use probft::core::value::Value;
use probft::core::wire::Wire;
use probft::crypto::keyring::Keyring;
use probft::crypto::prg::{sample_distinct, Prg};
use probft::quorum::{QuorumOutcome, QuorumTracker, ReplicaId};
use probft::smr::{Batch, Command, Entry, SmrBuilder};
use proptest::prelude::*;

proptest! {
    /// Value wire codec round-trips arbitrary payloads.
    #[test]
    fn value_codec_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let v = Value::new(bytes);
        prop_assert_eq!(Value::from_wire_bytes(&v.to_wire_bytes()).unwrap(), v);
    }

    /// SMR command codec round-trips arbitrary keys/values.
    #[test]
    fn command_codec_round_trip(key in ".{0,32}", value in ".{0,32}", which in 0u8..3) {
        let cmd = match which {
            0 => Command::Put { key, value },
            1 => Command::Delete { key },
            _ => Command::Noop,
        };
        let encoded = cmd.to_value();
        prop_assert_eq!(Command::from_value(&encoded).unwrap(), cmd);
    }

    /// Batches of entries round-trip the wire codec intact, including
    /// through a consensus `Value` payload — with and without client tags
    /// and read markers.
    #[test]
    fn batch_codec_round_trip(entries in proptest::collection::vec((0u8..3, ".{0,16}", ".{0,16}", (any::<bool>(), 0u64..50, 0u64..50), any::<bool>()), 0..24) ) {
        let entries: Vec<Entry<Command>> = entries
            .into_iter()
            .map(|(which, key, value, (tagged, client, seq), read)| {
                let op = match which {
                    0 => Command::Put { key, value },
                    1 => Command::Delete { key },
                    _ => Command::Get { key },
                };
                if tagged {
                    let request = probft::smr::RequestId { client, seq };
                    if read {
                        Entry::tagged_read(request, op)
                    } else {
                        Entry::tagged_write(request, op)
                    }
                } else {
                    Entry::write(op)
                }
            })
            .collect();
        let batch = Batch(entries);
        prop_assert_eq!(Batch::from_wire_bytes(&batch.to_wire_bytes()).unwrap(), batch.clone());
        prop_assert_eq!(Batch::from_value(&batch.to_value()).unwrap(), batch);
    }

    /// The batch decoder is total over byte soup: decode or error, never a
    /// panic or runaway allocation.
    #[test]
    fn batch_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Batch::<Command>::from_wire_bytes(&bytes);
    }

    /// Signatures verify for the signing key and fail for any other.
    #[test]
    fn signatures_bind_to_key_and_message(seed_a in 0u64..1000, seed_b in 0u64..1000, msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assume!(seed_a != seed_b);
        let sk_a = probft::crypto::SigningKey::from_seed(&seed_a.to_be_bytes());
        let sk_b = probft::crypto::SigningKey::from_seed(&seed_b.to_be_bytes());
        let sig = sk_a.sign(&msg);
        prop_assert!(sk_a.verifying_key().verify(&msg, &sig).is_ok());
        prop_assert!(sk_b.verifying_key().verify(&msg, &sig).is_err());
        let mut tampered = msg.clone();
        tampered.push(0);
        prop_assert!(sk_a.verifying_key().verify(&tampered, &sig).is_err());
    }

    /// PRG sampling always yields distinct in-range ids, deterministically.
    #[test]
    fn sampling_invariants(seed in any::<u64>(), n in 1usize..200, frac in 0.0f64..1.0) {
        let count = ((n as f64 * frac) as usize).min(n);
        let a = sample_distinct(&mut Prg::from_seed(&seed.to_be_bytes()), count, n);
        let b = sample_distinct(&mut Prg::from_seed(&seed.to_be_bytes()), count, n);
        prop_assert_eq!(&a, &b, "deterministic");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), count, "distinct");
        prop_assert!(a.iter().all(|&x| (x as usize) < n), "in range");
    }

    /// Quorum tracker against a simple model: distinct-voter counting.
    #[test]
    fn tracker_counts_distinct_voters(votes in proptest::collection::vec((0u32..20, 0u8..3), 1..60), threshold in 1usize..10) {
        let mut tracker: QuorumTracker<u8, ()> = QuorumTracker::new(threshold);
        let mut model: std::collections::HashMap<u8, std::collections::BTreeSet<u32>> =
            std::collections::HashMap::new();
        for (voter, key) in votes {
            let outcome = tracker.insert(key, ReplicaId(voter), ());
            let set = model.entry(key).or_default();
            let fresh = set.insert(voter);
            prop_assert_eq!(outcome == QuorumOutcome::Duplicate, !fresh);
            prop_assert_eq!(tracker.count(&key), set.len());
            prop_assert_eq!(tracker.is_reached(&key), set.len() >= threshold);
        }
    }
}

proptest! {
    /// The message decoder is total: arbitrary byte soup either decodes to
    /// a message or returns an error — it never panics and never loops.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Message::from_wire_bytes(&bytes);
        let _ = Value::from_wire_bytes(&bytes);
        let _ = Command::from_wire_bytes(&bytes);
    }

    /// Valid encodings corrupted at a random position never decode to the
    /// original message *and verify* — the signature layer catches every
    /// accepted-but-corrupted case.
    #[test]
    fn corrupted_wish_never_verifies(pos in 0usize..64, xor in 1u8..255) {
        let cfg = ProbftConfig::builder(8).quorum_multiplier(1.0).build();
        let ring = Keyring::generate(8, b"prop-corrupt");
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let w = Wish::sign(
            ring.signing_key(1).unwrap(),
            WishBody { sender: ReplicaId(1), view: View(3) },
        );
        let msg = Message::Wish(w);
        let mut bytes = msg.to_wire_bytes();
        let idx = pos % bytes.len();
        bytes[idx] ^= xor;
        match Message::from_wire_bytes(&bytes) {
            Err(_) => {} // malformed: rejected at the codec layer
            Ok(decoded) => {
                // Structurally valid but different: must fail verification
                // (unless the corruption hit ignorable bytes — there are
                // none in this format, so inequality implies rejection).
                if decoded != msg {
                    prop_assert!(decoded.verify(&ctx).is_err());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))] // crypto-heavy: keep case count modest

    /// Full protocol messages round-trip the wire and re-verify after
    /// decoding (the relay path of Algorithm 1 line 25).
    #[test]
    fn phase_messages_survive_relay(view in 1u64..5, sender in 0usize..16, tag in 0u64..50) {
        let n = 16;
        let cfg = ProbftConfig::builder(n).quorum_multiplier(1.0).overprovision(1.5).build();
        let ring = Keyring::generate(n, b"prop-msg");
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);

        let view = View(view);
        let leader = cfg.leader_of(view);
        let proposal = SignedProposal::sign(
            ring.signing_key(leader.index()).unwrap(),
            ProposalBody { view, leader, digest: Value::from_tag(tag).digest() },
        );
        let sk = ring.signing_key(sender).unwrap();
        let (_, proof) = derive_sample(sk, view, Phase::Prepare, cfg.sample_size(), cfg.n());
        let msg = Message::Prepare(PhaseMessage::sign_in(
            sk,
            Phase::Prepare,
            PhaseBody { sender: ReplicaId::from(sender), proposal, proof },
        ));
        let relayed = Message::from_wire_bytes(&msg.to_wire_bytes()).unwrap();
        prop_assert_eq!(&relayed, &msg);
        prop_assert!(relayed.verify(&ctx).is_ok());

        // Truncated bytes never decode successfully to the same message.
        let bytes = msg.to_wire_bytes();
        let truncated = &bytes[..bytes.len() - 1];
        prop_assert!(Message::from_wire_bytes(truncated).is_err());
    }

    /// Wish messages round-trip and bind to their signer.
    #[test]
    fn wish_round_trip(view in 1u64..1000, sender in 0usize..8) {
        let cfg = ProbftConfig::builder(8).quorum_multiplier(1.0).build();
        let ring = Keyring::generate(8, b"prop-wish");
        let public = ring.public();
        let ctx = VerifyCtx::new(&cfg, &public);
        let w = Wish::sign(
            ring.signing_key(sender).unwrap(),
            WishBody { sender: ReplicaId::from(sender), view: View(view) },
        );
        let msg = Message::Wish(w);
        let decoded = Message::from_wire_bytes(&msg.to_wire_bytes()).unwrap();
        prop_assert_eq!(&decoded, &msg);
        prop_assert!(decoded.verify(&ctx).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))] // each case runs two full consensus clusters

    /// Pipelining is a pure latency optimisation: a pipelined, batched run
    /// produces a log and final KvStore state identical to the sequential
    /// `depth = 1` run of the same workload, seed, and batch size.
    #[test]
    fn pipelined_run_equals_sequential(
        seed in 0u64..1000,
        depth in 2usize..6,
        batch in 1usize..5,
        raw in proptest::collection::vec((0u8..3, 0u8..4), 4..12),
    ) {
        let workload: Vec<Command> = raw
            .into_iter()
            .map(|(which, k)| match which {
                0 => Command::Put { key: format!("k{k}"), value: format!("v{k}") },
                1 => Command::Delete { key: format!("k{k}") },
                _ => Command::Noop,
            })
            .collect();
        let target = workload.len();
        let run = |d: usize| {
            SmrBuilder::new(4, target)
                .seed(seed)
                .pipeline_depth(d)
                .batch_size(batch)
                .workload(ReplicaId(0), workload.clone())
                .run()
        };
        let sequential = run(1);
        let pipelined = run(depth);
        prop_assert!(sequential.logs_consistent() && sequential.states_consistent());
        prop_assert!(pipelined.logs_consistent() && pipelined.states_consistent());
        prop_assert_eq!(&sequential.logs, &pipelined.logs);
        prop_assert_eq!(&sequential.states, &pipelined.states);
        // (No per-seed tick comparison here: delay draws reshuffle between
        // schedules, so tiny workloads can go either way. The deterministic
        // 64-command test asserts the throughput win.)
    }
}

proptest! {
    /// Checkpoint soundness: truncating the log behind a snapshot loses
    /// nothing. Applying a random command sequence to a fresh machine
    /// must be indistinguishable from snapshotting at an arbitrary
    /// midpoint, restoring the snapshot into a fresh machine, and
    /// replaying only the suffix — equal final states *and* equal
    /// responses for every suffix command (what a state-transferred
    /// replica serves its clients).
    #[test]
    fn snapshot_plus_suffix_replay_equals_full_replay(
        raw in proptest::collection::vec((0u8..4, 0u8..5, ".{0,12}"), 1..40),
        split_frac in 0.0f64..1.0,
    ) {
        use probft::smr::StateMachine;

        let commands: Vec<Command> = raw
            .into_iter()
            .map(|(which, k, value)| match which {
                0 => Command::Put { key: format!("k{k}"), value },
                1 => Command::Delete { key: format!("k{k}") },
                2 => Command::Get { key: format!("k{k}") },
                _ => Command::Noop,
            })
            .collect();
        let split = ((commands.len() as f64) * split_frac) as usize;

        let mut full = probft::smr::KvStore::new();
        let full_responses: Vec<_> = commands.iter().map(|c| full.apply(c)).collect();

        let mut prefix = probft::smr::KvStore::new();
        for c in &commands[..split] {
            prefix.apply(c);
        }
        let snapshot = prefix.snapshot();
        let mut restored = probft::smr::KvStore::new();
        restored.restore(&snapshot).expect("own snapshot restores");
        prop_assert_eq!(&restored, &prefix, "restore reproduces the snapshotted state");

        let suffix_responses: Vec<_> =
            commands[split..].iter().map(|c| restored.apply(c)).collect();
        prop_assert_eq!(&restored, &full, "suffix replay converges on the full replay");
        prop_assert_eq!(
            &suffix_responses[..],
            &full_responses[split..],
            "transferred replicas answer exactly what full-replay replicas answer"
        );
    }
}
