//! White-box tests of Byzantine strategies: what exactly does each
//! adversary emit? Driven through the embedding API (detached contexts),
//! no simulator required.

use probft_core::byzantine::{equivocation_values, ByzantineReplica, ByzantineStrategy};
use probft_core::config::{ProbftConfig, View};
use probft_core::harness::{InstanceBuilder, InstanceOutcome, Seat};
use probft_core::message::Message;
use probft_core::value::Value;
use probft_crypto::keyring::Keyring;
use probft_quorum::ReplicaId;
use probft_simnet::metrics::KindStats;
use probft_simnet::process::{Action, Context, Process, ProcessId};
use probft_simnet::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const N: usize = 20;
const F: usize = 6;

fn setup(strategy: ByzantineStrategy, id: u32) -> ByzantineReplica {
    setup_on(&Keyring::generate(N, b"byz-test"), strategy, id)
}

/// Replica `id` running `strategy`, seated on `ring`.
fn setup_on(ring: &Keyring, strategy: ByzantineStrategy, id: u32) -> ByzantineReplica {
    let cfg = Arc::new(ProbftConfig::builder(N).build());
    let faulty: Arc<BTreeSet<ReplicaId>> = Arc::new((0..F).map(ReplicaId::from).collect());
    let seat = Seat {
        cfg,
        id: ReplicaId(id),
        sk: ring.signing_key(id as usize).unwrap().clone(),
        keys: Arc::new(ring.public()),
    };
    ByzantineReplica::new(seat, faulty, strategy)
}

fn start_actions(replica: &mut ByzantineReplica) -> Vec<Action<Message>> {
    let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
    replica.on_start(&mut ctx);
    ctx.drain_actions()
}

/// Groups Propose sends by proposed value digest → recipient set.
fn proposals_by_value(actions: &[Action<Message>]) -> BTreeMap<Vec<u8>, BTreeSet<usize>> {
    let mut map: BTreeMap<Vec<u8>, BTreeSet<usize>> = BTreeMap::new();
    for a in actions {
        if let Action::Send {
            to,
            msg: Message::Propose(p),
        } = a
        {
            map.entry(p.value.as_bytes().to_vec())
                .or_default()
                .insert(to.index());
        }
    }
    map
}

#[test]
fn optimal_split_leader_sends_exactly_two_values() {
    let mut leader = setup(ByzantineStrategy::OptimalSplitLeader, 0);
    let actions = start_actions(&mut leader);
    let proposals = proposals_by_value(&actions);
    assert_eq!(proposals.len(), 2, "exactly two distinct proposals");

    let (val1, val2) = equivocation_values();
    let to1 = &proposals[val1.as_bytes()];
    let to2 = &proposals[val2.as_bytes()];

    // Each side = its half of the correct replicas plus ALL of Π_F.
    let faulty: BTreeSet<usize> = (0..F).collect();
    assert!(
        faulty.iter().all(|i| to1.contains(i) && to2.contains(i)),
        "every Byzantine replica receives both values"
    );
    // Correct replicas get exactly one value each.
    let correct_both: Vec<usize> = (F..N)
        .filter(|i| to1.contains(i) && to2.contains(i))
        .collect();
    assert!(
        correct_both.is_empty(),
        "correct replicas must never see both: {correct_both:?}"
    );
    // The two correct halves are (n−f)/2 = 7 each.
    assert_eq!(to1.len() - F, (N - F) / 2);
    assert_eq!(to2.len() - F, (N - F) / 2);
}

#[test]
fn optimal_split_helpers_vote_within_their_vrf_samples_only() {
    // The leader's own helper votes suffice to check the invariant.
    let mut leader = setup(ByzantineStrategy::OptimalSplitLeader, 0);
    let actions = start_actions(&mut leader);
    let cfg = ProbftConfig::builder(N).build();

    for a in &actions {
        if let Action::Send {
            to,
            msg: Message::Prepare(p) | Message::Commit(p),
        } = a
        {
            // Every phase vote's recipient must be inside the sample its
            // (genuine, verifiable) VRF proof determines — omission is
            // the only freedom the adversary has.
            assert!(
                p.sample(&cfg).contains(&ReplicaId::from(to.index())),
                "helper voted outside its VRF sample"
            );
        }
    }
}

#[test]
fn split_leader_partitions_all_replicas() {
    let mut leader = setup(ByzantineStrategy::SplitLeader, 0);
    let actions = start_actions(&mut leader);
    let proposals = proposals_by_value(&actions);
    assert_eq!(proposals.len(), 2);
    let sides: Vec<&BTreeSet<usize>> = proposals.values().collect();
    assert!(
        sides[0].is_disjoint(sides[1]),
        "Fig. 4b halves are disjoint"
    );
    assert_eq!(sides[0].len() + sides[1].len(), N);
}

#[test]
fn equivocating_leader_starves_some_replicas() {
    let mut leader = setup(
        ByzantineStrategy::EquivocatingLeader {
            values: 3,
            skip_fraction: 0.3,
        },
        0,
    );
    let actions = start_actions(&mut leader);
    let proposals = proposals_by_value(&actions);
    assert!(proposals.len() >= 2, "multiple values sent");
    let reached: BTreeSet<usize> = proposals.values().flatten().copied().collect();
    assert!(
        reached.len() < N,
        "with skip_fraction some replicas get nothing"
    );
}

/// The Fig. 4a leader with three values, a fifth of replicas starved.
fn equivocating() -> ByzantineStrategy {
    ByzantineStrategy::EquivocatingLeader {
        values: 3,
        skip_fraction: 0.2,
    }
}

/// Which replicas the view-1 leader of `ring` sends each value to.
fn assignment(ring: &Keyring) -> BTreeMap<Vec<u8>, BTreeSet<usize>> {
    proposals_by_value(&start_actions(&mut setup_on(ring, equivocating(), 0)))
}

#[test]
fn equivocating_leader_draws_from_its_key_alone() {
    // Its coin is seeded from its verifying key, which the keyring (so
    // the run's seed) fixes: on one keyring the assignment repeats…
    let ring = Keyring::generate(N, &7u64.to_be_bytes());
    assert_eq!(assignment(&ring), assignment(&ring));
    // …and on another seed's keyring it is drawn anew.
    let other = Keyring::generate(N, &8u64.to_be_bytes());
    assert_ne!(assignment(&ring), assignment(&other));
}

#[test]
fn a_seed_fixes_a_run_with_an_equivocating_leader() {
    let run = || {
        InstanceBuilder::new(N)
            .seed(3)
            .byzantine(ReplicaId(0), equivocating())
            .run()
    };
    let (a, b) = (run(), run());
    let kinds = |o: &InstanceOutcome| -> Vec<(&str, KindStats)> {
        o.metrics
            .iter()
            .map(|(kind, stats)| (kind, *stats))
            .collect()
    };
    assert!(a.metrics.total_sent() > 0);
    assert_eq!(kinds(&a), kinds(&b), "messages and bytes per kind");
    assert_eq!(a.decided_views(), b.decided_views());
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn silent_and_crash_emit_nothing() {
    let mut silent = setup(ByzantineStrategy::Silent, 0);
    assert!(start_actions(&mut silent).is_empty());

    let mut crash = setup(ByzantineStrategy::Crash, 0);
    let actions = start_actions(&mut crash);
    assert!(matches!(actions.as_slice(), [Action::Halt]));
}

#[test]
fn non_leader_attackers_wait_for_the_leader() {
    // Strategy assigned to a replica that does NOT lead view 1: no
    // proposals on start (helpers act on receiving the leader's values).
    let mut helper = setup(ByzantineStrategy::OptimalSplitLeader, 3);
    assert!(start_actions(&mut helper).is_empty());

    let mut inval = setup(
        ByzantineStrategy::InvalidValueLeader {
            value: Value::new(b"junk".to_vec()),
        },
        3,
    );
    assert!(start_actions(&mut inval).is_empty());
}

#[test]
fn view_one_leader_proposals_carry_valid_leader_signature() {
    // Even an equivocating leader must produce *verifiable* proposals —
    // otherwise honest replicas would simply reject them and the attack
    // would be a no-op. Verify the emitted messages cryptographically.
    let cfg = ProbftConfig::builder(N).build();
    let ring = Keyring::generate(N, b"byz-test");
    let public = ring.public();
    let ctx = probft_core::message::VerifyCtx::new(&cfg, &public);

    let mut leader = setup(ByzantineStrategy::OptimalSplitLeader, 0);
    let actions = start_actions(&mut leader);
    let mut checked = 0;
    for a in &actions {
        if let Action::Send { msg, .. } = a {
            assert!(
                msg.verify(&ctx).is_ok(),
                "Byzantine output failed verification"
            );
            checked += 1;
        }
    }
    assert!(checked > 0);
    assert_eq!(View(1), View::FIRST);
}
