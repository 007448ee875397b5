//! The log-wide view, deterministically: [`SmrNode`]s under the shared
//! virtual-time executor (`support`) — no socket, no wall clock — each
//! behind a member that writes down what its node did with its one view
//! timer and what wishes it heard.
//!
//! Every test here fails on the commit before the view was lifted out of
//! the per-slot replicas into the node: there each slot timed out on the
//! dead view-1 leader by itself, wishes were slot-scoped, and no
//! `view_changes` / `view` metric existed.
//!
//! [`SmrNode`]: probft_smr::SmrNode

mod support;

use probft_core::config::{ProbftConfig, View};
use probft_core::message::{Message, Wish, WishBody};
use probft_obs::TraceKind;
use probft_quorum::ReplicaId;
use probft_simnet::process::ProcessId;
use probft_simnet::sim::RunOutcome;
use probft_simnet::time::{SimDuration, SimTime};
use probft_smr::nemesis::{Fault, FaultPlan};
use probft_smr::{Command, SlotMessage, SmrMessage, SmrSettings};
use std::time::Duration;
use support::{keyring, puts, Cluster, Member, Spec, Strategy, MAX_EVENTS};

const BASE: u64 = 50_000;

/// A Byzantine replica that, at start, sends every replica a signed wish
/// for view 100 tagged with a far-future slot, and then nothing.
fn wisher(wish: Wish) -> Strategy {
    Box::new(move |heard, _, ctx| {
        for to in (0..7).filter(|_| heard.is_none()) {
            let inner = Message::Wish(wish.clone());
            let slot = 1_000_000 + to as u64;
            ctx.send(ProcessId(to), SmrMessage::Slot(SlotMessage { slot, inner }));
        }
    })
}

/// A cluster as [`SmrBuilder`](probft_smr::SmrBuilder) wires one — base
/// view timeout 50 000 ticks, delays uniform in 1..=100 — with `settings`
/// everywhere and `workloads[i]` queued at replica `i`.
fn spec(cfg: ProbftConfig, seed: u64, settings: SmrSettings, workloads: Vec<Vec<Command>>) -> Spec {
    let mut spec = Spec::new(cfg.n(), seed);
    spec.cfg = cfg;
    spec.settings = settings;
    spec.workloads = workloads;
    spec
}

/// Pauses `victims` now, for good: crashed replicas, to the rest.
fn crash(cluster: &mut Cluster, victims: &[usize]) {
    let plan = victims
        .iter()
        .fold(FaultPlan::new(cluster.seed), |plan, &i| {
            plan.at(Duration::ZERO, Fault::Kill(i))
        });
    cluster.execute(&plan);
}

/// Eager, depth 4, one entry per slot, until `target_len` entries applied.
fn eager(target_len: usize) -> SmrSettings {
    SmrSettings {
        pipeline_depth: 4,
        ..SmrSettings::sequential(target_len)
    }
}

fn config(n: usize) -> ProbftConfig {
    ProbftConfig::builder(n)
        .base_timeout(SimDuration::from_ticks(BASE))
        .build()
}

/// Rule (i): eight PUTs queued at replica 0 and eight at replica 1, replica
/// 0 crashed once every replica has applied eight slots. One view change
/// carries the whole log over to replica 1: every slot decided after it
/// decides in view 2, wishes cost one round in total rather than one per
/// slot, and the run ends one timeout — not one per slot — after the crash.
fn leader_crash(n: usize, seed: u64) {
    let workloads = vec![puts("a", 8), puts("b", 8)];
    let mut cluster = Cluster::new(spec(config(n), seed, eager(16), workloads));
    cluster.run_until(|probe| probe.node.slots_applied() >= 8);
    crash(&mut cluster, &[0]);
    let crashed_at = cluster.sim.now();
    let applied_at_crash: Vec<u64> = cluster
        .live()
        .map(|(_, p)| p.node.slots_applied())
        .collect();

    cluster.run_until(|probe| probe.node.done());
    let finished_at = cluster.sim.now();

    for ((i, probe), applied_before) in cluster.live().zip(applied_at_crash) {
        let metrics = probe.metrics();
        assert_eq!(metrics.counter("view_changes"), 1, "replica {i}");
        assert_eq!(metrics.gauge("view"), 2, "replica {i}");
        assert_eq!(probe.node.current_leader(), ReplicaId(1), "replica {i}");
        assert_eq!(probe.node.total_log_len(), 16, "replica {i}");
        assert!(
            (0..8).all(|k| probe.node.state().get(&format!("b{k}")).is_some()),
            "replica {i} is missing one of replica 1's PUTs"
        );

        // The journal, in order: decisions in view 1, the one view change,
        // decisions in view 2 — among them every slot applied after the
        // crash but the few that were already deciding when it happened.
        let journal = probe.node.obs().journal().snapshot();
        let changed = journal
            .iter()
            .position(|e| matches!(e.kind, TraceKind::ViewChange { .. }))
            .expect("a view change is journaled");
        assert_eq!(
            journal[changed].kind,
            TraceKind::ViewChange {
                from_view: 1,
                to_view: 2
            },
            "replica {i}"
        );
        let decided_in = |events: &[probft_obs::TraceEvent]| -> Vec<u64> {
            events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::SlotDecided { view, .. } => Some(view),
                    _ => None,
                })
                .collect()
        };
        assert!(decided_in(&journal[..changed]).iter().all(|&v| v == 1));
        let after = decided_in(&journal[changed..]);
        assert!(after.iter().all(|&v| v == 2), "replica {i}: {after:?}");
        let post_crash = probe.node.slots_applied() - applied_before;
        assert!(
            after.len() as u64 >= 8 && after.len() as u64 + 4 >= post_crash,
            "replica {i}: {} slots decided in view 2 of {post_crash} applied after the crash",
            after.len()
        );
        assert!(journal
            .iter()
            .any(|e| e.kind == TraceKind::ViewTimeout { view: 1 }));

        // One timeout — the parent paid at least one per post-crash slot.
        let bound = crashed_at.ticks() + 3 * BASE + post_crash * 1_000;
        assert!(
            finished_at.ticks() <= bound,
            "replica {i}: finished at {finished_at}, bound {bound}"
        );
    }
    cluster.sweep();

    let wishes = cluster.sim.metrics().kind("Wish").sent;
    assert!(
        wishes <= 2 * (n * n) as u64,
        "{wishes} wishes sent at n = {n}: a round per slot, not one for the log"
    );
}

#[test]
fn one_view_change_carries_the_whole_log_to_the_next_leader() {
    leader_crash(7, 9);
    leader_crash(31, 9);
}

/// Rule (ii): the view-1 *and* view-2 leaders crashed together. The log
/// reaches view 3; the wait in view 2 is twice the base timeout, and the
/// first slot applied in view 3 brings it back to the base — the timeout
/// is sized by the distance from the last progress, not by the view number.
#[test]
fn timeouts_are_sized_from_the_last_progress_not_from_view_one() {
    // With two of seven down, five replicas are left: l = 1 makes the
    // probabilistic quorum q = 3 (the default l = 2 gives q = 6 > 5).
    let cfg = ProbftConfig::builder(7)
        .quorum_multiplier(1.0)
        .base_timeout(SimDuration::from_ticks(BASE));
    let workloads = vec![puts("a", 64), Vec::new(), puts("c", 64)];
    let mut cluster = Cluster::new(spec(cfg.build(), 5, eager(128), workloads));
    cluster.run_until(|probe| probe.node.slots_applied() >= 4);
    crash(&mut cluster, &[0, 1]);
    let crashed_at = cluster.sim.now();

    // Until every survivor has applied a slot decided in view 3, and then
    // one more, so that the timer restarted by it is on record.
    let applied_in_view_3 = |probe: &Member| -> Option<usize> {
        let journal = probe.node.obs().journal().snapshot();
        let decided = journal.iter().position(|e| {
            matches!(e.kind, TraceKind::SlotDecided { view: 3, slot } if slot < probe.node.slots_applied())
        })?;
        Some(
            journal[decided..]
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::SlotApplied { .. }))
                .count(),
        )
    };
    cluster.run_until(|probe| applied_in_view_3(probe).is_some_and(|applied| applied >= 2));

    let (base, live): (SimDuration, Vec<_>) =
        (SimDuration::from_ticks(BASE), cluster.live().collect());
    assert_eq!(live.len(), 5);
    for (i, probe) in live {
        assert_eq!(probe.node.current_view(), View(3), "replica {i}");
        assert_eq!(probe.node.current_leader(), ReplicaId(2), "replica {i}");
        assert_eq!(probe.metrics().counter("view_changes"), 2, "replica {i}");
        let [(v2, entered_2), (v3, entered_3)] = probe.entered()[..] else {
            panic!("replica {i} entered {:?}", probe.entered());
        };
        assert_eq!((v2, v3), (View(2), View(3)));

        // Every timer set while in view 1 waits the base timeout; every
        // one set in view 2 — on entry, and again at its expiry — twice
        // that; view 3 starts at four times, and the first slot applied
        // there resets it to the base.
        let delays = |from: SimTime, to: SimTime| -> Vec<SimDuration> {
            probe
                .timers
                .iter()
                .filter(|(at, _)| (from..to).contains(at))
                .map(|(_, delay)| *delay)
                .collect()
        };
        let in_view_1 = delays(SimTime::ZERO, entered_2);
        assert!(!in_view_1.is_empty() && in_view_1.iter().all(|d| *d == base));
        let in_view_2 = delays(entered_2, entered_3);
        assert!(
            !in_view_2.is_empty() && in_view_2.iter().all(|d| *d == base.saturating_mul(2)),
            "replica {i}: {in_view_2:?}"
        );
        let in_view_3 = delays(entered_3, SimTime::from_ticks(u64::MAX));
        assert_eq!(in_view_3[0], base.saturating_mul(4), "replica {i}");
        assert_eq!(in_view_3.last(), Some(&base), "replica {i}");
        let first_reset = in_view_3.iter().position(|d| *d == base).expect("reset");
        assert!(
            in_view_3[first_reset..].iter().all(|d| *d == base),
            "replica {i}: once progress is made in view 3 the wait stays at the base"
        );
        // View 2 was given its 2 × base and no more (a replica that
        // entered it late leaves with the others: wishes are amplified).
        let waited = entered_3.ticks() - entered_2.ticks();
        assert!(
            (2 * BASE - 200..2 * BASE + 1_000).contains(&waited),
            "replica {i}: {waited}"
        );
        assert!(entered_2.ticks() <= crashed_at.ticks() + BASE + 1_000);
    }
}

/// Rule (iii): a straggler. Replica 0 is dead from the start and
/// replicas 1–5 each turn a client away, so the log moves to view 2 —
/// while replica 6, idle and with no reason to wish for anything, hears
/// none of it. What it hears afterwards (view-2 traffic for slots it then
/// opens in view 1) gets its timer running; its first own wish is
/// answered by every peer, once; it is in the log's view within one base
/// timeout of that wish, and the traffic it had buffered decides there.
#[test]
fn straggler_is_told_the_view_by_the_answers_to_its_first_wish() {
    let n = 7;
    let workloads = vec![Vec::new(), puts("b", 6)];
    let mut spec = spec(config(n), 3, SmrSettings::live(4), workloads);
    spec.redirects = (1..=5).map(|i| (i, SimTime::ZERO)).collect();
    let mut cluster = Cluster::new(spec);
    // Replica 6 hears nothing until every wish — sent at the first timeout,
    // delivered within 100 — is in.
    let deaf = FaultPlan::new(3)
        .at(Duration::ZERO, Fault::Kill(0))
        .at(Duration::ZERO, Fault::Kill(6))
        .at(Duration::from_micros(BASE + 100), Fault::Resume(6));
    cluster.execute(&deaf);
    for (i, probe) in cluster.live() {
        let expected = if i == 6 { View(1) } else { View(2) };
        assert_eq!(probe.node.current_view(), expected, "replica {i}");
    }
    let straggler = cluster.member(6);
    assert_eq!((straggler.wishes_heard, straggler.first_wish_at), (0, None));
    assert!(straggler.timers.is_empty(), "idle: no timer runs");

    cluster.run_until(|probe| probe.node.total_log_len() == 6);

    let straggler = cluster.member(6);
    let wished_at = straggler.first_wish_at.expect("the straggler wished");
    let [(view, entered_at)] = straggler.entered()[..] else {
        panic!("entered {:?}", straggler.entered());
    };
    assert_eq!(view, View(2));
    assert!(
        (1..=BASE).contains(&(entered_at.ticks() - wished_at.ticks())),
        "wished at {wished_at}, entered at {entered_at}"
    );
    // One answer from each of the five live peers, and nothing else: the
    // wishes that moved them were sent while it could not hear.
    assert_eq!(straggler.wishes_heard, 5);
    assert!(straggler.wishes_heard <= n as u64);
    assert_eq!(straggler.node.current_leader(), ReplicaId(1));
    assert_eq!(straggler.metrics().counter("view_changes"), 1);
    for (i, probe) in cluster.live() {
        // Nobody else moved: a straggler's wish is answered, not amplified.
        assert_eq!(probe.node.current_view(), View(2), "replica {i}");
    }
    cluster.sweep();
}

/// Rule (iv): f Byzantine replicas wishing for view 100, tagged with
/// far-future slots. The wishes are counted (they are signed) but f of
/// them amplify nothing, and the tags are dropped at the horizon like any
/// other far-future traffic: no view moves, no slot opens, no timer runs.
#[test]
fn byzantine_far_future_wishes_move_no_view_and_open_no_slot() {
    let seed = 11;
    let mut spec = spec(config(7), seed, SmrSettings::live(4), Vec::new());
    let keyring = keyring(7, seed);
    for i in [5, 6] {
        let (sender, view) = (ReplicaId::from(i), View(100));
        let wish = Wish::sign(
            keyring.signing_key(i).expect("in range"),
            WishBody { sender, view },
        );
        spec.byzantine.push((i, wisher(wish)));
    }
    let mut cluster = Cluster::new(spec);
    assert_eq!(
        cluster.sim.run_to_quiescence(MAX_EVENTS),
        RunOutcome::Quiescent
    );
    assert_eq!(cluster.live().count(), 5);
    for (i, probe) in cluster.live() {
        let metrics = probe.metrics();
        assert_eq!(probe.wishes_heard, 2, "replica {i}");
        assert_eq!(probe.node.current_view(), View(1), "replica {i}");
        assert_eq!(metrics.counter("view_changes"), 0, "replica {i}");
        assert_eq!(metrics.gauge("view"), 1, "replica {i}");
        assert_eq!(metrics.counter("drops_future_horizon"), 2, "replica {i}");
        assert_eq!(probe.node.slots_opened(), 0, "replica {i}");
        assert_eq!(probe.node.buffered_future(), 0, "replica {i}");
        assert!(probe.timers.is_empty(), "replica {i}");
        assert_eq!(probe.first_wish_at, None, "replica {i}");
    }
}

/// Rule (v): a healthy, idle cluster, and one follower that turned a
/// client away and never saw the leader act on it. Its lone wish, tagged
/// with the slot it opened, gets that slot opened everywhere — at the
/// leader too, which proposes it, empty — and the decision stops every
/// timer. Cost: one wish round from one replica, one empty slot, no view
/// change.
#[test]
fn lone_tagged_wish_on_a_healthy_cluster_costs_one_empty_slot() {
    let n = 7;
    let mut spec = spec(config(n), 13, SmrSettings::live(4), Vec::new());
    spec.redirects = vec![(3, SimTime::ZERO)];
    let mut cluster = Cluster::new(spec);
    assert_eq!(
        cluster.sim.run_to_quiescence(MAX_EVENTS),
        RunOutcome::Quiescent
    );
    for (i, probe) in cluster.live() {
        let metrics = probe.metrics();
        assert_eq!(probe.node.current_view(), View(1), "replica {i}");
        assert_eq!(metrics.counter("view_changes"), 0, "replica {i}");
        assert_eq!(
            (probe.node.slots_opened(), probe.node.slots_applied()),
            (1, 1),
            "replica {i}"
        );
        assert_eq!(
            probe.node.total_log_len(),
            0,
            "replica {i}: the slot is empty"
        );
        assert_eq!(probe.node.resident_slots(), 0, "replica {i}");
        // Replica 3's timer ran out once; everyone else's was started by
        // the tag and stopped by the decision.
        let wished = if i == 3 {
            Some(SimTime::from_ticks(BASE))
        } else {
            None
        };
        assert_eq!(probe.first_wish_at, wished, "replica {i}");
        let timeouts = probe
            .node
            .obs()
            .journal()
            .snapshot()
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::ViewTimeout { .. }))
            .count();
        assert_eq!(timeouts, usize::from(i == 3), "replica {i}");
    }
    assert_eq!(cluster.sim.metrics().kind("Wish").sent, n as u64);
    // The cluster is as it was: the next wait is a base timeout again.
    let base = SimDuration::from_ticks(BASE);
    assert!(cluster
        .live()
        .all(|(_, p)| p.timers.iter().all(|(_, d)| *d == base)));
}
