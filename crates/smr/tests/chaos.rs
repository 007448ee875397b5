//! Chaos in virtual time: nemesis [`FaultPlan`]s — leader kills, pauses,
//! resumes, and equivocations and far-future sprays forged with a
//! replica's real key — against seven `SmrNode`s in serving mode (the
//! policy the live cluster runs) under clients that run `SmrClient`'s
//! policy against the live replica's front-end. Every run ends in the
//! live nemesis's invariant sweep, and every seed replays bit for bit.
//!
//! Seven fault scenarios over 24 seeds each; a swarm of random plans over
//! 200 seeds; and two reproducers kept red until they are fixed: ROADMAP
//! item 1's cross-slot replay and item 10's client outage after a leader
//! kill.

mod support;

use probft_core::config::{ProbftConfig, View};
use probft_core::message::Message;
use probft_core::wire::Wire;
use probft_crypto::sha256::Sha256;
use probft_obs::TraceKind;
use probft_simnet::process::ProcessId;
use probft_simnet::time::{SimDuration, SimTime};
use probft_smr::client::ATTEMPT_TIMEOUT;
use probft_smr::nemesis::{Fault, FaultPlan, SPRAY_FRAMES};
use probft_smr::{Command, RequestId, SlotMessage, SmrMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Duration;
use support::{Client, Cluster, Load, Member, Spec, Strategy};

const SEEDS: Range<u64> = 0..24;
const SWARM: Range<u64> = 0..200;
const N: usize = 7;

fn ms(t: u64) -> Duration {
    Duration::from_millis(t)
}

/// Seven replicas in the live cluster's shape, checkpointing every
/// `interval` slots (0: off), under `count` requests `every` ticks apart.
fn cluster(seed: u64, count: usize, every: u64, interval: usize) -> Cluster {
    let mut spec = Spec::new(N, seed);
    spec.settings.checkpoint_interval = interval;
    spec.load = Load { count, every };
    Cluster::new(spec)
}

/// Runs until every live replica holds the whole load and every request
/// was answered, within 30 s of virtual time, then sweeps.
fn settle(cluster: &mut Cluster) {
    let settled = cluster.settle(SimDuration::from_ticks(30_000_000));
    let (seed, transcript) = (cluster.seed, &cluster.transcript);
    assert!(settled, "seed {seed} {transcript:?}: never settled");
    cluster.sweep();
}

/// The leader dies mid-stream with its whole pipeline window in flight:
/// requests arrive every 50 µs, faster than a slot decides. Every slot a
/// survivor opened is decided and applied — none is left in flight — every
/// request is answered, none that was answered is lost (a slot that had
/// prepared a value before the view moved decided it), and the log moved
/// once.
#[test]
fn leader_kill_with_a_full_pipeline_decides_every_open_slot() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 100, 50, 0);
        cluster.run_until(|m| {
            m.node.slots_applied() >= 20 && !(m.leads() && m.node.resident_slots() < 4)
        });
        cluster.execute(&FaultPlan::new(seed).at(Duration::ZERO, Fault::KillLeader));
        settle(&mut cluster);
        assert_eq!(cluster.excluded(), [0], "seed {seed}");
        assert_eq!(cluster.member(0).node.resident_slots(), 4, "seed {seed}");
        for (i, m) in cluster.live() {
            let node = &m.node;
            let (opened, applied) = (node.slots_opened(), node.slots_applied());
            assert_eq!(
                (opened, node.resident_slots()),
                (applied, 0),
                "seed {seed}: {i}"
            );
            assert_eq!(m.metrics().counter("view_changes"), 1, "seed {seed}: {i}");
        }
    }
}

/// Leader kills back to back: the view-1 leader, and then — once it is
/// back and level with the rest — the view-2 leader that replaced it. (At
/// n = 7 the probabilistic quorum is q = 6: the cluster decides nothing
/// with two replicas away, so the second kill waits for the first victim;
/// what is back to back is the leaders, not the outages.)
#[test]
fn back_to_back_leader_kills_move_the_log_twice() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 70, 20_000, 8);
        let plan = FaultPlan::new(seed)
            .at(ms(100), Fault::KillLeader)
            .at(ms(700), Fault::Resume(0));
        cluster.execute(&plan);
        assert_eq!(cluster.view(), View(2), "seed {seed}");
        cluster.run_until_level();
        cluster.execute(&FaultPlan::new(seed).at(Duration::ZERO, Fault::KillLeader));
        settle(&mut cluster);
        assert_eq!(cluster.excluded(), [1], "seed {seed}");
        assert!(
            cluster
                .live()
                .all(|(_, m)| m.node.current_view() >= View(3)),
            "seed {seed}"
        );
    }
}

/// The same kills, but the second comes as soon as the resumed replica
/// has applied what the rest had when it came back. It came back by state
/// transfer, and the first slots past the checkpoint it fetched opened
/// with that checkpoint, their traffic ahead of its snapshot: kept, that
/// traffic lets it decide them, and with the second leader down the five
/// left and it still make q = 6. (Dropped, it left the replica four slots
/// short and inside its window, where neither a retransmission nor a
/// checkpoint reaches it, and the log never moved again — ROADMAP item
/// 2's wedge, which the decision pull closes in general.)
#[test]
fn a_replica_restored_at_a_checkpoint_survives_a_second_kill() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 60, 20_000, 8);
        let plan = FaultPlan::new(seed)
            .at(ms(100), Fault::KillLeader)
            .at(ms(700), Fault::Resume(0));
        cluster.execute(&plan);
        let frontier = cluster.live().map(|(_, m)| m.node.slots_applied()).max();
        cluster.run_until(|m| Some(m.node.slots_applied()) >= frontier);
        cluster.execute(&FaultPlan::new(seed).at(ms(100), Fault::KillLeader));
        settle(&mut cluster);
    }
}

/// Client `c` of the benchmark's paced load (`client_pacer`): `count`
/// PUTs, one due every `period` ticks from `(c − 1) × period / 2`, from an
/// `SmrClient` with its defaults: it starts at replica 0 and gives an
/// attempt [`ATTEMPT_TIMEOUT`].
fn paced(c: u64, period: u64, count: u64) -> Client {
    let request = |seq: u64| {
        let due = SimTime::from_ticks((c - 1) * period / 2 + (seq - 1) * period);
        let (key, value) = (format!("c{c}-{seq}"), "v".into());
        (
            due,
            RequestId { client: c, seq },
            Command::Put { key, value },
        )
    };
    Client::new(N, 0, ATTEMPT_TIMEOUT, (1..=count).map(request))
}

/// ROADMAP item 10's outage, in virtual time: `live_n7_leader_kill`'s
/// shape — two `SmrClient`s paced at 50 ops/s each, starting at replica 0,
/// a checkpoint every 256 slots — and the leader killed one second in.
/// The outage is the benchmark's: from the kill to the completion of the
/// first request sent after it. A client waits out an attempt on the dead
/// leader, rotates to a replica that has not yet seen a reason to move
/// (nobody was turned away), is redirected back to the dead leader, and
/// waits out a second attempt: on sockets ≈ 2.02 s. A failure prints, per
/// seed, where the outage went ([`outage_breakdown`]).
#[test]
#[ignore = "ROADMAP item 10: a client waits out the dead leader twice"]
fn a_leader_kill_costs_clients_at_most_1250_ms() {
    let outage = |seed| {
        let mut spec = Spec::new(N, seed);
        spec.settings.checkpoint_interval = 256;
        spec.clients = (1..=2).map(|c| paced(c, 20_000, 150)).collect();
        let mut cluster = Cluster::new(spec);
        cluster.execute(&FaultPlan::new(seed).at(ms(1_000), Fault::KillLeader));
        let killed_at = cluster.sim.now();
        settle(&mut cluster);
        let after = cluster.answers().filter(|(_, sent, _)| *sent >= killed_at);
        let first = after.map(|(.., done)| *done).min().expect("answered");
        let ms = (first - killed_at).ticks() as f64 / 1e3;
        (
            ms,
            format!(
                "seed {seed}: {ms} ms — {}",
                outage_breakdown(&cluster, first)
            ),
        )
    };
    let outages: Vec<(f64, String)> = SEEDS.map(outage).collect();
    let lines: Vec<&str> = outages.iter().map(|(_, line)| line.as_str()).collect();
    assert!(
        outages.iter().all(|&(ms, _)| ms <= 1_250.0),
        "outage, by seed, and where it went (ms of virtual time):\n{}",
        lines.join("\n")
    );
}

/// Where a leader kill's outage went, read from the journals: the kill;
/// then, of the survivor that timed out first, its `ViewTimeout`, its
/// `ViewChange` and its first `SlotApplied` after the kill; and `answered`,
/// the first answer to a request sent after the kill.
fn outage_breakdown(cluster: &Cluster, answered: SimTime) -> String {
    fn killed(kind: &TraceKind) -> bool {
        matches!(kind, TraceKind::FaultStart { fault } if fault == "kill-leader")
    }
    // The stamp of the first event `what` picks in `m`'s journal from the
    // kill on.
    let after_kill = |m: &Member, what: fn(&TraceKind) -> bool| {
        let journal = m.node.obs().journal().snapshot();
        let kill = journal.iter().position(|e| killed(&e.kind))?;
        let event = journal[kill..].iter().find(|e| what(&e.kind))?;
        Some(event.at_micros)
    };
    let timed_out = |m: &Member| after_kill(m, |k| matches!(k, TraceKind::ViewTimeout { .. }));
    let first = cluster
        .live()
        .filter_map(|(i, m)| Some((timed_out(m)?, i, m)));
    let Some((_, i, m)) = first.min_by_key(|&(at, ..)| at) else {
        return "no survivor timed out after the kill".into();
    };
    let ms = |at: Option<u64>| at.map_or("-".into(), |at| format!("{}", at as f64 / 1e3));
    format!(
        "kill {}, replica {i}: view timeout {}, view change {}, first apply {}; answered {}",
        ms(after_kill(m, killed)),
        ms(timed_out(m)),
        ms(after_kill(m, |k| matches!(k, TraceKind::ViewChange { .. }))),
        ms(after_kill(m, |k| matches!(
            k,
            TraceKind::SlotApplied { .. }
        ))),
        ms(Some(answered.ticks())),
    )
}

/// Pausing the leader right as a checkpoint stabilizes: requests one at a
/// time, the leader paused once every replica has applied one interval,
/// load through the view change and two more intervals, then the old
/// leader resumed. The resident-log bound holds everywhere — the
/// mid-pause view change and the catch-up strand no untruncated history
/// — and the old leader comes back by state transfer, dropping the live
/// slots' traffic beyond its horizon when that reaches it first.
#[test]
fn pausing_leader_at_checkpoint_boundary_keeps_resident_bound() {
    let (interval, depth) = (8, 4);
    let mut dropped_on = Vec::new();
    for seed in SEEDS {
        let mut cluster = cluster(seed, 40, 20_000, interval as usize);
        cluster.run_until(|m| m.node.slots_applied() >= interval);
        cluster.execute(&FaultPlan::new(seed).at(Duration::ZERO, Fault::Kill(0)));
        cluster.run_until(|m| m.node.total_log_len() >= 3 * interval);
        cluster.execute(&FaultPlan::new(seed).at(Duration::ZERO, Fault::Resume(0)));
        settle(&mut cluster);
        for (i, m) in cluster.live() {
            let metrics = m.metrics();
            let resident = m.node.log().len() as u64;
            assert!(
                resident <= 2 * interval + depth,
                "seed {seed}: replica {i}: {resident}"
            );
            assert!(
                metrics.gauge("stable_slot") >= 2 * interval,
                "seed {seed}: replica {i}"
            );
            let taken = metrics.counter("checkpoints_taken");
            let transfers = metrics.counter("state_transfers");
            assert!(transfers > 0 || taken >= 2, "seed {seed}: replica {i}");
        }
        let transfers = cluster.member(0).metrics().counter("state_transfers");
        assert!(transfers >= 1, "seed {seed}: the old leader replayed");
        if cluster.member(0).metrics().counter("drops_future_horizon") > 0 {
            dropped_on.push(seed);
        }
    }
    // What it hears first once resumed is fixed by the seed: the live
    // slots, beyond its horizon, which it drops — or, on four seeds (1, 3,
    // 15, 16), a checkpoint (votes in flight, or pushed back at its own
    // stale traffic), which it takes before any slot is out of reach.
    assert!(
        dropped_on.len() >= 20,
        "out-of-horizon traffic dropped on seeds {dropped_on:?} only"
    );
}

/// Kill, then resume, the old leader. It comes back believing it leads
/// view 1; the view timer its first slot starts runs out (the state
/// transfers it takes meanwhile do not restart it), the answers to its
/// wish hand it the view, the checkpoints hand it the log, and from then
/// on it leads nothing — it forms no batch, and turns clients away toward
/// the new leader like any follower — and it ends the run level, in the
/// sweep.
#[test]
fn resumed_old_leader_learns_the_view_and_redirects() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 50, 20_000, 8);
        cluster.execute(&FaultPlan::new(seed).at(ms(100), Fault::KillLeader));
        cluster.run_until(|m| m.node.current_view() >= View(2));
        let resumed_at = cluster.sim.now();
        cluster.execute(&FaultPlan::new(seed).at(ms(100), Fault::Resume(0)));
        settle(&mut cluster);
        let old = cluster.member(0);
        assert_eq!(old.node.current_leader().index(), 1, "seed {seed}");
        assert_eq!(old.metrics().counter("view_changes"), 1, "seed {seed}");
        let [(View(2), entered)] = old.entered()[..] else {
            panic!("seed {seed}: entered {:?}", old.entered());
        };
        assert!(entered > resumed_at, "seed {seed}");
        let journal = old.node.obs().journal().snapshot();
        let moved = journal
            .iter()
            .position(|e| matches!(e.kind, TraceKind::ViewChange { .. }));
        let led = journal[moved.expect("journaled")..]
            .iter()
            .any(|e| matches!(e.kind, TraceKind::BatchFormed { .. }));
        assert!(!led, "seed {seed}: the deposed leader formed a batch");
    }
}

/// `Fault::Equivocate` after a `KillLeader`: the log is in view 2, so the
/// nemesis forges there — under replica 1's key, with the quorum of
/// `NewLeader` reports a view-2 proposal needs — or its forgeries are
/// thrown out and test nothing. Every replica buffers its forgery for a
/// slot a little ahead; when the load gets there each meets the forgery
/// first and the leader's own proposal second, detects the equivocation
/// (lines 23–25), and the slot waits out a view change — after which the
/// log carries on under the next leader.
#[test]
fn equivocation_after_a_leader_kill_is_forged_in_the_logs_view() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 40, 20_000, 0);
        cluster.execute(&FaultPlan::new(seed).at(ms(50), Fault::KillLeader));
        cluster.run_until(|m| m.node.current_view() >= View(2));
        cluster.run_until_level();
        cluster.execute(&FaultPlan::new(seed).at(Duration::ZERO, Fault::Equivocate));
        let line = cluster.transcript.last().expect("transcribed");
        assert!(line.contains("view 2, "), "seed {seed}: {line}");
        settle(&mut cluster);
        assert!(
            cluster.view() > View(2),
            "seed {seed}: the forged slot blocked nothing"
        );
        let detected = cluster
            .live()
            .map(|(_, m)| m.metrics().counter("equivocations_detected"));
        assert!(detected.sum::<u64>() >= 1, "seed {seed}: no conflict seen");
    }
}

/// Byzantine traffic on a healthy cluster: an equivocation, a far-future
/// spray, another equivocation. One log, nothing lost or doubled, every
/// request answered, and the spray dropped and counted by every replica it
/// reached, not buffered.
#[test]
fn byzantine_equivocation_and_far_future_spray_survived() {
    for seed in SEEDS {
        let mut cluster = cluster(seed, 60, 10_000, 0);
        let plan = FaultPlan::new(seed)
            .at(ms(100), Fault::Equivocate)
            .at(ms(200), Fault::FarFutureSpray)
            .at(ms(350), Fault::Equivocate);
        cluster.execute(&plan);
        settle(&mut cluster);
        for (i, m) in cluster.live().filter(|&(i, _)| i != N - 1) {
            let sprayed = m.metrics().counter("drops_future_horizon");
            assert!(
                sprayed >= SPRAY_FRAMES,
                "seed {seed}: replica {i} dropped {sprayed}"
            );
            assert_eq!(m.node.buffered_future(), 0, "seed {seed}: replica {i}");
        }
    }
}

/// A random plan for 300 ms of load: one to four faults in its first
/// 200 ms — a kill of a named replica or of the leader, a resume of a
/// named one, an equivocation, a spray — with never more than
/// `max_paused` replicas paused at once, and then everyone resumed.
fn swarm_plan(seed: u64, max_paused: usize) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets: Vec<u64> = (0..rng.gen_range(1..=4))
        .map(|_| rng.gen_range(0..200))
        .collect();
    offsets.sort_unstable();
    let (mut plan, mut named, mut paused) = (FaultPlan::new(seed), Vec::new(), 0);
    for at in offsets {
        let fault = match rng.gen_range(0..5) {
            0 | 1 if paused < max_paused => {
                paused += 1;
                let i = rng.gen_range(0..N);
                if rng.gen_bool(0.5) {
                    Fault::KillLeader
                } else {
                    named.push(i);
                    Fault::Kill(i)
                }
            }
            2 if !named.is_empty() => {
                paused -= 1;
                Fault::Resume(named.remove(rng.gen_range(0..named.len())))
            }
            3 => Fault::FarFutureSpray,
            _ => Fault::Equivocate,
        };
        plan = plan.at(ms(at), fault);
    }
    plan.at(ms(200), Fault::ResumeAll)
}

/// One swarm run — seven replicas checkpointing every eight slots, the
/// seed's plan, and the sweep over every replica level with the longest
/// log. Liveness is the benchmark's: every request answered, n − f
/// replicas holding all of them, every shorter log a prefix of the
/// longest. `Err` is the one-line reproducer.
fn swarm_case(seed: u64) -> Result<(), String> {
    let cfg = ProbftConfig::builder(N).build();
    let plan = swarm_plan(seed, (N - cfg.probabilistic_quorum()).min(cfg.faults()));
    let count = 30;
    let mut cluster = cluster(seed, count, 10_000, 8);
    cluster.execute(&plan);
    cluster.settle(SimDuration::from_ticks(30_000_000));

    let reports = cluster.reports();
    let longest = reports
        .iter()
        .max_by_key(|r| r.total_log_len())
        .expect("replicas");
    let lags = reports
        .iter()
        .filter(|r| r.total_log_len() < longest.total_log_len());
    let mut violations = cluster.violations(&lags.clone().map(|r| r.id).collect::<Vec<_>>());
    for lag in lags {
        let behind = lag.total_log_len().checked_sub(longest.log_offset);
        let missing = behind.and_then(|have| longest.log.get(usize::try_from(have).ok()?..));
        // The digest chain `SmrNode` keeps, extended by what it lacks.
        let extended = missing.map(|entries| {
            entries.iter().fold(lag.log_digest, |digest, entry| {
                Sha256::digest_parts(&[digest.as_bytes(), &entry.to_wire_bytes()])
            })
        });
        if extended.is_some_and(|digest| digest != longest.log_digest) {
            violations.push(format!("replica {}'s log is not a prefix", lag.id));
        }
    }
    let holds_all = |i| {
        (0..count).all(|r| {
            cluster
                .member(i)
                .node
                .cached_response(Load::id(r))
                .is_some()
        })
    };
    let complete = (0..N).filter(|&i| holds_all(i)).count();
    if complete < N - cfg.faults() {
        violations.push(format!("only {complete} replicas hold every request"));
    }
    if cluster.confirmed().len() < count {
        violations.push(format!(
            "{} of {count} requests answered",
            cluster.confirmed().len()
        ));
    }
    let events: Vec<String> = plan
        .events()
        .iter()
        .map(|(at, f)| format!("t+{}ms {f:?}", at.as_millis()))
        .collect();
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "seed={seed} plan=[{}] — {first}",
            events.join(", ")
        )),
    }
}

fn swarm(seeds: Range<u64>) {
    let failures: Vec<String> = seeds.filter_map(|seed| swarm_case(seed).err()).collect();
    assert!(
        failures.is_empty(),
        "{} failing seeds:\n{}\nrerun: cargo test -p probft-smr --test chaos swarm",
        failures.len(),
        failures.join("\n")
    );
}

/// Random plans × 200 seeds: safety on every seed, liveness as the
/// benchmark judges it.
#[test]
fn swarm_of_random_plans_keeps_safety_and_liveness() {
    swarm(SWARM);
}

/// The swarm over ten thousand seeds, in release (minutes):
/// `cargo test --release -p probft-smr --test chaos wide -- --ignored`.
#[test]
#[ignore = "ten thousand seeds: run on demand, in release"]
fn swarm_over_a_wide_range_of_seeds() {
    swarm(0..10_000);
}

/// A seed fixes every metric and every flight recording: each stamp is
/// the context's virtual time, none the host's clock, so two runs of one
/// plan agree on every replica's exposition and journal, byte for byte.
#[test]
fn a_seed_fixes_every_metric_and_flight_recording() {
    let run = || {
        let mut cluster = cluster(5, 40, 20_000, 8);
        let plan = FaultPlan::new(5)
            .at(ms(100), Fault::KillLeader)
            .at(ms(700), Fault::ResumeAll);
        cluster.execute(&plan);
        settle(&mut cluster);
        let reports = cluster.reports().into_iter();
        reports
            .map(|r| (r.metrics.to_json(), r.journal))
            .collect::<Vec<_>>()
    };
    let (first, second) = (run(), run());
    assert_eq!(first.len(), N);
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a.0, b.0, "replica {i}'s metrics");
        assert_eq!(a.1, b.1, "replica {i}'s journal");
    }
}

/// A seed names its run: the same seed and plan run twice are the same
/// run, event for event, message for message, log for log.
#[test]
fn a_seed_replays_bit_for_bit() {
    let run = || {
        let mut cluster = cluster(7, 30, 10_000, 8);
        cluster.execute(&swarm_plan(7, 1).at(ms(150), Fault::Equivocate));
        cluster.settle(SimDuration::from_ticks(30_000_000));
        let kinds: Vec<_> = cluster.sim.metrics().iter().map(|(k, s)| (k, *s)).collect();
        let reports = cluster.reports().into_iter();
        let logs: Vec<_> = reports
            .map(|r| (r.total_log_len(), r.log_digest, r.state))
            .collect();
        (
            cluster.sim.now(),
            cluster.sim.events_processed(),
            kinds,
            logs,
        )
    };
    assert_eq!(run(), run());
}

/// A Byzantine replica that follows the protocol and, whenever its node
/// has applied a slot, replays that slot's leader-signed Propose and the
/// votes it heard there into the next slot, to every other replica.
fn replayer() -> Strategy {
    let mut heard: BTreeMap<u64, Vec<Message>> = BTreeMap::new();
    Box::new(move |msg, node, ctx| {
        if let Some(SmrMessage::Slot(SlotMessage { slot, inner })) = msg {
            if matches!(
                inner,
                Message::Propose(_) | Message::Prepare(_) | Message::Commit(_)
            ) {
                heard.entry(*slot).or_default().push(inner.clone());
            }
        }
        let me = ctx.id();
        while let Some(decided) = heard
            .first_entry()
            .filter(|e| *e.key() < node.slots_applied())
        {
            let (slot, replayed) = decided.remove_entry();
            for inner in replayed {
                let msg = SmrMessage::Slot(SlotMessage {
                    slot: slot + 1,
                    inner,
                });
                ctx.multicast((0..N).map(ProcessId).filter(|&to| to != me), msg);
            }
        }
    })
}

/// ROADMAP item 1's attack: a Byzantine replica replays every decided
/// slot's Propose and votes into the next slot, where — nothing in them
/// naming the slot — they verify. No honest replica may decide the stale
/// batch again, and the honest leader may be neither accused of
/// equivocating nor deposed.
#[test]
#[ignore = "ROADMAP item 1: signatures do not bind the log slot"]
fn a_decided_slot_replayed_into_the_next_is_not_prepared_there() {
    for seed in SEEDS {
        let mut spec = Spec::new(N, seed);
        spec.load = Load {
            count: 40,
            every: 10_000,
        };
        spec.byzantine = vec![(N - 1, replayer())];
        let mut cluster = Cluster::new(spec);
        settle(&mut cluster);
        for (i, m) in cluster.live() {
            let mut ids = BTreeSet::new();
            let twice = m
                .node
                .log()
                .iter()
                .filter_map(|e| e.request)
                .any(|id| !ids.insert(id));
            assert!(!twice, "seed {seed}: replica {i} decided a batch twice");
            let metrics = m.metrics();
            assert_eq!(
                metrics.counter("equivocations_detected"),
                0,
                "seed {seed}: replica {i}"
            );
            assert_eq!(
                metrics.counter("view_changes"),
                0,
                "seed {seed}: replica {i}"
            );
        }
    }
}
