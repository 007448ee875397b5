//! The nemesis suite: Jepsen-style fault injection against the live TCP
//! cluster, plus the traffic-engineering half (adaptive batching,
//! admission-control shedding, client backoff).
//!
//! Every test derives its cluster seed and fault plan from `NEMESIS_SEED`
//! (default 1; CI runs a 4-seed matrix) and writes the nemesis transcript
//! to `target/nemesis/` so a failing CI run uploads everything needed to
//! reproduce locally: rerun with the printed seed, e.g.
//! `NEMESIS_SEED=3 cargo test --test nemesis_suite`. Setting
//! `NEMESIS_FORCE_FAIL=1` makes the leader-kill test fail on purpose to
//! demonstrate the artifact-upload path.
//!
//! The invariants swept after each run (see
//! `probft::runtime::nemesis::{verify_invariants, verify_exactly_once}`):
//! matching `(total_log_len, log_digest)` and identical state on every
//! unpaused replica, no confirmed request id lost, and no request
//! *executed* more than once (a duplicate log entry is legal when a
//! view-change re-proposal races a client retry; double execution is not).

#![allow(
    clippy::disallowed_methods,
    reason = "this file polls a live cluster from outside: std::thread::sleep is its clock"
)]

use probft::core::config::View;
use probft::obs::TraceKind;
use probft::quorum::ReplicaId;
use probft::runtime::nemesis::{execute, verify_exactly_once, verify_invariants, Fault, FaultPlan};
use probft::runtime::{LiveSmrBuilder, LiveSmrCluster, ReplicaReport, SmrClient};
use probft::smr::{Command, RequestId, SmrBuilder};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// The seed this process runs under (CI matrix: 1–4).
fn seed() -> u64 {
    std::env::var("NEMESIS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn put(tag: u64) -> Command {
    Command::Put {
        key: format!("key{tag}"),
        value: format!("val{tag}"),
    }
}

/// Where transcripts land; CI uploads this directory on failure.
fn transcript_path(test: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/nemesis")
        .join(format!("{test}-seed{seed}.log"))
}

/// Runs `clients` submitter threads against `cluster`, `ops` writes
/// each, while `nemesis` runs on the calling thread. Returns the set of
/// request ids the clients saw confirmed, total overload sheds absorbed,
/// and total redirects followed. Write ids are reconstructible because
/// `SmrClient` numbers requests sequentially from 1 per client.
fn hammer<F>(
    cluster: &LiveSmrCluster,
    clients: u64,
    ops: u64,
    nemesis: F,
) -> (BTreeSet<RequestId>, u64, u64)
where
    F: FnOnce(),
{
    hammer_from(cluster, 1, clients, ops, nemesis)
}

/// [`hammer`] with client ids `first_id..first_id + clients`, for a test
/// that loads one cluster in several phases: request ids must not repeat
/// across them, or the later phase's writes are taken for retries.
fn hammer_from<F>(
    cluster: &LiveSmrCluster,
    first_id: u64,
    clients: u64,
    ops: u64,
    nemesis: F,
) -> (BTreeSet<RequestId>, u64, u64)
where
    F: FnOnce(),
{
    let overloads = AtomicU64::new(0);
    let redirects = AtomicU64::new(0);
    let confirmed = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client_id = first_id + c;
                let mut client = cluster
                    .client(client_id)
                    .leader_hint(c as usize)
                    .timeouts(Duration::from_millis(500), Duration::from_secs(120));
                let overloads = &overloads;
                let redirects = &redirects;
                s.spawn(move || {
                    let mut ids = BTreeSet::new();
                    for i in 0..ops {
                        if client.submit(put(client_id * 10_000 + i)).is_ok() {
                            ids.insert(RequestId {
                                client: client_id,
                                seq: i + 1,
                            });
                        }
                    }
                    overloads.fetch_add(client.overloads(), Ordering::SeqCst);
                    redirects.fetch_add(client.redirects(), Ordering::SeqCst);
                    ids
                })
            })
            .collect();
        nemesis();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<BTreeSet<_>>()
    });
    (
        confirmed,
        overloads.load(Ordering::SeqCst),
        redirects.load(Ordering::SeqCst),
    )
}

/// Polls `done` until it holds. A wait on the cluster's own published
/// state, not a sleep standing in for one: it ends the moment the
/// condition does, and a condition that never comes fails the test.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Kills the leader once `applied` writes have been applied somewhere —
/// triggered by progress, not by the clock, so the load it interrupts is
/// still running however fast the machine — and files the transcript.
fn kill_leader_after(cluster: &LiveSmrCluster, seed: u64, applied: u64, test: &str) {
    wait_for("the load to get going", || {
        cluster.applied_lens().into_iter().max() >= Some(applied)
    });
    let run = execute(
        cluster,
        &FaultPlan::new(seed).at(Duration::ZERO, Fault::KillLeader),
    );
    run.write_transcript(transcript_path(test, seed))
        .expect("transcript written");
}

/// Whether every unpaused replica has applied the same number of slots.
fn level(cluster: &LiveSmrCluster) -> bool {
    let slots = cluster.obs_handles().iter().map(|o| o.applied_slots.get());
    let mut live = slots
        .enumerate()
        .filter(|&(i, _)| !cluster.is_paused(i))
        .map(|(_, slots)| slots);
    let first = live.next();
    live.all(|s| Some(s) == first)
}

/// A client that brings a cluster level: one write at a time until every
/// unpaused replica is [`level`]. A replica that was away has to be
/// handed a checkpoint (those come with progress) and then keep up with
/// live slots (which it can once nothing runs ahead of it).
struct Leveller {
    client: SmrClient,
    confirmed: BTreeSet<RequestId>,
}

impl Leveller {
    const ID: u64 = 900;

    fn new(cluster: &LiveSmrCluster) -> Self {
        let client = cluster
            .client(Self::ID)
            .timeouts(Duration::from_millis(500), Duration::from_secs(120));
        Leveller {
            client,
            confirmed: BTreeSet::new(),
        }
    }

    fn level_out(&mut self, cluster: &LiveSmrCluster) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let seq = self.confirmed.len() as u64 + 1;
            self.client
                .submit(put(9_000_000 + seq))
                .expect("write applies while levelling out");
            let client = Self::ID;
            self.confirmed.insert(RequestId { client, seq });
            let settled = Instant::now() + Duration::from_millis(100);
            while !level(cluster) && Instant::now() < settled {
                thread::sleep(Duration::from_millis(5));
            }
            if level(cluster) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "replicas never levelled out: {:?} entries applied",
                cluster.applied_lens()
            );
        }
    }
}

/// Dumps every replica's flight-recorder journal (the probft-obs trace
/// ring) and metrics snapshot next to the transcript, so a failing run's
/// CI artifact carries the per-replica event timeline — phase
/// transitions, view changes, fault markers — alongside the fault plan
/// that caused it. Returns the journal path for the panic message.
fn dump_flight_recorders(test: &str, seed: u64, reports: &[ReplicaReport]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/nemesis");
    let _ = std::fs::create_dir_all(&dir);
    let mut journals = String::new();
    for r in reports {
        journals.push_str(&format!(
            "=== replica {} flight recorder ({} events) ===\n",
            r.id,
            r.journal.len()
        ));
        for event in &r.journal {
            journals.push_str(&format!("{event}\n"));
        }
    }
    let journal_path = dir.join(format!("{test}-seed{seed}.flight.log"));
    let _ = std::fs::write(&journal_path, journals);
    let metrics: Vec<String> = reports.iter().map(|r| r.metrics.to_json()).collect();
    let _ = std::fs::write(
        dir.join(format!("{test}-seed{seed}.metrics.json")),
        format!("[\n{}\n]\n", metrics.join(",\n")),
    );
    journal_path
}

/// Panics with the reproduction seed if the invariant sweep fails, after
/// dumping every replica's flight-recorder journal and metrics snapshot
/// to `target/nemesis/` for the CI failure artifact.
fn sweep(
    test: &str,
    seed: u64,
    reports: &[ReplicaReport],
    excluded: &[usize],
    confirmed: &BTreeSet<RequestId>,
) {
    let mut violations = verify_invariants(reports, excluded, confirmed)
        .err()
        .unwrap_or_default();
    violations.extend(
        verify_exactly_once(reports, excluded)
            .err()
            .unwrap_or_default(),
    );
    if !violations.is_empty() {
        let journals = dump_flight_recorders(test, seed, reports);
        panic!(
            "{test}: invariant sweep failed under NEMESIS_SEED={seed} \
             (rerun: NEMESIS_SEED={seed} cargo test --test nemesis_suite {test}; \
             flight recorders: {}): {violations:#?}",
            journals.display(),
        );
    }
}

/// Acceptance: the leader dies mid-stream while ≥ 4 concurrent clients
/// hammer the cluster. The view change must lose no confirmed request,
/// double none, and leave every unpaused replica with the identical
/// `(total_log_len, log_digest)`. Checkpointing stays off so the whole
/// log is resident and the lost-request check is exact.
#[test]
fn leader_kill_mid_stream_under_concurrent_load() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    let plan = FaultPlan::new(seed).at(Duration::from_millis(200), Fault::KillLeader);
    let (confirmed, _, _) = hammer(&cluster, 4, 200, || {
        let run = execute(&cluster, &plan);
        run.write_transcript(transcript_path("leader_kill", seed))
            .expect("transcript written");
    });

    let excluded: Vec<usize> = (0..7).filter(|&i| cluster.is_paused(i)).collect();
    assert_eq!(excluded.len(), 1, "exactly the killed leader is down");
    let reports = cluster.shutdown();
    assert!(
        confirmed.len() >= 4 * 190,
        "clients made no real progress: {} confirmed",
        confirmed.len()
    );
    sweep("leader_kill", seed, &reports, &excluded, &confirmed);

    // One dead leader costs the log one view change (a second if a
    // loaded machine stalls the new leader past its timeout) — not one
    // per slot opened after the kill.
    for r in reports.iter().filter(|r| !excluded.contains(&r.id)) {
        let changes = r.metrics.counter("view_changes");
        assert!(
            changes <= 2,
            "replica {} went through {changes} view changes",
            r.id
        );
    }

    // The kill armed every survivor's recovery clock; the view change
    // that routed around the dead leader must have cleared it — at least
    // one replica recorded a fault→progress latency sample.
    let recovery_samples: u64 = reports
        .iter()
        .map(|r| {
            r.metrics
                .histogram("recovery_latency_us")
                .map_or(0, |h| h.count())
        })
        .sum();
    assert!(
        recovery_samples >= 1,
        "leader kill recorded no recovery-latency samples across {} replicas",
        reports.len()
    );

    // Always persist this test's flight recorders and metrics snapshots:
    // CI uploads them per seed as the chaos run's telemetry artifact,
    // green or red.
    dump_flight_recorders("leader_kill", seed, &reports);

    // Set *and non-empty*: CI pipes the workflow-dispatch input through as
    // either "1" or "", and plain runs must not trip on the empty string.
    if std::env::var("NEMESIS_FORCE_FAIL").is_ok_and(|v| !v.is_empty()) {
        let journals = dump_flight_recorders("leader_kill", seed, &reports);
        panic!(
            "NEMESIS_FORCE_FAIL set: failing on purpose to demonstrate \
             artifact upload (seed {seed}, transcript {}, flight recorders {})",
            transcript_path("leader_kill", seed).display(),
            journals.display(),
        );
    }
}

/// An asymmetric partition (leader's frames to one follower blackholed,
/// reverse direction intact) with checkpointing on: the starved follower
/// recovers — by quorum traffic from the others or snapshot transfer —
/// and after healing the whole cluster converges on one logical log.
#[test]
fn asymmetric_partition_heals_and_cluster_converges() {
    let seed = seed();
    let n = 7;
    let victim = 3;
    let cluster = LiveSmrBuilder::new(n)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .checkpoint_interval(8)
        .start()
        .expect("cluster boots");

    let leader = cluster.current_leader();
    let plan = FaultPlan::new(seed)
        .at(
            Duration::from_millis(100),
            Fault::Isolate {
                from: leader,
                to: victim,
            },
        )
        .at(Duration::from_millis(700), Fault::Heal);
    let (confirmed, _, _) = hammer(&cluster, 4, 40, || {
        let run = execute(&cluster, &plan);
        run.write_transcript(transcript_path("asymmetric_partition", seed))
            .expect("transcript written");
        // Keep submitting after the heal (inside hammer) until every
        // replica converges; shutdown() also waits for quiescence.
    });
    assert!(!confirmed.is_empty());

    let reports = cluster.shutdown();
    sweep("asymmetric_partition", seed, &reports, &[], &confirmed);
}

/// Seeded latency jitter on every link out of the leader (simnet's
/// `Uniform` delay model ported to real sockets): frames arrive late but
/// never lost, so agreement and the exact lost-request check both hold
/// with checkpointing off.
#[test]
fn latency_jitter_preserves_agreement() {
    let seed = seed();
    let n = 4;
    let cluster = LiveSmrBuilder::new(n)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .start()
        .expect("cluster boots");

    let leader = cluster.current_leader();
    let mut plan = FaultPlan::new(seed);
    for to in 0..n {
        if to != leader {
            plan = plan.at(
                Duration::from_millis(50),
                Fault::Jitter {
                    from: leader,
                    to,
                    min: Duration::from_millis(1),
                    max: Duration::from_millis(8),
                },
            );
        }
    }
    plan = plan.at(Duration::from_millis(900), Fault::Heal);
    let (confirmed, _, _) = hammer(&cluster, 4, 30, || {
        let run = execute(&cluster, &plan);
        run.write_transcript(transcript_path("latency_jitter", seed))
            .expect("transcript written");
    });
    assert!(cluster.net().delayed() > 0, "jitter rules never fired");

    let reports = cluster.shutdown();
    sweep("latency_jitter", seed, &reports, &[], &confirmed);
}

/// Live Byzantine peers replay the sim's adversaries over real sockets:
/// equivocating proposals signed with the leader's actual key, plus a
/// far-future slot spray. Safety must hold (identical logs, nothing
/// lost or doubled) and the spray must be dropped-and-counted, not
/// buffered.
#[test]
fn byzantine_equivocation_and_far_future_spray_survived() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .start()
        .expect("cluster boots");

    let plan = FaultPlan::new(seed)
        .at(Duration::from_millis(100), Fault::Equivocate)
        .at(Duration::from_millis(200), Fault::FarFutureSpray)
        .at(Duration::from_millis(350), Fault::Equivocate);
    let (confirmed, _, _) = hammer(&cluster, 4, 30, || {
        let run = execute(&cluster, &plan);
        run.write_transcript(transcript_path("byzantine", seed))
            .expect("transcript written");
    });

    let reports = cluster.shutdown();
    let sprayed: u64 = reports
        .iter()
        .map(|r| r.metrics.counter("drops_future_horizon"))
        .sum();
    assert!(
        sprayed > 0,
        "the far-future spray must be dropped and counted somewhere"
    );
    sweep("byzantine", seed, &reports, &[], &confirmed);
}

/// Admission control plus the client-side bugfix: an overloaded leader
/// sheds with an explicit `Overloaded` reply, the client backs off and
/// retries the *same* leader (no rotation stampede), and every
/// submission still lands exactly once.
#[test]
fn overloaded_leader_sheds_and_clients_back_off() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(4)
        .seed(seed)
        .pipeline_depth(1)
        .batch_size(1)
        .max_pending(1)
        .start()
        .expect("cluster boots");

    // No nemesis: the fault is the load itself against a 1-deep queue.
    let (confirmed, overloads, _) = hammer(&cluster, 6, 15, || {});
    assert_eq!(
        confirmed.len(),
        6 * 15,
        "every submission must eventually be confirmed despite shedding"
    );

    let reports = cluster.shutdown();
    let shed: u64 = reports
        .iter()
        .map(|r| r.metrics.counter("shed_requests"))
        .sum();
    assert!(shed > 0, "the 1-deep queue never shed under 6 clients");
    assert!(
        overloads > 0,
        "clients never observed an Overloaded reply despite {shed} sheds"
    );
    sweep("overload", seed, &reports, &[], &confirmed);
}

/// Adaptive batching closes the loop deterministically in the sim
/// harness: with the whole workload queued up front, batch sizes grow to
/// drain the queue across the pipeline window instead of trickling out
/// `batch_size` at a time — far fewer slots for the same log, with logs
/// still identical.
#[test]
fn sim_adaptive_batching_drains_deep_queues_in_fewer_slots() {
    let target = 96;
    let static_run = SmrBuilder::new(4, target)
        .seed(5)
        .pipeline_depth(4)
        .batch_size(2)
        .workload(ReplicaId(0), (0..target).map(|i| put(i as u64)).collect())
        .run();
    let adaptive_run = SmrBuilder::new(4, target)
        .seed(5)
        .pipeline_depth(4)
        .batch_size(2)
        .adaptive_batching(true)
        .workload(ReplicaId(0), (0..target).map(|i| put(i as u64)).collect())
        .run();

    assert!(static_run.logs_consistent() && static_run.states_consistent());
    assert!(adaptive_run.logs_consistent() && adaptive_run.states_consistent());
    assert_eq!(adaptive_run.total_log_lens()[0], target as u64);
    assert!(
        adaptive_run.throughput.slots_applied < static_run.throughput.slots_applied,
        "adaptive batching must pack deep queues into fewer slots \
         ({} vs {} static)",
        adaptive_run.throughput.slots_applied,
        static_run.throughput.slots_applied,
    );
    assert!(
        adaptive_run.throughput.mean_batch_size() > static_run.throughput.mean_batch_size(),
        "observed-queue batches must beat the static cap"
    );
}

/// Pause/resume edge cases: double-pause, resume-without-pause, and
/// out-of-range ids are all harmless no-ops, and the cluster keeps
/// serving through them.
#[test]
fn pause_resume_edge_cases_are_idempotent() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(4)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .start()
        .expect("cluster boots");

    // Resume a replica that was never paused, twice.
    cluster.resume(2);
    cluster.resume(2);
    assert!(!cluster.is_paused(2));
    // Double-pause is one pause.
    cluster.pause(3);
    cluster.pause(3);
    assert!(cluster.is_paused(3));
    // Out-of-range ids are no-ops, not panics.
    cluster.pause(99);
    cluster.resume(99);
    assert!(!cluster.is_paused(99));
    // A double-paused replica needs exactly one resume.
    cluster.resume(3);
    assert!(!cluster.is_paused(3));

    let (confirmed, _, _) = hammer(&cluster, 2, 10, || {});
    let reports = cluster.shutdown();
    sweep("pause_edge_cases", seed, &reports, &[], &confirmed);
}

/// Pausing the leader right as a checkpoint stabilizes: submit exactly
/// to a checkpoint boundary, kill the leader there, keep the cluster
/// under load through the view change, then resume. The resident-log
/// bound must still hold on every replica — the mid-pause view change
/// and catch-up must not strand untruncated history anywhere.
#[test]
fn pausing_leader_at_checkpoint_boundary_keeps_resident_bound() {
    let seed = seed();
    let interval = 8usize;
    let depth = 4usize;
    let n = 7;
    let cluster = LiveSmrBuilder::new(n)
        .seed(seed)
        .pipeline_depth(depth)
        .batch_size(1)
        .checkpoint_interval(interval)
        .start()
        .expect("cluster boots");

    // Drive exactly one interval of entries so a checkpoint is taken and
    // stabilizing right about now, then kill the leader on the boundary.
    let mut client = cluster
        .client(1)
        .timeouts(Duration::from_millis(500), Duration::from_secs(120));
    for i in 0..interval as u64 {
        client.submit(put(i)).expect("pre-boundary write applies");
    }
    let leader = cluster.current_leader();
    cluster.pause(leader);

    // Keep the cluster under load across the view change and well past
    // several more stable checkpoints, then bring the old leader back so
    // it must catch up (snapshot transfer if it fell past the horizon).
    for i in interval as u64..(3 * interval) as u64 {
        client
            .submit(put(i))
            .expect("write applies across the kill");
    }
    cluster.resume(leader);
    for i in (3 * interval) as u64..(4 * interval) as u64 {
        client.submit(put(i)).expect("write applies after resume");
    }

    let confirmed: BTreeSet<RequestId> = (0..(4 * interval) as u64)
        .map(|i| RequestId {
            client: 1,
            seq: i + 1,
        })
        .collect();
    let reports = cluster.shutdown();
    // Resume happened late: the old leader may still be syncing when the
    // quiescence wait gives up, so agreement is asserted over the others
    // and the bound over everyone who truncated.
    let synced: Vec<usize> = reports
        .iter()
        .filter(|r| r.total_log_len() == reports[(leader + 1) % n].total_log_len())
        .map(|r| r.id)
        .collect();
    assert!(
        synced.len() >= n - 1,
        "only {synced:?} converged after resume"
    );
    let excluded: Vec<usize> = (0..n).filter(|i| !synced.contains(i)).collect();
    let bound = (2 * interval + depth) as u64;
    for r in reports.iter().filter(|r| synced.contains(&r.id)) {
        assert!(
            (r.log.len() as u64) <= bound,
            "replica {} holds {} resident entries (bound {bound}) — the \
             boundary-tick pause broke truncation",
            r.id,
            r.log.len(),
        );
        // A replica that caught up by snapshot (the resumed leader) skips
        // the checkpoints it slept through, so "did not stop
        // checkpointing" is the stable checkpoint advancing everywhere,
        // and `taken` only where nothing was transferred.
        let stable_slot = r.metrics.gauge("stable_slot");
        let transfers = r.metrics.counter("state_transfers");
        let taken = r.metrics.counter("checkpoints_taken");
        assert!(
            stable_slot >= (2 * interval) as u64,
            "replica {} stopped checkpointing: stable slot {stable_slot}",
            r.id,
        );
        assert!(
            transfers > 0 || taken >= 2,
            "replica {} stopped taking checkpoints: {taken} taken, {transfers} transfers",
            r.id,
        );
    }
    sweep(
        "checkpoint_boundary_pause",
        seed,
        &reports,
        &excluded,
        &confirmed,
    );
}

/// Leader kills back to back: the view-1 leader, and then — once it is
/// back and level with the rest — the view-2 leader that replaced it. (At
/// n = 7 the probabilistic quorum is q = 6: the cluster decides nothing
/// with two replicas away, so the second kill waits for the first victim;
/// what is back to back is the leaders, not the outages.) The log moves
/// to view 2 and then to view 3, each for one timeout.
#[test]
fn back_to_back_leader_kills_move_the_log_twice() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .checkpoint_interval(8)
        .start()
        .expect("cluster boots");

    let first = cluster.current_leader();
    let (mut confirmed, _, _) = hammer_from(&cluster, 1, 2, 40, || {
        kill_leader_after(&cluster, seed, 10, "back_to_back_1");
    });
    assert!(cluster.is_paused(first));
    wait_for("view 2", || cluster.current_view() >= View(2));

    cluster.resume(first);
    let mut leveller = Leveller::new(&cluster);
    leveller.level_out(&cluster);

    let second = cluster.current_leader();
    assert_ne!(second, first, "the log still runs under the killed leader");
    let before = cluster.applied_lens().into_iter().max().unwrap_or(0);
    let (more, _, _) = hammer_from(&cluster, 11, 2, 40, || {
        kill_leader_after(&cluster, seed, before + 10, "back_to_back_2");
    });
    confirmed.extend(more);
    assert!(cluster.is_paused(second) && !cluster.is_paused(first));
    wait_for("view 3", || cluster.current_view() >= View(3));
    assert_eq!(confirmed.len(), 4 * 40, "a write was given up on");
    confirmed.extend(leveller.confirmed);

    let reports = cluster.shutdown();
    sweep("back_to_back", seed, &reports, &[second], &confirmed);
    for r in reports.iter().filter(|r| r.id != second) {
        assert!(
            r.metrics.gauge("view") >= 3,
            "replica {} is in view {}",
            r.id,
            r.metrics.gauge("view")
        );
    }
}

/// A kill with a full pipeline: four closed-loop clients keep four slots
/// in flight at depth 4, and the leader dies late enough in the run that
/// the flight recorders still hold the view change at shutdown. Every
/// slot a survivor opened is decided and applied — none is left in
/// flight — every write is confirmed, and none that was confirmed is lost:
/// a slot that had prepared a value before the view moved decided it.
#[test]
fn leader_kill_with_a_full_pipeline_decides_every_open_slot() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    let (clients, ops) = (4, 200);
    let (confirmed, _, _) = hammer(&cluster, clients, ops, || {
        // With some 150 writes to go.
        kill_leader_after(&cluster, seed, clients * ops - 150, "full_pipeline");
    });
    assert_eq!(
        confirmed.len() as u64,
        clients * ops,
        "a write was given up on"
    );

    let excluded: Vec<usize> = (0..7).filter(|&i| cluster.is_paused(i)).collect();
    assert_eq!(excluded.len(), 1);
    let reports = cluster.shutdown();
    sweep("full_pipeline", seed, &reports, &excluded, &confirmed);
    for r in reports.iter().filter(|r| !excluded.contains(&r.id)) {
        assert_eq!(
            r.resident_slots, 0,
            "replica {} left a slot in flight",
            r.id
        );
        assert!((1..=2).contains(&r.metrics.counter("view_changes")));
        let slots = |pick: fn(&TraceKind) -> Option<u64>| -> BTreeSet<u64> {
            r.journal.iter().filter_map(|e| pick(&e.kind)).collect()
        };
        let opened = slots(|k| match k {
            TraceKind::SlotOpened { slot, .. } => Some(*slot),
            _ => None,
        });
        let decided = slots(|k| match k {
            TraceKind::SlotDecided { slot, .. } => Some(*slot),
            _ => None,
        });
        assert!(
            r.journal
                .iter()
                .any(|e| matches!(e.kind, TraceKind::ViewChange { .. })),
            "replica {}'s flight recorder lost the view change",
            r.id
        );
        let undecided: Vec<_> = opened.difference(&decided).collect();
        assert!(undecided.is_empty(), "replica {}: {undecided:?}", r.id);
    }
}

/// Kill, then resume, the old leader. It comes back believing it leads
/// view 1; the checkpoints hand it the log, the answers to its first wish
/// hand it the view, and from then on it turns clients away toward the
/// new leader like any follower — and ends the run level with everyone.
#[test]
fn resumed_old_leader_learns_the_view_and_redirects() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .checkpoint_interval(8)
        .start()
        .expect("cluster boots");

    let old = cluster.current_leader();
    let (mut confirmed, _, _) = hammer(&cluster, 2, 40, || {
        kill_leader_after(&cluster, seed, 10, "kill_resume");
    });
    wait_for("view 2", || cluster.current_view() >= View(2));
    let new = cluster.current_leader();
    assert_ne!(new, old);

    cluster.resume(old);
    let mut leveller = Leveller::new(&cluster);
    leveller.level_out(&cluster);
    let old_obs = cluster.obs(old).expect("in range");
    wait_for("the resumed replica to reach the log's view", || {
        View(old_obs.view.get()) == cluster.current_view()
    });

    // A client that still believes in the old leader is sent on.
    let served_before = old_obs.redirects_served.get();
    let mut late = cluster
        .client(20)
        .leader_hint(old)
        .timeouts(Duration::from_millis(500), Duration::from_secs(120));
    late.submit(put(7_000_000)).expect("write applies");
    confirmed.insert(RequestId { client: 20, seq: 1 });
    assert!(late.redirects() >= 1);
    assert!(old_obs.redirects_served.get() > served_before);
    leveller.level_out(&cluster);
    confirmed.extend(leveller.confirmed);

    let reports = cluster.shutdown();
    let named: BTreeSet<u64> = reports[old]
        .journal
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RedirectServed { leader } => Some(leader),
            _ => None,
        })
        .collect();
    assert!(
        named.contains(&(new as u64)),
        "it named {named:?}, never {new}"
    );
    assert_eq!(reports[old].metrics.counter("view_changes"), 1);
    // The sweep includes the resumed replica.
    sweep("kill_resume", seed, &reports, &[], &confirmed);
}

/// `Fault::Equivocate` after a `KillLeader`: the log is in view 2, so the
/// nemesis must forge there — under replica 1's key, with the quorum of
/// `NewLeader` reports a view-2 proposal needs — or its frames are thrown
/// out at the door and test nothing. Every replica buffers its forgery for
/// a slot a little ahead; when the load gets there each meets the forgery
/// first and the leader's own proposal second, detects the equivocation
/// (lines 23–25), and the slot waits out a view change — after which the
/// log carries on under the next leader.
#[test]
fn equivocation_after_a_leader_kill_is_forged_in_the_logs_view() {
    let seed = seed();
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(2)
        .start()
        .expect("cluster boots");

    let (mut confirmed, _, _) = hammer_from(&cluster, 1, 2, 20, || {
        kill_leader_after(&cluster, seed, 5, "equivocate_after_kill_1");
    });
    wait_for("view 2, and quiet", || {
        cluster.current_view() >= View(2) && level(&cluster)
    });
    let forged_in = cluster.current_view();

    let run = execute(
        &cluster,
        &FaultPlan::new(seed).at(Duration::ZERO, Fault::Equivocate),
    );
    run.write_transcript(transcript_path("equivocate_after_kill_2", seed))
        .expect("transcript written");
    assert!(
        run.transcript
            .iter()
            .any(|line| line.contains(&format!("view {}, ", forged_in.0))),
        "{:?}",
        run.transcript
    );

    let (more, _, _) = hammer_from(&cluster, 11, 2, 20, || {});
    confirmed.extend(more);
    assert_eq!(confirmed.len(), 80);
    // The forged slot blocked its view; the log left it behind.
    assert!(cluster.current_view() > forged_in);

    let excluded: Vec<usize> = (0..7).filter(|&i| cluster.is_paused(i)).collect();
    let reports = cluster.shutdown();
    let detected: u64 = reports
        .iter()
        .map(|r| r.metrics.counter("equivocations_detected"))
        .sum();
    assert!(detected >= 1, "forgeries that verify are seen to conflict");
    sweep(
        "equivocate_after_kill",
        seed,
        &reports,
        &excluded,
        &confirmed,
    );
}
