//! Integration tests for the SMR extension and the live TCP runtime.

mod live;

use live::{hammer, sweep};
use probft::quorum::ReplicaId;
use probft::runtime::LiveSmrBuilder;
use probft::smr::{Command, Entry, KvResponse, SmrBuilder};

/// Multi-slot SMR with commands queued at several replicas: identical
/// logs and states everywhere. In a healthy run every slot's view-1
/// leader is the same replica, so only *its* queue is ordered — the
/// follower's queued command stays pending without corrupting anything
/// (in the live cluster, clients route commands to the leader instead of
/// queueing them at followers).
#[test]
fn smr_orders_multi_replica_workload() {
    let n = 7;
    let target = 2;
    let outcome = SmrBuilder::new(n, target)
        .seed(3)
        .workload(
            ReplicaId(0),
            vec![
                Command::Put {
                    key: "a".into(),
                    value: "1".into(),
                },
                Command::Put {
                    key: "b".into(),
                    value: "2".into(),
                },
            ],
        )
        .workload(
            ReplicaId(1),
            vec![Command::Put {
                key: "c".into(),
                value: "3".into(),
            }],
        )
        .run();

    assert!(outcome.logs_consistent(), "{:?}", outcome.logs);
    assert!(outcome.states_consistent());
    let log = outcome.agreed_log().expect("consistent");
    assert_eq!(log.len(), target);
    // Slot 0's leader is replica 0, so the log is its queue in order.
    assert_eq!(
        log[0],
        Entry::write(Command::Put {
            key: "a".into(),
            value: "1".into()
        })
    );
    assert_eq!(
        log[1],
        Entry::write(Command::Put {
            key: "b".into(),
            value: "2".into()
        })
    );
    // The follower's command was never ordered (it never led a view) and
    // never leaked into any state.
    assert!(outcome.states.iter().all(|s| s.get("c").is_none()));
}

/// SMR determinism: same seed, same ordered log.
#[test]
fn smr_is_deterministic() {
    let build = |seed| {
        SmrBuilder::new(7, 2)
            .seed(seed)
            .workload(
                ReplicaId(0),
                vec![
                    Command::Put {
                        key: "x".into(),
                        value: "1".into(),
                    },
                    Command::Delete { key: "x".into() },
                ],
            )
            .run()
    };
    let a = build(9);
    let b = build(9);
    assert_eq!(a.logs, b.logs);
}

/// A put-heavy workload for throughput experiments.
fn put_workload(count: usize) -> Vec<Command> {
    (0..count)
        .map(|i| Command::Put {
            key: format!("key{i}"),
            value: format!("val{i}"),
        })
        .collect()
}

/// Acceptance: with pipeline depth 4 and batch size 8, a 64-command
/// workload is ordered in measurably fewer simulated ticks than the
/// strictly sequential (depth 1, batch 1) baseline.
#[test]
fn pipelined_batched_run_beats_sequential_baseline() {
    let workload = put_workload(64);

    let sequential = SmrBuilder::new(4, 64)
        .seed(7)
        .pipeline_depth(1)
        .batch_size(1)
        .workload(ReplicaId(0), workload.clone())
        .run();
    let pipelined = SmrBuilder::new(4, 64)
        .seed(7)
        .pipeline_depth(4)
        .batch_size(8)
        .workload(ReplicaId(0), workload)
        .run();

    for outcome in [&sequential, &pipelined] {
        assert!(outcome.logs_consistent(), "{:?}", outcome.run_outcome);
        assert!(outcome.states_consistent());
        assert_eq!(outcome.logs[0].len(), 64);
    }
    // Same commands, same final state, very different shape of the run.
    assert_eq!(sequential.states[0], pipelined.states[0]);
    assert_eq!(sequential.throughput.slots_applied, 64);
    assert_eq!(pipelined.throughput.slots_applied, 8);
    assert!((pipelined.throughput.mean_batch_size() - 8.0).abs() < 1e-9);

    let seq_ticks = sequential.finished_at.ticks();
    let pipe_ticks = pipelined.finished_at.ticks();
    assert!(
        pipe_ticks * 4 <= seq_ticks,
        "depth 4 × batch 8 should cut ticks at least 4×: sequential {seq_ticks}, \
         pipelined {pipe_ticks}"
    );
    assert!(
        pipelined.throughput.commands_per_megatick()
            > sequential.throughput.commands_per_megatick()
    );
}

/// Equivalence: a pipelined run (depth > 1) must produce a log and final
/// state identical to the sequential depth-1 run of the same workload,
/// seed, and batch size.
#[test]
fn pipelined_run_matches_sequential_log_and_state() {
    let workload = put_workload(24);
    let run = |depth: usize| {
        SmrBuilder::new(4, 24)
            .seed(13)
            .pipeline_depth(depth)
            .batch_size(4)
            .workload(ReplicaId(0), workload.clone())
            .run()
    };
    let sequential = run(1);
    let pipelined = run(4);
    assert!(sequential.logs_consistent() && pipelined.logs_consistent());
    assert_eq!(sequential.logs, pipelined.logs);
    assert_eq!(sequential.states, pipelined.states);
}

/// Memory bound: a long pipelined run keeps per-slot consensus state
/// pruned — at the end of a 96-command run no replica holds more resident
/// slot instances than the pipeline depth, and the bounded future-slot
/// buffer dropped nothing in this honest run.
#[test]
fn long_pipelined_run_keeps_resident_slots_bounded() {
    let outcome = SmrBuilder::new(4, 96)
        .seed(21)
        .pipeline_depth(4)
        .batch_size(2)
        .workload(ReplicaId(0), put_workload(96))
        .run();
    assert!(outcome.logs_consistent());
    assert_eq!(outcome.logs[0].len(), 96);
    for (i, &resident) in outcome.resident_slots.iter().enumerate() {
        assert!(
            resident <= 4,
            "replica {i} holds {resident} resident slots after the run \
             (pipeline depth 4) — decided slots must be pruned"
        );
    }
    for counter in ["drops_future_horizon", "drops_slot_flood"] {
        let dropped: u64 = outcome
            .replica_metrics
            .iter()
            .map(|m| m.counter(counter))
            .sum();
        assert_eq!(dropped, 0, "honest runs must not hit {counter}");
    }
}

/// Acceptance: a live 4-replica TCP cluster serves commands submitted
/// through `SmrClient` — including a leader redirect (the client starts
/// at a follower) and a retried request id (applied exactly once, with
/// the original response replayed from the reply cache) — and every
/// replica applies the identical log.
#[test]
fn live_cluster_serves_clients_with_redirect_and_retry() {
    let cluster = LiveSmrBuilder::new(4)
        .seed(77)
        .pipeline_depth(4)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    // Start at replica 2 (a follower): the first submission must bounce
    // off a redirect before landing on the leader.
    let mut client = cluster.client(9).leader_hint(2);
    assert_eq!(
        client.put("x", "1").expect("applied"),
        KvResponse::Prev(None)
    );
    assert_eq!(
        client.put("y", "2").expect("applied"),
        KvResponse::Prev(None)
    );
    // Typed responses: the delete reports what it removed.
    assert_eq!(
        client.delete("x").expect("applied"),
        KvResponse::Removed(Some("1".into()))
    );
    assert!(client.redirects() >= 1, "no redirect was exercised");
    // The client's telemetry is on without being asked for: one RTT sample
    // per confirmed submission, and the redirect in its registry.
    assert_eq!(client.obs().request_rtt_us.count(), 3);
    assert_eq!(
        client.obs().snapshot().counter("client_redirects"),
        client.redirects()
    );

    // Retry the last request id: acknowledged from the reply cache with
    // the *original* response, not re-executed.
    assert_eq!(
        client.retry_last().expect("acknowledged"),
        KvResponse::Removed(Some("1".into()))
    );
    assert!(client.retries() >= 1);
    let telemetry = client.obs().snapshot();
    assert_eq!(telemetry.label(), "client-9");
    assert_eq!(telemetry.counter("client_retries"), client.retries());
    assert_eq!(client.obs().request_rtt_us.count(), 4);
    // Honest peers and clients send no frame a replica rejects.
    for obs in cluster.obs_handles() {
        assert_eq!(obs.frames_malformed.get(), 0);
    }

    let reports = cluster.shutdown();
    assert_eq!(reports.len(), 4);
    let first = &reports[0];
    assert!(
        reports.iter().all(|r| r.log == first.log),
        "replica logs diverged: {:?}",
        reports.iter().map(|r| r.log.len()).collect::<Vec<_>>()
    );
    assert!(reports.iter().all(|r| r.state == first.state));
    // Exactly-once despite the retry: three operations executed.
    assert_eq!(first.state.applied(), 3);
    assert_eq!(first.state.get("y"), Some("2"));
    assert_eq!(first.state.get("x"), None);
    // Slot state was pruned as the log advanced.
    assert!(reports.iter().all(|r| r.resident_slots <= 4));
}

/// A port that cannot be bound is a typed error from `start`, not a panic.
#[test]
fn live_cluster_reports_a_bind_conflict() {
    use probft::runtime::ClusterError;

    // Hold an OS-assigned port, then ask the cluster to use exactly it —
    // a guaranteed conflict without hardcoding a port number.
    let hold = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = hold.local_addr().expect("addr").port();
    let err = LiveSmrBuilder::new(4).base_port(port).start().err();
    assert!(matches!(err, Some(ClusterError::Bind(_))), "{err:?}");
}

/// A duplicate request frame racing its original through consensus may be
/// *ordered* twice but must be *executed* once: the replicated dedup is
/// part of the state machine, so every replica skips the duplicate
/// identically.
#[test]
fn duplicate_request_id_executes_exactly_once() {
    use probft::runtime::{write_frame, SmrFrame};
    use probft::smr::{KvStore, OpKind, RequestId};
    use probft_core::wire::Wire;
    use std::net::TcpStream;

    let cluster = LiveSmrBuilder::new(4)
        .seed(31)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    // Raw client: send the same request id twice back-to-back to the
    // leader (replica 0) before reading any reply, so both copies can
    // enter the pending queue and be decided.
    let request = RequestId { client: 5, seq: 1 };
    let frame = SmrFrame::<KvStore>::Request {
        request,
        kind: OpKind::Write,
        op: Command::Put {
            key: "dup".into(),
            value: "once".into(),
        },
    }
    .to_wire_bytes();
    let mut conn = TcpStream::connect(cluster.addrs()[0]).expect("connect");
    write_frame(&mut conn, &frame).expect("first copy");
    write_frame(&mut conn, &frame).expect("second copy");

    // Wait for the applied reply (at least one arrives post-apply).
    conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let reply = probft::runtime::read_frame(&mut std::io::BufReader::new(&mut conn))
        .expect("reply frame")
        .expect("not EOF");
    assert!(matches!(
        SmrFrame::<KvStore>::from_wire_bytes(&reply),
        Ok(SmrFrame::Reply(probft::runtime::SmrReply::Applied { request: r, .. })) if r == request
    ));

    let reports = cluster.shutdown();
    let first = &reports[0];
    assert!(reports.iter().all(|r| r.log == first.log));
    assert!(reports.iter().all(|r| r.state == first.state));
    assert_eq!(
        first.state.applied(),
        1,
        "duplicate request id must execute exactly once (log held {} entries)",
        first.log.len()
    );
    assert_eq!(first.state.get("dup"), Some("once"));
}

/// Torn and garbage client frames must not panic a replica's reader
/// thread or wedge the cluster: after a rogue client sends malformed
/// bytes and disconnects mid-frame, a well-behaved client still gets its
/// command applied.
#[test]
fn torn_client_frames_do_not_wedge_the_cluster() {
    use probft::runtime::{write_frame, ReplicaReport};
    use std::io::Write;
    use std::net::TcpStream;

    let cluster = LiveSmrBuilder::new(4).seed(53).start().expect("boots");

    // Garbage frame (undecodable), then a torn frame (half a length
    // prefix, then disconnect) against two different replicas.
    let mut rogue = TcpStream::connect(cluster.addrs()[0]).expect("connect");
    write_frame(&mut rogue, &[0xDE, 0xAD, 0xBE, 0xEF]).expect("garbage");
    let mut torn = TcpStream::connect(cluster.addrs()[1]).expect("connect");
    torn.write_all(&[0, 0]).expect("half a prefix");
    drop(torn);
    drop(rogue);

    let mut client = cluster.client(2);
    client.put("alive", "yes").expect("cluster still serves");

    let reports = cluster.shutdown();
    assert!(reports.iter().all(|r| r.state.get("alive") == Some("yes")));
    let metrics = ReplicaReport::aggregate_metrics(&reports);
    assert!(
        metrics.counter("frames_malformed") >= 1,
        "garbage frame must be counted"
    );
    assert!(
        metrics.counter("frames_torn") >= 1,
        "torn frame must be counted"
    );
}

/// Admission control plus the client-side bugfix: an overloaded leader
/// sheds with an explicit `Overloaded` reply, the client backs off and
/// retries the *same* leader (no rotation stampede), and every
/// submission still lands exactly once.
#[test]
fn overloaded_leader_sheds_and_clients_back_off() {
    let seed = 1;
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

/// Pause/resume edge cases: double-pause, resume-without-pause, and
/// out-of-range ids are all harmless no-ops, and the cluster keeps
/// serving through them.
#[test]
fn pause_resume_edge_cases_are_idempotent() {
    let seed = 1;
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

mod live_matches_sim {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The live TCP cluster orders a random command set into exactly
        /// the log a simulated run produces for the same commands: the
        /// client-submitted sequence, in submission order, on every
        /// replica — real sockets change the substrate, not the contract.
        #[test]
        fn live_log_equals_simulated_log(entries in proptest::collection::vec((0u8..2, 0u8..4, ".{1,8}"), 1..10)) {
            let commands: Vec<Command> = entries
                .into_iter()
                .map(|(which, key, value)| match which {
                    0 => Command::Put { key: format!("k{key}"), value },
                    _ => Command::Delete { key: format!("k{key}") },
                })
                .collect();

            // Live run: one sequential client, so submission order is the
            // expected log order.
            let cluster = LiveSmrBuilder::new(4)
                .seed(5)
                .batch_size(2)
                .start()
                .expect("cluster boots");
            let mut client = cluster.client(1);
            for cmd in &commands {
                client.submit(cmd.clone()).expect("applied");
            }
            let reports = cluster.shutdown();
            prop_assert!(reports.windows(2).all(|w| w[0].log == w[1].log));
            prop_assert!(reports.windows(2).all(|w| w[0].state == w[1].state));
            let live_ops: Vec<Command> =
                reports[0].log.iter().map(|e| e.op().clone()).collect();

            // Simulated run of the same command set.
            let sim = SmrBuilder::new(4, commands.len())
                .seed(5)
                .batch_size(2)
                .workload(ReplicaId(0), commands.clone())
                .run();
            prop_assert!(sim.logs_consistent());
            let sim_ops: Vec<Command> = sim
                .agreed_log()
                .expect("consistent")
                .iter()
                .map(|e| e.op().clone())
                .collect();

            prop_assert_eq!(&live_ops, &sim_ops);
            prop_assert_eq!(&live_ops, &commands);
        }
    }
}
