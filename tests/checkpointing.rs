//! Integration tests for the checkpoint subsystem: periodic stable
//! checkpoints, log truncation, snapshot state transfer for laggards, and
//! the follower-initiated slot probe that unsticks a silent leader.

#![allow(
    clippy::disallowed_methods,
    reason = "this file polls a live cluster from outside: std::thread::sleep is its clock"
)]

use probft::quorum::ReplicaId;
use probft::runtime::LiveSmrBuilder;
use probft::smr::{Command, SmrBuilder};
use std::time::{Duration, Instant};

fn put(i: usize) -> Command {
    Command::Put {
        key: format!("key{i}"),
        value: format!("val{i}"),
    }
}

/// Simulated run: with a checkpoint interval set, every replica truncates
/// its resident log behind stable checkpoints while the *logical* logs
/// and states stay identical — the digest chain proves full-log equality
/// even though the resident suffixes were cut at (possibly different)
/// checkpoint boundaries.
#[test]
fn sim_checkpoints_truncate_without_breaking_consistency() {
    let target = 96;
    let interval = 16;
    let batch = 2;
    let outcome = SmrBuilder::new(4, target)
        .seed(11)
        .pipeline_depth(4)
        .batch_size(batch)
        .checkpoint_interval(interval)
        .workload(ReplicaId(0), (0..target).map(put).collect())
        .run();

    assert!(outcome.states_consistent());
    assert!(outcome.logs_consistent(), "digest-chain equality must hold");
    assert!(outcome
        .total_log_lens()
        .iter()
        .all(|&len| len == target as u64));
    for (i, metrics) in outcome.replica_metrics.iter().enumerate() {
        let taken = metrics.counter("checkpoints_taken");
        assert!(
            taken >= 2,
            "replica {i} took only {taken} checkpoints over {} slots (interval {interval})",
            target / batch,
        );
        assert!(
            metrics.gauge("stable_slot") >= interval as u64,
            "replica {i} never saw a checkpoint become stable"
        );
        let truncated = metrics.counter("truncated_entries");
        assert!(
            truncated > 0,
            "replica {i} truncated nothing despite stable checkpoints"
        );
        assert_eq!(
            outcome.log_offsets[i], truncated,
            "offset and truncation accounting must agree"
        );
        // The resident log is the suffix above the stable checkpoint.
        assert_eq!(
            outcome.logs[i].len() as u64 + outcome.log_offsets[i],
            target as u64
        );
    }
    // An honest run must stabilise checkpoints without any vote drops.
    let vote_drops: u64 = outcome
        .replica_metrics
        .iter()
        .map(|m| m.counter("drops_invalid_checkpoint"))
        .sum();
    assert_eq!(vote_drops, 0);
}

/// Acceptance: a long live run with `checkpoint_interval = 32` keeps
/// every replica's resident command log bounded by O(interval +
/// pipeline_depth) entries — the full 200-entry history never sits in
/// memory — while states and logical logs stay identical.
#[test]
fn live_resident_log_stays_bounded_with_interval_32() {
    let interval = 32usize;
    let depth = 4usize;
    let total = 200usize;
    let cluster = LiveSmrBuilder::new(4)
        .seed(91)
        .pipeline_depth(depth)
        .batch_size(1)
        .checkpoint_interval(interval)
        .start()
        .expect("cluster boots");

    let mut client = cluster.client(1);
    for i in 0..total {
        client.submit(put(i)).expect("command applies");
    }

    let reports = cluster.shutdown();
    let first = &reports[0];
    // O(interval + pipeline_depth): at shutdown the newest checkpoint may
    // still be collecting votes, so allow up to two intervals plus the
    // pipeline window — far below the total history.
    let bound = (2 * interval + depth) as u64;
    for r in &reports {
        assert_eq!(r.total_log_len(), total as u64);
        assert!(
            (r.log.len() as u64) <= bound,
            "replica {} holds {} resident entries (bound {bound}, total {total})",
            r.id,
            r.log.len(),
        );
        let truncated = r.metrics.counter("truncated_entries");
        assert!(
            truncated >= (total - 2 * interval - depth) as u64,
            "replica {} truncated only {truncated} entries",
            r.id,
        );
        assert!(r.metrics.counter("checkpoints_taken") >= 2);
        assert_eq!(r.state, first.state);
        assert_eq!(r.log_digest, first.log_digest, "logical logs diverged");
        assert_eq!(r.state.applied(), total as u64);
    }
}

/// Satellites 2+3: a replica stalled mid-stream falls beyond the (now
/// shrunken) future-slot buffering horizon, so consensus alone can never
/// bring it back — peers prune decided slots and never retransmit. With
/// checkpointing on it must instead catch up by verified snapshot
/// transfer (`StateRequest`/`StateReply`), rejoin consensus, and converge
/// on the identical logical log and state.
#[test]
fn live_stalled_replica_catches_up_by_state_transfer_not_replay() {
    let n = 7; // probabilistic quorum 6 ⇒ the cluster survives one stall
    let laggard = 5;
    let interval = 8usize;
    let cluster = LiveSmrBuilder::new(n)
        .seed(37)
        .pipeline_depth(4)
        .batch_size(1)
        .checkpoint_interval(interval)
        .start()
        .expect("cluster boots");

    let mut client = cluster.client(1);
    let mut submitted = 0usize;
    for _ in 0..12 {
        client.submit(put(submitted)).expect("applies");
        submitted += 1;
    }

    // Stall one follower and run the cluster well past several stable
    // checkpoints: everything it misses is truncated behind it.
    cluster.pause(laggard);
    for _ in 0..5 * interval {
        client
            .submit(put(submitted))
            .expect("applies while stalled");
        submitted += 1;
    }
    let stalled_at = cluster.applied_lens()[laggard];

    // Un-stall it and keep traffic flowing: the next stable checkpoint's
    // attestations are its catch-up signal. Keep submitting until its
    // applied length rejoins the pack (each boundary gives it a fresh
    // transfer opportunity).
    cluster.resume(laggard);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        client.submit(put(submitted)).expect("applies after resume");
        submitted += 1;
        std::thread::sleep(Duration::from_millis(25));
        let lens = cluster.applied_lens();
        if lens.iter().all(|&l| l == lens[0]) && lens[laggard] > stalled_at {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "laggard never caught up: lens {lens:?} after {submitted} submissions"
        );
    }

    let reports = cluster.shutdown();
    let first = &reports[0];
    let lagger = &reports[laggard];
    assert!(
        lagger.metrics.counter("state_transfers") >= 1,
        "the laggard must have restored a transferred snapshot"
    );
    assert!(
        lagger.log_offset >= stalled_at + interval as u64 - 1,
        "the laggard's early log must have arrived by snapshot (offset {}), \
         not replay (stalled at {stalled_at})",
        lagger.log_offset,
    );
    assert!(
        lagger.metrics.counter("drops_future_horizon") > 0,
        "traffic beyond the shrunken horizon must have been dropped, \
         proving recovery came from transfer"
    );
    for r in &reports {
        assert_eq!(r.total_log_len(), submitted as u64, "replica {}", r.id);
        assert_eq!(r.log_digest, first.log_digest, "replica {}", r.id);
        assert_eq!(r.state, first.state, "replica {}", r.id);
    }
}

/// Satellite 1: the view-1 leader goes silent while the cluster is idle —
/// no slot is in flight anywhere, so no timer would ever fire and every
/// redirect keeps naming the dead leader. A follower that keeps receiving
/// client contact probes a slot open, the view-change machinery runs, and
/// the client's submission lands with the new leader.
#[test]
fn follower_probe_unsticks_a_silent_idle_leader() {
    let n = 7;
    let cluster = LiveSmrBuilder::new(n)
        .seed(59)
        .pipeline_depth(4)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    // Kill the view-1 leader before anything is ever ordered.
    cluster.pause(0);

    // Start at a follower; every replica still believes in view 1.
    let mut client = cluster
        .client(4)
        .leader_hint(2)
        .timeouts(Duration::from_millis(500), Duration::from_secs(60));
    client
        .submit(put(0))
        .expect("follower probe must force a view change and serve the client");
    assert!(
        client.redirects() >= 1,
        "the dead-leader hint was never hit"
    );

    let reports = cluster.shutdown();
    let live: Vec<_> = reports.iter().filter(|r| r.id != 0).collect();
    assert!(
        live.iter().all(|r| r.state.get("key0") == Some("val0")),
        "the write must be applied on every live replica"
    );
    let first = live[0];
    assert!(live.iter().all(|r| r.log_digest == first.log_digest));
}
