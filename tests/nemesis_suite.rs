//! The nemesis on sockets: what only a live cluster can take. A
//! `KillLeader` under concurrent clients through `execute` — the path the
//! frozen benchmark drives — and a far-future spray framed as peer frames
//! and injected over TCP, through the replicas' real decoder. Every other
//! nemesis plan (kills back to back, pauses, resumes, equivocations, a
//! swarm of random plans) runs in virtual time, where a seed names the
//! whole run: `crates/smr/tests/chaos.rs`.
//!
//! The run ends in the invariant sweep
//! (`probft::runtime::nemesis::{verify_invariants, verify_exactly_once}`):
//! matching `(total_log_len, log_digest)` and identical state on every
//! unpaused replica, no confirmed request id lost, and no request
//! *executed* twice. Its transcript, and on a failed sweep every replica's
//! flight recorder and metrics, land in `target/nemesis/`.

mod live;

use live::{hammer, nemesis_dir, sweep};
use probft::runtime::nemesis::{execute, Fault, FaultPlan};
use probft::runtime::LiveSmrBuilder;
use probft::smr::nemesis::SPRAY_FRAMES;
use std::time::{Duration, Instant};

/// Acceptance: a Byzantine peer sprays far-future wishes over TCP, and
/// then the leader dies mid-stream, while four clients hammer the cluster.
/// Every forged frame decodes and is dropped and counted, never buffered;
/// the view change loses no confirmed request, doubles none, and leaves
/// every unpaused replica with the identical `(total_log_len, log_digest)`.
/// Checkpointing stays off so the whole log is resident and the
/// lost-request check is exact.
#[test]
fn leader_kill_mid_stream_under_concurrent_load() {
    let seed = 1;
    let cluster = LiveSmrBuilder::new(7)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(4)
        .start()
        .expect("cluster boots");

    // The plan starts once a quarter of the 800 writes is applied, so the
    // kill lands with requests in flight. Timed from boot instead, a fast
    // machine could confirm them all first, and no survivor had work left
    // to recover on.
    let plan = FaultPlan::new(seed)
        .at(Duration::ZERO, Fault::FarFutureSpray)
        .at(Duration::from_millis(50), Fault::KillLeader);
    let (confirmed, _, _) = hammer(&cluster, 4, 200, || {
        let give_up = Instant::now() + Duration::from_secs(60);
        while cluster.applied_lens().into_iter().max() < Some(200) && Instant::now() < give_up {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test polls a live cluster from outside"
            )]
            std::thread::sleep(Duration::from_millis(1));
        }
        let run = execute(&cluster, &plan);
        run.write_transcript(nemesis_dir().join(format!("leader_kill-seed{seed}.log")))
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

    let counted = |name| -> u64 { reports.iter().map(|r| r.metrics.counter(name)).sum() };
    assert!(
        counted("drops_future_horizon") >= SPRAY_FRAMES,
        "the spray was not counted"
    );
    assert_eq!(
        counted("frames_malformed"),
        0,
        "a forged frame did not decode"
    );
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
    let recovery = reports
        .iter()
        .filter_map(|r| r.metrics.histogram("recovery_latency_us"));
    assert!(
        recovery.map(|h| h.count()).sum::<u64>() >= 1,
        "no recovery-latency sample"
    );
}
