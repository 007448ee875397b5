//! Determinism pin: exact message, byte and virtual-time totals of fixed
//! `(protocol, n, seed)` runs, measured once on the commit before the three
//! harnesses became one. A harness refactor must leave every number here
//! alone; a protocol, wire-format or RNG-consumption change moves them and
//! has to say so.
//!
//! Re-baselined once since, **bytes only**, when ProBFT's votes went lean
//! (a Prepare/Commit carries the leader-signed `⟨view, digest⟩` header and
//! a VRF proof — 104 B — instead of the batch and the sample list, and a
//! Propose carries the digest beside the value): every `total_bytes` of a
//! ProBFT or SMR row fell, every PBFT row rose by exactly 32 B per Propose
//! sent, HotStuff's did not move, and no message count, finish time, view,
//! detection count, per-kind `sent` or log digest changed.
//!
//! One row added since (no other touched) when the view became a property
//! of the log: an SMR run that loses its view-1 leader mid-log and carries
//! on under the next one.
//!
//! One row re-pinned since (no other touched) when stale traffic stopped
//! drawing checkpoint pushes to peers in step: the state-transfer run
//! serves 37 snapshots instead of 98, and its laggard still restores four
//! times.
//!
//! The same row re-pinned once more (no other touched) when a laggard
//! began keeping the traffic of the first slots past the checkpoint it is
//! about to fetch, instead of dropping it at its horizon: the laggard now
//! votes in those slots, so the run sends 168 more messages and finishes
//! at tick 1 390, not 1 416. It still restores four times, and the same 37
//! snapshots are served, by different peers.

use probft::core::byzantine::ByzantineStrategy;
use probft::core::config::{ProbftConfig, View};
use probft::core::harness::{run_cluster, InstanceBuilder};
use probft::hotstuff::{HsInstanceBuilder, HsStrategy};
use probft::pbft::{PbftInstanceBuilder, PbftStrategy};
use probft::quorum::ReplicaId;
use probft::simnet::metrics::MessageMetrics;
use probft::simnet::{PartialSynchrony, ProcessId, RunOutcome, SimDuration, SimTime};
use probft::smr::{Command, KvStore, SmrBuilder, SmrNode, SmrOutcome, SmrSettings};

/// `(total_sent, total_bytes, finished_at)` of a run.
fn totals(metrics: &MessageMetrics, finished_at: SimTime) -> (u64, u64, u64) {
    (
        metrics.total_sent(),
        metrics.total_bytes(),
        finished_at.ticks(),
    )
}

/// The workload of every SMR row: `count` distinct PUTs.
fn puts(count: usize) -> Vec<Command> {
    (0..count)
        .map(|i| Command::Put {
            key: format!("k{i}"),
            value: format!("v{i}"),
        })
        .collect()
}

#[test]
fn clean_runs_are_pinned() {
    for (n, seed, probft, pbft, hs) in [
        (
            31,
            7,
            (1333, 139810, 213),
            (1953, 120342, 203),
            (217, 132091, 458),
        ),
        (
            100,
            5,
            (6900, 724000, 208),
            (20100, 1230000, 200),
            (700, 1267900, 457),
        ),
    ] {
        let o = InstanceBuilder::new(n).seed(seed).run();
        assert_eq!(totals(&o.metrics, o.finished_at), probft, "ProBFT n={n}");
        let probft_bytes = o.metrics.total_bytes();
        let o = PbftInstanceBuilder::new(n).seed(seed).run();
        assert_eq!(totals(&o.metrics, o.finished_at), pbft, "PBFT n={n}");
        // The paper's claim is a cost claim. Where sampling is real, ProBFT
        // moves fewer bytes than PBFT as well as fewer messages — which it
        // could not while every vote re-shipped the value and the sample.
        assert!(n < 100 || probft_bytes < o.metrics.total_bytes());
        let o = HsInstanceBuilder::new(n).seed(seed).run();
        assert_eq!(totals(&o.metrics, o.finished_at), hs, "HotStuff n={n}");
    }
}

#[test]
fn silent_view_one_leader_runs_are_pinned() {
    let o = InstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), ByzantineStrategy::Silent)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (2251, 193045, 50301));
    assert_eq!(o.max_view, View(2));

    let o = PbftInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), PbftStrategy::Silent)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (2851, 174205, 50321));

    let o = HsInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), HsStrategy::Silent)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (1174, 159775, 50539));
}

#[test]
fn pipelined_smr_run_is_pinned() {
    let o = SmrBuilder::new(7, 32)
        .seed(9)
        .pipeline_depth(4)
        .batch_size(4)
        .workload(ReplicaId(0), puts(32))
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (938, 111629, 473));
    assert_eq!(o.throughput.slots_applied, 8);
}

/// Algorithm 1 lines 23–25: an equivocating view-1 leader, the path on
/// which the ProBFT and PBFT replicas differ most. ProBFT's votes embed
/// the leader-signed `⟨view, digest⟩` header, so every correct replica sees the conflict,
/// blocks the view and relays the evidence; PBFT's digest votes embed
/// nothing to compare, so its replicas fail to form a quorum and time out.
/// Rows measured on the commit before the two replicas became one.
#[test]
fn split_view_one_leader_runs_are_pinned() {
    let o = InstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), ByzantineStrategy::SplitLeader)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (4772, 460540, 50317));
    assert_eq!(o.max_view, View(2));
    assert_eq!(o.equivocation_detections, 30);

    let o = PbftInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), PbftStrategy::SplitLeader)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (3812, 234190, 50347));
    assert_eq!(o.max_view, View(2));
    assert_eq!(o.equivocation_detections, 0);
}

/// `(sent, bytes_sent)` of one message kind.
fn kind_totals(metrics: &MessageMetrics, kind: &str) -> (u64, u64) {
    let stats = metrics.kind(kind);
    (stats.sent, stats.bytes_sent)
}

/// The six checkpoint numbers of replica `i`: checkpoints taken, highest
/// stable slot, entries truncated, snapshots served, state transfers
/// restored, snapshot bytes restored.
fn checkpoint_numbers(o: &SmrOutcome, i: usize) -> [u64; 6] {
    let m = &o.replica_metrics[i];
    [
        m.counter("checkpoints_taken"),
        m.gauge("stable_slot"),
        m.counter("truncated_entries"),
        m.counter("snapshots_served"),
        m.counter("state_transfers"),
        m.counter("state_transfer_bytes"),
    ]
}

/// The final logical log every replica of these 32-PUT runs must hold.
const LOG_32_PUTS: (u64, &str) = (
    32,
    "bdc36674041684441a8def55660d1abc8c15b8f206e883c03eae620d21d424c6",
);

fn assert_every_log_is(o: &SmrOutcome, expected: (u64, &str)) {
    for (i, (len, digest)) in o.total_log_lens().iter().zip(&o.log_digests).enumerate() {
        assert_eq!((*len, digest.to_hex().as_str()), expected, "replica {i}");
    }
}

/// The pipelined row above with a checkpoint every second slot, so the
/// checkpoint path — snapshot, vote broadcast, stability, truncation —
/// sits under the same oracle. Measured on the commit before the agreed
/// state and the checkpoint protocol moved out of `SmrNode`.
#[test]
fn checkpointing_smr_run_is_pinned() {
    let o = SmrBuilder::new(7, 32)
        .seed(9)
        .pipeline_depth(4)
        .batch_size(4)
        .checkpoint_interval(2)
        .workload(ReplicaId(0), puts(32))
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (1057, 116291, 453));
    assert_eq!(kind_totals(&o.metrics, "checkpoint-vote"), (168, 10248));
    assert_every_log_is(&o, LOG_32_PUTS);
    assert_eq!(o.log_offsets, [16; 7]);
    for i in 0..7 {
        assert_eq!(
            checkpoint_numbers(&o, i),
            [4, 4, 16, 0, 0, 0],
            "replica {i}"
        );
    }
}

/// A run in which one replica is left behind and catches up by snapshot
/// transfer: the smallest `n ∈ {16, 31, 49, 100}` and `seed < 200` of
/// `SmrBuilder::new(n, 32).checkpoint_interval(8)` on which any replica
/// restores a transferred snapshot (scanned on the same commit as the row
/// above: no seed at n=16, seed 161 alone at n=31). Replica 13 takes no
/// checkpoint of its own and restores four times; the other thirty differ
/// only in how many snapshots they served (a push goes only to a replica
/// a pipeline window or more behind, so fourteen of them serve none).
#[test]
fn state_transfer_smr_run_is_pinned() {
    let o = SmrBuilder::new(31, 32)
        .seed(161)
        .checkpoint_interval(8)
        .workload(ReplicaId(0), puts(32))
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (49034, 5469628, 1390));
    assert_eq!(kind_totals(&o.metrics, "checkpoint-vote"), (3600, 219600));
    assert_eq!(kind_totals(&o.metrics, "state-request"), (44, 396));
    assert_eq!(kind_totals(&o.metrics, "state-reply"), (37, 63797));
    assert_every_log_is(&o, LOG_32_PUTS);
    assert_eq!(o.log_offsets, [32; 31]);
    const SERVED: [u64; 31] = [
        4, 0, 4, 2, 3, 2, 2, 1, 2, 3, 4, 2, 2, 0, 1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];
    for (i, served) in SERVED.into_iter().enumerate() {
        let expected = if i == 13 {
            [0, 32, 0, 0, 4, 1972]
        } else {
            [4, 32, 32, served, 0, 0]
        };
        assert_eq!(checkpoint_numbers(&o, i), expected, "replica {i}");
    }
}

/// One view for the whole log: the first row of `crates/smr/tests/
/// log_view.rs` (n = 7, seed 9, depth 4, eight PUTs queued at replica 0
/// and eight at replica 1, as [`SmrBuilder`] wires a cluster), replica 0
/// crashed once every replica has applied eight slots. The survivors time
/// out once, enter view 2 together and finish the log under replica 1.
#[test]
fn leader_crash_smr_run_is_pinned() {
    let cfg = ProbftConfig::builder(7)
        .base_timeout(SimDuration::from_ticks(50_000))
        .build_shared();
    let network =
        PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(100));
    let settings = SmrSettings {
        pipeline_depth: 4,
        ..SmrSettings::sequential(16)
    };
    let spawn = |seat: probft::core::harness::Seat| {
        let workload = match seat.id.index() {
            0 => puts(8),
            1 => puts(16).split_off(8),
            _ => Vec::new(),
        };
        SmrNode::<KvStore>::new(seat.cfg, seat.id, seat.sk, seat.keys, workload, settings)
    };
    let eight_applied = |node: &SmrNode<KvStore>| node.slots_applied() >= 8;
    let (mut sim, outcome) = run_cluster(cfg, 9, network, spawn, eight_applied, 1_000_000);
    assert_eq!(
        (outcome, sim.now().ticks()),
        (RunOutcome::ConditionMet, 473)
    );
    sim.crash(ProcessId(0));
    let survivors_done = |sim: &probft::simnet::Simulation<SmrNode<KvStore>>| {
        sim.processes().skip(1).all(|(_, node)| node.done())
    };
    let outcome = sim.run_until_condition(survivors_done, 1_000_000);
    assert_eq!(outcome, RunOutcome::ConditionMet);

    assert_eq!(totals(sim.metrics(), sim.now()), (2536, 294728, 51869));
    let sent: Vec<(&str, u64)> = sim.metrics().iter().map(|(k, s)| (k, s.sent)).collect();
    assert_eq!(
        sent,
        [
            ("Commit", 1064),
            ("NewLeader", 180),
            ("Prepare", 1071),
            ("Propose", 168),
            ("Wish", 53)
        ]
    );
    for (id, node) in sim.processes().skip(1) {
        assert_eq!(
            (node.total_log_len(), node.log_digest().to_hex().as_str()),
            (
                16,
                "4e059d24f9fb12fbf6c42fbf8bac7044c7079fb74d6f0343cee911d3fcd900eb"
            ),
            "replica {id}"
        );
        assert_eq!(node.current_view().0, 2, "replica {id}");
        assert_eq!(
            node.obs().snapshot().counter("view_changes"),
            1,
            "replica {id}"
        );
    }
}
