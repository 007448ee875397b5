//! Determinism pin: exact message, byte and virtual-time totals of fixed
//! `(protocol, n, seed)` runs, measured once on the commit before the three
//! harnesses became one. A harness refactor must leave every number here
//! alone; a protocol, wire-format or RNG-consumption change moves them and
//! has to say so.

use probft::core::byzantine::ByzantineStrategy;
use probft::core::config::View;
use probft::core::harness::InstanceBuilder;
use probft::hotstuff::{HsInstanceBuilder, HsStrategy};
use probft::pbft::{PbftInstanceBuilder, PbftStrategy};
use probft::quorum::ReplicaId;
use probft::simnet::metrics::MessageMetrics;
use probft::simnet::SimTime;
use probft::smr::{Command, SmrBuilder};

/// `(total_sent, total_bytes, finished_at)` of a run.
fn totals(metrics: &MessageMetrics, finished_at: SimTime) -> (u64, u64, u64) {
    (
        metrics.total_sent(),
        metrics.total_bytes(),
        finished_at.ticks(),
    )
}

#[test]
fn clean_runs_are_pinned() {
    for (n, seed, probft, pbft, hs) in [
        (
            31,
            7,
            (1333, 236468, 213),
            (1953, 119350, 203),
            (217, 132091, 458),
        ),
        (
            100,
            5,
            (6900, 1584400, 208),
            (20100, 1226800, 200),
            (700, 1267900, 457),
        ),
    ] {
        let o = InstanceBuilder::new(n).seed(seed).run();
        assert_eq!(totals(&o.metrics, o.finished_at), probft, "ProBFT n={n}");
        let o = PbftInstanceBuilder::new(n).seed(seed).run();
        assert_eq!(totals(&o.metrics, o.finished_at), pbft, "PBFT n={n}");
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
    assert_eq!(totals(&o.metrics, o.finished_at), (2251, 286553, 50301));
    assert_eq!(o.max_view, View(2));

    let o = PbftInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), PbftStrategy::Silent)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (2851, 173213, 50321));

    let o = HsInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), HsStrategy::Silent)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (1174, 159775, 50539));
}

#[test]
fn pipelined_smr_run_is_pinned() {
    let puts: Vec<Command> = (0..32)
        .map(|i| Command::Put {
            key: format!("k{i}"),
            value: format!("v{i}"),
        })
        .collect();
    let o = SmrBuilder::new(7, 32)
        .seed(9)
        .pipeline_depth(4)
        .batch_size(4)
        .workload(ReplicaId(0), puts)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (938, 197106, 473));
    assert_eq!(o.throughput.slots_applied, 8);
}

/// Algorithm 1 lines 23–25: an equivocating view-1 leader, the path on
/// which the ProBFT and PBFT replicas differ most. ProBFT's votes embed
/// the leader-signed proposal, so every correct replica sees the conflict,
/// blocks the view and relays the evidence; PBFT's digest votes embed
/// nothing to compare, so its replicas fail to form a quorum and time out.
/// Rows measured on the commit before the two replicas became one.
#[test]
fn split_view_one_leader_runs_are_pinned() {
    let o = InstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), ByzantineStrategy::SplitLeader)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (4772, 601740, 50317));
    assert_eq!(o.max_view, View(2));
    assert_eq!(o.equivocation_detections, 30);

    let o = PbftInstanceBuilder::new(31)
        .seed(3)
        .byzantine(ReplicaId(0), PbftStrategy::SplitLeader)
        .run();
    assert_eq!(totals(&o.metrics, o.finished_at), (3812, 232206, 50347));
    assert_eq!(o.max_view, View(2));
    assert_eq!(o.equivocation_detections, 0);
}
