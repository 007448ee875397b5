//! Harness for replicated-state-machine experiments.

use crate::sim::{Cluster, Spec};
use crate::{Command, Entry, KvStore, SmrNode, SmrSettings};
use probft_core::config::ProbftConfig;
use probft_crypto::sha256::Digest;
use probft_obs::MetricsSnapshot;
use probft_quorum::ReplicaId;
use probft_simnet::metrics::MessageMetrics;
use probft_simnet::sim::RunOutcome;
use probft_simnet::time::{SimDuration, SimTime};
use std::fmt;

/// Throughput accounting for a run that orders application commands, so
/// that batching and pipelining experiments measure, rather than estimate,
/// delivered throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThroughputStats {
    /// Commands applied to the replicated state machine.
    pub commands: u64,
    /// Consensus slots opened (including in-flight ones at run end).
    pub slots_opened: u64,
    /// Consensus slots decided and applied in order.
    pub slots_applied: u64,
    /// Virtual ticks from start to completion.
    pub ticks: u64,
}

impl ThroughputStats {
    /// Mean commands per applied slot (the effective batch size).
    pub fn mean_batch_size(&self) -> f64 {
        if self.slots_applied == 0 {
            0.0
        } else {
            self.commands as f64 / self.slots_applied as f64
        }
    }

    /// Commands ordered per million virtual ticks. With the runtime's
    /// tick = 1 µs convention this is exactly commands per second.
    pub fn commands_per_megatick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.commands as f64 * 1_000_000.0 / self.ticks as f64
        }
    }
}

impl fmt::Display for ThroughputStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cmds over {} slots ({} opened) in {} ticks — {:.1} cmds/Mtick, mean batch {:.2}",
            self.commands,
            self.slots_applied,
            self.slots_opened,
            self.ticks,
            self.commands_per_megatick(),
            self.mean_batch_size()
        )
    }
}

/// Builds and runs an SMR cluster of [`KvStore`]s ordering a shared
/// workload: a virtual-time [`Spec`] with no client, run until every
/// replica is done.
pub struct SmrBuilder {
    spec: Spec,
}

impl SmrBuilder {
    /// Starts building an `n`-replica KV cluster that stops after
    /// `target_len` entries are applied everywhere. Defaults to a
    /// pipeline depth of 4, one entry per batch and a base view timeout of
    /// 50 000 ticks, on [`Spec::new`]'s links.
    pub fn new(n: usize, target_len: usize) -> Self {
        let mut spec = Spec::new(n, 0);
        let timeout = SimDuration::from_ticks(50_000);
        spec.cfg = ProbftConfig::builder(n).base_timeout(timeout).build();
        spec.settings = SmrSettings::sequential(target_len);
        spec.settings.pipeline_depth = 4;
        SmrBuilder { spec }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets how many slots run consensus concurrently (1 = sequential).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.spec.settings.pipeline_depth = depth.max(1);
        self
    }

    /// Sets how many pending entries a proposer packs per slot.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.spec.settings.batch_size = batch.max(1);
        self
    }

    /// Takes a checkpoint every `interval` applied slots (0 disables —
    /// the default). Stable checkpoints truncate each replica's resident
    /// command log, so long runs hold O(interval × batch) entries instead
    /// of the full history.
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.spec.settings.checkpoint_interval = interval;
        self
    }

    /// Queues `ops` at replica `id` (proposed when it leads a slot).
    pub fn workload(mut self, id: ReplicaId, ops: Vec<Command>) -> Self {
        self.spec.workloads.insert(id, ops);
        self
    }

    /// The cluster [`run`](Self::run) runs, to adjust or drive through a
    /// [`Cluster`] (faults, clients, other links).
    pub fn spec(self) -> Spec {
        self.spec
    }

    /// Runs the cluster until every replica applied `target_len` entries.
    ///
    /// The target must not exceed the workload queued at the replica
    /// that leads view 1 (replica 0): slots with nothing pending decide
    /// *empty* batches, which keep the pipeline moving but never grow
    /// the log, and in a healthy run no other replica's queue is ever
    /// proposed — an over-sized target burns the whole event budget
    /// ([`sim::MAX_EVENTS`](crate::sim::MAX_EVENTS)) without completing.
    pub fn run(self) -> SmrOutcome {
        let mut cluster = Cluster::new(self.spec());
        let run_outcome = cluster.run_until(|m| m.node.done());
        let nodes: Vec<&SmrNode<KvStore>> = cluster.members().map(|m| &m.node).collect();
        // Throughput is measured at replica 0: all correct replicas apply
        // the same slots, so its view is representative of the run.
        let throughput = nodes
            .first()
            .map_or_else(ThroughputStats::default, |node0| ThroughputStats {
                commands: node0.total_log_len(),
                slots_opened: node0.slots_opened(),
                slots_applied: node0.slots_applied(),
                ticks: cluster.sim.now().ticks(),
            });
        SmrOutcome {
            logs: nodes.iter().map(|r| r.log().to_vec()).collect(),
            states: nodes.iter().map(|r| r.state().clone()).collect(),
            resident_slots: nodes.iter().map(|r| r.resident_slots()).collect(),
            replica_metrics: nodes.iter().map(|r| r.obs().snapshot()).collect(),
            log_offsets: nodes.iter().map(|r| r.log_offset()).collect(),
            log_digests: nodes.iter().map(|r| r.log_digest()).collect(),
            metrics: cluster.sim.metrics().clone(),
            throughput,
            finished_at: cluster.sim.now(),
            run_outcome,
        }
    }
}

/// Whether every element equals its neighbor (vacuously true for empty
/// and single-element slices) — the panic-free replacement for the
/// `windows(2)` + index idiom.
fn all_adjacent_equal<T: PartialEq>(items: &[T]) -> bool {
    items.iter().zip(items.iter().skip(1)).all(|(a, b)| a == b)
}

/// Result of an SMR run.
#[derive(Clone, Debug)]
pub struct SmrOutcome {
    /// Per-replica *resident* decided entry logs (the full logs unless
    /// checkpoint truncation ran; see [`log_offsets`](Self::log_offsets)).
    pub logs: Vec<Vec<Entry<Command>>>,
    /// Per-replica final application states.
    pub states: Vec<KvStore>,
    /// Per-replica count of consensus instances still heap-resident at the
    /// end of the run (bounded by the pipeline depth: applied slots are
    /// pruned).
    pub resident_slots: Vec<usize>,
    /// Per-replica snapshot of the node's `probft-obs` registry — the
    /// field `ReplicaReport.metrics` carries on the live side, so rejected
    /// messages are the same named `drops_*` counters in both, and the
    /// checkpoint / truncation / transfer counters (`checkpoints_taken`,
    /// `truncated_entries`, `snapshots_served`, `state_transfers`,
    /// `state_transfer_bytes`, the `stable_slot` gauge) are read here.
    pub replica_metrics: Vec<MetricsSnapshot>,
    /// Per-replica count of entries truncated below the stable checkpoint
    /// (all zero with checkpointing disabled).
    pub log_offsets: Vec<u64>,
    /// Per-replica running digest chain over every entry ever applied —
    /// what full-log equality is checked against once truncation makes
    /// resident logs incomparable.
    pub log_digests: Vec<Digest>,
    /// Message metrics.
    pub metrics: MessageMetrics,
    /// Commands/slots/ticks throughput accounting (measured at replica 0).
    pub throughput: ThroughputStats,
    /// Virtual completion time.
    pub finished_at: SimTime,
    /// Loop exit reason.
    pub run_outcome: RunOutcome,
}

impl SmrOutcome {
    /// Per-replica *total* log length: truncated plus resident entries.
    pub fn total_log_lens(&self) -> Vec<u64> {
        self.logs
            .iter()
            .zip(&self.log_offsets)
            .map(|(log, offset)| offset.saturating_add(log.len() as u64))
            .collect()
    }

    /// Whether all replicas hold the identical logical log. Compared via
    /// total length plus the running SHA-256 entry chain, so replicas
    /// that truncated different prefixes behind stable checkpoints still
    /// compare over their *full* histories, not just the resident
    /// suffixes.
    pub fn logs_consistent(&self) -> bool {
        all_adjacent_equal(&self.total_log_lens()) && all_adjacent_equal(&self.log_digests)
    }

    /// Whether all replicas reached identical application state.
    pub fn states_consistent(&self) -> bool {
        all_adjacent_equal(&self.states)
    }

    /// Replica 0's resident log, if all logs agree (the full agreed log
    /// when nothing was truncated).
    pub fn agreed_log(&self) -> Option<&[Entry<Command>]> {
        if self.logs_consistent() {
            self.logs.first().map(|l| l.as_slice())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_stats_math() {
        let t = ThroughputStats {
            commands: 64,
            slots_opened: 10,
            slots_applied: 8,
            ticks: 2_000_000,
        };
        assert!((t.mean_batch_size() - 8.0).abs() < 1e-9);
        assert!((t.commands_per_megatick() - 32.0).abs() < 1e-9);
        let s = t.to_string();
        assert!(s.contains("64 cmds") && s.contains("8 slots"), "{s}");

        let zero = ThroughputStats::default();
        assert_eq!(zero.mean_batch_size(), 0.0);
        assert_eq!(zero.commands_per_megatick(), 0.0);
    }

    #[test]
    fn votes_past_their_quorum_are_counted_late_not_verified() {
        // n = 16: a quorum is 8 of the ≈ 14 votes a phase brings a replica,
        // so a good third of a slot's votes arrive after their rule fired.
        let ops: Vec<_> = (0..6)
            .map(|i| crate::kv::Command::Put {
                key: format!("k{i}"),
                value: "v".into(),
            })
            .collect();
        let outcome = SmrBuilder::new(16, ops.len())
            .seed(3)
            .workload(ReplicaId(0), ops)
            .run();
        assert_eq!(outcome.run_outcome, RunOutcome::ConditionMet);
        assert!(outcome.logs_consistent());

        let late: Vec<u64> = outcome
            .replica_metrics
            .iter()
            .map(|m| m.counter("votes_late"))
            .collect();
        assert!(late.iter().all(|&l| l > 0), "{late:?}");
        // Every replica applied every slot, so it verified at least a
        // quorum of each phase in each; what is left of the votes delivered
        // bounds the late ones (the rest were for slots already applied).
        let quorum = ProbftConfig::builder(16).build().probabilistic_quorum() as u64;
        let delivered =
            outcome.metrics.kind("Prepare").delivered + outcome.metrics.kind("Commit").delivered;
        let verified_at_least = 2 * quorum * outcome.throughput.slots_applied * 16;
        assert!(late.iter().sum::<u64>() + verified_at_least <= delivered);
    }
}
