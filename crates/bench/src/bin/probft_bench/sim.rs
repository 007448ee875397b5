//! `sim_n100`: state-machine replication at n = 100 under `simnet`
//! virtual time, timed in wall-clock. One thread does all of it, so the
//! time is the CPU cost of crypto, core, quorum and smr; the runtime does
//! no work here, and the message and byte counts repeat exactly under one
//! seed.
//!
//! The run is a series of identical *chunks*: a fresh cluster that orders
//! [`CHUNK_OPS`] PUTs queued at replica 0 — eight pipeline windows, so
//! slots are refilled as earlier ones apply and the log grows. Chunks
//! make the workload time-bounded (start them until the window is over)
//! and give it per-chunk samples; the counts come from the first
//! [`COUNTED_CHUNKS`] chunks, which every run completes whatever the
//! machine's speed.
//!
//! A chunk is the cluster `SmrBuilder::run` builds (a test holds the two
//! to the same message and byte counts) but is *done* when a
//! deterministic quorum of `n − f` replicas has applied every PUT, not
//! when all `n` have. ProBFT terminates with high probability, not with
//! certainty: now and then a replica is left short of a probabilistic
//! quorum for some slot. With checkpointing off it never catches up; with
//! it on, it is fetched only by a checkpoint more than a pipeline window
//! ahead of it, so one stranded in a run's last slots stays stranded.
//! `SmrBuilder::run` waits for all `n` and then spins through its
//! 50 M-event budget (8 PUTs with a checkpoint every 8 slots: seed 34 of
//! 80 was still spinning after 170 s), which no run under a deadline can
//! afford. A client needs a quorum of replies, not all.

use crate::load::{self, Sample, Window};
use crate::process;
use crate::report::{Metric, Report};
use crate::trace::{Span, Spans};
use probft_analysis::messages::{messages, Protocol};
use probft_core::config::{ProbftConfig, SharedConfig};
use probft_crypto::keyring::Keyring;
use probft_quorum::ReplicaId;
use probft_simnet::delay::PartialSynchrony;
use probft_simnet::metrics::{KindStats, MessageMetrics};
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::SimDuration;
use probft_smr::{Command, KvStore, SmrNode, SmrSettings};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one run of the simulated workload is sized.
#[derive(Clone, Copy, Debug)]
pub struct SimPlan {
    /// Cluster size (100; 16 in the smoke pass).
    pub n: usize,
    /// Seeds key generation, the network's delays and the inputs.
    pub seed: u64,
    /// Chunks are started until this much wall-clock time has passed.
    pub window: Duration,
    /// Whether to keep spans.
    pub trace: bool,
    /// How many times to set up; `setup_s` is the median.
    pub setups: usize,
    /// PUTs per chunk.
    pub chunk_ops: usize,
    /// Leading chunks whose message and byte counts are reported, and
    /// which run even when the window is already over.
    pub counted_chunks: usize,
}

/// PUTs per chunk of the real workload: eight pipeline windows (depth 4 ×
/// batch 1), some three seconds of one core at n = 100.
pub const CHUNK_OPS: usize = 32;
/// Counted chunks of the real workload (32 slots).
pub const COUNTED_CHUNKS: usize = 1;

fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(chunk)
}

fn chunk_puts(seed: u64, chunk: u64, ops: usize) -> Vec<Command> {
    (0..ops as u64)
        .map(|i| Command::Put {
            key: format!("k{}", chunk_seed(seed, chunk).wrapping_add(i) % 512),
            value: format!("{:016x}", chunk_seed(seed, chunk) ^ i),
        })
        .collect()
}

/// Events one chunk may process before it is given up (a healthy chunk
/// at n = 100 needs about 280 000).
const MAX_EVENTS: u64 = 5_000_000;

/// What one chunk did.
struct Chunk {
    /// Why the chunk's output is wrong, if it is.
    violation: Option<String>,
    metrics: MessageMetrics,
    /// Entries and slots applied by a replica that finished.
    commands: u64,
    slots: u64,
    /// Virtual time at which the quorum had finished.
    ticks: u64,
}

/// Orders `puts`, queued at replica 0, on a fresh `n`-replica cluster
/// (pipeline depth 4, one entry per batch) until `n − f` replicas — or
/// `all` of them, as `SmrBuilder::run` has it — have applied every PUT.
fn run_chunk(n: usize, seed: u64, puts: Vec<Command>, all: bool) -> Chunk {
    let cfg: SharedConfig = Arc::new(
        ProbftConfig::builder(n)
            .base_timeout(SimDuration::from_ticks(50_000))
            .build(),
    );
    let quorum = if all { n } else { n - cfg.faults() };
    let keyring = Keyring::generate(n, &seed.to_be_bytes());
    let public = Arc::new(keyring.public());
    let network =
        PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(100));
    let settings = SmrSettings {
        pipeline_depth: 4,
        ..SmrSettings::sequential(puts.len())
    };
    let mut sim: Simulation<SmrNode<KvStore>> = Simulation::new(network, seed);
    for i in 0..n {
        let workload = if i == 0 { puts.clone() } else { Vec::new() };
        sim.add_process(SmrNode::new(
            cfg.clone(),
            ReplicaId::from(i),
            keyring.signing_key(i).expect("in range").clone(),
            public.clone(),
            workload,
            settings,
        ));
    }
    let done = |s: &Simulation<SmrNode<KvStore>>| {
        s.processes().filter(|(_, node)| node.done()).count() >= quorum
    };
    let outcome = sim.run_until_condition(done, MAX_EVENTS);

    // Every replica that finished holds the same log and state, and
    // every other replica holds a prefix of that log.
    let finished: Vec<&SmrNode<KvStore>> = sim
        .processes()
        .map(|(_, node)| node)
        .filter(|node| node.done())
        .collect();
    let violation = match finished.first() {
        _ if outcome != RunOutcome::ConditionMet => Some(format!(
            "{outcome:?} with {} of {quorum} replicas done",
            finished.len()
        )),
        None => Some("no replica finished".to_string()),
        Some(first) => {
            let agree = finished
                .iter()
                .all(|r| r.log_digest() == first.log_digest() && r.state() == first.state());
            let prefixes = sim
                .processes()
                .all(|(_, node)| first.log().starts_with(node.log()));
            let complete = first.total_log_len() == puts.len() as u64;
            (!(agree && prefixes && complete)).then(|| {
                format!("finished replicas agree: {agree}; all logs are prefixes: {prefixes}; log complete: {complete}")
            })
        }
    };
    Chunk {
        violation,
        metrics: sim.metrics().clone(),
        commands: finished.first().map_or(0, |r| r.total_log_len()),
        slots: finished.first().map_or(0, |r| r.slots_applied()),
        ticks: sim.now().ticks(),
    }
}

/// Runs the simulated workload and returns its report and spans.
pub fn run(plan: &SimPlan) -> (Report, Vec<Span>) {
    let mut report = Report {
        workload: format!("sim_n{}", plan.n),
        traced: plan.trace,
        ..Report::default()
    };
    let mut spans = Spans::new(plan.trace, 1);

    // Set-up, as on the live workloads: a cold cluster (keys generated,
    // nodes built, operation queued) up to its first confirmed operation.
    let setup_s: Vec<f64> = (0..plan.setups.max(1) as u64)
        .map(|trial| {
            let t0 = Instant::now();
            let first = chunk_puts(plan.seed, u64::MAX - trial, 1);
            let seed = chunk_seed(plan.seed, u64::MAX - trial);
            let chunk = run_chunk(plan.n, seed, first, false);
            report.violations.extend(chunk.violation);
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let epoch = Instant::now();
    let window = Window {
        start: Duration::ZERO,
        len: plan.window,
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut counted = Counted::default();
    let mut delivered = 0u64;
    for chunk in 0u64.. {
        let start = epoch.elapsed();
        if start >= plan.window && chunk >= plan.counted_chunks as u64 {
            break;
        }
        let request = Some(probft_smr::RequestId {
            client: 0,
            seq: chunk,
        });
        let root = spans.reserve();
        let outcome = run_chunk(
            plan.n,
            chunk_seed(plan.seed, chunk),
            chunk_puts(plan.seed, chunk, plan.chunk_ops),
            false,
        );
        let done = epoch.elapsed();
        spans.record("smr.run_chunk", Some(root), request, start, done);
        spans.record_as(root, "bench.request", None, request, start, done);

        let ok = outcome.violation.is_none();
        if let Some(why) = &outcome.violation {
            report.violations.push(format!("chunk {chunk}: {why}"));
        }
        delivered += outcome.metrics.total_delivered();
        if chunk < plan.counted_chunks as u64 {
            counted.add(&outcome);
        }
        samples.push(Sample {
            due: start,
            sent: start,
            excused: Duration::ZERO,
            done: ok.then_some(done),
            read: false,
        });
    }
    let elapsed = epoch.elapsed();

    // One sample is one chunk: its latency is the wall-clock time to order
    // it, its completion counts for `chunk_ops` operations.
    let chunk_ops = plan.chunk_ops as u64;
    let (lat, lat_sub) = load::latencies_ms(&samples, window, |_| true);
    let p50 = load::quantile(&lat, &lat_sub, 0.50);
    let p99 = load::quantile(&lat, &lat_sub, 0.99);
    let chunks_in_window = load::completed_in(&samples, window, |_| true);
    let attempted = samples.len() as u64 * chunk_ops;
    let failed = samples.iter().filter(|s| s.done.is_none()).count() as u64 * chunk_ops;
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    report.end_to_end = vec![
        (
            "throughput_ops_s",
            // Per chunk, not per sub-window: a sub-window holds less
            // than one chunk.
            Metric::median_of(
                lat.iter().map(|ms| chunk_ops as f64 / (ms / 1e3)).collect(),
                chunks_in_window * chunk_ops,
            ),
        ),
        (
            "latency_p50_ms",
            Metric::median_of(p50.sub.clone(), lat.len() as u64),
        ),
        ("latency_p99_ms", Metric::once(p99.whole, lat.len() as u64)),
        ("failed_ratio", Metric::once(failed_ratio, attempted)),
        (
            "bytes_per_op",
            Metric::once(
                counted.bytes as f64 / counted.ops.max(1) as f64,
                counted.ops,
            ),
        ),
        (
            "msgs_per_op",
            Metric::once(counted.msgs as f64 / counted.ops.max(1) as f64, counted.ops),
        ),
        (
            "setup_s",
            Metric::median_of(setup_s.clone(), setup_s.len() as u64),
        ),
    ];
    report.attempted = attempted;
    report.failed = failed;
    report.notes.push(format!(
        "virtual time, one thread: one sample is one chunk of {chunk_ops} PUTs ordered by a fresh n={} cluster (depth 4, batch 1), done when n-f replicas have applied them; latency is its wall-clock time, throughput is ops per wall-second (median over chunks); p99 of {} chunks reads as a maximum",
        plan.n,
        lat.len()
    ));
    report.notes.push(format!(
        "bytes_per_op, msgs_per_op and the simnet.* counts are exact for a seed: {} messages, {} bytes over the first {} slots",
        counted.msgs, counted.bytes, counted.slots
    ));

    // ---- Per-layer metrics ---------------------------------------------
    let slots = counted.slots.max(1) as f64;
    report.set_layer(
        "simnet.events_per_s",
        delivered as f64 / elapsed.as_secs_f64(),
    );
    report.set_layer(
        "simnet.virtual_ticks_per_slot",
        counted.ticks as f64 / slots,
    );
    report.set_layer(
        "simnet.propose_msgs_per_slot",
        counted.propose.sent as f64 / slots,
    );
    report.set_layer(
        "simnet.prepare_msgs_per_slot",
        counted.prepare.sent as f64 / slots,
    );
    report.set_layer(
        "simnet.commit_msgs_per_slot",
        counted.commit.sent as f64 / slots,
    );
    report.set_layer(
        "simnet.propose_bytes_per_slot",
        counted.propose.bytes_sent as f64 / slots,
    );
    report.set_layer(
        "simnet.prepare_bytes_per_slot",
        counted.prepare.bytes_sent as f64 / slots,
    );
    report.set_layer(
        "simnet.commit_bytes_per_slot",
        counted.commit.bytes_sent as f64 / slots,
    );
    let cfg = ProbftConfig::builder(plan.n).build();
    let predicted = messages(
        Protocol::Probft {
            l: cfg.quorum_multiplier(),
            o: cfg.overprovision(),
        },
        plan.n,
    );
    report.set_layer("analysis.predicted_msgs_per_slot_n100", predicted);
    report.set_layer(
        "analysis.measured_over_predicted",
        counted.msgs as f64 / slots / predicted,
    );
    report.set_layer("quorum.sample_size", cfg.sample_size() as f64);
    report.set_layer("quorum.quorum_size", cfg.probabilistic_quorum() as f64);
    report.set_layer("smr.ops_per_slot", counted.ops as f64 / slots);
    report.set_layer("runtime.threads", process::threads().unwrap_or(0.0));
    report.set_layer(
        "runtime.cpu_s_per_kop",
        process::cpu_seconds().unwrap_or(0.0) / (report.attempted.max(1) as f64 / 1000.0),
    );
    report.set_layer("process.peak_rss_mb", process::peak_rss_mb().unwrap_or(0.0));
    (report, spans.into_vec())
}

/// Exact counts over the counted chunks.
#[derive(Default)]
struct Counted {
    ops: u64,
    slots: u64,
    ticks: u64,
    msgs: u64,
    bytes: u64,
    propose: KindStats,
    prepare: KindStats,
    commit: KindStats,
}

impl Counted {
    fn add(&mut self, outcome: &Chunk) {
        self.ops += outcome.commands;
        self.slots += outcome.slots;
        self.ticks += outcome.ticks;
        self.msgs += outcome.metrics.total_sent();
        self.bytes += outcome.metrics.total_bytes();
        for (into, kind) in [
            (&mut self.propose, "Propose"),
            (&mut self.prepare, "Prepare"),
            (&mut self.commit, "Commit"),
        ] {
            let k = outcome.metrics.kind(kind);
            into.sent += k.sent;
            into.bytes_sent += k.bytes_sent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_smr::SmrBuilder;

    /// `run_chunk` wires its cluster by hand only to stop at a quorum.
    /// Told to wait for all replicas, it must be `SmrBuilder::run` to the
    /// message, the byte and the tick, so that what the benchmark
    /// simulates cannot drift from what the rest of the repo does.
    #[test]
    fn a_chunk_is_the_cluster_smr_builder_runs() {
        let puts = chunk_puts(5, 0, 8);
        let ours = run_chunk(16, 5, puts.clone(), true);
        let theirs = SmrBuilder::new(16, puts.len())
            .seed(5)
            .pipeline_depth(4)
            .batch_size(1)
            .workload(ReplicaId::from(0usize), puts)
            .run();
        assert_eq!(theirs.run_outcome, RunOutcome::ConditionMet);
        assert_eq!(ours.violation, None);
        assert_eq!(ours.metrics.total_sent(), theirs.metrics.total_sent());
        assert_eq!(ours.metrics.total_bytes(), theirs.metrics.total_bytes());
        assert_eq!(ours.ticks, theirs.finished_at.ticks());
    }

    #[test]
    fn one_seed_gives_the_same_counts_twice() {
        let counts = |seed: u64| {
            let report = run(&SimPlan {
                n: 16,
                seed,
                window: Duration::ZERO,
                trace: false,
                setups: 1,
                chunk_ops: 8,
                counted_chunks: 2,
            })
            .0;
            assert!(report.correct(), "{:?}", report.violations);
            ["msgs_per_op", "bytes_per_op"].map(|name| {
                let value = report.end_to_end_value(name).map_or(0.0, |m| m.value);
                assert!(value > 0.0, "{name}");
                value
            })
        };
        assert_eq!(counts(9), counts(9));
        assert_ne!(counts(9), counts(10));
    }
}
