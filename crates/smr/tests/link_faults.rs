//! Link faults, deterministically: a partition and jitter as a test-local
//! [`DelayModel`] around the harness's network, with `SmrNode`s driven by
//! the shared virtual-time executor (`support`) — no socket, no wall
//! clock, and every seed replays bit for bit. (Process faults and forged
//! traffic are nemesis plans, `chaos.rs`.) Beside them, serving mode's
//! adaptive batching, which needs no fault at all to show.

mod support;

use probft_core::config::ProbftConfig;
use probft_crypto::sha256::Digest;
use probft_simnet::delay::{DelayModel, PartialSynchrony, Uniform};
use probft_simnet::process::ProcessId;
use probft_simnet::time::{SimDuration, SimTime};
use probft_smr::SmrSettings;
use rand::rngs::StdRng;
use std::ops::Range;
use support::{puts, Cluster, Spec};

/// Seeds each scenario runs under.
const SEEDS: Range<u64> = 0..24;
/// The view-1 leader, whose queue holds the whole workload.
const LEADER: ProcessId = ProcessId(0);

/// The network [`SmrBuilder`](probft_smr::SmrBuilder) runs on: delays
/// uniform in 1..=100 ticks.
fn network() -> PartialSynchrony {
    PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(100))
}

/// [`network`] with one fault on the links out of [`LEADER`].
#[derive(Debug)]
enum LinkFault {
    /// Every message to `to` sent before `heal_at` is dropped; the other
    /// direction, and every other link, delivers.
    Cut { to: ProcessId, heal_at: SimTime },
    /// Every message is held for `extra` on top of its delay.
    Slow { extra: Uniform },
}

impl DelayModel for LinkFault {
    fn delay(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        now: SimTime,
        rng: &mut StdRng,
    ) -> Option<SimDuration> {
        let delay = network().delay(from, to, now, rng)?;
        if from != LEADER {
            return Some(delay);
        }
        match self {
            LinkFault::Cut {
                to: victim,
                heal_at,
            } => (to != *victim || now >= *heal_at).then_some(delay),
            LinkFault::Slow { extra } => Some(delay + extra.delay(from, to, now, rng)?),
        }
    }
}

/// `n` replicas under `settings`, `settings.target_len` PUTs queued at
/// [`LEADER`], over `network`, run until every replica has applied them
/// and swept.
fn run(n: usize, seed: u64, settings: SmrSettings, network: impl DelayModel + 'static) -> Cluster {
    let mut spec = Spec::new(n, seed);
    spec.cfg = ProbftConfig::builder(n)
        .base_timeout(SimDuration::from_ticks(50_000))
        .build();
    spec.settings = settings;
    spec.network = Box::new(network);
    spec.workloads = vec![puts("key", settings.target_len)];
    let mut cluster = Cluster::new(spec);
    cluster.run_until(|m| m.node.done());
    cluster.sweep();
    cluster
}

/// The `(total_log_len, log_digest)` the swept replicas all end with.
fn agreed(cluster: &Cluster) -> (u64, Digest) {
    let node = &cluster.member(LEADER.index()).node;
    (node.total_log_len(), node.log_digest())
}

/// Workload mode, depth 4, two entries per slot.
fn workload_mode(target_len: usize) -> SmrSettings {
    SmrSettings {
        pipeline_depth: 4,
        batch_size: 2,
        ..SmrSettings::sequential(target_len)
    }
}

/// A directed leader → victim drop that heals, checkpointing on. Cut off
/// from the proposals, the victim decides nothing; the other six still
/// make the quorum (q = 6 at n = 7) and move on, and since peers never
/// retransmit a decided slot, what brings the victim back is their stable
/// checkpoint, by state transfer. Every seed ends with one log and one
/// state on all seven, having dropped messages and transferred state.
#[test]
fn directed_partition_heals_and_the_victim_catches_up_by_state_transfer() {
    let victim = ProcessId(3);
    let settings = SmrSettings {
        checkpoint_interval: 8,
        ..workload_mode(96)
    };
    for seed in SEEDS {
        let cut = LinkFault::Cut {
            to: victim,
            heal_at: SimTime::from_ticks(2_000),
        };
        let cluster = run(7, seed, settings, cut);
        assert_eq!(agreed(&cluster).0, 96, "seed {seed}");
        let dropped: u64 = cluster.sim.metrics().iter().map(|(_, k)| k.dropped).sum();
        assert!(dropped > 0, "seed {seed}: the cut dropped nothing");
        let transfers = cluster
            .member(victim.index())
            .node
            .obs()
            .state_transfers
            .get();
        assert!(
            transfers >= 1,
            "seed {seed}: the victim transferred no state"
        );
    }
}

/// Extra delay, uniform in 1 000..=8 000 ticks (1–8 ms at the runtime's
/// tick = 1 µs), on every link out of the leader, checkpointing off. A
/// message arrives late but arrives, so every seed applies all 60 entries
/// on every replica — the very log of the same seed without jitter, since
/// a workload-mode batch is a fixed slice of the leader's queue and delay
/// moves only *when* a slot decides — and finishes later in virtual time.
#[test]
fn jitter_out_of_the_leader_delays_the_log_without_changing_it() {
    let settings = workload_mode(60);
    for seed in SEEDS {
        let clean = run(4, seed, settings, network());
        let extra = Uniform::new(
            SimDuration::from_ticks(1_000),
            SimDuration::from_ticks(8_000),
        );
        let jittered = run(4, seed, settings, LinkFault::Slow { extra });
        let log = agreed(&clean);
        assert_eq!(log.0, 60, "seed {seed}");
        assert_eq!(agreed(&jittered), log, "seed {seed}");
        let (jittered, clean) = (jittered.sim.now(), clean.sim.now());
        assert!(
            jittered > clean,
            "seed {seed}: jittered run finished at {jittered}, clean at {clean}"
        );
    }
}

/// Serving mode against workload mode's static batch of two, with the
/// whole workload queued up front: serving-mode batches are sized from
/// the queue to drain it across the pipeline window, so the same log
/// takes far fewer slots at a larger mean batch, identical everywhere.
#[test]
fn serving_mode_drains_a_deep_queue_in_fewer_slots() {
    let target = 96;
    let serving = SmrSettings {
        target_len: target,
        ..SmrSettings::live(4)
    };
    let runs = [workload_mode(target), serving].map(|settings| {
        let cluster = run(4, 5, settings, network());
        let (len, _) = agreed(&cluster);
        let slots = cluster.member(LEADER.index()).node.slots_applied();
        (len, slots, len as f64 / slots as f64)
    });
    let [(static_len, static_slots, static_batch), (len, slots, batch)] = runs;
    assert_eq!((static_len, len), (target as u64, target as u64));
    assert!(
        slots < static_slots,
        "serving mode must pack a deep queue into fewer slots ({slots} vs {static_slots})"
    );
    assert!(batch > static_batch, "{batch} vs {static_batch}");
}
