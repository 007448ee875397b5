//! Jepsen-style nemesis harness for the live SMR cluster.
//!
//! A [`FaultPlan`] is a seeded, schedulable list of faults — leader
//! kills, asymmetric per-link partitions, latency/jitter injection, and
//! live Byzantine agents replaying the simulator's equivocation and
//! far-future slot-spray adversaries over real sockets. [`execute`]
//! walks the plan against a running [`LiveSmrCluster`] while client
//! threads hammer it, recording a transcript; afterwards
//! [`verify_invariants`] sweeps the shutdown [`ReplicaReport`]s for the
//! Tier-1 guarantees: every unpaused replica holds the identical logical
//! log (matching `(total_log_len, log_digest)`) and identical state, and
//! no confirmed request id was lost — while [`verify_exactly_once`]
//! proves no request *executed* twice (a duplicate log entry is legal
//! when a view-change re-proposal races a client retry; double
//! execution never is).
//!
//! Determinism-where-possible: the plan's schedule is fixed, the fault
//! payloads (equivocating values, sprayed slots) derive from the seed,
//! and the cluster's own latency jitter is a seeded hash
//! ([`NetPolicy::reseed`]) — only thread interleaving varies run to run.
//! Failures must surface the seed so a CI artifact reproduces locally;
//! [`NemesisRun::transcript`] starts with a `seed=` line for exactly
//! that.
//!
//! ```no_run
//! use probft_runtime::nemesis::{execute, verify_invariants, Fault, FaultPlan};
//! use probft_runtime::LiveSmrBuilder;
//! use std::collections::BTreeSet;
//! use std::time::Duration;
//!
//! let cluster = LiveSmrBuilder::new(7).seed(42).start().unwrap();
//! let plan = FaultPlan::new(42)
//!     .at(Duration::from_millis(100), Fault::KillLeader)
//!     .at(Duration::from_millis(600), Fault::ResumeAll);
//! // ... spawn client threads against `cluster` ...
//! let run = execute(&cluster, &plan);
//! let reports = cluster.shutdown();
//! let confirmed = BTreeSet::new(); // ids the clients saw applied
//! verify_invariants(&reports, &[], &confirmed).unwrap_or_else(|violations| {
//!     panic!("seed {}: {violations:#?}", run.seed);
//! });
//! ```

use crate::live::{LinkRule, LiveSmrCluster, ReplicaReport, SmrFrame};
use crate::transport::write_frame;
use probft_core::config::View;
use probft_core::message::{Message, NewLeader, NewLeaderBody, Propose, Wish, WishBody};
use probft_core::value::Value;
use probft_quorum::ReplicaId;
use probft_smr::{RequestId, SlotMessage, StateMachine};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How many forged frames one Byzantine spray event injects per target.
const SPRAY_FRAMES: u64 = 16;

/// One schedulable fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Pause whichever replica the (unpaused) cluster currently believes
    /// leads — the mid-stream leader kill. The id actually chosen is
    /// recorded in the transcript.
    KillLeader,
    /// Pause a specific replica.
    Kill(usize),
    /// Resume a specific replica.
    Resume(usize),
    /// Resume every replica.
    ResumeAll,
    /// Install a directed blackhole: frames from `from` to `to` are
    /// silently discarded (the reverse direction still flows — an
    /// *asymmetric* partition).
    Isolate {
        /// Sending side of the dead link.
        from: usize,
        /// Receiving side of the dead link.
        to: usize,
    },
    /// Inject seeded latency jitter on the directed link `from → to`:
    /// each frame is held for a uniform duration in `[min, max]` sampled
    /// from the cluster's deterministic jitter stream (the live analogue
    /// of simnet's `Uniform` delay model).
    Jitter {
        /// Sending side of the slowed link.
        from: usize,
        /// Receiving side of the slowed link.
        to: usize,
        /// Shortest per-frame hold.
        min: Duration,
        /// Longest per-frame hold.
        max: Duration,
    },
    /// Clear every link rule (partitions and jitter both).
    Heal,
    /// A live Byzantine agent equivocates with the current leader's
    /// signing key: two conflicting, correctly signed proposals for the
    /// same in-horizon slot, one sent to each half of the cluster — the
    /// sim's equivocation adversary replayed over real sockets.
    Equivocate,
    /// A live Byzantine agent sprays correctly signed frames at slots
    /// and views far beyond the buffering horizon — the sim's far-future
    /// slot-spray adversary. Honest replicas must drop (and count) every
    /// one without growing memory.
    FarFutureSpray,
}

/// A seeded, ordered schedule of [`Fault`]s, each at an offset from the
/// moment [`execute`] starts walking the plan.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<(Duration, Fault)>,
}

impl FaultPlan {
    /// Starts an empty plan. The seed parameterises every derived fault
    /// payload (equivocating values, sprayed slots) and belongs in the
    /// failure report: the same seed and plan reproduce the same attack.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedules `fault` at `offset` from the start of execution.
    /// Events fire in offset order regardless of insertion order.
    #[must_use]
    pub fn at(mut self, offset: Duration, fault: Fault) -> Self {
        self.events.push((offset, fault));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> Vec<(Duration, Fault)> {
        let mut events = self.events.clone();
        events.sort_by_key(|(at, _)| *at);
        events
    }
}

/// What one [`execute`] walk did: the seed to reproduce it and a
/// human-readable transcript, one line per fault fired (plus a leading
/// `seed=` line). Write it to disk in tests so a CI failure artifact
/// carries everything needed to rerun locally.
#[derive(Clone, Debug)]
pub struct NemesisRun {
    /// The plan's seed (also the first transcript line).
    pub seed: u64,
    /// One line per event, in firing order.
    pub transcript: Vec<String>,
}

impl NemesisRun {
    /// Writes the transcript to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_transcript(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.transcript.join("\n") + "\n")
    }
}

/// Walks `plan` against `cluster` on the calling thread: sleeps until
/// each event's offset, applies the fault, and records what happened.
/// Client load belongs on other threads; run them across this call.
pub fn execute<S: StateMachine>(cluster: &LiveSmrCluster<S>, plan: &FaultPlan) -> NemesisRun {
    let started = Instant::now();
    let mut transcript = vec![format!("seed={}", plan.seed)];
    for (offset, fault) in plan.events() {
        if let Some(wait) = offset.checked_sub(started.elapsed()) {
            crate::pacing::pause(wait);
        }
        let line = apply_fault(cluster, &fault, plan.seed);
        transcript.push(format!("t+{}ms {line}", offset.as_millis()));
    }
    NemesisRun {
        seed: plan.seed,
        transcript,
    }
}

/// Applies one fault, returning the transcript line describing it.
fn apply_fault<S: StateMachine>(cluster: &LiveSmrCluster<S>, fault: &Fault, seed: u64) -> String {
    match fault {
        Fault::KillLeader => {
            let leader = cluster.current_leader();
            // Arm recovery-latency tracking on the survivors *before* the
            // pause takes effect, so the window includes the whole outage.
            cluster.note_fault("kill-leader", true);
            cluster.pause(leader);
            format!("kill-leader: paused replica {leader}")
        }
        Fault::Kill(i) => {
            cluster.note_fault("kill", true);
            cluster.pause(*i);
            format!("kill: paused replica {i}")
        }
        Fault::Resume(i) => {
            cluster.resume(*i);
            cluster.note_fault_lifted("resume");
            format!("resume: replica {i}")
        }
        Fault::ResumeAll => {
            for i in 0..cluster.addrs().len() {
                cluster.resume(i);
            }
            cluster.note_fault_lifted("resume-all");
            "resume-all".into()
        }
        Fault::Isolate { from, to } => {
            cluster.note_fault("isolate", false);
            cluster.net().set_link(*from, *to, LinkRule::blackhole());
            format!("isolate: blackhole {from} -> {to}")
        }
        Fault::Jitter { from, to, min, max } => {
            cluster.note_fault("jitter", false);
            cluster
                .net()
                .set_link(*from, *to, LinkRule::latency(*min, *max));
            format!(
                "jitter: {from} -> {to} held {}..{}ms per frame",
                min.as_millis(),
                max.as_millis()
            )
        }
        Fault::Heal => {
            cluster.net().heal();
            cluster.note_fault_lifted("heal");
            "heal: all link rules cleared".into()
        }
        Fault::Equivocate => {
            cluster.note_fault("equivocate", false);
            equivocate(cluster, seed)
        }
        Fault::FarFutureSpray => {
            cluster.note_fault("far-future-spray", false);
            far_future_spray(cluster, seed)
        }
    }
}

/// The equivocation adversary: signs two conflicting proposals for one
/// in-horizon slot with the current leader's real key and shows each
/// half of the cluster a different one. Honest replicas' probabilistic
/// quorums must never commit both; at worst the slot stalls into a view
/// change. The values are deliberately not decodable batches — a decided
/// adversarial value applies as an empty batch, never as fabricated
/// client operations.
fn equivocate<S: StateMachine>(cluster: &LiveSmrCluster<S>, seed: u64) -> String {
    // Forged in the view the log is in — the one slots actually run in —
    // under that view's leader, so the forgeries verify end to end.
    let (attacker, view) = (cluster.current_leader(), cluster.current_view());
    let keyring = cluster.keyring();
    let Ok(sk) = keyring.signing_key(attacker) else {
        return format!("equivocate: no signing key for replica {attacker}");
    };
    // Past view 1 a proposal is only safe with a quorum of `NewLeader`
    // reports behind it: every replica "reports" having prepared nothing,
    // which for a slot nobody has opened yet is true.
    let reporters = if view > View::FIRST {
        cluster.addrs().len()
    } else {
        0
    };
    let justification: Vec<NewLeader> = (0..reporters)
        .filter_map(|i| {
            let report = NewLeaderBody {
                sender: ReplicaId::from(i),
                view,
                prepared_view: View::NONE,
                prepared_value: None,
                cert: Vec::new(),
            };
            Some(NewLeader::sign(keyring.signing_key(i).ok()?, report))
        })
        .collect();
    // Six past the slot frontier (the applied *length* says nothing about
    // it: a slot may hold many entries, or none): beyond a depth-4
    // pipeline window and inside the tightest buffering horizon (8), so
    // every replica buffers its forgery and meets it first when the log
    // gets there. Forged into the window instead, the frames race the
    // leader's own proposal, and a lone replica that loses the race blocks
    // the slot by itself while the rest decide it — stranded, since nobody
    // retransmits a decided slot (ROADMAP item 4), which tests that gap
    // and not equivocation.
    let frontier = cluster.obs_handles().iter().map(|o| o.applied_slots.get());
    let slot = frontier.max().unwrap_or(0) + 6;
    let forge = |tag: &str| {
        let value = Value::new(format!("nemesis-equivocation-{seed}-{slot}-{tag}").into_bytes());
        let propose = Message::Propose(Propose::lead(
            sk,
            ReplicaId::from(attacker),
            view,
            value,
            justification.clone(),
        ));
        peer_frame::<S>(attacker, slot, propose)
    };
    let (frame_a, frame_b) = (forge("a"), forge("b"));
    let addrs = cluster.addrs().to_vec();
    let mut sent = 0usize;
    for (i, addr) in addrs.iter().enumerate() {
        if i == attacker || cluster.is_paused(i) {
            continue;
        }
        let frame = if i % 2 == 0 { &frame_a } else { &frame_b };
        sent += inject(*addr, std::slice::from_ref(frame));
    }
    format!(
        "equivocate: replica {attacker}'s key, slot {slot}, view {}, {sent} frames",
        view.0
    )
}

/// The far-future slot-spray adversary: correctly signed traffic at
/// slots and views far beyond any honest horizon. Every frame must be
/// dropped and counted (`drops_future_horizon`), never buffered.
fn far_future_spray<S: StateMachine>(cluster: &LiveSmrCluster<S>, seed: u64) -> String {
    let n = cluster.addrs().len();
    let attacker = n.saturating_sub(1);
    let Ok(sk) = cluster.keyring().signing_key(attacker) else {
        return format!("far-future-spray: no signing key for replica {attacker}");
    };
    let base = cluster.applied_lens().into_iter().max().unwrap_or(0) + 100_000;
    let frames: Vec<Vec<u8>> = (0..SPRAY_FRAMES)
        .map(|k| {
            let slot = base + (seed ^ k) % 1_000_000;
            let wish = Wish::sign(
                sk,
                WishBody {
                    sender: ReplicaId::from(attacker),
                    view: View(1_000_000 + k),
                },
            );
            peer_frame::<S>(attacker, slot, Message::Wish(wish))
        })
        .collect();
    let addrs = cluster.addrs().to_vec();
    let mut sent = 0usize;
    for (i, addr) in addrs.iter().enumerate() {
        if i == attacker || cluster.is_paused(i) {
            continue;
        }
        sent += inject(*addr, &frames);
    }
    format!("far-future-spray: replica {attacker}'s key, slots >= {base}, {sent} frames")
}

/// Encodes one forged peer frame as replica `from`.
fn peer_frame<S: StateMachine>(from: usize, slot: u64, inner: Message) -> Vec<u8> {
    use probft_core::wire::Wire;
    SmrFrame::<S>::Peer {
        from: crate::host::wire_id(from),
        msg: SlotMessage { slot, inner },
    }
    .to_wire_bytes()
}

/// Opens one connection to `addr` and writes every frame, returning how
/// many were accepted by the socket (an unreachable replica injects
/// nothing, which is fine — it is being attacked, not relied on).
fn inject(addr: SocketAddr, frames: &[Vec<u8>]) -> usize {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return 0;
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fault injector: the injected connection is adversarial traffic by construction — tuning it is opportunistic and its failure is part of the chaos being injected"
    )]
    let _ = stream.set_nodelay(true);
    frames
        .iter()
        .take_while(|frame| write_frame(&mut stream, frame).is_ok())
        .count()
}

/// Sweeps shutdown [`ReplicaReport`]s for the Tier-1 invariants:
///
/// 1. **Agreement** — every replica not in `excluded` (left paused or
///    deliberately divergent) reports the identical logical log
///    (matching `(total_log_len, log_digest)`) and identical final
///    state.
/// 2. **No lost request** — every id in `confirmed` (replies the clients
///    actually received) appears in the reference replica's log. Only
///    checkable when nothing was truncated (`log_offset == 0`, i.e. runs
///    with checkpointing off); with truncation the check is skipped —
///    agreement still covers the full history via the digest chain.
///
/// Duplicate log *entries* for one request id are legal and expected
/// under faults — a view-change re-proposal plus a client retry can
/// order the same id twice — and every replica deterministically skips
/// re-execution of the duplicate. The "no doubled execution" half of
/// at-most-once is therefore checked against the state machine, not the
/// log: see [`verify_exactly_once`] for the reference `KvStore`.
///
/// # Errors
///
/// Every violation found, as human-readable strings. Callers must
/// include their seed when reporting — that is what makes a CI failure
/// reproducible.
pub fn verify_invariants<S: StateMachine>(
    reports: &[ReplicaReport<S>],
    excluded: &[usize],
    confirmed: &BTreeSet<RequestId>,
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let live: Vec<&ReplicaReport<S>> = reports
        .iter()
        .filter(|r| !excluded.contains(&r.id))
        .collect();
    let Some(first) = live.first() else {
        return Err(vec!["no unpaused replicas to verify".into()]);
    };

    for r in &live {
        if (r.total_log_len(), r.log_digest) != (first.total_log_len(), first.log_digest) {
            violations.push(format!(
                "agreement: replica {} reports (len {}, digest {:?}) but replica {} \
                 reports (len {}, digest {:?})",
                r.id,
                r.total_log_len(),
                r.log_digest,
                first.id,
                first.total_log_len(),
                first.log_digest,
            ));
        }
        if r.state != first.state {
            violations.push(format!(
                "agreement: replica {}'s final state diverges from replica {}'s",
                r.id, first.id
            ));
        }
    }

    if first.log_offset == 0 {
        let present: BTreeSet<RequestId> = first.log.iter().filter_map(|e| e.request).collect();
        for id in confirmed {
            if !present.contains(id) {
                violations.push(format!(
                    "lost: request {id} was confirmed to a client but is absent from \
                     replica {}'s log",
                    first.id
                ));
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The "no doubled execution" half of at-most-once, exact for the
/// reference [`KvStore`](probft_smr::KvStore): a replica whose full log
/// is resident (`log_offset == 0`) must have executed exactly one write
/// per *distinct* tagged write id plus one per untagged write entry —
/// the store's `applied` counter ticks once per executed write, so a
/// retry that slipped past the dedup shows up as an excess execution.
///
/// # Errors
///
/// One violation string per replica whose execution count is off.
pub fn verify_exactly_once(
    reports: &[ReplicaReport<probft_smr::KvStore>],
    excluded: &[usize],
) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    for r in reports {
        if excluded.contains(&r.id) || r.log_offset != 0 {
            continue;
        }
        let mut distinct = BTreeSet::new();
        let mut expected: u64 = 0;
        for entry in &r.log {
            if entry.kind != probft_smr::OpKind::Write {
                continue;
            }
            match entry.request {
                Some(id) => {
                    if distinct.insert(id) {
                        expected += 1;
                    }
                }
                None => expected += 1,
            }
        }
        if r.state.applied() != expected {
            violations.push(format!(
                "doubled: replica {} executed {} writes but its log holds only {} \
                 distinct write requests — a duplicate slipped past the dedup",
                r.id,
                r.state.applied(),
                expected,
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_events_fire_in_offset_order() {
        let plan = FaultPlan::new(7)
            .at(Duration::from_millis(50), Fault::ResumeAll)
            .at(Duration::from_millis(10), Fault::KillLeader)
            .at(Duration::from_millis(30), Fault::Heal);
        let order: Vec<Duration> = plan.events().into_iter().map(|(at, _)| at).collect();
        assert_eq!(
            order,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(30),
                Duration::from_millis(50)
            ]
        );
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn empty_report_set_is_a_violation() {
        let reports: Vec<ReplicaReport> = Vec::new();
        let confirmed = BTreeSet::new();
        assert!(verify_invariants(&reports, &[], &confirmed).is_err());
    }
}
