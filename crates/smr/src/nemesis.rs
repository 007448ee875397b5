//! One fault plan, one invariant sweep: what a chaos run does to a
//! cluster, and what must still hold of the cluster afterwards.
//!
//! A [`FaultPlan`] is a seeded schedule of [`Fault`]s — process faults
//! (leader kills, pauses, resumes) and Byzantine traffic forged with a
//! replica's real key (an equivocation, a far-future slot spray). Two
//! executors walk the same plan:
//!
//! * **on the wall clock**, `probft_runtime::nemesis::execute`, against a
//!   live TCP cluster under real clients: the forged messages are framed
//!   and injected over sockets, through the replicas' real decoder;
//! * **in virtual time**, [`Cluster::execute`](crate::sim::Cluster::execute)
//!   ([`crate::sim`]), against [`SmrNode`](crate::SmrNode)s
//!   under `simnet`: event offsets become ticks (1 tick = 1 µs), the forged
//!   messages are delivered from the attacker's process, and every seed
//!   replays bit for bit.
//!
//! The forgeries are pure functions — [`equivocation`] and
//! [`far_future_spray`] — of the keyring, the attacker, the log's view, the
//! slot frontier and the seed, so both executors attack with the same
//! messages. Link faults (partitions, drops, jitter) are not faults here:
//! they are the simulator's `DelayModel`s.
//!
//! Every run ends with the same sweep over each replica's
//! [`ReplicaReport`] (the live cluster's shutdown, or
//! [`SmrNode::report`](crate::SmrNode::report) in the simulator):
//! [`verify_invariants`] — every replica not excluded holds the identical
//! logical log and state, and no confirmed request id was lost — and
//! [`verify_exactly_once`] — no request *executed* twice (a duplicate log
//! entry is legal when a view-change re-proposal races a client retry;
//! double execution never is).

use crate::kv::KvStore;
use crate::machine::{Entry, OpKind, RequestId, StateMachine};
use crate::node::SlotMessage;
use probft_core::config::View;
use probft_core::message::{Message, NewLeader, NewLeaderBody, Propose, Wish, WishBody};
use probft_core::value::Value;
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::Digest;
use probft_obs::{MetricsSnapshot, Obs, TraceEvent, TraceKind};
use probft_quorum::ReplicaId;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// How far past the slot frontier [`equivocation`] forges: beyond a
/// depth-4 pipeline window and inside the tightest buffering horizon (8),
/// so every replica buffers its forgery and meets it first when the log
/// gets there. Forged into the window instead, the forgeries race the
/// leader's own proposal, and a lone replica that loses the race blocks the
/// slot by itself while the rest decide it — stranded, since nobody
/// retransmits a decided slot, which tests that gap and not equivocation.
pub const EQUIVOCATION_LEAD: u64 = 6;

/// How many wishes one [`far_future_spray`] forges.
pub const SPRAY_FRAMES: u64 = 16;

/// Where [`far_future_spray`] starts past the slot frontier: beyond every
/// buffering horizon.
const SPRAY_BASE: u64 = 100_000;

/// One schedulable fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Pause whichever replica the (unpaused) cluster currently believes
    /// leads — the mid-stream leader kill: the leader of the plurality view
    /// of the unpaused replicas. The id actually chosen is recorded in the
    /// transcript.
    KillLeader,
    /// Pause a specific replica.
    Kill(usize),
    /// Resume a specific replica.
    Resume(usize),
    /// Resume every replica.
    ResumeAll,
    /// A Byzantine agent equivocates with the current leader's signing
    /// key: two conflicting, correctly signed proposals for the same
    /// slot ([`equivocation`]), one shown to each half of the cluster.
    Equivocate,
    /// A Byzantine agent sprays correctly signed wishes at slots and views
    /// far beyond the buffering horizon ([`far_future_spray`]). Honest
    /// replicas must drop (and count) every one without growing memory.
    FarFutureSpray,
}

impl Fault {
    /// The fault's name in transcripts and flight recorders.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::KillLeader => "kill-leader",
            Fault::Kill(_) => "kill",
            Fault::Resume(_) => "resume",
            Fault::ResumeAll => "resume-all",
            Fault::Equivocate => "equivocate",
            Fault::FarFutureSpray => "far-future-spray",
        }
    }

    /// Marks the fault at `at` (the replicas' context µs) on a replica's
    /// flight recorder, as both executors do on every replica. A kill also
    /// arms the recovery-latency clock (the next applied slot records fault
    /// → progress into `recovery_latency_us`); a resume marks the fault
    /// lifted, which leaves the clock armed: recovery means progress.
    pub fn journal(&self, obs: &Obs, at: u64) {
        let fault = self.name().to_string();
        match self {
            Fault::KillLeader | Fault::Kill(_) => obs.mark_fault(at, &fault),
            Fault::Resume(_) | Fault::ResumeAll => obs.mark_fault_lifted(at, &fault),
            Fault::Equivocate | Fault::FarFutureSpray => {
                obs.trace(at, TraceKind::FaultStart { fault })
            }
        }
    }
}

/// A seeded, ordered schedule of [`Fault`]s, each at an offset from the
/// moment an executor starts walking the plan.
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

/// The view a cluster holds the log in, from the views its unpaused
/// replicas hold: the most common, ties broken low, and never below view 1
/// (a replica that has not started yet shows view 0). `KillLeader` pauses
/// its leader, in both executors.
pub fn plurality_view(views: impl IntoIterator<Item = View>) -> View {
    let mut votes: BTreeMap<View, usize> = BTreeMap::new();
    for view in views {
        let count = votes.entry(view).or_default();
        *count = count.saturating_add(1);
    }
    let plurality = votes
        .into_iter()
        .max_by_key(|&(view, count)| (count, std::cmp::Reverse(view)));
    plurality.map_or(View::FIRST, |(view, _)| view.max(View::FIRST))
}

/// The equivocation adversary's two forgeries: conflicting proposals for
/// slot `frontier + EQUIVOCATION_LEAD`, both signed with `attacker`'s key
/// in `view`. Past view 1 a proposal is only safe with a quorum of
/// `NewLeader` reports behind it, so every replica "reports" having
/// prepared nothing — which for a slot nobody has opened yet is true — and
/// the forgeries verify end to end. The values are deliberately not
/// decodable batches: a decided forgery applies as an empty batch, never
/// as fabricated client operations. `None` if the keyring holds no key for
/// `attacker`.
pub fn equivocation(
    keyring: &Keyring,
    attacker: usize,
    view: View,
    frontier: u64,
    seed: u64,
) -> Option<[SlotMessage; 2]> {
    let sk = keyring.signing_key(attacker).ok()?;
    let reporters = if view > View::FIRST { keyring.len() } else { 0 };
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
    let slot = frontier.saturating_add(EQUIVOCATION_LEAD);
    let forge = |tag: &str| {
        let value = Value::new(format!("nemesis-equivocation-{seed}-{slot}-{tag}").into_bytes());
        let leader = ReplicaId::from(attacker);
        let propose = Propose::lead(sk, leader, view, value, justification.clone());
        SlotMessage {
            slot,
            inner: Message::Propose(propose),
        }
    };
    Some([forge("a"), forge("b")])
}

/// The far-future slot-spray adversary's forgeries: [`SPRAY_FRAMES`]
/// wishes signed with `attacker`'s key, for views a million ahead, at slots
/// at least 100 000 past `frontier` — beyond any honest horizon, so every
/// one must be dropped and counted (`drops_future_horizon`), never
/// buffered. `None` if the keyring holds no key for `attacker`.
pub fn far_future_spray(
    keyring: &Keyring,
    attacker: usize,
    frontier: u64,
    seed: u64,
) -> Option<Vec<SlotMessage>> {
    let sk = keyring.signing_key(attacker).ok()?;
    let base = frontier.saturating_add(SPRAY_BASE);
    let spray = (0..SPRAY_FRAMES).map(|k| {
        let body = WishBody {
            sender: ReplicaId::from(attacker),
            view: View(k.saturating_add(1_000_000)),
        };
        SlotMessage {
            slot: base.saturating_add((seed ^ k) % 1_000_000),
            inner: Message::Wish(Wish::sign(sk, body)),
        }
    });
    Some(spray.collect())
}

/// What one replica held at the end of a run.
#[derive(Clone, Debug)]
pub struct ReplicaReport<S: StateMachine = KvStore> {
    /// The replica's id.
    pub id: usize,
    /// Its *resident* decided entry log: the suffix above the stable
    /// checkpoint (the full log while checkpointing is off; identical
    /// across correct replicas up to truncation points).
    pub log: Vec<Entry<S::Op>>,
    /// Entries truncated below the stable checkpoint — the global index
    /// of `log[0]`.
    pub log_offset: u64,
    /// Running SHA-256 chain over every entry the replica ever applied;
    /// with [`total_log_len`](Self::total_log_len) it identifies the full
    /// logical log even after truncation.
    pub log_digest: Digest,
    /// Its application state.
    pub state: S,
    /// Per-slot consensus instances still heap-resident (bounded by the
    /// pipeline depth — decided slots are pruned on apply).
    pub resident_slots: usize,
    /// Final snapshot of the replica's `probft-obs` metrics registry:
    /// latency histograms (commit/decide/apply/recovery), attributable
    /// drop counters, the checkpoint / truncation / state-transfer
    /// counters, frame byte counters, and gauges.
    pub metrics: MetricsSnapshot,
    /// The replica's flight-recorder journal: the last
    /// `DEFAULT_JOURNAL_CAPACITY` consensus-phase events, with any
    /// nemesis fault markers interleaved on the same clock.
    pub journal: Vec<TraceEvent>,
}

impl<S: StateMachine> ReplicaReport<S> {
    /// Total entries the replica applied: truncated plus resident.
    pub fn total_log_len(&self) -> u64 {
        self.log_offset.saturating_add(self.log.len() as u64)
    }

    /// Folds every replica's metrics snapshot into one cluster-wide
    /// snapshot (labeled `cluster`): counters and histogram buckets add,
    /// so percentiles read over the union of all replicas' samples.
    pub fn aggregate_metrics(reports: &[ReplicaReport<S>]) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        merged.set_label("cluster");
        for report in reports {
            merged.merge(&report.metrics);
        }
        merged
    }
}

/// Sweeps end-of-run [`ReplicaReport`]s for the Tier-1 invariants:
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
/// include their seed when reporting — that is what makes a failure
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
/// reference [`KvStore`]: a replica whose full log is resident
/// (`log_offset == 0`) must have executed exactly one write per
/// *distinct* tagged write id plus one per untagged write entry — the
/// store's `applied` counter ticks once per executed write, so a retry
/// that slipped past the dedup shows up as an excess execution.
///
/// # Errors
///
/// One violation string per replica whose execution count is off.
pub fn verify_exactly_once(
    reports: &[ReplicaReport<KvStore>],
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
            if entry.kind != OpKind::Write {
                continue;
            }
            match entry.request {
                Some(id) => {
                    if distinct.insert(id) {
                        expected = expected.saturating_add(1);
                    }
                }
                None => expected = expected.saturating_add(1),
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
    use crate::node::SmrSettings;
    use probft_core::config::ProbftConfig;
    use probft_core::message::VerifyCtx;

    #[test]
    fn plan_events_fire_in_offset_order() {
        let plan = FaultPlan::new(7)
            .at(Duration::from_millis(50), Fault::ResumeAll)
            .at(Duration::from_millis(10), Fault::KillLeader);
        let order: Vec<Duration> = plan.events().into_iter().map(|(at, _)| at).collect();
        assert_eq!(
            order,
            vec![Duration::from_millis(10), Duration::from_millis(50)]
        );
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn empty_report_set_is_a_violation() {
        let reports: Vec<ReplicaReport> = Vec::new();
        let confirmed = BTreeSet::new();
        assert!(verify_invariants(&reports, &[], &confirmed).is_err());
    }

    /// Both forgeries verify under the cluster's keys — in view 1, and past
    /// it with their `NewLeader` quorum — name the same slot with different
    /// values, and land where every replica buffers them: past the pipeline
    /// window, inside the buffering horizon, checkpointing on or off.
    #[test]
    fn equivocating_proposals_verify_differ_and_land_beyond_the_window() {
        let n = 7;
        let cfg = ProbftConfig::builder(n).build();
        let keyring = Keyring::generate(n, b"forgers");
        let keys = keyring.public();
        let frontier = 40;
        for view in [View(1), View(2), View(9)] {
            let attacker = cfg.leader_of(view).index();
            let [a, b] = equivocation(&keyring, attacker, view, frontier, 3).expect("in range");
            assert_eq!(a.slot, b.slot);
            assert_ne!(a.inner, b.inner, "view {view:?}: the same proposal twice");
            for forged in [&a, &b] {
                assert!(matches!(forged.inner, Message::Propose(_)));
                assert_eq!(forged.inner.view(), view);
                let verified = forged.inner.verify(&VerifyCtx::new(&cfg, &keys));
                assert_eq!(verified, Ok(()), "view {view:?}");
            }
            for checkpoint_interval in [0, 8] {
                let settings = SmrSettings {
                    checkpoint_interval,
                    ..SmrSettings::live(4)
                };
                let window = frontier + settings.pipeline_depth as u64;
                let horizon = frontier + settings.future_window();
                assert!(window < a.slot && a.slot < horizon, "slot {}", a.slot);
            }
        }
        assert!(equivocation(&keyring, n, View(1), frontier, 3).is_none());
    }

    /// Every sprayed wish verifies under the cluster's keys, and every one
    /// is tagged beyond the buffering horizon of any pipeline depth.
    #[test]
    fn sprayed_wishes_verify_and_land_beyond_every_horizon() {
        let n = 4;
        let cfg = ProbftConfig::builder(n).build();
        let keyring = Keyring::generate(n, b"forgers");
        let keys = keyring.public();
        let frontier = 1_000;
        let spray = far_future_spray(&keyring, 3, frontier, 11).expect("in range");
        assert_eq!(spray.len() as u64, SPRAY_FRAMES);
        let widest = (1..=64)
            .flat_map(|depth| {
                [0, 8].map(|checkpoint_interval| SmrSettings {
                    checkpoint_interval,
                    ..SmrSettings::live(depth)
                })
            })
            .map(|settings| settings.future_window())
            .max()
            .expect("some settings");
        for forged in &spray {
            assert!(matches!(forged.inner, Message::Wish(_)));
            assert_eq!(forged.inner.verify(&VerifyCtx::new(&cfg, &keys)), Ok(()));
            assert!(forged.slot >= frontier + widest, "slot {}", forged.slot);
        }
        assert!(far_future_spray(&keyring, n, frontier, 11).is_none());
    }
}
