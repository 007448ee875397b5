//! Experiment harness: build one single-shot consensus instance, run it,
//! inspect the outcome — for ProBFT and for the PBFT and HotStuff
//! baselines alike.
//!
//! Everything the integration tests, examples, and figure-regeneration
//! binaries do goes through [`Instance`]: it wires the keyring,
//! configuration, network model, honest replicas, and Byzantine strategies
//! into one deterministic simulation and condenses the run into an
//! [`InstanceOutcome`]. A protocol plugs in by implementing
//! [`Phases`]; every [`ViewShell`] is then a [`Protocol`], and
//! [`InstanceBuilder`] is the ProBFT instantiation.
//!
//! # Examples
//!
//! ```
//! use probft_core::harness::InstanceBuilder;
//!
//! // 7 replicas, all honest, synchronous network: one view, unanimous.
//! let outcome = InstanceBuilder::new(7).seed(42).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! assert_eq!(outcome.decided_views(), vec![probft_core::config::View(1)]);
//! ```

use crate::config::{ProbftConfig, SharedConfig, View};
use crate::replica::{Decision, Replica};
use crate::shell::{Phases, ShellState, ViewShell};
use crate::value::{ValidityPredicate, Value};
use probft_crypto::keyring::Keyring;
use probft_quorum::ReplicaId;
use probft_simnet::delay::{DelayModel, HealingPartition, Lossy, PartialSynchrony};
use probft_simnet::metrics::{Measurable, MessageMetrics};
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Deref;
use std::sync::Arc;

pub use crate::shell::Seat;

/// Per-event budget of an instance: generous enough for hundreds of views.
const MAX_EVENTS: u64 = 20_000_000;

/// Runs a cluster of `cfg.n()` simulated processes — keys generated from
/// `seed`, one process per [`Seat`] from `spawn`, all over `network` — until
/// every process is `done` or `max_events` ran out.
pub fn run_cluster<P: Process<Message: Measurable + Clone>>(
    cfg: SharedConfig,
    seed: u64,
    network: impl DelayModel + 'static,
    mut spawn: impl FnMut(Seat) -> P,
    done: impl Fn(&P) -> bool,
    max_events: u64,
) -> (Simulation<P>, RunOutcome) {
    let keyring = Keyring::generate(cfg.n(), &seed.to_be_bytes());
    let keys = Arc::new(keyring.public());
    let mut sim = Simulation::new(network, seed);
    for (i, id) in cfg.all_replicas().enumerate() {
        let sk = keyring.signing_key(i).expect("index in range").clone();
        sim.add_process(spawn(Seat {
            cfg: cfg.clone(),
            id,
            sk,
            keys: keys.clone(),
        }));
    }
    let all_done = |s: &Simulation<P>| s.processes().all(|(_, p)| done(p));
    let run_outcome = sim.run_until_condition(all_done, max_events);
    (sim, run_outcome)
}

/// A single-shot consensus protocol the harness can run: the honest
/// replica's type, which is some [`ViewShell`] and is inspected through the
/// [`ShellState`] it dereferences to.
pub trait Protocol:
    Process<Message: Measurable + Clone> + Deref<Target = ShellState> + Sized
{
    /// The protocol's Byzantine behaviours.
    type Strategy;
    /// A replica executing one [`Strategy`](Self::Strategy).
    type Byzantine: Process<Message = Self::Message>;

    /// The quorum multiplier `l` and overprovision factor `o` instances
    /// start from.
    const QUORUM_PARAMS: (f64, f64);

    /// Builds the honest replica proposing `value` when it leads.
    fn honest(seat: Seat, value: Value) -> Self;

    /// Builds a Byzantine replica colluding with the `faulty` set.
    fn byzantine(
        seat: Seat,
        faulty: Arc<BTreeSet<ReplicaId>>,
        strategy: Self::Strategy,
    ) -> Self::Byzantine;
}

impl<P: Phases<Message: Measurable>> Protocol for ViewShell<P> {
    type Strategy = P::Strategy;
    type Byzantine = P::Byzantine;
    const QUORUM_PARAMS: (f64, f64) = P::QUORUM_PARAMS;

    fn honest(seat: Seat, value: Value) -> Self {
        ViewShell::new(seat.cfg, seat.id, seat.sk, seat.keys, value)
    }
    fn byzantine(
        seat: Seat,
        faulty: Arc<BTreeSet<ReplicaId>>,
        strategy: P::Strategy,
    ) -> P::Byzantine {
        P::byzantine(seat, faulty, strategy)
    }
}

/// A simulated participant: the simulator runs one process type, so this
/// is the sum of a protocol's honest and Byzantine behaviours.
enum Node<P: Protocol> {
    Honest(Box<P>),
    Byzantine(Box<P::Byzantine>),
}

impl<P: Protocol> Process for Node<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Message>) {
        match self {
            Node::Honest(r) => r.on_start(ctx),
            Node::Byzantine(b) => b.on_start(ctx),
        }
    }
    fn on_message(&mut self, from: ProcessId, msg: P::Message, ctx: &mut Context<'_, P::Message>) {
        match self {
            Node::Honest(r) => r.on_message(from, msg, ctx),
            Node::Byzantine(b) => b.on_message(from, msg, ctx),
        }
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, P::Message>) {
        match self {
            Node::Honest(r) => r.on_timer(token, ctx),
            Node::Byzantine(b) => b.on_timer(token, ctx),
        }
    }
}

/// Builds and runs a single ProBFT consensus instance.
pub type InstanceBuilder = Instance<Replica>;

/// Builds and runs a single consensus instance of protocol `P`.
#[derive(Debug)]
pub struct Instance<P: Protocol> {
    n: usize,
    l: f64,
    o: f64,
    seed: u64,
    gst: SimTime,
    pre_gst_max_delay: SimDuration,
    base_timeout: SimDuration,
    byzantine: BTreeMap<ReplicaId, P::Strategy>,
    values: BTreeMap<ReplicaId, Value>,
    validity: ValidityPredicate,
    drop_prob: f64,
    dup_prob: f64,
    partition: Option<(Vec<u8>, SimTime)>,
}

impl<P: Protocol> Instance<P> {
    /// Starts building an instance with `n` replicas (all honest, GST = 0).
    pub fn new(n: usize) -> Self {
        Instance {
            n,
            l: P::QUORUM_PARAMS.0,
            o: P::QUORUM_PARAMS.1,
            seed: 0,
            gst: SimTime::ZERO,
            pre_gst_max_delay: SimDuration::from_ticks(30_000),
            base_timeout: SimDuration::from_ticks(50_000),
            byzantine: BTreeMap::new(),
            values: BTreeMap::new(),
            validity: ValidityPredicate::accept_all(),
            drop_prob: 0.0,
            dup_prob: 0.0,
            partition: None,
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quorum multiplier `l`.
    pub fn quorum_multiplier(mut self, l: f64) -> Self {
        self.l = l;
        self
    }

    /// Sets the overprovision factor `o`.
    pub fn overprovision(mut self, o: f64) -> Self {
        self.o = o;
        self
    }

    /// Sets the global stabilization time (default 0: synchronous run).
    pub fn gst(mut self, gst: SimTime) -> Self {
        self.gst = gst;
        self
    }

    /// Sets the maximum pre-GST message delay (adversarial asynchrony).
    pub fn pre_gst_max_delay(mut self, d: SimDuration) -> Self {
        self.pre_gst_max_delay = d;
        self
    }

    /// Sets the base view timeout.
    pub fn base_timeout(mut self, d: SimDuration) -> Self {
        self.base_timeout = d;
        self
    }

    /// Assigns a Byzantine strategy to replica `id`.
    pub fn byzantine(mut self, id: ReplicaId, strategy: P::Strategy) -> Self {
        self.byzantine.insert(id, strategy);
        self
    }

    /// Sets replica `id`'s input value (default: `Value::from_tag(id)`).
    pub fn value(mut self, id: ReplicaId, value: Value) -> Self {
        self.values.insert(id, value);
        self
    }

    /// Sets the application validity predicate (default: accept all).
    pub fn validity(mut self, validity: ValidityPredicate) -> Self {
        self.validity = validity;
        self
    }

    /// Injects link faults: each message is dropped with `drop_prob` and
    /// duplicated with `dup_prob` (defaults 0.0 — faithful partial
    /// synchrony never loses messages; these knobs exist for robustness
    /// testing).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` (checked by the
    /// underlying [`Lossy`] model at run time).
    pub fn link_faults(mut self, drop_prob: f64, dup_prob: f64) -> Self {
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Splits the network into partition groups (one group id per
    /// replica) that heal at `heal_at`. Cross-group messages are withheld
    /// until the heal — a robustness scenario beyond the paper's
    /// sender-oblivious scheduler.
    pub fn partition(mut self, groups: Vec<u8>, heal_at: SimTime) -> Self {
        self.partition = Some((groups, heal_at));
        self
    }

    /// Builds the configuration this instance will run with.
    pub fn config(&self) -> ProbftConfig {
        ProbftConfig::builder(self.n)
            .quorum_multiplier(self.l)
            .overprovision(self.o)
            .base_timeout(self.base_timeout)
            .validity(self.validity.clone())
            .build()
    }

    /// Runs the instance until all correct replicas decided or the event
    /// budget ran out.
    pub fn run(mut self) -> InstanceOutcome {
        let cfg: SharedConfig = Arc::new(self.config());
        let faulty: Arc<BTreeSet<ReplicaId>> = Arc::new(self.byzantine.keys().copied().collect());

        let network = PartialSynchrony::new(
            self.gst,
            SimDuration::from_ticks(1),
            self.pre_gst_max_delay,
            SimDuration::from_ticks(1),
            SimDuration::from_ticks(100), // the post-GST bound Δ
        );
        // Stack the optional fault wrappers around the base model.
        let mut network: Box<dyn DelayModel> = match self.partition.take() {
            Some((groups, heal_at)) => Box::new(HealingPartition::new(network, groups, heal_at)),
            None => Box::new(network),
        };
        if self.drop_prob > 0.0 || self.dup_prob > 0.0 {
            network = Box::new(Lossy::new(network, self.drop_prob, self.dup_prob));
        }

        let spawn = |seat: Seat| match self.byzantine.remove(&seat.id) {
            Some(strategy) => {
                Node::Byzantine(Box::new(P::byzantine(seat, faulty.clone(), strategy)))
            }
            None => {
                let value = self
                    .values
                    .remove(&seat.id)
                    .unwrap_or_else(|| Value::from_tag(seat.id.index() as u64));
                Node::<P>::Honest(Box::new(P::honest(seat, value)))
            }
        };
        // Byzantine nodes never "decide"; the run waits for the honest ones.
        let decided = |node: &Node<P>| match node {
            Node::Honest(r) => r.decision().is_some(),
            Node::Byzantine(_) => true,
        };
        let (sim, run_outcome) = run_cluster(cfg, self.seed, network, spawn, decided, MAX_EVENTS);

        let mut outcome = InstanceOutcome {
            decisions: BTreeMap::new(),
            undecided: Vec::new(),
            safety_violated: false,
            equivocation_detections: 0,
            max_view: View::NONE,
            metrics: sim.metrics().clone(),
            finished_at: sim.now(),
            run_outcome,
        };
        for (p, node) in sim.processes() {
            let Node::Honest(replica) = node else {
                continue;
            };
            let id = ReplicaId::from(p.index());
            outcome.max_view = outcome.max_view.max(replica.current_view());
            outcome.equivocation_detections += replica.stats.equivocations_detected;
            outcome.safety_violated |= replica.has_conflicting_decision();
            match replica.decision() {
                Some(d) => {
                    outcome.decisions.insert(id, d.clone());
                }
                None => outcome.undecided.push(id),
            }
        }
        // Pairwise agreement across honest deciders.
        outcome.safety_violated |= outcome.distinct_decided_values() > 1;
        outcome
    }
}

/// The condensed result of one consensus instance.
#[derive(Clone, Debug)]
pub struct InstanceOutcome {
    /// Decisions of honest replicas, by id.
    pub decisions: BTreeMap<ReplicaId, Decision>,
    /// Ids of honest replicas that did not decide within the budget.
    pub undecided: Vec<ReplicaId>,
    /// True if any pair of honest decisions conflict, or any replica's
    /// decide rule fired twice with different values.
    pub safety_violated: bool,
    /// Honest replicas that detected leader equivocation (blocked a view).
    pub equivocation_detections: u64,
    /// Highest view any honest replica entered.
    pub max_view: View,
    /// Message metrics for the whole run.
    pub metrics: MessageMetrics,
    /// Virtual time when the run stopped.
    pub finished_at: SimTime,
    /// Why the simulation loop returned.
    pub run_outcome: RunOutcome,
}

impl InstanceOutcome {
    /// Whether every honest replica decided.
    pub fn all_correct_decided(&self) -> bool {
        self.undecided.is_empty() && !self.decisions.is_empty()
    }

    /// Whether all decisions agree (vacuously true with ≤ 1 decision) and
    /// no per-replica conflict was latched.
    pub fn agreement(&self) -> bool {
        !self.safety_violated
    }

    /// The distinct decided values' count (0 = none, 1 = agreement,
    /// ≥ 2 = disagreement).
    pub fn distinct_decided_values(&self) -> usize {
        let set: BTreeSet<_> = self.decisions.values().map(|d| d.value.digest()).collect();
        set.len()
    }

    /// The sorted set of views in which decisions happened.
    pub fn decided_views(&self) -> Vec<View> {
        let set: BTreeSet<View> = self.decisions.values().map(|d| d.view).collect();
        set.into_iter().collect()
    }

    /// The unique decided value, if agreement held and someone decided.
    pub fn decided_value(&self) -> Option<&Value> {
        let mut values = self.decisions.values().map(|d| &d.value);
        let first = values.next()?;
        if values.all(|v| v.digest() == first.digest()) {
            Some(first)
        } else {
            None
        }
    }
}
