//! The view shell: everything a view-based replica does that is not its
//! phases, in two halves.
//!
//! ProBFT, the PBFT baseline and the HotStuff baseline sit on the same
//! wish-based [`Synchronizer`] and differ only in what happens *inside* a
//! view. What is left belongs either to the *view* or to one consensus
//! *instance*:
//!
//! - the view half is the [`Synchronizer`]: its `current_view()` is the
//!   only copy of the view, and it keeps the one view timer with its
//!   re-arm. It sends nothing; its driver signs and wraps its wishes.
//! - [`InstanceHalf`] is the instance: the replica's [`Seat`] and input
//!   value, the decision latch, the [`ReplicaStats`] counters, the
//!   protocol's [`Phases`], the buffer of messages for views not yet
//!   entered, and verify-then-route — after asking the phases whether the
//!   message is moot and can be dropped unread (DESIGN.md, "What receiving
//!   a vote costs"). It is in whatever view its driver last ran `newView`
//!   for.
//!
//! [`ViewShell`] is one of each and the single-shot [`Process`]
//! implementation. The SMR layer holds one `Synchronizer` for its whole
//! log over one `InstanceHalf` per slot in flight (DESIGN.md, "One view per
//! log", has the safety argument). A protocol plugs in by implementing
//! [`Phases`]: its per-view state and two handlers. What an experiment
//! seats beside the replica — Byzantine strategies, default `(l, o)` — is
//! not the shell's business; it is declared on `harness::Protocol`.

use crate::config::{ProbftConfig, SharedConfig, View};
use crate::error::RejectReason;
use crate::message::{VerifyCtx, Wish};
use crate::synchronizer::{SyncAction, Synchronizer};
use crate::value::Value;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// How many views ahead of the current one messages are buffered; anything
/// further is dropped and counted in [`ReplicaStats::rejected`].
const VIEW_BUFFER_HORIZON: u64 = 8;

/// Cap on the messages buffered for one future view, per replica of the
/// population. An honest cluster sends a replica at most 8 messages per
/// signer per view (HotStuff's leader: a NewView, three votes, four
/// broadcasts; ProBFT: Propose, Prepare, Commit, NewLeader and the two
/// relays of lines 23–25), so twice that also absorbs a duplicating link.
/// Overflow is dropped and counted like traffic beyond the horizon: the
/// buffer holds *verified* messages, but a future-view message verifies by
/// its own signature alone, so without a cap one Byzantine signer replaying
/// one message grows every honest heap. The cap bounds memory, not
/// liveness — a flooder can still crowd honest early arrivals out of one
/// view's buffer, and that view then has to time out.
const BUFFERED_PER_REPLICA: usize = 16;

/// One replica's place in a cluster: what every replica constructor in the
/// workspace takes before its protocol-specific input.
#[derive(Clone, Debug)]
pub struct Seat {
    /// The cluster's shared configuration.
    pub cfg: SharedConfig,
    /// This replica's identifier.
    pub id: ReplicaId,
    /// This replica's signing key.
    pub sk: SigningKey,
    /// Everyone's public keys.
    pub keys: Arc<PublicKeyring>,
}

/// A decision reached by a replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The view in which the decision happened.
    pub view: View,
    /// The decided value.
    pub value: Value,
    /// Virtual time of the decision.
    pub at: SimTime,
}

/// Counters describing a replica's run, for experiments and assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Messages rejected by cryptographic or semantic checks, or dropped
    /// because the future-view buffer would not take them.
    pub rejected: u64,
    /// Views entered (including view 1).
    pub views_entered: u64,
    /// Times leader equivocation was detected (lines 23–25 fired).
    pub equivocations_detected: u64,
    /// Prepare-phase quorums formed.
    pub prepare_quorums: u64,
    /// Commit-phase quorums formed: one per view the decide rule fired in.
    pub commit_quorums: u64,
    /// Votes dropped unverified because the quorum rule they would have fed
    /// had already fired ([`Phases::is_moot`]). Every other vote received
    /// was verified, so this is the share of verification not spent.
    pub late_votes: u64,
}

/// What a protocol does inside a view — the shell's only hook, statically
/// dispatched, and nothing else about the protocol. The implementing type
/// is the protocol's own state (reset or carried across views as it sees
/// fit); the instance half calls [`enter_view`](Phases::enter_view) on
/// `newView`, before replaying the view's buffered messages, and
/// [`on_message`](Phases::on_message) for every verified message of the
/// current view.
pub trait Phases: Sized {
    /// The protocol's wire message; the synchronizer's `Wish` is one of its
    /// variants.
    type Message: Clone + From<Wish>;

    /// The state of a replica that has not yet entered any view.
    fn new(cfg: &ProbftConfig) -> Self;

    /// Full cryptographic verification of an incoming message. The
    /// protocol's state is at hand so that a check many messages share can
    /// be remembered instead of repeated.
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    fn verify(&mut self, msg: &Self::Message, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason>;

    /// Whether `msg`, whatever it turned out to be if verified, could no
    /// longer change what this replica does or holds — asked *before*
    /// [`verify`](Phases::verify), so that a moot message is dropped at the
    /// price of the question. Only a message whose loss is indistinguishable
    /// from its delivery may be called moot; a protocol with none keeps the
    /// default.
    fn is_moot(&self, _msg: &Self::Message) -> bool {
        false
    }

    /// The view `msg` belongs to.
    fn view_of(msg: &Self::Message) -> View;

    /// The synchronizer wish `msg` carries, if it is one.
    fn as_wish(msg: &Self::Message) -> Option<&Wish>;

    /// `newView(v)`: the shell has just moved to `shell.current_view()`.
    fn enter_view(&mut self, shell: &mut ShellState, ctx: &mut Context<'_, Self::Message>);

    /// A verified message of the current view (never a `Wish`).
    fn on_message(
        &mut self,
        msg: Self::Message,
        shell: &mut ShellState,
        ctx: &mut Context<'_, Self::Message>,
    );
}

/// The protocol-independent state of an instance: what [`Phases`] handlers
/// are handed, and what an [`InstanceHalf`] or a [`ViewShell`] dereferences
/// to for inspection.
#[derive(Debug)]
pub struct ShellState {
    /// The replica's place in the cluster.
    pub seat: Seat,
    /// This replica's input value (`myValue()`).
    pub my_value: Value,
    /// Run counters.
    pub stats: ReplicaStats,
    /// The view the instance is in: the one its driver last ran `newView`
    /// for ([`View::FIRST`] until then).
    view: View,
    /// The latched decision, under the digest its decide rule named it by.
    decision: Option<(Digest, Decision)>,
    /// Set if a *different* value would later satisfy the decide rule — a
    /// safety violation that experiments watch for.
    conflicting_decision: bool,
}

impl ShellState {
    /// The decision, if one has been reached.
    pub fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref().map(|(_, d)| d)
    }

    /// The view the replica currently occupies.
    pub fn current_view(&self) -> View {
        self.view
    }

    /// True if the decide rule ever fired for two different values — a
    /// safety violation (probability `exp(−Θ(√n))` in ProBFT, impossible
    /// in the deterministic baselines).
    pub fn has_conflicting_decision(&self) -> bool {
        self.conflicting_decision
    }

    /// The context every verification in this replica runs against.
    pub fn verify_ctx(&self) -> VerifyCtx<'_> {
        VerifyCtx::new(&self.seat.cfg, &self.seat.keys)
    }

    /// The process leading the current view.
    pub fn leader(&self) -> ProcessId {
        ProcessId(self.seat.cfg.leader_of(self.current_view()).index())
    }

    /// Whether this replica leads the current view.
    pub fn is_leader(&self) -> bool {
        self.seat.cfg.leader_of(self.current_view()) == self.seat.id
    }

    /// Every process of the cluster, in index order.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.seat.cfg.n()).map(ProcessId)
    }

    /// The decide rule fired at virtual time `at` for `value`, whose
    /// `digest` the caller already holds: latch the first decision, and
    /// flag any later one for a different digest. The rule fires once per
    /// view, so a replica that outlives its decision comes back here once
    /// for every later view that decides.
    pub fn decide(&mut self, digest: Digest, value: &Value, at: SimTime) {
        match &self.decision {
            None => {
                let decision = Decision {
                    view: self.current_view(),
                    value: value.clone(),
                    at,
                };
                self.decision = Some((digest, decision));
            }
            // Safety violation — latched for the experiment harness.
            Some((decided, _)) if *decided != digest => self.conflicting_decision = true,
            Some(_) => {}
        }
    }
}

/// The instance half: one consensus instance of protocol `P` at one
/// replica, in whatever view it was last driven into.
pub struct InstanceHalf<P: Phases> {
    state: ShellState,
    phases: P,
    /// Verified messages for views within the buffering horizon, replayed
    /// on entry.
    future: BTreeMap<View, Vec<P::Message>>,
}

impl<P: Phases> InstanceHalf<P> {
    /// An instance at `seat` proposing `my_value` when it leads.
    ///
    /// # Panics
    ///
    /// Panics if the seat's id is outside the keyring population.
    pub fn new(seat: Seat, my_value: Value) -> Self {
        assert!(
            seat.id.index() < seat.keys.len(),
            "replica id outside population"
        );
        InstanceHalf {
            phases: P::new(&seat.cfg),
            future: BTreeMap::new(),
            state: ShellState {
                seat,
                my_value,
                stats: ReplicaStats::default(),
                view: View::FIRST,
                decision: None,
                conflicting_decision: false,
            },
        }
    }

    /// `newView(view)`, in pinned order: the protocol's own sends, then the
    /// view's buffered messages. Views must be driven in increasing order;
    /// any may be skipped.
    pub fn new_view(&mut self, view: View, ctx: &mut Context<'_, P::Message>) {
        self.state.view = view;
        self.state.stats.views_entered = self.state.stats.views_entered.saturating_add(1);
        self.phases.enter_view(&mut self.state, ctx);

        // Replay buffered messages for this view (and drop older buffers).
        self.future.retain(|v, _| *v >= view);
        for msg in self.future.remove(&view).unwrap_or_default() {
            self.phases.on_message(msg, &mut self.state, ctx);
        }
    }

    /// Verify, then route: to the current view's phases, to the buffer of
    /// a view not yet entered, or — a verified `Wish`, which belongs to
    /// the view half — back to the driver. A message the phases call moot
    /// is dropped before either.
    pub fn on_message(
        &mut self,
        msg: P::Message,
        ctx: &mut Context<'_, P::Message>,
    ) -> Option<Wish> {
        // A vote for a quorum rule that has already fired is dropped as if
        // the network had lost it: unverified, uncounted but for this.
        if self.phases.is_moot(&msg) {
            self.state.stats.late_votes = self.state.stats.late_votes.saturating_add(1);
            return None;
        }

        // Cryptographic verification first: Byzantine peers may send
        // arbitrary bytes; nothing below this line sees an unverified
        // message, and nothing above it did more than drop one. (The
        // transport sender is deliberately ignored — relayed messages
        // verify against their embedded signer, line 25.)
        if self.phases.verify(&msg, &self.state.verify_ctx()).is_err() {
            self.state.stats.rejected = self.state.stats.rejected.saturating_add(1);
            return None;
        }

        // Synchronizer traffic is view-independent (cumulative wishes).
        if let Some(wish) = P::as_wish(&msg) {
            return Some(wish.clone());
        }

        let (view, current) = (P::view_of(&msg), self.state.view);
        if view < current {
            // Stale: consensus state for old views is gone.
            return None;
        }
        if view == current {
            self.phases.on_message(msg, &mut self.state, ctx);
            return None;
        }
        // Buffer messages for imminent views; drop beyond the horizon, and
        // past the per-view cap.
        if view.0.saturating_sub(current.0) <= VIEW_BUFFER_HORIZON {
            let buffered = self.future.entry(view).or_default();
            if buffered.len() < BUFFERED_PER_REPLICA.saturating_mul(self.state.seat.cfg.n()) {
                buffered.push(msg);
                return None;
            }
        }
        self.state.stats.rejected = self.state.stats.rejected.saturating_add(1);
        None
    }
}

#[cfg(test)]
impl<P: Phases> InstanceHalf<P> {
    /// The protocol's state, for the protocol's own tests.
    pub(crate) fn phases(&self) -> &P {
        &self.phases
    }
}

impl<P: Phases> Deref for InstanceHalf<P> {
    type Target = ShellState;
    fn deref(&self) -> &ShellState {
        &self.state
    }
}

/// A single-shot replica: one [`Synchronizer`] around one [`InstanceHalf`].
/// Driven by the deterministic simulator through its [`Process`]
/// implementation; the thread/TCP runtime drives the same state machine
/// through detached contexts.
pub struct ViewShell<P: Phases> {
    sync: Synchronizer,
    instance: InstanceHalf<P>,
}

impl<P: Phases> ViewShell<P> {
    /// Creates a replica proposing `my_value` when it leads (and panics
    /// where [`InstanceHalf::new`] does).
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        my_value: Value,
    ) -> Self {
        ViewShell {
            sync: Synchronizer::new(id, cfg.faults()),
            instance: InstanceHalf::new(Seat { cfg, id, sk, keys }, my_value),
        }
    }

    /// `newView(v)` for the view the synchronizer is in, in pinned order:
    /// timer, the protocol's own sends, the view's buffered messages.
    fn enter_view(&mut self, ctx: &mut Context<'_, P::Message>) {
        self.sync.arm(&self.instance.seat.cfg, ctx);
        self.instance.new_view(self.sync.current_view(), ctx);
    }

    fn apply_sync_action(&mut self, action: SyncAction, ctx: &mut Context<'_, P::Message>) {
        if let Some(view) = action.broadcast_wish {
            let wish = Wish::cast(&self.instance.seat, view);
            ctx.multicast(self.instance.peers(), wish.into());
        }
        // `answer_wish` is not honoured: a single-shot replica ends at its
        // decision, and nobody is left behind in a log it does not have.
        if action.enter_view.is_some() {
            self.enter_view(ctx);
        }
    }
}

impl<P: Phases> Deref for ViewShell<P> {
    type Target = ShellState;
    fn deref(&self) -> &ShellState {
        &self.instance
    }
}

impl<P: Phases> Process for ViewShell<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Message>) {
        self.enter_view(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: P::Message, ctx: &mut Context<'_, P::Message>) {
        if let Some(wish) = self.instance.on_message(msg, ctx) {
            let action = self.sync.on_wish(wish.sender, wish.view);
            self.apply_sync_action(action, ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, P::Message>) {
        if let Some(action) = self.sync.on_timer(token, &self.instance.seat.cfg, ctx) {
            self.apply_sync_action(action, ctx);
        }
    }
}

impl<P: Phases> fmt::Debug for ViewShell<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewShell")
            .field("id", &self.instance.seat.id)
            .field("view", &self.instance.current_view())
            .field("decided", &self.instance.decision.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, NewLeader, NewLeaderBody};
    use crate::replica::{Replica, ReplicaInstance};
    use probft_crypto::keyring::Keyring;
    use probft_simnet::delay::Fixed;
    use probft_simnet::sim::{RunOutcome, Simulation};
    use probft_simnet::time::SimDuration;

    const REPLAYS: usize = 10_000;
    const VICTIM: ProcessId = ProcessId(2);

    /// An honest replica, or the view-1 leader as a flooder: it proposes
    /// nothing, replays one signed view-2 `NewLeader` at the victim
    /// `REPLAYS` times, and goes silent.
    enum Node {
        Honest(Box<Replica>),
        Flooder(Seat),
    }

    impl Process for Node {
        type Message = Message;

        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            match self {
                Node::Honest(r) => r.on_start(ctx),
                Node::Flooder(seat) => {
                    let report = NewLeaderBody {
                        sender: seat.id,
                        view: View(2),
                        prepared_view: View::NONE,
                        prepared_value: None,
                        cert: vec![],
                    };
                    let msg = Message::NewLeader(NewLeader::sign(&seat.sk, report));
                    ctx.multicast(std::iter::repeat_n(VICTIM, REPLAYS), msg);
                }
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Message, ctx: &mut Context<'_, Message>) {
            if let Node::Honest(r) = self {
                r.on_message(from, msg, ctx);
            }
        }
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Message>) {
            if let Node::Honest(r) = self {
                r.on_timer(token, ctx);
            }
        }
    }

    fn honest_replica(sim: &Simulation<Node>, id: ProcessId) -> &Replica {
        match sim.process(id) {
            Node::Honest(r) => r,
            Node::Flooder(_) => panic!("{id} is the flooder"),
        }
    }

    #[test]
    fn replayed_future_view_message_cannot_grow_the_buffer_past_its_cap() {
        // n = 4 with l = 1: q = 2 and every sample is the whole cluster, so
        // the three honest replicas decide in view 2 without the flooder.
        let cfg = ProbftConfig::builder(4)
            .quorum_multiplier(1.0)
            .build_shared();
        let ring = Keyring::generate(4, b"shell-test");
        let keys = Arc::new(ring.public());
        let mut sim = Simulation::new(Fixed(SimDuration::from_ticks(10)), 1);
        for (i, id) in cfg.all_replicas().enumerate() {
            let sk = ring.signing_key(i).unwrap().clone();
            sim.add_process(if i == 0 {
                let (cfg, keys) = (cfg.clone(), keys.clone());
                Node::Flooder(Seat { cfg, id, sk, keys })
            } else {
                let value = Value::from_tag(i as u64);
                let replica = Replica::new(cfg.clone(), id, sk, keys.clone(), value);
                Node::Honest(Box::new(replica))
            });
        }

        // The flood lands long before the first view timeout: the victim
        // keeps a capful and counts the rest.
        let cap = BUFFERED_PER_REPLICA * cfg.n();
        sim.run_until(SimTime::from_ticks(1_000), u64::MAX);
        let victim = honest_replica(&sim, VICTIM);
        assert_eq!(victim.current_view(), View::FIRST);
        assert_eq!(victim.instance.future[&View(2)].len(), cap);
        assert_eq!(victim.stats.rejected, (REPLAYS - cap) as u64);

        // It still follows the cluster into view 2 and decides there.
        let decided = |p: &Node| match p {
            Node::Honest(r) => r.decision().is_some(),
            Node::Flooder(_) => true,
        };
        let outcome =
            sim.run_until_condition(|s| s.processes().all(|(_, p)| decided(p)), 1_000_000);
        assert_eq!(outcome, RunOutcome::ConditionMet);
        let victim = honest_replica(&sim, VICTIM);
        assert_eq!(victim.decision().map(|d| d.view), Some(View(2)));
        assert!(victim.instance.future.is_empty());
        assert_eq!(victim.stats.rejected, (REPLAYS - cap) as u64);
    }

    #[test]
    fn decision_latch_keeps_the_first_value_and_flags_another_digest() {
        let cfg = ProbftConfig::builder(4).build_shared();
        let ring = Keyring::generate(4, b"shell-test");
        let sk = ring.signing_key(1).unwrap().clone();
        let keys = Arc::new(ring.public());
        let mut replica = Replica::new(cfg, ReplicaId(1), sk, keys, Value::from_tag(1));
        let (a, b) = (Value::from_tag(7), Value::from_tag(8));
        let at = SimTime::from_ticks(3);

        replica.instance.state.decide(a.digest(), &a, at);
        // The rule fires again in every later view that decides.
        replica
            .instance
            .state
            .decide(a.digest(), &a, SimTime::from_ticks(9));
        assert_eq!(replica.decision().map(|d| (&d.value, d.at)), Some((&a, at)));
        assert!(!replica.has_conflicting_decision());

        replica
            .instance
            .state
            .decide(b.digest(), &b, SimTime::from_ticks(9));
        assert_eq!(replica.decision().map(|d| &d.value), Some(&a));
        assert!(replica.has_conflicting_decision());
    }

    #[test]
    fn messages_beyond_the_horizon_are_dropped_and_counted() {
        let cfg = ProbftConfig::builder(4).build_shared();
        let ring = Keyring::generate(4, b"shell-test");
        let keys = Arc::new(ring.public());
        let sk = |i: usize| ring.signing_key(i).unwrap().clone();
        let mut replica = Replica::new(cfg, ReplicaId(1), sk(1), keys, Value::from_tag(1));
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut ctx = Context::detached(ProcessId(1), SimTime::ZERO, &mut rng);
        replica.on_start(&mut ctx);
        for (view, buffered) in [
            (1 + VIEW_BUFFER_HORIZON, true),
            (2 + VIEW_BUFFER_HORIZON, false),
        ] {
            let report = NewLeaderBody {
                sender: ReplicaId(3),
                view: View(view),
                prepared_view: View::NONE,
                prepared_value: None,
                cert: vec![],
            };
            let msg = Message::NewLeader(NewLeader::sign(&sk(3), report));
            replica.on_message(ProcessId(3), msg, &mut ctx);
            assert_eq!(replica.instance.future.contains_key(&View(view)), buffered);
        }
        assert_eq!(replica.stats.rejected, 1);
    }

    /// An instance half at replica `id` of a 4-replica cluster, and the
    /// key material to sign as anyone.
    fn instance(id: usize) -> (ReplicaInstance, Keyring) {
        let cfg = ProbftConfig::builder(4).build_shared();
        let ring = Keyring::generate(4, b"shell-test");
        let seat = Seat {
            cfg,
            id: ReplicaId::from(id),
            sk: ring.signing_key(id).unwrap().clone(),
            keys: Arc::new(ring.public()),
        };
        (InstanceHalf::new(seat, Value::from_tag(id as u64)), ring)
    }

    fn report(ring: &Keyring, sender: usize, view: View) -> Message {
        let report = NewLeaderBody {
            sender: ReplicaId::from(sender),
            view,
            prepared_view: View::NONE,
            prepared_value: None,
            cert: vec![],
        };
        Message::NewLeader(NewLeader::sign(ring.signing_key(sender).unwrap(), report))
    }

    /// What `drive` made the instance send, as `(to, message)` pairs.
    fn sent(
        instance: &mut ReplicaInstance,
        drive: impl FnOnce(&mut ReplicaInstance, &mut Context<'_, Message>),
    ) -> Vec<(usize, Message)> {
        use probft_simnet::process::Action;
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut ctx =
            Context::detached(ProcessId(instance.seat.id.index()), SimTime::ZERO, &mut rng);
        drive(instance, &mut ctx);
        ctx.drain_actions()
            .into_iter()
            .map(|action| match action {
                Action::Send { to, msg } => (to.index(), msg),
                other => panic!("an instance half only sends, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn instance_born_in_view_three_reports_to_its_leader_having_prepared_nothing() {
        // Views 1 and 2 never happened for this instance: it is a replica
        // that was silent in them.
        let (mut follower, ring) = instance(1);
        let out = sent(&mut follower, |i, ctx| i.new_view(View(3), ctx));
        assert_eq!(
            out,
            [(2, report(&ring, 1, View(3)))],
            "one report, to leader(3)"
        );
        assert_eq!(follower.current_view(), View(3));
        assert_eq!(follower.stats.views_entered, 1);
        assert!(!follower.is_leader());
    }

    #[test]
    fn leader_born_in_view_three_proposes_only_on_a_deterministic_quorum_of_reports() {
        let (mut leader, ring) = instance(2);
        let view = View(3);
        let out = sent(&mut leader, |i, ctx| i.new_view(view, ctx));
        assert_eq!(
            out,
            [(2, report(&ring, 2, view))],
            "its own report, to itself"
        );

        let quorum = leader.seat.cfg.deterministic_quorum();
        assert_eq!(quorum, 3);
        // Its own report and one more: still short, nothing is proposed.
        for sender in [2, 0] {
            let out = sent(&mut leader, |i, ctx| {
                assert!(i.on_message(report(&ring, sender, view), ctx).is_none());
            });
            assert!(out.is_empty(), "no proposal on {sender}'s report");
        }
        // The third completes the quorum: its own value, justified, to all.
        let out = sent(&mut leader, |i, ctx| {
            i.on_message(report(&ring, 1, view), ctx);
        });
        assert_eq!(
            out.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        for (_, msg) in &out {
            let Message::Propose(propose) = msg else {
                panic!("expected a Propose, got {msg:?}");
            };
            assert_eq!(propose.proposal.view, view);
            assert_eq!(propose.value, Value::from_tag(2));
            assert_eq!(propose.justification.len(), quorum);
        }
        // A fourth report changes nothing: it has proposed.
        let out = sent(&mut leader, |i, ctx| {
            i.on_message(report(&ring, 3, view), ctx);
        });
        assert!(out.is_empty());
    }
}
