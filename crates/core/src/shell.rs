//! The view shell: everything a view-based single-shot replica does that is
//! not its phases.
//!
//! ProBFT, the PBFT baseline and the HotStuff baseline sit on the same
//! wish-based [`Synchronizer`] and differ only in what happens *inside* a
//! view. [`ViewShell`] owns the rest, once: the replica's [`Seat`] and
//! input value, the synchronizer (whose `current_view()` is the only copy
//! of the view), the view timer and its re-arm, `Wish` signing and
//! broadcast, the buffer of messages for views not yet entered, the
//! decision latch, the [`ReplicaStats`] counters, and the one
//! [`Process`] implementation — verify, then route to the synchronizer, the
//! buffer or the current view. A protocol plugs in by implementing
//! [`Phases`]: its per-view state and two handlers.

use crate::config::{ProbftConfig, SharedConfig, View};
use crate::error::RejectReason;
use crate::message::{VerifyCtx, Wish, WishBody};
use crate::synchronizer::{SyncAction, Synchronizer};
use crate::value::Value;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
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
#[derive(Debug)]
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
    /// Commit-phase quorums formed.
    pub commit_quorums: u64,
}

/// What a protocol does inside a view — the shell's only hook, statically
/// dispatched. The implementing type is the protocol's own state (reset or
/// carried across views as it sees fit); the shell calls
/// [`enter_view`](Phases::enter_view) after arming the view's timer and
/// before replaying the view's buffered messages, and
/// [`on_message`](Phases::on_message) for every verified message of the
/// current view.
pub trait Phases: Sized {
    /// The protocol's wire message; the synchronizer's `Wish` is one of its
    /// variants.
    type Message: Clone + From<Wish>;
    /// The protocol's Byzantine behaviours, for the experiment harness.
    /// (They are named here, not on the harness's `Protocol`, because a
    /// baseline crate may implement a core trait only for a type of its
    /// own, and its replica type — a `ViewShell` — is core's.)
    type Strategy;
    /// A replica executing one [`Strategy`](Self::Strategy).
    type Byzantine: Process<Message = Self::Message>;

    /// The quorum multiplier `l` and overprovision factor `o` harness
    /// instances start from.
    const QUORUM_PARAMS: (f64, f64);

    /// Builds a Byzantine replica colluding with the `faulty` set.
    fn byzantine(
        seat: Seat,
        faulty: Arc<BTreeSet<ReplicaId>>,
        strategy: Self::Strategy,
    ) -> Self::Byzantine;

    /// The state of a replica that has not yet entered view 1.
    fn new(cfg: &ProbftConfig) -> Self;

    /// Full cryptographic verification of an incoming message. The
    /// protocol's state is at hand so that a check many messages share can
    /// be remembered instead of repeated.
    ///
    /// # Errors
    ///
    /// Any [`RejectReason`] describing the first failed check.
    fn verify(&mut self, msg: &Self::Message, ctx: &VerifyCtx<'_>) -> Result<(), RejectReason>;

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

/// The protocol-independent state of a replica: what [`Phases`] handlers
/// are handed, and what a [`ViewShell`] dereferences to for inspection.
#[derive(Debug)]
pub struct ShellState {
    /// The replica's place in the cluster.
    pub seat: Seat,
    /// This replica's input value (`myValue()`).
    pub my_value: Value,
    /// Run counters.
    pub stats: ReplicaStats,
    sync: Synchronizer,
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
        self.sync.current_view()
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
    /// flag any later one for a different digest. The rule keeps firing for
    /// every late vote, so nothing is hashed or copied after the first.
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

/// A replica: the shared view shell around one protocol's [`Phases`].
/// Driven by the deterministic simulator through its [`Process`]
/// implementation; the thread/TCP runtime and the SMR layer drive the same
/// state machine through detached contexts.
pub struct ViewShell<P: Phases> {
    state: ShellState,
    phases: P,
    /// Verified messages for views within the buffering horizon, replayed
    /// on entry.
    future: BTreeMap<View, Vec<P::Message>>,
}

impl<P: Phases> ViewShell<P> {
    /// Creates a replica proposing `my_value` when it leads.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the keyring population.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        my_value: Value,
    ) -> Self {
        assert!(id.index() < keys.len(), "replica id outside population");
        ViewShell {
            phases: P::new(&cfg),
            future: BTreeMap::new(),
            state: ShellState {
                sync: Synchronizer::new(id, cfg.faults()),
                seat: Seat { cfg, id, sk, keys },
                my_value,
                stats: ReplicaStats::default(),
                decision: None,
                conflicting_decision: false,
            },
        }
    }

    /// `newView(v)` for the view the synchronizer has just moved to, in
    /// pinned order: timer, then the protocol's own sends, then the view's
    /// buffered messages.
    fn enter_view(&mut self, ctx: &mut Context<'_, P::Message>) {
        let view = self.state.current_view();
        self.state.stats.views_entered += 1;

        // Arm the view timer (token = view number).
        ctx.set_timer(self.state.seat.cfg.timeout_for(view), TimerToken(view.0));
        self.phases.enter_view(&mut self.state, ctx);

        // Replay buffered messages for this view (and drop older buffers).
        self.future.retain(|v, _| *v >= view);
        for msg in self.future.remove(&view).unwrap_or_default() {
            self.phases.on_message(msg, &mut self.state, ctx);
        }
    }

    fn apply_sync_action(&mut self, action: SyncAction, ctx: &mut Context<'_, P::Message>) {
        if let Some(view) = action.broadcast_wish {
            let sender = self.state.seat.id;
            let wish = Wish::sign(&self.state.seat.sk, WishBody { sender, view });
            ctx.multicast(self.state.peers(), wish.into());
        }
        if action.enter_view.is_some() {
            self.enter_view(ctx);
        }
    }
}

impl<P: Phases> Deref for ViewShell<P> {
    type Target = ShellState;
    fn deref(&self) -> &ShellState {
        &self.state
    }
}

impl<P: Phases> Process for ViewShell<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Message>) {
        self.enter_view(ctx);
    }

    fn on_message(&mut self, _from: ProcessId, msg: P::Message, ctx: &mut Context<'_, P::Message>) {
        // Cryptographic verification first: Byzantine peers may send
        // arbitrary bytes; nothing below this line sees an unverified
        // message. (The transport sender is deliberately ignored — relayed
        // messages verify against their embedded signer, line 25.)
        if self.phases.verify(&msg, &self.state.verify_ctx()).is_err() {
            self.state.stats.rejected += 1;
            return;
        }

        // Synchronizer traffic is view-independent (cumulative wishes).
        if let Some(wish) = P::as_wish(&msg) {
            let action = self.state.sync.on_wish(wish.sender, wish.view);
            self.apply_sync_action(action, ctx);
            return;
        }

        let (view, current) = (P::view_of(&msg), self.state.current_view());
        if view < current {
            // Stale: consensus state for old views is gone.
            return;
        }
        if view == current {
            self.phases.on_message(msg, &mut self.state, ctx);
            return;
        }
        // Buffer messages for imminent views; drop beyond the horizon, and
        // past the per-view cap.
        if view.0.saturating_sub(current.0) <= VIEW_BUFFER_HORIZON {
            let buffered = self.future.entry(view).or_default();
            if buffered.len() < BUFFERED_PER_REPLICA * self.state.seat.cfg.n() {
                buffered.push(msg);
                return;
            }
        }
        self.state.stats.rejected += 1;
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, P::Message>) {
        let view = self.state.current_view();
        if View(token.0) != view {
            return; // stale timer from an earlier view
        }
        // View timer expired: wish to advance, and re-arm so a stuck view
        // keeps re-broadcasting its wish.
        let action = self.state.sync.on_timeout();
        ctx.set_timer(self.state.seat.cfg.timeout_for(view), TimerToken(view.0));
        self.apply_sync_action(action, ctx);
    }
}

impl<P: Phases> fmt::Debug for ViewShell<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ViewShell")
            .field("id", &self.state.seat.id)
            .field("view", &self.state.current_view())
            .field("decided", &self.state.decision.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, NewLeader, NewLeaderBody};
    use crate::replica::Replica;
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

    fn honest(sim: &Simulation<Node>, id: ProcessId) -> &Replica {
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
        let victim = honest(&sim, VICTIM);
        assert_eq!(victim.current_view(), View::FIRST);
        assert_eq!(victim.future[&View(2)].len(), cap);
        assert_eq!(victim.stats.rejected, (REPLAYS - cap) as u64);

        // It still follows the cluster into view 2 and decides there.
        let decided = |p: &Node| match p {
            Node::Honest(r) => r.decision().is_some(),
            Node::Flooder(_) => true,
        };
        let outcome =
            sim.run_until_condition(|s| s.processes().all(|(_, p)| decided(p)), 1_000_000);
        assert_eq!(outcome, RunOutcome::ConditionMet);
        let victim = honest(&sim, VICTIM);
        assert_eq!(victim.decision().map(|d| d.view), Some(View(2)));
        assert!(victim.future.is_empty());
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

        replica.state.decide(a.digest(), &a, at);
        // The rule fires again for every late Commit vote.
        replica.state.decide(a.digest(), &a, SimTime::from_ticks(9));
        assert_eq!(replica.decision().map(|d| (&d.value, d.at)), Some((&a, at)));
        assert!(!replica.has_conflicting_decision());

        replica.state.decide(b.digest(), &b, SimTime::from_ticks(9));
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
            assert_eq!(replica.future.contains_key(&View(view)), buffered);
        }
        assert_eq!(replica.stats.rejected, 1);
    }
}
