//! The virtual-time executor the `probft-smr` tests share: [`SmrNode`]s
//! under `simnet`, built by `core::harness::run_cluster`, each behind a
//! [`Member`] that pauses and resumes with the live cluster's semantics,
//! fed by a client [`Load`] that retries like `SmrClient`, walked through
//! nemesis [`FaultPlan`]s (1 tick = 1 µs) and ended by the live nemesis's
//! invariant sweep. No socket, no wall clock: a seed replays bit for bit.

#![allow(
    dead_code,
    reason = "each test binary compiles its own copy and uses a part of it"
)]

use probft_core::config::{ProbftConfig, SharedConfig, View};
use probft_core::harness::{run_cluster, Seat};
use probft_core::message::Message;
use probft_crypto::keyring::Keyring;
use probft_obs::MetricsSnapshot;
use probft_simnet::delay::{DelayModel, PartialSynchrony};
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use probft_smr::nemesis::{self, Fault, FaultPlan, ReplicaReport};
use probft_smr::{
    Command, Entry, KvStore, RequestId, SlotMessage, SmrMessage, SmrNode, SmrSettings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

pub const MAX_EVENTS: u64 = 20_000_000;
/// How often a paused replica looks for its resume (the live host's wait).
const PAUSED_POLL: u64 = 5_000;
/// A client's attempt timeout (the live nemesis clients').
const RETRY: u64 = 500_000;
/// A member's own timers (a node numbers its timers from 1); request `r`'s
/// is `CLIENT + r`.
const REDIRECT: TimerToken = TimerToken(u64::MAX - 1);
const CLIENT: u64 = 1 << 62;

/// The keys `run_cluster` deals a cluster of `n` built with `seed`.
pub fn keyring(n: usize, seed: u64) -> Keyring {
    Keyring::generate(n, &seed.to_be_bytes())
}

/// `count` PUTs `{tag}{i} = v{i}`.
pub fn puts(tag: &str, count: usize) -> Vec<Command> {
    let put = |i| Command::Put {
        key: format!("{tag}{i}"),
        value: format!("v{i}"),
    };
    (0..count).map(put).collect()
}

/// Client requests over time: request `r`, a PUT of `key{r}` from a client
/// of its own, is first sent at `r × every` ticks to every replica. The
/// one that believes it leads queues it or answers it from its reply
/// cache; the others treat it as a client turned away
/// (`SmrNode::on_redirect`). Unanswered, it is sent again every `RETRY`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Load {
    pub count: usize,
    pub every: u64,
}

impl Load {
    pub fn id(r: usize) -> RequestId {
        let client = r as u64 + 1;
        RequestId { client, seq: 1 }
    }
}

/// A Byzantine replica's behaviour beside its honest node: called at start
/// (`None`) and after the node handled each message.
pub type Strategy =
    Box<dyn FnMut(Option<&SmrMessage>, &SmrNode<KvStore>, &mut Context<'_, SmrMessage>)>;

/// What a cluster is made of. [`Spec::new`] is the live cluster's shape —
/// its view timeout, serving mode at depth 4 — on links delivering in
/// 1..=100 ticks.
pub struct Spec {
    pub cfg: ProbftConfig,
    pub seed: u64,
    pub settings: SmrSettings,
    pub network: Box<dyn DelayModel>,
    /// Untagged writes queued at replica `i` from the start.
    pub workloads: Vec<Vec<Command>>,
    pub load: Load,
    pub byzantine: Vec<(usize, Strategy)>,
    /// Replica `i` is told at the given time that a client was turned away.
    pub redirects: Vec<(usize, SimTime)>,
}

impl Spec {
    pub fn new(n: usize, seed: u64) -> Self {
        let ticks = SimDuration::from_ticks;
        Spec {
            cfg: ProbftConfig::builder(n)
                .base_timeout(ticks(250_000))
                .build(),
            seed,
            settings: SmrSettings::live(4),
            network: Box::new(PartialSynchrony::synchronous(ticks(1), ticks(100))),
            workloads: Vec::new(),
            load: Load::default(),
            byzantine: Vec::new(),
            redirects: Vec::new(),
        }
    }
}

/// One replica: its node, with its input and output in view, pausable.
pub struct Member {
    pub id: usize,
    pub node: SmrNode<KvStore>,
    strategy: Option<Strategy>,
    load: Load,
    redirect_at: Option<SimTime>,
    /// Paused: input dropped, timers held until resume, nothing sent.
    paused: bool,
    /// The requests the load's clients had answered, shared by all.
    answered: Rc<RefCell<BTreeSet<RequestId>>>,
    /// Handed to the node's contexts, which draw nothing from it.
    rng: StdRng,
    /// `(when, delay)` of every timer the node set.
    pub timers: Vec<(SimTime, SimDuration)>,
    /// When the node first sent a wish of its own to a peer.
    pub first_wish_at: Option<SimTime>,
    /// Wishes delivered to the node (its own to itself aside).
    pub wishes_heard: u64,
    /// When the node was first seen in each view after its first.
    pub entered: Vec<(View, SimTime)>,
}

impl Member {
    /// Honest and unpaused.
    pub fn is_live(&self) -> bool {
        !self.paused && self.strategy.is_none()
    }

    pub fn leads(&self) -> bool {
        self.node.current_leader().index() == self.id
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.node.obs().snapshot()
    }

    /// Runs `step` against the node and passes on what it did.
    fn observe(
        &mut self,
        ctx: &mut Context<'_, SmrMessage>,
        step: impl FnOnce(&mut SmrNode<KvStore>, &mut Context<'_, SmrMessage>),
    ) {
        let view = self.node.current_view();
        let mut inner = Context::detached(ctx.id(), ctx.now(), &mut self.rng);
        step(&mut self.node, &mut inner);
        if self.node.current_view() != view {
            self.entered.push((self.node.current_view(), ctx.now()));
        }
        for action in inner.drain_actions() {
            match action {
                Action::Send { to, msg } => {
                    if is_wish(&msg) && to != ctx.id() {
                        self.first_wish_at.get_or_insert(ctx.now());
                    }
                    ctx.send(to, msg);
                }
                Action::SetTimer { delay, token } => {
                    self.timers.push((ctx.now(), delay));
                    ctx.set_timer(delay, token);
                }
                Action::Halt => ctx.halt(),
            }
        }
        // The leader answers what it applies.
        let applied = self.node.drain_applied().into_iter().map(|a| a.request);
        if self.leads() {
            self.answered.borrow_mut().extend(applied);
        }
    }

    fn fire(&mut self, token: TimerToken, ctx: &mut Context<'_, SmrMessage>) {
        match token {
            REDIRECT => self.observe(ctx, |node, ctx| node.on_redirect(ctx)),
            TimerToken(t) if t >= CLIENT => self.client(t - CLIENT, ctx),
            token => self.observe(ctx, |node, ctx| node.on_timer(token, ctx)),
        }
    }

    /// Unanswered request `r` reaches this replica.
    fn client(&mut self, r: u64, ctx: &mut Context<'_, SmrMessage>) {
        let id = Load::id(r as usize);
        if self.answered.borrow().contains(&id) {
            return;
        }
        if !self.leads() {
            self.observe(ctx, |node, ctx| node.on_redirect(ctx));
        } else if self.node.cached_response(id).is_some() {
            self.answered.borrow_mut().insert(id);
            return;
        } else {
            let op = Command::Put {
                key: format!("key{r}"),
                value: format!("val{r}"),
            };
            self.observe(ctx, |node, ctx| {
                node.submit(Entry::tagged_write(id, op), ctx)
            });
        }
        ctx.set_timer(SimDuration::from_ticks(RETRY), TimerToken(CLIENT + r));
    }
}

fn is_wish(msg: &SmrMessage) -> bool {
    let SmrMessage::Slot(SlotMessage { inner, .. }) = msg else {
        return false;
    };
    matches!(inner, Message::Wish(_))
}

impl Process for Member {
    type Message = SmrMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, SmrMessage>) {
        if let Some(at) = self.redirect_at {
            ctx.set_timer(SimDuration::from_ticks(at.ticks()), REDIRECT);
        }
        for r in 0..self.load.count as u64 {
            ctx.set_timer(
                SimDuration::from_ticks(r * self.load.every),
                TimerToken(CLIENT + r),
            );
        }
        self.observe(ctx, |node, ctx| node.on_start(ctx));
        if let Some(strategy) = &mut self.strategy {
            strategy(None, &self.node, ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: SmrMessage, ctx: &mut Context<'_, SmrMessage>) {
        if self.paused {
            return;
        }
        if is_wish(&msg) && from != ctx.id() {
            self.wishes_heard += 1;
        }
        let heard = self.strategy.is_some().then(|| msg.clone());
        self.observe(ctx, |node, ctx| node.on_message(from, msg, ctx));
        if let Some(strategy) = &mut self.strategy {
            strategy(heard.as_ref(), &self.node, ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, SmrMessage>) {
        if self.paused {
            // Held: looked at again after the host's paused-replica wait.
            ctx.set_timer(SimDuration::from_ticks(PAUSED_POLL), token);
        } else {
            self.fire(token, ctx);
        }
    }
}

/// A running cluster, and the executor of fault plans against it.
pub struct Cluster {
    pub sim: Simulation<Member>,
    pub seed: u64,
    cfg: SharedConfig,
    keyring: Keyring,
    load: Load,
    answered: Rc<RefCell<BTreeSet<RequestId>>>,
    /// One line per fault fired, as the live executor's transcript.
    pub transcript: Vec<String>,
}

impl Cluster {
    /// Builds the cluster `spec` describes, not yet run.
    pub fn new(spec: Spec) -> Self {
        let Spec {
            cfg,
            seed,
            settings,
            network,
            mut workloads,
            load,
            mut byzantine,
            redirects,
        } = spec;
        let cfg: SharedConfig = Arc::new(cfg);
        let answered = Rc::default();
        let spawn = |seat: Seat| {
            let id = seat.id.index();
            let workload = workloads
                .get_mut(id)
                .map(std::mem::take)
                .unwrap_or_default();
            let strategy = byzantine.iter().position(|(i, _)| *i == id);
            Member {
                id,
                node: SmrNode::new(seat.cfg, seat.id, seat.sk, seat.keys, workload, settings),
                strategy: strategy.map(|k| byzantine.remove(k).1),
                load,
                redirect_at: redirects.iter().find(|(i, _)| *i == id).map(|(_, at)| *at),
                paused: false,
                answered: Rc::clone(&answered),
                rng: StdRng::seed_from_u64(0),
                timers: Vec::new(),
                first_wish_at: None,
                wishes_heard: 0,
                entered: Vec::new(),
            }
        };
        // With no event budget this builds and starts the cluster, which
        // runs in phases from here.
        let (sim, _) = run_cluster(cfg.clone(), seed, network, spawn, |_| true, 0);
        let keyring = keyring(cfg.n(), seed);
        let transcript = Vec::new();
        Cluster {
            sim,
            seed,
            cfg,
            keyring,
            load,
            answered,
            transcript,
        }
    }

    pub fn member(&self, i: usize) -> &Member {
        self.sim.process(ProcessId(i))
    }

    /// The honest, unpaused replicas.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Member)> {
        self.sim
            .processes()
            .map(|(id, m)| (id.index(), m))
            .filter(|(_, m)| m.is_live())
    }

    /// Runs until `done` holds of every honest unpaused replica.
    pub fn run_until(&mut self, done: impl Fn(&Member) -> bool) {
        let all = |sim: &Simulation<Member>| sim.processes().all(|(_, m)| !m.is_live() || done(m));
        let outcome = self.sim.run_until_condition(all, MAX_EVENTS);
        assert_eq!(outcome, RunOutcome::ConditionMet, "seed {}", self.seed);
    }

    /// Runs until every honest unpaused replica has applied as many slots
    /// as every other.
    pub fn run_until_level(&mut self) {
        let level = |sim: &Simulation<Member>| {
            let live = sim.processes().filter(|(_, m)| m.is_live());
            let mut applied = live.map(|(_, m)| m.node.slots_applied());
            let first = applied.next();
            applied.all(|a| Some(a) == first)
        };
        let outcome = self.sim.run_until_condition(level, MAX_EVENTS);
        assert_eq!(outcome, RunOutcome::ConditionMet, "seed {}", self.seed);
    }

    /// Walks `plan`, its offsets counted from now: runs to each event's
    /// time and fires it as `probft_runtime::nemesis::execute` does.
    pub fn execute(&mut self, plan: &FaultPlan) {
        let start = self.sim.now();
        for (offset, fault) in plan.events() {
            let ticks = u64::try_from(offset.as_micros()).expect("an offset in range");
            self.sim
                .run_until(start + SimDuration::from_ticks(ticks), MAX_EVENTS);
            let line = self.fire(&fault, plan.seed());
            self.transcript
                .push(format!("t+{}ms {line}", offset.as_millis()));
        }
    }

    fn fire(&mut self, fault: &Fault, seed: u64) -> String {
        for (_, m) in self.sim.processes() {
            fault.journal(&m.node.obs());
        }
        let (n, leader, view) = (self.sim.len(), self.leader(), self.view());
        let applied = self.sim.processes().map(|(_, m)| m.node.slots_applied());
        let frontier = applied.max().unwrap_or(0);
        let mut pause = |i: usize, paused| {
            if i < n {
                self.sim.process_mut(ProcessId(i)).paused = paused;
            }
        };
        let line = match fault {
            Fault::KillLeader => {
                pause(leader, true);
                format!("paused replica {leader}")
            }
            Fault::Kill(i) => {
                pause(*i, true);
                format!("paused replica {i}")
            }
            Fault::Resume(i) => {
                pause(*i, false);
                format!("replica {i}")
            }
            Fault::ResumeAll => {
                (0..n).for_each(|i| pause(i, false));
                "all".into()
            }
            Fault::Equivocate => {
                let forged = nemesis::equivocation(&self.keyring, leader, view, frontier, seed);
                let [a, b] = forged.expect("the attacker is in the keyring");
                let slot = a.slot;
                let sent = self.inject(leader, |i| [if i % 2 == 0 { &a } else { &b }.clone()]);
                format!(
                    "replica {leader}'s key, slot {slot}, view {}, {sent} frames",
                    view.0
                )
            }
            Fault::FarFutureSpray => {
                let spray = nemesis::far_future_spray(&self.keyring, n - 1, frontier, seed);
                let spray = spray.expect("the attacker is in the keyring");
                let sent = self.inject(n - 1, |_| spray.clone());
                format!(
                    "replica {}'s key, slots past {frontier}, {sent} frames",
                    n - 1
                )
            }
        };
        format!("{}: {line}", fault.name())
    }

    /// Delivers `forged(i)` to every unpaused replica `i` but the attacker,
    /// from the attacker's process; returns how many messages that was.
    fn inject<I>(&mut self, attacker: usize, forged: impl Fn(usize) -> I) -> usize
    where
        I: IntoIterator<Item = SlotMessage>,
    {
        let targets: Vec<usize> = self.unpaused().filter(|&i| i != attacker).collect();
        let mut sent = 0;
        for i in targets {
            for msg in forged(i) {
                let msg = SmrMessage::Slot(msg);
                self.sim.send_from(ProcessId(attacker), ProcessId(i), msg);
                sent += 1;
            }
        }
        sent
    }

    fn unpaused(&self) -> impl Iterator<Item = usize> + '_ {
        self.sim
            .processes()
            .filter(|(_, m)| !m.paused)
            .map(|(id, _)| id.index())
    }

    /// The view the unpaused replicas hold the log in
    /// (`LiveSmrCluster::current_view`'s rule).
    pub fn view(&self) -> View {
        nemesis::plurality_view(self.unpaused().map(|i| self.member(i).node.current_view()))
    }

    /// The leader of [`view`](Self::view).
    pub fn leader(&self) -> usize {
        self.cfg.leader_of(self.view()).index()
    }

    /// Runs until every honest unpaused replica holds the whole load,
    /// level with the others, and every request was answered — or until
    /// `within` has passed. Whether it got there.
    pub fn settle(&mut self, within: SimDuration) -> bool {
        let deadline = self.sim.now() + within;
        let (count, answered) = (self.load.count, Rc::clone(&self.answered));
        let settled = move |sim: &Simulation<Member>| {
            let mut lens = sim.processes().filter(|(_, m)| m.is_live()).map(|(_, m)| {
                let all = m.node.state().applied() as usize >= count;
                all.then(|| m.node.total_log_len())
            });
            let first = lens.next().flatten();
            first.is_some() && lens.all(|len| len == first) && answered.borrow().len() == count
        };
        let done = |sim: &Simulation<Member>| sim.now() > deadline || settled(sim);
        self.sim.run_until_condition(done, MAX_EVENTS);
        settled(&self.sim)
    }

    pub fn reports(&self) -> Vec<ReplicaReport> {
        self.sim.processes().map(|(_, m)| m.node.report()).collect()
    }

    /// The requests the load's clients had answered.
    pub fn confirmed(&self) -> BTreeSet<RequestId> {
        self.answered.borrow().clone()
    }

    /// The paused and the Byzantine replicas: what the sweep leaves out.
    pub fn excluded(&self) -> Vec<usize> {
        let all = self.sim.processes();
        all.filter(|(_, m)| !m.is_live())
            .map(|(id, _)| id.index())
            .collect()
    }

    /// The invariant sweep over every replica but `excluded`.
    pub fn violations(&self, excluded: &[usize]) -> Vec<String> {
        let (reports, confirmed) = (self.reports(), self.confirmed());
        let sweep = [
            nemesis::verify_invariants(&reports, excluded, &confirmed),
            nemesis::verify_exactly_once(&reports, excluded),
        ];
        sweep
            .into_iter()
            .filter_map(Result::err)
            .flatten()
            .collect()
    }

    /// The invariant sweep over every honest unpaused replica; panics with
    /// the seed and the transcript.
    pub fn sweep(&self) {
        let violations = self.violations(&self.excluded());
        let (seed, transcript) = (self.seed, &self.transcript);
        assert!(
            violations.is_empty(),
            "seed {seed} {transcript:?}: {violations:#?}"
        );
    }
}
