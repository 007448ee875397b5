//! The log in virtual time: [`SmrNode`]s under `simnet`, each behind a
//! [`Member`] that pauses and resumes with the live cluster's semantics and
//! serves clients through the live replica's [`Frontend`], and [`Client`]
//! processes that run the live client's [`ClientPolicy`] against them over
//! the same delay model — walked through nemesis [`FaultPlan`]s (1 tick =
//! 1 µs) and ended by the live nemesis's invariant sweep. No socket, no
//! wall clock: a seed replays bit for bit. [`SmrBuilder::run`] is one
//! configuration of it ([`SmrBuilder::spec`]): workloads queued at
//! replicas, no client, run until every replica is done.
//!
//! # Examples
//!
//! ```
//! use probft_smr::nemesis::{Fault, FaultPlan};
//! use probft_smr::sim::{Cluster, Load, Spec};
//! let ms = std::time::Duration::from_millis;
//!
//! let mut spec = Spec::new(4, 7);
//! spec.load = Load { count: 20, every: 10_000 };
//! spec.settings.checkpoint_interval = 8;
//! let mut cluster = Cluster::new(spec);
//! // At n = 4 a quorum is all four: the log waits for the leader's return.
//! cluster.execute(&FaultPlan::new(7).at(ms(50), Fault::KillLeader).at(ms(400), Fault::ResumeAll));
//! assert_eq!(cluster.transcript[0], "t+50ms kill-leader: paused replica 0");
//! assert!(cluster.settle(probft_simnet::time::SimDuration::from_ticks(30_000_000)));
//! assert_eq!(cluster.sweep(), Ok(()));
//! ```
//!
//! [`SmrBuilder::run`]: crate::SmrBuilder::run
//! [`SmrBuilder::spec`]: crate::SmrBuilder::spec

use crate::client::ClientPolicy;
use crate::frontend::{Frontend, Reply};
use crate::nemesis::{self, Fault, FaultPlan, ReplicaReport};
use crate::{
    Command, KvResponse, KvStore, OpKind, RequestId, SlotMessage, SmrMessage, SmrNode, SmrSettings,
};
use probft_core::config::{ProbftConfig, SharedConfig, View};
use probft_core::message::Message;
use probft_core::wire::Wire;
use probft_crypto::keyring::Keyring;
use probft_obs::{MetricsSnapshot, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::delay::{DelayModel, PartialSynchrony};
use probft_simnet::metrics::Measurable;
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::sim::{RunOutcome, Simulation};
use probft_simnet::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// The event budget of every run loop here.
pub const MAX_EVENTS: u64 = 50_000_000;
/// How often a paused replica looks for its resume (the live host's wait).
const PAUSED_POLL: u64 = 5_000;
/// How many timers [`Member::timers`] keeps.
const TIMER_PROBES: usize = 4_096;
/// A member's own timer (a node numbers its timers from 1).
const REDIRECT: TimerToken = TimerToken(u64::MAX - 1);
/// A client's timer for its next send; an attempt's carries its number.
const WAKE: TimerToken = TimerToken(u64::MAX);
/// The live nemesis clients' attempt timeout.
const RETRY: Duration = Duration::from_millis(500);

/// The keys a cluster of `n` built with `seed` is dealt.
pub fn keyring(n: usize, seed: u64) -> Keyring {
    Keyring::generate(n, &seed.to_be_bytes())
}

/// The links a [`Spec`] starts on: delays uniform in 1..=100 ticks.
pub fn network() -> PartialSynchrony {
    PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(100))
}

/// `count` PUTs `{tag}{i} = v{i}`.
pub fn puts(tag: &str, count: usize) -> Vec<Command> {
    let put = |i| Command::Put {
        key: format!("{tag}{i}"),
        value: format!("v{i}"),
    };
    (0..count).map(put).collect()
}

fn ticks(d: Duration) -> SimDuration {
    SimDuration::from_ticks(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// What the processes send: replica traffic, a client's write, and the
/// front-end's reply to it.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Between replicas.
    Peer(SmrMessage),
    /// A client's write.
    Request(RequestId, Command),
    /// A front-end's answer to a client.
    Reply(Reply<KvResponse>),
}

impl Measurable for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Peer(msg) => msg.kind(),
            Msg::Request(..) => "client-request",
            Msg::Reply(_) => "client-reply",
        }
    }

    /// A client frame is metered at its id (16 B) and op.
    fn wire_size(&self) -> usize {
        match self {
            Msg::Peer(msg) => msg.wire_size(),
            Msg::Request(_, op) => op.wire_len().saturating_add(16),
            Msg::Reply(_) => 16,
        }
    }
}

/// Client requests over time: request `r`, a PUT of `key{r}`, is sent at
/// `r × every` ticks by a client of its own, which — like the live
/// nemesis clients — starts at replica `r mod n` and gives an attempt
/// 500 ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct Load {
    /// How many requests.
    pub count: usize,
    /// Ticks between two requests.
    pub every: u64,
}

impl Load {
    /// The id of request `r`.
    pub fn id(r: usize) -> RequestId {
        let client = u64::try_from(r).map_or(u64::MAX, |r| r.saturating_add(1));
        RequestId { client, seq: 1 }
    }

    fn clients(self, n: usize) -> impl Iterator<Item = Client> {
        (0..self.count).map(move |r| {
            let op = Command::Put {
                key: format!("key{r}"),
                value: format!("val{r}"),
            };
            let r64 = u64::try_from(r).unwrap_or(u64::MAX);
            let due = SimTime::from_ticks(r64.saturating_mul(self.every));
            let hint = r.checked_rem(n).unwrap_or(0);
            Client::new(n, hint, RETRY, [(due, Load::id(r), op)])
        })
    }
}

/// A client process: `SmrClient`'s [`ClientPolicy`] over the replicas'
/// process ids, one request in flight, each sent when due or once the one
/// before is answered, and resent under its id until answered — with no
/// overall budget: the settle window bounds the run.
pub struct Client {
    policy: ClientPolicy<ProcessId>,
    timeout: SimDuration,
    /// What is still to send: when it is due, its id, its PUT.
    queue: VecDeque<(SimTime, RequestId, Command)>,
    /// The attempt in flight: its timer (its send time, unique to it) and
    /// the replica asked.
    asked: Option<(TimerToken, ProcessId)>,
    /// When the front request was first sent.
    sent: Option<SimTime>,
    /// `(request, first sent, answered)` of every request answered.
    answered: Vec<(RequestId, SimTime, SimTime)>,
}

impl Client {
    /// A client of replicas `0..n` that starts at `hint` and gives an
    /// attempt `timeout`.
    pub fn new(
        n: usize,
        hint: usize,
        timeout: Duration,
        requests: impl IntoIterator<Item = (SimTime, RequestId, Command)>,
    ) -> Self {
        Client {
            policy: ClientPolicy::new((0..n).map(ProcessId).collect(), ProcessId(hint)),
            timeout: ticks(timeout),
            queue: requests.into_iter().collect(),
            asked: None,
            sent: None,
            answered: Vec::new(),
        }
    }

    /// Sends the front request where the policy says, or wakes when it is
    /// due.
    fn send(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some((due, request, op)) = self.queue.front() else {
            return;
        };
        if ctx.now() < *due {
            let wait = due.ticks().saturating_sub(ctx.now().ticks());
            return ctx.set_timer(SimDuration::from_ticks(wait), WAKE);
        }
        if self.sent.is_none() {
            self.sent = Some(ctx.now());
            self.policy.begin();
        }
        let (attempt, to) = (TimerToken(ctx.now().ticks()), self.policy.target());
        self.asked = Some((attempt, to));
        ctx.send(to, Msg::Request(*request, op.clone()));
        ctx.set_timer(self.timeout, attempt);
    }
}

impl Process for Client {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.send(ctx);
    }

    /// A reply to the attempt in flight; any other (an earlier attempt's,
    /// from a replica since left) is dropped, as with its connection.
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let (Msg::Reply(reply), Some((_, asked))) = (msg, self.asked) else {
            return;
        };
        let request = reply.request();
        if from != asked || self.queue.front().map(|q| q.1) != Some(request) {
            return;
        }
        self.asked = None;
        match reply {
            Reply::Redirect { leader, .. } => {
                self.policy.redirected(asked, ProcessId(leader.index()));
                self.send(ctx);
            }
            Reply::Overloaded { .. } => ctx.set_timer(ticks(self.policy.overloaded()), WAKE),
            Reply::Applied { .. } | Reply::Read { .. } => {
                self.policy.answered();
                self.queue.pop_front();
                let sent = self.sent.take().unwrap_or(ctx.now());
                self.answered.push((request, sent, ctx.now()));
                self.send(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        match self.asked {
            None if token == WAKE => self.send(ctx),
            Some((attempt, asked)) if token == attempt => {
                self.policy.silent(asked);
                self.send(ctx);
            }
            _ => {}
        }
    }
}

/// A Byzantine replica's behaviour beside its honest node: called at start
/// (`None`) and after the node handled each peer message.
pub type Strategy =
    Box<dyn FnMut(Option<&SmrMessage>, &SmrNode<KvStore>, &mut Context<'_, SmrMessage>)>;

/// What a cluster is made of. [`Spec::new`] is the live cluster's shape —
/// its view timeout, serving mode at depth 4 — on [`network`].
pub struct Spec {
    /// The protocol's parameters; its `n` is the cluster's.
    pub cfg: ProbftConfig,
    /// Fixes the keys, the links' delays and so the whole run.
    pub seed: u64,
    /// Every replica's.
    pub settings: SmrSettings,
    /// The links.
    pub network: Box<dyn DelayModel>,
    /// Untagged writes queued at a replica from the start.
    pub workloads: BTreeMap<ReplicaId, Vec<Command>>,
    /// One-shot clients over time.
    pub load: Load,
    /// Clients beside the load's.
    pub clients: Vec<Client>,
    /// The replicas that run a [`Strategy`] beside their node.
    pub byzantine: Vec<(usize, Strategy)>,
    /// Replica `i` is told at the given time that a client was turned away.
    pub redirects: Vec<(usize, SimTime)>,
}

impl Spec {
    /// `n` replicas with keys and links drawn from `seed`, nothing queued
    /// and no client.
    pub fn new(n: usize, seed: u64) -> Self {
        let timeout = SimDuration::from_ticks(250_000);
        Spec {
            cfg: ProbftConfig::builder(n).base_timeout(timeout).build(),
            seed,
            settings: SmrSettings::live(4),
            network: Box::new(network()),
            workloads: BTreeMap::new(),
            load: Load::default(),
            clients: Vec::new(),
            byzantine: Vec::new(),
            redirects: Vec::new(),
        }
    }
}

/// One replica: its node and its clients' front-end, with its input and
/// output in view, pausable.
pub struct Member {
    /// Its replica index.
    pub id: usize,
    /// The replica.
    pub node: SmrNode<KvStore>,
    frontend: Frontend<ProcessId>,
    strategy: Option<Strategy>,
    redirect_at: Option<SimTime>,
    /// Paused: input dropped, timers held until resume, nothing sent.
    paused: bool,
    /// Handed to the node's contexts, which draw nothing from it.
    rng: StdRng,
    /// Test probe: `(when, delay)` of the first 4 096 timers the node set.
    pub timers: Vec<(SimTime, SimDuration)>,
    /// Test probe: when the node first sent a wish of its own to a peer.
    pub first_wish_at: Option<SimTime>,
    /// Test probe: wishes delivered to the node (its own to itself aside).
    pub wishes_heard: u64,
}

impl Member {
    /// Honest and unpaused.
    pub fn is_live(&self) -> bool {
        !self.paused && self.strategy.is_none()
    }

    /// The node's registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.node.obs().snapshot()
    }

    /// `(view, when)` of every view the node entered after its first: the
    /// `ViewChange` events of its journal.
    pub fn entered(&self) -> Vec<(View, SimTime)> {
        let journal = self.node.obs().journal().snapshot().into_iter();
        let at = SimTime::from_ticks;
        let views = journal.filter_map(|e| match e.kind {
            TraceKind::ViewChange { to_view, .. } => Some((View(to_view), at(e.at_micros))),
            _ => None,
        });
        views.collect()
    }

    /// Runs `step` against the node and its front-end, passes on what the
    /// node did, and sends the answers it applied.
    fn observe<R>(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        step: impl FnOnce(
            &mut SmrNode<KvStore>,
            &mut Frontend<ProcessId>,
            &mut Context<'_, SmrMessage>,
        ) -> R,
    ) -> R {
        let mut inner = Context::detached(ctx.id(), ctx.now(), &mut self.rng);
        let out = step(&mut self.node, &mut self.frontend, &mut inner);
        let answers = self.frontend.on_applied(&mut self.node, &inner);
        for action in inner.drain_actions() {
            match action {
                Action::Send { to, msg } => {
                    if is_wish(&msg) && to != ctx.id() {
                        self.first_wish_at.get_or_insert(ctx.now());
                    }
                    ctx.send(to, Msg::Peer(msg));
                }
                Action::SetTimer { delay, token } => {
                    if self.timers.len() < TIMER_PROBES {
                        self.timers.push((ctx.now(), delay));
                    }
                    ctx.set_timer(delay, token);
                }
                Action::Halt => ctx.halt(),
            }
        }
        for (to, reply) in answers {
            ctx.send(to, Msg::Reply(reply));
        }
        out
    }

    /// Runs the Byzantine strategy, if any, after the node heard `heard`.
    fn scheme(&mut self, heard: Option<&SmrMessage>, ctx: &mut Context<'_, Msg>) {
        if let Some(mut strategy) = self.strategy.take() {
            self.observe(ctx, |node, _, ctx| strategy(heard, node, ctx));
            self.strategy = Some(strategy);
        }
    }
}

fn is_wish(msg: &SmrMessage) -> bool {
    matches!(msg, SmrMessage::Slot(slot) if matches!(slot.inner, Message::Wish(_)))
}

impl Process for Member {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(at) = self.redirect_at {
            ctx.set_timer(SimDuration::from_ticks(at.ticks()), REDIRECT);
        }
        self.observe(ctx, |node, _, ctx| node.on_start(ctx));
        self.scheme(None, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        if self.paused {
            return;
        }
        match msg {
            Msg::Peer(msg) => {
                if is_wish(&msg) && from != ctx.id() {
                    self.wishes_heard = self.wishes_heard.saturating_add(1);
                }
                let heard = self.strategy.is_some().then(|| msg.clone());
                self.observe(ctx, |node, _, ctx| node.on_message(from, msg, ctx));
                self.scheme(heard.as_ref(), ctx);
            }
            Msg::Request(request, op) => {
                let reply = self.observe(ctx, |node, frontend, ctx| {
                    frontend.on_request(node, request, OpKind::Write, op, from, ctx)
                });
                if let Some(reply) = reply {
                    ctx.send(from, Msg::Reply(reply));
                }
            }
            Msg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        if self.paused {
            // Held: looked at again after the host's paused-replica wait.
            ctx.set_timer(SimDuration::from_ticks(PAUSED_POLL), token);
        } else if token == REDIRECT {
            self.observe(ctx, |node, _, ctx| node.on_redirect(ctx));
        } else {
            self.observe(ctx, |node, _, ctx| node.on_timer(token, ctx));
        }
    }
}

/// A process of the cluster: replicas first, then clients.
pub enum Proc {
    /// Process `i < n`: replica `i`.
    Replica(Box<Member>),
    /// A process past the replicas.
    Client(Client),
}

impl Proc {
    fn process(&mut self) -> &mut dyn Process<Message = Msg> {
        match self {
            Proc::Replica(m) => &mut **m,
            Proc::Client(c) => c,
        }
    }
}

impl Process for Proc {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.process().on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.process().on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
        self.process().on_timer(token, ctx);
    }
}

fn members(sim: &Simulation<Proc>) -> impl Iterator<Item = &Member> {
    sim.processes().filter_map(|(_, p)| match p {
        Proc::Replica(m) => Some(&**m),
        Proc::Client(_) => None,
    })
}

fn clients(sim: &Simulation<Proc>) -> impl Iterator<Item = &Client> {
    sim.processes().filter_map(|(_, p)| match p {
        Proc::Client(c) => Some(c),
        Proc::Replica(_) => None,
    })
}

/// A running cluster, and the executor of fault plans against it.
pub struct Cluster {
    /// The simulation it runs in.
    pub sim: Simulation<Proc>,
    /// The seed it was built with.
    pub seed: u64,
    cfg: SharedConfig,
    keyring: Keyring,
    /// One line per fault fired, as the live executor's transcript.
    pub transcript: Vec<String>,
}

impl Cluster {
    /// Builds the cluster `spec` describes, not yet run.
    pub fn new(mut spec: Spec) -> Self {
        let (n, seed, settings) = (spec.cfg.n(), spec.seed, spec.settings);
        let cfg: SharedConfig = Arc::new(spec.cfg);
        let keyring = keyring(n, seed);
        let keys = Arc::new(keyring.public());
        let mut sim = Simulation::new(spec.network, seed);
        // The keyring deals exactly `n` keys.
        let dealt = (0..n).map_while(|id| Some((id, keyring.signing_key(id).ok()?.clone())));
        for (id, sk) in dealt {
            let replica = ReplicaId::from(id);
            let workload = spec.workloads.remove(&replica).unwrap_or_default();
            let node = SmrNode::new(cfg.clone(), replica, sk, keys.clone(), workload, settings);
            let strategy = spec.byzantine.iter().position(|(i, _)| *i == id);
            let redirect_at = spec.redirects.iter().find(|(i, _)| *i == id).map(|r| r.1);
            sim.add_process(Proc::Replica(Box::new(Member {
                id,
                node,
                frontend: Frontend::default(),
                strategy: strategy.map(|k| spec.byzantine.remove(k).1),
                redirect_at,
                paused: false,
                rng: StdRng::seed_from_u64(0),
                timers: Vec::new(),
                first_wish_at: None,
                wishes_heard: 0,
            })));
        }
        for client in spec.load.clients(n).chain(spec.clients) {
            sim.add_process(Proc::Client(client));
        }
        Cluster {
            sim,
            seed,
            cfg,
            keyring,
            transcript: Vec::new(),
        }
    }

    /// The replicas, in order.
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        members(&self.sim)
    }

    /// Replica `i`, if the cluster has one.
    pub fn member(&self, i: usize) -> Option<&Member> {
        self.members().nth(i)
    }

    /// The honest, unpaused replicas.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Member)> {
        self.members().filter(|m| m.is_live()).map(|m| (m.id, m))
    }

    /// Runs until `done` holds of every honest unpaused replica, or the
    /// event budget runs out.
    #[must_use]
    pub fn run_until(&mut self, done: impl Fn(&Member) -> bool) -> RunOutcome {
        let all = |sim: &Simulation<Proc>| members(sim).all(|m| !m.is_live() || done(m));
        self.sim.run_until_condition(all, MAX_EVENTS)
    }

    /// Runs until every honest unpaused replica has applied as many slots
    /// as every other, or the event budget runs out.
    #[must_use]
    pub fn run_until_level(&mut self) -> RunOutcome {
        let level = |sim: &Simulation<Proc>| {
            let live = members(sim).filter(|m| m.is_live());
            let mut applied = live.map(|m| m.node.slots_applied());
            let first = applied.next();
            applied.all(|a| Some(a) == first)
        };
        self.sim.run_until_condition(level, MAX_EVENTS)
    }

    /// Walks `plan`, its offsets counted from now: runs to each event's
    /// time and fires it as `probft_runtime::nemesis::execute` does.
    pub fn execute(&mut self, plan: &FaultPlan) {
        let start = self.sim.now();
        for (offset, fault) in plan.events() {
            let at = start.saturating_add(ticks(offset));
            // A fault due now fires now, in the state the caller saw —
            // not after the events that happen to share its tick.
            if at > self.sim.now() {
                self.sim.run_until(at, MAX_EVENTS);
            }
            let line = self.fire(&fault, plan.seed());
            self.transcript
                .push(format!("t+{}ms {line}", offset.as_millis()));
        }
    }

    /// Fires `fault`; the transcript line. A replica the cluster does not
    /// have is left alone, as on sockets.
    fn fire(&mut self, fault: &Fault, seed: u64) -> String {
        let now = self.sim.now().ticks();
        members(&self.sim).for_each(|m| fault.journal(&m.node.obs(), now));
        let (n, leader, view) = (self.cfg.n(), self.leader(), self.view());
        let applied = members(&self.sim).map(|m| m.node.slots_applied());
        let frontier = applied.max().unwrap_or(0);
        let mut pause = |i: usize, paused| {
            if let Some(Proc::Replica(m)) = (i < n).then(|| self.sim.process_mut(ProcessId(i))) {
                m.paused = paused;
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
                let Some([a, b]) = forged else {
                    return format!("equivocate: no signing key for replica {leader}");
                };
                let (slot, View(view)) = (a.slot, view);
                let sent = self.inject(leader, |i| [if i % 2 == 0 { &a } else { &b }.clone()]);
                format!("replica {leader}'s key, slot {slot}, view {view}, {sent} frames")
            }
            Fault::FarFutureSpray => {
                let attacker = n.saturating_sub(1);
                let spray = nemesis::far_future_spray(&self.keyring, attacker, frontier, seed);
                let Some(spray) = spray else {
                    return format!("far-future-spray: no signing key for replica {attacker}");
                };
                let sent = self.inject(attacker, |_| spray.clone());
                format!("replica {attacker}'s key, slots past {frontier}, {sent} frames")
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
        let unpaused = self.members().filter(|m| !m.paused && m.id != attacker);
        let targets: Vec<usize> = unpaused.map(|m| m.id).collect();
        let mut sent = 0usize;
        for i in targets {
            for msg in forged(i) {
                let msg = Msg::Peer(SmrMessage::Slot(msg));
                self.sim.send_from(ProcessId(attacker), ProcessId(i), msg);
                sent = sent.saturating_add(1);
            }
        }
        sent
    }

    /// The view the unpaused replicas hold the log in
    /// (`LiveSmrCluster::current_view`'s rule).
    pub fn view(&self) -> View {
        let unpaused = self.members().filter(|m| !m.paused);
        nemesis::plurality_view(unpaused.map(|m| m.node.current_view()))
    }

    /// The leader of [`view`](Self::view).
    pub fn leader(&self) -> usize {
        self.cfg.leader_of(self.view()).index()
    }

    /// Runs until every honest unpaused replica holds every client
    /// request, level with the others, and every request was answered — or
    /// until `within` has passed. Whether it got there.
    pub fn settle(&mut self, within: SimDuration) -> bool {
        let deadline = self.sim.now().saturating_add(within);
        let requests = clients(&self.sim).map(|c| c.queue.len().saturating_add(c.answered.len()));
        let count = u64::try_from(requests.sum::<usize>()).unwrap_or(u64::MAX);
        let settled = move |sim: &Simulation<Proc>| {
            let mut lens = members(sim).filter(|m| m.is_live()).map(|m| {
                let all = m.node.state().applied() >= count;
                all.then(|| m.node.total_log_len())
            });
            let first = lens.next().flatten();
            first.is_some()
                && lens.all(|len| len == first)
                && clients(sim).all(|c| c.queue.is_empty())
        };
        let done = |sim: &Simulation<Proc>| sim.now() > deadline || settled(sim);
        self.sim.run_until_condition(done, MAX_EVENTS);
        settled(&self.sim)
    }

    /// Every replica's report, as the live cluster's shutdown hands them.
    pub fn reports(&self) -> Vec<ReplicaReport> {
        self.members().map(|m| m.node.report()).collect()
    }

    /// `(request, first sent, answered)` of every request a client had
    /// answered.
    pub fn answers(&self) -> impl Iterator<Item = &(RequestId, SimTime, SimTime)> {
        clients(&self.sim).flat_map(|c| &c.answered)
    }

    /// The requests the clients had answered.
    pub fn confirmed(&self) -> BTreeSet<RequestId> {
        self.answers().map(|(request, ..)| *request).collect()
    }

    /// The paused and the Byzantine replicas: what the sweep leaves out.
    pub fn excluded(&self) -> Vec<usize> {
        let excluded = self.members().filter(|m| !m.is_live());
        excluded.map(|m| m.id).collect()
    }

    /// The invariant sweep over every replica but `excluded`.
    pub fn violations(&self, excluded: &[usize]) -> Vec<String> {
        let (reports, confirmed) = (self.reports(), self.confirmed());
        let sweep = [
            nemesis::verify_invariants(&reports, excluded, &confirmed),
            nemesis::verify_exactly_once(&reports, excluded),
        ];
        sweep.into_iter().flat_map(Result::err).flatten().collect()
    }

    /// The invariant sweep over every honest unpaused replica; a violation
    /// is told with the seed and the transcript.
    pub fn sweep(&self) -> Result<(), String> {
        let violations = self.violations(&self.excluded());
        let (seed, transcript) = (self.seed, &self.transcript);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(format!("seed {seed} {transcript:?}: {violations:#?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fault naming a replica past the cluster fires as on sockets:
    /// transcribed, and nothing paused or resumed.
    #[test]
    fn a_fault_past_the_cluster_is_a_no_op() {
        let mut cluster = Cluster::new(Spec::new(7, 1));
        let plan = FaultPlan::new(1)
            .at(Duration::ZERO, Fault::Kill(9))
            .at(Duration::ZERO, Fault::Resume(9));
        cluster.execute(&plan);
        assert_eq!(
            cluster.transcript,
            ["t+0ms kill: paused replica 9", "t+0ms resume: replica 9"]
        );
        assert!(cluster.excluded().is_empty());
        assert_eq!(cluster.live().count(), 7);
    }
}
