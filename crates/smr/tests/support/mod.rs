//! The virtual-time executor the `probft-smr` tests share: [`SmrNode`]s
//! under `simnet`, each behind a [`Member`] that pauses and resumes with the
//! live cluster's semantics and serves clients through the live replica's
//! [`Frontend`], and [`Client`] processes that run the live client's
//! [`ClientPolicy`] against them over the same delay model — walked through
//! nemesis [`FaultPlan`]s (1 tick = 1 µs) and ended by the live nemesis's
//! invariant sweep. No socket, no wall clock: a seed replays bit for bit.

#![allow(
    dead_code,
    reason = "each test binary compiles its own copy and uses a part of it"
)]

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
use probft_smr::client::ClientPolicy;
use probft_smr::frontend::{Frontend, Reply};
use probft_smr::nemesis::{self, Fault, FaultPlan, ReplicaReport};
use probft_smr::{
    Command, KvResponse, KvStore, OpKind, RequestId, SlotMessage, SmrMessage, SmrNode, SmrSettings,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

pub const MAX_EVENTS: u64 = 20_000_000;
/// How often a paused replica looks for its resume (the live host's wait).
const PAUSED_POLL: u64 = 5_000;
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

/// `count` PUTs `{tag}{i} = v{i}`.
pub fn puts(tag: &str, count: usize) -> Vec<Command> {
    let put = |i| Command::Put {
        key: format!("{tag}{i}"),
        value: format!("v{i}"),
    };
    (0..count).map(put).collect()
}

fn ticks(d: Duration) -> SimDuration {
    SimDuration::from_ticks(d.as_micros() as u64)
}

/// What the processes send: replica traffic, a client's write, and the
/// front-end's reply to it.
#[derive(Clone, Debug)]
pub enum Msg {
    Peer(SmrMessage),
    Request(RequestId, Command),
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
            Msg::Request(_, op) => 16 + op.wire_len(),
            Msg::Reply(_) => 16,
        }
    }
}

/// Client requests over time: request `r`, a PUT of `key{r}`, is sent at
/// `r × every` ticks by a client of its own, which — like the live
/// nemesis clients — starts at replica `r mod n` and gives an attempt
/// `RETRY`.
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

    fn clients(self, n: usize) -> impl Iterator<Item = Client> {
        (0..self.count).map(move |r| {
            let op = Command::Put {
                key: format!("key{r}"),
                value: format!("val{r}"),
            };
            let due = SimTime::from_ticks(r as u64 * self.every);
            Client::new(n, r % n, RETRY, [(due, Load::id(r), op)])
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
            return ctx.set_timer(*due - ctx.now(), WAKE);
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
    /// Clients beside the load's.
    pub clients: Vec<Client>,
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
            clients: Vec::new(),
            byzantine: Vec::new(),
            redirects: Vec::new(),
        }
    }
}

/// One replica: its node and its clients' front-end, with its input and
/// output in view, pausable.
pub struct Member {
    pub id: usize,
    pub node: SmrNode<KvStore>,
    frontend: Frontend<ProcessId>,
    strategy: Option<Strategy>,
    redirect_at: Option<SimTime>,
    /// Paused: input dropped, timers held until resume, nothing sent.
    paused: bool,
    /// Handed to the node's contexts, which draw nothing from it.
    rng: StdRng,
    /// `(when, delay)` of every timer the node set.
    pub timers: Vec<(SimTime, SimDuration)>,
    /// When the node first sent a wish of its own to a peer.
    pub first_wish_at: Option<SimTime>,
    /// Wishes delivered to the node (its own to itself aside).
    pub wishes_heard: u64,
}

impl Member {
    /// Honest and unpaused.
    pub fn is_live(&self) -> bool {
        !self.paused && self.strategy.is_none()
    }

    pub fn leads(&self) -> bool {
        self.node.leads()
    }

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
                    self.timers.push((ctx.now(), delay));
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
    let SmrMessage::Slot(SlotMessage { inner, .. }) = msg else {
        return false;
    };
    matches!(inner, Message::Wish(_))
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
                    self.wishes_heard += 1;
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
    Replica(Box<Member>),
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
    pub sim: Simulation<Proc>,
    pub seed: u64,
    cfg: SharedConfig,
    keyring: Keyring,
    /// How many requests the clients send in all.
    requests: usize,
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
            clients,
            mut byzantine,
            redirects,
        } = spec;
        let n = cfg.n();
        let cfg: SharedConfig = Arc::new(cfg);
        let keyring = keyring(n, seed);
        let keys = Arc::new(keyring.public());
        let mut sim = Simulation::new(network, seed);
        for id in 0..n {
            let sk = keyring.signing_key(id).expect("in range").clone();
            let workload = workloads
                .get_mut(id)
                .map(std::mem::take)
                .unwrap_or_default();
            let replica = ReplicaId::from(id);
            let node = SmrNode::new(cfg.clone(), replica, sk, keys.clone(), workload, settings);
            let strategy = byzantine.iter().position(|(i, _)| *i == id);
            sim.add_process(Proc::Replica(Box::new(Member {
                id,
                node,
                frontend: Frontend::default(),
                strategy: strategy.map(|k| byzantine.remove(k).1),
                redirect_at: redirects.iter().find(|(i, _)| *i == id).map(|(_, at)| *at),
                paused: false,
                rng: StdRng::seed_from_u64(0),
                timers: Vec::new(),
                first_wish_at: None,
                wishes_heard: 0,
            })));
        }
        let mut requests = 0;
        for client in load.clients(n).chain(clients) {
            requests += client.queue.len();
            sim.add_process(Proc::Client(client));
        }
        Cluster {
            sim,
            seed,
            cfg,
            keyring,
            requests,
            transcript: Vec::new(),
        }
    }

    pub fn member(&self, i: usize) -> &Member {
        members(&self.sim).nth(i).expect("a replica")
    }

    /// The honest, unpaused replicas.
    pub fn live(&self) -> impl Iterator<Item = (usize, &Member)> {
        members(&self.sim)
            .filter(|m| m.is_live())
            .map(|m| (m.id, m))
    }

    /// Runs until `done` holds of every honest unpaused replica.
    pub fn run_until(&mut self, done: impl Fn(&Member) -> bool) {
        let all = |sim: &Simulation<Proc>| members(sim).all(|m| !m.is_live() || done(m));
        let outcome = self.sim.run_until_condition(all, MAX_EVENTS);
        assert_eq!(outcome, RunOutcome::ConditionMet, "seed {}", self.seed);
    }

    /// Runs until every honest unpaused replica has applied as many slots
    /// as every other.
    pub fn run_until_level(&mut self) {
        let level = |sim: &Simulation<Proc>| {
            let live = members(sim).filter(|m| m.is_live());
            let mut applied = live.map(|m| m.node.slots_applied());
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
            let at = start + ticks(offset);
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

    fn fire(&mut self, fault: &Fault, seed: u64) -> String {
        for m in members(&self.sim) {
            fault.journal(&m.node.obs(), self.sim.now().ticks());
        }
        let (n, leader, view) = (self.cfg.n(), self.leader(), self.view());
        let applied = members(&self.sim).map(|m| m.node.slots_applied());
        let frontier = applied.max().unwrap_or(0);
        let mut pause = |i: usize, paused| {
            if let (true, Proc::Replica(m)) = (i < n, self.sim.process_mut(ProcessId(i))) {
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
                let msg = Msg::Peer(SmrMessage::Slot(msg));
                self.sim.send_from(ProcessId(attacker), ProcessId(i), msg);
                sent += 1;
            }
        }
        sent
    }

    fn unpaused(&self) -> impl Iterator<Item = usize> + '_ {
        members(&self.sim).filter(|m| !m.paused).map(|m| m.id)
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

    /// Runs until every honest unpaused replica holds every client
    /// request, level with the others, and every request was answered — or
    /// until `within` has passed. Whether it got there.
    pub fn settle(&mut self, within: SimDuration) -> bool {
        let (deadline, count) = (self.sim.now() + within, self.requests);
        let settled = move |sim: &Simulation<Proc>| {
            let mut lens = members(sim).filter(|m| m.is_live()).map(|m| {
                let all = m.node.state().applied() as usize >= count;
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

    pub fn reports(&self) -> Vec<ReplicaReport> {
        members(&self.sim).map(|m| m.node.report()).collect()
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
        members(&self.sim)
            .filter(|m| !m.is_live())
            .map(|m| m.id)
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
