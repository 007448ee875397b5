//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns a set of processes, a network delay model, a
//! deterministic RNG, and a time-ordered event queue. Runs are exactly
//! reproducible: the same processes, network model, and seed yield the same
//! event sequence, which the integration tests rely on for Monte Carlo
//! experiments and regression debugging.
//!
//! The queue is a binary heap of 24-byte keys `(at, seq, slot)`: events
//! fire in `(at, seq)` order, `seq` counting every event ever queued, and
//! each event itself (a message, mostly) waits in a slab slot that the heap
//! never moves; a popped slot is reused by the next push.

use crate::delay::DelayModel;
use crate::metrics::{Measurable, MessageMetrics};
use crate::process::{Action, Context, Process, ProcessId, TimerToken};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// What happens when a queued event fires.
enum EventKind<M> {
    Start(ProcessId),
    Deliver {
        to: ProcessId,
        from: ProcessId,
        msg: M,
    },
    Timer {
        process: ProcessId,
        token: TimerToken,
    },
}

/// A queued event's place in the order. Fields compare in declaration
/// order, and `seq` is unique, so `slot` never decides.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventKey {
    at: SimTime,
    /// Monotone sequence number; makes event order total and deterministic.
    seq: u64,
    /// Where the event waits in [`Simulation::events`].
    slot: usize,
}

/// Why a run loop returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Quiescent,
    /// The time horizon was reached with events still queued.
    HorizonReached,
    /// The event budget was exhausted (possible livelock).
    BudgetExhausted,
    /// The caller-supplied predicate became true.
    ConditionMet,
}

/// A deterministic discrete-event simulation over processes of type `P`.
///
/// # Examples
///
/// ```
/// use probft_simnet::delay::Fixed;
/// use probft_simnet::metrics::Measurable;
/// use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
/// use probft_simnet::sim::Simulation;
/// use probft_simnet::time::{SimDuration, SimTime};
///
/// #[derive(Clone)]
/// struct Ping(u32);
/// impl Measurable for Ping {
///     fn kind(&self) -> &'static str { "Ping" }
///     fn wire_size(&self) -> usize { 4 }
/// }
///
/// struct Echo { last: Option<u32> }
/// impl Process for Echo {
///     type Message = Ping;
///     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
///         if ctx.id() == ProcessId(0) { ctx.send(ProcessId(1), Ping(7)); }
///     }
///     fn on_message(&mut self, _f: ProcessId, m: Ping, _c: &mut Context<'_, Ping>) {
///         self.last = Some(m.0);
///     }
///     fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, Ping>) {}
/// }
///
/// let mut sim = Simulation::new(Fixed(SimDuration::from_ticks(3)), 42);
/// sim.add_process(Echo { last: None });
/// sim.add_process(Echo { last: None });
/// sim.run_to_quiescence(1_000);
/// assert_eq!(sim.process(ProcessId(1)).last, Some(7));
/// assert_eq!(sim.now(), SimTime::from_ticks(3));
/// ```
pub struct Simulation<P: Process> {
    processes: Vec<P>,
    alive: Vec<bool>,
    /// Earliest key first (`Reverse`: `BinaryHeap` is a max-heap).
    queue: BinaryHeap<Reverse<EventKey>>,
    /// The queued events by slot; `None` in a slot on `free`.
    events: Vec<Option<EventKind<P::Message>>>,
    free: Vec<usize>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    network: Box<dyn DelayModel>,
    metrics: MessageMetrics,
    started: bool,
    events_processed: u64,
}

impl<P: Process> Simulation<P>
where
    P::Message: Measurable + Clone,
{
    /// Creates a simulation with the given network model and RNG seed.
    pub fn new<D: DelayModel + 'static>(network: D, seed: u64) -> Self {
        Simulation {
            processes: Vec::new(),
            alive: Vec::new(),
            queue: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            network: Box::new(network),
            metrics: MessageMetrics::new(),
            started: false,
            events_processed: 0,
        }
    }

    /// Registers a process; IDs are assigned densely from zero.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started.
    pub fn add_process(&mut self, process: P) -> ProcessId {
        assert!(!self.started, "cannot add processes after start");
        let id = ProcessId(self.processes.len());
        self.processes.push(process);
        self.alive.push(true);
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether no processes are registered.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Immutable access to a process (for inspecting protocol state).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn process(&self, id: ProcessId) -> &P {
        &self.processes[id.index()]
    }

    /// Mutable access to a process between events (for injecting faults
    /// into it).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn process_mut(&mut self, id: ProcessId) -> &mut P {
        &mut self.processes[id.index()]
    }

    /// Sends `msg` to `to` as if `from` had sent it now: through the
    /// network model, and counted in the metrics like any send (for
    /// delivering forged traffic from an attacker's process).
    pub fn send_from(&mut self, from: ProcessId, to: ProcessId, msg: P::Message) {
        self.flush_actions(from, vec![Action::Send { to, msg }]);
    }

    /// Iterates over `(id, process)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &P)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i), p))
    }

    /// Message metrics accumulated so far.
    pub fn metrics(&self) -> &MessageMetrics {
        &self.metrics
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Marks a process as crashed: pending and future events to it are
    /// dropped, and it emits nothing further. Models fail-stop faults.
    pub fn crash(&mut self, id: ProcessId) {
        self.alive[id.index()] = false;
    }

    /// Whether `id` is still live (not crashed, not halted).
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.alive[id.index()]
    }

    fn push(&mut self, at: SimTime, kind: EventKind<P::Message>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot] = Some(kind);
                slot
            }
            None => {
                self.events.push(Some(kind));
                self.events.len() - 1
            }
        };
        self.queue.push(Reverse(EventKey { at, seq, slot }));
    }

    /// Removes the earliest event from the queue.
    fn pop(&mut self) -> Option<(SimTime, EventKind<P::Message>)> {
        let Reverse(EventKey { at, slot, .. }) = self.queue.pop()?;
        let kind = self.events[slot]
            .take()
            .expect("a queued key's slot holds its event");
        self.free.push(slot);
        Some((at, kind))
    }

    /// Schedules all `on_start` callbacks at the current time. Called
    /// implicitly by the run methods on first use.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.processes.len() {
            self.push(self.now, EventKind::Start(ProcessId(i)));
        }
    }

    /// Applies the actions a handler produced.
    fn flush_actions(&mut self, origin: ProcessId, actions: Vec<Action<P::Message>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let kind = msg.kind();
                    self.metrics
                        .record_send(kind, msg.wire_size(), to == origin);
                    if let Some(d) =
                        self.network
                            .duplicate_delay(origin, to, self.now, &mut self.rng)
                    {
                        let at = self.now + d;
                        self.push(
                            at,
                            EventKind::Deliver {
                                to,
                                from: origin,
                                msg: msg.clone(),
                            },
                        );
                    }
                    match self.network.delay(origin, to, self.now, &mut self.rng) {
                        Some(d) => {
                            let at = self.now + d;
                            self.push(
                                at,
                                EventKind::Deliver {
                                    to,
                                    from: origin,
                                    msg,
                                },
                            );
                        }
                        None => self.metrics.record_drop(kind),
                    }
                }
                Action::SetTimer { delay, token } => {
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Timer {
                            process: origin,
                            token,
                        },
                    );
                }
                Action::Halt => {
                    self.alive[origin.index()] = false;
                }
            }
        }
    }

    /// Processes the next event. Returns `false` if the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "events must not travel backwards");
        self.now = at;
        self.events_processed += 1;

        match kind {
            EventKind::Start(pid) => {
                if self.alive[pid.index()] {
                    let mut ctx = Context::new(pid, self.now, &mut self.rng);
                    self.processes[pid.index()].on_start(&mut ctx);
                    let actions = std::mem::take(&mut ctx.actions);
                    self.flush_actions(pid, actions);
                }
            }
            EventKind::Deliver { to, from, msg } => {
                if self.alive[to.index()] {
                    self.metrics.record_delivery(msg.kind());
                    let mut ctx = Context::new(to, self.now, &mut self.rng);
                    self.processes[to.index()].on_message(from, msg, &mut ctx);
                    let actions = std::mem::take(&mut ctx.actions);
                    self.flush_actions(to, actions);
                } else {
                    self.metrics.record_drop(msg.kind());
                }
            }
            EventKind::Timer { process, token } => {
                if self.alive[process.index()] {
                    let mut ctx = Context::new(process, self.now, &mut self.rng);
                    self.processes[process.index()].on_timer(token, &mut ctx);
                    let actions = std::mem::take(&mut ctx.actions);
                    self.flush_actions(process, actions);
                }
            }
        }
        true
    }

    /// Runs until the queue drains or `max_events` have been processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> RunOutcome {
        for _ in 0..max_events {
            if !self.step() {
                return RunOutcome::Quiescent;
            }
        }
        if self.queue.is_empty() {
            RunOutcome::Quiescent
        } else {
            RunOutcome::BudgetExhausted
        }
    }

    /// Runs until virtual time reaches `horizon`, the queue drains, or
    /// `max_events` have been processed.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        self.ensure_started();
        for _ in 0..max_events {
            match self.queue.peek() {
                None => return RunOutcome::Quiescent,
                Some(Reverse(next)) if next.at > horizon => {
                    self.now = horizon;
                    return RunOutcome::HorizonReached;
                }
                Some(_) => {
                    self.step();
                }
            }
        }
        RunOutcome::BudgetExhausted
    }

    /// Runs until `condition` holds (checked after every event), the queue
    /// drains, or `max_events` have been processed.
    pub fn run_until_condition<F>(&mut self, mut condition: F, max_events: u64) -> RunOutcome
    where
        F: FnMut(&Self) -> bool,
    {
        self.ensure_started();
        if condition(self) {
            return RunOutcome::ConditionMet;
        }
        for _ in 0..max_events {
            if !self.step() {
                return RunOutcome::Quiescent;
            }
            if condition(self) {
                return RunOutcome::ConditionMet;
            }
        }
        RunOutcome::BudgetExhausted
    }
}

impl<P: Process> fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("processes", &self.processes.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{Fixed, Lossy, PartialSynchrony};
    use crate::metrics::KindStats;
    use crate::time::SimDuration;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
    }

    impl Measurable for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "Ping",
                Msg::Pong(_) => "Pong",
            }
        }
        fn wire_size(&self) -> usize {
            9
        }
    }

    /// p0 pings p1 `rounds` times; p1 pongs back.
    struct PingPong {
        rounds_left: u64,
        pongs_seen: u64,
        last_timer: Option<TimerToken>,
    }

    impl PingPong {
        fn new(rounds: u64) -> Self {
            PingPong {
                rounds_left: rounds,
                pongs_seen: 0,
                last_timer: None,
            }
        }
    }

    impl Process for PingPong {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.id() == ProcessId(0) && self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.send(ProcessId(1), Msg::Ping(0));
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping(k) => ctx.send(from, Msg::Pong(k)),
                Msg::Pong(k) => {
                    self.pongs_seen += 1;
                    if self.rounds_left > 0 {
                        self.rounds_left -= 1;
                        ctx.send(ProcessId(1), Msg::Ping(k + 1));
                    }
                }
            }
        }

        fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, Msg>) {
            self.last_timer = Some(token);
        }
    }

    fn two_process_sim(seed: u64) -> Simulation<PingPong> {
        let mut sim = Simulation::new(Fixed(SimDuration::from_ticks(5)), seed);
        sim.add_process(PingPong::new(3));
        sim.add_process(PingPong::new(0));
        sim
    }

    /// What the processes of the order property record, shared among
    /// them. `made` numbers every send and timer in the order the handlers
    /// make them, which is the order the simulator queues them in: the
    /// handlers run one at a time, and each one's actions are queued in
    /// order as it returns.
    #[derive(Default)]
    struct Trace {
        made: u64,
        /// `(time, number)` of every delivery and timer, as handled.
        handled: Vec<(SimTime, u64)>,
    }

    /// Sends one message to each process in the next mask of its plan on
    /// start and on every delivery while the plan lasts, and sets one
    /// far-off timer on start.
    struct Gossip {
        trace: Rc<RefCell<Trace>>,
        plan: Vec<u8>,
        timer_at: u64,
    }

    impl Gossip {
        fn number(&self) -> u64 {
            let mut trace = self.trace.borrow_mut();
            trace.made += 1;
            trace.made - 1
        }

        fn gossip(&mut self, ctx: &mut Context<'_, Msg>) {
            let Some(mask) = self.plan.pop() else { return };
            for to in 0..8 {
                if mask & (1 << to) != 0 {
                    ctx.send(ProcessId(to), Msg::Ping(self.number()));
                }
            }
        }
    }

    impl Process for Gossip {
        type Message = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let token = TimerToken(self.number());
            ctx.set_timer(SimDuration::from_ticks(self.timer_at), token);
            self.gossip(ctx);
        }
        fn on_message(&mut self, _: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            let (Msg::Ping(number) | Msg::Pong(number)) = msg;
            self.trace.borrow_mut().handled.push((ctx.now(), number));
            self.gossip(ctx);
        }
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
            self.trace.borrow_mut().handled.push((ctx.now(), token.0));
        }
    }

    fn gossip_sim(
        plans: &[Vec<u8>],
        timers: &[u64],
        seed: u64,
    ) -> (Simulation<Gossip>, Rc<RefCell<Trace>>) {
        let trace = Rc::new(RefCell::new(Trace::default()));
        let delays =
            PartialSynchrony::synchronous(SimDuration::from_ticks(1), SimDuration::from_ticks(20));
        let mut sim = Simulation::new(delays, seed);
        for (plan, &timer_at) in plans.iter().zip(timers) {
            let n = plans.len();
            sim.add_process(Gossip {
                trace: Rc::clone(&trace),
                plan: plan
                    .iter()
                    .map(|mask| mask & ((1 << n) - 1) as u8)
                    .collect(),
                timer_at,
            });
        }
        (sim, trace)
    }

    proptest! {
        /// Random gossip under uniform delays (ties in delivery time are
        /// common), beside far-off timers: every send and timer is handled
        /// once, in `(time, queue order)` order; and a run stopped at a
        /// horizon has handled exactly the events up to it, and then
        /// finishes as the uninterrupted run does.
        #[test]
        fn events_are_handled_in_time_then_queue_order(
            plans in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 2..6),
            timers in proptest::collection::vec(500u64..503, 5..6),
            seed in any::<u64>(),
            horizon in 0u64..120,
        ) {
            let (mut sim, trace) = gossip_sim(&plans, &timers, seed);
            prop_assert_eq!(sim.run_to_quiescence(100_000), RunOutcome::Quiescent);
            let full = std::mem::take(&mut trace.borrow_mut().handled);
            let mut sorted = full.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&full, &sorted);
            let mut numbers: Vec<u64> = full.iter().map(|&(_, number)| number).collect();
            numbers.sort_unstable();
            let made: Vec<u64> = (0..trace.borrow().made).collect();
            prop_assert_eq!(numbers, made);

            let (mut stopped, trace) = gossip_sim(&plans, &timers, seed);
            let horizon = SimTime::from_ticks(horizon);
            prop_assert_eq!(stopped.run_until(horizon, 100_000), RunOutcome::HorizonReached);
            prop_assert_eq!(stopped.now(), horizon);
            let upto: Vec<(SimTime, u64)> =
                full.iter().copied().take_while(|&(at, _)| at <= horizon).collect();
            prop_assert_eq!(&trace.borrow().handled, &upto);
            prop_assert_eq!(stopped.run_to_quiescence(100_000), RunOutcome::Quiescent);
            prop_assert_eq!(&trace.borrow().handled, &full);
        }
    }

    #[test]
    fn ping_pong_completes() {
        let mut sim = two_process_sim(1);
        assert_eq!(sim.run_to_quiescence(1000), RunOutcome::Quiescent);
        assert_eq!(sim.process(ProcessId(0)).pongs_seen, 3);
        // 3 pings + 3 pongs, 5 ticks each leg.
        assert_eq!(sim.now(), SimTime::from_ticks(30));
        assert_eq!(sim.metrics().kind("Ping").sent, 3);
        assert_eq!(sim.metrics().kind("Pong").delivered, 3);
        assert_eq!(sim.metrics().total_bytes(), 6 * 9);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = Simulation::new(
                PartialSynchrony::synchronous(
                    SimDuration::from_ticks(1),
                    SimDuration::from_ticks(100),
                ),
                99,
            );
            sim.add_process(PingPong::new(5));
            sim.add_process(PingPong::new(0));
            sim.run_to_quiescence(1000);
            let kinds: Vec<(&str, KindStats)> =
                sim.metrics().iter().map(|(k, s)| (k, *s)).collect();
            (sim.now(), sim.events_processed(), kinds)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_may_differ_with_random_delays() {
        let make = |seed| {
            let mut sim = Simulation::new(
                PartialSynchrony::synchronous(
                    SimDuration::from_ticks(1),
                    SimDuration::from_ticks(100),
                ),
                seed,
            );
            sim.add_process(PingPong::new(5));
            sim.add_process(PingPong::new(0));
            sim.run_to_quiescence(1000);
            sim.now()
        };
        // Not guaranteed in general, but with this range collisions are
        // vanishingly unlikely; treat as a smoke test for seed plumbing.
        assert_ne!(make(1), make(2));
    }

    #[test]
    fn crash_stops_delivery() {
        let mut sim = two_process_sim(7);
        sim.crash(ProcessId(1));
        sim.run_to_quiescence(1000);
        assert_eq!(sim.process(ProcessId(0)).pongs_seen, 0);
        assert_eq!(sim.metrics().kind("Ping").dropped, 1);
        assert!(!sim.is_alive(ProcessId(1)));
    }

    #[test]
    fn lossy_network_drops_everything() {
        let mut sim: Simulation<PingPong> =
            Simulation::new(Lossy::new(Fixed(SimDuration::from_ticks(1)), 1.0, 0.0), 3);
        sim.add_process(PingPong::new(3));
        sim.add_process(PingPong::new(0));
        sim.run_to_quiescence(1000);
        assert_eq!(sim.metrics().kind("Ping").dropped, 1);
        assert_eq!(sim.metrics().total_delivered(), 0);
    }

    #[test]
    fn run_until_horizon_stops_early() {
        let mut sim = two_process_sim(1);
        let outcome = sim.run_until(SimTime::from_ticks(7), 1000);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.now(), SimTime::from_ticks(7));
        // Only the first ping (t=5) has been delivered.
        assert_eq!(sim.metrics().kind("Ping").delivered, 1);
        assert_eq!(sim.metrics().kind("Pong").delivered, 0);
    }

    #[test]
    fn a_message_sent_from_outside_is_delivered_and_counted_as_the_senders() {
        let mut sim = two_process_sim(1);
        sim.run_until(SimTime::from_ticks(7), 1000);
        sim.process_mut(ProcessId(0)).rounds_left = 0;
        sim.send_from(ProcessId(1), ProcessId(0), Msg::Pong(9));
        sim.run_to_quiescence(1000);
        // The injected pong arrives at p0 beside the pong to its own ping,
        // and with no rounds left p0 pings no more.
        assert_eq!(sim.process(ProcessId(0)).pongs_seen, 2);
        assert_eq!(sim.metrics().kind("Pong").sent, 2);
        assert_eq!(sim.metrics().kind("Ping").sent, 1);
    }

    #[test]
    fn run_until_condition() {
        let mut sim = two_process_sim(1);
        let outcome = sim.run_until_condition(|s| s.process(ProcessId(0)).pongs_seen >= 2, 1000);
        assert_eq!(outcome, RunOutcome::ConditionMet);
        assert_eq!(sim.process(ProcessId(0)).pongs_seen, 2);
    }

    #[test]
    fn budget_exhaustion_detected() {
        /// Two processes that ping each other forever.
        struct Forever;
        impl Process for Forever {
            type Message = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(ProcessId(1 - ctx.id().index()), Msg::Ping(0));
            }
            fn on_message(&mut self, from: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.send(from, Msg::Ping(0));
            }
            fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, Msg>) {}
        }
        let mut sim: Simulation<Forever> = Simulation::new(Fixed(SimDuration::from_ticks(1)), 0);
        sim.add_process(Forever);
        sim.add_process(Forever);
        assert_eq!(sim.run_to_quiescence(100), RunOutcome::BudgetExhausted);
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProc {
            fired: Vec<u64>,
        }
        impl Process for TimerProc {
            type Message = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_ticks(30), TimerToken(3));
                ctx.set_timer(SimDuration::from_ticks(10), TimerToken(1));
                ctx.set_timer(SimDuration::from_ticks(20), TimerToken(2));
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, Msg>) {
                self.fired.push(token.0);
            }
        }
        let mut sim = Simulation::new(Fixed(SimDuration::ZERO), 0);
        sim.add_process(TimerProc { fired: vec![] });
        sim.run_to_quiescence(100);
        assert_eq!(sim.process(ProcessId(0)).fired, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_ticks(30));
    }

    #[test]
    fn halt_action_stops_process() {
        struct Halter {
            got: u64,
        }
        impl Process for Halter {
            type Message = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if ctx.id() == ProcessId(0) {
                    ctx.send(ProcessId(1), Msg::Ping(1));
                    ctx.send(ProcessId(1), Msg::Ping(2));
                }
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                self.got += 1;
                ctx.halt();
            }
            fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, Msg>) {}
        }
        let mut sim = Simulation::new(Fixed(SimDuration::from_ticks(1)), 0);
        sim.add_process(Halter { got: 0 });
        sim.add_process(Halter { got: 0 });
        sim.run_to_quiescence(100);
        // Second ping arrives after the halt and is dropped.
        assert_eq!(sim.process(ProcessId(1)).got, 1);
        assert_eq!(sim.metrics().kind("Ping").dropped, 1);
    }

    #[test]
    fn duplicating_network_delivers_copies() {
        struct Counter {
            got: u64,
        }
        impl Process for Counter {
            type Message = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                if ctx.id() == ProcessId(0) {
                    ctx.send(ProcessId(1), Msg::Ping(0));
                }
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {
                self.got += 1;
            }
            fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, Msg>) {}
        }
        let mut sim = Simulation::new(Lossy::new(Fixed(SimDuration::from_ticks(1)), 0.0, 1.0), 0);
        sim.add_process(Counter { got: 0 });
        sim.add_process(Counter { got: 0 });
        sim.run_to_quiescence(100);
        assert_eq!(
            sim.process(ProcessId(1)).got,
            2,
            "dup_prob = 1.0 must deliver exactly one extra copy"
        );
        // The duplicate is a network artifact, not an application send.
        assert_eq!(sim.metrics().kind("Ping").sent, 1);
    }

    #[test]
    #[should_panic(expected = "cannot add processes after start")]
    fn add_after_start_panics() {
        let mut sim = two_process_sim(1);
        sim.step();
        sim.add_process(PingPong::new(1));
    }

    #[test]
    fn self_messages_are_counted_separately() {
        struct SelfSender {
            received: bool,
        }
        impl Process for SelfSender {
            type Message = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let me = ctx.id();
                ctx.send(me, Msg::Ping(0));
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {
                self.received = true;
            }
            fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, Msg>) {}
        }
        let mut sim = Simulation::new(Fixed(SimDuration::from_ticks(1)), 0);
        sim.add_process(SelfSender { received: false });
        sim.run_to_quiescence(10);
        assert!(sim.process(ProcessId(0)).received);
        assert_eq!(sim.metrics().kind("Ping").self_addressed, 1);
        assert_eq!(sim.metrics().total_sent(), 1);
        assert_eq!(sim.metrics().total_sent_excluding_self(), 0);
    }
}
