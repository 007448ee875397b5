//! The process abstraction: event handlers plus an action-collecting context.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifies a process (replica) within a simulation, indexed from zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// An opaque caller-chosen tag carried by a timer back to its process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerToken(pub u64);

/// A simulated process: a deterministic state machine driven by events.
///
/// Implementations must be deterministic given the event sequence: a
/// process draws no randomness from its context (an honest replica's only
/// randomness is its VRF), so the simulator's run seed, which fixes the
/// delays, replays the identical execution.
pub trait Process {
    /// The message type exchanged over the simulated network.
    type Message;

    /// Invoked once, before any message, at the process's start time.
    fn on_start(&mut self, ctx: &mut Context<Self::Message>);

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: ProcessId, msg: Self::Message, ctx: &mut Context<Self::Message>);

    /// Invoked when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<Self::Message>);
}

/// An outbound action recorded by a process during one handler invocation.
///
/// Public so that *embedding* runtimes — the multi-instance SMR layer and
/// the real-clock TCP runtime — can drive the same process implementations
/// outside the simulator: build a [`Context::detached`], invoke a handler,
/// then [`Context::drain_actions`] and interpret the actions natively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Send `msg` to `to`.
    Send {
        /// Recipient.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Schedule `token` to fire after `delay`.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Caller-chosen tag.
        token: TimerToken,
    },
    /// Permanently halt the process.
    Halt,
}

/// Handler-scoped view of the simulation: identity, clock, and an action
/// sink for sends and timers.
///
/// Actions take effect when the handler returns; the network model assigns
/// delivery times at that point.
pub struct Context<M> {
    id: ProcessId,
    now: SimTime,
    actions: Vec<Action<M>>,
}

impl<M> Context<M> {
    /// Creates a context for one handler invocation of process `id` at `now`.
    ///
    /// The [`Simulation`](crate::sim::Simulation) builds one per event;
    /// embedding runtimes (the SMR composition layer, the TCP runtime) use
    /// it to invoke [`Process`] handlers directly and then interpret the
    /// recorded actions via [`drain_actions`](Self::drain_actions).
    pub fn detached(id: ProcessId, now: SimTime) -> Self {
        Context {
            id,
            now,
            actions: Vec::new(),
        }
    }

    /// Removes and returns the actions recorded so far.
    pub fn drain_actions(&mut self) -> Vec<Action<M>> {
        std::mem::take(&mut self.actions)
    }

    /// This process's own identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. Delivery time is chosen by the network model.
    ///
    /// Sending to oneself is permitted (VRF samples may include the sender);
    /// self-messages traverse the same queue with the same delay model so
    /// that message counting stays uniform.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Sends a clone of `msg` to every recipient in `to`.
    pub fn multicast<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = ProcessId>,
        M: Clone,
    {
        for dest in to {
            self.send(dest, msg.clone());
        }
    }

    /// Schedules `token` to fire after `delay`.
    ///
    /// Timers cannot be cancelled; processes ignore stale tokens instead
    /// (the conventional pattern in view-based protocols, where a token
    /// embeds the view it belongs to).
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Permanently halts this process: no further events are delivered.
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }
}

impl<M> fmt::Debug for Context<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("id", &self.id)
            .field("now", &self.now)
            .field("pending_actions", &self.actions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_actions() {
        let mut ctx: Context<u32> = Context::detached(ProcessId(0), SimTime::ZERO);
        ctx.send(ProcessId(1), 42);
        ctx.multicast([ProcessId(2), ProcessId(3)], 7);
        ctx.set_timer(SimDuration::from_ticks(10), TimerToken(99));
        ctx.halt();
        assert_eq!(ctx.actions.len(), 5);
        assert_eq!(ctx.id(), ProcessId(0));
        assert_eq!(ctx.now(), SimTime::ZERO);
    }

    #[test]
    fn process_id_display() {
        assert_eq!(format!("{:?}", ProcessId(3)), "p3");
        assert_eq!(ProcessId::from(5).index(), 5);
    }
}
