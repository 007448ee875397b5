//! Consensus-phase tracing: a bounded per-replica flight recorder.
//!
//! Every interesting transition in a replica's life — slots opening,
//! batches forming, decisions, applies, checkpoint votes, view changes,
//! overload sheds, and nemesis fault markers — is appended to a fixed-size
//! ring buffer of [`TraceEvent`]s. When the ring is full the oldest event
//! is evicted, so the journal always holds the *last* `capacity` events:
//! exactly what a post-mortem of a chaos run wants. Pushing takes a short
//! mutex (never held across I/O) and one enum copy, cheap enough to leave
//! on in benches.

use std::collections::VecDeque;
use std::fmt;
#[expect(
    clippy::disallowed_types,
    reason = "a push holds the guard for one ring-buffer insert; the journal never does I/O under it"
)]
use std::sync::Mutex;

/// Default number of events a journal retains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// One traced transition, stamped by its caller with its process
/// context's time (virtual in the simulator, µs since cluster boot on
/// sockets), so nemesis fault markers interleave with consensus events on
/// one clock and a simulated run's journal is fixed by its seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Context time of the transition, in microseconds (1 tick = 1 µs).
    pub at_micros: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// The kinds of transitions the flight recorder captures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A consensus slot opened (proposal underway) at the given view.
    SlotOpened {
        /// Slot index.
        slot: u64,
        /// View the slot opened in.
        view: u64,
    },
    /// A batch of entries was formed for proposal.
    BatchFormed {
        /// Slot the batch proposes into.
        slot: u64,
        /// Number of entries in the batch.
        entries: u64,
    },
    /// A slot reached a decision.
    SlotDecided {
        /// Slot index.
        slot: u64,
        /// View the decision was reached in.
        view: u64,
    },
    /// A decided slot was applied to the state machine.
    SlotApplied {
        /// Slot index.
        slot: u64,
        /// Number of entries applied.
        entries: u64,
    },
    /// This replica voted for a checkpoint at the given slot.
    CheckpointVote {
        /// Checkpoint slot.
        slot: u64,
    },
    /// A checkpoint became stable (quorum of votes) at the given slot.
    CheckpointStable {
        /// Checkpoint slot.
        slot: u64,
    },
    /// This replica requested a state transfer to catch up to `slot`.
    StateTransferStart {
        /// Stable slot being fetched.
        slot: u64,
    },
    /// A state transfer completed.
    StateTransferDone {
        /// Slot the snapshot restored to.
        slot: u64,
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
    /// The view timer expired in the given view: this replica now wishes
    /// for the next one.
    ViewTimeout {
        /// The view that timed out.
        view: u64,
    },
    /// The log's view moved: this replica entered `to_view`.
    ViewChange {
        /// Previous view.
        from_view: u64,
        /// New view.
        to_view: u64,
    },
    /// A client request was shed under overload.
    OverloadShed,
    /// A client was redirected to the current leader.
    RedirectServed {
        /// The leader the client was pointed at.
        leader: u64,
    },
    /// A nemesis fault started (kill, equivocate, spray, …).
    FaultStart {
        /// Human-readable fault description from the nemesis plan.
        fault: String,
    },
    /// A nemesis fault was lifted.
    FaultStop {
        /// Human-readable fault description from the nemesis plan.
        fault: String,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[+{:>10.3}ms] ", self.at_micros as f64 / 1000.0)?;
        match &self.kind {
            TraceKind::SlotOpened { slot, view } => {
                write!(f, "slot {slot} opened (view {view})")
            }
            TraceKind::BatchFormed { slot, entries } => {
                write!(f, "slot {slot} batch formed ({entries} entries)")
            }
            TraceKind::SlotDecided { slot, view } => {
                write!(f, "slot {slot} decided (view {view})")
            }
            TraceKind::SlotApplied { slot, entries } => {
                write!(f, "slot {slot} applied ({entries} entries)")
            }
            TraceKind::CheckpointVote { slot } => write!(f, "checkpoint vote @ slot {slot}"),
            TraceKind::CheckpointStable { slot } => {
                write!(f, "checkpoint stable @ slot {slot}")
            }
            TraceKind::StateTransferStart { slot } => {
                write!(f, "state transfer requested to slot {slot}")
            }
            TraceKind::StateTransferDone { slot, bytes } => {
                write!(f, "state transfer done to slot {slot} ({bytes} bytes)")
            }
            TraceKind::ViewTimeout { view } => write!(f, "view {view} timed out"),
            TraceKind::ViewChange { from_view, to_view } => {
                write!(f, "view change: view {from_view} -> {to_view}")
            }
            TraceKind::OverloadShed => write!(f, "request shed (overload)"),
            TraceKind::RedirectServed { leader } => {
                write!(f, "redirect served (leader {leader})")
            }
            TraceKind::FaultStart { fault } => write!(f, "FAULT START: {fault}"),
            TraceKind::FaultStop { fault } => write!(f, "FAULT STOP:  {fault}"),
        }
    }
}

/// A bounded ring buffer of [`TraceEvent`]s: the flight recorder.
#[expect(
    clippy::disallowed_types,
    reason = "a push holds the guard for one ring-buffer insert; the journal never does I/O under it"
)]
pub struct Journal {
    capacity: usize,
    inner: Mutex<VecDeque<TraceEvent>>,
}

impl Journal {
    /// Creates a journal retaining at most `capacity` events (minimum 1).
    #[expect(
        clippy::disallowed_types,
        reason = "a push holds the guard for one ring-buffer insert; the journal never does I/O under it"
    )]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an event, evicting the oldest if the ring is full. The
    /// ring is bounded right here at the push site.
    pub fn push(&self, at_micros: u64, kind: TraceKind) {
        let mut ring = self.inner.lock().expect("journal poisoned");
        while ring.len() >= self.capacity {
            let _ = ring.pop_front();
        }
        ring.push_back(TraceEvent { at_micros, kind });
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("journal poisoned").len()
    }

    /// True when no events have been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the retained events, oldest first. Writers are only blocked
    /// for the duration of the copy.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("journal poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_keeps_latest() {
        let j = Journal::new(3);
        for slot in 0..5u64 {
            j.push(slot, TraceKind::SlotDecided { slot, view: 0 });
        }
        let events: Vec<u64> = j.snapshot().iter().map(|e| e.at_micros).collect();
        assert_eq!(events, vec![2, 3, 4]);
        assert_eq!(j.len(), 3);
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn display_is_stable() {
        let e = TraceEvent {
            at_micros: 1500,
            kind: TraceKind::SlotDecided { slot: 7, view: 1 },
        };
        assert_eq!(e.to_string(), "[+     1.500ms] slot 7 decided (view 1)");
    }
}
