//! HotStuff as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance`, instantiated for [`HsReplica`].

use crate::message::HsMessage;
use crate::replica::HsReplica;
use probft_core::config::View;
use probft_core::harness::{Instance, InstanceOutcome, Protocol, Seat};
use probft_core::replica::{Decision, ReplicaStats};
use probft_core::value::Value;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builds and runs a single-shot HotStuff instance.
pub type HsInstanceBuilder = Instance<HsReplica>;
/// Result of a HotStuff run.
pub type HsOutcome = InstanceOutcome;

/// Byzantine behaviours for the HotStuff baseline (crash/silent only;
/// HotStuff's QC rules make equivocation experiments a ProBFT/PBFT
/// concern). A strategy is its own Byzantine replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HsStrategy {
    /// Halts immediately.
    Crash,
    /// Stays alive but silent.
    Silent,
}

impl Process for HsStrategy {
    type Message = HsMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, HsMessage>) {
        if *self == HsStrategy::Crash {
            ctx.halt();
        }
    }
    fn on_message(&mut self, _f: ProcessId, _m: HsMessage, _c: &mut Context<'_, HsMessage>) {}
    fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<'_, HsMessage>) {}
}

impl Protocol for HsReplica {
    type Strategy = HsStrategy;
    type Byzantine = HsStrategy;
    // Deterministic quorums: nothing is sampled.
    const QUORUM_PARAMS: (f64, f64) = (1.0, 1.0);

    fn honest(seat: Seat, value: Value) -> Self {
        HsReplica::new(seat.cfg, seat.id, seat.sk, seat.keys, value)
    }
    fn byzantine(_: Seat, _: Arc<BTreeSet<ReplicaId>>, strategy: HsStrategy) -> HsStrategy {
        strategy
    }
    fn decision(&self) -> Option<&Decision> {
        HsReplica::decision(self)
    }
    fn stats(&self) -> &ReplicaStats {
        HsReplica::stats(self)
    }
    fn current_view(&self) -> View {
        HsReplica::current_view(self)
    }
    fn has_conflicting_decision(&self) -> bool {
        HsReplica::has_conflicting_decision(self)
    }
}
