//! HotStuff as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance` over [`HsPhases`], the harness
//! `Protocol` whose Byzantine replica is its strategy.

use crate::message::HsMessage;
use crate::replica::HsPhases;
use probft_core::harness::{Instance, InstanceOutcome, Protocol, Seat};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builds and runs a single-shot HotStuff instance.
pub type HsInstanceBuilder = Instance<HsPhases>;
/// Result of a HotStuff run.
pub type HsOutcome = InstanceOutcome;

impl Protocol for HsPhases {
    type Phases = HsPhases;
    type Strategy = HsStrategy;
    type Byzantine = HsStrategy;
    // Deterministic quorums: nothing is sampled.
    const QUORUM_PARAMS: (f64, f64) = (1.0, 1.0);

    fn byzantine(_: Seat, _: Arc<BTreeSet<ReplicaId>>, strategy: HsStrategy) -> HsStrategy {
        strategy
    }
}

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

    fn on_start(&mut self, ctx: &mut Context<HsMessage>) {
        if *self == HsStrategy::Crash {
            ctx.halt();
        }
    }
    fn on_message(&mut self, _f: ProcessId, _m: HsMessage, _c: &mut Context<HsMessage>) {}
    fn on_timer(&mut self, _t: TimerToken, _c: &mut Context<HsMessage>) {}
}
