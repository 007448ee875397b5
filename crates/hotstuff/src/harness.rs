//! HotStuff as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance`, instantiated for [`HsReplica`].

use crate::message::HsMessage;
use crate::replica::HsReplica;
use probft_core::harness::{Instance, InstanceOutcome};
use probft_simnet::process::{Context, Process, ProcessId, TimerToken};

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
