//! PBFT as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance`, instantiated for [`PbftReplica`].

use crate::byzantine::{PbftByzantine, PbftStrategy};
use crate::replica::PbftReplica;
use probft_core::config::View;
use probft_core::harness::{Instance, InstanceOutcome, Protocol, Seat};
use probft_core::replica::{Decision, ReplicaStats};
use probft_core::value::Value;
use probft_quorum::ReplicaId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builds and runs a single-shot PBFT instance.
pub type PbftInstanceBuilder = Instance<PbftReplica>;
/// Result of a PBFT run.
pub type PbftOutcome = InstanceOutcome;

impl Protocol for PbftReplica {
    type Strategy = PbftStrategy;
    type Byzantine = PbftByzantine;
    // Deterministic quorums: nothing is sampled.
    const QUORUM_PARAMS: (f64, f64) = (1.0, 1.0);

    fn honest(seat: Seat, value: Value) -> Self {
        PbftReplica::new(seat.cfg, seat.id, seat.sk, seat.keys, value)
    }
    fn byzantine(seat: Seat, _: Arc<BTreeSet<ReplicaId>>, strategy: PbftStrategy) -> PbftByzantine {
        PbftByzantine::new(seat.cfg, seat.id, seat.sk, strategy)
    }
    fn decision(&self) -> Option<&Decision> {
        PbftReplica::decision(self)
    }
    fn stats(&self) -> &ReplicaStats {
        PbftReplica::stats(self)
    }
    fn current_view(&self) -> View {
        PbftReplica::current_view(self)
    }
    fn has_conflicting_decision(&self) -> bool {
        PbftReplica::has_conflicting_decision(self)
    }
}
