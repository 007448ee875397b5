//! PBFT as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance`, instantiated for [`PbftReplica`].

use crate::replica::PbftReplica;
use probft_core::harness::{Instance, InstanceOutcome};

/// Builds and runs a single-shot PBFT instance.
pub type PbftInstanceBuilder = Instance<PbftReplica>;
/// Result of a PBFT run.
pub type PbftOutcome = InstanceOutcome;
