//! PBFT as the shared single-shot harness sees it: the one generic
//! `probft_core::harness::Instance` over PBFT's vote, which — like every
//! vote policy — is a harness `Protocol` with core's Byzantine replica.

use crate::message::VoteBody;
use probft_core::harness::{Instance, InstanceOutcome};

/// Builds and runs a single-shot PBFT instance.
pub type PbftInstanceBuilder = Instance<VoteBody>;
/// Result of a PBFT run.
pub type PbftOutcome = InstanceOutcome;
