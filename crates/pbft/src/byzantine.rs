//! Byzantine strategies for the PBFT baseline: core's adversary, over
//! PBFT's votes.
//!
//! The Byzantine replica is generic over the vote like the honest one, so
//! PBFT's is `ByzantineReplica<VoteBody>` and it knows every strategy
//! ProBFT's does, the optimal split of Fig. 4c included. PBFT's
//! deterministic quorum intersection makes the split pointless (two
//! quorums of `⌈(n+f+1)/2⌉` share a correct replica, which votes for at
//! most one value per view) — the strategies exist to demonstrate exactly
//! that in tests.

use crate::message::VoteBody;
use probft_core::byzantine::{ByzantineReplica, ByzantineStrategy};

/// A Byzantine behaviour for a PBFT replica.
pub type PbftStrategy = ByzantineStrategy;

/// A Byzantine PBFT replica.
pub type PbftByzantine = ByzantineReplica<VoteBody>;
