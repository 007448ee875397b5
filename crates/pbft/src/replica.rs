//! The single-shot PBFT replica (paper §2.3, Figure 2): core's
//! Propose → Prepare → Commit state machine under PBFT's vote policy.
//!
//! What makes it PBFT is [`VoteBody`]'s `CertVote` impl: Prepare/Commit
//! votes are **broadcast to all** replicas, and progress requires a
//! **deterministic quorum** `⌈(n+f+1)/2⌉` of matching votes. Because any
//! two such quorums intersect in a correct replica, safety is
//! deterministic — the property ProBFT deliberately relaxes.

use crate::message::VoteBody;
use probft_core::replica::ReplicaOf;

/// A single-shot PBFT replica.
pub type PbftReplica = ReplicaOf<VoteBody>;
