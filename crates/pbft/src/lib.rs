//! # probft-pbft
//!
//! Single-shot PBFT (Castro–Liskov, in the single-shot consensus
//! formulation of Bravo et al. used by the ProBFT paper, §2.3) — the
//! primary baseline ProBFT is measured against.
//!
//! The same Propose → Prepare → Commit state machine as ProBFT — core's
//! `ReplicaOf`, instantiated over this crate's vote — under another vote
//! policy (`impl CertVote for VoteBody`):
//!
//! - Prepare/Commit votes are **broadcast to all n replicas** — `O(n²)`
//!   messages per view (Figure 1b's top curve);
//! - progress needs a **deterministic quorum** of `⌈(n+f+1)/2⌉` matching
//!   votes, so any two quorums intersect in a correct replica and safety is
//!   certain, not probabilistic.
//!
//! # Examples
//!
//! ```
//! use probft_pbft::PbftInstanceBuilder;
//!
//! let outcome = PbftInstanceBuilder::new(7).seed(1).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! ```

#![warn(missing_docs)]

pub mod byzantine;
pub mod harness;
pub mod message;
pub mod replica;

pub use byzantine::{PbftByzantine, PbftStrategy};
pub use harness::{PbftInstanceBuilder, PbftOutcome};
pub use message::{PbftMessage, PbftNewLeader, PbftPropose, Vote, VoteBody, VotePhase};
pub use replica::PbftReplica;
