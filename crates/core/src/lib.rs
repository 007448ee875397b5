//! # probft-core
//!
//! ProBFT — **Pro**babilistic **B**yzantine **F**ault **T**olerance — the
//! leader-based probabilistic consensus protocol of Avelãs, Heydari,
//! Alchieri, Distler & Bessani (PODC 2024).
//!
//! ProBFT keeps PBFT's three-step good-case latency but replaces
//! deterministic quorums with *probabilistic* ones: a replica advances on
//! `q = ⌈l·√n⌉` matching messages, and each replica multicasts its Prepare
//! and Commit messages to a VRF-selected random sample of `s = ⌈o·q⌉` peers
//! instead of broadcasting. Message complexity drops from `O(n²)` to
//! `O(n·√n)` while safety and liveness hold with probability
//! `1 − exp(−Θ(√n))`.
//!
//! ## Crate layout
//!
//! - [`config`] — protocol parameters (`n`, `f`, `l`, `o`) and view math.
//! - [`value`] — opaque proposal values + application validity predicate.
//! - [`message`] — the five signed message bodies and the `Message` enum.
//! - [`signed`] — the one signed envelope every body travels in.
//! - [`predicates`] — `prepared`, `validNewLeader`, `safeProposal`.
//! - [`sampling`] — VRF seeds (`v ‖ phase`) and sample derivation.
//! - [`synchronizer`] — wish-based view synchronizer (Bravo et al. style).
//! - [`shell`] — the view shell every replica runs in, in two halves: the
//!   view (synchronizer, timer, wishes) and the instance (future-view
//!   buffer, decision latch, phases), plus the single-shot `Process` impl
//!   that is one of each.
//! - [`replica`] — the honest replica (Algorithm 1, line for line), generic
//!   over the vote policy so the PBFT baseline is an instantiation of it.
//! - [`byzantine`] — adversary strategies incl. the optimal split attack.
//! - [`harness`] — one-call experiment runner, shared with the PBFT and
//!   HotStuff baselines.
//! - [`wire`] — the hand-rolled binary codec.
//!
//! ## Quickstart
//!
//! ```
//! use probft_core::harness::InstanceBuilder;
//!
//! let outcome = InstanceBuilder::new(31).seed(7).run();
//! assert!(outcome.all_correct_decided());
//! assert!(outcome.agreement());
//! println!("decided in view {:?} with {} messages",
//!          outcome.decided_views(), outcome.metrics.total_sent());
//! ```

#![warn(missing_docs)]
// L008's narrowing-cast half, stated by clippy (DESIGN.md, "Who checks
// what").
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod byzantine;
pub mod config;
pub mod error;
pub mod harness;
pub mod message;
pub mod predicates;
pub mod replica;
pub mod sampling;
pub mod shell;
pub mod signed;
pub mod synchronizer;
pub mod value;
pub mod wire;

pub use byzantine::{ByzantineReplica, ByzantineStrategy};
pub use config::{ProbftConfig, SharedConfig, View};
pub use error::RejectReason;
pub use harness::{InstanceBuilder, InstanceOutcome};
pub use message::{Message, NewLeader, PhaseMessage, Propose, SignedProposal, VerifyCtx, Wish};
pub use replica::{Decision, Replica, ReplicaStats};
pub use signed::{Signed, SignedBody};
pub use value::{ValidityPredicate, Value};
