//! # probft-smr
//!
//! State-machine replication on top of ProBFT — the extension the paper
//! names as future work (§7: "leveraging ProBFT for constructing a scalable
//! state machine replication protocol").
//!
//! The replicated service is *generic*: consensus orders opaque operations
//! of any [`StateMachine`] (`type Op`, `type Response`,
//! `fn apply(&mut self, op) -> Response`), and the typed response of every
//! applied operation flows back to the submitting client. One ProBFT
//! instance runs per log slot, as a *pipelined, batched* throughput
//! engine: each decided value carries a [`Batch`] of [`Entry`]s, and up to
//! `pipeline_depth` slots run consensus concurrently with out-of-order
//! decisions buffered and applied in slot order. The composition drives
//! the *unmodified* single-shot replica through the simulator's embedding
//! API, so consensus-level guarantees carry over: with probability
//! `1 − exp(−Θ(√n))` per slot, all replicas append the same batch — and a
//! pipelined run produces the identical log and state as a sequential one.
//!
//! Reads are first-class, at three [`Consistency`] tiers: `Local` (any
//! replica, stale-allowed), `Leader` (leader-local, monotonic), and
//! `Linearizable` (ordered through the log as a no-op write). The
//! reference machine is the [`KvStore`]; anything wire-codable replicates
//! the same way.
//!
//! Memory is bounded PBFT-style (§4.3 of Castro–Liskov): with a
//! [`checkpoint_interval`](SmrSettings::checkpoint_interval) set, nodes
//! periodically snapshot their state (reply cache included), exchange
//! signed [`CheckpointVote`]s, and — once a quorum attests the same
//! digest — truncate the command log below the *stable* checkpoint.
//! Laggards past the buffering horizon catch up by verified snapshot
//! transfer ([`StateRequest`]/[`StateReply`]) instead of log replay.
//!
//! # Examples
//!
//! ```
//! use probft_quorum::ReplicaId;
//! use probft_smr::{Command, SmrBuilder};
//!
//! let outcome = SmrBuilder::new(7, 2)
//!     .pipeline_depth(2)
//!     .batch_size(2)
//!     .workload(ReplicaId(0), vec![
//!         Command::Put { key: "x".into(), value: "1".into() },
//!         Command::Put { key: "y".into(), value: "2".into() },
//!     ])
//!     .run();
//! assert!(outcome.logs_consistent());
//! assert!(outcome.states_consistent());
//! assert_eq!(outcome.logs[0].len(), 2);
//! assert!(outcome.throughput.commands_per_megatick() > 0.0);
//! ```

#![warn(missing_docs)]
// The repo's panic-, swallow- and truncation-freedom rules (L001, L009,
// L008's casts), stated by the tools that see types — DESIGN.md, "Who
// checks what". Inert under plain rustc; `cargo clippy -- -D warnings` is
// the gate, and a deliberate site carries `#[expect(.., reason = "…")]`,
// which clippy rejects once the site stops needing it.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        unused_must_use,
        clippy::cast_possible_truncation
    )
)]

pub mod checkpoint;
pub mod harness;
pub mod kv;
pub mod machine;
pub mod node;

pub use checkpoint::{
    CheckpointBody, CheckpointVote, Snapshot, StateReply, StateRequest,
    MAX_TRACKED_CHECKPOINT_SLOTS,
};
pub use harness::{SmrBuilder, SmrOutcome, ThroughputStats};
pub use kv::{Command, KvResponse, KvStore};
pub use machine::{Batch, Consistency, Entry, OpKind, RequestId, StateMachine, MAX_BATCH};
pub use node::{
    AppliedRequest, SlotMessage, SmrMessage, SmrNode, SmrSettings, FALLBACK_FUTURE_WINDOW_DEPTHS,
    FALLBACK_MIN_FUTURE_WINDOW, FUTURE_WINDOW_DEPTHS, MAX_BUFFERED_PER_SLOT, MIN_FUTURE_WINDOW,
};
