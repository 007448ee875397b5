//! # probft-runtime
//!
//! A real-clock, real-network deployment substrate for ProBFT: one event
//! loop thread per replica, fed by an accept thread and one reader thread
//! per inbound connection (so about n² threads in an n-replica cluster),
//! TCP links with length-prefixed framing, and a deadline-driven timer
//! loop. The same unmodified [`Replica`] state
//! machine that runs in the deterministic simulator runs here, driven
//! through the simulator's embedding API ([`Context::detached`] +
//! [`Context::drain_actions`]) — the runtime only interprets the resulting
//! actions against sockets and the wall clock.
//!
//! There is one replica host — peer sockets and connect policy, timer
//! heap, action applier, [`NetPolicy`] fault rules, accept loop and reader
//! loop, all counting into the replica's `probft-obs` registry — generic
//! over the hosted [`Process`]'s message type, and it has two
//! instantiations that differ only in their frame codec.
//! [`ClusterBuilder`] hosts one [`Replica`] per thread and runs a single
//! consensus instance to decision. [`LiveSmrBuilder`] hosts an `SmrNode`
//! and adds the client side: full state-machine replication of any
//! [`StateMachine`](probft_smr::StateMachine) — pipelined, batched, served
//! to a real client front-end ([`SmrClient`]) with typed responses, leader
//! routing, address-carrying redirects, retries, at-most-once execution of
//! retried request ids, and a three-tier read path (`Local` / `Leader`
//! reads bypass consensus; `Linearizable` reads are ordered through the
//! log). With a checkpoint interval set, replicas exchange signed
//! checkpoint attestations, truncate their logs behind stable checkpoints,
//! and bring laggards back by snapshot state transfer over dedicated wire
//! frames; `LiveSmrCluster::pause`/`resume` provide crash/partition fault
//! injection for exercising exactly that.
//!
//! [`Replica`]: probft_core::replica::Replica
//! [`Process`]: probft_simnet::process::Process
//! [`Context::detached`]: probft_simnet::process::Context::detached
//! [`Context::drain_actions`]: probft_simnet::process::Context::drain_actions
//!
//! `tokio` is not available in this offline build environment (see
//! DESIGN.md, "Substitutions"); the thread-per-connection design over
//! `std::net` provides equivalent message-passing semantics for
//! laptop-scale clusters, which is all the paper's evaluation needs.
//!
//! Virtual-time convention: one simulator tick = one microsecond of wall
//! time (so the default 50 ms base view timeout carries over sensibly).
//!
//! # Examples
//!
//! ```no_run
//! use probft_runtime::ClusterBuilder;
//!
//! // Run a 5-replica ProBFT cluster over localhost TCP. Each replica
//! // binds an OS-assigned loopback port, so runs never collide.
//! let decisions = ClusterBuilder::new(5).run().unwrap();
//! assert_eq!(decisions.len(), 5);
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

pub mod client;
pub mod cluster;
pub(crate) mod host;
pub mod live;
pub mod nemesis;
pub(crate) mod pacing;
pub mod transport;

pub use client::{ClientError, SmrClient};
pub use cluster::{ClusterBuilder, ClusterError};
pub use live::{
    LinkDecision, LinkRule, LiveSmrBuilder, LiveSmrCluster, NetPolicy, ReplicaReport, SmrFrame,
    SmrReply,
};
pub use nemesis::{execute, verify_exactly_once, verify_invariants, Fault, FaultPlan, NemesisRun};
pub use transport::{read_frame, write_frame, FrameError};
