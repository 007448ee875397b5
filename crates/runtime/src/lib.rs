//! # probft-runtime
//!
//! A real-clock, real-network deployment substrate for ProBFT: one thread
//! per replica, whose event loop accepts, reads and writes every socket
//! itself — non-blocking, told which are ready by epoll — over TCP links
//! with length-prefixed framing, between deadline-driven timers (so n
//! threads in an n-replica cluster). The same unmodified [`SmrNode`] that
//! runs in the deterministic simulator runs here, driven through the
//! simulator's embedding API ([`Context::detached`] +
//! [`Context::drain_actions`]) — the runtime only interprets the resulting
//! actions against sockets and the wall clock.
//!
//! There is one replica host — listener and connection slab, frame
//! assembly and outbound queues, one-try peer connects, timer heap and
//! action applier, all counting into the replica's `probft-obs` registry —
//! generic over the hosted [`Process`]'s message type and the events its
//! frame codec yields, and one instantiation of it: [`LiveSmrBuilder`],
//! whose codec ([`SmrFrame`]) carries replica traffic and the client side
//! together. The host writes what the process sends and models no network
//! of its own: link faults (partitions, drops, jitter) belong to the
//! simulator's delay models, where they replay from a seed.
//!
//! A live cluster serves full state-machine replication of any
//! [`StateMachine`](probft_smr::StateMachine) — pipelined, batched, served
//! to a real client front-end ([`SmrClient`]) with typed responses, leader
//! routing, address-carrying redirects, retries, at-most-once execution of
//! retried request ids, and a three-tier read path (`Local` / `Leader`
//! reads bypass consensus; `Linearizable` reads are ordered through the
//! log). With a checkpoint interval set, replicas exchange signed
//! checkpoint attestations, truncate their logs behind stable checkpoints,
//! and bring laggards back by snapshot state transfer over dedicated wire
//! frames; `LiveSmrCluster::pause`/`resume` stall and revive a replica
//! for exercising exactly that.
//!
//! [`SmrNode`]: probft_smr::node::SmrNode
//! [`Process`]: probft_simnet::process::Process
//! [`Context::detached`]: probft_simnet::process::Context::detached
//! [`Context::drain_actions`]: probft_simnet::process::Context::drain_actions
//!
//! `tokio` and `mio` are not available in this offline build environment
//! (see DESIGN.md, "Substitutions"): readiness comes from a hand-written
//! epoll binding (the workspace's `epoll` crate), so the runtime builds on
//! Linux only. Clients ([`SmrClient`]) keep plain blocking sockets.
//!
//! Virtual-time convention: one simulator tick = one microsecond of wall
//! time (so the default 50 ms base view timeout carries over sensibly).
//!
//! # Examples
//!
//! ```no_run
//! use probft_runtime::LiveSmrBuilder;
//!
//! // Boot a 4-replica replicated KV store over localhost TCP. Each replica
//! // binds an OS-assigned loopback port, so runs never collide.
//! let cluster = LiveSmrBuilder::new(4).start().unwrap();
//! let mut client = cluster.client(1);
//! client.put("greeting", "hello").unwrap();
//! let reports = cluster.shutdown();
//! assert!(reports.iter().all(|r| r.state.get("greeting") == Some("hello")));
//! ```

#![warn(missing_docs)]
// The repo's panic-, swallow-, truncation- and overflow-freedom rules
// (L001, L009, L008), stated by the tools that see types — DESIGN.md, "Who
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
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects
    )
)]

pub mod client;
pub(crate) mod host;
pub mod live;
pub mod nemesis;
pub(crate) mod pacing;
pub mod transport;

pub use client::{ClientError, SmrClient};
pub use live::{ClusterError, LiveSmrBuilder, LiveSmrCluster, SmrFrame, SmrReply};
pub use nemesis::{
    execute, verify_exactly_once, verify_invariants, Fault, FaultPlan, NemesisRun, ReplicaReport,
};
pub use transport::{read_frame, write_frame, FrameError};
