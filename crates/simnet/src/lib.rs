//! # probft-simnet
//!
//! A deterministic discrete-event network simulator implementing the system
//! model of "Probabilistic Byzantine Fault Tolerance" (PODC 2024, §2.1):
//!
//! - **Partial synchrony** — the network behaves arbitrarily until an
//!   unknown global stabilization time (GST) and delivers within an unknown
//!   bound Δ afterwards ([`delay::PartialSynchrony`]).
//! - **Content-oblivious adversarial scheduling** — delay models never
//!   inspect sender identity, receiver identity, or payload, matching the
//!   paper's assumption that the scheduler "manipulates the delivery time of
//!   messages independent of the sender's identifier".
//! - **Fail-stop and Byzantine faults** — crashes via
//!   [`sim::Simulation::crash`]; Byzantine behaviour is expressed by the
//!   process implementations themselves (see `probft-core`'s `byzantine`
//!   module).
//! - **Message metering** — every send is counted by kind and size
//!   ([`metrics::MessageMetrics`]), which is how the experiments measure the
//!   paper's `O(n√n)` vs `O(n²)` message-complexity claims.
//!
//! Runs are exactly reproducible from a seed, which the Monte Carlo
//! experiments (Figure 5 reproductions) and failure regression tests rely
//! on.
//!
//! # Quickstart
//!
//! See [`sim::Simulation`] for a complete runnable example.

#![warn(missing_docs)]

pub mod delay;
pub mod metrics;
pub mod process;
pub mod sim;
pub mod time;

pub use delay::{DelayModel, Fixed, HealingPartition, Lossy, PartialSynchrony};
pub use metrics::{KindStats, Measurable, MessageMetrics};
pub use process::{Action, Context, Process, ProcessId, TimerToken};
pub use sim::{RunOutcome, Simulation};
pub use time::{SimDuration, SimTime};
