//! # probft
//!
//! A complete Rust reproduction of **"Probabilistic Byzantine Fault
//! Tolerance"** (Avelãs, Heydari, Alchieri, Distler, Bessani — PODC 2024):
//! the ProBFT consensus protocol, the PBFT and HotStuff baselines it is
//! compared against, a deterministic partial-synchrony network simulator,
//! the paper's numerical analysis, a state-machine-replication extension,
//! and a live TCP runtime — all built from scratch on `std` (plus `rand`).
//!
//! This umbrella crate re-exports every sub-crate under one roof and hosts
//! the runnable examples and cross-crate integration tests.
//!
//! ## The protocol in one paragraph
//!
//! ProBFT is leader-based consensus for permissioned, partially synchronous
//! systems with `f < n/3` Byzantine replicas. It keeps PBFT's optimal
//! three communication steps but replaces `⌈(n+f+1)/2⌉`-sized broadcast
//! quorums with *probabilistic quorums* of `q = ⌈l√n⌉` messages, each
//! replica multicasting its Prepare/Commit votes only to a sample of
//! `s = ⌈o·q⌉` peers chosen — verifiably, via a VRF — at random. Message
//! complexity drops from `O(n²)` to `O(n√n)`; safety and liveness hold
//! with probability `1 − exp(−Θ(√n))`.
//!
//! ## Quickstart
//!
//! ```
//! use probft::core::harness::InstanceBuilder;
//!
//! let outcome = InstanceBuilder::new(31).seed(7).run();
//! assert!(outcome.all_correct_decided() && outcome.agreement());
//! ```
//!
//! ## Map of the workspace
//!
//! | Module alias | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `probft-core` | ProBFT itself (the view shell and the one Algorithm-1 replica), Byzantine strategies, the harness for all three protocols |
//! | [`crypto`] | `probft-crypto` | SHA-256, Schnorr, VRF with verifiable sampling |
//! | [`simnet`] | `probft-simnet` | Deterministic discrete-event simulator (GST model) |
//! | [`quorum`] | `probft-quorum` | Quorum sizes and vote trackers |
//! | [`pbft`] | `probft-pbft` | Single-shot PBFT baseline: core's replica under PBFT's vote policy |
//! | [`hotstuff`] | `probft-hotstuff` | Single-shot HotStuff baseline: its phases in core's view shell |
//! | [`analysis`] | `probft-analysis` | Figure 5 / Figure 1 numerical models |
//! | [`smr`] | `probft-smr` | Replicated state machine (future-work extension) |
//! | [`runtime`] | `probft-runtime` | Thread-per-replica TCP deployment |
//! | [`obs`] | `probft-obs` | Metrics registry, histograms, flight-recorder tracing |
//!
//! See `DESIGN.md` for the substitutions this reproduction makes and its
//! paper-fidelity notes, and `benchmarks/README.md` for measured results.

#![warn(missing_docs)]

pub use probft_analysis as analysis;
pub use probft_core as core;
pub use probft_crypto as crypto;
pub use probft_hotstuff as hotstuff;
pub use probft_obs as obs;
pub use probft_pbft as pbft;
pub use probft_quorum as quorum;
pub use probft_runtime as runtime;
pub use probft_simnet as simnet;
pub use probft_smr as smr;
