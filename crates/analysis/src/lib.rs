//! # probft-analysis
//!
//! The numerical-evaluation machinery of the ProBFT paper (§5 and the
//! appendices), implemented three ways per quantity so the figures can show
//! the paper's closed-form bounds, an exact/semi-analytic model, and Monte
//! Carlo side by side:
//!
//! - [`binomial`] — exact log-space binomial/hypergeometric tails (the
//!   workhorse; probabilities like `1 − 10⁻³⁰` need log space).
//! - [`chernoff`] — Appendix A's concentration bounds and the paper's
//!   closed-form theorems (Cor. 2, Lemma 4, Thm 15, Thm 7, Thm 8), each
//!   with its validity premise made explicit.
//! - [`termination`] — Figure 5 right column: the probability a correct
//!   replica decides under a correct leader.
//! - [`agreement`] — Figure 5 left column: agreement under the optimal
//!   split-leader attack (Figure 4c), including the
//!   equivocation-detection term the closed-form bounds ignore.
//! - [`messages`] — Figure 1: message counts and communication steps for
//!   PBFT, HotStuff, and ProBFT.
//!
//! # Examples
//!
//! ```
//! use probft_analysis::termination::{termination_exact, TerminationParams};
//!
//! // Paper operating point: n=100, f/n=0.2, q=2√n, o=1.7.
//! let p = TerminationParams::from_paper(100, 20, 2.0, 1.7);
//! let prob = termination_exact(p);
//! assert!(prob > 0.9 && prob <= 1.0);
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod binomial;
pub mod chernoff;
pub mod messages;
pub mod termination;

pub use agreement::{agreement_probability, violation_probability, AgreementParams};
pub use messages::{hotstuff_messages, pbft_messages, probft_messages, Protocol};
pub use termination::{termination_exact, termination_monte_carlo, TerminationParams};
