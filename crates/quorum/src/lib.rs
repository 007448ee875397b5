//! # probft-quorum
//!
//! Quorum machinery shared by ProBFT and the baseline protocols:
//!
//! - [`ReplicaId`] — the protocol-level replica identifier.
//! - [`sizes`] — deterministic quorum sizes (`⌈(n+f+1)/2⌉`, PBFT-style) and
//!   probabilistic quorum/sample sizes (`q = ⌈l·√n⌉`, `s = ⌈o·q⌉`, paper
//!   §3.1).
//! - [`tracker`] — accumulation of matching messages from distinct senders
//!   until a threshold (quorum) is reached.
//!
//! The central departure of ProBFT from classical BFT is visible in
//! [`sizes`]: instead of quorums that *always* intersect in a correct
//! replica, ProBFT uses quorums of size `O(√n)` that intersect only with
//! high probability (paper §1, §3.1), traded against `O(n√n)` total
//! messages.
//!
//! # Examples
//!
//! ```
//! use probft_quorum::sizes::{deterministic_quorum, probabilistic_quorum, sample_size};
//!
//! // PBFT with n = 100, f = 33 needs 67 matching messages…
//! assert_eq!(deterministic_quorum(100, 33), 67);
//! // …while ProBFT with l = 2 needs only 20,
//! let q = probabilistic_quorum(100, 2.0);
//! assert_eq!(q, 20);
//! // each replica multicasting to a sample of o·q = 34 peers.
//! assert_eq!(sample_size(q, 1.7), 34);
//! ```

#![warn(missing_docs)]

pub mod sizes;
pub mod tracker;

pub use sizes::{deterministic_quorum, max_faults, probabilistic_quorum, sample_size};
pub use tracker::{QuorumOutcome, QuorumTracker};

use std::fmt;

/// Identifies a replica in the protocol, indexed `0..n`.
///
/// (The paper numbers replicas `1..=n`; the `leader(v)` computation in
/// `probft-core` maps the paper's convention onto zero-based indices.)
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// The zero-based index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(i: u32) -> Self {
        ReplicaId(i)
    }
}

impl From<usize> for ReplicaId {
    fn from(i: usize) -> Self {
        ReplicaId(u32::try_from(i).expect("replica index fits in u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_conversions() {
        assert_eq!(ReplicaId::from(5usize).index(), 5);
        assert_eq!(ReplicaId::from(7u32), ReplicaId(7));
        assert_eq!(format!("{:?}", ReplicaId(3)), "r3");
        assert_eq!(ReplicaId(3).to_string(), "3");
    }
}
