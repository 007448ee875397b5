//! Protocol-level error types.

use crate::config::View;
use probft_crypto::CryptoError;
use probft_quorum::ReplicaId;
use std::error::Error;
use std::fmt;

/// Why an incoming message was rejected by a correct replica.
///
/// Rejection is not an error in the distributed-systems sense — Byzantine
/// peers *will* send garbage — but surfacing the precise reason makes tests
/// and audits precise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The outer signature did not verify against the claimed sender.
    BadSignature,
    /// The proposal's inner signature did not verify against the leader.
    BadProposalSignature,
    /// The claimed sender index is outside the population.
    UnknownSender(ReplicaId),
    /// The proposal's signer is not the leader of its view.
    WrongLeader {
        /// View the proposal claims.
        view: View,
        /// Who signed it.
        claimed: ReplicaId,
    },
    /// The VRF proof failed verification.
    BadVrfProof,
    /// A Propose's value does not hash to the digest in its leader-signed
    /// header.
    ValueDigestMismatch,
    /// The receiving replica is not a member of the sender's sample.
    NotInSample,
    /// The message's view does not match the replica's current view and is
    /// outside the buffering horizon.
    StaleView {
        /// The message's view.
        got: View,
        /// The replica's current view.
        current: View,
    },
    /// The Propose failed the `safeProposal` predicate (§3.2).
    UnsafeProposal,
    /// A NewLeader message failed the `validNewLeader` predicate (§3.2).
    InvalidNewLeader,
    /// The value failed the application `valid` predicate.
    InvalidValue,
    /// The view is blocked after detected leader equivocation (line 24).
    ViewBlocked,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BadSignature => f.write_str("outer signature invalid"),
            RejectReason::BadProposalSignature => f.write_str("leader proposal signature invalid"),
            RejectReason::UnknownSender(id) => write!(f, "unknown sender {id}"),
            RejectReason::WrongLeader { view, claimed } => {
                write!(f, "replica {claimed} is not the leader of view {view}")
            }
            RejectReason::BadVrfProof => f.write_str("VRF sample proof invalid"),
            RejectReason::ValueDigestMismatch => {
                f.write_str("proposed value does not match its signed digest")
            }
            RejectReason::NotInSample => f.write_str("receiver not in sender's sample"),
            RejectReason::StaleView { got, current } => {
                write!(
                    f,
                    "message view {got} incompatible with current view {current}"
                )
            }
            RejectReason::UnsafeProposal => f.write_str("safeProposal predicate failed"),
            RejectReason::InvalidNewLeader => f.write_str("validNewLeader predicate failed"),
            RejectReason::InvalidValue => f.write_str("value fails application predicate"),
            RejectReason::ViewBlocked => f.write_str("view blocked after equivocation"),
        }
    }
}

impl Error for RejectReason {}

impl From<CryptoError> for RejectReason {
    fn from(e: CryptoError) -> Self {
        match e {
            CryptoError::InvalidSignature => RejectReason::BadSignature,
            CryptoError::InvalidVrfProof => RejectReason::BadVrfProof,
            CryptoError::MalformedEncoding => RejectReason::BadSignature,
            CryptoError::UnknownReplica(i) => RejectReason::UnknownSender(ReplicaId::from(i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let reasons = [
            RejectReason::BadSignature,
            RejectReason::WrongLeader {
                view: View(2),
                claimed: ReplicaId(5),
            },
            RejectReason::StaleView {
                got: View(1),
                current: View(3),
            },
        ];
        for r in reasons {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn crypto_error_mapping() {
        assert_eq!(
            RejectReason::from(CryptoError::InvalidSignature),
            RejectReason::BadSignature
        );
        assert_eq!(
            RejectReason::from(CryptoError::UnknownReplica(4)),
            RejectReason::UnknownSender(ReplicaId(4))
        );
    }
}
