//! The one signed envelope: a body, and its signer's signature over
//! `domain ‖ body.encode()`.
//!
//! Every signed message in the workspace — ProBFT's, the PBFT and HotStuff
//! baselines', the SMR checkpoint votes — is a [`Signed<B>`]. The body is a
//! plain [`Wire`] struct that names its domain tag and its signer; this
//! module owns everything else: building the payload, signing, looking up
//! the signer's key, verifying, and the trailing signature on the wire. A
//! field added to a body is therefore signed because it is encoded, and
//! anything that must enter *every* signature (a log-slot tag, say) enters
//! in this module's `payload` function alone.

use crate::error::RejectReason;
use crate::wire::Wire;
use crate::wire_fields;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::{Signature, SigningKey};
use probft_quorum::ReplicaId;
use std::ops::Deref;

/// A message body that travels signed.
pub trait SignedBody: Wire {
    /// What selects the domain tag: `()` for a body with a single tag; the
    /// phase for a vote body that serves both Prepare and Commit, where the
    /// phase lives in the enclosing message's variant tag, not in the body.
    type Phase: Copy;

    /// The domain-separation tag prefixed to the encoded body before
    /// signing, so a signature over one type never verifies as another.
    fn domain(phase: Self::Phase) -> &'static [u8];

    /// The replica whose key signs this body.
    fn signer(&self) -> ReplicaId;
}

/// A body together with its signer's signature. Decoding does not verify:
/// call [`verify_in`](Signed::verify_in) (or a type's own `verify`) before
/// trusting the contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signed<B> {
    /// The signed contents, also reachable through `Deref`.
    pub body: B,
    /// The signer's signature over `domain ‖ body.encode()`.
    pub signature: Signature,
}

/// The signing payload — the only place one is built.
fn payload<B: SignedBody>(phase: B::Phase, body: &B) -> Vec<u8> {
    let mut out = B::domain(phase).to_vec();
    body.encode(&mut out);
    out
}

impl<B: SignedBody> Signed<B> {
    /// Signs `body` under the domain tag `phase` selects.
    pub fn sign_in(sk: &SigningKey, phase: B::Phase, body: B) -> Self {
        let signature = sk.sign(&payload(phase, &body));
        Signed { body, signature }
    }

    /// Verifies the signature against the signer's key, under the domain
    /// tag `phase` selects.
    ///
    /// # Errors
    ///
    /// [`RejectReason::UnknownSender`] if the signer is outside the
    /// population; [`RejectReason::BadSignature`] on signature failure.
    pub fn verify_in(&self, phase: B::Phase, keys: &PublicKeyring) -> Result<(), RejectReason> {
        let signer = self.body.signer();
        keys.tabled_key(signer.index())
            .map_err(|_| RejectReason::UnknownSender(signer))?
            .verify(&payload(phase, &self.body), &self.signature)
            .map_err(|_| RejectReason::BadSignature)
    }
}

impl<B: SignedBody<Phase = ()>> Signed<B> {
    /// Signs `body` under its one domain tag.
    pub fn sign(sk: &SigningKey, body: B) -> Self {
        Self::sign_in(sk, (), body)
    }

    /// Verifies the signature alone (no nested or semantic checks).
    ///
    /// # Errors
    ///
    /// As [`verify_in`](Signed::verify_in).
    pub fn verify_signature(&self, keys: &PublicKeyring) -> Result<(), RejectReason> {
        self.verify_in((), keys)
    }
}

impl<B> Deref for Signed<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.body
    }
}

wire_fields! { impl<B: Wire> Wire for Signed<B> { body, signature } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::View;
    use crate::message::WishBody;
    use probft_crypto::keyring::Keyring;

    #[test]
    fn envelope_signs_verifies_and_round_trips() {
        let ring = Keyring::generate(4, b"signed-test");
        let keys = ring.public();
        let body = WishBody {
            sender: ReplicaId(2),
            view: View(5),
        };
        let wish = Signed::sign(ring.signing_key(2).unwrap(), body.clone());
        assert_eq!(wish.verify_signature(&keys), Ok(()));
        assert_eq!(wish.view, View(5)); // Deref reaches the body

        // The wire form is the body followed by the signature.
        let mut expected = body.to_wire_bytes();
        expected.extend_from_slice(&wish.signature.to_bytes());
        assert_eq!(wish.to_wire_bytes(), expected);
        assert_eq!(
            Signed::<WishBody>::from_wire_bytes(&expected).unwrap(),
            wish
        );

        // Signed by someone other than the body's signer.
        let forged = Signed::sign(ring.signing_key(3).unwrap(), body);
        assert_eq!(
            forged.verify_signature(&keys),
            Err(RejectReason::BadSignature)
        );
        // A signer outside the population has no key to verify against.
        let outsider = WishBody {
            sender: ReplicaId(9),
            view: View(5),
        };
        assert_eq!(
            Signed::sign(ring.signing_key(0).unwrap(), outsider).verify_signature(&keys),
            Err(RejectReason::UnknownSender(ReplicaId(9)))
        );
    }
}
