//! # probft-crypto
//!
//! From-scratch cryptographic substrate for the ProBFT reproduction
//! (PODC 2024, "Probabilistic Byzantine Fault Tolerance").
//!
//! The paper assumes three cryptographic capabilities (§2.1, §2.4):
//!
//! 1. **Message signatures** — every message is signed; replicas discard
//!    messages whose signatures do not verify. Provided by [`schnorr`].
//! 2. **A globally known VRF** with `VRF_prove(K_p, z, s) → (S, P)` and
//!    `VRF_verify(K_u, z, s, S, P) → bool`, selecting verifiable uniform
//!    samples of replica IDs. Provided by [`vrf`].
//! 3. **Pre-distributed keys** for the fixed population. Provided by
//!    [`keyring`].
//!
//! Everything bottoms out in a from-scratch [SHA-256](sha256), [HMAC](hmac),
//! a deterministic [counter-mode PRG](prg), and [Schnorr-group
//! arithmetic](group) over a 63-bit safe prime. The small group size is a
//! documented simulation substitution (see `DESIGN.md`): the constructions
//! are structurally identical to production instantiations, and the paper's
//! model assumes the adversary cannot break cryptography regardless.
//!
//! # Quickstart
//!
//! ```
//! use probft_crypto::keyring::Keyring;
//! use probft_crypto::vrf::{vrf_prove, vrf_verify};
//!
//! let n = 100;
//! let ring = Keyring::generate(n, b"deployment-seed");
//!
//! // Replica 3 derives its prepare-phase recipient sample for view 42.
//! let sk = ring.signing_key(3)?;
//! let (sample, proof) = vrf_prove(sk, b"42|prepare", 34, n);
//!
//! // Any replica can verify the sample was not chosen freely.
//! assert!(vrf_verify(ring.verifying_key(3)?, b"42|prepare", 34, n, &sample, &proof));
//! # Ok::<(), probft_crypto::error::CryptoError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod group;
pub mod hmac;
pub mod keyring;
pub mod prg;
pub mod schnorr;
pub mod sha256;
pub mod vrf;

pub use error::CryptoError;
pub use keyring::{Keyring, PublicKeyring};
pub use schnorr::{Signature, SigningKey, VerifyingKey};
pub use sha256::{Digest, Sha256};
pub use vrf::{vrf_check, vrf_prove, vrf_verify, VrfProof};
