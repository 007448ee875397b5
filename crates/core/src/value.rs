//! Proposal values and the application-defined validity predicate.
//!
//! The paper assumes "an application-specific `valid` predicate to indicate
//! whether a value is acceptable" (§2.2); consensus Validity then says every
//! decided value satisfies it. [`Value`] is the opaque proposal payload and
//! [`ValidityPredicate`] the pluggable check.

use crate::wire::{fields_len, put, Reader, Wire, WireError};
use probft_crypto::sha256::{Digest, Sha256};
use std::fmt;
use std::sync::Arc;

/// An opaque proposal payload.
///
/// Protocol logic never inspects the bytes; it compares values by their
/// SHA-256 [`digest`](Value::digest), exactly as an implementation over
/// client commands or blocks would.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Value(Vec<u8>);

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        Value(bytes.into())
    }

    /// A small deterministic test value derived from an integer tag.
    pub fn from_tag(tag: u64) -> Self {
        Value(format!("value-{tag}").into_bytes())
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value's SHA-256 digest — the protocol-level identity of the
    /// value (used as the matching key for quorum formation and for
    /// deterministic tie-breaking).
    pub fn digest(&self) -> Digest {
        Sha256::digest_parts(&[b"probft-value-v1", &self.0])
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) if s.len() <= 32 => write!(f, "Value({s:?})"),
            _ => write!(f, "Value({} bytes, {:?})", self.0.len(), self.digest()),
        }
    }
}

impl Wire for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        put::var_bytes(out, &self.0);
    }
    fn wire_len(&self) -> usize {
        fields_len([8, self.0.len()])
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Value(r.var_bytes()?.to_vec()))
    }
}

/// The application-defined validity check (paper §2.2).
///
/// Shared immutably by all replicas of an instance.
#[derive(Clone)]
pub struct ValidityPredicate(Arc<dyn Fn(&Value) -> bool + Send + Sync>);

impl ValidityPredicate {
    /// Wraps an arbitrary predicate function.
    pub fn new(f: impl Fn(&Value) -> bool + Send + Sync + 'static) -> Self {
        ValidityPredicate(Arc::new(f))
    }

    /// Accepts every value — the common case in benchmarks.
    pub fn accept_all() -> Self {
        Self::new(|_| true)
    }

    /// Evaluates the predicate.
    pub fn is_valid(&self, value: &Value) -> bool {
        (self.0)(value)
    }
}

impl Default for ValidityPredicate {
    fn default() -> Self {
        Self::accept_all()
    }
}

impl fmt::Debug for ValidityPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ValidityPredicate(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_injective_in_practice() {
        let a = Value::new(b"a".to_vec());
        let b = Value::new(b"b".to_vec());
        assert_eq!(a.digest(), Value::new(b"a".to_vec()).digest());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn wire_round_trip() {
        for v in [
            Value::default(),
            Value::from_tag(7),
            Value::new(vec![0u8; 1000]),
        ] {
            assert_eq!(Value::from_wire_bytes(&v.to_wire_bytes()).unwrap(), v);
        }
    }

    #[test]
    fn validity_predicate() {
        let only_short = ValidityPredicate::new(|v| v.len() < 10);
        assert!(only_short.is_valid(&Value::new(b"ok".to_vec())));
        assert!(!only_short.is_valid(&Value::new(vec![0; 100])));
        assert!(ValidityPredicate::accept_all().is_valid(&Value::new(vec![0; 100])));
        assert!(ValidityPredicate::default().is_valid(&Value::default()));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", Value::from_tag(1)), "Value(\"value-1\")");
        let big = Value::new(vec![0xFF; 64]);
        assert!(format!("{big:?}").contains("64 bytes"));
    }
}
