//! The reference [`StateMachine`]: a replicated key-value store.
//!
//! The SMR layer is operation-agnostic — anything wire-codable can be
//! ordered — and this module is its canonical application (and the
//! `kv_store` / `live_kv` examples'): string keys and values, with
//! [`Command`] ops encoded through the workspace wire codec so they
//! travel inside `probft_core::Value` payloads, and typed [`KvResponse`]s
//! threaded back to clients.

use crate::machine::StateMachine;
use probft_core::value::Value;
use probft_core::wire::{put, Reader, Wire, WireError};
use std::collections::BTreeMap;
use std::fmt;

/// A key-value state-machine operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// Store `value` under `key`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: String,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: String,
    },
    /// Order nothing (a workload filler; the SMR layer itself fills idle
    /// slots with *empty batches*, not no-op commands).
    Noop,
    /// Read `key` — the KV store's read operation, served at any
    /// [`Consistency`](crate::Consistency) tier.
    Get {
        /// The key.
        key: String,
    },
}

impl Command {
    /// Encodes the command into a consensus [`Value`].
    pub fn to_value(&self) -> Value {
        Value::new(self.to_wire_bytes())
    }

    /// Decodes a command from a [`Value`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the payload is not a valid command.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        Command::from_wire_bytes(value.as_bytes())
    }
}

// Wire tags 4 and 5 belonged to the pre-redesign `Batch` and
// `Command::Tagged` encodings; they stay unused so a stray old payload
// errors instead of aliasing.
const CMD_PUT: u8 = 1;
const CMD_DELETE: u8 = 2;
const CMD_NOOP: u8 = 3;
const CMD_GET: u8 = 6;

fn decode_string(r: &mut Reader<'_>, what: &'static str) -> Result<String, WireError> {
    String::from_utf8(r.var_bytes()?.to_vec()).map_err(|_| WireError::BadCrypto(what))
}

impl Wire for Command {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Command::Put { key, value } => {
                out.push(CMD_PUT);
                put::var_bytes(out, key.as_bytes());
                put::var_bytes(out, value.as_bytes());
            }
            Command::Delete { key } => {
                out.push(CMD_DELETE);
                put::var_bytes(out, key.as_bytes());
            }
            Command::Noop => out.push(CMD_NOOP),
            Command::Get { key } => {
                out.push(CMD_GET);
                put::var_bytes(out, key.as_bytes());
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            CMD_PUT => Ok(Command::Put {
                key: decode_string(r, "utf-8 key")?,
                value: decode_string(r, "utf-8 value")?,
            }),
            CMD_DELETE => Ok(Command::Delete {
                key: decode_string(r, "utf-8 key")?,
            }),
            CMD_NOOP => Ok(Command::Noop),
            CMD_GET => Ok(Command::Get {
                key: decode_string(r, "utf-8 key")?,
            }),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Put { key, value } => write!(f, "PUT {key}={value}"),
            Command::Delete { key } => write!(f, "DEL {key}"),
            Command::Noop => f.write_str("NOOP"),
            Command::Get { key } => write!(f, "GET {key}"),
        }
    }
}

/// The typed result of one [`Command`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvResponse {
    /// A `Noop` acknowledgement.
    Unit,
    /// The value a `Put` displaced (`None` for a fresh key).
    Prev(Option<String>),
    /// The value a `Delete` removed (`None` if the key was absent).
    Removed(Option<String>),
    /// The value a `Get` observed (`None` if the key is absent).
    Value(Option<String>),
}

impl KvResponse {
    /// The payload string, whatever the command kind — the displaced,
    /// removed, or observed value.
    pub fn value(&self) -> Option<&str> {
        match self {
            KvResponse::Unit => None,
            KvResponse::Prev(v) | KvResponse::Removed(v) | KvResponse::Value(v) => v.as_deref(),
        }
    }
}

const RESP_UNIT: u8 = 1;
const RESP_PREV: u8 = 2;
const RESP_REMOVED: u8 = 3;
const RESP_VALUE: u8 = 4;

fn encode_opt_string(out: &mut Vec<u8>, v: &Option<String>) {
    match v {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put::var_bytes(out, s.as_bytes());
        }
    }
}

fn decode_opt_string(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(decode_string(r, "utf-8 response value")?)),
        t => Err(WireError::UnknownTag(t)),
    }
}

impl Wire for KvResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KvResponse::Unit => out.push(RESP_UNIT),
            KvResponse::Prev(v) => {
                out.push(RESP_PREV);
                encode_opt_string(out, v);
            }
            KvResponse::Removed(v) => {
                out.push(RESP_REMOVED);
                encode_opt_string(out, v);
            }
            KvResponse::Value(v) => {
                out.push(RESP_VALUE);
                encode_opt_string(out, v);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            RESP_UNIT => Ok(KvResponse::Unit),
            RESP_PREV => Ok(KvResponse::Prev(decode_opt_string(r)?)),
            RESP_REMOVED => Ok(KvResponse::Removed(decode_opt_string(r)?)),
            RESP_VALUE => Ok(KvResponse::Value(decode_opt_string(r)?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl fmt::Display for KvResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvResponse::Unit => f.write_str("ok"),
            KvResponse::Prev(v) => write!(f, "prev={v:?}"),
            KvResponse::Removed(v) => write!(f, "removed={v:?}"),
            KvResponse::Value(v) => write!(f, "value={v:?}"),
        }
    }
}

/// A deterministic key-value state machine fed by decided commands.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<String, String>,
    applied: u64,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a key directly (host-side accessor; replicated reads go
    /// through [`StateMachine::query`] with [`Command::Get`]).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Number of write commands applied (including no-ops; reads are not
    /// counted — they never mutate the store).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Cap on the key count a snapshot encoding may advertise, derived from
/// the transport bound: two u64 length prefixes per entry mean at least
/// 16 bytes each, so any count above `MAX_LEN / 16` cannot fit in a frame
/// the transport would accept.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a compile-time constant: 16 MiB / 16 is 2^20"
)]
pub const MAX_KV_ENTRIES: u32 = (probft_core::wire::MAX_LEN / 16) as u32;

/// The store's checkpoint encoding: live keys in `BTreeMap` (ascending)
/// order plus the applied counter. Deterministic, so every replica at the
/// same log position produces the identical snapshot digest.
impl Wire for KvStore {
    fn encode(&self, out: &mut Vec<u8>) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "KV snapshot entry count: bounded by MAX_KV_ENTRIES at decode and by replica memory at encode (each entry holds at least a key byte plus framing)"
        )]
        put::u32(out, self.map.len() as u32);
        for (key, value) in &self.map {
            put::var_bytes(out, key.as_bytes());
            put::var_bytes(out, value.as_bytes());
        }
        put::u64(out, self.applied);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.u32()?;
        // Each entry costs at least 16 encoded bytes (two u64 length
        // prefixes), so a count beyond MAX_KV_ENTRIES cannot fit in any
        // frame the transport accepts: reject it before the decode loop.
        if count > MAX_KV_ENTRIES {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let key = decode_string(r, "utf-8 key")?;
            let value = decode_string(r, "utf-8 value")?;
            map.insert(key, value);
        }
        let applied = r.u64()?;
        Ok(KvStore { map, applied })
    }
}

impl StateMachine for KvStore {
    type Op = Command;
    type Response = KvResponse;

    fn apply(&mut self, op: &Command) -> KvResponse {
        let response = match op {
            Command::Put { key, value } => {
                KvResponse::Prev(self.map.insert(key.clone(), value.clone()))
            }
            Command::Delete { key } => KvResponse::Removed(self.map.remove(key)),
            Command::Noop => KvResponse::Unit,
            // A Get reaching `apply` (e.g. submitted as a write) behaves
            // exactly like `query`: observation only.
            Command::Get { key } => return KvResponse::Value(self.map.get(key).cloned()),
        };
        self.applied += 1;
        response
    }

    fn query(&self, op: &Command) -> KvResponse {
        match op {
            Command::Get { key } => KvResponse::Value(self.map.get(key).cloned()),
            // Non-read ops evaluated read-only: report what they *would*
            // touch without mutating.
            Command::Put { key, .. } => KvResponse::Prev(self.map.get(key).cloned()),
            Command::Delete { key } => KvResponse::Removed(self.map.get(key).cloned()),
            Command::Noop => KvResponse::Unit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_value_round_trip() {
        for cmd in [
            Command::Put {
                key: "k".into(),
                value: "v".into(),
            },
            Command::Delete { key: "k".into() },
            Command::Noop,
            Command::Get { key: "k".into() },
        ] {
            let value = cmd.to_value();
            assert_eq!(Command::from_value(&value).unwrap(), cmd);
        }
    }

    #[test]
    fn malformed_value_rejected() {
        assert!(Command::from_value(&Value::new(b"junk".to_vec())).is_err());
        assert!(Command::from_value(&Value::new(vec![])).is_err());
        // The retired pre-redesign tags must not decode.
        assert!(Command::from_wire_bytes(&[4]).is_err());
        assert!(Command::from_wire_bytes(&[5]).is_err());
    }

    #[test]
    fn response_round_trip() {
        for resp in [
            KvResponse::Unit,
            KvResponse::Prev(None),
            KvResponse::Prev(Some("old".into())),
            KvResponse::Removed(Some("gone".into())),
            KvResponse::Value(None),
            KvResponse::Value(Some("v".into())),
        ] {
            let bytes = resp.to_wire_bytes();
            assert_eq!(KvResponse::from_wire_bytes(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn kv_semantics_with_typed_responses() {
        let mut kv = KvStore::new();
        assert_eq!(
            kv.apply(&Command::Put {
                key: "a".into(),
                value: "1".into(),
            }),
            KvResponse::Prev(None)
        );
        assert_eq!(
            kv.apply(&Command::Put {
                key: "a".into(),
                value: "2".into(),
            }),
            KvResponse::Prev(Some("1".into()))
        );
        assert_eq!(kv.apply(&Command::Noop), KvResponse::Unit);
        assert_eq!(kv.get("a"), Some("2"));
        assert_eq!(kv.applied(), 3);
        assert_eq!(
            kv.apply(&Command::Delete { key: "a".into() }),
            KvResponse::Removed(Some("2".into()))
        );
        assert_eq!(kv.get("a"), None);
        assert!(kv.is_empty());
    }

    #[test]
    fn get_never_mutates_even_via_apply() {
        let mut kv = KvStore::new();
        kv.apply(&Command::Put {
            key: "k".into(),
            value: "v".into(),
        });
        let before = kv.clone();
        assert_eq!(
            kv.apply(&Command::Get { key: "k".into() }),
            KvResponse::Value(Some("v".into()))
        );
        assert_eq!(kv, before, "Get must not bump the applied counter");
    }

    #[test]
    fn deterministic_replay_equality() {
        let cmds = vec![
            Command::Put {
                key: "x".into(),
                value: "1".into(),
            },
            Command::Delete { key: "y".into() },
            Command::Put {
                key: "y".into(),
                value: "2".into(),
            },
        ];
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        for c in &cmds {
            let ra = a.apply(c);
            let rb = b.apply(c);
            assert_eq!(ra, rb, "responses are deterministic too");
        }
        assert_eq!(a, b);
    }

    #[test]
    fn store_snapshot_round_trips_and_is_deterministic() {
        let mut kv = KvStore::new();
        for (k, v) in [("b", "2"), ("a", "1"), ("c", "3")] {
            kv.apply(&Command::Put {
                key: k.into(),
                value: v.into(),
            });
        }
        kv.apply(&Command::Delete { key: "c".into() });
        let bytes = kv.snapshot();
        // Same state, same bytes — replicas compare snapshot digests.
        assert_eq!(kv.snapshot(), bytes);
        let mut restored = KvStore::new();
        restored.restore(&bytes).expect("valid snapshot");
        assert_eq!(restored, kv);
        assert_eq!(restored.applied(), 4);
        assert!(restored.restore(b"junk").is_err());

        // The Wire impl itself roundtrips (restore is built on it).
        assert_eq!(KvStore::from_wire_bytes(&kv.to_wire_bytes()).unwrap(), kv);
        // A header advertising an impossible entry count is rejected
        // before the decode loop runs.
        let mut huge = Vec::new();
        probft_core::wire::put::u32(&mut huge, u32::MAX);
        assert!(matches!(
            KvStore::from_wire_bytes(&huge),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Command::Put {
                key: "k".into(),
                value: "v".into()
            }
            .to_string(),
            "PUT k=v"
        );
        assert_eq!(Command::Get { key: "k".into() }.to_string(), "GET k");
        assert_eq!(Command::Noop.to_string(), "NOOP");
    }
}
