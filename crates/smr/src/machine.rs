//! The generic replicated-state-machine abstraction.
//!
//! Consensus orders *opaque* operations: anything implementing
//! [`StateMachine`] can be replicated, and the SMR layer threads the typed
//! [`StateMachine::Response`] of every applied operation back to the
//! submitting client. The log unit is an [`Entry`] — an operation plus its
//! optional client tag and read/write kind — grouped into wire-codable
//! [`Batch`]es, one batch per decided consensus slot.
//!
//! Reads come in three [`Consistency`] tiers. The two cheap tiers are
//! served off a replica's already-applied state without touching
//! consensus; the linearizable tier orders the read through the log as a
//! no-op write, so it observes every write decided before it.

use probft_core::value::Value;
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_core::wire_fields;
use std::fmt;

/// A deterministic application state machine replicated by the SMR layer.
///
/// Implementations must be *deterministic*: applying the same operation
/// sequence to two fresh instances must yield equal states and equal
/// responses — that is the whole contract of state-machine replication.
///
/// The `Default` value is the genesis state every replica starts from;
/// `Clone + PartialEq` let the harness compare replicated states,
/// `Send + 'static` let the live TCP runtime host a machine per replica
/// thread, and `Wire` makes the state checkpointable: the default
/// [`snapshot`](Self::snapshot) / [`restore`](Self::restore) pair reuses
/// the machine's wire codec, so any machine that can travel can also be
/// checkpointed, truncated behind, and state-transferred to a laggard.
pub trait StateMachine: Clone + Default + PartialEq + fmt::Debug + Wire + Send + 'static {
    /// One operation against the machine, wire-codable so it can travel
    /// inside consensus values and client frames.
    type Op: Wire + Clone + PartialEq + fmt::Debug + fmt::Display + Send + 'static;

    /// The typed result of executing one operation, wire-codable so the
    /// cluster can send it back to the submitting client.
    type Response: Wire + Clone + PartialEq + fmt::Debug + Send + 'static;

    /// Executes `op`, mutating the state, and returns its result.
    fn apply(&mut self, op: &Self::Op) -> Self::Response;

    /// Evaluates `op` against the current state *without* mutating it —
    /// the execution path for reads ([`Consistency::Local`] and
    /// [`Consistency::Leader`] reads, and the apply step of a
    /// linearizable read entry).
    ///
    /// The default clones the state and applies, which is always correct
    /// but may be expensive; machines with genuinely read-only operations
    /// should override it.
    fn query(&self, op: &Self::Op) -> Self::Response {
        self.clone().apply(op)
    }

    /// Serializes the full application state for a checkpoint. The
    /// default is the machine's wire encoding; machines with cheaper
    /// incremental representations may override it, as long as
    /// `restore(snapshot())` reproduces an equal state — replicas compare
    /// snapshot digests, so the encoding must be deterministic.
    fn snapshot(&self) -> Vec<u8> {
        self.to_wire_bytes()
    }

    /// Replaces the state with one produced by
    /// [`snapshot`](Self::snapshot) — the receiving half of checkpoint
    /// state transfer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the payload is not a valid snapshot.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        *self = Self::from_wire_bytes(bytes)?;
        Ok(())
    }
}

/// Identifies one client request: the submitting client plus a per-client
/// sequence number that increases by one per *new* request (retries reuse
/// the number). Because the id travels through consensus inside a tagged
/// [`Entry`], every replica sees the same ids in the same order and can
/// deduplicate retried submissions identically — the basis of the client
/// path's at-most-once semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The submitting client's identifier.
    pub client: u64,
    /// The client's sequence number for this request.
    pub seq: u64,
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}#{}", self.client, self.seq)
    }
}

/// The consistency tier of a client read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Served by whichever replica the client contacts, off its local
    /// applied state, without touching consensus. May be stale (the
    /// replica can lag the leader by in-flight commits) but is never
    /// torn: reads run between whole-batch applies, so a response always
    /// reflects a prefix of the decided log.
    Local,
    /// Served only by the replica that currently believes it leads, off
    /// its local applied state. Monotonic for a client that keeps reading
    /// the same leader (the leader applies in log order and answers
    /// writes post-apply); a deposed leader may still serve briefly until
    /// it observes the view change.
    Leader,
    /// Ordered through the replicated log as a no-op write: the response
    /// reflects every write decided before the read's slot, at full
    /// consensus cost.
    Linearizable,
}

impl Consistency {
    const ALL: [Consistency; 3] = [
        Consistency::Local,
        Consistency::Leader,
        Consistency::Linearizable,
    ];

    /// Every tier, cheapest first.
    pub fn all() -> [Consistency; 3] {
        Self::ALL
    }
}

wire_fields! { impl Wire for Consistency { Local = 0, Leader = 1, Linearizable = 2 } }

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Consistency::Local => "local",
            Consistency::Leader => "leader",
            Consistency::Linearizable => "linearizable",
        })
    }
}

/// Whether a log entry mutates the state machine or only observes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Executed via [`StateMachine::apply`].
    Write,
    /// A linearizable read ordered through the log: executed via
    /// [`StateMachine::query`], leaving the state untouched.
    Read,
}

wire_fields! { impl Wire for OpKind { Write = 0, Read = 1 } }

/// One unit of the replicated log: an operation, its read/write kind, and
/// — for client submissions — the [`RequestId`] used for deduplication
/// and reply routing.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry<Op> {
    /// Who submitted this entry, if it came through the client front-end.
    pub request: Option<RequestId>,
    /// Whether the operation mutates state or only observes it.
    pub kind: OpKind,
    /// The operation itself.
    pub op: Op,
}

impl<Op> Entry<Op> {
    /// An untagged write (e.g. a harness workload entry).
    pub fn write(op: Op) -> Self {
        Entry {
            request: None,
            kind: OpKind::Write,
            op,
        }
    }

    /// A client-tagged write.
    pub fn tagged_write(request: RequestId, op: Op) -> Self {
        Entry {
            request: Some(request),
            kind: OpKind::Write,
            op,
        }
    }

    /// A client-tagged linearizable read.
    pub fn tagged_read(request: RequestId, op: Op) -> Self {
        Entry {
            request: Some(request),
            kind: OpKind::Read,
            op,
        }
    }

    /// The client request id, if this entry came through the client
    /// front-end.
    pub fn request(&self) -> Option<RequestId> {
        self.request
    }

    /// The underlying operation.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Whether this entry is a read ordered through the log.
    pub fn is_read(&self) -> bool {
        self.kind == OpKind::Read
    }
}

const ENTRY_TAGGED_BIT: u8 = 0b01;
const ENTRY_READ_BIT: u8 = 0b10;

impl<Op: Wire> Wire for Entry<Op> {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut flags = 0u8;
        if self.request.is_some() {
            flags |= ENTRY_TAGGED_BIT;
        }
        if self.kind == OpKind::Read {
            flags |= ENTRY_READ_BIT;
        }
        out.push(flags);
        if let Some(request) = self.request {
            put::u64(out, request.client);
            put::u64(out, request.seq);
        }
        self.op.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let flags = r.u8()?;
        if flags & !(ENTRY_TAGGED_BIT | ENTRY_READ_BIT) != 0 {
            return Err(WireError::UnknownTag(flags));
        }
        let request = if flags & ENTRY_TAGGED_BIT != 0 {
            Some(RequestId {
                client: r.u64()?,
                seq: r.u64()?,
            })
        } else {
            None
        };
        let kind = if flags & ENTRY_READ_BIT != 0 {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let op = Op::decode(r)?;
        Ok(Entry { request, kind, op })
    }
}

impl<Op: fmt::Display> fmt::Display for Entry<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(request) = self.request {
            write!(f, "{request} ")?;
        }
        if self.kind == OpKind::Read {
            f.write_str("READ ")?;
        }
        write!(f, "{}", self.op)
    }
}

/// Wire tag opening a [`Batch`] (kept distinct from historic bare-command
/// tags for sanity, not compatibility).
const BATCH_TAG: u8 = 4;

/// Most entries a single batch may carry on the wire (anti-allocation
/// bound; proposers batch far below this).
pub const MAX_BATCH: u32 = 65_536;

/// An ordered group of log entries decided by one ProBFT instance.
///
/// Batching is the first throughput lever of the SMR engine: one consensus
/// round amortises over every entry in the batch, so the per-operation
/// message cost drops by the batch size. An *empty* batch is the filler a
/// proposer with nothing pending offers to keep a slot progressing — it
/// decides like any value but appends nothing to the log.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch<Op>(pub Vec<Entry<Op>>);

impl<Op> Default for Batch<Op> {
    fn default() -> Self {
        Batch(Vec::new())
    }
}

impl<Op> Batch<Op> {
    /// The entries in order.
    pub fn entries(&self) -> &[Entry<Op>] {
        &self.0
    }

    /// Number of entries in the batch.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch carries no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<Op: Wire> Batch<Op> {
    /// Encodes the batch into a consensus [`Value`].
    pub fn to_value(&self) -> Value {
        Value::new(self.to_wire_bytes())
    }

    /// Decodes a batch from a decided [`Value`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the payload is not a valid batch.
    pub fn from_value(value: &Value) -> Result<Self, WireError> {
        Batch::from_wire_bytes(value.as_bytes())
    }
}

impl<Op: Wire> Wire for Batch<Op> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(BATCH_TAG);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "batch entry count: proposals cap the drained batch at MAX_BATCH = 65536 entries, two orders of magnitude under u32::MAX"
        )]
        put::u32(out, self.0.len() as u32);
        for entry in &self.0 {
            entry.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            BATCH_TAG => {
                let count = r.count(MAX_BATCH)?;
                (0..count)
                    .map(|_| Entry::decode(r))
                    .collect::<Result<_, _>>()
                    .map(Batch)
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

impl<Op: fmt::Display> fmt::Display for Batch<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} entries:", self.0.len())?;
        for entry in &self.0 {
            write!(f, " {entry};")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::Command;

    #[test]
    fn entry_round_trips_all_shapes() {
        let request = RequestId { client: 7, seq: 42 };
        let entries = [
            Entry::write(Command::Noop),
            Entry::tagged_write(
                request,
                Command::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
            ),
            Entry::tagged_read(request, Command::Get { key: "k".into() }),
        ];
        for entry in entries {
            let bytes = entry.to_wire_bytes();
            assert_eq!(Entry::<Command>::from_wire_bytes(&bytes).unwrap(), entry);
        }
    }

    #[test]
    fn batch_rejects_forged_entry_count() {
        let mut bytes = vec![BATCH_TAG];
        put::u32(&mut bytes, u32::MAX);
        assert_eq!(
            Batch::<Command>::from_wire_bytes(&bytes),
            Err(WireError::LengthOverflow(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn entry_rejects_unknown_flag_bits() {
        let mut bytes = Entry::write(Command::Noop).to_wire_bytes();
        bytes[0] |= 0b100;
        assert!(Entry::<Command>::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn batch_round_trips_including_empty() {
        for entries in [
            vec![],
            vec![Entry::write(Command::Noop)],
            vec![
                Entry::write(Command::Put {
                    key: "k".into(),
                    value: "v".into(),
                }),
                Entry::tagged_write(
                    RequestId { client: 1, seq: 2 },
                    Command::Delete { key: "k".into() },
                ),
            ],
        ] {
            let batch = Batch(entries);
            assert_eq!(Batch::from_value(&batch.to_value()).unwrap(), batch);
        }
    }

    #[test]
    fn malformed_batch_rejected() {
        assert!(Batch::<Command>::from_wire_bytes(b"junk").is_err());
        assert!(Batch::<Command>::from_wire_bytes(&[]).is_err());
        // Batch tag with an absurd count must fail before allocating.
        let mut huge = vec![BATCH_TAG];
        put::u32(&mut huge, u32::MAX);
        assert!(Batch::<Command>::from_wire_bytes(&huge).is_err());
        // Truncated entry list inside a well-tagged batch.
        let mut torn = Vec::new();
        Batch(vec![
            Entry::write(Command::Noop),
            Entry::write(Command::Noop),
        ])
        .encode(&mut torn);
        torn.truncate(torn.len() - 1);
        assert!(Batch::<Command>::from_wire_bytes(&torn).is_err());
    }

    #[test]
    fn consistency_round_trips() {
        for level in Consistency::all() {
            let bytes = level.to_wire_bytes();
            assert_eq!(Consistency::from_wire_bytes(&bytes).unwrap(), level);
        }
        assert!(Consistency::from_wire_bytes(&[9]).is_err());
    }

    #[test]
    fn op_kind_round_trips() {
        for kind in [OpKind::Write, OpKind::Read] {
            let bytes = kind.to_wire_bytes();
            assert_eq!(OpKind::from_wire_bytes(&bytes).unwrap(), kind);
        }
        assert!(OpKind::from_wire_bytes(&[7]).is_err());
    }

    #[test]
    fn default_query_leaves_state_untouched() {
        let mut kv = crate::kv::KvStore::new();
        kv.apply(&Command::Put {
            key: "a".into(),
            value: "1".into(),
        });
        let before = kv.clone();
        let response = kv.query(&Command::Get { key: "a".into() });
        assert_eq!(kv, before);
        assert_eq!(response, crate::kv::KvResponse::Value(Some("1".into())));
    }
}
