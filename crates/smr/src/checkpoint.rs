//! The agreed state, and the protocol that bounds it: checkpointing, log
//! truncation, and snapshot state transfer.
//!
//! **The agreed state** is one value, [`Snapshot`]: the next slot to apply,
//! the log length and running digest, the application machine and the
//! per-client reply cache (so at-most-once survives a transfer). An
//! [`SmrNode`](crate::SmrNode) holds one *live* `Snapshot` and feeds it
//! decided entries through `apply_entry`, its single entry point — so a
//! checkpoint is that value encoded as it stands, and restoring from a
//! transferred one is an assignment.
//!
//! **The protocol** — the crate-private `Checkpointer` — is PBFT-style
//! garbage collection (Castro–Liskov §4.3) adapted to the pipelined SMR
//! engine: every
//! [`checkpoint_interval`](crate::SmrSettings::checkpoint_interval)
//! applied slots a node encodes its agreed state and broadcasts a signed
//! [`CheckpointVote`] carrying the encoding's SHA-256 digest. Once a deterministic quorum (`⌈(n+f+1)/2⌉ ≥ 2f+1`
//! honest-majority) of replicas attests the same digest for the same slot,
//! the checkpoint is *stable*: everything at or below it — command-log
//! entries, older checkpoints and votes — is garbage. The checkpointer
//! drops its share and hands the node the log length to truncate to.
//!
//! Stability doubles as the catch-up signal. A replica that observes a
//! quorum for a slot beyond its own pipeline window cannot recover by
//! consensus any more (peers prune decided slot state on apply and never
//! retransmit), so it asks the attesters for the snapshot with a
//! [`StateRequest`]; any replica holding the stable checkpoint answers
//! with a [`StateReply`], the laggard verifies the payload against the
//! attested digest, and the checkpointer hands the node the verified
//! `Snapshot` to resume from. Votes are Schnorr-signed with the replica
//! keys — a single rogue connection cannot forge a quorum — while the
//! snapshot payload itself needs no signature: its digest is what the
//! quorum attested. Everything counted here is a `probft-obs` metric.

use crate::machine::{Entry, OpKind, RequestId, StateMachine};
use crate::node::{AppliedRequest, SmrMessage};
use probft_core::shell::Seat;
use probft_core::signed::{Signed, SignedBody};
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_crypto::sha256::{Digest, Sha256};
use probft_obs::{Obs, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Context, ProcessId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Everything a replica needs to resume service from a checkpoint slot
/// without replaying the log below it: the application state (via
/// [`StateMachine::snapshot`]), the reply cache behind at-most-once
/// execution, and the log bookkeeping (total length and running digest)
/// that lets the restored node keep extending the same logical log.
///
/// Only *agreed* state belongs here: every field is a deterministic
/// function of the decided log prefix, so all correct replicas produce
/// byte-identical snapshots (and thus matching digests) at the same
/// slot. Replica-local observations — e.g. the view a slot happened to
/// decide in, which can differ across replicas around a view change —
/// must stay out, or honest attestations would split.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<S: StateMachine> {
    /// The checkpoint slot: every slot strictly below it is applied.
    pub slot: u64,
    /// Total entries the log held up to this checkpoint (truncated ones
    /// included) — becomes the restored node's log offset.
    pub log_len: u64,
    /// Running SHA-256 chain over every entry ever applied, so replicas
    /// can compare full logical logs after truncating different prefixes.
    pub log_digest: Digest,
    /// The application state machine at the checkpoint.
    pub state: S,
    /// Per client: highest applied request sequence number and its
    /// response — the dedup watermark *and* reply cache behind
    /// at-most-once execution; folding it into the snapshot keeps retried
    /// requests at-most-once across a state transfer. Bounded by the
    /// number of distinct clients (one response each).
    pub replies: BTreeMap<u64, (u64, S::Response)>,
}

impl<S: StateMachine> Snapshot<S> {
    /// The SHA-256 digest of the encoded snapshot — what checkpoint votes
    /// attest and state-transfer payloads are verified against.
    pub fn digest(bytes: &[u8]) -> Digest {
        Sha256::digest_parts(&[b"probft-snapshot|", bytes])
    }

    /// The agreed state of an empty log: where every replica starts.
    pub(crate) fn genesis() -> Self {
        Snapshot {
            slot: 0,
            log_len: 0,
            log_digest: Sha256::digest(b"probft-log-genesis"),
            state: S::default(),
            replies: BTreeMap::new(),
        }
    }

    /// The cached response for an already-applied request, if any — the
    /// reply-cache read path for answering client retries without
    /// re-executing. For a sequential client (one request in flight) the
    /// cache always holds the response of its latest applied request.
    pub(crate) fn cached_response(&self, request: RequestId) -> Option<&S::Response> {
        self.replies
            .get(&request.client)
            .filter(|(last, _)| *last >= request.seq)
            .map(|(_, response)| response)
    }

    /// Applies one decided entry of slot `self.slot` to the log
    /// bookkeeping and — unless it is a duplicate of an already-executed
    /// client request — the state machine. Every replica sees the
    /// identical decided sequence, so this dedup is deterministic and
    /// replicated states stay equal. Read entries execute via
    /// [`StateMachine::query`], observing the state at their log position
    /// without mutating it. Returns what the submitting client is owed.
    pub(crate) fn apply_entry(
        &mut self,
        entry: &Entry<S::Op>,
    ) -> Option<AppliedRequest<S::Response>> {
        self.log_digest =
            Sha256::digest_parts(&[self.log_digest.as_bytes(), &entry.to_wire_bytes()]);
        self.log_len = self.log_len.saturating_add(1);
        let Some(request) = entry.request else {
            // An untagged read has no client waiting and no effect:
            // evaluating it would be pure wasted work (a full state clone
            // under the default `query`), which a Byzantine proposer could
            // otherwise exploit. Log it, skip it.
            if entry.kind == OpKind::Write {
                self.state.apply(&entry.op);
            }
            return None;
        };
        // A retry ordered twice skips execution and answers from the
        // reply cache.
        let cached = self.cached_response(request).cloned();
        let executed = cached.is_none();
        let response = cached.unwrap_or_else(|| {
            let response = match entry.kind {
                OpKind::Write => self.state.apply(&entry.op),
                OpKind::Read => self.state.query(&entry.op),
            };
            // Not cached means the seq is above the watermark, so this
            // insert keeps the watermark monotone even if a (misbehaving)
            // client's sequence numbers get ordered out of order.
            self.replies
                .insert(request.client, (request.seq, response.clone()));
            response
        });
        Some(AppliedRequest {
            request,
            slot: self.slot,
            executed,
            response,
        })
    }
}

/// Cap on the reply-cache entry count a snapshot may advertise, derived
/// from the transport bound: every entry costs at least 17 encoded bytes
/// (client u64 + seq u64 + ≥1 response byte), so a frame that fits under
/// the 16 MiB `MAX_FRAME`/`MAX_LEN` transport cap can never carry more
/// than `MAX_LEN / 17` real entries. A count above this is an attack (or
/// corruption), rejected before the decode loop runs.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a compile-time constant: 16 MiB / 17 is below 2^20"
)]
pub const MAX_SNAPSHOT_REPLIES: u32 = (probft_core::wire::MAX_LEN / 17) as u32;

impl<S: StateMachine> Wire for Snapshot<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.slot);
        put::u64(out, self.log_len);
        self.log_digest.encode(out);
        put::var_bytes(out, &self.state.snapshot());
        #[expect(
            clippy::cast_possible_truncation,
            reason = "snapshot reply-cache count: one entry per distinct client ever answered, >= 17 bytes each, and the decoder rejects counts above MAX_SNAPSHOT_REPLIES; reaching u32::MAX entries would need >68 GiB of reply cache"
        )]
        put::u32(out, self.replies.len() as u32);
        for (client, (seq, response)) in &self.replies {
            put::u64(out, *client);
            put::u64(out, *seq);
            response.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = r.u64()?;
        let log_len = r.u64()?;
        let log_digest = Digest::decode(r)?;
        let mut state = S::default();
        state.restore(r.var_bytes()?)?;
        let count = r.u32()?;
        // Reject attacker-sized counts before looping: a forged header
        // must not buy 4 billion decode iterations (nor let a future
        // preallocation here turn into an OOM).
        if count > MAX_SNAPSHOT_REPLIES {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        let mut replies = BTreeMap::new();
        for _ in 0..count {
            let client = r.u64()?;
            let seq = r.u64()?;
            let response = S::Response::decode(r)?;
            replies.insert(client, (seq, response));
        }
        Ok(Snapshot {
            slot,
            log_len,
            log_digest,
            state,
            replies,
        })
    }
}

/// A replica's signed attestation that its state at `slot` digests to
/// `digest`. A deterministic quorum of matching votes makes the
/// checkpoint *stable* — the truncation and state-transfer trigger. The
/// Schnorr signature is by the replica's key: checkpoint certificates must
/// not be forgeable by whoever happens to hold a TCP connection.
pub type CheckpointVote = Signed<CheckpointBody>;

/// The contents of a [`CheckpointVote`].
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointBody {
    /// The attesting replica.
    pub from: ReplicaId,
    /// The checkpoint slot (a multiple of the cluster's interval).
    pub slot: u64,
    /// The snapshot digest being attested.
    pub digest: Digest,
}

impl SignedBody for CheckpointBody {
    type Phase = ();
    fn domain((): ()) -> &'static [u8] {
        b"probft-checkpoint|"
    }
    fn signer(&self) -> ReplicaId {
        self.from
    }
}

impl Wire for CheckpointBody {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        put::u64(out, self.slot);
        self.digest.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(CheckpointBody {
            from: Wire::decode(r)?,
            slot: r.u64()?,
            digest: Wire::decode(r)?,
        })
    }
}

impl fmt::Display for CheckpointBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.digest.to_hex();
        write!(
            f,
            "checkpoint-vote r{} slot {} {}",
            self.from.0,
            self.slot,
            hex.get(..8).unwrap_or(&hex)
        )
    }
}

/// A laggard's request for the sender's stable checkpoint at or above
/// `min_slot`. Unsigned: replies are only sent from an already-held
/// stable checkpoint (no work is done on behalf of the requester), and
/// each replica sends a given peer at most one reply per stable
/// checkpoint — so the worst a forger reflecting requests at a victim
/// gains is one snapshot-sized frame per checkpoint per replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateRequest {
    /// The lowest stable checkpoint slot that would help the requester.
    pub min_slot: u64,
}

impl Wire for StateRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.min_slot);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(StateRequest { min_slot: r.u64()? })
    }
}

/// Most votes a transferred checkpoint certificate may carry on the wire
/// (anti-allocation bound; real certificates hold at most `n` votes).
pub const MAX_CERTIFICATE: u32 = 4096;

/// A stable-checkpoint snapshot in flight to a laggard. Carries the raw
/// encoded [`Snapshot`] together with its *certificate* — the quorum of
/// signed [`CheckpointVote`]s that stabilised it — so the reply proves
/// itself: the receiver verifies every signature, checks the quorum
/// count, and compares the attested digest against the payload's own.
/// No local vote state is needed, which is what makes unsolicited
/// catch-up pushes (a peer noticing traffic from a replica below its
/// stable checkpoint) safe to accept.
#[derive(Clone, Debug, PartialEq)]
pub struct StateReply {
    /// The checkpoint slot the payload captures.
    pub slot: u64,
    /// The encoded [`Snapshot`].
    pub snapshot: Vec<u8>,
    /// The quorum of signed votes attesting the snapshot's digest.
    pub certificate: Vec<CheckpointVote>,
}

impl Wire for StateReply {
    fn encode(&self, out: &mut Vec<u8>) {
        put::u64(out, self.slot);
        put::var_bytes(out, &self.snapshot);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "checkpoint certificate count: at most one signed vote per replica (n is small), and the decoder rejects counts above MAX_CERTIFICATE = 4096"
        )]
        put::u32(out, self.certificate.len() as u32);
        for vote in &self.certificate {
            vote.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let slot = r.u64()?;
        let snapshot = r.var_bytes()?.to_vec();
        let count = r.u32()?;
        if count > MAX_CERTIFICATE {
            return Err(WireError::LengthOverflow(u64::from(count)));
        }
        let mut certificate = Vec::with_capacity(count as usize);
        for _ in 0..count {
            certificate.push(CheckpointVote::decode(r)?);
        }
        Ok(StateReply {
            slot,
            snapshot,
            certificate,
        })
    }
}

/// Most distinct checkpoint slots a node tracks attestations for. Honest
/// clusters have votes in flight for one or two boundaries; a Byzantine
/// peer spraying far-future checkpoint slots (each costing it one signed
/// vote) hits this cap and evicts its own least-supported slots first.
pub const MAX_TRACKED_CHECKPOINT_SLOTS: usize = 64;

/// Most locally-taken checkpoints retained while awaiting stability; if
/// attestation quorums lag by more than this many intervals, the oldest
/// unstable snapshot is discarded (it can be rebuilt from newer ones).
const MAX_PENDING_CHECKPOINTS: usize = 4;

/// A locally produced checkpoint awaiting a stability quorum.
struct OwnCheckpoint {
    digest: Digest,
    /// Total log entries at the checkpoint (the truncation mark).
    log_len: u64,
    /// The encoded [`Snapshot`].
    bytes: Vec<u8>,
}

/// One node's side of the checkpoint protocol. It reads the node's agreed
/// state and sends through the node's [`Context`], but owns none of the
/// slot pipeline: what a stable checkpoint or a verified transfer means
/// for the log and the in-flight slots is handed back to the caller.
#[derive(Default)]
pub(crate) struct Checkpointer {
    /// Slots between checkpoints; 0 turns the protocol off.
    interval: u64,
    /// The node's pipeline depth: a stable checkpoint further than this
    /// beyond the apply frontier is one consensus can no longer reach.
    window: u64,
    /// Locally taken checkpoints awaiting a stability quorum, by slot.
    /// Bounded by [`MAX_PENDING_CHECKPOINTS`].
    own_checkpoints: BTreeMap<u64, OwnCheckpoint>,
    /// Checkpoint attestations by slot, one vote per replica (first one
    /// wins — a Byzantine double-vote never counts twice). The full
    /// signed votes are kept, so a stability quorum doubles as a
    /// transferable *certificate*. Bounded by
    /// [`MAX_TRACKED_CHECKPOINT_SLOTS`] slots of at most `n` votes each.
    votes: BTreeMap<u64, BTreeMap<ReplicaId, CheckpointVote>>,
    /// Per peer: the stable-checkpoint slot last sent to it. Caps
    /// snapshot sends at one per peer per stable checkpoint — a forged
    /// request cannot reflect more than one snapshot per checkpoint at a
    /// victim. Bounded by `n`.
    served_checkpoints: BTreeMap<ProcessId, u64>,
    /// The highest checkpoint this node saw become stable, as the reply
    /// it sends to laggards: snapshot plus certificate.
    stable: Option<StateReply>,
    /// A stable checkpoint known to exist beyond this node's pipeline
    /// window — state transfer has been requested and not yet completed.
    transfer_wanted: Option<(u64, Digest)>,
    /// Obs-clock micros of the previous local checkpoint (drives the
    /// checkpoint-interval histogram).
    last_checkpoint_at: Option<u64>,
    /// Obs-clock micros at which the outstanding state transfer was
    /// requested (drives the state-transfer duration histogram).
    transfer_started_at: Option<u64>,
}

impl Checkpointer {
    pub(crate) fn new(interval: usize, pipeline_depth: usize) -> Self {
        Checkpointer {
            interval: interval as u64,
            window: pipeline_depth as u64,
            ..Checkpointer::default()
        }
    }

    /// The highest checkpoint this node saw become stable, if any.
    pub(crate) fn stable(&self) -> Option<&StateReply> {
        self.stable.as_ref()
    }

    fn stable_slot(&self) -> u64 {
        self.stable.as_ref().map_or(0, |s| s.slot)
    }

    /// Whether `slot` is a boundary this cluster checkpoints at.
    fn is_boundary(&self, slot: u64) -> bool {
        self.interval != 0 && slot != 0 && slot.is_multiple_of(self.interval)
    }

    /// With `applied` standing at an interval boundary: encodes it,
    /// remembers the encoding pending stability, and broadcasts a signed
    /// attestation of its digest. Returns the log length to truncate to
    /// if this node's own vote completed the quorum.
    pub(crate) fn maybe_take_checkpoint<S: StateMachine>(
        &mut self,
        applied: &Snapshot<S>,
        seat: &Seat,
        obs: &Obs,
        ctx: &mut Context<'_, SmrMessage>,
    ) -> Option<u64> {
        let slot = applied.slot;
        if !self.is_boundary(slot)
            || slot <= self.stable_slot()
            || self.own_checkpoints.contains_key(&slot)
        {
            return None;
        }
        let bytes = applied.to_wire_bytes();
        let digest = Snapshot::<S>::digest(&bytes);
        self.own_checkpoints.insert(
            slot,
            OwnCheckpoint {
                digest,
                log_len: applied.log_len,
                bytes,
            },
        );
        // Stability quorums normally lag by a round-trip, not by whole
        // intervals; if they do fall behind, the oldest pending snapshot
        // is expendable (a newer one subsumes it).
        while self.own_checkpoints.len() > MAX_PENDING_CHECKPOINTS {
            self.own_checkpoints.pop_first();
        }
        obs.checkpoints_taken.inc();
        let now = obs.now_micros();
        if let Some(prev) = self.last_checkpoint_at.replace(now) {
            obs.checkpoint_interval_us.record(now.saturating_sub(prev));
        }
        obs.trace(TraceKind::CheckpointVote { slot });
        let vote = CheckpointVote::sign(
            &seat.sk,
            CheckpointBody {
                from: seat.id,
                slot,
                digest,
            },
        );
        for peer in seat.cfg.all_replicas().filter(|&peer| peer != seat.id) {
            let to = ProcessId(peer.index());
            ctx.send(to, SmrMessage::CheckpointVote(vote.clone()));
        }
        // Peers may have attested this boundary before we reached it;
        // recording our own vote may complete the quorum right here.
        self.record_vote(vote, slot, seat, obs, ctx)
    }

    /// Handles a peer's attestation. The signature, not the connection,
    /// authenticates it — checkpoint certificates must be as unforgeable
    /// as the consensus votes they garbage-collect. Returns the log
    /// length to truncate to if the vote made a checkpoint stable here.
    pub(crate) fn handle_vote(
        &mut self,
        vote: CheckpointVote,
        next_apply: u64,
        seat: &Seat,
        obs: &Obs,
        ctx: &mut Context<'_, SmrMessage>,
    ) -> Option<u64> {
        if vote.verify_signature(&seat.keys).is_err() {
            obs.drops_invalid_checkpoint.inc();
            return None;
        }
        self.record_vote(vote, next_apply, seat, obs, ctx)
    }

    /// Records one (already signature-checked) attestation and acts if it
    /// completes a quorum. One vote per replica per slot; tracked slots
    /// are bounded against far-future checkpoint spray.
    fn record_vote(
        &mut self,
        vote: CheckpointVote,
        next_apply: u64,
        seat: &Seat,
        obs: &Obs,
        ctx: &mut Context<'_, SmrMessage>,
    ) -> Option<u64> {
        let slot = vote.slot;
        if !self.is_boundary(slot) {
            obs.drops_invalid_checkpoint.inc();
            return None;
        }
        if slot <= self.stable_slot() {
            return None; // old news, already stable here
        }
        let slot_votes = self.votes.entry(slot).or_default();
        if slot_votes.contains_key(&vote.from) {
            return None; // first vote per replica per slot wins
        }
        slot_votes.insert(vote.from, vote);
        if self.votes.len() > MAX_TRACKED_CHECKPOINT_SLOTS {
            // Evict the least-supported tracked slot (ties: the highest,
            // i.e. the most future — the shape of a spray).
            let tracked = self.votes.iter();
            let (&evict, _) = tracked.min_by_key(|(s, v)| (v.len(), std::cmp::Reverse(**s)))?;
            self.votes.remove(&evict);
            obs.drops_invalid_checkpoint.inc();
            if evict == slot {
                return None;
            }
        }
        self.check_stability(slot, next_apply, seat, obs, ctx)
    }

    /// The recorded votes attesting exactly (`slot`, `digest`).
    fn attesters(&self, slot: u64, digest: Digest) -> impl Iterator<Item = &CheckpointVote> {
        self.votes
            .get(&slot)
            .into_iter()
            .flat_map(BTreeMap::values)
            .filter(move |vote| vote.digest == digest)
    }

    /// If `slot` has a digest attested by a deterministic quorum, the
    /// checkpoint is stable: adopt-and-truncate if we have applied that
    /// far, or request a snapshot transfer if it is beyond the pipeline
    /// window (consensus cannot recover those slots — peers prune decided
    /// slot state on apply and never retransmit).
    fn check_stability(
        &mut self,
        slot: u64,
        next_apply: u64,
        seat: &Seat,
        obs: &Obs,
        ctx: &mut Context<'_, SmrMessage>,
    ) -> Option<u64> {
        let quorum = seat.cfg.deterministic_quorum();
        let mut counts: BTreeMap<Digest, usize> = BTreeMap::new();
        for vote in self.votes.get(&slot)?.values() {
            *counts.entry(vote.digest).or_default() += 1;
        }
        let (&digest, _) = counts.iter().find(|(_, &count)| count >= quorum)?;
        if slot <= next_apply {
            return self.adopt_stable(slot, digest, obs);
        }
        if slot > next_apply.saturating_add(self.window)
            && self.transfer_wanted != Some((slot, digest))
        {
            // Beyond anything in-flight consensus can still decide for
            // us: fetch the snapshot from the replicas that attested it.
            // `f + 1` recipients guarantee at least one honest holder
            // without soliciting a quorum's worth of redundant
            // snapshot-sized replies; the next boundary's quorum is the
            // retry path if all of them fail.
            self.transfer_wanted = Some((slot, digest));
            self.transfer_started_at = Some(obs.now_micros());
            obs.trace(TraceKind::StateTransferStart { slot });
            let holders = self.attesters(slot, digest).filter(|v| v.from != seat.id);
            for vote in holders.take(seat.cfg.faults() + 1) {
                let request = SmrMessage::StateRequest(StateRequest { min_slot: slot });
                ctx.send(ProcessId(vote.from.index()), request);
            }
        }
        // Otherwise the slot is inside the pipeline window: in-flight
        // consensus will carry us there, and our own checkpoint at that
        // boundary will re-run this check and adopt.
        None
    }

    /// Marks `slot` stable and forgets everything at or below it: older
    /// pending checkpoints and votes. Returns the checkpoint's log length,
    /// below which the caller truncates its resident log.
    fn adopt_stable(&mut self, slot: u64, digest: Digest, obs: &Obs) -> Option<u64> {
        // No pending snapshot: it was evicted, and the next boundary will
        // stabilise instead.
        if self.own_checkpoints.get(&slot)?.digest != digest {
            // A quorum attested a state we do not hold: this replica has
            // diverged (or the quorum is corrupt). Keep serving from the
            // old checkpoint and surface the disagreement as a drop.
            obs.drops_invalid_checkpoint.inc();
            return None;
        }
        let own = self.own_checkpoints.remove(&slot)?;
        obs.stable_slot.set(slot);
        obs.trace(TraceKind::CheckpointStable { slot });
        // The quorum of signed votes is the checkpoint's certificate:
        // kept alongside the snapshot so served/pushed copies prove
        // themselves to receivers with no vote state of their own.
        self.stable = Some(StateReply {
            slot,
            snapshot: own.bytes,
            certificate: self.attesters(slot, digest).cloned().collect(),
        });
        self.own_checkpoints.retain(|&s, _| s > slot);
        self.votes.retain(|&s, _| s > slot);
        if self.transfer_wanted.is_some_and(|(s, _)| s <= slot) {
            self.transfer_wanted = None;
        }
        Some(own.log_len)
    }

    /// Sends the stable checkpoint (snapshot + certificate) to `to` if it
    /// is at or above `min_slot` and that peer was not already sent it.
    /// Serves a laggard's [`StateRequest`], and pushes to a peer observed
    /// sending traffic for a slot *below* the stable checkpoint
    /// (`min_slot` = that slot + 1): those slots are truncated
    /// cluster-wide and the votes that said so were broadcast once, long
    /// ago, so the checkpoint must come to it — the self-proving
    /// certificate makes the unsolicited reply safe to accept.
    ///
    /// The once-per-peer-per-checkpoint cap keeps the unauthenticated
    /// request harmless: `to` is only as trusted as the connection that
    /// named it, so without the cap a forger could reflect unbounded
    /// snapshot-sized replies at a third replica. A genuine laggard whose
    /// one reply is lost retries via the next boundary's quorum (a *new*
    /// stable slot, which re-arms the cap).
    pub(crate) fn send_checkpoint(
        &mut self,
        to: ProcessId,
        min_slot: u64,
        seat: &Seat,
        obs: &Obs,
        ctx: &mut Context<'_, SmrMessage>,
    ) {
        let Some(stable) = self.stable.as_ref().filter(|s| s.slot >= min_slot) else {
            return;
        };
        let served = self.served_checkpoints.get(&to);
        if to.index() >= seat.cfg.n() || served.is_some_and(|&sent| sent >= stable.slot) {
            return;
        }
        self.served_checkpoints.insert(to, stable.slot);
        obs.snapshots_served.inc();
        ctx.send(to, SmrMessage::StateReply(stable.clone()));
    }

    /// Verifies a transferred snapshot against its embedded certificate
    /// and, if it is one this node should jump to, installs it as the
    /// stable checkpoint and returns it for the caller to restore from.
    /// The reply is self-proving: every vote in the certificate must
    /// carry a valid Schnorr signature over the same `(slot, digest)`,
    /// distinct signers must reach the deterministic quorum, and the
    /// attested digest must equal the payload's own — so both solicited
    /// replies and unsolicited catch-up pushes are accepted on identical
    /// evidence, and no local vote state is required.
    pub(crate) fn handle_state_reply<S: StateMachine>(
        &mut self,
        rep: StateReply,
        next_apply: u64,
        seat: &Seat,
        obs: &Obs,
    ) -> Option<Snapshot<S>> {
        if self.interval == 0 || !rep.slot.is_multiple_of(self.interval) {
            obs.drops_invalid_checkpoint.inc();
            return None;
        }
        // Mirror the request condition: a transfer is only *useful* (and
        // only ever requested or pushed) for a checkpoint beyond the
        // pipeline window. A replayed-but-genuine reply for an in-window
        // slot must not wipe live in-flight consensus state — those
        // slots' traffic was already consumed and peers never retransmit.
        if rep.slot <= next_apply.saturating_add(self.window) {
            return None;
        }
        let digest = Snapshot::<S>::digest(&rep.snapshot);
        let snapshot = certificate_proves(&rep, digest, seat)
            .then(|| Snapshot::<S>::from_wire_bytes(&rep.snapshot).ok())
            .flatten()
            .filter(|snapshot| snapshot.slot == rep.slot);
        let Some(snapshot) = snapshot else {
            obs.drops_invalid_checkpoint.inc();
            return None;
        };
        let bytes = rep.snapshot.len() as u64;
        obs.stable_slot.set(rep.slot);
        obs.state_transfers.inc();
        obs.state_transfer_bytes.add(bytes);
        if let Some(started) = self.transfer_started_at.take() {
            obs.state_transfer_us
                .record(obs.now_micros().saturating_sub(started));
        }
        obs.trace(TraceKind::StateTransferDone {
            slot: rep.slot,
            bytes,
        });
        self.own_checkpoints.clear();
        self.votes.retain(|&s, _| s > rep.slot);
        self.transfer_wanted = None;
        self.stable = Some(rep);
        Some(snapshot)
    }
}

/// Whether a reply's certificate is a valid stability quorum for exactly
/// (`rep.slot`, `digest`). Strict: one malformed vote damns the whole
/// certificate (honest senders only ship valid ones).
fn certificate_proves(rep: &StateReply, digest: Digest, seat: &Seat) -> bool {
    let mut signers = BTreeSet::new();
    for vote in &rep.certificate {
        if vote.slot != rep.slot
            || vote.digest != digest
            || vote.from.index() >= seat.cfg.n()
            || vote.verify_signature(&seat.keys).is_err()
        {
            return false;
        }
        signers.insert(vote.from);
    }
    signers.len() >= seat.cfg.deterministic_quorum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Command, KvResponse, KvStore};
    use probft_core::config::ProbftConfig;
    use probft_core::error::RejectReason;
    use probft_crypto::keyring::Keyring;
    use probft_simnet::process::Action;
    use probft_simnet::time::SimTime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Peepholes for this crate's tests (the node's included).
    impl Checkpointer {
        /// The digest and encoding of the pending checkpoint at `slot`.
        pub(crate) fn own_checkpoint(&self, slot: u64) -> Option<(Digest, &[u8])> {
            let own = self.own_checkpoints.get(&slot)?;
            Some((own.digest, &own.bytes))
        }

        /// The stable checkpoint a transfer has been requested for.
        pub(crate) fn transfer_wanted(&self) -> Option<(u64, Digest)> {
            self.transfer_wanted
        }
    }

    fn sample_snapshot() -> Snapshot<KvStore> {
        let mut state = KvStore::new();
        state.apply(&Command::Put {
            key: "a".into(),
            value: "1".into(),
        });
        let mut replies = BTreeMap::new();
        replies.insert(7, (3, KvResponse::Prev(None)));
        replies.insert(9, (1, KvResponse::Value(Some("1".into()))));
        Snapshot {
            slot: 32,
            log_len: 40,
            log_digest: Sha256::digest(b"log"),
            state,
            replies,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.to_wire_bytes();
        let decoded = Snapshot::<KvStore>::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        assert_eq!(Snapshot::<KvStore>::digest(&bytes), {
            let again = decoded.to_wire_bytes();
            Snapshot::<KvStore>::digest(&again)
        });
    }

    #[test]
    fn snapshot_rejects_truncation() {
        let bytes = sample_snapshot().to_wire_bytes();
        for len in [0, 8, bytes.len() - 1] {
            assert!(
                Snapshot::<KvStore>::from_wire_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn snapshot_rejects_forged_reply_count_without_looping() {
        // A frame whose header advertises u32::MAX reply-cache entries is
        // an attack: the decoder must reject the count up front (typed
        // LengthOverflow), not start a 4-billion-iteration decode loop
        // that only dies on reader exhaustion.
        let mut snapshot = sample_snapshot();
        snapshot.replies.clear();
        let mut bytes = snapshot.to_wire_bytes();
        // With the reply map cleared, the count u32 is the final field of
        // the encoding: strip the honest zero and splice in a forged one.
        let len = bytes.len();
        bytes.truncate(len - 4);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Snapshot::<KvStore>::from_wire_bytes(&bytes),
            Err(WireError::LengthOverflow(u64::from(u32::MAX)))
        );
    }

    #[test]
    fn vote_signature_binds_sender_slot_and_digest() {
        let keyring = Keyring::generate(4, b"checkpoint-tests");
        let keys = keyring.public();
        let digest = Sha256::digest(b"snapshot");
        let vote = CheckpointVote::sign(
            keyring.signing_key(1).unwrap(),
            CheckpointBody {
                from: ReplicaId(1),
                slot: 32,
                digest,
            },
        );
        assert_eq!(vote.verify_signature(&keys), Ok(()));

        // Any tampering invalidates the signature.
        let mut wrong_slot = vote.clone();
        wrong_slot.body.slot = 64;
        assert_eq!(
            wrong_slot.verify_signature(&keys),
            Err(RejectReason::BadSignature)
        );
        let mut wrong_sender = vote.clone();
        wrong_sender.body.from = ReplicaId(2);
        assert_eq!(
            wrong_sender.verify_signature(&keys),
            Err(RejectReason::BadSignature)
        );
        let mut wrong_digest = vote.clone();
        wrong_digest.body.digest = Sha256::digest(b"other");
        assert_eq!(
            wrong_digest.verify_signature(&keys),
            Err(RejectReason::BadSignature)
        );
        // Out-of-range sender: no key to verify against.
        let mut out_of_range = vote.clone();
        out_of_range.body.from = ReplicaId(9);
        assert_eq!(
            out_of_range.verify_signature(&keys),
            Err(RejectReason::UnknownSender(ReplicaId(9)))
        );

        // And the vote survives the wire.
        let bytes = vote.to_wire_bytes();
        let decoded = CheckpointVote::from_wire_bytes(&bytes).unwrap();
        assert_eq!(decoded, vote);
        assert_eq!(decoded.verify_signature(&keys), Ok(()));
    }

    #[test]
    fn transfer_frames_round_trip() {
        let req = StateRequest { min_slot: 96 };
        assert_eq!(
            StateRequest::from_wire_bytes(&req.to_wire_bytes()).unwrap(),
            req
        );
        let keyring = Keyring::generate(4, b"checkpoint-tests");
        let snapshot = sample_snapshot().to_wire_bytes();
        let digest = Snapshot::<KvStore>::digest(&snapshot);
        let rep = StateReply {
            slot: 96,
            snapshot,
            certificate: (0..3).map(|i| vote(&keyring, i, 96, digest)).collect(),
        };
        assert_eq!(
            StateReply::from_wire_bytes(&rep.to_wire_bytes()).unwrap(),
            rep
        );
        // An absurd certificate count must fail before allocating.
        let mut huge = Vec::new();
        put::u64(&mut huge, 96);
        put::var_bytes(&mut huge, b"snap");
        put::u32(&mut huge, u32::MAX);
        assert!(StateReply::from_wire_bytes(&huge).is_err());
    }

    /// Replica `id`'s seat in the 4-replica cluster of `ring` (stability
    /// quorum 3), with the obs bundle and RNG a checkpointer call needs.
    fn seat(ring: &Keyring, id: usize) -> (Seat, Obs, StdRng) {
        let seat = Seat {
            cfg: ProbftConfig::builder(4).build_shared(),
            id: ReplicaId::from(id),
            sk: ring.signing_key(id).unwrap().clone(),
            keys: Arc::new(ring.public()),
        };
        (seat, Obs::new("test"), StdRng::seed_from_u64(1))
    }

    fn vote(ring: &Keyring, from: usize, slot: u64, digest: Digest) -> CheckpointVote {
        let body = CheckpointBody {
            from: ReplicaId::from(from),
            slot,
            digest,
        };
        CheckpointVote::sign(ring.signing_key(from).unwrap(), body)
    }

    /// The agreed state after `slots` one-PUT slots.
    fn applied_through(slots: u64) -> Snapshot<KvStore> {
        let mut applied = Snapshot::<KvStore>::genesis();
        for i in 0..slots {
            applied.apply_entry(&Entry::write(Command::Put {
                key: format!("k{i}"),
                value: "v".into(),
            }));
            applied.slot = i + 1;
        }
        applied
    }

    /// A Byzantine replica's *valid* votes for 200 distinct future
    /// boundaries cost it one signature each and buy it nothing: tracked
    /// slots stay capped, the spray evicts its own highest slots, every
    /// eviction is counted, and an honest boundary with more support is
    /// never the victim.
    #[test]
    fn checkpoint_slot_spray_evicts_itself_not_an_honest_boundary() {
        let ring = Keyring::generate(4, b"checkpoint-tests");
        let (seat, obs, mut rng) = seat(&ring, 0);
        let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
        let mut ckpt = Checkpointer::new(2, 4);
        let honest = Sha256::digest(b"honest");
        for from in [1, 2] {
            ckpt.handle_vote(vote(&ring, from, 2, honest), 0, &seat, &obs, &mut ctx);
        }
        // Highest first, so every eviction has an older victim to pick.
        for boundary in (2..=201u64).rev() {
            let sprayed = vote(&ring, 3, 2 * boundary, Sha256::digest(b"spray"));
            ckpt.handle_vote(sprayed, 0, &seat, &obs, &mut ctx);
        }
        assert_eq!(ckpt.votes.len(), MAX_TRACKED_CHECKPOINT_SLOTS);
        assert_eq!(ckpt.votes[&2].len(), 2, "the honest boundary survives");
        // What is left of the spray is its 63 *lowest* slots: the highest
        // single-vote slot went first each time.
        let tracked: Vec<u64> = ckpt.votes.keys().copied().collect();
        assert_eq!(tracked, (1..=64).map(|b| 2 * b).collect::<Vec<u64>>());
        assert_eq!(obs.drops_invalid_checkpoint.get(), 201 - 64);
        assert!(ctx.drain_actions().is_empty(), "no quorum, nothing sent");
    }

    /// Stability lagging by more than `MAX_PENDING_CHECKPOINTS` intervals
    /// costs the oldest pending snapshot — a quorum for it then adopts
    /// nothing — and the next boundary still stabilises and truncates.
    #[test]
    fn lagging_stability_drops_the_oldest_snapshot_and_the_next_still_stabilises() {
        let ring = Keyring::generate(4, b"checkpoint-tests");
        let (seat, obs, mut rng) = seat(&ring, 0);
        let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
        let mut ckpt = Checkpointer::new(2, 1);
        let boundaries = MAX_PENDING_CHECKPOINTS as u64 + 1;
        for boundary in 1..=boundaries {
            let applied = applied_through(2 * boundary);
            assert_eq!(
                ckpt.maybe_take_checkpoint(&applied, &seat, &obs, &mut ctx),
                None
            );
        }
        assert_eq!(obs.checkpoints_taken.get(), boundaries);
        assert_eq!(ckpt.own_checkpoints.len(), MAX_PENDING_CHECKPOINTS);
        assert!(ckpt.own_checkpoint(2).is_none(), "the oldest went");

        let next_apply = 2 * boundaries;
        let digest_of = |slot| Snapshot::<KvStore>::digest(&applied_through(slot).to_wire_bytes());
        for from in [1, 2] {
            let late = vote(&ring, from, 2, digest_of(2));
            let stable = ckpt.handle_vote(late, next_apply, &seat, &obs, &mut ctx);
            assert_eq!(stable, None, "nothing left to adopt at slot 2");
        }
        assert!(ckpt.stable().is_none());
        assert_eq!(obs.drops_invalid_checkpoint.get(), 0);

        let first = vote(&ring, 1, 4, digest_of(4));
        assert_eq!(
            ckpt.handle_vote(first, next_apply, &seat, &obs, &mut ctx),
            None
        );
        let second = vote(&ring, 2, 4, digest_of(4));
        assert_eq!(
            ckpt.handle_vote(second, next_apply, &seat, &obs, &mut ctx),
            Some(4),
            "slot 4 stabilises: truncate the log to its four entries"
        );
        assert_eq!(ckpt.stable().expect("stable").slot, 4);
        assert_eq!(obs.stable_slot.get(), 4);
        assert!(ckpt.votes.keys().all(|&slot| slot > 4));
    }

    /// The two refusals of the guarded send: a request for more than the
    /// stable checkpoint covers, and a second request from a peer already
    /// sent this checkpoint, put nothing on the wire.
    #[test]
    fn state_request_above_stable_or_from_a_served_peer_sends_nothing() {
        let ring = Keyring::generate(4, b"checkpoint-tests");
        let (seat, obs, mut rng) = seat(&ring, 0);
        let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO, &mut rng);
        let mut ckpt = Checkpointer::new(2, 1);
        let applied = applied_through(2);
        ckpt.maybe_take_checkpoint(&applied, &seat, &obs, &mut ctx);
        let digest = ckpt.own_checkpoint(2).expect("own").0;
        for from in [1, 2] {
            ckpt.handle_vote(vote(&ring, from, 2, digest), 2, &seat, &obs, &mut ctx);
        }
        assert_eq!(ckpt.stable().expect("stable").slot, 2);
        ctx.drain_actions();

        ckpt.send_checkpoint(ProcessId(3), 4, &seat, &obs, &mut ctx);
        assert!(ctx.drain_actions().is_empty(), "asked for more than held");
        ckpt.send_checkpoint(ProcessId(9), 2, &seat, &obs, &mut ctx);
        assert!(ctx.drain_actions().is_empty(), "no such replica");

        ckpt.send_checkpoint(ProcessId(3), 2, &seat, &obs, &mut ctx);
        let sent = ctx.drain_actions();
        assert_eq!(sent.len(), 1);
        let Some(Action::Send {
            to: ProcessId(3),
            msg: SmrMessage::StateReply(rep),
        }) = sent.first()
        else {
            panic!("expected one StateReply to replica 3, got {sent:?}");
        };
        assert_eq!(Some(rep), ckpt.stable());

        ckpt.send_checkpoint(ProcessId(3), 2, &seat, &obs, &mut ctx);
        assert!(ctx.drain_actions().is_empty(), "already served");
        assert_eq!(obs.snapshots_served.get(), 1);
    }
}
