//! State-machine replication by pipelining batched ProBFT instances: the
//! slot pipeline.
//!
//! The paper's future work (§7) proposes "leveraging ProBFT for
//! constructing a scalable state machine replication protocol". This module
//! is that construction grown into a throughput engine over a *generic*
//! [`StateMachine`]: one ProBFT consensus instance per log slot, where
//!
//! * **batching** — each decided [`Value`] carries a [`Batch`] of
//!   [`Entry`]s (opaque operations plus client tags), so one consensus
//!   round amortises over many operations, and
//! * **pipelining** — up to [`SmrSettings::pipeline_depth`] slots run
//!   concurrently. Decisions may arrive out of slot order; they are
//!   buffered and applied to the state machine strictly in order, so the
//!   replicated state is identical to a sequential (`depth = 1`) run.
//!
//! Each [`SmrNode`] hosts one Algorithm-1 instance per slot in flight and
//! multiplexes their traffic over one simulated (or real) network by
//! wrapping every message in a [`SlotMessage`]. The instances are the
//! consensus core's own [`ReplicaInstance`]s, driven through the
//! simulator's embedding API ([`Context::detached`] +
//! [`Context::drain_actions`]): the SMR layer is *pure orchestration*, so
//! any fix to the consensus core is inherited here.
//!
//! **The view is a property of the log, held once**: the node owns the
//! one [`Synchronizer`], and with it the one view timer, and an instance
//! holds only what is per slot. A slot is born in the log's view, and a
//! view change moves every slot in flight at once (DESIGN.md, "One view
//! per log", has the six rules and why they are safe).
//!
//! The node is the pipeline and nothing else: which slots are open, what
//! each proposes, where their traffic goes, the view they share, and the
//! in-order apply frontier. Two owned values from [`checkpoint`](crate::checkpoint)
//! sit beside it. The **agreed state** is one live [`Snapshot`] (next slot
//! to apply, log length and digest, the machine, the reply cache), fed
//! decided entries through its one apply method; the node keeps only the
//! *resident* log suffix next to it. The **checkpointer** is the whole
//! checkpoint / state-transfer protocol: the node hands it checkpoint
//! votes, state requests and state replies, and acts on the two things it
//! hands back — truncate the resident log to this length; restore from
//! this verified snapshot.
//!
//! Applying an entry yields the machine's typed
//! [`Response`](StateMachine::Response), which is recorded per client (the
//! reply cache behind at-most-once retries) and surfaced through
//! [`SmrNode::drain_applied`] so the client front-end
//! ([`Frontend`](crate::frontend::Frontend)) can answer the submitting
//! client with the actual result, not a bare acknowledgement.

use crate::bounded::Bounded;
use crate::checkpoint::{CheckpointVote, Checkpointer, Snapshot, StateReply, StateRequest};
use crate::machine::{Batch, Entry, RequestId, StateMachine, MAX_BATCH};
use crate::nemesis::ReplicaReport;
use probft_core::config::{SharedConfig, View};
use probft_core::message::Message;
use probft_core::message::Wish;
use probft_core::replica::ReplicaInstance;
use probft_core::shell::Seat;
use probft_core::synchronizer::{SyncAction, Synchronizer};
use probft_core::value::Value;
use probft_core::wire::Wire;
use probft_core::wire_fields;
use probft_crypto::keyring::PublicKeyring;
use probft_crypto::schnorr::SigningKey;
use probft_crypto::sha256::Digest;
use probft_obs::{Obs, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::metrics::Measurable;
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A consensus message tagged with its log slot.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotMessage {
    /// The log slot this message belongs to.
    pub slot: u64,
    /// The inner single-shot ProBFT message.
    pub inner: Message,
}

impl Measurable for SlotMessage {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
}

wire_fields! { impl Wire for SlotMessage { slot, inner } }

/// Everything one [`SmrNode`] says to another: per-slot consensus traffic
/// plus the checkpoint subsystem's attestations and snapshot transfers.
/// The simulator delivers these directly; the live runtime maps each
/// variant onto its own self-describing `SmrFrame`.
///
/// [`wire_size`](Measurable::wire_size) charges a tag byte and the
/// payload. On sockets the `Peer`, `StateRequest` and `StateReply` frames
/// also carry the sender's u32 id, so per-kind bytes counted live read 4 B
/// a message above the simulator's (≈ 3.4 % of a 118 B vote frame).
#[derive(Clone, Debug, PartialEq)]
pub enum SmrMessage {
    /// Slot-tagged single-shot consensus traffic.
    Slot(SlotMessage),
    /// A signed checkpoint attestation.
    CheckpointVote(CheckpointVote),
    /// A laggard asking for a stable-checkpoint snapshot.
    StateRequest(StateRequest),
    /// A stable-checkpoint snapshot in flight to a laggard.
    StateReply(StateReply),
}

impl Measurable for SmrMessage {
    fn kind(&self) -> &'static str {
        match self {
            SmrMessage::Slot(m) => m.kind(),
            SmrMessage::CheckpointVote(_) => "checkpoint-vote",
            SmrMessage::StateRequest(_) => "state-request",
            SmrMessage::StateReply(_) => "state-reply",
        }
    }
    fn wire_size(&self) -> usize {
        let payload = match self {
            SmrMessage::Slot(m) => m.wire_len(),
            SmrMessage::CheckpointVote(v) => v.wire_len(),
            SmrMessage::StateRequest(r) => r.wire_len(),
            SmrMessage::StateReply(r) => r.wire_len(),
        };
        payload.saturating_add(1)
    }
}

/// Replication parameters shared by every node of a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmrSettings {
    /// Stop opening new slots once this many entries are applied.
    pub target_len: usize,
    /// How many slots may run consensus concurrently (≥ 1; 1 reproduces
    /// the strictly sequential chain).
    pub pipeline_depth: usize,
    /// Most entries a proposer packs into one slot's batch (≥ 1) — the
    /// workload mode's static cap, ignored in [`serving`](Self::serving)
    /// mode, which sizes every batch from the queue depth and caps it at
    /// [`MAX_BATCH`] instead.
    pub batch_size: usize,
    /// Serving mode (the live cluster's; [`SmrSettings::live`]) instead of
    /// workload mode (the simulator's). It changes two things.
    ///
    /// * **Demand-driven slot opening**: a node opens a slot only when it
    ///   holds pending entries to propose, or when peer traffic for an
    ///   in-window slot arrives. In workload mode slots open eagerly up to
    ///   the pipeline window until `target_len` is reached.
    /// * **Adaptive batching**: each proposed batch is sized from the
    ///   *observed* pending-queue depth — targeting a drain of the whole
    ///   queue across the slots the pipeline window can still open —
    ///   instead of the static `batch_size` cap. Under light load batches
    ///   stay small (one consensus round per operation, minimal latency);
    ///   under a deep queue they grow up to the wire cap ([`MAX_BATCH`]),
    ///   so throughput scales with offered load instead of collapsing into
    ///   per-op rounds. The choice is proposer-local (followers decide on
    ///   whatever value was proposed), so it never affects agreement.
    pub serving: bool,
    /// Take a checkpoint every this many applied slots (0 disables the
    /// checkpoint subsystem). With a quorum of matching attestations the
    /// checkpoint becomes *stable*: the command log is truncated below it
    /// and laggards past the buffering horizon catch up by snapshot
    /// transfer instead of log replay.
    pub checkpoint_interval: usize,
    /// Admission control: most entries the pending queue may hold before
    /// the node reports itself [`overloaded`](SmrNode::overloaded)
    /// (0 = unbounded). The client front-end sheds submissions with an
    /// explicit `Overloaded` reply at that point instead of queueing
    /// without bound and collapsing.
    pub max_pending: usize,
}

impl SmrSettings {
    /// Sequential, one-entry-per-slot replication of `target_len`
    /// entries — the baseline configuration.
    pub fn sequential(target_len: usize) -> Self {
        SmrSettings {
            target_len,
            pipeline_depth: 1,
            batch_size: 1,
            serving: false,
            checkpoint_interval: 0,
            max_pending: 0,
        }
    }

    /// Open-ended [`serving`](Self::serving) replication for a live
    /// cluster: no target length, slots open only for what actually
    /// arrived, batches sized adaptively. Checkpointing starts disabled;
    /// set [`checkpoint_interval`](Self::checkpoint_interval) to bound the
    /// resident log.
    pub fn live(pipeline_depth: usize) -> Self {
        SmrSettings {
            pipeline_depth,
            serving: true,
            ..SmrSettings::sequential(usize::MAX)
        }
        .normalized()
    }

    fn normalized(mut self) -> Self {
        self.pipeline_depth = self.pipeline_depth.max(1);
        self.batch_size = self.batch_size.max(1);
        self
    }

    /// How many slots ahead of the lowest unapplied slot this node
    /// buffers traffic for. With checkpointing enabled the horizon is
    /// tight — anyone dropped beyond it recovers by snapshot state
    /// transfer. Without it there is no recovery path for a stranded
    /// laggard (peers prune decided slots and never retransmit), so the
    /// wide pre-checkpointing slack is kept.
    pub fn future_window(&self) -> u64 {
        let depth = self.pipeline_depth as u64;
        if self.checkpoint_interval == 0 {
            depth
                .saturating_mul(FALLBACK_FUTURE_WINDOW_DEPTHS)
                .max(FALLBACK_MIN_FUTURE_WINDOW)
        } else {
            depth
                .saturating_mul(FUTURE_WINDOW_DEPTHS)
                .max(MIN_FUTURE_WINDOW)
        }
    }
}

/// Most messages buffered for any single not-yet-opened slot. Honest
/// replicas send a small constant number of messages per slot per view;
/// anything past this is a misbehaving peer flooding one slot.
pub const MAX_BUFFERED_PER_SLOT: usize = 1024;

/// How many slots ahead of the lowest unapplied slot a node accepts
/// buffered traffic for, as a multiple of the pipeline depth (with a
/// floor, so shallow pipelines still tolerate honest skew) — when
/// checkpointing is enabled. Peers can transiently run ahead of a
/// lagging replica — their quorums need not include the laggard — so one
/// extra pipeline window of slack absorbs honest skew; beyond that, the
/// sender is either Byzantine (spraying far-future slot numbers) or far
/// enough ahead that the laggard recovers by checkpoint state transfer,
/// so the message is dropped and counted instead of growing memory.
pub const FUTURE_WINDOW_DEPTHS: u64 = 2;

/// Floor for the buffering horizon in slots, with checkpointing enabled.
pub const MIN_FUTURE_WINDOW: u64 = 8;

/// The buffering horizon multiple with checkpointing *disabled*: no
/// state transfer exists, so dropping honest in-horizon traffic would
/// strand a laggard forever — the horizon errs wide, as it did before
/// the checkpoint subsystem.
pub const FALLBACK_FUTURE_WINDOW_DEPTHS: u64 = 4;

/// Floor for the buffering horizon in slots, with checkpointing
/// disabled.
pub const FALLBACK_MIN_FUTURE_WINDOW: u64 = 16;

/// Hard ceiling on the locally pending (submitted but unproposed) entry
/// queue, the cap of its bounded type. Admission control
/// ([`SmrNode::overloaded`] against the configurable
/// `SmrSettings::max_pending`) is the *caller's* shedding policy and can
/// be disabled; this cap is the node's own memory bound and cannot.
pub const MAX_PENDING_ENTRIES: usize = 65_536;

/// Notification that a client-tagged entry reached the applied log —
/// drained by the client front-end to answer the submitting client with
/// the typed response.
#[derive(Clone, Debug, PartialEq)]
pub struct AppliedRequest<R> {
    /// The request that was applied.
    pub request: RequestId,
    /// The log slot whose batch carried it.
    pub slot: u64,
    /// Whether the operation executed against the state machine. `false`
    /// means this decided entry was a duplicate of an already-applied
    /// request (a client retry that got ordered twice) and was skipped —
    /// the at-most-once guarantee in action. The `response` is then the
    /// cached result of the original execution.
    pub executed: bool,
    /// What the operation returned.
    pub response: R,
}

/// A replica of the replicated state machine, generic over the
/// application [`StateMachine`] it hosts.
pub struct SmrNode<S: StateMachine> {
    /// This replica's place in the cluster — configuration, id, signing
    /// key, everyone's public keys: what every slot's instance is built
    /// from and what the checkpointer signs and verifies with.
    seat: Seat,
    /// Entries this node wants ordered, proposed in batches when this
    /// node leads a slot. A submission is turned away once it holds
    /// [`MAX_PENDING_ENTRIES`].
    pending: Bounded<Entry<S::Op>>,
    settings: SmrSettings,

    /// The log's view: the one synchronizer, with the one view timer,
    /// under which every slot runs.
    sync: Synchronizer,
    /// Per-slot consensus instances still in flight, each with the
    /// context micros at which it opened (feeds the decide/apply
    /// latency histograms). Applied slots are pruned immediately (only
    /// the log and the agreed state survive), so this map never holds
    /// more than `pipeline_depth` instances.
    slots: BTreeMap<u64, (ReplicaInstance, u64)>,
    /// Messages for in-window slots that have not started here yet.
    /// Bounded: only slots inside the buffering horizon ahead of the
    /// lowest unapplied slot, or inside the one a state transfer would
    /// give this node (see `beyond_horizon`), are buffered, and each slot
    /// buffers at most [`MAX_BUFFERED_PER_SLOT`] messages.
    future: BTreeMap<u64, Bounded<Message>>,
    /// The next slot index to open (slots `applied.slot..next_open` are
    /// in flight).
    next_open: u64,
    /// The agreed state, live: `applied.slot` is the lowest slot whose
    /// decision has not been applied yet, `log_len` / `log_digest` cover
    /// every entry ever applied (two replicas with equal pairs hold the
    /// identical logical log, however differently they truncated), and
    /// the machine and reply cache are the ones being served from. A
    /// checkpoint is this value encoded as it stands.
    applied: Snapshot<S>,
    /// Decided entries in slot order — the *resident* suffix of the
    /// logical log, ending at `applied.log_len`: entries below the stable
    /// checkpoint are truncated and survive only in the agreed state.
    log: Vec<Entry<S::Op>>,
    /// Apply notifications not yet drained by the embedding runtime.
    applied_events: Vec<AppliedRequest<S::Response>>,
    /// The checkpoint / state-transfer protocol.
    checkpointer: Checkpointer,
    /// Telemetry bundle: metrics registry plus flight-recorder journal
    /// (`probft-obs`). The live runtime attaches a shared handle so the
    /// nemesis and shutdown aggregation see what this node records.
    obs: Arc<Obs>,
}

impl<S: StateMachine> SmrNode<S> {
    /// Creates an SMR node that wants `workload` ordered (as untagged
    /// writes) under the given replication settings.
    pub fn new(
        cfg: SharedConfig,
        id: ReplicaId,
        sk: SigningKey,
        keys: Arc<PublicKeyring>,
        workload: Vec<S::Op>,
        settings: SmrSettings,
    ) -> Self {
        let settings = settings.normalized();
        let seat = Seat { cfg, id, sk, keys };
        SmrNode {
            pending: Bounded::new(MAX_PENDING_ENTRIES, workload.into_iter().map(Entry::write)),
            sync: Synchronizer::born_in(id, seat.cfg.faults(), View::FIRST),
            slots: BTreeMap::new(),
            future: BTreeMap::new(),
            next_open: 0,
            applied: Snapshot::genesis(),
            log: Vec::new(),
            applied_events: Vec::new(),
            checkpointer: Checkpointer::new(settings.checkpoint_interval, settings.pipeline_depth),
            obs: Arc::new(Obs::new(format!("replica-{}", id.0))),
            seat,
            settings,
        }
    }

    /// The *resident* decided entry log: the suffix above the stable
    /// checkpoint (the full log, while nothing has been truncated).
    pub fn log(&self) -> &[Entry<S::Op>] {
        &self.log
    }

    /// Entries truncated below the stable checkpoint — the global index
    /// of `log()[0]`.
    pub fn log_offset(&self) -> u64 {
        self.applied.log_len.saturating_sub(self.log.len() as u64)
    }

    /// Total entries ever applied: truncated plus resident.
    pub fn total_log_len(&self) -> u64 {
        self.applied.log_len
    }

    /// Running digest chain over every entry ever applied. Equal
    /// `(total_log_len, log_digest)` pairs identify identical logical
    /// logs across replicas that truncated at different checkpoints.
    pub fn log_digest(&self) -> Digest {
        self.applied.log_digest
    }

    /// The highest checkpoint this node saw become stable, if any, as the
    /// reply it serves to laggards.
    pub fn stable_checkpoint(&self) -> Option<&StateReply> {
        self.checkpointer.stable()
    }

    /// The application state.
    pub fn state(&self) -> &S {
        &self.applied.state
    }

    /// Whether the node has applied its target number of entries.
    pub fn done(&self) -> bool {
        self.total_log_len() >= self.settings.target_len as u64
    }

    /// Slots this node has opened (including in-flight ones).
    pub fn slots_opened(&self) -> u64 {
        self.next_open
    }

    /// Slots decided *and applied* in order.
    pub fn slots_applied(&self) -> u64 {
        self.applied.slot
    }

    /// Per-slot consensus instances currently resident on the heap.
    /// Bounded by `pipeline_depth`: decided slots are pruned on apply.
    pub fn resident_slots(&self) -> usize {
        self.slots.len()
    }

    /// What this replica holds now, as the invariant sweep reads it.
    pub fn report(&self) -> ReplicaReport<S> {
        ReplicaReport {
            id: self.seat.id.index(),
            log: self.log.clone(),
            log_offset: self.log_offset(),
            log_digest: self.log_digest(),
            state: self.applied.state.clone(),
            resident_slots: self.resident_slots(),
            metrics: self.obs.snapshot(),
            journal: self.obs.journal().snapshot(),
        }
    }

    /// The telemetry bundle this node records into.
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// Replaces the telemetry bundle. The live runtime attaches one it
    /// created up front so fault injection and shutdown aggregation share
    /// the registry and journal this node records into.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    /// Messages currently buffered for in-window slots not yet open here.
    pub fn buffered_future(&self) -> usize {
        self.future.values().map(Bounded::len).sum()
    }

    /// Entries queued locally but not yet proposed into a slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether admission control considers this node overloaded: the
    /// pending queue is at or past [`SmrSettings::max_pending`]. The
    /// client front-end checks this before accepting a client submission
    /// and sheds with an explicit `Overloaded` reply instead of letting
    /// the queue (and every queued client's latency) grow without bound.
    /// Always `false` with `max_pending = 0`.
    pub fn overloaded(&self) -> bool {
        self.settings.max_pending > 0 && self.pending.len() >= self.settings.max_pending
    }

    /// The view the log is in at this node.
    pub fn current_view(&self) -> View {
        self.sync.current_view()
    }

    /// The replica leading the log's view. Clients are redirected here.
    pub fn current_leader(&self) -> ReplicaId {
        self.seat.cfg.leader_of(self.sync.current_view())
    }

    /// Whether this node believes it leads the log's view.
    pub fn leads(&self) -> bool {
        self.current_leader() == self.seat.id
    }

    /// The cached response for an already-applied request, if any — what
    /// a retried submission is answered with, without re-ordering it.
    pub fn cached_response(&self, request: RequestId) -> Option<&S::Response> {
        self.applied.cached_response(request)
    }

    /// Evaluates `op` read-only against this node's applied state — the
    /// serving path for [`Consistency::Local`](crate::Consistency) and
    /// [`Consistency::Leader`](crate::Consistency) reads. Runs between
    /// whole-batch applies, so the observation is never torn.
    pub fn query(&self, op: &S::Op) -> S::Response {
        self.applied.state.query(op)
    }

    /// Enqueues an entry for ordering and opens a slot for it if the
    /// pipeline window allows. The client front-end calls this on the
    /// leader for each accepted client request (writes *and*
    /// linearizable reads).
    pub fn submit(&mut self, entry: Entry<S::Op>, ctx: &mut Context<SmrMessage>) {
        // A caller that skips the `overloaded()` admission check must
        // still not grow this queue without bound.
        if self.pending.try_push(entry).is_err() {
            self.obs.drops_pending_overflow.inc();
            return;
        }
        self.obs.pending_depth.set(self.pending.len() as u64);
        self.open_ready_slots(ctx);
    }

    /// A client was turned away toward the leader. With nothing in flight
    /// (serving mode) that opens the next slot — work, so the view timer
    /// runs, and if the leader stays silent this node's wish, tagged with
    /// the slot, starts its peers' timers too. A live leader refutes it by
    /// proposing the slot: one (possibly empty) slot, no view change.
    pub fn on_redirect(&mut self, ctx: &mut Context<SmrMessage>) {
        if self.settings.serving && self.slots.is_empty() && !self.done() {
            self.open_next_slot(ctx);
        }
    }

    /// Removes and returns the apply notifications (with typed responses)
    /// for client-tagged entries since the last drain.
    pub fn drain_applied(&mut self) -> Vec<AppliedRequest<S::Response>> {
        std::mem::take(&mut self.applied_events)
    }

    /// One past the last slot the pipeline window lets this node open.
    fn window_end(&self) -> u64 {
        self.applied
            .slot
            .saturating_add(self.settings.pipeline_depth as u64)
    }

    /// The value this node proposes for the next slot: a batch of pending
    /// entries. With nothing pending the proposal is an *empty* batch — it
    /// keeps the slot progressing without growing the log (the generic
    /// replacement for ordering filler no-ops).
    ///
    /// In workload mode the batch packs up to `batch_size` entries. In
    /// [`serving`](SmrSettings::serving) mode the size closes a feedback
    /// loop on the observed queue depth instead: each batch takes `ceil(pending / slots the window can still open)`, so a
    /// short queue spreads across the pipeline in small low-latency
    /// batches while a deep queue drains in batches that grow past the
    /// static cap (up to the wire limit) rather than falling behind one
    /// `batch_size` slice per slot.
    ///
    /// Batches are drained in slot-open order, which is ascending slot
    /// order at every pipeline depth — that invariant is what makes a
    /// pipelined run decide the same value per slot as a sequential one.
    /// Only the leader of the log's view drains its queue: a follower's
    /// entries wait for a view it leads.
    fn next_value(&mut self) -> (Value, usize) {
        let pending = if self.leads() { self.pending.len() } else { 0 };
        let take = if self.settings.serving {
            // `next_value` runs from `open_next_slot`, after `next_open`
            // was advanced past the slot being opened — so the slots this
            // window can still open, *including* this one, number
            // `window_end - next_open + 1` (floored at 1: the lazy
            // open-on-peer-traffic path can open a slot the local window
            // would not have).
            let window_left = self
                .window_end()
                .saturating_sub(self.next_open)
                .saturating_add(1);
            let window_left = usize::try_from(window_left).unwrap_or(usize::MAX);
            pending.div_ceil(window_left)
        } else {
            self.settings.batch_size
        }
        .min(MAX_BATCH as usize)
        .min(pending);
        let entries: Vec<Entry<S::Op>> = self.pending.drain_front(take).collect();
        self.obs.pending_depth.set(self.pending.len() as u64);
        self.obs.batch_size.record(take as u64);
        (Batch(entries).to_value(), take)
    }

    /// Opens every slot the pipeline window allows. In serving mode a
    /// slot is only opened by the leader, while entries are pending —
    /// followers open slots on demand when traffic for them arrives,
    /// including traffic buffered while its slot was beyond the window:
    /// nobody repeats it, so the window reaching it is that demand.
    fn open_ready_slots(&mut self, ctx: &mut Context<SmrMessage>) {
        while !self.done() && self.next_open < self.window_end() {
            let proposing = !self.pending.is_empty() && self.leads();
            let buffered = self.future.range(self.next_open..self.window_end()).next();
            if self.settings.serving && !proposing && buffered.is_none() {
                break;
            }
            self.open_next_slot(ctx);
        }
    }

    /// Opens slot `next_open`, born in the log's view.
    fn open_next_slot(&mut self, ctx: &mut Context<SmrMessage>) {
        let slot = self.next_open;
        self.next_open = self.next_open.saturating_add(1);
        let (value, batched) = self.next_value();
        let (view, now) = (self.sync.current_view().0, ctx.now().ticks());
        self.obs.trace(now, TraceKind::SlotOpened { slot, view });
        if batched > 0 {
            let entries = batched as u64;
            self.obs
                .trace(now, TraceKind::BatchFormed { slot, entries });
        }
        let instance = ReplicaInstance::new(self.seat.clone(), value);
        self.slots.insert(slot, (instance, now));
        if !self.sync.running() {
            self.sync.arm(&self.seat.cfg, ctx);
        }
        self.drive(slot, None, ctx);

        // Replay any buffered traffic for this slot.
        for msg in self.future.remove(&slot).into_iter().flatten() {
            self.drive(slot, Some(msg), ctx);
        }
    }

    /// Feeds one event into a slot's instance — a message, or with `None`
    /// Algorithm 1's `newView` for the log's view — relays what it sends,
    /// and handles a resulting decision.
    fn drive(&mut self, slot: u64, msg: Option<Message>, ctx: &mut Context<SmrMessage>) {
        let Some((instance, opened_at)) = self.slots.get_mut(&slot) else {
            return;
        };
        let already_decided = instance.decision().is_some();
        let me = ProcessId(self.seat.id.index());
        let actions = {
            let mut inner = Context::detached(me, ctx.now());
            match msg {
                // A wish is the node's, and was counted on arrival.
                Some(Message::Wish(_)) => {}
                Some(msg) => {
                    let wish = instance.on_message(msg, &mut inner);
                    debug_assert!(wish.is_none(), "all it hands back is a wish");
                }
                None => instance.new_view(self.sync.current_view(), &mut inner),
            }
            inner.drain_actions()
        };
        let newly_decided = instance
            .decision()
            .filter(|_| !already_decided)
            .map(|decision| (decision.view.0, *opened_at));
        for action in actions {
            // An instance half sets no timer; the view's is the node's.
            let Action::Send { to, msg } = action else {
                continue;
            };
            // A `NewLeader` to itself: this node leads the view just
            // entered. Followers open a slot only on traffic, so it goes
            // to every replica.
            let announce = to == me && matches!(msg, Message::NewLeader(_));
            let msg = SmrMessage::Slot(SlotMessage { slot, inner: msg });
            if announce {
                ctx.multicast((0..self.seat.cfg.n()).map(ProcessId), msg);
            } else {
                ctx.send(to, msg);
            }
        }
        let Some((view, opened_at)) = newly_decided else {
            return;
        };
        let now = ctx.now().ticks();
        let decided = now.saturating_sub(opened_at);
        self.obs.decide_latency_us.record(decided);
        self.obs.trace(now, TraceKind::SlotDecided { slot, view });

        // Out-of-order decisions (slot > applied.slot) stay buffered in
        // their instance until the gap closes; only the in-order frontier
        // advances the applied log.
        if slot == self.applied.slot {
            self.advance(ctx);
        }
    }

    /// A verified wish, whatever its tag: the log's synchronizer counts
    /// it, and a sender found behind is told where the log is.
    fn on_wish(&mut self, wish: &Wish, ctx: &mut Context<SmrMessage>) {
        if wish.view > self.sync.current_view() {
            self.obs.note_view_doubt(ctx.now().ticks());
        }
        let action = self.sync.on_wish(wish.sender, wish.view);
        if let Some(view) = action.answer_wish {
            ctx.send(ProcessId(wish.sender.index()), self.wish(view));
        }
        self.follow(action, ctx);
    }

    /// This node's signed wish for `view`, tagged with its lowest
    /// undecided slot.
    fn wish(&self, view: View) -> SmrMessage {
        SmrMessage::Slot(SlotMessage {
            slot: self.applied.slot,
            inner: Message::Wish(Wish::cast(&self.seat, view)),
        })
    }

    /// Does what the synchronizer asked: broadcast this node's wish, and
    /// on entry move the whole log — `newView` in every slot in flight.
    fn follow(&mut self, action: SyncAction, ctx: &mut Context<SmrMessage>) {
        if let Some(view) = action.broadcast_wish {
            ctx.multicast((0..self.seat.cfg.n()).map(ProcessId), self.wish(view));
        }
        let Some(view) = action.enter_view else {
            return;
        };
        self.obs.note_view_entered(ctx.now().ticks(), view.0);
        self.sync
            .restart(!self.slots.is_empty(), &self.seat.cfg, ctx);
        for slot in self.applied.slot..self.next_open {
            self.drive(slot, None, ctx);
        }
        // A new leader holding entries starts on them.
        self.open_ready_slots(ctx);
    }

    /// Applies decided slots in order, prunes their consensus state, and
    /// refills the pipeline window. After each applied slot the
    /// checkpointer gets to snapshot the agreed state (it does so every
    /// `checkpoint_interval` slots).
    fn advance(&mut self, ctx: &mut Context<SmrMessage>) {
        let (frontier, now) = (self.applied.slot, ctx.now().ticks());
        while !self.done() {
            let slot = self.applied.slot;
            let Some(decision) = self.slots.get(&slot).and_then(|(r, _)| r.decision()) else {
                break;
            };
            self.sync.progressed(decision.view);
            let batch = Batch::from_value(&decision.value).unwrap_or_default();
            let entries = batch.0.len() as u64;
            for entry in batch.0 {
                self.apply_entry(entry);
            }
            // The slot is applied: free its instance and message state.
            // Only the log, the agreed state, and checkpoints outlive it.
            if let Some((instance, opened_at)) = self.slots.remove(&slot) {
                let applied = now.saturating_sub(opened_at);
                self.obs.apply_latency_us.record(applied);
                self.obs
                    .equivocations_detected
                    .add(instance.stats.equivocations_detected);
                self.obs.votes_late.add(instance.stats.late_votes);
            }
            self.obs
                .trace(now, TraceKind::SlotApplied { slot, entries });
            self.obs.note_progress(now);
            self.applied.slot = slot.saturating_add(1);
            self.obs.applied_slots.set(self.applied.slot);
            self.obs.log_len.set(self.applied.log_len);
            let stable =
                self.checkpointer
                    .maybe_take_checkpoint(&self.applied, &self.seat, &self.obs, ctx);
            self.truncate_log(stable);
            self.open_ready_slots(ctx);
        }
        if self.applied.slot > frontier {
            // One timer, armed by work: progress begins it afresh.
            self.sync
                .restart(!self.slots.is_empty(), &self.seat.cfg, ctx);
        }
        debug_assert!(
            self.slots.len() <= self.settings.pipeline_depth,
            "resident slots ({}) exceed the pipeline window ({})",
            self.slots.len(),
            self.settings.pipeline_depth,
        );
    }

    /// Applies one decided entry of the slot at the apply frontier to the
    /// agreed state, queues the client's notification, and keeps the
    /// entry in the resident log.
    fn apply_entry(&mut self, entry: Entry<S::Op>) {
        if let Some(event) = self.applied.apply_entry(&entry) {
            if !event.executed {
                self.obs.reply_cache_hits.inc();
            }
            self.applied_events.push(event);
        }
        self.log.push(entry);
    }

    /// Drops the resident log below `stable_len` — the log length of a
    /// checkpoint the checkpointer just saw become stable, if it did.
    fn truncate_log(&mut self, stable_len: Option<u64>) {
        let Some(stable_len) = stable_len else {
            return;
        };
        let drop = usize::try_from(stable_len.saturating_sub(self.log_offset()))
            .unwrap_or(0)
            .min(self.log.len());
        self.log.drain(..drop);
        self.obs.truncated_entries.add(drop as u64);
    }

    /// Jumps the node to a verified checkpoint: the agreed state *is* the
    /// snapshot; every in-flight slot below it is obsolete and dropped.
    /// Consensus resumes from the checkpoint slot — transferred entries
    /// produce no [`drain_applied`](Self::drain_applied) events (their
    /// clients were answered by the replicas that applied them; the
    /// restored reply cache still answers retries). The view is not in
    /// the snapshot (it is this replica's observation, not agreed state):
    /// a node also behind on the view learns it as any straggler does.
    /// Nor is a transfer progress in that view: the log moved without
    /// this node, so a view timer already running keeps running — a
    /// deposed leader that took a checkpoint every interval would
    /// otherwise never time out of the view it no longer leads.
    fn restore_from(&mut self, snapshot: Snapshot<S>, ctx: &mut Context<SmrMessage>) {
        self.next_open = snapshot.slot;
        self.slots.clear();
        self.future.retain(|&s, _| s >= snapshot.slot);
        self.log.clear();
        self.applied = snapshot;
        self.obs.applied_slots.set(self.applied.slot);
        self.obs.log_len.set(self.applied.log_len);
        // Rejoin the pipeline immediately: pending local entries (and, in
        // serving mode, subsequent peer traffic) open slots from the
        // checkpoint onward.
        self.open_ready_slots(ctx);
    }

    /// Whether `slot` lies past the buffering horizon ahead of the lowest
    /// unapplied slot — and past the horizon this node will have once
    /// restored to the first checkpoint it would fetch rather than
    /// decide: that checkpoint's first slots open with it, often before
    /// its snapshot arrives, and a node restored without their traffic
    /// never decides them.
    fn beyond_horizon(&self, slot: u64) -> bool {
        let ahead = self.settings.future_window();
        if slot < self.applied.slot.saturating_add(ahead) {
            return false;
        }
        let interval = self.settings.checkpoint_interval as u64;
        let landing = (self.window_end().checked_div(interval))
            .map(|k| k.saturating_add(1).saturating_mul(interval));
        !landing.is_some_and(|first| (first..first.saturating_add(ahead)).contains(&slot))
    }

    /// Routes one slot-tagged consensus message: deliver to a resident
    /// slot, drop stale/far-future traffic, open in-window slots on
    /// demand (serving mode), or buffer for the window to reach them. A
    /// `Wish` belongs to the log: it is verified and counted first,
    /// whatever its tag, which is then routed like any slot traffic.
    fn on_slot_message(
        &mut self,
        from: ProcessId,
        msg: SlotMessage,
        ctx: &mut Context<SmrMessage>,
    ) {
        let slot = msg.slot;
        if let Message::Wish(wish) = &msg.inner {
            if wish.verify_signature(&self.seat.keys).is_err() {
                return;
            }
            self.on_wish(wish, ctx);
        }
        if self.slots.contains_key(&slot) {
            self.drive(slot, Some(msg.inner), ctx);
            return;
        }
        if slot < self.next_open {
            // Below the open frontier but not resident: the slot was
            // applied and pruned. Stale traffic, drop — but if the sender
            // is a pipeline window or more below our stable checkpoint, it
            // is stranded (those slots are truncated cluster-wide) and
            // this traffic is our only signal of its existence: push the
            // checkpoint to it. Anything nearer is ordinary frontier skew
            // — a late vote from a peer in step — and a push would be
            // refused there (`handle_state_reply` takes only a checkpoint
            // beyond `next_apply + window`), so the checkpointer sends
            // nothing.
            self.obs.drops_stale.inc();
            let depth = self.settings.pipeline_depth as u64;
            self.checkpointer.send_checkpoint(
                from,
                slot.saturating_add(1).saturating_add(depth),
                &self.seat,
                &self.obs,
                ctx,
            );
            return;
        }
        // Bounded buffering horizon ahead of the lowest unapplied slot.
        // A Byzantine peer spraying far-future slot numbers lands here
        // and is dropped instead of growing memory without bound. The
        // horizon is tight when checkpointing is on (anyone dropped
        // recovers by state transfer) and wide when it is off (no
        // recovery path exists, so slack is the only protection).
        if self.beyond_horizon(slot) {
            self.obs.drops_future_horizon.inc();
            return;
        }
        if self.settings.serving && slot < self.window_end() && !self.done() {
            // Serving mode: peer traffic for an in-window slot is the signal
            // that the slot exists — open every slot up to it and deliver.
            while self.next_open <= slot {
                self.open_next_slot(ctx);
            }
            self.drive(slot, Some(msg.inner), ctx);
            return;
        }
        // Workload mode (or target reached): buffer until the window opens
        // the slot, with a hard per-slot cap against single-slot floods.
        let buffered =
            (self.future.entry(slot)).or_insert_with(|| Bounded::new(MAX_BUFFERED_PER_SLOT, []));
        if buffered.try_push(msg.inner).is_err() {
            self.obs.drops_slot_flood.inc();
        }
    }
}

impl<S: StateMachine> Process for SmrNode<S> {
    type Message = SmrMessage;

    fn on_start(&mut self, ctx: &mut Context<SmrMessage>) {
        self.obs.view.set(self.sync.current_view().0);
        self.open_ready_slots(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SmrMessage, ctx: &mut Context<SmrMessage>) {
        let (next_apply, seat, obs) = (self.applied.slot, &self.seat, &self.obs);
        match msg {
            SmrMessage::Slot(msg) => self.on_slot_message(from, msg, ctx),
            SmrMessage::CheckpointVote(vote) => {
                let stable = self
                    .checkpointer
                    .handle_vote(vote, next_apply, seat, obs, ctx);
                self.truncate_log(stable);
            }
            SmrMessage::StateRequest(req) => {
                self.checkpointer
                    .send_checkpoint(from, req.min_slot, seat, obs, ctx)
            }
            SmrMessage::StateReply(rep) => {
                if let Some(snapshot) = self
                    .checkpointer
                    .handle_state_reply(rep, next_apply, seat, obs, ctx)
                {
                    self.restore_from(snapshot, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<SmrMessage>) {
        if let Some(action) = self.sync.on_timer(token, &self.seat.cfg, ctx) {
            self.obs.note_view_timeout(ctx.now().ticks());
            self.follow(action, ctx);
            // Only a timer kept across a state transfer runs with nothing
            // in flight: it wished once, and times nothing more.
            if self.slots.is_empty() {
                self.sync.restart(false, &self.seat.cfg, ctx);
            }
        }
    }
}

impl<S: StateMachine> fmt::Debug for SmrNode<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmrNode")
            .field("id", &self.seat.id)
            .field("next_apply", &self.applied.slot)
            .field("next_open", &self.next_open)
            .field("log_len", &self.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointBody;
    use crate::kv::{Command, KvResponse, KvStore};
    use probft_core::config::{ProbftConfig, View};
    use probft_core::message::{Wish, WishBody};
    use probft_crypto::keyring::Keyring;
    use probft_simnet::time::SimTime;

    fn test_node(settings: SmrSettings) -> SmrNode<KvStore> {
        let n = 4;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(n).build());
        let keyring = Keyring::generate(n, b"node-tests");
        let public = Arc::new(keyring.public());
        SmrNode::new(
            cfg,
            ReplicaId(0),
            keyring.signing_key(0).expect("in range").clone(),
            public,
            Vec::new(),
            settings,
        )
    }

    /// Any message from peer 1, tagged with `slot`.
    fn slot_msg(keyring_seed: &[u8], slot: u64) -> SmrMessage {
        let keyring = Keyring::generate(4, keyring_seed);
        let wish = Wish::sign(
            keyring.signing_key(1).expect("in range"),
            WishBody {
                sender: ReplicaId(1),
                view: View(2),
            },
        );
        SmrMessage::Slot(SlotMessage {
            slot,
            inner: Message::Wish(wish),
        })
    }

    /// A workload batch size past the wire cap proposes a full batch that
    /// still decodes, not one every replica would apply as empty.
    #[test]
    fn workload_batch_is_capped_at_the_wire_limit() {
        let over = MAX_BATCH as usize + 1;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(4).build());
        let keyring = Keyring::generate(4, b"node-tests");
        let workload = (0..over).map(|_| Command::Noop);
        let mut node = SmrNode::<KvStore>::new(
            cfg,
            ReplicaId(0),
            keyring.signing_key(0).expect("in range").clone(),
            Arc::new(keyring.public()),
            workload.collect(),
            SmrSettings {
                batch_size: over,
                ..SmrSettings::sequential(over)
            },
        );
        let (value, taken) = node.next_value();
        assert_eq!(taken, MAX_BATCH as usize);
        let batch = Batch::<Command>::from_value(&value).expect("a proposed batch decodes");
        assert_eq!(batch.len(), MAX_BATCH as usize);
        assert_eq!(node.pending_len(), 1);
    }

    #[test]
    fn slot_message_round_trips() {
        let SmrMessage::Slot(msg) = slot_msg(b"node-tests", 42) else {
            panic!("slot_msg builds a Slot variant");
        };
        let bytes = msg.to_wire_bytes();
        assert_eq!(SlotMessage::from_wire_bytes(&bytes).unwrap(), msg);
        // Truncated input degrades to an error, never a panic.
        assert!(SlotMessage::from_wire_bytes(&bytes[..4]).is_err());
    }

    /// A Byzantine peer spraying far-future slot numbers must not grow
    /// memory: everything beyond the bounded horizon is dropped and
    /// counted, nothing is buffered for it.
    #[test]
    fn far_future_slot_spray_is_dropped_not_buffered() {
        let mut node = test_node(SmrSettings {
            pipeline_depth: 2,
            ..SmrSettings::sequential(1_000_000)
        });
        let spray = 1000;
        for i in 0..spray {
            let msg = slot_msg(b"node-tests", 1_000_000 + i);
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            node.on_message(ProcessId(1), msg, &mut ctx);
        }
        assert_eq!(node.obs.drops_future_horizon.get(), spray);
        assert_eq!(
            node.buffered_future(),
            0,
            "nothing beyond the horizon buffers"
        );
    }

    /// Flooding one in-window slot hits the per-slot cap instead of
    /// growing its buffer without bound.
    #[test]
    fn single_slot_flood_is_capped() {
        let mut node = test_node(SmrSettings {
            pipeline_depth: 2,
            ..SmrSettings::sequential(1_000_000)
        });
        // Slot inside the buffering horizon but not yet open (the node
        // has not started, so nothing is open).
        let slot = MIN_FUTURE_WINDOW - 1;
        let flood = MAX_BUFFERED_PER_SLOT as u64 + 500;
        for _ in 0..flood {
            let msg = slot_msg(b"node-tests", slot);
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            node.on_message(ProcessId(1), msg, &mut ctx);
        }
        assert_eq!(node.buffered_future(), MAX_BUFFERED_PER_SLOT);
        assert_eq!(node.obs.drops_slot_flood.get(), 500);
    }

    /// Stale traffic for already-applied (pruned) slots is dropped, and a
    /// fresh node reports an empty, bounded footprint.
    #[test]
    fn footprint_accessors_start_empty() {
        let node = test_node(SmrSettings::sequential(4));
        assert_eq!(node.resident_slots(), 0);
        assert_eq!(node.buffered_future(), 0);
        let drops = node.obs.snapshot();
        for counter in [
            "drops_future_horizon",
            "drops_slot_flood",
            "drops_stale",
            "drops_invalid_checkpoint",
            "drops_pending_overflow",
        ] {
            assert_eq!(drops.counter(counter), 0, "{counter}");
        }
        assert_eq!(node.pending_len(), 0);
        assert_eq!(node.current_leader(), ReplicaId(0));
        assert_eq!(node.current_view(), View::FIRST);
    }

    /// The reply cache: applying a tagged entry records its response;
    /// a duplicate of the same request skips execution and replays the
    /// cached response.
    #[test]
    fn reply_cache_deduplicates_and_replays_response() {
        let mut node = test_node(SmrSettings::sequential(usize::MAX));
        let request = RequestId { client: 9, seq: 1 };
        let entry = Entry::tagged_write(
            request,
            Command::Put {
                key: "a".into(),
                value: "1".into(),
            },
        );
        node.apply_entry(entry.clone());
        node.apply_entry(entry);

        let events = node.drain_applied();
        assert_eq!(events.len(), 2);
        assert!(events[0].executed);
        assert!(!events[1].executed, "duplicate must not re-execute");
        assert_eq!(events[0].response, KvResponse::Prev(None));
        assert_eq!(
            events[1].response,
            KvResponse::Prev(None),
            "duplicate replays the cached response, not a re-execution \
             (a re-run would observe Prev(Some(\"1\")))"
        );
        assert_eq!(node.state().applied(), 1);
        assert_eq!(node.cached_response(request), Some(&KvResponse::Prev(None)));
    }

    /// Read entries ordered through the log observe the state at their
    /// log position and never mutate it.
    #[test]
    fn log_ordered_read_observes_prefix_without_mutation() {
        let mut node = test_node(SmrSettings::sequential(usize::MAX));
        node.apply_entry(Entry::write(Command::Put {
            key: "k".into(),
            value: "before".into(),
        }));
        let read = RequestId { client: 4, seq: 1 };
        node.apply_entry(Entry::tagged_read(read, Command::Get { key: "k".into() }));
        node.apply_entry(Entry::write(Command::Put {
            key: "k".into(),
            value: "after".into(),
        }));
        let events = node.drain_applied();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].response, KvResponse::Value(Some("before".into())));
        assert_eq!(node.state().applied(), 2, "reads don't count as applies");
        assert_eq!(node.log().len(), 3, "reads do occupy log positions");
    }

    /// A node with checkpointing at the given interval, as replica `id`
    /// of the shared 4-replica test keyring.
    fn checkpoint_node(id: usize, interval: usize, depth: usize) -> SmrNode<KvStore> {
        let n = 4;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(n).build());
        let keyring = Keyring::generate(n, b"node-tests");
        let public = Arc::new(keyring.public());
        SmrNode::new(
            cfg,
            ReplicaId::from(id),
            keyring.signing_key(id).expect("in range").clone(),
            public,
            Vec::new(),
            SmrSettings {
                checkpoint_interval: interval,
                ..SmrSettings::live(depth)
            },
        )
    }

    /// A peer's signed attestation of `digest` at `slot`.
    fn peer_vote(id: usize, slot: u64, digest: Digest) -> SmrMessage {
        let keyring = Keyring::generate(4, b"node-tests");
        SmrMessage::CheckpointVote(CheckpointVote::sign(
            keyring.signing_key(id).expect("in range"),
            CheckpointBody {
                from: ReplicaId::from(id),
                slot,
                digest,
            },
        ))
    }

    /// Applies `count` tagged puts as one entry per slot and advances the
    /// apply frontier accordingly (the unit-test stand-in for decided
    /// consensus slots).
    fn apply_slots(node: &mut SmrNode<KvStore>, from: u64, count: u64) {
        for i in from..from + count {
            let entry = Entry::tagged_write(
                RequestId {
                    client: 1,
                    seq: i + 1,
                },
                Command::Put {
                    key: format!("k{i}"),
                    value: format!("v{i}"),
                },
            );
            node.apply_entry(entry);
            node.applied.slot = i + 1;
            // Preserve the next_open ≥ next_apply invariant the real
            // apply path maintains.
            node.next_open = node.next_open.max(i + 1);
            let mut ctx = Context::detached(ProcessId(node.seat.id.index()), SimTime::ZERO);
            let stable = node.checkpointer.maybe_take_checkpoint(
                &node.applied,
                &node.seat,
                &node.obs,
                &mut ctx,
            );
            node.truncate_log(stable);
        }
    }

    /// A quorum of matching attestations makes the checkpoint stable: the
    /// log truncates below it, but the reply cache, total length, and
    /// digest chain all survive.
    #[test]
    fn stable_checkpoint_truncates_log_and_keeps_reply_cache() {
        let mut node = checkpoint_node(0, 2, 1);
        apply_slots(&mut node, 0, 2);
        assert_eq!(node.obs.checkpoints_taken.get(), 1);
        let digest = node
            .checkpointer
            .own_checkpoint(2)
            .expect("own checkpoint")
            .0;
        // Pinned on the commit that still encoded a cloned temporary: the
        // live agreed state must encode to the same bytes.
        assert_eq!(
            digest.to_hex(),
            "2202062675285a9cf69b985b0c917ca6073d1a90656e780fef2d9d700f705c66"
        );
        let total_before = node.total_log_len();
        let chain_before = node.log_digest();

        // Own vote alone is not a quorum (⌈(4+1+1)/2⌉ = 3); two peers
        // complete it.
        assert!(node.stable_checkpoint().is_none());
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            node.on_message(ProcessId(peer), peer_vote(peer, 2, digest), &mut ctx);
        }
        let stable = node.stable_checkpoint().expect("quorum reached");
        assert_eq!(stable.slot, 2);
        assert_eq!(node.log().len(), 0, "entries below the checkpoint gone");
        assert_eq!(node.log_offset(), 2);
        assert_eq!(node.total_log_len(), total_before);
        assert_eq!(node.log_digest(), chain_before, "digest chain unbroken");
        assert_eq!(node.obs.truncated_entries.get(), 2);
        assert_eq!(node.obs.stable_slot.get(), 2);
        // At-most-once survives truncation: the replies live in the
        // snapshot, not the truncated log.
        let request = RequestId { client: 1, seq: 2 };
        assert_eq!(node.cached_response(request), Some(&KvResponse::Prev(None)));
    }

    /// A vote quorum for a slot beyond the pipeline window makes a
    /// laggard request state transfer; an attested `StateReply` restores
    /// it to the checkpoint — state, reply cache, log bookkeeping and
    /// all — without replaying the truncated log.
    #[test]
    fn laggard_restores_from_attested_state_reply() {
        // Replica 0 applies 4 slots and checkpoints at slot 4.
        let mut donor = checkpoint_node(0, 4, 1);
        apply_slots(&mut donor, 0, 4);
        let (digest, snapshot) = donor.checkpointer.own_checkpoint(4).expect("own");
        let snapshot = snapshot.to_vec();

        // Replica 3 never saw any of it. Votes from 0, 1, 2 arrive.
        let mut laggard = checkpoint_node(3, 4, 1);
        for peer in [0, 1, 2] {
            let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
            laggard.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
            let requests: Vec<_> = ctx
                .drain_actions()
                .into_iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Send {
                            msg: SmrMessage::StateRequest(_),
                            ..
                        }
                    )
                })
                .collect();
            if peer == 2 {
                assert!(
                    !requests.is_empty(),
                    "quorum for a far-ahead checkpoint must trigger requests"
                );
            }
        }
        assert_eq!(laggard.checkpointer.transfer_wanted(), Some((4, digest)));

        // The certificate: the quorum of signed votes for (slot 4, digest).
        let keyring = Keyring::generate(4, b"node-tests");
        let certificate: Vec<CheckpointVote> = [0usize, 1, 2]
            .iter()
            .map(|&i| {
                CheckpointVote::sign(
                    keyring.signing_key(i).expect("in range"),
                    CheckpointBody {
                        from: ReplicaId::from(i),
                        slot: 4,
                        digest,
                    },
                )
            })
            .collect();

        // A tampered payload is rejected and counted…
        let mut bad = snapshot.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let dropped_before = laggard.obs.drops_invalid_checkpoint.get();
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: bad,
                certificate: certificate.clone(),
            }),
            &mut ctx,
        );
        assert_eq!(
            laggard.obs.drops_invalid_checkpoint.get(),
            dropped_before + 1
        );
        assert_eq!(laggard.slots_applied(), 0, "tampered snapshot ignored");

        // …as is a certificate short of the quorum…
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: snapshot.clone(),
                certificate: certificate[..2].to_vec(),
            }),
            &mut ctx,
        );
        assert_eq!(
            laggard.obs.drops_invalid_checkpoint.get(),
            dropped_before + 2
        );
        assert_eq!(laggard.slots_applied(), 0, "sub-quorum certificate ignored");

        // …the attested one restores.
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        laggard.on_message(
            ProcessId(1),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot,
                certificate: certificate.clone(),
            }),
            &mut ctx,
        );
        assert_eq!(laggard.slots_applied(), 4);
        assert_eq!(laggard.state(), donor.state());
        assert_eq!(laggard.log_offset(), 4);
        assert_eq!(laggard.log().len(), 0, "transferred, not replayed");
        assert_eq!(laggard.log_digest(), donor.log_digest());
        assert_eq!(laggard.obs.state_transfers.get(), 1);
        let request = RequestId { client: 1, seq: 4 };
        assert_eq!(
            laggard.cached_response(request),
            donor.cached_response(request),
            "reply cache rides the snapshot"
        );
        // A duplicate reply is a no-op.
        let stable = laggard
            .stable_checkpoint()
            .expect("stable")
            .snapshot
            .clone();
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        laggard.on_message(
            ProcessId(2),
            SmrMessage::StateReply(StateReply {
                slot: 4,
                snapshot: stable,
                certificate,
            }),
            &mut ctx,
        );
        assert_eq!(laggard.obs.state_transfers.get(), 1);
    }

    /// The self-proving certificate makes *unsolicited* catch-up pushes
    /// safe: a fresh replica that never collected a single vote restores
    /// from a pushed stable checkpoint, and a peer pushes one when it
    /// sees traffic from below its stable checkpoint (at most once per
    /// checkpoint per peer).
    #[test]
    fn unsolicited_checkpoint_push_restores_a_voteless_laggard() {
        // Donor: 4 slots applied, checkpoint at 4 made stable by votes
        // from peers 1 and 2.
        let mut donor = checkpoint_node(0, 4, 1);
        apply_slots(&mut donor, 0, 4);
        let digest = donor.checkpointer.own_checkpoint(4).expect("own").0;
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            donor.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
        }
        let stable = donor.stable_checkpoint().expect("stable");
        assert_eq!(stable.certificate.len(), 3, "own vote + two peers");

        // Stale traffic from replica 3 (below the stable checkpoint)
        // makes the donor push its checkpoint — exactly once.
        let mut pushes = Vec::new();
        for _ in 0..3 {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            donor.on_message(ProcessId(3), slot_msg(b"node-tests", 0), &mut ctx);
            pushes.extend(ctx.drain_actions().into_iter().filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: SmrMessage::StateReply(rep),
                } => Some((to, rep)),
                _ => None,
            }));
        }
        assert_eq!(pushes.len(), 1, "one push per peer per stable checkpoint");
        let (to, rep) = pushes.pop().expect("one push");
        assert_eq!(to, ProcessId(3));

        // The voteless laggard accepts it purely on the certificate.
        let mut laggard = checkpoint_node(3, 4, 1);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        laggard.on_message(ProcessId(0), SmrMessage::StateReply(rep), &mut ctx);
        assert_eq!(laggard.slots_applied(), 4);
        assert_eq!(laggard.state(), donor.state());
        assert_eq!(laggard.obs.state_transfers.get(), 1);
    }

    /// A transfer is neither progress in the view nor a reason to lose the
    /// slots it lands on. A laggard with a slot in flight keeps the view
    /// timer that slot started (the restore arms none, and the old timer
    /// still times out), and traffic for the first slot past the fetched
    /// checkpoint — beyond its horizon when it came, ahead of the
    /// snapshot — is kept and opens that slot once restored.
    #[test]
    fn a_transfer_keeps_the_view_timer_and_the_slots_it_lands_on() {
        let (interval, depth) = (8, 1);
        let mut donor = checkpoint_node(0, interval, depth);
        apply_slots(&mut donor, 0, 8);
        let digest = donor.checkpointer.own_checkpoint(8).expect("own").0;
        let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
        for peer in [1, 2] {
            donor.on_message(ProcessId(peer), peer_vote(peer, 8, digest), &mut ctx);
        }
        donor.on_message(ProcessId(3), slot_msg(b"node-tests", 0), &mut ctx);
        let rep = ctx.drain_actions().into_iter().find_map(|a| match a {
            Action::Send {
                msg: SmrMessage::StateReply(rep),
                ..
            } => Some(rep),
            _ => None,
        });

        let mut laggard = checkpoint_node(3, interval, depth);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        for slot in [0, 8] {
            laggard.on_message(ProcessId(1), slot_msg(b"node-tests", slot), &mut ctx);
        }
        let timers = |actions: Vec<Action<SmrMessage>>| {
            let timer = |a: Action<_>| matches!(a, Action::SetTimer { .. }).then_some(());
            actions.into_iter().filter_map(timer).count()
        };
        assert_eq!(timers(ctx.drain_actions()), 1, "slot 0 started the timer");
        assert_eq!(laggard.buffered_future(), 1, "slot 8 kept");
        let rep = SmrMessage::StateReply(rep.expect("pushed"));
        laggard.on_message(ProcessId(0), rep.clone(), &mut ctx);
        assert_eq!(laggard.slots_applied(), 8);
        assert_eq!(timers(ctx.drain_actions()), 0, "the restore armed none");
        assert_eq!(
            (laggard.resident_slots(), laggard.buffered_future()),
            (1, 0)
        );
        assert_eq!(laggard.slots_opened(), 9, "slot 8 opened on its traffic");
        laggard.on_timer(TimerToken(1), &mut ctx);
        let journal = laggard.obs.journal().snapshot();
        assert!(journal
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ViewTimeout { .. })));

        // Restored with nothing to reopen, the kept timer wishes once when
        // it fires and then stops: an idle node times nothing.
        let mut idle = checkpoint_node(3, interval, depth);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        idle.on_message(ProcessId(1), slot_msg(b"node-tests", 0), &mut ctx);
        idle.on_message(ProcessId(0), rep, &mut ctx);
        assert_eq!(idle.resident_slots(), 0);
        ctx.drain_actions();
        idle.on_timer(TimerToken(1), &mut ctx);
        let actions = ctx.drain_actions();
        let wish = |a: &Action<SmrMessage>| match a {
            Action::Send {
                msg: SmrMessage::Slot(msg),
                ..
            } => matches!(msg.inner, Message::Wish(_)),
            _ => false,
        };
        assert!(actions.iter().any(wish), "the timeout wished");
        assert!(!idle.sync.running(), "and stopped");
    }

    /// Stale traffic draws a checkpoint push only from a sender the push
    /// could restore: one a pipeline window or more behind the stable
    /// checkpoint. A late message at `stable − 1` — a peer in step, whose
    /// `handle_state_reply` would refuse the snapshot — draws nothing.
    /// (A wish stands in for any slot traffic: the stale branch routes
    /// every kind alike, before any verification.)
    #[test]
    fn checkpoint_is_pushed_only_to_a_peer_that_would_take_it() {
        let depth = 2;
        let mut donor = checkpoint_node(0, 4, depth);
        apply_slots(&mut donor, 0, 4);
        let digest = donor.checkpointer.own_checkpoint(4).expect("own").0;
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            donor.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
        }
        let stable = donor.stable_checkpoint().expect("stable").slot;
        let mut push_for = |slot: u64| {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            donor.on_message(ProcessId(3), slot_msg(b"node-tests", slot), &mut ctx);
            ctx.drain_actions().into_iter().any(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: SmrMessage::StateReply(_),
                        ..
                    }
                )
            })
        };
        assert!(!push_for(stable - 1), "an in-step peer is not pushed to");
        assert!(push_for(stable - depth as u64 - 1), "a stranded one is");
        assert_eq!(donor.obs.snapshots_served.get(), 1);
    }

    /// Serving mode opens a slot on peer traffic — including traffic that
    /// arrived while the slot was still beyond the pipeline window and was
    /// buffered. Here replica 6 hears every message for slot 1 before the
    /// votes that let it apply slot 0 (links reorder freely); when slot 0
    /// applies, the window reaches slot 1, and since nobody will repeat
    /// that traffic, the buffered messages must open it then.
    #[test]
    fn traffic_buffered_beyond_the_window_opens_its_slot_once_in_reach() {
        // n = 7 so that six replicas are a quorum without the seventh.
        const N: usize = 7;
        const LATE: usize = N - 1;
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(N).build());
        let keyring = Keyring::generate(N, b"node-tests");
        let public = Arc::new(keyring.public());
        let mut nodes: Vec<SmrNode<KvStore>> = (0..N)
            .map(|id| {
                SmrNode::new(
                    cfg.clone(),
                    ReplicaId::from(id),
                    keyring.signing_key(id).expect("in range").clone(),
                    public.clone(),
                    Vec::new(),
                    SmrSettings::live(1),
                )
            })
            .collect();
        /// Runs `f` on node `id`; returns what it sent as `(from, to, msg)`.
        fn step(
            nodes: &mut [SmrNode<KvStore>],
            id: usize,
            f: impl FnOnce(&mut SmrNode<KvStore>, &mut Context<SmrMessage>),
        ) -> Vec<(usize, usize, SmrMessage)> {
            let node = &mut nodes[id];
            let mut ctx = Context::detached(ProcessId(id), SimTime::ZERO);
            f(node, &mut ctx);
            ctx.drain_actions()
                .into_iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg } => Some((id, to.index(), msg)),
                    _ => None,
                })
                .collect()
        }
        let mut queue = std::collections::VecDeque::new();
        // Two entries at the leader: slots 0 and 1, one window apart.
        for seq in 1..=2 {
            let entry = Entry::tagged_write(
                RequestId { client: 1, seq },
                Command::Put {
                    key: format!("k{seq}"),
                    value: "v".into(),
                },
            );
            queue.extend(step(&mut nodes, 0, |n, ctx| n.submit(entry, ctx)));
        }
        // Replicas 0–5 (a quorum) run both slots; replica 6's mail waits.
        let mut held = Vec::new();
        while let Some((from, to, msg)) = queue.pop_front() {
            if to == LATE {
                held.push((from, msg));
            } else {
                queue.extend(step(&mut nodes, to, |n, ctx| {
                    n.on_message(ProcessId(from), msg, ctx)
                }));
            }
        }
        assert_eq!(nodes[0].slots_applied(), 2);
        // Slot 1's traffic first (buffered: the window is slot 0 alone),
        // then slot 0's.
        let slot_of = |msg: &SmrMessage| match msg {
            SmrMessage::Slot(m) => m.slot,
            _ => u64::MAX,
        };
        held.sort_by_key(|(_, msg)| std::cmp::Reverse(slot_of(msg)));
        for (from, msg) in held {
            step(&mut nodes, LATE, |n, ctx| {
                n.on_message(ProcessId(from), msg, ctx)
            });
        }
        assert_eq!(nodes[LATE].slots_applied(), 2, "slot 1 never opened");
        assert_eq!(nodes[LATE].log_digest(), nodes[0].log_digest());
    }

    /// A genuine, correctly certified `StateReply` for a checkpoint the
    /// pipeline window can still reach is ignored: restoring would wipe
    /// in-flight slots whose traffic peers never retransmit.
    #[test]
    fn in_window_state_reply_leaves_in_flight_slots_alone() {
        let mut donor = checkpoint_node(0, 4, 1);
        apply_slots(&mut donor, 0, 4);
        let digest = donor.checkpointer.own_checkpoint(4).expect("own").0;
        for peer in [1, 2] {
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            donor.on_message(ProcessId(peer), peer_vote(peer, 4, digest), &mut ctx);
        }
        let rep = donor.stable_checkpoint().expect("stable").clone();

        // Depth 4: slot 4 is exactly `next_apply + pipeline_depth`.
        let mut node = checkpoint_node(3, 4, 4);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        node.on_redirect(&mut ctx);
        node.on_message(ProcessId(0), SmrMessage::StateReply(rep.clone()), &mut ctx);
        assert_eq!(node.resident_slots(), 1, "the open slot survives");
        assert_eq!((node.slots_applied(), node.slots_opened()), (0, 1));
        assert_eq!(node.obs.state_transfers.get(), 0);
        assert_eq!(node.obs.drops_invalid_checkpoint.get(), 0, "genuine");

        // One slot shallower and the same reply is out of reach: restore.
        let mut shallow = checkpoint_node(3, 4, 3);
        let mut ctx = Context::detached(ProcessId(3), SimTime::ZERO);
        shallow.on_message(ProcessId(0), SmrMessage::StateReply(rep), &mut ctx);
        assert_eq!(shallow.slots_applied(), 4);
    }

    /// Unsigned or forged checkpoint votes never count toward a quorum.
    #[test]
    fn forged_checkpoint_votes_are_dropped() {
        let mut node = checkpoint_node(0, 2, 1);
        apply_slots(&mut node, 0, 2);
        let digest = node.checkpointer.own_checkpoint(2).expect("own").0;
        // Votes "from" replicas 1 and 2, but signed with the wrong keys.
        let other = Keyring::generate(4, b"imposter");
        for peer in [1usize, 2] {
            let forged = CheckpointVote::sign(
                other.signing_key(peer).expect("in range"),
                CheckpointBody {
                    from: ReplicaId::from(peer),
                    slot: 2,
                    digest,
                },
            );
            let mut ctx = Context::detached(ProcessId(0), SimTime::ZERO);
            node.on_message(
                ProcessId(peer),
                SmrMessage::CheckpointVote(forged),
                &mut ctx,
            );
        }
        assert!(node.stable_checkpoint().is_none(), "forged quorum rejected");
        assert_eq!(node.obs.drops_invalid_checkpoint.get(), 2);
    }

    /// The buffering horizon is conditional: wide without checkpointing
    /// (no recovery path exists for anyone dropped beyond it), tight with
    /// it (state transfer recovers them).
    #[test]
    fn buffering_horizon_is_wide_without_checkpointing_tight_with() {
        assert_eq!(SmrSettings::live(4).future_window(), 16);
        let mut with = SmrSettings::live(4);
        with.checkpoint_interval = 8;
        assert_eq!(with.future_window(), 8);
        // Deep pipelines scale both horizons past their floors.
        assert_eq!(SmrSettings::live(16).future_window(), 64);
        let mut deep = SmrSettings::live(16);
        deep.checkpoint_interval = 8;
        assert_eq!(deep.future_window(), 32);
    }

    /// A redirect opens exactly one slot, only on an idle serving node — the
    /// work that gets a follower's view timer running under a silent
    /// leader.
    #[test]
    fn redirect_opens_one_slot_only_on_idle_lazy_nodes() {
        let mut node = checkpoint_node(1, 0, 4);
        let mut ctx = Context::detached(ProcessId(1), SimTime::ZERO);
        node.on_redirect(&mut ctx);
        assert_eq!(node.slots_opened(), 1);
        // The one timer runs, sized for a view no further than progress.
        let timers: Vec<_> = ctx
            .drain_actions()
            .into_iter()
            .filter_map(|a| match a {
                Action::SetTimer { delay, .. } => Some(delay),
                _ => None,
            })
            .collect();
        assert_eq!(timers, [node.seat.cfg.base_timeout()]);
        // Already in flight: a second redirect is a no-op.
        let mut ctx = Context::detached(ProcessId(1), SimTime::ZERO);
        node.on_redirect(&mut ctx);
        assert_eq!(node.slots_opened(), 1);
        assert!(ctx.drain_actions().is_empty());
        // Workload-mode nodes open nothing on a redirect (the workload
        // drives them).
        let mut eager = test_node(SmrSettings::sequential(4));
        let mut ctx2 = Context::detached(ProcessId(0), SimTime::ZERO);
        eager.on_redirect(&mut ctx2);
        assert_eq!(eager.slots_opened(), 0);
    }
}
