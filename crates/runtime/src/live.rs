//! Live TCP state-machine replication: [`SmrNode`] driven by real sockets.
//!
//! Each replica thread hosts the same pipelined, batched [`SmrNode`] that
//! runs in the simulator — generic over the replicated [`StateMachine`] —
//! but its slot-tagged consensus traffic travels as [`SmrFrame::Peer`]
//! frames over loopback TCP and its operations come from real clients
//! instead of a prebuilt workload: an [`SmrFrame::Request`] carries a
//! client operation plus its [`RequestId`], the node feeds it into the
//! pending queue (demand-driven slot opening, so batching operates on what
//! actually arrived), and once the operation reaches the applied log the
//! replica answers with an [`SmrReply::Applied`] carrying the machine's
//! *typed response*. Non-leaders redirect the client to the leader of the
//! log's view as they hold it (id *and* address); retried request ids
//! are deduplicated inside the replicated state machine and answered from
//! its reply cache, so submissions stay at-most-once across redirects,
//! reconnects, and view changes.
//!
//! Reads have their own consensus-bypassing frames:
//! [`SmrFrame::ReadRequest`] is evaluated against the contacted replica's
//! applied state ([`Consistency::Local`] — any replica, possibly stale;
//! [`Consistency::Leader`] — only the replica that believes it leads,
//! redirecting otherwise) and answered with [`SmrFrame::ReadReply`].
//! [`Consistency::Linearizable`] reads never use these frames: the client
//! submits them as ordered read entries through the normal request path,
//! paying one consensus round for a log-ordered observation.
//!
//! With a [`checkpoint_interval`](LiveSmrBuilder::checkpoint_interval)
//! set, the checkpoint subsystem rides three more frames: signed
//! [`SmrFrame::CheckpointVote`] attestations make checkpoints stable (and
//! the resident log bounded), and a replica that finds itself behind the
//! cluster's stable checkpoint — a restarted or partitioned laggard —
//! fetches the snapshot over TCP with [`SmrFrame::StateRequest`] /
//! [`SmrFrame::StateReply`] and resumes consensus from the checkpoint
//! slot instead of replaying (or waiting forever for) the truncated log.

use crate::cluster::ClusterError;
use crate::host::{bind_listeners, micros, wire_id, FrameKind, Host, ReplyHandle};
use crate::transport::write_frame;
use probft_core::config::{ProbftConfig, SharedConfig, View};
use probft_core::wire::{put, Reader, Wire, WireError};
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::Digest;
use probft_obs::{MetricsSnapshot, Obs, TraceEvent, TraceKind};
use probft_quorum::ReplicaId;
use probft_simnet::process::{Process, ProcessId};
use probft_simnet::time::SimDuration;
use probft_smr::node::SmrNode;
use probft_smr::{
    CheckpointVote, Consistency, Entry, KvStore, OpKind, RequestId, SlotMessage, SmrMessage,
    SmrSettings, StateMachine, StateReply, StateRequest,
};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub use crate::host::{LinkDecision, LinkRule, NetPolicy};

/// One frame of the live SMR wire protocol, typed by the replicated
/// [`StateMachine`]. Self-describing, so replicas and clients share a
/// single listener port.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrFrame<S: StateMachine> {
    /// Replica-to-replica consensus traffic for one log slot.
    Peer {
        /// Sending replica id (the replica's own signatures are what is
        /// actually trusted; this routes the message to per-slot state).
        from: u32,
        /// The slot-tagged consensus message.
        msg: SlotMessage,
    },
    /// Client-to-replica submission of an operation to be *ordered*
    /// through the log: a write, or a linearizable read (`kind`
    /// distinguishes them — read entries are applied via `query` and
    /// never mutate the machine).
    Request {
        /// The client's unique id for this submission (retries reuse it).
        request: RequestId,
        /// Whether the operation mutates state or is a log-ordered read.
        kind: OpKind,
        /// The operation to order.
        op: S::Op,
    },
    /// Replica-to-client outcome of a [`Request`](Self::Request).
    Reply(SmrReply<S::Response>),
    /// Client-to-replica read served off the replica's applied state,
    /// bypassing consensus ([`Consistency::Local`] and
    /// [`Consistency::Leader`] tiers).
    ReadRequest {
        /// Reply-matching id (reads are not deduplicated — they execute
        /// nothing — but replies must find their way back).
        request: RequestId,
        /// The tier the client demands.
        consistency: Consistency,
        /// The read operation to evaluate.
        op: S::Op,
    },
    /// Replica-to-client answer to a consensus-bypassing read.
    ReadReply {
        /// The read this answers.
        request: RequestId,
        /// The machine's typed response, evaluated between whole-batch
        /// applies (never torn).
        response: S::Response,
    },
    /// Replica-to-replica signed checkpoint attestation. The Schnorr
    /// signature inside the vote (not the connection it arrived on) is
    /// what authenticates it, so a rogue client cannot forge a stability
    /// quorum.
    CheckpointVote(CheckpointVote),
    /// A lagging replica asking a peer for its stable-checkpoint
    /// snapshot.
    StateRequest {
        /// Requesting replica id (where the [`StateReply`]
        /// (Self::StateReply) goes).
        from: u32,
        /// What is being asked for.
        req: StateRequest,
    },
    /// A stable-checkpoint snapshot in flight to a laggard, verified by
    /// the receiver against the quorum-attested digest.
    StateReply {
        /// Sending replica id.
        from: u32,
        /// The snapshot payload.
        rep: StateReply,
    },
}

/// A replica's answer to a client submission.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrReply<R> {
    /// The operation reached the replicated log and was applied (or was
    /// recognised as an already-applied retry and answered from the
    /// reply cache). Sent only after apply, carrying the typed result.
    Applied {
        /// The request this reply answers.
        request: RequestId,
        /// What the operation returned when it executed.
        response: R,
    },
    /// This replica is not the leader; resubmit to the named replica:
    /// the leader of the log's view as the redirecting replica holds it,
    /// so after a view change even an idle replica points at the new
    /// leader.
    Redirect {
        /// The request this reply answers.
        request: RequestId,
        /// The replica currently believed to lead, by id.
        leader: u32,
        /// The same replica's listening address — the authoritative hint,
        /// valid even if the client orders its address list differently.
        addr: SocketAddr,
    },
    /// Admission control: the leader *is* alive and *is* the leader, but
    /// its pending queue is full, so this submission was shed instead of
    /// queued. The right client response is to back off and retry the
    /// same request id *here* — rotating to another replica would only
    /// stampede a follower that redirects straight back.
    Overloaded {
        /// The request that was shed (not ordered, not applied).
        request: RequestId,
        /// The queue depth observed when shedding — a load signal the
        /// client can feed into its backoff.
        queued: u32,
    },
}

/// How long a replica keeps an unanswered client reply handle before
/// concluding the request was lost upstream (view change, deposed
/// leadership) and the client has long since retried elsewhere. Twice the
/// client's default overall submission budget.
const WAITER_TTL: Duration = Duration::from_secs(60);

const FRAME_PEER: u8 = 1;
const FRAME_REQUEST: u8 = 2;
const FRAME_APPLIED: u8 = 3;
const FRAME_REDIRECT: u8 = 4;
const FRAME_READ_REQUEST: u8 = 5;
const FRAME_READ_REPLY: u8 = 6;
const FRAME_CHECKPOINT_VOTE: u8 = 7;
const FRAME_STATE_REQUEST: u8 = 8;
const FRAME_STATE_REPLY: u8 = 9;
const FRAME_OVERLOADED: u8 = 10;

fn encode_addr(out: &mut Vec<u8>, addr: &SocketAddr) {
    put::var_bytes(out, addr.to_string().as_bytes());
}

fn decode_addr(r: &mut Reader<'_>) -> Result<SocketAddr, WireError> {
    std::str::from_utf8(r.var_bytes()?)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or(WireError::BadCrypto("socket address"))
}

fn encode_request(out: &mut Vec<u8>, request: RequestId) {
    put::u64(out, request.client);
    put::u64(out, request.seq);
}

fn decode_request(r: &mut Reader<'_>) -> Result<RequestId, WireError> {
    Ok(RequestId {
        client: r.u64()?,
        seq: r.u64()?,
    })
}

impl<S: StateMachine> Wire for SmrFrame<S> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrFrame::Peer { from, msg } => {
                out.push(FRAME_PEER);
                put::u32(out, *from);
                msg.encode(out);
            }
            SmrFrame::Request { request, kind, op } => {
                out.push(FRAME_REQUEST);
                encode_request(out, *request);
                kind.encode(out);
                op.encode(out);
            }
            SmrFrame::Reply(SmrReply::Applied { request, response }) => {
                out.push(FRAME_APPLIED);
                encode_request(out, *request);
                response.encode(out);
            }
            SmrFrame::Reply(SmrReply::Redirect {
                request,
                leader,
                addr,
            }) => {
                out.push(FRAME_REDIRECT);
                encode_request(out, *request);
                put::u32(out, *leader);
                encode_addr(out, addr);
            }
            SmrFrame::Reply(SmrReply::Overloaded { request, queued }) => {
                out.push(FRAME_OVERLOADED);
                encode_request(out, *request);
                put::u32(out, *queued);
            }
            SmrFrame::ReadRequest {
                request,
                consistency,
                op,
            } => {
                out.push(FRAME_READ_REQUEST);
                encode_request(out, *request);
                consistency.encode(out);
                op.encode(out);
            }
            SmrFrame::ReadReply { request, response } => {
                out.push(FRAME_READ_REPLY);
                encode_request(out, *request);
                response.encode(out);
            }
            SmrFrame::CheckpointVote(vote) => {
                out.push(FRAME_CHECKPOINT_VOTE);
                vote.encode(out);
            }
            SmrFrame::StateRequest { from, req } => {
                out.push(FRAME_STATE_REQUEST);
                put::u32(out, *from);
                req.encode(out);
            }
            SmrFrame::StateReply { from, rep } => {
                out.push(FRAME_STATE_REPLY);
                put::u32(out, *from);
                rep.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            FRAME_PEER => {
                let from = r.u32()?;
                let msg = SlotMessage::decode(r)?;
                Ok(SmrFrame::Peer { from, msg })
            }
            FRAME_REQUEST => {
                let request = decode_request(r)?;
                let kind = OpKind::decode(r)?;
                let op = S::Op::decode(r)?;
                Ok(SmrFrame::Request { request, kind, op })
            }
            FRAME_APPLIED => {
                let request = decode_request(r)?;
                let response = S::Response::decode(r)?;
                Ok(SmrFrame::Reply(SmrReply::Applied { request, response }))
            }
            FRAME_REDIRECT => {
                let request = decode_request(r)?;
                let leader = r.u32()?;
                let addr = decode_addr(r)?;
                Ok(SmrFrame::Reply(SmrReply::Redirect {
                    request,
                    leader,
                    addr,
                }))
            }
            FRAME_OVERLOADED => {
                let request = decode_request(r)?;
                let queued = r.u32()?;
                Ok(SmrFrame::Reply(SmrReply::Overloaded { request, queued }))
            }
            FRAME_READ_REQUEST => {
                let request = decode_request(r)?;
                let consistency = Consistency::decode(r)?;
                let op = S::Op::decode(r)?;
                Ok(SmrFrame::ReadRequest {
                    request,
                    consistency,
                    op,
                })
            }
            FRAME_READ_REPLY => {
                let request = decode_request(r)?;
                let response = S::Response::decode(r)?;
                Ok(SmrFrame::ReadReply { request, response })
            }
            FRAME_CHECKPOINT_VOTE => Ok(SmrFrame::CheckpointVote(CheckpointVote::decode(r)?)),
            FRAME_STATE_REQUEST => {
                let from = r.u32()?;
                let req = StateRequest::decode(r)?;
                Ok(SmrFrame::StateRequest { from, req })
            }
            FRAME_STATE_REPLY => {
                let from = r.u32()?;
                let rep = StateReply::decode(r)?;
                Ok(SmrFrame::StateReply { from, rep })
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// What one replica held when the cluster was shut down.
#[derive(Clone, Debug)]
pub struct ReplicaReport<S: StateMachine = KvStore> {
    /// The replica's id.
    pub id: usize,
    /// Its *resident* decided entry log: the suffix above the stable
    /// checkpoint (the full log while checkpointing is off; identical
    /// across correct replicas up to truncation points).
    pub log: Vec<Entry<S::Op>>,
    /// Entries truncated below the stable checkpoint — the global index
    /// of `log[0]`.
    pub log_offset: u64,
    /// Running SHA-256 chain over every entry the replica ever applied;
    /// with [`total_log_len`](Self::total_log_len) it identifies the full
    /// logical log even after truncation.
    pub log_digest: Digest,
    /// Its application state.
    pub state: S,
    /// Per-slot consensus instances still heap-resident (bounded by the
    /// pipeline depth — decided slots are pruned on apply).
    pub resident_slots: usize,
    /// Final snapshot of the replica's `probft-obs` metrics registry:
    /// latency histograms (commit/decide/apply/recovery), attributable
    /// drop counters, the checkpoint / truncation / state-transfer
    /// counters, frame byte counters, and gauges.
    pub metrics: MetricsSnapshot,
    /// The replica's flight-recorder journal at shutdown: the last
    /// `DEFAULT_JOURNAL_CAPACITY` consensus-phase events, with any
    /// nemesis fault markers interleaved on the same clock.
    pub journal: Vec<TraceEvent>,
}

impl<S: StateMachine> ReplicaReport<S> {
    /// Total entries the replica applied: truncated plus resident.
    pub fn total_log_len(&self) -> u64 {
        self.log_offset.saturating_add(self.log.len() as u64)
    }

    /// Folds every replica's metrics snapshot into one cluster-wide
    /// snapshot (labeled `cluster`): counters and histogram buckets add,
    /// so percentiles read over the union of all replicas' samples.
    pub fn aggregate_metrics(reports: &[ReplicaReport<S>]) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        merged.set_label("cluster");
        for report in reports {
            merged.merge(&report.metrics);
        }
        merged
    }
}

/// Builds a live TCP cluster that serves state-machine replication of any
/// [`StateMachine`] to [`SmrClient`](crate::SmrClient)s (default: the
/// reference [`KvStore`]).
///
/// ```no_run
/// use probft_runtime::LiveSmrBuilder;
///
/// let cluster = LiveSmrBuilder::new(4).start().unwrap();
/// let mut client = cluster.client(1);
/// client.put("greeting", "hello").unwrap();
/// let reports = cluster.shutdown();
/// assert!(reports.iter().all(|r| r.state.get("greeting") == Some("hello")));
/// ```
#[derive(Debug)]
pub struct LiveSmrBuilder<S: StateMachine = KvStore> {
    n: usize,
    seed: u64,
    base_port: Option<u16>,
    pipeline_depth: usize,
    batch_size: usize,
    checkpoint_interval: usize,
    max_pending: usize,
    _machine: std::marker::PhantomData<S>,
}

impl LiveSmrBuilder<KvStore> {
    /// Starts building an `n`-replica live KV cluster on OS-assigned
    /// loopback ports, pipeline depth 4, batch size 8.
    pub fn new(n: usize) -> Self {
        Self::for_machine(n)
    }
}

impl<S: StateMachine> LiveSmrBuilder<S> {
    /// Starts building an `n`-replica live cluster replicating an
    /// arbitrary [`StateMachine`]
    /// (`LiveSmrBuilder::<MyMachine>::for_machine(n)`).
    pub fn for_machine(n: usize) -> Self {
        LiveSmrBuilder {
            n,
            seed: 1,
            base_port: None,
            pipeline_depth: 4,
            batch_size: 8,
            checkpoint_interval: 0,
            max_pending: 0,
            _machine: std::marker::PhantomData,
        }
    }

    /// Key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses a fixed port range (replica `i` on `base_port + i`) instead of
    /// OS-assigned ports.
    pub fn base_port(mut self, port: u16) -> Self {
        self.base_port = Some(port);
        self
    }

    /// How many log slots run consensus concurrently.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Has no effect: a live cluster always batches adaptively
    /// ([`SmrSettings::live`]), sizing each batch from the observed
    /// pending-queue depth up to [`MAX_BATCH`](probft_smr::MAX_BATCH), and
    /// that rule never reads the static `batch_size` cap. The value is
    /// stored in the settings and the setter is kept for its callers.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Admission-control cap: once a leader's pending queue holds this
    /// many entries, further client submissions are shed with an explicit
    /// [`SmrReply::Overloaded`] instead of queued (0 — the default —
    /// disables shedding). Clients back off and retry; the queue, and
    /// with it every queued client's latency, stays bounded.
    pub fn max_pending(mut self, cap: usize) -> Self {
        self.max_pending = cap;
        self
    }

    /// Takes a checkpoint every `interval` applied slots (0 disables —
    /// the default). Bounds every replica's resident command log to
    /// O(interval + pipeline depth) slots' worth of entries and lets a
    /// replica that fell behind the stable checkpoint catch up by
    /// snapshot transfer instead of stalling.
    pub fn checkpoint_interval(mut self, interval: usize) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Boots the replica threads and returns a handle serving clients.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Bind`] if a listener port cannot be bound.
    pub fn start(self) -> Result<LiveSmrCluster<S>, ClusterError> {
        // A generous base view timeout (250 ms wall time under the
        // tick-is-a-microsecond convention): loopback slots decide in
        // single-digit milliseconds, so view changes fire only on real
        // trouble, not on a loaded CI machine's scheduling hiccups.
        let cfg: SharedConfig = Arc::new(
            ProbftConfig::builder(self.n)
                .base_timeout(SimDuration::from_ticks(250_000))
                .build(),
        );
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut settings = SmrSettings::live(self.pipeline_depth, self.batch_size);
        settings.checkpoint_interval = self.checkpoint_interval;
        settings.max_pending = self.max_pending;

        let (listeners, addrs) =
            bind_listeners(self.n, self.base_port).map_err(ClusterError::Bind)?;
        let addrs = Arc::new(addrs);
        let n = self.n;

        let net = Arc::new(NetPolicy::default());
        net.reseed(self.seed);
        let watches: Vec<Arc<ReplicaWatch>> = (0..n).map(|_| Arc::default()).collect();
        // One telemetry bundle per replica, created up front so the
        // cluster handle (and through it the nemesis) shares the exact
        // registry and journal the replica thread records into.
        let obs_handles: Vec<Arc<Obs>> = (0..n)
            .map(|i| Arc::new(Obs::new(format!("replica-{i}"))))
            .collect();

        let mut handles = Vec::with_capacity(n);
        let per_replica = listeners.into_iter().zip(&watches).zip(&obs_handles);
        for (i, ((listener, watch), obs)) in per_replica.enumerate() {
            let cfg = cfg.clone();
            let sk = keyring
                .signing_key(i)
                .map_err(|_| ClusterError::Config("keyring shorter than cluster size"))?
                .clone();
            let public = public.clone();
            let (addrs, shutdown, net) = (addrs.clone(), shutdown.clone(), net.clone());
            let (watch, obs) = (watch.clone(), obs.clone());
            handles.push(thread::spawn(move || {
                let mut node: SmrNode<S> = SmrNode::new(
                    cfg,
                    ReplicaId::from(i),
                    sk,
                    public,
                    Vec::new(), // no prebuilt workload: operations arrive from clients
                    settings,
                );
                node.set_obs(obs.clone());
                let decode = smr_decoder::<S>(n, &obs);
                let mut host = Host::new(i, addrs, shutdown, net, obs, encode_smr_message::<S>);
                host.listen(listener, decode);
                smr_replica_main(node, host, &watch)
            }));
        }

        Ok(LiveSmrCluster {
            cfg,
            addrs,
            shutdown,
            handles,
            watches,
            net,
            keyring,
            obs: obs_handles,
        })
    }
}

/// What a replica thread publishes for the cluster handle to read, and
/// the one flag the handle sets for the thread.
#[derive(Debug, Default)]
struct ReplicaWatch {
    /// Applied-log length, for the quiescence wait at shutdown.
    applied_len: AtomicU64,
    /// Fault injection: a paused replica drops everything it receives and
    /// sends nothing, like a partitioned or stalled process.
    paused: AtomicBool,
}

/// A running live SMR cluster. Dropping without calling
/// [`shutdown`](Self::shutdown) detaches the replica threads; call
/// `shutdown` to stop them and collect their final logs and states.
#[derive(Debug)]
pub struct LiveSmrCluster<S: StateMachine = KvStore> {
    addrs: Arc<Vec<SocketAddr>>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<ReplicaReport<S>>>,
    /// The configuration every replica runs under.
    cfg: SharedConfig,
    /// Per-replica progress and pause flag.
    watches: Vec<Arc<ReplicaWatch>>,
    /// Per-link network fault policy every replica's outbound path
    /// consults (fault injection: partitions, latency, jitter).
    net: Arc<NetPolicy>,
    /// The cluster's keyring (fault injection: lets a live Byzantine
    /// agent sign protocol-valid equivocation with a real replica's key —
    /// the deployment-secret analogue of the sim's in-process adversary).
    keyring: Keyring,
    /// Per-replica telemetry bundles — the same ones the replica threads
    /// record into, so the nemesis can inject fault markers and tests can
    /// watch histograms fill while the cluster runs.
    obs: Vec<Arc<Obs>>,
}

impl<S: StateMachine> LiveSmrCluster<S> {
    /// The replicas' listening addresses, indexed by replica id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Creates a client for this cluster. `client_id` must be unique among
    /// concurrently submitting clients — it namespaces request ids.
    pub fn client(&self, client_id: u64) -> crate::client::SmrClient<S> {
        crate::client::SmrClient::new(self.addrs.to_vec(), client_id)
    }

    /// Per-replica applied-log lengths right now (indexed by replica id).
    pub fn applied_lens(&self) -> Vec<u64> {
        self.watches
            .iter()
            .map(|w| w.applied_len.load(Ordering::SeqCst))
            .collect()
    }

    /// Stalls replica `i`: it stops firing timers, sends nothing, and
    /// discards everything it receives — indistinguishable from a crash
    /// or partition to the rest of the cluster. Fault injection for
    /// tests and experiments; a no-op for out-of-range ids.
    pub fn pause(&self, i: usize) {
        if let Some(watch) = self.watches.get(i) {
            watch.paused.store(true, Ordering::SeqCst);
        }
    }

    /// Un-stalls replica `i`. The replica resumes with whatever state it
    /// had when paused; if the cluster moved past a stable checkpoint in
    /// the meantime, it catches up by snapshot state transfer.
    pub fn resume(&self, i: usize) {
        if let Some(watch) = self.watches.get(i) {
            watch.paused.store(false, Ordering::SeqCst);
        }
    }

    /// Whether replica `i` is currently [`pause`](Self::pause)d (false
    /// for out-of-range ids).
    pub fn is_paused(&self, i: usize) -> bool {
        self.watches
            .get(i)
            .is_some_and(|watch| watch.paused.load(Ordering::SeqCst))
    }

    /// The per-link network fault policy: drop rules build (asymmetric)
    /// partitions, latency rules inject deterministic jitter. Every
    /// replica's outbound peer path consults it; client connections are
    /// deliberately unaffected (the nemesis attacks the cluster, not the
    /// observer).
    pub fn net(&self) -> &NetPolicy {
        &self.net
    }

    /// The id the (unpaused) cluster currently believes leads: the leader
    /// of [`current_view`](Self::current_view). Transiently stale
    /// mid-view-change — callers targeting "the leader" get whoever most
    /// of the cluster would redirect a client to.
    pub fn current_leader(&self) -> usize {
        self.cfg.leader_of(self.current_view()).index()
    }

    /// The view the (unpaused) cluster currently holds the log in: the
    /// plurality of the replicas' `view` gauges, ties broken low (lets a
    /// nemesis target "the leader", and forge in the view slots run in).
    pub fn current_view(&self) -> View {
        let mut votes: BTreeMap<u64, usize> = BTreeMap::new();
        for (watch, obs) in self.watches.iter().zip(&self.obs) {
            if !watch.paused.load(Ordering::SeqCst) {
                *votes.entry(obs.view.get()).or_default() += 1;
            }
        }
        let plurality = votes
            .into_iter()
            .max_by_key(|&(view, count)| (count, std::cmp::Reverse(view)));
        // (A replica that has not started yet still shows view 0.)
        plurality.map_or(View::FIRST, |(view, _)| View(view).max(View::FIRST))
    }

    /// Replica `i`'s telemetry bundle — the exact registry and journal
    /// its thread records into, live (None for out-of-range ids).
    pub fn obs(&self, i: usize) -> Option<Arc<Obs>> {
        self.obs.get(i).cloned()
    }

    /// Every replica's telemetry bundle, indexed by replica id.
    pub fn obs_handles(&self) -> &[Arc<Obs>] {
        &self.obs
    }

    /// Journals a nemesis fault marker on every replica's flight
    /// recorder. With `kill` set the marker also arms each replica's
    /// recovery-latency clock: its next applied slot records the
    /// fault→progress time into the `recovery_latency_us` histogram —
    /// the post-leader-kill view-change recovery cost.
    pub fn note_fault(&self, fault: &str, kill: bool) {
        for obs in &self.obs {
            if kill {
                obs.mark_fault(fault);
            } else {
                obs.trace(TraceKind::FaultStart {
                    fault: fault.to_string(),
                });
            }
        }
    }

    /// Journals the lifting of a nemesis fault on every replica's flight
    /// recorder (the recovery clock, if armed, stays armed: recovery
    /// means commit progress, not fault removal).
    pub fn note_fault_lifted(&self, fault: &str) {
        for obs in &self.obs {
            obs.mark_fault_lifted(fault);
        }
    }

    /// The cluster's full keyring. Fault-injection surface: a nemesis
    /// uses a replica's signing key to forge protocol-valid Byzantine
    /// traffic (equivocating proposals, far-future wish spray) exactly
    /// like the sim's in-process adversaries — the live analogue of a
    /// compromised deployment secret.
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }

    /// Stops every replica thread and returns what each one held, in
    /// replica-id order.
    ///
    /// The leader answers a client as soon as *it* applies, so at the
    /// moment the last reply arrives the followers may still be a few
    /// commit deliveries behind. Before raising the shutdown flag this
    /// waits (bounded) for quiescence — every replica at the same applied
    /// length, unchanged for a quiet period — so callers that stopped
    /// submitting observe identical logs everywhere. Replicas left
    /// [`pause`](Self::pause)d are excluded from the wait (they cannot
    /// make progress by definition).
    pub fn shutdown(self) -> Vec<ReplicaReport<S>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut stable: Option<(Vec<u64>, Instant)> = None;
        while Instant::now() < deadline {
            let lens: Vec<u64> = self
                .watches
                .iter()
                .filter(|w| !w.paused.load(Ordering::SeqCst))
                .map(|w| w.applied_len.load(Ordering::SeqCst))
                .collect();
            let all_equal = lens.iter().zip(lens.iter().skip(1)).all(|(a, b)| a == b);
            match &stable {
                Some((prev, since)) if *prev == lens => {
                    if all_equal && since.elapsed() >= Duration::from_millis(250) {
                        break;
                    }
                }
                _ => stable = Some((lens, Instant::now())),
            }
            crate::pacing::pause(crate::pacing::QUIESCE_POLL);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let mut reports: Vec<ReplicaReport<S>> = self
            .handles
            .into_iter()
            .filter_map(|h| h.join().ok())
            .collect();
        reports.sort_by_key(|r| r.id);
        reports
    }
}

/// Inbound events to a live SMR replica's event loop.
pub(crate) enum SmrEvent<S: StateMachine> {
    /// Consensus or checkpoint traffic from a peer replica.
    Peer(ProcessId, SmrMessage),
    /// A client submission to be ordered, with the write half of its
    /// connection for the eventual reply.
    Request {
        request: RequestId,
        kind: OpKind,
        op: S::Op,
        reply: ReplyHandle,
    },
    /// A consensus-bypassing client read.
    Read {
        request: RequestId,
        consistency: Consistency,
        op: S::Op,
        reply: ReplyHandle,
    },
}

/// The SMR shape's outbound codec: each [`SmrMessage`] variant onto its
/// wire frame, charged to its byte counter.
fn encode_smr_message<S: StateMachine>(id: usize, msg: SmrMessage) -> (FrameKind, Vec<u8>) {
    let from = wire_id(id);
    let (kind, frame) = match msg {
        SmrMessage::Slot(msg) => (FrameKind::Peer, SmrFrame::<S>::Peer { from, msg }),
        SmrMessage::CheckpointVote(vote) => (FrameKind::Checkpoint, SmrFrame::CheckpointVote(vote)),
        SmrMessage::StateRequest(req) => (FrameKind::State, SmrFrame::StateRequest { from, req }),
        SmrMessage::StateReply(rep) => (FrameKind::State, SmrFrame::StateReply { from, rep }),
    };
    (kind, frame.to_wire_bytes())
}

/// The SMR shape's inbound codec for an `n`-replica cluster: one frame to
/// one event, charging accepted frames to `obs`'s per-kind
/// `frame_bytes_in` counters (fetched once here, not per frame). `None` —
/// counted malformed by the reader loop, connection kept — for
/// undecodable bytes, out-of-range sender ids, and replies sent *to* a
/// replica.
pub(crate) fn smr_decoder<S: StateMachine>(
    n: usize,
    obs: &Obs,
) -> impl Fn(&[u8], &ReplyHandle) -> Option<SmrEvent<S>> + Clone + Send + 'static {
    let in_peer = obs.frame_bytes_in("peer");
    let in_request = obs.frame_bytes_in("request");
    let in_read = obs.frame_bytes_in("read");
    let in_checkpoint = obs.frame_bytes_in("checkpoint");
    let in_state = obs.frame_bytes_in("state");
    move |frame, reply| {
        let peer = |from: usize, msg| (from < n).then_some(SmrEvent::Peer(ProcessId(from), msg));
        let (bytes_in, event) = match SmrFrame::<S>::from_wire_bytes(frame).ok()? {
            SmrFrame::Peer { from, msg } => (&in_peer, peer(from as usize, SmrMessage::Slot(msg))?),
            // Checkpoint traffic: votes authenticate themselves (the node
            // checks the Schnorr signature); requests and replies carry
            // the sender id for reply routing, and a forged reply is
            // discarded by the digest check against the attested quorum.
            SmrFrame::CheckpointVote(vote) => (
                &in_checkpoint,
                peer(vote.from.index(), SmrMessage::CheckpointVote(vote))?,
            ),
            SmrFrame::StateRequest { from, req } => (
                &in_state,
                peer(from as usize, SmrMessage::StateRequest(req))?,
            ),
            SmrFrame::StateReply { from, rep } => {
                (&in_state, peer(from as usize, SmrMessage::StateReply(rep))?)
            }
            SmrFrame::Request { request, kind, op } => (
                &in_request,
                SmrEvent::Request {
                    request,
                    kind,
                    op,
                    reply: reply.clone(),
                },
            ),
            // A linearizable read *is* an ordered request (a read-kind
            // entry): rewrite it here so the event loop serves it through
            // the one request path — dedup, reply cache, waiting map and
            // all.
            SmrFrame::ReadRequest {
                request,
                consistency: Consistency::Linearizable,
                op,
            } => (
                &in_read,
                SmrEvent::Request {
                    request,
                    kind: OpKind::Read,
                    op,
                    reply: reply.clone(),
                },
            ),
            SmrFrame::ReadRequest {
                request,
                consistency,
                op,
            } => (
                &in_read,
                SmrEvent::Read {
                    request,
                    consistency,
                    op,
                    reply: reply.clone(),
                },
            ),
            SmrFrame::Reply(_) | SmrFrame::ReadReply { .. } => return None,
        };
        bytes_in.add(frame.len() as u64);
        Some(event)
    }
}

/// One live SMR replica: `node` on `host`, serving client requests and
/// reads between protocol steps until shutdown.
fn smr_replica_main<S: StateMachine>(
    mut node: SmrNode<S>,
    mut host: Host<SmrMessage, SmrEvent<S>>,
    watch: &ReplicaWatch,
) -> ReplicaReport<S> {
    let id = host.id();
    let obs = host.obs().clone();
    let addrs = host.addrs().clone();
    // Clients awaiting a post-apply reply, by request id, with the time
    // each entry was (last) registered.
    let mut waiting: BTreeMap<RequestId, (ReplyHandle, Instant)> = BTreeMap::new();
    // Points a client at the leader of the log's view (id and address).
    // Callers then tell the node (`on_redirect`): a client turned away is
    // work the named leader owes, and that is what runs the view timer
    // when no slot is in flight anywhere — the idle-leader-crash case.
    let redirect = |node: &SmrNode<S>, reply: &ReplyHandle, request| {
        let leader = node.current_leader().index();
        // `% n` keeps the index in range for any sane `addrs`; `.get`
        // degrades an impossible empty list to a redirect the client
        // treats as unreachable, instead of panicking the replica.
        let addr = addrs
            .get(leader % addrs.len().max(1))
            .copied()
            .unwrap_or_else(crate::client::unusable_addr);
        let leader = wire_id(leader);
        send_frame::<S>(
            reply,
            SmrFrame::Reply(SmrReply::Redirect {
                request,
                leader,
                addr,
            }),
        );
        obs.redirects_served.inc();
        obs.trace(TraceKind::RedirectServed {
            leader: leader as u64,
        });
    };

    // Start the node (in live mode this opens no slots until traffic
    // arrives).
    host.drive(|ctx| node.on_start(ctx));

    while host.running() {
        if watch.paused.load(Ordering::SeqCst) {
            // Fault injection: a paused replica is a partitioned process.
            // Discard whatever arrives, fire nothing, send nothing.
            host.discard_events();
            crate::pacing::pause(crate::pacing::PAUSED_POLL);
            continue;
        }
        match host.next_event(&mut node) {
            Some(SmrEvent::Peer(from, msg)) => host.drive(|ctx| node.on_message(from, msg, ctx)),
            Some(SmrEvent::Request {
                request,
                kind,
                op,
                reply,
            }) => {
                if node.current_leader().index() != id {
                    redirect(&node, &reply, request);
                    host.drive(|ctx| node.on_redirect(ctx));
                } else if let Some(response) = node.cached_response(request).cloned() {
                    // A retry of something already applied: answer from
                    // the reply cache without re-ordering it
                    // (at-most-once).
                    send_frame::<S>(
                        &reply,
                        SmrFrame::Reply(SmrReply::Applied { request, response }),
                    );
                } else if node.overloaded() && !waiting.contains_key(&request) {
                    // Admission control: the pending queue is at its cap,
                    // so shed this submission with an explicit signal
                    // instead of letting the queue (and every queued
                    // client's latency) grow without bound. The client
                    // backs off and retries here — rotating to a follower
                    // would only earn a redirect straight back. Retries of
                    // an entry already queued are exempt: refusing those
                    // would orphan their reply handle.
                    obs.shed_requests.inc();
                    obs.trace(TraceKind::OverloadShed);
                    send_frame::<S>(
                        &reply,
                        SmrFrame::Reply(SmrReply::Overloaded {
                            request,
                            queued: u32::try_from(node.pending_len()).unwrap_or(u32::MAX),
                        }),
                    );
                } else {
                    // Accept: remember who to answer, feed the entry into
                    // the pending queue. Duplicate in-flight retries just
                    // refresh the reply handle; the decided log's dedup
                    // keeps execution at-most-once.
                    waiting.insert(request, (reply, Instant::now()));
                    let entry = Entry {
                        request: Some(request),
                        kind,
                        op,
                    };
                    host.drive(|ctx| node.submit(entry, ctx));
                }
            }
            // Consensus-bypassing reads only (the decoder rewrites a
            // linearizable `ReadRequest` into an ordered `Request`). A
            // local read is served by any replica; a leader read only by
            // the replica that believes it leads, redirecting otherwise —
            // exactly like a write. Queries run here, between whole-batch
            // applies on this thread, so the observation is stale-at-worst,
            // never torn.
            Some(SmrEvent::Read {
                request,
                consistency,
                op,
                reply,
            }) => {
                if consistency == Consistency::Local || node.current_leader().index() == id {
                    let response = node.query(&op);
                    send_frame::<S>(&reply, SmrFrame::ReadReply { request, response });
                } else {
                    // A leader read bounced off a silent leader is client
                    // contact too, or an idle dead-leader cluster would
                    // serve writes but starve reads forever.
                    redirect(&node, &reply, request);
                    host.drive(|ctx| node.on_redirect(ctx));
                }
            }
            None => {}
        }

        // Answer every client whose entry reached the applied log, with
        // the typed response its operation produced.
        for applied in node.drain_applied() {
            if let Some((reply, since)) = waiting.remove(&applied.request) {
                // Receive → applied-and-answered at this replica: the
                // server-side commit latency the paper's probabilistic
                // latency claims are about.
                obs.commit_latency_us.record(micros(since.elapsed()));
                send_frame::<S>(
                    &reply,
                    SmrFrame::Reply(SmrReply::Applied {
                        request: applied.request,
                        response: applied.response,
                    }),
                );
            }
        }
        // Forget waiters whose entry never reached the log (e.g. lost
        // to a view change before being re-proposed): past the client's
        // retry budget nobody reads the handle any more, and keeping it
        // would pin the connection forever.
        if !waiting.is_empty() {
            waiting.retain(|_, (_, since)| since.elapsed() < WAITER_TTL);
        }
        watch
            .applied_len
            .store(node.total_log_len(), Ordering::SeqCst);
    }

    // Join the accept loop and every reader before reporting, so shutdown
    // leaves no running threads behind.
    host.join();

    ReplicaReport {
        id,
        log: node.log().to_vec(),
        log_offset: node.log_offset(),
        log_digest: node.log_digest(),
        state: node.state().clone(),
        resident_slots: node.resident_slots(),
        metrics: obs.snapshot(),
        journal: obs.journal().snapshot(),
    }
}

/// Writes one reply frame to a client connection, ignoring failures (a
/// vanished client simply never reads its answer; the state machine is
/// already consistent).
fn send_frame<S: StateMachine>(conn: &ReplyHandle, frame: SmrFrame<S>) {
    let mut stream: &TcpStream = conn;
    #[expect(
        clippy::let_underscore_must_use,
        reason = "send_frame is documented best-effort: a vanished client simply never reads its answer, the state machine is already consistent, and the client's retry path re-fetches the cached reply"
    )]
    let _ = write_frame(&mut stream, &frame.to_wire_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_smr::{CheckpointBody, Command, KvResponse};

    fn sample_request() -> RequestId {
        RequestId { client: 3, seq: 9 }
    }

    #[test]
    fn frame_round_trips() {
        let frames: Vec<SmrFrame<KvStore>> = vec![
            SmrFrame::Request {
                request: sample_request(),
                kind: OpKind::Write,
                op: Command::Put {
                    key: "k".into(),
                    value: "v".into(),
                },
            },
            SmrFrame::Request {
                request: sample_request(),
                kind: OpKind::Read,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::Reply(SmrReply::Applied {
                request: sample_request(),
                response: KvResponse::Prev(Some("old".into())),
            }),
            SmrFrame::Reply(SmrReply::Redirect {
                request: sample_request(),
                leader: 2,
                addr: "127.0.0.1:4242".parse().unwrap(),
            }),
            SmrFrame::ReadRequest {
                request: sample_request(),
                consistency: Consistency::Local,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::ReadRequest {
                request: sample_request(),
                consistency: Consistency::Leader,
                op: Command::Get { key: "k".into() },
            },
            SmrFrame::ReadReply {
                request: sample_request(),
                response: KvResponse::Value(None),
            },
            {
                let keyring = probft_crypto::keyring::Keyring::generate(4, b"frame-tests");
                SmrFrame::CheckpointVote(CheckpointVote::sign(
                    keyring.signing_key(2).unwrap(),
                    CheckpointBody {
                        from: ReplicaId(2),
                        slot: 64,
                        digest: probft_crypto::sha256::Sha256::digest(b"snapshot"),
                    },
                ))
            },
            SmrFrame::StateRequest {
                from: 3,
                req: StateRequest { min_slot: 64 },
            },
            SmrFrame::StateReply {
                from: 1,
                rep: StateReply {
                    slot: 64,
                    snapshot: vec![1, 2, 3, 4],
                    certificate: {
                        let keyring = probft_crypto::keyring::Keyring::generate(4, b"frame-tests");
                        let digest = probft_crypto::sha256::Sha256::digest(b"snapshot");
                        (0..3)
                            .map(|i| {
                                CheckpointVote::sign(
                                    keyring.signing_key(i).unwrap(),
                                    CheckpointBody {
                                        from: ReplicaId::from(i),
                                        slot: 64,
                                        digest,
                                    },
                                )
                            })
                            .collect()
                    },
                },
            },
        ];
        for frame in frames {
            let bytes = frame.to_wire_bytes();
            assert_eq!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn garbage_frames_rejected() {
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&[]).is_err());
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&[0xFF, 1, 2, 3]).is_err());
        // A peer frame with a truncated slot message.
        let mut bytes = vec![FRAME_PEER];
        put::u32(&mut bytes, 0);
        put::u64(&mut bytes, 7);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A read request with a bad consistency tag.
        let mut bytes = vec![FRAME_READ_REQUEST];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        bytes.push(7); // no such tier
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A redirect whose address bytes are not an address.
        let mut bytes = vec![FRAME_REDIRECT];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        put::u32(&mut bytes, 1);
        put::var_bytes(&mut bytes, b"not-an-addr");
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A checkpoint vote too short to hold a signature.
        let mut bytes = vec![FRAME_CHECKPOINT_VOTE];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A state reply whose snapshot length prefix overruns the frame.
        let mut bytes = vec![FRAME_STATE_REPLY];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        put::u64(&mut bytes, 1_000_000);
        bytes.push(0xAB);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
    }
}
