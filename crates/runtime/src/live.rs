//! Live TCP state-machine replication: [`SmrNode`] driven by real sockets.
//!
//! Each replica thread hosts the same pipelined, batched [`SmrNode`] that
//! runs in the simulator — generic over the replicated [`StateMachine`] —
//! but its slot-tagged consensus traffic travels as [`SmrFrame::Peer`]
//! frames over loopback TCP and its operations come from real clients
//! instead of a prebuilt workload. What becomes of a client's
//! [`SmrFrame::Request`] or [`SmrFrame::ReadRequest`] — redirect to the
//! leader, reply-cache answer, shed, or accept and answer once applied —
//! is decided by the sans-I/O [`Frontend`] (`probft_smr::frontend`), the
//! one the virtual-time executor (`probft_smr::sim`) runs too; this module only decodes the
//! frame, calls it, and writes the [`SmrReply`] it returns, adding the
//! leader's address to a redirect.
//!
//! With a [`checkpoint_interval`](LiveSmrBuilder::checkpoint_interval)
//! set, the checkpoint subsystem rides three more frames: signed
//! [`SmrFrame::CheckpointVote`] attestations make checkpoints stable (and
//! the resident log bounded), and a replica that finds itself behind the
//! cluster's stable checkpoint — a restarted or partitioned laggard —
//! fetches the snapshot over TCP with [`SmrFrame::StateRequest`] /
//! [`SmrFrame::StateReply`] and resumes consensus from the checkpoint
//! slot instead of replaying (or waiting forever for) the truncated log.

use crate::host::{bind_listeners, wire_id, ConnId, FrameKind, Host, Shared};
use probft_core::config::{ProbftConfig, SharedConfig, View};
use probft_core::wire::Wire;
use probft_core::wire_fields;
use probft_crypto::keyring::Keyring;
use probft_obs::Obs;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Process, ProcessId};
use probft_simnet::time::SimDuration;
use probft_smr::frontend::{Frontend, Reply};
use probft_smr::nemesis::{plurality_view, ReplicaReport};
use probft_smr::node::SmrNode;
use probft_smr::{
    CheckpointVote, Consistency, KvStore, OpKind, RequestId, SlotMessage, SmrMessage, SmrSettings,
    StateMachine, StateReply, StateRequest,
};
use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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
    /// Replica-to-client outcome of a [`Request`](Self::Request) or a
    /// [`ReadRequest`](Self::ReadRequest).
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

/// A replica's answer to a client, as the wire carries it: the
/// [`Frontend`]'s [`Reply`], a redirect's leader named by its listening
/// address too.
pub type SmrReply<R> = Reply<R, SocketAddr>;

// The tags a reply takes (3, 4, 6 and 10) are `Reply`'s own.
wire_fields! {
    impl<S: StateMachine> Wire for SmrFrame<S> {
        1 => Peer { from, msg },
        2 => Request { request, kind, op },
        5 => ReadRequest { request, consistency, op },
        7 => CheckpointVote(vote),
        8 => StateRequest { from, req },
        9 => StateReply { from, rep },
        _ => Reply,
    }
}

/// Why [`LiveSmrBuilder::start`] could not boot a cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A listener could not bind (port in use?) or be set up for
    /// non-blocking service.
    Bind(std::io::Error),
    /// The cluster was misconfigured (e.g. a keyring shorter than `n`).
    /// Surfaced as a typed error so setup bugs fail the run, not the
    /// process.
    Config(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Bind(e) => write!(f, "failed to bind listener: {e}"),
            ClusterError::Config(what) => write!(f, "cluster misconfigured: {what}"),
        }
    }
}

impl Error for ClusterError {}

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
    checkpoint_interval: usize,
    max_pending: usize,
    _machine: std::marker::PhantomData<S>,
}

impl LiveSmrBuilder<KvStore> {
    /// Starts building an `n`-replica live KV cluster on OS-assigned
    /// loopback ports, pipeline depth 4.
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
    /// that rule has no static cap to set. The setter is kept, and the
    /// value dropped, because the frozen benchmark calls it.
    pub fn batch_size(self, _batch: usize) -> Self {
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
        let mut settings = SmrSettings::live(self.pipeline_depth);
        settings.checkpoint_interval = self.checkpoint_interval;
        settings.max_pending = self.max_pending;

        let (listeners, addrs) =
            bind_listeners(self.n, self.base_port).map_err(ClusterError::Bind)?;
        let shared = Arc::new(Shared {
            addrs,
            shutdown: AtomicBool::new(false),
            boot: Instant::now(),
        });
        let n = self.n;

        let paused: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::default()).collect();
        // One telemetry bundle per replica, created up front so the
        // cluster handle (and through it the nemesis) shares the exact
        // registry and journal the replica thread records into.
        let obs_handles: Vec<Arc<Obs>> = (0..n)
            .map(|i| Arc::new(Obs::new(format!("replica-{i}"))))
            .collect();

        // Every host is built before any replica runs, so a socket that
        // cannot be set up fails the boot instead of a replica thread.
        let mut hosts = Vec::new();
        for (i, (listener, obs)) in listeners.into_iter().zip(&obs_handles).enumerate() {
            let host = Host::new(
                i,
                listener,
                shared.clone(),
                obs.clone(),
                encode_smr_message::<S>,
                smr_decoder::<S>(n, obs),
                smr_delivery::<S>,
            );
            hosts.push(host.map_err(ClusterError::Bind)?);
        }

        let mut handles = Vec::new();
        let per_replica = hosts.into_iter().zip(&paused).zip(&obs_handles);
        for (i, ((host, paused), obs)) in per_replica.enumerate() {
            let cfg = cfg.clone();
            let sk = keyring
                .signing_key(i)
                .map_err(|_| ClusterError::Config("keyring shorter than cluster size"))?
                .clone();
            let public = public.clone();
            let (paused, obs) = (paused.clone(), obs.clone());
            handles.push(thread::spawn(move || {
                let mut node: SmrNode<S> = SmrNode::new(
                    cfg,
                    ReplicaId::from(i),
                    sk,
                    public,
                    Vec::new(), // no prebuilt workload: operations arrive from clients
                    settings,
                );
                node.set_obs(obs);
                smr_replica_main(node, host, &paused)
            }));
        }

        Ok(LiveSmrCluster {
            cfg,
            shared,
            handles,
            paused,
            keyring,
            obs: obs_handles,
        })
    }
}

/// A running live SMR cluster. Dropping without calling
/// [`shutdown`](Self::shutdown) detaches the replica threads; call
/// `shutdown` to stop them and collect their final logs and states.
#[derive(Debug)]
pub struct LiveSmrCluster<S: StateMachine = KvStore> {
    pub(crate) shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<ReplicaReport<S>>>,
    /// The configuration every replica runs under.
    cfg: SharedConfig,
    /// Per-replica pause flag (fault injection: a paused replica drops
    /// everything it receives and sends nothing, like a stalled process).
    paused: Vec<Arc<AtomicBool>>,
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
        &self.shared.addrs
    }

    /// Creates a client for this cluster. `client_id` must be unique among
    /// concurrently submitting clients — it namespaces request ids.
    pub fn client(&self, client_id: u64) -> crate::client::SmrClient<S> {
        crate::client::SmrClient::new(self.addrs().to_vec(), client_id)
    }

    /// Per-replica applied-log lengths right now (indexed by replica id):
    /// each replica's `log_len` gauge.
    pub fn applied_lens(&self) -> Vec<u64> {
        self.obs.iter().map(|o| o.log_len.get()).collect()
    }

    /// Stalls replica `i`: it stops firing timers, sends nothing, and
    /// discards everything it receives — indistinguishable from a crash
    /// or partition to the rest of the cluster. Fault injection for
    /// tests and experiments; a no-op for out-of-range ids.
    pub fn pause(&self, i: usize) {
        if let Some(paused) = self.paused.get(i) {
            paused.store(true, Ordering::SeqCst);
        }
    }

    /// Un-stalls replica `i`. The replica resumes with whatever state it
    /// had when paused; if the cluster moved past a stable checkpoint in
    /// the meantime, it catches up by snapshot state transfer.
    pub fn resume(&self, i: usize) {
        if let Some(paused) = self.paused.get(i) {
            paused.store(false, Ordering::SeqCst);
        }
    }

    /// Whether replica `i` is currently [`pause`](Self::pause)d (false
    /// for out-of-range ids).
    pub fn is_paused(&self, i: usize) -> bool {
        self.paused
            .get(i)
            .is_some_and(|paused| paused.load(Ordering::SeqCst))
    }

    /// The id the (unpaused) cluster currently believes leads: the leader
    /// of [`current_view`](Self::current_view). Transiently stale
    /// mid-view-change — callers targeting "the leader" get whoever most
    /// of the cluster would redirect a client to.
    pub fn current_leader(&self) -> usize {
        self.cfg.leader_of(self.current_view()).index()
    }

    /// The view the (unpaused) cluster currently holds the log in: the
    /// [`plurality_view`] of the replicas' `view` gauges (lets a nemesis
    /// target "the leader", and forge in the view slots run in).
    pub fn current_view(&self) -> View {
        let unpaused = self.paused.iter().zip(&self.obs);
        let views = unpaused.filter(|(paused, _)| !paused.load(Ordering::SeqCst));
        plurality_view(views.map(|(_, obs)| View(obs.view.get())))
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
        let started = Instant::now();
        let mut stable: Option<(Vec<u64>, Instant)> = None;
        while started.elapsed() < Duration::from_secs(10) {
            let lens: Vec<u64> = self
                .paused
                .iter()
                .zip(&self.obs)
                .filter(|(paused, _)| !paused.load(Ordering::SeqCst))
                .map(|(_, obs)| obs.log_len.get())
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
        self.shared.shutdown.store(true, Ordering::SeqCst);
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
    /// A client's `Request` or `ReadRequest`, with the connection its
    /// reply goes out on.
    Client(ConnId, SmrFrame<S>),
}

/// The SMR shape's outbound codec: each [`SmrMessage`] variant onto its
/// wire frame, charged to its byte counter.
pub(crate) fn encode_smr_message<S: StateMachine>(
    id: usize,
    msg: SmrMessage,
) -> (FrameKind, Vec<u8>) {
    let from = wire_id(id);
    let (kind, frame) = match msg {
        SmrMessage::Slot(msg) => (FrameKind::Peer, SmrFrame::<S>::Peer { from, msg }),
        SmrMessage::CheckpointVote(vote) => (FrameKind::Checkpoint, SmrFrame::CheckpointVote(vote)),
        SmrMessage::StateRequest(req) => (FrameKind::State, SmrFrame::StateRequest { from, req }),
        SmrMessage::StateReply(rep) => (FrameKind::State, SmrFrame::StateReply { from, rep }),
    };
    (kind, frame.to_wire_bytes())
}

/// A replica's message to itself as the event [`smr_decoder`] makes of the
/// frame it would have sent: a peer event from its own id.
pub(crate) fn smr_delivery<S: StateMachine>(id: usize, msg: SmrMessage) -> SmrEvent<S> {
    SmrEvent::Peer(ProcessId(id), msg)
}

/// The SMR shape's inbound codec for an `n`-replica cluster: one frame to
/// one event, charging accepted frames to `obs`'s per-kind
/// `frame_bytes_in` counters (fetched once here, not per frame). `None` —
/// counted malformed by the host, connection kept — for undecodable
/// bytes, out-of-range sender ids, and replies sent *to* a replica.
pub(crate) fn smr_decoder<S: StateMachine>(
    n: usize,
    obs: &Obs,
) -> impl Fn(&[u8], ConnId) -> Option<SmrEvent<S>> + Send + 'static {
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
            frame @ SmrFrame::Request { .. } => (&in_request, SmrEvent::Client(reply, frame)),
            frame @ SmrFrame::ReadRequest { .. } => (&in_read, SmrEvent::Client(reply, frame)),
            SmrFrame::Reply(_) => return None,
        };
        bytes_in.add(frame.len() as u64);
        Some(event)
    }
}

/// One live SMR replica: `node` on `host`, its client requests decided by
/// a [`Frontend`] between protocol steps, until shutdown.
fn smr_replica_main<S: StateMachine>(
    mut node: SmrNode<S>,
    mut host: Host<SmrMessage, SmrEvent<S>>,
    paused: &AtomicBool,
) -> ReplicaReport<S> {
    let mut frontend = Frontend::default();
    // Start the node (in live mode this opens no slots until traffic
    // arrives).
    host.drive(|ctx| node.on_start(ctx));

    while host.running() {
        if paused.load(Ordering::SeqCst) {
            // Fault injection: a paused replica is a partitioned process.
            // Discard whatever arrives, fire nothing, send nothing.
            host.discard_events(crate::pacing::PAUSED_POLL);
            continue;
        }
        match host.next_event(&mut node) {
            Some(SmrEvent::Peer(from, msg)) => host.drive(|ctx| node.on_message(from, msg, ctx)),
            Some(SmrEvent::Client(conn, frame)) => {
                let reply = host.drive(|ctx| match frame {
                    SmrFrame::Request { request, kind, op } => {
                        frontend.on_request(&mut node, request, kind, op, conn, ctx)
                    }
                    SmrFrame::ReadRequest {
                        request,
                        consistency,
                        op,
                    } => frontend.on_read(&mut node, request, consistency, op, conn, ctx),
                    _ => None, // the decoder hands on client frames only
                });
                if let Some(reply) = reply {
                    write_reply(&mut host, conn, reply);
                }
            }
            None => {}
        }
        for (conn, reply) in host.drive(|ctx| frontend.on_applied(&mut node, ctx)) {
            write_reply(&mut host, conn, reply);
        }
    }

    node.report()
}

/// Queues `reply` to a client as its frame, a redirect naming the
/// leader's address too. Best-effort: a client that has gone never reads
/// its answer, and a retry is answered from the reply cache.
fn write_reply<S: StateMachine>(
    host: &mut Host<SmrMessage, SmrEvent<S>>,
    conn: ConnId,
    reply: Reply<S::Response>,
) {
    // `% n` keeps the index in range for any sane `addrs`; `.get`
    // degrades an impossible empty list to a redirect the client treats
    // as unreachable, instead of panicking the replica.
    let addrs = host.addrs();
    let addr = |leader: ReplicaId| {
        let i = leader.index().checked_rem(addrs.len()).unwrap_or(0);
        addrs
            .get(i)
            .copied()
            .unwrap_or_else(crate::client::unusable_addr)
    };
    let frame = SmrFrame::<S>::Reply(reply.addressed(addr));
    host.write(conn, &frame.to_wire_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_core::wire::put;
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
                leader: ReplicaId(2),
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
            SmrFrame::Reply(SmrReply::Read {
                request: sample_request(),
                response: KvResponse::Value(None),
            }),
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
        let mut bytes = vec![1u8];
        put::u32(&mut bytes, 0);
        put::u64(&mut bytes, 7);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A read request with a bad consistency tag.
        let mut bytes = vec![5u8];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        bytes.push(7); // no such tier
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A redirect whose address bytes are not an address.
        let mut bytes = vec![4u8];
        put::u64(&mut bytes, 3);
        put::u64(&mut bytes, 9);
        put::u32(&mut bytes, 1);
        put::var_bytes(&mut bytes, b"not-an-addr");
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A checkpoint vote too short to hold a signature.
        let mut bytes = vec![7u8];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
        // A state reply whose snapshot length prefix overruns the frame.
        let mut bytes = vec![9u8];
        put::u32(&mut bytes, 1);
        put::u64(&mut bytes, 64);
        put::u64(&mut bytes, 1_000_000);
        bytes.push(0xAB);
        assert!(SmrFrame::<KvStore>::from_wire_bytes(&bytes).is_err());
    }
}
