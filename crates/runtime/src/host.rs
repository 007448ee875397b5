//! The one replica host: everything a [`Process`] needs to run on real
//! sockets and the wall clock, shared by both cluster shapes.
//!
//! A [`Host`] owns a replica's lazily connected peer sockets (and the
//! boot-window/steady-state connect policy), its timer heap, the
//! [`NetPolicy`] consultation with the delayed-frame heap behind it, the
//! per-kind outbound byte counters, and the accept loop whose reader
//! threads turn inbound frames into events. [`Host::drive`] is the single
//! place a process's [`Action`]s are interpreted: build a detached
//! [`Context`], let the caller poke the process, drain, and apply the
//! sends and timers. The only things a cluster shape supplies are its
//! frame codec — `encode` for outbound messages, `decode` for "bytes →
//! event" — and whatever it does with non-protocol events (the SMR shape's
//! client requests). Rejected input is counted in the replica's [`Obs`]
//! (`frames_malformed`, `frames_torn`, `frames_unsendable`) and never
//! panics a thread.

use crate::transport::{read_frame, write_frame, FrameError};
use probft_obs::{Counter, Obs};
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A nemesis rule for one directed replica-to-replica link.
///
/// Rules are *directed*: a rule on `(a, b)` affects only frames a sends
/// toward b, so asymmetric partitions (a cannot reach b, but b still
/// reaches a) are expressed by installing a rule on one direction only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkRule {
    /// Drop every frame on this link (a hard partition of the direction).
    pub drop: bool,
    /// Minimum added delivery latency per frame.
    pub delay_min: Duration,
    /// Maximum added delivery latency per frame. With `delay_max >
    /// delay_min` each frame's extra latency is drawn uniformly from the
    /// range by a deterministic per-frame hash — simnet's `Uniform` delay
    /// model ported to real sockets (jitter reorders frames exactly the
    /// way a real network would).
    pub delay_max: Duration,
}

impl LinkRule {
    /// A rule that drops everything on the link.
    pub fn blackhole() -> Self {
        LinkRule {
            drop: true,
            ..LinkRule::default()
        }
    }

    /// A rule adding `min..=max` of latency to every frame on the link.
    pub fn latency(min: Duration, max: Duration) -> Self {
        LinkRule {
            drop: false,
            delay_min: min,
            delay_max: max.max(min),
        }
    }
}

/// What the [`NetPolicy`] says to do with one outbound peer frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkDecision {
    /// Write the frame now.
    Deliver,
    /// Discard the frame (partitioned link).
    Drop,
    /// Hold the frame and write it after the given delay.
    Delay(Duration),
}

/// Cluster-wide per-link fault rules, shared by every replica's event
/// loop and mutated live by the nemesis harness (via
/// [`LiveSmrCluster::net`](crate::LiveSmrCluster::net)). Only
/// replica-to-replica traffic consults it; client connections are outside
/// its reach, exactly like a real switch fabric sitting between the
/// replicas.
#[derive(Debug, Default)]
pub struct NetPolicy {
    /// Directed link rules, by `(from, to)`.
    rules: Mutex<BTreeMap<(usize, usize), LinkRule>>,
    /// Frames discarded by drop rules.
    dropped: AtomicU64,
    /// Frames held back by latency rules.
    delayed: AtomicU64,
    /// Monotone per-frame counter feeding the deterministic jitter hash.
    frames: AtomicU64,
    /// Seed for the jitter hash (the cluster/nemesis seed).
    seed: AtomicU64,
}

impl NetPolicy {
    /// Installs `rule` on the directed link `from → to`.
    pub fn set_link(&self, from: usize, to: usize, rule: LinkRule) {
        if let Ok(mut rules) = self.rules.lock() {
            rules.insert((from, to), rule);
        }
    }

    /// Removes every rule — the fully healed network.
    pub fn heal(&self) {
        if let Ok(mut rules) = self.rules.lock() {
            rules.clear();
        }
    }

    /// Frames discarded by drop rules so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Frames held back by latency rules so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::SeqCst)
    }

    /// Seeds the deterministic per-frame jitter hash.
    pub fn reseed(&self, seed: u64) {
        self.seed.store(seed, Ordering::SeqCst);
    }

    /// What to do with one frame on `from → to`, per the installed rules.
    /// Latency is sampled by hashing `(seed, from, to, frame counter)` —
    /// no shared RNG, so two runs with the same seed and the same send
    /// interleaving delay identically.
    pub fn decide(&self, from: usize, to: usize) -> LinkDecision {
        let rule = match self.rules.lock() {
            Ok(rules) => match rules.get(&(from, to)) {
                Some(rule) => *rule,
                None => return LinkDecision::Deliver,
            },
            Err(_) => return LinkDecision::Deliver,
        };
        if rule.drop {
            self.dropped.fetch_add(1, Ordering::SeqCst);
            return LinkDecision::Drop;
        }
        if rule.delay_max.is_zero() {
            return LinkDecision::Deliver;
        }
        let n = self.frames.fetch_add(1, Ordering::SeqCst);
        let seed = self.seed.load(Ordering::SeqCst);
        let span = micros(rule.delay_max.saturating_sub(rule.delay_min)).max(1);
        let jitter = Duration::from_micros(
            splitmix64(seed ^ (from as u64) << 40 ^ (to as u64) << 20 ^ n) % span,
        );
        self.delayed.fetch_add(1, Ordering::SeqCst);
        LinkDecision::Delay(rule.delay_min + jitter)
    }
}

/// SplitMix64 — the standard small deterministic mixer, here turning
/// (seed, link, frame index) into per-frame jitter without any shared RNG
/// state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whole microseconds in `d` — one simulator tick each — saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A replica index as the `u32` sender id frames carry. Saturating: an
/// index that does not fit is beyond every receiver's cluster size and is
/// rejected there, where a wrapped one would name another replica.
pub(crate) fn wire_id(id: usize) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// The fixed port of replica `i` in the range starting at `base`.
fn replica_port(base: u16, i: usize) -> std::io::Result<u16> {
    u16::try_from(i)
        .ok()
        .and_then(|i| base.checked_add(i))
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "base_port + replica id overflows u16",
            )
        })
}

/// Binds one loopback listener per replica — OS-assigned ports by default,
/// `base_port + i` when a fixed range was requested — and returns the
/// listeners with their actual addresses.
pub(crate) fn bind_listeners(
    n: usize,
    base_port: Option<u16>,
) -> std::io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let port = match base_port {
            Some(base) => replica_port(base, i)?,
            None => 0,
        };
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    Ok((listeners, addrs))
}

/// Connect attempts while a cluster boots (peers come up concurrently;
/// retry for up to ~500 ms).
const BOOT_CONNECT_ATTEMPTS: u32 = 50;

/// Connect attempts once the boot window has passed: one quick try, so a
/// dead replica costs the sender an immediate refusal instead of a 500 ms
/// stall inside its event loop on every send.
const STEADY_CONNECT_ATTEMPTS: u32 = 1;

/// How long after start a host still retries refused connects.
const BOOT_WINDOW: Duration = Duration::from_secs(5);

/// Bound on how long a blocking socket write may stall the caller. A peer
/// (or client) that stops reading fills its kernel buffer; without this a
/// single such connection wedges the sender's whole event loop.
const WRITE_STALL_LIMIT: Duration = Duration::from_secs(1);

/// Longest an idle event loop sleeps before re-checking the shutdown flag.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// The write half of an inbound connection. The frame decoder receives it
/// so a client request can carry its reply path into the event loop, the
/// replica's one thread and so the socket's only writer.
pub(crate) type ReplyHandle = Arc<TcpStream>;

/// Which `frame_bytes_out{kind=…}` counter an outbound frame is charged to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FrameKind {
    /// Per-slot consensus traffic.
    Peer,
    /// Checkpoint attestations.
    Checkpoint,
    /// State-transfer requests and snapshots.
    State,
}

/// One held-back frame: delivery instant, insertion sequence (FIFO tie
/// break), destination replica index, encoded frame bytes.
type HeldFrame = (Instant, u64, usize, Vec<u8>);

/// One replica's sockets, timers and action loop. `M` is the hosted
/// process's message type, `E` the event type its frame decoder produces.
pub(crate) struct Host<M, E> {
    id: usize,
    addrs: Arc<Vec<SocketAddr>>,
    shutdown: Arc<AtomicBool>,
    net: Arc<NetPolicy>,
    obs: Arc<Obs>,
    /// Sender id + message → charged counter and frame payload.
    encode: fn(usize, M) -> (FrameKind, Vec<u8>),
    out_peer: Counter,
    out_checkpoint: Counter,
    out_state: Counter,
    peers: Vec<Option<TcpStream>>,
    timers: BinaryHeap<Reverse<(Instant, TimerToken)>>,
    /// Outbound frames held back by a [`LinkRule`]'s latency model,
    /// ordered by delivery instant.
    delayed: BinaryHeap<Reverse<HeldFrame>>,
    delayed_seq: u64,
    rng: StdRng,
    started: Instant,
    /// Kept (not just cloned into the accept loop) so the channel outlives
    /// a listener that failed: the event loop then still sleeps in
    /// `recv_timeout` and runs on timers alone, instead of spinning on a
    /// disconnected channel.
    event_tx: mpsc::Sender<E>,
    events: mpsc::Receiver<E>,
    /// The accept loop, which owns the reader threads it spawned and hands
    /// the ones still running back when it exits.
    accept: Option<thread::JoinHandle<Vec<thread::JoinHandle<()>>>>,
}

impl<M, E: Send + 'static> Host<M, E> {
    /// A host for replica `id` of the cluster listening on `addrs`. Peer
    /// connections are opened on first send; nothing is accepted until
    /// [`listen`](Self::listen).
    pub(crate) fn new(
        id: usize,
        addrs: Arc<Vec<SocketAddr>>,
        shutdown: Arc<AtomicBool>,
        net: Arc<NetPolicy>,
        obs: Arc<Obs>,
        encode: fn(usize, M) -> (FrameKind, Vec<u8>),
    ) -> Self {
        let (event_tx, events) = mpsc::channel();
        Host {
            id,
            peers: addrs.iter().map(|_| None).collect(),
            addrs,
            shutdown,
            net,
            // One registry lookup per kind here instead of one per frame.
            out_peer: obs.frame_bytes_out("peer"),
            out_checkpoint: obs.frame_bytes_out("checkpoint"),
            out_state: obs.frame_bytes_out("state"),
            obs,
            encode,
            timers: BinaryHeap::new(),
            delayed: BinaryHeap::new(),
            delayed_seq: 0,
            rng: StdRng::seed_from_u64(0x11FE ^ id as u64),
            started: Instant::now(),
            event_tx,
            events,
            accept: None,
        }
    }

    /// Starts the accept loop: one tracked reader thread per inbound
    /// connection (peer or client), each feeding `decode`'s events into
    /// this host's queue.
    pub(crate) fn listen<D>(&mut self, listener: TcpListener, decode: D)
    where
        D: Fn(&[u8], &ReplyHandle) -> Option<E> + Clone + Send + 'static,
    {
        let event_tx = self.event_tx.clone();
        let shutdown = self.shutdown.clone();
        let obs = self.obs.clone();
        let can_accept = listener.set_nonblocking(true).is_ok();
        self.accept = Some(thread::spawn(move || {
            let mut readers = Vec::new();
            while can_accept && !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let decode = decode.clone();
                        let event_tx = event_tx.clone();
                        let shutdown = shutdown.clone();
                        let obs = obs.clone();
                        let handle = thread::spawn(move || {
                            reader_loop(stream, decode, event_tx, shutdown, obs)
                        });
                        reap_finished(&mut readers);
                        readers.push(handle);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        crate::pacing::pause(crate::pacing::ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            readers
        }));
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }

    pub(crate) fn addrs(&self) -> &Arc<Vec<SocketAddr>> {
        &self.addrs
    }

    pub(crate) fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// False once the cluster's shutdown flag is raised.
    pub(crate) fn running(&self) -> bool {
        !self.shutdown.load(Ordering::SeqCst)
    }

    /// One step of the hosted process: `step` pokes it through a detached
    /// context, and the actions it emitted are applied to the sockets and
    /// the timer heap.
    pub(crate) fn drive(&mut self, step: impl FnOnce(&mut Context<'_, M>)) {
        // One simulator tick = one microsecond of wall time.
        let now = SimTime::from_ticks(micros(self.started.elapsed()));
        let actions = {
            let mut ctx = Context::detached(ProcessId(self.id), now, &mut self.rng);
            step(&mut ctx);
            ctx.drain_actions()
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send(to.index(), msg),
                Action::SetTimer { delay, token } => {
                    let deadline = Instant::now() + Duration::from_micros(delay.ticks());
                    self.timers.push(Reverse((deadline, token)));
                }
                Action::Halt => {}
            }
        }
    }

    /// Fires `process`'s due timers, releases latency-held frames that
    /// came due, then waits for the next inbound event — at most until the
    /// next timer deadline or held-frame release, and never longer than
    /// [`IDLE_WAIT`]. `None` means the wait ended without an event.
    pub(crate) fn next_event<P: Process<Message = M>>(&mut self, process: &mut P) -> Option<E> {
        while let Some(Reverse((deadline, token))) = self.timers.peek().copied() {
            if deadline > Instant::now() {
                break;
            }
            self.timers.pop();
            self.drive(|ctx| process.on_timer(token, ctx));
        }
        while let Some(Reverse((at, ..))) = self.delayed.peek() {
            if *at > Instant::now() {
                break;
            }
            let Some(Reverse((_, _, to, frame))) = self.delayed.pop() else {
                break;
            };
            self.write_peer(to, &frame);
        }
        let until = |at: Instant| at.saturating_duration_since(Instant::now());
        let timer = self.timers.peek().map(|Reverse((at, _))| until(*at));
        let held = self.delayed.peek().map(|Reverse((at, ..))| until(*at));
        let wait = [timer, held]
            .into_iter()
            .flatten()
            .fold(IDLE_WAIT, Duration::min);
        self.events.recv_timeout(wait).ok()
    }

    /// Discards everything queued (a paused replica hears nothing).
    pub(crate) fn discard_events(&mut self) {
        while self.events.try_recv().is_ok() {}
    }

    /// Joins the accept loop and every reader it spawned, so a finished
    /// (or timed-out) run leaves no threads behind. Call once the shutdown
    /// flag is up.
    pub(crate) fn join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        // (An accept loop that panicked takes its reader handles with it.)
        for reader in accept.join().unwrap_or_default() {
            join_reader(reader);
        }
    }

    /// Encodes `msg` and sends it toward replica `to` as the [`NetPolicy`]
    /// directs: now, never, or from the delayed-frame heap later.
    fn send(&mut self, to: usize, msg: M) {
        if to >= self.addrs.len() {
            return;
        }
        let (kind, frame) = (self.encode)(self.id, msg);
        let decision = self.net.decide(self.id, to);
        if decision != LinkDecision::Drop {
            match kind {
                FrameKind::Peer => &self.out_peer,
                FrameKind::Checkpoint => &self.out_checkpoint,
                FrameKind::State => &self.out_state,
            }
            .add(frame.len() as u64);
        }
        match decision {
            LinkDecision::Drop => {}
            LinkDecision::Deliver => self.write_peer(to, &frame),
            LinkDecision::Delay(by) => {
                // Per-link FIFO order is preserved: a later frame on the
                // same link never gets a deadline that sorts before an
                // earlier one already enqueued.
                let due = Instant::now() + by;
                let at = self
                    .delayed
                    .iter()
                    .filter(|Reverse((_, _, dest, _))| *dest == to)
                    .map(|Reverse((at, ..))| *at)
                    .max()
                    .map_or(due, |tail| tail.max(due));
                self.delayed_seq = self.delayed_seq.saturating_add(1);
                self.delayed
                    .push(Reverse((at, self.delayed_seq, to, frame)));
            }
        }
    }

    /// Writes one already-encoded frame to peer `to`, (re)connecting as
    /// needed.
    fn write_peer(&mut self, to: usize, frame: &[u8]) {
        let Some(stream) = self.connect_peer(to) else {
            return;
        };
        match write_frame(stream, frame) {
            Ok(()) => {}
            // An unsendable frame (e.g. a snapshot beyond the transport's
            // MAX_FRAME cap) wrote nothing: the link is healthy and also
            // carries consensus traffic, so keep it — but count the loss,
            // or a too-big-to-transfer snapshot would strand its laggard
            // with no observable signal.
            Err(FrameError::Oversized(_)) => self.obs.frames_unsendable.inc(),
            Err(_) => {
                // Broken link; a later send reconnects.
                if let Some(slot) = self.peers.get_mut(to) {
                    *slot = None;
                }
            }
        }
    }

    /// The connection to peer `to`, opened if there is none: retrying
    /// while the cluster boots (peers come up concurrently), failing fast
    /// afterwards so a dead peer costs a refusal, not a stall, per send.
    fn connect_peer(&mut self, to: usize) -> Option<&mut TcpStream> {
        let addr = *self.addrs.get(to)?;
        let attempts = if self.started.elapsed() < BOOT_WINDOW {
            BOOT_CONNECT_ATTEMPTS
        } else {
            STEADY_CONNECT_ATTEMPTS
        };
        let slot = self.peers.get_mut(to)?;
        if slot.is_none() {
            for attempt in 0..attempts {
                if attempt > 0 {
                    crate::pacing::pause(crate::pacing::CONNECT_RETRY);
                }
                if let Ok(s) = TcpStream::connect(addr) {
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "peer-connect socket tuning (nodelay, write timeout): best-effort; a peer write that stalls past WRITE_STALL_LIMIT is already handled by the counted write-error path"
                    )]
                    {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_write_timeout(Some(WRITE_STALL_LIMIT));
                    }
                    *slot = Some(s);
                    break;
                }
            }
        }
        slot.as_mut()
    }
}

/// Reads frames off one inbound connection and forwards what `decode`
/// makes of them. A frame `decode` rejects is counted and the connection
/// kept — a malformed peer must not silence a link; torn and oversized
/// input is counted and ends the connection. Nothing here panics.
fn reader_loop<E, D>(
    stream: TcpStream,
    decode: D,
    event_tx: mpsc::Sender<E>,
    shutdown: Arc<AtomicBool>,
    obs: Arc<Obs>,
) where
    D: Fn(&[u8], &ReplyHandle) -> Option<E>,
{
    // The read timeout lets the loop poll the shutdown flag; the write
    // timeout bounds reply writes, so a client that stops reading costs
    // the replica a failed write, not a wedged event loop.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "reader-loop socket tuning (read timeout, nodelay, write timeout): best-effort latency/liveness knobs — the read timeout lets the loop poll the shutdown flag, and if it fails the loop still terminates when the peer closes; failure leaves a slower but correct connection"
    )]
    {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(WRITE_STALL_LIMIT));
    }
    let reply: ReplyHandle = match stream.try_clone() {
        Ok(clone) => Arc::new(clone),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while !shutdown.load(Ordering::SeqCst) {
        match read_frame(&mut reader) {
            Ok(Some(frame)) => match decode(&frame, &reply) {
                Some(event) => {
                    if event_tx.send(event).is_err() {
                        return;
                    }
                }
                None => obs.frames_malformed.inc(),
            },
            Ok(None) => return, // peer closed at a frame boundary
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            // A peer-announced length beyond the cap is malformed input,
            // not a connection fault.
            Err(FrameError::Oversized(_)) => {
                obs.frames_malformed.inc();
                return;
            }
            // Everything else ended the connection mid-stream: EOF inside
            // a frame, a mid-frame stall, or a socket error (reset etc.).
            Err(FrameError::Io(_) | FrameError::Stalled { .. }) => {
                obs.frames_torn.inc();
                return;
            }
        }
    }
}

/// Joins and removes reader threads that already exited (disconnected
/// peers/clients), so a long-lived accept loop does not accumulate dead
/// handles without bound.
fn reap_finished(handles: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles.get(i).is_some_and(|h| h.is_finished()) {
            join_reader(handles.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

/// Waits for one reader thread to exit.
fn join_reader(reader: thread::JoinHandle<()>) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "teardown joins (Host::join, reap_finished): the Err payload is a thread panic, and reader threads are panic-free by the crate's deny list (they degrade to counted errors instead of panicking); the join exists to bound thread lifetime, not to collect a result"
    )]
    let _ = reader.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Runs the shared reader loop over one connection, once per frame
    /// decoder (the single-shot `u32 sender ‖ Message` codec and the SMR
    /// frame codec), lets `rogue` write to it, and returns each run's
    /// `(frames_malformed, frames_torn, events forwarded)`.
    fn feed(rogue: impl Fn(&mut TcpStream)) -> [(u64, u64, usize); 2] {
        fn run<E: Send + 'static>(
            decode: impl Fn(&[u8], &ReplyHandle) -> Option<E> + Send + 'static,
            rogue: &dyn Fn(&mut TcpStream),
        ) -> (u64, u64, usize) {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let (event_tx, event_rx) = mpsc::channel();
            let obs = Arc::new(Obs::new("reader"));
            let reader = {
                let obs = obs.clone();
                thread::spawn(move || {
                    let (stream, _) = listener.accept().expect("accept");
                    reader_loop(stream, decode, event_tx, Arc::default(), obs);
                })
            };
            let mut peer = TcpStream::connect(addr).expect("connect");
            rogue(&mut peer);
            drop(peer);
            reader.join().expect("reader thread exits cleanly");
            (
                obs.frames_malformed.get(),
                obs.frames_torn.get(),
                event_rx.try_iter().count(),
            )
        }
        let obs = Obs::new("decoder");
        [
            run(
                |frame, _| crate::cluster::parse_peer_frame(frame, 4),
                &rogue,
            ),
            run(
                crate::live::smr_decoder::<probft_smr::KvStore>(4, &obs),
                &rogue,
            ),
        ]
    }

    /// Regression: short (< 4 byte) and undecodable frames from a rogue
    /// peer used to reach a panicking `expect` path; they must be counted
    /// and dropped while the reader thread keeps serving the connection,
    /// and the clean EOF that follows is not a torn frame.
    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let counts = feed(|peer| {
            // Shorter than the single-shot codec's sender prefix.
            write_frame(peer, &[0xAB, 0xCD]).expect("short frame");
            // Valid sender id (0 < 4) but garbage message bytes.
            write_frame(peer, &[0, 0, 0, 0, 0xFF, 0xFF, 0xFF]).expect("garbage frame");
            // Out-of-range sender id with a plausible length.
            write_frame(peer, &[0xFF, 0xFF, 0xFF, 0xFF, 1]).expect("bogus sender");
        });
        for (malformed, torn, events) in counts {
            assert_eq!(malformed, 3);
            assert_eq!(torn, 0);
            assert_eq!(events, 0, "no rejected frame may reach the replica");
        }
    }

    /// Regression: the replica index was narrowed to `u16` before the
    /// checked add, so index 65 536 wrapped to 0 and landed on `base`.
    #[test]
    fn fixed_ports_that_do_not_fit_are_an_error_not_a_wrap() {
        assert_eq!(replica_port(46_000, 3).expect("in range"), 46_003);
        for (base, i) in [(1, 65_536), (65_535, 1), (0, usize::MAX)] {
            let err = replica_port(base, i).expect_err("beyond u16");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
    }

    /// A peer dying mid-frame (torn length prefix) is recorded as a torn
    /// connection, not mistaken for a clean close.
    #[test]
    fn torn_connection_is_counted() {
        let counts = feed(|peer| peer.write_all(&[0, 0]).expect("half a length prefix"));
        assert_eq!(counts, [(0, 1, 0); 2]);
    }

    /// A peer announcing a frame beyond the size cap is counted as
    /// malformed and disconnected — not silently dropped, not trusted
    /// with the allocation.
    #[test]
    fn oversized_frame_is_counted() {
        let counts = feed(|peer| {
            peer.write_all(&u32::MAX.to_be_bytes())
                .expect("absurd length prefix")
        });
        assert_eq!(counts, [(1, 0, 0); 2]);
    }
}
