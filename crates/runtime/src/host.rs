//! The one replica host: everything a [`Process`] needs to run on real
//! sockets and the wall clock.
//!
//! A [`Host`] owns a replica's lazily connected peer sockets (and the
//! boot-window/steady-state connect policy), its timer heap, the per-kind
//! outbound byte counters, and the accept loop whose reader threads turn
//! inbound frames into events. It models no network of its own: a frame
//! is encoded, counted and written, and link faults (drops, partitions,
//! jitter) are the simulator's `DelayModel`s. [`Host::drive`] is the single
//! place a process's [`Action`]s are interpreted: build a detached
//! [`Context`], let the caller poke the process, drain, and apply the
//! sends and timers. The frame codec is not the host's: the caller
//! supplies `encode` for outbound messages and `decode` for "bytes →
//! event", and handles the non-protocol events (client requests) itself,
//! which keeps the SMR frame types in `live`. Rejected input is counted
//! in the replica's [`Obs`] (`frames_malformed`, `frames_torn`,
//! `frames_unsendable`) and never panics a thread.

use crate::transport::{read_frame, write_frame, FrameError};
use probft_obs::{Counter, Obs};
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

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

/// One replica's sockets, timers and action loop. `M` is the hosted
/// process's message type, `E` the event type its frame decoder produces.
pub(crate) struct Host<M, E> {
    id: usize,
    addrs: Arc<Vec<SocketAddr>>,
    shutdown: Arc<AtomicBool>,
    obs: Arc<Obs>,
    /// Sender id + message → charged counter and frame payload.
    encode: fn(usize, M) -> (FrameKind, Vec<u8>),
    out_peer: Counter,
    out_checkpoint: Counter,
    out_state: Counter,
    peers: Vec<Option<TcpStream>>,
    timers: BinaryHeap<Reverse<(Instant, TimerToken)>>,
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
        obs: Arc<Obs>,
        encode: fn(usize, M) -> (FrameKind, Vec<u8>),
    ) -> Self {
        let (event_tx, events) = mpsc::channel();
        Host {
            id,
            peers: addrs.iter().map(|_| None).collect(),
            addrs,
            shutdown,
            // One registry lookup per kind here instead of one per frame.
            out_peer: obs.frame_bytes_out("peer"),
            out_checkpoint: obs.frame_bytes_out("checkpoint"),
            out_state: obs.frame_bytes_out("state"),
            obs,
            encode,
            timers: BinaryHeap::new(),
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

    /// Fires `process`'s due timers, then waits for the next inbound event
    /// — at most until the next timer deadline, and never longer than
    /// [`IDLE_WAIT`]. `None` means the wait ended without an event.
    pub(crate) fn next_event<P: Process<Message = M>>(&mut self, process: &mut P) -> Option<E> {
        while let Some(Reverse((deadline, token))) = self.timers.peek().copied() {
            if deadline > Instant::now() {
                break;
            }
            self.timers.pop();
            self.drive(|ctx| process.on_timer(token, ctx));
        }
        let wait = self.timers.peek().map_or(IDLE_WAIT, |Reverse((at, _))| {
            at.saturating_duration_since(Instant::now()).min(IDLE_WAIT)
        });
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

    /// Encodes `msg`, charges it to its byte counter and writes it to peer
    /// `to`, (re)connecting as needed.
    fn send(&mut self, to: usize, msg: M) {
        if to >= self.addrs.len() {
            return;
        }
        let (kind, frame) = (self.encode)(self.id, msg);
        match kind {
            FrameKind::Peer => &self.out_peer,
            FrameKind::Checkpoint => &self.out_checkpoint,
            FrameKind::State => &self.out_state,
        }
        .add(frame.len() as u64);
        let Some(stream) = self.connect_peer(to) else {
            return;
        };
        match write_frame(stream, &frame) {
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

    /// Runs the shared reader loop over one connection with the SMR frame
    /// decoder, lets `rogue` write to it, and returns
    /// `(frames_malformed, frames_torn, events forwarded)`.
    fn feed(rogue: impl Fn(&mut TcpStream)) -> (u64, u64, usize) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let decode = crate::live::smr_decoder::<probft_smr::KvStore>(4, &Obs::new("decoder"));
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

    /// Regression: short (< 4 byte) and undecodable frames from a rogue
    /// peer used to reach a panicking `expect` path; they must be counted
    /// and dropped while the reader thread keeps serving the connection,
    /// and the clean EOF that follows is not a torn frame.
    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (malformed, torn, events) = feed(|peer| {
            // Shorter than a 4-byte word.
            write_frame(peer, &[0xAB, 0xCD]).expect("short frame");
            // A zero first word followed by garbage bytes.
            write_frame(peer, &[0, 0, 0, 0, 0xFF, 0xFF, 0xFF]).expect("garbage frame");
            // An out-of-range first word with a plausible length.
            write_frame(peer, &[0xFF, 0xFF, 0xFF, 0xFF, 1]).expect("bogus sender");
        });
        assert_eq!(malformed, 3);
        assert_eq!(torn, 0);
        assert_eq!(events, 0, "no rejected frame may reach the replica");
    }

    /// Well-formed SMR frames the decoder must still refuse: replica
    /// traffic claiming a sender outside the cluster (`from ≥ n`, the
    /// boundary included, and a checkpoint vote signed as such a replica),
    /// and replies sent *to* a replica. Each decodes, so what rejects it
    /// is the sender check, not the tag or length checks; each is counted
    /// malformed and none reaches the replica.
    #[test]
    fn frames_from_outside_the_cluster_are_counted_not_forwarded() {
        use crate::live::{SmrFrame, SmrReply};
        use probft_core::config::View;
        use probft_core::message::{Message, Wish, WishBody};
        use probft_core::wire::Wire;
        use probft_crypto::keyring::Keyring;
        use probft_crypto::sha256::Sha256;
        use probft_quorum::ReplicaId;
        use probft_smr::{
            CheckpointBody, CheckpointVote, KvResponse, KvStore, SlotMessage, StateReply,
            StateRequest,
        };

        // Replica 4 of a 5-key ring: a real signature, one past a 4-cluster.
        let keyring = Keyring::generate(5, b"outsider");
        let outsider = keyring.signing_key(4).expect("in range");
        let wish = Wish::sign(
            outsider,
            WishBody {
                sender: ReplicaId(4),
                view: View(2),
            },
        );
        let request = probft_smr::RequestId { client: 1, seq: 1 };
        let frames: Vec<SmrFrame<KvStore>> = vec![
            SmrFrame::Peer {
                from: 4,
                msg: SlotMessage {
                    slot: 0,
                    inner: Message::Wish(wish),
                },
            },
            SmrFrame::StateRequest {
                from: 4,
                req: StateRequest { min_slot: 8 },
            },
            SmrFrame::StateReply {
                from: u32::MAX,
                rep: StateReply {
                    slot: 8,
                    snapshot: Vec::new(),
                    certificate: Vec::new(),
                },
            },
            SmrFrame::CheckpointVote(CheckpointVote::sign(
                outsider,
                CheckpointBody {
                    from: ReplicaId(4),
                    slot: 8,
                    digest: Sha256::digest(b"snapshot"),
                },
            )),
            SmrFrame::Reply(SmrReply::Applied {
                request,
                response: KvResponse::Prev(None),
            }),
            SmrFrame::ReadReply {
                request,
                response: KvResponse::Value(None),
            },
        ];
        let bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.to_wire_bytes()).collect();
        for frame in &bytes {
            assert!(SmrFrame::<KvStore>::from_wire_bytes(frame).is_ok());
        }
        let counts = feed(|peer| {
            for frame in &bytes {
                write_frame(peer, frame).expect("frame written");
            }
        });
        assert_eq!(counts, (bytes.len() as u64, 0, 0));
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
        assert_eq!(counts, (0, 1, 0));
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
        assert_eq!(counts, (1, 0, 0));
    }
}
