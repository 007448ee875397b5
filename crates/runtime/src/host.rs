//! The one replica host: everything a [`Process`] needs to run on real
//! sockets and the wall clock, on the replica's own thread.
//!
//! A [`Host`] owns a replica's listener and every connection it accepted
//! or opened — a slab of non-blocking sockets, each with an inbound
//! [`FrameAssembler`] and an outbound byte queue — plus the epoll
//! [`Poller`] that says which of them are ready, the timer heap, and the
//! per-kind outbound byte counters. No call here waits on a socket (the
//! one exception is connecting to a peer while the cluster boots), so one
//! thread serves every peer and client: [`Host::next_event`] fires due
//! timers, hands out decoded events, and otherwise sleeps in `epoll_wait`
//! until a socket is ready or a timer is due. It models no network of its
//! own: a frame is encoded, counted and queued, and link faults (drops,
//! partitions, jitter) are the simulator's `DelayModel`s. A message the
//! replica addresses to itself is no frame at all: it is queued straight
//! back as the event the decoder would have made of it (counted in
//! `self_deliveries`), so no replica connects to its own listener.
//!
//! [`Host::drive`] is the single place a process's [`Action`]s are
//! interpreted: build a detached [`Context`], let the caller poke the
//! process, drain, and apply the sends and timers. The frame codec is not
//! the host's: the caller supplies `encode` for outbound messages,
//! `decode` for "bytes → event" and `deliver` for "own message → event",
//! and handles the non-protocol events (client requests) itself —
//! answering through [`Host::write`] — which keeps the SMR frame types in
//! `live`. Rejected input is counted in the
//! replica's [`Obs`] (`frames_malformed`, `frames_torn`,
//! `frames_unsendable`) and never panics the loop.

use crate::transport::{FrameAssembler, MAX_FRAME};
use epoll::{Events, Interest, Poller};
use probft_obs::{Counter, Obs};
use probft_simnet::process::{Action, Context, Process, ProcessId, TimerToken};
use probft_simnet::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// What the hosts of one cluster share: the replicas' addresses, the
/// shutdown flag, and the boot instant that every host's context time and
/// the nemesis's fault stamps count from — one clock per cluster.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) addrs: Vec<SocketAddr>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) boot: Instant,
}

impl Shared {
    /// Context time: one simulator tick per microsecond since boot.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_ticks(micros(self.boot.elapsed()))
    }
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

/// How long a connection's outbound queue may go without the socket
/// taking a byte before the connection is dropped. A peer (or client)
/// that stops reading fills its kernel buffer; without this its queue
/// would grow for as long as the replica has something to tell it.
pub(crate) const WRITE_STALL_LIMIT: Duration = Duration::from_secs(1);

/// Most bytes a connection may have queued for sending: a reader slow
/// enough to let more pile up — but not so stalled as to trip
/// [`WRITE_STALL_LIMIT`] — is dropped as well.
const MAX_OUTBOUND: usize = 4 * MAX_FRAME as usize;

/// Most bytes read from one connection per readiness report, so one busy
/// sender cannot monopolise the loop (level-triggered readiness brings the
/// rest on the next wait), and so what one wait can decode stays bounded.
const MAX_READ_PER_WAKE: usize = 4 * READ_CHUNK;

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 64 * 1024;

/// Readiness reports taken per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 256;

/// Longest an idle event loop sleeps before re-checking the shutdown flag.
const IDLE_WAIT: Duration = Duration::from_millis(20);

/// The poller key of the listener; connections use [`ConnId::key`], whose
/// generation half never reaches `u32::MAX` in a run.
const LISTENER_KEY: u64 = u64::MAX;

/// One connection of a [`Host`]: its slab index and that slot's
/// generation when it opened, so the id of a closed connection never
/// reaches a later one that reuses the slot. The frame decoder receives
/// it so a client request carries its reply path into the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConnId {
    index: u32,
    generation: u32,
}

impl ConnId {
    fn key(self) -> u64 {
        u64::from(self.generation) << 32 | u64::from(self.index)
    }

    fn from_key(key: u64) -> Self {
        ConnId {
            index: u32::try_from(key & 0xFFFF_FFFF).unwrap_or(u32::MAX),
            generation: u32::try_from(key >> 32).unwrap_or(u32::MAX),
        }
    }
}

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

/// Bytes of one inbound frame → the event it carries, or `None` (counted
/// malformed, connection kept).
type Decoder<E> = Box<dyn Fn(&[u8], ConnId) -> Option<E> + Send>;

/// One open, non-blocking socket.
struct Conn {
    stream: TcpStream,
    inbound: FrameAssembler,
    /// Framed bytes not yet taken by the socket: `outbound[sent..]`.
    outbound: Vec<u8>,
    sent: usize,
    /// When the socket last took bytes, or the queue last became
    /// non-empty.
    progress: Instant,
    /// Whether the poller reports this socket writable as well as
    /// readable (exactly while bytes are queued).
    want_write: bool,
    /// Whether this connection is listed in [`Host::unflushed`].
    flush_due: bool,
}

impl Conn {
    fn queued(&self) -> usize {
        self.outbound.len().saturating_sub(self.sent)
    }

    /// Writes queued bytes until the socket would block.
    fn flush(&mut self, now: Instant) -> io::Result<()> {
        while let Some(rest) = self.outbound.get(self.sent..).filter(|r| !r.is_empty()) {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.sent = self.sent.saturating_add(n);
                    self.progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.queued() == 0 {
            self.outbound.clear();
            self.sent = 0;
        } else if self.sent > self.outbound.len() / 2 {
            self.outbound.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }
}

/// A slab entry: the connection, if open, and how many times the slot
/// has been reused.
struct Slot {
    generation: u32,
    conn: Option<Conn>,
}

/// One replica's sockets, timers and action loop. `M` is the hosted
/// process's message type, `E` the event type its frame decoder produces.
pub(crate) struct Host<M, E> {
    id: usize,
    shared: Arc<Shared>,
    obs: Arc<Obs>,
    /// Sender id + message → charged counter and frame payload.
    encode: fn(usize, M) -> (FrameKind, Vec<u8>),
    decode: Decoder<E>,
    /// Own id + message → the event `decode` makes of its frame.
    deliver: fn(usize, M) -> E,
    out_peer: Counter,
    out_checkpoint: Counter,
    out_state: Counter,
    listener: TcpListener,
    poller: Poller,
    events: Events,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// The connection to each peer this host opened, by replica index.
    peers: Vec<Option<ConnId>>,
    /// Events decoded by the last wait and not yet handed out — at most
    /// what [`MAX_READ_PER_WAKE`] bytes per ready connection hold — and
    /// the process's messages to itself, in the order they were queued.
    ready: VecDeque<E>,
    /// Connections written to since the last wait, each listed once: they
    /// are flushed just before the next, so the frames one batch of
    /// events produces for a peer leave in one write.
    unflushed: Vec<ConnId>,
    read_buf: Box<[u8]>,
    timers: BinaryHeap<Reverse<(Instant, TimerToken)>>,
    rng: StdRng,
}

impl<M, E> Host<M, E> {
    /// A host for replica `id` of the `shared` cluster, accepting on
    /// `listener`, turning inbound frames into events with `decode` and
    /// its own messages into events with `deliver`. Peer connections are
    /// opened on first send.
    ///
    /// # Errors
    ///
    /// The listener cannot be made non-blocking or the poller cannot be
    /// created or told about it.
    pub(crate) fn new(
        id: usize,
        listener: TcpListener,
        shared: Arc<Shared>,
        obs: Arc<Obs>,
        encode: fn(usize, M) -> (FrameKind, Vec<u8>),
        decode: impl Fn(&[u8], ConnId) -> Option<E> + Send + 'static,
        deliver: fn(usize, M) -> E,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(&listener, LISTENER_KEY, Interest::Read)?;
        Ok(Host {
            id,
            peers: shared.addrs.iter().map(|_| None).collect(),
            shared,
            // One registry lookup per kind here instead of one per frame.
            out_peer: obs.frame_bytes_out("peer"),
            out_checkpoint: obs.frame_bytes_out("checkpoint"),
            out_state: obs.frame_bytes_out("state"),
            obs,
            encode,
            decode: Box::new(decode),
            deliver,
            listener,
            poller,
            events: Events::with_capacity(EVENTS_PER_WAIT),
            slots: Vec::new(),
            free: Vec::new(),
            ready: VecDeque::new(),
            unflushed: Vec::new(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            timers: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(0x11FE ^ id as u64),
        })
    }

    pub(crate) fn addrs(&self) -> &[SocketAddr] {
        &self.shared.addrs
    }

    /// False once the cluster's shutdown flag is raised.
    pub(crate) fn running(&self) -> bool {
        !self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// One step of the hosted process: `step` pokes it through a detached
    /// context, the actions it emitted are applied to the sockets and the
    /// timer heap, and what `step` returned is returned.
    pub(crate) fn drive<R>(&mut self, step: impl FnOnce(&mut Context<'_, M>) -> R) -> R {
        let now = self.shared.now();
        let (out, actions) = {
            let mut ctx = Context::detached(ProcessId(self.id), now, &mut self.rng);
            (step(&mut ctx), ctx.drain_actions())
        };
        for action in actions {
            match action {
                Action::Send { to, msg } => self.send(to.index(), msg),
                Action::SetTimer { delay, token } => {
                    // A deadline past what an `Instant` holds never fires.
                    let deadline = Instant::now().checked_add(Duration::from_micros(delay.ticks()));
                    if let Some(deadline) = deadline {
                        self.timers.push(Reverse((deadline, token)));
                    }
                }
                Action::Halt => {}
            }
        }
        out
    }

    /// Fires `process`'s due timers, then hands out the next inbound
    /// event: one already decoded, or else whatever the sockets yield
    /// after waiting for them — at most until the next timer deadline,
    /// and never longer than [`IDLE_WAIT`]. `None` means the wait ended
    /// without an event.
    pub(crate) fn next_event<P: Process<Message = M>>(&mut self, process: &mut P) -> Option<E> {
        while let Some(Reverse((deadline, token))) = self.timers.peek().copied() {
            if deadline > Instant::now() {
                break;
            }
            self.timers.pop();
            self.drive(|ctx| process.on_timer(token, ctx));
        }
        if let Some(event) = self.ready.pop_front() {
            return Some(event);
        }
        let wait = self.timers.peek().map_or(IDLE_WAIT, |Reverse((at, _))| {
            at.saturating_duration_since(Instant::now()).min(IDLE_WAIT)
        });
        self.poll(wait);
        self.ready.pop_front()
    }

    /// Serves the sockets for up to `wait` and discards every event they
    /// carry, and every message to itself still queued (a paused replica
    /// hears nothing, but its peers' and clients' writes still drain).
    pub(crate) fn discard_events(&mut self, wait: Duration) {
        self.poll(wait);
        self.ready.clear();
    }

    /// Queues one frame with `payload` on connection `to`, to be written
    /// before the host next waits; what the socket does not take then
    /// goes out as it drains. A frame over
    /// [`MAX_FRAME`] is counted unsendable and the connection kept; a
    /// closed connection drops it.
    pub(crate) fn write(&mut self, to: ConnId, payload: &[u8]) {
        let Some(prefix) = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_FRAME)
        else {
            // Nothing was queued: the link is healthy and also carries
            // consensus traffic, so keep it — but count the loss, or a
            // too-big-to-transfer snapshot would strand its laggard with
            // no observable signal.
            self.obs.frames_unsendable.inc();
            return;
        };
        let Some(conn) = open_conn(&mut self.slots, to) else {
            return;
        };
        if conn.queued().saturating_add(payload.len()) > MAX_OUTBOUND {
            self.close(to);
            return;
        }
        if conn.outbound.is_empty() {
            conn.progress = Instant::now();
        }
        conn.outbound.extend_from_slice(&prefix.to_be_bytes());
        conn.outbound.extend_from_slice(payload);
        if !conn.want_write && !conn.flush_due {
            conn.flush_due = true;
            self.unflushed.push(to);
        }
    }

    /// Encodes `msg`, charges it to its byte counter and queues it for
    /// peer `to`, (re)connecting as needed. A message to itself is handed
    /// back instead: queued behind the events already decoded, as the
    /// event its frame would have become, with no frame and no socket.
    fn send(&mut self, to: usize, msg: M) {
        if to >= self.addrs().len() {
            return;
        }
        if to == self.id {
            self.obs.self_deliveries.inc();
            self.ready.push_back((self.deliver)(self.id, msg));
            return;
        }
        let (kind, frame) = (self.encode)(self.id, msg);
        match kind {
            FrameKind::Peer => &self.out_peer,
            FrameKind::Checkpoint => &self.out_checkpoint,
            FrameKind::State => &self.out_state,
        }
        .add(frame.len() as u64);
        if let Some(conn) = self.connect_peer(to) {
            self.write(conn, &frame);
        }
    }

    /// The connection to peer `to`, opened if there is none: retrying
    /// while the cluster boots (peers come up concurrently), failing fast
    /// afterwards so a dead peer costs a refusal, not a stall, per send.
    fn connect_peer(&mut self, to: usize) -> Option<ConnId> {
        if let Some(open) = self.peers.get(to).copied().flatten() {
            if open_conn(&mut self.slots, open).is_some() {
                return Some(open);
            }
        }
        let addr = *self.addrs().get(to)?;
        let attempts = if self.shared.boot.elapsed() < BOOT_WINDOW {
            BOOT_CONNECT_ATTEMPTS
        } else {
            STEADY_CONNECT_ATTEMPTS
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                crate::pacing::pause(crate::pacing::CONNECT_RETRY);
            }
            if let Ok(stream) = TcpStream::connect(addr) {
                let conn = self.insert(stream);
                if let Some(slot) = self.peers.get_mut(to) {
                    *slot = conn;
                }
                return conn;
            }
        }
        None
    }

    /// Waits up to `wait` for a socket to be ready, then accepts, reads
    /// and flushes whatever is, and drops connections stalled past their
    /// bounds.
    fn poll(&mut self, wait: Duration) {
        let mut due = std::mem::take(&mut self.unflushed);
        for id in due.drain(..) {
            self.flush(id);
        }
        self.unflushed = due;
        if self.poller.wait(&mut self.events, Some(wait)).is_err() {
            // Only a broken poller fails here; wait out the interval
            // instead of spinning on it.
            crate::pacing::pause(wait);
            return;
        }
        for i in 0..self.events.len() {
            let Some(event) = self.events.get(i) else {
                break;
            };
            if event.key() == LISTENER_KEY {
                self.accept();
                continue;
            }
            let conn = ConnId::from_key(event.key());
            if event.is_writable() {
                self.flush(conn);
            }
            if event.is_readable() {
                self.read(conn);
            }
        }
        self.drop_stalled();
    }

    /// Takes every connection waiting in the listener's backlog.
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.insert(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock: the backlog is empty. Anything else (a
                // connection aborted in the backlog, the descriptor
                // limit): try again on the next readiness report.
                Err(_) => return,
            }
        }
    }

    /// Puts `stream` in the slab, non-blocking and registered for reads.
    fn insert(&mut self, stream: TcpStream) -> Option<ConnId> {
        stream.set_nonblocking(true).ok()?;
        // Best-effort: without it the connection is slower, not wrong.
        stream.set_nodelay(true).unwrap_or_default();
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                let index = u32::try_from(self.slots.len()).ok()?;
                self.slots.push(Slot {
                    generation: 0,
                    conn: None,
                });
                index
            }
        };
        let slot = self.slots.get_mut(usize::try_from(index).ok()?)?;
        let id = ConnId {
            index,
            generation: slot.generation,
        };
        if self.poller.add(&stream, id.key(), Interest::Read).is_err() {
            self.free.push(index);
            return None;
        }
        slot.conn = Some(Conn {
            stream,
            inbound: FrameAssembler::default(),
            outbound: Vec::new(),
            sent: 0,
            progress: Instant::now(),
            want_write: false,
            flush_due: false,
        });
        Some(id)
    }

    /// Closes connection `id` (its descriptor leaves the poller with it)
    /// and retires the id.
    fn close(&mut self, id: ConnId) {
        let Some(slot) = usize::try_from(id.index)
            .ok()
            .and_then(|i| self.slots.get_mut(i))
            .filter(|slot| slot.generation == id.generation && slot.conn.is_some())
        else {
            return;
        };
        slot.conn = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
    }

    /// Reads what connection `id` has (up to [`MAX_READ_PER_WAKE`]) and
    /// decodes every frame it completes into `ready`. A frame `decode`
    /// rejects is counted and the connection kept — a malformed peer must
    /// not silence a link; an oversized length prefix is counted and ends
    /// the connection, as do an end of stream inside a frame and a socket
    /// error (counted torn).
    fn read(&mut self, id: ConnId) {
        let now = Instant::now();
        let mut budget = MAX_READ_PER_WAKE;
        let Host {
            slots,
            read_buf,
            decode,
            ready,
            obs,
            ..
        } = self;
        let Some(conn) = open_conn(slots, id) else {
            return;
        };
        let end = loop {
            match conn.stream.read(read_buf) {
                Ok(0) => break conn.inbound.mid_frame().then(|| &obs.frames_torn),
                Ok(n) => {
                    let chunk = read_buf.get(..n).unwrap_or_default();
                    let fed = conn
                        .inbound
                        .feed(chunk, now, |frame| match decode(frame, id) {
                            Some(event) => ready.push_back(event),
                            None => obs.frames_malformed.inc(),
                        });
                    if fed.is_err() {
                        break Some(&obs.frames_malformed);
                    }
                    budget = budget.saturating_sub(n);
                    // A short read drained the socket: skip the read that
                    // would only say so.
                    if budget == 0 || n < read_buf.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => break Some(&obs.frames_torn),
            }
        };
        if let Some(counter) = end {
            counter.inc();
        }
        self.close(id);
    }

    /// Writes what connection `id` has queued, and asks the poller for
    /// writability exactly while something stays queued.
    fn flush(&mut self, id: ConnId) {
        let now = Instant::now();
        let Some(conn) = open_conn(&mut self.slots, id) else {
            return;
        };
        conn.flush_due = false;
        if conn.flush(now).is_err() {
            // A broken link; a later send to a peer reconnects.
            self.close(id);
            return;
        }
        let backlogged = conn.queued() > 0;
        if backlogged == conn.want_write {
            return;
        }
        conn.want_write = backlogged;
        let interest = if backlogged {
            Interest::ReadWrite
        } else {
            Interest::Read
        };
        if self
            .poller
            .modify(&conn.stream, id.key(), interest)
            .is_err()
        {
            self.close(id);
        }
    }

    /// Drops every connection whose outbound queue has not moved for
    /// [`WRITE_STALL_LIMIT`], or whose inbound frame has been silent for
    /// the mid-frame bound (counted torn).
    fn drop_stalled(&mut self) {
        let now = Instant::now();
        let mut stalled = Vec::new();
        for (index, slot) in self.slots.iter().enumerate() {
            let Some(conn) = &slot.conn else {
                continue;
            };
            let write_stalled = conn.queued() > 0
                && now.saturating_duration_since(conn.progress) >= WRITE_STALL_LIMIT;
            let read_stalled = conn.inbound.stalled(now);
            if write_stalled || read_stalled {
                if read_stalled {
                    self.obs.frames_torn.inc();
                }
                if let Ok(index) = u32::try_from(index) {
                    stalled.push(ConnId {
                        index,
                        generation: slot.generation,
                    });
                }
            }
        }
        for id in stalled {
            self.close(id);
        }
    }
}

/// Connection `id`, if it is still open.
fn open_conn(slots: &mut [Slot], id: ConnId) -> Option<&mut Conn> {
    slots
        .get_mut(usize::try_from(id.index).ok()?)
        .filter(|slot| slot.generation == id.generation)?
        .conn
        .as_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{
        encode_smr_message, smr_decoder, smr_delivery, LiveSmrBuilder, SmrEvent, SmrFrame,
    };
    use crate::transport::{read_frame, write_frame, FrameError};
    use probft_core::wire::Wire;
    use probft_smr::{Command, Consistency, KvStore, RequestId, SmrMessage};
    use std::io::BufReader;

    /// A process with nothing to do: these tests drive the host.
    struct Idle;

    impl Process for Idle {
        type Message = SmrMessage;
        fn on_start(&mut self, _: &mut Context<'_, SmrMessage>) {}
        fn on_message(&mut self, _: ProcessId, _: SmrMessage, _: &mut Context<'_, SmrMessage>) {}
        fn on_timer(&mut self, _: TimerToken, _: &mut Context<'_, SmrMessage>) {}
    }

    /// A real host with the SMR codec: replica 0 of a cluster whose one
    /// address is its own listener, decoding as a 4-replica cluster.
    /// Returns the host, its telemetry and its address.
    fn test_host() -> (Host<SmrMessage, SmrEvent<KvStore>>, Arc<Obs>, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let decode = smr_decoder::<KvStore>(4, &Obs::new("decoder"));
        let obs = Arc::new(Obs::new("host"));
        let host = Host::new(
            0,
            listener,
            Arc::new(Shared {
                addrs: vec![addr],
                shutdown: AtomicBool::new(false),
                boot: Instant::now(),
            }),
            obs.clone(),
            encode_smr_message::<KvStore>,
            decode,
            smr_delivery::<KvStore>,
        )
        .expect("host");
        (host, obs, addr)
    }

    /// Runs [`test_host`], lets `rogue` write to one connection and hang
    /// up, drives `next_event` until the host has accepted and closed
    /// that connection, and returns `(frames_malformed, frames_torn,
    /// events handed out)`.
    fn feed(rogue: impl Fn(&mut TcpStream)) -> (u64, u64, usize) {
        let (mut host, obs, addr) = test_host();
        let mut peer = TcpStream::connect(addr).expect("connect");
        rogue(&mut peer);
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut events = 0;
        while host.slots.is_empty() || host.slots.iter().any(|slot| slot.conn.is_some()) {
            assert!(
                Instant::now() < deadline,
                "the host never closed the connection"
            );
            events += usize::from(host.next_event(&mut Idle).is_some());
        }
        events += host.ready.len();
        (obs.frames_malformed.get(), obs.frames_torn.get(), events)
    }

    /// A message the host sends to its own id comes back from
    /// `next_event` as the event a peer frame from itself decodes to,
    /// with no connection opened or accepted and no frame byte charged;
    /// `self_deliveries` counts it. A paused replica's `discard_events`
    /// drops a self-delivered message like any other event.
    #[test]
    fn a_message_to_itself_is_handed_back_without_a_socket() {
        use probft_core::config::View;
        use probft_core::message::{Message, Wish, WishBody};
        use probft_crypto::keyring::Keyring;
        use probft_quorum::ReplicaId;
        use probft_smr::SlotMessage;

        let keyring = Keyring::generate(4, b"self");
        let wish = Wish::sign(
            keyring.signing_key(0).expect("in range"),
            WishBody {
                sender: ReplicaId(0),
                view: View(2),
            },
        );
        let msg = SmrMessage::Slot(SlotMessage {
            slot: 3,
            inner: Message::Wish(wish),
        });
        let (mut host, obs, _) = test_host();

        host.drive(|ctx| ctx.send(ProcessId(0), msg.clone()));
        match host.next_event(&mut Idle) {
            Some(SmrEvent::Peer(from, got)) => assert_eq!((from, got), (ProcessId(0), msg.clone())),
            Some(SmrEvent::Client(..)) => panic!("a client event"),
            None => panic!("the message did not come back"),
        }
        assert_eq!(obs.self_deliveries.get(), 1);

        host.drive(|ctx| ctx.send(ProcessId(0), msg.clone()));
        // Polls the sockets: a connection to the own listener would be
        // accepted here.
        host.discard_events(Duration::from_millis(50));
        assert!(host.next_event(&mut Idle).is_none(), "discard kept it");
        assert_eq!(obs.self_deliveries.get(), 2);

        assert!(host.slots.is_empty(), "a connection was opened or accepted");
        assert!(host.peers.iter().all(Option::is_none));
        for kind in ["peer", "checkpoint", "state"] {
            assert_eq!(obs.frame_bytes_out(kind).get(), 0, "{kind}");
        }
    }

    /// Regression: short (< 4 byte) and undecodable frames from a rogue
    /// peer used to reach a panicking `expect` path; they must be counted
    /// and dropped while the host keeps serving the connection, and the
    /// clean EOF that follows is not a torn frame.
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
        use crate::live::SmrReply;
        use probft_core::config::View;
        use probft_core::message::{Message, Wish, WishBody};
        use probft_crypto::keyring::Keyring;
        use probft_crypto::sha256::Sha256;
        use probft_quorum::ReplicaId;
        use probft_smr::{
            CheckpointBody, CheckpointVote, KvResponse, SlotMessage, StateReply, StateRequest,
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
        let request = RequestId { client: 1, seq: 1 };
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
            SmrFrame::Reply(SmrReply::Read {
                request,
                response: KvResponse::Value(None),
            }),
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

    #[test]
    fn connection_ids_round_trip_through_poller_keys() {
        for id in [
            ConnId {
                index: 0,
                generation: 0,
            },
            ConnId {
                index: 7,
                generation: 3,
            },
            ConnId {
                index: u32::MAX - 1,
                generation: u32::MAX - 1,
            },
        ] {
            assert_eq!(ConnId::from_key(id.key()), id);
            assert_ne!(id.key(), LISTENER_KEY);
        }
    }

    /// A client that submits and never reads its replies costs the
    /// replica that one connection, once its outbound queue has stalled
    /// for [`WRITE_STALL_LIMIT`] — and nothing else: a second client is
    /// served the whole time, none of its attempts waiting out a timeout.
    #[test]
    fn a_client_that_never_reads_is_dropped_and_nobody_waits_for_it() {
        const READS: u64 = 512;
        let cluster = LiveSmrBuilder::new(4).seed(61).start().expect("boots");
        let mut client = cluster.client(1);
        client.put("big", &"v".repeat(64 * 1024)).expect("applied");
        // 512 replies of 64 KiB: 32 MiB, far past what the kernel buffers
        // of a connection nobody reads will hold, and under MAX_OUTBOUND,
        // so the stall (not the cap) is what ends the connection.
        let leader = cluster.addrs()[cluster.current_leader()];
        let mut rogue = TcpStream::connect(leader).expect("connect");
        for seq in 1..=READS {
            let read = SmrFrame::<KvStore>::ReadRequest {
                request: RequestId { client: 2, seq },
                consistency: Consistency::Local,
                op: Command::Get { key: "big".into() },
            };
            write_frame(&mut rogue, &read.to_wire_bytes()).expect("request");
        }
        let started = Instant::now();
        let mut served = 0;
        while started.elapsed() < 2 * WRITE_STALL_LIMIT {
            client.put(&format!("k{served}"), "v").expect("served");
            served += 1;
        }
        assert_eq!(client.retries(), 0, "an attempt waited out its timeout");

        // The replica gave up on the rogue: what it had handed the kernel
        // arrives (typically ending inside a reply), then the end of the
        // stream — not every reply, and not a read that times out on a
        // connection still held open.
        rogue
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(&rogue);
        let mut replies = 0;
        let end = loop {
            match read_frame(&mut reader) {
                Ok(Some(_)) => replies += 1,
                other => break other,
            }
        };
        let closed = match &end {
            Ok(None) => true,
            Err(FrameError::Io(e)) => matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset
            ),
            _ => false,
        };
        assert!(
            closed,
            "expected the connection closed, got {end:?} after {replies} replies"
        );
        assert!(replies < READS, "all {replies} replies were delivered");
        let reports = cluster.shutdown();
        assert!(reports.iter().all(|r| r.state.get("k0") == Some("v")));
    }
}
