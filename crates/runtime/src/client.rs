//! The client front-end of the live SMR cluster.
//!
//! [`SmrClient`] is generic over the replicated [`StateMachine`]: it
//! submits operations over TCP with unique request ids and returns the
//! machine's *typed response* once the operation has been applied by the
//! cluster. It routes to the replica it believes leads, follows
//! [`SmrReply::Redirect`] answers (which carry the leader's address, so
//! hints survive any ordering of the client's replica list), and retries
//! — on a reply timeout, a torn connection, or a view change — by
//! *resending the same request id*, so the cluster's replicated dedup and
//! reply cache keep execution at-most-once no matter how many times a
//! submission is retried or rerouted. A redirect loop (replicas pointing
//! at a leader that never answers) is broken by rotating to the next
//! replica after a few identical redirects.
//!
//! An [`SmrReply::Overloaded`] answer is *not* a redirect: the leader is
//! alive and shedding by choice, and every follower would bounce the
//! client straight back to it. The client therefore backs off
//! (exponentially, capped) and retries the **same** replica — rotating
//! would just stampede the shed load onto the next replica's redirect
//! path.
//!
//! Reads go through [`read`](SmrClient::read) at a chosen [`Consistency`]
//! tier: `Local` asks whichever replica the client currently points at
//! and accepts staleness, `Leader` insists on the leader's state, and
//! `Linearizable` orders the read through the log like a write.

use crate::live::{SmrFrame, SmrReply};
use crate::transport::{read_frame, write_frame, FrameError};
use probft_core::wire::Wire;
use probft_obs::Obs;
use probft_smr::{Command, Consistency, KvResponse, KvStore, OpKind, RequestId, StateMachine};
use std::error::Error;
use std::fmt;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Errors from submitting through an [`SmrClient`].
#[derive(Debug)]
pub enum ClientError {
    /// The client was built with an empty replica address list.
    NoReplicas,
    /// The overall submission deadline passed without a reply.
    Exhausted {
        /// The request that could not be confirmed.
        request: RequestId,
        /// How many submission attempts were made.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::NoReplicas => f.write_str("no replica addresses configured"),
            ClientError::Exhausted { request, attempts } => write!(
                f,
                "request {request} not confirmed after {attempts} attempts"
            ),
        }
    }
}

impl Error for ClientError {}

/// How many consecutive redirects naming the *same* leader the client
/// follows before concluding that leader is unresponsive and rotating to
/// the next replica in its list instead. Breaks the bounce-forever loop
/// between a follower and a crashed leader the follower still believes
/// in.
const MAX_REDIRECT_STREAK: u32 = 3;

/// First pause after an `Overloaded` shed; doubles per consecutive shed
/// of the same request, capped at [`OVERLOAD_BACKOFF_CAP`].
const OVERLOAD_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Longest single overload backoff pause.
const OVERLOAD_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// A client of a live SMR cluster, generic over the replicated
/// [`StateMachine`] (default: the reference [`KvStore`]).
///
/// Sequential by design: [`submit`](Self::submit) blocks until the
/// operation is applied, and sequence numbers increase one per request —
/// the contract the cluster's per-client dedup watermark relies on. Run
/// several clients (distinct `client_id`s) for concurrent load.
#[derive(Debug)]
pub struct SmrClient<S: StateMachine = KvStore> {
    addrs: Vec<SocketAddr>,
    client_id: u64,
    next_seq: u64,
    /// The replica address to try first (updated by redirects and
    /// failures). Address-based, not an index: redirects carry the
    /// leader's address, so the hint stays meaningful however the
    /// client's `addrs` list is ordered.
    hint: SocketAddr,
    conn: Option<TcpStream>,
    /// Replica address the current connection points at.
    conn_to: Option<SocketAddr>,
    /// How long one attempt waits for a reply before resending.
    attempt_timeout: Duration,
    /// Overall per-submission budget across all retries.
    overall_timeout: Duration,
    last: Option<(RequestId, OpKind, S::Op)>,
    /// Consecutive redirects naming the same leader address without an
    /// applied reply in between.
    redirect_streak: Option<(SocketAddr, u32)>,
    /// This client's telemetry, labeled `client-<id>`: request RTTs land
    /// in `request_rtt_us`, and retries / redirects / overload backoffs
    /// are the `client_*` counters.
    obs: Obs,
}

impl<S: StateMachine> SmrClient<S> {
    /// Creates a client for the cluster at `addrs` (any order; redirects
    /// carry addresses). `client_id` must be unique among concurrent
    /// clients.
    pub fn new(addrs: Vec<SocketAddr>, client_id: u64) -> Self {
        let hint = addrs.first().copied().unwrap_or_else(unusable_addr);
        SmrClient {
            addrs,
            client_id,
            next_seq: 1,
            hint,
            conn: None,
            conn_to: None,
            attempt_timeout: Duration::from_millis(1000),
            overall_timeout: Duration::from_secs(30),
            last: None,
            redirect_streak: None,
            obs: Obs::new(format!("client-{client_id}")),
        }
    }

    /// This client's telemetry bundle. Each completed submission or read
    /// records its end-to-end round-trip (across every retry and
    /// redirect) into `request_rtt_us`; retries, redirects followed and
    /// overload backoffs are the `client_retries` / `client_redirects` /
    /// `client_overloads` counters.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Overrides the per-attempt reply timeout and the overall
    /// per-submission budget.
    pub fn timeouts(mut self, attempt: Duration, overall: Duration) -> Self {
        self.attempt_timeout = attempt;
        self.overall_timeout = overall;
        self
    }

    /// Starts submissions at the `hint`-th replica of the address list
    /// instead of the first — e.g. to exercise the redirect path
    /// deliberately. (Convenience over [`leader_hint_addr`]
    /// (Self::leader_hint_addr); the stored hint is the address.)
    pub fn leader_hint(self, hint: usize) -> Self {
        match self.addrs.get(hint % self.addrs.len().max(1)).copied() {
            Some(addr) => self.leader_hint_addr(addr),
            None => self,
        }
    }

    /// Starts submissions at `addr`. Unknown addresses are accepted — the
    /// cluster's redirects will route the client from there.
    pub fn leader_hint_addr(mut self, addr: SocketAddr) -> Self {
        self.hint = addr;
        self
    }

    /// Submission attempts beyond the first, across all requests (reply
    /// timeouts, reconnects — every resend of an already-sent request id).
    pub fn retries(&self) -> u64 {
        self.obs.client_retries.get()
    }

    /// Redirect replies followed, across all requests.
    pub fn redirects(&self) -> u64 {
        self.obs.client_redirects.get()
    }

    /// `Overloaded` sheds absorbed (each answered with backoff-and-retry
    /// against the same leader), across all requests.
    pub fn overloads(&self) -> u64 {
        self.obs.client_overloads.get()
    }

    /// Submits `op` as a write and blocks until the cluster confirms it
    /// applied, returning the machine's typed response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] if the overall deadline passes first.
    pub fn submit(&mut self, op: S::Op) -> Result<S::Response, ClientError> {
        let request = self.next_request();
        self.last = Some((request, OpKind::Write, op.clone()));
        self.send_until_applied(request, OpKind::Write, &op)
    }

    /// Reads through the cluster at the chosen [`Consistency`] tier,
    /// returning the machine's typed response.
    ///
    /// * [`Consistency::Local`] asks the replica the client currently
    ///   points at (any replica serves; the answer may lag the leader).
    /// * [`Consistency::Leader`] asks the leader, following redirects.
    /// * [`Consistency::Linearizable`] orders the read through the
    ///   replicated log like a write, at full consensus cost.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] if the overall deadline passes first.
    pub fn read(
        &mut self,
        op: S::Op,
        consistency: Consistency,
    ) -> Result<S::Response, ClientError> {
        match consistency {
            Consistency::Linearizable => {
                let request = self.next_request();
                self.last = Some((request, OpKind::Read, op.clone()));
                self.send_until_applied(request, OpKind::Read, &op)
            }
            Consistency::Local | Consistency::Leader => {
                let request = self.next_request();
                self.send_read(request, consistency, &op)
            }
        }
    }

    /// Re-submits the most recent ordered request under its *original*
    /// request id — an explicit client-side retry. The cluster recognises
    /// the id and answers from its reply cache without applying the
    /// operation a second time.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] if the overall deadline passes;
    /// [`ClientError::NoReplicas`] if nothing was submitted yet.
    pub fn retry_last(&mut self) -> Result<S::Response, ClientError> {
        let Some((request, kind, op)) = self.last.clone() else {
            return Err(ClientError::NoReplicas);
        };
        self.obs.client_retries.inc();
        self.send_until_applied(request, kind, &op)
    }

    fn next_request(&mut self) -> RequestId {
        let request = RequestId {
            client: self.client_id,
            seq: self.next_seq,
        };
        self.next_seq = self.next_seq.saturating_add(1);
        request
    }

    /// Follows one redirect: adopt the named leader address unless the
    /// same leader has been named [`MAX_REDIRECT_STREAK`] times in a row
    /// without progress, in which case rotate to the replica after the
    /// one we just asked (the redirect chain is going nowhere — probe the
    /// cluster instead of bouncing).
    fn follow_redirect(&mut self, named: SocketAddr, asked: SocketAddr) {
        self.obs.client_redirects.inc();
        let streak = match self.redirect_streak {
            Some((addr, count)) if addr == named => count + 1,
            _ => 1,
        };
        self.redirect_streak = Some((named, streak));
        if streak >= MAX_REDIRECT_STREAK || named == asked {
            // A replica never names itself, and a streak means the named
            // leader is not answering: either way, rotate past `asked`.
            self.hint = self.next_addr_after(asked);
            self.redirect_streak = None;
        } else {
            self.drop_conn();
            self.hint = named;
        }
    }

    /// The address after `addr` in the configured list (wrapping), or
    /// `addr` itself if it is unknown and the list is empty.
    fn next_addr_after(&self, addr: SocketAddr) -> SocketAddr {
        if self.addrs.is_empty() {
            return addr;
        }
        let next = match self.addrs.iter().position(|&a| a == addr) {
            Some(i) => self.addrs.get((i + 1) % self.addrs.len()),
            // Redirected to an address outside the configured list and it
            // failed: start over at the front of the list.
            None => self.addrs.first(),
        };
        next.copied().unwrap_or(addr)
    }

    fn send_until_applied(
        &mut self,
        request: RequestId,
        kind: OpKind,
        op: &S::Op,
    ) -> Result<S::Response, ClientError> {
        let frame = SmrFrame::<S>::Request {
            request,
            kind,
            op: op.clone(),
        }
        .to_wire_bytes();
        self.drive_frame(request, &frame)
    }

    /// Drives one consensus-bypassing read to completion: send a
    /// `ReadRequest`, follow redirects (`Leader` tier), rotate on
    /// failures, retry on timeouts. Reads execute nothing, so resending
    /// is always safe.
    fn send_read(
        &mut self,
        request: RequestId,
        consistency: Consistency,
        op: &S::Op,
    ) -> Result<S::Response, ClientError> {
        let frame = SmrFrame::<S>::ReadRequest {
            request,
            consistency,
            op: op.clone(),
        }
        .to_wire_bytes();
        self.drive_frame(request, &frame)
    }

    /// The one retry loop behind every submission and read: send `frame`
    /// to the hinted replica, await the matching reply, follow redirects,
    /// rotate past unreachable replicas, and resend the same request id
    /// on timeouts or torn connections until the overall budget runs out.
    fn drive_frame(
        &mut self,
        request: RequestId,
        frame: &[u8],
    ) -> Result<S::Response, ClientError> {
        if self.addrs.is_empty() {
            return Err(ClientError::NoReplicas);
        }
        let started = Instant::now();
        let mut attempts = 0u32;
        let mut overload_streak = 0u32;
        loop {
            if attempts > 0 {
                if started.elapsed() >= self.overall_timeout {
                    return Err(ClientError::Exhausted { request, attempts });
                }
                self.obs.client_retries.inc();
            }
            attempts += 1;

            let target = self.hint;
            let sent = match self.connection(target) {
                Some(stream) => write_frame(stream, frame).is_ok(),
                None => false,
            };
            if !sent {
                // Unreachable or broken link: try the next replica after a
                // short pause (avoids a hot spin while a cluster boots).
                self.drop_conn();
                self.hint = self.next_addr_after(target);
                crate::pacing::pause(crate::pacing::CLIENT_RETRY);
                continue;
            }

            match self.await_reply(request) {
                Some(Answer::Applied(response)) => {
                    self.redirect_streak = None;
                    self.obs
                        .request_rtt_us
                        .record(crate::host::micros(started.elapsed()));
                    return Ok(response);
                }
                Some(Answer::Redirect(named)) => self.follow_redirect(named, target),
                Some(Answer::Overloaded) => {
                    // The leader is alive and shedding by choice: back off
                    // and retry *it*, rather than rotating — a follower
                    // would only redirect us straight back, stampeding the
                    // shed load onto the rest of the cluster. Exponential
                    // with a cap; the connection stays up.
                    self.obs.client_overloads.inc();
                    self.redirect_streak = None;
                    let backoff = OVERLOAD_BACKOFF_BASE
                        .saturating_mul(1u32 << overload_streak.min(10))
                        .min(OVERLOAD_BACKOFF_CAP);
                    overload_streak += 1;
                    crate::pacing::pause(backoff);
                }
                None => {
                    // Reply timeout or torn connection: resend the same
                    // request id (safe: ordered entries are deduplicated,
                    // reads execute nothing) — but to the *next* replica.
                    // A silent-but-reachable replica (stalled, partitioned
                    // from its peers, deposed mid-request) must not absorb
                    // the whole submission budget; whoever we land on will
                    // serve or redirect us back to a live leader.
                    self.drop_conn();
                    self.hint = self.next_addr_after(target);
                }
            }
        }
    }

    /// Reads frames until the reply for `request` arrives or the attempt
    /// times out. Stale replies (earlier retries, earlier sequence
    /// numbers) are skipped.
    fn await_reply(&mut self, request: RequestId) -> Option<Answer<S::Response>> {
        let deadline = Instant::now() + self.attempt_timeout;
        let stream = self.conn.as_mut()?;
        loop {
            if Instant::now() >= deadline {
                return None;
            }
            match read_frame(stream) {
                Ok(Some(bytes)) => match SmrFrame::<S>::from_wire_bytes(&bytes) {
                    Ok(SmrFrame::Reply(SmrReply::Applied {
                        request: r,
                        response,
                    })) if r == request => return Some(Answer::Applied(response)),
                    Ok(SmrFrame::Reply(SmrReply::Redirect {
                        request: r, addr, ..
                    })) if r == request => return Some(Answer::Redirect(addr)),
                    Ok(SmrFrame::Reply(SmrReply::Overloaded { request: r, .. }))
                        if r == request =>
                    {
                        return Some(Answer::Overloaded)
                    }
                    Ok(SmrFrame::ReadReply {
                        request: r,
                        response,
                    }) if r == request => return Some(Answer::Applied(response)),
                    Ok(_) | Err(_) => continue, // stale or foreign frame
                },
                Ok(None) => return None, // replica closed the connection
                Err(FrameError::Io(e))
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => return None,
            }
        }
    }

    /// The connection to `target`, (re)establishing it if needed.
    fn connection(&mut self, target: SocketAddr) -> Option<&mut TcpStream> {
        if self.conn_to != Some(target) {
            self.drop_conn();
        }
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(
                &target,
                self.attempt_timeout.max(Duration::from_millis(100)),
            )
            .ok()?;
            #[expect(
                clippy::let_underscore_must_use,
                reason = "client socket tuning (nodelay, read timeout): a failed setsockopt degrades latency, never correctness — the request/reply protocol carries its own deadlines and retries"
            )]
            {
                let _ = stream.set_nodelay(true);
                // Short read timeout so `await_reply` can poll its deadline.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            }
            self.conn = Some(stream);
            self.conn_to = Some(target);
        }
        self.conn.as_mut()
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.conn_to = None;
    }
}

/// KV conveniences on the reference machine, preserved from the
/// pre-generic API — note they now return the typed [`KvResponse`]
/// instead of a bare request id.
impl SmrClient<KvStore> {
    /// Submit a `PUT key=value`; returns the displaced previous value.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn put(&mut self, key: &str, value: &str) -> Result<KvResponse, ClientError> {
        self.submit(Command::Put {
            key: key.into(),
            value: value.into(),
        })
    }

    /// Submit a `DEL key`; returns the removed value.
    ///
    /// # Errors
    ///
    /// Same as [`submit`](Self::submit).
    pub fn delete(&mut self, key: &str) -> Result<KvResponse, ClientError> {
        self.submit(Command::Delete { key: key.into() })
    }

    /// Read `key` at the chosen consistency tier; returns the observed
    /// value.
    ///
    /// # Errors
    ///
    /// Same as [`read`](Self::read).
    pub fn get(
        &mut self,
        key: &str,
        consistency: Consistency,
    ) -> Result<Option<String>, ClientError> {
        let response = self.read(Command::Get { key: key.into() }, consistency)?;
        Ok(response.value().map(str::to_owned))
    }
}

/// A reply that concerns the in-flight request.
enum Answer<R> {
    Applied(R),
    Redirect(SocketAddr),
    /// The leader shed the request under admission control; retry it
    /// after a backoff instead of rotating.
    Overloaded,
}

/// A placeholder address for a client constructed with no replicas; every
/// operation on such a client fails with [`ClientError::NoReplicas`]
/// before the address is ever used.
pub(crate) fn unusable_addr() -> SocketAddr {
    use std::net::{IpAddr, Ipv4Addr};
    SocketAddr::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED), 0)
}
