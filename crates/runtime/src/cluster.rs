//! A TCP cluster running the unmodified ProBFT replica, one event-loop
//! thread per replica.
//!
//! The single-shot instantiation of the replica host (`crate::host`): each
//! replica owns a listener socket (an OS-assigned loopback port by
//! default, or `127.0.0.1:base_port + id` when a fixed range is requested)
//! and a host running one [`Replica`] to decision. All this module adds is the frame
//! codec — `u32 sender ‖ message bytes`; the replica's own cryptographic
//! verification decides what to trust, exactly as in the simulator — and
//! the decision fan-in.

use crate::host::{bind_listeners, wire_id, FrameKind, Host};
use probft_core::config::{ProbftConfig, SharedConfig};
use probft_core::message::Message;
use probft_core::replica::{Decision, Replica};
use probft_core::value::Value;
use probft_core::wire::Wire;
use probft_crypto::keyring::Keyring;
use probft_obs::Obs;
use probft_quorum::ReplicaId;
use probft_simnet::process::{Process, ProcessId};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Encodes `u32 sender ‖ message bytes`.
fn encode_peer_frame(from: usize, msg: Message) -> (FrameKind, Vec<u8>) {
    let mut frame = wire_id(from).to_be_bytes().to_vec();
    msg.encode(&mut frame);
    (FrameKind::Peer, frame)
}

/// Decodes `u32 sender ‖ message bytes` without any panicking slice or
/// conversion — every byte here is peer-controlled. `None` for a frame
/// shorter than the sender prefix, a sender id out of range, or an
/// undecodable message body.
pub(crate) fn parse_peer_frame(frame: &[u8], n: usize) -> Option<(ProcessId, Message)> {
    let [a, b, c, d, rest @ ..] = frame else {
        return None;
    };
    let from = u32::from_be_bytes([*a, *b, *c, *d]) as usize;
    if from >= n {
        return None;
    }
    Some((ProcessId(from), Message::from_wire_bytes(rest).ok()?))
}

/// Errors from running a live cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// A listener could not bind (port in use?).
    Bind(std::io::Error),
    /// Not all replicas decided within the configured deadline.
    Timeout {
        /// How many decisions arrived in time.
        decided: usize,
        /// Cluster size.
        n: usize,
    },
    /// The cluster was misconfigured (e.g. a keyring shorter than `n`).
    /// Surfaced as a typed error so setup bugs fail the run, not the
    /// process.
    Config(&'static str),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Bind(e) => write!(f, "failed to bind listener: {e}"),
            ClusterError::Timeout { decided, n } => {
                write!(f, "only {decided}/{n} replicas decided before the deadline")
            }
            ClusterError::Config(what) => write!(f, "cluster misconfigured: {what}"),
        }
    }
}

impl Error for ClusterError {}

/// Builds and runs a localhost TCP ProBFT cluster.
///
/// By default every replica binds an OS-assigned loopback port (bind to
/// port 0, then read the actual address), so parallel test runs and
/// occupied ports cannot collide; [`base_port`](Self::base_port) opts into
/// a fixed range when externally-known addresses are needed.
#[derive(Debug)]
pub struct ClusterBuilder {
    n: usize,
    base_port: Option<u16>,
    seed: u64,
    deadline: Duration,
}

impl ClusterBuilder {
    /// Starts building an `n`-replica cluster on OS-assigned ports.
    pub fn new(n: usize) -> Self {
        ClusterBuilder {
            n,
            base_port: None,
            seed: 1,
            deadline: Duration::from_secs(30),
        }
    }

    /// Uses a fixed port range instead of OS-assigned ports; replica `i`
    /// listens on `base_port + i`.
    pub fn base_port(mut self, port: u16) -> Self {
        self.base_port = Some(port);
        self
    }

    /// Key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overall deadline for all replicas to decide.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Runs the cluster to decision on every replica.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Bind`] if a port cannot be bound,
    /// [`ClusterError::Timeout`] if the deadline passes first.
    pub fn run(self) -> Result<Vec<Decision>, ClusterError> {
        self.run_observed().map(|(decisions, _)| decisions)
    }

    /// [`run`](Self::run), also handing back every replica's telemetry
    /// bundle.
    fn run_observed(self) -> Result<(Vec<Decision>, Vec<Arc<Obs>>), ClusterError> {
        let cfg: SharedConfig = Arc::new(ProbftConfig::builder(self.n).build());
        let keyring = Keyring::generate(self.n, &self.seed.to_be_bytes());
        let public = Arc::new(keyring.public());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (decision_tx, decision_rx) = mpsc::channel::<(usize, Decision)>();

        // Bind all listeners up front (collecting the OS-assigned
        // addresses) so peers can connect immediately.
        let (listeners, addrs) =
            bind_listeners(self.n, self.base_port).map_err(ClusterError::Bind)?;
        let addrs = Arc::new(addrs);
        let n = self.n;

        let observed: Vec<Arc<Obs>> = (0..n)
            .map(|i| Arc::new(Obs::new(format!("replica-{i}"))))
            .collect();
        let mut handles = Vec::with_capacity(n);
        for (i, (listener, obs)) in listeners.into_iter().zip(&observed).enumerate() {
            let cfg = cfg.clone();
            let sk = keyring
                .signing_key(i)
                .map_err(|_| ClusterError::Config("keyring shorter than cluster size"))?
                .clone();
            let public = public.clone();
            let decision_tx = decision_tx.clone();
            let (addrs, shutdown, obs) = (addrs.clone(), shutdown.clone(), obs.clone());
            handles.push(thread::spawn(move || {
                let mut host = Host::new(i, addrs, shutdown, obs, encode_peer_frame);
                host.listen(listener, move |frame, _| parse_peer_frame(frame, n));
                let mut replica = Replica::new(
                    cfg,
                    ReplicaId::from(i),
                    sk,
                    public,
                    Value::from_tag(i as u64),
                );
                host.drive(|ctx| replica.on_start(ctx));
                let mut reported = false;
                while host.running() {
                    if let Some((from, msg)) = host.next_event(&mut replica) {
                        host.drive(|ctx| replica.on_message(from, msg, ctx));
                    }
                    if !reported {
                        if let Some(d) = replica.decision() {
                            reported = true;
                            if decision_tx.send((i, d.clone())).is_err() {
                                // The collector is gone: nobody is left to tell.
                                break;
                            }
                        }
                    }
                }
                host.join();
            }));
        }
        drop(decision_tx);

        // Collect decisions until the deadline.
        let start = Instant::now();
        let mut decisions: Vec<Option<Decision>> = vec![None; self.n];
        let mut decided = 0usize;
        while decided < self.n {
            let remaining = self
                .deadline
                .checked_sub(start.elapsed())
                .unwrap_or(Duration::ZERO);
            match decision_rx.recv_timeout(remaining.max(Duration::from_millis(1))) {
                Ok((id, d)) => {
                    // `id` comes off a channel; index fallibly so a buggy
                    // sender cannot panic the collector.
                    if let Some(slot @ None) = decisions.get_mut(id) {
                        *slot = Some(d);
                        decided += 1;
                    }
                }
                Err(_) if start.elapsed() >= self.deadline => break,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }

        shutdown.store(true, Ordering::SeqCst);
        for h in handles {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "teardown join: the Err payload is a replica thread's panic, and a replica that panicked before reporting already surfaces as ClusterError::Timeout below; the join exists to bound thread lifetime"
            )]
            let _ = h.join();
        }

        // A partially-decided run must surface as the typed timeout error,
        // never as a panic: collect fallibly instead of `expect`ing, and
        // count from the actual slots so a miscounted `decided` cannot
        // reach an unwrap path.
        let done: Vec<Decision> = decisions.into_iter().flatten().collect();
        if done.len() < self.n {
            return Err(ClusterError::Timeout {
                decided: done.len(),
                n: self.n,
            });
        }
        Ok((done, observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn five_replica_cluster_decides() {
        // Default OS-assigned ports: no fixed range, no collisions under
        // parallel test runs.
        let (decisions, observed) = ClusterBuilder::new(5)
            .deadline(Duration::from_secs(30))
            .run_observed()
            .expect("cluster decides");
        assert_eq!(decisions.len(), 5);
        let first = decisions[0].value.digest();
        assert!(
            decisions.iter().all(|d| d.value.digest() == first),
            "agreement over TCP"
        );
        // Replica 0 leads view 1 and proposes its own value.
        assert_eq!(decisions[0].value, Value::from_tag(0));
        // Honest peers produce no rejected frames, and what they sent is
        // on the same counters the SMR shape reports.
        for obs in observed {
            assert_eq!(obs.frames_malformed.get(), 0);
            assert!(obs.frame_bytes_out("peer").get() > 0);
        }
    }

    #[test]
    fn bind_conflict_reported() {
        // Hold an OS-assigned port, then ask the cluster to use exactly it
        // — guaranteed conflict without hardcoding a port number.
        let hold = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = hold.local_addr().expect("addr").port();
        let err = ClusterBuilder::new(4).base_port(port).run().unwrap_err();
        assert!(matches!(err, ClusterError::Bind(_)), "{err}");
    }

    #[test]
    fn parse_peer_frame_never_panics_on_garbage() {
        assert_eq!(parse_peer_frame(&[], 4), None);
        assert_eq!(parse_peer_frame(&[1, 2, 3], 4), None);
        assert_eq!(
            parse_peer_frame(&[0, 0, 0, 9, 1, 2, 3], 4),
            None,
            "sender id beyond cluster size is rejected"
        );
        assert_eq!(
            parse_peer_frame(&[0, 0, 0, 0], 4),
            None,
            "empty message body is rejected"
        );
    }
}
