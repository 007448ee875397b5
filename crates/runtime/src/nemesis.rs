//! The wall-clock executor of a nemesis [`FaultPlan`]: Jepsen-style
//! fault injection against a live SMR cluster.
//!
//! The plan, the forgeries and the invariant sweep are `probft-smr`'s
//! ([`probft_smr::nemesis`], re-exported here), shared with the
//! simulator's executor, which replays the same plans in virtual time.
//! [`execute`] walks a plan against a running [`LiveSmrCluster`] while
//! client threads hammer it, recording a transcript: it pauses and resumes
//! replicas, and frames the forged messages as peer frames injected over
//! TCP, through the replicas' real frame decoder. Afterwards
//! [`verify_invariants`] and [`verify_exactly_once`] sweep the shutdown
//! [`ReplicaReport`]s.
//!
//! A seed names the fault payloads (equivocating values, sprayed slots),
//! not the thread schedule: a live run is not reproducible bit for bit,
//! a simulated one is. [`NemesisRun::transcript`] starts with a `seed=`
//! line so a failure report carries it.
//!
//! ```no_run
//! use probft_runtime::nemesis::{execute, verify_invariants, Fault, FaultPlan};
//! use probft_runtime::LiveSmrBuilder;
//! use std::collections::BTreeSet;
//! use std::time::Duration;
//!
//! let cluster = LiveSmrBuilder::new(7).seed(42).start().unwrap();
//! let plan = FaultPlan::new(42)
//!     .at(Duration::from_millis(100), Fault::KillLeader)
//!     .at(Duration::from_millis(600), Fault::ResumeAll);
//! // ... spawn client threads against `cluster` ...
//! let run = execute(&cluster, &plan);
//! let reports = cluster.shutdown();
//! let confirmed = BTreeSet::new(); // ids the clients saw applied
//! verify_invariants(&reports, &[], &confirmed).unwrap_or_else(|violations| {
//!     panic!("seed {}: {violations:#?}", run.seed);
//! });
//! ```

use crate::live::{LiveSmrCluster, SmrFrame};
use crate::transport::write_frame;
use probft_smr::nemesis::{equivocation, far_future_spray};
pub use probft_smr::nemesis::{
    verify_exactly_once, verify_invariants, Fault, FaultPlan, ReplicaReport,
};
use probft_smr::{SlotMessage, StateMachine};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one [`execute`] walk did: the seed to reproduce it and a
/// human-readable transcript, one line per fault fired (plus a leading
/// `seed=` line). Write it to disk in tests so a failure artifact carries
/// the plan that caused it.
#[derive(Clone, Debug)]
pub struct NemesisRun {
    /// The plan's seed (also the first transcript line).
    pub seed: u64,
    /// One line per event, in firing order.
    pub transcript: Vec<String>,
}

impl NemesisRun {
    /// Writes the transcript to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating or writing the file.
    pub fn write_transcript(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.transcript.join("\n") + "\n")
    }
}

/// Walks `plan` against `cluster` on the calling thread: sleeps until
/// each event's offset, applies the fault, and records what happened.
/// Client load belongs on other threads; run them across this call.
pub fn execute<S: StateMachine>(cluster: &LiveSmrCluster<S>, plan: &FaultPlan) -> NemesisRun {
    let started = Instant::now();
    let mut transcript = vec![format!("seed={}", plan.seed())];
    for (offset, fault) in plan.events() {
        if let Some(wait) = offset.checked_sub(started.elapsed()) {
            crate::pacing::pause(wait);
        }
        let line = apply_fault(cluster, &fault, plan.seed());
        transcript.push(format!("t+{}ms {line}", offset.as_millis()));
    }
    NemesisRun {
        seed: plan.seed(),
        transcript,
    }
}

/// Applies one fault, returning the transcript line describing it.
fn apply_fault<S: StateMachine>(cluster: &LiveSmrCluster<S>, fault: &Fault, seed: u64) -> String {
    // Marked before a kill takes effect, so the recovery clock spans the
    // whole outage; stamped on the replicas' own clock.
    let at = cluster.shared.now().ticks();
    for obs in cluster.obs_handles() {
        fault.journal(obs, at);
    }
    let n = cluster.addrs().len();
    let line = match fault {
        Fault::KillLeader => {
            let leader = cluster.current_leader();
            cluster.pause(leader);
            format!("paused replica {leader}")
        }
        Fault::Kill(i) => {
            cluster.pause(*i);
            format!("paused replica {i}")
        }
        Fault::Resume(i) => {
            cluster.resume(*i);
            format!("replica {i}")
        }
        Fault::ResumeAll => {
            (0..n).for_each(|i| cluster.resume(i));
            "all".into()
        }
        Fault::Equivocate => {
            // Forged in the view the log is in — the one slots actually
            // run in — under that view's leader.
            let (attacker, view) = (cluster.current_leader(), cluster.current_view());
            let forged = equivocation(cluster.keyring(), attacker, view, frontier(cluster), seed);
            let Some([a, b]) = forged else {
                return format!("equivocate: no signing key for replica {attacker}");
            };
            let slot = a.slot;
            let [a, b] = [a, b].map(|msg| peer_frame::<S>(attacker, msg));
            let sent = inject_all(cluster, attacker, |i| {
                std::slice::from_ref(if i % 2 == 0 { &a } else { &b })
            });
            format!(
                "replica {attacker}'s key, slot {slot}, view {}, {sent} frames",
                view.0
            )
        }
        Fault::FarFutureSpray => {
            let (attacker, frontier) = (n.saturating_sub(1), frontier(cluster));
            let Some(spray) = far_future_spray(cluster.keyring(), attacker, frontier, seed) else {
                return format!("far-future-spray: no signing key for replica {attacker}");
            };
            let frames: Vec<Vec<u8>> = spray
                .into_iter()
                .map(|msg| peer_frame::<S>(attacker, msg))
                .collect();
            let sent = inject_all(cluster, attacker, |_| &frames);
            format!("replica {attacker}'s key, slots past {frontier}, {sent} frames")
        }
    };
    format!("{}: {line}", fault.name())
}

/// The cluster's slot frontier: the most slots any replica has applied.
fn frontier<S: StateMachine>(cluster: &LiveSmrCluster<S>) -> u64 {
    let applied = cluster.obs_handles().iter().map(|o| o.applied_slots.get());
    applied.max().unwrap_or(0)
}

/// Encodes one forged peer frame as replica `from`.
fn peer_frame<S: StateMachine>(from: usize, msg: SlotMessage) -> Vec<u8> {
    use probft_core::wire::Wire;
    SmrFrame::<S>::Peer {
        from: crate::host::wire_id(from),
        msg,
    }
    .to_wire_bytes()
}

/// Writes `frames(i)` to every unpaused replica `i` but the attacker,
/// returning how many frames the sockets accepted.
fn inject_all<'a, S: StateMachine>(
    cluster: &LiveSmrCluster<S>,
    attacker: usize,
    frames: impl Fn(usize) -> &'a [Vec<u8>],
) -> usize {
    let targets = cluster.addrs().iter().enumerate();
    targets
        .filter(|&(i, _)| i != attacker && !cluster.is_paused(i))
        .map(|(i, addr)| inject(*addr, frames(i)))
        .sum()
}

/// Opens one connection to `addr` and writes every frame, returning how
/// many were accepted by the socket (an unreachable replica injects
/// nothing, which is fine — it is being attacked, not relied on).
fn inject(addr: SocketAddr, frames: &[Vec<u8>]) -> usize {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return 0;
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "fault injector: the injected connection is adversarial traffic by construction — tuning it is opportunistic and its failure is part of the chaos being injected"
    )]
    let _ = stream.set_nodelay(true);
    frames
        .iter()
        .take_while(|frame| write_frame(&mut stream, frame).is_ok())
        .count()
}
