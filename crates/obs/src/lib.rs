//! # probft-obs
//!
//! Unified, dependency-free telemetry for the ProBFT reproduction's live
//! stack. ProBFT's headline claims are quantitative — `O(n√n)` messages,
//! probabilistic commit latency (paper §3.3, Fig. 1b) — so the runtime
//! needs latency *distributions*, not end-of-run averages. This crate
//! provides the three pieces the live stack threads through itself:
//!
//! 1. **Metrics registry** ([`Registry`]): atomics-based [`Counter`]s and
//!    [`Gauge`]s plus log-bucketed HDR-style [`Histogram`]s with
//!    p50/p90/p99/p999 readout, snapshot-able without stopping the world,
//!    with JSON and Prometheus text exposition on [`MetricsSnapshot`].
//! 2. **Consensus-phase tracing** ([`Journal`]): a bounded ring buffer of
//!    [`TraceEvent`]s — slots opening/deciding/applying, checkpoints,
//!    view changes, overload sheds, nemesis fault markers — acting as a
//!    flight recorder for chaos runs.
//! 3. **The [`Obs`] bundle**: one per replica (or client), pre-registering
//!    every known metric so hot paths touch pre-fetched atomic handles
//!    and every exposition carries the same metric set.
//!
//! Everything here is `std`-only, lock-free on the hot paths (the journal
//! and registration take short mutexes never held across I/O), and cheap
//! enough to stay on in benches.

#![warn(missing_docs)]

mod hist;
mod registry;
mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsSnapshot, Registry};
pub use trace::{Journal, TraceEvent, TraceKind, DEFAULT_JOURNAL_CAPACITY};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The per-entity telemetry bundle: a registry, a flight-recorder journal,
/// a shared epoch clock, and pre-fetched handles for every metric the live
/// stack records. Wrap it in an [`Arc`] and hand clones to each thread
/// touching the entity.
pub struct Obs {
    registry: Arc<Registry>,
    journal: Journal,
    epoch: Instant,
    /// Microseconds-since-epoch of the most recent nemesis fault, plus
    /// one (so zero means "no outstanding fault"). Cleared by the first
    /// commit progress after the fault, which records the elapsed time
    /// into `recovery_latency_us`.
    fault_marker: AtomicU64,
    /// Microseconds-since-epoch, plus one, of the first sign that the
    /// current view is in doubt (a local view timeout, or a peer's wish
    /// for a later view) since the last commit progress; zero when there
    /// is none. Entering a view records the elapsed time into
    /// `view_change_latency_us`; commit progress refutes the doubt.
    view_doubt_marker: AtomicU64,

    /// Request receive → reply sent, per request, at the serving replica (µs).
    pub commit_latency_us: Arc<Histogram>,
    /// Slot opened → slot decided (µs).
    pub decide_latency_us: Arc<Histogram>,
    /// Slot opened → slot applied to the state machine (µs).
    pub apply_latency_us: Arc<Histogram>,
    /// Entries per decided batch.
    pub batch_size: Arc<Histogram>,
    /// Time between consecutive local checkpoints (µs).
    pub checkpoint_interval_us: Arc<Histogram>,
    /// State-transfer request → snapshot restored (µs).
    pub state_transfer_us: Arc<Histogram>,
    /// Client-side request round-trip time (µs).
    pub request_rtt_us: Arc<Histogram>,
    /// Nemesis fault marker → next commit progress (µs): the view-change
    /// recovery cost after a leader kill.
    pub recovery_latency_us: Arc<Histogram>,
    /// First doubt about a view (local timeout or a peer's wish for a
    /// later one) → the next view entered (µs).
    pub view_change_latency_us: Arc<Histogram>,

    /// Views the log entered after its first.
    pub view_changes: Counter,
    /// Leader equivocations detected (Algorithm 1 lines 23–25), summed
    /// over applied slots.
    pub equivocations_detected: Counter,
    /// Prepare/Commit votes dropped unverified because the quorum rule
    /// they fed had already fired in their slot, summed over applied slots
    /// (votes for a slot already applied are in `drops_stale`). Every
    /// other vote received was verified.
    pub votes_late: Counter,
    /// Requests answered from the reply cache without re-execution.
    pub reply_cache_hits: Counter,
    /// Slot messages dropped beyond the future-slot horizon.
    pub drops_future_horizon: Counter,
    /// Slot messages dropped by the per-slot flood cap.
    pub drops_slot_flood: Counter,
    /// Messages for already-closed slots dropped as stale.
    pub drops_stale: Counter,
    /// Invalid or unverifiable checkpoint traffic dropped.
    pub drops_invalid_checkpoint: Counter,
    /// Client submissions dropped because the pending queue was full.
    pub drops_pending_overflow: Counter,
    /// Frames abandoned mid-read after a peer stalled or died.
    pub frames_torn: Counter,
    /// Frames rejected by the wire codec.
    pub frames_malformed: Counter,
    /// Frames that could not be written to a peer socket.
    pub frames_unsendable: Counter,
    /// Client requests shed under overload.
    pub shed_requests: Counter,
    /// Client contacts answered with a leader redirect.
    pub redirects_served: Counter,
    /// Checkpoints taken locally.
    pub checkpoints_taken: Counter,
    /// Bytes of snapshot state received via state transfer.
    pub state_transfer_bytes: Counter,
    /// Log entries truncated below stable checkpoints.
    pub truncated_entries: Counter,
    /// Stable-checkpoint snapshots sent to laggards (requested or pushed).
    pub snapshots_served: Counter,
    /// Times this replica caught up by restoring a transferred snapshot.
    pub state_transfers: Counter,
    /// Client-side: requests retried after a transport error.
    pub client_retries: Counter,
    /// Client-side: redirects followed to reach the leader.
    pub client_redirects: Counter,
    /// Client-side: overload backoffs taken.
    pub client_overloads: Counter,

    /// Current depth of the pending client-request queue.
    pub pending_depth: Gauge,
    /// Highest slot whose checkpoint this replica saw become stable
    /// (0 = none yet).
    pub stable_slot: Gauge,
    /// The view the log is in.
    pub view: Gauge,
    /// Slots applied in order (a slot may hold many entries, or none).
    pub applied_slots: Gauge,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("label", &self.label())
            .field("journal_len", &self.journal.len())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// Creates a bundle labeled `label` (e.g. `replica-0`) with the
    /// default journal capacity.
    pub fn new(label: impl Into<String>) -> Self {
        Self::with_journal_capacity(label, DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates a bundle retaining at most `capacity` journal events.
    pub fn with_journal_capacity(label: impl Into<String>, capacity: usize) -> Self {
        let registry = Arc::new(Registry::new(label));
        Self {
            commit_latency_us: registry.histogram("commit_latency_us"),
            decide_latency_us: registry.histogram("decide_latency_us"),
            apply_latency_us: registry.histogram("apply_latency_us"),
            batch_size: registry.histogram("batch_size"),
            checkpoint_interval_us: registry.histogram("checkpoint_interval_us"),
            state_transfer_us: registry.histogram("state_transfer_us"),
            request_rtt_us: registry.histogram("request_rtt_us"),
            recovery_latency_us: registry.histogram("recovery_latency_us"),
            view_change_latency_us: registry.histogram("view_change_latency_us"),
            view_changes: registry.counter("view_changes"),
            equivocations_detected: registry.counter("equivocations_detected"),
            votes_late: registry.counter("votes_late"),
            reply_cache_hits: registry.counter("reply_cache_hits"),
            drops_future_horizon: registry.counter("drops_future_horizon"),
            drops_slot_flood: registry.counter("drops_slot_flood"),
            drops_stale: registry.counter("drops_stale"),
            drops_invalid_checkpoint: registry.counter("drops_invalid_checkpoint"),
            drops_pending_overflow: registry.counter("drops_pending_overflow"),
            frames_torn: registry.counter("frames_torn"),
            frames_malformed: registry.counter("frames_malformed"),
            frames_unsendable: registry.counter("frames_unsendable"),
            shed_requests: registry.counter("shed_requests"),
            redirects_served: registry.counter("redirects_served"),
            checkpoints_taken: registry.counter("checkpoints_taken"),
            state_transfer_bytes: registry.counter("state_transfer_bytes"),
            truncated_entries: registry.counter("truncated_entries"),
            snapshots_served: registry.counter("snapshots_served"),
            state_transfers: registry.counter("state_transfers"),
            client_retries: registry.counter("client_retries"),
            client_redirects: registry.counter("client_redirects"),
            client_overloads: registry.counter("client_overloads"),
            pending_depth: registry.gauge("pending_depth"),
            stable_slot: registry.gauge("stable_slot"),
            view: registry.gauge("view"),
            applied_slots: registry.gauge("applied_slots"),
            registry,
            journal: Journal::new(capacity),
            epoch: Instant::now(),
            fault_marker: AtomicU64::new(0),
            view_doubt_marker: AtomicU64::new(0),
        }
    }

    /// The label this bundle reports under.
    pub fn label(&self) -> &str {
        self.registry.label()
    }

    /// Microseconds elapsed since this bundle was created — the clock all
    /// journal timestamps and fault markers share.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// The underlying registry, for ad-hoc (e.g. per-frame-kind labeled)
    /// metrics beyond the pre-registered set.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Pre-fetches the labeled counter for frame bytes received of `kind`.
    pub fn frame_bytes_in(&self, kind: &str) -> Counter {
        self.registry
            .counter_labeled("frame_bytes_in", &[("kind", kind)])
    }

    /// Pre-fetches the labeled counter for frame bytes sent of `kind`.
    pub fn frame_bytes_out(&self, kind: &str) -> Counter {
        self.registry
            .counter_labeled("frame_bytes_out", &[("kind", kind)])
    }

    /// The flight-recorder journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Appends an event to the journal, stamped with [`Obs::now_micros`].
    pub fn trace(&self, kind: TraceKind) {
        self.journal.push(self.now_micros(), kind);
    }

    /// Captures a point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Injects a nemesis fault marker: journals `FaultStart` and arms the
    /// recovery-latency clock. The next [`Obs::note_progress`] records the
    /// elapsed time into `recovery_latency_us`.
    pub fn mark_fault(&self, fault: &str) {
        let now = self.now_micros();
        self.journal.push(
            now,
            TraceKind::FaultStart {
                fault: fault.to_string(),
            },
        );
        self.fault_marker
            .store(now.saturating_add(1), Ordering::Relaxed);
    }

    /// Journals that a nemesis fault was lifted. Does *not* disarm the
    /// recovery clock: recovery means commit progress, not fault removal.
    pub fn mark_fault_lifted(&self, fault: &str) {
        self.trace(TraceKind::FaultStop {
            fault: fault.to_string(),
        });
    }

    /// Notes commit progress (a slot applied). If a fault marker is
    /// armed, records the fault→progress latency and disarms it. Progress
    /// also refutes any standing doubt about the view.
    pub fn note_progress(&self) {
        let marker = self.fault_marker.swap(0, Ordering::Relaxed);
        if marker != 0 {
            let elapsed = self.now_micros().saturating_sub(marker - 1);
            self.recovery_latency_us.record(elapsed);
        }
        self.view_doubt_marker.store(0, Ordering::Relaxed);
    }

    /// Notes the first sign that the current view may not last — a peer's
    /// wish for a later one — starting the view-change clock unless it is
    /// already running.
    pub fn note_view_doubt(&self) {
        let now = self.now_micros().saturating_add(1);
        let _ =
            self.view_doubt_marker
                .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The view timer expired in the current view: journals it and starts
    /// the view-change clock.
    pub fn note_view_timeout(&self) {
        let view = self.view.get();
        self.trace(TraceKind::ViewTimeout { view });
        self.note_view_doubt();
    }

    /// The log entered `to_view`: journals the change, counts it, moves
    /// the `view` gauge and, if the clock was running, records first doubt
    /// → entry into `view_change_latency_us`.
    pub fn note_view_entered(&self, to_view: u64) {
        let from_view = self.view.get();
        self.trace(TraceKind::ViewChange { from_view, to_view });
        self.view_changes.inc();
        self.view.set(to_view);
        let marker = self.view_doubt_marker.swap(0, Ordering::Relaxed);
        if marker != 0 {
            let elapsed = self.now_micros().saturating_sub(marker - 1);
            self.view_change_latency_us.record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_marker_drives_recovery_histogram() {
        let obs = Obs::new("replica-0");
        obs.note_progress();
        assert_eq!(obs.recovery_latency_us.count(), 0);
        obs.mark_fault("kill leader 0");
        obs.note_progress();
        obs.note_progress();
        assert_eq!(obs.recovery_latency_us.count(), 1);
        let journal = obs.journal().snapshot();
        assert!(matches!(journal[0].kind, TraceKind::FaultStart { .. }));
    }

    #[test]
    fn view_change_clock_runs_from_first_doubt_and_progress_refutes_it() {
        let obs = Obs::new("replica-0");
        // A lone doubt that progress refutes leaves nothing behind.
        obs.view.set(1);
        obs.note_view_doubt();
        obs.note_progress();
        obs.note_view_entered(2);
        assert_eq!(obs.view_change_latency_us.count(), 0);
        assert_eq!((obs.view_changes.get(), obs.view.get()), (1, 2));

        obs.note_view_timeout();
        obs.note_view_doubt(); // the clock keeps its first start
        obs.note_view_entered(3);
        assert_eq!(obs.view_change_latency_us.count(), 1);
        let kinds: Vec<_> = obs
            .journal()
            .snapshot()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                TraceKind::ViewChange {
                    from_view: 1,
                    to_view: 2
                },
                TraceKind::ViewTimeout { view: 2 },
                TraceKind::ViewChange {
                    from_view: 2,
                    to_view: 3
                },
            ]
        );
    }

    #[test]
    fn every_metric_is_pre_registered() {
        let obs = Obs::new("replica-3");
        let snap = obs.snapshot();
        assert_eq!(snap.label(), "replica-3");
        assert!(snap.histogram("recovery_latency_us").is_some());
        assert!(snap.histogram("commit_latency_us").is_some());
        assert_eq!(snap.counter("reply_cache_hits"), 0);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE probft_recovery_latency_us summary"));
        assert!(text.contains("probft_reply_cache_hits{replica=\"replica-3\"} 0"));
    }
}
