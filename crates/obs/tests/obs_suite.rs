//! Integration tests for probft-obs: the histogram against a sorted-vec
//! oracle over randomized inputs, exact concurrent counter sums, the
//! flight-recorder ring under wrap and snapshot-while-writing, and golden
//! JSON / Prometheus expositions.

use probft_obs::{Histogram, Journal, Obs, Registry, TraceEvent, TraceKind};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// The exact quantile an oracle computes over a sorted sample vec,
/// mirroring `HistogramSnapshot::quantile`'s rank rule (`ceil(q·count)`,
/// clamped to `[1, count]`).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let count = sorted.len() as u64;
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    sorted[(target - 1) as usize]
}

proptest! {
    /// Histogram quantiles track a sorted-vec oracle within the bucketing
    /// scheme's quantization bound: a bucket spans at most 1/8 of its
    /// values' magnitude (16 linear sub-buckets per power-of-two octave),
    /// so every quantile must land within `exact/8 + 1` of the oracle.
    #[test]
    fn histogram_quantiles_track_sorted_vec_oracle(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..512)
    ) {
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(snap.sum(), samples.iter().sum::<u64>());
        prop_assert_eq!(snap.min(), sorted[0]);
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());

        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = oracle_quantile(&sorted, q);
            let approx = snap.quantile(q);
            let bound = exact / 8 + 1;
            prop_assert!(
                approx.abs_diff(exact) <= bound,
                "q={}: approx {} vs exact {} (bound {})",
                q, approx, exact, bound
            );
        }
    }

    /// Merging two histogram snapshots is equivalent to recording both
    /// sample sets into one histogram.
    #[test]
    fn histogram_merge_equals_combined_recording(
        a in proptest::collection::vec(0u64..1_000_000, 0..128),
        b in proptest::collection::vec(0u64..1_000_000, 0..128),
    ) {
        let (ha, hb, hboth) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &s in &a {
            ha.record(s);
            hboth.record(s);
        }
        for &s in &b {
            hb.record(s);
            hboth.record(s);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let both = hboth.snapshot();
        prop_assert_eq!(merged.count(), both.count());
        prop_assert_eq!(merged.sum(), both.sum());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(merged.quantile(q), both.quantile(q));
        }
    }
}

/// Counter increments from many threads sum exactly — no lost updates.
#[test]
fn concurrent_counter_increments_sum_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Arc::new(Registry::new("replica-0"));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let c = registry.counter("hits");
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("counter thread");
    }
    assert_eq!(
        registry.snapshot().counter("hits"),
        THREADS as u64 * PER_THREAD
    );
}

/// Histogram records from many threads lose no samples and keep the sum
/// exact (count/sum are dedicated atomics, not bucket-derived).
#[test]
fn concurrent_histogram_records_lose_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("histogram thread");
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    assert_eq!(snap.sum(), (0..THREADS * PER_THREAD).sum::<u64>());
    assert_eq!(snap.min(), 0);
    assert_eq!(snap.max(), THREADS * PER_THREAD - 1);
}

/// The flight-recorder ring evicts oldest-first at the push site and a
/// snapshot holds exactly the trailing window.
#[test]
fn journal_wraps_keeping_newest() {
    let journal = Journal::new(8);
    for slot in 0..20u64 {
        journal.push(1_000 + slot, TraceKind::SlotDecided { slot, view: 1 });
    }
    assert_eq!(journal.len(), 8);
    let events = journal.snapshot();
    let slots: Vec<u64> = events
        .iter()
        .map(|e| match e.kind {
            TraceKind::SlotDecided { slot, .. } => slot,
            _ => panic!("unexpected event kind"),
        })
        .collect();
    assert_eq!(slots, (12..20).collect::<Vec<u64>>());
}

/// Snapshotting a journal while another thread pushes never panics,
/// never exceeds capacity, and always yields internally ordered events.
#[test]
fn journal_snapshot_under_concurrent_writes() {
    let journal = Arc::new(Journal::new(64));
    let writer = {
        let journal = Arc::clone(&journal);
        thread::spawn(move || {
            for slot in 0..50_000u64 {
                journal.push(slot, TraceKind::SlotApplied { slot, entries: 1 });
            }
        })
    };
    for _ in 0..200 {
        let events = journal.snapshot();
        assert!(events.len() <= 64);
        assert!(
            events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros),
            "snapshot must be time-ordered"
        );
    }
    writer.join().expect("writer thread");
    assert_eq!(journal.len(), 64);
}

/// Golden JSON exposition over a registry with one of each metric kind.
#[test]
fn json_exposition_golden() {
    let registry = Registry::new("replica-3");
    registry.counter("reply_cache_hits").add(7);
    registry
        .counter_labeled("frame_bytes_in", &[("kind", "peer")])
        .add(2048);
    registry.gauge("pending_depth").set(5);
    let h = registry.histogram("commit_latency_us");
    h.record(100);
    h.record(200);

    assert_eq!(
        registry.snapshot().to_json(),
        "{\"label\":\"replica-3\",\
         \"counters\":{\"frame_bytes_in{kind=\\\"peer\\\"}\":2048,\"reply_cache_hits\":7},\
         \"gauges\":{\"pending_depth\":5},\
         \"histograms\":{\"commit_latency_us\":{\"count\":2,\"sum\":300,\"min\":100,\
         \"max\":200,\"mean\":150.000,\"p50\":100,\"p90\":200,\"p99\":200,\"p999\":200}}}"
    );
}

/// Golden Prometheus text exposition: `# TYPE` once per metric name,
/// `probft_` prefix, replica label on every line, summaries with quantile
/// labels plus `_sum`/`_count`.
#[test]
fn prometheus_exposition_golden() {
    let registry = Registry::new("replica-3");
    registry.counter("reply_cache_hits").add(7);
    registry
        .counter_labeled("frame_bytes_in", &[("kind", "peer")])
        .add(2048);
    registry.gauge("pending_depth").set(5);
    let h = registry.histogram("commit_latency_us");
    h.record(100);
    h.record(200);

    assert_eq!(
        registry.snapshot().to_prometheus(),
        "# TYPE probft_frame_bytes_in counter\n\
         probft_frame_bytes_in{replica=\"replica-3\",kind=\"peer\"} 2048\n\
         # TYPE probft_reply_cache_hits counter\n\
         probft_reply_cache_hits{replica=\"replica-3\"} 7\n\
         # TYPE probft_pending_depth gauge\n\
         probft_pending_depth{replica=\"replica-3\"} 5\n\
         # TYPE probft_commit_latency_us summary\n\
         probft_commit_latency_us{replica=\"replica-3\",quantile=\"0.5\"} 100\n\
         probft_commit_latency_us{replica=\"replica-3\",quantile=\"0.9\"} 200\n\
         probft_commit_latency_us{replica=\"replica-3\",quantile=\"0.99\"} 200\n\
         probft_commit_latency_us{replica=\"replica-3\",quantile=\"0.999\"} 200\n\
         probft_commit_latency_us_sum{replica=\"replica-3\"} 300\n\
         probft_commit_latency_us_count{replica=\"replica-3\"} 2\n"
    );
}

/// Every sample line of a full `Obs` bundle's exposition is structurally
/// valid Prometheus text: `probft_<name>{<labels>} <integer>`, with
/// exactly one `# TYPE` line per metric name.
#[test]
fn prometheus_exposition_lines_parse() {
    let obs = Obs::new("replica-0");
    obs.commit_latency_us.record(1_500);
    obs.reply_cache_hits.inc();
    obs.frame_bytes_in("peer").add(640);
    obs.pending_depth.set(3);

    let text = obs.snapshot().to_prometheus();
    let mut seen_types = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("type line names a metric");
            let kind = parts.next().expect("type line carries a kind");
            assert!(name.starts_with("probft_"), "unprefixed metric: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown kind: {line}"
            );
            assert!(
                seen_types.insert(name.to_string()),
                "duplicate TYPE: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(series.starts_with("probft_"), "unprefixed series: {line}");
        assert!(
            series.contains("{replica=\"replica-0\""),
            "missing replica label: {line}"
        );
        assert!(series.ends_with('}'), "unterminated label block: {line}");
        value.parse::<f64>().expect("sample value is numeric");
        samples += 1;
    }
    assert!(samples > 0 && !seen_types.is_empty());
}

/// The `Obs` fault marker drives the recovery histogram: arming then
/// making progress records exactly one sample, fault → progress; repeated
/// progress without a new fault records nothing further.
#[test]
fn fault_marker_records_one_recovery_sample() {
    let obs = Obs::new("replica-1");
    obs.note_progress(40);
    assert_eq!(
        obs.recovery_latency_us.count(),
        0,
        "disarmed clock is silent"
    );
    obs.mark_fault(100, "kill-leader");
    obs.note_progress(350);
    obs.note_progress(2_000);
    let recovery = obs.recovery_latency_us.snapshot();
    assert_eq!((recovery.count(), recovery.sum()), (1, 250));
    let events = obs.journal().snapshot();
    assert_eq!(
        events,
        [TraceEvent {
            at_micros: 100,
            kind: TraceKind::FaultStart {
                fault: "kill-leader".into()
            },
        }],
        "the fault is journaled at its time"
    );
}
