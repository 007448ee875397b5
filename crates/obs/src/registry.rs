//! Named metrics registry with snapshot and exposition.
//!
//! A [`Registry`] hands out cheap cloneable handles ([`Counter`],
//! [`Gauge`], `Arc<Histogram>`) keyed by metric name plus optional extra
//! labels. Registration takes a short mutex; every hot-path update is a
//! single atomic on a pre-fetched handle. [`Registry::snapshot`] copies
//! the current values into a [`MetricsSnapshot`] without pausing writers,
//! and snapshots render to hand-rolled JSON or Prometheus text exposition
//! (no serde in the workspace).

use crate::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
#[expect(
    clippy::disallowed_types,
    reason = "registration only: a hot-path update is an atomic on a handle fetched once, and no guard outlives a map lookup"
)]
use std::sync::Mutex;

/// A metric identity: name plus sorted extra label pairs. The registry
/// label (`replica="..."`) is added at exposition time, not stored here.
type MetricKey = (String, Vec<(String, String)>);

/// A monotonically increasing counter handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move both ways (queue depths).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements by one, saturating at zero.
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named counters, gauges, and histograms for one entity
/// (a replica or a client), identified by its `label`.
#[expect(
    clippy::disallowed_types,
    reason = "registration only: a hot-path update is an atomic on a handle fetched once, and no guard outlives a map lookup"
)]
pub struct Registry {
    label: String,
    counters: Mutex<BTreeMap<MetricKey, Counter>>,
    gauges: Mutex<BTreeMap<MetricKey, Gauge>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry labeled `label` (e.g. `replica-0`).
    #[expect(
        clippy::disallowed_types,
        reason = "registration only: a hot-path update is an atomic on a handle fetched once, and no guard outlives a map lookup"
    )]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The entity label this registry reports under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Returns (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Returns (registering on first use) the counter `name` with extra
    /// label pairs, e.g. `frame_bytes_out{kind="vote"}`.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = make_key(name, labels);
        let mut map = self.counters.lock().expect("counter registry poisoned");
        map.entry(key).or_default().clone()
    }

    /// Returns (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let key = make_key(name, &[]);
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        map.entry(key).or_default().clone()
    }

    /// Returns (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let key = make_key(name, &[]);
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        map.entry(key)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Copies every metric's current value into a [`MetricsSnapshot`]
    /// without pausing writers.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot {
            label: self.label.clone(),
            counters,
            gauges,
            histograms,
        }
    }
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut pairs: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    pairs.sort();
    (name.to_string(), pairs)
}

/// A point-in-time copy of a [`Registry`]: plain data, mergeable across
/// replicas, and renderable as JSON or Prometheus text.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    label: String,
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, u64>,
    histograms: BTreeMap<MetricKey, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The label the snapshot was taken under (`replica-0`, `cluster`, …).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Relabels the snapshot (used when aggregating to `cluster`).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.label = label.into();
    }

    /// Value of the unlabeled counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .get(&(name.to_string(), Vec::new()))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of counter `name` across all of its extra-label variants.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| *v)
            .fold(0, u64::saturating_add)
    }

    /// Value of the gauge `name` (0 if absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .get(&(name.to_string(), Vec::new()))
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(&(name.to_string(), Vec::new()))
    }

    /// Folds `other` into this snapshot: counters, gauges, and histogram
    /// buckets add element-wise (a gauge sum reads as cluster-wide total).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
    }

    /// Renders the snapshot as a single JSON object:
    /// `{"label":…,"counters":{…},"gauges":{…},"histograms":{…}}`.
    /// Histograms carry count/sum/min/max/mean and the four percentiles.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"label\":");
        push_json_string(&mut out, &self.label);
        out.push_str(",\"counters\":{");
        for (i, ((name, labels), v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &display_key(name, labels));
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, ((name, labels), v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &display_key(name, labels));
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, ((name, labels), h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, &display_key(name, labels));
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\
                 \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.p999(),
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format. Every
    /// metric is prefixed `probft_` and labeled with this snapshot's
    /// `replica` label; histograms render as summaries with `quantile`
    /// labels plus `_sum`/`_count` series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_line = String::new();
        for ((name, labels), v) in &self.counters {
            let metric = sanitize_metric_name(name);
            push_type_line(&mut out, &mut last_type_line, &metric, "counter");
            let _ = writeln!(
                out,
                "probft_{metric}{} {v}",
                label_block(&self.label, labels, &[])
            );
        }
        for ((name, labels), v) in &self.gauges {
            let metric = sanitize_metric_name(name);
            push_type_line(&mut out, &mut last_type_line, &metric, "gauge");
            let _ = writeln!(
                out,
                "probft_{metric}{} {v}",
                label_block(&self.label, labels, &[])
            );
        }
        for ((name, labels), h) in &self.histograms {
            let metric = sanitize_metric_name(name);
            push_type_line(&mut out, &mut last_type_line, &metric, "summary");
            for (q, v) in [
                ("0.5", h.p50()),
                ("0.9", h.p90()),
                ("0.99", h.p99()),
                ("0.999", h.p999()),
            ] {
                let _ = writeln!(
                    out,
                    "probft_{metric}{} {v}",
                    label_block(&self.label, labels, &[("quantile", q)])
                );
            }
            let _ = writeln!(
                out,
                "probft_{metric}_sum{} {}",
                label_block(&self.label, labels, &[]),
                h.sum()
            );
            let _ = writeln!(
                out,
                "probft_{metric}_count{} {}",
                label_block(&self.label, labels, &[]),
                h.count()
            );
        }
        out
    }
}

/// Display form of a metric key: `name` or `name{k="v",…}`.
fn display_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        let mut out = format!("{name}{{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// Emits a `# TYPE` comment once per metric name.
fn push_type_line(out: &mut String, last: &mut String, metric: &str, kind: &str) {
    if last != metric {
        let _ = writeln!(out, "# TYPE probft_{metric} {kind}");
        *last = metric.to_string();
    }
}

/// Builds the `{replica="…",…}` label block for one exposition line.
fn label_block(replica: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    let mut out = String::from("{replica=\"");
    out.push_str(&escape_label_value(replica));
    out.push('"');
    for (k, v) in labels {
        let _ = write!(
            out,
            ",{}=\"{}\"",
            sanitize_metric_name(k),
            escape_label_value(v)
        );
    }
    for (k, v) in extra {
        let _ = write!(out, ",{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Restricts a metric or label name to `[a-zA-Z0-9_]`.
fn sanitize_metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends a JSON string literal (quotes + escapes) to `out`.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new("replica-0");
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("hits"), 3);
    }

    #[test]
    fn labeled_counters_are_distinct_and_total() {
        let r = Registry::new("replica-0");
        r.counter_labeled("bytes", &[("kind", "vote")]).add(5);
        r.counter_labeled("bytes", &[("kind", "peer")]).add(7);
        let s = r.snapshot();
        assert_eq!(s.counter("bytes"), 0);
        assert_eq!(s.counter_total("bytes"), 12);
    }

    #[test]
    fn gauge_saturates_at_zero() {
        let r = Registry::new("x");
        let g = r.gauge("depth");
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.set(10);
        assert_eq!(r.snapshot().gauge("depth"), 10);
    }
}
