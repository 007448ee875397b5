//! Message accounting: counts and byte volumes by message kind.
//!
//! ProBFT's headline claim is about *message complexity* — `O(n√n)` versus
//! PBFT's `O(n²)` (paper §3.3, Figure 1b). The simulator therefore counts
//! every send centrally so experiments measure, rather than estimate, the
//! number of exchanged messages. Self-addressed messages (a VRF sample may
//! include the sender) are tallied separately so both counting conventions
//! can be reported.

use std::collections::BTreeMap;
use std::fmt;

/// A message type the simulator can meter.
pub trait Measurable {
    /// A short, static tag naming the message kind (e.g. `"Prepare"`).
    fn kind(&self) -> &'static str;

    /// The encoded size in bytes (used for communication-complexity
    /// measurements, §3.3).
    fn wire_size(&self) -> usize;
}

/// Per-kind counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Messages sent (network + self).
    pub sent: u64,
    /// Messages delivered to a live process.
    pub delivered: u64,
    /// Messages dropped by the delay model or addressed to crashed/halted
    /// processes.
    pub dropped: u64,
    /// Of `sent`, how many were self-addressed.
    pub self_addressed: u64,
    /// Total bytes across sent messages.
    pub bytes_sent: u64,
}

/// Aggregated message metrics for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct MessageMetrics {
    by_kind: BTreeMap<&'static str, KindStats>,
}

impl MessageMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: usize, to_self: bool) {
        let e = self.by_kind.entry(kind).or_default();
        e.sent += 1;
        e.bytes_sent += bytes as u64;
        if to_self {
            e.self_addressed += 1;
        }
    }

    pub(crate) fn record_delivery(&mut self, kind: &'static str) {
        self.by_kind.entry(kind).or_default().delivered += 1;
    }

    pub(crate) fn record_drop(&mut self, kind: &'static str) {
        self.by_kind.entry(kind).or_default().dropped += 1;
    }

    /// Stats for one message kind (zeroes if never seen).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// Iterates over `(kind, stats)` pairs in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &KindStats)> {
        self.by_kind.iter().map(|(k, v)| (*k, v))
    }

    /// Total messages sent across all kinds (including self-addressed).
    pub fn total_sent(&self) -> u64 {
        self.by_kind.values().map(|s| s.sent).sum()
    }

    /// Total messages sent excluding self-addressed ones.
    pub fn total_sent_excluding_self(&self) -> u64 {
        self.by_kind
            .values()
            .map(|s| s.sent - s.self_addressed)
            .sum()
    }

    /// Total bytes sent across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.by_kind.values().map(|s| s.bytes_sent).sum()
    }

    /// Total messages delivered.
    pub fn total_delivered(&self) -> u64 {
        self.by_kind.values().map(|s| s.delivered).sum()
    }
}

impl fmt::Display for MessageMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>10} {:>10} {:>9} {:>7} {:>12}",
            "kind", "sent", "delivered", "dropped", "self", "bytes"
        )?;
        for (kind, s) in self.iter() {
            writeln!(
                f,
                "{:<12} {:>10} {:>10} {:>9} {:>7} {:>12}",
                kind, s.sent, s.delivered, s.dropped, s.self_addressed, s.bytes_sent
            )?;
        }
        write!(
            f,
            "{:<12} {:>10} {:>10}",
            "TOTAL",
            self.total_sent(),
            self.total_delivered()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MessageMetrics::new();
        m.record_send("Prepare", 100, false);
        m.record_send("Prepare", 100, true);
        m.record_send("Commit", 80, false);
        m.record_delivery("Prepare");
        m.record_drop("Commit");

        let p = m.kind("Prepare");
        assert_eq!(p.sent, 2);
        assert_eq!(p.self_addressed, 1);
        assert_eq!(p.bytes_sent, 200);
        assert_eq!(p.delivered, 1);

        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.total_sent_excluding_self(), 2);
        assert_eq!(m.total_bytes(), 280);
        assert_eq!(m.kind("Commit").dropped, 1);
        assert_eq!(m.kind("Unknown"), KindStats::default());
    }

    #[test]
    fn display_renders_all_kinds() {
        let mut m = MessageMetrics::new();
        m.record_send("A", 1, false);
        m.record_send("B", 2, false);
        let s = m.to_string();
        assert!(s.contains('A') && s.contains('B') && s.contains("TOTAL"));
    }

    #[test]
    fn iter_is_sorted_by_kind() {
        let mut m = MessageMetrics::new();
        m.record_send("Zeta", 1, false);
        m.record_send("Alpha", 1, false);
        let kinds: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["Alpha", "Zeta"]);
    }
}
