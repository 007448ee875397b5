//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions. Kept in memory while the
//! workload runs and written out once, as `spans.json`, when it ends.

use probft_smr::RequestId;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed interval. `parent` names the span that caused it; spans of
/// one request share its request id.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was being done, e.g. `client.submit`.
    pub name: &'static str,
    /// Unique within one run.
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// The request this span belongs to, if any.
    pub request: Option<RequestId>,
    /// Offset from the run's epoch at which it began.
    pub start: Duration,
    /// Offset from the run's epoch at which it ended.
    pub end: Duration,
}

/// One thread's span buffer. With tracing off every call is a no-op, so
/// the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// A buffer for the thread with index `lane`; span ids are unique
    /// across lanes.
    pub fn new(on: bool, lane: u64) -> Self {
        Spans {
            on,
            next_id: lane << 40,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves the id of a span that will be recorded later (a root
    /// whose end is not known yet), so children can name it.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a span under a fresh id and returns that id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<RequestId>,
        start: Duration,
        end: Duration,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Records a span under an id from [`reserve`](Self::reserve).
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<RequestId>,
        start: Duration,
        end: Duration,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                parent,
                request,
                start,
                end,
            });
        }
    }

    /// The spans recorded so far.
    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Renders spans as a JSON array, one object per line, times in µs.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = s.request.map_or("null".to_string(), |r| {
            format!("\"{}-{}\"", r.client, r.seq)
        });
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"request\":{request},\
             \"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name,
            s.id,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Every child span whose interval is not inside its parent's, as
/// `(child id, parent id)`; also children naming a parent that was never
/// recorded. Empty for a well-formed trace.
pub fn misnested(spans: &[Span]) -> Vec<(u64, u64)> {
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter_map(|child| {
            let parent_id = child.parent?;
            let inside = by_id
                .get(&parent_id)
                .is_some_and(|p| p.start <= child.start && child.end <= p.end);
            (!inside).then_some((child.id, parent_id))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn off_records_nothing_and_on_nests() {
        let mut off = Spans::new(false, 0);
        off.record("bench.request", None, None, US, 2 * US);
        assert!(off.into_vec().is_empty());

        let mut on = Spans::new(true, 3);
        let request = Some(RequestId { client: 1, seq: 2 });
        let root = on.reserve();
        let child = on.record("client.submit", Some(root), request, 2 * US, 8 * US);
        on.record_as(root, "bench.request", None, request, US, 9 * US);
        assert_ne!(root, child);
        let spans = on.into_vec();
        assert!(misnested(&spans).is_empty());
        let json = to_json(&spans);
        assert!(json.contains("\"name\":\"client.submit\""));
        assert!(json.contains("\"request\":\"1-2\""));
        assert!(json.contains(&format!("\"parent\":{root}")));
    }

    #[test]
    fn a_child_outside_its_root_is_reported() {
        let mut s = Spans::new(true, 0);
        let root = s.record("bench.request", None, None, 5 * US, 9 * US);
        let early = s.record("gen.encode", Some(root), None, 4 * US, 6 * US);
        let orphan = s.record("gen.encode", Some(999), None, 5 * US, 6 * US);
        assert_eq!(misnested(&s.into_vec()), vec![(early, root), (orphan, 999)]);
    }
}
