//! Load-generation bookkeeping that needs no socket: the per-request
//! sample, the paced schedule, and the open-loop ledger with its pool of
//! logical clients. Kept free of I/O and of the wall clock so the
//! due-time accounting can be tested with a fake clock.

use crate::stats;
use probft_smr::RequestId;
use std::time::Duration;

/// One request as the generator saw it. All times are offsets from the
/// generator's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// When the schedule wanted it sent (equals `sent` in a closed loop).
    pub due: Duration,
    /// When the generator was ready to send it: past its due time by the
    /// sleep overshoot and by however long earlier writes blocked.
    pub sent: Duration,
    /// How much of `sent − due` is not the generator's doing: the part of
    /// it during which every logical client was busy, so that nothing
    /// could have been sent however punctual the generator was.
    pub excused: Duration,
    /// When its typed reply arrived; `None` while unanswered.
    pub done: Option<Duration>,
    /// A consensus-bypassing `Local` read (the rest are ordered writes).
    pub read: bool,
}

impl Sample {
    /// Due time → reply, the latency every workload reports: in an open
    /// loop it charges a request for the time it waited behind a stall.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|done| done.saturating_sub(self.due))
    }

    /// Due time → the generator being ready to send it (sleep overshoot
    /// and write back-pressure). Time during which every logical client
    /// was busy is the system's doing and is left out: the request is
    /// charged for it, the generator is not blamed for it.
    pub fn lateness(&self) -> Duration {
        self.sent
            .saturating_sub(self.due)
            .saturating_sub(self.excused)
    }
}

/// A fixed-rate schedule: request `i` is due at `start + i × interval`.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    start: Duration,
    interval: Duration,
}

impl Pacer {
    /// A schedule of `rate` requests per second beginning at `start`.
    pub fn new(start: Duration, rate: u32) -> Self {
        Pacer {
            start,
            interval: Duration::from_secs(1) / rate.max(1),
        }
    }

    /// When request `index` is due.
    pub fn due(&self, index: u64) -> Duration {
        let steps = u32::try_from(index).unwrap_or(u32::MAX);
        self.start
            .saturating_add(self.interval.saturating_mul(steps))
    }

    /// How many requests are due strictly before `t`.
    pub fn due_before(&self, t: Duration) -> u64 {
        match t.checked_sub(self.start) {
            None => 0,
            Some(d) if d.is_zero() => 0,
            Some(d) => ((d.as_nanos() - 1) / self.interval.as_nanos().max(1)) as u64 + 1,
        }
    }
}

/// A fixed pool of logical clients multiplexed over one connection. Each
/// has at most one request in flight and numbers its requests 1, 2, 3, …
/// — the contract the replicas' per-client dedup watermark relies on, and
/// the reason the pool is fixed: a fresh client id per request would grow
/// the reply cache that every checkpoint snapshot carries.
#[derive(Debug)]
pub struct ClientPool {
    first_id: u64,
    next_seq: Vec<u64>,
    /// The ledger index of each logical client's in-flight request.
    in_flight: Vec<Option<usize>>,
    free: Vec<usize>,
}

impl ClientPool {
    /// `size` logical clients with ids `first_id..first_id + size`.
    pub fn new(first_id: u64, size: usize) -> Self {
        ClientPool {
            first_id,
            next_seq: vec![1; size],
            in_flight: vec![None; size],
            // Popped from the back: hand out client 0 first.
            free: (0..size).rev().collect(),
        }
    }

    /// The pool slot of a client id, if it belongs to this pool.
    pub fn slot_of(&self, client: u64) -> Option<usize> {
        let slot = usize::try_from(client.checked_sub(self.first_id)?).ok()?;
        (slot < self.next_seq.len()).then_some(slot)
    }

    /// Takes a free logical client for ledger entry `index`, returning
    /// its pool slot and the request id to send. `None` when every
    /// client has a request in flight.
    pub fn acquire(&mut self, index: usize) -> Option<(usize, RequestId)> {
        let slot = self.free.pop()?;
        let seq = *self.next_seq.get(slot)?;
        *self.next_seq.get_mut(slot)? = seq + 1;
        *self.in_flight.get_mut(slot)? = Some(index);
        let request = RequestId {
            client: self.first_id + slot as u64,
            seq,
        };
        Some((slot, request))
    }

    /// Frees the client that `request` belongs to, returning the ledger
    /// index it was serving. `None` for a reply that matches no request in
    /// flight (a stale or foreign frame).
    pub fn release(&mut self, request: RequestId) -> Option<usize> {
        let slot = self.slot_of(request.client)?;
        // The reply must be for the request in flight, i.e. the last
        // sequence number handed out.
        if self.next_seq.get(slot).copied()? != request.seq + 1 {
            return None;
        }
        let index = self.in_flight.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(index)
    }

    /// How many logical clients have a request in flight.
    pub fn busy(&self) -> usize {
        self.in_flight.len() - self.free.len()
    }
}

/// The open-loop generator's state: the schedule, the pool, and one
/// [`Sample`] per request sent. The sender and the reader thread share it
/// behind a mutex; every method takes the current time, so tests drive it
/// with a fake clock.
#[derive(Debug)]
pub struct OpenLoop {
    pacer: Pacer,
    /// Requests due at or after this offset are never sent.
    stop: Duration,
    pool: ClientPool,
    samples: Vec<Sample>,
    /// When the generator first found the next request due.
    ready_since: Option<Duration>,
    /// When a request last got a logical client it had had to wait for.
    unblocked_at: Duration,
    inflight_max: usize,
}

impl OpenLoop {
    /// A generator sending `rate` requests per second from `start` until
    /// `stop`, over `clients` logical clients with ids from `first_id`.
    pub fn new(start: Duration, stop: Duration, rate: u32, first_id: u64, clients: usize) -> Self {
        OpenLoop {
            pacer: Pacer::new(start, rate),
            stop,
            pool: ClientPool::new(first_id, clients),
            samples: Vec::new(),
            ready_since: None,
            unblocked_at: Duration::ZERO,
            inflight_max: 0,
        }
    }

    /// When the next unsent request is due; `None` once the schedule has
    /// run out.
    pub fn next_due(&self) -> Option<Duration> {
        let due = self.pacer.due(self.samples.len() as u64);
        (due < self.stop).then_some(due)
    }

    /// Starts the next request if it is due and a logical client is free.
    /// A due request with no free client waits, and is charged for the
    /// wait because its latency runs from its due time.
    pub fn try_send(&mut self, now: Duration) -> Option<(usize, RequestId)> {
        let due = self.next_due().filter(|due| *due <= now)?;
        let ready = *self.ready_since.get_or_insert(now);
        let index = self.samples.len();
        let (slot, request) = self.pool.acquire(index)?;
        self.ready_since = None;
        // Until `unblocked_at` the pool was exhausted: a request due
        // before then could not have been reached any earlier.
        let excused = self.unblocked_at.saturating_sub(due);
        if ready < now {
            self.unblocked_at = now;
        }
        self.samples.push(Sample {
            due,
            sent: ready,
            excused,
            done: None,
            read: false,
        });
        self.inflight_max = self.inflight_max.max(self.pool.busy());
        Some((slot, request))
    }

    /// Records the reply to `request`, freeing its logical client.
    /// Returns the ledger index, or `None` for a stale reply.
    pub fn complete(&mut self, request: RequestId, now: Duration) -> Option<usize> {
        let index = self.pool.release(request)?;
        self.samples.get_mut(index)?.done = Some(now);
        Some(index)
    }

    /// Requests in flight right now.
    pub fn busy(&self) -> usize {
        self.pool.busy()
    }

    /// The most requests ever in flight at once.
    pub fn inflight_max(&self) -> usize {
        self.inflight_max
    }

    /// Requests the schedule made due before `t` (sent or not).
    pub fn due_before(&self, t: Duration) -> u64 {
        self.pacer.due_before(t.min(self.stop))
    }

    /// Every request sent so far, in due order.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

/// The measured window, split into equal sub-windows whose values are
/// printed so the spread inside one run is visible.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Offset at which measurement starts (end of warm-up).
    pub start: Duration,
    /// Length of the measured window.
    pub len: Duration,
}

/// Sub-windows per measured window.
pub const SUB_WINDOWS: usize = 5;

impl Window {
    /// Offset at which measurement ends.
    pub fn end(&self) -> Duration {
        self.start + self.len
    }

    /// Whether `t` lies inside the window.
    pub fn contains(&self, t: Duration) -> bool {
        t >= self.start && t < self.end()
    }

    /// The boundaries of the sub-windows: `SUB_WINDOWS + 1` offsets.
    pub fn edges(&self) -> Vec<Duration> {
        (0..=SUB_WINDOWS as u32)
            .map(|i| self.start + self.len * i / SUB_WINDOWS as u32)
            .collect()
    }

    /// Which sub-window `t` falls into, if it lies in the window.
    pub fn sub_of(&self, t: Duration) -> Option<usize> {
        if !self.contains(t) {
            return None;
        }
        let share = (t - self.start).as_secs_f64() / self.len.as_secs_f64();
        Some(((share * SUB_WINDOWS as f64) as usize).min(SUB_WINDOWS - 1))
    }
}

/// A statistic taken once per sub-window plus once over the whole
/// window. What is reported is the median of the sub-window values — one
/// stall then moves one sub-window, not the result — and the spread
/// between them says how far to trust it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Windowed {
    /// Over the whole window.
    pub whole: f64,
    /// One value per sub-window that had samples.
    pub sub: Vec<f64>,
}

/// Completions per second, counted by completion time.
pub fn throughput(samples: &[Sample], window: Window) -> Windowed {
    let mut counts = [0u64; SUB_WINDOWS];
    for sub in samples.iter().filter_map(|s| window.sub_of(s.done?)) {
        if let Some(c) = counts.get_mut(sub) {
            *c += 1;
        }
    }
    let sub_len = window.len.as_secs_f64() / SUB_WINDOWS as f64;
    Windowed {
        whole: counts.iter().sum::<u64>() as f64 / window.len.as_secs_f64(),
        sub: counts.iter().map(|c| *c as f64 / sub_len).collect(),
    }
}

/// How many of the requests that `keep` selects were answered inside the
/// window.
pub fn completed_in(samples: &[Sample], window: Window, keep: impl Fn(&Sample) -> bool) -> u64 {
    samples
        .iter()
        .filter(|s| keep(s) && s.done.is_some_and(|d| window.contains(d)))
        .count() as u64
}

/// How late the generator itself ran, at the 99th percentile over the
/// requests due in the window, in µs.
pub fn lateness_p99_us(samples: &[Sample], window: Window) -> f64 {
    let late = samples
        .iter()
        .filter(|s| window.contains(s.due))
        .map(|s| s.lateness().as_secs_f64() * 1e6)
        .collect();
    stats::percentile_sorted(&stats::sorted(late), 0.99).unwrap_or(0.0)
}

/// Latencies (ms, ascending) of the answered requests due in the window
/// that `keep` selects, and the same per sub-window.
pub fn latencies_ms(
    samples: &[Sample],
    window: Window,
    keep: impl Fn(&Sample) -> bool,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut whole = Vec::new();
    let mut sub = vec![Vec::new(); SUB_WINDOWS];
    for s in samples.iter().filter(|s| keep(s)) {
        let (Some(i), Some(latency)) = (window.sub_of(s.due), s.latency()) else {
            continue;
        };
        let ms = latency.as_secs_f64() * 1e3;
        whole.push(ms);
        if let Some(bucket) = sub.get_mut(i) {
            bucket.push(ms);
        }
    }
    (
        stats::sorted(whole),
        sub.into_iter().map(stats::sorted).collect(),
    )
}

/// Quantile `q` of the whole window and of each sub-window.
pub fn quantile(whole: &[f64], sub: &[Vec<f64>], q: f64) -> Windowed {
    Windowed {
        whole: stats::percentile_sorted(whole, q).unwrap_or(0.0),
        sub: sub
            .iter()
            .filter_map(|s| stats::percentile_sorted(s, q))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn pacer_counts_what_is_due() {
        let p = Pacer::new(10 * MS, 1000);
        assert_eq!(p.due(0), 10 * MS);
        assert_eq!(p.due(5), 15 * MS);
        assert_eq!(p.due_before(10 * MS), 0);
        assert_eq!(p.due_before(10 * MS + Duration::from_nanos(1)), 1);
        assert_eq!(p.due_before(15 * MS), 5);
        assert_eq!(p.due_before(5 * MS), 0);
    }

    #[test]
    fn pool_has_one_request_in_flight_per_client_and_increasing_seq() {
        let mut pool = ClientPool::new(1000, 4);
        let mut last_seq = [0u64; 4];
        let mut in_flight: Vec<RequestId> = Vec::new();
        // A deterministic mix of acquires and releases.
        for step in 0..10_000usize {
            let release = (step * 2_654_435_761) % 7 < 3;
            if release && !in_flight.is_empty() {
                let request = in_flight.remove(step % in_flight.len());
                assert!(pool.release(request).is_some());
                // A second reply for the same request is stale.
                assert_eq!(pool.release(request), None);
            } else if let Some((slot, request)) = pool.acquire(step) {
                assert_eq!(request.client, 1000 + slot as u64);
                assert!(
                    in_flight.iter().all(|r| r.client != request.client),
                    "two requests in flight for client {}",
                    request.client
                );
                assert!(request.seq > last_seq[slot], "seq must strictly increase");
                last_seq[slot] = request.seq;
                in_flight.push(request);
            } else {
                assert_eq!(in_flight.len(), 4, "acquire fails only when all are busy");
            }
            assert_eq!(pool.busy(), in_flight.len());
        }
        assert_eq!(pool.release(RequestId { client: 7, seq: 1 }), None);
    }

    #[test]
    fn a_stalled_reply_charges_the_requests_queued_behind_it() {
        // One logical client, one request per millisecond from t = 0.
        let mut gen = OpenLoop::new(Duration::ZERO, 3 * MS, 1000, 1000, 1);
        let (_, first) = gen.try_send(Duration::ZERO).expect("request 0 is due");
        // Requests 1 and 2 come due while the only client is busy.
        assert_eq!(gen.try_send(MS), None);
        assert_eq!(gen.try_send(2 * MS), None);
        assert_eq!(gen.next_due(), Some(MS));
        // The reply stalls until t = 10 ms.
        assert_eq!(gen.complete(first, 10 * MS), Some(0));
        let (_, second) = gen.try_send(10 * MS).expect("request 1 was waiting");
        assert_eq!(gen.complete(second, 11 * MS), Some(1));
        let (_, third) = gen.try_send(11 * MS).expect("request 2 was waiting");
        assert_eq!(gen.complete(third, 12 * MS), Some(2));
        // The schedule has run out: nothing is due at or after `stop`.
        assert_eq!(gen.next_due(), None);
        assert_eq!(gen.try_send(20 * MS), None);
        assert_eq!(gen.inflight_max(), 1);
        assert_eq!(gen.due_before(10 * MS), 3);

        let samples = gen.into_samples();
        // Served in 1 ms each, but charged from when they were due.
        let latency: Vec<_> = samples.iter().filter_map(Sample::latency).collect();
        assert_eq!(latency, vec![10 * MS, 10 * MS, 10 * MS]);
        // How late the generator itself ran is reported per request. It
        // was ready for request 1 on time. It reached request 2 only at
        // 11 ms, but until 10 ms the one client was busy: 1 ms is its own.
        let lateness: Vec<_> = samples.iter().map(Sample::lateness).collect();
        assert_eq!(lateness, vec![Duration::ZERO, Duration::ZERO, MS]);
    }

    #[test]
    fn window_splits_into_equal_sub_windows() {
        let w = Window {
            start: Duration::from_secs(2),
            len: Duration::from_secs(10),
        };
        assert_eq!(w.edges().len(), SUB_WINDOWS + 1);
        assert_eq!(w.sub_of(Duration::from_secs(1)), None);
        assert_eq!(w.sub_of(Duration::from_secs(2)), Some(0));
        assert_eq!(w.sub_of(Duration::from_millis(3999)), Some(0));
        assert_eq!(w.sub_of(Duration::from_secs(4)), Some(1));
        assert_eq!(w.sub_of(Duration::from_millis(11_999)), Some(4));
        assert_eq!(w.sub_of(Duration::from_secs(12)), None);
    }

    #[test]
    fn throughput_counts_completions_and_latency_goes_by_due_time() {
        let w = Window {
            start: Duration::ZERO,
            len: Duration::from_secs(5),
        };
        let at = |due_ms: u64, done_ms: u64| Sample {
            due: MS * due_ms as u32,
            sent: MS * due_ms as u32,
            excused: Duration::ZERO,
            done: Some(MS * done_ms as u32),
            read: false,
        };
        // Two requests per sub-window; the last one answers after the end.
        let samples: Vec<Sample> = (0..10)
            .map(|i| at(i * 500, i * 500 + if i == 9 { 900 } else { 100 }))
            .collect();
        let t = throughput(&samples, w);
        assert_eq!(t.sub, vec![2.0, 2.0, 2.0, 2.0, 1.0]);
        let (whole, sub) = latencies_ms(&samples, w, |_| true);
        assert_eq!(whole.len(), 10, "due in the window, so counted");
        let p = quantile(&whole, &sub, 1.0);
        assert_eq!(p.whole, 900.0);
        assert_eq!(p.sub, vec![100.0, 100.0, 100.0, 100.0, 900.0]);
    }
}
