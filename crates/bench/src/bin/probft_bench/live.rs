//! The four live workloads: real replica threads, loopback TCP, real
//! clients. No message delay is injected, so every latency here is
//! processor and kernel time.
//!
//! Clusters are built only through `LiveSmrBuilder`, with one fixed set of
//! knobs ([`boot`]); the load generator uses at most two threads and two
//! connections. A third thread only watches the replicas' `Obs` counters.

use crate::load::{self, OpenLoop, Pacer, Sample, Window, Windowed, SUB_WINDOWS};
use crate::process;
use crate::report::{Metric, Report};
use crate::stats;
use crate::trace::{Span, Spans};
use probft_core::config::ProbftConfig;
use probft_core::wire::Wire;
use probft_crypto::sha256::{Digest, Sha256};
use probft_obs::{Counter, MetricsSnapshot, Obs, TraceKind};
use probft_runtime::nemesis::{execute, verify_exactly_once, verify_invariants, Fault, FaultPlan};
use probft_runtime::{
    read_frame, write_frame, FrameError, LiveSmrBuilder, LiveSmrCluster, ReplicaReport, SmrClient,
    SmrFrame, SmrReply,
};
use probft_smr::{Command, Consistency, Entry, KvResponse, KvStore, OpKind, RequestId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How one run of a live workload is sized.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Seeds key generation, the fault plan and the generated inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Whether to keep spans.
    pub trace: bool,
    /// How many times to set up (boot, connect, first confirmed reply);
    /// `setup_s` is the median and the last set-up is the one measured.
    pub setups: usize,
}

impl Plan {
    /// The discarded warm-up: 15 % of the window (3 s for the nominal
    /// 20 s window), never under 0.3 s.
    pub fn warmup(&self) -> Duration {
        self.window.mul_f64(0.15).max(Duration::from_millis(300))
    }
}

/// Keys each closed-loop client owns.
const KEYS_PER_CLIENT: u64 = 512;
/// Open-loop arrival rate, requests per second.
const OPEN_RATE: u32 = 500;
/// Logical clients multiplexed over the open loop's one connection.
const OPEN_CLIENTS: usize = 64;
/// First logical client id of the open loop.
const OPEN_FIRST_ID: u64 = 1000;
/// Keys each logical client owns (64 × 16 = 1024 keys in all).
const OPEN_KEYS_PER_CLIENT: u64 = 16;
/// Offered rate per client on the leader-kill workload.
const KILL_RATE_PER_CLIENT: u32 = 50;
/// Requests each connection has confirmed by the end of a set-up: the
/// first, and 32 more so that one set-up is tens of milliseconds of
/// work and the runtime's 5 ms accept poll is a small share of it.
const SETUP_REQUESTS: u64 = 33;
/// How long after the window's end an unanswered request may still be
/// answered before it counts as failed.
const GRACE: Duration = Duration::from_secs(2);

/// Boots an `n`-replica cluster with the knobs every live workload uses:
/// a log that truncates (checkpoint every 256 slots) keeps a long run's
/// memory bounded and is what a long-running SMR must do anyway.
fn boot(n: usize, seed: u64) -> LiveSmrCluster<KvStore> {
    LiveSmrBuilder::new(n)
        .seed(seed)
        .pipeline_depth(4)
        .batch_size(8)
        .checkpoint_interval(256)
        .start()
        .expect("loopback listeners bind")
}

/// SplitMix64 over `(seed, a, b)`: the one source of generated inputs.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The key closed-loop client `c` writes with its `j`-th PUT.
fn closed_key(seed: u64, c: u64, j: u64) -> String {
    format!("c{c}-k{}", mix(seed, c, j) % KEYS_PER_CLIENT)
}

/// The 16-byte value of closed-loop client `c`'s `j`-th PUT: it names
/// its writer, so a read can be checked against who wrote what where.
fn closed_value(c: u64, j: u64) -> String {
    format!("{c:02x}{j:014x}")
}

fn parse_closed_value(value: &str) -> Option<(u64, u64)> {
    let c = u64::from_str_radix(value.get(..2)?, 16).ok()?;
    let j = u64::from_str_radix(value.get(2..)?, 16).ok()?;
    Some((c, j))
}

/// The key and 1 KiB value of an open-loop request.
fn open_put(seed: u64, filler: &str, request: RequestId) -> (String, String) {
    let slot = request.client - OPEN_FIRST_ID;
    let key = slot * OPEN_KEYS_PER_CLIENT + mix(seed, slot, request.seq) % OPEN_KEYS_PER_CLIENT;
    let mut value = format!("{:04x}{:012x}", slot, request.seq);
    value.push_str(filler);
    (format!("k{key}"), value)
}

/// 1008 seeded hex characters: with the 16-character header, 1 KiB.
fn open_filler(seed: u64) -> String {
    (0..63)
        .map(|i| format!("{:016x}", mix(seed, u64::MAX, i)))
        .collect()
}

// ---------------------------------------------------------------------------
// Watching the replicas from outside.
// ---------------------------------------------------------------------------

/// Handles on one replica's counters.
struct Tap {
    obs: Arc<Obs>,
    peer_out: Counter,
    checkpoint_out: Counter,
    state_out: Counter,
    request_in: Counter,
    read_in: Counter,
}

/// What the replicas had counted at one instant (sums over replicas,
/// except `slots`, which every replica counts for itself).
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    peer_out: u64,
    checkpoint_out: u64,
    state_out: u64,
    request_in: u64,
    read_in: u64,
    rejected: u64,
    redirects: u64,
    shed: u64,
    checkpoints: u64,
    /// Slots applied by the replica that has applied the most.
    slots: u64,
    cpu_s: f64,
}

impl Counts {
    fn bytes_out(&self) -> u64 {
        self.peer_out + self.checkpoint_out + self.state_out
    }
}

struct Taps(Vec<Tap>);

impl Taps {
    fn new(cluster: &LiveSmrCluster<KvStore>) -> Self {
        Taps(
            cluster
                .obs_handles()
                .iter()
                .map(|obs| Tap {
                    peer_out: obs.frame_bytes_out("peer"),
                    checkpoint_out: obs.frame_bytes_out("checkpoint"),
                    state_out: obs.frame_bytes_out("state"),
                    request_in: obs.frame_bytes_in("request"),
                    read_in: obs.frame_bytes_in("read"),
                    obs: obs.clone(),
                })
                .collect(),
        )
    }

    fn read(&self) -> Counts {
        let mut c = Counts {
            cpu_s: process::cpu_seconds().unwrap_or(0.0),
            ..Counts::default()
        };
        for t in &self.0 {
            c.peer_out += t.peer_out.get();
            c.checkpoint_out += t.checkpoint_out.get();
            c.state_out += t.state_out.get();
            c.request_in += t.request_in.get();
            c.read_in += t.read_in.get();
            c.rejected += t.obs.frames_torn.get()
                + t.obs.frames_malformed.get()
                + t.obs.frames_unsendable.get();
            c.redirects += t.obs.redirects_served.get();
            c.shed += t.obs.shed_requests.get();
            c.checkpoints += t.obs.checkpoints_taken.get();
            c.slots = c.slots.max(t.obs.apply_latency_us.count());
        }
        c
    }

    fn pending_depth(&self) -> u64 {
        self.0
            .iter()
            .map(|t| t.obs.pending_depth.get())
            .max()
            .unwrap_or(0)
    }
}

/// What the watcher thread saw over the measured window.
struct Watch {
    /// The counters at the start of the reference period, if there is one.
    before: Option<Counts>,
    /// Counter readings at the window's `SUB_WINDOWS + 1` edges.
    edges: Vec<Counts>,
    pending_max: u64,
    threads: f64,
}

/// Sleeps through the window, sampling the pending-queue depth every
/// 50 ms and reading the counters at each sub-window edge — and once
/// before, at `before`, when the run has a reference period.
fn watch(taps: &Taps, epoch: Instant, before: Option<Duration>, window: Window) -> Watch {
    let mut seen = Watch {
        before: None,
        edges: Vec::with_capacity(SUB_WINDOWS + 1),
        pending_max: 0,
        threads: 0.0,
    };
    if let Some(wait) = before.and_then(|at| at.checked_sub(epoch.elapsed())) {
        thread::sleep(wait);
    }
    seen.before = before.map(|_| taps.read());
    for edge in window.edges() {
        while let Some(left) = edge.checked_sub(epoch.elapsed()) {
            if left.is_zero() {
                break;
            }
            thread::sleep(left.min(Duration::from_millis(50)));
            if epoch.elapsed() >= window.start {
                seen.pending_max = seen.pending_max.max(taps.pending_depth());
            }
        }
        seen.edges.push(taps.read());
    }
    seen.threads = process::threads().unwrap_or(0.0);
    seen
}

// ---------------------------------------------------------------------------
// Set-up.
// ---------------------------------------------------------------------------

struct SetUp<C> {
    cluster: LiveSmrCluster<KvStore>,
    conn: C,
    /// Boot → connected → first confirmed reply, per trial, in seconds.
    trials_s: Vec<f64>,
    /// `LiveSmrBuilder::start` alone, per trial, in milliseconds.
    boot_ms: Vec<f64>,
}

/// Sets up `plan.setups` times, keeping the last cluster for the run.
fn set_up<C>(plan: &Plan, n: usize, connect: impl Fn(&LiveSmrCluster<KvStore>) -> C) -> SetUp<C> {
    let mut trials_s = Vec::new();
    let mut boot_ms = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setups.max(1) {
        if let Some((cluster, conn)) = kept.take() {
            drop::<C>(conn);
            LiveSmrCluster::shutdown(cluster);
        }
        let t0 = Instant::now();
        let cluster = boot(n, plan.seed);
        boot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let conn = connect(&cluster);
        trials_s.push(t0.elapsed().as_secs_f64());
        kept = Some((cluster, conn));
    }
    let (cluster, conn) = kept.expect("at least one set-up");
    SetUp {
        cluster,
        conn,
        trials_s,
        boot_ms,
    }
}

// ---------------------------------------------------------------------------
// Closed-loop and paced clients over `SmrClient`.
// ---------------------------------------------------------------------------

/// What one `SmrClient` thread did.
struct ClientRun {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    /// Key → the `j` of this client's last confirmed PUT to it.
    last_put: BTreeMap<String, u64>,
    confirmed: Vec<RequestId>,
    violations: Vec<String>,
    errors: u64,
    retries: u64,
    redirects: u64,
    overloads: u64,
}

/// The shape of one `SmrClient` thread's load.
#[derive(Clone, Copy)]
struct ClientLoad {
    seed: u64,
    /// Stop starting requests at this offset.
    stop: Duration,
    /// Every 10th operation is a `Local` read of the key last written.
    reads: bool,
    /// Send at this rate, on a schedule, instead of back to back.
    pace: Option<u32>,
}

/// Client `c`'s schedule: the clients are staggered evenly across one
/// period, so that their requests do not fall due at the same instant
/// (whether two simultaneous requests then share a slot or take one each
/// is a coin toss that would set the whole run's latency).
fn client_pacer(c: u64, rate: u32) -> Pacer {
    let period = Duration::from_secs(1) / rate.max(1);
    Pacer::new(period * (c as u32 - 1) / 2, rate)
}

/// Runs client `c` (1-based, also its client id) until `load.stop`.
fn drive_client(
    c: u64,
    mut client: SmrClient<KvStore>,
    load: ClientLoad,
    epoch: Instant,
    mut spans: Spans,
) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::new(),
        spans: Vec::new(),
        last_put: BTreeMap::new(),
        confirmed: Vec::new(),
        violations: Vec::new(),
        errors: 0,
        retries: 0,
        redirects: 0,
        overloads: 0,
    };
    // The set-up made PUTs j = 0.. as requests 1.. of this client.
    for j in 0..SETUP_REQUESTS {
        run.last_put.insert(closed_key(load.seed, c, j), j);
        run.confirmed.push(RequestId {
            client: c,
            seq: j + 1,
        });
    }
    let pace = load.pace.map(|rate| client_pacer(c, rate));
    let mut puts = SETUP_REQUESTS;
    let mut last_key = closed_key(load.seed, c, puts - 1);
    // `seq` numbers this client's calls, continuing after the set-up's.
    for (i, seq) in (0u64..).zip(SETUP_REQUESTS + 1..) {
        let due = match pace {
            Some(pace) => pace.due(i),
            None => epoch.elapsed(),
        };
        if due >= load.stop || epoch.elapsed() >= load.stop {
            break;
        }
        if let Some(wait) = due.checked_sub(epoch.elapsed()) {
            thread::sleep(wait);
        }
        let sent = epoch.elapsed();
        let request = RequestId { client: c, seq };
        let read = load.reads && i % 10 == 9;
        let root = spans.reserve();
        let ok = if read {
            let t0 = epoch.elapsed();
            let got = client.get(&last_key, Consistency::Local);
            spans.record("client.get", Some(root), Some(request), t0, epoch.elapsed());
            match got {
                Ok(Some(value)) => {
                    // The read may be stale but never foreign: the value
                    // must be one this client wrote to this very key.
                    let valid = parse_closed_value(&value).is_some_and(|(owner, j)| {
                        owner == c && j < puts && closed_key(load.seed, c, j) == last_key
                    });
                    if !valid {
                        run.violations.push(format!(
                            "client {c}: Local GET {last_key} returned {value:?}, which its owner never wrote there"
                        ));
                    }
                    true
                }
                Ok(None) => {
                    run.violations.push(format!(
                        "client {c}: Local GET {last_key} after a confirmed PUT found nothing"
                    ));
                    true
                }
                Err(_) => false,
            }
        } else {
            let key = closed_key(load.seed, c, puts);
            let t0 = epoch.elapsed();
            let put = client.submit(Command::Put {
                key: key.clone(),
                value: closed_value(c, puts),
            });
            spans.record(
                "client.submit",
                Some(root),
                Some(request),
                t0,
                epoch.elapsed(),
            );
            match put {
                Ok(_) => {
                    run.last_put.insert(key.clone(), puts);
                    run.confirmed.push(request);
                    last_key = key;
                    puts += 1;
                    true
                }
                Err(_) => {
                    // Unknown outcome: the final value of this key can
                    // no longer be predicted, so stop checking it.
                    run.last_put.remove(&key);
                    puts += 1;
                    false
                }
            }
        };
        let done = epoch.elapsed();
        spans.record_as(
            root,
            "bench.request",
            None,
            Some(request),
            due.min(sent),
            done,
        );
        run.errors += u64::from(!ok);
        run.samples.push(Sample {
            due,
            sent,
            excused: Duration::ZERO,
            done: ok.then_some(done),
            read,
        });
    }
    run.retries = client.retries();
    run.redirects = client.redirects();
    run.overloads = client.overloads();
    run.spans = spans.into_vec();
    run
}

/// Connects the two `SmrClient`s and has each make the set-up's PUTs.
fn connect_clients(cluster: &LiveSmrCluster<KvStore>, seed: u64) -> Vec<SmrClient<KvStore>> {
    (1..=2u64)
        .map(|c| {
            let mut client = cluster.client(c);
            for j in 0..SETUP_REQUESTS {
                client
                    .submit(Command::Put {
                        key: closed_key(seed, c, j),
                        value: closed_value(c, j),
                    })
                    .expect("set-up PUT is confirmed");
            }
            client
        })
        .collect()
}

/// Which of the three `SmrClient` workloads to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientWorkload {
    /// `live_n4_closed`.
    N4Closed,
    /// `live_n16_closed`.
    N16Closed,
    /// `live_n7_leader_kill`.
    N7LeaderKill,
}

impl ClientWorkload {
    fn name(self) -> &'static str {
        match self {
            ClientWorkload::N4Closed => "live_n4_closed",
            ClientWorkload::N16Closed => "live_n16_closed",
            ClientWorkload::N7LeaderKill => "live_n7_leader_kill",
        }
    }

    fn n(self) -> usize {
        match self {
            ClientWorkload::N4Closed => 4,
            ClientWorkload::N16Closed => 16,
            ClientWorkload::N7LeaderKill => 7,
        }
    }
}

/// Runs one of the `SmrClient` workloads and returns its report and
/// spans.
pub fn run_clients(which: ClientWorkload, plan: &Plan) -> (Report, Vec<Span>) {
    let n = which.n();
    let kill = which == ClientWorkload::N7LeaderKill;
    let up = set_up(plan, n, |cluster| connect_clients(cluster, plan.seed));
    let cluster = up.cluster;
    let taps = Taps::new(&cluster);

    // Timeline: warm-up, then (leader kill only) a reference period half
    // a window long, then the measured window. On the leader-kill
    // workload the measured window opens at the kill.
    let reference = if kill {
        Window {
            start: plan.warmup(),
            len: plan.window / 2,
        }
    } else {
        Window {
            start: plan.warmup(),
            len: Duration::ZERO,
        }
    };
    let window = Window {
        start: reference.end(),
        len: plan.window,
    };
    let load = ClientLoad {
        seed: plan.seed,
        stop: window.end(),
        reads: which == ClientWorkload::N4Closed,
        pace: kill.then_some(KILL_RATE_PER_CLIENT),
    };

    let epoch = Instant::now();
    let mut main_spans = Spans::new(plan.trace, 0);
    let mut killed_at = None;
    let (runs, seen) = thread::scope(|scope| {
        let workers: Vec<_> = up
            .conn
            .into_iter()
            .zip(1u64..)
            .map(|(client, c)| {
                let spans = Spans::new(plan.trace, c);
                scope.spawn(move || drive_client(c, client, load, epoch, spans))
            })
            .collect();
        let watcher = scope.spawn(|| watch(&taps, epoch, kill.then_some(reference.start), window));
        if kill {
            if let Some(wait) = window.start.checked_sub(epoch.elapsed()) {
                thread::sleep(wait);
            }
            let t0 = epoch.elapsed();
            execute(
                &cluster,
                &FaultPlan::new(plan.seed).at(Duration::ZERO, Fault::KillLeader),
            );
            killed_at = Some(t0);
            main_spans.record("nemesis.execute", None, None, t0, epoch.elapsed());
        }
        let runs: Vec<ClientRun> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        (runs, watcher.join().expect("watcher thread"))
    });

    let ended = shut_down(cluster);
    let (reports, paused) = (&ended.reports, &ended.paused);

    // ---- Output checks -------------------------------------------------
    let mut violations: Vec<String> = runs.iter().flat_map(|r| r.violations.clone()).collect();
    let confirmed: BTreeSet<RequestId> = runs
        .iter()
        .flat_map(|r| r.confirmed.iter().copied())
        .collect();
    // Where votes go to samples (s < n), a replica can miss a quorum and
    // fall behind until the next checkpoint reaches it; when the load
    // stops, it stays behind. A quorum must hold the agreed log, and the
    // log of every replica behind it must be a prefix of that one.
    let cfg = ProbftConfig::builder(n).build();
    let laggards = if cfg.sample_size() < n {
        shorter_logs(reports, paused)
    } else {
        Vec::new()
    };
    let excluded: Vec<usize> = paused.iter().chain(&laggards).copied().collect();
    if let Err(found) = verify_invariants(reports, &excluded, &confirmed) {
        violations.extend(found);
    }
    violations.extend(check_laggards(reports, &laggards, n - cfg.faults()));
    if kill {
        if let Err(found) = verify_exactly_once(reports, paused) {
            violations.extend(found);
        }
        if paused.len() != 1 {
            violations.push(format!("expected one killed replica, found {paused:?}"));
        }
    }
    let expected: BTreeMap<String, String> = runs
        .iter()
        .zip(1u64..)
        .flat_map(|(r, c)| {
            r.last_put
                .iter()
                .map(move |(key, j)| (key.clone(), closed_value(c, *j)))
        })
        .collect();
    violations.extend(check_final_values(reports, paused, &expected));

    // ---- End-to-end metrics --------------------------------------------
    let samples: Vec<Sample> = runs.iter().flat_map(|r| r.samples.clone()).collect();
    let mut spans: Vec<Span> = main_spans.into_vec();
    spans.extend(runs.iter().flat_map(|r| r.spans.clone()));
    let mut report = new_report(which.name(), plan, violations);
    if !laggards.is_empty() {
        report.notes.push(format!(
            "replicas {laggards:?} missed a probabilistic quorum and were still behind at shutdown (no checkpoint came to fetch them once the load stopped)"
        ));
    }

    // Latency: the writes due in the measured window — or, on the
    // leader-kill workload, in the reference period before the kill,
    // because after it most due requests never complete and a percentile
    // over the few that do would describe the survivors only.
    let latency_window = if kill { reference } else { window };
    let (lat, lat_sub) = load::latencies_ms(&samples, latency_window, |s| !s.read);
    let throughput = load::throughput(&samples, window);
    let completed_in_window = load::completed_in(&samples, window, |_| true);
    let writes_in_window = load::completed_in(&samples, window, |s| !s.read);

    // On the leader-kill workload the sub-windows are not comparable (the
    // first holds the outage), so the whole-window rate is the value.
    let throughput_metric = if kill {
        Metric::once(throughput.whole, completed_in_window)
    } else {
        Metric::median_of(throughput.sub.clone(), completed_in_window)
    };
    // p50 is the median over sub-windows; p99 is taken over the whole
    // window, because a percentile needs samples beyond it and a
    // sub-window's p99 mostly says whether a checkpoint fell into it.
    let p50 = load::quantile(&lat, &lat_sub, 0.50);
    let p99 = load::quantile(&lat, &lat_sub, 0.99);
    note_percentiles(&mut report, &lat);

    // Time without service: kill → completion of the first request handed
    // to a client after the kill. (Not the obs `recovery_latency_us`:
    // pipeline slots already in flight decide after the kill and make it
    // bimodal.)
    let outage = killed_at.map(|killed_at| {
        let first = samples
            .iter()
            .filter(|s| s.sent >= killed_at)
            .filter_map(|s| s.done)
            .min();
        match first {
            Some(done) => Metric::once(done.saturating_sub(killed_at).as_secs_f64() * 1e3, 1),
            None => {
                report.notes.push(
                    "no request sent after the kill completed: outage_ms is the whole window"
                        .into(),
                );
                Metric::once(plan.window.as_secs_f64() * 1e3, 0)
            }
        }
    });

    // Attempted and failed: what was handed to the system in the measured
    // window, and what of that errored or never returned.
    let in_window = |s: &&Sample| window.contains(s.sent);
    report.attempted = samples.iter().filter(in_window).count() as u64;
    report.failed = samples
        .iter()
        .filter(in_window)
        .filter(|s| s.done.is_none())
        .count() as u64;
    // `failed_ratio` also counts what the schedule made due in the window
    // and the clients never got round to sending, or to having answered,
    // by its end (plus grace, which a blocking client has already spent
    // by the time it returns).
    let failed_ratio = match load.pace {
        Some(rate) => {
            let due: u64 = (1..=runs.len() as u64)
                .map(|c| client_pacer(c, rate))
                .map(|pace| pace.due_before(window.end()) - pace.due_before(window.start))
                .sum();
            let served = samples
                .iter()
                .filter(|s| window.contains(s.due) && s.done.is_some())
                .count() as u64;
            Metric::once(due.saturating_sub(served) as f64 / due.max(1) as f64, due)
        }
        None => Metric::once(
            report.failed as f64 / report.attempted.max(1) as f64,
            report.attempted,
        ),
    };

    // On the leader-kill workload the few operations confirmed after the
    // kill (13 or 14) would make bytes per operation a two-valued number;
    // like latency, it is taken over the reference period, where it is
    // the cost of an operation at n = 7 in normal running.
    let bytes = match (&seen.before, seen.edges.first()) {
        (Some(before), Some(at_kill)) => {
            let ops = samples
                .iter()
                .filter(|s| s.done.is_some_and(|d| reference.contains(d)))
                .count();
            Metric::once(
                (at_kill.bytes_out() - before.bytes_out()) as f64 / ops.max(1) as f64,
                ops as u64,
            )
        }
        _ => bytes_per_op(&seen.edges, &throughput, window),
    };
    report.end_to_end = vec![
        ("throughput_ops_s", throughput_metric),
        (
            "latency_p50_ms",
            // The reference period is half a window: too short to split.
            if kill {
                Metric::once(p50.whole, lat.len() as u64)
            } else {
                Metric::median_of(p50.sub.clone(), lat.len() as u64)
            },
        ),
        ("latency_p99_ms", Metric::once(p99.whole, lat.len() as u64)),
    ];
    report.end_to_end.extend(outage.map(|m| ("outage_ms", m)));
    report.end_to_end.extend([
        ("failed_ratio", failed_ratio),
        ("bytes_per_op", bytes),
        (
            "setup_s",
            Metric::median_of(up.trials_s.clone(), up.trials_s.len() as u64),
        ),
    ]);

    // ---- Per-layer metrics ---------------------------------------------
    let served = Served {
        writes: writes_in_window,
        ops: completed_in_window,
        rtt_p50_us: stats::percentile_sorted(&lat, 0.5).unwrap_or(0.0) * 1e3,
    };
    layer_from_cluster(&mut report, &up.boot_ms, &ended, &seen, served);
    let (reads, _) = load::latencies_ms(&samples, window, |s| s.read);
    report.set_layer(
        "runtime.local_read_p50_us",
        stats::percentile_sorted(&reads, 0.50).unwrap_or(0.0) * 1e3,
    );
    report.set_layer(
        "runtime.local_read_p99_us",
        stats::percentile_sorted(&reads, 0.99).unwrap_or(0.0) * 1e3,
    );
    let ops = samples.iter().filter(|s| s.done.is_some()).count().max(1) as f64;
    let total = |f: fn(&ClientRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    report.set_layer("client.retries_per_op", total(|r| r.retries) / ops);
    report.set_layer("client.redirects_per_op", total(|r| r.redirects) / ops);
    report.set_layer("client.overloads_per_op", total(|r| r.overloads) / ops);
    report.set_layer("client.inflight_max", runs.len() as f64);
    if kill {
        report.set_layer(
            "client.gen_lateness_p99_us",
            load::lateness_p99_us(&samples, reference),
        );
        report.set_layer(
            "client.prekill_throughput_ops_s",
            load::throughput(&samples, reference).whole,
        );
        let (after, _) = load::latencies_ms(&samples, window, |_| true);
        report.set_layer(
            "client.completed_latency_p50_ms",
            stats::percentile_sorted(&after, 0.5).unwrap_or(0.0),
        );
        report.notes.push(format!(
            "latency_p50_ms, latency_p99_ms and bytes_per_op are over the {} s reference period before the kill (paced, unsaturated); throughput_ops_s, outage_ms and failed_ratio are over the {} s after it",
            reference.len.as_secs_f64(),
            window.len.as_secs_f64()
        ));
    }
    (report, spans)
}

/// The share of applied slots that carried no entry, over the slots the
/// replica's flight recorder still holds (its last ≈250).
fn empty_slot_ratio(obs: &Obs) -> f64 {
    let entries: Vec<u64> = obs
        .journal()
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::SlotApplied { entries, .. } => Some(entries),
            _ => None,
        })
        .collect();
    let empty = entries.iter().filter(|e| **e == 0).count();
    empty as f64 / entries.len().max(1) as f64
}

/// Notes which tail percentiles the sample supports.
fn note_percentiles(report: &mut Report, sorted_ms: &[f64]) {
    let n = sorted_ms.len();
    let whole = |q| stats::percentile_sorted(sorted_ms, q).unwrap_or(0.0);
    let mut note = format!(
        "latency from {n} samples; over the whole window p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        whole(0.50),
        whole(0.95),
        whole(0.99)
    );
    if !stats::supports(n, 0.99) {
        note.push_str("; fewer than 10 lie beyond p99, read it as a maximum");
    }
    if stats::supports(n, 0.999) {
        if let Some(p999) = stats::percentile_sorted(sorted_ms, 0.999) {
            note.push_str(&format!("; p999 {p999:.3} ms"));
        }
    }
    report.notes.push(note);
}

/// Replica-to-replica bytes sent (all frame kinds) per confirmed
/// operation, per sub-window.
fn bytes_per_op(edges: &[Counts], throughput: &Windowed, window: Window) -> Metric {
    let sub_len = window.len.as_secs_f64() / SUB_WINDOWS as f64;
    let ops: Vec<f64> = throughput.sub.iter().map(|rate| rate * sub_len).collect();
    let total_ops: f64 = ops.iter().sum();
    let sub = edges
        .iter()
        .zip(edges.iter().skip(1))
        .zip(&ops)
        .filter(|(_, ops)| **ops > 0.0)
        .map(|((a, b), ops)| (b.bytes_out() - a.bytes_out()) as f64 / ops)
        .collect();
    Metric::median_of(sub, total_ops as u64)
}

/// What is read off the cluster as it is stopped.
struct Ended {
    reports: Vec<ReplicaReport<KvStore>>,
    /// Replicas a fault left paused.
    paused: Vec<usize>,
    /// Every replica's final metrics folded into one snapshot.
    merged: MetricsSnapshot,
    empty_slot_ratio: f64,
    peak_rss_mb: f64,
}

fn shut_down(cluster: LiveSmrCluster<KvStore>) -> Ended {
    let n = cluster.addrs().len();
    let paused: Vec<usize> = (0..n).filter(|&i| cluster.is_paused(i)).collect();
    let unpaused = (0..n).find(|i| !paused.contains(i)).unwrap_or(0);
    let empty_slot_ratio = cluster
        .obs(unpaused)
        .map_or(0.0, |obs| empty_slot_ratio(&obs));
    let peak_rss_mb = process::peak_rss_mb().unwrap_or(0.0);
    let reports = cluster.shutdown();
    Ended {
        merged: ReplicaReport::aggregate_metrics(&reports),
        reports,
        paused,
        empty_slot_ratio,
        peak_rss_mb,
    }
}

/// What the generator got out of the measured window.
struct Served {
    writes: u64,
    ops: u64,
    /// Median send → reply time, µs.
    rtt_p50_us: f64,
}

/// A live workload's report, so far holding only what was found wrong.
fn new_report(workload: &str, plan: &Plan, violations: Vec<String>) -> Report {
    Report {
        workload: workload.to_string(),
        traced: plan.trace,
        violations,
        notes: vec![
            "loopback TCP, no message delay injected: live latency is processor and kernel time"
                .into(),
        ],
        ..Report::default()
    }
}

/// The per-layer metrics every live workload reads off its cluster.
/// Counters are deltas over the measured window; histogram percentiles
/// cover boot → shutdown, because a `HistogramSnapshot` cannot be
/// subtracted from outside the obs crate.
fn layer_from_cluster(
    report: &mut Report,
    boot_ms: &[f64],
    ended: &Ended,
    seen: &Watch,
    served: Served,
) {
    let (Some(first), Some(last)) = (seen.edges.first(), seen.edges.last()) else {
        return;
    };
    let Served {
        writes,
        ops,
        rtt_p50_us,
    } = served;
    let merged = &ended.merged;
    let cfg = ProbftConfig::builder(ended.reports.len()).build();
    report.set_layer("quorum.sample_size", cfg.sample_size() as f64);
    report.set_layer("quorum.quorum_size", cfg.probabilistic_quorum() as f64);
    report.set_layer("smr.empty_slot_ratio", ended.empty_slot_ratio);
    report.set_layer("runtime.boot_ms", stats::median(boot_ms).unwrap_or(0.0));
    report.set_layer("process.peak_rss_mb", ended.peak_rss_mb);
    let per_op = |a: u64, b: u64| (b - a) as f64 / ops.max(1) as f64;
    let p = |name: &str, q: f64| merged.histogram(name).map_or(0.0, |h| h.quantile(q) as f64);
    report.set_layer(
        "smr.ops_per_slot",
        writes as f64 / (last.slots - first.slots).max(1) as f64,
    );
    report.set_layer("smr.decide_latency_p50_us", p("decide_latency_us", 0.50));
    report.set_layer("smr.decide_latency_p99_us", p("decide_latency_us", 0.99));
    report.set_layer("smr.apply_latency_p50_us", p("apply_latency_us", 0.50));
    report.set_layer("smr.pending_depth_max", seen.pending_max as f64);
    report.set_layer(
        "smr.checkpoints_taken",
        (last.checkpoints - first.checkpoints) as f64,
    );
    report.set_layer(
        "runtime.commit_latency_p50_us",
        p("commit_latency_us", 0.50),
    );
    report.set_layer(
        "runtime.commit_latency_p99_us",
        p("commit_latency_us", 0.99),
    );
    report.set_layer(
        "runtime.client_overhead_p50_us",
        (rtt_p50_us - p("commit_latency_us", 0.50)).max(0.0),
    );
    report.set_layer(
        "runtime.peer_bytes_per_op",
        per_op(first.peer_out, last.peer_out),
    );
    report.set_layer(
        "runtime.checkpoint_bytes_per_op",
        per_op(first.checkpoint_out, last.checkpoint_out),
    );
    report.set_layer(
        "runtime.state_bytes_per_op",
        per_op(first.state_out, last.state_out),
    );
    report.set_layer(
        "runtime.request_bytes_per_op",
        per_op(
            first.request_in + first.read_in,
            last.request_in + last.read_in,
        ),
    );
    report.set_layer(
        "runtime.frames_rejected",
        (last.rejected - first.rejected) as f64,
    );
    report.set_layer(
        "runtime.redirects_served",
        (last.redirects - first.redirects) as f64,
    );
    report.set_layer("runtime.shed_requests", (last.shed - first.shed) as f64);
    report.set_layer("runtime.threads", seen.threads);
    report.set_layer(
        "runtime.cpu_s_per_kop",
        (last.cpu_s - first.cpu_s) / (ops.max(1) as f64 / 1000.0),
    );
}

/// The unpaused replicas that have applied less than the one furthest
/// ahead.
fn shorter_logs(reports: &[ReplicaReport<KvStore>], paused: &[usize]) -> Vec<usize> {
    let live = || reports.iter().filter(|r| !paused.contains(&r.id));
    let longest = live().map(ReplicaReport::total_log_len).max().unwrap_or(0);
    live()
        .filter(|r| r.total_log_len() < longest)
        .map(|r| r.id)
        .collect()
}

/// The log digest after `entries` are applied on top of `from`: the chain
/// `SmrNode` keeps (`Sha256(previous ‖ entry)` per applied entry).
fn extend_chain(from: Digest, entries: &[Entry<Command>]) -> Digest {
    entries.iter().fold(from, |digest, entry| {
        Sha256::digest_parts(&[digest.as_bytes(), &entry.to_wire_bytes()])
    })
}

/// What holds even when replicas lag: at least `quorum` replicas hold the
/// agreed log, and each laggard's log is a prefix of it — its digest,
/// extended by the agreed entries it has not applied, gives the agreed
/// digest. (A laggard that stopped below the agreed replica's truncation
/// point cannot be checked that way and is only named in the notes.)
fn check_laggards(
    reports: &[ReplicaReport<KvStore>],
    laggards: &[usize],
    quorum: usize,
) -> Vec<String> {
    let Some(agreed) = reports.iter().max_by_key(|r| r.total_log_len()) else {
        return Vec::new();
    };
    let mut violations = Vec::new();
    for lag in reports.iter().filter(|r| laggards.contains(&r.id)) {
        let missing = lag
            .total_log_len()
            .checked_sub(agreed.log_offset)
            .and_then(|have| agreed.log.get(usize::try_from(have).ok()?..));
        if missing.is_some_and(|m| extend_chain(lag.log_digest, m) != agreed.log_digest) {
            violations.push(format!(
                "agreement: replica {}'s log ({} entries) is not a prefix of replica {}'s ({} entries)",
                lag.id,
                lag.total_log_len(),
                agreed.id,
                agreed.total_log_len()
            ));
        }
    }
    let agreeing = reports.len() - laggards.len();
    if agreeing < quorum {
        violations.push(format!(
            "agreement: only {agreeing} replicas hold the longest log; a quorum is {quorum}"
        ));
    }
    violations
}

/// Every key must hold its owner's last confirmed PUT on every unpaused
/// replica (state equality across replicas is checked separately, so
/// looking at one of them is enough).
fn check_final_values(
    reports: &[ReplicaReport<KvStore>],
    paused: &[usize],
    expected: &BTreeMap<String, String>,
) -> Vec<String> {
    // The replica that has applied the most: one that lags has not seen
    // the last PUTs yet.
    let Some(live) = reports
        .iter()
        .filter(|r| !paused.contains(&r.id))
        .max_by_key(|r| r.total_log_len())
    else {
        return vec!["no unpaused replica to check final values on".into()];
    };
    expected
        .iter()
        .filter(|(key, value)| live.state.get(key) != Some(value.as_str()))
        .take(5)
        .map(|(key, value)| {
            let got = live.state.get(key).map(|v| v.chars().take(16).collect::<String>());
            let want: String = value.chars().take(16).collect();
            format!("final value of {key} on replica {} is {got:?}, but its owner's last confirmed PUT was {want:?}…", live.id)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The open loop: one connection, a sender thread and a reader thread.
// ---------------------------------------------------------------------------

/// What the sender thread recorded about one request.
struct Sent {
    request: RequestId,
    encode_start: Duration,
    encode_end: Duration,
    write_end: Duration,
}

/// Connects to the leader and confirms the set-up's PUTs, one after the
/// other, from a client id outside the pool.
fn connect_open(cluster: &LiveSmrCluster<KvStore>) -> TcpStream {
    let mut addr: SocketAddr = *cluster
        .addrs()
        .get(cluster.current_leader())
        .expect("leader address");
    let put = |seq: u64| {
        SmrFrame::<KvStore>::Request {
            request: RequestId {
                client: OPEN_FIRST_ID - 1,
                seq,
            },
            kind: OpKind::Write,
            op: Command::Put {
                key: "setup".into(),
                value: seq.to_string(),
            },
        }
        .to_wire_bytes()
    };
    let mut stream = loop {
        let mut stream = TcpStream::connect(addr).expect("leader accepts");
        stream.set_nodelay(true).expect("nodelay");
        write_frame(&mut stream, &put(1)).expect("first request is written");
        match read_reply(&mut stream) {
            Some(SmrReply::Applied { .. }) => break stream,
            Some(SmrReply::Redirect { addr: named, .. }) => addr = named,
            other => panic!("first open-loop request got {other:?}"),
        }
    };
    for seq in 2..=SETUP_REQUESTS {
        write_frame(&mut stream, &put(seq)).expect("set-up request is written");
        let reply = read_reply(&mut stream);
        assert!(
            matches!(reply, Some(SmrReply::Applied { .. })),
            "set-up request {seq} got {reply:?}"
        );
    }
    stream
}

/// Blocks for the next reply frame on a connection with no read timeout.
fn read_reply(stream: &mut TcpStream) -> Option<SmrReply<KvResponse>> {
    loop {
        let bytes = read_frame(stream).ok()??;
        if let Ok(SmrFrame::Reply(reply)) = SmrFrame::<KvStore>::from_wire_bytes(&bytes) {
            return Some(reply);
        }
    }
}

/// Runs `live_n4_open_500` and returns its report and spans.
pub fn run_open(plan: &Plan) -> (Report, Vec<Span>) {
    let n = 4;
    let up = set_up(plan, n, connect_open);
    let cluster = up.cluster;
    let taps = Taps::new(&cluster);
    let window = Window {
        start: plan.warmup(),
        len: plan.window,
    };
    let filler = open_filler(plan.seed);
    let state = Mutex::new(OpenLoop::new(
        Duration::ZERO,
        window.end(),
        OPEN_RATE,
        OPEN_FIRST_ID,
        OPEN_CLIENTS,
    ));
    let freed = Condvar::new();
    let sender_done = AtomicBool::new(false);
    let mut write_half = up.conn;
    let mut read_half = write_half.try_clone().expect("socket clones");
    // So that the reader can notice the run's end. `read_frame` hands a
    // timeout on only between frames (inside one it retries), so the poll
    // cannot tear the reply stream.
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");

    let epoch = Instant::now();
    let (sent, (refused, broken), seen) = thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent: Vec<Sent> = Vec::new();
            loop {
                let mut gen = state.lock().expect("generator state");
                let now = epoch.elapsed();
                // Past the window and its grace, whatever is still due or
                // unanswered has failed; waiting longer would hang the
                // run on a system that has stopped answering.
                if now >= window.end() + GRACE {
                    break;
                }
                let Some(due) = gen.next_due() else { break };
                if let Some(wait) = due.checked_sub(now).filter(|w| !w.is_zero()) {
                    drop(gen);
                    thread::sleep(wait);
                    continue;
                }
                let Some((_, request)) = gen.try_send(now) else {
                    // Due, but every logical client is busy: wait for the
                    // reader to free one. The request keeps its due time.
                    let _ = freed
                        .wait_timeout(gen, Duration::from_millis(5))
                        .expect("generator state");
                    continue;
                };
                drop(gen);
                let encode_start = epoch.elapsed();
                let (key, value) = open_put(plan.seed, &filler, request);
                let frame = SmrFrame::<KvStore>::Request {
                    request,
                    kind: OpKind::Write,
                    op: Command::Put { key, value },
                }
                .to_wire_bytes();
                let encode_end = epoch.elapsed();
                if write_frame(&mut write_half, &frame).is_err() {
                    break;
                }
                sent.push(Sent {
                    request,
                    encode_start,
                    encode_end,
                    write_end: epoch.elapsed(),
                });
            }
            sender_done.store(true, Ordering::SeqCst);
            sent
        });
        let reader = scope.spawn(|| {
            // Replies other than `Applied`: the leader moved or shed.
            let mut refused = 0u64;
            // Why the connection stopped delivering replies, if it did.
            let mut broken = None;
            let give_up = window.end() + GRACE;
            loop {
                let idle = sender_done.load(Ordering::SeqCst)
                    && state.lock().expect("generator state").busy() == 0;
                if idle || epoch.elapsed() >= give_up {
                    break;
                }
                let bytes = match read_frame(&mut read_half) {
                    Ok(Some(bytes)) => bytes,
                    Ok(None) => {
                        broken = Some("the replica closed the connection".to_string());
                        break;
                    }
                    Err(FrameError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) => {
                        broken = Some(format!("reading replies failed: {e:?}"));
                        break;
                    }
                };
                let now = epoch.elapsed();
                match SmrFrame::<KvStore>::from_wire_bytes(&bytes) {
                    Ok(SmrFrame::Reply(SmrReply::Applied { request, .. })) => {
                        state
                            .lock()
                            .expect("generator state")
                            .complete(request, now);
                        freed.notify_one();
                    }
                    Ok(SmrFrame::Reply(_)) => refused += 1,
                    _ => {}
                }
            }
            (refused, broken)
        });
        let watcher = scope.spawn(|| watch(&taps, epoch, None, window));
        (
            sender.join().expect("sender thread"),
            reader.join().expect("reader thread"),
            watcher.join().expect("watcher thread"),
        )
    });

    let leader_at_end = cluster.current_leader();
    let ended = shut_down(cluster);
    let reports = &ended.reports;
    let gen = state.into_inner().expect("generator state");
    let inflight_max = gen.inflight_max();
    let due_in_window = gen.due_before(window.end()) - gen.due_before(window.start);
    let samples = gen.into_samples();

    // ---- Output checks -------------------------------------------------
    let mut violations = Vec::new();
    if let Err(found) = verify_invariants(reports, &[], &BTreeSet::new()) {
        violations.extend(found);
    }
    if refused > 0 {
        violations.push(format!(
            "{refused} requests were redirected or shed (the cluster now takes replica {leader_at_end} for its leader)"
        ));
    }
    violations.extend(broken);
    // Per key, the owner's last confirmed PUT; a later unconfirmed PUT
    // makes the key's final value unpredictable, so it is dropped.
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    for (s, rec) in samples.iter().zip(&sent) {
        let (key, value) = open_put(plan.seed, &filler, rec.request);
        if s.done.is_some() {
            expected.insert(key, value);
        } else {
            expected.remove(&key);
        }
    }
    violations.extend(check_final_values(reports, &[], &expected));

    // ---- End-to-end metrics --------------------------------------------
    let mut report = new_report("live_n4_open_500", plan, violations);
    let (lat, lat_sub) = load::latencies_ms(&samples, window, |_| true);
    let throughput = load::throughput(&samples, window);
    let completed = load::completed_in(&samples, window, |_| true);
    let p50 = load::quantile(&lat, &lat_sub, 0.50);
    let p99 = load::quantile(&lat, &lat_sub, 0.99);
    note_percentiles(&mut report, &lat);
    report
        .notes
        .push("latency runs from when a request was due".into());
    // Every request due in the window was attempted; one not answered
    // by the window's end plus grace has failed.
    let answered = samples
        .iter()
        .filter(|s| window.contains(s.due) && s.done.is_some())
        .count() as u64;
    report.attempted = due_in_window;
    report.failed = due_in_window.saturating_sub(answered);
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.end_to_end = vec![
        (
            "throughput_ops_s",
            Metric::median_of(throughput.sub.clone(), completed),
        ),
        (
            "latency_p50_ms",
            Metric::median_of(p50.sub.clone(), lat.len() as u64),
        ),
        ("latency_p99_ms", Metric::once(p99.whole, lat.len() as u64)),
        ("failed_ratio", Metric::once(failed_ratio, due_in_window)),
        (
            "bytes_per_op",
            bytes_per_op(&seen.edges, &throughput, window),
        ),
        (
            "setup_s",
            Metric::median_of(up.trials_s.clone(), up.trials_s.len() as u64),
        ),
    ];

    // ---- Per-layer metrics ---------------------------------------------
    // Served time, not queued time: from the write, not from the due time.
    let rtt: Vec<f64> = samples
        .iter()
        .zip(&sent)
        .filter(|(s, _)| window.contains(s.due))
        .filter_map(|(s, rec)| Some(s.done?.saturating_sub(rec.encode_start).as_secs_f64() * 1e6))
        .collect();
    let served = Served {
        writes: completed,
        ops: completed,
        rtt_p50_us: stats::median(&rtt).unwrap_or(0.0),
    };
    layer_from_cluster(&mut report, &up.boot_ms, &ended, &seen, served);
    let lateness_p99 = load::lateness_p99_us(&samples, window);
    report.set_layer("client.gen_lateness_p99_us", lateness_p99);
    // A flag, not a wrong output: latency runs from the due time, so a
    // late generator makes the offered load burstier than scheduled but
    // does not flatter the system.
    if lateness_p99 >= 5000.0 {
        report.notes.push(format!(
            "INVALID open-loop run: the generator ran {lateness_p99:.0} µs late at p99 (limit 5000), so the load was not offered on schedule"
        ));
    }
    report.set_layer("client.inflight_max", inflight_max as f64);

    // ---- Spans, built after the fact from what each thread recorded ----
    let mut spans = Spans::new(plan.trace, 1);
    if spans.on() {
        for (s, rec) in samples.iter().zip(&sent) {
            let Some(done) = s.done else { continue };
            let request = Some(rec.request);
            // The reader may stamp a reply before the sender has stamped
            // the end of the write that caused it.
            let write_end = rec.write_end.min(done);
            let root = spans.record(
                "bench.request",
                None,
                request,
                s.due.min(rec.encode_start),
                done,
            );
            spans.record(
                "gen.encode",
                Some(root),
                request,
                rec.encode_start,
                rec.encode_end,
            );
            spans.record(
                "gen.write_frame",
                Some(root),
                request,
                rec.encode_end.min(write_end),
                write_end,
            );
            spans.record("gen.await_reply", Some(root), request, write_end, done);
        }
    }
    (report, spans.into_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use probft_quorum::ReplicaId;
    use probft_smr::SmrBuilder;

    /// `extend_chain` must be the chain `SmrNode` itself keeps, or the
    /// laggard check would reject every honest laggard: the digest of a
    /// run stopped early, extended by what a longer run of the same
    /// inputs applied after that, is the longer run's digest.
    #[test]
    fn a_prefix_digest_extends_to_the_full_logs_digest() {
        let puts: Vec<Command> = (0..6)
            .map(|i| Command::Put {
                key: format!("k{i}"),
                value: i.to_string(),
            })
            .collect();
        let run = |target: usize| {
            SmrBuilder::new(4, target)
                .seed(3)
                .workload(ReplicaId::from(0usize), puts.clone())
                .run()
        };
        let (short, long) = (run(3), run(6));
        let have = short.total_log_lens()[0] as usize;
        let (log, digest) = (&long.logs[0], long.log_digests[0]);
        assert!(have < log.len(), "the short run stopped early");
        assert_eq!(extend_chain(short.log_digests[0], &log[have..]), digest);
        assert_ne!(extend_chain(short.log_digests[0], &log[have + 1..]), digest);
    }
}
