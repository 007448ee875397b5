//! The benchmark's metric tables and the report one workload produces:
//! the readable listing, the full JSON object, and the one-line result
//! the driver reads.

use crate::stats;
use std::fmt::Write as _;

/// One metric: its name, unit, direction and regression bound.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// The share of the parent's median by which it may get worse before
    /// a change counts as a regression (0 for per-layer metrics, which
    /// have no bound). For `failed_ratio` the bound is absolute.
    /// [`bound_on`] tightens it where a workload repeats exactly.
    pub bound: f64,
    /// Whether `BENCHMARK.json` declares it, so that the driver holds
    /// later changes to the bound. Its contract takes only a metric that
    /// every workload reports, that is never zero, and whose run-to-run
    /// spread stays inside a bound of at most 25 % on every workload; all
    /// eight are in every untraced report and are held to their bounds by
    /// `--compare`.
    pub declared: bool,
}

const fn spec(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        higher_is_better: higher,
        bound,
        declared: false,
    }
}

const fn declared(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Spec {
    Spec {
        declared: true,
        ..spec(name, unit, higher, bound)
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    spec(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    spec(name, unit, true, 0.0)
}

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "live_n4_closed",
        "n=4 on one CPU, two closed-loop clients, 16 B values, every 10th op a Local read: the runtime does the work, crypto almost none",
    ),
    (
        "live_n4_open_500",
        "n=4, open loop at 500 ops/s of 1 KiB PUTs over one connection, timed from when due: payload handling and checkpoint stalls do the work",
    ),
    (
        "live_n16_closed",
        "n=16 on one CPU, two closed-loop clients: smallest live cluster where s=14<n, so VRF sampling and verify fan-in are real",
    ),
    (
        "live_n7_leader_kill",
        "n=7, two clients paced at 50 ops/s each, leader killed mid-run and never resumed: time without service and recovery",
    ),
    (
        "sim_n100",
        "n=100 under simnet virtual time, timed in wall-clock: crypto, core, quorum and smr do all the work, runtime none",
    ),
];

/// The end-to-end metrics, all measured in the untraced run. The one-line
/// result carries the declared ones. Of the rest, `outage_ms` and
/// `msgs_per_op` are defined on one workload only, `failed_ratio` is zero
/// when all is well, and the two latencies spread wider from run to run
/// on the lightly loaded n = 4 workloads than any bound the contract
/// allows (see the README's *How steady it is*).
pub const END_TO_END: &[Spec] = &[
    declared("throughput_ops_s", "1/s", true, 0.25),
    spec("latency_p50_ms", "ms", false, 0.15),
    spec("latency_p99_ms", "ms", false, 0.25),
    spec("outage_ms", "ms", false, 0.10),
    spec("failed_ratio", "ratio", false, 0.01),
    declared("bytes_per_op", "B/op", false, 0.05),
    spec("msgs_per_op", "count", false, 0.02),
    declared("setup_s", "s", false, 0.25),
];

/// The end-to-end metrics `BENCHMARK.json` declares.
pub fn declared_end_to_end() -> impl Iterator<Item = &'static Spec> {
    END_TO_END.iter().filter(|spec| spec.declared)
}

/// The bound `--compare` holds `metric` to on `workload`. The simulator's
/// counts repeat exactly under one seed, so two runs of the same seed must
/// agree to the last message and byte; across seeds the inputs differ and
/// the metric's own bound applies.
pub fn bound_on(workload: &str, metric: &Spec, same_seed: bool) -> f64 {
    let exact =
        workload.starts_with("sim") && matches!(metric.name, "bytes_per_op" | "msgs_per_op");
    if exact && same_seed {
        0.0
    } else {
        metric.bound
    }
}

/// The per-layer metrics every workload reports in its traced run; 0
/// where the layer does no work on that workload.
pub const PER_LAYER: &[Spec] = &[
    lower("crypto.schnorr_sign_us", "us"),
    lower("crypto.schnorr_verify_us", "us"),
    lower("crypto.vrf_prove_us", "us"),
    lower("crypto.vrf_verify_us", "us"),
    higher("crypto.sha256_mib_s", "MiB/s"),
    lower("crypto.keygen_n100_ms", "ms"),
    lower("core.value_digest_1k_us", "us"),
    lower("core.sample_n100_us", "us"),
    lower("core.instance_n100_cpu_ms", "ms"),
    lower("core.msgs_per_decision_n100", "count"),
    lower("core.bytes_per_decision_n100", "B"),
    lower("core.msgs_vs_pbft_ratio_n100", "ratio"),
    lower("quorum.sample_size", "count"),
    lower("quorum.quorum_size", "count"),
    lower("quorum.tracker_insert_ns", "ns"),
    higher("smr.ops_per_slot", "count"),
    lower("smr.empty_slot_ratio", "ratio"),
    lower("smr.decide_latency_p50_us", "us"),
    lower("smr.decide_latency_p99_us", "us"),
    lower("smr.apply_latency_p50_us", "us"),
    lower("smr.pending_depth_max", "count"),
    lower("smr.checkpoints_taken", "count"),
    lower("smr.apply_1k_us", "us"),
    lower("smr.snapshot_1mib_ms", "ms"),
    lower("runtime.commit_latency_p50_us", "us"),
    lower("runtime.commit_latency_p99_us", "us"),
    lower("runtime.client_overhead_p50_us", "us"),
    lower("runtime.local_read_p50_us", "us"),
    lower("runtime.local_read_p99_us", "us"),
    lower("runtime.peer_bytes_per_op", "B/op"),
    lower("runtime.checkpoint_bytes_per_op", "B/op"),
    lower("runtime.state_bytes_per_op", "B/op"),
    lower("runtime.request_bytes_per_op", "B/op"),
    lower("runtime.frames_rejected", "count"),
    lower("runtime.redirects_served", "count"),
    lower("runtime.shed_requests", "count"),
    lower("runtime.boot_ms", "ms"),
    lower("runtime.threads", "count"),
    lower("runtime.cpu_s_per_kop", "s"),
    lower("runtime.frame_codec_1k_us", "us"),
    lower("client.retries_per_op", "ratio"),
    lower("client.redirects_per_op", "ratio"),
    lower("client.overloads_per_op", "ratio"),
    higher("client.prekill_throughput_ops_s", "1/s"),
    lower("client.completed_latency_p50_ms", "ms"),
    lower("client.gen_lateness_p99_us", "us"),
    lower("client.inflight_max", "count"),
    higher("simnet.events_per_s", "1/s"),
    lower("simnet.virtual_ticks_per_slot", "count"),
    lower("simnet.propose_msgs_per_slot", "count"),
    lower("simnet.prepare_msgs_per_slot", "count"),
    lower("simnet.commit_msgs_per_slot", "count"),
    lower("simnet.propose_bytes_per_slot", "B"),
    lower("simnet.prepare_bytes_per_slot", "B"),
    lower("simnet.commit_bytes_per_slot", "B"),
    lower("analysis.predicted_msgs_per_slot_n100", "count"),
    lower("analysis.measured_over_predicted", "ratio"),
    lower("process.peak_rss_mb", "MiB"),
    lower("process.trace_overhead_pct", "%"),
];

/// The spec of an end-to-end metric by name.
pub fn end_to_end_spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().find(|s| s.name == name)
}

/// One measured end-to-end value with what it was computed from.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metric {
    /// The value reported.
    pub value: f64,
    /// The values it is the median of (sub-windows, or set-up trials);
    /// empty when it was measured once.
    pub sub: Vec<f64>,
    /// How many raw samples stand behind it.
    pub samples: u64,
}

impl Metric {
    /// A value measured once from `samples` raw samples.
    pub fn once(value: f64, samples: u64) -> Self {
        Metric {
            value,
            sub: Vec::new(),
            samples,
        }
    }

    /// The median of `sub`, from `samples` raw samples in all.
    pub fn median_of(sub: Vec<f64>, samples: u64) -> Self {
        Metric {
            value: stats::median(&sub).unwrap_or(0.0),
            sub,
            samples,
        }
    }

    /// Quartile spread of the values behind it, as a share of their
    /// median.
    pub fn spread(&self) -> Option<f64> {
        stats::quartile_spread(&self.sub)
    }
}

/// Everything one run of one workload found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The workload's name.
    pub workload: String,
    /// Whether spans were being recorded.
    pub traced: bool,
    /// Requests sent to the system in the measured window.
    pub attempted: u64,
    /// Of those, how many returned an error or never returned.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// The end-to-end metrics this workload has, in [`END_TO_END`]
    /// order.
    pub end_to_end: Vec<(&'static str, Metric)>,
    /// Per-layer metrics measured so far, by name.
    pub layer: Vec<(&'static str, f64)>,
    /// Remarks a reader of the numbers needs (what a metric means on this
    /// workload, which percentiles the sample supports, flags).
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The measured value of a per-layer metric; 0 when this workload
    /// never measured it.
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Sets a per-layer metric.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|s| s.name == name),
            "{name} is not declared"
        );
        self.layer.retain(|(n, _)| *n != name);
        self.layer.push((name, value));
    }

    /// The measured end-to-end metric `name`.
    pub fn end_to_end_value(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m)
    }

    /// The listing a person reads: every metric by name with its unit.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({}) — attempted {}, failed {}, {}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            if self.correct() {
                "outputs correct"
            } else {
                "OUTPUT CHECKS FAILED"
            },
        );
        for v in &self.violations {
            let _ = writeln!(out, "   violation: {v}");
        }
        for (name, m) in &self.end_to_end {
            let unit = end_to_end_spec(name).map_or("", |s| s.unit);
            let _ = write!(
                out,
                "   {name:<20} {:>14.4} {unit:<5} n={}",
                m.value, m.samples
            );
            if !m.sub.is_empty() {
                let subs: Vec<String> = m.sub.iter().map(|v| format!("{v:.3}")).collect();
                let _ = write!(out, "  of [{}]", subs.join(" "));
                if let Some(spread) = m.spread() {
                    let _ = write!(out, " spread {:.1}%", spread * 100.0);
                }
            }
            out.push('\n');
        }
        if self.traced {
            for spec in PER_LAYER {
                let _ = writeln!(
                    out,
                    "   {:<40} {:>16.4} {}",
                    spec.name,
                    self.layer_value(spec.name),
                    spec.unit
                );
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "   note: {note}");
        }
        out
    }

    /// The full JSON object (one line), kept in the `--json` file and
    /// read back by `--compare`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"violations\":[",
            quote(&self.workload),
            self.traced,
            self.correct(),
            self.attempted,
            self.failed
        );
        out.push_str(&join(self.violations.iter().map(|v| quote(v))));
        out.push_str("],\"end_to_end\":{");
        out.push_str(&join(self.end_to_end.iter().map(|(name, m)| {
            let unit = end_to_end_spec(name).map_or("", |s| s.unit);
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{},\"sub\":[{}]}}",
                quote(name),
                number(m.value),
                quote(unit),
                m.samples,
                join(m.sub.iter().map(|v| number(*v)))
            )
        })));
        out.push_str("},\"per_layer\":{");
        if self.traced {
            out.push_str(&self.per_layer_json());
        }
        out.push_str("},\"notes\":[");
        out.push_str(&join(self.notes.iter().map(|n| quote(n))));
        out.push_str("]}");
        out
    }

    /// Every per-layer metric as `"name":{"value":…,"unit":…}` members.
    fn per_layer_json(&self) -> String {
        join(
            PER_LAYER
                .iter()
                .map(|spec| value_and_unit(spec, self.layer_value(spec.name))),
        )
    }

    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, where the metrics are every
    /// declared end-to-end metric (untraced) or every per-layer metric
    /// (traced).
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            self.per_layer_json()
        } else {
            join(declared_end_to_end().map(|spec| {
                let value = self.end_to_end_value(spec.name).map_or(0.0, |m| m.value);
                value_and_unit(spec, value)
            }))
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

fn value_and_unit(spec: &Spec, value: f64) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        quote(spec.name),
        number(value),
        quote(spec.unit)
    )
}

fn join(parts: impl Iterator<Item = String>) -> String {
    parts.collect::<Vec<_>>().join(",")
}

/// A number as measured, with all its digits; JSON has no NaN or
/// infinity, so those print as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
