//! `probft_bench` — the repo benchmark: five named workloads, end-to-end
//! and per-layer metrics, a traced run, and a comparison of two run sets.
//! `benchmarks/README.md` says what each workload and metric is for;
//! `BENCHMARK.json` is the machine-readable declaration.
//!
//! ```text
//! probft_bench [--seed N] [--seconds S] [--trace] [--json PATH] [--out DIR]
//!     every workload, each in a child process under a hard deadline
//! probft_bench --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     the one-line JSON result
//! probft_bench --smoke
//!     a seconds-long pass over the simulated and one live workload
//! probft_bench --compare A.json B.json
//!     one row per workload and end-to-end metric; non-zero on a breach
//! ```

#![forbid(unsafe_code)]

mod compare;
mod json;
mod live;
mod load;
mod probes;
mod process;
mod report;
mod sim;
mod stats;
mod trace;

use report::{Report, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Span;

/// Set-ups per untraced live run (`setup_s` is their median).
const LIVE_SETUPS: usize = 5;
/// Set-ups per untraced simulated run.
const SIM_SETUPS: usize = 5;

/// The workloads run on one CPU: the two closed loops, whose rate is
/// whatever the processors allow. On a two-CPU slice of a shared host that
/// rate has two values, one for when the 30 (or 270) threads spread over
/// both CPUs and one, a third lower, for when the host lets only one of
/// them make progress, and a set of runs lands on both. On one CPU every
/// wake-up is local, there is one value, and it is the processor time an
/// operation costs, which is what a change to the code moves. The paced
/// and open-loop workloads offer a fixed rate and keep both CPUs; the
/// simulation is one thread.
const ONE_CPU: &[&str] = &["live_n4_closed", "live_n16_closed"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    out: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "error: {problem}\nusage: probft_bench [--workload NAME] [--seed N] [--seconds S] \
         [--trace [0|1]] [--json PATH] [--out DIR] | --smoke | --compare A.json B.json\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        json: None,
        out: PathBuf::from("benchmarks/out"),
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?;
            }
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two paths")?),
                    PathBuf::from(value("two paths")?),
                ));
            }
            // `--trace 0|1` from the driver, bare `--trace` from a person.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    if args.smoke {
        let (reports, text) = smoke();
        print!("{text}");
        return exit_code(reports.iter().all(Report::correct));
    }
    match &args.workload {
        Some(name) => one_workload(name, &args),
        None => every_workload(&args),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------------

/// One run of `name`: its report and its spans (empty unless traced).
///
/// On the workloads without a fault no request fails unless the cluster
/// stops serving. About one 10 s run of `live_n4_open_500` in fifty did,
/// on the container this was written in: one replica stopped applying
/// some sixty entries behind the others a second into the run, the 64
/// logical clients all waited on it, and nothing moved again. It never
/// recurred under the same seed, so it says something about the machine
/// at that moment and nothing about the inputs. Such a run is repeated
/// once and the notes say so; a cluster that stops serving because of a
/// change to the code does so on the repeat as well.
fn run_once(
    name: &str,
    seed: u64,
    window: Duration,
    trace: bool,
    setups: usize,
) -> (Report, Vec<Span>) {
    repeat_if_requests_failed(name, || attempt(name, seed, window, trace, setups))
}

fn repeat_if_requests_failed(
    name: &str,
    mut attempt: impl FnMut() -> (Report, Vec<Span>),
) -> (Report, Vec<Span>) {
    let (report, spans) = attempt();
    if report.failed == 0 || name == "live_n7_leader_kill" {
        return (report, spans);
    }
    let (mut repeat, spans) = attempt();
    repeat.notes.push(format!(
        "REPEATED: a first attempt was discarded because {} of its {} requests failed ({})",
        report.failed,
        report.attempted,
        report.violations.join("; ")
    ));
    (repeat, spans)
}

fn attempt(
    name: &str,
    seed: u64,
    window: Duration,
    trace: bool,
    setups: usize,
) -> (Report, Vec<Span>) {
    let plan = live::Plan {
        seed,
        window,
        trace,
        setups,
    };
    match name {
        "live_n4_closed" => live::run_clients(live::ClientWorkload::N4Closed, &plan),
        "live_n16_closed" => live::run_clients(live::ClientWorkload::N16Closed, &plan),
        "live_n7_leader_kill" => live::run_clients(live::ClientWorkload::N7LeaderKill, &plan),
        "live_n4_open_500" => live::run_open(&plan),
        _ => sim::run(&sim::SimPlan {
            n: 100,
            seed,
            window,
            trace,
            setups,
            chunk_ops: sim::CHUNK_OPS,
            counted_chunks: sim::COUNTED_CHUNKS,
        }),
    }
}

/// The untraced run: end-to-end metrics, several set-ups.
fn untraced(name: &str, seed: u64, window: Duration) -> Report {
    let setups = if name.starts_with("sim") {
        SIM_SETUPS
    } else {
        LIVE_SETUPS
    };
    run_once(name, seed, window, false, setups).0
}

/// The traced run: the same workload once without and once with spans
/// (the difference is the tracing overhead), then the per-layer probes.
/// The per-layer metrics come from the traced run; `spans.json` goes to
/// `out`.
fn traced(name: &str, seed: u64, window: Duration, out: &Path) -> Report {
    let (plain, _) = run_once(name, seed, window, false, 1);
    let (mut report, mut spans) = run_once(name, seed, window, true, 1);
    let rate = |r: &Report| {
        r.end_to_end_value("throughput_ops_s")
            .map_or(0.0, |m| m.value)
    };
    if rate(&plain) > 0.0 {
        report.set_layer(
            "process.trace_overhead_pct",
            100.0 * (rate(&plain) - rate(&report)) / rate(&plain),
        );
    }
    report.violations.extend(plain.violations);

    let epoch = Instant::now();
    let mut probe_spans = trace::Spans::new(true, 1 << 20);
    probes::run(&mut report, seed, epoch, &mut probe_spans);
    // Probe spans run on their own clock, after the workload's.
    let offset = spans.iter().map(|s| s.end).max().unwrap_or_default();
    spans.extend(probe_spans.into_vec().into_iter().map(|mut s| {
        s.start += offset;
        s.end += offset;
        s
    }));

    let misnested = trace::misnested(&spans);
    if let Some((child, parent)) = misnested.first() {
        report.violations.push(format!(
            "{} spans lie outside their parent, e.g. span {child} outside {parent}",
            misnested.len()
        ));
    }
    let dir = out.join(name);
    let path = dir.join("spans.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_json(&spans)))
    {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report
            .violations
            .push(format!("writing {}: {e}", path.display())),
    }
    report
}

fn one_workload(name: &str, args: &Args) -> ExitCode {
    // Before any thread is started: the threads inherit the confinement.
    let confined = ONE_CPU.contains(&name).then(process::confine_to_one_cpu);
    let window = Duration::from_secs_f64(args.seconds);
    let mut report = if args.trace {
        traced(name, args.seed, window, &args.out)
    } else {
        untraced(name, args.seed, window)
    };
    match confined {
        Some(Ok(cpu)) => report.notes.push(format!(
            "the whole process (replicas, clients) was confined to CPU {cpu}: \
             throughput_ops_s is what one processor sustains"
        )),
        Some(Err(why)) => report.notes.push(format!(
            "NOT CONFINED to one CPU ({why}): throughput_ops_s is not comparable \
             with a confined run's"
        )),
        None => {}
    }
    print!("{}", report.render());
    if let Some(path) = &args.json {
        if let Err(e) = write_file(path, &format!("{}\n", report.to_json())) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    exit_code(report.correct())
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, text)
}

// ---------------------------------------------------------------------------
// Every workload, each in a child process under a watchdog.
// ---------------------------------------------------------------------------

/// How long one child should take: set-ups, warm-up, the window (and the
/// leader-kill reference period), verification, shutdown. The watchdog
/// allows three times this.
fn nominal(seconds: f64, trace: bool) -> Duration {
    let untraced = 2.0 * seconds + 15.0;
    Duration::from_secs_f64(if trace {
        2.0 * untraced + 10.0
    } else {
        untraced
    })
}

/// Runs one child to completion or to its deadline. Returns its JSON
/// report, or a stand-in saying that it was cut off.
fn run_child(name: &str, args: &Args, trace: bool) -> (String, bool) {
    let suffix = if trace { "trace.json" } else { "json" };
    let json = args.out.join(format!("{name}.{suffix}"));
    let _ = std::fs::remove_file(&json);
    let deadline = nominal(args.seconds, trace) * 3;
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--json")
        .arg(&json)
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .spawn()
        .expect("child starts");
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("child status") {
            Some(status) => break Some(status),
            None if started.elapsed() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    match (status, std::fs::read_to_string(&json)) {
        (Some(status), Ok(text)) => (text.trim().to_string(), status.success()),
        (status, _) => {
            // Cut off (or crashed) before it could report: every request
            // it had not finished counts as failed.
            let why = match status {
                None => format!("watchdog: killed after {} s", deadline.as_secs()),
                Some(status) => format!("child ended with {status} and no report"),
            };
            println!("== {name}: {why}");
            let cut = Report {
                workload: name.to_string(),
                traced: trace,
                attempted: 1,
                failed: 1,
                end_to_end: vec![("failed_ratio", report::Metric::once(1.0, 1))],
                violations: vec![why],
                ..Report::default()
            };
            (cut.to_json(), false)
        }
    }
}

fn every_workload(args: &Args) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "probft_bench: seed {}, {} s windows, {cores} cores; loopback TCP, no message delay injected",
        args.seed, args.seconds
    );
    let mut runs = Vec::new();
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let (json, ok) = run_child(name, args, trace);
            all_ok &= ok;
            runs.push(json);
        }
    }
    let doc = format!(
        "{{\"bench\":\"probft_bench\",\"seed\":{},\"seconds\":{},\"cores\":{cores},\"runs\":[\n{}\n]}}\n",
        args.seed,
        args.seconds,
        runs.join(",\n")
    );
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| args.out.join("run.json"));
    match write_file(&path, &doc) {
        Ok(()) => println!("run set written to {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    exit_code(all_ok)
}

// ---------------------------------------------------------------------------
// `--compare` and `--smoke`.
// ---------------------------------------------------------------------------

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::Json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let rows = read(a).and_then(|a| read(b).and_then(|b| compare::rows(&a, &b)));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            exit_code(rows.iter().all(|r| r.verdict != compare::Verdict::Breach))
        }
        Err(problem) => {
            eprintln!("error: {problem}");
            ExitCode::from(2)
        }
    }
}

/// A seconds-long pass: the simulated workload at n = 16 over chunks of
/// 8 PUTs and one second of `live_n4_closed`. Returns the reports and what to print
/// (listings, then one JSON object per line).
fn smoke() -> (Vec<Report>, String) {
    let sim = sim::run(&sim::SimPlan {
        n: 16,
        seed: 1,
        window: Duration::from_millis(200),
        trace: false,
        setups: 1,
        chunk_ops: 8,
        counted_chunks: 1,
    })
    .0;
    let live = run_once("live_n4_closed", 1, Duration::from_secs(1), false, 1).0;
    let reports = vec![sim, live];
    let mut text = String::new();
    for r in &reports {
        text.push_str(&r.render());
    }
    for r in &reports {
        text.push_str(&r.to_json());
        text.push('\n');
    }
    (reports, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use report::declared_end_to_end;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .map(|list| {
                list.items()
                    .iter()
                    .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let e2e: Vec<&str> = declared_end_to_end().map(|s| s.name).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layer: Vec<&str> = report::PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        for (spec, declared) in
            declared_end_to_end().zip(doc.get("end_to_end").map(Json::items).unwrap_or_default())
        {
            assert_eq!(declared.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                declared.get("bound").and_then(Json::as_f64),
                Some(spec.bound)
            );
            let better = if spec.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(declared.get("better").and_then(Json::as_str), Some(better));
        }
    }

    /// The non-comment lines of a manifest's `[header]` table.
    fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    /// These sources build under two manifests: the one beside them, which
    /// the benchmark contract asks for and `BENCHMARK.json` runs, and
    /// `probft-bench`'s, which discovers them as a binary and runs these
    /// tests. What is measured must be what the workspace would build:
    /// the same release profile and the same crates from the same places.
    #[test]
    fn own_manifest_builds_what_the_workspace_builds() {
        let own = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        assert_eq!(
            table(own, "[profile.release]"),
            table(root, "[profile.release]")
        );
        let deps = table(own, "[dependencies]");
        assert!(!deps.is_empty());
        for dep in deps {
            let (name, path) = dep
                .split_once(" = { path = \"../../../../")
                .and_then(|(name, rest)| Some((name, rest.strip_suffix("\" }")?)))
                .unwrap_or_else(|| {
                    panic!("`{dep}` is not a path dependency on a crate of this repo")
                });
            assert!(
                table(bench, "[dependencies]")
                    .contains(&format!("{name}.workspace = true").as_str()),
                "{name} is not a dependency of probft-bench"
            );
            assert!(
                table(root, "[workspace.dependencies]")
                    .iter()
                    .any(|line| line.starts_with(&format!("{name} = {{ path = \"crates/{path}\""))),
                "the workspace does not take {name} from crates/{path}"
            );
        }
    }

    #[test]
    fn a_run_whose_requests_failed_is_repeated_once_and_says_so() {
        let outcomes = |failed: &'static [u64]| {
            let mut left = failed.iter();
            move || {
                let report = Report {
                    attempted: 10,
                    failed: *left.next().expect("no third attempt"),
                    ..Report::default()
                };
                (report, Vec::new())
            }
        };
        let (kept, _) = repeat_if_requests_failed("live_n4_open_500", outcomes(&[10, 0]));
        assert_eq!(kept.failed, 0);
        assert!(kept.notes.iter().any(|n| n.starts_with("REPEATED")));
        // Failing twice is reported as failing.
        let (kept, _) = repeat_if_requests_failed("live_n4_open_500", outcomes(&[10, 3]));
        assert_eq!(kept.failed, 3);
        // Nothing failed, or failing is the workload: one attempt.
        let (kept, _) = repeat_if_requests_failed("live_n4_closed", outcomes(&[0]));
        assert!(kept.notes.is_empty());
        let (kept, _) = repeat_if_requests_failed("live_n7_leader_kill", outcomes(&[2]));
        assert_eq!((kept.failed, kept.notes.len()), (2, 0));
    }

    #[test]
    fn smoke_pass_reports_every_end_to_end_metric() {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let (reports, text) = smoke();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.correct(), "{:?}", report.violations);
            assert_eq!(report.failed, 0);
            let parsed = Json::parse(&report.to_json()).expect("report is JSON");
            let line = Json::parse(&report.result_line()).expect("result line is JSON");
            for name in names(&doc, "end_to_end") {
                for (object, key) in [(&parsed, "end_to_end"), (&line, "metrics")] {
                    let value = object
                        .get(key)
                        .and_then(|m| m.get(&name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(|v| v > 0.0),
                        "{}: {name} is {value:?} under {key}",
                        report.workload
                    );
                }
                assert!(text.contains(&format!("\"{name}\"")));
            }
        }
    }
}
