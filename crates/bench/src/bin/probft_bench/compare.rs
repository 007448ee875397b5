//! `--compare <a.json> <b.json>`: one row per workload and end-to-end
//! metric, with both values, the change, and the bound that metric has on
//! that workload (two run sets of one seed must repeat the simulator's
//! counts exactly).
//!
//! A row is *unresolved* when the values behind either side (the five
//! sub-windows of its run) spread wider than the bound: the run cannot
//! tell a change of that size from its own noise, so the row is reported
//! as neither held nor breached. `setup_s` is exempt, as in the contract:
//! its few trials are summarised by their median and judged on that.

use crate::json::Json;
use crate::report::{bound_on, end_to_end_spec, END_TO_END};
use crate::stats;
use std::fmt::Write as _;

/// How one row came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Held,
    /// `b` is worse than `a` by more than the bound.
    Breach,
    /// The spread inside a run exceeds the bound.
    Unresolved,
}

/// One compared (workload, metric) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The end-to-end metric.
    pub metric: &'static str,
    /// Its value in the first file.
    pub a: f64,
    /// Its value in the second file.
    pub b: f64,
    /// By what share of `a` the second is worse (negative: better).
    pub worse_by: f64,
    /// The widest sub-window spread of the two sides, if they have one.
    pub spread: Option<f64>,
    /// The metric's bound on this workload.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

struct Side {
    value: f64,
    spread: Option<f64>,
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("end_to_end")?.get(metric)?;
    let sub: Vec<f64> = m
        .get("sub")
        .map(|s| s.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Side {
        value: m.get("value")?.as_f64()?,
        spread: stats::quartile_spread(&sub),
    })
}

fn untraced_runs(doc: &Json) -> Vec<&Json> {
    doc.get("runs")
        .map(|r| r.items().iter().collect::<Vec<_>>())
        .unwrap_or_default()
        .into_iter()
        .filter(|run| run.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

/// Compares two parsed run files.
///
/// # Errors
///
/// A workload present in one file and missing from the other.
pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let b_runs = untraced_runs(b);
    for run_a in untraced_runs(a) {
        let workload = run_a
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run without a workload name")?;
        let run_b = b_runs
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .ok_or_else(|| format!("{workload} is missing from the second file"))?;
        for spec in END_TO_END {
            let (sa, sb) = match (side(run_a, spec.name), side(run_b, spec.name)) {
                (Some(sa), Some(sb)) => (sa, sb),
                // Not defined on this workload.
                (None, None) => continue,
                _ => return Err(format!("{workload} lacks {}", spec.name)),
            };
            // `failed_ratio` is bounded in absolute terms: it is 0 when
            // all is well, and 0 has no shares.
            let change = if spec.name == "failed_ratio" {
                sb.value - sa.value
            } else if sa.value == 0.0 {
                0.0
            } else {
                (sb.value - sa.value) / sa.value.abs()
            };
            let worse_by = if spec.higher_is_better {
                -change
            } else {
                change
            };
            let spread = match (sa.spread, sb.spread) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let bound = bound_on(workload, spec, same_seed);
            let noisy = spec.name != "setup_s" && spread.is_some_and(|s| s > bound);
            let verdict = if noisy {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Breach
            } else {
                Verdict::Held
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: spec.name,
                a: sa.value,
                b: sb.value,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(out)
}

/// The table a person reads.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in rows {
        let unit = end_to_end_spec(r.metric).map_or("", |s| s.unit);
        let spread = r
            .spread
            .map_or("—".to_string(), |s| format!("{:.1}%", s * 100.0));
        let _ = writeln!(
            out,
            "{:<22} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>6.0}%  {} ({unit})",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Held => "held",
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved",
            },
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} rows: {} held, {} breached, {} unresolved",
        rows.len(),
        count(Verdict::Held),
        count(Verdict::Breach),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Metric, Report};

    fn file(throughput: Vec<f64>, p50: Vec<f64>) -> Json {
        let report = Report {
            workload: "live_n4_closed".into(),
            end_to_end: END_TO_END
                .iter()
                .map(|spec| {
                    let sub = match spec.name {
                        "throughput_ops_s" => throughput.clone(),
                        "latency_p50_ms" => p50.clone(),
                        _ => vec![1.0; 5],
                    };
                    (spec.name, Metric::median_of(sub, 100))
                })
                .collect(),
            ..Report::default()
        };
        Json::parse(&format!("{{\"runs\":[{}]}}", report.to_json())).expect("valid")
    }

    #[test]
    fn rows_are_held_breached_or_unresolved() {
        let steady = vec![1000.0, 1001.0, 999.0, 1000.0, 1002.0];
        let a = file(steady.clone(), vec![1.0, 1.0, 1.01, 0.99, 1.0]);
        // Throughput down 40 % (bound 25 %): a breach. p50 down: held.
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.6).collect();
        let b = file(slower, vec![0.9, 0.9, 0.91, 0.89, 0.9]);
        let rows = rows(&a, &b).expect("same workloads");
        assert_eq!(rows.len(), END_TO_END.len());
        let verdict = |name: &str| {
            rows.iter()
                .find(|r| r.metric == name)
                .map(|r| r.verdict)
                .expect("row exists")
        };
        assert_eq!(verdict("throughput_ops_s"), Verdict::Breach);
        assert_eq!(verdict("latency_p50_ms"), Verdict::Held);
        assert_eq!(verdict("setup_s"), Verdict::Held);
        assert_eq!(verdict("failed_ratio"), Verdict::Held);
        assert!(render(&rows).contains("BREACH"));

        // Sub-windows that disagree by more than the bound: unresolved,
        // whatever the medians say.
        let noisy = file(vec![600.0, 1400.0, 1000.0, 700.0, 1300.0], vec![1.0; 5]);
        let rows = super::rows(&a, &noisy).expect("same workloads");
        assert_eq!(
            rows.iter()
                .find(|r| r.metric == "throughput_ops_s")
                .map(|r| r.verdict),
            Some(Verdict::Unresolved)
        );
    }

    #[test]
    fn one_seed_must_repeat_the_simulators_counts_exactly() {
        let set = |seed: u64, bytes: f64| {
            let report = Report {
                workload: "sim_n100".into(),
                end_to_end: vec![
                    ("bytes_per_op", Metric::once(bytes, 32)),
                    ("msgs_per_op", Metric::once(7000.0, 32)),
                ],
                ..Report::default()
            };
            let doc = format!("{{\"seed\":{seed},\"runs\":[{}]}}", report.to_json());
            Json::parse(&doc).expect("valid")
        };
        let verdicts = |a: &Json, b: &Json| -> Vec<(f64, Verdict)> {
            let rows = rows(a, b).expect("same workloads");
            rows.iter().map(|r| (r.bound, r.verdict)).collect()
        };
        // One byte in a million more under the same seed: a breach.
        assert_eq!(
            verdicts(&set(7, 2_000_000.0), &set(7, 2_000_002.0)),
            vec![(0.0, Verdict::Breach), (0.0, Verdict::Held)]
        );
        // Another seed is another input: the metric's own bound applies.
        assert_eq!(
            verdicts(&set(7, 2_000_000.0), &set(11, 2_020_000.0)),
            vec![(0.05, Verdict::Held), (0.02, Verdict::Held)]
        );
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let a = file(vec![1.0; 5], vec![1.0; 5]);
        let empty = Json::parse("{\"runs\":[]}").expect("valid");
        assert!(rows(&a, &empty).is_err());
        assert_eq!(rows(&empty, &a), Ok(Vec::new()));
    }
}
