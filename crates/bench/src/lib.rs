//! # probft-bench
//!
//! The benchmark harness for the ProBFT reproduction: one binary per paper
//! artifact (every figure and in-text table), plus criterion timing benches.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 1a (steps / message pattern) | `fig1a_steps` |
//! | Figure 1b (#messages vs n) | `fig1b_messages` |
//! | Figure 5 top-left & bottom-left (agreement) | `fig5_agreement` |
//! | Figure 5 top-right & bottom-right (termination) | `fig5_termination` |
//! | §5 claim: 18–25 % of PBFT's messages | `table_message_ratio` |
//! | §3.3 complexity table (incl. view change) | `table_complexity` |
//!
//! Run any of them with `cargo run -p probft-bench --release --bin <name>`.
//! Each prints the series the paper reports plus our measured counterparts,
//! in aligned plain-text columns (easily diffed and plotted).

#![warn(missing_docs)]

/// Prints a row of right-aligned columns with a left-aligned label.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<16}");
    for c in cells {
        print!(" {c:>14}");
    }
    println!();
}

/// Formats a probability so that near-one values stay readable
/// (`1 - 3.2e-12` instead of `1.0000000`).
pub fn fmt_prob(p: f64) -> String {
    if p >= 1.0 {
        "1".to_string()
    } else if p > 0.9999 {
        format!("1-{:.1e}", 1.0 - p)
    } else {
        format!("{p:.6}")
    }
}

/// Formats a message count with thousands separators.
pub fn fmt_count(v: f64) -> String {
    let v = v.round() as i64;
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_formatting() {
        assert_eq!(fmt_prob(1.0), "1");
        assert_eq!(fmt_prob(0.5), "0.500000");
        assert!(fmt_prob(1.0 - 3.2e-12).starts_with("1-3.2e-12"));
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(319599.0), "319,599");
        assert_eq!(fmt_count(42.0), "42");
        assert_eq!(fmt_count(1000.0), "1,000");
    }
}
