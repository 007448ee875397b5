//! Figure 5, left column — agreement probability under the optimal
//! split-leader attack (faulty leader in every view).
//!
//! Usage:
//!
//! ```text
//! fig5_agreement              # both sweeps, analytic model + paper bound
//! fig5_agreement --sweep n    # top-left only   (f/n = 0.2, n ∈ [100,300])
//! fig5_agreement --sweep f    # bottom-left only (n = 100, f/n ∈ [0.1,0.3])
//! fig5_agreement --simulate   # add full-protocol Monte Carlo columns
//! ```
//!
//! Columns:
//! - `exact o=…` — the semi-analytic model (quorum formation × detection
//!   avoidance, [`probft_analysis::agreement`]);
//! - `bound o=…` — the paper's Theorem 7 Chernoff bound where its premise
//!   `r ≤ n/o` holds (`n/a` where it does not — see DESIGN.md note 2);
//! - with `--simulate`: violations observed in full protocol runs (the
//!   event-driven simulator with every Byzantine replica double-voting).

use probft_analysis::agreement::{agreement_monte_carlo, AgreementParams};
use probft_bench::{fmt_prob, print_row};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let sweep = args
        .iter()
        .position(|a| a == "--sweep")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("both");
    let simulate = args.iter().any(|a| a == "--simulate");

    if sweep == "n" || sweep == "both" {
        println!("Figure 5 top-left — agreement vs n (f/n = 0.2, q = 2√n)\n");
        header(simulate);
        for n in (100..=300).step_by(25) {
            let f = n / 5;
            row(n, f, simulate);
        }
        println!();
    }
    if sweep == "f" || sweep == "both" {
        println!("Figure 5 bottom-left — agreement vs f/n (n = 100, q = 2√n)\n");
        header(simulate);
        for f in (10..=30).step_by(5) {
            row(100, f, simulate);
        }
        println!();
    }
    println!("Shape: agreement → 1 as n grows, degrades as f/n grows, and");
    println!("improves with o (more contamination, easier equivocation detection).");
}

fn header(simulate: bool) {
    let mut cols = vec![
        "exact o=1.6".to_string(),
        "exact o=1.7".to_string(),
        "exact o=1.8".to_string(),
        "bound o=1.6".to_string(),
    ];
    if simulate {
        cols.push("sim violations".to_string());
    }
    print_row("n / f", &cols);
}

fn row(n: usize, f: usize, simulate: bool) {
    // Violation probabilities are ~1e-12 and smaller — far below f64's
    // resolution around 1.0 — so print agreement as 1 − violation
    // explicitly.
    let exact: Vec<String> = [1.6, 1.7, 1.8]
        .iter()
        .map(|&o| {
            let v =
                probft_analysis::violation_probability(AgreementParams::from_paper(n, f, 2.0, o));
            if v == 0.0 {
                "1".to_string()
            } else {
                format!("1-{v:.1e}")
            }
        })
        .collect();
    let bound = probft_analysis::agreement::agreement_paper_bound(AgreementParams::from_paper(
        n, f, 2.0, 1.6,
    ))
    .map(fmt_prob)
    .unwrap_or_else(|| "n/a".to_string());

    let mut cols = exact;
    cols.push(bound);
    if simulate {
        let p = AgreementParams::from_paper(n, f, 2.0, 1.7);
        let trials = 200;
        let out = agreement_monte_carlo(p, trials, 42 + n as u64);
        cols.push(format!("{}/{}", out.violations, trials));
    }
    print_row(&format!("{n} / {f}"), &cols);
}
