//! Figure 1b — number of exchanged messages vs n.
//!
//! Prints the paper's closed-form series for PBFT, HotStuff, and ProBFT
//! with `o ∈ {1.6, 1.7, 1.8}` over `n ∈ [100, 400]`, then validates the
//! formulas by *measuring* real protocol runs in the simulator at a subset
//! of sizes (pass `--measure-large` to measure every point; the default
//! measures up to n = 200 to keep the run quick).

use probft_bench::{fmt_count, print_row};
use probft_core::harness::InstanceBuilder;
use probft_hotstuff::HsInstanceBuilder;
use probft_pbft::PbftInstanceBuilder;

fn main() {
    let measure_large = std::env::args().any(|a| a == "--measure-large");

    println!("Figure 1b — #exchanged messages in the good case (q = 2√n)\n");
    print_row(
        "n",
        &[
            "PBFT".into(),
            "HotStuff".into(),
            "ProBFT o=1.6".into(),
            "ProBFT o=1.7".into(),
            "ProBFT o=1.8".into(),
        ],
    );
    for n in (100..=400).step_by(50) {
        print_row(
            &n.to_string(),
            &[
                fmt_count(probft_analysis::pbft_messages(n)),
                fmt_count(probft_analysis::hotstuff_messages(n)),
                fmt_count(probft_analysis::probft_messages(n, 2.0, 1.6)),
                fmt_count(probft_analysis::probft_messages(n, 2.0, 1.7)),
                fmt_count(probft_analysis::probft_messages(n, 2.0, 1.8)),
            ],
        );
    }

    println!("\nSimulator-measured good-case counts (network messages, self excluded):\n");
    print_row(
        "n",
        &[
            "PBFT".into(),
            "HotStuff".into(),
            "ProBFT o=1.7".into(),
            "formula o=1.7".into(),
        ],
    );
    let sizes: Vec<usize> = if measure_large {
        vec![100, 150, 200, 250, 300, 350, 400]
    } else {
        vec![100, 150, 200]
    };
    // Bytes of the same runs (all messages, wire-encoded), printed below.
    let mut bytes = Vec::new();
    for n in sizes {
        let pbft = PbftInstanceBuilder::new(n).seed(1).run();
        let hs = HsInstanceBuilder::new(n).seed(1).run();
        let probft = InstanceBuilder::new(n).seed(1).overprovision(1.7).run();
        assert!(
            pbft.all_correct_decided() && hs.all_correct_decided() && probft.all_correct_decided(),
            "n={n}: all three protocols must decide"
        );
        print_row(
            &n.to_string(),
            &[
                fmt_count(pbft.metrics.total_sent_excluding_self() as f64),
                fmt_count(hs.metrics.total_sent_excluding_self() as f64),
                fmt_count(probft.metrics.total_sent_excluding_self() as f64),
                fmt_count(probft_analysis::messages::probft_messages_discrete(
                    n, 2.0, 1.7,
                )),
            ],
        );
        bytes.push((n, [&pbft, &hs, &probft].map(|o| o.metrics.total_bytes())));
    }

    println!("\nSimulator-measured bytes of those runs (7-byte value):\n");
    print_row(
        "n",
        &[
            "PBFT".into(),
            "HotStuff".into(),
            "ProBFT o=1.7".into(),
            "ProBFT/PBFT".into(),
        ],
    );
    for (n, [pbft, hs, probft]) in bytes {
        let ratio = probft as f64 / pbft as f64;
        print_row(
            &n.to_string(),
            &[
                fmt_count(pbft as f64),
                fmt_count(hs as f64),
                fmt_count(probft as f64),
                format!("{ratio:.3}"),
            ],
        );
        // The paper's claim is a cost claim: a 104-byte vote to O(√n)
        // recipients must move fewer bytes than a 60-byte vote to all n.
        assert!(ratio < 1.0, "n={n}: ProBFT moves {ratio:.3}× PBFT's bytes");
    }
    println!("\nShape check: PBFT grows ~n², ProBFT ~n√n (about 4–6× fewer");
    println!("messages over this range, and fewer bytes too — a vote carries the");
    println!("leader-signed ⟨view, digest⟩ header and a VRF proof, not the value),");
    println!("HotStuff ~n messages (but 7 steps, Fig. 1a) of O(n) bytes each.");
}
