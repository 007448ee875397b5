//! §3.3 — message and communication complexity, including the view-change
//! path.
//!
//! Measures, in the simulator: (a) the good case, and (b) a forced view
//! change (silent view-1 leader), reporting message counts and bytes. The
//! paper's statements being validated:
//!
//! - good case: `Ω(n√n)` messages for ProBFT vs `Ω(n²)` for PBFT;
//! - view change: ProBFT's communication complexity grows to `O(n²√n)`
//!   because NewLeader messages carry prepared certificates of `O(√n)`
//!   Prepare messages and the new leader rebroadcasts a deterministic
//!   quorum of them.

use probft_bench::{fmt_count, print_row};
use probft_core::config::View;
use probft_core::harness::{InstanceBuilder, InstanceOutcome};
use probft_core::ByzantineStrategy;
use probft_pbft::{PbftInstanceBuilder, PbftStrategy};
use probft_quorum::ReplicaId;
use probft_simnet::metrics::MessageMetrics;

fn main() {
    println!("§3.3 — measured message/communication complexity\n");
    print_row(
        "scenario",
        &[
            "n".into(),
            "messages".into(),
            "bytes".into(),
            "bytes/PBFT".into(),
            "msgs/n^1.5".into(),
            "msgs/n^2".into(),
        ],
    );

    for n in [50usize, 100, 150] {
        // ProBFT good case: termination in view 1 is probabilistic, so
        // scan seeds for a run where every replica decided in view 1 (the
        // figure's good-case definition).
        let good = clean_view1_run(n);
        // ProBFT with a silent leader: one view change.
        let vc = InstanceBuilder::new(n)
            .seed(3)
            .byzantine(ReplicaId(0), ByzantineStrategy::Silent)
            .run();
        // PBFT, same two scenarios, for reference.
        let pbft = PbftInstanceBuilder::new(n).seed(3).run();
        let pbft_vc = PbftInstanceBuilder::new(n)
            .seed(3)
            .byzantine(ReplicaId(0), PbftStrategy::Silent)
            .run();

        for (label, run, reference) in [
            ("ProBFT good", &good, &pbft),
            ("ProBFT viewchg", &vc, &pbft_vc),
            ("PBFT good", &pbft, &pbft),
            ("PBFT viewchg", &pbft_vc, &pbft_vc),
        ] {
            assert!(run.all_correct_decided(), "{label} n={n}");
            emit(label, n, &run.metrics, reference.metrics.total_bytes());
        }
        println!();
    }

    println!("Reading: ProBFT-good msgs/n^1.5 is a stable constant (≈ 2·o·l)");
    println!("while msgs/n² shrinks — the O(n√n) claim. PBFT-good msgs/n² is");
    println!("the stable constant (≈ 2) instead. bytes/PBFT is each row's bytes");
    println!("over the PBFT row of the same scenario: a ProBFT vote is 104 bytes");
    println!("(leader-signed ⟨view, digest⟩ header + VRF proof) to O(√n) replicas");
    println!("against PBFT's 60 bytes to all n, so the ratio falls as n grows.");
    println!("The view-change rows add the new leader's Propose re-broadcasting a");
    println!("deterministic quorum of NewLeader messages; behind a silent leader");
    println!("nobody prepared, so these carry no certificate — ProBFT's O(n²√n)");
    println!("worst case is that Propose with O(√n) votes in each NewLeader.");
}

/// Finds a seed whose run decides entirely in view 1 (no straggler).
fn clean_view1_run(n: usize) -> InstanceOutcome {
    for seed in 0..20 {
        let outcome = InstanceBuilder::new(n).seed(seed).run();
        if outcome.all_correct_decided()
            && outcome.max_view == View(1)
            && outcome.decided_views() == vec![View(1)]
        {
            return outcome;
        }
    }
    panic!("no clean view-1 run in 20 seeds at n = {n} — investigate");
}

fn emit(label: &str, n: usize, metrics: &MessageMetrics, pbft_bytes: u64) {
    let nf = n as f64;
    let (msgs, bytes) = (metrics.total_sent() as f64, metrics.total_bytes() as f64);
    print_row(
        label,
        &[
            n.to_string(),
            fmt_count(msgs),
            fmt_count(bytes),
            format!("{:.3}", bytes / pbft_bytes as f64),
            format!("{:.2}", msgs / nf.powf(1.5)),
            format!("{:.3}", msgs / (nf * nf)),
        ],
    );
}
