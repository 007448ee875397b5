//! Cross-protocol integration: the Figure 1 comparison, measured end to
//! end on the same simulator substrate.

use probft::core::harness::{Instance, InstanceOutcome, Protocol};
use probft::core::{Replica, Value};
use probft::hotstuff::HsReplica;
use probft::pbft::PbftReplica;

/// One run of protocol `P`, each message delivered twice with probability
/// `dup_prob`, in which every correct replica must decide and agree.
fn run<P: Protocol>(n: usize, seed: u64, dup_prob: f64) -> InstanceOutcome {
    let outcome = Instance::<P>::new(n)
        .seed(seed)
        .link_faults(0.0, dup_prob)
        .run();
    assert!(
        outcome.all_correct_decided() && outcome.agreement(),
        "{outcome:?}"
    );
    outcome
}

/// Clean `(ProBFT, PBFT, HotStuff)` runs at one population size and seed.
fn all_three(n: usize, seed: u64) -> [InstanceOutcome; 3] {
    [
        run::<Replica>(n, seed, 0.0),
        run::<PbftReplica>(n, seed, 0.0),
        run::<HsReplica>(n, seed, 0.0),
    ]
}

/// All three protocols decide and agree on the leader's value at the same
/// population size and seed.
#[test]
fn all_three_protocols_decide() {
    for outcome in all_three(25, 4) {
        assert_eq!(outcome.decided_value(), Some(&Value::from_tag(0)));
    }
}

/// Duplicated messages change nothing for the deterministic baselines
/// either (the ProBFT case lives in `crates/core/tests/fault_injection.rs`):
/// trackers count distinct senders, so the run decides the clean run's
/// value. Duplication only — loss would test a retransmission property the
/// single-shot baselines were never given.
#[test]
fn duplicated_messages_do_not_change_the_baselines_decision() {
    fn check<P: Protocol>() {
        let clean = run::<P>(20, 8, 0.0);
        let noisy = run::<P>(20, 8, 0.5);
        assert_eq!(
            clean.decided_value().map(|v| v.digest()),
            noisy.decided_value().map(|v| v.digest()),
        );
        assert!(noisy.metrics.total_delivered() > clean.metrics.total_delivered());
    }
    check::<PbftReplica>();
    check::<HsReplica>();
}

/// Message-count ordering of Figure 1b: HotStuff < ProBFT < PBFT, with the
/// ProBFT/PBFT gap consistent with O(n√n) vs O(n²).
#[test]
fn message_ordering_matches_figure_1b() {
    let n = 100;
    let [probft, pbft, hs] = all_three(n, 5);

    let (p, b, h) = (
        probft.metrics.total_sent_excluding_self(),
        pbft.metrics.total_sent_excluding_self(),
        hs.metrics.total_sent_excluding_self(),
    );
    assert!(
        h < p && p < b,
        "ordering broken: hs={h} probft={p} pbft={b}"
    );

    // Closed-form sanity: measured ProBFT within 20% of the formula.
    let formula = probft::analysis::messages::probft_messages_discrete(n, 2.0, 1.7);
    let rel = (p as f64 - formula).abs() / formula;
    assert!(rel < 0.2, "measured {p} vs formula {formula}");

    // PBFT prepare phase is exactly n(n-1) (no self messages counted).
    assert_eq!(pbft.metrics.kind("Prepare").sent, (n * n) as u64);
}

/// Latency ordering of Figure 1a: ProBFT matches PBFT's 3 steps; HotStuff's
/// extra phases cost real (virtual) time.
#[test]
fn latency_ordering_matches_figure_1a() {
    let [probft, pbft, hs] = all_three(31, 6);

    // HotStuff needs strictly more virtual time than both 3-step protocols.
    assert!(
        hs.finished_at > probft.finished_at,
        "hotstuff {} vs probft {}",
        hs.finished_at,
        probft.finished_at
    );
    assert!(
        hs.finished_at > pbft.finished_at,
        "hotstuff {} vs pbft {}",
        hs.finished_at,
        pbft.finished_at
    );
    // ProBFT and PBFT are within 2x of each other (same step count, random
    // delays differ).
    let ratio = probft.finished_at.ticks() as f64 / pbft.finished_at.ticks() as f64;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}

/// The §5 ratio claim measured end to end at n = 200: ProBFT uses below
/// 30% of PBFT's messages (the closed form says 24%, simulator noise and
/// ceilings allowed for).
#[test]
fn measured_ratio_consistent_with_section_5() {
    let probft = run::<Replica>(200, 7, 0.0);
    let pbft = run::<PbftReplica>(200, 7, 0.0);
    let ratio = probft.metrics.total_sent_excluding_self() as f64
        / pbft.metrics.total_sent_excluding_self() as f64;
    assert!(
        (0.15..0.30).contains(&ratio),
        "measured ratio {ratio} out of expected band"
    );
}

/// "PBFT is a vote policy of Algorithm 1", executed: ProBFT configured into
/// the limit — `l = dq/√n`, so a quorum is PBFT's deterministic one, and
/// `o = 4`, so every sample is the whole population — decides, agrees and
/// sends exactly PBFT's messages, kind by kind.
#[test]
fn probft_in_the_limit_sends_exactly_pbfts_messages() {
    for n in [16usize, 25] {
        let dq = Instance::<PbftReplica>::new(n)
            .config()
            .deterministic_quorum();
        let limit = Instance::<Replica>::new(n)
            .seed(4)
            .quorum_multiplier(dq as f64 / (n as f64).sqrt())
            .overprovision(4.0);
        let cfg = limit.config();
        assert_eq!((cfg.probabilistic_quorum(), cfg.sample_size()), (dq, n));

        let limit = limit.run();
        assert!(
            limit.all_correct_decided() && limit.agreement(),
            "{limit:?}"
        );
        let pbft = run::<PbftReplica>(n, 4, 0.0);
        let nn = (n * n) as u64;
        for (kind, expected) in [
            ("Propose", n as u64),
            ("Prepare", nn),
            ("Commit", nn),
            ("NewLeader", 0),
            ("Wish", 0),
        ] {
            assert_eq!(limit.metrics.kind(kind).sent, expected, "{kind}, n={n}");
            assert_eq!(pbft.metrics.kind(kind).sent, expected, "PBFT {kind}, n={n}");
        }
    }
}
