//! PBFT baseline scenarios: normal case, view change, split attack
//! resistance, and the quadratic message count ProBFT improves on.

use probft_core::config::View;
use probft_pbft::{PbftInstanceBuilder, PbftStrategy};
use probft_quorum::ReplicaId;

#[test]
fn normal_case_decides_in_view_one() {
    for seed in 0..3 {
        let outcome = PbftInstanceBuilder::new(10).seed(seed).run();
        assert!(outcome.all_correct_decided(), "seed {seed}: {outcome:?}");
        assert!(outcome.agreement());
        assert_eq!(outcome.decided_views(), vec![View(1)]);
    }
}

#[test]
fn message_complexity_is_quadratic() {
    let outcome = PbftInstanceBuilder::new(50).seed(1).run();
    assert!(outcome.all_correct_decided());
    // Prepare and Commit are all-to-all: n² each (n senders × n receivers).
    let prepare = outcome.metrics.kind("Prepare").sent;
    let commit = outcome.metrics.kind("Commit").sent;
    assert_eq!(prepare, 50 * 50, "prepare broadcast must be n²");
    assert_eq!(commit, 50 * 50, "commit broadcast must be n²");
}

#[test]
fn silent_leader_triggers_view_change() {
    let outcome = PbftInstanceBuilder::new(10)
        .seed(2)
        .byzantine(ReplicaId(0), PbftStrategy::Silent)
        .run();
    assert!(outcome.all_correct_decided(), "{outcome:?}");
    assert!(outcome.agreement());
    assert!(outcome.decided_views().iter().all(|v| *v >= View(2)));
}

#[test]
fn crashed_leader_tolerated() {
    let outcome = PbftInstanceBuilder::new(10)
        .seed(3)
        .byzantine(ReplicaId(0), PbftStrategy::Crash)
        .run();
    assert!(outcome.all_correct_decided(), "{outcome:?}");
    assert!(outcome.agreement());
}

#[test]
fn split_leader_cannot_violate_safety() {
    // With deterministic quorums the split attack can never produce two
    // decisions in the same view — across *any* seed.
    for seed in 0..10 {
        let outcome = PbftInstanceBuilder::new(10)
            .seed(seed)
            .byzantine(ReplicaId(0), PbftStrategy::SplitLeader)
            .run();
        assert!(outcome.agreement(), "seed {seed}: {outcome:?}");
        assert!(outcome.all_correct_decided(), "seed {seed}: {outcome:?}");
    }
}

/// The optimal split of Fig. 4c, which the ProBFT agreement analysis is
/// proved against, seated against PBFT: the view-1 leader and four helpers
/// (f = 5 of n = 16) split the 11 correct replicas and double-vote toward
/// each half. The side of 6 correct + 5 faulty replicas reaches PBFT's
/// quorum of 11 in view 1, the other side cannot, and the rest decide the
/// same value in view 6, the first with a correct leader — deterministic
/// quorums intersect in a correct replica. PBFT's digest votes embed no
/// leader-signed header, so no replica detects the equivocation.
#[test]
fn optimal_split_cannot_violate_safety() {
    for seed in 0..24 {
        let mut builder = PbftInstanceBuilder::new(16).seed(seed);
        for i in 0..5 {
            builder = builder.byzantine(ReplicaId(i), PbftStrategy::OptimalSplitLeader);
        }
        let outcome = builder.run();
        assert!(outcome.agreement(), "seed {seed}: {outcome:?}");
        assert!(outcome.all_correct_decided(), "seed {seed}: {outcome:?}");
        assert_eq!(outcome.equivocation_detections, 0, "seed {seed}");
        assert_eq!(
            outcome.decided_views(),
            vec![View(1), View(6)],
            "seed {seed}"
        );
    }
}

#[test]
fn deterministic_replay() {
    let a = PbftInstanceBuilder::new(10).seed(7).run();
    let b = PbftInstanceBuilder::new(10).seed(7).run();
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.metrics.total_sent(), b.metrics.total_sent());
}
