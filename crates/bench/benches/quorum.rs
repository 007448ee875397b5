//! Criterion timings for quorum tracking: vote-insertion throughput at
//! ProBFT (q = 2√n) and PBFT (⌈(n+f+1)/2⌉) thresholds, and one phase of
//! votes as a replica tracks them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probft_core::config::{ProbftConfig, View};
use probft_core::message::{CertVote, PhaseBody, Propose};
use probft_core::sampling::Phase;
use probft_core::value::Value;
use probft_crypto::keyring::Keyring;
use probft_quorum::{sizes, QuorumTracker, ReplicaId};

fn bench_tracker(c: &mut Criterion) {
    let mut g = c.benchmark_group("quorum_tracker");
    for n in [100usize, 400] {
        let f = sizes::max_faults(n);
        let probft_q = sizes::probabilistic_quorum(n, 2.0);
        let pbft_q = sizes::deterministic_quorum(n, f);

        g.bench_with_input(BenchmarkId::new("probft_quorum", n), &n, |b, &n| {
            b.iter(|| {
                let mut t: QuorumTracker<u64, ()> = QuorumTracker::new(probft_q);
                for i in 0..n {
                    t.insert(1, ReplicaId::from(i), ());
                }
                assert!(t.is_reached(&1));
            })
        });
        g.bench_with_input(BenchmarkId::new("pbft_quorum", n), &n, |b, &n| {
            b.iter(|| {
                let mut t: QuorumTracker<u64, ()> = QuorumTracker::new(pbft_q);
                for i in 0..n {
                    t.insert(1, ReplicaId::from(i), ());
                }
                assert!(t.is_reached(&1));
            })
        });
    }
    // The shape a replica runs, which the `u64`-keyed rows above hide: a
    // `(View, Digest)` key and a signed vote per sender, one phase's
    // s = 34 votes at n = 100 against q = 20.
    let cfg = ProbftConfig::builder(100).build();
    let ring = Keyring::generate(cfg.n(), b"bench-tracker");
    let leader = ring.signing_key(0).unwrap();
    let header = Propose::lead(
        leader,
        ReplicaId(0),
        View::FIRST,
        Value::from_tag(1),
        vec![],
    )
    .proposal;
    let voter = ring.signing_key(3).unwrap();
    let vote = PhaseBody::cast(voter, &cfg, Phase::Prepare, ReplicaId(3), &header);
    let key = (header.view, header.digest);
    let (q, s) = (cfg.probabilistic_quorum(), cfg.sample_size());
    assert_eq!((q, s), (20, 34));
    g.bench_function("vote_shaped", |b| {
        b.iter(|| {
            let mut t = QuorumTracker::new(q);
            for i in 0..s {
                t.insert(key, ReplicaId::from(i), vote);
            }
            assert!(t.is_reached(&key));
        })
    });
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    use probft_crypto::prg::{sample_distinct, Prg};
    let mut g = c.benchmark_group("sample_distinct");
    for n in [100usize, 400, 10_000] {
        let s = ((1.7 * 2.0 * (n as f64).sqrt()).ceil() as usize).min(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut prg = Prg::from_seed(b"bench");
                sample_distinct(&mut prg, s, n)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tracker, bench_sampling);
criterion_main!(benches);
