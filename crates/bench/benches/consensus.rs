//! Criterion timings for full consensus instances: wall-clock cost of one
//! simulated good-case decision for ProBFT, PBFT, and HotStuff, and ProBFT
//! scaling across n — and for the pieces one vote costs its sender and each
//! receiver. (Virtual-time latency and message counts are covered by the
//! figure binaries; these benches measure the implementation.)

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use probft_core::config::{ProbftConfig, View};
use probft_core::harness::InstanceBuilder;
use probft_core::message::{CertVote, PhaseBody, Propose, VerifyCtx};
use probft_core::sampling::Phase;
use probft_core::value::Value;
use probft_crypto::keyring::Keyring;
use probft_hotstuff::HsInstanceBuilder;
use probft_pbft::PbftInstanceBuilder;
use probft_quorum::ReplicaId;

fn bench_protocol_comparison(c: &mut Criterion) {
    let n = 40;
    let mut g = c.benchmark_group("consensus_instance");
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("probft", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = InstanceBuilder::new(n).seed(seed).run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.bench_function(BenchmarkId::new("pbft", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = PbftInstanceBuilder::new(n).seed(seed).run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.bench_function(BenchmarkId::new("hotstuff", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = HsInstanceBuilder::new(n).seed(seed).run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.finish();
}

fn bench_probft_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("probft_scaling");
    g.sample_size(10);
    for n in [25usize, 50, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let o = InstanceBuilder::new(n).seed(seed).run();
                assert!(o.all_correct_decided());
                o.finished_at
            })
        });
    }
    g.finish();
}

/// What a vote costs: `cast` once at its sender; at each receiver `verify`
/// (as a replica runs it, the leader's header already known from the
/// Propose) and `counts_for`, which stops at the draw that picks the
/// receiver — so it is timed for the first and the last member of the
/// sample and for a replica outside it (n = 100; at n = 16 all but two are
/// inside).
fn bench_vote(c: &mut Criterion) {
    let mut g = c.benchmark_group("vote");
    for n in [16usize, 100] {
        let cfg = ProbftConfig::builder(n).build();
        let ring = Keyring::generate(n, b"bench-vote");
        let public = ring.public();
        let sk = ring.signing_key(0).unwrap();
        let header =
            Propose::lead(sk, ReplicaId(0), View::FIRST, Value::from_tag(1), vec![]).proposal;
        let voter = ring.signing_key(3).unwrap();
        let cast = || PhaseBody::cast(voter, &cfg, Phase::Prepare, ReplicaId(3), &header);
        let vote = cast();
        let ctx = VerifyCtx {
            known_header: Some(header),
            ..VerifyCtx::new(&cfg, &public)
        };

        g.bench_function(BenchmarkId::new("cast", n), |b| b.iter(cast));
        g.bench_function(BenchmarkId::new("verify", n), |b| {
            b.iter(|| {
                black_box(&vote)
                    .verify(Phase::Prepare, &ctx)
                    .expect("genuine")
            })
        });
        let sample = vote.sample(&cfg);
        let outsider = cfg.all_replicas().find(|id| !sample.contains(id));
        let receivers = [
            ("counts_for_first", sample.first().copied()),
            ("counts_for_last", sample.last().copied()),
            ("counts_for_outsider", outsider),
        ];
        for (name, receiver) in receivers {
            let Some(receiver) = receiver else { continue };
            g.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| black_box(&vote).counts_for(receiver, &cfg))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_protocol_comparison,
    bench_probft_scaling,
    bench_vote
);
criterion_main!(benches);
