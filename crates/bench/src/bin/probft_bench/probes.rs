//! Per-layer probes for the traced run: each times many calls of one
//! layer's public functions, outside any cluster, so a change to that
//! layer shows here before (and whether or not) it shows end to end.
//!
//! A probe runs until it has made 10 000 calls or one second has passed,
//! whichever comes first, and records one span for the whole batch.

use crate::report::Report;
use crate::stats;
use crate::trace::Spans;
use probft_core::config::{ProbftConfig, View};
use probft_core::harness::InstanceBuilder;
use probft_core::sampling::{derive_sample, Phase};
use probft_core::value::Value;
use probft_core::wire::Wire;
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::{Digest, Sha256};
use probft_crypto::vrf::{vrf_prove, vrf_verify};
use probft_pbft::PbftInstanceBuilder;
use probft_quorum::{QuorumTracker, ReplicaId};
use probft_runtime::{read_frame, write_frame, SmrFrame};
use probft_smr::{Command, KvStore, OpKind, RequestId, Snapshot, StateMachine};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MAX_CALLS: u32 = 10_000;
const MAX_TIME: Duration = Duration::from_secs(1);

/// Calls `f` repeatedly and returns the mean seconds per call.
fn time(name: &'static str, epoch: Instant, spans: &mut Spans, mut f: impl FnMut(u32)) -> f64 {
    let start = epoch.elapsed();
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls < MAX_CALLS && t0.elapsed() < MAX_TIME {
        f(calls);
        calls += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / f64::from(calls.max(1));
    spans.record(name, None, None, start, epoch.elapsed());
    per_call
}

/// Runs every probe and stores its metric in `report`. `seed` picks the
/// keys and the n = 100 instance whose exact counts are reported.
pub fn run(report: &mut Report, seed: u64, epoch: Instant, spans: &mut Spans) {
    let n = 100;
    let cfg = ProbftConfig::builder(n).build();
    let s = cfg.sample_size();

    let ring = Keyring::generate(4, &seed.to_be_bytes());
    let sk = ring.signing_key(0).expect("key 0");
    let pk = ring.verifying_key(0).expect("key 0");
    let msg = vec![0x42u8; 256];
    let sig = sk.sign(&msg);
    report.set_layer(
        "crypto.schnorr_sign_us",
        1e6 * time("probe.crypto.schnorr_sign", epoch, spans, |_| {
            black_box(sk.sign(black_box(&msg)));
        }),
    );
    report.set_layer(
        "crypto.schnorr_verify_us",
        1e6 * time("probe.crypto.schnorr_verify", epoch, spans, |_| {
            pk.verify(black_box(&msg), &sig).expect("valid signature");
        }),
    );
    let (sample, proof) = vrf_prove(sk, b"7|prepare", s, n);
    report.set_layer(
        "crypto.vrf_prove_us",
        1e6 * time("probe.crypto.vrf_prove", epoch, spans, |_| {
            black_box(vrf_prove(sk, black_box(b"7|prepare"), s, n));
        }),
    );
    report.set_layer(
        "crypto.vrf_verify_us",
        1e6 * time("probe.crypto.vrf_verify", epoch, spans, |_| {
            assert!(vrf_verify(pk, b"7|prepare", s, n, &sample, &proof));
        }),
    );
    let block = vec![0xABu8; 64 * 1024];
    let per_block = time("probe.crypto.sha256", epoch, spans, |_| {
        black_box(Sha256::digest(black_box(&block)));
    });
    report.set_layer(
        "crypto.sha256_mib_s",
        block.len() as f64 / (1024.0 * 1024.0) / per_block,
    );
    report.set_layer(
        "crypto.keygen_n100_ms",
        1e3 * time("probe.crypto.keygen_n100", epoch, spans, |i| {
            black_box(Keyring::generate(n, &(seed ^ u64::from(i)).to_be_bytes()));
        }),
    );

    let value = Value::new(vec![0x5Au8; 1024]);
    report.set_layer(
        "core.value_digest_1k_us",
        1e6 * time("probe.core.value_digest_1k", epoch, spans, |_| {
            black_box(black_box(&value).digest());
        }),
    );
    report.set_layer(
        "core.sample_n100_us",
        1e6 * time("probe.core.sample_n100", epoch, spans, |i| {
            black_box(derive_sample(
                sk,
                View(u64::from(i) + 1),
                Phase::Prepare,
                s,
                n,
            ));
        }),
    );
    // One n = 100 decision, run until every replica has decided, timed as
    // the median over the instances run. ProBFT decides in view 1 with
    // high probability, not always: at n = 100 most instances leave a few
    // replicas short of a quorum, and those decide only after a view
    // change, which is most of an instance's cost here. The counts are
    // those of the instance run under the caller's seed, so they repeat
    // exactly for a seed.
    let mut counts = None;
    let mut instance_s = Vec::new();
    time("probe.core.instance_n100", epoch, spans, |i| {
        let t0 = Instant::now();
        let outcome = InstanceBuilder::new(n)
            .seed(seed.wrapping_add(u64::from(i)))
            .run();
        instance_s.push(t0.elapsed().as_secs_f64());
        assert!(outcome.all_correct_decided() && outcome.agreement());
        counts.get_or_insert((outcome.metrics.total_sent(), outcome.metrics.total_bytes()));
    });
    report.set_layer(
        "core.instance_n100_cpu_ms",
        1e3 * stats::median(&instance_s).unwrap_or(0.0),
    );
    let (msgs, bytes) = counts.unwrap_or_default();
    report.set_layer("core.msgs_per_decision_n100", msgs as f64);
    report.set_layer("core.bytes_per_decision_n100", bytes as f64);
    let start = epoch.elapsed();
    let pbft = PbftInstanceBuilder::new(n).seed(seed).run();
    spans.record(
        "probe.pbft.instance_n100",
        None,
        None,
        start,
        epoch.elapsed(),
    );
    assert!(pbft.all_correct_decided() && pbft.agreement());
    report.set_layer(
        "core.msgs_vs_pbft_ratio_n100",
        msgs as f64 / pbft.metrics.total_sent().max(1) as f64,
    );

    let q = cfg.probabilistic_quorum();
    report.set_layer(
        "quorum.tracker_insert_ns",
        1e9 / n as f64
            * time("probe.quorum.tracker_insert", epoch, spans, |_| {
                let mut t: QuorumTracker<u64, ()> = QuorumTracker::new(q);
                for i in 0..n {
                    t.insert(1, ReplicaId::from(i), ());
                }
                assert!(t.is_reached(&1));
            }),
    );

    let big = "v".repeat(1024);
    let put = |i: u32| Command::Put {
        key: format!("k{}", i % 1024),
        value: big.clone(),
    };
    let mut store = KvStore::new();
    report.set_layer(
        "smr.apply_1k_us",
        1e6 * time("probe.smr.apply_1k", epoch, spans, |i| {
            black_box(store.apply(&put(i)));
        }),
    );
    for i in 0..1024 {
        store.apply(&put(i));
    }
    let snapshot = Snapshot {
        slot: 256,
        log_len: 1024,
        log_digest: Digest([0; 32]),
        state: store,
        replies: BTreeMap::new(),
    };
    report.set_layer(
        "smr.snapshot_1mib_ms",
        1e3 * time("probe.smr.snapshot_1mib", epoch, spans, |_| {
            let bytes = snapshot.to_wire_bytes();
            black_box(Snapshot::<KvStore>::digest(&bytes));
        }),
    );

    frame_codec(report, put(0), epoch, spans);
}

/// A 1 KiB request through the codec and the framing, both ways. On its
/// own so that the function that touches the transport calls nothing
/// else: the repo lint takes whatever a frame-handling function calls to
/// be reachable from a socket.
fn frame_codec(report: &mut Report, op: Command, epoch: Instant, spans: &mut Spans) {
    let frame = SmrFrame::<KvStore>::Request {
        request: RequestId { client: 1, seq: 1 },
        kind: OpKind::Write,
        op,
    };
    report.set_layer(
        "runtime.frame_codec_1k_us",
        1e6 * time("probe.runtime.frame_codec_1k", epoch, spans, |_| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame.to_wire_bytes()).expect("vec write");
            let payload = read_frame(&mut wire.as_slice())
                .expect("frame reads")
                .expect("one frame");
            let back = SmrFrame::<KvStore>::from_wire_bytes(&payload).expect("decodes");
            assert!(back == frame);
        }),
    );
}
