//! Criterion timings for the cryptographic substrate: SHA-256 throughput,
//! the group exponentiations, Schnorr sign/verify, VRF prove/verify — the
//! per-message costs that dominate a replica's CPU budget. Verification is
//! timed twice: against a bare key, and against the key's table in a
//! `PublicKeyring`, which is how a replica verifies.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use probft_crypto::group::{FixedBase, GroupElement, Scalar};
use probft_crypto::keyring::Keyring;
use probft_crypto::sha256::Sha256;
use probft_crypto::vrf::{vrf_check, vrf_prove, vrf_verify};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| Sha256::digest(d))
        });
    }
    g.finish();
}

/// The exponentiations a verifier is made of: a window `pow` of an
/// arbitrary base, `g^k` and `a^k` from a fixed-base table, and `a^x · b^y`
/// in one pass (next to the two `pow`s and a product it stands in for).
fn bench_group(c: &mut Criterion) {
    let a = GroupElement::hash_to_group(b"bench-a");
    let b = GroupElement::hash_to_group(b"bench-b");
    let x = Scalar::new(0x0123_4567_89AB_CDEF);
    let y = Scalar::new(0xFEDC_BA98_7654_3210);

    let mut g = c.benchmark_group("group");
    g.bench_function("pow", |bench| bench.iter(|| black_box(a).pow(black_box(x))));
    g.bench_function("generator_pow", |bench| {
        bench.iter(|| GroupElement::generator_pow(black_box(x)))
    });
    let table = FixedBase::new(a);
    g.bench_function("fixed_base_pow", |bench| {
        bench.iter(|| black_box(&table).pow(black_box(x)))
    });
    g.bench_function("double_pow", |bench| {
        bench.iter(|| GroupElement::double_pow(black_box(a), black_box(x), black_box(b), y))
    });
    g.bench_function("pow_times_pow", |bench| {
        bench.iter(|| black_box(a).pow(black_box(x)) * black_box(b).pow(y))
    });
    g.bench_function("mul", |bench| bench.iter(|| black_box(a) * black_box(b)));
    g.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let ring = Keyring::generate(4, b"bench");
    let sk = ring.signing_key(0).unwrap();
    let pk = ring.verifying_key(0).unwrap();
    let public = ring.public();
    let tabled = public.tabled_key(0).unwrap();
    let msg = vec![0x42u8; 256];
    let sig = sk.sign(&msg);

    c.bench_function("schnorr/sign", |b| b.iter(|| sk.sign(&msg)));
    c.bench_function("schnorr/verify", |b| {
        b.iter(|| pk.verify(&msg, &sig).expect("valid"))
    });
    c.bench_function("schnorr/verify_tabled", |b| {
        b.iter(|| tabled.verify(&msg, &sig).expect("valid"))
    });
}

fn bench_vrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("vrf");
    for n in [100usize, 400] {
        let ring = Keyring::generate(4, b"bench-vrf");
        let sk = ring.signing_key(0).unwrap();
        let pk = ring.verifying_key(0).unwrap();
        let q = (2.0 * (n as f64).sqrt()).ceil() as usize;
        let s = ((1.7 * q as f64).ceil() as usize).min(n);
        let (sample, proof) = vrf_prove(sk, b"7|prepare", s, n);

        g.bench_with_input(BenchmarkId::new("prove", n), &n, |b, &n| {
            b.iter(|| vrf_prove(sk, b"7|prepare", s, n))
        });
        g.bench_with_input(BenchmarkId::new("verify", n), &n, |b, &n| {
            b.iter(|| assert!(vrf_verify(pk, b"7|prepare", s, n, &sample, &proof)))
        });
        if n == 100 {
            // The DLEQ half alone, which a vote's receiver runs: bare, and
            // with the key's table.
            let public = ring.public();
            let tabled = public.tabled_key(0).unwrap();
            g.bench_function("check", |b| {
                b.iter(|| assert!(vrf_check(pk, b"7|prepare", &proof)))
            });
            g.bench_function("check_tabled", |b| {
                b.iter(|| assert!(tabled.vrf_check(b"7|prepare", &proof)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_sha256, bench_group, bench_schnorr, bench_vrf);
criterion_main!(benches);
