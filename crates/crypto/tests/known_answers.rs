//! Known-answer vectors for everything in this crate whose output another
//! replica must reproduce bit for bit: the sample draw, the VRF proof and
//! its expansion, a Schnorr signature, and the group operations under them.
//!
//! The vectors were generated once, from the implementation as it stood
//! before any of it was optimised, and are not to be edited: an
//! implementation that disagrees with one of them has changed a sample, a
//! proof or a signature that some peer still computes the old way.
//! (`GroupElement`s outside the subgroup cannot be built from here; the
//! edge inputs `1` and `P − 1` are pinned in `group.rs`'s own tests.)

use probft_crypto::group::{GroupElement, Scalar, Q};
use probft_crypto::prg::{sample_distinct, Prg};
use probft_crypto::schnorr::{Signature, SigningKey};
use probft_crypto::vrf::{expand_sample, vrf_check, vrf_prove, vrf_verify, VrfProof};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every draw from populations of 100 and of 16 under the seed
/// `kat-sample`: a sample of `s` is the first `s` of them.
const DRAWS_100: [u32; 100] = [
    40, 69, 4, 44, 45, 68, 98, 94, 23, 3, 99, 96, 67, 26, 28, 16, 32, 51, 54, 10, 19, 29, 61, 62,
    25, 76, 95, 13, 55, 8, 6, 93, 83, 12, 65, 37, 30, 24, 9, 20, 88, 34, 11, 17, 27, 52, 46, 64,
    72, 22, 74, 75, 33, 56, 43, 15, 0, 47, 41, 73, 21, 58, 42, 7, 71, 60, 5, 80, 91, 66, 70, 82,
    57, 97, 92, 1, 2, 77, 63, 59, 84, 50, 48, 36, 87, 90, 39, 14, 79, 78, 18, 53, 31, 38, 85, 86,
    49, 35, 89, 81,
];
const DRAWS_16: [u32; 16] = [0, 3, 4, 12, 9, 11, 1, 13, 15, 2, 8, 7, 10, 14, 5, 6];

#[test]
fn sample_distinct_known_answers() {
    let draw = |s, n| sample_distinct(&mut Prg::from_seed(b"kat-sample"), s, n);
    assert_eq!(draw(14, 16), DRAWS_16[..14]);
    assert_eq!(draw(34, 100), DRAWS_100[..34]);
    assert_eq!(draw(16, 16), DRAWS_16);
    assert_eq!(draw(100, 100), DRAWS_100);
    assert_eq!(draw(0, 16), [0u32; 0]);
}

/// `(seed, s, n, proof bytes, β, sample)` under the key `kat-key`. The first
/// two seeds are `core::sampling::vrf_seed(View(1), Prepare / Commit)`.
type VrfVector = (
    &'static [u8],
    usize,
    usize,
    &'static str,
    &'static str,
    &'static [u32],
);
const VRF_VECTORS: [VrfVector; 3] = [
    (
        b"\0\0\0\0\0\0\0\x01|prepare",
        34,
        100,
        "76f41d53f781e02d127bdd19496bd700030bd4615a3d4e99",
        "d192e3dd7ee0e779013e71ebf64693097d8a8744a9bbd9240b0c0eb6122f01ca",
        &[
            86, 1, 58, 73, 36, 61, 25, 89, 87, 62, 67, 44, 68, 51, 95, 43, 8, 55, 46, 84, 52, 38,
            40, 47, 70, 72, 90, 42, 64, 12, 16, 2, 11, 35,
        ],
    ),
    (
        b"\0\0\0\0\0\0\0\x01|commit",
        14,
        16,
        "2ce915bbee136ff6162ecdb9d5639fe113696e15ae6c74db",
        "9cca3b4c7e46d38e506adb2b1c61d83a584a9a3eb8dabd55572569603009192f",
        &[10, 4, 2, 1, 5, 6, 13, 9, 0, 3, 11, 14, 12, 15],
    ),
    (
        b"",
        4,
        4,
        "0016a3f16d63209817e57f027e06443c3d50d060662ca4dd",
        "3de574a026aa57a6914c395de4ab8d1660f7024f5ad6a6c4958e52b3db88cefd",
        &[1, 2, 0, 3],
    ),
];

#[test]
fn vrf_prove_and_expand_sample_known_answers() {
    let sk = SigningKey::from_seed(b"kat-key");
    let pk = sk.verifying_key();
    assert_eq!(hex(&pk.to_bytes()), "3942877ead363999");
    for (seed, s, n, proof_hex, beta_hex, sample) in VRF_VECTORS {
        let (drawn, proof) = vrf_prove(&sk, seed, s, n);
        assert_eq!(hex(&proof.to_bytes()), proof_hex);
        assert_eq!(hex(proof.output().as_bytes()), beta_hex);
        assert_eq!(drawn, sample);

        // A verifier holding only the bytes reaches the same sample.
        let decoded = VrfProof::from_bytes(proof.to_bytes()).expect("canonical");
        assert!(vrf_check(&pk, seed, &decoded));
        assert_eq!(expand_sample(&decoded, s, n), sample);
        assert!(vrf_verify(&pk, seed, s, n, sample, &decoded));
    }
}

#[test]
fn schnorr_signature_known_answers() {
    let sk = SigningKey::from_seed(b"kat-key");
    let pk = sk.verifying_key();
    for (message, sig_hex) in [
        (b"".as_slice(), "08334d7d63252e6e01af160e15f05989"),
        (b"kat-message", "05fabeb5590c61e514499f9f31466eac"),
    ] {
        let sig = sk.sign(message);
        assert_eq!(hex(&sig.to_bytes()), sig_hex);
        let decoded = Signature::from_bytes(sig.to_bytes()).expect("canonical");
        assert_eq!(pk.verify(message, &decoded), Ok(()));
    }
}

#[test]
fn generator_powers_known_answers() {
    let g = GroupElement::generator();
    for (k, expected) in [
        (0, 0x1),
        (1, 0x4),
        (2, 0x10),
        (Q - 1, 0x1fff_ffff_ffff_fb8a),
        (Q - 2, 0x47ff_ffff_ffff_f5f6),
        (0x0123_4567_89AB_CDEF, 0x6f61_6d27_a937_d458),
    ] {
        assert_eq!(g.pow(Scalar::new(k)).value(), expected, "g^{k}");
    }
    assert_eq!(g.invert().value(), 0x1fff_ffff_ffff_fb8a);
    assert_eq!(
        g.pow(Scalar::new(Q)),
        GroupElement::IDENTITY,
        "Q reduces to 0"
    );
}

#[test]
fn hash_to_group_known_answers() {
    // (input, H2G(input), its inverse = its (Q−1)-th power, its k-th power)
    let k = Scalar::new(0xFEDC_BA98_7654_3210);
    for (input, h, inverse, kth) in [
        (
            b"".as_slice(),
            0x6546_505f_6cc5_7aa1_u64,
            0x4ad0_3d2b_9d93_a700_u64,
            0x329d_0868_e373_9987_u64,
        ),
        (
            b"\0\0\0\0\0\0\0\x01|prepare",
            0x52fa_6196_2d7e_7b4c,
            0x6a33_5fcf_fdc0_5801,
            0x20c3_52ec_8bcb_c1bd,
        ),
        (
            b"kat",
            0x423c_1a62_4f8d_9073,
            0x71eb_d6a4_0c07_98a7,
            0x769a_e7aa_66af_9bb4,
        ),
    ] {
        let element = GroupElement::hash_to_group(input);
        assert_eq!(element.value(), h);
        assert_eq!(element.invert().value(), inverse);
        assert_eq!(element.pow(Scalar::new(Q - 1)).value(), inverse);
        assert_eq!(element.pow(k).value(), kth);
        assert_eq!(element.pow(Scalar::ZERO), GroupElement::IDENTITY);
        assert_eq!(element * element.invert(), GroupElement::IDENTITY);
    }
}
