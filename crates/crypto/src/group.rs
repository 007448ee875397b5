//! The Schnorr group used by signatures and the VRF.
//!
//! We work in the subgroup of quadratic residues of `Z_p^*` for the safe
//! prime `p = 2q + 1`, which has prime order `q`. All arithmetic is
//! implemented from scratch. Modulo `p` it runs in Montgomery form (no
//! division; `u128` only to hold a 64×64 product), with a fixed 4-bit window
//! for [`GroupElement::pow`], a [`FixedBase`] table of nibble powers for a
//! base raised to many exponents (the generator, and each public key in a
//! [`PublicKeyring`](crate::keyring::PublicKeyring): 15 multiplications
//! instead of some 90) and a simultaneous double exponentiation for the
//! `h^s · Γ^(−c)` a VRF verifier needs — but only *inside* an operation: a
//! [`GroupElement`] at rest is the canonical residue, so encodings,
//! equality and every digest over an element are those of the textbook
//! arithmetic (DESIGN.md, "What receiving a vote costs"). Scalars modulo
//! `q` are reduced with `%`: a verifier negates one and multiplies none.
//!
//! **Security note (documented substitution):** `p` is a 63-bit safe prime,
//! so the discrete logarithm here is breakable in practice (~2³¹ work). The
//! ProBFT paper *assumes* cryptography is unbreakable (§2.1); the toy group
//! keeps the construction structurally identical to a production deployment
//! (swap in a 256-bit group) while staying dependency-free and fast enough
//! for large-scale simulation. See DESIGN.md, "Substitutions".
//!
//! # Examples
//!
//! ```
//! use probft_crypto::group::{GroupElement, Scalar};
//!
//! let x = Scalar::new(12345);
//! let y = GroupElement::generator().pow(x);
//! assert_eq!(y, GroupElement::generator().pow(Scalar::new(12344)) * GroupElement::generator());
//! ```

use crate::sha256::{Digest, Sha256};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// The group modulus: a 63-bit safe prime, `P = 2·Q + 1`.
pub const P: u64 = 9_223_372_036_854_771_239;

/// The prime order of the quadratic-residue subgroup: `Q = (P − 1) / 2`.
pub const Q: u64 = 4_611_686_018_427_385_619;

/// The subgroup generator `g = 4 = 2²`, a quadratic residue.
pub const G: u64 = 4;

// ---------------------------------------------------------------------------
// Arithmetic modulo `P`, in Montgomery form with `R = 2⁶⁴`.
//
// The Montgomery form of `a` is `a·R mod P`; `redc` divides by `R` modulo
// `P` with two multiplications and no division, so a product of two forms
// costs three 64×64 multiplications where `u128 % P` costs a 128-bit
// division. Forms never leave this section: every function whose name
// lacks `mont_` takes and returns canonical residues.
// ---------------------------------------------------------------------------

/// `−P⁻¹ mod 2⁶⁴`, by Newton's iteration (`P` is its own inverse modulo 8,
/// and each step doubles the number of correct low bits: 3 → 96).
const P_NEG_INV: u64 = {
    let mut inv = P;
    let mut step = 0;
    while step < 5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)));
        step += 1;
    }
    inv.wrapping_neg()
};

/// `R mod P`: the Montgomery form of 1.
const MONT_ONE: u64 = ((1u128 << 64) % P as u128) as u64;

/// `R² mod P`: multiplying by it (and reducing) converts into Montgomery
/// form.
const MONT_R2: u64 = ((MONT_ONE as u128 * MONT_ONE as u128) % P as u128) as u64;

/// Montgomery reduction: `t·R⁻¹ mod P`, for `t < P·R`.
///
/// `m` is chosen so that `t + m·P` is divisible by `R`. With `t < P·R` and
/// `m < R`, the sum is below `2·P·R < 2¹²⁸` (since `P < 2⁶³`) — no overflow —
/// and the quotient is below `2·P`, so one subtraction finishes.
#[inline]
const fn redc(t: u128) -> u64 {
    let m = (t as u64).wrapping_mul(P_NEG_INV);
    let u = ((t + m as u128 * P as u128) >> 64) as u64;
    if u >= P {
        u - P
    } else {
        u
    }
}

/// `a·b·R⁻¹ mod P`: the product of two Montgomery forms, as one. Needs
/// `a·b < P·R`, which holds when either factor is below `P`.
#[inline]
const fn mont_mul(a: u64, b: u64) -> u64 {
    redc(a as u128 * b as u128)
}

/// The Montgomery form of any `u64` (reducing it modulo `P` on the way).
#[inline]
const fn to_mont(a: u64) -> u64 {
    mont_mul(a, MONT_R2)
}

/// The canonical residue of a Montgomery form.
#[inline]
const fn from_mont(a: u64) -> u64 {
    redc(a as u128)
}

/// Multiplication modulo `P`: into Montgomery form and back in two
/// reductions.
#[inline]
fn mul_mod_p(a: u64, b: u64) -> u64 {
    mont_mul(to_mont(a), b)
}

/// The first sixteen powers of the Montgomery form `base`.
const fn mont_powers(base: u64) -> [u64; 16] {
    let mut table = [MONT_ONE; 16];
    let mut i = 1;
    while i < 16 {
        table[i] = mont_mul(table[i - 1], base);
        i += 1;
    }
    table
}

/// `base^exp` on Montgomery forms, by a 4-bit fixed window: one table of
/// `base⁰ … base¹⁵`, then, from the highest nibble of `exp` that is set
/// down, four squarings and one table multiplication per nibble.
fn mont_pow(base: u64, exp: u64) -> u64 {
    let table = mont_powers(base);
    let mut shift = (63 - (exp | 1).leading_zeros()) & !3;
    let mut acc = table[((exp >> shift) & 15) as usize];
    while shift > 0 {
        shift -= 4;
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, table[((exp >> shift) & 15) as usize]);
    }
    acc
}

/// Modular exponentiation `base^exp mod P`, for any 64-bit base and
/// exponent.
fn pow_mod_p(base: u64, exp: u64) -> u64 {
    from_mont(mont_pow(to_mont(base), exp))
}

/// Powers of one fixed base from a precomputed table: `table[i][d]` is the
/// Montgomery form of `base^(d·16^i)` — every value a nibble of an exponent
/// can contribute — so `base^k` is the product of one entry per nibble of
/// `k` and takes no squaring at all: 15 multiplications where
/// [`GroupElement::pow`] takes some 90.
///
/// The table is 2 KiB and costs 256 multiplications to build, so it pays
/// for a base raised to many exponents: the generator (one `static`
/// instance, behind [`GroupElement::generator_pow`]) and each replica's
/// public key, whose `y^(−e)` every signature and VRF check needs
/// ([`PublicKeyring`](crate::keyring::PublicKeyring) builds one per key).
#[derive(Clone, PartialEq, Eq)]
pub struct FixedBase {
    table: [[u64; 16]; 16],
}

/// The generator's table, evaluated at compile time.
static G_TABLE: FixedBase = FixedBase::new(GroupElement(G));

impl FixedBase {
    /// The table of `base`.
    pub const fn new(base: GroupElement) -> Self {
        let mut table = [[MONT_ONE; 16]; 16];
        let mut base = to_mont(base.0);
        let mut i = 0;
        while i < 16 {
            table[i] = mont_powers(base);
            base = mont_mul(table[i][15], base);
            i += 1;
        }
        FixedBase { table }
    }

    /// `base^k`.
    pub fn pow(&self, k: Scalar) -> GroupElement {
        GroupElement(from_mont(self.mont_pow(k.0)))
    }

    /// `base^exp` as a Montgomery form, for any 64-bit exponent.
    fn mont_pow(&self, exp: u64) -> u64 {
        let [first, rest @ ..] = &self.table;
        let mut acc = first[(exp & 15) as usize];
        for (i, powers) in rest.iter().enumerate() {
            acc = mont_mul(acc, powers[((exp >> (4 * (i + 1))) & 15) as usize]);
        }
        acc
    }
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = GroupElement(from_mont(self.table[0][1]));
        write!(f, "FixedBase({base})")
    }
}

/// `a^x · b^y` on Montgomery forms by simultaneous exponentiation (Straus;
/// "Shamir's trick"): the squarings are shared, and a table of `a^i · b^j`
/// for `i, j < 4` supplies both bases' share of two exponent bits in one
/// multiplication — some 105 multiplications where two [`mont_pow`]s take
/// 180.
fn mont_pow2(a: u64, x: u64, b: u64, y: u64) -> u64 {
    // table[i + 4j] = a^i · b^j
    let mut table = [MONT_ONE; 16];
    for i in 1..4 {
        table[i] = mont_mul(table[i - 1], a);
    }
    for ij in 4..16 {
        table[ij] = mont_mul(table[ij - 4], b);
    }
    let digit = |shift: u32| (((x >> shift) & 3) | ((y >> shift) & 3) << 2) as usize;
    let mut shift = (63 - (x | y | 1).leading_zeros()) & !1;
    let mut acc = table[digit(shift)];
    while shift > 0 {
        shift -= 2;
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, acc);
        acc = mont_mul(acc, table[digit(shift)]);
    }
    acc
}

/// A scalar: an exponent modulo the subgroup order [`Q`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Scalar(u64);

impl Scalar {
    /// The additive identity.
    pub const ZERO: Scalar = Scalar(0);
    /// The multiplicative identity.
    pub const ONE: Scalar = Scalar(1);

    /// Creates a scalar, reducing `value` modulo [`Q`].
    pub fn new(value: u64) -> Self {
        Scalar(value % Q)
    }

    /// Derives a scalar from a digest (big-endian reduction).
    ///
    /// The 64-bit prefix of a uniform 256-bit digest is statistically close
    /// to uniform modulo the 62-bit `Q`.
    pub fn from_digest(d: Digest) -> Self {
        Scalar::new(d.to_u64())
    }

    /// Returns the canonical representative in `[0, Q)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Byte encoding (8 bytes, big-endian).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes a scalar, rejecting non-canonical (≥ Q) encodings.
    pub fn from_bytes(bytes: [u8; 8]) -> Option<Self> {
        let v = u64::from_be_bytes(bytes);
        (v < Q).then_some(Scalar(v))
    }

    /// Multiplicative inverse via Fermat's little theorem (`Q` is prime).
    ///
    /// Returns `None` for zero.
    pub fn invert(self) -> Option<Scalar> {
        if self.0 == 0 {
            return None;
        }
        // a^(Q-2) mod Q
        let mut acc: u64 = 1;
        let mut b = self.0;
        let mut exp = Q - 2;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = ((acc as u128 * b as u128) % Q as u128) as u64;
            }
            b = ((b as u128 * b as u128) % Q as u128) as u64;
            exp >>= 1;
        }
        Some(Scalar(acc))
    }
}

impl Add for Scalar {
    type Output = Scalar;
    fn add(self, rhs: Scalar) -> Scalar {
        Scalar((((self.0 as u128) + (rhs.0 as u128)) % Q as u128) as u64)
    }
}

impl Sub for Scalar {
    type Output = Scalar;
    fn sub(self, rhs: Scalar) -> Scalar {
        self + (-rhs)
    }
}

impl Neg for Scalar {
    type Output = Scalar;
    fn neg(self) -> Scalar {
        if self.0 == 0 {
            self
        } else {
            Scalar(Q - self.0)
        }
    }
}

impl Mul for Scalar {
    type Output = Scalar;
    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(((self.0 as u128 * rhs.0 as u128) % Q as u128) as u64)
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An element of the order-`Q` quadratic-residue subgroup of `Z_P^*`.
///
/// The representation is the canonical residue in `[1, P)`. Constructors
/// guarantee subgroup membership, so equality of representatives is group
/// equality.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupElement(u64);

impl GroupElement {
    /// The group identity.
    pub const IDENTITY: GroupElement = GroupElement(1);

    /// The fixed subgroup generator.
    pub fn generator() -> Self {
        GroupElement(G)
    }

    /// Exponentiation: `self^k`.
    pub fn pow(self, k: Scalar) -> Self {
        GroupElement(pow_mod_p(self.0, k.0))
    }

    /// `g^k` for the fixed generator, from its [`FixedBase`] table: a sixth
    /// of the multiplications [`pow`](Self::pow) takes. What signing, key
    /// generation and the `g` half of every verification use.
    pub fn generator_pow(k: Scalar) -> Self {
        G_TABLE.pow(k)
    }

    /// `a^x · b^y` in one pass over both exponents — the `h^s · Γ^(−c)` of
    /// a DLEQ check — for little more than the price of one
    /// [`pow`](Self::pow).
    pub fn double_pow(a: Self, x: Scalar, b: Self, y: Scalar) -> Self {
        GroupElement(from_mont(mont_pow2(to_mont(a.0), x.0, to_mont(b.0), y.0)))
    }

    /// The group inverse.
    pub fn invert(self) -> Self {
        // a^(P-2) mod P
        GroupElement(pow_mod_p(self.0, P - 2))
    }

    /// Hashes arbitrary bytes to a group element with unknown discrete log.
    ///
    /// The digest is reduced into `Z_P^*` and squared; squaring maps onto the
    /// quadratic-residue subgroup. A zero residue (probability ~2⁻⁶³ per
    /// attempt) is retried with a counter, so the function is total.
    pub fn hash_to_group(input: &[u8]) -> Self {
        let mut ctr: u32 = 0;
        loop {
            let d = Sha256::digest_parts(&[b"probft-h2g-v1", input, &ctr.to_be_bytes()]);
            let r = d.to_u64() % P;
            if r != 0 {
                return GroupElement(mul_mod_p(r, r));
            }
            ctr += 1;
        }
    }

    /// Returns the canonical representative in `[1, P)`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Byte encoding (8 bytes, big-endian).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes an element, verifying subgroup membership.
    ///
    /// Returns `None` unless the value is in `[1, P)` and is a quadratic
    /// residue (i.e. `v^Q ≡ 1 (mod P)`), which rejects both malformed and
    /// small-subgroup-attack encodings.
    pub fn from_bytes(bytes: [u8; 8]) -> Option<Self> {
        let v = u64::from_be_bytes(bytes);
        if v == 0 || v >= P {
            return None;
        }
        (pow_mod_p(v, Q) == 1).then_some(GroupElement(v))
    }
}

impl Mul for GroupElement {
    type Output = GroupElement;
    fn mul(self, rhs: GroupElement) -> GroupElement {
        GroupElement(mul_mod_p(self.0, rhs.0))
    }
}

impl fmt::Debug for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GroupElement({:#x})", self.0)
    }
}

impl fmt::Display for GroupElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The arithmetic the Montgomery code replaced, kept as the reference it
    // must agree with: reduce a `u128` product with `%`, square and multiply.
    fn ref_mul(a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % P as u128) as u64
    }

    fn ref_pow(base: u64, mut exp: u64) -> u64 {
        let (mut acc, mut b) = (1, base % P);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = ref_mul(acc, b);
            }
            b = ref_mul(b, b);
            exp >>= 1;
        }
        acc
    }

    /// `a^x · b^y` through the Montgomery double exponentiation, on and to
    /// canonical residues.
    fn pow2_mod_p(a: u64, x: u64, b: u64, y: u64) -> u64 {
        from_mont(mont_pow2(to_mont(a), x, to_mont(b), y))
    }

    /// Operands on and beside every boundary the code has: zero, the
    /// window sizes, `Q`, `P`, the top bit and `R − 1`.
    const EDGES: [u64; 16] = [
        0,
        1,
        2,
        3,
        G,
        15,
        16,
        Q - 1,
        Q,
        P - 2,
        P - 1,
        P,
        P + 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Run by CI's debug-profile pass too, where an intermediate that did
    /// not fit — `t + m·P` in `redc` is the one that comes close, and stays
    /// below `2¹²⁸` because `P < 2⁶³` — would panic.
    #[test]
    fn montgomery_arithmetic_matches_the_reference_on_edge_operands() {
        assert_eq!(P.wrapping_mul(P_NEG_INV), u64::MAX, "P · (−P⁻¹) ≡ −1");
        assert_eq!(from_mont(MONT_ONE), 1);
        assert_eq!(to_mont(1), MONT_ONE);
        for a in EDGES {
            assert_eq!(from_mont(to_mont(a)), a % P);
            assert_eq!(from_mont(G_TABLE.mont_pow(a)), ref_pow(G, a), "g^{a}");
            let table = FixedBase::new(GroupElement(a));
            for b in EDGES {
                assert_eq!(
                    from_mont(table.mont_pow(b)),
                    ref_pow(a, b),
                    "{a}^{b} by table"
                );
                assert_eq!(mul_mod_p(a, b), ref_mul(a, b), "{a} · {b}");
                assert_eq!(pow_mod_p(a, b), ref_pow(a, b), "{a}^{b}");
                for (x, y) in [(0, 0), (1, 0), (0, 1), (3, 12), (Q - 1, 1), (a, b), (b, a)] {
                    let expected = ref_mul(ref_pow(a, x), ref_pow(b, y));
                    assert_eq!(pow2_mod_p(a, x, b, y), expected, "{a}^{x} · {b}^{y}");
                }
                for x in EDGES {
                    let expected = ref_mul(ref_pow(a, x), ref_pow(b, u64::MAX - x));
                    assert_eq!(pow2_mod_p(a, x, b, u64::MAX - x), expected);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random operands, with exponents of every length so that each
        /// window is the first one some of the time.
        #[test]
        fn montgomery_arithmetic_matches_the_reference(
            (a, b) in (any::<u64>(), any::<u64>()),
            (x, y) in (any::<u64>(), any::<u64>()),
            (short_x, short_y) in (0u32..64, 0u32..64),
        ) {
            let (x, y) = (x >> short_x, y >> short_y);
            prop_assert_eq!(mul_mod_p(a, b), ref_mul(a, b));
            prop_assert_eq!(pow_mod_p(a, x), ref_pow(a, x));
            prop_assert_eq!(from_mont(G_TABLE.mont_pow(x)), ref_pow(G, x));
            let table = FixedBase::new(GroupElement(a));
            prop_assert_eq!(from_mont(table.mont_pow(x)), ref_pow(a, x));
            prop_assert_eq!(pow2_mod_p(a, x, b, y), ref_mul(ref_pow(a, x), ref_pow(b, y)));

            // The same through the public operations, on group elements.
            let (ea, eb) = (GroupElement(ref_pow(a | 1, 2)), GroupElement(ref_pow(b | 1, 2)));
            let (sx, sy) = (Scalar::new(x), Scalar::new(y));
            prop_assert_eq!((ea * eb).0, ref_mul(ea.0, eb.0));
            prop_assert_eq!(ea.pow(sx).0, ref_pow(ea.0, sx.0));
            prop_assert_eq!(GroupElement::generator_pow(sx), GroupElement::generator().pow(sx));
            prop_assert_eq!(FixedBase::new(ea).pow(sx), ea.pow(sx));
            prop_assert_eq!(GroupElement::double_pow(ea, sx, eb, sy), ea.pow(sx) * eb.pow(sy));
            prop_assert_eq!(GroupElement::from_bytes(ea.pow(sx).to_bytes()), Some(ea.pow(sx)));
        }
    }

    /// Deterministic Miller–Rabin, exact for all u64 with these bases.
    fn is_prime_u64(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            if n == p {
                return true;
            }
            if n.is_multiple_of(p) {
                return false;
            }
        }
        let mut d = n - 1;
        let mut r = 0;
        while d.is_multiple_of(2) {
            d /= 2;
            r += 1;
        }
        'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
            let mut x = {
                let mut acc: u64 = 1;
                let mut b = a % n;
                let mut e = d;
                while e > 0 {
                    if e & 1 == 1 {
                        acc = ((acc as u128 * b as u128) % n as u128) as u64;
                    }
                    b = ((b as u128 * b as u128) % n as u128) as u64;
                    e >>= 1;
                }
                acc
            };
            if x == 1 || x == n - 1 {
                continue;
            }
            for _ in 0..r - 1 {
                x = ((x as u128 * x as u128) % n as u128) as u64;
                if x == n - 1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    #[test]
    fn parameters_are_a_safe_prime_group() {
        assert!(is_prime_u64(P), "P must be prime");
        assert!(is_prime_u64(Q), "Q must be prime");
        assert_eq!(P, 2 * Q + 1, "P must be a safe prime");
    }

    #[test]
    fn generator_has_order_q() {
        let g = GroupElement::generator();
        assert_eq!(g.pow(Scalar::new(0)), GroupElement::IDENTITY);
        assert_ne!(g.pow(Scalar::ONE), GroupElement::IDENTITY);
        // g^Q = identity in the exponent group: Scalar reduces mod Q, so test
        // via raw pow.
        assert_eq!(pow_mod_p(G, Q), 1, "g must lie in the order-Q subgroup");
        assert_ne!(pow_mod_p(G, 2), 1);
    }

    #[test]
    fn scalar_field_axioms_spot_checks() {
        let a = Scalar::new(0xDEAD_BEEF_1234_5678);
        let b = Scalar::new(0x1357_9BDF_2468_ACE0);
        let c = Scalar::new(42);
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + Scalar::ZERO, a);
        assert_eq!(a * Scalar::ONE, a);
        assert_eq!(a - a, Scalar::ZERO);
        assert_eq!(a + (-a), Scalar::ZERO);
    }

    #[test]
    fn scalar_inverse() {
        for v in [1u64, 2, 3, 12345, Q - 1] {
            let s = Scalar::new(v);
            let inv = s.invert().expect("nonzero");
            assert_eq!(s * inv, Scalar::ONE, "v = {v}");
        }
        assert_eq!(Scalar::ZERO.invert(), None);
    }

    #[test]
    fn group_axioms_spot_checks() {
        let g = GroupElement::generator();
        let a = g.pow(Scalar::new(111));
        let b = g.pow(Scalar::new(222));
        assert_eq!(a * b, g.pow(Scalar::new(333)));
        assert_eq!(a * a.invert(), GroupElement::IDENTITY);
        assert_eq!(a * GroupElement::IDENTITY, a);
    }

    #[test]
    fn pow_respects_exponent_arithmetic() {
        let g = GroupElement::generator();
        let x = Scalar::new(98765);
        let y = Scalar::new(43210);
        assert_eq!(g.pow(x).pow(y), g.pow(x * y));
        assert_eq!(g.pow(x) * g.pow(y), g.pow(x + y));
    }

    #[test]
    fn hash_to_group_members_verify() {
        for input in [b"a".as_slice(), b"bb", b"ccc", b""] {
            let h = GroupElement::hash_to_group(input);
            // Must round-trip through the membership-checking decoder.
            assert_eq!(GroupElement::from_bytes(h.to_bytes()), Some(h));
        }
    }

    #[test]
    fn hash_to_group_distinct_inputs_distinct_outputs() {
        assert_ne!(
            GroupElement::hash_to_group(b"view-1|prepare"),
            GroupElement::hash_to_group(b"view-1|commit"),
        );
    }

    #[test]
    fn from_bytes_rejects_invalid() {
        assert_eq!(GroupElement::from_bytes(0u64.to_be_bytes()), None);
        assert_eq!(GroupElement::from_bytes(P.to_be_bytes()), None);
        assert_eq!(GroupElement::from_bytes(u64::MAX.to_be_bytes()), None);
        // A non-residue: the generator of the full group, 2·(any QR) where
        // -1 is a non-residue for safe primes p ≡ 3 (mod 4).
        assert_eq!(P % 4, 3);
        let non_residue = P - 1; // -1 is a non-residue when p ≡ 3 (mod 4)
        assert_eq!(GroupElement::from_bytes(non_residue.to_be_bytes()), None);
    }

    /// Edge inputs no public constructor reaches (`P − 1` is not a
    /// residue), pinned before the arithmetic under them was replaced; the
    /// vectors that go through the public API are in
    /// `tests/known_answers.rs`.
    #[test]
    fn pow_and_invert_known_answers_on_edge_inputs() {
        let (one, minus_one) = (GroupElement(1), GroupElement(P - 1));
        for k in [0, 1, 2, Q - 1] {
            assert_eq!(one.pow(Scalar(k)), one, "1^{k}");
        }
        assert_eq!(one.invert(), one);
        assert_eq!(minus_one.pow(Scalar(0)), one);
        assert_eq!(minus_one.pow(Scalar(1)), minus_one);
        assert_eq!(minus_one.pow(Scalar(2)), one);
        assert_eq!(minus_one.pow(Scalar(Q - 1)), one, "Q − 1 is even");
        assert_eq!(minus_one.invert(), minus_one);
        assert_eq!(minus_one * minus_one, one);
        assert_eq!(minus_one * GroupElement(G), GroupElement(P - G));

        // The raw exponentiation takes any 64-bit exponent, and reduces
        // its base.
        assert_eq!(pow_mod_p(P - 1, Q), P - 1, "Q is odd: −1 is no residue");
        assert_eq!(pow_mod_p(P - 1, P - 1), 1);
        assert_eq!(pow_mod_p(P - 1, P - 2), P - 1);
        assert_eq!(pow_mod_p(P - 1, u64::MAX), P - 1);
        assert_eq!(pow_mod_p(G, P - 1), 1, "Fermat");
        assert_eq!(pow_mod_p(G, P - 2), 0x1fff_ffff_ffff_fb8a);
        assert_eq!(pow_mod_p(G, u64::MAX), 0x536f_38cc_8d06_bb8d);
        assert_eq!(pow_mod_p(0x6546_505f_6cc5_7aa1, Q), 1);
        assert_eq!(pow_mod_p(3, Q), 1);
        assert_eq!(pow_mod_p(11, Q), P - 1, "11 is no residue");
        assert_eq!(pow_mod_p(P + 2, 3), 8);
        assert_eq!(pow_mod_p(u64::MAX, 1), u64::MAX - P - P);
        assert_eq!(pow_mod_p(0, 0), 1);
        assert_eq!(pow_mod_p(0, 5), 0);
        assert_eq!(pow_mod_p(1, u64::MAX), 1);
        assert_eq!(mul_mod_p(P - 1, P - 1), 1);
        assert_eq!(mul_mod_p(P - 1, 1), P - 1);
        assert_eq!(mul_mod_p(0, P - 1), 0);
    }

    #[test]
    fn scalar_from_bytes_rejects_noncanonical() {
        assert_eq!(Scalar::from_bytes(Q.to_be_bytes()), None);
        assert_eq!(
            Scalar::from_bytes((Q - 1).to_be_bytes()),
            Some(Scalar(Q - 1))
        );
    }
}
