//! The concentration bounds of Appendix A and the paper's closed-form
//! theorems built on them.
//!
//! Every bound is implemented exactly as printed (with the one sign fix
//! of DESIGN.md note 1), with its domain of validity made explicit in the
//! return type: the paper's Chernoff-based agreement bounds require
//! `r ≤ n/o`, which *fails* at several of Figure 5's operating points
//! (note 2) — one reason the numerical curves need the exact models in
//! [`crate::termination`] and [`crate::agreement`].

/// Chernoff lower-tail bound (Appendix A, Inequality 1):
/// `P[X ≤ (1−δ)·E[X]] ≤ exp(−δ²·E[X]/2)` for `δ ∈ (0, 1)`.
pub fn chernoff_lower(delta: f64, expectation: f64) -> Option<f64> {
    if !(0.0..1.0).contains(&delta) || delta == 0.0 || expectation <= 0.0 {
        return None;
    }
    Some((-delta * delta * expectation / 2.0).exp())
}

/// Chernoff upper-tail bound (Appendix A, Inequality 2):
/// `P[X ≥ (1+δ)·E[X]] ≤ exp(−δ²·E[X]/(2+δ))` for `δ ≥ 0`.
pub fn chernoff_upper(delta: f64, expectation: f64) -> Option<f64> {
    if delta < 0.0 || expectation <= 0.0 {
        return None;
    }
    Some((-delta * delta * expectation / (2.0 + delta)).exp())
}

/// Hypergeometric tail bound (Appendix A, Inequality 3, after
/// Chvátal/Skala): `P[X ≤ E[X] − r·t] ≤ exp(−2·r·t²)` for
/// `t ∈ (0, M/N)`.
pub fn hypergeometric_tail(draws: u64, t: f64, marked_fraction: f64) -> Option<f64> {
    if t <= 0.0 || t >= marked_fraction {
        return None;
    }
    Some((-2.0 * draws as f64 * t * t).exp())
}

/// Corollary 2: with all `n − f` correct replicas multicasting to samples
/// of size `s = o·q`, a replica forms a probabilistic quorum with
/// probability at least `1 − exp(−q(c−1)²/(2c))`, `c = o·(n−f)/n`,
/// provided `n < o·(n−f)`.
///
/// Returns `None` when the premise fails (then the bound is vacuous).
pub fn corollary2_quorum_lower_bound(n: usize, f: usize, q: f64, o: f64) -> Option<f64> {
    let c = o * (n - f) as f64 / n as f64;
    if c <= 1.0 {
        return None; // premise n < o(n−f) violated
    }
    Some(1.0 - (-(q * (c - 1.0).powi(2)) / (2.0 * c)).exp())
}

/// Theorem 2's admissible range for `o` such that the quorum-formation
/// probability is at least `1 − exp(−√n)` with `l ≥ 1`:
/// `(2−√3)·n/(n−f) ≤ o ≤ (2+√3)·n/(n−f)`.
pub fn theorem2_o_range(n: usize, f: usize) -> (f64, f64) {
    let ratio = n as f64 / (n - f) as f64;
    ((2.0 - 3f64.sqrt()) * ratio, (2.0 + 3f64.sqrt()) * ratio)
}

/// Lemma 3's `α = (s/n)·(n−f)·(1 − exp(−√n))`.
pub fn lemma3_alpha(n: usize, f: usize, s: f64) -> f64 {
    (s / n as f64) * (n - f) as f64 * (1.0 - (-(n as f64).sqrt()).exp())
}

/// Lemma 4: per-replica termination bound under a correct leader,
/// `1 − exp(−(α−q)²/(2α)) − exp(−√n)` (clamped to `[0, 1]`).
pub fn lemma4_termination_per_replica(n: usize, f: usize, q: f64, o: f64) -> f64 {
    let s = o * q;
    let alpha = lemma3_alpha(n, f, s);
    if alpha <= q {
        return 0.0; // Chernoff premise fails; bound is vacuous
    }
    let p = 1.0 - (-(alpha - q).powi(2) / (2.0 * alpha)).exp() - (-(n as f64).sqrt()).exp();
    p.clamp(0.0, 1.0)
}

/// Theorem 15 (with the `+` union-bound fix, DESIGN.md note 1): all
/// correct replicas decide with probability at least
/// `1 − (n−f)·(exp(−(α−q)²/(2α)) + exp(−√n))`.
pub fn theorem15_termination_all(n: usize, f: usize, q: f64, o: f64) -> f64 {
    let s = o * q;
    let alpha = lemma3_alpha(n, f, s);
    if alpha <= q {
        return 0.0;
    }
    let per = (-(alpha - q).powi(2) / (2.0 * alpha)).exp() + (-(n as f64).sqrt()).exp();
    (1.0 - (n - f) as f64 * per).clamp(0.0, 1.0)
}

/// Lemma 5 / Theorem 7: the Chernoff bound on one replica forming a quorum
/// for one of the two split values, `exp(−δ²·o·q·r/(n(δ+2)))` with
/// `δ = n/(o·r) − 1` and `r = (n+f)/2` supporters per side; the per-view
/// agreement-violation bound is its 4th power.
///
/// Returns `None` when `r > n/o` (premise of Chernoff bound 2 fails) —
/// which happens at several Figure 5 operating points.
pub fn theorem7_violation_upper_bound(n: usize, f: usize, q: f64, o: f64) -> Option<f64> {
    let r = (n + f) as f64 / 2.0;
    let delta = n as f64 / (o * r) - 1.0;
    if delta <= 0.0 {
        return None;
    }
    let per_quorum = (-(delta * delta) * o * q * r / (n as f64 * (delta + 2.0))).exp();
    Some(per_quorum.powi(4).min(1.0))
}

/// Theorem 8: probability that a later leader proposes `val′` when `val`
/// was already decided — `3·exp(−q·δ²/((δ+1)(δ+2)))`, `δ = 2n/(o(n+f)) − 1`.
///
/// Returns `None` when the premise `δ > 0` fails.
pub fn theorem8_view_change_bound(n: usize, f: usize, q: f64, o: f64) -> Option<f64> {
    let delta = 2.0 * n as f64 / (o * (n + f) as f64) - 1.0;
    if delta <= 0.0 {
        return None;
    }
    Some((3.0 * (-(q * delta * delta) / ((delta + 1.0) * (delta + 2.0))).exp()).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binomial::binomial_cdf;

    #[test]
    fn chernoff_lower_dominates_exact_binomial() {
        // Bound must upper-bound the true lower-tail probability.
        let n = 200u64;
        let p = 0.4;
        let mean = n as f64 * p;
        for delta in [0.1, 0.3, 0.5, 0.9] {
            let k = ((1.0 - delta) * mean).floor() as u64;
            let exact = binomial_cdf(n, p, k);
            let bound = chernoff_lower(delta, mean).unwrap();
            assert!(
                exact <= bound + 1e-12,
                "δ={delta}: exact {exact} > bound {bound}"
            );
        }
    }

    #[test]
    fn chernoff_upper_dominates_exact_binomial() {
        let n = 200u64;
        let p = 0.2;
        let mean = n as f64 * p;
        for delta in [0.1, 0.5, 1.0, 2.0] {
            let k = ((1.0 + delta) * mean).ceil() as u64;
            let exact = 1.0 - binomial_cdf(n, p, k - 1);
            let bound = chernoff_upper(delta, mean).unwrap();
            assert!(
                exact <= bound + 1e-12,
                "δ={delta}: exact {exact} > bound {bound}"
            );
        }
    }

    #[test]
    fn invalid_domains_return_none() {
        assert_eq!(chernoff_lower(0.0, 10.0), None);
        assert_eq!(chernoff_lower(1.0, 10.0), None);
        assert_eq!(chernoff_upper(-0.1, 10.0), None);
        assert_eq!(hypergeometric_tail(10, 0.5, 0.4), None);
    }

    #[test]
    fn corollary2_at_paper_operating_point() {
        // n=100, f=20, q=20, o=1.7: c = 1.36, bound ≈ 1 − exp(−0.953) ≈ 0.61.
        let p = corollary2_quorum_lower_bound(100, 20, 20.0, 1.7).unwrap();
        assert!(p > 0.5 && p < 0.7, "bound {p}");
        // Premise fails when o(n−f) ≤ n.
        assert_eq!(corollary2_quorum_lower_bound(100, 50, 20.0, 1.7), None);
    }

    #[test]
    fn theorem2_range_contains_paper_choices() {
        // At f/n = 0.2 the paper's o ∈ {1.6, 1.7, 1.8} must be admissible.
        let (lo, hi) = theorem2_o_range(100, 20);
        for o in [1.6, 1.7, 1.8] {
            assert!(o >= lo && o <= hi, "o={o} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn termination_bounds_are_monotone_in_o() {
        let a = lemma4_termination_per_replica(100, 20, 20.0, 1.6);
        let b = lemma4_termination_per_replica(100, 20, 20.0, 1.8);
        assert!(b >= a, "larger o must not hurt termination: {a} vs {b}");
    }

    #[test]
    fn termination_bound_decreases_with_f() {
        let a = lemma4_termination_per_replica(100, 10, 20.0, 1.7);
        let b = lemma4_termination_per_replica(100, 30, 20.0, 1.7);
        assert!(a >= b, "more faults must not help: {a} vs {b}");
    }

    #[test]
    fn theorem15_weaker_than_lemma4() {
        let per = lemma4_termination_per_replica(200, 40, 2.0 * (200f64).sqrt(), 1.7);
        let all = theorem15_termination_all(200, 40, 2.0 * (200f64).sqrt(), 1.7);
        assert!(all <= per + 1e-12);
    }

    #[test]
    fn theorem7_domain() {
        // o=1.6, f/n=0.1: r = 55, n/o = 62.5 → valid.
        assert!(theorem7_violation_upper_bound(100, 10, 20.0, 1.6).is_some());
        // o=1.7, f/n=0.2: r = 60 > n/o ≈ 58.8 → premise fails.
        assert!(theorem7_violation_upper_bound(100, 20, 20.0, 1.7).is_none());
    }

    #[test]
    fn theorem8_domain_and_range() {
        let b = theorem8_view_change_bound(100, 10, 20.0, 1.6);
        assert!(b.is_some());
        assert!(b.unwrap() <= 1.0);
        // δ ≤ 0 at o=1.7, f/n=0.2.
        assert_eq!(theorem8_view_change_bound(100, 20, 20.0, 1.7), None);
    }
}
