//! Percentiles, medians and spreads over the raw samples the benchmark
//! records itself (never over the log-bucketed obs histograms, whose
//! quantisation error is 1/16).

/// The nearest-rank percentile of an ascending slice: the smallest sample
/// with at least the share `q` of all samples at or below it. `None` for
/// an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// Sorts `values` ascending in place (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of `values` (mean of the two middle samples for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let hi = s.get(s.len() / 2).copied()?;
    let lo = s.get(s.len().saturating_sub(1) / 2).copied()?;
    Some((lo + hi) / 2.0)
}

/// The quartiles `(q1, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spread printed here is the one the benchmark contract is judged
/// by. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let len = s.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        let (below, above) = (s.get(j - 1).copied()?, s.get(j).copied()?);
        Some((below * (4.0 - delta) + above * delta) / 4.0)
    };
    Some((cut(1)?, cut(3)?))
}

/// Distance between the first and third quartile as a share of the median
/// — the spread the contract bounds. `None` below two samples or for a
/// zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Whether at least ten samples lie beyond quantile `q` — the rule for
/// printing a percentile at all.
pub fn supports(samples: usize, q: f64) -> bool {
    (samples as f64) * (1.0 - q) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: sort, then count how many samples are at or below each
    /// candidate until the share `q` is covered.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let s = sorted(values.to_vec());
        let need = q * s.len() as f64;
        for v in &s {
            let at_or_below = s.iter().filter(|x| *x <= v).count();
            if at_or_below as f64 >= need {
                return *v;
            }
        }
        *s.last().expect("non-empty")
    }

    #[test]
    fn percentile_matches_sorted_vec_oracle() {
        // A deterministic scramble with ties, over several sizes.
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..len).map(|i| ((i * 7919) % 257) as f64 * 0.5).collect();
            let s = sorted(values.clone());
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile_sorted(&s, q),
                    Some(oracle(&values, q)),
                    "len {len} q {q}"
                );
            }
        }
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), Some(5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quartile_spread(&ten), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(!supports(5000, 0.999));
    }
}
