//! Order statistics the benchmark reports: median, quartiles, the tail rule
//! ("the highest percentile with at least ten samples beyond it") and warm-up
//! trimming.

/// Samples beyond the reported tail percentile the rule insists on.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// Sorted copy of `values` (timings and rates are never NaN here).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice (a phase that produced nothing).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so spreads computed here
/// agree with the driver's.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; the rank is clamped to the
        // data but the fraction is not, so tiny samples extrapolate exactly
        // as Python does.
        let num = k * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let frac = (num as f64 - (j * 4) as f64) / 4.0;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the benchmark
/// (and the driver) compares to a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// A tail reading: the value, which percentile it is, and over how many
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it.  With fewer than twenty samples even the median has
/// fewer than ten beyond it; the rule then degrades to the median (n < 10
/// reports it too, flagged by `samples`).
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 50.0,
            samples: 0,
        };
    }
    let mut chosen = 50.0;
    for p in [75.0, 90.0, 95.0, 99.0, 99.9] {
        if samples_beyond(n, p) >= TAIL_SAMPLES_BEYOND {
            chosen = p;
        }
    }
    Tail {
        // Degraded to the median, it reads exactly what `median` reads.
        value: if chosen == 50.0 {
            median(&v)
        } else {
            v[rank(n, chosen)]
        },
        percentile: chosen,
        samples: n,
    }
}

/// Zero-based index of percentile `p` among `n` sorted samples
/// (nearest-rank).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Drops the warm-up prefix of a timed phase: the first `share` of the
/// samples or the first `at_least`, whichever is larger — but never more
/// than half, so a smoke-scale phase keeps something to report.
pub fn trim_warmup(samples: &[f64], share: f64, at_least: usize) -> &[f64] {
    let n = samples.len();
    let by_share = (n as f64 * share).ceil() as usize;
    let skip = by_share.max(at_least).min(n / 2);
    &samples[skip..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // n = 9 and n = 10: nothing has ten samples beyond it -> median.
        assert_eq!(tail(&ramp(9)).percentile, 50.0);
        assert_eq!(tail(&ramp(9)).value, 5.0);
        assert_eq!(tail(&ramp(10)).percentile, 50.0);
        // n = 175: p90 is rank 158 (17 beyond), p95 rank 167 (8 beyond).
        let t = tail(&ramp(175));
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 158.0, 175));
        // n = 1000: p99 is rank 990 (10 beyond), p99.9 rank 999 (1 beyond).
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // n = 20_000 reaches p99.9.
        assert_eq!(tail(&ramp(20_000)).percentile, 99.9);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_and_quartiles_match_the_exclusive_method() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&ramp(2)).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        let spread = iqr_share(&ramp(10)).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_trimming_takes_share_or_floor_but_at_most_half() {
        let s = ramp(1000);
        assert_eq!(trim_warmup(&s, 0.05, 0).len(), 950);
        assert_eq!(trim_warmup(&s, 0.05, 0)[0], 51.0);
        assert_eq!(trim_warmup(&s, 0.0, 50).len(), 950);
        // 30 samples, floor of 50 -> capped at half.
        assert_eq!(trim_warmup(&ramp(30), 0.0, 50).len(), 15);
        assert!(trim_warmup(&[], 0.05, 50).is_empty());
    }
}
