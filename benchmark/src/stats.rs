//! Order statistics over timing samples.

/// Sort a sample vector ascending. Timings are finite by construction, so
/// the total order never meets a NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`);
/// `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `(q1, median, q3)`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The tail statistic of choosing-metrics §1: the value at `want` (e.g.
/// 0.99) when at least [`TAIL_SUPPORT`] samples lie beyond it, else at the
/// highest percentile that still has them. Returns `(percentile, value)`.
/// With too few samples for any percentile above the median to qualify,
/// the median is returned.
pub fn tail(v: &[f64], want: f64) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    // Nearest-rank index of `want`, then pulled down until TAIL_SUPPORT
    // samples lie strictly above it.
    let wanted = ((want * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(TAIL_SUPPORT + 1);
    let idx = wanted.min(supported).max((n - 1) / 2);
    ((idx + 1) as f64 / n as f64, s[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond_it() {
        // 2000 samples: p99 is rank 1980, 20 samples beyond — reported as is.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.99, 1980.0));
        // 100 samples: p99 has one sample beyond; the highest rank with ten
        // beyond is 90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), (0.9, 90.0));
        // 1100 samples: p99 = rank 1089, eleven beyond.
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).1, 1089.0);
    }

    #[test]
    fn tail_never_falls_below_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        // Only rank 2 has ten beyond it; the median rank (6) wins.
        assert_eq!(tail(&v, 0.99).1, 6.0);
        assert_eq!(tail(&[7.0], 0.99), (1.0, 7.0));
    }
}
