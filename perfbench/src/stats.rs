//! Order statistics for timings.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0.0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of integer nanoseconds, in milliseconds.
pub fn median_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

/// A timing summary: median, tail and the sample count behind them.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    /// The value at the highest percentile that still has at least ten
    /// samples beyond it: the 11th largest sample. With fewer than 21
    /// samples that falls at or below the median, so the tail is the
    /// median.
    pub tail: f64,
    /// The percentile `tail` sits at (50 when it is the median).
    pub tail_pct: f64,
    pub samples: usize,
}

impl Timing {
    pub fn of(xs: &[f64]) -> Timing {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let med = median(&v);
        if n < 21 {
            return Timing {
                median: med,
                tail: med,
                tail_pct: 50.0,
                samples: n,
            };
        }
        Timing {
            median: med,
            tail: v[n - 11],
            tail_pct: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    }
}

/// `num / den`, or 0.0 when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Timing::of(&xs);
        assert_eq!(t.tail, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.tail).count(), 10);
        assert!((t.tail_pct - 90.0).abs() < 1e-12);
        let few = Timing::of(&[1.0, 2.0, 3.0]);
        assert_eq!(few.tail, few.median);
        assert_eq!(few.tail_pct, 50.0);
    }
}
