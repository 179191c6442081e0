//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two closest ranks (NumPy's default method).
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` ascending (NaNs last) so [`quantile`] can read them.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of unsorted values (0 when there are none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// Arithmetic mean (0 when there are no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median and 99th percentile of a latency sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples` (sorted in place). An empty sample reads as 0.
    pub fn of(samples: &mut [f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                count: 0,
                p50: 0.0,
                p99: 0.0,
            };
        }
        sort(samples);
        Summary {
            count: samples.len(),
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert!((s.p99 - 990.01).abs() < 1e-9);
        let empty = Summary::of(&mut []);
        assert_eq!((empty.count, empty.p50), (0, 0.0));
    }

    #[test]
    fn median_and_mean_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
