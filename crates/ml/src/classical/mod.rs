//! Classical (non-neural) models: the substrate behind the paper's seven
//! histogram similarity classifiers.

pub mod forest;
pub mod gbdt;
pub mod knn;
pub mod linear;
pub mod quant;
pub mod svm;
pub mod tree;

use phishinghook_persist::PersistError;

/// The largest magnitude a restored weight, bias, scaler mean or kernel
/// parameter may have. Fits stay dozens of orders of magnitude below it,
/// and below it no weighted sum over a model's features can overflow, so
/// a restored model never scores NaN. NaN and ±inf fail it too.
pub(crate) const MAX_PARAMETER: f64 = 1e100;

/// Whether `value` is a number within ±[`MAX_PARAMETER`] (NaN is not).
pub(crate) fn parameter_in_range(value: f64) -> bool {
    value.abs() <= MAX_PARAMETER
}

/// Rejects a restored parameter outside ±[`MAX_PARAMETER`], naming the
/// field.
pub(crate) fn check_parameter(field: &str, value: f64) -> Result<(), PersistError> {
    if parameter_in_range(value) {
        Ok(())
    } else {
        Err(PersistError::Malformed(format!(
            "`{field}` is {value}, not a number within ±{MAX_PARAMETER:e}"
        )))
    }
}

/// [`check_parameter`] over a parameter block, naming the first offending
/// index.
pub(crate) fn check_parameters(field: &str, values: &[f64]) -> Result<(), PersistError> {
    match values.iter().position(|&v| !parameter_in_range(v)) {
        None => Ok(()),
        Some(i) => check_parameter(&format!("{field}[{i}]"), values[i]),
    }
}

/// Deterministic SplitMix64 RNG used across the workspace so that training
/// and data generation are reproducible without threading `rand` generators
/// everywhere.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix {
            state: seed.wrapping_add(0x9E3779B97F4A7C15),
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix;

    #[test]
    fn deterministic_under_seed() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_in_range() {
        let mut r = SplitMix::new(1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_has_reasonable_moments() {
        let mut r = SplitMix::new(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix::new(3);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
