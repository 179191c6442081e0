//! RBF-kernel SVM via random Fourier features (Rahimi–Recht).
//!
//! The paper's "SVM" HSC is scikit-learn's kernelized SVC. Exact SMO is
//! quadratic in the training-set size; the standard large-scale substitute is
//! to approximate the RBF kernel `k(x,y) = exp(-γ‖x−y‖²)` with an explicit
//! feature map `z(x) = √(2/D)·cos(Wx + b)`, `W ~ N(0, 2γ)`, `b ~ U[0, 2π)`,
//! and train a linear SVM (Pegasos) on `z(x)`. With `D` a few hundred, the
//! approximation error is small relative to fold-to-fold variance.

use crate::classical::linear::{sigmoid, LinearSvm, Scaler};
use crate::classical::SplitMix;
use crate::matrix::Matrix;
use crate::Classifier;

/// Hyperparameters for an [`RbfSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct RbfSvmConfig {
    /// Kernel width γ; `None` selects `0.1/d` (tuned on the calibration
    /// corpus; see the `calibrate` binary).
    pub gamma: Option<f64>,
    /// Number of random Fourier features.
    pub n_components: usize,
    /// Pegasos regularization λ.
    pub lambda: f64,
    /// Pegasos epochs.
    pub epochs: usize,
    /// RNG seed (feature map and SGD order).
    pub seed: u64,
}

impl Default for RbfSvmConfig {
    fn default() -> Self {
        RbfSvmConfig {
            gamma: None,
            n_components: 768,
            lambda: 1e-6,
            epochs: 120,
            seed: 13,
        }
    }
}

/// An RBF SVM fitted through a random-Fourier-feature map.
#[derive(Debug, Clone)]
pub struct RbfSvm {
    config: RbfSvmConfig,
    /// Projection matrix `W` (n_components × d).
    w: Matrix,
    /// Phase offsets `b`.
    phases: Vec<f64>,
    linear: LinearSvm,
    scaler: Option<Scaler>,
}

impl RbfSvm {
    /// Creates an unfitted model.
    pub fn new(config: RbfSvmConfig) -> Self {
        RbfSvm {
            linear: LinearSvm::new(config.lambda, config.epochs, config.seed ^ 0xDEAD),
            config,
            w: Matrix::zeros(0, 0),
            phases: Vec::new(),
            scaler: None,
        }
    }

    /// Creates an unfitted model with default hyperparameters.
    pub fn with_defaults() -> Self {
        Self::new(RbfSvmConfig::default())
    }

    /// Width of the raw feature space the fitted Fourier map projects from
    /// (`None` before fit).
    pub fn n_features(&self) -> Option<usize> {
        if self.w.rows() == 0 {
            None
        } else {
            Some(self.w.cols())
        }
    }

    /// Applies the fitted random feature map to a standardized row.
    fn features(&self, scaled: &[f64]) -> Vec<f64> {
        let norm = (2.0 / self.config.n_components as f64).sqrt();
        self.w
            .iter_rows()
            .zip(&self.phases)
            .map(|(w_row, phase)| {
                let dot: f64 = w_row.iter().zip(scaled).map(|(a, b)| a * b).sum();
                norm * (dot + phase).cos()
            })
            .collect()
    }

    fn transform(&self, x: &Matrix) -> Matrix {
        let scaler = self.scaler.as_ref().expect("transform before fit");
        let rows: Vec<Vec<f64>> = x
            .iter_rows()
            .map(|r| self.features(&scaler.transform_row(r)))
            .collect();
        Matrix::from_rows(&rows)
    }
}

impl Classifier for RbfSvm {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let d = x.cols();
        let gamma = self.config.gamma.unwrap_or(0.1 / d.max(1) as f64);
        let mut rng = SplitMix::new(self.config.seed);
        let sigma = (2.0 * gamma).sqrt();
        let mut w = Matrix::zeros(self.config.n_components, d);
        for i in 0..self.config.n_components {
            for j in 0..d {
                w[(i, j)] = rng.normal() * sigma;
            }
        }
        self.phases = (0..self.config.n_components)
            .map(|_| rng.unit() * std::f64::consts::TAU)
            .collect();
        self.w = w;
        self.scaler = Some(Scaler::fit(x));

        let z = self.transform(x);
        self.linear = LinearSvm::new(
            self.config.lambda,
            self.config.epochs,
            self.config.seed ^ 0xDEAD,
        );
        self.linear.fit_prescaled(&z, y);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        let z = self.transform(x);
        // fit_prescaled skips the inner scaler, so query decision values on
        // the raw feature map.
        let raw: Vec<f64> = z
            .iter_rows()
            .map(|row| {
                self.linear
                    .weights_bias()
                    .map(|(w, b)| b + row.iter().zip(w).map(|(a, c)| a * c).sum::<f64>())
                    .expect("predict before fit")
            })
            .collect();
        raw.into_iter().map(|m| sigmoid(2.0 * m)).collect()
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

// --- Persistence -----------------------------------------------------------

use crate::classical::check_parameters;
use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for RbfSvmConfig {
    fn snapshot(&self, w: &mut Writer) {
        self.gamma.snapshot(w);
        w.put_usize(self.n_components);
        w.put_f64(self.lambda);
        w.put_usize(self.epochs);
        w.put_u64(self.seed);
    }
}

impl Restore for RbfSvmConfig {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RbfSvmConfig {
            gamma: Option::restore(r)?,
            n_components: r.take_usize()?,
            lambda: r.take_f64()?,
            epochs: r.take_usize()?,
            seed: r.take_u64()?,
        })
    }
}

impl Snapshot for RbfSvm {
    fn snapshot(&self, w: &mut Writer) {
        // Both the fitted random feature map (W, b) and the linear model on
        // top of it travel, so restored decision values are bit-identical.
        self.config.snapshot(w);
        self.w.snapshot(w);
        self.phases.snapshot(w);
        self.linear.snapshot(w);
        self.scaler.snapshot(w);
    }
}

impl Restore for RbfSvm {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let model = RbfSvm {
            config: RbfSvmConfig::restore(r)?,
            w: Matrix::restore(r)?,
            phases: Vec::restore(r)?,
            linear: LinearSvm::restore(r)?,
            scaler: Option::restore(r)?,
        };
        // An overflowing projection makes `cos` NaN for every row.
        check_parameters("w", model.w.as_slice())?;
        check_parameters("phases", &model.phases)?;
        // The map's scale is `sqrt(2 / n_components)`: a fitted map has
        // one phase per projection row, and that many components.
        let rows = model.w.rows();
        if rows > 0 && (model.config.n_components != rows || model.phases.len() != rows) {
            return Err(PersistError::Malformed(format!(
                "RBF map has {rows} projection rows, {} phases and `n_components` {}",
                model.phases.len(),
                model.config.n_components
            )));
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two concentric rings: not linearly separable, easy for RBF.
    fn rings(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let radius = if label == 0 { 1.0 } else { 3.0 };
            let angle = rng.unit() * std::f64::consts::TAU;
            let r = radius + rng.normal() * 0.15;
            rows.push(vec![r * angle.cos(), r * angle.sin()]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn solves_concentric_rings() {
        let (x, y) = rings(200, 1);
        let mut svm = RbfSvm::new(RbfSvmConfig {
            gamma: Some(1.0),
            ..Default::default()
        });
        svm.fit(&x, &y);
        let correct = svm
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 190, "only {correct}/200");
    }

    #[test]
    fn generalizes_to_fresh_rings() {
        let (x, y) = rings(200, 2);
        let mut svm = RbfSvm::new(RbfSvmConfig {
            gamma: Some(1.0),
            ..Default::default()
        });
        svm.fit(&x, &y);
        let (xt, yt) = rings(100, 3);
        let correct = svm
            .predict(&xt)
            .iter()
            .zip(&yt)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 90, "only {correct}/100");
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = rings(80, 4);
        let mut a = RbfSvm::with_defaults();
        let mut b = RbfSvm::with_defaults();
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn an_out_of_range_or_misshapen_feature_map_is_rejected_at_restore() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = rings(40, 6);
        let mut svm = RbfSvm::new(RbfSvmConfig {
            n_components: 16,
            ..Default::default()
        });
        svm.fit(&x, &y);
        let rejects = |edited: &RbfSvm, field: &str| match from_envelope::<RbfSvm>(
            "svm",
            &to_envelope("svm", edited),
        ) {
            Err(PersistError::Malformed(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{field}: expected Malformed, got {other:?}"),
        };
        // A finite entry near f64::MAX overflows `w · x` to ±inf, and
        // `cos(±inf)` is NaN.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let mut w = svm.clone();
            w.w[(3, 1)] = bad;
            rejects(&w, "`w[7]`");
            let mut phases = svm.clone();
            phases.phases[2] = bad;
            rejects(&phases, "`phases[2]`");
        }
        // `n_components` sets the map's scale, `sqrt(2 / n_components)`.
        let mut zero = svm.clone();
        zero.config.n_components = 0;
        rejects(&zero, "`n_components` 0");
        let mut short = svm.clone();
        short.phases.pop();
        rejects(&short, "15 phases");
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = rings(60, 5);
        let mut svm = RbfSvm::with_defaults();
        svm.fit(&x, &y);
        for p in svm.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }
}
