//! Linear models: logistic regression and a linear SVM (Pegasos).
//!
//! Both standardize features internally (zero mean, unit variance computed on
//! the training set) — raw opcode histograms span several orders of magnitude
//! and plain gradient descent would diverge otherwise. The paper feeds
//! unnormalized histograms to scikit-learn, whose LBFGS/libsvm solvers cope;
//! internal standardization is the equivalent implementation detail here.

use crate::classical::SplitMix;
use crate::matrix::Matrix;
use crate::Classifier;

/// Numerically stable logistic sigmoid.
pub(crate) fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Feature standardizer fitted on training data.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// The smallest standard deviation a fitted scaler divides by: a
    /// column spread less than this (a constant column) scales by 1.
    const MIN_STD: f64 = 1e-12;

    pub(crate) fn fit(x: &Matrix) -> Self {
        let means = x.col_means();
        let stds = x
            .col_stds()
            .into_iter()
            .map(|s| if s < Self::MIN_STD { 1.0 } else { s })
            .collect();
        Scaler { means, stds }
    }

    pub(crate) fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }

    pub(crate) fn transform(&self, x: &Matrix) -> Matrix {
        let rows: Vec<Vec<f64>> = x.iter_rows().map(|r| self.transform_row(r)).collect();
        Matrix::from_rows(&rows)
    }
}

/// L2-regularized logistic regression trained with full-batch gradient
/// descent (one of the paper's seven HSCs; its weakest at 83.91%).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Learning rate.
    pub learning_rate: f64,
    /// Gradient-descent iterations.
    pub epochs: usize,
    /// L2 penalty strength.
    pub l2: f64,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Scaler>,
}

impl LogisticRegression {
    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(learning_rate: f64, epochs: usize, l2: f64) -> Self {
        LogisticRegression {
            learning_rate,
            epochs,
            l2,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    /// Sensible defaults for histogram-sized feature vectors.
    pub fn with_defaults() -> Self {
        Self::new(0.1, 300, 1e-4)
    }

    /// Fitted weights (standardized feature space). Empty before fit.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    fn decision(&self, row: &[f64]) -> f64 {
        let scaled = self
            .scaler
            .as_ref()
            .expect("predict before fit")
            .transform_row(row);
        self.bias
            + scaled
                .iter()
                .zip(&self.weights)
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let scaler = Scaler::fit(x);
        let xs = scaler.transform(x);
        let (n, d) = (xs.rows(), xs.cols());
        self.weights = vec![0.0; d];
        self.bias = 0.0;

        let inv_n = 1.0 / n as f64;
        for _ in 0..self.epochs {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (row, &label) in xs.iter_rows().zip(y) {
                let z = self.bias
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                let err = sigmoid(z) - label as f64;
                grad_b += err;
                for (g, v) in grad_w.iter_mut().zip(row) {
                    *g += err * v;
                }
            }
            for (w, g) in self.weights.iter_mut().zip(&grad_w) {
                *w -= self.learning_rate * (g * inv_n + self.l2 * *w);
            }
            self.bias -= self.learning_rate * grad_b * inv_n;
        }
        self.scaler = Some(scaler);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows()
            .map(|row| sigmoid(self.decision(row)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "Logistic Regression"
    }
}

/// Linear SVM trained with the Pegasos stochastic sub-gradient algorithm.
///
/// Probabilities are produced by squashing the margin through a sigmoid
/// (a fixed-slope Platt scaling), which is monotonic and therefore preserves
/// the decision boundary.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// RNG seed for sampling order.
    pub seed: u64,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Scaler>,
}

impl LinearSvm {
    /// Creates an unfitted model.
    pub fn new(lambda: f64, epochs: usize, seed: u64) -> Self {
        LinearSvm {
            lambda,
            epochs,
            seed,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    /// Sensible defaults.
    pub fn with_defaults() -> Self {
        Self::new(1e-4, 30, 7)
    }

    /// Raw (pre-sigmoid) decision values for each row.
    pub fn decision_values(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows().map(|row| self.decision(row)).collect()
    }

    /// Weights and bias of the fitted hyperplane (in the space the model was
    /// trained on), or `None` before fitting.
    pub fn weights_bias(&self) -> Option<(&[f64], f64)> {
        if self.weights.is_empty() {
            None
        } else {
            Some((&self.weights, self.bias))
        }
    }

    fn decision(&self, row: &[f64]) -> f64 {
        let scaled = self
            .scaler
            .as_ref()
            .expect("predict before fit")
            .transform_row(row);
        self.bias
            + scaled
                .iter()
                .zip(&self.weights)
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    /// Fits on already-standardized data (used by [`crate::RbfSvm`], whose
    /// random-Fourier features are already bounded).
    pub(crate) fn fit_prescaled(&mut self, xs: &Matrix, y: &[usize]) {
        let (n, d) = (xs.rows(), xs.cols());
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let mut rng = SplitMix::new(self.seed);
        let mut t = 0u64;
        for _ in 0..self.epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.below(n);
                let row = xs.row(i);
                let label = if y[i] == 1 { 1.0 } else { -1.0 };
                let eta = 1.0 / (self.lambda * t as f64);
                let margin = label
                    * (self.bias
                        + row
                            .iter()
                            .zip(&self.weights)
                            .map(|(a, b)| a * b)
                            .sum::<f64>());
                // w ← (1 − ηλ)w  [+ ηyx when the margin is violated]
                let decay = 1.0 - eta * self.lambda;
                for w in &mut self.weights {
                    *w *= decay;
                }
                if margin < 1.0 {
                    for (w, v) in self.weights.iter_mut().zip(row) {
                        *w += eta * label * v;
                    }
                    self.bias += eta * label;
                }
            }
        }
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let scaler = Scaler::fit(x);
        let xs = scaler.transform(x);
        self.scaler = Some(scaler);
        self.fit_prescaled(&xs, y);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows()
            .map(|row| sigmoid(2.0 * self.decision(row)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "Linear SVM"
    }
}

// --- Persistence -----------------------------------------------------------

use crate::classical::{check_parameter, check_parameters};
use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for Scaler {
    fn snapshot(&self, w: &mut Writer) {
        self.means.snapshot(w);
        self.stds.snapshot(w);
    }
}

impl Restore for Scaler {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let means: Vec<f64> = Vec::restore(r)?;
        let stds: Vec<f64> = Vec::restore(r)?;
        if means.len() != stds.len() {
            return Err(PersistError::Malformed(format!(
                "scaler has {} means but {} stds",
                means.len(),
                stds.len()
            )));
        }
        check_parameters("scaler means", &means)?;
        check_parameters("scaler stds", &stds)?;
        // A zero or tiny divisor turns a feature into ±inf or NaN.
        if let Some(i) = stds.iter().position(|&s| s < Self::MIN_STD) {
            return Err(PersistError::Malformed(format!(
                "`scaler stds[{i}]` is {}, below the fitted floor {}",
                stds[i],
                Self::MIN_STD
            )));
        }
        Ok(Scaler { means, stds })
    }
}

impl Snapshot for LogisticRegression {
    fn snapshot(&self, w: &mut Writer) {
        w.put_f64(self.learning_rate);
        w.put_usize(self.epochs);
        w.put_f64(self.l2);
        self.weights.snapshot(w);
        w.put_f64(self.bias);
        self.scaler.snapshot(w);
    }
}

impl Restore for LogisticRegression {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let model = LogisticRegression {
            learning_rate: r.take_f64()?,
            epochs: r.take_usize()?,
            l2: r.take_f64()?,
            weights: Vec::restore(r)?,
            bias: r.take_f64()?,
            scaler: Option::restore(r)?,
        };
        check_parameters("weights", &model.weights)?;
        check_parameter("bias", model.bias)?;
        Ok(model)
    }
}

impl Snapshot for LinearSvm {
    fn snapshot(&self, w: &mut Writer) {
        w.put_f64(self.lambda);
        w.put_usize(self.epochs);
        w.put_u64(self.seed);
        self.weights.snapshot(w);
        w.put_f64(self.bias);
        self.scaler.snapshot(w);
    }
}

impl Restore for LinearSvm {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let model = LinearSvm {
            lambda: r.take_f64()?,
            epochs: r.take_usize()?,
            seed: r.take_u64()?,
            weights: Vec::restore(r)?,
            bias: r.take_f64()?,
            scaler: Option::restore(r)?,
        };
        check_parameters("weights", &model.weights)?;
        check_parameter("bias", model.bias)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let c = if label == 0 { -2.0 } else { 2.0 };
            rows.push(vec![c + rng.normal() * 0.5, c + rng.normal() * 0.5]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn logreg_separates_blobs() {
        let (x, y) = separable(100, 1);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&x, &y);
        let correct = lr
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 97, "only {correct}/100");
    }

    #[test]
    fn logreg_probabilities_ordered_along_axis() {
        let (x, y) = separable(100, 2);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&x, &y);
        let probe = Matrix::from_rows(&[vec![-3.0, -3.0], vec![0.0, 0.0], vec![3.0, 3.0]]);
        let p = lr.predict_proba(&probe);
        assert!(p[0] < p[1] && p[1] < p[2], "{p:?}");
    }

    #[test]
    fn sigmoid_stability() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        // Symmetry: σ(-z) = 1 - σ(z).
        for z in [-5.0, -1.0, 0.3, 2.7] {
            assert!((sigmoid(-z) - (1.0 - sigmoid(z))).abs() < 1e-12);
        }
    }

    #[test]
    fn svm_separates_blobs() {
        let (x, y) = separable(100, 3);
        let mut svm = LinearSvm::with_defaults();
        svm.fit(&x, &y);
        let correct = svm
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 97, "only {correct}/100");
    }

    #[test]
    fn svm_deterministic_under_seed() {
        let (x, y) = separable(60, 4);
        let mut a = LinearSvm::new(1e-4, 10, 11);
        let mut b = LinearSvm::new(1e-4, 10, 11);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let x = Matrix::from_rows(&[
            vec![1.0, 5.0],
            vec![1.0, -5.0],
            vec![1.0, 5.0],
            vec![1.0, -5.0],
        ]);
        let y = vec![1, 0, 1, 0];
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&x, &y);
        for p in lr.predict_proba(&x) {
            assert!(p.is_finite());
        }
        assert_eq!(lr.predict(&x), y);
    }

    #[test]
    fn out_of_range_parameters_and_degenerate_stds_are_rejected_at_restore() {
        use phishinghook_persist::{from_envelope, to_envelope};
        fn rejects<T: Restore + std::fmt::Debug>(edited: &impl Snapshot, field: &str) {
            match from_envelope::<T>("linear", &to_envelope("linear", edited)) {
                Err(PersistError::Malformed(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected Malformed, got {other:?}"),
            }
        }
        let (x, y) = separable(40, 6);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&x, &y);
        let mut svm = LinearSvm::with_defaults();
        svm.fit(&x, &y);
        // Finite but past ±1e100 can still overflow a dot product.
        for bad in [f64::NAN, f64::INFINITY, -1e200] {
            let mut m = lr.clone();
            m.weights[1] = bad;
            rejects::<LogisticRegression>(&m, "`weights[1]`");
            let mut m = lr.clone();
            m.bias = bad;
            rejects::<LogisticRegression>(&m, "`bias`");
            let mut m = svm.clone();
            m.weights[0] = bad;
            rejects::<LinearSvm>(&m, "`weights[0]`");
            let mut m = svm.clone();
            m.bias = bad;
            rejects::<LinearSvm>(&m, "`bias`");
            let mut m = lr.clone();
            m.scaler.as_mut().expect("fitted").means[0] = bad;
            rejects::<LogisticRegression>(&m, "`scaler means[0]`");
        }
        // A zero divisor is finite but turns features into ±inf or NaN.
        for bad in [0.0, -1.0, 1e-300, f64::NAN] {
            let mut m = svm.clone();
            m.scaler.as_mut().expect("fitted").stds[1] = bad;
            rejects::<LinearSvm>(&m, "`scaler stds[1]`");
        }
    }

    #[test]
    fn logreg_weights_accessible_after_fit() {
        let (x, y) = separable(40, 5);
        let mut lr = LogisticRegression::with_defaults();
        lr.fit(&x, &y);
        assert_eq!(lr.weights().len(), 2);
        // Both features point the same way for these blobs.
        assert!(lr.weights()[0] > 0.0 && lr.weights()[1] > 0.0);
    }
}
