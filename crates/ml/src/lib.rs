#![warn(missing_docs)]

//! From-scratch machine-learning substrate for the PhishingHook reproduction.
//!
//! The paper's model evaluation module (MEM) is built on scikit-learn,
//! XGBoost, LightGBM, CatBoost and PyTorch. None of those exist natively in
//! Rust, so this crate implements the required subset from first principles:
//!
//! * [`matrix`] — a dense row-major `f64` matrix and the dataset plumbing
//!   shared by all classical models.
//! * [`classical`] — CART decision trees, bagged random forests, k-NN,
//!   logistic regression, SVMs (linear Pegasos and RBF via random Fourier
//!   features) and a gradient-boosting engine with three faithful variants
//!   (exact second-order / histogram leaf-wise / oblivious trees) standing in
//!   for XGBoost, LightGBM and CatBoost.
//! * [`nn`] — a reverse-mode autograd tensor engine with the layers needed by
//!   the paper's deep models (dense, embedding, layer norm, multi-head
//!   attention, GRU, convolutions) and SGD/Adam optimizers.
//!
//! Everything is deterministic under a fixed seed, CPU-only, and tested
//! against hand-computed values, closed-form gradients and property-based
//! invariants.

pub mod classical;
pub mod matrix;
pub mod nn;

pub use classical::{
    forest::RandomForest,
    gbdt::{BoostVariant, GradientBoosting},
    knn::KNearestNeighbors,
    linear::{LinearSvm, LogisticRegression},
    svm::RbfSvm,
    tree::DecisionTree,
    SplitMix,
};
pub use matrix::Matrix;

/// A binary classifier over dense feature matrices.
///
/// All seven histogram similarity classifiers (HSCs) implement this trait;
/// the framework trains them through it.
pub trait Classifier {
    /// Fits the model to feature rows `x` and binary labels `y`
    /// (`y[i]` is `0` or `1`).
    ///
    /// # Panics
    /// Implementations may panic when `x.rows() != y.len()` or when `x` is
    /// empty — those are caller bugs, not recoverable conditions.
    fn fit(&mut self, x: &Matrix, y: &[usize]);

    /// Predicts the probability of class `1` for every row.
    fn predict_proba(&self, x: &Matrix) -> Vec<f64>;

    /// Predicts hard labels by thresholding [`Classifier::predict_proba`]
    /// at 0.5.
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x)
            .into_iter()
            .map(|p| usize::from(p >= 0.5))
            .collect()
    }

    /// Short human-readable model name.
    fn name(&self) -> &'static str;
}

/// The number of cores this process may use (at least 1), read once per
/// process. On Linux [`std::thread::available_parallelism`] re-reads the
/// cgroup CPU quota on every call, which costs more than the whole walk
/// of a one-row batch, so every caller that sizes its threads by the
/// machine asks here instead.
pub fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}
