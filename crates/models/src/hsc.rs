//! The seven histogram similarity classifiers (HSCs).
//!
//! Opcode histograms (unnormalized, training-set vocabulary) feeding Random
//! Forest, k-NN, SVM, Logistic Regression, XGBoost, LightGBM and CatBoost —
//! the paper's best-performing category (≈91.5% average accuracy, Random
//! Forest best overall at 93.63%).

use crate::detector::{Category, Detector};
use crate::spec::FeatureSet;
use phishinghook_features::{HistogramExtractor, TraceExtractor};
use phishinghook_ml::classical::forest::ForestConfig;
use phishinghook_ml::classical::gbdt::GbdtConfig;
use phishinghook_ml::classical::svm::RbfSvmConfig;
use phishinghook_ml::{
    BoostVariant, Classifier, GradientBoosting, KNearestNeighbors, LogisticRegression, Matrix,
    RandomForest, RbfSvm,
};
use std::borrow::Cow;

/// Column-concatenates two equally-tall matrices (`a`'s columns first) —
/// how the `hist+trace` feature set combines its channels.
pub(crate) fn hstack(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "channel row counts must match");
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for i in 0..a.rows() {
        let (left, right) = out.row_mut(i).split_at_mut(a.cols());
        left.copy_from_slice(a.row(i));
        right.copy_from_slice(b.row(i));
    }
    out
}

/// Which classical model backs an [`HscDetector`].
#[derive(Debug)]
pub enum HscModel {
    /// Bagged random forest.
    RandomForest(RandomForest),
    /// k-nearest neighbours.
    Knn(KNearestNeighbors),
    /// RBF-kernel SVM (random Fourier features).
    Svm(RbfSvm),
    /// L2 logistic regression.
    LogisticRegression(LogisticRegression),
    /// Gradient boosting (exact / histogram / oblivious variants).
    Boosted(GradientBoosting),
}

impl HscModel {
    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            HscModel::RandomForest(m) => m,
            HscModel::Knn(m) => m,
            HscModel::Svm(m) => m,
            HscModel::LogisticRegression(m) => m,
            HscModel::Boosted(m) => m,
        }
    }

    fn as_classifier_mut(&mut self) -> &mut dyn Classifier {
        match self {
            HscModel::RandomForest(m) => m,
            HscModel::Knn(m) => m,
            HscModel::Svm(m) => m,
            HscModel::LogisticRegression(m) => m,
            HscModel::Boosted(m) => m,
        }
    }
}

/// A histogram similarity classifier: feature extraction + classical model.
///
/// By default the features are the paper's static opcode histograms; via
/// [`HscDetector::with_features`] (or a `features=` spec option) the same
/// model can instead train on dynamic execution-trace features, or on both
/// channels column-concatenated.
#[derive(Debug)]
pub struct HscDetector {
    name: &'static str,
    model: HscModel,
    extractor: Option<HistogramExtractor>,
    features: FeatureSet,
    trace: Option<TraceExtractor>,
}

impl HscDetector {
    /// Random Forest HSC (the paper's best model).
    pub fn random_forest(seed: u64) -> Self {
        HscDetector {
            name: "Random Forest",
            model: HscModel::RandomForest(RandomForest::new(ForestConfig {
                n_trees: 100,
                max_depth: 20,
                seed,
                ..ForestConfig::default()
            })),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// k-NN HSC.
    pub fn knn() -> Self {
        HscDetector {
            name: "k-NN",
            model: HscModel::Knn(KNearestNeighbors::new(5)),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// SVM HSC.
    pub fn svm(seed: u64) -> Self {
        HscDetector {
            name: "SVM",
            model: HscModel::Svm(RbfSvm::new(RbfSvmConfig {
                seed,
                ..RbfSvmConfig::default()
            })),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// Logistic-regression HSC.
    pub fn logistic_regression() -> Self {
        HscDetector {
            name: "Logistic Regression",
            model: HscModel::LogisticRegression(LogisticRegression::with_defaults()),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// XGBoost-style HSC (exact greedy boosting).
    pub fn xgboost(seed: u64) -> Self {
        HscDetector {
            name: "XGBoost",
            model: HscModel::Boosted(GradientBoosting::new(GbdtConfig {
                variant: BoostVariant::Exact,
                seed,
                ..GbdtConfig::default()
            })),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// LightGBM-style HSC (histogram leaf-wise boosting).
    pub fn lightgbm(seed: u64) -> Self {
        HscDetector {
            name: "LightGBM",
            model: HscModel::Boosted(GradientBoosting::new(GbdtConfig {
                variant: BoostVariant::Histogram,
                seed,
                ..GbdtConfig::default()
            })),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// CatBoost-style HSC (oblivious-tree boosting).
    pub fn catboost(seed: u64) -> Self {
        HscDetector {
            name: "CatBoost",
            model: HscModel::Boosted(GradientBoosting::new(GbdtConfig {
                variant: BoostVariant::Oblivious,
                max_depth: 6,
                seed,
                ..GbdtConfig::default()
            })),
            extractor: None,
            features: FeatureSet::Histogram,
            trace: None,
        }
    }

    /// The fitted histogram extractor (for interpretability tooling).
    pub fn extractor(&self) -> Option<&HistogramExtractor> {
        self.extractor.as_ref()
    }

    /// The backing model (for interpretability tooling — Fig. 9's SHAP
    /// analysis walks the random forest's trees).
    pub fn model(&self) -> &HscModel {
        &self.model
    }

    /// Sets the feature channels this detector trains and scores on
    /// (builder-style — the registry applies a spec's `features=` option
    /// here). Clears any previously fitted extraction state.
    pub fn with_features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self.extractor = None;
        self.trace = None;
        self
    }

    /// The feature channels this detector trains and scores on.
    pub fn features(&self) -> FeatureSet {
        self.features
    }

    /// Widest per-feature bin count of the backing model's quantized
    /// mirror; `None` for non-tree models, before fit, or when the model
    /// falls back to its per-row arena walk.
    pub fn quant_bins(&self) -> Option<usize> {
        match &self.model {
            HscModel::RandomForest(m) => m.quant_bins(),
            HscModel::Boosted(m) => m.quant_bins(),
            _ => None,
        }
    }

    /// The trace extractor fitted alongside the model (`None` until fit,
    /// or when the feature set carries no trace channel).
    pub fn trace_extractor(&self) -> Option<&TraceExtractor> {
        self.trace.as_ref()
    }

    /// Width of this detector's fitted feature rows (the sum of its
    /// channels' column counts).
    ///
    /// # Panics
    /// Panics when called before [`Detector::fit`].
    pub fn n_features(&self) -> usize {
        let hist = || {
            self.extractor
                .as_ref()
                .expect("predict before fit")
                .n_features()
        };
        let trace = || {
            self.trace
                .as_ref()
                .expect("predict before fit")
                .n_features()
        };
        match self.features {
            FeatureSet::Histogram => hist(),
            FeatureSet::Trace => trace(),
            FeatureSet::HistogramTrace => hist() + trace(),
        }
    }

    /// Streams the feature rows of `codes` — per this detector's fitted
    /// feature set — into `out`, which must be
    /// `codes.len() × n_features()`. This is the serving hot path: the
    /// scratch matrix is reused across batches.
    ///
    /// # Panics
    /// Panics before fit, or on an `out` shape mismatch.
    pub fn featurize_into(&self, codes: &[&[u8]], out: &mut Matrix) {
        match self.features {
            FeatureSet::Histogram => self
                .extractor
                .as_ref()
                .expect("predict before fit")
                .transform_into(codes, out),
            FeatureSet::Trace => self
                .trace
                .as_ref()
                .expect("predict before fit")
                .transform_into(codes, out),
            FeatureSet::HistogramTrace => {
                let hist = self.extractor.as_ref().expect("predict before fit");
                let trace = self.trace.as_ref().expect("predict before fit");
                assert_eq!(out.rows(), codes.len(), "one output row per bytecode");
                assert_eq!(
                    out.cols(),
                    hist.n_features() + trace.n_features(),
                    "column count mismatch"
                );
                for (i, code) in codes.iter().enumerate() {
                    let (h, t) = out.row_mut(i).split_at_mut(hist.n_features());
                    hist.count_into(code, h);
                    trace.extract_into(code, t);
                }
            }
        }
    }

    /// The feature matrix of `codes` under this detector's fitted feature
    /// set — rows suitable for [`HscDetector::predict_proba`].
    ///
    /// # Panics
    /// Panics when called before [`Detector::fit`].
    pub fn featurize(&self, codes: &[&[u8]]) -> Matrix {
        let mut out = Matrix::zeros(codes.len(), self.n_features());
        self.featurize_into(codes, &mut out);
        out
    }

    /// The fold's test-split feature matrix for this detector's feature
    /// set, asserting the fold matches what the detector was fitted on —
    /// borrowed when one shared matrix serves as-is, owned when channels
    /// are concatenated.
    pub(crate) fn fold_test_matrix<'f>(
        &self,
        fold: &'f crate::FoldFeatures<'_>,
    ) -> Cow<'f, Matrix> {
        const FOLD_MISMATCH: &str = "predict_fold called with a different fold than fit_fold";
        let check_hist = |shared: &phishinghook_features::HistogramExtractor| {
            let fitted = self.extractor.as_ref().expect("predict before fit");
            assert_eq!(fitted, shared, "{FOLD_MISMATCH}");
        };
        let check_trace = |shared: &TraceExtractor| {
            let fitted = self.trace.as_ref().expect("predict before fit");
            assert_eq!(fitted, shared, "{FOLD_MISMATCH}");
        };
        match self.features {
            FeatureSet::Histogram => {
                let features = fold.histogram();
                check_hist(&features.extractor);
                Cow::Borrowed(&features.test)
            }
            FeatureSet::Trace => {
                let features = fold.trace();
                check_trace(&features.extractor);
                Cow::Borrowed(&features.test)
            }
            FeatureSet::HistogramTrace => {
                let hist = fold.histogram();
                let trace = fold.trace();
                check_hist(&hist.extractor);
                check_trace(&trace.extractor);
                Cow::Owned(hstack(&hist.test, &trace.test))
            }
        }
    }
}

impl Detector for HscDetector {
    fn name(&self) -> &str {
        self.name
    }

    fn category(&self) -> Category {
        Category::Histogram
    }

    fn fit(&mut self, codes: &[&[u8]], labels: &[usize]) {
        assert_eq!(codes.len(), labels.len(), "one label per bytecode");
        self.extractor = self
            .features
            .includes_histogram()
            .then(|| HistogramExtractor::fit(codes));
        self.trace = self.features.includes_trace().then(TraceExtractor::new);
        let x = self.featurize(codes);
        self.model.as_classifier_mut().fit(&x, labels);
    }

    fn predict(&self, codes: &[&[u8]]) -> Vec<usize> {
        let x = self.featurize(codes);
        self.model.as_classifier().predict(&x)
    }

    fn fit_fold(&mut self, fold: &crate::FoldFeatures<'_>, labels: &[usize]) {
        assert_eq!(
            fold.train_codes().len(),
            labels.len(),
            "one label per bytecode"
        );
        // Detectors of one feature set consume identical matrices; the
        // first one to arrive extracts, the rest reuse.
        match self.features {
            FeatureSet::Histogram => {
                let features = fold.histogram();
                self.model.as_classifier_mut().fit(&features.train, labels);
                self.extractor = Some(features.extractor.clone());
                self.trace = None;
            }
            FeatureSet::Trace => {
                let features = fold.trace();
                self.model.as_classifier_mut().fit(&features.train, labels);
                self.extractor = None;
                self.trace = Some(features.extractor.clone());
            }
            FeatureSet::HistogramTrace => {
                let hist = fold.histogram();
                let trace = fold.trace();
                let x = hstack(&hist.train, &trace.train);
                self.model.as_classifier_mut().fit(&x, labels);
                self.extractor = Some(hist.extractor.clone());
                self.trace = Some(trace.extractor.clone());
            }
        }
    }

    fn predict_fold(&self, fold: &crate::FoldFeatures<'_>) -> Vec<usize> {
        // The fold's matrices are only valid for the extractors this model
        // was trained with; a fit_fold/predict_fold fold mismatch would
        // otherwise feed the model silently permuted columns
        // (`fold_test_matrix` asserts agreement per channel).
        let x = self.fold_test_matrix(fold);
        self.model.as_classifier().predict(&x)
    }
}

// --- Persistence -----------------------------------------------------------

use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

/// Envelope kind tag of [`HscDetector`] snapshots (see
/// `phishinghook_persist`'s crate docs for the envelope layout).
pub const SNAPSHOT_KIND: &str = "hsc-detector";

/// The seven HSC names in Table II order (the only names a snapshot may
/// carry; restoring interns back to these statics).
const HSC_NAMES: [&str; 7] = [
    "Random Forest",
    "k-NN",
    "SVM",
    "Logistic Regression",
    "XGBoost",
    "LightGBM",
    "CatBoost",
];

impl Snapshot for HscModel {
    fn snapshot(&self, w: &mut Writer) {
        match self {
            HscModel::RandomForest(m) => {
                w.put_u8(0);
                m.snapshot(w);
            }
            HscModel::Knn(m) => {
                w.put_u8(1);
                m.snapshot(w);
            }
            HscModel::Svm(m) => {
                w.put_u8(2);
                m.snapshot(w);
            }
            HscModel::LogisticRegression(m) => {
                w.put_u8(3);
                m.snapshot(w);
            }
            HscModel::Boosted(m) => {
                w.put_u8(4);
                m.snapshot(w);
            }
        }
    }
}

impl Restore for HscModel {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(HscModel::RandomForest(RandomForest::restore(r)?)),
            1 => Ok(HscModel::Knn(KNearestNeighbors::restore(r)?)),
            2 => Ok(HscModel::Svm(RbfSvm::restore(r)?)),
            3 => Ok(HscModel::LogisticRegression(LogisticRegression::restore(
                r,
            )?)),
            4 => Ok(HscModel::Boosted(GradientBoosting::restore(r)?)),
            tag => Err(PersistError::Malformed(format!(
                "unknown HSC model tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for HscDetector {
    fn snapshot(&self, w: &mut Writer) {
        w.put_str(self.name);
        self.model.snapshot(w);
        self.extractor.snapshot(w);
        // Trailing fields (appended after the original layout so that
        // histogram-only envelopes written by older builds stay readable —
        // restore treats their absence as the historical defaults).
        w.put_u8(match self.features {
            FeatureSet::Histogram => 0,
            FeatureSet::Trace => 1,
            FeatureSet::HistogramTrace => 2,
        });
        self.trace.snapshot(w);
    }
}

impl Restore for HscDetector {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let stored = r.take_str()?;
        let name = HSC_NAMES
            .into_iter()
            .find(|&n| n == stored)
            .ok_or_else(|| PersistError::Malformed(format!("unknown HSC name `{stored}`")))?;
        let model = HscModel::restore(r)?;
        let extractor: Option<HistogramExtractor> = Option::restore(r)?;
        let (features, trace) = if r.remaining() > 0 {
            let features = match r.take_u8()? {
                0 => FeatureSet::Histogram,
                1 => FeatureSet::Trace,
                2 => FeatureSet::HistogramTrace,
                tag => {
                    return Err(PersistError::Malformed(format!(
                        "unknown feature-set tag {tag:#04x}"
                    )))
                }
            };
            (features, Option::<TraceExtractor>::restore(r)?)
        } else {
            // Pre-trace envelope: histogram channel only.
            (FeatureSet::Histogram, None)
        };
        // Each feature channel must be present exactly when the feature set
        // declares it — except that a never-fitted detector carries neither.
        let unfitted = extractor.is_none() && trace.is_none();
        let channels_consistent = unfitted
            || (features.includes_histogram() == extractor.is_some()
                && features.includes_trace() == trace.is_some());
        if !channels_consistent {
            return Err(PersistError::Malformed(format!(
                "`{name}` channels do not match its `{features}` feature set"
            )));
        }
        // Cross-check the model's feature width against the extractors it is
        // paired with: a mismatch can never come from `fit`, and scoring
        // through it would index feature rows out of bounds at request time
        // instead of failing here at load time.
        if !unfitted {
            let width = extractor.as_ref().map_or(0, HistogramExtractor::n_features)
                + trace.as_ref().map_or(0, TraceExtractor::n_features);
            let consistent = match &model {
                HscModel::RandomForest(m) => m.trees().iter().all(|t| t.n_features() == width),
                HscModel::Knn(m) => m.n_features() == width,
                HscModel::Svm(m) => m.n_features() == Some(width),
                HscModel::LogisticRegression(m) => m.weights().len() == width,
                HscModel::Boosted(m) => m.max_feature_index().is_none_or(|f| f < width),
            };
            if !consistent {
                return Err(PersistError::Malformed(format!(
                    "`{name}` model does not match its {width}-column feature channels"
                )));
            }
        }
        Ok(HscDetector {
            name,
            model,
            extractor,
            features,
            trace,
        })
    }
}

impl HscDetector {
    /// `true` once [`Detector::fit`] (or a fitted snapshot) has produced
    /// every feature channel the detector's feature set declares.
    pub fn is_fitted(&self) -> bool {
        let hist_ok = !self.features.includes_histogram() || self.extractor.is_some();
        let trace_ok = !self.features.includes_trace() || self.trace.is_some();
        hist_ok && trace_ok && (self.extractor.is_some() || self.trace.is_some())
    }

    /// Class-1 probabilities on an already-extracted feature matrix (rows
    /// from this detector's [`HscDetector::featurize_into`]). This is the
    /// serving hot path: with a reused scratch matrix it scores a batch
    /// without allocating per-contract rows. Tree models score through
    /// their quantized mirror (see `phishinghook_ml::classical::quant`).
    pub fn predict_proba(&self, x: &phishinghook_ml::Matrix) -> Vec<f64> {
        self.model.as_classifier().predict_proba(x)
    }

    /// Serializes the fitted detector into a versioned snapshot envelope.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        phishinghook_persist::to_envelope(SNAPSHOT_KIND, self)
    }

    /// Restores a detector from snapshot bytes.
    ///
    /// # Errors
    /// Any [`PersistError`]: wrong magic/kind, version skew, corruption
    /// (checksum), truncation, or a malformed payload.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        phishinghook_persist::from_envelope(SNAPSHOT_KIND, bytes)
    }

    /// Saves the detector snapshot to a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        phishinghook_persist::save_file(path, SNAPSHOT_KIND, self)
    }

    /// Loads a detector snapshot from a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] when the file cannot be read, otherwise any
    /// decode error from [`HscDetector::from_snapshot_bytes`].
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        phishinghook_persist::load_file(path, SNAPSHOT_KIND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DetectorRegistry, HSC_KINDS};
    use phishinghook_data::{Corpus, CorpusConfig};

    /// The seven HSCs in Table II order, seeded as `hsc_specs()` builds them.
    fn registry_hscs(seed: u64) -> Vec<HscDetector> {
        let registry = DetectorRegistry::global();
        HSC_KINDS
            .into_iter()
            .map(|kind| registry.build_hsc(kind, seed ^ kind.seed_offset()))
            .collect()
    }

    fn tiny_corpus() -> (Vec<Vec<u8>>, Vec<usize>) {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 160,
            seed: 3,
            ..Default::default()
        });
        let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
        let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
        (codes, labels)
    }

    #[test]
    fn every_hsc_beats_chance_on_the_corpus() {
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let (train_x, test_x) = refs.split_at(120);
        let (train_y, test_y) = labels.split_at(120);
        for mut det in registry_hscs(7) {
            det.fit(train_x, train_y);
            let preds = det.predict(test_x);
            let correct = preds.iter().zip(test_y).filter(|(a, b)| a == b).count();
            let acc = correct as f64 / test_y.len() as f64;
            assert!(acc > 0.6, "{} accuracy {acc}", det.name());
        }
    }

    #[test]
    fn names_match_table2() {
        let dets = registry_hscs(1);
        let names: Vec<&str> = dets.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "Random Forest",
                "k-NN",
                "SVM",
                "Logistic Regression",
                "XGBoost",
                "LightGBM",
                "CatBoost"
            ]
        );
    }

    #[test]
    fn category_is_histogram() {
        assert_eq!(HscDetector::knn().category(), Category::Histogram);
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let det = HscDetector::knn();
        let _ = det.predict(&[&[0x60, 0x80][..]]);
    }

    #[test]
    fn every_family_fits_and_scores_a_training_set_with_no_opcodes() {
        // All-empty bytecodes (EOAs, say) give zero histogram columns.
        let codes: Vec<&[u8]> = vec![&[][..]; 6];
        let labels = vec![1, 0, 1, 0, 0, 1];
        for mut det in registry_hscs(7) {
            det.fit(&codes, &labels);
            assert_eq!(det.n_features(), 0, "{}", det.name());
            let probs = det.predict_proba(&det.featurize(&codes));
            assert_eq!(probs.len(), codes.len(), "{}", det.name());
            assert!(
                probs.iter().all(|p| (0.0..=1.0).contains(p)),
                "{}: {probs:?}",
                det.name()
            );
        }
    }

    #[test]
    fn snapshot_with_mismatched_extractor_is_rejected() {
        // A model paired with an extractor of a different feature width can
        // never come from `fit`; restoring one must fail at load time, not
        // index out of bounds at scoring time.
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = HscDetector::random_forest(7);
        det.fit(&refs[..40], &labels[..40]);
        // Swap in a vocabulary fitted on one trivial bytecode (far fewer
        // columns than the forest was trained on).
        let narrow = phishinghook_features::HistogramExtractor::fit(&[&[0x60, 0x80][..]]);
        assert_ne!(narrow.n_features(), det.extractor().unwrap().n_features());
        det.extractor = Some(narrow);
        let err = HscDetector::from_snapshot_bytes(&det.to_snapshot_bytes()).unwrap_err();
        assert!(
            matches!(err, phishinghook_persist::PersistError::Malformed(_)),
            "{err:?}"
        );
    }

    #[test]
    fn fold_sharing_matches_per_detector_extraction() {
        // Training through the shared FoldFeatures store must produce the
        // same predictions as each detector extracting for itself.
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let (train_x, test_x) = refs.split_at(120);
        let (train_y, _) = labels.split_at(120);
        let fold = crate::FoldFeatures::new(train_x, test_x);
        for (mut shared, mut solo) in registry_hscs(7).into_iter().zip(registry_hscs(7)) {
            shared.fit_fold(&fold, train_y);
            solo.fit(train_x, train_y);
            assert_eq!(
                shared.predict_fold(&fold),
                solo.predict(test_x),
                "{}",
                solo.name()
            );
            // The fitted extractor is the shared one, cloned per detector.
            assert_eq!(
                shared.extractor().unwrap().columns(),
                solo.extractor().unwrap().columns()
            );
        }
    }

    #[test]
    fn trace_fold_sharing_matches_per_detector_extraction() {
        // The shared-fold path must stay bit-equivalent to direct fit for
        // the dynamic channel and the combined channel, exactly as it is
        // for histograms.
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let (train_x, test_x) = (&refs[..60], &refs[60..80]);
        let train_y = &labels[..60];
        let fold = crate::FoldFeatures::new(train_x, test_x);
        for features in [FeatureSet::Trace, FeatureSet::HistogramTrace] {
            let mut shared = HscDetector::random_forest(7).with_features(features);
            let mut solo = HscDetector::random_forest(7).with_features(features);
            shared.fit_fold(&fold, train_y);
            solo.fit(train_x, train_y);
            assert_eq!(
                shared.predict_fold(&fold),
                solo.predict(test_x),
                "{features:?}"
            );
            assert!(shared.is_fitted());
            assert_eq!(shared.n_features(), solo.n_features());
        }
        // Four accesses (fit + predict per feature set), one build.
        let (hits, build_secs) = fold.trace_usage();
        assert_eq!(hits, 4);
        assert!(build_secs > 0.0);
    }

    #[test]
    fn snapshot_round_trip_preserves_trace_channel() {
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = HscDetector::logistic_regression().with_features(FeatureSet::HistogramTrace);
        det.fit(&refs[..80], &labels[..80]);
        let back = HscDetector::from_snapshot_bytes(&det.to_snapshot_bytes()).expect("round-trips");
        assert_eq!(back.features(), FeatureSet::HistogramTrace);
        assert_eq!(back.trace_extractor(), det.trace_extractor());
        assert_eq!(back.n_features(), det.n_features());
        let x = det.featurize(&refs[80..100]);
        let a = det.predict_proba(&x);
        let b = back.predict_proba(&back.featurize(&refs[80..100]));
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn legacy_envelope_without_trailing_fields_restores_to_histogram() {
        // Envelopes written before the feature-set axis end right after the
        // histogram extractor; restore must treat them as histogram-only.
        struct LegacyLayout<'a>(&'a HscDetector);
        impl Snapshot for LegacyLayout<'_> {
            fn snapshot(&self, w: &mut Writer) {
                w.put_str(self.0.name);
                self.0.model.snapshot(w);
                self.0.extractor.snapshot(w);
            }
        }
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = HscDetector::knn();
        det.fit(&refs[..60], &labels[..60]);
        let env = phishinghook_persist::to_envelope(SNAPSHOT_KIND, &LegacyLayout(&det));
        let back = HscDetector::from_snapshot_bytes(&env).expect("legacy envelope restores");
        assert_eq!(back.features(), FeatureSet::Histogram);
        assert!(back.trace_extractor().is_none());
        assert!(back.is_fitted());
        assert_eq!(back.predict(&refs[60..70]), det.predict(&refs[60..70]));
    }

    #[test]
    fn channel_mismatch_against_feature_set_is_rejected() {
        // A `features=trace` detector whose envelope carries a histogram
        // extractor (or vice versa) can never come from `fit`.
        let (codes, labels) = tiny_corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = HscDetector::knn().with_features(FeatureSet::Trace);
        det.fit(&refs[..40], &labels[..40]);
        det.extractor = Some(HistogramExtractor::fit(&refs[..40]));
        det.features = FeatureSet::Histogram; // declares no trace channel
        let err = HscDetector::from_snapshot_bytes(&det.to_snapshot_bytes()).unwrap_err();
        assert!(
            matches!(err, phishinghook_persist::PersistError::Malformed(_)),
            "{err:?}"
        );
    }
}
