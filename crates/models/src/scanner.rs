//! The serving facade: typed scan requests over any spec-built detector.
//!
//! [`Scanner`] is the one scoring facade: it wraps any fitted
//! [`AnyDetector`] — one HSC or a voting ensemble, built from a
//! [`DetectorSpec`](crate::DetectorSpec) or restored from either snapshot
//! kind through one front door — behind a batched, scratch-matrix hot
//! path. Tree models score through their quantized mirrors, the one engine
//! `eval`, cross-validation and serving share. On top of the raw
//! `score_batch` it adds the typed request shape the wire protocol
//! carries: [`ScanRequest`] `{ id, target }` in, [`ScanReport`]
//! `{ id, verdict, proba, per_model, model_version }` out, with per-member
//! probabilities whenever the model is an ensemble.
//!
//! A request's [`Target`] is either raw bytecode or a 20-byte chain
//! address; addresses resolve through a [`CodeSource`] (the simulated
//! chain's `eth_getCode`), so the address → bytecode hop lives in exactly
//! one place no matter which protocol — JSONL, HTTP, or a direct library
//! call — carried the request.
//!
//! A scanner is cheap to fan out: [`Scanner::worker`] shares the immutable
//! detector through an [`Arc`] (restored once per process, never per
//! connection) while giving each worker its own scratch buffer.
//!
//! ```
//! use phishinghook_models::{Detector, DetectorRegistry, Scanner, ScanRequest};
//!
//! let train: Vec<&[u8]> = vec![&[0x60, 0x80, 0x52], &[0x00, 0x01]];
//! let mut det = DetectorRegistry::global()
//!     .build_str("ensemble:rf+lgbm:vote=soft", 7)
//!     .expect("valid spec");
//! det.fit(&train, &[1, 0]);
//!
//! let mut scanner = Scanner::new(det).expect("fitted");
//! let reports = scanner.scan_batch(
//!     &[ScanRequest::bytecode("req-1", vec![0x60, 0x80, 0x52])],
//!     None, // no chain attached: bytecode targets only
//! );
//! let report = reports[0].as_ref().expect("bytecode targets always score");
//! assert_eq!(report.id, "req-1");
//! assert_eq!(report.per_model.len(), 2); // one probability per member
//! ```

use crate::detector::{Category, Detector, FoldFeatures};
use crate::ensemble::EnsembleDetector;
use crate::hsc::HscDetector;
use phishinghook_data::{Address, CodeSource};
use phishinghook_features::HistogramExtractor;
use phishinghook_ml::Matrix;
use phishinghook_persist::{PersistError, FORMAT_VERSION};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Any detector the registry can build and the scanner can serve: a single
/// HSC or an ensemble. Unifies construction, fitting, scoring and
/// persistence behind one type so callers never match on the family.
// Variant sizes differ (a single HSC inlines its model enum where an
// ensemble holds a Vec), but AnyDetectors are built a handful of times per
// process and immediately moved behind an Arc, never stored in bulk — the
// Box indirection the lint suggests would cost every scoring call more
// than the moves it saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyDetector {
    /// One histogram similarity classifier.
    Hsc(HscDetector),
    /// A voting ensemble of HSCs.
    Ensemble(EnsembleDetector),
}

impl AnyDetector {
    /// `true` once the underlying model(s) carry a fitted vocabulary.
    pub fn is_fitted(&self) -> bool {
        match self {
            AnyDetector::Hsc(d) => d.is_fitted(),
            AnyDetector::Ensemble(d) => d.is_fitted(),
        }
    }

    /// The fitted histogram extractor, when the feature set carries that
    /// channel (shared by all members for an ensemble).
    pub fn extractor(&self) -> Option<&HistogramExtractor> {
        match self {
            AnyDetector::Hsc(d) => d.extractor(),
            AnyDetector::Ensemble(d) => d.extractor(),
        }
    }

    /// The feature channels the detector trains and scores on.
    pub fn features(&self) -> crate::spec::FeatureSet {
        match self {
            AnyDetector::Hsc(d) => d.features(),
            AnyDetector::Ensemble(d) => d.features(),
        }
    }

    /// Widest per-feature bin count across the fitted quantized mirrors,
    /// when any underlying model carries one (`None` means every model
    /// scores through its per-row arena or is not a tree model).
    pub fn quant_bins(&self) -> Option<usize> {
        match self {
            AnyDetector::Hsc(d) => d.quant_bins(),
            AnyDetector::Ensemble(d) => d.quant_bins(),
        }
    }

    /// Width of the fitted feature rows.
    ///
    /// # Panics
    /// Panics when called before [`Detector::fit`].
    pub fn n_features(&self) -> usize {
        match self {
            AnyDetector::Hsc(d) => d.n_features(),
            AnyDetector::Ensemble(d) => d.n_features(),
        }
    }

    /// Streams the feature rows of `codes` (per the fitted feature set)
    /// into `out`, which must be `codes.len() × n_features()`.
    ///
    /// # Panics
    /// Panics before fit, or on an `out` shape mismatch.
    pub fn featurize_into(&self, codes: &[&[u8]], out: &mut Matrix) {
        match self {
            AnyDetector::Hsc(d) => d.featurize_into(codes, out),
            AnyDetector::Ensemble(d) => d.featurize_into(codes, out),
        }
    }

    /// Combined class-1 probability per row of an already-extracted feature
    /// matrix.
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        match self {
            AnyDetector::Hsc(d) => d.predict_proba(x),
            AnyDetector::Ensemble(d) => d.predict_proba(x),
        }
    }

    /// Per-model `(name, probabilities)` on an already-extracted matrix: one
    /// entry for a single HSC, one per member for an ensemble.
    pub fn per_model_proba(&self, x: &Matrix) -> Vec<(String, Vec<f64>)> {
        match self {
            AnyDetector::Hsc(d) => vec![(d.name().to_owned(), d.predict_proba(x))],
            AnyDetector::Ensemble(d) => d
                .members()
                .iter()
                .map(|m| (m.name().to_owned(), m.predict_proba(x)))
                .collect(),
        }
    }

    /// Combined and per-model probabilities from **one** inference pass per
    /// underlying model: the per-model scores are computed first and the
    /// combined score is derived from them (identity for a single HSC, the
    /// voting rule for an ensemble) — bit-identical to calling
    /// [`AnyDetector::predict_proba`] and [`AnyDetector::per_model_proba`]
    /// separately, at half the cost.
    pub fn predict_with_members(&self, x: &Matrix) -> (Vec<f64>, Vec<(String, Vec<f64>)>) {
        match self {
            AnyDetector::Hsc(d) => {
                let probs = d.predict_proba(x);
                (probs.clone(), vec![(d.name().to_owned(), probs)])
            }
            AnyDetector::Ensemble(d) => {
                let member_probs = d.member_probas(x);
                let combined = d.combine_probas(&member_probs);
                let named = d
                    .members()
                    .iter()
                    .zip(member_probs)
                    .map(|(m, probs)| (m.name().to_owned(), probs))
                    .collect();
                (combined, named)
            }
        }
    }

    /// The snapshot envelope kind this detector saves under.
    pub fn snapshot_kind(&self) -> &'static str {
        match self {
            AnyDetector::Hsc(_) => crate::hsc::SNAPSHOT_KIND,
            AnyDetector::Ensemble(_) => crate::ensemble::SNAPSHOT_KIND,
        }
    }

    /// Serializes into a versioned snapshot envelope (kind depends on the
    /// family; see [`AnyDetector::snapshot_kind`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        match self {
            AnyDetector::Hsc(d) => d.to_snapshot_bytes(),
            AnyDetector::Ensemble(d) => d.to_snapshot_bytes(),
        }
    }

    /// Restores a detector of *either* snapshot kind: the envelope's kind
    /// tag picks the decoder.
    ///
    /// # Errors
    /// Any [`PersistError`]; an envelope of an unrelated kind fails as
    /// [`PersistError::WrongKind`] against the HSC kind.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        match phishinghook_persist::envelope_kind(bytes)? {
            k if k == crate::ensemble::SNAPSHOT_KIND => Ok(AnyDetector::Ensemble(
                EnsembleDetector::from_snapshot_bytes(bytes)?,
            )),
            _ => Ok(AnyDetector::Hsc(HscDetector::from_snapshot_bytes(bytes)?)),
        }
    }

    /// Saves the snapshot to a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        match self {
            AnyDetector::Hsc(d) => d.save_snapshot(path),
            AnyDetector::Ensemble(d) => d.save_snapshot(path),
        }
    }

    /// Loads a detector of either snapshot kind from a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] when the file cannot be read, otherwise any
    /// decode error from [`AnyDetector::from_snapshot_bytes`].
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path).map_err(PersistError::Io)?;
        Self::from_snapshot_bytes(&bytes)
    }
}

impl Detector for AnyDetector {
    fn name(&self) -> &str {
        match self {
            AnyDetector::Hsc(d) => d.name(),
            AnyDetector::Ensemble(d) => d.name(),
        }
    }

    fn category(&self) -> Category {
        Category::Histogram
    }

    fn fit(&mut self, codes: &[&[u8]], labels: &[usize]) {
        match self {
            AnyDetector::Hsc(d) => d.fit(codes, labels),
            AnyDetector::Ensemble(d) => d.fit(codes, labels),
        }
    }

    fn predict(&self, codes: &[&[u8]]) -> Vec<usize> {
        match self {
            AnyDetector::Hsc(d) => d.predict(codes),
            AnyDetector::Ensemble(d) => d.predict(codes),
        }
    }

    fn fit_fold(&mut self, fold: &FoldFeatures<'_>, labels: &[usize]) {
        match self {
            AnyDetector::Hsc(d) => d.fit_fold(fold, labels),
            AnyDetector::Ensemble(d) => d.fit_fold(fold, labels),
        }
    }

    fn predict_fold(&self, fold: &FoldFeatures<'_>) -> Vec<usize> {
        match self {
            AnyDetector::Hsc(d) => d.predict_fold(fold),
            AnyDetector::Ensemble(d) => d.predict_fold(fold),
        }
    }
}

/// Binary verdict on one contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Class 0 — no phishing signature.
    Benign,
    /// Class 1 — phishing.
    Phishing,
}

impl Verdict {
    /// Thresholds a class-1 probability at 0.5.
    pub fn from_proba(p: f64) -> Self {
        if p >= 0.5 {
            Verdict::Phishing
        } else {
            Verdict::Benign
        }
    }

    /// The lowercase wire spelling (`"benign"` / `"phishing"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Benign => "benign",
            Verdict::Phishing => "phishing",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a scan request points at: the contract's raw bytecode, or the
/// chain address to fetch it from.
///
/// Every request surface — proto v2 JSONL, HTTP `POST /predict`, and the
/// library-level [`Scanner::scan_batch`] — carries this one enum, and
/// [`Target::resolve`] is the single place an address becomes bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// Raw deployed runtime bytecode, scored as-is.
    Bytecode(Vec<u8>),
    /// A 20-byte account address, resolved through a [`CodeSource`]
    /// (`eth_getCode`) before scoring.
    Address(Address),
}

impl Target {
    /// The bytecode to score: borrowed straight out of a
    /// [`Target::Bytecode`], or fetched from `source` for a
    /// [`Target::Address`].
    ///
    /// # Errors
    /// [`ResolveError::NoSource`] for an address target when no chain is
    /// attached, [`ResolveError::NoCode`] when the chain holds no code at
    /// the address (an EOA, or an unknown account).
    pub fn resolve(&self, source: Option<&dyn CodeSource>) -> Result<Cow<'_, [u8]>, ResolveError> {
        match self {
            Target::Bytecode(code) => Ok(Cow::Borrowed(code.as_slice())),
            Target::Address(addr) => match source {
                None => Err(ResolveError::NoSource(*addr)),
                Some(chain) => chain
                    .code_at(*addr)
                    .map(Cow::Owned)
                    .ok_or(ResolveError::NoCode(*addr)),
            },
        }
    }

    /// The address this target names, when it names one.
    pub fn address(&self) -> Option<Address> {
        match self {
            Target::Bytecode(_) => None,
            Target::Address(addr) => Some(*addr),
        }
    }
}

/// Why an address target could not be turned into bytecode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// The request named an address but the server has no chain attached.
    NoSource(Address),
    /// The chain holds no code at this address (EOA or unknown account).
    NoCode(Address),
}

impl ResolveError {
    /// The address that failed to resolve.
    pub fn address(&self) -> Address {
        match self {
            ResolveError::NoSource(a) | ResolveError::NoCode(a) => *a,
        }
    }
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.address().iter().map(|b| format!("{b:02x}")).collect();
        match self {
            ResolveError::NoSource(_) => {
                write!(f, "no chain source attached to resolve address 0x{hex}")
            }
            ResolveError::NoCode(_) => write!(f, "no contract code at address 0x{hex}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// One contract to score: a caller-chosen request id plus the [`Target`]
/// naming what to score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRequest {
    /// Opaque id echoed back in the matching [`ScanReport`].
    pub id: String,
    /// What to score: raw bytecode, or an address to resolve.
    pub target: Target,
}

impl ScanRequest {
    /// A request carrying raw deployed bytecode.
    pub fn bytecode(id: impl Into<String>, code: Vec<u8>) -> Self {
        ScanRequest {
            id: id.into(),
            target: Target::Bytecode(code),
        }
    }

    /// A request naming a chain address to resolve through `eth_getCode`.
    pub fn address(id: impl Into<String>, address: Address) -> Self {
        ScanRequest {
            id: id.into(),
            target: Target::Address(address),
        }
    }
}

/// The scored answer for one [`ScanRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScanReport {
    /// The request's id, echoed.
    pub id: String,
    /// The resolved address, echoed for address-form requests.
    pub address: Option<Address>,
    /// Hard verdict (probability thresholded at 0.5).
    pub verdict: Verdict,
    /// Combined class-1 probability.
    pub proba: f64,
    /// Per-model `(name, probability)` — one entry for a single model, one
    /// per member for an ensemble, in member order.
    pub per_model: Vec<(String, f64)>,
    /// The serving model's version string (see [`Scanner::model_version`]).
    pub model_version: String,
}

/// A fitted detector plus reusable scoring buffers — the one serving facade
/// for every detector family.
#[derive(Debug)]
pub struct Scanner {
    model: Arc<AnyDetector>,
    /// `"<snapshot-kind>/v<format-version>"`, e.g. `"hsc-ensemble/v1"` —
    /// identifies what a wire peer is talking to.
    model_version: Arc<str>,
    scratch: Matrix,
}

impl Scanner {
    /// Wraps a fitted detector.
    ///
    /// # Errors
    /// [`PersistError::Malformed`] when the detector was never fitted (an
    /// unfitted detector has no feature vocabulary to score with).
    pub fn new(model: AnyDetector) -> Result<Self, PersistError> {
        if !model.is_fitted() {
            return Err(PersistError::Malformed(format!(
                "`{}` detector is not fitted; train it (or load a fitted snapshot) before serving",
                model.name()
            )));
        }
        let model_version = format!("{}/v{}", model.snapshot_kind(), FORMAT_VERSION).into();
        Ok(Scanner {
            model: Arc::new(model),
            model_version,
            scratch: Matrix::zeros(0, 0),
        })
    }

    /// Restores a scanner from snapshot bytes of either kind.
    ///
    /// # Errors
    /// Any [`PersistError`] from decoding, plus `Malformed` for an unfitted
    /// snapshot.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        Self::new(AnyDetector::from_snapshot_bytes(bytes)?)
    }

    /// Loads a scanner from a snapshot file of either kind.
    ///
    /// # Errors
    /// [`PersistError::Io`] when the file cannot be read, otherwise any
    /// decode error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        Self::new(AnyDetector::load_snapshot(path)?)
    }

    /// A sibling scanner sharing this one's detector (via [`Arc`], no model
    /// copy, no re-restore) but owning its own scratch buffer — one per
    /// worker thread or connection handler in a serving pool.
    pub fn worker(&self) -> Scanner {
        Scanner {
            model: Arc::clone(&self.model),
            model_version: Arc::clone(&self.model_version),
            scratch: Matrix::zeros(0, 0),
        }
    }

    /// `true` when both scanners score through the same shared in-memory
    /// detector (as [`Scanner::worker`] siblings do).
    pub fn shares_model_with(&self, other: &Scanner) -> bool {
        Arc::ptr_eq(&self.model, &other.model)
    }

    /// The wrapped detector.
    pub fn model(&self) -> &AnyDetector {
        &self.model
    }

    /// Model name: a Table II spelling for singles, the canonical spec
    /// string for ensembles.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// `"<snapshot-kind>/v<format-version>"`, e.g. `"hsc-detector/v1"`.
    pub fn model_version(&self) -> &str {
        &self.model_version
    }

    /// Widest per-feature bin count across the model's fitted quantized
    /// mirrors, when it carries one.
    pub fn quant_bins(&self) -> Option<usize> {
        self.model.quant_bins()
    }

    /// Number of underlying models (ensemble member count; 1 for singles).
    pub fn n_models(&self) -> usize {
        match self.model.as_ref() {
            AnyDetector::Hsc(_) => 1,
            AnyDetector::Ensemble(e) => e.members().len(),
        }
    }

    /// Width of the feature rows the scanner scores with (across every
    /// channel of the model's feature set).
    pub fn n_features(&self) -> usize {
        self.model.n_features()
    }

    /// Streams a batch into the scratch matrix (resized, not reallocated,
    /// while batch sizes are stable).
    fn transform_batch(&mut self, codes: &[&[u8]]) {
        self.scratch.resize(codes.len(), self.model.n_features());
        self.model.featurize_into(codes, &mut self.scratch);
    }

    /// Combined class-1 probability per bytecode — the raw hot path.
    pub fn score_batch(&mut self, codes: &[&[u8]]) -> Vec<f64> {
        self.transform_batch(codes);
        self.model.predict_proba(&self.scratch)
    }

    /// Hard 0/1 verdicts (1 = phishing) by thresholding
    /// [`Scanner::score_batch`] at 0.5.
    pub fn classify_batch(&mut self, codes: &[&[u8]]) -> Vec<usize> {
        self.score_batch(codes)
            .into_iter()
            .map(|p| usize::from(p >= 0.5))
            .collect()
    }

    /// The underlying model names in scoring order (one entry for a single
    /// model, one per member for an ensemble) — the fixed shape of every
    /// per-model probability vector this scanner produces.
    pub fn model_names(&self) -> Vec<String> {
        match self.model.as_ref() {
            AnyDetector::Hsc(d) => vec![d.name().to_owned()],
            AnyDetector::Ensemble(e) => e.members().iter().map(|m| m.name().to_owned()).collect(),
        }
    }

    /// Batch-submit hook for serving schedulers: combined plus per-model
    /// class-1 probabilities for a batch of raw bytecodes, from one
    /// extraction pass and one inference pass per underlying model.
    ///
    /// Unlike [`Scanner::scan_batch`] this takes borrowed bytecode slices
    /// and returns raw probability vectors — no request/report structs are
    /// built — so a cross-connection batching scheduler can submit rows
    /// gathered from many clients without cloning payloads. Bit-identical
    /// to [`Scanner::scan_batch`] on the same rows. It is the serving
    /// scheduler's one scoring path, so every admitted request is scored
    /// by every member of the deployed detector.
    pub fn score_with_members(&mut self, codes: &[&[u8]]) -> (Vec<f64>, Vec<(String, Vec<f64>)>) {
        self.transform_batch(codes);
        self.model.predict_with_members(&self.scratch)
    }

    /// Scores a batch of typed requests, echoing ids and exposing per-model
    /// probabilities (one entry per ensemble member).
    ///
    /// Address targets resolve through `source` ([`Target::resolve`], the
    /// one address → bytecode hop); requests that cannot be resolved come
    /// back as `Err` in their slot, with the rest of the batch scored
    /// normally. The batch is extracted once into the scratch matrix and
    /// every underlying model scores the same rows, so an N-member ensemble
    /// costs N inference passes but only one disassembly/extraction pass.
    pub fn scan_batch(
        &mut self,
        requests: &[ScanRequest],
        source: Option<&dyn CodeSource>,
    ) -> Vec<Result<ScanReport, ResolveError>> {
        let resolved: Vec<Result<Cow<'_, [u8]>, ResolveError>> =
            requests.iter().map(|r| r.target.resolve(source)).collect();
        let codes: Vec<&[u8]> = resolved.iter().filter_map(|r| r.as_deref().ok()).collect();
        let (combined, per_model) = self.score_with_members(&codes);
        let mut row = 0;
        requests
            .iter()
            .zip(&resolved)
            .map(|(req, res)| match res {
                Err(e) => Err(*e),
                Ok(_) => {
                    let r = row;
                    row += 1;
                    Ok(ScanReport {
                        id: req.id.clone(),
                        address: req.target.address(),
                        verdict: Verdict::from_proba(combined[r]),
                        proba: combined[r],
                        per_model: per_model
                            .iter()
                            .map(|(name, probs)| (name.clone(), probs[r]))
                            .collect(),
                        model_version: self.model_version.to_string(),
                    })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DetectorRegistry;
    use phishinghook_data::{Corpus, CorpusConfig};
    use std::sync::OnceLock;

    fn corpus() -> &'static (Vec<Vec<u8>>, Vec<usize>) {
        static CORPUS: OnceLock<(Vec<Vec<u8>>, Vec<usize>)> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let corpus = Corpus::generate(&CorpusConfig {
                n_contracts: 90,
                seed: 17,
                ..Default::default()
            });
            let codes = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
            let labels = corpus.records.iter().map(|r| r.label.as_index()).collect();
            (codes, labels)
        })
    }

    fn fitted(spec: &str) -> AnyDetector {
        let (codes, labels) = corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let mut det = DetectorRegistry::global()
            .build_str(spec, 7)
            .expect("valid spec");
        det.fit(&refs[..60], &labels[..60]);
        det
    }

    #[test]
    fn unfitted_model_is_rejected() {
        let det = DetectorRegistry::global().build_str("rf", 7).expect("spec");
        let err = Scanner::new(det).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err:?}");
        let ens = DetectorRegistry::global()
            .build_str("ensemble:rf+knn", 7)
            .expect("spec");
        assert!(Scanner::new(ens).is_err());
    }

    #[test]
    fn spec_snapshot_and_restored_scanners_agree_bit_identically() {
        // The acceptance contract: built from a spec, loaded from a
        // snapshot file, and restored from bytes must score identically.
        for spec in ["rf", "ensemble:rf+lgbm:vote=soft"] {
            let det = fitted(spec);
            let bytes = det.to_snapshot_bytes();
            let dir = std::env::temp_dir().join("phishinghook-scanner-test");
            std::fs::create_dir_all(&dir).expect("temp dir");
            let path = dir.join(format!("{}.snap", spec.replace([':', '+', '='], "_")));
            det.save_snapshot(&path).expect("saves");

            let mut from_spec = Scanner::new(det).expect("fitted");
            let mut from_bytes = Scanner::from_snapshot_bytes(&bytes).expect("decodes");
            let mut from_file = Scanner::load(&path).expect("loads");

            let (codes, _) = corpus();
            let probes: Vec<&[u8]> = codes[60..].iter().map(Vec::as_slice).collect();
            let a: Vec<u64> = from_spec
                .score_batch(&probes)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let b: Vec<u64> = from_bytes
                .score_batch(&probes)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let c: Vec<u64> = from_file
                .score_batch(&probes)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(a, b, "{spec}: snapshot bytes diverge");
            assert_eq!(a, c, "{spec}: snapshot file diverges");

            // Verdicts match one-shot `Detector::predict`, and the scratch
            // matrix is reused across differently-sized batches, including
            // an empty one, without changing a verdict.
            let verdicts: Vec<usize> = a
                .iter()
                .map(|&p| usize::from(f64::from_bits(p) >= 0.5))
                .collect();
            assert_eq!(from_spec.model().predict(&probes), verdicts, "{spec}");
            assert_eq!(from_spec.classify_batch(&probes[..7]), verdicts[..7]);
            assert!(from_spec.score_batch(&[]).is_empty());
            assert_eq!(from_spec.classify_batch(&probes), verdicts, "{spec}");
        }
    }

    #[test]
    fn scan_batch_echoes_ids_and_exposes_members() {
        let mut scanner = Scanner::new(fitted("ensemble:rf+lgbm+catboost:vote=soft")).unwrap();
        assert_eq!(scanner.n_models(), 3);
        assert_eq!(scanner.model_version(), "hsc-ensemble/v1");
        let (codes, _) = corpus();
        let requests: Vec<ScanRequest> = codes[60..64]
            .iter()
            .enumerate()
            .map(|(i, code)| ScanRequest::bytecode(format!("req-{i}"), code.clone()))
            .collect();
        let reports: Vec<ScanReport> = scanner
            .scan_batch(&requests, None)
            .into_iter()
            .map(|r| r.expect("bytecode targets always score"))
            .collect();
        assert_eq!(reports.len(), 4);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.id, format!("req-{i}"));
            assert_eq!(report.address, None, "bytecode targets echo no address");
            assert_eq!(report.per_model.len(), 3);
            assert_eq!(report.per_model[0].0, "Random Forest");
            assert_eq!(report.per_model[1].0, "LightGBM");
            assert_eq!(report.per_model[2].0, "CatBoost");
            // Soft vote: combined is the member mean.
            let mean: f64 = report.per_model.iter().map(|(_, p)| p).sum::<f64>() / 3.0;
            assert_eq!(report.proba.to_bits(), mean.to_bits());
            assert_eq!(report.verdict, Verdict::from_proba(report.proba));
            assert_eq!(report.model_version, "hsc-ensemble/v1");
        }
    }

    #[test]
    fn single_model_reports_one_per_model_entry() {
        let mut scanner = Scanner::new(fitted("rf:seed=5")).unwrap();
        assert_eq!(scanner.n_models(), 1);
        assert_eq!(scanner.model_version(), "hsc-detector/v1");
        let (codes, _) = corpus();
        let reports = scanner.scan_batch(&[ScanRequest::bytecode("only", codes[60].clone())], None);
        let report = reports[0].as_ref().expect("bytecode target scores");
        assert_eq!(report.per_model.len(), 1);
        assert_eq!(report.per_model[0].0, "Random Forest");
        assert_eq!(report.per_model[0].1.to_bits(), report.proba.to_bits());
    }

    #[test]
    fn address_targets_resolve_through_the_chain_in_one_place() {
        use phishinghook_data::SimulatedChain;

        let mut scanner = Scanner::new(fitted("rf:seed=5")).unwrap();
        let (codes, _) = corpus();
        let mut chain = SimulatedChain::new();
        chain.deploy([7; 20], codes[60].clone());

        let requests = [
            ScanRequest::address("by-addr", [7; 20]),
            ScanRequest::bytecode("by-code", codes[60].clone()),
            ScanRequest::address("eoa", [9; 20]),
        ];
        let reports = scanner.scan_batch(&requests, Some(&chain));
        let by_addr = reports[0].as_ref().expect("deployed address resolves");
        let by_code = reports[1].as_ref().expect("bytecode scores");
        // Resolution is transparent: same bytecode ⇒ bit-identical verdict.
        assert_eq!(by_addr.proba.to_bits(), by_code.proba.to_bits());
        // Address-form requests echo the resolved address; bytecode ones don't.
        assert_eq!(by_addr.address, Some([7; 20]));
        assert_eq!(by_code.address, None);
        // An EOA errors in its slot without disturbing the batch.
        let err = reports[2].as_ref().unwrap_err();
        assert_eq!(*err, ResolveError::NoCode([9; 20]));
        assert!(err.to_string().contains("no contract code"), "{err}");

        // Without a source, address targets fail with NoSource.
        let unresolved = scanner.scan_batch(&[ScanRequest::address("x", [7; 20])], None);
        assert_eq!(
            unresolved[0].as_ref().unwrap_err(),
            &ResolveError::NoSource([7; 20])
        );
        assert!(unresolved[0]
            .as_ref()
            .unwrap_err()
            .to_string()
            .contains("no chain source"));
    }

    #[test]
    fn fused_scoring_matches_the_separate_calls_bit_identically() {
        // scan_batch derives the combined score from one inference pass per
        // member; it must equal the two-pass predict_proba/per_model_proba
        // decomposition exactly.
        for spec in ["rf", "ensemble:rf+lgbm:vote=weighted:weights=3,1"] {
            let det = fitted(spec);
            let (codes, _) = corpus();
            let probes: Vec<&[u8]> = codes[60..].iter().map(Vec::as_slice).collect();
            let x = det.extractor().unwrap().transform(&probes);
            let (combined, per_model) = det.predict_with_members(&x);
            let two_pass_combined = det.predict_proba(&x);
            let two_pass_members = det.per_model_proba(&x);
            assert_eq!(
                combined.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                two_pass_combined
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<_>>(),
                "{spec}"
            );
            assert_eq!(per_model, two_pass_members, "{spec}");
        }
    }

    #[test]
    fn workers_share_the_model_and_agree() {
        let scanner = Scanner::new(fitted("ensemble:rf+knn:vote=hard")).unwrap();
        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[60..].iter().map(Vec::as_slice).collect();
        let expected = scanner.worker().score_batch(&probes);
        let outputs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let mut worker = scanner.worker();
                    assert!(worker.shares_model_with(&scanner));
                    let probes = &probes;
                    scope.spawn(move || worker.score_batch(probes))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outputs {
            assert_eq!(out, expected);
        }
        // Independent scanners do NOT share.
        let other = Scanner::new(fitted("rf")).unwrap();
        assert!(!other.shares_model_with(&scanner));
    }

    #[test]
    fn batch_submit_hook_matches_scan_batch_bit_identically() {
        // score_with_members is the scheduler-facing hook: raw slices in,
        // raw probability vectors out — it must agree exactly with the
        // report-building scan_batch path and with model_names().
        for spec in ["rf", "ensemble:rf+lgbm:vote=soft"] {
            let mut scanner = Scanner::new(fitted(spec)).expect("fitted");
            let (codes, _) = corpus();
            let probes: Vec<&[u8]> = codes[60..66].iter().map(Vec::as_slice).collect();
            let (combined, per_model) = scanner.score_with_members(&probes);
            assert_eq!(
                per_model.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
                scanner.model_names(),
                "{spec}"
            );
            let requests: Vec<ScanRequest> = probes
                .iter()
                .enumerate()
                .map(|(i, code)| ScanRequest::bytecode(i.to_string(), code.to_vec()))
                .collect();
            let reports: Vec<ScanReport> = scanner
                .scan_batch(&requests, None)
                .into_iter()
                .map(|r| r.expect("bytecode targets always score"))
                .collect();
            for (row, report) in reports.iter().enumerate() {
                assert_eq!(report.proba.to_bits(), combined[row].to_bits(), "{spec}");
                for (m, (name, probs)) in per_model.iter().enumerate() {
                    assert_eq!(report.per_model[m].0, *name, "{spec}");
                    assert_eq!(
                        report.per_model[m].1.to_bits(),
                        probs[row].to_bits(),
                        "{spec}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_feature_specs_serve_through_the_scanner() {
        // The serving hot path must generalize past histograms: a
        // `features=` spec scores through the same scratch-matrix batch
        // path and survives the snapshot round trip bit-identically.
        for spec in ["rf:features=trace", "lr:features=hist+trace"] {
            let det = fitted(spec);
            let expected_width = det.n_features();
            let bytes = det.to_snapshot_bytes();
            let mut scanner = Scanner::new(det).expect("fitted");
            assert_eq!(scanner.n_features(), expected_width, "{spec}");
            let (codes, _) = corpus();
            let probes: Vec<&[u8]> = codes[60..66].iter().map(Vec::as_slice).collect();
            let a = scanner.score_batch(&probes);
            let mut restored = Scanner::from_snapshot_bytes(&bytes).expect("decodes");
            let b = restored.score_batch(&probes);
            assert_eq!(
                a.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "{spec}"
            );
        }
    }

    #[test]
    fn verdict_formatting() {
        assert_eq!(Verdict::from_proba(0.5), Verdict::Phishing);
        assert_eq!(Verdict::from_proba(0.49), Verdict::Benign);
        assert_eq!(Verdict::Phishing.to_string(), "phishing");
        assert_eq!(Verdict::Benign.as_str(), "benign");
    }
}
