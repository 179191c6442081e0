//! Voting ensembles over histogram similarity classifiers.
//!
//! The paper's headline observation is that the opcode-histogram family
//! *jointly* covers the phishing-contract space; [`EnsembleDetector`] makes
//! that scenario deployable: it fits N member HSCs on one shared histogram
//! extraction, combines their class-1 probabilities under a [`Vote`] rule,
//! and snapshots/restores through the same [`Snapshot`]/[`Restore`]
//! contract as a single detector — the `"hsc-ensemble"` envelope kind nests
//! one complete member envelope per model, so every member snapshot is
//! independently CRC-guarded and version-checked.
//!
//! Ensembles are built most conveniently from a spec string:
//!
//! ```
//! use phishinghook_models::{Detector, DetectorRegistry};
//!
//! let mut det = DetectorRegistry::global()
//!     .build_str("ensemble:rf+lgbm:vote=soft", 7)
//!     .expect("valid spec");
//! let train: Vec<&[u8]> = vec![&[0x60, 0x80, 0x52], &[0x00, 0x01]];
//! det.fit(&train, &[1, 0]);
//! assert_eq!(det.predict(&train).len(), 2);
//! ```

use crate::detector::{Category, Detector, FoldFeatures};
use crate::hsc::HscDetector;
use crate::spec::{FeatureSet, HscKind, SpecError, Vote};
use phishinghook_features::HistogramExtractor;
use phishinghook_ml::Matrix;
use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

/// Envelope kind tag of [`EnsembleDetector`] snapshots. The payload nests
/// one full member envelope (kind [`crate::hsc::SNAPSHOT_KIND`]) per model.
pub const SNAPSHOT_KIND: &str = "hsc-ensemble";

/// A voting ensemble of histogram similarity classifiers.
///
/// All members consume the identical opcode-histogram features, so fitting
/// extracts once and shares the vocabulary; scoring transforms a batch once
/// and runs every member on the same matrix.
#[derive(Debug)]
pub struct EnsembleDetector {
    /// Canonical spec string, e.g. `"ensemble:rf+lgbm:vote=soft"` — this is
    /// the ensemble's [`Detector::name`].
    name: String,
    members: Vec<HscDetector>,
    vote: Vote,
}

/// Maps a member's Table II display name back to its spec token (members
/// only know their display name).
fn member_token(member: &HscDetector) -> &'static str {
    crate::spec::HSC_KINDS
        .into_iter()
        .find(|k| k.display_name() == member.name())
        .map(HscKind::token)
        .expect("HSC members carry Table II names")
}

fn canonical_name(members: &[HscDetector], vote: &Vote) -> String {
    use std::fmt::Write;
    let mut name = String::from("ensemble:");
    for (i, member) in members.iter().enumerate() {
        if i > 0 {
            name.push('+');
        }
        name.push_str(member_token(member));
    }
    match vote {
        Vote::Soft => name.push_str(":vote=soft"),
        Vote::Hard => name.push_str(":vote=hard"),
        Vote::Weighted(weights) => {
            name.push_str(":vote=weighted:weights=");
            for (i, w) in weights.iter().enumerate() {
                if i > 0 {
                    name.push(',');
                }
                write!(name, "{w}").expect("write to String");
            }
        }
    }
    // Same canonical-order rule as `DetectorSpec`'s Display: the default
    // feature set is omitted, anything else renders after the vote.
    let features = members[0].features();
    if features != FeatureSet::default() {
        write!(name, ":features={}", features.token()).expect("write to String");
    }
    name
}

impl EnsembleDetector {
    /// Wraps member detectors under a voting rule.
    ///
    /// # Errors
    /// [`SpecError::EmptyEnsemble`] with no members;
    /// [`SpecError::WeightCount`] when a weighted vote's weight count does
    /// not match the member count; [`SpecError::MixedFeatureSets`] when
    /// members disagree on their feature channels (they all score one
    /// shared feature matrix).
    pub fn new(members: Vec<HscDetector>, vote: Vote) -> Result<Self, SpecError> {
        if members.is_empty() {
            return Err(SpecError::EmptyEnsemble);
        }
        if let Vote::Weighted(weights) = &vote {
            if weights.len() != members.len() {
                return Err(SpecError::WeightCount {
                    weights: weights.len(),
                    members: members.len(),
                });
            }
        }
        if members
            .iter()
            .any(|m| m.features() != members[0].features())
        {
            return Err(SpecError::MixedFeatureSets);
        }
        Ok(EnsembleDetector {
            name: canonical_name(&members, &vote),
            members,
            vote,
        })
    }

    /// The member detectors, in scoring order.
    pub fn members(&self) -> &[HscDetector] {
        &self.members
    }

    /// The voting rule.
    pub fn vote(&self) -> &Vote {
        &self.vote
    }

    /// `true` once every member is fitted.
    pub fn is_fitted(&self) -> bool {
        self.members.iter().all(HscDetector::is_fitted)
    }

    /// The shared fitted histogram extractor, when the feature set carries
    /// that channel (every member holds an identical one).
    pub fn extractor(&self) -> Option<&HistogramExtractor> {
        self.members.first().and_then(HscDetector::extractor)
    }

    /// The feature channels this ensemble's members train and score on
    /// ([`EnsembleDetector::new`] guarantees they agree).
    pub fn features(&self) -> FeatureSet {
        self.members[0].features()
    }

    /// Widest per-feature bin count across the members' quantized mirrors;
    /// `None` when no member has one (non-tree models, or before fit).
    pub fn quant_bins(&self) -> Option<usize> {
        self.members
            .iter()
            .filter_map(HscDetector::quant_bins)
            .max()
    }

    /// Width of the shared feature rows every member scores.
    ///
    /// # Panics
    /// Panics when called before [`Detector::fit`].
    pub fn n_features(&self) -> usize {
        self.members[0].n_features()
    }

    /// Streams the shared feature rows of `codes` into `out`
    /// (`codes.len() × n_features()`) — extraction happens once regardless
    /// of member count.
    ///
    /// # Panics
    /// Panics before fit, or on an `out` shape mismatch.
    pub fn featurize_into(&self, codes: &[&[u8]], out: &mut Matrix) {
        self.members[0].featurize_into(codes, out);
    }

    /// Combines per-member class-1 probabilities for one row position.
    fn combine(&self, member_probs: &[Vec<f64>], row: usize) -> f64 {
        match &self.vote {
            Vote::Soft => {
                let sum: f64 = member_probs.iter().map(|p| p[row]).sum();
                sum / member_probs.len() as f64
            }
            Vote::Hard => {
                let votes = member_probs.iter().filter(|p| p[row] >= 0.5).count();
                votes as f64 / member_probs.len() as f64
            }
            Vote::Weighted(weights) => {
                let total: f64 = weights.iter().sum();
                let sum: f64 = member_probs
                    .iter()
                    .zip(weights)
                    .map(|(p, w)| w * p[row])
                    .sum();
                sum / total
            }
        }
    }

    /// Ensemble class-1 probability per row of an already-extracted feature
    /// matrix (rows from this ensemble's shared [`EnsembleDetector::extractor`]).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.combine_probas(&self.member_probas(x))
    }

    /// Combines already-computed per-member probabilities (one vector per
    /// member, as produced by [`EnsembleDetector::member_probas`]) under
    /// this ensemble's voting rule — callers that need both the member and
    /// the combined scores run inference once and derive the vote from it.
    pub fn combine_probas(&self, member_probs: &[Vec<f64>]) -> Vec<f64> {
        let rows = member_probs.first().map_or(0, Vec::len);
        (0..rows)
            .map(|row| self.combine(member_probs, row))
            .collect()
    }

    /// Per-member class-1 probabilities on an already-extracted matrix, in
    /// member order — the observable the wire protocol's `per_model` field
    /// carries.
    pub fn member_probas(&self, x: &Matrix) -> Vec<Vec<f64>> {
        self.members.iter().map(|m| m.predict_proba(x)).collect()
    }

    /// Serializes the ensemble into a versioned snapshot envelope.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        phishinghook_persist::to_envelope(SNAPSHOT_KIND, self)
    }

    /// Restores an ensemble from snapshot bytes.
    ///
    /// # Errors
    /// Any [`PersistError`]: outer-envelope problems, a nested member
    /// envelope of the wrong kind, member-count mismatches against the
    /// voting rule, or members with inconsistent vocabularies.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        phishinghook_persist::from_envelope(SNAPSHOT_KIND, bytes)
    }

    /// Saves the ensemble snapshot to a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        phishinghook_persist::save_file(path, SNAPSHOT_KIND, self)
    }

    /// Loads an ensemble snapshot from a file.
    ///
    /// # Errors
    /// [`PersistError::Io`] when the file cannot be read, otherwise any
    /// decode error from [`EnsembleDetector::from_snapshot_bytes`].
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        phishinghook_persist::load_file(path, SNAPSHOT_KIND)
    }
}

impl Detector for EnsembleDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn category(&self) -> Category {
        Category::Histogram
    }

    fn fit(&mut self, codes: &[&[u8]], labels: &[usize]) {
        assert_eq!(codes.len(), labels.len(), "one label per bytecode");
        // One shared extraction for all members: an empty test split makes
        // FoldFeatures a plain shared-training-features store.
        let fold = FoldFeatures::new(codes, &[]);
        for member in &mut self.members {
            member.fit_fold(&fold, labels);
        }
    }

    fn predict(&self, codes: &[&[u8]]) -> Vec<usize> {
        assert!(self.is_fitted(), "predict before fit");
        let x = self.members[0].featurize(codes);
        self.predict_proba(&x)
            .into_iter()
            .map(|p| usize::from(p >= 0.5))
            .collect()
    }

    fn fit_fold(&mut self, fold: &FoldFeatures<'_>, labels: &[usize]) {
        for member in &mut self.members {
            member.fit_fold(fold, labels);
        }
    }

    fn predict_fold(&self, fold: &FoldFeatures<'_>) -> Vec<usize> {
        let x = self.members[0].fold_test_matrix(fold);
        self.predict_proba(&x)
            .into_iter()
            .map(|p| usize::from(p >= 0.5))
            .collect()
    }
}

// --- Persistence -----------------------------------------------------------

impl Snapshot for Vote {
    fn snapshot(&self, w: &mut Writer) {
        match self {
            Vote::Soft => w.put_u8(0),
            Vote::Hard => w.put_u8(1),
            Vote::Weighted(weights) => {
                w.put_u8(2);
                weights.snapshot(w);
            }
        }
    }
}

impl Restore for Vote {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(Vote::Soft),
            1 => Ok(Vote::Hard),
            2 => Ok(Vote::Weighted(Vec::restore(r)?)),
            tag => Err(PersistError::Malformed(format!(
                "unknown vote tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for EnsembleDetector {
    fn snapshot(&self, w: &mut Writer) {
        self.vote.snapshot(w);
        // One complete, independently-checksummed envelope per member. The
        // canonical name is not stored: it is derived state, recomputed on
        // restore so it can never disagree with the members.
        w.put_usize(self.members.len());
        for member in &self.members {
            w.put_bytes(&member.to_snapshot_bytes());
        }
    }
}

impl Restore for EnsembleDetector {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let vote = Vote::restore(r)?;
        let n = r.take_len(1)?;
        if n == 0 {
            return Err(PersistError::Malformed(
                "ensemble snapshot has zero members".to_owned(),
            ));
        }
        if let Vote::Weighted(weights) = &vote {
            if weights.len() != n {
                return Err(PersistError::Malformed(format!(
                    "ensemble snapshot carries {} weight(s) for {n} member(s)",
                    weights.len()
                )));
            }
            let total: f64 = weights.iter().sum();
            if !weights.iter().all(|w| w.is_finite() && *w >= 0.0)
                || total <= 0.0
                || total.is_infinite()
            {
                return Err(PersistError::Malformed(
                    "ensemble snapshot weights must be finite, non-negative, not all zero \
                     and have a finite sum"
                        .to_owned(),
                ));
            }
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            // A nested envelope of any other kind fails here with the same
            // typed WrongKind error a top-level mismatch would produce.
            let member = HscDetector::from_snapshot_bytes(r.take_bytes()?)?;
            members.push(member);
        }
        // Members must agree on their feature extraction: scoring shares one
        // extracted matrix across all of them, so a vocabulary, budget or
        // channel mismatch would silently permute features at request time.
        let first_hist = members[0].extractor();
        let first_trace = members[0].trace_extractor();
        for member in &members[1..] {
            if member.extractor() != first_hist {
                return Err(PersistError::Malformed(format!(
                    "ensemble member `{}` disagrees with `{}` on the histogram vocabulary",
                    member.name(),
                    members[0].name(),
                )));
            }
            if member.trace_extractor() != first_trace {
                return Err(PersistError::Malformed(format!(
                    "ensemble member `{}` disagrees with `{}` on the trace extractor",
                    member.name(),
                    members[0].name(),
                )));
            }
        }
        EnsembleDetector::new(members, vote)
            .map_err(|e| PersistError::Malformed(format!("invalid ensemble structure: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DetectorRegistry;
    use crate::AnyDetector;
    use phishinghook_data::{Corpus, CorpusConfig};
    use std::sync::OnceLock;

    fn corpus() -> &'static (Vec<Vec<u8>>, Vec<usize>) {
        static CORPUS: OnceLock<(Vec<Vec<u8>>, Vec<usize>)> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let corpus = Corpus::generate(&CorpusConfig {
                n_contracts: 120,
                seed: 13,
                ..Default::default()
            });
            let codes = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
            let labels = corpus.records.iter().map(|r| r.label.as_index()).collect();
            (codes, labels)
        })
    }

    /// Wraps hand-assembled payload bytes in a valid envelope, for tests
    /// that corrupt the payload *structure* rather than its framing.
    fn envelope_of(payload: Vec<u8>) -> Vec<u8> {
        struct Raw(Vec<u8>);
        impl Snapshot for Raw {
            fn snapshot(&self, w: &mut Writer) {
                w.put_raw(&self.0);
            }
        }
        phishinghook_persist::to_envelope(SNAPSHOT_KIND, &Raw(payload))
    }

    fn fitted(spec: &str) -> EnsembleDetector {
        let (codes, labels) = corpus();
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let built = DetectorRegistry::global()
            .build_str(spec, 7)
            .expect("valid spec");
        let AnyDetector::Ensemble(mut det) = built else {
            panic!("{spec} should build an ensemble")
        };
        det.fit(&refs[..80], &labels[..80]);
        det
    }

    #[test]
    fn structural_validation() {
        assert_eq!(
            EnsembleDetector::new(vec![], Vote::Soft).unwrap_err(),
            SpecError::EmptyEnsemble
        );
        let members = vec![HscDetector::random_forest(1), HscDetector::knn()];
        assert_eq!(
            EnsembleDetector::new(members, Vote::Weighted(vec![1.0])).unwrap_err(),
            SpecError::WeightCount {
                weights: 1,
                members: 2
            }
        );
    }

    #[test]
    fn name_is_the_canonical_spec() {
        let det = fitted("ensemble:rf+lgbm:vote=soft");
        assert_eq!(det.name(), "ensemble:rf+lgbm:vote=soft");
        assert_eq!(det.category(), Category::Histogram);
        assert_eq!(det.members().len(), 2);
        // The name itself parses back to a spec that rebuilds this shape.
        let spec: crate::DetectorSpec = det.name().parse().expect("name is a valid spec");
        assert_eq!(spec.n_models(), 2);
    }

    #[test]
    fn soft_vote_is_the_member_mean() {
        let det = fitted("ensemble:rf+lgbm:vote=soft");
        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let x = det.extractor().unwrap().transform(&probes);
        let combined = det.predict_proba(&x);
        let members = det.member_probas(&x);
        for (row, &p) in combined.iter().enumerate() {
            let mean = (members[0][row] + members[1][row]) / 2.0;
            assert_eq!(p.to_bits(), mean.to_bits(), "row {row}");
        }
    }

    #[test]
    fn hard_vote_is_the_vote_fraction() {
        let det = fitted("ensemble:rf+lgbm+catboost:vote=hard");
        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let x = det.extractor().unwrap().transform(&probes);
        let combined = det.predict_proba(&x);
        let members = det.member_probas(&x);
        for (row, &p) in combined.iter().enumerate() {
            let votes = members.iter().filter(|m| m[row] >= 0.5).count();
            assert_eq!(p, votes as f64 / 3.0, "row {row}");
        }
    }

    #[test]
    fn weighted_vote_honours_weights() {
        let det = fitted("ensemble:rf+lgbm:vote=weighted:weights=3,1");
        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let x = det.extractor().unwrap().transform(&probes);
        let combined = det.predict_proba(&x);
        let members = det.member_probas(&x);
        for (row, &p) in combined.iter().enumerate() {
            let expect = (3.0 * members[0][row] + members[1][row]) / 4.0;
            assert_eq!(p.to_bits(), expect.to_bits(), "row {row}");
        }
    }

    #[test]
    fn members_share_one_extractor() {
        let det = fitted("ensemble:rf+lgbm+catboost:vote=soft");
        let first = det.members()[0].extractor().unwrap();
        for member in &det.members()[1..] {
            assert_eq!(member.extractor().unwrap(), first);
        }
        assert!(det.is_fitted());
    }

    #[test]
    fn ensemble_beats_chance() {
        let det = fitted("ensemble:rf+lgbm+catboost:vote=soft");
        let (codes, labels) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let preds = det.predict(&probes);
        let correct = preds
            .iter()
            .zip(&labels[80..])
            .filter(|(a, b)| a == b)
            .count();
        let acc = correct as f64 / preds.len() as f64;
        assert!(acc > 0.6, "ensemble accuracy {acc}");
    }

    #[test]
    fn snapshot_round_trips() {
        let det = fitted("ensemble:rf+lgbm:vote=weighted:weights=2,1");
        let bytes = det.to_snapshot_bytes();
        // Deterministic bytes.
        assert_eq!(bytes, det.to_snapshot_bytes());
        let back = EnsembleDetector::from_snapshot_bytes(&bytes).expect("restores");
        assert_eq!(back.name(), det.name());
        assert_eq!(back.vote(), det.vote());

        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let x = det.extractor().unwrap().transform(&probes);
        let a: Vec<u64> = det.predict_proba(&x).iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = back.predict_proba(&x).iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_snapshot_round_trips_with_identical_verdicts() {
        // The quantized mirrors are derived state: never persisted, rebuilt
        // from the restored trees, and a restored ensemble scores verdicts
        // identical to the original's.
        let det = fitted("ensemble:rf+lgbm+catboost:vote=soft");
        assert!(det.quant_bins().is_some());

        let back =
            EnsembleDetector::from_snapshot_bytes(&det.to_snapshot_bytes()).expect("restores");
        assert_eq!(back.quant_bins(), det.quant_bins());

        let (codes, _) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let x = det.extractor().unwrap().transform(&probes);
        let a: Vec<u64> = det.predict_proba(&x).iter().map(|p| p.to_bits()).collect();
        let b: Vec<u64> = back.predict_proba(&x).iter().map(|p| p.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mismatched_member_snapshots_are_rejected() {
        // Hand-assemble a payload whose weight count disagrees with its
        // member count: must be a typed Malformed error, not a panic.
        let det = fitted("ensemble:rf+lgbm:vote=soft");
        let mut w = Writer::new();
        Vote::Weighted(vec![1.0]).snapshot(&mut w); // 1 weight…
        w.put_usize(2); // …but 2 members
        for member in det.members() {
            w.put_bytes(&member.to_snapshot_bytes());
        }
        let bytes = envelope_of(w.into_bytes());
        let err = EnsembleDetector::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn weights_whose_sum_overflows_are_rejected() {
        // Each weight is finite, but the weighted vote divides by their
        // sum, and `inf / inf` would score NaN.
        let det = fitted("ensemble:rf+lgbm:vote=soft");
        let mut w = Writer::new();
        Vote::Weighted(vec![1e308, 1e308]).snapshot(&mut w);
        w.put_usize(2);
        for member in det.members() {
            w.put_bytes(&member.to_snapshot_bytes());
        }
        let bytes = envelope_of(w.into_bytes());
        let err = EnsembleDetector::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(msg) if msg.contains("finite sum")),
            "{err:?}"
        );
    }

    #[test]
    fn wrong_member_kind_is_rejected() {
        // Nest an *ensemble* envelope where a member (hsc-detector) envelope
        // belongs: the nested kind check must fail with WrongKind.
        let det = fitted("ensemble:rf+lgbm:vote=soft");
        let mut w = Writer::new();
        Vote::Soft.snapshot(&mut w);
        w.put_usize(1);
        w.put_bytes(&det.to_snapshot_bytes());
        let bytes = envelope_of(w.into_bytes());
        match EnsembleDetector::from_snapshot_bytes(&bytes).unwrap_err() {
            PersistError::WrongKind { expected, found } => {
                assert_eq!(expected, crate::hsc::SNAPSHOT_KIND);
                assert_eq!(found, SNAPSHOT_KIND);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn mixed_member_feature_sets_are_rejected() {
        let members = vec![
            HscDetector::random_forest(1).with_features(FeatureSet::HistogramTrace),
            HscDetector::knn(),
        ];
        assert_eq!(
            EnsembleDetector::new(members, Vote::Soft).unwrap_err(),
            SpecError::MixedFeatureSets
        );
    }

    #[test]
    fn feature_set_rides_the_canonical_name_and_round_trips() {
        let det = fitted("ensemble:rf+lgbm:vote=soft:features=hist+trace");
        assert_eq!(det.name(), "ensemble:rf+lgbm:vote=soft:features=hist+trace");
        assert_eq!(det.features(), FeatureSet::HistogramTrace);
        // The name parses back to a spec that rebuilds the same shape.
        let spec: crate::DetectorSpec = det.name().parse().expect("name is a valid spec");
        assert_eq!(spec.to_string(), det.name());

        // Shared featurization scores identically through the snapshot.
        let (codes, labels) = corpus();
        let probes: Vec<&[u8]> = codes[80..].iter().map(Vec::as_slice).collect();
        let back =
            EnsembleDetector::from_snapshot_bytes(&det.to_snapshot_bytes()).expect("restores");
        assert_eq!(back.name(), det.name());
        assert_eq!(back.predict(&probes), det.predict(&probes));
        // And it actually classifies (the corpus is not honeypot-hard).
        let correct = det
            .predict(&probes)
            .iter()
            .zip(&labels[80..])
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct as f64 / probes.len() as f64 > 0.6);
    }

    #[test]
    fn zero_member_snapshot_is_rejected() {
        let mut w = Writer::new();
        Vote::Soft.snapshot(&mut w);
        w.put_usize(0);
        let bytes = envelope_of(w.into_bytes());
        let err = EnsembleDetector::from_snapshot_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)), "{err:?}");
    }
}
