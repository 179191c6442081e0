//! Typed detector specifications and the registry that builds them.
//!
//! A [`DetectorSpec`] is the one front door for naming a deployable
//! detector: a short string such as `"rf:seed=42"`, `"xgb"`, or
//! `"ensemble:rf+lgbm+catboost:vote=soft"` parses into a validated value
//! that round-trips through [`std::fmt::Display`], and the
//! [`DetectorRegistry`] turns any spec into a ready-to-fit
//! [`crate::AnyDetector`]. Everything downstream — the CLI's
//! `--model` flag, the [`Scanner`](crate::Scanner) facade, the wire
//! protocol's `model` field — speaks this grammar instead of per-family
//! `HscDetector::…` calls.
//!
//! # Grammar
//!
//! ```text
//! spec      := family [":" option]*                      single HSC
//!            | "ensemble" ":" family ("+" family)+ [":" option]*
//! option    := "seed=" u64
//!            | "features=" ("hist" | "trace" | "hist+trace")
//!            | "vote=" ("soft" | "hard" | "weighted")    ensembles only
//!            | "weights=" f64 ("," f64)*                 vote=weighted only
//! family    := "rf" | "knn" | "svm" | "lr" | "xgb" | "lgbm" | "catboost"
//!              (plus the aliases listed by [`DetectorRegistry::families`])
//! ```
//!
//! `features=` picks the feature channels the detector trains on: `hist`
//! (the default — static opcode histograms), `trace` (dynamic
//! execution-trace features from the dispatcher explorer), or `hist+trace`
//! (both, column-concatenated). Any family or ensemble composes with any
//! feature set.
//!
//! Family tokens are case-insensitive and accept spaces/underscores for
//! dashes, so the paper's Table II spellings (`"Random Forest"`) parse too.
//! `DetectorSpec::to_string` always renders the canonical form; parsing a
//! rendered spec yields an equal value (property-tested in
//! `tests/spec_roundtrip.rs`).

use std::fmt;
use std::str::FromStr;

/// Which of the seven histogram-similarity-classifier families a spec
/// names, in the paper's Table II order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HscKind {
    /// `rf` — bagged random forest (the paper's best model).
    RandomForest,
    /// `knn` — k-nearest neighbours.
    Knn,
    /// `svm` — RBF-kernel SVM via random Fourier features.
    Svm,
    /// `lr` — L2 logistic regression.
    LogisticRegression,
    /// `xgb` — exact greedy gradient boosting.
    Xgboost,
    /// `lgbm` — histogram leaf-wise gradient boosting.
    Lightgbm,
    /// `catboost` — oblivious-tree gradient boosting.
    Catboost,
}

/// The seven kinds in Table II order.
pub const HSC_KINDS: [HscKind; 7] = [
    HscKind::RandomForest,
    HscKind::Knn,
    HscKind::Svm,
    HscKind::LogisticRegression,
    HscKind::Xgboost,
    HscKind::Lightgbm,
    HscKind::Catboost,
];

impl HscKind {
    /// Canonical (shortest) spec token, e.g. `"rf"`.
    pub fn token(self) -> &'static str {
        match self {
            HscKind::RandomForest => "rf",
            HscKind::Knn => "knn",
            HscKind::Svm => "svm",
            HscKind::LogisticRegression => "lr",
            HscKind::Xgboost => "xgb",
            HscKind::Lightgbm => "lgbm",
            HscKind::Catboost => "catboost",
        }
    }

    /// The paper's Table II spelling, e.g. `"Random Forest"`.
    pub fn display_name(self) -> &'static str {
        match self {
            HscKind::RandomForest => "Random Forest",
            HscKind::Knn => "k-NN",
            HscKind::Svm => "SVM",
            HscKind::LogisticRegression => "Logistic Regression",
            HscKind::Xgboost => "XGBoost",
            HscKind::Lightgbm => "LightGBM",
            HscKind::Catboost => "CatBoost",
        }
    }

    /// Accepted aliases (beyond [`HscKind::token`]), already normalized to
    /// lowercase-with-dashes.
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            HscKind::RandomForest => &["random-forest"],
            HscKind::Knn => &["k-nn"],
            HscKind::Svm => &[],
            HscKind::LogisticRegression => &["logreg", "logistic-regression"],
            HscKind::Xgboost => &["xgboost"],
            HscKind::Lightgbm => &["lightgbm"],
            HscKind::Catboost => &[],
        }
    }

    /// Seed decorrelation offset, XORed into a shared base seed when one
    /// seed drives several members, so the seven HSCs built from one seed
    /// never share a random stream.
    pub fn seed_offset(self) -> u64 {
        match self {
            HscKind::RandomForest => 0,
            HscKind::Knn => 0, // k-NN takes no seed
            HscKind::Svm => 1,
            HscKind::LogisticRegression => 0, // LR takes no seed
            HscKind::Xgboost => 2,
            HscKind::Lightgbm => 3,
            HscKind::Catboost => 4,
        }
    }

    /// Parses one family token (case-insensitive; spaces and underscores
    /// count as dashes, so Table II spellings work).
    pub fn parse_token(token: &str) -> Result<Self, SpecError> {
        let norm = token.trim().to_ascii_lowercase().replace([' ', '_'], "-");
        HSC_KINDS
            .into_iter()
            .find(|k| k.token() == norm || k.aliases().contains(&norm.as_str()))
            .ok_or_else(|| SpecError::UnknownFamily(token.trim().to_owned()))
    }
}

/// How an ensemble combines its members' class-1 probabilities.
#[derive(Debug, Clone, PartialEq)]
pub enum Vote {
    /// Mean of member probabilities.
    Soft,
    /// Fraction of members voting phishing (probability ≥ 0.5).
    Hard,
    /// Weighted mean; one non-negative finite weight per member, not all
    /// zero.
    Weighted(Vec<f64>),
}

impl Vote {
    fn keyword(&self) -> &'static str {
        match self {
            Vote::Soft => "soft",
            Vote::Hard => "hard",
            Vote::Weighted(_) => "weighted",
        }
    }
}

/// Which feature channels a detector trains and scores on — the spec
/// grammar's `features=` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeatureSet {
    /// Static opcode-occurrence histograms (the paper's HSC features; the
    /// default).
    #[default]
    Histogram,
    /// Dynamic execution-trace features from the dispatcher explorer
    /// ([`phishinghook_features::TraceExtractor`]).
    Trace,
    /// Both channels, column-concatenated (histogram columns first).
    HistogramTrace,
}

impl FeatureSet {
    /// Canonical spec token: `"hist"`, `"trace"`, or `"hist+trace"`.
    pub fn token(self) -> &'static str {
        match self {
            FeatureSet::Histogram => "hist",
            FeatureSet::Trace => "trace",
            FeatureSet::HistogramTrace => "hist+trace",
        }
    }

    /// `true` when the set includes the static histogram channel.
    pub fn includes_histogram(self) -> bool {
        matches!(self, FeatureSet::Histogram | FeatureSet::HistogramTrace)
    }

    /// `true` when the set includes the dynamic trace channel.
    pub fn includes_trace(self) -> bool {
        matches!(self, FeatureSet::Trace | FeatureSet::HistogramTrace)
    }

    /// Parses a `features=` value (case-insensitive; `histogram` is an
    /// alias for `hist`, and `trace+hist` normalizes to `hist+trace`).
    fn parse(value: &str) -> Result<Self, SpecError> {
        let bad = |reason: &str| SpecError::BadValue {
            option: "features",
            value: value.to_owned(),
            reason: reason.to_owned(),
        };
        let mut hist = false;
        let mut trace = false;
        for part in value.split('+') {
            match part.trim().to_ascii_lowercase().as_str() {
                "hist" | "histogram" => {
                    if hist {
                        return Err(bad("`hist` listed twice"));
                    }
                    hist = true;
                }
                "trace" => {
                    if trace {
                        return Err(bad("`trace` listed twice"));
                    }
                    trace = true;
                }
                _ => return Err(bad("expected `hist`, `trace` or `hist+trace`")),
            }
        }
        match (hist, trace) {
            (true, false) => Ok(FeatureSet::Histogram),
            (false, true) => Ok(FeatureSet::Trace),
            (true, true) => Ok(FeatureSet::HistogramTrace),
            (false, false) => Err(bad("expected `hist`, `trace` or `hist+trace`")),
        }
    }
}

impl fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A single-HSC spec: family plus an optional explicit seed.
///
/// Without an explicit seed, building substitutes a caller-provided default
/// (XORed with [`HscKind::seed_offset`] for decorrelation); with one, the
/// seed is used exactly as written.
#[derive(Debug, Clone, PartialEq)]
pub struct HscSpec {
    /// Which family to build.
    pub kind: HscKind,
    /// Explicit seed, if the spec carried `seed=…`.
    pub seed: Option<u64>,
    /// Which feature channels to train on (`features=…`; defaults to
    /// static histograms).
    pub features: FeatureSet,
}

/// A parsed, validated detector description.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorSpec {
    /// One histogram similarity classifier.
    Hsc(HscSpec),
    /// A voting ensemble over HSC members.
    Ensemble {
        /// Member families, in scoring order.
        members: Vec<HscKind>,
        /// Voting rule.
        vote: Vote,
        /// Explicit base seed for member decorrelation, if given.
        seed: Option<u64>,
        /// Feature channels shared by every member.
        features: FeatureSet,
    },
}

impl DetectorSpec {
    /// The number of underlying models this spec builds.
    pub fn n_models(&self) -> usize {
        match self {
            DetectorSpec::Hsc(_) => 1,
            DetectorSpec::Ensemble { members, .. } => members.len(),
        }
    }

    /// `true` for ensemble specs.
    pub fn is_ensemble(&self) -> bool {
        matches!(self, DetectorSpec::Ensemble { .. })
    }
}

impl fmt::Display for DetectorSpec {
    /// Renders the canonical form: lowercase tokens, options in
    /// `vote`, `weights`, `features`, `seed` order (defaults omitted).
    /// `parse(to_string()) == self`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorSpec::Hsc(HscSpec {
                kind,
                seed,
                features,
            }) => {
                write!(f, "{}", kind.token())?;
                if *features != FeatureSet::default() {
                    write!(f, ":features={}", features.token())?;
                }
                if let Some(seed) = seed {
                    write!(f, ":seed={seed}")?;
                }
                Ok(())
            }
            DetectorSpec::Ensemble {
                members,
                vote,
                seed,
                features,
            } => {
                write!(f, "ensemble:")?;
                for (i, member) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, "+")?;
                    }
                    write!(f, "{}", member.token())?;
                }
                write!(f, ":vote={}", vote.keyword())?;
                if let Vote::Weighted(weights) = vote {
                    write!(f, ":weights=")?;
                    for (i, w) in weights.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        // `{}` on f64 prints the shortest string that parses
                        // back to the same value, so weights round-trip.
                        write!(f, "{w}")?;
                    }
                }
                if *features != FeatureSet::default() {
                    write!(f, ":features={}", features.token())?;
                }
                if let Some(seed) = seed {
                    write!(f, ":seed={seed}")?;
                }
                Ok(())
            }
        }
    }
}

/// Typed ways a spec string can be invalid. Parsing never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec string is empty (or only whitespace/colons).
    Empty,
    /// The family token names no known detector family.
    UnknownFamily(String),
    /// An `ensemble:` spec with no members.
    EmptyEnsemble,
    /// An option key the grammar does not define.
    UnknownOption(String),
    /// The same option appeared twice.
    DuplicateOption(&'static str),
    /// An option value failed to parse or is out of range.
    BadValue {
        /// Which option.
        option: &'static str,
        /// The offending raw text.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An option that only applies to ensembles (`vote`, `weights`) was
    /// given on a single-model spec, or `weights` without `vote=weighted`.
    OptionNotApplicable {
        /// Which option.
        option: &'static str,
        /// What it was (wrongly) applied to.
        context: String,
    },
    /// `weights=` count does not match the member count.
    WeightCount {
        /// Number of weights given.
        weights: usize,
        /// Number of ensemble members.
        members: usize,
    },
    /// Ensemble members were constructed with differing feature sets (they
    /// must all score one shared feature matrix).
    MixedFeatureSets,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty detector spec"),
            SpecError::UnknownFamily(t) => write!(
                f,
                "unknown detector family `{t}` (try `rf`, `knn`, `svm`, `lr`, `xgb`, `lgbm`, `catboost`, or `ensemble:…`)"
            ),
            SpecError::EmptyEnsemble => write!(f, "ensemble spec has no members"),
            SpecError::UnknownOption(o) => write!(f, "unknown spec option `{o}`"),
            SpecError::DuplicateOption(o) => write!(f, "spec option `{o}` given twice"),
            SpecError::BadValue {
                option,
                value,
                reason,
            } => write!(f, "bad `{option}` value `{value}`: {reason}"),
            SpecError::OptionNotApplicable { option, context } => {
                write!(f, "option `{option}` does not apply to {context}")
            }
            SpecError::WeightCount { weights, members } => write!(
                f,
                "weights count {weights} does not match member count {members}"
            ),
            SpecError::MixedFeatureSets => write!(
                f,
                "ensemble members disagree on their feature set (all members must share one)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Accumulates `key=value` options shared by both spec shapes.
#[derive(Default)]
struct Options {
    seed: Option<u64>,
    vote: Option<&'static str>,
    weights: Option<Vec<f64>>,
    features: Option<FeatureSet>,
}

impl Options {
    fn parse_segment(&mut self, segment: &str) -> Result<(), SpecError> {
        let (key, value) = segment
            .split_once('=')
            .ok_or_else(|| SpecError::UnknownOption(segment.to_owned()))?;
        match key.trim().to_ascii_lowercase().as_str() {
            "seed" => {
                if self.seed.is_some() {
                    return Err(SpecError::DuplicateOption("seed"));
                }
                self.seed = Some(value.trim().parse().map_err(|_| SpecError::BadValue {
                    option: "seed",
                    value: value.to_owned(),
                    reason: "expected an unsigned 64-bit integer".to_owned(),
                })?);
            }
            "vote" => {
                if self.vote.is_some() {
                    return Err(SpecError::DuplicateOption("vote"));
                }
                self.vote = Some(match value.trim().to_ascii_lowercase().as_str() {
                    "soft" => "soft",
                    "hard" => "hard",
                    "weighted" => "weighted",
                    _ => {
                        return Err(SpecError::BadValue {
                            option: "vote",
                            value: value.to_owned(),
                            reason: "expected `soft`, `hard` or `weighted`".to_owned(),
                        })
                    }
                });
            }
            "weights" => {
                if self.weights.is_some() {
                    return Err(SpecError::DuplicateOption("weights"));
                }
                let mut weights = Vec::new();
                for part in value.split(',') {
                    let w: f64 = part.trim().parse().map_err(|_| SpecError::BadValue {
                        option: "weights",
                        value: value.to_owned(),
                        reason: format!("`{part}` is not a number"),
                    })?;
                    if !w.is_finite() || w < 0.0 {
                        return Err(SpecError::BadValue {
                            option: "weights",
                            value: value.to_owned(),
                            reason: format!("weight `{part}` must be finite and non-negative"),
                        });
                    }
                    weights.push(w);
                }
                // The weighted vote divides by the sum: an overflowing one
                // turns high-probability rows into `inf / inf`, NaN.
                let total: f64 = weights.iter().sum();
                if total <= 0.0 || total.is_infinite() {
                    let reason = if total <= 0.0 {
                        "weights must not all be zero"
                    } else {
                        "weights must have a finite sum"
                    };
                    return Err(SpecError::BadValue {
                        option: "weights",
                        value: value.to_owned(),
                        reason: reason.to_owned(),
                    });
                }
                self.weights = Some(weights);
            }
            "features" => {
                if self.features.is_some() {
                    return Err(SpecError::DuplicateOption("features"));
                }
                self.features = Some(FeatureSet::parse(value)?);
            }
            other => return Err(SpecError::UnknownOption(other.to_owned())),
        }
        Ok(())
    }
}

impl FromStr for DetectorSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut segments = s.split(':');
        let head = segments.next().expect("split yields at least one segment");

        if head.trim().eq_ignore_ascii_case("ensemble") {
            let member_segment = segments.next().unwrap_or("").trim();
            if member_segment.is_empty() {
                return Err(SpecError::EmptyEnsemble);
            }
            let members = member_segment
                .split('+')
                .map(HscKind::parse_token)
                .collect::<Result<Vec<_>, _>>()?;
            let mut opts = Options::default();
            for segment in segments {
                opts.parse_segment(segment)?;
            }
            let vote = match (opts.vote.unwrap_or("soft"), opts.weights) {
                ("weighted", Some(weights)) => {
                    if weights.len() != members.len() {
                        return Err(SpecError::WeightCount {
                            weights: weights.len(),
                            members: members.len(),
                        });
                    }
                    Vote::Weighted(weights)
                }
                ("weighted", None) => {
                    return Err(SpecError::BadValue {
                        option: "vote",
                        value: "weighted".to_owned(),
                        reason: "vote=weighted requires a `weights=…` option".to_owned(),
                    })
                }
                (_, Some(_)) => {
                    return Err(SpecError::OptionNotApplicable {
                        option: "weights",
                        context: "a non-weighted vote".to_owned(),
                    })
                }
                ("hard", None) => Vote::Hard,
                _ => Vote::Soft,
            };
            Ok(DetectorSpec::Ensemble {
                members,
                vote,
                seed: opts.seed,
                features: opts.features.unwrap_or_default(),
            })
        } else {
            let kind = HscKind::parse_token(head)?;
            let mut opts = Options::default();
            for segment in segments {
                opts.parse_segment(segment)?;
            }
            if opts.vote.is_some() {
                return Err(SpecError::OptionNotApplicable {
                    option: "vote",
                    context: format!("single model `{}`", kind.token()),
                });
            }
            if opts.weights.is_some() {
                return Err(SpecError::OptionNotApplicable {
                    option: "weights",
                    context: format!("single model `{}`", kind.token()),
                });
            }
            Ok(DetectorSpec::Hsc(HscSpec {
                kind,
                seed: opts.seed,
                features: opts.features.unwrap_or_default(),
            }))
        }
    }
}

// --- Registry --------------------------------------------------------------

use crate::ensemble::EnsembleDetector;
use crate::hsc::HscDetector;
use crate::scanner::AnyDetector;

/// One row of the registry's family table, for discovery/help output.
#[derive(Debug, Clone, Copy)]
pub struct FamilyInfo {
    /// The family this row describes.
    pub kind: HscKind,
    /// Canonical spec token.
    pub token: &'static str,
    /// Table II display name.
    pub display_name: &'static str,
    /// Accepted aliases.
    pub aliases: &'static [&'static str],
}

/// Builds detectors from [`DetectorSpec`]s.
///
/// The registry is the single construction path for every deployable
/// detector: the CLI, the [`Scanner`](crate::Scanner), the benchmarks and
/// the evaluation pipeline all go through [`DetectorRegistry::build`]
/// (directly or via a spec string). Building is deterministic: the same
/// spec and default seed always produce an identically-initialized
/// detector.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetectorRegistry;

impl DetectorRegistry {
    /// The process-wide registry (stateless today; a value type so future
    /// backends can carry configuration).
    pub fn global() -> &'static DetectorRegistry {
        static REGISTRY: DetectorRegistry = DetectorRegistry;
        &REGISTRY
    }

    /// Every registered family, in Table II order.
    pub fn families(&self) -> Vec<FamilyInfo> {
        HSC_KINDS
            .into_iter()
            .map(|kind| FamilyInfo {
                kind,
                token: kind.token(),
                display_name: kind.display_name(),
                aliases: kind.aliases(),
            })
            .collect()
    }

    /// The seven single-HSC specs in Table II order, with no explicit
    /// seeds: building one with default seed `s` seeds it with
    /// `s ^ kind.seed_offset()`, the same detector as
    /// [`DetectorRegistry::build_hsc`]`(kind, s ^ kind.seed_offset())`.
    pub fn hsc_specs(&self) -> Vec<DetectorSpec> {
        HSC_KINDS
            .into_iter()
            .map(|kind| {
                DetectorSpec::Hsc(HscSpec {
                    kind,
                    seed: None,
                    features: FeatureSet::Histogram,
                })
            })
            .collect()
    }

    /// Builds one unfitted HSC of `kind` seeded exactly with `seed`.
    pub fn build_hsc(&self, kind: HscKind, seed: u64) -> HscDetector {
        match kind {
            HscKind::RandomForest => HscDetector::random_forest(seed),
            HscKind::Knn => HscDetector::knn(),
            HscKind::Svm => HscDetector::svm(seed),
            HscKind::LogisticRegression => HscDetector::logistic_regression(),
            HscKind::Xgboost => HscDetector::xgboost(seed),
            HscKind::Lightgbm => HscDetector::lightgbm(seed),
            HscKind::Catboost => HscDetector::catboost(seed),
        }
    }

    /// Builds an unfitted detector from a spec.
    ///
    /// Seed resolution: an explicit `seed=` in the spec wins; otherwise
    /// `default_seed` is decorrelated per family via
    /// [`HscKind::seed_offset`] (ensemble members always decorrelate from
    /// the base seed this way).
    pub fn build(&self, spec: &DetectorSpec, default_seed: u64) -> AnyDetector {
        match spec {
            DetectorSpec::Hsc(HscSpec {
                kind,
                seed,
                features,
            }) => {
                let seed = seed.unwrap_or(default_seed ^ kind.seed_offset());
                AnyDetector::Hsc(self.build_hsc(*kind, seed).with_features(*features))
            }
            DetectorSpec::Ensemble {
                members,
                vote,
                seed,
                features,
            } => {
                let base = seed.unwrap_or(default_seed);
                let members: Vec<HscDetector> = members
                    .iter()
                    .map(|&kind| {
                        self.build_hsc(kind, base ^ kind.seed_offset())
                            .with_features(*features)
                    })
                    .collect();
                AnyDetector::Ensemble(
                    EnsembleDetector::new(members, vote.clone())
                        .expect("a parsed spec is structurally valid"),
                )
            }
        }
    }

    /// Parses a spec string and builds it in one step.
    ///
    /// # Errors
    /// Any [`SpecError`] from parsing; building a parsed spec cannot fail.
    pub fn build_str(&self, spec: &str, default_seed: u64) -> Result<AnyDetector, SpecError> {
        Ok(self.build(&spec.parse()?, default_seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> DetectorSpec {
        s.parse()
            .unwrap_or_else(|e| panic!("`{s}` should parse: {e}"))
    }

    #[test]
    fn single_specs_parse_and_round_trip() {
        for (text, canonical) in [
            ("rf", "rf"),
            ("RF", "rf"),
            ("Random Forest", "rf"),
            ("random-forest:seed=42", "rf:seed=42"),
            ("k-NN", "knn"),
            ("logistic_regression", "lr"),
            ("xgboost", "xgb"),
            ("lightgbm:seed=0", "lgbm:seed=0"),
            ("catboost", "catboost"),
        ] {
            let spec = parse(text);
            assert_eq!(spec.to_string(), canonical, "{text}");
            assert_eq!(parse(&spec.to_string()), spec, "{text}");
        }
    }

    #[test]
    fn ensemble_specs_parse_and_round_trip() {
        let spec = parse("ensemble:rf+lgbm+catboost:vote=soft");
        assert_eq!(
            spec,
            DetectorSpec::Ensemble {
                members: vec![HscKind::RandomForest, HscKind::Lightgbm, HscKind::Catboost],
                vote: Vote::Soft,
                seed: None,
                features: FeatureSet::Histogram,
            }
        );
        assert_eq!(spec.to_string(), "ensemble:rf+lgbm+catboost:vote=soft");
        assert_eq!(spec.n_models(), 3);
        assert!(spec.is_ensemble());

        // Vote defaults to soft; seed and weighted votes round-trip.
        assert_eq!(parse("ensemble:rf+knn"), parse("ensemble:rf+knn:vote=soft"));
        let weighted = parse("ensemble:rf+lgbm:vote=weighted:weights=2,1:seed=9");
        assert_eq!(
            weighted.to_string(),
            "ensemble:rf+lgbm:vote=weighted:weights=2,1:seed=9"
        );
        assert_eq!(parse(&weighted.to_string()), weighted);
    }

    #[test]
    fn feature_set_axis_parses_and_round_trips() {
        // Default (hist) is omitted from the canonical form.
        assert_eq!(parse("rf:features=hist").to_string(), "rf");
        assert_eq!(parse("rf:features=histogram"), parse("rf"));
        // Non-default feature sets render and round-trip.
        for (text, canonical) in [
            ("rf:features=trace", "rf:features=trace"),
            ("rf:features=TRACE:seed=3", "rf:features=trace:seed=3"),
            ("rf:features=hist+trace", "rf:features=hist+trace"),
            ("rf:features=trace+hist", "rf:features=hist+trace"),
            (
                "ensemble:rf+lgbm:vote=hard:features=hist+trace",
                "ensemble:rf+lgbm:vote=hard:features=hist+trace",
            ),
            (
                "ensemble:rf+lgbm:features=trace:seed=5",
                "ensemble:rf+lgbm:vote=soft:features=trace:seed=5",
            ),
        ] {
            let spec = parse(text);
            assert_eq!(spec.to_string(), canonical, "{text}");
            assert_eq!(parse(&spec.to_string()), spec, "{text}");
        }
        let DetectorSpec::Hsc(spec) = parse("rf:features=hist+trace") else {
            panic!("single spec")
        };
        assert_eq!(spec.features, FeatureSet::HistogramTrace);
        assert!(spec.features.includes_histogram());
        assert!(spec.features.includes_trace());
        assert!(!FeatureSet::Trace.includes_histogram());
    }

    #[test]
    fn the_removed_quantize_option_is_rejected() {
        // Tree families always score through the quantized engine; the
        // old `quantize=` axis is an unknown option, not a silent no-op.
        for spec in ["rf:quantize=off", "ensemble:rf+lgbm:quantize=on"] {
            assert_eq!(
                spec.parse::<DetectorSpec>().unwrap_err(),
                SpecError::UnknownOption("quantize".to_owned()),
                "{spec}"
            );
        }
    }

    #[test]
    fn bad_feature_sets_are_typed_errors() {
        let err = |s: &str| s.parse::<DetectorSpec>().unwrap_err();
        for bad in [
            "rf:features=",
            "rf:features=image",
            "rf:features=hist+hist",
            "rf:features=trace+trace+hist",
        ] {
            assert!(
                matches!(
                    err(bad),
                    SpecError::BadValue {
                        option: "features",
                        ..
                    }
                ),
                "{bad}"
            );
        }
        assert_eq!(
            err("rf:features=trace:features=hist"),
            SpecError::DuplicateOption("features")
        );
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        use SpecError as E;
        let err = |s: &str| s.parse::<DetectorSpec>().unwrap_err();
        assert_eq!(err(""), E::Empty);
        assert_eq!(err("  "), E::Empty);
        assert!(matches!(err("resnet"), E::UnknownFamily(_)));
        assert_eq!(err("ensemble:"), E::EmptyEnsemble);
        assert_eq!(err("ensemble"), E::EmptyEnsemble);
        assert!(matches!(err("ensemble:rf+resnet"), E::UnknownFamily(_)));
        assert!(matches!(err("rf:bogus=1"), E::UnknownOption(_)));
        assert!(matches!(err("rf:frobnicate"), E::UnknownOption(_)));
        assert_eq!(err("rf:seed=1:seed=2"), E::DuplicateOption("seed"));
        assert!(matches!(
            err("rf:seed=banana"),
            E::BadValue { option: "seed", .. }
        ));
        assert!(matches!(
            err("rf:seed=-3"),
            E::BadValue { option: "seed", .. }
        ));
        assert!(matches!(
            err("rf:vote=soft"),
            E::OptionNotApplicable { option: "vote", .. }
        ));
        assert!(matches!(
            err("ensemble:rf+knn:vote=maybe"),
            E::BadValue { option: "vote", .. }
        ));
        assert!(matches!(
            err("ensemble:rf+knn:vote=weighted"),
            E::BadValue { option: "vote", .. }
        ));
        assert!(matches!(
            err("ensemble:rf+knn:vote=soft:weights=1,2"),
            E::OptionNotApplicable {
                option: "weights",
                ..
            }
        ));
        assert_eq!(
            err("ensemble:rf+knn:vote=weighted:weights=1"),
            E::WeightCount {
                weights: 1,
                members: 2
            }
        );
        assert!(matches!(
            err("ensemble:rf+knn:vote=weighted:weights=1,nan"),
            E::BadValue {
                option: "weights",
                ..
            }
        ));
        assert!(matches!(
            err("ensemble:rf+knn:vote=weighted:weights=0,0"),
            E::BadValue {
                option: "weights",
                ..
            }
        ));
        assert!(matches!(
            err("ensemble:rf+knn:vote=weighted:weights=1e308,1e308"),
            E::BadValue {
                option: "weights",
                ..
            }
        ));
        // Errors render human-readable text.
        assert!(err("resnet")
            .to_string()
            .contains("unknown detector family"));
    }

    #[test]
    fn registry_lists_seven_families() {
        let families = DetectorRegistry::global().families();
        assert_eq!(families.len(), 7);
        assert_eq!(families[0].display_name, "Random Forest");
        assert_eq!(families[0].token, "rf");
        let specs = DetectorRegistry::global().hsc_specs();
        assert_eq!(specs.len(), 7);
        assert!(specs.iter().all(|s| !s.is_ensemble()));
    }
}
