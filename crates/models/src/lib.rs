#![warn(missing_docs)]

//! The 16 PhishingHook detection models (paper §IV-B, Table II).
//!
//! | Category | Models |
//! |----------|--------|
//! | Histogram (†) | Random Forest, k-NN, SVM, Logistic Regression, XGBoost, LightGBM, CatBoost |
//! | Vision (‡) | ViT+R2D2, ECA+EfficientNet, ViT+Freq |
//! | Language (*) | SCSGuard, GPT-2α, GPT-2β, T5α, T5β |
//! | Vulnerability (§) | ESCORT |
//!
//! All models implement [`Detector`] over raw deployed bytecode and own
//! their feature extraction, so training-set-derived state (vocabularies,
//! frequency tables) never leaks from test folds.

pub mod detector;
pub mod ensemble;
pub mod escort_model;
pub mod hsc;
pub mod language;
pub mod scanner;
pub mod spec;
pub mod vision;

pub use detector::{Category, Detector, FoldFeatures, HistogramFeatures, TraceFeatures};
pub use ensemble::EnsembleDetector;
pub use escort_model::{EscortConfig, EscortDetector};
pub use hsc::{HscDetector, HscModel};
pub use language::{LanguageConfig, ScsGuardDetector, TransformerLm};
pub use scanner::{AnyDetector, ResolveError, ScanReport, ScanRequest, Scanner, Target, Verdict};
pub use spec::{
    DetectorRegistry, DetectorSpec, FamilyInfo, FeatureSet, HscKind, HscSpec, SpecError, Vote,
    HSC_KINDS,
};
pub use vision::{VisionConfig, VisionDetector};

/// Scaling preset controlling the deep models' capacity and training budget
/// (the paper's GPU-scale settings are impractical on CPU; see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Small models, few epochs — CI and quick experiments.
    Fast,
    /// The defaults used by the experiment binaries.
    Standard,
}

impl Preset {
    /// Vision hyperparameters for the transformer backbones (ViT+R2D2,
    /// ViT+Freq). ViTs prefer a gentler learning rate than the CNN.
    pub fn vision(self, seed: u64) -> VisionConfig {
        match self {
            Preset::Fast => VisionConfig {
                epochs: 10,
                lr: 3e-3,
                seed,
                ..VisionConfig::default()
            },
            Preset::Standard => VisionConfig {
                epochs: 8,
                lr: 3e-3,
                seed,
                ..VisionConfig::default()
            },
        }
    }

    /// Vision hyperparameters for the CNN backbone (ECA+EfficientNet),
    /// which trains best with a higher learning rate.
    pub fn vision_cnn(self, seed: u64) -> VisionConfig {
        match self {
            Preset::Fast => VisionConfig {
                epochs: 12,
                lr: 1e-2,
                seed,
                ..VisionConfig::default()
            },
            Preset::Standard => VisionConfig {
                epochs: 10,
                lr: 8e-3,
                seed,
                ..VisionConfig::default()
            },
        }
    }

    /// Language hyperparameters for this preset.
    pub fn language(self, seed: u64) -> LanguageConfig {
        match self {
            Preset::Fast => LanguageConfig {
                max_len: 64,
                stride: 48,
                epochs: 6,
                lr: 3e-3,
                seed,
                ..LanguageConfig::default()
            },
            Preset::Standard => LanguageConfig {
                epochs: 4,
                seed,
                ..LanguageConfig::default()
            },
        }
    }

    /// ESCORT hyperparameters for this preset.
    pub fn escort(self, seed: u64) -> EscortConfig {
        match self {
            Preset::Fast => EscortConfig {
                pretrain_epochs: 3,
                transfer_epochs: 3,
                seed,
                ..EscortConfig::default()
            },
            Preset::Standard => EscortConfig {
                seed,
                ..EscortConfig::default()
            },
        }
    }
}

/// Builds all 16 detectors in the paper's Table II order.
pub fn all_detectors(preset: Preset, seed: u64) -> Vec<Box<dyn Detector>> {
    let registry = DetectorRegistry::global();
    let mut out: Vec<Box<dyn Detector>> = Vec::with_capacity(16);
    for spec in registry.hsc_specs() {
        out.push(Box::new(registry.build(&spec, seed)));
    }
    out.push(Box::new(VisionDetector::eca_efficientnet(
        preset.vision_cnn(seed ^ 0x10),
    )));
    out.push(Box::new(VisionDetector::vit_r2d2(
        preset.vision(seed ^ 0x11),
    )));
    out.push(Box::new(VisionDetector::vit_freq(
        preset.vision(seed ^ 0x12),
    )));
    out.push(Box::new(ScsGuardDetector::new(
        preset.language(seed ^ 0x20),
    )));
    out.push(Box::new(TransformerLm::gpt2_alpha(
        preset.language(seed ^ 0x21),
    )));
    out.push(Box::new(TransformerLm::t5_alpha(
        preset.language(seed ^ 0x22),
    )));
    out.push(Box::new(TransformerLm::gpt2_beta(
        preset.language(seed ^ 0x23),
    )));
    out.push(Box::new(TransformerLm::t5_beta(
        preset.language(seed ^ 0x24),
    )));
    out.push(Box::new(EscortDetector::new(preset.escort(seed ^ 0x30))));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_models_in_table_order() {
        let detectors = all_detectors(Preset::Fast, 1);
        assert_eq!(detectors.len(), 16);
        let names: Vec<&str> = detectors.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec![
                "Random Forest",
                "k-NN",
                "SVM",
                "Logistic Regression",
                "XGBoost",
                "LightGBM",
                "CatBoost",
                "ECA+EfficientNet",
                "ViT+R2D2",
                "ViT+Freq",
                "SCSGuard",
                "GPT-2α",
                "T5α",
                "GPT-2β",
                "T5β",
                "ESCORT",
            ]
        );
    }

    #[test]
    fn category_counts_match_paper() {
        let detectors = all_detectors(Preset::Fast, 1);
        let count = |c: Category| detectors.iter().filter(|d| d.category() == c).count();
        assert_eq!(count(Category::Histogram), 7);
        assert_eq!(count(Category::Vision), 3);
        assert_eq!(count(Category::Language), 5);
        assert_eq!(count(Category::VulnerabilityDetection), 1);
    }

    #[test]
    fn lookup_by_name() {
        // Find a model in the Table II roster by its display name.
        let find = |name: &str| {
            all_detectors(Preset::Fast, 1)
                .into_iter()
                .find(|d| d.name() == name)
        };
        assert!(find("SCSGuard").is_some());
        assert!(find("BERT").is_none());
    }

    #[test]
    fn registry_hsc_specs_give_table2_names() {
        // The registry's hsc_specs() is the one source of the seven HSCs;
        // its names must stay in Table II order.
        let registry = DetectorRegistry::global();
        let names: Vec<String> = registry
            .hsc_specs()
            .iter()
            .map(|s| registry.build(s, 7).name().to_owned())
            .collect();
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
}
