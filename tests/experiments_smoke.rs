//! Smoke tests for every experiment driver: each paper table/figure
//! regenerates at reduced scale with the expected output shape.

use phishinghook_core::experiments::{
    dataset_stats, posthoc, scalability, shap_analysis, time_resistance, ExperimentScale,
};
use phishinghook_core::pipeline::evaluate;
use phishinghook_models::{Detector, DetectorRegistry};

fn tiny() -> ExperimentScale {
    ExperimentScale {
        n_contracts: 240,
        ..ExperimentScale::smoke()
    }
}

#[test]
fn fig2_and_fig3_shapes() {
    let stats = dataset_stats::run(&tiny());
    assert_eq!(stats.monthly.len(), 13);
    assert_eq!(stats.usage.len(), 20);
    assert!(stats.obtained_phishing > stats.unique_phishing);
    // Fig. 2's shape: mid-2024 months dominate early ones.
    let early: usize = stats.monthly[..3].iter().map(|r| r.obtained).sum();
    let mid: usize = stats.monthly[5..9].iter().map(|r| r.obtained).sum();
    assert!(mid > early, "mid={mid} early={early}");
}

#[test]
fn table3_and_fig4_shapes() {
    // HSC-only trials keep this fast while exercising the full PAM path.
    let corpus = phishinghook_data::Corpus::generate(&phishinghook_data::CorpusConfig {
        n_contracts: 240,
        seed: 5,
        ..Default::default()
    });
    let (codes, labels) = corpus.as_dataset();
    let factory = |seed: u64| -> Vec<Box<dyn Detector>> {
        let registry = DetectorRegistry::global();
        registry
            .hsc_specs()
            .iter()
            .map(|spec| Box::new(registry.build(spec, seed)) as Box<dyn Detector>)
            .collect()
    };
    let trials = evaluate(&codes, &labels, &factory, 4, 2, 3);
    let analysis = posthoc::run(&trials);

    assert_eq!(analysis.kruskal.len(), 4);
    for row in &analysis.kruskal {
        assert!(row.p_adjusted >= row.p);
        assert!(row.h >= 0.0);
    }
    // 7 models → 21 pairs × 4 metrics.
    assert_eq!(analysis.pairwise.len(), 84);
    assert_eq!(analysis.normality_tests, 28);
    for (_, rates) in &analysis.rates {
        assert!((0.0..=1.0).contains(&rates.overall));
    }
}

#[test]
fn fig5_to_fig7_shapes() {
    let result = scalability::run(&tiny());
    assert_eq!(result.measurements.len(), 9);
    assert_eq!(result.cdd.len(), 4);
    // All measurements carry positive timing.
    for m in &result.measurements {
        assert!(m.train_secs > 0.0);
        assert!(m.infer_secs >= 0.0);
    }
    // The CDD's pairwise p-values are valid probabilities.
    for (_, cdd) in &result.cdd {
        for (_, p) in &cdd.pairwise_p {
            assert!((0.0..=1.0).contains(p));
        }
    }
}

#[test]
fn fig8_shape() {
    let scale = ExperimentScale {
        n_contracts: 520,
        ..ExperimentScale::smoke()
    };
    let result = time_resistance::run(&scale);
    assert_eq!(result.curves.len(), 3);
    let names: Vec<&str> = result.curves.iter().map(|c| c.model).collect();
    assert_eq!(names, vec!["Random Forest", "ECA+EfficientNet", "SCSGuard"]);
    for curve in &result.curves {
        assert!(!curve.months.is_empty());
        assert!((0.0..=1.0).contains(&curve.aut_f1));
    }
}

#[test]
fn fig9_shape() {
    let analysis = shap_analysis::run(&tiny());
    assert!(analysis.top.len() <= 20 && !analysis.top.is_empty());
    assert!(analysis.max_additivity_error < 1e-9);
    // Influence ranking is descending.
    for w in analysis.top.windows(2) {
        assert!(w[0].mean_abs_shap >= w[1].mean_abs_shap);
    }
}
