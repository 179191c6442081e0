//! The dynamic channel earns its keep: on the honeypot scenario — rigged
//! contracts whose benign twins share an *identical* opcode histogram —
//! a static-only detector is pinned at chance by construction, while the
//! same model family trained on `features=hist+trace` separates the pairs
//! through the dispatcher explorer's execution traces.
//!
//! This is the end-to-end claim the CI `dynamic-smoke` job guards: the
//! selector-driven EVM execution layer must buy real detection power, not
//! just extra columns.

#[path = "../crates/evm/tests/reference_explorer/mod.rs"]
mod reference_explorer;

use phishinghook::data::{Corpus, CorpusConfig, Scenario};
use phishinghook::evm::{Explorer, ExplorerConfig, NullHost};
use phishinghook::models::{Detector, DetectorRegistry, FeatureSet};
use std::sync::OnceLock;

struct Fixture {
    train_x: Vec<Vec<u8>>,
    train_y: Vec<usize>,
    test_x: Vec<Vec<u8>>,
    test_y: Vec<usize>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 160,
            seed: 41,
            scenario: Scenario::Honeypot,
            ..Default::default()
        });
        let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
        let labels: Vec<usize> = corpus.records.iter().map(|r| r.label.as_index()).collect();
        let split = 100;
        Fixture {
            train_x: codes[..split].to_vec(),
            train_y: labels[..split].to_vec(),
            test_x: codes[split..].to_vec(),
            test_y: labels[split..].to_vec(),
        }
    })
}

/// Trains `spec` on the fixture and returns held-out accuracy.
fn held_out_accuracy(spec: &str) -> f64 {
    let fx = fixture();
    let train: Vec<&[u8]> = fx.train_x.iter().map(Vec::as_slice).collect();
    let test: Vec<&[u8]> = fx.test_x.iter().map(Vec::as_slice).collect();
    let mut det = DetectorRegistry::global()
        .build_str(spec, 7)
        .unwrap_or_else(|e| panic!("`{spec}` must parse: {e}"));
    det.fit(&train, &fx.train_y);
    let predictions = det.predict(&test);
    let correct = predictions
        .iter()
        .zip(&fx.test_y)
        .filter(|(p, y)| p == y)
        .count();
    correct as f64 / test.len() as f64
}

#[test]
fn static_histograms_sit_near_chance_on_honeypots() {
    // Rigged contract and benign twin differ only in PUSH immediates, so
    // the opcode histogram carries no label signal. Anything the static
    // model scores above chance here is train/test family leakage noise;
    // 0.65 gives the forest generous slack while still pinning it well
    // below a usable detector.
    let acc = held_out_accuracy("rf:seed=7");
    assert!(
        acc <= 0.65,
        "static-only accuracy {acc:.3} on honeypots — the scenario no longer \
         blinds opcode histograms"
    );
}

#[test]
fn trace_features_separate_honeypots_that_statics_cannot() {
    let static_acc = held_out_accuracy("rf:seed=7");
    let dynamic_acc = held_out_accuracy("rf:features=hist+trace:seed=7");
    assert!(
        dynamic_acc >= 0.85,
        "trace-augmented accuracy {dynamic_acc:.3} below floor — the \
         dispatcher explorer is not separating rigged contracts from twins"
    );
    assert!(
        dynamic_acc > static_acc + 0.15,
        "trace features must clearly beat static-only on honeypots \
         (static {static_acc:.3}, hist+trace {dynamic_acc:.3})"
    );
}

#[test]
fn the_pure_trace_channel_also_beats_static() {
    // Even without the histogram columns, the 20 trace features alone
    // carry the honeypot signal — the win is the dynamic channel, not an
    // interaction artifact of the stacked matrix.
    let static_acc = held_out_accuracy("rf:seed=7");
    let trace_acc = held_out_accuracy("rf:features=trace:seed=7");
    assert!(
        trace_acc > static_acc,
        "trace-only accuracy {trace_acc:.3} did not beat static {static_acc:.3}"
    );
}

#[test]
fn the_feature_axis_reports_what_it_trained_on() {
    let registry = DetectorRegistry::global();
    let det = registry
        .build_str("rf:features=hist+trace", 7)
        .expect("spec parses");
    assert_eq!(det.features(), FeatureSet::HistogramTrace);
    let det = registry.build_str("rf", 7).expect("spec parses");
    assert_eq!(det.features(), FeatureSet::Histogram);
}

#[test]
fn the_explorer_matches_a_fresh_interpreter_per_run_on_both_corpora() {
    // The explorer analyses each contract once and reuses one machine
    // across its runs; the reference builds a new interpreter per run.
    let tight = ExplorerConfig {
        gas_per_run: 3_000,
        steps_per_run: 50,
        max_selectors: 2,
    };
    for (scenario, seed) in [(Scenario::Mixed, 23), (Scenario::Honeypot, 29)] {
        let corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 2_000,
            seed,
            scenario,
            ..Default::default()
        });
        assert!(corpus.records.len() >= 2_000, "{scenario:?}");
        for config in [ExplorerConfig::default(), tight.clone()] {
            let explorer = Explorer::new(config.clone());
            for record in &corpus.records {
                let code = &record.bytecode;
                assert_eq!(
                    explorer.explore(code),
                    reference_explorer::explore(&config, code, &mut NullHost),
                    "{scenario:?} {config:?} on {code:02x?}"
                );
            }
        }
    }
}
