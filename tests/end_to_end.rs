//! Cross-crate integration tests: the full PhishingHook pipeline from
//! simulated chain to model verdicts and post hoc statistics.

use phishinghook_core::cv::stratified_kfold;
use phishinghook_core::metrics::BinaryMetrics;
use phishinghook_core::pipeline::{evaluate, summarize};
use phishinghook_data::{
    extract_labeled_bytecodes, Corpus, CorpusConfig, Label, LabelOracle, SimulatedChain,
};
use phishinghook_models::{Detector, DetectorRegistry, HscDetector};

fn corpus(n: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        n_contracts: n,
        seed,
        ..Default::default()
    })
}

#[test]
fn chain_to_verdict_pipeline() {
    // Fig. 1 end to end: chain → oracle → BEM → detector → verdicts.
    let c = corpus(240, 1);
    let chain = SimulatedChain::from_records(&c.records);
    let oracle = LabelOracle::from_records(&c.records);
    let addresses: Vec<[u8; 20]> = c.records.iter().map(|r| r.address).collect();
    let labeled = extract_labeled_bytecodes(&chain, &oracle, &addresses);
    assert_eq!(labeled.len(), c.records.len());

    let split = labeled.len() * 3 / 4;
    let codes: Vec<&[u8]> = labeled.iter().map(|(c, _)| c.as_slice()).collect();
    let labels: Vec<usize> = labeled.iter().map(|(_, l)| l.as_index()).collect();
    let mut det = HscDetector::random_forest(5);
    det.fit(&codes[..split], &labels[..split]);
    let preds = det.predict(&codes[split..]);
    let m = BinaryMetrics::from_predictions(&preds, &labels[split..]);
    assert!(m.accuracy > 0.75, "end-to-end accuracy {}", m.accuracy);
}

#[test]
fn labels_come_from_oracle_not_generator() {
    // With a noisy oracle, the extracted labels must differ from ground
    // truth at roughly the configured miss rate.
    let c = corpus(300, 2);
    let chain = SimulatedChain::from_records(&c.records);
    let oracle = LabelOracle::from_records(&c.records).with_noise(0.2, 0.0, 7);
    let addresses: Vec<[u8; 20]> = c.records.iter().map(|r| r.address).collect();
    let labeled = extract_labeled_bytecodes(&chain, &oracle, &addresses);
    let flips = c
        .records
        .iter()
        .zip(&labeled)
        .filter(|(r, (_, l))| r.label == Label::Phishing && *l == Label::Benign)
        .count();
    let phishing = c.phishing().count();
    let rate = flips as f64 / phishing as f64;
    assert!((0.08..=0.35).contains(&rate), "miss rate {rate}");
}

#[test]
fn full_hsc_cross_validation_beats_chance_everywhere() {
    let c = corpus(300, 3);
    let (codes, labels) = c.as_dataset();
    let factory = |seed: u64| -> Vec<Box<dyn Detector>> {
        let registry = DetectorRegistry::global();
        registry
            .hsc_specs()
            .iter()
            .map(|spec| Box::new(registry.build(spec, seed)) as Box<dyn Detector>)
            .collect()
    };
    let trials = evaluate(&codes, &labels, &factory, 3, 1, 11);
    assert_eq!(trials.len(), 7 * 3);
    let summaries = summarize(&trials);
    for s in &summaries {
        assert!(
            s.metrics.accuracy > 0.6,
            "{} at {}",
            s.model,
            s.metrics.accuracy
        );
        assert!(s.metrics.f1 > 0.5, "{} f1 {}", s.model, s.metrics.f1);
    }
    // Tree models should lead the pack (the paper's headline result).
    let acc = |name: &str| {
        summaries
            .iter()
            .find(|s| s.model == name)
            .expect("model present")
            .metrics
            .accuracy
    };
    assert!(acc("Random Forest") > acc("Logistic Regression"));
}

#[test]
fn no_test_fold_leakage_in_feature_extraction() {
    // Vocabulary-dependent models must behave identically whether or not
    // test contracts were visible at corpus-generation time: train on fold
    // A, predict unseen codes, and assert the histogram width matches the
    // training vocabulary.
    let c = corpus(160, 4);
    let (codes, labels) = c.as_dataset();
    let folds = stratified_kfold(&labels, 4, 9);
    let fold = &folds[0];
    let train_x: Vec<&[u8]> = fold.train.iter().map(|&i| codes[i]).collect();
    let train_y: Vec<usize> = fold.train.iter().map(|&i| labels[i]).collect();

    let extractor = phishinghook_features::HistogramExtractor::fit(&train_x);
    let width = extractor.n_features();
    // Transforming *any* bytecode — even ones with unseen opcodes — must
    // keep the training-set width.
    let weird_code = vec![0x0C, 0x0D, 0x0E, 0xEF];
    assert_eq!(extractor.transform_one(&weird_code).len(), width);

    let mut det = HscDetector::random_forest(1);
    det.fit(&train_x, &train_y);
    let test_x: Vec<&[u8]> = fold.test.iter().map(|&i| codes[i]).collect();
    let preds = det.predict(&test_x);
    assert_eq!(preds.len(), test_x.len());
}

#[test]
fn corpus_regeneration_is_bit_identical() {
    let a = corpus(150, 99);
    let b = corpus(150, 99);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.bytecode, rb.bytecode);
        assert_eq!(ra.address, rb.address);
    }
}
