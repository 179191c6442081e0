//! The model evaluation module (MEM): trains every detector under repeated
//! stratified cross-validation and records the paper's metrics plus wall-
//! clock costs.

use crate::cv::stratified_kfold;
use crate::metrics::BinaryMetrics;
use phishinghook_models::{Category, Detector, FoldFeatures};
use std::time::Instant;

/// One (model, run, fold) evaluation outcome — the unit of the paper's
/// "30 trials per model".
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Model name (Table II row).
    pub model: String,
    /// Model category.
    pub category: Category,
    /// Run index (0-based).
    pub run: usize,
    /// Fold index (0-based).
    pub fold: usize,
    /// Test-fold metrics.
    pub metrics: BinaryMetrics,
    /// Training wall-clock seconds. For detectors on a shared feature
    /// family (the HSCs), this includes the fold's one-time feature
    /// extraction — of both splits — whether this model built it or reused
    /// it, so timings stay comparable across models.
    pub train_secs: f64,
    /// Inference wall-clock seconds over the test fold. For shared-feature
    /// detectors this is pure model inference (the test-split transform is
    /// part of `train_secs`' extraction term).
    pub infer_secs: f64,
}

/// A factory producing fresh detectors for a given seed; models must be
/// rebuilt per fold so no state leaks between folds. `Sync` because the
/// evaluation pipeline invokes it from worker threads, one call per
/// (run, fold) cell.
pub type DetectorFactory<'a> = dyn Fn(u64) -> Vec<Box<dyn Detector>> + Sync + 'a;

/// One independent (run, fold) unit of work.
struct Cell {
    run: usize,
    run_seed: u64,
    fold_idx: usize,
    fold: crate::cv::Fold,
}

/// Evaluates every detector of one cell, sharing feature extraction through
/// a [`FoldFeatures`] store so detectors of one family (e.g. the seven
/// HSCs) disassemble and featurize the fold once instead of once each.
///
/// Timing attribution: a detector that *reuses* already-built shared
/// features has the one-time build cost added to its `train_secs`, so the
/// per-model timing columns stay comparable to a detector extracting for
/// itself (the seed semantics) — the extraction is only *performed* once,
/// but *reported* for every model that depends on it.
fn evaluate_cell(
    codes: &[&[u8]],
    labels: &[usize],
    factory: &DetectorFactory<'_>,
    cell: &Cell,
) -> Vec<TrialResult> {
    let train_x: Vec<&[u8]> = cell.fold.train.iter().map(|&i| codes[i]).collect();
    let train_y: Vec<usize> = cell.fold.train.iter().map(|&i| labels[i]).collect();
    let test_x: Vec<&[u8]> = cell.fold.test.iter().map(|&i| codes[i]).collect();
    let test_y: Vec<usize> = cell.fold.test.iter().map(|&i| labels[i]).collect();

    let features = FoldFeatures::new(&train_x, &test_x);
    let mut results = Vec::new();
    for mut detector in factory(cell.run_seed ^ cell.fold_idx as u64) {
        let (hits_before, _) = features.histogram_usage();
        let t0 = Instant::now();
        detector.fit_fold(&features, &train_y);
        let mut train_secs = t0.elapsed().as_secs_f64();
        let (hits_after, build_secs) = features.histogram_usage();
        let reused_shared = hits_after > hits_before && hits_before > 0;
        if reused_shared {
            // The builder's elapsed time already contains the build.
            train_secs += build_secs;
        }

        let t1 = Instant::now();
        let predictions = detector.predict_fold(&features);
        let infer_secs = t1.elapsed().as_secs_f64();

        results.push(TrialResult {
            model: detector.name().to_owned(),
            category: detector.category(),
            run: cell.run,
            fold: cell.fold_idx,
            metrics: BinaryMetrics::from_predictions(&predictions, &test_y),
            train_secs,
            infer_secs,
        });
    }
    results
}

/// Runs the full MEM protocol: `runs` repetitions of stratified `folds`-fold
/// cross-validation for every detector the factory produces.
///
/// The (run, fold) cells are independent; they are dispatched across
/// [`phishinghook_ml::cores`] worker threads with
/// [`std::thread::scope`]. Results are assembled in (run, fold, detector)
/// order regardless of scheduling, so the output is deterministic for
/// deterministic detectors. Note that detectors with internal thread pools
/// (e.g. random forests) run nested inside cell workers, so wall-clock
/// timing columns measured on a saturated machine include scheduling
/// contention; the reported *metrics* are unaffected.
///
/// # Panics
/// Panics when `codes.len() != labels.len()`.
pub fn evaluate(
    codes: &[&[u8]],
    labels: &[usize],
    factory: &DetectorFactory<'_>,
    folds: usize,
    runs: usize,
    seed: u64,
) -> Vec<TrialResult> {
    assert_eq!(codes.len(), labels.len(), "one label per bytecode");
    let mut cells = Vec::with_capacity(runs * folds);
    for run in 0..runs {
        let run_seed = seed.wrapping_add(run as u64).wrapping_mul(0x9E37_79B9);
        for (fold_idx, fold) in stratified_kfold(labels, folds, run_seed)
            .into_iter()
            .enumerate()
        {
            cells.push(Cell {
                run,
                run_seed,
                fold_idx,
                fold,
            });
        }
    }

    let threads = phishinghook_ml::cores().min(cells.len().max(1));
    let mut slots: Vec<Option<Vec<TrialResult>>> = (0..cells.len()).map(|_| None).collect();
    if threads <= 1 {
        for (slot, cell) in slots.iter_mut().zip(&cells) {
            *slot = Some(evaluate_cell(codes, labels, factory, cell));
        }
    } else {
        let per_thread = cells.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (chunk_id, chunk) in slots.chunks_mut(per_thread).enumerate() {
                let cells = &cells;
                scope.spawn(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        let cell = &cells[chunk_id * per_thread + k];
                        *slot = Some(evaluate_cell(codes, labels, factory, cell));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .flat_map(|s| s.expect("all cells evaluated"))
        .collect()
}

/// Per-model averages over all trials — the rows of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// Model name.
    pub model: String,
    /// Model category.
    pub category: Category,
    /// Mean metrics over trials.
    pub metrics: BinaryMetrics,
    /// Mean training seconds.
    pub train_secs: f64,
    /// Mean inference seconds.
    pub infer_secs: f64,
    /// Number of trials aggregated.
    pub trials: usize,
}

/// Aggregates trials into per-model summaries, preserving first-seen order.
pub fn summarize(results: &[TrialResult]) -> Vec<ModelSummary> {
    let mut order: Vec<String> = Vec::new();
    for r in results {
        if !order.contains(&r.model) {
            order.push(r.model.clone());
        }
    }
    order
        .into_iter()
        .map(|name| {
            let trials: Vec<&TrialResult> = results.iter().filter(|r| r.model == name).collect();
            let n = trials.len() as f64;
            let mean = |f: fn(&TrialResult) -> f64| trials.iter().map(|t| f(t)).sum::<f64>() / n;
            ModelSummary {
                category: trials[0].category,
                metrics: BinaryMetrics {
                    accuracy: mean(|t| t.metrics.accuracy),
                    precision: mean(|t| t.metrics.precision),
                    recall: mean(|t| t.metrics.recall),
                    f1: mean(|t| t.metrics.f1),
                },
                train_secs: mean(|t| t.train_secs),
                infer_secs: mean(|t| t.infer_secs),
                trials: trials.len(),
                model: name,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_data::{Corpus, CorpusConfig};
    use phishinghook_models::HscDetector;

    fn corpus(n: usize) -> (Vec<Vec<u8>>, Vec<usize>) {
        let c = Corpus::generate(&CorpusConfig {
            n_contracts: n,
            seed: 12,
            ..Default::default()
        });
        (
            c.records.iter().map(|r| r.bytecode.clone()).collect(),
            c.records.iter().map(|r| r.label.as_index()).collect(),
        )
    }

    #[test]
    fn evaluate_produces_folds_times_runs_trials() {
        let (codes, labels) = corpus(120);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let factory = |seed: u64| -> Vec<Box<dyn Detector>> {
            vec![
                Box::new(HscDetector::random_forest(seed)),
                Box::new(HscDetector::knn()),
            ]
        };
        let results = evaluate(&refs, &labels, &factory, 3, 2, 7);
        assert_eq!(results.len(), 3 * 2 * 2);
        assert!(results.iter().all(|r| r.metrics.accuracy > 0.5));
        assert!(results
            .iter()
            .all(|r| r.train_secs >= 0.0 && r.infer_secs >= 0.0));
    }

    #[test]
    fn summaries_average_trials() {
        let (codes, labels) = corpus(120);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let factory = |seed: u64| -> Vec<Box<dyn Detector>> {
            vec![Box::new(HscDetector::random_forest(seed))]
        };
        let results = evaluate(&refs, &labels, &factory, 3, 2, 7);
        let summaries = summarize(&results);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].trials, 6);
        let manual: f64 =
            results.iter().map(|r| r.metrics.accuracy).sum::<f64>() / results.len() as f64;
        assert!((summaries[0].metrics.accuracy - manual).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_deterministic_models() {
        let (codes, labels) = corpus(100);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let factory = |seed: u64| -> Vec<Box<dyn Detector>> {
            vec![Box::new(HscDetector::random_forest(seed))]
        };
        let a = evaluate(&refs, &labels, &factory, 3, 1, 9);
        let b = evaluate(&refs, &labels, &factory, 3, 1, 9);
        let ma: Vec<f64> = a.iter().map(|r| r.metrics.accuracy).collect();
        let mb: Vec<f64> = b.iter().map(|r| r.metrics.accuracy).collect();
        assert_eq!(ma, mb);
    }
}
