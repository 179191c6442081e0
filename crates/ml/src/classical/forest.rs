//! Bagged random forests — the paper's best model (93.63% accuracy).
//!
//! Standard Breiman construction: each tree is trained on a bootstrap sample
//! with √d feature subsampling per split; the ensemble prediction is the mean
//! of per-tree class-1 probabilities. Trees are trained in parallel with
//! [`std::thread::scope`]; determinism is preserved because each tree's
//! RNG seed is derived from the forest seed and the tree index.
//!
//! Inference has one engine: [`RandomForest::predict_proba_batch`] walks a
//! quantized mirror shared by every tree (see [`crate::classical::quant`]),
//! bit-identical to the per-row [`Node`](crate::classical::tree::Node)
//! arena walk it falls back to when a feature exceeds the bin budget.

use crate::classical::quant::{accumulate_trees, FeatureBins, NanRoute, QuantNodes};
use crate::classical::tree::{DecisionTree, TreeConfig};
use crate::classical::SplitMix;
use crate::matrix::Matrix;
use crate::Classifier;
use std::sync::OnceLock;

/// Hyperparameters for a [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree depth cap.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features examined per split; `None` = ⌈√d⌉.
    pub max_features: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for training (`1` = sequential).
    pub threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 42,
            threads: 4,
        }
    }
}

/// Quantized mirror of the whole forest: one [`FeatureBins`] shared by
/// every member tree (their thresholds are pooled per feature), so a batch
/// quantizes once and every packed tree walks the same `u16` matrix.
/// Derived state — rebuilt at fit and restore time, never persisted.
#[derive(Debug, Clone)]
struct ForestQuant {
    bins: FeatureBins,
    trees: Vec<QuantNodes>,
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: ForestConfig,
    trees: Vec<DecisionTree>,
    quant: Option<ForestQuant>,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(config: ForestConfig) -> Self {
        RandomForest {
            config,
            trees: Vec::new(),
            quant: None,
        }
    }

    /// Creates an unfitted forest with default hyperparameters.
    pub fn with_defaults() -> Self {
        Self::new(ForestConfig::default())
    }

    /// The fitted trees (empty before [`Classifier::fit`]). TreeSHAP sums
    /// over these.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The configuration this forest was built with.
    pub fn config(&self) -> &ForestConfig {
        &self.config
    }

    /// Number of features the fitted trees expect (`None` before fit).
    /// Snapshot restore uses this to cross-check the forest against the
    /// feature extractor it is paired with.
    pub fn n_features(&self) -> Option<usize> {
        self.trees.first().map(DecisionTree::n_features)
    }

    /// Minimum rows a scoring thread must own before it is worth
    /// spawning: below this the scoped-thread spawn outweighs the fused
    /// quantize-and-walk work it offloads.
    const ROWS_PER_THREAD: usize = 64;

    /// Batch class-1 probabilities over all rows of `x`.
    ///
    /// Scores through the forest's quantized mirror, sharded across scoped
    /// threads. Each thread *fuses* the two stages over its own rows: it
    /// quantizes exactly the rows it will walk (so the `u16` rows are
    /// L1/L2-hot when the walk reads them), then accumulates every tree
    /// over them. A row's probability is its tree-ordered sum however rows
    /// are sharded, and the shared bins come from the trees' own
    /// thresholds, so the result is bit-identical to the per-row arena walk
    /// ([`DecisionTree::predict_row`]) for any thread count. A forest with
    /// no mirror (a feature with more than 65,534 distinct thresholds)
    /// takes that arena walk instead.
    ///
    /// The thread count is clamped by the cores the process may use, read
    /// once per process.
    ///
    /// # Panics
    /// Panics when called before [`Classifier::fit`].
    pub fn predict_proba_batch(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict before fit");
        let k = self.trees.len() as f64;
        let Some(quant) = &self.quant else {
            // Tree-ordered sum from zero, exactly as the quantized walk
            // accumulates.
            return x
                .iter_rows()
                .map(|row| self.trees.iter().fold(0.0, |s, t| s + t.predict_row(row)) / k)
                .collect();
        };
        let n = x.rows();
        let mut out = vec![0.0; n];
        // Sharding never changes the result, so the thread count is free to
        // clamp by the cores actually present — configured counts above
        // that are pure spawn overhead. On Linux the query re-reads the
        // cgroup CPU quota on every call, which costs more than the whole
        // walk of a one-row batch, so it runs once per process.
        static CORES: OnceLock<usize> = OnceLock::new();
        let hw = *CORES
            .get_or_init(|| std::thread::available_parallelism().map_or(usize::MAX, usize::from));
        let threads = self
            .config
            .threads
            .max(1)
            .min(hw)
            .min(n.div_ceil(Self::ROWS_PER_THREAD).max(1));
        if threads == 1 {
            Self::quantize_and_accumulate(quant, x, 0, &mut out);
        } else {
            let rows_per_thread = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for (t, chunk) in out.chunks_mut(rows_per_thread).enumerate() {
                    scope.spawn(move || {
                        Self::quantize_and_accumulate(quant, x, t * rows_per_thread, chunk)
                    });
                }
            });
        }
        for p in &mut out {
            *p /= k;
        }
        out
    }

    /// Rows per inference block: every tree walk re-reads the block's
    /// `u16` rows at random columns, so the block must stay L1-resident
    /// across the whole forest (128 rows × ~144 cols × 2 bytes ≈ 36 KiB).
    const BLOCK: usize = 128;

    /// Quantizes rows `lo..lo + out.len()` of `x` and accumulates every
    /// tree over them in [`Self::BLOCK`]-sized blocks.
    fn quantize_and_accumulate(quant: &ForestQuant, x: &Matrix, lo: usize, out: &mut [f64]) {
        for (b, block) in out.chunks_mut(Self::BLOCK).enumerate() {
            let start = lo + b * Self::BLOCK;
            let q = quant.bins.quantize_row_range(x, start, start + block.len());
            accumulate_trees(&quant.trees, &q, 0, block.len(), block);
        }
    }

    /// Widest per-feature bin count of the quantized mirror, or `None`
    /// when quantization is unavailable (unfitted, or over budget).
    pub fn quant_bins(&self) -> Option<usize> {
        self.quant.as_ref().map(|q| q.bins.max_bins())
    }

    /// Rebuilds the shared-bin quantized mirror from the fitted trees
    /// (fit + restore).
    fn rebuild_quant(&mut self) {
        self.quant = None;
        let Some(d) = self.n_features() else { return };
        let mut per_feature = vec![Vec::new(); d];
        for tree in &self.trees {
            tree.collect_split_thresholds(&mut per_feature);
        }
        self.quant = FeatureBins::from_split_thresholds(per_feature, NanRoute::Right).map(|bins| {
            let trees = self.trees.iter().map(|t| t.quant_nodes(&bins)).collect();
            ForestQuant { bins, trees }
        });
    }

    fn train_one(&self, x: &Matrix, y: &[usize], tree_idx: usize) -> DecisionTree {
        let n = x.rows();
        let mut rng = SplitMix::new(self.config.seed ^ (tree_idx as u64).wrapping_mul(0x9E37));
        let indices: Vec<usize> = (0..n).map(|_| rng.below(n)).collect();
        let d = x.cols();
        let max_features = self
            .config
            .max_features
            .unwrap_or_else(|| (d as f64).sqrt().ceil() as usize)
            .clamp(1, d.max(1));
        let mut tree = DecisionTree::new(TreeConfig {
            max_depth: self.config.max_depth,
            min_samples_split: self.config.min_samples_split,
            min_samples_leaf: self.config.min_samples_leaf,
            max_features: Some(max_features),
            seed: rng.next_u64(),
        });
        tree.fit_indices(x, y, &indices);
        tree
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let n_trees = self.config.n_trees;
        let threads = self.config.threads.max(1);
        if threads == 1 || n_trees < 4 {
            self.trees = (0..n_trees).map(|t| self.train_one(x, y, t)).collect();
        } else {
            let mut trees: Vec<Option<DecisionTree>> = vec![None; n_trees];
            let this = &*self;
            std::thread::scope(|scope| {
                for (chunk_id, chunk) in trees.chunks_mut(n_trees.div_ceil(threads)).enumerate() {
                    let chunk_size = n_trees.div_ceil(threads);
                    scope.spawn(move || {
                        for (k, slot) in chunk.iter_mut().enumerate() {
                            *slot = Some(this.train_one(x, y, chunk_id * chunk_size + k));
                        }
                    });
                }
            });
            self.trees = trees
                .into_iter()
                .map(|t| t.expect("all trees trained"))
                .collect();
        }
        self.rebuild_quant();
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.predict_proba_batch(x)
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

// --- Persistence -----------------------------------------------------------

use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for ForestConfig {
    fn snapshot(&self, w: &mut Writer) {
        w.put_usize(self.n_trees);
        w.put_usize(self.max_depth);
        w.put_usize(self.min_samples_split);
        w.put_usize(self.min_samples_leaf);
        self.max_features.snapshot(w);
        w.put_u64(self.seed);
        w.put_usize(self.threads);
    }
}

impl Restore for ForestConfig {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ForestConfig {
            n_trees: r.take_usize()?,
            max_depth: r.take_usize()?,
            min_samples_split: r.take_usize()?,
            min_samples_leaf: r.take_usize()?,
            max_features: Option::restore(r)?,
            seed: r.take_u64()?,
            threads: r.take_usize()?,
        })
    }
}

impl Snapshot for RandomForest {
    fn snapshot(&self, w: &mut Writer) {
        self.config.snapshot(w);
        self.trees.snapshot(w);
    }
}

impl Restore for RandomForest {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut forest = RandomForest {
            config: ForestConfig::restore(r)?,
            trees: Vec::restore(r)?,
            quant: None,
        };
        forest.rebuild_quant();
        Ok(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let c = if label == 0 { -1.5 } else { 1.5 };
            rows.push(vec![c + rng.normal(), c + rng.normal(), rng.normal()]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn beats_chance_on_noisy_blobs() {
        let (x, y) = blobs(200, 1);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 30,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let (xt, yt) = blobs(100, 2);
        let correct = rf
            .predict(&xt)
            .iter()
            .zip(&yt)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct >= 85, "only {correct}/100 correct");
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let (x, y) = blobs(80, 3);
        let mut seq = RandomForest::new(ForestConfig {
            n_trees: 8,
            threads: 1,
            seed: 5,
            ..ForestConfig::default()
        });
        let mut par = RandomForest::new(ForestConfig {
            n_trees: 8,
            threads: 4,
            seed: 5,
            ..ForestConfig::default()
        });
        seq.fit(&x, &y);
        par.fit(&x, &y);
        assert_eq!(seq.predict_proba(&x), par.predict_proba(&x));
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = blobs(60, 4);
        let mut a = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 9,
            ..Default::default()
        });
        let mut b = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 9,
            ..Default::default()
        });
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = blobs(60, 4);
        let mut a = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 1,
            ..Default::default()
        });
        let mut b = RandomForest::new(ForestConfig {
            n_trees: 6,
            seed: 2,
            ..Default::default()
        });
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = blobs(50, 7);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 5,
            ..Default::default()
        });
        rf.fit(&x, &y);
        for p in rf.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn tree_count_matches_config() {
        let (x, y) = blobs(40, 8);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 13,
            ..Default::default()
        });
        rf.fit(&x, &y);
        assert_eq!(rf.trees().len(), 13);
    }

    /// The per-row reference: trees outer, rows inner, arena node walk.
    /// Batch inference is tested against this.
    fn predict_proba_per_row(rf: &RandomForest, x: &Matrix) -> Vec<f64> {
        let mut probs = vec![0.0; x.rows()];
        for tree in rf.trees() {
            for (p, row) in probs.iter_mut().zip(x.iter_rows()) {
                *p += tree.predict_row(row);
            }
        }
        let k = rf.trees().len() as f64;
        for p in &mut probs {
            *p /= k;
        }
        probs
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn batch_inference_matches_per_row_reference() {
        let (x, y) = blobs(300, 11);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 12,
            threads: 3, // odd split so thread chunks straddle blocks
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        assert!(rf.quant_bins().expect("quantized") >= 2);
        let batch = rf.predict_proba_batch(&x);
        assert_eq!(bits(&batch), bits(&predict_proba_per_row(&rf, &x)));
    }

    #[test]
    fn batch_inference_is_thread_count_invariant() {
        // 600 rows: enough 64-row shards that every thread count below
        // really splits the batch (up to the cores present).
        let (x, y) = blobs(600, 12);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 7,
            seed: 3,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let reference = bits(&predict_proba_per_row(&rf, &x));
        for threads in [1, 2, 5] {
            let mut cfg = rf.clone();
            cfg.config.threads = threads;
            // Bit-identical: per-row sums accumulate in tree order
            // regardless of how rows are sharded across threads.
            assert_eq!(
                bits(&cfg.predict_proba_batch(&x)),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn arena_fallback_matches_the_quantized_engine() {
        // Without a mirror (a feature over the bin budget) the forest walks
        // the arena per row, with the same bits.
        let (x, y) = blobs(200, 14);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 9,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let quantized = rf.predict_proba_batch(&x);
        rf.quant = None;
        assert_eq!(rf.quant_bins(), None);
        assert_eq!(bits(&rf.predict_proba_batch(&x)), bits(&quantized));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = blobs(80, 21);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 9,
            seed: 3,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let bytes = to_envelope("forest", &rf);
        let back: RandomForest = from_envelope("forest", &bytes).expect("round-trips");
        assert_eq!(back.config(), rf.config());
        assert_eq!(back.trees().len(), rf.trees().len());
        // Restore rebuilds the quantized mirror from the arenas.
        assert_eq!(back.quant_bins(), rf.quant_bins());
        assert_eq!(
            bits(&rf.predict_proba_batch(&x)),
            bits(&back.predict_proba_batch(&x))
        );
    }

    #[test]
    fn zero_column_training_set_fits_and_scores() {
        // Every bytecode empty: no feature to split on, so every tree is a
        // single leaf at the class prior.
        let x = Matrix::zeros(5, 0);
        let y = vec![1, 0, 1, 0, 1];
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let probs = rf.predict_proba_batch(&x);
        assert_eq!(probs.len(), 5);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        assert_eq!(bits(&probs), bits(&predict_proba_per_row(&rf, &x)));
    }

    #[test]
    fn every_small_block_size_matches_the_per_row_reference() {
        // 37 trees: two full 16-tree groups plus a 5-tree remainder. Block
        // sizes 1–40 cover leftover rows alone (1–15), one full row group
        // with and without leftovers (16–31), and two (32–40).
        let (x, y) = blobs(200, 15);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 37,
            seed: 6,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        assert!(rf.quant_bins().is_some());
        let (eval, _) = blobs(80, 16);
        let mut rows: Vec<Vec<f64>> = eval.iter_rows().map(<[f64]>::to_vec).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            if i % 7 == 0 {
                row[i % 3] = f64::NAN;
            }
            if i % 5 == 0 {
                row[(i + 1) % 3] = if i % 2 == 0 { 1e9 } else { -1e9 };
            }
        }
        for b in 1..=40 {
            let block = Matrix::from_rows(&rows[b..2 * b]);
            assert_eq!(
                bits(&rf.predict_proba_batch(&block)),
                bits(&predict_proba_per_row(&rf, &block)),
                "block of {b} rows"
            );
        }
    }

    #[test]
    fn non_finite_split_threshold_is_rejected_at_restore() {
        use phishinghook_persist::{from_envelope, open_envelope, to_envelope, Writer};
        /// Reseals an edited payload under a valid length and CRC.
        struct Raw(Vec<u8>);
        impl Snapshot for Raw {
            fn snapshot(&self, w: &mut Writer) {
                w.put_raw(&self.0);
            }
        }
        let (x, y) = blobs(40, 22);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 3,
            ..ForestConfig::default()
        });
        rf.fit(&x, &y);
        let (feature, threshold) = rf.trees()[1]
            .nodes()
            .iter()
            .find_map(|node| match *node {
                crate::classical::tree::Node::Split {
                    feature, threshold, ..
                } => Some((feature, threshold)),
                crate::classical::tree::Node::Leaf { .. } => None,
            })
            .expect("a split");
        let bytes = to_envelope("forest", &rf);
        let payload = open_envelope("forest", &bytes).expect("valid").to_vec();
        // A split node on the wire: tag 1, the feature, then the threshold.
        let mut needle = vec![1u8];
        needle.extend_from_slice(&(feature as u64).to_le_bytes());
        needle.extend_from_slice(&threshold.to_bits().to_le_bytes());
        let at = payload
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("the split is in the payload")
            + 9;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut edited = payload.clone();
            edited[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let resealed = to_envelope("forest", &Raw(edited));
            match from_envelope::<RandomForest>("forest", &resealed) {
                Err(PersistError::Malformed(msg)) => {
                    assert!(msg.contains("non-finite threshold"), "{bad}: {msg}")
                }
                other => panic!("{bad}: expected a typed Malformed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn batch_inference_handles_empty_input() {
        let (x, y) = blobs(40, 13);
        let mut rf = RandomForest::new(ForestConfig {
            n_trees: 3,
            ..Default::default()
        });
        rf.fit(&x, &y);
        assert!(rf
            .predict_proba_batch(&Matrix::zeros(0, x.cols()))
            .is_empty());
    }

    proptest! {
        #[test]
        fn quantized_batch_is_bit_identical_to_arena_walk(seed in any::<u64>()) {
            // The mirror bins on the trees' own thresholds, so the batch
            // must agree with the per-row arena walk bit-for-bit —
            // including NaN rows (route right) and values far outside the
            // training range (clamped at transform time).
            let mut rng = SplitMix::new(seed);
            let mut rows: Vec<Vec<f64>> =
                (0..48).map(|_| vec![rng.unit(), rng.unit(), rng.unit()]).collect();
            let y: Vec<usize> = (0..48).map(|_| rng.below(2)).collect();
            let mut rf = RandomForest::new(ForestConfig {
                n_trees: 5,
                seed,
                ..ForestConfig::default()
            });
            rf.fit(&Matrix::from_rows(&rows), &y);
            // Corrupt some evaluation rows: NaN and out-of-range values.
            for (i, row) in rows.iter_mut().enumerate() {
                if i % 7 == 0 { row[i % 3] = f64::NAN; }
                if i % 5 == 0 { row[(i + 1) % 3] = 1e9 * if i % 2 == 0 { 1.0 } else { -1.0 }; }
            }
            let x = Matrix::from_rows(&rows);
            prop_assert!(rf.quant_bins().is_some());
            prop_assert_eq!(bits(&rf.predict_proba_batch(&x)), bits(&predict_proba_per_row(&rf, &x)));
        }
    }
}
