//! Gradient-boosted decision trees with three variants standing in for the
//! paper's XGBoost, LightGBM and CatBoost HSCs.
//!
//! All variants share the same second-order logistic-loss boosting loop
//! (gradient `p - y`, hessian `p(1-p)`, leaf weight `-G/(H+λ)`, gain
//! `½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`) and differ exactly where
//! the real libraries differ:
//!
//! * [`BoostVariant::Exact`] — XGBoost's exact greedy split finding over
//!   sorted raw feature values, depth-wise growth.
//! * [`BoostVariant::Histogram`] — LightGBM's quantile-binned histograms with
//!   best-first (leaf-wise) growth bounded by `max_leaves`.
//! * [`BoostVariant::Oblivious`] — CatBoost's symmetric (oblivious) trees:
//!   one shared split condition per level, leaves indexed by the condition
//!   bit-vector.
//!
//! Scoring walks a quantized mirror of every tree (see
//! [`crate::classical::quant`]), bit-identical to the per-row walk it falls
//! back to when there is no mirror.

use crate::classical::quant::{
    accumulate_trees, FeatureBins, NanRoute, QuantNodeDesc, QuantNodes, QuantOblivious,
};
use crate::classical::SplitMix;
use crate::matrix::Matrix;
use crate::Classifier;

/// Which boosting flavour to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoostVariant {
    /// Exact greedy splits, depth-wise growth (XGBoost-style).
    Exact,
    /// Histogram splits, leaf-wise growth (LightGBM-style).
    Histogram,
    /// Oblivious/symmetric trees (CatBoost-style).
    Oblivious,
}

/// Hyperparameters for [`GradientBoosting`].
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtConfig {
    /// Boosting flavour.
    pub variant: BoostVariant,
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Shrinkage applied to every leaf weight.
    pub learning_rate: f64,
    /// Depth cap (Exact and Oblivious variants).
    pub max_depth: usize,
    /// Leaf cap (Histogram variant's leaf-wise growth).
    pub max_leaves: usize,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum gain γ required to keep a split.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round.
    pub subsample: f64,
    /// Feature subsampling fraction per round.
    pub colsample: f64,
    /// Histogram bin count (binned variants).
    pub n_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            variant: BoostVariant::Exact,
            n_rounds: 100,
            learning_rate: 0.2,
            max_depth: 6,
            max_leaves: 31,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            n_bins: 64,
            seed: 17,
        }
    }
}

/// Node of a regression tree (Exact / Histogram variants).
#[derive(Debug, Clone)]
enum RegNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RegNode>,
}

impl RegTree {
    /// The arena in the quantizer's neutral descriptor form.
    fn quant_desc(&self) -> Vec<QuantNodeDesc> {
        self.nodes
            .iter()
            .map(|node| match *node {
                RegNode::Leaf { weight } => QuantNodeDesc::Leaf { value: weight },
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => QuantNodeDesc::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect()
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                RegNode::Leaf { weight } => return *weight,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A CatBoost-style oblivious tree: `conditions[l]` is tested at level `l`
/// for *every* sample, and the resulting bit-vector indexes `leaf_weights`.
#[derive(Debug, Clone)]
struct ObliviousTree {
    conditions: Vec<(usize, f64)>,
    leaf_weights: Vec<f64>,
}

impl ObliviousTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut idx = 0usize;
        for (level, (feature, threshold)) in self.conditions.iter().enumerate() {
            if row[*feature] > *threshold {
                idx |= 1 << level;
            }
        }
        self.leaf_weights[idx]
    }
}

#[derive(Debug, Clone)]
enum BoostTree {
    Reg(RegTree),
    Oblivious(ObliviousTree),
}

impl BoostTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        match self {
            BoostTree::Reg(t) => t.predict_row(row),
            BoostTree::Oblivious(t) => t.predict_row(row),
        }
    }
}

/// The repacked trees of a booster's quantized mirror. A fitted booster
/// grows one family only, so the mirror holds one family only.
#[derive(Debug, Clone)]
enum QuantTrees {
    Reg(Vec<QuantNodes>),
    Oblivious(Vec<QuantOblivious>),
}

/// Quantized mirror of the whole booster: shared bins over every tree's
/// thresholds plus the repacked trees. Derived state — rebuilt at fit and
/// restore time, never persisted.
#[derive(Debug, Clone)]
struct GbdtQuant {
    bins: FeatureBins,
    trees: QuantTrees,
}

/// A fitted gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    config: GbdtConfig,
    base_score: f64,
    trees: Vec<BoostTree>,
    quant: Option<GbdtQuant>,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    pub fn new(config: GbdtConfig) -> Self {
        GradientBoosting {
            config,
            base_score: 0.0,
            trees: Vec::new(),
            quant: None,
        }
    }

    /// An unfitted booster of the given variant with otherwise-default
    /// hyperparameters.
    pub fn with_variant(variant: BoostVariant) -> Self {
        Self::new(GbdtConfig {
            variant,
            ..GbdtConfig::default()
        })
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The configuration.
    pub fn config(&self) -> &GbdtConfig {
        &self.config
    }

    /// Highest feature index any fitted tree tests (`None` for an ensemble
    /// of pure leaves or before fit). Snapshot restore uses this to
    /// cross-check the ensemble against the feature extractor it is paired
    /// with — the trees themselves do not store a feature count.
    pub fn max_feature_index(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        let mut bump = |f: usize| max = Some(max.map_or(f, |m: usize| m.max(f)));
        for tree in &self.trees {
            match tree {
                BoostTree::Reg(t) => {
                    for node in &t.nodes {
                        if let RegNode::Split { feature, .. } = node {
                            bump(*feature);
                        }
                    }
                }
                BoostTree::Oblivious(t) => {
                    for &(feature, _) in &t.conditions {
                        bump(feature);
                    }
                }
            }
        }
        max
    }

    fn raw_scores(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows()
            .map(|row| self.base_score + self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>())
            .collect()
    }

    /// Batch probabilities via the quantized mirror, or `None` when there
    /// is none (over the bin budget, or a crafted snapshot mixing tree
    /// families). Trees accumulate in order starting from zero with the
    /// base score added afterwards — the same floating-point association
    /// as the `raw_scores` reference — so the result is bit-identical to
    /// it.
    fn predict_proba_quantized(&self, x: &Matrix) -> Option<Vec<f64>> {
        let quant = self.quant.as_ref()?;
        let q = quant.bins.quantize_matrix(x);
        let mut acc = vec![0.0; x.rows()];
        // Block the rows so a block's accumulator stays in cache while
        // every tree adds into it (same shape as the forest's fast path).
        const BLOCK: usize = 256;
        let mut lo = 0;
        for block in acc.chunks_mut(BLOCK) {
            let hi = lo + block.len();
            match &quant.trees {
                QuantTrees::Reg(trees) => accumulate_trees(trees, &q, lo, hi, block),
                QuantTrees::Oblivious(trees) => {
                    for tree in trees {
                        tree.accumulate_rows(&q, lo, hi, block);
                    }
                }
            }
            lo = hi;
        }
        Some(
            acc.into_iter()
                .map(|s| sigmoid(self.base_score + s))
                .collect(),
        )
    }

    /// Widest per-feature bin count of the quantized mirror, or `None`
    /// when there is none (scoring then walks the trees per row).
    pub fn quant_bins(&self) -> Option<usize> {
        self.quant.as_ref().map(|q| q.bins.max_bins())
    }

    /// Rebuilds the quantized mirror from the fitted trees (fit + restore).
    fn rebuild_quant(&mut self) {
        self.quant = None;
        let mut reg = Vec::new();
        let mut oblivious = Vec::new();
        for tree in &self.trees {
            match tree {
                BoostTree::Reg(t) => reg.push(t),
                BoostTree::Oblivious(t) => oblivious.push(t),
            }
        }
        // NaN routing differs by family: `v <= t` trees send NaN right,
        // oblivious `v > t` conditions send it left. One booster only ever
        // fits one family; a crafted snapshot mixing them stays on the
        // per-row walk rather than sharing a wrongly-routed matrix.
        if !reg.is_empty() && !oblivious.is_empty() {
            return;
        }
        // The packed layout stores feature ids as u16 (trees never store a
        // feature count, so a crafted snapshot could exceed that).
        if self
            .max_feature_index()
            .is_some_and(|m| m > usize::from(u16::MAX))
        {
            return;
        }
        let d = self.max_feature_index().map_or(0, |m| m + 1);
        let mut per_feature = vec![Vec::new(); d];
        for t in &reg {
            for node in &t.nodes {
                if let RegNode::Split {
                    feature, threshold, ..
                } = *node
                {
                    per_feature[feature].push(threshold);
                }
            }
        }
        for t in &oblivious {
            for &(feature, threshold) in &t.conditions {
                per_feature[feature].push(threshold);
            }
        }
        let nan_route = if oblivious.is_empty() {
            NanRoute::Right
        } else {
            NanRoute::Left
        };
        let Some(bins) = FeatureBins::from_split_thresholds(per_feature, nan_route) else {
            return;
        };
        let trees = if oblivious.is_empty() {
            QuantTrees::Reg(
                reg.iter()
                    .map(|t| QuantNodes::from_arena(&t.quant_desc(), &bins))
                    .collect(),
            )
        } else {
            QuantTrees::Oblivious(
                oblivious
                    .iter()
                    .map(|t| {
                        QuantOblivious::from_conditions(
                            &t.conditions,
                            t.leaf_weights.clone(),
                            &bins,
                        )
                    })
                    .collect(),
            )
        };
        self.quant = Some(GbdtQuant { bins, trees });
    }
}

fn sigmoid(z: f64) -> f64 {
    crate::classical::linear::sigmoid(z)
}

/// Gain of a candidate child pair under the XGBoost objective.
fn split_gain(gl: f64, hl: f64, gr: f64, hr: f64, lambda: f64) -> f64 {
    let term = |g: f64, h: f64| g * g / (h + lambda);
    0.5 * (term(gl, hl) + term(gr, hr) - term(gl + gr, hl + hr))
}

/// Per-feature quantile binning used by the Histogram/Oblivious variants.
#[derive(Debug)]
struct Binning {
    /// `edges[f]` are ascending upper-inclusive bin boundaries for feature f;
    /// bin `b` covers `(edges[b-1], edges[b]]` and the last bin is open-ended.
    edges: Vec<Vec<f64>>,
}

impl Binning {
    fn fit(x: &Matrix, n_bins: usize) -> Self {
        let mut edges = Vec::with_capacity(x.cols());
        for f in 0..x.cols() {
            let mut vals = x.col(f);
            vals.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite features"));
            vals.dedup();
            let mut e = Vec::new();
            if vals.len() > 1 {
                let per_bin = (vals.len() as f64 / n_bins as f64).max(1.0);
                let mut k = per_bin;
                while (k as usize) < vals.len() {
                    let edge = vals[(k as usize) - 1];
                    if e.last() != Some(&edge) {
                        e.push(edge);
                    }
                    k += per_bin;
                }
                // Ensure the largest value below the max is an edge so a
                // split can isolate the top bin.
                let last_interior = vals[vals.len() - 2];
                if e.last() != Some(&last_interior) && e.len() + 1 < n_bins {
                    e.push(last_interior);
                }
            }
            edges.push(e);
        }
        Binning { edges }
    }

    fn bin(&self, feature: usize, value: f64) -> u16 {
        let e = &self.edges[feature];
        // Number of edges strictly below `value` == partition_point(edge < value).
        e.partition_point(|&edge| edge < value) as u16
    }

    fn n_bins(&self, feature: usize) -> usize {
        self.edges[feature].len() + 1
    }

    /// Raw-value threshold for "bin index <= b".
    fn threshold(&self, feature: usize, bin: usize) -> f64 {
        self.edges[feature][bin]
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        let n = x.rows();
        let d = x.cols();
        let pos = y.iter().filter(|&&l| l == 1).count() as f64;
        let rate = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (rate / (1.0 - rate)).ln();
        self.trees.clear();

        let binning = match self.config.variant {
            BoostVariant::Exact => None,
            _ => Some(Binning::fit(x, self.config.n_bins)),
        };
        // Pre-binned matrix for binned variants.
        let binned: Option<Vec<Vec<u16>>> = binning.as_ref().map(|b| {
            (0..n)
                .map(|i| (0..d).map(|f| b.bin(f, x[(i, f)])).collect())
                .collect()
        });

        let mut rng = SplitMix::new(self.config.seed);
        let mut scores = vec![self.base_score; n];

        for _round in 0..self.config.n_rounds {
            // Second-order statistics of the logistic loss.
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for i in 0..n {
                let p = sigmoid(scores[i]);
                grad[i] = p - y[i] as f64;
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }

            // Row subsample.
            let rows: Vec<usize> = if self.config.subsample < 1.0 {
                (0..n)
                    .filter(|_| rng.unit() < self.config.subsample)
                    .collect()
            } else {
                (0..n).collect()
            };
            if rows.is_empty() {
                continue;
            }
            // Column subsample.
            let cols: Vec<usize> = if self.config.colsample < 1.0 {
                let mut fs: Vec<usize> = (0..d).collect();
                rng.shuffle(&mut fs);
                let keep = ((d as f64 * self.config.colsample).ceil() as usize).max(1);
                fs.truncate(keep);
                fs.sort_unstable();
                fs
            } else {
                (0..d).collect()
            };

            let tree = match self.config.variant {
                BoostVariant::Exact => {
                    BoostTree::Reg(build_exact(x, &grad, &hess, &rows, &cols, &self.config))
                }
                BoostVariant::Histogram => BoostTree::Reg(build_histogram(
                    binned
                        .as_ref()
                        .expect("binned matrix for histogram variant"),
                    binning.as_ref().expect("binning for histogram variant"),
                    &grad,
                    &hess,
                    &rows,
                    &cols,
                    &self.config,
                )),
                BoostVariant::Oblivious => BoostTree::Oblivious(build_oblivious(
                    binned
                        .as_ref()
                        .expect("binned matrix for oblivious variant"),
                    binning.as_ref().expect("binning for oblivious variant"),
                    &grad,
                    &hess,
                    &rows,
                    &cols,
                    &self.config,
                )),
            };

            for (i, score) in scores.iter_mut().enumerate().take(n) {
                *score += tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
        }
        self.rebuild_quant();
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(
            !self.trees.is_empty() || self.base_score != 0.0,
            "predict before fit"
        );
        self.predict_proba_quantized(x)
            .unwrap_or_else(|| self.raw_scores(x).into_iter().map(sigmoid).collect())
    }

    fn name(&self) -> &'static str {
        match self.config.variant {
            BoostVariant::Exact => "XGBoost",
            BoostVariant::Histogram => "LightGBM",
            BoostVariant::Oblivious => "CatBoost",
        }
    }
}

// --- Persistence -----------------------------------------------------------

use crate::classical::{check_parameter, check_parameters, parameter_in_range, MAX_PARAMETER};
use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for BoostVariant {
    fn snapshot(&self, w: &mut Writer) {
        w.put_u8(match self {
            BoostVariant::Exact => 0,
            BoostVariant::Histogram => 1,
            BoostVariant::Oblivious => 2,
        });
    }
}

impl Restore for BoostVariant {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(BoostVariant::Exact),
            1 => Ok(BoostVariant::Histogram),
            2 => Ok(BoostVariant::Oblivious),
            tag => Err(PersistError::Malformed(format!(
                "unknown boosting variant tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for GbdtConfig {
    fn snapshot(&self, w: &mut Writer) {
        self.variant.snapshot(w);
        w.put_usize(self.n_rounds);
        w.put_f64(self.learning_rate);
        w.put_usize(self.max_depth);
        w.put_usize(self.max_leaves);
        w.put_f64(self.lambda);
        w.put_f64(self.gamma);
        w.put_f64(self.min_child_weight);
        w.put_f64(self.subsample);
        w.put_f64(self.colsample);
        w.put_usize(self.n_bins);
        w.put_u64(self.seed);
    }
}

impl Restore for GbdtConfig {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(GbdtConfig {
            variant: BoostVariant::restore(r)?,
            n_rounds: r.take_usize()?,
            learning_rate: r.take_f64()?,
            max_depth: r.take_usize()?,
            max_leaves: r.take_usize()?,
            lambda: r.take_f64()?,
            gamma: r.take_f64()?,
            min_child_weight: r.take_f64()?,
            subsample: r.take_f64()?,
            colsample: r.take_f64()?,
            n_bins: r.take_usize()?,
            seed: r.take_u64()?,
        })
    }
}

impl Snapshot for RegNode {
    fn snapshot(&self, w: &mut Writer) {
        match *self {
            RegNode::Leaf { weight } => {
                w.put_u8(0);
                w.put_f64(weight);
            }
            RegNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                w.put_u8(1);
                w.put_usize(feature);
                w.put_f64(threshold);
                w.put_usize(left);
                w.put_usize(right);
            }
        }
    }
}

impl Restore for RegNode {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(RegNode::Leaf {
                weight: r.take_f64()?,
            }),
            1 => Ok(RegNode::Split {
                feature: r.take_usize()?,
                threshold: r.take_f64()?,
                left: r.take_usize()?,
                right: r.take_usize()?,
            }),
            tag => Err(PersistError::Malformed(format!(
                "unknown boost-node tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for BoostTree {
    fn snapshot(&self, w: &mut Writer) {
        match self {
            BoostTree::Reg(t) => {
                w.put_u8(0);
                t.nodes.snapshot(w);
            }
            BoostTree::Oblivious(t) => {
                w.put_u8(1);
                w.put_usize(t.conditions.len());
                for &(feature, threshold) in &t.conditions {
                    w.put_usize(feature);
                    w.put_f64(threshold);
                }
                t.leaf_weights.snapshot(w);
            }
        }
    }
}

impl Restore for BoostTree {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => {
                let nodes: Vec<RegNode> = Vec::restore(r)?;
                for (i, node) in nodes.iter().enumerate() {
                    // The boosted score sums leaf weights; a NaN or ±inf
                    // one turns it into NaN.
                    if let RegNode::Leaf { weight } = *node {
                        if !parameter_in_range(weight) {
                            return Err(PersistError::Malformed(format!(
                                "boost node {i} has leaf `weight` {weight}, not a number within ±{MAX_PARAMETER:e}"
                            )));
                        }
                    }
                    if let RegNode::Split {
                        threshold,
                        left,
                        right,
                        ..
                    } = *node
                    {
                        // Forward-only children (builders push parents
                        // first), so a crafted cyclic tree cannot hang
                        // `predict_row`.
                        if left >= nodes.len() || right >= nodes.len() || left <= i || right <= i {
                            return Err(PersistError::Malformed(format!(
                                "boost node {i} has invalid children ({left}/{right} of {})",
                                nodes.len()
                            )));
                        }
                        // Builders split on finite midpoints, and the
                        // quantized mirror bins on the thresholds.
                        if !threshold.is_finite() {
                            return Err(PersistError::Malformed(format!(
                                "boost node {i} splits at non-finite threshold {threshold}"
                            )));
                        }
                    }
                }
                Ok(BoostTree::Reg(RegTree { nodes }))
            }
            1 => {
                let n_conditions = r.take_len(16)?; // 8-byte feature + 8-byte threshold each
                let mut conditions = Vec::with_capacity(n_conditions);
                for level in 0..n_conditions {
                    let feature = r.take_usize()?;
                    let threshold = r.take_f64()?;
                    if !threshold.is_finite() {
                        return Err(PersistError::Malformed(format!(
                            "oblivious level {level} splits at non-finite threshold {threshold}"
                        )));
                    }
                    conditions.push((feature, threshold));
                }
                let leaf_weights: Vec<f64> = Vec::restore(r)?;
                check_parameters("leaf_weights", &leaf_weights)?;
                // predict_row indexes leaves by the condition bit-vector, so
                // the weight table must cover all 2^levels indices.
                let expected = 1usize.checked_shl(conditions.len() as u32).ok_or_else(|| {
                    PersistError::Malformed(format!(
                        "oblivious tree with {} levels overflows",
                        conditions.len()
                    ))
                })?;
                if leaf_weights.len() != expected {
                    return Err(PersistError::Malformed(format!(
                        "oblivious tree with {} levels needs {expected} leaves, has {}",
                        conditions.len(),
                        leaf_weights.len()
                    )));
                }
                Ok(BoostTree::Oblivious(ObliviousTree {
                    conditions,
                    leaf_weights,
                }))
            }
            tag => Err(PersistError::Malformed(format!(
                "unknown boost-tree tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for GradientBoosting {
    fn snapshot(&self, w: &mut Writer) {
        self.config.snapshot(w);
        w.put_f64(self.base_score);
        self.trees.snapshot(w);
    }
}

impl Restore for GradientBoosting {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = GbdtConfig::restore(r)?;
        let base_score = r.take_f64()?;
        check_parameter("base_score", base_score)?;
        let mut model = GradientBoosting {
            config,
            base_score,
            trees: Vec::restore(r)?,
            quant: None,
        };
        model.rebuild_quant();
        Ok(model)
    }
}

/// Depth-wise exact greedy tree (XGBoost-style).
fn build_exact(
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    cols: &[usize],
    cfg: &GbdtConfig,
) -> RegTree {
    let mut tree = RegTree { nodes: Vec::new() };
    let mut indices = rows.to_vec();
    build_exact_node(x, grad, hess, &mut indices, cols, cfg, 0, &mut tree);
    tree
}

#[allow(clippy::too_many_arguments)]
fn build_exact_node(
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    indices: &mut [usize],
    cols: &[usize],
    cfg: &GbdtConfig,
    depth: usize,
    tree: &mut RegTree,
) -> usize {
    let g: f64 = indices.iter().map(|&i| grad[i]).sum();
    let h: f64 = indices.iter().map(|&i| hess[i]).sum();
    let leaf_weight = -g / (h + cfg.lambda) * cfg.learning_rate;

    if depth >= cfg.max_depth || indices.len() < 2 {
        tree.nodes.push(RegNode::Leaf {
            weight: leaf_weight,
        });
        return tree.nodes.len() - 1;
    }

    // Exact greedy split over sorted raw values.
    let mut best: Option<(f64, usize, f64)> = None;
    let mut pairs: Vec<(f64, f64, f64)> = Vec::with_capacity(indices.len());
    for &f in cols {
        pairs.clear();
        pairs.extend(indices.iter().map(|&i| (x[(i, f)], grad[i], hess[i])));
        pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
        let mut gl = 0.0;
        let mut hl = 0.0;
        for k in 0..pairs.len() - 1 {
            gl += pairs[k].1;
            hl += pairs[k].2;
            if pairs[k].0 == pairs[k + 1].0 {
                continue;
            }
            let (gr, hr) = (g - gl, h - hl);
            if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                continue;
            }
            let gain = split_gain(gl, hl, gr, hr, cfg.lambda);
            if gain > cfg.gamma && best.is_none_or(|(bg, _, _)| gain > bg) {
                best = Some((gain, f, 0.5 * (pairs[k].0 + pairs[k + 1].0)));
            }
        }
    }

    let Some((_, feature, threshold)) = best else {
        tree.nodes.push(RegNode::Leaf {
            weight: leaf_weight,
        });
        return tree.nodes.len() - 1;
    };

    let mut split_point = 0;
    for i in 0..indices.len() {
        if x[(indices[i], feature)] <= threshold {
            indices.swap(i, split_point);
            split_point += 1;
        }
    }
    let node_id = tree.nodes.len();
    tree.nodes.push(RegNode::Split {
        feature,
        threshold,
        left: usize::MAX,
        right: usize::MAX,
    });
    let (li, ri) = indices.split_at_mut(split_point);
    let left = build_exact_node(x, grad, hess, li, cols, cfg, depth + 1, tree);
    let right = build_exact_node(x, grad, hess, ri, cols, cfg, depth + 1, tree);
    if let RegNode::Split {
        left: l, right: r, ..
    } = &mut tree.nodes[node_id]
    {
        *l = left;
        *r = right;
    }
    node_id
}

/// Best-first (leaf-wise) histogram tree (LightGBM-style).
fn build_histogram(
    binned: &[Vec<u16>],
    binning: &Binning,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    cols: &[usize],
    cfg: &GbdtConfig,
) -> RegTree {
    struct Candidate {
        indices: Vec<usize>,
        gain: f64,
        feature: usize,
        bin: usize,
        node_id: usize,
    }

    /// Best (gain, feature, bin) for one leaf, from per-bin histograms.
    fn best_for(
        binned: &[Vec<u16>],
        binning: &Binning,
        grad: &[f64],
        hess: &[f64],
        indices: &[usize],
        cols: &[usize],
        cfg: &GbdtConfig,
    ) -> Option<(f64, usize, usize)> {
        let g: f64 = indices.iter().map(|&i| grad[i]).sum();
        let h: f64 = indices.iter().map(|&i| hess[i]).sum();
        let mut best: Option<(f64, usize, usize)> = None;
        for &f in cols {
            let nb = binning.n_bins(f);
            if nb < 2 {
                continue;
            }
            let mut hist_g = vec![0.0; nb];
            let mut hist_h = vec![0.0; nb];
            for &i in indices {
                let b = binned[i][f] as usize;
                hist_g[b] += grad[i];
                hist_h[b] += hess[i];
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            for b in 0..nb - 1 {
                gl += hist_g[b];
                hl += hist_h[b];
                let (gr, hr) = (g - gl, h - hl);
                if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                    continue;
                }
                let gain = split_gain(gl, hl, gr, hr, cfg.lambda);
                if gain > cfg.gamma && best.is_none_or(|(bg, _, _)| gain > bg) {
                    best = Some((gain, f, b));
                }
            }
        }
        best
    }

    let mut tree = RegTree { nodes: Vec::new() };
    let leaf_weight = |idx: &[usize]| {
        let g: f64 = idx.iter().map(|&i| grad[i]).sum();
        let h: f64 = idx.iter().map(|&i| hess[i]).sum();
        -g / (h + cfg.lambda) * cfg.learning_rate
    };

    tree.nodes.push(RegNode::Leaf {
        weight: leaf_weight(rows),
    });
    let mut frontier: Vec<Candidate> = Vec::new();
    if let Some((gain, feature, bin)) = best_for(binned, binning, grad, hess, rows, cols, cfg) {
        frontier.push(Candidate {
            indices: rows.to_vec(),
            gain,
            feature,
            bin,
            node_id: 0,
        });
    }
    let mut n_leaves = 1;

    while n_leaves < cfg.max_leaves && !frontier.is_empty() {
        // Pop the highest-gain candidate (leaf-wise growth).
        let best_idx = frontier
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.gain.partial_cmp(&b.1.gain).expect("finite gains"))
            .map(|(i, _)| i)
            .expect("frontier not empty");
        let cand = frontier.swap_remove(best_idx);

        let threshold = binning.threshold(cand.feature, cand.bin);
        let (li, ri): (Vec<usize>, Vec<usize>) = cand
            .indices
            .iter()
            .partition(|&&i| (binned[i][cand.feature] as usize) <= cand.bin);
        debug_assert!(!li.is_empty() && !ri.is_empty());

        let left_id = tree.nodes.len();
        tree.nodes.push(RegNode::Leaf {
            weight: leaf_weight(&li),
        });
        let right_id = tree.nodes.len();
        tree.nodes.push(RegNode::Leaf {
            weight: leaf_weight(&ri),
        });
        tree.nodes[cand.node_id] = RegNode::Split {
            feature: cand.feature,
            threshold,
            left: left_id,
            right: right_id,
        };
        n_leaves += 1;

        for (idx, node_id) in [(li, left_id), (ri, right_id)] {
            if let Some((gain, feature, bin)) =
                best_for(binned, binning, grad, hess, &idx, cols, cfg)
            {
                frontier.push(Candidate {
                    indices: idx,
                    gain,
                    feature,
                    bin,
                    node_id,
                });
            }
        }
    }
    tree
}

/// Symmetric/oblivious tree (CatBoost-style): one condition per level shared
/// by every node at that level.
fn build_oblivious(
    binned: &[Vec<u16>],
    binning: &Binning,
    grad: &[f64],
    hess: &[f64],
    rows: &[usize],
    cols: &[usize],
    cfg: &GbdtConfig,
) -> ObliviousTree {
    // leaf_of[i] = current leaf index of sample rows[i].
    let mut leaf_of = vec![0usize; rows.len()];
    let mut conditions: Vec<(usize, f64)> = Vec::new();

    for level in 0..cfg.max_depth {
        let n_leaves = 1 << level;
        // For every (feature, bin), gain summed across all current leaves.
        let mut best: Option<(f64, usize, usize)> = None;
        for &f in cols {
            let nb = binning.n_bins(f);
            if nb < 2 {
                continue;
            }
            // Per-leaf per-bin histograms.
            let mut hist_g = vec![0.0; n_leaves * nb];
            let mut hist_h = vec![0.0; n_leaves * nb];
            let mut leaf_g = vec![0.0; n_leaves];
            let mut leaf_h = vec![0.0; n_leaves];
            for (k, &i) in rows.iter().enumerate() {
                let leaf = leaf_of[k];
                let b = binned[i][f] as usize;
                hist_g[leaf * nb + b] += grad[i];
                hist_h[leaf * nb + b] += hess[i];
                leaf_g[leaf] += grad[i];
                leaf_h[leaf] += hess[i];
            }
            // Scan bins; total gain = Σ_leaf gain(leaf split at bin).
            let mut gl = vec![0.0; n_leaves];
            let mut hl = vec![0.0; n_leaves];
            for b in 0..nb - 1 {
                let mut total_gain = 0.0;
                let mut valid = false;
                for leaf in 0..n_leaves {
                    gl[leaf] += hist_g[leaf * nb + b];
                    hl[leaf] += hist_h[leaf * nb + b];
                    let (gr, hr) = (leaf_g[leaf] - gl[leaf], leaf_h[leaf] - hl[leaf]);
                    if hl[leaf] >= cfg.min_child_weight && hr >= cfg.min_child_weight {
                        total_gain += split_gain(gl[leaf], hl[leaf], gr, hr, cfg.lambda);
                        valid = true;
                    }
                }
                if valid && total_gain > cfg.gamma && best.is_none_or(|(bg, _, _)| total_gain > bg)
                {
                    best = Some((total_gain, f, b));
                }
            }
        }

        let Some((_, feature, bin)) = best else { break };
        let threshold = binning.threshold(feature, bin);
        conditions.push((feature, threshold));
        for (k, &i) in rows.iter().enumerate() {
            if (binned[i][feature] as usize) > bin {
                leaf_of[k] |= 1 << level;
            }
        }
    }

    // Leaf weights from accumulated statistics.
    let n_leaves = 1 << conditions.len();
    let mut leaf_g = vec![0.0; n_leaves];
    let mut leaf_h = vec![0.0; n_leaves];
    for (k, &i) in rows.iter().enumerate() {
        // leaf_of bits beyond the realized depth are zero by construction.
        leaf_g[leaf_of[k] & (n_leaves - 1)] += grad[i];
        leaf_h[leaf_of[k] & (n_leaves - 1)] += hess[i];
    }
    let leaf_weights = leaf_g
        .iter()
        .zip(&leaf_h)
        .map(|(g, h)| -g / (h + cfg.lambda) * cfg.learning_rate)
        .collect();

    ObliviousTree {
        conditions,
        leaf_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let c = if label == 0 { -1.0 } else { 1.0 };
            rows.push(vec![c + rng.normal() * 0.8, c + rng.normal() * 0.8]);
            y.push(label);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn snapshot_round_trip_per_variant_is_bit_identical() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = blobs(60, 31);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut model = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 12,
                ..GbdtConfig::default()
            });
            model.fit(&x, &y);
            let bytes = to_envelope("gbdt", &model);
            let back: GradientBoosting = from_envelope("gbdt", &bytes).expect("round-trips");
            assert_eq!(back.config(), model.config());
            let (a, b) = (model.predict_proba(&x), back.predict_proba(&x));
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{variant:?}"
            );
        }
    }

    fn xor(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix::new(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.unit() > 0.5;
            let b = rng.unit() > 0.5;
            rows.push(vec![
                if a { 1.0 } else { 0.0 } + rng.normal() * 0.1,
                if b { 1.0 } else { 0.0 } + rng.normal() * 0.1,
            ]);
            y.push(usize::from(a ^ b));
        }
        (Matrix::from_rows(&rows), y)
    }

    fn accuracy(model: &mut GradientBoosting, x: &Matrix, y: &[usize]) -> f64 {
        model.fit(x, y);
        let correct = model
            .predict(x)
            .iter()
            .zip(y)
            .filter(|(a, b)| a == b)
            .count();
        correct as f64 / y.len() as f64
    }

    #[test]
    fn exact_learns_blobs() {
        let (x, y) = blobs(200, 1);
        let mut m = GradientBoosting::with_variant(BoostVariant::Exact);
        assert!(accuracy(&mut m, &x, &y) > 0.9);
    }

    #[test]
    fn histogram_learns_blobs() {
        let (x, y) = blobs(200, 2);
        let mut m = GradientBoosting::with_variant(BoostVariant::Histogram);
        assert!(accuracy(&mut m, &x, &y) > 0.9);
    }

    #[test]
    fn oblivious_learns_blobs() {
        let (x, y) = blobs(200, 3);
        let mut m = GradientBoosting::with_variant(BoostVariant::Oblivious);
        assert!(accuracy(&mut m, &x, &y) > 0.9);
    }

    #[test]
    fn all_variants_learn_xor() {
        // XOR requires depth >= 2 interactions — a real tree-learner test.
        for (variant, seed) in [
            (BoostVariant::Exact, 10),
            (BoostVariant::Histogram, 11),
            (BoostVariant::Oblivious, 12),
        ] {
            let (x, y) = xor(300, seed);
            let mut m = GradientBoosting::with_variant(variant);
            let acc = accuracy(&mut m, &x, &y);
            assert!(acc > 0.95, "{variant:?} only reached {acc}");
        }
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let (x, y) = xor(300, 20);
        let (xt, yt) = xor(150, 21);
        let mut m = GradientBoosting::with_variant(BoostVariant::Histogram);
        m.fit(&x, &y);
        let correct = m
            .predict(&xt)
            .iter()
            .zip(&yt)
            .filter(|(a, b)| a == b)
            .count();
        assert!(correct as f64 / yt.len() as f64 > 0.9);
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = blobs(100, 5);
        let mut a = GradientBoosting::with_variant(BoostVariant::Exact);
        let mut b = GradientBoosting::with_variant(BoostVariant::Exact);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn base_score_matches_class_prior() {
        // With zero rounds, predictions equal the class prior.
        let (x, _) = blobs(100, 6);
        let y: Vec<usize> = (0..100).map(|i| usize::from(i < 25)).collect();
        let mut m = GradientBoosting::new(GbdtConfig {
            n_rounds: 0,
            ..Default::default()
        });
        m.fit(&x, &y);
        for p in m.predict_proba(&x) {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = blobs(300, 7);
        let mut m = GradientBoosting::new(GbdtConfig {
            variant: BoostVariant::Histogram,
            subsample: 0.7,
            colsample: 0.5,
            ..Default::default()
        });
        assert!(accuracy(&mut m, &x, &y) > 0.85);
    }

    #[test]
    fn n_trees_equals_rounds() {
        let (x, y) = blobs(60, 8);
        let mut m = GradientBoosting::new(GbdtConfig {
            n_rounds: 25,
            ..Default::default()
        });
        m.fit(&x, &y);
        assert_eq!(m.n_trees(), 25);
    }

    #[test]
    fn binning_thresholds_are_consistent() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0], vec![5.0]]);
        let b = Binning::fit(&x, 4);
        // Every training value must map into [0, n_bins).
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            assert!((b.bin(0, v) as usize) < b.n_bins(0));
        }
        // Monotone: larger values never get smaller bins.
        assert!(b.bin(0, 1.0) <= b.bin(0, 3.0));
        assert!(b.bin(0, 3.0) <= b.bin(0, 5.0));
        // Threshold semantics: value <= threshold(bin) iff bin(value) <= bin.
        for bin in 0..b.n_bins(0) - 1 {
            let t = b.threshold(0, bin);
            for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
                assert_eq!(
                    v <= t,
                    (b.bin(0, v) as usize) <= bin,
                    "v={v} bin={bin} t={t}"
                );
            }
        }
    }

    #[test]
    fn probabilities_bounded() {
        let (x, y) = blobs(80, 9);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::with_variant(variant);
            m.fit(&x, &y);
            for p in m.predict_proba(&x) {
                assert!((0.0..=1.0).contains(&p) && p.is_finite());
            }
        }
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn predict_proba_is_bit_identical_to_the_raw_score_walk_per_variant() {
        let (x, y) = blobs(150, 41);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 20,
                ..GbdtConfig::default()
            });
            m.fit(&x, &y);
            assert!(m.quant_bins().expect("quantized") >= 2, "{variant:?}");
            // Evaluate on perturbed rows, including NaN and out-of-range.
            let mut rows: Vec<Vec<f64>> = x.iter_rows().map(<[f64]>::to_vec).collect();
            for (i, row) in rows.iter_mut().enumerate() {
                if i % 9 == 0 {
                    row[i % 2] = f64::NAN;
                }
                if i % 6 == 0 {
                    row[(i + 1) % 2] = 1e12;
                }
            }
            let xe = Matrix::from_rows(&rows);
            let reference: Vec<f64> = m.raw_scores(&xe).into_iter().map(sigmoid).collect();
            let quantized = m.predict_proba(&xe);
            assert_eq!(bits(&quantized), bits(&reference), "{variant:?}");
            // Without a mirror the booster walks the trees per row, with
            // the same bits.
            m.quant = None;
            assert_eq!(bits(&m.predict_proba(&xe)), bits(&quantized), "{variant:?}");
        }
    }

    #[test]
    fn every_small_block_size_matches_the_raw_score_walk_per_variant() {
        // 37 rounds: two full 16-tree groups plus a 5-tree remainder for the
        // tree-lockstep walk. Block sizes 1–40 cover leftover rows alone,
        // one full row group with and without leftovers, and two.
        let (x, y) = blobs(150, 43);
        let (eval, _) = blobs(80, 44);
        let mut rows: Vec<Vec<f64>> = eval.iter_rows().map(<[f64]>::to_vec).collect();
        for (i, row) in rows.iter_mut().enumerate() {
            if i % 7 == 0 {
                row[i % 2] = f64::NAN;
            }
            if i % 5 == 0 {
                row[(i + 1) % 2] = if i % 2 == 0 { 1e9 } else { -1e9 };
            }
        }
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 37,
                ..GbdtConfig::default()
            });
            m.fit(&x, &y);
            assert!(m.quant.is_some(), "{variant:?}");
            for b in 1..=40 {
                let block = Matrix::from_rows(&rows[b..2 * b]);
                let reference: Vec<f64> = m.raw_scores(&block).into_iter().map(sigmoid).collect();
                assert_eq!(
                    bits(&m.predict_proba(&block)),
                    bits(&reference),
                    "{variant:?}, block of {b} rows"
                );
            }
        }
    }

    #[test]
    fn out_of_range_leaf_weights_and_base_score_are_rejected_at_restore_per_variant() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = blobs(40, 46);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 3,
                ..GbdtConfig::default()
            });
            m.fit(&x, &y);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
                let mut leaf = m.clone();
                let (weight, field) = match &mut leaf.trees[0] {
                    BoostTree::Reg(t) => (
                        t.nodes.iter_mut().find_map(|node| match node {
                            RegNode::Leaf { weight } => Some(weight),
                            RegNode::Split { .. } => None,
                        }),
                        "leaf `weight`",
                    ),
                    BoostTree::Oblivious(t) => (t.leaf_weights.first_mut(), "leaf_weights"),
                };
                *weight.expect("the first tree has a leaf") = bad;
                let mut base = m.clone();
                base.base_score = bad;
                for (edited, field) in [(leaf, field), (base, "base_score")] {
                    let bytes = to_envelope("gbdt", &edited);
                    match from_envelope::<GradientBoosting>("gbdt", &bytes) {
                        Err(PersistError::Malformed(msg)) => {
                            assert!(msg.contains(field), "{variant:?} {bad}: {msg}")
                        }
                        other => panic!("{variant:?} {bad}: expected Malformed, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_split_threshold_is_rejected_at_restore_per_variant() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = blobs(40, 45);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 3,
                ..GbdtConfig::default()
            });
            m.fit(&x, &y);
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut edited = m.clone();
                let threshold = match &mut edited.trees[0] {
                    BoostTree::Reg(t) => t.nodes.iter_mut().find_map(|node| match node {
                        RegNode::Split { threshold, .. } => Some(threshold),
                        RegNode::Leaf { .. } => None,
                    }),
                    BoostTree::Oblivious(t) => t.conditions.first_mut().map(|(_, t)| t),
                };
                *threshold.expect("the first tree splits") = bad;
                let bytes = to_envelope("gbdt", &edited);
                match from_envelope::<GradientBoosting>("gbdt", &bytes) {
                    Err(PersistError::Malformed(msg)) => {
                        assert!(
                            msg.contains("non-finite threshold"),
                            "{variant:?} {bad}: {msg}"
                        )
                    }
                    other => panic!("{variant:?} {bad}: expected Malformed, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn restored_booster_rebuilds_the_quantized_mirror() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = blobs(60, 42);
        for variant in [
            BoostVariant::Exact,
            BoostVariant::Histogram,
            BoostVariant::Oblivious,
        ] {
            let mut m = GradientBoosting::new(GbdtConfig {
                variant,
                n_rounds: 8,
                ..GbdtConfig::default()
            });
            m.fit(&x, &y);
            let bytes = to_envelope("gbdt", &m);
            let back: GradientBoosting = from_envelope("gbdt", &bytes).expect("round-trips");
            assert_eq!(back.quant_bins(), m.quant_bins(), "{variant:?}");
            assert!(back.quant.is_some(), "{variant:?}");
            assert_eq!(
                bits(&back.predict_proba(&x)),
                bits(&m.predict_proba(&x)),
                "{variant:?}"
            );
        }
    }
}
