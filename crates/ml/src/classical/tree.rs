//! CART decision trees (Gini impurity, binary classification).
//!
//! This is the building block of the best-performing model in the paper
//! (Random Forest, 93.63% accuracy). The [`Node`] arena is a tree's only
//! state: it is what snapshots persist, what the statistics crate walks to
//! compute TreeSHAP values (the paper's Fig. 9), and what
//! [`DecisionTree::predict_row`] walks. A forest scores batches through one
//! quantized mirror shared by all of its trees, built from these arenas
//! (see [`crate::classical::forest`]).

use crate::classical::quant::{FeatureBins, QuantNodeDesc, QuantNodes};
use crate::classical::SplitMix;
use crate::matrix::Matrix;
use crate::Classifier;

/// One node of a fitted tree, indexed into [`DecisionTree::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Terminal node.
    Leaf {
        /// Probability of class 1 among training samples that reached here.
        proba: f64,
        /// Number of training samples that reached this node ("cover").
        cover: f64,
    },
    /// Internal split: `x[feature] <= threshold` goes left, else right.
    Split {
        /// Feature column index tested by this node.
        feature: usize,
        /// Split threshold (midpoint between adjacent training values).
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
        /// Number of training samples that reached this node.
        cover: f64,
    },
}

/// Hyperparameters for a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep for a split to be valid.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all features).
    /// Random forests set this to √d.
    pub max_features: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// A fitted CART classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    n_features: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree with the given hyperparameters.
    pub fn new(config: TreeConfig) -> Self {
        DecisionTree {
            config,
            nodes: Vec::new(),
            n_features: 0,
        }
    }

    /// Creates an unfitted tree with default hyperparameters.
    pub fn with_defaults() -> Self {
        Self::new(TreeConfig::default())
    }

    /// The node arena (root at index 0). Empty before fitting.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of features seen at fit time.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Tree depth (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_at(nodes: &[Node], i: usize) -> usize {
            match nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_at(nodes, left).max(depth_at(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_at(&self.nodes, 0)
        }
    }

    /// Probability of class 1 for a single feature row, walking the [`Node`]
    /// arena. This is the reference the quantized forest walk is tested
    /// against, and the fallback when a forest has no quantized mirror.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match self.nodes[i] {
                Node::Leaf { proba, .. } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    i = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Batch probabilities: [`DecisionTree::predict_row`] over every row
    /// of `x`.
    pub fn predict_proba_batch(&self, x: &Matrix) -> Vec<f64> {
        assert!(!self.nodes.is_empty(), "predict before fit");
        x.iter_rows().map(|row| self.predict_row(row)).collect()
    }

    /// Appends every split threshold into `per_feature[feature]` (the
    /// forest pools these across its trees into one shared set of bins).
    pub(crate) fn collect_split_thresholds(&self, per_feature: &mut [Vec<f64>]) {
        for node in &self.nodes {
            if let Node::Split {
                feature, threshold, ..
            } = *node
            {
                per_feature[feature].push(threshold);
            }
        }
    }

    /// Repacks this tree against the forest's shared bins (one
    /// [`FeatureBins`] over all member trees, so a batch quantizes once).
    pub(crate) fn quant_nodes(&self, bins: &FeatureBins) -> QuantNodes {
        let desc: Vec<QuantNodeDesc> = self
            .nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf { proba, .. } => QuantNodeDesc::Leaf { value: proba },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => QuantNodeDesc::Split {
                    feature,
                    threshold,
                    left,
                    right,
                },
            })
            .collect();
        QuantNodes::from_arena(&desc, bins)
    }

    /// Fits with externally chosen sample indices (used by bagging).
    pub(crate) fn fit_indices(&mut self, x: &Matrix, y: &[usize], indices: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        self.n_features = x.cols();
        self.nodes.clear();
        let mut rng = SplitMix::new(self.config.seed);
        let mut idx = indices.to_vec();
        self.build(x, y, &mut idx, 0, &mut rng);
    }

    /// Recursively builds the subtree over `indices`, returning its node id.
    fn build(
        &mut self,
        x: &Matrix,
        y: &[usize],
        indices: &mut [usize],
        depth: usize,
        rng: &mut SplitMix,
    ) -> usize {
        let n = indices.len();
        let ones: usize = indices.iter().map(|&i| y[i]).sum();
        let proba = ones as f64 / n as f64;

        let pure = ones == 0 || ones == n;
        if pure || depth >= self.config.max_depth || n < self.config.min_samples_split {
            self.nodes.push(Node::Leaf {
                proba,
                cover: n as f64,
            });
            return self.nodes.len() - 1;
        }

        let Some((feature, threshold)) = self.best_split(x, y, indices, rng) else {
            self.nodes.push(Node::Leaf {
                proba,
                cover: n as f64,
            });
            return self.nodes.len() - 1;
        };

        // Partition in place.
        let mut split_point = 0;
        for i in 0..n {
            if x[(indices[i], feature)] <= threshold {
                indices.swap(i, split_point);
                split_point += 1;
            }
        }
        debug_assert!(split_point > 0 && split_point < n);

        let node_id = self.nodes.len();
        self.nodes.push(Node::Split {
            feature,
            threshold,
            left: usize::MAX,
            right: usize::MAX,
            cover: n as f64,
        });
        let (left_idx, right_idx) = indices.split_at_mut(split_point);
        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        if let Node::Split {
            left: l, right: r, ..
        } = &mut self.nodes[node_id]
        {
            *l = left;
            *r = right;
        }
        node_id
    }

    /// Exact greedy split search: scans sorted values of a (possibly
    /// subsampled) feature set, maximizing Gini gain.
    fn best_split(
        &self,
        x: &Matrix,
        y: &[usize],
        indices: &[usize],
        rng: &mut SplitMix,
    ) -> Option<(usize, f64)> {
        let n = indices.len() as f64;
        let total_ones: usize = indices.iter().map(|&i| y[i]).sum();

        let d = x.cols();
        if d == 0 {
            return None;
        }
        let mut features: Vec<usize> = (0..d).collect();
        let n_features = self.config.max_features.unwrap_or(d).clamp(1, d);
        if n_features < d {
            rng.shuffle(&mut features);
            features.truncate(n_features);
        }

        let mut best: Option<(f64, usize, f64)> = None; // (gain_proxy, feature, threshold)
        let mut pairs: Vec<(f64, usize)> = Vec::with_capacity(indices.len());
        for &f in &features {
            pairs.clear();
            pairs.extend(indices.iter().map(|&i| (x[(i, f)], y[i])));
            pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

            let mut left_n = 0f64;
            let mut left_ones = 0f64;
            for k in 0..pairs.len() - 1 {
                left_n += 1.0;
                left_ones += pairs[k].1 as f64;
                // Only split between distinct values.
                if pairs[k].0 == pairs[k + 1].0 {
                    continue;
                }
                let right_n = n - left_n;
                if (left_n as usize) < self.config.min_samples_leaf
                    || (right_n as usize) < self.config.min_samples_leaf
                {
                    continue;
                }
                let right_ones = total_ones as f64 - left_ones;
                // Weighted Gini of children; lower is better. Use the
                // negative as the gain proxy (parent impurity is constant).
                let gini_l =
                    1.0 - (left_ones / left_n).powi(2) - ((left_n - left_ones) / left_n).powi(2);
                let gini_r = 1.0
                    - (right_ones / right_n).powi(2)
                    - ((right_n - right_ones) / right_n).powi(2);
                let score = -(left_n * gini_l + right_n * gini_r) / n;
                if best.is_none_or(|(s, _, _)| score > s) {
                    let threshold = 0.5 * (pairs[k].0 + pairs[k + 1].0);
                    best = Some((score, f, threshold));
                }
            }
        }
        // Zero-gain splits are kept (scikit-learn behaviour): on XOR-like
        // data the first split has zero Gini gain yet enables the pure
        // splits below it. Children can never be worse than the parent.
        best.map(|(_, f, t)| (f, t))
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        let indices: Vec<usize> = (0..x.rows()).collect();
        self.fit_indices(x, y, &indices);
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        self.predict_proba_batch(x)
    }

    fn name(&self) -> &'static str {
        "DecisionTree"
    }
}

// --- Persistence -----------------------------------------------------------

use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for TreeConfig {
    fn snapshot(&self, w: &mut Writer) {
        w.put_usize(self.max_depth);
        w.put_usize(self.min_samples_split);
        w.put_usize(self.min_samples_leaf);
        self.max_features.snapshot(w);
        w.put_u64(self.seed);
    }
}

impl Restore for TreeConfig {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(TreeConfig {
            max_depth: r.take_usize()?,
            min_samples_split: r.take_usize()?,
            min_samples_leaf: r.take_usize()?,
            max_features: Option::restore(r)?,
            seed: r.take_u64()?,
        })
    }
}

impl Snapshot for Node {
    fn snapshot(&self, w: &mut Writer) {
        match *self {
            Node::Leaf { proba, cover } => {
                w.put_u8(0);
                w.put_f64(proba);
                w.put_f64(cover);
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
                cover,
            } => {
                w.put_u8(1);
                w.put_usize(feature);
                w.put_f64(threshold);
                w.put_usize(left);
                w.put_usize(right);
                w.put_f64(cover);
            }
        }
    }
}

impl Restore for Node {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.take_u8()? {
            0 => Ok(Node::Leaf {
                proba: r.take_f64()?,
                cover: r.take_f64()?,
            }),
            1 => Ok(Node::Split {
                feature: r.take_usize()?,
                threshold: r.take_f64()?,
                left: r.take_usize()?,
                right: r.take_usize()?,
                cover: r.take_f64()?,
            }),
            tag => Err(PersistError::Malformed(format!(
                "unknown tree-node tag {tag:#04x}"
            ))),
        }
    }
}

impl Snapshot for DecisionTree {
    fn snapshot(&self, w: &mut Writer) {
        self.config.snapshot(w);
        w.put_usize(self.n_features);
        self.nodes.snapshot(w);
    }
}

impl Restore for DecisionTree {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let config = TreeConfig::restore(r)?;
        let n_features = r.take_usize()?;
        let nodes: Vec<Node> = Vec::restore(r)?;
        for (i, node) in nodes.iter().enumerate() {
            if let Node::Leaf { proba, .. } = *node {
                // A leaf holds its samples' class-1 share, and a forest
                // averages leaves into its probability.
                if !(0.0..=1.0).contains(&proba) {
                    return Err(PersistError::Malformed(format!(
                        "node {i} has leaf `proba` {proba}, outside [0, 1]"
                    )));
                }
            }
            if let Node::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } = *node
            {
                // The forest's packed quantized nodes store the feature as
                // a `u16`.
                if feature >= n_features || feature >= usize::from(u16::MAX) {
                    return Err(PersistError::Malformed(format!(
                        "node {i} splits on feature {feature} but the tree has {n_features}"
                    )));
                }
                // `build` splits on finite midpoints, and the forest's
                // quantized mirror bins on the thresholds.
                if !threshold.is_finite() {
                    return Err(PersistError::Malformed(format!(
                        "node {i} splits at non-finite threshold {threshold}"
                    )));
                }
                // Children must point strictly forward: `build` pushes the
                // parent before recursing, so every legitimate arena is
                // topologically ordered — and forward-only edges make
                // cycles (which would hang the walk) impossible.
                if left >= nodes.len() || right >= nodes.len() || left <= i || right <= i {
                    return Err(PersistError::Malformed(format!(
                        "node {i} has invalid children ({left}/{right} of {})",
                        nodes.len()
                    )));
                }
            }
        }
        Ok(DecisionTree {
            config,
            nodes,
            n_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_dataset() -> (Matrix, Vec<usize>) {
        // XOR is not linearly separable; a depth-2 tree solves it.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let y = vec![0, 1, 1, 0];
        (x, y)
    }

    #[test]
    fn fits_xor_exactly() {
        let (x, y) = xor_dataset();
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        assert_eq!(tree.predict(&x), y);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn a_leaf_proba_outside_the_unit_interval_is_rejected_at_restore() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let (x, y) = xor_dataset();
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let mut edited = tree.clone();
            let proba = edited
                .nodes
                .iter_mut()
                .find_map(|node| match node {
                    Node::Leaf { proba, .. } => Some(proba),
                    Node::Split { .. } => None,
                })
                .expect("a leaf");
            *proba = bad;
            match from_envelope::<DecisionTree>("tree", &to_envelope("tree", &edited)) {
                Err(PersistError::Malformed(msg)) => {
                    assert!(msg.contains("leaf `proba`"), "{bad}: {msg}")
                }
                other => panic!("{bad}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1];
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict_proba(&x), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_column_matrix_predicts_the_leaf() {
        // With no feature to split on, a mixed-label fit yields a single
        // leaf; prediction must return it once per row rather than read a
        // (nonexistent) feature column.
        let x = Matrix::zeros(4, 0);
        let y = vec![1, 0, 1, 1];
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict_proba(&x), vec![0.75; 4]);
    }

    #[test]
    fn max_depth_zero_gives_prior() {
        let (x, y) = xor_dataset();
        let mut tree = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        });
        tree.fit(&x, &y);
        assert_eq!(tree.nodes().len(), 1);
        assert_eq!(tree.predict_proba(&x), vec![0.5; 4]);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0, 0, 0, 1];
        let cfg = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let mut tree = DecisionTree::new(cfg);
        tree.fit(&x, &y);
        // The only valid splits keep >=2 on each side, so the 3-vs-1 pure
        // split is forbidden; check every leaf's cover.
        for node in tree.nodes() {
            if let Node::Leaf { cover, .. } = node {
                assert!(*cover >= 2.0);
            }
        }
    }

    #[test]
    fn duplicated_feature_values_never_split_between_equals() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0, 1, 0, 1];
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        // No split possible: constant feature.
        assert_eq!(tree.nodes().len(), 1);
    }

    #[test]
    fn covers_are_consistent() {
        let (x, y) = xor_dataset();
        let mut tree = DecisionTree::with_defaults();
        tree.fit(&x, &y);
        // Root cover equals the number of samples; each split's children sum
        // to the parent cover.
        let nodes = tree.nodes();
        let root_cover = match nodes[0] {
            Node::Leaf { cover, .. } | Node::Split { cover, .. } => cover,
        };
        assert_eq!(root_cover, 4.0);
        for node in nodes {
            if let Node::Split {
                left, right, cover, ..
            } = node
            {
                let lc = match nodes[*left] {
                    Node::Leaf { cover, .. } | Node::Split { cover, .. } => cover,
                };
                let rc = match nodes[*right] {
                    Node::Leaf { cover, .. } | Node::Split { cover, .. } => cover,
                };
                assert_eq!(lc + rc, *cover);
            }
        }
    }

    proptest! {
        #[test]
        fn training_accuracy_is_high_on_separable_data(seed in any::<u64>()) {
            // Linearly separable blobs: tree should fit (near-)perfectly.
            let mut rng = crate::classical::SplitMix::new(seed);
            let mut rows = Vec::new();
            let mut y = Vec::new();
            for i in 0..60 {
                let label = i % 2;
                let center = if label == 0 { -2.0 } else { 2.0 };
                rows.push(vec![center + rng.normal() * 0.3, center + rng.normal() * 0.3]);
                y.push(label);
            }
            let x = Matrix::from_rows(&rows);
            let mut tree = DecisionTree::with_defaults();
            tree.fit(&x, &y);
            let correct = tree
                .predict(&x)
                .iter()
                .zip(&y)
                .filter(|(a, b)| a == b)
                .count();
            prop_assert!(correct >= 58, "only {correct}/60 correct");
        }

        #[test]
        fn probabilities_are_valid(seed in any::<u64>()) {
            let mut rng = crate::classical::SplitMix::new(seed);
            let rows: Vec<Vec<f64>> =
                (0..30).map(|_| vec![rng.unit(), rng.unit()]).collect();
            let y: Vec<usize> = (0..30).map(|_| rng.below(2)).collect();
            let x = Matrix::from_rows(&rows);
            let mut tree = DecisionTree::with_defaults();
            tree.fit(&x, &y);
            for p in tree.predict_proba(&x) {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
    }
}
