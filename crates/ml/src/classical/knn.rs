//! k-nearest-neighbours classification (brute force, Euclidean metric).
//!
//! One of the paper's seven HSCs (90.60% accuracy). Histogram feature vectors
//! are short (≈ number of distinct opcodes), so brute-force search is fast
//! enough and exact.

use crate::matrix::Matrix;
use crate::Classifier;

/// A fitted k-NN model (stores the training set).
#[derive(Debug, Clone)]
pub struct KNearestNeighbors {
    /// Number of neighbours consulted per prediction.
    pub k: usize,
    train_x: Matrix,
    train_y: Vec<usize>,
}

impl KNearestNeighbors {
    /// Creates an unfitted model.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KNearestNeighbors {
            k,
            train_x: Matrix::zeros(0, 0),
            train_y: Vec::new(),
        }
    }

    /// Width of the stored training rows (0 before fit).
    pub fn n_features(&self) -> usize {
        self.train_x.cols()
    }

    fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }
}

impl Classifier for KNearestNeighbors {
    fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "x rows must match label count");
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        self.train_x = x.clone();
        self.train_y = y.to_vec();
    }

    fn predict_proba(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.train_x.rows() > 0, "predict before fit");
        let k = self.k.min(self.train_x.rows());
        x.iter_rows()
            .map(|row| {
                let mut dists: Vec<(f64, usize)> = self
                    .train_x
                    .iter_rows()
                    .zip(&self.train_y)
                    .map(|(t, &label)| (Self::squared_distance(row, t), label))
                    .collect();
                // Partial selection of the k smallest distances.
                dists.select_nth_unstable_by(k - 1, |a, b| {
                    a.0.partial_cmp(&b.0).expect("finite distances")
                });
                let ones: usize = dists[..k].iter().map(|&(_, l)| l).sum();
                ones as f64 / k as f64
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "k-NN"
    }
}

// --- Persistence -----------------------------------------------------------

use phishinghook_persist::{PersistError, Reader, Restore, Snapshot, Writer};

impl Snapshot for KNearestNeighbors {
    fn snapshot(&self, w: &mut Writer) {
        // k-NN's fitted state *is* the training set.
        w.put_usize(self.k);
        self.train_x.snapshot(w);
        self.train_y.snapshot(w);
    }
}

impl Restore for KNearestNeighbors {
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let k = r.take_usize()?;
        if k == 0 {
            return Err(PersistError::Malformed("k-NN with k = 0".to_owned()));
        }
        let train_x = Matrix::restore(r)?;
        let train_y: Vec<usize> = Vec::restore(r)?;
        if train_x.rows() != train_y.len() {
            return Err(PersistError::Malformed(format!(
                "k-NN has {} training rows but {} labels",
                train_x.rows(),
                train_y.len()
            )));
        }
        // `fit` rejects empty training sets, so no legitimate snapshot has
        // zero rows — and predicting on one would panic.
        if train_x.rows() == 0 {
            return Err(PersistError::Malformed(
                "k-NN with an empty training set".to_owned(),
            ));
        }
        // A model fitted on extracted features holds finite values and 0/1
        // labels: `predict_proba` orders distances with `partial_cmp`,
        // which a NaN breaks, and averages the labels as class-1 votes.
        for (i, row) in train_x.iter_rows().enumerate() {
            if let Some(j) = row.iter().position(|v| !v.is_finite()) {
                return Err(PersistError::Malformed(format!(
                    "k-NN training row {i} column {j} holds non-finite value {}",
                    row[j]
                )));
            }
        }
        if let Some((i, label)) = train_y.iter().enumerate().find(|(_, &l)| l > 1) {
            return Err(PersistError::Malformed(format!(
                "k-NN training row {i} has label {label}, not 0 or 1"
            )));
        }
        Ok(KNearestNeighbors {
            k,
            train_x,
            train_y,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_nn_memorizes_training_set() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![10.0, 10.0], vec![0.0, 10.0]]);
        let y = vec![0, 1, 0];
        let mut knn = KNearestNeighbors::new(1);
        knn.fit(&x, &y);
        assert_eq!(knn.predict(&x), y);
    }

    #[test]
    fn k_larger_than_train_is_clamped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![0, 1];
        let mut knn = KNearestNeighbors::new(50);
        knn.fit(&x, &y);
        assert_eq!(knn.predict_proba(&x), vec![0.5, 0.5]);
    }

    #[test]
    fn majority_vote() {
        let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![5.0]]);
        let y = vec![1, 1, 0, 0];
        let mut knn = KNearestNeighbors::new(3);
        knn.fit(&x, &y);
        // Query near the cluster of three: neighbours are labels {1,1,0}.
        let q = Matrix::from_rows(&[vec![0.05]]);
        let p = knn.predict_proba(&q);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(knn.predict(&q), vec![1]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = KNearestNeighbors::new(0);
    }

    #[test]
    fn distances_use_all_features() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 100.0]]);
        let y = vec![0, 1];
        let mut knn = KNearestNeighbors::new(1);
        knn.fit(&x, &y);
        let q = Matrix::from_rows(&[vec![0.0, 99.0]]);
        assert_eq!(knn.predict(&q), vec![1]);
    }

    #[test]
    fn non_finite_training_values_and_bad_labels_are_rejected_at_restore() {
        use phishinghook_persist::{from_envelope, to_envelope};
        let rows = [vec![0.0, 1.0], vec![2.0, 3.0], vec![4.0, 5.0]];
        let mut knn = KNearestNeighbors::new(1);
        knn.fit(&Matrix::from_rows(&rows), &[0, 1, 0]);
        // Each edit is sealed under a valid length and CRC, so it reaches
        // the decoder.
        let mut cases = Vec::new();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut edited = rows.clone();
            edited[1][1] = bad;
            let train_x = Matrix::from_rows(&edited);
            cases.push((
                KNearestNeighbors {
                    train_x,
                    ..knn.clone()
                },
                "row 1 column 1",
            ));
        }
        let train_y = vec![0, 1, 2];
        cases.push((
            KNearestNeighbors {
                train_y,
                ..knn.clone()
            },
            "row 2 has label 2",
        ));
        for (edited, want) in cases {
            match from_envelope::<KNearestNeighbors>("knn", &to_envelope("knn", &edited)) {
                Err(PersistError::Malformed(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("{want}: expected a typed Malformed error, got {other:?}"),
            }
        }
        let restored =
            from_envelope::<KNearestNeighbors>("knn", &to_envelope("knn", &knn)).expect("restores");
        assert_eq!(restored.predict(&Matrix::from_rows(&rows)), vec![0, 1, 0]);
    }
}
