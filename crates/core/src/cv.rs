//! Stratified k-fold cross-validation (the paper's 10-fold × 3-run
//! evaluation protocol).

use phishinghook_ml::SplitMix;
use std::fmt;

/// One train/test index split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fold {
    /// Indices of training samples.
    pub train: Vec<usize>,
    /// Indices of test samples.
    pub test: Vec<usize>,
}

/// Why `k` stratified folds cannot be cut from a label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldError {
    /// Fewer than two folds were asked for.
    TooFew(usize),
    /// A class has fewer members than there are folds.
    ClassTooSmall {
        /// The size of the smallest non-empty class.
        samples: usize,
        /// The requested fold count.
        k: usize,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::TooFew(k) => write!(f, "k-fold needs k >= 2, got {k}"),
            FoldError::ClassTooSmall { samples, k } => {
                write!(f, "class with {samples} samples cannot fill {k} folds")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// The fold-count rule of [`stratified_kfold`]: `k` must be at least 2 and
/// at most the size of the smallest non-empty class of `labels`.
///
/// # Errors
/// The [`FoldError`] naming which bound `k` breaks.
pub fn check_folds(labels: &[usize], k: usize) -> Result<(), FoldError> {
    if k < 2 {
        return Err(FoldError::TooFew(k));
    }
    let mut sizes = vec![0usize; labels.iter().max().map_or(0, |&y| y + 1)];
    for &y in labels {
        sizes[y] += 1;
    }
    match sizes.into_iter().filter(|&n| n > 0).min() {
        Some(samples) if samples < k => Err(FoldError::ClassTooSmall { samples, k }),
        _ => Ok(()),
    }
}

/// Produces `k` stratified folds: each fold's test set preserves the class
/// balance of `labels`.
///
/// # Panics
/// Panics when [`check_folds`] refuses `k`.
pub fn stratified_kfold(labels: &[usize], k: usize, seed: u64) -> Vec<Fold> {
    if let Err(e) = check_folds(labels, k) {
        panic!("{e}");
    }
    let mut rng = SplitMix::new(seed);
    // Shuffle within each class, then deal class members round-robin.
    let mut per_class: Vec<Vec<usize>> = Vec::new();
    for (i, &y) in labels.iter().enumerate() {
        if y >= per_class.len() {
            per_class.resize_with(y + 1, Vec::new);
        }
        per_class[y].push(i);
    }
    let mut fold_of = vec![0usize; labels.len()];
    for class in &mut per_class {
        rng.shuffle(class);
        for (pos, &idx) in class.iter().enumerate() {
            fold_of[idx] = pos % k;
        }
    }
    (0..k)
        .map(|f| {
            let test: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] == f).collect();
            let train: Vec<usize> = (0..labels.len()).filter(|&i| fold_of[i] != f).collect();
            Fold { train, test }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<usize> {
        (0..n).map(|i| i % 2).collect()
    }

    #[test]
    fn folds_partition_the_dataset() {
        let y = labels(100);
        let folds = stratified_kfold(&y, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut seen = [false; 100];
        for f in &folds {
            for &i in &f.test {
                assert!(!seen[i], "index {i} in two test folds");
                seen[i] = true;
            }
            assert_eq!(f.train.len() + f.test.len(), 100);
            // Train and test are disjoint.
            for &i in &f.test {
                assert!(!f.train.contains(&i));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn folds_are_stratified() {
        // 60/40 imbalance must be preserved in every test fold.
        let y: Vec<usize> = (0..100).map(|i| usize::from(i < 40)).collect();
        for f in stratified_kfold(&y, 5, 2) {
            let positives = f.test.iter().filter(|&&i| y[i] == 1).count();
            assert_eq!(positives, 8, "test fold has {positives} positives");
            assert_eq!(f.test.len(), 20);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let y = labels(50);
        assert_eq!(stratified_kfold(&y, 5, 3), stratified_kfold(&y, 5, 3));
        assert_ne!(stratified_kfold(&y, 5, 3), stratified_kfold(&y, 5, 4));
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_many_folds_panics() {
        let y = vec![0, 0, 0, 1, 1, 1];
        let _ = stratified_kfold(&y, 4, 1);
    }

    #[test]
    fn check_folds_names_the_broken_bound() {
        let y = vec![0, 0, 0, 0, 1, 1, 1];
        assert_eq!(check_folds(&y, 0), Err(FoldError::TooFew(0)));
        assert_eq!(check_folds(&y, 1), Err(FoldError::TooFew(1)));
        assert_eq!(check_folds(&y, 2), Ok(()));
        assert_eq!(check_folds(&y, 3), Ok(()));
        assert_eq!(
            check_folds(&y, 4),
            Err(FoldError::ClassTooSmall { samples: 3, k: 4 })
        );
        assert_eq!(
            FoldError::ClassTooSmall { samples: 3, k: 4 }.to_string(),
            "class with 3 samples cannot fill 4 folds"
        );
        // Classes absent from the labels do not count.
        assert_eq!(check_folds(&[0, 0, 2, 2], 2), Ok(()));
    }

    #[test]
    fn uneven_sizes_differ_by_at_most_one() {
        let y = labels(103);
        let folds = stratified_kfold(&y, 10, 5);
        let sizes: Vec<usize> = folds.iter().map(|f| f.test.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 2, "{sizes:?}");
    }
}
