//! Feature matrices and train/test handling.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled data set: row-major features with names, plus targets.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// One name per feature column.
    pub feature_names: Vec<String>,
    /// Feature rows; every row has `feature_names.len()` entries.
    pub features: Vec<Vec<f64>>,
    /// One target per row.
    pub targets: Vec<f64>,
}

impl Dataset {
    /// Build a data set, validating the shape.
    pub fn new(feature_names: Vec<String>, features: Vec<Vec<f64>>, targets: Vec<f64>) -> Self {
        assert_eq!(features.len(), targets.len(), "row/target count mismatch");
        for row in &features {
            assert_eq!(row.len(), feature_names.len(), "row width mismatch");
        }
        Dataset {
            feature_names,
            features,
            targets,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the data set has no rows.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Number of feature columns.
    pub fn dims(&self) -> usize {
        self.feature_names.len()
    }

    /// Shuffled train/test split: `train_frac` of the rows (rounded down)
    /// go to the first returned set. Deterministic in `seed`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_train = ((self.len() as f64) * train_frac).floor() as usize;
        let pick = |ids: &[usize]| Dataset {
            feature_names: self.feature_names.clone(),
            features: ids.iter().map(|&i| self.features[i].clone()).collect(),
            targets: ids.iter().map(|&i| self.targets[i]).collect(),
        };
        (pick(&idx[..n_train]), pick(&idx[n_train..]))
    }

    /// Cap the number of rows per target bin (the paper's ≤75-per-CF-bin
    /// filtering that flattens the label distribution, Figure 8). Rows are
    /// shuffled first so the cap keeps a random subsample.
    pub fn cap_per_bin(&self, bin_width: f64, cap: usize, seed: u64) -> Dataset {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
        let mut keep: Vec<usize> = Vec::new();
        for &i in &idx {
            let bin = (self.targets[i] / bin_width).floor() as i64;
            let c = counts.entry(bin).or_insert(0);
            if *c < cap {
                *c += 1;
                keep.push(i);
            }
        }
        keep.sort_unstable();
        Dataset {
            feature_names: self.feature_names.clone(),
            features: keep.iter().map(|&i| self.features[i].clone()).collect(),
            targets: keep.iter().map(|&i| self.targets[i]).collect(),
        }
    }

    /// Histogram of targets at `bin_width` resolution: `(bin lower edge,
    /// count)`, sorted by edge.
    pub fn target_histogram(&self, bin_width: f64) -> Vec<(f64, usize)> {
        let mut counts: std::collections::BTreeMap<i64, usize> = std::collections::BTreeMap::new();
        for &t in &self.targets {
            *counts.entry((t / bin_width).floor() as i64).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(b, c)| (b as f64 * bin_width, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
        Dataset::new(vec!["a".into(), "b".into()], xs, ys)
    }

    #[test]
    fn split_partitions_rows() {
        let ds = toy(100);
        let (tr, te) = ds.split(0.8, 7);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        // Deterministic.
        let (tr2, _) = ds.split(0.8, 7);
        assert_eq!(tr.targets, tr2.targets);
        // All rows accounted for.
        let mut all: Vec<f64> = tr.targets.iter().chain(&te.targets).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut orig = ds.targets.clone();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, orig);
    }

    #[test]
    fn cap_per_bin_flattens() {
        // 100 targets at 1.0 and 5 at 2.0.
        let mut xs = vec![vec![0.0]; 105];
        let mut ys = vec![1.0; 100];
        ys.extend(vec![2.0; 5]);
        xs.truncate(105);
        let ds = Dataset::new(vec!["x".into()], xs, ys);
        let capped = ds.cap_per_bin(0.1, 10, 3);
        let hist = capped.target_histogram(0.1);
        assert!(hist.iter().all(|&(_, c)| c <= 10));
        assert_eq!(capped.len(), 15);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn shape_validation() {
        Dataset::new(vec!["a".into()], vec![vec![1.0, 2.0]], vec![0.0]);
    }

    #[test]
    fn histogram_bins() {
        let ds = Dataset::new(
            vec!["x".into()],
            vec![vec![0.0]; 4],
            vec![0.91, 0.93, 1.01, 1.50],
        );
        let h = ds.target_histogram(0.1);
        assert_eq!(h, vec![(0.9, 2), (1.0, 1), (1.5, 1)]);
    }
}
