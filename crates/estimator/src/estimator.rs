//! The uniform CF-estimator wrapper over the four learner families.

use crate::features::{FeatureSet, ModuleFeatures};
use tms_ml::{
    metrics, Dataset, ForestConfig, LinearRegression, Mlp, MlpConfig, RandomForest, RegressionTree,
    Regressor, TreeConfig,
};
use tms_netlist::NetlistStats;
use tms_place::quick_place;
use tms_synth::pack;

/// The four estimator families of Section VI-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EstimatorKind {
    /// Ordinary least squares on nine inputs.
    LinearRegression,
    /// Shallow feed-forward network (25 hidden neurons, ReLU, Adam).
    NeuralNetwork,
    /// Single CART tree of depth 20.
    DecisionTree,
    /// 1,000-tree random forest.
    RandomForest,
}

impl EstimatorKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorKind::LinearRegression => "Linear Regression",
            EstimatorKind::NeuralNetwork => "Neural Network",
            EstimatorKind::DecisionTree => "Decision Tree",
            EstimatorKind::RandomForest => "Random Forest",
        }
    }

    /// The learner families of Table II (the linear model is reported
    /// separately in the paper's text).
    pub const TABLE2: [EstimatorKind; 3] = [
        EstimatorKind::DecisionTree,
        EstimatorKind::RandomForest,
        EstimatorKind::NeuralNetwork,
    ];
}

#[derive(serde::Serialize, serde::Deserialize)]
enum Model {
    LinReg(LinearRegression),
    Nn(Mlp),
    Tree(RegressionTree),
    Forest(RandomForest),
}

/// A trained correction-factor estimator.
///
/// Serializable: a trained estimator can be shipped to a serving process
/// via [`CfEstimator::to_json`] / [`CfEstimator::from_json`] (or the
/// file-level [`CfEstimator::save`] / [`CfEstimator::load`]), and the
/// reloaded model produces bit-identical predictions.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CfEstimator {
    kind: EstimatorKind,
    model: Model,
}

impl CfEstimator {
    /// Train an estimator of `kind` on `train`. Hyper-parameters follow the
    /// paper: depth-20 trees, 1,000-tree forest, 25 hidden neurons.
    pub fn train(kind: EstimatorKind, train: &Dataset, seed: u64) -> CfEstimator {
        let model = match kind {
            EstimatorKind::LinearRegression => Model::LinReg(LinearRegression::fit(train, 1e-8)),
            EstimatorKind::NeuralNetwork => Model::Nn(Mlp::fit(
                train,
                &MlpConfig {
                    seed,
                    ..MlpConfig::default()
                },
            )),
            EstimatorKind::DecisionTree => {
                Model::Tree(RegressionTree::fit(train, &TreeConfig::default()))
            }
            EstimatorKind::RandomForest => Model::Forest(RandomForest::fit(
                train,
                &ForestConfig {
                    seed,
                    ..ForestConfig::default()
                },
            )),
        };
        CfEstimator { kind, model }
    }

    /// Train with a reduced forest/epoch budget, for tests and benches.
    pub fn train_small(kind: EstimatorKind, train: &Dataset, seed: u64) -> CfEstimator {
        let model = match kind {
            EstimatorKind::LinearRegression => Model::LinReg(LinearRegression::fit(train, 1e-8)),
            EstimatorKind::NeuralNetwork => Model::Nn(Mlp::fit(
                train,
                &MlpConfig {
                    epochs: 120,
                    seed,
                    ..MlpConfig::default()
                },
            )),
            EstimatorKind::DecisionTree => {
                Model::Tree(RegressionTree::fit(train, &TreeConfig::default()))
            }
            EstimatorKind::RandomForest => {
                Model::Forest(RandomForest::fit(train, &ForestConfig::small(seed)))
            }
        };
        CfEstimator { kind, model }
    }

    /// Which family this estimator belongs to.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// Predict a CF for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        match &self.model {
            Model::LinReg(m) => m.predict(x),
            Model::Nn(m) => m.predict(x),
            Model::Tree(m) => m.predict(x),
            Model::Forest(m) => m.predict(x),
        }
    }

    /// Predict the CF of a module from its statistics, as the flow does:
    /// pack → quick-place → features (`set`) → model, clamped to ≥ 0.5.
    pub fn predict_cf(&self, stats: &NetlistStats, set: FeatureSet) -> f64 {
        let packing = pack(stats);
        let shape = quick_place(stats, &packing);
        let features = ModuleFeatures::extract(stats, &packing, &shape);
        self.predict(&features.select(set)).max(0.5)
    }

    /// Predict a batch.
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Mean relative error on a labelled data set (Table II metric).
    pub fn mean_relative_error(&self, data: &Dataset) -> f64 {
        metrics::mean_relative_error(&self.predict_all(&data.features), &data.targets)
    }

    /// Median absolute relative error (Section VIII metric).
    pub fn median_relative_error(&self, data: &Dataset) -> f64 {
        metrics::median_relative_error(&self.predict_all(&data.features), &data.targets)
    }

    /// Feature importances (tree and forest only).
    pub fn feature_importance(&self) -> Option<&[f64]> {
        match &self.model {
            Model::Tree(t) => Some(t.feature_importance()),
            Model::Forest(f) => Some(f.feature_importance()),
            _ => None,
        }
    }

    /// Serialize the trained model to JSON. Floating-point weights are
    /// printed in shortest-round-trip form, so a reloaded model predicts
    /// bit-identically.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("trained models are always serializable")
    }

    /// Reload a model serialized with [`CfEstimator::to_json`].
    pub fn from_json(json: &str) -> Result<CfEstimator, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Write the trained model to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load a model written by [`CfEstimator::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<CfEstimator> {
        let json = std::fs::read_to_string(path)?;
        CfEstimator::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic CF-like data: target driven by a carry ratio plus noise.
    fn cf_like(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let carry_ratio = rng.gen_range(0.0..0.8);
                let density = rng.gen_range(0.33..1.0);
                vec![carry_ratio, density, rng.gen_range(0.0..1.0)]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 0.95 + 0.5 * x[0] + 0.25 * (x[1] - 0.33) + rng.gen_range(-0.02..0.02))
            .collect();
        Dataset::new(
            vec!["Carry/All".into(), "Density".into(), "noise".into()],
            xs,
            ys,
        )
    }

    #[test]
    fn every_family_trains_and_predicts() {
        let ds = cf_like(600, 1);
        let (train, test) = ds.split(0.8, 3);
        for kind in [
            EstimatorKind::LinearRegression,
            EstimatorKind::NeuralNetwork,
            EstimatorKind::DecisionTree,
            EstimatorKind::RandomForest,
        ] {
            let est = CfEstimator::train_small(kind, &train, 5);
            let err = est.mean_relative_error(&test);
            assert!(err < 0.08, "{}: err = {err}", kind.label());
            assert_eq!(est.kind(), kind);
        }
    }

    #[test]
    fn importance_only_for_trees() {
        let ds = cf_like(300, 2);
        let tree = CfEstimator::train_small(EstimatorKind::DecisionTree, &ds, 0);
        let lin = CfEstimator::train_small(EstimatorKind::LinearRegression, &ds, 0);
        assert!(tree.feature_importance().is_some());
        assert!(lin.feature_importance().is_none());
        // The informative carry ratio dominates.
        let imp = tree.feature_importance().unwrap();
        assert!(imp[0] > 0.5, "importance = {imp:?}");
    }

    #[test]
    fn serialized_models_round_trip_bit_identically() {
        // Satellite requirement: a trained forest/NN saved to JSON and
        // reloaded must produce bit-identical predictions on the test
        // split — all four families, since the server loads any of them.
        let ds = cf_like(600, 9);
        let (train, test) = ds.split(0.8, 3);
        for kind in [
            EstimatorKind::LinearRegression,
            EstimatorKind::NeuralNetwork,
            EstimatorKind::DecisionTree,
            EstimatorKind::RandomForest,
        ] {
            let est = CfEstimator::train_small(kind, &train, 5);
            let json = est.to_json();
            let reloaded = CfEstimator::from_json(&json).expect("parse back");
            assert_eq!(reloaded.kind(), kind);
            for (x, (a, b)) in test.features.iter().zip(
                est.predict_all(&test.features)
                    .into_iter()
                    .zip(reloaded.predict_all(&test.features)),
            ) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: prediction differs after reload on {x:?}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn models_round_trip_through_disk() {
        let ds = cf_like(300, 11);
        let est = CfEstimator::train_small(EstimatorKind::RandomForest, &ds, 2);
        let path = std::env::temp_dir().join("tms_estimator_roundtrip_test.json");
        est.save(&path).expect("save");
        let reloaded = CfEstimator::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        let x = &ds.features[0];
        assert_eq!(est.predict(x).to_bits(), reloaded.predict(x).to_bits());
    }

    #[test]
    fn median_is_robust_against_mean() {
        let ds = cf_like(400, 3);
        let (train, test) = ds.split(0.8, 1);
        let est = CfEstimator::train_small(EstimatorKind::DecisionTree, &train, 0);
        let med = est.median_relative_error(&test);
        let mean = est.mean_relative_error(&test);
        assert!(med <= mean * 1.5 + 1e-9);
    }
}
