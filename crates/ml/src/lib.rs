//! # tms-ml — from-scratch learners for the correction-factor estimator
//!
//! Section VI-B of the paper evaluates four estimator families for the
//! PBlock correction factor; this crate implements all of them with no
//! external ML dependency:
//!
//! * [`LinearRegression`] — ordinary least squares via the normal equations
//!   (with a small ridge term for numerical safety);
//! * [`Mlp`] — the paper's shallow feed-forward network: one fully connected
//!   hidden layer (25 neurons by default), ReLU activation, trained with
//!   Adam on the mean squared error;
//! * [`RegressionTree`] — a CART regression tree (depth 20 in the paper)
//!   with variance-reduction splits and impurity-based feature importance;
//! * [`RandomForest`] — 1,000 such trees over bootstrap resamples with
//!   feature subsampling, plus aggregated feature importances (the paper
//!   calls the importance analysis its most relevant output).
//!
//! [`Dataset`] carries named feature matrices, and [`metrics`] provides the
//! paper's evaluation measures (mean/median relative error, MSE).
//!
//! ```
//! use tms_ml::{Dataset, LinearRegression, Regressor};
//!
//! // y = 2·x0 + 1
//! let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i)]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 1.0).collect();
//! let ds = Dataset::new(vec!["x".into()], xs, ys);
//! let lr = LinearRegression::fit(&ds, 1e-9);
//! assert!((lr.predict(&[10.0]) - 21.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod data;
pub mod forest;
pub mod gbt;
pub mod linreg;
pub mod metrics;
pub mod nn;
pub mod tree;

pub use data::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use gbt::{GbtConfig, GradientBoost};
pub use linreg::LinearRegression;
pub use nn::{Mlp, MlpConfig};
pub use tree::{RegressionTree, TreeConfig};

/// Common prediction interface of all estimators.
pub trait Regressor {
    /// Predict the target for one feature vector.
    fn predict(&self, x: &[f64]) -> f64;

    /// Predict a batch.
    fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}
