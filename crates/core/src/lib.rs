//! # tms-core — tailored macro sizes for CNN-on-FPGA mapping
//!
//! Umbrella crate of the *tailored-macro-sizes* workspace: a complete,
//! self-contained reproduction of "Improving mapping of convolutional
//! neural networks on FPGAs through tailored macro sizes" (IPPS 2025),
//! including every substrate the paper depends on:
//!
//! * [`device`] — Zynq-7000-style column fabric model (xc7z020 / xc7z045);
//! * [`netlist`] — slice-primitive structural netlists and statistics;
//! * [`rtlgen`] — the parametrizable RTL generators of the training set;
//! * [`synth`] — slice packing (control sets, carry shapes, M-type);
//! * [`place`] — quick placement, detailed intra-PBlock placement with a
//!   congestion model, and the flat vendor-style baseline;
//! * [`timing`] — longest-path estimation;
//! * [`pblock`] — the Figure-1 PBlock generator and CF searches;
//! * [`search`] — the deterministic multi-lane search portfolio (SA +
//!   evolutionary lanes with best-result exchange);
//! * [`stitch`] — the simulated-annealing macro stitcher;
//! * [`route`] — negotiated global routing of the stitched design;
//! * [`ml`] — from-scratch linear regression, MLP, CART tree and random
//!   forest;
//! * [`estimator`] — feature sets and the learned CF estimator;
//! * [`cnn`] — the cnvW1A1 block design (175 instances, 74 uniques);
//! * [`flow`] — end-to-end flows plus one driver per paper table/figure;
//! * [`store`] — the crash-safe persistent macro library (WAL + snapshot
//!   compaction) that keeps implementations across processes;
//! * [`serve`] — the concurrent CF-estimation & pre-implementation
//!   service with its shared warm cache (optionally store-backed, so a
//!   restarted server warm-starts with zero tool runs).
//!
//! The high-level entry point is [`MacroSizingFlow`]: train a correction-
//! factor estimator once, then compile designs with estimator-tailored
//! PBlocks.
//!
//! ```no_run
//! use tms_core::{MacroSizingFlow, cnn::cnvw1a1, device::Device};
//!
//! let flow = MacroSizingFlow::new(Device::xc7z045())
//!     .with_dataset_size(400)
//!     .with_seed(7);
//! let trained = flow.train();
//! let result = flow.compile(&cnvw1a1(7), &trained);
//! println!("placed {} of {} blocks, {} tool runs",
//!          result.stitch.placed_count,
//!          result.problem.instances.len(),
//!          result.total_tool_runs);
//! ```

#![warn(missing_docs)]

pub use tms_cnn as cnn;
pub use tms_device as device;
pub use tms_estimator as estimator;
pub use tms_fault as fault;
pub use tms_flow as flow;
pub use tms_ml as ml;
pub use tms_netlist as netlist;
pub use tms_obs as obs;
pub use tms_pack as pack;
pub use tms_pblock as pblock;
pub use tms_place as place;
pub use tms_route as route;
pub use tms_rtlgen as rtlgen;
pub use tms_search as search;
pub use tms_serve as serve;
pub use tms_stitch as stitch;
pub use tms_store as store;
pub use tms_synth as synth;
pub use tms_timing as timing;
pub use tms_verify as verify;

use std::collections::HashMap;
use std::sync::Arc;
use tms_cnn::CnvDesign;
use tms_device::Device;
use tms_estimator::{
    build_dataset_observed, to_ml_dataset, CfEstimator, EstimatorKind, FeatureSet, LabelConfig,
};
use tms_flow::{run_rw_flow, CfPolicy, RwFlowConfig, RwFlowResult};
use tms_obs::Recorder;
use tms_place::PlacementModel;
use tms_rtlgen::{standard_sweep, SweepConfig};
use tms_stitch::StitchConfig;

/// A trained correction-factor estimator bound to its feature set.
pub struct TrainedEstimator {
    est: CfEstimator,
    set: FeatureSet,
}

impl TrainedEstimator {
    /// Predict the correction factor for a module netlist.
    pub fn predict(&self, netlist: &tms_netlist::Netlist) -> f64 {
        self.est.predict_cf(&netlist.stats(), self.set)
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &CfEstimator {
        &self.est
    }

    /// The feature set the estimator consumes.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Decompose into the owned estimator and its feature set — what a
    /// serving process needs to answer `estimate` requests.
    pub fn into_parts(self) -> (CfEstimator, FeatureSet) {
        (self.est, self.set)
    }

    /// Rebuild from parts (e.g. an estimator reloaded from disk). The
    /// caller must pass the feature set the model was trained on.
    pub fn from_parts(est: CfEstimator, set: FeatureSet) -> TrainedEstimator {
        TrainedEstimator { est, set }
    }
}

/// The paper's contribution as one object: train a CF estimator on a
/// generated data set, then compile block designs with tailored PBlocks.
pub struct MacroSizingFlow {
    device: Device,
    estimator_kind: EstimatorKind,
    feature_set: FeatureSet,
    dataset_size: usize,
    bin_cap: usize,
    sa_moves: u64,
    seed: u64,
    full_models: bool,
    recorder: Option<Arc<dyn Recorder>>,
}

impl MacroSizingFlow {
    /// A flow targeting `device` with the paper's defaults: a random-forest
    /// estimator on the relative ("Additional") features, trained on a
    /// 2,000-module sweep.
    pub fn new(device: Device) -> Self {
        MacroSizingFlow {
            device,
            estimator_kind: EstimatorKind::RandomForest,
            feature_set: FeatureSet::Additional,
            dataset_size: 2_000,
            bin_cap: 75,
            sa_moves: 120_000,
            seed: 2024,
            full_models: true,
            recorder: None,
        }
    }

    /// Select the estimator family.
    pub fn with_estimator(mut self, kind: EstimatorKind) -> Self {
        self.estimator_kind = kind;
        self
    }

    /// Select the feature set.
    pub fn with_feature_set(mut self, set: FeatureSet) -> Self {
        self.feature_set = set;
        self
    }

    /// Size of the generated training sweep.
    pub fn with_dataset_size(mut self, n: usize) -> Self {
        self.dataset_size = n;
        self.bin_cap = (75 * n / 2_000).max(8);
        self.full_models = n >= 1_000;
        self
    }

    /// Simulated-annealing move budget for stitching.
    pub fn with_sa_moves(mut self, moves: u64) -> Self {
        self.sa_moves = moves;
        self
    }

    /// Master seed (generators, placer jitter, SA).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Record pipeline telemetry (phase spans, flow counters) through
    /// `recorder` — e.g. an [`obs::AggregatingSink`] for in-process
    /// totals or an [`obs::JsonlSink`] for an on-disk trace the
    /// `tms report` command renders. Without this, recording is a no-op.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    fn obs(&self) -> &dyn Recorder {
        self.recorder.as_deref().unwrap_or_else(|| tms_obs::noop())
    }

    /// Generate, label and learn: the estimator-training half of the flow.
    pub fn train(&self) -> TrainedEstimator {
        let modules = standard_sweep(
            &SweepConfig {
                target_modules: self.dataset_size,
                max_luts: 5_000,
                min_luts: 2,
            },
            self.seed,
        );
        let labelled = build_dataset_observed(
            &modules,
            &self.device,
            &LabelConfig {
                seed: self.seed,
                ..LabelConfig::default()
            },
            self.obs(),
        );
        let ds =
            to_ml_dataset(&labelled, self.feature_set).cap_per_bin(0.02, self.bin_cap, self.seed);
        let est = if self.full_models {
            CfEstimator::train(self.estimator_kind, &ds, self.seed)
        } else {
            CfEstimator::train_small(self.estimator_kind, &ds, self.seed)
        };
        TrainedEstimator {
            est,
            set: self.feature_set,
        }
    }

    /// Compile a block design with estimator-guided PBlock sizing
    /// (Section VIII: predict, recover from underestimates, stitch).
    pub fn compile(&self, design: &CnvDesign, trained: &TrainedEstimator) -> RwFlowResult {
        let predictions: HashMap<String, f64> = design
            .modules
            .iter()
            .map(|m| (m.name.clone(), trained.predict(&m.netlist)))
            .collect();
        let predict = move |name: &str| predictions.get(name).copied().unwrap_or(1.0);
        let cfg = RwFlowConfig {
            policy: CfPolicy::Guided {
                predict: &predict,
                max_cf: 3.0,
            },
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig {
                max_moves: self.sa_moves,
                ..StitchConfig::standard(self.seed)
            },
            portfolio: None,
            mem_pack: tms_pack::MemPackConfig::off(),
            seed: self.seed,
            obs: self.obs(),
        };
        run_rw_flow(design, &self.device, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::cnvw1a1;

    #[test]
    fn train_and_compile_end_to_end() {
        let flow = MacroSizingFlow::new(Device::xc7z045())
            .with_dataset_size(200)
            .with_sa_moves(4_000)
            .with_seed(3);
        let trained = flow.train();
        let design = cnvw1a1(3);
        let result = flow.compile(&design, &trained);
        assert!(result.failed.is_empty(), "failed: {:?}", result.failed);
        assert_eq!(result.stitch.unplaced_count, 0);
        assert!(result.first_try_rate() > 0.2);
    }

    #[test]
    fn trained_estimator_predicts_sane_cfs() {
        let flow = MacroSizingFlow::new(Device::xc7z020())
            .with_dataset_size(200)
            .with_seed(5);
        let trained = flow.train();
        let design = cnvw1a1(5);
        for m in design.modules.iter().take(10) {
            let cf = trained.predict(&m.netlist);
            assert!((0.5..=2.5).contains(&cf), "{}: {cf}", m.name);
        }
        assert_eq!(trained.feature_set(), FeatureSet::Additional);
    }

    #[test]
    fn recorder_sees_training_and_compilation() {
        let sink = Arc::new(tms_obs::AggregatingSink::new());
        let flow = MacroSizingFlow::new(Device::xc7z045())
            .with_dataset_size(150)
            .with_sa_moves(2_000)
            .with_seed(11)
            .with_recorder(sink.clone());
        let trained = flow.train();
        assert!(sink.counter("estimator.labelled") > 0);
        let after_train = sink.phase_spans(tms_obs::Phase::Place);
        assert!(after_train > 0, "labelling emits Place spans");
        let result = flow.compile(&cnvw1a1(11), &trained);
        assert!(result.failed.is_empty(), "failed: {:?}", result.failed);
        assert_eq!(sink.phase_spans(tms_obs::Phase::Stitch), 1);
        assert!(sink.phase_spans(tms_obs::Phase::Place) > after_train);
        assert_eq!(
            sink.counter("flow.modules.implemented"),
            result.implemented.len() as u64
        );
    }

    #[test]
    fn builder_knobs_apply() {
        let flow = MacroSizingFlow::new(Device::xc7z020())
            .with_estimator(EstimatorKind::DecisionTree)
            .with_feature_set(FeatureSet::All)
            .with_dataset_size(150)
            .with_sa_moves(1_000)
            .with_seed(9);
        assert_eq!(flow.estimator_kind, EstimatorKind::DecisionTree);
        assert_eq!(flow.feature_set, FeatureSet::All);
        assert!(!flow.full_models);
    }
}
