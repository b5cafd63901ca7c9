//! # deepsd — DeepSD supply-demand prediction (ICDE 2017)
//!
//! End-to-end reproduction of *DeepSD: Supply-Demand Prediction for
//! Online Car-hailing Services using Deep Neural Networks* (Wang, Cao,
//! Li, Ye; ICDE 2017).
//!
//! The model predicts the supply-demand **gap** (unanswered car-hailing
//! orders) of a city area over the next 10 minutes, using a novel
//! block-residual network:
//!
//! * an **identity part** embedding AreaID / TimeID / WeekID,
//! * an **order part** — either the basic supply-demand block (§IV) or
//!   the advanced extended blocks (§V) that learn per-(area, weekday)
//!   softmax weights to combine weekly histories and estimate the next
//!   window's activity through a projected-deviation trick,
//! * **environment blocks** (weather, traffic) attached through
//!   residual shortcuts — attachable *after* training (fine-tuning /
//!   extendability, §V-C).
//!
//! ## Quickstart
//!
//! ```
//! use deepsd::{DeepSD, ModelConfig, TrainOptions, EnvBlocks};
//! use deepsd::trainer::{evaluate_model, train};
//! use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
//! use deepsd_simdata::{SimConfig, SimDataset};
//!
//! // Simulate a small city, build features, train a tiny basic model.
//! let ds = SimDataset::generate(&SimConfig::smoke(7));
//! let fcfg = FeatureConfig { window_l: 8, train_stride: 120, ..FeatureConfig::default() };
//! let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
//! let tr = train_keys(ds.n_areas() as u16, 7..10, &fcfg);
//! let te = test_keys(ds.n_areas() as u16, 10..12, &fcfg);
//! let eval_items = fx.extract_all(&te);
//!
//! let mut mcfg = ModelConfig::basic(ds.n_areas());
//! mcfg.window_l = fcfg.window_l;
//! mcfg.env = EnvBlocks::None;
//! let mut model = DeepSD::new(mcfg);
//! let report = train(&mut model, &mut fx, &tr, &eval_items,
//!     &TrainOptions { epochs: 1, ..TrainOptions::default() });
//! assert!(report.final_mae.is_finite());
//! ```

#![warn(missing_docs)]
// Serving-critical crate: production code must not unwrap/expect (test
// code is exempt via clippy.toml's allow-unwrap-in-tests). Exact float
// comparisons in tests assert bit-reproducibility on purpose.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod blocks;
pub mod checkpoint;
pub mod config;
pub mod continual;
pub mod metrics;
pub mod model;
pub mod serving;
pub mod telemetry;
pub mod trainer;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint, CheckpointError,
    CHECKPOINT_MAGIC,
};
pub use config::{Encoding, EnvBlocks, ModelConfig, Variant};
pub use continual::{ContinualConfig, ContinualEvent, Handoff, PromotedModel, ShadowTrainer};
pub use deepsd_nn::{
    avx2_supported, dispatch_counts, kernel_path, num_threads, set_num_threads, tuning,
    with_kernel_path, DispatchCounts, KernelPath, Tuning,
};
pub use metrics::{evaluate, mae, rmse, thresholded, try_evaluate, try_mae, try_rmse, Evaluation};
pub use model::{BlockMask, DeepSD, Ensemble, Predictor};
pub use serving::{OnlinePredictor, ServingReport};
pub use telemetry::{parse_prometheus, EpochEvent, Json, Telemetry};
pub use trainer::{train, TrainOptions, TrainReport, BATCH_SIZE};
