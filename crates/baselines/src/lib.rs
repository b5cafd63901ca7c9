//! # deepsd-baselines — the comparison methods of the DeepSD evaluation
//!
//! From-scratch implementations of every baseline in §VI-C of the paper,
//! consuming the same features as DeepSD (fair-comparison setup):
//!
//! * [`average::EmpiricalAverage`] — per `(area, timeslot)` mean gap;
//! * [`lasso::Lasso`] — ℓ1-regularised linear regression by cyclic
//!   coordinate descent (stand-in for scikit-learn's LASSO);
//! * [`gbdt::Gbdt`] — histogram gradient-boosted regression trees
//!   (stand-in for XGBoost);
//! * [`forest::RandomForest`] — bagged CART trees (stand-in for
//!   scikit-learn's RandomForestRegressor).
//!
//! ## Example
//!
//! ```
//! use deepsd_baselines::features::tree_features;
//! use deepsd_baselines::gbdt::{Gbdt, GbdtParams};
//! use deepsd_features::{train_keys, FeatureConfig, FeatureExtractor, ItemSource};
//! use deepsd_simdata::{SimConfig, SimDataset};
//!
//! let ds = SimDataset::generate(&SimConfig::smoke(3));
//! let fcfg = FeatureConfig { window_l: 6, train_stride: 240, ..FeatureConfig::default() };
//! let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
//! let keys = train_keys(ds.n_areas() as u16, 7..10, &fcfg);
//! let items = fx.extract_all(&keys);
//! let tab = tree_features(&items);
//! let model = Gbdt::fit(&tab, &GbdtParams { n_trees: 5, ..GbdtParams::default() });
//! assert_eq!(model.predict(&tab).len(), tab.n);
//! ```

#![warn(missing_docs)]
// Exact float comparisons in tests assert bit-reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod average;
pub mod binning;
pub mod features;
pub mod forest;
pub mod gbdt;
pub mod lasso;
pub mod tree;

pub use average::EmpiricalAverage;
pub use features::{lasso_features, tree_features, Tabular};
pub use forest::{ForestParams, RandomForest};
pub use gbdt::{Gbdt, GbdtParams};
pub use lasso::{Lasso, LassoParams};
pub use tree::{RegressionTree, TreeParams};
