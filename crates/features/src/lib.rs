//! # deepsd-features — the DeepSD feature pipeline
//!
//! Implements §II and §V of the paper over any
//! [`deepsd_simdata::AreaSource`] (an in-memory
//! [`deepsd_simdata::SimDataset`], a chunked `DEEPSD-DATA2` container or
//! a chunked generator), through one extractor,
//! [`StreamingExtractor`]:
//!
//! * ground-truth supply-demand **gaps** (Definition 2),
//! * real-time **supply-demand / last-call / waiting-time vectors**
//!   (Definitions 5–7) via [`vectors`],
//! * per-weekday **historical vector stacks** feeding the advanced
//!   model's learned combining weights ([`history`], §V-A),
//! * **environment features** (weather-type ids + scalars, traffic level
//!   fractions; §IV-C),
//! * the paper's **train/test item grids** (§VI-A) and mini-batch
//!   flattening ([`items`], [`batch`]).
//!
//! [`FeatureExtractor`] is not a second extractor: it is the alias for
//! [`StreamingExtractor`] over an in-memory `&SimDataset`, which lends
//! every area without copying and is indexed whole when the extractor
//! is built.
//!
//! ## Example
//!
//! ```
//! use deepsd_features::{Batch, FeatureConfig, FeatureExtractor, ItemKey, ItemSource};
//! use deepsd_simdata::{SimConfig, SimDataset};
//!
//! let ds = SimDataset::generate(&SimConfig::smoke(1));
//! let mut fx = FeatureExtractor::new(&ds, FeatureConfig::default());
//! let item = fx.extract(ItemKey { area: 0, day: 8, t: 510 });
//! assert_eq!(item.v_sd.len(), 40); // 2L with L = 20
//! let batch = Batch::from_items(&[item]);
//! assert_eq!(batch.n, 1);
//! ```

#![warn(missing_docs)]
// Serving-critical crate: production code must not unwrap/expect (test
// code is exempt via clippy.toml's allow-unwrap-in-tests). Exact float
// comparisons in tests assert bit-reproducibility on purpose.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod batch;
pub mod config;
pub mod extract;
pub mod feeds;
pub mod history;
pub mod index;
pub mod ingest;
pub mod items;
pub mod online;
pub mod scaling;
pub mod vectors;

pub use batch::Batch;
pub use config::FeatureConfig;
pub use extract::{FeatureExtractor, ItemSource, StreamingExtractor};
pub use feeds::{FeedHealth, FeedKind, FeedState, FeedStatus, DEFAULT_MAX_STALENESS};
pub use history::{AreaHistory, VectorKind};
pub use index::AreaIndex;
pub use ingest::{
    BatchIngestReport, IngestError, IngestPolicy, IngestStats, BATCH_ERROR_SAMPLE_CAP,
};
pub use items::{test_keys, train_keys, Item, ItemKey};
pub use online::OnlineWindow;
