//! # deepsd-simdata — simulated car-hailing data
//!
//! The DeepSD paper is evaluated on the (no longer downloadable) Didi
//! Di-Tech competition dataset: ~11.5M car-hailing orders over 58 areas of
//! Hangzhou across 7+ weeks, plus city-wide weather and per-area traffic
//! conditions. This crate is the substitute substrate: a generative city
//! simulator that reproduces the *statistical structure* that every part
//! of the DeepSD pipeline depends on:
//!
//! * strong weekly periodicity with archetype-specific weekday/weekend
//!   patterns (Fig. 1 of the paper),
//! * heterogeneous areas whose demand curves are scaled copies of each
//!   other (the embedding-similarity analyses, Table IV / Fig. 12),
//! * per-area weekday idiosyncrasies (the learned combining weights,
//!   Fig. 15),
//! * weather- and congestion-coupled supply shortfalls (the environment
//!   blocks, Fig. 13),
//! * passenger retry behaviour after failed requests (the last-call and
//!   waiting-time blocks, §V-B).
//!
//! ## Example
//!
//! ```
//! use deepsd_simdata::{SimConfig, SimDataset};
//!
//! let ds = SimDataset::generate(&SimConfig::smoke(42));
//! assert_eq!(ds.n_areas(), 6);
//! let first_area_orders = ds.orders(0);
//! assert!(!first_area_orders.is_empty());
//! ```

#![warn(missing_docs)]
// Exact float comparisons in tests assert bit-reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod city;
pub mod codec;
pub mod dataset;
pub mod faults;
pub mod orders;
pub mod patterns;
pub mod sampling;
pub mod stream;
pub mod traffic;
pub mod types;
pub mod weather;

pub use city::{Archetype, Area, City, CityConfig};
pub use codec::{encode_dataset_v2, ChunkReader, ChunkWriter, CodecError, ReadStats};
pub use dataset::{SimConfig, SimDataset};
pub use faults::{
    blackout_windows, drop_orders, duplicate_orders, shuffle_within_slack, FaultPlan, NetFault,
    NetFaultPlan,
};
pub use orders::{OrderGenConfig, RegimeShift};
pub use stream::{AreaBlock, AreaSource, SourceError, StreamGenerator};
pub use types::{
    Order, SlotTime, TrafficObs, WeatherObs, WeatherType, MINUTES_PER_DAY, MINUTES_PER_DAY_USIZE,
};
pub use weather::WeatherConfig;
