//! # deepsd-nn — neural-network substrate for the DeepSD reproduction
//!
//! A deliberately small, dependency-light deep-learning engine built for
//! the network topology of *DeepSD: Supply-Demand Prediction for Online
//! Car-hailing Services using Deep Neural Networks* (ICDE 2017):
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices;
//! * [`tape::Tape`] — define-by-run reverse-mode autodiff over the op set
//!   DeepSD needs (affine, leaky-ReLU, embedding gather, concat, residual
//!   add, row softmax, per-sample weighted combination, dropout, MSE loss);
//! * [`layers`] — `Dense`, `Embedding`, `OneHot`, `SoftmaxLayer`;
//! * [`params::ParamStore`] — shared weight storage enabling snapshot
//!   averaging, checkpointing and fine-tuning with appended blocks;
//! * [`optim`] — Adam;
//! * [`gradcheck`] — finite-difference verification used across the test
//!   suite.
//!
//! ## Example
//!
//! ```
//! use deepsd_nn::init::seeded_rng;
//! use deepsd_nn::layers::{Activation, Dense};
//! use deepsd_nn::matrix::Matrix;
//! use deepsd_nn::optim::Adam;
//! use deepsd_nn::params::ParamStore;
//! use deepsd_nn::tape::Tape;
//!
//! let mut store = ParamStore::new();
//! let mut rng = seeded_rng(0);
//! let layer = Dense::new(&mut store, "fc", 2, 1, Activation::Linear, &mut rng);
//! let mut adam = Adam::new(0.05, 0.9, 0.999, 1e-8);
//!
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let t = Matrix::from_vec(4, 1, vec![0., 1., 1., 2.]); // y = a + b
//! for _ in 0..300 {
//!     let mut tape = Tape::new();
//!     let xi = tape.input(x.clone());
//!     let y = layer.forward(&mut tape, &store, xi);
//!     let loss = tape.mse_loss(y, &t);
//!     let grads = tape.backward(loss);
//!     adam.step(&mut store, &grads);
//! }
//! let mut tape = Tape::new();
//! let xi = tape.input(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
//! let y = layer.forward(&mut tape, &store, xi);
//! assert!((tape.value(y).get(0, 0) - 5.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]
// Exact float comparisons in tests assert bit-reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod shard;
pub mod simd;
pub mod tape;

pub use init::{seeded_rng, Init};
pub use kernels::{
    avx2_supported, clear_forced_kernel_path, dispatch_counts, force_kernel_path, kernel_path,
    matmul_nt_ref, matmul_ref, matmul_tn_ref, reset_dispatch_counts, set_tuning, tuning,
    with_kernel_path, DispatchCounts, KernelPath, Tuning, UnsupportedKernelPath,
};
pub use layers::{Activation, Dense, Embedding, OneHot, SoftmaxLayer};
pub use matrix::Matrix;
pub use optim::Adam;
pub use params::{ParamId, ParamStore, Snapshot};
pub use shard::{
    num_threads, resolve_threads, set_num_threads, share_range, ShardJob, ShardPool,
    ShardPoolStats, SHARD_ROWS,
};
pub use tape::{BackwardScratch, Grad, GradMap, NodeId, Tape};
