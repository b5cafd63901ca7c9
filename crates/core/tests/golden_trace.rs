//! Golden training trace: the smoke configuration's per-epoch MAE/RMSE
//! as exact `f64::to_bits` patterns, plus an FNV-1a digest of the
//! timing-stripped telemetry snapshot, pinned in
//! `tests/golden/smoke_trace.txt`.
//!
//! Determinism tests elsewhere compare runs with each other; this one
//! compares every run with committed numbers, so a refactor that moves
//! any result by one ulp fails here even if it does so consistently.
//! The trace must hold at 1 and 2 workers and on every kernel path the
//! host can run (scalar, lane, and AVX2 when present).
//!
//! A deliberate numeric change (a new PRNG, a new op order) updates the
//! file: the failure message prints the trace this build produced.

use deepsd::trainer::train;
use deepsd::{DeepSD, EnvBlocks, ModelConfig, Telemetry, TrainOptions};
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_nn::{clear_forced_kernel_path, force_kernel_path, KernelPath};
use deepsd_simdata::codec::fnv1a64;
use deepsd_simdata::{SimConfig, SimDataset};

const GOLDEN: &str = include_str!("golden/smoke_trace.txt");

/// Trains the smoke configuration and renders its trace.
fn smoke_trace(threads: usize) -> String {
    let ds = SimDataset::generate(&SimConfig::smoke(61));
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 7..11, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 11..13, &fcfg);
    let eval_items = fx.extract_all(&te);

    let mut mcfg = ModelConfig::basic(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let mut model = DeepSD::new(mcfg);
    let telemetry = Telemetry::new();
    let opts = TrainOptions {
        epochs: 2,
        best_k: 1,
        threads,
        telemetry: Some(telemetry.clone()),
        ..TrainOptions::default()
    };
    let report = train(&mut model, &mut fx, &tr, &eval_items, &opts);

    let mut out = String::new();
    for e in &report.epochs {
        out.push_str(&format!(
            "epoch {} mae {:016x} rmse {:016x}\n",
            e.epoch,
            e.eval_mae.to_bits(),
            e.eval_rmse.to_bits()
        ));
    }
    out.push_str(&format!(
        "snapshot fnv1a64 {:016x}\n",
        fnv1a64(telemetry.to_json_without_timings().as_bytes())
    ));
    out
}

/// The one test in this binary: forcing a kernel path is process-wide,
/// so the runs must not overlap with other tests.
#[test]
fn smoke_trace_matches_golden_on_every_path_and_worker_count() {
    let paths: Vec<KernelPath> = KernelPath::ALL
        .into_iter()
        .filter(|p| p.supported())
        .collect();
    for path in paths {
        force_kernel_path(path).expect("path supported");
        for threads in [1, 2] {
            let got = smoke_trace(threads);
            assert_eq!(
                got, GOLDEN,
                "path {path} at {threads} workers drifted from tests/golden/smoke_trace.txt; \
                 this build produced:\n{got}"
            );
        }
    }
    clear_forced_kernel_path();
}
