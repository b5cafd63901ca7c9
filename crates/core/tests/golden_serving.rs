//! Golden serving digest: a scripted, in-order observe/predict stream
//! on the smoke city goes through `OnlinePredictor`, and the FNV-1a
//! digests of every prediction's bits and of the timing-stripped
//! telemetry snapshot are pinned in `tests/golden/serving_digest.txt`.
//!
//! The script observes each minute's orders (all areas, one batch per
//! minute, as `/observe` delivers them) and predicts only at minutes
//! whose earlier orders have all been observed, so it never predicts
//! ahead of its stream. It includes predicts at `t = 1439`, whose
//! `[t + C)` history stacks reach past midnight.
//!
//! The digest must hold at 1 and 2 workers and on every kernel path
//! the host can run. A deliberate change to serving numerics updates
//! the file: the failure message prints what this build produced.

use deepsd::{DeepSD, ModelConfig, OnlinePredictor, Telemetry};
use deepsd_features::{FeatureConfig, FeatureExtractor};
use deepsd_nn::{clear_forced_kernel_path, force_kernel_path, KernelPath};
use deepsd_simdata::codec::fnv1a64;
use deepsd_simdata::{Order, SimConfig, SimDataset};

const GOLDEN: &str = include_str!("golden/serving_digest.txt");

/// Days replayed, in clock order.
const DAYS: [u16; 2] = [8, 9];
/// Minutes predicted on each replayed day (`t >= L`).
const PREDICT_AT: [u16; 7] = [8, 9, 480, 481, 737, 1200, 1439];

/// Replays the script and renders its digest.
fn serving_digest(threads: usize) -> String {
    deepsd_nn::set_num_threads(threads);
    let ds = SimDataset::generate(&SimConfig::smoke(61));
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        ..FeatureConfig::default()
    };
    let mut mcfg = ModelConfig::advanced(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    let mut model = DeepSD::new(mcfg);
    // Untrained, the model clamps most gaps to 0.0; a lifted output
    // bias keeps every prediction positive, so inputs move its bits.
    let bias = model.store().find("head.out.bias").expect("output bias");
    model.store_mut().get_mut(bias).as_mut_slice()[0] = 20.0;

    let telemetry = Telemetry::new();
    let mut predictor = OnlinePredictor::new(model, FeatureExtractor::new(&ds, fcfg));
    predictor.set_telemetry(telemetry.clone());

    let mut predictions = Vec::new();
    let mut predicts = 0usize;
    for day in DAYS {
        let mut minutes: Vec<Vec<Order>> = vec![Vec::new(); 1440];
        for area in 0..ds.n_areas() as u16 {
            for o in ds.orders(area).iter().filter(|o| o.day == day) {
                minutes[o.ts as usize].push(*o);
            }
        }
        for (minute, batch) in minutes.iter().enumerate() {
            // Every order with `ts < minute` is observed by now.
            if PREDICT_AT.contains(&(minute as u16)) {
                let report = predictor.predict_all_report(day, minute as u16);
                predictions.extend(report.predictions.iter().map(|p| p.to_bits()));
                predicts += 1;
            }
            assert!(predictor.observe_all(batch).is_clean());
        }
        // The last minute's slot, after the whole day has been observed.
        let report = predictor.predict_all_report(day, 1439);
        predictions.extend(report.predictions.iter().map(|p| p.to_bits()));
        predicts += 1;
    }
    deepsd_nn::set_num_threads(0);

    let bytes: Vec<u8> = predictions.iter().flat_map(|b| b.to_le_bytes()).collect();
    format!(
        "predicts {predicts} gaps {}\npredictions fnv1a64 {:016x}\nsnapshot fnv1a64 {:016x}\n",
        predictions.len(),
        fnv1a64(&bytes),
        fnv1a64(telemetry.to_json_without_timings().as_bytes())
    )
}

/// The one test in this binary: forcing a kernel path is process-wide,
/// so the runs must not overlap with other tests.
#[test]
fn serving_digest_matches_golden_on_every_path_and_worker_count() {
    let paths: Vec<KernelPath> = KernelPath::ALL
        .into_iter()
        .filter(|p| p.supported())
        .collect();
    for path in paths {
        force_kernel_path(path).expect("path supported");
        for threads in [1, 2] {
            let got = serving_digest(threads);
            assert_eq!(
                got, GOLDEN,
                "path {path} at {threads} workers drifted from tests/golden/serving_digest.txt; \
                 this build produced:\n{got}"
            );
        }
    }
    clear_forced_kernel_path();
}
