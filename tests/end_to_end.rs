//! Cross-crate integration tests: simulate → featurise → train →
//! evaluate, exercising the public APIs exactly as a downstream user
//! would.

// Exact float comparisons here assert bit-reproducibility on purpose.
#![allow(clippy::float_cmp)]

use deepsd::trainer::{evaluate_model, predict_items, train};
use deepsd::{decode_checkpoint, encode_checkpoint, DeepSD, EnvBlocks, ModelConfig, TrainOptions};
use deepsd_baselines::EmpiricalAverage;
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_simdata::{CityConfig, SimConfig, SimDataset};

fn dataset(seed: u64) -> SimDataset {
    SimDataset::generate(&SimConfig {
        city: CityConfig { n_areas: 6, seed },
        n_days: 18,
        ..SimConfig::smoke(seed)
    })
}

fn fcfg() -> FeatureConfig {
    FeatureConfig {
        window_l: 10,
        history_window: 3,
        train_stride: 30,
        ..FeatureConfig::default()
    }
}

fn quick_opts(epochs: usize) -> TrainOptions {
    TrainOptions {
        epochs,
        best_k: 2,
        ..TrainOptions::default()
    }
}

#[test]
fn trained_model_beats_empirical_average() {
    let ds = dataset(301);
    let fcfg = fcfg();
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 7..13, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 13..18, &fcfg);
    let eval_items = fx.extract_all(&te);

    let mut cfg = ModelConfig::basic(ds.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.dropout = 0.2;
    let mut model = DeepSD::new(cfg);
    let report = train(&mut model, &mut fx, &tr, &eval_items, &quick_opts(4));

    let avg = EmpiricalAverage::fit(&mut fx, &tr);
    let truth: Vec<f32> = eval_items.iter().map(|i| i.gap).collect();
    let avg_eval = deepsd::evaluate(&avg.predict_all(&te), &truth);

    assert!(
        report.final_mae < avg_eval.mae,
        "DeepSD MAE {} must beat average MAE {}",
        report.final_mae,
        avg_eval.mae
    );
}

#[test]
fn advanced_variant_trains_end_to_end() {
    let ds = dataset(302);
    let fcfg = fcfg();
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 8..12, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 13..15, &fcfg);
    let eval_items = fx.extract_all(&te);
    let mut cfg = ModelConfig::advanced(ds.n_areas());
    cfg.window_l = fcfg.window_l;
    let mut model = DeepSD::new(cfg);
    let before = evaluate_model(&model, &eval_items, 128);
    let report = train(&mut model, &mut fx, &tr, &eval_items, &quick_opts(3));
    assert!(
        report.final_rmse <= before.rmse,
        "training must not make RMSE worse"
    );
    // Combining weights are valid distributions after training.
    for area in 0..ds.n_areas() {
        for week in 0..7 {
            let p = model.combining_weights(area, week);
            let sum: f32 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }
}

#[test]
fn checkpoint_roundtrip_preserves_test_predictions() {
    let ds = dataset(303);
    let fcfg = fcfg();
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 8..11, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 13..15, &fcfg);
    let eval_items = fx.extract_all(&te);
    let mut cfg = ModelConfig::basic(ds.n_areas());
    cfg.window_l = fcfg.window_l;
    let mut model = DeepSD::new(cfg);
    let _ = train(&mut model, &mut fx, &tr, &eval_items, &quick_opts(2));

    let blob = encode_checkpoint(&model);
    let loaded = decode_checkpoint(&blob).expect("valid checkpoint");
    assert_eq!(encode_checkpoint(&loaded), blob);
    let a = predict_items(&model, &eval_items, 64);
    let b = predict_items(&loaded, &eval_items, 64);
    assert_eq!(a, b);
}

#[test]
fn finetuning_starts_ahead_of_cold_start() {
    let ds = dataset(304);
    let fcfg = fcfg();
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 7..13, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 13..17, &fcfg);
    let eval_items = fx.extract_all(&te);

    // Train without env blocks.
    let mut cfg = ModelConfig::advanced(ds.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.env = EnvBlocks::None;
    cfg.dropout = 0.2;
    let mut model = DeepSD::new(cfg.clone());
    let _ = train(&mut model, &mut fx, &tr, &eval_items, &quick_opts(4));
    let trained_eval = evaluate_model(&model, &eval_items, 128);

    // Append env blocks: the extended (untrained-blocks) model keeps its
    // stage-1 knowledge and is immediately usable.
    model.add_environment_blocks(EnvBlocks::WeatherTraffic);
    let extended_eval = evaluate_model(&model, &eval_items, 128);

    // A completely fresh full model for comparison.
    let mut fresh_cfg = cfg;
    fresh_cfg.env = EnvBlocks::WeatherTraffic;
    let fresh = DeepSD::new(fresh_cfg);
    let fresh_eval = evaluate_model(&fresh, &eval_items, 128);

    assert!(
        extended_eval.rmse < fresh_eval.rmse,
        "fine-tune start {:.3} must beat cold start {:.3}",
        extended_eval.rmse,
        fresh_eval.rmse
    );
    // Appending untrained residual blocks perturbs but must not destroy
    // the trained model.
    assert!(extended_eval.rmse < trained_eval.rmse * 2.0 + 1.0);
}

#[test]
fn deterministic_training_given_seeds() {
    let ds = dataset(305);
    let fcfg = fcfg();
    let tr = train_keys(ds.n_areas() as u16, 8..11, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 13..14, &fcfg);

    let run = || {
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let eval_items = fx.extract_all(&te);
        let mut cfg = ModelConfig::basic(ds.n_areas());
        cfg.window_l = fcfg.window_l;
        let mut model = DeepSD::new(cfg);
        let report = train(&mut model, &mut fx, &tr, &eval_items, &quick_opts(2));
        (report.final_mae, report.final_rmse)
    };
    let (mae1, rmse1) = run();
    let (mae2, rmse2) = run();
    assert_eq!(mae1, mae2);
    assert_eq!(rmse1, rmse2);
}

#[test]
fn gap_ground_truth_consistent_across_crates() {
    let ds = dataset(306);
    let fcfg = fcfg();
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    // For a handful of keys, the extractor's gap must equal a direct
    // count over the raw simulated orders.
    for day in [8u16, 12, 15] {
        for area in 0..ds.n_areas() as u16 {
            for t in [300u16, 600, 1000] {
                let key = deepsd_features::ItemKey { area, day, t };
                let manual = ds
                    .orders(area)
                    .iter()
                    .filter(|o| o.day == day && o.ts >= t && o.ts < t + 10 && !o.valid)
                    .count() as u32;
                assert_eq!(fx.gap(key), manual);
                let item = fx.extract(key);
                assert_eq!(item.gap, manual as f32);
            }
        }
    }
}
