//! Quickstart: simulate a small city, train a basic DeepSD model for a
//! few epochs, and evaluate it against the empirical-average baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use deepsd::trainer::{evaluate_model, train};
use deepsd::{DeepSD, EnvBlocks, ModelConfig, TrainOptions};
use deepsd_baselines::EmpiricalAverage;
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_simdata::{CityConfig, SimConfig, SimDataset};

fn main() {
    // 1. Simulate three weeks of car-hailing activity in a 10-area city.
    let sim = SimConfig {
        city: CityConfig {
            n_areas: 10,
            seed: 42,
        },
        n_days: 21,
        ..SimConfig::smoke(42)
    };
    let dataset = SimDataset::generate(&sim);
    println!(
        "simulated {} orders, {} unanswered (the supply-demand gap)",
        dataset.total_orders(),
        dataset.total_invalid()
    );

    // 2. Build the feature pipeline (L = 12-minute look-back window).
    let fcfg = FeatureConfig {
        window_l: 12,
        history_window: 4,
        train_stride: 10,
        ..FeatureConfig::default()
    };
    let mut fx = FeatureExtractor::new(&dataset, fcfg.clone());
    let train_ks = train_keys(dataset.n_areas() as u16, 7..14, &fcfg);
    let test_ks = test_keys(dataset.n_areas() as u16, 14..21, &fcfg);
    let test_items = fx.extract_all(&test_ks);
    println!(
        "{} training items, {} test items",
        train_ks.len(),
        test_items.len()
    );

    // 3. Train a basic DeepSD model (order + weather + traffic blocks).
    let mut cfg = ModelConfig::basic(dataset.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.env = EnvBlocks::WeatherTraffic;
    cfg.dropout = 0.3;
    let mut model = DeepSD::new(cfg);
    println!("model has {} parameters", model.num_parameters());

    let report = train(
        &mut model,
        &mut fx,
        &train_ks,
        &test_items,
        &TrainOptions {
            epochs: 5,
            best_k: 3,
            ..TrainOptions::default()
        },
    );
    for e in &report.epochs {
        println!(
            "epoch {}: train loss {:.2}, test MAE {:.3}, RMSE {:.3}",
            e.epoch, e.train_loss, e.eval_mae, e.eval_rmse
        );
    }

    // 4. Compare against the empirical average baseline.
    let avg = EmpiricalAverage::fit(&mut fx, &train_ks);
    let avg_pred = avg.predict_all(&test_ks);
    let truth: Vec<f32> = test_items.iter().map(|i| i.gap).collect();
    let avg_eval = deepsd::evaluate(&avg_pred, &truth);
    let model_eval = evaluate_model(&model, &test_items, 256);

    println!("\n                MAE    RMSE");
    println!("average      {:>6.3} {:>7.3}", avg_eval.mae, avg_eval.rmse);
    println!(
        "DeepSD       {:>6.3} {:>7.3}",
        model_eval.mae, model_eval.rmse
    );
    assert!(
        model_eval.mae < avg_eval.mae,
        "even a briefly trained DeepSD should beat the empirical average"
    );
    println!("\nDeepSD beats the empirical average ✓");
}
