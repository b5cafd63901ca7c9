//! Extendability (§V-C / §VI-H): incorporate a new data source into an
//! already trained model by appending blocks and fine-tuning, instead of
//! retraining from scratch.
//!
//! Run with: `cargo run --release --example extend_with_new_data`

use deepsd::trainer::{evaluate_model, train};
use deepsd::{DeepSD, EnvBlocks, ModelConfig, TrainOptions};
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_simdata::{CityConfig, SimConfig, SimDataset};

fn main() {
    let sim = SimConfig {
        city: CityConfig {
            n_areas: 10,
            seed: 99,
        },
        n_days: 21,
        ..SimConfig::smoke(99)
    };
    let dataset = SimDataset::generate(&sim);
    let fcfg = FeatureConfig {
        window_l: 12,
        history_window: 4,
        train_stride: 10,
        ..FeatureConfig::default()
    };
    let mut fx = FeatureExtractor::new(&dataset, fcfg.clone());
    let train_ks = train_keys(dataset.n_areas() as u16, 7..14, &fcfg);
    let test_items = fx.extract_all(&test_keys(dataset.n_areas() as u16, 14..21, &fcfg));
    let opts = TrainOptions {
        epochs: 4,
        best_k: 2,
        ..TrainOptions::default()
    };

    // Stage 1: the weather/traffic feeds do not exist yet — train on
    // order data alone.
    let mut cfg = ModelConfig::advanced(dataset.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.env = EnvBlocks::None;
    cfg.dropout = 0.3;
    let mut model = DeepSD::new(cfg.clone());
    println!("stage 1: training on order data only…");
    let stage1 = train(&mut model, &mut fx, &train_ks, &test_items, &opts);
    println!(
        "stage 1 final: MAE {:.3}, RMSE {:.3}",
        stage1.final_mae, stage1.final_rmse
    );

    // Stage 2: weather and traffic feeds arrive. Append the blocks and
    // fine-tune — the trained parameters are reused as-is.
    println!("\nstage 2: appending weather + traffic blocks, fine-tuning…");
    let params_before = model.num_parameters();
    model.add_environment_blocks(EnvBlocks::WeatherTraffic);
    println!(
        "parameters: {} -> {} (+{} from the new blocks)",
        params_before,
        model.num_parameters(),
        model.num_parameters() - params_before
    );
    let first_eval = evaluate_model(&model, &test_items, 256);
    println!(
        "before any fine-tuning the model still works: MAE {:.3} (stage-1 knowledge kept)",
        first_eval.mae
    );
    let finetune = train(&mut model, &mut fx, &train_ks, &test_items, &opts);

    // Compare against retraining the full model from scratch.
    println!("\nretraining from scratch for comparison…");
    let mut fresh_cfg = cfg;
    fresh_cfg.env = EnvBlocks::WeatherTraffic;
    let mut fresh = DeepSD::new(fresh_cfg);
    let retrain = train(&mut fresh, &mut fx, &train_ks, &test_items, &opts);

    println!("\nepoch-by-epoch test RMSE:");
    println!("epoch   fine-tune   re-train");
    for (f, r) in finetune.epochs.iter().zip(retrain.epochs.iter()) {
        println!("{:>5} {:>11.3} {:>10.3}", f.epoch, f.eval_rmse, r.eval_rmse);
    }
    println!(
        "\nfine-tune first-epoch RMSE {:.3} vs re-train first-epoch RMSE {:.3}",
        finetune.epochs[0].eval_rmse, retrain.epochs[0].eval_rmse
    );
    assert!(
        finetune.epochs[0].eval_rmse < retrain.epochs[0].eval_rmse,
        "fine-tuning must start far ahead of cold re-training"
    );
    println!("fine-tuning converges from a much better starting point ✓");
}
