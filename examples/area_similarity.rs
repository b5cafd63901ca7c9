//! Embedding-space exploration (§VI-D, Table IV / Fig. 12): after
//! training, areas whose supply-demand patterns are similar end up close
//! in the AreaID embedding space — without anyone designing a distance
//! measure.
//!
//! Run with: `cargo run --release --example area_similarity`

use deepsd::trainer::train;
use deepsd::{DeepSD, ModelConfig, TrainOptions};
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_simdata::{CityConfig, SimConfig, SimDataset};

fn main() {
    let sim = SimConfig {
        city: CityConfig {
            n_areas: 14,
            seed: 1234,
        },
        n_days: 21,
        ..SimConfig::smoke(1234)
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

    let mut cfg = ModelConfig::advanced(dataset.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.dropout = 0.3;
    let mut model = DeepSD::new(cfg);
    println!("training advanced DeepSD to shape the embedding space…");
    let report = train(
        &mut model,
        &mut fx,
        &train_ks,
        &test_items,
        &TrainOptions {
            epochs: 6,
            best_k: 3,
            ..TrainOptions::default()
        },
    );
    println!(
        "final MAE {:.3}, RMSE {:.3}\n",
        report.final_mae, report.final_rmse
    );

    // Nearest neighbour of every area in the embedding space.
    let n = dataset.n_areas();
    println!("area  archetype        scale   nearest   its archetype    distance");
    let mut same_archetype = 0usize;
    for a in 0..n {
        let mut best = (usize::MAX, f32::INFINITY);
        for b in 0..n {
            if a == b {
                continue;
            }
            let d = model.area_distance(a, b).expect("embedding encoder");
            if d < best.1 {
                best = (b, d);
            }
        }
        let area = dataset.city.area(a as u16);
        let neighbour = dataset.city.area(best.0 as u16);
        if area.archetype == neighbour.archetype {
            same_archetype += 1;
        }
        println!(
            "{:>4}  {:<15} {:>6.2}   {:>7}   {:<15} {:>8.2}",
            a,
            format!("{:?}", area.archetype),
            area.demand_scale,
            best.0,
            format!("{:?}", neighbour.archetype),
            best.1
        );
    }
    let frac = same_archetype as f64 / n as f64;
    println!(
        "\n{same_archetype}/{n} areas ({:.0}%) have a same-archetype nearest neighbour",
        frac * 100.0
    );
    println!("(random assignment would give roughly the archetype frequency, ~25-35%)");
}
