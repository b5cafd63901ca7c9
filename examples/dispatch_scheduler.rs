//! Dispatch scheduler: the paper's motivating application (§I).
//!
//! "If one could predict how many passengers need the ride service in a
//! certain area … it is possible to balance the supply-demands in
//! advance by dispatching the cars."
//!
//! This example trains a DeepSD model, then plays a greedy pre-dispatch
//! policy over a test day: every 10 minutes it sends `K` standby drivers
//! to the areas with the highest *predicted* gap, and measures how much
//! of the realised gap those drivers would have absorbed — compared to
//! an oracle (perfect foresight) and a uniform policy.
//!
//! Run with: `cargo run --release --example dispatch_scheduler`

use deepsd::trainer::{predict_items, train};
use deepsd::{DeepSD, ModelConfig, TrainOptions};
use deepsd_features::{
    test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemKey, ItemSource,
};
use deepsd_simdata::{CityConfig, SimConfig, SimDataset};

/// Standby drivers dispatched per 10-minute round.
const STANDBY_PER_ROUND: f32 = 12.0;

fn main() {
    let sim = SimConfig {
        city: CityConfig {
            n_areas: 12,
            seed: 7,
        },
        n_days: 25,
        ..SimConfig::smoke(7)
    };
    let dataset = SimDataset::generate(&sim);
    let fcfg = FeatureConfig {
        window_l: 12,
        history_window: 4,
        train_stride: 10,
        ..FeatureConfig::default()
    };
    let mut fx = FeatureExtractor::new(&dataset, fcfg.clone());
    let n_areas = dataset.n_areas() as u16;

    // Train on weeks 2–3, evaluate the policy on day 22.
    let train_ks = train_keys(n_areas, 7..21, &fcfg);
    let eval_items = fx.extract_all(&test_keys(n_areas, 21..23, &fcfg));
    let mut cfg = ModelConfig::basic(dataset.n_areas());
    cfg.window_l = fcfg.window_l;
    cfg.dropout = 0.3;
    let mut model = DeepSD::new(cfg);
    println!(
        "training dispatcher model ({} params)…",
        model.num_parameters()
    );
    let report = train(
        &mut model,
        &mut fx,
        &train_ks,
        &eval_items,
        &TrainOptions {
            epochs: 5,
            best_k: 3,
            ..TrainOptions::default()
        },
    );
    println!(
        "model test MAE {:.2}, RMSE {:.2}\n",
        report.final_mae, report.final_rmse
    );

    // Play the policy across day 22, rounds every 10 minutes 7:00–23:00.
    let day = 22u16;
    let rounds: Vec<u16> = (42..138).map(|i| i * 10).collect();
    let mut covered_model = 0.0f32;
    let mut covered_oracle = 0.0f32;
    let mut covered_uniform = 0.0f32;
    let mut total_gap = 0.0f32;

    for &t in &rounds {
        let keys: Vec<ItemKey> = (0..n_areas).map(|area| ItemKey { area, day, t }).collect();
        let items = fx.extract_all(&keys);
        let pred = predict_items(&model, &items, 64);
        let truth: Vec<f32> = items.iter().map(|i| i.gap).collect();
        total_gap += truth.iter().sum::<f32>();

        // Allocate standby drivers proportionally to a score vector; the
        // absorbed gap is min(alloc, truth) per area.
        let absorbed = |scores: &[f32]| -> f32 {
            let total: f32 = scores.iter().sum();
            if total <= 0.0 {
                return 0.0;
            }
            scores
                .iter()
                .zip(truth.iter())
                .map(|(&s, &g)| (STANDBY_PER_ROUND * s / total).min(g))
                .sum()
        };
        covered_model += absorbed(&pred);
        covered_oracle += absorbed(&truth);
        covered_uniform += absorbed(&vec![1.0; n_areas as usize]);
    }

    println!(
        "pre-dispatch simulation, day {day}, {} rounds:",
        rounds.len()
    );
    println!("  total realised gap           {total_gap:>8.0} unanswered requests");
    let pct = |v: f32| 100.0 * v / total_gap.max(1.0);
    println!(
        "  absorbed by uniform policy   {covered_uniform:>8.0} ({:.1}%)",
        pct(covered_uniform)
    );
    println!(
        "  absorbed by DeepSD policy    {covered_model:>8.0} ({:.1}%)",
        pct(covered_model)
    );
    println!(
        "  absorbed by oracle           {covered_oracle:>8.0} ({:.1}%)",
        pct(covered_oracle)
    );
    assert!(
        covered_model > covered_uniform,
        "prediction-guided dispatch must beat uniform dispatch"
    );
    println!("\nDeepSD-guided dispatch beats uniform dispatch ✓");
}
