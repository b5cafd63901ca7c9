//! Fig. 11 — prediction curves of GBDT vs Advanced DeepSD against the
//! ground truth on a dense time grid for the busiest test areas,
//! highlighting behaviour under rapid gap variations.
//!
//! Usage: `cargo run --release -p deepsd-bench --bin fig11_curves [smoke|small|paper]`

use deepsd::trainer::predict_items;
use deepsd::Variant;
use deepsd_baselines::{tree_features, Gbdt, GbdtParams};
use deepsd_bench::{Pipeline, Report, Scale};
use deepsd_features::{ItemKey, ItemSource};

fn main() {
    let scale = Scale::from_args();
    let pipeline = Pipeline::build(scale);
    let mut fx = pipeline.extractor();
    let test_items = pipeline.test_items(&mut fx);

    eprintln!("[gbdt] fitting");
    let train_items = fx.extract_all(&pipeline.train_keys);
    let gbdt = Gbdt::fit(&tree_features(&train_items), &GbdtParams::default());
    drop(train_items);

    let (advanced, _) = pipeline.train_model(
        "advanced",
        pipeline.model_config(Variant::Advanced),
        &mut fx,
        &test_items,
    );

    // Dense curve: every 10 minutes across one test day for the busiest
    // area.
    let busiest = (0..pipeline.dataset.n_areas() as u16)
        .max_by_key(|&a| pipeline.dataset.orders(a).len())
        .expect("non-empty city");
    let day = pipeline.scale.test_days.start + 2;
    let l = pipeline.scale.features.window_l as u16;
    let keys: Vec<ItemKey> = (0..144u16)
        .map(|i| i * 10)
        .filter(|&t| t >= l && t + 10 <= 1440)
        .map(|t| ItemKey {
            area: busiest,
            day,
            t,
        })
        .collect();
    let curve_items = fx.extract_all(&keys);
    let truth: Vec<f32> = curve_items.iter().map(|i| i.gap).collect();
    let adv_pred = predict_items(&advanced, &curve_items, 256);
    let gbdt_pred = gbdt.predict(&tree_features(&curve_items));

    let mut report = Report::new(
        "fig11",
        "Fig. 11: Prediction curves under rapid variations (GBDT vs Advanced DeepSD)",
    );
    report.kv("area", busiest);
    report.kv("day", day);
    report.line("  t      truth    GBDT  DeepSD");
    for (i, key) in keys.iter().enumerate() {
        report.line(format!(
            "{:02}:{:02} {:>8.1} {:>7.1} {:>7.1}",
            key.t / 60,
            key.t % 60,
            truth[i],
            gbdt_pred[i],
            adv_pred[i]
        ));
    }
    // Quantify tracking under rapid variation: error on the steepest
    // 20% of truth changes.
    let mut deltas: Vec<(usize, f32)> = truth
        .windows(2)
        .enumerate()
        .map(|(i, w)| (i + 1, (w[1] - w[0]).abs()))
        .collect();
    deltas.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let steep: Vec<usize> = deltas
        .iter()
        .take(deltas.len() / 5)
        .map(|&(i, _)| i)
        .collect();
    let err = |pred: &[f32]| -> f64 {
        steep
            .iter()
            .map(|&i| (pred[i] - truth[i]).abs() as f64)
            .sum::<f64>()
            / steep.len().max(1) as f64
    };
    report.blank();
    report.kv(
        "MAE on steepest 20% of changes (GBDT)",
        format!("{:.3}", err(&gbdt_pred)),
    );
    report.kv(
        "MAE on steepest 20% of changes (DeepSD)",
        format!("{:.3}", err(&adv_pred)),
    );
    report.line("Expected shape (paper Fig. 11): GBDT over/under-shoots under rapid");
    report.line("variations; DeepSD tracks them more closely.");
    report.finish(pipeline.scale.name);
}
