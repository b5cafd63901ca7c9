//! Table II — performance comparison: Empirical Average, LASSO, GBDT,
//! Random Forest, Basic DeepSD, Advanced DeepSD (MAE / RMSE on the test
//! split). Also echoes the embedding settings of Table I.
//!
//! Usage: `cargo run --release -p deepsd-bench --bin table2_comparison [smoke|small|paper]`

use deepsd::{evaluate, Variant};
use deepsd_baselines::{
    lasso_features, tree_features, EmpiricalAverage, ForestParams, Gbdt, GbdtParams, Lasso,
    LassoParams, RandomForest,
};
use deepsd_bench::report::f2;
use deepsd_bench::{Pipeline, Report, Scale};
use deepsd_features::ItemSource;

fn main() {
    let scale = Scale::from_args();
    let pipeline = Pipeline::build(scale);
    let mut fx = pipeline.extractor();
    let test_items = pipeline.test_items(&mut fx);
    let truth: Vec<f32> = test_items.iter().map(|i| i.gap).collect();

    let mut report = Report::new("table2", "Table II: Performance Comparison");

    // Table I echo: embedding settings actually used.
    let cfg = pipeline.model_config(Variant::Advanced);
    report.line("Table I: Embedding settings");
    report.line(format!(
        "  AreaID    R^{:<5} -> R^{}   (identity part, extended order part)",
        cfg.n_areas, cfg.area_dim
    ));
    report.line(format!(
        "  TimeID    R^1440  -> R^{}   (identity part)",
        cfg.time_dim
    ));
    report.line(format!(
        "  WeekID    R^7     -> R^{}   (identity part, extended order part)",
        cfg.week_dim
    ));
    report.line(format!(
        "  wc.type   R^10    -> R^{}   (environment part)",
        cfg.weather_dim
    ));
    report.blank();

    // --- Empirical Average -------------------------------------------------
    eprintln!("[avg] fitting empirical average");
    let avg = EmpiricalAverage::fit(&mut fx, &pipeline.train_keys);
    let avg_pred = avg.predict_all(&pipeline.test_keys);
    let avg_eval = evaluate(&avg_pred, &truth);

    // --- Tabular features for LASSO / GBDT / RF ----------------------------
    eprintln!("[tabular] extracting training items for baselines");
    let train_items = fx.extract_all(&pipeline.train_keys);
    let tree_train = tree_features(&train_items);
    let tree_test = tree_features(&test_items);
    let lasso_train = lasso_features(&train_items, pipeline.dataset.n_areas());
    let lasso_test = lasso_features(&test_items, pipeline.dataset.n_areas());
    eprintln!(
        "[tabular] {} rows x {} tree features / {} lasso features",
        tree_train.n, tree_train.d, lasso_train.d
    );

    eprintln!("[lasso] fitting");
    let lasso = Lasso::fit(&lasso_train, &LassoParams::default());
    eprintln!(
        "[lasso] {} non-zero coefficients after {} sweeps",
        lasso.nnz(),
        lasso.iterations
    );
    let lasso_eval = evaluate(&lasso.predict(&lasso_test), &truth);

    eprintln!("[gbdt] fitting");
    let gbdt = Gbdt::fit(&tree_train, &GbdtParams::default());
    let gbdt_eval = evaluate(&gbdt.predict(&tree_test), &truth);

    eprintln!("[rf] fitting");
    let rf = RandomForest::fit(&tree_train, &ForestParams::default());
    let rf_eval = evaluate(&rf.predict(&tree_test), &truth);
    drop(train_items);

    // --- DeepSD -------------------------------------------------------------
    let (_, basic_report) = pipeline.train_model(
        "basic",
        pipeline.model_config(Variant::Basic),
        &mut fx,
        &test_items,
    );
    let (_, adv_report) = pipeline.train_model(
        "advanced",
        pipeline.model_config(Variant::Advanced),
        &mut fx,
        &test_items,
    );

    report.line("Model                MAE     RMSE");
    report.line(format!(
        "Average         {} {}",
        f2(avg_eval.mae),
        f2(avg_eval.rmse)
    ));
    report.line(format!(
        "LASSO           {} {}",
        f2(lasso_eval.mae),
        f2(lasso_eval.rmse)
    ));
    report.line(format!(
        "GBDT            {} {}",
        f2(gbdt_eval.mae),
        f2(gbdt_eval.rmse)
    ));
    report.line(format!(
        "RF              {} {}",
        f2(rf_eval.mae),
        f2(rf_eval.rmse)
    ));
    report.line(format!(
        "Basic DeepSD    {} {}",
        f2(basic_report.final_mae),
        f2(basic_report.final_rmse)
    ));
    report.line(format!(
        "Advanced DeepSD {} {}",
        f2(adv_report.final_mae),
        f2(adv_report.final_rmse)
    ));
    report.blank();
    let best_existing = gbdt_eval.rmse.min(lasso_eval.rmse).min(rf_eval.rmse);
    report.kv(
        "Advanced RMSE vs best existing",
        format!(
            "{:+.1}% (paper: -11.9%)",
            (adv_report.final_rmse - best_existing) / best_existing * 100.0
        ),
    );
    report.finish(pipeline.scale.name);
}
