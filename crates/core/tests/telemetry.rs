//! Telemetry integration tests (DESIGN.md §4.4): the determinism
//! contract of the snapshot, serving instrumentation, and the
//! Prometheus exposition round-trip on real training output.

// Exact float comparisons here assert bit-reproducibility on purpose.
#![allow(clippy::float_cmp)]

use deepsd::trainer::train;
use deepsd::{
    parse_prometheus, DeepSD, EnvBlocks, ModelConfig, OnlinePredictor, Telemetry, TrainOptions,
};
use deepsd_features::{
    test_keys, train_keys, FeatureConfig, FeatureExtractor, FeedHealth, FeedKind, ItemSource,
};
use deepsd_simdata::{Order, SimConfig, SimDataset};

fn tiny_setup(seed: u64) -> (SimDataset, FeatureConfig) {
    let ds = SimDataset::generate(&SimConfig::smoke(seed));
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };
    (ds, fcfg)
}

/// Trains a tiny model at `threads` workers and returns the resulting
/// telemetry registry.
fn train_with_telemetry(ds: &SimDataset, fcfg: &FeatureConfig, threads: usize) -> Telemetry {
    let mut fx = FeatureExtractor::new(ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 7..11, fcfg);
    let te = test_keys(ds.n_areas() as u16, 11..13, fcfg);
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
    train(&mut model, &mut fx, &tr, &eval_items, &opts);
    telemetry
}

/// Same seed, any worker count: the timing-stripped snapshot is byte
/// identical (PR 3's bit-identical-training contract extended to the
/// metrics layer).
#[test]
fn snapshots_are_byte_identical_across_worker_counts() {
    let (ds, fcfg) = tiny_setup(51);
    let reference = train_with_telemetry(&ds, &fcfg, 1).to_json_without_timings();
    assert!(reference.contains("train_epochs_total"));
    assert!(reference.contains("\"epochs\": ["));
    assert!(!reference.contains("time_"), "timings must be stripped");
    for threads in [2usize, 8] {
        let snapshot = train_with_telemetry(&ds, &fcfg, threads).to_json_without_timings();
        assert_eq!(
            reference, snapshot,
            "snapshot at {threads} workers diverged from the serial run"
        );
    }
}

/// The full snapshot carries the wall-clock section the stripped one
/// drops.
#[test]
fn full_snapshot_includes_timings() {
    let (ds, fcfg) = tiny_setup(52);
    let tel = train_with_telemetry(&ds, &fcfg, 1);
    let full = tel.to_json();
    assert!(full.contains("time_epoch_seconds"));
    assert!(full.contains("time_shard_pool_busy_seconds"));
    assert!(full.contains("\"time_seconds\":"));
    assert!(tel.counter("train_shard_pool_runs_total") > 0);
}

/// A real training registry renders to Prometheus text that the
/// bundled minimal parser reads back, sample for sample.
#[test]
fn prometheus_round_trips_on_training_output() {
    let (ds, fcfg) = tiny_setup(53);
    let tel = train_with_telemetry(&ds, &fcfg, 2);
    let text = tel.to_prometheus();
    let parsed = parse_prometheus(&text).expect("exposition parses");
    assert_eq!(
        parsed["deepsd_train_epochs_total"],
        tel.counter("train_epochs_total") as f64
    );
    assert_eq!(
        parsed["deepsd_train_eval_rmse"],
        tel.gauge("train_eval_rmse").expect("rmse gauge set")
    );
    // Histogram samples surface with cumulative bucket counts.
    assert_eq!(
        parsed["deepsd_time_epoch_seconds_hist_bucket{le=\"+Inf\"}"],
        tel.histogram_count("time_epoch_seconds_hist") as f64
    );
}

/// Serving instrumentation: one histogram observation and one counter
/// increment per `predict_all` call, plus mirrored ingest counters.
#[test]
fn serving_histogram_counts_predict_calls() {
    let (ds, fcfg) = tiny_setup(54);
    let mut mcfg = ModelConfig::advanced(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    let model = DeepSD::new(mcfg);

    let fx = FeatureExtractor::new(&ds, fcfg.clone());
    let mut predictor = OnlinePredictor::new(model, fx);
    let telemetry = Telemetry::new();
    predictor.set_telemetry(telemetry.clone());

    let day = 10u16;
    let orders: Vec<Order> = (0..ds.n_areas() as u16)
        .flat_map(|area| {
            ds.orders(area)
                .iter()
                .filter(|o| o.day == day && o.ts < 500)
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    let mut accepted = 0u64;
    for order in orders {
        if predictor.observe(order).is_ok() {
            accepted += 1;
        }
    }

    const CALLS: u64 = 3;
    for i in 0..CALLS {
        predictor.predict_all(day, 500 + 10 * i as u16);
    }
    assert_eq!(telemetry.counter("serving_predict_calls_total"), CALLS);
    assert_eq!(
        telemetry.histogram_count("time_serving_predict_latency_seconds"),
        CALLS
    );
    assert!(telemetry
        .histogram_quantile("time_serving_predict_latency_seconds", 0.99)
        .is_some());
    assert_eq!(telemetry.counter("ingest_accepted_total"), accepted);
    // Healthy feeds: both gauges live, nothing degraded.
    assert_eq!(telemetry.gauge("feed_weather_state"), Some(0.0));
    assert_eq!(telemetry.gauge("feed_traffic_state"), Some(0.0));
    assert_eq!(telemetry.gauge("feeds_degraded"), Some(0.0));
}

/// Feed blackouts surface in the health gauges: a downed feed reports
/// state 2 and bumps the degraded count.
#[test]
fn feed_outage_is_visible_in_gauges() {
    let (ds, fcfg) = tiny_setup(55);
    let mut mcfg = ModelConfig::advanced(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    let model = DeepSD::new(mcfg);

    let day = 10u16;
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let mut health = FeedHealth::default();
    // An outage long since past the staleness budget: weather is down.
    health.add_day_outage(FeedKind::Weather, day, 0, 1439);
    fx.set_feed_health(health);

    let mut predictor = OnlinePredictor::new(model, fx);
    let telemetry = Telemetry::new();
    predictor.set_telemetry(telemetry.clone());
    let report = predictor.predict_all_report(day, 600);

    assert!(report.feeds.weather.is_degraded());
    let state = telemetry.gauge("feed_weather_state").expect("gauge set");
    assert!(
        state == 1.0 || state == 2.0,
        "weather must be stale or down, gauge was {state}"
    );
    assert_eq!(telemetry.gauge("feeds_degraded"), Some(1.0));
    assert_eq!(telemetry.gauge("feed_traffic_state"), Some(0.0));
    assert!(report.predictions.iter().all(|p| p.is_finite()));
}
