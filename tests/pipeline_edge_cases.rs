//! Edge-case and failure-injection integration tests: degenerate
//! simulations, cold-start histories, and API misuse panics.

// Exact float comparisons here assert bit-reproducibility on purpose.
#![allow(clippy::float_cmp)]

use deepsd::{DeepSD, ModelConfig, Predictor};
use deepsd_features::{Batch, FeatureConfig, FeatureExtractor, ItemKey, ItemSource};
use deepsd_simdata::{CityConfig, OrderGenConfig, SimConfig, SimDataset};

fn fcfg(l: usize) -> FeatureConfig {
    FeatureConfig {
        window_l: l,
        history_window: 3,
        ..FeatureConfig::default()
    }
}

#[test]
fn near_zero_demand_city_still_works() {
    // Starve the city of demand: almost no orders, gaps all zero.
    let ds = SimDataset::generate(&SimConfig {
        city: CityConfig {
            n_areas: 4,
            seed: 77,
        },
        n_days: 9,
        orders: OrderGenConfig {
            demand_volume: 0.001,
            supply_slack: 1.0,
            ..OrderGenConfig::default()
        },
        ..SimConfig::smoke(77)
    });
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    let item = fx.extract(ItemKey {
        area: 0,
        day: 8,
        t: 500,
    });
    assert_eq!(item.gap, 0.0);
    // A fresh model must still produce finite predictions on all-zero
    // order features.
    let mut cfg = ModelConfig::advanced(ds.n_areas());
    cfg.window_l = 8;
    let model = DeepSD::new(cfg);
    let preds = model.predict(&Batch::from_items(&[item]));
    assert!(preds[0].is_finite() && preds[0] >= 0.0);
}

#[test]
fn oversupplied_city_has_zero_gaps() {
    let ds = SimDataset::generate(&SimConfig {
        city: CityConfig {
            n_areas: 4,
            seed: 78,
        },
        n_days: 8,
        orders: OrderGenConfig {
            demand_volume: 1.0,
            supply_slack: 10.0,
            ..OrderGenConfig::default()
        },
        ..SimConfig::smoke(78)
    });
    let frac = ds.total_invalid() as f64 / ds.total_orders().max(1) as f64;
    assert!(
        frac < 0.01,
        "10x oversupply should kill nearly all gaps, got {frac}"
    );
}

#[test]
fn starved_supply_maximises_gaps() {
    let ds = SimDataset::generate(&SimConfig {
        city: CityConfig {
            n_areas: 4,
            seed: 79,
        },
        n_days: 8,
        orders: OrderGenConfig {
            demand_volume: 1.0,
            supply_slack: 0.05,
            ..OrderGenConfig::default()
        },
        ..SimConfig::smoke(79)
    });
    let frac = ds.total_invalid() as f64 / ds.total_orders().max(1) as f64;
    assert!(
        frac > 0.5,
        "5% supply should strand most passengers, got {frac}"
    );
}

#[test]
fn day_zero_histories_are_empty_but_extraction_succeeds() {
    let ds = SimDataset::generate(&SimConfig::smoke(80));
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    let item = fx.extract(ItemKey {
        area: 1,
        day: 0,
        t: 300,
    });
    // No prior days: every history stack must be exactly zero.
    for h in [
        &item.h_sd,
        &item.h_sd_next,
        &item.h_lc,
        &item.h_lc_next,
        &item.h_wt,
        &item.h_wt_next,
    ] {
        assert!(h.iter().all(|&v| v == 0.0));
    }
    // But realtime vectors reflect the live window.
    assert!(item.v_sd.iter().all(|&v| v >= 0.0));
}

#[test]
#[should_panic(expected = "crosses midnight")]
fn extraction_rejects_window_before_day_start() {
    let ds = SimDataset::generate(&SimConfig::smoke(81));
    let mut fx = FeatureExtractor::new(&ds, fcfg(20));
    let _ = fx.extract(ItemKey {
        area: 0,
        day: 1,
        t: 10,
    });
}

#[test]
#[should_panic(expected = "window L mismatch")]
fn model_rejects_mismatched_window() {
    let ds = SimDataset::generate(&SimConfig::smoke(82));
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    let item = fx.extract(ItemKey {
        area: 0,
        day: 5,
        t: 400,
    });
    let mut cfg = ModelConfig::basic(ds.n_areas());
    cfg.window_l = 12; // extractor used 8
    let model = DeepSD::new(cfg);
    let _ = model.predict(&Batch::from_items(&[item]));
}

#[test]
fn predictor_trait_objects_work() {
    let ds = SimDataset::generate(&SimConfig::smoke(83));
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    let items = fx.extract_all(&[
        ItemKey {
            area: 0,
            day: 5,
            t: 400,
        },
        ItemKey {
            area: 1,
            day: 5,
            t: 400,
        },
    ]);
    let batch = Batch::from_items(&items);
    let mut cfg = ModelConfig::basic(ds.n_areas());
    cfg.window_l = 8;
    let model = DeepSD::new(cfg);
    let ensemble = deepsd::Ensemble::new(vec![model.clone(), model.clone()]);
    let predictors: Vec<Box<dyn Predictor>> = vec![Box::new(model), Box::new(ensemble)];
    let a = predictors[0].predict(&batch);
    let b = predictors[1].predict(&batch);
    // An ensemble of identical members equals the single model.
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-6);
    }
}

#[test]
fn batch_respects_item_order() {
    let ds = SimDataset::generate(&SimConfig::smoke(84));
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    let keys = [
        ItemKey {
            area: 3,
            day: 6,
            t: 600,
        },
        ItemKey {
            area: 0,
            day: 7,
            t: 900,
        },
        ItemKey {
            area: 5,
            day: 8,
            t: 450,
        },
    ];
    let items = fx.extract_all(&keys);
    let batch = Batch::from_items(&items);
    assert_eq!(batch.area_ids, vec![3, 0, 5]);
    assert_eq!(batch.time_ids, vec![600, 900, 450]);
    for (i, item) in items.iter().enumerate() {
        assert_eq!(batch.targets[i], item.gap);
    }
}

#[test]
fn weekday_ids_match_simulation_calendar() {
    let ds = SimDataset::generate(&SimConfig::smoke(85));
    let mut fx = FeatureExtractor::new(&ds, fcfg(8));
    // Simulation starts on Monday: day 0 → 0, day 6 → 6 (Sunday),
    // day 7 → 0 again.
    for (day, expected) in [(0u16, 0u8), (6, 6), (7, 0), (13, 6)] {
        let item = fx.extract(ItemKey {
            area: 0,
            day,
            t: 720,
        });
        assert_eq!(item.weekday, expected, "day {day}");
    }
}
