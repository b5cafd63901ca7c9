//! `OnlinePredictor::predict_all_report` scores a slot in contiguous
//! area shares: the calling thread scores the first, persistent workers
//! the rest. This binary checks, over 1, 2 and 8 workers and over an
//! in-memory source, a streamed one and one whose resident budget is
//! smaller than the city (the serial-assembly fallback), that the
//! predictions equal the serial path bit for bit, and that the workers
//! persist: no predict after the first starts a thread.
//!
//! The worker count is process-wide, so everything runs in one test.

use deepsd::{BlockMask, DeepSD, Ensemble, ModelConfig, OnlinePredictor, Predictor};
use deepsd_features::{
    Batch, FeatureConfig, FeatureExtractor, FeedHealth, FeedKind, FeedState, Item, ItemKey,
    ItemSource, OnlineWindow, StreamingExtractor,
};
use deepsd_rng::{cases, Rng};
use deepsd_simdata::{Order, SimConfig, SimDataset, SlotTime, StreamGenerator};

const SEED: u64 = 63;

fn feature_config() -> FeatureConfig {
    FeatureConfig {
        window_l: 8,
        history_window: 2,
        ..FeatureConfig::default()
    }
}

/// A two-member ensemble whose lifted output bias keeps predictions
/// off the zero clamp, so every input moves their bits.
fn ensemble(n_areas: usize) -> Ensemble {
    let members = (0..2u64)
        .map(|k| {
            let mut mcfg = ModelConfig::advanced(n_areas);
            mcfg.window_l = feature_config().window_l;
            mcfg.seed += k;
            let mut model = DeepSD::new(mcfg);
            let bias = model.store().find("head.out.bias").expect("output bias");
            model.store_mut().get_mut(bias).as_mut_slice()[0] = 20.0;
            model
        })
        .collect();
    Ensemble::new(members)
}

/// The serial path: every area's item assembled one at a time through
/// `extract_with_realtime` and scored as one batch on a fresh tape.
fn serial(
    model: &Ensemble,
    fx: &mut impl ItemSource,
    windows: &mut [OnlineWindow],
    day: u16,
    t: u16,
) -> Vec<f32> {
    let feeds = fx.feed_status(day, t);
    let mask = BlockMask {
        weather: feeds.weather != FeedState::Down,
        traffic: feeds.traffic != FeedState::Down,
    };
    let items: Vec<Item> = windows
        .iter_mut()
        .map(|w| {
            let (v_sd, v_lc, v_wt) = w.vectors_at(day, t);
            let key = ItemKey {
                area: w.area(),
                day,
                t,
            };
            fx.extract_with_realtime(key, &v_sd, &v_lc, &v_wt)
        })
        .collect();
    model.predict_masked(&Batch::from_items(&items), &mask)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|p| p.to_bits()).collect()
}

/// Which item source a case serves from.
#[derive(Clone, Copy, Debug)]
enum Source {
    InMemory,
    Streamed,
    TightBudget,
}

/// A served predictor: observes a batch, then predicts a slot.
type Served<'a> = Box<dyn FnMut(u16, u16, &[Order]) -> Vec<f32> + 'a>;

/// Serves one random script through a predictor at `workers` workers
/// and checks every predict against the serial path.
fn check_case(rng: &mut Rng, ds: &SimDataset, model: &Ensemble, workers: usize, source: Source) {
    let cfg = feature_config();
    let config = SimConfig::smoke(SEED);
    let mut health = FeedHealth::default();
    let day = rng.gen_range(8u16..ds.n_days);
    if rng.gen_bool(0.3) {
        // Weather down since the epoch: its block is masked.
        health.add_outage(
            FeedKind::Weather,
            SlotTime::new(0, 0),
            SlotTime::new(day + 1, 0),
        );
    }
    fn build<X: ItemSource>(mut fx: X, health: &FeedHealth) -> X {
        fx.set_feed_health(health.clone());
        fx
    }
    let mut reference = build(FeatureExtractor::new(ds, cfg.clone()), &health);
    let mut windows: Vec<OnlineWindow> = (0..ds.n_areas() as u16)
        .map(|area| OnlineWindow::new(area, &cfg))
        .collect();

    deepsd_nn::set_num_threads(workers);
    let mut served: Served<'_> = match source {
        Source::InMemory => {
            let mut p = OnlinePredictor::new(
                model.clone(),
                build(FeatureExtractor::new(ds, cfg.clone()), &health),
            );
            Box::new(move |d, t, orders| {
                assert!(p.observe_all(orders).is_clean());
                p.predict_all_report(d, t).predictions
            })
        }
        Source::Streamed | Source::TightBudget => {
            let tight = matches!(source, Source::TightBudget);
            let mut fx = StreamingExtractor::new(StreamGenerator::new(&config), cfg.clone());
            if tight {
                fx = fx.with_max_resident_mb(1);
            }
            let mut p = OnlinePredictor::new(model.clone(), build(fx, &health));
            let n_areas = ds.n_areas();
            Box::new(move |d, t, orders| {
                assert!(p.observe_all(orders).is_clean());
                let predictions = p.predict_all_report(d, t).predictions;
                // The budget holds less than the city: the fallback ran.
                assert_eq!(p.extractor().resident_areas() < n_areas, tight);
                predictions
            })
        }
    };

    // The day's orders in clock order, observed in random-sized steps;
    // each step is followed by a predict of a random slot: the stream's
    // own, one ahead of it, or one of another day.
    let mut orders: Vec<Order> = (0..ds.n_areas() as u16)
        .flat_map(|a| ds.orders(a).iter().filter(|o| o.day == day).copied())
        .collect();
    orders.sort_by_key(|o| (o.ts, o.loc_start, o.pid));
    let mut next = 0usize;
    let l = cfg.window_l as u16;
    for _ in 0..4 {
        let minute = rng.gen_range(l..1440);
        let upto = next + orders[next..].partition_point(|o| o.ts < minute);
        let batch = &orders[next..upto];
        next = upto;
        for o in batch {
            windows[o.loc_start as usize]
                .observe(*o)
                .expect("in-order stream");
        }
        let (d, t) = match rng.below(3) {
            0 => (day, minute),
            1 => (day, rng.gen_range(minute..1440)),
            _ => (rng.gen_range(8u16..ds.n_days), rng.gen_range(l..1440)),
        };
        let want = serial(model, &mut reference, &mut windows, d, t);
        let got = served(d, t, batch);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{source:?} at {workers} workers, slot ({d}, {t})"
        );
    }
}

/// The `Threads:` line of `/proc/self/status` (`None` off Linux).
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn shares_match_the_serial_path_and_reuse_their_workers() {
    let ds = SimDataset::generate(&SimConfig::smoke(SEED));
    let model = ensemble(ds.n_areas());
    cases(3, |rng| {
        for workers in [1, 2, 8] {
            for source in [Source::InMemory, Source::Streamed, Source::TightBudget] {
                check_case(rng, &ds, &model, workers, source);
            }
        }
    });

    // Persistent workers: the first predict at 2 workers starts one
    // thread (the caller scores the other share), and the next 200
    // start none.
    deepsd_nn::set_num_threads(2);
    let before = os_threads();
    let mut predictor =
        OnlinePredictor::new(model.clone(), FeatureExtractor::new(&ds, feature_config()));
    predictor.predict_all(10, 600);
    let after_first = os_threads();
    if let (Some(before), Some(after_first)) = (before, after_first) {
        assert_eq!(after_first, before + 1, "one worker for the second share");
    }
    for i in 0..200u16 {
        predictor.predict_all(8 + i % 5, 8 + (i * 37) % 1400);
        assert_eq!(
            os_threads(),
            after_first,
            "predict {i} changed the thread count"
        );
    }
    drop(predictor);
    assert_eq!(
        os_threads(),
        before,
        "dropping the predictor joins its workers"
    );
    deepsd_nn::set_num_threads(0);
}
