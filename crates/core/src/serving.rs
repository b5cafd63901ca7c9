//! Online serving: gap prediction from a live order stream.
//!
//! The paper closes with "we are currently working on incorporating our
//! prediction model into the scheduling system of Didi" — this module is
//! that deployment surface. An [`OnlinePredictor`] wraps a trained
//! predictor, per-area rolling order windows
//! ([`deepsd_features::OnlineWindow`]) fed by the live stream, and a
//! historical dataset used for the per-weekday history stacks and
//! environment feeds.
//!
//! Real streams misbehave, so the serving layer is built to degrade
//! rather than die:
//!
//! * malformed or out-of-order orders are handled per the configured
//!   [`IngestPolicy`] — counted, dropped, reordered within a slack, or
//!   surfaced as typed [`IngestError`]s, never a panic;
//! * environment-feed outages route through the extractor's
//!   [`FeedHealth`](deepsd_features::FeedHealth) schedule: stale feeds
//!   serve the last known observation, and a feed that is fully
//!   [`FeedState::Down`] has its model block skipped via [`BlockMask`];
//! * [`OnlinePredictor::predict_all_report`] returns the predictions
//!   together with the [`FeedStatus`] and cumulative [`IngestStats`] so
//!   operators can see degraded serving instead of silently trusting it.
//!
//! Predictions from the online path are bit-identical to offline batch
//! extraction when fed the same orders (see the tests).

use crate::model::{BlockMask, Predictor};
use crate::telemetry::Telemetry;
use deepsd_features::{
    Batch, BatchIngestReport, FeedState, FeedStatus, IngestError, IngestPolicy, IngestStats, Item,
    ItemKey, ItemSource, OnlineWindow,
};
use deepsd_nn::Tape;
use deepsd_simdata::Order;

/// Areas per scoring batch in [`OnlinePredictor::predict_all_report`].
/// Batches are scored on the configured worker threads; the network is
/// row-wise independent, so the concatenated result is bit-identical to
/// one monolithic batch at any thread count.
const SERVE_BATCH: usize = 64;

/// Predictions plus the serving-health context they were produced
/// under.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Predicted gap per area.
    pub predictions: Vec<f32>,
    /// Environment feed health at the prediction time.
    pub feeds: FeedStatus,
    /// Cumulative ingest counters over the predictor's lifetime.
    pub ingest: IngestStats,
}

/// Streaming gap predictor over all areas of a city.
///
/// Generic over the [`ItemSource`] supplying histories, environment
/// feeds and ground truth, in practice a
/// [`StreamingExtractor`](deepsd_features::StreamingExtractor) over an
/// in-memory dataset or, bounded, over a chunked container, which keeps
/// serving viable at 10k-area city scale.
pub struct OnlinePredictor<P: Predictor, X: ItemSource> {
    model: P,
    extractor: X,
    windows: Vec<OnlineWindow>,
    policy: IngestPolicy,
    /// Counters for orders no window ever saw (unknown areas).
    stray: IngestStats,
    /// Tape reused by the single-area hot path; keeps node storage and
    /// pooled gather buffers alive so steady-state serving performs no
    /// per-request tape allocations.
    serve_tape: Tape,
    /// Metrics sink for latency histograms and health gauges (`None`
    /// disables telemetry).
    telemetry: Option<Telemetry>,
}

impl<P: Predictor + Sync, X: ItemSource> OnlinePredictor<P, X> {
    /// Creates a predictor with the strict [`IngestPolicy::Reject`]
    /// policy. `extractor` supplies weekday histories, weather/traffic
    /// feeds and ground truth; the real-time order state comes
    /// exclusively from [`OnlinePredictor::observe`].
    pub fn new(model: P, extractor: X) -> Self {
        OnlinePredictor::with_policy(model, extractor, IngestPolicy::Reject)
    }

    /// Creates a predictor with an explicit ingest policy governing how
    /// late, duplicate and unknown-area orders are handled.
    pub fn with_policy(model: P, extractor: X, policy: IngestPolicy) -> Self {
        let cfg = extractor.config().clone();
        let windows = (0..extractor.n_areas() as u16)
            .map(|area| OnlineWindow::with_policy(area, &cfg, policy))
            .collect();
        OnlinePredictor {
            model,
            extractor,
            windows,
            policy,
            stray: IngestStats::default(),
            serve_tape: Tape::new(),
            telemetry: None,
        }
    }

    /// Attaches a metrics sink: every `predict_all_report` observes its
    /// latency into `time_serving_predict_latency_seconds`, bumps
    /// `serving_predict_calls_total` and mirrors the report's ingest
    /// counters and feed-health gauges.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Ingests one order from the live stream.
    ///
    /// An order for an area outside the deployment is never indexed
    /// into a window: under [`IngestPolicy::Reject`] it returns
    /// [`IngestError::UnknownArea`], under the tolerant policies it is
    /// counted and dropped. Everything else is delegated to the area's
    /// window, whose policy decides the fate of late or duplicate
    /// orders.
    pub fn observe(&mut self, order: Order) -> Result<(), IngestError> {
        let n_areas = self.windows.len();
        let Some(window) = self.windows.get_mut(order.loc_start as usize) else {
            self.stray.unknown_area += 1;
            return match self.policy {
                IngestPolicy::Reject => Err(IngestError::UnknownArea {
                    area: order.loc_start,
                    n_areas,
                }),
                _ => Ok(()),
            };
        };
        window.observe(order)
    }

    /// Ingests a slice of orders, always processing the full batch.
    ///
    /// Under the tolerant policies no order ever errors; under
    /// [`IngestPolicy::Reject`] each rejected order is recorded in the
    /// returned [`BatchIngestReport`] (index + typed error, sampled up
    /// to a cap) while the remaining orders are still applied — one bad
    /// order cannot discard the rest of a feed tick.
    pub fn observe_all(&mut self, orders: &[Order]) -> BatchIngestReport {
        let mut report = BatchIngestReport::new(orders.len());
        for (i, &o) in orders.iter().enumerate() {
            match self.observe(o) {
                Ok(()) => report.applied += 1,
                Err(e) => report.record_failure(i, e),
            }
        }
        report
    }

    /// The ingest policy every window runs under.
    pub fn policy(&self) -> IngestPolicy {
        self.policy
    }

    /// Cumulative ingest counters: all per-area windows plus
    /// unknown-area strays.
    pub fn ingest_stats(&self) -> IngestStats {
        self.windows
            .iter()
            .fold(self.stray, |acc, w| acc.merge(&w.stats()))
    }

    /// The wrapped item source (feed health, ground truth).
    pub fn extractor(&self) -> &X {
        &self.extractor
    }

    /// Mutable access to the item source, e.g. to declare feed outages
    /// or read ground truth.
    pub fn extractor_mut(&mut self) -> &mut X {
        &mut self.extractor
    }

    /// Builds the feature item for one area at `(day, t)` from the
    /// streamed state, or `None` when `area` is outside the deployment.
    fn item(&mut self, area: u16, day: u16, t: u16) -> Option<Item> {
        let window = self.windows.get_mut(area as usize)?;
        window.advance_to(day, t);
        let (v_sd, v_lc, v_wt) = window.vectors(t);
        Some(
            self.extractor
                .extract_with_realtime(ItemKey { area, day, t }, &v_sd, &v_lc, &v_wt),
        )
    }

    /// The block mask for a feed status: a block is skipped only when
    /// its feed is fully down (stale feeds still serve last-known
    /// values through the features).
    fn mask_for(status: &FeedStatus) -> BlockMask {
        BlockMask {
            weather: status.weather != FeedState::Down,
            traffic: status.traffic != FeedState::Down,
        }
    }

    /// Predicts the gap of every area for the window `[t, t + C)` of
    /// `day` and reports the feed status and ingest counters the
    /// predictions were made under.
    pub fn predict_all_report(&mut self, day: u16, t: u16) -> ServingReport {
        let started = std::time::Instant::now();
        let n = self.windows.len() as u16;
        let items: Vec<Item> = (0..n).filter_map(|area| self.item(area, day, t)).collect();
        let feeds = self.extractor.feed_status(day, t);
        let mask = Self::mask_for(&feeds);
        // Item construction above is sequential (it mutates the per-area
        // windows and the extractor's caches); scoring is the hot part
        // and fans out over the worker threads.
        let chunks: Vec<&[Item]> = items.chunks(SERVE_BATCH).collect();
        let predictions =
            crate::trainer::predict_chunks_masked(&self.model, &chunks, &mask).concat();
        let report = ServingReport {
            predictions,
            feeds,
            ingest: self.ingest_stats(),
        };
        if let Some(tel) = &self.telemetry {
            tel.inc_counter("serving_predict_calls_total");
            tel.observe(
                "time_serving_predict_latency_seconds",
                started.elapsed().as_secs_f64(),
            );
            tel.record_ingest(&report.ingest);
            tel.record_feeds(&report.feeds);
        }
        report
    }

    /// Predicts the gap of every area for the window `[t, t + C)` of
    /// `day`, using only orders observed so far.
    pub fn predict_all(&mut self, day: u16, t: u16) -> Vec<f32> {
        self.predict_all_report(day, t).predictions
    }

    /// Predicts the gap of one area. An area outside the deployment
    /// degrades to a neutral `0.0` gap instead of panicking.
    pub fn predict_area(&mut self, area: u16, day: u16, t: u16) -> f32 {
        let Some(item) = self.item(area, day, t) else {
            return 0.0;
        };
        let mask = Self::mask_for(&self.extractor.feed_status(day, t));
        self.model
            .predict_masked_with(&mut self.serve_tape, &Batch::from_items(&[item]), &mask)
            .first()
            .copied()
            .unwrap_or(0.0)
    }

    /// The wrapped model.
    pub fn model(&self) -> &P {
        &self.model
    }

    /// Hot-swaps the serving model's parameters from a promoted
    /// continual-learning snapshot. Callers must only invoke this
    /// between prediction batches (the serving engine does so at
    /// micro-batch boundaries); returns `false` — leaving the model
    /// untouched — when the predictor has no swappable parameters.
    pub fn install_snapshot(&mut self, snapshot: &deepsd_nn::Snapshot) -> bool {
        self.model.install_snapshot(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::DeepSD;
    use crate::trainer::predict_items;
    use deepsd_features::{FeatureConfig, FeatureExtractor, FeedKind};
    use deepsd_simdata::{SimConfig, SimDataset};

    fn setup(seed: u64) -> (SimDataset, FeatureConfig, DeepSD) {
        let ds = SimDataset::generate(&SimConfig::smoke(seed));
        let fcfg = FeatureConfig {
            window_l: 10,
            history_window: 3,
            ..FeatureConfig::default()
        };
        let mut mcfg = ModelConfig::advanced(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        let mut model = DeepSD::new(mcfg);
        // An untrained model can predict a negative gap everywhere, and
        // serving clamps those to 0.0, which would hide every effect the
        // tests probe. Lifting the output bias keeps predictions
        // positive, so inputs visibly move them.
        let bias = model.store().find("head.out.bias").unwrap();
        model.store_mut().get_mut(bias).as_mut_slice()[0] = 20.0;
        (ds, fcfg, model)
    }

    fn day_stream(ds: &SimDataset, area: u16, day: u16, before: u16) -> Vec<Order> {
        ds.orders(area)
            .iter()
            .filter(|o| o.day == day && o.ts < before)
            .copied()
            .collect()
    }

    #[test]
    fn online_predictions_match_offline_extraction() {
        let (ds, fcfg, model) = setup(121);
        let day = 10u16;

        // Offline reference.
        let mut offline_fx = FeatureExtractor::new(&ds, fcfg.clone());
        let keys: Vec<ItemKey> = (0..ds.n_areas() as u16)
            .map(|area| ItemKey { area, day, t: 600 })
            .collect();
        let offline_items = offline_fx.extract_all(&keys);
        let offline = predict_items(&model, &offline_items, 64);

        // Online: stream every order of the day with ts < 600.
        let serving_fx = FeatureExtractor::new(&ds, fcfg);
        let mut predictor = OnlinePredictor::new(model, serving_fx);
        for area in 0..ds.n_areas() as u16 {
            assert!(predictor
                .observe_all(&day_stream(&ds, area, day, 600))
                .is_clean());
        }
        let report = predictor.predict_all_report(day, 600);

        assert_eq!(report.predictions.len(), offline.len());
        for (a, b) in report.predictions.iter().zip(offline.iter()) {
            assert!((a - b).abs() < 1e-6, "online {a} vs offline {b}");
        }
        assert!(!report.feeds.degraded());
        assert_eq!(report.ingest.lost(), 0);
        assert!(report.ingest.accepted > 0);
    }

    #[test]
    fn streamed_source_serving_is_bit_identical() {
        use deepsd_features::StreamingExtractor;

        let (ds, fcfg, model) = setup(127);
        let day = 11u16;
        let t = 540u16;
        let streams: Vec<Vec<Order>> = (0..ds.n_areas() as u16)
            .map(|area| day_stream(&ds, area, day, t))
            .collect();

        // Reference: serving over the materialized extractor.
        let fx = FeatureExtractor::new(&ds, fcfg.clone());
        let mut reference = OnlinePredictor::new(model.clone(), fx);
        for stream in &streams {
            assert!(reference.observe_all(stream).is_clean());
        }
        let expected = reference.predict_all_report(day, t);
        drop(reference);

        // Same model, same orders, but the city-scale path: a
        // StreamingExtractor over the dataset with a tight resident
        // budget, so areas are rebuilt mid-serve.
        let generator = deepsd_simdata::StreamGenerator::new(&SimConfig::smoke(127));
        let sx = StreamingExtractor::new(generator, fcfg).with_max_resident_mb(1);
        let mut streamed = OnlinePredictor::new(model, sx);
        for stream in &streams {
            assert!(streamed.observe_all(stream).is_clean());
        }
        let got = streamed.predict_all_report(day, t);

        assert_eq!(expected.predictions, got.predictions);
        assert_eq!(expected.ingest, got.ingest);
    }

    #[test]
    fn predictions_change_with_streamed_orders() {
        let (ds, fcfg, model) = setup(122);
        let day = 9u16;
        let area = (0..ds.n_areas() as u16)
            .max_by_key(|&a| ds.orders(a).len())
            .unwrap();

        let fx1 = FeatureExtractor::new(&ds, fcfg.clone());
        let mut empty_stream = OnlinePredictor::new(model.clone(), fx1);
        let p_empty = empty_stream.predict_area(area, day, 540);

        let fx2 = FeatureExtractor::new(&ds, fcfg);
        let mut fed = OnlinePredictor::new(model, fx2);
        let stream = day_stream(&ds, area, day, 540);
        assert!(!stream.is_empty());
        assert!(fed.observe_all(&stream).is_clean());
        let p_fed = fed.predict_area(area, day, 540);
        assert!(p_empty > 0.0 && p_fed > 0.0, "predictions must not clamp");
        assert_ne!(
            p_empty, p_fed,
            "streamed orders must influence the prediction"
        );
    }

    #[test]
    fn predict_area_matches_predict_all() {
        let (ds, fcfg, model) = setup(123);
        let fx = FeatureExtractor::new(&ds, fcfg);
        let mut predictor = OnlinePredictor::new(model, fx);
        let all = predictor.predict_all(8, 480);
        for area in 0..ds.n_areas() as u16 {
            let one = predictor.predict_area(area, 8, 480);
            assert!((one - all[area as usize]).abs() < 1e-6);
        }
    }

    #[test]
    fn unknown_area_is_typed_error_under_reject() {
        let (ds, fcfg, model) = setup(124);
        let n_areas = ds.n_areas();
        let fx = FeatureExtractor::new(&ds, fcfg);
        let mut predictor = OnlinePredictor::new(model, fx);
        let mut bad = ds.orders(0)[0];
        bad.loc_start = n_areas as u16 + 5;
        match predictor.observe(bad) {
            Err(IngestError::UnknownArea { area, n_areas: n }) => {
                assert_eq!(area, n_areas as u16 + 5);
                assert_eq!(n, n_areas);
            }
            other => panic!("expected UnknownArea, got {other:?}"),
        }
        assert_eq!(predictor.ingest_stats().unknown_area, 1);
    }

    #[test]
    fn unknown_area_is_counted_under_tolerant_policy() {
        let (ds, fcfg, model) = setup(125);
        let n_areas = ds.n_areas();
        let fx = FeatureExtractor::new(&ds, fcfg);
        let mut predictor = OnlinePredictor::with_policy(model, fx, IngestPolicy::DropLate);
        let mut bad = ds.orders(0)[0];
        bad.loc_start = 999;
        predictor
            .observe(bad)
            .expect("tolerant policy swallows unknown areas");
        let stats = predictor.ingest_stats();
        assert_eq!(stats.unknown_area, 1);
        assert_eq!(stats.accepted, 0);
        // Serving still works.
        let report = predictor.predict_all_report(8, 480);
        assert_eq!(report.predictions.len(), n_areas);
        assert!(report.predictions.iter().all(|p| p.is_finite()));
        assert_eq!(report.ingest.unknown_area, 1);
    }

    #[test]
    fn stale_feeds_match_offline_with_same_health() {
        let (ds, fcfg, model) = setup(126);
        let day = 10u16;
        // Both feeds out for [550, 650) of the prediction day — within
        // the default 120-minute staleness budget at t = 600.
        let mut health = deepsd_features::FeedHealth::default();
        health.add_day_outage(FeedKind::Weather, day, 550, 650);
        health.add_day_outage(FeedKind::Traffic, day, 550, 650);

        let mut offline_fx = FeatureExtractor::new(&ds, fcfg.clone());
        offline_fx.set_feed_health(health.clone());
        let keys: Vec<ItemKey> = (0..ds.n_areas() as u16)
            .map(|area| ItemKey { area, day, t: 600 })
            .collect();
        let offline = predict_items(&model, &offline_fx.extract_all(&keys), 64);

        let mut serving_fx = FeatureExtractor::new(&ds, fcfg);
        serving_fx.set_feed_health(health);
        let mut predictor = OnlinePredictor::new(model, serving_fx);
        for area in 0..ds.n_areas() as u16 {
            assert!(predictor
                .observe_all(&day_stream(&ds, area, day, 600))
                .is_clean());
        }
        let report = predictor.predict_all_report(day, 600);

        assert_eq!(report.feeds.weather, FeedState::Stale { age_minutes: 50 });
        assert_eq!(report.feeds.traffic, FeedState::Stale { age_minutes: 50 });
        assert!(report.feeds.degraded());
        // Stale feeds serve last-known values through the features; no
        // block is masked, so online still matches offline exactly.
        for (a, b) in report.predictions.iter().zip(offline.iter()) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 1e-6, "online {a} vs offline {b}");
        }
    }

    #[test]
    fn down_feed_masks_its_block_and_stays_finite() {
        let (ds, fcfg, model) = setup(127);
        let day = 10u16;
        // Weather has been out since the epoch: no last-known value
        // exists, so the feed is fully down at any query time.
        let mut health = deepsd_features::FeedHealth::default();
        health.add_outage(
            FeedKind::Weather,
            deepsd_simdata::SlotTime::new(0, 0),
            deepsd_simdata::SlotTime::new(day + 1, 0),
        );

        let mut offline_fx = FeatureExtractor::new(&ds, fcfg.clone());
        offline_fx.set_feed_health(health.clone());
        let keys: Vec<ItemKey> = (0..ds.n_areas() as u16)
            .map(|area| ItemKey { area, day, t: 600 })
            .collect();
        let offline_items = offline_fx.extract_all(&keys);
        let mask = BlockMask {
            weather: false,
            traffic: true,
        };
        let offline = model.predict_masked(&Batch::from_items(&offline_items), &mask);

        let mut serving_fx = FeatureExtractor::new(&ds, fcfg.clone());
        serving_fx.set_feed_health(health);
        let mut predictor = OnlinePredictor::new(model.clone(), serving_fx);
        for area in 0..ds.n_areas() as u16 {
            assert!(predictor
                .observe_all(&day_stream(&ds, area, day, 600))
                .is_clean());
        }
        let report = predictor.predict_all_report(day, 600);

        assert_eq!(report.feeds.weather, FeedState::Down);
        assert_eq!(report.feeds.traffic, FeedState::Live);
        for (a, b) in report.predictions.iter().zip(offline.iter()) {
            assert!(a.is_finite());
            assert!((a - b).abs() < 1e-6, "online {a} vs masked offline {b}");
        }
        // And the degraded predictions differ from fully-live serving
        // (the weather block's residual contribution is gone).
        let live_fx = FeatureExtractor::new(&ds, fcfg);
        let mut live = OnlinePredictor::new(model, live_fx);
        for area in 0..ds.n_areas() as u16 {
            assert!(live
                .observe_all(&day_stream(&ds, area, day, 600))
                .is_clean());
        }
        let live_preds = live.predict_all(day, 600);
        assert!(
            live_preds.iter().all(|&p| p > 0.0),
            "predictions must not clamp"
        );
        assert!(
            report
                .predictions
                .iter()
                .zip(live_preds.iter())
                .any(|(a, b)| (a - b).abs() > 1e-9),
            "masking the weather block must change some prediction"
        );
    }
}
