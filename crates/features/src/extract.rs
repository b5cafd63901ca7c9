//! The feature extractor: turns `(area, day, t)` keys into fully
//! populated [`Item`]s over any [`AreaSource`], plus the [`ItemSource`]
//! abstraction the trainer and the serving path consume.
//!
//! [`StreamingExtractor`] is the only extractor. It keeps per-area state
//! (order index, history cache, traffic stream) resident, loading areas
//! on demand from its source and evicting in deterministic FIFO order
//! when over an optional memory budget. Over an in-memory
//! `&SimDataset` ([`FeatureExtractor`]) it borrows every area's orders
//! and traffic and builds all areas up front; over a chunked container
//! reader or a chunked generator it builds areas lazily.
//!
//! Evictions are invisible in the output: per-area state is a pure
//! function of the source, so a rebuilt area yields bit-identical items,
//! and every source funnels through the same `assemble_item` code path,
//! which makes streamed and in-memory extraction bit-identical by
//! construction (asserted in tests).

use crate::config::FeatureConfig;
use crate::feeds::{FeedHealth, FeedKind, FeedStatus};
use crate::history::{AreaHistory, VectorKind};
use crate::index::AreaIndex;
use crate::items::{Item, ItemKey};
use crate::scaling::{scale_counts, scale_pm25, scale_temperature};
use deepsd_simdata::codec::ReadStats;
use deepsd_simdata::stream::AreaSource;
use deepsd_simdata::{
    SimDataset, SlotTime, TrafficObs, WeatherObs, MINUTES_PER_DAY, MINUTES_PER_DAY_USIZE,
};
use std::collections::VecDeque;

/// The extractor over an in-memory dataset: no residency cap, every
/// area indexed when it is built.
pub type FeatureExtractor<'a> = StreamingExtractor<&'a SimDataset>;

/// Anything that can turn [`ItemKey`]s into [`Item`]s. The trainer and
/// the serving path are generic over this; [`StreamingExtractor`]
/// implements it for every [`AreaSource`].
pub trait ItemSource {
    /// The feature configuration in use.
    fn config(&self) -> &FeatureConfig;
    /// Extracts the full feature item for a key.
    fn extract(&mut self, key: ItemKey) -> Item;
    /// Extracts many items at once.
    fn extract_all(&mut self, keys: &[ItemKey]) -> Vec<Item> {
        keys.iter().map(|&k| self.extract(k)).collect()
    }
    /// Number of areas the source covers.
    fn n_areas(&self) -> usize;
    /// Number of days the source covers.
    fn n_days(&self) -> u16;
    /// Status of both environment feeds as seen by an extraction at
    /// `(day, t)`.
    fn feed_status(&self, day: u16, t: u16) -> FeedStatus;
    /// Replaces the environment feed-health schedule.
    fn set_feed_health(&mut self, health: FeedHealth);
    /// Ground-truth gap for a key (Definition 2).
    fn gap(&mut self, key: ItemKey) -> u32;
    /// Extracts an item using externally supplied *raw* real-time
    /// vectors (e.g. from an `OnlineWindow` fed by a live order stream)
    /// while histories, environment features and the target come from
    /// the source's data. Scaling is applied here, so callers pass
    /// unscaled counts. This is what lets the serving path run over any
    /// item source, streamed or in memory.
    ///
    /// # Panics
    /// Panics if vector lengths do not match `2L`.
    // deepsd-lint: allow(panic-reach, reason="width guards; vector builders emit exactly dim elements")
    fn extract_with_realtime(
        &mut self,
        key: ItemKey,
        v_sd_raw: &[f32],
        v_lc_raw: &[f32],
        v_wt_raw: &[f32],
    ) -> Item {
        let dim = self.config().vector_dim();
        assert_eq!(v_sd_raw.len(), dim, "v_sd width");
        assert_eq!(v_lc_raw.len(), dim, "v_lc width");
        assert_eq!(v_wt_raw.len(), dim, "v_wt width");
        let mut item = self.extract(key);
        let mut v_sd = v_sd_raw.to_vec();
        let mut v_lc = v_lc_raw.to_vec();
        let mut v_wt = v_wt_raw.to_vec();
        for v in [&mut v_sd, &mut v_lc, &mut v_wt] {
            scale_counts(v);
        }
        item.v_sd = v_sd;
        item.v_lc = v_lc;
        item.v_wt = v_wt;
        item
    }
    /// Cumulative data-plane I/O statistics (zeros for in-memory
    /// sources); feeds the `data_chunks_read_total` /
    /// `data_bytes_read_total` telemetry counters.
    fn io_stats(&self) -> ReadStats {
        ReadStats::default()
    }
}

/// Resident per-area extraction state: everything needed to assemble
/// items for one area without touching the source again. `traffic` is
/// empty when the source lends the area's traffic instead.
struct AreaState {
    index: AreaIndex,
    history: AreaHistory,
    traffic: Vec<TrafficObs>,
    approx_bytes: usize,
}

/// Feature extractor over an [`AreaSource`] with an optionally bounded
/// resident window of per-area state.
///
/// The memory knob changes *when* state is rebuilt, never *what* is
/// extracted: items are bit-identical at any budget and over any source
/// holding the same data.
pub struct StreamingExtractor<S: AreaSource> {
    source: S,
    config: FeatureConfig,
    states: Vec<Option<AreaState>>,
    resident: VecDeque<u16>,
    resident_bytes: usize,
    max_resident_bytes: usize,
    feed_health: FeedHealth,
}

impl<S: AreaSource> StreamingExtractor<S> {
    /// Wraps a source with an unbounded resident window (state for every
    /// touched area stays cached).
    ///
    /// Areas the source lends ([`AreaSource::borrow_area`], e.g. an
    /// in-memory `&SimDataset`) are built here, up front, so their
    /// indexes are allocated by the thread that builds the extractor
    /// rather than lazily by whichever thread first extracts: a served
    /// extractor's engine thread would put them in another malloc
    /// arena (built lazily, perfbench `inmem_predict` peaked ~50 MB
    /// higher).
    pub fn new(source: S, config: FeatureConfig) -> StreamingExtractor<S> {
        let n_areas = source.n_areas();
        let mut states = Vec::with_capacity(n_areas);
        states.resize_with(n_areas, || None);
        let mut extractor = StreamingExtractor {
            source,
            config,
            states,
            resident: VecDeque::new(),
            resident_bytes: 0,
            max_resident_bytes: usize::MAX,
            feed_health: FeedHealth::default(),
        };
        for area in 0..n_areas as u16 {
            if extractor.source.borrow_area(area).is_some() {
                extractor.ensure_area(area);
            }
        }
        extractor
    }

    /// Caps resident per-area state at roughly `mb` MiB (`0` =
    /// unbounded). At least one area always stays resident. The cap
    /// takes effect from the next area load.
    pub fn with_max_resident_mb(mut self, mb: usize) -> StreamingExtractor<S> {
        self.max_resident_bytes = if mb == 0 {
            usize::MAX
        } else {
            mb.saturating_mul(1024 * 1024)
        };
        self
    }

    /// The underlying area source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Number of areas currently resident (for tests and telemetry).
    pub fn resident_areas(&self) -> usize {
        self.resident.len()
    }

    /// Mutable access to the feed health schedule (for declaring
    /// outages).
    pub fn feed_health_mut(&mut self) -> &mut FeedHealth {
        &mut self.feed_health
    }

    /// Loads (or finds) the area's resident state, evicting the oldest
    /// resident areas if the budget is exceeded. Eviction order is a
    /// deterministic function of the access pattern — and rebuilding is
    /// deterministic — so the budget never changes extracted items.
    ///
    /// # Panics
    /// Panics if the area is outside the source or the source fails to
    /// produce the area's block (corrupt chunk).
    // deepsd-lint: allow(panic-reach, reason="explicit bounds assert; area is validated against the city config at admission")
    fn ensure_area(&mut self, area: u16) -> &mut AreaState {
        let slot = usize::from(area);
        assert!(slot < self.states.len(), "area {area} out of range");
        if self.states[slot].is_none() {
            let n_days = self.source.n_days();
            let (index, traffic) = match self.source.borrow_area(area) {
                Some((orders, _)) => (AreaIndex::build(orders, n_days), Vec::new()),
                None => {
                    let block = match self.source.area_block(area) {
                        Ok(b) => b,
                        Err(e) => panic!("loading area {area}: {e}"),
                    };
                    (AreaIndex::build(&block.orders, n_days), block.traffic)
                }
            };
            // Rough but deterministic size of the state this extractor
            // owns: orders (index copy + retry links), per-minute
            // counters, owned traffic, fixed slack for the history cache.
            let approx_bytes = index.len() * 48
                + usize::from(n_days) * MINUTES_PER_DAY_USIZE * 6
                + traffic.len() * 8
                + 4096;
            self.states[slot] = Some(AreaState {
                index,
                history: AreaHistory::new(),
                traffic,
                approx_bytes,
            });
            self.resident.push_back(area);
            self.resident_bytes += approx_bytes;
            while self.resident_bytes > self.max_resident_bytes && self.resident.len() > 1 {
                if let Some(victim) = self.resident.pop_front() {
                    if let Some(s) = self.states[usize::from(victim)].take() {
                        self.resident_bytes -= s.approx_bytes;
                    }
                }
            }
        }
        match self.states[slot].as_mut() {
            Some(s) => s,
            None => unreachable!("state ensured above"),
        }
    }
}

impl<S: AreaSource> ItemSource for StreamingExtractor<S> {
    fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Extracts the full feature item for a key.
    ///
    /// # Panics
    /// Panics if `t < L`, the key addresses a day/area outside the
    /// source, or the source fails to produce the area's block (corrupt
    /// chunk).
    // deepsd-lint: allow(panic-reach, reason="area is asserted in range by ensure_area on the same request path")
    fn extract(&mut self, key: ItemKey) -> Item {
        self.ensure_area(key.area);
        let state = match self.states[usize::from(key.area)].as_mut() {
            Some(s) => s,
            None => unreachable!("state ensured above"),
        };
        let traffic = match self.source.borrow_area(key.area) {
            Some((_, traffic)) => traffic,
            None => &state.traffic,
        };
        assemble_item(
            &self.config,
            &self.feed_health,
            &state.index,
            &mut state.history,
            self.source.weather(),
            traffic,
            key,
        )
    }

    fn n_areas(&self) -> usize {
        self.states.len()
    }

    fn n_days(&self) -> u16 {
        self.source.n_days()
    }

    /// Evaluated at the most recent environment input minute, `t - 1`.
    fn feed_status(&self, day: u16, t: u16) -> FeedStatus {
        self.feed_health
            .status_at(SlotTime::new(day, t.saturating_sub(1)))
    }

    fn set_feed_health(&mut self, health: FeedHealth) {
        self.feed_health = health;
    }

    /// # Panics
    /// Panics if the key addresses an area outside the source or the
    /// source fails to produce the area's block.
    fn gap(&mut self, key: ItemKey) -> u32 {
        let horizon = self.config.horizon;
        self.ensure_area(key.area)
            .index
            .gap(key.day, key.t, horizon)
    }

    fn io_stats(&self) -> ReadStats {
        self.source.read_stats()
    }
}

/// Assembles one feature item from per-area state plus the shared
/// environment streams: the single extraction code path, whatever the
/// [`AreaSource`].
///
/// `weather` is the city-wide stream (`day * 1440 + minute`); `traffic`
/// is the area's day-major stream, or empty when no traffic data exists
/// (traffic features then degrade to the same neutral zeros a down feed
/// yields).
// deepsd-lint: allow(panic-reach, reason="weather table is sized n_days*slots by the dataset generator")
fn assemble_item(
    cfg: &FeatureConfig,
    feed_health: &FeedHealth,
    index: &AreaIndex,
    history: &mut AreaHistory,
    weather: &[WeatherObs],
    traffic: &[TrafficObs],
    key: ItemKey,
) -> Item {
    let l = cfg.window_l;
    let t_next = key.t + cfg.horizon as u16;
    let slots = MINUTES_PER_DAY as usize;

    let mut v_sd = history.realtime(index, cfg, VectorKind::SupplyDemand, key.day, key.t);
    let mut v_lc = history.realtime(index, cfg, VectorKind::LastCall, key.day, key.t);
    let mut v_wt = history.realtime(index, cfg, VectorKind::WaitingTime, key.day, key.t);
    let mut h_sd = history.stack(index, cfg, VectorKind::SupplyDemand, key.day, key.t);
    let mut h_sd_next = history.stack(index, cfg, VectorKind::SupplyDemand, key.day, t_next);
    let mut h_lc = history.stack(index, cfg, VectorKind::LastCall, key.day, key.t);
    let mut h_lc_next = history.stack(index, cfg, VectorKind::LastCall, key.day, t_next);
    let mut h_wt = history.stack(index, cfg, VectorKind::WaitingTime, key.day, key.t);
    let mut h_wt_next = history.stack(index, cfg, VectorKind::WaitingTime, key.day, t_next);
    for v in [
        &mut v_sd,
        &mut v_lc,
        &mut v_wt,
        &mut h_sd,
        &mut h_sd_next,
        &mut h_lc,
        &mut h_lc_next,
        &mut h_wt,
        &mut h_wt_next,
    ] {
        scale_counts(v);
    }

    // Environment features over the look-back window, most recent
    // minute first (lag ℓ = 1..=L). Each lookup routes through the
    // feed health schedule: live minutes read directly, stale
    // minutes read the last known observation, down minutes yield
    // neutral zeros (the serving layer additionally skips the
    // affected residual block).
    let mut weather_types = Vec::with_capacity(l);
    let mut weather_scalars = Vec::with_capacity(2 * l);
    let mut traffic_out = Vec::with_capacity(4 * l);
    for ell in 1..=l {
        let minute = key.t - ell as u16;
        let abs = SlotTime::new(key.day, minute).absolute_minute();
        match feed_health.read_slot(FeedKind::Weather, abs) {
            Some(read) => {
                let w = &weather[read.day as usize * slots + read.ts as usize];
                weather_types.push(w.kind.id());
                weather_scalars.push(scale_temperature(w.temperature));
                weather_scalars.push(scale_pm25(w.pm25));
            }
            None => {
                weather_types.push(0);
                weather_scalars.push(0.0);
                weather_scalars.push(0.0);
            }
        }
        match feed_health.read_slot(FeedKind::Traffic, abs) {
            Some(read) if !traffic.is_empty() => {
                let tr = &traffic[read.day as usize * slots + read.ts as usize];
                let total = tr.total_segments().max(1) as f32;
                for lev in tr.levels {
                    traffic_out.push(lev as f32 / total);
                }
            }
            _ => traffic_out.extend_from_slice(&[0.0; 4]),
        }
    }

    let gap = index.gap(key.day, key.t, cfg.horizon) as f32;
    Item {
        key,
        weekday: SlotTime::new(key.day, key.t).weekday() as u8,
        gap,
        v_sd,
        v_lc,
        v_wt,
        h_sd,
        h_sd_next,
        h_lc,
        h_lc_next,
        h_wt,
        h_wt_next,
        weather_types,
        weather_scalars,
        traffic: traffic_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{test_keys, train_keys};
    use deepsd_simdata::codec::{encode_dataset_v2, ChunkReader};
    use deepsd_simdata::{SimConfig, StreamGenerator};
    use std::io::Cursor;

    fn small_config() -> FeatureConfig {
        FeatureConfig {
            window_l: 10,
            history_window: 4,
            ..FeatureConfig::default()
        }
    }

    #[test]
    fn extract_produces_consistent_dimensions() {
        let ds = SimDataset::generate(&SimConfig::smoke(31));
        let cfg = small_config();
        let mut fx = FeatureExtractor::new(&ds, cfg.clone());
        let item = fx.extract(ItemKey {
            area: 0,
            day: 8,
            t: 480,
        });
        let dim = cfg.vector_dim();
        assert_eq!(item.v_sd.len(), dim);
        assert_eq!(item.v_lc.len(), dim);
        assert_eq!(item.v_wt.len(), dim);
        for h in [
            &item.h_sd,
            &item.h_sd_next,
            &item.h_lc,
            &item.h_lc_next,
            &item.h_wt,
            &item.h_wt_next,
        ] {
            assert_eq!(h.len(), 7 * dim);
        }
        assert_eq!(item.weather_types.len(), cfg.window_l);
        assert_eq!(item.weather_scalars.len(), 2 * cfg.window_l);
        assert_eq!(item.traffic.len(), 4 * cfg.window_l);
        assert_eq!(item.weekday, 1); // day 8 = Tuesday
    }

    #[test]
    fn gap_matches_manual_count() {
        let ds = SimDataset::generate(&SimConfig::smoke(32));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        let key = ItemKey {
            area: 2,
            day: 5,
            t: 500,
        };
        let manual = ds
            .orders(2)
            .iter()
            .filter(|o| o.day == 5 && o.ts >= 500 && o.ts < 510 && !o.valid)
            .count() as u32;
        assert_eq!(fx.gap(key), manual);
        let item = fx.extract(key);
        assert_eq!(item.gap, manual as f32);
    }

    #[test]
    fn busy_morning_has_nonzero_features() {
        let ds = SimDataset::generate(&SimConfig::smoke(33));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        // Find the busiest area.
        let busiest = (0..ds.n_areas() as u16)
            .max_by_key(|&a| ds.orders(a).len())
            .unwrap();
        let item = fx.extract(ItemKey {
            area: busiest,
            day: 10,
            t: 8 * 60 + 30,
        });
        assert!(
            item.v_sd.iter().sum::<f32>() > 0.0,
            "morning window should have orders"
        );
        assert!(
            item.h_sd.iter().sum::<f32>() > 0.0,
            "history should be populated by day 10"
        );
        assert!(item.traffic.iter().sum::<f32>() > 0.0);
    }

    #[test]
    fn weather_types_are_in_vocab() {
        let ds = SimDataset::generate(&SimConfig::smoke(34));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        let item = fx.extract(ItemKey {
            area: 1,
            day: 3,
            t: 700,
        });
        assert!(item.weather_types.iter().all(|&id| id < 10));
    }

    #[test]
    fn traffic_fractions_sum_to_one_per_minute() {
        let ds = SimDataset::generate(&SimConfig::smoke(35));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        let item = fx.extract(ItemKey {
            area: 0,
            day: 2,
            t: 600,
        });
        for chunk in item.traffic.chunks(4) {
            let s: f32 = chunk.iter().sum();
            assert!((s - 1.0).abs() < 0.05, "traffic fractions sum to {s}");
        }
    }

    #[test]
    fn extraction_is_deterministic_and_cache_transparent() {
        let ds = SimDataset::generate(&SimConfig::smoke(36));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        let key = ItemKey {
            area: 3,
            day: 9,
            t: 1000,
        };
        let a = fx.extract(key);
        let b = fx.extract(key); // second call served from cache
        assert_eq!(a.v_lc, b.v_lc);
        assert_eq!(a.h_lc, b.h_lc);
        assert_eq!(a.gap, b.gap);
    }

    #[test]
    fn stale_feed_serves_last_known_value() {
        let ds = SimDataset::generate(&SimConfig::smoke(38));
        let cfg = small_config();
        let key = ItemKey {
            area: 1,
            day: 6,
            t: 600,
        };
        let mut live_fx = FeatureExtractor::new(&ds, cfg.clone());
        let live = live_fx.extract(key);

        let mut stale_fx = FeatureExtractor::new(&ds, cfg.clone());
        // Outage covering the whole look-back window; last good minute
        // is 500, well within the default staleness budget.
        stale_fx
            .feed_health_mut()
            .add_day_outage(FeedKind::Weather, 6, 501, 700);
        let stale = stale_fx.extract(key);
        assert_eq!(
            stale_fx.feed_status(6, 600).weather,
            crate::FeedState::Stale { age_minutes: 99 }
        );
        // Every lag minute now reads the minute-500 observation.
        let w500 = ds.weather_at(SlotTime::new(6, 500));
        assert!(stale.weather_types.iter().all(|&id| id == w500.kind.id()));
        assert!(stale
            .weather_scalars
            .chunks(2)
            .all(|c| (c[0] - scale_temperature(w500.temperature)).abs() < 1e-6));
        // Order features are untouched by an env outage.
        assert_eq!(stale.v_sd, live.v_sd);
        assert_eq!(stale.h_sd, live.h_sd);
        assert_eq!(stale.traffic, live.traffic);
        assert!(stale.weather_scalars.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn down_feed_yields_neutral_features() {
        let ds = SimDataset::generate(&SimConfig::smoke(39));
        let cfg = small_config();
        let mut fx = FeatureExtractor::new(&ds, cfg);
        // Traffic out since the start of the day, far beyond the budget.
        fx.feed_health_mut().set_max_staleness(30);
        fx.feed_health_mut()
            .add_day_outage(FeedKind::Traffic, 6, 0, 1439);
        let item = fx.extract(ItemKey {
            area: 0,
            day: 6,
            t: 600,
        });
        assert_eq!(fx.feed_status(6, 600).traffic, crate::FeedState::Down);
        assert!(item.traffic.iter().all(|&v| v == 0.0));
        assert!(item.weather_scalars.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn history_next_differs_from_current() {
        let ds = SimDataset::generate(&SimConfig::smoke(37));
        let mut fx = FeatureExtractor::new(&ds, small_config());
        let busiest = (0..ds.n_areas() as u16)
            .max_by_key(|&a| ds.orders(a).len())
            .unwrap();
        let item = fx.extract(ItemKey {
            area: busiest,
            day: 12,
            t: 8 * 60,
        });
        // At the rising edge of the morning peak the history at t+10 must
        // differ from the history at t.
        assert_ne!(item.h_sd, item.h_sd_next);
    }

    fn all_keys(ds: &SimDataset, cfg: &FeatureConfig) -> Vec<ItemKey> {
        let mut keys = train_keys(ds.n_areas() as u16, 7..ds.n_days - 1, cfg);
        keys.extend(test_keys(
            ds.n_areas() as u16,
            ds.n_days - 1..ds.n_days,
            cfg,
        ));
        keys
    }

    #[test]
    fn streamed_extraction_matches_whole_dataset_extractor() {
        let config = SimConfig::smoke(41);
        let ds = SimDataset::generate(&config);
        let cfg = small_config();
        let mut fx = FeatureExtractor::new(&ds, cfg.clone());
        let mut sx = StreamingExtractor::new(StreamGenerator::new(&config), cfg.clone());
        for key in all_keys(&ds, &cfg) {
            assert_eq!(
                ItemSource::extract(&mut sx, key),
                fx.extract(key),
                "key {key:?}"
            );
        }
    }

    #[test]
    fn resident_budget_never_changes_items() {
        let config = SimConfig::smoke(42);
        let ds = SimDataset::generate(&config);
        let cfg = small_config();
        let keys = all_keys(&ds, &cfg);
        let mut unbounded = StreamingExtractor::new(StreamGenerator::new(&config), cfg.clone());
        // 1 MiB forces constant eviction at 14 days of traffic/orders.
        let mut tight = StreamingExtractor::new(StreamGenerator::new(&config), cfg.clone())
            .with_max_resident_mb(1);
        let a = unbounded.extract_all(&keys);
        let b = tight.extract_all(&keys);
        assert_eq!(a, b);
        assert_eq!(unbounded.resident_areas(), ds.n_areas());
        assert!(
            tight.resident_areas() < ds.n_areas(),
            "tight budget should have evicted ({} areas resident)",
            tight.resident_areas()
        );
    }

    #[test]
    fn chunked_container_source_matches_and_reports_io() {
        let config = SimConfig::smoke(43);
        let ds = SimDataset::generate(&config);
        let cfg = small_config();
        let blob = encode_dataset_v2(&ds);
        let reader = ChunkReader::open(Cursor::new(blob.to_vec())).expect("open");
        let mut sx = StreamingExtractor::new(reader, cfg.clone());
        let mut fx = FeatureExtractor::new(&ds, cfg.clone());
        let keys = all_keys(&ds, &cfg);
        assert_eq!(sx.extract_all(&keys), fx.extract_all(&keys));
        let stats = sx.io_stats();
        assert!(stats.chunks_read >= ds.n_areas() as u64);
        assert!(stats.bytes_read > 0);
    }

    #[test]
    fn missing_traffic_degrades_to_neutral_zeros() {
        let config = SimConfig::smoke(44);
        let cfg = small_config();
        let mut sx =
            StreamingExtractor::new(StreamGenerator::new(&config).without_traffic(), cfg.clone());
        let item = ItemSource::extract(
            &mut sx,
            ItemKey {
                area: 0,
                day: 8,
                t: 480,
            },
        );
        assert!(item.traffic.iter().all(|&v| v == 0.0));
        assert!(item.v_sd.iter().any(|&v| v != 0.0) || item.h_sd.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gap_and_feed_status_match_classic_extractor() {
        let config = SimConfig::smoke(45);
        let ds = SimDataset::generate(&config);
        let cfg = small_config();
        let mut fx = FeatureExtractor::new(&ds, cfg.clone());
        let mut sx = StreamingExtractor::new(StreamGenerator::new(&config), cfg);
        let key = ItemKey {
            area: 2,
            day: 9,
            t: 700,
        };
        assert_eq!(sx.gap(key), fx.gap(key));
        assert_eq!(sx.feed_status(9, 700), fx.feed_status(9, 700));
    }

    /// The in-memory extractor builds every area in `new`, on the
    /// calling thread. Built lazily, a served extractor would allocate
    /// its indexes on the engine thread, in another malloc arena, and
    /// raise peak RSS.
    #[test]
    fn in_memory_source_is_resident_after_new() {
        let ds = SimDataset::generate(&SimConfig::smoke(46));
        let fx = FeatureExtractor::new(&ds, small_config());
        assert_eq!(fx.resident_areas(), ds.n_areas());
        // Lazy sources still start empty.
        let config = SimConfig::smoke(46);
        let sx = StreamingExtractor::new(StreamGenerator::new(&config), small_config());
        assert_eq!(sx.resident_areas(), 0);
    }
}
