//! The feature extractor: turns `(area, day, t)` keys into fully
//! populated [`Item`]s over any [`AreaSource`], plus the [`ItemSource`]
//! abstraction the trainer and the serving path consume.
//!
//! [`StreamingExtractor`] is the only extractor. It keeps per-area state
//! (order index and traffic stream, nothing else) resident, loading
//! areas on demand from its source and evicting in deterministic FIFO
//! order when over an optional memory budget. Over an in-memory
//! `&SimDataset` ([`FeatureExtractor`]) it borrows every area's orders
//! and traffic and builds all areas up front; over a chunked container
//! reader or a chunked generator it builds areas lazily.
//!
//! Evictions are invisible in the output: per-area state is a pure
//! function of the source, so a rebuilt area yields bit-identical items,
//! and every source funnels through the same `assemble_item` code path,
//! which makes streamed and in-memory extraction bit-identical by
//! construction (asserted in tests). Item assembly keeps no state of
//! its own: real-time vectors and weekday histories are computed from
//! the index for each item (see [`crate::history`]), so resident memory
//! does not grow with the number of slots served.

use crate::config::FeatureConfig;
use crate::feeds::{FeedHealth, FeedKind, FeedStatus};
use crate::history::HistoryStacks;
use crate::index::AreaIndex;
use crate::items::{Item, ItemKey};
use crate::scaling::{scale_counts, scale_pm25, scale_temperature};
use crate::vectors::{v_lc_wt, v_sd};
use deepsd_simdata::codec::ReadStats;
use deepsd_simdata::stream::AreaSource;
use deepsd_simdata::{SimDataset, SlotTime, TrafficObs, WeatherObs, MINUTES_PER_DAY};
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
    fn extract_with_realtime(
        &mut self,
        key: ItemKey,
        v_sd_raw: &[f32],
        v_lc_raw: &[f32],
        v_wt_raw: &[f32],
    ) -> Item;
    /// Cumulative data-plane I/O statistics (zeros for in-memory
    /// sources); feeds the `data_chunks_read_total` /
    /// `data_bytes_read_total` telemetry counters.
    fn io_stats(&self) -> ReadStats {
        ReadStats::default()
    }
    /// Lends a read-only view of every area's resident state, so that
    /// several threads can assemble the items of different areas at
    /// once; areas are made resident first where no load can evict.
    /// `None` when some area is not resident (a resident budget smaller
    /// than the city) or the source keeps no such state; callers then
    /// assemble items one at a time through
    /// [`ItemSource::extract_with_realtime`].
    fn resident_view(&mut self) -> Option<ResidentAreas<'_>> {
        None
    }
}

/// A read-only, `Sync` view of every area's resident extraction state
/// and the shared environment streams, lent by
/// [`ItemSource::resident_view`]. Items assembled through it equal
/// those of [`ItemSource::extract_with_realtime`] bit for bit: both go
/// through the one item assembly function.
pub struct ResidentAreas<'a> {
    config: &'a FeatureConfig,
    feed_health: &'a FeedHealth,
    weather: &'a [WeatherObs],
    /// Order index and traffic stream per area, in area order.
    areas: Vec<(&'a AreaIndex, &'a [TrafficObs])>,
}

impl ResidentAreas<'_> {
    /// Assembles the item of `key` around the given *raw* real-time
    /// vectors `[v_sd, v_lc, v_wt]` into `out`, reusing its buffers.
    /// Returns `false`, leaving `out` untouched, when `key.area` is
    /// outside the view. The vectors must be `2L` wide, as
    /// [`ItemSource::extract_with_realtime`] asserts.
    pub fn assemble_into(&self, out: &mut Item, key: ItemKey, realtime: [&[f32]; 3]) -> bool {
        let Some(&(index, traffic)) = self.areas.get(usize::from(key.area)) else {
            return false;
        };
        assemble_item(
            out,
            self.config,
            self.feed_health,
            index,
            self.weather,
            traffic,
            key,
            Some(realtime),
        );
        true
    }
}

/// Resident per-area extraction state: everything needed to assemble
/// items for one area without touching the source again. `traffic` is
/// empty when the source lends the area's traffic instead.
struct AreaState {
    index: AreaIndex,
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
            // Deterministic size of the state this extractor owns: the
            // index's tables and the owned traffic.
            let approx_bytes =
                index.heap_bytes() + traffic.len() * std::mem::size_of::<TrafficObs>();
            self.states[slot] = Some(AreaState {
                index,
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

    /// Assembles the item of `key`, with the given raw real-time vectors
    /// or, when `None`, those of the area's index.
    ///
    /// # Panics
    /// As [`ItemSource::extract`].
    // deepsd-lint: allow(panic-reach, reason="area is asserted in range by ensure_area on the same request path")
    fn assemble(&mut self, key: ItemKey, realtime: Option<[&[f32]; 3]>) -> Item {
        self.ensure_area(key.area);
        let state = match self.states[usize::from(key.area)].as_ref() {
            Some(s) => s,
            None => unreachable!("state ensured above"),
        };
        let traffic = match self.source.borrow_area(key.area) {
            Some((_, traffic)) => traffic,
            None => &state.traffic,
        };
        let mut item = Item::default();
        assemble_item(
            &mut item,
            &self.config,
            &self.feed_health,
            &state.index,
            self.source.weather(),
            traffic,
            key,
            realtime,
        );
        item
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
    fn extract(&mut self, key: ItemKey) -> Item {
        self.assemble(key, None)
    }

    /// Assembles the item around the given real-time vectors; the
    /// index's own real-time vectors are never computed.
    // deepsd-lint: allow(panic-reach, reason="width guards; vector builders emit exactly dim elements")
    fn extract_with_realtime(
        &mut self,
        key: ItemKey,
        v_sd_raw: &[f32],
        v_lc_raw: &[f32],
        v_wt_raw: &[f32],
    ) -> Item {
        let dim = self.config.vector_dim();
        assert_eq!(v_sd_raw.len(), dim, "v_sd width");
        assert_eq!(v_lc_raw.len(), dim, "v_lc width");
        assert_eq!(v_wt_raw.len(), dim, "v_wt width");
        self.assemble(key, Some([v_sd_raw, v_lc_raw, v_wt_raw]))
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

    /// Without a resident budget, loads the missing areas in area
    /// order, as a serial pass over the city would. Under a budget it
    /// loads nothing, since a load could evict: the view then exists
    /// once serial passes have made every area resident, which they do
    /// only when the city fits the budget. Either way the loads are
    /// those of serial passes, so asking costs no extra I/O.
    fn resident_view(&mut self) -> Option<ResidentAreas<'_>> {
        if self.max_resident_bytes == usize::MAX {
            for area in 0..self.states.len() {
                if self.states.get(area).is_some_and(Option::is_none) {
                    self.ensure_area(u16::try_from(area).ok()?);
                }
            }
        }
        let source = &self.source;
        let areas = (0u16..)
            .zip(&self.states)
            .map(|(area, state)| {
                let state = state.as_ref()?;
                let traffic = match source.borrow_area(area) {
                    Some((_, traffic)) => traffic,
                    None => state.traffic.as_slice(),
                };
                Some((&state.index, traffic))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ResidentAreas {
            config: &self.config,
            feed_health: &self.feed_health,
            weather: source.weather(),
            areas,
        })
    }
}

/// Assembles one feature item from per-area state plus the shared
/// environment streams into `out`, whose buffers are reused: the single
/// extraction code path, whatever the [`AreaSource`].
///
/// `weather` is the city-wide stream (`day * 1440 + minute`); `traffic`
/// is the area's day-major stream, or empty when no traffic data exists
/// (traffic features then degrade to the same neutral zeros a down feed
/// yields). `realtime` replaces the index's raw `[v_sd, v_lc, v_wt]`
/// (the serving path passes its live window's).
#[allow(clippy::too_many_arguments)]
// deepsd-lint: allow(panic-reach, reason="weather table is sized n_days*slots by the dataset generator")
fn assemble_item(
    out: &mut Item,
    cfg: &FeatureConfig,
    feed_health: &FeedHealth,
    index: &AreaIndex,
    weather: &[WeatherObs],
    traffic: &[TrafficObs],
    key: ItemKey,
    realtime: Option<[&[f32]; 3]>,
) {
    let l = cfg.window_l;
    let slots = MINUTES_PER_DAY as usize;

    match realtime {
        Some(raw) => {
            for (v, r) in [&mut out.v_sd, &mut out.v_lc, &mut out.v_wt]
                .into_iter()
                .zip(raw)
            {
                v.clear();
                v.extend_from_slice(r);
            }
        }
        None => {
            let (lc, wt) = v_lc_wt(index, key.day, key.t, l);
            out.v_sd = v_sd(index, key.day, key.t, l);
            out.v_lc = lc;
            out.v_wt = wt;
        }
    }
    let mut h = HistoryStacks {
        sd: std::mem::take(&mut out.h_sd),
        sd_next: std::mem::take(&mut out.h_sd_next),
        lc: std::mem::take(&mut out.h_lc),
        lc_next: std::mem::take(&mut out.h_lc_next),
        wt: std::mem::take(&mut out.h_wt),
        wt_next: std::mem::take(&mut out.h_wt_next),
    };
    h.fill(index, cfg, key.day, key.t);
    for v in [&mut out.v_sd, &mut out.v_lc, &mut out.v_wt] {
        scale_counts(v);
    }
    for v in h.all_mut() {
        scale_counts(v);
    }
    out.h_sd = h.sd;
    out.h_sd_next = h.sd_next;
    out.h_lc = h.lc;
    out.h_lc_next = h.lc_next;
    out.h_wt = h.wt;
    out.h_wt_next = h.wt_next;

    // Environment features over the look-back window, most recent
    // minute first (lag ℓ = 1..=L). Each lookup routes through the
    // feed health schedule: live minutes read directly, stale
    // minutes read the last known observation, down minutes yield
    // neutral zeros (the serving layer additionally skips the
    // affected residual block).
    let weather_types = &mut out.weather_types;
    let weather_scalars = &mut out.weather_scalars;
    let traffic_out = &mut out.traffic;
    weather_types.clear();
    weather_types.reserve_exact(l);
    weather_scalars.clear();
    weather_scalars.reserve_exact(2 * l);
    traffic_out.clear();
    traffic_out.reserve_exact(4 * l);
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

    out.key = key;
    out.weekday = SlotTime::new(key.day, key.t).weekday() as u8;
    out.gap = index.gap(key.day, key.t, cfg.horizon) as f32;
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
        let b = fx.extract(key);
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

    /// Items assembled through the resident view, into reused buffers,
    /// equal `extract_with_realtime`'s, over in-memory and lazy sources.
    #[test]
    fn resident_view_assembles_the_same_items() {
        fn assert_sync<T: Sync>(_: &T) {}
        let config = SimConfig::smoke(47);
        let ds = SimDataset::generate(&config);
        let cfg = small_config();
        let dim = cfg.vector_dim();
        let raw = |area: u16, k: usize| -> Vec<f32> {
            (0..dim)
                .map(|i| ((area as usize + i * k) % 5) as f32)
                .collect()
        };
        let mut reference = FeatureExtractor::new(&ds, cfg.clone());
        let mut in_memory = FeatureExtractor::new(&ds, cfg.clone());
        let mut lazy = StreamingExtractor::new(StreamGenerator::new(&config), cfg.clone());
        let mut item = Item::default();
        for (day, t) in [(8u16, 480u16), (9, 10), (12, 1439)] {
            for fx in [
                &mut in_memory as &mut dyn ItemSource,
                &mut lazy as &mut dyn ItemSource,
            ] {
                let view = fx.resident_view().expect("unbounded source holds the city");
                assert_sync(&view);
                for area in 0..ds.n_areas() as u16 {
                    let key = ItemKey { area, day, t };
                    let (sd, lc, wt) = (raw(area, 1), raw(area, 2), raw(area, 3));
                    assert!(view.assemble_into(&mut item, key, [&sd, &lc, &wt]));
                    assert_eq!(item, reference.extract_with_realtime(key, &sd, &lc, &wt));
                }
                let outside = ItemKey {
                    area: ds.n_areas() as u16,
                    day,
                    t,
                };
                let before = item.clone();
                assert!(!view.assemble_into(&mut item, outside, [&[], &[], &[]]));
                assert_eq!(item, before);
            }
        }
        assert_eq!(lazy.resident_areas(), ds.n_areas());
    }

    /// A budget smaller than the city lends no view, and asking loads
    /// nothing: the I/O is that of the serial passes alone. A budget the
    /// city fits lends one once a serial pass has loaded every area.
    #[test]
    fn resident_view_needs_the_whole_city() {
        let ds = SimDataset::generate(&SimConfig::smoke(48));
        let n_areas = ds.n_areas();
        let blob = encode_dataset_v2(&ds).to_vec();
        let open = || {
            let reader = ChunkReader::open(Cursor::new(blob.clone())).expect("open");
            StreamingExtractor::new(reader, small_config()).with_max_resident_mb(1)
        };
        let mut tight = open();
        assert!(tight.resident_view().is_none());
        assert!(tight.resident_areas() < n_areas);
        let mut reference = open();
        let key = |area| ItemKey {
            area,
            day: 9,
            t: 600,
        };
        // Ask again between serial passes: I/O stays that of the passes.
        for _ in 0..2 {
            assert!(tight.resident_view().is_none());
            for area in 0..n_areas as u16 {
                assert_eq!(tight.extract(key(area)), reference.extract(key(area)));
            }
        }
        assert_eq!(tight.io_stats(), reference.io_stats());

        let reader = ChunkReader::open(Cursor::new(blob.clone())).expect("open");
        let mut roomy = StreamingExtractor::new(reader, small_config()).with_max_resident_mb(1024);
        assert!(roomy.resident_view().is_none());
        assert_eq!(roomy.resident_areas(), 0);
        for area in 0..n_areas as u16 {
            roomy.extract(key(area));
        }
        assert!(roomy.resident_view().is_some());
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
