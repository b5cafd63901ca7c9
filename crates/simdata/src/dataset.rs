//! Dataset assembly: one call generates the full simulated analogue of
//! the Didi Di-Tech competition data — orders, weather and traffic for a
//! configurable number of areas and days.

use crate::city::{City, CityConfig};
use crate::orders::OrderGenConfig;
use crate::stream::{AreaBlock, AreaSource, SourceError, StreamGenerator};
use crate::types::{Order, SlotTime, TrafficObs, WeatherObs, MINUTES_PER_DAY};
use crate::weather::WeatherConfig;

/// Full simulation configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// City layout parameters.
    pub city: CityConfig,
    /// Number of simulated days (the paper spans 52: 24 train + 28 test).
    pub n_days: u16,
    /// Weather process parameters.
    pub weather: WeatherConfig,
    /// Order generation parameters.
    pub orders: OrderGenConfig,
}

impl SimConfig {
    /// A small configuration for unit tests: 6 areas, 2 weeks.
    pub fn smoke(seed: u64) -> Self {
        SimConfig {
            city: CityConfig { n_areas: 6, seed },
            n_days: 14,
            weather: WeatherConfig::default(),
            orders: OrderGenConfig::default(),
        }
    }

    /// The paper-shaped configuration: 58 areas, 52 days (24 train +
    /// 28 test).
    pub fn paper(seed: u64) -> Self {
        SimConfig {
            city: CityConfig { n_areas: 58, seed },
            n_days: 52,
            weather: WeatherConfig::default(),
            orders: OrderGenConfig::default(),
        }
    }
}

/// A complete simulated dataset, held whole in memory.
///
/// As an [`AreaSource`] (through `&SimDataset`) it lends every area's
/// orders and traffic without copying.
#[derive(Debug, Clone)]
pub struct SimDataset {
    /// The instantiated city.
    pub city: City,
    /// Number of simulated days.
    pub n_days: u16,
    /// City-wide weather, indexed by `day * 1440 + minute`.
    weather: Vec<WeatherObs>,
    /// Traffic per area, area-major: `(area * n_days + day) * 1440 + minute`.
    traffic: Vec<TrafficObs>,
    /// Orders grouped by start area, chronological within an area.
    orders_by_area: Vec<Vec<Order>>,
}

impl SimDataset {
    /// Generates the dataset deterministically from its configuration.
    ///
    /// Areas are generated in parallel by the per-area generator
    /// [`StreamGenerator`] uses; per-area RNG streams are keyed by
    /// `(seed, area)` so the output is independent of thread scheduling.
    pub fn generate(config: &SimConfig) -> SimDataset {
        let gen = StreamGenerator::new(config);
        let n_areas = gen.n_areas();
        let span = config.n_days as usize * MINUTES_PER_DAY as usize;

        let mut orders_by_area: Vec<Vec<Order>> = vec![Vec::new(); n_areas];
        let mut traffic = vec![TrafficObs::default(); n_areas * span];

        // Parallel per-area generation. Each area writes to disjoint
        // output slices, so a scoped spawn per run of areas is race-free.
        let threads = std::thread::available_parallelism()
            .map_or(4, |n| n.get())
            .min(n_areas.max(1));
        let mut work: Vec<(u16, &mut [TrafficObs], &mut Vec<Order>)> = traffic
            .chunks_mut(span)
            .zip(orders_by_area.iter_mut())
            .enumerate()
            .map(|(a, (t, o))| (a as u16, t, o))
            .collect();
        let gen_ref = &gen;
        std::thread::scope(|scope| {
            let per_thread = work.len().div_ceil(threads);
            while !work.is_empty() {
                let batch: Vec<_> = work.drain(..per_thread.min(work.len())).collect();
                scope.spawn(move || {
                    for (area, traffic_out, orders_out) in batch {
                        let block = gen_ref.generate_area(area);
                        traffic_out.copy_from_slice(&block.traffic);
                        *orders_out = block.orders;
                    }
                });
            }
        });

        let (city, weather) = gen.into_parts();
        SimDataset {
            city,
            n_days: config.n_days,
            weather,
            traffic,
            orders_by_area,
        }
    }

    /// Number of areas.
    pub fn n_areas(&self) -> usize {
        self.city.n_areas()
    }

    /// Weather at a timeslot.
    pub fn weather_at(&self, t: SlotTime) -> &WeatherObs {
        &self.weather[t.day as usize * MINUTES_PER_DAY as usize + t.ts as usize]
    }

    /// The full city-wide weather stream, indexed by `day * 1440 + minute`.
    pub fn weather(&self) -> &[WeatherObs] {
        &self.weather
    }

    /// One area's full traffic stream, day-major (`day * 1440 + minute`).
    // deepsd-lint: allow(panic-reach, reason="area bounded by per-area tables sized from the city config")
    pub fn area_traffic(&self, area: u16) -> &[TrafficObs] {
        let span = self.n_days as usize * MINUTES_PER_DAY as usize;
        let start = area as usize * span;
        &self.traffic[start..start + span]
    }

    /// Traffic condition of an area at a timeslot.
    pub fn traffic_at(&self, area: u16, t: SlotTime) -> &TrafficObs {
        let slots = MINUTES_PER_DAY as usize;
        let idx = (area as usize * self.n_days as usize + t.day as usize) * slots + t.ts as usize;
        &self.traffic[idx]
    }

    /// All orders starting in an area, chronological.
    // deepsd-lint: allow(panic-reach, reason="area bounded by per-area tables sized from the city config")
    pub fn orders(&self, area: u16) -> &[Order] {
        &self.orders_by_area[area as usize]
    }

    /// Total number of orders across all areas.
    pub fn total_orders(&self) -> usize {
        self.orders_by_area.iter().map(|o| o.len()).sum()
    }

    /// Total number of invalid (unanswered) orders.
    pub fn total_invalid(&self) -> usize {
        self.orders_by_area
            .iter()
            .flat_map(|o| o.iter())
            .filter(|o| !o.valid)
            .count()
    }
}

/// The in-memory source: no I/O and no residency cap, and
/// [`AreaSource::borrow_area`] lends every area, so an extractor over it
/// indexes the whole city up front instead of copying blocks.
impl AreaSource for &SimDataset {
    fn city(&self) -> &City {
        &self.city
    }

    fn n_days(&self) -> u16 {
        self.n_days
    }

    fn weather(&self) -> &[WeatherObs] {
        &self.weather
    }

    fn has_traffic(&self) -> bool {
        true
    }

    fn area_block(&mut self, area: u16) -> Result<AreaBlock, SourceError> {
        let (orders, traffic) = self
            .borrow_area(area)
            .ok_or_else(|| SourceError(format!("area {area} out of range")))?;
        Ok(AreaBlock {
            area,
            orders: orders.to_vec(),
            traffic: traffic.to_vec(),
        })
    }

    fn borrow_area(&self, area: u16) -> Option<(&[Order], &[TrafficObs])> {
        if usize::from(area) >= self.n_areas() {
            return None;
        }
        Some((self.orders(area), self.area_traffic(area)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dataset_generates() {
        let ds = SimDataset::generate(&SimConfig::smoke(5));
        assert_eq!(ds.n_areas(), 6);
        assert_eq!(ds.n_days, 14);
        assert!(ds.total_orders() > 10_000, "orders = {}", ds.total_orders());
        assert!(ds.total_invalid() > 0);
    }

    #[test]
    fn generation_is_deterministic_despite_threads() {
        let a = SimDataset::generate(&SimConfig::smoke(6));
        let b = SimDataset::generate(&SimConfig::smoke(6));
        assert_eq!(a.total_orders(), b.total_orders());
        for area in 0..a.n_areas() as u16 {
            assert_eq!(a.orders(area), b.orders(area));
        }
        let t = SlotTime::new(3, 500);
        for area in 0..a.n_areas() as u16 {
            assert_eq!(a.traffic_at(area, t), b.traffic_at(area, t));
        }
        assert_eq!(a.weather_at(t), b.weather_at(t));
    }

    #[test]
    fn accessors_are_consistent() {
        let ds = SimDataset::generate(&SimConfig::smoke(7));
        // Orders report the area they are stored under.
        for area in 0..ds.n_areas() as u16 {
            assert!(ds.orders(area).iter().all(|o| o.loc_start == area));
        }
        // Traffic exists at the corners of the index space.
        let first = SlotTime::new(0, 0);
        let last = SlotTime::new(ds.n_days - 1, (MINUTES_PER_DAY - 1) as u16);
        for area in [0u16, (ds.n_areas() - 1) as u16] {
            assert!(ds.traffic_at(area, first).total_segments() > 0);
            assert!(ds.traffic_at(area, last).total_segments() > 0);
        }
    }

    #[test]
    fn weekly_periodicity_is_visible_in_order_counts() {
        // Same weekday on consecutive weeks should correlate more than
        // different weekdays — the structural assumption behind the
        // paper's per-weekday histories.
        let ds = SimDataset::generate(&SimConfig::smoke(8));
        let daily: Vec<usize> = (0..ds.n_days)
            .map(|d| {
                (0..ds.n_areas() as u16)
                    .map(|a| ds.orders(a).iter().filter(|o| o.day == d).count())
                    .sum()
            })
            .collect();
        // Compare day 2 (Wed week 1) with day 9 (Wed week 2) vs day 5
        // (Sat week 1): the Wednesday pair should differ less.
        let wed_pair = (daily[2] as f64 - daily[9] as f64).abs();
        let wed_sat = (daily[2] as f64 - daily[5] as f64).abs();
        assert!(
            wed_pair < wed_sat * 1.5 + daily[2] as f64 * 0.25,
            "weekly periodicity too weak: {daily:?}"
        );
    }

    #[test]
    fn invalid_fraction_is_moderate() {
        let ds = SimDataset::generate(&SimConfig::smoke(9));
        let frac = ds.total_invalid() as f64 / ds.total_orders() as f64;
        assert!((0.01..0.4).contains(&frac), "invalid fraction = {frac}");
    }
}
