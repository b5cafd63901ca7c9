//! Chunked, per-area data production — the streaming face of the
//! simulator.
//!
//! A 10k-area city is ~170× the paper's 58 areas; holding its orders and
//! traffic whole (as [`SimDataset`](crate::SimDataset) does) costs tens of gigabytes. The
//! [`AreaSource`] trait is the bounded-memory alternative: the city
//! layout and the city-wide weather stream stay resident (both are
//! small — weather is `n_days * 1440` observations regardless of city
//! size), while per-area [`AreaBlock`]s are produced on demand and can
//! be dropped by the caller as soon as they are consumed.
//!
//! Three sources implement the trait:
//!
//! * [`StreamGenerator`] — generates blocks area by area;
//!   [`SimDataset::generate`](crate::SimDataset::generate) runs the same
//!   per-area generator over every area, so the two are bit-identical;
//! * `ChunkReader` (in [`crate::codec`]) — reads blocks from a
//!   `DEEPSD-DATA2` chunked container;
//! * `&SimDataset` — the whole city in memory, lent area by area through
//!   [`AreaSource::borrow_area`].

use crate::city::City;
use crate::dataset::SimConfig;
use crate::orders::generate_area_orders;
use crate::traffic::generate_area_traffic;
use crate::types::{Order, TrafficObs, WeatherObs};
use crate::weather::generate_weather;
use deepsd_rng::Rng;

/// One area's complete data: chronological orders plus (optionally) the
/// per-minute traffic stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaBlock {
    /// Area id.
    pub area: u16,
    /// Chronological orders starting in this area.
    pub orders: Vec<Order>,
    /// Traffic stream, day-major (`day * 1440 + minute`,
    /// `n_days * 1440` entries), or empty when traffic was not
    /// generated / stored.
    pub traffic: Vec<TrafficObs>,
}

/// Error surfaced by fallible area sources (e.g. a corrupt or truncated
/// chunk on disk). Generated and in-memory sources never fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError(pub String);

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "area source: {}", self.0)
    }
}

impl std::error::Error for SourceError {}

/// Bounded-memory access to a (possibly enormous) dataset.
///
/// Implementations keep only the shared small parts resident (city
/// layout, weather); everything that scales with the number of areas is
/// delivered one [`AreaBlock`] at a time via [`AreaSource::area_block`].
pub trait AreaSource {
    /// The instantiated city layout.
    fn city(&self) -> &City;
    /// Number of simulated days.
    fn n_days(&self) -> u16;
    /// City-wide weather stream, indexed by `day * 1440 + minute`.
    fn weather(&self) -> &[WeatherObs];
    /// Whether [`AreaSource::area_block`] yields traffic observations.
    fn has_traffic(&self) -> bool;
    /// Produces one area's block.
    fn area_block(&mut self, area: u16) -> Result<AreaBlock, SourceError>;
    /// Number of areas.
    fn n_areas(&self) -> usize {
        self.city().n_areas()
    }
    /// Cumulative I/O statistics, for sources that actually read bytes
    /// (the chunked container reader). Generated and in-memory sources
    /// report zeros.
    fn read_stats(&self) -> crate::codec::ReadStats {
        crate::codec::ReadStats::default()
    }
    /// Lends one area's orders and traffic without copying, for sources
    /// that already hold them in memory. `None` (the default) means the
    /// caller must go through [`AreaSource::area_block`].
    fn borrow_area(&self, _area: u16) -> Option<(&[Order], &[TrafficObs])> {
        None
    }
}

/// Generates a dataset one area at a time, never holding more than one
/// area's orders and traffic.
///
/// Bit-identical to [`SimDataset::generate`](crate::SimDataset::generate),
/// which seeds its city and weather through [`StreamGenerator::new`] and
/// runs [`StreamGenerator::generate_area`] on parallel workers; per-area
/// order and traffic streams are keyed by `(seed, area)`.
pub struct StreamGenerator {
    config: SimConfig,
    city: City,
    weather: Vec<WeatherObs>,
    include_traffic: bool,
}

impl StreamGenerator {
    /// Instantiates the city and weather (the small, shared parts).
    ///
    /// # Panics
    /// Panics if `config.n_days == 0`.
    pub fn new(config: &SimConfig) -> StreamGenerator {
        assert!(config.n_days > 0, "dataset needs at least one day");
        let mut rng = Rng::seed_from_u64(config.city.seed);
        let city = City::generate(config.city.clone(), &mut rng);
        let weather = generate_weather(config.n_days, &config.weather, &mut rng);
        StreamGenerator {
            config: config.clone(),
            city,
            weather,
            include_traffic: true,
        }
    }

    /// Disables traffic generation: blocks come back with empty traffic
    /// streams.
    ///
    /// Traffic dominates generation cost and storage (1440 observations
    /// per area-day), so very large scale sweeps can skip it and train
    /// without the environment block.
    pub fn without_traffic(mut self) -> StreamGenerator {
        self.include_traffic = false;
        self
    }

    /// Generates one area's block. Takes `&self`, so whole-city
    /// generation can run areas on parallel workers.
    // deepsd-lint: allow(panic-reach, reason="area < n_areas is checked by the extractor before a block is requested")
    pub(crate) fn generate_area(&self, area: u16) -> AreaBlock {
        let a = &self.city.areas[area as usize];
        let orders = generate_area_orders(
            &self.city,
            a,
            self.config.n_days,
            &self.weather,
            &self.config.orders,
            self.config.city.seed,
        );
        let traffic = if self.include_traffic {
            generate_area_traffic(
                a,
                area as usize,
                self.config.n_days,
                &self.weather,
                self.config.city.seed,
            )
        } else {
            Vec::new()
        };
        AreaBlock {
            area,
            orders,
            traffic,
        }
    }

    /// Consumes the generator, returning the city and weather.
    pub(crate) fn into_parts(self) -> (City, Vec<WeatherObs>) {
        (self.city, self.weather)
    }
}

impl AreaSource for StreamGenerator {
    fn city(&self) -> &City {
        &self.city
    }

    fn n_days(&self) -> u16 {
        self.config.n_days
    }

    fn weather(&self) -> &[WeatherObs] {
        &self.weather
    }

    fn has_traffic(&self) -> bool {
        self.include_traffic
    }

    fn area_block(&mut self, area: u16) -> Result<AreaBlock, SourceError> {
        Ok(self.generate_area(area))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SimDataset;

    #[test]
    fn stream_generator_matches_whole_city_generation() {
        let config = SimConfig::smoke(11);
        let ds = SimDataset::generate(&config);
        let mut sg = StreamGenerator::new(&config);
        // The in-memory source serves the same blocks, copied or lent.
        let mut mem = &ds;
        assert_eq!(sg.n_days(), ds.n_days);
        assert_eq!(sg.n_areas(), ds.n_areas());
        assert_eq!(mem.n_days(), ds.n_days);
        assert_eq!(AreaSource::n_areas(&mem), ds.n_areas());
        assert_eq!(sg.weather(), SimDataset::weather(&ds));
        assert_eq!(AreaSource::weather(&mem), SimDataset::weather(&ds));
        for area in 0..ds.n_areas() as u16 {
            let block = sg.area_block(area).unwrap();
            assert_eq!(block.area, area);
            assert_eq!(block.orders, ds.orders(area), "orders area {area}");
            assert_eq!(block.traffic, ds.area_traffic(area), "traffic area {area}");
            assert_eq!(mem.area_block(area).unwrap(), block, "copied area {area}");
            let (orders, traffic) = mem.borrow_area(area).unwrap();
            assert_eq!((orders, traffic), (&block.orders[..], &block.traffic[..]));
        }
        assert!(sg.borrow_area(0).is_none());
        assert!(mem.area_block(ds.n_areas() as u16).is_err());
    }

    #[test]
    fn without_traffic_skips_the_expensive_stream() {
        let mut sg = StreamGenerator::new(&SimConfig::smoke(11)).without_traffic();
        assert!(!sg.has_traffic());
        let block = sg.area_block(0).unwrap();
        assert!(block.traffic.is_empty());
        assert!(!block.orders.is_empty());
    }
}
