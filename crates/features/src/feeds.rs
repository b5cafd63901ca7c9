//! Environment feed health: staleness tracking and outage fallback.
//!
//! The weather and traffic feeds are exactly the inputs that drop out in
//! a real deployment (sensor gaps, upstream API outages). Instead of
//! assuming they are always present, the extractor consults a
//! [`FeedHealth`] schedule: during an outage it serves the last known
//! observation (reporting [`FeedState::Stale`]) until a staleness budget
//! is exhausted, after which the feed is [`FeedState::Down`] and the
//! serving layer zeroes the affected block's residual contribution
//! instead of crashing or feeding garbage.

use deepsd_simdata::{SlotTime, MINUTES_PER_DAY};

/// Which environment feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedKind {
    /// City-wide weather observations.
    Weather,
    /// Per-area traffic conditions.
    Traffic,
}

/// Health of one feed at a query time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedState {
    /// Fresh observations are available.
    Live,
    /// The feed is out; the last known value (this many minutes old) is
    /// being served instead.
    Stale {
        /// Age of the substituted observation in minutes.
        age_minutes: u32,
    },
    /// No observation within the staleness budget; the feed's features
    /// are neutralised and its model block should be skipped.
    Down,
}

impl FeedState {
    /// True unless the feed is fully live.
    pub fn is_degraded(&self) -> bool {
        *self != FeedState::Live
    }
}

impl std::fmt::Display for FeedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedState::Live => write!(f, "live"),
            FeedState::Stale { age_minutes } => write!(f, "stale({age_minutes}m)"),
            FeedState::Down => write!(f, "down"),
        }
    }
}

/// Health of both environment feeds at a query time, reported alongside
/// predictions so operators can see degraded serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedStatus {
    /// Weather feed state.
    pub weather: FeedState,
    /// Traffic feed state.
    pub traffic: FeedState,
}

impl FeedStatus {
    /// Both feeds live.
    pub fn all_live() -> FeedStatus {
        FeedStatus {
            weather: FeedState::Live,
            traffic: FeedState::Live,
        }
    }

    /// True when any feed is stale or down.
    pub fn degraded(&self) -> bool {
        self.weather.is_degraded() || self.traffic.is_degraded()
    }
}

impl std::fmt::Display for FeedStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "weather {}, traffic {}", self.weather, self.traffic)
    }
}

/// Default staleness budget: how old a substituted observation may be
/// before the feed counts as down (minutes).
pub const DEFAULT_MAX_STALENESS: u32 = 120;

/// Outage schedule plus staleness budget for the environment feeds.
///
/// The default has no outages and behaves exactly like the historical
/// always-live extraction at zero additional cost.
#[derive(Debug, Clone)]
pub struct FeedHealth {
    /// Half-open `[from, until)` absolute-minute weather outages.
    weather_outages: Vec<(u32, u32)>,
    /// Half-open `[from, until)` absolute-minute traffic outages.
    traffic_outages: Vec<(u32, u32)>,
    /// Staleness budget in minutes.
    max_staleness: u32,
}

impl Default for FeedHealth {
    fn default() -> Self {
        FeedHealth {
            weather_outages: Vec::new(),
            traffic_outages: Vec::new(),
            max_staleness: DEFAULT_MAX_STALENESS,
        }
    }
}

impl FeedHealth {
    /// An all-live schedule with an explicit staleness budget.
    pub fn with_max_staleness(max_staleness: u32) -> FeedHealth {
        FeedHealth {
            max_staleness,
            ..FeedHealth::default()
        }
    }

    /// The staleness budget in minutes.
    pub fn max_staleness(&self) -> u32 {
        self.max_staleness
    }

    /// Adjusts the staleness budget.
    pub fn set_max_staleness(&mut self, minutes: u32) {
        self.max_staleness = minutes;
    }

    /// Declares a `[from, until)` outage of one feed.
    ///
    /// # Panics
    /// Panics if the window is empty or reversed.
    pub fn add_outage(&mut self, kind: FeedKind, from: SlotTime, until: SlotTime) {
        let (a, b) = (from.absolute_minute(), until.absolute_minute());
        assert!(a < b, "empty outage window [{a}, {b})");
        self.outages_mut(kind).push((a, b));
    }

    /// Declares an outage covering minutes `[from_ts, until_ts)` of one
    /// day.
    pub fn add_day_outage(&mut self, kind: FeedKind, day: u16, from_ts: u16, until_ts: u16) {
        self.add_outage(
            kind,
            SlotTime::new(day, from_ts),
            SlotTime::new(day, until_ts),
        );
    }

    fn outages(&self, kind: FeedKind) -> &[(u32, u32)] {
        match kind {
            FeedKind::Weather => &self.weather_outages,
            FeedKind::Traffic => &self.traffic_outages,
        }
    }

    fn outages_mut(&mut self, kind: FeedKind) -> &mut Vec<(u32, u32)> {
        match kind {
            FeedKind::Weather => &mut self.weather_outages,
            FeedKind::Traffic => &mut self.traffic_outages,
        }
    }

    /// True when the feed has no observation at this absolute minute.
    pub fn is_out(&self, kind: FeedKind, abs_minute: u32) -> bool {
        self.outages(kind)
            .iter()
            .any(|&(a, b)| abs_minute >= a && abs_minute < b)
    }

    /// The most recent minute `<= abs_minute` with a live observation,
    /// or `None` if outages extend back past minute 0.
    pub fn last_good(&self, kind: FeedKind, abs_minute: u32) -> Option<u32> {
        let mut candidate = abs_minute;
        // Walk backwards across (possibly overlapping) outage intervals.
        loop {
            let covering = self
                .outages(kind)
                .iter()
                .filter(|&&(a, b)| candidate >= a && candidate < b)
                .map(|&(a, _)| a)
                .min();
            match covering {
                None => return Some(candidate),
                Some(0) => return None,
                // `start >= 1`: the `Some(0)` arm above returned already.
                Some(start) => candidate = start.saturating_sub(1),
            }
        }
    }

    /// Feed state at an absolute minute: live, stale within budget, or
    /// down.
    pub fn state_at(&self, kind: FeedKind, abs_minute: u32) -> FeedState {
        if !self.is_out(kind, abs_minute) {
            return FeedState::Live;
        }
        match self.last_good(kind, abs_minute) {
            // `last_good` never returns a minute ahead of `abs_minute`;
            // saturating keeps the age arithmetic panic-free regardless.
            Some(good) if abs_minute.saturating_sub(good) <= self.max_staleness => {
                FeedState::Stale {
                    age_minutes: abs_minute.saturating_sub(good),
                }
            }
            _ => FeedState::Down,
        }
    }

    /// Combined status of both feeds at a slot.
    pub fn status_at(&self, slot: SlotTime) -> FeedStatus {
        let abs = slot.absolute_minute();
        FeedStatus {
            weather: self.state_at(FeedKind::Weather, abs),
            traffic: self.state_at(FeedKind::Traffic, abs),
        }
    }

    /// The slot to actually read for a feed at `abs_minute`: the same
    /// minute when live, the last good minute when stale, `None` when
    /// down.
    pub fn read_slot(&self, kind: FeedKind, abs_minute: u32) -> Option<SlotTime> {
        let good = if self.is_out(kind, abs_minute) {
            let good = self.last_good(kind, abs_minute)?;
            if abs_minute.saturating_sub(good) > self.max_staleness {
                return None;
            }
            good
        } else {
            abs_minute
        };
        Some(SlotTime::new(
            (good / MINUTES_PER_DAY) as u16,
            (good % MINUTES_PER_DAY) as u16,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_always_live() {
        let h = FeedHealth::default();
        for abs in [0u32, 100, 10_000] {
            assert_eq!(h.state_at(FeedKind::Weather, abs), FeedState::Live);
            assert_eq!(h.state_at(FeedKind::Traffic, abs), FeedState::Live);
            assert_eq!(
                h.read_slot(FeedKind::Weather, abs)
                    .unwrap()
                    .absolute_minute(),
                abs
            );
        }
        assert!(!FeedStatus::all_live().degraded());
    }

    #[test]
    fn outage_serves_last_known_value_until_budget() {
        let mut h = FeedHealth::with_max_staleness(30);
        h.add_day_outage(FeedKind::Weather, 0, 100, 200);
        assert_eq!(h.state_at(FeedKind::Weather, 99), FeedState::Live);
        assert_eq!(
            h.state_at(FeedKind::Weather, 100),
            FeedState::Stale { age_minutes: 1 }
        );
        assert_eq!(
            h.state_at(FeedKind::Weather, 129),
            FeedState::Stale { age_minutes: 30 }
        );
        assert_eq!(h.state_at(FeedKind::Weather, 130), FeedState::Down);
        assert_eq!(h.state_at(FeedKind::Weather, 200), FeedState::Live);
        // Traffic untouched.
        assert_eq!(h.state_at(FeedKind::Traffic, 150), FeedState::Live);
        // Reads during the stale phase come from minute 99.
        assert_eq!(h.read_slot(FeedKind::Weather, 120).unwrap().ts, 99);
        assert_eq!(h.read_slot(FeedKind::Weather, 150), None);
    }

    #[test]
    fn overlapping_outages_chain_backwards() {
        let mut h = FeedHealth::with_max_staleness(10_000);
        h.add_day_outage(FeedKind::Traffic, 0, 50, 100);
        h.add_day_outage(FeedKind::Traffic, 0, 90, 150);
        assert_eq!(h.last_good(FeedKind::Traffic, 140), Some(49));
        assert_eq!(
            h.state_at(FeedKind::Traffic, 140),
            FeedState::Stale { age_minutes: 91 }
        );
    }

    #[test]
    fn outage_from_time_zero_is_down() {
        let mut h = FeedHealth::default();
        h.add_day_outage(FeedKind::Weather, 0, 0, 300);
        assert_eq!(h.last_good(FeedKind::Weather, 200), None);
        assert_eq!(h.state_at(FeedKind::Weather, 200), FeedState::Down);
        assert_eq!(h.read_slot(FeedKind::Weather, 200), None);
    }

    #[test]
    fn status_render_and_degraded_flag() {
        let mut h = FeedHealth::with_max_staleness(60);
        h.add_day_outage(FeedKind::Weather, 0, 400, 420);
        let status = h.status_at(SlotTime::new(0, 410));
        assert!(status.degraded());
        assert_eq!(status.traffic, FeedState::Live);
        let text = status.to_string();
        assert!(
            text.contains("stale") && text.contains("traffic live"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "empty outage")]
    fn rejects_reversed_window() {
        let mut h = FeedHealth::default();
        h.add_outage(
            FeedKind::Weather,
            SlotTime::new(0, 100),
            SlotTime::new(0, 100),
        );
    }
}
