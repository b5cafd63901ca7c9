//! Item definitions and train/test grids (§VI-A of the paper).

use crate::config::FeatureConfig;
use std::ops::Range;

/// Identifies one prediction instance: predict the gap of area `area` in
/// `[t, t + C)` on day `day`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ItemKey {
    /// Area id.
    pub area: u16,
    /// Day index.
    pub day: u16,
    /// Timeslot (start of the prediction window).
    pub t: u16,
}

/// One fully extracted training/test instance. The default value is
/// empty, a buffer for reuse by item assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Item {
    /// Which prediction this is.
    pub key: ItemKey,
    /// Day-of-week (0 = Monday).
    pub weekday: u8,
    /// Ground-truth gap (number of invalid orders in `[t, t + C)`).
    pub gap: f32,
    /// Real-time supply-demand vector, scaled (`2L`).
    pub v_sd: Vec<f32>,
    /// Real-time last-call vector, scaled (`2L`).
    pub v_lc: Vec<f32>,
    /// Real-time waiting-time vector, scaled (`2L`).
    pub v_wt: Vec<f32>,
    /// Stacked weekday histories of `V_sd` at `t` (`7·2L`).
    pub h_sd: Vec<f32>,
    /// Stacked weekday histories of `V_sd` at `t + C` (`7·2L`).
    pub h_sd_next: Vec<f32>,
    /// Stacked weekday histories of `V_lc` at `t`.
    pub h_lc: Vec<f32>,
    /// Stacked weekday histories of `V_lc` at `t + C`.
    pub h_lc_next: Vec<f32>,
    /// Stacked weekday histories of `V_wt` at `t`.
    pub h_wt: Vec<f32>,
    /// Stacked weekday histories of `V_wt` at `t + C`.
    pub h_wt_next: Vec<f32>,
    /// Weather-type id per look-back minute (`L`, most recent first).
    pub weather_types: Vec<usize>,
    /// `(temperature, pm25)` per look-back minute, scaled (`2L`).
    pub weather_scalars: Vec<f32>,
    /// Traffic level fractions per look-back minute (`4L`).
    pub traffic: Vec<f32>,
}

/// Enumerates training item keys for the given areas and day range.
pub fn train_keys(n_areas: u16, days: Range<u16>, cfg: &FeatureConfig) -> Vec<ItemKey> {
    let slots = cfg.train_slots();
    let mut out = Vec::with_capacity(n_areas as usize * days.len() * slots.len());
    for day in days {
        for area in 0..n_areas {
            for &t in &slots {
                out.push(ItemKey { area, day, t });
            }
        }
    }
    out
}

/// Enumerates test item keys for the given areas and day range.
pub fn test_keys(n_areas: u16, days: Range<u16>, cfg: &FeatureConfig) -> Vec<ItemKey> {
    let slots = cfg.test_slots();
    let mut out = Vec::with_capacity(n_areas as usize * days.len() * slots.len());
    for day in days {
        for area in 0..n_areas {
            for &t in &slots {
                out.push(ItemKey { area, day, t });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_item_counts() {
        // §VI-A: 58 areas × 24 days × 283 slots = 393,936 training items.
        let cfg = FeatureConfig::default();
        let keys = train_keys(58, 0..24, &cfg);
        assert_eq!(keys.len(), 393_936);
    }

    #[test]
    fn test_keys_shape() {
        let cfg = FeatureConfig::default();
        let keys = test_keys(58, 24..52, &cfg);
        assert_eq!(keys.len(), 58 * 28 * 9);
    }

    #[test]
    fn keys_are_unique() {
        let cfg = FeatureConfig::default();
        let keys = train_keys(3, 0..2, &cfg);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
    }

    #[test]
    fn keys_respect_day_range() {
        let cfg = FeatureConfig::default();
        let keys = train_keys(2, 5..7, &cfg);
        assert!(keys.iter().all(|k| k.day == 5 || k.day == 6));
    }
}
