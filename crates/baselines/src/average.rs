//! The Empirical Average baseline (§VI-C): for each `(area, timeslot)`
//! the prediction is the mean historical gap at that slot over the
//! training days.

use deepsd_features::{ItemKey, ItemSource};
use std::collections::HashMap;

/// Empirical-average gap predictor.
#[derive(Debug, Clone, Default)]
pub struct EmpiricalAverage {
    by_slot: HashMap<(u16, u16), f32>,
    by_area: HashMap<u16, f32>,
    global: f32,
}

impl EmpiricalAverage {
    /// Fits the averages from training keys (gaps come from the
    /// extractor's ground truth).
    pub fn fit(extractor: &mut impl ItemSource, keys: &[ItemKey]) -> Self {
        assert!(!keys.is_empty(), "no training keys");
        let mut slot_sum: HashMap<(u16, u16), (f64, u32)> = HashMap::new();
        let mut area_sum: HashMap<u16, (f64, u32)> = HashMap::new();
        let mut total = 0.0f64;
        for &key in keys {
            let gap = extractor.gap(key) as f64;
            let s = slot_sum.entry((key.area, key.t)).or_insert((0.0, 0));
            s.0 += gap;
            s.1 += 1;
            let a = area_sum.entry(key.area).or_insert((0.0, 0));
            a.0 += gap;
            a.1 += 1;
            total += gap;
        }
        EmpiricalAverage {
            by_slot: slot_sum
                .into_iter()
                .map(|(k, (s, c))| (k, (s / c as f64) as f32))
                .collect(),
            by_area: area_sum
                .into_iter()
                .map(|(k, (s, c))| (k, (s / c as f64) as f32))
                .collect(),
            global: (total / keys.len() as f64) as f32,
        }
    }

    /// Predicts the gap for a key: the slot average when the slot was
    /// seen in training, else the area average, else the global mean.
    pub fn predict(&self, key: ItemKey) -> f32 {
        self.by_slot
            .get(&(key.area, key.t))
            .or_else(|| self.by_area.get(&key.area))
            .copied()
            .unwrap_or(self.global)
    }

    /// Predicts a batch of keys.
    pub fn predict_all(&self, keys: &[ItemKey]) -> Vec<f32> {
        keys.iter().map(|&k| self.predict(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsd_features::{FeatureConfig, FeatureExtractor};
    use deepsd_simdata::{SimConfig, SimDataset};

    #[test]
    fn averages_match_manual_computation() {
        let ds = SimDataset::generate(&SimConfig::smoke(61));
        let mut fx = FeatureExtractor::new(&ds, FeatureConfig::default());
        let keys: Vec<ItemKey> = (2..10)
            .map(|day| ItemKey {
                area: 1,
                day,
                t: 480,
            })
            .collect();
        let avg = EmpiricalAverage::fit(&mut fx, &keys);
        let manual: f64 = keys.iter().map(|&k| fx.gap(k) as f64).sum::<f64>() / keys.len() as f64;
        let pred = avg.predict(ItemKey {
            area: 1,
            day: 13,
            t: 480,
        });
        assert!((pred as f64 - manual).abs() < 1e-4);
    }

    #[test]
    fn fallback_chain() {
        let ds = SimDataset::generate(&SimConfig::smoke(62));
        let mut fx = FeatureExtractor::new(&ds, FeatureConfig::default());
        let keys = vec![ItemKey {
            area: 0,
            day: 3,
            t: 480,
        }];
        let avg = EmpiricalAverage::fit(&mut fx, &keys);
        // Unseen slot of a seen area → area average == slot average here.
        let area_fallback = avg.predict(ItemKey {
            area: 0,
            day: 4,
            t: 990,
        });
        assert_eq!(
            area_fallback,
            avg.predict(ItemKey {
                area: 0,
                day: 9,
                t: 480
            })
        );
        // Unseen area → global mean.
        let global = avg.predict(ItemKey {
            area: 5,
            day: 4,
            t: 990,
        });
        assert_eq!(global, avg.global);
    }

    #[test]
    fn predict_all_matches_predict() {
        let ds = SimDataset::generate(&SimConfig::smoke(63));
        let mut fx = FeatureExtractor::new(&ds, FeatureConfig::default());
        let keys: Vec<ItemKey> = (0..6)
            .map(|a| ItemKey {
                area: a,
                day: 5,
                t: 600,
            })
            .collect();
        let avg = EmpiricalAverage::fit(&mut fx, &keys);
        let batch = avg.predict_all(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i], avg.predict(k));
        }
    }
}
