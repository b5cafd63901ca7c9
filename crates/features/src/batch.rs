//! Mini-batch assembly: flattens a slice of [`Item`]s into contiguous
//! row-major buffers ready to be wrapped in matrices by the model crate.

use crate::items::Item;

/// A flattened mini-batch. All float buffers are row-major with one row
/// per item; widths are in the field docs (`L` = look-back window).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    /// Number of items.
    pub n: usize,
    /// Look-back window length `L`.
    pub l: usize,
    /// AreaID per item.
    pub area_ids: Vec<usize>,
    /// TimeID (the timeslot `t`) per item.
    pub time_ids: Vec<usize>,
    /// WeekID (0 = Monday) per item.
    pub week_ids: Vec<usize>,
    /// `n × 2L` real-time supply-demand vectors.
    pub v_sd: Vec<f32>,
    /// `n × 2L` real-time last-call vectors.
    pub v_lc: Vec<f32>,
    /// `n × 2L` real-time waiting-time vectors.
    pub v_wt: Vec<f32>,
    /// `n × 7·2L` stacked weekday histories of `V_sd` at `t`.
    pub h_sd: Vec<f32>,
    /// `n × 7·2L` stacked weekday histories of `V_sd` at `t + C`.
    pub h_sd_next: Vec<f32>,
    /// `n × 7·2L` stacked histories of `V_lc` at `t`.
    pub h_lc: Vec<f32>,
    /// `n × 7·2L` stacked histories of `V_lc` at `t + C`.
    pub h_lc_next: Vec<f32>,
    /// `n × 7·2L` stacked histories of `V_wt` at `t`.
    pub h_wt: Vec<f32>,
    /// `n × 7·2L` stacked histories of `V_wt` at `t + C`.
    pub h_wt_next: Vec<f32>,
    /// `n × L` weather-type ids (lag-major per row: ℓ = 1..=L).
    pub weather_types: Vec<usize>,
    /// `n × 2L` weather scalars (temperature, pm2.5 per lag).
    pub weather_scalars: Vec<f32>,
    /// `n × 4L` traffic level fractions.
    pub traffic: Vec<f32>,
    /// `n` ground-truth gaps.
    pub targets: Vec<f32>,
}

impl Batch {
    /// Flattens items into one batch.
    ///
    /// # Panics
    /// Panics if `items` is empty or dimensions disagree across items.
    pub fn from_items(items: &[Item]) -> Batch {
        let mut b = Batch::default();
        b.refill(items.len(), items.iter());
        b
    }

    /// [`Batch::from_items`] into this batch's buffers, which keep their
    /// allocations: the serving workers rebuild one batch per slot.
    ///
    /// # Panics
    /// As [`Batch::from_items`].
    pub fn fill_from_items(&mut self, items: &[Item]) {
        self.refill(items.len(), items.iter());
    }

    /// Flattens a slice of item references into one batch — the
    /// gather-by-reference path the block-shuffled epoch iterator uses,
    /// so shuffling never moves item payloads.
    ///
    /// # Panics
    /// Panics if `items` is empty or dimensions disagree across items.
    pub fn from_refs(items: &[&Item]) -> Batch {
        let mut b = Batch::default();
        b.refill(items.len(), items.iter().copied());
        b
    }

    // deepsd-lint: allow(panic-reach, reason="callers batch at least one item by construction; an empty batch is programmer error")
    fn refill<'a>(&mut self, n: usize, items: impl Iterator<Item = &'a Item> + Clone) {
        assert!(n > 0, "empty batch");
        let first = match items.clone().next() {
            Some(f) => f,
            None => panic!("empty batch"),
        };
        let l = first.weather_types.len();
        let dim = first.v_sd.len();
        let hdim = first.h_sd.len();
        let b = self;
        b.n = n;
        b.l = l;
        for v in [
            &mut b.area_ids,
            &mut b.time_ids,
            &mut b.week_ids,
            &mut b.weather_types,
        ] {
            v.clear();
        }
        for v in [
            &mut b.v_sd,
            &mut b.v_lc,
            &mut b.v_wt,
            &mut b.h_sd,
            &mut b.h_sd_next,
            &mut b.h_lc,
            &mut b.h_lc_next,
            &mut b.h_wt,
            &mut b.h_wt_next,
            &mut b.weather_scalars,
            &mut b.traffic,
            &mut b.targets,
        ] {
            v.clear();
        }
        for item in items {
            assert_eq!(item.v_sd.len(), dim, "inconsistent item dims");
            assert_eq!(item.h_sd.len(), hdim, "inconsistent history dims");
            b.area_ids.push(item.key.area as usize);
            b.time_ids.push(item.key.t as usize);
            b.week_ids.push(item.weekday as usize);
            b.v_sd.extend_from_slice(&item.v_sd);
            b.v_lc.extend_from_slice(&item.v_lc);
            b.v_wt.extend_from_slice(&item.v_wt);
            b.h_sd.extend_from_slice(&item.h_sd);
            b.h_sd_next.extend_from_slice(&item.h_sd_next);
            b.h_lc.extend_from_slice(&item.h_lc);
            b.h_lc_next.extend_from_slice(&item.h_lc_next);
            b.h_wt.extend_from_slice(&item.h_wt);
            b.h_wt_next.extend_from_slice(&item.h_wt_next);
            b.weather_types.extend_from_slice(&item.weather_types);
            b.weather_scalars.extend_from_slice(&item.weather_scalars);
            b.traffic.extend_from_slice(&item.traffic);
            b.targets.push(item.gap);
        }
    }

    /// Width of each real-time vector (`2L`).
    pub fn vector_dim(&self) -> usize {
        2 * self.l
    }

    /// Width of each stacked history (`7·2L`).
    pub fn history_dim(&self) -> usize {
        14 * self.l
    }

    /// Weather-type ids of lag `ell` (1-based) across the batch.
    pub fn weather_type_ids_at_lag(&self, ell: usize) -> Vec<usize> {
        assert!(ell >= 1 && ell <= self.l, "lag out of range");
        (0..self.n)
            .map(|i| self.weather_types[i * self.l + ell - 1])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemKey;

    fn item(area: u16, gap: f32, l: usize) -> Item {
        let dim = 2 * l;
        Item {
            key: ItemKey {
                area,
                day: 7,
                t: 300,
            },
            weekday: 0,
            gap,
            v_sd: vec![1.0; dim],
            v_lc: vec![2.0; dim],
            v_wt: vec![3.0; dim],
            h_sd: vec![4.0; 7 * dim],
            h_sd_next: vec![5.0; 7 * dim],
            h_lc: vec![6.0; 7 * dim],
            h_lc_next: vec![7.0; 7 * dim],
            h_wt: vec![8.0; 7 * dim],
            h_wt_next: vec![9.0; 7 * dim],
            weather_types: (0..l).map(|i| i % 10).collect(),
            weather_scalars: vec![0.5; dim],
            traffic: vec![0.25; 4 * l],
        }
    }

    #[test]
    fn batch_shapes() {
        let l = 6;
        let items = vec![item(0, 1.0, l), item(1, 2.0, l), item(2, 0.0, l)];
        let b = Batch::from_items(&items);
        assert_eq!(b.n, 3);
        assert_eq!(b.v_sd.len(), 3 * 2 * l);
        assert_eq!(b.h_sd.len(), 3 * 14 * l);
        assert_eq!(b.weather_types.len(), 3 * l);
        assert_eq!(b.traffic.len(), 3 * 4 * l);
        assert_eq!(b.targets, vec![1.0, 2.0, 0.0]);
        assert_eq!(b.area_ids, vec![0, 1, 2]);
    }

    /// A refilled batch drops everything of its previous contents.
    #[test]
    fn refilled_batch_equals_a_fresh_one() {
        let l = 3;
        let mut b = Batch::from_items(&[item(5, 9.0, l), item(6, 8.0, l), item(7, 7.0, l)]);
        let items = vec![item(0, 1.0, l), item(1, 2.0, l)];
        b.fill_from_items(&items);
        assert_eq!(b, Batch::from_items(&items));
    }

    #[test]
    fn weather_lag_accessor() {
        let l = 4;
        let items = vec![item(0, 1.0, l), item(1, 2.0, l)];
        let b = Batch::from_items(&items);
        assert_eq!(b.weather_type_ids_at_lag(1), vec![0, 0]);
        assert_eq!(b.weather_type_ids_at_lag(3), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn rejects_empty() {
        let _ = Batch::from_items(&[]);
    }

    #[test]
    #[should_panic(expected = "lag out of range")]
    fn lag_accessor_bounds() {
        let b = Batch::from_items(&[item(0, 1.0, 4)]);
        let _ = b.weather_type_ids_at_lag(5);
    }
}
