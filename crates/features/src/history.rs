//! Per-weekday historical vectors (§V-A, first stage).
//!
//! For a vector kind `V ∈ {sd, lc, wt}`, the historical vector on weekday
//! `w` is the average of the real-time vectors `V^{m,t}` over past days
//! `m < d` with `weekday(m) = w` (Eq. before Eq. 1 in the paper). The
//! seven weekday histories are stacked into one `7·2L` buffer; the model
//! combines them with learned softmax weights (Eq. 1).
//!
//! [`HistoryStacks::build`] computes an item's six stacks (each kind at
//! `t` and at `t + C`) on demand, straight from the area's order index:
//! one walk over the past days adds each day's counts into the output
//! buffers, and nothing is cached between items. Each past day's orders
//! in `[t - L, t + C)` are cut once and counted into the last-call and
//! waiting-time vectors of both windows. Counts are small integers, so
//! the `f32` sums are exact in any order and the averages are
//! bit-identical to averaging per-day vectors.

use crate::config::FeatureConfig;
use crate::index::AreaIndex;
use crate::vectors::{add_lc_wt, add_sd, LcWt};

/// The six stacked 7-weekday histories of one item,
/// `[H^(Mon) | H^(Tue) | … | H^(Sun)]`, each part `2L`-dimensional.
///
/// Weekdays with no prior occurrence before the item's day contribute
/// zeros; at most `cfg.history_window` most-recent same-weekday days are
/// averaged.
#[derive(Debug, Default)]
pub struct HistoryStacks {
    /// Supply-demand history at `t`.
    pub sd: Vec<f32>,
    /// Supply-demand history at `t + C`.
    pub sd_next: Vec<f32>,
    /// Last-call history at `t`.
    pub lc: Vec<f32>,
    /// Last-call history at `t + C`.
    pub lc_next: Vec<f32>,
    /// Waiting-time history at `t`.
    pub wt: Vec<f32>,
    /// Waiting-time history at `t + C`.
    pub wt_next: Vec<f32>,
}

impl HistoryStacks {
    /// Builds the unscaled stacks of `(day, t)` for one area.
    pub fn build(index: &AreaIndex, cfg: &FeatureConfig, day: u16, t: u16) -> HistoryStacks {
        let mut h = HistoryStacks::default();
        h.fill(index, cfg, day, t);
        h
    }

    /// [`HistoryStacks::build`] into this value's buffers, which keep
    /// their allocations: the serving workers refill the same stacks
    /// for every item they assemble.
    // deepsd-lint: allow(panic-reach, reason="parts are sliced at w*dim with w < 7 from buffers sized 7*dim")
    pub fn fill(&mut self, index: &AreaIndex, cfg: &FeatureConfig, day: u16, t: u16) {
        let l = cfg.window_l;
        let dim = cfg.vector_dim();
        let t_next = t + cfg.horizon as u16;
        for stack in self.all_mut() {
            stack.clear();
            stack.resize(7 * dim, 0.0);
        }
        let h = self;
        // The `history_window` most recent days of every weekday are the
        // last `7 · history_window` days before `day`.
        let first = usize::from(day).saturating_sub(7 * cfg.history_window);
        let mut count = [0u16; 7];
        for m in (first..usize::from(day)).rev() {
            let w = m % 7;
            let part = w * dim..(w + 1) * dim;
            let m = m as u16;
            add_sd(index, m, t, l, &mut h.sd[part.clone()]);
            add_sd(index, m, t_next, l, &mut h.sd_next[part.clone()]);
            add_lc_wt(
                index,
                m,
                l,
                &mut [
                    LcWt {
                        t,
                        lc: &mut h.lc[part.clone()],
                        wt: &mut h.wt[part.clone()],
                    },
                    LcWt {
                        t: t_next,
                        lc: &mut h.lc_next[part.clone()],
                        wt: &mut h.wt_next[part],
                    },
                ],
            );
            count[w] += 1;
        }
        for (w, &c) in count.iter().enumerate().filter(|(_, &c)| c > 0) {
            let inv = 1.0 / c as f32;
            for stack in h.all_mut() {
                for a in &mut stack[w * dim..(w + 1) * dim] {
                    *a *= inv;
                }
            }
        }
    }

    /// All six stacks, for in-place scaling.
    pub fn all_mut(&mut self) -> [&mut Vec<f32>; 6] {
        [
            &mut self.sd,
            &mut self.sd_next,
            &mut self.lc,
            &mut self.lc_next,
            &mut self.wt,
            &mut self.wt_next,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::{v_lc, v_sd, v_wt};
    use deepsd_rng::{cases, Rng};
    use deepsd_simdata::{Order, MINUTES_PER_DAY};

    fn cfg() -> FeatureConfig {
        FeatureConfig {
            window_l: 4,
            ..FeatureConfig::default()
        }
    }

    /// Days 0..14; on each day put `day + 1` valid orders at minute 99.
    fn index_with_daily_counts(n_days: u16) -> AreaIndex {
        let mut orders = Vec::new();
        for day in 0..n_days {
            for k in 0..=day {
                orders.push(Order {
                    day,
                    ts: 99,
                    pid: (day as u64) * 100 + k as u64,
                    loc_start: 0,
                    loc_dest: 0,
                    valid: true,
                });
            }
        }
        AreaIndex::build(&orders, n_days)
    }

    #[test]
    fn stack_averages_same_weekday_days() {
        let cfg = cfg();
        let index = index_with_daily_counts(15);
        // Query at day 14 (weekday 0), t = 100: minute 99 is lag ℓ = 1.
        let stack = HistoryStacks::build(&index, &cfg, 14, 100).sd;
        let dim = cfg.vector_dim();
        // Weekday 0 history: days 0 (count 1) and 7 (count 8) → mean 4.5.
        assert!((stack[0] - 4.5).abs() < 1e-6);
        // Weekday 3 history: days 3 (count 4) and 10 (count 11) → 7.5.
        assert!((stack[3 * dim] - 7.5).abs() < 1e-6);
        // All invalid parts are zero.
        for w in 0..7 {
            for ell in 0..cfg.window_l {
                assert_eq!(stack[w * dim + cfg.window_l + ell], 0.0);
            }
        }
    }

    #[test]
    fn stack_is_zero_with_no_history() {
        let cfg = cfg();
        let index = index_with_daily_counts(3);
        let mut h = HistoryStacks::build(&index, &cfg, 0, 100);
        assert!(h.all_mut().iter().all(|s| s.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn stack_respects_history_window() {
        let mut cfg = cfg();
        cfg.history_window = 1;
        let index = index_with_daily_counts(15);
        let stack = HistoryStacks::build(&index, &cfg, 14, 100).sd;
        // Weekday 0: only day 7 (count 8) within window 1.
        assert!((stack[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn stack_excludes_current_and_future_days() {
        let cfg = cfg();
        let index = index_with_daily_counts(15);
        // Query day 7 (weekday 0): only day 0 contributes to weekday 0.
        let stack = HistoryStacks::build(&index, &cfg, 7, 100).sd;
        assert!((stack[0] - 1.0).abs() < 1e-6);
    }

    /// The per-day-vector algorithm the stacks replace: for each weekday,
    /// walk back over its most recent days, average their real-time
    /// vectors in a fresh buffer, and copy the average into the stack.
    fn reference_stack(
        index: &AreaIndex,
        cfg: &FeatureConfig,
        vector: fn(&AreaIndex, u16, u16, usize) -> Vec<f32>,
        day: u16,
        t: u16,
    ) -> Vec<f32> {
        let dim = cfg.vector_dim();
        let mut out = vec![0.0f32; 7 * dim];
        for w in 0..7u16 {
            let mut acc = vec![0.0f32; dim];
            let mut count = 0usize;
            let mut m = day;
            while m > 0 && count < cfg.history_window {
                m -= 1;
                if m % 7 != w {
                    continue;
                }
                let v = vector(index, m, t, cfg.window_l);
                for (a, b) in acc.iter_mut().zip(v.iter()) {
                    *a += b;
                }
                count += 1;
            }
            if count > 0 {
                let inv = 1.0 / count as f32;
                for a in acc.iter_mut() {
                    *a *= inv;
                }
            }
            out[w as usize * dim..(w as usize + 1) * dim].copy_from_slice(&acc);
        }
        out
    }

    /// A random area: busy and quiet days, retry chains of a small
    /// passenger pool, orders at the very end of the day. Sorted by
    /// `(day, ts)`.
    fn random_orders(rng: &mut Rng, n_days: u16) -> Vec<Order> {
        let mut orders = Vec::new();
        for day in 0..n_days {
            for _ in 0..rng.gen_range(0usize..400) {
                let ts = if rng.gen_bool(0.1) {
                    rng.gen_range(1420u16..1440)
                } else {
                    rng.gen_range(0u16..1440)
                };
                orders.push(Order {
                    day,
                    ts,
                    pid: rng.gen_range(0u64..40),
                    loc_start: 0,
                    loc_dest: 0,
                    valid: rng.gen_bool(0.6),
                });
            }
        }
        orders.sort_by_key(|o| (o.day, o.ts));
        orders
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stacks_equal_per_day_reference_bit_for_bit() {
        cases(48, |rng| {
            let n_days = rng.gen_range(1u16..30);
            let orders = random_orders(rng, n_days);
            let index = AreaIndex::build(&orders, n_days);
            let cfg = FeatureConfig {
                window_l: rng.gen_range(1usize..25),
                history_window: rng.gen_range(0usize..6),
                horizon: rng.gen_range(1usize..15),
                ..FeatureConfig::default()
            };
            for _ in 0..8 {
                let day = rng.gen_range(0..n_days);
                // Every third key ends its `t + C` window past midnight.
                let lo = cfg.window_l as u16;
                let t = if rng.gen_bool(0.33) {
                    rng.gen_range((MINUTES_PER_DAY as u16 - cfg.horizon as u16).max(lo)..1440)
                } else {
                    rng.gen_range(lo..1440)
                };
                let t_next = t + cfg.horizon as u16;
                let got = HistoryStacks::build(&index, &cfg, day, t);
                let want = [
                    (&got.sd, reference_stack(&index, &cfg, v_sd, day, t)),
                    (
                        &got.sd_next,
                        reference_stack(&index, &cfg, v_sd, day, t_next),
                    ),
                    (&got.lc, reference_stack(&index, &cfg, v_lc, day, t)),
                    (
                        &got.lc_next,
                        reference_stack(&index, &cfg, v_lc, day, t_next),
                    ),
                    (&got.wt, reference_stack(&index, &cfg, v_wt, day, t)),
                    (
                        &got.wt_next,
                        reference_stack(&index, &cfg, v_wt, day, t_next),
                    ),
                ];
                for (k, (got, want)) in want.iter().enumerate() {
                    assert_eq!(bits(got), bits(want), "stack {k} day {day} t {t} {cfg:?}");
                }
                if u32::from(t_next) > MINUTES_PER_DAY {
                    // Past midnight all three `_next` windows stop at the
                    // day's end, as `AreaIndex::gap` does: orders in every
                    // day's first minutes (new passengers, both outcomes)
                    // move none of them.
                    let mut early = orders.clone();
                    for d in 0..n_days {
                        for ts in 0..t_next - MINUTES_PER_DAY as u16 {
                            early.push(Order {
                                day: d,
                                ts,
                                pid: 1_000 + u64::from(ts),
                                loc_start: 0,
                                loc_dest: 0,
                                valid: ts % 2 == 0,
                            });
                        }
                    }
                    early.sort_by_key(|o| (o.day, o.ts));
                    let early = AreaIndex::build(&early, n_days);
                    let moved = HistoryStacks::build(&early, &cfg, day, t);
                    let next = [
                        (&got.sd_next, &moved.sd_next),
                        (&got.lc_next, &moved.lc_next),
                        (&got.wt_next, &moved.wt_next),
                    ];
                    for (k, (a, b)) in next.iter().enumerate() {
                        assert_eq!(bits(a), bits(b), "next stack {k} day {day} t {t} {cfg:?}");
                    }
                }
            }
        });
    }
}
