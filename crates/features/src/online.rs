//! Online (streaming) feature computation.
//!
//! In production the order stream arrives live; the real-time vectors of
//! Definitions 5–7 must be maintained incrementally rather than from a
//! batch index. [`OnlineWindow`] holds the last `L` minutes of one
//! area's orders and produces vectors identical to the offline
//! [`crate::vectors`] functions (verified by tests and by the serving
//! integration tests in the core crate).
//!
//! Real streams are not clean: the window accepts an
//! [`IngestPolicy`](crate::IngestPolicy) deciding what happens to late,
//! duplicate or otherwise anomalous orders — strict rejection with a
//! typed [`IngestError`](crate::IngestError), counted dropping, or
//! re-sorting within a bounded slack (which reproduces clean-stream
//! features exactly; see the fault-tolerance tests in the core crate).

use crate::config::FeatureConfig;
use crate::ingest::{IngestError, IngestPolicy, IngestStats};
use deepsd_simdata::{Order, SlotTime, MINUTES_PER_DAY};
use std::collections::VecDeque;

/// Rolling per-area order window for streaming feature extraction.
#[derive(Debug, Clone)]
pub struct OnlineWindow {
    l: u16,
    area: u16,
    day: u16,
    /// Orders of the current day with `ts >= cursor - L`, sorted by `ts`.
    buffer: VecDeque<Order>,
    cursor: u16,
    policy: IngestPolicy,
    stats: IngestStats,
}

impl OnlineWindow {
    /// Creates a window of `cfg.window_l` minutes for one area, with the
    /// strict [`IngestPolicy::Reject`] policy.
    pub fn new(area: u16, cfg: &FeatureConfig) -> OnlineWindow {
        OnlineWindow::with_policy(area, cfg, IngestPolicy::Reject)
    }

    /// Creates a window with an explicit ingest policy.
    pub fn with_policy(area: u16, cfg: &FeatureConfig, policy: IngestPolicy) -> OnlineWindow {
        OnlineWindow {
            l: cfg.window_l as u16,
            area,
            day: 0,
            buffer: VecDeque::new(),
            cursor: 0,
            policy,
            stats: IngestStats::default(),
        }
    }

    /// The area this window tracks.
    pub fn area(&self) -> u16 {
        self.area
    }

    /// The ingest policy in force.
    pub fn policy(&self) -> IngestPolicy {
        self.policy
    }

    /// Ingest counters accumulated so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Ingests one order. Orders for other areas are ignored; day changes
    /// reset the buffer (passenger chains do not span days). Orders
    /// behind the stream's high-water mark are handled per the window's
    /// [`IngestPolicy`]: rejected with [`IngestError::NonChronological`],
    /// dropped and counted, or re-sorted into place when within the
    /// policy's slack. Never panics.
    pub fn observe(&mut self, order: Order) -> Result<(), IngestError> {
        if order.loc_start != self.area {
            return Ok(());
        }
        let abs_new = order.day as u32 * MINUTES_PER_DAY + order.ts as u32;
        let abs_cur = self.day as u32 * MINUTES_PER_DAY + self.cursor as u32;
        if abs_new < abs_cur {
            // Exact under the guard above; saturating is the audited form.
            return self.observe_late(order, abs_cur.saturating_sub(abs_new));
        }
        if order.day != self.day {
            self.buffer.clear();
            self.day = order.day;
        }
        if self.policy != IngestPolicy::Reject && self.is_duplicate(&order) {
            self.stats.duplicates_dropped += 1;
            return Ok(());
        }
        self.cursor = order.ts;
        self.buffer.push_back(order);
        self.stats.accepted += 1;
        // Evict to the cursor itself, not past it: `vectors(t)` with
        // `t == cursor` still needs the `ts == t - L` edge order, and an
        // order admitted at `ts == cursor` (same minute, not late) must
        // not push that edge out of the buffer.
        self.evict(order.ts);
        Ok(())
    }

    /// Handles an order behind the high-water mark.
    fn observe_late(&mut self, order: Order, lateness: u32) -> Result<(), IngestError> {
        match self.policy {
            IngestPolicy::Reject => {
                self.stats.rejected += 1;
                Err(IngestError::NonChronological {
                    area: self.area,
                    arrived: SlotTime::new(order.day, order.ts),
                    cursor: SlotTime::new(self.day, self.cursor),
                })
            }
            IngestPolicy::DropLate => {
                self.stats.dropped_late += 1;
                Ok(())
            }
            IngestPolicy::ReorderWithinSlack { slack_minutes } => {
                // A late order from a previous day cannot join the
                // current day's buffer (windows never cross midnight).
                if lateness > slack_minutes as u32 || order.day != self.day {
                    self.stats.dropped_late += 1;
                    return Ok(());
                }
                if self.is_duplicate(&order) {
                    self.stats.duplicates_dropped += 1;
                    return Ok(());
                }
                self.insert_sorted(order);
                self.stats.reordered += 1;
                // Same edge rule as `observe`: keep `ts == cursor - L`.
                self.evict(self.cursor);
                Ok(())
            }
        }
    }

    /// True when an identical order is already buffered.
    fn is_duplicate(&self, order: &Order) -> bool {
        self.buffer.iter().any(|o| o == order)
    }

    /// Inserts a late order keeping the buffer sorted by `ts`.
    fn insert_sorted(&mut self, order: Order) {
        let idx = self
            .buffer
            .iter()
            .rposition(|o| o.ts <= order.ts)
            .map_or(0, |p| p + 1);
        self.buffer.insert(idx, order);
    }

    /// Moves the clock forward to `(day, t)` without new orders, evicting
    /// what falls out of the window. Only the stream should move the
    /// clock: a later in-order order behind `t` then counts as late.
    pub fn advance_to(&mut self, day: u16, t: u16) {
        if day != self.day {
            self.buffer.clear();
            self.day = day;
            self.cursor = t;
        } else if t > self.cursor {
            self.cursor = t;
        }
        self.evict(t);
    }

    /// Drops orders older than `t - L`.
    fn evict(&mut self, t: u16) {
        let min_ts = t.saturating_sub(self.l);
        while let Some(front) = self.buffer.front() {
            if front.ts < min_ts {
                self.buffer.pop_front();
            } else {
                break;
            }
        }
    }

    /// Number of buffered orders.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when no orders are buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Computes the three real-time vectors for the window `[t - L, t)`
    /// of the current day — unscaled counts, exactly matching the offline
    /// [`crate::vectors`] semantics. See [`OnlineWindow::vectors_at`].
    pub fn vectors(&mut self, t: u16) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        self.vectors_at(self.day, t)
    }

    /// Computes the three real-time vectors for the window `[t - L, t)`
    /// of `day` from the orders observed so far — unscaled counts,
    /// exactly matching the offline [`crate::vectors`] semantics. Reading
    /// never moves the clock or evicts: a predict ahead of the stream
    /// cannot make the stream's next orders late.
    ///
    /// The vectors are all-zero when the window holds another day (the
    /// stream has not reached `day`, or has passed it), and when `t < L`:
    /// the window would cross midnight, there is no valid data to count,
    /// and the vectors degrade to all-zero instead of panicking on the
    /// request path.
    ///
    /// All lag/wait arithmetic is saturating with an explicit
    /// clamp-and-count: a lag outside `[1, L]` (impossible while the
    /// buffer invariants hold) is clamped into the nearest valid slot
    /// and bumps the `slot_clamped` tripwire counter instead of
    /// panicking in debug or wrapping to a silently dropped count in
    /// release.
    pub fn vectors_at(&mut self, day: u16, t: u16) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let l = self.l as usize;
        let mut v_sd = vec![0.0f32; 2 * l];
        let mut v_lc = vec![0.0f32; 2 * l];
        let mut v_wt = vec![0.0f32; 2 * l];
        if day != self.day || t < self.l || l == 0 {
            return (v_sd, v_lc, v_wt);
        }
        let from = t.saturating_sub(self.l);
        // The buffer is ts-sorted, so the in-window orders are one run.
        let lo = self.buffer.partition_point(|o| o.ts < from);
        let hi = self.buffer.partition_point(|o| o.ts < t);
        let window = self.buffer.range(lo..hi);
        for (i, o) in window.clone().enumerate() {
            let slot = Self::lag_slot(l, t, o.ts, o.valid, &mut self.stats.slot_clamped);
            if let Some(c) = v_sd.get_mut(slot) {
                *c += 1.0;
            }
            // Each passenger's chain is counted once, at its last
            // in-window call; its first in-window call starts the wait.
            // (A window holds a dozen or so orders: the scans are
            // cheaper than grouping through a map.)
            if window.clone().skip(i + 1).any(|n| n.pid == o.pid) {
                continue;
            }
            let last = o;
            let first = window.clone().find(|p| p.pid == o.pid).unwrap_or(o);
            // Last-call vector: the pid counts at its final in-window call.
            let slot = Self::lag_slot(l, t, last.ts, last.valid, &mut self.stats.slot_clamped);
            if let Some(c) = v_lc.get_mut(slot) {
                *c += 1.0;
            }
            // Waiting-time vector: span from first to last in-window call
            // (the buffer is ts-sorted, so the span is non-negative; the
            // saturation is the defensive form the lint rule asks for).
            let wait = (last.ts as usize)
                .saturating_sub(first.ts as usize)
                .min(l.saturating_sub(1));
            let slot = if last.valid { wait } else { l + wait };
            if let Some(c) = v_wt.get_mut(slot) {
                *c += 1.0;
            }
        }
        (v_sd, v_lc, v_wt)
    }

    /// Maps an order's lag within the window ending at `t` to its slot.
    ///
    /// A lag `ell = t - ts` of `k ∈ [1, L]` counts in slot `k - 1`
    /// (valid orders) or `L + k - 1` (invalid orders). Lags outside that
    /// range cannot occur while the buffer invariants hold; if one does,
    /// it is clamped to the nearest in-range slot and `clamped` (the
    /// window's `slot_clamped` tripwire) is incremented — never a panic
    /// or a wrapped index on the request path.
    fn lag_slot(l: usize, t: u16, ts: u16, valid: bool, clamped: &mut u64) -> usize {
        let ell = (t as usize).saturating_sub(ts as usize);
        let ell_clamped = ell.clamp(1, l.max(1));
        if ell_clamped != ell {
            *clamped += 1;
        }
        let base = ell_clamped.saturating_sub(1);
        if valid {
            base
        } else {
            l + base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::AreaIndex;
    use crate::vectors::{v_lc, v_sd, v_wt};
    use deepsd_simdata::{shuffle_within_slack, SimConfig, SimDataset};

    fn cfg(l: usize) -> FeatureConfig {
        FeatureConfig {
            window_l: l,
            ..FeatureConfig::default()
        }
    }

    fn order(day: u16, ts: u16, pid: u64, valid: bool) -> Order {
        Order {
            day,
            ts,
            pid,
            loc_start: 0,
            loc_dest: 0,
            valid,
        }
    }

    #[test]
    fn online_matches_offline_on_simulated_stream() {
        let ds = SimDataset::generate(&SimConfig::smoke(71));
        let l = 12usize;
        for area in 0..3u16 {
            let index = AreaIndex::build(ds.orders(area), ds.n_days);
            let mut window = OnlineWindow::new(area, &cfg(l));
            let day = 9u16;
            let mut orders = ds.orders(area).iter().filter(|o| o.day == day).peekable();
            for t in (l as u16 + 1)..1000 {
                // Feed all orders with ts < t.
                while let Some(o) = orders.peek() {
                    if o.ts < t {
                        window.observe(**orders.peek().unwrap()).unwrap();
                        orders.next();
                    } else {
                        break;
                    }
                }
                window.advance_to(day, t);
                if t % 97 != 0 {
                    continue; // spot-check a scattered subset
                }
                let (sd_on, lc_on, wt_on) = window.vectors(t);
                assert_eq!(sd_on, v_sd(&index, day, t, l), "sd area {area} t {t}");
                assert_eq!(lc_on, v_lc(&index, day, t, l), "lc area {area} t {t}");
                assert_eq!(wt_on, v_wt(&index, day, t, l), "wt area {area} t {t}");
            }
        }
    }

    /// A read ahead of the stream, or on another day, must not move the
    /// clock: the stream's next in-order minute is still accepted, none
    /// of it is lost, and the vectors match the offline ones.
    #[test]
    fn reading_ahead_does_not_move_the_clock() {
        let ds = SimDataset::generate(&SimConfig::smoke(72));
        let l = 12usize;
        let day = 9u16;
        let area = (0..ds.n_areas() as u16)
            .max_by_key(|&a| ds.orders(a).len())
            .unwrap();
        let index = AreaIndex::build(ds.orders(area), ds.n_days);
        let day_orders: Vec<Order> = ds
            .orders(area)
            .iter()
            .filter(|o| o.day == day && o.ts < 700)
            .copied()
            .collect();
        let (before, after): (Vec<Order>, Vec<Order>) = day_orders.iter().partition(|o| o.ts < 480);
        assert!(!before.is_empty() && !after.is_empty());
        let policies = [
            IngestPolicy::Reject,
            IngestPolicy::ReorderWithinSlack { slack_minutes: 30 },
        ];
        for policy in policies {
            let mut w = OnlineWindow::with_policy(area, &cfg(l), policy);
            for &o in &before {
                w.observe(o).unwrap();
            }
            let offline = |t| {
                (
                    v_sd(&index, day, t, l),
                    v_lc(&index, day, t, l),
                    v_wt(&index, day, t, l),
                )
            };
            assert_eq!(w.vectors_at(day, 480), offline(480), "{policy:?}");
            let _ = w.vectors_at(day, 700);
            let _ = w.vectors_at(day + 1, 60);
            let (sd, lc, wt) = w.vectors_at(day - 1, 600);
            assert!(sd.iter().chain(&lc).chain(&wt).all(|&v| v == 0.0));
            for &o in &after {
                w.observe(o).unwrap();
            }
            let stats = w.stats();
            assert_eq!(stats.accepted, day_orders.len() as u64, "{policy:?}");
            assert_eq!(stats.lost() + stats.reordered, 0, "{policy:?}");
            assert_eq!(w.vectors_at(day, 700), offline(700), "{policy:?}");
        }
    }

    #[test]
    fn ignores_other_areas() {
        let mut w = OnlineWindow::new(2, &cfg(5));
        w.observe(Order {
            day: 0,
            ts: 100,
            pid: 1,
            loc_start: 3,
            loc_dest: 0,
            valid: true,
        })
        .unwrap();
        assert!(w.is_empty());
        w.observe(Order {
            day: 0,
            ts: 100,
            pid: 1,
            loc_start: 2,
            loc_dest: 0,
            valid: true,
        })
        .unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn day_rollover_clears_buffer() {
        let mut w = OnlineWindow::new(0, &cfg(5));
        w.observe(order(0, 1439, 1, true)).unwrap();
        assert_eq!(w.len(), 1);
        w.observe(order(1, 3, 2, true)).unwrap();
        assert_eq!(w.len(), 1);
        w.advance_to(1, 8);
        let (sd, _, _) = w.vectors(8); // window [3, 8) still holds ts = 3
        assert_eq!(sd.iter().sum::<f32>(), 1.0); // only the day-1 order
    }

    #[test]
    fn eviction_drops_stale_orders() {
        let mut w = OnlineWindow::new(0, &cfg(5));
        w.observe(order(0, 100, 1, true)).unwrap();
        w.observe(order(0, 104, 2, false)).unwrap();
        w.advance_to(0, 106);
        // Window [101, 106): the ts=100 order is gone.
        assert_eq!(w.len(), 1);
        let (sd, _, _) = w.vectors(106);
        assert_eq!(sd.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn reject_policy_errors_on_time_travel() {
        let mut w = OnlineWindow::new(0, &cfg(5));
        w.observe(order(0, 100, 1, true)).unwrap();
        let err = w.observe(order(0, 50, 2, true)).unwrap_err();
        match err {
            IngestError::NonChronological {
                area,
                arrived,
                cursor,
            } => {
                assert_eq!(area, 0);
                assert_eq!(arrived, SlotTime::new(0, 50));
                assert_eq!(cursor, SlotTime::new(0, 100));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        assert_eq!(w.stats().rejected, 1);
        assert_eq!(w.len(), 1, "rejected order must not enter the buffer");
    }

    #[test]
    fn drop_late_policy_counts_and_continues() {
        let mut w = OnlineWindow::with_policy(0, &cfg(5), IngestPolicy::DropLate);
        w.observe(order(0, 100, 1, true)).unwrap();
        w.observe(order(0, 50, 2, true)).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.stats().dropped_late, 1);
        assert_eq!(w.stats().accepted, 1);
    }

    #[test]
    fn reorder_policy_restores_late_orders_within_slack() {
        let policy = IngestPolicy::ReorderWithinSlack { slack_minutes: 10 };
        let mut w = OnlineWindow::with_policy(0, &cfg(8), policy);
        w.observe(order(0, 100, 1, true)).unwrap();
        w.observe(order(0, 104, 2, false)).unwrap();
        w.observe(order(0, 101, 3, true)).unwrap(); // 3 minutes late: restored
        w.observe(order(0, 80, 4, true)).unwrap(); // 24 minutes late: dropped
        assert_eq!(w.stats().reordered, 1);
        assert_eq!(w.stats().dropped_late, 1);
        w.advance_to(0, 105);
        let (sd, _, _) = w.vectors(105);
        assert_eq!(sd.iter().sum::<f32>(), 3.0);

        // Same orders in clean order give identical vectors.
        let mut clean = OnlineWindow::new(0, &cfg(8));
        for o in [
            order(0, 100, 1, true),
            order(0, 101, 3, true),
            order(0, 104, 2, false),
        ] {
            clean.observe(o).unwrap();
        }
        clean.advance_to(0, 105);
        assert_eq!(w.vectors(105), clean.vectors(105));
    }

    #[test]
    fn reorder_policy_deduplicates_exact_copies() {
        let policy = IngestPolicy::ReorderWithinSlack { slack_minutes: 5 };
        let mut w = OnlineWindow::with_policy(0, &cfg(8), policy);
        w.observe(order(0, 100, 1, true)).unwrap();
        w.observe(order(0, 100, 1, true)).unwrap(); // exact duplicate
        w.observe(order(0, 102, 1, true)).unwrap();
        w.observe(order(0, 100, 1, true)).unwrap(); // late duplicate
        assert_eq!(w.len(), 2);
        assert_eq!(w.stats().duplicates_dropped, 2);
    }

    #[test]
    fn shuffled_stream_matches_clean_under_reorder_policy() {
        let ds = SimDataset::generate(&SimConfig::smoke(77));
        let l = 10usize;
        let day = 8u16;
        let area = 0u16;
        let stream: Vec<Order> = ds
            .orders(area)
            .iter()
            .filter(|o| o.day == day && o.ts < 700)
            .copied()
            .collect();
        assert!(stream.len() > 50, "need a busy stream");
        let shuffled = shuffle_within_slack(&stream, 6, 1234);
        assert_ne!(shuffled, stream);

        let mut clean = OnlineWindow::new(area, &cfg(l));
        for &o in &stream {
            clean.observe(o).unwrap();
        }
        let policy = IngestPolicy::ReorderWithinSlack { slack_minutes: 6 };
        let mut faulty = OnlineWindow::with_policy(area, &cfg(l), policy);
        for &o in &shuffled {
            faulty.observe(o).unwrap();
        }
        clean.advance_to(day, 700);
        faulty.advance_to(day, 700);
        assert_eq!(
            clean.vectors(700),
            faulty.vectors(700),
            "reorder must be lossless"
        );
        assert_eq!(faulty.stats().dropped_late, 0);
    }

    #[test]
    fn order_at_cursor_keeps_window_edge_and_matches_offline() {
        // Regression: an order admitted at `ts == cursor` (same minute as
        // the high-water mark — not late, so it takes the normal path even
        // under reorder-within-slack) used to evict past the cursor and
        // silently drop the `ts == t - L` window-edge order. Feed such a
        // stream through observe → advance_to → vectors and check slot
        // accounting against the offline extractor.
        let l = 5usize;
        let day = 0u16;
        let t = 105u16;
        let stream = [
            order(day, 100, 1, true), // ts == t - L: must stay countable
            order(day, 103, 2, false),
            order(day, 105, 3, true),  // advances cursor to t
            order(day, 105, 4, false), // ts == cursor: must not evict 100
            order(day, 104, 5, true),  // 1 minute late: reordered in
        ];
        let policy = IngestPolicy::ReorderWithinSlack { slack_minutes: 2 };
        let mut w = OnlineWindow::with_policy(0, &cfg(l), policy);
        for o in stream {
            w.observe(o).unwrap();
        }
        w.advance_to(day, t);
        let (sd, lc, wt) = w.vectors(t);

        // Window [100, 105): orders at 100, 103, 104 are in; the two
        // ts == 105 orders are outside (counted only at later t).
        assert_eq!(sd.iter().sum::<f32>(), 3.0, "sd {sd:?}");
        assert_eq!(sd[l - 1], 1.0, "ts == t - L order must fill the last slot");
        assert_eq!(lc.iter().sum::<f32>(), 3.0, "lc {lc:?}");
        assert_eq!(wt.iter().sum::<f32>(), 3.0, "wt {wt:?}");

        let mut chronological = stream;
        chronological.sort_by_key(|o| (o.day, o.ts));
        let index = AreaIndex::build(&chronological, 1);
        assert_eq!(sd, v_sd(&index, day, t, l), "offline equivalence (sd)");
        assert_eq!(lc, v_lc(&index, day, t, l), "offline equivalence (lc)");
        assert_eq!(wt, v_wt(&index, day, t, l), "offline equivalence (wt)");

        // The defensive clamp is a tripwire: quiet on a healthy stream.
        assert_eq!(w.stats().slot_clamped, 0);

        // And at the next minute the ts == 105 orders become countable.
        w.advance_to(day, 106);
        let (sd_next, _, _) = w.vectors(106);
        assert_eq!(sd_next.iter().sum::<f32>(), 4.0, "sd {sd_next:?}");
    }

    #[test]
    fn lag_slot_clamps_out_of_range_lags_and_counts() {
        let mut clamped = 0u64;
        // In-range lags map without touching the tripwire.
        assert_eq!(OnlineWindow::lag_slot(5, 105, 104, true, &mut clamped), 0);
        assert_eq!(OnlineWindow::lag_slot(5, 105, 100, true, &mut clamped), 4);
        assert_eq!(OnlineWindow::lag_slot(5, 105, 100, false, &mut clamped), 9);
        assert_eq!(clamped, 0);
        // Lag 0 (ts == t) clamps up to slot 0 instead of wrapping.
        assert_eq!(OnlineWindow::lag_slot(5, 105, 105, true, &mut clamped), 0);
        assert_eq!(clamped, 1);
        // Lag > L clamps down to the last slot instead of out of range.
        assert_eq!(OnlineWindow::lag_slot(5, 105, 90, false, &mut clamped), 9);
        assert_eq!(clamped, 2);
        // ts ahead of t saturates to lag 0 → clamps to slot 0.
        assert_eq!(OnlineWindow::lag_slot(5, 105, 200, true, &mut clamped), 0);
        assert_eq!(clamped, 3);
    }

    #[test]
    fn retry_chain_semantics() {
        let mut w = OnlineWindow::new(0, &cfg(8));
        // pid 9 fails at 95 and 98, succeeds at 101.
        for (ts, valid) in [(95u16, false), (98, false), (101, true)] {
            w.observe(order(0, ts, 9, valid)).unwrap();
        }
        w.advance_to(0, 103);
        let (_, lc, wt) = w.vectors(103);
        // Last call at 101 (valid), lag 2.
        assert_eq!(lc[1], 1.0);
        // Wait 101 - 95 = 6, success.
        assert_eq!(wt[6], 1.0);
    }
}
