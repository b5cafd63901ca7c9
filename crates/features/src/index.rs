//! Per-area order indexes: minute-level valid/invalid counts plus
//! same-passenger order chains, the raw material for every feature vector.
//!
//! The index keeps what the feature vectors read and nothing else, laid
//! out for the history walk, which reads one short window per past day:
//! one 12-byte [`OrderRecord`] per order (minute, outcome and both
//! same-passenger links), one interleaved `[valid, invalid]` count pair
//! per minute, and the first record of every 16-minute block, so a
//! window's first order is a table read plus a scan of at most one
//! block.

use deepsd_simdata::{Order, MINUTES_PER_DAY};
use std::collections::HashMap;
use std::ops::Range;

const NO_LINK: u32 = u32::MAX;
const MINUTES: usize = MINUTES_PER_DAY as usize;

/// Minutes per block of the window lookup table: a window start reads
/// its block's first record, then scans the block's earlier minutes.
const BLOCK_MINUTES: usize = 16;
const BLOCKS_PER_DAY: usize = MINUTES / BLOCK_MINUTES;
const _: () = assert!(MINUTES.is_multiple_of(BLOCK_MINUTES));

/// One indexed order: what the feature vectors read of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderRecord {
    /// Minute of the day the order was placed.
    pub ts: u16,
    /// Whether the order was answered.
    pub valid: bool,
    /// Index of the same passenger's next order that day (`NO_LINK` if
    /// none).
    next: u32,
    /// Index of the same passenger's previous order that day.
    prev: u32,
}

const _: () = assert!(std::mem::size_of::<OrderRecord>() == 12);

impl OrderRecord {
    /// Index of the same passenger's next order on the same day.
    pub fn next(&self) -> Option<usize> {
        (self.next != NO_LINK).then_some(self.next as usize)
    }

    /// Index of the same passenger's previous order on the same day.
    pub fn prev(&self) -> Option<usize> {
        (self.prev != NO_LINK).then_some(self.prev as usize)
    }
}

/// Index over one area's orders enabling O(window) feature queries.
#[derive(Debug, Clone)]
pub struct AreaIndex {
    n_days: u16,
    /// One record per order, chronological (as produced by the
    /// simulator).
    records: Vec<OrderRecord>,
    /// `[valid, invalid]` orders per minute, `day * 1440 + minute`.
    counts: Vec<[u16; 2]>,
    /// Index of the first record at or after each block start,
    /// `day * BLOCKS_PER_DAY + block`, plus a final entry equal to the
    /// record count. Day `d`'s records are
    /// `block_start[d * BLOCKS_PER_DAY]..block_start[(d + 1) * BLOCKS_PER_DAY]`.
    block_start: Vec<u32>,
}

impl AreaIndex {
    /// Builds the index from one area's chronological order stream.
    ///
    /// # Panics
    /// Panics if orders are not sorted by `(day, ts)`, reference a day
    /// `>= n_days` or a minute `>= 1440`, or number `u32::MAX` or more.
    // deepsd-lint: allow(panic-reach, reason="input-validation asserts at index construction, before any serving read")
    pub fn build(orders: &[Order], n_days: u16) -> AreaIndex {
        let days = usize::from(n_days);
        let n = u32::try_from(orders.len())
            .ok()
            .filter(|&n| n != NO_LINK)
            .unwrap_or_else(|| panic!("{} orders exceed the index", orders.len()));
        let mut counts = vec![[0u16; 2]; days * MINUTES];
        let mut block_start = vec![n; days * BLOCKS_PER_DAY + 1];
        let mut records = Vec::with_capacity(orders.len());
        let mut next_block = 0usize;
        let mut prev_key = (0u16, 0u16);
        let mut current_day = 0u16;
        // Per-day pid -> last order index map, reset at day boundaries.
        let mut last_of_pid: HashMap<u64, u32> = HashMap::new();

        for (i, o) in (0u32..).zip(orders) {
            assert!(o.day < n_days, "order day {} out of {n_days}", o.day);
            assert!(
                usize::from(o.ts) < MINUTES,
                "order minute {} out of range",
                o.ts
            );
            assert!((o.day, o.ts) >= prev_key, "orders must be chronological");
            prev_key = (o.day, o.ts);
            if o.day != current_day {
                current_day = o.day;
                last_of_pid.clear();
            }
            let minute = usize::from(o.day) * MINUTES + usize::from(o.ts);
            let block = minute / BLOCK_MINUTES;
            while next_block <= block {
                block_start[next_block] = i;
                next_block += 1;
            }
            let c = &mut counts[minute][usize::from(!o.valid)];
            *c = c.saturating_add(1);
            let mut prev = NO_LINK;
            if let Some(p) = last_of_pid.insert(o.pid, i) {
                let pr: &mut OrderRecord = &mut records[p as usize];
                pr.next = i;
                prev = p;
            }
            records.push(OrderRecord {
                ts: o.ts,
                valid: o.valid,
                next: NO_LINK,
                prev,
            });
        }

        AreaIndex {
            n_days,
            records,
            counts,
            block_start,
        }
    }

    /// Number of indexed days.
    pub fn n_days(&self) -> u16 {
        self.n_days
    }

    /// `[valid, invalid]` order counts at `(day, minute)`.
    // deepsd-lint: allow(panic-reach, reason="day/minute bounded by the per-day table dimensions asserted in build")
    pub fn counts_at(&self, day: u16, minute: u16) -> [u16; 2] {
        self.counts[usize::from(day) * MINUTES + usize::from(minute)]
    }

    /// The supply-demand gap of `[t, t + horizon)` on `day`: the number of
    /// invalid orders in the window (Definition 2).
    pub fn gap(&self, day: u16, t: u16, horizon: usize) -> u32 {
        let end = (usize::from(t) + horizon).min(MINUTES);
        (usize::from(t)..end)
            .map(|m| u32::from(self.counts[usize::from(day) * MINUTES + m][1]))
            .sum()
    }

    /// Every record, chronological; indexes into it are the ones
    /// [`AreaIndex::day_range`], [`AreaIndex::window`] and the record
    /// links return.
    pub fn records(&self) -> &[OrderRecord] {
        &self.records
    }

    /// Record indexes of one day's orders.
    // deepsd-lint: allow(panic-reach, reason="day < n_days is asserted in build; block_start is sized n_days*BLOCKS_PER_DAY+1")
    pub fn day_range(&self, day: u16) -> Range<usize> {
        let base = usize::from(day) * BLOCKS_PER_DAY;
        self.block_start[base] as usize..self.block_start[base + BLOCKS_PER_DAY] as usize
    }

    /// Index of the first record of `day` at or after `minute` (the
    /// day's end when there is none, also for `minute >= 1440`).
    // deepsd-lint: allow(panic-reach, reason="day < n_days is asserted in build; the block and its successor entry exist for every minute < 1440")
    pub fn first_at(&self, day: u16, minute: u16) -> usize {
        let base = usize::from(day) * BLOCKS_PER_DAY;
        let minute_us = usize::from(minute);
        if minute_us >= MINUTES {
            return self.block_start[base + BLOCKS_PER_DAY] as usize;
        }
        let block = base + minute_us / BLOCK_MINUTES;
        let mut i = self.block_start[block] as usize;
        let end = self.block_start[block + 1] as usize;
        while i < end && self.records[i].ts < minute {
            i += 1;
        }
        i
    }

    /// Record indexes of the orders of `day` with `ts` in
    /// `[from_ts, to_ts)`.
    pub fn window(&self, day: u16, from_ts: u16, to_ts: u16) -> Range<usize> {
        let lo = self.first_at(day, from_ts);
        lo..self.first_at(day, to_ts).max(lo)
    }

    /// Total orders indexed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the area saw no orders.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Heap bytes the index owns: the resident-state budget of the
    /// streaming extractor counts these.
    pub fn heap_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<OrderRecord>()
            + self.counts.capacity() * std::mem::size_of::<[u16; 2]>()
            + self.block_start.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsd_rng::{cases, Rng};

    fn o(day: u16, ts: u16, pid: u64, valid: bool) -> Order {
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
    fn minute_counts() {
        let orders = vec![
            o(0, 10, 1, true),
            o(0, 10, 2, false),
            o(0, 10, 3, true),
            o(0, 11, 4, false),
            o(1, 10, 5, true),
        ];
        let idx = AreaIndex::build(&orders, 2);
        assert_eq!(idx.counts_at(0, 10), [2, 1]);
        assert_eq!(idx.counts_at(0, 11), [0, 1]);
        assert_eq!(idx.counts_at(1, 10), [1, 0]);
        assert_eq!(idx.counts_at(1, 11), [0, 0]);
    }

    #[test]
    fn gap_counts_invalid_in_window() {
        let orders = vec![
            o(0, 100, 1, false),
            o(0, 105, 2, false),
            o(0, 109, 3, false),
            o(0, 110, 4, false), // outside [100, 110)
            o(0, 99, 0, false),  // outside
        ];
        let mut sorted = orders;
        sorted.sort_by_key(|x| (x.day, x.ts));
        let idx = AreaIndex::build(&sorted, 1);
        assert_eq!(idx.gap(0, 100, 10), 3);
        assert_eq!(idx.gap(0, 110, 10), 1);
        assert_eq!(idx.gap(0, 120, 10), 0);
    }

    #[test]
    fn gap_clamps_at_midnight() {
        let orders = vec![o(0, 1439, 1, false)];
        let idx = AreaIndex::build(&orders, 1);
        assert_eq!(idx.gap(0, 1435, 10), 1);
    }

    #[test]
    fn pid_chains_link_within_day() {
        let orders = vec![
            o(0, 10, 7, false),
            o(0, 12, 7, false),
            o(0, 15, 7, true),
            o(1, 20, 7, true), // same pid, next day: no link
        ];
        let idx = AreaIndex::build(&orders, 2);
        let r = idx.records();
        assert_eq!(r[0].next(), Some(1));
        assert_eq!(r[1].next(), Some(2));
        assert_eq!(r[2].next(), None);
        assert_eq!(r[3].next(), None);
        assert_eq!(r[3].prev(), None);
        assert_eq!(r[2].prev(), Some(1));
        assert_eq!(r[0].prev(), None);
    }

    #[test]
    fn day_ranges_handle_empty_days() {
        let orders = vec![o(0, 5, 1, true), o(2, 7, 2, true)];
        let idx = AreaIndex::build(&orders, 4);
        assert_eq!(idx.day_range(0), 0..1);
        assert_eq!(idx.day_range(1), 1..1);
        assert_eq!(idx.day_range(2), 1..2);
        assert_eq!(idx.day_range(3), 2..2);
    }

    #[test]
    fn day_orders_in_slices_by_ts() {
        let orders = vec![
            o(0, 5, 1, true),
            o(0, 10, 2, true),
            o(0, 15, 3, true),
            o(0, 20, 4, true),
        ];
        let idx = AreaIndex::build(&orders, 1);
        assert_eq!(idx.window(0, 10, 20), 1..3);
        assert_eq!(idx.window(0, 0, 1440), 0..4);
        assert!(idx.window(0, 100, 200).is_empty());
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn rejects_unsorted_orders() {
        let orders = vec![o(0, 10, 1, true), o(0, 5, 2, true)];
        let _ = AreaIndex::build(&orders, 1);
    }

    #[test]
    fn empty_area_is_fine() {
        let idx = AreaIndex::build(&[], 3);
        assert!(idx.is_empty());
        assert_eq!(idx.gap(1, 100, 10), 0);
        assert!(idx.day_range(2).is_empty());
    }

    /// A random area: empty, quiet, busy and bursty days (a burst packs
    /// up to 1 500 orders into half an hour), retry chains of a small
    /// passenger pool, orders at minute 1439. Sorted by `(day, ts)`.
    fn random_orders(rng: &mut Rng, n_days: u16) -> Vec<Order> {
        let mut orders = Vec::new();
        for day in 0..n_days {
            let (n, span) = match rng.below(4) {
                0 => (0, 0u16..1440),
                1 => (rng.gen_range(0usize..20), 0..1440),
                2 => (rng.gen_range(0usize..1500), 1410..1440),
                _ => (rng.gen_range(0usize..1500), 0..1440),
            };
            for _ in 0..n {
                let ts = if rng.gen_bool(0.1) {
                    1439
                } else {
                    rng.gen_range(span.clone())
                };
                orders.push(o(day, ts, rng.gen_range(0u64..60), rng.gen_bool(0.6)));
            }
        }
        orders.sort_by_key(|x| (x.day, x.ts));
        orders
    }

    /// The windows, counts and links the index replaces, computed
    /// straight from the order list: `partition_point` on each day's
    /// slice, per-minute tallies, and a scan of the day for each order's
    /// same-passenger neighbours.
    #[test]
    fn window_lookup_matches_partition_point_on_day_slices() {
        cases(48, |rng| {
            let n_days = rng.gen_range(1u16..10);
            let orders = random_orders(rng, n_days);
            let idx = AreaIndex::build(&orders, n_days);
            assert_eq!(idx.len(), orders.len());
            for (r, o) in idx.records().iter().zip(&orders) {
                assert_eq!((r.ts, r.valid), (o.ts, o.valid));
            }
            for day in 0..n_days {
                let s = orders.partition_point(|x| x.day < day);
                let e = orders.partition_point(|x| x.day <= day);
                assert_eq!(idx.day_range(day), s..e, "day {day}");
                let slice = &orders[s..e];
                let mut tally = vec![[0u16; 2]; 1440];
                for x in slice {
                    tally[usize::from(x.ts)][usize::from(!x.valid)] += 1;
                }
                for (m, want) in (0u16..).zip(&tally) {
                    assert_eq!(idx.counts_at(day, m), *want, "day {day} minute {m}");
                }
                // Every window shape the features cut: the lc/wt window
                // `[t - L, t)` for `L` up to 24 and `t` up to `1440 + C`,
                // and the gap window `[t, t + C)`.
                for _ in 0..60 {
                    let l = rng.gen_range(1u16..25);
                    let t = match rng.below(3) {
                        0 => rng.gen_range(1400u16..1460),
                        _ => rng.gen_range(l..1440),
                    };
                    let from = t - l.min(t);
                    let lo = slice.partition_point(|x| x.ts < from);
                    let hi = slice.partition_point(|x| x.ts < t);
                    assert_eq!(
                        idx.window(day, from, t),
                        s + lo..s + hi,
                        "day {day} [{from}, {t})"
                    );
                    assert_eq!(idx.first_at(day, from), s + lo);
                    let (t, horizon) = (t.min(1439), rng.gen_range(1usize..16));
                    let end = (usize::from(t) + horizon).min(1440);
                    let want: u32 = (usize::from(t)..end).map(|m| u32::from(tally[m][1])).sum();
                    assert_eq!(idx.gap(day, t, horizon), want, "gap day {day} t {t}");
                }
                for (i, x) in slice.iter().enumerate() {
                    let next = slice[i + 1..].iter().position(|y| y.pid == x.pid);
                    let prev = slice[..i].iter().rposition(|y| y.pid == x.pid);
                    let r = idx.records()[s + i];
                    let want = (next.map(|k| s + i + 1 + k), prev.map(|k| s + k));
                    assert_eq!((r.next(), r.prev()), want, "order {}", s + i);
                }
            }
        });
    }
}
