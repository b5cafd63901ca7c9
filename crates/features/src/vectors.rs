//! Real-time feature vectors (Definitions 5–7 of the paper).
//!
//! All three vectors are `2L`-dimensional: the first `L` entries describe
//! "successful" passengers/orders per look-back minute (or wait length),
//! the second `L` entries the unsuccessful ones.
//!
//! Underflow audit: every subtraction below is range-guarded — `t >= L`
//! is asserted at each entry point (offline extraction runs off the
//! request path, so the assert is the right failure mode here), a
//! window only counts records with `ts ∈ [t - L, t)` so lags stay in
//! `1..=L`, and passenger chains walk forward so `last.ts >= o.ts`.
//! The serving-path twin ([`crate::online`]) cannot assert and uses
//! saturating clamp-and-count arithmetic instead.

use crate::index::{AreaIndex, OrderRecord};
use deepsd_simdata::MINUTES_PER_DAY;

/// Real-time supply-demand vector `V_sd^{d,t}` (Definition 5).
///
/// Entry `ℓ - 1` (for `ℓ ∈ 1..=L`) is the number of **valid** orders at
/// timeslot `t - ℓ`; entry `L + ℓ - 1` is the number of **invalid**
/// orders at `t - ℓ`.
///
/// # Panics
/// Panics if `t < L` (the window would cross midnight backwards).
pub fn v_sd(index: &AreaIndex, day: u16, t: u16, l: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; 2 * l];
    add_sd(index, day, t, l, &mut out);
    out
}

/// Real-time last-call vector `V_lc^{d,t}` (Definition 6).
///
/// Among all passengers whose *last* request inside `[t - L, t)` happened
/// at `t - ℓ`: entry `ℓ - 1` counts those whose last request was answered
/// (they got the ride), entry `L + ℓ - 1` those whose last request went
/// unanswered. A failed last call near `t` is the strongest predictor of
/// an imminent gap.
pub fn v_lc(index: &AreaIndex, day: u16, t: u16, l: usize) -> Vec<f32> {
    v_lc_wt(index, day, t, l).0
}

/// Real-time waiting-time vector `V_wt^{d,t}` (Definition 7).
///
/// For each passenger whose *first* request falls inside `[t - L, t)`,
/// the wait is the span in minutes from that first request to the
/// passenger's last request before `t`. Entry `w` (clamped to `L - 1`)
/// counts passengers with wait `w` who got a ride on their last request;
/// entry `L + w` counts those who did not.
pub fn v_wt(index: &AreaIndex, day: u16, t: u16, l: usize) -> Vec<f32> {
    v_lc_wt(index, day, t, l).1
}

/// [`v_lc`] and [`v_wt`] of one window, from one pass over its orders.
pub fn v_lc_wt(index: &AreaIndex, day: u16, t: u16, l: usize) -> (Vec<f32>, Vec<f32>) {
    let mut lc = vec![0.0f32; 2 * l];
    let mut wt = vec![0.0f32; 2 * l];
    add_lc_wt(
        index,
        day,
        l,
        &mut [LcWt {
            t,
            lc: &mut lc,
            wt: &mut wt,
        }],
    );
    (lc, wt)
}

/// Adds the counts of [`v_sd`] into `out` (`2L` entries). The weekday
/// histories sum several days into one buffer this way.
///
/// A window end past midnight (`t > 1440`, the history at `t + C` for
/// the day's last slots) counts only the minutes before midnight, as
/// [`add_lc_wt`] and [`AreaIndex::gap`] do.
// deepsd-lint: allow(panic-reach, reason="explicit precondition asserts; day/t are validated upstream at admission")
pub fn add_sd(index: &AreaIndex, day: u16, t: u16, l: usize, out: &mut [f32]) {
    assert!(
        t as usize >= l,
        "window [t-L, t) crosses midnight: t={t}, L={l}"
    );
    for ell in 1..=l {
        let minute = t - ell as u16;
        if u32::from(minute) >= MINUTES_PER_DAY {
            continue;
        }
        let [valid, invalid] = index.counts_at(day, minute);
        out[ell - 1] += valid as f32;
        out[l + ell - 1] += invalid as f32;
    }
}

/// One look-back window `[t - L, t)` of [`add_lc_wt`] and the `2L`-entry
/// buffers its [`v_lc`] and [`v_wt`] counts are added into.
pub struct LcWt<'a> {
    /// The window's end (exclusive); may pass midnight.
    pub t: u16,
    /// Receives the last-call counts.
    pub lc: &'a mut [f32],
    /// Receives the waiting-time counts.
    pub wt: &'a mut [f32],
}

/// Adds the counts of [`v_lc`] and [`v_wt`] of every window in
/// `windows` on `day` into its buffers. The day's orders are cut once,
/// over the span from the earliest window start to the latest window
/// end, and each order is counted into every window that holds it: the
/// weekday histories read the windows at `t` and at `t + C` this way.
/// A window end past midnight counts only the day's orders, as
/// [`add_sd`] does.
///
/// # Panics
/// Panics if a window's `t < L`.
// deepsd-lint: allow(panic-reach, reason="explicit precondition asserts; day/t are validated upstream at admission")
pub fn add_lc_wt(index: &AreaIndex, day: u16, l: usize, windows: &mut [LcWt<'_>]) {
    for w in windows.iter() {
        let t = w.t;
        assert!(
            t as usize >= l,
            "window [t-L, t) crosses midnight: t={t}, L={l}"
        );
    }
    let (Some(start), Some(end)) = (
        windows.iter().map(|w| w.t - l as u16).min(),
        windows.iter().map(|w| w.t).max(),
    ) else {
        return;
    };
    let records = index.records();
    let day_end = index.day_range(day).end;
    let mut i = index.first_at(day, start);
    while i < day_end && records[i].ts < end {
        let o = records[i];
        for w in windows.iter_mut() {
            let from = w.t - l as u16;
            if o.ts >= from && o.ts < w.t {
                count_lc(records, o, w.t, l, w.lc);
                count_wt(records, i, from, w.t, l, w.wt);
            }
        }
        i += 1;
    }
}

/// Counts order `o` of the window ending at `t` into `lc` if it is its
/// passenger's last call inside the window: the passenger's next
/// same-day order (if any) is at or after `t`.
// deepsd-lint: allow(panic-reach, reason="record links index records this index produced")
fn count_lc(records: &[OrderRecord], o: OrderRecord, t: u16, l: usize, lc: &mut [f32]) {
    if o.next().is_some_and(|n| records[n].ts < t) {
        return;
    }
    let ell = (t - o.ts) as usize; // 1..=L
    let slot = if o.valid { ell - 1 } else { l + ell - 1 };
    lc[slot] += 1.0;
}

/// Counts record `i` of the window `[from, t)` into `wt` if it is its
/// passenger's first call inside the window (no previous same-day order
/// at or after `from`), with the wait to the passenger's last call
/// before `t`.
// deepsd-lint: allow(panic-reach, reason="record links index records this index produced")
fn count_wt(records: &[OrderRecord], i: usize, from: u16, t: u16, l: usize, wt: &mut [f32]) {
    let first = records[i];
    if first.prev().is_some_and(|p| records[p].ts >= from) {
        return;
    }
    // Walk the retry chain to the pid's last call before `t`.
    let mut last = first;
    while let Some(n) = last.next() {
        if records[n].ts >= t {
            break;
        }
        last = records[n];
    }
    let wait = (last.ts - first.ts) as usize;
    let w = wait.min(l - 1);
    let slot = if last.valid { w } else { l + w };
    wt[slot] += 1.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsd_simdata::Order;

    fn o(ts: u16, pid: u64, valid: bool) -> Order {
        Order {
            day: 0,
            ts,
            pid,
            loc_start: 0,
            loc_dest: 0,
            valid,
        }
    }

    fn idx(orders: Vec<Order>) -> AreaIndex {
        let mut sorted = orders;
        sorted.sort_by_key(|x| (x.day, x.ts));
        AreaIndex::build(&sorted, 1)
    }

    const L: usize = 5;

    #[test]
    fn v_sd_counts_by_lag() {
        // t = 100, L = 5 → window minutes 95..99; lag ℓ = 100 - minute.
        let index = idx(vec![
            o(99, 1, true),  // ℓ = 1
            o(99, 2, true),  // ℓ = 1
            o(95, 3, false), // ℓ = 5
            o(94, 4, true),  // outside
            o(100, 5, true), // outside
        ]);
        let v = v_sd(&index, 0, 100, L);
        assert_eq!(v[0], 2.0); // valid at ℓ=1
        assert_eq!(v[L + 4], 1.0); // invalid at ℓ=5
        assert_eq!(v.iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn v_sd_conservation() {
        // Sum of V_sd equals the number of orders in the window.
        let index = idx(vec![
            o(96, 1, true),
            o(97, 1, false),
            o(98, 2, true),
            o(99, 3, false),
        ]);
        let v = v_sd(&index, 0, 100, L);
        assert_eq!(v.iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn v_lc_keeps_only_last_call_per_pid() {
        // pid 7 calls at 95 (fail) and 98 (fail): only 98 counts, invalid.
        let index = idx(vec![o(95, 7, false), o(98, 7, false), o(97, 8, true)]);
        let v = v_lc(&index, 0, 100, L);
        assert_eq!(v[L + 1], 1.0); // pid 7 invalid at ℓ = 2
        assert_eq!(v[2], 1.0); // pid 8 valid at ℓ = 3
        assert_eq!(v.iter().sum::<f32>(), 2.0);
    }

    #[test]
    fn v_lc_ignores_pid_with_next_call_inside_window() {
        let index = idx(vec![o(96, 7, false), o(99, 7, true)]);
        let v = v_lc(&index, 0, 100, L);
        // Only the 99 call counts (valid at ℓ = 1).
        assert_eq!(v[0], 1.0);
        assert_eq!(v.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn v_lc_respects_next_call_outside_window() {
        // pid calls at 99 and again at 101 (>= t): the 99 call is still
        // the last *within* the window.
        let index = idx(vec![o(99, 7, false), o(101, 7, true)]);
        let v = v_lc(&index, 0, 100, L);
        assert_eq!(v[L], 1.0); // invalid at ℓ = 1
    }

    #[test]
    fn v_wt_measures_first_to_last_span() {
        // pid 7: first 95 (fail), retry 97 (fail), last 99 (valid).
        // wait = 4 minutes, got ride → slot 4 of the valid part.
        let index = idx(vec![o(95, 7, false), o(97, 7, false), o(99, 7, true)]);
        let v = v_wt(&index, 0, 100, L);
        assert_eq!(v[4], 1.0);
        assert_eq!(v.iter().sum::<f32>(), 1.0);
    }

    #[test]
    fn v_wt_single_call_is_zero_wait() {
        let index = idx(vec![o(98, 1, true), o(97, 2, false)]);
        let v = v_wt(&index, 0, 100, L);
        assert_eq!(v[0], 1.0); // pid 1: wait 0, success
        assert_eq!(v[L], 1.0); // pid 2: wait 0, failure
    }

    #[test]
    fn v_wt_failed_chain_counts_as_failure() {
        let index = idx(vec![o(95, 7, false), o(98, 7, false)]);
        let v = v_wt(&index, 0, 100, L);
        assert_eq!(v[L + 3], 1.0); // wait 3, no ride
    }

    #[test]
    fn v_wt_chain_stops_at_window_end() {
        // Last call at 102 is outside; wait measured to the 97 call.
        let index = idx(vec![o(96, 7, false), o(97, 7, false), o(102, 7, true)]);
        let v = v_wt(&index, 0, 100, L);
        assert_eq!(v[L + 1], 1.0); // wait 1 (96→97), chain unresolved
    }

    #[test]
    fn vectors_empty_window() {
        let index = idx(vec![o(200, 1, true)]);
        for v in [
            v_sd(&index, 0, 100, L),
            v_lc(&index, 0, 100, L),
            v_wt(&index, 0, 100, L),
        ] {
            assert!(v.iter().all(|&x| x == 0.0));
            assert_eq!(v.len(), 2 * L);
        }
    }

    #[test]
    #[should_panic(expected = "crosses midnight")]
    fn v_sd_rejects_early_t() {
        let index = idx(vec![]);
        let _ = v_sd(&index, 0, 3, L);
    }

    #[test]
    fn lc_count_never_exceeds_sd_count() {
        // Last-call entries count pids; sd entries count orders; pids ≤
        // orders for every window.
        let index = idx(vec![
            o(95, 1, false),
            o(96, 1, false),
            o(96, 2, true),
            o(98, 3, false),
            o(99, 3, false),
        ]);
        let sd = v_sd(&index, 0, 100, L);
        let lc = v_lc(&index, 0, 100, L);
        assert!(lc.iter().sum::<f32>() <= sd.iter().sum::<f32>());
        assert_eq!(lc.iter().sum::<f32>(), 3.0); // three distinct pids
    }
}
