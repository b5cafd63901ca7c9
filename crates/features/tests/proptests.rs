//! Property-based tests for the feature pipeline: conservation laws and
//! consistency invariants that must hold for seeded order streams
//! (`deepsd_rng::cases`).

// Exact float comparisons assert conservation laws bit-for-bit on purpose.
#![allow(clippy::float_cmp)]

use deepsd_features::vectors::{v_lc, v_sd, v_wt};
use deepsd_features::{AreaIndex, FeatureConfig, HistoryStacks};
use deepsd_rng::{cases, Rng};
use deepsd_simdata::Order;

const L: usize = 8;
const T: u16 = 200;
const CASES: u64 = 128;

fn order(ts: u16, pid: u64, valid: bool) -> Order {
    Order {
        day: 0,
        ts,
        pid,
        loc_start: 0,
        loc_dest: 0,
        valid,
    }
}

/// A chronological one-day stream of up to 40 orders near the query
/// window, drawn from 12 passengers.
fn orders(case: &mut Rng) -> Vec<Order> {
    let len = case.gen_range(0usize..40);
    let mut raw: Vec<Order> = (0..len)
        .map(|_| {
            order(
                case.gen_range(180u16..220),
                case.gen_range(0u64..12),
                case.gen_bool(0.5),
            )
        })
        .collect();
    raw.sort_by_key(|o| o.ts);
    raw
}

fn windowed(orders: &[Order]) -> impl Iterator<Item = &Order> {
    orders.iter().filter(|o| o.ts >= T - L as u16 && o.ts < T)
}

fn windowed_pids(orders: &[Order]) -> f32 {
    windowed(orders)
        .map(|o| o.pid)
        .collect::<std::collections::HashSet<_>>()
        .len() as f32
}

fn v_sd_conserves_window_order_count(orders: &[Order]) {
    let index = AreaIndex::build(orders, 1);
    let v = v_sd(&index, 0, T, L);
    assert_eq!(v.iter().sum::<f32>(), windowed(orders).count() as f32);
}

fn v_lc_counts_each_windowed_pid_once(orders: &[Order]) {
    let index = AreaIndex::build(orders, 1);
    let v = v_lc(&index, 0, T, L);
    assert_eq!(v.iter().sum::<f32>(), windowed_pids(orders));
}

fn v_wt_counts_each_windowed_pid_once(orders: &[Order]) {
    // "First call in [t-L, t)" means the passenger's earliest call
    // inside the window, so every pid with at least one in-window
    // call contributes exactly once — the same total as V_lc.
    let index = AreaIndex::build(orders, 1);
    let wt = v_wt(&index, 0, T, L);
    let lc = v_lc(&index, 0, T, L);
    assert_eq!(wt.iter().sum::<f32>(), windowed_pids(orders));
    assert_eq!(wt.iter().sum::<f32>(), lc.iter().sum::<f32>());
}

#[test]
fn v_sd_conserves_window_order_count_cases() {
    cases(CASES, |case| {
        v_sd_conserves_window_order_count(&orders(case))
    });
}

#[test]
fn v_lc_counts_each_windowed_pid_once_cases() {
    cases(CASES, |case| {
        v_lc_counts_each_windowed_pid_once(&orders(case))
    });
}

#[test]
fn v_wt_counts_each_windowed_pid_once_cases() {
    cases(CASES, |case| {
        v_wt_counts_each_windowed_pid_once(&orders(case))
    });
}

#[test]
fn repeat_unanswered_caller_regression() {
    // A passenger calling twice, never answered: once outside and once
    // inside the window, then twice inside it.
    for stream in [
        [order(180, 5, false), order(192, 5, false)],
        [order(193, 5, false), order(195, 5, false)],
    ] {
        v_sd_conserves_window_order_count(&stream);
        v_lc_counts_each_windowed_pid_once(&stream);
        v_wt_counts_each_windowed_pid_once(&stream);
    }
}

#[test]
fn vectors_are_nonnegative() {
    cases(CASES, |case| {
        let index = AreaIndex::build(&orders(case), 1);
        for v in [
            v_sd(&index, 0, T, L),
            v_lc(&index, 0, T, L),
            v_wt(&index, 0, T, L),
        ] {
            assert!(v.iter().all(|&x| x >= 0.0));
            assert_eq!(v.len(), 2 * L);
        }
    });
}

#[test]
fn lc_total_never_exceeds_sd_total() {
    cases(CASES, |case| {
        let index = AreaIndex::build(&orders(case), 1);
        let sd: f32 = v_sd(&index, 0, T, L).iter().sum();
        let lc: f32 = v_lc(&index, 0, T, L).iter().sum();
        assert!(lc <= sd);
    });
}

#[test]
fn gap_is_additive_over_subwindows() {
    cases(CASES, |case| {
        let index = AreaIndex::build(&orders(case), 1);
        let whole = index.gap(0, 190, 20);
        assert_eq!(whole, index.gap(0, 190, 10) + index.gap(0, 200, 10));
    });
}

#[test]
fn history_stack_averages_are_bounded_by_max_count() {
    cases(CASES, |case| {
        let counts: Vec<u32> = (0..14).map(|_| case.gen_range(0u32..5)).collect();
        // Build 14 days with `counts[d]` valid orders at minute T-1.
        let mut orders = Vec::new();
        let mut pid = 0u64;
        for (day, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                orders.push(Order {
                    day: day as u16,
                    ..order(T - 1, pid, true)
                });
                pid += 1;
            }
        }
        let index = AreaIndex::build(&orders, 14);
        let cfg = FeatureConfig {
            window_l: L,
            history_window: 8,
            ..FeatureConfig::default()
        };
        let stack = HistoryStacks::build(&index, &cfg, 13, T).sd;
        let max = *counts.iter().max().unwrap() as f32;
        assert!(stack.iter().all(|&v| v <= max + 1e-6));
        assert!(stack.iter().all(|&v| v >= 0.0));
    });
}
