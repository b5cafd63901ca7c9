//! Cross-process determinism (DESIGN.md §4.4): the timing-stripped
//! telemetry snapshot and the per-epoch MAE/RMSE trace must be byte
//! identical across two *fresh processes*, not just two runs inside one
//! process. This catches anything address- or environment-dependent
//! (hasher seeds, allocation-order iteration, wall-clock leaks) that an
//! in-process repeat can never see.
//!
//! The test respawns its own binary (`std::env::current_exe`) twice
//! with an env-gated child mode; the child trains a tiny model and
//! prints the snapshot plus an exact `f64::to_bits` trace between
//! markers, and the parent compares the two payloads byte for byte.

use std::process::Command;

const CHILD_ENV: &str = "DEEPSD_DETERMINISM_CHILD";
const STREAM_CHILD_ENV: &str = "DEEPSD_DETERMINISM_STREAM_CHILD";
const CONTINUAL_CHILD_ENV: &str = "DEEPSD_DETERMINISM_CONTINUAL_CHILD";
const THREADS_ENV: &str = "DEEPSD_DETERMINISM_THREADS";
const BEGIN: &str = "-----BEGIN DEEPSD TRACE-----";
const END: &str = "-----END DEEPSD TRACE-----";

/// Child mode: trains a tiny model and prints the determinism payload.
/// Without the env gate this test is an immediate no-op, so a plain
/// `cargo test` run never trains here twice.
#[test]
fn child_emits_training_trace() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    use deepsd::trainer::train;
    use deepsd::{DeepSD, EnvBlocks, ModelConfig, Telemetry, TrainOptions};
    use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
    use deepsd_simdata::{SimConfig, SimDataset};

    let ds = SimDataset::generate(&SimConfig::smoke(61));
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };
    let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
    let tr = train_keys(ds.n_areas() as u16, 7..11, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 11..13, &fcfg);
    let eval_items = fx.extract_all(&te);

    let mut mcfg = ModelConfig::basic(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let mut model = DeepSD::new(mcfg);

    let telemetry = Telemetry::new();
    let opts = TrainOptions {
        epochs: 2,
        best_k: 1,
        threads: 2,
        telemetry: Some(telemetry.clone()),
        ..TrainOptions::default()
    };
    let report = train(&mut model, &mut fx, &tr, &eval_items, &opts);

    println!("{BEGIN}");
    println!("{}", telemetry.to_json_without_timings());
    for e in &report.epochs {
        // Exact bit patterns: a formatted float could hide a 1-ulp
        // divergence behind rounding.
        println!(
            "epoch {} loss {:016x} mae {:016x} rmse {:016x}",
            e.epoch,
            e.train_loss.to_bits(),
            e.eval_mae.to_bits(),
            e.eval_rmse.to_bits()
        );
    }
    println!(
        "final mae {:016x} rmse {:016x}",
        report.final_mae.to_bits(),
        report.final_rmse.to_bits()
    );
    println!("{END}");
}

/// Child mode: trains through the bounded-memory streaming data path
/// (chunked generator → `StreamingExtractor` → windowed epoch iterator)
/// at the worker count named by `DEEPSD_DETERMINISM_THREADS` and prints
/// the same payload as the classic child. The stripped snapshot now
/// also carries the `data_*_read_total` counters, which must not depend
/// on the worker count.
#[test]
fn child_emits_streamed_trace() {
    if std::env::var_os(STREAM_CHILD_ENV).is_none() {
        return;
    }
    use deepsd::trainer::train;
    use deepsd::{DeepSD, EnvBlocks, ModelConfig, Telemetry, TrainOptions};
    use deepsd_features::{
        test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource, StreamingExtractor,
    };
    use deepsd_simdata::{SimConfig, SimDataset, StreamGenerator};

    let threads: usize = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let config = SimConfig::smoke(61);
    let ds = SimDataset::generate(&config);
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };
    let tr = train_keys(ds.n_areas() as u16, 7..11, &fcfg);
    let te = test_keys(ds.n_areas() as u16, 11..13, &fcfg);
    let eval_items = FeatureExtractor::new(&ds, fcfg.clone()).extract_all(&te);

    let mut sx = StreamingExtractor::new(StreamGenerator::new(&config), fcfg.clone())
        .with_max_resident_mb(1);
    let mut mcfg = ModelConfig::basic(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let mut model = DeepSD::new(mcfg);

    let telemetry = Telemetry::new();
    let opts = TrainOptions {
        epochs: 2,
        best_k: 1,
        threads,
        max_resident_mb: 1,
        telemetry: Some(telemetry.clone()),
        ..TrainOptions::default()
    };
    let report = train(&mut model, &mut sx, &tr, &eval_items, &opts);

    println!("{BEGIN}");
    println!("{}", telemetry.to_json_without_timings());
    for e in &report.epochs {
        println!(
            "epoch {} loss {:016x} mae {:016x} rmse {:016x}",
            e.epoch,
            e.train_loss.to_bits(),
            e.eval_mae.to_bits(),
            e.eval_rmse.to_bits()
        );
    }
    println!(
        "final mae {:016x} rmse {:016x}",
        report.final_mae.to_bits(),
        report.final_rmse.to_bits()
    );
    println!("{END}");
}

/// Child mode: runs the continual-learning loop over a fixed observed
/// order stream at the worker count named by `DEEPSD_DETERMINISM_THREADS`
/// and prints the full promotion/rollback event log with exact MAE bit
/// patterns. Promotion decisions must be a pure function of the stream:
/// same orders, same events, at any worker count and across processes.
#[test]
fn child_emits_continual_trace() {
    if std::env::var_os(CONTINUAL_CHILD_ENV).is_none() {
        return;
    }
    use deepsd::{ContinualConfig, DeepSD, EnvBlocks, Handoff, ModelConfig, ShadowTrainer};
    use deepsd_features::{FeatureConfig, FeatureExtractor};
    use deepsd_simdata::{Order, SimConfig, SimDataset};

    let threads: usize = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let ds = SimDataset::generate(&SimConfig::smoke(61));
    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };
    let fx = FeatureExtractor::new(&ds, fcfg.clone());

    let mut mcfg = ModelConfig::basic(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let shadow = DeepSD::new(mcfg);

    let cfg = ContinualConfig {
        window_ticks: 6,
        cadence: 200,
        epochs: 1,
        threads,
        ..ContinualConfig::default()
    };
    let handoff = Handoff::new();
    let mut trainer = ShadowTrainer::new(shadow, fx, cfg, handoff);

    // A fixed, fully ordered observed stream: two days of orders.
    let mut orders: Vec<Order> = (0..ds.n_areas() as u16)
        .flat_map(|a| ds.orders(a).iter().copied())
        .filter(|o| (10..12).contains(&o.day))
        .collect();
    orders.sort_by_key(|o| (o.day, o.ts, o.loc_start, o.pid));
    orders.truncate(1000);
    // Deliberately uneven batching: the event log must not see it.
    for chunk in orders.chunks(173) {
        trainer.ingest(chunk);
    }

    println!("{BEGIN}");
    for event in trainer.events() {
        println!("{}", event.render());
    }
    println!(
        "rounds {} generation {}",
        trainer.rounds(),
        trainer.generation()
    );
    println!("{END}");
}

/// Respawns this test binary in a child mode and returns the payload
/// between the markers.
fn spawn_child_with(test_name: &str, envs: &[(&str, &str)]) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", test_name, "--nocapture"]);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("respawn test binary");
    assert!(
        out.status.success(),
        "child process failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout is UTF-8");
    let begin = stdout.find(BEGIN).expect("payload BEGIN marker");
    let end = stdout.find(END).expect("payload END marker");
    stdout[begin..end].to_string()
}

fn spawn_child() -> String {
    spawn_child_with("child_emits_training_trace", &[(CHILD_ENV, "1")])
}

/// Two fresh processes produce byte-identical snapshots and traces.
#[test]
fn training_trace_is_byte_identical_across_processes() {
    let first = spawn_child();
    assert!(
        first.contains("train_epochs_total") && first.contains("epoch 0 loss"),
        "payload looks wrong:\n{first}"
    );
    assert!(
        !first.contains("time_"),
        "timing metrics leaked into the stripped snapshot"
    );
    let second = spawn_child();
    assert_eq!(
        first, second,
        "fresh processes diverged: training or telemetry depends on process state"
    );
}

/// Streamed bounded-memory training produces the same trace, snapshot
/// and data-plane counters at 1, 2 and 8 shard workers, and across a
/// fresh process at the same worker count.
#[test]
fn streamed_trace_is_identical_across_workers_and_processes() {
    let spawn = |threads: &str| {
        spawn_child_with(
            "child_emits_streamed_trace",
            &[(STREAM_CHILD_ENV, "1"), (THREADS_ENV, threads)],
        )
    };
    let w1 = spawn("1");
    assert!(
        w1.contains("data_chunks_read_total") && w1.contains("epoch 0 loss"),
        "payload looks wrong:\n{w1}"
    );
    assert!(
        !w1.contains("time_"),
        "timing metrics leaked into the stripped snapshot"
    );
    let w2 = spawn("2");
    let w8 = spawn("8");
    assert_eq!(w1, w2, "streamed trace diverged between 1 and 2 workers");
    assert_eq!(w1, w8, "streamed trace diverged between 1 and 8 workers");
    let w2_again = spawn("2");
    assert_eq!(
        w2, w2_again,
        "fresh processes diverged on the streamed data path"
    );
}

/// The continual-learning promotion/rollback event log is byte
/// identical at 1, 2 and 8 fine-tune workers, and across a fresh
/// process at the same worker count: promotion decisions depend only on
/// the observed order stream, never on timing, batching or thread
/// scheduling.
#[test]
fn continual_event_log_is_identical_across_workers_and_processes() {
    let spawn = |threads: &str| {
        spawn_child_with(
            "child_emits_continual_trace",
            &[(CONTINUAL_CHILD_ENV, "1"), (THREADS_ENV, threads)],
        )
    };
    let w1 = spawn("1");
    assert!(
        w1.contains("rounds ") && (w1.contains("promoted") || w1.contains("rolledback")),
        "payload looks wrong:\n{w1}"
    );
    let w2 = spawn("2");
    let w8 = spawn("8");
    assert_eq!(w1, w2, "continual events diverged between 1 and 2 workers");
    assert_eq!(w1, w8, "continual events diverged between 1 and 8 workers");
    let w2_again = spawn("2");
    assert_eq!(
        w2, w2_again,
        "fresh processes diverged on the continual-learning path"
    );
}
