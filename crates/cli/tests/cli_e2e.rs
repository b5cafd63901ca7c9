//! End-to-end tests of the `deepsd-cli` binary: simulate → inspect →
//! train → evaluate → predict over real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_deepsd-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("deepsd-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn full_pipeline_roundtrip() {
    let dir = tmpdir("full");
    let data = dir.join("city.dsd");
    let model = dir.join("model.ckpt");

    // simulate
    let out = bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "4",
            "--days",
            "12",
            "--seed",
            "5",
        ])
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());

    // inspect
    let out = bin()
        .args(["inspect", "--data", data.to_str().unwrap()])
        .output()
        .expect("run inspect");
    assert!(out.status.success());
    // The summary of this fixture city (seed 5), byte for byte.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "areas: 4\n\
         days:  12\n\
         orders: 58545 (15566 unanswered, 26.6%)\n\
         \n\
         area  archetype        demand_scale  orders\n   \
         0  Residential             1.42    16405\n   \
         1  Residential             1.53    17350\n   \
         2  Mixed                   1.06    12368\n   \
         3  Residential             0.88    12422\n"
    );

    // train (tiny: 1 epoch, small window)
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--variant",
            "basic",
            "--epochs",
            "1",
            "--window",
            "8",
            "--train-days",
            "7..10",
            "--eval-days",
            "10..12",
            "--stride",
            "60",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("final: MAE"), "train output: {text}");

    // evaluate
    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--test-days",
            "10..12",
        ])
        .output()
        .expect("run evaluate");
    assert!(
        out.status.success(),
        "evaluate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // This fixture's metrics, to the printed digit.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("model     MAE 3.141  RMSE 5.840\n"), "{text}");
    assert!(text.contains("average   MAE 3.360  RMSE 5.715\n"), "{text}");

    // predict
    let out = bin()
        .args([
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--day",
            "11",
            "--t",
            "480",
        ])
        .output()
        .expect("run predict");
    assert!(
        out.status.success(),
        "predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // One line per area plus header.
    assert!(text.lines().count() >= 6, "predict output: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    // No args → usage on stdout, success.
    let out = bin().output().expect("run bare");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    // Unknown subcommand → exit 2.
    let out = bin().args(["frobnicate"]).output().expect("run unknown");
    assert_eq!(out.status.code(), Some(2));

    // Unknown flag → usage error: clear message + usage text, exit 2.
    let out = bin()
        .args(["simulate", "--oops", "1", "--out", "/tmp/never.dsd"])
        .output()
        .expect("run bad flag");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("USAGE"));

    // Missing file → error, not panic.
    let out = bin()
        .args(["inspect", "--data", "/tmp/definitely-not-there.dsd"])
        .output()
        .expect("run missing file");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn predict_rejects_out_of_range_day() {
    let dir = tmpdir("range");
    let data = dir.join("c.dsd");
    let model = dir.join("m.ckpt");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "3",
            "--days",
            "10"
        ])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "1",
            "--window",
            "8",
            "--train-days",
            "7..8",
            "--eval-days",
            "8..10",
            "--stride",
            "120",
        ])
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args([
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--day",
            "99",
            "--t",
            "480",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_survives_fault_injection_and_reports_counters() {
    let dir = tmpdir("faults");
    let data = dir.join("c.dsd");
    let model = dir.join("m.ckpt");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "4",
            "--days",
            "12"
        ])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--variant",
            "basic",
            "--epochs",
            "1",
            "--window",
            "8",
            "--train-days",
            "7..9",
            "--eval-days",
            "9..12",
            "--stride",
            "120",
        ])
        .status()
        .unwrap()
        .success());

    // Shuffled + duplicated stream under the reorder policy, with a
    // weather blackout over the prediction window.
    let out = bin()
        .args([
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--day",
            "11",
            "--t",
            "600",
            "--ingest-policy",
            "reorder:5",
            "--fault-shuffle",
            "5",
            "--fault-dup",
            "0.2",
            "--blackout-weather",
            "550..700",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "faulty predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("policy: reorder:5"), "{text}");
    assert!(text.contains("weather stale"), "{text}");
    assert!(text.contains("ingest:"), "{text}");
    assert!(text.lines().count() >= 8, "{text}");

    // The same shuffled stream under the strict policy: the whole tick
    // is still served, with the rejected orders summarised per area on
    // stderr (batch ingest reports failures instead of aborting).
    let out = bin()
        .args([
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--day",
            "11",
            "--t",
            "600",
            "--fault-shuffle",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "strict-policy predict must degrade, not abort: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("behind cursor"), "{err}");
    assert!(err.contains("failed"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoint_is_rejected_with_typed_error() {
    let dir = tmpdir("ckpt");
    let data = dir.join("c.dsd");
    let model = dir.join("m.ckpt");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "3",
            "--days",
            "10"
        ])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "1",
            "--window",
            "8",
            "--train-days",
            "7..8",
            "--eval-days",
            "8..10",
            "--stride",
            "120",
        ])
        .status()
        .unwrap()
        .success());

    // Flip one byte in the checkpoint body.
    let mut blob = std::fs::read(&model).unwrap();
    let idx = blob.len() / 2;
    blob[idx] ^= 0x40;
    std::fs::write(&model, &blob).unwrap();

    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--test-days",
            "8..10",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("checksum mismatch") || err.contains("malformed"),
        "stderr: {err}"
    );

    // Truncation is also caught.
    blob[idx] ^= 0x40;
    std::fs::write(&model, &blob[..blob.len() - 20]).unwrap();
    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--test-days",
            "8..10",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_telemetry_snapshot() {
    let dir = tmpdir("metrics");
    let data = dir.join("c.dsd");
    let model = dir.join("m.ckpt");
    let train_metrics = dir.join("train_metrics.json");
    let predict_metrics = dir.join("predict_metrics.json");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "4",
            "--days",
            "12",
            "--seed",
            "5"
        ])
        .status()
        .unwrap()
        .success());

    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--variant",
            "basic",
            "--epochs",
            "2",
            "--window",
            "8",
            "--train-days",
            "7..10",
            "--eval-days",
            "10..12",
            "--stride",
            "60",
            "--metrics-out",
            train_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot = std::fs::read_to_string(&train_metrics).expect("train metrics written");
    // The acceptance contract: per-epoch events, ingest counters and
    // feed-health gauges are all present in one snapshot.
    assert!(snapshot.contains("\"epochs\": ["), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"train_loss\""), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"epoch\": 0"), "snapshot: {snapshot}");
    assert!(snapshot.contains("\"train_epochs_total\""));
    assert!(snapshot.contains("\"ingest_accepted_total\""));
    assert!(snapshot.contains("\"feed_weather_state\""));
    assert!(snapshot.contains("\"time_epoch_seconds\""));

    let out = bin()
        .args([
            "predict",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--day",
            "10",
            "--t",
            "480",
            "--metrics-out",
            predict_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run predict");
    if out.status.success() {
        // Model loading can fail independently of telemetry (e.g. a
        // stubbed JSON codec); when predict runs, its snapshot must
        // carry the serving instrumentation.
        let snapshot = std::fs::read_to_string(&predict_metrics).expect("predict metrics written");
        assert!(snapshot.contains("\"serving_predict_calls_total\": 1"));
        assert!(snapshot.contains("time_serving_predict_latency_seconds"));
        assert!(snapshot.contains("\"feed_weather_state\""));
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_with_empty_test_range_errors_without_panicking() {
    let dir = tmpdir("emptyeval");
    let data = dir.join("c.dsd");
    let model = dir.join("m.ckpt");
    assert!(bin()
        .args([
            "simulate",
            "--out",
            data.to_str().unwrap(),
            "--areas",
            "3",
            "--days",
            "10"
        ])
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "1",
            "--window",
            "8",
            "--train-days",
            "7..8",
            "--eval-days",
            "8..10",
            "--stride",
            "120",
        ])
        .status()
        .unwrap()
        .success());
    // A degenerate test window: `9..9` is statically malformed, so it
    // is rejected as a usage error (exit 2 + usage text), never an
    // assertion abort.
    let out = bin()
        .args([
            "evaluate",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--test-days",
            "9..9",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("empty range"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
