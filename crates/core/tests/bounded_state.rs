//! Resident serving state must not grow with the number of slots
//! served: a clock-order replay through `OnlinePredictor` over a
//! `StreamingExtractor` peaks at the same RSS whether it serves N or 4N
//! slots.
//!
//! `VmHWM` is monotonic per process, so each replay runs in a fresh
//! child process (this test binary, respawned with an env-gated child
//! mode, as in `determinism_respawn.rs`), which prints its peak RSS
//! between markers.

use std::process::Command;

const CHILD_ENV: &str = "DEEPSD_BOUNDED_STATE_SLOTS";
const BEGIN: &str = "-----BEGIN DEEPSD PEAK-----";
const END: &str = "-----END DEEPSD PEAK-----";

/// Slots the short replay serves; the long one serves four times as
/// many.
const SLOTS: usize = 300;
/// Allowed peak-RSS growth from N to 4N slots, in MiB. Per-slot state
/// would grow with the extra slots; what is allowed is allocator noise.
const SLACK_MB: f64 = 8.0;

/// Child mode: replays the slots named by the env gate and prints the
/// process's peak RSS. Without the gate this test is a no-op.
#[test]
fn child_replays_slots() {
    let Some(slots) = std::env::var(CHILD_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    else {
        return;
    };
    use deepsd::{DeepSD, EnvBlocks, ModelConfig, OnlinePredictor};
    use deepsd_features::{FeatureConfig, StreamingExtractor};
    use deepsd_simdata::{Order, SimConfig, StreamGenerator};

    let config = SimConfig::smoke(62);
    let generator = StreamGenerator::new(&config);
    let fcfg = FeatureConfig::default();
    let mut mcfg = ModelConfig::basic(usize::from(config.city.n_areas));
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let model = DeepSD::new(mcfg);

    // The replayed day's orders, one batch per minute.
    let day = config.n_days - 1;
    let mut minutes: Vec<Vec<Order>> = vec![Vec::new(); 1440];
    {
        let mut source = StreamGenerator::new(&config);
        for area in 0..config.city.n_areas {
            let block = deepsd_simdata::stream::AreaSource::area_block(&mut source, area)
                .expect("smoke area generates");
            for o in block.orders.iter().filter(|o| o.day == day) {
                minutes[o.ts as usize].push(*o);
            }
        }
    }
    let mut predictor = OnlinePredictor::new(model, StreamingExtractor::new(generator, fcfg));
    let first = 60;
    let mut checksum = 0.0f64;
    for t in first..first + slots {
        assert!(predictor.observe_all(&minutes[t - 1]).is_clean());
        checksum += predictor
            .predict_all(day, t as u16)
            .iter()
            .map(|&p| f64::from(p))
            .sum::<f64>();
    }
    println!("{BEGIN}");
    println!("{}", deepsd::telemetry::peak_rss_mb());
    println!("{END}");
    // Keeps the predictions observable so none is optimised away.
    eprintln!("checksum {checksum}");
}

/// Respawns this test binary to replay `slots` slots; returns its peak
/// RSS in MiB.
fn peak_after(slots: usize) -> f64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", "child_replays_slots", "--nocapture"])
        .env(CHILD_ENV, slots.to_string())
        .output()
        .expect("respawn test binary");
    assert!(
        out.status.success(),
        "child process failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout is UTF-8");
    let begin = stdout.find(BEGIN).expect("payload BEGIN marker") + BEGIN.len();
    let end = stdout.find(END).expect("payload END marker");
    stdout[begin..end].trim().parse().expect("peak RSS in MiB")
}

#[test]
fn peak_rss_does_not_grow_with_slots_served() {
    let short = peak_after(SLOTS);
    if short == 0.0 {
        // No `/proc/self/status` (not Linux): nothing to measure.
        return;
    }
    let long = peak_after(4 * SLOTS);
    assert!(
        long - short < SLACK_MB,
        "peak RSS grew {:.1} MiB from {SLOTS} to {} slots ({short:.1} → {long:.1} MiB)",
        long - short,
        4 * SLOTS
    );
}
