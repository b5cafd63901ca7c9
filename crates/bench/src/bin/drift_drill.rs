//! Drift drill: the CI smoke for the continual-learning loop.
//!
//! Generates a seeded city whose demand regime shifts abruptly at a
//! known day (demand up 1.6×, supply down to 0.6×), trains a model on
//! the pre-shift days only, then boots `deepsd-serve` with the shadow
//! fine-tuner attached and replays the two post-shift days through
//! `POST /observe` + `GET /predict` exactly as a live deployment would
//! see them.
//!
//! Asserts the full promotion story end to end:
//!
//! 1. **Promotion happens** — the shadow fine-tunes on the observed
//!    stream and wins the gated comparison at least once.
//! 2. **No mixed generations** — every predict response carries the
//!    model generation; the sequence is monotone non-decreasing and at
//!    least one swap installs mid-stream.
//! 3. **Nothing dropped** — the sequential replay sees only 200s.
//! 4. **Drift recovers** — the recent-window MAE ends below its peak:
//!    the drift gauge spikes after the shift and comes back down as
//!    promoted weights take over.
//! 5. **Continual beats frozen** — post-shift test MAE of the promoted
//!    weights beats the frozen pre-shift model.
//!
//! Writes the `DRIFT_DRILL_deepsd.json` artifact with the numbers.
//!
//! Usage: `cargo run --release -p deepsd-bench --bin drift_drill`

use deepsd::telemetry::Telemetry;
use deepsd::trainer::{evaluate_model, train};
use deepsd::{
    ContinualConfig, ContinualEvent, DeepSD, EnvBlocks, Handoff, ModelConfig, OnlinePredictor,
    ShadowTrainer, TrainOptions,
};
use deepsd_bench::{json_report, ToJson};
use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor, ItemSource};
use deepsd_serve::{ServeConfig, Server};
use deepsd_simdata::{Order, OrderGenConfig, RegimeShift, SimConfig, SimDataset};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const SEED: u64 = 20170607; // ICDE'17, the paper's venue year.
const SHIFT_DAY: u16 = 11;
const TICK: u16 = 10;

json_report! {
    struct DriftOutput {
        seed: u64,
        shift_day: u16,
        training_mae: f64,
        frozen_post_shift_mae: f64,
        continual_post_shift_mae: f64,
        rounds: u64,
        promotions: u64,
        rollbacks: u64,
        final_generation: u64,
        engine_swaps: u64,
        observes_sent: u64,
        predicts_sent: u64,
        dropped: u64,
        generation_regressions: u64,
        peak_round_window_mae: f64,
        last_round_window_mae: f64,
    }
}

/// Minimal raw-HTTP helper (the bench crate stays dependency-free).
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("daemon accepts connections");
    s.write_all(raw.as_bytes()).expect("request written");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("response read");
    let text = String::from_utf8_lossy(&buf).to_string();
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|w| w.parse().ok())
        .expect("status line present");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nhost: drill\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: drill\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn observe_body(orders: &[Order]) -> String {
    let rows: Vec<String> = orders
        .iter()
        .map(|o| {
            format!(
                "[{},{},{},{},{},{}]",
                o.day,
                o.ts,
                o.pid,
                o.loc_start,
                o.loc_dest,
                u8::from(o.valid)
            )
        })
        .collect();
    format!("{{\"orders\":[{}]}}", rows.join(","))
}

/// Pulls the `"generation":N` field out of a predict response body.
fn generation_of(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"generation\":")? + "\"generation\":".len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn main() {
    // A smoke-scale city whose regime shifts at SHIFT_DAY: demand jumps
    // 1.6×, supply thins to 0.6× of that — the gap distribution the
    // frozen model learned no longer holds.
    let mut sim = SimConfig::smoke(SEED);
    sim.orders = OrderGenConfig {
        shift: Some(RegimeShift {
            day: SHIFT_DAY,
            demand_factor: 1.6,
            supply_factor: 0.6,
        }),
        ..OrderGenConfig::default()
    };
    let ds = SimDataset::generate(&sim);
    let n_areas = ds.n_areas() as u16;
    assert!(
        ds.n_days > SHIFT_DAY + 2,
        "need two post-shift days to stream"
    );

    let fcfg = FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 60,
        ..FeatureConfig::default()
    };

    // Train the frozen model on pre-shift days only.
    let mut mcfg = ModelConfig::basic(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let mut model = DeepSD::new(mcfg);
    let mut fx_train = FeatureExtractor::new(&ds, fcfg.clone());
    let tr_keys = train_keys(n_areas, 7..SHIFT_DAY, &fcfg);
    let pre_eval = fx_train.extract_all(&test_keys(n_areas, SHIFT_DAY - 1..SHIFT_DAY, &fcfg));
    let report = train(
        &mut model,
        &mut fx_train,
        &tr_keys,
        &pre_eval,
        &TrainOptions {
            epochs: 3,
            best_k: 1,
            threads: 2,
            seed: SEED,
            ..TrainOptions::default()
        },
    );
    let training_mae = report.final_mae;
    eprintln!("[drift] frozen model trained: pre-shift mae {training_mae:.4}");

    // Post-shift test set, scored for the frozen weights up front.
    let post_items = fx_train.extract_all(&test_keys(n_areas, SHIFT_DAY + 1..SHIFT_DAY + 3, &fcfg));
    let frozen = model.clone();
    let frozen_post_mae = evaluate_model(&frozen, &post_items, 64).mae;
    eprintln!("[drift] frozen post-shift mae {frozen_post_mae:.4}");

    // Serving stack with the continual loop attached.
    let telemetry = Telemetry::new();
    let mut predictor =
        OnlinePredictor::new(model.clone(), FeatureExtractor::new(&ds, fcfg.clone()));
    let config = ServeConfig {
        queue_capacity: 64,
        max_batch: 16,
        deadline_ms: 5_000,
        read_timeout_ms: 1_000,
        ..ServeConfig::default()
    };
    let mut server = Server::bind(config, telemetry.clone()).expect("bind loopback");
    let (orders_tx, orders_rx) = std::sync::mpsc::channel::<Vec<Order>>();
    let handoff = Handoff::new();
    server.set_continual(orders_tx, handoff.clone());
    let addr = server.local_addr();
    let handle = server.handle();
    eprintln!("[drift] daemon on {addr}, regime shift at day {SHIFT_DAY}");

    let mut shadow_trainer = ShadowTrainer::new(
        model,
        FeatureExtractor::new(&ds, fcfg.clone()),
        ContinualConfig {
            window_ticks: 24,
            cadence: 400,
            margin: 0.0,
            epochs: 2,
            learning_rate: 1e-3,
            seed: SEED,
            threads: 2,
            ..ContinualConfig::default()
        },
        handoff,
    );
    shadow_trainer.set_telemetry(telemetry);
    shadow_trainer.set_training_mae(training_mae);

    // The observed stream: both post-shift days, fully ordered.
    let mut stream: Vec<Order> = (0..n_areas)
        .flat_map(|a| ds.orders(a).iter().copied())
        .filter(|o| (SHIFT_DAY..SHIFT_DAY + 2).contains(&o.day))
        .collect();
    stream.sort_by_key(|o| (o.day, o.ts, o.loc_start, o.pid));

    let (stats, trainer, observes, predicts, dropped, regressions, last_gen) =
        std::thread::scope(|scope| {
            let runner = scope.spawn(move || server.run(&mut predictor));
            let shadow = scope.spawn(move || {
                while let Ok(orders) = orders_rx.recv() {
                    for event in shadow_trainer.ingest(&orders) {
                        eprintln!("[drift] {}", event.render());
                    }
                }
                shadow_trainer
            });

            // Replay the stream tick by tick: observe a slot's orders,
            // then ask for predictions the way a dispatcher would.
            let mut observes = 0u64;
            let mut predicts = 0u64;
            let mut dropped = 0u64;
            let mut regressions = 0u64;
            let mut last_gen = 0u64;
            let mut cursor = 0usize;
            for day in SHIFT_DAY..SHIFT_DAY + 2 {
                for t in (TICK..=deepsd_simdata::MINUTES_PER_DAY as u16).step_by(TICK as usize) {
                    let start = cursor;
                    while cursor < stream.len() {
                        let o = &stream[cursor];
                        if o.day > day || (o.day == day && o.ts >= t) {
                            break;
                        }
                        cursor += 1;
                    }
                    if cursor > start {
                        let (status, _) =
                            post(addr, "/observe", &observe_body(&stream[start..cursor]));
                        observes += 1;
                        if status != 200 {
                            dropped += 1;
                        }
                    }
                    // Predict every half hour through the serving day.
                    if (480..=1380).contains(&t) && t % 30 == 0 {
                        let (status, body) = get(addr, &format!("/predict?day={day}&t={t}"));
                        predicts += 1;
                        if status != 200 {
                            dropped += 1;
                            continue;
                        }
                        let gen = generation_of(&body).expect("predict body carries generation");
                        if gen < last_gen {
                            regressions += 1;
                        }
                        last_gen = gen;
                    }
                }
            }

            let (status, ready) = get(addr, "/readyz");
            assert_eq!(status, 200, "daemon ready after replay: {ready}");
            assert!(
                ready.contains(&format!("generation={last_gen}")),
                "/readyz generation matches the served one: {ready}"
            );

            handle.shutdown();
            let stats = runner
                .join()
                .expect("engine thread joins")
                .expect("daemon ran");
            // The channel closes once the engine drops its sender; the
            // shadow thread drains every forwarded batch before exiting.
            let trainer = shadow.join().expect("shadow thread joins");
            (
                stats,
                trainer,
                observes,
                predicts,
                dropped,
                regressions,
                last_gen,
            )
        });

    let events = trainer.events();
    let promotions = events
        .iter()
        .filter(|e| matches!(e, ContinualEvent::Promoted { .. }))
        .count() as u64;
    let rollbacks = events.len() as u64 - promotions;
    let window_mae = |e: &ContinualEvent| match e {
        ContinualEvent::Promoted { live_mae, .. } => *live_mae,
        ContinualEvent::RolledBack { live_mae, .. } => *live_mae,
    };
    let peak_window = events
        .iter()
        .map(window_mae)
        .filter(|m| m.is_finite())
        .fold(0.0f64, f64::max);
    let last_window = events.last().map(window_mae).unwrap_or(f64::NAN);
    let continual_post_mae = evaluate_model(trainer.shadow(), &post_items, 64).mae;

    eprintln!(
        "[drift] rounds={} promotions={} rollbacks={} swaps={} gen={}",
        trainer.rounds(),
        promotions,
        rollbacks,
        stats.swaps,
        trainer.generation()
    );
    eprintln!(
        "[drift] window mae peak={peak_window:.4} last={last_window:.4}; post-shift frozen={frozen_post_mae:.4} continual={continual_post_mae:.4}"
    );

    // The promotion story, end to end.
    assert!(promotions >= 1, "regime shift must trigger a promotion");
    assert!(stats.swaps >= 1, "a promotion must install mid-stream");
    assert_eq!(regressions, 0, "generation must never regress in responses");
    assert_eq!(dropped, 0, "sequential replay must not shed or fail");
    assert!(last_gen >= 1, "served responses must reflect the swap");
    assert!(
        last_window < peak_window,
        "recent-window MAE must end below its drift peak: peak {peak_window} last {last_window}"
    );
    assert!(
        continual_post_mae < frozen_post_mae,
        "continual weights must beat frozen post-shift: {continual_post_mae} vs {frozen_post_mae}"
    );

    let output = DriftOutput {
        seed: SEED,
        shift_day: SHIFT_DAY,
        training_mae,
        frozen_post_shift_mae: frozen_post_mae,
        continual_post_shift_mae: continual_post_mae,
        rounds: trainer.rounds(),
        promotions,
        rollbacks,
        final_generation: trainer.generation(),
        engine_swaps: stats.swaps,
        observes_sent: observes,
        predicts_sent: predicts,
        dropped,
        generation_regressions: regressions,
        peak_round_window_mae: peak_window,
        last_round_window_mae: last_window,
    };
    std::fs::write("DRIFT_DRILL_deepsd.json", output.to_json().to_pretty())
        .expect("write DRIFT_DRILL_deepsd.json");
    eprintln!("[drift] ok: wrote DRIFT_DRILL_deepsd.json");
}
