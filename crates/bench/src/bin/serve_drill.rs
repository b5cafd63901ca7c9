//! Deterministic chaos drill against a live `deepsd-serve` daemon —
//! the CI smoke for the fault-containment layer.
//!
//! Boots the daemon on loopback over a smoke-scale model, then runs
//! three seeded phases:
//!
//! 1. **Chaos** — a closed-loop client fleet where ~20% of requests
//!    are hostile (garbage lines, truncated bodies, slow-loris stalls,
//!    silent resets) per `NetFaultPlan::chaos`.
//! 2. **Load sweep** — clean bursts at rising concurrency against a
//!    deliberately tiny queue, recording the latency and shed-rate
//!    curve.
//! 3. **Blackout** — predictions inside a scheduled feed outage trip
//!    the circuit breaker (`/readyz` flips 503), then healthy slots
//!    close it again.
//! 4. **Swap under load** — a shadow promotion lands mid-burst; the
//!    engine must install it between micro-batches without shedding
//!    anything beyond normal queue policy, and later responses must
//!    carry the new generation.
//!
//! Asserts the daemon survives all of it — liveness intact, shedding
//! observed, breaker tripped exactly once, graceful drain — and writes
//! the `SERVE_DRILL_deepsd.json` artifact with the curves.
//!
//! Usage: `cargo run --release -p deepsd-bench --bin serve_drill [smoke|small|paper]`

use deepsd::telemetry::Telemetry;
use deepsd::{DeepSD, Handoff, OnlinePredictor, PromotedModel, Variant};
use deepsd_bench::{json_report, run_load, LoadGenConfig, Pipeline, Scale, ToJson};
use deepsd_features::{FeedHealth, FeedKind, ItemSource};
use deepsd_serve::{ServeConfig, Server};
use deepsd_simdata::NetFaultPlan;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const SEED: u64 = 20170607; // ICDE'17, the paper's venue year.

json_report! {
    struct ChaosStats {
        requests: u64,
        hostile: u64,
        ok: u64,
        rejected_4xx: u64,
        timed_out_408: u64,
        shed_429: u64,
        unavailable_503: u64,
        io_errors: u64,
    }
}

json_report! {
    struct LoadPoint {
        clients: usize,
        requests: u64,
        achieved_rps: f64,
        p50_ms: f64,
        p99_ms: f64,
        p999_ms: f64,
        shed_rate: f64,
    }
}

json_report! {
    struct DrillOutput {
        scale: String,
        seed: u64,
        chaos: ChaosStats,
        load_curve: Vec<LoadPoint>,
        breaker_trips: u64,
        shed_total: u64,
        swap_burst: LoadPoint,
        engine_swaps: u64,
        engine_batches: u64,
        engine_predict_calls: u64,
        engine_coalesced: u64,
        engine_expired: u64,
        engine_served: u64,
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

/// Reads one counter out of the Prometheus exposition.
fn counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("deepsd_{name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let scale = Scale::from_args();
    let pipeline = Pipeline::build(scale);
    let day = pipeline.dataset.n_days.saturating_sub(3);

    // Weather blackout for phase 3: [540, 660) on the drill day.
    let mut fx = pipeline.extractor();
    let mut health = FeedHealth::default();
    health.add_day_outage(FeedKind::Weather, day, 540, 660);
    fx.set_feed_health(health);
    let model = DeepSD::new(pipeline.model_config(Variant::Advanced));
    // Phase 4 promotes these exact weights back in — the drill is about
    // the swap mechanics, not the new model's accuracy.
    let swap_snapshot = model.snapshot();
    let mut predictor = OnlinePredictor::new(model, fx);

    let config = ServeConfig {
        queue_capacity: 8,
        max_batch: 8,
        deadline_ms: 1_000,
        read_timeout_ms: 500,
        breaker_trip: 3,
        breaker_restore: 2,
        ..ServeConfig::default()
    };
    let telemetry = Telemetry::new();
    let mut server = Server::bind(config, telemetry).expect("bind loopback");
    let (orders_tx, _orders_rx) = std::sync::mpsc::channel();
    let handoff = Handoff::new();
    server.set_continual(orders_tx, handoff.clone());
    let addr = server.local_addr();
    let handle = server.handle();
    eprintln!("[drill] daemon on {addr}, seed {SEED}");

    let (chaos, load_curve, swap_burst, stats, shed_total, breaker_trips) =
        std::thread::scope(|scope| {
            let runner = scope.spawn(move || server.run(&mut predictor));

            // Phase 1: chaos fleet. Healthy slots only (t >= 700) so the
            // breaker drill below stays deterministic.
            eprintln!("[drill] phase 1: chaos fleet (~20% hostile requests)");
            let chaos_report = run_load(
                addr,
                &LoadGenConfig {
                    clients: 6,
                    requests_per_client: 40,
                    seed: SEED,
                    plan: NetFaultPlan::chaos(SEED),
                    day,
                    t_range: (700, 1100),
                    ..LoadGenConfig::default()
                },
            );
            let (status, _) = get(addr, "/healthz");
            assert_eq!(status, 200, "daemon alive after chaos fleet");
            assert!(chaos_report.ok > 0, "clean requests served during chaos");
            assert!(
                chaos_report.rejected + chaos_report.timed_out > 0,
                "hostile requests drew 4xx/408 answers: {chaos_report:?}"
            );

            // Phase 2: clean load sweep against the tiny queue.
            let mut curve = Vec::new();
            for &clients in &[2usize, 8, 24] {
                eprintln!("[drill] phase 2: load burst at {clients} clients");
                let report = run_load(
                    addr,
                    &LoadGenConfig {
                        clients,
                        requests_per_client: 30,
                        seed: SEED + clients as u64,
                        day,
                        t_range: (700, 1100),
                        max_retries: 2,
                        ..LoadGenConfig::default()
                    },
                );
                eprintln!(
                    "[drill]   rps={:.0} p50={:.2}ms p99={:.2}ms shed={:.3}",
                    report.achieved_rps(),
                    report.latency_quantile_ms(0.50),
                    report.latency_quantile_ms(0.99),
                    report.shed_rate()
                );
                curve.push(LoadPoint {
                    clients,
                    requests: report.attempted,
                    achieved_rps: report.achieved_rps(),
                    p50_ms: report.latency_quantile_ms(0.50),
                    p99_ms: report.latency_quantile_ms(0.99),
                    p999_ms: report.latency_quantile_ms(0.999),
                    shed_rate: report.shed_rate(),
                });
            }

            // Phase 3: blackout trips the breaker, recovery closes it.
            eprintln!("[drill] phase 3: feed blackout and recovery");
            for _ in 0..3 {
                let (status, body) = get(addr, &format!("/predict?day={day}&t=600"));
                assert_eq!(status, 200, "degraded slot still serves: {body}");
                assert!(body.contains("\"degraded\":true"), "{body}");
            }
            assert_eq!(get(addr, "/readyz").0, 503, "breaker open -> unready");
            assert_eq!(get(addr, "/healthz").0, 200, "liveness unaffected");
            for _ in 0..2 {
                let (status, _) = get(addr, &format!("/predict?day={day}&t=900"));
                assert_eq!(status, 200);
            }
            assert_eq!(get(addr, "/readyz").0, 200, "breaker closed after recovery");

            // Phase 4: shadow promotion under load. The swap installs
            // strictly between micro-batches; the burst must see only
            // normal queue-policy outcomes (200/429/timeouts), never an
            // error from the swap itself.
            eprintln!("[drill] phase 4: model swap under load");
            handoff.offer(PromotedModel {
                snapshot: swap_snapshot,
                generation: 1,
            });
            let swap_report = run_load(
                addr,
                &LoadGenConfig {
                    clients: 8,
                    requests_per_client: 30,
                    seed: SEED + 99,
                    day,
                    t_range: (700, 1100),
                    max_retries: 2,
                    ..LoadGenConfig::default()
                },
            );
            assert!(swap_report.ok > 0, "requests served across the swap");
            assert_eq!(
                swap_report.io_errors, 0,
                "swap must not surface as connection errors: {swap_report:?}"
            );
            let (status, body) = get(addr, &format!("/predict?day={day}&t=905"));
            assert_eq!(status, 200);
            assert!(
                body.contains("\"generation\":1"),
                "responses carry the promoted generation: {body}"
            );
            let (status, ready) = get(addr, "/readyz");
            assert_eq!(status, 200, "swap leaves the daemon ready");
            assert!(
                ready.contains("generation=1"),
                "/readyz reports the installed generation: {ready}"
            );
            let swap_burst = LoadPoint {
                clients: 8,
                requests: swap_report.attempted,
                achieved_rps: swap_report.achieved_rps(),
                p50_ms: swap_report.latency_quantile_ms(0.50),
                p99_ms: swap_report.latency_quantile_ms(0.99),
                p999_ms: swap_report.latency_quantile_ms(0.999),
                shed_rate: swap_report.shed_rate(),
            };

            let (_, metrics) = get(addr, "/metrics");
            let chaos = ChaosStats {
                requests: chaos_report.attempted,
                hostile: chaos_report.chaos_sent,
                ok: chaos_report.ok,
                rejected_4xx: chaos_report.rejected,
                timed_out_408: chaos_report.timed_out,
                shed_429: chaos_report.shed,
                unavailable_503: chaos_report.unavailable,
                io_errors: chaos_report.io_errors,
            };
            let shed_total = counter(&metrics, "serve_shed_total");
            let trips = counter(&metrics, "serve_breaker_trips_total");
            let swaps = counter(&metrics, "serve_model_swaps_total");
            assert!(shed_total > 0, "tiny queue under burst must shed");
            assert_eq!(trips, 1, "exactly one deterministic breaker trip");
            assert_eq!(swaps, 1, "exactly one model swap installed");

            handle.shutdown();
            let stats = runner
                .join()
                .expect("engine thread joins")
                .expect("daemon ran");
            (chaos, curve, swap_burst, stats, shed_total, trips)
        });

    let output = DrillOutput {
        scale: pipeline.scale.name.to_string(),
        seed: SEED,
        chaos,
        load_curve,
        breaker_trips,
        shed_total,
        swap_burst,
        engine_swaps: stats.swaps,
        engine_batches: stats.batches,
        engine_predict_calls: stats.predict_calls,
        engine_coalesced: stats.coalesced,
        engine_expired: stats.expired,
        engine_served: stats.served,
    };
    std::fs::write("SERVE_DRILL_deepsd.json", output.to_json().to_pretty())
        .expect("write SERVE_DRILL_deepsd.json");
    // Checked after the daemon has drained, so a failure exits instead
    // of leaving the scope waiting on a running server.
    assert!(
        output.load_curve.iter().any(|p| p.shed_rate > 0.0),
        "some load-curve rung must shed against the tiny queue"
    );
    assert_eq!(
        output.engine_swaps, 1,
        "the engine installed exactly one swap"
    );
    eprintln!(
        "[drill] ok: served={} batches={} coalesced={} expired={}; wrote SERVE_DRILL_deepsd.json",
        stats.served, stats.batches, stats.coalesced, stats.expired
    );
}
