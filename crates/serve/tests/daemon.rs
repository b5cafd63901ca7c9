//! End-to-end daemon tests: a real `DeepSD` model behind the HTTP
//! surface, driven by raw `TcpStream` clients.
//!
//! The centrepiece is the seeded degraded-feed drill: a weather
//! blackout is scheduled mid-stream, predictions served inside the
//! window trip the circuit breaker (`/readyz` flips to 503 while
//! `/healthz` stays 200), and predictions after the window close it
//! again through the half-open probe — deterministically, because the
//! breaker is count-driven.

use deepsd::telemetry::Telemetry;
use deepsd::{DeepSD, ModelConfig, OnlinePredictor};
use deepsd_features::{FeatureConfig, FeatureExtractor, FeedHealth, FeedKind, ItemSource};
use deepsd_serve::{ServeConfig, Server};
use deepsd_simdata::{SimConfig, SimDataset};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

const DAY: u16 = 10;

fn setup(seed: u64) -> (SimDataset, FeatureConfig, DeepSD) {
    let ds = SimDataset::generate(&SimConfig::smoke(seed));
    let fcfg = FeatureConfig {
        window_l: 10,
        history_window: 3,
        ..FeatureConfig::default()
    };
    let mut mcfg = ModelConfig::advanced(ds.n_areas());
    mcfg.window_l = fcfg.window_l;
    (ds, fcfg, DeepSD::new(mcfg))
}

/// Sends raw bytes, reads until the server closes, returns
/// `(status, head, body)`.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw).expect("write request");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf).to_string();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes(),
    );
    (status, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _, resp) = raw_request(addr, raw.as_bytes());
    (status, resp)
}

/// Sends shutdown even when an assert panics mid-scope, so the engine
/// thread exits and `thread::scope` can join instead of deadlocking.
struct ShutdownGuard(deepsd_serve::ServerHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

#[test]
fn blackout_trips_breaker_and_recovery_closes_it() {
    let (ds, fcfg, model) = setup(311);
    let mut fx = FeatureExtractor::new(&ds, fcfg);
    // Seeded mid-stream blackout: weather dies for [540, 660) on DAY.
    let mut health = FeedHealth::default();
    health.add_day_outage(FeedKind::Weather, DAY, 540, 660);
    fx.set_feed_health(health);
    let mut predictor = OnlinePredictor::new(model, fx);

    let config = ServeConfig {
        breaker_trip: 3,
        breaker_restore: 2,
        deadline_ms: 5_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Telemetry::new()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run(&mut predictor));
        let _guard = ShutdownGuard(handle.clone());

        // Alive and ready before any traffic.
        assert_eq!(get(addr, "/healthz").0, 200);
        assert_eq!(get(addr, "/readyz").0, 200);

        // Three degraded predictions inside the blackout trip the breaker.
        for i in 0..3 {
            let (status, body) = get(addr, &format!("/predict?day={DAY}&t=600"));
            assert_eq!(status, 200, "degraded predictions still serve: {body}");
            assert!(body.contains("\"degraded\":true"), "probe {i}: {body}");
        }
        assert_eq!(get(addr, "/readyz").0, 503, "breaker open after 3 degraded");
        assert_eq!(
            get(addr, "/healthz").0,
            200,
            "liveness unaffected by breaker"
        );

        // Streamed orders still ingest while unready.
        let orders = format!("{{\"orders\":[[{DAY},700,1,0,1,true],[{DAY},701,2,1,0,false]]}}");
        let (status, body) = post(addr, "/observe", &orders);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"attempted\":2"), "{body}");

        // Two healthy predictions after the window close it (half-open
        // probe on the first, fully closed on the second).
        let (status, body) = get(addr, &format!("/predict?day={DAY}&t=900"));
        assert_eq!(status, 200);
        assert!(body.contains("\"degraded\":false"), "{body}");
        assert!(body.contains("\"breaker\":\"half-open\""), "{body}");
        assert_eq!(get(addr, "/readyz").0, 503, "half-open is not ready yet");
        let (_, body) = get(addr, &format!("/predict?day={DAY}&t=901"));
        assert!(body.contains("\"breaker\":\"closed\""), "{body}");
        assert_eq!(get(addr, "/readyz").0, 200, "recovered");

        // Telemetry recorded exactly one trip.
        let (status, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("serve_breaker_trips_total 1"),
            "metrics: {metrics}"
        );
        assert!(metrics.contains("serve_admitted_total"), "{metrics}");

        // Routing edges.
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(post(addr, "/predict?day=0&t=0", "").0, 405);
        assert_eq!(get(addr, "/predict?day=9999&t=0").0, 400);
        assert_eq!(get(addr, "/predict?day=0&t=9999").0, 400);
        assert_eq!(get(addr, "/predict?t=0").0, 400);
        assert_eq!(
            get(addr, &format!("/predict?day={DAY}&t=901&area=9999")).0,
            404
        );

        // Graceful drain via the HTTP surface.
        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "{body}");

        let stats = runner.join().expect("engine thread").expect("run");
        assert!(stats.predict_calls >= 5, "stats: {stats:?}");
        assert_eq!(stats.observes, 1, "stats: {stats:?}");
        assert_eq!(stats.expired, 0, "nothing expired: {stats:?}");
    });
    assert!(!handle.is_ready(), "a drained daemon is not ready");
}

#[test]
fn saturating_a_tiny_queue_sheds_with_retry_after() {
    let (ds, fcfg, model) = setup(313);
    let fx = FeatureExtractor::new(&ds, fcfg);
    let mut predictor = OnlinePredictor::new(model, fx);

    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 1,
        deadline_ms: 5_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Telemetry::new()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run(&mut predictor));
        let _guard = ShutdownGuard(handle.clone());
        assert_eq!(get(addr, "/healthz").0, 200, "daemon is up");

        // A synchronized burst against a capacity-1 queue: some must shed.
        let barrier = std::sync::Barrier::new(32);
        let statuses: Vec<(u16, String)> = std::thread::scope(|burst| {
            let clients: Vec<_> = (0..32)
                .map(|_| {
                    burst.spawn(|| {
                        barrier.wait();
                        let (status, head, _) = raw_request(
                            addr,
                            format!("GET /predict?day={DAY}&t=600 HTTP/1.1\r\nhost: t\r\n\r\n")
                                .as_bytes(),
                        );
                        (status, head)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client"))
                .collect()
        });

        let shed = statuses.iter().filter(|(s, _)| *s == 429).count();
        let ok = statuses.iter().filter(|(s, _)| *s == 200).count();
        for (status, head) in &statuses {
            assert!(
                matches!(status, 200 | 429 | 503),
                "unexpected status {status}: {head}"
            );
            if *status == 429 {
                assert!(
                    head.to_ascii_lowercase().contains("retry-after:"),
                    "shed response advertises Retry-After: {head}"
                );
            }
        }
        assert!(ok >= 1, "at least one request served: {statuses:?}");
        assert!(
            shed >= 1,
            "burst of 32 over capacity 1 must shed: {statuses:?}"
        );

        let (_, metrics) = get(addr, "/metrics");
        let counted: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("deepsd_serve_shed_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        assert!(
            counted as usize >= shed,
            "metrics shed {counted} < observed {shed}"
        );

        handle.shutdown();
        runner.join().expect("engine thread").expect("run");
    });
}

#[test]
fn slow_and_malformed_clients_are_contained() {
    let (ds, fcfg, model) = setup(317);
    let fx = FeatureExtractor::new(&ds, fcfg);
    let mut predictor = OnlinePredictor::new(model, fx);

    let config = ServeConfig {
        read_timeout_ms: 200,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, Telemetry::new()).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();

    std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run(&mut predictor));
        let _guard = ShutdownGuard(handle.clone());
        assert_eq!(get(addr, "/healthz").0, 200, "daemon is up");

        // Slow-loris: a half-written head is answered 408 after the
        // read timeout instead of pinning the handler forever.
        let mut loris = TcpStream::connect(addr).expect("connect");
        loris.write_all(b"GET /pre").expect("partial write");
        let mut buf = Vec::new();
        loris.read_to_end(&mut buf).expect("read");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 408"), "loris got: {text}");

        // Garbage request line.
        let (status, _, _) = raw_request(addr, b"BLAH\r\n\r\n");
        assert_eq!(status, 400);

        // Truncated body: content-length promises more than arrives.
        let mut trunc = TcpStream::connect(addr).expect("connect");
        trunc
            .write_all(b"POST /observe HTTP/1.1\r\ncontent-length: 50\r\n\r\n{\"orders\"")
            .expect("write");
        trunc
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut buf = Vec::new();
        trunc.read_to_end(&mut buf).expect("read");
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "truncated got: {text}");

        // Malformed observe payloads are 400, named by row.
        let (status, body) = post(addr, "/observe", "{\"orders\":[[1,2,3]]}");
        assert_eq!(status, 400);
        assert!(body.contains("expected 6 fields"), "{body}");

        // The daemon is still fully functional afterwards.
        let (status, body) = get(addr, &format!("/predict?day={DAY}&t=600&area=0"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"area\":0"), "{body}");

        let (_, metrics) = get(addr, "/metrics");
        assert!(metrics.contains("serve_read_timeouts_total 1"), "{metrics}");
        assert!(metrics.contains("serve_malformed_total"), "{metrics}");

        handle.shutdown();
        let stats = runner.join().expect("engine thread").expect("run");
        assert!(stats.served >= 1, "{stats:?}");
    });
}
