//! Zero-dependency telemetry: a metrics registry (counters, gauges,
//! fixed-bucket histograms) plus structured per-epoch training events,
//! rendered as Prometheus text exposition or a JSON snapshot
//! (DESIGN.md §4.4).
//!
//! The registry is a clonable handle over shared state, so the trainer,
//! the serving path and the CLI can all write into one snapshot. All
//! maps are `BTreeMap`s and every renderer walks them in key order, so
//! snapshots of deterministic computations are themselves
//! deterministic. Wall-clock measurements are the one unavoidable
//! source of nondeterminism; they are namespaced by a `time_` name
//! prefix (and the `time_seconds` field of epoch events) so
//! [`Telemetry::to_json_without_timings`] can produce a byte-identical
//! snapshot for same-seed runs at any thread count.

use deepsd_features::{FeedState, FeedStatus, IngestStats};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Prefix marking a metric as wall-clock derived (excluded from
/// determinism comparisons).
pub const TIMING_PREFIX: &str = "time_";

/// Default histogram buckets for latencies in seconds.
pub const LATENCY_BUCKETS_SECONDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// One structured training event, emitted per completed (non-diverged)
/// epoch by [`crate::trainer::train_ensemble`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochEvent {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Evaluation MAE after the epoch.
    pub eval_mae: f64,
    /// Evaluation RMSE after the epoch.
    pub eval_rmse: f64,
    /// Adam learning rate used during the epoch.
    pub learning_rate: f64,
    /// Cumulative divergence rollbacks at the end of the epoch.
    pub divergence_recoveries: u64,
    /// Wall-clock seconds spent training the epoch (timing-namespaced:
    /// dropped by [`Telemetry::to_json_without_timings`]).
    pub time_seconds: f64,
}

/// Fixed-bucket histogram (cumulative-bucket semantics match the
/// Prometheus exposition format).
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts; the last slot is the +Inf
    /// overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    // deepsd-lint: allow(panic-reach, reason="slot is at most bounds.len() and counts is sized bounds.len()+1 by the constructor")
    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts:
    /// returns the upper bound of the bucket holding the quantile rank
    /// (the +Inf bucket reports the largest finite bound). `None` when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if slot < self.bounds.len() {
                    self.bounds[slot]
                } else {
                    self.bounds.last().copied().unwrap_or(f64::INFINITY)
                });
            }
        }
        self.bounds.last().copied()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    epochs: Vec<EpochEvent>,
}

/// Clonable handle to a shared metrics registry. Cloning is cheap and
/// every clone writes into the same snapshot.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("Telemetry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("epochs", &inner.epochs.len())
            .finish()
    }
}

impl Telemetry {
    /// Fresh, empty registry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    // Telemetry must never take the process down: a panic elsewhere
    // poisons the mutex, but the counters inside are still coherent
    // (every update happens under the lock), so recover the guard.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Increments counter `name` by 1.
    pub fn inc_counter(&self, name: &str) {
        self.add_counter(name, 1);
    }

    /// Increments counter `name` by `n`.
    pub fn add_counter(&self, name: &str, n: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets counter `name` to an absolute value (for counters mirrored
    /// from an externally accumulated snapshot such as
    /// [`IngestStats`]).
    pub fn set_counter(&self, name: &str, value: u64) {
        self.lock().counters.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records `value` into histogram `name` using
    /// [`LATENCY_BUCKETS_SECONDS`].
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with_buckets(name, LATENCY_BUCKETS_SECONDS, value);
    }

    /// Records `value` into histogram `name`, creating it with `bounds`
    /// on first use (later calls keep the original bounds).
    pub fn observe_with_buckets(&self, name: &str, bounds: &[f64], value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Number of observations in histogram `name` (0 when absent).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.lock().histograms.get(name).map_or(0, |h| h.count())
    }

    /// Estimated quantile of histogram `name` (see
    /// [`Histogram::quantile`]).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.lock().histograms.get(name).and_then(|h| h.quantile(q))
    }

    /// Appends a per-epoch training event and mirrors it into the
    /// `train_*` gauges / `train_epochs_total` counter.
    pub fn record_epoch(&self, event: EpochEvent) {
        let mut inner = self.lock();
        *inner
            .counters
            .entry("train_epochs_total".to_string())
            .or_insert(0) += 1;
        inner
            .gauges
            .insert("train_loss".to_string(), event.train_loss);
        inner
            .gauges
            .insert("train_eval_mae".to_string(), event.eval_mae);
        inner
            .gauges
            .insert("train_eval_rmse".to_string(), event.eval_rmse);
        inner
            .gauges
            .insert("train_learning_rate".to_string(), event.learning_rate);
        inner.gauges.insert(
            "train_divergence_recoveries".to_string(),
            event.divergence_recoveries as f64,
        );
        inner.epochs.push(event);
    }

    /// Recorded per-epoch events, in order.
    pub fn epoch_events(&self) -> Vec<EpochEvent> {
        self.lock().epochs.clone()
    }

    /// Mirrors an [`IngestStats`] snapshot into `ingest_*_total`
    /// counters (absolute set: the stats are already cumulative). The
    /// `slot_clamped` tripwire keeps its own `online_slot_clamped_total`
    /// name: it counts defensive slot clamps in the online vector path,
    /// not an ingest outcome.
    pub fn record_ingest(&self, stats: &IngestStats) {
        for (field, value) in stats.fields() {
            if field == "slot_clamped" {
                self.set_counter("online_slot_clamped_total", value);
            } else {
                self.set_counter(&format!("ingest_{field}_total"), value);
            }
        }
    }

    /// Mirrors feed health into gauges: `feed_<kind>_state` (0 = live,
    /// 1 = stale, 2 = down), `feed_<kind>_stale_age_minutes`, and the
    /// aggregate `feeds_degraded`.
    pub fn record_feeds(&self, feeds: &FeedStatus) {
        let mut degraded = 0u32;
        for (kind, state) in [("weather", feeds.weather), ("traffic", feeds.traffic)] {
            self.set_gauge(&format!("feed_{kind}_state"), feed_gauge_value(state));
            self.set_gauge(
                &format!("feed_{kind}_stale_age_minutes"),
                feed_stale_age_minutes(state),
            );
            degraded += u32::from(state.is_degraded());
        }
        self.set_gauge("feeds_degraded", f64::from(degraded));
    }

    /// Records the kernel execution context so perf artifacts from
    /// different machines are comparable: logical core count, AVX2
    /// availability, the microkernel path dispatch currently resolves
    /// to (one-hot `kernel_path_*` gauges), and the per-path GEMM
    /// dispatch counters (incremented once per GEMM call, so identical
    /// at every worker count). The blocking parameters land in the
    /// `time_` namespace: they only move throughput, and the
    /// deterministic snapshot must not see them.
    pub fn record_kernel_telemetry(&self) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.set_gauge("kernel_cores", cores as f64);
        let avx2 = deepsd_nn::avx2_supported();
        self.set_gauge("kernel_avx2_supported", if avx2 { 1.0 } else { 0.0 });
        let path = deepsd_nn::kernel_path();
        for p in deepsd_nn::KernelPath::ALL {
            let hot = if p == path { 1.0 } else { 0.0 };
            self.set_gauge(&format!("kernel_path_{}", p.as_str()), hot);
        }
        let d = deepsd_nn::dispatch_counts();
        self.set_counter("kernel_dispatch_scalar_total", d.scalar);
        self.set_counter("kernel_dispatch_lane_total", d.lane);
        self.set_counter("kernel_dispatch_avx2_total", d.avx2);
        let t = deepsd_nn::tuning();
        self.set_gauge("time_kernel_tuned_mc", t.mc as f64);
        self.set_gauge("time_kernel_tuned_kc", t.kc as f64);
    }

    /// Full JSON snapshot (counters, gauges, histograms with p50/p99,
    /// per-epoch events). Deterministic field order.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON snapshot with every wall-clock metric removed: metrics whose
    /// name starts with [`TIMING_PREFIX`] and the `time_seconds` field
    /// of epoch events. Two same-seed runs of a deterministic
    /// computation produce byte-identical output at any thread count.
    pub fn to_json_without_timings(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, with_timings: bool) -> String {
        let inner = self.lock();
        let keep = |name: &&String| with_timings || !name.starts_with(TIMING_PREFIX);
        let counters = inner.counters.iter().filter(|(n, _)| keep(n));
        let gauges = inner.gauges.iter().filter(|(n, _)| keep(n));
        let histograms = inner.histograms.iter().filter(|(n, _)| keep(n));
        let epochs = inner.epochs.iter().map(|e| {
            let mut fields = vec![
                ("epoch", Json::Int(e.epoch as u64)),
                ("train_loss", Json::Num(e.train_loss)),
                ("eval_mae", Json::Num(e.eval_mae)),
                ("eval_rmse", Json::Num(e.eval_rmse)),
                ("learning_rate", Json::Num(e.learning_rate)),
                ("divergence_recoveries", Json::Int(e.divergence_recoveries)),
            ];
            if with_timings {
                fields.push(("time_seconds", Json::Num(e.time_seconds)));
            }
            Json::obj(fields)
        });
        let doc = Json::obj([
            (
                "counters",
                Json::obj(counters.map(|(n, v)| (n, Json::Int(*v)))),
            ),
            ("gauges", Json::obj(gauges.map(|(n, v)| (n, Json::Num(*v))))),
            (
                "histograms",
                Json::obj(histograms.map(|(n, h)| (n, histogram_json(h)))),
            ),
            ("epochs", Json::Arr(epochs.collect())),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Prometheus text exposition (metric names are prefixed with
    /// `deepsd_`). Histograms use cumulative `_bucket{le=...}` lines
    /// plus `_sum` / `_count`, per the format spec.
    // deepsd-lint: allow(panic-reach, reason="slot < bounds.len() is checked by the guard on the same expression")
    pub fn to_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, value) in &inner.counters {
            out.push_str(&format!(
                "# TYPE deepsd_{name} counter\ndeepsd_{name} {value}\n"
            ));
        }
        for (name, value) in &inner.gauges {
            out.push_str(&format!(
                "# TYPE deepsd_{name} gauge\ndeepsd_{name} {}\n",
                prom_f64(*value)
            ));
        }
        for (name, hist) in &inner.histograms {
            out.push_str(&format!("# TYPE deepsd_{name} histogram\n"));
            let mut cumulative = 0u64;
            for (slot, &c) in hist.counts.iter().enumerate() {
                cumulative += c;
                let le = if slot < hist.bounds.len() {
                    prom_f64(hist.bounds[slot])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "deepsd_{name}_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!("deepsd_{name}_sum {}\n", prom_f64(hist.sum)));
            out.push_str(&format!("deepsd_{name}_count {}\n", hist.count));
        }
        out
    }

    /// Writes the full JSON snapshot to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Gauge encoding of a feed state: 0 = live, 1 = stale, 2 = down.
pub fn feed_gauge_value(state: FeedState) -> f64 {
    match state {
        FeedState::Live => 0.0,
        FeedState::Stale { .. } => 1.0,
        FeedState::Down => 2.0,
    }
}

/// Stale age in minutes (0 unless the feed is stale).
pub fn feed_stale_age_minutes(state: FeedState) -> f64 {
    match state {
        FeedState::Stale { age_minutes } => f64::from(age_minutes),
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB, read from the `VmHWM`
/// line of `/proc/self/status` (0.0 when unavailable, e.g. on
/// non-Linux). The kernel high-water mark is monotonic per process, so
/// scale sweeps that want per-configuration peaks must run each
/// configuration in a fresh child process.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    peak_rss_kb_from(&status) / 1024.0
}

fn peak_rss_kb_from(status: &str) -> f64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .unwrap_or(0.0);
        }
    }
    0.0
}

/// Process-wide registry for code without an explicit handle (e.g. the
/// bench harness's env-override counters).
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

fn histogram_json(hist: &Histogram) -> Json {
    let mut cumulative = 0u64;
    let buckets = hist.counts.iter().enumerate().map(|(slot, &c)| {
        cumulative += c;
        // The last slot is the overflow bucket, past every bound.
        let le = hist
            .bounds
            .get(slot)
            .map_or(Json::Str("+Inf".into()), |&b| Json::Num(b));
        Json::obj([("le", le), ("count", Json::Int(cumulative))])
    });
    let quantile = |q| hist.quantile(q).map_or(Json::Null, Json::Num);
    Json::obj([
        ("buckets", Json::Arr(buckets.collect())),
        ("sum", Json::Num(hist.sum)),
        ("count", Json::Int(hist.count)),
        ("p50", quantile(0.5)),
        ("p99", quantile(0.99)),
    ])
}

fn push_entry(out: &mut String, first: &mut bool, indent: usize) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
}

fn close(out: &mut String, first: bool, indent: usize, bracket: char) {
    if !first {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(bracket);
}

/// A JSON document for hand-rolled report files (the bench and drill
/// outputs), rendered with the snapshot's escaping and number format.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer, printed exactly.
    Int(u64),
    /// A float; `null` when not finite.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object whose keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders with two-space indentation, one member per line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, 0);
        out
    }

    fn render(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(v) => out.push_str(&json_f64(*v)),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                out.push('[');
                let mut first = true;
                for item in items {
                    push_entry(out, &mut first, indent + 2);
                    item.render(out, indent + 2);
                }
                close(out, first, indent, ']');
            }
            Json::Obj(fields) => {
                out.push('{');
                let mut first = true;
                for (key, value) in fields {
                    push_entry(out, &mut first, indent + 2);
                    out.push_str(&json_string(key));
                    out.push_str(": ");
                    value.render(out, indent + 2);
                }
                close(out, first, indent, '}');
            }
        }
    }
}

/// Serialises a string as a JSON literal (quotes + escapes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep the float
        // marker so readers preserve the type.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Minimal parser for the Prometheus text exposition format: returns
/// `metric_name{labels}` → value for every sample line, skipping
/// comments and blanks. Errors on a line that is not `name value`.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: expected `name value`", lineno + 1))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|e| format!("line {}: bad value {v:?}: {e}", lineno + 1))?,
        };
        out.insert(name.trim().to_string(), value);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let tel = Telemetry::new();
        tel.inc_counter("a_total");
        tel.add_counter("a_total", 2);
        tel.set_gauge("g", 1.5);
        assert_eq!(tel.counter("a_total"), 3);
        assert_eq!(tel.gauge("g"), Some(1.5));
        assert_eq!(tel.counter("missing"), 0);
        assert_eq!(tel.gauge("missing"), None);
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.inc_counter("shared_total");
        assert_eq!(tel.counter("shared_total"), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.quantile(0.5), Some(2.0));
        // The +Inf bucket reports the largest finite bound.
        assert_eq!(h.quantile(0.99), Some(4.0));
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
    }

    #[test]
    fn timings_are_stripped_from_determinism_snapshot() {
        let tel = Telemetry::new();
        tel.set_gauge("stable", 1.0);
        tel.set_gauge("time_epoch_seconds", 0.123);
        tel.observe("time_latency_seconds", 0.01);
        let full = tel.to_json();
        let stripped = tel.to_json_without_timings();
        assert!(full.contains("time_epoch_seconds"));
        assert!(!stripped.contains("time_"));
        assert!(stripped.contains("stable"));
    }

    #[test]
    fn epoch_events_mirror_into_gauges() {
        let tel = Telemetry::new();
        tel.record_epoch(EpochEvent {
            epoch: 0,
            train_loss: 2.0,
            eval_mae: 1.0,
            eval_rmse: 1.5,
            learning_rate: 7e-4,
            divergence_recoveries: 0,
            time_seconds: 0.5,
        });
        assert_eq!(tel.counter("train_epochs_total"), 1);
        assert_eq!(tel.gauge("train_eval_rmse"), Some(1.5));
        assert_eq!(tel.epoch_events().len(), 1);
        let without = tel.to_json_without_timings();
        assert!(without.contains("\"eval_mae\": 1.0"));
        assert!(!without.contains("time_seconds"));
        assert!(tel.to_json().contains("\"time_seconds\": 0.5"));
    }

    #[test]
    fn prometheus_exposition_parses_back() {
        let tel = Telemetry::new();
        tel.inc_counter("requests_total");
        tel.set_gauge("depth", 2.5);
        tel.observe_with_buckets("latency_seconds", &[0.1, 1.0], 0.05);
        tel.observe_with_buckets("latency_seconds", &[0.1, 1.0], 5.0);
        let text = tel.to_prometheus();
        let parsed = parse_prometheus(&text).expect("parses");
        assert_eq!(parsed["deepsd_requests_total"], 1.0);
        assert_eq!(parsed["deepsd_depth"], 2.5);
        assert_eq!(parsed["deepsd_latency_seconds_bucket{le=\"0.1\"}"], 1.0);
        assert_eq!(parsed["deepsd_latency_seconds_bucket{le=\"+Inf\"}"], 2.0);
        assert_eq!(parsed["deepsd_latency_seconds_count"], 2.0);
        assert!(parse_prometheus("garbage").is_err());
    }

    #[test]
    fn peak_rss_parses_proc_status() {
        let status = "Name:\tdeepsd\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(peak_rss_kb_from(status), 2048.0);
        assert_eq!(peak_rss_kb_from("no such line"), 0.0);
        #[cfg(target_os = "linux")]
        assert!(peak_rss_mb() > 0.0, "live VmHWM must be positive");
    }

    #[test]
    fn json_documents_render_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("a\"b".into())),
            ("n".into(), Json::Int(3)),
            ("xs".into(), Json::Arr(vec![Json::Num(0.5), Json::Null])),
            ("empty".into(), Json::Arr(vec![])),
            ("ok".into(), Json::Bool(true)),
        ]);
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 3,\n  \"xs\": [\n    0.5,\n    null\n  ],\n  \"empty\": [],\n  \"ok\": true\n}"
        );
        assert_eq!(Json::Obj(vec![]).to_pretty(), "{}");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\r\t\u{1}"), "\"\\r\\t\\u0001\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn json_f64_formats_deterministically() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
