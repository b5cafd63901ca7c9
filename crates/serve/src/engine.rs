//! The single-threaded micro-batching engine.
//!
//! Exactly one engine loop exists per daemon and it is the only code
//! that touches the `OnlinePredictor` — connection handlers never call
//! the model. Each pass drains up to `max_batch` jobs from the queue,
//! applies observes in arrival order, then coalesces predict jobs for
//! the same `(day, t)` slot into a single `predict_all_report` call
//! whose result answers every waiting client. The feed health of each
//! served slot is folded into the [`CircuitBreaker`], and the breaker's
//! position is mirrored into the shared readiness flag for `/readyz`.
//!
//! Ordering is deterministic: observes run before predicts within a
//! batch, predict groups run in first-seen order, and replies within a
//! group follow admission order. Only deadline expiry depends on real
//! time, and that check is confined to [`crate::deadline`].

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::deadline::Stopwatch;
use crate::http::Response;
use crate::queue::{Job, JobKind, JobQueue};
use deepsd::continual::Handoff;
use deepsd::model::Predictor;
use deepsd::serving::{OnlinePredictor, ServingReport};
use deepsd::telemetry::json_string;
use deepsd::telemetry::Telemetry;
use deepsd_features::ItemSource;
use deepsd_simdata::Order;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How long an idle engine sleeps before re-checking the shutdown flag
/// (shutdown also wakes the queue's condvar, so drain starts promptly).
const IDLE_POLL: Duration = Duration::from_millis(20);

/// What the engine did over its lifetime; returned by [`Engine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Non-empty dequeue passes.
    pub batches: u64,
    /// `predict_all_report` invocations (one per distinct `(day, t)`
    /// slot with at least one unexpired request).
    pub predict_calls: u64,
    /// Predict requests answered from a coalesced slot — i.e. requests
    /// beyond the first in their group, served without extra model work.
    pub coalesced: u64,
    /// Observe jobs applied.
    pub observes: u64,
    /// Requests answered `503` because their deadline expired in queue.
    pub expired: u64,
    /// Requests answered `200`.
    pub served: u64,
    /// Promoted continual-learning snapshots installed between batches.
    pub swaps: u64,
}

/// Wiring between the engine and a background continual-learning
/// shadow trainer (see `deepsd::continual`).
#[derive(Debug, Clone)]
pub struct ContinualHooks {
    /// Every observed order batch is forwarded here so the shadow
    /// trainer sees exactly the stream serving validated. Send errors
    /// are ignored: a finished trainer must not break serving.
    pub orders: mpsc::Sender<Vec<Order>>,
    /// Promoted snapshots arrive through this slot.
    pub handoff: Handoff,
    /// Generation currently installed in serving, mirrored for
    /// `/readyz`. Only the engine writes it.
    pub generation: Arc<AtomicU64>,
}

/// The micro-batching loop. Construct with [`Engine::new`], then call
/// [`Engine::run`] on the thread that owns the predictor.
#[derive(Debug)]
pub struct Engine {
    telemetry: Telemetry,
    breaker: CircuitBreaker,
    max_batch: usize,
    stats: EngineStats,
    continual: Option<ContinualHooks>,
    generation: u64,
}

impl Engine {
    /// An engine batching up to `max_batch` jobs per pass.
    pub fn new(telemetry: Telemetry, breaker: CircuitBreaker, max_batch: usize) -> Engine {
        Engine {
            telemetry,
            breaker,
            max_batch: max_batch.max(1),
            stats: EngineStats::default(),
            continual: None,
            generation: 0,
        }
    }

    /// Attaches continual-learning wiring: observed orders are forwarded
    /// to the shadow trainer and promoted snapshots are installed
    /// between micro-batches.
    pub fn set_continual(&mut self, hooks: ContinualHooks) {
        self.continual = Some(hooks);
    }

    /// Drains the queue until `shutdown` is set *and* the queue is
    /// empty (graceful drain: already-admitted jobs are still served).
    /// Mirrors breaker readiness into `ready` after every predict call.
    pub fn run<P: Predictor + Sync, X: ItemSource>(
        mut self,
        predictor: &mut OnlinePredictor<P, X>,
        queue: &JobQueue,
        shutdown: &AtomicBool,
        ready: &AtomicBool,
    ) -> EngineStats {
        loop {
            let jobs = queue.pop_batch(self.max_batch, IDLE_POLL);
            // Model swaps happen here, strictly between micro-batches:
            // every job in the batch below is answered by one model
            // generation, so no response mixes old and new weights.
            self.install_promotion(predictor);
            if jobs.is_empty() {
                if shutdown.load(Ordering::SeqCst) && queue.is_empty() {
                    break;
                }
                continue;
            }
            self.stats.batches += 1;
            self.telemetry.inc_counter("serve_engine_batches_total");
            self.process(predictor, jobs, ready);
        }
        self.stats
    }

    /// Installs the latest promoted snapshot, if any. Called only at
    /// micro-batch boundaries by [`Engine::run`].
    fn install_promotion<P: Predictor + Sync, X: ItemSource>(
        &mut self,
        predictor: &mut OnlinePredictor<P, X>,
    ) {
        let Some(hooks) = &self.continual else {
            return;
        };
        let Some(promoted) = hooks.handoff.take() else {
            return;
        };
        if predictor.install_snapshot(&promoted.snapshot) {
            self.generation = promoted.generation;
            hooks
                .generation
                .store(promoted.generation, Ordering::SeqCst);
            self.stats.swaps += 1;
            self.telemetry
                .set_gauge("serve_model_generation", promoted.generation as f64);
            self.telemetry.inc_counter("serve_model_swaps_total");
        }
    }

    /// One batch: observes in arrival order, then predicts coalesced by
    /// `(day, t)` in first-seen order.
    fn process<P: Predictor + Sync, X: ItemSource>(
        &mut self,
        predictor: &mut OnlinePredictor<P, X>,
        jobs: Vec<Job>,
        ready: &AtomicBool,
    ) {
        let mut predicts: Vec<Job> = Vec::with_capacity(jobs.len());
        for job in jobs {
            self.telemetry.observe(
                "time_serve_queue_wait_seconds",
                job.queued.elapsed_seconds(),
            );
            match job.kind {
                JobKind::Observe { .. } => self.run_observe(predictor, job),
                JobKind::Predict { .. } => predicts.push(job),
            }
        }

        // Group by slot, preserving first-seen order so the same
        // admission sequence always produces the same predict sequence.
        let mut groups: Vec<((u16, u16), Vec<Job>)> = Vec::new();
        for job in predicts {
            let JobKind::Predict { day, t, .. } = job.kind else {
                continue;
            };
            match groups.iter_mut().find(|(slot, _)| *slot == (day, t)) {
                Some((_, members)) => members.push(job),
                None => groups.push(((day, t), vec![job])),
            }
        }
        for ((day, t), members) in groups {
            self.run_predict_group(predictor, day, t, members, ready);
        }
    }

    fn run_observe<P: Predictor + Sync, X: ItemSource>(
        &mut self,
        predictor: &mut OnlinePredictor<P, X>,
        job: Job,
    ) {
        if self.expire_if_late(&job) {
            return;
        }
        let JobKind::Observe { orders } = job.kind else {
            return;
        };
        let report = predictor.observe_all(&orders);
        self.stats.observes += 1;
        self.stats.served += 1;
        self.telemetry.inc_counter("serve_observe_jobs_total");
        self.telemetry
            .add_counter("serve_observed_orders_total", report.applied as u64);
        let mut body = format!(
            "{{\"attempted\":{},\"applied\":{},\"failed\":{}",
            report.attempted, report.applied, report.failed
        );
        if let Some(err) = report.first_error() {
            body.push_str(&format!(
                ",\"first_error\":{}",
                json_string(&err.to_string())
            ));
        }
        body.push('}');
        let _ = job.reply.send(Response::json(200, body));
        if let Some(hooks) = &self.continual {
            // The reply is already on its way; trainer backpressure or
            // shutdown must not affect the client.
            let _ = hooks.orders.send(orders);
        }
    }

    fn run_predict_group<P: Predictor + Sync, X: ItemSource>(
        &mut self,
        predictor: &mut OnlinePredictor<P, X>,
        day: u16,
        t: u16,
        members: Vec<Job>,
        ready: &AtomicBool,
    ) {
        let live: Vec<Job> = members
            .into_iter()
            .filter(|job| !self.expire_if_late(job))
            .collect();
        if live.is_empty() {
            return;
        }

        let timer = Stopwatch::start();
        let report = predictor.predict_all_report(day, t);
        self.telemetry
            .observe("time_serve_batch_seconds", timer.elapsed_seconds());
        self.stats.predict_calls += 1;
        self.stats.coalesced += (live.len() as u64).saturating_sub(1);
        self.telemetry.inc_counter("serve_predict_groups_total");
        self.telemetry.add_counter(
            "serve_coalesced_requests_total",
            (live.len() as u64).saturating_sub(1),
        );

        let state = self.breaker.record(report.feeds.degraded());
        ready.store(state == BreakerState::Closed, Ordering::SeqCst);
        self.telemetry.set_gauge(
            "serve_breaker_open",
            if state == BreakerState::Closed {
                0.0
            } else {
                1.0
            },
        );
        self.telemetry
            .set_counter("serve_breaker_trips_total", self.breaker.trips());

        for job in live {
            let area = match job.kind {
                JobKind::Predict { area, .. } => area,
                JobKind::Observe { .. } => None,
            };
            let resp = render_prediction(&report, day, t, area, state, self.generation);
            if resp.status == 200 {
                self.stats.served += 1;
            }
            let _ = job.reply.send(resp);
        }
    }

    /// Answers `503` (and counts it) when the job's deadline has
    /// already expired; returns whether it did.
    fn expire_if_late(&mut self, job: &Job) -> bool {
        if !job.deadline.expired() {
            return false;
        }
        self.stats.expired += 1;
        self.telemetry.inc_counter("serve_deadline_expired_total");
        let _ = job.reply.send(Response::error(
            503,
            "deadline expired before the request was served",
        ));
        true
    }
}

fn breaker_label(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// Renders one predict reply from a (possibly shared) serving report.
/// `generation` is the continual-learning model generation that
/// produced the prediction (0 until a first promotion is installed).
fn render_prediction(
    report: &ServingReport,
    day: u16,
    t: u16,
    area: Option<u16>,
    state: BreakerState,
    generation: u64,
) -> Response {
    let tail = format!(
        "\"degraded\":{},\"breaker\":{},\"generation\":{generation},\"feeds\":{{\"weather\":{},\"traffic\":{}}}",
        report.feeds.degraded(),
        json_string(breaker_label(state)),
        json_string(&report.feeds.weather.to_string()),
        json_string(&report.feeds.traffic.to_string()),
    );
    match area {
        Some(a) => match report.predictions.get(a as usize) {
            Some(p) => Response::json(
                200,
                format!("{{\"day\":{day},\"t\":{t},\"area\":{a},\"gap\":{p},{tail}}}"),
            ),
            None => Response::error(
                404,
                &format!(
                    "area {a} out of range (city has {} areas)",
                    report.predictions.len()
                ),
            ),
        },
        None => {
            let mut preds = String::with_capacity(report.predictions.len() * 8);
            for (i, p) in report.predictions.iter().enumerate() {
                if i > 0 {
                    preds.push(',');
                }
                preds.push_str(&format!("{p}"));
            }
            Response::json(
                200,
                format!("{{\"day\":{day},\"t\":{t},\"gaps\":[{preds}],{tail}}}"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepsd_features::FeedStatus;
    use deepsd_features::IngestStats;

    fn report(preds: Vec<f32>, degraded: bool) -> ServingReport {
        let feeds = if degraded {
            FeedStatus {
                weather: deepsd_features::FeedState::Down,
                traffic: deepsd_features::FeedState::Live,
            }
        } else {
            FeedStatus::all_live()
        };
        ServingReport {
            predictions: preds,
            feeds,
            ingest: IngestStats::default(),
        }
    }

    #[test]
    fn render_full_city_and_single_area() {
        let r = report(vec![1.5, 2.25], false);
        let full = render_prediction(&r, 3, 600, None, BreakerState::Closed, 0);
        assert_eq!(full.status, 200);
        assert!(full.body.contains("\"gaps\":[1.5,2.25]"), "{}", full.body);
        assert!(full.body.contains("\"breaker\":\"closed\""));
        assert!(full.body.contains("\"generation\":0"), "{}", full.body);

        let one = render_prediction(&r, 3, 600, Some(1), BreakerState::Closed, 7);
        assert_eq!(one.status, 200);
        assert!(one.body.contains("\"area\":1"), "{}", one.body);
        assert!(one.body.contains("\"gap\":2.25"), "{}", one.body);
        assert!(one.body.contains("\"generation\":7"), "{}", one.body);
    }

    #[test]
    fn render_area_out_of_range_is_404() {
        let r = report(vec![0.0; 4], false);
        let resp = render_prediction(&r, 0, 0, Some(9), BreakerState::Closed, 0);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("out of range"), "{}", resp.body);
    }

    #[test]
    fn render_marks_degraded_feeds() {
        let r = report(vec![1.0], true);
        let resp = render_prediction(&r, 0, 0, None, BreakerState::Open, 0);
        assert!(resp.body.contains("\"degraded\":true"), "{}", resp.body);
        assert!(resp.body.contains("\"breaker\":\"open\""), "{}", resp.body);
        assert!(resp.body.contains("\"weather\":\"down\""), "{}", resp.body);
    }
}
