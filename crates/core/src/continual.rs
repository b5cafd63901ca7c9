//! Continual learning: background shadow fine-tuning with gated,
//! atomic promotion into serving.
//!
//! The paper's fourth contribution is that a trained DeepSD model can
//! be *extended and fine-tuned* cheaply instead of retrained (§V-C).
//! This module closes the train ↔ serve loop around that property: a
//! [`ShadowTrainer`] consumes the same order stream the serving
//! [`OnlinePredictor`](crate::serving::OnlinePredictor) validates,
//! maintains a **shadow copy** of the model cloned from the serving
//! snapshot, periodically fine-tunes it on a sliding window of recent
//! timeslots (reusing the trainer's divergence rollback and LR
//! halving), and gates promotion on a held-out recent-window MAE check:
//! the shadow must beat the live weights by a configurable margin.
//! Promoted snapshots are offered through a [`Handoff`] slot; the
//! serving engine installs them **between micro-batches**, so no
//! request is ever answered by a half-swapped model and the response
//! generation counter changes only at batch boundaries.
//!
//! Determinism: every decision — window membership, fine-tune rounds,
//! promotion or rollback — is a pure function of the observed order
//! sequence and the config. Orders are folded one at a time, so batch
//! boundaries (which depend on queue timing) are unobservable, and the
//! event log is byte-identical across reruns, worker counts and
//! process respawns. No wall-clock reads happen here.

use crate::checkpoint::save_checkpoint;
use crate::model::DeepSD;
use crate::telemetry::Telemetry;
use crate::trainer::{evaluate_model, train, TrainOptions};
use deepsd_features::{ItemKey, ItemSource};
use deepsd_nn::Snapshot;
use deepsd_simdata::{Order, MINUTES_PER_DAY};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Timeslot granularity of the fine-tuning window, in minutes. Matches
/// the paper's prediction slot `C`: an order at minute `ts` makes the
/// next `TICK_MINUTES`-aligned boundary a candidate training timeslot.
pub const TICK_MINUTES: u16 = 10;

/// Holdout stride for gating: every `HOLDOUT`-th key of the window is
/// held out of fine-tuning and used for the MAE gate.
const HOLDOUT: usize = 4;

/// Knobs for the continual-learning loop.
#[derive(Debug, Clone)]
pub struct ContinualConfig {
    /// Sliding window length, in distinct `(day, tick)` timeslots. Each
    /// fine-tune round trains on `window_ticks × n_areas` keys (minus
    /// the gating holdout).
    pub window_ticks: usize,
    /// Fine-tune cadence: one round every `cadence` observed orders.
    /// Counted per order, never per batch, so queue timing cannot shift
    /// a round.
    pub cadence: u64,
    /// Promotion margin: the shadow is promoted only when
    /// `shadow_mae <= live_mae * (1 - margin)` on the held-out slice.
    pub margin: f64,
    /// Fine-tune epochs per round.
    pub epochs: usize,
    /// Fine-tune learning rate (typically below the from-scratch rate).
    pub learning_rate: f32,
    /// `DEEPSD-CKPT1` path the promoted shadow is persisted to
    /// (`None` disables shadow persistence).
    pub shadow_path: Option<String>,
    /// Shuffle/dropout seed for fine-tune rounds (mixed with the round
    /// number so every round shuffles differently but reproducibly).
    pub seed: u64,
    /// Worker threads for the fine-tune shard pool and evaluation
    /// (`0` = auto). Results are bit-identical at any setting.
    pub threads: usize,
}

impl Default for ContinualConfig {
    fn default() -> Self {
        ContinualConfig {
            window_ticks: 36,
            cadence: 512,
            margin: 0.01,
            epochs: 2,
            learning_rate: 2e-4,
            shadow_path: None,
            seed: 99,
            threads: 0,
        }
    }
}

/// One entry of the deterministic continual-learning event log. MAE
/// values are `f64`; [`ContinualEvent::render`] prints their exact bit
/// patterns so event sequences can be byte-compared across processes.
#[derive(Debug, Clone, PartialEq)]
pub enum ContinualEvent {
    /// The shadow beat the live weights by the margin and was promoted.
    Promoted {
        /// Fine-tune round that produced the promotion (1-based).
        round: u64,
        /// Model generation after the promotion (1-based).
        generation: u64,
        /// Held-out recent-window MAE of the fine-tuned shadow.
        shadow_mae: f64,
        /// Held-out recent-window MAE of the live weights.
        live_mae: f64,
    },
    /// The shadow failed the gate and was rolled back to live weights.
    RolledBack {
        /// Fine-tune round that was rolled back (1-based).
        round: u64,
        /// Held-out recent-window MAE of the fine-tuned shadow.
        shadow_mae: f64,
        /// Held-out recent-window MAE of the live weights.
        live_mae: f64,
    },
}

impl ContinualEvent {
    /// Canonical single-line form with exact MAE bit patterns —
    /// byte-comparable across runs, worker counts and respawns.
    pub fn render(&self) -> String {
        match self {
            ContinualEvent::Promoted {
                round,
                generation,
                shadow_mae,
                live_mae,
            } => format!(
                "promoted round {round} gen {generation} shadow {:016x} live {:016x}",
                shadow_mae.to_bits(),
                live_mae.to_bits()
            ),
            ContinualEvent::RolledBack {
                round,
                shadow_mae,
                live_mae,
            } => format!(
                "rolledback round {round} shadow {:016x} live {:016x}",
                shadow_mae.to_bits(),
                live_mae.to_bits()
            ),
        }
    }
}

/// A promoted parameter snapshot awaiting installation by the serving
/// engine.
#[derive(Debug, Clone)]
pub struct PromotedModel {
    /// The promoted parameters.
    pub snapshot: Snapshot,
    /// Generation the serving side reports once installed.
    pub generation: u64,
}

/// Single-slot handoff between the shadow trainer and the serving
/// engine. The trainer [`offer`](Handoff::offer)s promoted snapshots;
/// the engine [`take`](Handoff::take)s them between micro-batches — the
/// swap is atomic from the request path's point of view because the
/// engine is the only code touching the serving model and it never
/// installs mid-batch. A newer promotion replaces an unclaimed older
/// one (the engine only ever wants the latest).
#[derive(Debug, Clone, Default)]
pub struct Handoff {
    slot: Arc<Mutex<Option<PromotedModel>>>,
}

impl Handoff {
    /// An empty handoff slot.
    pub fn new() -> Handoff {
        Handoff::default()
    }

    /// Poison-tolerant lock: a panicking peer must not take the swap
    /// path down with it.
    fn lock(&self) -> MutexGuard<'_, Option<PromotedModel>> {
        match self.slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Publishes a promoted snapshot, replacing any unclaimed one.
    pub fn offer(&self, promoted: PromotedModel) {
        *self.lock() = Some(promoted);
    }

    /// Claims the latest unclaimed promotion, if any.
    pub fn take(&self) -> Option<PromotedModel> {
        self.lock().take()
    }
}

/// The background fine-tuner: owns the shadow model, the sliding recent
/// window and the promotion gate.
///
/// Feed it the observed order stream via [`ShadowTrainer::ingest`];
/// promoted snapshots appear in the [`Handoff`] and the full decision
/// history in [`ShadowTrainer::events`].
pub struct ShadowTrainer<X: ItemSource> {
    cfg: ContinualConfig,
    shadow: DeepSD,
    /// Parameters currently serving, as far as this trainer promoted
    /// them: the initial snapshot plus every promotion since. The gate
    /// compares fine-tuned shadow weights against these.
    live: Snapshot,
    extractor: X,
    /// Distinct recent `(day, tick)` timeslots, oldest first.
    window: VecDeque<(u16, u16)>,
    orders_since_round: u64,
    rounds: u64,
    generation: u64,
    promotions: u64,
    rollbacks: u64,
    ft_epochs: u64,
    events: Vec<ContinualEvent>,
    handoff: Handoff,
    telemetry: Option<Telemetry>,
    /// Training-time MAE of the deployed model, for the drift gauges.
    training_mae: Option<f64>,
}

impl<X: ItemSource> ShadowTrainer<X> {
    /// Creates a trainer whose shadow starts from `shadow` (normally a
    /// clone of the serving model). `extractor` supplies features and
    /// ground truth for recent keys; it should wrap the same data the
    /// serving extractor does.
    pub fn new(shadow: DeepSD, extractor: X, cfg: ContinualConfig, handoff: Handoff) -> Self {
        let live = shadow.snapshot();
        ShadowTrainer {
            cfg,
            shadow,
            live,
            extractor,
            window: VecDeque::new(),
            orders_since_round: 0,
            rounds: 0,
            generation: 0,
            promotions: 0,
            rollbacks: 0,
            ft_epochs: 0,
            events: Vec::new(),
            handoff,
            telemetry: None,
            training_mae: None,
        }
    }

    /// Attaches a metrics sink for the continual counters and drift
    /// gauges.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Records the deployed model's training-time MAE so the drift
    /// gauges can report recent-window MAE against it.
    pub fn set_training_mae(&mut self, mae: f64) {
        self.training_mae = Some(mae);
    }

    /// Current model generation (number of promotions so far).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Fine-tune rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The full promotion/rollback event log, oldest first.
    pub fn events(&self) -> &[ContinualEvent] {
        &self.events
    }

    /// The shadow model (tests and the drill's MAE comparison).
    pub fn shadow(&self) -> &DeepSD {
        &self.shadow
    }

    /// Folds a batch of observed orders into the window and runs any
    /// fine-tune rounds they trigger, returning the events produced.
    ///
    /// Orders are processed one at a time so results do not depend on
    /// how the stream was batched upstream.
    pub fn ingest(&mut self, orders: &[Order]) -> Vec<ContinualEvent> {
        let before = self.events.len();
        for order in orders {
            self.ingest_one(order);
        }
        self.events[before..].to_vec()
    }

    fn ingest_one(&mut self, order: &Order) {
        if order.loc_start as usize >= self.extractor.n_areas()
            || order.day >= self.extractor.n_days()
        {
            return;
        }
        if let Some(tick) = Self::tick_of(order, self.extractor.config().window_l as u16) {
            if !self.window.contains(&tick) {
                self.window.push_back(tick);
                while self.window.len() > self.cfg.window_ticks {
                    self.window.pop_front();
                }
            }
        }
        self.orders_since_round += 1;
        if self.orders_since_round >= self.cfg.cadence.max(1) {
            self.orders_since_round = 0;
            self.run_round();
        }
    }

    /// The training timeslot an order contributes evidence to: the next
    /// `TICK_MINUTES` boundary after its minute, skipped when the
    /// window would cross midnight (`t < L`) or run past the day.
    fn tick_of(order: &Order, window_l: u16) -> Option<(u16, u16)> {
        let t = (order.ts / TICK_MINUTES + 1).checked_mul(TICK_MINUTES)?;
        if t < window_l || t.saturating_add(TICK_MINUTES) > MINUTES_PER_DAY as u16 {
            return None;
        }
        Some((order.day, t))
    }

    /// Window keys in deterministic (tick-insertion, then area) order,
    /// split into fine-tune and held-out gating slices.
    fn split_keys(&self) -> (Vec<ItemKey>, Vec<ItemKey>) {
        let n_areas = self.extractor.n_areas() as u16;
        let mut train_keys = Vec::new();
        let mut eval_keys = Vec::new();
        let mut i = 0usize;
        for &(day, t) in &self.window {
            for area in 0..n_areas {
                let key = ItemKey { area, day, t };
                if i % HOLDOUT == HOLDOUT - 1 {
                    eval_keys.push(key);
                } else {
                    train_keys.push(key);
                }
                i += 1;
            }
        }
        (train_keys, eval_keys)
    }

    fn fine_tune_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.cfg.epochs.max(1),
            learning_rate: self.cfg.learning_rate,
            best_k: 1,
            lr_decay: 1.0,
            // Mix the round number in so every round reshuffles, but
            // reproducibly: same stream, same rounds, same shuffles.
            seed: self.cfg.seed ^ self.rounds.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            threads: self.cfg.threads,
            telemetry: self.telemetry.clone(),
            ..TrainOptions::default()
        }
    }

    /// One fine-tune round: evaluate live weights on the held-out
    /// slice, fine-tune the shadow on the rest (inheriting the
    /// trainer's divergence rollback and LR halving), then gate.
    fn run_round(&mut self) {
        let (train_keys, eval_keys) = self.split_keys();
        if train_keys.is_empty() || eval_keys.is_empty() {
            return;
        }
        self.rounds += 1;
        let round = self.rounds;
        let eval_items = self.extractor.extract_all(&eval_keys);

        // The shadow carries live weights between rounds (it is either
        // freshly promoted or freshly rolled back), so this is the live
        // model's recent-window MAE.
        let live_mae = evaluate_model(&self.shadow, &eval_items, 64).mae;

        let options = self.fine_tune_options();
        let report = train(
            &mut self.shadow,
            &mut self.extractor,
            &train_keys,
            &eval_items,
            &options,
        );
        self.ft_epochs += report.epochs.len() as u64;
        let shadow_mae = report.final_mae;

        let promote = shadow_mae.is_finite()
            && live_mae.is_finite()
            && shadow_mae <= live_mae * (1.0 - self.cfg.margin);
        if promote {
            self.generation += 1;
            self.promotions += 1;
            self.live = self.shadow.snapshot();
            self.handoff.offer(PromotedModel {
                snapshot: self.live.clone(),
                generation: self.generation,
            });
            if let Some(path) = &self.cfg.shadow_path {
                if save_checkpoint(path, &self.shadow).is_err() {
                    if let Some(tel) = &self.telemetry {
                        tel.inc_counter("continual_checkpoint_errors_total");
                    }
                }
            }
            self.events.push(ContinualEvent::Promoted {
                round,
                generation: self.generation,
                shadow_mae,
                live_mae,
            });
        } else {
            self.rollbacks += 1;
            self.shadow.restore(&self.live);
            self.events.push(ContinualEvent::RolledBack {
                round,
                shadow_mae,
                live_mae,
            });
        }
        self.publish_metrics(shadow_mae, live_mae);
    }

    /// Mirrors the continual counters and drift gauges into telemetry.
    /// The drift gauge is the live model's MAE on the recent held-out
    /// window minus its training-time MAE: near zero while the world
    /// looks like the training data, rising as the regime drifts, and
    /// recovering after a promotion.
    fn publish_metrics(&self, shadow_mae: f64, live_mae: f64) {
        let Some(tel) = &self.telemetry else {
            return;
        };
        tel.set_counter("continual_promotions_total", self.promotions);
        tel.set_counter("continual_rollbacks_total", self.rollbacks);
        tel.set_counter("continual_shadow_ft_epochs_total", self.ft_epochs);
        tel.set_counter("continual_rounds_total", self.rounds);
        tel.set_gauge("continual_generation", self.generation as f64);
        tel.set_gauge("continual_recent_window_mae", live_mae);
        tel.set_gauge("continual_shadow_mae", shadow_mae);
        if let Some(training) = self.training_mae {
            tel.set_gauge("continual_training_mae", training);
            tel.set_gauge("continual_drift_mae", live_mae - training);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EnvBlocks, ModelConfig};
    use deepsd_features::{FeatureConfig, FeatureExtractor};
    use deepsd_simdata::{SimConfig, SimDataset};

    fn setup(seed: u64) -> (SimDataset, FeatureConfig) {
        let ds = SimDataset::generate(&SimConfig::smoke(seed));
        let fcfg = FeatureConfig {
            window_l: 8,
            history_window: 3,
            train_stride: 60,
            ..FeatureConfig::default()
        };
        (ds, fcfg)
    }

    fn model_for(ds: &SimDataset, fcfg: &FeatureConfig) -> DeepSD {
        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        mcfg.env = EnvBlocks::None;
        DeepSD::new(mcfg)
    }

    fn stream(ds: &SimDataset, days: std::ops::Range<u16>, cap: usize) -> Vec<Order> {
        let mut orders: Vec<Order> = (0..ds.n_areas() as u16)
            .flat_map(|a| ds.orders(a).iter().copied())
            .filter(|o| days.contains(&o.day))
            .collect();
        orders.sort_by_key(|o| (o.day, o.ts, o.loc_start, o.pid));
        orders.truncate(cap);
        orders
    }

    fn trainer_with<'a>(
        ds: &'a SimDataset,
        fcfg: &FeatureConfig,
        cfg: ContinualConfig,
    ) -> (ShadowTrainer<FeatureExtractor<'a>>, Handoff) {
        let fx = FeatureExtractor::new(ds, fcfg.clone());
        let handoff = Handoff::new();
        let shadow = model_for(ds, fcfg);
        let trainer = ShadowTrainer::new(shadow, fx, cfg, handoff.clone());
        (trainer, handoff)
    }

    #[test]
    fn handoff_keeps_latest_unclaimed_promotion() {
        let h = Handoff::new();
        assert!(h.take().is_none());
        let mut mcfg = ModelConfig::basic(2);
        mcfg.env = EnvBlocks::None;
        let snap = DeepSD::new(mcfg).snapshot();
        h.offer(PromotedModel {
            snapshot: snap.clone(),
            generation: 1,
        });
        h.offer(PromotedModel {
            snapshot: snap,
            generation: 2,
        });
        let taken = h.take().map(|p| p.generation);
        assert_eq!(taken, Some(2));
        assert!(h.take().is_none(), "take drains the slot");
    }

    #[test]
    fn ticks_align_up_and_respect_window_bounds() {
        let o = |ts: u16| Order {
            day: 3,
            ts,
            pid: 1,
            loc_start: 0,
            loc_dest: 0,
            valid: true,
        };
        // 123 → next 10-minute boundary 130.
        assert_eq!(
            ShadowTrainer::<FeatureExtractor>::tick_of(&o(123), 8),
            Some((3, 130))
        );
        // A tick below L would cross midnight.
        assert_eq!(ShadowTrainer::<FeatureExtractor>::tick_of(&o(2), 60), None);
        // End-of-day ticks whose slot would run past midnight are skipped.
        assert_eq!(
            ShadowTrainer::<FeatureExtractor>::tick_of(&o(1439), 8),
            None
        );
    }

    #[test]
    fn rounds_trigger_by_order_count_and_are_batch_invariant() {
        let (ds, fcfg) = setup(31);
        let cfg = ContinualConfig {
            window_ticks: 6,
            cadence: 200,
            epochs: 1,
            ..ContinualConfig::default()
        };
        let orders = stream(&ds, 10..12, 1000);
        assert!(orders.len() > 400, "need enough stream: {}", orders.len());

        let (mut one, _) = trainer_with(&ds, &fcfg, cfg.clone());
        one.ingest(&orders);

        // Same stream in tiny batches: identical rounds and events.
        let (mut many, _) = trainer_with(&ds, &fcfg, cfg);
        for chunk in orders.chunks(7) {
            many.ingest(chunk);
        }
        assert!(one.rounds() >= 2, "rounds: {}", one.rounds());
        assert_eq!(one.rounds(), many.rounds());
        let a: Vec<String> = one.events().iter().map(ContinualEvent::render).collect();
        let b: Vec<String> = many.events().iter().map(ContinualEvent::render).collect();
        assert_eq!(a, b, "event log must not depend on batch boundaries");
    }

    #[test]
    fn promotion_updates_generation_and_offers_snapshot() {
        let (ds, fcfg) = setup(32);
        let cfg = ContinualConfig {
            window_ticks: 6,
            cadence: 150,
            epochs: 1,
            // A margin of -1 promotes any finite fine-tune result:
            // forces the promotion path without depending on training
            // actually helping on this tiny stream.
            margin: -1.0,
            ..ContinualConfig::default()
        };
        let (mut trainer, handoff) = trainer_with(&ds, &fcfg, cfg);
        let events = trainer.ingest(&stream(&ds, 10..12, 600));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ContinualEvent::Promoted { .. })),
            "{events:?}"
        );
        assert!(trainer.generation() >= 1);
        let promoted = handoff.take();
        assert_eq!(
            promoted.map(|p| p.generation),
            Some(trainer.generation()),
            "handoff must carry the latest promotion"
        );
    }

    #[test]
    fn impossible_margin_always_rolls_back() {
        let (ds, fcfg) = setup(33);
        let cfg = ContinualConfig {
            window_ticks: 6,
            cadence: 150,
            epochs: 1,
            // No finite MAE can beat live by 200%.
            margin: 2.0,
            ..ContinualConfig::default()
        };
        let (mut trainer, handoff) = trainer_with(&ds, &fcfg, cfg);
        let events = trainer.ingest(&stream(&ds, 10..12, 600));
        assert!(!events.is_empty(), "expected at least one round");
        assert!(
            events
                .iter()
                .all(|e| matches!(e, ContinualEvent::RolledBack { .. })),
            "{events:?}"
        );
        assert_eq!(trainer.generation(), 0);
        assert!(handoff.take().is_none(), "no promotion may be offered");

        // Rollback restores live weights exactly (bit-identical params).
        let restored = format!("{:?}", trainer.shadow().snapshot());
        let live = format!("{:?}", trainer.live);
        assert_eq!(restored, live, "rollback must restore live weights");
    }

    #[test]
    fn event_render_is_bit_exact() {
        let e = ContinualEvent::Promoted {
            round: 3,
            generation: 2,
            shadow_mae: 1.25,
            live_mae: 2.5,
        };
        assert_eq!(
            e.render(),
            format!(
                "promoted round 3 gen 2 shadow {:016x} live {:016x}",
                1.25f64.to_bits(),
                2.5f64.to_bits()
            )
        );
    }
}
