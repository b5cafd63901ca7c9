//! Training loop (§VI-B/§VI-C): mini-batch Adam, dropout, per-epoch
//! evaluation and best-K snapshot averaging.

use crate::metrics::{evaluate, Evaluation};
use crate::model::{BlockMask, DeepSD, Ensemble, Predictor};
use crate::telemetry::{EpochEvent, Telemetry};
use deepsd_features::{Batch, Item, ItemKey, ItemSource};
use deepsd_nn::{seeded_rng, Adam, GradMap, Matrix, ShardPool, Snapshot, Tape};
use std::rc::Rc;

/// Items per epoch block: the unit whose order is shuffled each epoch by
/// the streaming epoch iterator (DESIGN.md §4.8).
pub const EPOCH_BLOCK_ITEMS: usize = 256;

/// Blocks per shuffle window: items are fully shuffled within a window
/// of this many consecutive (post-shuffle) blocks. The window is the
/// only item set that must be resident when streaming —
/// `8 × 256 = 2048` items, a few MB at `L = 8`.
pub const SHUFFLE_WINDOW_BLOCKS: usize = 8;

/// Mini-batch size (paper §VI-B: 64). Training minimises the mean
/// squared error of each batch, which pairs with the paper's RMSE metric.
pub const BATCH_SIZE: usize = 64;

/// Training options. Defaults follow §VI-B/§VI-C of the paper (Adam on
/// squared error in mini-batches of [`BATCH_SIZE`], dropout handled by
/// the model, final model averaged over the best 10 epochs).
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Number of passes over the training keys.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of best epochs whose parameters are averaged into the
    /// final model (paper: 10). `1` keeps the single best epoch.
    pub best_k: usize,
    /// Global gradient max-abs clip (stabilises the heavy-tailed
    /// targets); `None` disables clipping.
    pub grad_clip: Option<f32>,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (1.0 = constant rate).
    pub lr_decay: f32,
    /// Shuffling / dropout seed.
    pub seed: u64,
    /// How many times a diverged run (non-finite batch loss or
    /// evaluation) may roll back to the last good snapshot with a
    /// halved learning rate before training stops early.
    pub max_divergence_recoveries: usize,
    /// Worker threads for the training shard pool and batch-level
    /// prediction (`0` = auto-detect); each GEMM runs on the thread
    /// that calls it. Results are bit-identical at any setting; this
    /// only trades latency for CPU.
    pub threads: usize,
    /// Approximate cap, in MiB, on trainer-resident extracted feature
    /// items (`0` = unbounded). When the whole-epoch item cache would
    /// exceed the cap, items are instead re-extracted one shuffle
    /// window at a time each epoch — batches and results are
    /// bit-identical either way, only memory and extraction time
    /// change.
    pub max_resident_mb: usize,
    /// Metrics sink for per-epoch events and shard/step timings
    /// (`None` disables telemetry; never serialised).
    pub telemetry: Option<Telemetry>,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            epochs: 12,
            learning_rate: 7e-4,
            best_k: 10,
            grad_clip: Some(10.0),
            lr_decay: 0.92,
            seed: 99,
            max_divergence_recoveries: 4,
            threads: 0,
            max_resident_mb: 0,
            telemetry: None,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Evaluation MAE after the epoch.
    pub eval_mae: f64,
    /// Evaluation RMSE after the epoch.
    pub eval_rmse: f64,
    /// Wall-clock seconds spent in the epoch (training only).
    pub seconds: f64,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Statistics per epoch, in order.
    pub epochs: Vec<EpochStats>,
    /// Final evaluation of the averaged model.
    pub final_mae: f64,
    /// Final RMSE of the averaged model.
    pub final_rmse: f64,
    /// How many times training diverged and was rolled back to the last
    /// good snapshot (0 for a healthy run).
    pub divergence_recoveries: usize,
}

impl TrainReport {
    /// Mean epoch duration in seconds.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.seconds).sum::<f64>() / self.epochs.len() as f64
    }
}

/// Trains `model` in place and returns only the report; the model is
/// left at the single best epoch's parameters. See [`train_ensemble`]
/// for the paper's best-K model averaging.
pub fn train<X: ItemSource>(
    model: &mut DeepSD,
    extractor: &mut X,
    train_keys: &[ItemKey],
    eval_items: &[Item],
    options: &TrainOptions,
) -> TrainReport {
    let (_, report) = train_ensemble(model, extractor, train_keys, eval_items, options);
    report
}

/// Trains `model` on `train_keys` and evaluates after each epoch on
/// pre-extracted `eval_items`.
///
/// Features come from any [`ItemSource`] — a
/// [`deepsd_features::StreamingExtractor`] over an in-memory dataset, a
/// chunked container or a generator. When the extracted items fit
/// [`TrainOptions::max_resident_mb`] they are extracted once and cached
/// for every epoch; otherwise each epoch re-extracts one shuffle window
/// at a time, so trainer-resident feature memory stays bounded by
/// `SHUFFLE_WINDOW_BLOCKS × EPOCH_BLOCK_ITEMS` items. Both modes draw
/// the same RNG sequence and build the same batches, so they are
/// bit-identical.
///
/// After the last epoch, the `best_k` epochs with the lowest evaluation
/// RMSE form a prediction-averaging [`Ensemble`] — the paper's "final
/// model is the average of the models in the best 10 epochs" (§VI-C).
/// The returned report's final metrics are the ensemble's; `model` is
/// left restored to the single best epoch.
///
/// Training is guarded against divergence: a non-finite batch loss or
/// evaluation rolls the model back to the last good snapshot and
/// restarts the optimiser at half the learning rate, up to
/// [`TrainOptions::max_divergence_recoveries`] times. If every epoch
/// diverges the last good parameters are returned instead of NaN
/// weights.
pub fn train_ensemble<X: ItemSource>(
    model: &mut DeepSD,
    extractor: &mut X,
    train_keys: &[ItemKey],
    eval_items: &[Item],
    options: &TrainOptions,
) -> (Ensemble, TrainReport) {
    assert!(!train_keys.is_empty(), "no training keys");
    assert!(!eval_items.is_empty(), "no evaluation items");
    assert!(options.epochs > 0, "degenerate options");

    deepsd_nn::set_num_threads(options.threads);

    let mut adam = Adam::new(options.learning_rate, 0.9, 0.999, 1e-8);
    let mut rng = seeded_rng(options.seed);
    // Block-shuffled epoch iterator (DESIGN.md §4.8): keys split into
    // fixed EPOCH_BLOCK_ITEMS-sized blocks; each epoch shuffles the
    // block order, then fully shuffles items within each consecutive
    // window of SHUFFLE_WINDOW_BLOCKS blocks. All RNG draws depend only
    // on `train_keys.len()` — never on the worker count or the caching
    // mode — so training is bit-identical at any thread count and any
    // `max_resident_mb`. This is a deliberate RNG-stream change from
    // the old whole-cache `Vec::shuffle`: the window shuffle permutes
    // within a bounded horizon, so same-seed runs of older releases
    // produce different (equally valid) batch orders.
    let n_items = train_keys.len();
    let n_blocks = n_items.div_ceil(EPOCH_BLOCK_ITEMS);

    // An item depends only on its key, so when the whole epoch cache
    // fits the memory budget it is extracted exactly once up front
    // (`max_resident_mb == 0` means unbounded). Otherwise `cached`
    // stays empty and each epoch re-extracts one window at a time.
    let cache_all = options.max_resident_mb == 0 || {
        let budget = options.max_resident_mb.saturating_mul(1024 * 1024);
        let per_item = approx_item_bytes(&extractor.extract(train_keys[0]));
        per_item.saturating_mul(n_items) <= budget
    };
    let cached: Vec<Item> = if cache_all {
        extractor.extract_all(train_keys)
    } else {
        Vec::new()
    };
    let mut epochs = Vec::with_capacity(options.epochs);
    let mut snapshots: Vec<(f64, Rc<Snapshot>)> = Vec::new();

    // Data-parallel shard engine (DESIGN.md §4.3). Each batch is split
    // into fixed-size shards processed by persistent workers; shard
    // gradients are reduced into `grads` in shard order, so the update
    // is bit-identical at any worker count. Tapes, backward scratch and
    // per-shard gradient maps are owned by the pool and reused across
    // every batch of every epoch.
    let mut pool = ShardPool::new(options.threads);
    let mut grads = GradMap::default();

    // Telemetry sink for epoch events and shard/step timings.
    let telemetry = options.telemetry.as_ref();

    // Divergence guard: the parameters we can safely fall back to when a
    // batch loss or evaluation turns non-finite.
    let mut last_good = Rc::new(model.snapshot());
    let mut recoveries = 0usize;

    for epoch in 0..options.epochs {
        let started = std::time::Instant::now();
        let mut block_order: Vec<u32> = (0..n_blocks as u32).collect();
        rng.shuffle(&mut block_order);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        let mut diverged = false;
        let mut t_run = 0.0f64;
        let mut t_step = 0.0f64;
        'windows: for window in block_order.chunks(SHUFFLE_WINDOW_BLOCKS) {
            // Global item indices covered by this window, in shuffled
            // block order, then a full within-window shuffle. Both draw
            // sequences depend only on the item count.
            let window_global: Vec<usize> = window
                .iter()
                .flat_map(|&b| {
                    let start = b as usize * EPOCH_BLOCK_ITEMS;
                    start..(start + EPOCH_BLOCK_ITEMS).min(n_items)
                })
                .collect();
            let mut locals: Vec<usize> = (0..window_global.len()).collect();
            rng.shuffle(&mut locals);
            // Streaming mode: only this window's items are resident.
            // The same keys are extracted every epoch, so re-extraction
            // yields the same items the cache would have served.
            let window_items: Vec<Item> = if cache_all {
                Vec::new()
            } else {
                window_global
                    .iter()
                    .map(|&g| extractor.extract(train_keys[g]))
                    .collect()
            };
            for batch_locals in locals.chunks(BATCH_SIZE) {
                let chunk: Vec<&Item> = batch_locals
                    .iter()
                    .map(|&p| {
                        if cache_all {
                            &cached[window_global[p]]
                        } else {
                            &window_items[p]
                        }
                    })
                    .collect();
                // Pre-split the dropout RNG: one seed per shard, drawn
                // from the batch RNG in shard order before dispatch. The
                // seed sequence depends only on the batch partition,
                // never on which worker runs a shard, preserving
                // bit-identity across worker counts.
                let shards = ShardPool::num_shards(chunk.len());
                let seeds: Vec<u64> = (0..shards).map(|_| rng.next_u64()).collect();
                let model_ref = &*model;
                let t0 = std::time::Instant::now();
                let shard_losses = pool.run(chunk.len(), &mut grads, |job| {
                    let batch = Batch::from_refs(&chunk[job.range.clone()]);
                    let targets = Matrix::col_vector(batch.targets.clone());
                    let mut shard_rng = seeded_rng(seeds[job.shard]);
                    let pred = model_ref.forward(job.tape, &batch, Some(&mut shard_rng));
                    let loss = job.tape.mse_loss(pred, &targets);
                    // Scale each shard's mean loss by its share of the
                    // batch so the summed shard losses (and therefore
                    // the reduced gradients) equal the whole-batch mean
                    // loss.
                    let factor = job.range.len() as f32 / chunk.len() as f32;
                    let scaled = if job.range.len() == chunk.len() {
                        loss
                    } else {
                        job.tape.scale(loss, factor)
                    };
                    job.tape.backward_into(scaled, job.scratch, job.grads);
                    job.tape.value(scaled).get(0, 0) as f64
                });
                t_run += t0.elapsed().as_secs_f64();
                let loss_value: f64 = shard_losses.iter().sum();
                if !loss_value.is_finite() {
                    diverged = true;
                    break 'windows;
                }
                loss_sum += loss_value;
                batches += 1;
                if let Some(clip) = options.grad_clip {
                    grads.clip_max_abs(clip);
                }
                let t1 = std::time::Instant::now();
                adam.step(model.store_mut(), &grads);
                t_step += t1.elapsed().as_secs_f64();
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        let lr_used = adam.lr as f64;
        if let Some(tel) = telemetry {
            tel.set_gauge("time_epoch_seconds", seconds);
            tel.set_gauge("time_epoch_shard_run_seconds", t_run);
            tel.set_gauge("time_epoch_step_seconds", t_step);
            tel.observe("time_epoch_seconds_hist", seconds);
        }

        if !diverged {
            adam.lr *= options.lr_decay;
            let eval = evaluate_model(model, eval_items, BATCH_SIZE);
            if eval.rmse.is_finite() && eval.mae.is_finite() {
                // Rank snapshots by RMSE: it matches the MSE training
                // objective and is the metric where tail behaviour shows.
                // One parameter copy per good epoch, shared between the
                // ranking list and the divergence guard.
                let snap = Rc::new(model.snapshot());
                snapshots.push((eval.rmse, Rc::clone(&snap)));
                let train_loss = loss_sum / batches.max(1) as f64;
                if let Some(tel) = telemetry {
                    tel.record_epoch(EpochEvent {
                        epoch,
                        train_loss,
                        eval_mae: eval.mae,
                        eval_rmse: eval.rmse,
                        learning_rate: lr_used,
                        divergence_recoveries: recoveries as u64,
                        time_seconds: seconds,
                    });
                }
                epochs.push(EpochStats {
                    epoch,
                    train_loss,
                    eval_mae: eval.mae,
                    eval_rmse: eval.rmse,
                    seconds,
                });
                last_good = snap;
                continue;
            }
            // Finite batch losses but non-finite evaluation: the final
            // steps of the epoch still blew the parameters up.
            diverged = true;
        }
        debug_assert!(diverged);

        // Roll back to the last good snapshot and retry at half the
        // learning rate with fresh optimiser moments (the old moments
        // were computed from the diverging trajectory).
        model.restore(&last_good);
        recoveries += 1;
        if let Some(tel) = telemetry {
            tel.inc_counter("train_divergence_rollbacks_total");
        }
        if recoveries > options.max_divergence_recoveries {
            break;
        }
        adam = Adam::new(adam.lr * 0.5, 0.9, 0.999, 1e-8);
    }

    if let Some(tel) = telemetry {
        let pool_stats = pool.stats();
        tel.set_counter("train_shard_pool_runs_total", pool_stats.runs);
        tel.set_counter("train_shard_pool_shards_total", pool_stats.shards);
        tel.set_gauge("time_shard_pool_busy_seconds", pool_stats.busy_seconds);
        // Data-plane I/O (zeros for in-memory sources) and the process
        // peak RSS. The counters are deterministic for a given source
        // and budget; peak RSS is wall-clock-class and stays in the
        // `time_` namespace.
        let io = extractor.io_stats();
        tel.set_counter("data_chunks_read_total", io.chunks_read);
        tel.set_counter("data_bytes_read_total", io.bytes_read);
        tel.set_gauge("time_peak_rss_mb", crate::telemetry::peak_rss_mb());
    }

    if snapshots.is_empty() {
        // Every epoch diverged: serve the last good parameters rather
        // than panicking or returning NaN weights.
        model.restore(&last_good);
        let ensemble = Ensemble::new(vec![model.clone()]);
        let final_eval = evaluate_model(&ensemble, eval_items, BATCH_SIZE);
        return (
            ensemble,
            TrainReport {
                epochs,
                final_mae: final_eval.mae,
                final_rmse: final_eval.rmse,
                divergence_recoveries: recoveries,
            },
        );
    }

    // Best-K model averaging: ensemble over the best epochs' snapshots.
    snapshots.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = options.best_k.max(1).min(snapshots.len());
    let members: Vec<DeepSD> = snapshots
        .iter()
        .take(k)
        .map(|(_, snap)| {
            let mut member = model.clone();
            member.restore(snap);
            member
        })
        .collect();
    model.restore(&snapshots[0].1);
    let ensemble = Ensemble::new(members);

    let final_eval = evaluate_model(&ensemble, eval_items, BATCH_SIZE);
    (
        ensemble,
        TrainReport {
            epochs,
            final_mae: final_eval.mae,
            final_rmse: final_eval.rmse,
            divergence_recoveries: recoveries,
        },
    )
}

/// Rough resident size of one extracted item, for deciding whether the
/// whole epoch cache fits [`TrainOptions::max_resident_mb`].
fn approx_item_bytes(item: &Item) -> usize {
    let floats = item.v_sd.len()
        + item.v_lc.len()
        + item.v_wt.len()
        + item.h_sd.len()
        + item.h_sd_next.len()
        + item.h_lc.len()
        + item.h_lc_next.len()
        + item.h_wt.len()
        + item.h_wt_next.len()
        + item.weather_scalars.len()
        + item.traffic.len();
    std::mem::size_of::<Item>()
        + floats * std::mem::size_of::<f32>()
        + item.weather_types.len() * std::mem::size_of::<usize>()
}

/// Worker-thread count for batch-level parallelism, honouring the global
/// worker setting (`deepsd_nn::set_num_threads`; `0` = auto-detect).
fn worker_threads(jobs: usize) -> usize {
    deepsd_nn::resolve_threads(deepsd_nn::num_threads()).clamp(1, jobs.max(1))
}

/// Evaluates a predictor on pre-extracted items, batching for throughput
/// and scoring batches on the configured worker threads (results are
/// identical to the sequential path).
pub fn evaluate_model<P: Predictor + Sync>(
    model: &P,
    items: &[Item],
    batch_size: usize,
) -> Evaluation {
    assert!(!items.is_empty(), "evaluation needs items");
    let preds = predict_items(model, items, batch_size);
    let truths: Vec<f32> = items.iter().map(|i| i.gap).collect();
    evaluate(&preds, &truths)
}

/// Predicts gaps for pre-extracted items in batches of `batch_size`,
/// scored on the configured worker threads. Each batch is scored
/// independently and lands in its own slot, so the result is identical
/// to the sequential loop at any thread count. (A served slot is scored
/// on its predictor's shard pool instead.)
pub fn predict_items<P: Predictor + Sync>(
    model: &P,
    items: &[Item],
    batch_size: usize,
) -> Vec<f32> {
    let chunks: Vec<&[Item]> = items.chunks(batch_size.max(1)).collect();
    let mask = BlockMask::all();
    let mut outputs: Vec<Vec<f32>> = vec![Vec::new(); chunks.len()];
    let threads = worker_threads(chunks.len());
    if threads <= 1 {
        let mut tape = Tape::new();
        for (out, chunk) in outputs.iter_mut().zip(&chunks) {
            *out = model.predict_masked_with(&mut tape, &Batch::from_items(chunk), &mask);
        }
        return outputs.concat();
    }
    let work: Vec<(&[Item], &mut Vec<f32>)> = chunks.into_iter().zip(outputs.iter_mut()).collect();
    let mask = &mask;
    std::thread::scope(|scope| {
        let per_thread = work.len().div_ceil(threads);
        let mut rest = work;
        while !rest.is_empty() {
            let take = per_thread.min(rest.len());
            let batch: Vec<_> = rest.drain(..take).collect();
            scope.spawn(move || {
                // One tape per worker, reused across its chunks.
                let mut tape = Tape::new();
                for (chunk, out) in batch {
                    *out = model.predict_masked_with(&mut tape, &Batch::from_items(chunk), mask);
                }
            });
        }
    });
    outputs.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EnvBlocks, ModelConfig};
    use deepsd_features::{test_keys, train_keys, FeatureConfig, FeatureExtractor};
    use deepsd_simdata::{SimConfig, SimDataset};

    fn tiny_setup() -> (SimDataset, FeatureConfig) {
        let ds = SimDataset::generate(&SimConfig::smoke(51));
        let fcfg = FeatureConfig {
            window_l: 8,
            history_window: 3,
            train_stride: 60,
            ..FeatureConfig::default()
        };
        (ds, fcfg)
    }

    #[test]
    fn training_improves_over_initialisation() {
        let (ds, fcfg) = tiny_setup();
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let tr_keys = train_keys(ds.n_areas() as u16, 7..12, &fcfg);
        let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
        let eval_items = fx.extract_all(&te_keys);

        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        mcfg.env = EnvBlocks::None;
        let mut model = DeepSD::new(mcfg);

        let before = evaluate_model(&model, &eval_items, 64);
        let report = train(
            &mut model,
            &mut fx,
            &tr_keys,
            &eval_items,
            &TrainOptions {
                epochs: 3,
                best_k: 2,
                ..TrainOptions::default()
            },
        );
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(
            report.divergence_recoveries, 0,
            "healthy run must not roll back"
        );
        assert!(
            report.final_mae < before.mae,
            "training must beat init: {} vs {}",
            report.final_mae,
            before.mae
        );
    }

    #[test]
    fn diverged_training_rolls_back_and_stays_finite() {
        let (ds, fcfg) = tiny_setup();
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let tr_keys = train_keys(ds.n_areas() as u16, 7..12, &fcfg);
        let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
        let eval_items = fx.extract_all(&te_keys);

        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        mcfg.env = EnvBlocks::None;
        let mut model = DeepSD::new(mcfg);
        let init_snapshot = model.snapshot();

        // An absurd learning rate with clipping disabled blows the
        // parameters up immediately; the guard must roll back instead
        // of emitting NaN weights or panicking in the snapshot sort.
        let report = train(
            &mut model,
            &mut fx,
            &tr_keys,
            &eval_items,
            &TrainOptions {
                epochs: 4,
                learning_rate: 1e12,
                grad_clip: None,
                max_divergence_recoveries: 2,
                ..TrainOptions::default()
            },
        );
        assert!(
            report.divergence_recoveries >= 1,
            "run at lr=1e12 must diverge"
        );
        assert!(report.final_mae.is_finite() && report.final_rmse.is_finite());
        let preds = predict_items(&model, &eval_items, 64);
        assert!(
            preds.iter().all(|p| p.is_finite()),
            "returned model must be usable"
        );
        // If every epoch diverged, the model is exactly the last good
        // (here: initial) parameters.
        if report.epochs.is_empty() {
            let mut reference = model.clone();
            reference.restore(&init_snapshot);
            let a = predict_items(&reference, &eval_items, 64);
            assert_eq!(
                a, preds,
                "all-diverged run must fall back to last good snapshot"
            );
        }
    }

    #[test]
    fn training_is_deterministic_across_thread_counts() {
        let (ds, fcfg) = tiny_setup();
        let run = |threads: usize| {
            let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
            let tr_keys = train_keys(ds.n_areas() as u16, 7..12, &fcfg);
            let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
            let eval_items = fx.extract_all(&te_keys);
            let mut mcfg = ModelConfig::basic(ds.n_areas());
            mcfg.window_l = fcfg.window_l;
            mcfg.env = EnvBlocks::None;
            let mut model = DeepSD::new(mcfg);
            let report = train(
                &mut model,
                &mut fx,
                &tr_keys,
                &eval_items,
                &TrainOptions {
                    epochs: 2,
                    best_k: 1,
                    threads,
                    ..TrainOptions::default()
                },
            );
            (model, report)
        };
        let (m1, r1) = run(1);
        let (m2, r2) = run(2);
        let (m8, r8) = run(8);
        deepsd_nn::set_num_threads(0);
        for ((other, report), label) in [(&(m2, r2), "2"), (&(m8, r8), "8")] {
            assert_eq!(
                r1.final_rmse, report.final_rmse,
                "{label} threads: RMSE drifted"
            );
            assert_eq!(r1.epochs.len(), report.epochs.len());
            for (e1, e2) in r1.epochs.iter().zip(report.epochs.iter()) {
                // The per-epoch trace — not just the end state — must be
                // bit-identical across shard-worker counts.
                assert_eq!(
                    e1.eval_mae, e2.eval_mae,
                    "{label} threads: epoch MAE drifted"
                );
                assert_eq!(
                    e1.eval_rmse, e2.eval_rmse,
                    "{label} threads: epoch RMSE drifted"
                );
                assert_eq!(
                    e1.train_loss, e2.train_loss,
                    "{label} threads: train loss drifted"
                );
            }
            for ((_, name, v1), (_, _, v2)) in m1.store().iter().zip(other.store().iter()) {
                assert!(
                    v1.max_abs_diff(v2) == 0.0,
                    "final weights differ at {label} threads: {name}"
                );
            }
        }
    }

    #[test]
    fn streamed_bounded_training_is_bit_identical() {
        use deepsd_features::StreamingExtractor;
        use deepsd_simdata::StreamGenerator;

        let config = SimConfig::smoke(51);
        let (ds, fcfg) = tiny_setup();
        let tr_keys = train_keys(ds.n_areas() as u16, 7..12, &fcfg);
        let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let eval_items = fx.extract_all(&te_keys);

        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        mcfg.env = EnvBlocks::None;
        let opts = TrainOptions {
            epochs: 2,
            best_k: 1,
            ..TrainOptions::default()
        };

        // Reference: whole-dataset extractor, unbounded epoch cache.
        let mut m_ref = DeepSD::new(mcfg.clone());
        let r_ref = train(&mut m_ref, &mut fx, &tr_keys, &eval_items, &opts);

        // Streamed: chunked generator behind a bounded-window extractor,
        // with a trainer budget small enough to force per-window
        // re-extraction every epoch instead of the whole-epoch cache.
        let mut sx = StreamingExtractor::new(StreamGenerator::new(&config), fcfg.clone())
            .with_max_resident_mb(1);
        let mut m_str = DeepSD::new(mcfg);
        let r_str = train(
            &mut m_str,
            &mut sx,
            &tr_keys,
            &eval_items,
            &TrainOptions {
                max_resident_mb: 1,
                ..opts
            },
        );

        assert_eq!(r_ref.epochs.len(), r_str.epochs.len());
        for (a, b) in r_ref.epochs.iter().zip(r_str.epochs.iter()) {
            // Bitwise trace equality, not approximate: the streamed
            // iterator must build the exact same batches.
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.eval_mae.to_bits(), b.eval_mae.to_bits());
            assert_eq!(a.eval_rmse.to_bits(), b.eval_rmse.to_bits());
        }
        assert_eq!(r_ref.final_rmse.to_bits(), r_str.final_rmse.to_bits());
        for ((_, name, v1), (_, _, v2)) in m_ref.store().iter().zip(m_str.store().iter()) {
            assert!(
                v1.max_abs_diff(v2) == 0.0,
                "streamed weights differ: {name}"
            );
        }
    }

    #[test]
    fn evaluate_model_matches_manual_metrics() {
        let (ds, fcfg) = tiny_setup();
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
        let items = fx.extract_all(&te_keys);
        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        let model = DeepSD::new(mcfg);
        let eval = evaluate_model(&model, &items, 32);
        let preds = predict_items(&model, &items, 32);
        let truths: Vec<f32> = items.iter().map(|i| i.gap).collect();
        let manual = evaluate(&preds, &truths);
        assert!((eval.mae - manual.mae).abs() < 1e-9);
        assert!((eval.rmse - manual.rmse).abs() < 1e-9);
        assert_eq!(eval.n, items.len());
    }

    #[test]
    #[should_panic(expected = "no training keys")]
    fn train_rejects_empty_keys() {
        let (ds, fcfg) = tiny_setup();
        let mut fx = FeatureExtractor::new(&ds, fcfg.clone());
        let te_keys = test_keys(ds.n_areas() as u16, 12..14, &fcfg);
        let eval_items = fx.extract_all(&te_keys);
        let mut mcfg = ModelConfig::basic(ds.n_areas());
        mcfg.window_l = fcfg.window_l;
        let mut model = DeepSD::new(mcfg);
        let _ = train(
            &mut model,
            &mut fx,
            &[],
            &eval_items,
            &TrainOptions::default(),
        );
    }

    #[test]
    fn report_helpers() {
        let report = TrainReport {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 5.0,
                    eval_mae: 2.0,
                    eval_rmse: 4.0,
                    seconds: 1.0,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 3.0,
                    eval_mae: 1.5,
                    eval_rmse: 3.0,
                    seconds: 3.0,
                },
            ],
            final_mae: 1.4,
            final_rmse: 2.9,
            divergence_recoveries: 0,
        };
        assert!((report.mean_epoch_seconds() - 2.0).abs() < 1e-12);
    }
}
