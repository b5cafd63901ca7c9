//! CLI subcommand implementations.

use crate::args::{ArgError, Args};
use deepsd::trainer::{evaluate_model, train};
use deepsd::{
    load_checkpoint, save_checkpoint, DeepSD, EnvBlocks, ModelConfig, OnlinePredictor, Telemetry,
    TrainOptions, Variant,
};
use deepsd_baselines::EmpiricalAverage;
use deepsd_features::{
    test_keys, train_keys, FeatureConfig, FeedHealth, FeedKind, IngestPolicy, ItemKey, ItemSource,
    StreamingExtractor,
};
use deepsd_serve::{ServeConfig, Server};
use deepsd_simdata::{
    AreaSource, ChunkReader, ChunkWriter, CityConfig, FaultPlan, Order, OrderGenConfig, SimConfig,
    StreamGenerator,
};
use std::fs;

/// Top-level error type for commands.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Data-dependent validation failure at run time (the flags were well
/// formed; the data disagreed). Unlike [`ArgError`] it exits 1 without
/// the usage text.
#[derive(Debug)]
pub struct RunError(pub String);

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RunError {}

/// Usage text.
pub const USAGE: &str = "\
deepsd-cli — DeepSD (ICDE 2017) supply-demand gap prediction

USAGE:
  deepsd-cli simulate --out data.dsd [--areas 16] [--days 38] [--seed 7]
                      [--volume 1.0] [--slack 1.0]
                      [--shift-day N] [--shift-demand 1.6] [--shift-supply 0.6]
  deepsd-cli inspect  --data data.dsd
  deepsd-cli train    --data data.dsd --out model.ckpt
                      [--variant basic|advanced] [--env none|weather|full]
                      [--train-days 7..24] [--eval-days 24..38]
                      [--epochs 10] [--window 20] [--dropout 0.3]
                      [--lr 0.001] [--best-k 4] [--threads 0]
                      [--max-resident-mb 0] [--metrics-out metrics.json]
  deepsd-cli evaluate --data data.dsd --model model.ckpt [--test-days 24..38]
                      [--threads 0] [--metrics-out metrics.json]
  deepsd-cli predict  --data data.dsd --model model.ckpt --day 30 --t 480
                      [--area 3] [--threads 0]
                      [--max-resident-mb 0] [--metrics-out metrics.json]
                      [--ingest-policy reject|drop-late|reorder:<minutes>]
                      [--fault-shuffle 5] [--fault-drop 0.1] [--fault-dup 0.1]
                      [--fault-seed 7]
                      [--blackout-weather 400..600] [--blackout-traffic 0..1439]
  deepsd-cli serve    --data data.dsd --model model.ckpt [--addr 127.0.0.1:8017]
                      [--queue 64] [--deadline-ms 500] [--read-timeout-ms 1000]
                      [--max-batch 64] [--breaker-trip 3] [--breaker-restore 2]
                      [--ingest-policy reject|drop-late|reorder:<minutes>]
                      [--max-resident-mb 0] [--threads 0]
                      [--metrics-out metrics.json]
                      [--continual 1] [--continual-window 36]
                      [--continual-cadence 512] [--continual-margin 0.01]
                      [--continual-epochs 2] [--continual-lr 0.0002]
                      [--shadow-checkpoint shadow.ckpt] [--training-mae M]

`predict` streams the day's orders through the online serving path:
`--ingest-policy` selects how late/duplicate/unknown-area orders are
handled, the `--fault-*` flags inject seeded stream faults for drills,
and `--blackout-*` declares environment-feed outages (minute ranges of
the prediction day). Feed status and ingest counters are printed with
the predictions. `train` writes checksummed binary `DEEPSD-CKPT2`
checkpoints; `evaluate`, `predict` and `serve` verify them on load
(JSON and `DEEPSD-CKPT1` models from earlier versions no longer load).
`simulate` writes the chunked `DEEPSD-DATA2` container, streamed area
by area in bounded memory (whole-blob `DSD1` files from earlier
versions no longer load). Every command reads the container area by
area instead of materialising the dataset; for `train`, `predict` and
`serve`, `--max-resident-mb` caps both the extractor's
per-area state and the trainer's item cache (0 = unbounded), trading
extraction time for flat memory — results are bit-identical at any cap.
`--threads` sets the worker-thread count for the training shard pool
and batch scoring (0 = auto-detect); results are
bit-identical at any thread count. `--metrics-out` writes a telemetry
JSON snapshot (counters, gauges, latency histograms, per-epoch training
events) next to the command's normal output. `serve --continual 1` runs
online continual learning: a background shadow copy of the model
fine-tunes on a sliding window of recently observed orders and is
promoted into serving (between micro-batches, atomically) only when it
beats the live weights by `--continual-margin` on a held-out recent
slice; `--shadow-checkpoint` persists promoted shadows and resumes from
them on restart, and `--training-mae` seeds the drift gauges exposed on
`/metrics`. `simulate --shift-day N` injects a persistent demand/supply
regime shift at day N for drift drills (pre-shift days stay
byte-identical to an unshifted run).
";

/// Applies the shared `--threads N` flag: caps kernel and shard-pool
/// workers (results are bit-identical at any count).
fn apply_perf_flags(args: &Args) -> CmdResult {
    deepsd::set_num_threads(args.get_or("threads", 0usize)?);
    Ok(())
}

/// Writes the telemetry JSON snapshot to `--metrics-out` when the flag
/// is present; a fresh registry is created either way so instrumented
/// paths always have a sink.
fn write_metrics_out(args: &Args, telemetry: &Telemetry) -> CmdResult {
    if let Some(path) = args.get("metrics-out") {
        telemetry.write_json(path)?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// `simulate`: generate a dataset and write it to disk, streamed area by
/// area through a [`ChunkWriter`], so peak memory stays flat no matter
/// how many areas the city has.
pub fn simulate(args: &Args) -> CmdResult {
    args.check_known(&[
        "out",
        "areas",
        "days",
        "seed",
        "volume",
        "slack",
        "shift-day",
        "shift-demand",
        "shift-supply",
    ])?;
    let out = args.require("out")?;
    // `--shift-day N` injects a persistent regime shift (drift drill
    // scenario): demand and supply change levels from day N on while
    // the pre-shift days stay byte-identical to an unshifted run.
    let shift = match args.get("shift-day") {
        None => None,
        Some(_) => Some(deepsd_simdata::RegimeShift {
            day: args.require_parsed("shift-day")?,
            demand_factor: args.get_or("shift-demand", 1.6f64)?,
            supply_factor: args.get_or("shift-supply", 0.6f64)?,
        }),
    };
    let config = SimConfig {
        city: CityConfig {
            n_areas: args.get_or("areas", 16u16)?,
            seed: args.get_or("seed", 7u64)?,
        },
        n_days: args.get_or("days", 38u16)?,
        orders: OrderGenConfig {
            demand_volume: args.get_or("volume", 1.0f64)?,
            supply_slack: args.get_or("slack", 1.0f64)?,
            shift,
        },
        ..SimConfig::smoke(0)
    };
    eprintln!(
        "simulating {} areas x {} days (seed {})…",
        config.city.n_areas, config.n_days, config.city.seed
    );
    let mut gen = StreamGenerator::new(&config);
    let file = std::io::BufWriter::new(fs::File::create(out)?);
    let mut w = ChunkWriter::new(file, gen.city(), config.n_days, gen.weather(), true)?;
    let (mut total, mut invalid) = (0u64, 0u64);
    for area in 0..gen.n_areas() as u16 {
        let block = gen.area_block(area)?;
        total += block.orders.len() as u64;
        invalid += block.orders.iter().filter(|o| !o.valid).count() as u64;
        w.write_area(&block)?;
    }
    w.finish()?;
    println!(
        "wrote {out}: {total} orders ({invalid} unanswered), {:.1} MiB",
        fs::metadata(out)?.len() as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// Opens `--data` as a bounded-memory [`AreaSource`]: the container is
/// read lazily chunk by chunk, checksums verified on every read.
fn open_area_source(
    args: &Args,
) -> Result<ChunkReader<std::io::BufReader<fs::File>>, Box<dyn std::error::Error>> {
    let file = fs::File::open(args.require("data")?)?;
    Ok(ChunkReader::open(std::io::BufReader::new(file))?)
}

/// `inspect`: print a dataset summary, reading one area chunk at a
/// time.
pub fn inspect(args: &Args) -> CmdResult {
    args.check_known(&["data"])?;
    let mut source = open_area_source(args)?;
    let mut per_area = Vec::with_capacity(source.n_areas());
    let mut invalid = 0usize;
    for area in 0..source.n_areas() as u16 {
        let orders = source.read_area(area)?.orders;
        invalid += orders.iter().filter(|o| !o.valid).count();
        per_area.push(orders.len());
    }
    let total: usize = per_area.iter().sum();
    println!("areas: {}", source.n_areas());
    println!("days:  {}", source.n_days());
    println!(
        "orders: {total} ({invalid} unanswered, {:.1}%)",
        100.0 * invalid as f64 / total.max(1) as f64
    );
    println!("\narea  archetype        demand_scale  orders");
    for (area, orders) in source.city().areas.iter().zip(per_area) {
        println!(
            "{:>4}  {:<15} {:>12.2} {:>8}",
            area.id,
            format!("{:?}", area.archetype),
            area.demand_scale,
            orders
        );
    }
    Ok(())
}

fn feature_config(args: &Args) -> Result<FeatureConfig, ArgError> {
    Ok(FeatureConfig {
        window_l: args.get_or("window", 20usize)?,
        history_window: args.get_or("history-window", 6usize)?,
        train_stride: args.get_or("stride", 10usize)?,
        ..FeatureConfig::default()
    })
}

/// `train`: train a model on a dataset and write a JSON checkpoint.
pub fn train_cmd(args: &Args) -> CmdResult {
    args.check_known(&[
        "data",
        "out",
        "variant",
        "env",
        "train-days",
        "eval-days",
        "epochs",
        "window",
        "dropout",
        "lr",
        "best-k",
        "history-window",
        "stride",
        "threads",
        "max-resident-mb",
        "metrics-out",
    ])?;
    apply_perf_flags(args)?;
    let max_resident_mb = args.get_or("max-resident-mb", 0usize)?;
    let source = open_area_source(args)?;
    let n_days = source.n_days();
    let n_areas = source.n_areas();
    let out = args.require("out")?;
    let fcfg = feature_config(args)?;
    let train_days = args.get_range("train-days", 7..(n_days.saturating_sub(14)).max(8))?;
    let eval_days = args.get_range("eval-days", train_days.end..n_days)?;
    if eval_days.end > n_days {
        return Err(Box::new(ArgError(format!(
            "--eval-days ends at {} but the dataset has {} days",
            eval_days.end, n_days
        ))));
    }

    let variant = match args.get("variant").unwrap_or("advanced") {
        "basic" => Variant::Basic,
        "advanced" => Variant::Advanced,
        other => return Err(Box::new(ArgError(format!("unknown variant '{other}'")))),
    };
    let env = match args.get("env").unwrap_or("full") {
        "none" => EnvBlocks::None,
        "weather" => EnvBlocks::Weather,
        "full" => EnvBlocks::WeatherTraffic,
        other => return Err(Box::new(ArgError(format!("unknown env '{other}'")))),
    };

    let mut mcfg = match variant {
        Variant::Basic => ModelConfig::basic(n_areas),
        Variant::Advanced => ModelConfig::advanced(n_areas),
    };
    mcfg.window_l = fcfg.window_l;
    mcfg.env = env;
    mcfg.dropout = args.get_or("dropout", 0.3f32)?;

    // Stream items from the source instead of materialising the whole
    // dataset; the resident budget caps per-area feature state and
    // (through TrainOptions) the trainer's epoch item cache.
    let mut fx =
        StreamingExtractor::new(source, fcfg.clone()).with_max_resident_mb(max_resident_mb);
    let tr = train_keys(n_areas as u16, train_days.clone(), &fcfg);
    let te = test_keys(n_areas as u16, eval_days.clone(), &fcfg);
    let eval_items = fx.extract_all(&te);
    eprintln!(
        "training {variant:?} on {} items (days {train_days:?}), evaluating on {} items",
        tr.len(),
        eval_items.len()
    );

    let mut model = DeepSD::new(mcfg);
    let telemetry = Telemetry::new();
    let opts = TrainOptions {
        epochs: args.get_or("epochs", 10usize)?,
        best_k: args.get_or("best-k", 4usize)?,
        learning_rate: args.get_or("lr", 1e-3f32)?,
        threads: args.get_or("threads", 0usize)?,
        max_resident_mb,
        telemetry: Some(telemetry.clone()),
        ..TrainOptions::default()
    };
    let report = train(&mut model, &mut fx, &tr, &eval_items, &opts);
    for e in &report.epochs {
        eprintln!(
            "epoch {:>2}: loss {:>8.3}  MAE {:.3}  RMSE {:.3} ({:.1}s)",
            e.epoch, e.train_loss, e.eval_mae, e.eval_rmse, e.seconds
        );
    }
    if report.divergence_recoveries > 0 {
        eprintln!(
            "warning: training diverged {} time(s); recovered by rollback + LR halving",
            report.divergence_recoveries
        );
    }
    println!(
        "final: MAE {:.3}, RMSE {:.3}",
        report.final_mae, report.final_rmse
    );
    save_checkpoint(out, &model)?;
    println!(
        "wrote {out} ({} parameters, checksummed)",
        model.num_parameters()
    );
    // Training is offline — ingest counters are legitimately zero and
    // the feed gauges reflect the eval window — but recording both
    // keeps every snapshot section present for downstream dashboards.
    telemetry.record_ingest(&Default::default());
    telemetry.record_feeds(&fx.feed_status(eval_days.start, 0));
    telemetry.set_gauge("train_final_mae", report.final_mae);
    telemetry.set_gauge("train_final_rmse", report.final_rmse);
    write_metrics_out(args, &telemetry)?;
    Ok(())
}

fn load_model(args: &Args) -> Result<DeepSD, Box<dyn std::error::Error>> {
    let path = args.require("model")?;
    Ok(load_checkpoint(path)?)
}

/// `evaluate`: metrics of a checkpoint on a dataset split, with the
/// empirical-average baseline for context.
pub fn evaluate(args: &Args) -> CmdResult {
    args.check_known(&[
        "data",
        "model",
        "test-days",
        "window",
        "history-window",
        "stride",
        "threads",
        "metrics-out",
    ])?;
    apply_perf_flags(args)?;
    let source = open_area_source(args)?;
    let n_days = source.n_days();
    let n_areas = source.n_areas() as u16;
    let model = load_model(args)?;
    let mut fcfg = feature_config(args)?;
    fcfg.window_l = model.config().window_l;
    let test_days = args.get_range("test-days", (n_days.saturating_sub(14)).max(1)..n_days)?;

    let mut fx = StreamingExtractor::new(source, fcfg.clone());
    let te = test_keys(n_areas, test_days.clone(), &fcfg);
    let items = fx.extract_all(&te);
    if items.is_empty() {
        // Reachable with a degenerate --test-days range; a typed error
        // beats the assertion abort inside evaluate_model.
        return Err(Box::new(RunError(format!(
            "--test-days {test_days:?} yields no test items"
        ))));
    }
    let eval = evaluate_model(&model, &items, 256);

    // Context baseline: empirical average fitted on the preceding days.
    let warmup = 0..test_days.start;
    let avg_keys: Vec<ItemKey> = train_keys(n_areas, warmup, &fcfg);
    println!("test items: {} (days {test_days:?})", eval.n);
    println!("model     MAE {:.3}  RMSE {:.3}", eval.mae, eval.rmse);
    if !avg_keys.is_empty() {
        let avg = EmpiricalAverage::fit(&mut fx, &avg_keys);
        let truth: Vec<f32> = items.iter().map(|i| i.gap).collect();
        let avg_eval = deepsd::evaluate(&avg.predict_all(&te), &truth);
        println!(
            "average   MAE {:.3}  RMSE {:.3}",
            avg_eval.mae, avg_eval.rmse
        );
    }
    let telemetry = Telemetry::new();
    telemetry.set_gauge("eval_mae", eval.mae);
    telemetry.set_gauge("eval_rmse", eval.rmse);
    telemetry.set_gauge("eval_items", eval.n as f64);
    write_metrics_out(args, &telemetry)?;
    Ok(())
}

/// `predict`: gap predictions for one timeslot (all areas, or one),
/// served through the online streaming path with optional fault
/// injection and feed blackouts.
pub fn predict(args: &Args) -> CmdResult {
    args.check_known(&[
        "data",
        "model",
        "day",
        "t",
        "area",
        "window",
        "history-window",
        "stride",
        "ingest-policy",
        "fault-shuffle",
        "fault-drop",
        "fault-dup",
        "fault-seed",
        "blackout-weather",
        "blackout-traffic",
        "max-resident-mb",
        "threads",
        "metrics-out",
    ])?;
    apply_perf_flags(args)?;
    let mut source = open_area_source(args)?;
    let model = load_model(args)?;
    let mut fcfg = feature_config(args)?;
    fcfg.window_l = model.config().window_l;
    let day: u16 = args.require_parsed("day")?;
    let t: u16 = args.require_parsed("t")?;
    let n_days = source.n_days();
    if day >= n_days {
        return Err(Box::new(RunError(format!(
            "--day {day} out of range (dataset has {n_days} days)"
        ))));
    }
    let n_areas = source.n_areas();
    let areas: Vec<u16> = match args.get("area") {
        Some(_) => vec![args.require_parsed("area")?],
        None => (0..n_areas as u16).collect(),
    };

    let policy = match args.get("ingest-policy") {
        None => IngestPolicy::Reject,
        Some(raw) => IngestPolicy::parse(raw).map_err(ArgError)?,
    };
    let plan = FaultPlan {
        seed: args.get_or("fault-seed", 7u64)?,
        shuffle_slack: args.get_or("fault-shuffle", 0u16)?,
        drop_rate: args.get_or("fault-drop", 0.0f64)?,
        duplicate_rate: args.get_or("fault-dup", 0.0f64)?,
    };
    let mut health = FeedHealth::default();
    for (flag, kind) in [
        ("blackout-weather", FeedKind::Weather),
        ("blackout-traffic", FeedKind::Traffic),
    ] {
        if args.get(flag).is_some() {
            let r = args.get_range(flag, 0..1)?;
            health.add_day_outage(kind, day, r.start, r.end);
        }
    }

    // Replay snapshot: one pass over the source keeping only the target
    // day's pre-window orders per area, so replaying a 10k-area city
    // never materializes more than the tick being replayed.
    let mut replay: Vec<Vec<Order>> = Vec::with_capacity(n_areas);
    for area in 0..n_areas as u16 {
        let block = source.area_block(area)?;
        replay.push(
            block
                .orders
                .into_iter()
                .filter(|o| o.day == day && o.ts < t)
                .collect(),
        );
    }

    let mut fx = StreamingExtractor::new(source, fcfg)
        .with_max_resident_mb(args.get_or("max-resident-mb", 0usize)?);
    fx.set_feed_health(health);
    let telemetry = Telemetry::new();
    let mut predictor = OnlinePredictor::with_policy(model, fx, policy);
    predictor.set_telemetry(telemetry.clone());
    for (area, stream) in replay.iter().enumerate() {
        let batch = predictor.observe_all(&plan.apply(stream));
        // Policy-aware partial ingest: the whole tick is applied and any
        // rejected orders are summarised instead of aborting the run.
        if !batch.is_clean() {
            eprintln!("area {area}: {batch}");
        }
    }
    drop(replay);

    let report = predictor.predict_all_report(day, t);
    println!("day {day}, window [{t}, {}):", t + 10);
    println!("policy: {policy}");
    println!("feeds:  {}", report.feeds);
    println!("ingest: {}", report.ingest);
    println!("area  predicted  actual");
    for &area in &areas {
        let actual = predictor.extractor_mut().gap(ItemKey { area, day, t });
        println!(
            "{:>4} {:>10.2} {:>7}",
            area, report.predictions[area as usize], actual
        );
    }
    write_metrics_out(args, &telemetry)?;
    Ok(())
}

/// `serve`: run the fault-contained HTTP daemon over a checkpoint.
///
/// Binds the address, serves `/predict`, `/observe`, `/metrics`,
/// `/healthz` and `/readyz` until `POST /shutdown`, then drains in-flight
/// connections and prints the engine's lifetime stats.
pub fn serve(args: &Args) -> CmdResult {
    args.check_known(&[
        "data",
        "model",
        "addr",
        "queue",
        "deadline-ms",
        "read-timeout-ms",
        "max-batch",
        "breaker-trip",
        "breaker-restore",
        "ingest-policy",
        "window",
        "history-window",
        "stride",
        "max-resident-mb",
        "threads",
        "metrics-out",
        "continual",
        "continual-window",
        "continual-cadence",
        "continual-margin",
        "continual-epochs",
        "continual-lr",
        "shadow-checkpoint",
        "training-mae",
    ])?;
    apply_perf_flags(args)?;
    let source = open_area_source(args)?;
    let model = load_model(args)?;
    let mut fcfg = feature_config(args)?;
    fcfg.window_l = model.config().window_l;
    let policy = match args.get("ingest-policy") {
        None => IngestPolicy::Reject,
        Some(raw) => IngestPolicy::parse(raw).map_err(ArgError)?,
    };
    let continual_on = args.get_or("continual", 0u8)? != 0;
    // The shadow starts from the serving weights (or a previously
    // promoted shadow checkpoint, letting a restart resume where
    // continual learning left off).
    let shadow_model = if continual_on {
        Some(match args.get("shadow-checkpoint") {
            Some(path) if fs::metadata(path).is_ok() => load_checkpoint(path)?,
            _ => model.clone(),
        })
    } else {
        None
    };
    let shadow_fcfg = fcfg.clone();

    let read_timeout_ms = args.get_or("read-timeout-ms", 1_000u64)?;
    let config = ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8017").to_string(),
        queue_capacity: args.get_or("queue", 64usize)?,
        deadline_ms: args.get_or("deadline-ms", 500u64)?,
        read_timeout_ms,
        write_timeout_ms: read_timeout_ms,
        max_batch: args.get_or("max-batch", 64usize)?,
        breaker_trip: args.get_or("breaker-trip", 3u32)?,
        breaker_restore: args.get_or("breaker-restore", 2u32)?,
        ..ServeConfig::default()
    };

    let telemetry = Telemetry::new();
    let fx = StreamingExtractor::new(source, fcfg)
        .with_max_resident_mb(args.get_or("max-resident-mb", 0usize)?);
    let mut predictor = OnlinePredictor::with_policy(model, fx, policy);
    predictor.set_telemetry(telemetry.clone());

    let mut server = Server::bind(config, telemetry.clone())?;

    // Continual learning: a background shadow trainer consumes the
    // observed order stream, fine-tunes a shadow model on a sliding
    // recent window and promotes it through the handoff slot; the
    // engine installs promotions between micro-batches.
    let mut shadow_worker = None;
    if let Some(shadow) = shadow_model {
        let (orders_tx, orders_rx) = std::sync::mpsc::channel::<Vec<Order>>();
        let handoff = deepsd::Handoff::new();
        server.set_continual(orders_tx, handoff.clone());
        let shadow_source = open_area_source(args)?;
        let shadow_fx = StreamingExtractor::new(shadow_source, shadow_fcfg)
            .with_max_resident_mb(args.get_or("max-resident-mb", 0usize)?);
        let ccfg = deepsd::ContinualConfig {
            window_ticks: args.get_or("continual-window", 36usize)?,
            cadence: args.get_or("continual-cadence", 512u64)?,
            margin: args.get_or("continual-margin", 0.01f64)?,
            epochs: args.get_or("continual-epochs", 2usize)?,
            learning_rate: args.get_or("continual-lr", 2e-4f32)?,
            shadow_path: args.get("shadow-checkpoint").map(str::to_string),
            threads: args.get_or("threads", 0usize)?,
            ..deepsd::ContinualConfig::default()
        };
        println!(
            "continual: window {} ticks, cadence {} orders, margin {}, {} epochs/round",
            ccfg.window_ticks, ccfg.cadence, ccfg.margin, ccfg.epochs
        );
        let mut trainer = deepsd::ShadowTrainer::new(shadow, shadow_fx, ccfg, handoff);
        trainer.set_telemetry(telemetry.clone());
        let training_mae = args.get_or("training-mae", f64::NAN)?;
        if training_mae.is_finite() {
            trainer.set_training_mae(training_mae);
        }
        shadow_worker = Some(
            std::thread::Builder::new()
                .name("deepsd-continual".to_string())
                .spawn(move || {
                    // The channel closes when the engine (the only
                    // sender) drains; the worker then reports totals.
                    while let Ok(orders) = orders_rx.recv() {
                        for event in trainer.ingest(&orders) {
                            eprintln!("[continual] {}", event.render());
                        }
                    }
                    (trainer.rounds(), trainer.generation())
                })?,
        );
    }

    println!("serving on http://{}", server.local_addr());
    println!("policy: {policy}");
    println!("endpoints: GET /predict?day=D&t=T[&area=A]  POST /observe");
    println!("           GET /metrics /healthz /readyz    POST /shutdown");
    let stats = server.run(&mut predictor)?;
    println!(
        "drained: {} served, {} predict calls ({} coalesced), {} expired, {} observe batches",
        stats.served, stats.predict_calls, stats.coalesced, stats.expired, stats.observes
    );
    if let Some(worker) = shadow_worker {
        if let Ok((rounds, generation)) = worker.join() {
            println!(
                "continual: {rounds} fine-tune rounds, {} swaps installed, final generation {generation}",
                stats.swaps
            );
        }
    }
    write_metrics_out(args, &telemetry)?;
    Ok(())
}
