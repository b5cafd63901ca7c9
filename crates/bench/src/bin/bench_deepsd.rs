//! Performance-regression harness: kernel GFLOP/s for all three matmul
//! orientations (blocked vs scalar reference, multi- and single-thread),
//! end-to-end training throughput (items/sec, ms/epoch), a shard-worker
//! scaling sweep, a sparse-vs-dense optimizer cost curve over inflated
//! vocabularies, and prediction latency (p50/p99) — emitted as
//! machine-readable `BENCH_deepsd.json` next to the human-readable
//! `results/` report.
//!
//! Usage:
//! `cargo run --release -p deepsd-bench --bin bench_deepsd [smoke|small|paper] [--threads N] [--max-resident-mb N]`
//!
//! `--scale-sweep` instead runs the city-size memory sweep: one child
//! process per city size (58 / 1 000 / 10 000 areas), each training one
//! epoch through the bounded streaming path (chunked container →
//! `StreamingExtractor` → windowed epochs) and reporting items/sec plus
//! peak RSS (`VmHWM`). Children are separate processes because `VmHWM`
//! is a per-process high-water mark — rows measured in one process
//! would all inherit the largest city's peak. The parent enforces that
//! the 10k-area peak stays within 2× of the 58-area peak (exit 3
//! otherwise) — the "memory does not scale with city size" ratchet.

use deepsd::trainer::{train, train_ensemble};
use deepsd::{
    DeepSD, Ensemble, EnvBlocks, ModelConfig, OnlinePredictor, Predictor, TrainOptions, Variant,
};
use deepsd_bench::{json_report, run_load, LoadGenConfig, Pipeline, Report, Scale, ToJson};
use deepsd_features::{
    test_keys, train_keys, Batch, FeatureConfig, ItemSource, StreamingExtractor,
};
use deepsd_nn::{
    matmul_ref, seeded_rng, set_num_threads, with_kernel_path, Adam, Embedding, Grad, GradMap,
    KernelPath, Matrix, ParamStore,
};
use deepsd_serve::{ServeConfig, Server};
use deepsd_simdata::{
    AreaSource, ChunkReader, ChunkWriter, CityConfig, OrderGenConfig, SimConfig, StreamGenerator,
    WeatherConfig,
};
use std::time::Instant;

json_report! {
    /// Kernel throughput in GFLOP/s (2·m·k·n FLOPs per product).
    struct KernelStats {
        nn_gflops: f64,
        nn_gflops_1thread: f64,
        tn_gflops: f64,
        nt_gflops: f64,
        reference_gflops: f64,
        /// Blocked single-thread over scalar reference at 256³.
        speedup_1thread_vs_ref: f64,
        /// Forced scalar-dispatch blocked kernel (single thread).
        scalar_path_gflops: f64,
        /// Forced lane-fold dispatch (single thread).
        lane_path_gflops: f64,
        /// Forced AVX2 dispatch (single thread); absent off x86-64/AVX2.
        avx2_path_gflops: Option<f64>,
    }
}

json_report! {
    /// The machine this run measured, so artifacts from different hosts
    /// are comparable.
    struct HardwareInfo {
        /// Logical cores visible to the process.
        cores: usize,
        /// Detected CPU features relevant to kernel dispatch.
        cpu_features: Vec<String>,
        /// The microkernel path auto-dispatch resolves to on this host.
        kernel_path: String,
        /// Parallel block height in rows.
        tuned_mc: usize,
        /// Reduction panel length.
        tuned_kc: usize,
        /// Multiply-add count below which GEMMs stay on the calling thread.
        tuned_par_flop_threshold: usize,
    }
}

json_report! {
    /// How many GEMM calls ran on each microkernel path during the bench.
    struct DispatchReport {
        scalar: u64,
        lane: u64,
        avx2: u64,
    }
}

json_report! {
    /// End-to-end training throughput.
    struct TrainStats {
        items_per_sec: f64,
        ms_per_epoch: f64,
        epochs: usize,
        train_items: usize,
        final_rmse: f64,
    }
}

json_report! {
    /// Serving-shaped prediction latency over per-timeslot batches.
    struct PredictStats {
        p50_ms: f64,
        p99_ms: f64,
        batch_size: usize,
        batches: usize,
    }
}

json_report! {
    /// Daemon-served latency and shed rate at one offered concurrency.
    struct ServeLoadPoint {
        clients: usize,
        offered: u64,
        achieved_rps: f64,
        p50_ms: f64,
        p99_ms: f64,
        p999_ms: f64,
        shed_rate: f64,
    }
}

json_report! {
    /// Training throughput at one shard-pool worker count.
    struct ShardScalePoint {
        workers: usize,
        items_per_sec: f64,
        speedup_vs_1: f64,
    }
}

json_report! {
    /// Adam step cost at one vocabulary size: row-sparse gradient touching a
    /// fixed row count versus the equivalent densified gradient.
    struct SparseOptimPoint {
        vocab: usize,
        touched_rows: usize,
        sparse_us_per_step: f64,
        dense_us_per_step: f64,
    }
}

json_report! {
    struct BenchOutput {
        scale: String,
        threads: usize,
        hardware: HardwareInfo,
        kernels: KernelStats,
        kernel_dispatch: DispatchReport,
        training: TrainStats,
        shard_scaling: Vec<ShardScalePoint>,
        sparse_optim: Vec<SparseOptimPoint>,
        predict: PredictStats,
        serving: Vec<ServeLoadPoint>,
    }
}

/// Boots `deepsd-serve` over the trained ensemble on loopback and
/// sweeps closed-loop client counts, recording the client-perceived
/// latency distribution and shed rate at each offered load.
fn serving_load_curve(pipeline: &Pipeline, ensemble: Ensemble) -> Vec<ServeLoadPoint> {
    let fx = pipeline.extractor();
    let mut predictor = OnlinePredictor::new(ensemble, fx);
    let config = ServeConfig {
        queue_capacity: 16,
        max_batch: 16,
        deadline_ms: 1_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(config, deepsd::telemetry::global().clone())
        .expect("bind serving bench daemon");
    let addr = server.local_addr();
    let handle = server.handle();
    let day = pipeline.scale.test_days.start;

    std::thread::scope(|scope| {
        let runner = scope.spawn(move || server.run(&mut predictor));
        let mut points = Vec::new();
        for &clients in &[1usize, 4, 16] {
            let report = run_load(
                addr,
                &LoadGenConfig {
                    clients,
                    requests_per_client: 40,
                    seed: 4242 + clients as u64,
                    day,
                    t_range: (600, 1080),
                    max_retries: 2,
                    ..LoadGenConfig::default()
                },
            );
            eprintln!(
                "[serving] clients={clients}: rps={:.0} p50={:.2}ms p99={:.2}ms shed={:.3}",
                report.achieved_rps(),
                report.latency_quantile_ms(0.50),
                report.latency_quantile_ms(0.99),
                report.shed_rate()
            );
            points.push(ServeLoadPoint {
                clients,
                offered: report.attempted,
                achieved_rps: report.achieved_rps(),
                p50_ms: report.latency_quantile_ms(0.50),
                p99_ms: report.latency_quantile_ms(0.99),
                p999_ms: report.latency_quantile_ms(0.999),
                shed_rate: report.shed_rate(),
            });
        }
        handle.shutdown();
        runner
            .join()
            .expect("serving bench engine joins")
            .expect("serving bench daemon ran");
        points
    })
}

/// Times `reps` runs of `f` (after one warmup) and returns GFLOP/s for
/// `flops` floating-point operations per run.
fn gflops(flops: f64, reps: usize, mut f: impl FnMut() -> Matrix) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    flops * reps as f64 / start.elapsed().as_secs_f64() / 1e9
}

fn kernel_stats() -> KernelStats {
    const DIM: usize = 256;
    const REPS: usize = 20;
    let flops = 2.0 * (DIM * DIM * DIM) as f64;
    let a = Matrix::from_fn(DIM, DIM, |r, c| ((r * 13 + c) as f32 * 0.01).sin());
    let b = Matrix::from_fn(DIM, DIM, |r, c| ((r + c * 5) as f32 * 0.01).cos());
    let at = a.transpose();
    let bt = b.transpose();

    let nn_gflops = gflops(flops, REPS, || a.matmul(&b));
    let tn_gflops = gflops(flops, REPS, || at.matmul_tn(&b));
    let nt_gflops = gflops(flops, REPS, || a.matmul_nt(&bt));
    set_num_threads(1);
    let nn_gflops_1thread = gflops(flops, REPS, || a.matmul(&b));
    // Per-path single-thread throughput: force each microkernel in turn
    // (results are bit-identical; only the instruction mix changes).
    let forced =
        |path: KernelPath| with_kernel_path(path, || gflops(flops, REPS, || a.matmul(&b))).ok();
    let scalar_path_gflops = forced(KernelPath::Scalar).unwrap_or(0.0);
    let lane_path_gflops = forced(KernelPath::Lane).unwrap_or(0.0);
    let avx2_path_gflops = forced(KernelPath::Avx2);
    set_num_threads(0);
    let reference_gflops = gflops(flops, REPS.min(5), || matmul_ref(&a, &b));

    KernelStats {
        nn_gflops,
        nn_gflops_1thread,
        tn_gflops,
        nt_gflops,
        reference_gflops,
        speedup_1thread_vs_ref: nn_gflops_1thread / reference_gflops,
        scalar_path_gflops,
        lane_path_gflops,
        avx2_path_gflops,
    }
}

/// Detected CPU features relevant to kernel dispatch.
fn cpu_features() -> Vec<String> {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, have) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                features.push(name.to_string());
            }
        }
    }
    features
}

/// Snapshots the hardware context and the GEMM blocking parameters.
fn hardware_info() -> HardwareInfo {
    let t = deepsd::tuning();
    HardwareInfo {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_features: cpu_features(),
        kernel_path: deepsd::kernel_path().as_str().to_string(),
        tuned_mc: t.mc,
        tuned_kc: t.kc,
        tuned_par_flop_threshold: t.par_flop_threshold,
    }
}

/// Trains a fresh model at each worker count and reports throughput.
/// Short (2-epoch) runs: the sweep measures scaling, not convergence.
fn shard_scaling(
    pipeline: &Pipeline,
    test_items: &[deepsd_features::Item],
) -> Vec<ShardScalePoint> {
    let mut points = Vec::new();
    let mut baseline = 0.0f64;
    for &workers in &[1usize, 2, 4, 8] {
        let mut opts = pipeline.scale.train_options();
        opts.epochs = 2;
        opts.threads = workers;
        let mut fx = pipeline.extractor();
        let mut model = DeepSD::new(pipeline.model_config(Variant::Advanced));
        let (_, report) =
            train_ensemble(&mut model, &mut fx, &pipeline.train_keys, test_items, &opts);
        let secs: f64 = report.epochs.iter().map(|e| e.seconds).sum();
        let items_per_sec =
            pipeline.train_keys.len() as f64 * report.epochs.len() as f64 / secs.max(1e-9);
        if workers == 1 {
            baseline = items_per_sec;
        }
        eprintln!("[shard] workers={workers}: {items_per_sec:.1} items/sec");
        points.push(ShardScalePoint {
            workers,
            items_per_sec,
            speedup_vs_1: items_per_sec / baseline.max(1e-9),
        });
    }
    points
}

/// Times Adam steps on an embedding table of growing vocabulary with a
/// row-sparse gradient touching a fixed number of rows, against the same
/// gradient densified. Sparse cost should stay roughly flat as the vocab
/// grows; dense cost grows with the table.
fn sparse_optim_curve() -> Vec<SparseOptimPoint> {
    const DIM: usize = 16;
    const TOUCHED: usize = 64;
    const STEPS: usize = 500;
    let mut points = Vec::new();
    for &vocab in &[58usize, 512, 4096] {
        let touched = TOUCHED.min(vocab);
        let mut rng = seeded_rng(7);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "emb", vocab, DIM, &mut rng);
        let id = emb.param();
        // Evenly spread touched rows so binary search sees a realistic
        // index distribution.
        let indices: Vec<usize> = (0..touched).map(|i| i * vocab / touched).collect();
        let rows = Matrix::from_fn(touched, DIM, |r, c| ((r * 31 + c) as f32 * 0.13).sin());
        let sparse = Grad::RowSparse {
            full_rows: vocab,
            indices,
            rows,
        };
        let dense = Grad::Dense(sparse.to_dense());

        let time_steps = |grad: &Grad| -> f64 {
            let mut grads = GradMap::default();
            grads.accumulate(id, grad.clone());
            let mut store = store.clone();
            let mut adam = Adam::new(1e-3, 0.9, 0.999, 1e-8);
            adam.step(&mut store, &grads); // warmup: allocate moments
            let start = Instant::now();
            for _ in 0..STEPS {
                adam.step(&mut store, &grads);
            }
            start.elapsed().as_secs_f64() * 1e6 / STEPS as f64
        };

        let sparse_us = time_steps(&sparse);
        let dense_us = time_steps(&dense);
        eprintln!(
            "[sparse-optim] vocab={vocab}: sparse {sparse_us:.2}us dense {dense_us:.2}us per step"
        );
        points.push(SparseOptimPoint {
            vocab,
            touched_rows: touched,
            sparse_us_per_step: sparse_us,
            dense_us_per_step: dense_us,
        });
    }
    points
}

json_report! {
    /// One city size of the streaming scale sweep, measured in its own
    /// child process (see the module docs for why).
    struct ScaleSweepPoint {
        areas: usize,
        train_items: usize,
        items_per_sec: f64,
        /// Child-process peak RSS in MiB (`VmHWM` from `/proc/self/status`).
        time_peak_rss_mb: f64,
        data_chunks_read_total: u64,
        data_bytes_read_total: u64,
    }
}

json_report! {
    /// `BENCH_deepsd.json` payload for `--scale-sweep` runs.
    struct SweepOutput {
        mode: String,
        max_resident_mb: usize,
        scale_sweep: Vec<ScaleSweepPoint>,
        /// Peak-RSS ratio of the largest city over the smallest; the flat-
        /// memory ratchet fails the run when this exceeds 2.0.
        rss_ratio_max_vs_min: f64,
    }
}

/// City sizes the sweep measures: the paper's 58 areas, then 1 000 and
/// 10 000 to show memory stays flat two orders of magnitude up.
const SWEEP_AREAS: [usize; 3] = [58, 1_000, 10_000];

/// Resident-item budget (MiB) for both the extractor window state and
/// the trainer's epoch cache during sweep rows.
const SWEEP_RESIDENT_MB: usize = 4;

/// Env var carrying the area count to a sweep child process.
const SWEEP_CHILD_ENV: &str = "DEEPSD_SCALE_SWEEP_CHILD";

/// Sweep simulation: 9 days (7 warmup + 1 train + 1 eval) at a light
/// order volume so the 10k-area row generates in seconds, not minutes.
fn sweep_sim_config(areas: usize) -> SimConfig {
    SimConfig {
        city: CityConfig {
            n_areas: areas as u16,
            seed: 2024,
        },
        n_days: 9,
        weather: WeatherConfig::default(),
        orders: OrderGenConfig {
            demand_volume: 0.25,
            supply_slack: 1.0,
            ..OrderGenConfig::default()
        },
    }
}

fn sweep_feature_config() -> FeatureConfig {
    FeatureConfig {
        window_l: 8,
        history_window: 3,
        train_stride: 30,
        ..FeatureConfig::default()
    }
}

/// Child mode: generates a chunked container for `areas` areas, trains
/// one epoch through the bounded streaming path and prints one
/// machine-parseable `SWEEP_ROW` line.
fn scale_sweep_child(areas: usize) {
    let live_rss = || -> f64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0)
            / 1024.0
    };
    let config = sweep_sim_config(areas);
    let fcfg = sweep_feature_config();

    // Stream-generate straight into the chunked container: per-area
    // blocks are dropped as soon as they are written, so even the
    // 10k-area file is produced under the same bounded footprint the
    // training path runs in.
    let path =
        std::env::temp_dir().join(format!("deepsd-sweep-{}-{areas}.dsd", std::process::id()));
    let mut sg = StreamGenerator::new(&config).without_traffic();
    eprintln!(
        "[sweep-child] areas={areas} after city+weather: peak RSS {:.1} MiB (live {:.1})",
        deepsd::telemetry::peak_rss_mb(),
        live_rss()
    );
    {
        let file = std::fs::File::create(&path).expect("create sweep container");
        let mut writer = ChunkWriter::new(
            std::io::BufWriter::new(file),
            sg.city(),
            sg.n_days(),
            sg.weather(),
            false,
        )
        .expect("write sweep header");
        eprintln!(
            "[sweep-child] areas={areas} after header write: peak RSS {:.1} MiB (live {:.1})",
            deepsd::telemetry::peak_rss_mb(),
            live_rss()
        );
        for area in 0..areas as u16 {
            let block = sg.area_block(area).expect("generated block");
            writer.write_area(&block).expect("write sweep area");
        }
        writer.finish().expect("finish sweep container");
    }
    drop(sg);
    eprintln!(
        "[sweep-child] areas={areas} after generate+write: peak RSS {:.1} MiB (live {:.1})",
        deepsd::telemetry::peak_rss_mb(),
        live_rss()
    );

    let reader = ChunkReader::open(std::io::BufReader::new(
        std::fs::File::open(&path).expect("open sweep container"),
    ))
    .expect("sweep container decodes");
    let mut sx =
        StreamingExtractor::new(reader, fcfg.clone()).with_max_resident_mb(SWEEP_RESIDENT_MB);

    let tr = train_keys(areas as u16, 7..8, &fcfg);
    // Evaluate on a ~58-area subset regardless of city size: evaluation
    // items are materialized, so a full 10k-area eval set would dominate
    // the very peak RSS the row is measuring.
    let step = (areas / SWEEP_AREAS[0]).max(1);
    let te: Vec<_> = test_keys(areas as u16, 8..9, &fcfg)
        .into_iter()
        .filter(|k| (k.area as usize).is_multiple_of(step))
        .collect();
    let eval_items = sx.extract_all(&te);
    eprintln!(
        "[sweep-child] areas={areas} after eval extract: peak RSS {:.1} MiB (live {:.1})",
        deepsd::telemetry::peak_rss_mb(),
        live_rss()
    );

    let mut mcfg = ModelConfig::basic(areas);
    mcfg.window_l = fcfg.window_l;
    mcfg.env = EnvBlocks::None;
    let mut model = DeepSD::new(mcfg);
    eprintln!(
        "[sweep-child] areas={areas} after model init: peak RSS {:.1} MiB (live {:.1})",
        deepsd::telemetry::peak_rss_mb(),
        live_rss()
    );
    let opts = TrainOptions {
        epochs: 1,
        best_k: 1,
        max_resident_mb: SWEEP_RESIDENT_MB,
        ..TrainOptions::default()
    };
    let report = train(&mut model, &mut sx, &tr, &eval_items, &opts);

    let secs: f64 = report.epochs.iter().map(|e| e.seconds).sum();
    let io = sx.io_stats();
    let _ = std::fs::remove_file(&path);
    println!(
        "SWEEP_ROW areas={areas} train_items={} items_per_sec={:.3} \
         time_peak_rss_mb={:.3} data_chunks_read_total={} data_bytes_read_total={}",
        tr.len(),
        tr.len() as f64 / secs.max(1e-9),
        deepsd::telemetry::peak_rss_mb(),
        io.chunks_read,
        io.bytes_read,
    );
}

/// Extracts `key=` from a `SWEEP_ROW` line and parses it.
fn sweep_field<T: std::str::FromStr>(line: &str, key: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    let tag = format!("{key}=");
    let rest = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&tag))
        .unwrap_or_else(|| panic!("SWEEP_ROW missing field {key}: {line}"));
    rest.parse()
        .unwrap_or_else(|e| panic!("SWEEP_ROW field {key} unparseable ({e:?}): {line}"))
}

/// Parent mode: one child process per city size, flat-memory ratchet,
/// `BENCH_deepsd.json` + human report.
fn run_scale_sweep() {
    let exe = std::env::current_exe().expect("bench binary path");
    let mut rows: Vec<ScaleSweepPoint> = Vec::new();
    for areas in SWEEP_AREAS {
        eprintln!("[scale-sweep] measuring {areas}-area city in a child process");
        let out = std::process::Command::new(&exe)
            .env(SWEEP_CHILD_ENV, areas.to_string())
            .output()
            .expect("spawn sweep child");
        assert!(
            out.status.success(),
            "sweep child ({areas} areas) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("SWEEP_ROW "))
            .unwrap_or_else(|| {
                panic!("sweep child ({areas} areas) printed no SWEEP_ROW:\n{stdout}")
            });
        let point = ScaleSweepPoint {
            areas: sweep_field(line, "areas"),
            train_items: sweep_field(line, "train_items"),
            items_per_sec: sweep_field(line, "items_per_sec"),
            time_peak_rss_mb: sweep_field(line, "time_peak_rss_mb"),
            data_chunks_read_total: sweep_field(line, "data_chunks_read_total"),
            data_bytes_read_total: sweep_field(line, "data_bytes_read_total"),
        };
        eprintln!(
            "[scale-sweep] areas={}: {:.1} items/sec, peak RSS {:.1} MiB, {} chunks / {} bytes read",
            point.areas,
            point.items_per_sec,
            point.time_peak_rss_mb,
            point.data_chunks_read_total,
            point.data_bytes_read_total,
        );
        rows.push(point);
    }

    let rss_min = rows.first().map_or(0.0, |p| p.time_peak_rss_mb);
    let rss_max = rows.last().map_or(0.0, |p| p.time_peak_rss_mb);
    let ratio = rss_max / rss_min.max(1e-9);
    let output = SweepOutput {
        mode: "scale-sweep".to_string(),
        max_resident_mb: SWEEP_RESIDENT_MB,
        scale_sweep: rows,
        rss_ratio_max_vs_min: ratio,
    };
    std::fs::write("BENCH_deepsd.json", output.to_json().to_pretty())
        .expect("write BENCH_deepsd.json");
    eprintln!("[scale-sweep] wrote BENCH_deepsd.json");

    let mut report = Report::new(
        "bench_deepsd_scale_sweep",
        "City-scale streaming memory sweep",
    );
    for p in &output.scale_sweep {
        report.kv(
            &format!("areas={}", p.areas),
            format!(
                "{:.1} items/sec, peak RSS {:.1} MiB ({} train items)",
                p.items_per_sec, p.time_peak_rss_mb, p.train_items
            ),
        );
    }
    report.kv(
        "peak-RSS ratio (10k vs 58 areas)",
        format!("{ratio:.2}x (budget {SWEEP_RESIDENT_MB} MiB, floor 2.00x)"),
    );
    report.finish("scale-sweep");

    if ratio > 2.0 {
        eprintln!(
            "[scale-sweep] FAIL: 10k-area peak RSS is {ratio:.2}x the 58-area peak (> 2.0x): \
             memory is scaling with city size"
        );
        std::process::exit(3);
    }
    eprintln!("[scale-sweep] ok: peak RSS flat across city sizes ({ratio:.2}x <= 2.0x)");
}

/// The `p`-th percentile of an unsorted sample, in the sample's unit.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample");
    samples.sort_by(|x, y| x.partial_cmp(y).expect("latencies are finite"));
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx]
}

fn main() {
    if let Ok(v) = std::env::var(SWEEP_CHILD_ENV) {
        let areas: usize = v
            .parse()
            .expect("DEEPSD_SCALE_SWEEP_CHILD must be an area count");
        scale_sweep_child(areas);
        return;
    }
    if std::env::args().skip(1).any(|a| a == "--scale-sweep") {
        run_scale_sweep();
        return;
    }
    let scale = Scale::from_args();
    let scaling_floor = scale.scaling_floor;
    let pipeline = Pipeline::build(scale);
    let mut report = Report::new("bench_deepsd", "Performance-regression bench");

    let hardware = hardware_info();
    eprintln!(
        "[kernels] dispatch path: {} (cores={}, features=[{}], mc={} kc={} par_threshold={})",
        hardware.kernel_path,
        hardware.cores,
        hardware.cpu_features.join(","),
        hardware.tuned_mc,
        hardware.tuned_kc,
        hardware.tuned_par_flop_threshold,
    );
    deepsd_nn::reset_dispatch_counts();

    eprintln!("[kernels] timing 256^3 matmul orientations");
    let kernels = kernel_stats();

    eprintln!("[sparse-optim] timing Adam over inflated vocabularies");
    let sparse_optim = sparse_optim_curve();

    let mut fx = pipeline.extractor();
    let test_items = pipeline.test_items(&mut fx);
    let (ensemble, train_report) = pipeline.train_model(
        "bench",
        pipeline.model_config(Variant::Advanced),
        &mut fx,
        &test_items,
    );
    let epoch_secs: f64 = train_report.epochs.iter().map(|e| e.seconds).sum();
    let epochs = train_report.epochs.len().max(1);
    let training = TrainStats {
        items_per_sec: pipeline.train_keys.len() as f64 * epochs as f64 / epoch_secs.max(1e-9),
        ms_per_epoch: epoch_secs * 1000.0 / epochs as f64,
        epochs,
        train_items: pipeline.train_keys.len(),
        final_rmse: train_report.final_rmse,
    };

    eprintln!("[shard] sweeping shard-pool worker counts");
    let shard_scaling = shard_scaling(&pipeline, &test_items);

    // Serving-shaped latency: one batch per timeslot (all areas at once),
    // like OnlinePredictor::predict_all scores them.
    let batch_size = pipeline.dataset.n_areas();
    let mut latencies: Vec<f64> = Vec::new();
    for chunk in test_items.chunks(batch_size) {
        let batch = Batch::from_items(chunk);
        let start = Instant::now();
        std::hint::black_box(ensemble.predict(&batch));
        latencies.push(start.elapsed().as_secs_f64() * 1000.0);
    }
    let predict = PredictStats {
        p50_ms: percentile(&mut latencies, 50.0),
        p99_ms: percentile(&mut latencies, 99.0),
        batch_size,
        batches: latencies.len(),
    };

    eprintln!("[serving] daemon latency-vs-offered-load sweep");
    let serving = serving_load_curve(&pipeline, ensemble);

    let d = deepsd_nn::dispatch_counts();
    let kernel_dispatch = DispatchReport {
        scalar: d.scalar,
        lane: d.lane,
        avx2: d.avx2,
    };
    eprintln!(
        "[kernels] dispatch counts: scalar={} lane={} avx2={}",
        kernel_dispatch.scalar, kernel_dispatch.lane, kernel_dispatch.avx2
    );

    let output = BenchOutput {
        scale: pipeline.scale.name.to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        hardware,
        kernels,
        kernel_dispatch,
        training,
        shard_scaling,
        sparse_optim,
        predict,
        serving,
    };
    std::fs::write("BENCH_deepsd.json", output.to_json().to_pretty())
        .expect("write BENCH_deepsd.json");
    eprintln!("[bench] wrote BENCH_deepsd.json");
    deepsd::telemetry::global().record_kernel_telemetry();
    deepsd::telemetry::global()
        .write_json("TELEMETRY_deepsd.json")
        .expect("write TELEMETRY_deepsd.json");
    eprintln!("[bench] wrote TELEMETRY_deepsd.json");

    // Multicore-CI ratchet: the 2-worker shard speedup must not regress
    // below the floor. Meaningless on a single core, so skip there.
    if let Some(floor) = scaling_floor {
        let two = output
            .shard_scaling
            .iter()
            .find(|p| p.workers == 2)
            .map_or(0.0, |p| p.speedup_vs_1);
        if output.hardware.cores < 2 {
            eprintln!(
                "[scaling-check] skipped: host has {} core(s); need >= 2 to measure scaling",
                output.hardware.cores
            );
        } else if two < floor {
            eprintln!("[scaling-check] FAIL: 2-worker shard speedup {two:.2}x < floor {floor:.2}x");
            std::process::exit(3);
        } else {
            eprintln!("[scaling-check] ok: 2-worker shard speedup {two:.2}x >= floor {floor:.2}x");
        }
    }

    report.kv(
        "matmul nn GFLOP/s",
        format!("{:.2}", output.kernels.nn_gflops),
    );
    report.kv(
        "matmul nn GFLOP/s (1 thread)",
        format!("{:.2}", output.kernels.nn_gflops_1thread),
    );
    report.kv(
        "matmul tn GFLOP/s",
        format!("{:.2}", output.kernels.tn_gflops),
    );
    report.kv(
        "matmul nt GFLOP/s",
        format!("{:.2}", output.kernels.nt_gflops),
    );
    report.kv(
        "scalar reference GFLOP/s",
        format!("{:.2}", output.kernels.reference_gflops),
    );
    report.kv(
        "1-thread speedup vs reference",
        format!("{:.2}x", output.kernels.speedup_1thread_vs_ref),
    );
    report.kv("kernel path", output.hardware.kernel_path.clone());
    report.kv(
        "per-path GFLOP/s (scalar/lane/avx2)",
        format!(
            "{:.2}/{:.2}/{}",
            output.kernels.scalar_path_gflops,
            output.kernels.lane_path_gflops,
            output
                .kernels
                .avx2_path_gflops
                .map_or("n/a".to_string(), |g| format!("{g:.2}")),
        ),
    );
    report.kv(
        "train items/sec",
        format!("{:.1}", output.training.items_per_sec),
    );
    report.kv("ms/epoch", format!("{:.1}", output.training.ms_per_epoch));
    for p in &output.shard_scaling {
        report.kv(
            &format!("shard workers={}", p.workers),
            format!("{:.1} items/sec ({:.2}x)", p.items_per_sec, p.speedup_vs_1),
        );
    }
    for p in &output.sparse_optim {
        report.kv(
            &format!("adam vocab={}", p.vocab),
            format!(
                "sparse {:.2}us dense {:.2}us per step",
                p.sparse_us_per_step, p.dense_us_per_step
            ),
        );
    }
    report.kv("predict p50 ms", format!("{:.3}", output.predict.p50_ms));
    report.kv("predict p99 ms", format!("{:.3}", output.predict.p99_ms));
    for point in &output.serving {
        report.kv(
            &format!("serve @{} clients p50/p99 ms", point.clients),
            format!(
                "{:.2}/{:.2} (shed {:.3})",
                point.p50_ms, point.p99_ms, point.shed_rate
            ),
        );
    }
    report.finish(pipeline.scale.name);
}
