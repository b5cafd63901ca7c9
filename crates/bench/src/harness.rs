//! Shared experiment pipeline: simulate a city, build features, train
//! DeepSD variants and baselines at a chosen scale.

use deepsd::trainer::{evaluate_model, train_ensemble};
use deepsd::{DeepSD, Ensemble, ModelConfig, TrainOptions, TrainReport};
use deepsd_features::{
    test_keys, train_keys, FeatureConfig, FeatureExtractor, Item, ItemKey, ItemSource,
};
use deepsd_simdata::{CityConfig, OrderGenConfig, SimConfig, SimDataset};
use std::ops::Range;

/// Experiment scale. All harness binaries accept `smoke`, `small`
/// (default) or `paper` as their first CLI argument; the scales share
/// every code path and differ only in size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Scale name (used in reports).
    pub name: &'static str,
    /// Simulation configuration.
    pub sim: SimConfig,
    /// Feature pipeline configuration.
    pub features: FeatureConfig,
    /// Training day range.
    pub train_days: Range<u16>,
    /// Test day range.
    pub test_days: Range<u16>,
    /// Training epochs for neural models.
    pub epochs: usize,
    /// Best-K snapshot averaging.
    pub best_k: usize,
    /// Dropout rate for the neural models. The paper uses 0.5 at its
    /// 394k-item scale; the smaller default scales overfit less with a
    /// milder rate.
    pub dropout: f32,
    /// Worker threads for the training shard pool and batch
    /// prediction (`0` = auto-detect). Set by the `--threads` CLI flag.
    pub threads: usize,
    /// Minimum acceptable 2-worker shard speedup, set by the
    /// `--check-scaling FLOOR` flag. When set (and the host has at
    /// least 2 cores), `bench_deepsd` exits non-zero if the measured
    /// 2-worker `speedup_vs_1` falls below it — the ratchet the
    /// multicore CI job enforces.
    pub scaling_floor: Option<f64>,
    /// Approximate cap, in MiB, on trainer-resident extracted items
    /// (`0` = unbounded). Set by the `--max-resident-mb N` flag and
    /// forwarded into [`TrainOptions::max_resident_mb`]; results are
    /// bit-identical at any cap.
    pub max_resident_mb: usize,
}

impl Scale {
    /// Tiny scale for CI smoke runs (~seconds).
    pub fn smoke() -> Scale {
        Scale {
            name: "smoke",
            sim: SimConfig {
                city: CityConfig {
                    n_areas: 8,
                    seed: 2024,
                },
                n_days: 21,
                ..SimConfig::smoke(2024)
            },
            features: FeatureConfig {
                window_l: 12,
                history_window: 4,
                // Stride 10 keeps every test timeslot (450 + k*120) on the
                // training grid, so TimeID embedding rows seen at test time
                // are trained.
                train_stride: 10,
                ..FeatureConfig::default()
            },
            train_days: 7..14,
            test_days: 14..21,
            epochs: 4,
            best_k: 2,
            dropout: 0.3,
            threads: 0,
            scaling_floor: None,
            max_resident_mb: 0,
        }
    }

    /// Default experiment scale (~minutes per binary).
    pub fn small() -> Scale {
        Scale {
            name: "small",
            sim: SimConfig {
                city: CityConfig {
                    n_areas: 16,
                    seed: 2024,
                },
                n_days: 38,
                // Paper-like order density: the Didi areas are 3 km x 3 km
                // districts with mean 10-minute gaps around 10-15; tripling
                // the per-area volume moves the gap scale (and hence the
                // pattern-to-Poisson-noise ratio) into that regime.
                orders: OrderGenConfig {
                    demand_volume: 3.0,
                    supply_slack: 1.0,
                    ..OrderGenConfig::default()
                },
                ..SimConfig::smoke(2024)
            },
            features: FeatureConfig {
                window_l: 20,
                history_window: 6,
                // Stride 10 keeps every test timeslot (450 + k*120) on the
                // training grid so the TimeID embedding rows used at test
                // time are trained, while halving epoch cost vs the paper's
                // stride 5 (which at this data scale overfits before the
                // first epoch ends).
                train_stride: 10,
                ..FeatureConfig::default()
            },
            // Week 0 warms up the histories; train on weeks 1–3.
            train_days: 7..24,
            test_days: 24..38,
            epochs: 16,
            best_k: 6,
            dropout: 0.3,
            threads: 0,
            scaling_floor: None,
            max_resident_mb: 0,
        }
    }

    /// Paper-shaped scale: 58 areas, 24 train + 28 test days, items
    /// every 5 minutes, 50 epochs. Hours of CPU time.
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            sim: SimConfig {
                city: CityConfig {
                    n_areas: 58,
                    seed: 2024,
                },
                n_days: 52,
                ..SimConfig::paper(2024)
            },
            features: FeatureConfig::default(),
            train_days: 0..24,
            test_days: 24..52,
            epochs: 50,
            best_k: 10,
            dropout: 0.5,
            threads: 0,
            scaling_floor: None,
            max_resident_mb: 0,
        }
    }

    /// Parses the CLI arguments into a scale: an optional positional
    /// scale name (default `small`) plus an optional `--threads N` flag
    /// capping worker threads (shard pool, batch prediction).
    ///
    /// Environment overrides for experimentation:
    /// `DEEPSD_EPOCHS`, `DEEPSD_TRAIN_STRIDE`, `DEEPSD_BEST_K`.
    /// Malformed override values are warned about and ignored (counted
    /// in the `env_override_invalid_total` telemetry counter) rather
    /// than aborting the run.
    ///
    /// # Panics
    /// Panics on an unknown scale name or a malformed `--threads` /
    /// `--check-scaling` value.
    pub fn from_args() -> Scale {
        let mut positional: Option<String> = None;
        let mut threads = 0usize;
        let mut scaling_floor = None;
        let mut max_resident_mb = 0usize;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--threads" {
                let v = args.next().expect("--threads needs a value");
                threads = v.parse().expect("--threads must be an integer");
            } else if arg == "--check-scaling" {
                let v = args.next().expect("--check-scaling needs a value");
                scaling_floor = Some(v.parse().expect("--check-scaling must be a number"));
            } else if arg == "--max-resident-mb" {
                let v = args.next().expect("--max-resident-mb needs a value");
                max_resident_mb = v.parse().expect("--max-resident-mb must be an integer");
            } else if positional.is_none() {
                positional = Some(arg);
            } else {
                panic!("unexpected argument '{arg}'");
            }
        }
        let mut scale = match positional.as_deref() {
            None | Some("small") => Scale::small(),
            Some("smoke") => Scale::smoke(),
            Some("paper") => Scale::paper(),
            Some(other) => panic!("unknown scale '{other}' (expected smoke|small|paper)"),
        };
        scale.threads = threads;
        scale.scaling_floor = scaling_floor;
        scale.max_resident_mb = max_resident_mb;
        if let Some(e) = env_usize("DEEPSD_EPOCHS") {
            scale.epochs = e;
        }
        if let Some(s) = env_usize("DEEPSD_TRAIN_STRIDE") {
            scale.features.train_stride = s;
        }
        if let Some(k) = env_usize("DEEPSD_BEST_K") {
            scale.best_k = k;
        }
        scale
    }

    /// Training options matching this scale. `DEEPSD_LR` overrides the
    /// learning rate. Training metrics flow into the process-global
    /// telemetry registry, which the bench binaries snapshot to
    /// `TELEMETRY_deepsd.json` at exit.
    pub fn train_options(&self) -> TrainOptions {
        let mut opts = TrainOptions {
            epochs: self.epochs,
            best_k: self.best_k,
            threads: self.threads,
            max_resident_mb: self.max_resident_mb,
            telemetry: Some(deepsd::telemetry::global().clone()),
            ..TrainOptions::default()
        };
        if let Some(v) = env_parsed::<f32>("DEEPSD_LR") {
            opts.learning_rate = v;
        }
        opts
    }
}

/// Parses an environment override, warning and ignoring a malformed
/// value instead of aborting mid-benchmark. Each ignored value bumps
/// the global `env_override_invalid_total` telemetry counter so it
/// shows up in the run's metrics snapshot.
fn env_parsed<T: std::str::FromStr>(key: &str) -> Option<T> {
    let raw = std::env::var(key).ok()?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring {key}={raw:?} (not a valid {})",
                std::any::type_name::<T>()
            );
            deepsd::telemetry::global().inc_counter("env_override_invalid_total");
            None
        }
    }
}

fn env_usize(key: &str) -> Option<usize> {
    env_parsed(key)
}

/// A generated dataset plus its item grids.
pub struct Pipeline {
    /// The scale that produced everything.
    pub scale: Scale,
    /// The simulated dataset.
    pub dataset: SimDataset,
    /// Training item keys.
    pub train_keys: Vec<ItemKey>,
    /// Test item keys.
    pub test_keys: Vec<ItemKey>,
}

impl Pipeline {
    /// Simulates the dataset and enumerates item grids.
    pub fn build(scale: Scale) -> Pipeline {
        eprintln!(
            "[pipeline] scale={} areas={} days={} …",
            scale.name, scale.sim.city.n_areas, scale.sim.n_days
        );
        let started = std::time::Instant::now();
        let dataset = SimDataset::generate(&scale.sim);
        eprintln!(
            "[pipeline] simulated {} orders ({} invalid) in {:.1}s",
            dataset.total_orders(),
            dataset.total_invalid(),
            started.elapsed().as_secs_f64()
        );
        let n_areas = dataset.n_areas() as u16;
        let train_keys = train_keys(n_areas, scale.train_days.clone(), &scale.features);
        let test_keys = test_keys(n_areas, scale.test_days.clone(), &scale.features);
        eprintln!(
            "[pipeline] {} train items, {} test items",
            train_keys.len(),
            test_keys.len()
        );
        Pipeline {
            scale,
            dataset,
            train_keys,
            test_keys,
        }
    }

    /// A fresh extractor over the dataset.
    pub fn extractor(&self) -> FeatureExtractor<'_> {
        FeatureExtractor::new(&self.dataset, self.scale.features.clone())
    }

    /// Pre-extracts the test items.
    pub fn test_items(&self, extractor: &mut impl ItemSource) -> Vec<Item> {
        extractor.extract_all(&self.test_keys)
    }

    /// A model config of the requested variant sized to this pipeline.
    /// `DEEPSD_DROPOUT` overrides the dropout rate.
    pub fn model_config(&self, variant: deepsd::Variant) -> ModelConfig {
        let mut cfg = match variant {
            deepsd::Variant::Basic => ModelConfig::basic(self.dataset.n_areas()),
            deepsd::Variant::Advanced => ModelConfig::advanced(self.dataset.n_areas()),
        };
        cfg.window_l = self.scale.features.window_l;
        cfg.dropout = self.scale.dropout;
        if let Some(v) = env_parsed::<f32>("DEEPSD_DROPOUT") {
            cfg.dropout = v;
        }
        cfg
    }

    /// Trains a DeepSD model on this pipeline, logging per-epoch stats.
    /// Returns the best-K prediction ensemble (the paper's final model)
    /// plus the training report.
    pub fn train_model(
        &self,
        label: &str,
        cfg: ModelConfig,
        extractor: &mut impl ItemSource,
        eval_items: &[Item],
    ) -> (Ensemble, TrainReport) {
        let mut model = DeepSD::new(cfg);
        eprintln!("[{label}] {} parameters", model.num_parameters());
        let before = evaluate_model(&model, eval_items, 256);
        eprintln!(
            "[{label}] init MAE={:.3} RMSE={:.3}",
            before.mae, before.rmse
        );
        let opts = self.scale.train_options();
        let (ensemble, report) =
            train_ensemble(&mut model, extractor, &self.train_keys, eval_items, &opts);
        for e in &report.epochs {
            eprintln!(
                "[{label}] epoch {:>2}: loss={:.3} MAE={:.3} RMSE={:.3} ({:.1}s)",
                e.epoch, e.train_loss, e.eval_mae, e.eval_rmse, e.seconds
            );
        }
        eprintln!(
            "[{label}] final MAE={:.3} RMSE={:.3} (ensemble of {})",
            report.final_mae,
            report.final_rmse,
            ensemble.len()
        );
        (ensemble, report)
    }
}
