//! The DeepSD model: basic (§IV, Fig. 3) and advanced (§V, Fig. 7)
//! variants, with configurable environment blocks, residual or
//! concatenation wiring, and embedding or one-hot encodings.

use crate::blocks::{
    weather_input, Encoders, EnvBlock, ExtendedBlock, IdentityBlock, OutputHead, SupplyDemandBlock,
};
use crate::config::{EnvBlocks, ModelConfig, Variant};
use deepsd_features::Batch;
use deepsd_nn::{seeded_rng, Matrix, NodeId, ParamStore, Snapshot, Tape};
use deepsd_rng::Rng;

/// Order part of the model: one of the two variants.
#[derive(Debug, Clone)]
enum OrderPart {
    Basic(SupplyDemandBlock),
    Advanced {
        sd: Box<ExtendedBlock>,
        lc: Box<ExtendedBlock>,
        wt: Box<ExtendedBlock>,
    },
}

/// Which environment blocks participate in a forward pass. Degraded
/// serving (a weather or traffic feed that is fully down) zeroes the
/// affected block's residual contribution by skipping it — exploiting
/// the paper's block structure, where each residual block refines the
/// previous representation and can be detached without invalidating the
/// rest of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMask {
    /// Run the weather block (if the model has one).
    pub weather: bool,
    /// Run the traffic block (if the model has one).
    pub traffic: bool,
}

impl Default for BlockMask {
    fn default() -> Self {
        BlockMask {
            weather: true,
            traffic: true,
        }
    }
}

impl BlockMask {
    /// The mask that runs every block.
    pub fn all() -> BlockMask {
        BlockMask::default()
    }
}

/// A complete DeepSD network. Owns its parameters.
#[derive(Debug, Clone)]
pub struct DeepSD {
    config: ModelConfig,
    store: ParamStore,
    encoders: Encoders,
    order: OrderPart,
    weather: Option<EnvBlock>,
    traffic: Option<EnvBlock>,
    head: OutputHead,
    /// Environment blocks built by [`DeepSD::new`]; blocks added later by
    /// [`DeepSD::add_environment_blocks`] sit after the head in the store.
    built_env: EnvBlocks,
}

impl DeepSD {
    /// Builds a model from its configuration.
    pub fn new(config: ModelConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(config.seed);
        let encoders = Encoders::new(&mut store, &config, &mut rng);
        let order = match config.variant {
            Variant::Basic => {
                OrderPart::Basic(SupplyDemandBlock::new(&mut store, &config, &mut rng))
            }
            Variant::Advanced => OrderPart::Advanced {
                sd: Box::new(ExtendedBlock::new(
                    &mut store, "ext.sd", &config, false, &mut rng,
                )),
                lc: Box::new(ExtendedBlock::new(
                    &mut store, "ext.lc", &config, true, &mut rng,
                )),
                wt: Box::new(ExtendedBlock::new(
                    &mut store, "ext.wt", &config, true, &mut rng,
                )),
            },
        };
        let weather = config.env.has_weather().then(|| {
            EnvBlock::new(
                &mut store,
                "wc",
                &config,
                config.window_l * config.weather_lag_dim(),
                &mut rng,
            )
        });
        let traffic = config
            .env
            .has_traffic()
            .then(|| EnvBlock::new(&mut store, "tc", &config, 4 * config.window_l, &mut rng));
        let head_in = Self::head_input_dim(&config);
        let head = OutputHead::new(&mut store, &config, head_in, &mut rng);
        DeepSD {
            built_env: config.env,
            config,
            store,
            encoders,
            order,
            weather,
            traffic,
            head,
        }
    }

    fn head_input_dim(config: &ModelConfig) -> usize {
        if config.residual {
            config.identity_dim() + config.hidden2
        } else {
            // Non-residual wiring concatenates every block output.
            let order_blocks = match config.variant {
                Variant::Basic => 1,
                Variant::Advanced => 3,
            };
            let env_blocks = config.env.has_weather() as usize + config.env.has_traffic() as usize;
            config.identity_dim() + (order_blocks + env_blocks) * config.hidden2
        }
    }

    /// Appends environment blocks to an already trained model
    /// (§V-C, extendability): the new parameters are registered *after*
    /// all existing ones, so earlier snapshots remain restorable and
    /// fine-tuning continues from the trained weights.
    ///
    /// # Panics
    /// Panics if the model already has the requested blocks or the
    /// request removes blocks.
    pub fn add_environment_blocks(&mut self, env: EnvBlocks) {
        assert!(
            self.config.residual,
            "extendability requires the residual wiring (§V-C)"
        );
        let mut rng = seeded_rng(self.config.seed ^ 0x5eed_b10c);
        if env.has_weather() && self.weather.is_none() {
            self.weather = Some(EnvBlock::new(
                &mut self.store,
                "wc",
                &self.config,
                self.config.window_l * self.config.weather_lag_dim(),
                &mut rng,
            ));
        }
        if env.has_traffic() && self.traffic.is_none() {
            self.traffic = Some(EnvBlock::new(
                &mut self.store,
                "tc",
                &self.config,
                4 * self.config.window_l,
                &mut rng,
            ));
        }
        assert!(
            env.has_weather() || self.weather.is_none(),
            "cannot remove an existing weather block"
        );
        assert!(
            env.has_traffic() || self.traffic.is_none(),
            "cannot remove an existing traffic block"
        );
        self.config.env = env;
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The environment blocks the model was built with, before any
    /// [`DeepSD::add_environment_blocks`] call.
    pub fn built_env(&self) -> EnvBlocks {
        self.built_env
    }

    /// Immutable access to the parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store (used by the trainer).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// The categorical encoders (for embedding-space analyses).
    pub fn encoders(&self) -> &Encoders {
        &self.encoders
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Records the full forward pass of a batch on `tape`, returning the
    /// `B × 1` prediction node. When `dropout_rng` is provided the
    /// paper's dropout (rate `config.dropout`) is applied after every
    /// block except the identity block (training mode).
    pub fn forward(&self, tape: &mut Tape, batch: &Batch, dropout_rng: Option<&mut Rng>) -> NodeId {
        self.forward_masked(tape, batch, dropout_rng, &BlockMask::all())
    }

    /// [`DeepSD::forward`] with selected environment blocks skipped.
    ///
    /// Under the residual wiring a skipped block contributes exactly
    /// zero: the shortcut carries the previous block's output straight
    /// through, so the rest of the network still sees a valid
    /// representation. Under the concatenation wiring blocks cannot be
    /// detached (the head's input width is fixed), so the mask is
    /// ignored there and degraded feeds rely on neutralised inputs
    /// instead.
    // deepsd-lint: allow(panic-reach, reason="shape guards; batches are built by the extractor from the same model config")
    pub fn forward_masked(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        mut dropout_rng: Option<&mut Rng>,
        mask: &BlockMask,
    ) -> NodeId {
        let cfg = &self.config;
        assert_eq!(batch.l, cfg.window_l, "batch window L mismatch");
        let n = batch.n;
        let dim = cfg.vector_dim();
        let store = &self.store;

        let drop = |tape: &mut Tape, x: NodeId, rng: &mut Option<&mut Rng>| match rng {
            Some(r) => tape.dropout(x, cfg.dropout, r),
            None => x,
        };

        let x_id = IdentityBlock::forward(
            tape,
            store,
            &self.encoders,
            &batch.area_ids,
            &batch.time_ids,
            &batch.week_ids,
        );

        // Order part.
        let mut concat_outputs: Vec<NodeId> = Vec::new();
        let mut x_prev: Option<NodeId> = None;
        match &self.order {
            OrderPart::Basic(block) => {
                let v = tape.input(Matrix::from_vec(n, dim, batch.v_sd.clone()));
                let x = block.forward(tape, store, v);
                let x = drop(tape, x, &mut dropout_rng);
                x_prev = Some(x);
                concat_outputs.push(x);
            }
            OrderPart::Advanced { sd, lc, wt } => {
                let hdim = cfg.history_dim();
                type BlockSpec<'a> = (&'a ExtendedBlock, &'a [f32], &'a [f32], &'a [f32]);
                let specs: [BlockSpec<'_>; 3] = [
                    (sd, &batch.v_sd, &batch.h_sd, &batch.h_sd_next),
                    (lc, &batch.v_lc, &batch.h_lc, &batch.h_lc_next),
                    (wt, &batch.v_wt, &batch.h_wt, &batch.h_wt_next),
                ];
                for (block, v_buf, h_buf, h_next_buf) in specs {
                    let v = tape.input(Matrix::from_vec(n, dim, v_buf.to_vec()));
                    let h = Matrix::from_vec(n, hdim, h_buf.to_vec());
                    let h_next = Matrix::from_vec(n, hdim, h_next_buf.to_vec());
                    let prev = if cfg.residual { x_prev } else { None };
                    let x = block.forward(
                        tape,
                        store,
                        &self.encoders,
                        &batch.area_ids,
                        &batch.week_ids,
                        v,
                        h,
                        h_next,
                        prev,
                    );
                    let x = drop(tape, x, &mut dropout_rng);
                    x_prev = Some(x);
                    concat_outputs.push(x);
                }
            }
        }

        // Environment part. Under the concatenation wiring the mask is
        // ignored: every block output feeds the head at a fixed width.
        let run_weather = mask.weather || !cfg.residual;
        let run_traffic = mask.traffic || !cfg.residual;
        if let Some(block) = self.weather.as_ref().filter(|_| run_weather) {
            let wc = weather_input(
                tape,
                store,
                &self.encoders,
                cfg.window_l,
                &batch.weather_types,
                Matrix::from_vec(n, 2 * cfg.window_l, batch.weather_scalars.clone()),
            );
            let prev = if cfg.residual { x_prev } else { None };
            let x = block.forward(tape, store, prev, wc);
            let x = drop(tape, x, &mut dropout_rng);
            x_prev = Some(x);
            concat_outputs.push(x);
        }
        if let Some(block) = self.traffic.as_ref().filter(|_| run_traffic) {
            let tc = tape.input(Matrix::from_vec(n, 4 * cfg.window_l, batch.traffic.clone()));
            let prev = if cfg.residual { x_prev } else { None };
            let x = block.forward(tape, store, prev, tc);
            let x = drop(tape, x, &mut dropout_rng);
            x_prev = Some(x);
            concat_outputs.push(x);
        }

        // Block connections (§IV-D / Fig. 14).
        let joined = if cfg.residual {
            // Invariant: the loop above always pushes at least one block.
            #[allow(clippy::expect_used)]
            let last = x_prev.expect("at least one order block");
            tape.concat(&[x_id, last])
        } else {
            let mut parts = vec![x_id];
            parts.extend(concat_outputs);
            tape.concat(&parts)
        };
        self.head.forward(tape, store, joined)
    }

    /// Predicts gaps for a batch (no dropout). Outputs are clamped at
    /// zero since a gap is non-negative by definition.
    pub fn predict(&self, batch: &Batch) -> Vec<f32> {
        self.predict_masked(batch, &BlockMask::all())
    }

    /// [`DeepSD::predict`] with selected environment blocks skipped
    /// (degraded serving; see [`BlockMask`]).
    pub fn predict_masked(&self, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        let mut tape = Tape::new();
        self.predict_masked_with(&mut tape, batch, mask)
    }

    /// [`DeepSD::predict_masked`] recording onto a caller-owned tape.
    ///
    /// The tape is reset, not replaced, so its node storage and pooled
    /// gather buffers survive between calls. The serving path keeps one
    /// tape per scoring worker ([`deepsd_nn::ShardPool::run_shares`]),
    /// so in steady state it allocates no tape per request.
    pub fn predict_masked_with(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        mask: &BlockMask,
    ) -> Vec<f32> {
        tape.reset();
        let y = self.forward_masked(tape, batch, None, mask);
        tape.value(y)
            .as_slice()
            .iter()
            .map(|&v| v.max(0.0))
            .collect()
    }

    /// The learned weekday combining weights `p` for one
    /// `(AreaID, WeekID)` pair (advanced model only; Fig. 15).
    ///
    /// # Panics
    /// Panics on a basic model.
    pub fn combining_weights(&self, area: usize, week: usize) -> Vec<f32> {
        let OrderPart::Advanced { sd, .. } = &self.order else {
            panic!("combining weights exist only in the advanced model");
        };
        let mut tape = Tape::new();
        let p = sd.combining_weights(&mut tape, &self.store, &self.encoders, &[area], &[week]);
        tape.value(p).row(0).to_vec()
    }

    /// Euclidean distance of two areas in the embedding space
    /// (Table IV). `None` under one-hot encoding.
    pub fn area_distance(&self, a: usize, b: usize) -> Option<f32> {
        self.encoders
            .area
            .as_embedding()
            .map(|e| e.distance(&self.store, a, b))
    }

    /// Takes a parameter snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// Restores parameters from a snapshot (prefix snapshots from before
    /// an [`DeepSD::add_environment_blocks`] call are accepted).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        self.store.restore(snapshot);
    }
}

/// Anything that maps a feature batch to gap predictions.
pub trait Predictor {
    /// Predicts gaps for one batch.
    fn predict(&self, batch: &Batch) -> Vec<f32>;

    /// Predicts with selected environment blocks skipped (degraded
    /// serving). Predictors without detachable blocks ignore the mask.
    fn predict_masked(&self, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        let _ = mask;
        self.predict(batch)
    }

    /// [`Predictor::predict_masked`] recording onto a caller-owned tape,
    /// allowing hot loops to reuse tape storage across requests.
    /// Predictors that do not record on a tape fall back to
    /// [`Predictor::predict_masked`].
    fn predict_masked_with(&self, tape: &mut Tape, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        let _ = tape;
        self.predict_masked(batch, mask)
    }

    /// Hot-swaps this predictor's parameters from a snapshot (continual
    /// learning promotion). Returns `false` when the predictor has no
    /// swappable parameter store, in which case it is unchanged.
    fn install_snapshot(&mut self, snapshot: &Snapshot) -> bool {
        let _ = snapshot;
        false
    }
}

impl Predictor for DeepSD {
    fn predict(&self, batch: &Batch) -> Vec<f32> {
        DeepSD::predict(self, batch)
    }

    fn predict_masked(&self, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        DeepSD::predict_masked(self, batch, mask)
    }

    fn predict_masked_with(&self, tape: &mut Tape, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        DeepSD::predict_masked_with(self, tape, batch, mask)
    }

    fn install_snapshot(&mut self, snapshot: &Snapshot) -> bool {
        self.restore(snapshot);
        true
    }
}

/// A prediction-averaging ensemble of model snapshots — the paper's
/// "final model is the average of the models in the best 10 epochs"
/// (§VI-C), realised as an ensemble over the best epochs' parameters.
#[derive(Debug, Clone)]
pub struct Ensemble {
    members: Vec<DeepSD>,
}

impl Ensemble {
    /// Builds an ensemble. Members should be ordered best-first.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(members: Vec<DeepSD>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Ensemble { members }
    }

    /// The best single member.
    pub fn lead(&self) -> &DeepSD {
        &self.members[0]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Predictor for Ensemble {
    fn predict(&self, batch: &Batch) -> Vec<f32> {
        self.predict_masked(batch, &BlockMask::all())
    }

    fn predict_masked(&self, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        let mut tape = Tape::new();
        self.predict_masked_with(&mut tape, batch, mask)
    }

    fn predict_masked_with(&self, tape: &mut Tape, batch: &Batch, mask: &BlockMask) -> Vec<f32> {
        let mut acc = vec![0.0f32; batch.n];
        for member in &self.members {
            for (a, p) in acc
                .iter_mut()
                .zip(member.predict_masked_with(tape, batch, mask))
            {
                *a += p;
            }
        }
        let inv = 1.0 / self.members.len() as f32;
        acc.iter_mut().for_each(|v| *v *= inv);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Encoding;
    use deepsd_features::{Batch, Item, ItemKey};

    fn tiny_cfg(variant: Variant, env: EnvBlocks, residual: bool) -> ModelConfig {
        let mut cfg = match variant {
            Variant::Basic => ModelConfig::basic(6),
            Variant::Advanced => ModelConfig::advanced(6),
        };
        cfg.window_l = 4;
        cfg.env = env;
        cfg.residual = residual;
        cfg
    }

    fn fake_item(area: u16, gap: f32, l: usize) -> Item {
        let dim = 2 * l;
        Item {
            key: ItemKey {
                area,
                day: 8,
                t: 500,
            },
            weekday: 1,
            gap,
            v_sd: (0..dim).map(|i| 0.1 * i as f32).collect(),
            v_lc: vec![0.2; dim],
            v_wt: vec![0.1; dim],
            h_sd: (0..7 * dim).map(|i| 0.05 * (i % 13) as f32).collect(),
            h_sd_next: vec![0.3; 7 * dim],
            h_lc: vec![0.1; 7 * dim],
            h_lc_next: vec![0.15; 7 * dim],
            h_wt: vec![0.05; 7 * dim],
            h_wt_next: vec![0.1; 7 * dim],
            weather_types: (0..l).map(|i| i % 10).collect(),
            weather_scalars: vec![0.4; dim],
            traffic: vec![0.25; 4 * l],
        }
    }

    fn fake_batch(l: usize) -> Batch {
        Batch::from_items(&[
            fake_item(0, 3.0, l),
            fake_item(3, 0.0, l),
            fake_item(5, 7.0, l),
        ])
    }

    #[test]
    fn basic_model_forward_shape() {
        let model = DeepSD::new(tiny_cfg(Variant::Basic, EnvBlocks::WeatherTraffic, true));
        let batch = fake_batch(4);
        let preds = model.predict(&batch);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|p| p.is_finite() && *p >= 0.0));
    }

    #[test]
    fn advanced_model_forward_shape() {
        let model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::WeatherTraffic, true));
        let preds = model.predict(&fake_batch(4));
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn all_wirings_forward() {
        for variant in [Variant::Basic, Variant::Advanced] {
            for env in [
                EnvBlocks::None,
                EnvBlocks::Weather,
                EnvBlocks::WeatherTraffic,
            ] {
                for residual in [true, false] {
                    let model = DeepSD::new(tiny_cfg(variant, env, residual));
                    let preds = model.predict(&fake_batch(4));
                    assert_eq!(preds.len(), 3, "{variant:?} {env:?} residual={residual}");
                }
            }
        }
    }

    #[test]
    fn onehot_encoding_forwards() {
        let mut cfg = tiny_cfg(Variant::Advanced, EnvBlocks::WeatherTraffic, true);
        cfg.encoding = Encoding::OneHot;
        let model = DeepSD::new(cfg);
        let preds = model.predict(&fake_batch(4));
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn masked_predictions_skip_env_blocks() {
        let model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::WeatherTraffic, true));
        let batch = fake_batch(4);
        let no_weather = BlockMask {
            weather: false,
            traffic: true,
        };
        let no_env = BlockMask {
            weather: false,
            traffic: false,
        };
        // Compare unclamped outputs: an untrained model may predict a
        // negative gap for every item, and clamping would then hide
        // whether a block contributes at all.
        let raw = |mask: &BlockMask| {
            let mut tape = Tape::new();
            let y = model.forward_masked(&mut tape, &batch, None, mask);
            tape.value(y).as_slice().to_vec()
        };
        let full = raw(&BlockMask::all());
        assert_ne!(full, raw(&no_weather), "weather block must contribute");
        assert_ne!(
            raw(&no_weather),
            raw(&no_env),
            "traffic block must contribute"
        );
        for mask in [no_weather, no_env] {
            let clamped = model.predict_masked(&batch, &mask);
            assert!(clamped.iter().all(|p| p.is_finite() && *p >= 0.0));
            let expected: Vec<f32> = raw(&mask).iter().map(|v| v.max(0.0)).collect();
            assert_eq!(clamped, expected);
        }
        // The full mask is the identity.
        assert_eq!(
            model.predict(&batch),
            model.predict_masked(&batch, &BlockMask::all())
        );
    }

    #[test]
    fn masking_no_env_model_is_identity() {
        let model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::None, true));
        let batch = fake_batch(4);
        let mask = BlockMask {
            weather: false,
            traffic: false,
        };
        assert_eq!(model.predict(&batch), model.predict_masked(&batch, &mask));
    }

    #[test]
    fn mask_is_ignored_under_concat_wiring() {
        let model = DeepSD::new(tiny_cfg(Variant::Basic, EnvBlocks::WeatherTraffic, false));
        let batch = fake_batch(4);
        let mask = BlockMask {
            weather: false,
            traffic: false,
        };
        // Concatenation wiring cannot detach blocks; the mask must not
        // change the head's input width (no panic) or the output.
        assert_eq!(model.predict(&batch), model.predict_masked(&batch, &mask));
    }

    #[test]
    fn ensemble_applies_mask_to_members() {
        let cfg = tiny_cfg(Variant::Basic, EnvBlocks::WeatherTraffic, true);
        let model = DeepSD::new(cfg);
        let batch = fake_batch(4);
        let mask = BlockMask {
            weather: false,
            traffic: false,
        };
        let solo = model.predict_masked(&batch, &mask);
        let ens = Ensemble::new(vec![model]);
        assert_eq!(Predictor::predict_masked(&ens, &batch, &mask), solo);
    }

    #[test]
    fn training_step_reduces_loss() {
        use deepsd_nn::Adam;
        let mut model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::WeatherTraffic, true));
        let batch = fake_batch(4);
        let targets = Matrix::col_vector(batch.targets.clone());
        let loss_val = |model: &DeepSD| {
            let mut tape = Tape::new();
            let y = model.forward(&mut tape, &batch, None);
            let l = tape.mse_loss(y, &targets);
            tape.value(l).get(0, 0)
        };
        let before = loss_val(&model);
        let mut adam = Adam::new(0.01, 0.9, 0.999, 1e-8);
        for _ in 0..60 {
            let mut tape = Tape::new();
            let y = model.forward(&mut tape, &batch, None);
            let l = tape.mse_loss(y, &targets);
            let grads = tape.backward(l);
            adam.step(model.store_mut(), &grads);
        }
        let after = loss_val(&model);
        assert!(after < before * 0.5, "before={before} after={after}");
    }

    #[test]
    fn dropout_changes_training_forward_only() {
        let model = DeepSD::new(tiny_cfg(Variant::Basic, EnvBlocks::Weather, true));
        let batch = fake_batch(4);
        let det1 = model.predict(&batch);
        let det2 = model.predict(&batch);
        assert_eq!(det1, det2, "inference is deterministic");
        let mut rng1 = seeded_rng(1);
        let mut rng2 = seeded_rng(2);
        let mut t1 = Tape::new();
        let y1 = model.forward(&mut t1, &batch, Some(&mut rng1));
        let mut t2 = Tape::new();
        let y2 = model.forward(&mut t2, &batch, Some(&mut rng2));
        assert!(
            t1.value(y1).max_abs_diff(t2.value(y2)) > 0.0,
            "dropout must randomise"
        );
    }

    #[test]
    fn finetune_extension_preserves_predictions_structure() {
        // Train-free check: adding env blocks keeps old params intact.
        let mut model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::None, true));
        let n_params_before = model.store().len();
        let snap = model.snapshot();
        model.add_environment_blocks(EnvBlocks::WeatherTraffic);
        assert!(model.store().len() > n_params_before);
        // The old snapshot still restores (prefix property).
        model.restore(&snap);
        let preds = model.predict(&fake_batch(4));
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn combining_weights_sum_to_one() {
        let model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::None, true));
        let p = model.combining_weights(2, 6);
        assert_eq!(p.len(), 7);
        let s: f32 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "advanced model")]
    fn combining_weights_panic_on_basic() {
        let model = DeepSD::new(tiny_cfg(Variant::Basic, EnvBlocks::None, true));
        let _ = model.combining_weights(0, 0);
    }

    #[test]
    fn area_distance_under_encodings() {
        let model = DeepSD::new(tiny_cfg(Variant::Basic, EnvBlocks::None, true));
        assert!(model.area_distance(0, 1).unwrap() > 0.0);
        assert_eq!(model.area_distance(2, 2).unwrap(), 0.0);
        let mut cfg = tiny_cfg(Variant::Basic, EnvBlocks::None, true);
        cfg.encoding = Encoding::OneHot;
        let onehot = DeepSD::new(cfg);
        assert!(onehot.area_distance(0, 1).is_none());
    }

    #[test]
    fn ensemble_prediction_is_mean_of_members() {
        let cfg = tiny_cfg(Variant::Basic, EnvBlocks::None, true);
        let mut a = DeepSD::new(cfg.clone());
        let b = DeepSD::new(ModelConfig {
            seed: cfg.seed + 1,
            ..cfg
        });
        // Make the members differ.
        let first = a.store().iter().next().unwrap().0;
        a.store_mut().get_mut(first).scale(1.5);
        let batch = fake_batch(4);
        let pa = a.predict(&batch);
        let pb = b.predict(&batch);
        let ens = Ensemble::new(vec![a, b]);
        let pe = ens.predict(&batch);
        for i in 0..batch.n {
            // Note: members clamp at 0 before averaging.
            assert!((pe[i] - (pa[i] + pb[i]) / 2.0).abs() < 1e-5);
        }
        assert_eq!(ens.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn ensemble_rejects_empty() {
        let _ = Ensemble::new(vec![]);
    }

    #[test]
    fn parameter_count_is_reasonable() {
        let model = DeepSD::new(tiny_cfg(Variant::Advanced, EnvBlocks::WeatherTraffic, true));
        let n = model.num_parameters();
        assert!(n > 5_000 && n < 200_000, "params = {n}");
    }
}
