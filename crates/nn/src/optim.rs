//! Optimisers.
//!
//! The paper trains DeepSD with Adam (§VI-B.3, batch size 64).
//! Optimiser state is indexed by parameter position so it grows naturally
//! when fine-tuning appends new parameters to the store (§V-C).

use crate::matrix::Matrix;
use crate::params::ParamStore;
use crate::simd::LANES;
use crate::tape::{Grad, GradMap};

/// One Adam update over a contiguous slice of weights/gradients/moments,
/// lane-folded over fixed-width `[f32; LANES]` chunks so the per-element
/// rule (`vsqrtps`/`vdivps` included) autovectorizes; the rule itself is
/// per-element independent, so lane width cannot change any bit.
///
/// Both the dense path (whole parameter) and the row-sparse path (one
/// touched row at a time) funnel through this helper, so the two produce
/// bit-identical arithmetic on the elements they touch.
#[allow(clippy::too_many_arguments)]
#[inline]
fn adam_update_slice(
    w: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    let step = |w: &mut f32, g: f32, mm: &mut f32, vv: &mut f32| {
        *mm = b1 * *mm + (1.0 - b1) * g;
        *vv = b2 * *vv + (1.0 - b2) * g * g;
        let m_hat = *mm / bc1;
        let v_hat = *vv / bc2;
        *w -= lr * m_hat / (v_hat.sqrt() + eps);
    };
    let mut wc = w.chunks_exact_mut(LANES);
    let mut gc = g.chunks_exact(LANES);
    let mut mc = m.chunks_exact_mut(LANES);
    let mut vc = v.chunks_exact_mut(LANES);
    for (((wl, gl), ml), vl) in (&mut wc).zip(&mut gc).zip(&mut mc).zip(&mut vc) {
        let wl: &mut [f32; LANES] = wl.try_into().expect("chunk is LANES wide");
        let gl: &[f32; LANES] = gl.try_into().expect("chunk is LANES wide");
        let ml: &mut [f32; LANES] = ml.try_into().expect("chunk is LANES wide");
        let vl: &mut [f32; LANES] = vl.try_into().expect("chunk is LANES wide");
        for ((wi, (&gi, mi)), vi) in wl
            .iter_mut()
            .zip(gl.iter().zip(ml.iter_mut()))
            .zip(vl.iter_mut())
        {
            step(wi, gi, mi, vi);
        }
    }
    for ((wi, (&gi, mi)), vi) in wc
        .into_remainder()
        .iter_mut()
        .zip(gc.remainder().iter().zip(mc.into_remainder().iter_mut()))
        .zip(vc.into_remainder().iter_mut())
    {
        step(wi, gi, mi, vi);
    }
}

/// Adaptive Moment Estimation (Kingma & Ba, 2014).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (default `1e-3`).
    pub lr: f32,
    /// First-moment decay (default `0.9`).
    pub beta1: f32,
    /// Second-moment decay (default `0.999`).
    pub beta2: f32,
    /// Numerical stabiliser (default `1e-8`).
    pub eps: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Creates an Adam optimiser with explicit hyper-parameters.
    pub fn new(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Default hyper-parameters sized to a store.
    pub fn default_for(store: &ParamStore) -> Self {
        let mut a = Adam::new(1e-3, 0.9, 0.999, 1e-8);
        a.m.resize_with(store.len(), || None);
        a.v.resize_with(store.len(), || None);
        a
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update using the gradients in `grads`.
    ///
    /// Parameters without a gradient this step keep their moment state
    /// untouched (their bias-correction still advances with `t`, matching
    /// the common sparse-Adam simplification). Row-sparse gradients — the
    /// output of embedding gathers — extend the same rule to individual
    /// rows: only the gathered rows' weights and moments are read or
    /// written, so the step costs O(touched rows · cols) regardless of
    /// vocabulary size, and an untouched row's moments stay frozen until
    /// its next touch, at which point the *global* `t` drives its bias
    /// correction. For any step in which a row is touched, the arithmetic
    /// is bit-identical to densifying the gradient first (zero-gradient
    /// rows under a dense update decay their moments toward zero, which
    /// the lazy scheme skips — that is the single, deliberate divergence).
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradMap) {
        self.t += 1;
        if self.m.len() < store.len() {
            self.m.resize_with(store.len(), || None);
            self.v.resize_with(store.len(), || None);
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, grad) in grads.iter() {
            let idx = id.index();
            let value = store.get_mut(id);
            let (rows, cols) = value.shape();
            let m = self.m[idx].get_or_insert_with(|| Matrix::zeros(rows, cols));
            let v = self.v[idx].get_or_insert_with(|| Matrix::zeros(rows, cols));
            debug_assert_eq!(m.shape(), (rows, cols), "Adam moment shape mismatch");
            debug_assert_eq!(grad.shape(), (rows, cols), "Adam gradient shape mismatch");
            let lr = self.lr;
            let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
            match grad {
                Grad::Dense(g) => adam_update_slice(
                    value.as_mut_slice(),
                    g.as_slice(),
                    m.as_mut_slice(),
                    v.as_mut_slice(),
                    lr,
                    b1,
                    b2,
                    eps,
                    bc1,
                    bc2,
                ),
                Grad::RowSparse {
                    indices,
                    rows: packed,
                    ..
                } => {
                    for (i, &r) in indices.iter().enumerate() {
                        adam_update_slice(
                            value.row_mut(r),
                            packed.row(i),
                            m.row_mut(r),
                            v.row_mut(r),
                            lr,
                            b1,
                            b2,
                            eps,
                            bc1,
                            bc2,
                        );
                    }
                }
            }
        }
    }

    /// Resets step count and moments (used when restarting training).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m.clear();
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tape::Tape;

    /// loss(w) = (w - 3)^2, minimised at w = 3.
    fn quadratic_grad(store: &ParamStore, id: crate::params::ParamId) -> (f32, GradMap) {
        let mut tape = Tape::new();
        let w = tape.param(store, id);
        let target = Matrix::from_vec(1, 1, vec![3.0]);
        let loss = tape.mse_loss(w, &target);
        let value = tape.value(loss).get(0, 0);
        let grads = tape.backward(loss);
        (value, grads)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 1, vec![-5.0]));
        let mut adam = Adam::new(0.1, 0.9, 0.999, 1e-8);
        for _ in 0..500 {
            let (_, grads) = quadratic_grad(&store, id);
            adam.step(&mut store, &grads);
        }
        let w = store.get(id).get(0, 0);
        assert!((w - 3.0).abs() < 0.05, "w = {w}");
    }

    #[test]
    fn adam_first_step_moves_against_gradient_by_lr() {
        // With bias correction, the very first Adam step is ±lr.
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let (_, grads) = quadratic_grad(&store, id); // grad = 2*(0-3) = -6
        adam.step(&mut store, &grads);
        let w = store.get(id).get(0, 0);
        assert!((w - 0.01).abs() < 1e-4, "w = {w}");
    }

    #[test]
    fn adam_state_grows_with_store_for_finetuning() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::default_for(&store);
        let (_, grads) = quadratic_grad(&store, a);
        adam.step(&mut store, &grads);
        // Fine-tuning: new parameter appended after optimiser creation.
        let b = store.add("b", Matrix::from_vec(1, 1, vec![0.0]));
        let (_, grads_b) = quadratic_grad(&store, b);
        adam.step(&mut store, &grads_b); // must not panic
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::default_for(&store);
        let (_, grads) = quadratic_grad(&store, id);
        adam.step(&mut store, &grads);
        adam.reset();
        assert_eq!(adam.steps(), 0);
    }

    fn build_embedding_model() -> (ParamStore, crate::params::ParamId) {
        use crate::init::seeded_rng;
        use crate::layers::Embedding;
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(42);
        let emb = Embedding::new(&mut store, "emb", 6, 3, &mut rng);
        (store, emb.param())
    }

    /// Forward: gather rows (with duplicates) from the table twice —
    /// modelling a table shared by two inputs — and take the mean.
    fn shared_embedding_grads(store: &ParamStore, ids_a: &[usize], ids_b: &[usize]) -> GradMap {
        let table = store.find("emb.table").unwrap();
        let mut tape = Tape::new();
        let t = tape.param(store, table);
        let a = tape.gather(t, ids_a);
        let b = tape.gather(t, ids_b);
        let cat = tape.concat(&[a, b]);
        let target = Matrix::zeros(ids_a.len(), 6);
        let loss = tape.mse_loss(cat, &target);
        tape.backward(loss)
    }

    fn densify(grads: &GradMap) -> GradMap {
        let mut out = GradMap::default();
        for (id, g) in grads.iter() {
            out.accumulate(id, crate::tape::Grad::Dense(g.to_dense()));
        }
        out
    }

    #[test]
    fn sparse_adam_first_step_matches_dense_bitwise() {
        // From fresh moments, a dense zero-gradient row moves nothing, so
        // sparse and dense first steps agree on every row, bit for bit.
        let (store_a, table) = build_embedding_model();
        let mut store_b = store_a.clone();
        let mut store_a = store_a;
        // Duplicate ids in one batch; rows 0 and 5 untouched.
        let grads = shared_embedding_grads(&store_a, &[1, 2, 2], &[3, 4, 1]);
        assert!(grads.get(table).unwrap().is_sparse());
        let dense = densify(&grads);

        let mut adam_a = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut adam_b = Adam::new(0.01, 0.9, 0.999, 1e-8);
        adam_a.step(&mut store_a, &grads);
        adam_b.step(&mut store_b, &dense);
        assert!(store_a.get(table).max_abs_diff(store_b.get(table)) == 0.0);
    }

    #[test]
    fn sparse_adam_matches_dense_when_every_row_is_touched() {
        // When every row is gathered each step, the lazy scheme never
        // freezes a moment, so multi-step trajectories agree bitwise.
        let (store_a, table) = build_embedding_model();
        let mut store_b = store_a.clone();
        let mut store_a = store_a;
        let mut adam_a = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut adam_b = Adam::new(0.01, 0.9, 0.999, 1e-8);
        for _ in 0..5 {
            let grads = shared_embedding_grads(&store_a, &[0, 1, 2], &[3, 4, 5]);
            let dense = densify(&shared_embedding_grads(&store_b, &[0, 1, 2], &[3, 4, 5]));
            adam_a.step(&mut store_a, &grads);
            adam_b.step(&mut store_b, &dense);
        }
        assert!(store_a.get(table).max_abs_diff(store_b.get(table)) == 0.0);
    }

    #[test]
    fn sparse_adam_leaves_untouched_rows_and_moments_alone() {
        let (store, table) = build_embedding_model();
        let mut store = store;
        let before = store.get(table).clone();
        let mut adam = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let grads = shared_embedding_grads(&store, &[1, 2, 2], &[3, 1, 2]);
        adam.step(&mut store, &grads);
        // Rows 0, 4, 5 were never gathered: identical bits.
        for r in [0usize, 4, 5] {
            assert_eq!(store.get(table).row(r), before.row(r), "row {r} moved");
        }
        // Touched rows moved.
        for r in [1usize, 2, 3] {
            assert_ne!(store.get(table).row(r), before.row(r), "row {r} frozen");
        }
    }
}
