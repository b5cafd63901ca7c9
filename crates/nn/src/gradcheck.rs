//! Finite-difference gradient checking.
//!
//! The single most important correctness tool for a hand-rolled autodiff
//! engine: for any scalar-valued forward function over a [`ParamStore`],
//! compare the analytic gradients produced by [`Tape::backward`] against
//! central finite differences, parameter entry by parameter entry.

use crate::params::ParamStore;
use crate::tape::{NodeId, Tape};

/// Result of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Largest relative difference (error / max(1, |numeric|)).
    pub max_rel_err: f32,
    /// Number of scalar entries compared.
    pub entries_checked: usize,
}

/// Compares analytic gradients against central finite differences.
///
/// `forward` must record the loss as a `1 x 1` node on the tape it is
/// given. It will be called `2 * num_scalars + 1` times and must be
/// *deterministic* in the store contents (no dropout, no RNG).
///
/// Returns a report; use [`assert_gradients_close`] in tests.
pub fn check_gradients(
    store: &mut ParamStore,
    eps: f32,
    forward: impl Fn(&mut Tape, &ParamStore) -> NodeId,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::new();
    let loss = forward(&mut tape, store);
    assert_eq!(
        tape.shape(loss),
        (1, 1),
        "gradient check needs a scalar loss"
    );
    let analytic = tape.backward(loss);

    let mut max_abs_err = 0.0f32;
    let mut max_rel_err = 0.0f32;
    let mut entries = 0usize;

    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    for id in ids {
        // Densify once per parameter (gather gradients arrive row-sparse).
        let analytic_dense = analytic.get(id).map(|g| g.to_dense());
        let n = store.get(id).len();
        for k in 0..n {
            let original = store.get(id).as_slice()[k];

            store.get_mut(id).as_mut_slice()[k] = original + eps;
            let mut tp = Tape::new();
            let lp = forward(&mut tp, store);
            let f_plus = tp.value(lp).get(0, 0);

            store.get_mut(id).as_mut_slice()[k] = original - eps;
            let mut tm = Tape::new();
            let lm = forward(&mut tm, store);
            let f_minus = tm.value(lm).get(0, 0);

            store.get_mut(id).as_mut_slice()[k] = original;

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let analytic_entry = analytic_dense.as_ref().map_or(0.0, |g| g.as_slice()[k]);
            let abs_err = (numeric - analytic_entry).abs();
            let rel_err = abs_err / numeric.abs().max(1.0);
            max_abs_err = max_abs_err.max(abs_err);
            max_rel_err = max_rel_err.max(rel_err);
            entries += 1;
        }
    }

    GradCheckReport {
        max_abs_err,
        max_rel_err,
        entries_checked: entries,
    }
}

/// Panics with a diagnostic if the gradient check exceeds `tol` relative
/// error.
pub fn assert_gradients_close(
    store: &mut ParamStore,
    eps: f32,
    tol: f32,
    forward: impl Fn(&mut Tape, &ParamStore) -> NodeId,
) {
    let report = check_gradients(store, eps, forward);
    assert!(
        report.max_rel_err <= tol,
        "gradient check failed: max_rel_err = {} (abs {}), tolerance {}, {} entries",
        report.max_rel_err,
        report.max_abs_err,
        tol,
        report.entries_checked
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layers::{Activation, Dense, Embedding, SoftmaxLayer};
    use crate::matrix::Matrix;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    #[test]
    fn dense_chain_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(21);
        let l1 = Dense::new(&mut store, "l1", 3, 4, Activation::LREL, &mut rng);
        let l2 = Dense::new(&mut store, "l2", 4, 1, Activation::Linear, &mut rng);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let t = Matrix::from_fn(5, 1, |r, _| (r as f32 * 0.5).cos());
        assert_gradients_close(&mut store, EPS, TOL, |tape, store| {
            let xi = tape.input(x.clone());
            let h = l1.forward(tape, store, xi);
            let y = l2.forward(tape, store, h);
            tape.mse_loss(y, &t)
        });
    }

    #[test]
    fn embedding_concat_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(22);
        let area = Embedding::new(&mut store, "area", 6, 3, &mut rng);
        let week = Embedding::new(&mut store, "week", 7, 2, &mut rng);
        let head = Dense::new(&mut store, "head", 5, 1, Activation::Linear, &mut rng);
        let t = Matrix::from_vec(4, 1, vec![0.3, -0.4, 1.0, 0.0]);
        assert_gradients_close(&mut store, EPS, TOL, |tape, store| {
            let a = area.forward(tape, store, &[0, 3, 3, 5]);
            let w = week.forward(tape, store, &[6, 0, 1, 1]);
            let c = tape.concat(&[a, w]);
            let y = head.forward(tape, store, c);
            tape.mse_loss(y, &t)
        });
    }

    #[test]
    fn softmax_weighted_combine_gradcheck() {
        // The advanced model's weekday-combining path (Fig. 8 + Eq. 1).
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(23);
        let area = Embedding::new(&mut store, "area", 4, 3, &mut rng);
        let week = Embedding::new(&mut store, "week", 7, 2, &mut rng);
        let softmax = SoftmaxLayer::new(&mut store, "combine", 5, 7, &mut rng);
        let head = Dense::new(&mut store, "head", 4, 1, Activation::Linear, &mut rng);
        let dim = 4usize;
        let basis = Matrix::from_fn(3, 7 * dim, |r, c| ((r + c) as f32 * 0.11).sin());
        let t = Matrix::from_vec(3, 1, vec![0.5, -0.2, 0.9]);
        assert_gradients_close(&mut store, EPS, TOL, |tape, store| {
            let a = area.forward(tape, store, &[1, 0, 3]);
            let w = week.forward(tape, store, &[2, 6, 0]);
            let c = tape.concat(&[a, w]);
            let p = softmax.forward(tape, store, c);
            let e = tape.weighted_combine(p, basis.clone(), dim);
            let y = head.forward(tape, store, e);
            tape.mse_loss(y, &t)
        });
    }

    #[test]
    fn residual_block_gradcheck() {
        // X_out = X_in ⊕ FC(concat(X_in, V)) — the paper's block residual.
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(24);
        let base = Dense::new(&mut store, "base", 3, 4, Activation::LREL, &mut rng);
        let res1 = Dense::new(&mut store, "res1", 4 + 2, 6, Activation::LREL, &mut rng);
        let res2 = Dense::new(&mut store, "res2", 6, 4, Activation::Linear, &mut rng);
        let head = Dense::new(&mut store, "head", 4, 1, Activation::Linear, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| ((r + 2 * c) as f32 * 0.21).cos());
        let env = Matrix::from_fn(4, 2, |r, c| ((r * 2 + c) as f32 * 0.17).sin());
        let t = Matrix::from_vec(4, 1, vec![1.0, 0.0, -1.0, 2.0]);
        assert_gradients_close(&mut store, EPS, TOL, |tape, store| {
            let xi = tape.input(x.clone());
            let xsd = base.forward(tape, store, xi);
            let envi = tape.input(env.clone());
            let cat = tape.concat(&[xsd, envi]);
            let r = res1.forward(tape, store, cat);
            let r = res2.forward(tape, store, r);
            let out = tape.add(xsd, r);
            let y = head.forward(tape, store, out);
            tape.mse_loss(y, &t)
        });
    }

    #[test]
    fn sub_scale_slice_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(25);
        let proj = Dense::new(&mut store, "proj", 6, 4, Activation::Linear, &mut rng);
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.13).sin());
        let e = Matrix::from_fn(3, 6, |r, c| ((r * 6 + c) as f32 * 0.29).cos());
        assert_gradients_close(&mut store, EPS, TOL, |tape, store| {
            // Proj(V) - Proj(E) + Proj(E'): the deviation estimator of §V-A.2.
            let xv = tape.input(x.clone());
            let xe = tape.input(e.clone());
            let pv = proj.forward(tape, store, xv);
            let pe = proj.forward(tape, store, xe);
            let dev = tape.sub(pv, pe);
            let est = tape.add(pe, dev);
            let sl = tape.slice_cols(est, 1, 2);
            let sc = tape.scale(sl, 0.5);
            tape.mean(sc)
        });
    }
}
