//! Property-based tests for the NN substrate, run over seeded cases
//! (`deepsd_rng::cases`).

use deepsd_nn::{
    matmul_nt_ref, matmul_ref, matmul_tn_ref, seeded_rng, set_num_threads, with_kernel_path, Init,
    KernelPath, Matrix, ParamStore, Snapshot, Tape,
};
use deepsd_rng::{cases, Rng};

const CASES: u64 = 64;

/// The microkernel paths the host can execute (scalar and lane always;
/// AVX2 when the CPU has it).
fn supported_paths() -> Vec<KernelPath> {
    KernelPath::ALL
        .into_iter()
        .filter(|p| p.supported())
        .collect()
}

fn small_dim(case: &mut Rng) -> usize {
    case.gen_range(1usize..8)
}

/// Dimensions that exercise every kernel path: empty, single row/col
/// (degenerate tiles), and sizes past the register tile with ragged
/// remainders.
fn ragged_dim(case: &mut Rng) -> usize {
    match case.below(3) {
        0 => 0,
        1 => 1,
        _ => case.gen_range(2usize..70),
    }
}

fn ragged_dims(case: &mut Rng) -> (usize, usize, usize) {
    (ragged_dim(case), ragged_dim(case), ragged_dim(case))
}

fn small_dims(case: &mut Rng) -> (usize, usize, usize) {
    (small_dim(case), small_dim(case), small_dim(case))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn matrix(case: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| case.gen_range(-10.0f32..10.0))
}

#[test]
fn matmul_distributes_over_addition() {
    cases(CASES, |case| {
        let (m, k, n) = small_dims(case);
        let mut rng = seeded_rng(1);
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        let c = Init::Uniform(1.0).sample(k, n, &mut rng);
        // a @ (b + c) == a @ b + a @ c
        let lhs = a.matmul(&b.clone().add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    });
}

#[test]
fn matmul_associates_with_scaling() {
    cases(CASES, |case| {
        let (m, k) = (small_dim(case), small_dim(case));
        let alpha = case.gen_range(-3.0f32..3.0);
        let mut rng = seeded_rng(2);
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(k, m, &mut rng);
        let lhs = a.scaled(alpha).matmul(&b);
        let rhs = a.matmul(&b).scaled(alpha);
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    });
}

#[test]
fn transpose_matmul_identity() {
    cases(CASES, |case| {
        let (m, k, n) = small_dims(case);
        let mut rng = seeded_rng(3);
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        // (A B)ᵀ = Bᵀ Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    });
}

#[test]
fn blocked_matmul_bits_match_reference() {
    cases(CASES, |case| {
        let (m, k, n) = ragged_dims(case);
        let mut rng = seeded_rng(7);
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        assert_eq!(bits(&a.matmul(&b)), bits(&matmul_ref(&a, &b)));
    });
}

#[test]
fn blocked_matmul_tn_bits_match_reference() {
    cases(CASES, |case| {
        let (m, k, n) = ragged_dims(case);
        let mut rng = seeded_rng(8);
        // `a` is stored transposed (k x m); matmul_tn computes aᵀ @ b.
        let a = Init::Uniform(1.0).sample(k, m, &mut rng);
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        assert_eq!(bits(&a.matmul_tn(&b)), bits(&matmul_tn_ref(&a, &b)));
    });
}

#[test]
fn blocked_matmul_nt_bits_match_reference() {
    cases(CASES, |case| {
        let (m, k, n) = ragged_dims(case);
        let mut rng = seeded_rng(9);
        // `b` is stored transposed (n x k); matmul_nt computes a @ bᵀ.
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(n, k, &mut rng);
        assert_eq!(bits(&a.matmul_nt(&b)), bits(&matmul_nt_ref(&a, &b)));
    });
}

#[test]
fn every_kernel_path_matches_reference_at_every_thread_count() {
    cases(CASES, |case| {
        let (m, k, n) = ragged_dims(case);
        let mut rng = seeded_rng(10);
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        let reference = matmul_ref(&a, &b);
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            for path in supported_paths() {
                let got = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
                assert_eq!(
                    bits(&got),
                    bits(&reference),
                    "path {path} at {threads} threads diverged from the scalar reference"
                );
            }
        }
        set_num_threads(0);
    });
}

#[test]
fn every_kernel_path_matches_reference_tn_nt() {
    cases(CASES, |case| {
        let (m, k, n) = ragged_dims(case);
        let mut rng = seeded_rng(11);
        let at = Init::Uniform(1.0).sample(k, m, &mut rng); // stored transposed
        let b = Init::Uniform(1.0).sample(k, n, &mut rng);
        let bt = Init::Uniform(1.0).sample(n, k, &mut rng); // stored transposed
        let a = Init::Uniform(1.0).sample(m, k, &mut rng);
        let tn_ref = matmul_tn_ref(&at, &b);
        let nt_ref = matmul_nt_ref(&a, &bt);
        for threads in [1usize, 2, 8] {
            set_num_threads(threads);
            for path in supported_paths() {
                let (tn, nt) = with_kernel_path(path, || (at.matmul_tn(&b), a.matmul_nt(&bt)))
                    .expect("path supported");
                assert_eq!(bits(&tn), bits(&tn_ref), "tn path {path} threads {threads}");
                assert_eq!(bits(&nt), bits(&nt_ref), "nt path {path} threads {threads}");
            }
        }
        set_num_threads(0);
    });
}

#[test]
fn hconcat_slice_roundtrip() {
    cases(CASES, |case| {
        let rows = case.gen_range(1usize..5);
        let w1 = case.gen_range(1usize..6);
        let w2 = case.gen_range(1usize..6);
        let mut rng = seeded_rng(4);
        let a = Init::Uniform(2.0).sample(rows, w1, &mut rng);
        let b = Init::Uniform(2.0).sample(rows, w2, &mut rng);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.columns(0, w1), a);
        assert_eq!(cat.columns(w1, w2), b);
    });
}

#[test]
fn softmax_rows_are_distributions() {
    cases(CASES, |case| {
        let mut tape = Tape::new();
        let x = tape.input(matrix(case, 3, 5));
        let s = tape.softmax_rows(x);
        let v = tape.value(s);
        for r in 0..v.rows() {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(v.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    });
}

#[test]
fn weighted_combine_with_onehot_weights_selects_basis() {
    cases(CASES, |case| {
        let k = case.gen_range(1usize..6);
        let dim = case.gen_range(1usize..5);
        let which = case.gen_range(0usize..6) % k;
        let mut tape = Tape::new();
        let mut w = Matrix::zeros(1, k);
        w.set(0, which, 1.0);
        let wn = tape.input(w);
        let mut rng = seeded_rng(5);
        let basis = Init::Uniform(3.0).sample(1, k * dim, &mut rng);
        let out = tape.weighted_combine(wn, basis.clone(), dim);
        let expected = basis.columns(which * dim, dim);
        assert!(tape.value(out).max_abs_diff(&expected) < 1e-5);
    });
}

#[test]
fn residual_add_backward_matches_sum_rule() {
    cases(CASES, |case| {
        // d/dx sum(x + x) = 2 everywhere.
        let mut store = ParamStore::new();
        let id = store.add("x", matrix(case, 2, 4));
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let y = tape.add(x, x);
        let loss = tape.sum(y);
        let grads = tape.backward(loss);
        let g = grads.get(id).unwrap().to_dense();
        assert!(g.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-5));
    });
}

#[test]
fn dropout_expectation_is_preserved() {
    cases(CASES, |case| {
        let rate = case.gen_range(0.0f32..0.9);
        let mut tape = Tape::new();
        let mut rng = seeded_rng(6);
        let x = tape.input(Matrix::full(1, 4000, 1.0));
        let y = tape.dropout(x, rate, &mut rng);
        let mean = tape.value(y).mean();
        assert!((mean - 1.0).abs() < 0.12, "rate {rate} mean {mean}");
    });
}

#[test]
fn snapshot_average_commutes_with_restore() {
    cases(CASES, |case| {
        let m = matrix(case, 2, 3);
        let mut s1 = ParamStore::new();
        let id = s1.add("w", m.clone());
        let snap1 = s1.snapshot();
        s1.get_mut(id).scale(3.0);
        let snap3 = s1.snapshot();
        let avg = Snapshot::average(&[snap1, snap3]);
        s1.restore(&avg);
        let expected = m.scaled(2.0);
        assert!(s1.get(id).max_abs_diff(&expected) < 1e-4);
    });
}

#[test]
fn mse_loss_is_nonnegative_and_zero_iff_equal() {
    cases(CASES, |case| {
        let m = matrix(case, 2, 3);
        let mut tape = Tape::new();
        let p = tape.input(m.clone());
        let loss = tape.mse_loss(p, &m);
        assert!(tape.value(loss).get(0, 0).abs() < 1e-6);
        let mut shifted = m.clone();
        shifted.as_mut_slice()[0] += 1.0;
        let mut tape2 = Tape::new();
        let p2 = tape2.input(shifted);
        let loss2 = tape2.mse_loss(p2, &m);
        assert!(tape2.value(loss2).get(0, 0) > 0.0);
    });
}

#[test]
fn gather_then_sum_equals_row_sums() {
    cases(CASES, |case| {
        let len = case.gen_range(1usize..10);
        let ids: Vec<usize> = (0..len).map(|_| case.gen_range(0usize..4)).collect();
        let table = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let mut tape = Tape::new();
        let t = tape.input(table.clone());
        let g = tape.gather(t, &ids);
        let total = tape.sum(g);
        let expected: f32 = ids.iter().map(|&i| table.row(i).iter().sum::<f32>()).sum();
        assert!((tape.value(total).get(0, 0) - expected).abs() < 1e-3);
    });
}

#[test]
fn leaky_relu_is_monotone() {
    cases(CASES, |case| {
        let (a, b) = (case.gen_range(-5.0f32..5.0), case.gen_range(-5.0f32..5.0));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_vec(1, 2, vec![lo, hi]));
        let y = tape.leaky_relu(x, 0.001);
        let v = tape.value(y);
        assert!(v.get(0, 0) <= v.get(0, 1) + 1e-7);
    });
}
