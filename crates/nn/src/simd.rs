//! Fixed-width lane folds for elementwise hot loops.
//!
//! The GEMM microkernels in [`crate::kernels`] cover the matrix
//! products, but training also spends real time in elementwise sweeps:
//! gradient accumulation, the Adam update rule, residual adds,
//! activation backward masks. Plain `iter_mut().zip(..)` loops over
//! `&[f32]` vectorize only when the optimizer feels like it; rewriting
//! the body over fixed-width `[f32; 8]` lane arrays (via
//! `chunks_exact`) gives the autovectorizer a shape it lowers to SIMD
//! reliably on stable rustc, on any architecture, with a scalar tail
//! for the remainder.
//!
//! Every helper applies an independent per-element operation — no
//! cross-lane reduction — so lane width cannot change results: output
//! bit `i` depends only on input bit `i`, exactly as in the scalar
//! loop it replaces.

/// Lane width: one AVX2 vector of `f32`, and a comfortable unroll for
/// NEON or SSE targets.
pub const LANES: usize = 8;

/// Applies `f(&mut out[i], src[i])` for every `i`, lane-folded.
#[inline]
// deepsd-lint: allow(panic-reach, reason="chunks_exact(LANES) guarantees the try_into width")
pub fn zip_fold(out: &mut [f32], src: &[f32], f: impl Fn(&mut f32, f32)) {
    debug_assert_eq!(out.len(), src.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut sc = src.chunks_exact(LANES);
    for (o, s) in (&mut oc).zip(&mut sc) {
        let o: &mut [f32; LANES] = o.try_into().expect("chunk is LANES wide");
        let s: &[f32; LANES] = s.try_into().expect("chunk is LANES wide");
        for (ov, &sv) in o.iter_mut().zip(s) {
            f(ov, sv);
        }
    }
    for (ov, &sv) in oc.into_remainder().iter_mut().zip(sc.remainder()) {
        f(ov, sv);
    }
}

/// Applies `f(&mut out[i])` for every `i`, lane-folded.
#[inline]
pub fn map_fold(out: &mut [f32], f: impl Fn(&mut f32)) {
    let mut oc = out.chunks_exact_mut(LANES);
    for o in &mut oc {
        let o: &mut [f32; LANES] = o.try_into().expect("chunk is LANES wide");
        o.iter_mut().for_each(&f);
    }
    oc.into_remainder().iter_mut().for_each(&f);
}

/// `out[i] += src[i]`.
#[inline]
pub fn add_assign(out: &mut [f32], src: &[f32]) {
    zip_fold(out, src, |o, s| *o += s);
}

/// `out[i] -= src[i]`.
#[inline]
pub fn sub_assign(out: &mut [f32], src: &[f32]) {
    zip_fold(out, src, |o, s| *o -= s);
}

/// `out[i] += alpha * src[i]` (separate multiply and add — two IEEE
/// roundings, same as the scalar loop; no FMA contraction).
#[inline]
pub fn axpy(out: &mut [f32], alpha: f32, src: &[f32]) {
    zip_fold(out, src, |o, s| *o += alpha * s);
}

/// `out[i] *= src[i]`.
#[inline]
pub fn hadamard(out: &mut [f32], src: &[f32]) {
    zip_fold(out, src, |o, s| *o *= s);
}

/// `out[i] *= alpha`.
#[inline]
pub fn scale(out: &mut [f32], alpha: f32) {
    map_fold(out, |o| *o *= alpha);
}

/// Sum of `src` as the strict left-to-right scalar fold. A reduction,
/// not a map — kept scalar on purpose: lane-splitting a sum would
/// change the association order and therefore the bits.
#[inline]
pub fn sum(src: &[f32]) -> f32 {
    src.iter().fold(0.0f32, |acc, &v| acc + v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(747796405).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 9) as f32 / (1u32 << 21) as f32 - 2.0
            })
            .collect()
    }

    #[test]
    fn folds_match_scalar_loops_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let src = vals(n, 3);
            let base = vals(n, 4);

            let mut got = base.clone();
            add_assign(&mut got, &src);
            let mut want = base.clone();
            want.iter_mut().zip(&src).for_each(|(o, s)| *o += s);
            assert_eq!(bits(&got), bits(&want), "add n={n}");

            let mut got = base.clone();
            sub_assign(&mut got, &src);
            let mut want = base.clone();
            want.iter_mut().zip(&src).for_each(|(o, s)| *o -= s);
            assert_eq!(bits(&got), bits(&want), "sub n={n}");

            let mut got = base.clone();
            axpy(&mut got, 1.25, &src);
            let mut want = base.clone();
            want.iter_mut().zip(&src).for_each(|(o, s)| *o += 1.25 * s);
            assert_eq!(bits(&got), bits(&want), "axpy n={n}");

            let mut got = base.clone();
            hadamard(&mut got, &src);
            let mut want = base.clone();
            want.iter_mut().zip(&src).for_each(|(o, s)| *o *= s);
            assert_eq!(bits(&got), bits(&want), "hadamard n={n}");

            let mut got = base.clone();
            scale(&mut got, -0.37);
            let mut want = base.clone();
            want.iter_mut().for_each(|o| *o *= -0.37);
            assert_eq!(bits(&got), bits(&want), "scale n={n}");
        }
    }

    #[test]
    fn sum_is_left_to_right() {
        let src = vals(100, 7);
        let want = src.iter().fold(0.0f32, |acc, &v| acc + v);
        assert_eq!(sum(&src).to_bits(), want.to_bits());
    }

    #[test]
    fn nan_and_inf_pass_through() {
        let mut out = vec![1.0f32; 9];
        let mut src = vec![0.5f32; 9];
        src[3] = f32::NAN;
        src[8] = f32::INFINITY;
        add_assign(&mut out, &src);
        assert!(out[3].is_nan());
        assert!(out[8].is_infinite());
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
