//! Cache-blocked, register-tiled GEMM kernels with explicit-SIMD
//! microkernels.
//!
//! These back the three matrix-product orientations used by backprop
//! ([`Matrix::matmul`], [`Matrix::matmul_tn`], [`Matrix::matmul_nt`]).
//! The design goals, in order:
//!
//! 1. **Bit-identical results on any microkernel path and under any
//!    blocking.** Every output cell is accumulated by exactly one
//!    `+= a * b` (an IEEE-754 multiply then an add, each rounded once)
//!    per reduction index, in strictly increasing reduction order.
//!    Blocking and dispatch only change in what order cells are visited
//!    and how many cells one instruction covers — never the reduction
//!    order or the per-element arithmetic within a cell — so every path
//!    equals the scalar reference ([`matmul_ref`] and friends) bit for
//!    bit. The AVX2 microkernel deliberately uses `mul` + `add` rather
//!    than a fused multiply-add: FMA rounds once where the scalar
//!    reference rounds twice, which would break bit identity.
//! 2. **Throughput.** Output rows are processed in `MR x NR` register
//!    tiles. Three interchangeable microkernels compute a full tile:
//!    a scalar loop (the portable floor and the dispatch oracle), a
//!    fixed-width lane fold over `[f32; NR]` arrays that stable rustc's
//!    autovectorizer reliably turns into SIMD, and an audited
//!    `std::arch` AVX2 kernel selected at runtime with
//!    `is_x86_feature_detected!`. The reduction dimension is split into
//!    `kc`-long panels so the right-hand panel stays in cache; strided
//!    operands (the left side of `tn`, the right side of `nt`) are
//!    packed into contiguous panels before the tile loop.
//! 3. **No threads.** Every GEMM runs on the calling thread, in blocks
//!    of at most `mc` output rows. The products DeepSD runs are small
//!    (an 8-row training shard, a 58-row serving batch), and spawning
//!    and joining scoped workers cost more than their arithmetic.
//!    Parallelism lives one level up, where the work is coarse: the
//!    shard pool ([`crate::ShardPool`]) runs training shards and the
//!    area shares of a served slot, and the trainer's chunk workers run
//!    evaluation batches.
//!
//! The blocking parameters (`mc`, `kc`) are process-global runtime
//! values with fixed defaults. Because blocking cannot change per-cell
//! arithmetic, any values preserve bit identity; [`set_tuning`] exists
//! so tests can assert exactly that.

use crate::matrix::Matrix;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (one AVX2 vector of f32 lanes).
const NR: usize = 8;

/// Default reduction-panel length (per-panel right-hand slab is
/// `kc x n` floats).
const KC_DEFAULT: usize = 256;
/// Default output rows per block.
const MC_DEFAULT: usize = 64;

static MC_ROWS: AtomicUsize = AtomicUsize::new(MC_DEFAULT);
static KC_LEN: AtomicUsize = AtomicUsize::new(KC_DEFAULT);

static DISPATCH_SCALAR: AtomicU64 = AtomicU64::new(0);
static DISPATCH_LANE: AtomicU64 = AtomicU64::new(0);
static DISPATCH_AVX2: AtomicU64 = AtomicU64::new(0);

/// Forced path: 0 = unset, otherwise `KernelPath as usize + 1`.
static FORCED_PATH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Scoped per-thread override used by [`with_kernel_path`]; takes
    /// precedence over the process-global forced path. Resolution
    /// happens once per GEMM call, on the thread that runs it.
    static TL_PATH: Cell<Option<KernelPath>> = const { Cell::new(None) };
}

// ---------------------------------------------------------------------------
// Microkernel dispatch
// ---------------------------------------------------------------------------

/// Which microkernel computes full `MR x NR` register tiles.
///
/// All three produce bit-identical output (tested); they differ only in
/// how many cells one instruction covers. Ragged edge tiles always run
/// the scalar fold regardless of path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// Plain nested loops; the portable floor and the dispatch oracle.
    Scalar,
    /// Fixed-width `[f32; 8]` lane folds the autovectorizer turns into
    /// SIMD on stable rustc, on any architecture.
    Lane,
    /// Hand-written `std::arch` AVX2 microkernel (x86-64 only, selected
    /// at runtime via `is_x86_feature_detected!`).
    Avx2,
}

impl KernelPath {
    /// Every path, in escalation order.
    pub const ALL: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Lane, KernelPath::Avx2];

    /// Canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Lane => "lane",
            KernelPath::Avx2 => "avx2",
        }
    }

    /// True when this path can run on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            KernelPath::Scalar | KernelPath::Lane => true,
            KernelPath::Avx2 => avx2_supported(),
        }
    }
}

impl std::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A requested kernel path the current CPU cannot execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedKernelPath(pub KernelPath);

impl std::fmt::Display for UnsupportedKernelPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel path '{}' is not supported on this CPU", self.0)
    }
}

impl std::error::Error for UnsupportedKernelPath {}

/// True when the CPU supports the AVX2 microkernel.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Forces every subsequent GEMM in the process onto `path`.
///
/// Fails without changing anything if the CPU cannot run `path`.
/// Results are bit-identical on every path; forcing exists for tests
/// and benchmarks.
pub fn force_kernel_path(path: KernelPath) -> Result<(), UnsupportedKernelPath> {
    if !path.supported() {
        return Err(UnsupportedKernelPath(path));
    }
    FORCED_PATH.store(path as usize + 1, Ordering::Relaxed);
    Ok(())
}

/// Clears a [`force_kernel_path`] override, restoring auto-detection.
pub fn clear_forced_kernel_path() {
    FORCED_PATH.store(0, Ordering::Relaxed);
}

/// Runs `f` with every GEMM issued *from this thread* dispatched to
/// `path`, then restores the previous override. GEMMs run on the
/// calling thread, so the whole product runs on `path`.
///
/// This is the race-free way for concurrently running tests to compare
/// paths: unlike [`force_kernel_path`] it touches no process state.
pub fn with_kernel_path<T>(
    path: KernelPath,
    f: impl FnOnce() -> T,
) -> Result<T, UnsupportedKernelPath> {
    if !path.supported() {
        return Err(UnsupportedKernelPath(path));
    }
    TL_PATH.with(|tl| {
        let prev = tl.replace(Some(path));
        let out = f();
        tl.set(prev);
        Ok(out)
    })
}

/// The microkernel path the next GEMM on this thread will use.
///
/// Resolution order: [`with_kernel_path`] scope, then
/// [`force_kernel_path`], then auto-detection
/// (AVX2 when the CPU has it, the lane fold otherwise).
pub fn kernel_path() -> KernelPath {
    if let Some(p) = TL_PATH.with(Cell::get) {
        return p;
    }
    match FORCED_PATH.load(Ordering::Relaxed) {
        1 => return KernelPath::Scalar,
        2 => return KernelPath::Lane,
        3 => return KernelPath::Avx2,
        _ => {}
    }
    if avx2_supported() {
        KernelPath::Avx2
    } else {
        KernelPath::Lane
    }
}

/// Cumulative GEMM invocations per microkernel path since process
/// start (or the last [`reset_dispatch_counts`]). One GEMM call counts
/// once, however many blocks or tiles it runs, so the counts are
/// identical under any blocking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchCounts {
    /// GEMMs that ran the scalar microkernel.
    pub scalar: u64,
    /// GEMMs that ran the lane-fold microkernel.
    pub lane: u64,
    /// GEMMs that ran the AVX2 microkernel.
    pub avx2: u64,
}

impl DispatchCounts {
    /// Total GEMM invocations across all paths.
    pub fn total(&self) -> u64 {
        self.scalar + self.lane + self.avx2
    }
}

/// Snapshot of the per-path GEMM dispatch counters.
pub fn dispatch_counts() -> DispatchCounts {
    DispatchCounts {
        scalar: DISPATCH_SCALAR.load(Ordering::Relaxed),
        lane: DISPATCH_LANE.load(Ordering::Relaxed),
        avx2: DISPATCH_AVX2.load(Ordering::Relaxed),
    }
}

/// Zeroes the per-path dispatch counters (bench harness bookkeeping).
pub fn reset_dispatch_counts() {
    DISPATCH_SCALAR.store(0, Ordering::Relaxed);
    DISPATCH_LANE.store(0, Ordering::Relaxed);
    DISPATCH_AVX2.store(0, Ordering::Relaxed);
}

fn bump_dispatch(path: KernelPath) {
    match path {
        KernelPath::Scalar => &DISPATCH_SCALAR,
        KernelPath::Lane => &DISPATCH_LANE,
        KernelPath::Avx2 => &DISPATCH_AVX2,
    }
    .fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Blocking parameters
// ---------------------------------------------------------------------------

/// The runtime blocking parameters every GEMM reads once at entry.
///
/// Any values produce bit-identical results (blocking never changes
/// per-cell reduction order); they only move throughput. `mc` and `kc`
/// are clamped to at least `1` when set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuning {
    /// Output rows per block.
    pub mc: usize,
    /// Reduction-panel length.
    pub kc: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            mc: MC_DEFAULT,
            kc: KC_DEFAULT,
        }
    }
}

/// Current process-global blocking parameters.
pub fn tuning() -> Tuning {
    Tuning {
        mc: MC_ROWS.load(Ordering::Relaxed),
        kc: KC_LEN.load(Ordering::Relaxed),
    }
}

/// Replaces the process-global blocking parameters.
///
/// Exposed so tests can assert tuning-invariance of results; `mc`/`kc`
/// are clamped to `>= 1`.
pub fn set_tuning(t: Tuning) {
    MC_ROWS.store(t.mc.max(1), Ordering::Relaxed);
    KC_LEN.store(t.kc.max(1), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Block runner
// ---------------------------------------------------------------------------

/// Splits `out` (row-major, width `n`) into blocks of at most `mc` rows
/// and runs `work(first_row, block)` for each, in order, on the calling
/// thread. Every output cell's reduction happens inside exactly one
/// `work` call, so the results are independent of the block height.
fn run_blocks(out: &mut [f32], n: usize, mc: usize, mut work: impl FnMut(usize, &mut [f32])) {
    let mc = mc.max(1);
    for (b, block) in out.chunks_mut(mc * n).enumerate() {
        work(b * mc, block);
    }
}

// ---------------------------------------------------------------------------
// Panel and tile kernels
// ---------------------------------------------------------------------------

/// Applies one reduction panel to an `h x n` output block.
///
/// Left-operand values are read as `a[i * a_stride + kk]` for output row
/// `i` and panel index `kk`; `bp` is the `kc x n` row-major right panel.
/// Each output cell receives exactly one `+= a * b` per `kk`, in
/// increasing order, with the running value carried through the cell
/// itself across panels — i.e. the exact left-to-right fold of the
/// scalar reference. Full `MR x NR` tiles run the dispatched
/// microkernel; ragged edge tiles always run the scalar fold.
#[allow(clippy::too_many_arguments)]
fn panel_update(
    path: KernelPath,
    out: &mut [f32],
    n: usize,
    h: usize,
    a: &[f32],
    a_stride: usize,
    kc: usize,
    bp: &[f32],
) {
    let mut i = 0;
    while i < h {
        let hr = (h - i).min(MR);
        let mut j = 0;
        while j < n {
            let wr = (n - j).min(NR);
            if hr == MR && wr == NR {
                match path {
                    KernelPath::Scalar => edge_tile(out, n, i, j, MR, NR, a, a_stride, kc, bp),
                    KernelPath::Lane => micro_tile_lane(out, n, i, j, a, a_stride, kc, bp),
                    #[cfg(target_arch = "x86_64")]
                    KernelPath::Avx2 => {
                        // SAFETY: dispatch only resolves to Avx2 after
                        // `is_x86_feature_detected!("avx2")` (forced and
                        // env paths are validated by `supported()`), and
                        // the tile bounds are established by the
                        // enclosing loop: `i + MR <= h`, `j + NR <= n`,
                        // `kc * n <= bp.len()`, and `a` spans
                        // `(i + MR - 1) * a_stride + kc` elements.
                        #[allow(unsafe_code)]
                        // deepsd-lint: allow(unsafe-scope, reason="audited AVX2 microkernel call; cpuid-gated by dispatch and bounds-checked by the tile loop above")
                        unsafe {
                            avx2::micro_tile(out, n, i, j, a, a_stride, kc, bp)
                        }
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    KernelPath::Avx2 => micro_tile_lane(out, n, i, j, a, a_stride, kc, bp),
                }
            } else {
                edge_tile(out, n, i, j, hr, wr, a, a_stride, kc, bp);
            }
            j += wr;
        }
        i += hr;
    }
}

/// Lane-fold microkernel: a full `MR x NR` register tile where the
/// accumulators live in `[f32; NR]` arrays for the whole panel and the
/// `NR`-wide inner loop runs over fixed-width array lanes — the shape
/// stable rustc's autovectorizer reliably lowers to SIMD.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_tile_lane(
    out: &mut [f32],
    n: usize,
    i: usize,
    j: usize,
    a: &[f32],
    a_stride: usize,
    kc: usize,
    bp: &[f32],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        let base = (i + r) * n + j;
        accr.copy_from_slice(&out[base..base + NR]);
    }
    for kk in 0..kc {
        let brow: &[f32; NR] = bp[kk * n + j..kk * n + j + NR]
            .try_into()
            .expect("tile row is NR wide");
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a[(i + r) * a_stride + kk];
            for (c, &bv) in accr.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let base = (i + r) * n + j;
        out[base..base + NR].copy_from_slice(accr);
    }
}

/// Scalar tile: the same per-cell fold as the other microkernels in
/// plain loops. Ragged edges always come here; the Scalar dispatch path
/// sends full tiles here too, making it the oracle the SIMD paths are
/// tested against.
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    out: &mut [f32],
    n: usize,
    i: usize,
    j: usize,
    hr: usize,
    wr: usize,
    a: &[f32],
    a_stride: usize,
    kc: usize,
    bp: &[f32],
) {
    for r in 0..hr {
        let arow = &a[(i + r) * a_stride..(i + r) * a_stride + kc];
        let orow = &mut out[(i + r) * n + j..(i + r) * n + j + wr];
        for (c, o) in orow.iter_mut().enumerate() {
            let mut acc = *o;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * bp[kk * n + j + c];
            }
            *o = acc;
        }
    }
}

/// Hand-written AVX2 microkernel.
///
/// Safety audit (DESIGN.md §4.7): the only `unsafe` in this crate. The
/// function is `#[target_feature(enable = "avx2")]` and every call site
/// is reached exclusively through [`kernel_path`] dispatch, which
/// resolves to [`KernelPath::Avx2`] only after
/// `is_x86_feature_detected!("avx2")` returned true. All pointer
/// arithmetic stays inside the caller-established tile bounds
/// (asserted in debug builds). Arithmetic is `vmulps` + `vaddps` — two
/// IEEE roundings per update, exactly like the scalar fold; `vfmadd*`
/// is deliberately not used because its single rounding would break
/// bit identity with the scalar reference.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Full `MR x NR` tile: one `__m256` accumulator per row, broadcast
    /// `a` element, `mul` then `add` per reduction index in increasing
    /// `kk` order — the same per-cell fold as the scalar reference.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by dispatch), `i + MR <= h` output
    /// rows in `out`, `j + NR <= n`, `bp.len() >= kc * n`, and
    /// `a.len() >= (i + MR - 1) * a_stride + kc`.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    // deepsd-lint: allow(unsafe-scope, reason="audited AVX2 microkernel; mul+add (never FMA) keeps bit identity with the scalar fold, bounds are debug-asserted and guaranteed by panel_update")
    pub(super) unsafe fn micro_tile(
        out: &mut [f32],
        n: usize,
        i: usize,
        j: usize,
        a: &[f32],
        a_stride: usize,
        kc: usize,
        bp: &[f32],
    ) {
        debug_assert!((i + MR - 1) * n + j + NR <= out.len());
        debug_assert!(kc == 0 || (kc - 1) * n + j + NR <= bp.len());
        debug_assert!(kc == 0 || (i + MR - 1) * a_stride + kc <= a.len());
        // SAFETY: all offsets are within the bounds asserted above,
        // which the caller (panel_update's tile loop) establishes.
        #[allow(unsafe_code)]
        // deepsd-lint: allow(unsafe-scope, reason="pointer arithmetic confined to the debug-asserted tile bounds; intrinsics require the avx2 target feature this fn enables")
        unsafe {
            let out_ptr = out.as_mut_ptr();
            let a_ptr = a.as_ptr();
            let bp_ptr = bp.as_ptr();
            let mut acc: [__m256; MR] = [
                _mm256_loadu_ps(out_ptr.add(i * n + j)),
                _mm256_loadu_ps(out_ptr.add((i + 1) * n + j)),
                _mm256_loadu_ps(out_ptr.add((i + 2) * n + j)),
                _mm256_loadu_ps(out_ptr.add((i + 3) * n + j)),
            ];
            for kk in 0..kc {
                let brow = _mm256_loadu_ps(bp_ptr.add(kk * n + j));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a_ptr.add((i + r) * a_stride + kk));
                    // mul then add — NOT fmadd — to round exactly like
                    // the scalar `+= a * b` fold.
                    *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, brow));
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(out_ptr.add((i + r) * n + j), *accr);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// GEMM drivers
// ---------------------------------------------------------------------------

/// `out (m x n) = a (m x k) @ b (k x n)`, all row-major. `out` must be
/// zeroed. Rows of `b` already form contiguous reduction panels, so they
/// are borrowed in place rather than copied.
pub(crate) fn gemm_nn(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if out.is_empty() || k == 0 {
        return;
    }
    let path = kernel_path();
    bump_dispatch(path);
    let cfg = tuning();
    run_blocks(out, n, cfg.mc, |row0, block| {
        let h = block.len() / n;
        let mut k0 = 0;
        while k0 < k {
            let kc = (k - k0).min(cfg.kc);
            let bp = &b[k0 * n..(k0 + kc) * n];
            panel_update(path, block, n, h, &a[row0 * k + k0..], k, kc, bp);
            k0 += kc;
        }
    });
}

/// `out (m x n) = aᵀ @ b` where `a` is `r_dim x m` and `b` is `r_dim x n`.
/// `out` must be zeroed. Columns of `a` are strided, so each block packs
/// its slice of `aᵀ` into a contiguous `h x rc` panel first.
pub(crate) fn gemm_tn(a: &[f32], r_dim: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if out.is_empty() || r_dim == 0 {
        return;
    }
    let path = kernel_path();
    bump_dispatch(path);
    let cfg = tuning();
    let mut ap = vec![0.0f32; cfg.mc.min(m) * cfg.kc.min(r_dim)];
    run_blocks(out, n, cfg.mc, |row0, block| {
        let h = block.len() / n;
        let mut r0 = 0;
        while r0 < r_dim {
            let rc = (r_dim - r0).min(cfg.kc);
            for rr in 0..rc {
                let base = (r0 + rr) * m + row0;
                for (i, &v) in a[base..base + h].iter().enumerate() {
                    ap[i * rc + rr] = v;
                }
            }
            panel_update(path, block, n, h, &ap, rc, rc, &b[r0 * n..(r0 + rc) * n]);
            r0 += rc;
        }
    });
}

/// `out (m x n) = a @ bᵀ` where `a` is `m x k` and `b` is `n x k`. `out`
/// must be zeroed. Columns of `bᵀ` are strided rows of `b`, so each block
/// packs the transposed panel (`kc x n`) before the tile loop.
pub(crate) fn gemm_nt(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if out.is_empty() || k == 0 {
        return;
    }
    let path = kernel_path();
    bump_dispatch(path);
    let cfg = tuning();
    let mut bp = vec![0.0f32; cfg.kc.min(k) * n];
    run_blocks(out, n, cfg.mc, |row0, block| {
        let h = block.len() / n;
        let mut k0 = 0;
        while k0 < k {
            let kc = (k - k0).min(cfg.kc);
            for (j, brow) in b.chunks_exact(k).enumerate() {
                for (kk, &v) in brow[k0..k0 + kc].iter().enumerate() {
                    bp[kk * n + j] = v;
                }
            }
            panel_update(path, block, n, h, &a[row0 * k + k0..], k, kc, &bp);
            k0 += kc;
        }
    });
}

/// Scalar reference `a @ b`: the plain ikj triple loop, one `+=` per
/// reduction index in increasing order. This is the oracle the blocked
/// kernels must match bit for bit.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: {}x{} @ {}x{} mismatch",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &a_ik) in a_row.iter().enumerate() {
            let b_row = b.row(k);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * bv;
            }
        }
    }
    out
}

/// Scalar reference `aᵀ @ b` (reduction over rows, increasing row order).
///
/// # Panics
/// Panics if `a.rows() != b.rows()`.
pub fn matmul_tn_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: {}x{}ᵀ @ {}x{} mismatch",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut out = Matrix::zeros(a.cols(), n);
    for r in 0..a.rows() {
        let a_row = a.row(r);
        let b_row = b.row(r);
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = out.row_mut(i);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Scalar reference `a @ bᵀ` (per-cell dot product, increasing k order).
///
/// # Panics
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_nt_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: {}x{} @ {}x{}ᵀ mismatch",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..b.rows() {
            let b_row = b.row(j);
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            out.set(i, j, acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u32) -> Matrix {
        // Cheap deterministic pseudo-random fill; values in [-2, 2).
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0
        })
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} != {y}");
        }
    }

    /// Serializes every test that forces a path or reads the dispatch
    /// counters. The counters are process-wide, so a GEMM that another
    /// test forces onto the scalar path at the same time would land in
    /// the count [`dispatch_counter_tracks_forced_path`] checks.
    fn path_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn available_paths() -> Vec<KernelPath> {
        KernelPath::ALL
            .into_iter()
            .filter(|p| p.supported())
            .collect()
    }

    #[test]
    fn blocked_nn_matches_reference_bitwise_on_every_path() {
        let _serial = path_lock();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 130, 33),
            (70, 257, 9),
            (128, 40, 17),
        ] {
            let a = mat(m, k, 1 + m as u32);
            let b = mat(k, n, 2 + n as u32);
            let reference = matmul_ref(&a, &b);
            for path in available_paths() {
                let got = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
                assert_bits_eq(&got, &reference);
            }
        }
    }

    #[test]
    fn blocked_tn_matches_reference_bitwise_on_every_path() {
        let _serial = path_lock();
        for &(r, m, n) in &[(1, 1, 1), (5, 3, 7), (130, 65, 33), (257, 70, 9)] {
            let a = mat(r, m, 3 + m as u32);
            let b = mat(r, n, 4 + n as u32);
            let reference = matmul_tn_ref(&a, &b);
            for path in available_paths() {
                let got = with_kernel_path(path, || a.matmul_tn(&b)).expect("path supported");
                assert_bits_eq(&got, &reference);
            }
        }
    }

    #[test]
    fn blocked_nt_matches_reference_bitwise_on_every_path() {
        let _serial = path_lock();
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (65, 130, 33), (70, 257, 9)] {
            let a = mat(m, k, 5 + m as u32);
            let b = mat(n, k, 6 + n as u32);
            let reference = matmul_nt_ref(&a, &b);
            for path in available_paths() {
                let got = with_kernel_path(path, || a.matmul_nt(&b)).expect("path supported");
                assert_bits_eq(&got, &reference);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        // The worker-count setting sizes the shard pool and the chunk
        // workers; a GEMM always runs on its calling thread, so the
        // setting cannot reach its bits.
        let _serial = path_lock();
        let a = mat(150, 90, 11);
        let b = mat(90, 70, 12);
        let prev = crate::num_threads();
        let mut runs = Vec::new();
        for threads in [1, 2, 8] {
            crate::set_num_threads(threads);
            runs.push(a.matmul(&b));
        }
        crate::set_num_threads(prev);
        for c in &runs {
            assert_bits_eq(c, &matmul_ref(&a, &b));
        }
    }

    #[test]
    fn tuning_does_not_change_bits() {
        let _serial = path_lock();
        let a = mat(97, 143, 21);
        let b = mat(143, 61, 22);
        let reference = matmul_ref(&a, &b);
        let prev = tuning();
        for (mc, kc) in [(1usize, 1usize), (7, 13), (16, 64), (256, 1024)] {
            set_tuning(Tuning { mc, kc });
            for path in available_paths() {
                let got = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
                assert_bits_eq(&got, &reference);
            }
        }
        set_tuning(prev);
    }

    #[test]
    fn forced_unsupported_path_errors_cleanly() {
        let _serial = path_lock();
        if avx2_supported() {
            return; // nothing is unsupported on this host
        }
        assert_eq!(
            force_kernel_path(KernelPath::Avx2),
            Err(UnsupportedKernelPath(KernelPath::Avx2))
        );
        assert!(with_kernel_path(KernelPath::Avx2, || ()).is_err());
    }

    #[test]
    fn with_kernel_path_scopes_and_restores() {
        let _serial = path_lock();
        let outer = kernel_path();
        let inner = with_kernel_path(KernelPath::Scalar, kernel_path).expect("scalar always runs");
        assert_eq!(inner, KernelPath::Scalar);
        assert_eq!(kernel_path(), outer);
    }

    #[test]
    fn dispatch_counter_tracks_forced_path() {
        let _serial = path_lock();
        let a = mat(9, 9, 31);
        let b = mat(9, 9, 32);
        let before = dispatch_counts();
        with_kernel_path(KernelPath::Scalar, || {
            let _ = a.matmul(&b);
            let _ = a.matmul_tn(&b);
            let _ = a.matmul_nt(&b);
        })
        .expect("scalar always runs");
        let after = dispatch_counts();
        assert_eq!(after.scalar, before.scalar + 3);
    }

    #[test]
    fn nan_propagates_through_matmul() {
        let _serial = path_lock();
        // The old kernel's `a == 0.0` skip turned 0.0 * NaN into 0.0.
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 1, 1.0); // row 0 mixes a zero with a finite entry
        let mut b = mat(3, 4, 9);
        b.set(0, 2, f32::NAN); // touched by a's zero at (0, 0)
        for path in available_paths() {
            let c = with_kernel_path(path, || a.matmul(&b)).expect("path supported");
            assert!(c.get(0, 2).is_nan(), "0.0 * NaN must propagate ({path})");
            assert!(c.get(1, 2).is_nan(), "all-zero row still meets NaN column");
        }
    }

    #[test]
    fn nan_propagates_through_matmul_tn() {
        let mut a = Matrix::zeros(3, 2);
        let mut b = mat(3, 4, 10);
        b.set(0, 1, f32::NAN);
        let c = a.matmul_tn(&b);
        assert!(c.get(0, 1).is_nan());
        a.set(0, 0, f32::INFINITY);
        let c = a.matmul_tn(&b);
        assert!(c.get(0, 1).is_nan(), "inf * NaN stays NaN");
    }

    #[test]
    fn nan_propagates_through_matmul_nt() {
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 0, f32::NAN);
        let b = mat(4, 3, 11);
        let c = a.matmul_nt(&b);
        for j in 0..4 {
            assert!(c.get(0, j).is_nan(), "NaN row infects every dot product");
        }
    }

    #[test]
    fn inf_times_zero_is_nan_like_reference() {
        let mut a = Matrix::zeros(1, 2);
        a.set(0, 0, f32::INFINITY);
        let mut b = Matrix::zeros(2, 1);
        b.set(0, 0, 0.0);
        b.set(1, 0, 1.0);
        let c = a.matmul(&b);
        assert_bits_eq(&c, &matmul_ref(&a, &b));
        assert!(c.get(0, 0).is_nan(), "inf * 0.0 is NaN in IEEE 754");
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let e = Matrix::zeros(0, 5).matmul(&Matrix::zeros(5, 3));
        assert_eq!(e.shape(), (0, 3));
        let z = Matrix::zeros(2, 0).matmul(&Matrix::zeros(0, 3));
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let rv = mat(1, 9, 13).matmul(&mat(9, 1, 14));
        assert_bits_eq(&rv, &matmul_ref(&mat(1, 9, 13), &mat(9, 1, 14)));
    }
}
