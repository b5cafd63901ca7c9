//! Data-parallel batch sharding with deterministic gradient reduction.
//!
//! A [`ShardPool`] splits each mini-batch into fixed-size shards of
//! [`SHARD_ROWS`] consecutive items, runs a user-supplied job (forward +
//! backward) per shard — possibly across several worker threads — and
//! reduces the per-shard [`GradMap`]s into one output map **in shard
//! order**. Because the shard partition depends only on the batch length,
//! and the reduction folds shards `0, 1, …, S-1` left-to-right on the
//! calling thread, the summed gradients are bit-identical regardless of
//! how many workers ran the shards or how the OS scheduled them. This
//! extends the determinism contract of the matmul kernels (DESIGN.md
//! §4.2), which run on whichever thread calls them, to whole-batch data
//! parallelism (§4.3).
//!
//! Workers are **persistent threads**: spawned lazily on the first
//! parallel batch, fed one task per batch over a channel, and joined when
//! the pool drops. Spawning per batch would cost more than a small batch's
//! entire forward+backward (~0.1 ms per thread on Linux), so amortising
//! thread creation across the whole training run is what makes sharding
//! profitable at paper-scale batch sizes (64 rows). Each worker owns a
//! persistent [`Tape`] + [`BackwardScratch`] that live across batches, so
//! steady-state training does not reallocate tape storage; per-shard
//! gradient maps are likewise pooled and reused.
//!
//! Anything RNG-dependent inside a shard job (dropout) must draw from a
//! per-shard seed supplied by the caller — pre-split from the batch RNG
//! *before* dispatch — never from shared state, or determinism across
//! worker counts is lost.
//!
//! The same workers run forward-only work: [`ShardPool::run_shares`]
//! hands each of a few contiguous shares to one thread, the calling
//! thread taking the first, with no gradients to reduce. A served
//! predictor scores the areas of a slot this way.

use crate::tape::{BackwardScratch, GradMap, Tape};
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count for batch-level parallelism: the
/// trainer's shard pool, the chunk workers of evaluation and the share
/// pool of a served predictor (when it is created) read it (`0`, the
/// default, selects the machine's available parallelism). GEMMs never
/// read it; each runs on its calling thread. Results are bit-identical
/// for every setting; this only trades latency for CPU. Safe to call at
/// any time.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// Returns the configured worker count (`0` = auto-detect).
pub fn num_threads() -> usize {
    NUM_THREADS.load(Ordering::Relaxed)
}

/// Turns a worker-count setting into a count: `0` selects the machine's
/// available parallelism (1 when it cannot be read); any other value is
/// returned as is. The one `0 = auto` rule for the shard pool and the
/// trainer's batch workers.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Number of consecutive batch items per shard.
///
/// Small enough that a batch of 64 (the paper's size) yields 8 shards —
/// enough parallelism for the core counts we target — while keeping the
/// partition, and therefore the reduction order, independent of the
/// worker count.
pub const SHARD_ROWS: usize = 8;

/// Everything a shard job needs: which slice of the batch to process and
/// exclusive use of a worker's autodiff state plus this shard's gradient
/// output map (already cleared).
pub struct ShardJob<'a> {
    /// Shard index within the batch (`0..n_shards`).
    pub shard: usize,
    /// Half-open range of batch item indices this shard covers.
    pub range: Range<usize>,
    /// Worker-owned tape, already reset.
    pub tape: &'a mut Tape,
    /// Worker-owned backward scratch.
    pub scratch: &'a mut BackwardScratch,
    /// This shard's gradient accumulator, already cleared.
    pub grads: &'a mut GradMap,
}

/// Persistent per-worker autodiff state.
#[derive(Default)]
struct WorkerState {
    tape: Tape,
    scratch: BackwardScratch,
}

/// One call's worth of work for one worker thread. The closure borrows
/// the caller's data; [`ShardPool::dispatch`] blocks until every task of
/// the call has completed, which is what keeps the erased lifetime sound.
type Task = Box<dyn FnOnce(&mut WorkerState) + Send>;

/// A [`Task`] before its borrow's lifetime is erased.
type ScopedTask<'s> = Box<dyn FnOnce(&mut WorkerState) + Send + 's>;

/// A persistent worker thread plus the channel that feeds it tasks.
struct Worker {
    sender: mpsc::Sender<Task>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of persistent shard workers with deterministic reduction.
///
/// Create once per training run and call [`ShardPool::run`] per batch;
/// worker threads, tapes, scratch buffers and gradient maps are all
/// reused across calls. Threads are spawned lazily on the first batch
/// that needs them and joined on drop.
pub struct ShardPool {
    workers: usize,
    threads: Vec<Worker>,
    done_tx: mpsc::Sender<std::thread::Result<()>>,
    done_rx: mpsc::Receiver<std::thread::Result<()>>,
    /// Autodiff state for the calling thread (serial path).
    serial_state: WorkerState,
    shard_grads: Vec<GradMap>,
    stats: ShardPoolStats,
}

/// Cumulative counters for a pool's lifetime, for telemetry export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardPoolStats {
    /// Completed [`ShardPool::run`] calls (batches).
    pub runs: u64,
    /// Shards processed across all runs.
    pub shards: u64,
    /// Wall-clock seconds spent inside `run` (dispatch + reduction).
    pub busy_seconds: f64,
}

impl ShardPool {
    /// Creates a pool with `workers` threads; `0` selects the machine's
    /// available parallelism ([`crate::resolve_threads`]). No threads are spawned until the first
    /// batch that can use more than one.
    pub fn new(workers: usize) -> Self {
        let workers = resolve_threads(workers);
        let (done_tx, done_rx) = mpsc::channel();
        ShardPool {
            workers,
            threads: Vec::new(),
            done_tx,
            done_rx,
            serial_state: WorkerState::default(),
            shard_grads: Vec::new(),
            stats: ShardPoolStats::default(),
        }
    }

    /// Cumulative run/shard/wall-time counters since pool creation.
    pub fn stats(&self) -> ShardPoolStats {
        self.stats
    }

    /// Configured worker count (before clamping to the shard count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shards a batch of `n_items` splits into.
    pub fn num_shards(n_items: usize) -> usize {
        n_items.div_ceil(SHARD_ROWS)
    }

    /// Runs `job` once per shard of a batch of `n_items` items and
    /// reduces all shard gradients into `out` (cleared first) in shard
    /// order. Returns the per-shard job results, indexed by shard.
    ///
    /// The effective thread count is `min(workers, n_shards)`; each
    /// thread processes a contiguous run of shards. With one effective
    /// worker everything runs on the calling thread. The output in `out`
    /// and the returned values are identical for every worker count.
    ///
    /// # Panics
    /// Panics if `n_items == 0`.
    pub fn run<T, F>(&mut self, n_items: usize, out: &mut GradMap, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ShardJob<'_>) -> T + Sync,
    {
        assert!(n_items > 0, "ShardPool::run needs at least one item");
        // deepsd-lint: allow(determinism-wallclock, reason="measures pool wall time for the trainer's time_shard_run_seconds gauge; never branches on the reading")
        let run_started = std::time::Instant::now();
        let shards = Self::num_shards(n_items);
        let workers = self.workers.min(shards).max(1);
        if self.shard_grads.len() < shards {
            self.shard_grads.resize_with(shards, GradMap::default);
        }

        let mut results: Vec<Option<T>> = (0..shards).map(|_| None).collect();
        if workers <= 1 {
            let state = &mut self.serial_state;
            for (shard, (grads, slot)) in self.shard_grads[..shards]
                .iter_mut()
                .zip(results.iter_mut())
                .enumerate()
            {
                grads.reset_for_reuse();
                state.tape.reset();
                *slot = Some(job(ShardJob {
                    shard,
                    range: shard_range(shard, n_items),
                    tape: &mut state.tape,
                    scratch: &mut state.scratch,
                    grads,
                }));
            }
        } else {
            let per_worker = shards.div_ceil(workers);
            let job = &job;
            let mut tasks: Vec<ScopedTask<'_>> = Vec::with_capacity(workers);
            let mut grads_rest = &mut self.shard_grads[..shards];
            let mut results_rest = &mut results[..];
            let mut start = 0usize;
            while start < shards {
                let take = per_worker.min(shards - start);
                let (grads_chunk, gr) = grads_rest.split_at_mut(take);
                grads_rest = gr;
                let (results_chunk, rr) = results_rest.split_at_mut(take);
                results_rest = rr;
                let base = start;
                tasks.push(Box::new(move |state: &mut WorkerState| {
                    for (off, (grads, slot)) in grads_chunk
                        .iter_mut()
                        .zip(results_chunk.iter_mut())
                        .enumerate()
                    {
                        let shard = base + off;
                        grads.reset_for_reuse();
                        state.tape.reset();
                        *slot = Some(job(ShardJob {
                            shard,
                            range: shard_range(shard, n_items),
                            tape: &mut state.tape,
                            scratch: &mut state.scratch,
                            grads,
                        }));
                    }
                }));
                start += take;
            }
            Self::dispatch(
                &mut self.threads,
                &self.done_tx,
                &self.done_rx,
                &mut self.serial_state,
                tasks,
                |_| {},
            );
        }

        // Deterministic reduction: fold shard maps left-to-right on the
        // calling thread, independent of which worker produced them.
        out.reset_for_reuse();
        for grads in &mut self.shard_grads[..shards] {
            out.merge_from(grads);
        }
        self.stats.runs += 1;
        self.stats.shards += shards as u64;
        self.stats.busy_seconds += run_started.elapsed().as_secs_f64();
        results
            .into_iter()
            .map(|r| r.expect("every shard ran"))
            .collect()
    }
}

impl ShardPool {
    /// Number of shares [`ShardPool::run_shares`] splits `n_items`
    /// items into: one per configured worker, at most one per item, at
    /// least one.
    pub fn num_shares(&self, n_items: usize) -> usize {
        self.workers.min(n_items).max(1)
    }

    /// Forward-only work, no gradients: runs `job(share, tape, state)`
    /// once per element of `states`. Share 0 runs on the calling thread
    /// (on the pool's serial tape), share `s ≥ 1` on persistent worker
    /// `s - 1` (on that worker's tape), so a share's buffers in `state`
    /// are always grown by the same thread. Each tape is reset before
    /// its job. Returns once every share has finished; a panic in any
    /// share is re-raised after that barrier.
    ///
    /// With one share, or one configured worker, everything runs on the
    /// caller and no thread is spawned. The split into shares is the
    /// caller's: [`ShardPool::num_shares`] and [`share_range`] give the
    /// contiguous one that matches the pool.
    pub fn run_shares<S, F>(&mut self, states: &mut [S], job: F)
    where
        S: Send,
        F: Fn(usize, &mut Tape, &mut S) + Sync,
    {
        let job = &job;
        let Some((first, rest)) = states.split_first_mut() else {
            return;
        };
        let tasks: Vec<ScopedTask<'_>> = (1..)
            .zip(rest.iter_mut())
            .map(|(share, state)| -> ScopedTask<'_> {
                Box::new(move |worker: &mut WorkerState| {
                    worker.tape.reset();
                    job(share, &mut worker.tape, state);
                })
            })
            .collect();
        Self::dispatch(
            &mut self.threads,
            &self.done_tx,
            &self.done_rx,
            &mut self.serial_state,
            tasks,
            |local| {
                local.tape.reset();
                job(0, &mut local.tape, first);
            },
        );
    }

    /// Sends task `i` to persistent worker `i` (spawning workers as
    /// needed), runs `local` on the calling thread's state meanwhile,
    /// then waits until every sent task has reported back. The first
    /// panic, `local`'s before any worker's, is re-raised after the
    /// barrier, so no borrow a task holds can end while it runs.
    fn dispatch(
        threads: &mut Vec<Worker>,
        done_tx: &mpsc::Sender<std::thread::Result<()>>,
        done_rx: &mpsc::Receiver<std::thread::Result<()>>,
        local_state: &mut WorkerState,
        tasks: Vec<ScopedTask<'_>>,
        local: impl FnOnce(&mut WorkerState),
    ) {
        ensure_threads(threads, done_tx, tasks.len());
        let mut sent = 0usize;
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut run_here = |task: Task, panic: &mut Option<_>| {
            if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(|| task(local_state))) {
                panic.get_or_insert(p);
            }
        };
        for (i, task) in tasks.into_iter().enumerate() {
            // SAFETY: the task borrows data that outlives this call — the
            // barrier below does not return until every sent task has
            // reported completion (even a panicking one, which the
            // worker catches and forwards), so no task can run after
            // those borrows end.
            // The one sanctioned `unsafe` in the workspace (the
            // `[workspace.lints]` table denies it everywhere else).
            #[allow(unsafe_code)]
            // deepsd-lint: allow(unsafe-scope, reason="lifetime-only transmute; dispatch joins every sent task before the borrow it erases can expire")
            let task = unsafe { std::mem::transmute::<ScopedTask<'_>, Task>(task) };
            // A worker that could not be spawned, or is gone, cannot run
            // its task; the calling thread runs it instead.
            let task = match threads.get(i) {
                Some(worker) => match worker.sender.send(task) {
                    Ok(()) => {
                        sent += 1;
                        continue;
                    }
                    Err(mpsc::SendError(task)) => task,
                },
                None => task,
            };
            run_here(task, &mut panic);
        }
        if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(|| local(local_state))) {
            panic = Some(p);
        }
        // Barrier. `recv` cannot fail while the pool holds `done_tx`.
        for _ in 0..sent {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(p)) => {
                    panic.get_or_insert(p);
                }
                Err(mpsc::RecvError) => break,
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }
}

/// Half-open range of share `share` when `n_items` items split into
/// `shares` contiguous shares: in item order, sizes differing by at
/// most one, earlier shares the larger.
pub fn share_range(share: usize, shares: usize, n_items: usize) -> Range<usize> {
    let shares = shares.max(1);
    let (base, extra) = (n_items / shares, n_items % shares);
    let start = share * base + share.min(extra);
    let len = base + usize::from(share < extra);
    start.min(n_items)..(start + len).min(n_items)
}

/// Spawns persistent workers until at least `n` exist, or until the OS
/// refuses a thread (the caller then runs the unplaced tasks itself).
/// Each worker owns its autodiff state and loops over tasks until its
/// channel closes (pool drop). A panicking task is caught and reported
/// back so the caller can re-raise it after the barrier.
fn ensure_threads(
    threads: &mut Vec<Worker>,
    done_tx: &mpsc::Sender<std::thread::Result<()>>,
    n: usize,
) {
    while threads.len() < n {
        let (task_tx, task_rx) = mpsc::channel::<Task>();
        let done_tx = done_tx.clone();
        let spawned = std::thread::Builder::new().spawn(move || {
            let mut state = WorkerState::default();
            while let Ok(task) = task_rx.recv() {
                let result = std::panic::catch_unwind(AssertUnwindSafe(|| task(&mut state)));
                if done_tx.send(result).is_err() {
                    break;
                }
            }
        });
        let Ok(handle) = spawned else {
            return;
        };
        threads.push(Worker {
            sender: task_tx,
            handle: Some(handle),
        });
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing each task channel ends its worker's receive loop.
        for worker in self.threads.drain(..) {
            drop(worker.sender);
            if let Some(handle) = worker.handle {
                let _ = handle.join();
            }
        }
    }
}

fn shard_range(shard: usize, n_items: usize) -> Range<usize> {
    let start = shard * SHARD_ROWS;
    start..((start + SHARD_ROWS).min(n_items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layers::{Activation, Dense};
    use crate::matrix::Matrix;
    use crate::params::ParamStore;

    /// Runs one synthetic regression batch through a pool and returns the
    /// reduced gradients plus per-shard losses.
    fn run_batch(workers: usize, n_items: usize) -> (Vec<(usize, Matrix)>, Vec<f32>) {
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(11);
        let layer = Dense::new(&mut store, "fc", 3, 1, Activation::LREL, &mut rng);
        let x = Matrix::from_fn(n_items, 3, |r, c| ((r * 3 + c) as f32 * 0.23).sin());
        let t = Matrix::from_fn(n_items, 1, |r, _| (r as f32 * 0.41).cos());

        let mut pool = ShardPool::new(workers);
        let mut out = GradMap::default();
        let store_ref = &store;
        let losses = pool.run(n_items, &mut out, |job: ShardJob<'_>| {
            let rows = job.range.len();
            let xs = Matrix::from_fn(rows, 3, |r, c| x.get(job.range.start + r, c));
            let ts = Matrix::from_fn(rows, 1, |r, c| t.get(job.range.start + r, c));
            let xi = job.tape.input(xs);
            let y = layer.forward(job.tape, store_ref, xi);
            let loss = job.tape.mse_loss(y, &ts);
            // Scale so summed shard losses equal the whole-batch mean.
            let scaled = job.tape.scale(loss, rows as f32 / n_items as f32);
            job.tape.backward_into(scaled, job.scratch, job.grads);
            job.tape.value(scaled).get(0, 0)
        });
        let grads: Vec<(usize, Matrix)> = out
            .iter()
            .map(|(id, g)| (id.index(), g.to_dense()))
            .collect();
        (grads, losses)
    }

    #[test]
    fn reduction_is_bit_identical_across_worker_counts() {
        let (g1, l1) = run_batch(1, 27);
        for workers in [2, 3, 8] {
            let (gw, lw) = run_batch(workers, 27);
            assert_eq!(l1, lw, "losses differ at {workers} workers");
            assert_eq!(g1.len(), gw.len());
            for ((ia, ga), (ib, gb)) in g1.iter().zip(gw.iter()) {
                assert_eq!(ia, ib);
                assert!(
                    ga.max_abs_diff(gb) == 0.0,
                    "gradient bits differ at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_gradients_match_whole_batch_backward() {
        let n = 20usize;
        let mut store = ParamStore::new();
        let mut rng = seeded_rng(11);
        let layer = Dense::new(&mut store, "fc", 3, 1, Activation::LREL, &mut rng);
        let x = Matrix::from_fn(n, 3, |r, c| ((r * 3 + c) as f32 * 0.23).sin());
        let t = Matrix::from_fn(n, 1, |r, _| (r as f32 * 0.41).cos());
        let mut tape = Tape::new();
        let xi = tape.input(x);
        let y = layer.forward(&mut tape, &store, xi);
        let loss = tape.mse_loss(y, &t);
        let whole = tape.backward(loss);

        let (sharded, losses) = run_batch(1, n);
        let total: f32 = losses.iter().sum();
        assert!((total - tape.value(loss).get(0, 0)).abs() < 1e-5);
        for (idx, g) in &sharded {
            let w = whole.get(crate::params::ParamId(*idx)).unwrap().to_dense();
            // Shard-partitioned summation reorders float adds, so this is
            // close, not bitwise: the bitwise contract is *across worker
            // counts*, not versus the unsharded pass.
            assert!(g.max_abs_diff(&w) < 1e-5);
        }
    }

    #[test]
    fn shard_ranges_cover_batch_exactly() {
        for n in [1usize, 7, 8, 9, 63, 64, 65] {
            let shards = ShardPool::num_shards(n);
            let mut covered = 0usize;
            for s in 0..shards {
                let r = shard_range(s, n);
                assert_eq!(r.start, covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, n, "n = {n}");
        }
    }

    #[test]
    fn panicking_job_propagates_and_pool_stays_usable() {
        let mut pool = ShardPool::new(4);
        let mut out = GradMap::default();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, &mut out, |job: ShardJob<'_>| {
                assert!(job.shard != 2, "injected shard failure");
            });
        }));
        assert!(caught.is_err(), "shard panic must propagate to the caller");
        // The barrier drained every completion, so the next batch works.
        let sums = pool.run(32, &mut out, |job: ShardJob<'_>| {
            let m = Matrix::full(job.range.len(), 1, 1.0);
            let xi = job.tape.input(m);
            let s = job.tape.sum(xi);
            job.tape.value(s).get(0, 0)
        });
        assert_eq!(sums, vec![8.0; 4]);
    }

    #[test]
    fn share_ranges_split_items_contiguously() {
        for n in [0usize, 1, 2, 7, 58, 64] {
            for shares in [1usize, 2, 3, 8] {
                let mut covered = 0usize;
                for s in 0..shares {
                    let r = share_range(s, shares, n);
                    assert_eq!(r.start, covered, "n = {n}, shares = {shares}");
                    assert!(r.len() <= n.div_ceil(shares));
                    covered = r.end;
                }
                assert_eq!(covered, n, "n = {n}, shares = {shares}");
            }
        }
    }

    /// The caller runs share 0, each worker one other share, and the
    /// workers persist: the set of threads is the same on every call.
    #[test]
    fn shares_run_on_the_caller_and_persistent_workers() {
        let caller = std::thread::current().id();
        let mut pool = ShardPool::new(3);
        assert_eq!(pool.num_shares(58), 3);
        assert_eq!(pool.num_shares(2), 2);
        assert_eq!(ShardPool::new(1).num_shares(58), 1);
        let mut first = None;
        for round in 0..4 {
            let mut states: Vec<(Option<std::thread::ThreadId>, f32)> = vec![(None, 0.0); 3];
            pool.run_shares(&mut states, |share, tape, state| {
                assert!(tape.is_empty(), "tapes are reset before each job");
                let m = Matrix::full(share + 1, 1, 1.0);
                let xi = tape.input(m);
                let sum = tape.sum(xi);
                *state = (Some(std::thread::current().id()), tape.value(sum).get(0, 0));
            });
            let sums: Vec<f32> = states.iter().map(|s| s.1).collect();
            assert_eq!(sums, vec![1.0, 2.0, 3.0], "round {round}");
            let ids: Vec<_> = states.iter().map(|s| s.0.unwrap()).collect();
            assert_eq!(ids[0], caller);
            assert!(ids[1] != caller && ids[2] != caller && ids[1] != ids[2]);
            assert_eq!(*first.get_or_insert_with(|| ids.clone()), ids);
        }
    }

    #[test]
    fn panicking_share_propagates_and_pool_stays_usable() {
        let mut pool = ShardPool::new(2);
        for bad in [0usize, 1] {
            let mut states = vec![0usize; 2];
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_shares(&mut states, |share, _, state| {
                    assert!(share != bad, "injected share failure");
                    *state = share + 10;
                });
            }));
            assert!(caught.is_err(), "share {bad}'s panic must reach the caller");
            // The barrier waited for the other share before unwinding.
            assert_eq!(states[1 - bad], 1 - bad + 10);
        }
        let mut states = vec![0usize; 2];
        pool.run_shares(&mut states, |share, _, state| *state = share + 1);
        assert_eq!(states, vec![1, 2]);
    }

    #[test]
    fn pool_reuses_state_across_batches() {
        let mut pool = ShardPool::new(2);
        let mut out = GradMap::default();
        for _ in 0..3 {
            let sums = pool.run(16, &mut out, |job: ShardJob<'_>| {
                let m = Matrix::full(job.range.len(), 1, 1.0);
                let xi = job.tape.input(m);
                let s = job.tape.sum(xi);
                job.tape.value(s).get(0, 0)
            });
            assert_eq!(sums, vec![8.0, 8.0]);
        }
    }
}
