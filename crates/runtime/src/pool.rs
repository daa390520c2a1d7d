//! A persistent worker pool executing "grids of blocks" on CPU threads.
//!
//! The paper launches CUDA kernels with one thread block per job; this pool
//! is the CPU stand-in for that execution model.  A launch hands the pool a
//! closure and a number of blocks; worker threads claim block indices from
//! a shared atomic counter and run the closure for each claimed block.  One
//! launch per job layer reproduces the paper's kernel-per-layer execution,
//! including its global barrier between layers.
//!
//! [`WorkerPool::launch_grid_indexed_cancellable`] is the one entry point:
//! it takes an optional [`CancelToken`], tells the body which participant
//! lane runs each block, and returns a [`LaunchOutcome`] saying whether
//! every block ran and whether the launch woke the pool.
//! [`WorkerPool::launch_grid`] is the same launch for a body that needs
//! neither lane nor token.
//!
//! The launching thread participates in the work, so a pool of `T` workers
//! provides `T + 1`-way parallelism and a launch never deadlocks even if the
//! pool has zero worker threads.
//!
//! A launch lives on the launcher's stack and is posted to every worker by
//! reference, through a bounded queue per worker whose buffer is allocated
//! once, when the pool is built.  The last participant to finish unparks
//! the launcher, which returns only once every worker is done with the
//! launch.  So a launch allocates nothing, and every worker runs every
//! launch exactly once.  Launches from different threads run in parallel:
//! each worker takes them in the order they were posted to it.

use crate::cancel::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::{JoinHandle, Thread};

/// Launches a worker can hold queued: a launcher that finds the queue full
/// waits until the worker takes one.
const QUEUE_CAPACITY: usize = 8;

/// One grid launch, shared by reference between the launcher and the
/// workers.  It lives on the launcher's stack: the launcher does not return
/// until `pending` reaches zero, and no participant touches the launch after
/// its own decrement.
struct GridLaunch<'a> {
    /// The per-block body, also told which participant lane runs the block
    /// (workers pass their thread index, the launcher passes `threads`), so
    /// bodies can borrow per-participant scratch instead of allocating.
    body: &'a (dyn Fn(usize, usize) + Sync),
    /// Cooperative cancellation: checked between block claims, never inside
    /// a block body.  `None` for uncancellable launches.
    cancel: Option<&'a CancelToken>,
    /// Next block index to claim.
    next_block: AtomicUsize,
    /// Total number of blocks in the grid.
    blocks: usize,
    /// Set when a participant observed the cancelled token and skipped at
    /// least one unclaimed block.
    abandoned: AtomicBool,
    /// Set when any block body panicked.
    poisoned: AtomicBool,
    /// Number of participants that have not yet finished.  Each
    /// participant's `AcqRel` decrement releases its block writes, and the
    /// launcher's `Acquire` load that reads zero sees all of them.
    pending: AtomicUsize,
    /// The launching thread, unparked by the last participant to finish.
    launcher: Thread,
}

impl GridLaunch<'_> {
    /// Claims and runs blocks until the counter is exhausted or the launch
    /// is cancelled.  `participant` identifies the thread (workers `0..T`,
    /// launcher `T`); each runs a launch once, so its lane is never used
    /// concurrently.
    ///
    /// The cancellation check sits between the claim and the body, so no
    /// new block body starts after the token trips; blocks already running
    /// in other participants finish normally.
    fn run_blocks(&self, participant: usize) {
        loop {
            let b = self.next_block.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                break;
            }
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                self.abandoned.store(true, Ordering::Release);
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(participant, b)));
            if result.is_err() {
                self.poisoned.store(true, Ordering::Release);
            }
        }
    }

    /// A worker's share of the launch.  The worker clones the launcher's
    /// handle before its decrement because the launcher may return, and
    /// the launch go out of scope, as soon as `pending` reaches zero.
    fn run_worker(&self, worker: usize) {
        self.run_blocks(worker);
        let launcher = self.launcher.clone();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            launcher.unpark();
        }
    }
}

/// A launch posted to a worker by reference.
struct Posted(*const GridLaunch<'static>);

// SAFETY: `GridLaunch` is `Sync`, and the launcher keeps the pointee alive
// until every worker it was posted to has finished with it.
unsafe impl Send for Posted {}

/// What one grid launch did, as reported by
/// [`WorkerPool::launch_grid_indexed_cancellable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a cancelled launch leaves its output partial"]
pub struct LaunchOutcome {
    /// `true` when every block ran; `false` when a cancelled token made the
    /// launch skip blocks, so its output is partial.
    pub completed: bool,
    /// `true` when the launch woke the worker threads and waited for them —
    /// one pool rendezvous; `false` when it ran inline on the launching
    /// thread.  The pool alone decides which launches run inline, so
    /// callers count rendezvous by summing this flag.
    pub rendezvous: bool,
}

/// A persistent pool of worker threads executing grid launches.
pub struct WorkerPool {
    /// One bounded launch queue per worker; dropping them ends the workers.
    queues: Vec<SyncSender<Posted>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// Total number of pool rendezvous performed (launches that woke the
    /// workers and waited for them; inline fast paths do not count).
    rendezvous: AtomicUsize,
}

impl WorkerPool {
    /// Creates a pool with `threads` worker threads (the launching thread
    /// always helps, so `threads == 0` degenerates to sequential execution).
    pub fn new(threads: usize) -> Self {
        let mut queues = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let (queue, posted) = sync_channel::<Posted>(QUEUE_CAPACITY);
            let handle = std::thread::Builder::new()
                .name(format!("psmd-worker-{i}"))
                .spawn(move || {
                    while let Ok(Posted(launch)) = posted.recv() {
                        // SAFETY: the launcher keeps the launch alive until
                        // this worker's decrement in `run_worker`.
                        unsafe { &*launch }.run_worker(i);
                    }
                })
                .expect("failed to spawn worker thread");
            queues.push(queue);
            workers.push(handle);
        }
        Self {
            queues,
            workers,
            threads,
            rendezvous: AtomicUsize::new(0),
        }
    }

    /// The default worker-thread count: the `PSMD_THREADS` override when set
    /// (`0` degenerates to sequential execution), otherwise one less than
    /// the hardware parallelism (the launcher always participates).  CI
    /// runs the test suite under `PSMD_THREADS=0,1,4` to exercise the
    /// executor under no, little and real contention.  Callers that need
    /// the count without building a pool (harness reports, examples) should
    /// use this instead of constructing a throwaway pool.
    pub fn default_worker_threads() -> usize {
        if let Some(threads) = Self::threads_from_env() {
            return threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// The worker-thread count requested via `PSMD_THREADS`, if any.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but not an integer: the CI thread
    /// matrix exists to pin specific worker counts, and a typo that
    /// silently fell back to hardware sizing would green-light CI while
    /// never testing the configurations it claims to.  Long-lived callers
    /// that must degrade instead of aborting (the serve path) use
    /// [`WorkerPool::try_threads_from_env`].
    pub fn threads_from_env() -> Option<usize> {
        match Self::try_threads_from_env() {
            Ok(threads) => threads,
            Err(message) => panic!("{message}"),
        }
    }

    /// The fallible form of [`WorkerPool::threads_from_env`]: a set but
    /// non-integer `PSMD_THREADS` becomes an `Err` describing the problem
    /// instead of a panic, so services can surface a configuration error.
    pub fn try_threads_from_env() -> Result<Option<usize>, String> {
        let Ok(value) = std::env::var("PSMD_THREADS") else {
            return Ok(None);
        };
        match value.trim().parse() {
            Ok(threads) => Ok(Some(threads)),
            Err(_) => Err(format!(
                "PSMD_THREADS must be an integer worker-thread count, got '{value}'"
            )),
        }
    }

    /// Number of worker threads (excluding the launching thread).
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Total parallel lanes used by a launch (workers plus the launcher).
    pub fn parallelism(&self) -> usize {
        self.threads + 1
    }

    /// Total number of pool rendezvous performed so far, by every launcher:
    /// launches that woke the worker threads and waited for all of them to
    /// finish — one per multi-block launch on a pool with workers.  Inline
    /// launches (zero workers, single-block grids) do not count.  A single
    /// launch reports its own rendezvous in [`LaunchOutcome::rendezvous`].
    pub fn rendezvous_count(&self) -> usize {
        self.rendezvous.load(Ordering::Relaxed)
    }

    /// Executes `body` once for every block index in `0..blocks`, returning
    /// when all blocks have completed: the grid launch of
    /// [`WorkerPool::launch_grid_indexed_cancellable`] without a lane or a
    /// token.
    ///
    /// Panics if any block body panicked.
    pub fn launch_grid<F>(&self, blocks: usize, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let _ = self.launch_grid_indexed_cancellable(blocks, None, |_, b| body(b));
    }

    /// Executes `body(lane, block)` once for every block index in
    /// `0..blocks`, returning when all blocks have completed or the launch
    /// was cancelled.
    ///
    /// The body is told which **participant lane** runs the block: lanes are
    /// in `0..self.parallelism()`, a lane is never used by two threads
    /// concurrently within one launch, and the inline fast path uses lane 0.
    /// Evaluation workspaces use the lane to hand each block pre-allocated
    /// per-worker scratch instead of allocating inside the block.
    ///
    /// The launch polls `cancel` between block claims: once the token
    /// trips, no further block body starts (blocks already running finish),
    /// and the outcome's [`completed`](LaunchOutcome::completed) flag is
    /// `false` — the caller must treat the grid's output as partial.  The
    /// poll is one relaxed atomic load per block claim; uncancelled launches
    /// (and `None`) are unaffected (bitwise-identical results, no extra
    /// synchronization).
    ///
    /// Grids of one block, and every grid on a pool without workers, run
    /// inline on the calling thread; any other grid wakes the pool, which
    /// the outcome's [`rendezvous`](LaunchOutcome::rendezvous) flag reports.
    ///
    /// Panics if any block body panicked.
    pub fn launch_grid_indexed_cancellable<F>(
        &self,
        blocks: usize,
        cancel: Option<&CancelToken>,
        body: F,
    ) -> LaunchOutcome
    where
        F: Fn(usize, usize) + Send + Sync,
    {
        // Small grids are not worth waking the pool for.
        if self.threads == 0 || blocks <= 1 {
            let mut completed = true;
            for b in 0..blocks {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    completed = false;
                    break;
                }
                body(0, b);
            }
            return LaunchOutcome {
                completed,
                rendezvous: false,
            };
        }
        let launch = GridLaunch {
            body: &body,
            cancel,
            next_block: AtomicUsize::new(0),
            blocks,
            abandoned: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            pending: AtomicUsize::new(self.threads + 1),
            launcher: std::thread::current(),
        };
        // The one pool rendezvous of the launch: post it to every worker,
        // participate as the highest participant index, and park until every
        // participant has finished before `launch` goes out of scope.
        self.rendezvous.fetch_add(1, Ordering::Relaxed);
        let posted = std::ptr::from_ref(&launch).cast::<GridLaunch<'static>>();
        for queue in &self.queues {
            if queue.send(Posted(posted)).is_err() {
                // A worker that is gone never takes part.
                launch.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
        launch.run_blocks(self.threads);
        if launch.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            while launch.pending.load(Ordering::Acquire) != 0 {
                std::thread::park();
            }
        }
        if launch.poisoned.load(Ordering::Acquire) {
            panic!("a block of the grid launch panicked");
        }
        LaunchOutcome {
            completed: !launch.abandoned.load(Ordering::Acquire),
            rendezvous: true,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping the queues ends the workers.
        self.queues.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_block_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        let blocks = 1000;
        let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
        pool.launch_grid(blocks, |b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_block_grids() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        pool.launch_grid(0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        pool.launch_grid(1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sequential_pool_still_executes() {
        let pool = WorkerPool::new(0);
        let sum = AtomicU64::new(0);
        pool.launch_grid(100, |b| {
            sum.fetch_add(b as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn results_match_sequential_reference() {
        let pool = WorkerPool::new(4);
        let n = 4096;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.launch_grid(n, |b| {
            // A small amount of per-block work with a data-dependent result.
            let mut acc = b as u64;
            for i in 0..50u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            out[b].store(acc, Ordering::Relaxed);
        });
        for (b, slot) in out.iter().enumerate() {
            let mut acc = b as u64;
            for i in 0..50u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            assert_eq!(slot.load(Ordering::Relaxed), acc);
        }
    }

    #[test]
    fn panics_inside_blocks_are_propagated() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.launch_grid(16, |b| {
                if b == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable afterwards.
        let count = AtomicUsize::new(0);
        pool.launch_grid(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_block_launch_is_a_no_op_on_any_pool_size() {
        for threads in [0, 1, 4] {
            let pool = WorkerPool::new(threads);
            let count = AtomicUsize::new(0);
            pool.launch_grid(0, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 0, "threads = {threads}");
            // The pool stays usable after the empty launch.
            pool.launch_grid(3, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 3, "threads = {threads}");
        }
    }

    #[test]
    fn zero_worker_pool_reports_its_parallelism() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_threads(), 0);
        // The launcher always participates.
        assert_eq!(pool.parallelism(), 1);
    }

    #[test]
    fn zero_worker_pool_propagates_panics_and_survives() {
        // With no workers the launch runs inline; the panic must still reach
        // the caller and must not wedge the pool.
        let pool = WorkerPool::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.launch_grid(4, |b| {
                if b == 2 {
                    panic!("inline boom");
                }
            });
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        pool.launch_grid(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn single_block_panic_propagates_on_the_inline_fast_path() {
        // blocks == 1 takes the inline fast path even on a threaded pool.
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.launch_grid(1, |_| panic!("one-block boom"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn poisoning_is_reported_even_when_many_blocks_panic() {
        let pool = WorkerPool::new(3);
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.launch_grid(64, |b| {
                if b % 2 == 0 {
                    panic!("boom {b}");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Panicking blocks do not abort the grid: the odd blocks all ran.
        assert_eq!(survivors.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_launches_from_multiple_threads_are_isolated() {
        // The batch engine launches from the evaluation thread while other
        // evaluations may be in flight on other threads; each launch must
        // run each of its own blocks exactly once.
        let pool = std::sync::Arc::new(WorkerPool::new(3));
        let launchers: Vec<_> = (0..4)
            .map(|l| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    let blocks = 100 + l;
                    let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
                    for _ in 0..10 {
                        pool.launch_grid(blocks, |b| {
                            hits[b].fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 10)
                })
            })
            .collect();
        for launcher in launchers {
            assert!(launcher.join().unwrap(), "a launch lost or repeated blocks");
        }
    }

    #[test]
    fn more_concurrent_launchers_than_queue_slots_all_complete() {
        // Twice as many launchers as the one worker's queue holds: some find
        // it full and wait for the worker, which never waits on them.
        let pool = std::sync::Arc::new(WorkerPool::new(1));
        let launchers: Vec<_> = (0..2 * QUEUE_CAPACITY)
            .map(|l| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    let blocks = 2 + l;
                    let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
                    let rounds = 50;
                    for _ in 0..rounds {
                        let outcome = pool.launch_grid_indexed_cancellable(blocks, None, |_, b| {
                            hits[b].fetch_add(1, Ordering::Relaxed);
                        });
                        assert_eq!(
                            outcome,
                            LaunchOutcome {
                                completed: true,
                                rendezvous: true
                            }
                        );
                    }
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == rounds)
                })
            })
            .collect();
        for launcher in launchers {
            assert!(launcher.join().unwrap(), "a launch lost or repeated blocks");
        }
        assert_eq!(pool.rendezvous_count(), 2 * QUEUE_CAPACITY * 50);
    }

    #[test]
    fn launches_can_be_nested_sequentially() {
        // Launch-from-within-launch is not supported in CUDA either; what we
        // check is that back-to-back launches on the same pool reuse workers.
        let pool = WorkerPool::new(2);
        for round in 0..20 {
            let counter = AtomicUsize::new(0);
            pool.launch_grid(round + 1, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), round + 1);
        }
    }

    #[test]
    fn indexed_launches_hand_out_exclusive_in_bounds_lanes() {
        // The per-worker scratch contract: every lane is < parallelism() and
        // no lane is used by two blocks concurrently.
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let lanes = pool.parallelism();
            let in_use: Vec<AtomicUsize> = (0..lanes).map(|_| AtomicUsize::new(0)).collect();
            let overlap = AtomicUsize::new(0);
            let body = |lane: usize, _b: usize| {
                assert!(lane < lanes, "lane {lane} out of bounds");
                if in_use[lane].fetch_add(1, Ordering::SeqCst) != 0 {
                    overlap.fetch_add(1, Ordering::SeqCst);
                }
                // A little work to give overlaps a chance to show.
                std::hint::black_box((0..50).sum::<usize>());
                in_use[lane].fetch_sub(1, Ordering::SeqCst);
            };
            let _ = pool.launch_grid_indexed_cancellable(64, None, body);
            assert_eq!(
                overlap.load(Ordering::SeqCst),
                0,
                "threads = {threads}: a lane was used concurrently"
            );
        }
    }

    #[test]
    fn launches_report_their_own_rendezvous() {
        // Multi-block grids on a pool with workers wake it; empty and
        // single-block grids, and every grid on a worker-less pool, run
        // inline.  The shared counter moves by exactly the reported flags.
        for threads in [0usize, 1, 3] {
            let pool = WorkerPool::new(threads);
            let before = pool.rendezvous_count();
            let mut reported = 0;
            for blocks in [0usize, 1, 2, 8] {
                let outcome = pool.launch_grid_indexed_cancellable(blocks, None, |_, _| {});
                assert!(outcome.completed);
                assert_eq!(
                    outcome.rendezvous,
                    threads > 0 && blocks >= 2,
                    "threads = {threads}, blocks = {blocks}"
                );
                reported += usize::from(outcome.rendezvous);
            }
            assert_eq!(pool.rendezvous_count(), before + reported);
        }
    }

    #[test]
    fn pre_cancelled_grid_launch_runs_no_blocks() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let completed = pool
                .launch_grid_indexed_cancellable(64, Some(&token), |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .completed;
            assert!(!completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads = {threads}");
            // The pool stays usable and uncancelled launches run everything.
            let completed = pool
                .launch_grid_indexed_cancellable(8, None, |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .completed;
            assert!(completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 8, "threads = {threads}");
        }
    }

    #[test]
    fn grid_cancel_mid_flight_stops_claiming_blocks() {
        // Inline path (threads = 0): cancelling from block 0 deterministically
        // abandons blocks 1..; on threaded pools the stop is best-effort, so
        // only consistency is asserted there (see the test below).
        let pool = WorkerPool::new(0);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let completed = pool
            .launch_grid_indexed_cancellable(100, Some(&token), |_, b| {
                if b == 0 {
                    token.cancel();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .completed;
        assert!(!completed);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threaded_grid_cancel_reports_abandonment_consistently() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let blocks = 512;
        let completed = pool
            .launch_grid_indexed_cancellable(blocks, Some(&token), |_, b| {
                if b == 0 {
                    token.cancel();
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .completed;
        let ran = ran.load(Ordering::Relaxed);
        // `completed == false` iff blocks were skipped; either way the count
        // matches the report and the pool survives.
        assert_eq!(completed, ran == blocks, "ran {ran} of {blocks}");
        let again = AtomicUsize::new(0);
        pool.launch_grid(16, |_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn armed_but_untripped_token_changes_nothing() {
        let pool = WorkerPool::new(3);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let outcome = pool.launch_grid_indexed_cancellable(64, Some(&token), |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(outcome.completed);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }
}
