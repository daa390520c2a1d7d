//! A persistent worker pool executing "grids of blocks" on CPU threads.
//!
//! The paper launches CUDA kernels with one thread block per job; this pool
//! is the CPU stand-in for that execution model.  A launch hands the pool a
//! closure and a number of blocks; the participating threads claim
//! contiguous chunks of block indices from a shared atomic counter and run
//! the closure for each block of a chunk.  One launch per job layer
//! reproduces the paper's kernel-per-layer execution, including its global
//! barrier between layers.
//!
//! Claims are **guided** (Polychronopoulos and Kuck, "Guided
//! self-scheduling", IEEE Trans. Computers, 1987): each claim takes
//! `max(1, remaining / (2·P))` blocks for `P` participants, so a launch of
//! `N` blocks makes O(P·log(N/P)) claims instead of `N`, and its last
//! claims are single blocks, so a grid of a few heavy blocks still
//! balances.  Contiguous chunks also keep two threads from writing
//! neighbouring one-coefficient slots on one cache line.  The cancel token
//! is polled before each block, not each claim, so no block starts after
//! its participant sees a trip, and each block catches its own panic, so a
//! panicking block does not skip the rest of its chunk.
//!
//! [`WorkerPool::launch_grid_with`] is the one entry point: it takes an
//! optional [`CancelToken`] and a slice of per-participant state, lends
//! each participant its own element for the whole launch, and returns a
//! [`LaunchOutcome`] saying whether every block ran and whether the launch
//! woke the pool.  [`WorkerPool::launch_grid`] is the same launch for a
//! body that needs neither state nor token, and
//! [`WorkerPool::launch_each_with`] the same launch over a slice of items,
//! lending block `b` the item `b`.
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
use crate::shared::SharedSlice;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::{JoinHandle, Thread};

/// Launches a worker can hold queued: a launcher that finds the queue full
/// waits until the worker takes one.
const QUEUE_CAPACITY: usize = 8;

/// A claim takes `1 / (CLAIM_DIVISOR · P)` of the unclaimed blocks: at most
/// half a fair share, so a participant that wakes late or draws heavy
/// blocks still leaves the others enough to even out.
const CLAIM_DIVISOR: usize = 2;

/// One grid launch, shared by reference between the launcher and the
/// workers.  It lives on the launcher's stack: the launcher does not return
/// until `pending` reaches zero, and no participant touches the launch after
/// its own decrement.
struct GridLaunch<'a> {
    /// The per-block body, also told which participant runs the block
    /// (workers pass their thread index, the launcher passes `threads`), so
    /// the launch can lend each participant its own state.
    body: &'a (dyn Fn(usize, usize) + Sync),
    /// Cooperative cancellation: checked before each block, never inside a
    /// block body.  `None` for uncancellable launches.
    cancel: Option<&'a CancelToken>,
    /// Next block index to claim.
    next_block: AtomicUsize,
    /// Total number of blocks in the grid.
    blocks: usize,
    /// `CLAIM_DIVISOR` times the number of participants: a claim takes the
    /// unclaimed blocks divided by this, and at least one.
    claim_divisor: usize,
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
    /// Claims and runs chunks of blocks until the counter is exhausted or
    /// the launch is cancelled.  `participant` identifies the thread
    /// (workers `0..T`, launcher `T`); each runs a launch once, so no two
    /// threads ever run blocks as the same participant.
    ///
    /// A claim reads the counter and advances it by compare-and-swap past a
    /// chunk of `max(1, remaining / claim_divisor)` blocks, so every block
    /// index is claimed exactly once.  The cancellation check sits before
    /// each block body, so no new block body starts after its participant
    /// sees the trip, even in mid-chunk; blocks already running in other
    /// participants finish normally.  A panicking block is caught on its
    /// own, and the rest of its chunk still runs.
    fn run_blocks(&self, participant: usize) {
        // Relaxed: the counter publishes no data.  Block writes reach the
        // launcher through `pending`'s release-acquire pairing.
        let mut start = self.next_block.load(Ordering::Relaxed);
        while start < self.blocks {
            let end = start + ((self.blocks - start) / self.claim_divisor).max(1);
            if let Err(current) = self.next_block.compare_exchange_weak(
                start,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                start = current;
                continue;
            }
            for b in start..end {
                if self.cancel.is_some_and(CancelToken::is_cancelled) {
                    self.abandoned.store(true, Ordering::Release);
                    return;
                }
                let result = catch_unwind(AssertUnwindSafe(|| (self.body)(participant, b)));
                if result.is_err() {
                    self.poisoned.store(true, Ordering::Release);
                }
            }
            start = self.next_block.load(Ordering::Relaxed);
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

/// What one grid launch did, as reported by [`WorkerPool::launch_grid_with`].
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
    /// [`WorkerPool::launch_grid_with`] without state or a token.
    ///
    /// Panics if any block body panicked.
    pub fn launch_grid<F>(&self, blocks: usize, body: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let _ = self.launch(blocks, None, |_, b| body(b));
    }

    /// Executes `body(state, block)` once for every block index in
    /// `0..blocks`, returning when all blocks have completed or the launch
    /// was cancelled.
    ///
    /// The launch **lends each participant its own state**: the thread that
    /// runs as participant `p` gets `&mut states[p]` for every block it
    /// runs.  Participants are in `0..self.parallelism()`, each runs on one
    /// thread per launch, and the inline fast path is participant 0, so no
    /// state is ever used by two blocks at once.  Evaluation workspaces lend
    /// each participant pre-allocated scratch this way instead of
    /// allocating or locking inside a block.
    ///
    /// The launch polls `cancel` before each block: once the token trips, no
    /// further block body starts (blocks already running finish), and the
    /// outcome's [`completed`](LaunchOutcome::completed) flag is `false` —
    /// the caller must treat the grid's output as partial.  The poll is one
    /// relaxed atomic load per block; uncancelled launches (and `None`) are
    /// unaffected (bitwise-identical results, no extra synchronization).
    ///
    /// Grids of one block, and every grid on a pool without workers, run
    /// inline on the calling thread; any other grid wakes the pool, which
    /// the outcome's [`rendezvous`](LaunchOutcome::rendezvous) flag reports.
    ///
    /// # Panics
    ///
    /// Panics before any block runs when `states` is shorter than
    /// [`parallelism()`](WorkerPool::parallelism), and after the launch when
    /// any block body panicked.  On the pool a panicking block does not stop
    /// the others: every other block still runs (unless the token trips).
    /// Inline, the first panic propagates at once.
    pub fn launch_grid_with<S, F>(
        &self,
        blocks: usize,
        cancel: Option<&CancelToken>,
        states: &mut [S],
        body: F,
    ) -> LaunchOutcome
    where
        S: Send,
        F: Fn(&mut S, usize) + Sync,
    {
        assert!(
            states.len() >= self.parallelism(),
            "a launch lends one state to each of its {} participants, got {}",
            self.parallelism(),
            states.len()
        );
        let states = SharedSlice::new(states);
        self.launch(blocks, cancel, |participant, b| {
            // SAFETY: `participant < parallelism() <= states.len()`, and each
            // participant index runs its blocks one after another on a single
            // thread for the whole launch, so no other reference to this
            // element is live while the block runs.
            let state = unsafe { &mut states.slice_mut(participant, 1)[0] };
            body(state, b);
        })
    }

    /// Executes `body(state, item)` once for every element of `items`: the
    /// grid launch of [`WorkerPool::launch_grid_with`] with one block per
    /// item, where block `b` gets `&mut items[b]` and participant `p` gets
    /// `&mut states[p]`.  Independent per-item host steps (the tracker's
    /// lane steps) run on the pool this way without an `unsafe` of their
    /// own.  On a pool without workers, and for a single item, the items
    /// run inline in order.
    ///
    /// # Panics
    ///
    /// As [`launch_grid_with`](WorkerPool::launch_grid_with): before any
    /// block runs when `states` is shorter than
    /// [`parallelism()`](WorkerPool::parallelism), and after the launch when
    /// any block body panicked.
    pub fn launch_each_with<T, S, F>(
        &self,
        items: &mut [T],
        cancel: Option<&CancelToken>,
        states: &mut [S],
        body: F,
    ) -> LaunchOutcome
    where
        T: Send,
        S: Send,
        F: Fn(&mut S, &mut T) + Sync,
    {
        let items = SharedSlice::new(items);
        self.launch_grid_with(items.len(), cancel, states, |state, b| {
            // SAFETY: `b < items.len()`, and each block index is claimed
            // exactly once per launch, so no other reference to this
            // element is live while the block runs.
            let item = unsafe { &mut items.slice_mut(b, 1)[0] };
            body(state, item);
        })
    }

    /// The grid launch behind every entry point: runs `body(participant,
    /// block)` for every block, inline when there is nothing to share, else
    /// with one pool rendezvous.
    fn launch<F>(&self, blocks: usize, cancel: Option<&CancelToken>, body: F) -> LaunchOutcome
    where
        F: Fn(usize, usize) + Sync,
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
            claim_divisor: CLAIM_DIVISOR * self.parallelism(),
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
            let _ = pool.launch_grid_with(16, None, &mut [(); 3], |_, b| {
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
            let _ = pool.launch_grid_with(4, None, &mut [()], |_, b| {
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
            let _ = pool.launch_grid_with(1, None, &mut [(); 3], |_, _| panic!("one-block boom"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn poisoning_is_reported_even_when_many_blocks_panic() {
        let pool = WorkerPool::new(3);
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.launch_grid_with(64, None, &mut [(); 4], |_, b| {
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
                        let outcome = pool.launch_grid_with(blocks, None, &mut [(); 2], |_, b| {
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

    /// One participant's lent state in the lending tests: which state it
    /// is, whose launches it belongs to, and how many blocks it ran.
    struct Lent {
        index: usize,
        owner: usize,
        blocks: usize,
    }

    fn lent_states(owner: usize, count: usize) -> Vec<Lent> {
        (0..count)
            .map(|index| Lent {
                index,
                owner,
                blocks: 0,
            })
            .collect()
    }

    #[test]
    fn lent_states_are_exclusive_and_count_every_block() {
        // The per-participant state contract: no other thread holds a
        // block's state while that block runs, and the per-state block
        // counts add up to the grid.
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = lent_states(0, pool.parallelism());
            let in_use: Vec<AtomicUsize> = states.iter().map(|_| AtomicUsize::new(0)).collect();
            let overlap = AtomicUsize::new(0);
            let outcome = pool.launch_grid_with(64, None, &mut states, |state, _b| {
                if in_use[state.index].fetch_add(1, Ordering::SeqCst) != 0 {
                    overlap.fetch_add(1, Ordering::SeqCst);
                }
                // A little work to give overlaps a chance to show.
                std::hint::black_box((0..50).sum::<usize>());
                state.blocks += 1;
                in_use[state.index].fetch_sub(1, Ordering::SeqCst);
            });
            assert!(outcome.completed);
            assert_eq!(
                overlap.load(Ordering::SeqCst),
                0,
                "threads = {threads}: a state was used concurrently"
            );
            let total: usize = states.iter().map(|s| s.blocks).sum();
            assert_eq!(total, 64, "threads = {threads}");
        }
    }

    #[test]
    fn concurrent_launchers_see_only_their_own_states() {
        for threads in [0usize, 1, 4] {
            let pool = std::sync::Arc::new(WorkerPool::new(threads));
            let launchers: Vec<_> = (0..2)
                .map(|owner| {
                    let pool = std::sync::Arc::clone(&pool);
                    std::thread::spawn(move || {
                        let mut states = lent_states(owner, pool.parallelism());
                        let foreign = AtomicUsize::new(0);
                        for _ in 0..50 {
                            let _ = pool.launch_grid_with(32, None, &mut states, |state, _| {
                                if state.owner != owner {
                                    foreign.fetch_add(1, Ordering::Relaxed);
                                }
                                state.blocks += 1;
                            });
                        }
                        let total: usize = states.iter().map(|s| s.blocks).sum();
                        (foreign.load(Ordering::Relaxed), total)
                    })
                })
                .collect();
            for launcher in launchers {
                let (foreign, total) = launcher.join().unwrap();
                assert_eq!(
                    foreign, 0,
                    "threads = {threads}: a launch saw a foreign state"
                );
                assert_eq!(total, 50 * 32, "threads = {threads}");
            }
        }
    }

    #[test]
    fn states_are_lent_again_after_a_panicking_launch() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = lent_states(0, pool.parallelism());
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.launch_grid_with(16, None, &mut states, |state, b| {
                    state.blocks += 1;
                    if b == 7 {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err(), "threads = {threads}");
            let before: usize = states.iter().map(|s| s.blocks).sum();
            let hits: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let outcome = pool.launch_grid_with(16, None, &mut states, |state, b| {
                state.blocks += 1;
                hits[b].fetch_add(1, Ordering::Relaxed);
            });
            assert!(outcome.completed, "threads = {threads}");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let after: usize = states.iter().map(|s| s.blocks).sum();
            assert_eq!(after, before + 16, "threads = {threads}");
        }
    }

    #[test]
    fn a_short_state_slice_panics_before_any_block_runs() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = vec![(); pool.parallelism() - 1];
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.launch_grid_with(8, None, &mut states, |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(result.is_err(), "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads = {threads}");
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
                let outcome = pool.launch_grid_with(blocks, None, &mut [(); 4], |_, _| {});
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
                .launch_grid_with(64, Some(&token), &mut [(); 5], |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .completed;
            assert!(!completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads = {threads}");
            // The pool stays usable and uncancelled launches run everything.
            let completed = pool
                .launch_grid_with(8, None, &mut [(); 5], |_, _| {
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
            .launch_grid_with(100, Some(&token), &mut [()], |_, b| {
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
            .launch_grid_with(blocks, Some(&token), &mut [(); 5], |_, b| {
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
        let outcome = pool.launch_grid_with(64, Some(&token), &mut [(); 4], |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(outcome.completed);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }

    /// Runs one `blocks`-block grid and asserts that every block ran once.
    fn assert_every_block_once(pool: &WorkerPool, blocks: usize) {
        let hits: Vec<AtomicUsize> = (0..blocks).map(|_| AtomicUsize::new(0)).collect();
        pool.launch_grid(blocks, |b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        for (b, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "block {b} of {blocks}");
        }
    }

    /// The tracker's degree-0 addition layer: 20,480 one-coefficient blocks.
    const TRACKER_ADD_BLOCKS: usize = 20_480;

    #[test]
    fn guided_claims_run_every_block_exactly_once() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            for blocks in (0..=300).chain([TRACKER_ADD_BLOCKS]) {
                assert_every_block_once(&pool, blocks);
            }
        }
    }

    #[test]
    fn guided_claims_stay_exact_under_concurrent_launchers() {
        for threads in [0usize, 1, 4] {
            let pool = std::sync::Arc::new(WorkerPool::new(threads));
            let launchers: Vec<_> = (0..4)
                .map(|l| {
                    let pool = std::sync::Arc::clone(&pool);
                    std::thread::spawn(move || {
                        for blocks in (l..=300).step_by(4).chain([TRACKER_ADD_BLOCKS]) {
                            assert_every_block_once(&pool, blocks);
                        }
                    })
                })
                .collect();
            for launcher in launchers {
                assert!(launcher.join().is_ok(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn cancel_is_polled_before_each_block_not_each_chunk() {
        // A trip in the middle of the grid: each other participant may have
        // polled just before it, so at most one block body per other
        // participant starts on a tripped token.  A poll per chunk would
        // let whole chunks start tripped.
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let token = CancelToken::new();
            let blocks = 10_000;
            let (ran, started_tripped) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let states = &mut vec![(); pool.parallelism()];
            let completed = pool
                .launch_grid_with(blocks, Some(&token), states, |_, b| {
                    if token.is_cancelled() {
                        started_tripped.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::black_box((0..20).sum::<usize>());
                    if b == blocks / 2 {
                        token.cancel();
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                })
                .completed;
            let (ran, started_tripped) = (ran.into_inner(), started_tripped.into_inner());
            assert!(
                started_tripped < pool.parallelism(),
                "threads = {threads}: {started_tripped} blocks started after the trip"
            );
            assert_eq!(completed, ran == blocks, "threads = {threads}: ran {ran}");
            if threads == 0 {
                assert_eq!(ran, blocks / 2 + 1);
            }
        }
    }

    #[test]
    fn launch_each_with_lends_every_item_to_exactly_one_block() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            for len in (0..=40).chain([1_000]) {
                let mut items = vec![0usize; len];
                let mut states = lent_states(0, pool.parallelism());
                let outcome =
                    pool.launch_each_with(&mut items, None, &mut states, |state, item| {
                        *item += 1;
                        state.blocks += 1;
                    });
                assert!(outcome.completed);
                assert!(items.iter().all(|&hits| hits == 1), "threads = {threads}");
                let total: usize = states.iter().map(|s| s.blocks).sum();
                assert_eq!(total, len, "threads = {threads}");
            }
        }
    }

    #[test]
    fn launch_each_with_never_uses_a_state_concurrently() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = lent_states(0, pool.parallelism());
            let in_use: Vec<AtomicUsize> = states.iter().map(|_| AtomicUsize::new(0)).collect();
            let overlap = AtomicUsize::new(0);
            let mut items = vec![0usize; 256];
            let outcome = pool.launch_each_with(&mut items, None, &mut states, |state, item| {
                if in_use[state.index].fetch_add(1, Ordering::SeqCst) != 0 {
                    overlap.fetch_add(1, Ordering::SeqCst);
                }
                std::hint::black_box((0..50).sum::<usize>());
                state.blocks += 1;
                *item = state.index + 1;
                in_use[state.index].fetch_sub(1, Ordering::SeqCst);
            });
            assert!(outcome.completed);
            assert_eq!(
                overlap.into_inner(),
                0,
                "threads = {threads}: a state was used concurrently"
            );
            // Every item records the participant whose state ran it, and
            // each state's count matches the items it ran.
            for state in &states {
                let ran = items.iter().filter(|&&p| p == state.index + 1).count();
                assert_eq!(ran, state.blocks, "threads = {threads}");
            }
            assert!(items.iter().all(|&p| p != 0), "threads = {threads}");
        }
    }

    #[test]
    fn launch_each_with_propagates_a_panic_after_every_other_item_ran() {
        // On the pool every other item runs before the panic propagates;
        // inline (no workers) the panic propagates at once, in item order.
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut items: Vec<(usize, bool)> = (0..64).map(|i| (i, false)).collect();
            let mut states = vec![(); pool.parallelism()];
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.launch_each_with(&mut items, None, &mut states, |_, item| {
                    if item.0 == 7 {
                        panic!("item boom");
                    }
                    item.1 = true;
                });
            }));
            assert!(result.is_err(), "threads = {threads}");
            for &(i, ran) in &items {
                let expected = if threads == 0 { i < 7 } else { i != 7 };
                assert_eq!(ran, expected, "threads = {threads}, item {i}");
            }
        }
    }

    #[test]
    fn launch_each_with_panics_on_a_short_state_slice_before_any_block_runs() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let mut states = vec![(); pool.parallelism() - 1];
            let mut items = vec![0usize; 8];
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _ = pool.launch_each_with(&mut items, None, &mut states, |_, item| *item += 1);
            }));
            assert!(result.is_err(), "threads = {threads}");
            assert!(items.iter().all(|&hits| hits == 0), "threads = {threads}");
        }
    }
}
