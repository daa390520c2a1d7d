//! A persistent worker pool executing "grids of blocks" on CPU threads.
//!
//! The paper launches CUDA kernels with one thread block per job; this pool
//! is the CPU stand-in for that execution model.  Two launch shapes exist,
//! one entry point each (both take an optional [`CancelToken`] and tell the
//! body which participant lane runs the block):
//!
//! * [`WorkerPool::launch_grid_indexed_cancellable`] — the layered
//!   reference path: a launch hands the pool a closure and a number of
//!   blocks; worker threads claim block indices from a shared atomic
//!   counter and run the closure for each claimed block.  One launch per
//!   job layer reproduces the paper's kernel-per-layer execution, including
//!   its global barrier between layers.  [`WorkerPool::launch_grid`] is the
//!   same launch for a body that needs neither lane nor token.
//! * [`WorkerPool::launch_graph_indexed_cancellable`] — the
//!   dependency-driven path: the launch hands the pool a [`TaskGraph`]
//!   whose blocks are released to per-worker work-stealing deques as their
//!   predecessors retire, so the whole multi-layer computation costs
//!   **one** pool rendezvous instead of one per layer.
//!
//! The launching thread participates in the work, so a pool of `T` workers
//! provides `T + 1`-way parallelism and a launch never deadlocks even if the
//! pool has zero worker threads.

use crate::cancel::CancelToken;
use crate::graph::TaskGraph;
use crossbeam::channel::{unbounded, Sender};
use crossbeam::deque::{Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Completion rendezvous shared by the launcher and the workers of one
/// launch: the last participant to finish wakes the launcher.
struct Completion {
    /// Number of participants that have not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

impl Completion {
    fn new(participants: usize) -> Self {
        Self {
            pending: AtomicUsize::new(participants),
            done_lock: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Marks one participant as finished; the last one signals the launcher.
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done_lock.lock();
            *done = true;
            self.done_cv.notify_all();
        }
    }

    /// Blocks until every participant has finished.
    fn wait(&self) {
        let mut done = self.done_lock.lock();
        while !*done {
            self.done_cv.wait(&mut done);
        }
    }
}

/// One unit of pool work: a whole launch (grid or graph) that every
/// participating thread helps to drain.
trait PoolTask: Send + Sync {
    /// Runs this participant's share of the launch and signals completion.
    /// `index` identifies the participant (workers `0..T`, launcher `T`).
    fn run_participant(&self, index: usize);
}

/// State shared between the launcher and the workers for one grid launch.
struct GridLaunchState {
    /// The per-block body, also told which participant lane runs the block
    /// (workers pass their thread index, the launcher passes `threads`), so
    /// bodies can borrow per-participant scratch instead of allocating.
    body: Box<dyn Fn(usize, usize) + Send + Sync>,
    /// Next block index to claim.
    next_block: AtomicUsize,
    /// Total number of blocks in the grid.
    blocks: usize,
    /// Cooperative cancellation: checked between block claims, never inside
    /// a block body.  `None` for uncancellable launches.
    cancel: Option<CancelToken>,
    /// Set when a participant observed the cancelled token and skipped at
    /// least one unclaimed block.
    abandoned: AtomicBool,
    /// Set when any block body panicked.
    poisoned: AtomicBool,
    /// Completion signalling.
    completion: Completion,
}

impl GridLaunchState {
    /// Claims and runs blocks until the counter is exhausted or the launch
    /// is cancelled.  The cancellation check sits between the claim and the
    /// body, so no new block body starts after the token trips; blocks
    /// already running in other participants finish normally.
    fn drain(&self, participant: usize) {
        loop {
            let b = self.next_block.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                break;
            }
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                self.abandoned.store(true, Ordering::Release);
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(participant, b)));
            if result.is_err() {
                self.poisoned.store(true, Ordering::Release);
            }
        }
    }
}

impl PoolTask for GridLaunchState {
    fn run_participant(&self, index: usize) {
        // A worker may drain more than one message of this launch (the
        // channel is MPMC, not broadcast), but it does so sequentially on
        // one thread, so its participant lane is never used concurrently.
        self.drain(index);
        self.completion.finish_one();
    }
}

/// State shared between the launcher and the workers for one graph launch:
/// per-participant work-stealing deques, an atomic remaining-dependency
/// counter per block, and blocks released to the deques as their
/// predecessors retire.
struct GraphLaunchState {
    /// The per-block body, also told which participant lane runs the block
    /// (the claimed deque slot, in `0..participants`).
    body: Box<dyn Fn(usize, usize) + Send + Sync>,
    /// The dependency graph of one instance (lifetime-erased; the launcher
    /// waits for completion before returning, so the reference stays valid
    /// for the whole launch).
    graph: &'static TaskGraph,
    /// Nodes per instance.
    nodes: usize,
    /// Total blocks across all instances (`instances * nodes`).
    total_blocks: usize,
    /// Remaining-predecessor count per block.
    pending: Vec<AtomicU32>,
    /// Nodes ready at launch (zero in-degree), shared by every instance.
    roots: Vec<u32>,
    /// Next root to claim, indexing the virtual `instances × roots` list.
    /// Roots are claimed from this shared counter exactly like the layered
    /// path claims blocks — no deque traffic for the launch wavefront; the
    /// deques only carry blocks released at fan-outs.
    next_root: AtomicUsize,
    /// One work-stealing deque per participant, taken by its owner at the
    /// start of the launch.
    deques: Vec<Mutex<Option<Worker<usize>>>>,
    /// Stealers over every participant's deque.
    stealers: Vec<Stealer<usize>>,
    /// Next unclaimed deque.  The pool channel is MPMC, not broadcast: one
    /// worker may receive several copies of this launch (and another none),
    /// so participants claim deque slots here instead of using their worker
    /// index.  Exactly `participants` messages exist (threads sends plus the
    /// launcher), so every slot is claimed exactly once.
    next_participant: AtomicUsize,
    /// Bumped whenever a fan-out pushes stealable work to a deque.  Idle
    /// participants read it before scanning and park on `idle_cv` only if it
    /// is unchanged afterwards, so they sleep through the serial tail of a
    /// launch instead of busy-spinning on the deque mutexes.
    work_epoch: AtomicUsize,
    /// Parking lot for idle participants (no ready work anywhere).
    idle_lock: Mutex<()>,
    /// Notified on fan-out pushes and on final retirement.
    idle_cv: Condvar,
    /// Number of retired blocks (termination condition).
    retired: AtomicUsize,
    /// Cooperative cancellation: checked before each block body, never
    /// inside one.  `None` for uncancellable launches.
    cancel: Option<CancelToken>,
    /// Set when at least one block body was skipped because the token
    /// tripped (the launch result is partial).
    abandoned: AtomicBool,
    /// Set when any block body panicked.
    poisoned: AtomicBool,
    /// Completion signalling.
    completion: Completion,
}

impl GraphLaunchState {
    fn new(
        body: Box<dyn Fn(usize, usize) + Send + Sync>,
        graph: &'static TaskGraph,
        instances: usize,
        participants: usize,
        cancel: Option<CancelToken>,
    ) -> Self {
        let nodes = graph.len();
        let total_blocks = instances * nodes;
        let mut pending = Vec::with_capacity(total_blocks);
        for _ in 0..instances {
            for n in 0..nodes {
                pending.push(AtomicU32::new(graph.in_degree(n)));
            }
        }
        let workers: Vec<Worker<usize>> = (0..participants).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let roots = graph.roots().iter().map(|&n| n as u32).collect();
        let deques = workers.into_iter().map(|w| Mutex::new(Some(w))).collect();
        Self {
            body,
            graph,
            nodes,
            total_blocks,
            pending,
            roots,
            next_root: AtomicUsize::new(0),
            deques,
            stealers,
            next_participant: AtomicUsize::new(0),
            work_epoch: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            retired: AtomicUsize::new(0),
            cancel,
            abandoned: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            completion: Completion::new(participants),
        }
    }

    /// Claims the next unclaimed root block (launch wavefront), if any.
    fn claim_root(&self) -> Option<usize> {
        let instances = self.total_blocks / self.nodes;
        let i = self.next_root.fetch_add(1, Ordering::Relaxed);
        if i >= self.roots.len() * instances {
            return None;
        }
        let instance = i / self.roots.len();
        let node = self.roots[i % self.roots.len()] as usize;
        Some(instance * self.nodes + node)
    }

    /// Runs one block and releases its successors.  The first successor
    /// whose last predecessor retires is returned as the **continuation** —
    /// the caller runs it directly, so a dependency chain executes with no
    /// deque traffic at all (the dominant pattern: forward/backward product
    /// chains and tree summations).  Any further released successors are
    /// pushed onto this participant's deque for other workers to steal.
    fn execute(&self, me: usize, block: usize, local: &Worker<usize>) -> Option<usize> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            // Cancelled: skip the body but still release the successors and
            // retire the block below, exactly like the panic-poisoning path
            // — the graph must drain so the launch terminates and the pool
            // stays usable.  The remaining blocks race through this skip arm
            // at pointer speed.
            self.abandoned.store(true, Ordering::Release);
        } else {
            let result = catch_unwind(AssertUnwindSafe(|| (self.body)(me, block)));
            if result.is_err() {
                // Poison the launch but still release the successors below:
                // the graph must drain so the launch terminates, exactly
                // like the layered path runs the remaining blocks after a
                // panic.  The launcher re-raises the panic once every block
                // has retired.
                self.poisoned.store(true, Ordering::Release);
            }
        }
        let node = block % self.nodes;
        let instance_base = block - node;
        let mut continuation = None;
        let mut pushed = false;
        for &s in self.graph.successors(node) {
            let succ_block = instance_base + s as usize;
            if self.pending[succ_block].fetch_sub(1, Ordering::AcqRel) == 1 {
                if continuation.is_none() {
                    continuation = Some(succ_block);
                } else {
                    local.push(succ_block);
                    pushed = true;
                }
            }
        }
        if pushed {
            // Wake parked participants: new stealable work exists.  Bumping
            // the epoch before taking the lock closes the race against a
            // scanner that found nothing and is about to park.
            self.work_epoch.fetch_add(1, Ordering::Release);
            let _guard = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
        if self.retired.fetch_add(1, Ordering::AcqRel) + 1 == self.total_blocks {
            // Final retirement: wake everyone so they observe termination.
            let _guard = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
        continuation
    }

    /// Steals ready blocks from another participant's deque: one batched
    /// steal moves about half the victim's queue into `local` and returns
    /// one block, so the thief works from its own deque afterwards.
    fn steal(&self, me: usize, local: &Worker<usize>) -> Option<usize> {
        let n = self.stealers.len();
        for k in 1..n {
            let target = (me + k) % n;
            loop {
                match self.stealers[target].steal_batch_and_pop(local) {
                    Steal::Success(block) => return Some(block),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }
}

impl PoolTask for GraphLaunchState {
    fn run_participant(&self, _index: usize) {
        // Claim a deque slot (not the worker index: a worker may drain more
        // than one message of this launch, see `next_participant`).
        let me = self.next_participant.fetch_add(1, Ordering::AcqRel);
        let local = self.deques[me]
            .lock()
            .take()
            .expect("participant deque already taken");
        loop {
            // Snapshot the work epoch BEFORE scanning: if a fan-out pushes
            // work while we scan, the epoch moves and we rescan instead of
            // parking past it.
            let epoch = self.work_epoch.load(Ordering::Acquire);
            let block = local
                .pop()
                .or_else(|| self.claim_root())
                .or_else(|| self.steal(me, &local));
            match block {
                Some(b) => {
                    // Run the block, then chase its continuation chain:
                    // each retired block hands over the successor it just
                    // made ready, so chains run back to back without
                    // touching the deque.
                    let mut current = b;
                    while let Some(next) = self.execute(me, current, &local) {
                        current = next;
                    }
                }
                None => {
                    if self.retired.load(Ordering::Acquire) >= self.total_blocks {
                        break;
                    }
                    // Park instead of spinning: idle participants would
                    // otherwise contend on the deque mutexes the working
                    // threads need.  Wakers take `idle_lock` after bumping
                    // the epoch / retiring the last block, so re-checking
                    // both under the lock makes the park race-free; the
                    // timeout is pure insurance.
                    let mut guard = self.idle_lock.lock();
                    if self.retired.load(Ordering::Acquire) >= self.total_blocks {
                        break;
                    }
                    if self.work_epoch.load(Ordering::Acquire) == epoch {
                        let _ = self
                            .idle_cv
                            .wait_for(&mut guard, std::time::Duration::from_millis(1));
                    }
                }
            }
        }
        self.completion.finish_one();
    }
}

/// A persistent pool of worker threads executing grid and graph launches.
pub struct WorkerPool {
    sender: Sender<Arc<dyn PoolTask>>,
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
        let (sender, receiver) = unbounded::<Arc<dyn PoolTask>>();
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = receiver.clone();
            let handle = std::thread::Builder::new()
                .name(format!("psmd-worker-{i}"))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task.run_participant(i);
                    }
                })
                .expect("failed to spawn worker thread");
            workers.push(handle);
        }
        Self {
            sender,
            workers,
            threads,
            rendezvous: AtomicUsize::new(0),
        }
    }

    /// Creates a pool sized to the available hardware parallelism, or to the
    /// `PSMD_THREADS` environment variable when set (the value is the number
    /// of worker threads; `0` degenerates to sequential execution).  CI runs
    /// the test suite under `PSMD_THREADS=0,1,4` to exercise the executor
    /// under no, little and real contention.
    pub fn with_default_parallelism() -> Self {
        Self::new(Self::default_worker_threads())
    }

    /// The worker-thread count [`Self::with_default_parallelism`] would use:
    /// the `PSMD_THREADS` override when set, otherwise one less than the
    /// hardware parallelism (the launcher always participates).  Callers
    /// that need the count without building a pool (harness reports,
    /// examples) should use this instead of constructing a throwaway pool.
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

    /// Total number of pool rendezvous performed so far: launches that woke
    /// the worker threads and waited for all of them to finish.  The layered
    /// path pays one rendezvous per job layer; the graph path pays one per
    /// evaluation.  Inline fast paths (zero workers, single-block grids) do
    /// not count.
    pub fn rendezvous_count(&self) -> usize {
        self.rendezvous.load(Ordering::Relaxed)
    }

    /// Hands a launch to every worker, participates as the last index, and
    /// waits for completion — the one pool-wide rendezvous of a launch.
    fn rendezvous(&self, task: Arc<dyn PoolTask>) {
        self.rendezvous.fetch_add(1, Ordering::Relaxed);
        for _ in 0..self.threads {
            self.sender
                .send(Arc::clone(&task))
                .expect("worker channel closed");
        }
        // The launcher participates too, as the highest participant index.
        task.run_participant(self.threads);
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
        self.launch_grid_indexed_cancellable(blocks, None, |_, b| body(b));
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
    /// trips, no further block body starts (blocks already running finish).
    /// Returns `true` when every block ran, `false` when the launch was
    /// abandoned with blocks skipped — the caller must treat the grid's
    /// output as partial.  The poll is one relaxed atomic load per block
    /// claim; uncancelled launches (and `None`) are unaffected
    /// (bitwise-identical results, no extra synchronization).
    ///
    /// Panics if any block body panicked.
    pub fn launch_grid_indexed_cancellable<F>(
        &self,
        blocks: usize,
        cancel: Option<&CancelToken>,
        body: F,
    ) -> bool
    where
        F: Fn(usize, usize) + Send + Sync,
    {
        if blocks == 0 {
            return true;
        }
        // Small grids are not worth waking the pool for.
        if self.threads == 0 || blocks == 1 {
            for b in 0..blocks {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return false;
                }
                body(0, b);
            }
            return true;
        }
        // The body only needs to live for the duration of this call: workers
        // are joined (via the condition variable) before we return, so it is
        // sound to erase the lifetime.  This mirrors what scoped thread pools
        // do internally.
        let body_static: Box<dyn Fn(usize, usize) + Send + Sync> = unsafe {
            std::mem::transmute::<Box<dyn Fn(usize, usize) + Send + Sync + '_>, _>(Box::new(body))
        };
        let participants = self.threads + 1;
        let state = Arc::new(GridLaunchState {
            body: body_static,
            next_block: AtomicUsize::new(0),
            blocks,
            cancel: cancel.cloned(),
            abandoned: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            completion: Completion::new(participants),
        });
        self.rendezvous(Arc::clone(&state) as Arc<dyn PoolTask>);
        // Wait for every participant to finish before returning (and before
        // `body` is dropped).
        state.completion.wait();
        if state.poisoned.load(Ordering::Acquire) {
            panic!("a block of the grid launch panicked");
        }
        !state.abandoned.load(Ordering::Acquire)
    }

    /// Executes `body(lane, block)` once for every block of `instances`
    /// independent copies of `graph`, releasing each block as soon as its
    /// predecessors have retired — no per-layer barrier, exactly **one**
    /// pool rendezvous for the whole launch.
    ///
    /// Block `b` runs node `b % graph.len()` of instance `b / graph.len()`;
    /// dependency edges apply within each instance, and instances share no
    /// edges (the batched arena gives every instance disjoint slots).  The
    /// lane is the claimed deque slot, in `0..self.parallelism()` (the
    /// inline fast path uses lane 0); see
    /// [`WorkerPool::launch_grid_indexed_cancellable`] for the lane
    /// contract.
    ///
    /// The launch polls `cancel` before each block body: once the token
    /// trips, remaining blocks are *skipped* instead of run — they still
    /// release their successors and retire (exactly like the
    /// panic-poisoning path), so the graph drains, the single rendezvous
    /// completes and the pool stays usable.  Returns `true` when every
    /// block ran, `false` when at least one was skipped — the caller must
    /// treat the output as partial.  The poll is one relaxed atomic load per
    /// block, outside the block body.
    ///
    /// Panics if any block body panicked (the remaining blocks still run
    /// first, like the layered path).
    pub fn launch_graph_indexed_cancellable<F>(
        &self,
        graph: &TaskGraph,
        instances: usize,
        cancel: Option<&CancelToken>,
        body: F,
    ) -> bool
    where
        F: Fn(usize, usize) + Send + Sync,
    {
        let blocks = instances * graph.len();
        if blocks == 0 {
            return true;
        }
        // Lifetime erasure is sound for the same reason as in `launch_grid`:
        // the launcher waits for every participant before returning.
        let body_static: Box<dyn Fn(usize, usize) + Send + Sync> = unsafe {
            std::mem::transmute::<Box<dyn Fn(usize, usize) + Send + Sync + '_>, _>(Box::new(body))
        };
        let graph_static: &'static TaskGraph =
            unsafe { std::mem::transmute::<&TaskGraph, &'static TaskGraph>(graph) };
        if self.threads == 0 || blocks == 1 {
            // Inline fast path: one participant drains the whole graph in
            // dependency order without waking the pool.
            let state =
                GraphLaunchState::new(body_static, graph_static, instances, 1, cancel.cloned());
            state.run_participant(0);
            if state.poisoned.load(Ordering::Acquire) {
                panic!("a block of the graph launch panicked");
            }
            return !state.abandoned.load(Ordering::Acquire);
        }
        let participants = self.threads + 1;
        let state = Arc::new(GraphLaunchState::new(
            body_static,
            graph_static,
            instances,
            participants,
            cancel.cloned(),
        ));
        self.rendezvous(Arc::clone(&state) as Arc<dyn PoolTask>);
        state.completion.wait();
        if state.poisoned.load(Ordering::Acquire) {
            panic!("a block of the graph launch panicked");
        }
        !state.abandoned.load(Ordering::Acquire)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel terminates the workers.
        let (dummy_tx, _) = unbounded();
        let old = std::mem::replace(&mut self.sender, dummy_tx);
        drop(old);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The process-wide default pool, sized to the hardware parallelism (or to
/// `PSMD_THREADS` when set).
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(WorkerPool::with_default_parallelism)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;
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
    fn global_pool_is_shared_and_parallel() {
        let p1 = global_pool();
        let p2 = global_pool();
        assert!(std::ptr::eq(p1, p2));
        assert!(p1.parallelism() >= 1);
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
            pool.launch_grid_indexed_cancellable(64, None, body);
            let mut b = TaskGraphBuilder::new();
            for c in 0..16usize {
                b.add_task(&[], &[2 * c]);
                b.add_task(&[2 * c], &[2 * c + 1]);
            }
            let g = b.build();
            pool.launch_graph_indexed_cancellable(&g, 4, None, body);
            assert_eq!(
                overlap.load(Ordering::SeqCst),
                0,
                "threads = {threads}: a lane was used concurrently"
            );
        }
    }

    /// A diamond graph: 0 -> {1, 2} -> 3.
    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new();
        b.add_task(&[], &[0]);
        b.add_task(&[0], &[1]);
        b.add_task(&[0], &[2]);
        b.add_task(&[1, 2], &[3]);
        b.build()
    }

    #[test]
    fn graph_launch_respects_dependency_order() {
        for threads in [0, 1, 4] {
            let pool = WorkerPool::new(threads);
            let g = diamond();
            let stamp = AtomicUsize::new(0);
            let order: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.launch_graph_indexed_cancellable(&g, 1, None, |_, b| {
                order[b].store(stamp.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            });
            let at = |i: usize| order[i].load(Ordering::SeqCst);
            assert!(at(0) < at(1), "threads = {threads}");
            assert!(at(0) < at(2), "threads = {threads}");
            assert!(at(1) < at(3), "threads = {threads}");
            assert!(at(2) < at(3), "threads = {threads}");
        }
    }

    #[test]
    fn graph_launch_runs_every_block_of_every_instance_once() {
        let pool = WorkerPool::new(3);
        let g = diamond();
        let instances = 25;
        let hits: Vec<AtomicUsize> = (0..4 * instances).map(|_| AtomicUsize::new(0)).collect();
        pool.launch_graph_indexed_cancellable(&g, instances, None, |_, b| {
            hits[b].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn graph_launch_performs_exactly_one_rendezvous() {
        let pool = WorkerPool::new(3);
        let g = diamond();
        let before = pool.rendezvous_count();
        pool.launch_graph_indexed_cancellable(&g, 8, None, |_, _| {});
        assert_eq!(pool.rendezvous_count(), before + 1);
        // The layered equivalent of a 4-deep chain pays one rendezvous per
        // layer.
        let before = pool.rendezvous_count();
        for _ in 0..3 {
            pool.launch_grid(8, |_| {});
        }
        assert_eq!(pool.rendezvous_count(), before + 3);
    }

    #[test]
    fn empty_graph_and_zero_instances_are_no_ops() {
        let pool = WorkerPool::new(2);
        let empty = TaskGraphBuilder::new().build();
        let count = AtomicUsize::new(0);
        let before = pool.rendezvous_count();
        pool.launch_graph_indexed_cancellable(&empty, 5, None, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let g = diamond();
        pool.launch_graph_indexed_cancellable(&g, 0, None, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
        assert_eq!(pool.rendezvous_count(), before);
        // The pool stays usable.
        pool.launch_graph_indexed_cancellable(&g, 1, None, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn graph_panics_poison_the_launch_and_the_pool_survives() {
        for threads in [0, 2] {
            let pool = WorkerPool::new(threads);
            let g = diamond();
            let ran = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.launch_graph_indexed_cancellable(&g, 4, None, |_, b| {
                    if b % 4 == 1 {
                        panic!("graph boom {b}");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }));
            assert!(result.is_err(), "threads = {threads}");
            // The panicking node still releases its successors, so the
            // graph drains: 3 surviving blocks per instance.
            assert_eq!(ran.load(Ordering::Relaxed), 12, "threads = {threads}");
            // The pool stays usable afterwards.
            let count = AtomicUsize::new(0);
            pool.launch_graph_indexed_cancellable(&g, 2, None, |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 8, "threads = {threads}");
        }
    }

    #[test]
    fn deep_chain_executes_in_order_under_stealing() {
        // A single long chain forces the executor through the release path
        // for every block; any ordering bug corrupts the running product.
        let mut b = TaskGraphBuilder::new();
        let n = 500usize;
        for i in 0..n {
            if i == 0 {
                b.add_task(&[], &[0]);
            } else {
                b.add_task(&[i - 1], &[i]);
            }
        }
        let g = b.build();
        assert_eq!(g.critical_path_len(), n);
        let pool = WorkerPool::new(4);
        let acc = AtomicU64::new(1);
        pool.launch_graph_indexed_cancellable(&g, 1, None, |_, b| {
            // acc := acc * 3 + b, order-sensitive.
            let prev = acc.load(Ordering::Acquire);
            acc.store(
                prev.wrapping_mul(3).wrapping_add(b as u64),
                Ordering::Release,
            );
        });
        let mut want = 1u64;
        for i in 0..n as u64 {
            want = want.wrapping_mul(3).wrapping_add(i);
        }
        assert_eq!(acc.load(Ordering::Relaxed), want);
    }

    #[test]
    fn pre_cancelled_grid_launch_runs_no_blocks() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let completed = pool.launch_grid_indexed_cancellable(64, Some(&token), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert!(!completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads = {threads}");
            // The pool stays usable and uncancelled launches run everything.
            let completed = pool.launch_grid_indexed_cancellable(8, None, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
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
        let completed = pool.launch_grid_indexed_cancellable(100, Some(&token), |_, b| {
            if b == 0 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!completed);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn threaded_grid_cancel_reports_abandonment_consistently() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let blocks = 512;
        let completed = pool.launch_grid_indexed_cancellable(blocks, Some(&token), |_, b| {
            if b == 0 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
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
    fn pre_cancelled_graph_launch_drains_without_running_bodies() {
        for threads in [0usize, 1, 4] {
            let pool = WorkerPool::new(threads);
            let g = diamond();
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let completed = pool.launch_graph_indexed_cancellable(&g, 8, Some(&token), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert!(!completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads = {threads}");
            // The skipped blocks still drained: the pool is immediately
            // reusable for an uncancelled launch of the same graph.
            let completed = pool.launch_graph_indexed_cancellable(&g, 2, None, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert!(completed, "threads = {threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 8, "threads = {threads}");
        }
    }

    #[test]
    fn graph_cancel_mid_flight_skips_the_dependents() {
        // A long chain run inline: cancel at block 3, blocks 4.. must skip.
        let mut b = TaskGraphBuilder::new();
        let n = 50usize;
        for i in 0..n {
            if i == 0 {
                b.add_task(&[], &[0]);
            } else {
                b.add_task(&[i - 1], &[i]);
            }
        }
        let g = b.build();
        let pool = WorkerPool::new(0);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let completed = pool.launch_graph_indexed_cancellable(&g, 1, Some(&token), |_, blk| {
            if blk == 3 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(!completed);
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn armed_but_untripped_token_changes_nothing() {
        let pool = WorkerPool::new(3);
        let g = diamond();
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        assert!(
            pool.launch_grid_indexed_cancellable(64, Some(&token), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        );
        assert!(
            pool.launch_graph_indexed_cancellable(&g, 4, Some(&token), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        );
        assert_eq!(ran.load(Ordering::Relaxed), 64 + 16);
    }

    #[test]
    fn wide_graph_saturates_all_deques() {
        // 64 independent 3-chains per instance, several instances: exercises
        // round-robin seeding plus stealing.
        let mut b = TaskGraphBuilder::new();
        for c in 0..64usize {
            b.add_task(&[], &[3 * c]);
            b.add_task(&[3 * c], &[3 * c + 1]);
            b.add_task(&[3 * c + 1], &[3 * c + 2]);
        }
        let g = b.build();
        let pool = WorkerPool::new(5);
        let instances = 4;
        let hits: Vec<AtomicUsize> = (0..g.len() * instances)
            .map(|_| AtomicUsize::new(0))
            .collect();
        pool.launch_graph_indexed_cancellable(&g, instances, None, |_, blk| {
            hits[blk].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
