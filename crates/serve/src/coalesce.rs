//! The per-plan coalescing queue: concurrent single-point requests against
//! one plan are merged into one batched launch.
//!
//! # How a request travels
//!
//! A submitting thread parks a `Slot` (its request payload plus a
//! mutex/condvar pair) in the plan's queue and then competes for
//! **leadership** with a single atomic flag — flat combining, with no
//! dedicated collector thread:
//!
//! * the thread that wins the CAS becomes the *leader*: it drains the queue
//!   in windows of at most `max_batch` slots, moves the staged payloads into
//!   a reusable scratch batch, performs **one** engine launch for the whole
//!   window (`plan.request(&batch).into(&mut out).run()`), scatters the
//!   per-instance results back into the slots and wakes each waiter, then
//!   repeats until the queue is empty and releases the flag;
//! * every other thread is a *follower*: it waits on its own slot's condvar
//!   with a short timeout and re-contends for leadership on every wakeup, so
//!   the queue is drained even when the current leader departs.
//!
//! Evaluation therefore always runs on a *requester* thread.  That keeps
//! the thread count bounded by the callers, lets a zero-worker engine serve
//! requests (the degenerate single-threaded configuration), and gives the
//! batched run the same per-thread allocation profile as a direct
//! `plan.request(..)` call.
//!
//! Coalesced results are **bitwise identical** to uncoalesced ones: a batch
//! instance is computed by the same schedule, arithmetic and operation
//! order as a single evaluation (an engine invariant, tested in
//! `psmd-core`), so callers cannot observe whether their request shared a
//! launch — except through [`Response::coalesced`] and the metrics.
//!
//! Deadlines are enforced *before* launch — the leader rejects overdue
//! slots while staging — **and during it**:
//!
//! * a follower whose own deadline passes while its window is in flight
//!   **detaches**: its slot flips to `Detached`, it resolves to
//!   [`ServeError::DeadlineExceeded`] and its result is discarded on
//!   scatter, without poisoning the batch for surviving waiters;
//! * when every waiter of a window has detached, or the *latest* deadline
//!   of an all-deadline window passes, the detaching follower trips the
//!   queue's [`CancelToken`] and the leader's in-flight launch is
//!   **abandoned** at the next block boundary (partial results discarded,
//!   workspace returned to the pool clean).
//!
//! Both paths are visible in the metrics as
//! [`detached_slots`](crate::MetricsSnapshot::detached_slots) and
//! [`cancelled_launches`](crate::MetricsSnapshot::cancelled_launches).

use crate::metrics::Metrics;
use crate::service::{Request, Response, ServeError};
use psmd_core::{BatchEvaluation, CancelToken, EvalOutput, Plan};
use psmd_multidouble::Coeff;
use psmd_series::Series;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a follower parks on its own condvar before re-contending for
/// leadership.  Purely a liveness backstop: the common wakeup is the
/// leader's notify when the result lands.
const FOLLOWER_PARK: Duration = Duration::from_millis(1);

/// One request's rendezvous point between the submitting thread and the
/// leader that serves it.
struct Slot<C: Coeff> {
    state: Mutex<SlotState<C>>,
    cv: Condvar,
    /// The request's deadline, copied out at submit time so the waiter can
    /// still see it after a leader moved the payload away.
    deadline: Option<Instant>,
}

enum SlotState<C: Coeff> {
    /// Waiting in the queue; the leader takes the payload from here.
    Queued(Request<C>, Instant),
    /// A leader moved the payload into its staging batch; the result is
    /// coming.  The epoch names the window, so a detach can be attributed
    /// to the right launch.
    Taken { window_epoch: u64 },
    /// The waiter's own deadline passed mid-window and it gave up on the
    /// result; the leader discards this slot's instance on scatter.  The
    /// waiter keeps waiting for the terminal `Done` — the pointer contract
    /// below needs the leader's write to land before the slot can die.
    Detached,
    /// The result (or rejection) is ready for the submitter to take.
    Done(Result<Response<C>, ServeError>),
    /// The submitter took the result (terminal; tickets use it to make
    /// `wait` idempotent-safe against their own drop glue).
    Finished,
}

/// Bookkeeping of the leader's current window, shared with detaching
/// followers.  One leader runs at a time, so one meta per queue suffices —
/// opening a window bumps the epoch, which makes stale detach notes from
/// earlier windows miss.
#[derive(Default)]
struct WindowMeta {
    /// The current window's identity; `SlotState::Taken` carries it.
    epoch: u64,
    /// True once staging is complete and `total`/`max_deadline` are final;
    /// only then may a detach trip the whole-window cancel.
    finalized: bool,
    /// Slots staged into the window.
    total: usize,
    /// Staged slots whose waiters have detached.
    detached: usize,
    /// Latest deadline across the window when **every** member has one;
    /// `None` when some waiter is willing to wait forever (the window is
    /// then never whole-window cancelled while that waiter survives).
    max_deadline: Option<Instant>,
    /// When the whole-window cancellation tripped (abandon latency is
    /// measured from here).
    cancelled_at: Option<Instant>,
}

/// A queue entry: a raw pointer to a slot owned by a submitting thread's
/// stack frame or by a [`Ticket`]'s allocation.
///
/// Safety contract: the slot outlives its presence in the queue *and* any
/// leader's use of the pointer.  Both submitters uphold it the same way —
/// they do not release the slot until they observed `Done` (or removed the
/// pointer from the queue themselves, under the queue lock, while it was
/// still `Queued`).
struct SlotPtr<C: Coeff>(NonNull<Slot<C>>);

// The pointer crosses threads inside the queue; the pointee is a
// mutex-protected rendezvous designed for exactly that.
unsafe impl<C: Coeff> Send for SlotPtr<C> {}

/// Leader-only staging area, reused across drains so the steady state
/// allocates nothing: the batch vectors, the staged slot pointers and the
/// output buffer keep their capacity between launches.
struct LeaderScratch<C: Coeff> {
    /// Slots staged for the current window, with their payloads and submit
    /// timestamps moved out of the queue states.
    staged: Vec<(NonNull<Slot<C>>, Request<C>, Instant)>,
    /// The input vectors of the staged requests (moved, and handed back in
    /// the responses).
    batch: Vec<Vec<Series<C>>>,
    /// Reused output of every window (a `Batch`: a window of one is a batch
    /// of one).
    out: EvalOutput<C>,
}

// The staged pointers only live inside a leader's drain, which finishes
// before the corresponding submitters can release their slots.
unsafe impl<C: Coeff> Send for LeaderScratch<C> {}

impl<C: Coeff> LeaderScratch<C> {
    fn new() -> Self {
        Self {
            staged: Vec::new(),
            batch: Vec::new(),
            out: EvalOutput::Batch(BatchEvaluation::empty()),
        }
    }
}

/// The coalescing queue of one registered plan.
///
/// Shared by every submitter of that plan; see the [module
/// documentation](self) for the protocol.
pub struct PlanQueue<C: Coeff> {
    plan: Arc<Plan<C>>,
    max_batch: usize,
    max_inflight: usize,
    queue: Mutex<VecDeque<SlotPtr<C>>>,
    leader: AtomicBool,
    scratch: Mutex<LeaderScratch<C>>,
    /// The current window's bookkeeping (see [`WindowMeta`]).
    window: Mutex<WindowMeta>,
    /// One reusable cancellation token, re-armed per window, so arming a
    /// launch allocates nothing in the steady state.
    cancel: CancelToken,
    metrics: Metrics,
}

impl<C: Coeff> fmt::Debug for PlanQueue<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanQueue")
            .field("max_batch", &self.max_batch)
            .field("max_inflight", &self.max_inflight)
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl<C: Coeff> PlanQueue<C> {
    pub(crate) fn new(plan: Arc<Plan<C>>, max_batch: usize, max_inflight: usize) -> Self {
        Self {
            plan,
            max_batch: max_batch.max(1),
            max_inflight: max_inflight.max(1),
            queue: Mutex::new(VecDeque::new()),
            leader: AtomicBool::new(false),
            scratch: Mutex::new(LeaderScratch::new()),
            window: Mutex::new(WindowMeta::default()),
            cancel: CancelToken::new(),
            metrics: Metrics::new(),
        }
    }

    /// The plan this queue serves.
    pub fn plan(&self) -> &Arc<Plan<C>> {
        &self.plan
    }

    /// The largest number of requests one launch may serve.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The admission limit: requests in flight beyond it are rejected with
    /// [`ServeError::Busy`].
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// This queue's live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of requests currently parked in the queue (racy snapshot).
    pub fn queue_depth(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Submits a request and blocks until its response (or rejection) is
    /// ready.  The calling thread takes part in the coalescing protocol: it
    /// may end up evaluating its own request — and its neighbors' — as the
    /// leader.
    pub fn submit(&self, request: Request<C>) -> Result<Response<C>, ServeError> {
        let slot = self.admit(request)?;
        // The slot lives on this stack frame; `wait_resolved` does not
        // return until the queue and every leader are done with it.
        let result = self.wait_resolved(&slot, true);
        self.metrics.exit();
        result
    }

    /// Submits a request without blocking on the result: the returned
    /// [`Ticket`] resolves it on [`Ticket::wait`].  Until some thread waits
    /// (or another submitter drains the queue), the request just sits in
    /// the queue — which is exactly what the deterministic staged-load
    /// harness and the admission tests need.
    pub fn submit_async(self: &Arc<Self>, request: Request<C>) -> Result<Ticket<C>, ServeError> {
        // Admission, as in `submit`, but the slot lives on the heap so it
        // can outlive this call.
        let slot = Arc::new(self.admit(request)?);
        self.enqueue(NonNull::from(&*slot));
        Ok(Ticket {
            queue: Arc::clone(self),
            slot,
            resolved: false,
        })
    }

    /// Drains whatever is queued right now on the calling thread, without
    /// submitting anything.  A no-op on an empty queue; used to flush
    /// async-submitted requests and by tests of the degenerate empty drain.
    pub fn drain_now(&self) {
        if self.try_lead() {
            self.drain_as_leader();
            self.release_lead();
        }
    }

    /// Admission control for both submit paths: counts the submission,
    /// rejects it with [`ServeError::Busy`] at the in-flight limit, and
    /// otherwise builds its queued slot.  On success the slot MUST be
    /// resolved before it drops: a blocking submit runs `wait_resolved`,
    /// and an async slot is resolved by its ticket's `wait` or `drop`.
    fn admit(&self, request: Request<C>) -> Result<Slot<C>, ServeError> {
        self.metrics.record_submitted();
        let was = self.metrics.enter();
        if was >= self.max_inflight {
            self.metrics.exit();
            self.metrics.record_busy();
            return Err(ServeError::Busy {
                inflight: was,
                limit: self.max_inflight,
            });
        }
        let deadline = request.deadline;
        Ok(Slot {
            state: Mutex::new(SlotState::Queued(request, Instant::now())),
            cv: Condvar::new(),
            deadline,
        })
    }

    fn enqueue(&self, ptr: NonNull<Slot<C>>) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.push_back(SlotPtr(ptr));
        self.metrics.set_queue_depth(queue.len());
    }

    /// The shared wait loop of blocking submits and ticket waits: park on
    /// the slot, contend for leadership, until the slot is `Done`.
    ///
    /// The blocking path enqueues here (`enqueue_first`, so the address the
    /// queue sees is the slot's final stack address); the async path
    /// enqueued its heap slot at submit time.
    fn wait_resolved(
        &self,
        slot: &Slot<C>,
        enqueue_first: bool,
    ) -> Result<Response<C>, ServeError> {
        if enqueue_first {
            self.enqueue(NonNull::from(slot));
        }
        loop {
            if let Some(result) = self.take_done(slot) {
                return result;
            }
            if self.try_lead() {
                self.drain_as_leader();
                self.release_lead();
                // Our slot was either served by this drain or taken by a
                // previous leader whose launch is still in flight; loop.
                continue;
            }
            let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            match &*state {
                SlotState::Done(_) => continue, // re-checked (and taken) at loop head
                SlotState::Taken { window_epoch }
                    if slot.deadline.is_some_and(|d| Instant::now() >= d) =>
                {
                    // Our deadline passed while our window is in flight:
                    // detach.  We still loop for the leader's terminal
                    // `Done` write — the slot pointer must stay valid until
                    // the leader is done with it.
                    let epoch = *window_epoch;
                    *state = SlotState::Detached;
                    drop(state);
                    self.metrics.record_detached();
                    self.note_detached(epoch);
                }
                _ => {
                    let _ = slot
                        .cv
                        .wait_timeout(state, FOLLOWER_PARK)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// A follower detached from window `window_epoch`: count it and, when
    /// the whole window is now dead — every waiter detached, or the
    /// window's latest deadline passed — trip the cancellation token so the
    /// leader's in-flight launch abandons its remaining blocks.
    fn note_detached(&self, window_epoch: u64) {
        let now = Instant::now();
        let mut meta = self.window.lock().unwrap_or_else(PoisonError::into_inner);
        if meta.epoch != window_epoch {
            return; // stale: that window is already over
        }
        meta.detached += 1;
        if meta.finalized
            && meta.cancelled_at.is_none()
            && (meta.detached >= meta.total || meta.max_deadline.is_some_and(|d| now >= d))
        {
            meta.cancelled_at = Some(now);
            self.cancel.cancel();
        }
    }

    fn take_done(&self, slot: &Slot<C>) -> Option<Result<Response<C>, ServeError>> {
        let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(&*state, SlotState::Done(_)) {
            let SlotState::Done(result) = std::mem::replace(&mut *state, SlotState::Finished)
            else {
                unreachable!("matched Done above")
            };
            Some(result)
        } else {
            None
        }
    }

    /// Removes a slot's pointer from the queue if it is still there
    /// (ticket drop glue).  Returns true when removed.
    fn remove_from_queue(&self, slot: &Slot<C>) -> bool {
        let target = NonNull::from(slot);
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let before = queue.len();
        queue.retain(|p| p.0 != target);
        let removed = queue.len() != before;
        self.metrics.set_queue_depth(queue.len());
        removed
    }

    fn try_lead(&self) -> bool {
        self.leader
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release_lead(&self) {
        self.leader.store(false, Ordering::Release);
    }

    /// The leader's work loop: drain windows until the queue is empty.
    fn drain_as_leader(&self) {
        let mut scratch = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        let scratch: &mut LeaderScratch<C> = &mut scratch;
        loop {
            debug_assert!(scratch.staged.is_empty() && scratch.batch.is_empty());
            // Open a new window: bumping the epoch invalidates detach notes
            // from earlier windows, and the token can be re-armed because
            // the previous window's launch (the only poller) is over.
            let epoch = {
                let mut meta = self.window.lock().unwrap_or_else(PoisonError::into_inner);
                meta.epoch += 1;
                meta.finalized = false;
                meta.total = 0;
                meta.detached = 0;
                meta.max_deadline = None;
                meta.cancelled_at = None;
                meta.epoch
            };
            self.cancel.reset();
            // Stage up to `max_batch` queued slots.  Payloads move out
            // under each slot's lock; overdue requests are rejected here,
            // before any launch.
            {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                let now = Instant::now();
                while scratch.staged.len() < self.max_batch {
                    let Some(SlotPtr(ptr)) = queue.pop_front() else {
                        break;
                    };
                    // Safety: the pointer is in the queue, so its submitter
                    // is still waiting on it (see `SlotPtr`).
                    let slot = unsafe { ptr.as_ref() };
                    let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                    let SlotState::Queued(request, start) = std::mem::replace(
                        &mut *state,
                        SlotState::Taken {
                            window_epoch: epoch,
                        },
                    ) else {
                        unreachable!("queued pointers always hold Queued slots")
                    };
                    if request.deadline.is_some_and(|deadline| now >= deadline) {
                        self.metrics.record_expired();
                        *state = SlotState::Done(Err(ServeError::DeadlineExceeded));
                        slot.cv.notify_one();
                        continue;
                    }
                    drop(state);
                    scratch.staged.push((ptr, request, start));
                }
                self.metrics.set_queue_depth(queue.len());
            }
            if scratch.staged.is_empty() {
                return;
            }
            self.launch_window(scratch);
        }
    }

    /// One coalesced launch: finalize the window, evaluate it with the
    /// queue's cancellation token armed, scatter results — discarding the
    /// instances of detached slots, and every instance when the launch was
    /// abandoned mid-flight.
    fn launch_window(&self, scratch: &mut LeaderScratch<C>) {
        let LeaderScratch { staged, batch, out } = scratch;
        let k = staged.len();
        // Finalize the window before launching: the window becomes
        // whole-window cancellable only when every member carries a
        // deadline (the latest of them bounds the window's useful life).
        let mut latest = None;
        let mut all_deadlined = true;
        for (_, request, _) in staged.iter() {
            match request.deadline {
                Some(d) => latest = Some(latest.map_or(d, |m: Instant| std::cmp::max(m, d))),
                None => all_deadlined = false,
            }
        }
        {
            let mut meta = self.window.lock().unwrap_or_else(PoisonError::into_inner);
            meta.finalized = true;
            meta.total = k;
            meta.max_deadline = if all_deadlined { latest } else { None };
            // Followers that detached during staging could not trip yet.
            if meta.detached >= meta.total && meta.cancelled_at.is_none() {
                meta.cancelled_at = Some(Instant::now());
                self.cancel.cancel();
            }
        }
        for (_, request, _) in staged.iter_mut() {
            batch.push(std::mem::take(&mut request.inputs));
        }
        self.metrics.record_launch(k);
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.plan
                .request(&*batch)
                .cancel(&self.cancel)
                .into(out)
                .run();
        }));
        let failure = run.err().map(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "evaluation panicked".to_string());
            ServeError::Rejected(message)
        });
        let abandoned = failure.is_none() && out.timings().cancelled;
        let EvalOutput::Batch(results) = out else {
            unreachable!("a single-polynomial plan writes a batch output for a batch")
        };
        if abandoned {
            let abandon_micros = {
                let meta = self.window.lock().unwrap_or_else(PoisonError::into_inner);
                meta.cancelled_at
                    .map_or(0, |at| at.elapsed().as_micros() as u64)
            };
            self.metrics.record_cancelled_launch(abandon_micros);
        }
        for (i, (ptr, mut request, start)) in staged.drain(..).enumerate() {
            // Safety: as in `drain_as_leader` — the submitter waits until
            // `Done` lands, so the pointer is valid; after the notify under
            // the lock we never touch it again.
            let slot = unsafe { ptr.as_ref() };
            let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            // The detach check and the terminal write must share one lock
            // hold, or a follower could detach in between and miss its
            // rejection.
            let detached = matches!(&*state, SlotState::Detached);
            let result = if let Some(error) = &failure {
                Err(error.clone())
            } else if abandoned || detached {
                // The whole launch was abandoned, or this waiter gave up:
                // its instance (partial or complete) is discarded.  Counted
                // under `deadline_expired` like a pre-launch rejection, so
                // the submitted = completed + expired + busy identity holds.
                self.metrics.record_expired();
                Err(ServeError::DeadlineExceeded)
            } else {
                // Swap the result into the caller's reuse buffers and
                // hand the input vectors back, so a closed-loop client
                // recycles every allocation.
                std::mem::swap(&mut results.instances[i], &mut request.reuse);
                self.metrics
                    .record_completed(start.elapsed().as_micros() as u64);
                Ok(Response {
                    evaluation: request.reuse,
                    inputs: std::mem::take(&mut batch[i]),
                    coalesced: k,
                })
            };
            *state = SlotState::Done(result);
            slot.cv.notify_one();
        }
        batch.clear();
    }
}

/// A pending asynchronous request: resolves on [`Ticket::wait`].
///
/// Dropping an unresolved ticket cancels the request if it is still queued,
/// or waits for the in-flight result and discards it — either way the
/// queue's bookkeeping stays consistent.
pub struct Ticket<C: Coeff> {
    queue: Arc<PlanQueue<C>>,
    slot: Arc<Slot<C>>,
    resolved: bool,
}

impl<C: Coeff> fmt::Debug for Ticket<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.resolved)
            .finish_non_exhaustive()
    }
}

impl<C: Coeff> Ticket<C> {
    /// Blocks until the response is ready, taking part in the coalescing
    /// protocol like a blocking submit (the first waiter of a quiet queue
    /// becomes the leader and drains everything queued before it, which is
    /// what makes staged loads deterministic).
    pub fn wait(mut self) -> Result<Response<C>, ServeError> {
        let result = self.queue.wait_resolved(&self.slot, false);
        self.queue.metrics.exit();
        self.resolved = true;
        result
    }
}

impl<C: Coeff> Drop for Ticket<C> {
    fn drop(&mut self) {
        if self.resolved {
            return;
        }
        let slot = &self.slot;
        loop {
            if self.queue.remove_from_queue(slot) {
                // Still queued: cancel in place.  The state necessarily
                // holds the payload (leaders only take payloads of pointers
                // they popped).
                *slot.state.lock().unwrap_or_else(PoisonError::into_inner) = SlotState::Finished;
                break;
            }
            let state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            match &*state {
                SlotState::Done(_) | SlotState::Finished => break,
                // A leader owns it right now; its result is imminent.
                _ => {
                    let _ = slot
                        .cv
                        .wait_timeout(state, FOLLOWER_PARK)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        self.queue.metrics.exit();
    }
}
