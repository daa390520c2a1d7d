//! Reusable evaluation memory: the [`Workspace`] and its lock-free pool.
//!
//! The paper's GPU kernels stage every convolution operand in pre-sized
//! shared memory and never allocate mid-kernel; the CPU reproduction used to
//! heap-allocate on every evaluation instead — a fresh arena per call,
//! two operand copies plus a kernel scratch vector per convolution job, and
//! fresh output vectors.  A [`Workspace`] makes the memory of one evaluation
//! shape explicit and reusable:
//!
//! * the **arena** — the flat coefficient array of Figure 1 (one instance
//!   region per batch element for batched evaluation);
//! * one **convolution scratch** per worker-pool participant lane, holding
//!   room to stage an operand that aliases the job's output (the in-place
//!   `b := b * a` update), the selected kernel's working memory and the
//!   SIMD lane panels of batched evaluation, so convolution jobs borrow
//!   instead of allocate.
//!
//! Both grow on shape change and are reused verbatim while the shape is
//! stable, which is what makes steady-state evaluation **allocation-free**
//! (enforced by `tests/workspace_alloc.rs`).
//!
//! Workspaces are checked out of a [`WorkspacePool`] owned by the engine —
//! a fixed array of lock-free slots (`AtomicPtr` swaps only, no locks, no
//! ABA hazard because slots are only ever swapped whole) sized by the
//! engine's thread count.  Callers that want explicit control create one
//! with [`crate::Plan::create_workspace`] and lend it to a request via
//! [`crate::EvalRequest::workspace`].

use crate::evaluate::ConvolutionKernel;
use psmd_multidouble::Coeff;
use psmd_series::{fft_scratch_f64_len, karatsuba_scratch_len};
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// Per-participant convolution scratch: operand staging plus the selected
/// kernel's working memory (the Karatsuba recursion buffers or the FFT
/// digit planes), grown on demand and reused across jobs, layers and
/// evaluations.
#[derive(Debug, Default)]
pub struct ConvScratch<C> {
    buf: Vec<C>,
    fft: Vec<f64>,
    lanes: Vec<f64>,
}

/// Coefficients of one convolution-scratch lane at `per` coefficients per
/// slot under a specific kernel: two operand staging slots (for the
/// in-place `b := b * a` update) plus that kernel's own coefficient scratch
/// (the FFT kernel keeps its digit planes in a separate `f64` buffer
/// instead, sized by `ConvScratch::ensure_for`).  `Auto` covers the largest
/// coefficient footprint of the ladder.
pub fn conv_scratch_coeffs_for(kernel: ConvolutionKernel, per: usize) -> usize {
    match kernel {
        ConvolutionKernel::Direct | ConvolutionKernel::Fft => 2 * per,
        ConvolutionKernel::Karatsuba | ConvolutionKernel::Auto => {
            2 * per + karatsuba_scratch_len(per)
        }
    }
}

/// `f64` slots of one convolution-scratch lane's SIMD panel buffer at `per`
/// coefficients per slot and lane width `width`: three transposed
/// structure-of-arrays panels (two operands, one output).
pub fn lane_scratch_f64s<C: Coeff>(per: usize, width: usize) -> usize {
    3 * psmd_series::lanes::panel_f64s::<C>(per, width)
}

impl<C: Coeff> ConvScratch<C> {
    /// An empty scratch (grows on first use).
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            fft: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// The scratch buffers for jobs of `per` coefficients per slot under
    /// `kernel`, growing them if needed (allocation-free once warm): the
    /// coefficient buffer (operand staging + kernel scratch) and the `f64`
    /// digit-plane buffer of the FFT kernel (empty for the other kernels).
    pub(crate) fn ensure_for(
        &mut self,
        per: usize,
        kernel: ConvolutionKernel,
    ) -> (&mut [C], &mut [f64]) {
        let need = conv_scratch_coeffs_for(kernel, per);
        if self.buf.len() < need {
            self.buf.resize(need, C::zero());
        }
        let fft_need = if kernel == ConvolutionKernel::Fft {
            fft_scratch_f64_len::<C>(per)
        } else {
            0
        };
        if self.fft.len() < fft_need {
            self.fft.resize(fft_need, 0.0);
        }
        (&mut self.buf[..need], &mut self.fft[..fft_need])
    }

    /// The SIMD lane-panel buffer of at least `f64s` slots, growing it if
    /// needed (allocation-free once warm, like the other scratch buffers).
    pub(crate) fn ensure_lanes(&mut self, f64s: usize) -> &mut [f64] {
        if self.lanes.len() < f64s {
            self.lanes.resize(f64s, 0.0);
        }
        &mut self.lanes[..f64s]
    }
}

/// The reusable memory of one evaluation shape: arena and per-participant
/// convolution scratch.  See the [module documentation](self).
pub struct Workspace<C> {
    arena: Vec<C>,
    scratch: Vec<parking_lot::Mutex<ConvScratch<C>>>,
}

impl<C: Coeff> Workspace<C> {
    /// A workspace with `participants` convolution-scratch lanes (the worker
    /// pool's `parallelism()`; buffers grow on first use).
    pub fn new(participants: usize) -> Self {
        let mut ws = Self {
            arena: Vec::new(),
            scratch: Vec::new(),
        };
        ws.ensure_participants(participants.max(1));
        ws
    }

    /// Number of convolution-scratch lanes.
    pub fn participants(&self) -> usize {
        self.scratch.len()
    }

    /// Current arena capacity, in coefficients.
    pub fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Grows the scratch-lane array to at least `participants` lanes.
    pub(crate) fn ensure_participants(&mut self, participants: usize) {
        while self.scratch.len() < participants.max(1) {
            self.scratch
                .push(parking_lot::Mutex::new(ConvScratch::new()));
        }
    }

    /// Pre-sizes every buffer for an evaluation of `arena_coeffs` arena
    /// coefficients at `per` coefficients per slot, with the
    /// convolution-scratch lanes sized for `kernel`, so the first evaluation
    /// under that kernel is already allocation-free.  `Auto` warms for the
    /// largest coefficient footprint of the ladder.  Growth happens in place
    /// and nothing ever shrinks, so re-warming an already-warm workspace is
    /// free.
    pub fn warm_for(&mut self, arena_coeffs: usize, per: usize, kernel: ConvolutionKernel) {
        self.arena
            .reserve(arena_coeffs.saturating_sub(self.arena.len()));
        for lane in &self.scratch {
            lane.lock().ensure_for(per, kernel);
        }
    }

    /// Pre-sizes every convolution-scratch lane's SIMD panel buffer for
    /// batched evaluation at `per` coefficients per slot and lane width
    /// `width`, so the first lane-group launch is already allocation-free.
    /// A no-op for widths below 2 (the scalar path uses no panels).
    pub fn warm_lanes(&mut self, per: usize, width: usize) {
        if width < 2 {
            return;
        }
        let f64s = lane_scratch_f64s::<C>(per, width);
        for lane in &self.scratch {
            lane.lock().ensure_lanes(f64s);
        }
    }

    /// Splits the workspace into the two disjoint borrows one run needs:
    /// the arena (reset to `arena_coeffs` zeros, reusing its buffer) and the
    /// scratch lanes (shared — each lane has interior mutability and is
    /// locked by the participant that uses it).  Grows the lane array to
    /// `participants` first.
    pub(crate) fn parts(
        &mut self,
        arena_coeffs: usize,
        participants: usize,
    ) -> (&mut [C], &[parking_lot::Mutex<ConvScratch<C>>]) {
        self.ensure_participants(participants);
        self.arena.clear();
        self.arena.resize(arena_coeffs, C::zero());
        (&mut self.arena, &self.scratch)
    }
}

/// A fixed array of lock-free workspace slots, owned by the engine and
/// shared by every plan it compiles (per coefficient type).
///
/// Checkout swaps a slot pointer out (or builds a fresh workspace when all
/// slots are empty — the warm-up path); check-in swaps it back (or drops the
/// workspace when every slot is full, which cannot happen in steady state
/// because the checkout emptied one).  Plain `AtomicPtr` swaps, never a
/// compare of a recycled pointer, so the classic ABA hazard does not arise.
pub struct WorkspacePool<C> {
    slots: Box<[AtomicPtr<Workspace<C>>]>,
    participants: usize,
}

impl<C: Coeff> WorkspacePool<C> {
    /// A pool of `capacity` slots building workspaces with `participants`
    /// scratch lanes.
    pub fn new(capacity: usize, participants: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            participants,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of workspaces currently parked in the pool (a racy snapshot,
    /// for tests and introspection).
    pub fn parked(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed).is_null())
            .count()
    }

    /// Checks a workspace out: the first non-empty slot, or a fresh
    /// workspace when the pool is empty.  The guard returns it on drop.
    pub fn checkout(self: &Arc<Self>) -> PooledWorkspace<C> {
        for slot in self.slots.iter() {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: the pointer came from `Box::into_raw` in `checkin`
                // and the swap made this thread its only owner.
                let ws = unsafe { Box::from_raw(p) };
                return PooledWorkspace {
                    ws: Some(ws),
                    pool: Arc::clone(self),
                };
            }
        }
        PooledWorkspace {
            ws: Some(Box::new(Workspace::new(self.participants))),
            pool: Arc::clone(self),
        }
    }

    /// Parks a workspace in the first empty slot; drops it when the pool is
    /// full.
    fn checkin(&self, ws: Box<Workspace<C>>) {
        let p = Box::into_raw(ws);
        for slot in self.slots.iter() {
            if slot
                .compare_exchange(ptr::null_mut(), p, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
        // Safety: the pointer was produced by `Box::into_raw` above and no
        // slot accepted it, so this thread still owns it.
        drop(unsafe { Box::from_raw(p) });
    }
}

impl<C> Drop for WorkspacePool<C> {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            let p = slot.swap(ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: exclusive access in drop; the pointer came from
                // `Box::into_raw`.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// RAII checkout of a [`WorkspacePool`]: dereferences to the [`Workspace`]
/// and returns it to the pool on drop.
pub struct PooledWorkspace<C: Coeff> {
    ws: Option<Box<Workspace<C>>>,
    pool: Arc<WorkspacePool<C>>,
}

impl<C: Coeff> Deref for PooledWorkspace<C> {
    type Target = Workspace<C>;
    fn deref(&self) -> &Workspace<C> {
        self.ws.as_ref().expect("workspace taken")
    }
}

impl<C: Coeff> DerefMut for PooledWorkspace<C> {
    fn deref_mut(&mut self) -> &mut Workspace<C> {
        self.ws.as_mut().expect("workspace taken")
    }
}

impl<C: Coeff> Drop for PooledWorkspace<C> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool.checkin(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psmd_multidouble::Qd;

    #[test]
    fn parts_resets_the_arena_and_reuses_capacity() {
        let mut ws: Workspace<Qd> = Workspace::new(2);
        {
            let (arena, scratch) = ws.parts(16, 2);
            assert_eq!(arena.len(), 16);
            assert!(arena.iter().all(|c| c.is_zero()));
            arena[3] = Qd::from_f64(7.0);
            assert_eq!(scratch.len(), 2);
        }
        let cap = ws.arena_capacity();
        let (arena, _) = ws.parts(8, 2);
        assert_eq!(arena.len(), 8);
        assert!(arena.iter().all(|c| c.is_zero()), "arena must be re-zeroed");
        assert_eq!(ws.arena_capacity(), cap, "shrinking must not reallocate");
    }

    #[test]
    fn parts_grows_the_lane_array_on_demand() {
        let mut ws: Workspace<Qd> = Workspace::new(1);
        assert_eq!(ws.participants(), 1);
        let (_, scratch) = ws.parts(4, 5);
        assert_eq!(scratch.len(), 5);
        assert_eq!(ws.participants(), 5);
    }

    #[test]
    fn conv_scratch_grows_once_and_is_stable() {
        let mut s: ConvScratch<Qd> = ConvScratch::new();
        let k = ConvolutionKernel::Karatsuba;
        let len = s.ensure_for(9, k).0.len();
        assert_eq!(len, conv_scratch_coeffs_for(k, 9));
        let cap = s.buf.capacity();
        // Smaller and equal requests reuse the buffer.
        s.ensure_for(4, k);
        s.ensure_for(9, k);
        assert_eq!(s.buf.capacity(), cap);
    }

    #[test]
    fn kernel_scratch_footprints_cover_the_ladder() {
        // Every kernel stages two operand slots; the kernel scratch on top
        // of that is kernel-specific, and the FFT digit planes live in a
        // separate f64 buffer.
        let per = 33;
        assert_eq!(
            conv_scratch_coeffs_for(ConvolutionKernel::Direct, per),
            2 * per
        );
        assert!(conv_scratch_coeffs_for(ConvolutionKernel::Karatsuba, per) > 2 * per);
        assert_eq!(
            conv_scratch_coeffs_for(ConvolutionKernel::Fft, per),
            2 * per
        );
        let auto = conv_scratch_coeffs_for(ConvolutionKernel::Auto, per);
        assert!(auto >= conv_scratch_coeffs_for(ConvolutionKernel::Karatsuba, per));

        let mut s: ConvScratch<Qd> = ConvScratch::new();
        let (buf, fft) = s.ensure_for(per, ConvolutionKernel::Fft);
        assert_eq!(buf.len(), 2 * per);
        assert_eq!(fft.len(), psmd_series::fft_scratch_f64_len::<Qd>(per));
        // Re-ensuring under another kernel keeps the fft buffer parked.
        let (_, fft) = s.ensure_for(per, ConvolutionKernel::Karatsuba);
        assert!(fft.is_empty());
    }

    #[test]
    fn pool_round_trips_workspaces_through_slots() {
        let pool: Arc<WorkspacePool<Qd>> = Arc::new(WorkspacePool::new(2, 3));
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.parked(), 0);
        let mut a = pool.checkout();
        a.parts(32, 3);
        let a_cap = a.arena_capacity();
        drop(a);
        assert_eq!(pool.parked(), 1);
        // The parked workspace comes back warm.
        let b = pool.checkout();
        assert_eq!(pool.parked(), 0);
        assert_eq!(b.arena_capacity(), a_cap);
        drop(b);
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn pool_overflow_drops_instead_of_leaking() {
        let pool: Arc<WorkspacePool<Qd>> = Arc::new(WorkspacePool::new(1, 1));
        let a = pool.checkout();
        let b = pool.checkout();
        drop(a);
        assert_eq!(pool.parked(), 1);
        // The single slot is occupied; returning b drops it silently.
        drop(b);
        assert_eq!(pool.parked(), 1);
    }

    #[test]
    fn concurrent_checkouts_never_share_a_workspace() {
        let pool: Arc<WorkspacePool<Qd>> = Arc::new(WorkspacePool::new(4, 1));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut ws = pool.checkout();
                        let (arena, _) = ws.parts(8, 1);
                        // Exclusive ownership: a stale value would mean two
                        // threads held the same workspace.
                        assert!(arena.iter().all(|c| c.is_zero()));
                        arena[0] = Qd::from_f64(1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.parked() >= 1);
    }

    #[test]
    fn warm_presizes_all_buffers() {
        let mut ws: Workspace<Qd> = Workspace::new(2);
        let k = ConvolutionKernel::Karatsuba;
        ws.warm_for(64, 5, k);
        assert!(ws.arena_capacity() >= 64);
        for lane in &ws.scratch {
            assert!(lane.lock().buf.len() >= conv_scratch_coeffs_for(k, 5));
        }
    }
}
