//! Reusable evaluation memory: the workspace and the pool of them that
//! every plan parks between runs.
//!
//! The paper's GPU kernels stage every convolution operand in pre-sized
//! shared memory and never allocate mid-kernel; the CPU reproduction used to
//! heap-allocate on every evaluation instead — a fresh arena per call,
//! two operand copies plus a kernel scratch vector per convolution job, and
//! fresh output vectors.  A workspace makes the memory of one evaluation
//! shape explicit and reusable:
//!
//! * the **arena** — the flat coefficient array of Figure 1 (one instance
//!   region per batch element for batched evaluation);
//! * one **convolution scratch** per worker-pool participant, lent to that
//!   participant for a whole launch, holding room to stage an operand that
//!   aliases the job's output (the in-place `b := b * a` update), the
//!   selected kernel's working memory and the SIMD lane panels of
//!   direct-kernel evaluation, so convolution jobs borrow instead of
//!   allocate.
//!
//! Both grow on shape change and are reused verbatim while the shape is
//! stable, which is what makes steady-state evaluation **allocation-free**
//! (enforced by `tests/workspace_alloc.rs`).
//!
//! Every [`Plan`](crate::Plan) owns the pool its runs draw from: a run,
//! pooled or sequential, checks a workspace out when it starts and parks it
//! again when it ends, so workspaces are sized to their plan and freed with
//! it.  Each workspace has one scratch lane per participant of the plan's
//! worker pool; a sequential run uses lane 0.  The pool parks at most
//! `parallelism() + 2` workspaces in a vector reserved when the plan is
//! built, so parking never allocates.  A workspace returned to a full pool
//! is dropped, and so is one whose run panicked: a later run builds a fresh
//! one.

use crate::evaluate::ConvolutionKernel;
use psmd_multidouble::Coeff;
use psmd_series::{fft_scratch_f64_len, karatsuba_scratch_len};
use std::sync::{Mutex, PoisonError};

/// Per-participant convolution scratch: operand staging plus the selected
/// kernel's working memory (the Karatsuba recursion buffers or the FFT
/// digit planes), grown on demand and reused across jobs, layers and
/// evaluations.
#[derive(Debug, Default)]
pub(crate) struct ConvScratch<C> {
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
fn lane_scratch_f64s<C: Coeff>(per: usize, width: usize) -> usize {
    3 * psmd_series::lanes::panel_f64s::<C>(per, width)
}

impl<C: Coeff> ConvScratch<C> {
    /// An empty scratch (grows on first use).
    fn new() -> Self {
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
pub(crate) struct Workspace<C> {
    arena: Vec<C>,
    scratch: Vec<ConvScratch<C>>,
}

impl<C: Coeff> Workspace<C> {
    /// A workspace with `participants` convolution-scratch lanes (buffers
    /// grow on first use).
    fn new(participants: usize) -> Self {
        Self {
            arena: Vec::new(),
            scratch: (0..participants).map(|_| ConvScratch::new()).collect(),
        }
    }

    /// Pre-sizes every buffer for an evaluation of `arena_coeffs` arena
    /// coefficients at `per` coefficients per slot: every scratch lane for
    /// `kernel` and, at lane widths of 2 and more, for the SIMD panels of
    /// that width.  Which lane runs which blocks changes from launch to
    /// launch, so every lane is warmed before the launches; a lane first
    /// grown inside one would allocate there.  Growth happens in place and
    /// nothing ever shrinks, so re-warming an already-warm workspace is
    /// free.
    pub(crate) fn warm_for(
        &mut self,
        arena_coeffs: usize,
        per: usize,
        kernel: ConvolutionKernel,
        lane_width: usize,
    ) {
        self.arena
            .reserve(arena_coeffs.saturating_sub(self.arena.len()));
        let lane_f64s = if lane_width < 2 {
            0
        } else {
            lane_scratch_f64s::<C>(per, lane_width)
        };
        for lane in &mut self.scratch {
            lane.ensure_for(per, kernel);
            lane.ensure_lanes(lane_f64s);
        }
    }

    /// Splits the workspace into the two disjoint borrows one run needs:
    /// the arena (reset to `arena_coeffs` zeros, reusing its buffer) and the
    /// scratch lanes, which every launch lends out one per participant.
    pub(crate) fn parts(&mut self, arena_coeffs: usize) -> (&mut [C], &mut [ConvScratch<C>]) {
        self.arena.clear();
        self.arena.resize(arena_coeffs, C::zero());
        (&mut self.arena, &mut self.scratch)
    }
}

/// The workspaces one plan parks between runs: at most `capacity` of them,
/// in a vector reserved up front so that parking never allocates.
pub(crate) struct ParkedWorkspaces<C> {
    parked: Mutex<Vec<Workspace<C>>>,
    capacity: usize,
    participants: usize,
}

impl<C: Coeff> ParkedWorkspaces<C> {
    /// A pool for a worker pool of `participants` lanes: workspaces with one
    /// scratch lane per participant, and room to park one per lane plus two,
    /// so as many concurrent runs as the worker pool has lanes recycle
    /// workspaces instead of building fresh ones.
    pub(crate) fn new(participants: usize) -> Self {
        let capacity = participants + 2;
        Self {
            parked: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
            participants,
        }
    }

    /// The most recently parked workspace, or a fresh one when none is
    /// parked (the warm-up path).
    pub(crate) fn checkout(&self) -> Workspace<C> {
        let parked = self
            .parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        parked.unwrap_or_else(|| Workspace::new(self.participants))
    }

    /// Parks `ws` for a later run, or drops it when the pool is full.
    pub(crate) fn park(&self, ws: Workspace<C>) {
        let mut parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if parked.len() < self.capacity {
            parked.push(ws);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psmd_multidouble::Qd;
    use std::sync::Arc;

    fn parked<C>(pool: &ParkedWorkspaces<C>) -> usize {
        pool.parked.lock().unwrap().len()
    }

    #[test]
    fn parts_resets_the_arena_and_reuses_capacity() {
        let mut ws: Workspace<Qd> = Workspace::new(2);
        {
            let (arena, scratch) = ws.parts(16);
            assert_eq!(arena.len(), 16);
            assert!(arena.iter().all(|c| c.is_zero()));
            arena[3] = Qd::from_f64(7.0);
            assert_eq!(scratch.len(), 2);
        }
        let cap = ws.arena.capacity();
        let (arena, _) = ws.parts(8);
        assert_eq!(arena.len(), 8);
        assert!(arena.iter().all(|c| c.is_zero()), "arena must be re-zeroed");
        assert_eq!(ws.arena.capacity(), cap, "shrinking must not reallocate");
    }

    #[test]
    fn checkout_builds_workspaces_with_the_pool_lane_count() {
        // Every workspace of a plan has one scratch lane per participant of
        // its worker pool (a pool without workers has one: the caller).
        for participants in [1, 5] {
            let pool: ParkedWorkspaces<Qd> = ParkedWorkspaces::new(participants);
            let mut ws = pool.checkout();
            assert_eq!(ws.parts(4).1.len(), participants);
        }
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
        let pool: ParkedWorkspaces<Qd> = ParkedWorkspaces::new(3);
        assert_eq!(parked(&pool), 0);
        let mut a = pool.checkout();
        a.parts(32);
        let a_cap = a.arena.capacity();
        pool.park(a);
        assert_eq!(parked(&pool), 1);
        // The parked workspace comes back warm.
        let b = pool.checkout();
        assert_eq!(parked(&pool), 0);
        assert_eq!(b.arena.capacity(), a_cap);
        pool.park(b);
        assert_eq!(parked(&pool), 1);
    }

    #[test]
    fn pool_overflow_drops_instead_of_leaking() {
        // One participant: room for three parked workspaces, reserved up
        // front.  A fourth returned workspace is dropped, not parked.
        let pool: ParkedWorkspaces<Qd> = ParkedWorkspaces::new(1);
        assert_eq!(pool.capacity, 3);
        let reserved = pool.parked.lock().unwrap().capacity();
        let out: Vec<_> = (0..4).map(|_| pool.checkout()).collect();
        for (i, ws) in out.into_iter().enumerate() {
            pool.park(ws);
            assert_eq!(parked(&pool), (i + 1).min(3));
        }
        assert_eq!(pool.parked.lock().unwrap().capacity(), reserved);
    }

    #[test]
    fn concurrent_checkouts_never_share_a_workspace() {
        let pool: Arc<ParkedWorkspaces<Qd>> = Arc::new(ParkedWorkspaces::new(2));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut ws = pool.checkout();
                        let (arena, _) = ws.parts(8);
                        // Exclusive ownership: a stale value would mean two
                        // threads held the same workspace.
                        assert!(arena.iter().all(|c| c.is_zero()));
                        arena[0] = Qd::from_f64(1.0);
                        pool.park(ws);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!((1..=pool.capacity).contains(&parked(&pool)));
    }

    #[test]
    fn warm_presizes_all_buffers() {
        let mut ws: Workspace<Qd> = Workspace::new(2);
        let k = ConvolutionKernel::Karatsuba;
        ws.warm_for(64, 5, k, 4);
        assert!(ws.arena.capacity() >= 64);
        for lane in &ws.scratch {
            assert!(lane.buf.len() >= conv_scratch_coeffs_for(k, 5));
            assert!(lane.lanes.len() >= lane_scratch_f64s::<Qd>(5, 4));
        }
    }
}
