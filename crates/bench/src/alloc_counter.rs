//! A per-thread counting allocator for allocation-regression gates.
//!
//! [`CountingAllocator`] defers all real work to the system allocator and,
//! while a [`measure_allocs`] call is in flight, counts the **measuring
//! thread's** allocator traffic into const-initialized thread-local cells
//! (which never allocate themselves).  Per-thread counting is the right
//! discipline for the zero-allocation gates: the measuring thread stages,
//! launches, runs its share of the blocks and extracts, while unrelated
//! process threads — the libtest harness waking periodically — must not
//! pollute the count.  Pool workers are not counted either; perfbench's
//! process-wide `core.allocs_per_call` covers them.
//!
//! The type cannot register itself: each gating binary declares its own
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;
//! ```
//!
//! and then calls [`measure_allocs`]; without that registration the
//! returned counts are all zero.  Used by `table_harness workspace` (the
//! CI `steady_allocs` gate) and `tests/workspace_alloc.rs` (the
//! counting-allocator test of the release matrix).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The counting [`GlobalAlloc`] — see the [module documentation](self).
pub struct CountingAllocator;

/// Number of [`measure_allocs`] calls currently in flight (a nesting count,
/// not a flag: one thread finishing its measurement must not disable
/// counting for a measurement still running on another thread — that would
/// silently turn an allocation gate into a no-op).
static MEASURING: AtomicUsize = AtomicUsize::new(0);

fn counting() -> bool {
    MEASURING.load(Ordering::Relaxed) > 0
}

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = TL_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            let _ = TL_DEALLOCS.try_with(|c| c.set(c.get() + 1));
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = TL_BYTES.try_with(|c| c.set(c.get() + new_size as u64));
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// The measuring thread's allocator traffic during one [`measure_allocs`]
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// `alloc` + `realloc` calls.
    pub allocs: u64,
    /// `dealloc` calls.
    pub deallocs: u64,
    /// Bytes requested across all counted allocations.
    pub bytes: u64,
}

/// Runs `f` with counting enabled and returns what the calling thread
/// allocated during the call (all zero unless the process registered
/// [`CountingAllocator`] as its `#[global_allocator]`).
pub fn measure_allocs(f: impl FnOnce()) -> AllocCounts {
    TL_ALLOCS.with(|c| c.set(0));
    TL_DEALLOCS.with(|c| c.set(0));
    TL_BYTES.with(|c| c.set(0));
    MEASURING.fetch_add(1, Ordering::SeqCst);
    f();
    MEASURING.fetch_sub(1, Ordering::SeqCst);
    AllocCounts {
        allocs: TL_ALLOCS.with(Cell::get),
        deallocs: TL_DEALLOCS.with(Cell::get),
        bytes: TL_BYTES.with(Cell::get),
    }
}
