//! Shared access to the flat device data array.
//!
//! The paper stores every power-series coefficient of the computation in one
//! flat array `A` (Figure 1); each convolution or addition job is described
//! by offsets into that array, and all jobs of one layer write to pairwise
//! disjoint output ranges.  [`SharedSlice`] gives the block bodies running on
//! the worker pool access to that array.  Safety rests on the disjointness
//! invariant of the job schedule, which the schedule builder validates.

use std::marker::PhantomData;

/// A **borrowed** view of a flat data array that the blocks of a grid launch
/// read and write concurrently, provided the written ranges are disjoint.
/// The arena lives in a long-lived `Workspace` and is lent to the blocks of
/// one launch instead of being allocated per evaluation.
///
/// The borrow ends when the `SharedSlice` goes out of scope, at which point
/// the caller reads the results straight out of its own buffer — no
/// `into_inner`, no copy.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// Safety: concurrent access is coordinated by the job schedule (disjoint
// output ranges per layer); the type itself only hands out raw slices.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for shared access by the blocks of a launch.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of a range.
    ///
    /// # Safety
    ///
    /// No concurrently executing job may write to the same range.
    pub unsafe fn slice(&self, offset: usize, len: usize) -> &[T] {
        debug_assert!(offset + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(offset), len)
    }

    /// Mutable view of a range.
    ///
    /// # Safety
    ///
    /// No concurrently executing job may read or write the same range (the
    /// job schedule guarantees this for jobs within one layer; a job may
    /// read and write its own range).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [T] {
        debug_assert!(offset + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(offset), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn disjoint_parallel_writes_land_in_the_right_place() {
        let n = 64usize;
        let chunk = 16usize;
        let mut data = vec![0u64; n * chunk];
        let shared = SharedSlice::new(&mut data);
        let pool = WorkerPool::new(3);
        pool.launch_grid(n, |b| {
            let out = unsafe { shared.slice_mut(b * chunk, chunk) };
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = (b * 1000 + i) as u64;
            }
        });
        for b in 0..n {
            for i in 0..chunk {
                assert_eq!(data[b * chunk + i], (b * 1000 + i) as u64);
            }
        }
    }

    #[test]
    fn reads_and_writes_of_own_range_are_allowed() {
        let mut data = (0..100u32).collect::<Vec<_>>();
        let shared = SharedSlice::new(&mut data);
        let pool = WorkerPool::new(2);
        pool.launch_grid(10, |b| {
            let range = unsafe { shared.slice_mut(b * 10, 10) };
            let total: u32 = range.iter().sum();
            range[0] = total;
        });
        // Block 0 wrote the sum 0+1+...+9 = 45 into element 0.
        assert_eq!(data[0], 45);
        // Block 9 wrote 90+91+...+99 = 945 into element 90.
        assert_eq!(data[90], 945);
    }

    #[test]
    fn shared_slice_lends_a_workspace_buffer_to_parallel_blocks() {
        let n = 32usize;
        let chunk = 8usize;
        // The long-lived buffer a workspace would own.
        let mut arena = vec![0u64; n * chunk];
        let pool = WorkerPool::new(2);
        {
            let shared = SharedSlice::new(&mut arena);
            assert_eq!(shared.len(), n * chunk);
            assert!(!shared.is_empty());
            pool.launch_grid(n, |b| {
                let out = unsafe { shared.slice_mut(b * chunk, chunk) };
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = (b * 100 + i) as u64;
                }
            });
        }
        // The borrow ended; results are read straight out of the buffer.
        for b in 0..n {
            for i in 0..chunk {
                assert_eq!(arena[b * chunk + i], (b * 100 + i) as u64);
            }
        }
    }
}
