//! Kernel event timing, mirroring the paper's use of
//! `cudaEventElapsedTime`.
//!
//! The paper reports, for every run, four numbers: the sum of the elapsed
//! times of all convolution kernels, the sum of the elapsed times of all
//! addition kernels, the sum of those two, and the wall clock time of the
//! whole computation (which additionally includes the transfer of the index
//! vectors that define the jobs).  [`KernelTimings`] accumulates exactly
//! those quantities.

use std::time::{Duration, Instant};

/// The kind of kernel being timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// A layer of convolution jobs (power series products).
    Convolution,
    /// A layer of addition jobs (power series updates).
    Addition,
}

/// Accumulated kernel timings for one evaluation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTimings {
    /// Sum of the elapsed times of all convolution kernel launches.
    pub convolution: Duration,
    /// Sum of the elapsed times of all addition kernel launches.
    pub addition: Duration,
    /// Number of convolution kernel launches.
    pub convolution_launches: usize,
    /// Number of addition kernel launches.
    pub addition_launches: usize,
    /// Total number of convolution jobs (blocks) executed.
    pub convolution_blocks: usize,
    /// Total number of addition jobs (blocks) executed.
    pub addition_blocks: usize,
    /// Always 0.  Every evaluation runs as layered grid launches, which are
    /// counted per kind above; the field is kept only because the benchmark
    /// package (`perfbench/`) still reads it.
    pub graph_launches: usize,
    /// Always zero, kept for the same reason as
    /// [`KernelTimings::graph_launches`].
    pub graph: Duration,
    /// Pool rendezvous paid by the evaluation: one per launch that woke the
    /// worker threads (a multi-block layer on a pool with workers).  Inline
    /// launches and sequential runs pay none.  Every launch reports its own
    /// rendezvous ([`crate::LaunchOutcome::rendezvous`]) and the evaluation
    /// sums them, so concurrent evaluations on one pool never see each
    /// other's.
    pub pool_rendezvous: usize,
    /// SIMD lane width the convolution stage ran at: the lane width (2, 4
    /// or 8) when at least one lane panel ran, 1 when the stage ran scalar
    /// jobs only (scalar mode, a kernel without lanes, or every layer
    /// smaller than the width), 0 when the run had no convolution stage.
    /// Lane panels change physical blocks only; the block counts above
    /// always count logical `(job, instance)` pairs.
    pub simd_width: usize,
    /// Wall clock time of the whole evaluation.
    pub wall_clock: Duration,
    /// Whether the run was abandoned by a cooperative
    /// [`CancelToken`](crate::CancelToken) before every block executed.  A
    /// cancelled run's outputs are unspecified and must be discarded; the
    /// workspace it borrowed is still returned clean.
    pub cancelled: bool,
}

impl KernelTimings {
    /// A fresh, empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one kernel launch of the given kind with `blocks` blocks.
    pub fn record(&mut self, kind: KernelKind, elapsed: Duration, blocks: usize) {
        match kind {
            KernelKind::Convolution => {
                self.convolution += elapsed;
                self.convolution_launches += 1;
                self.convolution_blocks += blocks;
            }
            KernelKind::Addition => {
                self.addition += elapsed;
                self.addition_launches += 1;
                self.addition_blocks += blocks;
            }
        }
    }

    /// Sum of the convolution and addition kernel times (the paper's third
    /// reported number).
    pub fn kernel_sum(&self) -> Duration {
        self.convolution + self.addition
    }

    /// Convolution time in milliseconds.
    pub fn convolution_ms(&self) -> f64 {
        duration_ms(self.convolution)
    }

    /// Addition time in milliseconds.
    pub fn addition_ms(&self) -> f64 {
        duration_ms(self.addition)
    }

    /// Kernel-sum time in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        duration_ms(self.kernel_sum())
    }

    /// Wall clock time in milliseconds.
    pub fn wall_clock_ms(&self) -> f64 {
        duration_ms(self.wall_clock)
    }

    /// Percentage of the wall clock spent inside kernels (Figure 4 of the
    /// paper).
    pub fn kernel_percentage(&self) -> f64 {
        let wall = self.wall_clock_ms();
        if wall <= 0.0 {
            return 0.0;
        }
        100.0 * self.sum_ms() / wall
    }

    /// Merges another record into this one (used when accumulating over
    /// repeated runs).
    pub fn merge(&mut self, other: &KernelTimings) {
        self.convolution += other.convolution;
        self.addition += other.addition;
        self.convolution_launches += other.convolution_launches;
        self.addition_launches += other.addition_launches;
        self.convolution_blocks += other.convolution_blocks;
        self.addition_blocks += other.addition_blocks;
        self.pool_rendezvous += other.pool_rendezvous;
        self.simd_width = self.simd_width.max(other.simd_width);
        self.wall_clock += other.wall_clock;
        self.cancelled |= other.cancelled;
    }
}

/// Converts a duration to fractional milliseconds.
pub fn duration_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running stopwatch used to fill in [`KernelTimings::wall_clock`].
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_kind() {
        let mut t = KernelTimings::new();
        t.record(KernelKind::Convolution, Duration::from_millis(10), 100);
        t.record(KernelKind::Convolution, Duration::from_millis(5), 50);
        t.record(KernelKind::Addition, Duration::from_millis(2), 20);
        assert_eq!(t.convolution_ms(), 15.0);
        assert_eq!(t.addition_ms(), 2.0);
        assert_eq!(t.sum_ms(), 17.0);
        assert_eq!(t.convolution_launches, 2);
        assert_eq!(t.addition_launches, 1);
        assert_eq!(t.convolution_blocks, 150);
        assert_eq!(t.addition_blocks, 20);
    }

    #[test]
    fn kernel_percentage_is_bounded() {
        let mut t = KernelTimings::new();
        t.record(KernelKind::Convolution, Duration::from_millis(90), 1);
        t.wall_clock = Duration::from_millis(100);
        assert!((t.kernel_percentage() - 90.0).abs() < 1e-9);
        let empty = KernelTimings::new();
        assert_eq!(empty.kernel_percentage(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = KernelTimings::new();
        a.record(KernelKind::Convolution, Duration::from_millis(1), 5);
        a.wall_clock = Duration::from_millis(3);
        let mut b = KernelTimings::new();
        b.record(KernelKind::Addition, Duration::from_millis(2), 7);
        b.wall_clock = Duration::from_millis(4);
        a.merge(&b);
        assert_eq!(a.sum_ms(), 3.0);
        assert_eq!(a.wall_clock_ms(), 7.0);
        assert_eq!(a.convolution_blocks, 5);
        assert_eq!(a.addition_blocks, 7);
    }

    #[test]
    fn stopwatch_measures_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }
}
