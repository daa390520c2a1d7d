//! Per-plan service metrics: request counters, the coalesced-batch-size
//! histogram, launch accounting and a fixed-size latency ring.
//!
//! Everything on the request path is either an atomic counter or a write
//! into a pre-allocated ring under a short lock, so recording a request
//! allocates nothing — the serving layer inherits the engine's
//! zero-allocation steady state.  Reading a [`MetricsSnapshot`] is the only
//! operation that sorts/copies, and it happens off the request path.

use psmd_core::PlanCacheStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of buckets of the coalesced-batch-size histogram.
pub const BATCH_BUCKETS: usize = 7;

/// Human-readable labels of the histogram buckets, in order.
pub const BATCH_BUCKET_LABELS: [&str; BATCH_BUCKETS] =
    ["1", "2", "3-4", "5-8", "9-16", "17-32", "33+"];

/// The histogram bucket a coalesced batch of `k` requests falls into.
pub fn batch_bucket(k: usize) -> usize {
    match k {
        0..=1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        _ => 6,
    }
}

/// Number of buckets of the abandon-latency histogram (time from the
/// whole-window cancellation trip to the launch actually abandoning).
pub const ABANDON_BUCKETS: usize = 6;

/// Human-readable upper bounds of the abandon-latency buckets, in order.
pub const ABANDON_BUCKET_LABELS: [&str; ABANDON_BUCKETS] =
    ["<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s"];

/// The histogram bucket an abandon latency of `micros` microseconds falls
/// into.
pub fn abandon_bucket(micros: u64) -> usize {
    match micros {
        0..=99 => 0,
        100..=999 => 1,
        1_000..=9_999 => 2,
        10_000..=99_999 => 3,
        100_000..=999_999 => 4,
        _ => 5,
    }
}

/// Capacity of the latency ring: the snapshot percentiles are computed over
/// the most recent this-many completed requests.
const LATENCY_RING: usize = 1024;

struct LatencyRing {
    samples: Box<[u64; LATENCY_RING]>,
    head: usize,
    len: usize,
}

impl LatencyRing {
    fn new() -> Self {
        Self {
            samples: Box::new([0; LATENCY_RING]),
            head: 0,
            len: 0,
        }
    }

    fn record(&mut self, micros: u64) {
        self.samples[self.head] = micros;
        self.head = (self.head + 1) % LATENCY_RING;
        self.len = (self.len + 1).min(LATENCY_RING);
    }

    fn percentiles(&self) -> (u64, u64) {
        if self.len == 0 {
            return (0, 0);
        }
        let mut sorted: Vec<u64> = self.samples[..self.len].to_vec();
        sorted.sort_unstable();
        // Nearest-rank percentile: the smallest sample with at least
        // p * len samples at or below it.
        let at = |p: f64| {
            let rank = (p * self.len as f64).ceil() as usize;
            sorted[rank.clamp(1, self.len) - 1]
        };
        (at(0.50), at(0.99))
    }
}

/// Live per-plan counters, owned by the plan's coalescing queue.
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    busy_rejected: AtomicU64,
    deadline_expired: AtomicU64,
    launches: AtomicU64,
    launches_saved: AtomicU64,
    coalesced_total: AtomicU64,
    cancelled_launches: AtomicU64,
    detached_slots: AtomicU64,
    batch_histogram: [AtomicU64; BATCH_BUCKETS],
    abandon_histogram: [AtomicU64; ABANDON_BUCKETS],
    queue_depth: AtomicUsize,
    max_queue_depth: AtomicUsize,
    inflight: AtomicUsize,
    latencies: Mutex<LatencyRing>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            busy_rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            launches_saved: AtomicU64::new(0),
            coalesced_total: AtomicU64::new(0),
            cancelled_launches: AtomicU64::new(0),
            detached_slots: AtomicU64::new(0),
            batch_histogram: [const { AtomicU64::new(0) }; BATCH_BUCKETS],
            abandon_histogram: [const { AtomicU64::new(0) }; ABANDON_BUCKETS],
            queue_depth: AtomicUsize::new(0),
            max_queue_depth: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            latencies: Mutex::new(LatencyRing::new()),
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_busy(&self) {
        self.busy_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// One launch serving `k` coalesced requests.
    pub(crate) fn record_launch(&self, k: usize) {
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.launches_saved
            .fetch_add(k.saturating_sub(1) as u64, Ordering::Relaxed);
        self.coalesced_total.fetch_add(k as u64, Ordering::Relaxed);
        self.batch_histogram[batch_bucket(k)].fetch_add(1, Ordering::Relaxed);
    }

    /// A follower detached from its coalesced window after its own deadline
    /// passed; its slot result will be discarded on scatter.
    pub(crate) fn record_detached(&self) {
        self.detached_slots.fetch_add(1, Ordering::Relaxed);
    }

    /// A launch whose entire window expired was abandoned mid-flight,
    /// `abandon_micros` microseconds after the cancellation tripped.
    pub(crate) fn record_cancelled_launch(&self, abandon_micros: u64) {
        self.cancelled_launches.fetch_add(1, Ordering::Relaxed);
        self.abandon_histogram[abandon_bucket(abandon_micros)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_completed(&self, latency_micros: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(latency_micros);
    }

    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Admission: increments in-flight and reports the previous value so the
    /// caller can compare against its limit; [`Metrics::exit`] undoes it.
    pub(crate) fn enter(&self) -> usize {
        self.inflight.fetch_add(1, Ordering::AcqRel)
    }

    pub(crate) fn exit(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }

    /// A consistent-enough snapshot of every counter (individually atomic;
    /// the set is racy under concurrent traffic, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (p50_us, p99_us) = self
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .percentiles();
        let mut batch_histogram = [0u64; BATCH_BUCKETS];
        for (out, bucket) in batch_histogram.iter_mut().zip(self.batch_histogram.iter()) {
            *out = bucket.load(Ordering::Relaxed);
        }
        let mut abandon_histogram = [0u64; ABANDON_BUCKETS];
        for (out, bucket) in abandon_histogram
            .iter_mut()
            .zip(self.abandon_histogram.iter())
        {
            *out = bucket.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            busy_rejected: self.busy_rejected.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            launches_saved: self.launches_saved.load(Ordering::Relaxed),
            coalesced_total: self.coalesced_total.load(Ordering::Relaxed),
            cancelled_launches: self.cancelled_launches.load(Ordering::Relaxed),
            detached_slots: self.detached_slots.load(Ordering::Relaxed),
            batch_histogram,
            abandon_histogram,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            p50_us,
            p99_us,
            plan_cache: None,
            pool_rendezvous: None,
        }
    }
}

/// A point-in-time copy of a plan's service metrics.
///
/// Produced by [`Metrics::snapshot`]; [`Service::metrics`](crate::Service::metrics)
/// additionally fills the engine-level fields (`plan_cache`,
/// `pool_rendezvous`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests submitted (admitted or rejected).
    pub submitted: u64,
    /// Requests answered with a successful evaluation.
    pub completed: u64,
    /// Requests rejected at admission because too many were in flight.
    pub busy_rejected: u64,
    /// Requests whose deadline expired while queued; rejected without a
    /// launch.
    pub deadline_expired: u64,
    /// Coalesced evaluation launches performed.
    pub launches: u64,
    /// Launches avoided by coalescing: for every launch serving `k`
    /// requests, `k - 1` launches were saved over the one-launch-per-request
    /// baseline.
    pub launches_saved: u64,
    /// Total requests served across all launches (`completed` requests pass
    /// through exactly one launch, so in a quiet moment
    /// `coalesced_total == completed`).
    pub coalesced_total: u64,
    /// Launches abandoned mid-flight because every waiter of their window
    /// had detached or the whole window's latest deadline passed.
    pub cancelled_launches: u64,
    /// Followers that detached from a coalesced window after their own
    /// deadline passed (their slot result was discarded on scatter).
    pub detached_slots: u64,
    /// Histogram of coalesced batch sizes; bucket boundaries are
    /// [`BATCH_BUCKET_LABELS`].
    pub batch_histogram: [u64; BATCH_BUCKETS],
    /// Histogram of abandon latencies (cancellation trip to launch
    /// abandonment); bucket boundaries are [`ABANDON_BUCKET_LABELS`].
    pub abandon_histogram: [u64; ABANDON_BUCKETS],
    /// Queue depth after the most recent drain.
    pub queue_depth: usize,
    /// Largest queue depth observed at enqueue time.
    pub max_queue_depth: usize,
    /// Requests currently admitted and not yet resolved.
    pub inflight: usize,
    /// Median request latency (submit to response) over the latency ring,
    /// in microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency over the latency ring, in
    /// microseconds.
    pub p99_us: u64,
    /// Engine plan-cache statistics; `None` in a queue-level snapshot.
    pub plan_cache: Option<PlanCacheStats>,
    /// Engine worker-pool rendezvous counter; `None` in a queue-level
    /// snapshot.
    pub pool_rendezvous: Option<u64>,
}

impl MetricsSnapshot {
    /// Mean coalesced batch size over all launches so far (0 when nothing
    /// launched yet).
    pub fn mean_batch(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.coalesced_total as f64 / self.launches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_sizes() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(3), 2);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(5), 3);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(9), 4);
        assert_eq!(batch_bucket(16), 4);
        assert_eq!(batch_bucket(17), 5);
        assert_eq!(batch_bucket(32), 5);
        assert_eq!(batch_bucket(33), 6);
        assert_eq!(batch_bucket(1000), 6);
    }

    #[test]
    fn launch_accounting_sums_saved_launches() {
        let m = Metrics::new();
        m.record_launch(1);
        m.record_launch(4);
        m.record_launch(8);
        let s = m.snapshot();
        assert_eq!(s.launches, 3);
        assert_eq!(s.launches_saved, 3 + 7);
        assert_eq!(s.coalesced_total, 13);
        assert_eq!(s.batch_histogram[0], 1);
        assert_eq!(s.batch_histogram[2], 1);
        assert_eq!(s.batch_histogram[3], 1);
        assert!((s.mean_batch() - 13.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn abandon_buckets_partition_the_latencies() {
        assert_eq!(abandon_bucket(0), 0);
        assert_eq!(abandon_bucket(99), 0);
        assert_eq!(abandon_bucket(100), 1);
        assert_eq!(abandon_bucket(999), 1);
        assert_eq!(abandon_bucket(1_000), 2);
        assert_eq!(abandon_bucket(99_999), 3);
        assert_eq!(abandon_bucket(100_000), 4);
        assert_eq!(abandon_bucket(1_000_000), 5);
    }

    #[test]
    fn cancellation_counters_reach_the_snapshot() {
        let m = Metrics::new();
        m.record_detached();
        m.record_detached();
        m.record_cancelled_launch(250);
        let s = m.snapshot();
        assert_eq!(s.detached_slots, 2);
        assert_eq!(s.cancelled_launches, 1);
        assert_eq!(s.abandon_histogram[abandon_bucket(250)], 1);
        assert_eq!(s.abandon_histogram.iter().sum::<u64>(), 1);
    }

    #[test]
    fn latency_ring_reports_percentiles() {
        let m = Metrics::new();
        for i in 1..=100 {
            m.record_completed(i);
        }
        let s = m.snapshot();
        assert_eq!(s.completed, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p99_us, 99);
    }

    #[test]
    fn ring_keeps_only_the_most_recent_window() {
        let m = Metrics::new();
        for _ in 0..LATENCY_RING {
            m.record_completed(1_000_000);
        }
        for _ in 0..LATENCY_RING {
            m.record_completed(5);
        }
        let s = m.snapshot();
        assert_eq!(s.p50_us, 5);
        assert_eq!(s.p99_us, 5);
    }
}
