//! Cooperative cancellation of in-flight launches.
//!
//! A [`CancelToken`] is a shared epoch counter: holders of a clone may
//! [`cancel`](CancelToken::cancel) it, and launch loops poll
//! [`is_cancelled`](CancelToken::is_cancelled) **before each block** —
//! never inside kernel arithmetic — so a cancelled launch abandons its
//! remaining blocks before the next one starts.  The poll is a single
//! relaxed atomic load, cheap enough to sit on the hot path of an
//! uncancelled launch without measurable cost.
//!
//! Cancellation is cooperative and best-effort: blocks already running
//! finish (block bodies are short — one convolution or addition job), and
//! a launch that retires its last block before observing the epoch change
//! completes normally.  What is guaranteed is that no *new* block body
//! starts after its participant observes the cancelled epoch, even in the
//! middle of a claimed chunk of blocks, and that the launch
//! still terminates cleanly: every participant stops claiming and signals
//! completion, so the pool rendezvous completes and the pool stays usable.
//!
//! Tokens are designed for reuse: the serving layer keeps one token per
//! coalescing queue and [`reset`](CancelToken::reset)s it between windows,
//! so arming a launch allocates nothing in the steady state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation epoch for cooperative launch abandonment.
///
/// Clones share one underlying counter (cloning never allocates).  The
/// token starts live; any holder may trip it with
/// [`cancel`](CancelToken::cancel), and the owner of a launch slot may
/// [`reset`](CancelToken::reset) it between launches to reuse the
/// allocation.
///
/// ```
/// use psmd_runtime::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// let observer = token.clone();
/// token.cancel();
/// assert!(observer.is_cancelled());
/// observer.reset();
/// assert!(!token.is_cancelled());
/// ```
#[derive(Debug, Default)]
pub struct CancelToken {
    epoch: Arc<AtomicU64>,
}

impl Clone for CancelToken {
    fn clone(&self) -> Self {
        Self {
            epoch: Arc::clone(&self.epoch),
        }
    }
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: launches armed with it abandon their remaining
    /// blocks before the next one starts.  Idempotent (each call bumps the
    /// epoch; any non-zero epoch means cancelled).
    pub fn cancel(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Whether the token has been cancelled since construction or the last
    /// [`reset`](CancelToken::reset).  A single relaxed load — the check a
    /// launch performs before each block.
    pub fn is_cancelled(&self) -> bool {
        self.epoch.load(Ordering::Relaxed) != 0
    }

    /// The raw epoch value (number of `cancel` calls since the last reset).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Re-arms the token for a new launch.  Only the owner of the launch
    /// slot should call this, strictly between launches — resetting a token
    /// that an in-flight launch is polling would un-cancel that launch.
    pub fn reset(&self) {
        self.epoch.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_live_and_trips_once_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.epoch(), 0);
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn clones_share_the_epoch() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!c.is_cancelled());
    }

    #[test]
    fn cancellation_crosses_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        std::thread::spawn(move || c.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }
}
