//! # psmd-runtime
//!
//! The CUDA-like execution substrate of the reproduction: a persistent CPU
//! worker pool onto which "kernels" are launched as grids of blocks
//! ([`WorkerPool::launch_grid`]), kernel event timers mirroring
//! `cudaEventElapsedTime` ([`KernelTimings`]) and the shared flat data array
//! the jobs operate on ([`SharedSlice`]).
//!
//! The paper's experiments run on five NVIDIA GPUs; this crate replaces the
//! CUDA runtime while preserving its execution model (one block per job,
//! blocks executed in parallel, one kernel launch per layer of jobs), so the
//! algorithmic layer above is the same code path the paper describes.
//!
//! There is one launch shape, the grid: every layer of jobs is one launch,
//! and each launch reports whether it woke the pool ([`LaunchOutcome`]), so
//! an evaluation counts its own rendezvous.  A launch lives on the
//! launcher's stack and is posted to each worker's bounded queue by
//! reference, so launching allocates nothing.  Launches support **cooperative
//! cancellation** through a shared [`CancelToken`] epoch, polled between
//! block claims (never inside kernel arithmetic): a cancelled launch stops
//! claiming blocks, the rendezvous still completes and the pool stays
//! usable — the substrate of the serving layer's deadline abandonment.

#![warn(missing_docs)]

pub mod cancel;
pub mod pool;
pub mod shared;
pub mod timer;

pub use cancel::CancelToken;
pub use pool::{LaunchOutcome, WorkerPool};
pub use shared::SharedSlice;
pub use timer::{duration_ms, KernelKind, KernelTimings, Stopwatch};
