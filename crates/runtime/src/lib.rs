//! # psmd-runtime
//!
//! The CUDA-like execution substrate of the reproduction: a persistent CPU
//! worker pool onto which "kernels" are launched as grids of blocks
//! ([`WorkerPool::launch_grid`]), kernel event timers mirroring
//! `cudaEventElapsedTime` ([`KernelTimings`]) and the shared flat data array
//! the jobs operate on ([`SharedArray`]).
//!
//! The paper's experiments run on five NVIDIA GPUs; this crate replaces the
//! CUDA runtime while preserving its execution model (one block per job,
//! blocks executed in parallel, one kernel launch per layer of jobs), so the
//! algorithmic layer above is the same code path the paper describes.
//!
//! Beyond the layered reference path, the crate provides a dependency-driven
//! executor ([`WorkerPool::launch_graph_indexed_cancellable`] over a
//! [`TaskGraph`]): blocks are released to per-worker work-stealing deques as
//! their predecessors retire, replacing the per-layer barrier with a single
//! pool rendezvous per evaluation.
//!
//! Both launch shapes support **cooperative cancellation** through a shared
//! [`CancelToken`] epoch, polled between block claims (never inside kernel
//! arithmetic): a cancelled launch abandons its remaining blocks while still
//! draining its bookkeeping, so the rendezvous completes and the pool stays
//! usable — the substrate of the serving layer's deadline abandonment.

#![warn(missing_docs)]

pub mod cancel;
pub mod graph;
pub mod pool;
pub mod shared;
pub mod timer;

pub use cancel::CancelToken;
pub use graph::{InlineGraphScratch, TaskGraph, TaskGraphBuilder};
pub use pool::{global_pool, WorkerPool};
pub use shared::{SharedArray, SharedSlice};
pub use timer::{duration_ms, KernelKind, KernelTimings, Stopwatch};
