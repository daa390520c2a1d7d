//! # psmd-track
//!
//! Adaptive-precision homotopy continuation path tracking over the batched
//! fused evaluation engine — the paper's motivating application: Newton's
//! method on power series is the corrector of a path tracker, and the
//! multiple-double arithmetic exists so the tracker can buy accuracy at
//! runtime when a path demands it.
//!
//! The tracker follows many solution paths of the homotopy
//!
//! ```text
//! H(x, t) = (1−t)·G(x) + γ·t·F(x)
//! ```
//!
//! from the known solutions of the start system `G` at `t = 0` to the
//! wanted solutions of the target system `F` at `t = 1`, with four ideas
//! stacked on top of the core engine:
//!
//! 1. **One plan, both systems.**  `G` and `F` are compiled as a single
//!    stacked `2n`-equation fused system plan ([`Homotopy`]); since neither
//!    depends on `t`, combining `H` and `∂H/∂x` at any `t` is a cheap
//!    host-side fold over one raw evaluation, and the tangent right-hand
//!    side `γ·F − G` comes from the same evaluation for free.
//! 2. **One launch per corrector sweep.**  All concurrently-live paths of a
//!    precision form a cohort; each sweep stages every path's trial iterate
//!    into one `Inputs::Batch` request, so a single coalesced launch
//!    sequence serves every path's Newton iteration
//!    ([`TrackStats::corrector_launches`] counts them — the batching win
//!    over tracking paths one at a time).  The paths' host steps of a
//!    sweep then run as one launch on the engine's pool, one block per
//!    path.
//! 3. **Precision as a runtime resource.**  Paths start at double precision
//!    and escalate individually through the multiple-double ladder
//!    (`1d → 2d → 3d → 4d → 5d → 8d → 10d`) only when the corrector stalls
//!    at the current roundoff floor, the step size underflows, or a
//!    pivot-ratio conditioning estimate proves the demanded tolerance
//!    unrepresentable.  Escalation re-compiles through the engine's
//!    structurally-keyed plan cache and transfers iterates exactly by
//!    zero-extending their limb expansions.
//! 4. **Corrections in `f64`, acceptance at the working precision.**  At
//!    degree 0 the tangent and every Newton update are solved with an
//!    `f64` LU of `∂H/∂x` and lifted to the working precision, while the
//!    residual, the update, the acceptance test and the escalation rules
//!    stay at the working precision.  A solve whose `f64` factorization
//!    fails or is too badly conditioned to gain 30 bits runs at the
//!    working precision instead ([`TrackStats::working_precision_solves`]
//!    counts them), as does every solve above degree 0.
//!
//! Monomials are products of **distinct** variables — the paper's
//! multilinear setting, which is what the fused evaluation schedule (and
//! its Jacobian) computes.
//!
//! ```
//! use psmd_core::Engine;
//! use psmd_track::{HomotopySpec, MonomialSpec, PolySpec, TrackOptions, Tracker};
//!
//! // Start G: { x + y, x·y + 1 } with solutions (1, −1) and (−1, 1);
//! // target F: { x + y − 1, x·y + 6 } with solutions (3, −2) and (−2, 3).
//! let sum = |s: f64| PolySpec {
//!     constant: vec![-s],
//!     monomials: vec![
//!         MonomialSpec::constant_coeff(1.0, vec![0]),
//!         MonomialSpec::constant_coeff(1.0, vec![1]),
//!     ],
//! };
//! let product = |p: f64| PolySpec {
//!     constant: vec![-p],
//!     monomials: vec![MonomialSpec::constant_coeff(1.0, vec![0, 1])],
//! };
//! let spec = HomotopySpec::new(
//!     2,
//!     0,
//!     vec![sum(0.0), product(-1.0)],
//!     vec![sum(1.0), product(-6.0)],
//! );
//! let tracker = Tracker::new(spec, TrackOptions::default()).unwrap();
//! let engine = Engine::builder().build();
//! let outcome = tracker
//!     .track(&engine, &[vec![1.0, -1.0], vec![-1.0, 1.0]])
//!     .unwrap();
//! assert_eq!(outcome.stats.converged, 2);
//! assert!((outcome.reports[0].solution[0][0] - 3.0).abs() < 1e-9);
//! assert!((outcome.reports[1].solution[1][0] - 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod cohort;
mod control;
mod homotopy;
mod report;
mod spec;
mod tracker;

pub use control::TrackOptions;
pub use homotopy::Homotopy;
pub use report::{PathStatus, TrackOutcome, TrackReport, TrackStats};
pub use spec::{HomotopySpec, MonomialSpec, PolySpec};
pub use tracker::Tracker;
