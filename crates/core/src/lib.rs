//! # psmd-core
//!
//! The paper's primary contribution: evaluation and differentiation of a
//! polynomial in several variables at a vector of truncated power series,
//! organized as a massively parallel computation of convolution and addition
//! jobs.
//!
//! The pipeline is:
//!
//! 1. describe the polynomial ([`Polynomial`], [`Monomial`]);
//! 2. build the job [`Schedule`] once per polynomial or system
//!    (forward/backward/cross products of every monomial, layered so that
//!    independent jobs form one kernel launch, plus the tree summation of
//!    the evaluated monomials); a polynomial is the one-equation system, so
//!    one schedule and one runner serve every plan;
//! 3. compile it once into an owned, shareable plan with the [`Engine`]
//!    ([`Engine::compile`] returns an `Arc<`[`Plan`]`>`; repeat compiles hit
//!    a structural plan cache) and evaluate at any input series — one
//!    vector, a whole batch, or a system — with the [`Plan::request`]
//!    builder, one kernel launch per layer (the paper's execution model and
//!    the only executor), collecting per-kernel timings.  All
//!    evaluation memory is borrowed from pooled [`Workspace`]s, so
//!    steady-state evaluation allocates nothing
//!    (`request(..).into(&mut out)` for callers that also reuse the
//!    output);
//! 4. compare against the naive baseline ([`evaluate_naive`]) and convert the
//!    schedule into the [`psmd_device::WorkloadShape`] of the analytic GPU
//!    performance model ([`counts::workload_shape`]).
//!
//! ```
//! use psmd_core::{evaluate_naive, Engine, Monomial, Polynomial};
//! use psmd_multidouble::Dd;
//! use psmd_series::Series;
//!
//! // p = 1 + 3 x0 x1, evaluated at z0 = 1 + t, z1 = 1 - t (double-double).
//! let d = 2;
//! let constant = Series::constant(Dd::from_f64(1.0), d);
//! let coeff = Series::constant(Dd::from_f64(3.0), d);
//! let p = Polynomial::new(2, constant, vec![Monomial::new(coeff, vec![0, 1])]);
//! let z = vec![
//!     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
//!     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
//! ];
//! let engine = Engine::builder().build();
//! let plan = engine.compile(p.clone());
//! let eval = plan.request(&z).run().into_single();
//! assert_eq!(eval.value.coeff(0).to_f64(), 4.0);      // 1 + 3
//! assert_eq!(eval.value.coeff(2).to_f64(), -3.0);     // -3 t^2
//! assert_eq!(eval.gradient[0].coeff(1).to_f64(), -3.0);
//! assert!(eval.max_difference(&evaluate_naive(&p, &z)) < 1e-30);
//! ```
//!
//! The historical borrowing front-ends (`ScheduledEvaluator`,
//! `BatchEvaluator`, `SystemEvaluator`) and the five-method `evaluate*`
//! shim family have been removed; [`Engine::compile`] + [`Plan::request`]
//! is the one entry point.
//!
//! A plan's coefficient type (`Md<N>`, or `Complex<Md<N>>`) fixes its
//! precision.  A caller holding a runtime
//! [`Precision`](psmd_multidouble::Precision) value picks the type once with
//! [`psmd_multidouble::with_precision!`] and works on typed plans from there.
//!
//! Every evaluation — one input vector or a batch, a polynomial or a
//! system — additionally packs the convolution jobs of each layer into SIMD
//! lane panels when the hardware supports it (AVX-512, AVX2, NEON).  Per
//! lane the results are bitwise identical to the scalar path; [`SimdMode`] /
//! `PSMD_SIMD` control the width.  See [`lanes`] and
//! `psmd_multidouble::lanes`.

#![warn(missing_docs)]

pub mod batch;
pub mod counts;
pub mod crossover;
pub mod engine;
pub mod error;
pub mod evaluate;
pub mod generators;
pub mod lanes;
pub mod monomial;
pub mod newton;
pub mod options;
pub mod polynomial;
pub mod schedule;
pub mod system;
pub mod workspace;

pub use batch::BatchEvaluation;
pub use counts::{
    achieved_gflops, coefficient_ops, coefficient_ops_for, workload_shape, CoefficientOps,
};
pub use crossover::{auto_kernel, crossover_for, Crossover, CROSSOVER_TABLE};
pub use engine::{
    BoundEvalRequest, Engine, EngineBuilder, EvalOutput, EvalRequest, Inputs, Plan, PlanCacheStats,
    PlanStats, PolySource,
};
pub use error::Error;
pub use evaluate::{evaluate_naive, ConvolutionKernel, Evaluation, ExecMode};
pub use generators::{
    banded_supports, binomial, combinations, polynomial_with_supports, random_inputs,
    random_polynomial,
};
pub use monomial::Monomial;
pub use newton::{
    try_newton_system, try_newton_system_parallel, try_solve_linearized, try_solve_linearized_into,
    LinearSolveWorkspace, NewtonOptions, NewtonResult, NewtonTrace,
};
pub use options::{EvalOptions, SimdMode};
pub use polynomial::Polynomial;
pub use psmd_runtime::CancelToken;
pub use schedule::{AddJob, ConvJob, DataLayout, ResultLocation, Schedule};
pub use system::{evaluate_naive_system, SystemBatchEvaluation, SystemEvaluation};
pub use workspace::{PooledWorkspace, Workspace, WorkspacePool};
