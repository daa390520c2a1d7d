//! The engine: one owned, shareable entry point for every evaluator.
//!
//! The paper's central observation is that the expensive artifact is the
//! *schedule* — "the coordinates of the jobs depend only on the structure of
//! the monomials and are computed only once" (Section 5) — while the
//! evaluation is the cheap, endlessly repeated part.  The engine makes that
//! split explicit and production-shaped:
//!
//! * [`EngineBuilder`] configures kernel, SIMD mode and thread count
//!   once; [`Engine`] owns its [`WorkerPool`] and is
//!   `Send + Sync`.
//! * [`Engine::compile`] turns a [`PolySource`] (a single polynomial or a
//!   system) into an [`Arc<Plan>`]: an **owned** (`'static`) compiled
//!   schedule with no borrowed polynomials, shareable across threads and
//!   cacheable behind a long-lived handle.  Compiling the same source twice
//!   hits an internal plan cache keyed by a structural hash of the
//!   polynomial, so repeat compiles are free.  The `try_*` twins
//!   ([`EngineBuilder::try_build`], [`Engine::try_compile`]) return a
//!   [`crate::Error`] instead of panicking, for services that must degrade
//!   gracefully on untrusted configuration or sources.
//! * [`Plan::request`] is the single evaluation entry point: it accepts
//!   unified [`Inputs`] (one input vector or a whole batch) and returns an
//!   [`EvalRequest`] builder whose [`run`](EvalRequest::run) produces a
//!   unified [`EvalOutput`] (single, batched or system evaluation) with
//!   full kernel timings, including the pool rendezvous paid by the run.
//!   (The historical `evaluate*` method family has been removed; the
//!   request builder is the only entry point.)
//! * The coefficient type fixes the precision.  A caller holding a runtime
//!   [`Precision`](psmd_multidouble::Precision) value turns it into its
//!   `Md<N>` type once, with
//!   [`psmd_multidouble::with_precision!`], and compiles a typed plan.
//! * Evaluation memory lives in workspaces that each plan parks between
//!   runs (see [`crate::workspace`]): every run checks one out of its
//!   plan's pool and parks it again, so workspace reuse is automatic, and
//!   the builder's [`into`](EvalRequest::into) stage reuses the output as
//!   well — steady-state evaluation then performs **zero heap
//!   allocations**.
//!
//! ```
//! use psmd_core::{Engine, Inputs, Monomial, Polynomial};
//! use psmd_multidouble::Dd;
//! use psmd_series::Series;
//! use std::sync::Arc;
//!
//! // p = 1 + 3 x0 x1 at z0 = 1 + t, z1 = 1 - t (double-double).
//! let d = 2;
//! let c = |x: f64| Series::constant(Dd::from_f64(x), d);
//! let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
//! let z = vec![
//!     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
//!     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
//! ];
//!
//! let engine = Engine::builder().build();
//! let plan = engine.compile(p.clone());          // compiled once...
//! let again = engine.compile(p);                 // ...the second compile is a cache hit
//! assert!(Arc::ptr_eq(&plan, &again));
//!
//! let eval = plan.request(Inputs::Single(&z)).run().into_single();
//! assert_eq!(eval.value.coeff(0).to_f64(), 4.0); // 1 + 3
//! assert_eq!(eval.value.coeff(2).to_f64(), -3.0);
//!
//! // The builder's stages compose: reuse an output buffer, or run on the
//! // calling thread only.
//! let mut out = plan.request(&z).run();
//! plan.request(&z).into(&mut out).run();
//! let seq = plan.request(&z).sequential().run();
//! assert!(out.bitwise_eq(&seq));
//! ```

use crate::batch::BatchEvaluation;
use crate::error::Error;
use crate::evaluate::{extract_output, stage_and_execute, Evaluation};
use crate::options::EvalOptions;
use crate::polynomial::Polynomial;
use crate::schedule::Schedule;
use crate::system::{SystemBatchEvaluation, SystemEvaluation};
use crate::workspace::ParkedWorkspaces;
use psmd_multidouble::Coeff;
use psmd_runtime::{CancelToken, KernelTimings, Stopwatch, WorkerPool};
use psmd_series::Series;
use std::any::{Any, TypeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// What a [`Plan`] is compiled from: one polynomial or a whole system.
///
/// Both compile to the same merged [`Schedule`]: a single polynomial is the
/// one-equation system.  The variant only decides the output shape (a value
/// and gradient, or all values and the Jacobian).
///
/// The source is stored **by value** inside the plan — unlike the historical
/// borrowing evaluators there is no `'p` lifetime, which is what lets plans
/// live in caches, cross threads and outlive the code that built them.
#[derive(Debug, Clone, PartialEq)]
pub enum PolySource<C> {
    /// One polynomial: supports single and batched evaluation.
    Single(Polynomial<C>),
    /// A system of polynomials over shared variables: one merged,
    /// deduplicated schedule produces all values plus the full Jacobian.
    System(Vec<Polynomial<C>>),
}

impl<C: Coeff> PolySource<C> {
    /// The equations of the source: the one polynomial of a single source,
    /// or every equation of a system.
    pub(crate) fn equations(&self) -> &[Polynomial<C>] {
        match self {
            PolySource::Single(p) => std::slice::from_ref(p),
            PolySource::System(ps) => ps,
        }
    }

    /// Number of variables of the source.
    pub fn num_variables(&self) -> usize {
        self.equations()
            .first()
            .map_or(0, Polynomial::num_variables)
    }

    /// Common truncation degree of the source.
    pub fn degree(&self) -> usize {
        self.equations().first().map_or(0, Polynomial::degree)
    }

    /// Number of equations (1 for a single polynomial).
    pub fn num_equations(&self) -> usize {
        self.equations().len()
    }

    /// A structural hash of the source: variable structure, truncation
    /// degree and the exact coefficient bits.  Two sources hash equally
    /// exactly when they would compile to interchangeable plans; the plan
    /// cache confirms hash hits with [`PolySource::bitwise_eq`] before
    /// reusing a plan.
    pub fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash_structure(&mut h);
        h.finish()
    }

    /// True when the two sources are bit-for-bit identical: same variable
    /// structure, same degrees and the exact same coefficient bit patterns.
    /// Unlike `PartialEq`, this treats equal-bit NaN coefficients as equal
    /// and distinguishes `-0.0` from `0.0` — it is the confirmation the
    /// plan cache pairs with [`PolySource::structural_hash`], so sources
    /// with NaN coefficients still hit the cache.  Streams and early-exits;
    /// no allocation.
    pub fn bitwise_eq(&self, other: &PolySource<C>) -> bool {
        match (self, other) {
            (PolySource::Single(a), PolySource::Single(b)) => polynomial_bits_eq(a, b),
            (PolySource::System(a), PolySource::System(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| polynomial_bits_eq(x, y))
            }
            _ => false,
        }
    }

    fn hash_structure<H: Hasher>(&self, h: &mut H) {
        match self {
            PolySource::Single(p) => {
                0u8.hash(h);
                hash_polynomial(p, h);
            }
            PolySource::System(ps) => {
                1u8.hash(h);
                ps.len().hash(h);
                for p in ps {
                    hash_polynomial(p, h);
                }
            }
        }
    }
}

impl<C: Coeff> From<Polynomial<C>> for PolySource<C> {
    fn from(poly: Polynomial<C>) -> Self {
        PolySource::Single(poly)
    }
}

impl<C: Coeff> From<Vec<Polynomial<C>>> for PolySource<C> {
    fn from(polys: Vec<Polynomial<C>>) -> Self {
        PolySource::System(polys)
    }
}

/// A stack-buffer "hasher" that records the exact byte stream of **one**
/// coefficient's [`Coeff::hash_bits`] call, so bit patterns can be compared
/// directly (`PartialEq` on floats rejects identical NaNs and conflates
/// `±0.0`) without heap allocation.  The largest coefficient is
/// `Complex<Md<10>>` at 160 bytes; the buffer leaves headroom.
struct CoeffBits {
    buf: [u8; 256],
    len: usize,
}

impl CoeffBits {
    fn of<C: Coeff>(value: &C) -> Self {
        let mut bits = Self {
            buf: [0; 256],
            len: 0,
        };
        value.hash_bits(&mut bits);
        bits
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

// `#[inline]` keeps these callable inline from the crates that instantiate
// `coeff_bits_eq::<C>`; an opaque call per limb doubled the cost of a
// plan-cache hit compiled outside this crate.
impl Hasher for CoeffBits {
    #[inline]
    fn finish(&self) -> u64 {
        0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        debug_assert!(end <= self.buf.len(), "coefficient exceeds the bit buffer");
        self.buf[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }
}

fn hash_series<C: Coeff, H: Hasher>(series: &Series<C>, state: &mut H) {
    series.degree().hash(state);
    for coeff in series.coeffs() {
        coeff.hash_bits(state);
    }
}

/// Bit-for-bit equality of two coefficients.
fn coeff_bits_eq<C: Coeff>(a: &C, b: &C) -> bool {
    CoeffBits::of(a).as_slice() == CoeffBits::of(b).as_slice()
}

/// Bit-for-bit equality of two series (degree and exact coefficient bits),
/// streaming with early exit.
fn series_bits_eq<C: Coeff>(a: &Series<C>, b: &Series<C>) -> bool {
    a.degree() == b.degree()
        && a.coeffs()
            .iter()
            .zip(b.coeffs().iter())
            .all(|(x, y)| coeff_bits_eq(x, y))
}

/// Bit-for-bit equality of two series slices.
fn series_slice_bits_eq<C: Coeff>(a: &[Series<C>], b: &[Series<C>]) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| series_bits_eq(x, y))
}

/// Bit-for-bit equality of two polynomials (variable structure, degrees and
/// exact coefficient bits).
fn polynomial_bits_eq<C: Coeff>(a: &Polynomial<C>, b: &Polynomial<C>) -> bool {
    a.num_variables() == b.num_variables()
        && a.degree() == b.degree()
        && series_bits_eq(a.constant(), b.constant())
        && a.num_monomials() == b.num_monomials()
        && a.monomials()
            .iter()
            .zip(b.monomials().iter())
            .all(|(x, y)| {
                x.variables == y.variables && series_bits_eq(&x.coefficient, &y.coefficient)
            })
}

fn hash_polynomial<C: Coeff, H: Hasher>(poly: &Polynomial<C>, state: &mut H) {
    poly.num_variables().hash(state);
    poly.degree().hash(state);
    hash_series(poly.constant(), state);
    poly.num_monomials().hash(state);
    for m in poly.monomials() {
        m.variables.hash(state);
        hash_series(&m.coefficient, state);
    }
}

/// Unified evaluation inputs: one input-series vector or a whole batch.
///
/// Built from references — evaluation never consumes the inputs — with
/// `From` conversions so call sites can pass `&inputs` directly.
#[derive(Debug, Clone, Copy)]
pub enum Inputs<'a, C> {
    /// One vector of input series (one series per variable).
    Single(&'a [Series<C>]),
    /// Many independent input vectors evaluated in one arena with shared
    /// launches (single-polynomial plans produce a [`BatchEvaluation`],
    /// system plans a [`SystemBatchEvaluation`]).
    Batch(&'a [Vec<Series<C>>]),
}

impl<'a, C> From<&'a [Series<C>]> for Inputs<'a, C> {
    fn from(inputs: &'a [Series<C>]) -> Self {
        Inputs::Single(inputs)
    }
}

impl<'a, C> From<&'a Vec<Series<C>>> for Inputs<'a, C> {
    fn from(inputs: &'a Vec<Series<C>>) -> Self {
        Inputs::Single(inputs)
    }
}

impl<'a, C> From<&'a [Vec<Series<C>>]> for Inputs<'a, C> {
    fn from(batch: &'a [Vec<Series<C>>]) -> Self {
        Inputs::Batch(batch)
    }
}

impl<'a, C> From<&'a Vec<Vec<Series<C>>>> for Inputs<'a, C> {
    fn from(batch: &'a Vec<Vec<Series<C>>>) -> Self {
        Inputs::Batch(batch)
    }
}

/// Unified evaluation result: the variant matches the source variant and
/// the input shape (`Single` source × `Single` inputs → `Single`, `Single`
/// source × `Batch` inputs → `Batch`, `System` source × `Single` inputs →
/// `System`, `System` source × `Batch` inputs → `SystemBatch`).  All four
/// come out of the same runner; they differ only in how the equations of
/// each staged instance are read back.
#[derive(Debug, Clone)]
pub enum EvalOutput<C> {
    /// Value and gradient of one polynomial at one input vector.
    Single(Evaluation<C>),
    /// Values and gradients of one polynomial at every batch instance.
    Batch(BatchEvaluation<C>),
    /// All equation values and the full Jacobian of a system.
    System(SystemEvaluation<C>),
    /// All values and Jacobians of a system at every batch instance.
    SystemBatch(SystemBatchEvaluation<C>),
}

impl<C: Coeff> EvalOutput<C> {
    /// The kernel timings of the run, whichever variant it is.  The
    /// [`KernelTimings::pool_rendezvous`] field carries the pool rendezvous
    /// this evaluation's own launches paid, exact even while other threads
    /// evaluate on the same pool.
    pub fn timings(&self) -> &KernelTimings {
        match self {
            EvalOutput::Single(e) => &e.timings,
            EvalOutput::Batch(e) => &e.timings,
            EvalOutput::System(e) => &e.timings,
            EvalOutput::SystemBatch(e) => &e.timings,
        }
    }

    pub(crate) fn timings_mut(&mut self) -> &mut KernelTimings {
        match self {
            EvalOutput::Single(e) => &mut e.timings,
            EvalOutput::Batch(e) => &mut e.timings,
            EvalOutput::System(e) => &mut e.timings,
            EvalOutput::SystemBatch(e) => &mut e.timings,
        }
    }

    /// The single evaluation, if this is the `Single` variant.
    pub fn as_single(&self) -> Option<&Evaluation<C>> {
        match self {
            EvalOutput::Single(e) => Some(e),
            _ => None,
        }
    }

    /// The batch evaluation, if this is the `Batch` variant.
    pub fn as_batch(&self) -> Option<&BatchEvaluation<C>> {
        match self {
            EvalOutput::Batch(e) => Some(e),
            _ => None,
        }
    }

    /// The system evaluation, if this is the `System` variant.
    pub fn as_system(&self) -> Option<&SystemEvaluation<C>> {
        match self {
            EvalOutput::System(e) => Some(e),
            _ => None,
        }
    }

    /// The batched system evaluation, if this is the `SystemBatch` variant.
    pub fn as_system_batch(&self) -> Option<&SystemBatchEvaluation<C>> {
        match self {
            EvalOutput::SystemBatch(e) => Some(e),
            _ => None,
        }
    }

    /// Unwraps the `Single` variant.
    ///
    /// # Panics
    ///
    /// Panics when the output is not a single evaluation.
    pub fn into_single(self) -> Evaluation<C> {
        match self {
            EvalOutput::Single(e) => e,
            _ => panic!("expected a single evaluation output"),
        }
    }

    /// Unwraps the `Batch` variant.
    ///
    /// # Panics
    ///
    /// Panics when the output is not a batch evaluation.
    pub fn into_batch(self) -> BatchEvaluation<C> {
        match self {
            EvalOutput::Batch(e) => e,
            _ => panic!("expected a batch evaluation output"),
        }
    }

    /// Unwraps the `System` variant.
    ///
    /// # Panics
    ///
    /// Panics when the output is not a system evaluation.
    pub fn into_system(self) -> SystemEvaluation<C> {
        match self {
            EvalOutput::System(e) => e,
            _ => panic!("expected a system evaluation output"),
        }
    }

    /// Unwraps the `SystemBatch` variant.
    ///
    /// # Panics
    ///
    /// Panics when the output is not a batched system evaluation.
    pub fn into_system_batch(self) -> SystemBatchEvaluation<C> {
        match self {
            EvalOutput::SystemBatch(e) => e,
            _ => panic!("expected a batched system evaluation output"),
        }
    }

    /// True when both outputs are the same variant and every series — value,
    /// gradient, Jacobian — is **bit-for-bit** identical (timings are
    /// ignored).  Unlike float `PartialEq`, equal-bit NaNs compare equal and
    /// `-0.0` differs from `0.0`, so this really is the bitwise-identity
    /// check the pooled-vs-sequential guarantee is stated in terms of.
    pub fn bitwise_eq(&self, other: &EvalOutput<C>) -> bool {
        let eval_eq = |a: &Evaluation<C>, b: &Evaluation<C>| {
            series_bits_eq(&a.value, &b.value) && series_slice_bits_eq(&a.gradient, &b.gradient)
        };
        let system_eq = |a: &SystemEvaluation<C>, b: &SystemEvaluation<C>| {
            series_slice_bits_eq(&a.values, &b.values)
                && a.jacobian.len() == b.jacobian.len()
                && a.jacobian
                    .iter()
                    .zip(b.jacobian.iter())
                    .all(|(x, y)| series_slice_bits_eq(x, y))
        };
        match (self, other) {
            (EvalOutput::Single(a), EvalOutput::Single(b)) => eval_eq(a, b),
            (EvalOutput::Batch(a), EvalOutput::Batch(b)) => {
                a.instances.len() == b.instances.len()
                    && a.instances
                        .iter()
                        .zip(b.instances.iter())
                        .all(|(x, y)| eval_eq(x, y))
            }
            (EvalOutput::System(a), EvalOutput::System(b)) => system_eq(a, b),
            (EvalOutput::SystemBatch(a), EvalOutput::SystemBatch(b)) => {
                a.instances.len() == b.instances.len()
                    && a.instances
                        .iter()
                        .zip(b.instances.iter())
                        .all(|(x, y)| system_eq(x, y))
            }
            _ => false,
        }
    }
}

/// Structure counts of a compiled plan, for reports and capacity planning.
/// All fields derive from the job schedule alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Number of equations (1 for a single-polynomial plan).
    pub equations: usize,
    /// Number of variables.
    pub num_variables: usize,
    /// Truncation degree.
    pub degree: usize,
    /// Convolution layers (kernel launches per layered evaluation).
    pub convolution_layers: usize,
    /// Addition layers.
    pub addition_layers: usize,
    /// Total convolution jobs.
    pub convolution_jobs: usize,
    /// Total addition jobs.
    pub addition_jobs: usize,
    /// Unique monomials after merging repeats (same variables, same
    /// coefficient) within and across equations.
    pub unique_monomials: usize,
    /// Total monomial instances across all equations.
    pub total_monomials: usize,
}

/// An owned, compiled evaluation plan: the polynomial source, its job
/// schedule and layout, a handle to the worker pool it evaluates on and the
/// workspaces its runs park between them.
///
/// Plans are `'static`, `Send + Sync` and handed out as [`Arc<Plan>`] by
/// [`Engine::compile`]: clone the `Arc` freely, evaluate from as many
/// threads as you like, keep it alive after the engine is gone.  A plan's
/// parked workspaces are sized to it and freed when it is dropped.
pub struct Plan<C: Coeff> {
    source: PolySource<C>,
    pub(crate) schedule: Schedule,
    options: EvalOptions,
    pool: Arc<WorkerPool>,
    workspaces: ParkedWorkspaces<C>,
}

impl<C: Coeff> Plan<C> {
    fn build(source: PolySource<C>, mut options: EvalOptions, pool: Arc<WorkerPool>) -> Self {
        let schedule = Schedule::build(source.equations());
        // Resolve `Auto` once, at compile time, against the measured
        // crossover table for this (precision, degree) pair; evaluation
        // never re-decides per job.  The plan cache keys on the *requested*
        // options plus the structural hash (which covers the degree), so
        // Auto plans of different degrees never collide.
        if options.kernel == crate::ConvolutionKernel::Auto {
            options.kernel = crate::crossover::auto_kernel(C::component_limbs(), source.degree());
        }
        // Same one-shot resolution for the SIMD mode: `Auto` collapses to the
        // `PSMD_SIMD` override or the detected lane width here, so evaluation
        // (and the plan's warm workspaces) see a concrete width.
        options.simd = options.simd.resolved();
        Self {
            source,
            schedule,
            options,
            workspaces: ParkedWorkspaces::new(pool.parallelism()),
            pool,
        }
    }

    /// The polynomial source the plan owns.
    pub fn source(&self) -> &PolySource<C> {
        &self.source
    }

    /// The options the plan was compiled with.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// The compiled job schedule.  Always `Some`: a single polynomial
    /// compiles as the one-equation system, so every plan has one merged
    /// schedule.
    pub fn schedule(&self) -> Option<&Schedule> {
        Some(&self.schedule)
    }

    /// Structure counts of the compiled schedule.  Cheap: reads the job
    /// schedule only.
    pub fn stats(&self) -> PlanStats {
        let s = &self.schedule;
        PlanStats {
            equations: self.source.num_equations(),
            num_variables: self.source.num_variables(),
            degree: self.source.degree(),
            convolution_layers: s.convolution_layers.len(),
            addition_layers: s.addition_layers.len(),
            convolution_jobs: s.convolution_jobs(),
            addition_jobs: s.addition_jobs(),
            unique_monomials: s.unique_monomials(),
            total_monomials: s.total_monomials(),
        }
    }

    /// Starts an evaluation request — **the** evaluation entry point.
    ///
    /// The returned [`EvalRequest`] runs on the engine's worker pool with a
    /// fresh output by default, through a workspace parked in this plan;
    /// its stages opt into output reuse and sequential execution:
    ///
    /// * [`EvalRequest::into`] — write into an existing [`EvalOutput`],
    ///   reusing its buffers (the zero-allocation steady state);
    /// * [`EvalRequest::sequential`] — run on the calling thread only,
    ///   bitwise identical to the pooled run;
    /// * [`EvalRequest::run`] — execute.
    ///
    /// ```
    /// # use psmd_core::{Engine, Monomial, Polynomial};
    /// # use psmd_multidouble::Dd;
    /// # use psmd_series::Series;
    /// # let d = 2;
    /// # let c = |x: f64| Series::constant(Dd::from_f64(x), d);
    /// # let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
    /// # let z = vec![
    /// #     Series::<Dd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
    /// #     Series::<Dd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
    /// # ];
    /// # let engine = Engine::builder().threads(0).build();
    /// # let plan = engine.compile(p);
    /// let mut out = plan.request(&z).run();          // simple form
    /// plan.request(&z).into(&mut out).run();         // output reuse
    /// ```
    ///
    /// Running the request panics when the input shape does not match the
    /// source (wrong variable count or degree).
    pub fn request<'r>(&'r self, inputs: impl Into<Inputs<'r, C>>) -> EvalRequest<'r, C> {
        EvalRequest {
            plan: self,
            inputs: inputs.into(),
            parallel: true,
            cancel: None,
        }
    }

    /// An empty output of the variant the inputs will produce.
    fn empty_output(&self, inputs: &Inputs<'_, C>) -> EvalOutput<C> {
        match (&self.source, inputs) {
            (PolySource::Single(_), Inputs::Single(_)) => EvalOutput::Single(Evaluation::empty()),
            (PolySource::Single(_), Inputs::Batch(_)) => {
                EvalOutput::Batch(BatchEvaluation::empty())
            }
            (PolySource::System(_), Inputs::Single(_)) => {
                EvalOutput::System(SystemEvaluation::empty())
            }
            (PolySource::System(_), Inputs::Batch(_)) => {
                EvalOutput::SystemBatch(SystemBatchEvaluation::empty())
            }
        }
    }

    /// Replaces `out` with an empty output of the right variant when its
    /// current variant does not match what the run will produce (the
    /// matching-variant steady state keeps every buffer).
    fn reshape_output(&self, inputs: &Inputs<'_, C>, out: &mut EvalOutput<C>) {
        let matches = matches!(
            (&self.source, inputs, &*out),
            (
                PolySource::Single(_),
                Inputs::Single(_),
                EvalOutput::Single(_)
            ) | (
                PolySource::Single(_),
                Inputs::Batch(_),
                EvalOutput::Batch(_)
            ) | (
                PolySource::System(_),
                Inputs::Single(_),
                EvalOutput::System(_)
            ) | (
                PolySource::System(_),
                Inputs::Batch(_),
                EvalOutput::SystemBatch(_)
            )
        );
        if !matches {
            *out = self.empty_output(inputs);
        }
    }

    /// Evaluates `inputs` into `out` — the one runner behind every request,
    /// serve window, tracker sweep and Newton step, and the one place a run
    /// checks a workspace out of this plan's pool and parks it again.  A
    /// sequential run launches on a pool without workers: every launch runs
    /// inline on this thread as participant 0, and building that pool
    /// allocates nothing.
    ///
    /// When `cancel` trips mid-run, extraction is skipped (`out`'s buffers
    /// are left as they were) and `out`'s timings are flagged `cancelled`.
    /// A run that panics drops its workspace instead of parking it.
    fn run_into(
        &self,
        inputs: Inputs<'_, C>,
        parallel: bool,
        cancel: Option<&CancelToken>,
        out: &mut EvalOutput<C>,
    ) {
        let wall = Stopwatch::start();
        let inline;
        let pool = if parallel {
            self.pool.as_ref()
        } else {
            inline = WorkerPool::new(0);
            &inline
        };
        let mut timings = KernelTimings::new();
        let mut ws = self.workspaces.checkout();
        match stage_and_execute(self, inputs, pool, cancel, &mut ws, &mut timings) {
            Some(arena) => extract_output(&self.schedule, arena, out),
            None => timings.cancelled = true,
        }
        self.workspaces.park(ws);
        timings.wall_clock = wall.elapsed();
        *out.timings_mut() = timings;
    }
}

/// A configured evaluation: what [`Plan::request`] returns.
///
/// The builder starts from the defaults — fresh output, parallel execution
/// on the engine's pool — and each stage opts into output reuse or
/// sequential execution.  [`EvalRequest::run`] executes and returns the
/// output; binding an output buffer first with [`EvalRequest::into`] yields
/// a [`BoundEvalRequest`] whose `run` writes in place instead.
#[must_use = "an evaluation request does nothing until `run()`"]
pub struct EvalRequest<'r, C: Coeff> {
    plan: &'r Plan<C>,
    inputs: Inputs<'r, C>,
    parallel: bool,
    cancel: Option<&'r CancelToken>,
}

impl<'r, C: Coeff> EvalRequest<'r, C> {
    /// Runs on the calling thread only — the correctness reference for the
    /// parallel path, bitwise identical to it.
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Arms the run with a cooperative [`CancelToken`]: if the token trips
    /// mid-run, the schedule is abandoned at the next block boundary, the
    /// output's [`KernelTimings::cancelled`] flag is set and its value
    /// buffers are left unspecified (discard them).  The token is polled
    /// **before each block** — one relaxed atomic load — so arming an
    /// uncancelled run costs nothing measurable and stays bitwise identical
    /// to an unarmed run.  The workspace is parked clean either way; the
    /// next evaluation through it is correct and allocation-free.
    ///
    /// ```
    /// # use psmd_core::{CancelToken, Engine, Monomial, Polynomial};
    /// # use psmd_multidouble::Dd;
    /// # use psmd_series::Series;
    /// # let d = 2;
    /// # let c = |x: f64| Series::constant(Dd::from_f64(x), d);
    /// # let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
    /// # let z: Vec<Series<Dd>> = vec![Series::zero(d); 2];
    /// # let engine = Engine::builder().threads(0).build();
    /// # let plan = engine.compile(p);
    /// let token = CancelToken::new();
    /// token.cancel(); // trip before the run: every block is skipped
    /// let out = plan.request(&z).cancel(&token).run();
    /// assert!(out.timings().cancelled);
    /// ```
    pub fn cancel(mut self, token: &'r CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Binds an existing [`EvalOutput`] for the result, reusing its
    /// buffers.  With a warm output of the same shape (the usual steady
    /// state: same plan, same input shape) the whole run — staging,
    /// kernels, extraction — performs **zero heap allocations**;
    /// `tests/workspace_alloc.rs` enforces this with a counting allocator.
    /// An output of a different shape (or variant) is reshaped in place.
    pub fn into(self, out: &'r mut EvalOutput<C>) -> BoundEvalRequest<'r, C> {
        BoundEvalRequest { request: self, out }
    }

    /// Executes the request and returns a freshly built output.
    ///
    /// # Panics
    ///
    /// Panics when the input shape does not match the source (wrong
    /// variable count or degree).
    pub fn run(self) -> EvalOutput<C> {
        let mut out = self.plan.empty_output(&self.inputs);
        self.plan
            .run_into(self.inputs, self.parallel, self.cancel, &mut out);
        out
    }
}

/// An [`EvalRequest`] bound to a caller-owned output buffer (see
/// [`EvalRequest::into`]); its [`run`](BoundEvalRequest::run) writes in
/// place instead of returning a fresh output.
#[must_use = "an evaluation request does nothing until `run()`"]
pub struct BoundEvalRequest<'r, C: Coeff> {
    request: EvalRequest<'r, C>,
    out: &'r mut EvalOutput<C>,
}

impl<'r, C: Coeff> BoundEvalRequest<'r, C> {
    /// Runs on the calling thread only (see [`EvalRequest::sequential`]).
    pub fn sequential(mut self) -> Self {
        self.request.parallel = false;
        self
    }

    /// Arms the run with a cooperative [`CancelToken`] (see
    /// [`EvalRequest::cancel`]).
    pub fn cancel(mut self, token: &'r CancelToken) -> Self {
        self.request.cancel = Some(token);
        self
    }

    /// Executes the request into the bound output.
    ///
    /// # Panics
    ///
    /// Panics in the same cases as [`EvalRequest::run`].
    pub fn run(self) {
        let EvalRequest {
            plan,
            inputs,
            parallel,
            cancel,
        } = self.request;
        plan.reshape_output(&inputs, self.out);
        plan.run_into(inputs, parallel, cancel, self.out);
    }
}

/// Statistics of the engine's plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans currently cached.
    pub entries: usize,
    /// Maximum number of cached plans (0 disables caching).
    pub capacity: usize,
    /// Compiles answered from the cache.
    pub hits: u64,
    /// Compiles that built a new plan.
    pub misses: u64,
    /// Plans displaced from the cache: LRU evictions to make room, plus
    /// replacements of a slot by a hash-colliding or concurrently compiled
    /// source.
    pub evictions: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    type_id: TypeId,
    structural_hash: u64,
    options: EvalOptions,
}

struct CacheEntry {
    plan: Arc<dyn Any + Send + Sync>,
    last_used: u64,
}

struct PlanCache {
    entries: HashMap<PlanKey, CacheEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    options: EvalOptions,
    threads: Option<usize>,
    plan_cache_capacity: usize,
}

impl EngineBuilder {
    /// The default configuration: direct kernel, auto-detected SIMD lanes,
    /// `PSMD_THREADS`/hardware-sized pool, 64 cached plans.
    pub fn new() -> Self {
        Self {
            options: EvalOptions::default(),
            threads: None,
            plan_cache_capacity: 64,
        }
    }

    /// Sets the convolution kernel variant of compiled plans.
    pub fn kernel(mut self, kernel: crate::ConvolutionKernel) -> Self {
        self.options.kernel = kernel;
        self
    }

    /// Sets the SIMD lane mode of compiled plans ([`crate::SimdMode::Auto`] by
    /// default: the `PSMD_SIMD` override, else the widest lane width the
    /// host supports).  Every evaluation of a direct-kernel plan — single
    /// inputs, batches, systems and system batches — packs the convolution
    /// jobs of each layer into lane panels of that width.
    pub fn simd(mut self, simd: crate::SimdMode) -> Self {
        self.options.simd = simd;
        self
    }

    /// Sets both evaluation knobs at once.
    pub fn options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the number of worker threads of the engine's pool (the launching
    /// thread always participates, so 0 degenerates to sequential
    /// execution).  Defaults to [`WorkerPool::default_worker_threads`]
    /// (the `PSMD_THREADS` override, else hardware parallelism minus one).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the plan-cache capacity (0 disables plan caching).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan_cache_capacity = capacity;
        self
    }

    /// Builds the engine, spawning its worker pool.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration — see
    /// [`EngineBuilder::try_build`] for the fallible form services should
    /// use.
    pub fn build(self) -> Engine {
        match self.try_build() {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the engine, returning a [`crate::Error`] instead of panicking
    /// on an invalid configuration: a non-integer `PSMD_THREADS` override,
    /// an unrecognized `PSMD_SIMD` override, a forced SIMD lane width
    /// outside [`crate::SimdMode::SUPPORTED_WIDTHS`], or a thread count beyond
    /// [`EngineBuilder::MAX_WORKER_THREADS`] (spawning an absurd number of
    /// OS threads is always a configuration bug, and a long-lived service
    /// should refuse it instead of dying mid-spawn).
    pub fn try_build(self) -> Result<Engine, Error> {
        let threads = match self.threads {
            Some(threads) => threads,
            None => match WorkerPool::try_threads_from_env() {
                Ok(Some(threads)) => threads,
                Ok(None) => WorkerPool::default_worker_threads(),
                Err(message) => return Err(Error::config(message)),
            },
        };
        // Surface a malformed PSMD_SIMD override at build time, mirroring
        // PSMD_THREADS: services fail fast on misconfiguration instead of
        // panicking inside the first plan compile.
        if let Err(message) = crate::SimdMode::try_from_env() {
            return Err(Error::config(message));
        }
        self.options.simd.try_resolved().map_err(Error::config)?;
        if threads > Self::MAX_WORKER_THREADS {
            return Err(Error::config(format!(
                "{threads} worker threads requested; the supported maximum is {}",
                Self::MAX_WORKER_THREADS
            )));
        }
        Ok(Engine {
            pool: Arc::new(WorkerPool::new(threads)),
            options: self.options,
            cache: Mutex::new(PlanCache::new(self.plan_cache_capacity)),
        })
    }
}

impl EngineBuilder {
    /// The largest worker-thread count [`EngineBuilder::try_build`]
    /// accepts.  Far beyond any real machine; a request above it is treated
    /// as a configuration error rather than an instruction to spawn
    /// thousands of OS threads.
    pub const MAX_WORKER_THREADS: usize = 4096;
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The owned evaluation engine: a worker pool, default [`EvalOptions`] and a
/// structural plan cache behind one `Send + Sync` handle.
///
/// Compile once, evaluate many times, from as many threads as you like —
/// see the [module documentation](self) for the full picture.
pub struct Engine {
    pool: Arc<WorkerPool>,
    options: EvalOptions,
    cache: Mutex<PlanCache>,
}

impl Engine {
    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// An engine with the default configuration.
    pub fn new() -> Self {
        EngineBuilder::new().build()
    }

    /// The engine's worker pool (shared with every plan it compiles).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Total pool rendezvous performed by this engine's worker pool so far
    /// — the launch counter the serving layer's coalescing proof is stated
    /// in terms of: fewer rendezvous (and fewer service-level launches)
    /// than requests means requests shared launches.  See
    /// [`WorkerPool::rendezvous_count`] for what counts as a rendezvous.
    pub fn rendezvous_count(&self) -> usize {
        self.pool.rendezvous_count()
    }

    /// The default evaluation options of compiled plans.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// Compiles a polynomial source into an owned, shareable plan using the
    /// engine's default options.  Repeat compiles of a structurally
    /// identical source return the cached `Arc` without rebuilding the
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid source — see
    /// [`Engine::try_compile`] for the fallible form services should use.
    pub fn compile<C: Coeff>(&self, source: impl Into<PolySource<C>>) -> Arc<Plan<C>> {
        self.compile_with_options(source, self.options)
    }

    /// Like [`Engine::compile`], but with per-plan option overrides; plans
    /// compiled from the same source with different options coexist in the
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid source — see
    /// [`Engine::try_compile_with_options`].
    pub fn compile_with_options<C: Coeff>(
        &self,
        source: impl Into<PolySource<C>>,
        options: EvalOptions,
    ) -> Arc<Plan<C>> {
        match self.try_compile_with_options(source, options) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Compiles a polynomial source with the engine's default options,
    /// returning a [`crate::Error`] instead of panicking when the source is
    /// structurally invalid (empty system, mismatched variable counts or
    /// degrees across equations, out-of-range variable indices) — the
    /// compile path for services accepting sources over a wire.  An
    /// unsupported forced SIMD lane width in the options is an
    /// [`Error::Config`].
    pub fn try_compile<C: Coeff>(
        &self,
        source: impl Into<PolySource<C>>,
    ) -> Result<Arc<Plan<C>>, Error> {
        self.try_compile_with_options(source, self.options)
    }

    /// Like [`Engine::try_compile`], but with per-plan option overrides.
    pub fn try_compile_with_options<C: Coeff>(
        &self,
        source: impl Into<PolySource<C>>,
        options: EvalOptions,
    ) -> Result<Arc<Plan<C>>, Error> {
        let source = source.into();
        validate_source(&source)?;
        options.simd.try_resolved().map_err(Error::config)?;
        let key = PlanKey {
            type_id: TypeId::of::<C>(),
            structural_hash: source.structural_hash(),
            options,
        };
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.entries.get_mut(&key) {
                if let Ok(plan) = Arc::clone(&entry.plan).downcast::<Plan<C>>() {
                    // A structural-hash hit is confirmed with bit-level
                    // equality before reuse, so hash collisions cannot alias
                    // plans — and NaN coefficients (where `PartialEq` would
                    // always say "different") still hit the cache.
                    if plan.source().bitwise_eq(&source) {
                        entry.last_used = tick;
                        cache.hits += 1;
                        return Ok(plan);
                    }
                }
            }
            cache.misses += 1;
        }
        // Compile outside the lock: schedule construction is the expensive
        // part and must not serialize concurrent compiles of different
        // sources.
        let plan = Arc::new(Plan::build(source, options, Arc::clone(&self.pool)));
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if cache.capacity > 0 {
            if cache.entries.len() >= cache.capacity && !cache.entries.contains_key(&key) {
                // Evict the least-recently-used plan (callers holding its
                // Arc keep it alive; only the cache slot is reclaimed).
                if let Some(lru) = cache
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                {
                    cache.entries.remove(&lru);
                    cache.evictions += 1;
                }
            }
            let tick = cache.tick;
            let displaced = cache
                .entries
                .insert(
                    key,
                    CacheEntry {
                        plan: Arc::clone(&plan) as Arc<dyn Any + Send + Sync>,
                        last_used: tick,
                    },
                )
                .is_some();
            if displaced {
                // A hash-colliding source (or a concurrent compile of the
                // same source) occupied the slot: its plan is displaced and
                // counted, so cache churn is visible in the stats.
                cache.evictions += 1;
            }
        }
        Ok(plan)
    }

    /// Plan-cache statistics (entries, hits, misses, evictions).
    pub fn cache_stats(&self) -> PlanCacheStats {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        PlanCacheStats {
            entries: cache.entries.len(),
            capacity: cache.capacity,
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
        }
    }

    /// Drops every cached plan (outstanding `Arc<Plan>` handles stay valid).
    pub fn clear_plan_cache(&self) {
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .clear();
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// Structural validation behind [`Engine::try_compile`]: rejects sources
/// the schedule builder would either panic on or silently mis-compile.
fn validate_source<C: Coeff>(source: &PolySource<C>) -> Result<(), Error> {
    fn validate_poly<C: Coeff>(p: &Polynomial<C>, equation: Option<usize>) -> Result<(), Error> {
        let context = |msg: String| match equation {
            Some(i) => Error::source(format!("equation {i}: {msg}")),
            None => Error::source(msg),
        };
        for (i, m) in p.monomials().iter().enumerate() {
            if let Some(&v) = m.variables.iter().find(|&&v| v >= p.num_variables()) {
                return Err(context(format!(
                    "monomial {i} references variable {v} but the polynomial has {} variables",
                    p.num_variables()
                )));
            }
        }
        Ok(())
    }
    match source {
        PolySource::Single(p) => validate_poly(p, None),
        PolySource::System(ps) => {
            let Some(first) = ps.first() else {
                return Err(Error::source(
                    "a system source needs at least one polynomial",
                ));
            };
            let (nv, d) = (first.num_variables(), first.degree());
            for (i, p) in ps.iter().enumerate() {
                if p.num_variables() != nv || p.degree() != d {
                    return Err(Error::source(format!(
                        "equation {i} has {} variables at degree {} but equation 0 has {nv} \
                         variables at degree {d}; a system shares one variable set and degree",
                        p.num_variables(),
                        p.degree()
                    )));
                }
                validate_poly(p, Some(i))?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_inputs, random_polynomial};
    use crate::monomial::Monomial;
    use crate::{ConvolutionKernel, SimdMode};
    use psmd_multidouble::{Dd, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coeff(c: f64, d: usize) -> Series<Qd> {
        Series::constant(Qd::from_f64(c), d)
    }

    fn paper_example(d: usize) -> Polynomial<Qd> {
        Polynomial::new(
            6,
            coeff(0.5, d),
            vec![
                Monomial::new(coeff(1.0, d), vec![0, 2, 5]),
                Monomial::new(coeff(2.0, d), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0, d), vec![1, 2, 3]),
            ],
        )
    }

    fn random_z(n: usize, d: usize, seed: u64) -> Vec<Series<Qd>> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_inputs::<Qd, _>(n, d, &mut rng)
    }

    #[test]
    fn engine_and_plan_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Plan<Qd>>();
        assert_send_sync::<Arc<Plan<Dd>>>();
        assert_send_sync::<EvalOutput<Qd>>();
    }

    #[test]
    fn single_plan_evaluates_single_and_batch_inputs() {
        let d = 4;
        let p = paper_example(d);
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(p);
        let z = random_z(6, d, 3);
        let single = plan.request(Inputs::Single(&z)).run().into_single();
        let sequential = plan.request(&z).sequential().run().into_single();
        assert_eq!(single.value, sequential.value);
        assert_eq!(single.gradient, sequential.gradient);
        let batch: Vec<Vec<Series<Qd>>> = (0..3).map(|i| random_z(6, d, 10 + i)).collect();
        let batched = plan.request(&batch).run().into_batch();
        assert_eq!(batched.len(), 3);
        for (inputs, got) in batch.iter().zip(batched.instances.iter()) {
            let want = plan.request(inputs).sequential().run().into_single();
            assert_eq!(got.value, want.value);
            assert_eq!(got.gradient, want.gradient);
        }
    }

    #[test]
    fn system_plan_produces_values_and_jacobian() {
        let d = 3;
        let f1 = paper_example(d);
        let mut rng = StdRng::seed_from_u64(5);
        let f2: Polynomial<Qd> = random_polynomial(6, 4, 3, d, &mut rng);
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(vec![f1, f2]);
        let z = random_z(6, d, 9);
        let out = plan.request(&z).run().into_system();
        assert_eq!(out.values.len(), 2);
        assert_eq!(out.jacobian.len(), 2);
        assert_eq!(out.jacobian[0].len(), 6);
        let seq = plan.request(&z).sequential().run().into_system();
        assert_eq!(out.values, seq.values);
        assert_eq!(out.jacobian, seq.jacobian);
    }

    #[test]
    fn system_plan_evaluates_batched_inputs_bitwise_like_per_instance() {
        let d = 3;
        let f1 = paper_example(d);
        let mut rng = StdRng::seed_from_u64(5);
        let f2: Polynomial<Qd> = random_polynomial(6, 4, 3, d, &mut rng);
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(vec![f1, f2]);
        let batch: Vec<Vec<Series<Qd>>> = (0..4).map(|i| random_z(6, d, 20 + i)).collect();
        let batched = plan.request(&batch).run().into_system_batch();
        assert_eq!(batched.len(), batch.len());
        for (z, got) in batch.iter().zip(batched.instances.iter()) {
            let want = plan.request(z).sequential().run().into_system();
            // Same merged schedule, same arithmetic, same order: bitwise
            // identical to the single-instance system evaluation.
            assert_eq!(got.values, want.values);
            assert_eq!(got.jacobian, want.jacobian);
        }
        // Launch counts equal the merged layer counts — independent of the
        // batch size — with batch × jobs blocks per launch.
        let schedule = plan.schedule().expect("compiled schedule");
        assert_eq!(
            batched.timings.convolution_launches,
            schedule.convolution_layers.len()
        );
        assert_eq!(
            batched.timings.convolution_blocks,
            batch.len() * schedule.convolution_jobs()
        );
    }

    #[test]
    fn empty_system_batch_returns_no_instances() {
        let engine = Engine::builder().threads(0).build();
        let plan = engine.compile(vec![paper_example(2)]);
        let result = plan
            .request(&Vec::<Vec<Series<Qd>>>::new())
            .sequential()
            .run()
            .into_system_batch();
        assert!(result.is_empty());
        assert_eq!(result.timings.convolution_launches, 0);
    }

    #[test]
    fn plan_cache_hits_on_structural_equality() {
        let d = 3;
        let engine = Engine::builder().threads(0).build();
        let a = engine.compile(paper_example(d));
        // A fresh but structurally identical polynomial hits the cache.
        let b = engine.compile(paper_example(d));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // Different coefficients are a different plan.
        let mut other = paper_example(d);
        other = Polynomial::new(
            other.num_variables(),
            coeff(0.25, d),
            other.monomials().to_vec(),
        );
        let c = engine.compile(other);
        assert!(!Arc::ptr_eq(&a, &c));
        // Different options coexist with the default-options plan.
        let g = engine.compile_with_options(
            paper_example(d),
            EvalOptions::new().with_simd(SimdMode::Scalar),
        );
        assert!(!Arc::ptr_eq(&a, &g));
        assert_eq!(engine.cache_stats().entries, 3);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let d = 2;
        let engine = Engine::builder().threads(0).plan_cache_capacity(2).build();
        let mut rng = StdRng::seed_from_u64(77);
        let polys: Vec<Polynomial<Dd>> = (0..3)
            .map(|_| random_polynomial(4, 6, 3, d, &mut rng))
            .collect();
        let a = engine.compile(polys[0].clone());
        let _b = engine.compile(polys[1].clone());
        // Touch the first plan so the second becomes the LRU victim.
        let a2 = engine.compile(polys[0].clone());
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = engine.compile(polys[2].clone());
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // The surviving first plan still hits; the evicted second plan
        // recompiles as a miss (displacing the LRU survivor in turn).
        let a3 = engine.compile(polys[0].clone());
        assert!(Arc::ptr_eq(&a, &a3));
        let misses = stats.misses;
        let _b2 = engine.compile(polys[1].clone());
        assert_eq!(engine.cache_stats().misses, misses + 1);
    }

    #[test]
    fn nan_coefficients_still_hit_the_cache() {
        // PartialEq would reject NaN == NaN forever; the cache confirms
        // hash hits with bit-level equality instead, so a source with NaN
        // coefficients compiles once and then hits like any other.
        let d = 1;
        let nan_poly = || {
            Polynomial::new(
                2,
                Series::constant(Qd::from_f64(f64::NAN), d),
                vec![Monomial::new(
                    Series::constant(Qd::from_f64(2.0), d),
                    vec![0, 1],
                )],
            )
        };
        let engine = Engine::builder().threads(0).build();
        let a = engine.compile(nan_poly());
        let b = engine.compile(nan_poly());
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        // bitwise_eq on outputs likewise treats equal-bit NaNs as equal.
        let z = vec![Series::<Qd>::one(d), Series::<Qd>::one(d)];
        let x = a.request(&z).sequential().run();
        let y = b.request(&z).sequential().run();
        assert!(x.bitwise_eq(&y));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::builder().threads(0).plan_cache_capacity(0).build();
        let a = engine.compile(paper_example(2));
        let b = engine.compile(paper_example(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn plan_stats_report_the_schedule_structure() {
        let d = 2;
        let engine = Engine::builder().threads(0).build();
        let plan = engine.compile(paper_example(d));
        let stats = plan.stats();
        assert_eq!(stats.equations, 1);
        assert_eq!(stats.num_variables, 6);
        assert_eq!(stats.degree, d);
        // Equation (4): 21 convolutions, 7 additions.
        assert_eq!(stats.convolution_jobs, 21);
        assert_eq!(stats.addition_jobs, 7);
        assert_eq!(stats.unique_monomials, 3);
        assert_eq!(stats.total_monomials, 3);
    }

    #[test]
    fn request_builder_matches_every_legacy_entry_point() {
        let d = 3;
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(paper_example(d));
        let z = random_z(6, d, 31);
        let reference = plan.request(&z).run();
        // A second run through the parked workspace, output-bound and
        // sequential stages all agree bitwise with the first bare request.
        assert!(plan.request(&z).run().bitwise_eq(&reference));
        let mut out = EvalOutput::Single(Evaluation::empty());
        plan.request(&z).into(&mut out).run();
        assert!(out.bitwise_eq(&reference));
        assert!(plan.request(&z).sequential().run().bitwise_eq(&reference));
        plan.request(&z).into(&mut out).sequential().run();
        assert!(out.bitwise_eq(&reference));
    }

    #[test]
    fn try_build_rejects_absurd_thread_counts() {
        let err = Engine::builder()
            .threads(EngineBuilder::MAX_WORKER_THREADS + 1)
            .try_build()
            .err()
            .unwrap();
        assert!(matches!(err, Error::Config(_)));
        assert!(err.to_string().contains("worker threads"));
        // The panicking wrapper forwards the same message.
        assert!(Engine::builder().threads(2).try_build().is_ok());
    }

    #[test]
    fn fallible_entry_points_reject_unsupported_lane_widths() {
        for w in [0, 3, 5, 16] {
            let err = Engine::builder()
                .threads(0)
                .simd(SimdMode::ForceWidth(w))
                .try_build()
                .err()
                .expect("an unsupported width is a configuration error");
            assert!(matches!(err, Error::Config(_)), "{err:?}");
            assert!(err.message().contains("lane width"), "{err}");
            let engine = Engine::builder().threads(0).build();
            let options = EvalOptions::new().with_simd(SimdMode::ForceWidth(w));
            let err = engine
                .try_compile_with_options(paper_example(2), options)
                .err()
                .expect("an unsupported width is a configuration error");
            assert!(matches!(err, Error::Config(_)), "{err:?}");
            assert_eq!(engine.cache_stats().entries, 0);
        }
        // Every supported width (and the width-1 alias) still compiles.
        let engine = Engine::builder().threads(0).build();
        for w in [1, 2, 4, 8] {
            let options = EvalOptions::new().with_simd(SimdMode::ForceWidth(w));
            assert!(engine
                .try_compile_with_options(paper_example(2), options)
                .is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD lane width 3")]
    fn compile_panics_on_an_unsupported_lane_width() {
        let engine = Engine::builder().threads(0).build();
        let options = EvalOptions::new().with_simd(crate::SimdMode::ForceWidth(3));
        let _ = engine.compile_with_options(paper_example(2), options);
    }

    #[test]
    fn try_compile_rejects_structurally_invalid_sources() {
        let engine = Engine::builder().threads(0).build();
        // Empty system.
        let err = engine
            .try_compile(Vec::<Polynomial<Qd>>::new())
            .err()
            .unwrap();
        assert!(matches!(err, Error::Source(_)));
        // Mismatched degrees across equations.
        let err = engine
            .try_compile(vec![paper_example(2), paper_example(3)])
            .err()
            .unwrap();
        assert!(err.to_string().contains("degree"));
        // Out-of-range variable index: `Monomial`'s fields are public, so a
        // literal with unsorted indices (last in range) slips past the
        // constructors' checks — the compile-time validation still rejects
        // it.
        let d = 2;
        let bad = Polynomial::new(
            2,
            coeff(1.0, d),
            vec![Monomial {
                coefficient: coeff(1.0, d),
                variables: vec![7, 0],
            }],
        );
        let err = engine.try_compile(bad).err().unwrap();
        assert!(err.to_string().contains("variable 7"));
        // A valid source still compiles (and hits the cache on repeat).
        assert!(engine.try_compile(paper_example(d)).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid polynomial source")]
    fn compile_panics_on_invalid_source_with_the_error_message() {
        let engine = Engine::builder().threads(0).build();
        let _ = engine.compile(Vec::<Polynomial<Qd>>::new());
    }

    #[test]
    fn per_plan_option_overrides_apply() {
        let d = 4;
        let engine = Engine::builder().threads(2).build();
        let direct = engine.compile(paper_example(d));
        let fft = engine.compile_with_options(
            paper_example(d),
            EvalOptions::new().with_kernel(ConvolutionKernel::Fft),
        );
        assert_eq!(direct.options().kernel, ConvolutionKernel::Direct);
        assert_eq!(fft.options().kernel, ConvolutionKernel::Fft);
        let z = random_z(6, d, 21);
        let a = direct.request(&z).run().into_single();
        let b = fft.request(&z).run().into_single();
        // Different kernels round differently but agree to precision.
        assert!(a.max_difference(&b) < 1e-55);
    }
}
