//! Sweep drivers: measured CPU runs and modeled GPU runs for the paper's
//! tables and figures.
//!
//! A *measured* run compiles the polynomial into an engine
//! [`AnyPlan`](psmd_core::AnyPlan) and
//! executes it on the engine's worker pool, reporting the same four times
//! the paper reports (convolution kernels, addition kernels, their sum, wall
//! clock).  A *modeled* run feeds the launch structure of the schedule into
//! the analytic device model of `psmd-device` and reports the predicted
//! times for one of the paper's five GPUs.
//!
//! Every measured driver is **value-level**: the precision is a runtime
//! [`Precision`] argument dispatched through the engine's precision-erased
//! plans, not a monomorphization macro at each call site.

pub use crate::polynomials::Scale;
use crate::polynomials::TestPolynomial;
use psmd_core::{workload_shape, Engine, Polynomial, Schedule};
use psmd_device::{model_evaluation, GpuSpec, WorkloadShape};
use psmd_multidouble::{CostModel, Md, Precision};
use psmd_runtime::KernelTimings;
use std::collections::HashMap;
use std::time::Instant;

/// One row of a timing table: the four times the paper reports, in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimingRow {
    /// Sum of all convolution kernel times.
    pub convolution_ms: f64,
    /// Sum of all addition kernel times.
    pub addition_ms: f64,
    /// Wall clock of the whole evaluation.
    pub wall_ms: f64,
}

impl TimingRow {
    /// Sum of convolution and addition kernel times.
    pub fn sum_ms(&self) -> f64 {
        self.convolution_ms + self.addition_ms
    }

    /// Percentage of the wall clock spent inside kernels (Figure 4).
    pub fn kernel_percentage(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            100.0 * self.sum_ms() / self.wall_ms
        }
    }
}

impl From<&KernelTimings> for TimingRow {
    fn from(t: &KernelTimings) -> Self {
        TimingRow {
            convolution_ms: t.convolution_ms(),
            addition_ms: t.addition_ms(),
            wall_ms: t.wall_clock_ms(),
        }
    }
}

/// Caches the launch structures of the full-scale test polynomials so that
/// modeled sweeps over many degrees and precisions stay cheap (the structure
/// does not depend on the degree or the precision).
#[derive(Default)]
pub struct ShapeCache {
    shapes: HashMap<&'static str, WorkloadShape>,
}

impl ShapeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The launch structure of a test polynomial at full paper scale, with
    /// the degree field set to `degree`.
    pub fn shape(&mut self, poly: TestPolynomial, degree: usize) -> WorkloadShape {
        let entry = self.shapes.entry(poly.label()).or_insert_with(|| {
            // The structure is independent of the coefficient values and of
            // the truncation degree, so build it once at degree 0 in
            // double-double.
            let p: Polynomial<Md<2>> = poly.build(0, 1);
            let schedule = Schedule::build(std::slice::from_ref(&p));
            workload_shape(&schedule)
        });
        let mut shape = entry.clone();
        shape.degree = degree;
        shape
    }
}

/// Models one run of a test polynomial on a GPU.
pub fn modeled_run(
    cache: &mut ShapeCache,
    poly: TestPolynomial,
    gpu: &GpuSpec,
    precision: Precision,
    degree: usize,
    cost: CostModel,
) -> TimingRow {
    let shape = cache.shape(poly, degree);
    let m = model_evaluation(gpu, &shape, precision, cost);
    TimingRow {
        convolution_ms: m.convolution_ms,
        addition_ms: m.addition_ms,
        wall_ms: m.wall_clock_ms,
    }
}

/// Total double operations of one run (for throughput reporting).
pub fn modeled_double_ops(
    cache: &mut ShapeCache,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    cost: CostModel,
) -> f64 {
    cache.shape(poly, degree).total_double_ops(precision, cost)
}

/// Measures one run of a test polynomial on the engine at the given
/// precision: one `compile_any` (free after the first call thanks to the
/// plan cache), one evaluation on the engine's pool.
pub fn measured_run(
    engine: &Engine,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    seed: u64,
) -> TimingRow {
    let plan = engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let inputs = poly.any_inputs(precision, degree, scale, seed);
    TimingRow::from(plan.request(&inputs).run().timings())
}

/// One measured comparison of the batched engine against per-polynomial
/// launches on the same batch of inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchComparison {
    /// Number of instances in the batch.
    pub batch: usize,
    /// One pool launch per layer for the whole batch (`Inputs::Batch`).
    pub batched: TimingRow,
    /// A loop of per-instance pool evaluations (the pre-batching behavior).
    pub looped_parallel: TimingRow,
    /// A loop of single-thread evaluations (the lower bound on overhead).
    pub looped_sequential: TimingRow,
    /// Kernel launches issued by the batched run (= layers of the schedule).
    pub batched_launches: usize,
    /// Kernel launches issued by the per-instance loop (= batch × layers).
    pub looped_launches: usize,
}

/// Measures batched evaluation against per-instance evaluation of one
/// engine plan at the given precision.
pub fn batched_comparison(
    engine: &Engine,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    batch: usize,
    seed: u64,
) -> BatchComparison {
    let plan = engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let seeds: Vec<u64> = (0..batch).map(|i| seed.wrapping_add(i as u64)).collect();
    let batch_inputs = poly.any_batch_inputs(precision, degree, scale, &seeds);
    let batched_eval = plan.request(&batch_inputs).run();
    let batched = TimingRow::from(batched_eval.timings());
    let batched_launches =
        batched_eval.timings().convolution_launches + batched_eval.timings().addition_launches;
    let per_instance: Vec<_> = seeds
        .iter()
        .map(|&s| poly.any_inputs(precision, degree, scale, s))
        .collect();
    let mut looped = KernelTimings::new();
    for z in &per_instance {
        looped.merge(plan.request(z).run().timings());
    }
    let looped_launches = looped.convolution_launches + looped.addition_launches;
    let looped_parallel = TimingRow::from(&looped);
    let mut sequential = KernelTimings::new();
    for z in &per_instance {
        sequential.merge(plan.request(z).sequential().run().timings());
    }
    let looped_sequential = TimingRow::from(&sequential);
    BatchComparison {
        batch,
        batched,
        looped_parallel,
        looped_sequential,
        batched_launches,
        looped_launches,
    }
}

/// One measured comparison of the SIMD lane tier against the scalar batch
/// path at one forced lane width, on the same batch of inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimdComparison {
    /// The forced lane width of the lane run.
    pub width: usize,
    /// Number of instances in the batch.
    pub batch: usize,
    /// The scalar batch run ([`psmd_core::SimdMode::Scalar`]).
    pub scalar: TimingRow,
    /// The lane-group run ([`psmd_core::SimdMode::ForceWidth`]).
    pub lanes: TimingRow,
    /// Whether the two batched outputs are bitwise identical (the lane
    /// tier's hard invariant; anything but `true` is a kernel bug).
    pub identical: bool,
    /// The lane width the lane run's timings reported.
    pub reported_width: usize,
}

/// Measures the forced-width lane tier against the scalar batch path at one
/// precision, asserting nothing — the caller gates on
/// [`SimdComparison::identical`].
pub fn simd_comparison(
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    batch: usize,
    width: usize,
    seed: u64,
) -> SimdComparison {
    use psmd_core::{EvalOptions, SimdMode};
    let seeds: Vec<u64> = (0..batch).map(|i| seed.wrapping_add(i as u64)).collect();
    let batch_inputs = poly.any_batch_inputs(precision, degree, scale, &seeds);
    let engine_with = |simd: SimdMode| {
        Engine::builder()
            .options(EvalOptions::new().with_simd(simd))
            .build()
    };
    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar_plan =
        scalar_engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let scalar_eval = scalar_plan.request(&batch_inputs).run();
    let scalar = TimingRow::from(scalar_eval.timings());
    let lane_engine = engine_with(SimdMode::ForceWidth(width));
    let lane_plan = lane_engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let lane_eval = lane_plan.request(&batch_inputs).run();
    SimdComparison {
        width,
        batch,
        scalar,
        lanes: TimingRow::from(lane_eval.timings()),
        identical: scalar_eval.bitwise_eq(&lane_eval),
        reported_width: lane_eval.timings().simd_width,
    }
}

/// One measured comparison of the fused system evaluator against a loop of
/// per-polynomial evaluations of the same system at the same inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemComparison {
    /// Number of equations in the system.
    pub equations: usize,
    /// One merged schedule, one pool launch per shared layer for the whole
    /// system (`PolySource::System`).
    pub fused: TimingRow,
    /// A loop of per-polynomial pool launches (the pre-system behavior).
    pub looped_parallel: TimingRow,
    /// A loop of single-thread per-polynomial evaluations (the lower bound
    /// on launch overhead).
    pub looped_sequential: TimingRow,
    /// Kernel launches issued by the fused run (= merged layer count).
    pub fused_launches: usize,
    /// Kernel launches issued by the per-polynomial loop (≈ equations ×
    /// per-equation layers).
    pub looped_launches: usize,
    /// Unique monomials after merging the equations' monomial sets.
    pub unique_monomials: usize,
    /// Total monomial instances across all equations.
    pub total_monomials: usize,
}

/// Measures the fused system plan against per-equation plans at the given
/// precision.
pub fn system_comparison(
    engine: &Engine,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    equations: usize,
    seed: u64,
) -> SystemComparison {
    let fused_plan = engine.compile_any(poly.any_system(precision, equations, degree, scale, seed));
    let inputs = poly.any_inputs(precision, degree, scale, seed);
    let fused_eval = fused_plan.request(&inputs).run();
    let fused = TimingRow::from(fused_eval.timings());
    let fused_launches =
        fused_eval.timings().convolution_launches + fused_eval.timings().addition_launches;
    let mut looped = KernelTimings::new();
    let mut sequential = KernelTimings::new();
    for source in poly.any_system_equations(precision, equations, degree, scale, seed) {
        let plan = engine.compile_any(source);
        looped.merge(plan.request(&inputs).run().timings());
        sequential.merge(plan.request(&inputs).sequential().run().timings());
    }
    let looped_launches = looped.convolution_launches + looped.addition_launches;
    let schedule = fused_plan.schedule().expect("compiled schedule");
    SystemComparison {
        equations,
        fused,
        looped_parallel: TimingRow::from(&looped),
        looped_sequential: TimingRow::from(&sequential),
        fused_launches,
        looped_launches,
        unique_monomials: schedule.unique_monomials(),
        total_monomials: schedule.total_monomials(),
    }
}

/// One measured compile-once/evaluate-many amortization record of the
/// engine: how much the one-time compile costs, that the second compile is a
/// cache hit, and how cheap the repeated evaluations are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineAmortization {
    /// Wall time of the first compile (schedule construction, a cache miss).
    pub compile_ms: f64,
    /// Wall time of the second compile of the same source (a cache hit).
    pub cached_compile_ms: f64,
    /// Plan-cache hits gained by the second compile (deterministically 1).
    pub cache_hits: usize,
    /// Number of timed evaluations.
    pub evals: usize,
    /// Wall time of the first evaluation.
    pub first_eval_ms: f64,
    /// Mean wall time over all `evals` evaluations.
    pub mean_eval_ms: f64,
    /// Pool rendezvous per evaluation (deterministic: the multi-block layer
    /// count on a pool with workers).
    pub rendezvous_per_eval: usize,
}

/// Measures the engine's compile-once/evaluate-many amortization at the
/// given precision: one cold compile, one (cache-hitting) warm compile, then
/// `evals` evaluations of the shared plan.
pub fn engine_amortization(
    engine: &Engine,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    evals: usize,
    seed: u64,
) -> EngineAmortization {
    assert!(evals > 0, "need at least one evaluation");
    let hits_before = engine.cache_stats().hits;
    let start = Instant::now();
    let plan = engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let again = engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let cached_compile_ms = start.elapsed().as_secs_f64() * 1e3;
    let cache_hits = (engine.cache_stats().hits - hits_before) as usize;
    drop(again);
    let inputs = poly.any_inputs(precision, degree, scale, seed);
    let mut first_eval_ms = 0.0;
    let mut total_ms = 0.0;
    let mut rendezvous_per_eval = 0;
    for i in 0..evals {
        let out = plan.request(&inputs).run();
        let wall = out.timings().wall_clock_ms();
        if i == 0 {
            first_eval_ms = wall;
            rendezvous_per_eval = out.timings().pool_rendezvous;
        }
        total_ms += wall;
    }
    EngineAmortization {
        compile_ms,
        cached_compile_ms,
        cache_hits,
        evals,
        first_eval_ms,
        mean_eval_ms: total_ms / evals as f64,
        rendezvous_per_eval,
    }
}

/// One measured record of workspace reuse: the cold first evaluation (pool
/// empty), steady-state pooled evaluation (pooled
/// arena/scratch, fresh outputs) and the steady-state reused-output path
/// (everything reused — the zero-allocation path), plus the deterministic
/// buffer sizes the workspace holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkspaceComparison {
    /// Number of steady-state evaluations timed per mode.
    pub evals: usize,
    /// Wall time of the first evaluation through a fresh plan (workspace
    /// warm-up).
    pub cold_ms: f64,
    /// Mean steady-state wall time of pooled evaluation (pooled workspace,
    /// freshly allocated outputs).
    pub pooled_ms: f64,
    /// Mean steady-state wall time of the reused-output path (pooled
    /// workspace, reused outputs — zero heap allocations).
    pub reused_ms: f64,
    /// Arena size of one evaluation, in coefficients (deterministic:
    /// schedule layout × degree).
    pub arena_coeffs: usize,
    /// Per-worker convolution-scratch size, in coefficients (deterministic).
    pub scratch_lane_coeffs: usize,
}

/// Measures workspace reuse on one engine plan at the given precision.
pub fn workspace_comparison(
    engine: &Engine,
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    evals: usize,
    seed: u64,
) -> WorkspaceComparison {
    assert!(evals > 0, "need at least one evaluation");
    let plan = engine.compile_any(poly.any_polynomial(precision, degree, scale, seed));
    let inputs = poly.any_inputs(precision, degree, scale, seed);
    let start = Instant::now();
    let mut out = plan.request(&inputs).run();
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    for _ in 0..evals {
        let _ = plan.request(&inputs).run();
    }
    let pooled_ms = start.elapsed().as_secs_f64() * 1e3 / evals as f64;
    // Warm the reused output, then time the zero-allocation path.
    plan.request(&inputs).into(&mut out).run();
    let start = Instant::now();
    for _ in 0..evals {
        plan.request(&inputs).into(&mut out).run();
    }
    let reused_ms = start.elapsed().as_secs_f64() * 1e3 / evals as f64;
    let arena_coeffs = plan
        .schedule()
        .expect("compiled schedule")
        .layout
        .total_coefficients();
    WorkspaceComparison {
        evals,
        cold_ms,
        pooled_ms,
        reused_ms,
        arena_coeffs,
        scratch_lane_coeffs: psmd_core::workspace::conv_scratch_coeffs_for(
            plan.options().kernel,
            degree + 1,
        ),
    }
}

/// Double operations of a measured run's schedule (reduced or full scale),
/// for achieved-GFLOPS reporting.
pub fn measured_double_ops(
    poly: TestPolynomial,
    precision: Precision,
    degree: usize,
    scale: Scale,
    cost: CostModel,
) -> f64 {
    let p: Polynomial<Md<2>> = match scale {
        Scale::Reduced => poly.build_reduced(degree, 1),
        Scale::Full => poly.build(0, 1),
    };
    let schedule = Schedule::build(std::slice::from_ref(&p));
    let mut shape = workload_shape(&schedule);
    shape.degree = degree;
    shape.total_double_ops(precision, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psmd_device::gpu_by_key;

    fn test_engine(threads: usize) -> Engine {
        Engine::builder().threads(threads).build()
    }

    #[test]
    fn shape_cache_reuses_structures_across_degrees() {
        let mut cache = ShapeCache::new();
        let a = cache.shape(TestPolynomial::P1, 8);
        let b = cache.shape(TestPolynomial::P1, 152);
        assert_eq!(a.convolution_layers, b.convolution_layers);
        assert_eq!(a.degree, 8);
        assert_eq!(b.degree, 152);
        assert_eq!(b.convolution_jobs(), 16_380);
    }

    #[test]
    fn modeled_run_reproduces_table_3_for_v100() {
        let mut cache = ShapeCache::new();
        let v100 = gpu_by_key("v100").unwrap();
        let row = modeled_run(
            &mut cache,
            TestPolynomial::P1,
            &v100,
            Precision::D10,
            152,
            CostModel::Paper,
        );
        // Paper: 634.29 ms convolutions, 640 ms wall clock.
        assert!((row.convolution_ms - 634.29).abs() / 634.29 < 0.15);
        assert!((row.wall_ms - 640.0).abs() / 640.0 < 0.15);
        assert!(row.addition_ms < row.convolution_ms / 100.0);
    }

    #[test]
    fn measured_reduced_run_is_consistent() {
        let engine = test_engine(2);
        let row = measured_run(
            &engine,
            TestPolynomial::P1,
            Precision::D2,
            8,
            Scale::Reduced,
            42,
        );
        assert!(row.wall_ms > 0.0);
        assert!(row.sum_ms() <= row.wall_ms * 1.5);
        assert!(row.convolution_ms > 0.0);
    }

    #[test]
    fn system_comparison_counts_launches_and_monomials() {
        let engine = test_engine(2);
        let equations = 3;
        let cmp = system_comparison(
            &engine,
            TestPolynomial::P1,
            Precision::D2,
            4,
            Scale::Reduced,
            equations,
            7,
        );
        assert_eq!(cmp.equations, equations);
        assert!(cmp.fused.wall_ms > 0.0);
        assert!(cmp.looped_parallel.wall_ms > 0.0);
        // The per-polynomial loop issues `equations` times the launches of
        // the fused run (same structure in every equation).
        assert_eq!(cmp.looped_launches, equations * cmp.fused_launches);
        // Independent random coefficients: nothing dedups, every instance is
        // unique.
        assert_eq!(cmp.total_monomials, equations * 210); // C(10,4) per equation
        assert_eq!(cmp.unique_monomials, cmp.total_monomials);
    }

    #[test]
    fn engine_amortization_hits_the_cache_and_repeats_cheaply() {
        let engine = test_engine(2);
        let record = engine_amortization(
            &engine,
            TestPolynomial::P1,
            Precision::D2,
            8,
            Scale::Reduced,
            4,
            3,
        );
        assert_eq!(record.cache_hits, 1);
        assert_eq!(record.evals, 4);
        assert!(record.compile_ms > 0.0);
        // The warm compile skips schedule construction; its absolute cost is
        // noisy (polynomial reconstruction + hashing), so only positivity is
        // asserted here — the cache hit itself is the deterministic signal.
        assert!(record.cached_compile_ms > 0.0);
        assert!(record.mean_eval_ms > 0.0);
        assert!(record.rendezvous_per_eval >= 1);
    }

    #[test]
    fn workspace_comparison_reports_deterministic_sizes() {
        let engine = test_engine(2);
        let cmp = workspace_comparison(
            &engine,
            TestPolynomial::P1,
            Precision::D2,
            8,
            Scale::Reduced,
            4,
            3,
        );
        assert_eq!(cmp.evals, 4);
        assert!(cmp.cold_ms > 0.0);
        assert!(cmp.pooled_ms > 0.0);
        assert!(cmp.reused_ms > 0.0);
        // The arena of the reduced p1 at degree 8: slots × (d + 1).
        assert_eq!(cmp.arena_coeffs % 9, 0);
        assert!(cmp.arena_coeffs > 0);
        // The default direct kernel needs only the two staging slots.
        assert_eq!(cmp.scratch_lane_coeffs, 2 * 9);
    }

    #[test]
    fn double_ops_increase_with_degree_and_precision() {
        let mut cache = ShapeCache::new();
        let small = modeled_double_ops(
            &mut cache,
            TestPolynomial::P1,
            Precision::D2,
            31,
            CostModel::Paper,
        );
        let big = modeled_double_ops(
            &mut cache,
            TestPolynomial::P1,
            Precision::D10,
            152,
            CostModel::Paper,
        );
        assert!(big > small * 10.0);
        // The paper's headline number: 1.336e12 double operations for p1 at
        // degree 152 in deca-double precision.
        assert!((big - 1_336_226_651_784.0).abs() < 1.0);
    }
}
