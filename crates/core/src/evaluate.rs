//! The evaluators: the naive baseline and the scheduled (accelerated)
//! two-stage algorithm of the paper.
//!
//! Two ways to compute the same result:
//!
//! * [`evaluate_naive`] multiplies the series of every monomial and of every
//!   partial derivative independently.  It shares no work and serves as the
//!   correctness oracle and as the baseline the speedup of the paper's
//!   scheme is measured against.
//! * The engine's [`Plan`] runs the paper's job schedule
//!   (shared forward/backward/cross products, tree summation) — sequentially
//!   (`plan.request(&z).sequential().run()`) or with one kernel launch per
//!   job layer on the worker pool (`plan.request(&z).run()`), the CPU
//!   equivalent of the accelerated algorithm of Section 5, reporting
//!   per-kernel timings like the paper does.
//!
//! This module holds the execution internals behind `Plan::run_into`, the
//! one runner of every plan — pooled or sequential, whatever its number of
//! equations and input vectors, and whoever calls it: a request, a serve
//! window, a tracker sweep or a Newton step.  The runner has one executor:
//! every layer of jobs is one grid launch, and each launch reports whether
//! it woke the pool, so a run counts its own rendezvous.  Every job borrows
//! its staging memory from the workspace the run checked out of its plan's
//! pool instead of allocating, which is what keeps steady-state evaluation
//! allocation-free (the CPU analogue of the paper's pre-sized shared-memory
//! staging).

use crate::engine::{EvalOutput, Inputs, Plan};
use crate::lanes::{block_pairs, layer_blocks, run_convolution_panel, MAX_LANE_WIDTH};
use crate::options::SimdMode;
use crate::polynomial::Polynomial;
use crate::schedule::{AddJob, ConvJob, Schedule};
use crate::system::SystemEvaluation;
use crate::workspace::{ConvScratch, Workspace};
use psmd_multidouble::Coeff;
use psmd_runtime::{CancelToken, KernelKind, KernelTimings, SharedSlice, Stopwatch, WorkerPool};
use psmd_series::{add_assign_slices, convolve_fft, convolve_karatsuba, convolve_seq, Series};
use std::time::Instant;

/// Which convolution kernel the scheduled evaluator uses for its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvolutionKernel {
    /// The schoolbook loop [`psmd_series::convolve_seq`] (default), with a
    /// bitwise-identical SIMD lane twin that runs panels of jobs.
    ///
    /// It is **truncation-causal**: output coefficient `k` reads only input
    /// coefficients `0..=k`, so changing one input coefficient `j` — to any
    /// finite value, `inf` or NaN — leaves every value and gradient
    /// coefficient below `j` bitwise unchanged.  The Karatsuba short product
    /// keeps this property (each of its sub-products keeps coefficient
    /// indices aligned); the FFT does not for non-finite inputs, because its
    /// transforms spread every input coefficient over every output, so an
    /// `inf` or NaN anywhere makes every output non-finite.
    #[default]
    Direct,
    /// The Karatsuba short product: `O(n^1.58)` coefficient
    /// multiplications, bitwise identical to the direct loop below
    /// [`psmd_series::KARATSUBA_THRESHOLD`] and bounded by
    /// [`psmd_series::karatsuba_ulp_budget`] above it.
    Karatsuba,
    /// The compensated digit-FFT kernel: `O(n log n)` double operations,
    /// exact digit convolution recombined through a certified
    /// renormalization, bounded by [`psmd_series::fft_ulp_budget`].
    Fft,
    /// Pick the fastest kernel for the plan's (precision, degree) pair from
    /// the measured crossover table at compile time.  [`Plan`]
    /// resolves this to a concrete kernel during
    /// [`Engine::compile`](crate::Engine::compile); the resolved choice is
    /// visible in the plan's options.
    Auto,
}

/// How the evaluators execute the job schedule on the worker pool.  There
/// is one mode; the enum and
/// [`EvalOptions::exec_mode`](crate::EvalOptions::exec_mode) remain because
/// the benchmark package (`perfbench/`) prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// One kernel launch per job layer with a pool-wide barrier between
    /// layers — the paper's execution model.
    #[default]
    Layered,
}

/// The value and gradient of a polynomial at a vector of power series,
/// together with the kernel timings of the run.
#[derive(Debug, Clone)]
pub struct Evaluation<C> {
    /// `p(z)` truncated at the common degree.
    pub value: Series<C>,
    /// `dp/dx_i (z)` for every variable `i`.
    pub gradient: Vec<Series<C>>,
    /// Per-kernel timings (all zero for the naive evaluator except the wall
    /// clock).
    pub timings: KernelTimings,
}

impl<C: Coeff> Evaluation<C> {
    /// An empty evaluation to be filled by an `*_into` run; its buffers are
    /// grown on first use and reused afterwards.
    pub fn empty() -> Self {
        Self {
            value: Series::zero(0),
            gradient: Vec::new(),
            timings: KernelTimings::new(),
        }
    }

    /// Largest coefficient-wise difference between two evaluations (value
    /// and gradient), as a double estimate.  Used by tests and examples to
    /// compare evaluators.
    ///
    /// Returns [`f64::INFINITY`] when the two evaluations have different
    /// shapes (gradient length or truncation degree): evaluations of
    /// different polynomials are never "close", and silently comparing only
    /// the common prefix would hide exactly the bugs this method exists to
    /// catch.
    pub fn max_difference(&self, other: &Evaluation<C>) -> f64 {
        if self.gradient.len() != other.gradient.len()
            || self.value.degree() != other.value.degree()
        {
            return f64::INFINITY;
        }
        let mut worst = self.value.distance(&other.value);
        for (a, b) in self.gradient.iter().zip(other.gradient.iter()) {
            if a.degree() != b.degree() {
                return f64::INFINITY;
            }
            worst = worst.max(a.distance(b));
        }
        worst
    }

    /// Largest coefficient-wise difference between two evaluations in units
    /// in the last place of the working precision (see
    /// [`psmd_multidouble::ulp_distance`]).  The natural yardstick for the
    /// approximate kernels of the ladder, where an absolute difference says
    /// nothing without the coefficient scale.
    ///
    /// Returns [`f64::INFINITY`] on a shape mismatch, like
    /// [`Evaluation::max_difference`].
    pub fn max_ulp_difference(&self, other: &Evaluation<C>) -> f64 {
        if self.gradient.len() != other.gradient.len()
            || self.value.degree() != other.value.degree()
        {
            return f64::INFINITY;
        }
        let mut worst = self.value.ulp_distance(&other.value);
        for (a, b) in self.gradient.iter().zip(other.gradient.iter()) {
            if a.degree() != b.degree() {
                return f64::INFINITY;
            }
            worst = worst.max(a.ulp_distance(b));
        }
        worst
    }
}

impl<C: Coeff> Default for Evaluation<C> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Evaluates the polynomial and its gradient monomial by monomial, without
/// sharing any products (the baseline).
pub fn evaluate_naive<C: Coeff>(poly: &Polynomial<C>, inputs: &[Series<C>]) -> Evaluation<C> {
    assert_eq!(inputs.len(), poly.num_variables(), "wrong number of inputs");
    let wall = Stopwatch::start();
    let d = poly.degree();
    let mut value = poly.constant().clone();
    let mut gradient = vec![Series::zero(d); poly.num_variables()];
    for m in poly.monomials() {
        let mut prod = m.coefficient.clone();
        for &v in &m.variables {
            prod = prod.mul(&inputs[v]);
        }
        value.add_assign(&prod);
        for (pos, &v) in m.variables.iter().enumerate() {
            let mut dp = m.coefficient.clone();
            for (q, &w) in m.variables.iter().enumerate() {
                if q != pos {
                    dp = dp.mul(&inputs[w]);
                }
            }
            gradient[v].add_assign(&dp);
        }
    }
    let mut timings = KernelTimings::new();
    timings.wall_clock = wall.elapsed();
    Evaluation {
        value,
        gradient,
        timings,
    }
}

/// Executes the schedule over `instances` independent arena regions laid
/// out back-to-back ([`DataLayout::batch_slot`](crate::DataLayout::batch_slot)
/// rebases each job's slots into its instance's region) — the execution
/// body of [`stage_and_execute`].
///
/// Runs one grid launch per layer and adds the rendezvous each launch
/// reports to `timings.pool_rendezvous`.  Every launch lends participant
/// `p` the scratch lane `scratch[p]` for the whole launch, so a block
/// borrows its job staging without allocating or locking; a `.sequential()`
/// run passes a pool without workers, whose launches run inline on the
/// caller as participant 0.  An addition layer launches one
/// block per `(job, instance)` pair.  A convolution layer of `J` jobs packs
/// its `J·B` pairs into lane panels of `lane_width` pairs plus scalar
/// remainder blocks (see [`crate::lanes`]); `lane_width` must be 1 unless
/// the kernel is the direct loop, the only kernel with lane variants.  Per
/// pair the results are bitwise identical at every width, and the recorded
/// block counts always count pairs, so the partition is invisible to
/// everything but the wall clock and `timings.simd_width`: the width when
/// some layer ran a panel, 1 when every layer ran scalar blocks only.
///
/// When `cancel` is armed and trips mid-run, the remaining blocks (and
/// layers) are abandoned before the next block starts and `false` is returned;
/// the arena contents are then unspecified and the caller must skip
/// extraction.  Returns `true` when every block executed.
#[allow(clippy::too_many_arguments)]
fn execute_schedule<C: Coeff>(
    schedule: &Schedule,
    shared: &SharedSlice<'_, C>,
    kernel: ConvolutionKernel,
    pool: &WorkerPool,
    scratch: &mut [ConvScratch<C>],
    timings: &mut KernelTimings,
    instances: usize,
    lane_width: usize,
    cancel: Option<&CancelToken>,
) -> bool {
    let per = schedule.layout.coeffs_per_slot();
    let map_slot = |instance: usize, slot: usize| schedule.layout.batch_slot(instance, slot);
    // Stage 1: convolution kernels, one launch per layer for all instances.
    for layer in &schedule.convolution_layers {
        let pairs = layer.len() * instances;
        // Pair f is job f / instances rebased into instance f % instances;
        // disjointness within a layer carries over to the rebased slots
        // because distinct instances write distinct regions.
        let pair_job = |f: usize| {
            let (job, instance) = (layer[f / instances], f % instances);
            ConvJob {
                in1: map_slot(instance, job.in1),
                in2: map_slot(instance, job.in2),
                out: map_slot(instance, job.out),
            }
        };
        let body = |s: &mut ConvScratch<C>, b: usize| {
            let range = block_pairs(pairs, lane_width, b);
            if range.len() == 1 {
                run_convolution_job(shared, &pair_job(range.start), per, kernel, s);
                return;
            }
            debug_assert_eq!(kernel, ConvolutionKernel::Direct);
            let mut jobs = [layer[0]; MAX_LANE_WIDTH];
            for (job, f) in jobs.iter_mut().zip(range.clone()) {
                *job = pair_job(f);
            }
            run_convolution_panel(shared, &jobs[..range.len()], per, s);
        };
        let start = Instant::now();
        let blocks = layer_blocks(pairs, lane_width);
        let outcome = pool.launch_grid_with(blocks, cancel, scratch, body);
        timings.record(KernelKind::Convolution, start.elapsed(), pairs);
        timings.pool_rendezvous += usize::from(outcome.rendezvous);
        let ran = if pairs >= lane_width { lane_width } else { 1 };
        timings.simd_width = timings.simd_width.max(ran);
        if !outcome.completed {
            return false;
        }
    }
    // Stage 2: addition kernels, one block per pair, launched the same way.
    for layer in &schedule.addition_layers {
        let jobs = layer.len();
        let blocks = instances * jobs;
        let body = |_: &mut ConvScratch<C>, b: usize| {
            let instance = b / jobs;
            let job = layer[b % jobs];
            let mapped = AddJob {
                src: map_slot(instance, job.src),
                dst: map_slot(instance, job.dst),
            };
            run_addition_job(shared, &mapped, per);
        };
        let start = Instant::now();
        let outcome = pool.launch_grid_with(blocks, cancel, scratch, body);
        timings.record(KernelKind::Addition, start.elapsed(), blocks);
        timings.pool_rendezvous += usize::from(outcome.rendezvous);
        if !outcome.completed {
            return false;
        }
    }
    true
}

/// Stages one arena region per evaluation instance — every equation's
/// constant, the merged monomial coefficients and that instance's inputs —
/// then runs the plan's schedule over all regions at once: one launch per
/// layer whatever the number of instances or equations.  All evaluation
/// memory is borrowed from `ws`, so a warm workspace makes the run
/// allocation-free.  The plan's options are resolved: it resolves a
/// `ConvolutionKernel::Auto` and a `SimdMode::Auto` when it compiles.
///
/// Every evaluation — one input vector or a batch, one equation or a system
/// — packs its convolution jobs into SIMD lane panels at the resolved lane
/// width when the kernel is the direct loop (the only kernel with lane
/// variants), and runs scalar otherwise.  Per pair the results are bitwise
/// identical either way.
///
/// Returns the populated arena (instance `i` at
/// [`DataLayout::batch_instance_offset`](crate::DataLayout::batch_instance_offset)),
/// or `None` when `cancel` tripped mid-run: the arena then holds partial
/// results, and the next evaluation re-zeros it as always.
pub(crate) fn stage_and_execute<'w, C: Coeff>(
    plan: &Plan<C>,
    inputs: Inputs<'_, C>,
    pool: &WorkerPool,
    cancel: Option<&CancelToken>,
    ws: &'w mut Workspace<C>,
    timings: &mut KernelTimings,
) -> Option<&'w [C]> {
    let instances = match inputs {
        Inputs::Single(_) => 1,
        Inputs::Batch([]) => return Some(&[]),
        Inputs::Batch(batch) => batch.len(),
    };
    let (schedule, options) = (&plan.schedule, plan.options());
    let lane_width = match (options.simd, options.kernel) {
        (SimdMode::Auto, _) => unreachable!("SimdMode::Auto is resolved before evaluation"),
        (SimdMode::ForceWidth(w), ConvolutionKernel::Direct) => w,
        _ => 1,
    };
    let layout = &schedule.layout;
    let per = layout.coeffs_per_slot();
    let arena_coeffs = layout.batch_total_coefficients(instances);
    ws.warm_for(arena_coeffs, per, options.kernel, lane_width);
    let (arena, scratch) = ws.parts(arena_coeffs);
    // Lay every instance out back-to-back in the flat arena.  Constants and
    // coefficients are replicated per instance so each region is
    // self-contained (jobs only ever read within their region).
    for (i, region) in arena
        .chunks_exact_mut(layout.total_coefficients())
        .enumerate()
    {
        let z = match inputs {
            Inputs::Single(z) => z,
            Inputs::Batch(batch) => &batch[i],
        };
        schedule.fill_data_array(plan.source().equations(), z, region);
    }
    let completed = execute_schedule(
        schedule,
        &SharedSlice::new(&mut *arena),
        options.kernel,
        pool,
        scratch,
        timings,
        instances,
        lane_width,
        cancel,
    );
    completed.then_some(arena)
}

/// Writes every instance region of a completed run into `out`, one
/// equation at a time.  The output variant must match the inputs: `Single`
/// or `System` for one input vector, `Batch` or `SystemBatch` for a batch.
/// Each variant is a short loop over [`Schedule::extract_equation_into`],
/// writing straight into the caller's buffers.
pub(crate) fn extract_output<C: Coeff>(schedule: &Schedule, arena: &[C], out: &mut EvalOutput<C>) {
    let regions = arena.chunks_exact(schedule.layout.total_coefficients());
    let system_into = |region: &[C], s: &mut SystemEvaluation<C>| {
        let m = schedule.num_equations();
        s.values.resize_with(m, || Series::zero(0));
        s.jacobian.resize_with(m, Vec::new);
        for (i, (value, row)) in s.values.iter_mut().zip(&mut s.jacobian).enumerate() {
            schedule.extract_equation_into(region, i, value, row);
        }
    };
    match out {
        EvalOutput::Single(e) => {
            schedule.extract_equation_into(arena, 0, &mut e.value, &mut e.gradient)
        }
        EvalOutput::Batch(b) => {
            b.instances.resize_with(regions.len(), Evaluation::empty);
            for (region, e) in regions.zip(&mut b.instances) {
                schedule.extract_equation_into(region, 0, &mut e.value, &mut e.gradient);
                e.timings = KernelTimings::new();
            }
        }
        EvalOutput::System(s) => system_into(arena, s),
        EvalOutput::SystemBatch(b) => {
            b.instances
                .resize_with(regions.len(), SystemEvaluation::empty);
            for (region, s) in regions.zip(&mut b.instances) {
                system_into(region, s);
                s.timings = KernelTimings::new();
            }
        }
    }
}

/// Executes one convolution job on the shared data array.
///
/// Operands are read **directly from the arena** — within one layer no other
/// job writes them, by the schedule's validated invariant — except an
/// operand that aliases the job's own output (the in-place `b := b * a`
/// update), which is staged into the per-worker scratch first, the CPU
/// equivalent of the paper's shared-memory staging.  Nothing is allocated.
pub(crate) fn run_convolution_job<C: Coeff>(
    shared: &SharedSlice<'_, C>,
    job: &ConvJob,
    per: usize,
    kernel: ConvolutionKernel,
    scratch: &mut ConvScratch<C>,
) {
    let (buf, fft_scratch) = scratch.ensure_for(per, kernel);
    let (stage_x, rest) = buf.split_at_mut(per);
    let (stage_y, kernel_scratch) = rest.split_at_mut(per);
    let x_aliases_out = job.in1 == job.out;
    let y_aliases_out = job.in2 == job.out;
    // Safety (reads): the schedule guarantees that within one layer no other
    // job writes these input ranges, and the output range below is only
    // aliased when staged away first.
    if x_aliases_out {
        stage_x.copy_from_slice(unsafe { shared.slice(job.in1 * per, per) });
    }
    if y_aliases_out {
        stage_y.copy_from_slice(unsafe { shared.slice(job.in2 * per, per) });
    }
    let x: &[C] = if x_aliases_out {
        stage_x
    } else {
        unsafe { shared.slice(job.in1 * per, per) }
    };
    let y: &[C] = if y_aliases_out {
        stage_y
    } else {
        unsafe { shared.slice(job.in2 * per, per) }
    };
    // Safety: the schedule guarantees the output range is written by this
    // job only, and neither `x` nor `y` points into it (aliasing operands
    // were staged above).
    let out = unsafe { shared.slice_mut(job.out * per, per) };
    match kernel {
        ConvolutionKernel::Direct => convolve_seq(x, y, out),
        ConvolutionKernel::Karatsuba => convolve_karatsuba(x, y, out, kernel_scratch),
        ConvolutionKernel::Fft => convolve_fft(x, y, out, fft_scratch),
        ConvolutionKernel::Auto => unreachable!("Auto is resolved when the plan compiles"),
    }
}

/// Executes one addition job on the shared data array.
pub(crate) fn run_addition_job<C: Coeff>(shared: &SharedSlice<'_, C>, job: &AddJob, per: usize) {
    debug_assert_ne!(job.src, job.dst);
    // Safety: the schedule guarantees src is not written and dst is written
    // only by this job within the current layer.
    let src = unsafe { shared.slice(job.src * per, per) };
    let dst = unsafe { shared.slice_mut(job.dst * per, per) };
    add_assign_slices(dst, src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::monomial::Monomial;
    use crate::options::EvalOptions;
    use psmd_multidouble::{Complex, Dd, Md, Qd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

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

    fn constant_inputs(n: usize, d: usize) -> Vec<Series<Qd>> {
        (0..n)
            .map(|i| Series::constant(Qd::from_f64((i + 1) as f64), d))
            .collect()
    }

    fn compile(p: &Polynomial<Qd>, threads: usize) -> (Engine, Arc<Plan<Qd>>) {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(p.clone());
        (engine, plan)
    }

    #[test]
    fn naive_gradient_of_the_paper_example_at_constants() {
        // p = 0.5 + 1 x0 x2 x5 + 2 x0 x1 x4 x5 + 3 x1 x2 x3 at x_i = i+1.
        let p = paper_example(0);
        let z = constant_inputs(6, 0);
        let e = evaluate_naive(&p, &z);
        assert_eq!(e.value.coeff(0).to_f64(), 210.5);
        // dp/dx0 = x2 x5 + 2 x1 x4 x5 = 18 + 120/1 -> 18 + 120 = 138? No:
        // 2 x1 x4 x5 = 2*2*5*6 = 120; x2 x5 = 3*6 = 18; total 138.
        assert_eq!(e.gradient[0].coeff(0).to_f64(), 138.0);
        // dp/dx3 = 3 x1 x2 = 3*2*3 = 18.
        assert_eq!(e.gradient[3].coeff(0).to_f64(), 18.0);
        // dp/dx5 = x0 x2 + 2 x0 x1 x4 = 3 + 2*1*2*5 = 23.
        assert_eq!(e.gradient[5].coeff(0).to_f64(), 23.0);
    }

    #[test]
    fn scheduled_sequential_matches_naive_on_the_paper_example() {
        let d = 4;
        let p = paper_example(d);
        let mut rng = StdRng::seed_from_u64(99);
        let z: Vec<Series<Qd>> = (0..6).map(|_| Series::random(&mut rng, d)).collect();
        let naive = evaluate_naive(&p, &z);
        let (_engine, plan) = compile(&p, 0);
        let scheduled = plan.request(&z).sequential().run().into_single();
        assert!(
            naive.max_difference(&scheduled) < 1e-55,
            "difference {}",
            naive.max_difference(&scheduled)
        );
    }

    #[test]
    fn parallel_matches_sequential_and_reports_timings() {
        let d = 8;
        let p = paper_example(d);
        let mut rng = StdRng::seed_from_u64(5);
        let z: Vec<Series<Qd>> = (0..6).map(|_| Series::random(&mut rng, d)).collect();
        let (_engine, plan) = compile(&p, 3);
        let seq = plan.request(&z).sequential().run().into_single();
        let par = plan.request(&z).run().into_single();
        // Same schedule, same arithmetic, same order within each job: results
        // must be bitwise identical.
        assert_eq!(seq.value, par.value);
        assert_eq!(seq.gradient, par.gradient);
        let schedule = plan.schedule().expect("single plan");
        assert_eq!(
            par.timings.convolution_launches,
            schedule.convolution_layers.len()
        );
        assert_eq!(
            par.timings.addition_launches,
            schedule.addition_layers.len()
        );
        assert_eq!(par.timings.convolution_blocks, schedule.convolution_jobs());
        assert_eq!(par.timings.addition_blocks, schedule.addition_jobs());
        assert!(par.timings.wall_clock_ms() >= par.timings.sum_ms() * 0.5);
    }

    #[test]
    fn direct_kernel_ablation_gives_the_same_results() {
        // Swapping the default direct loop for the FFT rung changes the
        // rounding, not the result.
        let d = 6;
        let p = paper_example(d);
        let mut rng = StdRng::seed_from_u64(12);
        let z: Vec<Series<Qd>> = (0..6).map(|_| Series::random(&mut rng, d)).collect();
        let engine = Engine::builder().threads(0).build();
        let direct = engine
            .compile(p.clone())
            .request(&z)
            .sequential()
            .run()
            .into_single();
        let fft = engine
            .compile_with_options(p, EvalOptions::new().with_kernel(ConvolutionKernel::Fft))
            .request(&z)
            .sequential()
            .run()
            .into_single();
        assert!(direct.max_difference(&fft) < 1e-55);
    }

    #[test]
    fn single_and_two_variable_monomials_evaluate_correctly() {
        // p = 1 + 2 x0 + 3 x0 x2, gradient = (2 + 3 x2, 0, 3 x0).
        let d = 3;
        let p = Polynomial::new(
            3,
            coeff(1.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(3.0, d), vec![0, 2]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let z: Vec<Series<Qd>> = (0..3).map(|_| Series::random(&mut rng, d)).collect();
        let naive = evaluate_naive(&p, &z);
        let (_engine, plan) = compile(&p, 0);
        let scheduled = plan.request(&z).sequential().run().into_single();
        assert!(naive.max_difference(&scheduled) < 1e-58);
        // Gradient with respect to the absent variable is zero.
        assert!(scheduled.gradient[1].is_zero());
    }

    #[test]
    fn degenerate_duplicate_single_variable_monomials() {
        // p = 2 x0 + 5 x0: gradient x0 = 7 needs the scratch accumulator.
        let d = 2;
        let p = Polynomial::new(
            1,
            coeff(0.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(5.0, d), vec![0]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(8);
        let z: Vec<Series<Qd>> = vec![Series::random(&mut rng, d)];
        let naive = evaluate_naive(&p, &z);
        let (_engine, plan) = compile(&p, 0);
        let scheduled = plan.request(&z).sequential().run().into_single();
        assert!(naive.max_difference(&scheduled) < 1e-60);
        assert_eq!(scheduled.gradient[0].coeff(0).to_f64(), 7.0);
    }

    #[test]
    fn complex_coefficients_are_supported() {
        type Cx = Complex<Dd>;
        let d = 3;
        let c = |re: f64, im: f64| Series::constant(Cx::new(Dd::from_f64(re), Dd::from_f64(im)), d);
        let p = Polynomial::new(
            3,
            c(0.5, -0.5),
            vec![
                Monomial::new(c(1.0, 1.0), vec![0, 1]),
                Monomial::new(c(0.0, 2.0), vec![1, 2]),
                Monomial::new(c(-1.0, 0.0), vec![0, 1, 2]),
            ],
        );
        let mut rng = StdRng::seed_from_u64(44);
        let z: Vec<Series<Cx>> = (0..3).map(|_| Series::random(&mut rng, d)).collect();
        let naive = evaluate_naive(&p, &z);
        let engine = Engine::builder().threads(2).build();
        let plan = engine.compile(p);
        let scheduled = plan.request(&z).sequential().run().into_single();
        assert!(naive.max_difference(&scheduled) < 1e-28);
        let par = plan.request(&z).run().into_single();
        assert_eq!(par.value, scheduled.value);
    }

    #[test]
    fn double_precision_path_works_through_md1() {
        let d = 2;
        let c = |x: f64| Series::constant(Md::<1>::from_f64(x), d);
        let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
        let mut rng = StdRng::seed_from_u64(2);
        let z: Vec<Series<Md<1>>> = (0..2).map(|_| Series::random(&mut rng, d)).collect();
        let naive = evaluate_naive(&p, &z);
        let engine = Engine::builder().threads(0).build();
        let scheduled = engine
            .compile(p)
            .request(&z)
            .sequential()
            .run()
            .into_single();
        assert!(naive.max_difference(&scheduled) < 1e-13);
    }

    #[test]
    fn max_difference_reports_shape_mismatches_as_infinite() {
        // Regression test: comparing evaluations of polynomials with
        // different variable counts (gradient lengths) or truncation degrees
        // used to silently compare only the common prefix.
        let d = 2;
        let p2 = Polynomial::new(
            2,
            coeff(1.0, d),
            vec![Monomial::new(coeff(3.0, d), vec![0, 1])],
        );
        let p3 = Polynomial::new(
            3,
            coeff(1.0, d),
            vec![Monomial::new(coeff(3.0, d), vec![0, 1])],
        );
        let mut rng = StdRng::seed_from_u64(55);
        let z3: Vec<Series<Qd>> = (0..3).map(|_| Series::random(&mut rng, d)).collect();
        let e2 = evaluate_naive(&p2, &z3[..2]);
        let e3 = evaluate_naive(&p3, &z3);
        // p3's gradient has one more component: the shapes differ even though
        // the shared components agree exactly.
        assert_eq!(e2.max_difference(&e3), f64::INFINITY);
        assert_eq!(e3.max_difference(&e2), f64::INFINITY);
        // Degree mismatches are shape mismatches too.
        let deeper = Polynomial::new(
            2,
            coeff(1.0, 5),
            vec![Monomial::new(coeff(3.0, 5), vec![0, 1])],
        );
        let zd: Vec<Series<Qd>> = (0..2).map(|_| Series::random(&mut rng, 5)).collect();
        let ed = evaluate_naive(&deeper, &zd);
        assert_eq!(e2.max_difference(&ed), f64::INFINITY);
        // Equal shapes still report a finite difference.
        let again = evaluate_naive(&p2, &z3[..2]);
        assert_eq!(e2.max_difference(&again), 0.0);
    }

    #[test]
    fn evaluation_at_power_series_has_correct_series_value() {
        // p = x0 * x1 at z0 = 1 + t, z1 = 1 - t: value = 1 - t^2,
        // dp/dx0 = 1 - t, dp/dx1 = 1 + t.
        let d = 2;
        let p = Polynomial::new(
            2,
            Series::zero(d),
            vec![Monomial::new(Series::one(d), vec![0, 1])],
        );
        let z = vec![
            Series::<Qd>::from_f64_coeffs(&[1.0, 1.0, 0.0]),
            Series::<Qd>::from_f64_coeffs(&[1.0, -1.0, 0.0]),
        ];
        let (_engine, plan) = compile(&p, 0);
        let e = plan.request(&z).sequential().run().into_single();
        assert_eq!(e.value.coeff(0).to_f64(), 1.0);
        assert_eq!(e.value.coeff(1).to_f64(), 0.0);
        assert_eq!(e.value.coeff(2).to_f64(), -1.0);
        assert_eq!(e.gradient[0].coeff(1).to_f64(), -1.0);
        assert_eq!(e.gradient[1].coeff(1).to_f64(), 1.0);
    }
}
