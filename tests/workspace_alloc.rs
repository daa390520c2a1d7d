//! The zero-allocation steady-state contract, enforced by a counting global
//! allocator: after one warm-up call, the request builder's
//! `.into(&mut out)` path performs **zero heap allocations** (and zero
//! deallocations) across single/batch/system/system-batch evaluation —
//! the CPU analogue of the paper's kernels, which
//! stage everything in pre-sized shared memory and never allocate
//! mid-kernel.  The serving layer inherits the contract: a closed-loop
//! client recycling its response buffers drives the whole
//! submit/coalesce/launch/reply cycle without touching the allocator.
//!
//! The zero-allocation matrix runs on a zero-worker engine (the launching
//! thread executes every kernel inline, so the per-thread measurement
//! covers the entire evaluation).  Threaded engines additionally pay a
//! small constant launcher-side per-launch control overhead (task boxing,
//! channel nodes); a companion check pins that overhead as
//! *degree-independent*, proving no per-coefficient or per-job allocation
//! hides in the parallel path.

use psmd_core::{
    random_inputs, random_polynomial, try_newton_system, Engine, EvalOptions, Monomial,
    NewtonOptions, PolySource, Polynomial,
};
use psmd_multidouble::{Dd, Qd};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

// The shared per-thread counting allocator (`psmd_bench::alloc_counter`):
// the zero-worker engines under test run every kernel inline on the
// measuring thread, and per-thread counters keep unrelated process threads
// — the libtest harness wakes periodically and allocates — from polluting
// the measurement.
#[global_allocator]
static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;

/// Runs `f` with counting enabled and returns this thread's (allocations,
/// deallocations, bytes allocated) during the call.
fn measure(f: impl FnOnce()) -> (u64, u64, u64) {
    let counts = psmd_bench::measure_allocs(f);
    (counts.allocs, counts.deallocs, counts.bytes)
}

fn coeff(c: f64, d: usize) -> Series<Qd> {
    Series::constant(Qd::from_f64(c), d)
}

/// The example polynomial of Equation (4).
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

fn paper_system(d: usize) -> Vec<Polynomial<Qd>> {
    let f2 = Polynomial::new(
        6,
        coeff(-1.0, d),
        vec![
            Monomial::new(coeff(4.0, d), vec![1, 3, 5]),
            Monomial::new(coeff(0.5, d), vec![0, 4]),
        ],
    );
    vec![paper_example(d), f2]
}

/// Asserts that the steady-state reused-output path performs zero heap
/// traffic on a zero-worker engine for the given plan/inputs, after
/// warm-up.
fn assert_zero_alloc_single(label: &str) {
    let d = 8;
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(paper_example(d));
    let mut rng = StdRng::seed_from_u64(11);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);
    let mut out = plan.request(&z).run();
    plan.request(&z).into(&mut out).run();
    let reference = plan.request(&z).run();
    let (allocs, deallocs, bytes) = measure(|| {
        for _ in 0..10 {
            plan.request(&z).into(&mut out).run();
        }
    });
    assert_eq!(allocs, 0, "{label}: steady-state allocations ({bytes} B)");
    assert_eq!(deallocs, 0, "{label}: steady-state deallocations");
    assert!(reference.bitwise_eq(&out), "{label}: results drifted");
}

fn assert_zero_alloc_batch(label: &str) {
    let d = 6;
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(paper_example(d));
    let mut rng = StdRng::seed_from_u64(13);
    let batch: Vec<Vec<Series<Qd>>> = (0..5)
        .map(|_| random_inputs::<Qd, _>(6, d, &mut rng))
        .collect();
    let mut out = plan.request(&batch).run();
    plan.request(&batch).into(&mut out).run();
    let reference = plan.request(&batch).run();
    let (allocs, deallocs, bytes) = measure(|| {
        for _ in 0..10 {
            plan.request(&batch).into(&mut out).run();
        }
    });
    assert_eq!(allocs, 0, "{label}: steady-state allocations ({bytes} B)");
    assert_eq!(deallocs, 0, "{label}: steady-state deallocations");
    assert!(reference.bitwise_eq(&out), "{label}: results drifted");
}

/// Like [`assert_zero_alloc_batch`], but pinning the SIMD lane mode: the
/// lane-panel scratch must obey the same grow-once discipline as every
/// other workspace buffer.  `source` is a single polynomial or a system
/// (both run the same lane panels); `batch` is `None` for one input vector,
/// whose layers pack their jobs into panels, or a batch size.
fn assert_zero_alloc_simd(
    simd: psmd_core::SimdMode,
    source: impl Into<PolySource<Qd>>,
    batch: Option<usize>,
    label: &str,
) {
    let engine = Engine::builder().threads(0).simd(simd).build();
    let plan = engine.compile(source);
    let mut rng = StdRng::seed_from_u64(13);
    let inputs: Vec<Vec<Series<Qd>>> = (0..batch.unwrap_or(1))
        .map(|_| random_inputs::<Qd, _>(6, SIMD_DEGREE, &mut rng))
        .collect();
    let request = || match batch {
        Some(_) => plan.request(&inputs),
        None => plan.request(&inputs[0]),
    };
    let mut out = request().run();
    request().into(&mut out).run();
    let reference = request().run();
    let (allocs, deallocs, bytes) = measure(|| {
        for _ in 0..10 {
            request().into(&mut out).run();
        }
    });
    assert_eq!(allocs, 0, "{label}: steady-state allocations ({bytes} B)");
    assert_eq!(deallocs, 0, "{label}: steady-state deallocations");
    assert!(reference.bitwise_eq(&out), "{label}: results drifted");
    // Every row runs at least one full panel at the resolved width.
    let width = plan.options().simd.lane_width();
    assert_eq!(out.timings().simd_width, width, "{label}");
}

/// Truncation degree of the SIMD zero-allocation rows.
const SIMD_DEGREE: usize = 6;

fn assert_zero_alloc_system(label: &str) {
    let d = 6;
    let engine = Engine::builder().threads(0).build();
    let plan = engine.compile(paper_system(d));
    let mut rng = StdRng::seed_from_u64(17);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);
    let mut out = plan.request(&z).run();
    plan.request(&z).into(&mut out).run();
    let reference = plan.request(&z).run();
    let (allocs, deallocs, bytes) = measure(|| {
        for _ in 0..10 {
            plan.request(&z).into(&mut out).run();
        }
    });
    assert_eq!(allocs, 0, "{label}: steady-state allocations ({bytes} B)");
    assert_eq!(deallocs, 0, "{label}: steady-state deallocations");
    assert!(reference.bitwise_eq(&out), "{label}: results drifted");
}

/// Steady-state launcher-side allocation count of the reused-output path on a
/// 2-worker engine at one degree (per-launch control overhead only; the
/// counters are thread-local, so this sees exactly what the evaluating
/// thread allocates).  Minimum over several measurements: the pool's
/// channel allocates its node storage in blocks, so an individual run can
/// land a block boundary.
fn threaded_steady_allocs(d: usize) -> u64 {
    let engine = Engine::builder().threads(2).build();
    let plan = engine.compile(paper_example(d));
    let mut rng = StdRng::seed_from_u64(23);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);
    let mut out = plan.request(&z).run();
    plan.request(&z).into(&mut out).run();
    plan.request(&z).into(&mut out).run();
    (0..5)
        .map(|_| {
            let (allocs, _, _) = measure(|| plan.request(&z).into(&mut out).run());
            allocs
        })
        .min()
        .unwrap()
}

#[test]
fn steady_state_evaluation_is_allocation_free() {
    // Zero-allocation matrix: single/batch/system, all kernels inline on
    // the measuring thread.
    assert_zero_alloc_single("single");
    assert_zero_alloc_batch("batch");
    assert_zero_alloc_system("system");

    // The SIMD lane tier keeps the contract under every mode: the lane
    // panels are workspace scratch, grown once and reused.  Batch sizes of
    // 2W+3 run full panels plus a scalar remainder each iteration; single
    // input vectors pack the jobs of each layer into panels.
    use psmd_core::SimdMode;
    // Twelve monomials: a layer of at least 8 jobs, so one input vector
    // fills a panel at every supported width.
    let single = || {
        let mut rng = StdRng::seed_from_u64(19);
        random_polynomial::<Qd, _>(6, 12, 4, SIMD_DEGREE, &mut rng)
    };
    let system = || paper_system(SIMD_DEGREE);
    let batch = |simd: SimdMode| Some(2 * simd.lane_width() + 3);
    let scalar = SimdMode::Scalar;
    assert_zero_alloc_simd(scalar, single(), batch(scalar), "batch/simd-scalar");
    let forced = SimdMode::SUPPORTED_WIDTHS.map(SimdMode::ForceWidth);
    for simd in std::iter::once(SimdMode::Auto).chain(forced) {
        assert_zero_alloc_simd(simd, single(), None, "single/simd");
        assert_zero_alloc_simd(simd, system(), None, "system/simd");
        assert_zero_alloc_simd(simd, single(), batch(simd), "batch/simd");
    }
    // System batches run the same panels under the same contract.
    let forced = SimdMode::ForceWidth(4);
    assert_zero_alloc_simd(forced, system(), batch(forced), "system-batch/simd-forced");

    // The explicit-workspace path is allocation-free from the FIRST call:
    // `create_workspace` pre-warms every buffer, lane panels included.
    let d = 8;
    let mut rng = StdRng::seed_from_u64(29);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);
    for simd in [
        SimdMode::Auto,
        SimdMode::ForceWidth(2),
        SimdMode::ForceWidth(8),
    ] {
        let engine = Engine::builder().threads(0).simd(simd).build();
        let plan = engine.compile(paper_example(d));
        let mut ws = plan.create_workspace();
        let mut out = plan.request(&z).run();
        let (allocs, deallocs, _) = measure(|| {
            plan.request(&z).workspace(&mut ws).into(&mut out).run();
        });
        assert_eq!(allocs, 0, "explicit workspace: first-call allocations");
        assert_eq!(deallocs, 0, "explicit workspace: first-call deallocations");
        let width = plan.options().simd.lane_width();
        assert_eq!(out.timings().simd_width, width, "lanes engaged at {simd:?}");
    }
    let engine = Engine::builder().threads(0).build();

    // The direct-kernel ablation shares the same scratch discipline.
    let direct = engine.compile_with_options(
        paper_example(d),
        EvalOptions::new().with_kernel(psmd_core::ConvolutionKernel::Direct),
    );
    let mut out = direct.request(&z).run();
    direct.request(&z).into(&mut out).run();
    let (allocs, deallocs, _) = measure(|| direct.request(&z).into(&mut out).run());
    assert_eq!(allocs, 0, "direct kernel: steady-state allocations");
    assert_eq!(deallocs, 0, "direct kernel: steady-state deallocations");

    // Threaded engines pay only a constant per-launch control overhead:
    // the steady-state allocation count must not grow with the truncation
    // degree (same schedule structure => same launches), proving the
    // parallel path performs no per-coefficient or per-job allocation.
    let small = threaded_steady_allocs(4);
    let large = threaded_steady_allocs(24);
    assert!(
        large <= small + 16,
        "threaded steady-state allocations grew with the degree: {small} at d=4 \
         vs {large} at d=24"
    );

    // Newton reuses one workspace across iterations: steps after the first
    // must not re-stage.  Measured end to end, a 4-step run on the reusable
    // buffers allocates no more than a small multiple of what one step's
    // result staging costs cold (the solver output itself is reused).
    let degree: usize = 8;
    let one = Series::constant(Dd::from_f64(1.0), degree);
    let x_exact = Series::<Dd>::from_f64_coeffs(&{
        let mut v = vec![1.0, 1.0];
        v.resize(degree + 1, 0.0);
        v
    });
    let y_exact = Series::<Dd>::from_f64_coeffs(&{
        let mut v = vec![2.0, -1.0];
        v.resize(degree + 1, 0.0);
        v
    });
    let c1 = x_exact.mul(&y_exact);
    let f1 = Polynomial::new(2, c1.neg(), vec![Monomial::new(one.clone(), vec![0, 1])]);
    let f2 = Polynomial::new(
        2,
        Series::constant(Dd::from_f64(-3.0), degree),
        vec![
            Monomial::new(one.clone(), vec![0]),
            Monomial::new(one, vec![1]),
        ],
    );
    let system = vec![f1, f2];
    let initial = vec![
        Series::constant(Dd::from_f64(1.0), degree),
        Series::constant(Dd::from_f64(2.0), degree),
    ];
    let opts = |iters| NewtonOptions {
        max_iterations: iters,
        tolerance: 0.0,
    };
    let (one_step, _, _) = measure(|| {
        let _ = try_newton_system(&system, &initial, &opts(1)).unwrap();
    });
    let (four_steps, _, _) = measure(|| {
        let _ = try_newton_system(&system, &initial, &opts(4)).unwrap();
    });
    // Without reuse, four steps would cost ~4x one step (fresh arena,
    // fresh LU, fresh rhs per step).  With the shared workspace the
    // marginal cost of the three extra steps is zero.
    assert!(
        four_steps <= one_step + 8,
        "newton steps re-allocate: 1 step = {one_step} allocs, 4 steps = {four_steps}"
    );
}

/// The serving layer's closed loop is allocation-free in the steady state:
/// a client that hands each response's buffers back as the next request
/// ([`Response::into_request`]) drives submit → admit → coalesce → launch
/// → reply without a single heap allocation on the evaluation side.  The
/// zero-worker engine runs every kernel inline on the submitting thread,
/// so the per-thread counter sees the complete request lifecycle —
/// including the leader's staging, the pooled workspace checkout and the
/// metrics recording.
#[test]
fn serve_closed_loop_is_allocation_free() {
    use psmd_serve::{Request, ServeConfig, Service};

    let d = 8;
    let engine = Engine::builder().threads(0).build();
    let service = Service::new(engine, ServeConfig::default());
    service
        .register("paper", paper_example(d))
        .expect("register");
    let mut rng = StdRng::seed_from_u64(31);
    let z = random_inputs::<Qd, _>(6, d, &mut rng);

    // Warm up: grow the queue's staging buffers, the pooled workspace and
    // the client's own request/response buffers.
    let mut request = Request::new(z.clone());
    for _ in 0..3 {
        let response = service.submit::<Qd>("paper", request).expect("warm-up");
        assert_eq!(response.coalesced, 1);
        request = response.into_request();
    }

    let mut slot = Some(request);
    let (allocs, deallocs, bytes) = measure(|| {
        for _ in 0..10 {
            let response = service
                .submit::<Qd>("paper", slot.take().unwrap())
                .expect("steady-state submit");
            slot = Some(response.into_request());
        }
    });
    assert_eq!(allocs, 0, "serve steady state: allocations ({bytes} B)");
    assert_eq!(deallocs, 0, "serve steady state: deallocations");

    // The loop really did serve requests, one launch each.
    let m = service.metrics("paper").expect("metrics");
    assert_eq!(m.completed, 13);
    assert_eq!(m.launches, 13);
    assert_eq!(m.launches_saved, 0);
}
