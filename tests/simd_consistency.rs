//! SIMD lane-tier identity: evaluation through lane panels
//! ([`SimdMode::ForceWidth`]) must be **bitwise** identical, per instance,
//! to the scalar path ([`SimdMode::Scalar`]) — across every multi-double
//! precision, real and complex coefficients, single-polynomial and system
//! plans, single input vectors and batch sizes that exercise full panels,
//! scalar remainders, panels that mix jobs and instances, and layers whose
//! job counts are not multiples of the width.  This is the invariant that
//! makes the SIMD tier a pure throughput optimization with no numerical
//! footprint: the lane kernels replicate the scalar error-free
//! transformations elementwise and never reassociate (see
//! `psmd_multidouble::lanes`).

use psmd_core::{
    random_inputs, random_polynomial, ConvolutionKernel, Engine, EvalOptions, Monomial, PolySource,
    Polynomial, Schedule, SimdMode,
};
use psmd_multidouble::{Coeff, Complex, Dd, Deca, Md, Qd, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_with(simd: SimdMode) -> Engine {
    Engine::builder().threads(2).simd(simd).build()
}

/// The width a run over `instances` input vectors reports at lane width
/// `width`: the width when some convolution layer of `J` jobs has
/// `J·instances >= width` pairs (so at least one panel runs), else 1.
fn expected_width(schedule: &Schedule, instances: usize, width: usize) -> usize {
    let panels = schedule
        .convolution_layer_sizes()
        .into_iter()
        .any(|jobs| jobs * instances >= width);
    if panels {
        width
    } else {
        1
    }
}

/// Evaluates one random batch under `ForceWidth(width)` and under `Scalar`,
/// asserting instance-by-instance bitwise identity and that the run's
/// timings report the lane width actually used.
fn check_lanes_vs_scalar<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
    batch_size: usize,
    width: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Polynomial<C> = random_polynomial(n, monomials, n.min(6), degree, &mut rng);
    let batch: Vec<Vec<Series<C>>> = (0..batch_size)
        .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
        .collect();

    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar_plan = scalar_engine.compile(p.clone());
    let scalar = scalar_plan.request(&batch).run().into_batch();
    assert_eq!(
        scalar.timings.simd_width, 1,
        "scalar batch must report width 1"
    );

    let lane_engine = engine_with(SimdMode::ForceWidth(width));
    let lane_plan = lane_engine.compile(p);
    let lanes = lane_plan.request(&batch).run().into_batch();
    let schedule = lane_plan.schedule().expect("compiled schedule");
    assert_eq!(
        lanes.timings.simd_width,
        expected_width(schedule, batch_size, width),
        "lane batch must report the width its panels ran at"
    );

    assert_eq!(scalar.instances.len(), lanes.instances.len());
    for (i, (s, l)) in scalar
        .instances
        .iter()
        .zip(lanes.instances.iter())
        .enumerate()
    {
        assert_eq!(
            s.value, l.value,
            "instance {i} value differs (width {width}, batch {batch_size}, seed {seed})"
        );
        assert_eq!(
            s.gradient, l.gradient,
            "instance {i} gradient differs (width {width}, batch {batch_size}, seed {seed})"
        );
    }
}

/// Every supported width, at batch sizes `W-1`, `W`, `W+1` and `2W+3`:
/// panels that mix instances, one job per panel, and scalar remainders.
fn check_widths_and_sizes<C: Coeff + RandomCoeff>(
    seed: u64,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    for (wi, &width) in SimdMode::SUPPORTED_WIDTHS.iter().enumerate() {
        for (si, size) in [width - 1, width, width + 1, 2 * width + 3]
            .into_iter()
            .enumerate()
        {
            if size == 0 {
                continue;
            }
            let case_seed = seed + (wi as u64) * 100 + si as u64;
            check_lanes_vs_scalar::<C>(case_seed, n, monomials, degree, size, width);
        }
    }
}

#[test]
fn lane_identity_low_precisions_layered() {
    check_widths_and_sizes::<Md<1>>(1_101, 5, 10, 4);
    check_widths_and_sizes::<Dd>(1_102, 5, 10, 4);
    check_widths_and_sizes::<Md<3>>(1_103, 4, 8, 3);
}

#[test]
fn lane_identity_high_precisions_layered() {
    check_widths_and_sizes::<Qd>(1_204, 4, 8, 3);
    check_widths_and_sizes::<Md<5>>(1_205, 4, 6, 3);
    check_widths_and_sizes::<Md<8>>(1_206, 3, 6, 2);
    check_widths_and_sizes::<Deca>(1_207, 3, 6, 2);
}

#[test]
fn lane_identity_complex_coefficients() {
    check_widths_and_sizes::<Complex<Dd>>(1_411, 4, 8, 3);
    check_widths_and_sizes::<Complex<Qd>>(1_412, 3, 6, 2);
    check_widths_and_sizes::<Complex<Deca>>(1_413, 3, 5, 2);
}

/// System plans run through the same runner as single polynomials, so
/// their batched inputs run lane panels too: every instance's values and
/// Jacobian under `ForceWidth(w)` must equal the scalar batch bitwise, at
/// batch sizes on both sides of each width.
fn check_system_lanes_vs_scalar<C: Coeff + RandomCoeff>(
    seed: u64,
    equations: usize,
    n: usize,
    monomials: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let system: Vec<Polynomial<C>> = (0..equations)
        .map(|_| random_polynomial(n, monomials, n.min(6), degree, &mut rng))
        .collect();
    let scalar_plan = engine_with(SimdMode::Scalar).compile(system.clone());
    for width in SimdMode::SUPPORTED_WIDTHS {
        let lane_plan = engine_with(SimdMode::ForceWidth(width)).compile(system.clone());
        for size in [width - 1, width + 1, 2 * width + 3] {
            let batch: Vec<Vec<Series<C>>> = (0..size)
                .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
                .collect();
            let scalar = scalar_plan.request(&batch).run().into_system_batch();
            assert_eq!(scalar.timings.simd_width, 1);
            let lanes = lane_plan.request(&batch).run().into_system_batch();
            let schedule = lane_plan.schedule().expect("compiled schedule");
            assert_eq!(
                lanes.timings.simd_width,
                expected_width(schedule, size, width),
                "system batch must report the width its panels ran at"
            );
            assert_eq!(scalar.instances.len(), size);
            assert_eq!(lanes.instances.len(), size);
            for (i, (s, l)) in scalar.instances.iter().zip(&lanes.instances).enumerate() {
                let case = format!("instance {i} (width {width}, batch {size}, seed {seed})");
                assert_eq!(s.values, l.values, "values differ: {case}");
                assert_eq!(s.jacobian, l.jacobian, "Jacobian differs: {case}");
            }
        }
    }
}

#[test]
fn system_batches_run_lanes_bitwise_like_scalar() {
    check_system_lanes_vs_scalar::<Dd>(1_801, 3, 5, 8, 4);
    check_system_lanes_vs_scalar::<Complex<Qd>>(1_802, 2, 4, 6, 2);
}

/// `Auto` resolves to a concrete mode at compile time and its batched runs
/// agree bitwise with the scalar path and report the resolved width.
#[test]
fn auto_mode_matches_scalar_bitwise() {
    let mut rng = StdRng::seed_from_u64(1_500);
    let p: Polynomial<Qd> = random_polynomial(5, 10, 4, 4, &mut rng);
    let batch: Vec<Vec<Series<Qd>>> = (0..11)
        .map(|_| random_inputs::<Qd, _>(5, 4, &mut rng))
        .collect();
    let auto_engine = engine_with(SimdMode::Auto);
    let auto_plan = auto_engine.compile(p.clone());
    assert_ne!(
        auto_plan.options().simd,
        SimdMode::Auto,
        "plans must carry a resolved SIMD mode"
    );
    let auto = auto_plan.request(&batch).run().into_batch();
    let scalar_engine = engine_with(SimdMode::Scalar);
    let scalar = scalar_engine.compile(p).request(&batch).run().into_batch();
    let schedule = auto_plan.schedule().expect("compiled schedule");
    let width = auto_plan.options().simd.lane_width();
    assert_eq!(
        auto.timings.simd_width,
        expected_width(schedule, batch.len(), width)
    );
    for (s, a) in scalar.instances.iter().zip(auto.instances.iter()) {
        assert_eq!(s.value, a.value);
        assert_eq!(s.gradient, a.gradient);
    }
}

/// Kernels without a lane implementation (Karatsuba, FFT) run scalar under
/// any lane mode — same bits, width 1 in the timings — for a batch and for
/// a single input vector.
#[test]
fn non_lane_kernels_fall_back_to_scalar() {
    let mut rng = StdRng::seed_from_u64(1_600);
    let p: Polynomial<Dd> = random_polynomial(4, 8, 4, 6, &mut rng);
    let batch: Vec<Vec<Series<Dd>>> = (0..9)
        .map(|_| random_inputs::<Dd, _>(4, 6, &mut rng))
        .collect();
    for kernel in [ConvolutionKernel::Karatsuba, ConvolutionKernel::Fft] {
        let plan_with = |simd: SimdMode| {
            let options = EvalOptions::new().with_kernel(kernel).with_simd(simd);
            Engine::builder()
                .threads(0)
                .options(options)
                .build()
                .compile(p.clone())
        };
        let forced = plan_with(SimdMode::ForceWidth(4));
        let scalar = plan_with(SimdMode::Scalar);
        let lanes = forced.request(&batch).run().into_batch();
        assert_eq!(
            lanes.timings.simd_width, 1,
            "{kernel:?} has no lane tier; the batch must report scalar"
        );
        let reference = scalar.request(&batch).run().into_batch();
        for (s, l) in reference.instances.iter().zip(lanes.instances.iter()) {
            assert_eq!(s.value, l.value);
            assert_eq!(s.gradient, l.gradient);
        }
        let single = forced.request(&batch[0]).run().into_single();
        assert_eq!(
            single.timings.simd_width, 1,
            "{kernel:?} has no lane tier; a single input must report scalar"
        );
        let reference = scalar.request(&batch[0]).run().into_single();
        assert_eq!(reference.value, single.value);
        assert_eq!(reference.gradient, single.gradient);
    }
}

/// The lane rule covers every plan: a single input vector and every batch
/// size from 1 to 17, on a single polynomial and on a system, at each
/// forced width, pooled and sequential, bitwise against the scalar path.
/// Both plans have convolution layers whose job counts are not multiples of
/// the width, so panels mix jobs and instances and leave odd remainders.
#[test]
fn single_inputs_and_every_batch_size_match_scalar() {
    let (n, degree) = (5, 4);
    let mut rng = StdRng::seed_from_u64(1_700);
    let single: Polynomial<Dd> = random_polynomial(n, 7, 4, degree, &mut rng);
    let system: Vec<Polynomial<Dd>> = (0..3)
        .map(|_| random_polynomial(n, 5, 4, degree, &mut rng))
        .collect();
    let batch: Vec<Vec<Series<Dd>>> = (0..17)
        .map(|_| random_inputs::<Dd, _>(n, degree, &mut rng))
        .collect();
    let scalar = engine_with(SimdMode::Scalar);
    for width in SimdMode::SUPPORTED_WIDTHS {
        let lanes = engine_with(SimdMode::ForceWidth(width));
        let sources: [(&str, PolySource<Dd>); 2] = [
            ("single", single.clone().into()),
            ("system", system.clone().into()),
        ];
        for (what, source) in sources {
            let scalar_plan = scalar.compile(source.clone());
            let lane_plan = lanes.compile(source);
            let schedule = lane_plan.schedule().expect("compiled schedule");
            assert!(
                schedule
                    .convolution_layer_sizes()
                    .iter()
                    .any(|jobs| jobs % width != 0),
                "{what}: some layer must leave a remainder at width {width}"
            );
            let reference = scalar_plan.request(&batch[0]).run();
            for run in [
                lane_plan.request(&batch[0]).run(),
                lane_plan.request(&batch[0]).sequential().run(),
            ] {
                assert!(
                    reference.bitwise_eq(&run),
                    "{what}: single input differs at width {width}"
                );
                assert_eq!(run.timings().simd_width, expected_width(schedule, 1, width));
            }
            for size in 1..=batch.len() {
                let inputs = &batch[..size];
                let reference = scalar_plan.request(inputs).run();
                for run in [
                    lane_plan.request(inputs).run(),
                    lane_plan.request(inputs).sequential().run(),
                ] {
                    assert!(
                        reference.bitwise_eq(&run),
                        "{what}: batch of {size} differs at width {width}"
                    );
                    let want = expected_width(schedule, size, width);
                    assert_eq!(run.timings().simd_width, want, "{what}: batch of {size}");
                }
            }
        }
    }
}

/// `simd_width` reports what ran: the widest convolution layer of `c·x0·x1`
/// holds two jobs, so a single input at width 2 packs it into a panel while
/// width 8 leaves every job scalar; a plan without convolutions reports 0.
#[test]
fn simd_width_reports_what_ran() {
    let d = 3;
    let c = |x: f64| Series::constant(Dd::from_f64(x), d);
    let p = Polynomial::new(2, c(1.0), vec![Monomial::new(c(3.0), vec![0, 1])]);
    let mut rng = StdRng::seed_from_u64(1_750);
    let z = random_inputs::<Dd, _>(2, d, &mut rng);
    let width_of = |simd: SimdMode, p: &Polynomial<Dd>| {
        let plan = engine_with(simd).compile(p.clone());
        plan.request(&z).run().timings().simd_width
    };
    assert_eq!(width_of(SimdMode::ForceWidth(8), &p), 1);
    assert_eq!(width_of(SimdMode::ForceWidth(2), &p), 2);
    assert_eq!(width_of(SimdMode::Scalar, &p), 1);
    let constant = Polynomial::new(2, c(1.0), Vec::new());
    assert_eq!(width_of(SimdMode::ForceWidth(2), &constant), 0);
}
