//! Consistency gates for the adaptive-precision path tracker.
//!
//! Four contracts, mirroring the guarantees the rest of the workspace
//! already enforces for the evaluation engine:
//!
//! 1. **Thread-invariance.**  Tracked endpoints are bitwise identical on
//!    0-, 1- and 4-worker engines — the tracker inherits the engine's
//!    determinism, and the control flow (steps, rejections, escalations) is
//!    identical too.
//! 2. **Batched == serial.**  Tracking all paths concurrently (one
//!    coalesced launch per corrector sweep) produces bitwise the same
//!    endpoints as tracking each path alone, with strictly fewer launches.
//! 3. **Deterministic escalation.**  A seeded family with an endpoint
//!    tolerance below the double-double roundoff floor escalates past 2d
//!    on every run, lands on the same precisions, and still converges.
//! 4. **Zero-allocation steady state.**  Once a cohort's buffers exist,
//!    corrector sweeps allocate nothing: a run with 4x the steps performs
//!    exactly as many heap allocations as a short run (construction,
//!    compilation and reporting are the same on both sides of the
//!    difference; escalation and recompilation are exempt by design and
//!    excluded here by tracking without escalation).  Rows at 1d, 2d and
//!    3d cover the `f64` corrector solves and their lift.
//!
//! On top of them, endpoints are checked against the closed-form roots of
//! each block, in triple-double, and the near-double-root family below
//! checks that corrections fall back to working-precision solves where an
//! `f64` factorization cannot carry them.

use psmd_core::{Engine, EvalOptions, SimdMode};
use psmd_multidouble::{Precision, Td};
use psmd_track::{HomotopySpec, MonomialSpec, PolySpec, TrackOptions, TrackOutcome, Tracker};

// Per-thread counting allocator, as in `workspace_alloc.rs`: zero-worker
// engines run every kernel inline on the measuring thread.
#[global_allocator]
static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;

/// Deterministic xorshift for seeded target constants.
struct XorShift(u64);

impl XorShift {
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One `{x + y − s, x·y − p}` block over variables `(x, x+1)`; `p < 0`
/// keeps the block's two real roots of opposite sign, so the real paths
/// never collide.
fn block(x: usize, s: f64, p: f64) -> Vec<PolySpec> {
    vec![
        PolySpec {
            constant: vec![-s],
            monomials: vec![
                MonomialSpec::constant_coeff(1.0, vec![x]),
                MonomialSpec::constant_coeff(1.0, vec![x + 1]),
            ],
        },
        PolySpec {
            constant: vec![-p],
            monomials: vec![MonomialSpec::constant_coeff(1.0, vec![x, x + 1])],
        },
    ]
}

/// The seeded target constants `(s, p)` of `m` blocks.
fn targets(m: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = XorShift(seed);
    (0..m)
        .map(|_| {
            let s = 0.1 + 0.8 * rng.next_unit();
            let p = -1.2 - 1.3 * rng.next_unit();
            (s, p)
        })
        .collect()
}

/// `m` seeded blocks: start roots ±1 per block, irrational target roots.
fn family(m: usize, seed: u64) -> HomotopySpec {
    let mut start = Vec::new();
    let mut target = Vec::new();
    for (k, (s, p)) in targets(m, seed).into_iter().enumerate() {
        start.extend(block(2 * k, 0.0, -1.0));
        target.extend(block(2 * k, s, p));
    }
    HomotopySpec::new(2 * m, 0, start, target)
}

/// An endpoint coordinate at full working precision, rounded to `Td`.
fn coordinate(limbs: &[f64]) -> Td {
    limbs.iter().fold(Td::zero(), |acc, &l| acc.add_f64(l))
}

/// The closed-form roots `(s ± √(s² − 4p)) / 2` of `z² − s·z + p`.
fn roots(s: f64, p: f64) -> [Td; 2] {
    let s = Td::from_f64(s);
    let disc = s.mul(&s).sub(&Td::from_f64(4.0 * p)).sqrt();
    [s.add(&disc).mul_f64(0.5), s.sub(&disc).mul_f64(0.5)]
}

fn relative(a: &Td, b: &Td) -> f64 {
    a.sub(b).abs().to_f64() / b.abs().to_f64()
}

/// Asserts that every block of every endpoint puts `x` on one closed-form
/// root and `y` on the other, to a relative `tol`.
fn assert_on_roots(outcome: &TrackOutcome, targets: &[(f64, f64)], tol: f64) {
    for r in &outcome.reports {
        for (k, &(s, p)) in targets.iter().enumerate() {
            let [r0, r1] = roots(s, p);
            let x = coordinate(&r.solution_limbs[2 * k][0]);
            let y = coordinate(&r.solution_limbs[2 * k + 1][0]);
            let straight = relative(&x, &r0).max(relative(&y, &r1));
            let crossed = relative(&x, &r1).max(relative(&y, &r0));
            let error = straight.min(crossed);
            assert!(
                error <= tol,
                "path {} block {k}: relative error {error:e} from the roots",
                r.path
            );
        }
    }
}

/// FNV-1a over the bits of every endpoint limb, in report order.
fn endpoint_hash(outcome: &TrackOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for r in &outcome.reports {
        for limb in r.solution_limbs.iter().flatten().flatten() {
            for byte in limb.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// The `2^m` sign patterns solving the start system.
fn start_solutions(m: usize) -> Vec<Vec<f64>> {
    (0..1usize << m)
        .map(|bits| {
            (0..m)
                .flat_map(|k| {
                    if bits >> k & 1 == 0 {
                        [1.0, -1.0]
                    } else {
                        [-1.0, 1.0]
                    }
                })
                .collect()
        })
        .collect()
}

/// Every observable of a run that must be invariant across engines.
#[allow(clippy::type_complexity)]
fn fingerprint(outcome: &TrackOutcome) -> Vec<(usize, usize, usize, Vec<Vec<Vec<f64>>>)> {
    outcome
        .reports
        .iter()
        .map(|r| {
            (
                r.steps,
                r.rejected_steps,
                r.corrector_iterations,
                r.solution_limbs.clone(),
            )
        })
        .collect()
}

#[test]
fn endpoints_are_bitwise_stable_across_threads() {
    let spec = family(4, 0x005e_ed0f_da7a_2026);
    let starts = start_solutions(4);
    let options = TrackOptions {
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(spec, options).unwrap();

    let reference = tracker
        .track(&Engine::builder().threads(0).build(), &starts)
        .unwrap();
    assert_eq!(reference.stats.converged, starts.len());

    for threads in [0, 1, 4] {
        let engine = Engine::builder().threads(threads).build();
        let run = tracker.track(&engine, &starts).unwrap();
        assert_eq!(
            fingerprint(&run),
            fingerprint(&reference),
            "drift at threads={threads}"
        );
        assert_eq!(run.stats, reference.stats);
    }

    // The default engine (which honors the PSMD_THREADS override the CI
    // matrix varies) agrees with the pinned reference too.
    let run = tracker.track(&Engine::builder().build(), &starts).unwrap();
    assert_eq!(fingerprint(&run), fingerprint(&reference));
}

#[test]
fn per_plan_eval_options_override_the_engine() {
    let spec = family(2, 99);
    let starts = start_solutions(2);
    let engine = Engine::builder().threads(0).build();
    let lanes = Tracker::new(spec.clone(), TrackOptions::default()).unwrap();
    let scalar = Tracker::new(
        spec,
        TrackOptions {
            eval: Some(EvalOptions::new().with_simd(SimdMode::Scalar)),
            ..TrackOptions::default()
        },
    )
    .unwrap();
    let a = lanes.track(&engine, &starts).unwrap();
    let b = scalar.track(&engine, &starts).unwrap();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn batched_tracking_matches_one_path_at_a_time_bitwise() {
    let spec = family(4, 0x005e_ed0f_da7a_2026);
    let starts = start_solutions(4);
    let options = TrackOptions {
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(spec, options).unwrap();
    let engine = Engine::builder().threads(0).build();

    let batched = tracker.track(&engine, &starts).unwrap();
    let mut serial_launches = 0;
    for (i, s) in starts.iter().enumerate() {
        let lone = tracker.track(&engine, std::slice::from_ref(s)).unwrap();
        serial_launches += lone.stats.corrector_launches;
        assert_eq!(
            lone.reports[0].solution_limbs, batched.reports[i].solution_limbs,
            "path {i} endpoint differs between batched and serial tracking"
        );
        assert_eq!(lone.reports[0].steps, batched.reports[i].steps);
        assert_eq!(
            lone.reports[0].escalations, batched.reports[i].escalations,
            "path {i} escalated differently alone"
        );
    }
    assert!(
        batched.stats.corrector_launches < serial_launches,
        "coalescing must save launches: batched {} vs serial {serial_launches}",
        batched.stats.corrector_launches
    );
}

#[test]
fn a_seeded_family_escalates_past_dd_and_converges() {
    let seed = 0x005e_ed0f_da7a_2026;
    let spec = family(4, seed);
    let starts = start_solutions(4);
    let options = TrackOptions {
        // Below the 1d (~4.4e-16) and 2d (~9.9e-32) roundoff floors: only
        // triple-double or wider can certify the endpoint.
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(spec, options).unwrap();
    let engine = Engine::builder().threads(0).build();
    let outcome = tracker.track(&engine, &starts).unwrap();

    assert_eq!(outcome.stats.converged, starts.len());
    let past_dd = outcome
        .reports
        .iter()
        .filter(|r| r.converged() && r.final_precision > Precision::D2)
        .count();
    assert!(past_dd >= 1, "no path escalated beyond double-double");
    for r in &outcome.reports {
        assert_eq!(r.start_precision, Precision::D1);
        assert!(r.final_residual <= 1e-40);
        assert_eq!(
            r.solution_limbs[0][0].len(),
            r.final_precision.limbs(),
            "endpoint limbs must be as wide as the final precision"
        );
    }
    // The ladder is deterministic: escalations land on 2d then 3d.
    assert_eq!(
        outcome
            .stats
            .escalations_by_precision
            .iter()
            .map(|(p, _)| *p)
            .collect::<Vec<_>>(),
        vec![Precision::D2, Precision::D3]
    );
    // A residual below 1e-40 puts each well-separated root within a
    // relative 1e-32 of its closed form.
    assert_on_roots(&outcome, &targets(4, seed), 1e-32);
}

#[test]
fn iterations_split_by_precision_and_solves_stay_in_f64() {
    let spec = family(4, 0x005e_ed0f_da7a_2026);
    let starts = start_solutions(4);
    let options = TrackOptions {
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(spec, options).unwrap();
    let outcome = tracker
        .track(&Engine::builder().threads(0).build(), &starts)
        .unwrap();
    let stats = &outcome.stats;
    assert_eq!(
        stats
            .iterations_by_precision
            .iter()
            .map(|(p, _)| *p)
            .collect::<Vec<_>>(),
        vec![Precision::D1, Precision::D2, Precision::D3]
    );
    let counts: Vec<usize> = stats
        .iterations_by_precision
        .iter()
        .map(|&(_, c)| c)
        .collect();
    assert_eq!(counts.iter().sum::<usize>(), stats.newton_iterations);
    // Paths reach 2d at the endgame, where the pivot-ratio signal sends
    // them on to 3d before any 2d correction: the middle rung runs no
    // iterations, and both ends do.
    assert!(counts[0] > 0 && counts[2] > 0, "{counts:?}");
    // Every Jacobian of this family is well conditioned: no solve needs
    // the working precision.
    assert_eq!(stats.working_precision_solves, 0);
}

#[test]
fn double_precision_endpoints_are_pinned() {
    // At 1d the f64 corrector solve performs the operations of the
    // working-precision solve in the same order, so the endpoints keep the
    // bits they had when every solve ran at the working precision.
    let seed = 0x005e_ed0f_da7a_2026;
    let starts = start_solutions(4);
    let options = TrackOptions {
        final_tolerance: 1e-8,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(family(4, seed), options).unwrap();
    let outcome = tracker
        .track(&Engine::builder().threads(0).build(), &starts)
        .unwrap();
    assert_eq!(outcome.stats.converged, starts.len());
    assert!(outcome.stats.escalations_by_precision.is_empty());
    assert_eq!(endpoint_hash(&outcome), 0x1725_b47d_bdd9_b715);
    assert_on_roots(&outcome, &targets(4, seed), 1e-8);
}

/// A tracker for one block whose target roots 1 and 1 + 2δ, δ = 2^-exponent,
/// are exact doubles.
fn near_double_roots(exponent: i32, tolerance: f64) -> Tracker {
    let delta = 2f64.powi(-exponent);
    let spec = HomotopySpec::new(
        2,
        0,
        block(0, 0.0, -1.0),
        block(0, 2.0 + 2.0 * delta, 1.0 + 2.0 * delta),
    );
    let options = TrackOptions {
        final_tolerance: tolerance,
        ..TrackOptions::default()
    };
    Tracker::new(spec, options).unwrap()
}

#[test]
fn near_double_roots_fall_back_to_working_precision_solves() {
    // One block whose target roots 1 and 1 + 2δ are exact doubles: the
    // Jacobian [[1, 1], [y, x]] at the endpoint has determinant ±2δ, so its
    // pivot ratio grows like 1/δ.  At δ = 2⁻⁴⁰ an f64 factorization would
    // leave the corrections about 12 good bits, and the solve must fall
    // back to the working precision to certify the endpoint.
    let engine = Engine::builder().threads(0).build();
    let starts = [vec![1.0, -1.0], vec![-1.0, 1.0]];
    let ladder = |top: Precision| -> Vec<Precision> {
        Precision::ALL
            .into_iter()
            .filter(|&p| p > Precision::D1 && p <= top)
            .collect()
    };
    let cases = [
        (20, 1e-40, Precision::D3),
        (20, 1e-60, Precision::D5),
        (30, 1e-40, Precision::D4),
        (30, 1e-60, Precision::D5),
        (40, 1e-40, Precision::D4),
        (40, 1e-60, Precision::D5),
    ];
    for (exponent, tolerance, top) in cases {
        let delta = 2f64.powi(-exponent);
        let outcome = near_double_roots(exponent, tolerance)
            .track(&engine, &starts)
            .unwrap();
        let case = format!("δ = 2^-{exponent}, tolerance {tolerance:e}");
        assert_eq!(outcome.stats.converged, 2, "{case}");
        let (near, far) = (Td::from_f64(1.0), Td::from_f64(1.0 + 2.0 * delta));
        for r in &outcome.reports {
            assert_eq!(r.escalations, ladder(top), "{case}, path {}", r.path);
            let x = coordinate(&r.solution_limbs[0][0]);
            let y = coordinate(&r.solution_limbs[1][0]);
            let distance = |a: &Td, b: &Td| a.sub(b).abs().to_f64();
            let straight = distance(&x, &near).max(distance(&y, &far));
            let crossed = distance(&x, &far).max(distance(&y, &near));
            assert!(
                straight.min(crossed) <= 1e-20,
                "{case}, path {}: endpoint {:e} from the roots",
                r.path,
                straight.min(crossed)
            );
        }
        if exponent == 40 {
            assert!(outcome.stats.working_precision_solves > 0, "{case}");
        }
    }
}

#[test]
fn near_double_root_fallbacks_are_thread_invariant() {
    // The δ = 2⁻⁴⁰ cases take working-precision fallback solves, each on
    // the scratch of whichever pool participant runs the lane's step.  The
    // endpoints, every report field and the stats must not depend on the
    // worker count.
    let starts = [vec![1.0, -1.0], vec![-1.0, 1.0]];
    for tolerance in [1e-40, 1e-60] {
        let tracker = near_double_roots(40, tolerance);
        let reference = tracker
            .track(&Engine::builder().threads(0).build(), &starts)
            .unwrap();
        assert_eq!(reference.stats.converged, 2, "tolerance {tolerance:e}");
        assert!(reference.stats.working_precision_solves > 0);
        for threads in [1, 4] {
            let run = tracker
                .track(&Engine::builder().threads(threads).build(), &starts)
                .unwrap();
            // Debug prints every f64 in its shortest round-trip form, so
            // equal strings mean equal bits in every field.
            assert_eq!(
                format!("{:?}", run.reports),
                format!("{:?}", reference.reports),
                "tolerance {tolerance:e}, threads = {threads}"
            );
            assert_eq!(
                run.stats, reference.stats,
                "tolerance {tolerance:e}, threads = {threads}"
            );
        }
    }
}

#[test]
fn steady_state_corrector_sweeps_are_allocation_free() {
    // Two runs of the same family on one engine, differing only in step
    // size: the long run takes 4x the steps (and so issues 4x the corrector
    // sweeps), while construction, plan compilation (warmed below, cached
    // thereafter) and reporting are identical.  Any per-sweep or per-step
    // heap traffic would make the long run allocate more; the difference
    // must be exactly zero, inline and on a pool.  Escalation — which
    // legitimately rebuilds lanes at a wider type — is exempt from the
    // contract and excluded here by a tolerance the start precision
    // reaches.  At 2d and 3d every correction is solved in f64 and lifted,
    // so those rows gate the rounding, the lift and the cohort's scratch.
    // `measure_allocs` counts only the measuring thread (see
    // `crates/bench/src/alloc_counter.rs`), and on a pool the lane steps
    // run on every participant.  So the 0-worker rows, which run every lane
    // step on the measuring thread, are the ones that gate the lane step
    // itself; the 1- and 4-worker rows gate the launcher's share.
    let spec = family(2, 7);
    let starts = start_solutions(2);
    let rows = [
        (Precision::D1, 1e-8),
        (Precision::D2, 1e-20),
        (Precision::D3, 1e-30),
    ];
    for ((precision, tolerance), threads) in rows
        .into_iter()
        .flat_map(|row| [0, 1, 4].map(|threads| (row, threads)))
    {
        let tracker_with_step = |step: f64| {
            Tracker::new(
                spec.clone(),
                TrackOptions {
                    start_precision: precision,
                    corrector_tolerance: tolerance,
                    final_tolerance: tolerance,
                    initial_step: step,
                    max_step: step,
                    ..TrackOptions::default()
                },
            )
            .unwrap()
        };
        let short = tracker_with_step(0.25);
        let long = tracker_with_step(0.0625);
        let row = format!("{} at {threads} workers", precision.label());
        let engine = Engine::builder().threads(threads).build();
        // Warm the engine's plan cache so neither measured run compiles.
        let outcome = short.track(&engine, &starts).unwrap();
        assert_eq!(outcome.stats.converged, starts.len());

        let mut runs = [(&short, 0u64, 0usize), (&long, 0u64, 0usize)];
        for (tracker, allocs, launches) in runs.iter_mut() {
            let mut outcome = None;
            let counts = psmd_bench::measure_allocs(|| {
                outcome = Some(tracker.track(&engine, &starts).unwrap());
            });
            let outcome = outcome.unwrap();
            assert_eq!(outcome.stats.converged, starts.len());
            assert!(outcome.stats.escalations_by_precision.is_empty());
            *allocs = counts.allocs;
            *launches = outcome.stats.corrector_launches;
        }
        let [(_, short_allocs, short_launches), (_, long_allocs, long_launches)] = runs;
        assert!(
            long_launches >= short_launches + 8,
            "{row}: the long run must issue many more sweeps \
             ({short_launches} vs {long_launches})"
        );
        let steady_allocs = long_allocs.saturating_sub(short_allocs);
        assert_eq!(
            steady_allocs, 0,
            "{row}: corrector sweeps allocate: {short_allocs} allocs over \
             {short_launches} launches vs {long_allocs} over {long_launches}"
        );
        assert_eq!(
            long_allocs, short_allocs,
            "{row}: sweep count must not change heap traffic at all"
        );
    }
}
