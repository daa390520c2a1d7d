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
//!    excluded here by tracking without escalation).

use psmd_core::{Engine, EvalOptions, SimdMode};
use psmd_multidouble::Precision;
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

/// `m` seeded blocks: start roots ±1 per block, irrational target roots.
fn family(m: usize, seed: u64) -> HomotopySpec {
    let mut rng = XorShift(seed);
    let mut start = Vec::new();
    let mut target = Vec::new();
    for k in 0..m {
        let s = 0.1 + 0.8 * rng.next_unit();
        let p = -1.2 - 1.3 * rng.next_unit();
        start.extend(block(2 * k, 0.0, -1.0));
        target.extend(block(2 * k, s, p));
    }
    HomotopySpec::new(2 * m, 0, start, target)
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
    let spec = family(4, 0x005e_ed0f_da7a_2026);
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
    // contract and excluded here by a tolerance every precision can reach.
    let spec = family(2, 7);
    let starts = start_solutions(2);
    let tracker_with_step = |step: f64| {
        Tracker::new(
            spec.clone(),
            TrackOptions {
                corrector_tolerance: 1e-8,
                final_tolerance: 1e-8,
                initial_step: step,
                max_step: step,
                ..TrackOptions::default()
            },
        )
        .unwrap()
    };
    let short = tracker_with_step(0.25);
    let long = tracker_with_step(0.0625);

    for threads in [0, 1] {
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
            "{threads} workers: the long run must issue many more sweeps \
             ({short_launches} vs {long_launches})"
        );
        let steady_allocs = long_allocs.saturating_sub(short_allocs);
        assert_eq!(
            steady_allocs, 0,
            "{threads} workers: corrector sweeps allocate: {short_allocs} allocs over \
             {short_launches} launches vs {long_allocs} over {long_launches}"
        );
        assert_eq!(
            long_allocs, short_allocs,
            "{threads} workers: sweep count must not change heap traffic at all"
        );
    }
}
