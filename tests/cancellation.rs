//! Deadline propagation and in-flight cancellation, end to end: a
//! cooperative [`CancelToken`] armed on an [`EvalRequest`] abandons the
//! launch at the next block boundary on pools of any width; the abandoned
//! run marks itself in the timings, leaves the borrowed workspace clean
//! (the next uncancelled evaluation is bitwise correct and allocation
//! free), and the serving layer turns the same mechanism into
//! whole-window abandonment — observable as
//! `MetricsSnapshot::cancelled_launches` — when every waiter of a
//! coalesced window has given up.
//!
//! The tests that need a launch to be *slower than a deadline* calibrate
//! themselves: they probe one uncancelled evaluation and derive the
//! deadline (and the mid-flight trip point) from the measured duration,
//! so the assertions hold on debug and release builds alike.

use psmd_core::{random_inputs, random_polynomial, CancelToken, Engine, Polynomial};
use psmd_multidouble::Dd;
use psmd_series::Series;
use psmd_serve::{Request, ServeConfig, ServeError, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Per-thread counting allocator, as in `workspace_alloc.rs`: the
// zero-worker engine under test runs every kernel inline on the measuring
// thread.
#[global_allocator]
static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;

/// A polynomial heavy enough that one evaluation takes a measurable time:
/// the probe loop below grows the truncation degree until an uncancelled
/// run clears `floor`.
fn slow_case(seed: u64) -> (Polynomial<Dd>, Vec<Series<Dd>>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let degree = 24;
    let p = random_polynomial::<Dd, _>(8, 48, 4, degree, &mut rng);
    let z = random_inputs::<Dd, _>(8, degree, &mut rng);
    (p, z, degree)
}

/// Measures an uncancelled launch of the same point batched, doubling the
/// batch until the launch takes at least `floor` (so a deadline derived
/// from the measurement is guaranteed to land mid-flight).  Returns the
/// calibrated batch and its measured duration.
fn calibrate(
    plan: &Arc<psmd_core::Plan<Dd>>,
    z: &[Series<Dd>],
    floor: Duration,
    min_len: usize,
) -> (Vec<Vec<Series<Dd>>>, Duration) {
    let mut batch: Vec<Vec<Series<Dd>>> = (0..min_len.max(1)).map(|_| z.to_vec()).collect();
    loop {
        let start = Instant::now();
        let _ = plan.request(&batch).run();
        let took = start.elapsed();
        if took >= floor || batch.len() >= 64 {
            return (batch, took);
        }
        let target = batch.len() * 2;
        while batch.len() < target {
            batch.push(z.to_vec());
        }
    }
}

/// A pre-tripped token abandons the launch before any block runs, on
/// pools of every width; the very next
/// uncancelled request on the same plan (same pooled workspace) is
/// bitwise identical to a reference evaluation.
#[test]
fn pre_tripped_token_abandons_launch_on_any_pool() {
    let (p, z, _) = slow_case(41);
    for threads in [0usize, 1, 4] {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(p.clone());
        let reference = plan.request(&z).run();
        assert!(!reference.timings().cancelled);

        let token = CancelToken::new();
        token.cancel();
        let out = plan.request(&z).cancel(&token).run();
        assert!(
            out.timings().cancelled,
            "threads={threads}: pre-tripped token not observed"
        );

        // The abandoned run returned its workspace clean: the next
        // uncancelled run reuses it and must not drift by a bit.
        let after = plan.request(&z).run();
        assert!(
            reference.bitwise_eq(&after),
            "threads={threads}: results drifted after abandonment"
        );

        // A reset token no longer cancels.
        token.reset();
        let rearmed = plan.request(&z).cancel(&token).run();
        assert!(!rearmed.timings().cancelled);
        assert!(reference.bitwise_eq(&rearmed));
    }
}

/// A token tripped from another thread *while the launch is in flight*
/// abandons it mid-run: the timings say so, and the wall clock proves the
/// launch did not run to completion.
#[test]
fn mid_flight_trip_abandons_launch() {
    let (p, z, _) = slow_case(43);
    for threads in [0usize, 1, 4] {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(p.clone());
        let (batch, full) = calibrate(&plan, &z, Duration::from_millis(80), 1);
        let trip_after = full / 8;

        let token = CancelToken::new();
        let remote = token.clone();
        let out = std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(trip_after);
                remote.cancel();
            });
            plan.request(&batch).cancel(&token).run()
        });
        assert!(
            out.timings().cancelled,
            "threads={threads}: mid-flight trip not observed (full={full:?})"
        );

        // Same plan, same pooled workspace: still bitwise correct.
        let reference = plan.request(&z).run();
        let after = plan.request(&z).run();
        assert!(reference.bitwise_eq(&after));
    }
}

/// After an abandoned launch, the reused-output steady state is still
/// allocation-free — the cancelled run neither leaked nor poisoned the
/// pooled workspace — and arming a token allocates nothing either, inline
/// or on a pool.
#[test]
fn cancelled_launch_keeps_steady_state_allocation_free() {
    let (p, z, _) = slow_case(47);
    for threads in [0, 1] {
        let engine = Engine::builder().threads(threads).build();
        let plan = engine.compile(p.clone());
        let reference = plan.request(&z).run();
        let mut out = plan.request(&z).run();
        plan.request(&z).into(&mut out).run();
        let token = CancelToken::new();

        let counts = psmd_bench::measure_allocs(|| {
            for _ in 0..3 {
                token.cancel();
                plan.request(&z).cancel(&token).into(&mut out).run();
                token.reset();
                plan.request(&z).cancel(&token).into(&mut out).run();
            }
        });
        assert_eq!(
            counts.allocs, 0,
            "{threads}w: cancel-armed steady state allocated ({} B)",
            counts.bytes
        );
        assert_eq!(counts.deallocs, 0, "{threads}w: cancel-armed deallocations");
        assert!(reference.bitwise_eq(&out), "{threads}w: results drifted");
    }
}

/// The serving layer's whole-window abandonment, deterministically: a
/// window whose every member shares one already-hopeless deadline is
/// cancelled mid-flight by the first waiter to notice, the launch is
/// abandoned, every member resolves to `DeadlineExceeded`, and the queue
/// keeps serving afterwards.
#[test]
fn whole_window_abandonment_is_observable_in_metrics() {
    let (p, z, _) = slow_case(53);
    let engine = Engine::builder().threads(0).build();
    let service = Service::new(
        engine,
        ServeConfig {
            max_batch: 64,
            max_inflight: 128,
            default_deadline: None,
        },
    );
    let queue = service.register("slow", p).expect("register");
    // Calibrate a window wide enough that its launch takes >= 120ms (with
    // at least two members, so the max-deadline trip path works even when
    // a waiter wins leadership); the shared deadline is then comfortably
    // valid at staging time and comfortably hopeless for the launch.
    let (batch, window_cost) = calibrate(queue.plan(), &z, Duration::from_millis(120), 2);
    let k = batch.len();
    let deadline = Instant::now() + window_cost / 4;

    let tickets: Vec<_> = batch
        .iter()
        .map(|point| {
            queue
                .submit_async(Request::new(point.clone()).deadline(deadline))
                .expect("submit_async")
        })
        .collect();
    std::thread::scope(|scope| {
        // A driver with no stake drains the queue; every ticket waiter is
        // then a follower that can detach.  (If a waiter wins leadership
        // instead, the max-deadline trip path fires — same observable
        // outcome.)
        scope.spawn(|| queue.drain_now());
        for ticket in tickets {
            scope.spawn(move || {
                let result = ticket.wait();
                assert!(
                    matches!(result, Err(ServeError::DeadlineExceeded)),
                    "expected DeadlineExceeded, got {result:?}"
                );
            });
        }
    });

    let m = service.metrics("slow").expect("metrics");
    assert_eq!(m.launches, 1, "the window must have launched");
    assert_eq!(
        m.cancelled_launches, 1,
        "the launch must have been abandoned"
    );
    assert!(m.detached_slots >= 1, "some waiter must have detached");
    assert_eq!(m.completed, 0);
    assert_eq!(m.deadline_expired, k as u64);
    assert_eq!(m.busy_rejected, 0);
    assert_eq!(
        m.completed + m.deadline_expired + m.busy_rejected,
        m.submitted
    );
    let aborted_histogram: u64 = m.abandon_histogram.iter().sum();
    assert_eq!(aborted_histogram, 1, "abandon latency must be recorded");

    // The queue survives the abandonment: a fresh deadline-free request
    // completes and matches a private evaluation bitwise.
    let reference = queue.plan().request(&z).run().into_single();
    let response = service
        .submit::<Dd>("slow", Request::new(z.clone()))
        .expect("post-abandon submit");
    assert_eq!(response.evaluation.value, reference.value);
    assert_eq!(response.evaluation.gradient, reference.gradient);
    let m = service.metrics("slow").expect("metrics");
    assert_eq!(m.completed, 1);
    assert_eq!(m.cancelled_launches, 1, "no further abandonment");
}

/// A ticket that detached mid-flight resolves to `DeadlineExceeded` and
/// can be dropped without disturbing the queue: the in-flight window
/// still scatters, surviving waiters still get their bits, and the
/// inflight accounting returns to zero.
#[test]
fn ticket_dropped_after_detach_keeps_queue_consistent() {
    let (p, z, _) = slow_case(59);
    let engine = Engine::builder().threads(0).build();
    let service = Service::new(
        engine,
        ServeConfig {
            // Admit the whole calibrated batch (`calibrate` caps at 64)
            // into ONE window: the `launches == 1` assertion below is the
            // single-window premise of the test, not a coalescing claim.
            max_batch: 64,
            max_inflight: 64,
            default_deadline: None,
        },
    );
    let queue = service.register("slow", p).expect("register");
    // Calibrate so the (doomed + patients) window outlives the doomed
    // waiter's deadline by a wide margin.
    let (batch, window_cost) = calibrate(queue.plan(), &z, Duration::from_millis(120), 2);
    let patients = batch.len() - 1;

    // One doomed ticket among patient ones: the window has members
    // without deadlines, so the whole-window cancel must NOT fire — the
    // doomed waiter detaches alone, its slot is discarded during the
    // leader's scatter, and every patient waiter still gets its bits.
    // (The deadline is computed right before submission: anything earlier
    // and the reference evaluation above would eat the budget.)
    let reference = queue.plan().request(&z).run().into_single();
    let deadline = Instant::now() + window_cost / 4;
    let doomed = queue
        .submit_async(Request::new(z.clone()).deadline(deadline))
        .expect("submit doomed");
    let patient_tickets: Vec<_> = (0..patients)
        .map(|_| {
            queue
                .submit_async(Request::new(z.clone()))
                .expect("submit patient")
        })
        .collect();
    std::thread::scope(|scope| {
        scope.spawn(|| queue.drain_now());
        let reference = &reference;
        scope.spawn(move || {
            // Let the driver (or a patient) take leadership first: if the
            // doomed waiter led the drain itself it could never detach.
            std::thread::sleep(window_cost / 8);
            let result = doomed.wait();
            assert!(matches!(result, Err(ServeError::DeadlineExceeded)));
            // `doomed` resolved and drops here, after its detach.
        });
        for patient in patient_tickets {
            scope.spawn(move || {
                let response = patient.wait().expect("patient waiter must complete");
                assert_eq!(response.evaluation.value, reference.value);
                assert_eq!(response.evaluation.gradient, reference.gradient);
            });
        }
    });

    let m = service.metrics("slow").expect("metrics");
    assert_eq!(m.launches, 1);
    assert_eq!(
        m.cancelled_launches, 0,
        "a deadline-free member pins the window"
    );
    assert_eq!(m.detached_slots, 1);
    assert_eq!(m.completed, patients as u64);
    assert_eq!(m.deadline_expired, 1);
    assert_eq!(
        m.completed + m.deadline_expired + m.busy_rejected,
        m.submitted
    );

    // Dropping an unresolved *in-flight* ticket is also safe: the drop
    // glue waits for the leader's terminal write and the result is
    // discarded.  (`launches` increments before the evaluation runs, so
    // spinning on it guarantees the slot is Taken when the drop starts.)
    let launches_before = m.launches;
    let throwaway = queue
        .submit_async(Request::new(z.clone()))
        .expect("submit throwaway");
    std::thread::scope(|scope| {
        scope.spawn(|| queue.drain_now());
        while service.metrics("slow").expect("metrics").launches == launches_before {
            std::thread::yield_now();
        }
        drop(throwaway);
    });
    let m = service.metrics("slow").expect("metrics");
    assert_eq!(m.inflight, 0, "dropped ticket leaked inflight accounting");
    assert_eq!(
        m.completed + m.deadline_expired + m.busy_rejected,
        m.submitted
    );
}

/// Stress the detach/scatter race: many rounds of concurrent blocking
/// submits with a mix of absent, generous and hopeless deadlines.  Every
/// submit must resolve (no hangs), every rejection must be a deadline or
/// admission rejection, and the accounting identity must hold at the end
/// no matter where each deadline landed relative to its window's
/// staging and scatter.
#[test]
fn detach_scatter_race_preserves_accounting() {
    let mut rng = StdRng::seed_from_u64(61);
    let degree = 8;
    let p = random_polynomial::<Dd, _>(6, 12, 3, degree, &mut rng);
    let engine = Engine::builder().threads(0).build();
    let service = Service::new(
        engine,
        ServeConfig {
            max_batch: 4,
            max_inflight: 64,
            default_deadline: None,
        },
    );
    service.register("racy", p).expect("register");
    let z = random_inputs::<Dd, _>(6, degree, &mut rng);

    let clients = 8;
    let rounds = 25;
    std::thread::scope(|scope| {
        for c in 0..clients {
            let service = &service;
            let z = &z;
            scope.spawn(move || {
                for r in 0..rounds {
                    let mut request = Request::new(z.clone());
                    // Cycle through: no deadline, a hopeless one (already
                    // expired), and one that lands around launch time.
                    match (c + r) % 3 {
                        0 => {}
                        1 => request = request.deadline(Instant::now()),
                        _ => {
                            request = request.deadline(Instant::now() + Duration::from_micros(200))
                        }
                    }
                    match service.submit::<Dd>("racy", request) {
                        Ok(_) | Err(ServeError::DeadlineExceeded) => {}
                        Err(ServeError::Busy { .. }) => {}
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
            });
        }
    });

    let m = service.metrics("racy").expect("metrics");
    assert_eq!(m.submitted, (clients * rounds) as u64);
    assert_eq!(
        m.completed + m.deadline_expired + m.busy_rejected,
        m.submitted,
        "accounting identity violated under the detach/scatter race"
    );
    assert!(m.completed > 0, "some requests must have completed");
}
