//! Coalescing correctness of the serving layer: concurrent single-point
//! requests merged into batched launches return results bitwise identical
//! to private evaluations, backpressure rejects with `Busy`, deadlines are
//! enforced before launch, and the metrics counters prove launches were
//! actually saved.

use proptest::prelude::*;
use psmd_core::{random_inputs, random_polynomial, Engine, Evaluation, Polynomial};
use psmd_multidouble::{Coeff, Complex, Dd, Md, Qd, RandomCoeff};
use psmd_series::Series;
use psmd_serve::{Request, ServeConfig, ServeError, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn service_with(threads: usize, config: ServeConfig) -> Service {
    Service::new(Engine::builder().threads(threads).build(), config)
}

fn qd_case(seed: u64, n: usize, degree: usize) -> (Polynomial<Qd>, Vec<Vec<Series<Qd>>>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = random_polynomial::<Qd, _>(n, 3 * n, n.min(4), degree, &mut rng);
    let points = (0..8)
        .map(|_| random_inputs::<Qd, _>(n, degree, &mut rng))
        .collect();
    (p, points, rng)
}

/// K threads hit the barrier together and each submits one point; every
/// response must be bitwise identical to a private evaluation of the same
/// point, no matter how the requests got packed into launches.
fn check_concurrent_identity<C: Coeff + RandomCoeff>(
    seed: u64,
    threads: usize,
    clients: usize,
    n: usize,
    degree: usize,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = random_polynomial::<C, _>(n, 2 * n + 1, n.min(4), degree, &mut rng);
    let service = service_with(threads, ServeConfig::default());
    let queue = service.register("p", p).expect("register");
    let plan = queue.plan().clone();

    let points: Vec<Vec<Series<C>>> = (0..clients)
        .map(|_| random_inputs::<C, _>(n, degree, &mut rng))
        .collect();
    let references: Vec<Evaluation<C>> = points
        .iter()
        .map(|z| plan.request(z.as_slice()).run().into_single())
        .collect();

    let barrier = Barrier::new(clients);
    std::thread::scope(|scope| {
        for (i, (z, reference)) in points.iter().zip(references.iter()).enumerate() {
            let service = &service;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let response = service
                    .submit::<C>("p", Request::new(z.clone()))
                    .expect("submit");
                assert!(
                    response.coalesced >= 1,
                    "client {i}: coalesced batch size must count the request itself"
                );
                assert_eq!(
                    response.evaluation.value, reference.value,
                    "client {i}: coalesced value differs from private eval"
                );
                assert_eq!(
                    response.evaluation.gradient, reference.gradient,
                    "client {i}: coalesced gradient differs from private eval"
                );
            });
        }
    });

    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.submitted, clients as u64);
    assert_eq!(m.completed, clients as u64);
    assert_eq!(m.busy_rejected, 0);
    assert_eq!(m.deadline_expired, 0);
    // Every completed request rode in exactly one launch.
    assert_eq!(m.coalesced_total, m.completed);
    assert_eq!(m.launches + m.launches_saved, m.completed);
    assert_eq!(m.inflight, 0);
}

/// Bitwise identity across every supported precision, real and complex, on
/// a multi-worker engine.
#[test]
fn coalesced_results_bitwise_identical_all_precisions() {
    check_concurrent_identity::<Md<1>>(101, 2, 6, 4, 4);
    check_concurrent_identity::<Md<2>>(102, 2, 6, 4, 4);
    check_concurrent_identity::<Md<3>>(103, 2, 6, 4, 3);
    check_concurrent_identity::<Md<4>>(104, 2, 6, 4, 3);
    check_concurrent_identity::<Md<5>>(105, 2, 6, 3, 3);
    check_concurrent_identity::<Md<8>>(106, 2, 6, 3, 2);
    check_concurrent_identity::<Md<10>>(107, 2, 6, 3, 2);
    check_concurrent_identity::<Complex<Dd>>(108, 2, 6, 4, 3);
    check_concurrent_identity::<Complex<Qd>>(109, 2, 6, 3, 2);
}

/// A zero-worker engine serves correctly: evaluation happens on requester
/// threads, so no worker pool is needed at all.
#[test]
fn zero_worker_engine_serves_correctly() {
    check_concurrent_identity::<Qd>(301, 0, 6, 4, 4);
    check_concurrent_identity::<Dd>(302, 0, 4, 3, 3);
}

/// With more concurrent clients than the batch window is wide, closed-loop
/// traffic must coalesce: strictly fewer launches than requests, proven by
/// the counters (`launches + launches_saved == completed`).
#[test]
fn concurrent_clients_share_launches() {
    let (p, _, mut rng) = qd_case(401, 6, 5);
    let service = service_with(2, ServeConfig::default());
    service.register("p", p).expect("register");
    let clients = 8;
    let per_round = 24;
    let points: Vec<Vec<Series<Qd>>> = (0..clients)
        .map(|_| random_inputs::<Qd, _>(6, 5, &mut rng))
        .collect();

    // Coalescing depends on requests overlapping in time; retry a few
    // rounds until the counters prove at least one shared launch.
    let mut rounds = 0;
    loop {
        rounds += 1;
        let barrier = Barrier::new(clients);
        std::thread::scope(|scope| {
            for z in &points {
                let service = &service;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut request = Request::new(z.clone());
                    for _ in 0..per_round {
                        let response = service.submit::<Qd>("p", request).expect("submit");
                        let mut next = response.into_request();
                        next.inputs.clone_from_slice(z);
                        request = next;
                    }
                });
            }
        });
        let m = service.metrics("p").expect("metrics");
        assert_eq!(m.completed, (rounds * clients * per_round) as u64);
        assert_eq!(m.launches + m.launches_saved, m.completed);
        if m.launches_saved > 0 {
            assert!(
                m.launches < m.completed,
                "coalescing must save launches: {m:?}"
            );
            assert!(m.mean_batch() > 1.0);
            break;
        }
        assert!(
            rounds < 50,
            "8 concurrent closed-loop clients never shared a launch: {m:?}"
        );
    }
}

/// Staged load is deterministic: park K tickets in the queue, then drain —
/// the windows are exactly `ceil(K / max_batch)` FIFO slices.
#[test]
fn staged_tickets_drain_in_exact_windows() {
    let (p, points, _) = qd_case(501, 4, 3);
    let service = service_with(
        0,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let queue = service.register("p", p).expect("register");
    let plan = queue.plan().clone();
    let reference: Vec<Evaluation<Qd>> = (0..10)
        .map(|i| {
            plan.request(points[i % points.len()].as_slice())
                .run()
                .into_single()
        })
        .collect();

    let tickets: Vec<_> = (0..10)
        .map(|i| {
            service
                .submit_async::<Qd>("p", Request::new(points[i % points.len()].clone()))
                .expect("submit_async")
        })
        .collect();
    assert_eq!(queue.queue_depth(), 10);

    // The first wait becomes the leader and drains every parked request in
    // FIFO windows of `max_batch`: 4 + 4 + 2.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("wait");
        let want = if i < 8 { 4 } else { 2 };
        assert_eq!(response.coalesced, want, "ticket {i}");
        assert_eq!(response.evaluation.value, reference[i].value, "ticket {i}");
        assert_eq!(response.evaluation.gradient, reference[i].gradient);
    }

    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.launches, 3);
    assert_eq!(m.launches_saved, 7);
    assert_eq!(m.completed, 10);
    assert_eq!(m.batch_histogram[2], 2, "two windows of 4 in bucket 3-4");
    assert_eq!(m.batch_histogram[1], 1, "one window of 2 in bucket 2");
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.max_queue_depth, 10);
}

/// A batch window of 1 degenerates to one launch per request — still
/// correct, nothing saved.
#[test]
fn batch_window_of_one_never_coalesces() {
    let (p, points, _) = qd_case(601, 4, 3);
    let service = service_with(
        0,
        ServeConfig {
            max_batch: 1,
            max_inflight: 16,
            ..ServeConfig::default()
        },
    );
    service.register("p", p).expect("register");
    let tickets: Vec<_> = points
        .iter()
        .map(|z| {
            service
                .submit_async::<Qd>("p", Request::new(z.clone()))
                .expect("submit_async")
        })
        .collect();
    for ticket in tickets {
        let response = ticket.wait().expect("wait");
        assert_eq!(response.coalesced, 1);
    }
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.launches, 8);
    assert_eq!(m.launches_saved, 0);
    assert_eq!(m.batch_histogram[0], 8);
}

/// An already-expired deadline is rejected before any launch happens.
#[test]
fn expired_deadline_rejected_without_launch() {
    let (p, points, _) = qd_case(701, 4, 3);
    let service = service_with(0, ServeConfig::default());
    service.register("p", p).expect("register");
    let past = Instant::now()
        .checked_sub(Duration::from_secs(1))
        .unwrap_or_else(Instant::now);
    let err = service
        .submit::<Qd>("p", Request::new(points[0].clone()).deadline(past))
        .expect_err("expired deadline must be rejected");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err:?}");
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.launches, 0, "no launch may happen for an expired request");
    assert_eq!(m.deadline_expired, 1);
    assert_eq!(m.completed, 0);
    assert_eq!(m.inflight, 0);

    // A live deadline still evaluates normally.
    let response = service
        .submit::<Qd>(
            "p",
            Request::new(points[0].clone()).deadline(Instant::now() + Duration::from_secs(60)),
        )
        .expect("live deadline");
    assert_eq!(response.coalesced, 1);
}

/// Admission control: once `max_inflight` requests are parked, the next
/// submit is turned away with `Busy` — and admission frees up again once
/// the parked requests resolve.
#[test]
fn overload_returns_busy() {
    let (p, points, _) = qd_case(801, 4, 3);
    let service = service_with(
        0,
        ServeConfig {
            max_batch: 4,
            max_inflight: 2,
            ..ServeConfig::default()
        },
    );
    service.register("p", p).expect("register");
    let t0 = service
        .submit_async::<Qd>("p", Request::new(points[0].clone()))
        .expect("first admit");
    let t1 = service
        .submit_async::<Qd>("p", Request::new(points[1].clone()))
        .expect("second admit");
    let err = service
        .submit_async::<Qd>("p", Request::new(points[2].clone()))
        .expect_err("third must be rejected");
    match err {
        ServeError::Busy { inflight, limit } => {
            assert_eq!(inflight, 2);
            assert_eq!(limit, 2);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.busy_rejected, 1);
    assert_eq!(m.inflight, 2);

    t0.wait().expect("t0");
    t1.wait().expect("t1");
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.inflight, 0);
    // Capacity is free again.
    service
        .submit::<Qd>("p", Request::new(points[2].clone()))
        .expect("admitted after drain");
}

/// Dropping a ticket without waiting cancels the request cleanly; later
/// traffic is unaffected.
#[test]
fn dropped_ticket_cancels_cleanly() {
    let (p, points, _) = qd_case(901, 4, 3);
    let service = service_with(0, ServeConfig::default());
    let queue = service.register("p", p).expect("register");
    let ticket = service
        .submit_async::<Qd>("p", Request::new(points[0].clone()))
        .expect("submit_async");
    assert_eq!(queue.queue_depth(), 1);
    drop(ticket);
    assert_eq!(queue.queue_depth(), 0);
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.inflight, 0);
    assert_eq!(m.completed, 0);

    // Flushing the (now empty) queue is a no-op, and the queue still works.
    service.flush("p").expect("flush");
    let response = service
        .submit::<Qd>("p", Request::new(points[1].clone()))
        .expect("submit after cancel");
    assert_eq!(response.coalesced, 1);
}

/// Admission-time validation: wrong shapes, unknown plans, mismatched
/// coefficient types and unservable sources are all rejected before they
/// can reach a launch shared with other callers.
#[test]
fn malformed_requests_rejected_at_admission() {
    let (p, points, mut rng) = qd_case(1001, 4, 3);
    let service = service_with(0, ServeConfig::default());
    service.register("p", p.clone()).expect("register");

    // Wrong number of input series.
    let err = service
        .submit::<Qd>("p", Request::new(points[0][..2].to_vec()))
        .expect_err("wrong variable count");
    assert!(matches!(err, ServeError::Rejected(_)), "{err:?}");

    // Wrong truncation degree.
    let shallow = random_inputs::<Qd, _>(4, 2, &mut rng);
    let err = service
        .submit::<Qd>("p", Request::new(shallow))
        .expect_err("wrong degree");
    assert!(matches!(err, ServeError::Rejected(_)), "{err:?}");

    // Unknown plan id.
    let err = service
        .submit::<Qd>("nope", Request::new(points[0].clone()))
        .expect_err("unknown plan");
    assert!(matches!(err, ServeError::UnknownPlan(_)), "{err:?}");

    // Registered at Qd, asked for at Dd.
    let err = service.queue::<Dd>("p").expect_err("type mismatch");
    assert!(matches!(err, ServeError::Rejected(_)), "{err:?}");

    // System sources are rejected at registration.
    let system = vec![p.clone(), p];
    let err = service
        .register::<Qd>("sys", system)
        .expect_err("system source");
    assert!(matches!(err, ServeError::Rejected(_)), "{err:?}");

    // None of the rejections launched anything.
    let m = service.metrics("p").expect("metrics");
    assert_eq!(m.launches, 0);
    assert_eq!(m.completed, 0);
}

/// A system source is refused at registration, because a response carries
/// one polynomial's value and gradient, and it leaves no plan behind.
#[test]
fn system_sources_are_rejected_without_registering_a_plan() {
    let (p, _, _) = qd_case(1002, 4, 3);
    let service = service_with(0, ServeConfig::default());
    let err = service
        .register::<Qd>("sys", vec![p.clone(), p])
        .expect_err("a two-equation system");
    match &err {
        ServeError::Rejected(message) => assert!(message.contains("Jacobian"), "{message}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert!(service.plan_ids().is_empty());
    assert_eq!(service.engine().cache_stats().entries, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random polynomials and random concurrent clients, the
    /// coalesced responses are always bitwise identical to private
    /// evaluations.
    #[test]
    fn prop_coalesced_identity(
        seed in 0u64..1 << 20,
        n in 1usize..5,
        degree in 1usize..4,
        threads in 0usize..3,
    ) {
        check_concurrent_identity::<Dd>(seed, threads, 4, n, degree);
    }
}
