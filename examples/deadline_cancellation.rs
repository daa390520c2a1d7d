//! Deadline propagation and in-flight cancellation, measured.
//!
//! Three demonstrations on one engine:
//!
//! 1. **Epoch-check overhead** — the same plan evaluated with and without
//!    a (never-tripped) `CancelToken` armed.  The token is polled before
//!    each block, never inside kernel arithmetic, so the armed median
//!    must sit in the unarmed run-to-run noise.
//! 2. **Abandon latency** — a token tripped from another thread while a
//!    launch is in flight; the launch abandons at the next block boundary
//!    and the wall clock from trip to return is reported.
//! 3. **Whole-window abandonment in the serving layer** — tickets parked
//!    with a deadline the launch cannot meet; the waiters detach, the
//!    window is abandoned, and the per-plan metrics show
//!    `cancelled_launches`, `detached_slots` and the abandon-latency
//!    histogram.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example deadline_cancellation -- [degree] [repeats]
//! ```
//!
//! The measured numbers quoted in EXPERIMENTS.md §12 come from this
//! example.

use psmd_bench::TestPolynomial;
use psmd_core::{CancelToken, Engine};
use psmd_multidouble::Dd;
use psmd_serve::{Request, ServeConfig, Service, ABANDON_BUCKET_LABELS};
use std::time::{Duration, Instant};

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let degree: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let repeats: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(20);
    let seed = 7;

    let engine = Engine::builder().build();
    let poly = TestPolynomial::P2;
    let plan = engine.compile(poly.build::<Dd>(degree, seed));
    let z = poly.inputs::<Dd>(degree, seed + 1);
    let mut out = plan.request(&z).run();

    // 1. Epoch-check overhead: armed-but-never-tripped vs unarmed.
    let token = CancelToken::new();
    let mut unarmed_ms = Vec::with_capacity(repeats);
    let mut armed_ms = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        plan.request(&z).into(&mut out).run();
        unarmed_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        plan.request(&z).cancel(&token).into(&mut out).run();
        armed_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let unarmed = median(unarmed_ms.clone());
    let armed = median(armed_ms);
    let spread = unarmed_ms.iter().cloned().fold(f64::MIN, f64::max)
        - unarmed_ms.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "epoch-check overhead ({} evaluations, degree {degree}):",
        repeats
    );
    println!("  unarmed median   {unarmed:8.3} ms   (run-to-run spread {spread:.3} ms)");
    println!(
        "  armed median     {armed:8.3} ms   (delta {:+.3} ms)",
        armed - unarmed
    );

    // 2. Abandon latency: trip the token mid-flight, time trip -> return.
    let batch: Vec<_> = (0..8).map(|_| z.clone()).collect();
    let mut batch_out = plan.request(&batch).run();
    let start = Instant::now();
    plan.request(&batch).into(&mut batch_out).run();
    let full = start.elapsed();
    let mut abandon_us = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let trip_token = token.clone();
        token.reset();
        let tripped_at = std::thread::scope(|scope| {
            let h = scope.spawn(move || {
                std::thread::sleep(full / 4);
                let at = Instant::now();
                trip_token.cancel();
                at
            });
            plan.request(&batch)
                .cancel(&token)
                .into(&mut batch_out)
                .run();
            h.join().expect("trip thread")
        });
        assert!(batch_out.timings().cancelled);
        abandon_us.push(tripped_at.elapsed().as_secs_f64() * 1e6);
    }
    println!(
        "abandon latency (8-wide launch, full {:.1} ms): median {:.0} us from trip to return",
        full.as_secs_f64() * 1e3,
        median(abandon_us)
    );

    // 3. Whole-window abandonment through the serving layer.
    let service = Service::new(Engine::builder().threads(0).build(), ServeConfig::default());
    let queue = service
        .register("demo", poly.build::<Dd>(degree, seed))
        .expect("register");
    let window_probe: Vec<_> = (0..8).map(|_| z.clone()).collect();
    let start = Instant::now();
    let _ = queue.plan().request(&window_probe).run();
    let window_cost = start.elapsed();
    let deadline = Instant::now() + (window_cost / 4).max(Duration::from_millis(10));
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            queue
                .submit_async(Request::new(z.clone()).deadline(deadline))
                .expect("submit")
        })
        .collect();
    std::thread::scope(|scope| {
        scope.spawn(|| queue.drain_now());
        for ticket in tickets {
            scope.spawn(move || {
                let _ = ticket.wait(); // DeadlineExceeded: the window died
            });
        }
    });
    let m = service.metrics("demo").expect("metrics");
    println!(
        "serve window: launches {} cancelled {} detached {} expired {}",
        m.launches, m.cancelled_launches, m.detached_slots, m.deadline_expired
    );
    let buckets: Vec<String> = ABANDON_BUCKET_LABELS
        .iter()
        .zip(m.abandon_histogram.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(label, n)| format!("{label}: {n}"))
        .collect();
    println!("abandon-latency histogram: {}", buckets.join(", "));
}
