//! The open-loop serving workload: single-point requests arrive at an
//! in-process `Service` on a seeded Poisson schedule.  One thread submits
//! (`submit_async`) at each request's due time; one thread waits on the
//! tickets in order and so becomes the coalescing leader.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psmd_core::{Engine, Evaluation, Plan};
use psmd_multidouble::Dd;
use psmd_series::Series;
use psmd_serve::{Request, ServeConfig, ServeError, Service, Ticket};

use crate::check::eval_bits_eq;
use crate::gen::{Rng, TestPoly};
use crate::report::Report;
use crate::stats::{median, quantile_sorted, sorted, summarize};
use crate::trace::Tracer;
use crate::{Ctx, SETUPS};

pub const PLAN_ID: &str = "p3";
pub const DEGREE: usize = 8;
/// Distinct request points (their private references are computed once).
const POINTS: usize = 32;
/// The fixed offered-rate ladder: 5 to about 1,000 requests per second,
/// 10% apart.
pub fn ladder() -> Vec<f64> {
    (0..56).map(|j| 5.0 * 1.1f64.powi(j)).collect()
}
/// Ladder rung of the latency measurement (`latency_p50_ms`/`_p99_ms`):
/// 9.74 requests per second, about a fifth of what one scalar launch per
/// request can serve.
const REF_RUNG: usize = 7;
/// Length of one ladder probe (at least `PROBE_MIN_ARRIVALS` arrivals),
/// and the percentile a probe is judged on.
const PROBE_SECS: f64 = 2.0;
const PROBE_MIN_ARRIVALS: f64 = 30.0;
const PROBE_PERCENTILE: f64 = 0.9;
/// A probe stops (and fails) once this many requests are outstanding, well
/// below the service's admission limit, so the search never provokes
/// `Busy` rejections.
const STOP_BACKLOG: u64 = 64;
/// A phase keeps up when it completes at least this share of the offered
/// rate over its span.
const KEEP_UP: f64 = 0.95;

pub struct Prepared {
    pub service: Service,
    pub plan: Arc<Plan<Dd>>,
    pub points: Vec<Vec<Series<Dd>>>,
    refs: Vec<Evaluation<Dd>>,
    pub setup_s: Vec<f64>,
    pub compile_s: Vec<f64>,
}

pub fn prepare(ctx: &Ctx) -> Prepared {
    let poly = TestPoly::P3.build::<2>(DEGREE, ctx.seed);
    let points = TestPoly::P3.points::<2>(DEGREE, POINTS, ctx.seed);
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let source = poly.clone();
        let request = Request::new(points[0].clone());
        let t0 = Instant::now();
        let engine = Engine::builder()
            .try_build()
            .expect("default engine builds");
        let service = Service::new(engine, ServeConfig::default());
        let tc = Instant::now();
        service.register(PLAN_ID, source).expect("p3 registers");
        compile_s.push(tc.elapsed().as_secs_f64());
        let first = service
            .submit(PLAN_ID, request)
            .expect("first request served");
        setup_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(first);
        built = Some(service);
    }
    let service = built.expect("at least one setup");
    let plan = service.plan::<Dd>(PLAN_ID).expect("registered plan");
    let refs = points
        .iter()
        .map(|z| plan.request(z).sequential().run().into_single())
        .collect();
    Prepared {
        service,
        plan,
        points,
        refs,
        setup_s,
        compile_s,
    }
}

/// What one offered-rate phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub rate: f64,
    /// Due time to reply, per request (infinite for a failed request).
    pub latency_s: Vec<f64>,
    pub admit_s: Vec<f64>,
    pub wait_s: Vec<f64>,
    /// How late the generator submitted each request.
    pub lateness_s: Vec<f64>,
    pub failed: u64,
    /// From the phase's start to its last reply.
    pub wall_s: f64,
    pub backlog_max: u64,
    backlog_first_half: u64,
    backlog_end: u64,
    stopped: bool,
}

impl Phase {
    /// Meets the latency limit at percentile `q` without a growing
    /// backlog: the backlog at the end is no larger than the first half's
    /// largest plus one coalescing window.
    pub fn sustained(&self, q: f64, limit_s: f64, window: u64) -> bool {
        let n = self.latency_s.len() as f64;
        !self.stopped
            && self.failed == 0
            && n > 0.0
            && quantile_sorted(&sorted(&self.latency_s), q) <= limit_s
            && self.backlog_end <= self.backlog_first_half + window
            && n / self.wall_s >= KEEP_UP * self.rate
    }
}

struct Sent {
    id: u64,
    point: usize,
    due: Instant,
    ticket: Result<Ticket<Dd>, ServeError>,
}

/// Offers `arrivals` requests at `rate` per second (Poisson arrivals from
/// `rng`), waits for every reply and checks each one bitwise against its
/// point's private reference.
pub fn offer(
    prep: &Prepared,
    tracer: &Tracer,
    phase: &'static str,
    rng: &mut Rng,
    rate: f64,
    arrivals: usize,
) -> Phase {
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut out = Phase {
        rate,
        ..Phase::default()
    };
    // A Poisson process conditioned on `arrivals` events in the phase's
    // span: the arrival times are sorted independent uniforms.
    let span = arrivals as f64 / rate;
    let mut due_offsets: Vec<f64> = (0..arrivals).map(|_| rng.unit() * span).collect();
    due_offsets.sort_by(f64::total_cmp);
    let half = arrivals / 2;
    let picks: Vec<usize> = due_offsets
        .iter()
        .map(|_| (rng.next_u64() % prep.points.len() as u64) as usize)
        .collect();
    let root = tracer.open("bench.phase", None, None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let mut admit_s = Vec::with_capacity(due_offsets.len());
            let mut lateness_s = Vec::with_capacity(due_offsets.len());
            let (mut backlog_max, mut first_half, mut backlog) = (0u64, 0u64, 0u64);
            let mut stopped = false;
            for (i, (&offset, &point)) in due_offsets.iter().zip(&picks).enumerate() {
                let request = Request::new(prep.points[point].clone());
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lateness_s.push(Instant::now().duration_since(due).as_secs_f64());
                let id = i as u64;
                let admit = tracer.open("serve.admit", Some(root.id), Some(id));
                let ticket = prep.service.submit_async(PLAN_ID, request);
                admit_s.push(tracer.close(admit, phase));
                backlog = i as u64 + 1 - completed.load(Ordering::Acquire);
                backlog_max = backlog_max.max(backlog);
                if i < half {
                    first_half = backlog_max;
                }
                tx.send(Sent {
                    id,
                    point,
                    due,
                    ticket,
                })
                .expect("the waiter outlives the submitter");
                if backlog >= STOP_BACKLOG {
                    stopped = true;
                    break;
                }
            }
            drop(tx);
            (
                admit_s,
                lateness_s,
                backlog_max,
                first_half,
                backlog,
                stopped,
            )
        });
        for sent in rx {
            let result = match sent.ticket {
                Ok(ticket) => {
                    let wait = tracer.open("serve.wait", Some(root.id), Some(sent.id));
                    let r = ticket.wait();
                    out.wait_s.push(tracer.close(wait, phase));
                    r
                }
                Err(e) => Err(e),
            };
            let latency = Instant::now().duration_since(sent.due).as_secs_f64();
            match result {
                Ok(resp) if eval_bits_eq(&resp.evaluation, &prep.refs[sent.point]) => {
                    out.latency_s.push(latency);
                }
                _ => {
                    out.failed += 1;
                    out.latency_s.push(f64::INFINITY);
                }
            }
            completed.fetch_add(1, Ordering::Release);
        }
        out.wall_s = start.elapsed().as_secs_f64();
        let (admit_s, lateness_s, backlog_max, first_half, backlog_end, stopped) =
            submitter.join().expect("the submitter does not panic");
        out.admit_s = admit_s;
        out.lateness_s = lateness_s;
        out.backlog_max = backlog_max;
        out.backlog_first_half = first_half;
        out.backlog_end = backlog_end;
        out.stopped = stopped;
    });
    tracer.close(root, phase);
    out
}

/// Offers the reference rate for `secs`, after a short warm-up.
pub fn reference(ctx: &Ctx, prep: &Prepared, secs: f64, phase: &'static str) -> Phase {
    let tracer = ctx.tracer_for(phase);
    let mut rng = Rng::new(ctx.seed, 4);
    let rate = ladder()[REF_RUNG];
    let arrivals = (rate * secs).round().max(1.0) as usize;
    offer(prep, tracer, "warmup", &mut rng, rate, 8);
    offer(prep, tracer, phase, &mut rng, rate, arrivals)
}

fn window(prep: &Prepared) -> u64 {
    prep.service.config().max_batch as u64
}

/// Bisects the fixed ladder above (or, when the reference rung failed,
/// below) the reference rung; returns the probes and the highest rung that
/// passed (0 when none did).
pub fn ladder_search(
    ctx: &Ctx,
    prep: &Prepared,
    phase: &'static str,
    reference_passed: bool,
) -> (Vec<Phase>, f64) {
    let tracer = ctx.tracer_for(phase);
    let mut rng = Rng::new(ctx.seed, 5);
    let limit_s = ctx.p99_limit_ms * 1e-3;
    let rates = ladder();
    // `lo` is the highest rung known sustained, `hi` the lowest known not
    // to be (one past the top until a probe fails).
    let (mut lo, mut hi) = if reference_passed {
        (Some(REF_RUNG), rates.len())
    } else {
        (None, REF_RUNG)
    };
    let mut probes = Vec::new();
    let mut low = lo.map_or(0, |l| l + 1);
    while low < hi {
        let mid = (low + hi) / 2;
        let arrivals = (rates[mid] * PROBE_SECS).round().max(PROBE_MIN_ARRIVALS) as usize;
        let p = offer(prep, tracer, phase, &mut rng, rates[mid], arrivals);
        if p.sustained(PROBE_PERCENTILE, limit_s, window(prep)) {
            lo = Some(mid);
            low = mid + 1;
        } else {
            hi = mid;
        }
        probes.push(p);
    }
    (probes, lo.map_or(0.0, |l| rates[l]))
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let prep = prepare(ctx);
    ctx.fingerprint(prep.service.engine());
    let r = reference(ctx, &prep, ctx.seconds, "main");
    end_to_end(ctx, &prep, &r, report);
}

pub fn end_to_end(ctx: &Ctx, prep: &Prepared, r: &Phase, report: &mut Report) {
    let s = summarize(&r.latency_s);
    let completed = r.latency_s.len() as f64 - r.failed as f64;
    report.tally(r.latency_s.len() as u64, r.failed);
    report.put("setup_s", median(&prep.setup_s), "s");
    report.put("latency_p50_ms", finite(s.p50) * 1e3, "ms");
    report.put("throughput_per_s", completed / r.wall_s, "1/s");
    let per_request = r.wall_s / completed.max(1.0);
    report.put(
        "gflops",
        crate::eval::gflops(&prep.plan, per_request),
        "GFLOP/s",
    );
    report.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
    println!(
        "# latency at {:.2}/s: {} requests, p50 {:.3} ms, p{} {:.3} ms (limit {} ms); generator late p50 {:.3} ms",
        r.rate,
        s.n,
        s.p50 * 1e3,
        s.tail_pct,
        s.tail * 1e3,
        ctx.p99_limit_ms,
        median(&r.lateness_s) * 1e3,
    );
}

/// One line per ladder probe.
pub fn print_probes(probes: &[Phase]) {
    for p in probes {
        let s = summarize(&p.latency_s);
        println!(
            "# probe {:7.2}/s: {} requests, p50 {:.3} ms, p{} {:.3} ms, backlog max {}, failed {}",
            p.rate,
            s.n,
            s.p50 * 1e3,
            s.tail_pct,
            s.tail * 1e3,
            p.backlog_max,
            p.failed,
        );
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_recorded() {
        let ctx = Ctx::for_test("serve-p3-dd-d8", 1, 1.0);
        let prep = prepare(&ctx);
        let tracer = Tracer::new(false);
        // A million arrivals per second: the 24 requests are all due within
        // microseconds, so the generator runs late and later requests wait
        // behind earlier launches.
        let p = offer(&prep, &tracer, "test", &mut Rng::new(1, 9), 1e6, 24);
        assert_eq!((p.latency_s.len(), p.failed), (24, 0));
        assert_eq!(p.lateness_s.len(), 24);
        assert!(p.lateness_s.iter().skip(1).any(|&l| l > 0.0));
        for (latency, late) in p.latency_s.iter().zip(&p.lateness_s) {
            assert!(
                latency >= late,
                "latency {latency} excludes lateness {late}"
            );
        }
        // The replies complete one after another, so counted from the due
        // time the last request waited for most of the phase.
        let last = *p.latency_s.last().unwrap();
        assert!(last >= 0.5 * p.wall_s, "last {last} of wall {}", p.wall_s);
    }
}
