//! The closed-loop evaluation workloads: one caller evaluating a polynomial
//! and its gradient at one power-series point per call, like Newton's
//! method on power series.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psmd_core::{achieved_gflops, Engine, EvalOutput, Evaluation, Plan};
use psmd_multidouble::{CostModel, Dd, Md, Precision};
use psmd_runtime::KernelTimings;
use psmd_series::Series;

use crate::check::{eval_bits_eq, wide_rel_error};
use crate::gen::{widen, widen_poly, TestPoly};
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::{Ctx, SETUPS};

/// Relative normwise bound of a double-double output against the same
/// evaluation in quad-double (each output series scaled by its largest
/// coefficient).  The observed errors sit near 1e-31; the bound leaves
/// room for the error growth of deep products without admitting a wrong
/// low-order limb of a leading coefficient.
pub const WIDE_BOUND: f64 = 1e-26;

#[derive(Debug, Clone, Copy)]
pub struct EvalSpec {
    pub poly: TestPoly,
    pub degree: usize,
    /// Distinct input points the caller cycles through.
    pub points: usize,
    /// Points evaluated again at twice the limbs (the first ones).
    pub wide_points: usize,
}

/// What a traced run needs from the closed loop besides latency.
pub struct Loop {
    pub latency_s: Vec<f64>,
    pub timings: Vec<KernelTimings>,
    pub failed: u64,
}

pub struct Prepared {
    pub engine: Engine,
    pub plan: Arc<Plan<Dd>>,
    pub points: Vec<Vec<Series<Dd>>>,
    refs: Vec<Evaluation<Dd>>,
    /// Whether each point's reference met the wide-precision bound.
    accurate: Vec<bool>,
    pub setup_s: Vec<f64>,
    pub compile_s: Vec<f64>,
    pub max_wide_error: f64,
}

/// Builds the engine and plan `SETUPS` times (timing each from engine
/// construction to the first result), then computes the references.
pub fn prepare(ctx: &Ctx, spec: EvalSpec) -> Prepared {
    let poly = spec.poly.build::<2>(spec.degree, ctx.seed);
    let points = spec.poly.points::<2>(spec.degree, spec.points, ctx.seed);
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let source = poly.clone();
        let t0 = Instant::now();
        let engine = Engine::builder()
            .try_build()
            .expect("default engine builds");
        let tc = Instant::now();
        let plan = engine.try_compile(source).expect("the polynomial compiles");
        compile_s.push(tc.elapsed().as_secs_f64());
        let first = plan.request(&points[0]).run();
        setup_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(first);
        built = Some((engine, plan));
    }
    let (engine, plan) = built.expect("at least one setup");

    let refs: Vec<Evaluation<Dd>> = points
        .iter()
        .map(|z| plan.request(z).sequential().run().into_single())
        .collect();
    let wide_plan = engine
        .try_compile(widen_poly::<2, 4>(&poly))
        .expect("the widened polynomial compiles");
    let mut accurate = vec![true; points.len()];
    let mut max_wide_error: f64 = 0.0;
    for k in 0..spec.wide_points.min(points.len()) {
        let z: Vec<Series<Md<4>>> = points[k].iter().map(widen).collect();
        let wide = wide_plan.request(&z).run().into_single();
        let err = wide_rel_error(&refs[k], &wide);
        max_wide_error = max_wide_error.max(err);
        accurate[k] = err <= WIDE_BOUND;
    }
    drop(wide_plan);
    engine.clear_plan_cache();
    Prepared {
        engine,
        plan,
        points,
        refs,
        accurate,
        setup_s,
        compile_s,
        max_wide_error,
    }
}

/// Runs the closed loop for `secs` seconds: one call per point, cycling
/// through the points, each output checked bitwise against its reference.
pub fn closed_loop(ctx: &Ctx, prep: &Prepared, secs: f64, phase: &'static str) -> Loop {
    let tracer = ctx.tracer_for(phase);
    let mut out = prep.plan.request(&prep.points[0]).run();
    for z in prep.points.iter().take(2) {
        prep.plan.request(z).into(&mut out).run();
    }
    let mut lp = Loop {
        latency_s: Vec::new(),
        timings: Vec::new(),
        failed: 0,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(secs);
    let mut i = 0usize;
    while start.elapsed() < budget || lp.latency_s.len() < 3 {
        let k = i % prep.points.len();
        let unit = tracer.open("bench.call", None, None);
        let call = tracer.open("core.request", Some(unit.id), None);
        prep.plan.request(&prep.points[k]).into(&mut out).run();
        lp.latency_s.push(tracer.close(call, phase));
        let ok = match &out {
            EvalOutput::Single(e) => prep.accurate[k] && eval_bits_eq(e, &prep.refs[k]),
            _ => false,
        };
        lp.failed += u64::from(!ok);
        if tracer.enabled() {
            lp.timings.push(*out.timings());
        }
        tracer.close(unit, phase);
        i += 1;
    }
    lp
}

/// The end-to-end metrics of one untraced run.
pub fn run(ctx: &Ctx, spec: EvalSpec, report: &mut Report) {
    let prep = prepare(ctx, spec);
    ctx.fingerprint(&prep.engine);
    let lp = closed_loop(ctx, &prep, ctx.seconds, "main");
    end_to_end(&prep, &lp, report);
}

pub fn end_to_end(prep: &Prepared, lp: &Loop, report: &mut Report) {
    let s = summarize(&lp.latency_s);
    report.tally(lp.latency_s.len() as u64, lp.failed);
    report.put("setup_s", median(&prep.setup_s), "s");
    report.put("latency_p50_ms", s.p50 * 1e3, "ms");
    report.put("throughput_per_s", 1.0 / s.mean, "1/s");
    report.put("gflops", gflops(&prep.plan, s.mean), "GFLOP/s");
    report.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
    println!(
        "# latency: {} calls, p50 {:.4} ms, p{} {:.4} ms; wide-precision error {:.3e} (bound {:.0e})",
        s.n,
        s.p50 * 1e3,
        s.tail_pct,
        s.tail * 1e3,
        prep.max_wide_error,
        WIDE_BOUND
    );
}

/// Double operations of one evaluation in the paper's cost model, per
/// second of `secs_per_call`.
pub fn gflops(plan: &Plan<Dd>, secs_per_call: f64) -> f64 {
    let schedule = plan.schedule().expect("a single-polynomial plan");
    achieved_gflops(
        schedule,
        Precision::D2,
        CostModel::Paper,
        secs_per_call * 1e3,
    )
}
