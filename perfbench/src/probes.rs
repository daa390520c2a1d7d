//! The traced run: the workload once untraced and once traced (their
//! difference is the tracing overhead), then probes of each layer through
//! its public entry points, the ledger, self times and the span file.
//!
//! Probes call only `Engine`/`Plan::request`, `Service`, `Tracker`/
//! `Homotopy`, `Md` arithmetic, `Series::mul_into`,
//! `convolve_karatsuba`/`convolve_fft`, `WorkerPool::launch_grid` and
//! `try_solve_linearized_into`.

use std::hint::black_box;
use std::time::Instant;

use psmd_core::{
    try_solve_linearized_into, ConvolutionKernel, Engine, EvalOutput, Inputs, LinearSolveWorkspace,
    Plan,
};
use psmd_multidouble::{
    detected_lane_width, lanes::LaneVec, Coeff, CostModel, Dd, Md, MdLanes, Precision,
};
use psmd_runtime::KernelTimings;
use psmd_series::{
    convolution_adds, convolution_mults, convolve_fft, convolve_karatsuba, fft_scratch_f64_len,
    karatsuba_scratch_len, ConvAlgo, Series,
};
use psmd_track::Homotopy;

use crate::gen::Rng;
use crate::report::Report;
use crate::stats::{median, summarize, Summary};
use crate::trace::{self_times, to_json, Tracer};
use crate::{alloc, eval, eval_spec, serve, track, Ctx};

/// Layers that report a self time in every traced run.
const LAYERS: [&str; 7] = ["bench", "core", "md", "runtime", "serve", "series", "track"];
/// Length of the serve and track side runs of a traced run of another
/// workload.
const SIDE_SECS: f64 = 6.0;

/// Median seconds per call of `f` over five repetitions of `n` calls each.
fn per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..n {
                f();
            }
            t0.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&reps)
}

/// Calls `f` inside one probe span and returns its per-call seconds.
fn probe(tracer: &Tracer, name: &'static str, n: usize, f: impl FnMut()) -> f64 {
    let open = tracer.open(name, None, None);
    let secs = per_call(n, f);
    tracer.close(open, "probe");
    secs
}

// ---------------------------------------------------------------------------
// psmd-multidouble
// ---------------------------------------------------------------------------

const OPS: usize = 1 << 16;

#[derive(Clone, Copy)]
enum MdOp {
    MulAdd,
    Mul,
    Add,
}

fn md_operands<const N: usize>() -> (Vec<Md<N>>, Vec<Md<N>>) {
    let mut rng = Rng::new(0x6d64, 5);
    (
        (0..64).map(|_| rng.md()).collect(),
        (0..64).map(|_| rng.md()).collect(),
    )
}

/// Nanoseconds per scalar `Md<N>` operation.
fn md_ns<const N: usize>(tracer: &Tracer, name: &'static str, op: MdOp) -> f64 {
    let (a, b) = md_operands::<N>();
    let mut acc = [Md::<N>::zero(); 8];
    let secs = probe(tracer, name, 1, || {
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..OPS {
            let (x, y) = (&a[i & 63], &b[(i * 7) & 63]);
            let slot = &mut acc[i & 7];
            match op {
                MdOp::MulAdd => slot.mul_add_assign(x, y),
                MdOp::Mul => *slot = x.mul(y),
                MdOp::Add => *slot = slot.add(x),
            }
        }
        black_box(&acc);
    });
    secs / OPS as f64 * 1e9
}

/// Nanoseconds per lane of an `MdLanes<2, W>` multiply-add.
fn lanes_ns<const W: usize>(tracer: &Tracer) -> f64 {
    let (a, b) = md_operands::<2>();
    let pack = |v: &[Md<2>], k: usize| MdLanes::<2, W>::gather(|l| v[(k * W + l) & 63]);
    let a: Vec<MdLanes<2, W>> = (0..64).map(|k| pack(&a, k)).collect();
    let b: Vec<MdLanes<2, W>> = (0..64).map(|k| pack(&b, k)).collect();
    let mut acc = [MdLanes::<2, W>::zero(); 8];
    let n = OPS / W;
    let secs = probe(tracer, "md.lanes_mul_add", 1, || {
        let (a, b) = (black_box(&a), black_box(&b));
        for i in 0..n {
            LaneVec::<Dd, W>::mul_add_assign(&mut acc[i & 7], &a[i & 63], &b[(i * 7) & 63]);
        }
        black_box(&acc);
    });
    secs / (n * W) as f64 * 1e9
}

/// The textbook branch-free double-double multiply-add (QD's accurate
/// addition after an FMA two-product), the floor `md.floor_ratio.2d`
/// compares against.
mod floor {
    #[inline(always)]
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    #[inline(always)]
    fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        (s, b - (s - a))
    }

    #[inline(always)]
    fn mul_add(acc: (f64, f64), x: (f64, f64), y: (f64, f64)) -> (f64, f64) {
        let p = x.0 * y.0;
        let e = x.0.mul_add(y.0, -p) + (x.0 * y.1 + x.1 * y.0);
        let (p, e) = quick_two_sum(p, e);
        let (s1, s2) = two_sum(acc.0, p);
        let (t1, t2) = two_sum(acc.1, e);
        let (s1, s2) = quick_two_sum(s1, s2 + t1);
        quick_two_sum(s1, s2 + t2)
    }

    #[inline(always)]
    fn body(a: &[(f64, f64)], b: &[(f64, f64)], acc: &mut [(f64, f64); 8], n: usize) {
        for i in 0..n {
            acc[i & 7] = mul_add(acc[i & 7], a[i & 63], b[(i * 7) & 63]);
        }
    }

    /// # Safety
    ///
    /// The CPU must support FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    unsafe fn body_fma(a: &[(f64, f64)], b: &[(f64, f64)], acc: &mut [(f64, f64); 8], n: usize) {
        body(a, b, acc, n)
    }

    pub fn run(a: &[(f64, f64)], b: &[(f64, f64)], acc: &mut [(f64, f64); 8], n: usize) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("fma") {
            // SAFETY: the running CPU reports FMA support.
            return unsafe { body_fma(a, b, acc, n) };
        }
        body(a, b, acc, n)
    }
}

fn floor_ns(tracer: &Tracer) -> f64 {
    let (a, b) = md_operands::<2>();
    let split = |v: Vec<Md<2>>| -> Vec<(f64, f64)> {
        v.iter().map(|x| (x.limbs()[0], x.limbs()[1])).collect()
    };
    let (a, b) = (split(a), split(b));
    let mut acc = [(0.0, 0.0); 8];
    let secs = probe(tracer, "md.floor_mul_add", 1, || {
        floor::run(black_box(&a), black_box(&b), &mut acc, OPS);
        black_box(&acc);
    });
    secs / OPS as f64 * 1e9
}

fn md_layer(tracer: &Tracer, r: &mut Report) {
    let mul_add_2d = md_ns::<2>(tracer, "md.mul_add", MdOp::MulAdd);
    r.put(
        "md.mul_add_ns.1d",
        md_ns::<1>(tracer, "md.mul_add", MdOp::MulAdd),
        "ns",
    );
    r.put("md.mul_add_ns.2d", mul_add_2d, "ns");
    r.put(
        "md.mul_add_ns.3d",
        md_ns::<3>(tracer, "md.mul_add", MdOp::MulAdd),
        "ns",
    );
    r.put(
        "md.mul_ns.2d",
        md_ns::<2>(tracer, "md.mul", MdOp::Mul),
        "ns",
    );
    r.put(
        "md.add_ns.2d",
        md_ns::<2>(tracer, "md.add", MdOp::Add),
        "ns",
    );
    let lanes = match detected_lane_width() {
        8 => lanes_ns::<8>(tracer),
        4 => lanes_ns::<4>(tracer),
        2 => lanes_ns::<2>(tracer),
        _ => lanes_ns::<1>(tracer),
    };
    r.put("md.lanes_mul_add_ns.2d", lanes, "ns");
    r.put("md.floor_ratio.2d", mul_add_2d / floor_ns(tracer), "ratio");
}

// ---------------------------------------------------------------------------
// psmd-series
// ---------------------------------------------------------------------------

/// One double-double product at `degree` through each rung; the resolved
/// rung of the plan picks `series.conv_us`.  Returns microseconds of the
/// resolved rung.
fn series_layer(tracer: &Tracer, r: &mut Report, degree: usize, kernel: ConvolutionKernel) -> f64 {
    let mut rng = Rng::new(0x5e51e5, 6);
    let (x, y) = (rng.series::<2>(degree), rng.series::<2>(degree));
    let n = degree + 1;
    let mut out = Series::zero(degree);
    let reps = (200_000 / (n * n)).clamp(4, 20_000);
    let direct = probe(tracer, "series.mul_into", reps, || {
        black_box(&x).mul_into(black_box(&y), &mut out)
    });
    let mut ks = vec![Dd::zero(); karatsuba_scratch_len(n)];
    let karatsuba = probe(tracer, "series.karatsuba", reps, || {
        convolve_karatsuba(black_box(x.coeffs()), y.coeffs(), out.coeffs_mut(), &mut ks)
    });
    let mut fs = vec![0.0; fft_scratch_f64_len::<Dd>(n)];
    let fft = probe(tracer, "series.fft", reps, || {
        convolve_fft(black_box(x.coeffs()), y.coeffs(), out.coeffs_mut(), &mut fs)
    });
    // Zero-insertion and the direct loop are the bitwise-equal schoolbook
    // pair; the probe times the direct loop for both.
    let resolved = match kernel {
        ConvolutionKernel::Karatsuba => karatsuba,
        ConvolutionKernel::Fft => fft,
        _ => direct,
    };
    let flops = convolution_mults(ConvAlgo::ZeroInsertion, degree) as f64
        * Precision::D2.mul_ops(CostModel::Paper) as f64
        + convolution_adds(ConvAlgo::ZeroInsertion, degree) as f64
            * Precision::D2.add_ops(CostModel::Paper) as f64;
    r.put("series.conv_us", resolved * 1e6, "us");
    r.put("series.conv_us.direct", direct * 1e6, "us");
    r.put("series.conv_us.karatsuba", karatsuba * 1e6, "us");
    r.put("series.conv_us.fft", fft * 1e6, "us");
    r.put("series.gflops", flops / resolved / 1e9, "GFLOP/s");
    resolved * 1e6
}

// ---------------------------------------------------------------------------
// psmd-runtime and psmd-core
// ---------------------------------------------------------------------------

/// Microseconds of one empty grid launch over every participant of the
/// engine's pool.
fn grid_launch_us(tracer: &Tracer, engine: &Engine) -> f64 {
    let pool = engine.pool();
    let blocks = pool.parallelism().max(2);
    probe(tracer, "runtime.launch_grid", 2_000, || {
        pool.launch_grid(blocks, |b| {
            black_box(b);
        })
    }) * 1e6
}

/// Microseconds of one linear solve at the tracking system's size (16
/// unknowns, degree 0, double-double), diagonally dominant and seeded.
fn linear_solve_us(tracer: &Tracer) -> f64 {
    let n = 2 * track::BLOCKS;
    let mut rng = Rng::new(0x501e, 7);
    let jac: Vec<Vec<Series<Dd>>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let v = rng.md::<2>();
                    Series::constant(if i == j { v.add_f64(4.0) } else { v }, 0)
                })
                .collect()
        })
        .collect();
    let rhs: Vec<Series<Dd>> = (0..n).map(|_| Series::constant(rng.md(), 0)).collect();
    let mut ws = LinearSolveWorkspace::new();
    let mut sol = Vec::new();
    probe(tracer, "core.linear_solve", 2_000, || {
        try_solve_linearized_into(black_box(&jac), &rhs, &mut ws, &mut sol)
            .expect("a diagonally dominant system solves");
    }) * 1e6
}

/// Medians of the kernel and outside-kernel time per call from returned
/// timings against the call times measured from outside, and the returned
/// counts of the last call.
fn core_timings(r: &mut Report, timings: &[KernelTimings], call_s: &[f64]) {
    let kernel: Vec<f64> = timings
        .iter()
        .map(|t| (t.convolution + t.addition + t.graph).as_secs_f64())
        .collect();
    let outside: Vec<f64> = kernel.iter().zip(call_s).map(|(k, c)| c - k).collect();
    let last = timings.last().expect("at least one call");
    r.put("core.kernel_ms", median(&kernel) * 1e3, "ms");
    r.put("core.outside_kernel_ms", median(&outside) * 1e3, "ms");
    r.put("core.conv_blocks", last.convolution_blocks as f64, "count");
    r.put("core.add_blocks", last.addition_blocks as f64, "count");
    r.put(
        "core.launches",
        (last.convolution_launches + last.addition_launches + last.graph_launches) as f64,
        "count",
    );
    r.put("core.simd_width", last.simd_width as f64, "count");
    r.put(
        "runtime.rendezvous_per_call",
        last.pool_rendezvous as f64,
        "count",
    );
}

/// Allocations per call of `f` in the steady state (exact: the engine is
/// otherwise idle, so every counted allocation belongs to these calls).
fn allocs_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let before = alloc::allocations();
    for _ in 0..4 {
        f();
    }
    (alloc::allocations() - before) as f64 / 4.0
}

/// One batched request of `batch` points; returns seconds per point.
fn batch_per_point(
    tracer: &Tracer,
    plan: &Plan<Dd>,
    points: &[Vec<Series<Dd>>],
    batch: usize,
) -> f64 {
    let inputs: Vec<Vec<Series<Dd>>> = points.iter().cycle().take(batch).cloned().collect();
    let mut out = plan.request(&inputs).run();
    let open = tracer.open("core.batch", None, None);
    plan.request(&inputs).into(&mut out).run();
    tracer.close(open, "probe") / batch as f64
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

pub fn traced_run(ctx: &Ctx) -> Report {
    let tracer = ctx.tracer_for("probe");
    let mut r = Report::default();
    let half = ctx.seconds / 2.0;
    let (untraced_p50, traced) = match ctx.workload.as_str() {
        w @ ("eval-p1-dd-d7" | "eval-p2-dd-d63") => {
            let spec = eval_spec(w);
            let prep = eval::prepare(ctx, spec);
            ctx.fingerprint(&prep.engine);
            let untraced = eval::closed_loop(ctx, &prep, half, "untraced");
            let traced = eval::closed_loop(ctx, &prep, half, "main");
            r.tally(untraced.latency_s.len() as u64, untraced.failed);
            r.tally(traced.latency_s.len() as u64, traced.failed);
            let plan = &prep.plan;
            r.put("core.compile_ms", median(&prep.compile_s) * 1e3, "ms");
            core_timings(&mut r, &traced.timings, &traced.latency_s);
            let mut out = plan.request(&prep.points[0]).run();
            r.put(
                "core.allocs_per_call",
                allocs_per_call(|| plan.request(&prep.points[0]).into(&mut out).run()),
                "count",
            );
            let per_point = batch_per_point(tracer, plan, &prep.points, detected_lane_width());
            r.put("core.batch_ms_per_point", per_point * 1e3, "ms");
            let conv_us = series_layer(tracer, &mut r, spec.degree, plan.options().kernel);
            md_layer(tracer, &mut r);
            let launch_us = grid_launch_us(tracer, &prep.engine);
            r.put("runtime.grid_launch_us", launch_us, "us");
            r.put("core.linear_solve_us", linear_solve_us(tracer), "us");
            // Ledger: probe costs times returned counts against the call.
            let t = traced.timings.last().expect("at least one call");
            let work_us = t.convolution_blocks as f64 * conv_us
                + t.addition_blocks as f64
                    * (spec.degree + 1) as f64
                    * r.get("md.add_ns.2d").unwrap_or(0.0)
                    * 1e-3;
            let explained_us = work_us / prep.engine.pool().parallelism() as f64
                + t.pool_rendezvous as f64 * launch_us;
            let call_us = summarize(&traced.latency_s).mean * 1e6;
            r.put(
                "ledger.residual_pct",
                100.0 * (1.0 - explained_us / call_us),
                "%",
            );
            serve_side(ctx, &mut r, SIDE_SECS, false);
            track_side(ctx, &mut r, SIDE_SECS, false);
            (
                summarize(&untraced.latency_s).p50,
                summarize(&traced.latency_s),
            )
        }
        "serve-p3-dd-d8" => {
            let prep = serve::prepare(ctx);
            ctx.fingerprint(prep.service.engine());
            let untraced = serve::reference(ctx, &prep, half, "untraced");
            r.tally(untraced.latency_s.len() as u64, untraced.failed);
            let traced = serve_layer(ctx, &mut r, &prep, half, true);
            md_layer(tracer, &mut r);
            series_layer(tracer, &mut r, serve::DEGREE, prep.plan.options().kernel);
            let launch_us = grid_launch_us(tracer, prep.service.engine());
            r.put("runtime.grid_launch_us", launch_us, "us");
            r.put("core.linear_solve_us", linear_solve_us(tracer), "us");
            track_side(ctx, &mut r, SIDE_SECS, false);
            (summarize(&untraced.latency_s).p50, traced)
        }
        "track-ladder" => {
            let prep = track::prepare(ctx);
            ctx.fingerprint(&prep.engine);
            let untraced = track::closed_loop(ctx, &prep, half, "untraced");
            r.tally(untraced.attempted, untraced.failed);
            let traced = track_layer(ctx, &mut r, &prep, half, true);
            md_layer(tracer, &mut r);
            series_layer(tracer, &mut r, 0, prep.engine.options().kernel);
            let launch_us = grid_launch_us(tracer, &prep.engine);
            r.put("runtime.grid_launch_us", launch_us, "us");
            let solve_us = linear_solve_us(tracer);
            r.put("core.linear_solve_us", solve_us, "us");
            track_ledger(&mut r, traced.p50, solve_us);
            serve_side(ctx, &mut r, SIDE_SECS, false);
            (summarize(&untraced.latency_s).p50, traced)
        }
        _ => unreachable!("workload validated"),
    };
    r.put(
        "trace.overhead_pct",
        100.0 * (traced.p50 / untraced_p50 - 1.0),
        "%",
    );
    r.put("latency.samples", traced.n as f64, "count");
    r.put("latency.tail_pct", traced.tail_pct, "percentile");
    r.put("latency.tail_ms", traced.tail * 1e3, "ms");
    let spans = tracer.spans();
    let selfs = self_times(&spans);
    for layer in LAYERS {
        let name = format!("self_ms.{layer}");
        r.put(&name, selfs.get(layer).copied().unwrap_or(0.0) * 1e3, "ms");
    }
    write_trace(ctx, &spans, &r);
    r
}

/// The serve layer's metrics from a traced run of the serve workload's
/// reference phase; `main` also reports the core metrics of its plan and
/// the serve ledger.  Returns the traced p50 and the sample count.
fn serve_layer(
    ctx: &Ctx,
    r: &mut Report,
    prep: &serve::Prepared,
    secs: f64,
    main: bool,
) -> Summary {
    let phase = if main { "main" } else { "side" };
    let before = prep.service.metrics(serve::PLAN_ID).expect("registered");
    let reference = serve::reference(ctx, prep, secs, phase);
    let after = prep.service.metrics(serve::PLAN_ID).expect("registered");
    let p = &reference;
    r.tally(p.latency_s.len() as u64, p.failed);
    let s = summarize(&p.latency_s);
    let passed = p.sustained(
        s.tail_pct / 100.0,
        ctx.p99_limit_ms * 1e-3,
        prep.service.config().max_batch as u64,
    );
    let (probes, sustained_rate) = serve::ladder_search(ctx, prep, phase, passed);
    serve::print_probes(&probes);
    for probe in &probes {
        r.tally(probe.latency_s.len() as u64, probe.failed);
    }
    r.put("serve.latency_p50_ms", s.p50 * 1e3, "ms");
    r.put("serve.latency_tail_ms", s.tail * 1e3, "ms");
    r.put("serve.sustained_rate_per_s", sustained_rate, "1/s");
    let launches = after.launches - before.launches;
    let completed = after.completed - before.completed;
    let mean_batch = completed as f64 / launches.max(1) as f64;
    r.put("serve.admit_us", median(&p.admit_s) * 1e6, "us");
    r.put("serve.wait_ms", median(&p.wait_s) * 1e3, "ms");
    r.put("serve.mean_batch", mean_batch, "requests");
    r.put(
        "serve.coalesce_ratio",
        completed as f64 / launches.max(1) as f64,
        "completed/launch",
    );
    r.put("serve.launches", launches as f64, "count");
    r.put(
        "serve.busy_rejected",
        (after.busy_rejected - before.busy_rejected) as f64,
        "count",
    );
    r.put(
        "serve.deadline_expired",
        (after.deadline_expired - before.deadline_expired) as f64,
        "count",
    );
    r.put("serve.backlog_max", p.backlog_max as f64, "count");
    r.put(
        "serve.gen_lag_ms",
        summarize(&p.lateness_s).tail * 1e3,
        "ms",
    );
    if main {
        let tracer = ctx.tracer_for("probe");
        let plan = &prep.plan;
        let batch = mean_batch.round().max(1.0) as usize;
        let inputs: Vec<Vec<Series<Dd>>> =
            prep.points.iter().cycle().take(batch).cloned().collect();
        let mut out: EvalOutput<Dd> = plan.request(Inputs::Batch(&inputs)).run();
        let mut timings = Vec::new();
        let mut call_s = Vec::new();
        for _ in 0..5 {
            let open = tracer.open("core.batch", None, None);
            plan.request(Inputs::Batch(&inputs)).into(&mut out).run();
            call_s.push(tracer.close(open, "probe"));
            timings.push(*out.timings());
        }
        r.put("core.compile_ms", median(&prep.compile_s) * 1e3, "ms");
        core_timings(r, &timings, &call_s);
        r.put(
            "core.allocs_per_call",
            allocs_per_call(|| plan.request(Inputs::Batch(&inputs)).into(&mut out).run()),
            "count",
        );
        let per_point = median(&call_s) / batch as f64;
        r.put("core.batch_ms_per_point", per_point * 1e3, "ms");
        // Ledger: the batch probe's cost per point times completed
        // requests against the time the leader spent inside `wait`.
        let waited: f64 = p.wait_s.iter().sum();
        r.put(
            "ledger.residual_pct",
            100.0 * (1.0 - completed as f64 * per_point / waited),
            "%",
        );
    }
    s
}

fn serve_side(ctx: &Ctx, r: &mut Report, secs: f64, main: bool) {
    let prep = serve::prepare(ctx);
    serve_layer(ctx, r, &prep, secs, main);
}

/// The track layer's metrics from a traced closed loop; `main` also
/// reports the core metrics of the homotopy plan.
fn track_layer(
    ctx: &Ctx,
    r: &mut Report,
    prep: &track::Prepared,
    secs: f64,
    main: bool,
) -> Summary {
    let phase = if main { "main" } else { "side" };
    let tracer = ctx.tracer_for("probe");
    let lp = track::closed_loop(ctx, prep, secs, phase);
    r.tally(lp.attempted, lp.failed);
    let stats = &lp.last.as_ref().expect("at least one track").stats;
    let esc = |p: Precision| {
        stats
            .escalations_by_precision
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(0, |(_, c)| *c) as f64
    };
    r.put(
        "track.corrector_launches",
        stats.corrector_launches as f64,
        "count",
    );
    r.put("track.steps", stats.steps as f64, "count");
    r.put(
        "track.newton_iterations",
        stats.newton_iterations as f64,
        "count",
    );
    r.put("track.esc_2d", esc(Precision::D2), "count");
    r.put("track.esc_3d", esc(Precision::D3), "count");

    // One corrector sweep: every start point in one batched evaluation of
    // the stacked plan at double-double, then the host-side folds.
    let h = Homotopy::<Dd>::compile(&prep.family.spec, &prep.engine, prep.tracker.options())
        .expect("the family compiles");
    let plan = h.plan();
    let inputs: Vec<Vec<Series<Dd>>> = prep
        .family
        .starts
        .iter()
        .map(|s| {
            s.iter()
                .map(|&v| Series::constant(Dd::from_f64(v), 0))
                .collect()
        })
        .collect();
    let mut out = plan.request(Inputs::Batch(&inputs)).run();
    let mut timings = Vec::new();
    let mut call_s = Vec::new();
    for _ in 0..5 {
        let open = tracer.open("track.sweep_eval", None, None);
        plan.request(Inputs::Batch(&inputs)).into(&mut out).run();
        call_s.push(tracer.close(open, "probe"));
        timings.push(*out.timings());
    }
    let sweep_s = median(&call_s);
    r.put("track.sweep_eval_ms", sweep_s * 1e3, "ms");
    let evals = match &out {
        EvalOutput::SystemBatch(b) => &b.instances,
        _ => unreachable!("a system plan with batched inputs"),
    };
    let n = h.num_variables();
    let mut hv = vec![Series::<Dd>::zero(0); n];
    let mut jac = vec![vec![Series::<Dd>::zero(0); n]; n];
    let mut i = 0;
    let fold_s = probe(tracer, "track.fold", evals.len(), || {
        let e = &evals[i % evals.len()];
        h.combine_value_into(e, 0.5, &mut hv);
        h.combine_jacobian_into(e, 0.5, &mut jac);
        i += 1;
    });
    r.put("track.fold_us", fold_s * 1e6, "us");
    if main {
        let compile = {
            let engine = Engine::builder()
                .try_build()
                .expect("default engine builds");
            let t0 = Instant::now();
            Homotopy::<Dd>::compile(&prep.family.spec, &engine, prep.tracker.options())
                .expect("the family compiles");
            t0.elapsed().as_secs_f64()
        };
        r.put("core.compile_ms", compile * 1e3, "ms");
        core_timings(r, &timings, &call_s);
        r.put(
            "core.allocs_per_call",
            allocs_per_call(|| plan.request(Inputs::Batch(&inputs)).into(&mut out).run()),
            "count",
        );
        r.put(
            "core.batch_ms_per_point",
            sweep_s / inputs.len() as f64 * 1e3,
            "ms",
        );
    }
    summarize(&lp.latency_s)
}

fn track_side(ctx: &Ctx, r: &mut Report, secs: f64, main: bool) {
    let prep = track::prepare(ctx);
    track_layer(ctx, r, &prep, secs, main);
}

/// Ledger of one track: every corrector iteration charged one path's share
/// of a double-double sweep, one fold and one linear solve.
fn track_ledger(r: &mut Report, track_s: f64, solve_us: f64) {
    let get = |k: &str| r.get(k).expect("reported before the ledger");
    let iterations = get("track.newton_iterations");
    let per_path_us = get("core.batch_ms_per_point") * 1e3;
    let explained_us = iterations * (per_path_us + get("track.fold_us") + solve_us);
    r.put(
        "ledger.residual_pct",
        100.0 * (1.0 - explained_us / (track_s * 1e6)),
        "%",
    );
}

/// Writes the spans, the per-layer metrics and the self times to
/// `.bench_trace/<workload>-seed<seed>.json` under the working directory.
fn write_trace(ctx: &Ctx, spans: &[crate::trace::Span], r: &Report) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
    let mut header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"metrics\":{{",
        ctx.workload, ctx.seed, ctx.seconds
    );
    for (i, name) in r.names().iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        header.push_str(&format!("{sep}\"{name}\":{:?}", r.get(name).unwrap_or(0.0)));
    }
    header.push('}');
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, to_json(spans, &header)));
    match written {
        Ok(()) => println!(
            "# trace: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => println!("# trace: not written ({e})"),
    }
}
