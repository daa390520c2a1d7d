//! The path-tracking workload: the seeded multilinear family of 8
//! independent `{x + y = s, x·y = p}` blocks (256 paths, 16 variables, 32
//! stacked equations) tracked to an endpoint tolerance of 1e-40, which
//! pushes every path up the precision ladder from 1d to 2d to 3d.

use std::time::Instant;

use psmd_core::{Engine, PlanStats};
use psmd_multidouble::{CostModel, Md, Precision};
use psmd_series::{addition_adds, convolution_adds, convolution_mults, ConvAlgo};
use psmd_track::{TrackOptions, TrackOutcome, Tracker};

use crate::gen::{family, Block, Family};
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::{Ctx, SETUPS};

pub const BLOCKS: usize = 8;
/// Relative distance an endpoint may have from its closed-form root.  The
/// tracker certifies residuals below 1e-40 at triple-double, so correct
/// endpoints sit far below this.
pub const ROOT_TOL: f64 = 1e-32;

pub fn options() -> TrackOptions {
    TrackOptions {
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    }
}

pub struct Prepared {
    pub engine: Engine,
    pub tracker: Tracker,
    pub family: Family,
    pub setup_s: Vec<f64>,
    pub first: TrackOutcome,
}

pub fn prepare(ctx: &Ctx) -> Prepared {
    let fam = family(BLOCKS, ctx.seed);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let spec = fam.spec.clone();
        let t0 = Instant::now();
        let engine = Engine::builder()
            .try_build()
            .expect("default engine builds");
        let tracker = Tracker::new(spec, options()).expect("the family is valid");
        let first = tracker.track(&engine, &fam.starts).expect("tracking runs");
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((engine, tracker, first));
    }
    let (engine, tracker, first) = built.expect("at least one setup");
    Prepared {
        engine,
        tracker,
        family: fam,
        setup_s,
        first,
    }
}

/// The endpoint value of one variable at full working precision.
fn endpoint(limbs: &[f64]) -> Md<3> {
    limbs
        .iter()
        .take(3)
        .fold(Md::<3>::zero(), |acc, &l| acc.add_f64(l))
}

/// The closed-form roots `(s ± √(s² − 4p)) / 2` of one block.
fn roots(b: Block) -> [Md<3>; 2] {
    let s = Md::<3>::from_f64(b.s);
    let disc = s.mul(&s).sub(&Md::from_f64(4.0 * b.p)).sqrt();
    [s.add(&disc).mul_f64(0.5), s.sub(&disc).mul_f64(0.5)]
}

fn rel(a: &Md<3>, b: &Md<3>) -> f64 {
    a.sub(b).abs().to_f64() / b.abs().to_f64()
}

/// Paths that failed to converge or whose endpoint misses the closed-form
/// roots of its blocks (`x` on one root, `y` on the other).
pub fn failed_paths(fam: &Family, outcome: &TrackOutcome) -> u64 {
    let roots: Vec<[Md<3>; 2]> = fam.targets.iter().map(|&b| roots(b)).collect();
    let bad = |i: usize| {
        let Some(r) = outcome.reports.get(i) else {
            return true;
        };
        !r.converged()
            || roots.iter().enumerate().any(|(k, [r0, r1])| {
                let x = endpoint(&r.solution_limbs[2 * k][0]);
                let y = endpoint(&r.solution_limbs[2 * k + 1][0]);
                let straight = rel(&x, r0).max(rel(&y, r1));
                let crossed = rel(&x, r1).max(rel(&y, r0));
                straight.min(crossed) > ROOT_TOL
            })
    };
    (0..fam.starts.len()).filter(|&i| bad(i)).count() as u64
}

pub struct Loop {
    pub latency_s: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
    pub last: Option<TrackOutcome>,
}

pub fn closed_loop(ctx: &Ctx, prep: &Prepared, secs: f64, phase: &'static str) -> Loop {
    let tracer = ctx.tracer_for(phase);
    let mut lp = Loop {
        latency_s: Vec::new(),
        failed: 0,
        attempted: 0,
        last: None,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < secs || lp.latency_s.is_empty() {
        let unit = tracer.open("bench.track", None, None);
        let call = tracer.open("track.track", Some(unit.id), None);
        let outcome = prep
            .tracker
            .track(&prep.engine, &prep.family.starts)
            .expect("tracking runs");
        lp.latency_s.push(tracer.close(call, phase));
        lp.failed += failed_paths(&prep.family, &outcome);
        lp.attempted += prep.family.starts.len() as u64;
        tracer.close(unit, phase);
        lp.last = Some(outcome);
    }
    lp
}

/// Double operations of one corrector evaluation of one path in the
/// paper's cost model, charged at double-double.
pub fn ops_per_instance(stats: PlanStats) -> f64 {
    let d = stats.degree;
    let mults = stats.convolution_jobs * convolution_mults(ConvAlgo::ZeroInsertion, d);
    let adds = stats.convolution_jobs * convolution_adds(ConvAlgo::ZeroInsertion, d)
        + stats.addition_jobs * addition_adds(d);
    mults as f64 * Precision::D2.mul_ops(CostModel::Paper) as f64
        + adds as f64 * Precision::D2.add_ops(CostModel::Paper) as f64
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let prep = prepare(ctx);
    ctx.fingerprint(&prep.engine);
    let lp = closed_loop(ctx, &prep, ctx.seconds, "main");
    end_to_end(&prep, &lp, report);
}

pub fn end_to_end(prep: &Prepared, lp: &Loop, report: &mut Report) {
    let s = summarize(&lp.latency_s);
    let paths = prep.family.starts.len() as f64;
    let stats = &lp.last.as_ref().expect("at least one track").stats;
    let plan_stats = psmd_track::Homotopy::<Md<2>>::compile(
        &prep.family.spec,
        &prep.engine,
        prep.tracker.options(),
    )
    .expect("the family compiles")
    .plan()
    .stats();
    report.tally(lp.attempted, lp.failed);
    report.tally(paths as u64, failed_paths(&prep.family, &prep.first));
    report.put("setup_s", median(&prep.setup_s), "s");
    report.put("latency_p50_ms", s.p50 * 1e3, "ms");
    report.put("throughput_per_s", paths / s.mean, "1/s");
    let ops = stats.newton_iterations as f64 * ops_per_instance(plan_stats);
    report.put("gflops", ops / s.mean / 1e9, "GFLOP/s");
    report.put("peak_rss_mb", crate::peak_rss_mb(), "MB");
    println!(
        "# latency: {} tracks of {} paths, p50 {:.3} ms, p{} {:.3} ms; {} corrector launches, {} steps, {} iterations, escalations {:?}",
        s.n,
        paths,
        s.p50 * 1e3,
        s.tail_pct,
        s.tail * 1e3,
        stats.corrector_launches,
        stats.steps,
        stats.newton_iterations,
        stats.escalations_by_precision,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_endpoint_counts_as_a_failed_path() {
        let fam = family(1, 3);
        let engine = Engine::builder().threads(0).build();
        let tracker = Tracker::new(fam.spec.clone(), options()).unwrap();
        let mut outcome = tracker.track(&engine, &fam.starts).unwrap();
        assert_eq!(failed_paths(&fam, &outcome), 0);
        let x = &mut outcome.reports[1].solution_limbs[0][0];
        x[1] += x[0] * 1e-25;
        assert_eq!(failed_paths(&fam, &outcome), 1);
        outcome.reports.clear();
        assert_eq!(failed_paths(&fam, &outcome), 2);
    }
}
