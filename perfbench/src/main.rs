//! psmd's benchmark: four user workloads through the public API, every
//! output checked, end-to-end metrics by name with units, and a traced
//! mode that adds per-layer metrics measured from outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eval-p1-dd-d7 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  See `METHOD.md` for
//! the workloads, the metrics and how the layers map onto them.

mod alloc;
mod check;
mod eval;
mod gen;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;
mod track;

use std::process::ExitCode;

use psmd_core::Engine;
use psmd_multidouble::{detect_isa, detected_lane_width};

use crate::report::Report;
use crate::trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Engine builds timed per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "eval-p1-dd-d7",
    "eval-p2-dd-d63",
    "serve-p3-dd-d8",
    "track-ladder",
];

/// Settings of one run, parsed from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Latency limit of the serve workload's sustained-rate search.
    pub p99_limit_ms: f64,
    tracer: Tracer,
    off: Tracer,
}

impl Ctx {
    /// The tracer of a phase: spans are recorded only in a traced run, and
    /// never in its `untraced` reference phase.
    pub fn tracer_for(&self, phase: &str) -> &Tracer {
        if self.traced && phase != "untraced" {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// Prints the host and knob fingerprint of the measured program.
    pub fn fingerprint(&self, engine: &Engine) {
        println!(
            "# host: nproc={} workers={} isa={} lane_width={} kernel={:?} exec={:?} simd={:?}",
            nproc(),
            engine.pool().worker_threads(),
            detect_isa().name(),
            detected_lane_width(),
            engine.options().kernel,
            engine.options().exec_mode,
            engine.options().simd,
        );
    }
}

#[cfg(test)]
impl Ctx {
    /// An untraced context for the self-tests.
    pub fn for_test(workload: &str, seed: u64, seconds: f64) -> Self {
        Ctx {
            workload: workload.to_string(),
            seed,
            seconds,
            traced: false,
            p99_limit_ms: 250.0,
            tracer: Tracer::new(false),
            off: Tracer::new(false),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`, when readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = Some(false);
    let mut p99_limit_ms = 250.0;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--p99-limit-ms" => {
                p99_limit_ms = value()?
                    .parse()
                    .map_err(|e| format!("--p99-limit-ms: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let traced = traced.unwrap_or(false);
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        p99_limit_ms,
        tracer: Tracer::new(traced),
        off: Tracer::new(false),
    })
}

/// The knobs that silently change the program being measured.
fn refuse_overrides() -> Result<(), String> {
    for var in ["PSMD_THREADS", "PSMD_SIMD"] {
        if let Ok(v) = std::env::var(var) {
            return Err(format!(
                "{var}={v} is set; it changes the measured program, unset it to benchmark"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let ctx = match refuse_overrides().and_then(|()| parse_args()) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let ticks = cpu_ticks();
    let report = if ctx.traced {
        probes::traced_run(&ctx)
    } else {
        untraced_run(&ctx)
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, cpu_ticks()) {
        // Time the hypervisor gave to other guests: a run with a large
        // share was measured on a disturbed machine.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "# host steal: {:.1}% of CPU time during the run",
            100.0 * share
        );
    }
    print!("{}", report.human());
    println!(
        "# error_rate={} ({} failed of {} attempted)",
        report.error_rate(),
        report.failed,
        report.attempted
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}

fn untraced_run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    match ctx.workload.as_str() {
        "eval-p1-dd-d7" => eval::run(ctx, eval_spec("eval-p1-dd-d7"), &mut report),
        "eval-p2-dd-d63" => eval::run(ctx, eval_spec("eval-p2-dd-d63"), &mut report),
        "serve-p3-dd-d8" => serve::run(ctx, &mut report),
        "track-ladder" => track::run(ctx, &mut report),
        _ => unreachable!("workload validated"),
    }
    report
}

/// The shape of an evaluation workload.
pub fn eval_spec(workload: &str) -> eval::EvalSpec {
    match workload {
        "eval-p1-dd-d7" => eval::EvalSpec {
            poly: gen::TestPoly::P1,
            degree: 7,
            points: 16,
            wide_points: 16,
        },
        "eval-p2-dd-d63" => eval::EvalSpec {
            poly: gen::TestPoly::P2,
            degree: 63,
            points: 2,
            wide_points: 1,
        },
        other => panic!("{other} is not an evaluation workload"),
    }
}
