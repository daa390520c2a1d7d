//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Usage:
//!
//! ```text
//! table_harness <command> [options]
//!
//! commands:
//!   table1 table2 table3 table4 table5 table6 table7 table8
//!   figure2 figure3 figure4 figure5 figure6
//!   tflops
//!   batch          measured batched-vs-looped evaluation comparison
//!   system         measured fused-system-vs-per-polynomial-loop comparison
//!   engine         measured compile-once/evaluate-many amortization of the
//!                  Engine/Plan API (plan-cache hits, per-eval cost)
//!   workspace      measured workspace-reuse comparison (pooled evaluate vs
//!                  zero-allocation reused-output path) plus the steady-state
//!                  allocation count from a counting global allocator (the
//!                  deterministic zero-alloc gate)
//!   kernels        measured convolution kernel ladder (direct schoolbook
//!                  vs Karatsuba vs digit-FFT) per precision and degree, with
//!                  the Auto crossover resolution of each row
//!   simd           measured SIMD lane tier: forced-width batched
//!                  evaluation vs the scalar batch path per precision and
//!                  lane width, with a bitwise-identity verdict per row
//!                  (the detected ISA and auto width ride along as
//!                  ungated text)
//!   serve          serving-layer load generator: deterministic staged
//!                  coalescing windows plus threaded closed-loop clients
//!                  against a psmd-serve Service
//!   track          adaptive-precision homotopy path tracking: a seeded
//!                  16-path family tracked batched (one coalesced launch
//!                  per corrector sweep) and one path at a time; all path
//!                  and escalation counts are deterministic and
//!                  exact-gated, the timings tolerance-gated
//!   compare        compare a current JSON report against a baseline and
//!                  exit non-zero on perf regressions (the CI gate)
//!   all            run every command above (except batch, system, engine,
//!                  workspace and compare)
//!
//! options:
//!   --measure      add measured CPU rows (reduced polynomials, degrees <= 31)
//!   --full         measured rows use the full paper polynomials and degrees
//!                  (can take a long time at high precision and degree)
//!   --seed <u64>   random seed for coefficients and inputs (default 1)
//!   --batch <n>    batch size for the batch command (default 32); passing
//!                  this option also runs the batch report after any command
//!   --equations <m> system size for the system command (default 4)
//!   --json         emit a machine-readable JSON report instead of text
//!                  (supported by table2, batch, system, engine, workspace,
//!                  kernels, simd, serve and track;
//!                  used by the CI perf-snapshot job).  stdout carries only
//!                  the JSON document; progress and notes go to stderr.
//!   --baseline <file>       baseline report for the compare command
//!   --current <file>        current report for the compare command
//!   --tolerance-pct <N>     allowed timing regression in percent for the
//!                           compare command (default 50; deterministic
//!                           counts must always match exactly)
//! ```
//!
//! Per-device millisecond columns are *modeled* with the analytic
//! roofline/occupancy model of `psmd-device` (the efficiency of every device
//! is calibrated once from the paper's Table 3; see EXPERIMENTS.md).
//! Measured rows are CPU wall-clock numbers from the worker-pool simulator
//! and are reported for shape comparison, not for absolute agreement.

use psmd_bench::{
    banner, log2, modeled_double_ops, modeled_run, ms, pct, JsonReport, Scale, ShapeCache,
    TestPolynomial, TextTable, PAPER_DEGREES, REDUCED_DEGREES,
};
use psmd_bench::{measured_run, TimingRow};
use psmd_core::{Engine, Polynomial, Schedule};
use psmd_device::{gpu_by_key, max_degree, paper_gpus};
use psmd_multidouble::{CostModel, Dd, Md, Precision};
use psmd_runtime::WorkerPool;
use psmd_serve::json::Json;
// The `workspace` report's instrument for its deterministic steady-state
// allocation count: the shared per-thread counting allocator (the measured
// engine is zero-worker, so the measuring thread runs every kernel itself;
// see `psmd_bench::alloc_counter`).
#[global_allocator]
static ALLOCATOR: psmd_bench::CountingAllocator = psmd_bench::CountingAllocator;

/// Allocator calls the calling thread makes during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    psmd_bench::measure_allocs(f).allocs
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Options {
    command: String,
    measure: bool,
    full: bool,
    seed: u64,
    batch: Option<usize>,
    equations: usize,
    json: bool,
    baseline: Option<String>,
    current: Option<String>,
    tolerance_pct: f64,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("all");
    let mut measure = false;
    let mut full = false;
    let mut seed = 1u64;
    let mut batch = None;
    let mut equations = 4usize;
    let mut json = false;
    let mut baseline = None;
    let mut current = None;
    let mut tolerance_pct = 50.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--measure" => measure = true,
            "--full" => {
                full = true;
                measure = true;
            }
            "--json" => json = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer argument");
            }
            "--batch" => {
                i += 1;
                batch = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--batch needs an integer argument"),
                );
            }
            "--equations" => {
                i += 1;
                equations = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--equations needs an integer argument");
            }
            "--baseline" => {
                i += 1;
                baseline = Some(args.get(i).expect("--baseline needs a file path").clone());
            }
            "--current" => {
                i += 1;
                current = Some(args.get(i).expect("--current needs a file path").clone());
            }
            "--tolerance-pct" => {
                i += 1;
                tolerance_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance-pct needs a numeric argument");
            }
            "--help" | "-h" => {
                println!("see the module documentation at the top of table_harness.rs");
                std::process::exit(0);
            }
            other if !other.starts_with("--") => command = other.to_string(),
            other => panic!("unknown option {other}"),
        }
        i += 1;
    }
    Options {
        command,
        measure,
        full,
        seed,
        batch,
        equations,
        json,
        baseline,
        current,
        tolerance_pct,
    }
}

fn main() {
    let opts = parse_args();
    if opts.command == "compare" {
        compare_command(&opts);
        return;
    }
    let mut cache = ShapeCache::new();
    // One engine for every measured run: it owns the default-sized worker
    // pool and the plan cache that amortizes schedule construction across
    // the sweeps.
    let engine = Engine::new();
    let run = |cmd: &str| opts.command == "all" || opts.command == cmd;
    if run("table1") {
        table1();
    }
    if run("table2") {
        table2(&opts);
    }
    if run("table3") {
        table3(&mut cache, &opts, &engine);
    }
    if run("table4") {
        table4(&mut cache, &opts, &engine);
    }
    if run("table5") {
        scalability_table(&mut cache, TestPolynomial::P1, "Table 5", &opts, &engine);
    }
    if run("table6") {
        scalability_table(&mut cache, TestPolynomial::P2, "Table 6", &opts, &engine);
    }
    if run("table7") {
        scalability_table(&mut cache, TestPolynomial::P3, "Table 7", &opts, &engine);
    }
    if run("table8") {
        table8(&opts, &engine);
    }
    if run("figure2") {
        figure2(&mut cache, &opts, &engine);
    }
    if run("figure3") {
        figure3(&mut cache);
    }
    if run("figure4") {
        figure4(&mut cache);
    }
    if run("figure5") {
        figure5(&mut cache);
    }
    if run("figure6") {
        figure6(&mut cache);
    }
    if run("tflops") {
        tflops(&mut cache);
    }
    // The batch and system reports are measured (not modeled), so they run
    // only when asked for explicitly — by their command or, for batch, by
    // the `--batch` option.  In `--json` mode stdout must stay a single
    // JSON document, so the implicit batch trigger only fires for the
    // `batch` command itself.
    if opts.command == "batch" || (opts.batch.is_some() && !opts.json) {
        batch_report(&opts, &engine);
    }
    if opts.command == "system" {
        system_report(&opts, &engine);
    }
    if opts.command == "engine" {
        engine_report(&opts);
    }
    if opts.command == "workspace" {
        workspace_report(&opts);
    }
    if opts.command == "kernels" {
        kernels_report(&opts);
    }
    if opts.command == "simd" {
        simd_report(&opts);
    }
    if opts.command == "serve" {
        serve_report(&opts);
    }
    if opts.command == "track" {
        track_report(&opts);
    }
}

/// The path-tracking report: a seeded 16-path multilinear family (four
/// independent `{x + y − s, x·y − p}` blocks, `p < 0`) tracked to an
/// endpoint tolerance of 1e-40, which forces every path up the precision
/// ladder past double-double.  One row tracks all paths batched (one
/// coalesced launch per corrector sweep), one row tracks them one at a
/// time; every count — paths, convergences, escalations per precision,
/// corrector launches, steps, Newton iterations — is deterministic and
/// exact-gated by `bench/baselines/BENCH_track.json`, while the wall-clock
/// timings are tolerance-gated and the batched-vs-serial ratios ride along
/// ungated as `*_speedup`.
fn track_report(opts: &Options) {
    use psmd_track::{HomotopySpec, MonomialSpec, PolySpec, TrackOptions, TrackOutcome, Tracker};

    emit_banner(
        opts,
        &banner(
            "Path tracking: batched adaptive-precision continuation vs \
             one-path-at-a-time (measured CPU)",
        ),
    );

    // Seeded xorshift target constants, as in examples/path_tracking.rs.
    let mut state = opts.seed ^ 0x005e_ed0f_da7a_2026;
    let mut next_unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let blocks = 4usize;
    let block = |x: usize, s: f64, p: f64| {
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
    };
    let mut start = Vec::new();
    let mut target = Vec::new();
    for k in 0..blocks {
        let s = 0.1 + 0.8 * next_unit();
        let p = -1.2 - 1.3 * next_unit();
        start.extend(block(2 * k, 0.0, -1.0));
        target.extend(block(2 * k, s, p));
    }
    let spec = HomotopySpec::new(2 * blocks, 0, start, target);
    let starts: Vec<Vec<f64>> = (0..1usize << blocks)
        .map(|bits| {
            (0..blocks)
                .flat_map(|k| {
                    if bits >> k & 1 == 0 {
                        [1.0, -1.0]
                    } else {
                        [-1.0, 1.0]
                    }
                })
                .collect()
        })
        .collect();
    let options = TrackOptions {
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(spec, options).expect("a valid seeded family");
    let engine = Engine::new();

    eprintln!("track: {} paths batched...", starts.len());
    let t0 = std::time::Instant::now();
    let batched = tracker.track(&engine, &starts).expect("tracking runs");
    let batched_ms = t0.elapsed().as_secs_f64() * 1e3;

    eprintln!("track: {} paths one at a time...", starts.len());
    let t0 = std::time::Instant::now();
    let serial: Vec<TrackOutcome> = starts
        .iter()
        .map(|s| {
            tracker
                .track(&engine, std::slice::from_ref(s))
                .expect("tracking runs")
        })
        .collect();
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let serial_launches: usize = serial.iter().map(|o| o.stats.corrector_launches).sum();
    let serial_converged: usize = serial.iter().map(|o| o.stats.converged).sum();
    let serial_steps: usize = serial.iter().map(|o| o.stats.steps).sum();
    let serial_iterations: usize = serial.iter().map(|o| o.stats.newton_iterations).sum();
    for (i, lone) in serial.iter().enumerate() {
        assert_eq!(
            lone.reports[0].solution_limbs, batched.reports[i].solution_limbs,
            "path {i}: batched and serial endpoints must be bitwise equal"
        );
    }
    assert!(
        batched.stats.corrector_launches < serial_launches,
        "batched tracking must issue fewer corrector launches than serial"
    );

    let esc_count = |outcome: &TrackOutcome, p: Precision| -> usize {
        outcome
            .stats
            .escalations_by_precision
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(0, |(_, c)| *c)
    };
    let serial_esc = |p: Precision| -> usize { serial.iter().map(|o| esc_count(o, p)).sum() };

    let mut t = TextTable::new(vec![
        "kind",
        "paths",
        "converged",
        "escalated",
        "launches",
        "steps",
        "iters",
        "time (ms)",
    ]);
    let mut json = JsonReport::new("track");
    let mut emit = |kind: &str,
                    converged: usize,
                    escalated: usize,
                    esc: [usize; 7],
                    launches: usize,
                    steps: usize,
                    iterations: usize,
                    wall_ms: f64,
                    speedup: f64| {
        if opts.json {
            let mut fields = vec![
                ("kind", Json::Str(kind.to_string())),
                ("paths", Json::Num(starts.len() as f64)),
                ("converged", Json::Num(converged as f64)),
                ("escalated_paths", Json::Num(escalated as f64)),
            ];
            let names = [
                "esc_1d", "esc_2d", "esc_3d", "esc_4d", "esc_5d", "esc_8d", "esc_10d",
            ];
            for (name, count) in names.iter().zip(esc.iter()) {
                fields.push((name, Json::Num(*count as f64)));
            }
            fields.push(("corrector_launches", Json::Num(launches as f64)));
            fields.push(("steps", Json::Num(steps as f64)));
            fields.push(("newton_iterations", Json::Num(iterations as f64)));
            fields.push(("track_ms", Json::Num(wall_ms)));
            fields.push(("launch_speedup", Json::Num(speedup)));
            json.add_row(fields);
        } else {
            t.add_row(vec![
                kind.to_string(),
                starts.len().to_string(),
                converged.to_string(),
                escalated.to_string(),
                launches.to_string(),
                steps.to_string(),
                iterations.to_string(),
                ms(wall_ms),
            ]);
        }
    };

    let batched_esc: Vec<usize> = Precision::ALL
        .iter()
        .map(|&p| esc_count(&batched, p))
        .collect();
    emit(
        "batched",
        batched.stats.converged,
        batched.stats.escalated_paths,
        batched_esc.clone().try_into().unwrap(),
        batched.stats.corrector_launches,
        batched.stats.steps,
        batched.stats.newton_iterations,
        batched_ms,
        serial_launches as f64 / batched.stats.corrector_launches.max(1) as f64,
    );
    let serial_escalated: usize = serial.iter().map(|o| o.stats.escalated_paths).sum();
    let serial_escs: Vec<usize> = Precision::ALL.iter().map(|&p| serial_esc(p)).collect();
    emit(
        "serial",
        serial_converged,
        serial_escalated,
        serial_escs.try_into().unwrap(),
        serial_launches,
        serial_steps,
        serial_iterations,
        serial_ms,
        1.0,
    );

    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "\nbatched tracking: {} launches for {} paths vs {} serial \
             ({:.1}x fewer); every escalation and endpoint bitwise equal.",
            batched.stats.corrector_launches,
            starts.len(),
            serial_launches,
            serial_launches as f64 / batched.stats.corrector_launches.max(1) as f64,
        );
    }
}

/// The serving-layer load report: deterministic staged coalescing runs
/// (parked tickets drained in exact FIFO windows — every counter a pure
/// function of `(requests, max_batch)`) and threaded closed-loop load
/// generation (concurrent clients recycling their response buffers).  This
/// report produces `bench/baselines/BENCH_serve.json`: the staged counters
/// and the closed-loop identities are exact-gated, the timings
/// tolerance-gated, and the measured coalescing ratio rides along as an
/// ungated `*_speedup` field.
fn serve_report(opts: &Options) {
    emit_banner(
        opts,
        &banner(
            "Serving layer: staged coalescing windows (deterministic) and \
             closed-loop concurrent load (measured CPU)",
        ),
    );
    let mut t = TextTable::new(vec![
        "kind",
        "poly",
        "degree",
        "requests",
        "window/clients",
        "launches",
        "saved",
        "coalesce",
        "time (ms)",
        "p99 (ms)",
    ]);
    let mut json = JsonReport::new("serve");
    let degree = 8;

    // Staged runs: the window packing is exact — ceil(requests/max_batch)
    // launches, FIFO slices, reproducible histograms.  The last scenario
    // parks dead-on-arrival tickets too, so the JSON rows demonstrate that
    // an expired deadline is reported as `deadline_expired`, distinct from
    // the admission-control `busy_rejected` counter.
    for (requests, expired, max_batch) in
        [(16usize, 0usize, 4usize), (32, 0, 8), (10, 0, 4), (9, 3, 4)]
    {
        eprintln!("serve: staged {requests} requests (+{expired} expired), window {max_batch}...");
        let row = psmd_bench::staged_run(
            TestPolynomial::P1,
            degree,
            requests,
            expired,
            max_batch,
            opts.seed,
        );
        assert_eq!(
            row.completed + row.deadline_expired + row.busy_rejected,
            (row.requests + row.expired) as u64,
            "staged accounting identity violated"
        );
        if opts.json {
            let mut fields = vec![
                ("kind", Json::Str("staged".to_string())),
                ("poly", Json::Str(row.poly.label().to_string())),
                ("degree", Json::Num(row.degree as f64)),
                ("requests", Json::Num(row.requests as f64)),
                ("expired", Json::Num(row.expired as f64)),
                ("max_batch", Json::Num(row.max_batch as f64)),
                ("launches", Json::Num(row.launches as f64)),
                ("launches_saved", Json::Num(row.launches_saved as f64)),
                ("completed", Json::Num(row.completed as f64)),
                ("busy_rejected", Json::Num(row.busy_rejected as f64)),
                ("deadline_expired", Json::Num(row.deadline_expired as f64)),
                (
                    "cancelled_launches",
                    Json::Num(row.cancelled_launches as f64),
                ),
                ("detached_slots", Json::Num(row.detached_slots as f64)),
                ("drain_ms", Json::Num(row.drain_ms)),
            ];
            let bucket_names = [
                "hist_0", "hist_1", "hist_2", "hist_3", "hist_4", "hist_5", "hist_6",
            ];
            for (name, count) in bucket_names.iter().zip(row.batch_histogram.iter()) {
                fields.push((name, Json::Num(*count as f64)));
            }
            json.add_row(fields);
        } else {
            t.add_row(vec![
                "staged".to_string(),
                row.poly.label().to_string(),
                row.degree.to_string(),
                if row.expired > 0 {
                    format!("{}+{}exp", row.requests, row.expired)
                } else {
                    row.requests.to_string()
                },
                row.max_batch.to_string(),
                row.launches.to_string(),
                row.launches_saved.to_string(),
                format!("{:.2}x", row.completed as f64 / row.launches.max(1) as f64),
                ms(row.drain_ms),
                "-".to_string(),
            ]);
        }
    }

    // Closed-loop runs: real concurrency, so the launch count is timing
    // dependent; the request count and the admission counters stay exact.
    for clients in [4usize, 8] {
        let per_client = 16;
        eprintln!("serve: closed loop, {clients} clients x {per_client}...");
        let row =
            psmd_bench::closed_loop_run(TestPolynomial::P1, degree, clients, per_client, opts.seed);
        assert_eq!(
            row.launches + row.launches_saved + row.busy_rejected,
            row.requests,
            "serve accounting identity violated"
        );
        if opts.json {
            json.add_row(vec![
                ("kind", Json::Str("closed_loop".to_string())),
                ("poly", Json::Str(row.poly.label().to_string())),
                ("degree", Json::Num(row.degree as f64)),
                ("clients", Json::Num(row.clients as f64)),
                ("per_client", Json::Num(row.per_client as f64)),
                ("requests", Json::Num(row.requests as f64)),
                ("busy_rejected", Json::Num(row.busy_rejected as f64)),
                ("coalesce_speedup", Json::Num(row.mean_batch.max(1.0))),
                ("total_ms", Json::Num(row.total_ms)),
                ("p50_ms", Json::Num(row.p50_ms)),
                ("p99_ms", Json::Num(row.p99_ms)),
            ]);
        } else {
            t.add_row(vec![
                "closed-loop".to_string(),
                row.poly.label().to_string(),
                row.degree.to_string(),
                row.requests.to_string(),
                clients.to_string(),
                row.launches.to_string(),
                row.launches_saved.to_string(),
                format!("{:.2}x", row.mean_batch.max(1.0)),
                ms(row.total_ms),
                ms(row.p99_ms),
            ]);
        }
    }

    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(staged rows park N tickets and drain them on one thread: exactly\n\
             ceil(N / window) launches, bit-reproducible; closed-loop rows run real\n\
             concurrent clients, so their launch count varies — the identity\n\
             launches + saved + busy == requests always holds)"
        );
    }
}

/// The convolution kernel ladder: direct schoolbook loop vs Karatsuba
/// short product vs compensated digit-FFT, measured per (precision, degree)
/// on the same seeded operands, with the `Auto` crossover resolution of
/// each row.  This report produces `bench/baselines/BENCH_kernels.json`;
/// `psmd_core::crossover` was measured with it when the schoolbook column
/// timed the paper's zero-insertion kernel.
fn kernels_report(opts: &Options) {
    emit_banner(
        opts,
        &banner(
            "Convolution kernel ladder: schoolbook vs Karatsuba vs digit-FFT \
             (mean ms per convolution, measured on one core)",
        ),
    );
    let mut t = TextTable::new(vec![
        "precision",
        "degree",
        "schoolbook (ms)",
        "karatsuba (ms)",
        "fft (ms)",
        "auto (ms)",
        "auto kernel",
        "auto speedup",
    ]);
    let mut json = JsonReport::new("kernels");
    for prec in Precision::ALL {
        for d in psmd_bench::KERNEL_LADDER_DEGREES {
            eprintln!("kernels: measuring {} at degree {d}...", prec.label());
            let row = psmd_bench::kernel_ladder_row(prec, d, opts.seed);
            if opts.json {
                json.add_row(vec![
                    ("precision", Json::Str(row.precision.to_string())),
                    ("limbs", Json::Num(row.limbs as f64)),
                    ("degree", Json::Num(row.degree as f64)),
                    ("schoolbook_ms", Json::Num(row.schoolbook_ms)),
                    ("karatsuba_ms", Json::Num(row.karatsuba_ms)),
                    ("fft_ms", Json::Num(row.fft_ms)),
                    ("auto_ms", Json::Num(row.auto_ms)),
                    ("auto_kernel", Json::Str(row.auto_label().to_string())),
                    ("auto_speedup", Json::Num(row.auto_speedup())),
                    ("schoolbook_mults", Json::Num(row.schoolbook_mults as f64)),
                    ("karatsuba_mults", Json::Num(row.karatsuba_mults as f64)),
                    ("fft_points", Json::Num(row.fft_points as f64)),
                    ("fft_planes", Json::Num(row.fft_planes as f64)),
                    ("fft_digit_bits", Json::Num(row.fft_digit_bits as f64)),
                ]);
            } else {
                t.add_row(vec![
                    row.precision.to_string(),
                    d.to_string(),
                    ms(row.schoolbook_ms),
                    ms(row.karatsuba_ms),
                    ms(row.fft_ms),
                    ms(row.auto_ms),
                    row.auto_label().to_string(),
                    format!("{:.2}x", row.auto_speedup()),
                ]);
            }
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(each cell is the mean wall clock of one raw convolution on seeded random\n\
             operands; the auto column re-reports the kernel the measured crossover\n\
             table of psmd_core::crossover selects for that precision and degree)"
        );
    }
}

/// Workspace reuse: the pooled and the zero-allocation reused-output
/// steady states against the cold first evaluation,
/// plus the counting-allocator measurement of the steady state.
///
/// The allocation count runs on a dedicated **one-worker** engine, so it
/// covers the pool's launches as well as staging, extraction and the
/// measuring thread's share of the blocks; it is deterministic, and the
/// committed baseline pins it at exactly zero.  Timings run on the shared
/// default engine.
fn workspace_report(opts: &Options) {
    let engine = Engine::new();
    let alloc_engine = Engine::builder().threads(1).build();
    let evals = 16usize;
    let (scale, degrees, label): (Scale, Vec<usize>, &str) = if opts.full {
        (Scale::Full, PAPER_DEGREES.to_vec(), "full")
    } else {
        (Scale::Reduced, REDUCED_DEGREES.to_vec(), "reduced")
    };
    emit_banner(
        opts,
        &banner(&format!(
            "Workspace reuse: pooled evaluation vs zero-allocation output reuse \
             ({evals} steady evaluations per mode; {label} polynomials, double-double, \
             measured CPU)"
        )),
    );
    let mut t = TextTable::new(vec![
        "poly",
        "degree",
        "cold (ms)",
        "pooled (ms)",
        "reused (ms)",
        "reuse speedup",
        "arena coeffs",
        "steady allocs",
    ]);
    let mut json = JsonReport::new("workspace");
    for poly in TestPolynomial::ALL {
        for &d in &degrees {
            eprintln!("workspace: measuring {} at degree {d}...", poly.label());
            let cmp = psmd_bench::workspace_comparison(
                &engine,
                poly,
                Precision::D2,
                d,
                scale,
                evals,
                opts.seed,
            );
            // The deterministic zero-allocation gate: the steady-state
            // reused-output path on the threaded engine must not touch the
            // allocator at all.
            let plan = alloc_engine.compile(poly.build_at::<Dd>(d, scale, opts.seed));
            let inputs = poly.inputs_at::<Dd>(d, scale, opts.seed);
            let mut out = plan.request(&inputs).run();
            plan.request(&inputs).into(&mut out).run();
            let steady_allocs = count_allocs(|| {
                for _ in 0..4 {
                    plan.request(&inputs).into(&mut out).run();
                }
            });
            if opts.json {
                json.add_row(vec![
                    ("poly", Json::Str(poly.label().to_string())),
                    ("degree", Json::Num(d as f64)),
                    ("evals", Json::Num(cmp.evals as f64)),
                    ("cold_ms", Json::Num(cmp.cold_ms)),
                    ("pooled_ms", Json::Num(cmp.pooled_ms)),
                    ("reused_ms", Json::Num(cmp.reused_ms)),
                    (
                        "reuse_speedup",
                        Json::Num(cmp.pooled_ms / cmp.reused_ms.max(1e-9)),
                    ),
                    ("arena_coeffs", Json::Num(cmp.arena_coeffs as f64)),
                    (
                        "scratch_lane_coeffs",
                        Json::Num(cmp.scratch_lane_coeffs as f64),
                    ),
                    ("steady_allocs", Json::Num(steady_allocs as f64)),
                ]);
            } else {
                t.add_row(vec![
                    poly.label().to_string(),
                    d.to_string(),
                    ms(cmp.cold_ms),
                    ms(cmp.pooled_ms),
                    ms(cmp.reused_ms),
                    format!("{:.2}x", cmp.pooled_ms / cmp.reused_ms.max(1e-9)),
                    cmp.arena_coeffs.to_string(),
                    steady_allocs.to_string(),
                ]);
            }
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(arena and per-worker scratch live in pooled workspaces; the steady-allocs\n\
             column counts allocator calls over 4 steady-state reused-output calls on a\n\
             zero-worker engine — the committed baseline pins it at exactly 0)"
        );
    }
}

/// The CI perf-regression gate: compares a current JSON report against a
/// committed baseline and exits non-zero on regressions (timings beyond the
/// tolerance, or any deterministic count drift).
fn compare_command(opts: &Options) {
    let baseline_path = opts
        .baseline
        .as_deref()
        .expect("compare needs --baseline <file>");
    let current_path = opts
        .current
        .as_deref()
        .expect("compare needs --current <file>");
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let current = std::fs::read_to_string(current_path)
        .unwrap_or_else(|e| panic!("cannot read current {current_path}: {e}"));
    match psmd_bench::compare_reports(&baseline, &current, opts.tolerance_pct) {
        Ok(summary) => {
            print!(
                "compare {current_path} against {baseline_path} (tolerance {}%):\n{}",
                opts.tolerance_pct,
                summary.render()
            );
            if !summary.is_pass() {
                eprintln!(
                    "perf regression detected; regenerate bench/baselines/ if intentional, \
                     or apply the perf-regression-ok PR label to override the gate"
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Prints a report heading: to stdout normally, to stderr in JSON mode
/// (stdout must stay a single valid JSON document for the tee'd CI
/// artifacts).
fn emit_banner(opts: &Options, heading: &str) {
    if opts.json {
        eprint!("{heading}");
    } else {
        print!("{heading}");
    }
}

/// Compile-once/evaluate-many amortization of the Engine/Plan API: the
/// one-time schedule compile, the (free) cached recompile, and the repeated
/// per-evaluation cost.
///
/// Uses a dedicated engine with at least three workers so the deterministic
/// rendezvous-per-evaluation column is machine-independent.
fn engine_report(opts: &Options) {
    let workers = WorkerPool::default_worker_threads().max(3);
    let engine = Engine::builder().threads(workers).build();
    let evals = 16usize;
    let (scale, degrees, label): (Scale, Vec<usize>, &str) = if opts.full {
        (Scale::Full, PAPER_DEGREES.to_vec(), "full")
    } else {
        (Scale::Reduced, REDUCED_DEGREES.to_vec(), "reduced")
    };
    emit_banner(
        opts,
        &banner(&format!(
            "Engine amortization: compile once, evaluate many ({evals} evaluations per \
             plan; {label} polynomials, double-double, measured CPU, {workers} workers)"
        )),
    );
    let mut t = TextTable::new(vec![
        "poly",
        "degree",
        "compile (ms)",
        "cached compile (ms)",
        "first eval (ms)",
        "mean eval (ms)",
        "compile/eval",
        "cache hits",
        "rendezvous/eval",
    ]);
    let mut json = JsonReport::new("engine");
    for poly in TestPolynomial::ALL {
        for &d in &degrees {
            eprintln!("engine: measuring {} at degree {d}...", poly.label());
            let rec = psmd_bench::engine_amortization(
                &engine,
                poly,
                Precision::D2,
                d,
                scale,
                evals,
                opts.seed,
            );
            if opts.json {
                json.add_row(vec![
                    ("poly", Json::Str(poly.label().to_string())),
                    ("degree", Json::Num(d as f64)),
                    ("compile_ms", Json::Num(rec.compile_ms)),
                    ("cached_compile_ms", Json::Num(rec.cached_compile_ms)),
                    ("cache_hits", Json::Num(rec.cache_hits as f64)),
                    ("evals", Json::Num(rec.evals as f64)),
                    ("first_eval_ms", Json::Num(rec.first_eval_ms)),
                    ("mean_eval_ms", Json::Num(rec.mean_eval_ms)),
                    (
                        "rendezvous_per_eval",
                        Json::Num(rec.rendezvous_per_eval as f64),
                    ),
                ]);
            } else {
                t.add_row(vec![
                    poly.label().to_string(),
                    d.to_string(),
                    ms(rec.compile_ms),
                    ms(rec.cached_compile_ms),
                    ms(rec.first_eval_ms),
                    ms(rec.mean_eval_ms),
                    format!("{:.1}x", rec.compile_ms / rec.mean_eval_ms.max(1e-9)),
                    rec.cache_hits.to_string(),
                    rec.rendezvous_per_eval.to_string(),
                ]);
            }
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(the schedule is the expensive artifact: compiling it costs a multiple of one\n\
             evaluation, recompiling a structurally identical polynomial is a cache hit)"
        );
    }
}

/// Fused system evaluation (one merged schedule, one launch per shared
/// layer) vs a loop of per-polynomial evaluations.
fn system_report(opts: &Options, engine: &Engine) {
    let equations = opts.equations;
    let (scale, degrees, label): (Scale, Vec<usize>, &str) = if opts.full {
        (Scale::Full, PAPER_DEGREES.to_vec(), "full")
    } else {
        (Scale::Reduced, REDUCED_DEGREES.to_vec(), "reduced")
    };
    emit_banner(
        opts,
        &banner(&format!(
            "System evaluation: {equations} equations fused into one schedule vs a \
             per-polynomial loop ({label} polynomials, double-double, measured CPU)"
        )),
    );
    let mut t = TextTable::new(vec![
        "poly",
        "degree",
        "fused (ms)",
        "looped par (ms)",
        "looped seq (ms)",
        "speedup vs loop",
        "launches",
        "launches (loop)",
    ]);
    let mut json = JsonReport::new("system");
    for poly in TestPolynomial::ALL {
        for &d in &degrees {
            eprintln!("system: measuring {} at degree {d}...", poly.label());
            let cmp = psmd_bench::system_comparison(
                engine,
                poly,
                Precision::D2,
                d,
                scale,
                equations,
                opts.seed,
            );
            if opts.json {
                json.add_row(vec![
                    ("poly", Json::Str(poly.label().to_string())),
                    ("degree", Json::Num(d as f64)),
                    ("equations", Json::Num(equations as f64)),
                    ("fused_ms", Json::Num(cmp.fused.wall_ms)),
                    ("looped_parallel_ms", Json::Num(cmp.looped_parallel.wall_ms)),
                    (
                        "looped_sequential_ms",
                        Json::Num(cmp.looped_sequential.wall_ms),
                    ),
                    ("fused_launches", Json::Num(cmp.fused_launches as f64)),
                    ("looped_launches", Json::Num(cmp.looped_launches as f64)),
                    ("unique_monomials", Json::Num(cmp.unique_monomials as f64)),
                    ("total_monomials", Json::Num(cmp.total_monomials as f64)),
                ]);
            } else {
                t.add_row(vec![
                    poly.label().to_string(),
                    d.to_string(),
                    ms(cmp.fused.wall_ms),
                    ms(cmp.looped_parallel.wall_ms),
                    ms(cmp.looped_sequential.wall_ms),
                    format!(
                        "{:.2}x",
                        cmp.looped_parallel.wall_ms / cmp.fused.wall_ms.max(1e-9)
                    ),
                    cmp.fused_launches.to_string(),
                    cmp.looped_launches.to_string(),
                ]);
            }
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(one pool launch per merged layer carries all {equations} equations; the loop\n\
             column issues one launch per layer per equation)"
        );
    }
}

/// Batched multi-series evaluation vs a loop of per-polynomial launches.
fn batch_report(opts: &Options, engine: &Engine) {
    let batch = opts.batch.unwrap_or(32);
    let (scale, degrees, label): (Scale, Vec<usize>, &str) = if opts.full {
        (Scale::Full, PAPER_DEGREES.to_vec(), "full")
    } else {
        (Scale::Reduced, REDUCED_DEGREES.to_vec(), "reduced")
    };
    emit_banner(
        opts,
        &banner(&format!(
            "Batched evaluation: {batch} instances per launch vs per-polynomial launches \
             ({label} polynomials, double-double, measured CPU)"
        )),
    );
    let mut t = TextTable::new(vec![
        "poly",
        "degree",
        "batched (ms)",
        "looped par (ms)",
        "looped seq (ms)",
        "speedup vs loop",
        "launches",
        "launches (loop)",
    ]);
    let mut json = JsonReport::new("batch");
    for poly in TestPolynomial::ALL {
        for &d in &degrees {
            eprintln!("batch: measuring {} at degree {d}...", poly.label());
            let cmp = psmd_bench::batched_comparison(
                engine,
                poly,
                Precision::D2,
                d,
                scale,
                batch,
                opts.seed,
            );
            if opts.json {
                json.add_row(vec![
                    ("poly", Json::Str(poly.label().to_string())),
                    ("degree", Json::Num(d as f64)),
                    ("batch", Json::Num(batch as f64)),
                    ("batched_ms", Json::Num(cmp.batched.wall_ms)),
                    ("looped_parallel_ms", Json::Num(cmp.looped_parallel.wall_ms)),
                    (
                        "looped_sequential_ms",
                        Json::Num(cmp.looped_sequential.wall_ms),
                    ),
                    ("batched_launches", Json::Num(cmp.batched_launches as f64)),
                    ("looped_launches", Json::Num(cmp.looped_launches as f64)),
                ]);
            } else {
                t.add_row(vec![
                    poly.label().to_string(),
                    d.to_string(),
                    ms(cmp.batched.wall_ms),
                    ms(cmp.looped_parallel.wall_ms),
                    ms(cmp.looped_sequential.wall_ms),
                    format!(
                        "{:.2}x",
                        cmp.looped_parallel.wall_ms / cmp.batched.wall_ms.max(1e-9)
                    ),
                    cmp.batched_launches.to_string(),
                    cmp.looped_launches.to_string(),
                ]);
            }
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(one pool launch per layer carries the whole batch: the launch column is the\n\
             layer count of the schedule, independent of the batch size)"
        );
    }
}

/// The SIMD lane-tier report: for each precision of the ladder's working
/// set and each supported lane width, one batch evaluated under
/// `SimdMode::ForceWidth` and under `SimdMode::Scalar` on the same inputs.
/// The per-row `lane_identity` flag is the bitwise-identity invariant as a
/// deterministic exact-gated count (always 1; a 0 is a kernel bug and fails
/// the compare gate before it fails any test suite).  Timings are
/// tolerance-gated; the speedup ratio and the machine-dependent detection
/// row ride along ungated.
fn simd_report(opts: &Options) {
    use psmd_core::SimdMode;
    use psmd_multidouble::lanes::{detect_isa, detected_lane_width};

    let (scale, degree, label): (Scale, usize, &str) = if opts.full {
        (Scale::Full, 15, "full")
    } else {
        (Scale::Reduced, 7, "reduced")
    };
    let poly = TestPolynomial::P1;
    let batch = opts.batch.unwrap_or(16);
    let precisions = [Precision::D2, Precision::D4, Precision::D8];
    emit_banner(
        opts,
        &banner(&format!(
            "SIMD lane tier: forced-width batched evaluation vs scalar batch \
             ({label} {}, degree {degree}, batch {batch}, measured CPU)",
            poly.label()
        )),
    );
    let isa = detect_isa();
    let auto_width = detected_lane_width();
    eprintln!(
        "simd: detected {} (auto lane width {auto_width})",
        isa.name()
    );
    let mut t = TextTable::new(vec![
        "precision",
        "width",
        "scalar (ms)",
        "lanes (ms)",
        "speedup",
        "identical",
    ]);
    let mut json = JsonReport::new("simd");
    // The detection row: machine-dependent, so every field besides the row
    // identity is text (the compare gate skips text fields).
    json.add_row(vec![
        ("precision", Json::Str("detected".to_string())),
        ("isa", Json::Str(isa.name().to_string())),
        ("auto_width", Json::Str(auto_width.to_string())),
    ]);
    for precision in precisions {
        for width in SimdMode::SUPPORTED_WIDTHS {
            eprintln!("simd: measuring {} at width {width}...", precision.label());
            let cmp = psmd_bench::simd_comparison(
                poly, precision, degree, scale, batch, width, opts.seed,
            );
            assert_eq!(
                cmp.reported_width, width,
                "the lane run must report its forced width"
            );
            if opts.json {
                json.add_row(vec![
                    ("precision", Json::Str(precision.label().to_string())),
                    ("width", Json::Num(width as f64)),
                    ("batch", Json::Num(batch as f64)),
                    ("degree", Json::Num(degree as f64)),
                    ("lane_identity", Json::Num(u8::from(cmp.identical).into())),
                    ("scalar_ms", Json::Num(cmp.scalar.wall_ms)),
                    ("lanes_ms", Json::Num(cmp.lanes.wall_ms)),
                    (
                        "lanes_speedup",
                        Json::Num(cmp.scalar.wall_ms / cmp.lanes.wall_ms.max(1e-9)),
                    ),
                ]);
            } else {
                t.add_row(vec![
                    precision.label().to_string(),
                    width.to_string(),
                    ms(cmp.scalar.wall_ms),
                    ms(cmp.lanes.wall_ms),
                    format!("{:.2}x", cmp.scalar.wall_ms / cmp.lanes.wall_ms.max(1e-9)),
                    if cmp.identical { "yes" } else { "NO" }.to_string(),
                ]);
            }
            assert!(
                cmp.identical,
                "{} width {width}: lane tier diverged from the scalar batch path",
                precision.label()
            );
        }
    }
    if opts.json {
        print!("{json}");
    } else {
        print!("{t}");
        println!(
            "(forced widths beyond the hardware's vector units run the portable lane code\n\
             with identical bits; detected here: {} with auto width {auto_width})",
            isa.name()
        );
    }
}

/// Table 1: the five GPUs.
fn table1() {
    print!("{}", banner("Table 1: GPU characteristics"));
    let mut t = TextTable::new(vec![
        "NVIDIA GPU",
        "CUDA",
        "#MP",
        "#cores/MP",
        "#cores",
        "GHz",
        "host CPU",
        "host GHz",
    ]);
    for g in paper_gpus() {
        t.add_row(vec![
            g.name.to_string(),
            format!("{:.1}", g.cuda_capability),
            g.multiprocessors.to_string(),
            g.cores_per_mp.to_string(),
            g.total_cores().to_string(),
            format!("{:.2}", g.ghz),
            g.host_cpu.to_string(),
            format!("{:.2}", g.host_ghz),
        ]);
    }
    print!("{t}");
}

/// Table 2: characteristics of the test polynomials (ours vs the paper).
fn table2(opts: &Options) {
    emit_banner(opts, &banner("Table 2: test polynomials"));
    let mut t = TextTable::new(vec![
        "poly",
        "n",
        "m",
        "N",
        "#cnv (ours)",
        "#cnv (paper)",
        "#add (ours)",
        "#add (paper)",
    ]);
    let mut json = JsonReport::new("table2");
    for poly in TestPolynomial::ALL {
        let p: Polynomial<Md<2>> = poly.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        if opts.json {
            json.add_row(vec![
                ("poly", Json::Str(poly.label().to_string())),
                ("n", Json::Num(poly.num_variables() as f64)),
                ("m", Json::Num(poly.variables_per_monomial() as f64)),
                ("N", Json::Num(poly.num_monomials() as f64)),
                ("convolutions", Json::Num(s.convolution_jobs() as f64)),
                (
                    "convolutions_paper",
                    Json::Num(poly.paper_convolutions() as f64),
                ),
                ("additions", Json::Num(s.addition_jobs() as f64)),
                ("additions_paper", Json::Num(poly.paper_additions() as f64)),
            ]);
        } else {
            t.add_row(vec![
                poly.label().to_string(),
                poly.num_variables().to_string(),
                poly.variables_per_monomial().to_string(),
                poly.num_monomials().to_string(),
                s.convolution_jobs().to_string(),
                poly.paper_convolutions().to_string(),
                s.addition_jobs().to_string(),
                poly.paper_additions().to_string(),
            ]);
        }
    }
    if opts.json {
        print!("{json}");
        return;
    }
    print!("{t}");
    println!(
        "note: p3 needs 3 convolutions per 2-variable monomial in our scheme (24,384);\n\
         the paper reports 24,256 (0.5% difference, documented in EXPERIMENTS.md)."
    );
}

/// Table 3: p1 at degree 152 in deca-double precision on the five GPUs.
fn table3(cache: &mut ShapeCache, opts: &Options, engine: &Engine) {
    print!(
        "{}",
        banner("Table 3: p1, degree 152, deca double (modeled per device)")
    );
    let mut t = TextTable::new(vec![
        "time (ms)",
        "C2050",
        "K20C",
        "P100",
        "V100",
        "RTX 2080",
    ]);
    let rows: Vec<TimingRow> = paper_gpus()
        .iter()
        .map(|g| {
            modeled_run(
                cache,
                TestPolynomial::P1,
                g,
                Precision::D10,
                152,
                CostModel::Paper,
            )
        })
        .collect();
    let paper = [
        (
            "convolution",
            vec![12947.26, 11290.22, 1060.03, 634.29, 10002.32],
        ),
        ("addition", vec![10.72, 11.13, 1.37, 0.77, 5.01]),
        ("sum", vec![12957.98, 11301.35, 1061.40, 635.05, 10007.34]),
        ("wall clock", vec![12964.0, 11309.0, 1066.0, 640.0, 10024.0]),
    ];
    let pick = |row: &TimingRow, which: &str| match which {
        "convolution" => row.convolution_ms,
        "addition" => row.addition_ms,
        "sum" => row.sum_ms(),
        _ => row.wall_ms,
    };
    for (which, paper_vals) in &paper {
        let mut cells = vec![format!("{which} (modeled)")];
        cells.extend(rows.iter().map(|r| ms(pick(r, which))));
        t.add_row(cells);
        let mut cells = vec![format!("{which} (paper)")];
        cells.extend(paper_vals.iter().map(|&v| ms(v)));
        t.add_row(cells);
    }
    print!("{t}");
    if opts.measure {
        let (scale, degree, label) = measured_setting(opts, 152);
        let row = measured_run(
            engine,
            TestPolynomial::P1,
            Precision::D10,
            degree,
            scale,
            opts.seed,
        );
        println!(
            "measured CPU ({label}, degree {degree}, deca double): conv {} ms, add {} ms, wall {} ms",
            ms(row.convolution_ms),
            ms(row.addition_ms),
            ms(row.wall_ms)
        );
    }
}

/// Table 4: p2 and p3 at degree 152 in deca-double on P100 and V100.
fn table4(cache: &mut ShapeCache, opts: &Options, engine: &Engine) {
    print!(
        "{}",
        banner("Table 4: p2 and p3, degree 152, deca double (modeled, P100/V100)")
    );
    let p100 = gpu_by_key("p100").unwrap();
    let v100 = gpu_by_key("v100").unwrap();
    let mut t = TextTable::new(vec![
        "time (ms)",
        "p2 P100",
        "p2 V100",
        "p3 P100",
        "p3 V100",
    ]);
    let runs = [
        modeled_run(
            cache,
            TestPolynomial::P2,
            &p100,
            Precision::D10,
            152,
            CostModel::Paper,
        ),
        modeled_run(
            cache,
            TestPolynomial::P2,
            &v100,
            Precision::D10,
            152,
            CostModel::Paper,
        ),
        modeled_run(
            cache,
            TestPolynomial::P3,
            &p100,
            Precision::D10,
            152,
            CostModel::Paper,
        ),
        modeled_run(
            cache,
            TestPolynomial::P3,
            &v100,
            Precision::D10,
            152,
            CostModel::Paper,
        ),
    ];
    let paper = [
        ("convolution", [1700.49, 1115.03, 1566.58, 926.53]),
        ("addition", [1.24, 0.67, 3.43, 1.92]),
        ("sum", [1701.72, 1115.71, 1570.01, 928.45]),
        ("wall clock", [1729.0, 1142.0, 1583.0, 941.0]),
    ];
    let pick = |row: &TimingRow, which: &str| match which {
        "convolution" => row.convolution_ms,
        "addition" => row.addition_ms,
        "sum" => row.sum_ms(),
        _ => row.wall_ms,
    };
    for (which, paper_vals) in &paper {
        let mut cells = vec![format!("{which} (modeled)")];
        cells.extend(runs.iter().map(|r| ms(pick(r, which))));
        t.add_row(cells);
        let mut cells = vec![format!("{which} (paper)")];
        cells.extend(paper_vals.iter().map(|&v| ms(v)));
        t.add_row(cells);
    }
    print!("{t}");
    let wall_ratio_p2 = runs[0].wall_ms / runs[1].wall_ms;
    let wall_ratio_p3 = runs[2].wall_ms / runs[3].wall_ms;
    println!(
        "modeled P100/V100 wall-clock ratios: p2 {:.2} (paper 1.51), p3 {:.2} (paper 1.68)",
        wall_ratio_p2, wall_ratio_p3
    );
    if opts.measure {
        for poly in [TestPolynomial::P2, TestPolynomial::P3] {
            let (scale, degree, label) = measured_setting(opts, 152);
            let row = measured_run(engine, poly, Precision::D10, degree, scale, opts.seed);
            println!(
                "measured CPU {} ({label}, degree {degree}, deca double): conv {} ms, add {} ms, wall {} ms",
                poly.label(),
                ms(row.convolution_ms),
                ms(row.addition_ms),
                ms(row.wall_ms)
            );
        }
    }
}

/// Tables 5, 6, 7: scalability in the degree and the precision.
fn scalability_table(
    cache: &mut ShapeCache,
    poly: TestPolynomial,
    title: &str,
    opts: &Options,
    engine: &Engine,
) {
    print!(
        "{}",
        banner(&format!(
            "{title}: {} times (ms, modeled on the V100) for increasing degree and precision",
            poly.label()
        ))
    );
    let v100 = gpu_by_key("v100").unwrap();
    let mut headers = vec!["precision".to_string(), "metric".to_string()];
    headers.extend(PAPER_DEGREES.iter().map(|d| format!("d={d}")));
    let mut t = TextTable::new(headers);
    for prec in Precision::ALL {
        let dmax = max_degree(&v100, prec);
        let mut conv_cells = vec![prec.label().to_string(), "cnv".to_string()];
        let mut add_cells = vec![prec.label().to_string(), "add".to_string()];
        let mut wall_cells = vec![prec.label().to_string(), "wall".to_string()];
        for &d in &PAPER_DEGREES {
            if d > dmax {
                // The paper leaves these cells empty: the block does not fit
                // in shared memory (e.g. deca double beyond degree 152).
                conv_cells.push("-".to_string());
                add_cells.push("-".to_string());
                wall_cells.push("-".to_string());
                continue;
            }
            let row = modeled_run(cache, poly, &v100, prec, d, CostModel::Paper);
            conv_cells.push(ms(row.convolution_ms));
            add_cells.push(ms(row.addition_ms));
            wall_cells.push(ms(row.wall_ms));
        }
        t.add_row(conv_cells);
        t.add_row(add_cells);
        t.add_row(wall_cells);
    }
    print!("{t}");
    if opts.measure {
        let (scale, _, label) = measured_setting(opts, 0);
        let degrees: Vec<usize> = if opts.full {
            PAPER_DEGREES.to_vec()
        } else {
            REDUCED_DEGREES.to_vec()
        };
        println!(
            "\nmeasured CPU wall clock (ms), {label} variant of {}:",
            poly.label()
        );
        let mut headers = vec!["precision".to_string()];
        headers.extend(degrees.iter().map(|d| format!("d={d}")));
        let mut mt = TextTable::new(headers);
        for prec in Precision::ALL {
            let mut cells = vec![prec.label().to_string()];
            for &d in &degrees {
                if d > max_degree(&v100, prec) {
                    cells.push("-".to_string());
                    continue;
                }
                let row = measured_run(engine, poly, prec, d, scale, opts.seed);
                cells.push(ms(row.wall_ms));
            }
            mt.add_row(cells);
        }
        print!("{mt}");
    }
}

/// Table 8: wall-clock fluctuation over ten runs, fixed seed vs varying seed.
fn table8(opts: &Options, engine: &Engine) {
    print!(
        "{}",
        banner("Table 8: wall clock fluctuation over 10 runs (measured CPU)")
    );
    let (scale, degree, label) = if opts.full {
        (Scale::Full, 152, "full p3")
    } else {
        (Scale::Reduced, 31, "reduced p3")
    };
    let precision = Precision::D10;
    let run_once = |seed: u64| {
        measured_run(engine, TestPolynomial::P3, precision, degree, scale, seed).wall_ms
    };
    let fixed: Vec<f64> = (0..10).map(|_| run_once(1)).collect();
    let varying: Vec<f64> = (0..10).map(|k| run_once(1 + k as u64)).collect();
    let stats = |xs: &[f64]| {
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0f64, f64::max);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        (min, mean, max)
    };
    let mut t = TextTable::new(vec!["runs", "min (ms)", "mean (ms)", "max (ms)"]);
    let (min, mean, max) = stats(&fixed);
    t.add_row(vec![
        "fixed seed one".to_string(),
        ms(min),
        ms(mean),
        ms(max),
    ]);
    let (min, mean, max) = stats(&varying);
    t.add_row(vec![
        "different seeds".to_string(),
        ms(min),
        ms(mean),
        ms(max),
    ]);
    print!("{t}");
    println!(
        "({label}, degree {degree}, deca double; the paper reports a spread of ~5 ms around 943 ms on the V100)"
    );
}

/// Figure 2: addition kernel times of p1 for increasing degrees and all
/// precisions.
fn figure2(cache: &mut ShapeCache, opts: &Options, engine: &Engine) {
    print!(
        "{}",
        banner("Figure 2: addition kernel times for p1 (ms, modeled on the V100)")
    );
    let v100 = gpu_by_key("v100").unwrap();
    let degrees = [0usize, 8, 15, 31, 63, 95, 127, 152];
    let mut headers = vec!["precision".to_string()];
    headers.extend(degrees.iter().map(|d| format!("d={d}")));
    let mut t = TextTable::new(headers);
    for prec in Precision::ALL {
        let mut cells = vec![prec.label().to_string()];
        for &d in &degrees {
            if d > max_degree(&v100, prec) {
                cells.push("-".to_string());
                continue;
            }
            let row = modeled_run(cache, TestPolynomial::P1, &v100, prec, d, CostModel::Paper);
            cells.push(format!("{:.3}", row.addition_ms));
        }
        t.add_row(cells);
    }
    print!("{t}");
    if opts.measure {
        let (scale, _, label) = measured_setting(opts, 0);
        println!("\nmeasured CPU addition kernel times (ms), {label} p1:");
        let mut headers = vec!["precision".to_string()];
        headers.extend(REDUCED_DEGREES.iter().map(|d| format!("d={d}")));
        let mut mt = TextTable::new(headers);
        for prec in Precision::ALL {
            let mut cells = vec![prec.label().to_string()];
            for &d in &REDUCED_DEGREES {
                let row = measured_run(engine, TestPolynomial::P1, prec, d, scale, opts.seed);
                cells.push(format!("{:.3}", row.addition_ms));
            }
            mt.add_row(cells);
        }
        print!("{mt}");
    }
}

/// Figure 3: addition kernel times of p1, p2, p3 at degree 152 across the
/// precisions.
fn figure3(cache: &mut ShapeCache) {
    print!(
        "{}",
        banner("Figure 3: addition kernel times at degree 152 (ms, modeled on the V100)")
    );
    let v100 = gpu_by_key("v100").unwrap();
    let mut headers = vec!["poly".to_string()];
    headers.extend(Precision::ALL.iter().map(|p| p.label().to_string()));
    let mut t = TextTable::new(headers);
    for poly in TestPolynomial::ALL {
        let mut cells = vec![poly.label().to_string()];
        for prec in Precision::ALL {
            let row = modeled_run(cache, poly, &v100, prec, 152, CostModel::Paper);
            cells.push(format!("{:.3}", row.addition_ms));
        }
        t.add_row(cells);
    }
    print!("{t}");
    println!(
        "(p3 has 64x more monomials than p2 but its addition time stays within ~3x, as in the paper)"
    );
}

/// Figure 4: percentage of the wall clock spent inside kernels.
fn figure4(cache: &mut ShapeCache) {
    print!(
        "{}",
        banner(
            "Figure 4: kernel time as a percentage of the wall clock, degree 152 (modeled, V100)"
        )
    );
    let v100 = gpu_by_key("v100").unwrap();
    let mut headers = vec!["poly".to_string()];
    headers.extend(Precision::ALL.iter().map(|p| p.label().to_string()));
    let mut t = TextTable::new(headers);
    for poly in TestPolynomial::ALL {
        let mut cells = vec![poly.label().to_string()];
        for prec in Precision::ALL {
            let row = modeled_run(cache, poly, &v100, prec, 152, CostModel::Paper);
            cells.push(pct(row.kernel_percentage()));
        }
        t.add_row(cells);
    }
    print!("{t}");
    println!("(low percentages in double precision, above 95% for octo and deca double, as in the paper)");
}

/// Figure 5: log2 of the wall clock for p1, p2, p3 at degree 191 in 1d, 2d,
/// 4d, 8d precision.
fn figure5(cache: &mut ShapeCache) {
    print!(
        "{}",
        banner("Figure 5: log2 wall clock (ms) at degree 191 (modeled, V100)")
    );
    let v100 = gpu_by_key("v100").unwrap();
    let precisions = [Precision::D1, Precision::D2, Precision::D4, Precision::D8];
    let mut headers = vec!["poly".to_string()];
    headers.extend(precisions.iter().map(|p| p.label().to_string()));
    let mut t = TextTable::new(headers);
    for poly in TestPolynomial::ALL {
        let mut cells = vec![poly.label().to_string()];
        for prec in precisions {
            let row = modeled_run(cache, poly, &v100, prec, 191, CostModel::Paper);
            cells.push(log2(row.wall_ms));
        }
        t.add_row(cells);
    }
    print!("{t}");
}

/// Figure 6: log2 of the wall clock for p1 in 4d, 5d, 8d, 10d precision at
/// degrees 31, 63 and 127.
fn figure6(cache: &mut ShapeCache) {
    print!(
        "{}",
        banner("Figure 6: log2 wall clock (ms) for p1 (modeled, V100)")
    );
    let v100 = gpu_by_key("v100").unwrap();
    let precisions = [Precision::D4, Precision::D5, Precision::D8, Precision::D10];
    let degrees = [31usize, 63, 127];
    let mut headers = vec!["precision".to_string()];
    headers.extend(degrees.iter().map(|d| format!("d={d}")));
    let mut t = TextTable::new(headers);
    for prec in precisions {
        let mut cells = vec![prec.label().to_string()];
        for &d in &degrees {
            let row = modeled_run(cache, TestPolynomial::P1, &v100, prec, d, CostModel::Paper);
            cells.push(log2(row.wall_ms));
        }
        t.add_row(cells);
    }
    print!("{t}");
    println!("(doubling the number of coefficients adds about one to the log2 time, as in Figure 6 of the paper)");
}

/// The TFLOPS computation of Section 6.2.
fn tflops(cache: &mut ShapeCache) {
    print!(
        "{}",
        banner("Section 6.2: throughput of p1, degree 152, deca double")
    );
    let total = modeled_double_ops(
        cache,
        TestPolynomial::P1,
        Precision::D10,
        152,
        CostModel::Paper,
    );
    println!("total double operations (paper cost model): {total:.0} (paper: 1,336,226,651,784)");
    for key in ["p100", "v100"] {
        let gpu = gpu_by_key(key).unwrap();
        let row = modeled_run(
            cache,
            TestPolynomial::P1,
            &gpu,
            Precision::D10,
            152,
            CostModel::Paper,
        );
        let tf = total / (row.wall_ms * 1e-3) / 1e12;
        println!(
            "{:>8}: modeled wall clock {} ms -> {:.2} TFLOPS (paper: 1.25 TFLOPS on the P100)",
            gpu.name,
            ms(row.wall_ms),
            tf
        );
    }
}

/// Picks the scale and degree of measured runs from the options.
fn measured_setting(opts: &Options, full_degree: usize) -> (Scale, usize, &'static str) {
    if opts.full {
        (Scale::Full, full_degree, "full")
    } else {
        (Scale::Reduced, 31, "reduced")
    }
}
