//! Adaptive-precision homotopy path tracking — the application the whole
//! stack exists for, end to end through `psmd-track`.
//!
//! Sixteen solution paths of an 8-variable multilinear family are tracked
//! concurrently from the start system to the target system.  Three things
//! to watch in the output:
//!
//! 1. every corrector sweep serves **all** live paths with one coalesced
//!    batched launch of the stacked `[G; F]` plan, so the batched run
//!    issues far fewer launches than tracking the paths one at a time;
//! 2. the endpoint tolerance (1e-40) is below what double and
//!    double-double arithmetic can express, so every path escalates
//!    `1d → 2d → 3d` at the endgame — precision bought at runtime, per
//!    path, through the engine's plan cache;
//! 3. batched and serial tracking produce bitwise-identical endpoints,
//!    and every endpoint sits on its closed-form roots.
//!
//! The family is four independent two-variable blocks
//! `{x + y − s_k, x·y − p_k}` with `p_k < 0`: each block's two real roots
//! have opposite signs, so they never collide along the real path, and the
//! `2^4 = 16` sign patterns of the start system `{x + y, x·y + 1}` are the
//! start solutions.
//!
//! Run with `cargo run --release --example path_tracking`.

use psmd_core::Engine;
use psmd_multidouble::{Precision, Td};
use psmd_track::{HomotopySpec, MonomialSpec, PolySpec, TrackOptions, Tracker};

const BLOCKS: usize = 4;

/// Deterministic xorshift so the target constants are seeded, not chosen.
struct XorShift(u64);

impl XorShift {
    fn next_unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One `{x + y − s, x·y − p}` block over variables `(x, x+1)`.
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

/// The seeded target constants `(s, p)` of every block.
fn targets() -> Vec<(f64, f64)> {
    let mut rng = XorShift(0x005e_ed0f_da7a_2026);
    (0..BLOCKS)
        .map(|_| {
            let s = 0.1 + 0.8 * rng.next_unit();
            let p = -1.2 - 1.3 * rng.next_unit();
            (s, p)
        })
        .collect()
}

fn family() -> HomotopySpec {
    let mut start = Vec::new();
    let mut target = Vec::new();
    for (k, (s, p)) in targets().into_iter().enumerate() {
        // Start roots ±1; target roots irrational, of opposite signs.
        start.extend(block(2 * k, 0.0, -1.0));
        target.extend(block(2 * k, s, p));
    }
    HomotopySpec::new(2 * BLOCKS, 0, start, target)
}

/// The closed-form roots `(s ± √(s² − 4p)) / 2` of `z² − s·z + p`.
fn roots(s: f64, p: f64) -> [Td; 2] {
    let s = Td::from_f64(s);
    let disc = s.mul(&s).sub(&Td::from_f64(4.0 * p)).sqrt();
    [s.add(&disc).mul_f64(0.5), s.sub(&disc).mul_f64(0.5)]
}

/// The relative distance of an endpoint coordinate (its limbs at the
/// final precision) from a root.
fn relative(limbs: &[f64], root: &Td) -> f64 {
    let x = limbs.iter().fold(Td::zero(), |acc, &l| acc.add_f64(l));
    x.sub(root).abs().to_f64() / root.abs().to_f64()
}

/// The `2^BLOCKS` sign patterns of the start solutions.
fn start_solutions() -> Vec<Vec<f64>> {
    (0..1usize << BLOCKS)
        .map(|bits| {
            (0..BLOCKS)
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

fn main() {
    let options = TrackOptions {
        // Below the roundoff floor of 1d (~4e-16) and 2d (~1e-31): the
        // endgame must climb to triple-double to express it.
        final_tolerance: 1e-40,
        ..TrackOptions::default()
    };
    let tracker = Tracker::new(family(), options).expect("a valid family");
    let engine = Engine::builder().build();
    let starts = start_solutions();

    println!(
        "tracking {} paths of an {}-variable multilinear family, endpoint tolerance 1e-40\n",
        starts.len(),
        2 * BLOCKS
    );

    let batched = tracker.track(&engine, &starts).expect("tracking runs");

    println!("path   steps  rej  iters  precision  escalations      final residual");
    for r in &batched.reports {
        let ladder: Vec<&str> = r.escalations.iter().map(Precision::label).collect();
        println!(
            "{:>4}   {:>5}  {:>3}  {:>5}  {:>9}  {:<15}  {:.3e}",
            r.path,
            r.steps,
            r.rejected_steps,
            r.corrector_iterations,
            r.final_precision.label(),
            if ladder.is_empty() {
                "-".to_string()
            } else {
                ladder.join(" -> ")
            },
            r.final_residual,
        );
    }

    // The same paths one at a time: same endpoints, many more launches.
    let mut serial_launches = 0;
    for (i, s) in starts.iter().enumerate() {
        let lone = tracker
            .track(&engine, std::slice::from_ref(s))
            .expect("tracking runs");
        serial_launches += lone.stats.corrector_launches;
        assert_eq!(
            lone.reports[0].solution_limbs, batched.reports[i].solution_limbs,
            "path {i}: serial and batched endpoints must match bitwise"
        );
    }

    let stats = &batched.stats;
    println!("\nconverged {}/{} paths", stats.converged, stats.paths);
    println!(
        "corrector launches: {} batched vs {} one-path-at-a-time ({:.1}x fewer)",
        stats.corrector_launches,
        serial_launches,
        serial_launches as f64 / stats.corrector_launches as f64
    );
    for (p, count) in &stats.escalations_by_precision {
        println!("escalations to {}: {count}", p.label());
    }

    assert!(
        stats.paths >= 16,
        "the example must track at least 16 paths"
    );
    assert_eq!(stats.converged, stats.paths, "every path must converge");
    let past_dd = batched
        .reports
        .iter()
        .filter(|r| r.converged() && r.final_precision > Precision::D2)
        .count();
    assert!(
        past_dd >= 1,
        "at least one path must escalate beyond double-double to converge"
    );
    assert!(
        stats.corrector_launches < serial_launches,
        "batched tracking must issue fewer corrector launches than serial"
    );
    // A residual below 1e-40 puts every endpoint within a relative 1e-32
    // of its block's closed-form roots (x on one, y on the other).
    let mut worst: f64 = 0.0;
    for r in &batched.reports {
        for (k, (s, p)) in targets().into_iter().enumerate() {
            let [r0, r1] = roots(s, p);
            let (x, y) = (&r.solution_limbs[2 * k][0], &r.solution_limbs[2 * k + 1][0]);
            let straight = relative(x, &r0).max(relative(y, &r1));
            let crossed = relative(x, &r1).max(relative(y, &r0));
            worst = worst.max(straight.min(crossed));
        }
    }
    assert!(
        worst <= 1e-32,
        "an endpoint is {worst:.3e} from its closed-form roots"
    );
    println!(
        "\n{past_dd} paths escalated beyond double-double and still converged; \
         endpoints are bitwise equal to serial tracking and within {worst:.1e} \
         (relative) of the closed-form roots."
    );
}
