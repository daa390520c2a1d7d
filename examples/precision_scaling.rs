//! Precision and degree scaling on the CPU — a measured miniature of the
//! paper's Figures 5 and 6.
//!
//! Evaluates the reduced p1 polynomial at increasing truncation degrees in
//! double, double-double, quad-double, octo-double and deca-double precision
//! and prints the wall-clock times and their base-2 logarithms.  The
//! precision is a runtime value: [`psmd_bench::measured_run`] turns it into
//! its `Md<N>` type once, so there is no per-precision match at the call
//! site.
//!
//! Run with `cargo run --release --example precision_scaling`.

use psmd_bench::{measured_run, Scale, TestPolynomial};
use psmd_core::Engine;
use psmd_multidouble::Precision;

fn main() {
    let engine = Engine::builder().build();
    let degrees = [7usize, 15, 31];
    println!(
        "reduced p1, block-parallel on {} lanes",
        engine.pool().parallelism()
    );
    println!("wall clock in ms (and log2 of it) per precision and degree:\n");
    print!("{:<10}", "precision");
    for d in degrees {
        print!("{:>18}", format!("d = {d}"));
    }
    println!();
    let precisions = [
        Precision::D1,
        Precision::D2,
        Precision::D4,
        Precision::D8,
        Precision::D10,
    ];
    for prec in precisions {
        print!("{:<10}", prec.label());
        for d in degrees {
            let ms = measured_run(&engine, TestPolynomial::P1, prec, d, Scale::Reduced, 1).wall_ms;
            print!("{:>18}", format!("{ms:9.2} ({:5.2})", ms.log2()));
        }
        println!();
    }
    println!(
        "\nExpected shapes (paper, Figures 5 and 6): the cost grows roughly quadratically\n\
         with the degree once the degree exceeds the warp size, and each doubling of the\n\
         number of coefficients adds about one to the log2 of the time; increasing the\n\
         precision multiplies the time by the cost ratio of the multiple-double products."
    );
}
