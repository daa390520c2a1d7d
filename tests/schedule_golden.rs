//! Golden regression tests pinning the exact launch structure (blocks per
//! kernel launch) of the paper's three test polynomials.
//!
//! `tests/paper_claims.rs` asserts the job *sums* the paper reports; these
//! tests pin the full per-layer vectors, so a future schedule refactor
//! cannot silently reshuffle jobs between launches while keeping the sums
//! intact.  The batched evaluation engine multiplies each of these layer
//! sizes by the batch size per launch, so the vectors are also the contract
//! the batch-amortization numbers are computed from.
//!
//! If an intentional scheduler change alters these vectors, re-derive them
//! (print `convolution_layer_sizes()` / `addition_layer_sizes()`), check
//! the new structure against Section 5/6 of the paper, and update both this
//! file and EXPERIMENTS.md.

use psmd_bench::TestPolynomial;
use psmd_core::{Polynomial, Schedule};
use psmd_multidouble::Dd;

fn schedule_of(poly: TestPolynomial) -> Schedule {
    let p: Polynomial<Dd> = poly.build(0, 1);
    Schedule::build(std::slice::from_ref(&p))
}

#[test]
fn p1_layer_sizes_are_pinned() {
    let s = schedule_of(TestPolynomial::P1);
    // Section 6.1 verbatim: four convolution launches of 3,640 / 5,460 /
    // 5,460 / 1,820 blocks (every monomial has 4 variables: 2 first-step
    // jobs, then 3, 3, 1).
    assert_eq!(
        s.convolution_layer_sizes(),
        vec![3_640, 5_460, 5_460, 1_820]
    );
    // The addition stage: one layer folding the read-only contributions,
    // then the binary-tree halving per output, merged across outputs.
    assert_eq!(
        s.addition_layer_sizes(),
        vec![3_633, 2_734, 1_367, 675, 338, 169, 92, 46, 23, 4, 2, 1]
    );
}

#[test]
fn p2_layer_sizes_are_pinned() {
    let s = schedule_of(TestPolynomial::P2);
    // 64-variable monomials: 64 convolution layers.  The first 31 layers
    // hold 256 blocks (Section 6.2: forward+backward chains of all 128
    // monomials), layer 32 picks up the coefficient update, the cross
    // products double the middle layers to 512, and the chains taper off
    // at 384 and 128 blocks.
    let mut expected = vec![256usize; 31];
    expected.push(384);
    expected.extend(std::iter::repeat_n(512, 30));
    expected.push(384);
    expected.push(128);
    assert_eq!(s.convolution_layer_sizes(), expected);
    assert_eq!(
        s.addition_layer_sizes(),
        vec![4_097, 2_112, 1_056, 528, 264, 132, 2, 1]
    );
}

#[test]
fn p3_layer_sizes_are_pinned() {
    let s = schedule_of(TestPolynomial::P3);
    // Two-variable monomials: two launches — 8,128 forward starts plus
    // 8,128 backward products in the first, 8,128 finishing forwards in
    // the second (3 convolutions per monomial, see EXPERIMENTS.md for the
    // 24,384 vs 24,256 deviation from Table 2).
    assert_eq!(s.convolution_layer_sizes(), vec![16_256, 8_128]);
    assert_eq!(
        s.addition_layer_sizes(),
        vec![8_065, 8_160, 4_080, 2_040, 1_020, 510, 255, 63, 32, 16, 8, 4, 2, 1]
    );
}

#[test]
fn pinned_vectors_are_consistent_with_the_job_counts() {
    // Cross-check: the pinned vectors must sum to the Table 2 job counts
    // asserted in tests/paper_claims.rs, and respect the layer invariants.
    for poly in TestPolynomial::ALL {
        let s = schedule_of(poly);
        assert_eq!(
            s.convolution_layer_sizes().iter().sum::<usize>(),
            s.convolution_jobs(),
            "{}",
            poly.label()
        );
        assert_eq!(
            s.addition_layer_sizes().iter().sum::<usize>(),
            s.addition_jobs(),
            "{}",
            poly.label()
        );
        s.validate_layers().expect("layers must stay conflict-free");
    }
}

#[test]
fn reduced_variants_keep_the_layer_count_structure() {
    // The reduced polynomials must preserve the *shape* of the launch
    // structure (layer count = variables per monomial for the convolution
    // stage), so measured CPU sweeps exercise the same launch cadence.
    for poly in TestPolynomial::ALL {
        let p: Polynomial<Dd> = poly.build_reduced(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        assert_eq!(
            s.convolution_layers.len(),
            p.max_variables_per_monomial(),
            "{}",
            poly.label()
        );
    }
}
