//! The paper's three test polynomials (Section 6.1, Table 2) and reduced
//! variants used for measured CPU runs.
//!
//! * `p1`: 16 variables, all 1,820 products of exactly four variables.
//! * `p2`: 128 variables, 128 monomials of 64 (consecutive) variables each —
//!   many more convolutions than additions.
//! * `p3`: 128 variables, all 8,128 products of two variables — as many
//!   convolutions as additions.
//!
//! The paper does not print the coefficient values; following PHCpack's
//! practice the coefficients are random, well-conditioned series drawn from a
//! seeded generator, which makes every run reproducible.

use psmd_core::{banded_supports, combinations, polynomial_with_supports, Polynomial};
use psmd_multidouble::{Coeff, RandomCoeff};
use psmd_series::Series;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale of a measured run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The reduced, CPU-affordable variant of the test polynomial.
    Reduced,
    /// The full polynomial exactly as in the paper.
    Full,
}

/// Identifier of one of the paper's test polynomials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestPolynomial {
    /// 16 variables, all quadruples: C(16,4) = 1820 monomials.
    P1,
    /// 128 variables, 128 monomials of 64 variables.
    P2,
    /// 128 variables, all pairs: C(128,2) = 8128 monomials.
    P3,
}

impl TestPolynomial {
    /// All three test polynomials in the paper's order.
    pub const ALL: [TestPolynomial; 3] =
        [TestPolynomial::P1, TestPolynomial::P2, TestPolynomial::P3];

    /// The label used in the paper ("p1", "p2", "p3").
    pub fn label(&self) -> &'static str {
        match self {
            TestPolynomial::P1 => "p1",
            TestPolynomial::P2 => "p2",
            TestPolynomial::P3 => "p3",
        }
    }

    /// Parses a label.
    pub fn parse(label: &str) -> Option<Self> {
        match label.to_ascii_lowercase().as_str() {
            "p1" => Some(TestPolynomial::P1),
            "p2" => Some(TestPolynomial::P2),
            "p3" => Some(TestPolynomial::P3),
            _ => None,
        }
    }

    /// Number of variables `n` (Table 2).
    pub fn num_variables(&self) -> usize {
        match self {
            TestPolynomial::P1 => 16,
            TestPolynomial::P2 | TestPolynomial::P3 => 128,
        }
    }

    /// Variables per monomial `m` (Table 2).
    pub fn variables_per_monomial(&self) -> usize {
        match self {
            TestPolynomial::P1 => 4,
            TestPolynomial::P2 => 64,
            TestPolynomial::P3 => 2,
        }
    }

    /// Number of monomials `N` (Table 2).
    pub fn num_monomials(&self) -> usize {
        match self {
            TestPolynomial::P1 => 1_820,
            TestPolynomial::P2 => 128,
            TestPolynomial::P3 => 8_128,
        }
    }

    /// Convolution job count reported in Table 2.
    pub fn paper_convolutions(&self) -> usize {
        match self {
            TestPolynomial::P1 => 16_380,
            TestPolynomial::P2 => 24_192,
            TestPolynomial::P3 => 24_256,
        }
    }

    /// Addition job count reported in Table 2.
    pub fn paper_additions(&self) -> usize {
        match self {
            TestPolynomial::P1 => 9_084,
            TestPolynomial::P2 => 8_192,
            TestPolynomial::P3 => 24_256,
        }
    }

    /// The monomial supports at full paper scale.
    pub fn supports(&self) -> Vec<Vec<usize>> {
        match self {
            TestPolynomial::P1 => combinations(16, 4),
            TestPolynomial::P2 => banded_supports(128, 64, 128),
            TestPolynomial::P3 => combinations(128, 2),
        }
    }

    /// The monomial supports of the reduced (CPU-friendly) variant: the same
    /// structural family at a smaller size.
    pub fn reduced_supports(&self) -> (usize, Vec<Vec<usize>>) {
        match self {
            // C(10,4) = 210 monomials of 4 variables.
            TestPolynomial::P1 => (10, combinations(10, 4)),
            // 24 monomials of 24 consecutive variables out of 48.
            TestPolynomial::P2 => (48, banded_supports(48, 24, 24)),
            // C(48,2) = 1128 pairs.
            TestPolynomial::P3 => (48, combinations(48, 2)),
        }
    }

    /// Builds the full-scale polynomial with random series coefficients.
    pub fn build<C: Coeff + RandomCoeff>(&self, degree: usize, seed: u64) -> Polynomial<C> {
        let mut rng = StdRng::seed_from_u64(seed);
        polynomial_with_supports(self.supports(), self.num_variables(), degree, &mut rng)
    }

    /// Builds the reduced polynomial with random series coefficients.
    pub fn build_reduced<C: Coeff + RandomCoeff>(&self, degree: usize, seed: u64) -> Polynomial<C> {
        let (n, supports) = self.reduced_supports();
        let mut rng = StdRng::seed_from_u64(seed);
        polynomial_with_supports(supports, n, degree, &mut rng)
    }

    /// Builds a full-scale *system* of `equations` polynomials sharing this
    /// test polynomial's monomial structure, with independent random
    /// coefficients per equation (the shape of the paper's Newton systems:
    /// every equation touches the same variables, none share coefficients).
    pub fn build_system<C: Coeff + RandomCoeff>(
        &self,
        equations: usize,
        degree: usize,
        seed: u64,
    ) -> Vec<Polynomial<C>> {
        (0..equations)
            .map(|e| self.build(degree, seed.wrapping_add(7919 * e as u64)))
            .collect()
    }

    /// Builds the reduced (CPU-friendly) variant of [`build_system`](Self::build_system).
    pub fn build_reduced_system<C: Coeff + RandomCoeff>(
        &self,
        equations: usize,
        degree: usize,
        seed: u64,
    ) -> Vec<Polynomial<C>> {
        (0..equations)
            .map(|e| self.build_reduced(degree, seed.wrapping_add(7919 * e as u64)))
            .collect()
    }

    /// Random input series for the full-scale polynomial.
    pub fn inputs<C: Coeff + RandomCoeff>(&self, degree: usize, seed: u64) -> Vec<Series<C>> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
        psmd_core::random_inputs(self.num_variables(), degree, &mut rng)
    }

    /// Random input series for the reduced polynomial.
    pub fn reduced_inputs<C: Coeff + RandomCoeff>(
        &self,
        degree: usize,
        seed: u64,
    ) -> Vec<Series<C>> {
        let (n, _) = self.reduced_supports();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
        psmd_core::random_inputs(n, degree, &mut rng)
    }

    /// Builds the polynomial at the requested [`Scale`].
    pub fn build_at<C: Coeff + RandomCoeff>(
        &self,
        degree: usize,
        scale: Scale,
        seed: u64,
    ) -> Polynomial<C> {
        match scale {
            Scale::Reduced => self.build_reduced(degree, seed),
            Scale::Full => self.build(degree, seed),
        }
    }

    /// Random input series at the requested [`Scale`].
    pub fn inputs_at<C: Coeff + RandomCoeff>(
        &self,
        degree: usize,
        scale: Scale,
        seed: u64,
    ) -> Vec<Series<C>> {
        match scale {
            Scale::Reduced => self.reduced_inputs(degree, seed),
            Scale::Full => self.inputs(degree, seed),
        }
    }
}

/// The degrees used in the paper's scalability tables (Tables 5-7).
pub const PAPER_DEGREES: [usize; 10] = [0, 8, 15, 31, 63, 95, 127, 152, 159, 191];

/// The degrees used by default for measured CPU sweeps (a CPU-affordable
/// prefix of [`PAPER_DEGREES`]).
pub const REDUCED_DEGREES: [usize; 4] = [0, 8, 15, 31];

#[cfg(test)]
mod tests {
    use super::*;
    use psmd_core::Schedule;
    use psmd_multidouble::Dd;

    #[test]
    fn table_2_structure_counts() {
        for t in TestPolynomial::ALL {
            let supports = t.supports();
            assert_eq!(supports.len(), t.num_monomials(), "{}", t.label());
            assert!(supports
                .iter()
                .all(|s| s.len() == t.variables_per_monomial()));
            assert!(supports
                .iter()
                .all(|s| *s.last().unwrap() < t.num_variables()));
        }
    }

    #[test]
    fn p1_job_counts_match_table_2_exactly() {
        let p: Polynomial<Dd> = TestPolynomial::P1.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        assert_eq!(s.convolution_jobs(), 16_380);
        assert_eq!(s.addition_jobs(), 9_084);
        // The four convolution kernel launches of Section 6.1.
        assert_eq!(
            s.convolution_layer_sizes(),
            vec![3_640, 5_460, 5_460, 1_820]
        );
    }

    #[test]
    fn p2_job_counts_match_table_2_exactly() {
        let p: Polynomial<Dd> = TestPolynomial::P2.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        assert_eq!(s.convolution_jobs(), 24_192);
        assert_eq!(s.addition_jobs(), 8_192);
        // The first 31 convolution layers have 256 blocks each (Section 6.2).
        let sizes = s.convolution_layer_sizes();
        assert!(sizes[..31].iter().all(|&b| b == 256));
    }

    #[test]
    fn p3_job_counts_match_table_2_within_documented_deviation() {
        let p: Polynomial<Dd> = TestPolynomial::P3.build(0, 1);
        let s = Schedule::build(std::slice::from_ref(&p));
        // Our scheme needs 3 convolutions per two-variable monomial, i.e.
        // 24,384; the paper reports 24,256 (a 0.5% difference documented in
        // EXPERIMENTS.md).
        assert_eq!(s.convolution_jobs(), 3 * 8_128);
        assert!(
            (s.convolution_jobs() as i64 - TestPolynomial::P3.paper_convolutions() as i64).abs()
                <= 128
        );
        // The addition count matches the paper exactly.
        assert_eq!(s.addition_jobs(), 24_256);
    }

    #[test]
    fn reduced_variants_keep_the_structural_family() {
        for t in TestPolynomial::ALL {
            let (n, supports) = t.reduced_supports();
            assert!(n <= t.num_variables());
            assert!(!supports.is_empty());
            let width = supports[0].len();
            assert!(supports.iter().all(|s| s.len() == width));
            assert!(supports.iter().all(|s| *s.last().unwrap() < n));
        }
    }

    #[test]
    fn builders_are_reproducible() {
        let a: Polynomial<Dd> = TestPolynomial::P1.build_reduced(3, 7);
        let b: Polynomial<Dd> = TestPolynomial::P1.build_reduced(3, 7);
        assert_eq!(a, b);
        let c: Polynomial<Dd> = TestPolynomial::P1.build_reduced(3, 8);
        assert!(a != c);
        let za: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(3, 7);
        let zb: Vec<Series<Dd>> = TestPolynomial::P1.reduced_inputs(3, 7);
        assert_eq!(za, zb);
    }

    #[test]
    fn system_equations_are_the_single_polynomials_at_their_seeds() {
        // The equations of a system are the single polynomials at seeds
        // 7919 apart, so the fused plan and per-equation plans of the same
        // system describe the same mathematics.
        let system: Vec<Polynomial<Dd>> = TestPolynomial::P1.build_reduced_system(3, 2, 5);
        for (e, equation) in system.iter().enumerate() {
            let single: Polynomial<Dd> = TestPolynomial::P1.build_reduced(2, 5 + 7919 * e as u64);
            assert_eq!(equation, &single);
        }
        let engine = psmd_core::Engine::builder().threads(0).build();
        let fused_stats = engine.compile(system).stats();
        assert_eq!(fused_stats.equations, 3);
        assert_eq!(fused_stats.total_monomials, 3 * 210);
    }

    #[test]
    fn labels_round_trip() {
        for t in TestPolynomial::ALL {
            assert_eq!(TestPolynomial::parse(t.label()), Some(t));
        }
        assert_eq!(TestPolynomial::parse("p9"), None);
    }
}
