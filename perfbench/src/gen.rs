//! Seeded input generation.  Every polynomial, input point, arrival
//! schedule and homotopy family is a pure function of the `--seed`
//! argument; the program under test only ever sees the generated values.

use psmd_core::{Monomial, Polynomial};
use psmd_multidouble::Md;
use psmd_series::Series;
use psmd_track::{HomotopySpec, MonomialSpec, PolySpec};

/// SplitMix64: a small, fast, well-mixed generator with a 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// A multiple-double value in `[-1, 1)` whose every limb carries random
    /// bits.
    pub fn md<const N: usize>(&mut self) -> Md<N> {
        let mut acc = Md::<N>::from_f64(self.symmetric());
        for k in 1..N {
            acc = acc.add_f64(self.symmetric() * 2f64.powi(-53 * k as i32));
        }
        acc
    }

    /// A random series whose constant term is bounded away from zero
    /// (`|c0| ≥ 0.25`), so products of many of them stay well scaled.
    pub fn series<const N: usize>(&mut self, degree: usize) -> Series<Md<N>> {
        let mut coeffs: Vec<Md<N>> = (0..=degree).map(|_| self.md()).collect();
        if coeffs[0].abs().to_f64() < 0.25 {
            coeffs[0] = coeffs[0].add_f64(if coeffs[0].to_f64() >= 0.0 { 0.5 } else { -0.5 });
        }
        Series::from_coeffs(coeffs)
    }
}

/// Widens a series exactly (limb zero-extension).
pub fn widen<const N: usize, const M: usize>(s: &Series<Md<N>>) -> Series<Md<M>> {
    Series::from_coeffs(s.coeffs().iter().map(|c| c.resize::<M>()).collect())
}

/// Widens a polynomial exactly, coefficient by coefficient.
pub fn widen_poly<const N: usize, const M: usize>(p: &Polynomial<Md<N>>) -> Polynomial<Md<M>> {
    Polynomial::new(
        p.num_variables(),
        widen(p.constant()),
        p.monomials()
            .iter()
            .map(|m| Monomial::new(widen(&m.coefficient), m.variables.clone()))
            .collect(),
    )
}

/// All `k`-subsets of `0..n` in lexicographic order.
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..k).collect();
    loop {
        out.push(cur.clone());
        let Some(i) = (0..k).rev().find(|&i| cur[i] != i + n - k) else {
            return out;
        };
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

/// `count` supports of `width` cyclically consecutive variables out of `n`.
pub fn banded(n: usize, width: usize, count: usize) -> Vec<Vec<usize>> {
    (0..count)
        .map(|k| {
            let mut v: Vec<usize> = (0..width).map(|j| (k + j) % n).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// The reduced test polynomials of the paper's Table 2 family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestPoly {
    /// 210 monomials: all 4-subsets of 10 variables.
    P1,
    /// 24 monomials of 24 consecutive variables out of 48.
    P2,
    /// 1,128 monomials: all pairs of 48 variables.
    P3,
}

impl TestPoly {
    pub fn num_variables(self) -> usize {
        match self {
            TestPoly::P1 => 10,
            TestPoly::P2 | TestPoly::P3 => 48,
        }
    }

    fn supports(self) -> Vec<Vec<usize>> {
        match self {
            TestPoly::P1 => combinations(10, 4),
            TestPoly::P2 => banded(48, 24, 24),
            TestPoly::P3 => combinations(48, 2),
        }
    }

    /// The polynomial with seeded random series coefficients.
    pub fn build<const N: usize>(self, degree: usize, seed: u64) -> Polynomial<Md<N>> {
        let mut rng = Rng::new(seed, 1);
        let monomials = self
            .supports()
            .into_iter()
            .map(|vars| Monomial::new(rng.series(degree), vars))
            .collect();
        Polynomial::new(self.num_variables(), rng.series(degree), monomials)
    }

    /// `count` seeded input points (one series per variable each).
    pub fn points<const N: usize>(
        self,
        degree: usize,
        count: usize,
        seed: u64,
    ) -> Vec<Vec<Series<Md<N>>>> {
        let mut rng = Rng::new(seed, 2);
        (0..count)
            .map(|_| {
                (0..self.num_variables())
                    .map(|_| rng.series(degree))
                    .collect()
            })
            .collect()
    }
}

/// One `{x + y − s, x·y − p}` block of the multilinear tracking family.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub s: f64,
    pub p: f64,
}

/// The seeded multilinear family: `blocks` independent two-variable
/// blocks.  The start system has `s = 0, p = −1` in every block, so its
/// solutions are all sign patterns of `(1, −1)`; the target blocks draw
/// `s ∈ [0.1, 0.9)` and `p ∈ [−2.5, −1.2)` (real roots of opposite sign).
pub struct Family {
    pub spec: HomotopySpec,
    pub targets: Vec<Block>,
    pub starts: Vec<Vec<f64>>,
}

pub fn family(blocks: usize, seed: u64) -> Family {
    let mut rng = Rng::new(seed, 3);
    let block = |x: usize, b: Block| {
        vec![
            PolySpec {
                constant: vec![-b.s],
                monomials: vec![
                    MonomialSpec::constant_coeff(1.0, vec![x]),
                    MonomialSpec::constant_coeff(1.0, vec![x + 1]),
                ],
            },
            PolySpec {
                constant: vec![-b.p],
                monomials: vec![MonomialSpec::constant_coeff(1.0, vec![x, x + 1])],
            },
        ]
    };
    let mut start = Vec::new();
    let mut target = Vec::new();
    let mut targets = Vec::new();
    for k in 0..blocks {
        let b = Block {
            s: 0.1 + 0.8 * rng.unit(),
            p: -1.2 - 1.3 * rng.unit(),
        };
        start.extend(block(2 * k, Block { s: 0.0, p: -1.0 }));
        target.extend(block(2 * k, b));
        targets.push(b);
    }
    let starts = (0..1usize << blocks)
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
    Family {
        spec: HomotopySpec::new(2 * blocks, 0, start, target),
        targets,
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = TestPoly::P1.points::<2>(3, 2, 7);
        let b = TestPoly::P1.points::<2>(3, 2, 7);
        let c = TestPoly::P1.points::<2>(3, 2, 8);
        let bits = |v: &Vec<Vec<Series<Md<2>>>>| -> Vec<u64> {
            v.iter()
                .flatten()
                .flat_map(|s| s.coeffs().to_vec())
                .flat_map(|c| c.limbs().map(f64::to_bits))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
    }

    #[test]
    fn supports_have_the_table_2_shapes() {
        assert_eq!(combinations(10, 4).len(), 210);
        assert_eq!(combinations(48, 2).len(), 1_128);
        let band = banded(48, 24, 24);
        assert_eq!(band.len(), 24);
        assert!(band
            .iter()
            .all(|v| v.len() == 24 && v.windows(2).all(|w| w[0] < w[1])));
        let f = family(3, 1);
        assert_eq!((f.starts.len(), f.targets.len()), (8, 3));
    }
}
