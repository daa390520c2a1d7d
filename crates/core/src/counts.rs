//! Operation counting and the bridge to the device performance model.
//!
//! Section 6.2 of the paper converts an evaluation into double-precision
//! operation counts: every convolution at degree `d` performs `(d+1)^2`
//! coefficient multiplications and `d(d+1)` coefficient additions, every
//! addition job performs `d+1` coefficient additions, and each coefficient
//! operation expands into the double operations of the chosen multiple-double
//! precision.  This module exposes those counts for any schedule and converts
//! a schedule into the [`WorkloadShape`] consumed by `psmd-device`.

use crate::schedule::Schedule;
use psmd_device::WorkloadShape;
use psmd_multidouble::{CostModel, Precision};
use psmd_series::{addition_adds, convolution_adds, convolution_mults, ConvAlgo};

/// Coefficient-level operation counts of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoefficientOps {
    /// Multiplications of coefficients (multiple-double numbers).
    pub multiplications: usize,
    /// Additions of coefficients.
    pub additions: usize,
}

impl CoefficientOps {
    /// Expands the coefficient operations into double operations at the
    /// given precision and cost model.
    pub fn double_ops(&self, precision: Precision, cost: CostModel) -> f64 {
        self.multiplications as f64 * precision.mul_ops(cost) as f64
            + self.additions as f64 * precision.add_ops(cost) as f64
    }
}

/// Counts the coefficient operations of a schedule at its truncation degree
/// in the paper's cost model (the zero-insertion kernel of Section 6.2).
///
/// This is the count the throughput reports and the device model divide by,
/// regardless of which CPU kernel actually ran; use [`coefficient_ops_for`]
/// for the honest counts of a specific convolution algorithm.
pub fn coefficient_ops(schedule: &Schedule) -> CoefficientOps {
    coefficient_ops_for(schedule, ConvAlgo::ZeroInsertion)
}

/// Counts the coefficient operations of a schedule under a specific
/// convolution algorithm (schoolbook variants or Karatsuba).
pub fn coefficient_ops_for(schedule: &Schedule, algo: ConvAlgo) -> CoefficientOps {
    let d = schedule.layout.degree;
    let n_conv = schedule.convolution_jobs();
    let n_add = schedule.addition_jobs();
    CoefficientOps {
        multiplications: n_conv * convolution_mults(algo, d),
        additions: n_conv * convolution_adds(algo, d) + n_add * addition_adds(d),
    }
}

/// Converts a schedule into the launch structure consumed by the analytic
/// performance model.
pub fn workload_shape(schedule: &Schedule) -> WorkloadShape {
    WorkloadShape {
        degree: schedule.layout.degree,
        convolution_layers: schedule.convolution_layer_sizes(),
        addition_layers: schedule.addition_layer_sizes(),
    }
}

/// Achieved double-precision throughput in GFLOPS of a measured run.
pub fn achieved_gflops(
    schedule: &Schedule,
    precision: Precision,
    cost: CostModel,
    elapsed_ms: f64,
) -> f64 {
    if elapsed_ms <= 0.0 {
        return 0.0;
    }
    coefficient_ops(schedule).double_ops(precision, cost) / (elapsed_ms * 1e-3) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::polynomial::Polynomial;
    use psmd_multidouble::Qd;
    use psmd_series::Series;

    fn example(d: usize) -> Polynomial<Qd> {
        let coeff = |c: f64| Series::constant(Qd::from_f64(c), d);
        Polynomial::new(
            6,
            coeff(0.5),
            vec![
                Monomial::new(coeff(1.0), vec![0, 2, 5]),
                Monomial::new(coeff(2.0), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0), vec![1, 2, 3]),
            ],
        )
    }

    #[test]
    fn coefficient_ops_follow_the_paper_formulas() {
        let d = 7;
        let p = example(d);
        let s = Schedule::build(std::slice::from_ref(&p));
        let ops = coefficient_ops(&s);
        assert_eq!(ops.multiplications, 21 * (d + 1) * (d + 1));
        assert_eq!(ops.additions, 21 * d * (d + 1) + 7 * (d + 1));
    }

    #[test]
    fn double_ops_scale_with_precision() {
        let p = example(3);
        let s = Schedule::build(std::slice::from_ref(&p));
        let ops = coefficient_ops(&s);
        let d2 = ops.double_ops(Precision::D2, CostModel::Paper);
        let d10 = ops.double_ops(Precision::D10, CostModel::Paper);
        assert!(d10 > 50.0 * d2, "deca should cost far more than dd");
        assert!(ops.double_ops(Precision::D1, CostModel::Paper) > 0.0);
    }

    #[test]
    fn workload_shape_matches_schedule() {
        let p = example(5);
        let s = Schedule::build(std::slice::from_ref(&p));
        let w = workload_shape(&s);
        assert_eq!(w.degree, 5);
        assert_eq!(w.convolution_jobs(), s.convolution_jobs());
        assert_eq!(w.addition_jobs(), s.addition_jobs());
        assert_eq!(
            w.launches(),
            s.convolution_layers.len() + s.addition_layers.len()
        );
        // The device model and the local count agree on the total double
        // operations.
        let local = coefficient_ops(&s).double_ops(Precision::D4, CostModel::Paper);
        let device = w.total_double_ops(Precision::D4, CostModel::Paper);
        assert_eq!(local, device);
    }

    #[test]
    fn achieved_gflops_is_positive_and_inverse_in_time() {
        let p = example(4);
        let s = Schedule::build(std::slice::from_ref(&p));
        let fast = achieved_gflops(&s, Precision::D4, CostModel::Paper, 1.0);
        let slow = achieved_gflops(&s, Precision::D4, CostModel::Paper, 10.0);
        assert!(fast > 0.0);
        assert!((fast / slow - 10.0).abs() < 1e-9);
        assert_eq!(
            achieved_gflops(&s, Precision::D4, CostModel::Paper, 0.0),
            0.0
        );
    }
}
