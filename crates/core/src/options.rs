//! Shared evaluation options.
//!
//! The engine ([`crate::Engine`]) and every plan it compiles expose the same
//! knobs: which convolution kernel to run and whether evaluation packs
//! convolution jobs into SIMD lane panels.  This module holds the one struct
//! they share, plus the [`SimdMode`] selector and its `PSMD_SIMD`
//! environment contract.

use crate::evaluate::{ConvolutionKernel, ExecMode};
use psmd_multidouble::lanes;

/// How every evaluation uses the machine's vector units.
///
/// The SIMD tier packs any `W` convolution jobs of one layer — from one
/// input vector or from several instances of a batch — into
/// structure-of-arrays lane panels and runs the convolution recurrence over
/// all of them per instruction (see [`crate::lanes`] and
/// `psmd_multidouble::lanes`).  Only the direct kernel has lane panels.
/// Per lane the results are bitwise identical to the scalar path, so this
/// knob changes only speed — which is why `Auto` is the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimdMode {
    /// Pick the widest lane width the running machine supports (AVX-512 →
    /// 8, AVX2 → 4, NEON → 2, otherwise scalar), honoring a `PSMD_SIMD`
    /// environment override.  Resolved to a concrete mode when a plan is
    /// compiled.
    #[default]
    Auto,
    /// Disable the lane tier: evaluation runs the scalar kernels only.
    Scalar,
    /// Force a specific lane width (2, 4 or 8).  Widths beyond what the
    /// hardware vectorizes still run — as portable scalar-lane code with
    /// identical bits — so a forced width is reproducible everywhere.
    ForceWidth(usize),
}

impl SimdMode {
    /// The lane widths the engine's kernels are compiled for.
    pub const SUPPORTED_WIDTHS: [usize; 3] = [2, 4, 8];

    /// The SIMD mode requested via `PSMD_SIMD`, if any.
    ///
    /// Recognized values are `auto`, `scalar` and the widths `2`, `4`, `8`.
    /// Panics on anything else — mirroring the `PSMD_THREADS` contract, so
    /// a CI matrix entry with a typo fails loudly instead of silently
    /// falling back.  See [`SimdMode::try_from_env`] for the fallible form.
    pub fn from_env() -> Option<SimdMode> {
        match Self::try_from_env() {
            Ok(mode) => mode,
            Err(message) => panic!("{message}"),
        }
    }

    /// The fallible form of [`SimdMode::from_env`]: an unrecognized
    /// `PSMD_SIMD` value becomes an `Err` describing the problem instead of
    /// a panic, so services can surface a configuration error.
    pub fn try_from_env() -> Result<Option<SimdMode>, String> {
        let Ok(value) = std::env::var("PSMD_SIMD") else {
            return Ok(None);
        };
        match value.trim() {
            "auto" => Ok(Some(SimdMode::Auto)),
            "scalar" => Ok(Some(SimdMode::Scalar)),
            "2" => Ok(Some(SimdMode::ForceWidth(2))),
            "4" => Ok(Some(SimdMode::ForceWidth(4))),
            "8" => Ok(Some(SimdMode::ForceWidth(8))),
            _ => Err(format!(
                "PSMD_SIMD must be one of auto, scalar, 2, 4, 8; got '{value}'"
            )),
        }
    }

    /// Resolves `Auto` to a concrete mode: the `PSMD_SIMD` override when
    /// set, otherwise the widest width the machine's vector units support
    /// ([`lanes::detected_lane_width`]); machines without a usable vector
    /// extension resolve to [`SimdMode::Scalar`].  Explicit modes pass
    /// through unchanged.
    ///
    /// # Panics
    ///
    /// Panics on a forced width outside [`SimdMode::SUPPORTED_WIDTHS`]
    /// (width 1 is accepted as an alias for [`SimdMode::Scalar`]) and on an
    /// unrecognized `PSMD_SIMD` value.  See [`SimdMode::try_resolved`] for
    /// the fallible form.
    pub fn resolved(self) -> SimdMode {
        match self.try_resolved() {
            Ok(mode) => mode,
            Err(message) => panic!("{message}"),
        }
    }

    /// The fallible form of [`SimdMode::resolved`]: an unsupported forced
    /// width or an unrecognized `PSMD_SIMD` value becomes an `Err`
    /// describing the problem.
    pub fn try_resolved(self) -> Result<SimdMode, String> {
        let mode = match self {
            SimdMode::Auto => match SimdMode::try_from_env()? {
                Some(SimdMode::Auto) | None => match lanes::detected_lane_width() {
                    w if w >= 2 => SimdMode::ForceWidth(w),
                    _ => SimdMode::Scalar,
                },
                Some(explicit) => explicit,
            },
            explicit => explicit,
        };
        match mode {
            SimdMode::ForceWidth(1) => Ok(SimdMode::Scalar),
            SimdMode::ForceWidth(w) if !Self::SUPPORTED_WIDTHS.contains(&w) => Err(format!(
                "unsupported SIMD lane width {w}: expected 2, 4 or 8"
            )),
            resolved => Ok(resolved),
        }
    }

    /// The lane width this mode runs convolution panels at (1 for the
    /// scalar path).  Meaningful on resolved modes; `Auto` reports the
    /// width it would resolve to on this machine.
    pub fn lane_width(self) -> usize {
        match self.resolved() {
            SimdMode::ForceWidth(w) => w,
            _ => 1,
        }
    }
}

/// The evaluation knobs shared by the engine and its compiled plans: the
/// convolution kernel variant and the SIMD lane mode.
///
/// `EvalOptions` is part of the engine's plan-cache key, so it is `Hash`
/// and `Eq`: plans compiled with different options coexist in the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EvalOptions {
    /// Which convolution kernel the jobs run (ablation knob).
    pub kernel: ConvolutionKernel,
    /// How parallel evaluation executes on the pool: always
    /// [`ExecMode::Layered`] (see [`ExecMode`] for why the field remains).
    pub exec_mode: ExecMode,
    /// Whether every evaluation packs convolution jobs into SIMD lane
    /// panels.
    pub simd: SimdMode,
}

impl EvalOptions {
    /// The default options: direct kernel, SIMD lanes auto-detected.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the convolution kernel variant.
    pub fn with_kernel(mut self, kernel: ConvolutionKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects the SIMD lane mode for every evaluation.
    pub fn with_simd(mut self, simd: SimdMode) -> Self {
        self.simd = simd;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_set_the_knobs() {
        let o = EvalOptions::new()
            .with_kernel(ConvolutionKernel::Karatsuba)
            .with_simd(SimdMode::ForceWidth(4));
        assert_eq!(o.kernel, ConvolutionKernel::Karatsuba);
        assert_eq!(o.simd, SimdMode::ForceWidth(4));
        assert_eq!(EvalOptions::default().kernel, ConvolutionKernel::Direct);
        assert_eq!(EvalOptions::default().exec_mode, ExecMode::Layered);
        assert_eq!(EvalOptions::default().simd, SimdMode::Auto);
    }

    #[test]
    fn resolution_eliminates_auto_and_normalizes_width_one() {
        // Resolution must produce a concrete mode whatever the machine.
        match SimdMode::Auto.resolved() {
            SimdMode::Scalar => {}
            SimdMode::ForceWidth(w) => assert!(SimdMode::SUPPORTED_WIDTHS.contains(&w)),
            SimdMode::Auto => panic!("Auto must resolve to a concrete mode"),
        }
        assert_eq!(SimdMode::Scalar.resolved(), SimdMode::Scalar);
        assert_eq!(SimdMode::ForceWidth(1).resolved(), SimdMode::Scalar);
        assert_eq!(
            SimdMode::ForceWidth(8).resolved(),
            SimdMode::ForceWidth(8),
            "explicit widths pass through untouched"
        );
        assert_eq!(SimdMode::Scalar.lane_width(), 1);
        assert_eq!(SimdMode::ForceWidth(4).lane_width(), 4);
    }

    #[test]
    #[should_panic(expected = "unsupported SIMD lane width")]
    fn resolution_rejects_unsupported_widths() {
        let _ = SimdMode::ForceWidth(3).resolved();
    }

    #[test]
    fn fallible_resolution_reports_unsupported_widths() {
        for w in [0, 3, 16] {
            let err = SimdMode::ForceWidth(w).try_resolved().unwrap_err();
            assert!(err.contains(&format!("lane width {w}")), "{err}");
        }
        assert_eq!(SimdMode::ForceWidth(1).try_resolved(), Ok(SimdMode::Scalar));
        assert_eq!(
            SimdMode::ForceWidth(2).try_resolved(),
            Ok(SimdMode::ForceWidth(2))
        );
    }
}
