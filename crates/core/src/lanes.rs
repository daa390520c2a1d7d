//! Lane-group decomposition of the batch axis: which instances of a batched
//! evaluation run packed into SIMD lane panels and which drain scalar.
//!
//! Batched evaluation runs the identical job schedule over `instances`
//! disjoint arena regions — the textbook SIMD lane axis.  [`LaneLayout`]
//! splits those instances into `instances / W` full lane groups plus a
//! scalar remainder, and the runners below execute one schedule job for a
//! whole lane group: gather the group's operand slots from the flat arena
//! into transposed structure-of-arrays panels, run the vectorized panel
//! kernel of [`psmd_series::lanes`], and scatter the output panel back.
//! Every plan with batched inputs — a single polynomial or a system, which
//! share one schedule and one runner — takes this path when its resolved
//! kernel is the direct loop; a single input vector has no instance axis
//! and stays scalar.  The flat [`DataLayout`](crate::schedule::DataLayout)
//! is untouched: lanes exist only between the gather and the scatter.
//!
//! Per lane the panel kernels are bitwise identical to the scalar kernels
//! (see `psmd_multidouble::lanes`), and the gather/scatter transposes are
//! exact-bit `write_limbs`/`from_limbs` round trips — so a lane group
//! produces exactly the arena bytes the scalar path produces for the same
//! instances.  `tests/simd_consistency.rs` gates this end to end.

use crate::evaluate::{run_addition_job, run_convolution_job, ConvolutionKernel};
use crate::schedule::{AddJob, ConvJob, GraphPlan};
use crate::workspace::ConvScratch;
use psmd_multidouble::Coeff;
use psmd_runtime::SharedSlice;
use psmd_series::lanes::{convolve_panels_dyn, gather_into_panel, panel_f64s, scatter_from_panel};

/// How `instances` batch instances decompose into SIMD lane groups of
/// `width` plus a scalar remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    width: usize,
    groups: usize,
    remainder: usize,
}

/// One schedulable unit of a [`LaneLayout`]: a full lane group or a single
/// scalar instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneUnit {
    /// A full group of `width` instances starting at instance `first`.
    Group {
        /// Index of the group's first instance.
        first: usize,
    },
    /// One remainder instance executed scalar.
    Scalar {
        /// The instance index.
        instance: usize,
    },
}

impl LaneLayout {
    /// Decomposes `instances` into lane groups of `width` (widths below 2
    /// mean no grouping: every instance is a scalar unit).
    pub fn new(instances: usize, width: usize) -> Self {
        if width >= 2 {
            Self {
                width,
                groups: instances / width,
                remainder: instances % width,
            }
        } else {
            Self {
                width: 1,
                groups: 0,
                remainder: instances,
            }
        }
    }

    /// The lane width of the full groups.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of full lane groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Number of schedulable units: full groups plus scalar remainder
    /// instances.  With width 1 this is exactly `instances`, so the
    /// unit-indexed launch degenerates to the historical per-instance grid.
    pub fn units(&self) -> usize {
        self.groups + self.remainder
    }

    /// Resolves unit `u` (`u < self.units()`): groups come first, then the
    /// scalar remainder in instance order.
    pub fn unit(&self, u: usize) -> LaneUnit {
        if u < self.groups {
            LaneUnit::Group {
                first: u * self.width,
            }
        } else {
            LaneUnit::Scalar {
                instance: self.groups * self.width + (u - self.groups),
            }
        }
    }
}

/// Executes one convolution job for a whole lane group: gathers the group's
/// operand slots into the workspace's lane panels, convolves all lanes with
/// one vectorized kernel pass, and scatters the result back into each
/// instance's output slot.
///
/// Only the direct kernel has a lane variant; any other kernel (Karatsuba,
/// FFT) falls back to per-lane scalar execution, which keeps this runner
/// total without changing any bits.  Gathering happens before
/// the first scatter, so the in-place `b := b * a` job shape needs no extra
/// staging here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_convolution_job_lanes<C: Coeff>(
    shared: &SharedSlice<'_, C>,
    job: &ConvJob,
    per: usize,
    kernel: ConvolutionKernel,
    scratch: &mut ConvScratch<C>,
    width: usize,
    first_instance: usize,
    map_slot: &(impl Fn(usize, usize) -> usize + Sync),
) {
    let kernel = match kernel {
        ConvolutionKernel::Auto => crate::crossover::auto_kernel(C::component_limbs(), per - 1),
        k => k,
    };
    if kernel != ConvolutionKernel::Direct {
        for l in 0..width {
            let instance = first_instance + l;
            let mapped = ConvJob {
                in1: map_slot(instance, job.in1),
                in2: map_slot(instance, job.in2),
                out: map_slot(instance, job.out),
            };
            run_convolution_job(shared, &mapped, per, kernel, scratch);
        }
        return;
    }
    let panel = panel_f64s::<C>(per, width);
    let panels = scratch.ensure_lanes(3 * panel);
    let (xp, rest) = panels.split_at_mut(panel);
    let (yp, zp) = rest.split_at_mut(panel);
    for l in 0..width {
        let instance = first_instance + l;
        // Safety (reads): the schedule guarantees that within one layer (or
        // graph dependency frontier) no other job writes these input ranges;
        // the output range is written only after both gathers complete.
        let x: &[C] = unsafe { shared.slice(map_slot(instance, job.in1) * per, per) };
        let y: &[C] = unsafe { shared.slice(map_slot(instance, job.in2) * per, per) };
        gather_into_panel(x, xp, l, width);
        gather_into_panel(y, yp, l, width);
    }
    convolve_panels_dyn::<C>(width, xp, yp, zp, per);
    for l in 0..width {
        let instance = first_instance + l;
        // Safety: the schedule guarantees each instance's output range is
        // written by this job only.
        let out = unsafe { shared.slice_mut(map_slot(instance, job.out) * per, per) };
        scatter_from_panel(zp, out, l, width);
    }
}

/// Executes one graph node for a whole lane group: convolution nodes run
/// through [`run_convolution_job_lanes`], addition nodes loop the lanes
/// scalar (additions are memory-bound slice updates; gathering them into
/// panels would only move the same bytes twice).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_graph_node_lanes<C: Coeff>(
    plan: &GraphPlan,
    node: usize,
    shared: &SharedSlice<'_, C>,
    per: usize,
    kernel: ConvolutionKernel,
    scratch: &mut ConvScratch<C>,
    width: usize,
    first_instance: usize,
    map_slot: &(impl Fn(usize, usize) -> usize + Sync),
) {
    let n_conv = plan.conv.len();
    if node < n_conv {
        run_convolution_job_lanes(
            shared,
            &plan.conv[node],
            per,
            kernel,
            scratch,
            width,
            first_instance,
            map_slot,
        );
    } else {
        let job = plan.add[node - n_conv];
        for l in 0..width {
            let instance = first_instance + l;
            let mapped = AddJob {
                src: map_slot(instance, job.src),
                dst: map_slot(instance, job.dst),
            };
            run_addition_job(shared, &mapped, per);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_every_instance_exactly_once() {
        for (instances, width) in [(0, 4), (3, 4), (4, 4), (5, 4), (11, 4), (16, 8), (7, 1)] {
            let layout = LaneLayout::new(instances, width);
            let mut seen = vec![0usize; instances];
            for u in 0..layout.units() {
                match layout.unit(u) {
                    LaneUnit::Group { first } => {
                        for l in 0..layout.width() {
                            seen[first + l] += 1;
                        }
                    }
                    LaneUnit::Scalar { instance } => seen[instance] += 1,
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{instances} @ {width}");
        }
    }

    #[test]
    fn width_one_degenerates_to_per_instance_units() {
        let layout = LaneLayout::new(5, 1);
        assert_eq!(layout.units(), 5);
        assert_eq!(layout.groups(), 0);
        for u in 0..5 {
            assert_eq!(layout.unit(u), LaneUnit::Scalar { instance: u });
        }
    }

    #[test]
    fn groups_precede_the_scalar_remainder() {
        let layout = LaneLayout::new(11, 4);
        assert_eq!(layout.groups(), 2);
        assert_eq!(layout.units(), 2 + 3);
        assert_eq!(layout.unit(0), LaneUnit::Group { first: 0 });
        assert_eq!(layout.unit(1), LaneUnit::Group { first: 4 });
        assert_eq!(layout.unit(2), LaneUnit::Scalar { instance: 8 });
        assert_eq!(layout.unit(4), LaneUnit::Scalar { instance: 10 });
    }
}
