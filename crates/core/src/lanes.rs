//! Lane panels across the jobs of a layer: how the `(job, instance)` pairs
//! of one convolution layer pack into SIMD lane panels.
//!
//! Every plan runs its schedule over `B` arena regions, one per input vector
//! (`B = 1` for a single evaluation).  A convolution layer of `J` jobs thus
//! holds `J·B` independent pairs, numbered job-major: pair `f = j·B + i` is
//! job `j` of instance `i`.  At lane width `W` the layer launches
//! `layer_blocks` blocks (`block_pairs` says which pairs each runs):
//! `⌊J·B/W⌋` *panels* of `W` consecutive pairs, then `J·B mod W` scalar
//! blocks of one pair each.  A panel may mix jobs and instances: no job of a
//! layer reads another job's output (`Schedule::validate_layers`), and
//! `run_convolution_panel` gathers every lane before it scatters any, which
//! keeps the in-place `b := b * a` shape safe too.  When `B` is a multiple of
//! `W`, every panel is one job over `W` consecutive instances; at `W = 1`
//! every pair is its own scalar block, the plain per-job grid.  Only the
//! direct loop has lane kernels, so plans on any other kernel run at `W = 1`.
//!
//! A panel gathers its lanes' operand slots from the flat arena into
//! transposed structure-of-arrays panels, runs the vectorized direct kernel
//! of [`psmd_series::lanes`], and scatters the output panel back.  The flat
//! [`DataLayout`](crate::schedule::DataLayout) is untouched: lanes exist only
//! between the gather and the scatter.  Per lane the panel kernel executes
//! the scalar limb sequence of `convolve_seq` (see
//! `psmd_multidouble::lanes`), and the transposes are exact-bit
//! `write_limbs`/`from_limbs` round trips — so a panel writes exactly the
//! arena bytes the scalar path writes for the same pairs.
//! `tests/simd_consistency.rs` gates this end to end.

use crate::schedule::ConvJob;
use crate::workspace::ConvScratch;
use psmd_multidouble::Coeff;
use psmd_runtime::SharedSlice;
use psmd_series::lanes::{convolve_panels_dyn, gather_into_panel, panel_f64s, scatter_from_panel};
use std::ops::Range;

/// The widest lane panel: the largest of
/// [`SimdMode::SUPPORTED_WIDTHS`](crate::SimdMode::SUPPORTED_WIDTHS).
pub(crate) const MAX_LANE_WIDTH: usize = 8;

/// Blocks a convolution layer of `pairs` `(job, instance)` pairs launches at
/// lane width `width`: `⌊pairs/W⌋` panels plus `pairs mod W` scalar blocks.
pub(crate) fn layer_blocks(pairs: usize, width: usize) -> usize {
    pairs / width + pairs % width
}

/// The pairs block `b` of [`layer_blocks`] runs: the panel
/// `b·W..b·W + W` while `b < ⌊pairs/W⌋`, then one remainder pair per block.
pub(crate) fn block_pairs(pairs: usize, width: usize, b: usize) -> Range<usize> {
    let panels = pairs / width;
    if b < panels {
        b * width..(b + 1) * width
    } else {
        let f = panels * width + (b - panels);
        f..f + 1
    }
}

/// Executes one lane panel: `jobs.len()` (2, 4 or 8) already-mapped direct
/// convolution jobs of one layer, one per lane.  Gathers every lane's operand
/// slots into the workspace's lane panels, convolves all lanes with one
/// vectorized kernel pass, and scatters each lane into its job's output slot.
pub(crate) fn run_convolution_panel<C: Coeff>(
    shared: &SharedSlice<'_, C>,
    jobs: &[ConvJob],
    per: usize,
    scratch: &mut ConvScratch<C>,
) {
    let width = jobs.len();
    let panel = panel_f64s::<C>(per, width);
    let panels = scratch.ensure_lanes(3 * panel);
    let (xp, rest) = panels.split_at_mut(panel);
    let (yp, zp) = rest.split_at_mut(panel);
    for (l, job) in jobs.iter().enumerate() {
        // Safety (reads): within one layer no job writes a slot another job
        // reads, and this panel writes its own outputs only after every
        // lane is gathered.
        let x: &[C] = unsafe { shared.slice(job.in1 * per, per) };
        let y: &[C] = unsafe { shared.slice(job.in2 * per, per) };
        gather_into_panel(x, xp, l, width);
        gather_into_panel(y, yp, l, width);
    }
    convolve_panels_dyn::<C>(width, xp, yp, zp, per);
    for (l, job) in jobs.iter().enumerate() {
        // Safety: within one layer each output slot is written by one job
        // only, and distinct instances write distinct regions.
        let out = unsafe { shared.slice_mut(job.out * per, per) };
        scatter_from_panel(zp, out, l, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_pair_once_in_panels_then_scalar_blocks() {
        for (jobs, instances) in [(1, 1), (3, 1), (5, 1), (7, 3), (2, 16), (13, 5), (9, 8)] {
            for width in [1, 2, 4, 8] {
                let pairs = jobs * instances;
                let mut seen = vec![0usize; pairs];
                let blocks = layer_blocks(pairs, width);
                let mut panels = 0;
                for b in 0..blocks {
                    let range = block_pairs(pairs, width, b);
                    if range.len() == width && width >= 2 {
                        panels += 1;
                        // B = k·W: a panel is one job over W consecutive
                        // instances.
                        if instances % width == 0 {
                            let job = range.start / instances;
                            assert!(range.clone().all(|f| f / instances == job));
                        }
                    } else {
                        assert_eq!(range.len(), 1, "{jobs}x{instances} @ {width}");
                    }
                    for f in range {
                        seen[f] += 1;
                    }
                }
                let case = format!("{jobs} jobs x {instances} instances @ width {width}");
                assert!(seen.iter().all(|&c| c == 1), "{case}");
                if width >= 2 {
                    assert_eq!(panels, pairs / width, "{case}");
                    assert_eq!(blocks - panels, pairs % width, "{case}");
                } else {
                    assert_eq!(blocks, pairs, "{case}");
                }
            }
        }
    }
}
