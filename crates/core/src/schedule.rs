//! Data staging and job scheduling (Section 5 of the paper).
//!
//! The evaluation of a polynomial system and its Jacobian at power series
//! is turned into two sequences of jobs:
//!
//! * **convolution jobs** compute the forward, backward and cross products
//!   of every monomial (Section 3); each job multiplies two power series
//!   addressed by their positions in one flat data array and stores the
//!   product at a third position;
//! * **addition jobs** sum the evaluated monomials into the values and the
//!   Jacobian with a tree summation.
//!
//! Jobs are grouped into *layers*: all jobs of a layer are independent (their
//! outputs are pairwise disjoint and no job reads what another job of the
//! same layer writes), so one layer corresponds to one kernel launch with one
//! block per job.
//!
//! There is one [`Schedule`], built from a slice of equations.  A single
//! polynomial is the one-equation system `[p]`: its value and gradient are
//! equation 0's value and Jacobian row, and its layers are exactly the
//! paper's.  For `m` equations the monomial sets are **merged and
//! deduplicated** — a monomial appearing with the same variables and the
//! same coefficient series in several places (across equations or within
//! one) is scheduled and computed **once** — and every layer covers all
//! equations, so the launch count is independent of `m`.

use crate::polynomial::Polynomial;
use psmd_multidouble::Coeff;
use psmd_runtime::{TaskGraph, TaskGraphBuilder};
use psmd_series::Series;
use std::collections::{HashMap, HashSet};

/// One convolution job: `data[out] := data[in1] * data[in2]` where the three
/// indices address power series *slots* of the flat data array (multiply by
/// `d + 1` coefficients per slot to obtain the paper's double offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvJob {
    /// Slot of the first input series.
    pub in1: usize,
    /// Slot of the second input series.
    pub in2: usize,
    /// Slot of the output series (may equal `in1` for the in-place update of
    /// the last backward product with the coefficient).
    pub out: usize,
}

/// One addition job: `data[dst] += data[src]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddJob {
    /// Slot of the series added into the destination.
    pub src: usize,
    /// Slot updated in place.
    pub dst: usize,
}

/// Positions of every series in the flat data array, following the layout of
/// Figure 1: the constant term of each equation, the coefficient of each
/// unique monomial, the shared input series, then the forward, backward and
/// cross products of each unique monomial, then any scratch accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    /// Truncation degree `d`.
    pub degree: usize,
    /// Total number of series slots.
    pub num_slots: usize,
    /// Slot of each equation's constant term (the first is slot 0).
    pub constant_slots: Vec<usize>,
    /// Slot of each unique monomial's coefficient series.
    pub coefficient_slots: Vec<usize>,
    /// Slot of each input series `z_i` (shared by every equation).
    pub input_slots: Vec<usize>,
    /// Forward product slots per unique monomial (`n_k` of them).
    pub forward_slots: Vec<Vec<usize>>,
    /// Backward product slots per unique monomial (`max(1, n_k - 2)` for
    /// `n_k >= 2`, none for a single-variable monomial).
    pub backward_slots: Vec<Vec<usize>>,
    /// Cross product slots per unique monomial (`n_k - 2` for `n_k >= 3`).
    pub cross_slots: Vec<Vec<usize>>,
    /// Scratch accumulator slots for degenerate outputs (outputs whose every
    /// contribution is a read-only slot).
    pub scratch_slots: Vec<usize>,
}

impl DataLayout {
    /// Number of coefficients per slot.
    pub fn coeffs_per_slot(&self) -> usize {
        self.degree + 1
    }

    /// Offset (in coefficients) of a slot in the flat data array, i.e. the
    /// paper's index triplet entries `(d + 1) * slot`.
    pub fn offset(&self, slot: usize) -> usize {
        slot * self.coeffs_per_slot()
    }

    /// Total number of coefficients of the data array (the quantity `e /
    /// (d+1)` of Equation (7), plus any scratch slots).
    pub fn total_coefficients(&self) -> usize {
        self.num_slots * self.coeffs_per_slot()
    }

    /// Slot addressing a series of batch instance `instance` when instances
    /// of this layout are laid out back-to-back in one flat arena: instance
    /// `i` occupies slots `i * num_slots .. (i + 1) * num_slots`.
    pub fn batch_slot(&self, instance: usize, slot: usize) -> usize {
        debug_assert!(slot < self.num_slots);
        instance * self.num_slots + slot
    }

    /// Offset (in coefficients) of the start of batch instance `instance` in
    /// the flat arena.
    pub fn batch_instance_offset(&self, instance: usize) -> usize {
        instance * self.total_coefficients()
    }

    /// Total number of coefficients of an arena holding `batch` instances.
    pub fn batch_total_coefficients(&self, batch: usize) -> usize {
        batch * self.total_coefficients()
    }
}

/// A schedule lowered to block granularity for the dependency-driven
/// executor: the flattened job lists (convolutions first, then additions, in
/// layered reference order) plus the [`TaskGraph`] of their data-hazard
/// edges.
///
/// Block `b` of a graph launch runs `conv[b]` when `b < conv.len()` and
/// `add[b - conv.len()]` otherwise.  Because the graph preserves, per data
/// slot, the exact operation order of the layered schedule, any execution
/// respecting the edges is bitwise identical to the layered result.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPlan {
    /// The block-level dependency graph over `conv.len() + add.len()` nodes.
    pub graph: TaskGraph,
    /// Every convolution job, in layered order.
    pub conv: Vec<ConvJob>,
    /// Every addition job, in layered order.
    pub add: Vec<AddJob>,
}

impl GraphPlan {
    /// Total number of blocks (graph nodes).
    pub fn blocks(&self) -> usize {
        self.conv.len() + self.add.len()
    }
}

/// Where the result of an output (a value or one Jacobian entry) ends up
/// after the addition stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultLocation {
    /// The output is identically zero (no monomial contributes).
    Zero,
    /// The output lives in this slot of the data array.
    Slot(usize),
}

/// The complete two-stage job schedule of a polynomial system: one merged
/// set of convolution and addition layers covering every equation, plus the
/// locations of all `m` values and all `m × n` Jacobian entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The data layout the job indices refer to.
    pub layout: DataLayout,
    /// Convolution jobs grouped in layers (one kernel launch per layer for
    /// the whole system).
    pub convolution_layers: Vec<Vec<ConvJob>>,
    /// Addition jobs grouped in layers.
    pub addition_layers: Vec<Vec<AddJob>>,
    /// Location of each equation's value after the addition stage.
    pub value_locations: Vec<ResultLocation>,
    /// Location of each Jacobian entry `d f_i / d x_j` after the addition
    /// stage (`jacobian_locations[i][j]`).
    pub jacobian_locations: Vec<Vec<ResultLocation>>,
    /// The `(equation, monomial)` each unique monomial's coefficient is read
    /// from: its first occurrence.
    representatives: Vec<(usize, usize)>,
    /// Total number of monomial instances across all equations.
    total_monomials: usize,
}

impl Schedule {
    /// Builds the merged schedule of a system of polynomials over the same
    /// variables and truncation degree; a single polynomial `p` is built as
    /// `Schedule::build(std::slice::from_ref(&p))`.
    ///
    /// # Panics
    ///
    /// Panics when the system is empty or when the equations disagree on the
    /// number of variables or the truncation degree.
    pub fn build<C: Coeff>(polys: &[Polynomial<C>]) -> Self {
        assert!(!polys.is_empty(), "a system needs at least one equation");
        let n = polys[0].num_variables();
        let degree = polys[0].degree();
        for (i, p) in polys.iter().enumerate() {
            assert_eq!(
                p.num_variables(),
                n,
                "equation {i}: all equations must share the variable count"
            );
            assert_eq!(
                p.degree(),
                degree,
                "equation {i}: all equations must share the truncation degree"
            );
        }
        // Stage 1: merge the monomial sets.  Two monomials are the same job
        // when they have the same variable tuple AND the same coefficient
        // series; the first occurrence becomes the representative.
        let mut representatives: Vec<(usize, usize)> = Vec::new();
        let mut instances: Vec<usize> = Vec::new();
        let total_monomials = polys.iter().map(Polynomial::num_monomials).sum();
        let mut by_vars: HashMap<&[usize], Vec<usize>> = HashMap::with_capacity(total_monomials);
        let mut monomial_map: Vec<Vec<usize>> = Vec::with_capacity(polys.len());
        for (i, p) in polys.iter().enumerate() {
            let mut map = Vec::with_capacity(p.num_monomials());
            for (k, m) in p.monomials().iter().enumerate() {
                let bucket = by_vars.entry(&m.variables).or_default();
                let found = bucket.iter().copied().find(|&u| {
                    let (ri, rk) = representatives[u];
                    polys[ri].monomials()[rk].coefficient == m.coefficient
                });
                let uid = found.unwrap_or_else(|| {
                    let uid = representatives.len();
                    representatives.push((i, k));
                    instances.push(0);
                    bucket.push(uid);
                    uid
                });
                instances[uid] += 1;
                map.push(uid);
            }
            monomial_map.push(map);
        }
        let variables = |uid: usize| {
            let (i, k) = representatives[uid];
            &polys[i].monomials()[k].variables
        };
        // Stage 2: lay out the arena — constants per equation, coefficients
        // and products per unique monomial, inputs shared.
        let mut next = 0usize;
        let mut take = |count: usize| {
            let start = next;
            next += count;
            (start..start + count).collect::<Vec<usize>>()
        };
        let uniques = representatives.len();
        let constant_slots = take(polys.len());
        let coefficient_slots = take(uniques);
        let input_slots = take(n);
        let mut forward_slots = Vec::with_capacity(uniques);
        let mut backward_slots = Vec::with_capacity(uniques);
        let mut cross_slots = Vec::with_capacity(uniques);
        for uid in 0..uniques {
            let nk = variables(uid).len();
            forward_slots.push(take(nk));
            backward_slots.push(take(if nk >= 2 { (nk - 2).max(1) } else { 0 }));
            cross_slots.push(take(nk.saturating_sub(2)));
        }
        let mut layout = DataLayout {
            degree,
            num_slots: next,
            constant_slots,
            coefficient_slots,
            input_slots,
            forward_slots,
            backward_slots,
            cross_slots,
            scratch_slots: Vec::new(),
        };
        // Stage 3: convolution layers — every unique monomial is scheduled
        // once, so shared products are computed once for the whole system.
        let mut convolution_layers: Vec<Vec<ConvJob>> = Vec::new();
        for uid in 0..uniques {
            let z_slots: Vec<usize> = variables(uid)
                .iter()
                .map(|&v| layout.input_slots[v])
                .collect();
            schedule_monomial_convolutions(
                layout.coefficient_slots[uid],
                &z_slots,
                &layout.forward_slots[uid],
                &layout.backward_slots[uid],
                &layout.cross_slots[uid],
                &mut convolution_layers,
            );
        }
        // Stage 4: addition layers.  A unique monomial used by exactly one
        // instance keeps its product slots writable (in-place tree
        // summation); a monomial shared by several instances must keep its
        // products intact for every reader, so its contributions become
        // read-only and the tree runs on scratch accumulators instead.
        let writable = |uid: usize| instances[uid] == 1;
        let mut outputs: Vec<OutputSum> = Vec::with_capacity(polys.len() * (1 + n));
        for (i, p) in polys.iter().enumerate() {
            // The equation value: constant plus every monomial's last forward
            // product.
            let mut targets = Vec::new();
            let mut read_only = vec![layout.constant_slots[i]];
            for &uid in &monomial_map[i] {
                let f = &layout.forward_slots[uid];
                let slot = f[f.len() - 1];
                if writable(uid) {
                    targets.push(slot);
                } else {
                    read_only.push(slot);
                }
            }
            outputs.push(OutputSum { targets, read_only });
            // The Jacobian row d f_i / d x_j for every variable.
            for v in 0..n {
                let mut targets = Vec::new();
                let mut read_only = Vec::new();
                for (k, m) in p.monomials().iter().enumerate() {
                    if let Some(pos) = m.position_of(v) {
                        let uid = monomial_map[i][k];
                        match derivative_slot_in(&layout, uid, m.num_variables(), pos) {
                            Some(slot) if writable(uid) => targets.push(slot),
                            Some(slot) => read_only.push(slot),
                            None => read_only.push(layout.coefficient_slots[uid]),
                        }
                    }
                }
                outputs.push(OutputSum { targets, read_only });
            }
        }
        let (addition_layers, locations) =
            schedule_output_sums(outputs, &mut layout.num_slots, &mut layout.scratch_slots);
        let mut value_locations = Vec::with_capacity(polys.len());
        let mut jacobian_locations = Vec::with_capacity(polys.len());
        for row in locations.chunks_exact(1 + n) {
            value_locations.push(row[0]);
            jacobian_locations.push(row[1..].to_vec());
        }
        let schedule = Self {
            layout,
            convolution_layers,
            addition_layers,
            value_locations,
            jacobian_locations,
            representatives,
            total_monomials,
        };
        debug_assert!(schedule.validate_layers().is_ok());
        schedule
    }

    /// Number of equations.
    pub fn num_equations(&self) -> usize {
        self.value_locations.len()
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.layout.input_slots.len()
    }

    /// Total number of convolution jobs.
    pub fn convolution_jobs(&self) -> usize {
        self.convolution_layers.iter().map(Vec::len).sum()
    }

    /// Total number of addition jobs.
    pub fn addition_jobs(&self) -> usize {
        self.addition_layers.iter().map(Vec::len).sum()
    }

    /// Blocks per convolution kernel launch.
    pub fn convolution_layer_sizes(&self) -> Vec<usize> {
        self.convolution_layers.iter().map(Vec::len).collect()
    }

    /// Blocks per addition kernel launch.
    pub fn addition_layer_sizes(&self) -> Vec<usize> {
        self.addition_layers.iter().map(Vec::len).collect()
    }

    /// Number of unique monomials after merging.
    pub fn unique_monomials(&self) -> usize {
        self.representatives.len()
    }

    /// Total number of monomial instances across all equations.
    pub fn total_monomials(&self) -> usize {
        self.total_monomials
    }

    /// Monomial instances whose products are shared with an earlier
    /// occurrence instead of being recomputed (`total - unique`).
    pub fn deduplicated_monomials(&self) -> usize {
        self.total_monomials - self.representatives.len()
    }

    /// Checks the layer invariants: within one layer, outputs are pairwise
    /// distinct and no job reads a slot that another job of the same layer
    /// writes.  Returns a description of the first violation, if any.
    pub fn validate_layers(&self) -> Result<(), String> {
        for (l, layer) in self.convolution_layers.iter().enumerate() {
            let mut outputs = HashSet::new();
            for job in layer {
                if !outputs.insert(job.out) {
                    return Err(format!(
                        "convolution layer {l}: duplicate output slot {}",
                        job.out
                    ));
                }
            }
            for job in layer {
                let reads_foreign_output = |slot: usize| outputs.contains(&slot) && slot != job.out;
                if reads_foreign_output(job.in1) || reads_foreign_output(job.in2) {
                    return Err(format!(
                        "convolution layer {l}: job {job:?} reads a slot written by another job"
                    ));
                }
            }
        }
        for (l, layer) in self.addition_layers.iter().enumerate() {
            let mut outputs = HashSet::new();
            for job in layer {
                if !outputs.insert(job.dst) {
                    return Err(format!(
                        "addition layer {l}: duplicate destination {}",
                        job.dst
                    ));
                }
            }
            for job in layer {
                if outputs.contains(&job.src) {
                    return Err(format!(
                        "addition layer {l}: job {job:?} reads a destination of the same layer"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Lowers the schedule to block granularity for the dependency-driven
    /// executor: every job becomes one graph node whose read/write slots
    /// derive the dependency edges (convolutions read their two operand
    /// slots and write their output; additions read `src` and update `dst`
    /// in place), so shared products feed every consuming sum through the
    /// same edges.
    pub fn graph_plan(&self) -> GraphPlan {
        let mut builder = TaskGraphBuilder::new();
        let mut conv = Vec::new();
        let mut add = Vec::new();
        for job in self.convolution_layers.iter().flatten() {
            builder.add_task(&[job.in1, job.in2], &[job.out]);
            conv.push(*job);
        }
        for job in self.addition_layers.iter().flatten() {
            builder.add_task(&[job.src, job.dst], &[job.dst]);
            add.push(*job);
        }
        GraphPlan {
            graph: builder.build(),
            conv,
            add,
        }
    }

    /// Populates one instance's region of a (possibly batched) flat data
    /// array: each equation's constant, each unique monomial's coefficient
    /// (from its representative) and the shared input series.  Product and
    /// scratch slots are left untouched (the caller provides a
    /// zero-initialized slice).
    pub fn fill_data_array<C: Coeff>(
        &self,
        polys: &[Polynomial<C>],
        inputs: &[Series<C>],
        data: &mut [C],
    ) {
        assert_eq!(
            polys.len(),
            self.num_equations(),
            "wrong number of equations"
        );
        assert_eq!(inputs.len(), self.num_variables(), "wrong number of inputs");
        assert_eq!(
            data.len(),
            self.layout.total_coefficients(),
            "data slice does not match the layout"
        );
        let per = self.layout.coeffs_per_slot();
        let write_slot = |slot: usize, series: &Series<C>, data: &mut [C]| {
            assert_eq!(series.degree(), self.layout.degree, "degree mismatch");
            let off = slot * per;
            data[off..off + per].copy_from_slice(series.coeffs());
        };
        for (&slot, p) in self.layout.constant_slots.iter().zip(polys) {
            write_slot(slot, p.constant(), data);
        }
        for (&slot, &(i, k)) in self
            .layout
            .coefficient_slots
            .iter()
            .zip(&self.representatives)
        {
            write_slot(slot, &polys[i].monomials()[k].coefficient, data);
        }
        for (&slot, z) in self.layout.input_slots.iter().zip(inputs) {
            write_slot(slot, z, data);
        }
    }

    /// Extracts a result series from a populated data array.
    pub fn extract<C: Coeff>(&self, data: &[C], location: ResultLocation) -> Series<C> {
        let mut out = Series::zero(self.layout.degree);
        self.extract_into(data, location, &mut out);
        out
    }

    /// Extracts a result series into `out`, reusing its buffer — the
    /// allocation-free counterpart of [`Schedule::extract`].
    pub fn extract_into<C: Coeff>(
        &self,
        data: &[C],
        location: ResultLocation,
        out: &mut Series<C>,
    ) {
        match location {
            ResultLocation::Zero => out.fill_zero(self.layout.degree),
            ResultLocation::Slot(slot) => {
                let off = self.layout.offset(slot);
                out.copy_from_coeffs(&data[off..off + self.layout.coeffs_per_slot()]);
            }
        }
    }

    /// Writes equation `i`'s value and gradient (its Jacobian row) from one
    /// populated instance region into `value` and `gradient`, reusing their
    /// buffers — the one extraction step behind every evaluation output.
    pub fn extract_equation_into<C: Coeff>(
        &self,
        region: &[C],
        i: usize,
        value: &mut Series<C>,
        gradient: &mut Vec<Series<C>>,
    ) {
        self.extract_into(region, self.value_locations[i], value);
        let row = &self.jacobian_locations[i];
        gradient.resize_with(row.len(), || Series::zero(0));
        for (&loc, g) in row.iter().zip(gradient.iter_mut()) {
            self.extract_into(region, loc, g);
        }
    }
}

/// The slot holding the derivative of unique monomial `uid` (with `nk`
/// variables) with respect to the variable at position `pos` of its index
/// tuple, or `None` when the derivative is the read-only coefficient itself
/// (single-variable monomials).
fn derivative_slot_in(layout: &DataLayout, uid: usize, nk: usize, pos: usize) -> Option<usize> {
    let (forward, backward, cross) = (
        &layout.forward_slots[uid],
        &layout.backward_slots[uid],
        &layout.cross_slots[uid],
    );
    match nk {
        1 => None,
        2 => {
            if pos == 0 {
                Some(backward[0])
            } else {
                Some(forward[0])
            }
        }
        _ => {
            if pos == 0 {
                Some(backward[nk - 3])
            } else if pos == nk - 1 {
                Some(forward[nk - 2])
            } else {
                Some(cross[pos - 1])
            }
        }
    }
}

/// Schedules the forward, backward and cross products of one monomial into
/// the shared convolution layers: job `j` of each chain lands in the earliest
/// layer in which both of its inputs are available (Section 3 of the paper).
///
/// `a_slot` is the monomial's coefficient slot, `z_slots` the input slots of
/// its variables in tuple order, and `forward`/`backward`/`cross` the product
/// slot ranges reserved for it.
fn schedule_monomial_convolutions(
    a_slot: usize,
    z_slots: &[usize],
    forward: &[usize],
    backward: &[usize],
    cross: &[usize],
    layers: &mut Vec<Vec<ConvJob>>,
) {
    let nk = z_slots.len();
    let push = |layer: usize, job: ConvJob, layers: &mut Vec<Vec<ConvJob>>| {
        while layers.len() <= layer {
            layers.push(Vec::new());
        }
        layers[layer].push(job);
    };
    let z = |j: usize| z_slots[j];
    let f = forward;
    // Forward products: f_1 = a * z_{i1}, f_j = f_{j-1} * z_{ij}.
    push(
        0,
        ConvJob {
            in1: a_slot,
            in2: z(0),
            out: f[0],
        },
        layers,
    );
    for j in 1..nk {
        push(
            j,
            ConvJob {
                in1: f[j - 1],
                in2: z(j),
                out: f[j],
            },
            layers,
        );
    }
    if nk == 1 {
        return;
    }
    let b = backward;
    if nk == 2 {
        // Special case: the only backward product is z_{i2} * a_k, the
        // derivative with respect to the first variable.
        push(
            0,
            ConvJob {
                in1: z(1),
                in2: a_slot,
                out: b[0],
            },
            layers,
        );
        return;
    }
    // Backward products: b_1 = z_{ink} * z_{ink-1},
    // b_j = b_{j-1} * z_{ink-j}, and finally b_{nk-2} *= a_k.
    push(
        0,
        ConvJob {
            in1: z(nk - 1),
            in2: z(nk - 2),
            out: b[0],
        },
        layers,
    );
    for j in 1..nk - 2 {
        // Paper (1-based): b_{j+1} = b_j * z_{nk-(j+1)}, i.e. the next
        // variable below the ones already folded into b_j.
        push(
            j,
            ConvJob {
                in1: b[j - 1],
                in2: z(nk - 2 - j),
                out: b[j],
            },
            layers,
        );
    }
    // In-place update of the last backward product with the coefficient;
    // it depends on b_{nk-2}, which becomes available after nk-2 layers.
    push(
        nk - 2,
        ConvJob {
            in1: b[nk - 3],
            in2: a_slot,
            out: b[nk - 3],
        },
        layers,
    );
    // Cross products: c_j = f_j * b_{nk-2-j} for j = 1 .. nk-3, plus
    // c_{nk-2} = f_{nk-2} * z_{ink}.  (The derivative with respect to the
    // variable at position j is f_j times the product of the variables
    // above position j.)
    let c = cross;
    for j in 1..=nk - 3 {
        // f_j available after layer j (0-based index j-1), b_{nk-2-j}
        // after layer nk-2-j (0-based index nk-3-j).
        let layer = j.max(nk - 2 - j);
        push(
            layer,
            ConvJob {
                in1: f[j - 1],
                in2: b[nk - 3 - j],
                out: c[j - 1],
            },
            layers,
        );
    }
    push(
        nk - 2,
        ConvJob {
            in1: f[nk - 3],
            in2: z(nk - 1),
            out: c[nk - 3],
        },
        layers,
    );
}

/// One summation problem: read-only contributions plus writable accumulator
/// slots to be combined into a single result.
struct OutputSum {
    /// Slots that may be updated in place (monomial product slots).
    targets: Vec<usize>,
    /// Slots that may only be read (constant terms, coefficients of
    /// single-variable monomials, shared products).
    read_only: Vec<usize>,
}

impl OutputSum {
    fn location(&self) -> ResultLocation {
        if let Some(&slot) = self.targets.first() {
            ResultLocation::Slot(slot)
        } else if self.read_only.len() == 1 {
            ResultLocation::Slot(self.read_only[0])
        } else {
            ResultLocation::Zero
        }
    }
}

/// Schedules every output's summation and merges the per-output layers into
/// shared kernel launches (layer `i` of every output lands in launch `i`;
/// slots of different outputs are disjoint by construction).
///
/// Every output is summed with a binary tree over its writable slots; read-
/// only contributions are folded into writable slots in dedicated leading
/// layers.  Outputs whose every contribution is read-only receive a scratch
/// accumulator slot taken from `next_slot` and recorded in `scratch_slots`.
/// Returns the merged layers and the result location of every output, in
/// input order.
fn schedule_output_sums(
    mut outputs: Vec<OutputSum>,
    next_slot: &mut usize,
    scratch_slots: &mut Vec<usize>,
) -> (Vec<Vec<AddJob>>, Vec<ResultLocation>) {
    // Degenerate outputs (more than one contribution but no writable slot)
    // receive a scratch accumulator appended to the layout.
    for out in outputs.iter_mut() {
        if out.targets.is_empty() && out.read_only.len() > 1 {
            let slot = *next_slot;
            *next_slot += 1;
            scratch_slots.push(slot);
            out.targets.push(slot);
        }
    }
    // Schedule every output independently, then merge layer-by-layer.
    let mut merged: Vec<Vec<AddJob>> = Vec::new();
    let push = |layer: usize, job: AddJob, merged: &mut Vec<Vec<AddJob>>| {
        while merged.len() <= layer {
            merged.push(Vec::new());
        }
        merged[layer].push(job);
    };
    for out in &outputs {
        if out.targets.is_empty() {
            continue;
        }
        let mut layer = 0usize;
        // Fold read-only contributions into distinct targets, as many per
        // layer as there are targets.
        for chunk in out.read_only.chunks(out.targets.len()) {
            for (i, &src) in chunk.iter().enumerate() {
                push(
                    layer,
                    AddJob {
                        src,
                        dst: out.targets[i],
                    },
                    &mut merged,
                );
            }
            layer += 1;
        }
        // Binary tree over the targets.
        let mut current = out.targets.clone();
        while current.len() > 1 {
            let mut next = Vec::with_capacity(current.len().div_ceil(2));
            let mut i = 0;
            while i + 1 < current.len() {
                push(
                    layer,
                    AddJob {
                        src: current[i + 1],
                        dst: current[i],
                    },
                    &mut merged,
                );
                next.push(current[i]);
                i += 2;
            }
            if i < current.len() {
                next.push(current[i]);
            }
            current = next;
            layer += 1;
        }
    }
    let locations = outputs.iter().map(|o| o.location()).collect();
    (merged, locations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use psmd_multidouble::Qd;
    use psmd_series::Series;

    fn coeff(c: f64, d: usize) -> Series<Qd> {
        Series::constant(Qd::from_f64(c), d)
    }

    /// The example polynomial of Equation (4).
    fn paper_example(d: usize) -> Polynomial<Qd> {
        Polynomial::new(
            6,
            coeff(0.5, d),
            vec![
                Monomial::new(coeff(1.0, d), vec![0, 2, 5]),
                Monomial::new(coeff(2.0, d), vec![0, 1, 4, 5]),
                Monomial::new(coeff(3.0, d), vec![1, 2, 3]),
            ],
        )
    }

    fn schedule_of(p: &Polynomial<Qd>) -> Schedule {
        Schedule::build(std::slice::from_ref(p))
    }

    #[test]
    fn layout_follows_figure_1() {
        let p = paper_example(3);
        let layout = schedule_of(&p).layout;
        assert_eq!(layout.constant_slots, vec![0]);
        assert_eq!(layout.coefficient_slots, vec![1, 2, 3]);
        assert_eq!(layout.input_slots, vec![4, 5, 6, 7, 8, 9]);
        // Figure 1: f1 has 3 slots, f2 has 4, f3 has 3; b1 1, b2 2, b3 1;
        // c1 1, c2 2, c3 1.
        assert_eq!(layout.forward_slots[0].len(), 3);
        assert_eq!(layout.forward_slots[1].len(), 4);
        assert_eq!(layout.forward_slots[2].len(), 3);
        assert_eq!(layout.backward_slots[0].len(), 1);
        assert_eq!(layout.backward_slots[1].len(), 2);
        assert_eq!(layout.backward_slots[2].len(), 1);
        assert_eq!(layout.cross_slots[0].len(), 1);
        assert_eq!(layout.cross_slots[1].len(), 2);
        assert_eq!(layout.cross_slots[2].len(), 1);
        // Total slots: 1 + 3 + 6 + (3+4+3) + (1+2+1) + (1+2+1) = 28,
        // matching the 28 boxes of Figure 1 (no scratch accumulator needed).
        assert!(layout.scratch_slots.is_empty());
        assert_eq!(layout.num_slots, 28);
        // The offset of f1,1 (first forward slot of monomial 1) is 10 (d+1),
        // as in the triplet example of Section 5.
        assert_eq!(layout.forward_slots[0][0], 10);
        assert_eq!(layout.offset(layout.forward_slots[0][0]), 10 * (3 + 1));
    }

    #[test]
    fn example_schedule_has_21_convolutions_in_4_layers() {
        let p = paper_example(2);
        let s = schedule_of(&p);
        assert_eq!(s.convolution_jobs(), 21);
        // Display (5) of the paper arranges the 21 convolutions in 4 layers
        // of 9, 6 (wait: 6+3), ... our dependency-driven layering yields 4
        // layers whose sizes sum to 21 and whose first layer holds the 6
        // first-step jobs (f_{k,1} and b_{k,1} for each monomial).
        assert_eq!(s.convolution_layers.len(), 4);
        let sizes = s.convolution_layer_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 21);
        assert_eq!(sizes[0], 6);
        assert_eq!(s.addition_jobs(), 7);
        s.validate_layers().unwrap();
    }

    #[test]
    fn schedule_counts_match_polynomial_counts() {
        let p = paper_example(2);
        let s = schedule_of(&p);
        assert_eq!(s.convolution_jobs(), p.convolution_jobs());
        assert_eq!(s.addition_jobs(), p.addition_jobs());
    }

    #[test]
    fn single_and_two_variable_monomials() {
        let d = 1;
        let p = Polynomial::new(
            3,
            coeff(1.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(3.0, d), vec![0, 2]),
            ],
        );
        let s = schedule_of(&p);
        // Single-variable monomial: 1 convolution; two-variable: 3.
        assert_eq!(s.convolution_jobs(), 4);
        // Value: 2 additions (2 monomials, a0 folded in); gradient x0: the
        // derivative of the first monomial is the read-only coefficient a_1
        // and of the second the backward product -> 1 addition; x2: single
        // contribution -> 0.
        assert_eq!(s.addition_jobs(), 3);
        s.validate_layers().unwrap();
        match s.jacobian_locations[0][1] {
            ResultLocation::Zero => {}
            other => panic!("variable 1 does not occur, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_gradient_gets_a_scratch_slot() {
        // Two single-variable monomials in the same variable: both
        // derivatives are read-only coefficient slots, so a scratch
        // accumulator must be allocated.
        let d = 0;
        let p = Polynomial::new(
            1,
            coeff(0.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(5.0, d), vec![0]),
            ],
        );
        let s = schedule_of(&p);
        assert_eq!(s.layout.scratch_slots.len(), 1);
        assert_eq!(s.addition_jobs(), 2 + 2); // value: 2, gradient: 2 into scratch
        s.validate_layers().unwrap();
    }

    #[test]
    fn repeated_monomials_of_one_polynomial_are_computed_once() {
        // p = 1 + 2 x0 x1 x2 + 2 x0 x1 x2: the repeat (same variables, same
        // coefficient) shares the first occurrence's products, which turn
        // read-only for both sums.
        let d = 1;
        let m = || Monomial::new(coeff(2.0, d), vec![0, 1, 2]);
        let p = Polynomial::new(3, coeff(1.0, d), vec![m(), m()]);
        let s = schedule_of(&p);
        assert_eq!(s.total_monomials(), 2);
        assert_eq!(s.unique_monomials(), 1);
        assert_eq!(s.deduplicated_monomials(), 1);
        assert_eq!(s.convolution_jobs(), 6);
        // Every output sums two read-only copies of one product (plus the
        // constant for the value) in a scratch accumulator.
        assert_eq!(s.layout.scratch_slots.len(), 4);
        s.validate_layers().unwrap();
    }

    #[test]
    fn validation_catches_conflicting_layers() {
        let p = paper_example(2);
        let mut s = schedule_of(&p);
        // Force a duplicate output in the first layer.
        let job = s.convolution_layers[0][0];
        s.convolution_layers[0].push(job);
        assert!(s.validate_layers().is_err());
    }

    #[test]
    fn data_array_round_trip() {
        let p = paper_example(2);
        let s = schedule_of(&p);
        let inputs: Vec<Series<Qd>> = (0..6)
            .map(|i| Series::from_f64_coeffs(&[i as f64 + 1.0, 0.5, 0.25]))
            .collect();
        let mut data = vec![Qd::zero(); s.layout.total_coefficients()];
        s.fill_data_array(std::slice::from_ref(&p), &inputs, &mut data);
        // The constant term sits in slot 0.
        let v = s.extract(&data, ResultLocation::Slot(s.layout.constant_slots[0]));
        assert_eq!(v.coeff(0).to_f64(), 0.5);
        // Input z3 sits in its slot.
        let z3 = s.extract(&data, ResultLocation::Slot(s.layout.input_slots[3]));
        assert_eq!(z3.coeff(0).to_f64(), 4.0);
        assert_eq!(z3.coeff(2).to_f64(), 0.25);
        // Product slots start out zero.
        let f11 = s.extract(&data, ResultLocation::Slot(s.layout.forward_slots[0][0]));
        assert!(f11.is_zero());
        // Zero extraction.
        assert!(s.extract(&data, ResultLocation::Zero).is_zero());
    }

    #[test]
    fn graph_plan_matches_the_layer_structure_of_the_paper_example() {
        let p = paper_example(2);
        let s = schedule_of(&p);
        let plan = s.graph_plan();
        assert_eq!(plan.blocks(), s.convolution_jobs() + s.addition_jobs());
        assert_eq!(plan.conv.len(), s.convolution_jobs());
        assert_eq!(plan.add.len(), s.addition_jobs());
        plan.graph.validate().unwrap();
        // No monomial of the example has a single variable, so the blocks
        // that are ready at launch are exactly the first-layer convolutions.
        assert_eq!(plan.graph.roots().len(), s.convolution_layers[0].len());
        // The critical path must thread through every convolution layer and
        // at least one addition.
        assert!(plan.graph.critical_path_len() > s.convolution_layers.len());
        // Flattened order is the layered reference order.
        assert_eq!(
            plan.conv[..s.convolution_layers[0].len()],
            s.convolution_layers[0][..]
        );
    }

    #[test]
    fn graph_plan_chains_every_accumulation_into_a_slot() {
        // Duplicate single-variable monomials force scratch accumulation;
        // both `scratch += coefficient` additions update the same slot and
        // must be chained by an edge (order decides the floating-point
        // result).
        let d = 0;
        let p = Polynomial::new(
            1,
            coeff(0.0, d),
            vec![
                Monomial::new(coeff(2.0, d), vec![0]),
                Monomial::new(coeff(5.0, d), vec![0]),
            ],
        );
        let plan = schedule_of(&p).graph_plan();
        plan.graph.validate().unwrap();
        let n_conv = plan.conv.len();
        for (i, a) in plan.add.iter().enumerate() {
            for (j, b) in plan.add.iter().enumerate().skip(i + 1) {
                if a.dst == b.dst {
                    assert!(
                        plan.graph
                            .successors(n_conv + i)
                            .contains(&((n_conv + j) as u32)),
                        "additions {i} and {j} into slot {} are unordered",
                        a.dst
                    );
                }
            }
        }
    }

    #[test]
    fn p1_like_monomials_reproduce_the_paper_launch_structure() {
        // All 4-variable monomials over 8 variables (a scaled-down p1):
        // every monomial contributes 2, 3, 3, 1 jobs to layers 1-4.
        let d = 1;
        let vars: Vec<Vec<usize>> = {
            let mut v = Vec::new();
            for a in 0..8usize {
                for b in a + 1..8 {
                    for c in b + 1..8 {
                        for e in c + 1..8 {
                            v.push(vec![a, b, c, e]);
                        }
                    }
                }
            }
            v
        };
        let n_mono = vars.len();
        assert_eq!(n_mono, 70); // C(8,4)
        let monomials = vars
            .into_iter()
            .map(|v| Monomial::new(coeff(1.0, d), v))
            .collect();
        let p = Polynomial::new(8, coeff(1.0, d), monomials);
        let s = schedule_of(&p);
        assert_eq!(
            s.convolution_layer_sizes(),
            vec![2 * n_mono, 3 * n_mono, 3 * n_mono, n_mono]
        );
        assert_eq!(s.convolution_jobs(), 9 * n_mono);
        s.validate_layers().unwrap();
    }
}
