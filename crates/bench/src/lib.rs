//! # psmd-bench
//!
//! The benchmark harness of the reproduction: the paper's three test
//! polynomials (Table 2), measured CPU sweep drivers, modeled GPU sweep
//! drivers, and the plain-text reports that regenerate every table and
//! figure of the paper's evaluation section.
//!
//! The `table_harness` binary is the entry point:
//!
//! ```text
//! cargo run --release -p psmd-bench --bin table_harness -- all
//! cargo run --release -p psmd-bench --bin table_harness -- table3
//! cargo run --release -p psmd-bench --bin table_harness -- table5 --measure
//! ```

#![warn(missing_docs)]

pub mod alloc_counter;
pub mod compare;
pub mod kernels;
pub mod polynomials;
pub mod report;
pub mod serve_load;
pub mod sweep;

pub use alloc_counter::{measure_allocs, AllocCounts, CountingAllocator};
pub use compare::{compare_reports, CompareSummary, Regression};
pub use kernels::{kernel_label, kernel_ladder_row, KernelLadderRow, KERNEL_LADDER_DEGREES};
pub use polynomials::{Scale, TestPolynomial, PAPER_DEGREES, REDUCED_DEGREES};
pub use report::{banner, log2, ms, pct, JsonReport, TextTable};
pub use serve_load::{closed_loop_run, staged_run, LoadRow, StagedRow};
pub use sweep::{
    batched_comparison, engine_amortization, measured_double_ops, measured_run, modeled_double_ops,
    modeled_run, simd_comparison, system_comparison, workspace_comparison, BatchComparison,
    EngineAmortization, ShapeCache, SimdComparison, SystemComparison, TimingRow,
    WorkspaceComparison,
};
