//! # ptperf-bench — benchmark harnesses and the `repro` binary
//!
//! * `cargo run --release -p ptperf-bench --bin repro [-- <targets>]`
//!   regenerates every table and figure of the paper as text output
//!   (see [`targets`] for the list);
//! * `cargo bench` runs the Criterion benchmarks, one group per
//!   figure/table family plus the ablation benches DESIGN.md calls out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod establishbench;
pub mod flowbench;
pub mod obs_export;
pub mod regress;
pub mod targets;
pub mod unitbench;

pub use targets::{available_targets, run_targets, RunError, RunScale, Runs, TargetRun};
