//! # ptperf — the PTPerf measurement harness
//!
//! The top of the stack: this crate reproduces every table and figure of
//! *"PTPerf: On the Performance Evaluation of Tor Pluggable Transports"*
//! (IMC 2023) over the simulation substrate provided by the lower
//! crates.
//!
//! * [`scenario`] — deployment seed, vantage points, medium, load epoch;
//! * [`measure`] — fetch/aggregate primitives and aligned paired samples;
//! * [`experiments`] — one runner per table/figure (Fig. 2a/2b, 3, 4, 5,
//!   6, 7, 8, 9, 10, 11, 12; Tables 3–10; §4.7 medium study);
//! * [`ecosystem`] — the Table 2 survey of all 28 candidate PTs;
//! * [`campaign`] — the Table 1 plan;
//! * [`executor`] — the deterministic work-claiming parallel executor
//!   the experiment runners are built on (`ptperf-bench`'s
//!   `run_targets` runs every selected family in one of its pools);
//! * [`report`] — CSV export of results for external analysis.
//!
//! ## Quickstart
//!
//! ```
//! use ptperf::scenario::Scenario;
//! use ptperf::experiments::website_curl;
//!
//! let scenario = Scenario::baseline(42);
//! let cfg = website_curl::Config { sites_per_list: 10, repeats: 2 };
//! let result = website_curl::run(&scenario, &cfg);
//! // obfs4 is one of the fastest transports; marionette the slowest.
//! let obfs4 = result.samples.median(ptperf_transports::PtId::Obfs4);
//! let marionette = result.samples.median(ptperf_transports::PtId::Marionette);
//! assert!(obfs4 < marionette);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod ecosystem;
pub mod executor;
pub mod experiments;
pub mod measure;
pub mod report;
pub mod scenario;

pub use executor::Parallelism;
pub use measure::PairedSamples;
pub use scenario::{Epoch, FaultConfig, FaultProfile, Scenario};

// Re-export the lower layers so downstream users need only `ptperf`.
pub use ptperf_obs as obs;
pub use ptperf_sim as sim;
pub use ptperf_stats as stats;
pub use ptperf_tor as tor;
pub use ptperf_transports as transports;
pub use ptperf_web as web;
