//! # ptperf-sim — deterministic network simulator
//!
//! The simulation substrate underneath the PTPerf reproduction. The
//! original study measured the live Tor network; this crate provides the
//! controllable, reproducible stand-in: a virtual clock, a seeded
//! random number generator, a six-region geographic topology with
//! realistic inter-region delays, a TCP-like transfer-time model
//! (slow start, Mathis loss ceiling, retransmission expansion), max–min
//! fair bandwidth sharing for concurrent flows, a relay/bridge load
//! model, and deterministic fault plans with a retry driver.
//!
//! Everything is deterministic given a seed: same seed, same results,
//! bit for bit, across platforms.
//!
//! ## Layering
//!
//! ```text
//! SimTime / SimDuration                    time.rs
//! SimRng + distributions                   rng.rs
//! Location / Medium / PathSample           topology.rs
//! TransferModel (TCP-like timing)          xfer.rs
//! FairNetwork / fluid_schedule             flow/
//! LoadProfile / LoadTimeline               load.rs
//! FaultPlan / run_transfer                 fault.rs
//! ```
//!
//! Higher layers (`ptperf-tor`, `ptperf-transports`, `ptperf-web`) compose
//! these primitives; they never talk to a real network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod flow;
pub mod load;
pub mod rng;
pub mod time;
pub mod topology;
pub mod xfer;

pub use fault::{
    run_transfer, FaultBias, FaultConfig, FaultEvent, FaultKind, FaultKnobs, FaultPlan,
    FaultProfile, FaultRun, RetryPolicy, TransferSpec,
};
pub use flow::{fluid_schedule, fluid_schedule_recorded, maxmin_demo, maxmin_rates, maxmin_rates_recorded, FairNetwork, FlowBatch, FlowDemand, FlowNodes, FluidCompletion, FluidFlow, FluidScheduler, NodeId};
pub use load::{effective_capacity, LoadProfile, LoadTimeline};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{base_owd, base_rtt, sample_path, Continent, Location, Medium, PathSample};
pub use xfer::{TransferModel, INIT_WINDOW, MSS};
