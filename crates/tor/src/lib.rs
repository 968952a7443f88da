//! # ptperf-tor — the simulated Tor substrate
//!
//! A Tor network model sufficient for faithful pluggable-transport
//! performance measurement:
//!
//! * [`consensus`] — synthetic relay population with realistic location,
//!   bandwidth, flag, and background-load distributions;
//! * [`relay`] — relay descriptors: location, bandwidth, flags and
//!   background utilization;
//! * [`path`] — bandwidth-weighted path selection with a freshly sampled
//!   guard per circuit, and the stem/carml-style pinning controls the
//!   paper's fixed-circuit experiments need, set directly on
//!   [`PathConfig`];
//! * [`cell`] — real 514-byte cell and RELAY-cell codecs (the framing
//!   overhead used by the timing model is *derived* from these, and
//!   `ptperf-transports`' `codec_model` test pins it to their output);
//! * [`circuit`] — circuit build timing (telescoping extends), end-to-end
//!   RTT, bottleneck capacity, and stream timing.
//!
//! The central mechanism reproduced from the paper: **the first hop
//! governs circuit performance** (§4.2.1). Volunteer guards carry heavy
//! background load; managed PT bridges do not; middles and exits carry
//! proportionally less. Everything downstream (why obfs4 can beat vanilla
//! Tor, why fixing the circuit equalizes them) emerges from that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod circuit;
pub mod consensus;
pub mod index;
pub mod path;
pub mod relay;

pub use cell::{Cell, CellCommand, RelayCell, RelayCommand, CELL_LEN, RELAY_DATA_LEN};
pub use circuit::{access_capacity, window_capped_rate, Circuit, CircuitOptions, Via};
pub use consensus::{Consensus, ConsensusParams};
pub use index::{ClassIndex, ConsensusIndex, FilterClass};
pub use path::{CircuitSpec, PathConfig, PathError, PathSelector, Role, SAMPLED_GUARDS};
pub use relay::{Relay, RelayFlags, RelayId};
