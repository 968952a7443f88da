//! # ptperf-web — the workload substrate
//!
//! Everything PTPerf measures *through* the transports:
//!
//! * [`website`] — a deterministic synthetic corpus standing in for the
//!   Tranco top-1k and CBL-1k target lists;
//! * [`channel`] — the access-channel abstraction transports produce and
//!   clients consume (setup cost, per-stream cost, transfer model,
//!   carrier caps, connection-death hazard);
//! * [`curl`] — single-request default-page fetches (Figure 2a);
//! * [`browser`] — selenium-style full page loads with parallel
//!   sub-resource loading, plus the browsertime speed index
//!   (Figures 2b and 11);
//! * [`filedl`] — 5–100 MB bulk downloads with timeout and partial-
//!   download accounting (Figures 5 and 8);
//! * [`streaming`] — segmented media playback with startup/rebuffering
//!   QoE metrics (the paper's Appendix A.4 future-work use case).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser;
pub mod channel;
pub mod curl;
pub mod faults;
pub mod filedl;
pub mod http;
pub mod streaming;
pub mod website;

pub use browser::{
    load_page, load_page_pooled, load_page_reference, load_page_traced, BrowserError, PageLoad,
    PageScratch, BROWSER_PARALLELISM,
};
pub use channel::{Channel, Outcome};
pub use curl::{fetch, fetch_faulted, FetchResult, PAGE_TIMEOUT};
pub use faults::{FaultSession, FaultStats};
pub use http::{Request as HttpRequest, Response as HttpResponse};
pub use filedl::{download, download_faulted, Download, ReliabilityCounts, FILE_SIZES, FILE_TIMEOUT};
pub use streaming::{play, MediaStream, StreamingSession};
pub use website::{SiteCategory, SiteList, Website};
