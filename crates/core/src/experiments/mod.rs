//! Experiment runners, one per table/figure of the paper.
//!
//! Every runner follows the same shape: a `Config` with a `quick()`
//! preset (seconds, for tests) and a `paper()` preset (the full scale of
//! the original campaign), `units` and `merge` that split the work into
//! executor shards and join their values, `run` running them on the
//! calling thread, and a `render()` producing the text figure/table.
//! To run shards on several workers, or beside other families' shards,
//! pass `units` to [`crate::executor::run_units`] and its values to
//! `merge`; `repro` runs every selected family in one such pool.

pub mod file_download;
pub mod fixed_circuit;
pub mod fixed_guard;
pub mod location;
pub mod medium;
pub mod overhead;
pub mod reliability;
pub mod snowflake_load;
pub mod speed_index;
pub mod streaming;
pub mod ttest_tables;
pub mod ttfb;
pub mod website_curl;
pub mod website_selenium;

use ptperf_transports::{Category, PtId};

/// The figure ordering of PTs: grouped by category (proxy layer,
/// tunneling, mimicry, fully encrypted), with vanilla Tor first.
pub fn figure_order() -> Vec<PtId> {
    let mut out = vec![PtId::Vanilla];
    for cat in Category::ALL {
        out.extend(cat.members());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_order_covers_everything_once() {
        let order = figure_order();
        assert_eq!(order.len(), 13);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 13);
        assert_eq!(order[0], PtId::Vanilla);
    }
}
