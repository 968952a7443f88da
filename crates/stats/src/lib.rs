//! # ptperf-stats — measurement analysis statistics
//!
//! The statistical toolkit behind the paper's analysis, implemented from
//! scratch (no external stats crates):
//!
//! * [`desc`] — means, sample SD, quantiles, five-number boxplot
//!   summaries, Welford streaming accumulators;
//! * [`ttest`] — the paired Student's t-test with two-sided p-value,
//!   95% CI, and mean difference (Appendix Tables 3–10);
//! * [`ecdf`] — empirical CDFs (Figures 3b, 6, 8b);
//! * [`fixed`] — [`Fixed`], exact fixed-point number formatting that
//!   writes what `format!("{x:.d$}")` writes, without allocating;
//! * [`special`] — log-gamma, regularized incomplete beta, Student's t
//!   CDF and quantile (validated against known critical values);
//! * [`table`] — aligned Markdown table and ASCII boxplot/ECDF rendering
//!   for the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod desc;
pub mod ecdf;
pub mod fixed;
pub mod rank;
pub mod special;
pub mod table;
pub mod ttest;

pub use desc::{mean, median, quantile, std_dev, Summary, Welford};
pub use ecdf::Ecdf;
pub use fixed::Fixed;
pub use rank::{average_ranks, pearson, spearman};
pub use special::{inc_beta, ln_gamma, student_t_cdf, student_t_quantile, t_two_sided_p};
pub use table::{ascii_boxplots, ascii_ecdf, Table};
pub use ttest::PairedTTest;
