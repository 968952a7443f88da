//! Appendix **Tables 3–10** — paired t-tests.
//!
//! Tables 3/4 cover all PT pairs of the curl experiment, 5/6 the
//! selenium pairs, 7 the file downloads, 8/9 the speed index, and 10 the
//! *category-level* comparison (each category's mean per-site time
//! against the others and vanilla Tor).

use std::fmt::Display;

use ptperf_stats::{Fixed, PairedTTest, Table};
use ptperf_transports::{Category, PtId};

use crate::measure::PairedSamples;

/// One rendered t-test row.
#[derive(Debug, Clone)]
pub struct TTestRow {
    /// Display label, e.g. `Tor-Dnstt` or `mimicry-tunneling`.
    pub pair: String,
    /// The test result.
    pub test: PairedTTest,
}

/// Runs every pairwise t-test over the aligned samples.
pub fn pairwise(samples: &PairedSamples) -> Vec<TTestRow> {
    samples
        .pairs()
        .map(|(a, b)| {
            let (a_name, b_name) = (a.name(), b.name());
            let mut pair = String::with_capacity(a_name.len() + b_name.len() + 1);
            push_display_name(&mut pair, a_name);
            pair.push('-');
            push_display_name(&mut pair, b_name);
            TTestRow {
                pair,
                test: samples.ttest(a, b),
            }
        })
        .collect()
}

/// Appends a PT name with its first letter upper-cased (`Tor`, `Dnstt`).
fn push_display_name(out: &mut String, name: &str) {
    let mut c = name.chars();
    if let Some(first) = c.next() {
        out.extend(first.to_uppercase());
        out.push_str(c.as_str());
    }
}

/// Computes per-category per-site means (averaging the member PTs'
/// aligned samples), plus vanilla Tor, then runs all pairwise tests —
/// Table 10.
pub fn category_pairwise(samples: &PairedSamples) -> Vec<TTestRow> {
    let n = samples.samples(PtId::Vanilla).len();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for cat in Category::ALL {
        let members: Vec<PtId> = cat
            .members()
            .into_iter()
            .filter(|&pt| samples.pts().any(|p| p == pt))
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut avg = vec![0.0f64; n];
        for &pt in &members {
            for (i, v) in samples.samples(pt).iter().enumerate() {
                avg[i] += v / members.len() as f64;
            }
        }
        series.push((cat.label().to_string(), avg));
    }
    series.push(("Tor".to_string(), samples.samples(PtId::Vanilla).to_vec()));

    let mut rows = Vec::new();
    for i in 0..series.len() {
        for j in i + 1..series.len() {
            rows.push(TTestRow {
                pair: format!("{}-{}", series[i].0, series[j].0),
                test: PairedTTest::run(&series[i].1, &series[j].1),
            });
        }
    }
    rows
}

/// Renders rows in the appendix-table format.
pub fn render(title: &str, rows: &[TTestRow]) -> String {
    let mut table = Table::new([
        "PT Pair",
        "CI Lower",
        "CI Upper",
        "t-value",
        "P-value",
        "Mean diff.",
    ]);
    for row in rows {
        let t = &row.test;
        table.row([
            &row.pair as &dyn Display,
            &Fixed(t.ci_lower, 3),
            &Fixed(t.ci_upper, 3),
            &Fixed(t.t, 3),
            &t.p_display(),
            &Fixed(t.mean_diff, 3),
        ]);
    }
    format!("{title}\n{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::website_curl;
    use crate::scenario::Scenario;

    fn samples() -> PairedSamples {
        website_curl::run(&Scenario::baseline(131), &website_curl::Config::quick()).samples
    }

    #[test]
    fn pairwise_covers_all_13_choose_2_pairs() {
        let rows = pairwise(&samples());
        assert_eq!(rows.len(), 13 * 12 / 2);
    }

    #[test]
    fn headline_pairs_are_significant() {
        let s = samples();
        let marionette_tor = s.ttest(PtId::Marionette, PtId::Vanilla);
        assert!(marionette_tor.significant());
        assert!(marionette_tor.mean_diff > 0.0);
        let camoufler_webtunnel = s.ttest(PtId::Camoufler, PtId::WebTunnel);
        assert!(camoufler_webtunnel.significant());
        assert!(camoufler_webtunnel.mean_diff > 0.0);
    }

    #[test]
    fn category_table_matches_paper_directions() {
        let rows = category_pairwise(&samples());
        let find = |label: &str| {
            rows.iter().find(|r| r.pair == label).unwrap_or_else(|| {
                panic!(
                    "pair {label} missing: {:?}",
                    rows.iter().map(|r| r.pair.clone()).collect::<Vec<_>>()
                )
            })
        };
        // Fully encrypted beats tunneling and mimicry — Table 10's
        // headline (pairs are labeled in Category::ALL order, so the
        // sign is positive for "slower-faster").
        assert!(find("tunneling-fully encrypted").test.mean_diff > 0.0);
        assert!(find("mimicry-fully encrypted").test.mean_diff > 0.0);
        // Proxy layer beats tunneling and mimicry.
        assert!(find("proxy layer-tunneling").test.mean_diff < 0.0);
        assert!(find("proxy layer-mimicry").test.mean_diff < 0.0);
    }

    #[test]
    fn render_formats_like_the_appendix() {
        let rows = pairwise(&samples());
        let text = render("Table 3", &rows[..5.min(rows.len())]);
        assert!(text.contains("PT Pair"));
        assert!(text.contains("Mean diff."));
        assert!(text.lines().count() >= 7);
    }
}
