//! Machine-readable result export (CSV) — the analysis-scripts half of
//! the artifact: every experiment result can be dumped as CSV for
//! external plotting, exactly like the repository the paper published.

use crate::measure::PairedSamples;

/// Escapes one CSV field (RFC 4180 quoting).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Builds a CSV document from a header and rows.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| csv_field(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged CSV row");
        let line = row
            .iter()
            .map(|c| csv_field(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Exports aligned per-site samples in long form:
/// `pt,target_index,value`.
pub fn samples_csv(samples: &PairedSamples) -> String {
    let mut rows = Vec::new();
    for pt in samples.pts() {
        for (i, v) in samples.samples(pt).iter().enumerate() {
            rows.push(vec![pt.name().to_string(), i.to_string(), format!("{v}")]);
        }
    }
    csv(&["pt", "target", "seconds"], &rows)
}

/// Exports pairwise t-test rows in the appendix-table schema.
pub fn ttests_csv(rows: &[crate::experiments::ttest_tables::TTestRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pair.clone(),
                format!("{:.6}", r.test.ci_lower),
                format!("{:.6}", r.test.ci_upper),
                format!("{:.6}", r.test.t),
                format!("{:.6}", r.test.p),
                format!("{:.6}", r.test.mean_diff),
            ]
        })
        .collect();
    csv(
        &["pair", "ci_lower", "ci_upper", "t", "p", "mean_diff"],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptperf_transports::PtId;

    #[test]
    fn field_escaping() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("with,comma"), "\"with,comma\"");
        assert_eq!(csv_field("with\"quote"), "\"with\"\"quote\"");
    }

    #[test]
    fn csv_shape() {
        let doc = csv(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(doc, "a,b\n1,2\n3,4\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn csv_rejects_ragged_rows() {
        let _ = csv(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn samples_round_trip_shape() {
        let mut s = PairedSamples::new();
        s.push(PtId::Vanilla, 1.5);
        s.push(PtId::Vanilla, 2.5);
        s.push(PtId::Obfs4, 1.0);
        s.push(PtId::Obfs4, 2.0);
        let doc = samples_csv(&s);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines[0], "pt,target,seconds");
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().any(|l| l.starts_with("obfs4,0,")));
    }
}
