//! **Table 1** — the measurement-campaign plan.

use ptperf_stats::Table;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct MeasurementType {
    /// Measurement family.
    pub name: &'static str,
    /// Approximate measurement count in the original campaign.
    pub count: &'static str,
    /// Target set.
    pub target: &'static str,
}

/// The paper's Table 1 plan.
pub fn plan() -> Vec<MeasurementType> {
    vec![
        MeasurementType {
            name: "Website Download (curl)",
            count: "149.5 k",
            target: "Tranco top-1k & CBL-1k",
        },
        MeasurementType {
            name: "Website Download (selenium)",
            count: "174 k",
            target: "Tranco top-1k & CBL-1k",
        },
        MeasurementType {
            name: "File Downloads (curl)",
            count: "2.7 k",
            target: "5, 10, 20, 50, 100 MB",
        },
        MeasurementType {
            name: "File Downloads (selenium)",
            count: "2.7 k",
            target: "5, 10, 20, 50, 100 MB",
        },
        MeasurementType {
            name: "Medium Change (wired/wireless)",
            count: "60 k",
            target: "Tranco top-500 & CBL-500",
        },
        MeasurementType {
            name: "Speed Index",
            count: "60 k",
            target: "Tranco top-1k",
        },
        MeasurementType {
            name: "Pluggable Transport Overhead",
            count: "40 k",
            target: "Tranco top-1k",
        },
        MeasurementType {
            name: "Location Variation",
            count: "686 k",
            target: "Tranco top-1k & CBL-1k",
        },
    ]
}

/// Renders Table 1.
pub fn render_plan() -> String {
    let mut table = Table::new(["Measurement Type", "Number of Measurements", "Target"]);
    for m in plan() {
        table.row([m.name, m.count, m.target]);
    }
    format!(
        "Table 1 — Overview of measurement types\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_table_1() {
        let p = plan();
        assert_eq!(p.len(), 8);
        assert!(render_plan().contains("686 k"));
    }
}
