//! The emitters and the parser must agree: every JSON document this
//! crate produces — the metrics registry above all — parses back with
//! the crate's own strict parser, through escaping edge cases and the
//! empty/zero-shard corners.

use std::time::Duration;

use ptperf_obs::json::{self, Value};
use ptperf_obs::MetricsRegistry;

#[test]
fn metrics_registry_json_parses_and_round_trips_fields() {
    let mut reg = MetricsRegistry::new();
    reg.observe("fig6", Duration::from_millis(120), 10);
    reg.observe("fig6", Duration::from_millis(80), 14);
    reg.observe("fig5", Duration::from_millis(200), 6);
    reg.set_run(4, Duration::from_millis(150));
    let doc = reg.to_json();
    let v = json::parse(&doc).expect("metrics JSON must parse");
    assert_eq!(v.get("workers").and_then(Value::as_f64), Some(4.0));
    let families = v.get("families").and_then(Value::as_array).unwrap();
    assert_eq!(families.len(), 2);
    let fig6 = families
        .iter()
        .find(|f| f.get("family").and_then(Value::as_str) == Some("fig6"))
        .expect("fig6 family present");
    assert_eq!(fig6.get("shards").and_then(Value::as_f64), Some(2.0));
    assert_eq!(fig6.get("samples").and_then(Value::as_f64), Some(24.0));
    let total = fig6.get("wall_total_secs").and_then(Value::as_f64).unwrap();
    assert!((total - 0.2).abs() < 1e-9, "wall total {total}");
    let util = v.get("utilization").and_then(Value::as_f64).unwrap();
    assert!(util.is_finite() && util > 0.0);
}

#[test]
fn empty_registry_is_valid_json() {
    let doc = MetricsRegistry::new().to_json();
    let v = json::parse(&doc).expect("empty registry must still be valid JSON");
    assert_eq!(
        v.get("families")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(0)
    );
    // No run context set: workers 0, elapsed 0 — and the utilization
    // division must not leak NaN/Infinity into the document.
    assert_eq!(v.get("workers").and_then(Value::as_f64), Some(0.0));
    for field in ["elapsed_secs", "utilization"] {
        match v.get(field) {
            Some(Value::Num(x)) => assert!(x.is_finite(), "{field} is non-finite"),
            Some(Value::Null) | None => {}
            other => panic!("{field} has unexpected shape: {other:?}"),
        }
    }
}

#[test]
fn zero_shard_family_cannot_exist_but_zero_samples_can() {
    let mut reg = MetricsRegistry::new();
    reg.observe("empty", Duration::ZERO, 0);
    reg.set_run(1, Duration::ZERO);
    let doc = reg.to_json();
    let v = json::parse(&doc).expect("zero-duration observations must serialize");
    let families = v.get("families").and_then(Value::as_array).unwrap();
    assert_eq!(
        families[0].get("samples").and_then(Value::as_f64),
        Some(0.0)
    );
    assert_eq!(families[0].get("shards").and_then(Value::as_f64), Some(1.0));
    // Zero elapsed time: whatever utilization reads, the JSON stays
    // parseable and non-finite values render as null, not `inf`.
    assert!(
        !doc.contains("inf") && !doc.to_lowercase().contains("nan"),
        "{doc}"
    );
}

#[test]
fn family_names_with_specials_escape_and_parse_back() {
    let mut reg = MetricsRegistry::new();
    let gnarly = "fam\"ily\\with\nnewline\tand\u{1}ctrl";
    reg.observe(gnarly, Duration::from_millis(5), 1);
    reg.set_run(1, Duration::from_millis(5));
    let doc = reg.to_json();
    let v = json::parse(&doc).expect("escaped family names must parse");
    let families = v.get("families").and_then(Value::as_array).unwrap();
    assert_eq!(
        families[0].get("family").and_then(Value::as_str),
        Some(gnarly),
        "escaping must round-trip the exact family name"
    );
}

#[test]
fn escape_covers_the_full_control_range() {
    for c in (0u32..0x20).filter_map(char::from_u32) {
        let raw = format!("a{c}b");
        let doc = format!("{{\"k\":{}}}", json::string(&raw));
        let v = json::parse(&doc).unwrap_or_else(|e| panic!("U+{:04X}: {e}", c as u32));
        assert_eq!(v.get("k").and_then(Value::as_str), Some(raw.as_str()));
    }
}

#[test]
fn number_edge_cases_round_trip() {
    for x in [0.0, -0.0, 1.5, -2.25, 1e-9, 1.7976931348623157e308, 42.0] {
        let doc = format!("[{}]", json::number(x));
        let v = json::parse(&doc).expect(&doc);
        let back = v.as_array().unwrap()[0].as_f64().unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{x} did not round-trip");
    }
    // Non-finite numbers render as null and parse back as null.
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = format!("[{}]", json::number(x));
        assert_eq!(
            json::parse(&doc).unwrap().as_array().unwrap()[0],
            Value::Null
        );
    }
}
