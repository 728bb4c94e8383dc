//! Exposition: Prometheus text format and JSON rendering.
//!
//! The Prometheus renderer follows the text-format contract the
//! conformance tests pin: one `# HELP` + `# TYPE` pair per family,
//! histogram buckets cumulative with inclusive `le` bounds, a final
//! `le="+Inf"` bucket equal to `_count`, and `_sum` in seconds. The
//! JSON renderer emits the same series flat so a scraper that can't
//! parse Prometheus (or a human with `jq`) gets identical numbers.

use crate::{Family, Kind, Value};
use std::fmt::Write as _;

/// The value of one [`crate::Stats`] entry.
#[derive(Debug, Clone, PartialEq)]
pub enum KvValue {
    /// Unsigned integer (the common case: counters, gauges).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with enough digits to round-trip).
    F64(f64),
    /// Free-form string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for KvValue {
    fn from(v: u64) -> KvValue {
        KvValue::U64(v)
    }
}

impl From<usize> for KvValue {
    fn from(v: usize) -> KvValue {
        KvValue::U64(v as u64)
    }
}

impl From<bool> for KvValue {
    fn from(v: bool) -> KvValue {
        KvValue::Bool(v)
    }
}

impl From<&str> for KvValue {
    fn from(v: &str) -> KvValue {
        KvValue::Str(v.to_string())
    }
}

impl From<String> for KvValue {
    fn from(v: String) -> KvValue {
        KvValue::Str(v)
    }
}

/// Renders `key value` lines — the legacy plaintext stats page.
pub(crate) fn render_kv_text<'a>(
    pairs: impl IntoIterator<Item = (&'a str, &'a KvValue)>,
) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        match v {
            KvValue::U64(n) => {
                let _ = writeln!(out, "{k} {n}");
            }
            KvValue::I64(n) => {
                let _ = writeln!(out, "{k} {n}");
            }
            KvValue::F64(f) => {
                let _ = writeln!(out, "{k} {f}");
            }
            KvValue::Str(s) => {
                let _ = writeln!(out, "{k} {s}");
            }
            KvValue::Bool(b) => {
                let _ = writeln!(out, "{k} {b}");
            }
        }
    }
    out
}

/// Renders the same pairs as one flat JSON object, key order
/// preserved.
pub(crate) fn render_kv_json<'a>(
    pairs: impl IntoIterator<Item = (&'a str, &'a KvValue)>,
) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        let _ = write!(out, "  {}: ", json_string(k));
        match v {
            KvValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            KvValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            KvValue::F64(f) => {
                let _ = write!(out, "{}", json_number(*f));
            }
            KvValue::Str(s) => {
                let _ = write!(out, "{}", json_string(s));
            }
            KvValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// JSON string literal with the escapes RFC 8259 requires.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(f: f64) -> String {
    if f.is_finite() {
        format!("{f}")
    } else {
        // JSON has no Inf/NaN; null is the least-wrong spelling.
        "null".to_string()
    }
}

fn label_str(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", prom_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn type_str(kind: Kind) -> &'static str {
    match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    }
}

pub(crate) fn prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for fam in families {
        let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
        let _ = writeln!(out, "# TYPE {} {}", fam.name, type_str(fam.kind));
        for s in &fam.series {
            let labels = label_str(&s.labels);
            match &s.value {
                Value::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", fam.name, labels, c.get());
                }
                Value::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", fam.name, labels, g.get());
                }
                Value::Histogram(h) => {
                    let (buckets, total) = h.cumulative();
                    for (bound, cum) in buckets {
                        let _ = writeln!(out, "{}_bucket{{le=\"{bound}\"}} {cum}", fam.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {total}", fam.name);
                    let _ = writeln!(out, "{}_sum {}", fam.name, h.sum_secs());
                    let _ = writeln!(out, "{}_count {total}", fam.name);
                }
            }
        }
    }
    out
}

pub(crate) fn json(families: &[Family]) -> String {
    let mut pairs: Vec<(String, KvValue)> = Vec::new();
    for fam in families {
        for s in &fam.series {
            let key = format!("{}{}", fam.name, label_str(&s.labels));
            match &s.value {
                Value::Counter(c) => pairs.push((key, KvValue::U64(c.get()))),
                Value::Gauge(g) => pairs.push((key, KvValue::I64(g.get()))),
                Value::Histogram(h) => {
                    let (buckets, total) = h.cumulative();
                    for (bound, cum) in buckets {
                        pairs.push((
                            format!("{}_bucket{{le=\"{bound}\"}}", fam.name),
                            KvValue::U64(cum),
                        ));
                    }
                    pairs.push((
                        format!("{}_bucket{{le=\"+Inf\"}}", fam.name),
                        KvValue::U64(total),
                    ));
                    pairs.push((format!("{}_sum", fam.name), KvValue::F64(h.sum_secs())));
                    pairs.push((format!("{}_count", fam.name), KvValue::U64(total)));
                }
            }
        }
    }
    render_kv_json(pairs.iter().map(|(k, v)| (k.as_str(), v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn prometheus_families_carry_help_and_type_once() {
        let reg = Registry::new();
        reg.counter_with(
            "flowtree_drops_total",
            "Dropped things.",
            &[("reason", "a")],
        )
        .add(2);
        reg.counter_with(
            "flowtree_drops_total",
            "Dropped things.",
            &[("reason", "b")],
        )
        .add(3);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# HELP flowtree_drops_total Dropped things.")
                .count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE flowtree_drops_total counter").count(),
            1
        );
        assert!(text.contains("flowtree_drops_total{reason=\"a\"} 2"));
        assert!(text.contains("flowtree_drops_total{reason=\"b\"} 3"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative_with_inf_equal_to_count() {
        let reg = Registry::new();
        let h = reg.histogram_with_bounds("flowtree_lat_seconds", "Latency.", &[0.001, 0.01]);
        h.observe_secs(0.0001);
        h.observe_secs(0.002);
        h.observe_secs(9.0);
        let text = reg.render_prometheus();
        assert!(text.contains("flowtree_lat_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("flowtree_lat_seconds_bucket{le=\"0.01\"} 2"));
        assert!(text.contains("flowtree_lat_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("flowtree_lat_seconds_count 3"));
    }

    #[test]
    fn json_escapes_and_round_trips_kv_pairs() {
        let pairs = [
            ("plain", KvValue::U64(7)),
            ("text", KvValue::Str("a\"b\\c\nd".to_string())),
            ("neg", KvValue::I64(-4)),
            ("ok", KvValue::Bool(true)),
        ];
        let pairs = || pairs.iter().map(|(k, v)| (*k, v));
        let json = render_kv_json(pairs());
        assert!(json.contains("\"plain\": 7"));
        assert!(json.contains("\"text\": \"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"neg\": -4"));
        assert!(json.contains("\"ok\": true"));
        let text = render_kv_text(pairs());
        assert!(text.contains("plain 7\n"));
        assert!(text.contains("neg -4\n"));
        assert!(text.contains("ok true\n"));
    }

    #[test]
    fn registry_json_matches_prometheus_values() {
        let reg = Registry::new();
        reg.counter("flowtree_things_total", "t").add(41);
        reg.gauge("flowtree_depth", "d").set(-3);
        let json = reg.render_json();
        assert!(json.contains("\"flowtree_things_total\": 41"));
        assert!(json.contains("\"flowtree_depth\": -3"));
    }
}
