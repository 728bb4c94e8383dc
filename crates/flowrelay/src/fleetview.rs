//! Fleet-wide metrics view: scrape every node's `/metrics`, validate
//! the exposition, and fold the series into one per-tier table —
//! the engine behind `flowctl top` and `flowctl scrape`.
//!
//! The scraper speaks the same hand-rolled HTTP/1.0 subset the ops
//! endpoints serve ([`flowdist::ops::ops_request`]); the parser reads
//! the Prometheus text format the in-tree [`flowmetrics`] registry
//! renders. [`validate_exposition`] doubles as the conformance
//! checker CI runs against every live node: name charset,
//! `# HELP`/`# TYPE` presence, cumulative bucket monotonicity, and
//! the `+Inf` bucket equalling `_count`.

use flowdist::ops::ops_request;
use std::collections::BTreeMap;

/// One scraped node: identity from `flowtree_build_info`, every
/// sample folded to `name → value` (label sets summed away).
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// The stats address scraped.
    pub addr: String,
    /// `site`, `relay`, or `root` (from `flowtree_build_info{role=…}`).
    pub role: String,
    /// Node name (`site3`, `west`, …).
    pub node: String,
    /// Build version the node reports.
    pub version: String,
    /// Label-free series values; labeled series of one family sum.
    pub series: BTreeMap<String, f64>,
}

impl NodeMetrics {
    /// A series value, 0.0 when the node does not expose it.
    pub fn get(&self, name: &str) -> f64 {
        self.series.get(name).copied().unwrap_or(0.0)
    }
}

/// Splits one sample line into `(name, labels, value)`; `labels` is
/// the raw `k="v",…` interior (empty when unlabeled).
fn split_sample(line: &str) -> Option<(&str, &str, f64)> {
    let line = line.trim();
    let (ident, value) = match line.find('{') {
        Some(b) => {
            let close = line.rfind('}')?;
            let value = line.get(close + 1..)?.trim();
            (
                (&line[..b], line.get(b + 1..close)?),
                value.parse::<f64>().ok()?,
            )
        }
        None => {
            let (name, value) = line.rsplit_once(char::is_whitespace)?;
            ((name.trim(), ""), value.trim().parse::<f64>().ok()?)
        }
    };
    Some((ident.0, ident.1, value))
}

/// Pulls one label's value out of a raw label interior.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    for part in labels.split("\",") {
        let part = part.trim().trim_end_matches('"');
        if let Some(rest) = part.strip_prefix(key) {
            if let Some(v) = rest.strip_prefix("=\"") {
                return Some(v);
            }
        }
    }
    None
}

fn valid_sample_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses a Prometheus text page into `name → value`, summing a
/// family's label sets (the fleet view wants totals, not label
/// breakdowns). Histogram `_bucket` samples are skipped; `_sum` and
/// `_count` come through as plain series.
pub fn parse_series(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, _labels, value)) = split_sample(line) else {
            continue;
        };
        if name.ends_with("_bucket") {
            continue;
        }
        *out.entry(name.to_string()).or_insert(0.0) += value;
    }
    out
}

/// Validates one Prometheus text page against the exposition rules the
/// fleet promises:
///
/// 1. every sample name is `[a-zA-Z_:][a-zA-Z0-9_:]*`;
/// 2. every family has a `# HELP` and a `# TYPE` line;
/// 3. histogram buckets are cumulative (monotone non-decreasing in
///    `le` order) and the `+Inf` bucket equals `_count`.
///
/// Returns the first violation as `Err`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut helped: BTreeMap<String, bool> = BTreeMap::new(); // family → has TYPE
    fn family_of(helped: &BTreeMap<String, bool>, name: &str) -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(stem) = name.strip_suffix(suffix) {
                if helped.contains_key(stem) {
                    return stem.to_string();
                }
            }
        }
        name.to_string()
    }
    // histogram name → (last cumulative count, last bound, inf, count)
    #[derive(Default)]
    struct HistCheck {
        last_cum: u64,
        last_bound: f64,
        seen_finite: bool,
        inf: Option<u64>,
        count: Option<u64>,
        any_bucket: bool,
    }
    let mut hists: BTreeMap<String, HistCheck> = BTreeMap::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split_whitespace().next().unwrap_or_default();
            helped.entry(fam.to_string()).or_insert(false);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fam = rest.split_whitespace().next().unwrap_or_default();
            helped.insert(fam.to_string(), true);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name, labels, value)) = split_sample(line) else {
            return Err(format!("line {}: unparsable sample: {raw}", no + 1));
        };
        if !valid_sample_name(name) {
            return Err(format!("line {}: invalid metric name {name}", no + 1));
        }
        let fam = family_of(&helped, name);
        match helped.get(&fam) {
            None => return Err(format!("line {}: {fam} has no # HELP", no + 1)),
            Some(false) => return Err(format!("line {}: {fam} has no # TYPE", no + 1)),
            Some(true) => {}
        }
        if name.ends_with("_bucket") {
            let h = hists.entry(fam.clone()).or_default();
            h.any_bucket = true;
            let cum = value as u64;
            let le = label_value(labels, "le")
                .ok_or_else(|| format!("line {}: bucket without le label", no + 1))?;
            if le == "+Inf" {
                h.inf = Some(cum);
            } else {
                let bound: f64 = le
                    .parse()
                    .map_err(|_| format!("line {}: bad le bound {le}", no + 1))?;
                if h.inf.is_some() || (h.seen_finite && bound < h.last_bound) {
                    return Err(format!("line {}: buckets out of le order", no + 1));
                }
                h.last_bound = bound;
                h.seen_finite = true;
            }
            if cum < h.last_cum {
                return Err(format!(
                    "line {}: bucket counts not cumulative ({cum} < {})",
                    no + 1,
                    h.last_cum
                ));
            }
            h.last_cum = cum;
        } else if let Some(stem) = name.strip_suffix("_count") {
            if hists.contains_key(stem) {
                hists.get_mut(stem).expect("present").count = Some(value as u64);
            }
        }
    }
    for (fam, h) in &hists {
        if !h.any_bucket {
            continue;
        }
        match (h.inf, h.count) {
            (Some(inf), Some(count)) if inf == count => {}
            (inf, count) => {
                return Err(format!(
                    "histogram {fam}: +Inf bucket {inf:?} != _count {count:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Scrapes one node's `/metrics`, validates the exposition, and
/// resolves its identity from `flowtree_build_info`.
pub fn scrape(addr: &str) -> Result<NodeMetrics, String> {
    let (status, body) =
        ops_request(addr, "GET", "/metrics", "").map_err(|e| format!("{addr}: {e}"))?;
    if status != 200 {
        return Err(format!("{addr}: /metrics returned {status}"));
    }
    validate_exposition(&body).map_err(|e| format!("{addr}: {e}"))?;
    let (mut role, mut node, mut version) = (String::new(), String::new(), String::new());
    for line in body.lines() {
        if let Some((name, labels, _)) = split_sample(line) {
            if name == "flowtree_build_info" {
                role = label_value(labels, "role").unwrap_or_default().to_string();
                node = label_value(labels, "node").unwrap_or_default().to_string();
                version = label_value(labels, "version")
                    .unwrap_or_default()
                    .to_string();
                break;
            }
        }
    }
    if role.is_empty() {
        return Err(format!("{addr}: no flowtree_build_info series"));
    }
    Ok(NodeMetrics {
        addr: addr.to_string(),
        role,
        node,
        version,
        series: parse_series(&body),
    })
}

/// One aggregated tier of the fleet table.
#[derive(Debug, Clone, PartialEq)]
pub struct TierRow {
    /// `site`, `relay`, or `root`.
    pub role: String,
    /// Nodes in the tier.
    pub nodes: usize,
    /// Ingest units accepted across the tier (records for sites,
    /// downstream frames for relays).
    pub ingested: u64,
    /// Tier-wide ingest rate per second, averaged over each node's
    /// uptime.
    pub rate_per_sec: f64,
    /// Everything the tier dropped or rejected.
    pub drops: u64,
    /// Worst export-watermark lag in the tier (seconds).
    pub max_lag_secs: u64,
    /// Export frames still awaiting acknowledgment.
    pub pending: u64,
    /// Operational events recorded across the tier.
    pub events: u64,
}

/// Folds scraped nodes into per-tier rows, sites first, then relays,
/// then the root.
pub fn aggregate(nodes: &[NodeMetrics]) -> Vec<TierRow> {
    let mut rows: Vec<TierRow> = Vec::new();
    for role in ["site", "relay", "root"] {
        let members: Vec<&NodeMetrics> = nodes.iter().filter(|n| n.role == role).collect();
        if members.is_empty() {
            continue;
        }
        let mut row = TierRow {
            role: role.to_string(),
            nodes: members.len(),
            ingested: 0,
            rate_per_sec: 0.0,
            drops: 0,
            max_lag_secs: 0,
            pending: 0,
            events: 0,
        };
        for n in members {
            let (ingested, drops) = if role == "site" {
                (
                    n.get("flowtree_ingest_records_total"),
                    n.get("flowtree_ingest_decode_errors_total")
                        + n.get("flowtree_ingest_quota_packet_drops_total")
                        + n.get("flowtree_ingest_quota_record_drops_total")
                        + n.get("flowtree_ingest_records_no_template_total")
                        + n.get("flowtree_late_drops_total")
                        + n.get("flowtree_frames_dropped_total")
                        + n.get("flowtree_spill_shed_frames_total"),
                )
            } else {
                (
                    n.get("flowtree_relay_frames_total"),
                    n.get("flowtree_relay_rejected_total")
                        + n.get("flowtree_relay_spill_sheds_total"),
                )
            };
            row.ingested += ingested as u64;
            row.drops += drops as u64;
            let uptime = n.get("flowtree_uptime_seconds").max(1.0);
            row.rate_per_sec += ingested / uptime;
            row.max_lag_secs = row
                .max_lag_secs
                .max(n.get("flowtree_export_watermark_lag_seconds") as u64);
            row.pending += n.get("flowtree_export_pending_frames") as u64;
            row.events += n.get("flowtree_events_total") as u64;
        }
        rows.push(row);
    }
    rows
}

/// Renders the aggregated fleet view as a fixed-width table.
pub fn render_table(rows: &[TierRow]) -> String {
    let mut out = String::from(
        "TIER   NODES   INGESTED     RATE/S      DROPS  MAX_LAG_S    PENDING     EVENTS\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:>5} {:>10} {:>10.1} {:>10} {:>10} {:>10} {:>10}\n",
            r.role,
            r.nodes,
            r.ingested,
            r.rate_per_sec,
            r.drops,
            r.max_lag_secs,
            r.pending,
            r.events
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP flowtree_build_info Constant 1; identity in labels.
# TYPE flowtree_build_info gauge
flowtree_build_info{role=\"site\",node=\"site3\",version=\"0.2.0\"} 1
# HELP flowtree_ingest_records_total Flow records extracted.
# TYPE flowtree_ingest_records_total counter
flowtree_ingest_records_total 400
# HELP flowtree_decode_seconds Decode latency.
# TYPE flowtree_decode_seconds histogram
flowtree_decode_seconds_bucket{le=\"0.001\"} 3
flowtree_decode_seconds_bucket{le=\"0.01\"} 5
flowtree_decode_seconds_bucket{le=\"+Inf\"} 6
flowtree_decode_seconds_sum 0.5
flowtree_decode_seconds_count 6
";

    #[test]
    fn good_page_validates_and_parses() {
        validate_exposition(GOOD).expect("valid page");
        let series = parse_series(GOOD);
        assert_eq!(series["flowtree_ingest_records_total"], 400.0);
        assert_eq!(series["flowtree_decode_seconds_count"], 6.0);
        assert!(!series.contains_key("flowtree_decode_seconds_bucket"));
    }

    #[test]
    fn missing_type_is_rejected() {
        let bad = "# HELP x_total c\nx_total 1\n";
        assert!(validate_exposition(bad).unwrap_err().contains("no # TYPE"));
    }

    #[test]
    fn missing_help_is_rejected() {
        let bad = "x_total 1\n";
        assert!(validate_exposition(bad).unwrap_err().contains("no # HELP"));
    }

    #[test]
    fn bad_name_is_rejected() {
        let bad = "# HELP bad-name c\n# TYPE bad-name counter\nbad-name 1\n";
        assert!(validate_exposition(bad)
            .unwrap_err()
            .contains("invalid metric name"));
    }

    #[test]
    fn non_cumulative_buckets_are_rejected() {
        let bad = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"1\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 5
";
        assert!(validate_exposition(bad)
            .unwrap_err()
            .contains("not cumulative"));
    }

    #[test]
    fn inf_bucket_must_equal_count() {
        let bad = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"1\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1
h_count 4
";
        assert!(validate_exposition(bad).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn labeled_series_sum_in_the_fleet_view() {
        let page = "\
# HELP c_total c
# TYPE c_total counter
c_total{k=\"a\"} 2
c_total{k=\"b\"} 3
";
        validate_exposition(page).expect("valid");
        assert_eq!(parse_series(page)["c_total"], 5.0);
    }

    #[test]
    fn aggregate_folds_tiers_and_tracks_max_lag() {
        let mk = |role: &str, node: &str, series: &[(&str, f64)]| NodeMetrics {
            addr: "127.0.0.1:1".into(),
            role: role.into(),
            node: node.into(),
            version: "0.2.0".into(),
            series: series.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        let nodes = vec![
            mk(
                "site",
                "site0",
                &[
                    ("flowtree_ingest_records_total", 100.0),
                    ("flowtree_uptime_seconds", 10.0),
                    ("flowtree_ingest_decode_errors_total", 2.0),
                    // The site shipper's spill shed frames in an outage.
                    ("flowtree_spill_shed_frames_total", 3.0),
                ],
            ),
            mk(
                "site",
                "site1",
                &[
                    ("flowtree_ingest_records_total", 300.0),
                    ("flowtree_uptime_seconds", 10.0),
                ],
            ),
            mk(
                "relay",
                "west",
                &[
                    ("flowtree_relay_frames_total", 40.0),
                    ("flowtree_export_watermark_lag_seconds", 7.0),
                    ("flowtree_export_pending_frames", 3.0),
                    ("flowtree_uptime_seconds", 10.0),
                ],
            ),
            mk(
                "root",
                "root",
                &[
                    ("flowtree_relay_frames_total", 40.0),
                    ("flowtree_uptime_seconds", 10.0),
                ],
            ),
        ];
        let rows = aggregate(&nodes);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].role, "site");
        assert_eq!(rows[0].nodes, 2);
        assert_eq!(rows[0].ingested, 400);
        assert_eq!(rows[0].drops, 5);
        assert!((rows[0].rate_per_sec - 40.0).abs() < 1e-9);
        assert_eq!(rows[1].role, "relay");
        assert_eq!(rows[1].max_lag_secs, 7);
        assert_eq!(rows[1].pending, 3);
        let table = render_table(&rows);
        assert!(table.starts_with("TIER"));
        assert_eq!(table.lines().count(), 4);
    }
}
