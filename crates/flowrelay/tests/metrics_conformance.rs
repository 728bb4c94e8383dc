//! Observability conformance against live nodes: every `/metrics`
//! page a fleet serves must obey the Prometheus exposition rules
//! ([`flowrelay::fleetview::validate_exposition`]), the JSON stats
//! view must agree with the legacy plaintext one value for value,
//! the hot-path histograms must observe real work (export ship→ack
//! RTT, query latency), `/health` must report uptime and build
//! version, and `/events` must record operational events.

use flowdist::ops::ops_request;
use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flownet::FlowRecord;
use flowrelay::fleetview;
use flowrelay::server::query_remote;
use flowrelay::spec::FleetSpec;
use flowrelay::NodeRuntime;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::{Duration, Instant};

const SPEC: &str = "\
[defaults]
linger-ms = 100
drain-every-ms = 50
window-ms = 2000
batch = 32
stats = 127.0.0.1:0

[site 0]
upstream = leaf
[site 1]
upstream = leaf

[relay leaf]
agg-site = 1001
sites = 0,1
parent = root
[relay root]
agg-site = 2000
";

struct Fleet {
    relays: Vec<NodeRuntime>,
    sites: Vec<SiteRuntime>,
}

/// Boots sites → leaf relay → root the way `flowctl run` would, stats
/// endpoints included.
fn boot() -> Fleet {
    boot_spec(SPEC)
}

fn boot_spec(spec: &str) -> Fleet {
    let spec = FleetSpec::parse(spec).expect("spec parses");
    let relays = spec.boot_relays().expect("relays boot");
    let ingest: HashMap<String, SocketAddr> = relays
        .iter()
        .map(|rt| (rt.name().to_string(), rt.ingest_addr()))
        .collect();
    let mut sites = Vec::new();
    for s in &spec.sites {
        let mut cfg = SiteNodeConfig::new(s.site, ingest[&s.upstream].to_string());
        cfg.listen = s.listen.clone();
        cfg.stats = s.stats.clone();
        cfg.window_ms = s.window_ms;
        cfg.budget = s.budget;
        cfg.batch = s.batch;
        cfg.lanes = s.lanes;
        sites.push(SiteRuntime::start(cfg).expect("site boots"));
    }
    Fleet { relays, sites }
}

/// Deterministic traffic spanning three site windows so the first one
/// closes and ships without waiting for a drain.
fn send_traffic(sender: &UdpSocket, fleet: &Fleet, now_ms: u64, window_ms: u64, records: usize) {
    let w0 = (now_ms / window_ms).saturating_sub(3) * window_ms;
    for site in &fleet.sites {
        let recs: Vec<FlowRecord> = (0..records)
            .map(|i| {
                let widx = (i * 3 / records.max(1)) as u64;
                let ts = w0 + window_ms * widx + 10 + (i as u64 % 7);
                let mut r = FlowRecord::v4(
                    [10, site.site() as u8, (i % 200) as u8, 1],
                    [192, 0, 2, (i % 100) as u8],
                    1024 + (i % 500) as u16,
                    443,
                    6,
                    1 + (i % 5) as u64,
                    64 * (1 + (i % 5) as u64),
                );
                r.first_ms = ts;
                r.last_ms = ts;
                r
            })
            .collect();
        flowdist::net::export_netflow(sender, site.ingest_addr(), &recs, now_ms).expect("udp send");
    }
}

fn get(addr: &str, path: &str) -> (u16, String) {
    ops_request(addr, "GET", path, "").unwrap_or_else(|e| panic!("GET {path} on {addr}: {e}"))
}

/// `key value` out of a plaintext stats body.
fn stat_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?;
        rest.starts_with(' ').then(|| rest.trim())
    })
}

/// `"key": value` out of the flat stats JSON object, as raw text.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Every numeric plaintext line must appear in the JSON view with the
/// same value — the two expositions are one snapshot, not two.
fn assert_json_matches_plaintext(addr: &str) {
    let (s1, text) = get(addr, "/stats");
    let (s2, json) = get(addr, "/stats.json");
    assert_eq!((s1, s2), (200, 200), "both stats views serve on {addr}");
    let mut checked = 0;
    for line in text.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        let value = value.trim();
        if value.parse::<u64>().is_err() {
            continue; // strings and booleans render differently by design
        }
        let js = json_field(&json, key)
            .unwrap_or_else(|| panic!("{addr}: plaintext key {key} missing from JSON:\n{json}"));
        assert_eq!(js, value, "{addr}: {key} differs between views");
        checked += 1;
    }
    assert!(checked > 5, "{addr}: round-trip compared {checked} keys");
}

fn assert_health_reports_uptime_and_version(addr: &str, what: &str) {
    let (status, body) = get(addr, "/health");
    assert_eq!(status, 200, "{what} health serves");
    assert!(body.contains("ok true"), "{what} healthy: {body}");
    let uptime: u64 = stat_field(&body, "uptime_ms")
        .unwrap_or_else(|| panic!("{what} health has no uptime_ms: {body}"))
        .parse()
        .expect("uptime_ms is a number");
    let _ = uptime; // zero is legal right after boot; presence is the contract
    assert_eq!(
        stat_field(&body, "version"),
        Some(env!("CARGO_PKG_VERSION")),
        "{what} health reports the build version: {body}"
    );
}

#[test]
fn live_fleet_serves_conformant_metrics_and_matching_views() {
    let fleet = boot();
    let root = &fleet.relays[0];
    let leaf = fleet
        .relays
        .iter()
        .find(|r| r.name() == "leaf")
        .expect("leaf booted");
    let root_stats = root.stats_addr().expect("root stats").to_string();
    let leaf_stats = leaf.stats_addr().expect("leaf stats").to_string();
    let site_stats = fleet.sites[0].stats_addr().expect("site stats").to_string();

    let sender = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    send_traffic(&sender, &fleet, now_ms, 2_000, 200);

    // Wait for aggregates to reach the root, then query it once so the
    // query-latency histogram has something to show.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let m = fleetview::scrape(&root_stats).expect("root scrape");
        if m.get("flowtree_relay_frames_total") > 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "no aggregates reached the root");
        std::thread::sleep(Duration::from_millis(50));
    }
    let mut conn = TcpStream::connect(root.query_addr()).expect("connect query");
    let answer = query_remote(&mut conn, "pop")
        .expect("transport ok")
        .expect("valid query");
    assert!(answer.contains("popularity: "), "root answered: {answer}");

    // Every node: the scrape itself runs validate_exposition, so a
    // malformed page fails here. Identity comes from build_info.
    let scrape_all = || -> Vec<fleetview::NodeMetrics> {
        let mut nodes = Vec::new();
        for rt in &fleet.relays {
            nodes.push(fleetview::scrape(&rt.stats_addr().unwrap().to_string()).expect("relay"));
        }
        for site in &fleet.sites {
            nodes.push(fleetview::scrape(&site.stats_addr().unwrap().to_string()).expect("site"));
        }
        nodes
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    let nodes = loop {
        let nodes = scrape_all();
        let rtt: f64 = nodes
            .iter()
            .filter(|n| n.role == "relay")
            .map(|n| n.get("flowtree_export_rtt_seconds_count"))
            .sum();
        let queries: f64 = nodes
            .iter()
            .filter(|n| n.role == "root")
            .map(|n| n.get("flowtree_query_seconds_count"))
            .sum();
        if rtt > 0.0 && queries > 0.0 {
            break nodes;
        }
        assert!(
            Instant::now() < deadline,
            "hot-path histograms never filled: rtt={rtt} queries={queries}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(nodes.len(), 4, "two relays, two sites scraped");
    for n in &nodes {
        assert_eq!(n.version, env!("CARGO_PKG_VERSION"), "{} version", n.node);
        assert!(
            n.get("flowtree_uptime_seconds") >= 0.0,
            "{} exposes uptime",
            n.node
        );
    }
    // A root exports to nobody: it has received aggregates by now, and
    // has built no frame out of them and has no export backlog.
    let root_node = nodes.iter().find(|n| n.role == "root").expect("the root");
    assert_eq!(root_node.get("flowtree_relay_exported_total"), 0.0);
    assert_eq!(root_node.get("flowtree_export_watermark_lag_seconds"), 0.0);
    let site_node = nodes.iter().find(|n| n.role == "site").expect("a site");
    assert!(
        site_node.get("flowtree_ingest_records_total") > 0.0,
        "sites counted the records"
    );
    assert!(
        site_node.get("flowtree_decode_seconds_count") > 0.0,
        "decode latency histogram observed the packets"
    );

    // The per-tier fleet view folds all four nodes.
    let rows = fleetview::aggregate(&nodes);
    assert_eq!(rows.len(), 3, "site, relay, root tiers");
    assert!(rows[0].ingested > 0, "site tier ingested records");
    let table = fleetview::render_table(&rows);
    assert!(table.starts_with("TIER"), "table renders: {table}");

    // JSON and plaintext stats are one snapshot on every node kind.
    assert_json_matches_plaintext(&root_stats);
    assert_json_matches_plaintext(&leaf_stats);
    assert_json_matches_plaintext(&site_stats);

    // /health carries uptime and build version on both node kinds.
    assert_health_reports_uptime_and_version(&root_stats, "root");
    assert_health_reports_uptime_and_version(&site_stats, "site 0");

    // A reload is an operational event; /events must record it.
    let (status, _) =
        ops_request(&root_stats, "POST", "/reload", "linger-ms=60\n").expect("reload request");
    assert_eq!(status, 200, "reload applies");
    let (status, events) = get(&root_stats, "/events");
    assert_eq!(status, 200, "/events serves");
    assert!(
        events.lines().any(|l| l.contains("reload")),
        "reload recorded in the event ring:\n{events}"
    );

    for site in fleet.sites {
        site.drain(Duration::from_secs(30));
    }
    for rt in fleet.relays.into_iter().rev() {
        rt.drain(Duration::from_secs(30));
    }
}

/// The keys of a plaintext stats body, in order.
fn stats_keys(addr: &str) -> Vec<String> {
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200, "/stats serves on {addr}");
    body.lines()
        .map(|l| l.split_once(' ').map_or(l, |(k, _)| k).to_string())
        .collect()
}

fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// The scraped `/stats` surface, pinned key for key and in order:
/// `bench/e2e` and `flowctl` read these keys off the plaintext page,
/// so a key that moves, vanishes or is renamed breaks a scraper.
#[test]
fn stats_pages_keep_their_exact_ordered_keys() {
    let spec = SPEC.replace("[site 0]\n", "[site 0]\nlanes = 2\n");
    let fleet = boot_spec(&spec);
    let leaf = fleet.relays.iter().find(|r| r.name() == "leaf").unwrap();
    let root = fleet.relays.iter().find(|r| r.name() == "root").unwrap();
    let site = fleet.sites.iter().find(|s| s.site() == 0).unwrap();

    let mut site_keys = words(
        "role site datagrams packets decode_errors quota_packet_drops
         quota_record_drops records records_no_template templates_live
         templates_evicted templates_rejected window_sheds backpressure_waits
         exporters_tracked exporters_evicted recv_buffer_bytes late_drops
         summaries frames_sent frames_dropped reconnect_attempts
         reconnect_failures backoff_ms_total export_pending upstream_connected
         ship_enqueued ship_sent_frames ship_sent_bytes ship_acked_frames
         ship_rebase_honored ship_stall_recycles ship_handshakes
         spill_pushed_frames spill_pushed_bytes spill_acked_floor
         spill_recovered_frames spill_torn_bytes spill_io_errors
         knob_packet_rate knob_packet_burst knob_record_rate
         knob_record_burst knob_max_exporters knob_max_open_windows
         knob_pin_cores lanes merger_stale_windows",
    );
    for i in 0..2 {
        for k in words("datagrams records recv_batches backpressure_waits dead_drops pinned") {
            site_keys.push(format!("lane{i}_{k}"));
        }
    }
    site_keys.push("ship_pumps".into());
    let relay_head = words(
        "role name agg_site mode linger_ms retention_ms drain_every_ms max_bases
         journal_degraded frames site_frames agg_frames rejected replayed exported
         exported_bytes full_exports delta_exports delta_fallbacks base_losses
         late_downstream rebase_requests rebase_rewinds reconnect_attempts
         reconnect_failures backoff_ms_total spill_sheds spill_shed_bytes
         export_pending upstream_connected",
    );
    let shipper = words(
        "ship_enqueued ship_sent_frames ship_sent_bytes ship_acked_frames
         ship_rebase_honored ship_stall_recycles ship_handshakes
         spill_pushed_frames spill_pushed_bytes spill_acked_floor
         spill_recovered_frames spill_torn_bytes spill_io_errors",
    );
    let relay_tail = words(
        "stored_windows export_watermark_lag_ms export_pending_bytes max_base_nodes
         view_hits view_extends view_delta_extends view_rebuilds view_evictions
         view_cached_nodes view_relayouts sched_passes",
    );
    let leaf_keys = [&relay_head[..], &shipper, &relay_tail].concat();
    let root_keys = [&relay_head[..], &relay_tail].concat();

    assert_eq!(
        stats_keys(&site.stats_addr().unwrap().to_string()),
        site_keys
    );
    assert_eq!(
        stats_keys(&leaf.stats_addr().unwrap().to_string()),
        leaf_keys
    );
    assert_eq!(
        stats_keys(&root.stats_addr().unwrap().to_string()),
        root_keys
    );

    for site in fleet.sites {
        site.drain(Duration::from_secs(5));
    }
    for rt in fleet.relays.into_iter().rev() {
        rt.drain(Duration::from_secs(5));
    }
}
