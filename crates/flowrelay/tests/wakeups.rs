//! What an idle fleet costs, and how promptly it stops.
//!
//! Every fleet control thread sleeps until an event or a deadline its
//! state computes: a quiet fleet runs no export-scheduler pass and no
//! shipper pump at all (`sched_passes`, `ship_pumps` on `/stats`).
//! Listeners park in a blocking `accept`, so stopping a node wakes
//! them with a loopback connection — on a wildcard or IPv6 bind as
//! well — and drain and shutdown return promptly with every port free
//! to bind again.

use flowdist::ops::ops_request;
use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flownet::FlowRecord;
use flowrelay::spec::FleetSpec;
use flowrelay::{NodeConfig, NodeRuntime};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::time::{Duration, Instant};

const SPEC: &str = "\
[defaults]
linger-ms = 50
drain-every-ms = 10
window-ms = 1000
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

/// How long a stop or drain of a quiet node may take.
const PROMPT: Duration = Duration::from_secs(2);

struct Fleet {
    relays: Vec<NodeRuntime>,
    sites: Vec<SiteRuntime>,
}

fn boot() -> Fleet {
    let spec = FleetSpec::parse(SPEC).expect("spec parses");
    let relays = spec.boot_relays().expect("relays boot");
    let ingest: HashMap<String, SocketAddr> = relays
        .iter()
        .map(|rt| (rt.name().to_string(), rt.ingest_addr()))
        .collect();
    let sites = spec
        .sites
        .iter()
        .map(|s| {
            let mut cfg = SiteNodeConfig::new(s.site, ingest[&s.upstream].to_string());
            cfg.stats = s.stats.clone();
            cfg.window_ms = s.window_ms;
            cfg.batch = s.batch;
            SiteRuntime::start(cfg).expect("site boots")
        })
        .collect();
    Fleet { relays, sites }
}

/// Records over three site windows ending just behind the wall clock:
/// the oldest window closes at each site and climbs to the root.
fn send_traffic(fleet: &Fleet) {
    let sender = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    let now_ms = flowdist::epoch_ms();
    let w0 = (now_ms / 1_000).saturating_sub(3) * 1_000;
    for site in &fleet.sites {
        let recs: Vec<FlowRecord> = (0..60u64)
            .map(|i| {
                let mut r = FlowRecord::v4(
                    [10, site.site() as u8, i as u8, 1],
                    [192, 0, 2, 1],
                    1024,
                    443,
                    6,
                    1,
                    64,
                );
                r.first_ms = w0 + (i / 20) * 1_000 + 10;
                r.last_ms = r.first_ms;
                r
            })
            .collect();
        flowdist::net::export_netflow(&sender, site.ingest_addr(), &recs, now_ms)
            .expect("udp send");
    }
}

fn stat(addr: &str, key: &str) -> u64 {
    let (status, body) = ops_request(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{addr}: no {key} in\n{body}"))
        .trim()
        .parse()
        .expect("numeric stat")
}

/// Every node's wakeup counter: `sched_passes` on relays, `ship_pumps`
/// on sites.
fn wakeups(fleet: &Fleet) -> Vec<u64> {
    let relays = fleet
        .relays
        .iter()
        .map(|r| stat(&r.stats_addr().unwrap().to_string(), "sched_passes"));
    let sites = fleet
        .sites
        .iter()
        .map(|s| stat(&s.stats_addr().unwrap().to_string(), "ship_pumps"));
    relays.chain(sites).collect()
}

#[test]
fn a_quiet_fleet_does_not_wake() {
    let fleet = boot();
    send_traffic(&fleet);
    let root = fleet.relays.iter().find(|r| r.name() == "root").unwrap();
    let root_stats = root.stats_addr().unwrap().to_string();
    // Work happens: both sites' first windows reach the root, every
    // shipper is acked, and the counters stop moving.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = wakeups(&fleet);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let pending: u64 = fleet
            .relays
            .iter()
            .filter(|r| r.has_upstream())
            .map(|r| r.pending_len() as u64)
            .chain(
                fleet
                    .sites
                    .iter()
                    .map(|s| stat(&s.stats_addr().unwrap().to_string(), "export_pending")),
            )
            .sum();
        let now = wakeups(&fleet);
        if stat(&root_stats, "frames") > 0 && pending == 0 && now == last {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the fleet never went quiet: wakeups {last:?} → {now:?}, pending {pending}"
        );
        last = now;
    }
    assert!(
        last.iter().all(|&n| n > 0),
        "every node woke for the traffic: {last:?}"
    );
    // Quiet now: 300 ms without one scheduler pass or shipper pump (a
    // 10 ms tick would have run about 30 passes per relay).
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(wakeups(&fleet), last, "a quiet fleet woke up");

    for site in fleet.sites {
        let report = site.drain(Duration::from_secs(10));
        assert_eq!(report.pending_at_exit, 0);
    }
    for rt in fleet.relays.into_iter().rev() {
        let report = rt.drain(Duration::from_secs(10));
        assert_eq!(report.pending_at_exit, 0);
    }
}

/// Binds must succeed again on every address a stopped node held.
fn assert_tcp_free(addrs: &[SocketAddr]) {
    for a in addrs {
        let rebind = TcpListener::bind(a);
        assert!(rebind.is_ok(), "port {a} not freed: {rebind:?}");
    }
}

fn node_on(name: &str, ingest: &str, query: &str, stats: &str) -> NodeRuntime {
    let mut cfg = NodeConfig::new(name);
    cfg.ingest = ingest.into();
    cfg.query = query.into();
    cfg.stats = Some(stats.into());
    NodeRuntime::start(cfg).expect("node boots")
}

fn addrs_of(n: &NodeRuntime) -> Vec<SocketAddr> {
    vec![n.ingest_addr(), n.query_addr(), n.stats_addr().unwrap()]
}

/// Loopback, wildcard and IPv6 listeners all wake on stop.
#[test]
fn drain_and_shutdown_are_prompt_and_free_every_port() {
    for (ingest, query, stats) in [
        ("127.0.0.1:0", "0.0.0.0:0", "[::1]:0"),
        ("[::1]:0", "127.0.0.1:0", "0.0.0.0:0"),
        ("0.0.0.0:0", "[::1]:0", "127.0.0.1:0"),
    ] {
        let node = node_on("drained", ingest, query, stats);
        let addrs = addrs_of(&node);
        let t = Instant::now();
        let report = node.drain(Duration::from_secs(5));
        assert!(t.elapsed() < PROMPT, "drain took {:?}", t.elapsed());
        assert_eq!(report.pending_at_exit, 0);
        assert_tcp_free(&addrs);

        let node = node_on("shut", ingest, query, stats);
        let addrs = addrs_of(&node);
        let t = Instant::now();
        node.shutdown();
        assert!(t.elapsed() < PROMPT, "shutdown took {:?}", t.elapsed());
        assert_tcp_free(&addrs);
    }
}

#[test]
fn site_drain_is_prompt_and_frees_its_ports() {
    let relay = node_on("up", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0");
    for stats in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0"] {
        let mut cfg = SiteNodeConfig::new(0, relay.ingest_addr().to_string());
        cfg.stats = Some(stats.into());
        let site = SiteRuntime::start(cfg).expect("site boots");
        let (udp, tcp) = (site.ingest_addr(), site.stats_addr().unwrap());
        let t = Instant::now();
        let report = site.drain(Duration::from_secs(5));
        assert!(t.elapsed() < PROMPT, "site drain took {:?}", t.elapsed());
        assert_eq!(report.pending_at_exit, 0);
        assert_tcp_free(&[tcp]);
        assert!(UdpSocket::bind(udp).is_ok(), "UDP port {udp} not freed");
    }
    relay.shutdown();
}

/// A v3 export frame of `bytes` bytes: a real header, then padding the
/// shipper never looks at (it tracks frames by header alone).
fn padded_export(bytes: usize) -> Vec<u8> {
    use flowdist::{EpochHeader, Lineage, Summary, SummaryKind, WindowId};
    let tree = flowtree_core::FlowTree::new(
        flowkey::Schema::five_feature(),
        flowtree_core::Config::with_budget(64),
    );
    let lineage = Lineage {
        provenance: vec![0],
        epoch: EpochHeader {
            epoch: 1,
            base: None,
        },
    };
    let summary = Summary {
        site: 1_000,
        window: WindowId {
            start_ms: 0,
            span_ms: 1_000,
        },
        seq: 1,
        kind: SummaryKind::Full,
        lineage: Some(lineage),
        tree,
    };
    let mut frame = summary.encode();
    frame.resize(bytes, 0);
    frame
}

/// An upstream that answers each hello and then never reads: once the
/// loopback buffers fill, the relay's shipper is stuck in a write.
/// `/stats` still answers at once, and a drain returns within its
/// deadline plus the ack stall.
#[test]
fn a_wedged_upstream_blocks_neither_stats_nor_drain() {
    stuck_upstream_blocks_neither_stats_nor_drain(false);
}

/// An upstream that keeps reading, but slowly: no write ever waits an
/// ack stall, yet the backlog would take a minute to send. A drain
/// still returns within its deadline plus the ack stall.
#[test]
fn a_trickling_upstream_blocks_neither_stats_nor_drain() {
    stuck_upstream_blocks_neither_stats_nor_drain(true);
}

/// The upstream of the two tests above: it answers each hello, then
/// reads nothing, or (`trickle`) 16 KiB every 20 ms.
fn stuck_upstream_blocks_neither_stats_nor_drain(trickle: bool) {
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let upstream = listener.local_addr().expect("addr");
    let (hello_tx, hello_rx) = mpsc::channel();
    let done = Arc::new(AtomicBool::new(false));
    let wedged = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let mut conn = conn.expect("accept");
                let _ = flowdist::framing::read_frame(&mut conn);
                let hello = flowdist::ControlFrame::Hello {
                    features: flowdist::FEATURE_ACKS,
                };
                let _ = flowdist::framing::write_frame(&mut conn, &hello.encode());
                let _ = hello_tx.send(());
                let done = Arc::clone(&done);
                held.push(std::thread::spawn(move || {
                    let mut buf = vec![0u8; 16 << 10];
                    while !done.load(Ordering::SeqCst) {
                        if trickle && matches!(conn.read(&mut buf), Ok(0) | Err(_)) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }));
            }
            for reader in held {
                reader.join().expect("upstream reader");
            }
        })
    };

    // 48 MiB of pending exports: more than the loopback send and
    // receive buffers hold.
    let dir =
        std::env::temp_dir().join(format!("flowrelay-stuck-{trickle}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spill_cfg = flowdist::SpillConfig {
        max_bytes: 0,
        ..flowdist::SpillConfig::default()
    };
    let mut spill = flowdist::SpillQueue::open(&dir.join("spill"), spill_cfg).expect("spill");
    let frame = padded_export(1 << 20);
    for _ in 0..48 {
        spill.push(frame.clone());
    }
    drop(spill);

    let mut cfg = NodeConfig::new("wedged");
    cfg.stats = Some("127.0.0.1:0".into());
    cfg.upstream = Some(upstream.to_string());
    cfg.state_dir = Some(dir.clone());
    cfg.drain_every_ms = 10;
    cfg.ack_stall_ms = 3_000;
    let node = NodeRuntime::start(cfg).expect("node boots");
    let stats = node.stats_addr().expect("stats").to_string();
    hello_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the shipper connects");
    // Let the shipper fill the buffers and block.
    std::thread::sleep(Duration::from_millis(300));

    let (tx, rx) = mpsc::channel();
    let scrape = std::thread::spawn(move || {
        let _ = tx.send(stat(&stats, "export_pending"));
    });
    let scraped = rx.recv_timeout(Duration::from_secs(1));
    let (tx, rx) = mpsc::channel();
    let drainer = std::thread::spawn(move || {
        let _ = tx.send(node.drain(Duration::from_secs(1)).pending_at_exit);
    });
    let drained = rx.recv_timeout(Duration::from_millis(4_500));
    // Release the upstream before judging, so a failure cannot hang.
    done.store(true, Ordering::SeqCst);
    let _ = std::net::TcpStream::connect(upstream);
    wedged.join().expect("wedged upstream");
    let scrape = scrape.join();
    drainer.join().expect("drain");
    assert_eq!(scraped, Ok(48), "/stats waited on the stuck shipper");
    assert!(scrape.is_ok(), "the scrape failed");
    assert_eq!(
        drained,
        Ok(48),
        "drain(1 s) with a 3 s stall took over 4.5 s (trickle: {trickle})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
