//! Fleet-launcher end-to-end coverage: a spec-booted fleet must be
//! indistinguishable from hand-wired runtimes, `flowctl`'s own
//! subcommands must work against the checked-in example spec, and
//! spawn mode must supervise a `kill -9`'d relay back to life on its
//! pinned ports with its journaled state intact.

use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flownet::FlowRecord;
use flowrelay::server::query_remote;
use flowrelay::spec::FleetSpec;
use flowrelay::{NodeConfig, NodeRuntime};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Path of the checked-in example spec (tests run with the crate as
/// cwd; the spec lives at the workspace root).
fn example_spec() -> String {
    format!("{}/../../examples/fleet.spec", env!("CARGO_MANIFEST_DIR"))
}

// ---------------------------------------------------------------------------
// Library-level: spec boot ≡ manual wiring
// ---------------------------------------------------------------------------

/// A whole in-process fleet, booted exactly the way `flowctl run`
/// boots one: relays root-first (each child's upstream resolved to its
/// parent's concrete ingest port, coverage = whole subtree), sites
/// last.
struct Fleet {
    relays: Vec<NodeRuntime>,
    sites: Vec<SiteRuntime>,
}

impl Fleet {
    fn from_spec(spec: &FleetSpec) -> Fleet {
        let relays = spec.boot_relays().expect("relays boot");
        let ingest: HashMap<String, SocketAddr> = relays
            .iter()
            .map(|rt| (rt.name().to_string(), rt.ingest_addr()))
            .collect();
        let mut sites = Vec::new();
        for s in &spec.sites {
            let mut cfg = SiteNodeConfig::new(s.site, ingest[&s.upstream].to_string());
            cfg.listen = s.listen.clone();
            cfg.window_ms = s.window_ms;
            cfg.budget = s.budget;
            cfg.batch = s.batch;
            sites.push(SiteRuntime::start(cfg).expect("site boots"));
        }
        Fleet { relays, sites }
    }

    fn root(&self) -> &NodeRuntime {
        &self.relays[0]
    }
}

/// Deterministic UDP traffic spanning three site windows (the site
/// daemon keeps two windows open, so the first only closes — and
/// ships — once event time reaches the third). Event times anchor
/// just behind the wall clock: relays evict windows older than their
/// retention horizon, which is measured against real time.
fn send_traffic(sender: &UdpSocket, fleet: &Fleet, now_ms: u64, window_ms: u64, records: usize) {
    let w0 = (now_ms / window_ms).saturating_sub(3) * window_ms;
    for site in &fleet.sites {
        let recs: Vec<FlowRecord> = (0..records)
            .map(|i| {
                let widx = (i * 3 / records.max(1)) as u64;
                let ts = w0 + window_ms * widx + 10 + (i as u64 % 7);
                let mut r = FlowRecord::v4(
                    [10, (site.site() % 250) as u8, (i % 200) as u8, 1],
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
        // base_ms must sit at or after every record timestamp: v5
        // carries times as sysuptime offsets *behind* it.
        flowdist::net::export_netflow(sender, site.ingest_addr(), &recs, now_ms).expect("udp send");
    }
}

fn pop(addr: SocketAddr) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect query");
    query_remote(&mut conn, "pop")
        .expect("transport ok")
        .expect("valid query")
}

const SPEC: &str = "\
[defaults]
linger-ms = 100
drain-every-ms = 50
window-ms = 2000
batch = 32

[site 0]
upstream = west
[site 1]
upstream = west
[site 2]
upstream = east
[site 3]
upstream = east

[relay west]
agg-site = 1001
sites = 0,1
parent = root
[relay east]
agg-site = 1002
sites = 2,3
parent = root
[relay root]
agg-site = 2000
";

/// The launcher's promise: booting from a spec answers queries
/// identically to wiring the same topology by hand.
#[test]
fn spec_booted_fleet_answers_identically_to_manual_wiring() {
    let spec = FleetSpec::parse(SPEC).expect("spec parses");
    let spec_fleet = Fleet::from_spec(&spec);

    // The same tree, wired by hand with explicit NodeConfigs.
    let manual_fleet = {
        let mut root = NodeConfig::new("root".to_string());
        root.agg_site = 2000;
        root.sites = vec![0, 1, 2, 3];
        root.linger_ms = 100;
        root.drain_every_ms = 50;
        let root_rt = NodeRuntime::start(root).expect("manual root boots");
        let mut relays = vec![];
        let mut site_upstreams = HashMap::new();
        for (name, agg, sites) in [("west", 1001, vec![0u16, 1]), ("east", 1002, vec![2, 3])] {
            let mut n = NodeConfig::new(name.to_string());
            n.agg_site = agg;
            n.sites = sites.clone();
            n.linger_ms = 100;
            n.drain_every_ms = 50;
            n.upstream = Some(root_rt.ingest_addr().to_string());
            let rt = NodeRuntime::start(n).expect("manual leaf boots");
            for s in sites {
                site_upstreams.insert(s, rt.ingest_addr());
            }
            relays.push(rt);
        }
        relays.insert(0, root_rt);
        let mut sites = vec![];
        for id in 0..4u16 {
            let mut cfg = SiteNodeConfig::new(id, site_upstreams[&id].to_string());
            cfg.window_ms = 2_000;
            cfg.batch = 32;
            sites.push(SiteRuntime::start(cfg).expect("manual site boots"));
        }
        Fleet { relays, sites }
    };

    let sender = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    // One shared time anchor: both fleets must see records in the
    // *same* absolute windows or their answers could legitimately
    // differ across a window boundary.
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    send_traffic(&sender, &spec_fleet, now_ms, 2_000, 300);
    send_traffic(&sender, &manual_fleet, now_ms, 2_000, 300);

    // Both roots converge on the same non-empty answer.
    let deadline = Instant::now() + Duration::from_secs(60);
    let (a, b) = loop {
        let a = pop(spec_fleet.root().query_addr());
        let b = pop(manual_fleet.root().query_addr());
        if a == b && a.contains("popularity: ") && !a.contains("popularity: 0 packets") {
            break (a, b);
        }
        assert!(
            Instant::now() < deadline,
            "fleets never converged; spec fleet:\n{a}\nmanual fleet:\n{b}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(a, b, "identical traffic, identical answers");
    assert!(a.starts_with("route: root"), "the root answers: {a}");

    // Both fleets drain leaves-first without abandoning anything.
    for fleet in [spec_fleet, manual_fleet] {
        for site in fleet.sites {
            let report = site.drain(Duration::from_secs(30));
            assert_eq!(report.pending_at_exit, 0, "site flushed everything");
        }
        for rt in fleet.relays.into_iter().rev() {
            let name = rt.name().to_string();
            let report = rt.drain(Duration::from_secs(30));
            assert_eq!(
                report.pending_at_exit, 0,
                "relay {name} flushed every pending export"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Binary: check + smoke against the checked-in example spec
// ---------------------------------------------------------------------------

#[test]
fn flowctl_check_validates_the_example_spec_and_rejects_broken_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_flowctl"))
        .args(["check", &example_spec()])
        .output()
        .expect("run flowctl check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check accepts the example: {stdout}");
    assert!(
        stdout.contains("spec ok: 3 relays, 4 sites"),
        "check describes the tree: {stdout}"
    );

    // A site pointing at a relay that does not own it must be refused.
    let bad = std::env::temp_dir().join(format!("bad-fleet-{}.spec", std::process::id()));
    std::fs::write(
        &bad,
        "[site 7]\nupstream = west\n[relay west]\nagg-site = 1001\nsites = 0,1\n",
    )
    .expect("write bad spec");
    let out = Command::new(env!("CARGO_BIN_EXE_flowctl"))
        .args(["check", bad.to_str().unwrap()])
        .output()
        .expect("run flowctl check");
    assert!(
        !out.status.success(),
        "an incoherent spec must fail check: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn flowctl_smoke_boots_ingests_queries_reloads_and_drains() {
    let out = Command::new(env!("CARGO_BIN_EXE_flowctl"))
        .args(["smoke", &example_spec(), "--records", "200"])
        .output()
        .expect("run flowctl smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "smoke exits clean:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("flowctl smoke: ok"),
        "smoke reports success: {stdout}"
    );
    assert!(
        stdout.contains("reload=applied"),
        "smoke exercised a live reload: {stdout}"
    );
}

// ---------------------------------------------------------------------------
// Binary: spawn-mode supervision across kill -9
// ---------------------------------------------------------------------------

/// Collects a child stream's lines so the test can poll for markers
/// without ever blocking the child on a full pipe.
fn collect_lines(reader: impl std::io::Read + Send + 'static) -> Arc<Mutex<Vec<String>>> {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    std::thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        let mut line = String::new();
        while let Ok(n) = reader.read_line(&mut line) {
            if n == 0 {
                break;
            }
            sink.lock()
                .expect("line sink")
                .push(line.trim_end().to_string());
            line.clear();
        }
    });
    lines
}

/// Waits until some collected line satisfies `pred`, returning it.
fn await_line(lines: &Arc<Mutex<Vec<String>>>, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(hit) = lines
            .lock()
            .expect("line sink")
            .iter()
            .find(|l| pred(l))
            .cloned()
        {
            return hit;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; saw:\n{}",
            lines.lock().expect("line sink").join("\n")
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Grabs `key=value`'s value out of a launcher status line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key).and_then(|w| w.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= in: {line}"))
}

#[test]
fn flowctl_spawn_mode_restarts_a_killed_relay_and_recovers_its_state() {
    use flowdist::{Summary, WindowId};
    use flowkey::{FlowKey, Schema};
    use flowrelay::server::ship_summaries;
    use flowtree_core::{Config, FlowTree, Popularity};

    let state = std::env::temp_dir().join(format!("flowctl-spawn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let spec_path = state.join("fleet.spec");
    std::fs::create_dir_all(&state).expect("state dir");
    std::fs::write(
        &spec_path,
        format!(
            "[defaults]\nlinger-ms = 0\ndrain-every-ms = 50\nstate-root = {}\n\n\
             [relay west]\nagg-site = 1001\nsites = 0,1\nparent = root\n\n\
             [relay root]\nagg-site = 2000\n",
            state.display()
        ),
    )
    .expect("write spec");

    let mut ctl = Command::new(env!("CARGO_BIN_EXE_flowctl"))
        .args([
            "run",
            spec_path.to_str().unwrap(),
            "--spawn",
            "--relayd",
            env!("CARGO_BIN_EXE_relayd"),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn flowctl");
    let stdout = collect_lines(ctl.stdout.take().expect("piped stdout"));
    let stderr = collect_lines(ctl.stderr.take().expect("piped stderr"));

    let west = await_line(&stdout, "west's announce line", |l| {
        l.starts_with("flowctl: relay west ")
    });
    let west_ingest = field(&west, "ingest").to_string();
    let west_query: SocketAddr = field(&west, "query").parse().expect("query addr");
    let west_pid = field(&west, "pid").to_string();
    await_line(&stdout, "fleet up", |l| l.contains("fleet up"));

    // Ship two site windows into west (a minute old, so the linger-0
    // scheduler exports them upstream immediately — and journals them).
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let window = WindowId::containing(now_ms - 60_000, 1_000);
    let summaries: Vec<Summary> = [0u16, 1]
        .into_iter()
        .map(|site| {
            let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
            for h in 0..4u8 {
                let key: FlowKey = format!(
                    "src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp"
                )
                .parse()
                .unwrap();
                tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
            }
            Summary::site_full(site, window, 1, tree)
        })
        .collect();
    let mut conn = TcpStream::connect(&west_ingest).expect("connect west ingest");
    ship_summaries(&mut conn, &summaries).expect("ship");
    drop(conn);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = pop(west_query);
        if body.contains("popularity: 20 packets") {
            break;
        }
        assert!(Instant::now() < deadline, "west never ingested: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // SIGKILL the child out from under its supervisor.
    let killed = Command::new("kill")
        .args(["-9", &west_pid])
        .status()
        .expect("run kill");
    assert!(killed.success(), "kill -9 {west_pid}");
    await_line(&stderr, "the supervisor's restart notice", |l| {
        l.contains("relay west restarted")
    });

    // The restarted child came back on its pinned ports and replayed
    // its journal: the pre-crash windows must answer again.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut conn) = TcpStream::connect(west_query) {
            if let Ok(Ok(body)) = query_remote(&mut conn, "pop") {
                if body.contains("popularity: 20 packets") {
                    break;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "restarted west never recovered its windows"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful teardown: `drain` drains leaves-first and exits 0.
    let mut stdin = ctl.stdin.take().expect("piped stdin");
    writeln!(stdin, "drain").expect("send drain");
    drop(stdin);
    let status = ctl.wait().expect("flowctl exits");
    assert!(status.success(), "drain teardown exits clean: {status:?}");
    await_line(&stdout, "fleet down", |l| l.contains("fleet down"));
    let _ = std::fs::remove_dir_all(&state);
}
