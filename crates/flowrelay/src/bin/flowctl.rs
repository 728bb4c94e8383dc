//! `flowctl` — boot and supervise a whole Flowtree fleet from one
//! declarative spec file.
//!
//! Where `relayd` runs *one* aggregation node, `flowctl` reads a
//! [`flowrelay::spec::FleetSpec`] (sites, relays, ports, retention,
//! export modes — see that module for the format) and stands up the
//! entire site→relay→root tree:
//!
//! * **`flowctl check fleet.spec`** — parse and validate, print the
//!   tiers, touch nothing.
//! * **`flowctl run fleet.spec`** — boot every node in this process
//!   (threads). Relays start root-first so a child can resolve its
//!   parent's `:0` ingest bind to a concrete port; sites boot last.
//!   Commands arrive on stdin (`status`, `reload <relay|all> k=v …`,
//!   `drain`); EOF drains too, so killing the terminal tears the
//!   fleet down gracefully.
//! * **`flowctl run fleet.spec --spawn`** — relays run as `relayd`
//!   child *processes* (`--stdin-control`), supervised: a crashed
//!   child is restarted on its pinned ports and recovers through its
//!   journal and export spill; downstream peers just reconnect. Sites
//!   stay in-process.
//! * **`flowctl smoke fleet.spec`** — CI's end-to-end probe: boot the
//!   fleet, push deterministic records at every site over UDP, wait
//!   for aggregates to reach the root, query it, exercise every stats
//!   endpoint and a live reload, then drain. Prints
//!   `flowctl smoke: ok …` on success and exits nonzero otherwise.
//!
//! A drain is ordered leaves-first: sites flush their open windows to
//! the leaf relays, each tier flushes its pending exports to its
//! parent through the acknowledged shipper, and the root simply
//! stops. Nothing acknowledged is ever dropped; anything a dead
//! upstream refused stays in that node's spill for the next boot.

use flowdist::ops::ops_request;
use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flowrelay::cli::{log, Args};
use flowrelay::spec::{FleetSpec, SiteSpec};
use flowrelay::{ExportMode, NodeRuntime};
use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const HELP: &str = "\
flowctl — declarative Flowtree fleet launcher

USAGE:
    flowctl check <spec>             validate a fleet spec, print the tiers
    flowctl run <spec> [--spawn]     boot the fleet; stdin commands:
                                     status | top | reload <relay|all> k=v …
                                     | drain (EOF drains)
    flowctl smoke <spec>             boot, ingest, query, scrape, reload, drain
    flowctl top <spec>               scrape /metrics on a *running* fleet's
                                     pinned stats ports, print the per-tier view
    flowctl scrape <spec>            scrape and conformance-check /metrics on
                                     every node, one line per node

FLAGS:
    --spawn               run relays as supervised relayd child processes
                          (crash-restart on pinned ports); sites stay in-process
    --relayd PATH         relayd binary for --spawn  [default: next to flowctl]
    --drain-deadline-ms N per-node drain flush bound  [default: 10000]
    --records N           records per site for smoke  [default: 400]
    --help                print this help
";

fn fail(msg: impl core::fmt::Display) -> ! {
    eprintln!("flowctl: {msg}");
    std::process::exit(1);
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.has("help") {
        print!("{HELP}");
        return;
    }
    let pos = args.positional(&["relayd", "drain-deadline-ms", "records"]);
    let (cmd, spec_path) = match pos.as_slice() {
        [cmd, path, ..] => (*cmd, *path),
        _ => fail(format_args!("usage error\n{HELP}")),
    };
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {spec_path}: {e}")));
    let spec = FleetSpec::parse(&text).unwrap_or_else(|e| fail(format_args!("{spec_path}: {e}")));
    let deadline = Duration::from_millis(args.num("drain-deadline-ms", 10_000));
    match cmd {
        "check" => check(&spec),
        "run" => run(&spec, &args, deadline),
        "smoke" => smoke(&spec, args.num("records", 400usize), deadline),
        "top" => fleet_top(&spec),
        "scrape" => fleet_scrape(&spec),
        other => fail(format_args!("unknown command {other}\n{HELP}")),
    }
}

fn check(spec: &FleetSpec) {
    // parse() already validated; describe the tree.
    let topo = spec.topology();
    for (i, r) in topo.relays.iter().enumerate() {
        println!(
            "relay {} depth={} agg-site={} direct-sites={:?} coverage={}",
            r.name,
            topo.depth_of(i),
            r.agg_site,
            r.sites,
            topo.coverage(i).len()
        );
    }
    for s in &spec.sites {
        println!("site {} -> relay {}", s.site, s.upstream);
    }
    println!(
        "spec ok: {} relays, {} sites, boot order {:?}",
        spec.relays.len(),
        spec.sites.len(),
        spec.boot_order()
    );
}

// ---------------------------------------------------------------------------
// Fleet-wide metrics: top / scrape
// ---------------------------------------------------------------------------

/// Stats addresses the spec pins, labelled for error messages. `:0`
/// binds are skipped with a note — those ports only resolve inside a
/// running `flowctl run` process (use its `top` stdin command there).
fn spec_stats_addrs(spec: &FleetSpec) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut take = |label: String, addr: Option<&String>| match addr {
        Some(a) => {
            let unresolved = a
                .parse::<SocketAddr>()
                .map(|sa| sa.port() == 0)
                .unwrap_or_else(|_| a.ends_with(":0"));
            if unresolved {
                log(format_args!(
                    "flowctl: skipping {label}: stats bind {a} resolves only at runtime"
                ));
            } else {
                out.push((label, a.clone()));
            }
        }
        None => log(format_args!("flowctl: skipping {label}: no stats endpoint")),
    };
    for r in &spec.relays {
        take(format!("relay {}", r.node.name), r.node.stats.as_ref());
    }
    for s in &spec.sites {
        take(format!("site {}", s.site), s.stats.as_ref());
    }
    out
}

/// Scrapes every pinned stats endpoint of a running fleet; any
/// unreachable or non-conformant node is fatal (both commands exist
/// to catch exactly that).
fn scrape_fleet_spec(spec: &FleetSpec) -> Vec<flowrelay::fleetview::NodeMetrics> {
    let addrs = spec_stats_addrs(spec);
    if addrs.is_empty() {
        fail(
            "no scrapeable stats endpoints in the spec — pin stats ports, \
             or use the `top` stdin command under `flowctl run`",
        );
    }
    let mut nodes = Vec::new();
    for (label, addr) in addrs {
        match flowrelay::fleetview::scrape(&addr) {
            Ok(n) => nodes.push(n),
            Err(e) => fail(format_args!("{label}: {e}")),
        }
    }
    nodes
}

fn fleet_top(spec: &FleetSpec) {
    let nodes = scrape_fleet_spec(spec);
    let rows = flowrelay::fleetview::aggregate(&nodes);
    print!("{}", flowrelay::fleetview::render_table(&rows));
}

fn fleet_scrape(spec: &FleetSpec) {
    let nodes = scrape_fleet_spec(spec);
    for n in &nodes {
        println!(
            "ok {} {} addr={} version={} series={}",
            n.role,
            n.node,
            n.addr,
            n.version,
            n.series.len()
        );
    }
    println!("scraped {} nodes, exposition valid on all", nodes.len());
}

// ---------------------------------------------------------------------------
// In-process fleet (threads)
// ---------------------------------------------------------------------------

/// The whole fleet running in this process: relays in boot order
/// (root first), sites after.
struct ThreadFleet {
    relays: Vec<NodeRuntime>,
    sites: Vec<SiteRuntime>,
}

impl ThreadFleet {
    fn boot(spec: &FleetSpec) -> Result<ThreadFleet, String> {
        // `boot_relays` owns the wiring rules (subtree coverage,
        // resolved parent addresses); this shell only narrates.
        let relays = spec.boot_relays().map_err(|e| e.to_string())?;
        let mut ingest_addrs: HashMap<String, SocketAddr> = HashMap::new();
        for rt in &relays {
            ingest_addrs.insert(rt.name().to_string(), rt.ingest_addr());
            println!(
                "flowctl: relay {} ingest={} query={} stats={}",
                rt.name(),
                rt.ingest_addr(),
                rt.query_addr(),
                rt.stats_addr().map(|a| a.to_string()).unwrap_or_default()
            );
        }
        let mut sites = Vec::new();
        for s in &spec.sites {
            let cfg = site_config(s, ingest_addrs[&s.upstream]);
            let rt = SiteRuntime::start(cfg).map_err(|e| format!("site {}: {e}", s.site))?;
            println!(
                "flowctl: site {} listen={} stats={}",
                s.site,
                rt.ingest_addr(),
                rt.stats_addr().map(|a| a.to_string()).unwrap_or_default()
            );
            sites.push(rt);
        }
        Ok(ThreadFleet { relays, sites })
    }

    fn relay(&self, name: &str) -> Option<&NodeRuntime> {
        self.relays.iter().find(|r| r.name() == name)
    }

    /// Every live node's *resolved* stats address (works with `:0`
    /// binds, unlike the spec's), labelled: relays, then sites.
    fn stats_addrs(&self) -> Vec<(String, String)> {
        let relays = (self.relays.iter())
            .filter_map(|rt| Some((format!("relay {}", rt.name()), rt.stats_addr()?)));
        let sites = (self.sites.iter())
            .filter_map(|s| Some((format!("site {}", s.site()), s.stats_addr()?)));
        let label = |(l, a): (String, SocketAddr)| (l, a.to_string());
        relays.chain(sites).map(label).collect()
    }

    /// Scrapes `/metrics` on every live node ([`ThreadFleet::stats_addrs`]).
    /// First unreachable or non-conformant node is the error.
    fn scrape(&self) -> Result<Vec<flowrelay::fleetview::NodeMetrics>, String> {
        (self.stats_addrs().into_iter())
            .map(|(label, addr)| {
                flowrelay::fleetview::scrape(&addr).map_err(|e| format!("{label}: {e}"))
            })
            .collect()
    }

    /// Leaves-first drain: sites flush to leaf relays, every relay
    /// tier flushes its pending exports to its (still-running) parent,
    /// the root exits last. Returns the frames the sites' relays
    /// acknowledged.
    fn drain(self, deadline: Duration) -> u64 {
        let site_acked = drain_sites(self.sites, deadline);
        for rt in self.relays.into_iter().rev() {
            let name = rt.name().to_string();
            let report = rt.drain(deadline);
            log(format_args!(
                "flowctl: relay {name} drained — {} flushed, {} pending at exit",
                report.flushed, report.pending_at_exit
            ));
        }
        site_acked
    }
}

/// A spec site as a node config, shipping to its relay's resolved
/// ingest address.
fn site_config(s: &SiteSpec, upstream: SocketAddr) -> SiteNodeConfig {
    let mut cfg = SiteNodeConfig::new(s.site, upstream.to_string());
    cfg.listen = s.listen.clone();
    cfg.stats = s.stats.clone();
    cfg.window_ms = s.window_ms;
    cfg.budget = s.budget;
    cfg.batch = s.batch;
    cfg.receive_buffer_bytes = s.receive_buffer_bytes;
    cfg.admission = s.admission;
    cfg.max_open_windows = s.max_open_windows;
    cfg.lanes = s.lanes;
    cfg.recv_batch = s.recv_batch;
    cfg.reuseport = s.reuseport;
    cfg.pin_cores = s.pin_cores;
    cfg
}

/// Drains every site, logging each one's delivery; returns the sum of
/// their acknowledged frames.
fn drain_sites(sites: Vec<SiteRuntime>, deadline: Duration) -> u64 {
    let mut acked = 0;
    for site in sites {
        let id = site.site();
        let report = site.drain(deadline);
        log(format_args!(
            "flowctl: site {id} drained — {} acked, {} pending at exit",
            report.shipper.acked_frames, report.pending_at_exit
        ));
        acked += report.shipper.acked_frames;
    }
    acked
}

fn run(spec: &FleetSpec, args: &Args, deadline: Duration) {
    if args.has("spawn") {
        return run_spawned(spec, args, deadline);
    }
    let fleet = ThreadFleet::boot(spec).unwrap_or_else(|e| fail(e));
    println!(
        "flowctl: fleet up ({} relays, {} sites)",
        fleet.relays.len(),
        fleet.sites.len()
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            Some("status") => {
                for rt in &fleet.relays {
                    let l = rt.ledger();
                    println!(
                        "status relay {} frames={} rejected={} exported={} pending={} spill_sheds={}",
                        rt.name(),
                        l.frames,
                        l.rejected,
                        l.exported,
                        rt.pending_len(),
                        l.spill_sheds
                    );
                }
                fleet.sites.iter().for_each(print_site_status);
            }
            Some("top") => match fleet.scrape() {
                Ok(nodes) => {
                    let rows = flowrelay::fleetview::aggregate(&nodes);
                    print!("{}", flowrelay::fleetview::render_table(&rows));
                }
                Err(e) => println!("error {e}"),
            },
            Some("reload") => {
                let Some(target) = words.next() else {
                    println!("error reload needs a relay name or all");
                    continue;
                };
                let kvs: Vec<&str> = words.collect();
                let targets: Vec<&NodeRuntime> = if target == "all" {
                    fleet.relays.iter().collect()
                } else {
                    match fleet.relay(target) {
                        Some(rt) => vec![rt],
                        None => {
                            println!("error no relay named {target}");
                            continue;
                        }
                    }
                };
                match apply_reload(&targets, &kvs) {
                    Ok(n) => println!("reloaded {n} relays"),
                    Err(e) => println!("error {e}"),
                }
            }
            Some("drain") => break,
            Some(other) => println!("error unknown command: {other}"),
        }
    }
    fleet.drain(deadline);
    println!("flowctl: fleet down");
}

/// The `status site …` line of one in-process site.
fn print_site_status(site: &SiteRuntime) {
    let t = site.ingest_snapshot().total;
    println!(
        "status site {} packets={} records={} summaries={}",
        site.site(),
        t.pipeline.packets,
        t.pipeline.records,
        t.daemon.summaries
    );
}

/// Parses `k=v` words ([`flowrelay::NodeReload::parse`]) against each
/// target's current knobs, then applies them. All-or-nothing per call.
fn apply_reload(targets: &[&NodeRuntime], kvs: &[&str]) -> Result<usize, String> {
    let reloads = targets
        .iter()
        .map(|rt| Ok(rt.reloadable().parse(kvs.iter().copied())?.0))
        .collect::<Result<Vec<_>, String>>()?;
    for (rt, r) in targets.iter().zip(reloads) {
        rt.reload(r);
    }
    Ok(targets.len())
}

// ---------------------------------------------------------------------------
// Spawned fleet (relayd child processes, supervised)
// ---------------------------------------------------------------------------

/// One supervised relayd child. A waiter thread owns the process and
/// blocks in `wait`; its exit is the supervisor's event.
struct ChildNode {
    name: String,
    /// Args pinned to the first boot's resolved ports, so a restarted
    /// child comes back where its peers expect it.
    args: Vec<String>,
    /// Where control commands go; closing it asks relayd to drain.
    stdin: Option<ChildStdin>,
    pid: u32,
    /// Joins with the child's exit status.
    waiter: JoinHandle<std::io::Result<ExitStatus>>,
    restarts: u32,
}

/// What the spawn-mode supervisor thread sleeps on.
enum SupEvent {
    /// Child `idx` exited; the text says how.
    Exited(usize, String),
    /// The fleet is draining: stop supervising.
    Stop,
}

/// How long a failed restart (ports still in TIME_WAIT) waits before
/// the next attempt.
const RESTART_RETRY: Duration = Duration::from_millis(250);

/// Hands a spawned child to a waiter thread that reports its exit to
/// the supervisor as [`SupEvent::Exited`]`(idx, …)`.
fn watch(
    idx: usize,
    mut child: Child,
    events: Sender<SupEvent>,
) -> (
    Option<ChildStdin>,
    u32,
    JoinHandle<std::io::Result<ExitStatus>>,
) {
    let stdin = child.stdin.take();
    let pid = child.id();
    let waiter = std::thread::spawn(move || {
        let status = child.wait();
        let how = match &status {
            Ok(s) => s.to_string(),
            Err(e) => format!("wait failed: {e}"),
        };
        let _ = events.send(SupEvent::Exited(idx, how));
        status
    });
    (stdin, pid, waiter)
}

/// Spawns a fresh relayd for an exited child in place. Returns whether
/// it came up.
fn restart(c: &mut ChildNode, idx: usize, relayd: &str, events: &Sender<SupEvent>) -> bool {
    match spawn_relayd(relayd, &c.name, &c.args) {
        Ok((child, _, _)) => {
            let (stdin, pid, waiter) = watch(idx, child, events.clone());
            let _ = std::mem::replace(&mut c.waiter, waiter).join();
            c.stdin = stdin;
            c.pid = pid;
            c.restarts += 1;
            log(format_args!(
                "flowctl: relay {} restarted (pid {pid}, restart #{})",
                c.name, c.restarts
            ));
            true
        }
        Err(e) => {
            // Ports may still be in TIME_WAIT; retried shortly.
            log(format_args!("flowctl: restart of {} failed: {e}", c.name));
            false
        }
    }
}

/// The spawn-mode fleet state shared between the stdin loop and the
/// supervisor thread.
struct SpawnedFleet {
    relayd: String,
    children: Vec<ChildNode>,
}

fn relayd_path(args: &Args) -> String {
    if let Some(p) = args.get("relayd") {
        return p.to_string();
    }
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("relayd")))
        .filter(|p| p.exists())
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| "relayd".into())
}

/// relayd args for one relay node with every bind/link made concrete.
fn relayd_args(spec: &FleetSpec, name: &str, upstream: Option<&SocketAddr>) -> Vec<String> {
    let r = spec.relay(name).expect("caller resolved the name");
    let n = &r.node;
    let mut args = vec![
        "--name".into(),
        n.name.clone(),
        "--agg-site".into(),
        n.agg_site.to_string(),
        "--ingest".into(),
        n.ingest.clone(),
        "--query".into(),
        n.query.clone(),
        "--mode".into(),
        match n.mode {
            ExportMode::Full => "full".into(),
            ExportMode::Delta => "delta".into(),
        },
        "--linger-ms".into(),
        n.linger_ms.to_string(),
        "--drain-every-ms".into(),
        n.drain_every_ms.to_string(),
        "--max-bases".into(),
        n.max_bases.to_string(),
        "--budget".into(),
        n.budget.to_string(),
        "--retention-ms".into(),
        n.retention_ms.to_string(),
        "--spill-max-bytes".into(),
        n.spill_max_bytes.to_string(),
        "--reconnect-base-ms".into(),
        n.reconnect_base_ms.to_string(),
        "--reconnect-max-ms".into(),
        n.reconnect_max_ms.to_string(),
        "--ack-stall-ms".into(),
        n.ack_stall_ms.to_string(),
        "--stdin-control".into(),
    ];
    // Whole-subtree coverage, not just directly-owned sites (the
    // root usually owns none directly).
    let coverage = spec.coverage(name);
    if !coverage.is_empty() {
        args.push("--sites".into());
        args.push(
            coverage
                .iter()
                .map(u16::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
    }
    if let Some(s) = &n.stats {
        args.push("--stats".into());
        args.push(s.clone());
    }
    if let Some(d) = &n.state_dir {
        args.push("--state-dir".into());
        args.push(d.display().to_string());
    }
    if let Some(u) = upstream {
        args.push("--upstream".into());
        args.push(u.to_string());
    }
    match n.fsync {
        flowdist::FsyncPolicy::Always => {
            args.push("--fsync".into());
            args.push("always".into());
        }
        flowdist::FsyncPolicy::Never => {}
    }
    args
}

/// Spawns one relayd, waits for its startup line, and returns the
/// child plus its resolved (ingest, query) addresses. The rest of the
/// child's stderr/stdout is forwarded to ours by detached threads.
fn spawn_relayd(
    relayd: &str,
    name: &str,
    args: &[String],
) -> Result<(Child, SocketAddr, SocketAddr), String> {
    let mut child = Command::new(relayd)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {relayd} for {name}: {e}"))?;
    let stderr = child.stderr.take().expect("piped");
    let mut reader = std::io::BufReader::new(stderr);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut startup = None;
    let mut line = String::new();
    while startup.is_none() && Instant::now() < deadline {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                log(format_args!("{}", line.trim_end()));
                // `relayd[name]: ingest on A, queries on B, mode M`
                if let Some(rest) = line.split("ingest on ").nth(1) {
                    let (a, rest) = rest.split_once(", queries on ").unwrap_or(("", ""));
                    let b = rest.split(',').next().unwrap_or("").trim();
                    if let (Ok(a), Ok(b)) = (a.trim().parse(), b.parse()) {
                        startup = Some((a, b));
                    }
                }
            }
            Err(_) => break,
        }
    }
    let Some((ingest, query)) = startup else {
        let _ = child.kill();
        return Err(format!("relay {name}: no startup line within 10s"));
    };
    // Forward the rest of its stderr (and stdout) to ours.
    std::thread::spawn(move || {
        let mut line = String::new();
        while let Ok(n) = reader.read_line(&mut line) {
            if n == 0 {
                break;
            }
            log(format_args!("{}", line.trim_end()));
            line.clear();
        }
    });
    if let Some(out) = child.stdout.take() {
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(out);
            let mut line = String::new();
            while let Ok(n) = reader.read_line(&mut line) {
                if n == 0 {
                    break;
                }
                println!("{}", line.trim_end());
                line.clear();
            }
        });
    }
    Ok((child, ingest, query))
}

/// Replaces the value following `--flag` in an arg vector.
fn pin_arg(args: &mut [String], flag: &str, value: String) {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 < args.len() {
            args[i + 1] = value;
        }
    }
}

fn run_spawned(spec: &FleetSpec, args: &Args, deadline: Duration) {
    let relayd = relayd_path(args);
    let mut ingest_addrs: HashMap<String, SocketAddr> = HashMap::new();
    let mut children = Vec::new();
    let (events, exits) = std::sync::mpsc::channel::<SupEvent>();
    for name in spec.boot_order() {
        let r = spec.relay(&name).expect("boot_order names spec relays");
        let upstream = r.parent.as_ref().map(|p| ingest_addrs[p]);
        let mut cargs = relayd_args(spec, &name, upstream.as_ref());
        let (child, ingest, query) =
            spawn_relayd(&relayd, &name, &cargs).unwrap_or_else(|e| fail(e));
        // Pin the resolved ports so a restart comes back in place.
        pin_arg(&mut cargs, "--ingest", ingest.to_string());
        pin_arg(&mut cargs, "--query", query.to_string());
        ingest_addrs.insert(name.clone(), ingest);
        let (stdin, pid, waiter) = watch(children.len(), child, events.clone());
        println!("flowctl: relay {name} ingest={ingest} query={query} pid={pid}");
        children.push(ChildNode {
            name,
            args: cargs,
            stdin,
            pid,
            waiter,
            restarts: 0,
        });
    }
    let mut sites = Vec::new();
    for s in &spec.sites {
        let cfg = site_config(s, ingest_addrs[&s.upstream]);
        let rt =
            SiteRuntime::start(cfg).unwrap_or_else(|e| fail(format_args!("site {}: {e}", s.site)));
        println!("flowctl: site {} listen={}", s.site, rt.ingest_addr());
        sites.push(rt);
    }
    println!(
        "flowctl: fleet up ({} spawned relays, {} sites)",
        children.len(),
        sites.len()
    );

    let fleet = Arc::new(Mutex::new(SpawnedFleet { relayd, children }));
    // Supervisor: sleeps until a child exits, then restarts it. The
    // restarted process recovers its journal and spill under the same
    // state dir and rebinds its pinned ports, retried every
    // RESTART_RETRY while the OS still holds them.
    let sup = {
        let fleet = Arc::clone(&fleet);
        let events = events.clone();
        std::thread::spawn(move || {
            let mut down: Vec<usize> = Vec::new();
            loop {
                let event = if down.is_empty() {
                    exits.recv().ok()
                } else {
                    match exits.recv_timeout(RESTART_RETRY) {
                        Ok(ev) => Some(ev),
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                };
                if let Some(SupEvent::Stop) = event {
                    return;
                }
                let mut guard = fleet.lock().expect("fleet lock");
                let guard = &mut *guard;
                if let Some(SupEvent::Exited(idx, how)) = event {
                    let name = &guard.children[idx].name;
                    log(format_args!(
                        "flowctl: relay {name} exited ({how}); restarting"
                    ));
                    down.push(idx);
                }
                down.retain(|&idx| !restart(&mut guard.children[idx], idx, &guard.relayd, &events));
            }
        })
    };

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut words = line.split_whitespace();
        match words.next() {
            None => {}
            Some("drain") => break,
            Some("status") => {
                let mut guard = fleet.lock().expect("fleet lock");
                for c in guard.children.iter_mut() {
                    // Children answer on their own stdout (forwarded).
                    send_line(c, "status");
                }
                drop(guard);
                sites.iter().for_each(print_site_status);
            }
            Some("top") => {
                // Children bind their own stats ports, so the spec's
                // pinned addresses are the only handle we have here.
                let mut nodes = Vec::new();
                for (label, addr) in spec_stats_addrs(spec) {
                    match flowrelay::fleetview::scrape(&addr) {
                        Ok(n) => nodes.push(n),
                        Err(e) => println!("error {label}: {e}"),
                    }
                }
                let rows = flowrelay::fleetview::aggregate(&nodes);
                print!("{}", flowrelay::fleetview::render_table(&rows));
            }
            Some("reload") => {
                let Some(target) = words.next() else {
                    println!("error reload needs a relay name or all");
                    continue;
                };
                let rest: Vec<&str> = words.collect();
                let cmd = format!("reload {}", rest.join(" "));
                let mut guard = fleet.lock().expect("fleet lock");
                let mut hit = 0;
                for c in guard.children.iter_mut() {
                    if target == "all" || c.name == target {
                        send_line(c, &cmd);
                        hit += 1;
                    }
                }
                drop(guard);
                if hit == 0 {
                    println!("error no relay named {target}");
                }
            }
            Some(other) => println!("error unknown command: {other}"),
        }
    }

    let _ = events.send(SupEvent::Stop);
    let _ = sup.join();
    drain_sites(sites, deadline);
    // Leaves-first: closing a child's stdin (or sending `drain`) makes
    // relayd flush pending exports to its still-running parent (each
    // child bounds its own drain via --drain-deadline-ms).
    let children = std::mem::take(&mut fleet.lock().expect("fleet lock").children);
    for mut c in children.into_iter().rev() {
        send_line(&mut c, "drain");
        drop(c.stdin.take());
        match c.waiter.join() {
            Ok(Ok(status)) => log(format_args!(
                "flowctl: relay {} drained and exited ({status})",
                c.name
            )),
            Ok(Err(e)) => log(format_args!("flowctl: wait on {} failed: {e}", c.name)),
            Err(_) => log(format_args!("flowctl: the waiter of {} panicked", c.name)),
        }
    }
    println!("flowctl: fleet down");
}

fn send_line(c: &mut ChildNode, line: &str) {
    if let Some(stdin) = c.stdin.as_mut() {
        let _ = writeln!(stdin, "{line}");
        let _ = stdin.flush();
    }
}

// ---------------------------------------------------------------------------
// Smoke: boot → ingest → query → stats → reload → drain (for CI)
// ---------------------------------------------------------------------------

fn smoke(spec: &FleetSpec, records_per_site: usize, deadline: Duration) {
    use flownet::FlowRecord;

    let t0 = Instant::now();
    let fleet = ThreadFleet::boot(spec).unwrap_or_else(|e| fail(e));
    let root_name = spec.boot_order().remove(0);
    let root = fleet.relay(&root_name).expect("root booted");
    let root_query = root.query_addr();
    let root_stats = root.stats_addr().unwrap_or_else(|| {
        fail("smoke needs a stats endpoint on the root (set stats = 127.0.0.1:0)")
    });

    // Deterministic traffic spanning three windows per site: the site
    // daemon keeps `open_windows` (2) windows open to absorb event-time
    // disorder, so the first window only closes — and ships to the
    // relays without waiting for a drain — once event time reaches the
    // third. Event times anchor just behind the wall clock: relays
    // evict windows older than their retention horizon, which is
    // measured against real time.
    let sender = std::net::UdpSocket::bind("127.0.0.1:0")
        .unwrap_or_else(|e| fail(format_args!("udp bind: {e}")));
    let now_ms = flowdist::epoch_ms();
    let mut sent = 0usize;
    for site in &fleet.sites {
        let w = spec
            .sites
            .iter()
            .find(|s| s.site == site.site())
            .map(|s| s.window_ms)
            .unwrap_or(300_000);
        let w0 = (now_ms / w).saturating_sub(3) * w;
        let recs: Vec<FlowRecord> = (0..records_per_site)
            .map(|i| {
                let widx = (i * 3 / records_per_site.max(1)) as u64;
                let ts = w0 + w * widx + 10 + (i as u64 % 7);
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
        // base_ms (the exporter's clock at export time) must sit at or
        // after every record timestamp: v5 carries times as sysuptime
        // offsets *behind* it.
        flowdist::net::export_netflow(&sender, site.ingest_addr(), &recs, now_ms)
            .unwrap_or_else(|e| fail(format_args!("udp send to site {}: {e}", site.site())));
        sent += recs.len();
    }

    // Wait for the first window's aggregates to climb every tier.
    let root_stats_addr = root_stats.to_string();
    let wait_until = Instant::now() + Duration::from_secs(60);
    let root_frames = loop {
        let body = ops_ok(&root_stats_addr, "GET", "/stats", "");
        let frames = stat_field(&body, "frames").unwrap_or(0);
        if frames > 0 {
            break frames;
        }
        if Instant::now() > wait_until {
            fail(format_args!(
                "no aggregates reached the root within 60s; its stats:\n{body}"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    // The root must answer a query over the aggregated data.
    let mut conn = flowdist::framing::connect(root_query, Duration::from_secs(5))
        .unwrap_or_else(|e| fail(format_args!("root query connect: {e}")));
    let answer = flowrelay::server::query_remote(&mut conn, "pop")
        .unwrap_or_else(|e| fail(format_args!("root query: {e}")))
        .unwrap_or_else(|e| fail(format_args!("root query error: {e}")));
    let route = answer.lines().next().unwrap_or_default().trim().to_string();
    if !route.starts_with("route:") {
        fail(format_args!("root answer missing route header: {answer}"));
    }
    if !answer.contains("popularity: ") || answer.contains("popularity: 0 packets") {
        fail(format_args!(
            "the root answered but holds no aggregated data: {answer}"
        ));
    }

    // Every stats endpoint must be healthy.
    let stats_addrs = fleet.stats_addrs();
    for (label, addr) in &stats_addrs {
        let body = ops_ok(addr, "GET", "/health", "");
        if !body.contains("ok true") {
            fail(format_args!("{label} unhealthy: {body}"));
        }
    }
    let endpoints = stats_addrs.len();

    // Live reload: tighten the root's linger and verify it stuck.
    ops_ok(&root_stats_addr, "POST", "/reload", "linger-ms=50\n");
    let body = ops_ok(&root_stats_addr, "GET", "/stats", "");
    if stat_field(&body, "linger_ms") != Some(50) {
        fail(format_args!("reload did not apply: {body}"));
    }

    // Hostile phase: garbage and template-less data at the first site
    // must be counted and dropped — never crash a node or skew the
    // datagram accounting identity — and the site's admission knobs
    // must reload live.
    let hostile_site = &fleet.sites[0];
    let site_stats_addr = hostile_site
        .stats_addr()
        .unwrap_or_else(|| fail("smoke needs a stats endpoint on site 0"))
        .to_string();
    let before = ops_ok(&site_stats_addr, "GET", "/stats", "");
    let decode_errors_before = stat_field(&before, "decode_errors").unwrap_or(0);
    let no_template_before = stat_field(&before, "records_no_template").unwrap_or(0);
    // (a) Pure garbage — a decode error.
    sender
        .send_to(
            b"not netflow at all, not even close",
            hostile_site.ingest_addr(),
        )
        .unwrap_or_else(|e| fail(format_args!("hostile send: {e}")));
    // (b) A well-formed v9 packet whose data flowset names a template
    // that was never announced — records counted as template-less and
    // dropped, never buffered.
    let mut v9 = Vec::new();
    v9.extend_from_slice(&9u16.to_be_bytes()); // version
    v9.extend_from_slice(&1u16.to_be_bytes()); // count
    v9.extend_from_slice(&0u32.to_be_bytes()); // sysuptime
    v9.extend_from_slice(&((now_ms / 1_000) as u32).to_be_bytes());
    v9.extend_from_slice(&1u32.to_be_bytes()); // sequence
    v9.extend_from_slice(&0u32.to_be_bytes()); // source id
    v9.extend_from_slice(&999u16.to_be_bytes()); // unknown template id
    v9.extend_from_slice(&12u16.to_be_bytes()); // flowset length
    v9.extend_from_slice(&[0xAB; 8]); // 8 opaque payload bytes
    sender
        .send_to(&v9, hostile_site.ingest_addr())
        .unwrap_or_else(|e| fail(format_args!("hostile send: {e}")));
    let wait_until = Instant::now() + Duration::from_secs(30);
    let site_body = loop {
        let body = ops_ok(&site_stats_addr, "GET", "/stats", "");
        if stat_field(&body, "decode_errors").unwrap_or(0) > decode_errors_before
            && stat_field(&body, "records_no_template").unwrap_or(0) > no_template_before
        {
            break body;
        }
        if Instant::now() > wait_until {
            fail(format_args!(
                "hostile drops never surfaced in site stats:\n{body}"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    // The site must still be healthy, and every datagram it received
    // must sit in exactly one counter.
    let body = ops_ok(&site_stats_addr, "GET", "/health", "");
    if !body.contains("ok true") {
        fail(format_args!("site unhealthy after hostile traffic: {body}"));
    }
    let datagrams = stat_field(&site_body, "datagrams").unwrap_or(0);
    let accounted = stat_field(&site_body, "packets").unwrap_or(0)
        + stat_field(&site_body, "decode_errors").unwrap_or(0)
        + stat_field(&site_body, "quota_packet_drops").unwrap_or(0);
    if datagrams != accounted {
        fail(format_args!(
            "datagram accounting identity broken: {datagrams} received, {accounted} accounted:\n{site_body}"
        ));
    }
    // Site knobs reload live (all-or-nothing grammar, like relays).
    ops_ok(&site_stats_addr, "POST", "/reload", "packet-rate=5000\n");
    let body = ops_ok(&site_stats_addr, "GET", "/stats", "");
    if stat_field(&body, "knob_packet_rate") != Some(5_000) {
        fail(format_args!("site reload did not apply: {body}"));
    }
    let (status, body) = ops_request(&site_stats_addr, "POST", "/reload", "bogus-knob=1\n")
        .unwrap_or_else(|e| fail(format_args!("site reload: {e}")));
    if status == 200 {
        fail(format_args!("unknown reload key was accepted: {body}"));
    }

    // Metrics phase: every node must serve a conformant Prometheus
    // exposition (fleetview::scrape validates as it parses), the
    // hot-path histograms must have observed the real work above —
    // export ship→ack RTT on a shipping relay, query latency on the
    // root — and the JSON view must agree with the plaintext one.
    let wait_until = Instant::now() + Duration::from_secs(30);
    let (nodes, rtt_count, query_count) = loop {
        let nodes = fleet.scrape().unwrap_or_else(|e| fail(e));
        let rtt: f64 = nodes
            .iter()
            .filter(|n| n.role == "relay")
            .map(|n| n.get("flowtree_export_rtt_seconds_count"))
            .sum();
        let query: f64 = nodes
            .iter()
            .filter(|n| n.role == "root")
            .map(|n| n.get("flowtree_query_seconds_count"))
            .sum();
        if rtt > 0.0 && query > 0.0 {
            break (nodes, rtt as u64, query as u64);
        }
        if Instant::now() > wait_until {
            fail(format_args!(
                "hot-path histograms never filled: export_rtt_count={rtt} query_count={query}"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    let metrics_nodes = nodes.len();
    let check_roundtrip = |addr: &str, keys: &[&str]| {
        let text = ops_ok(addr, "GET", "/stats", "");
        let json = ops_ok(addr, "GET", "/stats.json", "");
        for key in keys {
            let plain = stat_field(&text, key);
            let js = json_field(&json, key);
            if plain.is_none() || plain != js {
                fail(format_args!(
                    "JSON and plaintext stats disagree on {key} at {addr}: \
                     {plain:?} vs {js:?}"
                ));
            }
        }
    };
    check_roundtrip(
        &root_stats_addr,
        &["rejected", "replayed", "stored_windows"],
    );
    check_roundtrip(
        &site_stats_addr,
        &[
            "datagrams",
            "summaries",
            "decode_errors",
            "lanes",
            "lane0_datagrams",
        ],
    );
    // Per-lane observability: every site must break its aggregate
    // datagram count down by ingest lane, and the lane family must
    // re-sum to the aggregate — in /stats (checked above via the
    // lane0_* keys) and in the Prometheus exposition.
    for n in nodes.iter().filter(|n| n.role == "site") {
        if n.get("flowtree_lanes") < 1.0 {
            fail(format_args!("site {} reports no ingest lanes", n.node));
        }
        let per_lane = n.get("flowtree_lane_datagrams_total");
        let total = n.get("flowtree_ingest_datagrams_total");
        if per_lane != total {
            fail(format_args!(
                "site {} lane datagrams do not re-sum: lanes={per_lane} total={total}",
                n.node
            ));
        }
    }
    let rows = flowrelay::fleetview::aggregate(&nodes);
    print!("{}", flowrelay::fleetview::render_table(&rows));

    let hostile_decode_errors = stat_field(&site_body, "decode_errors").unwrap_or(0);
    let hostile_no_template = stat_field(&site_body, "records_no_template").unwrap_or(0);
    let relays = fleet.relays.len();
    let sites = fleet.sites.len();
    let site_acked = fleet.drain(deadline);
    println!(
        "flowctl smoke: ok — relays={relays} sites={sites} records={sent} \
         root_frames={root_frames} stats_endpoints={endpoints} reload=applied \
         hostile=accounted decode_errors={hostile_decode_errors} \
         records_no_template={hostile_no_template} metrics_nodes={metrics_nodes} \
         export_rtt_count={rtt_count} query_count={query_count} site_acked={site_acked} \
         {route} elapsed_ms={}",
        t0.elapsed().as_millis()
    );
}

/// One ops request that must answer 200: its body; anything else ends
/// the smoke.
fn ops_ok(addr: &str, method: &str, path: &str, body: &str) -> String {
    match ops_request(addr, method, path, body) {
        Ok((200, body)) => body,
        Ok((status, body)) => fail(format_args!("{method} {path} at {addr}: {status} {body}")),
        Err(e) => fail(format_args!("{method} {path} at {addr}: {e}")),
    }
}

/// Reads `key value` out of a plaintext stats body.
fn stat_field(body: &str, key: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(key).map(str::trim))
        .and_then(|v| v.parse().ok())
}

/// Reads an integer field out of the flat `/stats.json` object.
fn json_field(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
