//! The relay-node runtime: everything `relayd` used to inline, as a
//! library.
//!
//! One [`NodeRuntime`] is one deployable aggregation node — ingest
//! listener, query listener, wall-clock export scheduler, durable
//! shipper, journal/spill recovery, retention, stats endpoint — built
//! from one typed [`NodeConfig`] instead of ~450 lines of flag
//! plumbing. `relayd` is now a thin shell over this module, and the
//! `flowctl` launcher boots whole site→relay→root fleets by starting
//! one `NodeRuntime` per spec node (the site-side twin is
//! [`flowdist::runtime::SiteRuntime`]).
//!
//! The operability contract:
//!
//! * **`start`** binds every socket (a `:0` bind resolves; read the
//!   result back from the addr accessors), recovers journal and spill
//!   state, rewinds unacked exports when an upstream exists, and
//!   spawns the scheduler.
//! * The **scheduler** sleeps until something happens — a downstream
//!   frame applied, an ack, rebase-request or closed connection on the
//!   upstream link, a reload, stop — or until the earliest deadline
//!   its state computes: the next window export
//!   ([`Relay::next_export_due`]), the shipper's reconnect backoff or
//!   ack stall ([`flowdist::ShipperCore::next_deadline`]), the next
//!   retention eviction ([`Relay::next_eviction_due`]). It then runs one
//!   pass on the `drain-every-ms` grid (the first multiple at or after
//!   the wake), so exports coalesce exactly as they would on a fixed
//!   tick while an idle node never wakes. The shipper has its own
//!   lock, taken only by a pass, [`NodeRuntime::tick_now`] and drain;
//!   a pass locks the relay once per shipper event after its socket
//!   calls and publishes the shipper's view, so neither `/stats` nor
//!   ingest waits on the upstream.
//! * **`reload`** applies a [`NodeReload`] — export mode, linger,
//!   retention, scheduler grid, base bounds — live, without dropping a
//!   socket or a window. The same deltas arrive over the stats endpoint
//!   as `POST /reload` with `key=value` lines, parsed by
//!   [`NodeReload::parse`] like every other reload command.
//! * **`drain`** is the graceful exit: stop accepting downstreams,
//!   run the scheduler down, flush every window with unshipped
//!   content, and push the pending queue through the acknowledged
//!   shipper until it is empty or the deadline passes. Stop halts a
//!   pass between two bounded socket calls, so drain returns within
//!   the deadline plus the ack stall (or the hello timeout, if
//!   longer), however slowly the upstream reads. A `kill -9` anywhere in that sequence recovers
//!   byte-identical through the journal — drain uses only the
//!   journaled paths.
//! * **`shutdown`** exits without flushing (the journal still makes
//!   it safe; it is just not graceful).
//! * The **stats endpoint** (when configured) serves `GET /health`,
//!   `POST /reload`, and the pages rendered from the node's one stats
//!   list (`relay_stats`: the full [`RelayLedger`] including the
//!   spill-shed counters, shipper and spill-queue state, export
//!   config), each counter declared once: `GET /stats` (plaintext
//!   `key value` lines), `/stats.json` and `/metrics`.

use crate::cli::log;
use crate::journal::{JournalConfig, RecoveryReport};
use crate::plan::QueryRouter;
use crate::relay::{ExportConfig, ExportMode, Relay, RelayConfig, RelayLedger};
use crate::server::{answer_query, serve_acked_ingest_timed};
use crate::topology::{RelaySpec, RelayTopology};
use flowdist::ops::{
    parse_reload, reload_u64, spawn_accept_loop, spawn_ops, AcceptLoop, NodeTelemetry, OpsHandle,
    OpsRequest, OpsResponse,
};
use flowdist::{
    epoch_ms, shipper_stats, BackoffConfig, ExportShipper, FsyncPolicy, ShipperConfig, ShipperCore,
    ShipperView, SpillConfig, SpillQueue, SteadyClock, Summary, ViewCacheStats, Wake,
};
use flowmetrics::{EventRing, Stats, Stopwatch};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything one relay node needs, as a value. Field-for-field this
/// supersedes `relayd`'s ad-hoc CLI flags; the defaults are the
/// daemon's documented defaults.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Relay name shown in query routes and log lines.
    pub name: String,
    /// The aggregate-site id this node's exports carry.
    pub agg_site: u16,
    /// Real sites this node covers.
    pub sites: Vec<u16>,
    /// TCP bind for summary-frame ingest (`host:0` picks a port).
    pub ingest: String,
    /// TCP bind for text queries.
    pub query: String,
    /// Optional bind for the plaintext stats endpoint.
    pub stats: Option<String>,
    /// Upstream peer to ship exports to (`None` = root: exports are
    /// logged and dropped).
    pub upstream: Option<String>,
    /// Re-export whole windows or structural deltas.
    pub mode: ExportMode,
    /// Wall-clock grace past a window's end before it exports (ms).
    pub linger_ms: u64,
    /// The export scheduler's coalescing grid (ms): passes run only at
    /// multiples of it. Not a poll period — an idle node never wakes.
    pub drain_every_ms: u64,
    /// Pinned re-aggregation bases kept.
    pub max_bases: usize,
    /// Total tree nodes the pinned bases may hold together — the
    /// memory-honest bound on base state (a few huge bases cost more
    /// than many small ones; see `ExportConfig::max_base_nodes`).
    pub max_base_nodes: usize,
    /// Tree node budget.
    pub budget: usize,
    /// Evict windows older than this (ms; 0 = keep forever).
    pub retention_ms: u64,
    /// Durable journal + export-spill root (`None` = volatile).
    pub state_dir: Option<PathBuf>,
    /// Fsync policy for journal and spill writes.
    pub fsync: FsyncPolicy,
    /// Pending-export spill bound in bytes; overflow sheds oldest.
    pub spill_max_bytes: u64,
    /// First upstream-reconnect backoff (ms).
    pub reconnect_base_ms: u64,
    /// Upstream-reconnect backoff ceiling (ms).
    pub reconnect_max_ms: u64,
    /// Recycle an upstream connection whose acks went silent (ms).
    pub ack_stall_ms: u64,
    /// Prefix for the node's log lines (default `node[{name}]`).
    pub log_tag: Option<String>,
}

impl NodeConfig {
    /// The daemon defaults for a node called `name`.
    pub fn new(name: impl Into<String>) -> NodeConfig {
        NodeConfig {
            name: name.into(),
            agg_site: 1_000,
            sites: vec![0, 1, 2, 3],
            ingest: "127.0.0.1:0".into(),
            query: "127.0.0.1:0".into(),
            stats: None,
            upstream: None,
            mode: ExportMode::Delta,
            linger_ms: 2_000,
            drain_every_ms: 1_000,
            max_bases: 64,
            max_base_nodes: ExportConfig::default().max_base_nodes,
            budget: 1 << 20,
            retention_ms: 86_400_000,
            state_dir: None,
            fsync: FsyncPolicy::Never,
            spill_max_bytes: 256 << 20,
            reconnect_base_ms: 100,
            reconnect_max_ms: 5_000,
            ack_stall_ms: 10_000,
            log_tag: None,
        }
    }
}

/// The knobs [`NodeRuntime::reload`] applies without a restart. Build
/// one from the node's current state with [`NodeRuntime::reloadable`],
/// change what the new spec says, and apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeReload {
    /// Export mode (full vs delta).
    pub mode: ExportMode,
    /// Export linger (ms).
    pub linger_ms: u64,
    /// Retention horizon (ms; 0 = keep forever).
    pub retention_ms: u64,
    /// Scheduler coalescing grid (ms).
    pub drain_every_ms: u64,
    /// Pinned re-aggregation bases kept.
    pub max_bases: usize,
    /// Total node budget across the pinned bases.
    pub max_base_nodes: usize,
}

/// Why a node failed to start.
#[derive(Debug)]
pub enum RuntimeError {
    /// The node config is structurally invalid.
    Invalid(String),
    /// A socket failed to bind.
    Bind {
        /// Which listener (`ingest`, `query`, `stats`).
        what: &'static str,
        /// The address that failed.
        addr: String,
        /// The bind error.
        err: std::io::Error,
    },
    /// The journal could not be opened/recovered.
    Journal(String),
    /// The export spill queue could not be opened.
    Spill(String),
    /// The export scheduler thread could not be spawned.
    Spawn(std::io::Error),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Invalid(w) => write!(f, "invalid node config: {w}"),
            RuntimeError::Bind { what, addr, err } => {
                write!(f, "cannot bind {what} {addr}: {err}")
            }
            RuntimeError::Journal(e) => write!(f, "cannot open journal: {e}"),
            RuntimeError::Spill(e) => write!(f, "cannot open spill dir: {e}"),
            RuntimeError::Spawn(e) => write!(f, "cannot spawn the export scheduler: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// What a graceful [`NodeRuntime::drain`] hands back.
#[derive(Debug)]
pub struct DrainReport {
    /// Summaries flushed out of the relay at drain time (windows that
    /// still had unshipped content; 0 if the node has no upstream).
    pub flushed: usize,
    /// Export frames still unacknowledged when the deadline passed
    /// (0 = everything pending reached the upstream and was acked, or
    /// the node has no upstream).
    pub pending_at_exit: usize,
    /// The final ledger.
    pub ledger: RelayLedger,
}

/// Parameters the scheduler re-reads every pass (reload targets that
/// do not live inside [`Relay`]'s own export config).
#[derive(Debug, Clone, Copy)]
struct SchedParams {
    retention_ms: u64,
    drain_every_ms: u64,
}

/// State owned by the scheduler pass, shared with drain and the stats
/// endpoint.
struct SchedState {
    /// The shipper as of the last pass (`None` on a root): what `/stats`
    /// and [`NodeRuntime::pending_len`] read.
    ship_view: Option<ShipperView>,
    /// Scheduler passes run (`sched_passes`).
    passes: u64,
    journal_fault_logged: bool,
    /// Where scheduler-detected operational events land (`/events`).
    events: EventRing,
    /// The ledger as of the last event sweep: the deltas of the
    /// counters it watches become events.
    seen: RelayLedger,
}

/// One running relay node (see the module docs).
pub struct NodeRuntime {
    name: String,
    tag: String,
    relay: Arc<Mutex<Relay>>,
    /// Locked only by a scheduler pass, [`NodeRuntime::tick_now`] and
    /// drain, which make its socket calls (`None` on a root).
    shipper: Arc<Mutex<Option<ExportShipper>>>,
    sched: Arc<Mutex<SchedState>>,
    params: Arc<Mutex<SchedParams>>,
    clock: SteadyClock,
    /// What the scheduler sleeps on (see the module docs); stop ends it.
    run: Wake,
    ingest_listener: AcceptLoop,
    query_listener: AcceptLoop,
    sched_join: Option<std::thread::JoinHandle<()>>,
    ops: Option<OpsHandle>,
    recovery: Option<RecoveryReport>,
    rewound: usize,
    upstream: Option<String>,
}

impl NodeRuntime {
    /// Boots the node: binds sockets, recovers state, spawns the
    /// listener and scheduler threads. Returns once every socket is
    /// bound and recovery is complete.
    pub fn start(cfg: NodeConfig) -> Result<NodeRuntime, RuntimeError> {
        if cfg.sites.is_empty() {
            return Err(RuntimeError::Invalid(
                "a relay node must cover at least one site".into(),
            ));
        }
        let tag = cfg
            .log_tag
            .clone()
            .unwrap_or_else(|| format!("node[{}]", cfg.name));

        // A solo topology so the query router can plan over this node.
        let topo = RelayTopology {
            relays: vec![RelaySpec {
                name: cfg.name.clone(),
                parent: None,
                agg_site: cfg.agg_site,
                sites: cfg.sites.clone(),
            }],
        };
        topo.validate()
            .map_err(|e| RuntimeError::Invalid(e.to_string()))?;
        let relay_cfg = RelayConfig {
            name: cfg.name.clone(),
            agg_site: cfg.agg_site,
            expected: cfg.sites.clone(),
            schema: flowkey::Schema::five_feature(),
            tree: flowtree_core::Config::with_budget(cfg.budget),
            export: ExportConfig {
                mode: cfg.mode,
                linger_ms: cfg.linger_ms,
                max_bases: cfg.max_bases,
                max_base_nodes: cfg.max_base_nodes,
            },
        };
        let (mut relay, recovery) = match &cfg.state_dir {
            Some(dir) => {
                let jcfg = JournalConfig {
                    fsync: cfg.fsync,
                    ..JournalConfig::default()
                };
                let (relay, report) = Relay::open_journaled(relay_cfg, &dir.join("journal"), jcfg)
                    .map_err(|e| RuntimeError::Journal(e.to_string()))?;
                log(format_args!(
                    "{tag}: recovered gen {} — {} snapshot slots, {} WAL records, {} torn bytes truncated",
                    report.generation, report.snapshot_slots, report.wal_records, report.torn_bytes
                ));
                (relay, Some(report))
            }
            None => (Relay::new(relay_cfg), None),
        };
        // Exports drained by a dead process but never acknowledged may
        // or may not have reached the upstream; rewinding re-exports
        // full rebasing frames the upstream deduplicates idempotently.
        // A root (no upstream) must NOT rewind — nobody is missing
        // anything.
        let mut rewound = 0;
        if cfg.upstream.is_some() {
            rewound = relay.rewind_unacked_exports();
            if rewound > 0 {
                log(format_args!(
                    "{tag}: rewound {rewound} unacked exports; their windows will rebase"
                ));
            }
        }
        let telemetry = NodeTelemetry::default();
        if let Some(report) = &recovery {
            if report.wal_records > 0 || report.snapshot_slots > 0 {
                telemetry.events.push(
                    epoch_ms(),
                    "crash_restart",
                    format!(
                        "gen {} wal_records {} torn_bytes {}",
                        report.generation, report.wal_records, report.torn_bytes
                    ),
                );
            }
        }
        if rewound > 0 {
            telemetry
                .events
                .push(epoch_ms(), "rewound", format!("unacked_exports {rewound}"));
        }
        let update_hist = telemetry.registry.histogram(
            "flowtree_tree_update_seconds",
            "One downstream summary frame classified and merged into the windowed trees.",
        );
        let query_hist = telemetry.registry.histogram(
            "flowtree_query_seconds",
            "One query planned, routed over the stored windows, and rendered.",
        );
        let relay = Arc::new(Mutex::new(relay));
        let run = Wake::new();

        // The durable shipper (only with an upstream).
        let shipper = match &cfg.upstream {
            Some(addr) => {
                let spill_cfg = SpillConfig {
                    max_bytes: cfg.spill_max_bytes,
                    fsync: cfg.fsync,
                    ..SpillConfig::default()
                };
                let spill = match &cfg.state_dir {
                    Some(dir) => {
                        let q = SpillQueue::open(&dir.join("spill"), spill_cfg)
                            .map_err(|e| RuntimeError::Spill(e.to_string()))?;
                        if !q.is_empty() {
                            log(format_args!(
                                "{tag}: recovered {} spilled exports, resending",
                                q.len()
                            ));
                        }
                        q
                    }
                    None => SpillQueue::in_memory(spill_cfg),
                };
                let mut shipper = ExportShipper::new(
                    ShipperConfig {
                        stall_ms: cfg.ack_stall_ms,
                        backoff: BackoffConfig {
                            base_ms: cfg.reconnect_base_ms,
                            max_ms: cfg.reconnect_max_ms,
                        },
                        ..ShipperConfig::new(addr.clone())
                    },
                    spill,
                    u64::from(cfg.agg_site) ^ (u64::from(std::process::id()) << 17),
                );
                shipper.core.set_rtt_histogram(telemetry.registry.histogram(
                    "flowtree_export_rtt_seconds",
                    "Ship-to-ack round trip of one export frame (first wire write to releasing ack).",
                ));
                shipper.set_waker(run.clone());
                Some(shipper)
            }
            None => None,
        };
        // Seed the event detector with the recovered ledger so a
        // journaled restart does not replay pre-crash counts as fresh
        // events.
        let seen = *relay.lock().expect("relay lock").ledger();
        let sched = Arc::new(Mutex::new(SchedState {
            ship_view: shipper.as_ref().map(|s| s.core.view()),
            passes: 0,
            journal_fault_logged: false,
            events: telemetry.events.clone(),
            seen,
        }));
        let shipper = Arc::new(Mutex::new(shipper));
        let params = Arc::new(Mutex::new(SchedParams {
            retention_ms: cfg.retention_ms,
            drain_every_ms: cfg.drain_every_ms.max(1),
        }));

        // --- ingest listener ----------------------------------------
        let ingest_listener = {
            let relay = Arc::clone(&relay);
            let update_hist = update_hist.clone();
            let run = run.clone();
            listen("ingest", &cfg.ingest, move |mut conn| {
                let relay = Arc::clone(&relay);
                let update_hist = update_hist.clone();
                let run = run.clone();
                let _ = std::thread::Builder::new()
                    .name("relay-ingest-conn".into())
                    .spawn(move || {
                        // Acknowledged ingest: per-frame ack /
                        // rebase-request replies once the peer says
                        // hello (every shipper does); a sender that
                        // never does gets one-way silence. Locks the
                        // relay per frame, not per connection; every
                        // applied frame rings the scheduler.
                        let _ = serve_acked_ingest_timed(
                            &mut conn,
                            &relay,
                            Some(&update_hist),
                            Some(&run),
                        );
                    });
            })?
        };

        // --- query listener ------------------------------------------
        let query_listener = {
            let relay = Arc::clone(&relay);
            let topo = topo.clone();
            let query_hist = query_hist.clone();
            listen("query", &cfg.query, move |conn| {
                let relay = Arc::clone(&relay);
                let topo = topo.clone();
                let query_hist = query_hist.clone();
                let _ = std::thread::Builder::new()
                    .name("relay-query-conn".into())
                    .spawn(move || {
                        // Lock per *request*, never per connection: an
                        // idle client sitting on an open connection
                        // must not starve ingest or the export
                        // scheduler. serve_framed keeps one reader for
                        // the connection's lifetime, so pipelined
                        // frames survive its read-ahead.
                        let _ = flowdist::framing::serve_framed(conn, |frame| {
                            let sw = Stopwatch::start();
                            let guard = relay.lock().expect("relay lock");
                            let relays = std::slice::from_ref(&*guard);
                            let router = QueryRouter::new(&topo, relays);
                            let out = answer_query(&router, &frame);
                            drop(guard);
                            sw.observe(&query_hist);
                            Some(out)
                        });
                    });
            })?
        };

        // --- export scheduler ----------------------------------------
        let clock = SteadyClock::new();
        let sched_join = {
            let relay = Arc::clone(&relay);
            let shipper = Arc::clone(&shipper);
            let sched = Arc::clone(&sched);
            let params = Arc::clone(&params);
            let run = run.clone();
            let clock = clock.clone();
            let tag = tag.clone();
            std::thread::Builder::new()
                .name("relay-sched".into())
                .spawn(move || loop {
                    let p = *params.lock().expect("params lock");
                    let due = {
                        let shipper = shipper.lock().expect("shipper lock");
                        let relay = relay.lock().expect("relay lock");
                        let core = shipper.as_ref().map(|s| &s.core);
                        next_pass_due(&relay, core, p.retention_ms, clock.now_ms())
                    };
                    if !run.wait(due.map(|ms| clock.instant_at(ms))) {
                        return;
                    }
                    let tick = params.lock().expect("params lock").drain_every_ms;
                    let at = pass_at(clock.now_ms(), tick);
                    if !run.sleep_until(clock.instant_at(at)) {
                        return;
                    }
                    let p = *params.lock().expect("params lock");
                    scheduler_pass(&relay, &shipper, &sched, &p, &clock, &tag, &run);
                })
                .map_err(RuntimeError::Spawn)?
        };

        // --- stats endpoint ------------------------------------------
        let ops = match &cfg.stats {
            Some(addr) => {
                let relay = Arc::clone(&relay);
                let sched = Arc::clone(&sched);
                let params = Arc::clone(&params);
                let run = run.clone();
                let name = cfg.name.clone();
                let role = if cfg.upstream.is_none() {
                    "root"
                } else {
                    "relay"
                };
                let agg_site = cfg.agg_site;
                let identity = format!("role {role}\nname {name}\nagg_site {agg_site}");
                let tel = telemetry.clone();
                Some(
                    spawn_ops(addr, move |req| {
                        tel.serve(
                            req,
                            || {
                                relay_stats(
                                    &tel,
                                    role,
                                    &name,
                                    agg_site,
                                    &observe(&relay, &sched, &params),
                                )
                            },
                            || relay_ops(&identity, &relay, &params, &run, &tel, req),
                        )
                    })
                    .map_err(|err| RuntimeError::Bind {
                        what: "stats",
                        addr: addr.clone(),
                        err,
                    })?,
                )
            }
            None => None,
        };

        Ok(NodeRuntime {
            name: cfg.name,
            tag,
            relay,
            shipper,
            sched,
            params,
            clock,
            run,
            ingest_listener,
            query_listener,
            sched_join: Some(sched_join),
            ops,
            recovery,
            rewound,
            upstream: cfg.upstream,
        })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bound ingest address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_listener.local_addr()
    }

    /// The bound query address.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_listener.local_addr()
    }

    /// The bound stats address, if a stats endpoint was configured.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|o| o.local_addr())
    }

    /// The journal recovery report, if the node booted from a state
    /// dir.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Unacked exports rewound at startup.
    pub fn rewound(&self) -> usize {
        self.rewound
    }

    /// A copy of the relay's work ledger.
    pub fn ledger(&self) -> RelayLedger {
        *self.relay.lock().expect("relay lock").ledger()
    }

    /// Export frames pending upstream acknowledgment as of the last
    /// scheduler pass.
    pub fn pending_len(&self) -> usize {
        let sched = self.sched.lock().expect("sched lock");
        sched.ship_view.map_or(0, |v| v.pending)
    }

    /// The node's current reloadable knobs (the baseline to mutate
    /// for a [`NodeRuntime::reload`]).
    pub fn reloadable(&self) -> NodeReload {
        reloadable(&self.relay, &self.params)
    }

    /// Applies a live reconfiguration: export mode/linger/base bound
    /// through [`Relay::set_export_config`], retention and grid
    /// through the scheduler. Takes effect on the next pass (the
    /// scheduler is woken immediately).
    pub fn reload(&self, r: NodeReload) {
        apply_reload(&self.relay, &self.params, r);
        self.run.notify();
        log(format_args!(
            "{}: reloaded — mode {:?}, linger {}ms, retention {}ms, grid {}ms, max-bases {}",
            self.tag, r.mode, r.linger_ms, r.retention_ms, r.drain_every_ms, r.max_bases
        ));
    }

    /// Runs one scheduler pass synchronously (what `--oneshot` and
    /// tests use instead of waiting for the scheduler).
    pub fn tick_now(&self) {
        let p = *self.params.lock().expect("params lock");
        let (relay, shipper, sched) = (&self.relay, &self.shipper, &self.sched);
        scheduler_pass(relay, shipper, sched, &p, &self.clock, &self.tag, &self.run);
    }

    /// Gracefully drains and stops the node (see the module docs).
    /// `deadline` bounds how long the flush may chase an unreachable
    /// upstream; whatever is still pending then stays in the spill
    /// queue (journaled, recovered by the next start).
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        log(format_args!("{}: draining", self.tag));
        let started = Instant::now();
        // 1. Stop intake: no new downstream (or query) connections.
        self.stop_accepting();
        // 2. Stop the scheduler so this drain is the only export path;
        //    a pass that is shipping halts within one bounded socket call.
        self.stop_scheduler();
        // 3. Flush every window with unshipped content through the
        //    normal shipper path (spill-before-send, ack-to-release) —
        //    the same journaled code a crash recovers through. A root
        //    has nobody to flush to and builds no frames.
        let shipper = self.shipper.lock().expect("shipper lock").take();
        let (flushed, pending_at_exit) = match shipper {
            Some(mut shipper) => {
                let due = self.relay.lock().expect("relay lock").flush_exports();
                let flushed = due.len();
                enqueue_exports(&self.relay, &mut shipper, due, &self.tag);
                let left = deadline.saturating_sub(started.elapsed());
                let pending = shipper.flush(&self.clock, left, |ev| {
                    self.relay.lock().expect("relay lock").on_ship_event(ev)
                });
                (flushed, pending)
            }
            None => (0, 0),
        };
        let ledger = *self.relay.lock().expect("relay lock").ledger();
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
        log(format_args!(
            "{}: drain complete — {flushed} flushed, {pending_at_exit} still pending",
            self.tag
        ));
        DrainReport {
            flushed,
            pending_at_exit,
            ledger,
        }
    }

    /// Stops the node without flushing. The journal (if any) keeps
    /// this safe; it is just not graceful.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        self.stop_scheduler();
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }

    /// Whether this node ships upstream (false = root).
    pub fn has_upstream(&self) -> bool {
        self.upstream.is_some()
    }

    /// Stops both listeners and frees their ports (new downstream and
    /// query connections are refused; open ones keep being served).
    fn stop_accepting(&mut self) {
        self.ingest_listener.stop();
        self.query_listener.stop();
    }

    fn stop_scheduler(&mut self) {
        self.run.stop();
        if let Some(j) = self.sched_join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.stop_accepting();
        self.stop_scheduler();
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }
}

/// Binds `addr` and serves each accepted connection with `on_conn` on
/// the accept loop `relay-<what>`.
fn listen(
    what: &'static str,
    addr: &str,
    on_conn: impl FnMut(TcpStream) + Send + 'static,
) -> Result<AcceptLoop, RuntimeError> {
    let bind = |err| RuntimeError::Bind {
        what,
        addr: addr.to_string(),
        err,
    };
    let listener = TcpListener::bind(addr).map_err(bind)?;
    spawn_accept_loop(&format!("relay-{what}"), listener, on_conn).map_err(bind)
}

/// When the scheduler next has work, from state alone: the earliest of
/// the next window export (only on a node that ships — a root exports
/// nothing), the shipper's own deadline (reconnect backoff, ack stall)
/// and the next retention eviction. `None`: nothing until an event.
fn next_pass_due(
    relay: &Relay,
    shipper: Option<&ShipperCore>,
    retention_ms: u64,
    now_ms: u64,
) -> Option<u64> {
    let export = shipper.and_then(|_| relay.next_export_due());
    let ship = shipper.and_then(|s| s.next_deadline(now_ms));
    let evict = relay.next_eviction_due(retention_ms);
    [export, ship, evict].into_iter().flatten().min()
}

/// When the pass a wake at `wake_ms` calls for runs: the first multiple
/// of `grid_ms` (`drain-every-ms`) at or after the wake. Work that
/// comes due within one grid step shares a pass, exactly as on a fixed
/// tick of that period.
fn pass_at(wake_ms: u64, grid_ms: u64) -> u64 {
    let grid = grid_ms.max(1);
    wake_ms.div_ceil(grid).saturating_mul(grid)
}

/// One scheduler pass: drain due windows and ship them (a root has no
/// upstream and drains nothing), apply retention, surface a degraded
/// journal once. The shipping halts once `run` is stopped.
fn scheduler_pass(
    relay: &Arc<Mutex<Relay>>,
    shipper: &Mutex<Option<ExportShipper>>,
    sched: &Mutex<SchedState>,
    params: &SchedParams,
    clock: &SteadyClock,
    tag: &str,
    run: &Wake,
) {
    sched.lock().expect("sched lock").passes += 1;
    let now = clock.now_ms();
    // A root exports to nobody: no merge, no diff, no encode and no
    // pinned delta base per window.
    if let Some(shipper) = shipper.lock().expect("shipper lock").as_mut() {
        let due = relay.lock().expect("relay lock").drain_exports_at(now);
        enqueue_exports(relay, shipper, due, tag);
        shipper.pump(
            now,
            || run.is_stopped(),
            |ev| relay.lock().expect("relay lock").on_ship_event(ev),
        );
        sched.lock().expect("sched lock").ship_view = Some(shipper.core.view());
    }
    if params.retention_ms > 0 {
        let cutoff = now.saturating_sub(params.retention_ms);
        let evicted = relay
            .lock()
            .expect("relay lock")
            .evict_windows_before(cutoff);
        if evicted > 0 {
            log(format_args!(
                "{tag}: retention evicted {evicted} windows older than {cutoff}ms"
            ));
        }
    }
    let mut st = sched.lock().expect("sched lock");
    if !st.journal_fault_logged {
        if let Some(err) = relay.lock().expect("relay lock").journal_error() {
            log(format_args!(
                "{tag}: JOURNAL DEGRADED (still serving, no longer crash-safe): {err}"
            ));
            st.journal_fault_logged = true;
        }
    }
    note_ledger_events(relay, &mut st, now);
}

/// Turns ledger-counter movement since the last pass into `/events`
/// entries — the *why* behind the counters (a delta fell back to a
/// full frame, a window rebased, the spill bound shed exports).
fn note_ledger_events(relay: &Arc<Mutex<Relay>>, sched: &mut SchedState, ts_ms: u64) {
    let l = *relay.lock().expect("relay lock").ledger();
    let seen = sched.seen;
    let events = &sched.events;
    let emit = |kind: &'static str, delta: u64| {
        if delta > 0 {
            events.push(ts_ms, kind, format!("count {delta}"));
        }
    };
    emit(
        "delta_fallback",
        l.delta_fallbacks.saturating_sub(seen.delta_fallbacks),
    );
    emit("base_loss", l.base_losses.saturating_sub(seen.base_losses));
    emit(
        "rebase",
        l.rebase_rewinds.saturating_sub(seen.rebase_rewinds),
    );
    emit("spill_shed", l.spill_sheds.saturating_sub(seen.spill_sheds));
    sched.seen = l;
}

/// Queues drained exports with the shipper, each encoded once. A frame
/// the spill bound shed rewinds its window, so the next drain heals
/// the loss with a full rebasing frame, and the shed is counted in the
/// ledger.
fn enqueue_exports(
    relay: &Mutex<Relay>,
    shipper: &mut ExportShipper,
    due: Vec<Summary>,
    tag: &str,
) {
    let before = shipper.core.spill_stats();
    let mut shed: Vec<u64> = Vec::new();
    for e in due {
        match shipper.core.enqueue(e.encode()) {
            Ok(windows) => shed.extend(windows),
            Err(err) => log(format_args!(
                "{tag}: export frame refused by the shipper: {err}"
            )),
        }
    }
    let after = shipper.core.spill_stats();
    let frames = after.shed_frames.saturating_sub(before.shed_frames);
    let bytes = after.shed_bytes.saturating_sub(before.shed_bytes);
    if shed.is_empty() && frames == 0 && bytes == 0 {
        return;
    }
    let mut guard = relay.lock().expect("relay lock");
    for w in &shed {
        guard.mark_unshipped(*w);
    }
    guard.note_spill_shed(frames, bytes);
    drop(guard);
    log(format_args!(
        "{tag}: spill bound shed {} old exports; their windows will rebase",
        shed.len()
    ));
}

/// One coherent observation of the node, gathered under the relay and
/// scheduler locks once per stats request — what [`relay_stats`] lists.
struct ObsSnap {
    export: ExportConfig,
    params: SchedParams,
    passes: u64,
    journal_degraded: bool,
    ledger: RelayLedger,
    stored_windows: usize,
    lag_ms: u64,
    ship: Option<ShipperView>,
    views: ViewCacheStats,
}

fn observe(
    relay: &Arc<Mutex<Relay>>,
    sched: &Mutex<SchedState>,
    params: &Arc<Mutex<SchedParams>>,
) -> ObsSnap {
    let now_ms = epoch_ms();
    let (ledger, export, journal_degraded, stored_windows, lag_ms, views) = {
        let guard = relay.lock().expect("relay lock");
        (
            *guard.ledger(),
            *guard.export_config(),
            guard.journal_error().is_some(),
            guard.stored_window_count(),
            guard.export_watermark_lag_ms(now_ms),
            guard.collector().view_cache_stats(),
        )
    };
    let p = *params.lock().expect("params lock");
    let (ship, passes) = {
        let st = sched.lock().expect("sched lock");
        (st.ship_view, st.passes)
    };
    ObsSnap {
        export,
        params: p,
        passes,
        journal_degraded,
        ledger,
        stored_windows,
        // A root never exports, so nothing it stores is "unexported".
        lag_ms: if ship.is_some() { lag_ms } else { 0 },
        ship,
        views,
    }
}

/// The relay node's one stats list: every key of the plaintext page and
/// `/stats.json` in order (key set and order are the pre-JSON page's),
/// and every `/metrics` series except the registry-native histograms.
fn relay_stats(tel: &NodeTelemetry, role: &str, name: &str, agg_site: u16, o: &ObsSnap) -> Stats {
    let mut s = tel.stats(role, name);
    s.kv("role", role);
    s.kv("name", name);
    s.kv("agg_site", u64::from(agg_site));
    s.kv("mode", format!("{:?}", o.export.mode).to_lowercase());
    s.kv("linger_ms", o.export.linger_ms);
    s.kv("retention_ms", o.params.retention_ms);
    s.kv("drain_every_ms", o.params.drain_every_ms);
    s.kv("max_bases", o.export.max_bases);
    s.kv("journal_degraded", o.journal_degraded);
    let l = &o.ledger;
    s.kv("frames", l.frames).counter(
        "flowtree_relay_frames_total",
        "Downstream summary frames accepted.",
    );
    s.kv("site_frames", l.site_frames).counter(
        "flowtree_relay_site_frames_total",
        "Sites' own frames among them (provenance exactly the exporter).",
    );
    s.kv("agg_frames", l.agg_frames).counter(
        "flowtree_relay_agg_frames_total",
        "Child relays' aggregates among them.",
    );
    s.kv("rejected", l.rejected).counter(
        "flowtree_relay_rejected_total",
        "Frames rejected (malformed, without an epoch, coverage violations, overlaps).",
    );
    s.kv("replayed", l.replayed).counter(
        "flowtree_relay_replayed_total",
        "At-least-once replays recognized and acked without re-applying.",
    );
    s.kv("exported", l.exported).counter(
        "flowtree_relay_exported_total",
        "Aggregates exported upstream (full and delta frames).",
    );
    s.kv("exported_bytes", l.exported_bytes).counter(
        "flowtree_relay_exported_bytes_total",
        "Encoded bytes of those exports.",
    );
    s.kv("full_exports", l.full_exports).counter(
        "flowtree_relay_full_exports_total",
        "Full frames among the exports.",
    );
    s.kv("delta_exports", l.delta_exports).counter(
        "flowtree_relay_delta_exports_total",
        "Delta frames among the exports.",
    );
    s.kv("delta_fallbacks", l.delta_fallbacks).counter(
        "flowtree_relay_delta_fallbacks_total",
        "Deltas that fell back to full frames.",
    );
    s.kv("base_losses", l.base_losses).counter(
        "flowtree_relay_base_losses_total",
        "Fallbacks caused by a dropped re-aggregation base.",
    );
    s.kv("late_downstream", l.late_downstream).counter(
        "flowtree_relay_late_downstream_total",
        "Frames accepted for windows already exported upstream.",
    );
    s.kv("rebase_requests", l.rebase_requests).counter(
        "flowtree_relay_rebase_requests_total",
        "Deltas whose declared base was ahead; answered with a rebase-request.",
    );
    s.kv("rebase_rewinds", l.rebase_rewinds).counter(
        "flowtree_relay_rebase_rewinds_total",
        "Windows rewound to full rebasing re-exports on downstream request.",
    );
    s.kv("reconnect_attempts", l.reconnect_attempts).counter(
        "flowtree_relay_reconnect_attempts_total",
        "Upstream connection attempts by the export shipper.",
    );
    s.kv("reconnect_failures", l.reconnect_failures).counter(
        "flowtree_relay_reconnect_failures_total",
        "Failed connection attempts among them.",
    );
    s.kv("backoff_ms_total", l.backoff_ms_total).counter(
        "flowtree_relay_backoff_ms_total",
        "Milliseconds the shipper backed off between attempts.",
    );
    s.kv("spill_sheds", l.spill_sheds).counter(
        "flowtree_relay_spill_sheds_total",
        "Pending exports shed by the spill byte bound.",
    );
    s.kv("spill_shed_bytes", l.spill_shed_bytes).counter(
        "flowtree_relay_spill_shed_bytes_total",
        "Payload bytes those shed frames carried.",
    );
    shipper_stats(&mut s, o.ship.as_ref());
    // Observability-layer keys, appended so legacy scrapers keep their
    // line positions.
    s.kv("stored_windows", o.stored_windows).gauge(
        "flowtree_stored_windows",
        "Windows the export scheduler currently tracks.",
    );
    s.kv("export_watermark_lag_ms", o.lag_ms);
    s.metric(o.lag_ms / 1_000).gauge(
        "flowtree_export_watermark_lag_seconds",
        "Age of the oldest window with unexported content (0 = keeping up).",
    );
    s.kv(
        "export_pending_bytes",
        o.ship.map_or(0, |v| v.pending_bytes),
    )
    .gauge(
        "flowtree_spill_pending_bytes",
        "Payload bytes the pending exports hold in the spill queue.",
    );
    s.kv("max_base_nodes", o.export.max_base_nodes);
    // The merged-view cache: why a query cost what it did.
    let v = &o.views;
    s.kv("view_hits", v.hits).counter(
        "flowtree_view_hits_total",
        "Queries answered from a cached merged view as it was.",
    );
    s.kv("view_extends", v.extends).counter(
        "flowtree_view_extends_total",
        "Cached views extended with newly stored windows on a query.",
    );
    s.kv("view_delta_extends", v.delta_extends).counter(
        "flowtree_view_delta_extends_total",
        "Cached views that absorbed an applied delta frame in place.",
    );
    s.kv("view_rebuilds", v.rebuilds).counter(
        "flowtree_view_rebuilds_total",
        "Merged views built from the stored windows (first use or after invalidation).",
    );
    s.kv("view_evictions", v.evictions).counter(
        "flowtree_view_evictions_total",
        "Cached views dropped to fit the view node budget or entry cap.",
    );
    s.kv("view_cached_nodes", v.cached_nodes as u64).gauge(
        "flowtree_view_cached_nodes",
        "Tree nodes held across the cached merged views.",
    );
    s.kv("view_relayouts", v.relayouts).counter(
        "flowtree_view_relayouts_total",
        "Cached views re-laid out in pre-order after a compaction.",
    );
    s.kv("sched_passes", o.passes).counter(
        "flowtree_sched_passes_total",
        "Export-scheduler passes run (each follows an event or a deadline).",
    );
    s
}

/// The relay node's own ops routes, next to the shared ones
/// ([`NodeTelemetry::serve`]): `/health` (after the `role`, `name` and
/// `agg_site` lines in `identity`) and `POST /reload`.
fn relay_ops(
    identity: &str,
    relay: &Arc<Mutex<Relay>>,
    params: &Arc<Mutex<SchedParams>>,
    run: &Wake,
    tel: &NodeTelemetry,
    req: &OpsRequest,
) -> OpsResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let healthy = relay.lock().expect("relay lock").journal_error().is_none();
            OpsResponse::ok(format!("ok {healthy}\n{identity}\n{}", tel.health_tail()))
        }
        ("POST", "/reload") => {
            let outcome = relay_reload(&req.body, relay, params);
            if outcome.is_ok() {
                run.notify();
            }
            tel.reloaded(outcome)
        }
        _ => OpsResponse::not_found(),
    }
}

/// Applies a `POST /reload` body ([`NodeReload::parse`]) to the live
/// node.
fn relay_reload(
    body: &str,
    relay: &Arc<Mutex<Relay>>,
    params: &Arc<Mutex<SchedParams>>,
) -> Result<String, String> {
    let (r, reply) = reloadable(relay, params).parse(body.lines())?;
    apply_reload(relay, params, r);
    Ok(reply)
}

/// The node's current reloadable knobs.
fn reloadable(relay: &Mutex<Relay>, params: &Mutex<SchedParams>) -> NodeReload {
    let p = *params.lock().expect("params lock");
    let e = *relay.lock().expect("relay lock").export_config();
    NodeReload {
        mode: e.mode,
        linger_ms: e.linger_ms,
        retention_ms: p.retention_ms,
        drain_every_ms: p.drain_every_ms,
        max_bases: e.max_bases,
        max_base_nodes: e.max_base_nodes,
    }
}

/// Applies `r` to the relay's export config and the scheduler params.
fn apply_reload(relay: &Mutex<Relay>, params: &Mutex<SchedParams>, r: NodeReload) {
    relay
        .lock()
        .expect("relay lock")
        .set_export_config(ExportConfig {
            mode: r.mode,
            linger_ms: r.linger_ms,
            max_bases: r.max_bases.max(1),
            max_base_nodes: r.max_base_nodes.max(1),
        });
    let mut p = params.lock().expect("params lock");
    p.retention_ms = r.retention_ms;
    p.drain_every_ms = r.drain_every_ms.max(1);
}

impl NodeReload {
    /// Applies `key=value` items ([`parse_reload`]) to a copy of these
    /// knobs: keys `mode` (`full` or `delta`), `linger-ms`,
    /// `retention-ms`, `drain-every-ms`, `max-bases` and
    /// `max-base-nodes`. The one reload grammar of a relay, behind
    /// `POST /reload`, `relayd`'s stdin `reload` and `flowctl`'s
    /// `reload`. All-or-nothing: a malformed item, an unknown key or a
    /// bad value is the error. `Ok` carries the knobs and the reply.
    pub fn parse<'a>(
        self,
        items: impl IntoIterator<Item = &'a str>,
    ) -> Result<(NodeReload, String), String> {
        let mut r = self;
        let reply = parse_reload(items, |k, v| {
            match k {
                "mode" => {
                    r.mode = match v {
                        "full" => ExportMode::Full,
                        "delta" => ExportMode::Delta,
                        _ => return Err(format!("mode must be full or delta, got {v}")),
                    }
                }
                "linger-ms" => r.linger_ms = reload_u64(k, v)?,
                "retention-ms" => r.retention_ms = reload_u64(k, v)?,
                "drain-every-ms" => r.drain_every_ms = reload_u64(k, v)?,
                "max-bases" => r.max_bases = reload_u64(k, v)? as usize,
                "max-base-nodes" => r.max_base_nodes = reload_u64(k, v)? as usize,
                _ => return Err(format!("unknown reload key: {k}")),
            }
            Ok(())
        })?;
        Ok((r, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdist::{EpochHeader, Lineage, SummaryKind, WindowId};
    use flowtree_core::{FlowTree, Popularity};

    const SPAN: u64 = 1_000;

    fn site_frame(site: u16, window: u64) -> Summary {
        let mut tree = FlowTree::new(
            flowkey::Schema::five_feature(),
            flowtree_core::Config::with_budget(4_096),
        );
        let key: flowkey::FlowKey =
            format!("src=10.{site}.0.1/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                .parse()
                .unwrap();
        tree.insert(&key, Popularity::new(3, 300, 1));
        Summary {
            site,
            window: WindowId {
                start_ms: window * SPAN,
                span_ms: SPAN,
            },
            seq: 1,
            kind: SummaryKind::Full,
            lineage: Some(Lineage {
                provenance: vec![site],
                epoch: EpochHeader {
                    epoch: 1,
                    base: None,
                },
            }),
            tree,
        }
    }

    fn relay(linger_ms: u64) -> Relay {
        Relay::new(RelayConfig {
            name: "r".into(),
            agg_site: 1_000,
            expected: vec![0, 1],
            schema: flowkey::Schema::five_feature(),
            tree: flowtree_core::Config::with_budget(4_096),
            export: ExportConfig {
                linger_ms,
                ..ExportConfig::default()
            },
        })
    }

    fn shipper() -> ShipperCore {
        ShipperCore::new(
            &ShipperConfig::new("127.0.0.1:1"),
            SpillQueue::in_memory(SpillConfig::default()),
            1,
        )
    }

    #[test]
    fn pass_at_rounds_a_wake_up_to_the_grid() {
        assert_eq!(pass_at(0, 10), 0);
        assert_eq!(pass_at(1, 10), 10);
        assert_eq!(pass_at(10, 10), 10, "a wake on the grid runs at once");
        assert_eq!(pass_at(1_234_567, 10), 1_234_570);
        assert_eq!(pass_at(1_234_567, 1), 1_234_567);
        assert_eq!(pass_at(5, 0), 5, "a zero grid is one millisecond");
        assert_eq!(pass_at(u64::MAX - 3, 10), u64::MAX, "saturates");
    }

    #[test]
    fn next_pass_due_is_the_earliest_deadline() {
        let mut r = relay(200);
        let mut ship = shipper();
        // Nothing stored, nothing pending: sleep until an event.
        assert_eq!(next_pass_due(&r, Some(&ship), 86_400_000, 0), None);
        assert_eq!(next_pass_due(&r, None, 0, 0), None);

        r.apply(site_frame(0, 4)).unwrap();
        // A shipping node wakes for the export (window end + linger); a
        // root exports nothing and wakes only for retention.
        assert_eq!(
            next_pass_due(&r, Some(&ship), 86_400_000, 0),
            Some(5 * SPAN + 200)
        );
        assert_eq!(next_pass_due(&r, None, 0, 0), None);
        assert_eq!(next_pass_due(&r, None, 60_000, 0), Some(4 * SPAN + 60_001));
        // Retention shorter than the linger wins.
        assert_eq!(
            next_pass_due(&r, Some(&ship), 1_000, 0),
            Some(4 * SPAN + 1_001)
        );

        // A pending frame the shipper has not tried to send yet is
        // due at once, ahead of any export or eviction.
        ship.enqueue(r.flush_exports()[0].encode()).unwrap();
        assert_eq!(next_pass_due(&r, Some(&ship), 0, 0), Some(0));
    }

    /// The one reload grammar of a relay: every key applies,
    /// `max-base-nodes` included, from words or from a `POST /reload`
    /// body; an unknown key or a bad `mode` applies nothing.
    #[test]
    fn reload_grammar_is_all_or_nothing() {
        let relay = Arc::new(Mutex::new(relay(200)));
        let params = Arc::new(Mutex::new(SchedParams {
            retention_ms: 7,
            drain_every_ms: 9,
        }));
        let before = reloadable(&relay, &params);
        let items = "mode=full linger-ms=10 retention-ms=20 drain-every-ms=30 \
                     max-bases=40 max-base-nodes=50";
        let (r, reply) = before.parse(items.split_whitespace()).unwrap();
        let want = NodeReload {
            mode: ExportMode::Full,
            linger_ms: 10,
            retention_ms: 20,
            drain_every_ms: 30,
            max_bases: 40,
            max_base_nodes: 50,
        };
        assert_eq!(r, want);
        assert_eq!(reply.split_whitespace().count(), 7, "{reply}");
        for bad in ["mode=fast", "bogus=1", "linger-ms=soon", "linger-ms"] {
            let body = format!("linger-ms=10\nmax-base-nodes=50\n{bad}\n");
            assert!(before.parse(["max-bases=40", bad]).is_err(), "{bad}");
            assert!(relay_reload(&body, &relay, &params).is_err(), "{bad}");
            assert_eq!(reloadable(&relay, &params), before, "{bad} applied");
        }
        let body = items.split_whitespace().collect::<Vec<_>>().join("\n");
        assert_eq!(relay_reload(&body, &relay, &params), Ok(reply));
        assert_eq!(reloadable(&relay, &params), want);
    }

    /// The scheduler's retention step used to journal an `Evict` record
    /// on every pass, evicting or not (and fsync it under `--fsync
    /// always`). A pass that evicts nothing now writes nothing.
    #[test]
    fn idle_passes_of_a_journaled_relay_write_nothing() {
        let dir = std::env::temp_dir().join(format!("flowrelay-idle-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = NodeConfig::new("idle");
        cfg.state_dir = Some(dir.clone());
        cfg.sites = vec![0, 1];
        cfg.fsync = FsyncPolicy::Always;
        let node = NodeRuntime::start(cfg).unwrap();
        let now_window = node.clock.now_ms() / SPAN;
        node.relay
            .lock()
            .unwrap()
            .apply(site_frame(0, now_window))
            .unwrap();
        let wal_bytes = || -> u64 {
            std::fs::read_dir(dir.join("journal"))
                .unwrap()
                .map(|e| e.unwrap())
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .map(|e| e.metadata().unwrap().len())
                .sum()
        };
        let before = wal_bytes();
        assert!(before > 0, "the applied frame is journaled");
        for _ in 0..5 {
            node.tick_now();
        }
        assert_eq!(wal_bytes(), before, "idle passes appended to the WAL");
        assert_eq!(node.ledger().frames, 1);
        node.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
