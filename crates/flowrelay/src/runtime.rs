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
//! * **`reload`** applies a [`NodeReload`] — export mode, linger,
//!   retention, scheduler tick — live, without dropping a socket or a
//!   window. The same deltas arrive over the stats endpoint as
//!   `POST /reload` with `key=value` lines.
//! * **`drain`** is the graceful exit: stop accepting downstreams,
//!   run the scheduler down, flush every window with unshipped
//!   content, and push the pending queue through the acknowledged
//!   shipper until it is empty or the deadline passes. A `kill -9`
//!   anywhere in that sequence recovers byte-identical through the
//!   journal — drain uses only the journaled paths.
//! * **`shutdown`** exits without flushing (the journal still makes
//!   it safe; it is just not graceful).
//! * The **stats endpoint** (when configured) serves `GET /health`,
//!   `POST /reload`, and the pages rendered from the node's one stats
//!   list (`relay_stats`: the full [`RelayLedger`] including the
//!   spill-shed counters, shipper and spill-queue state, export
//!   config), each counter declared once: `GET /stats` (plaintext
//!   `key value` lines), `/stats.json` and `/metrics`.

use crate::export::{ExportShipper, ShipperConfig, ShipperStats};
use crate::journal::{JournalConfig, RecoveryReport};
use crate::plan::QueryRouter;
use crate::relay::{ExportConfig, ExportMode, Relay, RelayConfig, RelayLedger};
use crate::server::{answer_query, serve_acked_ingest_timed};
use crate::topology::{RelaySpec, RelayTopology};
use crate::{BackoffConfig, SteadyClock};
use flowdist::ops::{
    parse_reload, reload_u64, spawn_ops, NodeTelemetry, OpsHandle, OpsRequest, OpsResponse,
};
use flowdist::{epoch_ms, FsyncPolicy, SpillConfig, SpillQueue, SpillStats};
use flowmetrics::{EventRing, Stats, Stopwatch};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Export-scheduler tick (ms).
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
    /// Scheduler tick (ms).
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

/// Runtime logging that survives a closed stderr: a supervisor (or a
/// test harness) dropping the pipe must degrade logging, never kill
/// the node mid-export (`eprintln!` panics on a broken pipe).
fn log(msg: core::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr(), "{msg}");
}

/// Parameters the scheduler re-reads every tick (reload targets that
/// do not live inside [`Relay`]'s own export config).
#[derive(Debug, Clone, Copy)]
struct SchedParams {
    retention_ms: u64,
    drain_every_ms: u64,
}

/// State owned by the scheduler pass, shared with drain and the stats
/// endpoint.
struct SchedState {
    shipper: Option<ExportShipper>,
    journal_fault_logged: bool,
    /// Where scheduler-detected operational events land (`/events`).
    events: EventRing,
    /// Ledger counters as of the last event sweep — the deltas become
    /// events.
    seen: LedgerSeen,
}

/// The ledger counters the event detector watches. Only *changes*
/// matter; the absolute values already live in the ledger itself.
#[derive(Debug, Clone, Copy, Default)]
struct LedgerSeen {
    delta_fallbacks: u64,
    base_losses: u64,
    rebase_rewinds: u64,
    spill_sheds: u64,
}

impl LedgerSeen {
    fn of(l: &RelayLedger) -> LedgerSeen {
        LedgerSeen {
            delta_fallbacks: l.delta_fallbacks,
            base_losses: l.base_losses,
            rebase_rewinds: l.rebase_rewinds,
            spill_sheds: l.spill_sheds,
        }
    }
}

/// One running relay node (see the module docs).
pub struct NodeRuntime {
    name: String,
    tag: String,
    ingest_addr: SocketAddr,
    query_addr: SocketAddr,
    relay: Arc<Mutex<Relay>>,
    sched: Arc<Mutex<SchedState>>,
    params: Arc<Mutex<SchedParams>>,
    clock: SteadyClock,
    /// `(stopping, wake)` — the scheduler parks on the condvar with
    /// the tick as timeout, so shutdown and reload wake it instantly.
    run: Arc<(Mutex<bool>, Condvar)>,
    accept_stop: Arc<AtomicBool>,
    ingest_join: Option<std::thread::JoinHandle<()>>,
    query_join: Option<std::thread::JoinHandle<()>>,
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
                        upstream: addr.clone(),
                        handshake_ms: 1_000,
                        stall_ms: cfg.ack_stall_ms,
                        tree: flowtree_core::Config::with_budget(cfg.budget),
                        backoff: BackoffConfig {
                            base_ms: cfg.reconnect_base_ms,
                            max_ms: cfg.reconnect_max_ms,
                        },
                    },
                    spill,
                    u64::from(cfg.agg_site) ^ (u64::from(std::process::id()) << 17),
                );
                shipper.set_rtt_histogram(telemetry.registry.histogram(
                    "flowtree_export_rtt_seconds",
                    "Ship-to-ack round trip of one export frame (first wire write to releasing ack).",
                ));
                Some(shipper)
            }
            None => None,
        };
        // Seed the event detector with the recovered ledger so a
        // journaled restart does not replay pre-crash counts as fresh
        // events.
        let seen = LedgerSeen::of(relay.lock().expect("relay lock").ledger());
        let sched = Arc::new(Mutex::new(SchedState {
            shipper,
            journal_fault_logged: false,
            events: telemetry.events.clone(),
            seen,
        }));
        let params = Arc::new(Mutex::new(SchedParams {
            retention_ms: cfg.retention_ms,
            drain_every_ms: cfg.drain_every_ms.max(1),
        }));

        // --- ingest listener (accept-poll, so drain can close it) ----
        let accept_stop = Arc::new(AtomicBool::new(false));
        let ingest = TcpListener::bind(&cfg.ingest).map_err(|err| RuntimeError::Bind {
            what: "ingest",
            addr: cfg.ingest.clone(),
            err,
        })?;
        let ingest_addr = ingest.local_addr().map_err(|err| RuntimeError::Bind {
            what: "ingest",
            addr: cfg.ingest.clone(),
            err,
        })?;
        let ingest_join = {
            let relay = Arc::clone(&relay);
            let stop = Arc::clone(&accept_stop);
            let update_hist = update_hist.clone();
            spawn_accept_loop("relay-ingest", ingest, stop, move |mut conn| {
                let relay = Arc::clone(&relay);
                let update_hist = update_hist.clone();
                let _ = std::thread::Builder::new()
                    .name("relay-ingest-conn".into())
                    .spawn(move || {
                        // Acknowledged ingest: per-frame ack /
                        // rebase-request replies once the peer says
                        // hello; pure one-way v1–v3 senders get
                        // exactly the legacy silence. Locks the relay
                        // per frame, not per connection.
                        let _ = serve_acked_ingest_timed(&mut conn, &relay, Some(&update_hist));
                    });
            })
            .map_err(|err| RuntimeError::Bind {
                what: "ingest",
                addr: cfg.ingest.clone(),
                err,
            })?
        };

        // --- query listener ------------------------------------------
        let queries = TcpListener::bind(&cfg.query).map_err(|err| RuntimeError::Bind {
            what: "query",
            addr: cfg.query.clone(),
            err,
        })?;
        let query_addr = queries.local_addr().map_err(|err| RuntimeError::Bind {
            what: "query",
            addr: cfg.query.clone(),
            err,
        })?;
        let query_join = {
            let relay = Arc::clone(&relay);
            let topo = topo.clone();
            let stop = Arc::clone(&accept_stop);
            let query_hist = query_hist.clone();
            spawn_accept_loop("relay-query", queries, stop, move |conn| {
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
            })
            .map_err(|err| RuntimeError::Bind {
                what: "query",
                addr: cfg.query.clone(),
                err,
            })?
        };

        // --- export scheduler ----------------------------------------
        let clock = SteadyClock::new();
        let run = Arc::new((Mutex::new(false), Condvar::new()));
        let sched_join = {
            let relay = Arc::clone(&relay);
            let sched = Arc::clone(&sched);
            let params = Arc::clone(&params);
            let run = Arc::clone(&run);
            let clock = clock.clone();
            let tag = tag.clone();
            std::thread::Builder::new()
                .name("relay-sched".into())
                .spawn(move || {
                    let (stop_lock, wake) = &*run;
                    loop {
                        let tick = params.lock().expect("params lock").drain_every_ms;
                        let stopped = {
                            let guard = stop_lock.lock().expect("run lock");
                            let (guard, _) = wake
                                .wait_timeout(guard, Duration::from_millis(tick))
                                .expect("run lock");
                            *guard
                        };
                        if stopped {
                            return;
                        }
                        let p = *params.lock().expect("params lock");
                        scheduler_pass(
                            &relay,
                            &mut sched.lock().expect("sched lock"),
                            &p,
                            &clock,
                            &tag,
                        );
                    }
                })
                .map_err(|err| RuntimeError::Bind {
                    what: "ingest",
                    addr: "scheduler thread".into(),
                    err,
                })?
        };

        // --- stats endpoint ------------------------------------------
        let ops = match &cfg.stats {
            Some(addr) => {
                let relay = Arc::clone(&relay);
                let sched = Arc::clone(&sched);
                let params = Arc::clone(&params);
                let run = Arc::clone(&run);
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
                        tel.serve(req, || {
                            relay_stats(
                                &tel,
                                role,
                                &name,
                                agg_site,
                                &observe(&relay, &sched, &params),
                            )
                        })
                        .unwrap_or_else(|| relay_ops(&identity, &relay, &params, &run, &tel, req))
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
            ingest_addr,
            query_addr,
            relay,
            sched,
            params,
            clock,
            run,
            accept_stop,
            ingest_join: Some(ingest_join),
            query_join: Some(query_join),
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
        self.ingest_addr
    }

    /// The bound query address.
    pub fn query_addr(&self) -> SocketAddr {
        self.query_addr
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

    /// Export frames currently pending upstream acknowledgment.
    pub fn pending_len(&self) -> usize {
        self.sched
            .lock()
            .expect("sched lock")
            .shipper
            .as_ref()
            .map(|s| s.pending_len())
            .unwrap_or(0)
    }

    /// The node's current reloadable knobs (the baseline to mutate
    /// for a [`NodeRuntime::reload`]).
    pub fn reloadable(&self) -> NodeReload {
        let p = *self.params.lock().expect("params lock");
        let relay = self.relay.lock().expect("relay lock");
        let e = relay.export_config();
        NodeReload {
            mode: e.mode,
            linger_ms: e.linger_ms,
            retention_ms: p.retention_ms,
            drain_every_ms: p.drain_every_ms,
            max_bases: e.max_bases,
            max_base_nodes: e.max_base_nodes,
        }
    }

    /// Applies a live reconfiguration: export mode/linger/base bound
    /// through [`Relay::set_export_config`], retention and tick
    /// through the scheduler. Takes effect on the next pass (the
    /// scheduler is woken immediately).
    pub fn reload(&self, r: NodeReload) {
        {
            let mut relay = self.relay.lock().expect("relay lock");
            let export = ExportConfig {
                mode: r.mode,
                linger_ms: r.linger_ms,
                max_bases: r.max_bases.max(1),
                max_base_nodes: r.max_base_nodes.max(1),
            };
            relay.set_export_config(export);
        }
        {
            let mut p = self.params.lock().expect("params lock");
            p.retention_ms = r.retention_ms;
            p.drain_every_ms = r.drain_every_ms.max(1);
        }
        self.run.1.notify_all();
        log(format_args!(
            "{}: reloaded — mode {:?}, linger {}ms, retention {}ms, tick {}ms, max-bases {}",
            self.tag, r.mode, r.linger_ms, r.retention_ms, r.drain_every_ms, r.max_bases
        ));
    }

    /// Runs one scheduler pass synchronously (what `--oneshot` and
    /// tests use instead of waiting out a tick).
    pub fn tick_now(&self) {
        let p = *self.params.lock().expect("params lock");
        scheduler_pass(
            &self.relay,
            &mut self.sched.lock().expect("sched lock"),
            &p,
            &self.clock,
            &self.tag,
        );
    }

    /// Gracefully drains and stops the node (see the module docs).
    /// `deadline` bounds how long the flush may chase an unreachable
    /// upstream; whatever is still pending then stays in the spill
    /// queue (journaled, recovered by the next start).
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        log(format_args!("{}: draining", self.tag));
        // 1. Stop intake: no new downstream (or query) connections.
        self.stop_accepting();
        // 2. Stop the scheduler so this drain is the only export path.
        self.stop_scheduler();
        // 3. Flush every window with unshipped content through the
        //    normal shipper path (spill-before-send, ack-to-release) —
        //    the same journaled code a crash recovers through. A root
        //    has nobody to flush to and builds no frames.
        let mut sched = self.sched.lock().expect("sched lock");
        let (flushed, pending_at_exit) = match sched.shipper.as_mut() {
            Some(shipper) => {
                let due = self.relay.lock().expect("relay lock").flush_exports();
                let before = shipper.spill_stats();
                for e in &due {
                    let shed = shipper.enqueue(e);
                    if !shed.is_empty() {
                        let mut guard = self.relay.lock().expect("relay lock");
                        for w in &shed {
                            guard.mark_unshipped(*w);
                        }
                    }
                }
                note_sheds(&self.relay, &before, &shipper.spill_stats());
                let limit = Instant::now() + deadline;
                while shipper.pending_len() > 0 && Instant::now() < limit {
                    shipper.pump(&self.relay, self.clock.now_ms());
                    if shipper.pending_len() == 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                (due.len(), shipper.pending_len())
            }
            None => (0, 0),
        };
        drop(sched);
        let ledger = *self.relay.lock().expect("relay lock").ledger();
        self.join_listeners();
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
        self.join_listeners();
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }

    /// Whether this node ships upstream (false = root).
    pub fn has_upstream(&self) -> bool {
        self.upstream.is_some()
    }

    fn stop_accepting(&mut self) {
        self.accept_stop.store(true, Ordering::Relaxed);
    }

    fn stop_scheduler(&mut self) {
        *self.run.0.lock().expect("run lock") = true;
        self.run.1.notify_all();
        if let Some(j) = self.sched_join.take() {
            let _ = j.join();
        }
    }

    fn join_listeners(&mut self) {
        for j in [self.ingest_join.take(), self.query_join.take()]
            .into_iter()
            .flatten()
        {
            let _ = j.join();
        }
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.stop_accepting();
        self.stop_scheduler();
        self.join_listeners();
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }
}

/// Accept-poll loop: a nonblocking listener polled against a stop
/// flag, so stopping a node actually releases its ports (a thread
/// parked in `accept` would hold them until process exit).
fn spawn_accept_loop<F>(
    name: &str,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    on_conn: F,
) -> std::io::Result<std::thread::JoinHandle<()>>
where
    F: Fn(std::net::TcpStream) + Send + 'static,
{
    listener.set_nonblocking(true)?;
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        let _ = conn.set_nonblocking(false);
                        on_conn(conn);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })
}

/// One scheduler pass: drain due windows and ship them (a root has no
/// upstream and drains nothing), apply retention, surface a degraded
/// journal once.
fn scheduler_pass(
    relay: &Arc<Mutex<Relay>>,
    sched: &mut SchedState,
    params: &SchedParams,
    clock: &SteadyClock,
    tag: &str,
) {
    let now = clock.now_ms();
    // A root exports to nobody: no merge, no diff, no encode and no
    // pinned delta base per window.
    if let Some(shipper) = sched.shipper.as_mut() {
        let due = relay.lock().expect("relay lock").drain_exports_at(now);
        let before = shipper.spill_stats();
        for e in &due {
            let shed = shipper.enqueue(e);
            if !shed.is_empty() {
                let mut guard = relay.lock().expect("relay lock");
                for w in &shed {
                    guard.mark_unshipped(*w);
                }
                drop(guard);
                log(format_args!(
                    "{tag}: spill bound shed {} old exports; their windows will rebase",
                    shed.len()
                ));
            }
        }
        note_sheds(relay, &before, &shipper.spill_stats());
        shipper.pump(relay, now);
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
    if !sched.journal_fault_logged {
        if let Some(err) = relay.lock().expect("relay lock").journal_error() {
            log(format_args!(
                "{tag}: JOURNAL DEGRADED (still serving, no longer crash-safe): {err}"
            ));
            sched.journal_fault_logged = true;
        }
    }
    note_ledger_events(relay, sched, now);
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
    sched.seen = LedgerSeen::of(&l);
}

/// Feeds spill-shed deltas across one enqueue batch into the ledger
/// (PR-6 counted sheds only inside the queue; now they are readable).
fn note_sheds(relay: &Arc<Mutex<Relay>>, before: &SpillStats, after: &SpillStats) {
    let frames = after.shed_frames.saturating_sub(before.shed_frames);
    let bytes = after.shed_bytes.saturating_sub(before.shed_bytes);
    if frames > 0 || bytes > 0 {
        relay
            .lock()
            .expect("relay lock")
            .note_spill_shed(frames, bytes);
    }
}

/// One coherent observation of the node, gathered under the relay and
/// scheduler locks once per stats request — what [`relay_stats`] lists.
struct ObsSnap {
    export: ExportConfig,
    params: SchedParams,
    journal_degraded: bool,
    ledger: RelayLedger,
    stored_windows: usize,
    lag_ms: u64,
    pending: usize,
    pending_bytes: u64,
    connected: bool,
    acked_mode: Option<bool>,
    shipper: Option<ShipperStats>,
    spill: Option<SpillStats>,
}

fn observe(
    relay: &Arc<Mutex<Relay>>,
    sched: &Arc<Mutex<SchedState>>,
    params: &Arc<Mutex<SchedParams>>,
) -> ObsSnap {
    let now_ms = epoch_ms();
    let (ledger, export, journal_degraded, stored_windows, lag_ms) = {
        let guard = relay.lock().expect("relay lock");
        (
            *guard.ledger(),
            *guard.export_config(),
            guard.journal_error().is_some(),
            guard.stored_window_count(),
            guard.export_watermark_lag_ms(now_ms),
        )
    };
    let p = *params.lock().expect("params lock");
    let guard = sched.lock().expect("sched lock");
    let (pending, pending_bytes, connected, acked_mode, shipper, spill) =
        match guard.shipper.as_ref() {
            Some(s) => (
                s.pending_len(),
                s.pending_bytes(),
                s.is_connected(),
                s.acked_mode(),
                Some(s.stats()),
                Some(s.spill_stats()),
            ),
            None => (0, 0, false, None, None, None),
        };
    drop(guard);
    ObsSnap {
        export,
        params: p,
        journal_degraded,
        ledger,
        stored_windows,
        // A root never exports, so nothing it stores is "unexported".
        lag_ms: if shipper.is_some() { lag_ms } else { 0 },
        pending,
        pending_bytes,
        connected,
        acked_mode,
        shipper,
        spill,
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
        "Plain per-site frames among them.",
    );
    s.kv("agg_frames", l.agg_frames).counter(
        "flowtree_relay_agg_frames_total",
        "Aggregate (provenance-carrying) frames among them.",
    );
    s.kv("rejected", l.rejected).counter(
        "flowtree_relay_rejected_total",
        "Frames rejected (malformed, coverage violations, overlaps).",
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
    s.kv("export_pending", o.pending).gauge(
        "flowtree_export_pending_frames",
        "Export frames awaiting upstream acknowledgment.",
    );
    s.kv("upstream_connected", o.connected).gauge(
        "flowtree_upstream_connected",
        "1 when an upstream connection is established.",
    );
    let acked_mode = match o.acked_mode {
        Some(true) => "acked",
        Some(false) => "legacy",
        None => "none",
    };
    s.kv("acked_mode", acked_mode);
    if let Some(sh) = &o.shipper {
        s.kv("ship_enqueued", sh.enqueued).counter(
            "flowtree_ship_enqueued_total",
            "Frames handed to the durable shipper.",
        );
        s.kv("ship_sent_frames", sh.sent_frames).counter(
            "flowtree_ship_sent_frames_total",
            "Frames written to the wire (including resends).",
        );
        s.kv("ship_sent_bytes", sh.sent_bytes).counter(
            "flowtree_ship_sent_bytes_total",
            "Bytes written to the wire.",
        );
        s.kv("ship_acked_frames", sh.acked_frames).counter(
            "flowtree_ship_acked_frames_total",
            "Frames released by a receiver ack.",
        );
        s.kv("ship_legacy_released", sh.legacy_released).counter(
            "flowtree_ship_legacy_released_total",
            "Frames released by the legacy flushed-write contract.",
        );
        s.kv("ship_rebase_honored", sh.rebase_honored).counter(
            "flowtree_ship_rebase_honored_total",
            "Rebase-requests honored (window rewound).",
        );
        s.metric(sh.stale_acks).counter(
            "flowtree_ship_stale_acks_total",
            "Acks that matched nothing pending.",
        );
        s.metric(sh.hostile_acks).counter(
            "flowtree_ship_hostile_acks_total",
            "Zero-epoch acks that claimed epoch-advancing frames; ignored.",
        );
        s.kv("ship_stall_recycles", sh.stall_recycles).counter(
            "flowtree_ship_stall_recycles_total",
            "Connections recycled because acks went silent.",
        );
        s.kv("ship_handshakes", sh.handshakes).counter(
            "flowtree_ship_handshakes_total",
            "Completed hello handshakes (ack mode negotiated).",
        );
        s.kv("ship_legacy_sessions", sh.legacy_sessions).counter(
            "flowtree_ship_legacy_sessions_total",
            "Connections that fell back to legacy fire-and-forget.",
        );
    }
    if let Some(sp) = &o.spill {
        s.kv("spill_pushed_frames", sp.pushed_frames).counter(
            "flowtree_spill_pushed_frames_total",
            "Frames pushed into the spill queue.",
        );
        s.kv("spill_pushed_bytes", sp.pushed_bytes).counter(
            "flowtree_spill_pushed_bytes_total",
            "Payload bytes pushed into the spill queue.",
        );
        s.kv("spill_acked_floor", sp.acked_frames).counter(
            "flowtree_spill_acked_frames_total",
            "Frames released from the spill queue by acks.",
        );
        s.metric(sp.shed_frames).counter(
            "flowtree_spill_shed_frames_total",
            "Frames shed by the spill byte bound.",
        );
        s.metric(sp.shed_bytes).counter(
            "flowtree_spill_shed_bytes_total",
            "Payload bytes the shed frames carried.",
        );
        s.kv("spill_recovered_frames", sp.recovered_frames).counter(
            "flowtree_spill_recovered_frames_total",
            "Frames recovered from disk at startup.",
        );
        s.kv("spill_torn_bytes", sp.torn_bytes).counter(
            "flowtree_spill_torn_bytes_total",
            "Torn tail bytes truncated during recovery.",
        );
        s.kv("spill_io_errors", sp.io_errors).counter(
            "flowtree_spill_io_errors_total",
            "Spill writes degraded to memory-only by I/O errors.",
        );
    }
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
    s.kv("export_pending_bytes", o.pending_bytes).gauge(
        "flowtree_spill_pending_bytes",
        "Payload bytes the pending exports hold in the spill queue.",
    );
    s.kv("max_base_nodes", o.export.max_base_nodes);
    s
}

/// The relay node's own ops routes, next to the shared ones
/// ([`NodeTelemetry::serve`]): `/health` (after the `role`, `name` and
/// `agg_site` lines in `identity`) and `POST /reload`.
fn relay_ops(
    identity: &str,
    relay: &Arc<Mutex<Relay>>,
    params: &Arc<Mutex<SchedParams>>,
    run: &Arc<(Mutex<bool>, Condvar)>,
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
                run.1.notify_all();
            }
            tel.reloaded(outcome)
        }
        _ => OpsResponse::not_found(),
    }
}

/// Applies a `POST /reload` body ([`parse_reload`]; keys `mode`,
/// `linger-ms`, `retention-ms`, `drain-every-ms`, `max-bases`,
/// `max-base-nodes`) to the live node.
fn relay_reload(
    body: &str,
    relay: &Arc<Mutex<Relay>>,
    params: &Arc<Mutex<SchedParams>>,
) -> Result<String, String> {
    let mut relay_guard = relay.lock().expect("relay lock");
    let mut export = *relay_guard.export_config();
    let mut p = *params.lock().expect("params lock");
    let reply = parse_reload(body, |k, v| {
        match k {
            "mode" => {
                export.mode = match v {
                    "full" => ExportMode::Full,
                    "delta" => ExportMode::Delta,
                    _ => return Err(format!("mode must be full or delta, got {v}")),
                }
            }
            "linger-ms" => export.linger_ms = reload_u64(k, v)?,
            "max-bases" => export.max_bases = reload_u64(k, v)?.max(1) as usize,
            "max-base-nodes" => export.max_base_nodes = reload_u64(k, v)?.max(1) as usize,
            "retention-ms" => p.retention_ms = reload_u64(k, v)?,
            "drain-every-ms" => p.drain_every_ms = reload_u64(k, v)?.max(1),
            _ => return Err(format!("unknown reload key: {k}")),
        }
        Ok(())
    })?;
    relay_guard.set_export_config(export);
    *params.lock().expect("params lock") = p;
    Ok(reply)
}
