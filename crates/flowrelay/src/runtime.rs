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
//!   `GET /stats` (plaintext `key value` lines: the full
//!   [`RelayLedger`] including the spill-shed counters, shipper and
//!   spill-queue state, export config) and `POST /reload`.

use crate::export::{ExportShipper, ShipperConfig, ShipperStats};
use crate::journal::{JournalConfig, RecoveryReport};
use crate::plan::QueryRouter;
use crate::relay::{ExportConfig, ExportMode, Relay, RelayConfig, RelayLedger};
use crate::server::{answer_query, serve_acked_ingest_timed};
use crate::topology::{RelaySpec, RelayTopology};
use crate::{BackoffConfig, SteadyClock};
use flowdist::ops::{spawn_ops, OpsHandle, OpsRequest, OpsResponse};
use flowdist::runtime::health_tail;
use flowdist::{FsyncPolicy, SpillConfig, SpillQueue, SpillStats};
use flowmetrics::{EventRing, KvValue, Registry, Stopwatch};
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

/// Shared observability state of one relay node: the metric registry
/// behind `GET /metrics`, the event ring behind `GET /events`, and the
/// boot instant behind `/health`'s `uptime_ms`.
#[derive(Debug, Clone)]
struct RelayTelemetry {
    registry: Registry,
    events: EventRing,
    started: Instant,
}

fn epoch_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
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
        let telemetry = RelayTelemetry {
            registry: Registry::new(),
            events: EventRing::new(256),
            started: Instant::now(),
        };
        if let Some(report) = &recovery {
            if report.wal_records > 0 || report.snapshot_slots > 0 {
                telemetry.events.push(
                    epoch_ms_now(),
                    "crash_restart",
                    format!(
                        "gen {} wal_records {} torn_bytes {}",
                        report.generation, report.wal_records, report.torn_bytes
                    ),
                );
            }
        }
        if rewound > 0 {
            telemetry.events.push(
                epoch_ms_now(),
                "rewound",
                format!("unacked_exports {rewound}"),
            );
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
                let is_root = cfg.upstream.is_none();
                let agg_site = cfg.agg_site;
                let tel = telemetry.clone();
                Some(
                    spawn_ops(addr, move |req| {
                        relay_ops(
                            &name, agg_site, is_root, &relay, &sched, &params, &run, &tel, req,
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
/// scheduler locks once per ops request — the single source the
/// legacy plaintext page, `/stats.json`, and the `/metrics` sync all
/// render from, so the three can never drift.
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
    let now_ms = epoch_ms_now();
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

/// The relay node's stats as ordered key/value pairs — key set and
/// order are exactly the pre-JSON plaintext page's.
fn relay_stat_pairs(role: &str, name: &str, agg_site: u16, o: &ObsSnap) -> Vec<(String, KvValue)> {
    let mut pairs: Vec<(String, KvValue)> = Vec::with_capacity(48);
    let mut kv = |k: &str, v: KvValue| pairs.push((k.to_string(), v));
    kv("role", role.into());
    kv("name", name.into());
    kv("agg_site", KvValue::U64(u64::from(agg_site)));
    kv("mode", format!("{:?}", o.export.mode).to_lowercase().into());
    kv("linger_ms", KvValue::U64(o.export.linger_ms));
    kv("retention_ms", KvValue::U64(o.params.retention_ms));
    kv("drain_every_ms", KvValue::U64(o.params.drain_every_ms));
    kv("max_bases", KvValue::U64(o.export.max_bases as u64));
    kv("journal_degraded", KvValue::Bool(o.journal_degraded));
    let l = &o.ledger;
    kv("frames", KvValue::U64(l.frames));
    kv("site_frames", KvValue::U64(l.site_frames));
    kv("agg_frames", KvValue::U64(l.agg_frames));
    kv("rejected", KvValue::U64(l.rejected));
    kv("replayed", KvValue::U64(l.replayed));
    kv("exported", KvValue::U64(l.exported));
    kv("exported_bytes", KvValue::U64(l.exported_bytes));
    kv("full_exports", KvValue::U64(l.full_exports));
    kv("delta_exports", KvValue::U64(l.delta_exports));
    kv("delta_fallbacks", KvValue::U64(l.delta_fallbacks));
    kv("base_losses", KvValue::U64(l.base_losses));
    kv("late_downstream", KvValue::U64(l.late_downstream));
    kv("rebase_requests", KvValue::U64(l.rebase_requests));
    kv("rebase_rewinds", KvValue::U64(l.rebase_rewinds));
    kv("reconnect_attempts", KvValue::U64(l.reconnect_attempts));
    kv("reconnect_failures", KvValue::U64(l.reconnect_failures));
    kv("backoff_ms_total", KvValue::U64(l.backoff_ms_total));
    kv("spill_sheds", KvValue::U64(l.spill_sheds));
    kv("spill_shed_bytes", KvValue::U64(l.spill_shed_bytes));
    kv("export_pending", KvValue::U64(o.pending as u64));
    kv("upstream_connected", KvValue::Bool(o.connected));
    kv(
        "acked_mode",
        match o.acked_mode {
            Some(true) => "acked",
            Some(false) => "legacy",
            None => "none",
        }
        .into(),
    );
    if let Some(s) = &o.shipper {
        kv("ship_enqueued", KvValue::U64(s.enqueued));
        kv("ship_sent_frames", KvValue::U64(s.sent_frames));
        kv("ship_sent_bytes", KvValue::U64(s.sent_bytes));
        kv("ship_acked_frames", KvValue::U64(s.acked_frames));
        kv("ship_legacy_released", KvValue::U64(s.legacy_released));
        kv("ship_rebase_honored", KvValue::U64(s.rebase_honored));
        kv("ship_stall_recycles", KvValue::U64(s.stall_recycles));
        kv("ship_handshakes", KvValue::U64(s.handshakes));
        kv("ship_legacy_sessions", KvValue::U64(s.legacy_sessions));
    }
    if let Some(s) = &o.spill {
        kv("spill_pushed_frames", KvValue::U64(s.pushed_frames));
        kv("spill_pushed_bytes", KvValue::U64(s.pushed_bytes));
        kv("spill_acked_floor", KvValue::U64(s.acked_frames));
        kv("spill_recovered_frames", KvValue::U64(s.recovered_frames));
        kv("spill_torn_bytes", KvValue::U64(s.torn_bytes));
        kv("spill_io_errors", KvValue::U64(s.io_errors));
    }
    // New observability-layer keys, appended so legacy scrapers keep
    // their line positions.
    kv("stored_windows", KvValue::U64(o.stored_windows as u64));
    kv("export_watermark_lag_ms", KvValue::U64(o.lag_ms));
    kv("export_pending_bytes", KvValue::U64(o.pending_bytes));
    kv(
        "max_base_nodes",
        KvValue::U64(o.export.max_base_nodes as u64),
    );
    pairs
}

/// Mirrors one observation into the node's registry so a `/metrics`
/// scrape sees the ledger, shipper, and spill counters as first-class
/// Prometheus series next to the live latency histograms.
fn sync_relay_registry(tel: &RelayTelemetry, role: &str, name: &str, o: &ObsSnap) {
    let reg = &tel.registry;
    reg.gauge_with(
        "flowtree_build_info",
        "Constant 1; identity in labels.",
        &[
            ("role", role),
            ("node", name),
            ("version", flowdist::runtime::build_version()),
        ],
    )
    .set(1);
    reg.gauge("flowtree_uptime_seconds", "Seconds since this node booted.")
        .set(tel.started.elapsed().as_secs() as i64);
    let c = |name: &str, help: &str, v: u64| reg.counter(name, help).set(v);
    let g = |name: &str, help: &str, v: i64| reg.gauge(name, help).set(v);
    let l = &o.ledger;
    c(
        "flowtree_relay_frames_total",
        "Downstream summary frames accepted.",
        l.frames,
    );
    c(
        "flowtree_relay_site_frames_total",
        "Plain per-site frames among them.",
        l.site_frames,
    );
    c(
        "flowtree_relay_agg_frames_total",
        "Aggregate (provenance-carrying) frames among them.",
        l.agg_frames,
    );
    c(
        "flowtree_relay_rejected_total",
        "Frames rejected (malformed, coverage violations, overlaps).",
        l.rejected,
    );
    c(
        "flowtree_relay_replayed_total",
        "At-least-once replays recognized and acked without re-applying.",
        l.replayed,
    );
    c(
        "flowtree_relay_exported_total",
        "Aggregates exported upstream (full and delta frames).",
        l.exported,
    );
    c(
        "flowtree_relay_exported_bytes_total",
        "Encoded bytes of those exports.",
        l.exported_bytes,
    );
    c(
        "flowtree_relay_full_exports_total",
        "Full frames among the exports.",
        l.full_exports,
    );
    c(
        "flowtree_relay_delta_exports_total",
        "Delta frames among the exports.",
        l.delta_exports,
    );
    c(
        "flowtree_relay_delta_fallbacks_total",
        "Deltas that fell back to full frames.",
        l.delta_fallbacks,
    );
    c(
        "flowtree_relay_base_losses_total",
        "Fallbacks caused by a dropped re-aggregation base.",
        l.base_losses,
    );
    c(
        "flowtree_relay_late_downstream_total",
        "Frames accepted for windows already exported upstream.",
        l.late_downstream,
    );
    c(
        "flowtree_relay_rebase_requests_total",
        "Deltas whose declared base was ahead; answered with a rebase-request.",
        l.rebase_requests,
    );
    c(
        "flowtree_relay_rebase_rewinds_total",
        "Windows rewound to full rebasing re-exports on downstream request.",
        l.rebase_rewinds,
    );
    c(
        "flowtree_relay_reconnect_attempts_total",
        "Upstream connection attempts by the export shipper.",
        l.reconnect_attempts,
    );
    c(
        "flowtree_relay_reconnect_failures_total",
        "Failed connection attempts among them.",
        l.reconnect_failures,
    );
    c(
        "flowtree_relay_backoff_ms_total",
        "Milliseconds the shipper backed off between attempts.",
        l.backoff_ms_total,
    );
    c(
        "flowtree_relay_spill_sheds_total",
        "Pending exports shed by the spill byte bound.",
        l.spill_sheds,
    );
    c(
        "flowtree_relay_spill_shed_bytes_total",
        "Payload bytes those shed frames carried.",
        l.spill_shed_bytes,
    );
    g(
        "flowtree_stored_windows",
        "Windows the export scheduler currently tracks.",
        o.stored_windows as i64,
    );
    g(
        "flowtree_export_watermark_lag_seconds",
        "Age of the oldest window with unexported content (0 = keeping up).",
        (o.lag_ms / 1_000) as i64,
    );
    g(
        "flowtree_export_pending_frames",
        "Export frames awaiting upstream acknowledgment.",
        o.pending as i64,
    );
    g(
        "flowtree_spill_pending_bytes",
        "Payload bytes the pending exports hold in the spill queue.",
        o.pending_bytes as i64,
    );
    g(
        "flowtree_upstream_connected",
        "1 when an upstream connection is established.",
        i64::from(o.connected),
    );
    if let Some(s) = &o.shipper {
        c(
            "flowtree_ship_enqueued_total",
            "Frames handed to the durable shipper.",
            s.enqueued,
        );
        c(
            "flowtree_ship_sent_frames_total",
            "Frames written to the wire (including resends).",
            s.sent_frames,
        );
        c(
            "flowtree_ship_sent_bytes_total",
            "Bytes written to the wire.",
            s.sent_bytes,
        );
        c(
            "flowtree_ship_acked_frames_total",
            "Frames released by a receiver ack.",
            s.acked_frames,
        );
        c(
            "flowtree_ship_legacy_released_total",
            "Frames released by the legacy flushed-write contract.",
            s.legacy_released,
        );
        c(
            "flowtree_ship_rebase_honored_total",
            "Rebase-requests honored (window rewound).",
            s.rebase_honored,
        );
        c(
            "flowtree_ship_stale_acks_total",
            "Acks that matched nothing pending.",
            s.stale_acks,
        );
        c(
            "flowtree_ship_hostile_acks_total",
            "Zero-epoch acks that claimed epoch-advancing frames; ignored.",
            s.hostile_acks,
        );
        c(
            "flowtree_ship_stall_recycles_total",
            "Connections recycled because acks went silent.",
            s.stall_recycles,
        );
        c(
            "flowtree_ship_handshakes_total",
            "Completed hello handshakes (ack mode negotiated).",
            s.handshakes,
        );
        c(
            "flowtree_ship_legacy_sessions_total",
            "Connections that fell back to legacy fire-and-forget.",
            s.legacy_sessions,
        );
    }
    if let Some(s) = &o.spill {
        c(
            "flowtree_spill_pushed_frames_total",
            "Frames pushed into the spill queue.",
            s.pushed_frames,
        );
        c(
            "flowtree_spill_pushed_bytes_total",
            "Payload bytes pushed into the spill queue.",
            s.pushed_bytes,
        );
        c(
            "flowtree_spill_acked_frames_total",
            "Frames released from the spill queue by acks.",
            s.acked_frames,
        );
        c(
            "flowtree_spill_shed_frames_total",
            "Frames shed by the spill byte bound.",
            s.shed_frames,
        );
        c(
            "flowtree_spill_shed_bytes_total",
            "Payload bytes the shed frames carried.",
            s.shed_bytes,
        );
        c(
            "flowtree_spill_recovered_frames_total",
            "Frames recovered from disk at startup.",
            s.recovered_frames,
        );
        c(
            "flowtree_spill_torn_bytes_total",
            "Torn tail bytes truncated during recovery.",
            s.torn_bytes,
        );
        c(
            "flowtree_spill_io_errors_total",
            "Spill writes degraded to memory-only by I/O errors.",
            s.io_errors,
        );
    }
    c(
        "flowtree_events_total",
        "Operational events recorded (including ones the ring evicted).",
        tel.events.total(),
    );
}

/// Renders the relay node's ops surface.
#[allow(clippy::too_many_arguments)]
fn relay_ops(
    name: &str,
    agg_site: u16,
    is_root: bool,
    relay: &Arc<Mutex<Relay>>,
    sched: &Arc<Mutex<SchedState>>,
    params: &Arc<Mutex<SchedParams>>,
    run: &Arc<(Mutex<bool>, Condvar)>,
    tel: &RelayTelemetry,
    req: &OpsRequest,
) -> OpsResponse {
    let role = if is_root { "root" } else { "relay" };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            let healthy = relay.lock().expect("relay lock").journal_error().is_none();
            OpsResponse::ok(format!(
                "ok {healthy}\nrole {role}\nname {name}\nagg_site {agg_site}\n{}",
                health_tail(tel.started)
            ))
        }
        ("GET", "/stats" | "/") => {
            let o = observe(relay, sched, params);
            OpsResponse::ok(flowmetrics::render_kv_text(&relay_stat_pairs(
                role, name, agg_site, &o,
            )))
        }
        ("GET", "/stats.json") => {
            let o = observe(relay, sched, params);
            OpsResponse::ok(flowmetrics::render_kv_json(&relay_stat_pairs(
                role, name, agg_site, &o,
            )))
        }
        ("GET", "/metrics") => {
            let o = observe(relay, sched, params);
            sync_relay_registry(tel, role, name, &o);
            OpsResponse::ok(tel.registry.render_prometheus())
        }
        ("GET", "/events") => OpsResponse::ok(tel.events.render_text()),
        ("POST", "/reload") => match parse_reload_body(&req.body, relay, params) {
            Ok(applied) => {
                run.1.notify_all();
                tel.events.push(epoch_ms_now(), "reload", applied.clone());
                OpsResponse::ok(applied)
            }
            Err(e) => OpsResponse::bad_request(e),
        },
        _ => OpsResponse::not_found(),
    }
}

/// Applies a `POST /reload` body (`key=value` lines; keys `mode`,
/// `linger-ms`, `retention-ms`, `drain-every-ms`, `max-bases`,
/// `max-base-nodes`) to the live node. Unknown keys fail the whole
/// request so a typoed reload never half-applies silently.
fn parse_reload_body(
    body: &str,
    relay: &Arc<Mutex<Relay>>,
    params: &Arc<Mutex<SchedParams>>,
) -> Result<String, String> {
    let mut relay_guard = relay.lock().expect("relay lock");
    let mut export = *relay_guard.export_config();
    let mut p = *params.lock().expect("params lock");
    let mut applied = Vec::new();
    for raw in body.lines() {
        let lineno = raw.trim();
        if lineno.is_empty() || lineno.starts_with('#') {
            continue;
        }
        let Some((k, v)) = lineno.split_once('=') else {
            return Err(format!("malformed reload line: {lineno}"));
        };
        let (k, v) = (k.trim(), v.trim());
        match k {
            "mode" => {
                export.mode = match v {
                    "full" => ExportMode::Full,
                    "delta" => ExportMode::Delta,
                    _ => return Err(format!("mode must be full or delta, got {v}")),
                }
            }
            "linger-ms" => export.linger_ms = parse_u64(k, v)?,
            "max-bases" => export.max_bases = parse_u64(k, v)?.max(1) as usize,
            "max-base-nodes" => export.max_base_nodes = parse_u64(k, v)?.max(1) as usize,
            "retention-ms" => p.retention_ms = parse_u64(k, v)?,
            "drain-every-ms" => p.drain_every_ms = parse_u64(k, v)?.max(1),
            _ => return Err(format!("unknown reload key: {k}")),
        }
        applied.push(format!("{k}={v}"));
    }
    relay_guard.set_export_config(export);
    *params.lock().expect("params lock") = p;
    Ok(if applied.is_empty() {
        "unchanged".into()
    } else {
        format!("applied {}", applied.join(" "))
    })
}

fn parse_u64(k: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{k} must be an integer, got {v}"))
}
