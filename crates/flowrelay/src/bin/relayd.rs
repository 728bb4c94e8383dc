//! `relayd` — a socketed aggregation-relay daemon.
//!
//! A thin CLI shell over [`flowrelay::runtime::NodeRuntime`], which
//! owns everything the daemon used to wire by hand: the ingest and
//! query listeners, the monotonic-clock export scheduler, the durable
//! acknowledged shipper, journal/spill recovery under `--state-dir`,
//! retention, and the optional `--stats` endpoint (GET `/health`,
//! GET `/stats`, POST `/reload`). `relayd` itself only parses flags,
//! prints the startup line, and decides when to exit.
//!
//! With `--stdin-control` the daemon reads commands from stdin —
//! `status`, `reload key=value …`, `drain` — and treats EOF as a
//! drain request, so a supervisor (`flowctl`) that dies takes its
//! children down gracefully instead of leaving orphans.
//!
//! ```sh
//! relayd --name west --agg-site 101 --sites 0,1,2,3 \
//!        --ingest 127.0.0.1:7401 --query 127.0.0.1:7402 \
//!        --upstream 127.0.0.1:7501 --mode delta --linger-ms 2000 \
//!        --state-dir /var/lib/flowrelay/west --stats 127.0.0.1:7403
//! ```

use flowdist::FsyncPolicy;
use flowrelay::cli::{log, Args};
use flowrelay::{ExportMode, NodeConfig, NodeRuntime};
use std::io::BufRead;
use std::path::PathBuf;
use std::time::Duration;

const HELP: &str = "\
relayd — socketed Flowtree aggregation relay

USAGE:
    relayd [FLAGS]

FLAGS:
    --name NAME           relay name shown in query routes  [default: relay]
    --agg-site ID         id this relay's exports carry     [default: 1000]
    --sites A,B,..        real sites this relay covers      [default: 0,1,2,3]
    --ingest ADDR         TCP bind for summary-frame ingest [default: 127.0.0.1:7401]
    --query ADDR          TCP bind for text queries         [default: 127.0.0.1:7402]
    --stats ADDR          plaintext health/stats endpoint (GET /health,
                          GET /stats, POST /reload)          [default: none]
    --upstream ADDR       ship exports to this TCP peer     [default: none — exports are logged and dropped]
    --mode full|delta     re-export whole windows or deltas [default: delta]
    --linger-ms N         wall-clock grace past a window's end before it exports [default: 2000]
    --drain-every-ms N    export coalescing grid            [default: 1000]
    --max-bases N         pinned re-aggregation bases kept  [default: 64]
    --max-base-nodes N    total tree nodes the pinned bases may hold
                          together (memory-honest base bound) [default: 1048576]
    --budget N            tree node budget                  [default: 1048576]
    --retention-ms N      evict windows older than this (0 = keep forever) [default: 86400000]
    --state-dir DIR       durable journal + export spill root; a restart
                          resumes stored windows, epoch chains, and unacked
                          exports                            [default: none — volatile]
    --fsync always|never  fsync journal/spill writes (never survives kill -9
                          via the page cache; always also survives power loss)
                                                             [default: never]
    --spill-max-bytes N   pending-export spill bound; overflow sheds oldest
                          and rebases their windows           [default: 268435456]
    --reconnect-base-ms N first upstream-reconnect backoff    [default: 100]
    --reconnect-max-ms N  upstream-reconnect backoff ceiling  [default: 5000]
    --ack-stall-ms N      recycle an upstream connection whose acks went
                          silent while exports are pending    [default: 10000]
    --drain-deadline-ms N how long a graceful drain chases an unreachable
                          upstream before leaving the rest spilled [default: 10000]
    --stdin-control       read status/reload/drain commands from stdin;
                          EOF drains and exits (supervision seam)
    --oneshot             drain once, print counters, exit (smoke testing)
    --help                print this help
";

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.has("help") {
        print!("{HELP}");
        return;
    }

    let name = args.get("name").unwrap_or("relay").to_string();
    let mut cfg = NodeConfig::new(name.clone());
    cfg.log_tag = Some(format!("relayd[{name}]"));
    cfg.agg_site = args.num("agg-site", 1_000);
    cfg.sites = args
        .get("sites")
        .unwrap_or("0,1,2,3")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    cfg.ingest = args.get("ingest").unwrap_or("127.0.0.1:7401").to_string();
    cfg.query = args.get("query").unwrap_or("127.0.0.1:7402").to_string();
    cfg.stats = args.get("stats").map(str::to_string);
    cfg.upstream = args.get("upstream").map(str::to_string);
    cfg.mode = match args.get("mode") {
        Some("full") => ExportMode::Full,
        _ => ExportMode::Delta,
    };
    cfg.linger_ms = args.num("linger-ms", 2_000);
    cfg.drain_every_ms = args.num("drain-every-ms", 1_000);
    cfg.max_bases = args.num("max-bases", 64);
    cfg.max_base_nodes = args.num("max-base-nodes", 1 << 20);
    cfg.budget = args.num("budget", 1 << 20);
    cfg.retention_ms = args.num("retention-ms", 86_400_000);
    cfg.state_dir = args.get("state-dir").map(PathBuf::from);
    cfg.fsync = match args.get("fsync") {
        Some("always") => FsyncPolicy::Always,
        _ => FsyncPolicy::Never,
    };
    cfg.spill_max_bytes = args.num("spill-max-bytes", 256 << 20);
    cfg.reconnect_base_ms = args.num("reconnect-base-ms", 100);
    cfg.reconnect_max_ms = args.num("reconnect-max-ms", 5_000);
    cfg.ack_stall_ms = args.num("ack-stall-ms", 10_000);
    let drain_deadline = Duration::from_millis(args.num("drain-deadline-ms", 10_000));
    let mode = cfg.mode;

    let runtime = match NodeRuntime::start(cfg) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("relayd: {e}");
            // Config errors exit 2 (usage), environment errors 1.
            let code = match e {
                flowrelay::RuntimeError::Invalid(_) => 2,
                _ => 1,
            };
            std::process::exit(code);
        }
    };
    // Resolved addresses (a `:0` bind picks a port) — parseable, so
    // scripts and tests can discover where the daemon actually lives.
    eprintln!(
        "relayd[{name}]: ingest on {}, queries on {}, mode {mode:?}",
        runtime.ingest_addr(),
        runtime.query_addr(),
    );
    if let Some(addr) = runtime.stats_addr() {
        log(format_args!("relayd[{name}]: stats on {addr}"));
    }

    if args.has("oneshot") {
        runtime.tick_now();
        let l = runtime.ledger();
        let pending = runtime.pending_len();
        log(format_args!(
            "relayd[{name}]: frames {} (rejected {}, replayed {}), exports {} ({} full / {} delta), bytes {} ({} full / {} delta), pending {}, rebases {} (rewound {}), reconnects {} ({} failed, {}ms backoff)",
            l.frames,
            l.rejected,
            l.replayed,
            l.exported,
            l.full_exports,
            l.delta_exports,
            l.exported_bytes,
            l.full_export_bytes,
            l.delta_export_bytes,
            pending,
            l.rebase_requests,
            l.rebase_rewinds,
            l.reconnect_attempts,
            l.reconnect_failures,
            l.backoff_ms_total
        ));
        runtime.shutdown();
        return;
    }

    if args.has("stdin-control") {
        control_loop(&name, runtime, drain_deadline);
        return;
    }

    // No control channel: the runtime's threads do all the work; park.
    loop {
        std::thread::park();
    }
}

/// Reads commands from stdin until EOF or `drain`. EOF counts as a
/// drain request: when the supervisor that holds our stdin dies, the
/// daemon flushes and exits instead of lingering as an orphan.
fn control_loop(name: &str, runtime: NodeRuntime, drain_deadline: Duration) {
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "" => {}
            "status" => {
                let l = runtime.ledger();
                println!(
                    "status frames={} rejected={} exported={} pending={} spill_sheds={}",
                    l.frames,
                    l.rejected,
                    l.exported,
                    runtime.pending_len(),
                    l.spill_sheds
                );
            }
            "reload" => match runtime.reloadable().parse(rest.split_whitespace()) {
                Ok((r, _)) => {
                    runtime.reload(r);
                    println!("reloaded");
                }
                Err(msg) => println!("error {msg}"),
            },
            "drain" => break,
            other => println!("error unknown command: {other}"),
        }
    }
    let report = runtime.drain(drain_deadline);
    log(format_args!(
        "relayd[{name}]: drained — {} flushed, {} pending at exit",
        report.flushed, report.pending_at_exit
    ));
    if report.pending_at_exit > 0 {
        // Unacked exports are journaled+spilled; a restart resends.
        std::process::exit(3);
    }
}
