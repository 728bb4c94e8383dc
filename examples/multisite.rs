//! The Fig. 1 scenario: five ISP sites, one peer, distributed queries.
//!
//! "ISP operators want to know, in the last 24 hours, what is the total
//! volume of traffic sent by one of its peers to all of five ISP's
//! sites." This example runs the whole pipeline — packets → per-site
//! exporters → Flowtree daemons → windowed summaries → collector — and
//! answers exactly that question with the query language, then compares
//! full vs delta transfer volume.
//!
//! ```sh
//! cargo run --release --example multisite
//! ```

use flowdist::{sim, SimConfig, TransferMode};
use flownet::{FlowCacheConfig, PacketMeta};
use flowquery::{parse, QueryEngine, QueryOutput};
use flowtrace::{profile, TraceGen};
use flowtree::{Config, Metric, Schema};
use std::net::IpAddr;

/// The peer whose traffic the operators ask about (a /24 they announce).
const PEER_PREFIX: [u8; 3] = [203, 0, 113];

fn main() {
    // A trace: backbone background plus the peer's traffic mixed in.
    let mut cfg = profile::backbone(33);
    cfg.packets = 300_000;
    cfg.flows = 40_000;
    cfg.mean_pps = 50_000.0; // ≈ 6 s of traffic → several 1 s windows
    let background = TraceGen::new(cfg);
    let trace = background.map(|mut pkt| {
        // Rewrite ~12 % of sources into the peer's /24.
        if pkt.wire_len % 8 == 0 {
            if let IpAddr::V4(v4) = pkt.src {
                let o = v4.octets();
                pkt.src = IpAddr::V4([PEER_PREFIX[0], PEER_PREFIX[1], PEER_PREFIX[2], o[3]].into());
            }
        }
        pkt
    });

    let sim_cfg = SimConfig {
        sites: 5,
        window_ms: 1_000, // scaled-down "5-minute" windows
        schema: Schema::five_feature(),
        tree: Config::with_budget(8_192),
        transfer: TransferMode::Full,
        cache: FlowCacheConfig {
            idle_timeout_ms: 400,
            active_timeout_ms: 1_500,
            max_entries: 100_000,
        },
    };
    let trace: Vec<PacketMeta> = trace.collect();
    let report = sim::run_threaded(sim_cfg, trace.iter().copied()).expect("pipeline");

    println!("== Fig. 1 pipeline: 5 sites, windowed summaries ==");
    println!("packets per site: {:?}", report.packets_per_site);
    println!(
        "stored (site, window) summaries: {}",
        report.collector.stored_windows()
    );
    println!(
        "raw NetFlow volume {:.1} MiB → summary volume {:.2} MiB  (reduction {:.1}%)\n",
        report.raw_bytes() as f64 / (1 << 20) as f64,
        report.summary_bytes() as f64 / (1 << 20) as f64,
        report.transfer_reduction() * 100.0
    );

    // The operators' question, in the query language.
    let engine = QueryEngine::new(&report.collector);
    let peer = format!(
        "pop src={}.{}.{}.0/24 sites=*",
        PEER_PREFIX[0], PEER_PREFIX[1], PEER_PREFIX[2]
    );
    let q = parse(&peer, u64::MAX - 1).expect("query parses");
    let QueryOutput::Pop(total) = engine.run(&q) else {
        unreachable!()
    };
    println!(
        "peer volume across all 5 sites: {:.0} packets / {:.2} MiB",
        total.packets,
        total.bytes / (1 << 20) as f64
    );

    // Per-site breakdown of the same pattern, as one `bysite` query.
    println!("\nper-site breakdown:");
    let q = parse(
        &format!(
            "bysite src={}.{}.{}.0/24",
            PEER_PREFIX[0], PEER_PREFIX[1], PEER_PREFIX[2]
        ),
        u64::MAX - 1,
    )
    .unwrap();
    print!("{}", engine.run(&q).render(Metric::Packets));

    // Where does the peer send its traffic? (merge + drill)
    let q = parse(
        &format!(
            "top 5 dport under src={}.{}.{}.0/24",
            PEER_PREFIX[0], PEER_PREFIX[1], PEER_PREFIX[2]
        ),
        u64::MAX - 1,
    )
    .unwrap();
    println!("\npeer's top destination ports:");
    print!("{}", engine.run(&q).render(Metric::Packets));

    // Full vs delta transfer on the same trace.
    let mut delta_cfg = sim_cfg;
    delta_cfg.transfer = TransferMode::Delta;
    let delta = sim::run(delta_cfg, trace.iter().copied()).expect("pipeline");
    println!(
        "\ntransfer policy on this trace: full = {} KiB, delta = {} KiB",
        report.summary_bytes() / 1024,
        delta.summary_bytes() / 1024
    );
    println!("(deltas win when consecutive windows are similar; see the mergediff bench)");

    // Fig. 1's database: persist every window to disk, reload into a
    // fresh collector, and confirm the answers survive the round trip.
    let store_dir = std::env::temp_dir().join(format!("flowtree-multisite-{}", std::process::id()));
    let store = flowdist::SummaryStore::open(&store_dir).expect("open store");
    let mut persisted = 0usize;
    for (start, site) in report.collector.window_keys() {
        let tree = report
            .collector
            .window_tree(start, site)
            .expect("listed")
            .clone();
        let window = flowdist::WindowId {
            start_ms: start,
            span_ms: 1_000,
        };
        let summary = flowdist::Summary::site_full(site, window, start / 1_000 + 1, tree);
        store.put(&summary).expect("persist");
        persisted += 1;
    }
    let mut reloaded = flowdist::Collector::new(Schema::five_feature(), Config::with_budget(8_192));
    let loadrep = store.load_into(&mut reloaded).expect("load");
    println!(
        "\ndatabase: persisted {persisted} windows to {}, reloaded {} (rejected {})",
        store_dir.display(),
        loadrep.loaded,
        loadrep.rejected
    );
    assert_eq!(
        reloaded.merged(None, 0, u64::MAX).total().packets,
        report.collector.merged(None, 0, u64::MAX).total().packets,
        "answers must survive the disk round trip"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("reload parity verified — summaries are the system of record.");
}
