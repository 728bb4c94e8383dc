//! A live Flowtree daemon fed by real NetFlow v5 over UDP loopback.
//!
//! Exactly the Fig. 1 edge: a "router" thread exports NetFlow v5
//! datagrams to 127.0.0.1; the site's ingest engine
//! ([`flowdist::spawn_multi_lane_ingest`], one lane) receives them on a
//! UDP socket, decodes, summarizes into 500 ms windows and ships
//! summary frames, and a collector thread applies them — all over real
//! sockets.
//!
//! ```sh
//! cargo run --release --example live_daemon
//! ```

use flowdist::net::export_netflow;
use flowdist::{
    spawn_multi_lane_ingest, Collector, DaemonConfig, IngestPipeline, LaneOptions, SiteDaemon,
    TransferMode,
};
use flownet::FlowRecord;
use flowtrace::{profile, TraceGen};
use flowtree::{Config, Schema};
use std::net::UdpSocket;

fn main() {
    let schema = Schema::five_feature();
    let tree_cfg = Config::with_budget(4_096);

    // Daemon side: one ingest lane on an ephemeral UDP port, its
    // summary frames drained into a collector on another thread.
    let mut daemon_cfg = DaemonConfig::new(1);
    daemon_cfg.window_ms = 500;
    daemon_cfg.schema = schema;
    daemon_cfg.tree = tree_cfg;
    daemon_cfg.transfer = TransferMode::Full;
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(256);
    let handle = spawn_multi_lane_ingest(
        "127.0.0.1:0",
        |_| IngestPipeline::new(SiteDaemon::new(daemon_cfg), 64),
        tx,
        LaneOptions::default(),
    )
    .expect("bind");
    let addr = handle.local_addr();
    println!("flowtree daemon listening for NetFlow v5 on {addr}");
    let collector = std::thread::spawn(move || {
        let mut collector = Collector::new(schema, tree_cfg);
        for frame in rx.iter() {
            collector.apply_bytes(&frame).expect("apply");
        }
        collector
    });

    // Router side: generate flows and export them in a thread.
    let exporter = std::thread::spawn(move || {
        let mut cfg = profile::backbone(123);
        cfg.packets = 60_000;
        cfg.flows = 8_000;
        cfg.mean_pps = 30_000.0;
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
        let mut cache = flownet::FlowCache::new(flownet::FlowCacheConfig {
            idle_timeout_ms: 300,
            active_timeout_ms: 1_000,
            max_entries: 50_000,
        });
        let mut datagrams = 0usize;
        let mut batch: Vec<FlowRecord> = Vec::new();
        let flush = |batch: &mut Vec<FlowRecord>, datagrams: &mut usize| {
            if !batch.is_empty() {
                *datagrams += export_netflow(&socket, addr, batch, 2_000_000).expect("send");
                batch.clear();
            }
        };
        for pkt in TraceGen::new(cfg) {
            batch.extend(cache.observe(&pkt));
            if batch.len() >= 30 {
                flush(&mut batch, &mut datagrams);
            }
        }
        batch.extend(cache.drain());
        flush(&mut batch, &mut datagrams);
        println!("router: exported flows in {datagrams} datagrams");
    });

    // Every datagram is sent once the router is done. Stopping drains
    // the socket buffer, closes every window, and drops the frame
    // sender, which ends the collector thread.
    exporter.join().expect("exporter thread");
    let report = handle.stop();
    let collector = collector.join().expect("collector thread");

    println!(
        "daemon: {} records over UDP, {} windows summarized, {} summary bytes",
        report.daemon.records, report.daemon.summaries, report.daemon.summary_bytes
    );
    let merged = collector.merged(None, 0, u64::MAX);
    println!(
        "collector: {} packets / {} bytes total across windows",
        merged.total().packets,
        merged.total().bytes
    );
    assert!(merged.total().packets > 0, "traffic must arrive end to end");
    println!("end-to-end over real UDP sockets: OK");
}
