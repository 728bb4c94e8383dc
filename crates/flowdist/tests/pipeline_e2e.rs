//! End-to-end: a NetFlow v5 export packet assembled **by hand, byte by
//! byte** (independent of `flownet`'s own encoder) travels the whole
//! streaming path — unified decode → per-window bucketing → daemon
//! ingest → emitted summary — and the summary answers queries
//! with the right masses and accounting.

use flowdist::daemon::{DaemonConfig, SiteDaemon, TransferMode};
use flowdist::IngestPipeline;
use flowkey::{FlowKey, Schema};
use flowtree_core::Config;

/// Raw v5 record fields: (src octets, dst octets, sport, dport, proto,
/// packets, bytes, first_ms, last_ms).
type RawV5Record = ([u8; 4], [u8; 4], u16, u16, u8, u32, u32, u64, u64);

/// Hand-assembles one NetFlow v5 packet (24-byte header + 48-byte
/// records) per the classic Cisco layout. `base_ms` is the export
/// moment; record timestamps are expressed as sysuptime offsets the
/// way real routers emit them.
fn handmade_v5_packet(base_ms: u64, records: &[RawV5Record]) -> Vec<u8> {
    const UPTIME_MS: u32 = 600_000; // router up for 10 minutes
    let mut pkt = Vec::new();
    // -- header ------------------------------------------------------
    pkt.extend_from_slice(&5u16.to_be_bytes()); // version
    pkt.extend_from_slice(&(records.len() as u16).to_be_bytes()); // count
    pkt.extend_from_slice(&UPTIME_MS.to_be_bytes()); // sysuptime
    pkt.extend_from_slice(&((base_ms / 1000) as u32).to_be_bytes()); // unix secs
    pkt.extend_from_slice(&(((base_ms % 1000) * 1_000_000) as u32).to_be_bytes()); // nsecs
    pkt.extend_from_slice(&77u32.to_be_bytes()); // flow_sequence
    pkt.push(1); // engine type
    pkt.push(2); // engine id
    pkt.extend_from_slice(&0u16.to_be_bytes()); // sampling
    assert_eq!(pkt.len(), 24);
    // -- records -----------------------------------------------------
    for &(src, dst, sport, dport, proto, packets, bytes, first_ms, last_ms) in records {
        let rec_start = pkt.len();
        pkt.extend_from_slice(&src);
        pkt.extend_from_slice(&dst);
        pkt.extend_from_slice(&[0u8; 4]); // nexthop
        pkt.extend_from_slice(&1u16.to_be_bytes()); // input if
        pkt.extend_from_slice(&2u16.to_be_bytes()); // output if
        pkt.extend_from_slice(&packets.to_be_bytes());
        pkt.extend_from_slice(&bytes.to_be_bytes());
        // first/last as sysuptime: uptime - (base - t).
        let rel = |t_ms: u64| (UPTIME_MS as u64 - (base_ms - t_ms)) as u32;
        pkt.extend_from_slice(&rel(first_ms).to_be_bytes());
        pkt.extend_from_slice(&rel(last_ms).to_be_bytes());
        pkt.extend_from_slice(&sport.to_be_bytes());
        pkt.extend_from_slice(&dport.to_be_bytes());
        pkt.push(0); // pad1
        pkt.push(0x18); // tcp flags
        pkt.push(proto);
        pkt.push(0); // tos
        pkt.extend_from_slice(&0u16.to_be_bytes()); // src as
        pkt.extend_from_slice(&0u16.to_be_bytes()); // dst as
        pkt.push(24); // src mask
        pkt.push(24); // dst mask
        pkt.extend_from_slice(&0u16.to_be_bytes()); // pad2
        assert_eq!(pkt.len() - rec_start, 48);
    }
    pkt
}

#[test]
fn handmade_netflow5_packet_reaches_a_queryable_summary() {
    // Window span 60 s; the packet's flows straddle the boundary at
    // t = 120_000 ms: two flows end in window [60s, 120s), one in
    // [120s, 180s).
    let mut cfg = DaemonConfig::new(42);
    cfg.window_ms = 60_000;
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(2_048);
    cfg.transfer = TransferMode::Full;
    let daemon = SiteDaemon::new(cfg);
    let mut pipeline = IngestPipeline::new(daemon, 1_024);

    let base_ms = 125_000;
    let pkt = handmade_v5_packet(
        base_ms,
        &[
            // (src, dst, sport, dport, proto, packets, bytes, first, last)
            (
                [10, 1, 2, 3],
                [192, 0, 2, 1],
                40_001,
                443,
                6,
                100,
                90_000,
                118_000,
                119_000,
            ),
            (
                [10, 1, 2, 4],
                [192, 0, 2, 1],
                40_002,
                443,
                6,
                50,
                40_000,
                118_500,
                119_900,
            ),
            (
                [10, 9, 9, 9],
                [198, 51, 100, 7],
                53,
                53,
                17,
                8,
                1_024,
                121_000,
                124_000,
            ),
        ],
    );

    let closed = pipeline.push_packet(&pkt);
    assert!(closed.is_empty(), "both windows stay open");
    let s = pipeline.stats();
    assert_eq!(s.packets_v5, 1);
    assert_eq!(s.records, 3);
    assert_eq!(s.decode_errors, 0);
    assert_eq!(s.wire_bytes, pkt.len() as u64);

    let (summaries, daemon) = pipeline.finish();
    assert_eq!(summaries.len(), 2, "one summary per touched window");

    // Window [60s, 120s): the two TCP flows.
    let w1 = &summaries[0];
    assert_eq!(w1.window.start_ms, 60_000);
    assert_eq!(w1.site, 42);
    assert_eq!(w1.tree.total().packets, 150);
    assert_eq!(w1.tree.total().bytes, 130_000);
    let k: FlowKey = "src=10.1.2.3/32 dst=192.0.2.1/32 sport=40001 dport=443 proto=tcp"
        .parse()
        .unwrap();
    assert_eq!(
        w1.tree.subtree_popularity(&k).map(|p| p.packets),
        Some(100),
        "the individual 5-tuple is queryable in the emitted summary"
    );
    // Drill-up: both flows share the 10.0.0.0/8 source aggregate
    // (pattern query — no compaction happened, so it is exact).
    let agg: FlowKey = "src=10.0.0.0/8".parse().unwrap();
    let est = w1.tree.popularity(&agg).est.packets;
    assert!(
        (est - 150.0).abs() < 1e-9,
        "aggregate estimate {est} != 150"
    );

    // Window [120s, 180s): the DNS flow, in its own window even though
    // it shared an export packet with the older flows.
    let w2 = &summaries[1];
    assert_eq!(w2.window.start_ms, 120_000);
    assert_eq!(w2.tree.total().packets, 8);
    assert_eq!(w2.tree.total().bytes, 1_024);

    // Daemon accounting: 3 records, actual wire bytes of the payload.
    assert_eq!(daemon.stats().records, 3);
    assert_eq!(daemon.stats().raw_bytes, pkt.len() as u64);
    assert_eq!(daemon.stats().late_drops, 0);
    assert_eq!(daemon.stats().summaries, 2);

    // The summary bytes survive a decode round-trip (what the
    // collector would do on receipt).
    let wire = w1.encode();
    let back =
        flowdist::Summary::decode(&wire, Config::with_budget(2_048)).expect("wire-valid summary");
    assert_eq!(back.tree.total().packets, 150);
}

#[test]
fn pipeline_batches_many_handmade_packets_across_windows() {
    let mut cfg = DaemonConfig::new(1);
    cfg.window_ms = 1_000;
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(1_024);
    let mut pipeline = IngestPipeline::new(SiteDaemon::new(cfg), 32);

    // 40 packets × 5 records, event time marching forward ~150 ms per
    // packet: windows close as the stream advances.
    let mut total_packets: i64 = 0;
    let mut closed = Vec::new();
    for i in 0u64..40 {
        let base = 1_000 + i * 150;
        let recs: Vec<RawV5Record> = (0..5u64)
            .map(|j| {
                let pkts = (1 + (i + j) % 7) as u32;
                total_packets += pkts as i64;
                (
                    [10, (i % 4) as u8, 0, j as u8],
                    [192, 0, 2, 1],
                    (30_000 + i) as u16,
                    443,
                    6u8,
                    pkts,
                    pkts * 100,
                    base - 100,
                    base - 50 + j,
                )
            })
            .collect();
        closed.extend(pipeline.push_packet(&handmade_v5_packet(base, &recs)));
    }
    let (rest, daemon) = pipeline.finish();
    closed.extend(rest);

    assert_eq!(daemon.stats().records, 200);
    assert_eq!(daemon.stats().late_drops, 0);
    let emitted: i64 = closed.iter().map(|s| s.tree.total().packets).sum();
    assert_eq!(
        emitted, total_packets,
        "no mass lost between wire and summaries"
    );
    assert!(closed.len() >= 5, "the advancing stream closed windows");
    // Windows emit oldest-first with increasing sequence numbers.
    for pair in closed.windows(2) {
        assert!(pair[0].window.start_ms < pair[1].window.start_ms);
        assert!(pair[0].seq < pair[1].seq);
    }
}
