//! Fallback-matrix pin for the multi-lane ingest engine: every
//! lane/receive configuration — `SO_REUSEPORT` multi-socket,
//! single-socket fanout rings, `recvmmsg`, forced single-datagram
//! fallback — must emit **byte-identical** summary frames over the
//! same traffic, and must account for every received datagram exactly
//! once (`datagrams == packets + decode_errors + quota_packet_drops`)
//! *per lane* and summed.
//!
//! Byte identity is not a smoke claim: summaries are canonical
//! encodings of node multisets, lane daemons only split *which* tree a
//! record lands in, and the merger recombines them with the paper's
//! structural merge — so the frames a 4-lane site ships must equal,
//! byte for byte, what the 1-lane site ships for the same records.

use flowdist::daemon::{DaemonConfig, SiteDaemon, TransferMode};
use flowdist::lane::{spawn_multi_lane_ingest, LaneOptions};
use flowdist::net::export_netflow;
use flowdist::{IngestPipeline, IngestReport, LaneSnapshot};
use flowkey::Schema;
use flownet::FlowRecord;
use flowtree_core::Config;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

const EXPORTERS: usize = 4;
const RECORDS_PER_EXPORTER: usize = 30;
const GARBAGE_PER_EXPORTER: usize = 3;

/// Three open windows: every exporter replays windows 0–2 back to
/// back, so a lane shared by several exporters sees the next one's
/// window 0 two windows behind the last one's window 2.
fn pipeline_for(_lane: usize) -> IngestPipeline {
    let mut cfg = DaemonConfig::new(9);
    cfg.window_ms = 1_000;
    cfg.open_windows = 3;
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(4_096);
    cfg.transfer = TransferMode::Full;
    IngestPipeline::new(SiteDaemon::new(cfg), 64)
}

/// The canonical record stream of exporter `s`: 30 records spread
/// over event-time windows [0s,1s) [1s,2s) [2s,3s), distinct hosts
/// per exporter so the merged tree exercises real structure.
fn exporter_records(s: usize) -> Vec<FlowRecord> {
    (0..RECORDS_PER_EXPORTER as u64)
        .map(|i| {
            let mut r = FlowRecord::v4(
                [10, 3, s as u8, (i % 8) as u8],
                [192, 0, 2, 9],
                4_000 + s as u16,
                443,
                6,
                2 + i % 3,
                (2 + i % 3) * 64,
            );
            let ts = (i / 10) * 1_000 + 100 + i;
            r.first_ms = ts;
            r.last_ms = ts;
            r
        })
        .collect()
}

/// Runs one matrix cell: boots the engine, replays the canonical
/// traffic (valid v5 exports plus garbage datagrams from every
/// exporter), waits until every sent datagram is visibly accounted,
/// stops, and returns the report, the shipped frames, and the final
/// per-lane snapshots.
fn run_cell(opts: LaneOptions) -> (IngestReport, Vec<Vec<u8>>, Vec<LaneSnapshot>) {
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(256);
    let handle = spawn_multi_lane_ingest("127.0.0.1:0", pipeline_for, tx, opts).expect("bind");
    let to = handle.local_addr();
    let view = handle.view();

    let mut sent = 0u64;
    for s in 0..EXPORTERS {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sent += export_netflow(&sock, to, &exporter_records(s), 10_000).unwrap() as u64;
        for g in 0..GARBAGE_PER_EXPORTER {
            let junk = vec![0xA5u8; 11 + g]; // undecodable, distinct sizes
            sock.send_to(&junk, to).unwrap();
            sent += 1;
        }
    }

    // Loopback does not reorder but can drop under pressure; the pin
    // below needs every datagram, so wait until the lanes have seen
    // (and therefore processed) all of them before stopping.
    let deadline = Instant::now() + Duration::from_secs(10);
    while view.snapshot().total.datagrams < sent {
        assert!(
            Instant::now() < deadline,
            "lanes saw {} of {sent} datagrams",
            view.snapshot().total.datagrams
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let lanes: Vec<LaneSnapshot> = (0..view.lanes()).map(|i| view.lane(i)).collect();
    let report = handle.stop();
    let frames: Vec<Vec<u8>> = rx.try_iter().collect();
    assert_eq!(
        report.total.datagrams, sent,
        "nothing received beyond the plan"
    );
    (report, frames, lanes)
}

/// Exact drop accounting, per lane and summed: every datagram sits in
/// exactly one of {decoded packet, decode error, quota drop}.
fn check_accounting(report: &IngestReport, lanes: &[LaneSnapshot]) {
    assert!(report.error.is_none());
    for (i, l) in lanes.iter().enumerate() {
        assert_eq!(
            l.stats.datagrams,
            l.stats.pipeline.packets
                + l.stats.pipeline.decode_errors
                + l.stats.admission.packet_drops,
            "lane {i} accounting identity"
        );
    }
    let summed: u64 = lanes.iter().map(|l| l.stats.datagrams).sum();
    assert_eq!(summed, report.total.datagrams, "lane datagrams re-sum");
    assert_eq!(
        report.total.datagrams,
        report.total.pipeline.packets
            + report.total.pipeline.decode_errors
            + report.total.admission.packet_drops,
        "summed accounting identity"
    );
    assert_eq!(
        report.total.pipeline.decode_errors,
        (EXPORTERS * GARBAGE_PER_EXPORTER) as u64,
        "every garbage datagram counted as a decode error"
    );
    assert_eq!(
        report.total.pipeline.records,
        (EXPORTERS * RECORDS_PER_EXPORTER) as u64
    );
    assert_eq!(report.frames_dropped, 0);
}

#[test]
fn every_fallback_cell_emits_byte_identical_summaries() {
    // Reference: one lane, default receive path — the classic loop.
    let (ref_report, ref_frames, ref_lanes) = run_cell(LaneOptions::default());
    check_accounting(&ref_report, &ref_lanes);
    assert_eq!(ref_frames.len(), 3, "three event-time windows emitted");

    // The matrix: lanes × {reuseport, fanout rings} × {recvmmsg,
    // forced fallback}. On non-Linux hosts the reuseport cells
    // transparently run the fanout path — still covered, not skipped.
    let cells: &[(&str, bool, bool)] = &[
        ("reuseport+recvmmsg", true, false),
        ("reuseport+fallback-recv", true, true),
        ("fanout+recvmmsg", false, false),
        ("fanout+fallback-recv", false, true),
    ];
    for &(name, reuseport, force_fallback) in cells {
        let opts = LaneOptions {
            lanes: 4,
            recv_batch: 8,
            reuseport,
            force_fallback_recv: force_fallback,
            ..LaneOptions::default()
        };
        let (report, frames, lanes) = run_cell(opts);
        assert_eq!(lanes.len(), 4, "{name}: four lanes live");
        check_accounting(&report, &lanes);
        assert_eq!(
            frames, ref_frames,
            "{name}: summary frames must be byte-identical to single-lane"
        );
    }
}

#[test]
fn forced_fallback_receiver_still_batches_accounting() {
    // The fallback single-datagram path must preserve the identity
    // even when the ring burst size is 1 (worst-case batching).
    let opts = LaneOptions {
        lanes: 2,
        recv_batch: 1,
        reuseport: false,
        force_fallback_recv: true,
        ..LaneOptions::default()
    };
    let (report, frames, lanes) = run_cell(opts);
    check_accounting(&report, &lanes);
    assert!(!frames.is_empty());
    let batches: u64 = lanes.iter().map(|l| l.recv_batches).sum();
    assert!(
        batches >= report.total.datagrams / 2,
        "burst size 1 means roughly one batch per datagram (got {batches} \
         for {} datagrams)",
        report.total.datagrams
    );
}
