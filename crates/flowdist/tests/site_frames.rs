//! The site end of the one frame contract: every window a site ships
//! is a version-3 `Full` frame at epoch 1 with provenance `[site]`,
//! whether a `SiteDaemon` closes it or the lane merger emits it, and a
//! shipper refuses any frame without an epoch.

use flowdist::net::export_netflow;
use flowdist::{
    spawn_multi_lane_ingest, DaemonConfig, DistError, EpochHeader, ExportShipper, IngestPipeline,
    LaneOptions, ShipperConfig, SiteDaemon, SpillConfig, SpillQueue, Summary, SummaryKind,
    TransferMode,
};
use flowkey::Schema;
use flownet::FlowRecord;
use flowtree_core::Config;
use std::net::UdpSocket;
use std::time::Duration;

const SITE: u16 = 7;
const SITE_EPOCH: Option<EpochHeader> = Some(EpochHeader {
    epoch: 1,
    base: None,
});

fn daemon_cfg() -> DaemonConfig {
    let mut cfg = DaemonConfig::new(SITE);
    cfg.window_ms = 1_000;
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(4_096);
    cfg.transfer = TransferMode::Full;
    cfg
}

fn record(ts_ms: u64, host: u8) -> FlowRecord {
    let mut r = FlowRecord::v4([10, 7, 0, host], [192, 0, 2, 1], 1234, 443, 6, 2, 200);
    r.first_ms = ts_ms;
    r.last_ms = ts_ms;
    r
}

/// Decodes `frame` and checks it is the site's window `seq`, shipped
/// whole at epoch 1 as a version-3 frame.
fn assert_site_frame(frame: &[u8], seq: u64) {
    assert_eq!(frame[4], flowdist::summary::SUMMARY_VERSION_DELTA_AGG);
    let s = Summary::decode(frame, Config::with_budget(8_192)).unwrap();
    assert_eq!((s.site, s.seq, s.kind), (SITE, seq, SummaryKind::Full));
    assert_eq!(s.epoch(), SITE_EPOCH);
    assert_eq!(s.provenance(), Some(&[SITE][..]));
}

#[test]
fn site_daemon_full_windows_are_v3_site_frames() {
    let mut d = SiteDaemon::new(daemon_cfg());
    d.ingest_record(&record(100, 1));
    d.ingest_record(&record(1_100, 2));
    let out = d.flush();
    assert_eq!(out.len(), 2);
    for (i, s) in out.iter().enumerate() {
        assert_site_frame(&s.encode(), i as u64 + 1);
    }
    assert_eq!(
        d.stats().summary_bytes,
        out.iter().map(|s| s.encode().len() as u64).sum::<u64>()
    );
}

#[test]
fn lane_merger_ships_each_window_as_a_v3_site_frame() {
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(64);
    let pipeline = |_lane| IngestPipeline::new(SiteDaemon::new(daemon_cfg()), 64);
    let handle =
        spawn_multi_lane_ingest("127.0.0.1:0", pipeline, tx, LaneOptions::default()).unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let records: Vec<FlowRecord> = (0..30)
        .map(|i| record((i / 10) * 1_000 + 100 + i, (i % 8) as u8))
        .collect();
    export_netflow(&sock, handle.local_addr(), &records, 10_000).unwrap();
    // Let delivery settle; stopping flushes every open window.
    std::thread::sleep(Duration::from_millis(120));
    let report = handle.stop();
    assert_eq!(report.total.pipeline.records, 30);
    let frames: Vec<Vec<u8>> = rx.try_iter().collect();
    assert_eq!(frames.len(), 3);
    for (i, f) in frames.iter().enumerate() {
        assert_site_frame(f, i as u64 + 1);
    }
}

#[test]
fn shipper_refuses_frames_without_an_epoch() {
    let cfg = ShipperConfig {
        handshake_ms: 10,
        ..ShipperConfig::new("127.0.0.1:1")
    };
    let mut shipper = ExportShipper::new(cfg, SpillQueue::in_memory(SpillConfig::default()), 1);
    let mut d = SiteDaemon::new(daemon_cfg());
    d.ingest_record(&record(100, 1));
    let v3 = d.flush().remove(0);
    let v1 = Summary {
        lineage: None,
        ..v3.clone()
    };
    assert!(matches!(
        shipper.core.enqueue(v1.encode()),
        Err(DistError::BadFrame("summary without epoch"))
    ));
    assert_eq!(
        (shipper.core.pending_len(), shipper.core.stats().enqueued),
        (0, 0)
    );
    assert!(shipper.core.enqueue(v3.encode()).unwrap().is_empty());
    assert_eq!(shipper.core.pending_len(), 1);
}
