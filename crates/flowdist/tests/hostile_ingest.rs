//! Fault-injection suite for the ingest edge: seeded hostile-exporter
//! streams against the decode→admit→bucket→ship path, pinning the
//! hardening contract end to end:
//!
//! * no panic, ever, on any byte stream;
//! * no unbounded growth — template caches, buffered records, open
//!   window buckets, and the exporter table all stay under their caps;
//! * exact accounting — every datagram lands in exactly one of
//!   `packets`, `decode_errors`, or `quota_packet_drops`, and every
//!   dropped record/template is in exactly one reason counter.
//!
//! Everything is seeded ([`flowdist::faultnet`]), so a failure replays.

use flowdist::faultnet::HostileExporter;
use flowdist::{
    spawn_multi_lane_ingest, AdmissionConfig, AdmissionControl, AdmissionKnobs, DaemonConfig,
    IngestPipeline, LaneOptions, SiteDaemon, TransferMode,
};
use flownet::DecoderLimits;
use std::net::{IpAddr, Ipv4Addr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn daemon(window_ms: u64) -> SiteDaemon {
    let mut cfg = DaemonConfig::new(3);
    cfg.window_ms = window_ms;
    cfg.transfer = TransferMode::Full;
    cfg.tree = flowtree_core::Config::with_budget(512);
    SiteDaemon::new(cfg)
}

fn tight_limits() -> DecoderLimits {
    DecoderLimits {
        max_templates_per_domain: 8,
        max_templates: 32,
        template_timeout_ms: 60_000,
        max_fields: 16,
        max_record_bytes: 512,
    }
}

/// 10k seeded hostile packets through the full pipeline: no panic,
/// template caches pinned under their caps the whole way, and every
/// packet in exactly one of `packets` / `decode_errors`.
#[test]
fn hostile_stream_cannot_panic_or_grow_the_decoder() {
    let mut gen = HostileExporter::new(0xDEAD_BEEF, 1_000_000);
    let mut p = IngestPipeline::with_limits(daemon(1_000), 256, tight_limits());
    let rounds = 10_000u64;
    for i in 0..rounds {
        let pkt = gen.next_packet();
        let _ = match p.decode_packet_at(&pkt, i) {
            Some(records) => p.push_records(&records),
            None => Vec::new(),
        };
        let d = p.decoder_stats();
        // `templates` sums the v9 and IPFIX caches; each is capped at
        // `max_templates`, so the combined gauge is bounded by 2×.
        assert!(
            d.templates <= 64,
            "global template cap held: {}",
            d.templates
        );
    }
    let s = *p.stats();
    assert_eq!(
        s.packets + s.decode_errors,
        rounds,
        "every packet counted once"
    );
    let d = p.decoder_stats();
    assert!(
        d.templates_rejected > 0,
        "oversized templates were rejected"
    );
    assert!(d.templates_evicted_cap > 0, "flooded domains hit the cap");
    assert!(
        d.records_skipped > 0,
        "missing-template data counted, not buffered"
    );
    // Template conservation: learned templates are live, evicted, or
    // withdrawn — none leak (refreshes re-learn the same slot, so
    // learned may exceed the sum; it can never be under it).
    assert!(
        d.templates_learned
            >= d.templates as u64
                + d.templates_evicted_cap
                + d.templates_evicted_timeout
                + d.templates_withdrawn,
        "templates conserved: {d:?}"
    );
}

/// A broken-clock exporter scattering one record per distinct stale
/// window: the open-window budget sheds oldest-first, so the bucket
/// count — not just the record count — stays bounded.
#[test]
fn open_window_budget_sheds_oldest_buckets() {
    // Batch far above the rate so neither the size trigger nor the
    // record hard cap fires; only the window budget can bound buckets.
    let mut p = IngestPipeline::with_limits(daemon(1_000), 4_096, DecoderLimits::default());
    p.set_max_open_windows(4);
    // Anchor the newest window far ahead, then scatter stale singles.
    let anchor = flownet::FlowRecord::v4([10, 0, 0, 1], [192, 0, 2, 1], 1, 443, 6, 1, 100);
    let mut anchor = anchor;
    anchor.first_ms = 1_000_000;
    anchor.last_ms = 1_000_000;
    p.push_records(&[anchor]);
    for i in 0..100u64 {
        let mut r = flowrecord(i * 1_000 + 5);
        r.packets = 1;
        p.push_records(&[r]);
        assert!(
            p.buffered() <= 5,
            "≤ budget+newest buckets, one record each"
        );
    }
    assert!(p.stats().window_sheds > 0, "budget forced sheds");
    let (_, d) = p.finish();
    assert_eq!(d.stats().records, 101, "shed records reached the daemon");
}

fn flowrecord(ts_ms: u64) -> flownet::FlowRecord {
    let mut r = flownet::FlowRecord::v4([10, 0, 0, 2], [192, 0, 2, 9], 1, 443, 6, 1, 100);
    r.first_ms = ts_ms;
    r.last_ms = ts_ms;
    r
}

/// Token-bucket identity: every offered packet is either admitted or
/// in `packet_drops`; a quota of R/s admits no more than burst + R×t.
#[test]
fn packet_quota_admits_exactly_rate_plus_burst() {
    let cfg = AdmissionConfig {
        packet_rate: 100,
        packet_burst: 50,
        ..AdmissionConfig::default()
    };
    let mut ac = AdmissionControl::new();
    let src = IpAddr::V4(Ipv4Addr::new(203, 0, 113, 7));
    let offered = 1_000u64;
    let mut admitted = 0u64;
    // All offered within one simulated second.
    for i in 0..offered {
        if ac.admit_packet(src, &cfg, i) {
            admitted += 1;
        }
    }
    assert_eq!(
        admitted + ac.stats().packet_drops,
        offered,
        "one counter per packet"
    );
    // Bucket starts full at `burst` and refills 100/s over ~1 s.
    assert!((50..=151).contains(&admitted), "admitted {admitted}");
}

/// The exporter table stays bounded under a source-address flood, and
/// evictions are counted.
#[test]
fn exporter_table_is_bounded_under_address_flood() {
    let cfg = AdmissionConfig {
        packet_rate: 10,
        max_exporters: 64,
        ..AdmissionConfig::default()
    };
    let mut ac = AdmissionControl::new();
    for i in 0..10_000u32 {
        let src = IpAddr::V4(Ipv4Addr::from(0x0a00_0000 | i));
        let _ = ac.admit_packet(src, &cfg, i as u64);
        assert!(ac.exporters() <= 64, "table capped: {}", ac.exporters());
    }
    assert!(ac.stats().exporters_evicted > 0);
}

/// The UDP ingest engine under a seeded hostile mix with tight quotas:
/// the accounting identity `datagrams == packets + decode_errors +
/// quota_packet_drops` holds at the live gauges, templates stay
/// capped, and the engine drains cleanly. (Loopback UDP may drop under
/// pressure, so the identity is pinned against *received* datagrams,
/// which is immune to socket loss.)
#[test]
fn udp_loop_accounts_every_datagram_exactly_once() {
    let knobs = Arc::new(AdmissionKnobs::new(
        AdmissionConfig {
            packet_rate: 200,
            record_rate: 1_000,
            max_exporters: 16,
            ..AdmissionConfig::default()
        },
        8,
    ));
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(64);
    // Drain frames so backpressure never wedges the engine.
    let drain = std::thread::spawn(move || while rx.recv().is_ok() {});
    let handle = spawn_multi_lane_ingest(
        "127.0.0.1:0",
        |_| IngestPipeline::with_limits(daemon(1_000), 64, tight_limits()),
        tx,
        LaneOptions {
            receive_buffer_bytes: Some(1 << 20),
            knobs: Arc::clone(&knobs),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    let gauges = handle.view();

    #[cfg(target_os = "linux")]
    assert!(
        gauges.snapshot().recv_buffer_bytes > 0,
        "achieved SO_RCVBUF surfaced"
    );

    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut gen = HostileExporter::new(0xFEED_F00D, 1_000_000);
    let sent = 2_000u64;
    for i in 0..sent {
        sender.send_to(&gen.next_packet(), addr).unwrap();
        // Pace a little every few packets so loopback loss stays rare
        // and the quota actually engages across refill intervals.
        if i % 64 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Wait for the receive side to go quiet (datagram count stable).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = gauges.snapshot().datagrams;
        if (now == last && now > 0) || Instant::now() > deadline {
            break;
        }
        last = now;
    }

    let report = handle.stop();
    drop(drain); // rx side: sender gone, thread exits on its own
    assert!(report.error.is_none(), "loop survived: {:?}", report.error);
    assert_eq!(
        report.datagrams,
        report.pipeline.packets + report.pipeline.decode_errors + report.admission.packet_drops,
        "every datagram in exactly one counter: {report:?}"
    );
    assert!(report.datagrams > 0, "traffic arrived");
    assert!(
        report.decoder.templates <= 64, // v9 cap + IPFIX cap
        "template cap held under flood: {}",
        report.decoder.templates
    );
    assert!(
        report.admission.packet_drops > 0,
        "tight quota engaged: {:?}",
        report.admission
    );
}

/// Live knob reload mid-stream: a lane reads the shared knobs per
/// datagram, so storing a zero quota un-throttles without a restart.
#[test]
fn knob_reload_takes_effect_without_restart() {
    let knobs = Arc::new(AdmissionKnobs::new(
        AdmissionConfig {
            packet_rate: 1, // throttle hard
            packet_burst: 1,
            ..AdmissionConfig::default()
        },
        0,
    ));
    let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(64);
    let drain = std::thread::spawn(move || while rx.recv().is_ok() {});
    let handle = spawn_multi_lane_ingest(
        "127.0.0.1:0",
        |_| IngestPipeline::with_limits(daemon(1_000), 64, DecoderLimits::default()),
        tx,
        LaneOptions {
            knobs: Arc::clone(&knobs),
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = handle.local_addr();
    let gauges = handle.view();
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    let mut gen = HostileExporter::new(7, 1_000_000);

    // Phase 1: throttled — drops accumulate.
    let burst: Vec<Vec<u8>> = (0..50).map(|_| gen.next_packet()).collect();
    for pkt in &burst {
        sender.send_to(pkt, addr).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauges.snapshot().quota_packet_drops == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let throttled = gauges.snapshot();
    assert!(throttled.quota_packet_drops > 0, "phase 1 throttled");
    // Let the lane finish the burst before touching the knobs: a
    // datagram it judged under the old quota while the reload landed
    // would be one drop more than `drops_before` saw.
    while gauges.snapshot().datagrams < burst.len() as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Reload: lift the quota entirely (0 = unlimited).
    knobs.store(AdmissionConfig::default());
    let drops_before = gauges.snapshot().quota_packet_drops;
    let valid = flownet::netflow5::encode(&[flowrecord(1_000_500)], 1_002_000, 1);
    let mut accepted = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let before = gauges.snapshot().packets;
        sender.send_to(&valid, addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let s = gauges.snapshot();
        if s.packets > before {
            accepted = true;
            break;
        }
    }
    let report = handle.stop();
    drop(drain);
    assert!(accepted, "post-reload packets flow");
    assert_eq!(
        report.admission.packet_drops, drops_before,
        "no further quota drops after reload"
    );
}
