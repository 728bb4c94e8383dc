//! Hostile-peer tests for the ack/rebase control protocol: malformed
//! control frames against the serving loop, lying acks against the
//! shipper, and a full export chain driven through a dropping,
//! duplicating, flapping proxy.

mod common;

use common::{spawn_proxy, ProxyConfig};
use flowdist::control::{ControlFrame, SlotPos, CONTROL_MAGIC, FEATURE_ACKS};
use flowdist::framing::{read_frame, write_frame};
use flowdist::net::export_netflow;
use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flowdist::{
    BackoffConfig, EpochHeader, ExportShipper, Lineage, ShipperConfig, SteadyClock, Summary,
    SummaryKind, WindowId,
};
use flowkey::{FlowKey, Schema};
use flownet::FlowRecord;
use flowrelay::server::serve_acked_ingest;
use flowrelay::{ExportConfig, JournalConfig, Relay, RelayConfig};
use flowtree_core::{Config, FlowTree, Popularity};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SPAN: u64 = 1_000;

fn site_summary(site: u16, window: u64, hosts: std::ops::Range<u8>, epoch: u64) -> Summary {
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
    for h in hosts {
        let key: FlowKey =
            format!("src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                .parse()
                .unwrap();
        tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
    }
    Summary {
        site,
        window: WindowId {
            start_ms: window * SPAN,
            span_ms: SPAN,
        },
        seq: epoch,
        kind: SummaryKind::Full,
        lineage: Some(Lineage {
            provenance: vec![site],
            epoch: EpochHeader { epoch, base: None },
        }),
        tree,
    }
}

fn relay(name: &str, agg: u16, expected: &[u16]) -> Relay {
    Relay::new(RelayConfig {
        name: name.into(),
        agg_site: agg,
        expected: expected.to_vec(),
        schema: Schema::five_feature(),
        tree: Config::with_budget(100_000),
        export: ExportConfig::default(),
    })
}

/// Spawns an in-process acked-ingest server; returns its address.
fn spawn_server(relay: Arc<Mutex<Relay>>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { continue };
            let relay = Arc::clone(&relay);
            std::thread::spawn(move || {
                let _ = serve_acked_ingest(&mut conn, &relay);
            });
        }
    });
    addr
}

/// A hostile client cannot crash or desynchronize the serving loop:
/// garbage control frames are counted, good frames keep being acked.
#[test]
fn serving_loop_survives_hostile_control_frames() {
    let relay = Arc::new(Mutex::new(relay("up", 200, &[0, 1])));
    let addr = spawn_server(Arc::clone(&relay));
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Handshake.
    write_frame(
        &mut stream,
        &ControlFrame::Hello {
            features: FEATURE_ACKS,
        }
        .encode(),
    )
    .unwrap();
    let reply = read_frame(&mut reader).unwrap().expect("hello reply");
    assert!(matches!(
        ControlFrame::decode(&reply),
        Ok(ControlFrame::Hello { features }) if features & FEATURE_ACKS != 0
    ));

    // Hostile battery: truncated control, unknown type, zero-span ack,
    // an ack (wrong direction), a malformed summary, and a well-formed
    // summary header around a ten-byte tree that claims the largest
    // admissible node count (the decoder must refuse it on the bytes
    // it has, not reserve for the rows it was promised).
    let mut bad_type = ControlFrame::Hello { features: 0 }.encode();
    bad_type[5] = 0x7F;
    let mut zero_span = ControlFrame::Ack(SlotPos {
        window_start_ms: 0,
        span_ms: SPAN,
        exporter: 0,
        epoch: 1,
    })
    .encode();
    // Rewrite the span varint (offset 6 after magic+ver+type) to 0.
    zero_span[7] = 0;
    let wrong_direction = ControlFrame::Ack(SlotPos {
        window_start_ms: 0,
        span_ms: SPAN,
        exporter: 0,
        epoch: 1,
    })
    .encode();
    let header = site_summary(0, 0, 0..1, 1).encode();
    let tree_at = header
        .windows(4)
        .position(|w| w == flowtree_core::MAGIC)
        .expect("summary frames embed a tree frame");
    let mut count_bomb = header[..tree_at].to_vec();
    count_bomb.extend_from_slice(&flowtree_core::MAGIC);
    count_bomb.extend_from_slice(&[flowtree_core::VERSION, 3]);
    flowkey::pack::write_varint(&mut count_bomb, flowtree_core::MAX_WIRE_NODES as u64);
    for hostile in [
        &CONTROL_MAGIC[..3].to_vec(),
        &bad_type,
        &zero_span,
        &wrong_direction,
        &b"FSUMgarbage".to_vec(),
        &count_bomb,
    ] {
        write_frame(&mut stream, hostile).unwrap();
    }

    // A good frame after the battery: still served, still acked.
    let good = site_summary(0, 0, 0..3, 1).encode();
    write_frame(&mut stream, &good).unwrap();
    let ack = read_frame(&mut reader).unwrap().expect("ack after battery");
    let Ok(ControlFrame::Ack(pos)) = ControlFrame::decode(&ack) else {
        panic!("expected an ack, got {ack:?}");
    };
    assert_eq!((pos.window_start_ms, pos.exporter), (0, 0));

    // A duplicate is acked (replay), not re-applied.
    write_frame(&mut stream, &good).unwrap();
    let ack2 = read_frame(&mut reader).unwrap().expect("replay ack");
    assert!(matches!(
        ControlFrame::decode(&ack2),
        Ok(ControlFrame::Ack(_))
    ));
    let guard = relay.lock().unwrap();
    assert_eq!(guard.ledger().replayed, 1);
    // Hostile *control* frames are tallied by the serving loop and never
    // reach the relay; the three non-control garbage blobs do, as rejects.
    assert_eq!(guard.ledger().rejected, 3, "garbage summaries were counted");
    assert_eq!(guard.collector().window_seq(0, 0), 1);
}

/// A frame without an epoch (version 1) is refused and never acked:
/// the next control frame on the stream answers the version-3 frame
/// sent after it.
#[test]
fn a_frame_without_an_epoch_gets_no_ack() {
    let relay = Arc::new(Mutex::new(relay("up", 200, &[0])));
    let addr = spawn_server(Arc::clone(&relay));
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello = ControlFrame::Hello {
        features: FEATURE_ACKS,
    };
    write_frame(&mut stream, &hello.encode()).unwrap();
    let reply = read_frame(&mut reader).unwrap().expect("hello reply");
    assert!(matches!(
        ControlFrame::decode(&reply),
        Ok(ControlFrame::Hello { .. })
    ));

    let v1 = Summary {
        lineage: None,
        ..site_summary(0, 0, 0..3, 1)
    };
    write_frame(&mut stream, &v1.encode()).unwrap();
    write_frame(&mut stream, &site_summary(0, 1, 0..3, 1).encode()).unwrap();
    let ack = read_frame(&mut reader).unwrap().expect("an ack");
    assert_eq!(
        ControlFrame::decode(&ack).unwrap(),
        ControlFrame::Ack(SlotPos {
            window_start_ms: SPAN,
            span_ms: SPAN,
            exporter: 0,
            epoch: 1,
        })
    );
    let guard = relay.lock().unwrap();
    assert_eq!((guard.ledger().rejected, guard.ledger().frames), (1, 1));
    assert!(guard.collector().window_tree(0, 0).is_none());
}

/// A legacy sender that never says hello gets pure one-way silence —
/// no unexpected frames appear on its stream.
#[test]
fn legacy_sender_sees_no_control_frames() {
    let relay = Arc::new(Mutex::new(relay("up", 200, &[0])));
    let addr = spawn_server(Arc::clone(&relay));
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, &site_summary(0, 0, 0..3, 1).encode()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // The frame must apply, and nothing must come back.
    for _ in 0..100 {
        if relay.lock().unwrap().collector().window_seq(0, 0) == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(relay.lock().unwrap().collector().window_seq(0, 0), 1);
    match read_frame(&mut reader) {
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut => {}
        other => panic!("legacy stream must stay silent, got {other:?}"),
    }
}

/// A lying upstream cannot trick the shipper into releasing frames it
/// never applied: stale acks, zero-epoch acks against v3 frames, and
/// unknown-window rebase requests are counted and ignored; a real ack
/// still drains.
#[test]
fn shipper_rejects_lying_acks_from_a_scripted_upstream() {
    // Scripted upstream: completes the handshake, fires a battery of
    // bogus control frames, then acks the frame for real.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let script = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let hello = read_frame(&mut reader).unwrap().expect("hello");
        assert!(matches!(
            ControlFrame::decode(&hello),
            Ok(ControlFrame::Hello { .. })
        ));
        write_frame(
            &mut conn,
            &ControlFrame::Hello {
                features: FEATURE_ACKS,
            }
            .encode(),
        )
        .unwrap();
        let data = read_frame(&mut reader).unwrap().expect("the export frame");
        let s = Summary::decode(&data, Config::with_budget(100_000)).unwrap();
        let epoch = s.epoch().unwrap().epoch;
        let pos = |w: u64, e: u64| SlotPos {
            window_start_ms: w,
            span_ms: SPAN,
            exporter: s.site,
            epoch: e,
        };
        // Lies first: unknown window, zero-epoch against a v3 frame,
        // rebase-request for a window nobody exported.
        for lie in [
            ControlFrame::Ack(pos(999 * SPAN, epoch)),
            ControlFrame::Ack(pos(s.window.start_ms, 0)),
            ControlFrame::RebaseRequest(pos(777 * SPAN, 0)),
        ] {
            write_frame(&mut conn, &lie.encode()).unwrap();
        }
        // Then the truth.
        write_frame(
            &mut conn,
            &ControlFrame::Ack(pos(s.window.start_ms, epoch)).encode(),
        )
        .unwrap();
        // Hold the connection so the shipper can drain the acks.
        std::thread::sleep(Duration::from_millis(500));
    });

    let relay = Mutex::new(relay("t1", 100, &[0]));
    relay
        .lock()
        .unwrap()
        .apply(site_summary(0, 0, 0..3, 1))
        .unwrap();
    let exports = relay.lock().unwrap().flush_exports();
    assert_eq!(exports.len(), 1);

    let mut shipper = ExportShipper::new(
        ShipperConfig {
            upstream: addr,
            handshake_ms: 2_000,
            stall_ms: 10_000,
            backoff: BackoffConfig::default(),
        },
        flowdist::SpillQueue::in_memory(flowdist::SpillConfig::default()),
        7,
    );
    assert!(shipper
        .core
        .enqueue(exports[0].encode())
        .unwrap()
        .is_empty());
    let clock = SteadyClock::new();
    for _ in 0..200 {
        shipper.pump(
            clock.now_ms(),
            || false,
            |ev| relay.lock().unwrap().on_ship_event(ev),
        );
        if shipper.core.pending_len() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    script.join().unwrap();
    assert_eq!(
        shipper.core.pending_len(),
        0,
        "the true ack drained the frame"
    );
    let stats = shipper.core.stats();
    assert_eq!(stats.acked_frames, 1);
    assert!(stats.stale_acks >= 1, "unknown-window ack was not believed");
    assert!(
        stats.hostile_acks >= 1,
        "zero-epoch ack cannot cover a v3 frame"
    );
    assert_eq!(stats.rebase_unknown, 1);
    assert_eq!(stats.rebase_honored, 0);
    // And the relay's ledger saw the ack land.
    assert_eq!(relay.lock().unwrap().rewind_unacked_exports(), 0);
}

/// An upstream that never answers the hello is a failed connect: the
/// shipper backs off and retries, and sends and releases nothing.
#[test]
fn silent_upstream_is_a_failed_connect_and_releases_nothing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let silent = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn);
        while let Ok(Some(_)) = read_frame(&mut reader) {}
    });
    let relay = Mutex::new(relay("t1", 100, &[0]));
    relay
        .lock()
        .unwrap()
        .apply(site_summary(0, 0, 0..3, 1))
        .unwrap();
    let exports = relay.lock().unwrap().flush_exports();
    let mut shipper = ExportShipper::new(
        ShipperConfig {
            handshake_ms: 50,
            ..ShipperConfig::new(addr)
        },
        flowdist::SpillQueue::in_memory(flowdist::SpillConfig::default()),
        3,
    );
    assert!(shipper
        .core
        .enqueue(exports[0].encode())
        .unwrap()
        .is_empty());
    shipper.pump(
        SteadyClock::new().now_ms(),
        || false,
        |ev| relay.lock().unwrap().on_ship_event(ev),
    );
    let ledger = *relay.lock().unwrap().ledger();
    assert_eq!(
        (ledger.reconnect_attempts, ledger.reconnect_failures),
        (1, 1)
    );
    let stats = shipper.core.stats();
    assert_eq!(
        (stats.handshakes, stats.sent_frames, stats.acked_frames),
        (0, 0, 0)
    );
    assert_eq!(shipper.core.pending_len(), 1, "no ack, no release");
    assert!(!shipper.core.view().connected);
    silent.join().unwrap();
}

/// The full export chain through a dropping, duplicating, flapping
/// proxy: every window still converges at the upstream, byte-identical
/// to a directly-fed reference, because unacked frames are resent and
/// replays are deduped.
#[test]
fn export_chain_converges_through_lossy_duplicating_proxy() {
    let upstream = Arc::new(Mutex::new(relay("up", 200, &[0, 1])));
    let up_addr = spawn_server(Arc::clone(&upstream));
    let proxy = spawn_proxy(
        up_addr,
        // Flap aggressively: resend-all-unacked on reconnect is the
        // shipper's recovery path for dropped frames and dropped acks,
        // so a session has to die for the loss to heal.
        ProxyConfig {
            drop_percent: 25,
            dup_percent: 25,
            flap_after: 3,
            seed: 42,
        },
    );

    let relay = Mutex::new(relay("t1", 100, &[0, 1]));
    let mut reference = self::relay("ref", 200, &[0, 1]);
    let mut shipper = ExportShipper::new(
        // A short ack-stall window: dropped frames and dropped acks on
        // a connection too quiet to flap are healed by the recycle.
        ShipperConfig {
            upstream: proxy.addr.clone(),
            handshake_ms: 2_000,
            stall_ms: 150,
            backoff: BackoffConfig {
                base_ms: 5,
                max_ms: 50,
            },
        },
        flowdist::SpillQueue::in_memory(flowdist::SpillConfig::default()),
        11,
    );
    let clock = SteadyClock::new();

    // Several windows, with late re-exports mixed in.
    for round in 1..=3u64 {
        for w in 0..4u64 {
            for site in 0..2u16 {
                let hosts = 0..(2 * round + site as u64) as u8;
                let _ = relay
                    .lock()
                    .unwrap()
                    .apply(site_summary(site, w, hosts, round));
            }
        }
        for e in relay.lock().unwrap().flush_exports() {
            // The reference upstream is fed directly, no network.
            let frame = e.encode();
            reference.ingest_classified(&frame);
            assert!(shipper.core.enqueue(frame).unwrap().is_empty());
        }
        for _ in 0..1_200 {
            shipper.pump(
                clock.now_ms(),
                || false,
                |ev| relay.lock().unwrap().on_ship_event(ev),
            );
            if shipper.core.pending_len() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            shipper.core.pending_len(),
            0,
            "round {round} drained through the weather (stats: {:?})",
            shipper.core.stats()
        );
    }

    assert!(
        shipper.core.view().connected && shipper.core.stats().handshakes > 0,
        "hellos get through the weather, sessions negotiate acks"
    );
    let up = upstream.lock().unwrap();
    for w in 0..4u64 {
        let got = up
            .collector()
            .window_tree(w * SPAN, 100)
            .expect("window delivered")
            .encode();
        let want = reference
            .collector()
            .window_tree(w * SPAN, 100)
            .expect("reference window")
            .encode();
        assert_eq!(got, want, "window {w} byte-identical through the weather");
        assert_eq!(
            up.collector().window_epoch(w * SPAN, 100),
            reference.collector().window_epoch(w * SPAN, 100),
            "window {w} applied-frame count matches: duplicates were deduped"
        );
    }
    let dropped = proxy
        .stats
        .dropped
        .load(std::sync::atomic::Ordering::Relaxed);
    let duplicated = proxy
        .stats
        .duplicated
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        dropped > 0 && duplicated > 0,
        "the weather actually happened: dropped {dropped}, duplicated {duplicated}"
    );
}

/// Serves the acknowledged ingest protocol on `listener` until `stop`
/// is set, then dies the way a relay process does: every live
/// connection is cut, and the listener and the relay handle go with
/// the thread.
fn serve_until_killed(
    listener: TcpListener,
    relay: Arc<Mutex<Relay>>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    listener.set_nonblocking(true).unwrap();
    std::thread::spawn(move || {
        let mut conns = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((mut conn, _)) => {
                    conn.set_nonblocking(false).unwrap();
                    let cut = conn.try_clone().unwrap();
                    let relay = Arc::clone(&relay);
                    let serving = std::thread::spawn(move || {
                        let _ = serve_acked_ingest(&mut conn, &relay);
                    });
                    conns.push((cut, serving));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for (cut, serving) in conns {
            let _ = cut.shutdown(std::net::Shutdown::Both);
            let _ = serving.join();
        }
    })
}

/// The site hop under weather: a `SiteRuntime` ships through a proxy
/// that duplicates frames and kills every session after a few of
/// them, to a journaled relay that is restarted once mid-stream on the
/// same port. Every window must arrive exactly once with every record
/// in it: frames written into a dying connection are resent until
/// acked, and the relay deduplicates the resends.
#[test]
fn site_hop_survives_weather_and_a_relay_restart() {
    const SITE: u16 = 7;
    const WINDOWS: u64 = 12;
    const PER_WINDOW: u64 = 8;
    let dir = std::env::temp_dir().join(format!("flowrelay-site-hop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let cfg = RelayConfig {
            name: "up".into(),
            agg_site: 200,
            expected: vec![SITE],
            schema: Schema::five_feature(),
            tree: Config::with_budget(100_000),
            export: ExportConfig::default(),
        };
        let (relay, _) = Relay::open_journaled(cfg, &dir.join("journal"), JournalConfig::default())
            .expect("open journal");
        Arc::new(Mutex::new(relay))
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let relay_addr = listener.local_addr().unwrap().to_string();
    let mut relay = open();
    let mut stop = Arc::new(AtomicBool::new(false));
    let mut serving = serve_until_killed(listener, Arc::clone(&relay), Arc::clone(&stop));
    let proxy = spawn_proxy(
        relay_addr.clone(),
        ProxyConfig {
            drop_percent: 0,
            dup_percent: 25,
            flap_after: 3,
            seed: 17,
        },
    );
    let mut cfg = SiteNodeConfig::new(SITE, proxy.addr.clone());
    cfg.window_ms = SPAN;
    cfg.budget = 4_096;
    let site = SiteRuntime::start(cfg).unwrap();

    // Window w carries PER_WINDOW records of w + 1 packets each.
    let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
    let send = |windows: std::ops::Range<u64>| {
        for w in windows {
            let records: Vec<FlowRecord> = (0..PER_WINDOW)
                .map(|i| {
                    let mut r = FlowRecord::v4(
                        [10, 9, 0, i as u8],
                        [192, 0, 2, 1],
                        1234,
                        443,
                        6,
                        w + 1,
                        (w + 1) * 100,
                    );
                    r.first_ms = w * SPAN + 100 + i;
                    r.last_ms = r.first_ms;
                    r
                })
                .collect();
            export_netflow(&sender, site.ingest_addr(), &records, 100_000).unwrap();
        }
    };

    send(0..WINDOWS / 2);
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while relay.lock().unwrap().ledger().site_frames < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no window reached the relay"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The relay dies mid-stream and recovers from its journal on the
    // same port.
    stop.store(true, Ordering::SeqCst);
    serving.join().unwrap();
    drop(relay);
    relay = open();
    stop = Arc::new(AtomicBool::new(false));
    let listener = TcpListener::bind(&relay_addr).expect("rebind the relay's port");
    serving = serve_until_killed(listener, Arc::clone(&relay), Arc::clone(&stop));
    send(WINDOWS / 2..WINDOWS);

    let report = site.drain(Duration::from_secs(30));
    assert_eq!(report.ingest.total.pipeline.records, WINDOWS * PER_WINDOW);
    assert_eq!(report.ingest.frames_sent, WINDOWS, "one frame per window");
    assert_eq!(report.pending_at_exit, 0, "the relay acked every frame");
    assert_eq!(report.shipper.acked_frames, WINDOWS);
    stop.store(true, Ordering::SeqCst);
    serving.join().unwrap();
    drop(relay);

    // What the relay durably holds, recovered from its journal.
    let up = open();
    let up = up.lock().unwrap();
    for w in 0..WINDOWS {
        let tree = up
            .collector()
            .window_tree(w * SPAN, SITE)
            .unwrap_or_else(|| panic!("window {w} delivered"));
        assert_eq!(
            tree.total().packets,
            PER_WINDOW as i64 * (w as i64 + 1),
            "window {w} holds every record sent"
        );
    }
    assert_eq!(
        up.ledger().site_frames,
        WINDOWS,
        "each window applied exactly once: resends and duplicates were deduped"
    );
    let stats = &proxy.stats;
    assert!(
        stats.flaps.load(Ordering::Relaxed) > 0 && stats.duplicated.load(Ordering::Relaxed) > 0,
        "the weather actually happened"
    );
    drop(up);
    let _ = std::fs::remove_dir_all(&dir);
}
