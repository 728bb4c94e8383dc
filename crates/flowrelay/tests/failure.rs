//! Relay failure paths: hostile frames are rejected and counted, dead
//! downstreams degrade coverage instead of wedging the planner, and
//! the TCP surfaces survive garbage.

use flowdist::framing::serve_framed;
use flowdist::{DistError, EpochHeader, Lineage, Summary, SummaryKind, WindowId};
use flowkey::{FlowKey, Schema};
use flowquery::parse;
use flowquery::QueryOutput;
use flowrelay::server::{answer_query, query_remote, serve_acked_ingest, ship_summaries};
use flowrelay::{FrameOutcome, QueryRouter, Relay, RelayError, RelaySpec, RelayTopology, Route};
use flowtree_core::{Config, FlowTree, Popularity};
use std::sync::Mutex;

const SPAN: u64 = 1_000;

/// Answers the queries of one connection until the client closes it;
/// returns how many were answered (including errors).
fn serve_queries(conn: std::net::TcpStream, router: &QueryRouter<'_>) -> std::io::Result<usize> {
    serve_framed(conn, |frame| Some(answer_query(router, &frame)))
}

fn schema() -> Schema {
    Schema::five_feature()
}

fn site_summary(site: u16, window: u64, hosts: std::ops::Range<u8>, epoch: u64) -> Summary {
    let mut tree = FlowTree::new(schema(), Config::with_budget(4_096));
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

/// `s` re-labelled as an aggregate claiming `sites` at `epoch`.
fn claiming(mut s: Summary, sites: Vec<u16>, epoch: EpochHeader) -> Summary {
    s.lineage = Some(Lineage {
        provenance: sites,
        epoch,
    });
    s
}

const EPOCH_1: EpochHeader = EpochHeader {
    epoch: 1,
    base: None,
};

fn two_group_topology() -> RelayTopology {
    RelayTopology {
        relays: vec![
            RelaySpec {
                name: "root".into(),
                parent: None,
                agg_site: 100,
                sites: vec![],
            },
            RelaySpec {
                name: "west".into(),
                parent: Some("root".into()),
                agg_site: 101,
                sites: vec![0, 1],
            },
            RelaySpec {
                name: "east".into(),
                parent: Some("root".into()),
                agg_site: 102,
                sites: vec![2, 3],
            },
        ],
    }
}

/// Builds the 2-group hierarchy, feeding only `live_sites`.
fn hierarchy(live_sites: &[u16], windows: u64) -> (RelayTopology, Vec<Relay>) {
    let topo = two_group_topology();
    topo.validate().unwrap();
    let mut relays: Vec<Relay> = (0..topo.relays.len())
        .map(|i| Relay::from_topology(&topo, i, schema(), Config::with_budget(100_000)))
        .collect();
    for &s in live_sites {
        let owner = topo.owner_of(s).unwrap();
        for w in 0..windows {
            relays[owner]
                .ingest_frame(&site_summary(s, w, 0..3, w + 1).encode())
                .unwrap();
        }
    }
    for idx in [1usize, 2] {
        let exports = relays[idx].flush_exports();
        for e in exports {
            relays[0].ingest_frame(&e.encode()).unwrap();
        }
    }
    (topo, relays)
}

#[test]
fn truncated_and_hostile_provenance_frames_are_rejected_and_counted() {
    let topo = two_group_topology();
    let mut root = Relay::from_topology(&topo, 0, schema(), Config::with_budget(4_096));

    let agg = claiming(site_summary(101, 0, 0..3, 1), vec![0, 1], EPOCH_1);
    let good = agg.encode();
    root.ingest_frame(&good).unwrap();

    // Truncations at every prefix length must fail cleanly.
    let mut rejected = 0;
    for cut in 0..good.len() {
        assert!(root.ingest_frame(&good[..cut]).is_err(), "cut at {cut}");
        rejected += 1;
    }
    // Garbage and a frame claiming a site outside root coverage.
    assert!(root.ingest_frame(b"\xff\xff\xff\xff hostile").is_err());
    rejected += 1;
    let foreign = claiming(site_summary(102, 0, 0..3, 1), vec![2, 3, 9], EPOCH_1);
    assert!(matches!(
        root.apply(foreign),
        Err(RelayError::CoverageViolation { site: 9 })
    ));
    rejected += 1;
    // A second downstream claiming site 0 again.
    let overlap = claiming(site_summary(102, 0, 0..3, 1), vec![0, 2], EPOCH_1);
    assert!(matches!(
        root.apply(overlap),
        Err(RelayError::OverlappingProvenance { site: 0 })
    ));
    rejected += 1;

    assert_eq!(root.ledger().rejected, rejected);
    assert_eq!(root.ledger().frames, 1, "only the good frame landed");
    // The stored data is untouched by the hostile attempts.
    assert_eq!(root.collector().stored_windows(), 1);
}

#[test]
fn frames_without_an_epoch_are_refused_on_every_entry_point() {
    let topo = two_group_topology();
    let mut west = Relay::from_topology(&topo, 1, schema(), Config::with_budget(4_096));
    let v1 = Summary {
        lineage: None,
        ..site_summary(0, 0, 0..3, 1)
    };
    let bytes = v1.encode();
    assert!(matches!(
        west.apply(v1),
        Err(RelayError::Dist(DistError::BadFrame(
            "summary without epoch"
        )))
    ));
    assert_eq!(west.ledger().rejected, 1);
    assert!(west.ingest_frame(&bytes).is_err());
    assert_eq!(west.ledger().rejected, 2);
    assert_eq!(west.ingest_classified(&bytes), FrameOutcome::Rejected);
    assert_eq!(west.ledger().rejected, 3);
    assert_eq!(west.ledger().frames, 0);
    assert!(west.collector().window_keys().is_empty());
    assert!(west.flush_exports().is_empty());
}

#[test]
fn site_and_aggregate_frames_are_counted_by_provenance() {
    let topo = two_group_topology();
    let mut root = Relay::from_topology(&topo, 0, schema(), Config::with_budget(4_096));
    root.apply(site_summary(0, 0, 0..2, 1)).unwrap();
    // A one-site aggregate is still an aggregate: its exporter is not
    // the site it claims.
    root.apply(claiming(site_summary(101, 0, 0..2, 1), vec![1], EPOCH_1))
        .unwrap();
    root.apply(claiming(site_summary(102, 0, 0..2, 1), vec![2, 3], EPOCH_1))
        .unwrap();
    let l = root.ledger();
    assert_eq!((l.frames, l.site_frames, l.agg_frames), (3, 1, 2));
}

#[test]
fn dead_site_degrades_coverage_and_planner_keeps_answering() {
    // Site 3 is dead: never reports.
    let (topo, relays) = hierarchy(&[0, 1, 2], 2);
    let router = QueryRouter::new(&topo, &relays);

    // Network-wide query still routes (to the root's aggregates) and
    // reports the dead site instead of wedging or erroring.
    let q = parse("pop", u64::MAX - 1).unwrap();
    let routed = router.run(&q);
    assert_eq!(routed.missing, vec![3]);
    assert!(
        matches!(routed.route, Route::Relay { relay: 0, .. }),
        "{:?}",
        routed.route
    );
    let QueryOutput::Pop(est) = routed.output else {
        panic!()
    };
    // 3 sites × 2 windows × (1+2+3) packets.
    assert!((est.packets - 36.0).abs() < 1e-6, "{}", est.packets);

    // A scope naming only the dead site: empty answer, site reported.
    let q = parse("pop sites=3", u64::MAX - 1).unwrap();
    let routed = router.run(&q);
    assert_eq!(routed.missing, vec![3]);
    let QueryOutput::Pop(est) = routed.output else {
        panic!()
    };
    assert_eq!(est.packets, 0.0);

    // A scope mixing live and dead sites fans down to the live one.
    let q = parse("hhh 0.05 by packets sites=2,3", u64::MAX - 1).unwrap();
    let routed = router.run(&q);
    assert_eq!(routed.missing, vec![3]);
    let QueryOutput::Table(rows) = routed.output else {
        panic!()
    };
    assert!(!rows.is_empty(), "live site 2 still answers");

    // The east relay's own ledger shows the degradation.
    assert_eq!(
        relays[2].live_coverage(),
        [2u16]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
    );
}

#[test]
fn frames_and_queries_flow_over_tcp() {
    use std::net::{TcpListener, TcpStream};

    let topo = two_group_topology();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    // Downstream side: ship two site windows and one garbage frame.
    let sender = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let summaries = vec![site_summary(0, 0, 0..3, 1), site_summary(1, 0, 0..3, 1)];
        ship_summaries(&mut stream, &summaries).unwrap();
        flowdist::framing::write_frame(&mut stream, b"garbage frame").unwrap();
    });

    let west = Mutex::new(Relay::from_topology(
        &topo,
        1,
        schema(),
        Config::with_budget(4_096),
    ));
    let (mut conn, _) = listener.accept().unwrap();
    let (applied, rejected) = serve_acked_ingest(&mut conn, &west).unwrap();
    sender.join().unwrap();
    let west = west.into_inner().unwrap();
    assert_eq!((applied, rejected), (2, 1));
    assert_eq!(west.ledger().rejected, 1);

    // Query side: serve the (single-relay) hierarchy over TCP.
    let solo = RelayTopology {
        relays: vec![RelaySpec {
            name: "west".into(),
            parent: None,
            agg_site: 101,
            sites: vec![0, 1],
        }],
    };
    let relays = vec![west];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let ok = query_remote(&mut stream, "pop src=10.0.0.0/8").unwrap();
        let body = ok.expect("valid query");
        assert!(body.starts_with("route: west"), "{body}");
        assert!(body.contains("popularity"), "{body}");
        let err = query_remote(&mut stream, "frobnicate everything").unwrap();
        assert!(err.is_err(), "bad verb must report, not kill the server");
        let ok = query_remote(&mut stream, "drill src").unwrap();
        assert!(ok.expect("valid query").contains("src="));
    });
    let (conn, _) = listener.accept().unwrap();
    let router = QueryRouter::new(&solo, &relays);
    let served = serve_queries(conn, &router).unwrap();
    client.join().unwrap();
    assert_eq!(served, 3);
}

#[test]
fn relay_survives_downstream_restarts_with_replacement_windows() {
    let topo = two_group_topology();
    let mut west = Relay::from_topology(&topo, 1, schema(), Config::with_budget(4_096));
    west.ingest_frame(&site_summary(0, 0, 0..3, 1).encode())
        .unwrap();
    // The downstream replaces window 0 with different content at a
    // higher epoch.
    west.ingest_frame(&site_summary(0, 0, 0..5, 2).encode())
        .unwrap();
    assert_eq!(west.collector().stored_windows(), 1);
    let exports = west.flush_exports();
    assert_eq!(exports.len(), 1);
    // The replacement (1+2+3+4+5 = 15 packets) is what exports.
    assert_eq!(exports[0].tree.total().packets, 15);
}

#[test]
fn per_window_missing_is_reported_for_exactly_the_gap_window() {
    // Sites 0,1,2 report windows 0 and 1; site 3 reports only window
    // 0. Lifetime coverage sees all four sites — only the per-window
    // report may say window 1 lacks site 3.
    let topo = two_group_topology();
    topo.validate().unwrap();
    let mut relays: Vec<Relay> = (0..topo.relays.len())
        .map(|i| Relay::from_topology(&topo, i, schema(), Config::with_budget(100_000)))
        .collect();
    for &s in &[0u16, 1, 2] {
        for w in 0..2u64 {
            let owner = topo.owner_of(s).unwrap();
            relays[owner]
                .ingest_frame(&site_summary(s, w, 0..3, w + 1).encode())
                .unwrap();
        }
    }
    let owner3 = topo.owner_of(3).unwrap();
    relays[owner3]
        .ingest_frame(&site_summary(3, 0, 0..3, 1).encode())
        .unwrap();
    for idx in [1usize, 2] {
        let exports = relays[idx].flush_exports();
        for e in &exports {
            relays[0].ingest_frame(&e.encode()).unwrap();
        }
    }
    // The east relay's window-1 export must not have advertised site 3
    // — pinned at the root's ledger too.
    assert_eq!(
        relays[0]
            .window_coverage(SPAN)
            .into_iter()
            .collect::<Vec<_>>(),
        vec![0, 1, 2],
        "window 1 at the root must not claim site 3"
    );

    let router = QueryRouter::new(&topo, &relays);
    let q = parse("pop", u64::MAX - 1).unwrap();
    let routed = router.run(&q);
    // Site 3 is live (it has window 0), so it is NOT lifetime-missing…
    assert!(routed.missing.is_empty(), "{:?}", routed.missing);
    // …but window 1 reports it, and only window 1.
    assert_eq!(
        routed.missing_windows.len(),
        1,
        "{:?}",
        routed.missing_windows
    );
    assert_eq!(routed.missing_windows[0].window_start_ms, SPAN);
    assert_eq!(routed.missing_windows[0].missing, vec![3]);

    // A scope that does not ask for site 3 has no gaps at all.
    let q = parse("pop sites=0,1,2", u64::MAX - 1).unwrap();
    assert!(router.run(&q).missing_windows.is_empty());

    // A scope confined to window 0 has no gaps either.
    let q = parse(&format!("pop from={} to={}", 0, SPAN), u64::MAX - 1);
    if let Ok(q) = q {
        assert!(router.run(&q).missing_windows.is_empty());
    }

    // The per-site breakdown reports the same gap.
    let q = parse("bysite src=0.0.0.0/0", u64::MAX - 1).unwrap();
    let routed = router.run(&q);
    assert_eq!(routed.missing_windows.len(), 1);
    assert_eq!(routed.missing_windows[0].missing, vec![3]);
}

#[test]
fn hostile_v3_frames_are_rejected_and_counted_at_the_relay() {
    let topo = two_group_topology();
    let mut root = Relay::from_topology(&topo, 0, schema(), Config::with_budget(4_096));

    // Establish a healthy v3 slot: full at epoch 1.
    let full = claiming(site_summary(101, 0, 0..3, 1), vec![0, 1], EPOCH_1);
    root.ingest_frame(&full.encode()).unwrap();

    let mut rejected = 0u64;
    // A delta declaring a base the root does not hold (bad base epoch).
    let bad_base = EpochHeader {
        epoch: 9,
        base: Some(7),
    };
    let mut orphan = claiming(site_summary(101, 0, 0..2, 2), vec![0, 1], bad_base);
    orphan.kind = flowdist::SummaryKind::Delta;
    let err = root.ingest_frame(&orphan.encode());
    assert!(
        matches!(
            err,
            Err(RelayError::Dist(flowdist::DistError::EpochMismatch {
                have: 1,
                got: 7,
                ..
            }))
        ),
        "{err:?}"
    );
    rejected += 1;

    // Truncated v3 delta frames fail cleanly at every cut.
    let on_base = EpochHeader {
        epoch: 2,
        base: Some(1),
    };
    let mut delta = claiming(site_summary(101, 0, 0..2, 2), vec![0, 1], on_base);
    delta.kind = flowdist::SummaryKind::Delta;
    let good = delta.encode();
    for cut in 0..good.len() {
        assert!(root.ingest_frame(&good[..cut]).is_err(), "cut at {cut}");
        rejected += 1;
    }

    // A v3 frame claiming a foreign site in its per-window provenance.
    let foreign = claiming(site_summary(102, 0, 0..2, 1), vec![2, 3, 9], EPOCH_1);
    assert!(matches!(
        root.ingest_frame(&foreign.encode()),
        Err(RelayError::CoverageViolation { site: 9 })
    ));
    rejected += 1;

    // A v3 delta claiming a site another downstream owns (overlap).
    let overlap = claiming(site_summary(102, 0, 0..2, 1), vec![0, 2], EPOCH_1);
    assert!(matches!(
        root.ingest_frame(&overlap.encode()),
        Err(RelayError::OverlappingProvenance { site: 0 })
    ));
    rejected += 1;

    assert_eq!(root.ledger().rejected, rejected);
    assert_eq!(root.ledger().frames, 1, "only the healthy frame landed");
    // The good delta still applies after all the hostility.
    root.ingest_frame(&good).unwrap();
    assert_eq!(root.ledger().frames, 2);
}

mod tcp_error_paths {
    use super::*;
    use flowdist::framing::{read_frame, write_frame, MAX_FRAME};
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};

    fn solo_router_relay() -> (RelayTopology, Vec<Relay>) {
        let topo = RelayTopology {
            relays: vec![RelaySpec {
                name: "west".into(),
                parent: None,
                agg_site: 101,
                sites: vec![0, 1],
            }],
        };
        let mut relay = Relay::from_topology(&topo, 0, schema(), Config::with_budget(4_096));
        relay
            .ingest_frame(&site_summary(0, 0, 0..3, 1).encode())
            .unwrap();
        (topo, vec![relay])
    }

    #[test]
    fn oversized_query_frame_errors_cleanly_not_panics() {
        let (topo, relays) = solo_router_relay();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // A length prefix beyond MAX_FRAME: the server must refuse
            // to allocate and return an error, not panic or hang.
            stream.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
            stream.write_all(b"junk").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let router = QueryRouter::new(&topo, &relays);
        let served = serve_queries(conn, &router);
        client.join().unwrap();
        assert!(served.is_err(), "oversized frame must surface an error");
    }

    #[test]
    fn mid_frame_disconnect_errors_cleanly() {
        let (topo, relays) = solo_router_relay();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Announce 100 bytes, send 4, vanish.
            stream.write_all(&100u32.to_be_bytes()).unwrap();
            stream.write_all(b"pop ").unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let router = QueryRouter::new(&topo, &relays);
        let served = serve_queries(conn, &router);
        client.join().unwrap();
        assert!(
            served.is_err(),
            "a mid-frame disconnect is an error, not a clean EOF"
        );
    }

    #[test]
    fn mid_frame_disconnect_on_ingest_errors_cleanly() {
        let topo = two_group_topology();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&1_000u32.to_be_bytes()).unwrap();
            stream.write_all(b"FSUM").unwrap();
        });
        let west = Mutex::new(Relay::from_topology(
            &topo,
            1,
            schema(),
            Config::with_budget(4_096),
        ));
        let (mut conn, _) = listener.accept().unwrap();
        let res = serve_acked_ingest(&mut conn, &west);
        sender.join().unwrap();
        assert!(res.is_err());
        assert_eq!(west.lock().unwrap().ledger().frames, 0);
    }

    #[test]
    fn malformed_response_headers_do_not_wedge_the_client() {
        // A hostile "server" returns an empty response frame (no
        // status byte / route header at all), then a frame with an
        // unknown status byte: the client must surface both as errors.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
            let _ = read_frame(&mut reader).unwrap();
            write_frame(&mut conn, b"").unwrap();
            let _ = read_frame(&mut reader).unwrap();
            write_frame(&mut conn, &[7u8, b'h', b'i']).unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let empty = query_remote(&mut stream, "pop");
        assert!(
            matches!(
                empty,
                Err(RelayError::Dist(flowdist::DistError::BadFrame(
                    "empty response"
                )))
            ),
            "{empty:?}"
        );
        let odd = query_remote(&mut stream, "pop").unwrap();
        assert_eq!(odd, Err("hi".into()), "unknown status byte reads as error");
        server.join().unwrap();
    }

    #[test]
    fn query_responses_carry_per_window_missing_lines() {
        let topo = two_group_topology();
        let mut relays: Vec<Relay> = (0..topo.relays.len())
            .map(|i| Relay::from_topology(&topo, i, schema(), Config::with_budget(100_000)))
            .collect();
        // Site 1 skips window 1.
        for w in 0..2u64 {
            relays[1]
                .ingest_frame(&site_summary(0, w, 0..3, w + 1).encode())
                .unwrap();
        }
        relays[1]
            .ingest_frame(&site_summary(1, 0, 0..3, 1).encode())
            .unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let body = query_remote(&mut stream, "pop sites=0,1")
                .unwrap()
                .expect("valid query");
            assert!(
                body.contains(&format!("missing in window {SPAN}ms: [1]")),
                "{body}"
            );
        });
        let (conn, _) = listener.accept().unwrap();
        let router = QueryRouter::new(&topo, &relays);
        serve_queries(conn, &router).unwrap();
        client.join().unwrap();
    }
}

#[test]
fn pipelined_query_frames_survive_the_readers_read_ahead() {
    use flowdist::framing::{read_frame, write_frame};
    use std::io::{BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};

    let topo = RelayTopology {
        relays: vec![RelaySpec {
            name: "west".into(),
            parent: None,
            agg_site: 101,
            sites: vec![0, 1],
        }],
    };
    let mut relay = Relay::from_topology(&topo, 0, schema(), Config::with_budget(4_096));
    relay
        .ingest_frame(&site_summary(0, 0, 0..3, 1).encode())
        .unwrap();
    let relays = vec![relay];

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        // Two frames in ONE write: the server's buffered reader pulls
        // both into its read-ahead on the first fill; a per-request
        // reader would drop the second frame with the buffer.
        let mut batch = Vec::new();
        write_frame(&mut batch, b"pop").unwrap();
        write_frame(&mut batch, b"drill src").unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&batch).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first = read_frame(&mut reader).unwrap().expect("first response");
        let second = read_frame(&mut reader).unwrap().expect("second response");
        assert_eq!(first[0], 0, "pop succeeded");
        assert!(String::from_utf8_lossy(&first).contains("popularity"));
        assert_eq!(second[0], 0, "drill succeeded");
        assert!(String::from_utf8_lossy(&second).contains("src="));
    });
    let (conn, _) = listener.accept().unwrap();
    let router = QueryRouter::new(&topo, &relays);
    let served = serve_queries(conn, &router).unwrap();
    client.join().unwrap();
    assert_eq!(served, 2, "both pipelined queries answered");
}
