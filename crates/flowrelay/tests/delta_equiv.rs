//! The delta-stream invariant: an upstream fed a relay's **version-3
//! delta stream** (incremental drains, full-frame fallbacks, forced
//! base loss, downstream replacements) ends up byte-identical — stored
//! windows, merged answers, and its own re-exported wire bytes — to an
//! upstream fed the same relay's **full re-export stream**. Deltas
//! change what crosses the wire, never what the receiver holds.

use flowdist::{Collector, EpochHeader, Lineage, Summary, SummaryKind, WindowId};
use flowkey::{FlowKey, Schema};
use flowrelay::{ExportConfig, ExportMode, Relay, RelayConfig};
use flowtree_core::{Config, FlowTree, Popularity};
use proptest::prelude::*;

const SPAN: u64 = 1_000;
const CFG: fn() -> Config = || Config::with_budget(1_000_000);

fn arb_key() -> impl Strategy<Value = FlowKey> {
    prop_oneof![
        (0u8..4, 0u8..6, 0u8..24, 1u16..4).prop_map(|(a, b, c, p)| format!(
            "src=10.{a}.{b}.{c}/32 dst=192.0.2.{}/32 sport={} dport=443 proto=tcp",
            b % 3,
            40_000 + p
        )
        .parse()
        .unwrap()),
        (0u8..4, 8u8..=24)
            .prop_map(|(a, len)| format!("src={}.0.0.0/{len}", 10 + a).parse().unwrap()),
    ]
}

fn arb_inserts() -> impl Strategy<Value = Vec<(FlowKey, Popularity)>> {
    proptest::collection::vec(
        (
            arb_key(),
            (1i64..40, 1i64..900).prop_map(|(p, b)| Popularity::new(p, b, 1)),
        ),
        1..20,
    )
}

/// One generated run: `sites × windows` insert cells delivered
/// window-major, plus per-delivery event flags — drain after this
/// frame, re-send this cell with different content (a replacement),
/// drop the pinned bases right before this frame (forced base loss).
type Case = (
    u16,
    u64,
    Vec<Vec<(FlowKey, Popularity)>>,
    Vec<(bool, bool, bool)>,
);

fn arb_case() -> impl Strategy<Value = Case> {
    proptest::strategy::fn_strategy(|rng: &mut proptest::TestRng| {
        let sites = Strategy::pick(&(2u16..=5), rng);
        let windows = Strategy::pick(&(1u64..=3), rng);
        let n = sites as usize * windows as usize;
        let inserts = arb_inserts();
        let cells: Vec<_> = (0..n).map(|_| Strategy::pick(&inserts, rng)).collect();
        let flags: Vec<_> = (0..n)
            .map(|_| {
                (
                    Strategy::pick(&(0u8..3), rng) == 0, // drain ~1/3 of the time
                    Strategy::pick(&(0u8..4), rng) == 0, // replace ~1/4
                    Strategy::pick(&(0u8..5), rng) == 0, // drop bases ~1/5
                )
            })
            .collect();
        (sites, windows, cells, flags)
    })
}

fn site_summary(site: u16, window: u64, epoch: u64, inserts: &[(FlowKey, Popularity)]) -> Summary {
    let mut tree = FlowTree::new(Schema::five_feature(), CFG());
    for (k, p) in inserts {
        tree.insert(k, *p);
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

fn relay(sites: u16, mode: ExportMode) -> Relay {
    Relay::new(RelayConfig {
        name: "tier1".into(),
        agg_site: 1_000,
        expected: (0..sites).collect(),
        schema: Schema::five_feature(),
        tree: CFG(),
        export: ExportConfig {
            mode,
            linger_ms: 0,
            max_bases: 64,
            ..ExportConfig::default()
        },
    })
}

/// Runs one case through a relay in the given mode, returning its
/// encoded export stream (drains interleaved exactly as the flags
/// say, plus a final flush).
fn export_stream(case: &Case, mode: ExportMode) -> Vec<Vec<u8>> {
    let (sites, windows, cells, flags) = case;
    let mut r = relay(*sites, mode);
    let mut out: Vec<Vec<u8>> = Vec::new();
    let mut i = 0usize;
    for w in 0..*windows {
        for s in 0..*sites {
            let (drain, replace, drop_bases) = flags[i];
            let cell = &cells[i];
            i += 1;
            if drop_bases {
                r.drop_export_bases();
            }
            r.apply(site_summary(s, w, w + 1, cell)).unwrap();
            if replace {
                // The downstream replaces the window with different
                // content at a higher epoch — a non-monotone change.
                let shrunk: Vec<_> = cell.iter().take(1 + cell.len() / 2).cloned().collect();
                r.apply(site_summary(s, w, w + 2, &shrunk)).unwrap();
            }
            if drain {
                out.extend(
                    r.drain_exports_at((w + 1) * SPAN)
                        .iter()
                        .map(Summary::encode),
                );
            }
        }
    }
    out.extend(r.flush_exports().iter().map(Summary::encode));
    out
}

/// The upstream view of one stream: a collector plus a super-relay
/// (for re-export bytes).
fn upstream(sites: u16, stream: &[Vec<u8>]) -> (Collector, Vec<Vec<u8>>) {
    let mut c = Collector::new(Schema::five_feature(), CFG());
    for frame in stream {
        c.apply_bytes(frame).unwrap();
    }
    let mut root = Relay::new(RelayConfig {
        name: "root".into(),
        agg_site: 2_000,
        expected: (0..sites).collect(),
        schema: Schema::five_feature(),
        tree: CFG(),
        export: ExportConfig::default(),
    });
    for frame in stream {
        root.ingest_frame(frame).unwrap();
    }
    let re_exports = root.flush_exports().iter().map(Summary::encode).collect();
    (c, re_exports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance pin: delta stream ≡ full stream at the receiver,
    /// bytes and all — stored windows, merged answers, re-exports —
    /// across random interleavings, replacements, and base loss.
    #[test]
    fn delta_stream_reconstructs_byte_identically_to_full_stream(case in arb_case()) {
        let delta_stream = export_stream(&case, ExportMode::Delta);
        let full_stream = export_stream(&case, ExportMode::Full);
        prop_assert_eq!(delta_stream.len(), full_stream.len(),
            "same drains, same export count");

        let (dc, d_re) = upstream(case.0, &delta_stream);
        let (fc, f_re) = upstream(case.0, &full_stream);

        // Stored windows are byte-identical slot by slot.
        prop_assert_eq!(dc.window_keys(), fc.window_keys());
        for (start, site) in dc.window_keys() {
            prop_assert_eq!(
                dc.window_tree(start, site).unwrap().encode(),
                fc.window_tree(start, site).unwrap().encode(),
                "window {} differs", start
            );
            prop_assert_eq!(
                dc.window_epoch(start, site),
                fc.window_epoch(start, site)
            );
            prop_assert_eq!(
                dc.window_coverage(start),
                fc.window_coverage(start)
            );
        }
        // Merged answers are byte-identical.
        prop_assert_eq!(
            dc.merged(None, 0, u64::MAX).encode(),
            fc.merged(None, 0, u64::MAX).encode()
        );
        // And so are the upstream's own re-exported wire bytes.
        prop_assert_eq!(d_re, f_re);

        // The deltas actually save wire bytes whenever any window was
        // re-exported incrementally (replacements force full-frame
        // fallbacks, so only require ≤ in general).
        let d_bytes: usize = delta_stream.iter().map(Vec::len).sum();
        let f_bytes: usize = full_stream.iter().map(Vec::len).sum();
        prop_assert!(d_bytes <= f_bytes, "delta {} > full {}", d_bytes, f_bytes);
    }
}

/// The same pin through the whole site → relay → root sim: a per-frame
/// delta-drained hierarchy and a full-re-export hierarchy hand a
/// super-root byte-identical state, and both agree with the flat
/// collector on answers.
#[test]
fn incremental_hierarchy_matches_full_hierarchy_and_flat() {
    use flowdist::sim::SimConfig;
    use flowdist::TransferMode;
    use flownet::FlowCacheConfig;
    use flowrelay::{DrainCadence, HierarchyOptions, RelayTopology};
    use flowtrace::{profile, TraceGen};

    let cfg = SimConfig {
        sites: 6,
        window_ms: 1_000,
        schema: Schema::five_feature(),
        tree: Config::with_budget(1 << 20),
        transfer: TransferMode::Full,
        cache: FlowCacheConfig {
            idle_timeout_ms: 500,
            active_timeout_ms: 2_000,
            max_entries: 10_000,
        },
    };
    let mut tcfg = profile::backbone(31);
    tcfg.packets = 12_000;
    tcfg.flows = 1_500;
    tcfg.mean_pps = 5_000.0;
    let trace: Vec<flownet::PacketMeta> = TraceGen::new(tcfg).collect();
    let topo = RelayTopology::two_tier(6, 2);

    let run = |mode: ExportMode, cadence: DrainCadence| {
        flowrelay::run_hierarchy_with(
            &topo,
            cfg,
            trace.iter().copied(),
            HierarchyOptions {
                export: ExportConfig {
                    mode,
                    ..ExportConfig::default()
                },
                cadence,
            },
        )
        .expect("hierarchy runs")
    };
    let delta = run(ExportMode::Delta, DrainCadence::PerFrame);
    let full = run(ExportMode::Full, DrainCadence::PerFrame);

    // The root's incremental export streams reconstruct identically.
    let apply = |report: &flowrelay::HierarchyReport| {
        let mut c = Collector::new(cfg.schema, cfg.tree);
        for s in &report.root_exports {
            c.apply_bytes(&s.encode()).unwrap();
        }
        c
    };
    let (dc, fc) = (apply(&delta), apply(&full));
    assert_eq!(dc.window_keys(), fc.window_keys());
    assert_eq!(
        dc.merged(None, 0, u64::MAX).encode(),
        fc.merged(None, 0, u64::MAX).encode()
    );
    for (start, site) in dc.window_keys() {
        assert_eq!(
            dc.window_tree(start, site).unwrap().encode(),
            fc.window_tree(start, site).unwrap().encode()
        );
    }

    // Delta drains shipped strictly fewer root-export bytes (every
    // window re-exported once per contributing downstream).
    let bytes = |r: &flowrelay::HierarchyReport| -> usize {
        r.root_exports.iter().map(|s| s.encoded_size()).sum()
    };
    assert!(
        bytes(&delta) < bytes(&full),
        "delta {} vs full {}",
        bytes(&delta),
        bytes(&full)
    );
    assert!(delta.root().ledger().delta_exports > 0);

    // And the flat reference agrees on the answers.
    let flat = flowdist::sim::run(cfg, trace.iter().copied()).unwrap();
    assert_eq!(
        dc.merged(None, 0, u64::MAX).total(),
        flat.collector.merged(None, 0, u64::MAX).total()
    );
    assert_eq!(
        delta.root().collector().total().packets,
        flat.collector.merged(None, 0, u64::MAX).total().packets
    );
}

mod random_topologies {
    use super::*;
    use flowrelay::RelayTopology;

    /// Random multi-tier grids with per-frame drain cascades: sites ×
    /// windows cells, random fanout, every frame followed by a
    /// bottom-up drain — the root's v3 stream under Delta vs Full
    /// export must hand a super-collector byte-identical state, and
    /// each window must equal the flat merge of its site trees.
    type Grid = (u16, u16, u64, Vec<Vec<(FlowKey, Popularity)>>);

    fn arb_grid() -> impl Strategy<Value = Grid> {
        proptest::strategy::fn_strategy(|rng: &mut proptest::TestRng| {
            let sites = Strategy::pick(&(2u16..=8), rng);
            let fanout = Strategy::pick(&(1u16..=4), rng);
            let windows = Strategy::pick(&(1u64..=3), rng);
            let inserts = arb_inserts();
            let cells = (0..sites as u64 * windows)
                .map(|_| Strategy::pick(&inserts, rng))
                .collect();
            (sites, fanout, windows, cells)
        })
    }

    /// Drives one grid through a hierarchy in `mode` with a drain
    /// cascade after every site frame; returns the root's encoded
    /// export stream and the flat reference collector.
    fn run(grid: &Grid, mode: ExportMode) -> (Vec<Vec<u8>>, Collector) {
        let (sites, fanout, windows, cells) = grid;
        let topo = RelayTopology::two_tier(*sites, *fanout);
        topo.validate().unwrap();
        let mut relays: Vec<Relay> = (0..topo.relays.len())
            .map(|i| {
                Relay::from_topology_with(
                    &topo,
                    i,
                    Schema::five_feature(),
                    CFG(),
                    ExportConfig {
                        mode,
                        linger_ms: 0,
                        max_bases: 64,
                        ..ExportConfig::default()
                    },
                )
            })
            .collect();
        let mut order: Vec<usize> = (0..relays.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(topo.depth_of(i)));
        let root = topo.root();
        let mut flat = Collector::new(Schema::five_feature(), CFG());
        let mut stream: Vec<Vec<u8>> = Vec::new();
        for w in 0..*windows {
            for s in 0..*sites {
                let cell = &cells[(s as u64 * windows + w) as usize];
                let frame = site_summary(s, w, w + 1, cell).encode();
                flat.apply_bytes(&frame).unwrap();
                relays[topo.owner_of(s).unwrap()]
                    .ingest_frame(&frame)
                    .unwrap();
                // Bottom-up cascade after every arrival.
                for &idx in &order {
                    let exports = relays[idx].drain_exports_at((w + 1) * SPAN);
                    if idx == root {
                        stream.extend(exports.iter().map(Summary::encode));
                        continue;
                    }
                    let parent = topo
                        .index_of(topo.relays[idx].parent.as_deref().unwrap())
                        .unwrap();
                    for e in exports {
                        relays[parent].ingest_frame(&e.encode()).unwrap();
                    }
                }
            }
        }
        for &idx in &order {
            let exports = relays[idx].flush_exports();
            if idx == root {
                stream.extend(exports.iter().map(Summary::encode));
                continue;
            }
            let parent = topo
                .index_of(topo.relays[idx].parent.as_deref().unwrap())
                .unwrap();
            for e in exports {
                relays[parent].ingest_frame(&e.encode()).unwrap();
            }
        }
        (stream, flat)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn hierarchy_delta_stream_equals_full_stream_and_flat(grid in arb_grid()) {
            let (delta_stream, flat) = run(&grid, ExportMode::Delta);
            let (full_stream, _) = run(&grid, ExportMode::Full);
            prop_assert_eq!(delta_stream.len(), full_stream.len());

            let apply = |stream: &[Vec<u8>]| {
                let mut c = Collector::new(Schema::five_feature(), CFG());
                for f in stream {
                    c.apply_bytes(f).unwrap();
                }
                c
            };
            let (dc, fc) = (apply(&delta_stream), apply(&full_stream));
            prop_assert_eq!(dc.window_keys(), fc.window_keys());
            for (start, site) in dc.window_keys() {
                let d = dc.window_tree(start, site).unwrap().encode();
                prop_assert_eq!(&d, &fc.window_tree(start, site).unwrap().encode());
                // The hierarchy invariant holds window by window: the
                // super-collector's reconstructed aggregate equals the
                // flat merge of the same site windows.
                prop_assert_eq!(
                    &d,
                    &flat.merged(None, start, start + SPAN).encode(),
                    "window {} diverged from flat", start
                );
            }
            let d_bytes: usize = delta_stream.iter().map(Vec::len).sum();
            let f_bytes: usize = full_stream.iter().map(Vec::len).sum();
            prop_assert!(d_bytes <= f_bytes);
        }
    }
}
