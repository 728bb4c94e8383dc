//! The hierarchy invariant: with compaction out of play, a root-tier
//! answer — and the root's re-exported wire bytes — is **identical**
//! to a flat collector fed the same site windows. Aggregation moves
//! merges down the tree; it never changes what they produce.

use flowdist::{Collector, Summary, WindowId};
use flowkey::{FlowKey, Schema};
use flowquery::{parse, QueryEngine, QueryOutput};
use flowrelay::{QueryRouter, Relay, RelayTopology, Route};
use flowtree_core::{Config, FlowTree, Popularity};
use proptest::prelude::*;

const SPAN: u64 = 1_000;
/// Room for everything: no compaction anywhere.
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
        (0u8..8, 1u16..4).prop_map(|(c, p)| format!("src=10.0.0.{c}/32 dport={}", 50 + p)
            .parse()
            .unwrap()),
    ]
}

fn arb_inserts() -> impl Strategy<Value = Vec<(FlowKey, Popularity)>> {
    proptest::collection::vec(
        (
            arb_key(),
            (1i64..40, 1i64..900).prop_map(|(p, b)| Popularity::new(p, b, 1)),
        ),
        1..30,
    )
}

/// One generated case: sites, fanout, windows, and per-(site, window)
/// insert batches in site-major order.
type Grid = (u16, u16, u64, Vec<Vec<(FlowKey, Popularity)>>);

/// Random per-(site, window) masses for a `sites × windows` grid.
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

fn summary(schema: Schema, site: u16, window: u64, inserts: &[(FlowKey, Popularity)]) -> Summary {
    let mut tree = FlowTree::new(schema, CFG());
    for (k, p) in inserts {
        tree.insert(k, *p);
    }
    let id = WindowId {
        start_ms: window * SPAN,
        span_ms: SPAN,
    };
    Summary::site_full(site, id, window + 1, tree)
}

/// Builds the hierarchy and the flat reference from one grid.
fn build_both(
    sites: u16,
    fanout: u16,
    windows: u64,
    cells: &[Vec<(FlowKey, Popularity)>],
) -> (RelayTopology, Vec<Relay>, Vec<Summary>, Collector) {
    let schema = Schema::five_feature();
    let topo = RelayTopology::two_tier(sites, fanout);
    topo.validate().unwrap();
    let mut relays: Vec<Relay> = (0..topo.relays.len())
        .map(|i| Relay::from_topology(&topo, i, schema, CFG()))
        .collect();
    let mut flat = Collector::new(schema, CFG());
    for s in 0..sites {
        for w in 0..windows {
            let cell = &cells[(s as u64 * windows + w) as usize];
            let summary = summary(schema, s, w, cell);
            let frame = summary.encode();
            flat.apply_bytes(&frame).unwrap();
            let owner = topo.owner_of(s).unwrap();
            relays[owner].ingest_frame(&frame).unwrap();
        }
    }
    // Bottom-up propagation, every hop encoded.
    let root = topo.root();
    let mut order: Vec<usize> = (0..relays.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(topo.depth_of(i)));
    let mut root_exports = Vec::new();
    for idx in order {
        let exports = relays[idx].flush_exports();
        if idx == root {
            root_exports = exports;
            continue;
        }
        let parent = topo
            .index_of(topo.relays[idx].parent.as_deref().unwrap())
            .unwrap();
        for e in exports {
            relays[parent].ingest_frame(&e.encode()).unwrap();
        }
    }
    (topo, relays, root_exports, flat)
}

fn outputs_agree(text: &str, hier: &QueryOutput, flat: &QueryOutput) {
    match (hier, flat) {
        (QueryOutput::Pop(a), QueryOutput::Pop(b)) => {
            assert!(
                (a.packets - b.packets).abs() < 1e-6
                    && (a.bytes - b.bytes).abs() < 1e-6
                    && (a.flows - b.flows).abs() < 1e-6,
                "{text}: pop {a:?} vs {b:?}"
            );
        }
        (a, b) => assert_eq!(a, b, "{text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Root exports are byte-identical to the flat merge of the same
    /// windows, for random topologies and window grids.
    #[test]
    fn root_export_bytes_equal_flat_merge(
        (sites, fanout, windows, cells) in arb_grid(),
    ) {
        let (_topo, _relays, root_exports, flat) =
            build_both(sites, fanout, windows, &cells);
        prop_assert_eq!(root_exports.len() as u64, windows);
        for e in &root_exports {
            let reference = flat.merged(None, e.window.start_ms, e.window.end_ms());
            prop_assert_eq!(e.tree.encode(), reference.encode(), "window {}", e.window);
            // Provenance names every site.
            prop_assert_eq!(
                e.provenance().unwrap().to_vec(),
                (0..sites).collect::<Vec<_>>()
            );
        }
    }

    /// Root-tier query answers equal the flat engine's, across query
    /// shapes and scopes (full, one region, cross-region fan-out).
    #[test]
    fn routed_answers_equal_flat_answers(
        (sites, fanout, windows, cells) in arb_grid(),
    ) {
        let (topo, relays, _exports, flat) = build_both(sites, fanout, windows, &cells);
        let router = QueryRouter::new(&topo, &relays);
        let engine = QueryEngine::new(&flat);
        let group0: Vec<u16> = topo.relays[if topo.relays.len() == 1 { 0 } else { 1 }]
            .sites
            .clone();
        let group_list = group0
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        // A cross-group partial scope: first site of every group.
        let cross: Vec<u16> = topo
            .relays
            .iter()
            .filter_map(|r| r.sites.first().copied())
            .collect();
        let cross_list = cross
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let queries = [
            "pop".to_string(),
            "pop src=10.0.0.0/8".to_string(),
            "hhh 0.05 by packets".to_string(),
            "drill src".to_string(),
            "top 5 dport by bytes under src=10.0.0.0/8".to_string(),
            format!("pop sites={group_list}"),
            format!("hhh 0.1 by packets sites={group_list}"),
            format!("pop sites={cross_list}"),
            format!("drill src sites={cross_list}"),
            "bysite src=10.0.0.0/8".to_string(),
        ];
        for text in &queries {
            let q = parse(text, u64::MAX - 1).unwrap();
            let routed = router.run(&q);
            let flat_out = engine.run(&q);
            prop_assert!(routed.missing.is_empty(), "{text}: {:?}", routed.missing);
            outputs_agree(text, &routed.output, &flat_out);
        }
    }

    /// The planner picks the advertised tier: network-wide scopes ride
    /// pre-aggregated trees, single-region scopes stay at tier 1, and
    /// cross-region partial scopes fan out.
    #[test]
    fn planner_picks_the_cheapest_tier(
        (sites, fanout, windows, cells) in arb_grid(),
    ) {
        // Clamp the fanout so the tree always has ≥ 2 groups.
        let fanout = fanout.min(sites - 1).max(1);
        let (topo, relays, _exports, flat) = build_both(sites, fanout, windows, &cells);
        let _ = &flat;
        let router = QueryRouter::new(&topo, &relays);

        let q = parse("hhh 0.05 by packets", u64::MAX - 1).unwrap();
        let routed = router.run(&q);
        prop_assert!(
            matches!(routed.route, Route::Relay { relay, via_aggregates: true }
                if relay == topo.root()),
            "network-wide scope must ride root aggregates: {:?}",
            routed.route
        );

        let group: Vec<u16> = topo.relays[1].sites.clone();
        let list = group.iter().map(u16::to_string).collect::<Vec<_>>().join(",");
        let q = parse(&format!("pop sites={list}"), u64::MAX - 1).unwrap();
        let routed = router.run(&q);
        prop_assert!(
            matches!(routed.route, Route::Relay { relay, via_aggregates: false } if relay == 1),
            "single-region scope must stay at tier 1: {:?}",
            routed.route
        );

        if topo.relays.len() > 2 && topo.relays[1].sites.len() > 1 {
            // Part of group 1 plus all of group 2: no single tier
            // composes it.
            let mut scope: Vec<u16> = vec![topo.relays[1].sites[0]];
            scope.extend(&topo.relays[2].sites);
            let list = scope.iter().map(u16::to_string).collect::<Vec<_>>().join(",");
            let q = parse(&format!("hhh 0.1 by packets sites={list}"), u64::MAX - 1).unwrap();
            let routed = router.run(&q);
            prop_assert!(
                matches!(&routed.route, Route::FanOut { relays } if relays.len() == 2),
                "cross-region partial scope must fan out: {:?}",
                routed.route
            );
        }
    }
}

/// Trace-driven end-to-end: the multi-tier sim agrees with the flat
/// sim on totals and on routed query answers.
#[test]
fn sim_hierarchy_matches_flat_sim() {
    use flowdist::sim::SimConfig;
    use flowdist::TransferMode;
    use flownet::FlowCacheConfig;
    use flowtrace::{profile, TraceGen};

    let cfg = SimConfig {
        sites: 6,
        window_ms: 1_000,
        schema: Schema::five_feature(),
        tree: Config::with_budget(4_096),
        transfer: TransferMode::Full,
        cache: FlowCacheConfig {
            idle_timeout_ms: 500,
            active_timeout_ms: 2_000,
            max_entries: 10_000,
        },
    };
    let mut tcfg = profile::backbone(23);
    tcfg.packets = 20_000;
    tcfg.flows = 2_000;
    tcfg.mean_pps = 5_000.0;
    let trace: Vec<flownet::PacketMeta> = TraceGen::new(tcfg).collect();

    let topo = RelayTopology::two_tier(6, 2);
    let report = flowrelay::run_hierarchy(&topo, cfg, trace.iter().copied()).unwrap();
    let flat = flowdist::sim::run(cfg, trace.iter().copied()).unwrap();

    // Conservation through the tiers.
    assert_eq!(
        report.root().collector().total().packets,
        flat.collector.merged(None, 0, u64::MAX).total().packets
    );
    assert_eq!(report.packets_per_site, flat.packets_per_site);
    assert!(!report.root_exports.is_empty());

    // Routed answers agree with the flat engine (identical budgets on
    // both paths, so even compaction-era trees match: the same site
    // trees merge in a different grouping, which the byte-identity
    // property pins only for uncompacted trees — totals must agree
    // regardless).
    let router = report.router();
    let engine = QueryEngine::new(&flat.collector);
    let q = parse("pop", u64::MAX - 1).unwrap();
    let (QueryOutput::Pop(a), QueryOutput::Pop(b)) = (router.run(&q).output, engine.run(&q)) else {
        panic!("pop returns pop");
    };
    assert!((a.packets - b.packets).abs() < 1e-6, "{a:?} vs {b:?}");

    // The flat reference built from the report's own frames agrees too.
    let rebuilt = report.flat_collector(cfg.schema, cfg.tree).unwrap();
    assert_eq!(
        rebuilt.merged(None, 0, u64::MAX).total(),
        flat.collector.merged(None, 0, u64::MAX).total()
    );
}
