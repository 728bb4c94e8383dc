//! Parser robustness: arbitrary input must never panic, valid queries
//! must round-trip through their components. Refinement answers must
//! stay inside their scope.

use flowdist::{Collector, DaemonConfig, SiteDaemon, TransferMode};
use flowkey::{FlowKey, IpNet, Ipv4Net, Ipv6Net, Schema};
use flownet::FlowRecord;
use flowquery::{parse, Query, QueryEngine, QueryOutput};
use flowtree_core::Config;
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Two sites, one window each, IPv4 and IPv6 flows side by side.
fn two_family_collector() -> Collector {
    let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(512));
    for site in 0..2u16 {
        let mut cfg = DaemonConfig::new(site);
        cfg.window_ms = 1_000;
        cfg.schema = Schema::five_feature();
        cfg.tree = Config::with_budget(512);
        cfg.transfer = TransferMode::Full;
        let mut d = SiteDaemon::new(cfg);
        let mut summaries = Vec::new();
        for h in 0..24u16 {
            let (a, b) = ((h % 3) as u8, (h % 5) as u8);
            let mut r = FlowRecord::v4(
                [10, a, b, h as u8],
                [192, 0, 2, b],
                40_000 + h,
                if h % 2 == 0 { 443 } else { 53 },
                if h % 4 == 0 { 17 } else { 6 },
                1 + (h as u64 * 7) % 50,
                1_000,
            );
            if h % 3 == 0 {
                r.src = Ipv6Addr::new(0x2001, 0xdb8, a as u16, b as u16, 0, 0, 0, h).into();
                r.dst = Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, b as u16).into();
            }
            r.first_ms = 10 + h as u64;
            r.last_ms = r.first_ms;
            summaries.extend(d.ingest_record(&r));
        }
        summaries.extend(d.flush());
        for s in summaries {
            collector.apply_bytes(&s.encode()).unwrap();
        }
    }
    collector
}

/// A prefix of any length of either family, near the collector's data.
fn arb_prefix() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        (0u8..3, 0u8..5, any::<u8>(), 0u8..=32).prop_map(|(a, b, c, len)| {
            IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, a, b, c), len).unwrap())
        }),
        (0u16..3, 0u16..5, any::<u16>(), 0u8..=128).prop_map(|(a, b, h, len)| {
            let addr = Ipv6Addr::new(0x2001, 0xdb8, a, b, 0, 0, 0, h);
            IpNet::V6(Ipv6Net::new(addr, len).unwrap())
        }),
    ]
}

proptest! {
    /// The parser never panics, whatever the input.
    #[test]
    fn parser_never_panics(input in ".{0,120}") {
        let _ = parse(&input, 1_700_000_000_000);
    }

    /// Structured garbage around valid verbs never panics either.
    #[test]
    fn structured_fuzz(
        verb in prop::sample::select(vec!["pop", "top", "drill", "hhh", "zap"]),
        k in any::<u32>(),
        dim in prop::sample::select(vec!["src", "dst", "sport", "dport", "proto", "x"]),
        oct in any::<[u8; 4]>(),
        len in 0u8..=40,
        dur in any::<u16>(),
        unit in prop::sample::select(vec!["s", "m", "h", "d", "q"]),
    ) {
        let q = format!(
            "{verb} {k} {dim} under src={}.{}.{}.{}/{len} last={dur}{unit}",
            oct[0], oct[1], oct[2], oct[3]
        );
        let _ = parse(&q, u64::MAX / 2);
    }

    /// Every syntactically valid pop query parses and scopes correctly.
    #[test]
    fn valid_pop_queries_parse(
        oct in any::<[u8; 4]>(),
        len in 0u8..=32,
        port in any::<u16>(),
        hours in 1u64..10_000,
    ) {
        let now = 1_700_000_000_000u64;
        let q = format!(
            "pop src={}.{}.{}.{}/{len} dport={port} last={hours}h",
            oct[0], oct[1], oct[2], oct[3]
        );
        let parsed = parse(&q, now).expect("valid query");
        let scope = parsed.scope();
        prop_assert_eq!(scope.to_ms, now + 1);
        prop_assert_eq!(scope.from_ms, now.saturating_sub(hours * 3_600_000));
    }

    /// Every `drill`/`top` row lies inside the scope it refines, and the
    /// rows' shares of the scope sum to at most one.
    #[test]
    fn refinement_rows_stay_inside_their_scope(
        prefix in arb_prefix(),
        on_dst in any::<bool>(),
        verb in prop::sample::select(vec!["drill", "top 5", "top 50"]),
        dim in prop::sample::select(vec!["src", "dst", "sport", "dport", "proto"]),
        metric in prop::sample::select(vec!["packets", "bytes", "flows"]),
    ) {
        let collector = two_family_collector();
        let under = if on_dst {
            FlowKey::ROOT.with_dst(prefix)
        } else {
            FlowKey::ROOT.with_src(prefix)
        };
        let by = if verb == "drill" { String::new() } else { format!(" by {metric}") };
        let text = format!("{verb} {dim}{by} under {under}");
        let query = parse(&text, u64::MAX - 1).expect("valid query");
        let scope = match &query {
            Query::Drill { under, .. } | Query::TopK { under, .. } => *under,
            other => panic!("{text} parsed as {other:?}"),
        };
        prop_assert_eq!(scope, under);
        let QueryOutput::Table(rows) = QueryEngine::new(&collector).run(&query) else {
            panic!("{text} must answer with rows")
        };
        for row in &rows {
            prop_assert!(under.contains(&row.key), "{}: row {} outside the scope", text, row.key);
        }
        let shares: f64 = rows.iter().map(|r| r.share).sum();
        prop_assert!(shares <= 1.0 + 1e-9, "{}: shares sum to {}", text, shares);
    }
}
