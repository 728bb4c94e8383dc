//! Query execution over a [`Collector`].
//!
//! The planner is merge-based, exactly as the paper intends: pick the
//! (site, window) summaries in scope, merge them into one Flowtree, and
//! evaluate the question on the merged tree. Refinement candidates for
//! `top`/`drill` come from the merged tree's retained nodes, so the
//! engine never has to enumerate the (astronomic) key space.
//!
//! Merged trees come from the collector's **cached view** layer
//! ([`Collector::merged_view`]): repeated queries over the same scope —
//! a dashboard refreshing `top`/`drill`/`hhh` — reuse one structurally
//! merged tree instead of re-merging every (site, window) summary per
//! run, and a scope that keeps gaining windows is extended
//! incrementally rather than rebuilt.

use crate::ast::{Query, Scope};
use flowdist::Collector;
use flowkey::{Dim, FlowKey, IpNet};
use flowtree_core::{FlowTree, Metric, PopEst};
use std::sync::Arc;

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The generalized flow the row describes.
    pub key: FlowKey,
    /// Its estimated popularity in scope.
    pub est: PopEst,
    /// Share of the scoped total (0..=1) by the ranking metric.
    pub share: f64,
}

/// One window's coverage gap in a scoped answer: sites the scope asked
/// for that have data *somewhere* in range but not in this window —
/// per-window truth, where a lifetime union would still advertise
/// them. Sites with no data anywhere are a different (coarser) signal
/// and are reported separately by the callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageGap {
    /// The window's start (epoch ms).
    pub window_start_ms: u64,
    /// The scope sites absent from this window, ascending.
    pub missing: Vec<u16>,
}

/// Result of running a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// A single estimate (for `pop`).
    Pop(PopEst),
    /// Ranked rows (for `top`, `drill`, `hhh`).
    Table(Vec<Row>),
}

impl QueryOutput {
    /// Renders a human-readable report.
    pub fn render(&self, metric: Metric) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            QueryOutput::Pop(est) => {
                let _ = writeln!(
                    out,
                    "popularity: {:.0} packets, {:.0} bytes, {:.0} flows",
                    est.packets, est.bytes, est.flows
                );
            }
            QueryOutput::Table(rows) => {
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>12.0}  {:>6.2}%  {}",
                        r.est.get(metric),
                        r.share * 100.0,
                        r.key
                    );
                }
            }
        }
        out
    }
}

/// Executes queries against a collector.
#[derive(Debug)]
pub struct QueryEngine<'a> {
    collector: &'a Collector,
}

impl<'a> QueryEngine<'a> {
    /// Wraps a collector.
    pub fn new(collector: &'a Collector) -> QueryEngine<'a> {
        QueryEngine { collector }
    }

    /// Runs one query.
    pub fn run(&self, query: &Query) -> QueryOutput {
        match query {
            Query::Pop { pattern, scope } => QueryOutput::Pop(self.scoped_estimate(pattern, scope)),
            Query::TopK {
                k,
                under,
                dim,
                metric,
                scope,
            } => {
                let mut rows = self.refine(under, *dim, scope, *metric);
                rows.truncate(*k);
                QueryOutput::Table(rows)
            }
            Query::Drill { under, dim, scope } => {
                QueryOutput::Table(self.refine(under, *dim, scope, Metric::Packets))
            }
            Query::BySite { pattern, scope } => {
                let sites = match &scope.sites {
                    Some(s) => s.clone(),
                    None => self.collector.sites(),
                };
                let total = self
                    .scoped_estimate(pattern, scope)
                    .get(Metric::Packets)
                    .abs()
                    .max(f64::MIN_POSITIVE);
                let mut rows: Vec<Row> = sites
                    .into_iter()
                    .map(|site| {
                        let est = self.collector.query(
                            pattern,
                            Some(&[site]),
                            scope.from_ms,
                            scope.to_ms,
                        );
                        Row {
                            key: pattern.with_site(flowkey::Site::Is(site)),
                            est,
                            share: est.get(Metric::Packets) / total,
                        }
                    })
                    .collect();
                rows.sort_by(|a, b| {
                    b.est
                        .packets
                        .partial_cmp(&a.est.packets)
                        .expect("finite")
                        .then(a.key.cmp(&b.key))
                });
                QueryOutput::Table(rows)
            }
            Query::Hhh { phi, metric, scope } => {
                QueryOutput::Table(hhh_rows(&self.merged(scope), *phi, *metric))
            }
        }
    }

    /// The per-window coverage gaps of a scope: for every stored
    /// window in range, which of the scope's sites were **not** folded
    /// into it — read off the collector's per-window provenance, so a
    /// site that reported other windows but skipped this one is
    /// reported for exactly this window. Sites with no data in any
    /// in-range window are excluded (they are lifetime-missing, a
    /// coarser signal the hierarchy planner reports separately).
    pub fn coverage_gaps(&self, scope: &Scope) -> Vec<CoverageGap> {
        let mut starts: Vec<u64> = self
            .collector
            .window_keys_in(scope.from_ms, scope.to_ms)
            .map(|(start, _)| start)
            .collect();
        starts.dedup();
        let mut lifetime: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
        let per_window: Vec<(u64, std::collections::BTreeSet<u16>)> = starts
            .into_iter()
            .map(|s| {
                let cov = self.collector.window_coverage(s);
                lifetime.extend(cov.iter().copied());
                (s, cov)
            })
            .collect();
        let wanted: Vec<u16> = match &scope.sites {
            Some(sites) => {
                let mut v: Vec<u16> = sites
                    .iter()
                    .copied()
                    .filter(|s| lifetime.contains(s))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            None => lifetime.iter().copied().collect(),
        };
        per_window
            .into_iter()
            .filter_map(|(start, cov)| {
                let missing: Vec<u16> = wanted
                    .iter()
                    .copied()
                    .filter(|s| !cov.contains(s))
                    .collect();
                (!missing.is_empty()).then_some(CoverageGap {
                    window_start_ms: start,
                    missing,
                })
            })
            .collect()
    }

    fn merged(&self, scope: &Scope) -> Arc<FlowTree> {
        self.collector
            .merged_view(scope.sites.as_deref(), scope.from_ms, scope.to_ms)
    }

    fn scoped_estimate(&self, pattern: &FlowKey, scope: &Scope) -> PopEst {
        self.collector
            .query(pattern, scope.sites.as_deref(), scope.from_ms, scope.to_ms)
    }

    /// Expands `under` one natural granularity step along `dim` over
    /// the scope's merged view.
    fn refine(&self, under: &FlowKey, dim: Dim, scope: &Scope, metric: Metric) -> Vec<Row> {
        refine_on(&self.merged(scope), under, dim, metric)
    }
}

/// Evaluates one query against an already-merged scope tree — the
/// single-structure half of the engine, shared with callers that build
/// their merged view elsewhere (the hierarchy tier's fan-out path
/// merges per-relay cached views and evaluates here). Returns `None`
/// for [`Query::BySite`], which needs per-site storage, not one merged
/// tree.
pub fn run_on_tree(query: &Query, tree: &FlowTree) -> Option<QueryOutput> {
    match query {
        Query::Pop { pattern, .. } => Some(QueryOutput::Pop(tree.estimate_pattern(pattern))),
        Query::TopK {
            k,
            under,
            dim,
            metric,
            ..
        } => {
            let mut rows = refine_on(tree, under, *dim, *metric);
            rows.truncate(*k);
            Some(QueryOutput::Table(rows))
        }
        Query::Drill { under, dim, .. } => Some(QueryOutput::Table(refine_on(
            tree,
            under,
            *dim,
            Metric::Packets,
        ))),
        Query::Hhh { phi, metric, .. } => Some(QueryOutput::Table(hhh_rows(tree, *phi, *metric))),
        Query::BySite { .. } => None,
    }
}

/// Hierarchical heavy hitters of one merged tree as ranked rows.
fn hhh_rows(merged: &FlowTree, phi: f64, metric: Metric) -> Vec<Row> {
    let total = merged.total().get(metric).max(1) as f64;
    merged
        .hhh(phi, metric)
        .into_iter()
        .map(|h| Row {
            key: h.key,
            est: PopEst::from(h.discounted),
            share: h.discounted.get(metric) as f64 / total,
        })
        .collect()
}

/// Expands `under` one natural granularity step along `dim`: the
/// candidates are derived from the merged tree's retained nodes inside
/// `under`, and [`FlowTree::estimate_refinements`] estimates the scope
/// and every candidate in one walk of the tree (each estimate
/// bit-identical to a separate [`FlowTree::estimate_pattern`]). Rows are
/// ranked by `metric`, each with its share of the scope's estimate.
fn refine_on(merged: &FlowTree, under: &FlowKey, dim: Dim, metric: Metric) -> Vec<Row> {
    let (scope, candidates) = merged.estimate_refinements(under, dim, refine_depth(under, dim));
    let total = scope.get(metric).abs().max(f64::MIN_POSITIVE);
    let mut rows: Vec<Row> = candidates
        .into_iter()
        .map(|(key, est)| Row {
            key,
            est,
            share: est.get(metric) / total,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.est
            .get(metric)
            .partial_cmp(&a.est.get(metric))
            .expect("finite")
            .then(a.key.cmp(&b.key))
    });
    rows
}

/// The next natural granularity below `under` along `dim`: +8 bits for
/// IP prefixes (the /8 → /16 → /24 ladder operators drill along, capped
/// at the host prefix of `under`'s family), +4 bits for ports, one
/// hierarchy step otherwise.
fn refine_depth(under: &FlowKey, dim: Dim) -> u16 {
    let cur = under.dim_depth(dim);
    let ip_max = |net: &IpNet| match net {
        IpNet::V6(_) => 129,
        IpNet::Any | IpNet::V4(_) => 33,
    };
    let (step, max) = match dim {
        Dim::SrcIp => (8, ip_max(&under.src)),
        Dim::DstIp => (8, ip_max(&under.dst)),
        Dim::SrcPort | Dim::DstPort => (4, 16),
        Dim::Proto => (1, 1),
        Dim::Time => (8, 36),
        Dim::Site => (1, 2),
    };
    // IP depth 0 = Any; the first refinement is /8 (depth 9).
    let next = if matches!(dim, Dim::SrcIp | Dim::DstIp) && cur == 0 {
        9
    } else {
        cur + step
    };
    next.min(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use flowdist::{Collector, DaemonConfig, SiteDaemon, TransferMode};
    use flowkey::Schema;
    use flownet::FlowRecord;
    use flowtree_core::Config;

    /// Two sites, two windows; site 0 carries the heavy /24.
    fn collector() -> Collector {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(4096));
        for site in 0..2u16 {
            let mut cfg = DaemonConfig::new(site);
            cfg.window_ms = 1_000;
            cfg.schema = Schema::five_feature();
            cfg.tree = Config::with_budget(4096);
            cfg.transfer = TransferMode::Full;
            let mut d = SiteDaemon::new(cfg);
            let mut summaries = Vec::new();
            for w in 0..2u64 {
                for h in 0..10u8 {
                    let packets = if site == 0 && h < 5 { 100 } else { 3 };
                    let mut r = FlowRecord::v4(
                        [10, site as u8, 7, h],
                        [192, 0, 2, h % 3],
                        40_000 + h as u16,
                        if h % 2 == 0 { 443 } else { 53 },
                        6,
                        packets,
                        packets * 100,
                    );
                    r.first_ms = w * 1000 + 10 + h as u64;
                    r.last_ms = r.first_ms;
                    summaries.extend(d.ingest_record(&r));
                }
            }
            summaries.extend(d.flush());
            for s in summaries {
                collector.apply_bytes(&s.encode()).unwrap();
            }
        }
        collector
    }

    #[test]
    fn pop_scopes_by_site_and_time() {
        let c = collector();
        let e = QueryEngine::new(&c);
        // All traffic.
        let q = parse("pop", u64::MAX - 1).unwrap();
        let QueryOutput::Pop(all) = e.run(&q) else {
            panic!()
        };
        // site0: (5×100 + 5×3) ×2 windows + site1: 10×3×2 = 1030+60.
        assert!((all.packets - 1090.0).abs() < 1e-6, "{}", all.packets);
        // Site 1 only.
        let q = parse("pop sites=1", u64::MAX - 1).unwrap();
        let QueryOutput::Pop(s1) = e.run(&q) else {
            panic!()
        };
        assert!((s1.packets - 60.0).abs() < 1e-6, "{}", s1.packets);
        // First window only.
        let q = parse("pop from=0 to=1000", u64::MAX - 1).unwrap();
        let QueryOutput::Pop(w0) = e.run(&q) else {
            panic!()
        };
        assert!((w0.packets - 545.0).abs() < 1e-6, "{}", w0.packets);
    }

    #[test]
    fn drill_finds_the_hot_prefix() {
        let c = collector();
        let e = QueryEngine::new(&c);
        let q = parse("drill src", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = e.run(&q) else {
            panic!()
        };
        assert!(!rows.is_empty());
        // The hot /8 is 10.0.0.0/8 (all traffic).
        assert_eq!(rows[0].key.to_string(), "src=10.0.0.0/8");
        assert!(rows[0].share > 0.99);
        // Drill further: under 10/8, the /16 of site 0 dominates.
        let q = parse("drill src under src=10.0.0.0/8", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = e.run(&q) else {
            panic!()
        };
        assert_eq!(rows[0].key.to_string(), "src=10.0.0.0/16");
        assert!(rows[0].share > 0.9, "{}", rows[0].share);
    }

    /// One site, one window of IPv6 flows under `2001:db8:1::/48`,
    /// spread over two /56s.
    fn v6_collector() -> Collector {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(4096));
        let mut cfg = DaemonConfig::new(0);
        cfg.window_ms = 1_000;
        cfg.schema = Schema::five_feature();
        cfg.tree = Config::with_budget(4096);
        cfg.transfer = TransferMode::Full;
        let mut d = SiteDaemon::new(cfg);
        let mut summaries = Vec::new();
        for h in 0..8u16 {
            let mut r = FlowRecord::v4([0; 4], [0; 4], 40_000 + h, 443, 6, 10 + h as u64, 1_000);
            let subnet = if h < 5 { 0x0100 } else { 0x0200 };
            r.src = std::net::Ipv6Addr::new(0x2001, 0xdb8, 1, subnet, 0, 0, 0, h + 1).into();
            r.dst = std::net::Ipv6Addr::new(0x2001, 0xdb8, 0xff, 0, 0, 0, 0, 1).into();
            r.first_ms = 10 + h as u64;
            r.last_ms = r.first_ms;
            summaries.extend(d.ingest_record(&r));
        }
        summaries.extend(d.flush());
        for s in summaries {
            collector.apply_bytes(&s.encode()).unwrap();
        }
        collector
    }

    #[test]
    fn ipv6_drills_below_slash_32() {
        let c = v6_collector();
        let e = QueryEngine::new(&c);
        let drill = |q: &str| {
            let QueryOutput::Table(rows) = e.run(&parse(q, u64::MAX - 1).unwrap()) else {
                panic!()
            };
            rows.iter().map(|r| r.key.to_string()).collect::<Vec<_>>()
        };
        // /32 steps to /40, not back to itself.
        assert_eq!(
            drill("drill src under src=2001:db8::/32"),
            ["src=2001:db8::/40"]
        );
        // /48 steps to /56, not up to the /32.
        assert_eq!(
            drill("drill src under src=2001:db8:1::/48"),
            ["src=2001:db8:1:100::/56", "src=2001:db8:1:200::/56"]
        );
        // The IPv4 ladder still stops at the host prefix.
        assert_eq!(
            refine_depth(&"src=10.1.2.3/32".parse().unwrap(), Dim::SrcIp),
            33
        );
        assert_eq!(
            refine_depth(&"src=2001:db8::1/128".parse().unwrap(), Dim::SrcIp),
            129
        );
        assert_eq!(refine_depth(&FlowKey::ROOT, Dim::DstIp), 9);
    }

    #[test]
    fn topk_ranks_and_truncates() {
        let c = collector();
        let e = QueryEngine::new(&c);
        let q = parse("top 3 dport under src=10.0.0.0/8", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = e.run(&q) else {
            panic!()
        };
        assert!(rows.len() <= 3);
        assert!(rows[0].est.packets >= rows[rows.len() - 1].est.packets);
    }

    #[test]
    fn hhh_returns_shares() {
        let c = collector();
        let e = QueryEngine::new(&c);
        let q = parse("hhh 0.2 by packets", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = e.run(&q) else {
            panic!()
        };
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.share >= 0.2 - 1e-9, "{} at {}", r.share, r.key);
        }
    }

    #[test]
    fn render_is_humane() {
        let c = collector();
        let e = QueryEngine::new(&c);
        let q = parse("drill src", u64::MAX - 1).unwrap();
        let out = e.run(&q).render(Metric::Packets);
        assert!(out.contains("src=10.0.0.0/8"));
        assert!(out.contains('%'));
    }
}

#[cfg(test)]
mod bysite_tests {
    use super::*;
    use crate::parse::parse;
    use flowdist::{Collector, DaemonConfig, SiteDaemon, TransferMode};
    use flowkey::Schema;
    use flownet::FlowRecord;
    use flowtree_core::Config;

    #[test]
    fn bysite_breaks_down_the_peer_question() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(1024));
        for site in 0..3u16 {
            let mut cfg = DaemonConfig::new(site);
            cfg.window_ms = 1_000;
            cfg.schema = Schema::five_feature();
            cfg.tree = Config::with_budget(1024);
            cfg.transfer = TransferMode::Full;
            let mut d = SiteDaemon::new(cfg);
            let mut summaries = Vec::new();
            // The peer sends (site+1) × 10 packets to each site.
            let mut r = FlowRecord::v4(
                [203, 0, 113, 9],
                [10, site as u8, 0, 1],
                5555,
                443,
                6,
                (site as u64 + 1) * 10,
                1_000,
            );
            r.first_ms = 100;
            r.last_ms = 100;
            summaries.extend(d.ingest_record(&r));
            summaries.extend(d.flush());
            for s in summaries {
                collector.apply_bytes(&s.encode()).unwrap();
            }
        }
        let engine = QueryEngine::new(&collector);
        let q = parse("bysite src=203.0.113.0/24", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = engine.run(&q) else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
        // Sorted by volume: site 2 (30) first.
        assert_eq!(rows[0].est.packets, 30.0);
        assert_eq!(rows[2].est.packets, 10.0);
        assert!(
            rows[0].key.to_string().contains("site=2"),
            "{}",
            rows[0].key
        );
        let share_sum: f64 = rows.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        // Restricting the scope restricts the rows.
        let q = parse("bysite src=203.0.113.0/24 sites=1", u64::MAX - 1).unwrap();
        let QueryOutput::Table(rows) = engine.run(&q) else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].est.packets, 20.0);
    }

    /// Coverage gaps by their definition: a sweep over every stored key.
    fn swept_gaps(c: &Collector, scope: &Scope) -> Vec<CoverageGap> {
        use std::collections::BTreeSet;
        let mut starts: Vec<u64> = c
            .window_keys()
            .into_iter()
            .map(|(start, _)| start)
            .filter(|&s| s >= scope.from_ms && s < scope.to_ms)
            .collect();
        starts.dedup();
        let lifetime: BTreeSet<u16> = starts.iter().flat_map(|&s| c.window_coverage(s)).collect();
        let wanted: BTreeSet<u16> = match &scope.sites {
            Some(sites) => sites
                .iter()
                .copied()
                .filter(|s| lifetime.contains(s))
                .collect(),
            None => lifetime,
        };
        starts
            .into_iter()
            .filter_map(|start| {
                let cov = c.window_coverage(start);
                let missing: Vec<u16> = wanted.difference(&cov).copied().collect();
                (!missing.is_empty()).then_some(CoverageGap {
                    window_start_ms: start,
                    missing,
                })
            })
            .collect()
    }

    /// The per-query scope bookkeeping reads the collector's per-site
    /// slot counts and the store's range over `[from, to)`; stored
    /// sites, window starts, `bysite` rows and coverage gaps equal a
    /// sweep over every stored key across store, replace and evict.
    #[test]
    fn scope_bookkeeping_follows_store_replace_and_evict() {
        use flowdist::{Summary, SummaryKind, WindowId};
        use flowtree_core::Popularity;
        let frame = |site: u16, window: u64, hosts: u8| {
            let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4096));
            for h in 0..hosts {
                let key: FlowKey = format!("src=10.{site}.0.{h}/32").parse().unwrap();
                tree.insert(&key, Popularity::packet(100));
            }
            Summary {
                site,
                window: WindowId {
                    start_ms: window * 1_000,
                    span_ms: 1_000,
                },
                seq: window,
                kind: SummaryKind::Full,
                lineage: None,
                tree,
            }
        };
        let scopes: Vec<Scope> = [
            (None, 0, u64::MAX),
            (Some(vec![0, 2]), 1_000, 4_000),
            (Some(vec![1, 2, 9]), 0, 3_000),
            (None, 2_500, 6_000),
            (None, 4_000, 2_000),
        ]
        .into_iter()
        .map(|(sites, from_ms, to_ms)| Scope {
            sites,
            from_ms,
            to_ms,
        })
        .collect();
        let check = |c: &Collector, stage: &str| {
            let keys = c.window_keys();
            let mut sites: Vec<u16> = keys.iter().map(|&(_, site)| site).collect();
            sites.sort_unstable();
            sites.dedup();
            assert_eq!(c.sites(), sites, "{stage}");
            for site in 0..5 {
                assert_eq!(
                    c.stores_site(site),
                    sites.contains(&site),
                    "{stage}: {site}"
                );
            }
            let e = QueryEngine::new(c);
            for scope in &scopes {
                let in_range: Vec<(u64, u16)> = keys
                    .iter()
                    .copied()
                    .filter(|&(s, _)| s >= scope.from_ms && s < scope.to_ms)
                    .collect();
                assert_eq!(
                    c.window_keys_in(scope.from_ms, scope.to_ms)
                        .collect::<Vec<_>>(),
                    in_range,
                    "{stage}: {scope:?}"
                );
                assert_eq!(
                    e.coverage_gaps(scope),
                    swept_gaps(c, scope),
                    "{stage}: {scope:?}"
                );
            }
            let QueryOutput::Table(rows) = e.run(&parse("bysite", u64::MAX - 1).unwrap()) else {
                panic!()
            };
            let mut row_sites: Vec<String> = rows.iter().map(|r| r.key.to_string()).collect();
            row_sites.sort();
            let mut want: Vec<String> = sites.iter().map(|s| format!("site={s}")).collect();
            want.sort();
            assert_eq!(row_sites, want, "{stage}");
        };
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(4096));
        check(&c, "empty");
        // Sites 0–2 over windows 0–5; site 2 skips the odd windows.
        for window in 0..6 {
            for site in 0..3 {
                if site != 2 || window % 2 == 0 {
                    c.apply(frame(site, window, 3 + site as u8)).unwrap();
                }
            }
        }
        check(&c, "store");
        c.apply(frame(1, 3, 9)).unwrap();
        check(&c, "replace");
        c.evict_windows_before(2_000);
        check(&c, "evict some");
        c.evict_windows_before(5_000);
        check(&c, "evict site 2");
        c.evict_windows_before(u64::MAX);
        check(&c, "evict all");
    }
}
