//! Query routing over a relay hierarchy.
//!
//! The planner implements the journal version's "answer at the lowest
//! tier that covers the scope": given a parsed [`Query`], it inspects
//! the site-set + time-range scope and
//!
//! 1. picks the **smallest-coverage relay** whose stored trees can
//!    compose the scope's live sites — a tier-1 relay for a regional
//!    question (per-site trees), the root for a network-wide one (one
//!    pre-aggregated tree per window and region) — and runs the
//!    ordinary [`QueryEngine`] over that relay's embedded collector
//!    with the scope rewritten to the composing stored keys;
//! 2. falls back to **fan-out** when no single tier composes the
//!    scope (a question straddling regions but naming only part of
//!    each): every owning tier-1 relay contributes its cached
//!    [`flowdist::Collector::merged_view`] for its slice of the
//!    scope, the slices merge structurally, and the query runs on the
//!    merged tree ([`flowquery::run_on_tree`]);
//! 3. answers `bysite` breakdowns per owning relay, since they need
//!    per-site storage no aggregate retains.
//!
//! Sites the scope asks for that no live downstream backs are
//! reported in [`Routed::missing`] instead of failing the query — a
//! dead site degrades coverage, it never wedges the planner.

use crate::relay::Relay;
use crate::topology::RelayTopology;
use flowquery::ast::{Query, Scope};
use flowquery::{run_on_tree, CoverageGap, QueryEngine, QueryOutput, Row};
use flowtree_core::{FlowTree, Metric, PopEst};
use std::collections::{BTreeMap, BTreeSet};

/// Where the planner sent a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Answered by one relay's embedded collector; `via_aggregates`
    /// is set when any composed stored tree is a pre-aggregated
    /// super-site summary.
    Relay {
        /// Index into the router's relay slice.
        relay: usize,
        /// Whether pre-aggregated trees answered (the cheap tier).
        via_aggregates: bool,
    },
    /// Merged from several tier-1 relays' per-site views.
    FanOut {
        /// The contributing relay indices.
        relays: Vec<usize>,
    },
    /// Per-site breakdown gathered from the owning relays.
    BySite {
        /// The contributing relay indices.
        relays: Vec<usize>,
    },
}

/// A routed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Routed {
    /// The query output (same shape as the flat engine's).
    pub output: QueryOutput,
    /// Which tier answered.
    pub route: Route,
    /// Scope sites with no live data anywhere in the hierarchy.
    pub missing: Vec<u16>,
    /// Per-window coverage gaps at the consulted tier(s): scope sites
    /// that have data in range but were **not** folded into a
    /// particular window (per-window provenance, not a lifetime
    /// union) — a window missing one site reports exactly that window,
    /// and no longer advertises the site elsewhere.
    pub missing_windows: Vec<CoverageGap>,
}

/// The planner over one hierarchy (relays indexed as in the topology).
#[derive(Debug)]
pub struct QueryRouter<'a> {
    topo: &'a RelayTopology,
    relays: &'a [Relay],
}

impl<'a> QueryRouter<'a> {
    /// Wraps a topology and its instantiated relays (`relays[i]`
    /// corresponds to `topo.relays[i]`).
    pub fn new(topo: &'a RelayTopology, relays: &'a [Relay]) -> QueryRouter<'a> {
        assert_eq!(topo.relays.len(), relays.len(), "one relay per spec");
        QueryRouter { topo, relays }
    }

    /// The display name of a routed relay index.
    pub fn relay_name(&self, idx: usize) -> &str {
        self.relays[idx].name()
    }

    /// Routes and runs one query.
    pub fn run(&self, query: &Query) -> Routed {
        if let Query::BySite { pattern, scope } = query {
            return self.run_bysite(pattern, scope);
        }
        let scope = query.scope();
        let wanted = self.requested_sites(scope);
        let live = self.live_sites();
        let live_wanted: Vec<u16> = wanted
            .iter()
            .copied()
            .filter(|s| live.contains(s))
            .collect();
        let missing: Vec<u16> = wanted
            .iter()
            .copied()
            .filter(|s| !live.contains(s))
            .collect();

        // Cheapest single tier: smallest expected coverage first,
        // deepest tier breaking ties, that (a) is responsible for the
        // scope and (b) composes every live scope site from stored
        // trees.
        let mut order: Vec<usize> = (0..self.relays.len()).collect();
        order.sort_by_key(|&i| {
            (
                self.relays[i].expected_coverage().len(),
                usize::MAX - self.topo.depth_of(i),
                i,
            )
        });
        for idx in order {
            let relay = &self.relays[idx];
            if !wanted.iter().all(|s| relay.expected_coverage().contains(s)) {
                continue;
            }
            let compose = relay.compose(Some(&live_wanted));
            let keys = compose.keys.expect("explicit scope");
            if !compose.missing.is_empty() {
                continue; // this tier cannot compose the scope exactly
            }
            // A composed key is an aggregate iff it is some relay's
            // export id rather than a real site.
            let via_aggregates = keys
                .iter()
                .any(|k| self.topo.relays.iter().any(|r| r.agg_site == *k));
            let rewritten = with_scope_sites(query, Some(keys));
            let output = QueryEngine::new(relay.collector()).run(&rewritten);
            let missing_windows = self.window_gaps(&[(idx, live_wanted.clone())], scope);
            return Routed {
                output,
                route: Route::Relay {
                    relay: idx,
                    via_aggregates,
                },
                missing,
                missing_windows,
            };
        }
        self.run_fanout(query, &live_wanted, missing)
    }

    /// Per-window coverage gaps across the consulted `(relay, scope
    /// slice)` parts: the union of window starts any part stores in
    /// range, each checked against every part's **per-window**
    /// provenance — so a site that skipped one window is reported for
    /// exactly that window. Sites with no in-range data at their part
    /// are excluded (they are in the lifetime `missing` already).
    fn window_gaps(&self, parts: &[(usize, Vec<u16>)], scope: &Scope) -> Vec<CoverageGap> {
        if let [(idx, sites)] = parts {
            // Single consulted relay: the flat engine's coverage-gap
            // sweep over its collector is exactly this computation.
            return QueryEngine::new(self.relays[*idx].collector()).coverage_gaps(&Scope {
                sites: Some(sites.clone()),
                from_ms: scope.from_ms,
                to_ms: scope.to_ms,
            });
        }
        let mut starts: BTreeSet<u64> = BTreeSet::new();
        for (idx, _) in parts {
            starts.extend(
                self.relays[*idx]
                    .collector()
                    .window_keys_in(scope.from_ms, scope.to_ms)
                    .map(|(start, _)| start),
            );
        }
        let mut gaps: BTreeMap<u64, BTreeSet<u16>> = BTreeMap::new();
        for (idx, sites) in parts {
            let relay = &self.relays[*idx];
            let coverage: Vec<(u64, BTreeSet<u16>)> = starts
                .iter()
                .map(|&s| (s, relay.window_coverage(s)))
                .collect();
            let lifetime: BTreeSet<u16> = coverage
                .iter()
                .flat_map(|(_, cov)| cov.iter().copied())
                .collect();
            for (start, cov) in &coverage {
                for site in sites {
                    if lifetime.contains(site) && !cov.contains(site) {
                        gaps.entry(*start).or_default().insert(*site);
                    }
                }
            }
        }
        gaps.into_iter()
            .map(|(window_start_ms, missing)| CoverageGap {
                window_start_ms,
                missing: missing.into_iter().collect(),
            })
            .collect()
    }

    /// The scope's requested sites (`None` = every topology site).
    fn requested_sites(&self, scope: &Scope) -> Vec<u16> {
        match &scope.sites {
            Some(s) => {
                let mut v = s.clone();
                v.sort_unstable();
                v.dedup();
                v
            }
            None => self.topo.all_sites().into_iter().collect(),
        }
    }

    /// Every site with live data at its owning tier-1 relay.
    fn live_sites(&self) -> BTreeSet<u16> {
        self.relays
            .iter()
            .flat_map(|r| r.live_coverage().into_iter())
            .collect()
    }

    /// Fan-out: each owning tier-1 relay contributes its slice of the
    /// scope from per-site trees.
    fn run_fanout(&self, query: &Query, live_wanted: &[u16], missing: Vec<u16>) -> Routed {
        let scope = query.scope();
        // Group the live scope sites by owning relay.
        let mut parts: Vec<(usize, Vec<u16>)> = Vec::new();
        for &site in live_wanted {
            let Some(owner) = self.topo.owner_of(site) else {
                continue;
            };
            match parts.iter_mut().find(|(i, _)| *i == owner) {
                Some((_, sites)) => sites.push(site),
                None => parts.push((owner, vec![site])),
            }
        }
        let relays: Vec<usize> = parts.iter().map(|(i, _)| *i).collect();
        let missing_windows = self.window_gaps(&parts, scope);
        let output = match query {
            Query::Pop { pattern, .. } => {
                // Exact: per-window estimates are additive across
                // disjoint site slices, so sum the slices.
                let mut acc = PopEst::ZERO;
                for (idx, sites) in &parts {
                    acc += self.relays[*idx].collector().query(
                        pattern,
                        Some(sites),
                        scope.from_ms,
                        scope.to_ms,
                    );
                }
                QueryOutput::Pop(acc)
            }
            _ => {
                // Merge each owner's cached view of its slice, then
                // evaluate on the single merged tree.
                let (schema, cfg) = match parts.first() {
                    Some((idx, _)) => (self.relays[*idx].schema(), self.relays[*idx].tree_cfg()),
                    None => match self.relays.first() {
                        Some(r) => (r.schema(), r.tree_cfg()),
                        None => {
                            return Routed {
                                output: QueryOutput::Table(Vec::new()),
                                route: Route::FanOut { relays },
                                missing,
                                missing_windows,
                            }
                        }
                    },
                };
                let views: Vec<std::sync::Arc<FlowTree>> = parts
                    .iter()
                    .map(|(idx, sites)| {
                        self.relays[*idx].merged_view(Some(sites), scope.from_ms, scope.to_ms)
                    })
                    .collect();
                let refs: Vec<&FlowTree> = views.iter().map(|v| v.as_ref()).collect();
                let mut merged = FlowTree::new(schema, cfg);
                merged.merge_many(&refs).expect("uniform schema");
                run_on_tree(query, &merged).expect("bysite handled separately")
            }
        };
        Routed {
            output,
            route: Route::FanOut { relays },
            missing,
            missing_windows,
        }
    }

    /// Per-site breakdown: one row per requested site, estimated at
    /// its owning relay (zero for sites with no data), ranked like the
    /// flat engine's `bysite`.
    fn run_bysite(&self, pattern: &flowkey::FlowKey, scope: &Scope) -> Routed {
        let wanted = match &scope.sites {
            Some(_) => self.requested_sites(scope),
            None => self.live_sites().into_iter().collect(),
        };
        let live = self.live_sites();
        let missing: Vec<u16> = wanted
            .iter()
            .copied()
            .filter(|s| !live.contains(s))
            .collect();
        let mut relays: Vec<usize> = Vec::new();
        let mut parts: Vec<(usize, Vec<u16>)> = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        let mut total = 0.0f64;
        let mut per_site: Vec<(u16, PopEst)> = Vec::new();
        for &site in &wanted {
            let est = match self.topo.owner_of(site) {
                Some(owner) => {
                    if !relays.contains(&owner) {
                        relays.push(owner);
                    }
                    match parts.iter_mut().find(|(i, _)| *i == owner) {
                        Some((_, sites)) => sites.push(site),
                        None => parts.push((owner, vec![site])),
                    }
                    self.relays[owner].collector().query(
                        pattern,
                        Some(&[site]),
                        scope.from_ms,
                        scope.to_ms,
                    )
                }
                None => PopEst::ZERO,
            };
            total += est.get(Metric::Packets);
            per_site.push((site, est));
        }
        let total = total.abs().max(f64::MIN_POSITIVE);
        for (site, est) in per_site {
            rows.push(Row {
                key: pattern.with_site(flowkey::Site::Is(site)),
                est,
                share: est.get(Metric::Packets) / total,
            });
        }
        rows.sort_by(|a, b| {
            b.est
                .packets
                .partial_cmp(&a.est.packets)
                .expect("finite")
                .then(a.key.cmp(&b.key))
        });
        Routed {
            output: QueryOutput::Table(rows),
            route: Route::BySite { relays },
            missing,
            missing_windows: self.window_gaps(&parts, scope),
        }
    }
}

/// A copy of `query` with its scope's site filter replaced (time range
/// untouched) — how the planner maps real-site scopes onto a relay's
/// stored keys.
fn with_scope_sites(query: &Query, sites: Option<Vec<u16>>) -> Query {
    let mut q = query.clone();
    let scope = match &mut q {
        Query::Pop { scope, .. }
        | Query::TopK { scope, .. }
        | Query::Drill { scope, .. }
        | Query::Hhh { scope, .. }
        | Query::BySite { scope, .. } => scope,
    };
    scope.sites = sites;
    q
}
