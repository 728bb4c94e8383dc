//! Property tests pinning `FlowTree::relayout_preorder` as invisible:
//! on trees built every way the system builds them (insert with and
//! without compaction, k-way merge, k-way diff with zero-mass nodes,
//! frozen, decoded, and a collector-style view extended by deltas), the
//! re-laid-out tree encodes to the same bytes, answers every query to
//! the bit, and — as a merge destination under budget pressure — ends
//! in the same encoding as the tree it came from.
//!
//! The suite also pins the slot-order `hhh` and `top_k` to reference
//! definitions that walk the tree through its public API.

use flowkey::{Dim, FlowKey, IpNet, Ipv4Net, PortRange, Proto, Schema, Site, TimeBucket};
use flowtree_core::{Config, Estimator, FlowTree, HhhItem, Metric, PopEst, Popularity};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        (0u8..3, 0u8..4, 0u8..8).prop_map(|(a, b, c)| IpNet::v4_host(Ipv4Addr::new(10, a, b, c))),
        (0u8..3, 0u8..4, 8u8..=32).prop_map(|(a, b, len)| {
            IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, a, b << 6, 1), len).unwrap())
        }),
        Just(IpNet::Any),
    ]
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    let port = (0u16..4, 0u8..=16).prop_map(|(p, plen)| PortRange::new(40_000 + p, plen).unwrap());
    let proto = prop::sample::select(vec![Proto::Any, Proto::TCP, Proto::UDP]);
    let site = prop::sample::select(vec![Site::Any, Site::Is(1), Site::Is(2)]);
    (arb_ip(), arb_ip(), port, proto, site).prop_map(|(src, dst, dport, proto, site)| {
        FlowKey::ROOT
            .with_src(src)
            .with_dst(dst)
            .with_dport(dport)
            .with_proto(proto)
            .with_site(site)
    })
}

fn arb_pop() -> impl Strategy<Value = Popularity> {
    // Few distinct weights: equal-weight eviction candidates are common.
    (1i64..4, 1i64..4).prop_map(|(p, b)| Popularity::new(p, b * 500, 1))
}

type Batch = Vec<(FlowKey, Popularity)>;

fn arb_batches(max: usize) -> impl Strategy<Value = Vec<Batch>> {
    prop::collection::vec(prop::collection::vec((arb_key(), arb_pop()), 0..40), 2..max)
}

/// Every way the system builds a tree it later queries or merges into.
#[derive(Debug, Clone, Copy)]
enum Build {
    Insert,
    Compacted,
    MergeMany,
    DiffMany,
    Frozen,
    Decoded,
    ViewDeltaExtends,
}

const BUILDS: [Build; 7] = [
    Build::Insert,
    Build::Compacted,
    Build::MergeMany,
    Build::DiffMany,
    Build::Frozen,
    Build::Decoded,
    Build::ViewDeltaExtends,
];

fn schema() -> Schema {
    Schema::extended()
}

fn roomy() -> Config {
    Config::with_budget(1_000_000)
}

fn inserted(batch: &[(FlowKey, Popularity)], cfg: Config) -> FlowTree {
    let mut t = FlowTree::new(schema(), cfg);
    for (k, p) in batch {
        t.insert(k, *p);
    }
    t
}

/// A budget of exactly `tree`'s size: building it again under this
/// budget compacts nothing, and anything merged in later does.
fn tight(tree: &FlowTree) -> Config {
    Config::with_budget(tree.len())
}

fn diffed(parts: &[FlowTree]) -> FlowTree {
    // The first part minus the rest: negative masses, and cancelled
    // keys left as zero-mass joins.
    let mut d = parts[0].clone();
    d.diff_many(&parts[1..].iter().collect::<Vec<_>>()).unwrap();
    d
}

fn build(how: Build, batches: &[Batch], budget: usize) -> FlowTree {
    let all: Batch = batches.concat();
    let parts: Vec<FlowTree> = batches.iter().map(|b| inserted(b, roomy())).collect();
    match how {
        Build::Insert => inserted(&all, tight(&inserted(&all, roomy()))),
        Build::Compacted => inserted(&all, Config::with_budget(budget)),
        Build::MergeMany => {
            let refs: Vec<&FlowTree> = parts.iter().collect();
            let mut probe = FlowTree::new(schema(), roomy());
            probe.merge_many(&refs).unwrap();
            let mut t = FlowTree::new(schema(), tight(&probe));
            t.merge_many(&refs).unwrap();
            t
        }
        Build::DiffMany => {
            let cfg = tight(&diffed(&parts));
            let mut parts = parts;
            parts[0] = inserted(&batches[0], cfg);
            diffed(&parts)
        }
        Build::Frozen => {
            let mut t = inserted(&all, Config::with_budget(budget));
            t.shrink_to_fit();
            t
        }
        Build::Decoded => {
            let t = inserted(&all, roomy());
            FlowTree::decode(&t.encode(), tight(&t)).unwrap()
        }
        Build::ViewDeltaExtends => {
            // The collector's merged-view steps: a budgeted k-way build,
            // an extend by one more window, then each later window's
            // change merged in place as a delta, zero masses pruned.
            let mut view = FlowTree::new(schema(), Config::with_budget(budget));
            view.merge_many(&[&parts[0]]).unwrap();
            view.merge_many(&[&parts[1]]).unwrap();
            for pair in parts[1..].windows(2) {
                let delta = FlowTree::diffed(&pair[1], &pair[0]).unwrap();
                view.merge(&delta).unwrap();
                view.prune_zeros();
            }
            view
        }
    }
}

fn relaid(tree: &FlowTree) -> FlowTree {
    let mut r = tree.clone();
    r.relayout_preorder();
    r
}

fn bits(e: PopEst) -> [u64; 3] {
    [e.packets.to_bits(), e.bytes.to_bits(), e.flows.to_bits()]
}

/// A pattern from a key: each dimension widened to the wildcard or
/// halved with the bits of `widen`, so patterns often hold data.
fn pattern(key: &FlowKey, widen: u16) -> FlowKey {
    let mut out = *key;
    for d in Dim::ALL {
        match (widen >> (2 * d.index())) & 3 {
            0 => out = out.dim_ancestor_at(d, 0).unwrap(),
            1 => out = out.dim_ancestor_at(d, out.dim_depth(d) / 2).unwrap(),
            _ => {}
        }
    }
    out
}

/// The deepest refinement along `dim` of this suite's keys.
fn max_depth(dim: Dim) -> u16 {
    match dim {
        Dim::SrcIp | Dim::DstIp => 33,
        Dim::SrcPort | Dim::DstPort => 16,
        Dim::Proto => 1,
        Dim::Time => TimeBucket::MAX_LEVEL as u16,
        Dim::Site => 2,
    }
}

const METRICS: [Metric; 3] = [Metric::Packets, Metric::Bytes, Metric::Flows];

/// Reference `top_k`: every non-root node's subtree popularity, ranked
/// by mass, then depth, then key.
fn reference_top_k(tree: &FlowTree, k: usize, metric: Metric) -> Vec<(FlowKey, Popularity)> {
    let mut rows: Vec<(FlowKey, u32, Popularity)> = tree
        .iter()
        .filter(|n| n.parent.is_some())
        .map(|n| (*n.key, n.depth, tree.subtree_popularity(n.key).unwrap()))
        .collect();
    rows.sort_by(|a, b| {
        (b.2.get(metric), b.1)
            .cmp(&(a.2.get(metric), a.1))
            .then(a.0.cmp(&b.0))
    });
    rows.into_iter()
        .take(k)
        .map(|(key, _, p)| (key, p))
        .collect()
}

/// Reference `hhh`: the definition, recursively down the tree's
/// children — a node's discounted mass is its own plus what its
/// children's subtrees pass up; a heavy hitter passes up nothing.
fn reference_hhh(tree: &FlowTree, phi: f64, metric: Metric) -> Vec<HhhItem> {
    fn walk(
        tree: &FlowTree,
        key: &FlowKey,
        threshold: i64,
        metric: Metric,
        out: &mut Vec<HhhItem>,
    ) -> Popularity {
        let mut disc = tree.comp_of(key).unwrap();
        for child in tree.children_of(key).unwrap() {
            disc += walk(tree, child.key, threshold, metric, out);
        }
        if disc.get(metric) < threshold {
            return disc;
        }
        out.push(HhhItem {
            key: *key,
            discounted: disc,
            subtree: tree.subtree_popularity(key).unwrap(),
        });
        Popularity::ZERO
    }
    let threshold = (phi * tree.total().get(metric).max(0) as f64).ceil() as i64;
    let mut out = Vec::new();
    if threshold > 0 {
        walk(tree, &tree.schema().root(), threshold, metric, &mut out);
    }
    out.sort_by(|a, b| {
        b.discounted
            .get(metric)
            .cmp(&a.discounted.get(metric))
            .then(a.key.cmp(&b.key))
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Relayout changes no byte, no answer and no merge outcome.
    #[test]
    fn relayout_is_invisible(
        batches in arb_batches(5),
        further in arb_batches(4),
        budget in 16usize..64,
        probes in prop::collection::vec((arb_key(), any::<u16>()), 6),
        dim in prop::sample::select(Dim::ALL.to_vec()),
    ) {
        let sources: Vec<FlowTree> = further.iter().map(|b| inserted(b, roomy())).collect();
        let sources: Vec<&FlowTree> = sources.iter().collect();
        for how in BUILDS {
            let mut tree = build(how, &batches, budget);
            let mut r = relaid(&tree);
            r.validate();
            prop_assert_eq!(r.encode(), tree.encode(), "{:?}: encoding", how);
            prop_assert_eq!(r.stats(), tree.stats(), "{:?}: stats", how);

            for estimator in [Estimator::Uniform, Estimator::Optimistic, Estimator::Conservative] {
                tree.set_estimator(estimator);
                r.set_estimator(estimator);
                for (key, widen) in &probes {
                    let p = pattern(key, *widen);
                    prop_assert_eq!(
                        bits(r.estimate_pattern(&p)),
                        bits(tree.estimate_pattern(&p)),
                        "{:?} {:?}: pattern {}", how, estimator, p
                    );
                    let depth = (p.dim_depth(dim) + 1 + (*widen >> 14) % 4).min(max_depth(dim));
                    let (rs, rrows) = r.estimate_refinements(&p, dim, depth);
                    let (ts, trows) = tree.estimate_refinements(&p, dim, depth);
                    prop_assert_eq!(bits(rs), bits(ts), "{:?}: scope {}", how, p);
                    let rrows: Vec<_> = rrows.into_iter().map(|(k, e)| (k, bits(e))).collect();
                    let trows: Vec<_> = trows.into_iter().map(|(k, e)| (k, bits(e))).collect();
                    prop_assert_eq!(rrows, trows, "{:?}: refinements of {} along {:?}", how, p, dim);
                }
            }
            for metric in METRICS {
                for phi in [0.0, 0.01, 0.1, 0.5] {
                    prop_assert_eq!(r.hhh(phi, metric), tree.hhh(phi, metric), "{:?}: hhh {}", how, phi);
                }
                for k in [1, 5, 1_000] {
                    prop_assert_eq!(r.top_k(k, metric), tree.top_k(k, metric), "{:?}: top {}", how, k);
                }
            }

            // Merge destination under budget pressure: one k-way pass,
            // then one source at a time (a compaction per merge).
            let (mut a, mut b) = (tree.clone(), r.clone());
            a.merge_many(&sources).unwrap();
            b.merge_many(&sources).unwrap();
            prop_assert_eq!(b.encode(), a.encode(), "{:?}: merge_many into", how);
            prop_assert_eq!(b.stats(), a.stats(), "{:?}: merge_many stats", how);
            let (mut a, mut b) = (tree.clone(), r.clone());
            for s in &sources {
                a.merge(s).unwrap();
                b.merge(s).unwrap();
                prop_assert_eq!(b.encode(), a.encode(), "{:?}: merge into", how);
            }
            b.validate();
            prop_assert!(
                tree.stats().compactions > 0 || a.stats().compactions > tree.stats().compactions,
                "{:?}: the merges must compact", how
            );
        }
    }

    /// The slot-order `hhh` and `top_k` equal their definitions, on
    /// scattered and on re-laid-out arenas.
    #[test]
    fn hhh_and_top_k_match_their_definitions(
        batches in arb_batches(5),
        budget in 16usize..64,
    ) {
        for how in BUILDS {
            let tree = build(how, &batches, budget);
            for t in [&tree, &relaid(&tree)] {
                for metric in METRICS {
                    for phi in [0.0, 0.01, 0.05, 0.2, 0.5] {
                        prop_assert_eq!(
                            t.hhh(phi, metric),
                            reference_hhh(t, phi, metric),
                            "{:?} {:?}: hhh {}", how, metric, phi
                        );
                    }
                    for k in [1, 3, 10, 1_000] {
                        prop_assert_eq!(
                            t.top_k(k, metric),
                            reference_top_k(t, k, metric),
                            "{:?} {:?}: top {}", how, metric, k
                        );
                    }
                }
            }
        }
    }
}
