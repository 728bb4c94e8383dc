//! Property tests pinning the one-walk refinement estimator to the
//! per-pattern walk: `estimate_refinements` must find exactly the
//! candidates a scan of every retained node derives, and every estimate
//! it returns must be **bit-identical** to `estimate_pattern` of the
//! same key — on trees built every way the system builds them (insert,
//! compaction, k-way merge, k-way diff with negative masses, frozen
//! arenas, decoded frames with zero-mass pass-through nodes), for every
//! dimension and all three estimators.

use flowkey::{
    DepthProfile, Dim, FlowKey, IpNet, Ipv4Net, Ipv6Net, PortRange, Proto, Schema, Site, TimeBucket,
};
use flowtree_core::{Config, Estimator, FlowTree, PopEst, Popularity};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_ip() -> impl Strategy<Value = IpNet> {
    // Hosts and prefixes of every length in both families, plus the
    // wildcard: refinements from `Any` mix v4 and v6 candidates.
    prop_oneof![
        (0u8..3, 0u8..4, 0u8..6).prop_map(|(a, b, c)| IpNet::v4_host(Ipv4Addr::new(10, a, b, c))),
        (0u8..3, 0u8..4, 0u8..=32).prop_map(|(a, b, len)| {
            IpNet::V4(Ipv4Net::new(Ipv4Addr::new(10, a, b << 6, 1), len).unwrap())
        }),
        (0u16..3, 0u16..4)
            .prop_map(|(a, h)| IpNet::v6_host(Ipv6Addr::new(0x2001, 0xdb8, a, 0, 0, 0, 0, h))),
        (0u16..3, 0u8..=128).prop_map(|(a, len)| {
            let addr = Ipv6Addr::new(0x2001, 0xdb8, a, 0, 0, 0, 0, 1);
            IpNet::V6(Ipv6Net::new(addr, len).unwrap())
        }),
        Just(IpNet::Any),
    ]
}

fn arb_port() -> impl Strategy<Value = PortRange> {
    (0u16..4, 0u8..=16).prop_map(|(p, plen)| PortRange::new(40_000 + p, plen).unwrap())
}

fn arb_key() -> impl Strategy<Value = FlowKey> {
    let proto = prop::sample::select(vec![Proto::Any, Proto::TCP, Proto::UDP]);
    let time = (0u64..8, 0u8..=TimeBucket::MAX_LEVEL)
        .prop_map(|(s, level)| TimeBucket::new(1_700_000_000 + s * 7, level).unwrap());
    let site = prop::sample::select(vec![
        Site::Any,
        Site::Region(0),
        Site::Region(1),
        Site::Is(1),
        Site::Is(2),
        Site::Is(257),
    ]);
    (
        arb_ip(),
        arb_ip(),
        arb_port(),
        arb_port(),
        proto,
        time,
        site,
    )
        .prop_map(|(src, dst, sport, dport, proto, time, site)| FlowKey {
            src,
            dst,
            sport,
            dport,
            proto,
            time,
            site,
        })
}

fn arb_pop() -> impl Strategy<Value = Popularity> {
    (1i64..40, 1i64..1500).prop_map(|(p, b)| Popularity::new(p, b, 1))
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<(FlowKey, Popularity)>>> {
    prop::collection::vec(prop::collection::vec((arb_key(), arb_pop()), 0..50), 1..4)
}

/// A refinement question: a scope (the random key with each dimension
/// widened to the wildcard with probability 3/4, so scopes often hold
/// data), a dimension, and how many levels below the scope to refine.
fn arb_question() -> impl Strategy<Value = (FlowKey, Dim, u16)> {
    (
        arb_key(),
        any::<u8>(),
        any::<u8>(),
        prop::sample::select(Dim::ALL.to_vec()),
        0u16..=9,
    )
        .prop_map(|(key, w1, w2, dim, step)| {
            let mut under = key;
            for d in Dim::ALL {
                if (w1 | w2) & (1 << d.index()) != 0 {
                    under = under.dim_ancestor_at(d, 0).unwrap();
                }
            }
            let max = match (dim, under.src, under.dst) {
                (Dim::SrcIp, IpNet::V6(_), _) | (Dim::DstIp, _, IpNet::V6(_)) => 129,
                (Dim::SrcIp | Dim::DstIp, _, _) => 33,
                (Dim::SrcPort | Dim::DstPort, _, _) => 16,
                (Dim::Proto, _, _) => 1,
                (Dim::Time, _, _) => TimeBucket::MAX_LEVEL as u16,
                (Dim::Site, _, _) => 2,
            };
            let depth = (under.dim_depth(dim) + step).min(max);
            (under, dim, depth)
        })
}

/// Every way the system builds a tree it later queries.
#[derive(Debug, Clone, Copy)]
enum Build {
    Insert,
    Compacted,
    MergeMany,
    DiffMany,
    Frozen,
    Decoded,
    DecodedDiff,
}

const BUILDS: [Build; 7] = [
    Build::Insert,
    Build::Compacted,
    Build::MergeMany,
    Build::DiffMany,
    Build::Frozen,
    Build::Decoded,
    Build::DecodedDiff,
];

fn roomy() -> Config {
    Config::with_budget(1_000_000)
}

fn inserted(batch: &[(FlowKey, Popularity)], cfg: Config) -> FlowTree {
    let mut t = FlowTree::new(Schema::extended(), cfg);
    for (k, p) in batch {
        t.insert(k, *p);
    }
    t
}

fn build(how: Build, batches: &[Vec<(FlowKey, Popularity)>], budget: usize) -> FlowTree {
    let all: Vec<(FlowKey, Popularity)> = batches.concat();
    let parts: Vec<FlowTree> = batches.iter().map(|b| inserted(b, roomy())).collect();
    let diffed = || {
        // The first batch minus the rest: negative masses, and
        // cancelled keys left as zero-mass joins.
        let mut d = parts[0].clone();
        let rest: Vec<&FlowTree> = parts[1..].iter().collect();
        d.diff_many(&rest).unwrap();
        d
    };
    match how {
        Build::Insert => inserted(&all, roomy()),
        Build::Compacted => inserted(&all, Config::with_budget(budget)),
        Build::MergeMany => {
            let mut t = FlowTree::new(Schema::extended(), roomy());
            t.merge_many(&parts.iter().collect::<Vec<_>>()).unwrap();
            t
        }
        Build::DiffMany => diffed(),
        Build::Frozen => {
            let mut t = inserted(&all, Config::with_budget(budget));
            t.shrink_to_fit();
            t
        }
        Build::Decoded => FlowTree::decode(&inserted(&all, roomy()).encode(), roomy()).unwrap(),
        Build::DecodedDiff => {
            // A raw diff shipped as a frame decodes with zero-mass
            // pass-through nodes.
            let mut d = parts[0].clone();
            for p in &parts[1..] {
                d.diff(p).unwrap();
            }
            FlowTree::decode(&d.encode(), roomy()).unwrap()
        }
    }
}

fn with_feature(under: &FlowKey, dim: Dim, from: &FlowKey) -> FlowKey {
    let mut out = *under;
    match dim {
        Dim::SrcIp => out.src = from.src,
        Dim::DstIp => out.dst = from.dst,
        Dim::SrcPort => out.sport = from.sport,
        Dim::DstPort => out.dport = from.dport,
        Dim::Proto => out.proto = from.proto,
        Dim::Time => out.time = from.time,
        Dim::Site => out.site = from.site,
    }
    out
}

/// The candidates, derived the slow way: every retained node inside
/// `under` that is deep enough along `dim`, projected to `depth`.
fn scanned_candidates(tree: &FlowTree, under: &FlowKey, dim: Dim, depth: u16) -> Vec<FlowKey> {
    let set: BTreeSet<FlowKey> = tree
        .iter()
        .filter(|n| under.contains(n.key) && n.key.dim_depth(dim) >= depth)
        .map(|n| with_feature(under, dim, &n.key.dim_ancestor_at(dim, depth).unwrap()))
        .collect();
    set.into_iter().collect()
}

fn bits(e: PopEst) -> [u64; 3] {
    [e.packets.to_bits(), e.bytes.to_bits(), e.flows.to_bits()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One walk ≡ one `estimate_pattern` per candidate, to the bit, and
    /// the candidate set ≡ the full scan's.
    #[test]
    fn refinements_match_per_pattern_walks(
        batches in arb_batches(),
        budget in 16usize..64,
        questions in prop::collection::vec(arb_question(), 6),
    ) {
        for how in BUILDS {
            let mut tree = build(how, &batches, budget);
            for estimator in [Estimator::Uniform, Estimator::Optimistic, Estimator::Conservative] {
                tree.set_estimator(estimator);
                for (under, dim, depth) in &questions {
                    let (scope, rows) = tree.estimate_refinements(under, *dim, *depth);
                    let keys: Vec<FlowKey> = rows.iter().map(|(k, _)| *k).collect();
                    prop_assert_eq!(
                        &keys,
                        &scanned_candidates(&tree, under, *dim, *depth),
                        "{:?} {:?}: candidates of {} along {:?} at {}",
                        how, estimator, under, dim, depth
                    );
                    prop_assert_eq!(
                        bits(scope),
                        bits(tree.estimate_pattern(under)),
                        "{:?} {:?}: scope {}", how, estimator, under
                    );
                    for (key, est) in &rows {
                        prop_assert_eq!(
                            bits(*est),
                            bits(tree.estimate_pattern(key)),
                            "{:?} {:?}: candidate {} of {}", how, estimator, key, under
                        );
                    }
                }
            }
        }
    }

    /// The wildcard pattern is answered from the running total, which
    /// equals the sum of every retained node's complementary mass.
    #[test]
    fn root_estimate_is_the_sum_of_all_masses(
        batches in arb_batches(),
        budget in 16usize..64,
    ) {
        for how in BUILDS {
            let tree = build(how, &batches, budget);
            let sum: Popularity = tree.iter().map(|n| n.comp).sum();
            prop_assert_eq!(
                bits(tree.estimate_pattern(&FlowKey::ROOT)),
                bits(PopEst::from(sum)),
                "{:?}", how
            );
        }
    }

    /// The profile form of the uniform share's exponent equals the space
    /// between a node and its meet with an overlapping pattern.
    #[test]
    fn profile_bits_equal_space_to_the_meet(
        node in arb_key(),
        pattern in arb_key(),
        widen_node in any::<u8>(),
        widen_pattern in any::<u8>(),
    ) {
        // Widening the same key two ways gives overlapping pairs;
        // the independent pair covers disjoint and crossing shapes.
        let widen = |key: &FlowKey, mask: u8| {
            let mut out = *key;
            for d in Dim::ALL {
                if mask & (1 << d.index()) != 0 {
                    let keep = out.dim_depth(d) / 2;
                    out = out.dim_ancestor_at(d, keep).unwrap();
                }
            }
            out
        };
        let pairs = [
            (widen(&node, widen_node), widen(&node, widen_pattern)),
            (node, pattern),
        ];
        for schema in [Schema::five_feature(), Schema::extended(), Schema::two_feature()] {
            for (a, b) in &pairs {
                let Some(meet) = a.meet(b) else { continue };
                prop_assert_eq!(
                    schema.log2_space_between_profiles(&DepthProfile::of(a), &DepthProfile::of(b)),
                    schema.log2_space_between(a, &meet),
                    "{} vs {}", a, b
                );
            }
        }
    }
}
