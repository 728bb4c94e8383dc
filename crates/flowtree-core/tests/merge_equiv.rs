//! Property tests pinning the structural merge paths to the
//! element-wise reference loop: `merge`, `merge_many`, and any merge
//! order must produce **byte-identical wire encodings** (and therefore
//! identical estimates) whenever compaction stays out of play —
//! including diff trees carrying negative masses and decoded trees
//! carrying zero-mass pass-through nodes.

use flowkey::{FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Popularity};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = FlowKey> {
    // Mixed shapes on purpose: full 5-tuples, bare prefixes of varying
    // length, and v6 — so merges exercise splices, joins and descents
    // across shapes.
    prop_oneof![
        (0u8..4, 0u8..6, 0u8..32, 0u8..3, 1u16..5).prop_map(|(a, b, c, d, p)| format!(
            "src=10.{a}.{b}.{c}/32 dst=192.0.2.{d}/32 sport={} dport=443 proto=tcp",
            40_000 + p
        )
        .parse()
        .unwrap()),
        (0u8..4, 8u8..=24)
            .prop_map(|(a, len)| { format!("src={}.0.0.0/{len}", 10 + a).parse().unwrap() }),
        (0u8..6, 0u8..3).prop_map(|(h, d)| format!(
            "src=2001:db8::{h:x}/128 dst=192.0.2.{d}/32 proto=udp"
        )
        .parse()
        .unwrap()),
        (0u8..8, 1u16..4).prop_map(|(c, p)| format!("src=10.0.0.{c}/32 dport={}", 50 + p)
            .parse()
            .unwrap()),
    ]
}

fn arb_pop() -> impl Strategy<Value = Popularity> {
    (1i64..40, 1i64..1500).prop_map(|(p, b)| Popularity::new(p, b, 1))
}

fn arb_inserts() -> impl Strategy<Value = Vec<(FlowKey, Popularity)>> {
    proptest::collection::vec((arb_key(), arb_pop()), 0..120)
}

/// Room for everything: no compaction anywhere.
const CFG: fn() -> Config = || Config::with_budget(1_000_000);

fn build(schema: Schema, inserts: &[(FlowKey, Popularity)]) -> FlowTree {
    let mut t = FlowTree::new(schema, CFG());
    for (k, p) in inserts {
        t.insert(k, *p);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pairwise structural merge ≡ element-wise reference, bytes and
    /// all.
    #[test]
    fn structural_merge_matches_elementwise(
        a in arb_inserts(),
        b in arb_inserts(),
    ) {
        let schema = Schema::five_feature();
        let (ta, tb) = (build(schema, &a), build(schema, &b));
        let mut structural = ta.clone();
        structural.merge(&tb).unwrap();
        structural.validate();
        let mut reference = ta.clone();
        reference.merge_elementwise(&tb).unwrap();
        prop_assert_eq!(structural.total(), reference.total());
        prop_assert_eq!(structural.encode(), reference.encode());
    }

    /// One k-way pass ≡ the sequential element-wise fold, regardless of
    /// how many trees and in any order.
    #[test]
    fn merge_many_matches_sequential_fold(
        batches in proptest::collection::vec(arb_inserts(), 0..6),
    ) {
        let schema = Schema::five_feature();
        let trees: Vec<FlowTree> = batches.iter().map(|b| build(schema, b)).collect();
        let refs: Vec<&FlowTree> = trees.iter().collect();

        let mut kway = FlowTree::new(schema, CFG());
        kway.merge_many(&refs).unwrap();
        kway.validate();

        let mut reference = FlowTree::new(schema, CFG());
        for t in &trees {
            reference.merge_elementwise(t).unwrap();
        }
        prop_assert_eq!(kway.total(), reference.total());
        prop_assert_eq!(kway.encode(), reference.encode());

        // Order independence: merging in reverse gives the same bytes.
        let mut rev = FlowTree::new(schema, CFG());
        let back: Vec<&FlowTree> = trees.iter().rev().collect();
        rev.merge_many(&back).unwrap();
        prop_assert_eq!(rev.encode(), kway.encode());
    }

    /// Diff trees — negative masses, zero-cancelled nodes, and (after a
    /// wire roundtrip) zero-mass pass-through nodes — merge identically
    /// through the structural and element-wise paths.
    #[test]
    fn diff_trees_merge_identically(
        a in arb_inserts(),
        b in arb_inserts(),
        base in arb_inserts(),
    ) {
        let schema = Schema::five_feature();
        let (ta, tb) = (build(schema, &a), build(schema, &b));
        // A raw diff, *without* pruning zero-mass leaves: roundtrip it
        // through the codec the way a delta summary ships, so the
        // merge input legitimately contains zero-mass nodes.
        let mut diff = ta.clone();
        diff.diff(&tb).unwrap();
        let diff = FlowTree::decode(&diff.encode(), CFG()).unwrap();

        let tbase = build(schema, &base);
        let mut structural = tbase.clone();
        structural.merge(&diff).unwrap();
        structural.validate();
        let mut reference = tbase.clone();
        reference.merge_elementwise(&diff).unwrap();
        prop_assert_eq!(structural.total(), reference.total());
        prop_assert_eq!(structural.encode(), reference.encode());
    }

    /// The wire encoding is canonical: any insertion order of the same
    /// mass multiset produces identical bytes, and `encoded_size`
    /// predicts them exactly.
    #[test]
    fn encoding_is_canonical_and_size_exact(
        inserts in arb_inserts(),
        seed in 0u64..u64::MAX,
    ) {
        let schema = Schema::five_feature();
        let forward = build(schema, &inserts);
        // A deterministic shuffle of the same inserts.
        let mut shuffled = inserts.clone();
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (s >> 33) as usize % (i + 1));
        }
        let other = build(schema, &shuffled);
        let bytes = forward.encode();
        prop_assert_eq!(&bytes, &other.encode());
        prop_assert_eq!(forward.encoded_size(), bytes.len());

        // And decoding those bytes re-derives the same canonical tree.
        let back = FlowTree::decode(&bytes, CFG()).unwrap();
        back.validate();
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Structural diff ≡ the element-wise diff loop, bytes and all —
    /// overlapping keys cancel to zero and prune, disjoint keys appear
    /// with negative mass, either way the encodings must agree.
    #[test]
    fn structural_diff_matches_elementwise(
        a in arb_inserts(),
        b in arb_inserts(),
    ) {
        let schema = Schema::five_feature();
        let (ta, tb) = (build(schema, &a), build(schema, &b));
        let mut structural = ta.clone();
        structural.diff(&tb).unwrap();
        structural.validate();
        let mut reference = ta.clone();
        reference.diff_elementwise(&tb).unwrap();
        prop_assert_eq!(structural.total(), reference.total());
        prop_assert_eq!(structural.encode(), reference.encode());
    }

    /// One k-way diff pass ≡ the sequential element-wise fold (each
    /// step pruning its own zeros), regardless of how many subtrahends.
    #[test]
    fn diff_many_matches_sequential_elementwise_diffs(
        base in arb_inserts(),
        batches in proptest::collection::vec(arb_inserts(), 0..4),
    ) {
        let schema = Schema::five_feature();
        let tbase = build(schema, &base);
        let trees: Vec<FlowTree> = batches.iter().map(|b| build(schema, b)).collect();
        let refs: Vec<&FlowTree> = trees.iter().collect();

        let mut kway = tbase.clone();
        kway.diff_many(&refs).unwrap();
        kway.validate();

        let mut reference = tbase.clone();
        for t in &trees {
            reference.diff_elementwise(t).unwrap();
        }
        prop_assert_eq!(kway.total(), reference.total());
        prop_assert_eq!(kway.encode(), reference.encode());
    }

    /// A diff that subtracts the tree from itself cancels completely.
    #[test]
    fn self_diff_cancels(inserts in arb_inserts()) {
        let schema = Schema::five_feature();
        let t = build(schema, &inserts);
        let mut d = t.clone();
        d.diff(&t).unwrap();
        d.validate();
        prop_assert!(d.total().is_zero());
        // Nothing but the root survives the prune.
        prop_assert!(d.len() <= 1, "{} live nodes after self-diff", d.len());
    }

    /// Merging a tree into an empty one is a faithful copy (the k-way
    /// fold's first step), modulo zero-mass filtering the element-wise
    /// loop also applies.
    #[test]
    fn merge_into_empty_copies(inserts in arb_inserts()) {
        let schema = Schema::five_feature();
        let t = build(schema, &inserts);
        let mut out = FlowTree::new(schema, CFG());
        out.merge(&t).unwrap();
        out.validate();
        let mut reference = FlowTree::new(schema, CFG());
        reference.merge_elementwise(&t).unwrap();
        prop_assert_eq!(out.encode(), reference.encode());
    }
}

/// Estimates agree too (a consequence of byte identity, pinned once
/// explicitly for the query path's sake).
#[test]
fn merged_estimates_agree() {
    let schema = Schema::five_feature();
    let mk = |lo: u8, hi: u8| {
        let mut t = FlowTree::new(schema, Config::with_budget(100_000));
        for h in lo..hi {
            let k: FlowKey = format!(
                "src=10.0.{}.{}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp",
                h % 4,
                h
            )
            .parse()
            .unwrap();
            t.insert(&k, Popularity::new(h as i64 + 1, 100, 1));
        }
        t
    };
    let (a, b, c) = (mk(0, 60), mk(30, 90), mk(45, 120));
    let mut kway = FlowTree::new(schema, Config::with_budget(100_000));
    kway.merge_many(&[&a, &b, &c]).unwrap();
    let mut reference = FlowTree::new(schema, Config::with_budget(100_000));
    for t in [&a, &b, &c] {
        reference.merge_elementwise(t).unwrap();
    }
    for pat in [
        "src=10.0.0.0/8",
        "src=10.0.2.0/24",
        "dst=192.0.2.0/24",
        "dport=443",
    ] {
        let p: FlowKey = pat.parse().unwrap();
        assert_eq!(
            kway.estimate_pattern(&p),
            reference.estimate_pattern(&p),
            "estimate for {pat}"
        );
    }
}

/// A k-way merge whose inputs dwarf the budget compacts **between**
/// sources: transient memory is bounded by the high-water mark plus
/// one source, not by the total input size, and mass is conserved.
#[test]
fn merge_many_compacts_at_the_high_water_mark_between_sources() {
    let schema = Schema::five_feature();
    let mk = |s: u8| {
        // Disjoint populations per source: every merge is pure growth.
        let mut t = FlowTree::new(schema, Config::with_budget(100_000));
        for h in 0..200u8 {
            let k: FlowKey = format!(
                "src=10.{s}.{}.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp",
                h % 4
            )
            .parse()
            .unwrap();
            t.insert(&k, Popularity::new(1, 100, 1));
        }
        t
    };
    let sources: Vec<FlowTree> = (0..16).map(mk).collect();
    let refs: Vec<&FlowTree> = sources.iter().collect();
    let total: Popularity = sources.iter().map(|t| t.total()).sum();

    let budget = 256usize;
    let mut bounded = FlowTree::new(schema, Config::with_budget(budget));
    bounded.merge_many(&refs).unwrap();
    bounded.validate();
    assert_eq!(bounded.total(), total, "compaction conserves mass");
    assert!(bounded.len() <= budget);
    // 16 × ~600 input nodes against a 1024-node high-water mark: the
    // pass must have compacted repeatedly *during* the fold, not once
    // at the end.
    let mid_pass_floor = (sources.len() * 600) / (budget * FlowTree::MERGE_HIGH_WATER_FACTOR) / 2;
    assert!(
        bounded.stats().compactions as usize >= mid_pass_floor.max(2),
        "{} compactions for a {}-source over-budget fold",
        bounded.stats().compactions,
        sources.len()
    );

    // Under the mark nothing changes: one no-compaction pass stays
    // byte-identical to the element-wise reference.
    let mut roomy = FlowTree::new(schema, Config::with_budget(100_000));
    roomy.merge_many(&refs).unwrap();
    let mut reference = FlowTree::new(schema, Config::with_budget(100_000));
    for t in &sources {
        reference.merge_elementwise(t).unwrap();
    }
    assert_eq!(roomy.encode(), reference.encode());
    assert_eq!(roomy.stats().compactions, 0);
}
