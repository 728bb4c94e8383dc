//! Property tests pinning a **frozen** tree ([`FlowTree::shrink_to_fit`])
//! to its unfrozen twin: freezing renumbers the arena and drops the
//! key index, and none of that may be observable — not in the wire
//! bytes, not in query answers, not as a merge/diff source, and not
//! after the tree thaws again as a merge/diff destination. Histories
//! run under a roomy budget and under a tight one, so both the
//! no-free-list path and the arena squeeze (dead slots from compaction
//! and pruning) are exercised.
//!
//! The last check is wider: equal bytes mean equal behaviour. Every
//! twin of one encoding — thawed, frozen, decoded and re-laid out —
//! leaves a destination in the same state as a merge/diff source,
//! under a budget tight enough, and weights equal enough, that
//! compaction breaks ties by the stamps the source's visit order gave.

use flowkey::{FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Metric, Popularity};
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = FlowKey> {
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
    ]
}

fn arb_inserts() -> impl Strategy<Value = Vec<(FlowKey, Popularity)>> {
    let pop = (1i64..40, 1i64..1500).prop_map(|(p, b)| Popularity::new(p, b, 1));
    proptest::collection::vec((arb_key(), pop), 0..80)
}

/// One step of a tree's history; the batch is inserted directly or
/// built into a second tree that is merged in / diffed out.
#[derive(Debug, Clone)]
enum Op {
    Insert,
    Merge,
    Diff,
    Compact,
}

fn arb_history() -> impl Strategy<Value = Vec<(Op, Vec<(FlowKey, Popularity)>)>> {
    let op = prop_oneof![
        Just(Op::Insert),
        Just(Op::Insert),
        Just(Op::Merge),
        Just(Op::Diff),
        Just(Op::Compact),
    ];
    proptest::collection::vec((op, arb_inserts()), 1..6)
}

fn build(cfg: Config, inserts: &[(FlowKey, Popularity)]) -> FlowTree {
    let mut t = FlowTree::new(Schema::five_feature(), cfg);
    t.insert_batch(inserts);
    t
}

fn replay(cfg: Config, history: &[(Op, Vec<(FlowKey, Popularity)>)]) -> FlowTree {
    let mut t = FlowTree::new(Schema::five_feature(), cfg);
    for (op, batch) in history {
        match op {
            Op::Insert => t.insert_batch(batch),
            Op::Merge => t.merge(&build(cfg, batch)).unwrap(),
            Op::Diff => t.diff(&build(cfg, batch)).unwrap(),
            Op::Compact => t.compact(),
        }
    }
    t
}

fn frozen(t: &FlowTree) -> FlowTree {
    let mut f = t.clone();
    f.shrink_to_fit();
    f
}

fn relaid(t: &FlowTree) -> FlowTree {
    let mut r = t.clone();
    r.relayout_preorder();
    r
}

/// `batch` with every weight the same.
fn flat(batch: &[(FlowKey, Popularity)]) -> Vec<(FlowKey, Popularity)> {
    batch
        .iter()
        .map(|(k, _)| (*k, Popularity::new(1, 100, 1)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frozen_tree_is_indistinguishable_from_its_twin(
        history in arb_history(),
        other in arb_inserts(),
        tight in any::<bool>(),
        ties in arb_inserts(),
    ) {
        // Tight: histories compact, so the twin carries dead slots and
        // a free list and freezing has an arena to squeeze.
        let cfg = Config::with_budget(if tight { 48 } else { 1_000_000 });
        let twin = replay(cfg, &history);
        let ice = frozen(&twin);

        // Whole-tree reads never need the index.
        prop_assert_eq!(ice.len(), twin.len());
        prop_assert_eq!(ice.total(), twin.total());
        prop_assert_eq!(ice.encode(), twin.encode());
        prop_assert_eq!(ice.encoded_size(), twin.encoded_size());
        for metric in [Metric::Packets, Metric::Bytes] {
            prop_assert_eq!(ice.hhh(0.02, metric), twin.hhh(0.02, metric));
            prop_assert_eq!(ice.top_k(10, metric), twin.top_k(10, metric));
        }

        // A clone of a frozen tree is the same tree (the allocation
        // test pins that it is also still frozen).
        let copy = ice.clone();
        prop_assert_eq!(copy.encode(), twin.encode());

        // As a merge / diff source, alone and beside a thawed tree.
        let side = build(cfg, &other);
        for (a, b) in [(&ice, &twin), (&copy, &twin)] {
            let (mut via_ice, mut via_twin) = (side.clone(), side.clone());
            via_ice.merge_many(&[a, &side]).unwrap();
            via_twin.merge_many(&[b, &side]).unwrap();
            prop_assert_eq!(via_ice.encode(), via_twin.encode());
            let (mut via_ice, mut via_twin) = (side.clone(), side.clone());
            via_ice.diff_many(&[a]).unwrap();
            via_twin.diff_many(&[b]).unwrap();
            prop_assert_eq!(via_ice.encode(), via_twin.encode());
        }

        // Point lookups thaw through `&self`; present and absent keys.
        for (key, _) in history.iter().flat_map(|(_, b)| b).chain(&other) {
            prop_assert_eq!(ice.popularity(key), twin.popularity(key));
            prop_assert_eq!(ice.comp_of(key), twin.comp_of(key));
        }
        ice.validate();

        // As a destination: thaw → merge / diff / insert → same bytes,
        // compaction under the tight budget included.
        let (mut dst, mut reference) = (frozen(&twin), twin.clone());
        dst.merge(&side).unwrap();
        reference.merge(&side).unwrap();
        dst.validate();
        prop_assert_eq!(dst.encode(), reference.encode());

        let (mut dst, mut reference) = (frozen(&twin), twin.clone());
        dst.diff(&side).unwrap();
        reference.diff(&side).unwrap();
        dst.validate();
        prop_assert_eq!(dst.encode(), reference.encode());

        let (mut dst, mut reference) = (frozen(&twin), twin.clone());
        dst.insert_batch(&other);
        reference.insert_batch(&other);
        dst.validate();
        prop_assert_eq!(dst.encode(), reference.encode());

        // Freezing twice, or freezing what thawed, changes nothing.
        dst.shrink_to_fit();
        dst.shrink_to_fit();
        prop_assert_eq!(dst.encode(), reference.encode());

        // Equal bytes, equal behaviour: the same history at equal
        // weights under budget 48, and its twins beside a thawed side
        // tree as merge_many / diff_many sources.
        let cfg = Config::with_budget(48);
        let thawed = replay(
            cfg,
            &history
                .iter()
                .map(|(op, b)| (op.clone(), flat(b)))
                .collect::<Vec<_>>(),
        );
        let side = build(cfg, &flat(&ties));
        let decoded = FlowTree::decode(&thawed.encode(), cfg).unwrap();
        let twins = [
            ("frozen", frozen(&thawed)),
            ("decoded", decoded),
            ("relaid out", relaid(&thawed)),
        ];
        let via = |src: &FlowTree| {
            let (mut merged, mut diffed) = (side.clone(), side.clone());
            merged.merge_many(&[src, &side]).unwrap();
            diffed.diff_many(&[src]).unwrap();
            merged.validate();
            diffed.validate();
            (merged.encode(), diffed.encode())
        };
        let want = via(&thawed);
        for (name, twin) in &twins {
            prop_assert_eq!(twin.encode(), thawed.encode());
            prop_assert!(via(twin) == want, "thawed vs {} source", name);
        }
    }
}
