//! Regression tests for the batch and pre-hashed insert entry points:
//! they must be observationally identical to repeated `insert`.

use flowkey::{FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Popularity};
use proptest::prelude::*;

/// Sorted `(key, comp, parent)` content snapshot — structure and
/// masses, independent of arena layout.
fn masses(tree: &FlowTree) -> Vec<(FlowKey, Popularity, Option<FlowKey>)> {
    let mut out: Vec<_> = tree
        .iter()
        .map(|v| (*v.key, v.comp, v.parent.copied()))
        .collect();
    out.sort_by_key(|(k, _, _)| *k);
    out
}

fn arb_host_key() -> impl Strategy<Value = FlowKey> {
    (0u8..4, 0u8..8, 0u8..32, 0u8..2, 1u16..6).prop_map(|(a, b, c, d, port)| {
        format!(
            "src=10.{a}.{b}.{c}/32 dst=192.0.2.{d}/32 sport={} dport=443",
            40000 + port
        )
        .parse()
        .unwrap()
    })
}

fn arb_any_key() -> impl Strategy<Value = FlowKey> {
    (arb_host_key(), 0u32..40).prop_map(|(k, up)| {
        let schema = Schema::four_feature();
        let depth = schema.depth(&k);
        schema.chain_ancestor(&k, depth.saturating_sub(up))
    })
}

fn arb_pop() -> impl Strategy<Value = Popularity> {
    (1i64..100, 1i64..5000).prop_map(|(p, b)| Popularity::new(p, b, 1))
}

proptest! {
    /// Without compaction in play, `insert_batch` produces exactly the
    /// tree of repeated `insert`: same node set, same parents, same
    /// complementary masses (the retained set is closed under pairwise
    /// chain joins, which is insertion-order independent).
    #[test]
    fn insert_batch_matches_repeated_insert_exactly(
        inserts in proptest::collection::vec((arb_any_key(), arb_pop()), 1..300),
    ) {
        let schema = Schema::four_feature();
        let cfg = Config::with_budget(1_000_000);
        let mut one_by_one = FlowTree::new(schema, cfg);
        for (k, p) in &inserts {
            one_by_one.insert(k, *p);
        }
        let mut batched = FlowTree::new(schema, cfg);
        batched.insert_batch(&inserts);
        batched.validate();
        prop_assert_eq!(batched.total(), one_by_one.total());
        prop_assert_eq!(masses(&batched), masses(&one_by_one));
    }

    /// Under budget pressure the batch path may compact at different
    /// points, but mass conservation, the budget bound, and structural
    /// invariants all still hold.
    #[test]
    fn insert_batch_under_pressure_conserves(
        inserts in proptest::collection::vec((arb_any_key(), arb_pop()), 1..400),
        budget in 16usize..96,
    ) {
        let schema = Schema::four_feature();
        let mut batched = FlowTree::new(schema, Config::with_budget(budget));
        batched.insert_batch(&inserts);
        batched.validate();
        let expect = inserts
            .iter()
            .fold(Popularity::ZERO, |acc, (_, p)| acc + *p);
        prop_assert_eq!(batched.total(), expect);
        prop_assert!(batched.len() <= budget.max(Config::MIN_BUDGET));
    }

    /// The optimized miss path (linear-prefix probes + root descent)
    /// and the linear re-hashing reference path (`insert_seed_path`)
    /// build identical trees insert-for-insert, while the optimized
    /// path performs no more index probes.
    #[test]
    fn fast_path_matches_seed_path(
        inserts in proptest::collection::vec((arb_any_key(), arb_pop()), 1..300),
        budget in 32usize..256,
    ) {
        let schema = Schema::four_feature();
        let mut fast = FlowTree::new(schema, Config::with_budget(budget));
        let mut reference = FlowTree::new(schema, Config::with_budget(budget));
        for (k, p) in &inserts {
            fast.insert(k, *p);
            reference.insert_seed_path(k, *p);
        }
        fast.validate();
        reference.validate();
        prop_assert_eq!(masses(&fast), masses(&reference));
        prop_assert!(
            fast.stats().chain_steps <= reference.stats().chain_steps,
            "prefix probes {} must not exceed linear-walk probes {}",
            fast.stats().chain_steps,
            reference.stats().chain_steps
        );
    }
}

#[test]
fn prehashed_entry_points_agree_with_insert() {
    let schema = Schema::five_feature();
    let keys: Vec<(FlowKey, Popularity)> = (0..500)
        .map(|i| {
            let k: FlowKey = format!(
                "src=10.0.{}.{}/32 dst=192.0.2.1/32 sport=4000 dport=53 proto=udp",
                i % 7,
                i % 253
            )
            .parse()
            .unwrap();
            (k, Popularity::packet(64 + (i as u32 % 1400)))
        })
        .collect();

    let mut plain = FlowTree::new(schema, Config::with_budget(4096));
    for (k, p) in &keys {
        plain.insert(k, *p);
    }

    let mut items: Vec<(u64, FlowKey, Popularity)> = keys
        .iter()
        .map(|(k, p)| {
            let ck = schema.canonicalize(k);
            (flowkey::key_hash(&ck), ck, *p)
        })
        .collect();
    let mut batched = FlowTree::new(schema, Config::with_budget(4096));
    batched.insert_batch_prehashed(&mut items);
    batched.validate();
    assert_eq!(masses(&batched), masses(&plain));
}

// ---------------------------------------------------------------------
// The two-pass batch path: equivalence, the LCCA oracle, work counters
// ---------------------------------------------------------------------

/// splitmix64 — the seeded tests below must not move with a proptest
/// shim or a `rand` version.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A key of a random shape over a small population, so batches hold
/// relatives: IPv4 and IPv6 5-tuples, keys with time and site (kept
/// only by the extended schema), and chain ancestors of all of those
/// (partial tuples, prefixes, port ranges).
fn mixed_key(rng: &mut Rng, schema: &Schema) -> FlowKey {
    let host = rng.below(24);
    let text = if rng.below(4) == 0 {
        format!(
            "src=2001:db8::{:x}/128 dst=2001:db8:1::{:x}/128 sport={} dport=443 proto=tcp",
            host,
            rng.below(3),
            40_000 + rng.below(4)
        )
    } else {
        format!(
            "src=10.{}.{}.{}/32 dst=192.0.2.{}/32 sport={} dport={} proto={}",
            host % 3,
            host / 3,
            rng.below(4),
            rng.below(3),
            40_000 + rng.below(4),
            [53, 443][rng.below(2) as usize],
            ["tcp", "udp"][rng.below(2) as usize],
        )
    };
    let mut key: FlowKey = text.parse().unwrap();
    if rng.below(2) == 0 {
        key = key
            .with_time(flowkey::TimeBucket::new(1_700_000_000 + rng.below(4) * 64, 6).unwrap())
            .with_site(flowkey::Site::Is(
                256 * rng.below(2) as u16 + rng.below(3) as u16,
            ));
    }
    let key = schema.canonicalize(&key);
    match rng.below(3) {
        0 => key,
        _ => {
            let depth = schema.depth(&key);
            schema.chain_ancestor(&key, depth - rng.below(depth as u64 + 1).min(60) as u32)
        }
    }
}

fn pop(rng: &mut Rng) -> Popularity {
    Popularity::new(1 + rng.below(50) as i64, 40 + rng.below(1_400) as i64, 1)
}

/// `inserts` through `insert_batch` in chunks of `chunk`.
fn batched(
    schema: Schema,
    budget: usize,
    inserts: &[(FlowKey, Popularity)],
    chunk: usize,
) -> FlowTree {
    let mut tree = FlowTree::new(schema, Config::with_budget(budget));
    for part in inserts.chunks(chunk) {
        tree.insert_batch(part);
    }
    tree
}

fn one_by_one(schema: Schema, budget: usize, inserts: &[(FlowKey, Popularity)]) -> FlowTree {
    let mut tree = FlowTree::new(schema, Config::with_budget(budget));
    for (k, p) in inserts {
        tree.insert(k, *p);
    }
    tree
}

#[test]
fn mixed_shape_batches_encode_like_repeated_insert() {
    let mut rng = Rng(24);
    for schema in [Schema::five_feature(), Schema::extended()] {
        for round in 0..40 {
            let n = 1 + rng.below(300) as usize;
            let inserts: Vec<_> = (0..n)
                .map(|_| (mixed_key(&mut rng, &schema), pop(&mut rng)))
                .collect();
            let reference = one_by_one(schema, 1_000_000, &inserts);
            for chunk in [1, 7, n] {
                let tree = batched(schema, 1_000_000, &inserts, chunk);
                tree.validate();
                assert_eq!(
                    tree.encode(),
                    reference.encode(),
                    "round {round}, {n} inserts in chunks of {chunk}"
                );
            }
            // The same stream under a budget it overflows.
            let budget = 16 + rng.below(80) as usize;
            let tree = batched(schema, budget, &inserts, 1 + rng.below(64) as usize);
            tree.validate();
            assert_eq!(tree.total(), reference.total());
            assert!(tree.len() <= budget.max(Config::MIN_BUDGET));
        }
    }
}

#[test]
fn batch_corner_cases_match_repeated_insert() {
    let schema = Schema::five_feature();
    let key = |s: &str| -> FlowKey { s.parse().unwrap() };
    let a = key("src=10.0.0.1/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp");
    let b = key("src=10.0.0.2/32 dst=192.0.2.1/32 sport=40001 dport=443 proto=tcp");
    let c = key("src=10.9.0.2/32 dst=192.0.2.7/32 sport=53 dport=53 proto=udp");
    let join = schema.lcca(&a, &b);
    let p = Popularity::packet(100);
    let cases: Vec<(&str, Vec<FlowKey>)> = vec![
        ("a batch of one", vec![a]),
        ("one key missing twice", vec![a, a]),
        ("twice, with a stranger between", vec![a, c, a, c]),
        ("all misses", vec![a, b, c]),
        ("a join's key after the keys that make it", vec![a, b, join]),
        ("a join's key before them", vec![join, b, a]),
        (
            "an ancestor and a descendant",
            vec![a, schema.parent(&a).unwrap()],
        ),
    ];
    for (what, keys) in cases {
        let inserts: Vec<_> = keys.iter().map(|k| (*k, p)).collect();
        let reference = one_by_one(schema, 4_096, &inserts);
        let mut tree = batched(schema, 4_096, &inserts, inserts.len());
        tree.validate();
        assert_eq!(tree.encode(), reference.encode(), "{what}");
        // Every update is a hit or a miss, and a key creates one node
        // however often the batch repeats it (which updates count as
        // the miss depends on the order, so it may differ from the
        // reference: a join's key placed before its children is a
        // miss, after them a hit).
        let stats = *tree.stats();
        assert_eq!(stats.hits + stats.misses, inserts.len() as u64, "{what}");
        assert_eq!(
            (stats.misses + stats.joins_created) as usize,
            tree.len() - 1,
            "{what}: one node per distinct key or join"
        );
        // All hits: the same batch again creates nothing.
        tree.insert_batch(&inserts);
        tree.validate();
        assert_eq!(tree.len(), reference.len(), "{what}, repeated");
        assert_eq!(tree.stats().misses, stats.misses, "{what}, repeated");
        assert_eq!(tree.total(), reference.total() + reference.total());
    }
}

/// The closed-form LCCA against the chain-walking definition. The
/// tree's own `debug_assert` makes this comparison on every splice, but
/// not in release builds — where ingest runs.
#[test]
fn analytic_lcca_equals_the_chain_walk_on_mixed_shapes() {
    let mut rng = Rng(7);
    for schema in [
        Schema::one_feature_src(),
        Schema::two_feature(),
        Schema::four_feature(),
        Schema::five_feature(),
        Schema::extended(),
    ] {
        let pairs = if cfg!(debug_assertions) { 400 } else { 4_000 };
        for _ in 0..pairs {
            let a = mixed_key(&mut rng, &schema);
            let b = mixed_key(&mut rng, &schema);
            let walked = schema.lcca(&a, &b);
            let meet = schema.lcca_profile(&a, &b);
            assert_eq!(a.at_profile(&meet), walked, "lcca({a}, {b})");
            assert_eq!(b.at_profile(&meet), walked, "lcca({a}, {b}) from b");
        }
    }
}

/// The benchmark's key population in miniature: Zipf(1.1) over
/// 5-tuples spread like a site's traffic.
fn zipf_stream(flows: usize, records: usize, seed: u64) -> Vec<(FlowKey, Popularity)> {
    let mut cdf = Vec::with_capacity(flows);
    let mut acc = 0.0;
    for rank in 1..=flows {
        acc += 1.0 / (rank as f64).powf(1.1);
        cdf.push(acc);
    }
    let mut rng = Rng(seed);
    (0..records)
        .map(|_| {
            let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * acc;
            let rank = cdf.partition_point(|&c| c < u).min(flows - 1) as u64;
            let h = Rng(rank).next();
            let key = FlowKey::five_tuple(
                flowkey::IpNet::v4_host(
                    [10, (h & 31) as u8, (h >> 8) as u8, (h >> 16) as u8].into(),
                ),
                flowkey::IpNet::v4_host(
                    [172, 16 + (h >> 60) as u8, (h >> 24) as u8, (h >> 32) as u8].into(),
                ),
                1_024 + ((h >> 40) % 50_000) as u16,
                [80, 443, 53, 123][(h >> 56 & 3) as usize],
                if h >> 58 & 3 == 0 { 17 } else { 6 },
            );
            (key, Popularity::flow(3, 1_500))
        })
        .collect()
}

/// What a batch miss may cost, as counts that repeat exactly: no
/// upward index probes at all, and a bounded number of descent hops
/// (the single-key path at the parent commit: 4.0 probes and 16.3 hops
/// per miss on this kind of stream).
#[test]
fn batch_misses_probe_nothing_and_descend_a_bounded_number_of_hops() {
    // Debug builds check every splice against the chain-walking LCCA;
    // a shorter stream keeps them quick and still overflows nothing.
    let records = if cfg!(debug_assertions) {
        60_000
    } else {
        480_000
    };
    let stream = zipf_stream(500_000, records, 11);
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(65_536));
    for part in stream.chunks(4_096) {
        tree.insert_batch(part);
    }
    tree.validate();
    let stats = tree.stats();
    assert!(stats.misses > records as u64 / 10, "a miss-heavy stream");
    assert_eq!(stats.chain_steps, 0, "the batch path never probes upward");
    assert!(
        stats.descent_hops <= 8 * stats.misses,
        "{} hops for {} misses",
        stats.descent_hops,
        stats.misses
    );
}
