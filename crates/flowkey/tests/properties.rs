//! Property-based tests for the feature lattice and the canonical chain.

use flowkey::pack::{pack_key, unpack_key};
use flowkey::{
    ChainOrder, DepthProfile, Dim, FlowKey, IpNet, Ipv4Net, Ipv6Net, PortRange, Proto, Schema,
    Site, TimeBucket,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

fn arb_ipnet() -> impl Strategy<Value = IpNet> {
    prop_oneof![
        1 => Just(IpNet::Any),
        8 => (any::<u32>(), 0u8..=32)
            .prop_map(|(a, l)| IpNet::V4(Ipv4Net::new(Ipv4Addr::from(a), l).unwrap())),
        3 => (any::<u128>(), 0u8..=128)
            .prop_map(|(a, l)| IpNet::V6(Ipv6Net::new(Ipv6Addr::from(a), l).unwrap())),
    ]
}

fn arb_port() -> impl Strategy<Value = PortRange> {
    (any::<u16>(), 0u8..=16).prop_map(|(b, l)| PortRange::new(b, l).unwrap())
}

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Any), any::<u8>().prop_map(Proto::Is)]
}

fn arb_time() -> impl Strategy<Value = TimeBucket> {
    (0u64..(1 << 36), 0u8..=TimeBucket::MAX_LEVEL)
        .prop_map(|(s, l)| TimeBucket::new(s % (1 << 36), l).unwrap())
}

fn arb_site() -> impl Strategy<Value = Site> {
    prop_oneof![
        Just(Site::Any),
        any::<u8>().prop_map(Site::Region),
        any::<u16>().prop_map(Site::Is),
    ]
}

prop_compose! {
    fn arb_key()(
        src in arb_ipnet(),
        dst in arb_ipnet(),
        sport in arb_port(),
        dport in arb_port(),
        proto in arb_proto(),
        time in arb_time(),
        site in arb_site(),
    ) -> FlowKey {
        FlowKey { src, dst, sport, dport, proto, time, site }
    }
}

/// A key related to `a`: per dimension (two bits of `pick` each) it
/// keeps `a`'s feature, takes one of its ancestors, or takes `other`'s
/// — so chains share long prefixes and then fork, run through one
/// another, or never meet, in every mix of shapes.
fn relative_of(a: &FlowKey, other: &FlowKey, pick: u16, up: u16) -> FlowKey {
    let mut out = *a;
    for dim in Dim::ALL {
        match (pick >> (2 * dim.index())) & 3 {
            0 | 1 => {}
            2 => {
                let d = a.dim_depth(dim);
                out = out
                    .dim_ancestor_at(dim, d.saturating_sub(up % (d + 1)))
                    .unwrap();
            }
            _ => match dim {
                Dim::SrcIp => out.src = other.src,
                Dim::DstIp => out.dst = other.dst,
                Dim::SrcPort => out.sport = other.sport,
                Dim::DstPort => out.dport = other.dport,
                Dim::Proto => out.proto = other.proto,
                Dim::Time => out.time = other.time,
                Dim::Site => out.site = other.site,
            },
        }
    }
    out
}

fn schemas() -> Vec<Schema> {
    vec![
        Schema::one_feature_src(),
        Schema::two_feature(),
        Schema::four_feature(),
        Schema::five_feature(),
        Schema::extended(),
    ]
}

proptest! {
    /// Containment is a partial order: reflexive, antisymmetric, transitive.
    #[test]
    fn containment_partial_order(a in arb_key(), b in arb_key(), c in arb_key()) {
        prop_assert!(a.contains(&a));
        if a.contains(&b) && b.contains(&a) {
            prop_assert_eq!(a, b);
        }
        if a.contains(&b) && b.contains(&c) {
            prop_assert!(a.contains(&c));
        }
    }

    /// The join contains both operands; the meet is contained in both
    /// (or the keys are disjoint, in which case they must not overlap in
    /// some dimension).
    #[test]
    fn join_meet_bounds(a in arb_key(), b in arb_key()) {
        let j = a.join(&b);
        prop_assert!(j.contains(&a));
        prop_assert!(j.contains(&b));
        match a.meet(&b) {
            Some(m) => {
                prop_assert!(a.contains(&m));
                prop_assert!(b.contains(&m));
                prop_assert!(a.overlaps(&b));
            }
            None => prop_assert!(!a.overlaps(&b)),
        }
    }

    /// Meet is idempotent, commutative, and absorbs containment.
    #[test]
    fn meet_laws(a in arb_key(), b in arb_key()) {
        prop_assert_eq!(a.meet(&a), Some(a));
        prop_assert_eq!(a.meet(&b), b.meet(&a));
        if a.contains(&b) {
            prop_assert_eq!(a.meet(&b), Some(b));
        }
    }

    /// The canonical parent chain terminates at the root, shrinks depth
    /// by exactly one per step, and every chain key contains the start.
    #[test]
    fn chain_terminates_and_is_monotone(key in arb_key()) {
        for schema in schemas() {
            let key = schema.canonicalize(&key);
            let mut cur = key;
            let mut depth = schema.depth(&cur);
            let mut guard = 0u32;
            while let Some(p) = schema.parent(&cur) {
                prop_assert!(p.contains(&cur));
                prop_assert!(p.contains(&key));
                prop_assert_eq!(schema.depth(&p), depth - 1);
                cur = p;
                depth -= 1;
                guard += 1;
                prop_assert!(guard <= 512, "runaway chain");
            }
            prop_assert!(cur.is_root());
        }
    }

    /// chain_ancestor is consistent: the ancestor-of-an-ancestor equals
    /// the direct ancestor at the shallower depth.
    #[test]
    fn chain_ancestor_consistency(key in arb_key(), d1 in 0u32..200, d2 in 0u32..200) {
        for schema in schemas() {
            let key = schema.canonicalize(&key);
            let full = schema.depth(&key);
            let (lo, hi) = (d1.min(d2) % (full + 1), d1.max(d2) % (full + 1));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let mid = schema.chain_ancestor(&key, hi);
            let via_mid = schema.chain_ancestor(&mid, lo);
            let direct = schema.chain_ancestor(&key, lo);
            prop_assert_eq!(via_mid, direct);
        }
    }

    /// The LCCA is on both chains and is the deepest such key.
    #[test]
    fn lcca_is_lowest_common(a in arb_key(), b in arb_key()) {
        for schema in schemas() {
            let a = schema.canonicalize(&a);
            let b = schema.canonicalize(&b);
            let l = schema.lcca(&a, &b);
            prop_assert!(schema.is_chain_ancestor(&l, &a));
            prop_assert!(schema.is_chain_ancestor(&l, &b));
            let dl = schema.depth(&l);
            if dl < schema.depth(&a) {
                let deeper = schema.chain_ancestor(&a, dl + 1);
                prop_assert!(!schema.is_chain_ancestor(&deeper, &b));
            }
        }
    }

    /// A chain sheds its `(dimension, level)` pairs in strictly
    /// decreasing schedule rank, and `chain_step_below` names each
    /// step from the profile above it.
    #[test]
    fn schedule_rank_orders_every_chain(key in arb_key()) {
        for schema in schemas() {
            let key = schema.canonicalize(&key);
            let full = DepthProfile::of(&key);
            let mut p = full;
            let mut last = u32::MAX;
            while let Some(dim) = schema.next_chain_dim(&p) {
                let level = p.get(dim);
                let rank = schema.schedule_rank(dim, level);
                prop_assert!(rank < last, "ranks must strictly decrease");
                last = rank;
                p.0[dim.index()] -= 1;
                prop_assert_eq!(schema.chain_step_below(&p, &full), Some((dim, level)));
            }
            prop_assert_eq!(schema.chain_step_below(&full, &full), None);
        }
    }

    /// The closed-form LCCA profile is the chain-walking LCCA, on
    /// unrelated and on related keys of mixed shapes.
    #[test]
    fn lcca_profile_matches_the_chain_walk(
        a in arb_key(),
        b in arb_key(),
        pick in any::<u16>(),
        up in 0u16..40,
    ) {
        for schema in schemas() {
            let a = schema.canonicalize(&a);
            let b = schema.canonicalize(&b);
            for other in [b, relative_of(&a, &b, pick, up)] {
                let q = schema.lcca_profile(&a, &other);
                prop_assert_eq!(a.at_profile(&q), schema.lcca(&a, &other));
                prop_assert_eq!(other.at_profile(&q), schema.lcca(&a, &other));
                prop_assert_eq!(schema.lcca_profile(&other, &a), q);
            }
        }
    }

    /// A chain ancestor's sort key is a prefix of its descendants', so
    /// it never sorts after them.
    #[test]
    fn chain_order_keeps_ancestors_first(key in arb_key(), up in 0u32..300) {
        for schema in schemas() {
            let key = schema.canonicalize(&key);
            let depth = schema.depth(&key);
            let anc = schema.chain_ancestor(&key, depth - up % (depth + 1));
            let k = ChainOrder::new(&schema, DepthProfile::of(&key)).key(&key);
            let a = ChainOrder::new(&schema, DepthProfile::of(&anc)).key(&anc);
            prop_assert!(a <= k);
            // Everything the ancestor fixes, the descendant repeats:
            // they differ only below the ancestor's lowest set bit.
            if a != 0 {
                prop_assert_eq!((a ^ k) >> a.trailing_zeros(), 0);
            }
        }
    }

    /// Sorting by chain order is a depth-first walk of the chain trie:
    /// of three keys in sorted order, the outer two meet no deeper than
    /// either adjacent pair does (keys of one shape whose chain fits
    /// the 128 bits, where the hint is exact).
    #[test]
    fn chain_order_is_depth_first(
        a in (any::<u32>(), any::<u32>(), any::<u32>()),
        b in (any::<u32>(), any::<u32>(), any::<u32>()),
        c in (any::<u32>(), any::<u32>(), any::<u32>()),
        bits in any::<[u8; 3]>(),
    ) {
        let schema = Schema::five_feature();
        // Differ only in a few chosen low bits, so the keys are close
        // relatives rather than strangers meeting at the root.
        let mask = |i: usize| ((1u64 << (bits[i] % 33)) - 1) as u32;
        let make = |v: (u32, u32, u32)| FlowKey::five_tuple(
            IpNet::v4_host(Ipv4Addr::from(0x0a00_0000 ^ (v.0 & mask(0)))),
            IpNet::v4_host(Ipv4Addr::from(0xc000_0200 ^ (v.1 & mask(1)))),
            (v.2 & mask(2)) as u16,
            443,
            6 + (v.2 >> 31) as u8,
        );
        let order = ChainOrder::new(&schema, DepthProfile::of(&make(a)));
        let mut keys = [make(a), make(b), make(c)];
        keys.sort_by_key(|k| order.key(k));
        let meet = |x: &FlowKey, y: &FlowKey| schema.depth(&schema.lcca(x, y));
        prop_assert_eq!(
            meet(&keys[0], &keys[2]),
            meet(&keys[0], &keys[1]).min(meet(&keys[1], &keys[2]))
        );
    }

    /// Canonical packing roundtrips and consumes exactly its bytes.
    #[test]
    fn pack_roundtrip(key in arb_key()) {
        let mut buf = Vec::new();
        pack_key(&mut buf, &key);
        let (back, n) = unpack_key(&buf).unwrap();
        prop_assert_eq!(back, key);
        prop_assert_eq!(n, buf.len());
        // With trailing garbage the decoder must stop at the key's end.
        buf.push(0xAB);
        let (back2, n2) = unpack_key(&buf).unwrap();
        prop_assert_eq!(back2, key);
        prop_assert_eq!(n2, buf.len() - 1);
    }

    /// Truncating any packed key must yield an error, never a panic.
    #[test]
    fn pack_truncation_errors(key in arb_key(), cut in 0usize..64) {
        let mut buf = Vec::new();
        pack_key(&mut buf, &key);
        if cut < buf.len() {
            prop_assert!(unpack_key(&buf[..cut]).is_err());
        }
    }

    /// Unpacking arbitrary bytes never panics.
    #[test]
    fn unpack_fuzz_no_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = unpack_key(&bytes);
    }

    /// Display → FromStr roundtrips for every key.
    #[test]
    fn display_parse_roundtrip(key in arb_key()) {
        let s = key.to_string();
        let back: FlowKey = s.parse().unwrap();
        prop_assert_eq!(back, key);
    }

    /// Generalizing any single dimension yields a strict container.
    #[test]
    fn generalize_dim_contains(key in arb_key()) {
        for dim in Dim::ALL {
            if let Some(up) = key.generalize(dim) {
                prop_assert!(up.contains(&key));
                prop_assert!(up != key);
                prop_assert_eq!(up.dim_depth(dim) + 1, key.dim_depth(dim));
            } else {
                prop_assert_eq!(key.dim_depth(dim), 0);
            }
        }
    }
}
