//! The decoder's bulk load is pinned to placing every row through the
//! insert path ([`FlowTree::decode_by_insert`]): on trees built every
//! way a tree is built (insert, batch, k-way merge, diff with negative
//! masses, compaction) under all five schemas, both placements accept
//! the same frames and build the same tree — same bytes, same `Stats`,
//! and the same update stamps, which compaction's tie-breaks read.
//!
//! Frames whose sibling subtrees come in another (valid, non-canonical)
//! order are written by a small frame editor below; they must decode
//! to the identical tree. A row repeated where the canonical order
//! would put it is a duplicate key, whichever placement sees it.

use flowkey::pack::{read_varint, read_varint_signed, unpack_key, write_varint};
use flowkey::{FlowKey, IpNet, Schema, Site, TimeBucket};
use flowtree_core::{CodecError, Config, EvictionPolicy, FlowTree, Popularity};

/// SplitMix64: a seeded, dependency-free source of test data.
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

const SCHEMAS: [fn() -> Schema; 5] = [
    Schema::one_feature_src,
    Schema::two_feature,
    Schema::four_feature,
    Schema::five_feature,
    Schema::extended,
];

/// A key from a small population (so trees share prefixes and need
/// joins), canonical for `schema`, sometimes generalized up its chain.
fn key(rng: &mut Rng, schema: &Schema) -> FlowKey {
    let src: IpNet = if rng.below(8) == 0 {
        format!("2001:db8::{:x}/128", rng.below(6)).parse().unwrap()
    } else {
        format!("10.{}.{}.{}/32", rng.below(3), rng.below(6), rng.below(32))
            .parse()
            .unwrap()
    };
    let dst: IpNet = format!("192.0.2.{}/32", rng.below(4)).parse().unwrap();
    let dport = [53, 80, 443][rng.below(3) as usize];
    let proto = if rng.below(2) == 0 { 6 } else { 17 };
    let full = FlowKey::five_tuple(src, dst, 40_000 + rng.below(5) as u16, dport, proto)
        .with_time(TimeBucket::new(1_700_000_000 + 3_600 * rng.below(3), 0).unwrap())
        .with_site(Site::Is(rng.below(4) as u16));
    let key = schema.canonicalize(&full);
    if rng.below(4) == 0 {
        let depth = schema.depth(&key);
        schema.chain_ancestor(&key, depth - rng.below(depth as u64 + 1) as u32)
    } else {
        key
    }
}

fn batch(rng: &mut Rng, schema: &Schema, n: usize) -> Vec<(FlowKey, Popularity)> {
    (0..n)
        .map(|_| {
            let pop = Popularity::new(1 + rng.below(6) as i64, 40 + rng.below(1_500) as i64, 1);
            (key(rng, schema), pop)
        })
        .collect()
}

/// One tree per construction path, for `schema` and `seed`.
fn trees(schema: Schema, seed: u64) -> Vec<(&'static str, FlowTree)> {
    let rng = &mut Rng(seed);
    let roomy = Config::with_budget(1_000_000);
    let batched = |rng: &mut Rng, n| {
        let mut t = FlowTree::new(schema, roomy);
        t.insert_batch(&batch(rng, &schema, n));
        t
    };

    let mut inserted = FlowTree::new(schema, roomy);
    for (k, p) in batch(rng, &schema, 300) {
        inserted.insert(&k, p);
    }
    let single = batched(rng, 300);
    let mut merged = FlowTree::new(schema, roomy);
    let parts: Vec<FlowTree> = (0..3).map(|_| batched(rng, 120)).collect();
    merged
        .merge_many(&parts.iter().collect::<Vec<_>>())
        .unwrap();
    let mut diffed = batched(rng, 200);
    diffed.diff(&batched(rng, 200)).unwrap();
    let mut compacted = FlowTree::new(schema, Config::with_budget(48));
    for (k, p) in batch(rng, &schema, 400) {
        compacted.insert(&k, p);
    }
    compacted.compact();
    vec![
        ("insert", inserted),
        ("insert_batch", single),
        ("merge_many", merged),
        ("diff", diffed),
        ("compact", compacted),
    ]
}

/// A frame taken apart: the header up to the count, and each row's
/// parent position with the rest of the row (key and masses) as bytes.
struct Frame {
    head: Vec<u8>,
    rows: Vec<(u64, Vec<u8>)>,
}

impl Frame {
    fn parse(bytes: &[u8]) -> Frame {
        let (count, n) = read_varint(&bytes[6..]).unwrap();
        let mut pos = 6 + n;
        let mut rows = Vec::new();
        for _ in 0..count {
            let (parent, n) = read_varint(&bytes[pos..]).unwrap();
            pos += n;
            let start = pos;
            pos += unpack_key(&bytes[pos..]).unwrap().1;
            for _ in 0..3 {
                pos += read_varint_signed(&bytes[pos..]).unwrap().1;
            }
            rows.push((parent, bytes[start..pos].to_vec()));
        }
        assert_eq!(pos, bytes.len());
        Frame {
            head: bytes[..6].to_vec(),
            rows,
        }
    }

    fn write(&self) -> Vec<u8> {
        let mut out = self.head.clone();
        write_varint(&mut out, self.rows.len() as u64);
        for (parent, body) in &self.rows {
            write_varint(&mut out, *parent);
            out.extend_from_slice(body);
        }
        out
    }

    /// The same tree in another pre-order: every node's children are
    /// emitted in a seeded random order. `None` if no node has two
    /// children (there is no other order).
    fn permuted(&self, rng: &mut Rng) -> Option<Frame> {
        let mut children = vec![Vec::new(); self.rows.len()];
        for (i, (parent, _)) in self.rows.iter().enumerate().skip(1) {
            children[*parent as usize].push(i);
        }
        if children.iter().all(|c| c.len() < 2) {
            return None;
        }
        for c in &mut children {
            // Fisher–Yates; a list left in canonical order is reversed,
            // so the frame is never the canonical one.
            let canonical = c.clone();
            for i in (1..c.len()).rev() {
                c.swap(i, rng.below(i as u64 + 1) as usize);
            }
            if c.len() > 1 && *c == canonical {
                c.reverse();
            }
        }
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut new_pos = vec![0u64; self.rows.len()];
        let mut stack = vec![0usize];
        while let Some(old) = stack.pop() {
            new_pos[old] = rows.len() as u64;
            let parent = if old == 0 {
                0
            } else {
                new_pos[self.rows[old].0 as usize]
            };
            rows.push((parent, self.rows[old].1.clone()));
            stack.extend(children[old].iter().rev());
        }
        Some(Frame {
            head: self.head.clone(),
            rows,
        })
    }
}

/// What compacting a decoded tree to half its size keeps, under both
/// eviction policies: the victims' tie-breaks read the update stamps.
fn compacted_halves(frame: &[u8], decode: fn(&[u8], Config) -> FlowTree) -> [Vec<u8>; 2] {
    [EvictionPolicy::SmallestFirst, EvictionPolicy::ColdFirst].map(|eviction| {
        let cfg = Config {
            low_water: 0.5,
            eviction,
            ..Config::with_budget(16)
        };
        let mut tree = decode(frame, cfg);
        tree.compact();
        tree.validate();
        tree.encode()
    })
}

fn bulk(frame: &[u8], cfg: Config) -> FlowTree {
    FlowTree::decode(frame, cfg).unwrap()
}

fn by_insert(frame: &[u8], cfg: Config) -> FlowTree {
    FlowTree::decode_by_insert(frame, cfg).unwrap()
}

/// Both placements of `frame` build `expect`'s tree with the same
/// hidden state.
fn assert_placements_agree(frame: &[u8], expect: &[u8], what: &str) {
    let cfg = Config::with_budget(16);
    let (a, b) = (bulk(frame, cfg), by_insert(frame, cfg));
    a.validate();
    b.validate();
    assert_eq!(a.encode(), expect, "{what}: bulk load re-encodes");
    assert_eq!(b.encode(), expect, "{what}: insert placement re-encodes");
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    assert_eq!(
        a.stats().inserts as usize,
        a.len() - 1,
        "{what}: one insert a row"
    );
    assert_eq!(
        compacted_halves(frame, bulk),
        compacted_halves(frame, by_insert),
        "{what}: compaction after either decode"
    );
}

#[test]
fn canonical_frames_bulk_load_to_the_inserted_tree() {
    for schema in SCHEMAS.map(|s| s()) {
        for seed in 0..3 {
            for (path, tree) in trees(schema, seed) {
                let frame = tree.encode();
                let what = format!("{:?}/{path}/seed {seed}", schema.kind());
                assert_placements_agree(&frame, &frame, &what);
                assert_eq!(bulk(&frame, Config::default()).len(), tree.len());
            }
        }
    }
}

#[test]
fn permuted_frames_decode_to_the_identical_tree() {
    let mut permuted = 0;
    for schema in SCHEMAS.map(|s| s()) {
        for seed in 0..3 {
            let rng = &mut Rng(seed ^ 0xD1CE);
            for (path, tree) in trees(schema, seed) {
                let frame = tree.encode();
                let Some(other) = Frame::parse(&frame).permuted(rng) else {
                    continue;
                };
                let other = other.write();
                assert_ne!(other, frame);
                let what = format!("{:?}/{path}/seed {seed} permuted", schema.kind());
                assert_placements_agree(&other, &frame, &what);
                permuted += 1;
            }
        }
    }
    assert!(permuted >= 70, "only {permuted} trees had a second order");
}

#[test]
fn a_repeated_row_in_canonical_position_is_a_duplicate() {
    for schema in SCHEMAS.map(|s| s()) {
        for (path, tree) in trees(schema, 7) {
            let mut frame = Frame::parse(&tree.encode());
            // Repeat a leaf right after itself, under the same parent:
            // its step ties its twin's, where the order wants it lower.
            let is_parent: Vec<bool> = {
                let mut v = vec![false; frame.rows.len()];
                for (p, _) in &frame.rows[1..] {
                    v[*p as usize] = true;
                }
                v
            };
            let Some(leaf) = (1..frame.rows.len()).rev().find(|&i| !is_parent[i]) else {
                continue;
            };
            for (p, _) in &mut frame.rows[leaf + 1..] {
                if *p > leaf as u64 {
                    *p += 1;
                }
            }
            let twin = frame.rows[leaf].clone();
            frame.rows.insert(leaf + 1, twin);
            let bytes = frame.write();
            let dup = Err(CodecError::BadStructure("duplicate key"));
            let what = format!("{:?}/{path}", schema.kind());
            assert_eq!(
                FlowTree::decode(&bytes, Config::paper()).map(|t| t.len()),
                dup,
                "{what}"
            );
            assert_eq!(
                FlowTree::decode_by_insert(&bytes, Config::paper()).map(|t| t.len()),
                dup,
                "{what}"
            );
        }
    }
}
