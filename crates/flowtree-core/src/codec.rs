//! Compact binary serialization of Flowtrees.
//!
//! Summaries are what the distributed system ships between sites, so the
//! encoding must be small (that is the point of the paper) and safe to
//! decode from untrusted bytes (the guides' rule: network input is
//! hostile until proven otherwise — every structural claim in the stream
//! is re-verified on decode).
//!
//! Format (all integers little-endian or LEB128 varints):
//!
//! ```text
//! magic   4 bytes  "FTR1"
//! version 1 byte   = 1
//! schema  1 byte   SchemaKind discriminant
//! count   varint   number of nodes, ≥ 1
//! nodes   count ×  (pre-order; node 0 must be the root)
//!   parent  varint   position of the parent in this stream (< own pos);
//!                    node 0 encodes 0
//!   key     packed   flowkey::pack
//!   comp    3 × signed varint (packets, bytes, flows)
//! ```
//!
//! The emitted pre-order is **canonical**: sibling lists are kept in
//! step-hash order and emitted from a stack, so every node's children
//! arrive in strictly descending step hash, and any two trees holding
//! the same node set encode to identical bytes regardless of how the
//! nodes arrived (insertion, batch, lane merge, or structural merge).
//!
//! ## Decoding is a bulk load
//!
//! The decoder verifies that order and uses it. Row `i` becomes arena
//! node `i`, linked in front of its parent's children in O(1), once two
//! checks pass: its parent is a strict chain ancestor (the closed-form
//! LCCA of the two keys is the parent itself — `O(dims)`, no chain
//! walk), and its chain step under the parent hashes strictly below
//! that of the parent's previous child. No index is probed or built and
//! no side table is kept; the tree comes back **frozen** (exact arena,
//! no index, see [`crate::tree`]) and builds its index on the first
//! point lookup, like any stored window.
//!
//! A frame this module wrote leaves the arena in pre-order, and the
//! tree knows it ([`crate::tree`], "Arena order"): encoding it again or
//! merging from it reads the slots front to back, with no walk.
//!
//! The two checks are all validity needs. Distinct sibling steps make
//! any two nodes of which one is a chain ancestor of the other (or
//! which hold the same key) tree relatives: below their lowest common
//! tree ancestor their branches would start at the same chain step.
//! So no key occurs twice, and every parent is its child's *longest*
//! retained chain ancestor, which is what the insert path would have
//! made it.
//!
//! A frame that is valid but not in that order — hand-built, from an
//! older writer, or carrying a 64-bit step-hash collision — still
//! decodes, to the tree inserting its rows builds: from the first row
//! that breaks the order on, rows are placed through the ordinary
//! insert path, and a key seen twice is rejected as a duplicate.
//! Either way node `k`'s update stamp is its stream position, so a
//! decoded tree compacts the same whichever way it was placed.

use crate::pop::Popularity;
use crate::tree::{profile_depth, roll_step, FlowTree};
use crate::Config;
use core::fmt;
use flowkey::pack::{
    pack_key, packed_key_len, read_varint, unpack_key, varint_len, varint_signed_len, write_varint,
    write_varint_signed,
};
use flowkey::{key_hash, DepthProfile, FlowKey, Schema, SchemaKind};

/// Magic bytes of the Flowtree wire format.
pub const MAGIC: [u8; 4] = *b"FTR1";
/// Current format version.
pub const VERSION: u8 = 1;

/// Hard ceiling on the node count accepted from the wire, protecting the
/// decoder from resource-exhaustion frames.
pub const MAX_WIRE_NODES: usize = 4_000_000;

/// The fewest bytes one node row can occupy: a parent varint, the
/// packed key's presence byte, and three mass varints.
const MIN_ROW_BYTES: usize = 5;

/// Errors produced while decoding a Flowtree frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The version byte is not supported.
    BadVersion(u8),
    /// The schema byte is not a known [`SchemaKind`].
    BadSchema(u8),
    /// The frame ended early.
    Truncated,
    /// A key failed to decode.
    BadKey,
    /// The node count exceeds [`MAX_WIRE_NODES`] or is zero.
    BadCount(u64),
    /// A structural claim in the stream was false (bad parent reference,
    /// non-root first node, parent not a chain ancestor, duplicate key…).
    BadStructure(&'static str),
    /// Trailing bytes after a complete tree.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => f.write_str("bad magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadSchema(s) => write!(f, "unknown schema {s}"),
            CodecError::Truncated => f.write_str("truncated frame"),
            CodecError::BadKey => f.write_str("malformed key"),
            CodecError::BadCount(n) => write!(f, "implausible node count {n}"),
            CodecError::BadStructure(s) => write!(f, "bad structure: {s}"),
            CodecError::TrailingBytes => f.write_str("trailing bytes after tree"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One node row of a frame, parsed; its key conforms to the schema.
struct Row {
    parent_pos: u64,
    key: FlowKey,
    profile: DepthProfile,
    comp: Popularity,
}

/// Parses the row at `*pos`, advancing `*pos` past it.
fn read_row(bytes: &[u8], pos: &mut usize, schema: &Schema) -> Result<Row, CodecError> {
    let (parent_pos, n) = read_varint(&bytes[*pos..]).map_err(|_| CodecError::Truncated)?;
    *pos += n;
    let (key, n) = unpack_key(&bytes[*pos..]).map_err(|e| match e {
        flowkey::pack::UnpackError::Truncated => CodecError::Truncated,
        flowkey::pack::UnpackError::Invalid => CodecError::BadKey,
    })?;
    *pos += n;
    let mut comp = Popularity::ZERO;
    for field in [&mut comp.packets, &mut comp.bytes, &mut comp.flows] {
        let (v, n) =
            flowkey::pack::read_varint_signed(&bytes[*pos..]).map_err(|_| CodecError::Truncated)?;
        *field = v;
        *pos += n;
    }
    let profile = DepthProfile::of(&key);
    if !schema.conforms_profile(&profile) {
        return Err(CodecError::BadStructure("key outside schema"));
    }
    Ok(Row {
        parent_pos,
        key,
        profile,
        comp,
    })
}

fn schema_byte(kind: SchemaKind) -> u8 {
    match kind {
        SchemaKind::Src1 => 0,
        SchemaKind::SrcDst2 => 1,
        SchemaKind::Four => 2,
        SchemaKind::Five => 3,
        SchemaKind::Extended => 4,
    }
}

fn schema_from_byte(b: u8) -> Option<SchemaKind> {
    Some(match b {
        0 => SchemaKind::Src1,
        1 => SchemaKind::SrcDst2,
        2 => SchemaKind::Four,
        3 => SchemaKind::Five,
        4 => SchemaKind::Extended,
        _ => return None,
    })
}

impl FlowTree {
    /// Encodes the tree into the compact wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.len() * 16);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(schema_byte(self.schema().kind()));
        write_varint(&mut out, self.len() as u64);
        self.for_each_preorder(|_, id, parent_pos| {
            let node = self.node(id);
            write_varint(&mut out, parent_pos as u64);
            pack_key(&mut out, &node.key);
            write_varint_signed(&mut out, node.comp.packets);
            write_varint_signed(&mut out, node.comp.bytes);
            write_varint_signed(&mut out, node.comp.flows);
        });
        out
    }

    /// Size in bytes of the encoded tree (what a site would transfer),
    /// computed arithmetically — varint widths plus packed key sizes
    /// over the rows `encode` writes, in the same walk — without
    /// allocating and encoding a throwaway frame. Always equals
    /// `self.encode().len()`.
    pub fn encoded_size(&self) -> usize {
        let mut len = 6 + varint_len(self.len() as u64);
        self.for_each_preorder(|_, id, parent_pos| {
            let node = self.node(id);
            len += varint_len(parent_pos as u64)
                + packed_key_len(&node.key)
                + varint_signed_len(node.comp.packets)
                + varint_signed_len(node.comp.bytes)
                + varint_signed_len(node.comp.flows);
        });
        len
    }

    /// Decodes and fully validates a frame produced by [`encode`].
    ///
    /// Every structural claim is re-verified: the first node must be the
    /// root, every parent reference must point backwards to a node whose
    /// key is a canonical-chain ancestor of the child, and keys must be
    /// unique. The node budget of `cfg` is raised to the decoded size if
    /// necessary, so a faithfully transferred summary is never mutated by
    /// the act of decoding. The tree comes back frozen: its arena holds
    /// exactly the frame's nodes and its key index is built on first use
    /// (module docs, "Decoding is a bulk load").
    ///
    /// [`encode`]: FlowTree::encode
    pub fn decode(bytes: &[u8], cfg: Config) -> Result<FlowTree, CodecError> {
        let (tree, used) = Self::decode_prefix(bytes, cfg)?;
        if used != bytes.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(tree)
    }

    /// Like [`decode`](FlowTree::decode) but tolerates trailing bytes,
    /// returning the tree and the number of bytes consumed (for framed
    /// streams carrying several trees).
    pub fn decode_prefix(bytes: &[u8], cfg: Config) -> Result<(FlowTree, usize), CodecError> {
        Self::decode_placed(bytes, cfg, true)
    }

    /// [`FlowTree::decode`] placing every row through the insert path,
    /// as a frame that leaves canonical order does from the first row
    /// that breaks it. Kept for the differential tests that pin the
    /// bulk load to it: same acceptance, same tree, same stats.
    #[doc(hidden)]
    pub fn decode_by_insert(bytes: &[u8], cfg: Config) -> Result<FlowTree, CodecError> {
        let (tree, used) = Self::decode_placed(bytes, cfg, false)?;
        if used != bytes.len() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(tree)
    }

    /// The decoder (module docs, "Decoding is a bulk load"); `bulk`
    /// off places every row through the insert path.
    fn decode_placed(
        bytes: &[u8],
        cfg: Config,
        bulk: bool,
    ) -> Result<(FlowTree, usize), CodecError> {
        if bytes.len() < 6 {
            return Err(CodecError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if bytes[4] != VERSION {
            return Err(CodecError::BadVersion(bytes[4]));
        }
        let kind = schema_from_byte(bytes[5]).ok_or(CodecError::BadSchema(bytes[5]))?;
        let schema = Schema::from_kind(kind);
        let mut pos = 6usize;
        let (count, n) = read_varint(&bytes[pos..]).map_err(|_| CodecError::Truncated)?;
        pos += n;
        if count == 0 || count as usize > MAX_WIRE_NODES {
            return Err(CodecError::BadCount(count));
        }
        let count = count as usize;
        // The count sizes the arena below; a ten-byte frame must not
        // get to claim four million rows. Hold it to what the
        // remaining bytes could possibly carry first.
        if count > (bytes.len() - pos) / MIN_ROW_BYTES {
            return Err(CodecError::Truncated);
        }

        let mut cfg = cfg;
        cfg.node_budget = cfg.node_budget.max(count);
        let mut tree = FlowTree::frozen_with_arena(schema, cfg, count);
        let root = read_row(bytes, &mut pos, &schema)?;
        if !root.key.is_root() {
            return Err(CodecError::BadStructure("first node is not the root"));
        }
        if root.parent_pos != 0 {
            return Err(CodecError::BadStructure("root parent reference"));
        }
        tree.set_root_comp(root.comp);
        // Node id of every row so far, kept only once a row has left
        // canonical order; until then row `i` is node `i`.
        let mut ids: Option<Vec<u32>> = (!bulk).then(|| vec![tree.root]);
        for i in 1..count {
            let Row {
                parent_pos,
                key,
                profile,
                comp,
            } = read_row(bytes, &mut pos, &schema)?;
            if parent_pos as usize >= i {
                return Err(CodecError::BadStructure("forward parent reference"));
            }
            let parent = match &ids {
                None => parent_pos as u32,
                Some(ids) => ids[parent_pos as usize],
            };
            let p = &tree.nodes[parent as usize];
            let depth = profile_depth(&profile);
            let p_profile = DepthProfile::of(&p.key);
            // A strict chain ancestor is its own LCCA with the key.
            let on_chain = depth > p.depth
                && schema.lcca_of_profiles(&key.agreement_profile(&p.key), &profile, &p_profile)
                    == p_profile;
            debug_assert_eq!(
                on_chain,
                depth > p.depth && schema.is_chain_ancestor(&p.key, &key),
                "the closed form must agree with the chain walk"
            );
            if !on_chain {
                return Err(CodecError::BadStructure("parent not a chain ancestor"));
            }
            let hash = key_hash(&key);
            if ids.is_none() {
                let (dim, level) = schema
                    .chain_step_below(&p_profile, &profile)
                    .expect("the parent is a strict chain ancestor");
                let step = roll_step(&p.key, p.key_hash, &key, dim, level);
                debug_assert_eq!(
                    step,
                    key_hash(&schema.chain_ancestor(&key, p.depth + 1)),
                    "rolled step hash is the chain step's"
                );
                if tree.push_first_child(parent, key, hash, depth, step, comp) {
                    continue;
                }
            }
            // Out of canonical order: the rows so far are nodes
            // 0..i, and the rest take the insert path.
            let ids = ids.get_or_insert_with(|| (0..i as u32).collect());
            if tree.lookup(&key, hash).is_some() {
                return Err(CodecError::BadStructure("duplicate key"));
            }
            ids.push(tree.add_mass_hashed(key, hash, comp));
        }
        // Decoding places rows, it does not search for them: however
        // they were placed, a decoded tree's work counters are one
        // insert and one miss per non-root row (and any join an
        // out-of-order frame forced).
        tree.stats.chain_steps = 0;
        tree.stats.descent_hops = 0;
        Ok((tree, pos))
    }

    pub(crate) fn set_root_comp(&mut self, comp: Popularity) {
        let root = self.root;
        self.nodes[root as usize].comp = comp;
        self.total += comp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;

    fn sample_tree() -> FlowTree {
        let mut tree = FlowTree::new(Schema::four_feature(), Config::with_budget(256));
        for i in 0..100u32 {
            let key: FlowKey = format!(
                "src=10.0.{}.{}/32 dst=192.0.2.{}/32 sport={} dport=443",
                i / 16,
                i % 16,
                i % 8,
                1024 + i
            )
            .parse()
            .unwrap();
            tree.insert(&key, Popularity::new(1 + i as i64, 100, 1));
        }
        tree
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tree = sample_tree();
        let bytes = tree.encode();
        let back = FlowTree::decode(&bytes, Config::with_budget(256)).unwrap();
        back.validate();
        assert_eq!(back.len(), tree.len());
        assert_eq!(back.total(), tree.total());
        for view in tree.iter() {
            assert_eq!(back.comp_of(view.key), Some(view.comp), "at {}", view.key);
        }
    }

    #[test]
    fn empty_tree_roundtrips() {
        let tree = FlowTree::new(Schema::five_feature(), Config::with_budget(64));
        let bytes = tree.encode();
        let back = FlowTree::decode(&bytes, Config::with_budget(64)).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.total().is_zero());
    }

    #[test]
    fn negative_masses_roundtrip() {
        let mut a = sample_tree();
        let b = sample_tree();
        a.diff(&b).unwrap();
        // a now holds zero/negative-free mass; force a real negative node.
        a.add_mass(
            "src=1.2.3.4/32".parse().unwrap(),
            Popularity::new(-7, -9, 0),
        );
        let bytes = a.encode();
        let back = FlowTree::decode(&bytes, Config::with_budget(256)).unwrap();
        assert_eq!(
            back.comp_of(&"src=1.2.3.4/32".parse().unwrap()),
            Some(Popularity::new(-7, -9, 0))
        );
    }

    #[test]
    fn truncation_always_errors() {
        let bytes = sample_tree().encode();
        for cut in 0..bytes.len().min(64) {
            assert!(FlowTree::decode(&bytes[..cut], Config::paper()).is_err());
        }
        // And a cut in the middle of the node list.
        let cut = bytes.len() - 3;
        assert!(FlowTree::decode(&bytes[..cut], Config::paper()).is_err());
    }

    #[test]
    fn header_errors() {
        let mut bytes = sample_tree().encode();
        bytes[0] = b'X';
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadMagic
        );
        let mut bytes = sample_tree().encode();
        bytes[4] = 9;
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadVersion(9)
        );
        let mut bytes = sample_tree().encode();
        bytes[5] = 99;
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadSchema(99)
        );
    }

    #[test]
    fn trailing_bytes_rejected_but_prefix_ok() {
        let mut bytes = sample_tree().encode();
        let clean = bytes.len();
        bytes.push(0xAA);
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::TrailingBytes
        );
        let (tree, used) = FlowTree::decode_prefix(&bytes, Config::paper()).unwrap();
        assert_eq!(used, clean);
        assert_eq!(tree.len(), sample_tree().len());
    }

    #[test]
    fn hostile_count_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        flowkey::pack::write_varint(&mut bytes, u64::MAX);
        assert!(matches!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadCount(_)
        ));
    }

    #[test]
    fn count_beyond_the_frame_is_rejected_before_any_reservation() {
        // A ten-byte frame claiming the largest admissible count: the
        // decoder used to reserve ~0.5 GB of side tables for it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(3);
        flowkey::pack::write_varint(&mut bytes, MAX_WIRE_NODES as u64);
        assert_eq!(bytes.len(), 10);
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::Truncated
        );
        // The bound is on rows the bytes can hold, not on the count:
        // a real frame whose count is inflated by one fails the same
        // way, and an honest one still decodes.
        let tree = sample_tree();
        let good = tree.encode();
        assert!(FlowTree::decode(&good, Config::paper()).is_ok());
        let mut padded = good[..6].to_vec();
        flowkey::pack::write_varint(&mut padded, good.len() as u64);
        padded.extend_from_slice(&good[6 + varint_len(tree.len() as u64)..]);
        assert_eq!(
            FlowTree::decode(&padded, Config::paper()).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn non_root_first_node_rejected() {
        // Hand-build: count=1 but key non-root.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0); // Src1
        flowkey::pack::write_varint(&mut bytes, 1);
        flowkey::pack::write_varint(&mut bytes, 0);
        pack_key(&mut bytes, &"src=1.0.0.0/8".parse().unwrap());
        for _ in 0..3 {
            flowkey::pack::write_varint_signed(&mut bytes, 0);
        }
        assert!(matches!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadStructure(_)
        ));
    }

    #[test]
    fn bogus_parent_reference_rejected() {
        // Two nodes where the second claims an off-chain parent.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(1); // SrcDst2
        flowkey::pack::write_varint(&mut bytes, 3);
        // Root.
        flowkey::pack::write_varint(&mut bytes, 0);
        pack_key(&mut bytes, &FlowKey::ROOT);
        for _ in 0..3 {
            flowkey::pack::write_varint_signed(&mut bytes, 0);
        }
        // A deep node under root: fine.
        flowkey::pack::write_varint(&mut bytes, 0);
        pack_key(&mut bytes, &"src=1.0.0.0/8 dst=2.0.0.0/8".parse().unwrap());
        for _ in 0..3 {
            flowkey::pack::write_varint_signed(&mut bytes, 1);
        }
        // A node claiming node 1 as parent although it is not an ancestor.
        flowkey::pack::write_varint(&mut bytes, 1);
        pack_key(&mut bytes, &"src=9.0.0.0/8 dst=8.0.0.0/8".parse().unwrap());
        for _ in 0..3 {
            flowkey::pack::write_varint_signed(&mut bytes, 1);
        }
        assert_eq!(
            FlowTree::decode(&bytes, Config::paper()).unwrap_err(),
            CodecError::BadStructure("parent not a chain ancestor")
        );
    }

    #[test]
    fn rows_out_of_preorder_decode_to_the_same_tree() {
        let tree = sample_tree();
        let bytes = tree.encode();
        let d = FlowTree::decode(&bytes, Config::paper()).unwrap();
        // Row `i` is node `i`: subtree sizes, deepest rows first.
        let mut size = vec![1usize; d.len()];
        for id in (1..d.len()).rev() {
            size[d.node(id as u32).parent as usize] += size[id];
        }
        // An inner node whose subtree is not the tail of the stream:
        // moving its descendants to the end keeps every parent before
        // its children and every sibling list in order, but is not a
        // pre-order any more.
        let x = (1..d.len())
            .find(|&id| size[id] > 1 && id + size[id] < d.len())
            .expect("the sample has such a node");
        let moved = |id: usize| id > x && id < x + size[x];
        let order: Vec<usize> = (0..d.len())
            .filter(|&id| !moved(id))
            .chain((0..d.len()).filter(|&id| moved(id)))
            .collect();
        let mut pos_of = vec![0u64; d.len()];
        for (pos, &id) in order.iter().enumerate() {
            pos_of[id] = pos as u64;
        }
        let mut frame = bytes[..6].to_vec();
        write_varint(&mut frame, d.len() as u64);
        for &id in &order {
            let n = d.node(id as u32);
            let parent_pos = if id == 0 {
                0
            } else {
                pos_of[n.parent as usize]
            };
            write_varint(&mut frame, parent_pos);
            pack_key(&mut frame, &n.key);
            write_varint_signed(&mut frame, n.comp.packets);
            write_varint_signed(&mut frame, n.comp.bytes);
            write_varint_signed(&mut frame, n.comp.flows);
        }
        let back = FlowTree::decode(&frame, Config::paper()).unwrap();
        // `validate` holds the tree to the order it claims to be in.
        back.validate();
        let ids: Vec<u32> = (0..back.len() as u32).collect();
        assert_ne!(back.preorder(), ids, "the arena is in stream order");
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.encoded_size(), bytes.len());
    }

    #[test]
    fn decode_raises_budget_to_fit() {
        let tree = sample_tree();
        let bytes = tree.encode();
        let back = FlowTree::decode(&bytes, Config::with_budget(16)).unwrap();
        assert_eq!(back.len(), tree.len(), "decode must not compact away nodes");
    }

    #[test]
    fn encoding_is_compact() {
        let tree = sample_tree();
        let per_node = tree.encoded_size() as f64 / tree.len() as f64;
        assert!(per_node < 32.0, "expected < 32 B/node, got {per_node:.1}");
    }

    #[test]
    fn fuzz_decode_never_panics() {
        let bytes = sample_tree().encode();
        // Flip each byte and decode; must never panic, and whatever
        // decodes is a valid tree.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x5A;
            if let Ok(tree) = FlowTree::decode(&mutated, Config::paper()) {
                tree.validate();
            }
        }
    }
}
