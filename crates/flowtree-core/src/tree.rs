//! The Flowtree data structure.
//!
//! A Flowtree is a **self-adjusting, bounded-size tree of generalized
//! flows**. Structurally it is a path-compressed trie over the canonical
//! generalization chains of [`flowkey`]: every node's tree parent is its
//! nearest retained chain ancestor, and internal *join* nodes are created
//! at the lowest common chain ancestor of diverging keys (exactly like a
//! Patricia trie creates branch nodes). Each node stores its
//! **complementary popularity** — the mass observed at that key that is
//! *not* attributed to any retained descendant — which makes node values
//! additive and therefore the whole structure mergeable and diffable by
//! plain node-wise addition/subtraction (the paper's `merge`/`diff`
//! operators).
//!
//! * **Update** (paper §2): existing key → increment its counter.
//!   Missing key → find the nearest retained ancestor on the key's
//!   canonical chain ("longest matching parent") and splice the node
//!   in. No counts are aggregated up the tree on the hot path, giving
//!   the paper's amortized-constant update.
//! * **Self-adjustment**: when the node count exceeds the budget, the
//!   leaves with the smallest complementary popularity are folded into
//!   their parents until the tree is back under the low-water mark —
//!   "keeping the popular flows and summarizing the less-popular ones".
//! * **Queries** run either in `O(subtree)` for retained keys or in
//!   `O(tree)` for arbitrary hierarchical patterns (paper: "time
//!   proportional to the tree nodes"); see [`crate::query`].
//!
//! ## The update hot path
//!
//! The miss path never re-hashes a whole key, never walks a whole
//! chain and never replays a schedule:
//!
//! * The key's hash is computed once. The node index stores
//!   precomputed 64-bit hashes, so a probe is one masked load plus a
//!   word compare (see [`crate::table`]), and removals and merges
//!   reuse the hash cached on each node.
//! * A miss **descends** from a retained chain ancestor through the
//!   retained children on the key's chain, costing `O(retained chain
//!   ancestors)` instead of `O(depth)`. A descent hop is hash-rolling
//!   arithmetic: the chain's next specialized dimension comes from a
//!   rank comparison ([`flowkey::Schema::chain_step_below`]), and the
//!   hop's step hash rolls from the anchor's stored key hash with two
//!   single-feature hashes.
//! * A child under the same step is classified — ancestor of the key,
//!   descendant, fork, or a 64-bit collision — by the lowest common
//!   chain ancestor in **closed form**
//!   ([`flowkey::Schema::lcca_of_profiles`]): feature hierarchies are
//!   laminar and a chain sheds its levels in decreasing schedule rank,
//!   so two chains coincide exactly down to the lowest-ranked level
//!   they do not share — `O(dims)` arithmetic whatever the depths,
//!   with only the one join key a fork needs ever being materialized.
//!
//! ## What an insert costs
//!
//! * A **hit** is one index probe and one node update.
//! * A **miss** through [`FlowTree::insert_batch`] (every live ingest
//!   path) costs no index probe beyond the one that missed. The batch
//!   settles its hits first, then sorts its misses into chain order
//!   ([`flowkey::ChainOrder`], a table lookup per key nibble) and
//!   places each from a **finger**: the stack of retained chain
//!   ancestors the previous miss descended through, cut back — by one
//!   closed-form LCCA of the two keys — to their common part. So a
//!   miss pays one finger cut, the hops from there to its longest
//!   matching parent (≈ 6 against ≈ 16 from the root on a 64 K-node
//!   tree of 5-tuples; each hop is a child-node load and one LCCA),
//!   and the splice. The scratch this needs belongs to the ingesting
//!   thread, not to the tree.
//! * A miss through the single-key [`FlowTree::insert`] has no
//!   predecessor to start from: it first probes `LINEAR_PROBES` chain
//!   steps **upward** with an incrementally-maintained hash, and
//!   descends from the root if none hits. In a dense tree a retained
//!   ancestor sits within a few steps (150 k random hosts of one /16
//!   under the 1-feature schema: 3.0 probes and 2.9 hops per miss,
//!   against 14.6 hops without the probes). On full 5-tuples the
//!   probes never hit — the nearest retained ancestor is a join ~80
//!   levels up — which is why the batch path has none.
//! * Neither aggregates counts up the tree. The budget check runs
//!   per insert, or once per batch (the tree may transiently exceed
//!   its budget by the batch length, exactly as `merge` does); each
//!   compaction sweeps the arena and builds a heap over every leaf.
//!
//! `flowdist`'s site daemon hashes each record once at decode time and
//! feeds every open window through the batch path with that hash.
//!
//! ## What a tree costs
//!
//! A tree pays for the nodes it holds, not for its budget:
//!
//! * [`FlowTree::new`] allocates the root and the smallest index —
//!   well under 4 KB whatever `node_budget` says. The node arena and
//!   the key index then grow geometrically, like a `Vec`.
//! * The arena costs ≈ 208 B per node (a seven-feature key, two
//!   hashes, five links, three counters, touch and generation), plus
//!   up to 2× doubling slack while the tree is growing.
//! * The index costs 16 B × 1.14–2.3 per node (see [`crate::table`]),
//!   and only while the tree is **thawed**.
//! * Whoever knows a size allocates it once: `clone` allocates exactly
//!   what it copies, and a site daemon reserves a new window from its
//!   predecessor's final node count ([`FlowTree::reserve`]), so steady
//!   ingest does not reallocate.
//! * The decoder allocates exactly the arena the validated frame
//!   count asks for and no index: a decoded tree comes back
//!   **frozen** (below), its nodes in stream order (see
//!   [`crate::codec`]).
//! * [`FlowTree::shrink_to_fit`] **freezes** a tree that is about to
//!   be stored and mostly read — a collector's stored window, a
//!   relay's pinned delta base, a closed window queued for the
//!   encoder: the arena is squeezed to exactly the live nodes and the
//!   free list and the index are dropped. The squeeze is
//!   [`FlowTree::relayout_preorder`], in place, so a tree that
//!   compacted rests in pre-order (below); a tree without dead slots
//!   keeps its arena as it is.
//!   Merge/diff *sources*, `encode`, `hhh`, `top_k` and every other
//!   whole-tree walk read a frozen tree as it is. The first operation
//!   that needs the index — a point lookup, an insert, being a
//!   merge/diff *destination* — rebuilds it in one arena sweep (the
//!   tree is then thawed again, arena still exact until it grows).
//!
//! ## Arena order
//!
//! A node's id is its slot in the arena. Arena order decides what a
//! walk costs, never a result: sibling lists are linked in a canonical
//! order, and queries, the encoding and a merge/diff, with the tree as
//! source or as destination, are functions of the node set, the
//! masses and the `touch` stamps.
//!
//! * Inserts and merges append new nodes or refill freed slots, and a
//!   join lands after the children it joins. Compaction frees slots
//!   all over the arena. A tree that compacted and then grew again is
//!   **scattered**: a walk in tree order misses the cache on nearly
//!   every node, at ≈ 208 B a node.
//! * Every walk in tree order — the codec, a merge/diff reading its
//!   source, [`FlowTree::estimate_pattern`],
//!   [`FlowTree::estimate_refinements`] — takes one pre-order, the
//!   order of the encoding. [`FlowTree::relayout_preorder`] renumbers
//!   the arena into it in place. A decoded tree is in it already (row
//!   `i` is node `i`), and so is a tree that
//!   [`FlowTree::shrink_to_fit`] squeezed. Such a tree knows it, until
//!   a node is allocated, freed or relinked, and the codec and a merge
//!   then read its slots front to back instead of walking down from
//!   the root. `flowdist::Collector` re-lays out a cached merged view
//!   once after each compaction ("Merged-view cache" there).
//! * Whole-tree folds (subtree sums, [`FlowTree::hhh`],
//!   [`FlowTree::top_k`]) read the slots front to back, whatever the
//!   order, and then fold child into parent deepest first.
//!
//! ## Structural merge
//!
//! Whole summaries combine without the insert path:
//! [`FlowTree::merge`] and the k-way [`FlowTree::merge_many`] read the
//! source in pre-order, the order of its encoding: a hash-join sweep
//! (one stored-hash probe per node; matches add masses node-wise),
//! then placement of only the missed nodes, each attached directly
//! under its already-placed source parent at its stored sibling step
//! — splices and joins are computed by the same analytic profile
//! arithmetic as the insert path. Sibling
//! lists are kept in a canonical order, so the wire encoding of a tree
//! depends only on its node masses: any merge order, sharded fold, or
//! batch schedule that produces the same masses produces the same
//! bytes.

use crate::config::{Config, EvictionPolicy};
use crate::pop::Popularity;
use crate::table::KeyIndex;
use flowkey::{key_hash, ChainOrder, DepthProfile, FlowKey, Schema};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

pub(crate) const NIL: u32 = u32::MAX;

/// Chain probes the single-key insert makes upward (one step at a
/// time) before it gives up and descends from the root instead. Covers
/// a retained ancestor within a few steps; the batch path has a finger
/// instead and never probes (module docs, "What an insert costs").
const LINEAR_PROBES: usize = 4;

/// Key shapes whose [`ChainOrder`] a thread keeps. Real traffic rotates
/// through a handful (v4/v6 × full/partial tuples); eight covers the
/// mixes seen in the traces while keeping the linear probe trivial.
const ORDER_MEMO_CAP: usize = 8;

thread_local! {
    /// Reusable DFS stack for subtree sums, so point queries do not
    /// allocate per call.
    static DFS_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };

    /// Reusable stack of [`FlowTree::walk_by`]: `(node, parent's
    /// position)` pairs, so encodes and merges do not allocate one.
    static WALK_STACK: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };

    /// Working memory of [`FlowTree::insert_batch_prehashed`]'s second
    /// pass. It belongs to the ingesting thread, not to a tree: a site
    /// opens a tree per window, and none of them should pay for it.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::default();
}

/// See [`BATCH_SCRATCH`].
#[derive(Default)]
struct BatchScratch {
    /// `(chain-order key, position in the batch)` per miss.
    misses: Vec<(u128, usize)>,
    /// The finger: `(node, depth)` of retained chain ancestors of the
    /// miss placed last, root first, ending at that miss's own node.
    finger: Vec<(u32, u32)>,
    /// Chain orders by key shape, most recently used first.
    orders: Vec<(Schema, DepthProfile, ChainOrder)>,
}

/// The memoized [`ChainOrder`] of a key shape, built the first time a
/// thread sees the shape.
fn order_for<'a>(
    orders: &'a mut Vec<(Schema, DepthProfile, ChainOrder)>,
    schema: &Schema,
    profile: DepthProfile,
) -> &'a ChainOrder {
    match orders
        .iter()
        .position(|(s, p, _)| *p == profile && s == schema)
    {
        Some(i) => orders[..=i].rotate_right(1),
        None => {
            orders.truncate(ORDER_MEMO_CAP - 1);
            orders.insert(0, (*schema, profile, ChainOrder::new(schema, profile)));
        }
    }
    &orders[0].2
}

/// Errors from Flowtree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// `merge`/`diff` was attempted between trees of different schemas.
    SchemaMismatch,
}

impl core::fmt::Display for TreeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TreeError::SchemaMismatch => f.write_str("flowtrees have different schemas"),
        }
    }
}

impl std::error::Error for TreeError {}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) key: FlowKey,
    /// [`flowkey::key_hash`] of `key`, so removals and merges never
    /// re-hash the 7-feature key.
    pub(crate) key_hash: u64,
    pub(crate) depth: u32,
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) prev_sibling: u32,
    /// Key hash of this node's chain step at `parent.depth + 1`; lets
    /// sibling scans compare one word instead of recomputing chain
    /// ancestors.
    pub(crate) step_hash: u64,
    pub(crate) comp: Popularity,
    pub(crate) touch: u64,
    pub(crate) generation: u32,
    pub(crate) alive: bool,
}

/// Counters describing the work a Flowtree has done — used by the
/// benchmarks to demonstrate the amortized-constant update cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Total mass-insert operations (updates).
    pub inserts: u64,
    /// Updates that hit an existing node.
    pub hits: u64,
    /// Updates that created a node.
    pub misses: u64,
    /// Index probes performed while searching longest matching parents
    /// (the single-key insert's linear-prefix phase; each probe is one
    /// hash-table lookup; the batch path makes none). Probes alone
    /// undercount a cold miss's search work — see
    /// [`Stats::descent_hops`] for the other half.
    pub chain_steps: u64,
    /// Retained-child descent hops taken while splicing misses: one
    /// per tree level walked from the search anchor down to the true
    /// longest matching parent. `chain_steps + descent_hops` is the
    /// full parent-search work, `O(retained chain ancestors)` per cold
    /// miss instead of the seed path's `O(depth)` full-key-hash probes.
    pub descent_hops: u64,
    /// Join (branch) nodes created.
    pub joins_created: u64,
    /// Compaction runs.
    pub compactions: u64,
    /// Leaves folded into their parents by compactions.
    pub evictions: u64,
    /// Pass-through nodes contracted away.
    pub contractions: u64,
    /// Nodes placed by the structural merge's wholesale graft/splice
    /// path — allocated and attached from another tree's stored key
    /// hashes with **zero** index probes (see [`FlowTree::merge_many`]).
    pub grafted_nodes: u64,
}

impl Stats {
    /// Mean parent-search probes per update — the "amortized constant"
    /// the paper claims; stays small and flat as the trace grows.
    pub fn mean_chain_steps(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.chain_steps as f64 / self.inserts as f64
        }
    }
}

/// A read-only view of one tree node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView<'a> {
    /// The generalized flow this node summarizes.
    pub key: &'a FlowKey,
    /// Complementary popularity: mass at `key` not attributed to any
    /// retained descendant.
    pub comp: Popularity,
    /// Chain depth of the key.
    pub depth: u32,
    /// Key of the tree parent (`None` for the root).
    pub parent: Option<&'a FlowKey>,
    /// Whether the node currently has no children.
    pub is_leaf: bool,
}

/// Chain depth of a key (conforming to the tree's schema) from its
/// profile.
#[inline]
pub(crate) fn profile_depth(p: &DepthProfile) -> u32 {
    p.0.iter().map(|d| *d as u32).sum()
}

/// Hash of `to`'s chain step directly below `from`, a chain ancestor of
/// `to` with hash `from_hash`: the step specializes exactly one
/// dimension to `level`, so it rolls from `from_hash` with two
/// single-feature hashes and no key is built.
#[inline]
pub(crate) fn roll_step(
    from: &FlowKey,
    from_hash: u64,
    to: &FlowKey,
    dim: flowkey::Dim,
    level: u16,
) -> u64 {
    let step = from_hash
        .wrapping_sub(flowkey::dim_hash(from, dim))
        .wrapping_add(flowkey::dim_hash_at(to, dim, level));
    debug_assert_eq!(
        step,
        {
            let mut at = DepthProfile::of(from);
            at.0[dim.index()] = level;
            key_hash(&to.at_profile(&at))
        },
        "rolled step hash is exact"
    );
    step
}

/// Relationship of a key `b` that is being placed against a retained
/// child `c` that shares its chain step under the anchor.
enum StepRel {
    /// The step-hash match was a 64-bit collision (the true join sits
    /// at or above the anchor): keep scanning siblings.
    Collision,
    /// `c` holds `b`'s key.
    Same,
    /// `b` lies on `c`'s chain above it; carries the hash of `c`'s
    /// step under `b`.
    SpliceAbove(u64),
    /// `c` is a chain ancestor of `b`; carries the hash of `b`'s step
    /// under `c`.
    Descend(u64),
    /// The keys fork strictly below the anchor.
    Fork(Fork),
}

/// Two keys forking below an anchor: `b`, which is being placed, and
/// the retained child `c` it shares a chain step with.
struct Fork {
    /// The lowest common chain ancestor (the join key).
    join: FlowKey,
    join_hash: u64,
    join_depth: u32,
    /// Hash of `c`'s step under the join.
    step_c: u64,
    /// Hash of `b`'s step under the join.
    step_b: u64,
}

/// Classifies `b` against `c` (see [`StepRel`]) with the closed-form
/// LCCA of [`Schema::lcca_of_profiles`]: `O(dims)` arithmetic on the
/// two depth profiles and their agreement, whatever the depths. No
/// schedule is replayed and no chain is walked; the join key is built
/// only when a fork needs it, and every step hash rolls from a hash
/// already at hand.
#[allow(clippy::too_many_arguments)]
fn classify_step(
    schema: &Schema,
    a_depth: u32,
    c_key: &FlowKey,
    c_hash: u64,
    c_depth: u32,
    b_key: &FlowKey,
    b_hash: u64,
    b_depth: u32,
    b_profile: &DepthProfile,
) -> StepRel {
    let c_profile = DepthProfile::of(c_key);
    let meet = schema.lcca_of_profiles(&b_key.agreement_profile(c_key), b_profile, &c_profile);
    let join_depth = profile_depth(&meet);
    if join_depth <= a_depth {
        return StepRel::Collision;
    }
    // The chain-walking oracle, where a restructure rests on the
    // answer (a descent hop is re-examined one level down anyway, and
    // walking two chains per hop is what makes debug builds crawl).
    debug_assert!(
        join_depth == c_depth && join_depth < b_depth
            || schema.lcca(b_key, c_key) == b_key.at_profile(&meet),
        "analytic LCCA must match the chain-walking definition"
    );
    let below = |p: &DepthProfile| {
        schema
            .chain_step_below(&meet, p)
            .expect("the key is deeper than the join")
    };
    if join_depth == b_depth {
        if join_depth == c_depth {
            return StepRel::Same;
        }
        // `b` is `c`'s chain ancestor (and the join itself).
        let (dim, level) = below(&c_profile);
        return StepRel::SpliceAbove(roll_step(b_key, b_hash, c_key, dim, level));
    }
    let (dim_b, level_b) = below(b_profile);
    if join_depth == c_depth {
        return StepRel::Descend(roll_step(c_key, c_hash, b_key, dim_b, level_b));
    }
    let join = b_key.at_profile(&meet);
    let join_hash = key_hash(&join);
    let (dim_c, level_c) = below(&c_profile);
    StepRel::Fork(Fork {
        join,
        join_hash,
        join_depth,
        step_c: roll_step(&join, join_hash, c_key, dim_c, level_c),
        step_b: roll_step(&join, join_hash, b_key, dim_b, level_b),
    })
}

/// Where [`FlowTree::locate`] found a key to belong: under `anchor`
/// at chain step `step`, which is either free or `taken` by a child
/// the key is ([`StepRel::Same`]), splices above or forks from.
struct Spot {
    anchor: u32,
    step: u64,
    taken: Option<(u32, StepRel)>,
}

/// The self-adjusting flow summary of Saidi et al. (SIGCOMM 2018).
///
/// See the crate-level docs for the design. Typical use:
///
/// ```
/// use flowtree_core::{Config, FlowTree, Popularity};
/// use flowkey::Schema;
///
/// let mut tree = FlowTree::new(Schema::two_feature(), Config::with_budget(1024));
/// let key = "src=10.0.0.1/32 dst=192.0.2.9/32".parse().unwrap();
/// tree.insert(&key, Popularity::packet(1500));
/// let answer = tree.popularity(&key);
/// assert_eq!(answer.est.packets, 1.0);
/// assert!(answer.tracked);
/// ```
#[derive(Debug, Clone)]
pub struct FlowTree {
    pub(crate) schema: Schema,
    pub(crate) cfg: Config,
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<u32>,
    /// Key → node id. Unset while the tree is frozen (see the module
    /// docs); a `OnceLock` because lookups take `&self` and stored
    /// trees are shared across threads as `Arc<FlowTree>`, so the lazy
    /// rebuild must stay `Sync`.
    index: OnceLock<KeyIndex>,
    pub(crate) root: u32,
    pub(crate) live: usize,
    pub(crate) clock: u64,
    pub(crate) total: Popularity,
    pub(crate) stats: Stats,
    /// Node `i` is the `i`-th of the pre-order and no slot is dead
    /// (module docs, "Arena order"). Set by decoding and by
    /// [`FlowTree::relayout_preorder`]; cleared by everything that
    /// allocates, frees or relinks a node, all of which goes through
    /// [`FlowTree::index_mut`].
    preordered: bool,
}

impl FlowTree {
    /// Creates an empty Flowtree (just the all-wildcard root).
    pub fn new(schema: Schema, cfg: Config) -> FlowTree {
        let root = Self::root_node(&schema);
        // O(1) whatever the budget: the root and the smallest index.
        // Arena and index grow on demand; a caller that knows how many
        // nodes are coming says so with `reserve` (module docs, "What
        // a tree costs").
        let mut index = KeyIndex::with_capacity(0);
        index.insert(root.key_hash, 0);
        FlowTree {
            schema,
            cfg,
            nodes: vec![root],
            free: Vec::new(),
            index: OnceLock::from(index),
            root: 0,
            live: 1,
            clock: 0,
            total: Popularity::ZERO,
            stats: Stats::default(),
            preordered: true,
        }
    }

    /// The all-wildcard root node of `schema`, linked to nothing.
    fn root_node(schema: &Schema) -> Node {
        let key = schema.root();
        Node {
            key,
            key_hash: key_hash(&key),
            depth: 0,
            parent: NIL,
            first_child: NIL,
            next_sibling: NIL,
            prev_sibling: NIL,
            step_hash: 0,
            comp: Popularity::ZERO,
            touch: 0,
            generation: 0,
            alive: true,
        }
    }

    /// A **frozen** tree holding only the root, whose arena has room
    /// for exactly `nodes` nodes, root included: what the decoder bulk
    /// loads into ([`FlowTree::push_first_child`]) without ever
    /// reallocating or building an index.
    pub(crate) fn frozen_with_arena(schema: Schema, cfg: Config, nodes: usize) -> FlowTree {
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(Self::root_node(&schema));
        FlowTree {
            schema,
            cfg,
            nodes: arena,
            free: Vec::new(),
            index: OnceLock::new(),
            root: 0,
            live: 1,
            clock: 0,
            total: Popularity::ZERO,
            stats: Stats::default(),
            preordered: true,
        }
    }

    /// The decoder's bulk append: records `key` as a new node at the
    /// end of the arena and links it in front of `parent`'s children —
    /// O(1), no search and no index. The caller has verified that
    /// `parent` is a strict chain ancestor of `key`, and `step_hash`
    /// is the key's chain step under it.
    ///
    /// Refuses (returns `false`, changing nothing) unless `step_hash` is
    /// strictly below the step of `parent`'s first child, and therefore
    /// of all its children, siblings being sorted ascending. A
    /// stream whose every row passes that check names each node's
    /// longest retained chain ancestor as its parent and holds no key
    /// twice (the codec module docs give the argument), so the tree
    /// this builds is exactly the one inserting the rows would.
    ///
    /// Counts one insert and one miss and advances the clock, like the
    /// insert that creates a node. Only for a frozen tree that has not
    /// lost a node (the index is unset, ids are arena positions). The
    /// arena stays in pre-order while every node hangs under the node
    /// before it or one of that node's ancestors.
    pub(crate) fn push_first_child(
        &mut self,
        parent: u32,
        key: FlowKey,
        hash: u64,
        depth: u32,
        step_hash: u64,
        comp: Popularity,
    ) -> bool {
        debug_assert!(self.index.get().is_none() && self.free.is_empty());
        let next = self.nodes[parent as usize].first_child;
        if next != NIL && self.nodes[next as usize].step_hash <= step_hash {
            return false;
        }
        let id = self.nodes.len() as u32;
        if self.preordered {
            // In pre-order an ancestor's id is below its descendants':
            // climb from the previous node until at or below `parent`.
            // A node climbed past is never climbed past again.
            let mut at = id - 1;
            while at > parent {
                at = self.nodes[at as usize].parent;
            }
            self.preordered = at == parent;
        }
        self.clock += 1;
        self.stats.inserts += 1;
        self.stats.misses += 1;
        self.total += comp;
        self.live += 1;
        self.nodes.push(Node {
            key,
            key_hash: hash,
            depth,
            parent,
            first_child: NIL,
            next_sibling: next,
            prev_sibling: NIL,
            step_hash,
            comp,
            touch: self.clock,
            generation: 0,
            alive: true,
        });
        if next != NIL {
            self.nodes[next as usize].prev_sibling = id;
        }
        self.nodes[parent as usize].first_child = id;
        true
    }

    /// Creates a Flowtree with the paper's evaluation configuration
    /// (40 K nodes).
    pub fn with_schema(schema: Schema) -> FlowTree {
        FlowTree::new(schema, Config::paper())
    }

    /// Reserves room for at least `additional` more nodes, in the
    /// arena and in the key index, so that many inserts (or merged-in
    /// nodes) allocate nothing further. Like `Vec::reserve`, a hint:
    /// the tree grows on demand without it. The site daemon's window
    /// open is the in-tree caller.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.index_mut().reserve(additional);
    }

    /// Freezes the tree for storage: squeezes the arena to exactly
    /// the live nodes and drops the free list and the key index.
    /// Dead slots are squeezed out by [`FlowTree::relayout_preorder`],
    /// so a tree that compacted rests in pre-order; a tree without
    /// dead slots keeps its arena as it is.
    /// Nothing observable changes — encodings, query answers and the
    /// tree's behaviour as a merge/diff source or destination are
    /// those of the unfrozen tree; the first operation that needs the
    /// index rebuilds it (module docs, "What a tree costs").
    pub fn shrink_to_fit(&mut self) {
        self.index = OnceLock::new();
        if !self.free.is_empty() {
            self.relayout_preorder();
        }
        self.nodes.shrink_to_fit();
        self.free = Vec::new();
    }

    /// Renumbers the arena **in place** so that id order is the tree's
    /// pre-order — the order the codec, a merge reading its source and
    /// every tree-order query walk
    /// ([`FlowTree::estimate_pattern`],
    /// [`FlowTree::estimate_refinements`]) visit nodes in — and squeezes
    /// out the free slots. A walk down the tree then reads the arena
    /// front to back instead of jumping around it, and the codec and
    /// merges read it without walking at all (module docs, "Arena
    /// order"). A tree known to be in pre-order already is left alone.
    ///
    /// Only ids change. Links and key-index entries are remapped in
    /// place, and no second arena is allocated (a few words per slot
    /// are, while it runs). Sibling order, masses, `touch`,
    /// `generation`, the clock and [`Stats`] stay as they are, so
    /// encodings, query answers and the tree's behaviour as a merge/diff
    /// source or destination do not change. The arena keeps its
    /// capacity, and the index stays as built or unset.
    pub fn relayout_preorder(&mut self) {
        if self.preordered {
            return;
        }
        // The walk reads the links from one pass over the slots: on a
        // scattered arena it then jumps around 8 B per node, not 208.
        let links: Vec<(u32, u32)> = self
            .nodes
            .iter()
            .map(|n| (n.first_child, n.next_sibling))
            .collect();
        let mut remap = vec![NIL; self.nodes.len()];
        self.walk_by(
            |id| links[id as usize],
            |pos, id, _| remap[id as usize] = pos,
        );
        drop(links);
        let moved = |id: u32| if id == NIL { NIL } else { remap[id as usize] };
        for n in self.nodes.iter_mut().filter(|n| n.alive) {
            n.parent = moved(n.parent);
            n.first_child = moved(n.first_child);
            n.next_sibling = moved(n.next_sibling);
            n.prev_sibling = moved(n.prev_sibling);
        }
        if let Some(index) = self.index.get_mut() {
            index.remap_ids(&remap);
        }
        // Follow each cycle of the permutation: every swap moves one
        // live node into its final slot, and a freed node stops the
        // cycle it lands in, so the freed ones end up past `live`.
        for at in 0..self.nodes.len() {
            loop {
                let to = remap[at];
                if to == NIL || to as usize == at {
                    break;
                }
                self.nodes.swap(at, to as usize);
                remap.swap(at, to as usize);
            }
        }
        self.nodes.truncate(self.live);
        self.free.clear();
        self.root = 0;
        self.preordered = true;
    }

    /// The key index, rebuilt from the arena if the tree is frozen.
    #[inline]
    fn index(&self) -> &KeyIndex {
        self.index.get_or_init(|| {
            let mut index = KeyIndex::with_capacity(self.live);
            for (id, n) in self.nodes.iter().enumerate() {
                if n.alive {
                    index.insert(n.key_hash, id as u32);
                }
            }
            index
        })
    }

    /// [`FlowTree::index`] for the paths that add or remove entries:
    /// every path that allocates, frees or relinks a node, so it also
    /// forgets that the arena was in pre-order.
    #[inline]
    fn index_mut(&mut self) -> &mut KeyIndex {
        self.preordered = false;
        self.index();
        self.index.get_mut().expect("initialised on the line above")
    }

    /// The flow schema of this tree.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration of this tree.
    #[inline]
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Switches the residual-mass estimator used by queries. Estimators
    /// only affect reads, so this is always safe — useful for asking
    /// lower/upper-bound questions of one already-built tree.
    #[inline]
    pub fn set_estimator(&mut self, estimator: crate::Estimator) {
        self.cfg.estimator = estimator;
    }

    /// Current number of nodes (including root and join nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tree holds only the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 1
    }

    /// Total mass ever inserted (conserved by compaction; adjusted by
    /// merge/diff).
    #[inline]
    pub fn total(&self) -> Popularity {
        self.total
    }

    /// Work counters.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Looks up the node id of `key` given its precomputed hash.
    #[inline]
    pub(crate) fn lookup(&self, key: &FlowKey, hash: u64) -> Option<u32> {
        let nodes = &self.nodes;
        self.index().get(hash, |id| nodes[id as usize].key == *key)
    }

    /// Whether `key` is currently retained as a node.
    pub fn contains_key(&self, key: &FlowKey) -> bool {
        self.lookup(key, key_hash(key)).is_some()
    }

    /// The complementary popularity stored at `key`, if retained.
    pub fn comp_of(&self, key: &FlowKey) -> Option<Popularity> {
        self.lookup(key, key_hash(key))
            .map(|id| self.nodes[id as usize].comp)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Records `pop` mass for `key` (the paper's *update* operation) and
    /// compacts if the node budget is exceeded.
    ///
    /// `key` is canonicalized to the tree's schema (inactive dimensions
    /// forced to wildcards), so callers can pass full 5-tuple keys to any
    /// tree.
    pub fn insert(&mut self, key: &FlowKey, pop: Popularity) {
        let key = self.schema.canonicalize(key);
        let hash = key_hash(&key);
        self.add_mass_hashed(key, hash, pop);
        if self.live > self.cfg.node_budget {
            self.compact();
        }
    }

    /// Records a batch of masses, amortizing per-update overhead:
    /// each key is canonicalized and hashed exactly once, hits are
    /// settled first and the misses then placed in chain order (see
    /// [`FlowTree::insert_batch_prehashed`]), and the budget check runs
    /// once at the end (the tree may transiently exceed its budget by
    /// the batch length, exactly as [`FlowTree::merge`] does).
    ///
    /// With compaction out of play (budget not exceeded), the resulting
    /// tree is identical to repeated [`FlowTree::insert`]: the retained
    /// node set is closed under pairwise chain joins and per-key masses
    /// are sums, both independent of insertion order.
    pub fn insert_batch(&mut self, batch: &[(FlowKey, Popularity)]) {
        let mut items: Vec<(u64, FlowKey, Popularity)> = batch
            .iter()
            .map(|(k, p)| {
                let k = self.schema.canonicalize(k);
                (key_hash(&k), k, *p)
            })
            .collect();
        self.insert_batch_prehashed(&mut items);
    }

    /// [`FlowTree::insert_batch`] over pre-canonicalized, pre-hashed
    /// items, in two passes:
    ///
    /// 1. in arrival order, every item whose key is retained adds its
    ///    mass there — one index probe each; the others are set aside;
    /// 2. the misses are sorted into **chain order**
    ///    ([`flowkey::ChainOrder`]: depth-first over the trie, as far
    ///    as a 128-bit hint can tell) and each is placed starting from
    ///    the **finger** — the retained chain ancestors its
    ///    predecessor descended through, cut back to where the two
    ///    chains part — instead of from the root. Nothing is removed
    ///    before the closing budget check, so finger entries stay
    ///    valid for the whole pass.
    ///
    /// The update clock follows that processing order: within a batch
    /// the hits are stamped in arrival order, then the new nodes in
    /// chain order (a join shares the stamp of the miss that created
    /// it). `touch` only breaks ties among equal-weight eviction
    /// candidates, so which of them a compaction folds can differ from
    /// what repeated [`FlowTree::insert`] would have folded; node masses,
    /// and with compaction out of play the whole tree, do not.
    ///
    /// `items` is not modified.
    pub fn insert_batch_prehashed(&mut self, items: &mut [(u64, FlowKey, Popularity)]) {
        BATCH_SCRATCH.with_borrow_mut(|scratch| {
            scratch.misses.clear();
            for (at, (hash, key, pop)) in items.iter().enumerate() {
                if self.hit(key, *hash, *pop).is_none() {
                    scratch.misses.push((0, at));
                }
            }
            self.place_misses(items, scratch);
        });
        if self.live > self.cfg.node_budget {
            self.compact();
        }
    }

    /// Pass 2 of [`FlowTree::insert_batch_prehashed`].
    fn place_misses(&mut self, items: &[(u64, FlowKey, Popularity)], scratch: &mut BatchScratch) {
        let schema = self.schema;
        let BatchScratch {
            misses,
            finger,
            orders,
        } = scratch;
        if misses.len() > 1 {
            for (order_key, at) in misses.iter_mut() {
                let key = &items[*at].1;
                *order_key = order_for(orders, &schema, DepthProfile::of(key)).key(key);
            }
            // Ties (duplicates, truncated keys) keep arrival order.
            misses.sort_unstable();
        }
        finger.clear();
        finger.push((self.root, 0));
        let mut prev: Option<(FlowKey, DepthProfile)> = None;
        for &(_, at) in misses.iter() {
            let (hash, key, pop) = items[at];
            let profile = DepthProfile::of(&key);
            if let Some((prev_key, prev_profile)) = &prev {
                // Every finger entry lies on the previous miss's chain;
                // the two chains coincide down to their LCCA and
                // nowhere below it.
                let meet = schema.lcca_of_profiles(
                    &key.agreement_profile(prev_key),
                    &profile,
                    prev_profile,
                );
                let shared = profile_depth(&meet);
                while finger.last().is_some_and(|&(_, depth)| depth > shared) {
                    finger.pop();
                }
            }
            let anchor = finger.last().expect("the root is never popped").0;
            self.insert_below(anchor, key, hash, &profile, pop, Some(finger));
            prev = Some((key, profile));
        }
    }

    /// Inserts mass without triggering compaction (used by merge/diff
    /// and the codec, which compact once at the end). Returns the node
    /// id.
    pub(crate) fn add_mass(&mut self, key: FlowKey, pop: Popularity) -> u32 {
        let hash = key_hash(&key);
        self.add_mass_hashed(key, hash, pop)
    }

    /// [`FlowTree::add_mass`] with the key hash already known (merge
    /// and diff reuse the hashes stored on the other tree's nodes).
    pub(crate) fn add_mass_hashed(&mut self, key: FlowKey, hash: u64, pop: Popularity) -> u32 {
        debug_assert!(self.schema.conforms(&key));
        debug_assert_eq!(hash, key_hash(&key), "stale key hash");
        if let Some(id) = self.hit(&key, hash, pop) {
            return id;
        }
        // Longest-matching-parent search, phase 1: probe a short linear
        // prefix of the chain with incrementally-maintained hashes — a
        // dense tree retains an ancestor within a few steps. Phase 2
        // (no hit): anchor at the root and descend through the retained
        // children on the key's chain; descent visits only *retained*
        // ancestors, so a cold miss costs O(retained chain ancestors)
        // instead of O(depth).
        let schema = self.schema;
        let mut anchor = self.root;
        for (anc, anc_hash) in schema.chain_up_hashed(&key, hash).take(LINEAR_PROBES) {
            self.stats.chain_steps += 1;
            if let Some(id) = self.lookup(&anc, anc_hash) {
                anchor = id;
                break;
            }
        }
        self.insert_below(anchor, key, hash, &DepthProfile::of(&key), pop, None)
    }

    /// Counts one update and, if `key` is retained, adds `pop` to its
    /// node.
    #[inline]
    fn hit(&mut self, key: &FlowKey, hash: u64, pop: Popularity) -> Option<u32> {
        let id = self.lookup(key, hash)?;
        self.count_hit(id, pop);
        Some(id)
    }

    #[inline]
    fn count_hit(&mut self, id: u32, pop: Popularity) {
        self.clock += 1;
        self.stats.inserts += 1;
        self.stats.hits += 1;
        self.total += pop;
        let node = &mut self.nodes[id as usize];
        node.comp += pop;
        node.touch = self.clock;
    }

    /// Records an update of a key the index did not hold when it was
    /// asked, searching down from `anchor`: any retained chain ancestor
    /// of the key, or the key's own node (a batch can miss one key
    /// twice). `trail`, which must end at `anchor`, is extended by
    /// `(node, depth)` of every node on the key's chain the search
    /// descends into or creates, the key's own node last.
    fn insert_below(
        &mut self,
        anchor: u32,
        key: FlowKey,
        hash: u64,
        profile: &DepthProfile,
        pop: Popularity,
        mut trail: Option<&mut Vec<(u32, u32)>>,
    ) -> u32 {
        let depth = profile_depth(profile);
        debug_assert_eq!(depth, self.schema.depth(&key));
        let a = &self.nodes[anchor as usize];
        if a.depth == depth {
            debug_assert_eq!(a.key, key, "a chain has one key per depth");
            self.count_hit(anchor, pop);
            return anchor;
        }
        let (dim, level) = self
            .schema
            .chain_step_below(&DepthProfile::of(&a.key), profile)
            .expect("the anchor is a strict chain ancestor");
        let step = roll_step(&a.key, a.key_hash, &key, dim, level);
        let (spot, hops) = self.locate(
            anchor,
            step,
            &key,
            hash,
            depth,
            profile,
            trail.as_deref_mut(),
        );
        self.stats.descent_hops += hops;
        let (nid, join_depth) = match spot.taken {
            Some((id, StepRel::Same)) => {
                self.count_hit(id, pop);
                (id, None)
            }
            _ => {
                self.clock += 1;
                self.stats.inserts += 1;
                self.stats.misses += 1;
                self.total += pop;
                let join_depth = match &spot.taken {
                    Some((_, StepRel::Fork(fork))) => Some(fork.join_depth),
                    _ => None,
                };
                // One tick for the whole update: a join shares the
                // stamp of the node it was made for.
                (self.create(spot, key, hash, depth, pop, 0), join_depth)
            }
        };
        if let Some(trail) = trail {
            if let Some(join_depth) = join_depth {
                trail.push((self.nodes[nid as usize].parent, join_depth));
            }
            trail.push((nid, depth));
        }
        nid
    }

    /// Finds where `key` belongs below `anchor` (a retained strict
    /// chain ancestor; `step` is the hash of the key's chain step
    /// directly under it), descending through retained children on the
    /// key's chain until the true longest matching parent is reached.
    /// Changes nothing; also returns the levels it visited.
    ///
    /// A hop never materializes a chain key: the step hash rolls from
    /// the anchor's stored key hash with two single-feature hashes, and
    /// a child under the same step is classified by
    /// [`classify_step`]'s closed-form LCCA. A false 64-bit step match
    /// computes an LCCA at or above the anchor and resumes the sibling
    /// scan, so collisions degrade to extra work, never to a wrong
    /// tree.
    #[allow(clippy::too_many_arguments)]
    fn locate(
        &self,
        mut anchor: u32,
        mut step: u64,
        key: &FlowKey,
        hash: u64,
        depth: u32,
        profile: &DepthProfile,
        mut trail: Option<&mut Vec<(u32, u32)>>,
    ) -> (Spot, u64) {
        let mut hops = 0;
        'descend: loop {
            hops += 1;
            let a = &self.nodes[anchor as usize];
            let mut cur = a.first_child;
            while cur != NIL {
                let c = &self.nodes[cur as usize];
                // Siblings are sorted by step hash (see `attach`).
                if c.step_hash > step {
                    break;
                }
                if c.step_hash == step {
                    match classify_step(
                        &self.schema,
                        a.depth,
                        &c.key,
                        c.key_hash,
                        c.depth,
                        key,
                        hash,
                        depth,
                        profile,
                    ) {
                        // Analytically-refuted hash match (astronomically
                        // rare): keep scanning the remaining siblings.
                        StepRel::Collision => {}
                        StepRel::Descend(step_b) => {
                            if let Some(trail) = trail.as_deref_mut() {
                                trail.push((cur, c.depth));
                            }
                            anchor = cur;
                            step = step_b;
                            continue 'descend;
                        }
                        rel => {
                            let taken = Some((cur, rel));
                            return (
                                Spot {
                                    anchor,
                                    step,
                                    taken,
                                },
                                hops,
                            );
                        }
                    }
                }
                cur = c.next_sibling;
            }
            let taken = None;
            return (
                Spot {
                    anchor,
                    step,
                    taken,
                },
                hops,
            );
        }
    }

    /// Allocates the node for an absent key (and the join a fork needs)
    /// and links it in where [`FlowTree::locate`] said. The update
    /// clock advances by `ticks` before each allocation: an insert has
    /// ticked once for the whole update already (0), a merge gives
    /// every node it creates a tick of its own (1).
    fn create(
        &mut self,
        spot: Spot,
        key: FlowKey,
        hash: u64,
        depth: u32,
        comp: Popularity,
        ticks: u64,
    ) -> u32 {
        let alloc = |tree: &mut FlowTree, key, hash, depth, comp| {
            tree.clock += ticks;
            let id = tree.alloc(key, hash, depth, comp);
            tree.index_mut().insert(hash, id);
            id
        };
        let Spot {
            anchor,
            step,
            taken,
        } = spot;
        match taken {
            None => {
                let nid = alloc(self, key, hash, depth, comp);
                self.attach(nid, anchor, step);
                nid
            }
            Some((child, StepRel::SpliceAbove(step_c))) => {
                let nid = alloc(self, key, hash, depth, comp);
                self.detach(child);
                self.attach(nid, anchor, step);
                self.attach(child, nid, step_c);
                nid
            }
            Some((child, StepRel::Fork(fork))) => {
                let jid = alloc(
                    self,
                    fork.join,
                    fork.join_hash,
                    fork.join_depth,
                    Popularity::ZERO,
                );
                self.stats.joins_created += 1;
                let nid = alloc(self, key, hash, depth, comp);
                self.detach(child);
                self.attach(jid, anchor, step);
                self.attach(child, jid, fork.step_c);
                self.attach(nid, jid, fork.step_b);
                nid
            }
            Some((_, StepRel::Same | StepRel::Collision | StepRel::Descend(_))) => {
                unreachable!("locate settles these itself, or the key is retained")
            }
        }
    }

    /// Reference implementation of the pre-optimization miss path:
    /// strictly linear upward walk, re-hashing the full 7-feature key
    /// on every probe — the per-update cost profile of the original
    /// `HashMap`-indexed tree. Kept for benchmarks and differential
    /// tests; produces exactly the same tree as [`FlowTree::insert`].
    #[doc(hidden)]
    pub fn insert_seed_path(&mut self, key: &FlowKey, pop: Popularity) {
        let key = self.schema.canonicalize(key);
        let hash = key_hash(&key);
        if self.hit(&key, hash, pop).is_none() {
            let schema = self.schema;
            let mut anchor = self.root;
            for p in schema.chain_up(&key) {
                // Deliberately re-hash the whole key per probe.
                let ph = key_hash(&p);
                self.stats.chain_steps += 1;
                if let Some(id) = self.lookup(&p, ph) {
                    anchor = id;
                    break;
                }
            }
            self.insert_below(anchor, key, hash, &DepthProfile::of(&key), pop, None);
        }
        if self.live > self.cfg.node_budget {
            self.compact();
        }
    }

    // ------------------------------------------------------------------
    // Merge / diff (paper §2, "Flowtree Operators")
    // ------------------------------------------------------------------

    /// Adds every node mass of `other` into `self` (the paper's `merge`:
    /// "adding the nodes of A to B ... the update is only done on the
    /// complementary popularities"). Compacts once at the end.
    ///
    /// The merge is **structural**: both trees embed in the same
    /// canonical trie, so matching nodes are settled by one hash-join
    /// sweep (a single index probe per source node, reusing the hashes
    /// stored on `other`), and only the nodes genuinely absent from
    /// `self` run placement — attached directly under their
    /// already-placed source parent at the stored sibling step, with
    /// splice/branch restructures computed analytically. No node pays
    /// the insert path's longest-matching-parent search (kept as
    /// [`FlowTree::merge_elementwise`] for benchmarks and differential
    /// tests; both produce byte-identical encodings when no compaction
    /// interferes).
    pub fn merge(&mut self, other: &FlowTree) -> Result<(), TreeError> {
        self.merge_many(std::slice::from_ref(&other))
    }

    /// Transient-memory bound of [`FlowTree::merge_many`]: the arena
    /// may grow to this many multiples of the node budget between
    /// sources before a mid-pass compact runs. Above 1 so similar-tree
    /// merges never pay needless compactions; small enough that a
    /// thousand-window scope stays O(budget), not O(total input).
    pub const MERGE_HIGH_WATER_FACTOR: usize = 4;

    /// The k-way structural merge: adds every node mass of each tree in
    /// `others` into `self` in **one** co-traversal, instead of k
    /// sequential merges — a collector answering a 100-window query
    /// merges all 100 summaries in a single pass. Equivalent to folding
    /// [`FlowTree::merge`] over `others` (byte-identical encodings when
    /// no compaction interferes), with the budget checked once at the
    /// end — except that a pass crossing the high-water mark
    /// ([`FlowTree::MERGE_HIGH_WATER_FACTOR`] × budget) compacts
    /// **between sources**, so transient memory is bounded by the mark
    /// plus one source instead of the total input size. Mid-pass
    /// compaction costs the same determinism any compaction under
    /// budget pressure does: totals are conserved, node sets may fold
    /// earlier than an end-only compact would.
    pub fn merge_many(&mut self, others: &[&FlowTree]) -> Result<(), TreeError> {
        for o in others {
            if self.schema != o.schema {
                return Err(TreeError::SchemaMismatch);
            }
        }
        let high_water = self
            .cfg
            .node_budget
            .saturating_mul(Self::MERGE_HIGH_WATER_FACTOR);
        for (i, o) in others.iter().enumerate() {
            self.merge_structural(o, false);
            if i + 1 < others.len() && self.live > high_water {
                self.compact();
            }
        }
        if self.live > self.cfg.node_budget {
            self.compact();
        }
        Ok(())
    }

    /// One structural merge pass (schema already checked, no budget
    /// check) over the source in pre-order, the order of its encoding:
    /// a **hash-join phase** — one index probe per source node with its
    /// stored hash; hits add masses node-wise, exactly the work an
    /// element-wise hit pays — followed by a **placement phase** over
    /// only the missed nodes, in the same order, that attaches each
    /// directly under its already-placed parent at the stored sibling
    /// step hash: no longest-matching-parent search, no
    /// probe-and-descend, and splice/join restructures computed with
    /// the analytic profile arithmetic of [`classify_step`]. A merge
    /// between similar trees degenerates to the probe sweep; a merge of
    /// disjoint trees degenerates to a linear copy. Both phases stamp
    /// in that order, so the stamps a source leaves are a function of
    /// its encoding.
    ///
    /// With `negate` set the same pass *subtracts* every source mass —
    /// the structural twin of the element-wise diff loop, shared by
    /// [`FlowTree::diff_many`].
    fn merge_structural(&mut self, o: &FlowTree, negate: bool) {
        if negate {
            self.total -= o.total;
        } else {
            self.total += o.total;
        }
        // By source position: the A-node id holding the node's key
        // (phase 1 hits and phase 2 creations).
        let mut placed: Vec<u32> = vec![NIL; o.live];
        // `(position, id, parent's position)` of each missed node.
        let mut misses: Vec<(u32, u32, u32)> = Vec::new();
        o.for_each_preorder(|pos, i, parent_pos| {
            let b = &o.nodes[i as usize];
            if let Some(id) = self.lookup(&b.key, b.key_hash) {
                self.clock += 1;
                let touch = self.clock;
                let node = &mut self.nodes[id as usize];
                if negate {
                    node.comp -= b.comp;
                } else {
                    node.comp += b.comp;
                }
                node.touch = touch;
                placed[pos as usize] = id;
            } else {
                misses.push((pos, i, parent_pos));
            }
        });
        if misses.is_empty() {
            return;
        }

        let mask = o.subtree_mass_mask();
        // For a source node that was neither matched nor created
        // (zero-mass or pass-through), the anchor its children inherit,
        // and the step they use there (the skipped node's own step:
        // their chains all pass through it).
        let mut anchor_of: Vec<(u32, u64)> = vec![(NIL, 0); o.live];
        for (pos, k, parent_pos) in misses {
            // The root always hits (every tree retains the root key),
            // and pre-order settles a parent before its children.
            let b = &o.nodes[k as usize];
            let (anchor, step) = match placed[parent_pos as usize] {
                NIL => anchor_of[parent_pos as usize],
                p => (p, b.step_hash),
            };
            debug_assert_ne!(anchor, NIL);
            // Materialize the node iff the element-wise loop would: it
            // carries mass, or it is a join of ≥ 2 massy subtrees
            // (which re-inserting the masses would recreate at the
            // same key). Everything else is skipped and its children
            // inherit the anchor.
            if b.comp.is_zero() && !Self::is_surviving_join(o, &mask, k) {
                anchor_of[pos as usize] = (anchor, step);
            } else {
                let comp = if negate { -b.comp } else { b.comp };
                placed[pos as usize] =
                    self.place_single(anchor, b.key, b.key_hash, b.depth, comp, step);
            }
        }
    }

    /// Reference implementation of the pre-structural merge: one
    /// hash-probe insert per live source node. Kept for benchmarks and
    /// the differential property tests that pin [`FlowTree::merge`] /
    /// [`FlowTree::merge_many`] to it.
    #[doc(hidden)]
    pub fn merge_elementwise(&mut self, other: &FlowTree) -> Result<(), TreeError> {
        if self.schema != other.schema {
            return Err(TreeError::SchemaMismatch);
        }
        for node in other.nodes.iter().filter(|n| n.alive) {
            if !node.comp.is_zero() {
                self.add_mass_hashed(node.key, node.key_hash, node.comp);
            }
        }
        if self.live > self.cfg.node_budget {
            self.compact();
        }
        Ok(())
    }

    /// `mask[id]` = the subtree rooted at `id` holds any nonzero mass
    /// (negative diff masses count). Returns the **empty** vector for
    /// the common fully-massy case — every zero-mass node is a join of
    /// ≥ 2 subtrees that all carry mass — which [`FlowTree::effective`]
    /// treats as "no filtering needed", skipping both this pass and the
    /// per-child mask reads. Trees built by inserts and merges are
    /// always fully massy; only diff trees (zero-cancelled masses) and
    /// hand-built streams need the real mask.
    fn subtree_mass_mask(&self) -> Vec<bool> {
        // The root is exempt: it is handled directly by `merge_many`,
        // never routed through `effective` (and it legitimately sits
        // zero-massed above a single child on single-prefix traffic).
        let filtering_needed = self.nodes.iter().enumerate().any(|(i, n)| {
            n.alive
                && i as u32 != self.root
                && n.comp.is_zero()
                && (n.first_child == NIL || self.nodes[n.first_child as usize].next_sibling == NIL)
        });
        if !filtering_needed {
            return Vec::new();
        }
        let order = self.preorder();
        let mut mask = vec![false; self.capacity()];
        for &id in order.iter().rev() {
            let node = &self.nodes[id as usize];
            if !node.comp.is_zero() {
                mask[id as usize] = true;
            }
            if mask[id as usize] && node.parent != NIL {
                mask[node.parent as usize] = true;
            }
        }
        mask
    }

    /// Whether a zero-mass source node would be recreated as a join by
    /// the element-wise loop: ≥ 2 of its child subtrees carry mass (so
    /// re-inserting their keys branches exactly at this node's key).
    /// An empty `mask` means the source is fully massy (see
    /// [`FlowTree::subtree_mass_mask`]): every zero-mass node is such
    /// a join by construction.
    fn is_surviving_join(o: &FlowTree, mask: &[bool], id: u32) -> bool {
        if mask.is_empty() {
            return true;
        }
        let mut massy = 0u32;
        let mut c = o.nodes[id as usize].first_child;
        while c != NIL {
            if mask[c as usize] {
                massy += 1;
                if massy >= 2 {
                    return true;
                }
            }
            c = o.nodes[c as usize].next_sibling;
        }
        false
    }

    /// Creates the node for a missed key and splices it in under
    /// `anchor` (a retained chain ancestor) at `step` (the key's chain
    /// step hash at `anchor.depth + 1`): the sibling scan either finds
    /// the step free (direct attach — the common case for new
    /// subtrees, whose parents were just placed), descends through a
    /// retained ancestor, splices above a deeper child, or branches at
    /// the analytic LCCA — [`FlowTree::locate`], the insert path's own
    /// search. Returns the new node's id.
    fn place_single(
        &mut self,
        anchor: u32,
        b_key: FlowKey,
        b_hash: u64,
        b_depth: u32,
        b_comp: Popularity,
        step: u64,
    ) -> u32 {
        let profile = DepthProfile::of(&b_key);
        let (spot, _) = self.locate(anchor, step, &b_key, b_hash, b_depth, &profile, None);
        // Key equality was settled by the hash-join probe.
        debug_assert!(
            !matches!(spot.taken, Some((_, StepRel::Same))),
            "matched keys never reach placement"
        );
        self.stats.grafted_nodes += 1;
        self.create(spot, b_key, b_hash, b_depth, b_comp, 1)
    }

    /// Subtracts every node mass of `other` from `self` (the paper's
    /// `diff`). The result can legitimately contain negative masses —
    /// that is what makes diff summaries useful for change detection and
    /// diff-based transfer. Zero-mass leaves are pruned afterwards.
    ///
    /// Runs the **structural** fast path — the same hash-join +
    /// anchored-placement pass as [`FlowTree::merge`], with every
    /// source mass negated — so the collector's alarm sweep pays merge
    /// cost, not one longest-matching-parent search per node. The old
    /// loop survives as [`FlowTree::diff_elementwise`] for the
    /// differential property tests.
    pub fn diff(&mut self, other: &FlowTree) -> Result<(), TreeError> {
        self.diff_many(std::slice::from_ref(&other))
    }

    /// The k-way structural diff: subtracts every node mass of each
    /// tree in `others` from `self` in one co-traversal — the
    /// [`FlowTree::merge_many`] twin for subtraction. Equivalent to
    /// folding [`FlowTree::diff_elementwise`] over `others`
    /// (byte-identical encodings when no compaction interferes), with
    /// zero-mass pruning and the budget check deferred to the end of
    /// the pass.
    pub fn diff_many(&mut self, others: &[&FlowTree]) -> Result<(), TreeError> {
        for o in others {
            if self.schema != o.schema {
                return Err(TreeError::SchemaMismatch);
            }
        }
        for o in others {
            self.merge_structural(o, true);
        }
        self.prune_zeros();
        if self.live > self.cfg.node_budget {
            self.compact();
        }
        Ok(())
    }

    /// Reference implementation of the pre-structural diff: one
    /// hash-probe insert per live source node, masses negated. Kept for
    /// benchmarks and the differential property tests that pin
    /// [`FlowTree::diff`] / [`FlowTree::diff_many`] to it.
    #[doc(hidden)]
    pub fn diff_elementwise(&mut self, other: &FlowTree) -> Result<(), TreeError> {
        if self.schema != other.schema {
            return Err(TreeError::SchemaMismatch);
        }
        for node in other.nodes.iter().filter(|n| n.alive) {
            if !node.comp.is_zero() {
                self.add_mass_hashed(node.key, node.key_hash, -node.comp);
            }
        }
        self.prune_zeros();
        if self.live > self.cfg.node_budget {
            self.compact();
        }
        Ok(())
    }

    /// The merge of two trees, leaving both inputs untouched.
    pub fn merged(a: &FlowTree, b: &FlowTree) -> Result<FlowTree, TreeError> {
        let mut out = a.clone();
        out.merge(b)?;
        Ok(out)
    }

    /// `a - b` as a fresh diff tree.
    pub fn diffed(a: &FlowTree, b: &FlowTree) -> Result<FlowTree, TreeError> {
        let mut out = a.clone();
        out.diff(b)?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Self-adjustment
    // ------------------------------------------------------------------

    /// Folds the least-popular leaves into their parents until the tree
    /// is at the low-water mark. Mass is conserved: an evicted leaf's
    /// complementary popularity moves to its parent, which is exactly the
    /// paper's "summarize the unpopular flows".
    pub fn compact(&mut self) {
        let target = self.cfg.compaction_target().min(self.cfg.node_budget);
        if self.live <= target {
            return;
        }
        self.stats.compactions += 1;

        // Min-heap of (rank, id, generation) with lazy revalidation.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32, u32)>> = BinaryHeap::new();
        let push = |heap: &mut BinaryHeap<std::cmp::Reverse<(u64, u64, u32, u32)>>,
                    node: &Node,
                    id: u32,
                    cfg: &Config| {
            let (a, b) = rank(node, cfg);
            heap.push(std::cmp::Reverse((a, b, id, node.generation)));
        };
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive && n.first_child == NIL && i as u32 != self.root {
                push(&mut heap, n, i as u32, &self.cfg);
            }
        }

        while self.live > target {
            let Some(std::cmp::Reverse((a, b, id, generation))) = heap.pop() else {
                break; // only the root is left
            };
            let node = &self.nodes[id as usize];
            if !node.alive || node.generation != generation {
                continue; // slot was reused
            }
            if node.first_child != NIL {
                continue; // no longer a leaf (cannot happen, but be safe)
            }
            let (ca, cb) = rank(node, &self.cfg);
            if (ca, cb) != (a, b) {
                // Weight changed since the entry was pushed (the node
                // absorbed an evicted child); re-rank it.
                push(&mut heap, node, id, &self.cfg);
                continue;
            }

            let parent = node.parent;
            debug_assert_ne!(parent, NIL, "only the root has no parent");
            let comp = node.comp;
            self.remove_leaf(id);
            self.stats.evictions += 1;

            let pnode = &mut self.nodes[parent as usize];
            pnode.comp += comp;
            if pnode.first_child == NIL && parent != self.root {
                // Parent became a leaf: now a candidate itself.
                push(&mut heap, &self.nodes[parent as usize], parent, &self.cfg);
            } else {
                self.contract_if_passthrough(parent);
            }
        }
    }

    /// Removes leaves whose mass cancelled to zero (after `diff`) and
    /// contracts the resulting pass-through chains.
    ///
    /// Dead leaves are bucketed by depth and processed deepest-first,
    /// cascading parents that become dead leaves into their (strictly
    /// shallower) buckets — `O(arena + depth)`, instead of sorting the
    /// whole arena by depth on every call.
    pub fn prune_zeros(&mut self) {
        let mut max_depth = 0u32;
        for n in &self.nodes {
            if n.alive {
                max_depth = max_depth.max(n.depth);
            }
        }
        if max_depth == 0 {
            return;
        }
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_depth as usize + 1];
        for (i, n) in self.nodes.iter().enumerate() {
            let id = i as u32;
            if n.alive && id != self.root && n.first_child == NIL && n.comp.is_zero() {
                buckets[n.depth as usize].push(id);
            }
        }
        for d in (1..=max_depth as usize).rev() {
            let mut i = 0;
            while i < buckets[d].len() {
                let id = buckets[d][i];
                i += 1;
                {
                    let n = &self.nodes[id as usize];
                    // Re-check at visit time: contraction may have
                    // restructured around this candidate.
                    if !n.alive || n.first_child != NIL || !n.comp.is_zero() {
                        continue;
                    }
                }
                let parent = self.nodes[id as usize].parent;
                self.remove_leaf(id);
                if parent != self.root {
                    let p = &self.nodes[parent as usize];
                    if p.alive && p.first_child == NIL && p.comp.is_zero() {
                        buckets[p.depth as usize].push(parent);
                    } else {
                        self.contract_if_passthrough(parent);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Structure helpers
    // ------------------------------------------------------------------

    fn alloc(&mut self, key: FlowKey, hash: u64, depth: u32, comp: Popularity) -> u32 {
        self.live += 1;
        let touch = self.clock;
        if let Some(id) = self.free.pop() {
            let generation = self.nodes[id as usize].generation.wrapping_add(1);
            self.nodes[id as usize] = Node {
                key,
                key_hash: hash,
                depth,
                parent: NIL,
                first_child: NIL,
                next_sibling: NIL,
                prev_sibling: NIL,
                step_hash: 0,
                comp,
                touch,
                generation,
                alive: true,
            };
            id
        } else {
            self.nodes.push(Node {
                key,
                key_hash: hash,
                depth,
                parent: NIL,
                first_child: NIL,
                next_sibling: NIL,
                prev_sibling: NIL,
                step_hash: 0,
                comp,
                touch,
                generation: 0,
                alive: true,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Links `child` under `parent`, keeping the sibling list sorted by
    /// `(step_hash, key)`. The order is **canonical**: it depends only
    /// on the node set, never on arrival order, so any two trees
    /// holding the same nodes store — and therefore wire-encode — them
    /// identically. Structural merges co-walk these ordered lists, and
    /// the byte-identity guarantees of `merge_many`/lane merges rest
    /// on this invariant (checked by [`FlowTree::validate`]).
    fn attach(&mut self, child: u32, parent: u32, step_hash: u64) {
        let child_key = self.nodes[child as usize].key;
        let mut prev = NIL;
        let mut cur = self.nodes[parent as usize].first_child;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if n.step_hash > step_hash || (n.step_hash == step_hash && n.key > child_key) {
                break;
            }
            prev = cur;
            cur = n.next_sibling;
        }
        {
            let c = &mut self.nodes[child as usize];
            c.parent = parent;
            c.step_hash = step_hash;
            c.prev_sibling = prev;
            c.next_sibling = cur;
        }
        if prev == NIL {
            self.nodes[parent as usize].first_child = child;
        } else {
            self.nodes[prev as usize].next_sibling = child;
        }
        if cur != NIL {
            self.nodes[cur as usize].prev_sibling = child;
        }
    }

    fn detach(&mut self, id: u32) {
        let (parent, prev, next) = {
            let n = &self.nodes[id as usize];
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        if prev != NIL {
            self.nodes[prev as usize].next_sibling = next;
        } else if parent != NIL {
            self.nodes[parent as usize].first_child = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sibling = prev;
        }
        let n = &mut self.nodes[id as usize];
        n.parent = NIL;
        n.prev_sibling = NIL;
        n.next_sibling = NIL;
    }

    /// Removes a leaf node entirely (caller handles its mass).
    fn remove_leaf(&mut self, id: u32) {
        debug_assert_eq!(self.nodes[id as usize].first_child, NIL);
        self.detach(id);
        let hash = self.nodes[id as usize].key_hash;
        let removed = self.index_mut().remove(hash, |cand| cand == id);
        debug_assert_eq!(removed, Some(id));
        self.nodes[id as usize].alive = false;
        self.free.push(id);
        self.live -= 1;
    }

    /// Contracts `id` if it is a zero-mass pass-through (exactly one
    /// child, no mass, not the root): the child is re-attached to the
    /// grandparent. Join nodes whose purpose disappeared go away here.
    fn contract_if_passthrough(&mut self, id: u32) {
        if id == self.root {
            return;
        }
        let (only_child, comp_zero, parent) = {
            let n = &self.nodes[id as usize];
            if !n.alive {
                return;
            }
            let fc = n.first_child;
            let single = fc != NIL && self.nodes[fc as usize].next_sibling == NIL;
            (if single { fc } else { NIL }, n.comp.is_zero(), n.parent)
        };
        if only_child == NIL || !comp_zero {
            return;
        }
        // The child's chain passes through `id`, whose chain passes
        // through `parent`, so the child's step at the grandparent level
        // equals `id`'s step — the sibling-step invariant is preserved.
        let step_hash = self.nodes[id as usize].step_hash;
        self.detach(only_child);
        self.detach(id);
        let hash = self.nodes[id as usize].key_hash;
        self.index_mut().remove(hash, |cand| cand == id);
        self.nodes[id as usize].alive = false;
        self.free.push(id);
        self.live -= 1;
        self.stats.contractions += 1;
        self.attach(only_child, parent, step_hash);
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// The true (subtree-summed) popularity of a retained key:
    /// complementary popularities summed over the node's subtree.
    pub fn subtree_popularity(&self, key: &FlowKey) -> Option<Popularity> {
        let id = self.lookup(key, key_hash(key))?;
        Some(self.subtree_sum(id))
    }

    pub(crate) fn subtree_sum(&self, id: u32) -> Popularity {
        DFS_STACK.with(|cell| {
            let mut stack = cell.borrow_mut();
            stack.clear();
            stack.push(id);
            let mut acc = Popularity::ZERO;
            while let Some(cur) = stack.pop() {
                let node = &self.nodes[cur as usize];
                acc += node.comp;
                let mut c = node.first_child;
                while c != NIL {
                    stack.push(c);
                    c = self.nodes[c as usize].next_sibling;
                }
            }
            acc
        })
    }

    /// Iterates over all retained nodes (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = NodeView<'_>> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(move |n| NodeView {
                key: &n.key,
                comp: n.comp,
                depth: n.depth,
                parent: if n.parent == NIL {
                    None
                } else {
                    Some(&self.nodes[n.parent as usize].key)
                },
                is_leaf: n.first_child == NIL,
            })
    }

    /// The retained children of `key`, if `key` is retained.
    pub fn children_of(&self, key: &FlowKey) -> Option<Vec<NodeView<'_>>> {
        let id = self.lookup(key, key_hash(key))?;
        let mut out = Vec::new();
        let mut c = self.nodes[id as usize].first_child;
        while c != NIL {
            let n = &self.nodes[c as usize];
            out.push(NodeView {
                key: &n.key,
                comp: n.comp,
                depth: n.depth,
                parent: Some(&self.nodes[id as usize].key),
                is_leaf: n.first_child == NIL,
            });
            c = n.next_sibling;
        }
        Some(out)
    }

    /// Ids of live nodes in pre-order, walked down from the root.
    pub(crate) fn preorder(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.live);
        self.walk_by(|id| self.links(id), |_, id, _| out.push(id));
        out
    }

    /// `(first_child, next_sibling)` of node `id`.
    fn links(&self, id: u32) -> (u32, u32) {
        let n = &self.nodes[id as usize];
        (n.first_child, n.next_sibling)
    }

    /// Visits every live node in pre-order, the order of the encoding,
    /// as `visit(pos, id, parent_pos)`: `pos` is the node's place in the
    /// order, `parent_pos` its parent's (0 for the root). A tree whose
    /// arena is in pre-order already is read slot by slot; any other is
    /// walked down from the root (module docs, "Arena order").
    pub(crate) fn for_each_preorder(&self, mut visit: impl FnMut(u32, u32, u32)) {
        if self.preordered {
            for (id, n) in self.nodes.iter().enumerate() {
                let id = id as u32;
                visit(id, id, if id == 0 { 0 } else { n.parent });
            }
        } else {
            self.walk_by(|id| self.links(id), visit);
        }
    }

    /// The pre-order walk down from the root over `links(id) =
    /// (first_child, next_sibling)`, wherever the caller keeps them,
    /// calling `visit` as [`FlowTree::for_each_preorder`] does. Siblings
    /// are pushed in list order and so visited in descending step
    /// order, the order the codec emits.
    fn walk_by(&self, links: impl Fn(u32) -> (u32, u32), mut visit: impl FnMut(u32, u32, u32)) {
        // Taken, not borrowed: a `visit` that walks again gets a fresh
        // stack instead of a borrow panic.
        let mut stack = WALK_STACK.take();
        stack.push((self.root, 0));
        let mut pos = 0;
        while let Some((id, parent_pos)) = stack.pop() {
            visit(pos, id, parent_pos);
            let mut c = links(id).0;
            while c != NIL {
                stack.push((c, pos));
                c = links(c).1;
            }
            pos += 1;
        }
        WALK_STACK.set(stack);
    }

    /// Validates every structural invariant; panics with a description on
    /// violation. Test/debug aid — O(n · depth).
    pub fn validate(&self) {
        let mut seen = 0usize;
        let mut mass = Popularity::ZERO;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            seen += 1;
            mass += n.comp;
            let id = i as u32;
            assert_eq!(n.key_hash, key_hash(&n.key), "stale key hash at {}", n.key);
            assert_eq!(
                self.lookup(&n.key, n.key_hash),
                Some(id),
                "index maps {}",
                n.key
            );
            assert_eq!(
                self.schema.depth(&n.key),
                n.depth,
                "cached depth of {}",
                n.key
            );
            if id == self.root {
                assert_eq!(n.parent, NIL);
                assert!(n.key.is_root());
            } else {
                assert_ne!(n.parent, NIL, "non-root {} must have a parent", n.key);
                let p = &self.nodes[n.parent as usize];
                assert!(p.alive, "parent of {} is dead", n.key);
                assert!(p.depth < n.depth, "parent deeper than child at {}", n.key);
                assert!(
                    self.schema.is_chain_ancestor(&p.key, &n.key),
                    "parent {} is not a chain ancestor of {}",
                    p.key,
                    n.key
                );
                let step = self.schema.chain_ancestor(&n.key, p.depth + 1);
                assert_eq!(n.step_hash, key_hash(&step), "stale step hash at {}", n.key);
            }
            // Sibling-step uniqueness, linkage, and canonical order.
            let mut steps = std::collections::HashSet::new();
            let mut c = n.first_child;
            let mut prev = NIL;
            let mut last: Option<(u64, FlowKey)> = None;
            while c != NIL {
                let ch = &self.nodes[c as usize];
                assert_eq!(ch.parent, id, "child link broken at {}", ch.key);
                assert_eq!(ch.prev_sibling, prev, "prev link broken at {}", ch.key);
                let step = self.schema.chain_ancestor(&ch.key, n.depth + 1);
                assert!(steps.insert(step), "duplicate sibling step under {}", n.key);
                if let Some(l) = last {
                    assert!(
                        (ch.step_hash, ch.key) > l,
                        "siblings out of canonical order under {}",
                        n.key
                    );
                }
                last = Some((ch.step_hash, ch.key));
                prev = c;
                c = ch.next_sibling;
            }
        }
        assert_eq!(seen, self.live, "live count drift");
        if self.preordered {
            assert_eq!(self.root, 0, "a pre-ordered arena starts at the root");
            assert_eq!(
                self.nodes.len(),
                self.live,
                "dead slot in a pre-ordered arena"
            );
            assert!(
                self.preorder()
                    .iter()
                    .enumerate()
                    .all(|(i, &id)| i == id as usize),
                "arena marked pre-ordered is not"
            );
        }
        assert_eq!(
            self.index().len(),
            self.live,
            "index size must equal live nodes"
        );
        assert_eq!(mass, self.total, "mass conservation violated");
    }

    /// Looks up a node id by key (for crate-internal query paths).
    pub(crate) fn node_id(&self, key: &FlowKey) -> Option<u32> {
        self.lookup(key, key_hash(key))
    }

    /// Rebuilds a tree from `(key, comp)` masses (the collector's
    /// lifted time+site tree builds its parts this way). Keys are
    /// canonicalized; masses at identical keys accumulate.
    pub fn from_masses<I>(schema: Schema, cfg: Config, masses: I) -> FlowTree
    where
        I: IntoIterator<Item = (FlowKey, Popularity)>,
    {
        let mut tree = FlowTree::new(schema, cfg);
        for (key, comp) in masses {
            let key = schema.canonicalize(&key);
            tree.add_mass(key, comp);
        }
        if tree.live > tree.cfg.node_budget {
            tree.compact();
        }
        tree
    }
}

/// Eviction rank: smaller evicts first.
fn rank(node: &Node, cfg: &Config) -> (u64, u64) {
    let weight = node.comp.weight(cfg.metric);
    match cfg.eviction {
        EvictionPolicy::SmallestFirst => (weight, node.touch),
        EvictionPolicy::ColdFirst => (node.touch, weight),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_key(i: u64) -> FlowKey {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        format!(
            "src=10.{}.{}.{}/32 dst=192.0.2.{}/32",
            x % 4,
            (x >> 2) % 16,
            (x >> 6) % 64,
            (x >> 12) % 8
        )
        .parse()
        .unwrap()
    }

    /// A tree that compacted and grew again: free slots, refilled
    /// slots, joins placed after their children.
    fn scattered() -> FlowTree {
        let mut t = FlowTree::new(Schema::two_feature(), Config::with_budget(96));
        for i in 0..900 {
            t.insert(&host_key(i), Popularity::packet(40 + (i % 7) as u32 * 100));
        }
        // A few inserts after the last compaction leave the free list
        // partly refilled.
        for i in 0..5 {
            t.insert(&host_key(5_000 + i), Popularity::packet(64));
        }
        assert!(t.stats().compactions > 0);
        assert!(!t.free.is_empty(), "the fixture must have free slots");
        t
    }

    /// Per key: `(touch, generation, comp)`.
    fn stamps(t: &FlowTree) -> Vec<(FlowKey, u64, u32, Popularity)> {
        let mut v: Vec<_> = t
            .nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| (n.key, n.touch, n.generation, n.comp))
            .collect();
        v.sort_by_key(|s| s.0);
        v
    }

    fn identity(t: &FlowTree) -> Vec<u32> {
        (0..t.len() as u32).collect()
    }

    #[test]
    fn relayout_numbers_ids_in_preorder_and_drops_free_slots() {
        let mut t = scattered();
        assert_ne!(t.preorder(), identity(&t), "compaction scattered the arena");
        let (bytes, before, stats, clock) = (t.encode(), stamps(&t), t.stats, t.clock);
        t.relayout_preorder();
        assert_eq!(t.preorder(), identity(&t));
        assert!(t.free.is_empty());
        assert_eq!(t.nodes.len(), t.len());
        assert_eq!(t.root, 0);
        t.validate();
        assert_eq!(t.encode(), bytes);
        assert_eq!(stamps(&t), before);
        assert_eq!((t.stats, t.clock), (stats, clock));
        // The tree keeps working: inserts, compactions, a second relayout.
        for i in 900..1_400 {
            t.insert(&host_key(i), Popularity::packet(100));
        }
        t.validate();
        t.relayout_preorder();
        assert_eq!(t.preorder(), identity(&t));
        t.validate();
    }

    #[test]
    fn relayout_of_a_frozen_tree_builds_no_index() {
        let mut t = scattered();
        t.shrink_to_fit();
        let bytes = t.encode();
        t.relayout_preorder();
        assert!(t.index.get().is_none(), "still frozen");
        assert_eq!(t.preorder(), identity(&t));
        assert_eq!(t.encode(), bytes);
        t.validate();
    }

    #[test]
    fn a_decoded_tree_is_already_in_preorder() {
        let t = scattered();
        let d = FlowTree::decode(&t.encode(), *t.config()).unwrap();
        assert!(d.preordered);
        assert_eq!(d.preorder(), identity(&d));
    }

    #[test]
    fn freezing_squeezes_dead_slots_into_preorder() {
        let mut t = scattered();
        let (bytes, before) = (t.encode(), stamps(&t));
        t.shrink_to_fit();
        assert!(t.preordered);
        assert_eq!(t.preorder(), identity(&t));
        assert_eq!((t.encode(), stamps(&t)), (bytes, before));
        t.validate();
        // Relinking a node forgets the order; a hit does not.
        t.insert(&host_key(5_000), Popularity::packet(1));
        assert!(t.preordered);
        t.insert(&host_key(9_999), Popularity::packet(1));
        assert!(!t.preordered);
        t.validate();
        // Without dead slots the arena is kept as it is.
        let order = t.preorder();
        t.shrink_to_fit();
        assert_eq!(t.preorder(), order);
        assert!(!t.preordered);
        t.validate();
    }
}
