//! Allocation budgets: what a tree may cost, pinned with a counting
//! allocator. A tree pays for the nodes it holds — not for its budget,
//! not for a frame's claimed count, and not (once stored) for an index
//! nobody probes. Lives in `flowdist` because it is the lowest crate
//! that sees both `FlowTree` and the `Collector` that stores them.
//!
//! The allocator counts per thread, so the harness and sibling tests
//! cannot perturb a measurement. Run in release as well as debug
//! (CI does): allocation counts are the thing under test.

use flowdist::{Collector, Summary, SummaryKind, WindowId};
use flowkey::{FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Popularity, MAGIC, MAX_WIRE_NODES, VERSION};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Bytes per arena node today (a seven-feature key, two hashes, five
/// links, three counters, touch, generation). Hard-coded on purpose:
/// if the node grows, these budgets should fail and be re-argued.
const NODE_BYTES: usize = 208;

thread_local! {
    /// Allocation events (alloc + realloc) on this thread.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested by those events.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Bytes currently live that this thread allocated and freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn note(events: u64, requested: usize, live_delta: i64) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = EVENTS.try_with(|c| c.set(c.get() + events));
    let _ = REQUESTED.try_with(|c| c.set(c.get() + requested as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + live_delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only const-init
// thread-local `Cell`s of `Copy` integers (no allocation, no drop).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), layout.size() as i64);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), layout.size() as i64);
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, -(layout.size() as i64));
        // SAFETY: forwarded with the caller's pointer and layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded with the caller's pointer, layout and size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` cost this thread.
struct Cost {
    events: u64,
    requested: u64,
    retained: i64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let before = (EVENTS.get(), REQUESTED.get(), LIVE.get());
    let out = f();
    let cost = Cost {
        events: EVENTS.get() - before.0,
        requested: REQUESTED.get() - before.1,
        retained: LIVE.get() - before.2,
    };
    (out, cost)
}

fn key(i: u32) -> FlowKey {
    format!(
        "src=10.{}.{}.{}/32 dst=192.0.2.{}/32 sport={} dport=443 proto=tcp",
        (i >> 16) & 0xff,
        (i >> 8) & 0xff,
        i & 0xff,
        i % 7,
        1024 + i % 4096
    )
    .parse()
    .unwrap()
}

/// A tree grown until it holds at least `nodes` nodes (joins included).
fn tree_of(nodes: usize, cfg: Config) -> FlowTree {
    let mut t = FlowTree::new(Schema::five_feature(), cfg);
    let mut i = 0u32;
    while t.len() < nodes {
        t.insert(
            &key(i.wrapping_mul(2_654_435_761)),
            Popularity::new(1, 100, 1),
        );
        i += 1;
    }
    t
}

#[test]
fn an_empty_tree_costs_the_root_whatever_its_budget() {
    let (tree, cost) =
        measure(|| FlowTree::new(Schema::five_feature(), Config::with_budget(65_536)));
    assert!(
        cost.requested < 4_096,
        "FlowTree::new requested {} B in {} allocations",
        cost.requested,
        cost.events
    );
    assert_eq!(tree.len(), 1);
}

#[test]
fn a_hostile_count_reserves_nothing() {
    // Ten bytes claiming the largest admissible node count.
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&[VERSION, 3]);
    flowkey::pack::write_varint(&mut frame, MAX_WIRE_NODES as u64);
    let (res, cost) = measure(|| FlowTree::decode(&frame, Config::default()));
    assert!(res.is_err());
    assert!(
        cost.requested < 1_024,
        "rejecting a 10-byte frame requested {} B",
        cost.requested
    );
}

#[test]
fn decoding_a_frame_requests_its_arena_and_nothing_more() {
    let tree = tree_of(1_000, Config::default());
    let len = tree.len();
    let frame = tree.encode();
    drop(tree);
    let (decoded, cost) = measure(|| FlowTree::decode(&frame, Config::default()));
    let decoded = decoded.expect("a clean frame decodes");
    assert_eq!(decoded.len(), len);
    // The arena, sized once from the frame's count: no key index, no
    // per-row side tables, no growth.
    let budget = len * NODE_BYTES * 105 / 100 + 1_024;
    assert!(
        cost.requested as usize <= budget,
        "decoding {len} nodes requested {} B in {} allocations, budget {budget} B",
        cost.requested,
        cost.events
    );
}

#[test]
fn a_stored_window_costs_its_nodes_and_no_index() {
    let summary = Summary {
        site: 3,
        window: WindowId {
            start_ms: 0,
            span_ms: 1_000,
        },
        seq: 1,
        kind: SummaryKind::Full,
        lineage: None,
        tree: tree_of(1_000, Config::default()),
    };
    let len = summary.tree.len();
    assert!((1_000..1_010).contains(&len), "a 1k-node frame, got {len}");
    let frame = summary.encode();
    drop(summary);

    let mut collector = Collector::new(Schema::five_feature(), Config::default());
    let (res, cost) = measure(|| collector.apply_bytes(&frame));
    res.expect("a clean frame applies");
    // 1.25 × is the issue's bound; 1.1 × is what separates "arena
    // plus the collector's map nodes" from "arena plus a key index"
    // (≥ 15 % on top at this size), i.e. what shows the slot is frozen.
    let budget = len * NODE_BYTES * 11 / 10;
    assert!(
        cost.retained as usize <= budget,
        "storing {len} nodes retained {} B, budget {budget} B",
        cost.retained
    );

    // A clone of a frozen tree is frozen too: exactly its arena.
    let stored = collector.window_tree(0, 3).expect("stored");
    let (copy, cost) = measure(|| stored.clone());
    assert_eq!(copy.len(), len);
    assert_eq!(
        cost.retained as usize,
        len * NODE_BYTES,
        "clone of a stored window"
    );

    // And a point probe through `&self` costs one index, no more.
    let (_, cost) = measure(|| stored.popularity(&key(0)));
    assert!(
        (cost.retained as usize) < len * 16 * 5 / 2,
        "lazy index retained {} B",
        cost.retained
    );
}

#[test]
fn a_window_reserved_from_its_predecessor_fills_without_allocating() {
    let cfg = Config::with_budget(65_536);
    let batch: Vec<(FlowKey, Popularity)> = (0..6_000u32)
        .map(|i| (key(i.wrapping_mul(40_503)), Popularity::new(1, 100, 1)))
        .collect();
    let mut predecessor = FlowTree::new(Schema::five_feature(), cfg);
    predecessor.insert_batch(&batch);

    // The batch path's scratch (miss list, finger, chain-order tables)
    // belongs to the thread, and the predecessor's batch above has
    // sized it: a window does not pay for it again.
    let mut next = FlowTree::new(Schema::five_feature(), cfg);
    next.insert(&batch[0].0, batch[0].1);
    next.reserve(predecessor.len());
    let (_, cost) = measure(|| next.insert_batch(&batch[1..]));
    assert_eq!(next.len(), predecessor.len());
    // One event is `insert_batch`'s own staging vector of hashed keys
    // (the streaming pipeline's prehashed path does not even have
    // that); the arena and the index must not appear.
    assert_eq!(
        cost.events,
        1,
        "filling a reserved tree to its predecessor's {} nodes allocated {} times ({} B)",
        predecessor.len(),
        cost.events,
        cost.requested
    );
}

#[test]
fn freezing_a_compacted_tree_is_in_place() {
    // Compactions leave dead slots all over the arena; the last few
    // inserts refill some of them.
    let budget = 2_000;
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(budget));
    for i in 0..12_000u32 {
        tree.insert(
            &key(i.wrapping_mul(2_654_435_761)),
            Popularity::new(1, 100, 1),
        );
    }
    assert!(tree.stats().compactions > 1);
    let len = tree.len();
    let bytes = tree.encode();
    let (_, cost) = measure(|| tree.shrink_to_fit());
    // The squeeze is a relayout in place: links, remap and walk stack,
    // a few words per slot (at most `budget + 1` slots), plus the one
    // realloc that trims the arena to `len` nodes. A second arena
    // would add another `len × 208 B`.
    let slots = budget + 1;
    let limit = len * NODE_BYTES + slots * 16 + 1_024;
    assert!(
        cost.requested as usize <= limit,
        "freezing {len} nodes requested {} B in {} allocations, limit {limit} B",
        cost.requested,
        cost.events
    );
    assert_eq!(tree.encode(), bytes);
    // What stays is exactly the arena.
    let (_, cost) = measure(|| drop(tree));
    assert_eq!(
        -cost.retained,
        (len * NODE_BYTES) as i64,
        "a frozen tree of {len} nodes"
    );
}
