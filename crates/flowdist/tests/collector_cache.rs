//! Cached merged views: equivalence with uncached merges, incremental
//! extension, and invalidation on replacement/eviction.

use flowdist::{Collector, Summary, SummaryKind, WindowId};
use flowkey::{FlowKey, Schema};
use flowtree_core::{Config, FlowTree, Popularity};

const SPAN: u64 = 1_000;

fn summary(site: u16, window: u64, lo: u8, hi: u8, weight: i64) -> Summary {
    let schema = Schema::five_feature();
    let mut tree = FlowTree::new(schema, Config::with_budget(4_096));
    for h in lo..hi {
        let key: FlowKey = format!(
            "src=10.{}.{}.{h}/32 dst=192.0.2.{}/32 sport=40000 dport=443 proto=tcp",
            site,
            h % 5,
            h % 3
        )
        .parse()
        .unwrap();
        tree.insert(&key, Popularity::new(weight + h as i64, 100, 1));
    }
    Summary {
        site,
        window: WindowId {
            start_ms: window * SPAN,
            span_ms: SPAN,
        },
        seq: window,
        kind: SummaryKind::Full,
        lineage: None,
        tree,
    }
}

fn collector_with(windows: u64, sites: u16) -> Collector {
    let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
    for w in 0..windows {
        for s in 0..sites {
            c.apply(summary(s, w, 0, 20 + (w % 4) as u8, 1)).unwrap();
        }
    }
    c
}

/// The reference the cache must agree with: the element-wise merge
/// loop over the same scope.
fn elementwise_scope(c: &Collector, sites: Option<&[u16]>, from: u64, to: u64) -> FlowTree {
    let mut out = FlowTree::new(Schema::five_feature(), Config::with_budget(100_000));
    for (w, s) in c.window_keys() {
        if w < from || w >= to {
            continue;
        }
        if let Some(wanted) = sites {
            if !wanted.contains(&s) {
                continue;
            }
        }
        out.merge_elementwise(c.window_tree(w, s).unwrap()).unwrap();
    }
    out
}

#[test]
fn cached_view_is_byte_identical_to_uncached_and_elementwise() {
    let c = collector_with(10, 3);
    for (sites, from, to) in [
        (None, 0, u64::MAX),
        (Some(vec![1]), 0, u64::MAX),
        (Some(vec![0, 2]), 2 * SPAN, 7 * SPAN),
        (Some(vec![2, 0, 0]), 2 * SPAN, 7 * SPAN), // unnormalized spelling
    ] {
        let view = c.merged_view(sites.as_deref(), from, to);
        let uncached = c.merged(sites.as_deref(), from, to);
        let reference = elementwise_scope(&c, sites.as_deref(), from, to);
        assert_eq!(view.encode(), uncached.encode());
        assert_eq!(view.encode(), reference.encode());
        // Second call returns the same snapshot (cache hit).
        let again = c.merged_view(sites.as_deref(), from, to);
        assert!(
            std::sync::Arc::ptr_eq(&view, &again),
            "expected a cache hit"
        );
    }
}

#[test]
fn new_windows_extend_the_cached_view_incrementally() {
    let mut c = collector_with(5, 2);
    let before = c.merged_view(None, 0, u64::MAX);
    // New windows arrive; the cached entry must be extended, not
    // rebuilt, and must match a fresh full merge byte-for-byte.
    for w in 5..8 {
        for s in 0..2 {
            c.apply(summary(s, w, 0, 25, 2)).unwrap();
        }
    }
    let after = c.merged_view(None, 0, u64::MAX);
    assert!(!std::sync::Arc::ptr_eq(&before, &after));
    let reference = elementwise_scope(&c, None, 0, u64::MAX);
    assert_eq!(after.total(), reference.total());
    assert_eq!(after.encode(), reference.encode());
    // The earlier snapshot is unaffected (copy-on-write).
    assert_eq!(
        before.encode(),
        elementwise_scope(&collector_with(5, 2), None, 0, u64::MAX).encode()
    );
}

#[test]
fn replacing_a_window_invalidates_views() {
    let mut c = collector_with(4, 2);
    let stale = c.merged_view(None, 0, u64::MAX);
    // Site 1 re-sends window 2 with different masses.
    c.apply(summary(1, 2, 0, 30, 9)).unwrap();
    let fresh = c.merged_view(None, 0, u64::MAX);
    assert_ne!(stale.encode(), fresh.encode());
    assert_eq!(
        fresh.encode(),
        elementwise_scope(&c, None, 0, u64::MAX).encode(),
        "rebuild after replacement must match a from-scratch merge"
    );
}

#[test]
fn eviction_invalidates_views_and_shrinks_scope() {
    let mut c = collector_with(6, 2);
    let all = c.merged_view(None, 0, u64::MAX);
    let dropped = c.evict_windows_before(3 * SPAN);
    assert_eq!(dropped, 6);
    assert_eq!(c.stored_windows(), 6);
    let survivors = c.merged_view(None, 0, u64::MAX);
    assert_ne!(all.encode(), survivors.encode());
    assert_eq!(
        survivors.encode(),
        elementwise_scope(&c, None, 0, u64::MAX).encode()
    );
    // Evicting nothing bumps nothing: the view stays cached.
    assert_eq!(c.evict_windows_before(3 * SPAN), 0);
    let again = c.merged_view(None, 0, u64::MAX);
    assert!(std::sync::Arc::ptr_eq(&survivors, &again));
}

#[test]
fn site_filter_is_scope_normalized() {
    let c = collector_with(3, 3);
    let a = c.merged_view(Some(&[2, 1]), 0, u64::MAX);
    let b = c.merged_view(Some(&[1, 2, 2]), 0, u64::MAX);
    assert!(
        std::sync::Arc::ptr_eq(&a, &b),
        "equivalent site sets must share one cache entry"
    );
}

#[test]
fn empty_and_inverted_ranges_are_empty_views() {
    let c = collector_with(3, 2);
    assert!(c.merged_view(None, 5 * SPAN, 2 * SPAN).is_empty());
    assert!(c.merged(None, 7 * SPAN, 7 * SPAN).is_empty());
    assert_eq!(
        c.query(&"src=10.0.0.0/8".parse().unwrap(), None, 9, 3)
            .packets,
        0.0
    );
}

#[test]
fn cache_is_bounded_by_total_nodes_not_entries() {
    let mut c = collector_with(6, 3);
    // Size one full view, then budget for roughly two of them.
    let probe = c.merged_view(None, 0, u64::MAX);
    let view_nodes = probe.len();
    drop(probe);
    c.set_view_node_budget(view_nodes * 2 + view_nodes / 2);

    // Touch many distinct scopes: far more entries than an entry-count
    // cap of 2 would keep, but the *node* total must stay bounded.
    for s in 0..3u16 {
        for from in 0..4u64 {
            let _ = c.merged_view(Some(&[s]), from * SPAN, u64::MAX);
        }
    }
    let _ = c.merged_view(None, 0, u64::MAX);
    let stats = c.view_cache_stats();
    assert_eq!(stats.node_budget, view_nodes * 2 + view_nodes / 2);
    assert!(
        stats.cached_nodes <= stats.node_budget,
        "{} cached nodes over a budget of {}",
        stats.cached_nodes,
        stats.node_budget
    );
    assert!(
        stats.entries > 2,
        "small views must coexist: {} entries",
        stats.entries
    );
    assert!(stats.rebuilds >= stats.entries as u64);

    // Shrinking the budget below a single full view evicts eagerly and
    // stops caching that view — but still answers correctly.
    c.set_view_node_budget(view_nodes / 2);
    let big = c.merged_view(None, 0, u64::MAX);
    assert_eq!(
        big.encode(),
        elementwise_scope(&c, None, 0, u64::MAX).encode()
    );
    let stats = c.view_cache_stats();
    assert!(stats.cached_nodes <= stats.node_budget);
    assert!(stats.evictions > 0);
}

#[test]
fn tiny_scope_floods_are_bounded_by_the_entry_cap() {
    use flowdist::collector::VIEW_CACHE_MAX_ENTRIES;
    let c = collector_with(3, 1);
    // Far more distinct (tiny) scopes than the entry cap: every
    // time-range spelling is its own key, each view just a few nodes,
    // so only the entry cap can bound the per-entry overhead.
    for from in 0..(VIEW_CACHE_MAX_ENTRIES as u64 * 3) {
        let _ = c.merged_view(Some(&[0]), from, from + 1);
    }
    let stats = c.view_cache_stats();
    assert!(
        stats.entries <= VIEW_CACHE_MAX_ENTRIES,
        "{} entries over the cap",
        stats.entries
    );
    assert!(stats.evictions > 0);
}

#[test]
fn cache_stats_count_hits_and_extends() {
    let mut c = collector_with(4, 2);
    let _ = c.merged_view(None, 0, u64::MAX); // rebuild
    let _ = c.merged_view(None, 0, u64::MAX); // hit
    let _ = c.merged_view(None, 0, u64::MAX); // hit
    c.apply(summary(0, 4, 0, 10, 1)).unwrap();
    let _ = c.merged_view(None, 0, u64::MAX); // extend
    let s = c.view_cache_stats();
    assert_eq!((s.rebuilds, s.hits, s.extends), (1, 2, 1));
    assert_eq!(s.entries, 1);
    assert!(s.cached_nodes > 0);
}

/// A collector whose merged views must compact: a view node budget
/// far below what the scope holds.
fn tight_collector(windows: u64, sites: u16) -> Collector {
    let mut c = Collector::new(Schema::five_feature(), Config::with_budget(48));
    for w in 0..windows {
        for s in 0..sites {
            c.apply(summary(s, w, 0, 20 + (w % 4) as u8, 1)).unwrap();
        }
    }
    c
}

#[test]
fn a_view_is_relaid_out_once_per_compaction_and_never_on_a_hit() {
    let mut c = tight_collector(4, 2);
    let view = c.merged_view(None, 0, u64::MAX); // rebuild, compacted
    assert!(view.stats().compactions > 0);
    assert_eq!(c.view_cache_stats().relayouts, 1);
    // The build's answer is the uncached merge's, laid out differently.
    assert_eq!(view.encode(), c.merged(None, 0, u64::MAX).encode());
    view.validate();
    drop(view);
    for _ in 0..3 {
        let _ = c.merged_view(None, 0, u64::MAX); // hits
    }
    let s = c.view_cache_stats();
    assert_eq!((s.rebuilds, s.hits, s.relayouts), (1, 3, 1), "{s:?}");

    // An extend that compacts again is re-laid out once more.
    c.apply(summary(0, 4, 0, 30, 5)).unwrap();
    let view = c.merged_view(None, 0, u64::MAX);
    view.validate();
    drop(view);
    let _ = c.merged_view(None, 0, u64::MAX); // hit
    let s = c.view_cache_stats();
    assert_eq!((s.extends, s.hits, s.relayouts), (1, 4, 2), "{s:?}");

    // A view that never compacts is never re-laid out.
    let mut roomy = collector_with(4, 2);
    for _ in 0..3 {
        let _ = roomy.merged_view(None, 0, u64::MAX);
    }
    roomy.apply(summary(0, 4, 0, 30, 5)).unwrap();
    let _ = roomy.merged_view(None, 0, u64::MAX);
    let s = roomy.view_cache_stats();
    assert_eq!((s.rebuilds, s.hits, s.extends), (1, 2, 1), "{s:?}");
    assert_eq!(s.relayouts, 0, "{s:?}");
}

mod v3_increments {
    use super::*;
    use flowdist::{DistError, EpochHeader, Lineage};

    /// A version-3 frame for `(window, site)`: full or delta.
    fn v3(site: u16, window: u64, epoch: u64, base: Option<u64>, tree: FlowTree) -> Summary {
        Summary {
            site,
            window: WindowId {
                start_ms: window * SPAN,
                span_ms: SPAN,
            },
            seq: epoch,
            kind: match base {
                Some(_) => SummaryKind::Delta,
                None => SummaryKind::Full,
            },
            lineage: Some(Lineage {
                provenance: vec![site],
                epoch: EpochHeader { epoch, base },
            }),
            tree,
        }
    }

    fn tree_of(site: u16, lo: u8, hi: u8, weight: i64) -> FlowTree {
        summary(site, 0, lo, hi, weight).tree
    }

    #[test]
    fn delta_frames_merge_in_place_and_extend_views_without_invalidation() {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        c.apply(v3(0, 0, 1, None, tree_of(0, 0, 10, 1))).unwrap();
        c.apply(summary(1, 0, 0, 10, 1)).unwrap();
        let before = c.merged_view(None, 0, u64::MAX);

        // An increment for site 0's window arrives as a delta: stored
        // tree grows in place, the cached view absorbs the delta.
        c.apply(v3(0, 0, 2, Some(1), tree_of(0, 10, 15, 3)))
            .unwrap();
        let after = c.merged_view(None, 0, u64::MAX);
        let stats = c.view_cache_stats();
        assert_eq!(stats.rebuilds, 1, "no wholesale invalidation: {stats:?}");
        assert_eq!(stats.delta_extends, 1, "{stats:?}");
        assert!(!std::sync::Arc::ptr_eq(&before, &after));

        // The stored window and the view both equal a full re-send.
        let mut full = tree_of(0, 0, 10, 1);
        full.merge(&tree_of(0, 10, 15, 3)).unwrap();
        assert_eq!(c.window_tree(0, 0).unwrap().encode(), full.encode());
        assert_eq!(
            after.total(),
            elementwise_scope(&c, None, 0, u64::MAX).total()
        );
        assert_eq!(c.window_epoch(0, 0), 2);
    }

    /// Stored slots rest frozen (exact arena, no key index). An
    /// in-place delta has to thaw the slot, merge, prune and put it
    /// back — across a chain that grows the slot, cancels part of it
    /// (dead arena slots, so the freeze renumbers) and is probed
    /// through `&self` between increments.
    #[test]
    fn deltas_onto_frozen_slots_equal_a_full_resend() {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        let mut want = tree_of(0, 0, 10, 1);
        c.apply(v3(0, 0, 1, None, want.clone())).unwrap();

        let empty = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
        let cancel = FlowTree::diffed(&empty, &tree_of(0, 0, 5, 1)).unwrap();
        let deltas = [tree_of(0, 10, 30, 3), cancel, tree_of(0, 30, 40, 2)];
        for (i, delta) in deltas.iter().enumerate() {
            let probe = delta.iter().last().expect("deltas are not empty").key;
            let before = c.window_tree(0, 0).unwrap();
            assert_eq!(
                before.popularity(probe),
                want.popularity(probe),
                "probe before delta {i}"
            );
            let len_before = before.len();

            let epoch = i as u64 + 2;
            c.apply(v3(0, 0, epoch, Some(epoch - 1), delta.clone()))
                .unwrap();
            want.merge(delta).unwrap();
            want.prune_zeros();
            let stored = c.window_tree(0, 0).unwrap();
            assert_eq!(stored.encode(), want.encode(), "after delta {i}");
            stored.validate();
            assert_eq!(
                stored.len() < len_before,
                i == 1,
                "only the cancel delta prunes"
            );
        }
    }

    /// A delta that makes a cached view compact marks it; the ingest
    /// path never re-lays it out, the next read does, once.
    #[test]
    fn a_delta_that_compacts_a_view_is_relaid_out_on_the_next_read() {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(48));
        c.apply(v3(0, 0, 1, None, tree_of(0, 0, 20, 1))).unwrap();
        c.apply(v3(1, 0, 1, None, tree_of(1, 0, 20, 1))).unwrap();
        let _ = c.merged_view(None, 0, u64::MAX);
        assert_eq!(c.view_cache_stats().relayouts, 1);

        c.apply(v3(0, 0, 2, Some(1), tree_of(0, 20, 60, 3)))
            .unwrap();
        let s = c.view_cache_stats();
        assert_eq!((s.delta_extends, s.relayouts), (1, 1), "{s:?}");
        let view = c.merged_view(None, 0, u64::MAX);
        view.validate();
        assert_eq!(view.total(), c.merged(None, 0, u64::MAX).total());
        let _ = c.merged_view(None, 0, u64::MAX);
        let s = c.view_cache_stats();
        assert_eq!((s.rebuilds, s.hits, s.relayouts), (1, 2, 2), "{s:?}");
    }

    #[test]
    fn epoch_ledger_rejects_out_of_order_and_orphaned_increments() {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        // An orphaned delta: no stored base at all.
        let err = c.apply(v3(0, 0, 2, Some(1), tree_of(0, 0, 3, 1)));
        assert!(matches!(err, Err(DistError::MissingDeltaBase { site: 0 })));

        c.apply(v3(0, 0, 1, None, tree_of(0, 0, 10, 1))).unwrap();
        c.apply(v3(0, 0, 2, Some(1), tree_of(0, 10, 12, 1)))
            .unwrap();

        // A replayed delta (base 1 again) must not double-apply.
        let err = c.apply(v3(0, 0, 3, Some(1), tree_of(0, 10, 12, 1)));
        assert!(matches!(
            err,
            Err(DistError::EpochMismatch {
                site: 0,
                have: 2,
                got: 1
            })
        ));
        // A delta from the future (base 5) is orphaned.
        let err = c.apply(v3(0, 0, 6, Some(5), tree_of(0, 12, 13, 1)));
        assert!(matches!(err, Err(DistError::EpochMismatch { got: 5, .. })));
        // A full re-export that does not advance the epoch is stale.
        let err = c.apply(v3(0, 0, 2, None, tree_of(0, 0, 5, 1)));
        assert!(matches!(
            err,
            Err(DistError::EpochMismatch {
                have: 2,
                got: 2,
                ..
            })
        ));
        // A full that advances rebases the slot wholesale.
        c.apply(v3(0, 0, 7, None, tree_of(0, 0, 4, 2))).unwrap();
        assert_eq!(c.window_epoch(0, 0), 7);
        assert_eq!(
            c.window_tree(0, 0).unwrap().encode(),
            tree_of(0, 0, 4, 2).encode()
        );
        // And the chain continues from the new base.
        c.apply(v3(0, 0, 8, Some(7), tree_of(0, 4, 6, 2))).unwrap();
    }

    #[test]
    fn base_zero_delta_cannot_graft_onto_a_pre_epoch_slot() {
        // A v1-stored slot has ledger epoch 0. A hostile v3 delta
        // declaring base 0 would pass a naive have == base check and
        // merge onto a tree its exporter never pinned — both the
        // decoder and the in-process apply path must reject it.
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        c.apply(summary(0, 0, 0, 10, 1)).unwrap();
        let before = c.window_tree(0, 0).unwrap().encode();
        let mut hostile = v3(0, 0, 1, Some(0), tree_of(0, 10, 14, 9));
        let err = c.apply(hostile.clone());
        assert!(
            matches!(err, Err(DistError::BadFrame("zero delta base epoch"))),
            "{err:?}"
        );
        // The wire path rejects it at decode already; force the header
        // bytes through encode by checking encode panics are debug-only
        // — construct the frame bytes by patching a valid one instead.
        hostile.lineage.as_mut().unwrap().epoch = EpochHeader {
            epoch: 2,
            base: Some(1),
        };
        let mut bytes = hostile.encode();
        // Locate the base varint (=1) right before the provenance
        // count (=1) and site id; epoch=2 precedes it.
        let tree_len = hostile.tree.encode().len();
        let base_at = bytes.len() - tree_len - (1 + 2) - 1;
        assert_eq!(bytes[base_at], 1, "base byte located");
        bytes[base_at] = 0;
        assert!(c.apply_bytes(&bytes).is_err());
        // The stored window is untouched by all attempts.
        assert_eq!(c.window_tree(0, 0).unwrap().encode(), before);
        assert_eq!(c.window_epoch(0, 0), 0);
    }

    #[test]
    fn per_window_coverage_reflects_declared_provenance() {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        // Window 0: an aggregate claiming sites 0,1 plus a plain frame
        // from site 4. Window 1: only the plain frame.
        let mut agg = v3(100, 0, 1, None, tree_of(0, 0, 5, 1));
        agg.lineage.as_mut().unwrap().provenance = vec![0, 1];
        c.apply(agg).unwrap();
        c.apply(summary(4, 0, 0, 3, 1)).unwrap();
        c.apply(summary(4, 1, 0, 3, 1)).unwrap();
        assert_eq!(
            c.window_coverage(0).into_iter().collect::<Vec<_>>(),
            vec![0, 1, 4]
        );
        assert_eq!(
            c.window_coverage(SPAN).into_iter().collect::<Vec<_>>(),
            vec![4]
        );
        assert!(c.window_coverage(2 * SPAN).is_empty());
        assert_eq!(c.window_provenance(0, 100), Some(&[0u16, 1][..]));
        assert_eq!(c.window_provenance(0, 4), None);
        // Eviction forgets the ledger with the windows.
        c.evict_windows_before(SPAN);
        assert!(c.window_coverage(0).is_empty());
        assert_eq!(c.window_epoch(0, 100), 0);
    }
}

#[test]
fn lifted_matches_element_wise_lift() {
    // The merge_many-based lift must agree with re-inserting every
    // window's re-keyed masses element-wise (generous budget: no
    // compaction on either path).
    use flowkey::{Site, TimeBucket};
    let c = collector_with(4, 2);
    let mega = c.lifted(100_000);
    let mut reference = FlowTree::new(Schema::extended(), Config::with_budget(100_000));
    for (w, s) in c.window_keys() {
        let tree = c.window_tree(w, s).unwrap();
        let time = TimeBucket::new(w / 1000, 0).unwrap_or(TimeBucket::ANY);
        for v in tree.iter() {
            if v.comp.is_zero() {
                continue;
            }
            reference.insert(&v.key.with_site(Site::Is(s)).with_time(time), v.comp);
        }
    }
    assert_eq!(mega.total(), reference.total());
    // Same drill-down answers inside the single mega structure.
    let site1: FlowKey = "site=1".parse().unwrap();
    assert_eq!(
        mega.estimate_pattern(&site1).packets,
        reference.estimate_pattern(&site1).packets
    );
}
