//! The central collector ("database" in Fig. 1).
//!
//! Receives summaries from every site, reconstructs per-(site, window)
//! Flowtrees (applying deltas to the previous window), accounts transfer
//! volume, and serves the distributed queries: merge across any set of
//! sites and any time range, pattern estimation, and the lifted
//! time+site mega-tree for single-structure drill-down.
//!
//! ## Merged-view cache
//!
//! Range merges are the collector's hot read path — every
//! `flowquery::QueryEngine::run` that ranks, drills, or extracts heavy
//! hitters evaluates against one merged tree. [`Collector::merged_view`]
//! therefore caches merged trees keyed by the **normalized** scope
//! (sorted site set + `[from_ms, to_ms)` range) and keeps them fresh
//! incrementally. The invalidation rules:
//!
//! * A **new** `(window, site)` pair entering a cached scope does *not*
//!   invalidate the view: the next `merged_view` call merges just the
//!   newly applied summaries into the cached tree (one structural
//!   [`FlowTree::merge_many`] over the missing pairs).
//! * **Replacing** a stored pair (a site re-sends a window) or
//!   **evicting** pairs ([`Collector::evict_windows_before`]) bumps the
//!   collector epoch, which invalidates *every* cached view; the next
//!   query rebuilds its view from the stored trees.
//! * Cache **memory** is bounded by the total number of tree *nodes*
//!   held across entries ([`Collector::set_view_node_budget`], default
//!   [`DEFAULT_VIEW_NODE_BUDGET`]) — not primarily by entry count,
//!   since one thousand-window view dwarfs a hundred small ones.
//!   Least-recently-used entries are dropped until the total fits; a
//!   single view larger than the whole budget is not cached at all;
//!   and a secondary [`VIEW_CACHE_MAX_ENTRIES`] cap bounds per-entry
//!   overhead against floods of tiny distinct scopes.
//!   [`Collector::view_cache_stats`] exposes the budget and the
//!   hit/extend/rebuild/eviction/relayout counters.
//! * **Layout**: a view whose compaction ran — in its build, in an
//!   extend, or while it absorbed a delta — is re-laid out in
//!   pre-order ([`FlowTree::relayout_preorder`]) once, on the read
//!   path, before `merged_view` returns it. Compaction frees slots all
//!   over the view's arena and later merges refill them at random, so
//!   without it every tree-order walk of a query misses the cache on
//!   nearly every node. A view that did not compact keeps its layout,
//!   and nothing on the ingest path ([`Collector::apply`]) ever re-lays
//!   out a view. Stored windows need no such step: a decoded window
//!   is in pre-order already, and freezing a slot after a delta merge
//!   that compacted or pruned squeezes it into pre-order
//!   ([`FlowTree::shrink_to_fit`]).
//!
//! Views are handed out as `Arc<FlowTree>` snapshots: a query keeps
//! reading its snapshot even if the cache refreshes behind it (the
//! refresh copies on write). With a node budget in play, an
//! incrementally extended view can compact at different points than a
//! from-scratch rebuild — totals are conserved either way, exactly as
//! for any merge order.

use crate::summary::{Lineage, Summary, SummaryKind};
use crate::window::WindowId;
use crate::DistError;
use flowkey::{FlowKey, Schema, Site, TimeBucket};
use flowtree_core::{Config, FlowTree, PopEst, Popularity};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Transfer-volume bookkeeping — the evidence for the paper's
/// storage/transfer-reduction claims.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferLedger {
    /// Summary frames received.
    pub summaries: u64,
    /// Bytes of full summaries received.
    pub full_bytes: u64,
    /// Bytes of delta summaries received.
    pub delta_bytes: u64,
    /// Frames rejected (bad frames, schema mismatch, missing base…).
    pub rejected: u64,
}

/// Default bound on the **total tree nodes** held by cached merged
/// views across all entries (≈ 100 B per node ⇒ on the order of
/// 100 MiB of cached views).
pub const DEFAULT_VIEW_NODE_BUDGET: usize = 1 << 20;

/// Hard cap on cached-view **entries**, independent of the node
/// budget: per-entry overhead (keys, applied-pair lists, map slots)
/// is invisible to the node count, so a client sweeping many tiny
/// scopes (every distinct time range is its own entry) must not
/// accumulate unbounded entries under the node budget.
pub const VIEW_CACHE_MAX_ENTRIES: usize = 64;

/// Observable state of the merged-view cache (see the module docs for
/// the caching rules it reflects).
#[derive(Debug, Clone, Copy, Default)]
pub struct ViewCacheStats {
    /// Views currently cached.
    pub entries: usize,
    /// Total live tree nodes across cached views.
    pub cached_nodes: usize,
    /// The node budget those views are bounded by.
    pub node_budget: usize,
    /// Queries answered from a cached view as-is.
    pub hits: u64,
    /// Cached views extended incrementally with new windows.
    pub extends: u64,
    /// Cached views extended **in place** by an incoming version-3
    /// delta frame (the stored window grew; views that had merged it
    /// absorb the same delta instead of being invalidated).
    pub delta_extends: u64,
    /// Views built (first use or after invalidation).
    pub rebuilds: u64,
    /// Entries dropped to fit the node budget or the entry cap.
    pub evictions: u64,
    /// Views re-laid out in pre-order after a compaction (see the
    /// module docs).
    pub relayouts: u64,
}

/// Cache key: a normalized query scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ViewKey {
    /// Sorted, deduplicated site filter (`None` = all sites).
    sites: Option<Vec<u16>>,
    from_ms: u64,
    to_ms: u64,
}

/// One cached merged view (see the module docs for invalidation rules).
#[derive(Debug)]
struct ViewEntry {
    tree: Arc<FlowTree>,
    /// The (window start, site) pairs merged into `tree`, sorted.
    applied: Vec<(u64, u16)>,
    /// Collector epoch the entry was built under.
    epoch: u64,
    /// LRU clock of the last hit.
    touch: u64,
    /// A compaction ran since the tree was last laid out in pre-order.
    scattered: bool,
}

#[derive(Debug, Default)]
struct ViewCache {
    entries: HashMap<ViewKey, ViewEntry>,
    clock: u64,
    hits: u64,
    extends: u64,
    delta_extends: u64,
    rebuilds: u64,
    evictions: u64,
    relayouts: u64,
}

impl ViewCache {
    fn cached_nodes(&self) -> usize {
        self.entries.values().map(|e| e.tree.len()).sum()
    }

    /// Drops least-recently-used entries until both limits hold: the
    /// cached node total fits `budget` and the entry count fits
    /// [`VIEW_CACHE_MAX_ENTRIES`]. The just-touched entry (`keep`)
    /// goes last — and goes too if it alone exceeds the budget.
    fn enforce_budget(&mut self, budget: usize, keep: Option<&ViewKey>) {
        while self.entries.len() > VIEW_CACHE_MAX_ENTRIES
            || (!self.entries.is_empty() && self.cached_nodes() > budget)
        {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| keep.is_none_or(|kept| *k != kept))
                .min_by_key(|(_, e)| e.touch)
                .map(|(k, _)| k.clone())
                .or_else(|| keep.cloned());
            let Some(victim) = victim else {
                break;
            };
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// What the epoch ledger records per stored `(window, exporter)` slot:
/// the content epoch a version-3 stream has advanced it to, and the
/// per-window site-set provenance the last frame declared.
#[derive(Debug, Clone)]
struct WindowMeta {
    /// Content epoch (0 for version-1 frames).
    epoch: u64,
    /// Sequence number of the frame that last stored the slot — what a
    /// crash-safe snapshot needs to reconstruct an equivalent frame.
    seq: u64,
    /// Declared provenance (`None` for plain site frames, which cover
    /// exactly their own site).
    provenance: Option<Vec<u16>>,
}

/// The collector.
#[derive(Debug)]
pub struct Collector {
    schema: Schema,
    tree_cfg: Config,
    /// (window start, site) → reconstructed tree.
    windows: BTreeMap<(u64, u16), FlowTree>,
    /// Per site: how many slots of `windows` it keys, so the per-query
    /// scope bookkeeping never walks every stored key.
    site_slots: BTreeMap<u16, usize>,
    /// The epoch ledger: per stored slot, the content epoch and the
    /// per-window provenance (see [`WindowMeta`]). Gate for version-3
    /// increments: a delta only applies when its declared base equals
    /// the stored epoch, a full only when it strictly advances it.
    meta: BTreeMap<(u64, u16), WindowMeta>,
    /// Per-site: last reconstructed window (base for v1 deltas) and seq.
    last: BTreeMap<u16, (u64, u64)>,
    ledger: TransferLedger,
    /// Bumped whenever a stored window is replaced or evicted — the
    /// events that invalidate cached merged views wholesale.
    epoch: u64,
    /// Total cached-view nodes allowed (see the module docs).
    view_node_budget: usize,
    /// Merged-view cache (interior mutability: queries take `&self`).
    views: Mutex<ViewCache>,
}

impl Collector {
    /// Creates an empty collector for one schema.
    pub fn new(schema: Schema, tree_cfg: Config) -> Collector {
        Collector {
            schema,
            tree_cfg,
            windows: BTreeMap::new(),
            site_slots: BTreeMap::new(),
            meta: BTreeMap::new(),
            last: BTreeMap::new(),
            ledger: TransferLedger::default(),
            epoch: 0,
            view_node_budget: DEFAULT_VIEW_NODE_BUDGET,
            views: Mutex::new(ViewCache::default()),
        }
    }

    /// Transfer bookkeeping.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Bounds the merged-view cache to `nodes` total cached tree nodes
    /// (existing entries are trimmed immediately).
    pub fn set_view_node_budget(&mut self, nodes: usize) {
        self.view_node_budget = nodes;
        self.views
            .lock()
            .expect("view cache lock")
            .enforce_budget(nodes, None);
    }

    /// A snapshot of the merged-view cache counters and its budget.
    pub fn view_cache_stats(&self) -> ViewCacheStats {
        let cache = self.views.lock().expect("view cache lock");
        ViewCacheStats {
            entries: cache.entries.len(),
            cached_nodes: cache.cached_nodes(),
            node_budget: self.view_node_budget,
            hits: cache.hits,
            extends: cache.extends,
            delta_extends: cache.delta_extends,
            rebuilds: cache.rebuilds,
            evictions: cache.evictions,
            relayouts: cache.relayouts,
        }
    }

    /// Stored (window, site) count.
    pub fn stored_windows(&self) -> usize {
        self.windows.len()
    }

    /// The sites with at least one stored window, ascending.
    pub fn sites(&self) -> Vec<u16> {
        self.site_slots.keys().copied().collect()
    }

    /// Whether any window of `site` is stored.
    pub fn stores_site(&self, site: u16) -> bool {
        self.site_slots.contains_key(&site)
    }

    /// Decodes and applies one summary frame from the wire.
    pub fn apply_bytes(&mut self, bytes: &[u8]) -> Result<(), DistError> {
        let summary = match Summary::decode(bytes, self.tree_cfg) {
            Ok(s) => s,
            Err(e) => {
                self.ledger.rejected += 1;
                return Err(e);
            }
        };
        let n = bytes.len() as u64;
        match self.apply(summary) {
            Ok(kind) => {
                self.ledger.summaries += 1;
                match kind {
                    SummaryKind::Full => self.ledger.full_bytes += n,
                    SummaryKind::Delta => self.ledger.delta_bytes += n,
                }
                Ok(())
            }
            Err(e) => {
                self.ledger.rejected += 1;
                Err(e)
            }
        }
    }

    /// Applies an already-decoded summary; returns its kind.
    ///
    /// Version-3 frames run the **epoch handshake** first: a `Full`
    /// frame must strictly advance the slot's stored epoch (replacing
    /// the window wholesale, invalidating cached views exactly as any
    /// replacement does); a `Delta` frame must declare the stored
    /// epoch as its base, and then applies by **structural merge onto
    /// the stored tree in place** — cached views that had merged the
    /// old tree absorb the same delta instead of being invalidated.
    /// Any other pairing is an out-of-order or orphaned increment and
    /// is rejected with [`DistError::EpochMismatch`].
    pub fn apply(&mut self, mut summary: Summary) -> Result<SummaryKind, DistError> {
        if *summary.tree.schema() != self.schema {
            return Err(DistError::SchemaMismatch);
        }
        if let Some(lineage) = summary.lineage.take() {
            return self.apply_incremental(summary, lineage);
        }
        let kind = summary.kind;
        let tree = match kind {
            SummaryKind::Full => summary.tree,
            SummaryKind::Delta => {
                // A delta is defined against the site's *immediately
                // preceding* summary. Verify continuity (sequence number
                // must be consecutive) — applying a delta onto the wrong
                // base would silently corrupt the reconstruction.
                let Some(&(base_start, base_seq)) = self.last.get(&summary.site) else {
                    return Err(DistError::MissingDeltaBase { site: summary.site });
                };
                if summary.seq != base_seq + 1 {
                    return Err(DistError::MissingDeltaBase { site: summary.site });
                }
                let base = self
                    .windows
                    .get(&(base_start, summary.site))
                    .ok_or(DistError::MissingDeltaBase { site: summary.site })?;
                let mut rebuilt = base.clone();
                rebuilt
                    .merge(&summary.tree)
                    .map_err(|_| DistError::SchemaMismatch)?;
                rebuilt.prune_zeros();
                rebuilt
            }
        };
        self.last
            .insert(summary.site, (summary.window.start_ms, summary.seq));
        let slot = (summary.window.start_ms, summary.site);
        self.meta.insert(
            slot,
            WindowMeta {
                epoch: 0,
                seq: summary.seq,
                provenance: None,
            },
        );
        self.store_window(slot, tree);
        Ok(kind)
    }

    /// Stores `tree` as the slot's window, frozen: stored windows are
    /// read (merged from, encoded, walked) far more than they are
    /// probed.
    fn store_window(&mut self, slot: (u64, u16), mut tree: FlowTree) {
        tree.shrink_to_fit();
        if self.windows.insert(slot, tree).is_some() {
            // A stored window was replaced: cached views that merged
            // the old tree are stale beyond repair — invalidate all.
            self.invalidate_views();
        } else {
            *self.site_slots.entry(slot.1).or_default() += 1;
        }
    }

    /// The version-3 half of [`Collector::apply`]: epoch-gated full
    /// replacement or in-place delta merge (see `apply`'s docs).
    fn apply_incremental(
        &mut self,
        summary: Summary,
        Lineage {
            provenance,
            epoch: eh,
        }: Lineage,
    ) -> Result<SummaryKind, DistError> {
        let kind = summary.kind;
        let slot = (summary.window.start_ms, summary.site);
        let have = self.meta.get(&slot).map_or(0, |m| m.epoch);
        match kind {
            SummaryKind::Full => {
                if self.windows.contains_key(&slot) && eh.epoch <= have {
                    return Err(DistError::EpochMismatch {
                        site: summary.site,
                        have,
                        got: eh.epoch,
                    });
                }
                self.store_window(slot, summary.tree);
            }
            SummaryKind::Delta => {
                let base = eh
                    .base
                    .ok_or(DistError::BadFrame("v3 delta without base epoch"))?;
                if base == 0 {
                    // Decode already rejects this on the wire; guard
                    // the in-process path too — epochs start at 1, so
                    // a base-0 delta would merge onto a version-1
                    // stored tree the exporter never saw.
                    return Err(DistError::BadFrame("zero delta base epoch"));
                }
                let Some(stored) = self.windows.get_mut(&slot) else {
                    return Err(DistError::MissingDeltaBase { site: summary.site });
                };
                if have != base {
                    return Err(DistError::EpochMismatch {
                        site: summary.site,
                        have,
                        got: base,
                    });
                }
                stored
                    .merge(&summary.tree)
                    .map_err(|_| DistError::SchemaMismatch)?;
                stored.prune_zeros();
                // The merge thawed the slot; put it back to rest.
                stored.shrink_to_fit();
                self.extend_views_with_delta(slot, &summary.tree);
            }
        }
        self.meta.insert(
            slot,
            WindowMeta {
                epoch: eh.epoch,
                seq: summary.seq,
                provenance: Some(provenance),
            },
        );
        Ok(kind)
    }

    /// Merges an applied version-3 delta into every current cached
    /// view that had already merged the slot's stored tree, so the
    /// increment costs one small merge per affected view instead of a
    /// wholesale invalidation.
    fn extend_views_with_delta(&self, slot: (u64, u16), delta: &FlowTree) {
        let mut cache = self.views.lock().expect("view cache lock");
        let cache = &mut *cache;
        let mut touched = 0u64;
        for e in cache.entries.values_mut() {
            if e.epoch == self.epoch && e.applied.binary_search(&slot).is_ok() {
                let tree = Arc::make_mut(&mut e.tree);
                let compactions = tree.stats().compactions;
                tree.merge(delta).expect("uniform schema in collector");
                tree.prune_zeros();
                // Re-laid out by the next read, not here on ingest.
                e.scattered |= tree.stats().compactions > compactions;
                touched += 1;
            }
        }
        if touched > 0 {
            cache.delta_extends += touched;
            cache.enforce_budget(self.view_node_budget, None);
        }
    }

    /// Drops every stored window starting before `cutoff_ms`
    /// (retention), returning how many were evicted. Eviction
    /// invalidates all cached merged views (epoch bump).
    pub fn evict_windows_before(&mut self, cutoff_ms: u64) -> usize {
        let keep = self.windows.split_off(&(cutoff_ms, u16::MIN));
        let dropped = std::mem::replace(&mut self.windows, keep);
        for (_, site) in dropped.keys() {
            let slots = self.site_slots.get_mut(site).expect("stored site");
            *slots -= 1;
            if *slots == 0 {
                self.site_slots.remove(site);
            }
        }
        let dropped = dropped.len();
        let meta_keep = self.meta.split_off(&(cutoff_ms, u16::MIN));
        self.meta = meta_keep;
        if dropped > 0 {
            self.invalidate_views();
        }
        dropped
    }

    /// The start of the oldest window anything is stored for (a tree
    /// or its epoch ledger entry) — what retention evicts first.
    pub fn oldest_window_start(&self) -> Option<u64> {
        let tree = self.windows.keys().next().map(|&(start, _)| start);
        let meta = self.meta.keys().next().map(|&(start, _)| start);
        tree.into_iter().chain(meta).min()
    }

    /// Bumps the epoch and drops every cached view eagerly — they are
    /// all stale, and holding them until the same scopes happen to be
    /// re-queried would pin up to a full node budget of merged trees.
    fn invalidate_views(&mut self) {
        self.epoch += 1;
        self.views.lock().expect("view cache lock").entries.clear();
    }

    /// Tree for one (window, site), if stored.
    pub fn window_tree(&self, window_start_ms: u64, site: u16) -> Option<&FlowTree> {
        self.windows.get(&(window_start_ms, site))
    }

    /// All stored `(window start ms, site)` pairs, in time order.
    pub fn window_keys(&self) -> Vec<(u64, u16)> {
        self.windows.keys().copied().collect()
    }

    /// The stored `(window start ms, site)` pairs whose window starts
    /// in `[from_ms, to_ms)`, in time order, read off the store's range
    /// rather than every key.
    pub fn window_keys_in(
        &self,
        from_ms: u64,
        to_ms: u64,
    ) -> impl Iterator<Item = (u64, u16)> + '_ {
        self.scoped(None, from_ms, to_ms).map(|(k, _)| k)
    }

    /// The content epoch of one stored `(window, exporter)` slot (0 =
    /// not stored, or stored by a version-1 frame).
    pub fn window_epoch(&self, window_start_ms: u64, site: u16) -> u64 {
        self.meta
            .get(&(window_start_ms, site))
            .map_or(0, |m| m.epoch)
    }

    /// The sequence number of the frame that last stored one slot
    /// (0 = slot absent). With [`Collector::window_epoch`] and
    /// [`Collector::window_provenance`] this is everything a snapshot
    /// needs to reconstruct a frame that restores the slot exactly.
    pub fn window_seq(&self, window_start_ms: u64, site: u16) -> u64 {
        self.meta.get(&(window_start_ms, site)).map_or(0, |m| m.seq)
    }

    /// The declared per-window provenance of one stored slot: the real
    /// sites folded into that window under that key. `None` when the
    /// slot is absent or was stored by a plain site frame (which covers
    /// exactly its own site).
    pub fn window_provenance(&self, window_start_ms: u64, site: u16) -> Option<&[u16]> {
        self.meta
            .get(&(window_start_ms, site))
            .and_then(|m| m.provenance.as_deref())
    }

    /// The real sites actually folded into one window, across every
    /// stored key: per-slot provenance where declared, the key itself
    /// for plain site frames. This is **per-window truth** — a site
    /// that reported other windows but not this one is absent.
    pub fn window_coverage(&self, window_start_ms: u64) -> BTreeSet<u16> {
        let mut out = BTreeSet::new();
        for (_, site) in self
            .windows
            .range((window_start_ms, u16::MIN)..=(window_start_ms, u16::MAX))
            .map(|(k, _)| *k)
        {
            match self.window_provenance(window_start_ms, site) {
                Some(p) => out.extend(p.iter().copied()),
                None => {
                    out.insert(site);
                }
            }
        }
        out
    }

    /// The stored trees matching a normalized scope, in key order. The
    /// time range selects via the `BTreeMap` range (no full scan) and
    /// the site filter binary-searches the pre-sorted `wanted` list —
    /// not an `O(sites)` scan per stored window.
    fn scoped<'a>(
        &'a self,
        wanted: Option<&'a [u16]>,
        from_ms: u64,
        to_ms: u64,
    ) -> impl Iterator<Item = ((u64, u16), &'a FlowTree)> {
        let (lo, hi) = if from_ms < to_ms {
            ((from_ms, u16::MIN), (to_ms, u16::MIN))
        } else {
            ((0, 0), (0, 0))
        };
        self.windows
            .range(lo..hi)
            .filter(move |((_, site), _)| wanted.is_none_or(|w| w.binary_search(site).is_ok()))
            .map(|(k, t)| (*k, t))
    }

    /// Merges every stored tree matching the site set and time range —
    /// the paper's distributed `merge` in action, executed as **one**
    /// k-way structural [`FlowTree::merge_many`] pass instead of one
    /// element-wise merge per window. `sites = None` means all sites;
    /// the range is `[from_ms, to_ms)`. Uncached; repeated queries over
    /// a stable scope should prefer [`Collector::merged_view`].
    pub fn merged(&self, sites: Option<&[u16]>, from_ms: u64, to_ms: u64) -> FlowTree {
        let wanted = normalize_sites(sites);
        let trees: Vec<&FlowTree> = self
            .scoped(wanted.as_deref(), from_ms, to_ms)
            .map(|(_, t)| t)
            .collect();
        self.merge_of(&trees)
    }

    /// A fresh tree holding the k-way merge of `trees`, reserved for
    /// the largest of them (what the result is known to hold at least).
    fn merge_of(&self, trees: &[&FlowTree]) -> FlowTree {
        let mut out = FlowTree::new(self.schema, self.tree_cfg);
        out.reserve(trees.iter().map(|t| t.len()).max().unwrap_or(0));
        out.merge_many(trees).expect("uniform schema in collector");
        out
    }

    /// The cached merged view for a scope: builds it with one k-way
    /// merge on first use, extends it incrementally with newly applied
    /// summaries on later calls, and rebuilds after an invalidation
    /// (see the module docs for the exact rules). The returned `Arc` is
    /// a consistent snapshot — later cache refreshes never mutate it.
    pub fn merged_view(&self, sites: Option<&[u16]>, from_ms: u64, to_ms: u64) -> Arc<FlowTree> {
        let wanted = normalize_sites(sites);
        let in_scope: Vec<(u64, u16)> = self
            .scoped(wanted.as_deref(), from_ms, to_ms)
            .map(|(k, _)| k)
            .collect();
        let key = ViewKey {
            sites: wanted,
            from_ms,
            to_ms,
        };
        let mut cache = self.views.lock().expect("view cache lock");
        cache.clock += 1;
        let clock = cache.clock;
        if let Some(e) = cache.entries.get_mut(&key) {
            let missing = if e.epoch == self.epoch {
                missing_pairs(&e.applied, &in_scope)
            } else {
                None
            };
            if let Some(missing) = missing {
                let extended = !missing.is_empty();
                if extended {
                    let add: Vec<&FlowTree> = missing
                        .iter()
                        .map(|p| self.windows.get(p).expect("scoped pair is stored"))
                        .collect();
                    let tree = Arc::make_mut(&mut e.tree);
                    let compactions = tree.stats().compactions;
                    tree.merge_many(&add).expect("uniform schema in collector");
                    e.scattered |= tree.stats().compactions > compactions;
                    e.applied = in_scope;
                }
                e.touch = clock;
                let relaid = std::mem::take(&mut e.scattered);
                if relaid {
                    Arc::make_mut(&mut e.tree).relayout_preorder();
                }
                let out = Arc::clone(&e.tree);
                if extended {
                    cache.extends += 1;
                } else {
                    cache.hits += 1;
                }
                cache.relayouts += u64::from(relaid);
                cache.enforce_budget(self.view_node_budget, Some(&key));
                return out;
            }
            cache.entries.remove(&key);
        }
        let trees: Vec<&FlowTree> = in_scope
            .iter()
            .map(|p| self.windows.get(p).expect("scoped pair is stored"))
            .collect();
        let mut tree = self.merge_of(&trees);
        if tree.stats().compactions > 0 {
            tree.relayout_preorder();
            cache.relayouts += 1;
        }
        let arc = Arc::new(tree);
        cache.rebuilds += 1;
        cache.entries.insert(
            key.clone(),
            ViewEntry {
                tree: Arc::clone(&arc),
                applied: in_scope,
                epoch: self.epoch,
                touch: clock,
                scattered: false,
            },
        );
        cache.enforce_budget(self.view_node_budget, Some(&key));
        arc
    }

    /// Estimates a pattern over a site set and time range by summing
    /// per-window estimates (window trees compacted independently keep
    /// their own error bounds, so this is not the same number as an
    /// estimate on the merged view under budget pressure).
    pub fn query(
        &self,
        pattern: &FlowKey,
        sites: Option<&[u16]>,
        from_ms: u64,
        to_ms: u64,
    ) -> PopEst {
        let wanted = normalize_sites(sites);
        let mut acc = PopEst::ZERO;
        for (_, tree) in self.scoped(wanted.as_deref(), from_ms, to_ms) {
            acc += tree.estimate_pattern(pattern);
        }
        acc
    }

    /// Builds the **lifted mega-tree**: every stored mass re-keyed with
    /// its site and (dyadic) time bucket under the extended schema, so a
    /// single Flowtree answers cross-site cross-time drill-downs — the
    /// paper's "extends Flowtree by adding two features, namely time and
    /// monitor location".
    pub fn lifted(&self, budget: usize) -> FlowTree {
        // One extended-schema tree per stored window (re-keying its
        // masses with site and dyadic time bucket), folded into the
        // mega-tree with chunked k-way structural merges — instead of
        // pushing every node of every window through the mega-tree's
        // insert path. Chunking (merge + compact every
        // [`Self::LIFT_CHUNK`] windows) keeps peak memory near
        // `budget` plus one chunk, not the sum of all stored windows.
        let schema = Schema::extended();
        let mut out = FlowTree::new(schema, Config::with_budget(budget));
        let mut parts: Vec<FlowTree> = Vec::new();
        let fold = |out: &mut FlowTree, parts: &mut Vec<FlowTree>| {
            let refs: Vec<&FlowTree> = parts.iter().collect();
            out.merge_many(&refs).expect("uniform schema");
            parts.clear();
        };
        for ((start, site), tree) in &self.windows {
            // The finest dyadic bucket fully containing the window.
            let span_s = (tree_window_span(tree, self).max(1000) / 1000).max(1);
            let level = 64 - u64::leading_zeros(span_s.next_power_of_two()) as u8 - 1;
            let time = TimeBucket::new(start / 1000, level.min(TimeBucket::MAX_LEVEL))
                .unwrap_or(TimeBucket::ANY);
            parts.push(FlowTree::from_masses(
                schema,
                Config::with_budget(usize::MAX),
                tree.iter()
                    .filter(|v| !v.comp.is_zero())
                    .map(|v| (v.key.with_site(Site::Is(*site)).with_time(time), v.comp)),
            ));
            if parts.len() >= Self::LIFT_CHUNK {
                fold(&mut out, &mut parts);
            }
        }
        if !parts.is_empty() {
            fold(&mut out, &mut parts);
        }
        out
    }

    /// Windows folded per k-way merge while lifting: large enough to
    /// amortize the pass, small enough to bound transient memory.
    const LIFT_CHUNK: usize = 16;

    /// Total mass stored across all windows/sites.
    pub fn total(&self) -> Popularity {
        self.windows.values().map(|t| t.total()).sum()
    }

    /// Sweeps one site's stored windows in time order and reports the
    /// significant window-over-window changes (the future-work
    /// "alarming when there are significant differences"). Returns
    /// `(window that changed, events)` pairs; windows missing from the
    /// store are skipped, so a lost summary never mis-attributes a
    /// change to the wrong pair.
    pub fn alarms(
        &self,
        site: u16,
        cfg: &crate::alarm::AlarmConfig,
    ) -> Vec<(WindowId, Vec<crate::alarm::AlarmEvent>)> {
        let mut windows: Vec<(u64, &FlowTree)> = self
            .windows
            .iter()
            .filter(|((_, s), _)| *s == site)
            .map(|((start, _), tree)| (*start, tree))
            .collect();
        windows.sort_by_key(|(start, _)| *start);
        let mut out = Vec::new();
        for pair in windows.windows(2) {
            let (prev_start, prev) = pair[0];
            let (cur_start, cur) = pair[1];
            // Only adjacent windows are comparable.
            let span = cur_start - prev_start;
            let events = crate::alarm::detect(prev, cur, cfg);
            if !events.is_empty() {
                out.push((
                    WindowId {
                        start_ms: cur_start,
                        span_ms: span,
                    },
                    events,
                ));
            }
        }
        out
    }
}

/// Window span lookup helper: spans are uniform per deployment; derive
/// from stored keys when possible (fallback 300 000 ms).
fn tree_window_span(_tree: &FlowTree, c: &Collector) -> u64 {
    // All windows share one span in this system; read it from any key.
    c.windows
        .keys()
        .zip(c.windows.keys().skip(1))
        .find(|((a, _), (b, _))| a != b)
        .map(|((a, _), (b, _))| b - a)
        .unwrap_or(300_000)
}

/// Sorts and deduplicates a site filter so scope keys normalize and
/// membership tests binary-search.
fn normalize_sites(sites: Option<&[u16]>) -> Option<Vec<u16>> {
    sites.map(|s| {
        let mut v = s.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    })
}

/// With `applied ⊆ scope` (both sorted ascending), the scope pairs not
/// yet applied; `None` if some applied pair left the scope (a cached
/// view that can only be rebuilt, not extended).
fn missing_pairs(applied: &[(u64, u16)], scope: &[(u64, u16)]) -> Option<Vec<(u64, u16)>> {
    let mut missing = Vec::new();
    let mut ai = applied.iter().peekable();
    for p in scope {
        match ai.peek() {
            Some(&&a) if a == *p => {
                ai.next();
            }
            Some(&&a) if a < *p => return None,
            _ => missing.push(*p),
        }
    }
    if ai.next().is_some() {
        return None;
    }
    Some(missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, SiteDaemon, TransferMode};
    use flownet::FlowRecord;

    fn record(ts_ms: u64, site_octet: u8, host: u8, packets: u64) -> FlowRecord {
        let mut r = FlowRecord::v4(
            [10, site_octet, 0, host],
            [192, 0, 2, 1],
            2000,
            443,
            6,
            packets,
            packets * 500,
        );
        r.first_ms = ts_ms;
        r.last_ms = ts_ms;
        r
    }

    fn site_daemon(site: u16, transfer: TransferMode) -> SiteDaemon {
        let mut cfg = DaemonConfig::new(site);
        cfg.window_ms = 1000;
        cfg.tree = Config::with_budget(256);
        cfg.schema = Schema::five_feature();
        cfg.transfer = transfer;
        SiteDaemon::new(cfg)
    }

    fn feed(collector: &mut Collector, summaries: Vec<Summary>) {
        for s in summaries {
            let bytes = s.encode();
            collector.apply_bytes(&bytes).expect("valid summary");
        }
    }

    #[test]
    fn collects_and_merges_across_sites_and_windows() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(1024));
        for site in 0..3u16 {
            let mut d = site_daemon(site, TransferMode::Full);
            let mut summaries = Vec::new();
            for w in 0..4u64 {
                for h in 0..5u8 {
                    summaries.extend(d.ingest_record(&record(
                        w * 1000 + 100 + h as u64,
                        site as u8,
                        h,
                        2,
                    )));
                }
            }
            summaries.extend(d.flush());
            feed(&mut collector, summaries);
        }
        assert_eq!(collector.sites(), vec![0, 1, 2]);
        assert_eq!(collector.stored_windows(), 12);
        // Everything: 3 sites × 4 windows × 5 hosts × 2 packets.
        let all = collector.merged(None, 0, u64::MAX);
        assert_eq!(all.total().packets, 120);
        // One site, two windows.
        let some = collector.merged(Some(&[1]), 1000, 3000);
        assert_eq!(some.total().packets, 20);
        // Pattern query across sites: traffic from 10.2.0.0/16 (site 2).
        let est = collector.query(&"src=10.2.0.0/16".parse().unwrap(), None, 0, u64::MAX);
        assert!((est.packets - 40.0).abs() < 1e-6);
    }

    #[test]
    fn delta_pipeline_reconstructs_identically() {
        // Run the same input through Full and Delta pipelines; the
        // reconstructed trees must agree on every window.
        let runs: Vec<Collector> = [TransferMode::Full, TransferMode::Delta]
            .into_iter()
            .map(|mode| {
                let mut collector =
                    Collector::new(Schema::five_feature(), Config::with_budget(1024));
                let mut d = site_daemon(9, mode);
                let mut summaries = Vec::new();
                for w in 0..5u64 {
                    for h in 0..8u8 {
                        if !(h as u64 + w).is_multiple_of(3) {
                            summaries.extend(d.ingest_record(&record(
                                w * 1000 + 50 + h as u64,
                                9,
                                h,
                                1 + w,
                            )));
                        }
                    }
                }
                summaries.extend(d.flush());
                feed(&mut collector, summaries);
                collector
            })
            .collect();
        let (full, delta) = (&runs[0], &runs[1]);
        assert_eq!(full.stored_windows(), delta.stored_windows());
        for ((start, site), ftree) in &full.windows {
            let dtree = delta.windows.get(&(*start, *site)).expect("same windows");
            assert_eq!(ftree.total(), dtree.total(), "window {start}");
            for v in ftree.iter() {
                assert_eq!(
                    dtree.subtree_popularity(v.key),
                    ftree.subtree_popularity(v.key),
                    "window {start} at {}",
                    v.key
                );
            }
        }
        // Deltas were actually used. (Whether deltas are *cheaper*
        // depends on window similarity — see the sim test with a
        // periodic trace and the E9 churn-sweep benchmark.)
        assert!(delta.ledger().delta_bytes > 0);
    }

    #[test]
    fn delta_without_base_is_rejected() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(256));
        let mut d = site_daemon(4, TransferMode::Delta);
        d.ingest_record(&record(100, 4, 1, 1));
        d.ingest_record(&record(1100, 4, 2, 1));
        let summaries = d.flush();
        assert_eq!(summaries[1].kind, SummaryKind::Delta);
        // Apply the delta first (out of order): must fail cleanly.
        let err = collector.apply_bytes(&summaries[1].encode());
        assert!(matches!(err, Err(DistError::MissingDeltaBase { site: 4 })));
        assert_eq!(collector.ledger().rejected, 1);
        // Full then delta works.
        collector.apply_bytes(&summaries[0].encode()).unwrap();
        collector.apply_bytes(&summaries[1].encode()).unwrap();
        assert_eq!(collector.stored_windows(), 2);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut collector = Collector::new(Schema::two_feature(), Config::with_budget(256));
        let mut d = site_daemon(1, TransferMode::Full);
        d.ingest_record(&record(100, 1, 1, 1));
        let s = d.flush().remove(0);
        assert!(matches!(
            collector.apply_bytes(&s.encode()),
            Err(DistError::SchemaMismatch)
        ));
    }

    #[test]
    fn lifted_tree_answers_per_site_questions() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(1024));
        for site in 0..2u16 {
            let mut d = site_daemon(site, TransferMode::Full);
            for h in 0..4u8 {
                d.ingest_record(&record(500, site as u8, h, 3));
            }
            feed(&mut collector, d.flush());
        }
        let mega = collector.lifted(100_000);
        assert_eq!(mega.total().packets, 24);
        // Drill down to one site inside the single mega structure.
        let site1: FlowKey = "site=1".parse().unwrap();
        let est = mega.estimate_pattern(&site1);
        assert!((est.packets - 12.0).abs() < 1e-6, "{}", est.packets);
        // Site+prefix combination.
        let combo: FlowKey = "src=10.1.0.0/16 site=1".parse().unwrap();
        assert!((mega.estimate_pattern(&combo).packets - 12.0).abs() < 1e-6);
        let cross: FlowKey = "src=10.0.0.0/16 site=1".parse().unwrap();
        assert!(mega.estimate_pattern(&cross).packets < 1.0);
    }

    #[test]
    fn corrupt_frames_are_counted() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(256));
        assert!(collector.apply_bytes(b"garbage").is_err());
        assert_eq!(collector.ledger().rejected, 1);
        assert_eq!(collector.stored_windows(), 0);
    }
}

#[cfg(test)]
mod alarm_sweep_tests {
    use super::*;
    use crate::alarm::AlarmConfig;
    use crate::daemon::{DaemonConfig, SiteDaemon, TransferMode};
    use flowkey::Schema;
    use flownet::FlowRecord;

    #[test]
    fn collector_alarm_sweep_localizes_the_changed_window() {
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(512));
        let mut cfg = DaemonConfig::new(0);
        cfg.window_ms = 1_000;
        cfg.tree = Config::with_budget(512);
        cfg.transfer = TransferMode::Full;
        let mut d = SiteDaemon::new(cfg);
        let mut summaries = Vec::new();
        // Four quiet windows, then one with a 50 k-packet spike.
        for w in 0..5u64 {
            for h in 0..4u8 {
                let mut r =
                    FlowRecord::v4([10, 0, 0, h], [192, 0, 2, 1], 1000, 443, 6, 5_000, 500_000);
                r.first_ms = w * 1_000 + 10 + h as u64;
                r.last_ms = r.first_ms;
                summaries.extend(d.ingest_record(&r));
            }
            if w == 3 {
                let mut atk = FlowRecord::v4(
                    [66, 6, 6, 6],
                    [192, 0, 2, 1],
                    4444,
                    443,
                    6,
                    50_000,
                    5_000_000,
                );
                atk.first_ms = w * 1_000 + 500;
                atk.last_ms = atk.first_ms;
                summaries.extend(d.ingest_record(&atk));
            }
        }
        summaries.extend(d.flush());
        for s in summaries {
            collector.apply_bytes(&s.encode()).unwrap();
        }
        let alarms = collector.alarms(0, &AlarmConfig::default());
        // Exactly two alarm points: the spike appearing (window 3) and
        // disappearing (window 4).
        assert_eq!(alarms.len(), 2, "{alarms:?}");
        assert_eq!(alarms[0].0.start_ms, 3_000);
        assert_eq!(alarms[1].0.start_ms, 4_000);
        assert!(matches!(
            alarms[0].1[0].direction,
            crate::alarm::Direction::Up
        ));
        assert!(matches!(
            alarms[1].1[0].direction,
            crate::alarm::Direction::Down
        ));
        let atk_pattern = "src=66.6.6.6/32".parse().unwrap();
        assert!(alarms[0].1[0].key.overlaps(&atk_pattern));
    }

    #[test]
    fn alarm_sweep_on_unknown_site_is_empty() {
        let collector = Collector::new(Schema::five_feature(), Config::with_budget(512));
        assert!(collector.alarms(9, &AlarmConfig::default()).is_empty());
    }
}
