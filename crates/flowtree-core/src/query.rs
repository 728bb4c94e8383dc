//! Query operators.
//!
//! The paper's simplest query asks for the popularity of a flow: "if the
//! corresponding node is in the Flowtree, we can directly answer the
//! query. If it is not … we can estimate its popularity by decomposing
//! the query into a set of queries that can be answered by the given
//! hierarchy." This module implements that, generalized to arbitrary
//! hierarchical patterns (any combination of prefixes / port ranges /
//! wildcards, not only keys on canonical chains), plus top-k and
//! hierarchical-heavy-hitter extraction.
//!
//! A query costs what it reads. The wildcard pattern is answered from
//! the tree's running total in `O(1)`; any other pattern walks only the
//! nodes it overlaps, down to the first node it fully contains
//! (`O(visited nodes)`, at most the tree size, as in the paper). A
//! drill-down estimates every refinement candidate of a scope in one
//! such walk ([`FlowTree::estimate_refinements`]), not one walk per
//! candidate.

use crate::pop::{Metric, PopEst, Popularity};
use crate::tree::{FlowTree, Node, NIL};
use crate::Estimator;
use core::cmp::Ordering;
use flowkey::{DepthProfile, Dim, FlowKey};

/// Result of a popularity query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// The (possibly fractional) popularity estimate.
    pub est: PopEst,
    /// `true` when the queried key was a retained node and the answer is
    /// the exact subtree sum of what the tree tracked (still an estimate
    /// of ground truth if compaction folded descendants elsewhere first,
    /// but exact w.r.t. the tree's own bookkeeping).
    pub tracked: bool,
}

/// One hierarchical heavy hitter.
#[derive(Debug, Clone, PartialEq)]
pub struct HhhItem {
    /// The generalized flow.
    pub key: FlowKey,
    /// Discounted popularity: subtree mass not covered by deeper HHHs.
    pub discounted: Popularity,
    /// Full subtree popularity.
    pub subtree: Popularity,
}

impl FlowTree {
    /// The popularity of `key` (the paper's *query* operator).
    ///
    /// Retained keys answer exactly from the tree's bookkeeping
    /// (`tracked = true`); absent keys are estimated by decomposing the
    /// pattern over the retained hierarchy using the configured
    /// [`Estimator`].
    pub fn popularity(&self, key: &FlowKey) -> QueryAnswer {
        if let Some(id) = self.node_id(key) {
            return QueryAnswer {
                est: PopEst::from(self.subtree_sum(id)),
                tracked: true,
            };
        }
        QueryAnswer {
            est: self.estimate_pattern(key),
            tracked: false,
        }
    }

    /// Estimates the popularity of an arbitrary hierarchical pattern.
    ///
    /// The wildcard pattern contains every node, so it is the tree's
    /// total mass, which insert, merge, diff and decode keep equal to
    /// the sum of every node's complementary mass: `O(1)`. Any other
    /// pattern walks the tree once, visiting only what it overlaps
    /// (`O(visited nodes)`). For every visited node the walk classifies
    /// the node's key against the pattern:
    ///
    /// * fully inside the pattern → its whole subtree counts;
    /// * disjoint → its whole subtree is skipped (children specialize
    ///   their parents, so nothing below can overlap either);
    /// * partial overlap (the node is an ancestor of, or crosses, the
    ///   pattern) → a share of the node's *complementary* mass is
    ///   attributed according to the estimator, and the walk recurses.
    pub fn estimate_pattern(&self, pattern: &FlowKey) -> PopEst {
        if pattern.is_root() {
            return PopEst::from(self.total);
        }
        let profile = DepthProfile::of(pattern);
        let mut acc = PopEst::ZERO;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if pattern.contains(&node.key) {
                acc += PopEst::from(self.subtree_sum(id));
                continue;
            }
            if !pattern.overlaps(&node.key) {
                continue;
            }
            // Node strictly contains or crosses the pattern: attribute a
            // share of the residual mass, then descend.
            if let Some(share) = self.residual_share(node.comp, &node.key, &profile) {
                acc += share;
            }
            let mut c = node.first_child;
            while c != NIL {
                stack.push(c);
                c = self.node(c).next_sibling;
            }
        }
        acc
    }

    /// The estimate of `under` and of each of its refinements along
    /// `dim` at hierarchy depth `depth`, in one walk of the tree.
    ///
    /// The candidates are `under` with its `dim` feature replaced by the
    /// ancestor at `depth` of some retained node inside `under`, each
    /// once, in key order; `depth` must not be coarser than `under`'s
    /// own `dim` feature.
    ///
    /// Every returned estimate is **bit-identical** to
    /// [`Self::estimate_pattern`] of the same key. Floating-point
    /// addition is not associative, so this holds only because each
    /// estimate receives exactly the addends its own walk would, in the
    /// same order: the walk is `estimate_pattern`'s (same stack, same
    /// child order), it visits a node when any pattern would, and a
    /// pattern's addends are a subsequence of that one visiting order.
    /// Nothing here may skip, merge or reorder an add.
    ///
    /// The candidates differ only along `dim`, where they are disjoint
    /// features of one depth, so a node either contains a contiguous run
    /// of them (in key order) or lies under at most one: each stack
    /// entry carries the run that still descends, and a node's share is
    /// computed once for the whole run (all candidates have one depth
    /// profile). The candidates and every subtree sum come from passes
    /// over the arena slots first, so the cost is `O(slots)` plus the
    /// nodes the walk visits, whatever the number of candidates.
    pub fn estimate_refinements(
        &self,
        under: &FlowKey,
        dim: Dim,
        depth: u16,
    ) -> (PopEst, Vec<(FlowKey, PopEst)>) {
        let candidates = self.refinement_candidates(under, dim, depth);
        let sums = self.subtree_sums();
        debug_assert!(
            candidates.iter().all(|c| under.contains(c)),
            "refinements of {under} along {dim:?} at depth {depth} must lie inside it"
        );
        let under_profile = DepthProfile::of(under);
        let under_depth = under.dim_depth(dim);
        let cand_profile = candidates.first().map(DepthProfile::of);
        let mut under_acc = PopEst::ZERO;
        let mut accs = vec![PopEst::ZERO; candidates.len()];
        // `(node, candidates[lo..hi] still descending, under still
        // descending, the parent's depth along dim)`.
        let mut stack = vec![(self.root, 0, candidates.len(), true, 0)];
        while let Some((id, mut lo, mut hi, under_live, parent_depth)) = stack.pop() {
            let node = self.node(id);
            let key = &node.key;
            // Every candidate lies inside `under`: a node disjoint from
            // it is disjoint from all of them.
            if !under.overlaps(key) {
                continue;
            }
            let mut under_descends = false;
            if under_live {
                if under.contains(key) {
                    under_acc += PopEst::from(sums[id as usize]);
                } else {
                    if let Some(share) = self.residual_share(node.comp, key, &under_profile) {
                        under_acc += share;
                    }
                    under_descends = true;
                }
            }
            // The other dims are `under`'s, so a candidate overlaps the
            // node iff its `dim` feature agrees with the node's at the
            // shallower of their depths. A node whose `dim` feature is
            // no deeper than `under`'s, or is its parent's, keeps the run.
            let node_depth = key.dim_depth(dim);
            if lo < hi && node_depth > under_depth && node_depth != parent_depth {
                let cmp = |c: &FlowKey| cmp_dim_at(c, key, dim, node_depth.min(depth));
                let run = &candidates[lo..hi];
                (lo, hi) = if node_depth >= depth {
                    match run.binary_search_by(cmp) {
                        Ok(i) => (lo + i, lo + i + 1),
                        Err(_) => (lo, lo),
                    }
                } else {
                    let first = run.partition_point(|c| cmp(c).is_lt());
                    let last = first + run[first..].partition_point(|c| cmp(c).is_eq());
                    (lo + first, lo + last)
                };
            }
            if lo < hi && candidates[lo].contains(key) {
                debug_assert_eq!(hi, lo + 1, "a node lies under one candidate");
                accs[lo] += PopEst::from(sums[id as usize]);
                hi = lo;
            } else if lo < hi {
                let cand_profile = cand_profile.as_ref().expect("a run means candidates");
                if let Some(share) = self.residual_share(node.comp, key, cand_profile) {
                    for acc in &mut accs[lo..hi] {
                        *acc += share;
                    }
                }
            }
            if under_descends || lo < hi {
                let mut c = node.first_child;
                while c != NIL {
                    stack.push((c, lo, hi, under_descends, node_depth));
                    c = self.node(c).next_sibling;
                }
            }
        }
        (under_acc, candidates.into_iter().zip(accs).collect())
    }

    /// The candidates of [`Self::estimate_refinements`], sorted and
    /// distinct, from one pass over the arena slots.
    fn refinement_candidates(&self, under: &FlowKey, dim: Dim, depth: u16) -> Vec<FlowKey> {
        let mut candidates: Vec<FlowKey> = Vec::new();
        let mut last = 0;
        for node in self.nodes.iter().filter(|n| n.alive) {
            if node.key.dim_depth(dim) < depth || !under.contains(&node.key) {
                continue;
            }
            // Few candidates, many nodes naming each: keep them sorted
            // and distinct, look up by one feature, and try the previous
            // node's first (neighbouring slots are often one subtree).
            let cmp = |c: &FlowKey| cmp_dim_at(c, &node.key, dim, depth);
            if candidates.get(last).is_some_and(|c| cmp(c).is_eq()) {
                continue;
            }
            last = match candidates.binary_search_by(cmp) {
                Ok(at) => at,
                Err(at) => {
                    let projected = node
                        .key
                        .dim_ancestor_at(dim, depth)
                        .expect("the node is at least that deep");
                    candidates.insert(at, with_feature(under, dim, &projected));
                    at
                }
            };
        }
        candidates
    }

    /// The estimator's share of the complementary mass `comp` of the
    /// node keyed `node`, for an overlapping pattern of depth profile
    /// `pattern` that does not contain it; `None` when the estimator
    /// attributes nothing.
    #[inline]
    fn residual_share(
        &self,
        comp: Popularity,
        node: &FlowKey,
        pattern: &DepthProfile,
    ) -> Option<PopEst> {
        match self.config().estimator {
            Estimator::Conservative => None,
            Estimator::Optimistic => Some(PopEst::from(comp)),
            Estimator::Uniform => {
                let bits = self
                    .schema()
                    .log2_space_between_profiles(&DepthProfile::of(node), pattern);
                // 2^-bits, saturating to 0 for absurdly deep gaps.
                let frac = if bits >= 1024 {
                    0.0
                } else {
                    0.5f64.powi(bits as i32)
                };
                Some(PopEst::from(comp).scaled(frac))
            }
        }
    }

    /// The `k` most popular retained flows by subtree popularity
    /// (root excluded), deepest-first on ties.
    ///
    /// Like [`Self::hhh`], it reads the arena in slot order, never in
    /// tree order. The ranking is a total order (keys are unique) on
    /// integer sums, so the answer does not depend on the order either.
    pub fn top_k(&self, k: usize, metric: Metric) -> Vec<(FlowKey, Popularity)> {
        if k == 0 {
            return Vec::new();
        }
        let sums = self.subtree_sums();
        // `(mass, depth, id)`: selection moves 16-byte rows and reads a
        // node only to break a full tie by key.
        type Row = (i64, u32, u32);
        let mut rows: Vec<Row> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(id, n)| n.alive && *id as u32 != self.root)
            .map(|(id, n)| (sums[id].get(metric), n.depth, id as u32))
            .collect();
        let key_of = |row: &Row| &self.node(row.2).key;
        // A total order (keys are unique), so the `k` selected rows,
        // sorted, are the head of the full sort.
        let by_rank = |a: &Row, b: &Row| {
            (b.0, b.1)
                .cmp(&(a.0, a.1))
                .then_with(|| key_of(a).cmp(key_of(b)))
        };
        if k < rows.len() {
            rows.select_nth_unstable_by(k - 1, by_rank);
            rows.truncate(k);
        }
        rows.sort_unstable_by(by_rank);
        rows.iter()
            .map(|row| (*key_of(row), sums[row.2 as usize]))
            .collect()
    }

    /// Hierarchical heavy hitters with threshold `phi` (fraction of the
    /// total mass, e.g. `0.01` for the paper's "flows above 1 % of
    /// packets"): every node whose subtree mass *not covered by deeper
    /// heavy hitters* reaches `phi × total`.
    ///
    /// One pass over the arena slots, then a fold from the deepest
    /// nodes up, like the subtree sums of [`Self::top_k`]. Nodes of
    /// one depth never feed each other and the masses are integers, so
    /// every node's sums are those of a walk in tree order, and the
    /// output is sorted by a total order.
    pub fn hhh(&self, phi: f64, metric: Metric) -> Vec<HhhItem> {
        let total = self.total().get(metric).max(0) as f64;
        let threshold = (phi * total).ceil() as i64;
        let mut out = Vec::new();
        if threshold <= 0 {
            return out;
        }
        let n = self.capacity();
        // Per id: the mass not yet covered by a deeper heavy hitter,
        // and the subtree mass.
        let mut carry: Vec<Popularity> = vec![Popularity::ZERO; n];
        let mut subtree: Vec<Popularity> = vec![Popularity::ZERO; n];
        let up = self.deepest_first(|id, node| {
            carry[id] = node.comp;
            subtree[id] = node.comp;
        });
        for (_, id, parent) in up {
            let (disc, sub) = (carry[id as usize], subtree[id as usize]);
            if parent != NIL {
                subtree[parent as usize] += sub;
            }
            if disc.get(metric) >= threshold {
                out.push(HhhItem {
                    key: self.node(id).key,
                    discounted: disc,
                    subtree: sub,
                });
                // Covered mass does not propagate upward.
            } else if parent != NIL {
                carry[parent as usize] += disc;
            }
        }
        out.sort_by(|a, b| {
            b.discounted
                .get(metric)
                .cmp(&a.discounted.get(metric))
                .then(a.key.cmp(&b.key))
        });
        out
    }

    /// The retained generalized flows inside `pattern`, with their
    /// subtree popularities, most popular first — the raw material for
    /// custom drill-down UIs (`flowquery`'s own drill-down uses
    /// [`Self::estimate_refinements`]). `O(n)` in tree size; disjoint
    /// subtrees are pruned without descending.
    pub fn nodes_under(&self, pattern: &FlowKey, metric: Metric) -> Vec<(FlowKey, Popularity)> {
        let sum_of = self.subtree_sums();
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = self.node(id);
            if !pattern.overlaps(&node.key) {
                continue; // nothing below can match either
            }
            if pattern.contains(&node.key) {
                out.push((node.key, sum_of[id as usize]));
            }
            let mut c = node.first_child;
            while c != NIL {
                stack.push(c);
                c = self.node(c).next_sibling;
            }
        }
        out.sort_by(|a, b| b.1.get(metric).cmp(&a.1.get(metric)).then(a.0.cmp(&b.0)));
        out
    }

    /// The subtree sum of every node, indexed by node id (zero at free
    /// slots), in `O(n)`.
    ///
    /// It reads the arena in slot order, never in tree order: a walk
    /// down a scattered arena misses the cache on nearly every node, a
    /// pass over the slots does not. Sums then move from child to
    /// parent, deepest node first, which touches only the sums
    /// themselves.
    pub(crate) fn subtree_sums(&self) -> Vec<Popularity> {
        let mut sums = vec![Popularity::ZERO; self.capacity()];
        for (_, id, parent) in self.deepest_first(|id, node| sums[id] = node.comp) {
            if parent != NIL {
                let s = sums[id as usize];
                sums[parent as usize] += s;
            }
        }
        sums
    }

    /// `(depth, id, parent)` of every live node, deepest first, from
    /// one pass over the arena slots that also calls `each(id, node)`.
    /// A parent is always shallower than its children, so a fold over
    /// the rows finishes a node before it reaches the node's parent.
    fn deepest_first(&self, mut each: impl FnMut(usize, &Node)) -> Vec<(u32, u32, u32)> {
        let mut rows: Vec<(u32, u32, u32)> = Vec::with_capacity(self.live);
        for (id, node) in self.nodes.iter().enumerate() {
            if node.alive {
                each(id, node);
                rows.push((node.depth, id as u32, node.parent));
            }
        }
        rows.sort_unstable_by_key(|&(depth, ..)| core::cmp::Reverse(depth));
        rows
    }

    #[inline]
    pub(crate) fn node(&self, id: u32) -> &crate::tree::Node {
        &self.nodes[id as usize]
    }

    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.nodes.len()
    }
}

/// `a`'s and `b`'s `dim` features, each generalized to hierarchy depth
/// `at`, compared. Features of one depth sort like their keys, and
/// generalizing keeps that order, so the candidates whose feature
/// agrees with a node's at `at` are one contiguous run.
#[inline]
fn cmp_dim_at(a: &FlowKey, b: &FlowKey, dim: Dim, at: u16) -> Ordering {
    match dim {
        Dim::SrcIp => a.src.ancestor_at(at).cmp(&b.src.ancestor_at(at)),
        Dim::DstIp => a.dst.ancestor_at(at).cmp(&b.dst.ancestor_at(at)),
        Dim::SrcPort => a.sport.ancestor_at(at).cmp(&b.sport.ancestor_at(at)),
        Dim::DstPort => a.dport.ancestor_at(at).cmp(&b.dport.ancestor_at(at)),
        Dim::Proto => a.proto.ancestor_at(at).cmp(&b.proto.ancestor_at(at)),
        Dim::Time => a.time.ancestor_at(at).cmp(&b.time.ancestor_at(at)),
        Dim::Site => a.site.ancestor_at(at).cmp(&b.site.ancestor_at(at)),
    }
}

/// `under` with its `dim` feature taken from `from`.
fn with_feature(under: &FlowKey, dim: Dim, from: &FlowKey) -> FlowKey {
    let mut out = *under;
    match dim {
        Dim::SrcIp => out.src = from.src,
        Dim::DstIp => out.dst = from.dst,
        Dim::SrcPort => out.sport = from.sport,
        Dim::DstPort => out.dport = from.dport,
        Dim::Proto => out.proto = from.proto,
        Dim::Time => out.time = from.time,
        Dim::Site => out.site = from.site,
    }
    out
}
