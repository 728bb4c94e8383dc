//! Query operators.
//!
//! The paper's simplest query asks for the popularity of a flow: "if the
//! corresponding node is in the Flowtree, we can directly answer the
//! query. If it is not … we can estimate its popularity by decomposing
//! the query into a set of queries that can be answered by the given
//! hierarchy." This module implements that, generalized to arbitrary
//! hierarchical patterns (any combination of prefixes / port ranges /
//! wildcards, not only keys on canonical chains), plus top-k and
//! hierarchical-heavy-hitter extraction. Pattern queries run in time
//! proportional to the number of tree nodes, matching the paper.

use crate::pop::{Metric, PopEst, Popularity};
use crate::tree::{FlowTree, NIL};
use crate::Estimator;
use flowkey::FlowKey;

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

    /// Estimates the popularity of an arbitrary hierarchical pattern by
    /// walking the tree once (`O(n)`).
    ///
    /// For every retained node the walk classifies the node's key
    /// against the pattern:
    ///
    /// * fully inside the pattern → its whole subtree counts;
    /// * disjoint → its whole subtree is skipped (children specialize
    ///   their parents, so nothing below can overlap either);
    /// * partial overlap (the node is an ancestor of, or crosses, the
    ///   pattern) → a share of the node's *complementary* mass is
    ///   attributed according to the estimator, and the walk recurses.
    pub fn estimate_pattern(&self, pattern: &FlowKey) -> PopEst {
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
            match self.config().estimator {
                Estimator::Conservative => {}
                Estimator::Optimistic => acc += PopEst::from(node.comp),
                Estimator::Uniform => {
                    let meet = node
                        .key
                        .meet(pattern)
                        .expect("overlapping keys have a meet");
                    let bits = self.schema().log2_space_between(&node.key, &meet);
                    // 2^-bits, saturating to 0 for absurdly deep gaps.
                    let frac = if bits >= 1024 {
                        0.0
                    } else {
                        0.5f64.powi(bits as i32)
                    };
                    acc += PopEst::from(node.comp).scaled(frac);
                }
            }
            let mut c = node.first_child;
            while c != NIL {
                stack.push(c);
                c = self.node(c).next_sibling;
            }
        }
        acc
    }

    /// The `k` most popular retained flows by subtree popularity
    /// (root excluded), deepest-first on ties.
    pub fn top_k(&self, k: usize, metric: Metric) -> Vec<(FlowKey, Popularity)> {
        if k == 0 {
            return Vec::new();
        }
        let sums = self.all_subtree_sums();
        // `(mass, depth, index into sums)`: selection moves 16-byte
        // rows and reads a node only to break a full tie by key.
        type Row = (i64, u32, u32);
        let mut rows: Vec<Row> = sums
            .iter()
            .enumerate()
            .filter(|(_, (id, _))| *id != self.root)
            .map(|(i, (id, pop))| (pop.get(metric), self.node(*id).depth, i as u32))
            .collect();
        let key_of = |row: &Row| &self.node(sums[row.2 as usize].0).key;
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
            .map(|row| (*key_of(row), sums[row.2 as usize].1))
            .collect()
    }

    /// Hierarchical heavy hitters with threshold `phi` (fraction of the
    /// total mass, e.g. `0.01` for the paper's "flows above 1 % of
    /// packets"): every node whose subtree mass *not covered by deeper
    /// heavy hitters* reaches `phi × total`, computed in one post-order
    /// pass.
    pub fn hhh(&self, phi: f64, metric: Metric) -> Vec<HhhItem> {
        let total = self.total().get(metric).max(0) as f64;
        let threshold = (phi * total).ceil() as i64;
        let mut out = Vec::new();
        if threshold <= 0 {
            return out;
        }
        let order = self.preorder();
        let n = self.capacity();
        let mut carry: Vec<Popularity> = vec![Popularity::ZERO; n];
        let mut subtree: Vec<Popularity> = vec![Popularity::ZERO; n];
        // Children appear after parents in pre-order; walk backwards so
        // every node is finalized before its parent.
        for &id in order.iter().rev() {
            let node = self.node(id);
            let disc = carry[id as usize] + node.comp;
            let sub = subtree[id as usize] + node.comp;
            if node.parent != NIL {
                subtree[node.parent as usize] += sub;
            }
            if disc.get(metric) >= threshold {
                out.push(HhhItem {
                    key: node.key,
                    discounted: disc,
                    subtree: sub,
                });
                // Covered mass does not propagate upward.
            } else if node.parent != NIL {
                carry[node.parent as usize] += disc;
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
    /// custom drill-down UIs (`flowquery` builds its refinement
    /// candidates this way). `O(n)` in tree size; disjoint subtrees are
    /// pruned without descending.
    pub fn nodes_under(&self, pattern: &FlowKey, metric: Metric) -> Vec<(FlowKey, Popularity)> {
        let sums = self.all_subtree_sums();
        let mut sum_of = vec![Popularity::ZERO; self.capacity()];
        for (id, s) in &sums {
            sum_of[*id as usize] = *s;
        }
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

    /// Subtree sums for every live node in `O(n)`.
    pub(crate) fn all_subtree_sums(&self) -> Vec<(u32, Popularity)> {
        let order = self.preorder();
        let n = self.capacity();
        let mut sums: Vec<Popularity> = vec![Popularity::ZERO; n];
        for &id in order.iter().rev() {
            let node = self.node(id);
            sums[id as usize] += node.comp;
            if node.parent != NIL {
                let s = sums[id as usize];
                sums[node.parent as usize] += s;
            }
        }
        order
            .into_iter()
            .map(|id| (id, sums[id as usize]))
            .collect()
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
