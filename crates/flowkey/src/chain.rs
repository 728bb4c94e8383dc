//! The canonical generalization chain.
//!
//! The features of a flow form a product *lattice*: any dimension can be
//! generalized independently, so a key has several immediate parents.
//! Flowtree however maintains a **tree**. The bridge is a deterministic
//! *schedule*: for every key there is exactly one canonical next
//! generalization step, hence exactly one chain from the key up to the
//! all-wildcard root. The schedule is a pure function of the key's
//! [`DepthProfile`], which gives the crucial consistency property:
//!
//! > If `A` lies on the canonical chain of `C`, then the chain of `C`
//! > above `A` *is* the chain of `A`.
//!
//! This is what makes "longest matching parent" (the paper's insertion
//! rule) well-defined and lets `flowtree-core` treat the structure as a
//! path-compressed trie over chain space.
//!
//! The schedule generalizes the dimension whose hierarchy is *relatively
//! deepest* (depth normalized by the dimension's maximum depth), breaking
//! ties in a fixed priority order that sheds low-value features first:
//! ports, then protocol, then time, site, and finally the IP prefixes.
//! A fully-specified 5-tuple therefore loses port bits and the protocol
//! early and keeps address bits the longest, which matches how operators
//! drill down (mostly by prefix, as in the paper's Fig. 2).

use crate::{Dim, FlowKey, NUM_DIMS};

/// Per-dimension hierarchy depths of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepthProfile(pub [u16; NUM_DIMS]);

impl DepthProfile {
    /// The profile of `key` (all dimensions, active or not).
    pub fn of(key: &FlowKey) -> DepthProfile {
        let mut d = [0u16; NUM_DIMS];
        for dim in Dim::ALL {
            d[dim.index()] = key.dim_depth(dim);
        }
        DepthProfile(d)
    }

    /// Depth of one dimension.
    #[inline]
    pub fn get(&self, dim: Dim) -> u16 {
        self.0[dim.index()]
    }

    /// Sum of depths over the given active-dimension mask.
    pub fn total(&self, active: &[bool; NUM_DIMS]) -> u32 {
        self.0
            .iter()
            .zip(active)
            .filter(|(_, a)| **a)
            .map(|(d, _)| *d as u32)
            .sum()
    }
}

/// Tie-break order for the schedule: dimensions earlier in this list are
/// generalized first when equally (relatively) deep.
pub const GENERALIZE_PRIORITY: [Dim; NUM_DIMS] = [
    Dim::SrcPort,
    Dim::DstPort,
    Dim::Proto,
    Dim::Time,
    Dim::Site,
    Dim::SrcIp,
    Dim::DstIp,
];

/// Tie component of a schedule rank, by dimension index: dimensions
/// earlier in [`GENERALIZE_PRIORITY`] rank higher, so they are shed
/// first among equally (relatively) deep ones.
pub(crate) const TIE_RANK: [u32; NUM_DIMS] = {
    let mut tie = [0u32; NUM_DIMS];
    let mut pos = 0;
    while pos < NUM_DIMS {
        tie[GENERALIZE_PRIORITY[pos].index()] = (NUM_DIMS - 1 - pos) as u32;
        pos += 1;
    }
    tie
};

/// Ranks are `normalized depth × RANK_STRIDE + tie`; the stride only has
/// to exceed the largest tie.
pub(crate) const RANK_STRIDE: u32 = 8;

/// Rank of the schedule step that sheds level `depth ≥ 1` of dimension
/// `i`. [`next_dim`] always picks the pair of largest rank, so a chain
/// sheds the `(dimension, level)` pairs of its key in strictly
/// decreasing rank — which turns "does this profile lie on that chain"
/// and "where do two chains meet" into comparisons of ranks (see
/// [`Schema::lcca_profile`](crate::Schema::lcca_profile)).
#[inline]
pub(crate) fn step_rank(i: usize, depth: u16, weight: &[u32; NUM_DIMS]) -> u32 {
    debug_assert!(depth > 0, "level 0 is the wildcard; no step sheds it");
    depth as u32 * weight[i] * RANK_STRIDE + TIE_RANK[i]
}

/// Picks the dimension to generalize next, or `None` if every active
/// dimension is already at its wildcard.
///
/// Normalized depths are compared exactly and division-free:
/// `weight[i] = L / max_depth[i]` for `L = lcm(all max depths)`, so
/// `depth[i] * weight[i]` is exactly proportional to
/// `depth[i] / max_depth[i]`.
///
/// Pure in `(profile, active, weight)` — this purity is what makes
/// canonical chains consistent, so any change here invalidates
/// serialized trees.
#[inline]
pub fn next_dim(
    profile: &DepthProfile,
    active: &[bool; NUM_DIMS],
    weight: &[u32; NUM_DIMS],
) -> Option<Dim> {
    let mut best: Option<(u32, Dim)> = None;
    for dim in GENERALIZE_PRIORITY {
        let i = dim.index();
        if !active[i] || profile.0[i] == 0 {
            continue;
        }
        let norm = profile.0[i] as u32 * weight[i];
        // Strictly-greater keeps the earliest priority dimension on ties.
        if best.is_none_or(|(b, _)| norm > b) {
            best = Some((norm, dim));
        }
    }
    best.map(|(_, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    #[test]
    fn full_five_tuple_sheds_ports_first() {
        let schema = Schema::five_feature();
        let key: FlowKey = "src=1.2.3.4/32 dst=5.6.7.8/32 sport=1234 dport=80 proto=tcp"
            .parse()
            .unwrap();
        let p1 = schema.parent(&key).unwrap();
        assert_eq!(p1.sport.depth(), 15, "source port generalized first");
        let p2 = schema.parent(&p1).unwrap();
        assert_eq!(p2.dport.depth(), 15, "destination port second");
        let p3 = schema.parent(&p2).unwrap();
        assert_eq!(p3.proto.depth(), 0, "protocol third");
    }

    #[test]
    fn chain_is_consistent_above_intermediate_nodes() {
        let schema = Schema::five_feature();
        let key: FlowKey = "src=10.1.2.3/32 dst=192.0.2.9/32 sport=49152 dport=443 proto=udp"
            .parse()
            .unwrap();
        let full = schema.depth(&key);
        // Take the ancestor at every depth, then verify that the chain of
        // that ancestor equals the tail of the original chain.
        for d in (0..full).rev() {
            let anc = schema.chain_ancestor(&key, d);
            assert_eq!(schema.depth(&anc), d);
            assert!(anc.contains(&key));
            if d > 0 {
                let via_key = schema.chain_ancestor(&key, d - 1);
                let via_anc = schema.chain_ancestor(&anc, d - 1);
                assert_eq!(via_key, via_anc, "chain must be consistent at depth {d}");
            }
        }
    }

    #[test]
    fn next_dim_ignores_inactive_dims() {
        let schema = Schema::two_feature();
        let key: FlowKey = "src=1.2.3.4/32 dst=5.6.7.8/32 sport=80".parse().unwrap();
        // sport is deeper in relative terms but inactive under SrcDst2.
        let p = schema.parent(&schema.canonicalize(&key)).unwrap();
        assert_eq!(p.sport.depth(), 0, "inactive dims stay at wildcard");
        assert!(p.src.depth() < 33 || p.dst.depth() < 33);
    }
}
