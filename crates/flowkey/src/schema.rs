//! Flow schemas: which features are active and how they generalize.
//!
//! The paper works with several flow types — 1-feature (src prefix),
//! 2-feature (src/dst prefixes), 4-feature and 5-feature flows — and the
//! distributed system extends keys with time and site. A [`Schema`]
//! captures the active dimension set plus the constants the canonical
//! chain schedule needs, and provides every chain operation
//! (`parent`, `chain_ancestor`, `lcca`, …) used by `flowtree-core`.

use crate::chain::{next_dim, step_rank, DepthProfile, RANK_STRIDE, TIE_RANK};
use crate::{Dim, FlowKey, IpNet, PortRange, Proto, Site, TimeBucket, NUM_DIMS};

/// The flow types used in the paper plus the distributed-system extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaKind {
    /// 1-feature flows: source prefix only (paper Fig. 2a).
    Src1,
    /// 2-feature flows: source and destination prefixes.
    SrcDst2,
    /// 4-feature flows: prefixes plus both port ranges (paper Fig. 2b).
    Four,
    /// 5-feature flows: the full protocol 5-tuple.
    Five,
    /// 5-feature flows plus time and site (the Fig. 1 system).
    Extended,
}

/// Maximum hierarchy depths per dimension, used to normalize the
/// schedule. IPs use the IPv4 depth (33); IPv6 keys simply rank as
/// "deeper than fully-specific IPv4", which keeps the schedule pure.
const MAX_DEPTH: [u16; NUM_DIMS] = [
    33, // SrcIp
    33, // DstIp
    16, // SrcPort
    16, // DstPort
    1,  // Proto
    TimeBucket::MAX_LEVEL as u16,
    2, // Site
];

/// `L = lcm(33, 16, 1, 36, 2) = 15 84`… exactly: lcm(33,16)=528,
/// lcm(528,36)=1584, lcm(1584,2)=1584. The schedule weights
/// `L / max_depth[i]` make normalized-depth comparison exact with one
/// multiply (no division on the hot path).
const SCHEDULE_LCM: u32 = 1_584;

/// Exact schedule weights (`SCHEDULE_LCM / MAX_DEPTH[i]`).
const SCHEDULE_WEIGHT: [u32; NUM_DIMS] = [
    SCHEDULE_LCM / 33,                           // SrcIp = 48
    SCHEDULE_LCM / 33,                           // DstIp = 48
    SCHEDULE_LCM / 16,                           // SrcPort = 99
    SCHEDULE_LCM / 16,                           // DstPort = 99
    SCHEDULE_LCM,                                // Proto = 1584
    SCHEDULE_LCM / TimeBucket::MAX_LEVEL as u32, // Time = 44
    SCHEDULE_LCM / 2,                            // Site = 792
];

/// Per-step log2 fan-out of each dimension's hierarchy, used by the
/// uniform estimator: one generalization step multiplies the covered
/// space by this factor (2 for binary hierarchies, 256 for the protocol
/// step and each site step).
const LOG2_FANOUT: [u16; NUM_DIMS] = [
    1, // SrcIp: one address bit per step
    1, // DstIp
    1, // SrcPort: one port bit per step
    1, // DstPort
    8, // Proto: Any → concrete covers 256 protocols
    1, // Time: one bit of seconds per step
    8, // Site: 256 regions, then 256 sites per region
];

/// A flow schema: active dimensions plus chain-schedule constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schema {
    kind: SchemaKind,
    active: [bool; NUM_DIMS],
}

impl Schema {
    /// 1-feature flows (source prefix), as in the paper's Fig. 2a.
    pub fn one_feature_src() -> Schema {
        Schema::from_kind(SchemaKind::Src1)
    }

    /// 2-feature flows (source and destination prefixes).
    pub fn two_feature() -> Schema {
        Schema::from_kind(SchemaKind::SrcDst2)
    }

    /// 4-feature flows (prefixes + port ranges), as in the paper's
    /// Fig. 2b and the Fig. 3 evaluation.
    pub fn four_feature() -> Schema {
        Schema::from_kind(SchemaKind::Four)
    }

    /// 5-feature flows (the full 5-tuple).
    pub fn five_feature() -> Schema {
        Schema::from_kind(SchemaKind::Five)
    }

    /// 5-feature flows extended with time and site (the distributed
    /// system of Fig. 1 / future work).
    pub fn extended() -> Schema {
        Schema::from_kind(SchemaKind::Extended)
    }

    /// The schema for a [`SchemaKind`].
    pub fn from_kind(kind: SchemaKind) -> Schema {
        let mut active = [false; NUM_DIMS];
        let dims: &[Dim] = match kind {
            SchemaKind::Src1 => &[Dim::SrcIp],
            SchemaKind::SrcDst2 => &[Dim::SrcIp, Dim::DstIp],
            SchemaKind::Four => &[Dim::SrcIp, Dim::DstIp, Dim::SrcPort, Dim::DstPort],
            SchemaKind::Five => &[
                Dim::SrcIp,
                Dim::DstIp,
                Dim::SrcPort,
                Dim::DstPort,
                Dim::Proto,
            ],
            SchemaKind::Extended => &Dim::ALL,
        };
        for d in dims {
            active[d.index()] = true;
        }
        Schema { kind, active }
    }

    /// Which flow type this is.
    #[inline]
    pub fn kind(&self) -> SchemaKind {
        self.kind
    }

    /// Whether `dim` participates in this schema.
    #[inline]
    pub fn is_active(&self, dim: Dim) -> bool {
        self.active[dim.index()]
    }

    /// The active dimensions, in [`Dim::ALL`] order.
    pub fn dims(&self) -> impl Iterator<Item = Dim> + '_ {
        Dim::ALL.into_iter().filter(|d| self.is_active(*d))
    }

    /// Number of active dimensions.
    pub fn num_active(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// The all-wildcard key — the tree root under every schema.
    #[inline]
    pub fn root(&self) -> FlowKey {
        FlowKey::ROOT
    }

    /// Whether `key` keeps every inactive dimension at its wildcard.
    pub fn conforms(&self, key: &FlowKey) -> bool {
        self.conforms_profile(&DepthProfile::of(key))
    }

    /// [`Schema::conforms`] for a key whose depth profile is at hand.
    #[inline]
    pub fn conforms_profile(&self, profile: &DepthProfile) -> bool {
        profile
            .0
            .iter()
            .zip(&self.active)
            .all(|(d, a)| *a || *d == 0)
    }

    /// Forces inactive dimensions to their wildcards.
    pub fn canonicalize(&self, key: &FlowKey) -> FlowKey {
        let mut out = *key;
        if !self.is_active(Dim::SrcIp) {
            out.src = IpNet::Any;
        }
        if !self.is_active(Dim::DstIp) {
            out.dst = IpNet::Any;
        }
        if !self.is_active(Dim::SrcPort) {
            out.sport = PortRange::ANY;
        }
        if !self.is_active(Dim::DstPort) {
            out.dport = PortRange::ANY;
        }
        if !self.is_active(Dim::Proto) {
            out.proto = Proto::Any;
        }
        if !self.is_active(Dim::Time) {
            out.time = TimeBucket::ANY;
        }
        if !self.is_active(Dim::Site) {
            out.site = Site::Any;
        }
        out
    }

    /// Total chain depth of `key` (sum over active dimensions); 0 = root.
    #[inline]
    pub fn depth(&self, key: &FlowKey) -> u32 {
        DepthProfile::of(key).total(&self.active)
    }

    /// The canonical parent: one schedule step up; `None` at the root.
    pub fn parent(&self, key: &FlowKey) -> Option<FlowKey> {
        let profile = DepthProfile::of(key);
        let dim = next_dim(&profile, &self.active, &SCHEDULE_WEIGHT)?;
        key.generalize(dim)
    }

    /// The canonical chain ancestor of `key` at total depth
    /// `target_depth`, maintaining the depth profile incrementally so
    /// each step is one table scan plus one feature generalization.
    ///
    /// Panics in debug builds if `target_depth > depth(key)`; in release
    /// builds it returns `key` unchanged in that case.
    pub fn chain_ancestor(&self, key: &FlowKey, target_depth: u32) -> FlowKey {
        debug_assert!(target_depth <= self.depth(key));
        let mut profile = DepthProfile::of(key);
        let mut depth = profile.total(&self.active);
        let mut cur = *key;
        while depth > target_depth {
            let Some(dim) = next_dim(&profile, &self.active, &SCHEDULE_WEIGHT) else {
                break;
            };
            cur = cur.generalize(dim).expect("next_dim only picks depth > 0");
            profile.0[dim.index()] -= 1;
            depth -= 1;
        }
        cur
    }

    /// Iterates the canonical chain upward: the parent of `key`, then
    /// the grandparent, … ending with the root. Maintains the profile
    /// incrementally, so whole-chain walks cost O(depth), not O(depth²).
    pub fn chain_up(&self, key: &FlowKey) -> ChainUp<'_> {
        ChainUp {
            schema: self,
            profile: DepthProfile::of(key),
            cur: *key,
            done: false,
        }
    }

    /// Like [`Schema::chain_up`], but yields `(ancestor, hash)` pairs
    /// with the whole-key hash maintained incrementally (two
    /// single-feature hashes per step). `key_hash` must be
    /// [`crate::key_hash`]`(key)`; passing it in lets hot paths that
    /// already probed an index with it avoid recomputing.
    pub fn chain_up_hashed(&self, key: &FlowKey, key_hash: u64) -> crate::HashedChainUp<'_> {
        crate::HashedChainUp::new(self, key, key_hash)
    }

    /// The next dimension the canonical schedule generalizes for a key
    /// with the given depth profile (`None` at the root). Exposed for
    /// chain walkers that maintain profiles incrementally.
    #[inline]
    pub fn next_chain_dim(&self, profile: &DepthProfile) -> Option<Dim> {
        next_dim(profile, &self.active, &SCHEDULE_WEIGHT)
    }

    /// Rank of the schedule step that sheds level `depth ≥ 1` of `dim`.
    /// The schedule always sheds the `(dimension, level)` pair of
    /// largest rank, so a key's chain sheds its pairs in strictly
    /// decreasing rank: a profile `q` dimension-wise below a key's
    /// profile `p` lies on that key's chain iff every level inside `q`
    /// ranks below every level of `p` outside it.
    #[inline]
    pub fn schedule_rank(&self, dim: Dim, depth: u16) -> u32 {
        step_rank(dim.index(), depth, &SCHEDULE_WEIGHT)
    }

    /// The step from a chain profile `q` down towards a key of profile
    /// `p` whose chain passes through `q`: the lowest-ranked level of
    /// `p` outside `q`, as `(dimension, feature depth it lands on)`.
    /// `None` if `q` already is `p`. `O(dims)`; replaces replaying the
    /// schedule from `p` upward.
    #[inline]
    pub fn chain_step_below(&self, q: &DepthProfile, p: &DepthProfile) -> Option<(Dim, u16)> {
        let mut best: Option<(u32, usize)> = None;
        for i in 0..NUM_DIMS {
            if self.active[i] && q.0[i] < p.0[i] {
                let r = step_rank(i, q.0[i] + 1, &SCHEDULE_WEIGHT);
                if best.is_none_or(|(b, _)| r < b) {
                    best = Some((r, i));
                }
            }
        }
        best.map(|(_, i)| (Dim::from_index(i), q.0[i] + 1))
    }

    /// Depth profile of [`Schema::lcca`]`(a, b)` in closed form, for
    /// keys conforming to this schema: `a.at_profile(&q)` is the LCCA.
    pub fn lcca_profile(&self, a: &FlowKey, b: &FlowKey) -> DepthProfile {
        self.lcca_of_profiles(
            &a.agreement_profile(b),
            &DepthProfile::of(a),
            &DepthProfile::of(b),
        )
    }

    /// [`Schema::lcca_profile`] from the three profiles it needs: the
    /// keys' own (`pa`, `pb`) and their [`FlowKey::agreement_profile`].
    ///
    /// Feature hierarchies are laminar, so the two chains share exactly
    /// the levels inside `agree`, and each chain sheds levels in
    /// decreasing [`Schema::schedule_rank`]. The chains therefore
    /// coincide from the root down to the first level either of them
    /// holds that the other does not: the LCCA keeps, in every
    /// dimension, the shared levels ranking below the lowest-ranked
    /// unshared one. `O(dims)` arithmetic — no schedule is replayed.
    pub fn lcca_of_profiles(
        &self,
        agree: &DepthProfile,
        pa: &DepthProfile,
        pb: &DepthProfile,
    ) -> DepthProfile {
        let mut cut = u32::MAX;
        for i in 0..NUM_DIMS {
            if self.active[i] && agree.0[i] < pa.0[i].max(pb.0[i]) {
                cut = cut.min(step_rank(i, agree.0[i] + 1, &SCHEDULE_WEIGHT));
            }
        }
        let mut q = *agree;
        if cut == u32::MAX {
            return q; // equal keys
        }
        let (norm, tie) = (cut / RANK_STRIDE, cut % RANK_STRIDE);
        for i in 0..NUM_DIMS {
            if !self.active[i] {
                continue;
            }
            // Deepest level of dimension `i` ranking below the cut.
            let below = if TIE_RANK[i] < tie { norm } else { norm - 1 };
            let deepest = below / SCHEDULE_WEIGHT[i];
            if q.0[i] as u32 > deepest {
                q.0[i] = deepest as u16;
            }
        }
        q
    }

    /// Whether `anc` lies on the canonical chain of `desc`
    /// (equal keys count as ancestors).
    pub fn is_chain_ancestor(&self, anc: &FlowKey, desc: &FlowKey) -> bool {
        let da = self.depth(anc);
        let dd = self.depth(desc);
        da <= dd && self.chain_ancestor(desc, da) == *anc
    }

    /// Lowest common chain ancestor: the deepest key lying on the
    /// canonical chains of both `a` and `b`. This is the chain-walking
    /// definition, kept as the oracle for [`Schema::lcca_profile`].
    pub fn lcca(&self, a: &FlowKey, b: &FlowKey) -> FlowKey {
        let (da, db) = (self.depth(a), self.depth(b));
        let common = da.min(db);
        let mut x = self.chain_ancestor(a, common);
        let mut y = self.chain_ancestor(b, common);
        let mut depth = common;
        while x != y {
            debug_assert!(depth > 0, "chains must meet at the root");
            depth -= 1;
            x = self.chain_ancestor(&x, depth);
            y = self.chain_ancestor(&y, depth);
        }
        x
    }

    /// Log2 of the (approximate) space-size ratio between an ancestor and
    /// a descendant key: the uniform estimator divides residual mass by
    /// `2^log2_space_between` per step when pushing estimates down the
    /// hierarchy.
    pub fn log2_space_between(&self, anc: &FlowKey, desc: &FlowKey) -> u32 {
        debug_assert!(anc.contains(desc));
        self.log2_space_between_profiles(&DepthProfile::of(anc), &DepthProfile::of(desc))
    }

    /// [`Self::log2_space_between`] on depth profiles: `Σ` over active
    /// dimensions of `max(0, desc_d − anc_d) × fan-out_d`.
    ///
    /// Feature hierarchies are laminar, so the meet of two overlapping
    /// keys is, per dimension, the deeper of their features. For
    /// overlapping `node` and `pattern` this therefore equals
    /// `log2_space_between(node, meet(node, pattern))` with `desc` the
    /// *pattern's* profile — the uniform estimator's share without
    /// building the meet key.
    #[inline]
    pub fn log2_space_between_profiles(&self, anc: &DepthProfile, desc: &DepthProfile) -> u32 {
        let mut bits = 0u32;
        for dim in self.dims() {
            let i = dim.index();
            let delta = desc.0[i].saturating_sub(anc.0[i]) as u32;
            bits += delta * LOG2_FANOUT[i] as u32;
        }
        bits
    }

    /// The full chain depth of a completely specified IPv4 flow under
    /// this schema (useful for sizing sweeps).
    pub fn full_depth_v4(&self) -> u32 {
        self.dims().map(|d| MAX_DEPTH[d.index()] as u32).sum()
    }
}

/// Iterator returned by [`Schema::chain_up`].
#[derive(Debug, Clone)]
pub struct ChainUp<'a> {
    schema: &'a Schema,
    profile: DepthProfile,
    cur: FlowKey,
    done: bool,
}

impl Iterator for ChainUp<'_> {
    type Item = FlowKey;

    fn next(&mut self) -> Option<FlowKey> {
        if self.done {
            return None;
        }
        match next_dim(&self.profile, &self.schema.active, &SCHEDULE_WEIGHT) {
            Some(dim) => {
                self.cur = self
                    .cur
                    .generalize(dim)
                    .expect("next_dim only picks depth > 0");
                self.profile.0[dim.index()] -= 1;
                Some(self.cur)
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

/// Sort keys that put chain relatives next to each other, for one key
/// shape (depth profile) under one schema.
///
/// Walking a chain from the root down, every step specializes one
/// dimension by one level, i.e. picks one branch of that feature's
/// hierarchy. [`ChainOrder::key`] concatenates those branch choices,
/// root first, into a left-aligned `u128`: keys below a common chain
/// ancestor share the ancestor's bits as a prefix, so sorting a batch
/// by it visits the tree in depth-first order. It is a **locality
/// hint**, not an order anything may rely on: chains longer than 128
/// bits are truncated, and keys of different shapes interleave
/// wherever their schedules differ.
///
/// The key is a fixed permutation of the features' bits, so it is
/// evaluated four bits at a time: every nibble of every feature has a
/// 16-entry table of where its bits land.
#[derive(Debug, Clone, Default)]
pub struct ChainOrder {
    /// `(word of branch_words, right shift, key bits by nibble value)`.
    nibbles: Vec<(u8, u8, [u128; 16])>,
}

impl ChainOrder {
    /// The order for keys of shape `profile` under `schema`.
    pub fn new(schema: &Schema, profile: DepthProfile) -> ChainOrder {
        // The schedule replays leaf-first; the sort key reads root-first.
        let mut levels = Vec::with_capacity(profile.total(&schema.active) as usize);
        let mut p = profile;
        while let Some(dim) = schema.next_chain_dim(&p) {
            let i = dim.index();
            levels.push((i, p.0[i] as usize));
            p.0[i] -= 1;
        }
        // Level `d` of a dimension owns the `d`-th group of
        // `LOG2_FANOUT` bits of its branch path; `lands[i][b]` is the
        // key bit (0 = most significant) that path bit `b` moves to.
        let mut lands: [Vec<u8>; NUM_DIMS] = Default::default();
        let mut used = 0usize;
        for (i, level) in levels.into_iter().rev() {
            let width = LOG2_FANOUT[i] as usize;
            if level * width > 128 || used + width > 128 {
                break;
            }
            debug_assert_eq!(lands[i].len(), (level - 1) * width);
            lands[i].extend((used..used + width).map(|bit| bit as u8));
            used += width;
        }
        let mut nibbles = Vec::with_capacity(used.div_ceil(4) + NUM_DIMS);
        for (i, lands) in lands.iter().enumerate() {
            for (n, group) in lands.chunks(4).enumerate() {
                let mut table = [0u128; 16];
                for (value, out) in table.iter_mut().enumerate() {
                    for (b, land) in group.iter().enumerate() {
                        if value & (8 >> b) != 0 {
                            *out |= 1 << (127 - land);
                        }
                    }
                }
                let word = 2 * i + n / 16;
                nibbles.push((word as u8, (60 - 4 * (n % 16)) as u8, table));
            }
        }
        ChainOrder { nibbles }
    }

    /// The sort key of `key`, which must have the shape this order
    /// was built for.
    pub fn key(&self, key: &FlowKey) -> u128 {
        let words = branch_words(key);
        self.nibbles.iter().fold(0, |out, (word, shift, table)| {
            out | table[(words[*word as usize] >> shift) as usize & 15]
        })
    }
}

/// Each dimension's feature as the branches taken from its hierarchy's
/// root, left-aligned in 128 bits (two words per dimension, high word
/// first): level `d` occupies the `d`-th group of `LOG2_FANOUT` bits
/// from the top.
fn branch_words(key: &FlowKey) -> [u64; 2 * NUM_DIMS] {
    let ip = |net: &IpNet| match net {
        IpNet::Any => 0,
        // Level 1 picks the family, level `d ≥ 2` address bit `d − 2`.
        IpNet::V4(p) => (p.bits() as u128) << 95,
        IpNet::V6(p) => (1u128 << 127) | (p.bits() >> 1),
    };
    let paths: [u128; NUM_DIMS] = [
        ip(&key.src),
        ip(&key.dst),
        (key.sport.lo() as u128) << 112,
        (key.dport.lo() as u128) << 112,
        match key.proto {
            Proto::Any => 0,
            Proto::Is(p) => (p as u128) << 120,
        },
        (key.time.start() as u128) << (128 - TimeBucket::MAX_LEVEL as u32),
        match key.site {
            Site::Any => 0,
            Site::Region(r) => (r as u128) << 120,
            Site::Is(s) => (s as u128) << 112,
        },
    ];
    let mut words = [0u64; 2 * NUM_DIMS];
    for (i, path) in paths.iter().enumerate() {
        words[2 * i] = (path >> 64) as u64;
        words[2 * i + 1] = *path as u64;
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> FlowKey {
        s.parse().unwrap()
    }

    #[test]
    fn kinds_have_expected_arity() {
        assert_eq!(Schema::one_feature_src().num_active(), 1);
        assert_eq!(Schema::two_feature().num_active(), 2);
        assert_eq!(Schema::four_feature().num_active(), 4);
        assert_eq!(Schema::five_feature().num_active(), 5);
        assert_eq!(Schema::extended().num_active(), 7);
    }

    #[test]
    fn depth_counts_active_dims_only() {
        let k = key("src=1.2.3.4/32 dport=443");
        assert_eq!(Schema::one_feature_src().depth(&k), 33);
        assert_eq!(Schema::four_feature().depth(&k), 33 + 16);
        assert_eq!(Schema::five_feature().depth(&k), 33 + 16);
    }

    #[test]
    fn parent_chain_terminates_at_root() {
        let schema = Schema::five_feature();
        let mut cur = key("src=9.8.7.6/32 dst=1.2.3.4/32 sport=53124 dport=53 proto=udp");
        let mut steps = 0;
        while let Some(p) = schema.parent(&cur) {
            assert!(p.contains(&cur));
            assert_eq!(schema.depth(&p) + 1, schema.depth(&cur));
            cur = p;
            steps += 1;
            assert!(steps <= schema.full_depth_v4(), "chain must terminate");
        }
        assert!(cur.is_root());
        assert_eq!(steps, schema.full_depth_v4());
    }

    #[test]
    fn conforms_and_canonicalize() {
        let schema = Schema::two_feature();
        let k = key("src=1.2.3.4/32 dport=80");
        assert!(!schema.conforms(&k));
        let c = schema.canonicalize(&k);
        assert!(schema.conforms(&c));
        assert_eq!(c, key("src=1.2.3.4/32"));
    }

    #[test]
    fn lcca_of_siblings_is_their_fork_point() {
        let schema = Schema::one_feature_src();
        let a = key("src=1.1.1.12/30");
        let b = key("src=1.1.1.20/30");
        let l = schema.lcca(&a, &b);
        assert_eq!(l, key("src=1.1.1.0/27"));
        assert!(schema.is_chain_ancestor(&l, &a));
        assert!(schema.is_chain_ancestor(&l, &b));
    }

    #[test]
    fn lcca_when_one_is_ancestor() {
        let schema = Schema::one_feature_src();
        let a = key("src=1.1.0.0/16");
        let b = key("src=1.1.1.1/32");
        assert_eq!(schema.lcca(&a, &b), a);
        assert_eq!(schema.lcca(&b, &a), a);
        assert_eq!(schema.lcca(&a, &a), a);
    }

    #[test]
    fn lcca_multi_feature_lies_on_both_chains() {
        let schema = Schema::five_feature();
        let a = key("src=10.0.0.1/32 dst=192.0.2.1/32 sport=1111 dport=80 proto=tcp");
        let b = key("src=10.0.0.2/32 dst=192.0.2.1/32 sport=2222 dport=443 proto=tcp");
        let l = schema.lcca(&a, &b);
        assert!(schema.is_chain_ancestor(&l, &a));
        assert!(schema.is_chain_ancestor(&l, &b));
        assert!(l.contains(&a) && l.contains(&b));
        // And it is the *lowest* such node: one step deeper on a's chain
        // is no longer an ancestor of b.
        let deeper = schema.chain_ancestor(&a, schema.depth(&l) + 1);
        assert!(!schema.is_chain_ancestor(&deeper, &b));
    }

    #[test]
    fn is_chain_ancestor_examples() {
        let schema = Schema::one_feature_src();
        assert!(schema.is_chain_ancestor(&key("src=1.1.1.0/24"), &key("src=1.1.1.20/30")));
        assert!(!schema.is_chain_ancestor(&key("src=1.1.2.0/24"), &key("src=1.1.1.20/30")));
        // Lattice ancestor that is NOT on the canonical chain: under the
        // five-feature schema, (src=/24) is an ancestor of the full key in
        // the lattice but the canonical chain sheds ports before reaching
        // src=/24 with ports still fully specified.
        let schema5 = Schema::five_feature();
        let full = key("src=1.1.1.7/32 dst=2.2.2.2/32 sport=1234 dport=80 proto=tcp");
        let lattice_anc = key("src=1.1.1.0/24 dst=2.2.2.2/32 sport=1234 dport=80 proto=tcp");
        assert!(lattice_anc.contains(&full));
        assert!(!schema5.is_chain_ancestor(&lattice_anc, &full));
    }

    #[test]
    fn log2_space_between_accumulates_fanout() {
        let schema = Schema::five_feature();
        let anc = key("src=1.1.1.0/24");
        let desc = key("src=1.1.1.0/26 proto=tcp");
        assert_eq!(schema.log2_space_between(&anc, &desc), 2 + 8);
    }

    #[test]
    fn full_depth_v4_by_kind() {
        assert_eq!(Schema::one_feature_src().full_depth_v4(), 33);
        assert_eq!(Schema::two_feature().full_depth_v4(), 66);
        assert_eq!(Schema::four_feature().full_depth_v4(), 98);
        assert_eq!(Schema::five_feature().full_depth_v4(), 99);
    }
}
