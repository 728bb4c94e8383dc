//! [`FlowKey`] — a generalized flow: one feature per dimension.

use crate::{Dim, IpNet, PortRange, Proto, Site, TimeBucket};
use core::fmt;

/// A generalized flow: a point in the product lattice of all feature
/// hierarchies.
///
/// Every dimension defaults to its wildcard, so a `FlowKey` is usable
/// under any [`Schema`](crate::Schema): a 2-feature key simply leaves the
/// port/protocol dimensions at their wildcards. The all-wildcard key is
/// the lattice top (the tree root).
///
/// Ordering is lexicographic over dimensions; it exists so keys can be
/// sorted deterministically (e.g. for canonical serialization), not
/// because the order is semantically meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Source IP prefix.
    pub src: IpNet,
    /// Destination IP prefix.
    pub dst: IpNet,
    /// Source port range.
    pub sport: PortRange,
    /// Destination port range.
    pub dport: PortRange,
    /// IP protocol.
    pub proto: Proto,
    /// Time bucket (extension feature).
    pub time: TimeBucket,
    /// Monitor site (extension feature).
    pub site: Site,
}

impl FlowKey {
    /// The all-wildcard key (lattice top / tree root).
    pub const ROOT: FlowKey = FlowKey {
        src: IpNet::Any,
        dst: IpNet::Any,
        sport: PortRange::ANY,
        dport: PortRange::ANY,
        proto: Proto::Any,
        time: TimeBucket::ANY,
        site: Site::Any,
    };

    /// A fully-specified 5-tuple key (time/site left at wildcard).
    pub fn five_tuple(src: IpNet, dst: IpNet, sport: u16, dport: u16, proto: u8) -> FlowKey {
        FlowKey {
            src,
            dst,
            sport: PortRange::port(sport),
            dport: PortRange::port(dport),
            proto: Proto::Is(proto),
            ..FlowKey::ROOT
        }
    }

    /// Builder-style setter for the source prefix.
    pub fn with_src(mut self, src: IpNet) -> FlowKey {
        self.src = src;
        self
    }

    /// Builder-style setter for the destination prefix.
    pub fn with_dst(mut self, dst: IpNet) -> FlowKey {
        self.dst = dst;
        self
    }

    /// Builder-style setter for the source port range.
    pub fn with_sport(mut self, sport: PortRange) -> FlowKey {
        self.sport = sport;
        self
    }

    /// Builder-style setter for the destination port range.
    pub fn with_dport(mut self, dport: PortRange) -> FlowKey {
        self.dport = dport;
        self
    }

    /// Builder-style setter for the protocol.
    pub fn with_proto(mut self, proto: Proto) -> FlowKey {
        self.proto = proto;
        self
    }

    /// Builder-style setter for the time bucket.
    pub fn with_time(mut self, time: TimeBucket) -> FlowKey {
        self.time = time;
        self
    }

    /// Builder-style setter for the site.
    pub fn with_site(mut self, site: Site) -> FlowKey {
        self.site = site;
        self
    }

    /// Depth of one dimension's feature in its hierarchy.
    #[inline]
    pub fn dim_depth(&self, dim: Dim) -> u16 {
        match dim {
            Dim::SrcIp => self.src.depth(),
            Dim::DstIp => self.dst.depth(),
            Dim::SrcPort => self.sport.depth(),
            Dim::DstPort => self.dport.depth(),
            Dim::Proto => self.proto.depth(),
            Dim::Time => self.time.depth(),
            Dim::Site => self.site.depth(),
        }
    }

    /// One generalization step along `dim`; `None` if that dimension is
    /// already at its wildcard.
    pub fn generalize(&self, dim: Dim) -> Option<FlowKey> {
        let mut out = *self;
        match dim {
            Dim::SrcIp => out.src = self.src.generalize()?,
            Dim::DstIp => out.dst = self.dst.generalize()?,
            Dim::SrcPort => out.sport = self.sport.generalize()?,
            Dim::DstPort => out.dport = self.dport.generalize()?,
            Dim::Proto => out.proto = self.proto.generalize()?,
            Dim::Time => out.time = self.time.generalize()?,
            Dim::Site => out.site = self.site.generalize()?,
        }
        Some(out)
    }

    /// Replaces `dim`'s feature with its ancestor at hierarchy depth
    /// `depth`; `None` if the feature is less specific than `depth`.
    pub fn dim_ancestor_at(&self, dim: Dim, depth: u16) -> Option<FlowKey> {
        let mut out = *self;
        match dim {
            Dim::SrcIp => out.src = self.src.ancestor_at(depth)?,
            Dim::DstIp => out.dst = self.dst.ancestor_at(depth)?,
            Dim::SrcPort => out.sport = self.sport.ancestor_at(depth)?,
            Dim::DstPort => out.dport = self.dport.ancestor_at(depth)?,
            Dim::Proto => out.proto = self.proto.ancestor_at(depth)?,
            Dim::Time => out.time = self.time.ancestor_at(depth)?,
            Dim::Site => out.site = self.site.ancestor_at(depth)?,
        }
        Some(out)
    }

    /// Whether `other` is equal to or a specialization of `self`
    /// (the lattice partial order: `self ⊒ other`).
    pub fn contains(&self, other: &FlowKey) -> bool {
        self.src.contains(&other.src)
            && self.dst.contains(&other.dst)
            && self.sport.contains(&other.sport)
            && self.dport.contains(&other.dport)
            && self.proto.contains(&other.proto)
            && self.time.contains(&other.time)
            && self.site.contains(&other.site)
    }

    /// Whether the two keys share at least one concrete flow.
    ///
    /// Because every individual feature hierarchy is laminar (two
    /// features are nested or disjoint), two keys overlap iff every
    /// dimension overlaps — but, unlike single features, overlapping
    /// keys need *not* be nested: `(src=1/8, dst=*)` and
    /// `(src=*, dst=2/8)` overlap without either containing the other.
    pub fn overlaps(&self, other: &FlowKey) -> bool {
        self.src.overlaps(&other.src)
            && self.dst.overlaps(&other.dst)
            && self.sport.overlaps(&other.sport)
            && self.dport.overlaps(&other.dport)
            && self.proto.overlaps(&other.proto)
            && self.time.overlaps(&other.time)
            && self.site.overlaps(&other.site)
    }

    /// Lattice meet (most general common specialization); `None` if the
    /// keys are disjoint.
    pub fn meet(&self, other: &FlowKey) -> Option<FlowKey> {
        Some(FlowKey {
            src: self.src.meet(&other.src)?,
            dst: self.dst.meet(&other.dst)?,
            sport: self.sport.meet(&other.sport)?,
            dport: self.dport.meet(&other.dport)?,
            proto: self.proto.meet(&other.proto)?,
            time: self.time.meet(&other.time)?,
            site: self.site.meet(&other.site)?,
        })
    }

    /// Per-dimension depths of the deepest common feature ancestors of
    /// two keys: `result[i]` is the hierarchy depth at which dimension
    /// `i`'s features of `self` and `other` meet (the depth of their
    /// feature-level join). Feature hierarchies are laminar, so the
    /// ancestors of the two features at any depth `≤ result[i]` are
    /// equal and at any greater depth differ — this is what lets
    /// lowest-common-chain-ancestor computations run on depth profiles
    /// alone, without materializing chain keys.
    pub fn agreement_profile(&self, other: &FlowKey) -> crate::DepthProfile {
        let j = self.join(other);
        crate::DepthProfile::of(&j)
    }

    /// The key whose every feature is `self`'s ancestor at the depths
    /// given by `profile` (which must be dimension-wise ≤ this key's
    /// own profile). This is how canonical chain ancestors materialize
    /// from a schedule-evolved depth profile without walking the chain.
    pub fn at_profile(&self, profile: &crate::DepthProfile) -> FlowKey {
        let mut out = *self;
        for dim in Dim::ALL {
            let want = profile.get(dim);
            if want < self.dim_depth(dim) {
                out = out
                    .dim_ancestor_at(dim, want)
                    .expect("profile must be dimension-wise below the key");
            }
        }
        out
    }

    /// Lattice join (most specific common generalization).
    pub fn join(&self, other: &FlowKey) -> FlowKey {
        FlowKey {
            src: self.src.join(&other.src),
            dst: self.dst.join(&other.dst),
            sport: self.sport.join(&other.sport),
            dport: self.dport.join(&other.dport),
            proto: self.proto.join(&other.proto),
            time: self.time.join(&other.time),
            site: self.site.join(&other.site),
        }
    }

    /// Whether this is the all-wildcard key.
    pub fn is_root(&self) -> bool {
        *self == FlowKey::ROOT
    }
}

impl fmt::Display for FlowKey {
    /// Formats only the non-wildcard dimensions, e.g.
    /// `src=1.1.1.0/24 dport=443 proto=tcp`; the root formats as `*`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str("*");
        }
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, name: &str, v: String| -> fmt::Result {
            if v == "*" {
                return Ok(());
            }
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            write!(f, "{name}={v}")
        };
        item(f, "src", self.src.to_string())?;
        item(f, "dst", self.dst.to_string())?;
        item(f, "sport", self.sport.to_string())?;
        item(f, "dport", self.dport.to_string())?;
        item(f, "proto", self.proto.to_string())?;
        item(f, "time", self.time.to_string())?;
        item(f, "site", self.site.to_string())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(s: &str) -> FlowKey {
        s.parse().unwrap()
    }

    #[test]
    fn root_contains_everything() {
        let k = FlowKey::five_tuple(
            IpNet::v4_host(Ipv4Addr::new(1, 2, 3, 4)),
            IpNet::v4_host(Ipv4Addr::new(5, 6, 7, 8)),
            1234,
            80,
            6,
        );
        assert!(FlowKey::ROOT.contains(&k));
        assert!(!k.contains(&FlowKey::ROOT));
        assert!(FlowKey::ROOT.is_root());
    }

    #[test]
    fn contains_is_per_dimension() {
        let broad = key("src=1.1.0.0/16 dport=0-511");
        let narrow = key("src=1.1.1.0/24 dport=443");
        assert!(broad.contains(&narrow));
        assert!(!narrow.contains(&broad));
        // Flip one dimension out from under the parent.
        let outside = key("src=1.2.0.0/24 dport=443");
        assert!(!broad.contains(&outside));
    }

    #[test]
    fn overlap_without_nesting() {
        let a = key("src=1.0.0.0/8");
        let b = key("dst=2.0.0.0/8");
        assert!(a.overlaps(&b));
        assert!(!a.contains(&b) && !b.contains(&a));
        let m = a.meet(&b).unwrap();
        assert_eq!(m, key("src=1.0.0.0/8 dst=2.0.0.0/8"));
    }

    #[test]
    fn meet_none_when_disjoint() {
        let a = key("src=1.0.0.0/8 dport=80");
        let b = key("src=2.0.0.0/8");
        assert_eq!(a.meet(&b), None);
        let c = key("src=1.0.0.0/8 dport=443");
        assert_eq!(a.meet(&c), None); // same src, disjoint dport
    }

    #[test]
    fn join_is_least_upper_bound_on_examples() {
        let a = key("src=1.1.1.12/30 dport=80");
        let b = key("src=1.1.1.20/30 dport=443");
        let j = a.join(&b);
        assert!(j.contains(&a) && j.contains(&b));
        assert_eq!(j.src, "1.1.1.0/27".parse().unwrap());
    }

    #[test]
    fn generalize_single_dim() {
        let k = key("src=1.1.1.0/24 dport=443");
        let g = k.generalize(Dim::SrcIp).unwrap();
        assert_eq!(g.src, "1.1.1.0/23".parse().unwrap());
        assert_eq!(g.dport, k.dport);
        assert!(g.contains(&k));
        // Wildcard dims cannot generalize further.
        assert!(k.generalize(Dim::Proto).is_none());
    }

    #[test]
    fn dim_ancestor_at_works() {
        let k = key("src=1.1.1.1/32");
        let a = k.dim_ancestor_at(Dim::SrcIp, 25).unwrap();
        assert_eq!(a.src, "1.1.1.0/24".parse().unwrap());
        assert!(k.dim_ancestor_at(Dim::SrcIp, 34).is_none());
    }

    #[test]
    fn display_skips_wildcards() {
        assert_eq!(FlowKey::ROOT.to_string(), "*");
        let k = key("src=1.1.1.0/24 proto=tcp");
        assert_eq!(k.to_string(), "src=1.1.1.0/24 proto=tcp");
    }
}
