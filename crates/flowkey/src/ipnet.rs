//! IP network prefixes and their generalization hierarchy.
//!
//! IP addresses generalize along network prefixes: `1.1.1.20/30` is
//! contained in `1.1.1.0/24`, which is contained in `1.0.0.0/8`, which is
//! contained in the IPv4 wildcard `0.0.0.0/0`, which is contained in the
//! family-agnostic wildcard [`IpNet::Any`]. Every one-bit shortening of
//! the prefix is one generalization step.

use crate::ParseError;
use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;
use std::net::{Ipv4Addr, Ipv6Addr};

/// An IPv4 network prefix in canonical form (host bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// The full IPv4 space, `0.0.0.0/0`.
    pub const ZERO: Ipv4Net = Ipv4Net { addr: 0, len: 0 };

    /// Builds a prefix, masking off host bits.
    ///
    /// Returns `None` if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Option<Ipv4Net> {
        if len > 32 {
            return None;
        }
        let raw = u32::from(addr);
        Some(Ipv4Net {
            addr: raw & mask4(len),
            len,
        })
    }

    /// Builds a host prefix (`/32`).
    pub fn host(addr: Ipv4Addr) -> Ipv4Net {
        Ipv4Net {
            addr: u32::from(addr),
            len: 32,
        }
    }

    /// The network address.
    #[inline]
    pub fn addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// The network address as raw bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.addr
    }

    /// The prefix length.
    ///
    /// (`len` is CIDR terminology, not a container size — hence no
    /// `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the full address space (`/0`).
    #[inline]
    pub fn is_zero_len(&self) -> bool {
        self.len == 0
    }

    /// The immediate parent (one bit shorter), or `None` at `/0`.
    pub fn parent(&self) -> Option<Ipv4Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv4Net {
                addr: self.addr & mask4(len),
                len,
            })
        }
    }

    /// The ancestor at prefix length `len`; `None` if `len > self.len()`.
    pub fn supernet(&self, len: u8) -> Option<Ipv4Net> {
        if len > self.len {
            return None;
        }
        Some(Ipv4Net {
            addr: self.addr & mask4(len),
            len,
        })
    }

    /// Whether `other` is equal to or more specific than `self`.
    #[inline]
    pub fn contains(&self, other: &Ipv4Net) -> bool {
        self.len <= other.len && (other.addr & mask4(self.len)) == self.addr
    }

    /// The longest prefix containing both networks.
    pub fn common_supernet(&self, other: &Ipv4Net) -> Ipv4Net {
        let max_len = self.len.min(other.len);
        let diff = self.addr ^ other.addr;
        let common = if diff == 0 {
            32
        } else {
            diff.leading_zeros() as u8
        };
        let len = max_len.min(common);
        Ipv4Net {
            addr: self.addr & mask4(len),
            len,
        }
    }

    /// Whether the two prefixes share any address.
    ///
    /// Dyadic prefixes are either nested or disjoint, so this is
    /// containment in either direction.
    #[inline]
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        self.contains(other) || other.contains(self)
    }
}

#[inline]
fn mask4(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Ipv4Net {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::BadPrefix(s.to_string());
        match s.split_once('/') {
            Some((a, l)) => {
                let addr: Ipv4Addr = a.parse().map_err(|_| bad())?;
                let len: u8 = l.parse().map_err(|_| bad())?;
                Ipv4Net::new(addr, len).ok_or_else(bad)
            }
            None => {
                let addr: Ipv4Addr = s.parse().map_err(|_| bad())?;
                Ok(Ipv4Net::host(addr))
            }
        }
    }
}

/// An IPv6 network prefix in canonical form (host bits zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv6Net {
    addr: u128,
    len: u8,
}

impl Ipv6Net {
    /// The full IPv6 space, `::/0`.
    pub const ZERO: Ipv6Net = Ipv6Net { addr: 0, len: 0 };

    /// Builds a prefix, masking off host bits. `None` if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Option<Ipv6Net> {
        if len > 128 {
            return None;
        }
        let raw = u128::from(addr);
        Some(Ipv6Net {
            addr: raw & mask6(len),
            len,
        })
    }

    /// Builds a host prefix (`/128`).
    pub fn host(addr: Ipv6Addr) -> Ipv6Net {
        Ipv6Net {
            addr: u128::from(addr),
            len: 128,
        }
    }

    /// The network address.
    #[inline]
    pub fn addr(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.addr)
    }

    /// The network address as raw bits.
    #[inline]
    pub fn bits(&self) -> u128 {
        self.addr
    }

    /// The prefix length.
    ///
    /// (`len` is CIDR terminology, not a container size — hence no
    /// `is_empty`.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the full address space (`/0`).
    #[inline]
    pub fn is_zero_len(&self) -> bool {
        self.len == 0
    }

    /// The immediate parent (one bit shorter), or `None` at `/0`.
    pub fn parent(&self) -> Option<Ipv6Net> {
        if self.len == 0 {
            None
        } else {
            let len = self.len - 1;
            Some(Ipv6Net {
                addr: self.addr & mask6(len),
                len,
            })
        }
    }

    /// The ancestor at prefix length `len`; `None` if `len > self.len()`.
    pub fn supernet(&self, len: u8) -> Option<Ipv6Net> {
        if len > self.len {
            return None;
        }
        Some(Ipv6Net {
            addr: self.addr & mask6(len),
            len,
        })
    }

    /// Whether `other` is equal to or more specific than `self`.
    #[inline]
    pub fn contains(&self, other: &Ipv6Net) -> bool {
        self.len <= other.len && (other.addr & mask6(self.len)) == self.addr
    }

    /// The longest prefix containing both networks.
    pub fn common_supernet(&self, other: &Ipv6Net) -> Ipv6Net {
        let max_len = self.len.min(other.len);
        let diff = self.addr ^ other.addr;
        let common = if diff == 0 {
            128
        } else {
            diff.leading_zeros() as u8
        };
        let len = max_len.min(common);
        Ipv6Net {
            addr: self.addr & mask6(len),
            len,
        }
    }

    /// Whether the two prefixes share any address.
    #[inline]
    pub fn overlaps(&self, other: &Ipv6Net) -> bool {
        self.contains(other) || other.contains(self)
    }
}

#[inline]
fn mask6(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

impl fmt::Display for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Ipv6Net {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::BadPrefix(s.to_string());
        match s.split_once('/') {
            Some((a, l)) => {
                let addr: Ipv6Addr = a.parse().map_err(|_| bad())?;
                let len: u8 = l.parse().map_err(|_| bad())?;
                Ipv6Net::new(addr, len).ok_or_else(bad)
            }
            None => {
                let addr: Ipv6Addr = s.parse().map_err(|_| bad())?;
                Ok(Ipv6Net::host(addr))
            }
        }
    }
}

/// An IP prefix of either family, or the family-agnostic wildcard.
///
/// The hierarchy is: host address → … one bit at a time … → `/0` of its
/// family → [`IpNet::Any`]. Depth is therefore `len + 1` for a concrete
/// prefix and `0` for the wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IpNet {
    /// Matches every address of both families (the hierarchy root).
    #[default]
    Any,
    /// An IPv4 prefix.
    V4(Ipv4Net),
    /// An IPv6 prefix.
    V6(Ipv6Net),
}

impl IpNet {
    /// Host key for an IPv4 address.
    pub fn v4_host(addr: Ipv4Addr) -> IpNet {
        IpNet::V4(Ipv4Net::host(addr))
    }

    /// Host key for an IPv6 address.
    pub fn v6_host(addr: Ipv6Addr) -> IpNet {
        IpNet::V6(Ipv6Net::host(addr))
    }

    /// Depth in the generalization hierarchy (0 = [`IpNet::Any`]).
    #[inline]
    pub fn depth(&self) -> u16 {
        match self {
            IpNet::Any => 0,
            IpNet::V4(p) => p.len() as u16 + 1,
            IpNet::V6(p) => p.len() as u16 + 1,
        }
    }

    /// One generalization step up; `None` at the root.
    pub fn generalize(&self) -> Option<IpNet> {
        match self {
            IpNet::Any => None,
            IpNet::V4(p) => Some(match p.parent() {
                Some(q) => IpNet::V4(q),
                None => IpNet::Any,
            }),
            IpNet::V6(p) => Some(match p.parent() {
                Some(q) => IpNet::V6(q),
                None => IpNet::Any,
            }),
        }
    }

    /// The ancestor at hierarchy depth `depth`; `None` if deeper than `self`.
    pub fn ancestor_at(&self, depth: u16) -> Option<IpNet> {
        if depth > self.depth() {
            return None;
        }
        if depth == 0 {
            return Some(IpNet::Any);
        }
        match self {
            IpNet::Any => unreachable!("depth > 0 but self is Any"),
            IpNet::V4(p) => p.supernet((depth - 1) as u8).map(IpNet::V4),
            IpNet::V6(p) => p.supernet((depth - 1) as u8).map(IpNet::V6),
        }
    }

    /// Whether `other` is equal or more specific.
    pub fn contains(&self, other: &IpNet) -> bool {
        match (self, other) {
            (IpNet::Any, _) => true,
            (_, IpNet::Any) => false,
            (IpNet::V4(a), IpNet::V4(b)) => a.contains(b),
            (IpNet::V6(a), IpNet::V6(b)) => a.contains(b),
            _ => false,
        }
    }

    /// Whether the two features share any concrete address.
    pub fn overlaps(&self, other: &IpNet) -> bool {
        match (self, other) {
            (IpNet::Any, _) | (_, IpNet::Any) => true,
            (IpNet::V4(a), IpNet::V4(b)) => a.overlaps(b),
            (IpNet::V6(a), IpNet::V6(b)) => a.overlaps(b),
            _ => false,
        }
    }

    /// The most specific feature containing both, i.e. the lattice join.
    pub fn join(&self, other: &IpNet) -> IpNet {
        match (self, other) {
            (IpNet::Any, _) | (_, IpNet::Any) => IpNet::Any,
            (IpNet::V4(a), IpNet::V4(b)) => IpNet::V4(a.common_supernet(b)),
            (IpNet::V6(a), IpNet::V6(b)) => IpNet::V6(a.common_supernet(b)),
            _ => IpNet::Any,
        }
    }

    /// The lattice meet: the more specific of two nested features, `None`
    /// if they are disjoint.
    pub fn meet(&self, other: &IpNet) -> Option<IpNet> {
        if self.contains(other) {
            Some(*other)
        } else if other.contains(self) {
            Some(*self)
        } else {
            None
        }
    }
}

impl Ord for IpNet {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(n: &IpNet) -> (u8, u128, u8) {
            match n {
                IpNet::Any => (0, 0, 0),
                IpNet::V4(p) => (1, (p.bits() as u128) << 96, p.len()),
                IpNet::V6(p) => (2, p.bits(), p.len()),
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl PartialOrd for IpNet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for IpNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpNet::Any => f.write_str("*"),
            IpNet::V4(p) => p.fmt(f),
            IpNet::V6(p) => p.fmt(f),
        }
    }
}

impl FromStr for IpNet {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "*" {
            return Ok(IpNet::Any);
        }
        if s.contains(':') {
            s.parse::<Ipv6Net>().map(IpNet::V6)
        } else {
            s.parse::<Ipv4Net>().map(IpNet::V4)
        }
    }
}

impl From<Ipv4Addr> for IpNet {
    fn from(a: Ipv4Addr) -> Self {
        IpNet::v4_host(a)
    }
}

impl From<Ipv6Addr> for IpNet {
    fn from(a: Ipv6Addr) -> Self {
        IpNet::v6_host(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    #[test]
    fn v4_new_masks_host_bits() {
        let p = Ipv4Net::new(Ipv4Addr::new(1, 1, 1, 77), 24).unwrap();
        assert_eq!(p, net("1.1.1.0/24"));
        assert_eq!(p.to_string(), "1.1.1.0/24");
    }

    #[test]
    fn v4_new_rejects_len_over_32() {
        assert!(Ipv4Net::new(Ipv4Addr::new(1, 1, 1, 1), 33).is_none());
    }

    #[test]
    fn v4_parent_chain_reaches_zero() {
        let mut p = net("1.1.1.20/30");
        let mut steps = 0;
        while let Some(q) = p.parent() {
            assert!(q.contains(&p));
            p = q;
            steps += 1;
        }
        assert_eq!(steps, 30);
        assert_eq!(p, Ipv4Net::ZERO);
    }

    #[test]
    fn v4_contains_is_reflexive_and_ordered() {
        let a = net("1.1.1.0/24");
        let b = net("1.1.1.20/30");
        assert!(a.contains(&a));
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(!net("1.1.2.0/24").contains(&b));
    }

    #[test]
    fn v4_common_supernet_examples() {
        // Figure 2a of the paper: 1.1.1.12/30 and 1.1.1.20/30 join below /24.
        let a = net("1.1.1.12/30");
        let b = net("1.1.1.20/30");
        let j = a.common_supernet(&b);
        assert_eq!(j, net("1.1.1.0/27"));
        assert!(j.contains(&a) && j.contains(&b));
        // Identical prefixes join to themselves.
        assert_eq!(a.common_supernet(&a), a);
        // Disjoint /8s join high up.
        assert_eq!(
            net("1.0.0.0/8").common_supernet(&net("2.0.0.0/8")),
            net("0.0.0.0/6")
        );
    }

    #[test]
    fn v4_supernet_at_depth() {
        let p = net("1.1.1.20/30");
        assert_eq!(p.supernet(24).unwrap(), net("1.1.1.0/24"));
        assert_eq!(p.supernet(8).unwrap(), net("1.0.0.0/8"));
        assert_eq!(p.supernet(0).unwrap(), Ipv4Net::ZERO);
        assert!(p.supernet(31).is_none());
    }

    #[test]
    fn v6_basics() {
        let p: Ipv6Net = "2001:db8::/32".parse().unwrap();
        let h: Ipv6Net = "2001:db8::1/128".parse().unwrap();
        assert!(p.contains(&h));
        assert_eq!(h.supernet(32).unwrap(), p);
        assert_eq!(p.common_supernet(&h), p);
    }

    #[test]
    fn ipnet_depth_and_generalize() {
        let k = IpNet::from_str("1.1.1.1/32").unwrap();
        assert_eq!(k.depth(), 33);
        let mut cur = k;
        let mut count = 0;
        while let Some(up) = cur.generalize() {
            assert!(up.contains(&cur));
            assert_eq!(up.depth() + 1, cur.depth());
            cur = up;
            count += 1;
        }
        assert_eq!(count, 33);
        assert_eq!(cur, IpNet::Any);
    }

    #[test]
    fn ipnet_ancestor_at() {
        let k = IpNet::from_str("1.1.1.1/32").unwrap();
        assert_eq!(k.ancestor_at(0), Some(IpNet::Any));
        assert_eq!(
            k.ancestor_at(25),
            Some(IpNet::from_str("1.1.1.0/24").unwrap())
        );
        assert_eq!(k.ancestor_at(33), Some(k));
        assert_eq!(k.ancestor_at(34), None);
    }

    #[test]
    fn ipnet_cross_family_disjoint() {
        let v4 = IpNet::from_str("1.0.0.0/8").unwrap();
        let v6 = IpNet::from_str("2001:db8::/32").unwrap();
        assert!(!v4.contains(&v6));
        assert!(!v4.overlaps(&v6));
        assert_eq!(v4.join(&v6), IpNet::Any);
        assert_eq!(v4.meet(&v6), None);
        assert!(IpNet::Any.contains(&v4) && IpNet::Any.contains(&v6));
    }

    #[test]
    fn ipnet_meet_nested() {
        let a = IpNet::from_str("1.1.0.0/16").unwrap();
        let b = IpNet::from_str("1.1.1.0/24").unwrap();
        assert_eq!(a.meet(&b), Some(b));
        assert_eq!(b.meet(&a), Some(b));
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["*", "1.2.3.0/24", "10.0.0.1/32", "2001:db8::/32", "::1/128"] {
            let k = IpNet::from_str(s).unwrap();
            assert_eq!(k.to_string(), s);
        }
        // Bare addresses parse as hosts.
        assert_eq!(IpNet::from_str("1.2.3.4").unwrap().depth(), 33);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["1.2.3.4/33", "1.2.3/24", "zz", "2001:db8::/129", ""] {
            assert!(IpNet::from_str(s).is_err(), "{s} should not parse");
        }
    }
}
