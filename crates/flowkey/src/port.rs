//! Dyadic port ranges.
//!
//! Ports generalize along the natural binary hierarchy over `0..=65535`:
//! a range fixes the leading `plen` bits of the 16-bit port number, so
//! `plen = 16` is a single port, `plen = 6` is a 1024-wide range such as
//! `1024-2047`, and `plen = 0` is the wildcard covering every port. The
//! paper's example `1024-1536` is (after rounding to the dyadic grid)
//! the bucket `1024-1535`.

use crate::ParseError;
use core::fmt;
use core::str::FromStr;

/// A dyadic port range: the `plen` leading bits of the port are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRange {
    base: u16,
    plen: u8,
}

impl PortRange {
    /// The wildcard range covering all 65536 ports.
    pub const ANY: PortRange = PortRange { base: 0, plen: 0 };

    /// A single port (`plen = 16`).
    #[inline]
    pub fn port(p: u16) -> PortRange {
        PortRange { base: p, plen: 16 }
    }

    /// A dyadic range with the given fixed-bit count, masking `base`.
    ///
    /// Returns `None` if `plen > 16`.
    pub fn new(base: u16, plen: u8) -> Option<PortRange> {
        if plen > 16 {
            return None;
        }
        Some(PortRange {
            base: base & mask(plen),
            plen,
        })
    }

    /// Builds the smallest dyadic range covering `lo..=hi`, if `lo..=hi`
    /// is itself dyadic; otherwise `None`.
    pub fn from_bounds(lo: u16, hi: u16) -> Option<PortRange> {
        if lo > hi {
            return None;
        }
        let span = (hi - lo) as u32 + 1;
        if !span.is_power_of_two() {
            return None;
        }
        let plen = 16 - span.trailing_zeros() as u8;
        let r = PortRange::new(lo, plen)?;
        if r.lo() == lo && r.hi() == hi {
            Some(r)
        } else {
            None
        }
    }

    /// First port of the range.
    #[inline]
    pub fn lo(&self) -> u16 {
        self.base
    }

    /// Last port of the range.
    #[inline]
    pub fn hi(&self) -> u16 {
        self.base | !mask(self.plen)
    }

    /// Number of fixed leading bits (= hierarchy depth, 0..=16).
    #[inline]
    pub fn plen(&self) -> u8 {
        self.plen
    }

    /// Depth in the generalization hierarchy (same as [`plen`](Self::plen)).
    #[inline]
    pub fn depth(&self) -> u16 {
        self.plen as u16
    }

    /// Whether this is the wildcard.
    #[inline]
    pub fn is_any(&self) -> bool {
        self.plen == 0
    }

    /// Whether this is a single port.
    #[inline]
    pub fn is_single(&self) -> bool {
        self.plen == 16
    }

    /// One generalization step (drop one fixed bit); `None` at wildcard.
    pub fn generalize(&self) -> Option<PortRange> {
        if self.plen == 0 {
            None
        } else {
            PortRange::new(self.base, self.plen - 1)
        }
    }

    /// The ancestor at depth `depth`; `None` if deeper than `self`.
    pub fn ancestor_at(&self, depth: u16) -> Option<PortRange> {
        if depth > self.depth() {
            return None;
        }
        PortRange::new(self.base, depth as u8)
    }

    /// Whether `other` is equal or more specific.
    #[inline]
    pub fn contains(&self, other: &PortRange) -> bool {
        self.plen <= other.plen && (other.base & mask(self.plen)) == self.base
    }

    /// Whether the ranges share any port (dyadic ⇒ nested or disjoint).
    #[inline]
    pub fn overlaps(&self, other: &PortRange) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The smallest dyadic range containing both (lattice join).
    pub fn join(&self, other: &PortRange) -> PortRange {
        let max_len = self.plen.min(other.plen);
        let diff = self.base ^ other.base;
        let common = if diff == 0 {
            16
        } else {
            diff.leading_zeros() as u8
        };
        let plen = max_len.min(common);
        PortRange {
            base: self.base & mask(plen),
            plen,
        }
    }

    /// Lattice meet: the more specific of two nested ranges; `None` if disjoint.
    pub fn meet(&self, other: &PortRange) -> Option<PortRange> {
        if self.contains(other) {
            Some(*other)
        } else if other.contains(self) {
            Some(*self)
        } else {
            None
        }
    }
}

impl Default for PortRange {
    fn default() -> Self {
        PortRange::ANY
    }
}

#[inline]
fn mask(plen: u8) -> u16 {
    if plen == 0 {
        0
    } else {
        u16::MAX << (16 - plen as u16)
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            f.write_str("*")
        } else if self.is_single() {
            write!(f, "{}", self.base)
        } else {
            write!(f, "{}-{}", self.lo(), self.hi())
        }
    }
}

impl FromStr for PortRange {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::BadPort(s.to_string());
        if s == "*" {
            return Ok(PortRange::ANY);
        }
        if let Some((lo, hi)) = s.split_once('-') {
            let lo: u16 = lo.parse().map_err(|_| bad())?;
            let hi: u16 = hi.parse().map_err(|_| bad())?;
            PortRange::from_bounds(lo, hi).ok_or_else(bad)
        } else {
            let p: u16 = s.parse().map_err(|_| bad())?;
            Ok(PortRange::port(p))
        }
    }
}

impl From<u16> for PortRange {
    fn from(p: u16) -> Self {
        PortRange::port(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_port_bounds() {
        let p = PortRange::port(443);
        assert_eq!((p.lo(), p.hi()), (443, 443));
        assert_eq!(p.depth(), 16);
        assert_eq!(p.to_string(), "443");
    }

    #[test]
    fn wildcard_covers_everything() {
        assert_eq!((PortRange::ANY.lo(), PortRange::ANY.hi()), (0, 65535));
        assert!(PortRange::ANY.contains(&PortRange::port(0)));
        assert!(PortRange::ANY.contains(&PortRange::port(65535)));
        assert_eq!(PortRange::ANY.to_string(), "*");
    }

    #[test]
    fn new_masks_low_bits() {
        let r = PortRange::new(1027, 6).unwrap();
        assert_eq!((r.lo(), r.hi()), (1024, 2047));
        assert_eq!(r.to_string(), "1024-2047");
    }

    #[test]
    fn from_bounds_accepts_only_dyadic() {
        assert_eq!(
            PortRange::from_bounds(1024, 1535).unwrap(),
            PortRange::new(1024, 7).unwrap()
        );
        assert!(PortRange::from_bounds(1024, 1536).is_none()); // span 513
        assert!(PortRange::from_bounds(1, 2).is_none()); // misaligned
        assert!(PortRange::from_bounds(10, 5).is_none()); // inverted
        assert_eq!(PortRange::from_bounds(0, 65535).unwrap(), PortRange::ANY);
        assert_eq!(PortRange::from_bounds(80, 80).unwrap(), PortRange::port(80));
    }

    #[test]
    fn generalize_walks_to_wildcard() {
        let mut r = PortRange::port(49152);
        let mut steps = 0;
        while let Some(up) = r.generalize() {
            assert!(up.contains(&r));
            r = up;
            steps += 1;
        }
        assert_eq!(steps, 16);
        assert!(r.is_any());
    }

    #[test]
    fn join_examples() {
        let a = PortRange::port(80);
        let b = PortRange::port(443);
        let j = a.join(&b);
        assert!(j.contains(&a) && j.contains(&b));
        assert_eq!((j.lo(), j.hi()), (0, 511));
        assert_eq!(a.join(&a), a);
    }

    #[test]
    fn meet_nested_and_disjoint() {
        let big = PortRange::new(1024, 6).unwrap();
        let small = PortRange::port(1100);
        assert_eq!(big.meet(&small), Some(small));
        assert_eq!(small.meet(&big), Some(small));
        assert_eq!(PortRange::port(80).meet(&PortRange::port(81)), None);
    }

    #[test]
    fn ancestor_at_depth() {
        let p = PortRange::port(443);
        assert_eq!(p.ancestor_at(0), Some(PortRange::ANY));
        assert_eq!(p.ancestor_at(16), Some(p));
        let mid = p.ancestor_at(8).unwrap();
        assert_eq!((mid.lo(), mid.hi()), (256, 511));
        assert_eq!(p.ancestor_at(17), None);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["*", "0", "80", "65535", "1024-2047", "0-65535"] {
            let r: PortRange = s.parse().unwrap();
            let norm = if s == "0-65535" { "*" } else { s };
            assert_eq!(r.to_string(), norm);
        }
        assert!("1024-1536".parse::<PortRange>().is_err());
        assert!("x".parse::<PortRange>().is_err());
        assert!("70000".parse::<PortRange>().is_err());
    }
}
