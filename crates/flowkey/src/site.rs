//! Monitor location — the *site* extension feature.
//!
//! The distributed system of the paper tags summaries with the monitor
//! (site) that produced them. Sites form a shallow hierarchy:
//! a concrete site belongs to a *region* (site group), which generalizes
//! to the wildcard. Regions let queries such as "all sites of ISP X"
//! aggregate along the hierarchy instead of enumerating sites.

use crate::ParseError;
use core::fmt;
use core::str::FromStr;

/// Number of sites per region in the canonical site numbering.
pub const SITES_PER_REGION: u16 = 256;

/// A monitor location: wildcard, a region of sites, or a concrete site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// All sites (the hierarchy root).
    #[default]
    Any,
    /// A region: all sites `region * SITES_PER_REGION ..` of that region.
    Region(u8),
    /// A concrete site id.
    Is(u16),
}

impl Site {
    /// The region a concrete site belongs to.
    #[inline]
    pub fn region_of(site: u16) -> u8 {
        (site / SITES_PER_REGION) as u8
    }

    /// Depth in the hierarchy (0 = wildcard, 1 = region, 2 = site).
    #[inline]
    pub fn depth(&self) -> u16 {
        match self {
            Site::Any => 0,
            Site::Region(_) => 1,
            Site::Is(_) => 2,
        }
    }

    /// One generalization step; `None` at the wildcard.
    #[inline]
    pub fn generalize(&self) -> Option<Site> {
        match self {
            Site::Any => None,
            Site::Region(_) => Some(Site::Any),
            Site::Is(s) => Some(Site::Region(Self::region_of(*s))),
        }
    }

    /// The ancestor at depth `depth`; `None` if deeper than `self`.
    pub fn ancestor_at(&self, depth: u16) -> Option<Site> {
        if depth > self.depth() {
            return None;
        }
        let mut cur = *self;
        while cur.depth() > depth {
            cur = cur.generalize().expect("depth > 0 has a parent");
        }
        Some(cur)
    }

    /// Whether `other` is equal or more specific.
    pub fn contains(&self, other: &Site) -> bool {
        match (self, other) {
            (Site::Any, _) => true,
            (Site::Region(r), Site::Region(o)) => r == o,
            (Site::Region(r), Site::Is(s)) => *r == Self::region_of(*s),
            (Site::Is(a), Site::Is(b)) => a == b,
            _ => false,
        }
    }

    /// Whether the two features share a concrete site.
    #[inline]
    pub fn overlaps(&self, other: &Site) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Lattice join.
    pub fn join(&self, other: &Site) -> Site {
        if self == other {
            return *self;
        }
        if self.contains(other) {
            return *self;
        }
        if other.contains(self) {
            return *other;
        }
        match (self, other) {
            (Site::Is(a), Site::Is(b)) if Self::region_of(*a) == Self::region_of(*b) => {
                Site::Region(Self::region_of(*a))
            }
            _ => Site::Any,
        }
    }

    /// Lattice meet; `None` if disjoint.
    pub fn meet(&self, other: &Site) -> Option<Site> {
        if self.contains(other) {
            Some(*other)
        } else if other.contains(self) {
            Some(*self)
        } else {
            None
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Any => f.write_str("*"),
            Site::Region(r) => write!(f, "r{r}"),
            Site::Is(s) => write!(f, "{s}"),
        }
    }
}

impl FromStr for Site {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::BadSite(s.to_string());
        if s == "*" {
            return Ok(Site::Any);
        }
        if let Some(r) = s.strip_prefix('r') {
            return r.parse::<u8>().map(Site::Region).map_err(|_| bad());
        }
        s.parse::<u16>().map(Site::Is).map_err(|_| bad())
    }
}

impl From<u16> for Site {
    fn from(s: u16) -> Self {
        Site::Is(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_level_hierarchy() {
        let s = Site::Is(300);
        assert_eq!(s.depth(), 2);
        let r = s.generalize().unwrap();
        assert_eq!(r, Site::Region(1));
        assert_eq!(r.generalize(), Some(Site::Any));
        assert_eq!(Site::Any.generalize(), None);
    }

    #[test]
    fn containment() {
        assert!(Site::Any.contains(&Site::Is(7)));
        assert!(Site::Region(0).contains(&Site::Is(7)));
        assert!(!Site::Region(1).contains(&Site::Is(7)));
        assert!(!Site::Is(7).contains(&Site::Region(0)));
    }

    #[test]
    fn join_meet() {
        assert_eq!(Site::Is(1).join(&Site::Is(2)), Site::Region(0));
        assert_eq!(Site::Is(1).join(&Site::Is(300)), Site::Any);
        assert_eq!(Site::Region(0).meet(&Site::Is(3)), Some(Site::Is(3)));
        assert_eq!(Site::Is(1).meet(&Site::Is(2)), None);
    }

    #[test]
    fn ancestor_at_depth() {
        let s = Site::Is(515);
        assert_eq!(s.ancestor_at(0), Some(Site::Any));
        assert_eq!(s.ancestor_at(1), Some(Site::Region(2)));
        assert_eq!(s.ancestor_at(2), Some(s));
        assert_eq!(s.ancestor_at(3), None);
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["*", "r3", "42"] {
            let v: Site = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("r999".parse::<Site>().is_err());
        assert!("-1".parse::<Site>().is_err());
    }
}
