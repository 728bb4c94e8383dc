//! The IP protocol feature.
//!
//! Protocols have a two-level hierarchy: a concrete protocol number
//! generalizes directly to the wildcard.

use crate::ParseError;
use core::fmt;
use core::str::FromStr;

/// IANA protocol number for ICMP.
pub const ICMP: u8 = 1;
/// IANA protocol number for TCP.
pub const TCP: u8 = 6;
/// IANA protocol number for UDP.
pub const UDP: u8 = 17;
/// IANA protocol number for ICMPv6.
pub const ICMPV6: u8 = 58;
/// IANA protocol number for GRE.
pub const GRE: u8 = 47;
/// IANA protocol number for ESP.
pub const ESP: u8 = 50;

/// An IP protocol, concrete or wildcard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    /// Matches every protocol (the hierarchy root).
    #[default]
    Any,
    /// A concrete IANA protocol number.
    Is(u8),
}

impl Proto {
    /// TCP.
    pub const TCP: Proto = Proto::Is(TCP);
    /// UDP.
    pub const UDP: Proto = Proto::Is(UDP);
    /// ICMP.
    pub const ICMP: Proto = Proto::Is(ICMP);

    /// Depth in the hierarchy (0 = wildcard, 1 = concrete).
    #[inline]
    pub fn depth(&self) -> u16 {
        match self {
            Proto::Any => 0,
            Proto::Is(_) => 1,
        }
    }

    /// One generalization step; `None` at the wildcard.
    #[inline]
    pub fn generalize(&self) -> Option<Proto> {
        match self {
            Proto::Any => None,
            Proto::Is(_) => Some(Proto::Any),
        }
    }

    /// The ancestor at depth `depth`; `None` if deeper than `self`.
    #[inline]
    pub fn ancestor_at(&self, depth: u16) -> Option<Proto> {
        match depth {
            0 => Some(Proto::Any),
            1 if matches!(self, Proto::Is(_)) => Some(*self),
            _ => None,
        }
    }

    /// Whether `other` is equal or more specific.
    #[inline]
    pub fn contains(&self, other: &Proto) -> bool {
        match (self, other) {
            (Proto::Any, _) => true,
            (Proto::Is(a), Proto::Is(b)) => a == b,
            (Proto::Is(_), Proto::Any) => false,
        }
    }

    /// Whether the two features share a concrete protocol.
    #[inline]
    pub fn overlaps(&self, other: &Proto) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// Lattice join.
    #[inline]
    pub fn join(&self, other: &Proto) -> Proto {
        if self == other {
            *self
        } else {
            Proto::Any
        }
    }

    /// Lattice meet; `None` if disjoint.
    #[inline]
    pub fn meet(&self, other: &Proto) -> Option<Proto> {
        if self.contains(other) {
            Some(*other)
        } else if other.contains(self) {
            Some(*self)
        } else {
            None
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Any => f.write_str("*"),
            Proto::Is(TCP) => f.write_str("tcp"),
            Proto::Is(UDP) => f.write_str("udp"),
            Proto::Is(ICMP) => f.write_str("icmp"),
            Proto::Is(ICMPV6) => f.write_str("icmpv6"),
            Proto::Is(GRE) => f.write_str("gre"),
            Proto::Is(ESP) => f.write_str("esp"),
            Proto::Is(n) => write!(f, "{n}"),
        }
    }
}

impl FromStr for Proto {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "*" => Ok(Proto::Any),
            "tcp" => Ok(Proto::Is(TCP)),
            "udp" => Ok(Proto::Is(UDP)),
            "icmp" => Ok(Proto::Is(ICMP)),
            "icmpv6" => Ok(Proto::Is(ICMPV6)),
            "gre" => Ok(Proto::Is(GRE)),
            "esp" => Ok(Proto::Is(ESP)),
            _ => s
                .parse::<u8>()
                .map(Proto::Is)
                .map_err(|_| ParseError::BadProto(s.to_string())),
        }
    }
}

impl From<u8> for Proto {
    fn from(n: u8) -> Self {
        Proto::Is(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_two_levels() {
        assert_eq!(Proto::TCP.depth(), 1);
        assert_eq!(Proto::TCP.generalize(), Some(Proto::Any));
        assert_eq!(Proto::Any.generalize(), None);
        assert_eq!(Proto::Any.depth(), 0);
    }

    #[test]
    fn containment() {
        assert!(Proto::Any.contains(&Proto::TCP));
        assert!(Proto::TCP.contains(&Proto::TCP));
        assert!(!Proto::TCP.contains(&Proto::UDP));
        assert!(!Proto::TCP.contains(&Proto::Any));
    }

    #[test]
    fn join_meet() {
        assert_eq!(Proto::TCP.join(&Proto::UDP), Proto::Any);
        assert_eq!(Proto::TCP.join(&Proto::TCP), Proto::TCP);
        assert_eq!(Proto::TCP.meet(&Proto::UDP), None);
        assert_eq!(Proto::Any.meet(&Proto::UDP), Some(Proto::UDP));
    }

    #[test]
    fn parse_display() {
        for (s, p) in [
            ("*", Proto::Any),
            ("tcp", Proto::TCP),
            ("udp", Proto::UDP),
            ("icmp", Proto::ICMP),
            ("99", Proto::Is(99)),
        ] {
            assert_eq!(s.parse::<Proto>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert_eq!("6".parse::<Proto>().unwrap(), Proto::TCP);
        assert!("256".parse::<Proto>().is_err());
        assert!("".parse::<Proto>().is_err());
    }
}
