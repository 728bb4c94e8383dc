//! Popularity counters.
//!
//! The paper annotates every node with its popularity — "packet count,
//! flow count, and/or byte count". [`Popularity`] carries all three.
//! Counters are *signed* so that `diff` summaries (which legitimately
//! contain negative masses) are first-class values of the same type.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Which counter a policy (eviction, top-k, HHH) ranks by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Rank by packet count (the paper's figures use packets).
    #[default]
    Packets,
    /// Rank by byte count.
    Bytes,
    /// Rank by flow count.
    Flows,
}

/// Packet, byte, and flow counts of a (generalized) flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Popularity {
    /// Number of packets.
    pub packets: i64,
    /// Number of bytes.
    pub bytes: i64,
    /// Number of flows (flow records).
    pub flows: i64,
}

impl Popularity {
    /// The zero popularity.
    pub const ZERO: Popularity = Popularity {
        packets: 0,
        bytes: 0,
        flows: 0,
    };

    /// Popularity contributed by one packet of `bytes` bytes.
    #[inline]
    pub fn packet(bytes: u32) -> Popularity {
        Popularity {
            packets: 1,
            bytes: bytes as i64,
            flows: 0,
        }
    }

    /// Popularity contributed by one flow record.
    #[inline]
    pub fn flow(packets: u64, bytes: u64) -> Popularity {
        Popularity {
            packets: packets as i64,
            bytes: bytes as i64,
            flows: 1,
        }
    }

    /// Explicit constructor.
    #[inline]
    pub fn new(packets: i64, bytes: i64, flows: i64) -> Popularity {
        Popularity {
            packets,
            bytes,
            flows,
        }
    }

    /// The value of one counter.
    #[inline]
    pub fn get(&self, metric: Metric) -> i64 {
        match metric {
            Metric::Packets => self.packets,
            Metric::Bytes => self.bytes,
            Metric::Flows => self.flows,
        }
    }

    /// Whether all three counters are zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        *self == Popularity::ZERO
    }

    /// Magnitude used for eviction ranking: the absolute value of the
    /// chosen metric (diff trees rank by how *significant* a change is,
    /// regardless of sign).
    #[inline]
    pub fn weight(&self, metric: Metric) -> u64 {
        self.get(metric).unsigned_abs()
    }
}

impl Add for Popularity {
    type Output = Popularity;
    #[inline]
    fn add(self, rhs: Popularity) -> Popularity {
        Popularity {
            packets: self.packets + rhs.packets,
            bytes: self.bytes + rhs.bytes,
            flows: self.flows + rhs.flows,
        }
    }
}

impl AddAssign for Popularity {
    #[inline]
    fn add_assign(&mut self, rhs: Popularity) {
        *self = *self + rhs;
    }
}

impl Sub for Popularity {
    type Output = Popularity;
    #[inline]
    fn sub(self, rhs: Popularity) -> Popularity {
        Popularity {
            packets: self.packets - rhs.packets,
            bytes: self.bytes - rhs.bytes,
            flows: self.flows - rhs.flows,
        }
    }
}

impl SubAssign for Popularity {
    #[inline]
    fn sub_assign(&mut self, rhs: Popularity) {
        *self = *self - rhs;
    }
}

impl Neg for Popularity {
    type Output = Popularity;
    #[inline]
    fn neg(self) -> Popularity {
        Popularity {
            packets: -self.packets,
            bytes: -self.bytes,
            flows: -self.flows,
        }
    }
}

impl Sum for Popularity {
    fn sum<I: Iterator<Item = Popularity>>(iter: I) -> Popularity {
        iter.fold(Popularity::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Popularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}p/{}B/{}f", self.packets, self.bytes, self.flows)
    }
}

/// A fractional popularity estimate, produced when a query has to split
/// residual mass across an uncovered portion of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PopEst {
    /// Estimated packets.
    pub packets: f64,
    /// Estimated bytes.
    pub bytes: f64,
    /// Estimated flows.
    pub flows: f64,
}

impl PopEst {
    /// The zero estimate.
    pub const ZERO: PopEst = PopEst {
        packets: 0.0,
        bytes: 0.0,
        flows: 0.0,
    };

    /// The value of one counter.
    #[inline]
    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Packets => self.packets,
            Metric::Bytes => self.bytes,
            Metric::Flows => self.flows,
        }
    }

    /// Scales all counters by `f`.
    #[inline]
    pub fn scaled(&self, f: f64) -> PopEst {
        PopEst {
            packets: self.packets * f,
            bytes: self.bytes * f,
            flows: self.flows * f,
        }
    }

    /// Rounds to the nearest integer popularity.
    pub fn rounded(&self) -> Popularity {
        Popularity {
            packets: self.packets.round() as i64,
            bytes: self.bytes.round() as i64,
            flows: self.flows.round() as i64,
        }
    }
}

impl From<Popularity> for PopEst {
    fn from(p: Popularity) -> PopEst {
        PopEst {
            packets: p.packets as f64,
            bytes: p.bytes as f64,
            flows: p.flows as f64,
        }
    }
}

impl Add for PopEst {
    type Output = PopEst;
    #[inline]
    fn add(self, rhs: PopEst) -> PopEst {
        PopEst {
            packets: self.packets + rhs.packets,
            bytes: self.bytes + rhs.bytes,
            flows: self.flows + rhs.flows,
        }
    }
}

impl AddAssign for PopEst {
    #[inline]
    fn add_assign(&mut self, rhs: PopEst) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Popularity::packet(1500), Popularity::new(1, 1500, 0));
        assert_eq!(Popularity::flow(10, 9000), Popularity::new(10, 9000, 1));
        assert!(Popularity::ZERO.is_zero());
    }

    #[test]
    fn arithmetic() {
        let a = Popularity::new(3, 100, 1);
        let b = Popularity::new(1, 50, 1);
        assert_eq!(a + b, Popularity::new(4, 150, 2));
        assert_eq!(a - b, Popularity::new(2, 50, 0));
        assert_eq!(-(a - b), Popularity::new(-2, -50, 0));
        assert_eq!((a - a), Popularity::ZERO);
        let sum: Popularity = [a, b, b].into_iter().sum();
        assert_eq!(sum, Popularity::new(5, 200, 3));
    }

    #[test]
    fn weight_uses_absolute_value() {
        let d = Popularity::new(-7, -100, 0);
        assert_eq!(d.weight(Metric::Packets), 7);
        assert_eq!(d.weight(Metric::Bytes), 100);
        assert_eq!(d.weight(Metric::Flows), 0);
    }

    #[test]
    fn est_scaling_and_rounding() {
        let e = PopEst::from(Popularity::new(10, 100, 2)).scaled(0.25);
        assert_eq!(e.packets, 2.5);
        assert_eq!(e.rounded(), Popularity::new(3, 25, 1)); // 0.5 rounds away from zero
        assert_eq!(e.get(Metric::Bytes), 25.0);
    }
}
