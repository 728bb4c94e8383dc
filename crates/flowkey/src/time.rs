//! Dyadic time buckets — the *time* extension feature.
//!
//! The paper's future-work system extends flows with a time feature so
//! that summaries can be merged and drilled into across time. We use the
//! natural dyadic hierarchy over Unix seconds: a bucket at level `l`
//! covers `2^l` seconds starting at a multiple of `2^l`. Level
//! [`TimeBucket::MAX_LEVEL`] (= 36, ≈ 2 177 years) is the wildcard
//! covering all of time, which keeps depths bounded for the
//! generalization schedule.

use crate::ParseError;
use core::fmt;
use core::str::FromStr;

/// A dyadic bucket of Unix time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimeBucket {
    /// Start of the bucket in Unix seconds (multiple of `1 << level`).
    start: u64,
    /// Log2 of the bucket span in seconds; `MAX_LEVEL` = all time.
    level: u8,
}

impl TimeBucket {
    /// Level of the wildcard bucket (`2^36` s ≈ 2 177 years, covers any
    /// realistic capture timestamp).
    pub const MAX_LEVEL: u8 = 36;

    /// The wildcard bucket covering all of time.
    pub const ANY: TimeBucket = TimeBucket {
        start: 0,
        level: Self::MAX_LEVEL,
    };

    /// Bucket of `2^level` seconds containing `unix_sec`.
    ///
    /// Returns `None` if `level > MAX_LEVEL` or the timestamp does not
    /// fit below the wildcard span.
    pub fn new(unix_sec: u64, level: u8) -> Option<TimeBucket> {
        if level > Self::MAX_LEVEL || (level < Self::MAX_LEVEL && unix_sec >> Self::MAX_LEVEL != 0)
        {
            return None;
        }
        if level == Self::MAX_LEVEL {
            return Some(Self::ANY);
        }
        Some(TimeBucket {
            start: unix_sec >> level << level,
            level,
        })
    }

    /// One-second bucket containing `unix_sec`.
    pub fn second(unix_sec: u64) -> Option<TimeBucket> {
        Self::new(unix_sec, 0)
    }

    /// Start of the bucket in Unix seconds.
    #[inline]
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Span of the bucket in seconds.
    #[inline]
    pub fn span(&self) -> u64 {
        1u64 << self.level
    }

    /// Exclusive end of the bucket.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.span()
    }

    /// The dyadic level (log2 of the span).
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Whether this is the wildcard.
    #[inline]
    pub fn is_any(&self) -> bool {
        self.level == Self::MAX_LEVEL
    }

    /// Depth in the hierarchy (0 = wildcard, `MAX_LEVEL` = one second).
    #[inline]
    pub fn depth(&self) -> u16 {
        (Self::MAX_LEVEL - self.level) as u16
    }

    /// One generalization step (double the span); `None` at the wildcard.
    pub fn generalize(&self) -> Option<TimeBucket> {
        if self.is_any() {
            None
        } else {
            TimeBucket::new(self.start, self.level + 1)
        }
    }

    /// The ancestor at hierarchy depth `depth`; `None` if deeper than `self`.
    pub fn ancestor_at(&self, depth: u16) -> Option<TimeBucket> {
        if depth > self.depth() {
            return None;
        }
        TimeBucket::new(self.start, Self::MAX_LEVEL - depth as u8)
    }

    /// Whether `other` is equal or more specific.
    #[inline]
    pub fn contains(&self, other: &TimeBucket) -> bool {
        self.level >= other.level && (other.start >> self.level) << self.level == self.start
    }

    /// Whether the buckets share any instant (dyadic ⇒ nested or disjoint).
    #[inline]
    pub fn overlaps(&self, other: &TimeBucket) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The smallest bucket containing both (lattice join).
    pub fn join(&self, other: &TimeBucket) -> TimeBucket {
        let mut level = self.level.max(other.level);
        while level < Self::MAX_LEVEL && (self.start >> level) != (other.start >> level) {
            level += 1;
        }
        TimeBucket::new(self.start, level).unwrap_or(Self::ANY)
    }

    /// Lattice meet; `None` if disjoint.
    pub fn meet(&self, other: &TimeBucket) -> Option<TimeBucket> {
        if self.contains(other) {
            Some(*other)
        } else if other.contains(self) {
            Some(*self)
        } else {
            None
        }
    }
}

impl Default for TimeBucket {
    fn default() -> Self {
        TimeBucket::ANY
    }
}

impl fmt::Display for TimeBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            f.write_str("*")
        } else {
            write!(f, "{}+{}s", self.start, self.span())
        }
    }
}

impl FromStr for TimeBucket {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseError::BadTime(s.to_string());
        if s == "*" {
            return Ok(TimeBucket::ANY);
        }
        let (start, rest) = s.split_once('+').ok_or_else(bad)?;
        let span = rest.strip_suffix('s').ok_or_else(bad)?;
        let start: u64 = start.parse().map_err(|_| bad())?;
        let span: u64 = span.parse().map_err(|_| bad())?;
        if !span.is_power_of_two() {
            return Err(bad());
        }
        let level = span.trailing_zeros() as u8;
        let b = TimeBucket::new(start, level).ok_or_else(bad)?;
        if b.start() != start {
            return Err(bad()); // misaligned start
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_alignment() {
        let b = TimeBucket::new(1_000_003, 8).unwrap();
        assert_eq!(b.start() % 256, 0);
        assert!(b.start() <= 1_000_003 && 1_000_003 < b.end());
        assert_eq!(b.span(), 256);
    }

    #[test]
    fn generalize_doubles_span() {
        let b = TimeBucket::second(1_500_000_000).unwrap();
        let p = b.generalize().unwrap();
        assert_eq!(p.span(), 2);
        assert!(p.contains(&b));
        assert_eq!(p.depth() + 1, b.depth());
    }

    #[test]
    fn chain_reaches_wildcard() {
        let mut b = TimeBucket::second(1_234_567_890).unwrap();
        let mut steps = 0;
        while let Some(up) = b.generalize() {
            assert!(up.contains(&b));
            b = up;
            steps += 1;
        }
        assert_eq!(steps, TimeBucket::MAX_LEVEL as u32);
        assert!(b.is_any());
    }

    #[test]
    fn join_and_meet() {
        let a = TimeBucket::second(100).unwrap();
        let b = TimeBucket::second(101).unwrap();
        let j = a.join(&b);
        assert!(j.contains(&a) && j.contains(&b));
        assert_eq!(j.span(), 2);
        let far = TimeBucket::second(1 << 30).unwrap();
        assert!(a.join(&far).span() >= (1 << 30));
        assert_eq!(a.meet(&b), None);
        assert_eq!(j.meet(&a), Some(a));
    }

    #[test]
    fn ancestor_at_depth() {
        let b = TimeBucket::second(1_000_000).unwrap();
        assert_eq!(b.ancestor_at(0), Some(TimeBucket::ANY));
        assert_eq!(b.ancestor_at(b.depth()), Some(b));
        let mid = b.ancestor_at(b.depth() - 10).unwrap();
        assert_eq!(mid.span(), 1024);
        assert!(mid.contains(&b));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(TimeBucket::new(0, 37).is_none());
        assert!(TimeBucket::new(1 << 40, 0).is_none());
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["*", "1024+256s", "1500000000+1s"] {
            let b: TimeBucket = s.parse().unwrap();
            assert_eq!(b.to_string(), s);
        }
        assert!("100+3s".parse::<TimeBucket>().is_err()); // non-dyadic span
        assert!("3+2s".parse::<TimeBucket>().is_err()); // misaligned
        assert!("zz".parse::<TimeBucket>().is_err());
    }
}
