//! Time windows.
//!
//! The distributed system slices time into fixed windows; each site
//! keeps one Flowtree per open window and emits a summary when a window
//! closes. Windows are aligned to multiples of their span so every site
//! agrees on boundaries without coordination.

/// One time window `[start_ms, start_ms + span_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WindowId {
    /// Window start, epoch milliseconds (multiple of `span_ms`).
    pub start_ms: u64,
    /// Window length in milliseconds.
    pub span_ms: u64,
}

impl WindowId {
    /// The window containing `ts_ms` for the given span.
    pub fn containing(ts_ms: u64, span_ms: u64) -> WindowId {
        let span = span_ms.max(1);
        WindowId {
            start_ms: ts_ms / span * span,
            span_ms: span,
        }
    }

    /// Exclusive end of the window.
    pub fn end_ms(&self) -> u64 {
        self.start_ms + self.span_ms
    }

    /// Whether `ts_ms` falls inside.
    pub fn contains(&self, ts_ms: u64) -> bool {
        (self.start_ms..self.end_ms()).contains(&ts_ms)
    }

    /// The window immediately after this one.
    pub fn next(&self) -> WindowId {
        WindowId {
            start_ms: self.end_ms(),
            span_ms: self.span_ms,
        }
    }
}

impl core::fmt::Display for WindowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}..{})ms", self.start_ms, self.end_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containing_aligns_to_span() {
        let w = WindowId::containing(1_234_567, 300_000);
        assert_eq!(w.start_ms, 1_200_000);
        assert!(w.contains(1_234_567));
        assert!(!w.contains(w.end_ms()));
        assert!(w.contains(w.start_ms));
    }

    #[test]
    fn next_is_adjacent() {
        let w = WindowId::containing(0, 60_000);
        let n = w.next();
        assert_eq!(n.start_ms, 60_000);
        assert_eq!(n.span_ms, 60_000);
    }

    #[test]
    fn all_sites_agree_on_boundaries() {
        for ts in [0u64, 1, 299_999, 300_000, 300_001, 599_999] {
            let w = WindowId::containing(ts, 300_000);
            assert_eq!(w.start_ms % 300_000, 0);
        }
    }

    #[test]
    fn zero_span_is_clamped() {
        let w = WindowId::containing(500, 0);
        assert_eq!(w.span_ms, 1);
        assert_eq!(w.start_ms, 500);
    }
}
