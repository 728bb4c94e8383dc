//! Site summaries and their wire encoding.
//!
//! A [`Summary`] is what crosses the network in Fig. 1: one site's
//! Flowtree for one closed window, either in full or as a **delta**
//! against the site's previous window (the paper: "allowing transfer of
//! only summaries or even difference of consecutive summaries").
//!
//! Summary frames flow downstream→upstream; every hop ships them
//! through the acknowledged [`crate::export`], whose reverse channel
//! carries **control frames** (hello, acks and rebase-requests, magic
//! `"FCTL"`, see [`crate::control`]). The magics are disjoint, so each
//! side classifies a frame from its first four bytes. A shipper tracks
//! the frames it holds by their header alone ([`SummaryHeader::parse`]),
//! never decoding a tree it only forwards.
//!
//! Frame layout (after the 4-byte magic):
//!
//! ```text
//! magic    4  "FSUM"
//! version  1  = 1 (site summary) | 2 (aggregate with provenance)
//!             | 3 (incremental aggregate with epoch handshake)
//! kind     1  0 = full, 1 = delta          (v2: full only)
//! site     2  big-endian site id           (v2/v3: the exporter's agg id)
//! start    varint  window start (ms)
//! span     varint  window span (ms)
//! seq      varint  per-site sequence number
//! epoch    v3 only: varint ≥ 1 — the content epoch this frame
//!          advances its window to
//! base     v3 delta only: varint < epoch — the content epoch of the
//!          re-aggregation base the delta applies on top of
//! prov     v2/v3: varint count, then count × big-endian u16 site ids,
//!          strictly ascending — the **site-set provenance** of a
//!          pre-aggregated super-site summary. For a v2 frame this is
//!          whatever the exporter claims (historically a lifetime
//!          union); for a v3 frame it is the **per-window** site set:
//!          exactly the real sites folded into *this* window at *this*
//!          epoch.
//! tree     flowtree-core codec frame
//! ```
//!
//! Version 1 frames predate the hierarchy tier and keep decoding
//! unchanged; version 2 is what a [`flowrelay`-style aggregation relay
//! re-exported upstream before the delta-oriented export path, and
//! still decodes bit-for-bit. Version-2 aggregates are always `Full`.
//!
//! ## Version 3: the epoch/base handshake
//!
//! A relay's window keeps changing after its first export — late
//! downstream frames, deeper-tier increments, site restarts. Version 3
//! makes re-export incremental: every frame carries the **content
//! epoch** it advances its `(window, exporter)` slot to, and a `Delta`
//! frame carries the epoch of the pinned re-aggregation **base** it
//! was diffed against (the [`FlowTree::diff_many`] output: the merged
//! aggregate now, minus the merged aggregate as of the base epoch). A
//! receiver applies a delta by structural merge onto its stored tree
//! — but only when its stored epoch equals the declared base; any
//! other pairing is an out-of-order or orphaned delta and is rejected
//! by the epoch ledger ([`crate::Collector`]). A v3 `Full` frame
//! (re)establishes the base wholesale and must strictly advance the
//! stored epoch. Exporters fall back to `Full` on base loss and on
//! non-monotone or size-regressed deltas (see `flowrelay::relay`).

use crate::window::WindowId;
use crate::DistError;
use flowkey::pack::{read_varint, write_varint};
use flowtree_core::{Config, FlowTree};

/// Frame magic for summaries.
pub const SUMMARY_MAGIC: [u8; 4] = *b"FSUM";
/// Frame version of plain per-site summaries.
pub const SUMMARY_VERSION: u8 = 1;
/// Frame version of pre-aggregated summaries carrying a site-set
/// provenance header.
pub const SUMMARY_VERSION_AGG: u8 = 2;
/// Frame version of incremental aggregates: per-window provenance plus
/// the content-epoch handshake that lets a window re-export as a
/// structural delta against a pinned base (see the module docs).
pub const SUMMARY_VERSION_DELTA_AGG: u8 = 3;
/// Upper bound on the provenance list of one aggregate frame (a relay
/// covering more sites than this should itself be tiered).
pub const MAX_PROVENANCE: usize = 4_096;

/// Whether a summary carries the whole window or a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryKind {
    /// The complete window tree.
    Full,
    /// A difference tree: against the site's previous window
    /// (version 1) or against this window's pinned re-aggregation
    /// base (version 3, see [`EpochHeader`]).
    Delta,
}

/// The content-epoch handshake of a version-3 incremental aggregate
/// frame (`None` on v1/v2 frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochHeader {
    /// The content epoch (≥ 1) this frame advances its `(window,
    /// exporter)` slot to.
    pub epoch: u64,
    /// For a `Delta` frame: the content epoch of the re-aggregation
    /// base the delta was diffed against (strictly below `epoch`).
    /// `None` on a `Full` frame, which (re)establishes the base.
    pub base: Option<u64>,
}

/// One site's summary of one window.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Producing site.
    pub site: u16,
    /// The summarized window.
    pub window: WindowId,
    /// Per-site sequence number (collector uses it to detect gaps).
    pub seq: u64,
    /// Full or delta.
    pub kind: SummaryKind,
    /// The site-set provenance of a pre-aggregated summary: the real
    /// sites whose trees were folded into `tree`, sorted strictly
    /// ascending. `None` for plain per-site summaries (encoded as
    /// version-1 frames; `Some` encodes version 2 — or 3 when an
    /// [`EpochHeader`] is present). On a version-3 frame this is the
    /// **per-window** site set: exactly the sites folded into this
    /// window at this epoch, never a lifetime union.
    pub provenance: Option<Vec<u16>>,
    /// The content-epoch handshake of a version-3 incremental
    /// aggregate; requires `provenance` to be present.
    pub epoch: Option<EpochHeader>,
    /// The tree (for deltas: comp-popularity differences, possibly
    /// negative).
    pub tree: FlowTree,
}

impl Summary {
    /// The real sites this summary covers: its provenance for an
    /// aggregate, its producing site otherwise.
    pub fn covered_sites(&self) -> Vec<u16> {
        match &self.provenance {
            Some(p) => p.clone(),
            None => vec![self.site],
        }
    }

    /// The exact byte length [`Summary::encode`] would produce,
    /// computed arithmetically (no throwaway buffer) — header fields,
    /// varint widths, the optional provenance list, and the tree's own
    /// arithmetic [`FlowTree::encoded_size`].
    pub fn encoded_size(&self) -> usize {
        fn varint_len(mut v: u64) -> usize {
            let mut n = 1;
            while v >= 0x80 {
                v >>= 7;
                n += 1;
            }
            n
        }
        let mut len = 4 + 1 + 1 + 2; // magic, version, kind, site
        len += varint_len(self.window.start_ms);
        len += varint_len(self.window.span_ms);
        len += varint_len(self.seq);
        if let Some(eh) = &self.epoch {
            len += varint_len(eh.epoch);
            if let Some(base) = eh.base {
                len += varint_len(base);
            }
        }
        if let Some(prov) = &self.provenance {
            len += varint_len(prov.len() as u64) + 2 * prov.len();
        }
        len + self.tree.encoded_size()
    }

    /// Encodes the summary frame: version 1, version 2 when a
    /// provenance site set is present, version 3 when an epoch header
    /// is present too.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&SUMMARY_MAGIC);
        out.push(match (&self.provenance, &self.epoch) {
            (Some(_), Some(_)) => SUMMARY_VERSION_DELTA_AGG,
            (Some(_), None) => SUMMARY_VERSION_AGG,
            (None, None) => SUMMARY_VERSION,
            (None, Some(_)) => unreachable!("epoch header requires per-window provenance"),
        });
        out.push(match self.kind {
            SummaryKind::Full => 0,
            SummaryKind::Delta => 1,
        });
        out.extend_from_slice(&self.site.to_be_bytes());
        write_varint(&mut out, self.window.start_ms);
        write_varint(&mut out, self.window.span_ms);
        write_varint(&mut out, self.seq);
        if let Some(eh) = &self.epoch {
            debug_assert!(eh.epoch >= 1, "content epochs start at 1");
            debug_assert_eq!(
                eh.base.is_some(),
                self.kind == SummaryKind::Delta,
                "deltas declare a base, fulls establish one"
            );
            debug_assert!(eh.base.is_none_or(|b| b < eh.epoch));
            write_varint(&mut out, eh.epoch);
            if let Some(base) = eh.base {
                write_varint(&mut out, base);
            }
        }
        if let Some(prov) = &self.provenance {
            debug_assert!(
                prov.windows(2).all(|w| w[0] < w[1]) && !prov.is_empty(),
                "provenance must be nonempty and strictly ascending"
            );
            write_varint(&mut out, prov.len() as u64);
            for site in prov {
                out.extend_from_slice(&site.to_be_bytes());
            }
        }
        out.extend_from_slice(&self.tree.encode());
        out
    }

    /// Decodes and validates a summary frame: the header
    /// ([`SummaryHeader::parse`]), then the tree, which the flowtree
    /// codec fully re-validates (untrusted network input), then no
    /// trailing bytes.
    pub fn decode(bytes: &[u8], tree_cfg: Config) -> Result<Summary, DistError> {
        let h = SummaryHeader::parse(bytes)?;
        let (tree, used) = FlowTree::decode_prefix(&bytes[h.tree_offset..], tree_cfg)?;
        if h.tree_offset + used != bytes.len() {
            return Err(DistError::BadFrame("trailing bytes"));
        }
        Ok(Summary {
            site: h.site,
            window: h.window,
            seq: h.seq,
            kind: h.kind,
            provenance: h.provenance,
            epoch: h.epoch,
            tree,
        })
    }
}

/// Everything in a summary frame before its tree, validated exactly
/// as [`Summary::decode`] validates it — what a shipper reads to track
/// a frame it holds as bytes, without decoding the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryHeader {
    /// Producing site (an aggregate's exporter id).
    pub site: u16,
    /// The summarized window.
    pub window: WindowId,
    /// Per-site sequence number.
    pub seq: u64,
    /// Full or delta.
    pub kind: SummaryKind,
    /// The site-set provenance (version 2/3 frames).
    pub provenance: Option<Vec<u16>>,
    /// The content-epoch handshake (version 3 frames).
    pub epoch: Option<EpochHeader>,
    /// Byte offset of the tree's codec frame.
    pub tree_offset: usize,
}

impl SummaryHeader {
    /// Parses and validates a frame's header. All three frame versions
    /// parse; the provenance header of a version-2/3 frame must be
    /// nonempty, strictly ascending, bounded by [`MAX_PROVENANCE`];
    /// version-2 aggregates must be `Full`; version-3 frames must carry
    /// an epoch ≥ 1, a `Delta` declaring a strictly older base.
    pub fn parse(bytes: &[u8]) -> Result<SummaryHeader, DistError> {
        if bytes.len() < 8 {
            return Err(DistError::BadFrame("short summary frame"));
        }
        if bytes[..4] != SUMMARY_MAGIC {
            return Err(DistError::BadFrame("summary magic"));
        }
        let version = bytes[4];
        if version != SUMMARY_VERSION
            && version != SUMMARY_VERSION_AGG
            && version != SUMMARY_VERSION_DELTA_AGG
        {
            return Err(DistError::BadFrame("summary version"));
        }
        let kind = match bytes[5] {
            0 => SummaryKind::Full,
            1 => SummaryKind::Delta,
            _ => return Err(DistError::BadFrame("summary kind")),
        };
        let site = u16::from_be_bytes([bytes[6], bytes[7]]);
        let mut pos = 8usize;
        let mut next = || -> Result<u64, DistError> {
            let (v, n) =
                read_varint(&bytes[pos..]).map_err(|_| DistError::BadFrame("summary varint"))?;
            pos += n;
            Ok(v)
        };
        let start_ms = next()?;
        let span_ms = next()?;
        let seq = next()?;
        if span_ms == 0 {
            return Err(DistError::BadFrame("zero window span"));
        }
        if start_ms % span_ms != 0 {
            return Err(DistError::BadFrame("unaligned window"));
        }
        let epoch = if version == SUMMARY_VERSION_DELTA_AGG {
            let epoch = next()?;
            if epoch == 0 {
                return Err(DistError::BadFrame("zero content epoch"));
            }
            let base = if kind == SummaryKind::Delta {
                let base = next()?;
                if base == 0 {
                    // Epoch 0 marks pre-epoch (v1/v2) slots in the
                    // receiver's ledger; a delta claiming it as base
                    // would merge onto a tree the exporter never
                    // pinned.
                    return Err(DistError::BadFrame("zero delta base epoch"));
                }
                if base >= epoch {
                    return Err(DistError::BadFrame("delta base not older than its epoch"));
                }
                Some(base)
            } else {
                None
            };
            Some(EpochHeader { epoch, base })
        } else {
            None
        };
        let provenance = if version != SUMMARY_VERSION {
            if version == SUMMARY_VERSION_AGG && kind != SummaryKind::Full {
                return Err(DistError::BadFrame("aggregate summaries must be full"));
            }
            let count = next()?;
            if count == 0 || count as usize > MAX_PROVENANCE {
                return Err(DistError::BadFrame("provenance count"));
            }
            let mut prov = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let end = pos
                    .checked_add(2)
                    .filter(|&e| e <= bytes.len())
                    .ok_or(DistError::BadFrame("truncated provenance"))?;
                let s = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
                pos = end;
                if prov.last().is_some_and(|&last| last >= s) {
                    return Err(DistError::BadFrame("provenance not strictly ascending"));
                }
                prov.push(s);
            }
            Some(prov)
        } else {
            None
        };
        Ok(SummaryHeader {
            site,
            window: WindowId { start_ms, span_ms },
            seq,
            kind,
            provenance,
            epoch,
            tree_offset: pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkey::Schema;
    use flowtree_core::Popularity;

    fn sample() -> Summary {
        let mut tree = FlowTree::new(Schema::two_feature(), Config::with_budget(128));
        for i in 0..20u32 {
            tree.insert(
                &format!("src=10.0.0.{i}/32 dst=192.0.2.1/32")
                    .parse()
                    .unwrap(),
                Popularity::new(i as i64 + 1, 100, 1),
            );
        }
        Summary {
            site: 3,
            window: WindowId::containing(1_700_000_123_456, 300_000),
            seq: 17,
            kind: SummaryKind::Full,
            provenance: None,
            epoch: None,
            tree,
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let bytes = s.encode();
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!(back.site, 3);
        assert_eq!(back.window, s.window);
        assert_eq!(back.seq, 17);
        assert_eq!(back.kind, SummaryKind::Full);
        assert_eq!(back.tree.total(), s.tree.total());
        assert_eq!(back.tree.len(), s.tree.len());
        let h = SummaryHeader::parse(&bytes).unwrap();
        assert_eq!(
            (h.site, h.window, h.seq, h.kind),
            (3, s.window, 17, back.kind)
        );
        assert_eq!(bytes[h.tree_offset..], back.tree.encode()[..]);
    }

    #[test]
    fn rejects_malformed_frames() {
        let s = sample();
        let bytes = s.encode();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Summary::decode(&bad, Config::paper()).is_err());
        // Version.
        let mut bad = bytes.clone();
        bad[4] = 7;
        assert!(Summary::decode(&bad, Config::paper()).is_err());
        // Kind.
        let mut bad = bytes.clone();
        bad[5] = 9;
        assert!(Summary::decode(&bad, Config::paper()).is_err());
        // Truncations.
        for cut in [0, 4, 8, 12, bytes.len() - 1] {
            assert!(Summary::decode(&bytes[..cut], Config::paper()).is_err());
        }
        // Trailing garbage.
        let mut bad = bytes;
        bad.push(0);
        assert!(Summary::decode(&bad, Config::paper()).is_err());
    }

    #[test]
    fn rejects_unaligned_window() {
        let mut s = sample();
        s.window.start_ms += 7;
        let bytes = s.encode();
        assert!(matches!(
            Summary::decode(&bytes, Config::paper()),
            Err(DistError::BadFrame("unaligned window"))
        ));
    }

    #[test]
    fn delta_kind_roundtrips() {
        let mut s = sample();
        s.kind = SummaryKind::Delta;
        let back = Summary::decode(&s.encode(), Config::with_budget(128)).unwrap();
        assert_eq!(back.kind, SummaryKind::Delta);
    }

    #[test]
    fn encoded_size_predicts_encode_exactly() {
        let mut s = sample();
        assert_eq!(s.encoded_size(), s.encode().len());
        s.provenance = Some(vec![1, 4, 9, 4_000]);
        assert_eq!(s.encoded_size(), s.encode().len());
        s.kind = SummaryKind::Full;
        s.window = WindowId::containing(u64::MAX / 2, 300_000);
        s.seq = u64::MAX;
        assert_eq!(s.encoded_size(), s.encode().len());
        // v3: full (epoch only) and delta (epoch + base).
        s.epoch = Some(EpochHeader {
            epoch: 300,
            base: None,
        });
        assert_eq!(s.encoded_size(), s.encode().len());
        s.kind = SummaryKind::Delta;
        s.epoch = Some(EpochHeader {
            epoch: 300,
            base: Some(299),
        });
        assert_eq!(s.encoded_size(), s.encode().len());
    }

    #[test]
    fn aggregate_provenance_roundtrips_as_v2() {
        let mut s = sample();
        s.provenance = Some(vec![1, 4, 9]);
        let bytes = s.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION_AGG);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!(back.provenance.as_deref(), Some(&[1u16, 4, 9][..]));
        assert_eq!(back.covered_sites(), vec![1, 4, 9]);
        assert_eq!(back.tree.total(), s.tree.total());
        // Plain summaries still report themselves.
        assert_eq!(sample().covered_sites(), vec![3]);
    }

    #[test]
    fn v1_frames_still_decode_bit_for_bit() {
        // A version-1 frame must be untouched by the v2 extension: the
        // pre-hierarchy encoding decodes with `provenance: None`.
        let s = sample();
        let bytes = s.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert!(back.provenance.is_none());
    }

    #[test]
    fn hostile_provenance_frames_are_rejected() {
        let mut s = sample();
        s.provenance = Some(vec![2, 5, 7]);
        let good = s.encode();
        // Truncations anywhere in the provenance header.
        for cut in 9..good.len().min(20) {
            assert!(Summary::decode(&good[..cut], Config::paper()).is_err());
        }
        // Unsorted / duplicated site sets (tamper with the list bytes:
        // count sits after site(2)+3 varints; find it by re-encoding).
        let mut unsorted = s.clone();
        unsorted.provenance = Some(vec![5, 2, 7]);
        // Bypass encode's debug_assert by patching the sorted frame.
        let mut bytes = good.clone();
        let prov_at = bytes.len() - s.tree.encode().len() - 6;
        bytes[prov_at..prov_at + 2].copy_from_slice(&5u16.to_be_bytes());
        bytes[prov_at + 2..prov_at + 4].copy_from_slice(&2u16.to_be_bytes());
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("provenance not strictly ascending"))
        ));
        // A zero-count provenance list.
        let mut zero = good.clone();
        zero[prov_at - 1] = 0;
        assert!(Summary::decode(&zero, Config::with_budget(128)).is_err());
        // Aggregates must be Full.
        let mut delta = good;
        delta[5] = 1;
        assert!(matches!(
            Summary::decode(&delta, Config::with_budget(128)),
            Err(DistError::BadFrame("aggregate summaries must be full"))
        ));
    }

    fn v3_sample(kind: SummaryKind, epoch: u64, base: Option<u64>) -> Summary {
        let mut s = sample();
        s.kind = kind;
        s.provenance = Some(vec![1, 4, 9]);
        s.epoch = Some(EpochHeader { epoch, base });
        s
    }

    #[test]
    fn v3_full_and_delta_frames_roundtrip() {
        let full = v3_sample(SummaryKind::Full, 7, None);
        let bytes = full.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION_DELTA_AGG);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!(back.kind, SummaryKind::Full);
        assert_eq!(
            back.epoch,
            Some(EpochHeader {
                epoch: 7,
                base: None
            })
        );
        assert_eq!(back.provenance.as_deref(), Some(&[1u16, 4, 9][..]));
        assert_eq!(back.tree.total(), full.tree.total());

        let delta = v3_sample(SummaryKind::Delta, 9, Some(7));
        let bytes = delta.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION_DELTA_AGG);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!(back.kind, SummaryKind::Delta);
        assert_eq!(
            back.epoch,
            Some(EpochHeader {
                epoch: 9,
                base: Some(7)
            })
        );
    }

    #[test]
    fn hostile_v3_frames_are_rejected() {
        // Truncation at every prefix of both shapes must fail cleanly.
        for s in [
            v3_sample(SummaryKind::Full, 7, None),
            v3_sample(SummaryKind::Delta, 9, Some(7)),
        ] {
            let good = s.encode();
            assert!(Summary::decode(&good, Config::with_budget(128)).is_ok());
            for cut in 0..good.len() {
                assert!(
                    Summary::decode(&good[..cut], Config::with_budget(128)).is_err(),
                    "cut at {cut}"
                );
            }
        }
        // A zero content epoch.
        let mut s = v3_sample(SummaryKind::Full, 1, None);
        s.epoch = Some(EpochHeader {
            epoch: 1,
            base: None,
        });
        let mut bytes = s.encode();
        // epoch varint sits right after site(2) + 3 varints; window
        // start/span/seq of sample() are multi-byte, so locate it by
        // re-encoding with a recognizable epoch instead: epoch 1 is a
        // single 0x01 byte immediately before the provenance count.
        let prov_at = bytes.len() - s.tree.encode().len() - (1 + 3 * 2);
        assert_eq!(bytes[prov_at - 1], 1, "epoch byte located");
        bytes[prov_at - 1] = 0;
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("zero content epoch"))
        ));
        // A delta whose base is not older than its epoch.
        let s = v3_sample(SummaryKind::Delta, 3, Some(2));
        let mut bytes = s.encode();
        let base_at = bytes.len() - s.tree.encode().len() - (1 + 3 * 2) - 1;
        assert_eq!(bytes[base_at], 2, "base byte located");
        bytes[base_at] = 3;
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("delta base not older than its epoch"))
        ));
        bytes[base_at] = 9;
        assert!(Summary::decode(&bytes, Config::with_budget(128)).is_err());
        // A delta claiming base 0: epoch 0 is the pre-epoch ledger
        // marker, never a pinned base — it must not decode into a
        // frame that would merge onto a v1/v2-stored tree.
        bytes[base_at] = 0;
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("zero delta base epoch"))
        ));
    }
}
