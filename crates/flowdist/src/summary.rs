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
//! version  1  = 1 (delta-mode site stream) | 3 (epoch handshake)
//! kind     1  0 = full, 1 = delta
//! site     2  big-endian site id           (v3: the exporter's id)
//! start    varint  window start (ms)
//! span     varint  window span (ms)
//! seq      varint  per-exporter sequence number
//! epoch    v3 only: varint ≥ 1 — the content epoch this frame
//!          advances its window to
//! base     v3 delta only: varint < epoch — the content epoch of the
//!          re-aggregation base the delta applies on top of
//! prov     v3 only: varint count, then count × big-endian u16 site
//!          ids, strictly ascending — the **per-window** site set:
//!          exactly the real sites folded into *this* window at *this*
//!          epoch (`[site]` on a site's own frame)
//! tree     flowtree-core codec frame
//! ```
//!
//! Every frame that crosses a shipper is a version-3 frame: a site
//! ships each window once, whole, at epoch 1 with provenance `[site]`
//! ([`Summary::site_full`]), and a relay re-exports at advancing
//! epochs. Version 1 carries no epoch and survives only as the
//! [`crate::TransferMode::Delta`] stream a [`crate::SiteDaemon`] feeds
//! straight into a bare [`crate::Collector`]. Version 2 (provenance
//! without an epoch) is gone and fails to parse.
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
/// Frame version of the epoch-less delta-mode site stream.
pub const SUMMARY_VERSION: u8 = 1;
/// Frame version of every shipped frame: per-window provenance plus
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

/// The content-epoch handshake of a version-3 frame.
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

/// What a version-3 frame adds to a version-1 one: whose sites it
/// folds and which content epoch it advances its slot to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    /// The **per-window** site set: exactly the real sites folded into
    /// this window at this epoch, sorted strictly ascending, never a
    /// lifetime union.
    pub provenance: Vec<u16>,
    /// The content-epoch handshake.
    pub epoch: EpochHeader,
}

/// One site's summary of one window.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Producing site (an aggregate's exporter id).
    pub site: u16,
    /// The summarized window.
    pub window: WindowId,
    /// Per-exporter sequence number (collector uses it to detect gaps).
    pub seq: u64,
    /// Full or delta.
    pub kind: SummaryKind,
    /// Provenance and epoch: `Some` encodes a version-3 frame, `None`
    /// a version-1 frame of the delta-mode site stream.
    pub lineage: Option<Lineage>,
    /// The tree (for deltas: comp-popularity differences, possibly
    /// negative).
    pub tree: FlowTree,
}

impl Summary {
    /// One site's window, whole, as every site ships it: a version-3
    /// `Full` frame at epoch 1 whose provenance is the site itself.
    /// A site ships each window once, so its first epoch is its only
    /// one; a restarted site's re-send of a window is a replay.
    pub fn site_full(site: u16, window: WindowId, seq: u64, tree: FlowTree) -> Summary {
        Summary {
            site,
            window,
            seq,
            kind: SummaryKind::Full,
            lineage: Some(Lineage {
                provenance: vec![site],
                epoch: EpochHeader {
                    epoch: 1,
                    base: None,
                },
            }),
            tree,
        }
    }

    /// The content-epoch handshake (version-3 frames).
    pub fn epoch(&self) -> Option<EpochHeader> {
        self.lineage.as_ref().map(|l| l.epoch)
    }

    /// The per-window provenance (version-3 frames).
    pub fn provenance(&self) -> Option<&[u16]> {
        self.lineage.as_ref().map(|l| &l.provenance[..])
    }

    /// The exact byte length [`Summary::encode`] would produce,
    /// computed arithmetically (no throwaway buffer) — header fields,
    /// varint widths, the optional lineage, and the tree's own
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
        if let Some(l) = &self.lineage {
            len += varint_len(l.epoch.epoch);
            if let Some(base) = l.epoch.base {
                len += varint_len(base);
            }
            len += varint_len(l.provenance.len() as u64) + 2 * l.provenance.len();
        }
        len + self.tree.encoded_size()
    }

    /// Encodes the summary frame: version 3 when a lineage is present,
    /// version 1 otherwise.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&SUMMARY_MAGIC);
        out.push(match self.lineage {
            Some(_) => SUMMARY_VERSION_DELTA_AGG,
            None => SUMMARY_VERSION,
        });
        out.push(match self.kind {
            SummaryKind::Full => 0,
            SummaryKind::Delta => 1,
        });
        out.extend_from_slice(&self.site.to_be_bytes());
        write_varint(&mut out, self.window.start_ms);
        write_varint(&mut out, self.window.span_ms);
        write_varint(&mut out, self.seq);
        if let Some(l) = &self.lineage {
            let eh = l.epoch;
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
            let prov = &l.provenance;
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
            lineage: h.lineage,
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
    /// Per-exporter sequence number.
    pub seq: u64,
    /// Full or delta.
    pub kind: SummaryKind,
    /// Provenance and epoch (version-3 frames).
    pub lineage: Option<Lineage>,
    /// Byte offset of the tree's codec frame.
    pub tree_offset: usize,
}

impl SummaryHeader {
    /// Parses and validates a frame's header. Versions 1 and 3 parse;
    /// a version-3 frame must carry an epoch ≥ 1 (a `Delta` declaring
    /// a strictly older base ≥ 1) and a provenance list that is
    /// nonempty, strictly ascending and bounded by [`MAX_PROVENANCE`].
    pub fn parse(bytes: &[u8]) -> Result<SummaryHeader, DistError> {
        if bytes.len() < 8 {
            return Err(DistError::BadFrame("short summary frame"));
        }
        if bytes[..4] != SUMMARY_MAGIC {
            return Err(DistError::BadFrame("summary magic"));
        }
        let version = bytes[4];
        if version != SUMMARY_VERSION && version != SUMMARY_VERSION_DELTA_AGG {
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
        let lineage = if version == SUMMARY_VERSION_DELTA_AGG {
            let epoch = next()?;
            if epoch == 0 {
                return Err(DistError::BadFrame("zero content epoch"));
            }
            let base = if kind == SummaryKind::Delta {
                let base = next()?;
                if base == 0 {
                    // Epochs start at 1: a delta claiming base 0 would
                    // merge onto a tree the exporter never pinned.
                    return Err(DistError::BadFrame("zero delta base epoch"));
                }
                if base >= epoch {
                    return Err(DistError::BadFrame("delta base not older than its epoch"));
                }
                Some(base)
            } else {
                None
            };
            let count = next()?;
            if count == 0 || count as usize > MAX_PROVENANCE {
                return Err(DistError::BadFrame("provenance count"));
            }
            let mut provenance = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let end = pos
                    .checked_add(2)
                    .filter(|&e| e <= bytes.len())
                    .ok_or(DistError::BadFrame("truncated provenance"))?;
                let s = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
                pos = end;
                if provenance.last().is_some_and(|&last| last >= s) {
                    return Err(DistError::BadFrame("provenance not strictly ascending"));
                }
                provenance.push(s);
            }
            Some(Lineage {
                provenance,
                epoch: EpochHeader { epoch, base },
            })
        } else {
            None
        };
        Ok(SummaryHeader {
            site,
            window: WindowId { start_ms, span_ms },
            seq,
            kind,
            lineage,
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
            lineage: None,
            tree,
        }
    }

    fn lineage(provenance: Vec<u16>, epoch: u64, base: Option<u64>) -> Option<Lineage> {
        Some(Lineage {
            provenance,
            epoch: EpochHeader { epoch, base },
        })
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
        s.window = WindowId::containing(u64::MAX / 2, 300_000);
        s.seq = u64::MAX;
        assert_eq!(s.encoded_size(), s.encode().len());
        // v3: full (epoch only) and delta (epoch + base).
        s.lineage = lineage(vec![1, 4, 9, 4_000], 300, None);
        assert_eq!(s.encoded_size(), s.encode().len());
        s.kind = SummaryKind::Delta;
        s.lineage = lineage(vec![1, 4, 9, 4_000], 300, Some(299));
        assert_eq!(s.encoded_size(), s.encode().len());
    }

    #[test]
    fn site_frames_are_v3_full_at_epoch_one() {
        let t = sample();
        let s = Summary::site_full(3, t.window, 17, t.tree.clone());
        let bytes = s.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION_DELTA_AGG);
        // Epoch 1, a one-site provenance list: four bytes over v1.
        assert_eq!(bytes.len(), t.encode().len() + 4);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!((back.site, back.seq, back.kind), (3, 17, SummaryKind::Full));
        assert_eq!(
            back.epoch(),
            Some(EpochHeader {
                epoch: 1,
                base: None
            })
        );
        assert_eq!(back.provenance(), Some(&[3u16][..]));
        assert_eq!(back.tree.total(), t.tree.total());
    }

    #[test]
    fn version_two_frames_fail_to_parse() {
        // Version 2 (provenance without an epoch) has no sender left.
        let mut bytes = v3_sample(SummaryKind::Full, 1, None).encode();
        bytes[4] = 2;
        assert!(matches!(
            SummaryHeader::parse(&bytes),
            Err(DistError::BadFrame("summary version"))
        ));
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("summary version"))
        ));
    }

    #[test]
    fn v1_frames_still_decode_bit_for_bit() {
        // The delta-mode site stream's version-1 frame decodes with no
        // lineage.
        let s = sample();
        let bytes = s.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert!(back.lineage.is_none());
    }

    #[test]
    fn hostile_provenance_frames_are_rejected() {
        let mut s = sample();
        s.lineage = lineage(vec![2, 5, 7], 1, None);
        let good = s.encode();
        // Truncations anywhere in the provenance header.
        for cut in 9..good.len().min(20) {
            assert!(Summary::decode(&good[..cut], Config::paper()).is_err());
        }
        // Unsorted / duplicated site sets: bypass encode's debug_assert
        // by patching the list bytes of the sorted frame.
        let mut bytes = good.clone();
        let prov_at = bytes.len() - s.tree.encode().len() - 6;
        bytes[prov_at..prov_at + 2].copy_from_slice(&5u16.to_be_bytes());
        bytes[prov_at + 2..prov_at + 4].copy_from_slice(&2u16.to_be_bytes());
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("provenance not strictly ascending"))
        ));
        // A zero-count provenance list.
        let mut zero = good;
        zero[prov_at - 1] = 0;
        assert!(Summary::decode(&zero, Config::with_budget(128)).is_err());
    }

    fn v3_sample(kind: SummaryKind, epoch: u64, base: Option<u64>) -> Summary {
        let mut s = sample();
        s.kind = kind;
        s.lineage = lineage(vec![1, 4, 9], epoch, base);
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
            back.epoch(),
            Some(EpochHeader {
                epoch: 7,
                base: None
            })
        );
        assert_eq!(back.provenance(), Some(&[1u16, 4, 9][..]));
        assert_eq!(back.tree.total(), full.tree.total());

        let delta = v3_sample(SummaryKind::Delta, 9, Some(7));
        let bytes = delta.encode();
        assert_eq!(bytes[4], SUMMARY_VERSION_DELTA_AGG);
        let back = Summary::decode(&bytes, Config::with_budget(128)).unwrap();
        assert_eq!(back.kind, SummaryKind::Delta);
        assert_eq!(
            back.epoch(),
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
        let s = v3_sample(SummaryKind::Full, 1, None);
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
        // A delta claiming base 0: epochs start at 1, so no exporter
        // ever pinned a base 0 — it must not decode into a frame that
        // would merge onto a version-1-stored tree.
        bytes[base_at] = 0;
        assert!(matches!(
            Summary::decode(&bytes, Config::with_budget(128)),
            Err(DistError::BadFrame("zero delta base epoch"))
        ));
    }
}
