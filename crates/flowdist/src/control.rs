//! Control frames of the acknowledged export path.
//!
//! Summary frames ([`crate::summary`]) carry data downstream→upstream;
//! control frames are the **reverse channel** that makes the export
//! path reliably delivered instead of fire-and-forget. They share the
//! length-prefixed TCP framing ([`crate::net`]) with summaries but use
//! their own magic, so either end can classify a frame from its first
//! four bytes ([`is_control`]) — a peer that does not speak the
//! handshake rejects one as a malformed summary and keeps going,
//! which is exactly the version gating the tier relies on.
//!
//! Frame layout (after the 4-byte magic):
//!
//! ```text
//! magic    4  "FCTL"
//! version  1  = 1
//! type     1  0 = hello, 1 = ack, 2 = rebase-request
//! hello:      features varint (bit 0 = per-frame acks)
//! ack:        exporter u16 BE, start varint, span varint, epoch varint
//! rebase:     exporter u16 BE, start varint, span varint, have varint
//! ```
//!
//! * **Hello** — capability announcement. A shipper sends one right
//!   after connecting; the receiver replies with its own Hello and
//!   thereafter answers every summary frame. No reply within the
//!   shipper's handshake window is a failed connect: the shipper backs
//!   off and retries, and never releases a frame without an ack
//!   ([`crate::export`]). A receiver still serves a sender that never
//!   says hello, in one-way silence.
//! * **Ack** — the receiver's applied position for one `(window,
//!   exporter)` slot: the content epoch (≥ 1) its ledger now holds.
//!   Sent for applied frames *and* for idempotently deduplicated
//!   replays, so an at-least-once sender always converges. Every
//!   shipped frame is a version-3 frame; one without an epoch gets no
//!   ack, and a shipper counts an ack at epoch 0 as hostile.
//! * **RebaseRequest** — the receiver detected that a delta's declared
//!   base epoch is ahead of its ledger (it lost state: restart,
//!   shorter retention). `have` is what it actually holds (`0` =
//!   nothing). The sender answers by rewinding the window
//!   (`flowrelay::Relay::request_rebase`) so the next drain ships a
//!   full rebasing frame — upstream state loss heals immediately
//!   instead of orphaning the delta chain.

use crate::DistError;
use flowkey::pack::{read_varint, varint_len, write_varint};

/// Frame magic for control frames.
pub const CONTROL_MAGIC: [u8; 4] = *b"FCTL";
/// Control frame version.
pub const CONTROL_VERSION: u8 = 1;
/// Hello feature bit: the peer acknowledges every summary frame and
/// emits rebase-requests on epoch gaps.
pub const FEATURE_ACKS: u64 = 1;

/// One `(window, exporter)` position in a receiver's epoch ledger —
/// the payload of both [`ControlFrame::Ack`] and
/// [`ControlFrame::RebaseRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPos {
    /// The acknowledged window's start (ms).
    pub window_start_ms: u64,
    /// The window span (ms); must match the data stream's span.
    pub span_ms: u64,
    /// The exporter id the summary frames carry in their `site` field.
    pub exporter: u16,
    /// For an ack: the content epoch (≥ 1) the receiver's ledger
    /// holds after applying. For a rebase-request: the epoch the
    /// receiver still holds (0 = slot unknown — the delta's whole
    /// chain is gone).
    pub epoch: u64,
}

/// A decoded control frame (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFrame {
    /// Capability announcement; opens (and answers) the handshake.
    Hello {
        /// Feature bit set ([`FEATURE_ACKS`] is the only defined bit;
        /// unknown bits are ignored, never fatal).
        features: u64,
    },
    /// The receiver applied (or idempotently deduplicated) a summary
    /// frame; its ledger for the slot now stands at `epoch`.
    Ack(SlotPos),
    /// The receiver cannot apply a delta for this slot — its ledger is
    /// behind the delta's declared base. The sender should rewind the
    /// window and re-export a full rebasing frame.
    RebaseRequest(SlotPos),
}

/// Whether a frame's first bytes carry the control magic — the cheap
/// classifier both ends run before attempting a full decode.
pub fn is_control(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == CONTROL_MAGIC
}

const TYPE_HELLO: u8 = 0;
const TYPE_ACK: u8 = 1;
const TYPE_REBASE: u8 = 2;

impl ControlFrame {
    /// Encodes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        out.extend_from_slice(&CONTROL_MAGIC);
        out.push(CONTROL_VERSION);
        match self {
            ControlFrame::Hello { features } => {
                out.push(TYPE_HELLO);
                write_varint(&mut out, *features);
            }
            ControlFrame::Ack(slot) => {
                out.push(TYPE_ACK);
                encode_slot(&mut out, slot);
            }
            ControlFrame::RebaseRequest(slot) => {
                out.push(TYPE_REBASE);
                encode_slot(&mut out, slot);
            }
        }
        out
    }

    /// The exact byte length [`ControlFrame::encode`] produces.
    pub fn encoded_size(&self) -> usize {
        6 + match self {
            ControlFrame::Hello { features } => varint_len(*features),
            ControlFrame::Ack(s) | ControlFrame::RebaseRequest(s) => {
                2 + varint_len(s.window_start_ms) + varint_len(s.span_ms) + varint_len(s.epoch)
            }
        }
    }

    /// Decodes and validates a control frame (untrusted network
    /// input): exact length, known version and type, nonzero span,
    /// aligned window, no trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<ControlFrame, DistError> {
        if bytes.len() < 6 {
            return Err(DistError::BadFrame("short control frame"));
        }
        if bytes[..4] != CONTROL_MAGIC {
            return Err(DistError::BadFrame("control magic"));
        }
        if bytes[4] != CONTROL_VERSION {
            return Err(DistError::BadFrame("control version"));
        }
        let typ = bytes[5];
        let mut pos = 6usize;
        fn next(bytes: &[u8], pos: &mut usize) -> Result<u64, DistError> {
            let (v, n) =
                read_varint(&bytes[*pos..]).map_err(|_| DistError::BadFrame("control varint"))?;
            *pos += n;
            Ok(v)
        }
        let frame = match typ {
            TYPE_HELLO => ControlFrame::Hello {
                features: next(bytes, &mut pos)?,
            },
            TYPE_ACK | TYPE_REBASE => {
                let end = pos
                    .checked_add(2)
                    .filter(|&e| e <= bytes.len())
                    .ok_or(DistError::BadFrame("truncated control frame"))?;
                let exporter = u16::from_be_bytes([bytes[pos], bytes[pos + 1]]);
                pos = end;
                let window_start_ms = next(bytes, &mut pos)?;
                let span_ms = next(bytes, &mut pos)?;
                let epoch = next(bytes, &mut pos)?;
                if span_ms == 0 {
                    return Err(DistError::BadFrame("zero control span"));
                }
                if window_start_ms % span_ms != 0 {
                    return Err(DistError::BadFrame("unaligned control window"));
                }
                let slot = SlotPos {
                    window_start_ms,
                    span_ms,
                    exporter,
                    epoch,
                };
                if typ == TYPE_ACK {
                    ControlFrame::Ack(slot)
                } else {
                    ControlFrame::RebaseRequest(slot)
                }
            }
            _ => return Err(DistError::BadFrame("control type")),
        };
        if pos != bytes.len() {
            return Err(DistError::BadFrame("trailing control bytes"));
        }
        Ok(frame)
    }
}

fn encode_slot(out: &mut Vec<u8>, slot: &SlotPos) {
    out.extend_from_slice(&slot.exporter.to_be_bytes());
    write_varint(out, slot.window_start_ms);
    write_varint(out, slot.span_ms);
    write_varint(out, slot.epoch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(epoch: u64) -> SlotPos {
        SlotPos {
            window_start_ms: 1_700_000_100_000,
            span_ms: 1_000,
            exporter: 1_000,
            epoch,
        }
    }

    #[test]
    fn all_frame_types_roundtrip() {
        for f in [
            ControlFrame::Hello {
                features: FEATURE_ACKS,
            },
            ControlFrame::Hello { features: 0 },
            ControlFrame::Ack(slot(0)),
            ControlFrame::Ack(slot(u64::MAX)),
            ControlFrame::RebaseRequest(slot(7)),
        ] {
            let bytes = f.encode();
            assert!(is_control(&bytes));
            assert_eq!(bytes.len(), f.encoded_size());
            assert_eq!(ControlFrame::decode(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn summary_frames_are_not_control() {
        assert!(!is_control(b"FSUM...."));
        assert!(!is_control(b""));
        assert!(!is_control(b"FCT"));
    }

    #[test]
    fn hostile_control_frames_are_rejected() {
        let good = ControlFrame::Ack(slot(9)).encode();
        // Truncation at every prefix.
        for cut in 0..good.len() {
            assert!(ControlFrame::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut long = good.clone();
        long.push(0);
        assert!(ControlFrame::decode(&long).is_err());
        // Bad magic / version / type.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(ControlFrame::decode(&bad).is_err());
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(ControlFrame::decode(&bad).is_err());
        let mut bad = good.clone();
        bad[5] = 7;
        assert!(ControlFrame::decode(&bad).is_err());
        // Zero span: encode one by hand.
        let zero_span = ControlFrame::Ack(SlotPos {
            window_start_ms: 0,
            span_ms: 1,
            exporter: 3,
            epoch: 1,
        })
        .encode();
        let mut bad = zero_span.clone();
        // span varint is the second-to-last byte (start=0, span=1, epoch=1).
        let n = bad.len();
        bad[n - 2] = 0;
        assert!(matches!(
            ControlFrame::decode(&bad),
            Err(DistError::BadFrame("zero control span"))
        ));
        // Unaligned window: start 1 under span 1000.
        let mut unaligned = ControlFrame::Ack(SlotPos {
            window_start_ms: 0,
            span_ms: 100,
            exporter: 3,
            epoch: 1,
        })
        .encode();
        let n = unaligned.len();
        unaligned[n - 3] = 1; // start varint (single byte 0 → 1)
        assert!(matches!(
            ControlFrame::decode(&unaligned),
            Err(DistError::BadFrame("unaligned control window"))
        ));
    }

    #[test]
    fn unknown_feature_bits_survive_roundtrip() {
        let f = ControlFrame::Hello {
            features: FEATURE_ACKS | (1 << 17),
        };
        let back = ControlFrame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
    }
}
