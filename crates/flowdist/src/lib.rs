//! # flowdist — the distributed flow-summarization system
//!
//! The system sketched in the paper's Fig. 1 and future-work section:
//! routers export flows (NetFlow/IPFIX) to per-site **Flowtree
//! daemons**, daemons maintain time-windowed trees and ship compact
//! summaries — or deltas of consecutive summaries — to a central
//! **collector**, which reconstructs, stores, and answers distributed
//! queries across sites and time, and raises **alarms** on significant
//! window-over-window differences.
//!
//! * [`SiteDaemon`] — windowed summarization at one site: one
//!   Flowtree per open window.
//! * [`pipeline`] — the streaming ingest loop: raw NetFlow v5/v9/IPFIX
//!   exporter payloads are decoded ([`flownet::ExportDecoder`]),
//!   bucketed per open window by each record's own timestamp, and fed
//!   to the daemon in batches with actual wire-byte accounting.
//! * [`Summary`] — the wire artifact (full or delta), with a validated
//!   codec.
//! * [`Collector`] — storage, delta reconstruction, distributed merge
//!   queries, transfer accounting, and the lifted time+site mega-tree.
//! * [`alarm`] — change detection on diff trees.
//! * [`sim`] — the whole pipeline end-to-end, single-threaded or one
//!   thread per site.
//! * [`store`] — the on-disk summary database (atomic writes,
//!   re-validated loads, retention).
//! * [`net`] — exporters (NetFlow v5 and IPFIX over UDP) and
//!   collector-side receive of summary frames over TCP.
//! * [`control`] — the reverse channel of the acknowledged export
//!   path: per-frame acks and rebase-requests, version-gated so
//!   pre-handshake peers interoperate unchanged.
//! * [`framing`] — the one copy of the length-prefixed TCP framing
//!   (`read_frame`/`write_frame`/`FramedConn`) every TCP surface in
//!   flowdist *and* flowrelay speaks.
//! * [`admission`] — per-exporter token-bucket quotas over a bounded
//!   exporter table, with live-reloadable knobs shared between the
//!   ingest lanes and the ops endpoint.
//! * [`lane`] — the UDP ingest edge, and the only one: N `SO_REUSEPORT`
//!   listen→decode→pipeline lanes (batched `recvmmsg`, lane-local
//!   admission and template caches, opt-in core pinning) merged
//!   lane→site only at window close via the paper's structural
//!   `merge`, so the hot path takes zero cross-lane locks.
//! * [`mrecv`] — batched UDP receive (`recvmmsg`) behind a reusable
//!   buffer arena, with a portable single-datagram fallback.
//! * [`ring`] — the lock-free SPSC ring the portable fallback uses to
//!   fan one socket out to N lanes.
//! * [`faultnet`] — a seeded hostile-exporter generator (template
//!   floods, oversized fields, missing templates, truncation, garbage)
//!   for deterministic fault-injection tests.
//! * [`ops`] — the tiny plaintext HTTP/1.0 health/stats/reload
//!   endpoint every fleet node serves, the shared rendering of a node's
//!   one stats list (`/stats`, `/stats.json`, `/metrics`) and the one
//!   reload grammar.
//! * [`runtime`] — the site-node runtime: UDP ingest + upstream TCP
//!   forwarder + ops endpoint behind one `start`/`drain` handle, so a
//!   launcher boots a site from a spec line.
//! * [`spill`] — disk-backed queue of unacked export frames
//!   (append-only CRC-checked segments with an acked-floor ledger), so
//!   pending exports survive process death.

// `deny` rather than `forbid`: the exceptions are the scoped
// `#[allow(unsafe_code)]` seams in `sockopt` (raw setsockopt /
// getsockopt / SO_REUSEPORT bind / sched_setaffinity — std has no
// safe API for any of them), `mrecv` (the batched `recvmmsg(2)`
// syscall), and `ring` (the SPSC slot cells whose soundness the
// split Producer/Consumer types enforce).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod alarm;
pub mod collector;
pub mod control;
pub mod daemon;
pub mod faultnet;
pub mod framing;
pub mod lane;
pub mod mrecv;
pub mod net;
pub mod ops;
pub mod pipeline;
pub mod ring;
pub mod runtime;
pub mod sim;
pub mod sockopt;
pub mod spill;
pub mod store;
pub mod summary;
pub mod window;

pub use admission::{AdmissionConfig, AdmissionControl, AdmissionKnobs, AdmissionStats};
pub use alarm::{AlarmConfig, AlarmEvent, Direction};
pub use collector::{Collector, TransferLedger, ViewCacheStats};
pub use control::{ControlFrame, SlotPos, FEATURE_ACKS};
pub use daemon::{DaemonConfig, DaemonStats, SiteDaemon, TransferMode};
pub use framing::{FramedConn, MAX_FRAME};
pub use lane::{
    spawn_multi_lane_ingest, IngestReport, LaneOptions, LaneSnapshot, LaneStats, MultiIngestHandle,
};
pub use mrecv::{BatchReceiver, MAX_RECV_BATCH};
pub use pipeline::{IngestPipeline, PipelineStats};
pub use runtime::{SiteDrainReport, SiteNodeConfig, SiteRuntime};
pub use sim::{SimConfig, SimReport, SiteRun};
pub use spill::{FsyncPolicy, SpillConfig, SpillQueue, SpillStats};
pub use store::{LoadReport, SummaryStore};
pub use summary::{EpochHeader, Summary, SummaryKind};
pub use window::WindowId;

use flowtree_core::CodecError;

/// Wall-clock milliseconds since the Unix epoch (0 if the clock reads
/// before it).
pub fn epoch_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Errors of the distributed layer.
#[derive(Debug)]
pub enum DistError {
    /// A frame failed structural validation.
    BadFrame(&'static str),
    /// The inner tree failed to decode.
    Codec(CodecError),
    /// Summary schema does not match the collector's schema.
    SchemaMismatch,
    /// A delta arrived with no reconstructed base window for its site.
    MissingDeltaBase {
        /// The site whose base is missing.
        site: u16,
    },
    /// A version-3 frame's epoch handshake failed: a delta declared a
    /// base epoch the collector does not hold for that `(window,
    /// exporter)` slot, or a full re-export did not advance the stored
    /// epoch — an out-of-order or orphaned increment, rejected so it
    /// can never compose onto the wrong base.
    EpochMismatch {
        /// The exporter whose frame was rejected.
        site: u16,
        /// The epoch stored for the slot (0 = none / pre-epoch frame).
        have: u64,
        /// The epoch the frame demanded (a delta's declared base, or a
        /// full frame's non-advancing epoch).
        got: u64,
    },
    /// Socket-level failure.
    Io(std::io::Error),
}

impl From<CodecError> for DistError {
    fn from(e: CodecError) -> Self {
        DistError::Codec(e)
    }
}

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistError::BadFrame(w) => write!(f, "bad frame: {w}"),
            DistError::Codec(e) => write!(f, "tree codec: {e}"),
            DistError::SchemaMismatch => f.write_str("schema mismatch"),
            DistError::MissingDeltaBase { site } => {
                write!(f, "delta without base window for site {site}")
            }
            DistError::EpochMismatch { site, have, got } => {
                write!(
                    f,
                    "epoch handshake failed for site {site}: stored {have}, frame demanded {got}"
                )
            }
            DistError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for DistError {}
