//! One aggregation-tier node.
//!
//! A [`Relay`] sits between site daemons (or deeper relays) and its
//! own upstream. Downstream summary frames land in an embedded
//! [`Collector`] — per-site trees from daemons, pre-aggregated
//! super-site trees from child relays — and every closed window is
//! folded into **one** upstream aggregate with the structural
//! [`FlowTree::merge_many`], re-exported as a version-3 frame whose
//! provenance header names the real sites inside
//! ([`flowdist::summary`]).
//!
//! Every downstream frame is a version-3 frame — a site's own window
//! at epoch 1 with provenance `[site]`, or a child relay's export. A
//! frame without an epoch is refused and counted in
//! [`RelayLedger::rejected`] on every entry point.
//!
//! ## Provenance discipline
//!
//! The provenance checks are what make hierarchical answers equal flat
//! ones:
//!
//! * a frame may only claim sites inside this relay's **expected
//!   coverage** (from the topology) — a mis-wired or hostile exporter
//!   cannot inject a foreign site's traffic;
//! * two different downstreams may never claim the same site — that
//!   would double-count it in every aggregate;
//! * all frames must agree on the window span.
//!
//! Rejected frames are counted in the [`RelayLedger`], never fatal —
//! the relay outlives hostile peers exactly as the collector does.
//!
//! ## The export scheduler
//!
//! Every accepted frame advances its window's **content epoch**; a
//! window is re-exported whenever its content moved past what was last
//! shipped. Two drain entry points share the machinery:
//!
//! * [`Relay::drain_exports_at`] — the wall-clock path: a window
//!   exports once `now` passes its end plus the configured linger, and
//!   **re-exports incrementally** on later drains if late downstream
//!   frames kept arriving (late data used to be stored but never
//!   re-shipped);
//! * [`Relay::flush_exports`] — everything with unshipped content
//!   (shutdown / end of trace).
//!
//! Under [`ExportMode::Delta`] a re-export ships the structural
//! difference ([`FlowTree::diff_many`]) against the **pinned
//! re-aggregation base** — the exact merged aggregate as of the
//! previous export — as a version-3 frame declaring both epochs, so
//! the upstream composes deltas deterministically. The relay falls
//! back to a full (rebasing) frame whenever the base is gone
//! ([`Relay::drop_export_bases`], the bound of
//! [`ExportConfig::max_bases`]), the delta is non-monotone (a
//! downstream replaced a window, so masses left — merging such a delta
//! upstream could leave ghost structure a full rebuild would not), or
//! the delta failed to undercut the full frame's size. Every export —
//! full or delta — carries **per-window provenance**: the sites
//! actually folded into that window, never a lifetime union, so a
//! window missing one site no longer advertises it.

use crate::RelayError;
use flowdist::{
    Collector, DistError, EpochHeader, Lineage, ShipEvent, SlotPos, Summary, SummaryKind, WindowId,
};
use flowkey::Schema;
use flowtree_core::{Config, FlowTree};
use std::collections::{BTreeMap, BTreeSet};

/// How a relay ships a window upstream when its content advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportMode {
    /// Re-export the window's complete aggregate every time — the
    /// reference path the delta stream is property-pinned against.
    Full,
    /// Ship the structural delta against the pinned re-aggregation
    /// base; full-frame fallback on base loss, non-monotone content,
    /// or delta-size regression.
    #[default]
    Delta,
}

/// Export-scheduler tuning of one relay.
#[derive(Debug, Clone, Copy)]
pub struct ExportConfig {
    /// Delta or full re-export (see [`ExportMode`]).
    pub mode: ExportMode,
    /// Wall-clock grace after a window's end before
    /// [`Relay::drain_exports_at`] considers it exportable — absorbs
    /// downstream skew without holding every window hostage to the
    /// slowest site.
    pub linger_ms: u64,
    /// Pinned re-aggregation bases kept at once (one per exported
    /// window under [`ExportMode::Delta`]); the oldest windows lose
    /// their base first and fall back to a full re-export if they ever
    /// change again.
    pub max_bases: usize,
    /// Cap on the **total tree nodes** across all pinned bases (like
    /// the view cache's node budget): an entry count alone lets a few
    /// huge windows pin unbounded memory. Oldest windows shed their
    /// base first. 0 = unbounded.
    pub max_base_nodes: usize,
}

impl Default for ExportConfig {
    fn default() -> ExportConfig {
        ExportConfig {
            mode: ExportMode::default(),
            linger_ms: 0,
            max_bases: 64,
            max_base_nodes: 1 << 20,
        }
    }
}

/// Construction parameters of one relay.
#[derive(Debug, Clone)]
pub struct RelayConfig {
    /// Display name (usually the topology name).
    pub name: String,
    /// The id this relay's exports carry in their `site` field.
    pub agg_site: u16,
    /// Every real site this relay is expected to cover (own tier plus
    /// everything below it in the topology).
    pub expected: Vec<u16>,
    /// Flow schema of all trees.
    pub schema: Schema,
    /// Tree budget/policies for stored and merged trees.
    pub tree: Config,
    /// Export-scheduler tuning (delta vs full, linger, base bound).
    pub export: ExportConfig,
}

/// Work counters of one relay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelayLedger {
    /// Frames accepted.
    pub frames: u64,
    /// A site's own frames among them: provenance exactly `[site]`
    /// (topology forbids a relay's `agg_site` from being a site id).
    pub site_frames: u64,
    /// Child relays' aggregates among them: every other provenance.
    pub agg_frames: u64,
    /// Frames rejected (malformed, without an epoch, coverage
    /// violations, overlaps…).
    pub rejected: u64,
    /// Upstream aggregates exported (full and delta frames).
    pub exported: u64,
    /// Encoded bytes of those exports.
    pub exported_bytes: u64,
    /// Full frames among the exports (first exports, rebases,
    /// fallbacks).
    pub full_exports: u64,
    /// Encoded bytes of the full frames.
    pub full_export_bytes: u64,
    /// Delta frames among the exports.
    pub delta_exports: u64,
    /// Encoded bytes of the delta frames.
    pub delta_export_bytes: u64,
    /// Re-exports that wanted to ship a delta but fell back to a full
    /// frame: non-monotone content or delta-size regression.
    pub delta_fallbacks: u64,
    /// Re-exports that fell back to a full frame because the pinned
    /// base was gone (dropped by [`ExportConfig::max_bases`] or
    /// [`Relay::drop_export_bases`]).
    pub base_losses: u64,
    /// Accepted frames for windows already exported upstream — under
    /// the incremental scheduler these re-export as deltas on the next
    /// drain instead of silently diverging from the upstream.
    pub late_downstream: u64,
    /// Frames the classified ingest path recognized as at-least-once
    /// replays of content this relay already holds: acknowledged at
    /// the stored position, never re-applied.
    pub replayed: u64,
    /// Deltas whose declared base was ahead of this relay's ledger —
    /// answered with a rebase-request (upstream state loss detected)
    /// instead of a silent rejection.
    pub rebase_requests: u64,
    /// Windows this relay rewound to a full rebasing re-export because
    /// a downstream peer asked ([`Relay::request_rebase`]).
    pub rebase_rewinds: u64,
    /// Upstream connection attempts by the export shipper.
    pub reconnect_attempts: u64,
    /// Failed connection attempts among them.
    pub reconnect_failures: u64,
    /// Total milliseconds the shipper backed off between attempts.
    pub backoff_ms_total: u64,
    /// Pending export frames shed by the spill queue's byte bound
    /// during an upstream outage (their windows rewound to rebase).
    pub spill_sheds: u64,
    /// Payload bytes those shed frames carried.
    pub spill_shed_bytes: u64,
}

/// How [`Relay::ingest_classified`] judged one downstream frame — and
/// therefore which control frame (if any) the serving loop answers
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// The frame applied; ack the slot's new position.
    Applied(SlotPos),
    /// An at-least-once replay of content already held: not
    /// re-applied, acked at the stored position.
    Replayed(SlotPos),
    /// A delta whose declared base is ahead of this relay's ledger;
    /// answer with a rebase-request carrying what is held
    /// (`pos.epoch`).
    NeedsRebase(SlotPos),
    /// Malformed or violating: counted, no response.
    Rejected,
}

/// Which way the acknowledged path takes a decoded frame
/// ([`admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// The frame advances its slot: apply it.
    Apply,
    /// An epoch at or behind the slot's: a replay.
    Replay,
    /// A delta whose declared base is not the epoch the slot holds.
    NeedsRebase,
}

/// Admits a frame with epoch header `eh` and kind `kind` into a slot
/// holding epoch `held` (0 = nothing stored): the classification of
/// [`Relay::ingest_classified`], as a pure function.
pub(crate) fn admit(eh: EpochHeader, kind: SummaryKind, held: u64) -> Admission {
    if eh.epoch <= held {
        Admission::Replay
    } else if kind == SummaryKind::Delta && eh.base != Some(held) {
        Admission::NeedsRebase
    } else {
        Admission::Apply
    }
}

/// How a site-set scope maps onto one relay's stored trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compose {
    /// Stored keys whose provenance lies inside the scope (`None` =
    /// every stored key, for an all-sites scope).
    pub keys: Option<Vec<u16>>,
    /// Scope sites no composed key covers.
    pub missing: Vec<u16>,
}

/// Per-window export state: how far the content has moved, how far
/// the upstream has seen it, and the pinned re-aggregation base deltas
/// compose against.
#[derive(Debug, Default)]
struct WindowState {
    /// Bumped by every accepted frame that folds into this window.
    content_epoch: u64,
    /// The content epoch last drained for export (0 = never).
    exported_epoch: u64,
    /// The content epoch the upstream has **acknowledged applying**
    /// (0 = never). The gap
    /// between this and `exported_epoch` is exactly the in-flight
    /// exposure a restart must heal
    /// ([`Relay::rewind_unacked_exports`]).
    shipped_epoch: u64,
    /// The merged aggregate exactly as of the last export, keyed by
    /// its epoch — the base the next delta is diffed against. `None`
    /// after base loss (next export rebases with a full frame).
    base: Option<(u64, FlowTree)>,
}

/// One aggregation node (see the module docs).
#[derive(Debug)]
pub struct Relay {
    cfg: RelayConfig,
    expected: BTreeSet<u16>,
    collector: Collector,
    /// Stored key → the real sites it has claimed (singleton for site
    /// frames, the provenance union for child aggregates). Lifetime
    /// bookkeeping for the overlap discipline; per-window truth lives
    /// in the collector's epoch ledger.
    provenance: BTreeMap<u16, BTreeSet<u16>>,
    /// Established window span (first accepted frame wins).
    span_ms: Option<u64>,
    /// Per-window export scheduling state.
    windows: BTreeMap<u64, WindowState>,
    /// Epoch continuity across retention: the content epoch each
    /// evicted window had reached, so a frame re-arriving after
    /// eviction continues the chain (strictly advancing past whatever
    /// the upstream holds) instead of restarting at epoch 1 and being
    /// rejected as stale forever. Bounded by
    /// [`Relay::MAX_EVICTED_EPOCHS`], oldest dropped first.
    evicted_epochs: BTreeMap<u64, u64>,
    seq: u64,
    ledger: RelayLedger,
    /// Crash-safety: when attached ([`Relay::open_journaled`]), every
    /// state-mutating operation appends to a write-ahead log that a
    /// restart replays deterministically.
    journal: Option<crate::journal::JournalWriter>,
}

impl Relay {
    /// Creates an empty relay.
    pub fn new(cfg: RelayConfig) -> Relay {
        let expected = cfg.expected.iter().copied().collect();
        let collector = Collector::new(cfg.schema, cfg.tree);
        Relay {
            expected,
            collector,
            provenance: BTreeMap::new(),
            span_ms: None,
            windows: BTreeMap::new(),
            evicted_epochs: BTreeMap::new(),
            seq: 0,
            ledger: RelayLedger::default(),
            journal: None,
            cfg,
        }
    }

    /// Evicted-window epoch-continuity entries kept (16 bytes each —
    /// tiny next to the trees retention exists to shed).
    pub const MAX_EVICTED_EPOCHS: usize = 65_536;

    /// Builds the relay at `idx` of a validated topology with the
    /// default export scheduling.
    pub fn from_topology(
        topo: &crate::RelayTopology,
        idx: usize,
        schema: Schema,
        tree: Config,
    ) -> Relay {
        Relay::from_topology_with(topo, idx, schema, tree, ExportConfig::default())
    }

    /// Builds the relay at `idx` of a validated topology with explicit
    /// export scheduling.
    pub fn from_topology_with(
        topo: &crate::RelayTopology,
        idx: usize,
        schema: Schema,
        tree: Config,
        export: ExportConfig,
    ) -> Relay {
        let spec = &topo.relays[idx];
        Relay::new(RelayConfig {
            name: spec.name.clone(),
            agg_site: spec.agg_site,
            expected: topo.coverage(idx).into_iter().collect(),
            schema,
            tree,
            export,
        })
    }

    /// The relay's name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// The id its exports carry.
    pub fn agg_site(&self) -> u16 {
        self.cfg.agg_site
    }

    /// The flow schema.
    pub fn schema(&self) -> Schema {
        self.cfg.schema
    }

    /// The tree configuration.
    pub fn tree_cfg(&self) -> Config {
        self.cfg.tree
    }

    /// Work counters.
    pub fn ledger(&self) -> &RelayLedger {
        &self.ledger
    }

    /// The established window span, once any frame was accepted.
    pub fn span_ms(&self) -> Option<u64> {
        self.span_ms
    }

    /// The embedded collector (stored windows, merged views, queries).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// The sites this relay is expected to cover.
    pub fn expected_coverage(&self) -> &BTreeSet<u16> {
        &self.expected
    }

    /// The sites actually backed by stored data: the provenance union
    /// over downstreams that have delivered at least one window. A
    /// dead downstream simply never enters this set — coverage
    /// degrades, queries keep routing.
    pub fn live_coverage(&self) -> BTreeSet<u16> {
        self.provenance
            .iter()
            .filter(|(k, _)| self.collector.stores_site(**k))
            .flat_map(|(_, sites)| sites.iter().copied())
            .collect()
    }

    /// Decodes and ingests one downstream frame; malformed or
    /// violating frames are counted and returned as errors, never
    /// fatal to the relay.
    pub fn ingest_frame(&mut self, bytes: &[u8]) -> Result<(), RelayError> {
        let summary = match Summary::decode(bytes, self.cfg.tree) {
            Ok(s) => s,
            Err(e) => {
                self.ledger.rejected += 1;
                return Err(e.into());
            }
        };
        self.apply_with_raw(summary, Some(bytes))
    }

    /// Ingests an already-decoded downstream summary.
    pub fn apply(&mut self, summary: Summary) -> Result<(), RelayError> {
        self.apply_with_raw(summary, None)
    }

    fn apply_with_raw(&mut self, summary: Summary, raw: Option<&[u8]>) -> Result<(), RelayError> {
        // Journal-after-apply: the raw frame enters the WAL only once
        // it actually applied (and, on the acked ingest path, strictly
        // before the ack goes out — a crash between apply and append
        // means no ack, the sender resends, and the replay dedupes).
        let encoded = match (&self.journal, raw) {
            (Some(_), None) => Some(summary.encode()),
            _ => None,
        };
        match self.check_and_apply(summary) {
            Ok(()) => {
                match (encoded, raw) {
                    (Some(bytes), _) => self.journal_append(crate::journal::Record::Frame(&bytes)),
                    (None, Some(bytes)) => {
                        self.journal_append(crate::journal::Record::Frame(bytes))
                    }
                    (None, None) => {}
                }
                Ok(())
            }
            Err(e) => {
                self.ledger.rejected += 1;
                Err(e)
            }
        }
    }

    /// Ingests one downstream frame on the **acknowledged** path,
    /// classifying the outcome so the serving loop can answer with the
    /// right control frame ([`flowdist::control`]):
    ///
    /// * [`FrameOutcome::Applied`] — ack the slot's new position;
    /// * [`FrameOutcome::Replayed`] — an at-least-once duplicate of
    ///   content this relay already holds (an epoch at or behind the
    ///   ledger): not re-applied, but acked at the stored position so
    ///   a resending peer converges. A restarted site re-sending part
    ///   of a window it already shipped lands here too: its epoch-1
    ///   frame never replaces the stored window;
    /// * [`FrameOutcome::NeedsRebase`] — a delta whose declared base
    ///   is ahead of this relay's ledger (this relay lost state:
    ///   restart, shorter retention): answer with a rebase-request
    ///   carrying what is actually held, so the sender rewinds and
    ///   re-exports a full rebasing frame;
    /// * [`FrameOutcome::Rejected`] — malformed, without an epoch, or
    ///   violating: counted, no response.
    ///
    /// Replay dedupe lives **only** here: the plain [`Relay::apply`]
    /// path refuses a frame that does not advance its slot's epoch.
    pub fn ingest_classified(&mut self, bytes: &[u8]) -> FrameOutcome {
        let decoded = Summary::decode(bytes, self.cfg.tree).ok();
        let Some((eh, summary)) = decoded.and_then(|s| Some((s.epoch()?, s))) else {
            self.ledger.rejected += 1;
            return FrameOutcome::Rejected;
        };
        let (start, span, site) = (
            summary.window.start_ms,
            summary.window.span_ms,
            summary.site,
        );
        // Every slot a relay stores carries an epoch ≥ 1: 0 = none.
        let have = self.collector().window_epoch(start, site);
        let pos = |epoch: u64| SlotPos {
            window_start_ms: start,
            span_ms: span,
            exporter: site,
            epoch,
        };
        match admit(eh, summary.kind, have) {
            Admission::Replay => {
                self.ledger.replayed += 1;
                FrameOutcome::Replayed(pos(have))
            }
            Admission::NeedsRebase => {
                self.ledger.rebase_requests += 1;
                FrameOutcome::NeedsRebase(pos(have))
            }
            Admission::Apply => match self.apply_with_raw(summary, Some(bytes)) {
                Ok(()) => FrameOutcome::Applied(pos(self.collector().window_epoch(start, site))),
                Err(_) => FrameOutcome::Rejected,
            },
        }
    }

    fn check_and_apply(&mut self, summary: Summary) -> Result<(), RelayError> {
        let Some(provenance) = summary.provenance() else {
            return Err(DistError::BadFrame("summary without epoch").into());
        };
        let key = summary.site;
        let is_site = provenance == [key];
        let claimed: BTreeSet<u16> = provenance.iter().copied().collect();
        if let Some(span) = self.span_ms {
            if summary.window.span_ms != span {
                return Err(RelayError::SpanMismatch);
            }
        }
        for &site in &claimed {
            if !self.expected.contains(&site) {
                return Err(RelayError::CoverageViolation { site });
            }
            if let Some((_, other)) = self
                .provenance
                .iter()
                .find(|(k, sites)| **k != key && sites.contains(&site))
            {
                debug_assert!(other.contains(&site));
                return Err(RelayError::OverlappingProvenance { site });
            }
        }
        let window = summary.window;
        self.collector.apply(summary).map_err(RelayError::Dist)?;
        self.span_ms.get_or_insert(window.span_ms);
        self.provenance.entry(key).or_default().extend(claimed);
        self.ledger.frames += 1;
        if is_site {
            self.ledger.site_frames += 1;
        } else {
            self.ledger.agg_frames += 1;
        }
        let st = self.windows.entry(window.start_ms).or_insert_with(|| {
            // A window re-arriving after eviction resumes its epoch
            // chain where it left off: the next export must strictly
            // advance past whatever the upstream still holds.
            let resumed = self.evicted_epochs.remove(&window.start_ms).unwrap_or(0);
            WindowState {
                content_epoch: resumed,
                exported_epoch: resumed,
                shipped_epoch: resumed,
                base: None,
            }
        });
        st.content_epoch += 1;
        if st.exported_epoch > 0 {
            self.ledger.late_downstream += 1;
        }
        Ok(())
    }

    /// Maps a site-set scope onto stored keys: every stored key whose
    /// claimed sites lie inside the scope composes it; scope sites no
    /// such key claims are reported missing. `None` = all sites (the
    /// relay's full stored set).
    pub fn compose(&self, wanted: Option<&[u16]>) -> Compose {
        match wanted {
            None => {
                let live = self.live_coverage();
                Compose {
                    keys: None,
                    missing: self.expected.difference(&live).copied().collect(),
                }
            }
            Some(sites) => {
                let scope: BTreeSet<u16> = sites.iter().copied().collect();
                let mut keys = Vec::new();
                let mut covered: BTreeSet<u16> = BTreeSet::new();
                for (key, claimed) in &self.provenance {
                    if self.collector.stores_site(*key) && claimed.is_subset(&scope) {
                        keys.push(*key);
                        covered.extend(claimed.iter().copied());
                    }
                }
                Compose {
                    keys: Some(keys),
                    missing: scope.difference(&covered).copied().collect(),
                }
            }
        }
    }

    /// The wall-clock export scheduler: exports every window whose end
    /// lies at least [`ExportConfig::linger_ms`] behind `now_ms` and
    /// whose content advanced since the last export — so a window that
    /// keeps receiving late downstream frames keeps re-exporting
    /// (incrementally, under [`ExportMode::Delta`]) instead of
    /// silently diverging from the upstream.
    pub fn drain_exports_at(&mut self, now_ms: u64) -> Vec<Summary> {
        let linger = self.cfg.export.linger_ms;
        self.export_ready(|start, span| export_due_at(start, span, linger) <= now_ms)
    }

    /// When [`Relay::drain_exports_at`] next has something to export:
    /// the earliest end-plus-linger among windows whose content moved
    /// past their last export. A time at or before now means a window
    /// is due already (content that arrived after its window became
    /// due, or a rewound window); `None` when nothing waits to export.
    pub fn next_export_due(&self) -> Option<u64> {
        let span = self.span_ms?;
        let linger = self.cfg.export.linger_ms;
        self.windows
            .iter()
            .filter(|(_, st)| st.content_epoch > st.exported_epoch)
            .map(|(&start, _)| export_due_at(start, span, linger))
            .min()
    }

    /// Exports every window with unshipped content, regardless of
    /// watermarks (end of trace / shutdown).
    pub fn flush_exports(&mut self) -> Vec<Summary> {
        self.export_ready(|_, _| true)
    }

    /// Drops every pinned re-aggregation base (simulating a restart or
    /// memory-pressure shedding). Windows that change afterwards fall
    /// back to a full rebasing export — the stream stays correct, it
    /// just pays full-frame bytes once per affected window.
    pub fn drop_export_bases(&mut self) {
        for st in self.windows.values_mut() {
            st.base = None;
        }
        self.journal_append(crate::journal::Record::DropBases);
    }

    /// Retention: drops every stored window (collector trees, epoch
    /// ledger, export state, pinned bases) starting before
    /// `cutoff_ms`. Without this a long-running relay accumulates one
    /// `WindowState` per window forever. Returns how many collector
    /// windows were evicted.
    ///
    /// Epoch **continuity** survives eviction (a bounded map of
    /// evicted windows' content epochs): a frame re-arriving later
    /// resumes the chain and re-exports strictly past whatever the
    /// upstream holds — restarting at epoch 1 would be rejected as
    /// stale forever. The re-export carries only the re-arrived
    /// content (the evicted trees are gone); an upstream with longer
    /// retention is replaced wholesale — the relay is authoritative
    /// for its subtree.
    ///
    /// A cutoff that evicts nothing changes nothing and journals
    /// nothing.
    pub fn evict_windows_before(&mut self, cutoff_ms: u64) -> usize {
        if self.oldest_window().is_none_or(|start| start >= cutoff_ms) {
            return 0;
        }
        let keep = self.windows.split_off(&cutoff_ms);
        for (start, st) in std::mem::replace(&mut self.windows, keep) {
            self.evicted_epochs.insert(start, st.content_epoch);
        }
        while self.evicted_epochs.len() > Self::MAX_EVICTED_EPOCHS {
            self.evicted_epochs.pop_first();
        }
        let dropped = self.collector.evict_windows_before(cutoff_ms);
        self.journal_append(crate::journal::Record::Evict(cutoff_ms));
        dropped
    }

    /// When retention with horizon `retention_ms` next evicts
    /// something: the first time the oldest stored window starts more
    /// than `retention_ms` in the past. `None` when nothing is stored
    /// or retention is off (0).
    pub fn next_eviction_due(&self, retention_ms: u64) -> Option<u64> {
        if retention_ms == 0 {
            return None;
        }
        self.oldest_window()
            .map(|start| start.saturating_add(retention_ms).saturating_add(1))
    }

    /// The oldest window with any state here: export state, a stored
    /// tree, or an epoch ledger entry.
    fn oldest_window(&self) -> Option<u64> {
        let export = self.windows.keys().next().copied();
        export
            .into_iter()
            .chain(self.collector.oldest_window_start())
            .min()
    }

    /// Tells the relay that previously drained exports for a window
    /// were **lost in transit** (a shipper shedding its pending buffer
    /// calls this): the window's export state rewinds so its next
    /// drain re-exports the whole aggregate as a full rebasing frame —
    /// strictly advancing past anything the upstream received, so the
    /// chain heals instead of forking.
    pub fn mark_unshipped(&mut self, window_start_ms: u64) {
        if let Some(st) = self.windows.get_mut(&window_start_ms) {
            st.exported_epoch = 0;
            st.base = None;
            self.journal_append(crate::journal::Record::MarkUnshipped(window_start_ms));
        }
    }

    /// A downstream peer sent a rebase-request for this window: its
    /// epoch ledger is behind our export chain (it restarted, or its
    /// retention is shorter). Rewind the window so the next drain
    /// re-exports a full rebasing frame — the chain heals instead of
    /// orphaning deltas. Returns whether the window was known;
    /// requests for unknown windows (hostile, or evicted here too) are
    /// ignored.
    pub fn request_rebase(&mut self, window_start_ms: u64) -> bool {
        if self.windows.contains_key(&window_start_ms) {
            self.ledger.rebase_rewinds += 1;
            self.mark_unshipped(window_start_ms);
            true
        } else {
            false
        }
    }

    /// Records that the upstream **acknowledged applying** this
    /// window at `epoch` (from an ack control frame). The gap between
    /// a window's drained and acknowledged epochs is exactly what
    /// [`Relay::rewind_unacked_exports`] heals after a restart.
    pub fn note_shipped(&mut self, window_start_ms: u64, epoch: u64) {
        if let Some(st) = self.windows.get_mut(&window_start_ms) {
            st.shipped_epoch = st.shipped_epoch.max(epoch);
            self.journal_append(crate::journal::Record::Shipped {
                start: window_start_ms,
                epoch,
            });
        }
    }

    /// Takes one event of the relay's export shipper: a connection
    /// attempt into the ledger, an upstream ack as
    /// [`Relay::note_shipped`], a rebase-request as
    /// [`Relay::request_rebase`]. Returns whether a rebase-request was
    /// honored (false for every other event).
    pub fn on_ship_event(&mut self, ev: ShipEvent) -> bool {
        match ev {
            ShipEvent::Reconnect { ok, waited_ms } => {
                self.ledger.reconnect_attempts += 1;
                self.ledger.reconnect_failures += u64::from(!ok);
                self.ledger.backoff_ms_total += waited_ms;
            }
            ShipEvent::Shipped(pos) => self.note_shipped(pos.window_start_ms, pos.epoch),
            ShipEvent::Rebase(pos) => return self.request_rebase(pos.window_start_ms),
        }
        false
    }

    /// Rewinds every window whose drained exports were never
    /// acknowledged, so the next drain re-exports it as a full
    /// rebasing frame. **Opt-in at restart, and only when an upstream
    /// exists**: an acking upstream dedupes the replays idempotently,
    /// but a relay whose exports are consumed directly (a root) must
    /// not rewind — it would re-emit frames nobody deduplicates.
    /// Returns how many windows rewound.
    pub fn rewind_unacked_exports(&mut self) -> usize {
        let starts: Vec<u64> = self
            .windows
            .iter()
            .filter(|(_, st)| st.exported_epoch > st.shipped_epoch)
            .map(|(start, _)| *start)
            .collect();
        for &start in &starts {
            self.mark_unshipped(start);
        }
        starts.len()
    }

    /// Feeds a spill-bound shed into the ledger: `frames` pending
    /// exports (carrying `bytes` payload bytes) were dropped by the
    /// spill queue's byte bound and their windows rewound to rebase.
    /// Surfaced so operators can *see* accounted loss — before this,
    /// sheds were counted only inside the spill queue.
    pub fn note_spill_shed(&mut self, frames: u64, bytes: u64) {
        self.ledger.spill_sheds += frames;
        self.ledger.spill_shed_bytes += bytes;
    }

    /// Applies a live export-scheduler reconfiguration (mode, linger,
    /// base bounds) without a restart. Takes effect on the next drain:
    /// already-pinned bases stay valid under either mode, and a window
    /// exported full under the old config simply continues its epoch
    /// chain under the new one. The config is *not* journaled — a
    /// restarted node boots with whatever its spec then says, which is
    /// exactly the reload-source-of-truth an operator expects.
    pub fn set_export_config(&mut self, export: ExportConfig) {
        self.cfg.export = export;
    }

    /// The shared drain: every window `ready` admits whose content
    /// epoch moved past its exported epoch ships one frame, oldest
    /// window first.
    fn export_ready<F: Fn(u64, u64) -> bool>(&mut self, ready: F) -> Vec<Summary> {
        let Some(span) = self.span_ms else {
            return Vec::new();
        };
        let due: Vec<u64> = self
            .windows
            .iter()
            .filter(|(start, st)| st.content_epoch > st.exported_epoch && ready(**start, span))
            .map(|(start, _)| *start)
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for &start in &due {
            out.push(self.export_window(start, span));
        }
        self.trim_bases();
        if !due.is_empty() {
            self.journal_append(crate::journal::Record::ExportBatch(&due));
        }
        out
    }

    /// WAL replay of one recorded export batch: re-runs the export
    /// state transitions (epoch advance, base pinning, seq, ledger)
    /// deterministically and discards the produced frames — they were
    /// already handed to the shipper before the crash, and anything
    /// that never made it out is healed by the ack/rewind machinery.
    pub(crate) fn replay_export_batch(&mut self, starts: &[u64]) {
        let Some(span) = self.span_ms else {
            return;
        };
        for &start in starts {
            if self.windows.contains_key(&start) {
                let _ = self.export_window(start, span);
            }
        }
        self.trim_bases();
    }

    /// Builds one export frame for a window and advances its export
    /// state: a delta against the pinned base when the mode, the
    /// base's presence, monotone content, and the encoded size all
    /// agree — a full (rebasing) frame otherwise.
    fn export_window(&mut self, start: u64, span: u64) -> Summary {
        let mut current = self.collector.merged(None, start, start + span);
        let provenance: Vec<u16> = self.collector.window_coverage(start).into_iter().collect();
        debug_assert!(!provenance.is_empty(), "exportable windows have content");
        let delta_mode = self.cfg.export.mode == ExportMode::Delta;
        let st = self.windows.get_mut(&start).expect("scheduled window");
        let epoch = st.content_epoch;

        let mut delta_frame: Option<(FlowTree, u64)> = None;
        if delta_mode && st.exported_epoch > 0 {
            match st.base.take() {
                Some((base_epoch, base_tree)) => {
                    let mut delta = current.clone();
                    delta
                        .diff_many(&[&base_tree])
                        .expect("one relay, one schema");
                    if !is_monotone(&delta) || delta.encoded_size() >= current.encoded_size() {
                        // Masses left the window (a downstream
                        // replaced it) or the delta failed to undercut
                        // the full frame: rebase.
                        self.ledger.delta_fallbacks += 1;
                    } else {
                        delta_frame = Some((delta, base_epoch));
                    }
                }
                None => {
                    self.ledger.base_losses += 1;
                }
            }
        }
        st.exported_epoch = epoch;
        // Pin the new base without paying an avoidable full-tree copy
        // on the steady-state delta path: when the delta ships,
        // `current` moves into the pin; only a full frame (which ships
        // `current` itself) needs the clone. Either way `current` is
        // only read from here on — diffed against as a base, encoded
        // as a frame — so it is frozen first (and its clone with it).
        current.shrink_to_fit();
        let (kind, tree, base) = match delta_frame {
            Some((delta, base_epoch)) => {
                if delta_mode {
                    st.base = Some((epoch, current));
                }
                (SummaryKind::Delta, delta, Some(base_epoch))
            }
            None => {
                if delta_mode {
                    st.base = Some((epoch, current.clone()));
                }
                (SummaryKind::Full, current, None)
            }
        };
        self.seq += 1;
        let summary = Summary {
            site: self.cfg.agg_site,
            window: WindowId {
                start_ms: start,
                span_ms: span,
            },
            seq: self.seq,
            kind,
            lineage: Some(Lineage {
                provenance,
                epoch: EpochHeader { epoch, base },
            }),
            tree,
        };
        // Arithmetic size: the caller encodes once to ship; the ledger
        // must not pay a second full serialization.
        let bytes = summary.encoded_size() as u64;
        self.ledger.exported += 1;
        self.ledger.exported_bytes += bytes;
        match kind {
            SummaryKind::Full => {
                self.ledger.full_exports += 1;
                self.ledger.full_export_bytes += bytes;
            }
            SummaryKind::Delta => {
                self.ledger.delta_exports += 1;
                self.ledger.delta_export_bytes += bytes;
            }
        }
        summary
    }

    /// Bounds the pinned bases two ways — entry count
    /// ([`ExportConfig::max_bases`]) and total tree nodes
    /// ([`ExportConfig::max_base_nodes`]) — shedding the oldest
    /// windows' bases first until both hold.
    fn trim_bases(&mut self) {
        let max = self.cfg.export.max_bases;
        let max_nodes = self.cfg.export.max_base_nodes;
        let mut pinned = 0usize;
        let mut nodes = 0usize;
        for st in self.windows.values() {
            if let Some((_, tree)) = &st.base {
                pinned += 1;
                nodes += tree.len();
            }
        }
        let over =
            |pinned: usize, nodes: usize| pinned > max || (max_nodes != 0 && nodes > max_nodes);
        if !over(pinned, nodes) {
            return;
        }
        for st in self.windows.values_mut() {
            if !over(pinned, nodes) {
                break;
            }
            if let Some((_, tree)) = st.base.take() {
                pinned -= 1;
                nodes -= tree.len();
            }
        }
    }

    /// The export-scheduler configuration.
    pub fn export_config(&self) -> &ExportConfig {
        &self.cfg.export
    }

    /// The real sites actually folded into one window — per-window
    /// truth from the embedded collector's epoch ledger, never a
    /// lifetime union. A site that reported other windows but not this
    /// one is absent here (and from this window's export provenance).
    pub fn window_coverage(&self, window_start_ms: u64) -> BTreeSet<u16> {
        self.collector.window_coverage(window_start_ms)
    }

    /// The merged view of a composed scope (delegates to the embedded
    /// collector's cached-view layer).
    pub fn merged_view(
        &self,
        keys: Option<&[u16]>,
        from_ms: u64,
        to_ms: u64,
    ) -> std::sync::Arc<FlowTree> {
        self.collector.merged_view(keys, from_ms, to_ms)
    }

    /// If the attached journal hit an unrecoverable I/O error, what it
    /// was. The relay keeps serving (availability over durability) but
    /// crash-safety is void until the operator intervenes.
    pub fn journal_error(&self) -> Option<&str> {
        self.journal.as_ref().and_then(|j| j.error())
    }

    /// Windows the export scheduler currently tracks (retention has
    /// not evicted them).
    pub fn stored_window_count(&self) -> usize {
        self.windows.len()
    }

    /// The export watermark lag at `now_ms`: how far behind wall time
    /// the oldest window with *unexported* content is, measured from
    /// that window's end. 0 = every stored window's content has been
    /// drained for export (the node is keeping up), or nothing is
    /// stored. A lag that only grows across scrapes is the fleet-level
    /// signal that an upstream outage (or a stuck scheduler) is
    /// pinning windows.
    pub fn export_watermark_lag_ms(&self, now_ms: u64) -> u64 {
        let span = self.span_ms.unwrap_or(0);
        self.windows
            .iter()
            .find(|(_, st)| st.content_epoch > st.exported_epoch)
            .map(|(start, _)| now_ms.saturating_sub(start.saturating_add(span)))
            .unwrap_or(0)
    }

    fn journal_append(&mut self, rec: crate::journal::Record<'_>) {
        let wants_compact = match self.journal.as_mut() {
            Some(j) => {
                j.append(rec);
                j.wants_compact()
            }
            None => false,
        };
        if wants_compact {
            crate::journal::compact(self);
        }
    }

    pub(crate) fn journal_mut(&mut self) -> &mut Option<crate::journal::JournalWriter> {
        &mut self.journal
    }

    pub(crate) fn collector_mut(&mut self) -> &mut Collector {
        &mut self.collector
    }

    /// Everything beyond the collector's stored slots that a snapshot
    /// must carry to restore this relay exactly.
    pub(crate) fn snapshot_state(&self) -> RelayState {
        RelayState {
            span_ms: self.span_ms,
            seq: self.seq,
            provenance: self
                .provenance
                .iter()
                .map(|(k, v)| (*k, v.iter().copied().collect()))
                .collect(),
            windows: self
                .windows
                .iter()
                .map(|(start, st)| {
                    (
                        *start,
                        st.content_epoch,
                        st.exported_epoch,
                        st.shipped_epoch,
                    )
                })
                .collect(),
            evicted: self.evicted_epochs.iter().map(|(k, v)| (*k, *v)).collect(),
            ledger: self.ledger,
        }
    }

    /// Restores the snapshot half of recovery (the collector's slots
    /// are re-applied separately). Pinned bases are deliberately not
    /// persisted: the first post-restart change of an affected window
    /// pays one full rebasing frame and the chain continues.
    pub(crate) fn restore_state(&mut self, s: RelayState) {
        self.span_ms = s.span_ms;
        self.seq = s.seq;
        self.provenance = s
            .provenance
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect();
        self.windows = s
            .windows
            .into_iter()
            .map(|(start, content, exported, shipped)| {
                (
                    start,
                    WindowState {
                        content_epoch: content,
                        exported_epoch: exported,
                        shipped_epoch: shipped,
                        base: None,
                    },
                )
            })
            .collect();
        self.evicted_epochs = s.evicted.into_iter().collect();
        self.ledger = s.ledger;
    }
}

/// The relay-side state a journal snapshot serializes (see
/// [`Relay::snapshot_state`]).
pub(crate) struct RelayState {
    pub(crate) span_ms: Option<u64>,
    pub(crate) seq: u64,
    pub(crate) provenance: Vec<(u16, Vec<u16>)>,
    /// (start, content_epoch, exported_epoch, shipped_epoch).
    pub(crate) windows: Vec<(u64, u64, u64, u64)>,
    pub(crate) evicted: Vec<(u64, u64)>,
    pub(crate) ledger: RelayLedger,
}

/// The wall-clock time a window becomes exportable under
/// [`Relay::drain_exports_at`]: its end plus the linger.
fn export_due_at(start: u64, span: u64, linger_ms: u64) -> u64 {
    start.saturating_add(span).saturating_add(linger_ms)
}

/// Whether every node mass of a diff tree is non-negative — i.e. the
/// window's content only grew since the base. A delta with negative
/// masses means a downstream replaced or shrank a window; shipping it
/// could leave ghost structure upstream that a full rebuild would not
/// materialize, so the exporter rebases instead.
fn is_monotone(delta: &FlowTree) -> bool {
    delta
        .iter()
        .all(|v| v.comp.packets >= 0 && v.comp.bytes >= 0 && v.comp.flows >= 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkey::FlowKey;
    use flowtree_core::Popularity;

    const SPAN: u64 = 1_000;

    /// A site's frame for `window` at content epoch `epoch` (its seq
    /// too): a re-send of a window with new content takes a higher one.
    fn site_summary(site: u16, window: u64, hosts: std::ops::Range<u8>, epoch: u64) -> Summary {
        let schema = Schema::five_feature();
        let mut tree = FlowTree::new(schema, Config::with_budget(4_096));
        for h in hosts {
            let key: FlowKey =
                format!("src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                    .parse()
                    .unwrap();
            tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
        }
        Summary {
            site,
            window: WindowId {
                start_ms: window * SPAN,
                span_ms: SPAN,
            },
            seq: epoch,
            kind: SummaryKind::Full,
            lineage: Some(Lineage {
                provenance: vec![site],
                epoch: EpochHeader { epoch, base: None },
            }),
            tree,
        }
    }

    /// `s` re-labelled as an aggregate claiming `sites`.
    fn claiming(mut s: Summary, sites: Vec<u16>) -> Summary {
        s.lineage.as_mut().expect("v3").provenance = sites;
        s
    }

    fn relay(name: &str, agg: u16, expected: &[u16]) -> Relay {
        relay_with(name, agg, expected, ExportConfig::default())
    }

    fn relay_with(name: &str, agg: u16, expected: &[u16], export: ExportConfig) -> Relay {
        Relay::new(RelayConfig {
            name: name.into(),
            agg_site: agg,
            expected: expected.to_vec(),
            schema: Schema::five_feature(),
            tree: Config::with_budget(100_000),
            export,
        })
    }

    #[test]
    fn aggregates_carry_provenance_and_match_local_merge() {
        let mut r = relay("a", 100, &[0, 1, 2]);
        for w in 0..3u64 {
            for s in 0..3u16 {
                r.apply(site_summary(s, w, 0..4, w + 1)).unwrap();
            }
        }
        // At the end of window 1 (no linger) windows 0 and 1 are due.
        let exports = r.drain_exports_at(2 * SPAN);
        assert_eq!(exports.len(), 2);
        for (i, e) in exports.iter().enumerate() {
            assert_eq!(e.site, 100);
            assert_eq!(e.window.start_ms, i as u64 * SPAN);
            assert_eq!(e.provenance(), Some(&[0u16, 1, 2][..]));
            let local = r
                .collector()
                .merged(None, e.window.start_ms, e.window.end_ms());
            assert_eq!(e.tree.encode(), local.encode());
        }
        // Nothing re-exports; the last window flushes at shutdown.
        assert!(r.drain_exports_at(2 * SPAN).is_empty());
        let rest = r.flush_exports();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window.start_ms, 2 * SPAN);
        assert_eq!(r.ledger().exported, 3);
        // The ledger's arithmetic byte accounting equals the real
        // frame sizes.
        let wire: u64 = exports
            .iter()
            .chain(rest.iter())
            .map(|e| e.encode().len() as u64)
            .sum();
        assert_eq!(r.ledger().exported_bytes, wire);
    }

    #[test]
    fn dead_downstream_degrades_coverage_not_exports() {
        let mut r = relay("a", 100, &[0, 1, 2]);
        // Site 2 never reports.
        for w in 0..2u64 {
            for s in 0..2u16 {
                r.apply(site_summary(s, w, 0..2, w + 1)).unwrap();
            }
        }
        assert_eq!(
            r.live_coverage(),
            [0u16, 1].into_iter().collect::<BTreeSet<_>>()
        );
        let exports = r.flush_exports();
        assert_eq!(exports.len(), 2);
        assert_eq!(exports[0].provenance(), Some(&[0u16, 1][..]));
        let c = r.compose(None);
        assert_eq!(c.missing, vec![2]);
    }

    #[test]
    fn coverage_and_overlap_violations_are_rejected_and_counted() {
        let mut r = relay("a", 100, &[0, 1]);
        // Site outside coverage.
        let err = r.apply(site_summary(7, 0, 0..2, 1));
        assert!(matches!(
            err,
            Err(RelayError::CoverageViolation { site: 7 })
        ));
        // A child aggregate claiming site 0…
        let agg = claiming(site_summary(50, 0, 0..2, 1), vec![0]);
        // …but 50 is outside expected coverage? Use agg id inside none —
        // coverage checks claimed sites, not the carrier id.
        r.apply(agg).unwrap();
        // …then a plain frame for site 0 from a different key: overlap.
        let err = r.apply(site_summary(0, 0, 0..2, 1));
        assert!(matches!(
            err,
            Err(RelayError::OverlappingProvenance { site: 0 })
        ));
        // Hostile bytes.
        assert!(r.ingest_frame(b"junkjunkjunk").is_err());
        assert_eq!(r.ledger().rejected, 3);
        assert_eq!(r.ledger().frames, 1);
    }

    #[test]
    fn span_mismatch_and_late_downstream_are_flagged() {
        let mut r = relay("a", 100, &[0, 1]);
        r.apply(site_summary(0, 0, 0..2, 1)).unwrap();
        let mut odd = site_summary(1, 0, 0..2, 1);
        odd.window.span_ms = 2_000;
        assert!(matches!(r.apply(odd), Err(RelayError::SpanMismatch)));
        // Export window 0, then site 1 reports it late.
        r.apply(site_summary(0, 1, 0..2, 2)).unwrap();
        let _ = r.flush_exports();
        r.apply(site_summary(1, 0, 0..2, 1)).unwrap();
        assert_eq!(r.ledger().late_downstream, 1);
    }

    /// Applies a delta/full export stream to a collector and returns
    /// it (the upstream's view of this relay).
    fn collect(frames: &[Summary]) -> Collector {
        let mut c = Collector::new(Schema::five_feature(), Config::with_budget(100_000));
        for f in frames {
            c.apply_bytes(&f.encode()).unwrap();
        }
        c
    }

    #[test]
    fn late_frames_re_export_incrementally_as_deltas() {
        let mut r = relay("a", 100, &[0, 1, 2]);
        // Sites 0 and 1 deliver window 0; wall clock passes its end.
        r.apply(site_summary(0, 0, 0..3, 1)).unwrap();
        r.apply(site_summary(1, 0, 0..3, 1)).unwrap();
        let first = r.drain_exports_at(SPAN);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, SummaryKind::Full);
        assert_eq!(first[0].provenance(), Some(&[0u16, 1][..]));
        assert_eq!(first[0].epoch().unwrap().epoch, 2);
        // Nothing changed: nothing re-exports.
        assert!(r.drain_exports_at(10 * SPAN).is_empty());

        // Site 2 lands late: the window re-exports as a delta against
        // the pinned base.
        r.apply(site_summary(2, 0, 0..4, 1)).unwrap();
        assert_eq!(r.ledger().late_downstream, 1);
        let second = r.drain_exports_at(10 * SPAN);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].kind, SummaryKind::Delta);
        assert_eq!(
            second[0].epoch().unwrap(),
            flowdist::EpochHeader {
                epoch: 3,
                base: Some(2)
            }
        );
        // Per-window provenance now names all three sites.
        assert_eq!(second[0].provenance(), Some(&[0u16, 1, 2][..]));
        // The delta carries (roughly) one site's worth of bytes.
        assert!(
            second[0].encoded_size() < first[0].encoded_size(),
            "delta {} vs full {}",
            second[0].encoded_size(),
            first[0].encoded_size()
        );
        assert_eq!(r.ledger().delta_exports, 1);
        assert_eq!(r.ledger().full_exports, 1);

        // An upstream applying the stream reconstructs the full merge.
        let upstream = collect(&[first[0].clone(), second[0].clone()]);
        assert_eq!(
            upstream.window_tree(0, 100).unwrap().encode(),
            r.collector().merged(None, 0, SPAN).encode()
        );
        assert_eq!(upstream.window_coverage(0).len(), 3);
    }

    #[test]
    fn replacement_falls_back_to_a_full_rebase() {
        let mut r = relay("a", 100, &[0, 1]);
        r.apply(site_summary(0, 0, 0..4, 1)).unwrap();
        let first = r.flush_exports();
        assert_eq!(first[0].kind, SummaryKind::Full);
        // The downstream replaces window 0 with *less* content at a
        // higher epoch: the delta would be non-monotone, so the relay
        // rebases.
        r.apply(site_summary(0, 0, 0..2, 2)).unwrap();
        let second = r.flush_exports();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].kind, SummaryKind::Full);
        assert_eq!(second[0].epoch().unwrap().base, None);
        assert_eq!(r.ledger().delta_fallbacks, 1);
        // The upstream replaces wholesale and matches the relay.
        let upstream = collect(&[first[0].clone(), second[0].clone()]);
        assert_eq!(
            upstream.window_tree(0, 100).unwrap().encode(),
            r.collector().merged(None, 0, SPAN).encode()
        );
    }

    #[test]
    fn base_loss_falls_back_to_a_full_rebase_and_recovers() {
        let mut r = relay("a", 100, &[0, 1]);
        r.apply(site_summary(0, 0, 0..3, 1)).unwrap();
        let _ = r.flush_exports();
        r.drop_export_bases();
        r.apply(site_summary(1, 0, 0..3, 1)).unwrap();
        let rebase = r.flush_exports();
        assert_eq!(rebase[0].kind, SummaryKind::Full);
        assert_eq!(r.ledger().base_losses, 1);
        // The next increment deltas off the re-pinned base again.
        r.apply(site_summary(0, 0, 0..5, 2)).unwrap(); // replacement: fallback
        let _ = r.flush_exports();
        r.apply(site_summary(1, 1, 0..2, 2)).unwrap();
        r.apply(site_summary(1, 0, 0..3, 3)).unwrap(); // overlap? no: same key
        let out = r.flush_exports();
        assert!(!out.is_empty());
    }

    #[test]
    fn wall_clock_linger_holds_fresh_windows_back() {
        let mut r = relay_with(
            "a",
            100,
            &[0],
            ExportConfig {
                linger_ms: 500,
                ..ExportConfig::default()
            },
        );
        r.apply(site_summary(0, 0, 0..2, 1)).unwrap();
        assert!(r.drain_exports_at(SPAN).is_empty(), "inside the linger");
        assert!(r.drain_exports_at(SPAN + 499).is_empty());
        let out = r.drain_exports_at(SPAN + 500);
        assert_eq!(out.len(), 1);
    }

    /// The scheduler's export deadline, as a pure function of state:
    /// `drain_exports_at(now)` exports exactly when `now` reached it.
    #[test]
    fn next_export_due_tracks_linger_and_late_content() {
        let mut r = relay_with(
            "a",
            100,
            &[0, 1],
            ExportConfig {
                linger_ms: 500,
                ..ExportConfig::default()
            },
        );
        assert_eq!(r.next_export_due(), None, "nothing stored");
        r.apply(site_summary(0, 0, 0..2, 1)).unwrap();
        r.apply(site_summary(0, 2, 0..2, 1)).unwrap();
        // Linger not yet due: window 0 ends at SPAN, plus 500.
        let due = r.next_export_due().expect("window 0 pending");
        assert_eq!(due, SPAN + 500);
        assert!(r.drain_exports_at(due - 1).is_empty());
        assert_eq!(r.drain_exports_at(due).len(), 1);
        // Window 0 is exported; window 2 is next.
        assert_eq!(r.next_export_due(), Some(3 * SPAN + 500));
        // Content that arrives after its window became due is due at
        // once: the deadline lies in the past.
        let now = 3 * SPAN;
        r.apply(site_summary(1, 0, 0..2, 1)).unwrap();
        assert_eq!(r.next_export_due(), Some(SPAN + 500));
        assert!(r.next_export_due().unwrap() <= now);
        assert_eq!(r.drain_exports_at(now).len(), 1, "the late content ships");
        assert_eq!(r.next_export_due(), Some(3 * SPAN + 500));
        r.flush_exports();
        assert_eq!(r.next_export_due(), None, "nothing pending");
    }

    #[test]
    fn next_eviction_due_is_just_past_the_oldest_window_plus_retention() {
        let mut r = relay("a", 100, &[0]);
        assert_eq!(r.next_eviction_due(10 * SPAN), None, "nothing stored");
        r.apply(site_summary(0, 2, 0..2, 1)).unwrap();
        r.apply(site_summary(0, 5, 0..2, 1)).unwrap();
        assert_eq!(r.next_eviction_due(0), None, "retention off");
        let due = r.next_eviction_due(10 * SPAN).unwrap();
        assert_eq!(due, 2 * SPAN + 10 * SPAN + 1);
        // The scheduler's cutoff at `due - 1` evicts nothing; at `due`
        // it evicts window 2, and the deadline moves to window 5.
        assert_eq!(r.evict_windows_before((due - 1) - 10 * SPAN), 0);
        assert_eq!(r.evict_windows_before(due - 10 * SPAN), 1);
        assert_eq!(r.next_eviction_due(10 * SPAN), Some(15 * SPAN + 1));
    }

    #[test]
    fn full_mode_re_exports_whole_aggregates() {
        let mut r = relay_with(
            "a",
            100,
            &[0, 1],
            ExportConfig {
                mode: ExportMode::Full,
                ..ExportConfig::default()
            },
        );
        r.apply(site_summary(0, 0, 0..3, 1)).unwrap();
        let first = r.flush_exports();
        r.apply(site_summary(1, 0, 0..3, 1)).unwrap();
        let second = r.flush_exports();
        assert_eq!(second[0].kind, SummaryKind::Full);
        assert_eq!(second[0].epoch().unwrap().epoch, 2);
        assert_eq!(r.ledger().delta_exports, 0);
        let upstream = collect(&[first[0].clone(), second[0].clone()]);
        assert_eq!(
            upstream.window_tree(0, 100).unwrap().encode(),
            r.collector().merged(None, 0, SPAN).encode()
        );
    }

    #[test]
    fn max_bases_bound_sheds_oldest_pins() {
        let mut r = relay_with(
            "a",
            100,
            &[0, 1],
            ExportConfig {
                max_bases: 2,
                ..ExportConfig::default()
            },
        );
        for w in 0..4u64 {
            r.apply(site_summary(0, w, 0..2, w + 1)).unwrap();
        }
        let _ = r.flush_exports();
        // A late site lands in the oldest window: its base was shed,
        // so the re-export is a full rebase, not a delta.
        r.apply(site_summary(1, 0, 0..4, 9)).unwrap();
        let out = r.flush_exports();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, SummaryKind::Full);
        assert_eq!(r.ledger().base_losses, 1);
        // The newest window still has its base pinned.
        r.apply(site_summary(1, 3, 2..4, 10)).unwrap();
        let out = r.flush_exports();
        assert_eq!(out[0].kind, SummaryKind::Delta);
    }

    #[test]
    fn retention_evicts_windows_state_and_bases_together() {
        let mut r = relay("a", 100, &[0, 1]);
        for w in 0..4u64 {
            r.apply(site_summary(0, w, 0..2, w + 1)).unwrap();
        }
        let _ = r.flush_exports();
        assert_eq!(r.collector().stored_windows(), 4);
        let evicted = r.evict_windows_before(2 * SPAN);
        assert_eq!(evicted, 2);
        assert_eq!(r.collector().stored_windows(), 2);
        assert!(r.window_coverage(0).is_empty());
        // Nothing re-exports for the evicted range…
        assert!(r.flush_exports().is_empty());
        // …and a frame arriving for an evicted window **continues**
        // its epoch chain: window 0 had reached epoch 1, so the
        // re-export is a full rebase at epoch 2 — an upstream still
        // holding epoch 1 accepts it; a restart at epoch 1 would be
        // rejected as stale forever.
        r.apply(site_summary(1, 0, 0..3, 9)).unwrap();
        let out = r.flush_exports();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, SummaryKind::Full);
        assert_eq!(out[0].epoch().unwrap().epoch, 2);
        assert_eq!(out[0].provenance(), Some(&[1u16][..]));
        // An upstream that received the pre-eviction export composes
        // the whole stream without a single rejection.
        let mut upstream = relay("root", 200, &[0, 1]);
        let mut r2 = relay("a", 100, &[0, 1]);
        r2.apply(site_summary(0, 0, 0..2, 1)).unwrap();
        for e in r2.flush_exports() {
            upstream.ingest_frame(&e.encode()).unwrap();
        }
        r2.evict_windows_before(SPAN);
        r2.apply(site_summary(1, 0, 0..3, 9)).unwrap();
        for e in r2.flush_exports() {
            upstream.ingest_frame(&e.encode()).unwrap();
        }
        assert_eq!(upstream.ledger().rejected, 0);
        assert_eq!(upstream.collector().window_epoch(0, 100), 2);
    }

    #[test]
    fn mark_unshipped_forces_a_full_rebase_that_heals_the_chain() {
        let mut r = relay("a", 100, &[0, 1]);
        let mut upstream = relay("root", 200, &[0, 1]);
        r.apply(site_summary(0, 0, 0..2, 1)).unwrap();
        let first = r.flush_exports();
        upstream.ingest_frame(&first[0].encode()).unwrap();

        // The next two increments drain but are lost in transit.
        r.apply(site_summary(1, 0, 0..2, 1)).unwrap();
        let lost = r.flush_exports();
        assert_eq!(lost.len(), 1);
        // The shipper sheds them and rewinds the window.
        r.mark_unshipped(0);

        // The re-export is a full frame strictly past the upstream's
        // epoch; the chain heals with zero rejections.
        let heal = r.flush_exports();
        assert_eq!(heal.len(), 1);
        assert_eq!(heal[0].kind, SummaryKind::Full);
        assert!(heal[0].epoch().unwrap().epoch > first[0].epoch().unwrap().epoch);
        upstream.ingest_frame(&heal[0].encode()).unwrap();
        assert_eq!(upstream.ledger().rejected, 0);
        assert_eq!(
            upstream.collector().window_tree(0, 100).unwrap().encode(),
            r.collector().merged(None, 0, SPAN).encode()
        );
    }

    #[test]
    fn a_window_missing_one_site_no_longer_advertises_it() {
        // Sites 0 and 1 report windows 0 and 1; site 2 reports only
        // window 0. The lifetime union would advertise site 2 in both
        // exports — per-window provenance must not.
        let mut r = relay("a", 100, &[0, 1, 2]);
        for s in 0..3u16 {
            r.apply(site_summary(s, 0, 0..3, 1)).unwrap();
        }
        for s in 0..2u16 {
            r.apply(site_summary(s, 1, 0..3, 2)).unwrap();
        }
        let exports = r.flush_exports();
        assert_eq!(exports.len(), 2);
        assert_eq!(exports[0].provenance(), Some(&[0u16, 1, 2][..]));
        assert_eq!(
            exports[1].provenance(),
            Some(&[0u16, 1][..]),
            "window 1 must not advertise the site it never folded"
        );
        assert_eq!(
            r.window_coverage(SPAN).into_iter().collect::<Vec<_>>(),
            vec![0, 1]
        );
        // Lifetime coverage still counts site 2 as live.
        assert!(r.live_coverage().contains(&2));
    }

    #[test]
    fn compose_splits_scope_into_keys_and_missing() {
        let mut r = relay("root", 200, &[0, 1, 2, 3]);
        let a = claiming(site_summary(100, 0, 0..2, 1), vec![0, 1]);
        let b = claiming(site_summary(101, 0, 2..4, 1), vec![2]);
        r.apply(a).unwrap();
        r.apply(b).unwrap();
        // Full-group scopes compose from aggregates.
        let c = r.compose(Some(&[0, 1, 2]));
        assert_eq!(c.keys.as_deref(), Some(&[100u16, 101][..]));
        assert!(c.missing.is_empty());
        // A partial-group scope cannot use that group's aggregate.
        let c = r.compose(Some(&[0, 2]));
        assert_eq!(c.keys.as_deref(), Some(&[101u16][..]));
        assert_eq!(c.missing, vec![0]);
        // A dead site is missing.
        let c = r.compose(Some(&[2, 3]));
        assert_eq!(c.missing, vec![3]);
    }

    #[test]
    fn classified_ingest_acks_applies_and_dedupes_replays() {
        // Tier-1 relay producing v3 export frames…
        let mut a = relay("a", 100, &[0, 1]);
        for s in 0..2u16 {
            a.apply(site_summary(s, 0, 0..3, 1)).unwrap();
        }
        let first = a.flush_exports().remove(0);
        let bytes = first.encode();
        // …classified by its upstream.
        let mut b = relay("b", 200, &[0, 1]);
        let applied = b.ingest_classified(&bytes);
        let FrameOutcome::Applied(pos) = applied else {
            panic!("fresh frame must apply, got {applied:?}");
        };
        assert_eq!(
            (pos.window_start_ms, pos.exporter, pos.epoch),
            (0, 100, 2),
            "ack position names the applied slot (one content epoch per folded frame)"
        );
        // An at-least-once resend is acked at the stored position but
        // never re-applied.
        let replay = b.ingest_classified(&bytes);
        assert_eq!(replay, FrameOutcome::Replayed(pos));
        assert_eq!(b.ledger().replayed, 1);
        assert_eq!(b.collector().window_epoch(0, 100), 2);
        // Garbage is rejected without a position.
        assert_eq!(b.ingest_classified(b"junk"), FrameOutcome::Rejected);
    }

    #[test]
    fn a_restarted_sites_partial_resend_does_not_replace_its_window() {
        let mut b = relay("b", 200, &[0]);
        // The site's third window, shipped whole.
        let mut whole = site_summary(0, 0, 0..6, 1);
        whole.seq = 3;
        let applied = b.ingest_classified(&whole.encode());
        let FrameOutcome::Applied(pos) = applied else {
            panic!("a fresh site frame must apply, got {applied:?}");
        };
        assert_eq!((pos.exporter, pos.epoch), (0, 1));
        let stored = b.collector().window_tree(0, 0).unwrap().encode();
        // The site restarts, reopens that window for two late
        // stragglers and ships them at its first seq and epoch: a
        // replay, acked at the stored position, never applied.
        let partial = site_summary(0, 0, 4..6, 1).encode();
        assert_eq!(b.ingest_classified(&partial), FrameOutcome::Replayed(pos));
        assert_eq!(b.collector().window_tree(0, 0).unwrap().encode(), stored);
        assert_eq!((b.ledger().frames, b.ledger().replayed), (1, 1));
        // The window exports once, whole: 1 + 2 + … + 6 packets.
        let exports = b.flush_exports();
        assert_eq!(exports.len(), 1);
        assert_eq!(exports[0].tree.total().packets, 21);
    }

    #[test]
    fn orphan_delta_triggers_rebase_request_and_the_chain_heals() {
        let mut a = relay_with(
            "a",
            100,
            &[0, 1],
            ExportConfig {
                mode: ExportMode::Delta,
                ..ExportConfig::default()
            },
        );
        for s in 0..2u16 {
            a.apply(site_summary(s, 0, 0..3, 1)).unwrap();
        }
        let full = a.flush_exports().remove(0);
        // Late superset content → the next export is a delta (a
        // shrinking replacement would be non-monotone and rebase).
        a.apply(site_summary(0, 0, 0..6, 2)).unwrap();
        let delta = a.flush_exports().remove(0);
        assert_eq!(delta.kind, SummaryKind::Delta);

        // An upstream that applied both is fine…
        let mut b = relay("b", 200, &[0, 1]);
        assert!(matches!(
            b.ingest_classified(&full.encode()),
            FrameOutcome::Applied(_)
        ));
        assert!(matches!(
            b.ingest_classified(&delta.encode()),
            FrameOutcome::Applied(_)
        ));
        // …but an upstream that lost the base (restart, shorter
        // retention) answers the delta with a rebase-request carrying
        // what it actually holds: nothing.
        let mut fresh = relay("b2", 200, &[0, 1]);
        let outcome = fresh.ingest_classified(&delta.encode());
        let FrameOutcome::NeedsRebase(pos) = outcome else {
            panic!("orphan delta must request a rebase, got {outcome:?}");
        };
        assert_eq!(pos.epoch, 0);
        assert_eq!(fresh.ledger().rebase_requests, 1);

        // The sender honors it: rewind, re-export full, chain heals.
        assert!(a.request_rebase(delta.window.start_ms));
        assert_eq!(a.ledger().rebase_rewinds, 1);
        let rebased = a.flush_exports().remove(0);
        assert_eq!(rebased.kind, SummaryKind::Full);
        // A rewind replays the *same* content epoch as a full frame —
        // the chain repositions, it never forks forward.
        assert_eq!(rebased.epoch().unwrap().epoch, delta.epoch().unwrap().epoch);
        assert!(matches!(
            fresh.ingest_classified(&rebased.encode()),
            FrameOutcome::Applied(_)
        ));
        // The healed upstream now matches the one that never lost it.
        assert_eq!(
            fresh.merged_view(None, 0, SPAN).encode(),
            b.collector().merged(None, 0, SPAN).encode()
        );
        // Unknown windows are ignored, not invented.
        assert!(!a.request_rebase(999_000));
    }

    #[test]
    fn unacked_exports_rewind_only_until_shipped() {
        let mut a = relay("a", 100, &[0]);
        a.apply(site_summary(0, 0, 0..3, 1)).unwrap();
        let e = a.flush_exports().remove(0);
        let epoch = e.epoch().unwrap().epoch;
        // Drained but never acknowledged: a restart must rewind it.
        assert_eq!(a.rewind_unacked_exports(), 1);
        let again = a.flush_exports().remove(0);
        assert_eq!(again.kind, SummaryKind::Full);
        // The replay re-ships the same content epoch, as a full frame.
        assert_eq!(again.epoch().unwrap().epoch, epoch);
        // Acknowledged: nothing left to rewind.
        a.note_shipped(0, again.epoch().unwrap().epoch);
        assert_eq!(a.rewind_unacked_exports(), 0);
        assert!(a.flush_exports().is_empty());
    }

    #[test]
    fn base_pins_are_bounded_by_total_nodes() {
        // A one-node budget can never retain a pinned base, so every
        // export stays a full rebasing frame — bounded memory beats
        // delta bytes when the operator says so.
        let mut r = relay_with(
            "a",
            100,
            &[0],
            ExportConfig {
                mode: ExportMode::Delta,
                max_bases: 1_000,
                max_base_nodes: 1,
                ..ExportConfig::default()
            },
        );
        for seq in 1..=3u64 {
            r.apply(site_summary(0, 0, 0..(seq as u8 * 2), seq))
                .unwrap();
            let e = r.flush_exports().remove(0);
            assert_eq!(
                e.kind,
                SummaryKind::Full,
                "with the base shed, every re-export must rebase"
            );
        }
        assert!(r.ledger().base_losses >= 2);
    }

    /// The acknowledged path's admission over every case: epoch behind,
    /// at and ahead of the held one; full and delta; a delta's base
    /// matching, behind and ahead of what is held, and onto nothing.
    #[test]
    fn admission_table() {
        use Admission::{Apply, NeedsRebase, Replay};
        use SummaryKind::{Delta, Full};
        let eh = |epoch, base| EpochHeader { epoch, base };
        let table = [
            // (header, kind, held) → admission
            (eh(1, None), Full, 0, Apply),
            (eh(3, None), Full, 2, Apply),
            (eh(2, None), Full, 2, Replay),
            (eh(1, None), Full, 2, Replay),
            (eh(3, Some(2)), Delta, 2, Apply),
            (eh(3, Some(2)), Delta, 3, Replay),
            (eh(3, Some(2)), Delta, 5, Replay),
            (eh(3, Some(1)), Delta, 2, NeedsRebase),
            (eh(4, Some(3)), Delta, 2, NeedsRebase),
            (eh(2, Some(1)), Delta, 0, NeedsRebase),
        ];
        for (header, kind, held, want) in table {
            assert_eq!(
                admit(header, kind, held),
                want,
                "{header:?} {kind:?} onto {held}"
            );
        }
    }
}
