//! The per-site Flowtree daemon.
//!
//! Fig. 1 of the paper: "each router exports its data to a close-by
//! Flowtree daemon … to continuously construct summaries of the active
//! flows". A [`SiteDaemon`] ingests flow records (or per-packet masses),
//! maintains one Flowtree per open time window, and emits a [`Summary`]
//! whenever the event-time watermark closes a window — in full, as the
//! version-3 frame every site ships ([`Summary::site_full`]), or as a
//! version-1 delta against the previous window for a bare
//! [`crate::Collector`].

use crate::summary::{Summary, SummaryKind};
use crate::window::WindowId;
use flowkey::Schema;
use flownet::FlowRecord;
use flowtree_core::{Config, FlowTree, Popularity};
use std::collections::BTreeMap;

/// Full-vs-delta transfer policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Ship each window's complete tree as a version-3 frame at epoch
    /// 1 (what every site ships).
    #[default]
    Full,
    /// Ship the first window in full, then per-window deltas, as
    /// version-1 frames for a bare [`crate::Collector`].
    Delta,
}

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// This site's id.
    pub site: u16,
    /// Window span in milliseconds (the paper's drill-down granularity).
    pub window_ms: u64,
    /// Flow schema of the site trees.
    pub schema: Schema,
    /// Tree budget/policies.
    pub tree: Config,
    /// Transfer policy.
    pub transfer: TransferMode,
    /// Windows kept open to absorb event-time disorder before a window
    /// is considered closed (≥ 1).
    pub open_windows: usize,
}

impl DaemonConfig {
    /// A sensible default: 5-minute windows, paper-size trees.
    pub fn new(site: u16) -> DaemonConfig {
        DaemonConfig {
            site,
            window_ms: 300_000,
            schema: Schema::five_feature(),
            tree: Config::paper(),
            transfer: TransferMode::Full,
            open_windows: 2,
        }
    }
}

/// Counters the daemon keeps about its own work.
#[derive(Debug, Clone, Copy, Default)]
pub struct DaemonStats {
    /// Flow records ingested.
    pub records: u64,
    /// Raw ingest volume in bytes. Paths that see the wire (the
    /// streaming [`crate::pipeline`]) account actual export-packet
    /// bytes per format via [`SiteDaemon::note_raw_bytes`]; paths fed
    /// pre-decoded records count NetFlow v5 record equivalents
    /// ([`flownet::netflow5::RECORD_LEN`] per record).
    pub raw_bytes: u64,
    /// Summaries emitted.
    pub summaries: u64,
    /// Total encoded summary bytes emitted.
    pub summary_bytes: u64,
    /// Records dropped because they were older than any open window.
    pub late_drops: u64,
}

/// The per-site summarization daemon.
#[derive(Debug)]
pub struct SiteDaemon {
    cfg: DaemonConfig,
    open: BTreeMap<u64, FlowTree>,
    /// Last *emitted* window tree, base for delta encoding.
    last_emitted: Option<(u64, FlowTree)>,
    /// Node count of the last closed window: what the next window
    /// opened reserves, so steady ingest does not regrow its arena.
    last_nodes: usize,
    watermark_ms: u64,
    seq: u64,
    stats: DaemonStats,
}

impl SiteDaemon {
    /// Creates an idle daemon.
    pub fn new(cfg: DaemonConfig) -> SiteDaemon {
        assert!(cfg.open_windows >= 1, "need at least one open window");
        SiteDaemon {
            cfg,
            open: BTreeMap::new(),
            last_emitted: None,
            last_nodes: 0,
            watermark_ms: 0,
            seq: 0,
            stats: DaemonStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Work counters.
    pub fn stats(&self) -> &DaemonStats {
        &self.stats
    }

    /// Current event-time watermark (ms) — the newest record timestamp
    /// this daemon has seen, or the newest instant a caller vouched for
    /// through [`Self::advance_watermark`].
    pub fn watermark(&self) -> u64 {
        self.watermark_ms
    }

    /// The open window starting at `start_ms`, opened on first use:
    /// a fresh tree reserved for the previous window's final node
    /// count.
    fn window_tree(&mut self, start_ms: u64) -> &mut FlowTree {
        self.open.entry(start_ms).or_insert_with(|| {
            let mut t = FlowTree::new(self.cfg.schema, self.cfg.tree);
            t.reserve(self.last_nodes);
            t
        })
    }

    /// Currently open windows (oldest first).
    pub fn open_windows(&self) -> Vec<WindowId> {
        self.open
            .keys()
            .map(|&start_ms| WindowId {
                start_ms,
                span_ms: self.cfg.window_ms,
            })
            .collect()
    }

    /// Ingests one flow record; returns summaries of any windows that
    /// closed as a consequence of the advancing event time.
    pub fn ingest_record(&mut self, r: &FlowRecord) -> Vec<Summary> {
        self.stats.records += 1;
        self.stats.raw_bytes += flownet::netflow5::RECORD_LEN as u64;
        let key = r.flow_key();
        let pop = Popularity::flow(r.packets, r.bytes);
        self.ingest_mass(r.last_ms, &key, pop)
    }

    /// Ingests pre-keyed mass at an event time (per-packet path).
    pub fn ingest_mass(
        &mut self,
        ts_ms: u64,
        key: &flowkey::FlowKey,
        pop: Popularity,
    ) -> Vec<Summary> {
        let window = WindowId::containing(ts_ms, self.cfg.window_ms);
        let out = self.advance_watermark(ts_ms);
        // Late data: older than every open window → dropped (counted).
        let oldest_open = self.oldest_allowed();
        if window.start_ms < oldest_open {
            self.stats.late_drops += 1;
            return out;
        }
        let tree = self.window_tree(window.start_ms);
        tree.insert(key, pop);
        out
    }

    /// Ingests a batch of `(event_time_ms, key, mass)` items, routing
    /// **each item to the window containing its own timestamp** — the
    /// batch may span window boundaries freely (the streaming
    /// [`crate::pipeline`] feeds the daemon through the prehashed twin,
    /// [`Self::ingest_prehashed_batch`]). Items land
    /// in their windows *before* the watermark advances to the batch's
    /// newest timestamp, so an item whose window was open on arrival is
    /// never closed out from under its own batch: it is included in the
    /// summary this call may emit. Only items already older than every
    /// open window at call time are dropped (and counted). Returns
    /// summaries of any windows the advancing event time closed.
    ///
    /// Counts `records` but not `raw_bytes`: callers that saw the wire
    /// report actual bytes via [`Self::note_raw_bytes`]; others may add
    /// a [`flownet::netflow5::RECORD_LEN`]-per-record equivalent.
    pub fn ingest_stamped_batch(
        &mut self,
        items: &[(u64, flowkey::FlowKey, Popularity)],
    ) -> Vec<Summary> {
        let schema = self.cfg.schema;
        let hashed: Vec<(u64, u64, flowkey::FlowKey, Popularity)> = items
            .iter()
            .map(|(ts, k, p)| {
                let k = schema.canonicalize(k);
                (*ts, flowkey::key_hash(&k), k, *p)
            })
            .collect();
        self.ingest_prehashed_batch(&hashed)
    }

    /// [`Self::ingest_stamped_batch`] for items whose keys are
    /// **already canonicalized and hashed** — each item carries
    /// `(event_time_ms, key_hash, key, mass)`. The streaming pipeline
    /// hashes every record exactly once at decode time and this path
    /// indexes by that carried hash, so flush time does zero
    /// re-canonicalizing and re-hashing. Semantics (window routing,
    /// lateness, watermark, counters) are those of the stamped path,
    /// which hashes its items and calls this.
    pub fn ingest_prehashed_batch(
        &mut self,
        items: &[(u64, u64, flowkey::FlowKey, Popularity)],
    ) -> Vec<Summary> {
        if items.is_empty() {
            return Vec::new();
        }
        let span = self.cfg.window_ms;
        let (mut max_ts, mut w_min, mut w_max) = (0u64, u64::MAX, 0u64);
        for (ts, _, _, _) in items {
            max_ts = max_ts.max(*ts);
            let w = WindowId::containing(*ts, span).start_ms;
            w_min = w_min.min(w);
            w_max = w_max.max(w);
        }
        self.stats.records += items.len() as u64;
        // Lateness is judged against the horizon as of arrival; the
        // batch's own newest timestamp must not retro-drop its peers.
        let oldest_open = self.oldest_allowed();
        if w_min == w_max {
            // The common shape: the pipeline sends window-bucketed
            // batches.
            if w_max < oldest_open {
                self.stats.late_drops += items.len() as u64;
            } else {
                let mut batch: Vec<(u64, flowkey::FlowKey, Popularity)> =
                    items.iter().map(|(_, h, k, p)| (*h, *k, *p)).collect();
                self.window_tree(w_max).insert_batch_prehashed(&mut batch);
            }
            return self.advance_watermark(max_ts);
        }
        let mut per_window: BTreeMap<u64, Vec<(u64, flowkey::FlowKey, Popularity)>> =
            BTreeMap::new();
        for (ts, hash, key, pop) in items {
            let window = WindowId::containing(*ts, span);
            if window.start_ms < oldest_open {
                self.stats.late_drops += 1;
            } else {
                per_window
                    .entry(window.start_ms)
                    .or_default()
                    .push((*hash, *key, *pop));
            }
        }
        for (start_ms, mut batch) in per_window {
            self.window_tree(start_ms)
                .insert_batch_prehashed(&mut batch);
        }
        self.advance_watermark(max_ts)
    }

    /// Attributes raw on-the-wire ingest volume (actual export-packet
    /// bytes, any format) to this daemon's [`DaemonStats::raw_bytes`].
    pub fn note_raw_bytes(&mut self, bytes: u64) {
        self.stats.raw_bytes += bytes;
    }

    /// Advances event time, closing windows that fell behind the
    /// allowed-open range. A caller that buffers records (the streaming
    /// [`crate::pipeline`]) calls this once event time has reached
    /// `ts_ms` and it has handed over every record that was on time
    /// when it arrived.
    pub fn advance_watermark(&mut self, ts_ms: u64) -> Vec<Summary> {
        if ts_ms <= self.watermark_ms {
            return Vec::new();
        }
        self.watermark_ms = ts_ms;
        let oldest_allowed = self.oldest_allowed();
        let to_close: Vec<u64> = self
            .open
            .keys()
            .copied()
            .filter(|&s| s < oldest_allowed)
            .collect();
        to_close.into_iter().map(|s| self.close_window(s)).collect()
    }

    fn oldest_allowed(&self) -> u64 {
        let span = self.cfg.window_ms;
        let current = self.watermark_ms / span * span;
        current.saturating_sub(span * (self.cfg.open_windows as u64 - 1))
    }

    /// Closes every open window (shutdown / end of trace), oldest first.
    pub fn flush(&mut self) -> Vec<Summary> {
        let starts: Vec<u64> = self.open.keys().copied().collect();
        starts.into_iter().map(|s| self.close_window(s)).collect()
    }

    fn close_window(&mut self, start_ms: u64) -> Summary {
        let mut tree = self.open.remove(&start_ms).expect("window open");
        self.last_nodes = tree.len();
        // Closed: from here the tree is only diffed against, queued
        // and encoded.
        tree.shrink_to_fit();
        let window = WindowId {
            start_ms,
            span_ms: self.cfg.window_ms,
        };
        // Full mode moves the tree into the summary; delta mode is the
        // only one that must retain it as the next delta's base.
        self.seq += 1;
        let summary = match self.cfg.transfer {
            TransferMode::Delta => {
                let (kind, wire_tree) = match &self.last_emitted {
                    Some((_, prev)) => (
                        SummaryKind::Delta,
                        FlowTree::diffed(&tree, prev).expect("same schema within one daemon"),
                    ),
                    None => (SummaryKind::Full, tree.clone()),
                };
                self.last_emitted = Some((start_ms, tree));
                Summary {
                    site: self.cfg.site,
                    window,
                    seq: self.seq,
                    kind,
                    lineage: None,
                    tree: wire_tree,
                }
            }
            TransferMode::Full => Summary::site_full(self.cfg.site, window, self.seq, tree),
        };
        self.stats.summaries += 1;
        // Exact arithmetic size — no throwaway encode on the close path.
        self.stats.summary_bytes += summary.encoded_size() as u64;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowkey::FlowKey;

    fn record(ts_ms: u64, host: u8, packets: u64) -> FlowRecord {
        let mut r = FlowRecord::v4(
            [10, 0, 0, host],
            [192, 0, 2, 1],
            1234,
            443,
            6,
            packets,
            packets * 100,
        );
        r.first_ms = ts_ms.saturating_sub(10);
        r.last_ms = ts_ms;
        r
    }

    fn daemon(window_ms: u64, transfer: TransferMode) -> SiteDaemon {
        let mut cfg = DaemonConfig::new(1);
        cfg.window_ms = window_ms;
        cfg.transfer = transfer;
        cfg.tree = Config::with_budget(512);
        SiteDaemon::new(cfg)
    }

    #[test]
    fn windows_close_as_time_advances() {
        let mut d = daemon(1000, TransferMode::Full);
        assert!(d.ingest_record(&record(100, 1, 5)).is_empty());
        assert!(d.ingest_record(&record(900, 2, 3)).is_empty());
        // Jump two windows ahead: window [0,1000) must close.
        let out = d.ingest_record(&record(2500, 3, 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window.start_ms, 0);
        assert_eq!(out[0].kind, SummaryKind::Full);
        assert_eq!(out[0].tree.total().packets, 8);
        assert_eq!(out[0].seq, 1);
    }

    #[test]
    fn flush_emits_all_open_windows_in_order() {
        let mut d = daemon(1000, TransferMode::Full);
        d.ingest_record(&record(500, 1, 1));
        d.ingest_record(&record(1500, 2, 2));
        let out = d.flush();
        assert_eq!(out.len(), 2);
        assert!(out[0].window.start_ms < out[1].window.start_ms);
        assert_eq!(d.open_windows().len(), 0);
    }

    #[test]
    fn out_of_order_within_open_range_is_absorbed() {
        let mut d = daemon(1000, TransferMode::Full);
        d.ingest_record(&record(1100, 1, 1)); // window 1
        d.ingest_record(&record(900, 2, 1)); // window 0, still open
        assert_eq!(d.open_windows().len(), 2);
        assert_eq!(d.stats().late_drops, 0);
        let all = d.flush();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn too_late_records_are_dropped_and_counted() {
        let mut d = daemon(1000, TransferMode::Full);
        d.ingest_record(&record(5000, 1, 1));
        let out = d.ingest_record(&record(100, 2, 1)); // hopelessly late
        assert!(out.is_empty());
        assert_eq!(d.stats().late_drops, 1);
        // The late record must not have contaminated any window.
        let all = d.flush();
        let total: i64 = all.iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn delta_mode_emits_full_then_deltas_that_reconstruct() {
        let mut d = daemon(1000, TransferMode::Delta);
        // Window 0: hosts 1,2. Window 1: hosts 2,3 (overlap on 2).
        d.ingest_record(&record(100, 1, 5));
        d.ingest_record(&record(200, 2, 7));
        d.ingest_record(&record(1100, 2, 7));
        d.ingest_record(&record(1200, 3, 9));
        let out = d.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind, SummaryKind::Full);
        assert_eq!(out[1].kind, SummaryKind::Delta);
        // Reconstruct window 1 = window 0 + delta.
        let mut w1 = out[0].tree.clone();
        w1.merge(&out[1].tree).unwrap();
        w1.prune_zeros();
        assert_eq!(w1.total().packets, 16);
        let k: FlowKey = "src=10.0.0.3/32 dst=192.0.2.1/32 sport=1234 dport=443 proto=tcp"
            .parse()
            .unwrap();
        assert_eq!(
            w1.subtree_popularity(&k).map(|p| p.packets),
            Some(9),
            "host 3 appears after reconstruction"
        );
        let gone: FlowKey = "src=10.0.0.1/32 dst=192.0.2.1/32 sport=1234 dport=443 proto=tcp"
            .parse()
            .unwrap();
        assert!(
            w1.subtree_popularity(&gone).map(|p| p.packets).unwrap_or(0) == 0,
            "host 1 cancels out in window 1"
        );
    }

    fn mass(host: u8, packets: i64) -> (FlowKey, Popularity) {
        let k: FlowKey =
            format!("src=10.0.0.{host}/32 dst=192.0.2.1/32 sport=1234 dport=443 proto=tcp")
                .parse()
                .unwrap();
        (k, Popularity::new(packets, packets * 100, 1))
    }

    #[test]
    fn stamped_batch_routes_each_item_to_its_own_window() {
        let mut cfg = DaemonConfig::new(1);
        cfg.window_ms = 1000;
        cfg.tree = Config::with_budget(512);
        cfg.open_windows = 3;
        let mut d = SiteDaemon::new(cfg);
        let (k1, p1) = mass(1, 5);
        let (k2, p2) = mass(2, 7);
        let (k3, p3) = mass(3, 9);
        // One batch straddling two boundaries: windows 0, 1, and 2 —
        // all still open, so nothing may be misattributed or dropped.
        let out = d.ingest_stamped_batch(&[(900, k1, p1), (1_100, k2, p2), (2_050, k3, p3)]);
        assert!(out.is_empty(), "all three windows remain open");
        assert_eq!(d.open_windows().len(), 3);
        assert_eq!(d.stats().records, 3);
        assert_eq!(d.stats().late_drops, 0);
        let all = d.flush();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].window.start_ms, 0);
        assert_eq!(all[0].tree.total().packets, 5);
        assert_eq!(all[1].tree.total().packets, 7);
        assert_eq!(all[2].tree.total().packets, 9);
    }

    #[test]
    fn stamped_batch_drops_only_the_hopelessly_late_items() {
        let mut d = daemon(1000, TransferMode::Full);
        let (k1, p1) = mass(1, 1);
        let (k2, p2) = mass(2, 2);
        d.ingest_record(&record(5_000, 9, 1));
        // k1 is older than every open window; k2 lands in the current.
        let out = d.ingest_stamped_batch(&[(100, k1, p1), (5_100, k2, p2)]);
        assert!(out.is_empty());
        assert_eq!(d.stats().late_drops, 1);
        let total: i64 = d.flush().iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 3, "the late item never contaminated a window");
    }

    #[test]
    fn stamped_batch_newest_item_cannot_retro_drop_its_peers() {
        let mut d = daemon(1000, TransferMode::Full);
        d.ingest_record(&record(1_500, 9, 1)); // windows 0 and 1 open
        let (k1, p1) = mass(1, 5);
        let (k2, p2) = mass(2, 2);
        // k1's window [0,1000) is open on arrival; k2's timestamp will
        // close it. k1 must land in window 0 *before* the close, so the
        // summary this very call emits includes it.
        let out = d.ingest_stamped_batch(&[(900, k1, p1), (2_500, k2, p2)]);
        assert_eq!(d.stats().late_drops, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window.start_ms, 0);
        assert_eq!(out[0].tree.total().packets, 5);
        let total: i64 = d.flush().iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 3, "window 1 record + k2 remain open until flush");
    }

    #[test]
    fn note_raw_bytes_accumulates() {
        let mut d = daemon(1000, TransferMode::Full);
        d.note_raw_bytes(1_500);
        d.note_raw_bytes(24);
        assert_eq!(d.stats().raw_bytes, 1_524);
    }

    #[test]
    fn stats_account_bytes() {
        let mut d = daemon(1000, TransferMode::Full);
        for i in 0..100 {
            d.ingest_record(&record(i * 20, (i % 10) as u8, 1));
        }
        let _ = d.flush();
        let s = d.stats();
        assert_eq!(s.records, 100);
        assert_eq!(s.raw_bytes, 100 * 48);
        assert!(s.summaries >= 1);
        assert!(s.summary_bytes > 0);
    }
}
