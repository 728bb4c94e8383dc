//! The streaming ingest pipeline: raw exporter payloads → decoded flow
//! records → per-window batches → [`SiteDaemon`].
//!
//! This is the daemon-side loop of the paper's Fig. 1 deployment
//! ("each router exports its data to a close-by Flowtree daemon"):
//! routers push NetFlow v5/v9/IPFIX packets; the pipeline decodes them
//! through one [`flownet::ExportDecoder`] (template caches included),
//! stamps every record with **its own** event time, canonicalizes and
//! hashes each flow key exactly once, buckets records by open window,
//! and feeds the daemon in batches through
//! [`SiteDaemon::ingest_prehashed_batch`] instead of per-record calls —
//! so the tree's batch path sees real batches indexed by the carried
//! hash and neither per-record call overhead nor flush-time re-hashing
//! survives on the hot path.
//!
//! Window correctness: buckets flush **oldest window first**, and a
//! bucket reaching the batch threshold flushes every older bucket
//! ahead of itself. A record near a window boundary lands in the
//! window its own timestamp names — not the window of whichever packet
//! it happened to share a batch with.
//!
//! Flushing a bucket and closing a window are separate events. The
//! batch size decides only when buffered records are *handed over*
//! (throughput: fewer, larger daemon calls). **Event time alone decides
//! when a window closes**: the first record of a new window flushes
//! every older bucket and then advances the daemon's watermark to that
//! window's start, so window `W` closes on the first record of
//! `W + open_windows` whatever `batch` is. Lateness follows the same
//! rule as a per-record [`SiteDaemon`]: a record is dropped iff its
//! window is behind the `open_windows` horizon of the newest window
//! seen so far — again independent of `batch`. The daemon's horizon
//! never passes a buffered record that was on time when it arrived:
//! such a record is flushed before the next crossing moves the horizon.
//!
//! Accounting: the pipeline sees the wire, so it reports **actual**
//! export-packet bytes per format to the daemon
//! ([`SiteDaemon::note_raw_bytes`]) rather than the NetFlow
//! v5-equivalent estimate used by pre-decoded ingest paths.

use crate::daemon::SiteDaemon;
use crate::summary::Summary;
use crate::window::WindowId;
use flowkey::{key_hash, FlowKey};
use flowmetrics::{Histogram, Stopwatch};
use flownet::{DecoderLimits, DecoderStats, ExportDecoder, ExportFormat, FlowRecord};
use flowtree_core::Popularity;
use std::collections::BTreeMap;

/// Default per-window batch size before a flush to the daemon.
pub const DEFAULT_BATCH: usize = 4_096;

/// Hard cap on total buffered records, in units of the batch size:
/// when `buffered() >= batch × MAX_BUFFERED_BATCHES`, everything
/// flushes to the daemon regardless of bucket fill. An exporter with a
/// broken clock (or a hostile one) scattering timestamps across many
/// distinct old windows would otherwise grow one under-filled bucket
/// per window without ever tripping the size or cadence triggers.
pub const MAX_BUFFERED_BATCHES: usize = 4;

/// Counters the pipeline keeps about its own work.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Export packets decoded successfully.
    pub packets: u64,
    /// NetFlow v5 packets among them.
    pub packets_v5: u64,
    /// NetFlow v9 packets among them.
    pub packets_v9: u64,
    /// IPFIX messages among them.
    pub packets_ipfix: u64,
    /// Payloads that failed to decode (malformed or unknown version).
    pub decode_errors: u64,
    /// Flow records extracted from decoded packets.
    pub records: u64,
    /// Actual on-the-wire export bytes of decoded packets.
    pub wire_bytes: u64,
    /// Batches handed to the daemon.
    pub batches: u64,
    /// Under-filled window buckets force-flushed (oldest first) to
    /// honor the open-window budget under memory pressure.
    pub window_sheds: u64,
}

/// Streaming decode→bucket→batch front end for one [`SiteDaemon`].
#[derive(Debug)]
pub struct IngestPipeline {
    daemon: SiteDaemon,
    decoder: ExportDecoder,
    batch: usize,
    /// Per open window: records stamped with their own event time and
    /// carrying their canonicalized key's hash — computed exactly once
    /// here at push time, so the flush-time tree insert re-hashes
    /// nothing.
    pending: BTreeMap<u64, Vec<(u64, u64, FlowKey, Popularity)>>,
    /// Start of the newest window any record has reached.
    newest_window: u64,
    /// Max distinct open window buckets (0 = unbounded); exceeding it
    /// sheds the oldest bucket to the daemon.
    max_open_windows: usize,
    stats: PipelineStats,
    /// Per-packet decode latency, when the owner wired a registry.
    decode_hist: Option<Histogram>,
    /// Per-batch flush latency (one `ingest_prehashed_batch` call).
    flush_hist: Option<Histogram>,
}

impl IngestPipeline {
    /// Wraps `daemon` with a streaming front end flushing `batch`
    /// records per window bucket (clamped to ≥ 1), with default
    /// [`DecoderLimits`].
    pub fn new(daemon: SiteDaemon, batch: usize) -> IngestPipeline {
        IngestPipeline::with_limits(daemon, batch, DecoderLimits::default())
    }

    /// Like [`IngestPipeline::new`] with explicit decoder hardening
    /// limits for the template caches.
    pub fn with_limits(daemon: SiteDaemon, batch: usize, limits: DecoderLimits) -> IngestPipeline {
        IngestPipeline {
            daemon,
            decoder: ExportDecoder::with_limits(limits),
            batch: batch.max(1),
            pending: BTreeMap::new(),
            newest_window: 0,
            max_open_windows: 0,
            stats: PipelineStats::default(),
            decode_hist: None,
            flush_hist: None,
        }
    }

    /// Attaches hot-path latency histograms: `decode` observes each
    /// export-packet decode, `flush` each batch handed to the daemon.
    /// Timing costs one `Instant` pair per packet/batch and is
    /// compiled out entirely without the `hot-timers` feature.
    pub fn set_latency_instruments(&mut self, decode: Histogram, flush: Histogram) {
        self.decode_hist = Some(decode);
        self.flush_hist = Some(flush);
    }

    /// The wrapped daemon (stats, open windows).
    pub fn daemon(&self) -> &SiteDaemon {
        &self.daemon
    }

    /// Pipeline-side work counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The decoder's hardening counters (template cache activity,
    /// records dropped for lack of a template).
    pub fn decoder_stats(&self) -> DecoderStats {
        self.decoder.stats()
    }

    /// Sets the open-window budget: more than `windows` distinct
    /// buffered window buckets sheds the oldest to the daemon
    /// (0 = unbounded). Live-reloadable; takes effect on the next
    /// record.
    pub fn set_max_open_windows(&mut self, windows: usize) {
        self.max_open_windows = windows;
    }

    /// Records currently buffered (not yet handed to the daemon).
    pub fn buffered(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Distinct window buckets currently open in the pipeline.
    pub fn open_windows(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one raw exporter payload (NetFlow v5/v9 or IPFIX,
    /// auto-detected; template caches persist across packets). Returns
    /// summaries of any windows that closed as a consequence. Malformed
    /// payloads are counted, not fatal — the loop must survive router
    /// reboots and hostile probes.
    pub fn push_packet(&mut self, payload: &[u8]) -> Vec<Summary> {
        match self.decode_packet_at(payload, 0) {
            Some(records) => self.push_records(&records),
            None => Vec::new(),
        }
    }

    /// Decode-only half of [`IngestPipeline::push_packet`]: counts the
    /// packet (or the decode error) and its wire bytes, advances the
    /// template caches' clock to `now_ms`, and hands the records back
    /// **without** ingesting them — so a caller can apply per-exporter
    /// admission control between decode and
    /// [`IngestPipeline::push_records`]. `None` means the payload was
    /// malformed (already counted).
    pub fn decode_packet_at(&mut self, payload: &[u8], now_ms: u64) -> Option<Vec<FlowRecord>> {
        let sw = self.decode_hist.as_ref().map(|_| Stopwatch::start());
        let decoded = flownet::decode_export_packet_at(&mut self.decoder, payload, now_ms);
        if let (Some(sw), Some(h)) = (sw, &self.decode_hist) {
            sw.observe(h);
        }
        match decoded {
            Ok((format, records)) => {
                self.stats.packets += 1;
                match format {
                    ExportFormat::NetflowV5 => self.stats.packets_v5 += 1,
                    ExportFormat::NetflowV9 => self.stats.packets_v9 += 1,
                    ExportFormat::Ipfix => self.stats.packets_ipfix += 1,
                }
                self.stats.wire_bytes += payload.len() as u64;
                self.daemon.note_raw_bytes(payload.len() as u64);
                Some(records)
            }
            Err(_) => {
                self.stats.decode_errors += 1;
                None
            }
        }
    }

    /// Feeds already-decoded records (e.g. from a socket listener that
    /// decodes in place), bucketing each by its own end timestamp.
    ///
    /// Three triggers hand buckets to the daemon: a bucket reaching
    /// the batch threshold; event time entering a **new** window (every
    /// buffered bucket is then older and flushes at that record, even
    /// if under-filled); and total buffering hitting the
    /// [`MAX_BUFFERED_BATCHES`] hard cap, which flushes everything —
    /// the daemon then applies its own late-drop policy — so buffered
    /// memory stays bounded even against timestamps scattered across
    /// arbitrarily many stale windows.
    ///
    /// Only the second trigger closes windows beyond what the flushed
    /// records' own timestamps close: after its flush it advances the
    /// daemon's watermark to the new window's start, so the summary of
    /// every window behind the `open_windows` horizon is returned from
    /// the call carrying the crossing record. The batch size changes
    /// neither which summaries come back nor their bytes (absent
    /// compaction), only how many daemon calls produced them.
    pub fn push_records(&mut self, records: &[FlowRecord]) -> Vec<Summary> {
        let mut out = Vec::new();
        let span = self.daemon.config().window_ms;
        let mut flush_up_to: Option<u64> = None;
        let raise = |w: u64, flush_up_to: &mut Option<u64>| {
            *flush_up_to = Some(flush_up_to.map_or(w, |have: u64| have.max(w)));
        };
        let schema = self.daemon.config().schema;
        for r in records {
            self.stats.records += 1;
            let ts = r.last_ms;
            let start_ms = WindowId::containing(ts, span).start_ms;
            if start_ms > self.newest_window {
                // Event time crossed into a new window. Every buffered
                // bucket is older: hand them all over, oldest first,
                // then move the daemon's event time to the new window
                // so the windows its horizon leaves behind close now —
                // not whenever the new window's bucket fills.
                self.flush_through(u64::MAX, &mut out);
                self.newest_window = start_ms;
                out.extend(self.daemon.advance_watermark(start_ms));
            }
            // Canonicalize + hash once, here; the hash rides with the
            // record so the tree index reuses it.
            let key = schema.canonicalize(&r.flow_key());
            let hash = key_hash(&key);
            let bucket = self.pending.entry(start_ms).or_default();
            bucket.push((ts, hash, key, Popularity::flow(r.packets, r.bytes)));
            if bucket.len() >= self.batch {
                raise(start_ms, &mut flush_up_to);
            }
        }
        if let Some(newest) = flush_up_to {
            self.flush_through(newest, &mut out);
        }
        if self.buffered() >= self.batch.saturating_mul(MAX_BUFFERED_BATCHES) {
            self.flush_through(u64::MAX, &mut out);
        }
        // Open-window budget: a hostile clock scattering records over
        // many distinct windows grows one bucket per window; past the
        // budget, shed the oldest bucket (the daemon applies its own
        // late-drop policy) so bucket count — not just record count —
        // stays bounded.
        while self.max_open_windows > 0 && self.pending.len() > self.max_open_windows {
            let oldest = *self.pending.keys().next().expect("non-empty");
            let items = self.pending.remove(&oldest).expect("bucket present");
            self.stats.batches += 1;
            self.stats.window_sheds += 1;
            self.ingest_batch(&items, &mut out);
        }
        out
    }

    /// Hands every buffered bucket to the daemon, oldest window first,
    /// regardless of fill level. Does not close windows beyond what the
    /// advancing watermark closes on its own.
    pub fn flush_batches(&mut self) -> Vec<Summary> {
        let mut out = Vec::new();
        self.flush_through(u64::MAX, &mut out);
        out
    }

    /// Flushes all buffered batches, closes every open window, and
    /// hands the daemon back. Oldest windows flush and close first.
    pub fn finish(mut self) -> (Vec<Summary>, SiteDaemon) {
        let mut out = self.flush_batches();
        out.extend(self.daemon.flush());
        (out, self.daemon)
    }

    /// Flushes buckets for every window ≤ `newest`, oldest first —
    /// older stragglers always reach the daemon before a newer batch
    /// can advance the watermark over them.
    fn flush_through(&mut self, newest: u64, out: &mut Vec<Summary>) {
        let starts: Vec<u64> = self
            .pending
            .range(..=newest)
            .map(|(start, _)| *start)
            .collect();
        for start in starts {
            let items = self.pending.remove(&start).expect("bucket present");
            self.stats.batches += 1;
            self.ingest_batch(&items, out);
        }
    }

    /// One timed batch handed to the daemon (prehashed fast path).
    fn ingest_batch(&mut self, items: &[(u64, u64, FlowKey, Popularity)], out: &mut Vec<Summary>) {
        let sw = self.flush_hist.as_ref().map(|_| Stopwatch::start());
        out.extend(self.daemon.ingest_prehashed_batch(items));
        if let (Some(sw), Some(h)) = (sw, &self.flush_hist) {
            sw.observe(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, TransferMode};
    use flowtree_core::Config;

    fn pipeline(window_ms: u64, batch: usize) -> IngestPipeline {
        let mut cfg = DaemonConfig::new(3);
        cfg.window_ms = window_ms;
        cfg.transfer = TransferMode::Full;
        cfg.tree = Config::with_budget(512);
        IngestPipeline::new(SiteDaemon::new(cfg), batch)
    }

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
        r.first_ms = ts_ms.saturating_sub(5);
        r.last_ms = ts_ms;
        r
    }

    #[test]
    fn v5_packets_flow_end_to_end() {
        let mut p = pipeline(1_000, 8);
        let records: Vec<FlowRecord> = (0..20).map(|i| record(100 + i * 10, i as u8, 2)).collect();
        for chunk in records.chunks(5) {
            let pkt = flownet::netflow5::encode(chunk, 1_000, 0);
            assert!(p.push_packet(&pkt).is_empty());
        }
        assert_eq!(p.stats().packets_v5, 4);
        assert_eq!(p.stats().records, 20);
        assert!(p.stats().wire_bytes > 0);
        let (summaries, daemon) = p.finish();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].tree.total().packets, 40);
        assert_eq!(daemon.stats().records, 20);
        // Actual v5 wire bytes: 4 packets × (24 header + 5 × 48).
        assert_eq!(daemon.stats().raw_bytes, 4 * (24 + 5 * 48));
    }

    #[test]
    fn records_near_a_boundary_land_in_their_own_windows() {
        let mut p = pipeline(1_000, 64);
        // One v5 packet whose records straddle the window boundary —
        // the single-stamp batch path misattributed exactly this case.
        let records = vec![record(950, 1, 3), record(1_050, 2, 5)];
        let pkt = flownet::netflow5::encode(&records, 2_000, 0);
        p.push_packet(&pkt);
        let (summaries, daemon) = p.finish();
        assert_eq!(daemon.stats().late_drops, 0);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].window.start_ms, 0);
        assert_eq!(summaries[0].tree.total().packets, 3);
        assert_eq!(summaries[1].window.start_ms, 1_000);
        assert_eq!(summaries[1].tree.total().packets, 5);
    }

    #[test]
    fn full_buckets_flush_older_stragglers_first() {
        let mut p = pipeline(1_000, 4);
        // A straggler in window 0, then enough window-1 records to trip
        // the batch threshold: the straggler must reach the daemon
        // before window 1's batch advances the watermark.
        let mut records = vec![record(900, 9, 1)];
        records.extend((0..4).map(|i| record(1_100 + i, i as u8, 1)));
        p.push_records(&records);
        assert_eq!(p.buffered(), 0, "both buckets flushed");
        assert!(p.stats().batches >= 2);
        let (summaries, daemon) = p.finish();
        assert_eq!(daemon.stats().late_drops, 0);
        let total: i64 = summaries.iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn low_rate_streams_flush_on_window_cadence() {
        // Batch threshold far above the rate: flushing must ride the
        // window cadence instead, keeping buffered memory bounded and
        // summaries coming.
        let mut p = pipeline(1_000, 4_096);
        let mut closed = Vec::new();
        for w in 0u64..5 {
            for i in 0..3u64 {
                closed.extend(p.push_records(&[record(w * 1_000 + 100 + i, w as u8, 1)]));
            }
        }
        assert_eq!(p.buffered(), 3, "only the newest window still buffers");
        assert!(p.stats().batches >= 4, "each window advance flushed");
        assert!(
            !closed.is_empty(),
            "summaries emitted mid-stream, not only at finish"
        );
        let (rest, daemon) = p.finish();
        closed.extend(rest);
        assert_eq!(daemon.stats().records, 15);
        assert_eq!(daemon.stats().late_drops, 0);
        let total: i64 = closed.iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn windows_close_on_event_time_not_batch_fill() {
        // The default batch exceeds everything this stream holds: no
        // bucket ever fills. Window 0 must still close on the first
        // record of window 2 (open_windows = 2), from that very call.
        let mut p = pipeline(1_000, DEFAULT_BATCH);
        for w in 0..2u64 {
            for i in 0..50u64 {
                let out = p.push_records(&[record(w * 1_000 + 10 + i, i as u8, 1)]);
                assert!(out.is_empty(), "nothing closes before window 2");
            }
        }
        let pkt = flownet::netflow5::encode(&[record(2_000, 1, 1)], 2_000, 0);
        let out = p.push_packet(&pkt);
        assert_eq!(out.len(), 1, "window 0 closes on window 2's first packet");
        assert_eq!(out[0].window.start_ms, 0);
        assert_eq!(out[0].tree.total().packets, 50);
        let out = p.push_records(&[record(2_001, 2, 1), record(3_500, 3, 1)]);
        assert_eq!(
            out.len(),
            1,
            "window 1 closes within the packet crossing into 3"
        );
        assert_eq!(out[0].window.start_ms, 1_000);
        assert_eq!(p.buffered(), 1, "only window 3's record still buffers");
    }

    #[test]
    fn stragglers_are_late_by_event_time_alone() {
        // A straggler for window 0 after window 2 has begun is behind
        // the horizon at every batch size; one for window 1 is not.
        for batch in [1, 4_096] {
            let mut p = pipeline(1_000, batch);
            let mut summaries =
                p.push_records(&[record(100, 1, 1), record(1_100, 2, 1), record(2_100, 3, 1)]);
            summaries.extend(p.push_records(&[record(900, 4, 1), record(1_900, 5, 1)]));
            let (rest, daemon) = p.finish();
            summaries.extend(rest);
            assert_eq!(daemon.stats().late_drops, 1, "batch {batch}");
            let total: i64 = summaries.iter().map(|s| s.tree.total().packets).sum();
            assert_eq!(total, 4, "batch {batch}");
        }
    }

    #[test]
    fn malformed_payloads_are_survived_and_counted() {
        let mut p = pipeline(1_000, 8);
        assert!(p.push_packet(b"definitely not netflow").is_empty());
        assert!(p.push_packet(&[]).is_empty());
        assert_eq!(p.stats().decode_errors, 2);
        assert_eq!(p.stats().packets, 0);
        let pkt = flownet::netflow5::encode(&[record(10, 1, 1)], 100, 0);
        p.push_packet(&pkt);
        let (_, daemon) = p.finish();
        assert_eq!(daemon.stats().records, 1);
    }

    #[test]
    fn scattered_stale_timestamps_cannot_grow_the_buffer_unboundedly() {
        let mut p = pipeline(1_000, 8);
        // Anchor the newest window far ahead of the stale records.
        p.push_records(&[record(1_000_000, 1, 1)]);
        // A broken-clock exporter: every record in a distinct stale
        // window, never filling a bucket, never advancing the newest
        // window — only the hard cap can flush these.
        for i in 0..200u64 {
            p.push_records(&[record(i * 1_000 + 5, 2, 1)]);
            assert!(
                p.buffered() <= 8 * MAX_BUFFERED_BATCHES,
                "hard cap bounds buffering"
            );
        }
        let (_, daemon) = p.finish();
        assert_eq!(
            daemon.stats().records,
            201,
            "every record reached the daemon"
        );
        assert!(
            daemon.stats().late_drops > 0,
            "stale records are dropped by daemon policy, not buffered forever"
        );
    }

    #[test]
    fn mixed_dialects_share_one_pipeline() {
        let mut p = pipeline(1_000, 128);
        let recs: Vec<FlowRecord> = (0..6).map(|i| record(200 + i, i as u8, 1)).collect();
        p.push_packet(&flownet::netflow5::encode(&recs[..2], 500, 0));
        p.push_packet(&flownet::netflow9::encode(&recs[2..4], 500, 1, 7));
        p.push_packet(&flownet::ipfix::encode_message(&recs[4..], 1, 2, 7, true));
        let s = p.stats();
        assert_eq!((s.packets_v5, s.packets_v9, s.packets_ipfix), (1, 1, 1));
        assert_eq!(s.records, 6);
        let (summaries, _) = p.finish();
        let total: i64 = summaries.iter().map(|s| s.tree.total().packets).sum();
        assert_eq!(total, 6);
    }
}
