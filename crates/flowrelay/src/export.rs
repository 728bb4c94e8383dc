//! The durable export shipper: spill-backed pending buffer, ack
//! tracking, reconnect backoff, and a skew-proof clock.
//!
//! `relayd`'s old export loop kept drained frames in a bounded `Vec`,
//! reconnected in a tight loop, and treated a successful `write` as
//! delivery. The [`ExportShipper`] replaces all three:
//!
//! * every drained frame lands in a [`SpillQueue`] **before** any send
//!   (process death loses nothing that was drained);
//! * against an ack-capable upstream (hello handshake,
//!   [`flowdist::control`]) a frame stays pending until the receiver
//!   acknowledges **applying** it; a reconnect resends the whole
//!   unacked suffix and the receiver deduplicates idempotently;
//! * against a legacy (v1–v3) upstream the shipper falls back to
//!   exactly the old fire-and-forget contract: a flushed write
//!   releases the frame;
//! * reconnects use exponential [`Backoff`] with jitter instead of a
//!   tight retry loop, feeding attempt/failure/backoff counters into
//!   the [`RelayLedger`](crate::RelayLedger);
//! * rebase-requests from the receiver rewind the named window
//!   ([`Relay::request_rebase`]) so the next drain ships a full
//!   rebasing frame.
//!
//! A dedicated reader thread per connection decodes control frames
//! into a channel — the pump never does a blocking read mid-frame, so
//! a slow upstream cannot desynchronize the stream.

use crate::relay::Relay;
use flowdist::control::{is_control, ControlFrame, SlotPos, FEATURE_ACKS};
use flowdist::framing::{read_frame, write_frame};
use flowdist::{SpillQueue, Summary};
use flowtree_core::Config;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Mutex;
use std::time::Instant;

/// A wall-anchored **monotonic** clock for the export scheduler: the
/// wall time is sampled once at construction and advanced by
/// `Instant` elapsed time, so a backward OS-clock jump (NTP step,
/// manual set) can neither stall a drain nor double-fire one. Window
/// starts stay comparable to real wall time; only the *progression*
/// is monotonic.
#[derive(Debug, Clone)]
pub struct SteadyClock {
    wall0_ms: u64,
    t0: Instant,
}

impl SteadyClock {
    /// Anchors to the current wall clock.
    pub fn new() -> SteadyClock {
        SteadyClock {
            wall0_ms: flowdist::epoch_ms(),
            t0: Instant::now(),
        }
    }

    /// Milliseconds since the epoch, monotonically non-decreasing.
    pub fn now_ms(&self) -> u64 {
        self.wall0_ms + self.t0.elapsed().as_millis() as u64
    }
}

impl Default for SteadyClock {
    fn default() -> SteadyClock {
        SteadyClock::new()
    }
}

/// Exponential-backoff tuning.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// First retry delay.
    pub base_ms: u64,
    /// Delay ceiling.
    pub max_ms: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            base_ms: 100,
            max_ms: 5_000,
        }
    }
}

/// Exponential backoff with jitter: after the `n`-th consecutive
/// failure the next attempt waits a uniform draw from `[d/2, d]`
/// where `d = min(max_ms, base_ms · 2ⁿ)` — the usual decorrelation so
/// a fleet of relays does not thundering-herd a recovering upstream.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    failures: u32,
    next_at_ms: u64,
    /// splitmix64 state — no external RNG dependency.
    rng: u64,
    last_delay_ms: u64,
}

impl Backoff {
    /// A fresh backoff (first attempt is immediate).
    pub fn new(cfg: BackoffConfig, seed: u64) -> Backoff {
        Backoff {
            cfg,
            failures: 0,
            next_at_ms: 0,
            rng: seed ^ 0x9E37_79B9_7F4A_7C15,
            last_delay_ms: 0,
        }
    }

    /// Whether the next attempt is due.
    pub fn ready(&self, now_ms: u64) -> bool {
        now_ms >= self.next_at_ms
    }

    /// The attempt succeeded: reset.
    pub fn success(&mut self) {
        self.failures = 0;
        self.next_at_ms = 0;
        self.last_delay_ms = 0;
    }

    /// The attempt failed: schedule the next one and return the
    /// jittered delay.
    pub fn failure(&mut self, now_ms: u64) -> u64 {
        let exp = self.failures.min(20);
        let raw = self
            .cfg
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.cfg.max_ms)
            .max(1);
        let low = raw / 2;
        let span = raw - low + 1;
        let delay = low + self.next_u64() % span;
        self.failures = self.failures.saturating_add(1);
        self.next_at_ms = now_ms.saturating_add(delay);
        self.last_delay_ms = delay;
        delay
    }

    /// Consecutive failures so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shipper tuning.
#[derive(Debug, Clone)]
pub struct ShipperConfig {
    /// Upstream address (`host:port`).
    pub upstream: String,
    /// How long to wait for the upstream's hello reply before falling
    /// back to legacy fire-and-forget.
    pub handshake_ms: u64,
    /// How long an acked connection may sit fully-sent with pending
    /// frames and no ack progress before it is recycled. TCP only
    /// loses frames by losing the connection, but a half-dead path
    /// (or a peer that stopped acking) looks healthy forever —
    /// recycling forces the resend-all-unacked reconnect path.
    pub stall_ms: u64,
    /// Tree budget for re-decoding recovered spill frames (their
    /// pending metadata is rebuilt from the bytes).
    pub tree: Config,
    /// Reconnect backoff tuning.
    pub backoff: BackoffConfig,
}

/// Shipper counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShipperStats {
    /// Frames handed to [`ExportShipper::enqueue`].
    pub enqueued: u64,
    /// Frames written to the wire (including resends).
    pub sent_frames: u64,
    /// Bytes written.
    pub sent_bytes: u64,
    /// Frames released by a receiver ack.
    pub acked_frames: u64,
    /// Frames released by the legacy flushed-write contract.
    pub legacy_released: u64,
    /// Rebase-requests honored (window rewound).
    pub rebase_honored: u64,
    /// Rebase-requests for windows this relay no longer tracks.
    pub rebase_unknown: u64,
    /// Acks that matched nothing pending (at-least-once replays of
    /// our own resends, or a hostile peer).
    pub stale_acks: u64,
    /// Zero-epoch acks that claimed to cover epoch-advancing pending
    /// frames — ignored, a v3 frame is only released by an epoch ack.
    pub hostile_acks: u64,
    /// Completed hello handshakes (ack mode negotiated).
    pub handshakes: u64,
    /// Connections recycled because acks stopped arriving while
    /// frames were pending (see [`ShipperConfig::stall_ms`]).
    pub stall_recycles: u64,
    /// Connections that fell back to legacy fire-and-forget.
    pub legacy_sessions: u64,
}

/// What one pending frame is waiting on.
#[derive(Debug, Clone, Copy)]
struct PendingMeta {
    window_start_ms: u64,
    exporter: u16,
    /// The epoch the frame advances its slot to (0 = pre-epoch frame).
    epoch: u64,
    /// When the frame first hit the wire (0 = never sent yet). Resends
    /// keep the first timestamp: ship→ack RTT honestly includes every
    /// reconnect the frame lived through.
    sent_at_ms: u64,
}

struct Conn {
    stream: TcpStream,
    rx: Receiver<ControlFrame>,
    /// Negotiated per-frame acks; false = legacy fire-and-forget.
    acked: bool,
    /// Next spill seq to send on this connection (everything unacked
    /// below it was already sent here).
    send_from: u64,
    /// Last time this connection made progress (sent a frame or
    /// released one on an ack) — the stall clock.
    last_progress_ms: u64,
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Unblocks the reader thread, which exits on the read error.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The durable acknowledged export pipeline of one relay (see the
/// module docs).
pub struct ExportShipper {
    cfg: ShipperConfig,
    spill: SpillQueue,
    /// spill seq → what the frame is waiting on.
    meta: BTreeMap<u64, PendingMeta>,
    conn: Option<Conn>,
    backoff: Backoff,
    stats: ShipperStats,
    /// Ship→ack round-trip latency, when the node wired one in.
    rtt: Option<flowmetrics::Histogram>,
}

impl ExportShipper {
    /// Wraps a spill queue (fresh or recovered). Metadata for
    /// recovered frames is rebuilt by decoding their bytes; undecodable
    /// records are dropped from tracking (they will be shed by acks
    /// never matching — counted, not resent forever).
    pub fn new(cfg: ShipperConfig, spill: SpillQueue, seed: u64) -> ExportShipper {
        let mut meta = BTreeMap::new();
        for rec in spill.pending() {
            if let Ok(s) = Summary::decode(&rec.bytes, cfg.tree) {
                meta.insert(rec.seq, meta_of(&s));
            }
        }
        let backoff = Backoff::new(cfg.backoff, seed);
        ExportShipper {
            cfg,
            spill,
            meta,
            conn: None,
            backoff,
            stats: ShipperStats::default(),
            rtt: None,
        }
    }

    /// Wires in a ship→ack RTT histogram: observed once per acked
    /// frame, from first wire write to the releasing ack.
    pub fn set_rtt_histogram(&mut self, hist: flowmetrics::Histogram) {
        self.rtt = Some(hist);
    }

    /// Queues one drained export durably. Returns the window starts of
    /// any frames the byte bound shed — the caller must
    /// [`Relay::mark_unshipped`] them so the loss is healed by a full
    /// rebasing re-export instead of being silent.
    pub fn enqueue(&mut self, summary: &Summary) -> Vec<u64> {
        let bytes = summary.encode();
        self.stats.enqueued += 1;
        let m = meta_of(summary);
        let seq = self.spill.next_seq();
        let shed = self.spill.push(bytes);
        self.meta.insert(seq, m);
        let mut rewind: Vec<u64> = Vec::new();
        for rec in &shed {
            if let Some(m) = self.meta.remove(&rec.seq) {
                rewind.push(m.window_start_ms);
            }
        }
        rewind.sort_unstable();
        rewind.dedup();
        rewind
    }

    /// One delivery round: process any arrived control frames, then
    /// (re)connect and send the unacked suffix. Never blocks beyond
    /// the connect and handshake timeouts. Call with the relay
    /// **unlocked** — the shipper takes the lock itself for ledger and
    /// rewind bookkeeping.
    pub fn pump(&mut self, relay: &Mutex<Relay>, now_ms: u64) {
        if self.conn.is_some() && !self.process_control(relay, now_ms) {
            self.conn = None;
        }
        if self.spill.is_empty() {
            return;
        }
        // A fully-sent acked connection that has gone silent is not
        // delivering: recycle it so the reconnect resends everything
        // unacked.
        if let Some(conn) = &self.conn {
            if conn.acked
                && conn.send_from >= self.spill.next_seq()
                && now_ms.saturating_sub(conn.last_progress_ms) > self.cfg.stall_ms
            {
                self.stats.stall_recycles += 1;
                self.conn = None;
                self.backoff.failure(now_ms);
                return;
            }
        }
        if self.conn.is_none() {
            if !self.backoff.ready(now_ms) {
                return;
            }
            let waited = self.backoff.last_delay_ms;
            match self.connect(now_ms) {
                Ok(conn) => {
                    relay
                        .lock()
                        .expect("relay lock")
                        .note_reconnect(true, waited);
                    self.backoff.success();
                    if conn.acked {
                        self.stats.handshakes += 1;
                    } else {
                        self.stats.legacy_sessions += 1;
                    }
                    self.conn = Some(conn);
                }
                Err(_) => {
                    relay
                        .lock()
                        .expect("relay lock")
                        .note_reconnect(false, waited);
                    self.backoff.failure(now_ms);
                    return;
                }
            }
        }
        if !self.send_pending(now_ms) {
            self.conn = None;
            self.backoff.failure(now_ms);
            return;
        }
        if !self.process_control(relay, now_ms) {
            self.conn = None;
        }
    }

    fn connect(&mut self, now_ms: u64) -> std::io::Result<Conn> {
        let stream = flowdist::framing::connect(&self.cfg.upstream)?;
        let reader_stream = stream.try_clone()?;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || reader_loop(reader_stream, tx));
        let mut conn = Conn {
            stream,
            rx,
            acked: false,
            send_from: self.spill.acked_floor(),
            last_progress_ms: now_ms,
        };
        write_frame(
            &mut conn.stream,
            &ControlFrame::Hello {
                features: FEATURE_ACKS,
            }
            .encode(),
        )?;
        match conn
            .rx
            .recv_timeout(std::time::Duration::from_millis(self.cfg.handshake_ms))
        {
            Ok(ControlFrame::Hello { features }) => {
                conn.acked = features & FEATURE_ACKS != 0;
            }
            Ok(_) | Err(RecvTimeoutError::Timeout) => {
                // No hello: a legacy peer that counted ours as one
                // rejected frame. Fire-and-forget, as before.
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "upstream closed during handshake",
                ));
            }
        }
        Ok(conn)
    }

    /// Sends every pending frame not yet sent on this connection.
    /// Returns false when the connection died.
    fn send_pending(&mut self, now_ms: u64) -> bool {
        let Some(conn) = self.conn.as_mut() else {
            return true;
        };
        let mut sent = 0u64;
        let mut sent_bytes = 0u64;
        for rec in self.spill.pending() {
            if rec.seq < conn.send_from {
                continue;
            }
            if write_frame(&mut conn.stream, &rec.bytes).is_err() {
                return false;
            }
            conn.send_from = rec.seq + 1;
            sent += 1;
            sent_bytes += rec.bytes.len() as u64;
            if let Some(m) = self.meta.get_mut(&rec.seq) {
                if m.sent_at_ms == 0 {
                    m.sent_at_ms = now_ms;
                }
            }
        }
        if sent > 0 {
            conn.last_progress_ms = now_ms;
        }
        self.stats.sent_frames += sent;
        self.stats.sent_bytes += sent_bytes;
        if !conn.acked && sent > 0 {
            // Legacy contract: a flushed write is delivery.
            let release = self.spill.next_seq();
            self.stats.legacy_released += self.meta.len() as u64;
            self.meta.clear();
            self.spill.ack_through(release);
        }
        true
    }

    /// Drains arrived control frames. Returns false when the reader
    /// thread is gone (connection closed).
    fn process_control(&mut self, relay: &Mutex<Relay>, now_ms: u64) -> bool {
        loop {
            let frame = match self.conn.as_ref() {
                Some(conn) => conn.rx.try_recv(),
                None => return true,
            };
            match frame {
                Ok(ControlFrame::Ack(slot)) => {
                    if self.handle_ack(slot, relay, now_ms) > 0 {
                        if let Some(conn) = self.conn.as_mut() {
                            conn.last_progress_ms = now_ms;
                        }
                    }
                }
                Ok(ControlFrame::RebaseRequest(slot)) => {
                    let honored = relay
                        .lock()
                        .expect("relay lock")
                        .request_rebase(slot.window_start_ms);
                    if honored {
                        self.stats.rebase_honored += 1;
                    } else {
                        self.stats.rebase_unknown += 1;
                    }
                }
                Ok(ControlFrame::Hello { .. }) => {}
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Non-positional ack matching: an ack for `(window, exporter)` at
    /// epoch `e` releases every pending frame of that slot with epoch
    /// ≤ `e`; a zero-epoch ack (v1/v2 receiver position) releases only
    /// the oldest pre-epoch frame of the slot and can never release an
    /// epoch-advancing one. Returns the number of frames released.
    fn handle_ack(&mut self, slot: SlotPos, relay: &Mutex<Relay>, now_ms: u64) -> u64 {
        let candidates: Vec<u64> = self
            .meta
            .iter()
            .filter(|(_, m)| {
                m.window_start_ms == slot.window_start_ms && m.exporter == slot.exporter
            })
            .map(|(seq, _)| *seq)
            .collect();
        if candidates.is_empty() {
            self.stats.stale_acks += 1;
            return 0;
        }
        let mut released = 0u64;
        let observe_rtt = |m: PendingMeta| {
            if let (Some(h), true) = (self.rtt.as_ref(), m.sent_at_ms > 0) {
                h.observe_secs(now_ms.saturating_sub(m.sent_at_ms) as f64 / 1_000.0);
            }
        };
        if slot.epoch == 0 {
            let oldest_pre_epoch = candidates
                .iter()
                .copied()
                .find(|seq| self.meta.get(seq).is_some_and(|m| m.epoch == 0));
            match oldest_pre_epoch {
                Some(seq) => {
                    if let Some(m) = self.meta.remove(&seq) {
                        observe_rtt(m);
                    }
                    released = 1;
                }
                None => {
                    self.stats.hostile_acks += 1;
                    return 0;
                }
            }
        } else {
            for seq in candidates {
                if self.meta.get(&seq).is_some_and(|m| m.epoch <= slot.epoch) {
                    if let Some(m) = self.meta.remove(&seq) {
                        observe_rtt(m);
                    }
                    released += 1;
                }
            }
            if released == 0 {
                self.stats.stale_acks += 1;
                return 0;
            }
        }
        self.stats.acked_frames += released;
        relay
            .lock()
            .expect("relay lock")
            .note_shipped(slot.window_start_ms, slot.epoch);
        let floor = self
            .meta
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.spill.next_seq());
        self.spill.ack_through(floor);
        released
    }

    /// Unacked frames currently pending.
    pub fn pending_len(&self) -> usize {
        self.spill.len()
    }

    /// Payload bytes those pending frames hold (the spill queue's
    /// live footprint).
    pub fn pending_bytes(&self) -> u64 {
        self.spill.pending_bytes()
    }

    /// Whether an upstream connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Whether the current connection negotiated per-frame acks.
    pub fn acked_mode(&self) -> Option<bool> {
        self.conn.as_ref().map(|c| c.acked)
    }

    /// Shipper counters.
    pub fn stats(&self) -> ShipperStats {
        self.stats
    }

    /// The spill queue's counters (pushed/acked/shed/recovered bytes).
    pub fn spill_stats(&self) -> flowdist::SpillStats {
        self.spill.stats()
    }
}

fn meta_of(s: &Summary) -> PendingMeta {
    PendingMeta {
        window_start_ms: s.window.start_ms,
        exporter: s.site,
        epoch: s.epoch.map(|e| e.epoch).unwrap_or(0),
        sent_at_ms: 0,
    }
}

fn reader_loop(stream: TcpStream, tx: Sender<ControlFrame>) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        if is_control(&frame) {
            if let Ok(cf) = ControlFrame::decode(&frame) {
                if tx.send(cf).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::RelayConfig;
    use flowdist::{SpillConfig, SummaryKind, WindowId};
    use flowkey::Schema;
    use flowtree_core::{FlowTree, Popularity};

    fn clock_is_monotone() -> SteadyClock {
        SteadyClock::new()
    }

    #[test]
    fn steady_clock_never_goes_backwards() {
        let c = clock_is_monotone();
        let mut prev = c.now_ms();
        for _ in 0..1_000 {
            let now = c.now_ms();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn backoff_doubles_with_jitter_and_resets() {
        let cfg = BackoffConfig {
            base_ms: 100,
            max_ms: 2_000,
        };
        let mut b = Backoff::new(cfg, 42);
        let mut expected = 100u64;
        for _ in 0..6 {
            let d = b.failure(0);
            assert!(d >= expected / 2 && d <= expected, "{d} vs {expected}");
            expected = (expected * 2).min(2_000);
        }
        assert!(!b.ready(0));
        b.success();
        assert!(b.ready(0));
        assert_eq!(b.failures(), 0);
        // Deterministic per seed.
        let mut b1 = Backoff::new(cfg, 7);
        let mut b2 = Backoff::new(cfg, 7);
        for _ in 0..5 {
            assert_eq!(b1.failure(0), b2.failure(0));
        }
    }

    fn export(window: u64, epoch: u64) -> Summary {
        let schema = Schema::five_feature();
        let mut tree = FlowTree::new(schema, Config::with_budget(4_096));
        let key: flowkey::FlowKey =
            "src=10.0.0.1/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp"
                .parse()
                .unwrap();
        tree.insert(&key, Popularity::new(epoch as i64 + 1, 100, 1));
        Summary {
            site: 100,
            window: WindowId {
                start_ms: window * 1_000,
                span_ms: 1_000,
            },
            seq: epoch,
            kind: SummaryKind::Full,
            provenance: Some(vec![0]),
            epoch: Some(flowdist::EpochHeader { epoch, base: None }),
            tree,
        }
    }

    fn shipper() -> ExportShipper {
        let cfg = ShipperConfig {
            upstream: "127.0.0.1:1".into(),
            handshake_ms: 10,
            stall_ms: 10_000,
            tree: Config::with_budget(1 << 20),
            backoff: BackoffConfig::default(),
        };
        ExportShipper::new(cfg, SpillQueue::in_memory(SpillConfig::default()), 1)
    }

    fn relay_mutex() -> Mutex<Relay> {
        Mutex::new(Relay::new(RelayConfig {
            name: "t".into(),
            agg_site: 100,
            expected: vec![0],
            schema: Schema::five_feature(),
            tree: Config::with_budget(1 << 20),
            export: Default::default(),
        }))
    }

    #[test]
    fn spill_io_error_degrades_shipper_to_memory_not_poison() {
        // A state dir the *second* segment write must fail in: with a
        // 1-byte segment budget every push rotates, and the rotation
        // target `spill-…1.seg` is pre-created as a *directory* —
        // EISDIR even for root, which ignores read-only mode bits.
        let dir = std::env::temp_dir().join(format!("flowrelay-degrade-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ShipperConfig {
            upstream: "127.0.0.1:1".into(),
            handshake_ms: 10,
            stall_ms: 10_000,
            tree: Config::with_budget(1 << 20),
            backoff: BackoffConfig::default(),
        };
        let spill_cfg = SpillConfig {
            segment_bytes: 1,
            ..SpillConfig::default()
        };
        let spill = SpillQueue::open(&dir, spill_cfg).unwrap();
        std::fs::create_dir_all(dir.join(format!("spill-{:020}.seg", 1))).unwrap();
        let mut s = ExportShipper::new(cfg, spill, 1);
        assert!(s.enqueue(&export(0, 1)).is_empty());
        assert_eq!(s.spill_stats().io_errors, 0, "first segment is healthy");
        // The second enqueue survives the write failure: the frame
        // pends in memory, the event is counted once, and later
        // enqueues and acks proceed as if configured memory-only.
        assert!(s.enqueue(&export(1, 1)).is_empty());
        assert_eq!(s.spill_stats().io_errors, 1);
        assert_eq!(s.pending_len(), 2);
        assert!(s.enqueue(&export(2, 1)).is_empty());
        assert_eq!(s.spill_stats().io_errors, 1, "degrade counted once");
        assert_eq!(s.pending_len(), 3);
        let relay = relay_mutex();
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 1,
            },
            &relay,
            0,
        );
        assert_eq!(s.pending_len(), 2, "the window-0 frame released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acks_release_matching_epochs_and_advance_the_floor() {
        let mut s = shipper();
        let relay = relay_mutex();
        for e in 1..=3u64 {
            assert!(s.enqueue(&export(0, e)).is_empty());
        }
        assert_eq!(s.pending_len(), 3);
        // Ack at epoch 2 releases the first two frames.
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 2,
            },
            &relay,
            0,
        );
        assert_eq!(s.pending_len(), 1);
        assert_eq!(s.stats().acked_frames, 2);
        // Replayed ack: nothing matches any more.
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 2,
            },
            &relay,
            0,
        );
        assert_eq!(s.stats().stale_acks, 1);
        // Zero-epoch ack cannot release the remaining v3 frame.
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 0,
            },
            &relay,
            0,
        );
        assert_eq!(s.stats().hostile_acks, 1);
        assert_eq!(s.pending_len(), 1);
    }

    #[test]
    fn shed_frames_report_their_windows_for_rewind() {
        let cfg = ShipperConfig {
            upstream: "127.0.0.1:1".into(),
            handshake_ms: 10,
            stall_ms: 10_000,
            tree: Config::with_budget(1 << 20),
            backoff: BackoffConfig::default(),
        };
        let spill = SpillQueue::in_memory(SpillConfig {
            max_bytes: 200,
            ..SpillConfig::default()
        });
        let mut s = ExportShipper::new(cfg, spill, 1);
        let mut rewound = Vec::new();
        for e in 1..=6u64 {
            rewound.extend(s.enqueue(&export(e, 1)));
        }
        assert!(
            !rewound.is_empty(),
            "the byte bound shed old frames and reported their windows"
        );
        assert!(s.spill_stats().shed_frames > 0);
    }
}
