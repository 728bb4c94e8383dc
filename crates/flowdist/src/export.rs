//! The acknowledged export shipper: the one way a summary frame
//! leaves a node. A site ships its window summaries through it, and a
//! relay its re-exports; both hops keep one delivery contract.
//!
//! * every frame lands in a [`SpillQueue`] **before** any send (a
//!   disk-backed queue survives process death; a site's in-memory one
//!   bounds an outage by bytes, shedding the oldest with accounting);
//! * every connection opens with a hello ([`crate::control`]). An
//!   upstream that does not answer it within
//!   [`ShipperConfig::handshake_ms`] is a failed connect: back off and
//!   retry. A frame stays pending until the receiver acknowledges
//!   **applying** it; a reconnect resends the whole unacked suffix and
//!   the receiver deduplicates idempotently;
//! * reconnects use exponential [`Backoff`] with jitter instead of a
//!   tight retry loop, and report each attempt to the node's
//!   [`ShipperHost`];
//! * rebase-requests from the receiver go to
//!   [`ShipperHost::request_rebase`]: a relay rewinds the named window
//!   so its next drain ships a full rebasing frame; a site ships each
//!   window once, whole, and refuses.
//!
//! A dedicated reader thread per connection decodes control frames
//! into a channel — the pump never does a blocking read mid-frame, so
//! a slow upstream cannot desynchronize the stream — and rings the
//! owner's [`Wake`] (see [`ExportShipper::set_waker`]) after each one
//! and when the connection closes. The owner needs no tick: it pumps
//! when rung, and otherwise sleeps until
//! [`ExportShipper::next_deadline`].

use crate::control::{is_control, ControlFrame, SlotPos, FEATURE_ACKS};
use crate::framing::{read_frame, write_frame};
use crate::summary::SummaryHeader;
use crate::{DistError, SpillQueue, SpillStats, Wake};
use flowmetrics::Stats;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
            wall0_ms: crate::epoch_ms(),
            t0: Instant::now(),
        }
    }

    /// Milliseconds since the epoch, monotonically non-decreasing.
    pub fn now_ms(&self) -> u64 {
        self.wall0_ms + self.t0.elapsed().as_millis() as u64
    }

    /// The instant at which [`SteadyClock::now_ms`] reads `ms` — how a
    /// deadline computed in clock milliseconds becomes a sleep.
    pub fn instant_at(&self, ms: u64) -> Instant {
        self.t0 + Duration::from_millis(ms.saturating_sub(self.wall0_ms))
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
    /// How long to wait for the upstream's hello reply before counting
    /// the connect as failed.
    pub handshake_ms: u64,
    /// How long a connection may sit fully-sent with pending frames
    /// and no ack progress before it is recycled. TCP only loses
    /// frames by losing the connection, but a half-dead path (or a
    /// peer that stopped acking) looks healthy forever — recycling
    /// forces the resend-all-unacked reconnect path.
    pub stall_ms: u64,
    /// Reconnect backoff tuning.
    pub backoff: BackoffConfig,
}

impl ShipperConfig {
    /// The defaults for shipping to `upstream`: a 1 s hello timeout, a
    /// 10 s ack stall, [`BackoffConfig::default`].
    pub fn new(upstream: impl Into<String>) -> ShipperConfig {
        ShipperConfig {
            upstream: upstream.into(),
            handshake_ms: 1_000,
            stall_ms: 10_000,
            backoff: BackoffConfig::default(),
        }
    }
}

/// What a shipper reports to, and asks of, the node it ships for. The
/// shipper locks the node (`&Mutex<H>`) only for these calls.
pub trait ShipperHost {
    /// One connection attempt finished: whether it succeeded, and how
    /// long the shipper backed off before it.
    fn note_reconnect(&mut self, ok: bool, waited_ms: u64);

    /// The upstream acknowledged applying the window at `epoch`.
    fn note_shipped(&mut self, _window_start_ms: u64, _epoch: u64) {}

    /// The upstream asked for a full rebasing re-export of the window.
    /// Returns whether the node honors it; the default refuses.
    fn request_rebase(&mut self, _window_start_ms: u64) -> bool {
        false
    }
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
    /// Rebase-requests honored (window rewound).
    pub rebase_honored: u64,
    /// Rebase-requests the host refused (a window it no longer
    /// tracks, or a site, which never re-exports).
    pub rebase_unknown: u64,
    /// Acks that matched nothing pending (at-least-once replays of
    /// our own resends, or a hostile peer).
    pub stale_acks: u64,
    /// Acks at epoch 0 — ignored: every frame a shipper holds carries
    /// an epoch ≥ 1, so no receiver that applied one acks at 0.
    pub hostile_acks: u64,
    /// Completed hello handshakes (one per established connection).
    pub handshakes: u64,
    /// Connections recycled because acks stopped arriving while
    /// frames were pending (see [`ShipperConfig::stall_ms`]).
    pub stall_recycles: u64,
}

/// What one pending frame is waiting on.
#[derive(Debug, Clone, Copy)]
struct PendingMeta {
    window_start_ms: u64,
    exporter: u16,
    /// The epoch (≥ 1) the frame advances its slot to.
    epoch: u64,
    /// When the frame first hit the wire (0 = never sent yet). Resends
    /// keep the first timestamp: ship→ack RTT honestly includes every
    /// reconnect the frame lived through.
    sent_at_ms: u64,
}

struct Conn {
    stream: TcpStream,
    rx: Receiver<ControlFrame>,
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

/// The durable acknowledged export pipeline of one node (see the
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
    /// Rung by each connection's reader thread (see the module docs).
    waker: Option<Wake>,
}

impl ExportShipper {
    /// Wraps a spill queue (fresh or recovered). Metadata for
    /// recovered frames is rebuilt from their headers; records whose
    /// header does not parse or carries no epoch are dropped from
    /// tracking (they will be shed by acks never matching — counted,
    /// not resent forever).
    pub fn new(cfg: ShipperConfig, spill: SpillQueue, seed: u64) -> ExportShipper {
        let mut meta = BTreeMap::new();
        for rec in spill.pending() {
            if let Ok(m) = meta_of(&rec.bytes) {
                meta.insert(rec.seq, m);
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
            waker: None,
        }
    }

    /// Wires in the owner's wake-up: every later connection's reader
    /// thread rings it after each control frame it queues (ack,
    /// rebase-request) and when the connection closes, so an owner
    /// sleeping until [`ExportShipper::next_deadline`] pumps promptly.
    pub fn set_waker(&mut self, wake: Wake) {
        self.waker = Some(wake);
    }

    /// Wires in a ship→ack RTT histogram: observed once per acked
    /// frame, from first wire write to the releasing ack.
    pub fn set_rtt_histogram(&mut self, hist: flowmetrics::Histogram) {
        self.rtt = Some(hist);
    }

    /// Queues one encoded summary frame durably, tracking it by its
    /// header ([`SummaryHeader::parse`]; the tree is never decoded).
    /// Returns the window starts of any frames the byte bound shed: a
    /// relay marks them unshipped so a full rebasing re-export heals
    /// the loss; a site has nothing to re-export, and the loss stays
    /// counted in [`SpillStats::shed_frames`]. A frame whose header
    /// does not parse, or that carries no epoch (a version-1 frame,
    /// which no receiver acks), is refused and nothing is queued.
    pub fn enqueue(&mut self, frame: Vec<u8>) -> Result<Vec<u64>, DistError> {
        let m = meta_of(&frame)?;
        self.stats.enqueued += 1;
        let seq = self.spill.next_seq();
        let shed = self.spill.push(frame);
        self.meta.insert(seq, m);
        let mut rewind: Vec<u64> = Vec::new();
        for rec in &shed {
            if let Some(m) = self.meta.remove(&rec.seq) {
                rewind.push(m.window_start_ms);
            }
        }
        rewind.sort_unstable();
        rewind.dedup();
        Ok(rewind)
    }

    /// One delivery round: process any arrived control frames, then
    /// (re)connect and send the unacked suffix. Never blocks beyond
    /// the connect and handshake timeouts. Call with the host
    /// **unlocked** — the shipper takes the lock itself for the
    /// host's bookkeeping.
    pub fn pump<H: ShipperHost>(&mut self, host: &Mutex<H>, now_ms: u64) {
        if self.conn.is_some() && !self.process_control(host, now_ms) {
            self.conn = None;
        }
        if self.spill.is_empty() {
            return;
        }
        // A fully-sent connection that has gone silent is not
        // delivering: recycle it so the reconnect resends everything
        // unacked.
        if let Some(conn) = &self.conn {
            if conn.send_from >= self.spill.next_seq()
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
            let conn = self.connect(now_ms);
            lock(host).note_reconnect(conn.is_ok(), waited);
            match conn {
                Ok(conn) => {
                    self.backoff.success();
                    self.stats.handshakes += 1;
                    self.conn = Some(conn);
                }
                Err(_) => {
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
        if !self.process_control(host, now_ms) {
            self.conn = None;
        }
    }

    /// When this shipper next needs a [`ExportShipper::pump`], as a
    /// function of its state and `now_ms`:
    ///
    /// * `None` while nothing is pending — only new frames or an
    ///   arriving control frame (which rings the waker) make work;
    /// * disconnected: when the reconnect backoff allows the next
    ///   attempt;
    /// * connected with everything sent: when the ack stall recycles
    ///   the connection, unless an ack (which rings the waker) comes
    ///   first;
    /// * connected with frames not yet sent: `now_ms`.
    ///
    /// A time at or before `now_ms` means a pump is due now.
    pub fn next_deadline(&self, now_ms: u64) -> Option<u64> {
        if self.spill.is_empty() {
            return None;
        }
        Some(match &self.conn {
            None => self.backoff.next_at_ms,
            Some(conn) if conn.send_from >= self.spill.next_seq() => conn
                .last_progress_ms
                .saturating_add(self.cfg.stall_ms)
                .saturating_add(1),
            Some(_) => now_ms,
        })
    }

    /// Pumps until nothing is pending or `deadline` passes — a node's
    /// graceful drain. Between pumps it sleeps on the connection's ack
    /// channel (or, disconnected, until the backoff allows a retry),
    /// never past [`ExportShipper::next_deadline`] or the drain
    /// deadline. Returns the frames still pending.
    pub fn flush<H: ShipperHost>(
        &mut self,
        host: &Mutex<H>,
        clock: &SteadyClock,
        deadline: Duration,
    ) -> usize {
        let limit = Instant::now() + deadline;
        while self.pending_len() > 0 && Instant::now() < limit {
            self.pump(host, clock.now_ms());
            let Some(due) = self.next_deadline(clock.now_ms()) else {
                break;
            };
            let wait = clock
                .instant_at(due)
                .min(limit)
                .saturating_duration_since(Instant::now());
            match self.conn.as_ref().map(|c| c.rx.recv_timeout(wait)) {
                Some(Ok(frame)) => self.on_control(frame, host, clock.now_ms()),
                Some(Err(RecvTimeoutError::Timeout)) => {}
                Some(Err(RecvTimeoutError::Disconnected)) => self.conn = None,
                None => std::thread::sleep(wait),
            }
        }
        self.pending_len()
    }

    /// Connects and completes the hello handshake; an upstream that
    /// does not answer with an ack-capable hello is a failed connect.
    fn connect(&mut self, now_ms: u64) -> std::io::Result<Conn> {
        let stream = crate::framing::connect(&self.cfg.upstream)?;
        let reader_stream = stream.try_clone()?;
        let (tx, rx) = std::sync::mpsc::channel();
        let waker = self.waker.clone();
        std::thread::spawn(move || reader_loop(reader_stream, tx, waker));
        let mut conn = Conn {
            stream,
            rx,
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
            .recv_timeout(Duration::from_millis(self.cfg.handshake_ms))
        {
            Ok(ControlFrame::Hello { features }) if features & FEATURE_ACKS != 0 => Ok(conn),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "upstream did not answer the hello with acks",
            )),
        }
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
        true
    }

    /// Drains arrived control frames. Returns false when the reader
    /// thread is gone (connection closed).
    fn process_control<H: ShipperHost>(&mut self, host: &Mutex<H>, now_ms: u64) -> bool {
        loop {
            let frame = match self.conn.as_ref() {
                Some(conn) => conn.rx.try_recv(),
                None => return true,
            };
            match frame {
                Ok(frame) => self.on_control(frame, host, now_ms),
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    /// Acts on one control frame from the upstream.
    fn on_control<H: ShipperHost>(&mut self, frame: ControlFrame, host: &Mutex<H>, now_ms: u64) {
        match frame {
            ControlFrame::Ack(slot) => {
                if self.handle_ack(slot, host, now_ms) > 0 {
                    if let Some(conn) = self.conn.as_mut() {
                        conn.last_progress_ms = now_ms;
                    }
                }
            }
            ControlFrame::RebaseRequest(slot) => {
                if lock(host).request_rebase(slot.window_start_ms) {
                    self.stats.rebase_honored += 1;
                } else {
                    self.stats.rebase_unknown += 1;
                }
            }
            ControlFrame::Hello { .. } => {}
        }
    }

    /// Non-positional ack matching: an ack for `(window, exporter)` at
    /// epoch `e` releases every pending frame of that slot with epoch
    /// ≤ `e`. An ack at epoch 0 releases nothing and counts as hostile.
    /// Returns the number of frames released.
    fn handle_ack<H: ShipperHost>(&mut self, slot: SlotPos, host: &Mutex<H>, now_ms: u64) -> u64 {
        if slot.epoch == 0 {
            self.stats.hostile_acks += 1;
            return 0;
        }
        let released: Vec<PendingMeta> = self
            .meta
            .extract_if(.., |_, m| {
                m.window_start_ms == slot.window_start_ms
                    && m.exporter == slot.exporter
                    && m.epoch <= slot.epoch
            })
            .map(|(_, m)| m)
            .collect();
        if released.is_empty() {
            self.stats.stale_acks += 1;
            return 0;
        }
        if let Some(h) = &self.rtt {
            for m in released.iter().filter(|m| m.sent_at_ms > 0) {
                h.observe_secs(now_ms.saturating_sub(m.sent_at_ms) as f64 / 1_000.0);
            }
        }
        let released = released.len() as u64;
        self.stats.acked_frames += released;
        lock(host).note_shipped(slot.window_start_ms, slot.epoch);
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

    /// A coherent read of the shipper for a stats page
    /// ([`shipper_stats`]).
    pub fn view(&self) -> ShipperView {
        ShipperView {
            pending: self.spill.len(),
            pending_bytes: self.spill.pending_bytes(),
            connected: self.conn.is_some(),
            stats: self.stats,
            spill: self.spill.stats(),
        }
    }

    /// Shipper counters.
    pub fn stats(&self) -> ShipperStats {
        self.stats
    }

    /// The spill queue's counters (pushed/acked/shed/recovered bytes).
    pub fn spill_stats(&self) -> SpillStats {
        self.spill.stats()
    }
}

fn lock<H>(host: &Mutex<H>) -> std::sync::MutexGuard<'_, H> {
    host.lock().expect("shipper host lock")
}

/// What a frame's header says it waits on; a frame without an epoch
/// is refused.
fn meta_of(frame: &[u8]) -> Result<PendingMeta, DistError> {
    let h = SummaryHeader::parse(frame)?;
    let Some(lineage) = h.lineage else {
        return Err(DistError::BadFrame("summary without epoch"));
    };
    Ok(PendingMeta {
        window_start_ms: h.window.start_ms,
        exporter: h.site,
        epoch: lineage.epoch.epoch,
        sent_at_ms: 0,
    })
}

/// One shipper as a stats page sees it (see [`ExportShipper::view`]).
#[derive(Debug, Clone, Copy)]
pub struct ShipperView {
    /// Frames awaiting acknowledgment.
    pub pending: usize,
    /// Payload bytes those frames hold in the spill queue.
    pub pending_bytes: u64,
    /// Whether an upstream connection is established.
    pub connected: bool,
    /// The shipper's counters.
    pub stats: ShipperStats,
    /// The spill queue's counters.
    pub spill: SpillStats,
}

/// The shipper's entries of a node's stats list, declared once for
/// every node: `export_pending` and `upstream_connected`, then — when
/// the node ships at all (a root does not) — the `ship_*` counters and
/// the `spill_*` queue state.
pub fn shipper_stats(s: &mut Stats, view: Option<&ShipperView>) {
    s.kv("export_pending", view.map_or(0, |v| v.pending)).gauge(
        "flowtree_export_pending_frames",
        "Export frames awaiting upstream acknowledgment.",
    );
    s.kv("upstream_connected", view.is_some_and(|v| v.connected))
        .gauge(
            "flowtree_upstream_connected",
            "1 when an upstream connection is established.",
        );
    let Some(v) = view else {
        return;
    };
    let sh = &v.stats;
    s.kv("ship_enqueued", sh.enqueued).counter(
        "flowtree_ship_enqueued_total",
        "Frames handed to the durable shipper.",
    );
    s.kv("ship_sent_frames", sh.sent_frames).counter(
        "flowtree_ship_sent_frames_total",
        "Frames written to the wire (including resends).",
    );
    s.kv("ship_sent_bytes", sh.sent_bytes).counter(
        "flowtree_ship_sent_bytes_total",
        "Bytes written to the wire.",
    );
    s.kv("ship_acked_frames", sh.acked_frames).counter(
        "flowtree_ship_acked_frames_total",
        "Frames released by a receiver ack.",
    );
    s.kv("ship_rebase_honored", sh.rebase_honored).counter(
        "flowtree_ship_rebase_honored_total",
        "Rebase-requests honored (window rewound).",
    );
    s.metric(sh.stale_acks).counter(
        "flowtree_ship_stale_acks_total",
        "Acks that matched nothing pending.",
    );
    s.metric(sh.hostile_acks).counter(
        "flowtree_ship_hostile_acks_total",
        "Acks at epoch 0, which no applied frame earns; ignored.",
    );
    s.kv("ship_stall_recycles", sh.stall_recycles).counter(
        "flowtree_ship_stall_recycles_total",
        "Connections recycled because acks went silent.",
    );
    s.kv("ship_handshakes", sh.handshakes).counter(
        "flowtree_ship_handshakes_total",
        "Completed hello handshakes (one per established connection).",
    );
    let sp = &v.spill;
    s.kv("spill_pushed_frames", sp.pushed_frames).counter(
        "flowtree_spill_pushed_frames_total",
        "Frames pushed into the spill queue.",
    );
    s.kv("spill_pushed_bytes", sp.pushed_bytes).counter(
        "flowtree_spill_pushed_bytes_total",
        "Payload bytes pushed into the spill queue.",
    );
    s.kv("spill_acked_floor", sp.acked_frames).counter(
        "flowtree_spill_acked_frames_total",
        "Frames released from the spill queue by acks.",
    );
    s.metric(sp.shed_frames).counter(
        "flowtree_spill_shed_frames_total",
        "Frames shed by the spill byte bound.",
    );
    s.metric(sp.shed_bytes).counter(
        "flowtree_spill_shed_bytes_total",
        "Payload bytes the shed frames carried.",
    );
    s.kv("spill_recovered_frames", sp.recovered_frames).counter(
        "flowtree_spill_recovered_frames_total",
        "Frames recovered from disk at startup.",
    );
    s.kv("spill_torn_bytes", sp.torn_bytes).counter(
        "flowtree_spill_torn_bytes_total",
        "Torn tail bytes truncated during recovery.",
    );
    s.kv("spill_io_errors", sp.io_errors).counter(
        "flowtree_spill_io_errors_total",
        "Spill writes degraded to memory-only by I/O errors.",
    );
}

fn reader_loop(stream: TcpStream, tx: Sender<ControlFrame>, waker: Option<Wake>) {
    let ring = || {
        if let Some(w) = &waker {
            w.notify();
        }
    };
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        if is_control(&frame) {
            if let Ok(cf) = ControlFrame::decode(&frame) {
                if tx.send(cf).is_err() {
                    return;
                }
                ring();
            }
        }
    }
    // The connection closed: the owner's next pump sees the reader gone
    // and reconnects.
    drop(tx);
    ring();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochHeader, Lineage, SpillConfig, Summary, SummaryKind, WindowId};
    use flowkey::Schema;
    use flowtree_core::{Config, FlowTree, Popularity};

    #[test]
    fn steady_clock_never_goes_backwards() {
        let c = SteadyClock::new();
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

    fn export(window: u64, epoch: u64) -> Vec<u8> {
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
            lineage: Some(Lineage {
                provenance: vec![0],
                epoch: EpochHeader { epoch, base: None },
            }),
            tree,
        }
        .encode()
    }

    fn shipper() -> ExportShipper {
        let cfg = ShipperConfig {
            handshake_ms: 10,
            ..ShipperConfig::new("127.0.0.1:1")
        };
        ExportShipper::new(cfg, SpillQueue::in_memory(SpillConfig::default()), 1)
    }

    /// A host that records the acked windows.
    #[derive(Default)]
    struct Recorder {
        shipped: Vec<(u64, u64)>,
    }

    impl ShipperHost for Recorder {
        fn note_reconnect(&mut self, _ok: bool, _waited_ms: u64) {}

        fn note_shipped(&mut self, window_start_ms: u64, epoch: u64) {
            self.shipped.push((window_start_ms, epoch));
        }
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
            handshake_ms: 10,
            ..ShipperConfig::new("127.0.0.1:1")
        };
        let spill_cfg = SpillConfig {
            segment_bytes: 1,
            ..SpillConfig::default()
        };
        let spill = SpillQueue::open(&dir, spill_cfg).unwrap();
        std::fs::create_dir_all(dir.join(format!("spill-{:020}.seg", 1))).unwrap();
        let mut s = ExportShipper::new(cfg, spill, 1);
        assert!(s.enqueue(export(0, 1)).unwrap().is_empty());
        assert_eq!(s.spill_stats().io_errors, 0, "first segment is healthy");
        // The second enqueue survives the write failure: the frame
        // pends in memory, the event is counted once, and later
        // enqueues and acks proceed as if configured memory-only.
        assert!(s.enqueue(export(1, 1)).unwrap().is_empty());
        assert_eq!(s.spill_stats().io_errors, 1);
        assert_eq!(s.pending_len(), 2);
        assert!(s.enqueue(export(2, 1)).unwrap().is_empty());
        assert_eq!(s.spill_stats().io_errors, 1, "degrade counted once");
        assert_eq!(s.pending_len(), 3);
        let host = Mutex::new(Recorder::default());
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 1,
            },
            &host,
            0,
        );
        assert_eq!(s.pending_len(), 2, "the window-0 frame released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acks_release_matching_epochs_and_advance_the_floor() {
        let mut s = shipper();
        let host = Mutex::new(Recorder::default());
        for e in 1..=3u64 {
            assert!(s.enqueue(export(0, e)).unwrap().is_empty());
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
            &host,
            0,
        );
        assert_eq!(s.pending_len(), 1);
        assert_eq!(s.stats().acked_frames, 2);
        assert_eq!(host.lock().unwrap().shipped, [(0, 2)]);
        // Replayed ack: nothing matches any more.
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 2,
            },
            &host,
            0,
        );
        assert_eq!(s.stats().stale_acks, 1);
        // An ack at epoch 0 releases nothing.
        s.handle_ack(
            SlotPos {
                window_start_ms: 0,
                span_ms: 1_000,
                exporter: 100,
                epoch: 0,
            },
            &host,
            0,
        );
        assert_eq!(s.stats().hostile_acks, 1);
        assert_eq!(s.pending_len(), 1);
    }

    /// The shipper's deadline as a pure function of its state and
    /// `now_ms`: nothing pending, backoff, ack stall, unsent frames.
    #[test]
    fn next_deadline_follows_backoff_and_ack_stall() {
        let mut s = shipper();
        let host = Mutex::new(Recorder::default());
        assert_eq!(s.next_deadline(7), None, "nothing pending");
        s.enqueue(export(0, 1)).unwrap();
        // Disconnected, never failed: the first attempt is due at once.
        assert!(s.next_deadline(7).unwrap() <= 7);
        // A failed attempt at t = 1000 defers the next one by the
        // jittered backoff, [base/2, base] after the failure.
        let delay = s.backoff.failure(1_000);
        assert_eq!(s.next_deadline(1_000), Some(1_000 + delay));
        assert!((50..=100).contains(&delay), "{delay}");

        // Connected with the frame sent: due when the ack stall would
        // recycle the connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_tx, rx) = std::sync::mpsc::channel();
        s.conn = Some(Conn {
            stream,
            rx,
            send_from: s.spill.next_seq(),
            last_progress_ms: 5_000,
        });
        let stall = s.cfg.stall_ms;
        assert_eq!(s.next_deadline(5_001), Some(5_000 + stall + 1));
        // A frame queued but not yet written: due now.
        s.enqueue(export(1, 1)).unwrap();
        assert_eq!(s.next_deadline(5_002), Some(5_002));
        // Both acked: nothing pending, no deadline.
        for w in 0..2 {
            s.handle_ack(
                SlotPos {
                    window_start_ms: w * 1_000,
                    span_ms: 1_000,
                    exporter: 100,
                    epoch: 1,
                },
                &host,
                5_003,
            );
        }
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.next_deadline(5_003), None);
    }

    #[test]
    fn steady_clock_instant_at_inverts_now_ms() {
        let c = SteadyClock::new();
        let now = c.now_ms();
        assert!(c.instant_at(now) <= Instant::now());
        assert_eq!(
            c.instant_at(now + 250) - c.instant_at(now),
            Duration::from_millis(250)
        );
        // Times before the clock's anchor clamp to it.
        assert_eq!(c.instant_at(0), c.instant_at(c.wall0_ms));
    }

    #[test]
    fn shed_frames_report_their_windows_for_rewind() {
        let cfg = ShipperConfig {
            handshake_ms: 10,
            ..ShipperConfig::new("127.0.0.1:1")
        };
        let spill = SpillQueue::in_memory(SpillConfig {
            max_bytes: 200,
            ..SpillConfig::default()
        });
        let mut s = ExportShipper::new(cfg, spill, 1);
        let mut rewound = Vec::new();
        for e in 1..=6u64 {
            rewound.extend(s.enqueue(export(e, 1)).unwrap());
        }
        assert!(
            !rewound.is_empty(),
            "the byte bound shed old frames and reported their windows"
        );
        assert!(s.spill_stats().shed_frames > 0);
    }
}
