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
//!   tight retry loop, and the node hears of each attempt;
//! * a rebase-request goes to the node: a relay rewinds the window so
//!   its next drain ships a full rebasing frame; a site refuses.
//!
//! [`ShipperCore`] is the contract as a state machine with no socket,
//! thread, lock or clock: it takes frames, connect outcomes, writes,
//! control frames and closed links, each with the time, and answers
//! with the next [`Step`] and [`ShipEvent`]s for the node.
//! [`ExportShipper`] is the one TCP driver over it. Its reader thread
//! per connection feeds control frames to a channel and rings the
//! owner's [`Wake`] after each one and on close; the owner pumps when
//! rung, else sleeps until [`ShipperCore::next_deadline`]. A pump hands
//! the events to the owner after its socket calls, each bounded: a dial
//! per address and the hello reply by [`ShipperConfig::handshake_ms`],
//! a 64 KiB write by [`ShipperConfig::stall_ms`] (no progress for that
//! long ends the connection as an ack stall does). A link that is slow
//! but moving never stalls, so the owner's halt, asked between writes,
//! bounds the pump: a drain returns within its deadline plus the
//! longer of the two settings.

use crate::control::{is_control, ControlFrame, SlotPos, FEATURE_ACKS};
use crate::framing::{read_frame, write_frame};
use crate::summary::SummaryHeader;
use crate::{DistError, SpillQueue, SpillStats, Wake};
use flowmetrics::Stats;
use std::collections::BTreeMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
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
    /// the connect as failed, and the dial timeout per address.
    pub handshake_ms: u64,
    /// How long a connection may sit fully-sent with pending frames
    /// and no ack progress before it is recycled. TCP only loses
    /// frames by losing the connection, but a half-dead path (or a
    /// peer that stopped acking) looks healthy forever — recycling
    /// forces the resend-all-unacked reconnect path. It is also the
    /// write timeout: an upstream that stops reading is a stall too.
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

/// What the shipper reports to, and asks of, the node it ships for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShipEvent {
    /// One connection attempt finished.
    Reconnect {
        /// The upstream answered the hello with acks.
        ok: bool,
        /// How long the shipper backed off before the attempt.
        waited_ms: u64,
    },
    /// The upstream acknowledged applying the window at this position.
    Shipped(SlotPos),
    /// The upstream asked for a full rebasing re-export of the window.
    /// The host answers whether it honors it.
    Rebase(SlotPos),
}

/// Shipper counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShipperStats {
    /// Frames handed to [`ShipperCore::enqueue`].
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
    /// frames were pending, or a write made no progress for as long
    /// (see [`ShipperConfig::stall_ms`]).
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

/// What the driver does next ([`ShipperCore::step`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Step<'a> {
    /// Dial and complete the hello; report [`ShipperCore::on_connect`].
    Connect,
    /// Write this pending frame (its spill seq, its bytes); report
    /// [`ShipperCore::on_sent`] or [`ShipperCore::on_write_error`].
    Send(u64, &'a [u8]),
    /// Drop the connection: everything is sent and the acks went silent
    /// for [`ShipperConfig::stall_ms`].
    Recycle,
    /// Nothing to do before [`ShipperCore::next_deadline`] or an input.
    Wait,
}

/// The connection as the core sees it.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Next spill seq to send on this connection (everything unacked
    /// below it was already sent here).
    send_from: u64,
    /// Last time this connection made progress (sent a frame or
    /// released one on an ack) — the stall clock.
    last_progress_ms: u64,
}

/// The delivery contract as a state machine (see the module docs).
pub struct ShipperCore {
    stall_ms: u64,
    spill: SpillQueue,
    /// spill seq → what the frame is waiting on.
    meta: BTreeMap<u64, PendingMeta>,
    link: Option<Link>,
    backoff: Backoff,
    stats: ShipperStats,
    /// Ship→ack round-trip latency, when the node wired one in.
    rtt: Option<flowmetrics::Histogram>,
    events: Vec<ShipEvent>,
}

impl ShipperCore {
    /// Wraps a spill queue (fresh or recovered). Metadata for
    /// recovered frames is rebuilt from their headers; records whose
    /// header does not parse or carries no epoch are dropped from
    /// tracking (they will be shed by acks never matching — counted,
    /// not resent forever).
    pub fn new(cfg: &ShipperConfig, spill: SpillQueue, seed: u64) -> ShipperCore {
        let meta = spill
            .pending()
            .filter_map(|rec| Some((rec.seq, meta_of(&rec.bytes).ok()?)))
            .collect();
        ShipperCore {
            stall_ms: cfg.stall_ms,
            spill,
            meta,
            link: None,
            backoff: Backoff::new(cfg.backoff, seed),
            stats: ShipperStats::default(),
            rtt: None,
            events: Vec::new(),
        }
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

    /// What to do at `now_ms`: connect once the backoff allows, send
    /// the next frame not yet sent on this connection, recycle a
    /// fully-sent connection gone silent (the reconnect resends
    /// everything unacked), or wait.
    pub fn step(&mut self, now_ms: u64) -> Step<'_> {
        if self.spill.is_empty() {
            return Step::Wait;
        }
        let Some(link) = self.link else {
            let ready = self.backoff.ready(now_ms);
            return if ready { Step::Connect } else { Step::Wait };
        };
        if link.send_from < self.spill.next_seq() {
            let rec = self.spill.first_from(link.send_from);
            let rec = rec.expect("the pending suffix ends at next_seq");
            return Step::Send(rec.seq, &rec.bytes);
        }
        if now_ms.saturating_sub(link.last_progress_ms) <= self.stall_ms {
            return Step::Wait;
        }
        self.stats.stall_recycles += 1;
        self.link = None;
        self.backoff.failure(now_ms);
        Step::Recycle
    }

    /// A connection attempt finished: `ok` when the upstream answered
    /// the hello with acks. A new connection sends from the acked
    /// floor — the whole unacked suffix; a failed one backs off.
    pub fn on_connect(&mut self, ok: bool, now_ms: u64) {
        let waited_ms = self.backoff.last_delay_ms;
        self.events.push(ShipEvent::Reconnect { ok, waited_ms });
        if !ok {
            self.backoff.failure(now_ms);
            return;
        }
        self.backoff.success();
        self.stats.handshakes += 1;
        self.link = Some(Link {
            send_from: self.spill.acked_floor(),
            last_progress_ms: now_ms,
        });
    }

    /// The frame at spill seq `seq`, `bytes` long, was written.
    pub fn on_sent(&mut self, seq: u64, bytes: u64, now_ms: u64) {
        if let Some(link) = self.link.as_mut() {
            link.send_from = seq + 1;
            link.last_progress_ms = now_ms;
        }
        self.stats.sent_frames += 1;
        self.stats.sent_bytes += bytes;
        if let Some(m) = self.meta.get_mut(&seq) {
            if m.sent_at_ms == 0 {
                m.sent_at_ms = now_ms;
            }
        }
    }

    /// A write failed and the connection is gone: the next connect
    /// backs off. `stalled`: it made no progress for
    /// [`ShipperConfig::stall_ms`], which counts as an ack stall.
    pub fn on_write_error(&mut self, stalled: bool, now_ms: u64) {
        self.stats.stall_recycles += u64::from(stalled);
        self.link = None;
        self.backoff.failure(now_ms);
    }

    /// The upstream closed the connection: reconnect when next due.
    pub fn on_closed(&mut self) {
        self.link = None;
    }

    /// Acts on one control frame from the upstream.
    pub fn on_control(&mut self, frame: ControlFrame, now_ms: u64) {
        match frame {
            ControlFrame::Ack(slot) => self.handle_ack(slot, now_ms),
            ControlFrame::RebaseRequest(slot) => self.events.push(ShipEvent::Rebase(slot)),
            ControlFrame::Hello { .. } => {}
        }
    }

    /// The host's answer to a [`ShipEvent::Rebase`]: whether it
    /// rewound the window.
    pub fn on_rebase_answer(&mut self, honored: bool) {
        self.stats.rebase_honored += u64::from(honored);
        self.stats.rebase_unknown += u64::from(!honored);
    }

    /// The events for the host since the last call, oldest first.
    pub fn take_events(&mut self) -> Vec<ShipEvent> {
        std::mem::take(&mut self.events)
    }

    /// Non-positional ack matching: an ack for `(window, exporter)` at
    /// epoch `e` releases every pending frame of that slot with epoch
    /// ≤ `e`, which is progress on the connection. An ack at epoch 0
    /// releases nothing and counts as hostile.
    fn handle_ack(&mut self, slot: SlotPos, now_ms: u64) {
        if slot.epoch == 0 {
            self.stats.hostile_acks += 1;
            return;
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
            return;
        }
        if let Some(h) = &self.rtt {
            for m in released.iter().filter(|m| m.sent_at_ms > 0) {
                h.observe_secs(now_ms.saturating_sub(m.sent_at_ms) as f64 / 1_000.0);
            }
        }
        self.stats.acked_frames += released.len() as u64;
        self.events.push(ShipEvent::Shipped(slot));
        let floor = self
            .meta
            .keys()
            .next()
            .copied()
            .unwrap_or_else(|| self.spill.next_seq());
        self.spill.ack_through(floor);
        if let Some(link) = self.link.as_mut() {
            link.last_progress_ms = now_ms;
        }
    }

    /// When the core next needs a [`ShipperCore::step`], as a function
    /// of its state and `now_ms`:
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
    /// A time at or before `now_ms` means a step is due now.
    pub fn next_deadline(&self, now_ms: u64) -> Option<u64> {
        if self.spill.is_empty() {
            return None;
        }
        Some(match self.link {
            None => self.backoff.next_at_ms,
            Some(link) if link.send_from >= self.spill.next_seq() => link
                .last_progress_ms
                .saturating_add(self.stall_ms)
                .saturating_add(1),
            Some(_) => now_ms,
        })
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
            connected: self.link.is_some(),
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

/// One live upstream connection of the driver.
struct Conn {
    stream: TcpStream,
    rx: Receiver<ControlFrame>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        // Unblocks the reader thread, which exits on the read error.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The durable acknowledged export pipeline of one node: the TCP
/// driver over a [`ShipperCore`].
pub struct ExportShipper {
    /// The contract: every read and [`ShipperCore::enqueue`] go
    /// straight to it.
    pub core: ShipperCore,
    cfg: ShipperConfig,
    conn: Option<Conn>,
    /// Rung by each connection's reader thread (see the module docs).
    waker: Option<Wake>,
}

impl ExportShipper {
    /// A shipper to `cfg.upstream` over a spill queue (fresh or
    /// recovered; see [`ShipperCore::new`]).
    pub fn new(cfg: ShipperConfig, spill: SpillQueue, seed: u64) -> ExportShipper {
        ExportShipper {
            core: ShipperCore::new(&cfg, spill, seed),
            cfg,
            conn: None,
            waker: None,
        }
    }

    /// Wires in the owner's wake-up: every later connection's reader
    /// thread rings it after each control frame it queues (ack,
    /// rebase-request) and when the connection closes, so an owner
    /// sleeping until [`ShipperCore::next_deadline`] pumps promptly.
    pub fn set_waker(&mut self, wake: Wake) {
        self.waker = Some(wake);
    }

    /// One delivery round: feed the arrived control frames to the core,
    /// carry out its steps — (re)connect, send the unacked suffix —
    /// until it waits or `halt` says stop, then hand each [`ShipEvent`]
    /// to `host`, whose answer counts only for a [`ShipEvent::Rebase`]
    /// (honored or not). Every socket call is bounded (see the module
    /// docs); `halt` is asked before each step and between a frame's
    /// 64 KiB writes, where it drops the connection. `host` runs after
    /// every socket call.
    pub fn pump(
        &mut self,
        now_ms: u64,
        halt: impl Fn() -> bool,
        mut host: impl FnMut(ShipEvent) -> bool,
    ) {
        self.read_control(now_ms);
        while !halt() {
            match self.core.step(now_ms) {
                Step::Wait => break,
                Step::Recycle => self.conn = None,
                Step::Connect => {
                    self.conn = connect(&self.cfg, self.waker.clone()).ok();
                    self.core.on_connect(self.conn.is_some(), now_ms);
                }
                Step::Send(seq, frame) => {
                    let conn = self.conn.as_ref().expect("the core sends only on a link");
                    let len = frame.len() as u64;
                    match write_frame(Chunked(&conn.stream, &halt), frame) {
                        Ok(()) => self.core.on_sent(seq, len, now_ms),
                        Err(_) if halt() => self.close(),
                        Err(e) => {
                            let stalled =
                                matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
                            self.core.on_write_error(stalled, now_ms);
                            self.conn = None;
                        }
                    }
                }
            }
        }
        self.read_control(now_ms);
        self.settle(&mut host);
    }

    /// Pumps until nothing is pending or `deadline` passes — a node's
    /// graceful drain, which returns within `deadline` plus the longest
    /// socket call (see the module docs). Between pumps it sleeps on
    /// the connection's ack channel (or, disconnected, until the
    /// backoff allows a retry), never past
    /// [`ShipperCore::next_deadline`] or the drain deadline. Returns the
    /// frames still pending.
    pub fn flush(
        &mut self,
        clock: &SteadyClock,
        deadline: Duration,
        mut host: impl FnMut(ShipEvent) -> bool,
    ) -> usize {
        let limit = Instant::now() + deadline;
        let halt = || Instant::now() >= limit;
        while self.core.pending_len() > 0 && !halt() {
            self.pump(clock.now_ms(), halt, &mut host);
            let Some(due) = self.core.next_deadline(clock.now_ms()) else {
                break;
            };
            let wait = clock
                .instant_at(due)
                .min(limit)
                .saturating_duration_since(Instant::now());
            match self.conn.as_ref().map(|c| c.rx.recv_timeout(wait)) {
                Some(Ok(frame)) => self.core.on_control(frame, clock.now_ms()),
                Some(Err(RecvTimeoutError::Timeout)) => {}
                Some(Err(RecvTimeoutError::Disconnected)) => self.close(),
                None => std::thread::sleep(wait),
            }
        }
        self.settle(&mut host);
        self.core.pending_len()
    }

    /// Feeds the arrived control frames to the core; a reader thread
    /// that is gone means the upstream closed the connection.
    fn read_control(&mut self, now_ms: u64) {
        while let Some(conn) = &self.conn {
            match conn.rx.try_recv() {
                Ok(frame) => self.core.on_control(frame, now_ms),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => self.close(),
            }
        }
    }

    fn close(&mut self) {
        self.core.on_closed();
        self.conn = None;
    }

    /// Hands the core's events to `host`, and its rebase answers back.
    fn settle(&mut self, host: &mut impl FnMut(ShipEvent) -> bool) {
        for ev in self.core.take_events() {
            let honored = host(ev);
            if let ShipEvent::Rebase(_) = ev {
                self.core.on_rebase_answer(honored);
            }
        }
    }
}

/// Dials `cfg.upstream` and completes the hello handshake; an upstream
/// that does not answer with an ack-capable hello is a failed connect.
/// The stream's write timeout is the ack stall.
fn connect(cfg: &ShipperConfig, waker: Option<Wake>) -> std::io::Result<Conn> {
    let handshake = Duration::from_millis(cfg.handshake_ms.max(1));
    let stream = crate::framing::connect(&cfg.upstream, handshake)?;
    stream.set_write_timeout(Some(Duration::from_millis(cfg.stall_ms.max(1))))?;
    let reader_stream = stream.try_clone()?;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || reader_loop(reader_stream, tx, waker));
    let conn = Conn { stream, rx };
    let hello = ControlFrame::Hello {
        features: FEATURE_ACKS,
    };
    write_frame(&conn.stream, &hello.encode())?;
    match conn.rx.recv_timeout(handshake) {
        Ok(ControlFrame::Hello { features }) if features & FEATURE_ACKS != 0 => Ok(conn),
        _ => Err(std::io::Error::new(
            ErrorKind::TimedOut,
            "upstream did not answer the hello with acks",
        )),
    }
}

/// The shipper's write half: each `write` hands the kernel at most
/// 64 KiB, little enough that a link still moving data takes it whole
/// within the stream's write timeout, the ack stall. A blocking write
/// returns short only after waiting that long for buffer space, so a
/// short chunk made no progress for the stall and fails as
/// [`ErrorKind::TimedOut`] rather than waiting the timeout out again.
/// The halt is asked before every chunk, so a slow link that still
/// moves data cannot hold a pump past it.
struct Chunked<'a, H>(&'a TcpStream, &'a H);

impl<H: Fn() -> bool> Write for Chunked<'_, H> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if (self.1)() {
            return Err(std::io::Error::other("the pump was halted"));
        }
        let chunk = &buf[..buf.len().min(64 << 10)];
        let mut stream = self.0;
        match stream.write(chunk)? {
            n if n == chunk.len() => Ok(n),
            _ => Err(ErrorKind::TimedOut.into()),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
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

/// One shipper as a stats page sees it (see [`ShipperCore::view`]).
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
    let ring = || waker.iter().for_each(Wake::notify);
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

    fn core() -> ShipperCore {
        let cfg = ShipperConfig {
            handshake_ms: 10,
            ..ShipperConfig::new("127.0.0.1:1")
        };
        ShipperCore::new(&cfg, SpillQueue::in_memory(SpillConfig::default()), 1)
    }

    fn ack(window: u64, epoch: u64) -> ControlFrame {
        ControlFrame::Ack(SlotPos {
            window_start_ms: window * 1_000,
            span_ms: 1_000,
            exporter: 100,
            epoch,
        })
    }

    /// Carries out every `Send` step at `now_ms`; returns the seqs sent.
    fn send_all(s: &mut ShipperCore, now_ms: u64) -> Vec<u64> {
        let mut sent = Vec::new();
        while let Step::Send(seq, frame) = s.step(now_ms) {
            let bytes = frame.len() as u64;
            s.on_sent(seq, bytes, now_ms);
            sent.push(seq);
        }
        sent
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
        let mut s = ShipperCore::new(&cfg, spill, 1);
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
        s.on_control(ack(0, 1), 0);
        assert_eq!(s.pending_len(), 2, "the window-0 frame released");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn acks_release_matching_epochs_and_advance_the_floor() {
        let mut s = core();
        for e in 1..=3u64 {
            assert!(s.enqueue(export(0, e)).unwrap().is_empty());
        }
        assert_eq!(s.pending_len(), 3);
        // Ack at epoch 2 releases the first two frames.
        s.on_control(ack(0, 2), 0);
        assert_eq!(s.pending_len(), 1);
        assert_eq!(s.stats().acked_frames, 2);
        assert!(matches!(
            s.take_events()[..],
            [ShipEvent::Shipped(SlotPos {
                window_start_ms: 0,
                epoch: 2,
                ..
            })]
        ));
        // Replayed ack: nothing matches any more.
        s.on_control(ack(0, 2), 0);
        assert_eq!(s.stats().stale_acks, 1);
        // An ack at epoch 0 releases nothing.
        s.on_control(ack(0, 0), 0);
        assert_eq!(s.stats().hostile_acks, 1);
        assert_eq!(s.pending_len(), 1);
    }

    /// The shipper's deadline as a pure function of its state and
    /// `now_ms`: nothing pending, backoff, ack stall, unsent frames.
    #[test]
    fn next_deadline_follows_backoff_and_ack_stall() {
        let mut s = core();
        assert_eq!(s.next_deadline(7), None, "nothing pending");
        s.enqueue(export(0, 1)).unwrap();
        // Disconnected, never failed: the first attempt is due at once.
        assert!(s.next_deadline(7).unwrap() <= 7);
        // A failed attempt at t = 1000 defers the next one by the
        // jittered backoff, [base/2, base] after the failure.
        s.on_connect(false, 1_000);
        let delay = s.backoff.last_delay_ms;
        assert_eq!(s.next_deadline(1_000), Some(1_000 + delay));
        assert!((50..=100).contains(&delay), "{delay}");

        // Connected with the frame sent: due when the ack stall would
        // recycle the connection.
        s.on_connect(true, 5_000);
        assert_eq!(send_all(&mut s, 5_000), [0]);
        let stall = s.stall_ms;
        assert_eq!(s.next_deadline(5_001), Some(5_000 + stall + 1));
        // A frame queued but not yet written: due now.
        s.enqueue(export(1, 1)).unwrap();
        assert_eq!(s.next_deadline(5_002), Some(5_002));
        // Both acked: nothing pending, no deadline.
        for w in 0..2 {
            s.on_control(ack(w, 1), 5_003);
        }
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.next_deadline(5_003), None);
    }

    /// After a closed link the next connection resends from the acked
    /// floor — the whole unacked suffix — and a fully-sent link that
    /// goes silent is recycled one millisecond past
    /// `last_progress + stall_ms`.
    #[test]
    fn a_reconnect_resends_the_unacked_suffix_and_silence_recycles() {
        let mut s = core();
        for w in 0..3 {
            s.enqueue(export(w, 1)).unwrap();
        }
        assert_eq!(s.step(0), Step::Connect);
        s.on_connect(true, 0);
        assert_eq!(send_all(&mut s, 0), [0, 1, 2]);
        s.on_control(ack(0, 1), 10);
        s.on_closed();
        assert!(!s.view().connected);
        assert_eq!(s.step(20), Step::Connect, "a close is not a failure");
        s.on_connect(true, 20);
        assert_eq!(send_all(&mut s, 20), [1, 2], "resent from the acked floor");
        assert_eq!(s.stats().sent_frames, 5);

        let stall = s.stall_ms;
        assert_eq!(s.step(20 + stall), Step::Wait);
        assert_eq!(s.step(20 + stall + 1), Step::Recycle);
        assert_eq!(s.stats().stall_recycles, 1);
        assert!(!s.view().connected);
        assert_eq!(s.step(20 + stall + 1), Step::Wait, "the recycle backs off");
        assert_eq!(s.pending_len(), 2, "nothing released without an ack");
    }

    /// An upstream that answers the hello and then never reads: once
    /// the loopback buffers fill, the write makes no progress, and the
    /// pump ends it within the ack stall instead of blocking until the
    /// peer closes.
    #[test]
    fn a_wedged_upstream_ends_the_pump_within_the_stall() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap().to_string();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let wedged = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
            let hello = ControlFrame::Hello {
                features: FEATURE_ACKS,
            };
            write_frame(&mut conn, &hello.encode()).unwrap();
            // Hold the socket unread until the test is done with it.
            let _ = held_rx.recv();
        });
        let cfg = ShipperConfig {
            handshake_ms: 2_000,
            stall_ms: 100,
            ..ShipperConfig::new(upstream)
        };
        let spill = SpillQueue::in_memory(SpillConfig {
            max_bytes: 0,
            ..SpillConfig::default()
        });
        let mut s = ExportShipper::new(cfg, spill, 1);
        // 48 MiB: more than the loopback send and receive buffers hold.
        let mut frame = export(0, 1);
        frame.resize(1 << 20, 0);
        for _ in 0..48 {
            s.core.enqueue(frame.clone()).unwrap();
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let pump = std::thread::spawn(move || {
            s.pump(1_000, || false, |_| false);
            done_tx.send(()).unwrap();
            s
        });
        let bound = Duration::from_millis(100 + 1_000);
        let finished = done_rx.recv_timeout(bound);
        held_tx.send(()).unwrap();
        assert!(finished.is_ok(), "the pump blocked past stall_ms + 1 s");
        let s = pump.join().unwrap();
        wedged.join().unwrap();
        assert!(s.core.stats().stall_recycles >= 1, "{:?}", s.core.stats());
        assert_eq!(s.core.stats().acked_frames, 0);
        assert_eq!(s.core.pending_len(), 48, "nothing released");
        assert!(!s.core.view().connected);
    }

    /// An upstream that keeps reading, slowly: no 64 KiB write waits
    /// the ack stall, but the backlog would take a minute to send. A
    /// flush still returns within its deadline plus the stall.
    #[test]
    fn a_trickling_upstream_cannot_hold_a_flush_past_its_deadline() {
        use std::io::Read;
        use std::sync::atomic::{AtomicBool, Ordering};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap().to_string();
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let reading = std::sync::Arc::clone(&done);
        let trickle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
            let hello = ControlFrame::Hello {
                features: FEATURE_ACKS,
            };
            write_frame(&mut conn, &hello.encode()).unwrap();
            let mut buf = vec![0u8; 16 << 10];
            while !reading.load(Ordering::SeqCst) && conn.read(&mut buf).is_ok_and(|n| n > 0) {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let cfg = ShipperConfig {
            handshake_ms: 2_000,
            stall_ms: 2_000,
            ..ShipperConfig::new(upstream)
        };
        let spill = SpillQueue::in_memory(SpillConfig {
            max_bytes: 0,
            ..SpillConfig::default()
        });
        let mut s = ExportShipper::new(cfg, spill, 1);
        // 48 MiB at 800 KiB/s.
        let mut frame = export(0, 1);
        frame.resize(4 << 20, 0);
        for _ in 0..12 {
            s.core.enqueue(frame.clone()).unwrap();
        }
        let started = Instant::now();
        let left = s.flush(&SteadyClock::new(), Duration::from_millis(300), |_| false);
        let took = started.elapsed();
        done.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        assert!(took < Duration::from_millis(300 + 2_000), "{took:?}");
        assert_eq!(left, 12, "nothing released");
        let stats = s.core.stats();
        assert_eq!(stats.stall_recycles, 0, "no write waited the stall");
        assert!(stats.sent_bytes < 48 << 20, "{stats:?}");
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
        let mut s = ShipperCore::new(&cfg, spill, 1);
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
