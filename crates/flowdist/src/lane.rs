//! The UDP ingest edge: N independent listen→decode→pipeline lanes
//! merged into one summary stream at window close.
//!
//! [`spawn_multi_lane_ingest`] is the one way an exporter datagram
//! (NetFlow v5/v9/IPFIX, auto-detected by each lane's
//! [`flownet::ExportDecoder`], template caches persisting) becomes a
//! [`Summary`] frame. One reader serializes every datagram through
//! one thread — one syscall, one decoder, one admission table, one
//! pipeline — and at site export rates that reader is the ceiling,
//! not the tree. So the edge is built to scale with cores:
//!
//! * **N sockets, one port** — [`crate::sockopt::bind_reuseport`]
//!   binds N `SO_REUSEPORT` sockets to the same address and the kernel
//!   fans exporters across them (hashed by flow, so one exporter's
//!   stream stays on one lane). Where reuseport is unavailable (or
//!   disabled), a single reader thread fans datagrams out to the lanes
//!   over lock-free SPSC rings ([`crate::ring`]), routed by exporter
//!   address hash so per-exporter admission state stays lane-local.
//! * **Batched receive** — every socket is drained through
//!   [`crate::mrecv::BatchReceiver`] (`recvmmsg`, up to 64 datagrams
//!   per syscall, portable fallback included).
//! * **Lane-local hot path** — each lane owns its own
//!   [`IngestPipeline`] (decoder + template caches), its own
//!   [`AdmissionControl`] table, and its own windowed daemon; no lock
//!   is shared between lanes while datagrams flow.
//! * **Merge at the edge of the window, not the packet** — lanes ship
//!   each closed window's tree to a merger thread, which combines the
//!   per-lane trees with the paper's structural
//!   [`FlowTree::merge_many`] once *every* lane's event-time watermark
//!   has passed the window, then encodes and ships one [`Summary`]
//!   frame. Because summaries are canonical encodings of node
//!   multisets, the merged bytes are identical to what a single-lane
//!   daemon would have emitted over the same records (property-pinned
//!   in the test suite).
//! * **Opt-in core pinning** — lanes re-check the shared
//!   [`AdmissionKnobs::pin_cores`] knob every loop iteration and
//!   apply/clear their CPU affinity live, so `pin-cores=0` on the
//!   reload path unpins a running site.
//!
//! Watermark discipline: the merger holds a window until the *minimum*
//! lane watermark closes it (the same `open_windows` horizon the
//! daemon uses), so a slow lane can never have its stragglers shut out
//! by a fast one. A lane only participates in that minimum while the
//! merger is hearing from it, though: with fewer exporters than lanes
//! (the kernel hashes one exporter's stream to one socket, and the
//! fanout reader hashes by exporter IP) some lanes are idle in the
//! steady state, and letting an idle lane pin the minimum at zero
//! would stall emission forever while closed windows buffered without
//! bound. So a lane that has sent no event for
//! [`LaneOptions::idle_lane_ms`] of wall clock is excluded until it
//! speaks again, and when *every* lane has gone idle the highest lane
//! watermark stands in — which is exactly the watermark a single
//! reader would have computed over the same records. The cost is the
//! standard idle-source tradeoff: a lane that wakes after the timeout
//! holding records for an already-emitted window has that window's
//! tree counted and dropped (`merger_stale_windows`, the tree-level
//! analogue of the daemon's late record drops) rather than merged —
//! re-emitting the window would *replace* it at the collector, which
//! is worse.
//!
//! With `lanes == 1` this collapses to a single reader (one lane,
//! pass-through merge), and `tests/lane_matrix.rs` pins its frames
//! byte-identical to every multi-lane mode's over the same records.
//!
//! Shutdown is cooperative: [`MultiIngestHandle::stop`] raises a flag,
//! every lane drains whatever already sits in its socket buffer (so no
//! datagram sent before `stop` is lost), flushes its pipeline, and the
//! merger ships every residual window before the counters come back.
//!
//! Accounting is kept once: each lane thread publishes its whole
//! [`LaneStats`] (datagrams plus its pipeline, decoder, admission and
//! daemon counters) after every receive batch, into a mutex only
//! scrapes contend for. Only what other threads bump (the fanout
//! reader's `backpressure_waits` and `dead_drops`) or what changes
//! outside a batch (`recv_batches`, `recv_buffer_bytes`, `pinned`)
//! stays in atomics. [`MultiGaugeView::snapshot`] sums the lanes into
//! one [`IngestReport`], and `stop` returns that same sum once every
//! thread has joined.

use crate::admission::{AdmissionControl, AdmissionKnobs, AdmissionStats};
use crate::daemon::{DaemonConfig, DaemonStats, TransferMode};
use crate::mrecv::BatchReceiver;
use crate::pipeline::{IngestPipeline, PipelineStats};
use crate::ring;
use crate::summary::Summary;
use crate::window::WindowId;
use crate::{DistError, Wake};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use flowmetrics::Histogram;
use flownet::DecoderStats;
use flowtree_core::FlowTree;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Hard cap on lanes (sockets/threads) per listen address.
pub const MAX_LANES: usize = 64;

/// Fanout ring capacity per lane (datagrams), fallback mode only.
const RING_CAPACITY: usize = 1_024;

/// Default [`LaneOptions::idle_lane_ms`]: long enough that a lane
/// merely catching its breath between receive batches is never
/// excluded, short enough that a few-exporter site starts emitting
/// within seconds of boot.
pub const DEFAULT_IDLE_LANE_MS: u64 = 2_000;

/// Tuning for [`spawn_multi_lane_ingest`].
#[derive(Debug, Clone)]
pub struct LaneOptions {
    /// Listen lanes (clamped to `1..=MAX_LANES`). 1 = one reader
    /// thread, pass-through merge.
    pub lanes: usize,
    /// Datagrams per receive syscall (clamped to
    /// `1..=`[`crate::mrecv::MAX_RECV_BATCH`]).
    pub recv_batch: usize,
    /// Try `SO_REUSEPORT` multi-socket mode for `lanes > 1` (Linux);
    /// `false` — or an unsupported platform — selects the portable
    /// single-socket fanout-ring mode.
    pub reuseport: bool,
    /// Force the portable single-datagram receive path even where
    /// `recvmmsg` exists (fallback-matrix tests, CI fallback leg).
    pub force_fallback_recv: bool,
    /// Requested `SO_RCVBUF` per socket (best-effort; achieved size
    /// lands in each lane's gauges). `None` keeps the OS default.
    pub receive_buffer_bytes: Option<usize>,
    /// Live-reloadable admission quotas, open-window budget, and the
    /// `pin-cores` toggle, shared with whoever serves `POST /reload`.
    pub knobs: Arc<AdmissionKnobs>,
    /// Observability hooks (wired to lane 0 only).
    pub telemetry: IngestTelemetry,
    /// Observes the datagram count of every receive batch.
    pub batch_hist: Option<Histogram>,
    /// Wall-clock milliseconds after which a lane the merger has not
    /// heard from stops holding back window emission (see the module
    /// docs on watermark discipline). 0 = never exclude: idle lanes
    /// then hold every window open until shutdown.
    pub idle_lane_ms: u64,
    /// Rung after every frame the merger ships into the frames
    /// channel, and once more when the merger exits (the channel then
    /// disconnects): a consumer that also waits on other events sleeps
    /// on this [`Wake`] instead of polling the channel.
    pub frames_wake: Option<Wake>,
}

impl Default for LaneOptions {
    fn default() -> LaneOptions {
        LaneOptions {
            lanes: 1,
            recv_batch: 32,
            reuseport: true,
            force_fallback_recv: false,
            receive_buffer_bytes: None,
            knobs: Arc::default(),
            telemetry: IngestTelemetry::default(),
            batch_hist: None,
            idle_lane_ms: DEFAULT_IDLE_LANE_MS,
            frames_wake: None,
        }
    }
}

/// One lane's counters, published whole by the lane thread once per
/// receive batch (and a last time after its pipeline flushes). Summed
/// over lanes it is the engine's total: the same sum serves the live
/// view ([`MultiGaugeView::snapshot`]) and the stop report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Raw datagrams received (admitted or not). The edge identity:
    /// `datagrams == pipeline.packets + pipeline.decode_errors +
    /// admission.packet_drops`.
    pub datagrams: u64,
    /// Decode/bucket/batch counters of the pipeline.
    pub pipeline: PipelineStats,
    /// The decoder's hardening counters (templates, skipped records).
    pub decoder: DecoderStats,
    /// Admission-control drop/eviction counters.
    pub admission: AdmissionStats,
    /// The lane daemon's counters. In a total, `summaries` and
    /// `summary_bytes` are the merger's emitted stream.
    pub daemon: DaemonStats,
    /// Exporter addresses currently tracked by admission control.
    pub exporters: u64,
}

impl LaneStats {
    /// Adds `o` field by field: the one summation over lanes.
    fn add(&mut self, o: &LaneStats) {
        self.datagrams += o.datagrams;
        self.exporters += o.exporters;
        let (p, q) = (&mut self.pipeline, &o.pipeline);
        p.packets += q.packets;
        p.packets_v5 += q.packets_v5;
        p.packets_v9 += q.packets_v9;
        p.packets_ipfix += q.packets_ipfix;
        p.decode_errors += q.decode_errors;
        p.records += q.records;
        p.wire_bytes += q.wire_bytes;
        p.batches += q.batches;
        p.window_sheds += q.window_sheds;
        let (d, e) = (&mut self.decoder, &o.decoder);
        d.templates += e.templates;
        d.templates_learned += e.templates_learned;
        d.templates_rejected += e.templates_rejected;
        d.templates_evicted_cap += e.templates_evicted_cap;
        d.templates_evicted_timeout += e.templates_evicted_timeout;
        d.templates_withdrawn += e.templates_withdrawn;
        d.withdrawals_unknown += e.withdrawals_unknown;
        d.records_skipped += e.records_skipped;
        let (a, b) = (&mut self.admission, &o.admission);
        a.packet_drops += b.packet_drops;
        a.record_drops += b.record_drops;
        a.exporters_evicted += b.exporters_evicted;
        let (m, n) = (&mut self.daemon, &o.daemon);
        m.records += n.records;
        m.raw_bytes += n.raw_bytes;
        m.summaries += n.summaries;
        m.summary_bytes += n.summary_bytes;
        m.late_drops += n.late_drops;
    }
}

/// The engine's counters: lane counters summed, plus the merger's
/// frame side. [`MultiGaugeView::snapshot`] reads one while the engine
/// runs; [`MultiIngestHandle::stop`] returns the final one.
#[derive(Debug)]
pub struct IngestReport {
    /// Every lane's [`LaneStats`] summed; `daemon.summaries` /
    /// `summary_bytes` are the merger's emitted stream.
    pub total: LaneStats,
    /// Achieved socket receive buffers, summed (0 = OS default).
    pub recv_buffer_bytes: u64,
    /// Summary frames shipped through the channel.
    pub frames_sent: u64,
    /// Frames dropped because the channel's receiver was gone, or
    /// because the channel was still full while stopping (the caller
    /// was no longer draining).
    pub frames_dropped: u64,
    /// 1 ms waits spent on a full ring or frames channel
    /// (backpressure).
    pub backpressure_waits: u64,
    /// A socket-level error that ended a lane or the reader early, if
    /// any (always `None` in a live snapshot).
    pub error: Option<std::io::Error>,
}

/// Optional observability hooks for the ingest engine — the pieces the
/// snapshot counters can't carry: an instantaneous open-window gauge
/// and shed events with a *why* attached.
#[derive(Debug, Clone, Default)]
pub struct IngestTelemetry {
    /// Set to the pipeline's open window-bucket count after every
    /// receive batch.
    pub open_windows: Option<flowmetrics::Gauge>,
    /// Receives a `window_shed` event whenever the open-window budget
    /// force-flushes buckets.
    pub events: Option<flowmetrics::EventRing>,
}

/// One lane's live state: its [`LaneStats`] behind a mutex only the
/// lane thread and scrapes take, plus the counters that are bumped by
/// other threads or outside a receive batch.
#[derive(Debug, Default)]
struct LaneGauges {
    stats: Mutex<LaneStats>,
    recv_batches: AtomicU64,
    backpressure_waits: AtomicU64,
    dead_drops: AtomicU64,
    recv_buffer_bytes: AtomicU64,
    pinned: AtomicBool,
}

/// One reading of a lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSnapshot {
    /// The lane's counters as of its last receive batch.
    pub stats: LaneStats,
    /// Successful receive batches (syscalls in reuseport mode; ring
    /// bursts in fanout mode). `datagrams / recv_batches` is the mean
    /// batch size.
    pub recv_batches: u64,
    /// 1 ms waits the fanout reader spent on this lane's full ring.
    pub backpressure_waits: u64,
    /// Datagrams the fanout reader discarded because this lane's ring
    /// consumer was gone (lane thread exited). These never reach any
    /// lane, so they are absent from the per-lane accounting identity
    /// by design.
    pub dead_drops: u64,
    /// Achieved socket receive buffer (0 = OS default / shared fanout
    /// socket).
    pub recv_buffer_bytes: u64,
    /// Whether the lane thread currently holds a CPU affinity pin.
    pub pinned: bool,
}

/// Counters the merger thread bumps while running.
#[derive(Debug, Default)]
struct MergerGauges {
    summaries: AtomicU64,
    summary_bytes: AtomicU64,
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
    waits: AtomicU64,
    /// Straggler window trees dropped because their window was
    /// already emitted past an idle-excluded lane.
    stale_windows: AtomicU64,
}

/// A cloneable read-side view over every lane's gauges plus the
/// merger's — what a stats endpoint holds while the engine runs.
#[derive(Debug, Clone)]
pub struct MultiGaugeView {
    lanes: Arc<Vec<Arc<LaneGauges>>>,
    merger: Arc<MergerGauges>,
}

impl MultiGaugeView {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// One lane's counters.
    pub fn lane(&self, i: usize) -> LaneSnapshot {
        let g = &self.lanes[i];
        LaneSnapshot {
            stats: *g.stats.lock().expect("lane stats"),
            recv_batches: g.recv_batches.load(Ordering::Relaxed),
            backpressure_waits: g.backpressure_waits.load(Ordering::Relaxed),
            dead_drops: g.dead_drops.load(Ordering::Relaxed),
            recv_buffer_bytes: g.recv_buffer_bytes.load(Ordering::Relaxed),
            pinned: g.pinned.load(Ordering::Relaxed),
        }
    }

    /// Straggler window trees the merger dropped because their window
    /// had already been emitted past an idle-excluded lane — the
    /// tree-level analogue of the daemon's late record drops. Zero in
    /// healthy operation.
    pub fn merger_stale_windows(&self) -> u64 {
        self.merger.stale_windows.load(Ordering::Relaxed)
    }

    /// The engine's counters now: lane counters summed, merger
    /// counters for the summary/frame side.
    pub fn snapshot(&self) -> IngestReport {
        let m = &self.merger;
        let mut total = LaneStats::default();
        let mut recv_buffer_bytes = 0;
        let mut backpressure_waits = m.waits.load(Ordering::Relaxed);
        for i in 0..self.lanes() {
            let lane = self.lane(i);
            total.add(&lane.stats);
            recv_buffer_bytes += lane.recv_buffer_bytes;
            backpressure_waits += lane.backpressure_waits;
        }
        total.daemon.summaries = m.summaries.load(Ordering::Relaxed);
        total.daemon.summary_bytes = m.summary_bytes.load(Ordering::Relaxed);
        IngestReport {
            total,
            recv_buffer_bytes,
            frames_sent: m.frames_sent.load(Ordering::Relaxed),
            frames_dropped: m.frames_dropped.load(Ordering::Relaxed),
            backpressure_waits,
            error: None,
        }
    }
}

/// Lane → merger traffic.
enum LaneEvent {
    /// Lane `lane`'s daemon closed window `start_ms` with this tree.
    /// Boxed: a `FlowTree` dwarfs the watermark variant and events sit
    /// in a channel queue.
    Closed {
        lane: usize,
        start_ms: u64,
        tree: Box<FlowTree>,
    },
    /// Lane `lane`'s event-time watermark advanced to `ts`.
    Watermark { lane: usize, ts: u64 },
}

/// A socket error that ended a lane or the fanout reader early, if any.
type SocketError = Option<std::io::Error>;

/// A running multi-lane ingest engine (see [`spawn_multi_lane_ingest`]).
#[derive(Debug)]
pub struct MultiIngestHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    lanes: Vec<std::thread::JoinHandle<SocketError>>,
    reader: Option<std::thread::JoinHandle<SocketError>>,
    merger: std::thread::JoinHandle<()>,
    view: MultiGaugeView,
    reuseport: bool,
}

impl MultiIngestHandle {
    /// The bound local address (useful with a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the engine runs in `SO_REUSEPORT` multi-socket mode
    /// (`false`: single socket fanning out over rings, or one lane).
    pub fn is_reuseport(&self) -> bool {
        self.reuseport
    }

    /// The live gauge view (lane counters + aggregate snapshot).
    pub fn view(&self) -> MultiGaugeView {
        self.view.clone()
    }

    /// Stops the engine: every lane drains its socket (or ring),
    /// flushes its pipeline and publishes its final counters, the
    /// merger emits every residual window, and the view's
    /// [`MultiGaugeView::snapshot`] of that final state comes back with
    /// the first socket error, if any.
    pub fn stop(self) -> IngestReport {
        self.stop.store(true, Ordering::Relaxed);
        let mut error = self
            .reader
            .and_then(|r| r.join().expect("fanout reader panicked"));
        for lane in self.lanes {
            let err = lane.join().expect("lane thread panicked");
            error = error.or(err);
        }
        // Lanes joined → their event senders dropped → the merger's
        // receive loop ends and it emits every residual window.
        self.merger.join().expect("merger thread panicked");
        let mut report = self.view.snapshot();
        report.error = error;
        report
    }
}

/// Which lane an exporter address routes to in fanout mode: a
/// deterministic hash of the source IP, so one exporter's stream —
/// and its admission state and template cache — stays on one lane.
fn lane_of(peer: &SocketAddr, lanes: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    peer.ip().hash(&mut h);
    ((h.finish() as u128 * lanes as u128) >> 64) as usize
}

/// Binds `addr` across `opts.lanes` lanes and spawns the engine:
/// lane threads (each fed by its own `SO_REUSEPORT` socket, or by a
/// fanout ring off one socket), plus a merger thread that combines
/// per-lane window trees and ships encoded [`Summary`] frames through
/// `frames`. `pipeline_for(lane)` supplies each lane's pipeline; all
/// lanes must share one [`DaemonConfig`] with
/// [`TransferMode::Full`] (delta encoding is a stream-global property
/// and belongs downstream of the merge).
pub fn spawn_multi_lane_ingest<F>(
    addr: &str,
    mut pipeline_for: F,
    frames: Sender<Vec<u8>>,
    opts: LaneOptions,
) -> Result<MultiIngestHandle, DistError>
where
    F: FnMut(usize) -> IngestPipeline,
{
    let lanes = opts.lanes.clamp(1, MAX_LANES);
    let mut pipelines: Vec<IngestPipeline> = (0..lanes).map(&mut pipeline_for).collect();
    let cfg = *pipelines[0].daemon().config();
    assert_eq!(
        cfg.transfer,
        TransferMode::Full,
        "multi-lane ingest merges full window trees; delta-encode downstream"
    );

    // Bind: N reuseport sockets when asked and supported, else one
    // socket (fanout rings carry it to the lanes).
    let mut sockets: Vec<UdpSocket> = Vec::new();
    let mut reuseport = false;
    if lanes > 1 && opts.reuseport {
        let target: Option<SocketAddr> = {
            use std::net::ToSocketAddrs;
            addr.to_socket_addrs().ok().and_then(|mut it| it.next())
        };
        if let Some(target) = target {
            if let Some(first) = crate::sockopt::bind_reuseport(target) {
                let bound = first.local_addr().map_err(DistError::Io)?;
                sockets.push(first);
                for _ in 1..lanes {
                    match crate::sockopt::bind_reuseport(bound) {
                        Some(s) => sockets.push(s),
                        None => break,
                    }
                }
                if sockets.len() == lanes {
                    reuseport = true;
                } else {
                    sockets.clear();
                }
            }
        }
    }
    if sockets.is_empty() {
        sockets.push(UdpSocket::bind(addr).map_err(DistError::Io)?);
    }
    let local = sockets[0].local_addr().map_err(DistError::Io)?;

    let lane_gauges: Vec<Arc<LaneGauges>> = (0..lanes).map(|_| Arc::default()).collect();
    for (i, s) in sockets.iter().enumerate() {
        s.set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(DistError::Io)?;
        if let Some(bytes) = opts.receive_buffer_bytes {
            let achieved = crate::sockopt::set_recv_buffer(s, bytes).unwrap_or(0);
            // In fanout mode the single socket's buffer is lane 0's
            // gauge; the other lanes report 0 (no socket of their own).
            lane_gauges[i]
                .recv_buffer_bytes
                .store(achieved as u64, Ordering::Relaxed);
        }
    }

    let merger_gauges = Arc::new(MergerGauges::default());
    let stop = Arc::new(AtomicBool::new(false));
    let (events_tx, events_rx) = unbounded::<LaneEvent>();

    let merger = {
        let frames = frames.clone();
        let stop = Arc::clone(&stop);
        let gauges = Arc::clone(&merger_gauges);
        let idle_lane_ms = opts.idle_lane_ms;
        let wake = opts.frames_wake.clone();
        std::thread::Builder::new()
            .name("lane-merger".into())
            .spawn(move || {
                merger_loop(
                    events_rx,
                    cfg,
                    lanes,
                    idle_lane_ms,
                    frames,
                    wake.as_ref(),
                    stop,
                    gauges,
                );
                // `frames` is gone with the merger: tell the consumer.
                if let Some(w) = wake {
                    w.notify();
                }
            })
            .map_err(DistError::Io)?
    };

    let mut lane_handles = Vec::with_capacity(lanes);
    let mut reader = None;
    let recv_batch = opts.recv_batch;
    let make_receiver = move || {
        if opts.force_fallback_recv {
            BatchReceiver::force_fallback(recv_batch)
        } else {
            BatchReceiver::new(recv_batch)
        }
    };

    let mut new_lane = |i: usize| Lane {
        idx: i,
        pipeline: pipelines.remove(0),
        admission: AdmissionControl::new(),
        knobs: Arc::clone(&opts.knobs),
        gauges: Arc::clone(&lane_gauges[i]),
        events: events_tx.clone(),
        telemetry: if i == 0 {
            opts.telemetry.clone()
        } else {
            IngestTelemetry::default()
        },
        batch_hist: opts.batch_hist.clone(),
        datagrams: 0,
        wm_sent: 0,
        pinned: false,
        seen_sheds: 0,
    };
    if reuseport || lanes == 1 {
        for (i, socket) in sockets.into_iter().enumerate() {
            let lane = new_lane(i);
            let stop = Arc::clone(&stop);
            let mut recv = make_receiver();
            lane_handles.push(
                std::thread::Builder::new()
                    .name(format!("lane-{i}"))
                    .spawn(move || lane.run_socket(socket, &mut recv, &stop))
                    .map_err(DistError::Io)?,
            );
        }
    } else {
        // Fanout mode: one reader, N rings, N lane threads.
        let mut producers = Vec::with_capacity(lanes);
        for i in 0..lanes {
            let (tx, rx) = ring::spsc::<(Vec<u8>, SocketAddr)>(RING_CAPACITY);
            producers.push(tx);
            let lane = new_lane(i);
            lane_handles.push(
                std::thread::Builder::new()
                    .name(format!("lane-{i}"))
                    .spawn(move || lane.run_ring(rx, recv_batch.max(1)))
                    .map_err(DistError::Io)?,
            );
        }
        let socket = sockets.pop().expect("one fanout socket");
        let stop = Arc::clone(&stop);
        let gauges = lane_gauges.clone();
        let mut recv = make_receiver();
        reader = Some(
            std::thread::Builder::new()
                .name("lane-fanout".into())
                .spawn(move || fanout_loop(socket, &mut recv, producers, gauges, &stop))
                .map_err(DistError::Io)?,
        );
    }
    drop(events_tx);

    // `pipelines` must have been fully consumed by lane construction.
    debug_assert!(pipelines.is_empty());

    Ok(MultiIngestHandle {
        addr: local,
        stop,
        lanes: lane_handles,
        reader,
        merger,
        view: MultiGaugeView {
            lanes: Arc::new(lane_gauges),
            merger: merger_gauges,
        },
        reuseport,
    })
}

/// One lane's state, shared by the socket and ring run loops.
struct Lane {
    idx: usize,
    pipeline: IngestPipeline,
    admission: AdmissionControl,
    knobs: Arc<AdmissionKnobs>,
    gauges: Arc<LaneGauges>,
    events: Sender<LaneEvent>,
    telemetry: IngestTelemetry,
    batch_hist: Option<Histogram>,
    datagrams: u64,
    /// Highest daemon watermark already announced to the merger.
    wm_sent: u64,
    pinned: bool,
    seen_sheds: u64,
}

impl Lane {
    /// Reuseport mode: this lane owns `socket` outright.
    fn run_socket(
        mut self,
        socket: UdpSocket,
        recv: &mut BatchReceiver,
        stop: &AtomicBool,
    ) -> SocketError {
        let mut error = None;
        'listen: loop {
            let stopping = stop.load(Ordering::Relaxed);
            self.refresh_pinning();
            match recv.recv(&socket) {
                Ok(n) => {
                    let now_ms = crate::epoch_ms();
                    for i in 0..n {
                        let (payload, peer) = recv.datagram(i);
                        self.process_datagram(payload, peer, now_ms);
                    }
                    self.after_batch(n as u64, now_ms);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Socket drained; a raised stop flag can now end
                    // the loop without losing queued datagrams.
                    if stopping {
                        break 'listen;
                    }
                }
                Err(e) => {
                    error = Some(e);
                    break 'listen;
                }
            }
            if stopping {
                // Stop requested while data still flowed: switch to a
                // non-blocking final drain so shutdown stays prompt.
                if socket.set_nonblocking(true).is_err() {
                    break 'listen;
                }
            }
        }
        self.finish(error)
    }

    /// Fanout mode: this lane drains its SPSC ring; the reader owns
    /// the socket. Ends when the reader is gone and the ring is empty.
    fn run_ring(
        mut self,
        mut rx: ring::Consumer<(Vec<u8>, SocketAddr)>,
        burst_max: usize,
    ) -> SocketError {
        let mut burst = 0u64;
        loop {
            match rx.try_pop() {
                Some((payload, peer)) => {
                    let now_ms = crate::epoch_ms();
                    self.process_datagram(&payload, peer, now_ms);
                    burst += 1;
                    if burst >= burst_max as u64 {
                        self.after_batch(burst, now_ms);
                        burst = 0;
                    }
                }
                None => {
                    if burst > 0 {
                        self.after_batch(burst, crate::epoch_ms());
                        burst = 0;
                    }
                    if rx.sender_gone() && rx.is_empty() {
                        break;
                    }
                    self.refresh_pinning();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        self.finish(None)
    }

    /// The per-datagram hot path. Admission order pins the edge
    /// identity `datagrams == packets + decode_errors +
    /// quota_packet_drops` per lane: a datagram is quota-dropped
    /// *before* decode (no work for the hostile), or it decodes
    /// (packets/decode_errors); records of an admitted packet are
    /// then charged all-or-nothing.
    fn process_datagram(&mut self, payload: &[u8], peer: SocketAddr, now_ms: u64) {
        self.datagrams += 1;
        let cfg = self.knobs.load();
        self.pipeline
            .set_max_open_windows(self.knobs.max_open_windows() as usize);
        if self.admission.admit_packet(peer.ip(), &cfg, now_ms) {
            if let Some(records) = self.pipeline.decode_packet_at(payload, now_ms) {
                if self
                    .admission
                    .admit_records(peer.ip(), records.len(), &cfg, now_ms)
                {
                    for s in self.pipeline.push_records(&records) {
                        let _ = self.events.send(LaneEvent::Closed {
                            lane: self.idx,
                            start_ms: s.window.start_ms,
                            tree: Box::new(s.tree),
                        });
                    }
                }
            }
        }
    }

    /// Book-keeping after each receive batch: gauges, the batch-size
    /// histogram, the merger watermark, lane-0 telemetry, and the live
    /// pinning knob — re-checked here so a reload propagates on every
    /// burst boundary even when the socket (or ring) never drains.
    fn after_batch(&mut self, batch: u64, now_ms: u64) {
        self.refresh_pinning();
        self.gauges.recv_batches.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.batch_hist {
            h.observe_secs(batch as f64);
        }
        self.publish();
        let wm = self.pipeline.daemon().watermark();
        if wm > self.wm_sent {
            self.wm_sent = wm;
            let _ = self.events.send(LaneEvent::Watermark {
                lane: self.idx,
                ts: wm,
            });
        }
        if let Some(g) = &self.telemetry.open_windows {
            g.set(self.pipeline.open_windows() as i64);
        }
        if let Some(ring) = &self.telemetry.events {
            let sheds = self.pipeline.stats().window_sheds;
            if sheds > self.seen_sheds {
                ring.push(
                    now_ms,
                    "window_shed",
                    format!("buckets={} total={sheds}", sheds - self.seen_sheds),
                );
                self.seen_sheds = sheds;
            }
        }
    }

    /// Applies or clears CPU affinity to track the live `pin-cores`
    /// knob (lane `i` → core `i` modulo online CPUs).
    fn refresh_pinning(&mut self) {
        let want = self.knobs.pin_cores();
        if want != self.pinned {
            let ok = if want {
                crate::sockopt::pin_current_thread(self.idx)
            } else {
                crate::sockopt::unpin_current_thread()
            };
            self.pinned = want && ok;
            self.gauges.pinned.store(self.pinned, Ordering::Relaxed);
        }
    }

    /// The lane's counters now.
    fn stats(&self) -> LaneStats {
        LaneStats {
            datagrams: self.datagrams,
            pipeline: *self.pipeline.stats(),
            decoder: self.pipeline.decoder_stats(),
            admission: self.admission.stats(),
            daemon: *self.pipeline.daemon().stats(),
            exporters: self.admission.exporters() as u64,
        }
    }

    /// Publishes the lane's counters whole; only scrapes contend for
    /// the lock.
    fn publish(&self) {
        *self.gauges.stats.lock().expect("lane stats") = self.stats();
    }

    /// Flushes the pipeline, ships residual window trees to the
    /// merger, and publishes the lane's final counters.
    fn finish(self, error: SocketError) -> SocketError {
        let mut last = self.stats();
        let (rest, daemon) = self.pipeline.finish();
        last.daemon = *daemon.stats();
        for s in rest {
            let _ = self.events.send(LaneEvent::Closed {
                lane: self.idx,
                start_ms: s.window.start_ms,
                tree: Box::new(s.tree),
            });
        }
        *self.gauges.stats.lock().expect("lane stats") = last;
        error
    }
}

/// Fanout mode's reader: drains the single socket and routes each
/// datagram to its exporter's lane over that lane's SPSC ring. A full
/// ring is backpressure (1 ms waits, counted against the lane), never
/// a silent drop — and when a lane is gone entirely (its thread
/// exited), the discarded datagram is counted in that lane's
/// `dead_drops` gauge so even that loss stays observable.
fn fanout_loop(
    socket: UdpSocket,
    recv: &mut BatchReceiver,
    mut producers: Vec<ring::Producer<(Vec<u8>, SocketAddr)>>,
    gauges: Vec<Arc<LaneGauges>>,
    stop: &AtomicBool,
) -> SocketError {
    let lanes = producers.len();
    let mut error = None;
    'listen: loop {
        let stopping = stop.load(Ordering::Relaxed);
        match recv.recv(&socket) {
            Ok(n) => {
                for i in 0..n {
                    let (payload, peer) = recv.datagram(i);
                    let lane = lane_of(&peer, lanes);
                    let mut item = (payload.to_vec(), peer);
                    loop {
                        match producers[lane].try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                if producers[lane].receiver_gone() {
                                    gauges[lane].dead_drops.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                item = back;
                                gauges[lane]
                                    .backpressure_waits
                                    .fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stopping {
                    break 'listen;
                }
            }
            Err(e) => {
                error = Some(e);
                break 'listen;
            }
        }
        if stopping && socket.set_nonblocking(true).is_err() {
            break 'listen;
        }
    }
    // Dropping the producers tells each lane "no more datagrams".
    error
}

/// The merger: collects per-lane window trees, emits each window —
/// merged via the paper's structural `merge_many` — once every lane
/// the merger is still hearing from has closed it (see the module
/// docs on idle-lane exclusion), and ships the encoded frames.
///
/// It sleeps until a lane event arrives. Only while a buffered window
/// waits on lanes that are still counted does it also wake when the
/// first of them would age out, since that can move the horizon with
/// no event at all; with one lane nothing ever ages out usefully.
#[allow(clippy::too_many_arguments)]
fn merger_loop(
    events: Receiver<LaneEvent>,
    cfg: DaemonConfig,
    lanes: usize,
    idle_lane_ms: u64,
    frames: Sender<Vec<u8>>,
    wake: Option<&Wake>,
    stop: Arc<AtomicBool>,
    gauges: Arc<MergerGauges>,
) {
    let mut wins: BTreeMap<u64, Vec<FlowTree>> = BTreeMap::new();
    let mut wm = vec![0u64; lanes];
    // Wall clock of the last event heard from each lane; a lane quiet
    // for longer than `idle_lane_ms` stops holding back emission.
    let idle = Duration::from_millis(idle_lane_ms);
    let mut last_ev = vec![std::time::Instant::now(); lanes];
    // Exclusive emission horizon: every window below it has been
    // shipped, so a straggler tree arriving under it can only be
    // counted and dropped (a second epoch-1 frame of the window would
    // be acked upstream as a replay and never applied).
    let mut emitted_to = 0u64;
    let mut seq = 0u64;

    let horizon = |min_wm: u64| -> u64 {
        let span = cfg.window_ms;
        let current = min_wm / span * span;
        current.saturating_sub(span * (cfg.open_windows as u64 - 1))
    };

    // Ship-or-drop: a full channel is backpressure (1 ms waits, so a
    // slow consumer throttles ingest) until stop, then undeliverable
    // frames are dropped and counted — `stop()` joins this thread, so
    // blocking on `send` would deadlock a caller that drains the
    // channel only after stopping.
    let emit = |start_ms: u64, trees: Vec<FlowTree>, seq: &mut u64| {
        let mut trees = trees;
        let tree = if trees.len() == 1 {
            trees.pop().expect("one tree")
        } else {
            let mut out = FlowTree::new(cfg.schema, cfg.tree);
            let refs: Vec<&FlowTree> = trees.iter().collect();
            out.merge_many(&refs).expect("lanes share one schema");
            out
        };
        *seq += 1;
        let window = WindowId {
            start_ms,
            span_ms: cfg.window_ms,
        };
        let mut frame = Summary::site_full(cfg.site, window, *seq, tree).encode();
        let bump = |c: &AtomicU64, n: u64| c.fetch_add(n, Ordering::Relaxed);
        bump(&gauges.summaries, 1);
        bump(&gauges.summary_bytes, frame.len() as u64);
        loop {
            match frames.try_send(frame) {
                Ok(()) => {
                    bump(&gauges.frames_sent, 1);
                    if let Some(w) = wake {
                        w.notify();
                    }
                    break;
                }
                Err(TrySendError::Disconnected(_)) => {
                    bump(&gauges.frames_dropped, 1);
                    break;
                }
                Err(TrySendError::Full(f)) => {
                    if stop.load(Ordering::Relaxed) {
                        bump(&gauges.frames_dropped, 1);
                        break;
                    }
                    frame = f;
                    bump(&gauges.waits, 1);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    };

    // When the first lane still counted in the watermark minimum ages
    // out, if anything is buffered for it to hold back.
    let age_out = |wins: &BTreeMap<u64, Vec<FlowTree>>, last_ev: &[std::time::Instant]| {
        if lanes == 1 || idle_lane_ms == 0 || wins.is_empty() {
            return None;
        }
        let now = std::time::Instant::now();
        last_ev
            .iter()
            .map(|&t| t + idle)
            .filter(|&until| until > now)
            .min()
    };

    loop {
        // A timeout (no event) still falls through to the emission
        // pass below: that is what lets windows close once idle lanes
        // age out even though nothing new arrives.
        let ev = match age_out(&wins, &last_ev) {
            None => events.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(until) => {
                events.recv_timeout(until.saturating_duration_since(std::time::Instant::now()))
            }
        };
        let ev = match ev {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        match ev {
            Some(LaneEvent::Closed {
                lane,
                start_ms,
                tree,
            }) => {
                last_ev[lane] = std::time::Instant::now();
                if start_ms < emitted_to {
                    gauges.stale_windows.fetch_add(1, Ordering::Relaxed);
                    drop(tree);
                } else {
                    wins.entry(start_ms).or_default().push(*tree);
                }
            }
            Some(LaneEvent::Watermark { lane, ts }) => {
                last_ev[lane] = std::time::Instant::now();
                if ts > wm[lane] {
                    wm[lane] = ts;
                }
            }
            None => {}
        }
        // Effective watermark: minimum over lanes heard from within
        // the idle timeout; with every lane idle, the maximum stands
        // in — exactly the watermark one reader would have computed
        // over the same records, since nothing is in flight anywhere.
        let now = std::time::Instant::now();
        let eff_wm = wm
            .iter()
            .zip(&last_ev)
            .filter(|&(_, t)| idle_lane_ms == 0 || now.duration_since(*t) < idle)
            .map(|(&w, _)| w)
            .min()
            .unwrap_or_else(|| wm.iter().copied().max().unwrap_or(0));
        let h = horizon(eff_wm);
        if h > emitted_to {
            emitted_to = h;
        }
        // Emit below `emitted_to`, not `h`: an idle lane rejoining
        // with a lower watermark can pull `h` back down, but shipped
        // windows stay shipped and buffered ones keep their horizon.
        while let Some((&w, _)) = wins.iter().next() {
            if w >= emitted_to {
                break;
            }
            let trees = wins.remove(&w).expect("window present");
            emit(w, trees, &mut seq);
        }
    }
    // Every lane finished (senders dropped): emit residual windows,
    // oldest first — the merger-side analogue of `SiteDaemon::flush`.
    let residual: Vec<u64> = wins.keys().copied().collect();
    for w in residual {
        let trees = wins.remove(&w).expect("window present");
        emit(w, trees, &mut seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, SiteDaemon};
    use crate::net::{export_ipfix, export_netflow};
    use crate::Collector;
    use crossbeam::channel;
    use flowkey::Schema;
    use flownet::FlowRecord;
    use flowtree_core::Config;

    fn mk_pipeline(open_windows: usize) -> impl FnMut(usize) -> IngestPipeline {
        move |_lane| {
            let mut cfg = DaemonConfig::new(7);
            cfg.window_ms = 1_000;
            cfg.open_windows = open_windows;
            cfg.schema = Schema::five_feature();
            cfg.tree = Config::with_budget(4_096);
            cfg.transfer = TransferMode::Full;
            IngestPipeline::new(SiteDaemon::new(cfg), 64)
        }
    }

    fn record(ts_ms: u64, host: u8, packets: u64) -> FlowRecord {
        let mut r = FlowRecord::v4(
            [10, 7, 0, host],
            [192, 0, 2, 1],
            1234,
            443,
            6,
            packets,
            packets * 100,
        );
        r.first_ms = ts_ms;
        r.last_ms = ts_ms;
        r
    }

    fn run_engine(opts: LaneOptions, senders: usize) -> (IngestReport, Vec<Vec<u8>>, usize) {
        let (tx, rx) = channel::bounded::<Vec<u8>>(256);
        // Each sender replays windows 0–2 back to back, so a lane
        // shared by two senders sees its second sender's window 0 two
        // windows behind the first sender's window 2: on time only
        // with three windows open.
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(3), tx, opts).unwrap();
        let to = handle.local_addr();
        let reuse = handle.is_reuseport() as usize;
        // `senders` exporters, each with its own socket (distinct
        // source ports; under reuseport the kernel spreads them).
        for s in 0..senders {
            let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
            let records: Vec<FlowRecord> = (0..30)
                .map(|i| {
                    record(
                        (i / 10) * 1_000 + 100 + i,
                        (s * 8 + (i % 8) as usize) as u8,
                        2,
                    )
                })
                .collect();
            export_netflow(&sock, to, &records, 10_000).unwrap();
        }
        // Let delivery settle before stopping (loopback is fast, but
        // the reuseport fanout can land on any lane).
        std::thread::sleep(Duration::from_millis(120));
        let report = handle.stop();
        let frames: Vec<Vec<u8>> = rx.try_iter().collect();
        (report, frames, reuse)
    }

    fn check(report: &IngestReport, frames: &[Vec<u8>], senders: u64) {
        assert!(report.error.is_none());
        assert_eq!(report.total.pipeline.records, senders * 30);
        assert_eq!(report.total.daemon.records, senders * 30);
        assert_eq!(report.total.daemon.late_drops, 0);
        // The edge identity, summed over lanes.
        assert_eq!(
            report.total.datagrams,
            report.total.pipeline.packets
                + report.total.pipeline.decode_errors
                + report.total.admission.packet_drops
        );
        assert_eq!(report.frames_dropped, 0);
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(8_192));
        for f in frames {
            collector.apply_bytes(f).unwrap();
        }
        assert_eq!(
            collector.merged(None, 0, u64::MAX).total().packets as u64,
            senders * 60,
            "all mass survives the lane merge"
        );
    }

    #[test]
    fn single_lane_behaves_like_the_classic_loop() {
        let (report, frames, _) = run_engine(LaneOptions::default(), 1);
        check(&report, &frames, 1);
        assert_eq!(report.total.daemon.summaries, 3);
    }

    #[test]
    fn multi_lane_reuseport_conserves_every_record() {
        let opts = LaneOptions {
            lanes: 4,
            ..LaneOptions::default()
        };
        let (report, frames, _) = run_engine(opts, 4);
        check(&report, &frames, 4);
    }

    #[test]
    fn fanout_ring_mode_conserves_every_record() {
        let opts = LaneOptions {
            lanes: 3,
            reuseport: false,
            ..LaneOptions::default()
        };
        let (report, frames, reuse) = run_engine(opts, 4);
        assert_eq!(reuse, 0, "reuseport disabled selects fanout mode");
        check(&report, &frames, 4);
    }

    #[test]
    fn fanout_with_forced_fallback_recv_conserves_every_record() {
        let opts = LaneOptions {
            lanes: 2,
            reuseport: false,
            force_fallback_recv: true,
            ..LaneOptions::default()
        };
        let (report, frames, _) = run_engine(opts, 3);
        check(&report, &frames, 3);
    }

    #[test]
    fn idle_lanes_do_not_stall_emission() {
        let (tx, rx) = channel::bounded::<Vec<u8>>(64);
        let opts = LaneOptions {
            lanes: 4,
            // Fanout mode hashes by exporter IP: one exporter lands on
            // exactly one lane and the other three stay idle forever —
            // the regression scenario where the minimum watermark used
            // to pin emission at zero until shutdown.
            reuseport: false,
            idle_lane_ms: 100,
            ..LaneOptions::default()
        };
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, opts).unwrap();
        let to = handle.local_addr();
        let view = handle.view();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut live_frame = false;
        for round in 0..40u64 {
            let records: Vec<FlowRecord> = (0..5)
                .map(|i| record(round * 1_000 + 100 + i, (i % 8) as u8, 1))
                .collect();
            export_netflow(&sock, to, &records, 10_000).unwrap();
            std::thread::sleep(Duration::from_millis(50));
            if rx.try_recv().is_ok() {
                live_frame = true;
                break;
            }
        }
        assert!(
            live_frame,
            "windows must close while three of four lanes sit idle"
        );
        assert_eq!(view.merger_stale_windows(), 0);
        let report = handle.stop();
        assert!(report.error.is_none());
        assert_eq!(report.total.daemon.late_drops, 0);
        assert!(report.total.daemon.summaries >= 1);
    }

    #[test]
    fn gauges_aggregate_across_lanes() {
        let (tx, rx) = channel::bounded::<Vec<u8>>(64);
        let opts = LaneOptions {
            lanes: 2,
            reuseport: false,
            ..LaneOptions::default()
        };
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, opts).unwrap();
        let to = handle.local_addr();
        let view = handle.view();
        assert_eq!(view.lanes(), 2);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let records: Vec<FlowRecord> = (0..10).map(|i| record(100 + i, i as u8, 1)).collect();
        export_netflow(&sock, to, &records, 10_000).unwrap();
        // Wait until the engine has seen the datagram.
        for _ in 0..100 {
            if view.snapshot().total.datagrams >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = view.snapshot();
        assert!(snap.total.datagrams >= 1);
        assert_eq!(
            snap.total.datagrams,
            view.lane(0).stats.datagrams + view.lane(1).stats.datagrams,
            "aggregate is the lane sum"
        );
        let report = handle.stop();
        assert_eq!(report.total.pipeline.records, 10);
        drop(rx);
    }

    #[test]
    fn stop_with_no_traffic_is_clean() {
        let (tx, rx) = channel::bounded::<Vec<u8>>(8);
        let opts = LaneOptions {
            lanes: 4,
            ..LaneOptions::default()
        };
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, opts).unwrap();
        let report = handle.stop();
        assert!(report.error.is_none());
        assert_eq!(report.total.datagrams, 0);
        assert_eq!(report.total.daemon.summaries, 0);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn full_undrained_channel_does_not_deadlock_stop() {
        let (tx, rx) = channel::bounded::<Vec<u8>>(1);
        let opts = LaneOptions {
            lanes: 2,
            reuseport: false,
            ..LaneOptions::default()
        };
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, opts).unwrap();
        let to = handle.local_addr();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let records: Vec<FlowRecord> = (0..5).map(|w| record(w * 1_000 + 100, 1, 1)).collect();
        export_netflow(&sock, to, &records, 10_000).unwrap();
        std::thread::sleep(Duration::from_millis(80));
        let report = handle.stop();
        assert_eq!(
            report.frames_sent + report.frames_dropped,
            report.total.daemon.summaries,
            "every summary is accounted for"
        );
        drop(rx);
    }

    /// One lane, three exporter dialects and garbage: v5, IPFIX (with
    /// an IPv6 record and a template-only empty export) and v9 all
    /// decode on the same socket, garbage lands in `decode_errors`,
    /// and every record's mass — the v6 one included — reaches a
    /// collector.
    #[test]
    fn every_dialect_and_garbage_on_one_lane() {
        const T: u64 = 1_700_000_000_000;
        let v4 = |net: u8, host: u8, packets: u64| {
            let mut r = FlowRecord::v4(
                [10, net, 0, host],
                [192, 0, 2, 1],
                1234,
                443,
                6,
                packets,
                packets * 100,
            );
            r.first_ms = T + 100 + host as u64;
            r.last_ms = r.first_ms;
            r
        };
        let v5_recs: Vec<FlowRecord> = (0..40).map(|i| v4(5, i, 2)).collect();
        let mut ipfix_recs: Vec<FlowRecord> = (0..20).map(|i| v4(10, i, 3)).collect();
        let v6 = FlowRecord {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            sport: 53,
            dport: 53,
            proto: 17,
            packets: 9,
            bytes: 900,
            first_ms: T + 500,
            last_ms: T + 500,
        };
        ipfix_recs.push(v6);
        let v9_recs: Vec<FlowRecord> = (0..12).map(|i| v4(9, i, 5)).collect();

        let (tx, rx) = channel::bounded::<Vec<u8>>(64);
        let handle =
            spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(3), tx, LaneOptions::default())
                .unwrap();
        let to = handle.local_addr();
        let [v5_sock, ipfix_sock, v9_sock] =
            [(); 3].map(|_| UdpSocket::bind("127.0.0.1:0").unwrap());
        let v5_dgrams = export_netflow(&v5_sock, to, &v5_recs, T + 10_000).unwrap() as u64;
        let secs = (T / 1_000) as u32;
        let mut ipfix_dgrams = export_ipfix(&ipfix_sock, to, &ipfix_recs, secs, 7).unwrap();
        assert_eq!(export_ipfix(&ipfix_sock, to, &[], secs, 8).unwrap(), 1);
        ipfix_dgrams += 1;
        let v9 = flownet::netflow9::encode(&v9_recs, T + 10_000, 1, 4);
        v9_sock.send_to(&v9, to).unwrap();
        let garbage: [&[u8]; 3] = [
            b"not an export packet",
            &[0xde, 0xad, 0xbe, 0xef],
            &v9[..30],
        ];
        for g in garbage {
            v9_sock.send_to(g, to).unwrap();
        }
        let sent = v5_dgrams + ipfix_dgrams as u64 + 1 + garbage.len() as u64;
        // `stop` drains the socket buffer, so every datagram sent above
        // is received.
        let report = handle.stop();

        assert!(report.error.is_none());
        assert_eq!(report.total.datagrams, sent);
        assert_eq!(
            report.total.datagrams,
            report.total.pipeline.packets
                + report.total.pipeline.decode_errors
                + report.total.admission.packet_drops
        );
        assert_eq!(report.total.pipeline.decode_errors, garbage.len() as u64);
        assert_eq!(report.total.pipeline.packets_v5, v5_dgrams);
        assert_eq!(report.total.pipeline.packets_ipfix, ipfix_dgrams as u64);
        assert_eq!(report.total.pipeline.packets_v9, 1);
        let records = (v5_recs.len() + ipfix_recs.len() + v9_recs.len()) as u64;
        assert_eq!(report.total.pipeline.records, records);
        assert_eq!(report.total.daemon.records, records);
        assert_eq!(report.total.daemon.late_drops, 0);
        assert_eq!(
            (report.total.daemon.summaries, report.frames_dropped),
            (1, 0)
        );

        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(8_192));
        for f in rx.try_iter() {
            collector.apply_bytes(&f).unwrap();
        }
        let merged = collector.merged(None, 0, u64::MAX);
        assert_eq!(merged.total().packets, 40 * 2 + 20 * 3 + 9 + 12 * 5);
        assert_eq!(
            merged.subtree_popularity(&v6.flow_key()).map(|p| p.packets),
            Some(9),
            "the IPv6 record's mass reaches the collector"
        );
    }

    #[test]
    fn dropped_receiver_counts_not_wedges() {
        let (tx, rx) = channel::bounded::<Vec<u8>>(8);
        drop(rx);
        let handle =
            spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, LaneOptions::default())
                .unwrap();
        let to = handle.local_addr();
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        export_netflow(&sock, to, &[record(100, 1, 1)], 1_000).unwrap();
        let report = handle.stop();
        assert_eq!(report.total.pipeline.records, 1);
        assert_eq!(report.frames_sent, 0);
        assert!(report.frames_dropped >= 1);
    }

    #[test]
    fn pin_cores_knob_pins_and_unpins_live() {
        let knobs = Arc::new(AdmissionKnobs::default());
        let (tx, _rx) = channel::bounded::<Vec<u8>>(64);
        let opts = LaneOptions {
            lanes: 1,
            knobs: Arc::clone(&knobs),
            ..LaneOptions::default()
        };
        let handle = spawn_multi_lane_ingest("127.0.0.1:0", mk_pipeline(2), tx, opts).unwrap();
        let view = handle.view();
        knobs.set_pin_cores(true);
        let want = cfg!(target_os = "linux");
        for _ in 0..100 {
            if view.lane(0).pinned == want {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(view.lane(0).pinned, want);
        knobs.set_pin_cores(false);
        for _ in 0..100 {
            if !view.lane(0).pinned {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!view.lane(0).pinned, "reload-off unpins a live lane");
        handle.stop();
    }
}
