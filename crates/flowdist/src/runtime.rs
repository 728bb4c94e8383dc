//! The site-node runtime: one deployable site daemon as a value.
//!
//! [`crate::lane`] gives the `UDP → pipeline → summary frames`
//! engine; what a *fleet* needs on top is the other half a production
//! site node runs — the acknowledged [`ExportShipper`] that ships
//! those frames upstream (the same shipper, and the same delivery
//! contract, as every relay hop), a stats endpoint, and a
//! drain-on-shutdown path — wired behind one `start`/`drain` handle so
//! a launcher (`flowrelay`'s `flowctl`) can boot a site from a spec
//! line instead of hand-assembling threads. The relay-side twin is
//! `flowrelay::runtime::NodeRuntime`.
//!
//! One shipper thread owns the shipper: it takes the lane merger's
//! frames off its channel into an in-memory [`SpillQueue`] and pumps.
//! It sleeps on one [`Wake`] that the lane merger rings for every frame
//! and the shipper's reader thread rings for every ack and when the
//! connection closes, or until [`crate::ShipperCore::next_deadline`]
//! (a reconnect backoff or an ack stall) comes due; a quiet site's
//! shipper does not wake at all. After each pump it publishes the
//! shipper's view for the stats endpoint, which never waits on a
//! socket call. A frame stays queued until the relay acknowledges
//! applying it; a reset connection or a restarted relay gets the
//! unacked frames again, and the relay deduplicates them. During an
//! upstream outage the frames wait in the spill, which bounds them by
//! bytes and sheds the oldest with accounting (`spill_*`,
//! `flowtree_spill_shed_*`) rather than blocking the merger. The site
//! uses the shipper's defaults ([`ShipperConfig::new`],
//! [`SpillConfig::default`]).
//!
//! The stats endpoint serves one list: `site_stats` declares every
//! counter once — its `/stats` key, its `/metrics` series, or both —
//! from the lane engine's summed [`IngestReport`], the shipper's block
//! ([`shipper_stats`]) and its reconnect counters, and the live knobs,
//! and [`NodeTelemetry::serve`](crate::ops::NodeTelemetry::serve)
//! renders `/stats`, `/stats.json` and `/metrics` from it.
//!
//! Shutdown is a **drain**, never a cut: [`SiteRuntime::drain`] stops
//! the UDP lanes (which themselves drain the socket buffers and flush
//! every open window), lets the shipper thread queue the final frames,
//! pumps until every frame is acked or the deadline passes, then frees
//! the stats port. Stopping the shipper thread's [`Wake`] halts its
//! pump between two bounded socket calls, so once the lanes have
//! stopped, a drain returns within the deadline plus the ack stall (or
//! the hello timeout, if longer), however slowly the upstream reads.

use crate::admission::{AdmissionConfig, AdmissionKnobs};
use crate::export::{
    shipper_stats, ExportShipper, ShipEvent, ShipperConfig, ShipperStats, ShipperView,
};
use crate::lane::{
    spawn_multi_lane_ingest, IngestReport, IngestTelemetry, LaneOptions, MultiGaugeView,
    MultiIngestHandle,
};
use crate::ops::{
    parse_reload, reload_u64, spawn_ops, NodeTelemetry, OpsHandle, OpsRequest, OpsResponse,
};
use crate::pipeline::IngestPipeline;
use crate::{
    DaemonConfig, DistError, SiteDaemon, SpillConfig, SpillQueue, SteadyClock, TransferMode, Wake,
};
use flowkey::Schema;
use flowmetrics::Stats;
use flownet::DecoderLimits;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything one site node needs, as a value (superseding ad-hoc
/// wiring): where to listen, where to ship, and the daemon knobs.
#[derive(Debug, Clone)]
pub struct SiteNodeConfig {
    /// The site id carried in emitted summary frames.
    pub site: u16,
    /// UDP bind address for exporter packets (`127.0.0.1:0` picks a
    /// port; read it back from [`SiteRuntime::ingest_addr`]).
    pub listen: String,
    /// TCP address of the upstream relay's ingest listener.
    pub upstream: String,
    /// Optional bind address for the plaintext stats endpoint.
    pub stats: Option<String>,
    /// Window span (ms).
    pub window_ms: u64,
    /// Per-window tree node budget.
    pub budget: usize,
    /// Records per pipeline batch.
    pub batch: usize,
    /// Requested UDP receive buffer (`SO_RCVBUF`, best-effort; the
    /// achieved size shows as `recv_buffer_bytes` in stats).
    pub receive_buffer_bytes: Option<usize>,
    /// Decoder hardening limits (template caps/timeouts/bounds).
    pub limits: DecoderLimits,
    /// Per-exporter admission quotas (live-reloadable).
    pub admission: AdmissionConfig,
    /// Max distinct buffered window buckets before oldest-first
    /// shedding (0 = unbounded; live-reloadable).
    pub max_open_windows: u64,
    /// Independent listen→pipeline lanes (1 = one reader thread;
    /// see [`crate::lane`]).
    pub lanes: usize,
    /// Datagrams pulled per receive syscall (`recvmmsg` batch size).
    pub recv_batch: usize,
    /// Multi-socket `SO_REUSEPORT` mode for `lanes > 1` where the
    /// platform supports it (`false` forces the portable fanout-ring
    /// mode).
    pub reuseport: bool,
    /// Pin lane threads to cores (live-reloadable via `pin-cores` on
    /// `POST /reload`).
    pub pin_cores: bool,
}

impl SiteNodeConfig {
    /// Defaults for one site shipping to `upstream`: 5-minute windows,
    /// the five-feature schema, default hardening limits, quotas off.
    pub fn new(site: u16, upstream: impl Into<String>) -> SiteNodeConfig {
        SiteNodeConfig {
            site,
            listen: "127.0.0.1:0".into(),
            upstream: upstream.into(),
            stats: None,
            window_ms: 300_000,
            budget: 1 << 16,
            batch: crate::pipeline::DEFAULT_BATCH,
            receive_buffer_bytes: None,
            limits: DecoderLimits::default(),
            admission: AdmissionConfig::default(),
            max_open_windows: 256,
            lanes: 1,
            recv_batch: 32,
            reuseport: true,
            pin_cores: false,
        }
    }
}

/// What the stats endpoint reads of the site's upstream half: the
/// shipper thread owns the shipper and publishes it here.
#[derive(Clone, Copy)]
struct Uplink {
    /// The shipper as of its last pump.
    ship: ShipperView,
    /// Connection attempts, failed ones, and the backoff before them.
    attempts: u64,
    failures: u64,
    backoff_ms: u64,
    /// Pumps the shipper thread ran (`ship_pumps`): one per wakeup.
    pumps: u64,
}

/// A site's host for its shipper's events: it counts reconnects, needs
/// no ack bookkeeping, and refuses rebase-requests — a site ships each
/// window once, whole, and keeps nothing to re-export.
fn site_host(uplink: &Mutex<Uplink>, ev: ShipEvent) -> bool {
    if let ShipEvent::Reconnect { ok, waited_ms } = ev {
        let mut up = uplink.lock().expect("uplink lock");
        up.attempts += 1;
        up.failures += u64::from(!ok);
        up.backoff_ms += waited_ms;
    }
    false
}

/// What [`SiteRuntime::drain`] hands back.
#[derive(Debug)]
pub struct SiteDrainReport {
    /// The ingest engine's final counters.
    pub ingest: IngestReport,
    /// The shipper's final counters (`acked_frames` = windows the
    /// relay acknowledged applying).
    pub shipper: ShipperStats,
    /// Frames still unacknowledged when the drain deadline passed
    /// (0 = the relay acked everything the site emitted).
    pub pending_at_exit: usize,
}

/// A running site node (see [`SiteNodeConfig`] and the module docs).
pub struct SiteRuntime {
    site: u16,
    ingest: MultiIngestHandle,
    ship: std::thread::JoinHandle<ExportShipper>,
    gauges: MultiGaugeView,
    uplink: Arc<Mutex<Uplink>>,
    clock: SteadyClock,
    /// The shipper thread's doorbell; stopping it halts a pump.
    wake: Wake,
    knobs: Arc<AdmissionKnobs>,
    ops: Option<OpsHandle>,
}

impl SiteRuntime {
    /// Boots the node: binds the UDP listener, spawns the upstream
    /// shipper thread, and (if configured) the stats endpoint.
    pub fn start(cfg: SiteNodeConfig) -> Result<SiteRuntime, DistError> {
        let mut dcfg = DaemonConfig::new(cfg.site);
        dcfg.window_ms = cfg.window_ms.max(1);
        dcfg.schema = Schema::five_feature();
        dcfg.tree = flowtree_core::Config::with_budget(cfg.budget);
        dcfg.transfer = TransferMode::Full;
        let telemetry = NodeTelemetry::default();
        let decode_hist = telemetry.registry.histogram(
            "flowtree_decode_seconds",
            "Export-packet decode latency (one datagram through the dialect decoders).",
        );
        let flush_hist = telemetry.registry.histogram(
            "flowtree_flush_seconds",
            "Pipeline flush latency (one record batch into the windowed trees).",
        );
        let batch = cfg.batch.max(1);
        let limits = cfg.limits;
        let pipeline_for = move |_lane: usize| {
            let mut p = IngestPipeline::with_limits(SiteDaemon::new(dcfg), batch, limits);
            p.set_latency_instruments(decode_hist.clone(), flush_hist.clone());
            p
        };
        let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(256);
        let wake = Wake::new();
        let knobs = Arc::new(AdmissionKnobs::new(cfg.admission, cfg.max_open_windows));
        knobs.set_pin_cores(cfg.pin_cores);
        let opts = LaneOptions {
            lanes: cfg.lanes.max(1),
            recv_batch: cfg.recv_batch.max(1),
            reuseport: cfg.reuseport,
            force_fallback_recv: false,
            receive_buffer_bytes: cfg.receive_buffer_bytes,
            knobs: Arc::clone(&knobs),
            telemetry: IngestTelemetry {
                open_windows: Some(telemetry.registry.gauge(
                    "flowtree_open_windows",
                    "Distinct window buckets currently open in the ingest pipeline.",
                )),
                events: Some(telemetry.events.clone()),
            },
            batch_hist: Some(telemetry.registry.histogram_with_bounds(
                "flowtree_lane_batch_size",
                "Datagrams delivered per receive batch (recvmmsg syscall or ring burst).",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            )),
            frames_wake: Some(wake.clone()),
            ..LaneOptions::default()
        };
        let ingest = spawn_multi_lane_ingest(&cfg.listen, pipeline_for, tx, opts)?;
        let gauges = ingest.view();
        let mut shipper = ExportShipper::new(
            ShipperConfig::new(cfg.upstream.clone()),
            SpillQueue::in_memory(SpillConfig::default()),
            u64::from(cfg.site) ^ (u64::from(std::process::id()) << 17),
        );
        shipper.set_waker(wake.clone());
        let uplink = Arc::new(Mutex::new(Uplink {
            ship: shipper.core.view(),
            attempts: 0,
            failures: 0,
            backoff_ms: 0,
            pumps: 0,
        }));
        let clock = SteadyClock::new();
        let ship = {
            let uplink = Arc::clone(&uplink);
            let clock = clock.clone();
            let wake = wake.clone();
            std::thread::Builder::new()
                .name(format!("site{}-ship", cfg.site))
                .spawn(move || ship_loop(&rx, shipper, &uplink, &clock, &wake))
                .map_err(DistError::Io)?
        };
        let ops = match &cfg.stats {
            Some(addr) => {
                let site = cfg.site;
                let view = gauges.clone();
                let up = Arc::clone(&uplink);
                let k = Arc::clone(&knobs);
                let tel = telemetry;
                let handler = move |req: &OpsRequest| {
                    tel.serve(
                        req,
                        || site_stats(site, &tel, &view, &up, &k),
                        || site_ops(site, &k, &tel, req),
                    )
                };
                Some(spawn_ops(addr, handler).map_err(DistError::Io)?)
            }
            None => None,
        };
        Ok(SiteRuntime {
            site: cfg.site,
            ingest,
            ship,
            gauges,
            uplink,
            clock,
            wake,
            knobs,
            ops,
        })
    }

    /// The live admission/budget knobs — the same block the ops
    /// endpoint's `POST /reload` writes.
    pub fn knobs(&self) -> Arc<AdmissionKnobs> {
        Arc::clone(&self.knobs)
    }

    /// The site id.
    pub fn site(&self) -> u16 {
        self.site
    }

    /// The bound UDP ingest address.
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest.local_addr()
    }

    /// The bound stats endpoint address, if one was configured.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|o| o.local_addr())
    }

    /// The ingest engine's live counters.
    pub fn ingest_snapshot(&self) -> IngestReport {
        self.gauges.snapshot()
    }

    /// Drains and shuts the node down: the UDP lanes empty their
    /// socket buffers and flush every open window, the shipper thread
    /// queues the final frames, then the shipper pumps until every
    /// frame is acked or `deadline` passes, and every port is
    /// released. Unacked frames left at the deadline are reported in
    /// [`SiteDrainReport::pending_at_exit`].
    pub fn drain(self, deadline: Duration) -> SiteDrainReport {
        let ingest = self.ingest.stop();
        let stopped = Instant::now();
        // The ingest engine owned the channel sender; with it gone the
        // shipper thread halts its pump, queues what is left and hands
        // the shipper back.
        self.wake.stop();
        let mut shipper = self.ship.join().expect("site shipper thread");
        let left = deadline.saturating_sub(stopped.elapsed());
        let pending_at_exit = shipper.flush(&self.clock, left, |ev| site_host(&self.uplink, ev));
        if let Some(ops) = self.ops {
            ops.stop();
        }
        SiteDrainReport {
            ingest,
            shipper: shipper.core.stats(),
            pending_at_exit,
        }
    }
}

/// The shipper thread: on every wakeup it queues the merged frames
/// that arrived, pumps and publishes the shipper's view, then sleeps on
/// `wake` until the next frame, control frame or shipper deadline. When
/// the ingest engine drops the channel it hands the shipper back.
fn ship_loop(
    rx: &crossbeam::channel::Receiver<Vec<u8>>,
    mut shipper: ExportShipper,
    uplink: &Mutex<Uplink>,
    clock: &SteadyClock,
    wake: &Wake,
) -> ExportShipper {
    use crossbeam::channel::TryRecvError;
    loop {
        let open = loop {
            match rx.try_recv() {
                Ok(frame) => {
                    let queued = shipper.core.enqueue(frame);
                    debug_assert!(queued.is_ok(), "the lane merger emits valid frames");
                }
                Err(TryRecvError::Empty) => break true,
                Err(TryRecvError::Disconnected) => break false,
            }
        };
        let halt = || wake.is_stopped();
        shipper.pump(clock.now_ms(), halt, |ev| site_host(uplink, ev));
        let due = shipper.core.next_deadline(clock.now_ms());
        {
            let mut up = uplink.lock().expect("uplink lock");
            up.pumps += 1;
            up.ship = shipper.core.view();
        }
        if !open {
            return shipper;
        }
        wake.wait(due.map(|ms| clock.instant_at(ms)));
    }
}

/// The site node's one stats list: every key of the plaintext page and
/// `/stats.json` in order, and every `/metrics` series except the
/// registry-native histograms and open-window gauge.
fn site_stats(
    site: u16,
    tel: &NodeTelemetry,
    view: &MultiGaugeView,
    uplink: &Mutex<Uplink>,
    knobs: &AdmissionKnobs,
) -> Stats {
    let r = view.snapshot();
    let t = &r.total;
    let cfg = knobs.load();
    let mut s = tel.stats("site", &format!("site{site}"));
    s.kv("role", "site");
    s.kv("site", u64::from(site));
    s.kv("datagrams", t.datagrams).counter(
        "flowtree_ingest_datagrams_total",
        "Raw datagrams received (admitted or not).",
    );
    s.kv("packets", t.pipeline.packets).counter(
        "flowtree_ingest_packets_total",
        "Export packets decoded successfully.",
    );
    s.kv("decode_errors", t.pipeline.decode_errors).counter(
        "flowtree_ingest_decode_errors_total",
        "Payloads that failed to decode.",
    );
    s.kv("quota_packet_drops", t.admission.packet_drops)
        .counter(
            "flowtree_ingest_quota_packet_drops_total",
            "Datagrams denied by a per-exporter packet quota.",
        );
    s.kv("quota_record_drops", t.admission.record_drops)
        .counter(
            "flowtree_ingest_quota_record_drops_total",
            "Records denied by a per-exporter record quota.",
        );
    s.kv("records", t.pipeline.records)
        .counter("flowtree_ingest_records_total", "Flow records extracted.");
    s.kv("records_no_template", t.decoder.records_skipped)
        .counter(
            "flowtree_ingest_records_no_template_total",
            "Records dropped for lack of a template.",
        );
    s.kv("templates_live", t.decoder.templates).gauge(
        "flowtree_templates_live",
        "Templates currently cached by the decoders.",
    );
    let evicted = t.decoder.templates_evicted_cap + t.decoder.templates_evicted_timeout;
    s.kv("templates_evicted", evicted).counter(
        "flowtree_templates_evicted_total",
        "Templates evicted (count cap + timeout).",
    );
    s.kv("templates_rejected", t.decoder.templates_rejected)
        .counter(
            "flowtree_templates_rejected_total",
            "Templates rejected for violating shape bounds.",
        );
    s.kv("window_sheds", t.pipeline.window_sheds).counter(
        "flowtree_window_sheds_total",
        "Window buckets force-flushed to honor the open-window budget.",
    );
    s.kv("backpressure_waits", r.backpressure_waits).counter(
        "flowtree_backpressure_waits_total",
        "1 ms waits spent on a full frames channel.",
    );
    s.kv("exporters_tracked", t.exporters).gauge(
        "flowtree_exporters_tracked",
        "Exporter addresses currently tracked by admission control.",
    );
    s.kv("exporters_evicted", t.admission.exporters_evicted)
        .counter(
            "flowtree_exporters_evicted_total",
            "Exporter entries evicted to bound the table.",
        );
    s.kv("recv_buffer_bytes", r.recv_buffer_bytes).gauge(
        "flowtree_recv_buffer_bytes",
        "Achieved socket receive buffer (0 = OS default).",
    );
    s.kv("late_drops", t.daemon.late_drops).counter(
        "flowtree_late_drops_total",
        "Records dropped as older than any open window.",
    );
    s.kv("summaries", t.daemon.summaries).counter(
        "flowtree_summaries_total",
        "Summaries emitted by the daemon.",
    );
    s.kv("frames_sent", r.frames_sent).counter(
        "flowtree_frames_sent_total",
        "Summary frames shipped through the channel.",
    );
    s.kv("frames_dropped", r.frames_dropped).counter(
        "flowtree_frames_dropped_total",
        "Frames dropped (receiver gone or full channel while stopping).",
    );
    let up = *uplink.lock().expect("uplink lock");
    s.kv("reconnect_attempts", up.attempts).counter(
        "flowtree_ship_reconnect_attempts_total",
        "Upstream connection attempts by the shipper.",
    );
    s.kv("reconnect_failures", up.failures).counter(
        "flowtree_ship_reconnect_failures_total",
        "Failed connection attempts among them.",
    );
    s.kv("backoff_ms_total", up.backoff_ms).counter(
        "flowtree_ship_backoff_ms_total",
        "Milliseconds the shipper backed off between attempts.",
    );
    shipper_stats(&mut s, Some(&up.ship));
    s.kv("knob_packet_rate", cfg.packet_rate);
    s.kv("knob_packet_burst", cfg.packet_burst);
    s.kv("knob_record_rate", cfg.record_rate);
    s.kv("knob_record_burst", cfg.record_burst);
    s.kv("knob_max_exporters", cfg.max_exporters);
    s.kv("knob_max_open_windows", knobs.max_open_windows());
    s.kv("knob_pin_cores", u64::from(knobs.pin_cores()));
    s.kv("lanes", view.lanes()).gauge(
        "flowtree_lanes",
        "Configured ingest lanes on this site node.",
    );
    s.kv("merger_stale_windows", view.merger_stale_windows())
        .counter(
            "flowtree_merger_stale_windows_total",
            "Straggler window trees dropped because the window was already emitted \
         past an idle-excluded lane.",
        );
    for i in 0..view.lanes() {
        let l = view.lane(i);
        s.kv(format!("lane{i}_datagrams"), l.stats.datagrams)
            .counter(
                "flowtree_lane_datagrams_total",
                "Raw datagrams received by one ingest lane.",
            )
            .label("lane", i.to_string());
        s.kv(format!("lane{i}_records"), l.stats.pipeline.records)
            .counter(
                "flowtree_lane_records_total",
                "Flow records extracted by one ingest lane.",
            )
            .label("lane", i.to_string());
        s.kv(format!("lane{i}_recv_batches"), l.recv_batches)
            .counter(
                "flowtree_lane_recv_batches_total",
                "Successful receive batches (syscalls or ring bursts) on one lane.",
            )
            .label("lane", i.to_string());
        s.kv(format!("lane{i}_backpressure_waits"), l.backpressure_waits)
            .counter(
                "flowtree_lane_backpressure_waits_total",
                "1 ms fanout-reader waits on one lane's full ring.",
            )
            .label("lane", i.to_string());
        s.kv(format!("lane{i}_dead_drops"), l.dead_drops)
            .counter(
                "flowtree_lane_dead_drops_total",
                "Datagrams the fanout reader discarded because the lane's ring \
                 consumer was gone.",
            )
            .label("lane", i.to_string());
        s.kv(format!("lane{i}_pinned"), u64::from(l.pinned))
            .gauge(
                "flowtree_lane_pinned",
                "Whether the lane thread currently holds a CPU affinity pin.",
            )
            .label("lane", i.to_string());
    }
    s.kv("ship_pumps", up.pumps).counter(
        "flowtree_ship_pumps_total",
        "Wakeups of the shipper thread (each queues what arrived and pumps once).",
    );
    s
}

/// The site node's own ops routes, next to the shared ones
/// ([`NodeTelemetry::serve`]): `/health` and `POST /reload`.
fn site_ops(
    site: u16,
    knobs: &AdmissionKnobs,
    tel: &NodeTelemetry,
    req: &OpsRequest,
) -> OpsResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => OpsResponse::ok(format!(
            "ok true\nrole site\nsite {site}\n{}",
            tel.health_tail()
        )),
        ("POST", "/reload") => tel.reloaded(site_reload(&req.body, knobs)),
        _ => OpsResponse::not_found(),
    }
}

/// Applies a `POST /reload` body ([`parse_reload`]; keys
/// `packet-rate`, `packet-burst`, `record-rate`, `record-burst`,
/// `max-exporters`, `max-open-windows`, `pin-cores`) to the live
/// admission knobs.
fn site_reload(body: &str, knobs: &AdmissionKnobs) -> Result<String, String> {
    let mut cfg = knobs.load();
    let mut windows = knobs.max_open_windows();
    let mut pin = knobs.pin_cores();
    let reply = parse_reload(body.lines(), |key, value| {
        let n = reload_u64(key, value)?;
        match key {
            "packet-rate" => cfg.packet_rate = n,
            "packet-burst" => cfg.packet_burst = n,
            "record-rate" => cfg.record_rate = n,
            "record-burst" => cfg.record_burst = n,
            "max-exporters" => cfg.max_exporters = n as usize,
            "max-open-windows" => windows = n,
            "pin-cores" => pin = n != 0,
            other => return Err(format!("unknown key: {other}")),
        }
        Ok(())
    })?;
    knobs.store(cfg);
    knobs.set_max_open_windows(windows);
    knobs.set_pin_cores(pin);
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControlFrame, SlotPos, FEATURE_ACKS};
    use crate::net::export_netflow;
    use crate::{Collector, Summary};
    use flownet::FlowRecord;
    use std::net::{TcpListener, UdpSocket};

    fn record(ts_ms: u64, host: u8, packets: u64) -> FlowRecord {
        let mut r = FlowRecord::v4(
            [10, 9, 0, host],
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

    #[test]
    fn site_runtime_ships_upstream_and_drains() {
        // A stand-in relay: answer the hello, apply each frame to a
        // collector and ack it at the frame's epoch.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let mut collector = Collector::new(
                Schema::five_feature(),
                flowtree_core::Config::with_budget(4_096),
            );
            let (stream, _) = listener.accept().unwrap();
            let (mut applied, mut rejected) = (0u64, 0u64);
            crate::framing::serve_framed(stream, |frame| {
                if crate::control::is_control(&frame) {
                    let hello = ControlFrame::Hello {
                        features: FEATURE_ACKS,
                    };
                    return Some(hello.encode());
                }
                let summary = Summary::decode(&frame, flowtree_core::Config::with_budget(4_096));
                let pos = summary.as_ref().ok().and_then(|s| {
                    Some(SlotPos {
                        window_start_ms: s.window.start_ms,
                        span_ms: s.window.span_ms,
                        exporter: s.site,
                        epoch: s.epoch()?.epoch,
                    })
                });
                match summary.and_then(|s| collector.apply(s)) {
                    Ok(_) => {
                        applied += 1;
                        pos.map(|p| ControlFrame::Ack(p).encode())
                    }
                    Err(_) => {
                        rejected += 1;
                        None
                    }
                }
            })
            .expect("clean stream");
            (collector, applied, rejected)
        });

        let mut cfg = SiteNodeConfig::new(3, upstream_addr.to_string());
        cfg.window_ms = 1_000;
        cfg.budget = 512;
        cfg.stats = Some("127.0.0.1:0".into());
        let node = SiteRuntime::start(cfg).unwrap();

        let sender = UdpSocket::bind("127.0.0.1:0").unwrap();
        let records: Vec<FlowRecord> = (0..20)
            .map(|i| record((i / 10) * 1_000 + 100 + i, (i % 10) as u8, 2))
            .collect();
        export_netflow(&sender, node.ingest_addr(), &records, 10_000).unwrap();

        // The stats endpoint answers while the node runs.
        let stats_addr = node.stats_addr().unwrap().to_string();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (status, body) = crate::ops::ops_request(&stats_addr, "GET", "/stats", "").unwrap();
            assert_eq!(status, 200);
            assert!(body.contains("role site"), "{body}");
            if body.contains("records 20") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "stats never caught up: {body}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        let report = node.drain(Duration::from_secs(10));
        assert!(report.ingest.error.is_none());
        assert_eq!(report.ingest.total.pipeline.records, 20);
        assert_eq!(report.pending_at_exit, 0);
        assert!(
            report.shipper.acked_frames >= 2,
            "windows flushed: {}",
            report.shipper.acked_frames
        );

        let (collector, applied, rejected) = sink.join().unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(applied, report.shipper.acked_frames);
        assert_eq!(collector.merged(None, 0, u64::MAX).total().packets, 40);
    }
}
