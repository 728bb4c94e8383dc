//! The site-node runtime: one deployable site daemon as a value.
//!
//! [`crate::lane`] gives the `UDP → pipeline → summary frames`
//! engine; what a *fleet* needs on top is the other half a production
//! site node runs — a forwarder that ships those frames upstream over
//! TCP (reconnecting through outages), a stats endpoint, and a
//! drain-on-shutdown path — wired behind one `start`/`drain` handle so
//! a launcher ([`flowrelay`]'s `flowctl`) can boot a site from a spec
//! line instead of hand-assembling threads. The relay-side twin is
//! `flowrelay::runtime::NodeRuntime`.
//!
//! Shutdown is a **drain**, never a cut: [`SiteRuntime::drain`] stops
//! the UDP lanes (which themselves drain the socket buffers and flush
//! every open window), then joins the forwarder after it has pushed
//! the final frames upstream, then frees the stats port.

use crate::admission::{AdmissionConfig, AdmissionKnobs};
use crate::lane::{
    spawn_multi_lane_ingest, IngestReport, IngestSnapshot, IngestTelemetry, LaneOptions,
    MultiGaugeView, MultiIngestHandle,
};
use crate::ops::{spawn_ops, OpsHandle, OpsRequest, OpsResponse};
use crate::pipeline::IngestPipeline;
use crate::{DaemonConfig, DistError, SiteDaemon, TransferMode};
use flowkey::Schema;
use flowmetrics::{EventRing, KvValue, Registry};
use flownet::DecoderLimits;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Counters of the TCP forwarder thread, shared with the stats
/// endpoint.
#[derive(Debug, Default)]
struct ForwardGauges {
    forwarded: AtomicU64,
    reconnects: AtomicU64,
    /// Frames abandoned after the upstream stayed unreachable through
    /// the drain deadline (explicit, accounted loss — only on drain).
    abandoned: AtomicU64,
}

/// Shared observability state of one site node: the metric registry
/// behind `GET /metrics`, the event ring behind `GET /events`, and the
/// boot instant behind `/health`'s `uptime_ms`.
#[derive(Debug, Clone)]
struct SiteTelemetry {
    registry: Registry,
    events: EventRing,
    started: Instant,
}

/// What [`SiteRuntime::drain`] hands back.
#[derive(Debug)]
pub struct SiteDrainReport {
    /// The ingest engine's final counters.
    pub ingest: IngestReport,
    /// Frames successfully written upstream over the node's lifetime.
    pub forwarded: u64,
    /// Upstream reconnect attempts.
    pub reconnects: u64,
    /// Frames abandoned because the upstream stayed unreachable while
    /// draining.
    pub abandoned: u64,
}

/// A running site node (see [`SiteNodeConfig`] and the module docs).
#[derive(Debug)]
pub struct SiteRuntime {
    site: u16,
    ingest: MultiIngestHandle,
    forward: std::thread::JoinHandle<()>,
    gauges: MultiGaugeView,
    fwd: Arc<ForwardGauges>,
    knobs: Arc<AdmissionKnobs>,
    ops: Option<OpsHandle>,
}

impl SiteRuntime {
    /// Boots the node: binds the UDP listener, spawns the upstream
    /// forwarder, and (if configured) the stats endpoint.
    pub fn start(cfg: SiteNodeConfig) -> Result<SiteRuntime, DistError> {
        let mut dcfg = DaemonConfig::new(cfg.site);
        dcfg.window_ms = cfg.window_ms.max(1);
        dcfg.schema = Schema::five_feature();
        dcfg.tree = flowtree_core::Config::with_budget(cfg.budget);
        dcfg.transfer = TransferMode::Full;
        let telemetry = SiteTelemetry {
            registry: Registry::new(),
            events: EventRing::new(256),
            started: Instant::now(),
        };
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
            ..LaneOptions::default()
        };
        let ingest = spawn_multi_lane_ingest(&cfg.listen, pipeline_for, tx, opts)?;
        let gauges = ingest.view();
        let fwd = Arc::new(ForwardGauges::default());
        let fwd_loop = Arc::clone(&fwd);
        let upstream = cfg.upstream.clone();
        let forward = std::thread::Builder::new()
            .name(format!("site{}-forward", cfg.site))
            .spawn(move || forward_loop(&upstream, rx, &fwd_loop))
            .map_err(DistError::Io)?;
        let ops = match &cfg.stats {
            Some(addr) => {
                let site = cfg.site;
                let g = gauges.clone();
                let f = Arc::clone(&fwd);
                let k = Arc::clone(&knobs);
                let tel = telemetry.clone();
                Some(
                    spawn_ops(addr, move |req| site_ops(site, &g, &f, &k, &tel, req))
                        .map_err(DistError::Io)?,
                )
            }
            None => None,
        };
        Ok(SiteRuntime {
            site: cfg.site,
            ingest,
            forward,
            gauges,
            fwd,
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
    pub fn ingest_snapshot(&self) -> IngestSnapshot {
        self.gauges.snapshot()
    }

    /// Drains and shuts the node down: the UDP loop empties its socket
    /// buffer and flushes every open window, the forwarder ships the
    /// final frames upstream (retrying within the drain deadline),
    /// then every port is released.
    pub fn drain(self) -> SiteDrainReport {
        let report = self.ingest.stop();
        // The ingest thread owned the channel sender; with it gone the
        // forwarder drains the queue and exits on its own.
        let _ = self.forward.join();
        if let Some(ops) = self.ops {
            ops.stop();
        }
        SiteDrainReport {
            ingest: report,
            forwarded: self.fwd.forwarded.load(Ordering::Relaxed),
            reconnects: self.fwd.reconnects.load(Ordering::Relaxed),
            abandoned: self.fwd.abandoned.load(Ordering::Relaxed),
        }
    }
}

/// The workspace version every node reports in `/health` — how
/// `flowctl top` spots a mixed-version or crash-restarted fleet.
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// The shared `/health` tail: `uptime_ms` (restarts reset it — a
/// freshly low value on a long-lived fleet flags a crash-restart) and
/// the build version.
pub fn health_tail(started: Instant) -> String {
    format!(
        "uptime_ms {}\nversion {}",
        started.elapsed().as_millis(),
        build_version()
    )
}

/// The site node's stats as ordered key/value pairs — the single
/// source both the legacy plaintext page and `/stats.json` render
/// from, so the two can never drift.
fn site_stat_pairs(
    site: u16,
    view: &MultiGaugeView,
    fwd: &ForwardGauges,
    knobs: &AdmissionKnobs,
) -> Vec<(String, KvValue)> {
    let s = &view.snapshot();
    let cfg = knobs.load();
    let mut pairs: Vec<(String, KvValue)> = vec![
        ("role".into(), "site".into()),
        ("site".into(), KvValue::U64(site as u64)),
    ];
    let mut line = |k: &str, v: u64| pairs.push((k.to_string(), KvValue::U64(v)));
    line("datagrams", s.datagrams);
    line("packets", s.packets);
    line("decode_errors", s.decode_errors);
    line("quota_packet_drops", s.quota_packet_drops);
    line("quota_record_drops", s.quota_record_drops);
    line("records", s.records);
    line("records_no_template", s.records_no_template);
    line("templates_live", s.templates);
    line("templates_evicted", s.templates_evicted);
    line("templates_rejected", s.templates_rejected);
    line("window_sheds", s.window_sheds);
    line("backpressure_waits", s.backpressure_waits);
    line("exporters_tracked", s.exporters);
    line("exporters_evicted", s.exporters_evicted);
    line("recv_buffer_bytes", s.recv_buffer_bytes);
    line("late_drops", s.late_drops);
    line("summaries", s.summaries);
    line("frames_sent", s.frames_sent);
    line("frames_dropped", s.frames_dropped);
    line("forwarded", fwd.forwarded.load(Ordering::Relaxed));
    line("forward_reconnects", fwd.reconnects.load(Ordering::Relaxed));
    line("forward_abandoned", fwd.abandoned.load(Ordering::Relaxed));
    line("knob_packet_rate", cfg.packet_rate);
    line("knob_packet_burst", cfg.packet_burst);
    line("knob_record_rate", cfg.record_rate);
    line("knob_record_burst", cfg.record_burst);
    line("knob_max_exporters", cfg.max_exporters as u64);
    line("knob_max_open_windows", knobs.max_open_windows());
    line("knob_pin_cores", knobs.pin_cores() as u64);
    line("lanes", view.lanes() as u64);
    line("merger_stale_windows", view.merger_stale_windows());
    for i in 0..view.lanes() {
        let l = view.lane(i);
        line(&format!("lane{i}_datagrams"), l.datagrams);
        line(&format!("lane{i}_records"), l.records);
        line(&format!("lane{i}_recv_batches"), l.recv_batches);
        line(&format!("lane{i}_backpressure_waits"), l.backpressure_waits);
        line(&format!("lane{i}_dead_drops"), l.dead_drops);
        line(&format!("lane{i}_pinned"), l.pinned as u64);
    }
    pairs
}

/// Mirrors the site's snapshot counters into its registry so a
/// `/metrics` scrape sees every ad-hoc counter as a first-class
/// Prometheus series next to the live histograms/gauges.
fn sync_site_registry(site: u16, tel: &SiteTelemetry, view: &MultiGaugeView, fwd: &ForwardGauges) {
    let s = &view.snapshot();
    let reg = &tel.registry;
    let node = format!("site{site}");
    reg.gauge_with(
        "flowtree_build_info",
        "Constant 1; identity in labels.",
        &[
            ("role", "site"),
            ("node", &node),
            ("version", build_version()),
        ],
    )
    .set(1);
    reg.gauge("flowtree_uptime_seconds", "Seconds since this node booted.")
        .set(tel.started.elapsed().as_secs() as i64);
    let c = |name: &str, help: &str, v: u64| reg.counter(name, help).set(v);
    let g = |name: &str, help: &str, v: u64| reg.gauge(name, help).set(v as i64);
    c(
        "flowtree_ingest_datagrams_total",
        "Raw datagrams received (admitted or not).",
        s.datagrams,
    );
    c(
        "flowtree_ingest_packets_total",
        "Export packets decoded successfully.",
        s.packets,
    );
    c(
        "flowtree_ingest_decode_errors_total",
        "Payloads that failed to decode.",
        s.decode_errors,
    );
    c(
        "flowtree_ingest_quota_packet_drops_total",
        "Datagrams denied by a per-exporter packet quota.",
        s.quota_packet_drops,
    );
    c(
        "flowtree_ingest_quota_record_drops_total",
        "Records denied by a per-exporter record quota.",
        s.quota_record_drops,
    );
    c(
        "flowtree_ingest_records_total",
        "Flow records extracted.",
        s.records,
    );
    c(
        "flowtree_ingest_records_no_template_total",
        "Records dropped for lack of a template.",
        s.records_no_template,
    );
    g(
        "flowtree_templates_live",
        "Templates currently cached by the decoders.",
        s.templates,
    );
    c(
        "flowtree_templates_evicted_total",
        "Templates evicted (count cap + timeout).",
        s.templates_evicted,
    );
    c(
        "flowtree_templates_rejected_total",
        "Templates rejected for violating shape bounds.",
        s.templates_rejected,
    );
    c(
        "flowtree_window_sheds_total",
        "Window buckets force-flushed to honor the open-window budget.",
        s.window_sheds,
    );
    c(
        "flowtree_backpressure_waits_total",
        "1 ms waits spent on a full frames channel.",
        s.backpressure_waits,
    );
    g(
        "flowtree_exporters_tracked",
        "Exporter addresses currently tracked by admission control.",
        s.exporters,
    );
    c(
        "flowtree_exporters_evicted_total",
        "Exporter entries evicted to bound the table.",
        s.exporters_evicted,
    );
    g(
        "flowtree_recv_buffer_bytes",
        "Achieved socket receive buffer (0 = OS default).",
        s.recv_buffer_bytes,
    );
    c(
        "flowtree_late_drops_total",
        "Records dropped as older than any open window.",
        s.late_drops,
    );
    c(
        "flowtree_summaries_total",
        "Summaries emitted by the daemon.",
        s.summaries,
    );
    c(
        "flowtree_frames_sent_total",
        "Summary frames shipped through the channel.",
        s.frames_sent,
    );
    c(
        "flowtree_frames_dropped_total",
        "Frames dropped (receiver gone or full channel while stopping).",
        s.frames_dropped,
    );
    c(
        "flowtree_forward_frames_total",
        "Frames written upstream by the TCP forwarder.",
        fwd.forwarded.load(Ordering::Relaxed),
    );
    c(
        "flowtree_forward_reconnects_total",
        "Upstream reconnect attempts by the forwarder.",
        fwd.reconnects.load(Ordering::Relaxed),
    );
    c(
        "flowtree_forward_abandoned_total",
        "Frames abandoned because the upstream stayed unreachable while draining.",
        fwd.abandoned.load(Ordering::Relaxed),
    );
    c(
        "flowtree_events_total",
        "Operational events recorded (including ones the ring evicted).",
        tel.events.total(),
    );
    g(
        "flowtree_lanes",
        "Configured ingest lanes on this site node.",
        view.lanes() as u64,
    );
    c(
        "flowtree_merger_stale_windows_total",
        "Straggler window trees dropped because the window was already emitted \
         past an idle-excluded lane.",
        view.merger_stale_windows(),
    );
    for i in 0..view.lanes() {
        let l = view.lane(i);
        let lane = i.to_string();
        let labels: &[(&str, &str)] = &[("lane", lane.as_str())];
        reg.counter_with(
            "flowtree_lane_datagrams_total",
            "Raw datagrams received by one ingest lane.",
            labels,
        )
        .set(l.datagrams);
        reg.counter_with(
            "flowtree_lane_records_total",
            "Flow records extracted by one ingest lane.",
            labels,
        )
        .set(l.records);
        reg.counter_with(
            "flowtree_lane_recv_batches_total",
            "Successful receive batches (syscalls or ring bursts) on one lane.",
            labels,
        )
        .set(l.recv_batches);
        reg.counter_with(
            "flowtree_lane_backpressure_waits_total",
            "1 ms fanout-reader waits on one lane's full ring.",
            labels,
        )
        .set(l.backpressure_waits);
        reg.counter_with(
            "flowtree_lane_dead_drops_total",
            "Datagrams the fanout reader discarded because the lane's ring \
             consumer was gone.",
            labels,
        )
        .set(l.dead_drops);
        reg.gauge_with(
            "flowtree_lane_pinned",
            "Whether the lane thread currently holds a CPU affinity pin.",
            labels,
        )
        .set(l.pinned as i64);
    }
}

/// Renders the site node's ops surface.
fn site_ops(
    site: u16,
    gauges: &MultiGaugeView,
    fwd: &ForwardGauges,
    knobs: &AdmissionKnobs,
    tel: &SiteTelemetry,
    req: &OpsRequest,
) -> OpsResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => OpsResponse::ok(format!(
            "ok true\nrole site\nsite {site}\n{}",
            health_tail(tel.started)
        )),
        ("GET", "/stats" | "/") => {
            let pairs = site_stat_pairs(site, gauges, fwd, knobs);
            let mut body = flowmetrics::render_kv_text(&pairs);
            body.pop();
            OpsResponse::ok(body)
        }
        ("GET", "/stats.json") => {
            let pairs = site_stat_pairs(site, gauges, fwd, knobs);
            OpsResponse::ok(flowmetrics::render_kv_json(&pairs))
        }
        ("GET", "/metrics") => {
            sync_site_registry(site, tel, gauges, fwd);
            OpsResponse::ok(tel.registry.render_prometheus())
        }
        ("GET", "/events") => OpsResponse::ok(tel.events.render_text()),
        ("POST", "/reload") => match parse_site_reload(&req.body, knobs) {
            Ok(applied) => {
                tel.events.push(epoch_ms_now(), "reload", applied.clone());
                OpsResponse::ok(applied)
            }
            Err(e) => OpsResponse::bad_request(e),
        },
        _ => OpsResponse::not_found(),
    }
}

fn epoch_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Applies a `POST /reload` body (`key=value` lines; keys
/// `packet-rate`, `packet-burst`, `record-rate`, `record-burst`,
/// `max-exporters`, `max-open-windows`, `pin-cores`) to the live
/// admission knobs.
/// Unknown keys or unparsable values fail the whole request so a
/// typoed reload never half-applies silently — the same all-or-nothing
/// grammar the relay's reload endpoint speaks.
fn parse_site_reload(body: &str, knobs: &AdmissionKnobs) -> Result<String, String> {
    let mut cfg = knobs.load();
    let mut windows = knobs.max_open_windows();
    let mut pin = knobs.pin_cores();
    let mut applied = Vec::new();
    for raw in body.lines() {
        let lineno = raw.trim();
        if lineno.is_empty() || lineno.starts_with('#') {
            continue;
        }
        let (key, value) = lineno
            .split_once('=')
            .ok_or_else(|| format!("malformed line (want key=value): {lineno:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        let parsed: u64 = value
            .parse()
            .map_err(|_| format!("{key}: not a number: {value:?}"))?;
        match key {
            "packet-rate" => cfg.packet_rate = parsed,
            "packet-burst" => cfg.packet_burst = parsed,
            "record-rate" => cfg.record_rate = parsed,
            "record-burst" => cfg.record_burst = parsed,
            "max-exporters" => cfg.max_exporters = parsed as usize,
            "max-open-windows" => windows = parsed,
            "pin-cores" => pin = parsed != 0,
            other => return Err(format!("unknown key: {other}")),
        }
        applied.push(format!("{key}={parsed}"));
    }
    if applied.is_empty() {
        return Ok("unchanged".to_string());
    }
    knobs.store(cfg);
    knobs.set_max_open_windows(windows);
    knobs.set_pin_cores(pin);
    Ok(format!("applied {}", applied.join(" ")))
}

/// Ships queued frames upstream until the channel closes, then drains
/// what is left. Reconnects with a capped linear backoff; while the
/// channel is open a frame waits indefinitely for the upstream (the
/// bounded channel throttles ingest meanwhile). Once the channel has
/// closed (drain), each remaining frame gets a bounded retry window so
/// a dead upstream cannot wedge shutdown.
fn forward_loop(upstream: &str, rx: crossbeam::channel::Receiver<Vec<u8>>, gauges: &ForwardGauges) {
    let mut conn: Option<TcpStream> = None;
    while let Ok(frame) = rx.recv() {
        if !forward_one(upstream, &mut conn, &frame, gauges, usize::MAX) {
            gauges.abandoned.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Channel closed: the ingest loop flushed its final frames before
    // dropping the sender — recv() above already delivered them, so
    // nothing is left here. (Kept as a loop for clarity if crossbeam
    // ever buffers past disconnect.)
    while let Ok(frame) = rx.try_recv() {
        if !forward_one(upstream, &mut conn, &frame, gauges, 50) {
            gauges.abandoned.fetch_add(1, Ordering::Relaxed);
        }
    }
    if let Some(c) = conn {
        let _ = c.shutdown(std::net::Shutdown::Write);
    }
}

/// Writes one frame, (re)connecting as needed. `max_attempts` bounds
/// the retry loop; returns whether the frame was written.
fn forward_one(
    upstream: &str,
    conn: &mut Option<TcpStream>,
    frame: &[u8],
    gauges: &ForwardGauges,
    max_attempts: usize,
) -> bool {
    let mut attempts = 0usize;
    loop {
        if conn.is_none() {
            attempts += 1;
            gauges.reconnects.fetch_add(1, Ordering::Relaxed);
            match crate::framing::connect(upstream) {
                Ok(s) => *conn = Some(s),
                Err(_) => {
                    if attempts >= max_attempts {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis((50 * attempts).min(1_000) as u64));
                    continue;
                }
            }
        }
        let stream = conn.as_mut().expect("connected above");
        match crate::framing::write_frame(&mut *stream, frame).and_then(|()| stream.flush()) {
            Ok(()) => {
                gauges.forwarded.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            Err(_) => {
                *conn = None;
                if attempts >= max_attempts {
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::export_netflow;
    use crate::Collector;
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
        // A stand-in relay: accept frames, apply to a collector.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = listener.local_addr().unwrap();
        let sink = std::thread::spawn(move || {
            let mut collector = Collector::new(
                Schema::five_feature(),
                flowtree_core::Config::with_budget(4_096),
            );
            let (mut stream, _) = listener.accept().unwrap();
            let (applied, rejected) =
                crate::net::receive_summaries(&mut stream, &mut collector).expect("clean stream");
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

        let report = node.drain();
        assert!(report.ingest.error.is_none());
        assert_eq!(report.ingest.pipeline.records, 20);
        assert_eq!(report.abandoned, 0);
        assert!(
            report.forwarded >= 2,
            "windows flushed: {}",
            report.forwarded
        );

        let (collector, applied, rejected) = sink.join().unwrap();
        assert_eq!(rejected, 0);
        assert_eq!(applied as u64, report.forwarded);
        assert_eq!(collector.merged(None, 0, u64::MAX).total().packets, 40);
    }
}
