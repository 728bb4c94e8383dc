//! One benchmark run of one workload: set the fleet up (several
//! times, for a steady `setup_s`), drive it from two threads — the
//! sender ([`crate::sender`]) and the client ([`crate::client`]) —
//! check what it answers, tear it down, and hand the samples to
//! [`crate::reduce`].

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::client::client_thread;
use crate::fleet::{self, Fleet, QueryConn};
use crate::gen::{build_pools, pools_hash};
use crate::reduce::Finish;
use crate::sender::{proc_peak_rss_mb, Sender};
use crate::shared::{Nodes, Shared, Window, ANSWER_DEADLINE};
use crate::stats::median;
use crate::workload::{Load, Workload};
use crate::Error;

/// What the specs ask for as `receive-buffer-bytes`.
const REQUESTED_RCVBUF: u64 = 4_194_304;

pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub flowctl: String,
    pub spec_dir: String,
    /// Fleet set-ups per run; the last one is measured, `setup_s` is
    /// the median of all of them.
    pub setups: usize,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind a timing (0 = a count or a ratio).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, n: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n,
        }
    }
}

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics this binary measures itself (client side,
    /// hops, scraped counters, generator); `bench-layers` adds the
    /// in-process ones.
    pub per_layer: Vec<Metric>,
    /// Records sent + queries issued. (A run with a failed operation
    /// reports an error, not an outcome.)
    pub attempted: u64,
    pub pool_hash: u64,
    pub recv_buffer_bytes: u64,
    /// The run's own `ingest_rps`, also when only per-layer metrics are
    /// printed (`lane.socket_tax_pct` is derived from it).
    pub ingest_rps: f64,
}

struct Pass {
    setup_s: f64,
    pool_hash: u64,
    /// Present for the measured pass only.
    result: Option<Outcome>,
}

fn one_pass(cfg: &RunConfig, setup_only: bool) -> Result<Pass, Error> {
    let wl = cfg.workload;
    let setup_t0 = Instant::now();
    let spec = format!("{}/{}", cfg.spec_dir, wl.spec);
    let mut fleet = Fleet::spawn(&cfg.flowctl, &spec)?;
    let shared = Shared::new();
    let watchdog = std::sync::Arc::clone(&fleet.watchdog);
    std::thread::scope(|scope| {
        let client = scope.spawn(|| client_thread(wl, cfg.seed, &shared, &watchdog));
        let driven = drive(cfg, &mut fleet, &shared, setup_t0, setup_only);
        // The fleet goes first (gracefully after a measured pass), then
        // the client thread is released: it is the watchdog of the
        // drain's pipe reads.
        let gone = match (&driven, setup_only) {
            (Ok(_), false) => fleet.drain(ANSWER_DEADLINE).map(|_| ()),
            _ => {
                drop(fleet);
                Ok(())
            }
        };
        shared.done.store(true, Ordering::SeqCst);
        let report = client.join().expect("the client thread does not panic");
        match (driven, gone) {
            (Ok((mut pass, finish)), Ok(())) => {
                if let Some(finish) = finish {
                    pass.result = Some(finish.reduce(cfg, report)?);
                }
                Ok(pass)
            }
            (Err(e), _) | (Ok(_), Err(e)) => {
                let mut msg = e.to_string();
                for f in &report.failures {
                    msg.push_str(&format!("\n  client: {f}"));
                }
                Err(Error::new(msg))
            }
        }
    })
}

fn drive(
    cfg: &RunConfig,
    fleet: &mut Fleet,
    shared: &Shared,
    setup_t0: Instant,
    setup_only: bool,
) -> Result<(Pass, Option<Finish>), Error> {
    let wl = cfg.workload;
    fleet.await_boot()?;
    fleet.await_healthy()?;
    let fleet = &*fleet;
    let nsites = fleet.sites.len();
    let mut granted = u64::MAX;
    for s in &fleet.sites {
        let body = fleet::http_get(s.stats, "/stats")?;
        granted = granted.min(fleet::stat(&body, "recv_buffer_bytes").unwrap_or(0));
    }
    if granted < REQUESTED_RCVBUF {
        return Err(Error::new(format!(
            "a site was granted a {granted}-byte receive buffer, the specs ask for \
             {REQUESTED_RCVBUF} (raise net.core.rmem_max)"
        )));
    }
    let pools = build_pools(&wl.pool, wl.per_site_pools, cfg.seed, nsites);
    let pool_hash = pools_hash(&pools);
    shared
        .nodes
        .set(Nodes {
            relays: fleet.relays.clone(),
            sites: fleet.sites.clone(),
        })
        .expect("one fleet per Shared");
    let mut sender = Sender::new(cfg, fleet, shared, pools, setup_t0, setup_only)?;
    match wl.load {
        Load::Closed {
            in_flight,
            datagrams_per_window,
        } => sender.run_closed(in_flight, datagrams_per_window)?,
        Load::Paced { per_site_hz } => sender.run_paced(per_site_hz)?,
    }
    let setup_done = sender.setup_done.expect("the loops only stop after set-up");
    let pass = Pass {
        setup_s: setup_done.duration_since(setup_t0).as_secs_f64(),
        pool_hash,
        result: None,
    };
    if setup_only {
        return Ok((pass, None));
    }
    shared.quiesce.store(true, Ordering::SeqCst);
    let (site_stats, relay_stats) = sender.settle()?;
    // The fleet may only be inspected and drained once the client has
    // stopped querying it.
    let limit = Instant::now() + ANSWER_DEADLINE;
    while !shared.client_quiet.load(Ordering::SeqCst) {
        sender.check_abort()?;
        if Instant::now() > limit {
            return Err(Error::new("the client thread did not go quiet"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let measured = sender
        .measured
        .expect("the tail follows a measured interval");
    let windows = shared.windows().clone();

    // Conservation: everything sent into the measured windows must be
    // answerable at the root in one query over their range.
    let (first, last) = (measured.first as usize, measured.last as usize);
    let want: u64 = windows[first..=last].iter().map(Window::packets).sum();
    let root = fleet.relay("root")?;
    let body = QueryConn::connect(root.query)?.query(&format!(
        "pop from={} to={}",
        windows[first].start_ms,
        windows[last].start_ms + wl.window_ms
    ))?;
    let have = fleet::pop_packets(&body).unwrap_or(0);

    for body in &site_stats {
        for key in [
            "decode_errors",
            "quota_packet_drops",
            "late_drops",
            "frames_dropped",
        ] {
            if fleet::stat(body, key) != Some(0) {
                return Err(Error::new(format!("a site reports {key} != 0:\n{body}")));
            }
        }
    }
    let datagrams: u64 = site_stats
        .iter()
        .map(|b| fleet::stat(b, "datagrams").unwrap_or(0))
        .sum();
    if datagrams != sender.sent {
        return Err(Error::new(format!(
            "sites received {datagrams} datagrams, {} were sent",
            sender.sent
        )));
    }
    let root_metrics = fleet::http_get(root.stats, "/metrics")?;
    let relay_metrics = fleet
        .relays
        .iter()
        .filter(|r| r.name != "root")
        .map(|r| fleet::http_get(r.stats, "/metrics"))
        .collect::<Result<Vec<_>, _>>()?;
    let finish = Finish {
        measured,
        windows,
        samples: std::mem::take(&mut sender.scraper.samples),
        relay_stats,
        site_stats,
        root_metrics,
        relay_metrics,
        peak_rss_mb: proc_peak_rss_mb(fleet.pid())?,
        sent: sender.sent,
        sent_records: sender.sent_records,
        send_ns: sender.send_ns,
        credit_stalls: sender.credit_stalls,
        late_ms: std::mem::take(&mut sender.late_ms),
        accounted: (have, want),
        traced_from: shared.traced_from.load(Ordering::SeqCst),
        recv_buffer_bytes: granted,
    };
    Ok((pass, Some(finish)))
}

/// Runs the workload: `cfg.setups - 1` discarded set-ups, then the
/// measured one.
pub fn run(cfg: &RunConfig) -> Result<Outcome, Error> {
    let setups = cfg.setups.max(1);
    let mut setup_s = Vec::new();
    let mut last = None;
    for i in 0..setups {
        let pass = one_pass(cfg, i + 1 < setups)?;
        setup_s.push(pass.setup_s);
        last = Some(pass);
    }
    let pass = last.expect("at least one pass");
    let mut outcome = pass.result.expect("the last pass is measured");
    outcome.pool_hash = pass.pool_hash;
    let setup = median(&setup_s).expect("non-empty");
    outcome
        .end_to_end
        .insert(0, Metric::new("setup_s", setup, "s", setup_s.len()));
    Ok(outcome)
}
