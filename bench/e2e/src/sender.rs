//! The sender thread: one UDP socket, a closed (credit) or open (paced)
//! loop over the seeded pools, and the bookkeeping of what was sent
//! into which event-time window.
//!
//! Its only feedback from the fleet is each site's `GET /stats`
//! (`datagrams` is the closed loop's credit; `records` and `summaries`
//! feed `ingest_rps` and the site hop). Those are plain atomics on the
//! site, so a slow query holding a relay lock can never stall the load.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::fleet::{self, Fleet, RelayNode};
use crate::gen::Pool;
use crate::run::RunConfig;
use crate::shared::{Shared, Window, ANSWER_DEADLINE, OPEN_WINDOWS};
use crate::workload::Workload;
use crate::Error;

/// Windows sent before measuring may start (it also waits for the
/// first of them to be answered by the root).
const WARMUP_WINDOWS: i64 = 3;
/// Bound on the whole set-up (boot → first window answered).
const SETUP_DEADLINE: Duration = Duration::from_secs(30);

/// One reading of a site's counters.
#[derive(Debug, Clone, Copy)]
pub struct SiteSample {
    pub t: Instant,
    pub datagrams: u64,
    pub records: u64,
    pub summaries: u64,
}

struct Pending {
    stream: TcpStream,
    buf: Vec<u8>,
    since: Instant,
}

/// Non-blocking `GET /stats` against every site: a request is started
/// in a few tens of microseconds and its answer collected later, so
/// the paced loop never waits on the sites' 20 ms accept poll.
pub struct Scraper {
    addrs: Vec<SocketAddr>,
    pending: Vec<Option<Pending>>,
    pub samples: Vec<Vec<SiteSample>>,
}

impl Scraper {
    fn new(addrs: Vec<SocketAddr>) -> Scraper {
        Scraper {
            pending: addrs.iter().map(|_| None).collect(),
            samples: addrs.iter().map(|_| Vec::new()).collect(),
            addrs,
        }
    }

    fn busy(&self, site: usize) -> bool {
        self.pending[site].is_some()
    }

    fn start(&mut self, site: usize) -> Result<(), Error> {
        let addr = self.addrs[site];
        let err =
            |e: std::io::Error| Error::new(format!("GET /stats at site {site} ({addr}): {e}"));
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1)).map_err(err)?;
        stream
            .write_all(b"GET /stats HTTP/1.0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .map_err(err)?;
        stream.set_nonblocking(true).map_err(err)?;
        self.pending[site] = Some(Pending {
            stream,
            buf: Vec::with_capacity(2048),
            since: Instant::now(),
        });
        Ok(())
    }

    /// Collects whatever has arrived; a complete answer becomes a
    /// sample stamped with the time it was seen.
    fn poll(&mut self) -> Result<(), Error> {
        let mut chunk = [0u8; 4096];
        for site in 0..self.pending.len() {
            let Some(p) = self.pending[site].as_mut() else {
                continue;
            };
            let complete = loop {
                match p.stream.read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(n) => p.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) => return Err(Error::new(format!("GET /stats at site {site}: {e}"))),
                }
            };
            if complete {
                let text = String::from_utf8_lossy(&p.buf);
                let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
                let field = |key| {
                    fleet::stat(body, key).ok_or_else(|| {
                        Error::new(format!("site {site} /stats lacks {key}:\n{text}"))
                    })
                };
                let sample = SiteSample {
                    t: Instant::now(),
                    datagrams: field("datagrams")?,
                    records: field("records")?,
                    summaries: field("summaries")?,
                };
                self.samples[site].push(sample);
                self.pending[site] = None;
            } else if p.since.elapsed() > ANSWER_DEADLINE {
                return Err(Error::new(format!("site {site} did not answer GET /stats")));
            }
        }
        Ok(())
    }

    fn datagrams(&self, site: usize) -> u64 {
        self.samples[site].last().map_or(0, |s| s.datagrams)
    }
}

/// Expected content of a window still being filled.
struct Filling {
    site_packets: Vec<u64>,
    site_records: Vec<u64>,
    entered: usize,
}

enum Phase {
    Warmup,
    Measure { t0: Instant, first: i64, cpu0: u64 },
    Tail { since: Instant },
}

/// The measured interval as the sender saw it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub t0: Instant,
    pub t1: Instant,
    pub first: i64,
    pub last: i64,
    pub cpu_ticks: u64,
}

enum Step {
    Continue,
    Stop,
}

pub struct Sender<'a> {
    wl: &'static Workload,
    cfg: &'a RunConfig,
    pub fleet: &'a Fleet,
    shared: &'a Shared,
    socket: UdpSocket,
    pools: Vec<Pool>,
    pool_pos: Vec<usize>,
    setup_t0: Instant,
    /// Stop as soon as set-up is complete (a discarded set-up).
    setup_only: bool,
    first_start_ms: u64,
    site_window: Vec<i64>,
    filling: Vec<Filling>,
    phase: Phase,
    pub scraper: Scraper,
    pub setup_done: Option<Instant>,
    pub measured: Option<Measured>,
    pub sent: u64,
    pub sent_records: u64,
    pub send_ns: u64,
    pub credit_stalls: u64,
    /// Open loop, measured interval: how late each tick was sent (ms).
    pub late_ms: Vec<f64>,
}

impl<'a> Sender<'a> {
    pub fn new(
        cfg: &'a RunConfig,
        fleet: &'a Fleet,
        shared: &'a Shared,
        pools: Vec<Pool>,
        setup_t0: Instant,
        setup_only: bool,
    ) -> Result<Sender<'a>, Error> {
        let wl = cfg.workload;
        let nsites = fleet.sites.len();
        Ok(Sender {
            wl,
            cfg,
            fleet,
            shared,
            socket: UdpSocket::bind("127.0.0.1:0")
                .map_err(|e| Error::new(format!("udp bind: {e}")))?,
            pool_pos: vec![0; pools.len()],
            pools,
            setup_t0,
            setup_only,
            // Closed loop: event time starts an hour behind the wall
            // clock and advances by record count, so it never overtakes
            // the relays' wall-clock export scheduler. (The paced loop
            // re-anchors to the wall clock itself.)
            first_start_ms: (epoch_ms_now() - 3_600_000) / wl.window_ms * wl.window_ms,
            site_window: vec![-1; nsites],
            filling: Vec::new(),
            phase: Phase::Warmup,
            scraper: Scraper::new(fleet.sites.iter().map(|s| s.stats).collect()),
            setup_done: None,
            measured: None,
            sent: 0,
            sent_records: 0,
            send_ns: 0,
            credit_stalls: 0,
            late_ms: Vec::new(),
        })
    }

    fn traced(&self) -> bool {
        self.shared.traced_from.load(Ordering::SeqCst) >= 0
    }

    /// Site `site` sends its first datagram of window `k` at `t`. When
    /// it is the last site to get there, window `k - 1` is complete,
    /// window `k - OPEN_WINDOWS` has become closable everywhere, and the
    /// run's phase may advance.
    fn enter(&mut self, site: usize, k: i64, t: Instant) -> Result<Step, Error> {
        if k != self.site_window[site] + 1 {
            return Err(Error::new(format!(
                "generator stalled: site {site} jumped from window {} to {k}",
                self.site_window[site]
            )));
        }
        self.site_window[site] = k;
        let nsites = self.fleet.sites.len();
        while self.filling.len() <= k as usize {
            self.filling.push(Filling {
                site_packets: vec![0; nsites],
                site_records: vec![0; nsites],
                entered: 0,
            });
        }
        self.filling[k as usize].entered += 1;
        if self.filling[k as usize].entered < nsites {
            return Ok(Step::Continue);
        }
        {
            let mut windows = self.shared.windows();
            if k >= 1 {
                let done = &self.filling[k as usize - 1];
                windows.push(Window {
                    start_ms: self.first_start_ms + (k as u64 - 1) * self.wl.window_ms,
                    site_packets: done.site_packets.clone(),
                    site_records: done.site_records.clone(),
                    closable_at: None,
                    root_at: None,
                    relay_at: None,
                });
            }
            if k >= OPEN_WINDOWS {
                windows[(k - OPEN_WINDOWS) as usize].closable_at = Some(t);
            }
        }
        self.advance_phase(k)
    }

    fn advance_phase(&mut self, k: i64) -> Result<Step, Error> {
        let now = Instant::now();
        match self.phase {
            Phase::Warmup => {
                if now.duration_since(self.setup_t0) > SETUP_DEADLINE {
                    return Err(Error::new(format!(
                        "set-up: the root answered no window within {}s\n{}",
                        SETUP_DEADLINE.as_secs(),
                        self.fleet.dump_stats()
                    )));
                }
                if k < WARMUP_WINDOWS || !self.shared.first_answered.load(Ordering::SeqCst) {
                    return Ok(Step::Continue);
                }
                self.setup_done = Some(now);
                if self.setup_only {
                    return Ok(Step::Stop);
                }
                self.phase = Phase::Measure {
                    t0: now,
                    first: k,
                    cpu0: proc_cpu_ticks(self.fleet.pid())?,
                };
            }
            Phase::Measure { t0, first, cpu0 } => {
                let elapsed = now.duration_since(t0).as_secs_f64();
                if self.cfg.trace && elapsed >= self.cfg.seconds / 2.0 && !self.traced() {
                    self.shared.traced_from.store(k, Ordering::SeqCst);
                }
                if elapsed >= self.cfg.seconds {
                    self.measured = Some(Measured {
                        t0,
                        t1: now,
                        first,
                        last: k - 1,
                        cpu_ticks: proc_cpu_ticks(self.fleet.pid())? - cpu0,
                    });
                    self.shared.last_measured.store(k - 1, Ordering::SeqCst);
                    self.phase = Phase::Tail { since: now };
                }
            }
            Phase::Tail { .. } => {}
        }
        Ok(Step::Continue)
    }

    /// True when the tail has done its job (the last measured window
    /// is answered); an error when it cannot.
    fn tail_finished(&self) -> Result<bool, Error> {
        let Phase::Tail { since } = self.phase else {
            return Ok(false);
        };
        if self.shared.last_answered.load(Ordering::SeqCst) {
            return Ok(true);
        }
        if since.elapsed() > ANSWER_DEADLINE + Duration::from_secs(2) {
            return Err(Error::new(format!(
                "the last measured window was never answered by the root\n{}",
                self.fleet.dump_stats()
            )));
        }
        Ok(false)
    }

    pub fn check_abort(&self) -> Result<(), Error> {
        if fleet::interrupted() {
            return Err(Error::new("interrupted"));
        }
        if self.shared.abort.load(Ordering::SeqCst) {
            return Err(Error::new(format!(
                "the client thread gave up\n{}",
                self.fleet.dump_stats()
            )));
        }
        Ok(())
    }

    /// Stamps and sends the next pool datagram of `site` into window
    /// `k` with event time `ts_ms`.
    fn send(&mut self, site: usize, k: i64, ts_ms: u64) -> Result<(), Error> {
        let t0 = Instant::now();
        let pool = if self.pools.len() == 1 { 0 } else { site };
        let pos = self.pool_pos[pool];
        self.pool_pos[pool] = (pos + 1) % self.pools[pool].dgrams.len();
        let d = &mut self.pools[pool].dgrams[pos];
        d.stamp(ts_ms);
        self.socket
            .send_to(&d.bytes, self.fleet.sites[site].listen)
            .map_err(|e| Error::new(format!("udp send to site {site}: {e}")))?;
        let w = &mut self.filling[k as usize];
        w.site_packets[site] += d.packets;
        w.site_records[site] += d.records as u64;
        self.sent += 1;
        self.sent_records += d.records as u64;
        self.send_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }

    /// Closed loop over the single site: never more than `in_flight`
    /// datagrams the site has not counted yet. Whenever the window is
    /// full the sender asks the site where it is and refills as far as
    /// the answer allows, so the site's queue is never empty.
    pub fn run_closed(&mut self, in_flight: u64, per_window: u64) -> Result<(), Error> {
        let wms = self.wl.window_ms;
        let mut acked = 0u64;
        let mut last_progress = Instant::now();
        for i in 0u64.. {
            let k = (i / per_window) as i64;
            if self.sent - acked >= in_flight {
                self.credit_stalls += 1;
                loop {
                    self.check_abort()?;
                    if self.tail_finished()? {
                        return Ok(());
                    }
                    if !self.scraper.busy(0) {
                        self.scraper.start(0)?;
                    }
                    self.scraper.poll()?;
                    let now = self.scraper.datagrams(0);
                    if now > acked {
                        acked = now;
                        last_progress = Instant::now();
                    }
                    if self.sent - acked < in_flight {
                        break;
                    }
                    if last_progress.elapsed() > ANSWER_DEADLINE {
                        return Err(Error::new(format!(
                            "the site stopped consuming datagrams\n{}",
                            self.fleet.dump_stats()
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(250));
                }
            }
            if i % per_window == 0 {
                if let Step::Stop = self.enter(0, k, Instant::now())? {
                    return Ok(());
                }
            }
            let ts = self.first_start_ms + k as u64 * wms + (i % per_window) * wms / per_window;
            self.send(0, k, ts)?;
        }
        unreachable!("the loop only returns")
    }

    /// Open loop: on a fixed tick (`per_site_hz` a second) every site is
    /// sent one datagram, and event time is the wall clock of the moment
    /// the tick was due. Between ticks the thread sleeps: the generator
    /// must leave the host's cores to the fleet, not spin on one.
    pub fn run_paced(&mut self, per_site_hz: u64) -> Result<(), Error> {
        let nsites = self.fleet.sites.len();
        let gap = Duration::from_secs_f64(1.0 / per_site_hz as f64);
        let wms = self.wl.window_ms;
        // Start just after a window boundary, so the first tick falls
        // into the first window with room to spare.
        std::thread::sleep(Duration::from_millis(wms - epoch_ms_now() % wms + 1));
        let start = Instant::now();
        let epoch_ms = epoch_ms_now();
        let first_k = epoch_ms / wms;
        self.first_start_ms = first_k * wms;
        // Site counters are swept a few requests per tick; a sweep
        // restarts every 250 ms, or at once in the traced half so the
        // `summaries` ticks resolve the site hop.
        let per_tick = nsites.div_ceil(4);
        let mut sweep_next = 0usize;
        let mut sweep_at = start;
        for tick in 0u64.. {
            let due = start + gap.mul_f64(tick as f64);
            self.check_abort()?;
            if self.tail_finished()? {
                return Ok(());
            }
            self.scraper.poll()?;
            if sweep_next == nsites && Instant::now() >= sweep_at {
                sweep_next = 0;
            }
            for _ in 0..per_tick {
                if sweep_next == nsites || self.scraper.busy(sweep_next) {
                    break;
                }
                self.scraper.start(sweep_next)?;
                sweep_next += 1;
                if sweep_next == nsites {
                    let pause = if self.traced() { 0 } else { 250 };
                    sweep_at = Instant::now() + Duration::from_millis(pause);
                }
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let late = Instant::now().saturating_duration_since(due);
            let ts = epoch_ms + due.duration_since(start).as_millis() as u64;
            let k = (ts / wms - first_k) as i64;
            for site in 0..nsites {
                if k > self.site_window[site] {
                    if let Step::Stop = self.enter(site, k, due)? {
                        return Ok(());
                    }
                }
                self.send(site, k, ts)?;
            }
            if matches!(self.phase, Phase::Measure { .. }) {
                self.late_ms.push(late.as_secs_f64() * 1e3);
            }
        }
        unreachable!("the loop only returns")
    }

    /// After the last send: wait until every site has counted every
    /// datagram and every shipping relay has gone quiet, so the byte
    /// and window counters are final. Returns the final `/stats` of
    /// the sites and of the relays that have a parent.
    pub fn settle(&mut self) -> Result<(Vec<String>, Vec<String>), Error> {
        let limit = Instant::now() + ANSWER_DEADLINE;
        let site_stats = loop {
            let bodies = self
                .fleet
                .sites
                .iter()
                .map(|s| fleet::http_get(s.stats, "/stats"))
                .collect::<Result<Vec<_>, _>>()?;
            let got: u64 = bodies
                .iter()
                .map(|b| fleet::stat(b, "datagrams").unwrap_or(0))
                .sum();
            if got >= self.sent {
                break bodies;
            }
            if Instant::now() > limit {
                return Err(Error::new(format!(
                    "sites counted {got} of {} datagrams sent: loss on a closed or paced loop\n{}",
                    self.sent,
                    self.fleet.dump_stats()
                )));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let t = Instant::now();
        for (site, body) in site_stats.iter().enumerate() {
            let field = |key| fleet::stat(body, key).unwrap_or(0);
            self.scraper.samples[site].push(SiteSample {
                t,
                datagrams: field("datagrams"),
                records: field("records"),
                summaries: field("summaries"),
            });
        }
        let shippers: Vec<&RelayNode> = self
            .fleet
            .relays
            .iter()
            .filter(|r| r.name != "root")
            .collect();
        let mut prev: Option<Vec<u64>> = None;
        loop {
            let bodies = shippers
                .iter()
                .map(|r| fleet::http_get(r.stats, "/stats"))
                .collect::<Result<Vec<String>, Error>>()?;
            let sent: Vec<u64> = bodies
                .iter()
                .map(|b| fleet::stat(b, "ship_sent_bytes").unwrap_or(0))
                .collect();
            let pending: u64 = bodies
                .iter()
                .map(|b| fleet::stat(b, "export_pending").unwrap_or(0))
                .sum();
            if pending == 0 && prev.as_ref() == Some(&sent) {
                return Ok((site_stats, bodies));
            }
            if Instant::now() > limit {
                return Err(Error::new(format!(
                    "relays never went quiet\n{}",
                    self.fleet.dump_stats()
                )));
            }
            prev = Some(sent);
            std::thread::sleep(Duration::from_millis(250));
        }
    }
}

fn epoch_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// `utime + stime` of a process in clock ticks (`/proc/<pid>/stat`
/// fields 14 and 15).
fn proc_cpu_ticks(pid: u32) -> Result<u64, Error> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| Error::new(format!("/proc/{pid}/stat: {e}")))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    Ok(utime + stime)
}

pub fn proc_peak_rss_mb(pid: u32) -> Result<f64, Error> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| Error::new(format!("/proc/{pid}/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Error::new("no VmHWM in /proc status"))
}
