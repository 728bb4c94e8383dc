//! The client thread: freshness probes, the fixed query round,
//! traced-half scrapes, and the pipe watchdog — over at most two
//! persistent TCP connections (the root and one tier-1 relay).

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::fleet::{self, QueryConn, Watchdog};
use crate::gen::{mix, SplitMix64};
use crate::shared::{Shared, Window, ANSWER_DEADLINE};
use crate::workload::Workload;
use crate::Error;

/// Freshness probe cadence while nothing else is due.
const PROBE_EVERY: Duration = Duration::from_millis(4);
/// Length of the fixed old range `bysite` reads.
const BYSITE_WINDOWS: u64 = 10;

/// The round, in order: four root queries over the whole run so far,
/// then at the tier-1 relay an `hhh` over the same scope and a `bysite`
/// over a fixed old range.
pub const ROUND: [&str; 6] = ["pop", "top", "hhh", "drill", "region_hhh", "bysite"];

#[derive(Default)]
pub struct ClientReport {
    /// Client-side (completion time, latency in ms) samples per query
    /// of [`ROUND`].
    pub query_ms: [Vec<(Instant, f64)>; 6],
    /// (completion time, summed latency) of every finished round.
    pub round_ms: Vec<(Instant, f64)>,
    pub queries: u64,
    /// Queries that errored, timed out or answered a wrong mass; the
    /// first few messages are kept for the error report.
    pub queries_failed: u64,
    pub failures: Vec<String>,
    pub unanswered_records: u64,
    pub scrapes: Vec<Scrape>,
}

/// One `/stats` or `/metrics` body, tagged with where it came from.
pub struct Scrape {
    pub node: String,
    pub path: &'static str,
    pub body: String,
}

struct Client<'a> {
    wl: &'static Workload,
    shared: &'a Shared,
    root: QueryConn,
    region: QueryConn,
    report: ClientReport,
    next_probe: Instant,
    next_query: Instant,
    /// Position inside the current round, and its latencies so far.
    round_pos: usize,
    round_acc: f64,
    /// GETs still to do in the current sweep.
    scrape_queue: Vec<(String, SocketAddr, &'static str)>,
    next_sweep: Instant,
    rng: SplitMix64,
}

impl Client<'_> {
    fn fail(&mut self, what: String) {
        self.report.queries_failed += 1;
        if self.report.failures.len() < 16 {
            self.report.failures.push(what);
        }
    }

    /// Asks the root (or the tier-1 relay) for the oldest closable
    /// window it has not answered yet; a window counts as answered by
    /// the first reply carrying exactly the mass that was sent into it.
    fn probe(&mut self, at_relay: bool) -> bool {
        let (lo, hi) = self.wl.region_sites;
        let target = {
            let windows = self.shared.windows();
            windows.iter().enumerate().find_map(|(i, w)| {
                let closable = w.closable_at?;
                let pending = if at_relay { w.relay_at } else { w.root_at }.is_none();
                let want = if at_relay {
                    w.site_packets[lo as usize..hi as usize].iter().sum()
                } else {
                    w.packets()
                };
                pending.then(|| (i, w.start_ms, want, closable, w.records()))
            })
        };
        let Some((idx, start, want, closable, records)) = target else {
            return false;
        };
        let text = format!("pop from={start} to={}", start + self.wl.window_ms);
        let conn = if at_relay {
            &mut self.region
        } else {
            &mut self.root
        };
        self.report.queries += 1;
        let got = conn.query(&text).map(|body| fleet::pop_packets(&body));
        let now = Instant::now();
        match got {
            Ok(Some(have)) if have == want => {
                if at_relay {
                    self.shared.windows()[idx].relay_at = Some(now);
                } else {
                    self.shared.windows()[idx].root_at = Some(now);
                    if idx == 0 {
                        self.shared.first_answered.store(true, Ordering::SeqCst);
                    }
                    if idx as i64 == self.shared.last_measured.load(Ordering::SeqCst) {
                        self.shared.last_answered.store(true, Ordering::SeqCst);
                    }
                }
                return true;
            }
            Ok(Some(have)) if have < want => {
                if !at_relay && now.duration_since(closable) > ANSWER_DEADLINE {
                    self.report.unanswered_records += records;
                    self.fail(format!(
                        "window {start}ms: root answers {have} of {want} packets {}s after it was closable",
                        ANSWER_DEADLINE.as_secs()
                    ));
                    self.shared.abort.store(true, Ordering::SeqCst);
                }
            }
            Ok(Some(have)) => {
                self.fail(format!(
                    "`{text}` answered {have} packets, only {want} were sent"
                ));
                self.shared.abort.store(true, Ordering::SeqCst);
            }
            Ok(None) => self.fail(format!("`{text}` answered no popularity line")),
            Err(e) => self.fail(e.to_string()),
        }
        false
    }

    /// The next query of the round. The four root queries and the
    /// regional `hhh` read one fixed scope, the run's first
    /// `scope_windows` windows (see [`Workload::scope_windows`]);
    /// `bysite` reads a short fixed old range whose cached view can
    /// always hit.
    fn round_step(&mut self) {
        let scope = self.wl.scope_windows as usize;
        let (first, at_least, at_most) = {
            let windows = self.shared.windows();
            let Some(w0) = windows.first() else {
                return;
            };
            let in_scope = &windows[..windows.len().min(scope)];
            let answered: u64 = in_scope
                .iter()
                .take_while(|w| w.root_at.is_some())
                .map(Window::packets)
                .sum();
            (
                w0.start_ms,
                answered,
                in_scope.iter().map(Window::packets).sum::<u64>(),
            )
        };
        let wms = self.wl.window_ms;
        let whole = format!("from={first} to={}", first + self.wl.scope_windows * wms);
        let old = format!(
            "from={first} to={}",
            first + BYSITE_WINDOWS.min(self.wl.scope_windows) * wms
        );
        let (text, at_region) = match self.round_pos {
            0 => (format!("pop {whole}"), false),
            1 => (format!("top 10 dst under dst=10.0.0.0/8 {whole}"), false),
            2 => (format!("hhh 0.01 by packets {whole}"), false),
            3 => (format!("drill src under src=10.0.0.0/8 {whole}"), false),
            4 => (format!("hhh 0.01 {whole}"), true),
            _ => (format!("bysite {old}"), true),
        };
        let conn = if at_region {
            &mut self.region
        } else {
            &mut self.root
        };
        let t0 = Instant::now();
        let answer = conn.query(&text);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.report.queries += 1;
        match answer {
            Ok(body) if !body.starts_with("route: ") => {
                self.fail(format!("`{text}` answer lacks a route header"))
            }
            // Windows still in flight make the exact mass unknowable,
            // but it is bracketed: everything the root has answered
            // window by window, and nothing that was not sent.
            Ok(body)
                if self.round_pos == 0
                    && !fleet::pop_packets(&body)
                        .is_some_and(|p| (at_least..=at_most).contains(&p)) =>
            {
                let have = fleet::pop_packets(&body);
                self.fail(format!(
                    "`{text}` answered {have:?} packets, outside [{at_least}, {at_most}]"
                ))
            }
            Ok(_) => {}
            Err(e) => self.fail(e.to_string()),
        }
        let now = Instant::now();
        self.report.query_ms[self.round_pos].push((now, ms));
        self.round_acc += ms;
        self.round_pos += 1;
        if self.round_pos == ROUND.len() {
            self.report.round_ms.push((now, self.round_acc));
            self.round_pos = 0;
            self.round_acc = 0.0;
        }
        // Jittered ±50 %: a fixed cadence beats against the window
        // period, and which windows then close behind a slow query
        // is set once per run by the phase — run-to-run noise that
        // no amount of samples averages out.
        let pause = self.wl.query_every_ms as f64 * (0.5 + self.rng.next_f64());
        self.next_query = now + Duration::from_secs_f64(pause / 1e3);
    }

    fn scrape_step(&mut self) {
        if let Some((node, addr, path)) = self.scrape_queue.pop() {
            match fleet::http_get(addr, path) {
                Ok(body) => self.report.scrapes.push(Scrape { node, path, body }),
                Err(e) => self.fail(e.to_string()),
            }
        }
    }

    /// Queues one sweep: every relay's `/stats` and `/metrics`, and —
    /// at the edges of the traced half — every site's `/stats`.
    fn queue_sweep(&mut self, with_sites: bool) {
        let nodes = self
            .shared
            .nodes
            .get()
            .expect("the client starts after boot");
        for r in &nodes.relays {
            self.scrape_queue
                .push((format!("relay {}", r.name), r.stats, "/metrics"));
            self.scrape_queue
                .push((format!("relay {}", r.name), r.stats, "/stats"));
        }
        if with_sites {
            for s in &nodes.sites {
                self.scrape_queue
                    .push((format!("site {}", s.id), s.stats, "/stats"));
            }
        }
    }
}

fn connect(shared: &Shared, wl: &Workload) -> Result<(QueryConn, QueryConn), Error> {
    let nodes = shared.nodes.get().expect("the client starts after boot");
    let conn = |name: &str| {
        let node = nodes.relays.iter().find(|r| r.name == name);
        node.ok_or_else(|| Error::new(format!("no relay {name} in the fleet")))
            .and_then(|n| QueryConn::connect(n.query))
    };
    Ok((conn("root")?, conn(wl.region_relay)?))
}

/// The client thread's body. Until the fleet is up, and again once the
/// sender has stopped, it is only the watchdog of the sender's pipe
/// reads; in between it probes, queries and (traced half) scrapes.
pub fn client_thread(
    wl: &'static Workload,
    seed: u64,
    shared: &Shared,
    watchdog: &Watchdog,
) -> ClientReport {
    let watch_until_done = || {
        while !shared.done.load(Ordering::SeqCst) {
            watchdog.check();
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    while shared.nodes.get().is_none() && !shared.done.load(Ordering::SeqCst) {
        watchdog.check();
        std::thread::sleep(Duration::from_millis(1));
    }
    if shared.nodes.get().is_none() {
        return ClientReport::default();
    }
    let (root, region) = match connect(shared, wl) {
        Ok(conns) => conns,
        Err(e) => {
            shared.abort.store(true, Ordering::SeqCst);
            shared.client_quiet.store(true, Ordering::SeqCst);
            watch_until_done();
            return ClientReport {
                queries_failed: 1,
                failures: vec![e.to_string()],
                ..ClientReport::default()
            };
        }
    };
    let now = Instant::now();
    let mut c = Client {
        wl,
        shared,
        root,
        region,
        report: ClientReport::default(),
        next_probe: now,
        next_query: now,
        round_pos: 0,
        round_acc: 0.0,
        scrape_queue: Vec::new(),
        next_sweep: now,
        rng: SplitMix64(mix(seed ^ 0x636C_6965_6E74)), // "client"
    };
    let mut traced = false;
    while !shared.done.load(Ordering::SeqCst) {
        watchdog.check();
        if shared.abort.load(Ordering::SeqCst) || fleet::interrupted() {
            shared.abort.store(true, Ordering::SeqCst);
            break;
        }
        if shared.quiesce.load(Ordering::SeqCst) {
            // The sender has stopped: no more queries. A traced run
            // closes with one full sweep (sites included), so counter
            // deltas over the traced half have their right edge.
            if traced {
                c.scrape_queue.clear();
                c.queue_sweep(true);
                while !c.scrape_queue.is_empty() {
                    watchdog.check();
                    c.scrape_step();
                }
            }
            break;
        }
        let now = Instant::now();
        let answering = shared.first_answered.load(Ordering::SeqCst);
        if !traced && shared.traced_from.load(Ordering::SeqCst) >= 0 {
            traced = true;
            c.queue_sweep(true);
            c.next_sweep = now + Duration::from_secs(1);
        }
        let mut worked = false;
        if now >= c.next_probe {
            // Chase a backlog of answerable windows without pausing.
            let hit = c.probe(false);
            let hit_relay = traced && c.probe(true);
            c.next_probe = if hit || hit_relay {
                now
            } else {
                now + PROBE_EVERY
            };
            worked = true;
        }
        if answering && now >= c.next_query {
            c.round_step();
            // Back-to-back queries must not starve the freshness probe:
            // it runs between consecutive queries.
            c.next_probe = c.next_probe.min(Instant::now());
            worked = true;
        }
        if traced {
            if now >= c.next_sweep && c.scrape_queue.is_empty() {
                c.queue_sweep(false);
                c.next_sweep = now + Duration::from_secs(1);
            }
            if !c.scrape_queue.is_empty() {
                c.scrape_step();
                worked = true;
            }
        }
        if !worked {
            let mut until = c.next_probe;
            if answering {
                until = until.min(c.next_query);
            }
            std::thread::sleep(
                until
                    .saturating_duration_since(Instant::now())
                    .min(PROBE_EVERY),
            );
        }
    }
    shared.client_quiet.store(true, Ordering::SeqCst);
    watch_until_done();
    c.report
}
