//! Samples → the named metrics. Definitions live in `bench/README.md`;
//! this file is their only implementation.

use std::time::{Duration, Instant};

use crate::client::{ClientReport, ROUND};
use crate::fleet;
use crate::run::{Metric, Outcome, RunConfig};
use crate::sender::{Measured, SiteSample};
use crate::shared::Window;
use crate::stats::{max, median, quantile};
use crate::Error;

/// Interval of the `ingest_rps` rate samples.
const RATE_INTERVAL: Duration = Duration::from_millis(500);
/// Linux reports process times in units of 1/100 s (USER_HZ).
const USER_HZ: f64 = 100.0;

/// Everything the sender knows once the measured run has settled.
pub struct Finish {
    pub measured: Measured,
    pub windows: Vec<Window>,
    /// Per site, in time order.
    pub samples: Vec<Vec<SiteSample>>,
    /// Final `/stats` of the relays that have a parent.
    pub relay_stats: Vec<String>,
    pub site_stats: Vec<String>,
    pub root_metrics: String,
    pub relay_metrics: Vec<String>,
    pub peak_rss_mb: f64,
    pub sent: u64,
    pub sent_records: u64,
    pub send_ns: u64,
    pub credit_stalls: u64,
    pub late_ms: Vec<f64>,
    /// (packets the root answers, packets sent) over the measured range.
    pub accounted: (u64, u64),
    pub traced_from: i64,
    pub recv_buffer_bytes: u64,
}

/// One site's cumulative `records` at `t`, linearly interpolated
/// between the two samples around it.
fn site_records_at(samples: &[SiteSample], t: Instant) -> f64 {
    let i = samples.partition_point(|s| s.t < t);
    match (i.checked_sub(1).map(|j| &samples[j]), samples.get(i)) {
        (Some(a), Some(b)) => {
            let span = b.t.duration_since(a.t).as_secs_f64();
            let frac = if span > 0.0 {
                t.duration_since(a.t).as_secs_f64() / span
            } else {
                0.0
            };
            a.records as f64 + (b.records - a.records) as f64 * frac
        }
        (Some(a), None) | (None, Some(a)) => a.records as f64,
        (None, None) => 0.0,
    }
}

fn records_at(samples: &[Vec<SiteSample>], t: Instant) -> f64 {
    samples.iter().map(|s| site_records_at(s, t)).sum()
}

/// Fleet-wide records/s over consecutive [`RATE_INTERVAL`]s of `[t0, t1]`.
fn interval_rates(samples: &[Vec<SiteSample>], t0: Instant, t1: Instant) -> Vec<f64> {
    let mut out = Vec::new();
    let mut a = t0;
    while a + RATE_INTERVAL <= t1 {
        let b = a + RATE_INTERVAL;
        out.push((records_at(samples, b) - records_at(samples, a)) / RATE_INTERVAL.as_secs_f64());
        a = b;
    }
    out
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn freshness(windows: &[Window]) -> Vec<f64> {
    windows
        .iter()
        .filter_map(|w| Some(ms_between(w.closable_at?, w.root_at?)))
        .collect()
}

fn timing(name: &str, samples: &[f64], pick: fn(&[f64]) -> Option<f64>) -> Metric {
    Metric::new(name, pick(samples).unwrap_or(0.0), "ms", samples.len())
}

fn p90(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.9)
}

impl Finish {
    pub fn reduce(self, cfg: &RunConfig, report: ClientReport) -> Result<Outcome, Error> {
        let me = self.measured;
        let (first, last) = (me.first as usize, me.last as usize);
        let measured = &self.windows[first..=last];

        let (have, want) = self.accounted;
        let failed = report.queries_failed + report.unanswered_records;
        if failed > 0 || have != want {
            let mut msg = format!(
                "{failed} failed operations; the root answers {have} of {want} packets over the \
                 measured range"
            );
            for f in &report.failures {
                msg.push_str(&format!("\n  client: {f}"));
            }
            return Err(Error::new(msg));
        }
        // How late the paced generator ran is reported (`gen.late_p99_ms`),
        // not refused: sends are timed from when they were due, so a late
        // tick lengthens the freshness it belongs to and nothing else, and
        // a shared host's hiccup must not void a correct run.
        let late_p99 = quantile(&self.late_ms, 0.99).unwrap_or(0.0);

        // --- end to end -----------------------------------------------------
        let rates = interval_rates(&self.samples, me.t0, me.t1);
        let ingest_rps =
            median(&rates).ok_or_else(|| Error::new("the measured interval is too short"))?;
        let ingested = records_at(&self.samples, me.t1) - records_at(&self.samples, me.t0);
        let cpu_us = me.cpu_ticks as f64 / USER_HZ * 1e6 / ingested.max(1.0);
        let fresh = freshness(measured);
        let in_measure = |samples: &[(Instant, f64)]| -> Vec<f64> {
            samples
                .iter()
                .filter(|(t, _)| *t >= me.t0 && *t <= me.t1)
                .map(|(_, ms)| *ms)
                .collect()
        };
        let rounds = in_measure(&report.round_ms);
        let by_kind: Vec<Vec<f64>> = report.query_ms.iter().map(|s| in_measure(s)).collect();
        if rounds.is_empty() || by_kind.iter().any(Vec::is_empty) {
            return Err(Error::new(
                "no query round completed inside the measured interval",
            ));
        }
        // One pass over the list at each query's typical latency: the
        // sum of the per-query medians. (The median of per-round sums
        // is several times noisier on a dozen rounds: one query caught
        // behind a 64k-node frame apply moves its whole round.)
        let round_p50: f64 = by_kind.iter().filter_map(|s| median(s)).sum();
        // What the shipped bytes stand for: every window a site has
        // emitted a summary for (they are emitted in order).
        let shipped_records: u64 = self
            .samples
            .iter()
            .enumerate()
            .map(|(site, s)| -> u64 {
                let emitted = s.last().map_or(0, |s| s.summaries) as usize;
                self.windows
                    .iter()
                    .take(emitted)
                    .map(|w| w.site_records[site])
                    .sum()
            })
            .sum();
        let wan_bytes: u64 = self
            .relay_stats
            .iter()
            .map(|b| fleet::stat(b, "ship_sent_bytes").unwrap_or(0))
            .sum();
        let end_to_end = vec![
            Metric::new("ingest_rps", ingest_rps, "records/s", rates.len()),
            Metric::new("cpu_us_per_record", cpu_us, "us", 0),
            timing("freshness_p50_ms", &fresh, median),
            Metric::new("query_round_p50_ms", round_p50, "ms", rounds.len()),
            Metric::new(
                "wan_bytes_per_krec",
                wan_bytes as f64 / (shipped_records.max(1) as f64 / 1e3),
                "bytes",
                0,
            ),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB", 0),
            Metric::new("accounted_pct", 100.0 * have as f64 / want as f64, "%", 0),
        ];

        let per_layer = if cfg.trace {
            self.per_layer(cfg, &report, &by_kind, &fresh, &rounds, late_p99)
        } else {
            Vec::new()
        };
        Ok(Outcome {
            end_to_end,
            per_layer,
            attempted: self.sent_records + report.queries,
            pool_hash: 0,
            recv_buffer_bytes: self.recv_buffer_bytes,
            ingest_rps,
        })
    }

    /// The per-layer metrics measurable from outside the process.
    fn per_layer(
        &self,
        cfg: &RunConfig,
        report: &ClientReport,
        by_kind: &[Vec<f64>],
        fresh: &[f64],
        rounds: &[f64],
        late_p99: f64,
    ) -> Vec<Metric> {
        let wl = cfg.workload;
        let me = self.measured;
        let (first, last) = (me.first as usize, me.last as usize);
        let tf = (self.traced_from.max(me.first) as usize).min(last);
        let (plain, traced) = (&self.windows[first..tf], &self.windows[tf..=last]);
        let split = traced.first().and_then(|w| w.closable_at).unwrap_or(me.t1);
        let mut out = Vec::new();

        // Client side: what one pass over the query list is made of.
        for (kind, samples) in ROUND.iter().zip(by_kind) {
            out.push(timing(&format!("query.{kind}_p50_ms"), samples, median));
        }
        out.push(timing("query.round_p90_ms", rounds, p90));
        out.push(timing("root.freshness_p90_ms", fresh, p90));
        out.push(timing("root.freshness_max_ms", fresh, max));

        // Hops of the traced half: closable → the region's sites have
        // all emitted the window's summary → the tier-1 relay answers
        // it → the root answers it.
        let region = wl.region_sites.0 as usize..wl.region_sites.1 as usize;
        let hop_site: Vec<f64> = traced
            .iter()
            .enumerate()
            .filter_map(|(off, w)| {
                let k = (tf + off) as u64;
                let closable = w.closable_at?;
                let seen = region.clone().map(|site| {
                    self.samples[site]
                        .iter()
                        .find(|s| s.t >= closable && s.summaries > k)
                        .map(|s| s.t)
                });
                let slowest = seen.collect::<Option<Vec<Instant>>>()?.into_iter().max()?;
                Some(ms_between(closable, slowest))
            })
            .collect();
        let hop_relay: Vec<f64> = traced
            .iter()
            .filter_map(|w| Some(ms_between(w.closable_at?, w.relay_at?)))
            .collect();
        out.push(timing("hop.site_ms", &hop_site, median));
        out.push(timing("hop.relay_ms", &hop_relay, median));
        out.push(timing("hop.root_ms", &freshness(traced), median));

        // Scraped counters. Two full site sweeps bracket the traced half.
        let site_sweeps: Vec<&str> = report
            .scrapes
            .iter()
            .filter(|s| s.node.starts_with("site ") && s.path == "/stats")
            .map(|s| s.body.as_str())
            .collect();
        let (open, close) = site_sweeps.split_at(site_sweeps.len().min(self.samples.len()));
        let sum = |bodies: &[&str], key: &str| -> u64 {
            bodies
                .iter()
                .map(|b| fleet::stat(b, key).unwrap_or(0))
                .sum()
        };
        let delta = |key: &str| sum(close, key).saturating_sub(sum(open, key));
        out.push(Metric::new(
            "lane.recv_batch_mean",
            delta("datagrams") as f64 / delta("lane0_recv_batches").max(1) as f64,
            "count",
            0,
        ));
        let final_sites = |key: &str| -> f64 {
            self.site_stats
                .iter()
                .map(|b| fleet::stat(b, key).unwrap_or(0))
                .sum::<u64>() as f64
        };
        let final_relays = |key: &str| -> f64 {
            self.relay_stats
                .iter()
                .map(|b| fleet::stat(b, key).unwrap_or(0))
                .sum::<u64>() as f64
        };
        for (name, value) in [
            ("lane.backpressure_waits", final_sites("backpressure_waits")),
            (
                "lane.merger_stale_windows",
                final_sites("merger_stale_windows"),
            ),
            ("pipeline.window_sheds", final_sites("window_sheds")),
            ("spill.shed_frames", final_relays("spill_sheds")),
            ("relay.delta_fallbacks", final_relays("delta_fallbacks")),
            ("relay.rejected", final_relays("rejected")),
            ("relay.replayed", final_relays("replayed")),
        ] {
            out.push(Metric::new(name, value, "count", 0));
        }
        let swept = |key: &str| -> Vec<f64> {
            report
                .scrapes
                .iter()
                .filter(|s| {
                    s.path == "/stats" && s.node.starts_with("relay ") && s.node != "relay root"
                })
                .filter_map(|s| fleet::stat(&s.body, key))
                .map(|v| v as f64)
                .collect()
        };
        out.push(timing(
            "export.watermark_lag_ms",
            &swept("export_watermark_lag_ms"),
            median,
        ));
        let pending = swept("export_pending");
        out.push(Metric::new(
            "export.pending_frames_max",
            max(&pending).unwrap_or(0.0),
            "count",
            pending.len(),
        ));
        let hist_mean_ms = |name: &str, bodies: &[String], series: &str| {
            let total = |suffix: &str| -> f64 {
                bodies
                    .iter()
                    .map(|b| fleet::metric_sum(b, &format!("{series}_{suffix}")))
                    .sum()
            };
            let (sum, count) = (total("sum"), total("count"));
            let mean = if count > 0.0 { sum / count * 1e3 } else { 0.0 };
            Metric::new(name, mean, "ms", count as usize)
        };
        out.push(hist_mean_ms(
            "export.rtt_mean_ms",
            &self.relay_metrics,
            "flowtree_export_rtt_seconds",
        ));
        out.push(hist_mean_ms(
            "query.server_mean_ms",
            std::slice::from_ref(&self.root_metrics),
            "flowtree_query_seconds",
        ));

        // Harness health.
        out.push(Metric::new(
            "gen.late_p99_ms",
            late_p99,
            "ms",
            self.late_ms.len(),
        ));
        out.push(Metric::new(
            "gen.send_ns_per_dgram",
            self.send_ns as f64 / self.sent.max(1) as f64,
            "ns",
            self.sent as usize,
        ));
        out.push(Metric::new(
            "gen.credit_stalls",
            self.credit_stalls as f64,
            "count",
            0,
        ));
        // Tracing overhead: the same fleet, its plain half against the
        // half with scrapes, relay probes and back-to-back site sweeps.
        // One number: the worse of "ingest got slower" and "freshness
        // got longer", in percent of the plain half.
        let rate = |a, b| median(&interval_rates(&self.samples, a, b)).unwrap_or(0.0);
        let worse = |plain: f64, traced: f64| {
            if plain > 0.0 {
                100.0 * (traced - plain) / plain
            } else {
                0.0
            }
        };
        let slower = -worse(rate(me.t0, split), rate(split, me.t1));
        let staler = worse(
            median(&freshness(plain)).unwrap_or(0.0),
            median(&freshness(traced)).unwrap_or(0.0),
        );
        out.push(Metric::new(
            "trace.overhead_pct",
            slower.max(staler),
            "%",
            0,
        ));
        out
    }
}
