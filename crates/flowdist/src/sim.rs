//! End-to-end multi-site simulation.
//!
//! Drives the whole Fig. 1 pipeline on one machine: packets are routed
//! to per-site exporters (flow caches), whose records feed per-site
//! [`SiteDaemon`]s, whose encoded summaries feed the [`Collector`] —
//! either single-threaded (deterministic, for tests and benches) or
//! with one OS thread per site connected by crossbeam channels (the
//! deployment shape the paper envisions).

use crate::collector::Collector;
use crate::daemon::{DaemonConfig, DaemonStats, SiteDaemon, TransferMode};
use crate::DistError;
use crossbeam::channel;
use flowkey::Schema;
use flownet::{FlowCache, FlowCacheConfig, PacketMeta};
use flowtree_core::{fxhash, Config};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of monitoring sites.
    pub sites: u16,
    /// Window span (ms).
    pub window_ms: u64,
    /// Flow schema at every site.
    pub schema: Schema,
    /// Tree configuration at every site.
    pub tree: Config,
    /// Transfer policy.
    pub transfer: TransferMode,
    /// Exporter flow-cache tuning.
    pub cache: FlowCacheConfig,
}

/// What a finished simulation hands back.
#[derive(Debug)]
pub struct SimReport {
    /// The collector with every reconstructed window.
    pub collector: Collector,
    /// Per-site daemon counters.
    pub daemon_stats: Vec<DaemonStats>,
    /// Packets routed per site.
    pub packets_per_site: Vec<u64>,
}

impl SimReport {
    /// Raw export volume across sites (NetFlow bytes).
    pub fn raw_bytes(&self) -> u64 {
        self.daemon_stats.iter().map(|s| s.raw_bytes).sum()
    }

    /// Summary transfer volume across sites.
    pub fn summary_bytes(&self) -> u64 {
        self.daemon_stats.iter().map(|s| s.summary_bytes).sum()
    }

    /// Transfer reduction vs raw flow export (the paper's headline
    /// storage/transfer claim, as a fraction in [0, 1]).
    pub fn transfer_reduction(&self) -> f64 {
        let raw = self.raw_bytes() as f64;
        if raw == 0.0 {
            return 0.0;
        }
        1.0 - self.summary_bytes() as f64 / raw
    }
}

/// Stable packet→site routing (by source address, like ingress routers).
pub fn route(meta: &PacketMeta, sites: u16) -> u16 {
    (fxhash(&meta.src) % sites.max(1) as u64) as u16
}

/// The site half of the pipeline, detached from any collector: every
/// site's emitted [`crate::Summary`] stream in emission order, plus the
/// counters [`run`] reports. This is the seam a hierarchy layer plugs
/// into — the same per-site streams can feed one flat collector, a
/// tier of aggregation relays, or both (the `flowrelay` equivalence
/// tests do exactly that).
#[derive(Debug)]
pub struct SiteRun {
    /// Per site: the summaries it emitted, oldest window first.
    pub summaries: Vec<Vec<crate::Summary>>,
    /// Per-site daemon counters.
    pub daemon_stats: Vec<DaemonStats>,
    /// Packets routed per site.
    pub packets_per_site: Vec<u64>,
}

/// The single-threaded driver both [`run`] and [`run_sites`] share:
/// routes every packet through its site's flow cache and daemon, and
/// hands each emitted summary to `sink` **as it is produced** — the
/// flat pipeline streams into its collector with O(open windows)
/// memory, the hierarchy seam collects per-site streams.
fn drive<I, F>(
    cfg: SimConfig,
    trace: I,
    mut sink: F,
) -> Result<(Vec<DaemonStats>, Vec<u64>), DistError>
where
    I: IntoIterator<Item = PacketMeta>,
    F: FnMut(u16, crate::Summary) -> Result<(), DistError>,
{
    let sites = cfg.sites.max(1);
    let mut caches: Vec<FlowCache> = (0..sites).map(|_| FlowCache::new(cfg.cache)).collect();
    let mut daemons: Vec<SiteDaemon> = (0..sites)
        .map(|site| {
            SiteDaemon::new(DaemonConfig {
                site,
                window_ms: cfg.window_ms,
                schema: cfg.schema,
                tree: cfg.tree,
                transfer: cfg.transfer,
                open_windows: 2,
            })
        })
        .collect();
    let mut packets_per_site = vec![0u64; sites as usize];

    for meta in trace {
        let site = route(&meta, sites) as usize;
        packets_per_site[site] += 1;
        for record in caches[site].observe(&meta) {
            for summary in daemons[site].ingest_record(&record) {
                sink(site as u16, summary)?;
            }
        }
    }
    for site in 0..sites as usize {
        for record in caches[site].drain() {
            for summary in daemons[site].ingest_record(&record) {
                sink(site as u16, summary)?;
            }
        }
        for summary in daemons[site].flush() {
            sink(site as u16, summary)?;
        }
    }
    Ok((
        daemons.iter().map(|d| *d.stats()).collect(),
        packets_per_site,
    ))
}

/// Drives the trace through per-site flow caches and daemons,
/// collecting each site's summary stream instead of applying it
/// anywhere (deterministic; [`run`] is the same driver streaming into
/// a flat collector).
pub fn run_sites<I>(cfg: SimConfig, trace: I) -> SiteRun
where
    I: IntoIterator<Item = PacketMeta>,
{
    let sites = cfg.sites.max(1);
    let mut summaries: Vec<Vec<crate::Summary>> = (0..sites).map(|_| Vec::new()).collect();
    let (daemon_stats, packets_per_site) = drive(cfg, trace, |site, summary| {
        summaries[site as usize].push(summary);
        Ok(())
    })
    .expect("collecting sink never fails");
    SiteRun {
        summaries,
        daemon_stats,
        packets_per_site,
    }
}

/// Runs the pipeline single-threaded (deterministic). Summaries
/// stream into the collector as windows close — peak memory stays at
/// O(open windows), not O(trace).
pub fn run<I>(cfg: SimConfig, trace: I) -> Result<SimReport, DistError>
where
    I: IntoIterator<Item = PacketMeta>,
{
    let mut collector = Collector::new(cfg.schema, cfg.tree);
    let (daemon_stats, packets_per_site) = drive(cfg, trace, |_site, summary| {
        collector.apply_bytes(&summary.encode())
    })?;
    Ok(SimReport {
        daemon_stats,
        collector,
        packets_per_site,
    })
}

/// Runs the pipeline with one thread per site plus a collector thread,
/// wired with bounded crossbeam channels — same results as [`run`],
/// different execution shape.
pub fn run_threaded<I>(cfg: SimConfig, trace: I) -> Result<SimReport, DistError>
where
    I: IntoIterator<Item = PacketMeta>,
{
    let sites = cfg.sites.max(1) as usize;
    let (summary_tx, summary_rx) = channel::bounded::<Vec<u8>>(1024);
    let mut packet_txs = Vec::with_capacity(sites);
    let mut packets_per_site = vec![0u64; sites];

    std::thread::scope(|scope| {
        let mut site_handles = Vec::with_capacity(sites);
        for site in 0..sites {
            let (tx, rx) = channel::bounded::<PacketMeta>(4096);
            packet_txs.push(tx);
            let summary_tx = summary_tx.clone();
            site_handles.push(scope.spawn(move || {
                let mut cache = FlowCache::new(cfg.cache);
                let mut daemon = SiteDaemon::new(DaemonConfig {
                    site: site as u16,
                    window_ms: cfg.window_ms,
                    schema: cfg.schema,
                    tree: cfg.tree,
                    transfer: cfg.transfer,
                    open_windows: 2,
                });
                for meta in rx {
                    for record in cache.observe(&meta) {
                        for summary in daemon.ingest_record(&record) {
                            summary_tx.send(summary.encode()).expect("collector alive");
                        }
                    }
                }
                for record in cache.drain() {
                    for summary in daemon.ingest_record(&record) {
                        summary_tx.send(summary.encode()).expect("collector alive");
                    }
                }
                for summary in daemon.flush() {
                    summary_tx.send(summary.encode()).expect("collector alive");
                }
                *daemon.stats()
            }));
        }
        drop(summary_tx);

        let collector_handle = scope.spawn(move || {
            let mut collector = Collector::new(cfg.schema, cfg.tree);
            let mut first_err = None;
            for frame in summary_rx {
                if let Err(e) = collector.apply_bytes(&frame) {
                    first_err.get_or_insert(e);
                }
            }
            (collector, first_err)
        });

        for meta in trace {
            let site = route(&meta, sites as u16) as usize;
            packets_per_site[site] += 1;
            packet_txs[site].send(meta).expect("site thread alive");
        }
        drop(packet_txs);

        let daemon_stats: Vec<DaemonStats> = site_handles
            .into_iter()
            .map(|h| h.join().expect("site thread panicked"))
            .collect();
        let (collector, first_err) = collector_handle.join().expect("collector panicked");
        match first_err {
            Some(e) => Err(e),
            None => Ok(SimReport {
                collector,
                daemon_stats,
                packets_per_site,
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtrace::{profile, TraceGen};

    fn small_cfg() -> SimConfig {
        SimConfig {
            sites: 4,
            window_ms: 1_000,
            schema: Schema::five_feature(),
            tree: Config::with_budget(2_048),
            transfer: TransferMode::Full,
            cache: FlowCacheConfig {
                idle_timeout_ms: 500,
                active_timeout_ms: 2_000,
                max_entries: 10_000,
            },
        }
    }

    fn small_trace() -> Vec<flownet::PacketMeta> {
        let mut cfg = profile::backbone(11);
        cfg.packets = 30_000;
        cfg.flows = 3_000;
        cfg.mean_pps = 5_000.0; // ≈ 6 s of traffic → several windows
        TraceGen::new(cfg).collect()
    }

    #[test]
    fn single_threaded_pipeline_conserves_packets() {
        let trace = small_trace();
        let report = run(small_cfg(), trace.iter().copied()).unwrap();
        let merged = report.collector.merged(None, 0, u64::MAX);
        assert_eq!(merged.total().packets, 30_000);
        assert_eq!(report.packets_per_site.iter().sum::<u64>(), 30_000);
        assert!(report.collector.stored_windows() >= 4 * 3);
        assert!(report.transfer_reduction() > 0.0);
    }

    #[test]
    fn threaded_pipeline_matches_single_threaded() {
        let trace = small_trace();
        let a = run(small_cfg(), trace.iter().copied()).unwrap();
        let b = run_threaded(small_cfg(), trace.iter().copied()).unwrap();
        assert_eq!(
            a.collector.merged(None, 0, u64::MAX).total(),
            b.collector.merged(None, 0, u64::MAX).total()
        );
        assert_eq!(a.collector.stored_windows(), b.collector.stored_windows());
        assert_eq!(a.raw_bytes(), b.raw_bytes());
    }

    /// A perfectly periodic trace: every window carries the same flows
    /// with the same counts, so consecutive windows are identical.
    fn periodic_trace(windows: u64, flows: u16) -> Vec<flownet::PacketMeta> {
        let mut out = Vec::new();
        for w in 0..windows {
            for f in 0..flows {
                out.push(flownet::PacketMeta {
                    ts_micros: (w * 1_000 + (f as u64 * 3) % 900) * 1_000,
                    src: std::net::IpAddr::V4([10, (f >> 8) as u8, f as u8, 1].into()),
                    dst: std::net::IpAddr::V4([192, 0, 2, (f % 100) as u8].into()),
                    sport: 1024 + f,
                    dport: 443,
                    proto: 6,
                    wire_len: 500,
                });
            }
        }
        out
    }

    #[test]
    fn delta_mode_reduces_transfer_on_stable_traffic() {
        // Identical consecutive windows: deltas are near-empty while
        // fulls repeat the whole tree — the regime the paper's
        // diff-transfer optimization targets.
        let mut cfg = small_cfg();
        cfg.cache = FlowCacheConfig {
            idle_timeout_ms: 50, // flush flows inside their window
            active_timeout_ms: 400,
            max_entries: 100_000,
        };
        let trace = periodic_trace(10, 400);
        let full = run(cfg, trace.iter().copied()).unwrap();
        let mut dcfg = cfg;
        dcfg.transfer = TransferMode::Delta;
        let delta = run(dcfg, trace.iter().copied()).unwrap();
        assert_eq!(
            full.collector.merged(None, 0, u64::MAX).total(),
            delta.collector.merged(None, 0, u64::MAX).total(),
            "delta reconstruction must not lose mass"
        );
        assert!(
            (delta.summary_bytes() as f64) < full.summary_bytes() as f64 * 0.8,
            "delta {} vs full {}",
            delta.summary_bytes(),
            full.summary_bytes()
        );
    }

    #[test]
    fn routing_is_stable_and_balanced() {
        let trace = small_trace();
        let sites = 4u16;
        for meta in trace.iter().take(100) {
            assert_eq!(route(meta, sites), route(meta, sites));
        }
        let report = run(small_cfg(), trace.iter().copied()).unwrap();
        let max = *report.packets_per_site.iter().max().unwrap() as f64;
        let min = *report.packets_per_site.iter().min().unwrap() as f64;
        assert!(min > 0.0, "every site sees traffic");
        assert!(
            max / min < 20.0,
            "gross imbalance: {:?}",
            report.packets_per_site
        );
    }
}
