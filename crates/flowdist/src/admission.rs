//! Per-exporter admission control for the ingest edge.
//!
//! A public-facing collector cannot let one misbehaving router starve
//! the rest: [`AdmissionControl`] keeps an integer token bucket per
//! exporter source address — one bucket for packets (spent before the
//! payload is even decoded) and one for records (spent after decode,
//! all-or-nothing per packet so accounting stays exact) — plus a
//! bounded exporter table that evicts the longest-idle source when a
//! spoofed-address flood tries to grow it.
//!
//! Everything is integer arithmetic in milli-tokens over a
//! caller-injected clock, so hostile bursts replay deterministically
//! in tests. Live reload reaches the ingest thread through
//! [`AdmissionKnobs`] — a shared block of atomics the ops endpoint
//! writes and the loop reads per datagram.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-exporter quota configuration. A rate of 0 disables that quota;
/// `max_exporters` of 0 leaves the table unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Sustained packets/second allowed per exporter (0 = unlimited).
    pub packet_rate: u64,
    /// Packet bucket depth; 0 means twice the rate.
    pub packet_burst: u64,
    /// Sustained records/second allowed per exporter (0 = unlimited).
    pub record_rate: u64,
    /// Record bucket depth; 0 means twice the rate.
    pub record_burst: u64,
    /// Max tracked exporter addresses (0 = unbounded); the
    /// longest-idle exporter is evicted to admit a new one.
    pub max_exporters: usize,
}

impl Default for AdmissionConfig {
    /// Quotas off, table bounded — state stays finite even when no
    /// rate limiting was asked for.
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            packet_rate: 0,
            packet_burst: 0,
            record_rate: 0,
            record_burst: 0,
            max_exporters: 4_096,
        }
    }
}

/// Live-reloadable admission knobs: the ops endpoint stores, the
/// ingest loop loads per datagram. Also carries the pipeline's
/// open-window budget so one reload grammar covers the whole edge.
#[derive(Debug, Default)]
pub struct AdmissionKnobs {
    packet_rate: AtomicU64,
    packet_burst: AtomicU64,
    record_rate: AtomicU64,
    record_burst: AtomicU64,
    max_exporters: AtomicU64,
    max_open_windows: AtomicU64,
    /// Core pinning for listen lanes (0 = off).
    /// Lanes re-check per loop iteration, so `pin-cores=0` on the
    /// reload path unpins live threads.
    pin_cores: AtomicU64,
}

impl AdmissionKnobs {
    /// Knobs initialized from `cfg` plus the pipeline's open-window
    /// budget (0 = unbounded).
    pub fn new(cfg: AdmissionConfig, max_open_windows: u64) -> AdmissionKnobs {
        let knobs = AdmissionKnobs::default();
        knobs.store(cfg);
        knobs.set_max_open_windows(max_open_windows);
        knobs
    }

    /// One coherent-enough read of the quota knobs (each is atomic;
    /// they only change on reload).
    pub fn load(&self) -> AdmissionConfig {
        AdmissionConfig {
            packet_rate: self.packet_rate.load(Ordering::Relaxed),
            packet_burst: self.packet_burst.load(Ordering::Relaxed),
            record_rate: self.record_rate.load(Ordering::Relaxed),
            record_burst: self.record_burst.load(Ordering::Relaxed),
            max_exporters: self.max_exporters.load(Ordering::Relaxed) as usize,
        }
    }

    /// Replaces the quota knobs (reload path).
    pub fn store(&self, cfg: AdmissionConfig) {
        self.packet_rate.store(cfg.packet_rate, Ordering::Relaxed);
        self.packet_burst.store(cfg.packet_burst, Ordering::Relaxed);
        self.record_rate.store(cfg.record_rate, Ordering::Relaxed);
        self.record_burst.store(cfg.record_burst, Ordering::Relaxed);
        self.max_exporters
            .store(cfg.max_exporters as u64, Ordering::Relaxed);
    }

    /// The pipeline's open-window budget (0 = unbounded).
    pub fn max_open_windows(&self) -> u64 {
        self.max_open_windows.load(Ordering::Relaxed)
    }

    /// Sets the open-window budget (reload path).
    pub fn set_max_open_windows(&self, windows: u64) {
        self.max_open_windows.store(windows, Ordering::Relaxed);
    }

    /// Whether listen lanes should pin to cores.
    pub fn pin_cores(&self) -> bool {
        self.pin_cores.load(Ordering::Relaxed) != 0
    }

    /// Toggles core pinning (reload path; lanes apply or clear their
    /// affinity on the next loop iteration).
    pub fn set_pin_cores(&self, pin: bool) {
        self.pin_cores.store(pin as u64, Ordering::Relaxed);
    }
}

/// What admission control dropped or evicted (monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Datagrams denied by a packet quota (dropped before decode).
    pub packet_drops: u64,
    /// Records denied by a record quota (whole packets' worth).
    pub record_drops: u64,
    /// Exporter entries evicted to bound the table.
    pub exporters_evicted: u64,
}

#[derive(Debug)]
struct Exporter {
    /// Milli-tokens: 1000 = one packet / one record.
    packet_mtok: u64,
    record_mtok: u64,
    /// When the buckets were last refilled.
    refill_ms: u64,
    /// Last time this exporter sent anything (eviction order).
    seen_ms: u64,
}

/// Per-source token buckets over a bounded exporter table.
#[derive(Debug, Default)]
pub struct AdmissionControl {
    table: HashMap<IpAddr, Exporter>,
    stats: AdmissionStats,
}

fn burst_mtok(rate: u64, burst: u64) -> u64 {
    let depth = if burst > 0 {
        burst
    } else {
        rate.saturating_mul(2)
    };
    depth.max(1).saturating_mul(1_000)
}

impl AdmissionControl {
    /// An empty exporter table.
    pub fn new() -> AdmissionControl {
        AdmissionControl::default()
    }

    /// Tracked exporter addresses.
    pub fn exporters(&self) -> usize {
        self.table.len()
    }

    /// Drop/eviction counters.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Charges one packet from `src`'s packet bucket. `false` means
    /// the datagram must be dropped (and is already counted).
    pub fn admit_packet(&mut self, src: IpAddr, cfg: &AdmissionConfig, now_ms: u64) -> bool {
        self.touch(src, cfg, now_ms);
        if cfg.packet_rate == 0 {
            return true;
        }
        let e = self.table.get_mut(&src).expect("touched above");
        if e.packet_mtok >= 1_000 {
            e.packet_mtok -= 1_000;
            true
        } else {
            self.stats.packet_drops += 1;
            false
        }
    }

    /// Charges `records` records from `src`'s record bucket,
    /// all-or-nothing: a packet's records are admitted together or
    /// dropped together, so drop counters stay in record units.
    pub fn admit_records(
        &mut self,
        src: IpAddr,
        records: usize,
        cfg: &AdmissionConfig,
        now_ms: u64,
    ) -> bool {
        if cfg.record_rate == 0 || records == 0 {
            return true;
        }
        self.touch(src, cfg, now_ms);
        let need = (records as u64).saturating_mul(1_000);
        let e = self.table.get_mut(&src).expect("touched above");
        if e.record_mtok >= need {
            e.record_mtok -= need;
            true
        } else {
            self.stats.record_drops += records as u64;
            false
        }
    }

    /// Ensures `src` is tracked with refilled buckets, evicting the
    /// longest-idle exporter if the table is at its bound.
    fn touch(&mut self, src: IpAddr, cfg: &AdmissionConfig, now_ms: u64) {
        if let Some(e) = self.table.get_mut(&src) {
            let elapsed = now_ms.saturating_sub(e.refill_ms);
            if elapsed > 0 {
                // rate tokens/sec == rate milli-tokens per ms.
                e.packet_mtok = e
                    .packet_mtok
                    .saturating_add(cfg.packet_rate.saturating_mul(elapsed))
                    .min(burst_mtok(cfg.packet_rate, cfg.packet_burst));
                e.record_mtok = e
                    .record_mtok
                    .saturating_add(cfg.record_rate.saturating_mul(elapsed))
                    .min(burst_mtok(cfg.record_rate, cfg.record_burst));
                e.refill_ms = now_ms;
            }
            e.seen_ms = now_ms.max(e.seen_ms);
            return;
        }
        if cfg.max_exporters > 0 && self.table.len() >= cfg.max_exporters {
            // O(n) idle scan: only reached at the bound, n stays ≤ it.
            if let Some(idle) = self
                .table
                .iter()
                .min_by_key(|(_, e)| e.seen_ms)
                .map(|(ip, _)| *ip)
            {
                self.table.remove(&idle);
                self.stats.exporters_evicted += 1;
            }
        }
        // New exporters start with full buckets (a first burst is
        // legitimate — quotas bite on sustained excess).
        self.table.insert(
            src,
            Exporter {
                packet_mtok: burst_mtok(cfg.packet_rate, cfg.packet_burst),
                record_mtok: burst_mtok(cfg.record_rate, cfg.record_burst),
                refill_ms: now_ms,
                seen_ms: now_ms,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn zero_rates_admit_everything_but_bound_the_table() {
        let cfg = AdmissionConfig {
            max_exporters: 3,
            ..AdmissionConfig::default()
        };
        let mut ac = AdmissionControl::new();
        for i in 0..50u8 {
            assert!(ac.admit_packet(ip(i), &cfg, i as u64));
            assert!(ac.admit_records(ip(i), 100, &cfg, i as u64));
        }
        assert_eq!(ac.exporters(), 3);
        assert_eq!(ac.stats().exporters_evicted, 47);
        assert_eq!(ac.stats().packet_drops, 0);
        assert_eq!(ac.stats().record_drops, 0);
    }

    #[test]
    fn packet_bucket_enforces_rate_and_burst_deterministically() {
        let cfg = AdmissionConfig {
            packet_rate: 10,
            packet_burst: 5,
            ..AdmissionConfig::default()
        };
        let mut ac = AdmissionControl::new();
        // Burst of 5 admitted instantly, the 6th dropped.
        let admitted = (0..6).filter(|_| ac.admit_packet(ip(1), &cfg, 0)).count();
        assert_eq!(admitted, 5);
        assert_eq!(ac.stats().packet_drops, 1);
        // 100 ms at 10/s refills exactly one token.
        assert!(ac.admit_packet(ip(1), &cfg, 100));
        assert!(!ac.admit_packet(ip(1), &cfg, 100));
        // A different exporter has its own bucket.
        assert!(ac.admit_packet(ip(2), &cfg, 100));
    }

    #[test]
    fn record_bucket_is_all_or_nothing_per_packet() {
        let cfg = AdmissionConfig {
            record_rate: 10,
            record_burst: 10,
            ..AdmissionConfig::default()
        };
        let mut ac = AdmissionControl::new();
        assert!(ac.admit_records(ip(1), 8, &cfg, 0));
        // 3 more don't fit in the remaining 2: the whole packet drops
        // and the bucket is not partially drained.
        assert!(!ac.admit_records(ip(1), 3, &cfg, 0));
        assert_eq!(ac.stats().record_drops, 3);
        assert!(ac.admit_records(ip(1), 2, &cfg, 0));
    }

    #[test]
    fn eviction_prefers_the_longest_idle_exporter() {
        let cfg = AdmissionConfig {
            max_exporters: 2,
            ..AdmissionConfig::default()
        };
        let mut ac = AdmissionControl::new();
        ac.admit_packet(ip(1), &cfg, 0);
        ac.admit_packet(ip(2), &cfg, 10);
        ac.admit_packet(ip(1), &cfg, 20); // 1 is now fresher than 2
        ac.admit_packet(ip(3), &cfg, 30); // evicts 2
        assert_eq!(ac.exporters(), 2);
        assert!(ac.table.contains_key(&ip(1)));
        assert!(ac.table.contains_key(&ip(3)));
    }

    #[test]
    fn knobs_roundtrip_for_live_reload() {
        let cfg = AdmissionConfig {
            packet_rate: 7,
            packet_burst: 9,
            record_rate: 11,
            record_burst: 13,
            max_exporters: 17,
        };
        let knobs = AdmissionKnobs::new(cfg, 23);
        assert_eq!(knobs.load(), cfg);
        assert_eq!(knobs.max_open_windows(), 23);
        knobs.set_max_open_windows(5);
        let mut next = cfg;
        next.packet_rate = 1;
        knobs.store(next);
        assert_eq!(knobs.load().packet_rate, 1);
        assert_eq!(knobs.max_open_windows(), 5);
    }
}
