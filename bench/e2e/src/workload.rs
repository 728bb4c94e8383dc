//! The four workloads. Each names a committed spec, a seeded pool
//! shape, a load discipline and a query cadence; README.md records
//! why each exists and which layer it is meant to indict.

use crate::gen::{Format, PoolSpec};

/// How the sender offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: at most `in_flight` datagrams sent but not yet
    /// counted in the site's `datagrams`, so loss is zero by
    /// construction and the rate is the program's. Event time advances
    /// by record count: every window holds exactly
    /// `datagrams_per_window` datagrams.
    Closed {
        in_flight: u64,
        datagrams_per_window: u64,
    },
    /// Open loop: each site is sent `per_site_hz` datagrams a second on
    /// a fixed schedule; event time is the wall clock of the moment a
    /// datagram was *due*.
    Paced { per_site_hz: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// File under `bench/specs/`.
    pub spec: &'static str,
    /// `window-ms` of that spec (the generator must agree with it).
    pub window_ms: u64,
    pub pool: PoolSpec,
    /// Give every site its own pool with site-private keys mixed in.
    pub per_site_pools: bool,
    pub load: Load,
    /// Pause between consecutive queries of the round (rounds follow
    /// one another without a further gap).
    pub query_every_ms: u64,
    /// The round's five scoped queries read the run's first this-many
    /// windows. [`WHOLE_RUN`] is a scope that keeps filling for as long
    /// as the run lasts, so the relay's cached view for it must
    /// *extend* on every round; a small number is a scope that stops
    /// changing early, so its cached view *hits*.
    pub scope_windows: u64,
    /// The tier-1 relay the two regional queries go to, and the sites
    /// it owns in the spec.
    pub region_relay: &'static str,
    pub region_sites: (u16, u16),
}

/// A scope no run outlasts.
pub const WHOLE_RUN: u64 = 1_000_000;

const SITE_FLOWS: usize = 500_000;

/// 100 datagrams/s × 20 records = 2k records/s per site.
const FLEET_POOL: PoolSpec = PoolSpec {
    format: Format::NetflowV5,
    datagrams: 1_024,
    records_per_datagram: 20,
    flows: SITE_FLOWS,
    private_site: None, // set per site
    template_every: 0,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "site_bulk",
        spec: "site.spec",
        window_ms: 1_000,
        pool: PoolSpec {
            format: Format::NetflowV5,
            datagrams: 16_384,
            records_per_datagram: 30,
            flows: SITE_FLOWS,
            private_site: None,
            template_every: 0,
        },
        per_site_pools: false,
        // 16000 × 30 = 480k records per window, a bit over one window a
        // second at this host's rate: closing, shipping and merging a
        // 64k-node tree costs the relays a fixed ~0.15 core-seconds per
        // window whatever it holds, and that must stay small next to
        // the per-record work this workload is about.
        load: Load::Closed {
            in_flight: 1_024,
            datagrams_per_window: 16_000,
        },
        // Queries are not this workload's subject: a query every 100 ms
        // over two early windows (64k-node trees: a whole-run scope
        // costs the root over a second a round and starves its ingest).
        query_every_ms: 100,
        scope_windows: 2,
        region_relay: "edge",
        region_sites: (0, 1),
    },
    Workload {
        name: "site_smallpkt",
        spec: "site.spec",
        window_ms: 1_000,
        pool: PoolSpec {
            format: Format::Ipfix,
            datagrams: 65_536,
            records_per_datagram: 3,
            flows: SITE_FLOWS,
            private_site: None,
            template_every: 4_096,
        },
        per_site_pools: false,
        // 64000 × 3 = 192k records per window (about two windows a
        // second). The in-flight cap is larger than site_bulk's: a
        // datagram is ~10× cheaper for the site to consume, and the
        // credit signal (`GET /stats`) takes up to 20 ms to come back.
        load: Load::Closed {
            in_flight: 4_096,
            datagrams_per_window: 64_000,
        },
        query_every_ms: 100,
        scope_windows: 2,
        region_relay: "edge",
        region_sites: (0, 1),
    },
    Workload {
        name: "fleet_fanin",
        spec: "fleet.spec",
        window_ms: 500,
        pool: FLEET_POOL,
        per_site_pools: true,
        load: Load::Paced { per_site_hz: 100 },
        query_every_ms: 167,
        scope_windows: WHOLE_RUN,
        region_relay: "r0",
        region_sites: (0, 4),
    },
    Workload {
        name: "fleet_query",
        spec: "fleet.spec",
        window_ms: 500,
        pool: FLEET_POOL,
        per_site_pools: true,
        load: Load::Paced { per_site_hz: 100 },
        // ~17× fleet_fanin's query rate, and still a pause: back to back,
        // the one query connection keeps a core busy on its own, and CPU
        // per record would count how many queries fitted into the run
        // rather than what one costs.
        query_every_ms: 10,
        scope_windows: WHOLE_RUN,
        region_relay: "r0",
        region_sites: (0, 4),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
