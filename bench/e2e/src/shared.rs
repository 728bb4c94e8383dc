//! State shared between the run's two threads — the sender and the
//! client — and the constants both read.

use std::sync::atomic::{AtomicBool, AtomicI64};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::fleet::{RelayNode, SiteNode};

/// The daemon's disorder horizon (`DaemonConfig::open_windows`, not a
/// spec key): window W can close once event time reaches W + 2.
pub const OPEN_WINDOWS: i64 = 2;
/// A closable window the root still cannot answer after this long
/// counts its records as failed; also the bound on every other wait
/// for the fleet to make progress.
pub const ANSWER_DEADLINE: Duration = Duration::from_secs(10);

/// One event-time window, published by the sender once every site has
/// moved past it (its expected mass is then final).
#[derive(Debug, Clone)]
pub struct Window {
    pub start_ms: u64,
    /// Packet mass and record count sent into it, per site — computed
    /// from the generator's own records, never from the program.
    pub site_packets: Vec<u64>,
    pub site_records: Vec<u64>,
    /// When the datagram that lets the slowest site close it was sent
    /// (closed loop) or due (open loop).
    pub closable_at: Option<Instant>,
    /// First root (tier-1 relay) answer carrying its exact mass.
    pub root_at: Option<Instant>,
    pub relay_at: Option<Instant>,
}

impl Window {
    pub fn packets(&self) -> u64 {
        self.site_packets.iter().sum()
    }

    pub fn records(&self) -> u64 {
        self.site_records.iter().sum()
    }
}

#[derive(Debug)]
pub struct Nodes {
    pub relays: Vec<RelayNode>,
    pub sites: Vec<SiteNode>,
}

#[derive(Debug)]
pub struct Shared {
    windows: Mutex<Vec<Window>>,
    /// Index of the last measured window once the sender fixed it.
    pub last_measured: AtomicI64,
    /// Index of the first window of the traced half (`--trace 1`).
    pub traced_from: AtomicI64,
    pub first_answered: AtomicBool,
    pub last_answered: AtomicBool,
    /// Set by the sender once it has stopped sending: the client
    /// finishes its last sweep, goes quiet and says so.
    pub quiesce: AtomicBool,
    pub client_quiet: AtomicBool,
    /// Set by the sender when the fleet is gone: the client exits.
    pub done: AtomicBool,
    pub abort: AtomicBool,
    pub nodes: OnceLock<Nodes>,
}

impl Shared {
    pub fn new() -> Shared {
        Shared {
            windows: Mutex::new(Vec::new()),
            last_measured: AtomicI64::new(-1),
            traced_from: AtomicI64::new(-1),
            first_answered: AtomicBool::new(false),
            last_answered: AtomicBool::new(false),
            quiesce: AtomicBool::new(false),
            client_quiet: AtomicBool::new(false),
            done: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            nodes: OnceLock::new(),
        }
    }

    pub fn windows(&self) -> MutexGuard<'_, Vec<Window>> {
        self.windows
            .lock()
            .expect("neither thread panics while holding the window list")
    }
}
