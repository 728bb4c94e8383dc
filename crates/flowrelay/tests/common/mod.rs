//! Shared plumbing for the robustness tests: a deterministic RNG and
//! a **frame-granular TCP proxy** that can drop, duplicate, and flap —
//! hostile-network weather for the ack/rebase export protocol.
#![allow(dead_code)]

use flowdist::framing::{read_frame, write_frame};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// splitmix64 — deterministic, seedable, no dependencies.
pub struct Rng(pub u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u8) -> bool {
        self.below(100) < u64::from(percent)
    }
}

/// Proxy weather: what fraction of frames to drop or duplicate, and
/// how often to kill the connection outright.
#[derive(Clone, Copy)]
pub struct ProxyConfig {
    /// Chance (0–100) a forwarded frame is silently dropped.
    pub drop_percent: u8,
    /// Chance (0–100) a forwarded frame is sent twice.
    pub dup_percent: u8,
    /// Kill the session after this many client frames (both
    /// directions die; the client reconnects). 0 = never flap.
    pub flap_after: u64,
    pub seed: u64,
}

#[derive(Default)]
pub struct ProxyStats {
    pub forwarded: AtomicU64,
    pub dropped: AtomicU64,
    pub duplicated: AtomicU64,
    pub flaps: AtomicU64,
}

/// A running proxy: clients connect to `addr`, frames relay to the
/// upstream with the configured weather applied **per frame** in both
/// directions (data up, control frames down).
pub struct Proxy {
    pub addr: String,
    pub stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(&self.addr);
    }
}

pub fn spawn_proxy(upstream: String, cfg: ProxyConfig) -> Proxy {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().unwrap().to_string();
    let stats = Arc::new(ProxyStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let mut session = 0u64;
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(client) = conn else { continue };
                session += 1;
                let Ok(up) = TcpStream::connect(&upstream) else {
                    continue; // client sees the close and backs off
                };
                run_session(client, up, cfg, session, &stats);
            }
        });
    }
    Proxy {
        addr,
        stats,
        shutdown,
    }
}

/// One client session, handled inline (the export path has one
/// connection at a time; serialized sessions keep the weather
/// deterministic for a given seed).
fn run_session(
    client: TcpStream,
    up: TcpStream,
    cfg: ProxyConfig,
    session: u64,
    stats: &Arc<ProxyStats>,
) {
    let stop = Arc::new(AtomicBool::new(false));
    // Downstream direction (acks/rebases): its own derived RNG stream.
    let down = {
        let stats = Arc::clone(stats);
        let stop = Arc::clone(&stop);
        let up_read = up.try_clone().expect("clone upstream");
        let mut client_write = client.try_clone().expect("clone client");
        let mut rng = Rng::new(cfg.seed ^ session.rotate_left(32) ^ 0xD0);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(up_read);
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if !forward(&mut client_write, &frame, cfg, &mut rng, &stats) {
                    return;
                }
            }
        })
    };
    let mut rng = Rng::new(cfg.seed ^ session.rotate_left(32) ^ 0x0F);
    let mut reader = BufReader::new(client.try_clone().expect("clone client"));
    let mut up_write = up.try_clone().expect("clone upstream");
    let mut seen = 0u64;
    while let Ok(Some(frame)) = read_frame(&mut reader) {
        seen += 1;
        if cfg.flap_after > 0 && seen > cfg.flap_after {
            stats.flaps.fetch_add(1, Ordering::Relaxed);
            // A dying connection is not a bidirectional guillotine:
            // stop forwarding upward, but let in-flight acks drain
            // down for a moment before the kill.
            std::thread::sleep(std::time::Duration::from_millis(50));
            break;
        }
        if !forward(&mut up_write, &frame, cfg, &mut rng, stats) {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    let _ = client.shutdown(std::net::Shutdown::Both);
    let _ = up.shutdown(std::net::Shutdown::Both);
    let _ = down.join();
}

fn forward(
    w: &mut TcpStream,
    frame: &[u8],
    cfg: ProxyConfig,
    rng: &mut Rng,
    stats: &Arc<ProxyStats>,
) -> bool {
    // Every frame is fair game, hellos included: a lost hello is a
    // failed connect the shipper backs off from and retries.
    if rng.chance(cfg.drop_percent) {
        stats.dropped.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    let copies = if rng.chance(cfg.dup_percent) {
        stats.duplicated.fetch_add(1, Ordering::Relaxed);
        2
    } else {
        1
    };
    for _ in 0..copies {
        if write_frame(&mut *w, frame).is_err() {
            return false;
        }
    }
    stats.forwarded.fetch_add(1, Ordering::Relaxed);
    true
}
