//! The system under test as a child process: spawn the shipped
//! `flowctl run <spec>`, learn its addresses from the boot lines, talk
//! to it over its wire surfaces, and always tear it down.
//!
//! Pinned surface (see README.md): the `flowctl: relay …` / `flowctl:
//! site …` / `flowctl: fleet up` boot lines, the `drain` stdin line
//! and `flowctl: fleet down`, plaintext `GET /health|/stats|/metrics`,
//! and the u32-length-prefixed query frames.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::Error;

/// Deadline for one TCP exchange with a node.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline for the boot lines, and for every node's `/health`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;
const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Routes SIGINT/SIGTERM into a flag the run loops poll, so an
/// interrupted benchmark takes the normal teardown path.
pub fn install_signal_handlers() {
    // SAFETY: `signal` is the libc function of that name; the handler
    // is an `extern "C" fn(i32)` that only stores to an atomic, which
    // is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// SIGKILLs the process group led by `pid` (the child is spawned as
/// its own group leader, so this reaches anything it forked).
fn kill_group(pid: u32) {
    // SAFETY: `kill` is the libc function of that name; it takes two
    // integers and touches no memory of this process. A negative pid
    // addresses the process group.
    unsafe {
        kill(-(pid as i32), SIGKILL);
    }
}

#[derive(Debug, Clone)]
pub struct RelayNode {
    pub name: String,
    pub query: SocketAddr,
    pub stats: SocketAddr,
}

#[derive(Debug, Clone)]
pub struct SiteNode {
    pub id: u16,
    pub listen: SocketAddr,
    pub stats: SocketAddr,
}

/// Bounds the sender thread's blocking reads of the child's stdout
/// (boot lines, `fleet down`): the reader arms a deadline, the client
/// thread kills the fleet when it passes, and the read sees EOF.
#[derive(Debug)]
pub struct Watchdog {
    origin: Instant,
    pid: u32,
    /// Microseconds after `origin`; 0 = disarmed.
    deadline_us: AtomicU64,
}

impl Watchdog {
    fn arm(&self, timeout: Duration) {
        let at = self.origin.elapsed() + timeout;
        self.deadline_us
            .store(at.as_micros().max(1) as u64, Ordering::SeqCst);
    }

    fn disarm(&self) {
        self.deadline_us.store(0, Ordering::SeqCst);
    }

    /// Called from the client thread every loop; returns true when it
    /// had to kill the fleet.
    pub fn check(&self) -> bool {
        let at = self.deadline_us.load(Ordering::SeqCst);
        if at != 0 && self.origin.elapsed().as_micros() as u64 > at {
            kill_group(self.pid);
            return true;
        }
        false
    }
}

/// A running fleet. Dropping it kills the process group and reaps the
/// child, so success, error returns and panics all clean up; if this
/// process is killed outright, the child sees EOF on stdin and drains
/// itself.
#[derive(Debug)]
pub struct Fleet {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub relays: Vec<RelayNode>,
    pub sites: Vec<SiteNode>,
    pub watchdog: Arc<Watchdog>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        kill_group(self.child.id());
        let _ = self.child.wait();
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

fn addr_field(line: &str, key: &str) -> Result<SocketAddr, Error> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Error::new(format!("boot line lacks {key}=<addr>: {line}")))
}

impl Fleet {
    /// Spawns `flowctl run <spec>`. Every later pipe read is bounded
    /// only while another thread polls [`Watchdog::check`] on
    /// [`Fleet::watchdog`].
    pub fn spawn(flowctl: &str, spec: &str) -> Result<Fleet, Error> {
        use std::os::unix::process::CommandExt;
        let mut child = Command::new(flowctl)
            .args(["run", spec])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // Node logs (one line per export at the root) are not part
            // of the measured surface.
            .stderr(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| Error::new(format!("cannot spawn {flowctl}: {e}")))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let pid = child.id();
        Ok(Fleet {
            child,
            stdin,
            stdout,
            relays: Vec::new(),
            sites: Vec::new(),
            watchdog: Arc::new(Watchdog {
                origin: Instant::now(),
                pid,
                deadline_us: AtomicU64::new(0),
            }),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn read_line(&mut self, timeout: Duration) -> Result<String, Error> {
        let mut line = String::new();
        self.watchdog.arm(timeout);
        let n = self.stdout.read_line(&mut line);
        self.watchdog.disarm();
        match n {
            Ok(0) => Err(Error::new(
                "fleet closed its stdout (exited, or killed by the watchdog)",
            )),
            Ok(_) => Ok(line),
            Err(e) => Err(Error::new(format!("reading fleet stdout: {e}"))),
        }
    }

    /// Parses the boot lines; returns once `flowctl: fleet up` arrives.
    pub fn await_boot(&mut self) -> Result<(), Error> {
        let limit = Instant::now() + BOOT_TIMEOUT;
        loop {
            let left = limit.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::new("fleet did not print `fleet up` in time"));
            }
            let line = self.read_line(left)?;
            let line = line.trim_end();
            if let Some(rest) = line.strip_prefix("flowctl: relay ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                self.relays.push(RelayNode {
                    name: name.to_string(),
                    query: addr_field(line, "query")?,
                    stats: addr_field(line, "stats")?,
                });
            } else if let Some(rest) = line.strip_prefix("flowctl: site ") {
                let id = rest.split_whitespace().next().unwrap_or_default();
                self.sites.push(SiteNode {
                    id: id
                        .parse()
                        .map_err(|_| Error::new(format!("bad site id in boot line: {line}")))?,
                    listen: addr_field(line, "listen")?,
                    stats: addr_field(line, "stats")?,
                });
            } else if line.starts_with("flowctl: fleet up") {
                return Ok(());
            }
        }
    }

    /// Every node answers `GET /health` with `ok true`.
    pub fn await_healthy(&self) -> Result<(), Error> {
        let limit = Instant::now() + BOOT_TIMEOUT;
        let addrs = self
            .relays
            .iter()
            .map(|r| r.stats)
            .chain(self.sites.iter().map(|s| s.stats));
        for addr in addrs {
            loop {
                match http_get(addr, "/health") {
                    Ok(body) if body.contains("ok true") => break,
                    other if Instant::now() > limit => {
                        return Err(Error::new(format!("node {addr} unhealthy: {other:?}")));
                    }
                    _ => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        Ok(())
    }

    pub fn relay(&self, name: &str) -> Result<&RelayNode, Error> {
        self.relays
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| Error::new(format!("spec has no relay named {name}")))
    }

    /// Graceful exit: `drain`, then wait for `flowctl: fleet down` and
    /// the process. Returns how long it took.
    pub fn drain(mut self, timeout: Duration) -> Result<Duration, Error> {
        let t0 = Instant::now();
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"drain\n");
        }
        let limit = t0 + timeout;
        loop {
            let left = limit.saturating_duration_since(Instant::now());
            let line = self.read_line(left.max(Duration::from_millis(1)))?;
            if line.starts_with("flowctl: fleet down") {
                break;
            }
        }
        while Instant::now() < limit {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(t0.elapsed()),
                Ok(Some(status)) => {
                    return Err(Error::new(format!(
                        "fleet exited with {status} after drain"
                    )))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(Error::new(format!("waiting for the fleet: {e}"))),
            }
        }
        Err(Error::new("fleet printed `fleet down` but did not exit"))
    }

    /// One line of `/stats` per node, for an error report.
    pub fn dump_stats(&self) -> String {
        let mut out = String::new();
        let nodes = self
            .relays
            .iter()
            .map(|r| (format!("relay {}", r.name), r.stats))
            .chain(
                self.sites
                    .iter()
                    .map(|s| (format!("site {}", s.id), s.stats)),
            );
        for (label, addr) in nodes {
            // One line per node: every non-zero counter, minus the echoed
            // configuration (`knob_*`, `*_ms` settings).
            let line = match http_get(addr, "/stats") {
                Ok(body) => body
                    .lines()
                    .filter_map(|l| l.split_once(' '))
                    .filter(|(k, v)| {
                        v.parse::<u64>().is_ok_and(|n| n > 0)
                            && !k.starts_with("knob_")
                            && !matches!(
                                *k,
                                "site"
                                    | "agg_site"
                                    | "linger_ms"
                                    | "retention_ms"
                                    | "drain_every_ms"
                            )
                            && !k.starts_with("max_")
                    })
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                Err(e) => format!("unreachable: {e}"),
            };
            out.push_str(&format!("  {label}: {line}\n"));
        }
        out
    }
}

/// One plaintext `GET` against a node's ops endpoint (HTTP/1.0, one
/// request per connection).
pub fn http_get(addr: SocketAddr, path: &str) -> Result<String, Error> {
    let err =
        |what: &str, e: std::io::Error| Error::new(format!("GET {path} at {addr}: {what}: {e}"));
    let mut s = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| err("connect", e))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| err("timeout", e))?;
    s.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| err("timeout", e))?;
    let req = format!("GET {path} HTTP/1.0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    s.write_all(req.as_bytes()).map_err(|e| err("write", e))?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).map_err(|e| err("read", e))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| Error::new(format!("GET {path} at {addr}: malformed response")))?;
    if head.split_whitespace().nth(1) != Some("200") {
        return Err(Error::new(format!(
            "GET {path} at {addr}: {}",
            head.lines().next().unwrap_or_default()
        )));
    }
    Ok(body.to_string())
}

/// Reads `key value` out of a plaintext stats body.
pub fn stat(body: &str, key: &str) -> Option<u64> {
    body.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| v.trim().parse().ok())?
    })
}

/// Sums every sample of a Prometheus series (any label set) out of a
/// `/metrics` body.
pub fn metric_sum(body: &str, series: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let bare = name.split('{').next()?;
            (bare == series).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// A persistent query connection: one u32-BE-length-prefixed UTF-8
/// request frame per query, one response frame (status byte + text).
#[derive(Debug)]
pub struct QueryConn {
    stream: TcpStream,
    addr: SocketAddr,
}

impl QueryConn {
    pub fn connect(addr: SocketAddr) -> Result<QueryConn, Error> {
        let err = |e| Error::new(format!("query connect to {addr}: {e}"));
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(err)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(err)?;
        Ok(QueryConn { stream, addr })
    }

    /// Asks the kernel to acknowledge the next segments at once. The
    /// relays write a response as two small segments (length, then
    /// body) on a socket without `TCP_NODELAY`, so their second segment
    /// waits for our ACK of the first; with delayed ACKs that is a
    /// 40 ms stall the kernel's heuristics apply to about half the
    /// queries — a coin the benchmark would otherwise be measuring.
    /// The flag is one-shot, so it is set before every read.
    fn quickack(&self) {
        use std::os::fd::AsRawFd;
        let on: i32 = 1;
        // SAFETY: `setsockopt` is the libc function of that name; the
        // fd is this open stream's, and `value` points at a live i32
        // whose size is passed as `len`.
        unsafe {
            setsockopt(self.stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
        }
    }

    /// Sends one query; `Ok(body)` on status 0. A status-1 answer, a
    /// timeout or a broken frame is an `Err`.
    pub fn query(&mut self, text: &str) -> Result<String, Error> {
        let err = |what: &str, e: std::io::Error| {
            Error::new(format!("query `{text}` at {}: {what}: {e}", self.addr))
        };
        let mut frame = Vec::with_capacity(4 + text.len());
        frame.extend_from_slice(&(text.len() as u32).to_be_bytes());
        frame.extend_from_slice(text.as_bytes());
        self.stream.write_all(&frame).map_err(|e| err("write", e))?;
        self.quickack();
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| err("read", e))?;
        let len = u32::from_be_bytes(len) as usize;
        if len == 0 || len > 16 << 20 {
            return Err(Error::new(format!(
                "query `{text}`: response frame of {len} bytes"
            )));
        }
        let mut resp = vec![0u8; len];
        self.stream
            .read_exact(&mut resp)
            .map_err(|e| err("read", e))?;
        let body = String::from_utf8_lossy(&resp[1..]).into_owned();
        match resp[0] {
            0 => Ok(body),
            _ => Err(Error::new(format!(
                "query `{text}` answered an error: {body}"
            ))),
        }
    }
}

/// The packet mass of a `pop` answer (`popularity: N packets, …`).
pub fn pop_packets(body: &str) -> Option<u64> {
    let rest = body.lines().find_map(|l| l.strip_prefix("popularity: "))?;
    rest.split_whitespace().next()?.parse().ok()
}
