//! A tiny plaintext operability endpoint.
//!
//! Every node in a fleet (site daemon, relay, root) exposes the same
//! shape of surface: `GET /health` and `GET /stats` return `key value`
//! lines, `POST /reload` accepts `key=value` lines and applies what
//! the node supports live. The protocol is deliberately the smallest
//! HTTP/1.0 subset `curl` and a shell script can speak — one request
//! per connection, `Connection: close`, plaintext bodies — because the
//! offline dependency set has no HTTP stack and none is needed for a
//! stats page.
//!
//! The server itself is node-agnostic: [`spawn_ops`] parks a thread in
//! a blocking `accept` ([`spawn_accept_loop`], the one listener loop
//! every fleet TCP endpoint runs), answers a request that arrived
//! whole right there, gives any other connection a thread of its own,
//! and hands every parsed request to the node's handler closure. An
//! idle endpoint costs no wakeup at all; [`OpsHandle::stop`] wakes the
//! parked `accept` with a loopback connection, joins the thread and
//! frees the port, so a drained node releases its endpoint.
//!
//! What every node serves the same way lives here too: a node builds
//! its one [`Stats`] list per scrape and [`NodeTelemetry::serve`]
//! renders `/stats`, `/stats.json` and `/metrics` from it (plus
//! `/events`), and [`parse_reload`] is the one reload grammar.
//! A node's own handler answers only `/health` and `/reload`.

use flowmetrics::{EventRing, Registry, Stats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed request: method, path, and (for POST) the body.
#[derive(Debug, Clone)]
pub struct OpsRequest {
    /// `GET` or `POST` (anything else is answered 405 before the
    /// handler runs).
    pub method: String,
    /// The request path, e.g. `/stats`.
    pub path: String,
    /// The request body (empty for GET).
    pub body: String,
}

/// The handler's answer: an HTTP status code and a plaintext body.
#[derive(Debug, Clone)]
pub struct OpsResponse {
    /// HTTP status (200, 404, …).
    pub status: u16,
    /// Plaintext body; a trailing newline is added if missing.
    pub body: String,
}

impl OpsResponse {
    /// A `200 OK` plaintext response.
    pub fn ok(body: impl Into<String>) -> OpsResponse {
        OpsResponse {
            status: 200,
            body: body.into(),
        }
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> OpsResponse {
        OpsResponse {
            status: 404,
            body: "not found".into(),
        }
    }

    /// A `400 Bad Request` with a reason.
    pub fn bad_request(msg: impl Into<String>) -> OpsResponse {
        OpsResponse {
            status: 400,
            body: msg.into(),
        }
    }
}

/// Shared observability state of one node: the metric registry behind
/// `GET /metrics`, the event ring behind `GET /events`, the boot
/// instant behind `/health`'s `uptime_ms`, and the count of requests
/// the endpoint answered.
#[derive(Debug, Clone)]
pub struct NodeTelemetry {
    /// Registry-native instruments (latency histograms, gauges the hot
    /// path sets) plus every series a [`Stats`] publishes.
    pub registry: Registry,
    /// Operational events, newest last.
    pub events: EventRing,
    /// When the node booted.
    started: Instant,
    /// Requests answered by [`NodeTelemetry::serve`] (every request
    /// the node's endpoint parsed).
    requests: Arc<AtomicU64>,
}

impl Default for NodeTelemetry {
    fn default() -> NodeTelemetry {
        NodeTelemetry {
            registry: Registry::new(),
            events: EventRing::new(256),
            started: Instant::now(),
            requests: Arc::default(),
        }
    }
}

impl NodeTelemetry {
    /// Starts a node's stats list with the series every node shares:
    /// build identity, uptime and the event count.
    pub fn stats(&self, role: &str, node: &str) -> Stats {
        let mut s = Stats::new();
        s.metric(1u64)
            .gauge("flowtree_build_info", "Constant 1; identity in labels.")
            .label("role", role)
            .label("node", node)
            .label("version", env!("CARGO_PKG_VERSION"));
        s.metric(self.started.elapsed().as_secs())
            .gauge("flowtree_uptime_seconds", "Seconds since this node booted.");
        s.metric(self.events.total()).counter(
            "flowtree_events_total",
            "Operational events recorded (including ones the ring evicted).",
        );
        // A `/metrics` series only: a `/stats` line would move between
        // the plaintext and JSON reads of one scrape pair.
        s.metric(self.requests.load(Ordering::Relaxed)).counter(
            "flowtree_ops_requests_total",
            "Requests this node's ops endpoint answered (scrapes included).",
        );
        s
    }

    /// The shared `/health` tail: `uptime_ms` (restarts reset it — a
    /// freshly low value on a long-lived fleet flags a crash-restart)
    /// and the build version (how `flowctl top` spots a mixed-version
    /// fleet).
    pub fn health_tail(&self) -> String {
        format!(
            "uptime_ms {}\nversion {}",
            self.started.elapsed().as_millis(),
            env!("CARGO_PKG_VERSION")
        )
    }

    /// Answers one request to the node's endpoint, and counts it: the
    /// pages every node renders the same way — `/stats` (and `/`),
    /// `/stats.json` and `/metrics` from the node's one `stats` list,
    /// and `/events` — and anything else from the node's `own` routes.
    pub fn serve(
        &self,
        req: &OpsRequest,
        stats: impl FnOnce() -> Stats,
        own: impl FnOnce() -> OpsResponse,
    ) -> OpsResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if req.method != "GET" {
            return own();
        }
        let body = match req.path.as_str() {
            "/stats" | "/" => stats().render_text(),
            "/stats.json" => stats().render_json(),
            "/metrics" => {
                stats().publish(&self.registry);
                self.registry.render_prometheus()
            }
            "/events" => self.events.render_text(),
            _ => return own(),
        };
        OpsResponse::ok(body)
    }

    /// Answers a `POST /reload` with the outcome of applying it; an
    /// applied reload is recorded as a `reload` event.
    pub fn reloaded(&self, outcome: Result<String, String>) -> OpsResponse {
        match outcome {
            Ok(reply) => {
                self.events.push(crate::epoch_ms(), "reload", reply.clone());
                OpsResponse::ok(reply)
            }
            Err(e) => OpsResponse::bad_request(e),
        }
    }
}

/// The reload grammar every node speaks: `key=value` items (a
/// `POST /reload` body's lines, or the words of a `reload` command),
/// trimmed, blank and `#` items skipped. `set` stages one pair (the
/// caller commits only on `Ok`), so a malformed item, an unknown key or
/// a bad value fails the whole request and a typoed reload never
/// half-applies. The reply is `applied k=v …` or `unchanged`.
pub fn parse_reload<'a>(
    items: impl IntoIterator<Item = &'a str>,
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<String, String> {
    let mut applied = Vec::new();
    for item in items.into_iter().map(str::trim) {
        if item.is_empty() || item.starts_with('#') {
            continue;
        }
        let (key, value) = item
            .split_once('=')
            .ok_or_else(|| format!("malformed reload item (want key=value): {item:?}"))?;
        let (key, value) = (key.trim(), value.trim());
        set(key, value)?;
        applied.push(format!("{key}={value}"));
    }
    Ok(if applied.is_empty() {
        "unchanged".into()
    } else {
        format!("applied {}", applied.join(" "))
    })
}

/// A reload value that must be an integer.
pub fn reload_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{key}: not a number: {value:?}"))
}

/// A running ops endpoint (see [`spawn_ops`]).
#[derive(Debug)]
pub struct OpsHandle {
    listener: AcceptLoop,
}

impl OpsHandle {
    /// The bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the endpoint and frees the port.
    pub fn stop(mut self) {
        self.listener.stop();
    }
}

/// How long a single ops connection may take to deliver its request
/// or absorb its response before the server hangs up. Scrapes are
/// local one-packet exchanges; anything slower is a stalled or
/// hostile peer that must not hold resources.
const CONN_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Binds `addr` and serves ops requests on a background thread. A
/// request that is complete when its connection is accepted — a
/// scraper's usually lands right behind its connect — is answered on
/// the listener thread itself. Any other connection is handed to a
/// short-lived thread with read *and* write timeouts, so one slow or
/// stalled scraper can't block `/health` for the whole node; the
/// handler itself must be thread-safe and cheap (snapshot counters,
/// flip a flag) — this is a stats page, not an API gateway.
pub fn spawn_ops<F>(addr: &str, handler: F) -> std::io::Result<OpsHandle>
where
    F: Fn(&OpsRequest) -> OpsResponse + Send + Sync + 'static,
{
    let handler = Arc::new(handler);
    let listener = spawn_accept_loop("ops", TcpListener::bind(addr)?, move |stream| {
        // Answering inline spares the thread a scrape would otherwise
        // cost: spawning one costs about as much CPU as the answer.
        if request_ready(&stream) {
            let _ = serve_one(stream, &*handler);
            return;
        }
        // A thread of its own: the accept loop goes right back to
        // `accept`, so a scraper that stalls mid-request only ties up
        // its own thread until the timeout fires. Thread exhaustion
        // sheds the connection rather than wedging the loop.
        let handler = Arc::clone(&handler);
        let _ = std::thread::Builder::new()
            .name("ops-conn".into())
            .spawn(move || {
                let _ = serve_one(stream, &*handler);
            });
    })?;
    Ok(OpsHandle { listener })
}

/// A listener thread parked in a blocking `accept` (see
/// [`spawn_accept_loop`]). Dropping it stops it.
#[derive(Debug)]
pub struct AcceptLoop {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl AcceptLoop {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the thread and frees the port: raises the
    /// stop flag, then wakes the parked `accept` with a loopback
    /// connection the loop recognizes and drops. Idempotent.
    pub fn stop(&mut self) {
        let Some(join) = self.join.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // A loop that is not parked (busy with a backlog) sees the flag
        // on its next accept, so a failed wake connect is harmless.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), CONN_TIMEOUT);
        let _ = join.join();
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where a stop's wake connection goes: the bound address, with a
/// wildcard bind (`0.0.0.0`, `[::]`) reached over its loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// The one listener loop of every fleet TCP endpoint (ops pages, relay
/// ingest and queries): a thread named `name` parks in a blocking
/// `accept` on `listener` and hands each connection to `on_conn`. It
/// wakes only when a peer connects; [`AcceptLoop::stop`] ends it.
pub fn spawn_accept_loop<F>(
    name: &str,
    listener: TcpListener,
    mut on_conn: F,
) -> std::io::Result<AcceptLoop>
where
    F: FnMut(TcpStream) + Send + 'static,
{
    let addr = listener.local_addr()?;
    listener.set_nonblocking(false)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stopping = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || loop {
            let accepted = listener.accept();
            if stopping.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((conn, _)) => on_conn(conn),
                // A failed accept (the process is out of descriptors,
                // a peer reset mid-handshake) returns at once; back off
                // before retrying rather than spin on it.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        })?;
    Ok(AcceptLoop {
        addr,
        stop,
        join: Some(join),
    })
}

fn serve_one<F>(mut stream: TcpStream, handler: &F) -> std::io::Result<()>
where
    F: Fn(&OpsRequest) -> OpsResponse,
{
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let req = match read_request(&mut stream) {
        Ok(Some(r)) => r,
        Ok(None) => return Ok(()),
        Err(_) => {
            return write_response(
                &mut stream,
                &OpsResponse {
                    status: 400,
                    body: "malformed request".into(),
                },
            )
        }
    };
    let resp = match req.method.as_str() {
        "GET" | "POST" => handler(&req),
        _ => OpsResponse {
            status: 405,
            body: "method not allowed".into(),
        },
    };
    write_response(&mut stream, &resp)
}

/// Parses the smallest useful HTTP subset: request line, headers (only
/// `Content-Length` is interpreted), optional body. Bodies are bounded
/// at 64 KiB — a reload spec is a handful of lines.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<OpsRequest>> {
    const MAX_HEAD: usize = 16 * 1024;
    const MAX_BODY: usize = 64 * 1024;
    // Buffered: a scrape's whole request arrives in one segment, so it
    // costs one read, not one per byte. The body is read through the
    // same buffer; a connection carries one request.
    let mut reader = BufReader::new(&*stream);
    let mut head = Vec::new();
    loop {
        let room = (MAX_HEAD + 1).saturating_sub(head.len()) as u64;
        let n = (&mut reader).take(room).read_until(b'\n', &mut head)?;
        if head.len() > MAX_HEAD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if n == 0 {
            return Ok(None);
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad request line",
        ));
    }
    let content_length = content_length(lines);
    if content_length > MAX_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body)?;
    }
    Ok(Some(OpsRequest {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
}

/// The `Content-Length` a request head's header lines declare (the
/// last one wins; 0 when absent or malformed).
fn content_length<'a>(header_lines: impl Iterator<Item = &'a str>) -> usize {
    let mut len = 0;
    for line in header_lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = v.trim().parse().unwrap_or(0);
            }
        }
    }
    len
}

/// How long the listener waits for a new connection's request before
/// handing the connection to a thread of its own.
const INLINE_WAIT: Duration = Duration::from_millis(2);

/// Whether a new connection's whole request — head and declared body —
/// is already readable (or the peer already hung up), so the listener
/// can serve it without blocking on the peer. Waits at most
/// [`INLINE_WAIT`] for the first bytes.
fn request_ready(stream: &TcpStream) -> bool {
    let mut buf = [0u8; 4096];
    if stream.set_read_timeout(Some(INLINE_WAIT)).is_err() {
        return false;
    }
    let Ok(n) = stream.peek(&mut buf) else {
        return false;
    };
    let seen = &buf[..n];
    let head_end = (0..n).find_map(|i| {
        let rest = &seen[i..];
        if rest.starts_with(b"\r\n\r\n") {
            Some(i + 4)
        } else if rest.starts_with(b"\n\n") {
            Some(i + 2)
        } else {
            None
        }
    });
    match head_end {
        None => n == 0,
        Some(end) => {
            let head = String::from_utf8_lossy(&seen[..end]);
            n >= end + content_length(head.lines().skip(1))
        }
    }
}

fn write_response(stream: &mut TcpStream, resp: &OpsResponse) -> std::io::Result<()> {
    let reason = match resp.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let mut body = resp.body.clone();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason,
        body.len()
    );
    crate::framing::write_parts(stream, &[head.as_bytes(), body.as_bytes()])
}

/// A one-shot plaintext HTTP client for the ops protocol — what
/// `flowctl` (and tests) use to scrape `/stats` or post `/reload`
/// without an HTTP dependency. Returns `(status, body)`.
pub fn ops_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(5_000)))?;
    let req = format!(
        "{method} {path} HTTP/1.0\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, payload) = match raw.split_once("\r\n\r\n") {
        Some((h, b)) => (h, b),
        None => raw.split_once("\n\n").unwrap_or((raw.as_str(), "")),
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_page_roundtrip_and_stop_frees_port() {
        let handle = spawn_ops("127.0.0.1:0", |req| {
            match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/stats") => OpsResponse::ok("frames 42"),
                ("POST", "/reload") => OpsResponse::ok(format!("applied {}", req.body.trim())),
                _ => OpsResponse::not_found(),
            }
        })
        .unwrap();
        let addr = handle.local_addr().to_string();

        let (status, body) = ops_request(&addr, "GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.trim(), "frames 42");

        let (status, body) = ops_request(&addr, "POST", "/reload", "linger-ms=5").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.trim(), "applied linger-ms=5");

        let (status, _) = ops_request(&addr, "GET", "/nope", "").unwrap();
        assert_eq!(status, 404);

        handle.stop();
        // The port is released: a new bind on the same address works.
        let rebind = std::net::TcpListener::bind(&addr);
        assert!(rebind.is_ok(), "port not freed: {rebind:?}");
    }

    /// A listener parked in `accept` wakes on stop on every kind of
    /// bind — loopback, wildcard, IPv6 — promptly, and frees the port.
    #[test]
    fn stop_wakes_the_parked_accept_on_any_bind() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0", "[::]:0"] {
            let handle = spawn_ops(bind, |_| OpsResponse::ok("ok")).unwrap();
            let addr = handle.local_addr();
            let (status, _) = ops_request(&wake_addr(addr).to_string(), "GET", "/", "").unwrap();
            assert_eq!(status, 200, "{bind} serves");
            let start = std::time::Instant::now();
            handle.stop();
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{bind}: stop took {:?}",
                start.elapsed()
            );
            let rebind = TcpListener::bind(addr);
            assert!(rebind.is_ok(), "{bind}: port not freed: {rebind:?}");
        }
    }

    /// A request whose head arrives in pieces misses the inline path
    /// and is still answered, from a thread of its own.
    #[test]
    fn a_request_split_across_segments_is_answered() {
        let handle = spawn_ops("127.0.0.1:0", |req| OpsResponse::ok(req.body.clone())).unwrap();
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(b"POST /reload HTTP/1.0\r\nContent-Length: 5\r\n")
            .unwrap();
        std::thread::sleep(INLINE_WAIT * 5);
        s.write_all(b"\r\nhello").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 200"), "{raw}");
        assert!(raw.ends_with("hello\n"), "{raw}");
        handle.stop();
    }

    #[test]
    fn request_ready_needs_the_whole_head_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        assert!(!request_ready(&server), "nothing sent yet");
        client
            .write_all(b"POST /reload HTTP/1.0\r\nContent-Length: 3\r\n\r\nab")
            .unwrap();
        while server.peek(&mut [0u8; 64]).unwrap_or(0) < 46 {}
        assert!(!request_ready(&server), "one body byte short");
        client.write_all(b"c").unwrap();
        while server.peek(&mut [0u8; 64]).unwrap_or(0) < 47 {}
        assert!(request_ready(&server));
        drop(client);
    }

    #[test]
    fn every_request_is_counted_once() {
        let tel = NodeTelemetry::default();
        let count = |tel: &NodeTelemetry| tel.requests.load(Ordering::Relaxed);
        let get = |path: &str| OpsRequest {
            method: "GET".into(),
            path: path.into(),
            body: String::new(),
        };
        let own = || OpsResponse::not_found();
        assert_eq!(tel.serve(&get("/stats"), Stats::new, own).status, 200);
        assert_eq!(tel.serve(&get("/health"), Stats::new, own).status, 404);
        let post = OpsRequest {
            method: "POST".into(),
            ..get("/reload")
        };
        assert_eq!(tel.serve(&post, Stats::new, own).status, 404);
        assert_eq!(count(&tel), 3);
        // The scrape that reads the counter has already been counted.
        assert!(tel
            .serve(&get("/metrics"), || tel.stats("site", "s"), own)
            .body
            .contains("flowtree_ops_requests_total 4"));
    }

    /// The satellite fix this PR pins: a scraper that connects and
    /// then stalls must not block other requests — connections are
    /// served concurrently with per-connection timeouts.
    #[test]
    fn stalled_scraper_does_not_block_health() {
        let handle = spawn_ops("127.0.0.1:0", |req| match req.path.as_str() {
            "/health" => OpsResponse::ok("ok true"),
            _ => OpsResponse::not_found(),
        })
        .unwrap();
        let addr = handle.local_addr().to_string();

        // Open a connection and send nothing: without per-connection
        // threads this parks the accept loop in read() for the whole
        // read-timeout window.
        let stalled = TcpStream::connect(&addr).unwrap();

        let start = std::time::Instant::now();
        let (status, body) = ops_request(&addr, "GET", "/health", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.trim(), "ok true");
        assert!(
            start.elapsed() < Duration::from_millis(1_500),
            "health blocked behind a stalled connection: {:?}",
            start.elapsed()
        );
        drop(stalled);
        handle.stop();
    }
}
