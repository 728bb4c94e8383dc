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
//! The server itself is node-agnostic: [`spawn_ops`] parks an
//! accept-poll loop on a thread and hands every parsed request to the
//! node's handler closure. [`OpsHandle::stop`] is cooperative and
//! frees the port (the loop polls a nonblocking listener instead of
//! parking in `accept`), so a drained node releases its endpoint.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// A running ops endpoint (see [`spawn_ops`]).
#[derive(Debug)]
pub struct OpsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl OpsHandle {
    /// The bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the loop and frees the port.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for OpsHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// How long a single ops connection may take to deliver its request
/// or absorb its response before the server hangs up. Scrapes are
/// local one-packet exchanges; anything slower is a stalled or
/// hostile peer that must not hold resources.
const CONN_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Binds `addr` and serves ops requests on a background thread. Each
/// accepted connection is handed to a short-lived thread with read
/// *and* write timeouts, so one slow or stalled scraper can't block
/// `/health` for the whole node; the handler itself must be
/// thread-safe and cheap (snapshot counters, flip a flag) — this is a
/// stats page, not an API gateway.
pub fn spawn_ops<F>(addr: &str, handler: F) -> std::io::Result<OpsHandle>
where
    F: Fn(&OpsRequest) -> OpsResponse + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let join = std::thread::Builder::new()
        .name("ops".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // One short-lived thread per connection: the
                        // accept loop goes right back to listening, so
                        // a scraper that stalls mid-request only ties
                        // up its own thread until the timeout fires.
                        let handler = Arc::clone(&handler);
                        let spawned =
                            std::thread::Builder::new()
                                .name("ops-conn".into())
                                .spawn(move || {
                                    let _ = serve_one(stream, &*handler);
                                });
                        if spawned.is_err() {
                            // Thread exhaustion: shed the connection
                            // rather than wedge the accept loop.
                            continue;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        })?;
    Ok(OpsHandle {
        addr: local,
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
    stream.set_nonblocking(false)?;
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
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Read byte-wise until the blank line; head sizes here are tiny
    // and this keeps any body bytes out of a read-ahead buffer.
    loop {
        match stream.read(&mut byte)? {
            0 => return Ok(None),
            _ => head.push(byte[0]),
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
        if head.len() > MAX_HEAD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
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
    let mut content_length = 0usize;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    if content_length > MAX_BODY {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        stream.read_exact(&mut body)?;
    }
    Ok(Some(OpsRequest {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    }))
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
