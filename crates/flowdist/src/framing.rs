//! Length-prefixed TCP framing — the one copy.
//!
//! Every TCP surface in the system (summary export, acknowledged
//! ingest, the relay query protocol) speaks the same frame format: a
//! `u32` big-endian length followed by that many payload bytes,
//! bounded by [`MAX_FRAME`]. The raw [`read_frame`] / [`write_frame`]
//! pair used to live in [`crate::net`] with the connection-serving
//! read loop re-implemented at every call site; this module is the
//! shared home for both, so `flowdist` and `flowrelay` stop carrying
//! divergent copies.
//!
//! [`FramedConn`] wraps one `TcpStream` the way every server loop
//! ended up doing by hand: a persistent buffered reader on a cloned
//! read half (per-request readers would drop their read-ahead and
//! desynchronize pipelined clients) and an unbuffered write half that
//! flushes per frame.
//!
//! Latency contract: a frame leaves in **one** write, and every framed
//! stream the system dials ([`connect`]) or accepts ([`FramedConn::new`],
//! hence [`serve_framed`]) has `TCP_NODELAY` set. Either half alone is
//! not enough: a length prefix written on its own is a small segment
//! Nagle holds the body behind until the peer's delayed ACK (~40 ms)
//! arrives, and even a one-write frame on a Nagle socket holds its
//! last partial segment while earlier data is unacknowledged.

use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on a frame accepted from the network (16 MiB).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Sets the socket options every framed stream runs with:
/// `TCP_NODELAY`, so each frame is sent as soon as it is written.
fn configure(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

/// Dials `addr` with `TCP_NODELAY` set — how every framed connection
/// in the system is opened. Each resolved address gets `timeout`.
pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved");
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(stream) => return configure(&stream).map(|()| stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Writes `parts` back to back as **one** write (then flushes): a sink
/// that accepts the whole buffer sees a single `write` call, so the
/// parts leave in one segment rather than a small one the next part
/// waits behind.
pub(crate) fn write_parts<W: Write>(mut w: W, parts: &[&[u8]]) -> std::io::Result<()> {
    w.write_all(&parts.concat())?;
    w.flush()
}

/// Writes one length-prefixed frame, length and body in one write.
pub fn write_frame<W: Write>(w: W, frame: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    write_parts(w, &[&len.to_be_bytes(), frame])
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame<R: Read>(mut r: R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    let mut frame = vec![0u8; len as usize];
    r.read_exact(&mut frame)?;
    Ok(Some(frame))
}

/// One framed TCP connection: a persistent buffered read half and a
/// flushing write half over the same stream.
///
/// The reader lives for the connection, never per request — a
/// per-request `BufReader` would discard its read-ahead each
/// iteration, so a client pipelining two frames into one segment
/// would lose the second and desynchronize the stream.
#[derive(Debug)]
pub struct FramedConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl FramedConn {
    /// Wraps an established stream (clones the read half) and sets
    /// `TCP_NODELAY` on it — so every connection [`serve_framed`]
    /// accepts runs without Nagle.
    pub fn new(stream: TcpStream) -> std::io::Result<FramedConn> {
        configure(&stream)?;
        let read_half = stream.try_clone()?;
        Ok(FramedConn {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Receives the next frame; `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        read_frame(&mut self.reader)
    }

    /// Sends one frame (flushes).
    pub fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    /// One request → one response round trip.
    pub fn call(&mut self, request: &[u8]) -> std::io::Result<Vec<u8>> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
        })
    }

    /// The underlying stream (e.g. for timeouts).
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }
}

/// Serves one connection with a frame handler until the peer closes
/// it: every received frame is passed to `handle`; a `Some` reply is
/// written back. Returns how many frames were received.
///
/// This is the shared shape of every per-connection server loop in
/// the system (summary ingest, acknowledged ingest, the query
/// protocol) — the call sites differ only in the handler.
pub fn serve_framed<F>(stream: TcpStream, mut handle: F) -> std::io::Result<usize>
where
    F: FnMut(Vec<u8>) -> Option<Vec<u8>>,
{
    let mut conn = FramedConn::new(stream)?;
    let mut served = 0usize;
    while let Some(frame) = conn.recv()? {
        served += 1;
        if let Some(reply) = handle(frame) {
            conn.send(&reply)?;
        }
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn frame_roundtrip_over_buffers() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A sink that accepts every buffer whole and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        flushes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for body in [&b""[..], b"hello", &[7u8; 70_000]] {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, body).unwrap();
            assert_eq!(sink.writes, 1, "{}-byte frame", body.len());
            assert_eq!(sink.flushes, 1);
            assert_eq!(read_frame(&sink.bytes[..]).unwrap().unwrap(), body);
        }
        let mut sink = CountingSink::default();
        write_parts(&mut sink, &[b"head\r\n\r\n", b"body"]).unwrap();
        assert_eq!(
            (sink.writes, sink.bytes.as_slice()),
            (1, &b"head\r\n\r\nbody"[..])
        );
    }

    #[test]
    fn framed_streams_are_nodelay_on_both_sides() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialled = connect(addr, Duration::from_secs(5)).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(dialled.nodelay().unwrap(), "framing::connect");
        let conn = FramedConn::new(accepted).unwrap();
        assert!(conn.stream().nodelay().unwrap(), "FramedConn::new");
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(write_frame(Vec::new(), &huge).is_err());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&buf[..]).is_err());
        // A truncated body is an error, not `None` (that is clean EOF).
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&buf[..]).is_err());
    }

    #[test]
    fn framed_conn_pipelines_and_serves() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_framed(stream, |frame| {
                let mut reply = frame;
                reply.reverse();
                Some(reply)
            })
            .unwrap()
        });
        let mut conn = FramedConn::new(connect(addr, Duration::from_secs(5)).unwrap()).unwrap();
        // Pipeline two requests before reading a single response: the
        // persistent reader must not lose the second frame.
        conn.send(b"abc").unwrap();
        conn.send(b"xyz").unwrap();
        assert_eq!(conn.recv().unwrap().unwrap(), b"cba");
        assert_eq!(conn.recv().unwrap().unwrap(), b"zyx");
        drop(conn);
        assert_eq!(server.join().unwrap(), 2);
    }
}
