//! Real-socket transports at both ends of a site daemon.
//!
//! * Exporters — [`export_netflow`] (NetFlow v5) and [`export_ipfix`]
//!   (IPFIX, templates first) send flow records to a UDP address the
//!   way a router would. The receiving side is
//!   [`crate::lane::spawn_multi_lane_ingest`], which decodes every
//!   dialect.
//! * Collector-side receive — [`receive_summaries`] drains
//!   length-prefixed summary frames ([`crate::framing`]) from one TCP
//!   connection into a [`crate::Collector`].
//!
//! Everything here is synchronous `std::net`; the collector fan-in is
//! modest, so threads suffice (the offline dependency set has no async
//! runtime, and none is needed at this scale).

use crate::DistError;
use flownet::netflow5;
use flownet::FlowRecord;
use std::net::{SocketAddr, UdpSocket};

/// Sends flow records to a NetFlow v5 collector address in ≤ 30-record
/// packets; returns the number of datagrams sent.
pub fn export_netflow(
    socket: &UdpSocket,
    to: SocketAddr,
    records: &[FlowRecord],
    base_ms: u64,
) -> Result<usize, DistError> {
    let mut sent = 0usize;
    let mut seq = 0u32;
    for chunk in records.chunks(netflow5::MAX_RECORDS) {
        let pkt = netflow5::encode(chunk, base_ms, seq);
        socket.send_to(&pkt, to).map_err(DistError::Io)?;
        seq = seq.wrapping_add(chunk.len() as u32);
        sent += 1;
    }
    Ok(sent)
}

/// Sends flow records to an IPFIX collector, templates first, in
/// ≤ `batch` record messages; returns the number of datagrams sent.
pub fn export_ipfix(
    socket: &UdpSocket,
    to: SocketAddr,
    records: &[FlowRecord],
    export_time: u32,
    domain: u32,
) -> Result<usize, DistError> {
    let mut sent = 0usize;
    let mut seq = 0u32;
    let batch = 200usize;
    let mut first = true;
    for chunk in records.chunks(batch.max(1)) {
        let msg = flownet::ipfix::encode_message(chunk, export_time, seq, domain, first);
        first = false;
        socket.send_to(&msg, to).map_err(DistError::Io)?;
        seq = seq.wrapping_add(chunk.len() as u32);
        sent += 1;
    }
    // An empty record set still announces templates once.
    if records.is_empty() {
        let msg = flownet::ipfix::encode_message(&[], export_time, seq, domain, true);
        socket.send_to(&msg, to).map_err(DistError::Io)?;
        sent += 1;
    }
    Ok(sent)
}

/// Reads length-prefixed summary frames from one TCP connection until
/// EOF, applying each to the collector. Returns (applied, rejected) —
/// a malformed frame is counted and skipped, not fatal, so one bad
/// exporter cannot take the collector down.
pub fn receive_summaries(
    stream: &mut std::net::TcpStream,
    collector: &mut crate::Collector,
) -> Result<(usize, usize), DistError> {
    let (mut applied, mut rejected) = (0usize, 0usize);
    let owned = stream.try_clone().map_err(DistError::Io)?;
    crate::framing::serve_framed(owned, |frame| {
        match collector.apply_bytes(&frame) {
            Ok(()) => applied += 1,
            Err(_) => rejected += 1,
        }
        None
    })
    .map_err(DistError::Io)?;
    Ok((applied, rejected))
}

#[cfg(test)]
mod tests {
    use crate::framing::{read_frame, write_frame, MAX_FRAME};

    #[test]
    fn frame_roundtrip_over_buffers() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected_both_ways() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&buf[..]).is_err());
        // Truncated body is an error, not None.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&buf[..]).is_err());
    }
}

#[cfg(test)]
mod tcp_tests {
    use super::*;
    use crate::daemon::{DaemonConfig, SiteDaemon, TransferMode};
    use crate::framing::write_frame;
    use crate::Collector;
    use flowkey::Schema;
    use flowtree_core::Config;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn summaries_over_tcp_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        // Site side: produce summaries and stream them over TCP.
        let sender = std::thread::spawn(move || {
            let mut cfg = DaemonConfig::new(7);
            cfg.window_ms = 1_000;
            cfg.schema = Schema::five_feature();
            cfg.tree = Config::with_budget(512);
            cfg.transfer = TransferMode::Full;
            let mut d = SiteDaemon::new(cfg);
            let mut frames = Vec::new();
            for w in 0..4u64 {
                for h in 0..5u8 {
                    let mut r =
                        flownet::FlowRecord::v4([10, 7, 0, h], [192, 0, 2, 1], 999, 443, 6, 2, 200);
                    r.first_ms = w * 1_000 + 50;
                    r.last_ms = r.first_ms;
                    frames.extend(d.ingest_record(&r).into_iter().map(|s| s.encode()));
                }
            }
            frames.extend(d.flush().into_iter().map(|s| s.encode()));
            let mut stream = TcpStream::connect(addr).unwrap();
            let n = frames.len();
            for f in frames {
                write_frame(&mut stream, &f).unwrap();
            }
            n
        });

        // Collector side: accept one connection, drain it.
        let (mut conn, _) = listener.accept().unwrap();
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(512));
        let (applied, rejected) = receive_summaries(&mut conn, &mut collector).unwrap();
        let sent = sender.join().unwrap();
        assert_eq!(applied, sent);
        assert_eq!(rejected, 0);
        assert_eq!(collector.stored_windows(), 4);
        assert_eq!(collector.merged(None, 0, u64::MAX).total().packets, 40);
    }

    #[test]
    fn corrupt_tcp_frames_are_skipped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, b"this is not a summary frame").unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let mut collector = Collector::new(Schema::five_feature(), Config::with_budget(64));
        let (applied, rejected) = receive_summaries(&mut conn, &mut collector).unwrap();
        sender.join().unwrap();
        assert_eq!((applied, rejected), (0, 1));
        assert_eq!(collector.stored_windows(), 0);
    }
}
