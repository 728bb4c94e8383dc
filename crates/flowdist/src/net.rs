//! Real-socket exporters in front of a site daemon:
//! [`export_netflow`] (NetFlow v5) and [`export_ipfix`] (IPFIX,
//! templates first) send flow records to a UDP address the way a
//! router would. The receiving side is
//! [`crate::lane::spawn_multi_lane_ingest`], which decodes every
//! dialect; the site ships its summaries on through
//! [`crate::export`].
//!
//! Everything here is synchronous `std::net` (the offline dependency
//! set has no async runtime, and none is needed at this scale).

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
