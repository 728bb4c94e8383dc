//! Normalized flow records — the unit a Flowtree daemon consumes.

use flowkey::{FlowKey, IpNet, PortRange, Proto};
use std::net::{IpAddr, Ipv4Addr};

/// A flow record as produced by a router's export engine (NetFlow/IPFIX)
/// or by our own [`FlowCache`](crate::exporter::FlowCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Source port (0 when not applicable).
    pub sport: u16,
    /// Destination port (0 when not applicable).
    pub dport: u16,
    /// IP protocol number.
    pub proto: u8,
    /// Packets in the flow.
    pub packets: u64,
    /// Bytes in the flow.
    pub bytes: u64,
    /// Flow start, milliseconds since the Unix epoch.
    pub first_ms: u64,
    /// Flow end, milliseconds since the Unix epoch.
    pub last_ms: u64,
}

impl FlowRecord {
    /// A minimal IPv4 record (timestamps zero) — test/bench helper.
    pub fn v4(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        proto: u8,
        packets: u64,
        bytes: u64,
    ) -> FlowRecord {
        FlowRecord {
            src: IpAddr::V4(Ipv4Addr::from(src)),
            dst: IpAddr::V4(Ipv4Addr::from(dst)),
            sport,
            dport,
            proto,
            packets,
            bytes,
            first_ms: 0,
            last_ms: 0,
        }
    }

    /// The fully-specified 5-tuple key of this record.
    pub fn flow_key(&self) -> FlowKey {
        let src = match self.src {
            IpAddr::V4(a) => IpNet::v4_host(a),
            IpAddr::V6(a) => IpNet::v6_host(a),
        };
        let dst = match self.dst {
            IpAddr::V4(a) => IpNet::v4_host(a),
            IpAddr::V6(a) => IpNet::v6_host(a),
        };
        FlowKey {
            src,
            dst,
            sport: PortRange::port(self.sport),
            dport: PortRange::port(self.dport),
            proto: Proto::Is(self.proto),
            ..FlowKey::ROOT
        }
    }

    /// Flow duration in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.last_ms.saturating_sub(self.first_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_of_v4_record() {
        let r = FlowRecord::v4([10, 0, 0, 1], [192, 0, 2, 5], 1234, 80, 6, 10, 5000);
        assert_eq!(
            r.flow_key().to_string(),
            "src=10.0.0.1/32 dst=192.0.2.5/32 sport=1234 dport=80 proto=tcp"
        );
    }

    #[test]
    fn duration_saturates() {
        let mut r = FlowRecord::v4([1; 4], [2; 4], 1, 1, 17, 1, 1);
        r.first_ms = 100;
        r.last_ms = 50;
        assert_eq!(r.duration_ms(), 0);
        r.last_ms = 260;
        assert_eq!(r.duration_ms(), 160);
    }
}
