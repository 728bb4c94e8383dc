//! Every framed TCP connection of a running fleet has `TCP_NODELAY` on
//! **both** ends: site shipper → relay ingest, relay export shipper →
//! parent ingest, and query client → relay query. Without it a frame's
//! tail waits behind Nagle for the peer's delayed ACK (~40 ms a hop).
//!
//! The accepted ends live inside the nodes, so the test reads them the
//! way an operator would with `ss`: it walks this process's open file
//! descriptors (the whole fleet runs in-process) and asks each TCP
//! socket for its addresses and its `TCP_NODELAY` flag.

#![cfg(target_os = "linux")]

use flowdist::runtime::{SiteNodeConfig, SiteRuntime};
use flownet::FlowRecord;
use flowrelay::server::query_remote;
use flowrelay::spec::FleetSpec;
use std::mem::ManuallyDrop;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::fd::{FromRawFd, RawFd};
use std::time::{Duration, Instant};

const SPEC: &str = "\
[defaults]
linger-ms = 50
drain-every-ms = 10
window-ms = 1000
batch = 32

[site 0]
upstream = leaf

[relay leaf]
agg-site = 1001
sites = 0
parent = root
[relay root]
agg-site = 2000
";

/// One connected TCP socket open in this process.
#[derive(Debug)]
struct Sock {
    local: SocketAddr,
    peer: SocketAddr,
    nodelay: bool,
}

/// Every connected TCP socket this process holds open.
fn tcp_sockets() -> Vec<Sock> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .flatten()
    {
        let is_socket = std::fs::read_link(entry.path())
            .is_ok_and(|t| t.to_string_lossy().starts_with("socket:"));
        let fd = entry.file_name().to_string_lossy().parse::<RawFd>();
        let (true, Ok(fd)) = (is_socket, fd) else {
            continue;
        };
        // SAFETY: the descriptor is open (just listed) and is only
        // queried, never closed — `ManuallyDrop` keeps ownership with
        // the node that holds it. A descriptor closed in the meantime
        // fails the queries below and is skipped; UDP sockets and
        // listeners fail them too (no TCP option, no peer).
        let stream = ManuallyDrop::new(unsafe { TcpStream::from_raw_fd(fd) });
        if let (Ok(local), Ok(peer), Ok(nodelay)) =
            (stream.local_addr(), stream.peer_addr(), stream.nodelay())
        {
            out.push(Sock {
                local,
                peer,
                nodelay,
            });
        }
    }
    out
}

/// The dialled and the accepted ends of every connection to `server`.
fn ends(socks: &[Sock], server: SocketAddr) -> (Vec<&Sock>, Vec<&Sock>) {
    (
        socks.iter().filter(|s| s.peer == server).collect(),
        socks.iter().filter(|s| s.local == server).collect(),
    )
}

#[test]
fn every_framed_connection_is_nodelay_on_both_ends() {
    let spec = FleetSpec::parse(SPEC).expect("spec parses");
    let relays = spec.boot_relays().expect("relays boot");
    let relay = |name: &str| {
        relays
            .iter()
            .find(|r| r.name() == name)
            .expect("relay booted")
    };
    let (leaf, root) = (relay("leaf"), relay("root"));
    let mut cfg = SiteNodeConfig::new(0, leaf.ingest_addr().to_string());
    cfg.window_ms = 1_000;
    cfg.batch = 32;
    let site = SiteRuntime::start(cfg).expect("site boots");

    // Three windows well behind the wall clock: the first closes at
    // the site and ships, and the leaf exports it past its linger.
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let w0 = (now_ms / 1_000 - 4) * 1_000;
    let records: Vec<FlowRecord> = (0..120u64)
        .map(|i| {
            let ts = w0 + (i / 40) * 1_000 + i;
            let mut r = FlowRecord::v4([10, 0, 0, i as u8], [192, 0, 2, 1], 1_000, 443, 6, 1, 64);
            r.first_ms = ts;
            r.last_ms = ts;
            r
        })
        .collect();
    let sender = UdpSocket::bind("127.0.0.1:0").expect("udp bind");
    flowdist::net::export_netflow(&sender, site.ingest_addr(), &records, now_ms).expect("send");

    // The system's own query client against the leaf; kept open.
    let mut query = TcpStream::connect(leaf.query_addr()).expect("connect query");
    query_remote(&mut query, "pop")
        .expect("transport ok")
        .expect("valid query");

    let links = [
        ("site shipper -> relay ingest", leaf.ingest_addr()),
        ("export shipper -> parent ingest", root.ingest_addr()),
        ("query client -> relay query", leaf.query_addr()),
    ];
    // A node sets the option on an accepted socket right after
    // `accept` returns, on its own thread: a scan can land in between,
    // so poll until every end reports it (or the deadline passes).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let socks = tcp_sockets();
        let live = links.iter().all(|(_, addr)| {
            let (dialled, accepted) = ends(&socks, *addr);
            !dialled.is_empty() && !accepted.is_empty()
        });
        let all_nodelay = links.iter().all(|(_, addr)| {
            let (dialled, accepted) = ends(&socks, *addr);
            dialled.iter().chain(&accepted).all(|s| s.nodelay)
        });
        if live && all_nodelay {
            break;
        }
        if Instant::now() >= deadline {
            assert!(live, "connections never came up: {socks:?}");
            for (what, addr) in links {
                let (dialled, accepted) = ends(&socks, addr);
                for s in dialled.iter().chain(&accepted) {
                    assert!(s.nodelay, "{what}: TCP_NODELAY off on {s:?}");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    drop(query);
    site.drain(Duration::from_secs(10));
    for rt in relays.into_iter().rev() {
        rt.drain(Duration::from_secs(10));
    }
}
