//! Best-effort socket and scheduler knobs (`SO_RCVBUF`,
//! `SO_REUSEPORT`, `sched_setaffinity`).
//!
//! A collector drinking from a UDP firehose lives or dies by the
//! kernel receive buffer: the default is far too small for a burst of
//! exporters flushing at once, and every overflow is an invisible
//! drop. std exposes no API for `SO_RCVBUF`, so this module holds the
//! workspace's raw-syscall seam — a handful of `unsafe` FFI calls on
//! fds we own, gated to Linux (elsewhere each knob reports back `None`
//! or `false` and the caller proceeds with the portable path).
//!
//! Three knobs live here:
//!
//! * [`set_recv_buffer`] — `SO_RCVBUF` on an existing socket.
//! * [`bind_reuseport`] — bind a UDP socket with `SO_REUSEPORT` set
//!   *before* `bind(2)` (std binds eagerly, so this needs the raw
//!   `socket`/`setsockopt`/`bind` sequence). N sockets bound this way
//!   to one port let the kernel fan incoming datagrams across N
//!   independent readers — the multi-lane ingest path.
//! * [`pin_current_thread`] / [`unpin_current_thread`] — opt-in CPU
//!   affinity for listen lanes.
//!
//! Everything is best-effort by design: the kernel clamps `SO_RCVBUF`
//! requests to `net.core.rmem_max` (and doubles them for bookkeeping),
//! so the *achieved* size — what [`set_recv_buffer`] returns — is the
//! truth to surface in stats, not the requested one. Likewise a failed
//! reuseport bind or affinity call degrades to the portable behavior
//! rather than erroring out.

use std::net::{SocketAddr, UdpSocket};

/// Requests a receive buffer of `bytes` for `socket` and returns the
/// size the kernel actually granted (`None` when the platform has no
/// support or the call failed — the socket keeps its default).
#[cfg(target_os = "linux")]
pub fn set_recv_buffer(socket: &std::net::UdpSocket, bytes: usize) -> Option<usize> {
    use std::os::fd::AsRawFd;
    imp::set_and_read_rcvbuf(socket.as_raw_fd(), bytes)
}

/// Non-Linux fallback: no support, socket keeps the OS default.
#[cfg(not(target_os = "linux"))]
pub fn set_recv_buffer(_socket: &std::net::UdpSocket, _bytes: usize) -> Option<usize> {
    None
}

/// Binds a UDP socket to `addr` with `SO_REUSEPORT` set before the
/// bind, so several sockets can share one port and the kernel fans
/// datagrams across them. Returns `None` when the platform has no
/// support (callers fall back to a single socket feeding lanes over a
/// ring) or when any step of the raw sequence fails.
#[cfg(target_os = "linux")]
pub fn bind_reuseport(addr: SocketAddr) -> Option<UdpSocket> {
    imp::bind_reuseport(addr)
}

/// Non-Linux fallback: no `SO_REUSEPORT` bind, callers use the single
/// socket + fanout-ring path.
#[cfg(not(target_os = "linux"))]
pub fn bind_reuseport(_addr: SocketAddr) -> Option<UdpSocket> {
    None
}

/// Pins the calling thread to `core` (modulo the number of online
/// CPUs). Returns `true` when the affinity call succeeded; `false` on
/// unsupported platforms or failure — callers carry on unpinned.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> bool {
    imp::set_affinity_one(core % online_cpus())
}

/// Non-Linux fallback: affinity is not supported; threads float.
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> bool {
    false
}

/// Clears any pinning on the calling thread (affinity mask = all
/// CPUs). Returns `true` on success — the live-reload path for
/// `pin-cores=0`.
#[cfg(target_os = "linux")]
pub fn unpin_current_thread() -> bool {
    imp::set_affinity_all()
}

/// Non-Linux fallback: nothing was pinned, nothing to clear.
#[cfg(not(target_os = "linux"))]
pub fn unpin_current_thread() -> bool {
    false
}

/// Number of online CPUs (at least 1) — the modulus for lane → core
/// assignment.
pub fn online_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use std::net::{SocketAddr, UdpSocket};
    use std::os::raw::{c_int, c_uint, c_void};

    // asm-generic values, correct for every Linux target this
    // workspace builds (x86_64, aarch64, riscv).
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    const SO_REUSEPORT: c_int = 15;
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_DGRAM: c_int = 2;
    const SOCK_CLOEXEC: c_int = 0o2000000;

    // std links libc on Linux; declaring the symbols here avoids a
    // crate dependency the offline build environment cannot add.
    unsafe extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: c_uint,
        ) -> c_int;
        fn getsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *mut c_void,
            len: *mut c_uint,
        ) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_void) -> c_int;
    }

    pub fn set_and_read_rcvbuf(fd: c_int, bytes: usize) -> Option<usize> {
        let requested: c_int = bytes.min(c_int::MAX as usize) as c_int;
        // SAFETY: fd is a live socket owned by the caller for the
        // duration of the call; the value pointer and length describe
        // a properly aligned c_int on this stack frame.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_RCVBUF,
                (&requested as *const c_int).cast(),
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            return None;
        }
        let mut achieved: c_int = 0;
        let mut len = std::mem::size_of::<c_int>() as c_uint;
        // SAFETY: same fd; the out-pointer and in/out length describe
        // the `achieved` c_int above.
        let rc = unsafe {
            getsockopt(
                fd,
                SOL_SOCKET,
                SO_RCVBUF,
                (&mut achieved as *mut c_int).cast(),
                &mut len,
            )
        };
        if rc != 0 || achieved < 0 {
            return None;
        }
        Some(achieved as usize)
    }

    /// sockaddr_in / sockaddr_in6 laid out by hand: family is a
    /// native-endian u16, port and address bytes are big-endian, and
    /// the v6 form carries flowinfo + scope_id as native u32s.
    fn sockaddr_bytes(addr: SocketAddr) -> ([u8; 28], c_uint) {
        let mut buf = [0u8; 28];
        match addr {
            SocketAddr::V4(v4) => {
                buf[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
                buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v4.ip().octets());
                (buf, 16)
            }
            SocketAddr::V6(v6) => {
                buf[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
                buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                buf[8..24].copy_from_slice(&v6.ip().octets());
                buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (buf, 28)
            }
        }
    }

    pub fn bind_reuseport(addr: SocketAddr) -> Option<UdpSocket> {
        use std::os::fd::FromRawFd;
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain socket(2); a negative return is checked below
        // and the fd is owned by this function until handed to
        // UdpSocket::from_raw_fd.
        let fd = unsafe { socket(domain, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return None;
        }
        let on: c_int = 1;
        // SAFETY: fd is the live socket created above; value/len
        // describe an aligned c_int on this frame.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                (&on as *const c_int).cast(),
                std::mem::size_of::<c_int>() as c_uint,
            )
        };
        if rc != 0 {
            // SAFETY: closing the fd we created; it is not yet owned
            // by any Rust object.
            unsafe { close(fd) };
            return None;
        }
        let (sa, sa_len) = sockaddr_bytes(addr);
        // SAFETY: same fd; the pointer/length describe the sockaddr
        // buffer built above, valid for the duration of the call.
        let rc = unsafe { bind(fd, sa.as_ptr().cast(), sa_len) };
        if rc != 0 {
            // SAFETY: as above — fd still owned here.
            unsafe { close(fd) };
            return None;
        }
        // SAFETY: fd is a freshly bound UDP socket nothing else owns;
        // from_raw_fd transfers ownership to the UdpSocket.
        Some(unsafe { UdpSocket::from_raw_fd(fd) })
    }

    /// 1024-bit cpu_set_t, the kernel ABI's fixed-size default.
    const CPU_SET_WORDS: usize = 16;

    fn apply_mask(mask: &[u64; CPU_SET_WORDS]) -> bool {
        // SAFETY: pid 0 = calling thread; the mask pointer/size
        // describe the [u64; 16] (128 bytes = kernel cpu_set_t) on
        // this stack frame.
        let rc = unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of::<[u64; CPU_SET_WORDS]>(),
                mask.as_ptr().cast(),
            )
        };
        rc == 0
    }

    pub fn set_affinity_one(core: usize) -> bool {
        if core >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[core / 64] = 1u64 << (core % 64);
        apply_mask(&mask)
    }

    pub fn set_affinity_all() -> bool {
        // All bits set: the kernel intersects with the online CPU set,
        // which is exactly "unpinned".
        apply_mask(&[u64::MAX; CPU_SET_WORDS])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn achieved_size_is_reported_and_nonzero() {
        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let achieved = set_recv_buffer(&sock, 256 * 1024);
        // The kernel may clamp (rmem_max) or double, but it grants
        // *something* and reports it back.
        let achieved = achieved.expect("linux supports SO_RCVBUF");
        assert!(achieved > 0);
    }

    #[test]
    fn zero_request_does_not_panic() {
        let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let _ = set_recv_buffer(&sock, 0);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reuseport_sockets_share_a_port_and_deliver() {
        let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).expect("linux reuseport");
        let port = a.local_addr().unwrap().port();
        let b = bind_reuseport(format!("127.0.0.1:{port}").parse().unwrap())
            .expect("second reuseport bind on same port");
        assert_eq!(b.local_addr().unwrap().port(), port);

        // A datagram lands on exactly one of the two sockets.
        let tx = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        tx.send_to(b"ping", ("127.0.0.1", port)).unwrap();
        a.set_read_timeout(Some(std::time::Duration::from_millis(300)))
            .unwrap();
        b.set_read_timeout(Some(std::time::Duration::from_millis(300)))
            .unwrap();
        let mut buf = [0u8; 16];
        let got_a = a.recv_from(&mut buf).map(|(n, _)| n).ok();
        let got_b = b.recv_from(&mut buf).map(|(n, _)| n).ok();
        assert!(got_a == Some(4) || got_b == Some(4));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn reuseport_v6_binds_when_stack_present() {
        // Dual-stack hosts bind; v6-less containers return None — both
        // are acceptable, the call must simply not misbehave.
        if let Some(sock) = bind_reuseport("[::1]:0".parse().unwrap()) {
            assert!(sock.local_addr().unwrap().port() > 0);
        }
    }

    #[test]
    fn pin_and_unpin_round_trip() {
        // On Linux pinning to core 0 always succeeds (every machine
        // has a CPU 0); elsewhere both calls report false.
        let pinned = pin_current_thread(0);
        let cleared = unpin_current_thread();
        if cfg!(target_os = "linux") {
            assert!(pinned);
            assert!(cleared);
        } else {
            assert!(!pinned);
            assert!(!cleared);
        }
    }

    #[test]
    fn online_cpus_is_at_least_one() {
        assert!(online_cpus() >= 1);
    }
}
