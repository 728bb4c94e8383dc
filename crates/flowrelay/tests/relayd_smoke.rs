//! End-to-end smoke of the `relayd` binary: real process, real
//! sockets — frames in over TCP, a routed query answer out.

use flowdist::{Summary, WindowId};
use flowkey::{FlowKey, Schema};
use flowrelay::server::{query_remote, ship_summaries};
use flowtree_core::{Config, FlowTree, Popularity};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

fn site_summary(site: u16, window: u64) -> Summary {
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
    for h in 0..4u8 {
        let key: FlowKey =
            format!("src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                .parse()
                .unwrap();
        tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
    }
    let id = WindowId {
        start_ms: window * 1_000,
        span_ms: 1_000,
    };
    Summary::site_full(site, id, window + 1, tree)
}

/// An upstream whose port stays bound for the whole test, so no other
/// socket can draw it from the ephemeral range: until [`Upstream::up`]
/// it is down (every connection is closed before the hello), then
/// [`Upstream::accept`] hands out the next connection.
struct Upstream {
    addr: String,
    up: Arc<AtomicBool>,
    conns: Receiver<TcpStream>,
}

impl Upstream {
    fn down() -> Upstream {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let up = Arc::new(AtomicBool::new(false));
        let (tx, conns) = channel();
        let is_up = Arc::clone(&up);
        std::thread::spawn(move || {
            for conn in listener.incoming().flatten() {
                if is_up.load(Ordering::SeqCst) && tx.send(conn).is_err() {
                    return;
                }
            }
        });
        Upstream { addr, up, conns }
    }

    fn up(&self) {
        self.up.store(true, Ordering::SeqCst);
    }

    fn accept(&self) -> TcpStream {
        self.conns.recv().expect("the upstream listener runs")
    }
}

struct Daemon {
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns one `relayd` with extra args and returns (daemon, ingest
/// address, query address) parsed from its startup line. Stdin is
/// always piped so `--stdin-control` daemons can be driven.
fn spawn_relayd(name: &str, extra: &[&str]) -> (Daemon, String, String) {
    let mut args = vec![
        "--name",
        name,
        "--sites",
        "0,1",
        "--ingest",
        "127.0.0.1:0",
        "--query",
        "127.0.0.1:0",
        "--drain-every-ms",
        "50",
        "--linger-ms",
        "0",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_relayd"))
        .args(&args)
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn relayd");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = BufReader::new(stderr);
    // The address line is not necessarily first: a journaled start
    // logs its recovery report before binding.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("startup line");
        assert!(n > 0, "relayd exited before announcing its addresses");
        if line.contains("ingest on ") {
            break;
        }
    }
    // Keep draining the daemon's log in the background so it never
    // blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while let Ok(n) = reader.read_line(&mut sink) {
            if n == 0 {
                break;
            }
            sink.clear();
        }
    });
    let grab = |marker: &str| -> String {
        let at = line.find(marker).unwrap_or_else(|| panic!("{line}")) + marker.len();
        line[at..]
            .chars()
            .take_while(|c| !c.is_whitespace() && *c != ',')
            .collect()
    };
    let ingest = grab("ingest on ");
    let query = grab("queries on ");
    (Daemon { child }, ingest, query)
}

/// Polls a relayd's query port until `pop` reports `want` packets (or
/// times out), returning the final body.
fn poll_pop(query_addr: &str, want: i64) -> String {
    let mut body = String::new();
    for _ in 0..200 {
        let mut q = TcpStream::connect(query_addr).expect("connect query");
        body = query_remote(&mut q, "pop")
            .expect("transport ok")
            .expect("valid query");
        if body.contains(&format!("popularity: {want} packets")) {
            return body;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    body
}

/// Plays a bare upstream on an accepted shipper connection: the
/// shipper leads with a hello and sends nothing until the upstream
/// answers it. Answers, skips any further control frames, and returns
/// the first summary frame.
fn first_export_after_hello(mut conn: TcpStream) -> Vec<u8> {
    use flowdist::framing::{read_frame, write_frame};
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let hello = read_frame(&mut reader)
        .expect("clean frame stream")
        .expect("the shipper's hello");
    assert!(flowdist::control::is_control(&hello));
    let reply = flowdist::ControlFrame::Hello {
        features: flowdist::FEATURE_ACKS,
    };
    write_frame(&mut conn, &reply.encode()).unwrap();
    loop {
        let frame = read_frame(&mut reader)
            .expect("clean frame stream")
            .expect("one export frame, not EOF");
        if !flowdist::control::is_control(&frame) {
            return frame;
        }
    }
}

/// An upstream outage must not lose exports: the daemon keeps drained
/// frames pending and delivers them once the upstream appears.
#[test]
fn relayd_retries_pending_exports_across_an_upstream_outage() {
    let upstream = Upstream::down();
    let (tier1, t1_ingest, _q) = spawn_relayd(
        "west",
        &["--agg-site", "1000", "--upstream", &upstream.addr],
    );
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let mut s = site_summary(0, 0);
    s.window = WindowId::containing(now_ms - 60_000, 1_000);
    let mut ingest = TcpStream::connect(&t1_ingest).expect("connect ingest");
    ship_summaries(&mut ingest, &[s]).unwrap();

    // Let several drain ticks pass with the upstream down.
    std::thread::sleep(Duration::from_millis(400));

    // The upstream comes up; the pending export must arrive on a
    // later tick.
    upstream.up();
    let frame = first_export_after_hello(upstream.accept());
    let summary = Summary::decode(&frame, Config::with_budget(1 << 20)).expect("valid v3 frame");
    assert_eq!(summary.site, 1000);
    assert_eq!(summary.tree.total().packets, 10);
    assert_eq!(summary.provenance(), Some(&[0u16][..]));
    drop(tier1);
}

/// Two chained processes: a tier-1 relayd ships its exports to a root
/// relayd over `--upstream`. A late site frame forces the tier-1 node
/// to re-export the window across the wire — as a v3 delta — and the
/// root must compose it onto its stored base. An idle query client
/// holds a connection open throughout: it must not stall ingest or
/// the export schedulers.
#[test]
fn relayd_chain_ships_incremental_deltas_upstream() {
    let (root, root_ingest, root_query) = spawn_relayd("root", &["--agg-site", "2000"]);
    // The idle client: connects and never sends a frame.
    let _idle = TcpStream::connect(&root_query).expect("idle client connects");
    let (tier1, t1_ingest, _t1_query) =
        spawn_relayd("west", &["--agg-site", "1000", "--upstream", &root_ingest]);

    // Wall-clock windows: relayd's scheduler drains against real time,
    // so use a window that closed a minute ago.
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let window = WindowId::containing(now_ms - 60_000, 1_000);
    let frame_for = |site: u16| {
        let mut s = site_summary(site, 0);
        s.window = window;
        s
    };

    // Site 0 lands; the window exports upstream as a full frame.
    let mut ingest = TcpStream::connect(&t1_ingest).expect("connect tier-1 ingest");
    ship_summaries(&mut ingest, &[frame_for(0)]).unwrap();
    let body = poll_pop(&root_query, 10);
    assert!(
        body.contains("popularity: 10 packets"),
        "site 0's window reached the root: {body}"
    );

    // Site 1 lands late; tier-1 re-exports the same window (a delta)
    // and the root composes it onto the stored base.
    ship_summaries(&mut ingest, &[frame_for(1)]).unwrap();
    let body = poll_pop(&root_query, 20);
    assert!(
        body.starts_with("route: root"),
        "root answers its own scope: {body}"
    );
    assert!(
        body.contains("popularity: 20 packets"),
        "the late site's delta composed at the root: {body}"
    );
    drop((root, tier1));
}

/// `kill -9` mid-stream, restart on the same `--state-dir`: the
/// stored windows, epoch chains, and query answers must survive the
/// crash, and late frames must keep composing onto the recovered
/// state.
#[test]
fn relayd_resumes_from_state_dir_after_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("relayd-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_string();

    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let window = WindowId::containing(now_ms - 60_000, 1_000);
    let frame_for = |site: u16| {
        let mut s = site_summary(site, 0);
        s.window = window;
        s
    };

    let (d1, ingest1, query1) = spawn_relayd("dur", &["--agg-site", "1000", "--state-dir", &dir_s]);
    let mut ingest = TcpStream::connect(&ingest1).expect("connect ingest");
    ship_summaries(&mut ingest, &[frame_for(0), frame_for(1)]).unwrap();
    let body = poll_pop(&query1, 20);
    assert!(
        body.contains("popularity: 20 packets"),
        "both sites landed before the crash: {body}"
    );
    // SIGKILL: no flush, no shutdown path.
    drop(d1);

    let (d2, ingest2, query2) = spawn_relayd("dur", &["--agg-site", "1000", "--state-dir", &dir_s]);
    // No frames sent yet: the recovered journal alone must answer.
    let body = poll_pop(&query2, 20);
    assert!(
        body.contains("popularity: 20 packets"),
        "the journal restored both site windows across kill -9: {body}"
    );
    // A late superset frame for site 0 at a higher epoch composes onto
    // recovered state (it replaces: 6 hosts → 1+…+6 = 21, plus site
    // 1's 10).
    let mut late = site_summary(0, 0);
    late.window = window;
    late.seq = 2;
    late.lineage.as_mut().unwrap().epoch.epoch = 2;
    late.tree = {
        let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
        for h in 0..6u8 {
            let key: FlowKey =
                format!("src=10.0.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                    .parse()
                    .unwrap();
            tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
        }
        tree
    };
    let mut ingest = TcpStream::connect(&ingest2).expect("connect ingest after restart");
    ship_summaries(&mut ingest, &[late]).unwrap();
    let body = poll_pop(&query2, 31);
    assert!(
        body.contains("popularity: 31 packets"),
        "late content composes onto the recovered window: {body}"
    );
    drop(d2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A graceful drain must flush windows the scheduler has not touched
/// yet: with an hour of `--linger-ms` nothing exports on its own, so
/// the only way the root can see the data is the drain path pushing
/// it upstream before exit.
#[test]
fn relayd_drain_flushes_unexported_windows_upstream_before_exit() {
    use std::io::Write as _;

    let (root, root_ingest, root_query) = spawn_relayd("root", &["--agg-site", "2000"]);
    let (mut west, west_ingest, west_query) = spawn_relayd(
        "west",
        &[
            "--agg-site",
            "1000",
            "--upstream",
            &root_ingest,
            "--stdin-control",
            "--linger-ms",
            "3600000",
        ],
    );

    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let window = WindowId::containing(now_ms - 60_000, 1_000);
    let frame_for = |site: u16| {
        let mut s = site_summary(site, 0);
        s.window = window;
        s
    };
    let mut ingest = TcpStream::connect(&west_ingest).expect("connect west ingest");
    ship_summaries(&mut ingest, &[frame_for(0), frame_for(1)]).unwrap();

    // West holds the data; the hour-long linger keeps it off the wire.
    let body = poll_pop(&west_query, 20);
    assert!(
        body.contains("popularity: 20 packets"),
        "west ingested both sites: {body}"
    );

    // `drain` over stdin: flush everything pending, then exit. Exit
    // code 0 asserts the flush was *acknowledged* (code 3 means data
    // was left pending).
    let mut stdin = west.child.stdin.take().expect("piped stdin");
    writeln!(stdin, "drain").unwrap();
    drop(stdin);
    let status = west.child.wait().expect("west exits after drain");
    assert!(
        status.success(),
        "drain flushed every pending export before exit: {status:?}"
    );

    // The root holds the flushed aggregate without ever being queried
    // before west died.
    let body = poll_pop(&root_query, 20);
    assert!(
        body.contains("popularity: 20 packets"),
        "the drained export reached the root: {body}"
    );
    drop(root);
}

/// `kill -9` while a drain is chasing an unreachable upstream: the
/// pending export lives in the journal + spill, so a restart on the
/// same `--state-dir` must deliver it once the upstream appears.
#[test]
fn relayd_killed_mid_drain_recovers_pending_exports_on_restart() {
    use std::io::Write as _;

    let dir = std::env::temp_dir().join(format!("relayd-drain-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap().to_string();

    let upstream = Upstream::down();
    let upstream_addr = upstream.addr.clone();

    let (mut west, west_ingest, west_query) = spawn_relayd(
        "west",
        &[
            "--agg-site",
            "1000",
            "--upstream",
            &upstream_addr,
            "--state-dir",
            &dir_s,
            "--stdin-control",
            "--drain-deadline-ms",
            "60000",
        ],
    );

    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let mut s = site_summary(0, 0);
    s.window = WindowId::containing(now_ms - 60_000, 1_000);
    let mut ingest = TcpStream::connect(&west_ingest).expect("connect west ingest");
    ship_summaries(&mut ingest, &[s]).unwrap();
    let body = poll_pop(&west_query, 10);
    assert!(
        body.contains("popularity: 10 packets"),
        "the frame landed before the drain: {body}"
    );

    // Ask for a drain the daemon cannot finish (upstream is down, the
    // deadline is a minute out), give it a moment to enter the pump
    // loop, then SIGKILL it mid-drain.
    let mut stdin = west.child.stdin.take().expect("piped stdin");
    writeln!(stdin, "drain").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    drop(west); // Drop kills with SIGKILL — no flush, no exit path.

    // Restart on the same state dir with the upstream now alive: the
    // journaled window and spilled export must come back and ship.
    upstream.up();
    let (_d2, _i2, _q2) = spawn_relayd(
        "west",
        &[
            "--agg-site",
            "1000",
            "--upstream",
            &upstream_addr,
            "--state-dir",
            &dir_s,
        ],
    );
    let frame = first_export_after_hello(upstream.accept());
    let summary = Summary::decode(&frame, Config::with_budget(1 << 20)).expect("valid v3 frame");
    assert_eq!(
        summary.site, 1000,
        "the recovered export carries west's aggregate id"
    );
    assert_eq!(
        summary.tree.total().packets,
        10,
        "the recovered export is byte-built from the journaled window"
    );
    assert_eq!(summary.provenance(), Some(&[0u16][..]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relayd_serves_ingest_and_queries_over_real_sockets() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_relayd"))
        .args([
            "--name",
            "smoke",
            "--sites",
            "0,1",
            "--ingest",
            "127.0.0.1:0",
            "--query",
            "127.0.0.1:0",
            "--drain-every-ms",
            "50",
            // This test's windows start at epoch 0 — ancient against
            // the wall-anchored retention cutoff, so keep forever.
            "--retention-ms",
            "0",
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn relayd");
    let stderr = child.stderr.take().expect("piped stderr");
    let daemon = Daemon { child };

    // A stderr line announces the resolved addresses:
    //   relayd[smoke]: ingest on 127.0.0.1:P1, queries on 127.0.0.1:P2, …
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("startup line");
        assert!(n > 0, "relayd exited before announcing its addresses");
        if line.contains("ingest on ") {
            break;
        }
    }
    let grab = |marker: &str| -> String {
        let at = line.find(marker).unwrap_or_else(|| panic!("{line}")) + marker.len();
        line[at..]
            .chars()
            .take_while(|c| !c.is_whitespace() && *c != ',')
            .collect()
    };
    let ingest_addr = grab("ingest on ");
    let query_addr = grab("queries on ");

    // Ship two site windows plus one garbage frame.
    let mut ingest = TcpStream::connect(&ingest_addr).expect("connect ingest");
    ship_summaries(&mut ingest, &[site_summary(0, 0), site_summary(1, 0)]).unwrap();
    flowdist::framing::write_frame(&mut ingest, b"not a summary").unwrap();
    drop(ingest);

    // Query until the frames have landed (lock-per-frame ingest).
    let body = poll_pop(&query_addr, 20);
    assert!(
        body.starts_with("route: smoke"),
        "route header names the relay: {body}"
    );
    assert!(
        body.contains("popularity: 20 packets"),
        "2 sites × (1+2+3+4) packets: {body}"
    );

    // Pipelined queries on one connection: both frames land in the
    // server reader's first read-ahead; both must be answered.
    {
        use flowdist::framing::{read_frame, write_frame};
        use std::io::Write as _;
        let mut batch = Vec::new();
        write_frame(&mut batch, b"pop").unwrap();
        write_frame(&mut batch, b"drill src").unwrap();
        let mut stream = TcpStream::connect(&query_addr).unwrap();
        stream.write_all(&batch).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first = read_frame(&mut reader).unwrap().expect("first response");
        let second = read_frame(&mut reader).unwrap().expect("second response");
        assert_eq!(first[0], 0);
        assert_eq!(second[0], 0, "pipelined second frame survived");
    }
    drop(daemon);
}
