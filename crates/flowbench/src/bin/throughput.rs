//! E7 — amortized-constant updates, and the ingest-path comparison.
//!
//! The paper: "This leads to an amortized constant update time."
//! Evidence: per-update cost stays flat as (a) the trace grows and
//! (b) the node budget grows; mean parent-search probes per update
//! stay small and flat.
//!
//! E7c compares the ingest paths on a miss-heavy (fresh-tree,
//! 5-feature, Zipf) trace:
//!
//! * `seed_path` — the pre-optimization reference: strictly linear
//!   upward parent search, re-hashing the full 7-feature key on every
//!   probe (the original `HashMap`-indexed hot path).
//! * `insert` — the zero-rehash path: linear-prefix probes with
//!   rolling hashes, then root descent with a closed-form LCCA.
//! * `insert_batch` — batched: one canonicalize+hash per key, hits
//!   first, misses in chain order from a descent finger, one budget
//!   check per batch.
//! * `sharded/N` — `ShardedTree::par_insert_batch` across N shards
//!   (persistent worker pool, one long-lived thread per shard; scaling
//!   requires ≥ N cores).
//!
//! With `--pipeline`, E7d additionally measures the **streaming ingest
//! pipeline** end to end: pre-encoded NetFlow v5 export packets are
//! decoded (`flownet::ExportDecoder`), window-bucketed by record
//! timestamp, and batch-fed to a sharded `SiteDaemon`
//! (`flowdist::IngestPipeline`) — the daemon-side loop of the paper's
//! Fig. 1 deployment, decode cost included. E7d measures each shard
//! count twice: once through the historical flush path that
//! re-canonicalizes and re-hashes every key at flush time
//! (`pipeline/v5-rehash/N` — the shard-degradation root cause), and
//! once through the current one-hash-per-record prehashed path
//! (`pipeline/v5/N`), so the fix stays measured in the artifact.
//!
//! With `--lanes N`, E7f measures the **socket path**: the same
//! pre-encoded payloads are blasted over real loopback UDP into
//! `flowdist::lane::spawn_multi_lane_ingest` at 1/2/4/…/N lanes —
//! `SO_REUSEPORT` multi-socket where available (`--reuseport 0`
//! forces the portable fanout-ring mode, `--fallback-recv` forces the
//! single-datagram receive path, `--pin` pins lane and shard threads
//! to cores). Sent-vs-received datagrams are accounted explicitly, so
//! kernel drops under blast load are visible, never silently folded
//! into the rate.
//!
//! Results are also written to `BENCH_ingest.json` so the performance
//! trajectory of the ingest path is recorded in-repo.
//!
//! ```sh
//! cargo run --release -p flowbench --bin throughput -- \
//!     --packets 1000000 --shards 4 --batch 8192 --pipeline \
//!     --lanes 8 --json BENCH_ingest.json
//! ```

use flowbench::{Args, Table};
use flowdist::daemon::{DaemonConfig, SiteDaemon, TransferMode};
use flowdist::lane::{spawn_multi_lane_ingest, LaneOptions};
use flowdist::{AdmissionKnobs, IngestPipeline, ShardedTree};
use flowkey::{FlowKey, Schema};
use flownet::FlowRecord;
use flowtrace::{profile, TraceGen};
use flowtree_core::{Config, FlowTree, Popularity};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct IngestRow {
    path: String,
    updates_per_sec: f64,
    ns_per_update: f64,
    mean_probes: f64,
    mean_work: f64,
    nodes: usize,
}

fn measure<F: FnOnce() -> (flowtree_core::Stats, usize)>(
    path: &str,
    n_updates: usize,
    f: F,
) -> IngestRow {
    let start = Instant::now();
    let (stats, nodes) = f();
    let secs = start.elapsed().as_secs_f64();
    IngestRow {
        path: path.to_string(),
        updates_per_sec: n_updates as f64 / secs,
        ns_per_update: secs * 1e9 / n_updates as f64,
        mean_probes: stats.chain_steps as f64 / n_updates as f64,
        mean_work: (stats.chain_steps + stats.descent_hops) as f64 / n_updates as f64,
        nodes,
    }
}

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.get("seed").unwrap_or(42);
    let shards_max: usize = args.get("shards").unwrap_or(4).max(1);
    let batch: usize = args.get("batch").unwrap_or(8_192).max(1);
    let json_path: String = args
        .get("json")
        .unwrap_or_else(|| "BENCH_ingest.json".into());

    println!("== E7a: update rate vs node budget (1 M packets, backbone) ==\n");
    let t = Table::new(&[
        "budget",
        "updates/s",
        "ns/update",
        "mean probes",
        "compactions",
    ]);
    for budget in [10_000usize, 20_000, 40_000, 80_000, 160_000] {
        let mut cfg = profile::backbone(seed);
        cfg.packets = args.get("packets").unwrap_or(1_000_000);
        cfg.flows = cfg.flows.min(cfg.packets / 2);
        let mut tree = FlowTree::new(Schema::four_feature(), Config::with_budget(budget));
        let packets: Vec<_> = TraceGen::new(cfg).collect();
        let start = Instant::now();
        for pkt in &packets {
            tree.insert(&pkt.flow_key(), Popularity::packet(pkt.wire_len));
        }
        let secs = start.elapsed().as_secs_f64();
        let stats = tree.stats();
        t.row(&[
            &budget.to_string(),
            &format!("{:.2} M", packets.len() as f64 / secs / 1e6),
            &format!("{:.0}", secs * 1e9 / packets.len() as f64),
            &format!("{:.2}", stats.mean_chain_steps()),
            &stats.compactions.to_string(),
        ]);
    }

    println!("\n== E7b: per-update cost vs trace length (40 K nodes) ==\n");
    let t = Table::new(&["packets", "updates/s", "ns/update", "mean probes"]);
    for packets in [250_000u64, 500_000, 1_000_000, 2_000_000] {
        let mut cfg = profile::backbone(seed);
        cfg.packets = packets;
        cfg.flows = cfg.flows.min(packets / 2);
        let mut tree = FlowTree::new(Schema::four_feature(), Config::paper());
        let trace: Vec<_> = TraceGen::new(cfg).collect();
        let start = Instant::now();
        for pkt in &trace {
            tree.insert(&pkt.flow_key(), Popularity::packet(pkt.wire_len));
        }
        let secs = start.elapsed().as_secs_f64();
        t.row(&[
            &packets.to_string(),
            &format!("{:.2} M", packets as f64 / secs / 1e6),
            &format!("{:.0}", secs * 1e9 / packets as f64),
            &format!("{:.2}", tree.stats().mean_chain_steps()),
        ]);
    }

    // ---- E7c: ingest paths on a miss-heavy 5-feature trace ------------
    let packets: u64 = args.get("packets").unwrap_or(1_000_000);
    let mut cfg = profile::backbone(seed);
    cfg.packets = packets;
    // Miss-heavy: high flow cardinality → most updates create nodes.
    cfg.flows = packets.max(2) / 2;
    let schema = Schema::five_feature();
    let tree_cfg = Config::paper();
    let flows = cfg.flows;
    let trace: Vec<(FlowKey, Popularity)> = TraceGen::new(cfg)
        .map(|p| (p.flow_key(), Popularity::packet(p.wire_len)))
        .collect();
    let n = trace.len();

    println!(
        "\n== E7c: ingest paths, miss-heavy 5-feature Zipf trace \
         ({n} packets, {} flows, 40 K budget, {} host cores) ==\n",
        flows,
        std::thread::available_parallelism().map_or(1, |c| c.get()),
    );
    let mut rows: Vec<IngestRow> = Vec::new();

    rows.push(measure("seed_path", n, || {
        let mut tree = FlowTree::new(schema, tree_cfg);
        for (k, p) in &trace {
            tree.insert_seed_path(k, *p);
        }
        (*tree.stats(), tree.len())
    }));

    rows.push(measure("insert", n, || {
        let mut tree = FlowTree::new(schema, tree_cfg);
        for (k, p) in &trace {
            tree.insert(k, *p);
        }
        (*tree.stats(), tree.len())
    }));

    rows.push(measure(&format!("insert_batch/{batch}"), n, || {
        let mut tree = FlowTree::new(schema, tree_cfg);
        for chunk in trace.chunks(batch) {
            tree.insert_batch(chunk);
        }
        (*tree.stats(), tree.len())
    }));

    let mut shard_counts = vec![1usize, 2, 4];
    if !shard_counts.contains(&shards_max) {
        shard_counts.push(shards_max);
    }
    shard_counts.retain(|&s| s <= shards_max);
    for &s in &shard_counts {
        rows.push(measure(&format!("sharded/{s}"), n, || {
            let mut st = ShardedTree::new(schema, tree_cfg, s);
            for chunk in trace.chunks(batch) {
                st.par_insert_batch(chunk);
            }
            (st.stats(), st.len())
        }));
    }

    let t = Table::new(&[
        "path",
        "updates/s",
        "ns/update",
        "mean probes",
        "mean work",
        "nodes",
    ]);
    for r in &rows {
        t.row(&[
            &r.path,
            &format!("{:.2} M", r.updates_per_sec / 1e6),
            &format!("{:.0}", r.ns_per_update),
            &format!("{:.2}", r.mean_probes),
            &format!("{:.2}", r.mean_work),
            &r.nodes.to_string(),
        ]);
    }
    let seed_rate = rows[0].updates_per_sec;
    println!();
    for r in rows.iter().skip(1) {
        println!(
            "  {:<20} {:>5.2}x vs seed_path",
            r.path,
            r.updates_per_sec / seed_rate
        );
    }

    // ---- E7d: streaming pipeline, wire → summaries (--pipeline) -------
    struct PipelineRow {
        path: String,
        records_per_sec: f64,
        ns_per_record: f64,
        datagrams: u64,
        summaries: usize,
        raw_bytes: u64,
    }
    let mut pipeline_rows: Vec<PipelineRow> = Vec::new();
    // (records/s metrics off, records/s metrics on), from E7e.
    let mut instrumentation: Option<(f64, f64)> = None;
    // E7f socket-path rows (--lanes).
    struct SocketRow {
        lanes: usize,
        reuseport: bool,
        fallback_recv: bool,
        pin: bool,
        records_per_sec: f64,
        sent: u64,
        received: u64,
        records: u64,
        summaries: u64,
        loss_pct: f64,
    }
    let mut socket_rows: Vec<SocketRow> = Vec::new();
    let lanes_max: Option<usize> = args.get("lanes");

    // Same workload as E7c, but as timestamped flow records behind
    // pre-encoded NetFlow v5 export packets — shared by E7d (in-memory
    // pipeline) and E7f (socket path). Encoding is the router's job
    // and is excluded from timing.
    let (payloads, n_records) = if args.has("pipeline") || lanes_max.is_some() {
        let mut cfg = profile::backbone(seed);
        cfg.packets = packets;
        cfg.flows = packets.max(2) / 2;
        let records: Vec<FlowRecord> = TraceGen::new(cfg)
            .map(|p| {
                let ts_ms = p.ts_micros / 1_000;
                FlowRecord {
                    src: p.src,
                    dst: p.dst,
                    sport: p.sport,
                    dport: p.dport,
                    proto: p.proto,
                    packets: 1,
                    bytes: p.wire_len as u64,
                    first_ms: ts_ms.saturating_sub(1),
                    last_ms: ts_ms,
                }
            })
            .collect();
        let mut flow_seq = 0u32;
        let payloads: Vec<Vec<u8>> = records
            .chunks(flownet::netflow5::MAX_RECORDS)
            .map(|chunk| {
                let base_ms = chunk.iter().map(|r| r.last_ms).max().unwrap_or(0);
                let pkt = flownet::netflow5::encode(chunk, base_ms, flow_seq);
                flow_seq = flow_seq.wrapping_add(chunk.len() as u32);
                pkt
            })
            .collect();
        (payloads, records.len())
    } else {
        (Vec::new(), 0)
    };

    if args.has("pipeline") {
        println!(
            "\n== E7d: streaming pipeline, NetFlow v5 wire → summaries \
             ({n_records} records in {} datagrams, 1 s windows) ==\n",
            payloads.len()
        );
        let t = Table::new(&[
            "path",
            "records/s",
            "ns/record",
            "datagrams",
            "summaries",
            "raw MiB",
        ]);
        // Before-fix reference: identical decode + window bucketing,
        // but flushed through `ingest_stamped_batch`, which
        // re-canonicalizes and re-hashes every key at flush time — the
        // historical pipeline hot path whose shard rows degraded. The
        // paired `pipeline/v5/N` rows below carry each key's hash from
        // decode to shard routing, so the fix is a measured delta in
        // the artifact, not a claim.
        for &s in &shard_counts {
            let mut dcfg = DaemonConfig::new(1);
            dcfg.window_ms = 1_000;
            dcfg.schema = schema;
            dcfg.tree = tree_cfg;
            dcfg.shards = s;
            let mut daemon = SiteDaemon::new(dcfg);
            let mut decoder =
                flownet::ExportDecoder::with_limits(flownet::DecoderLimits::default());
            let start = Instant::now();
            let mut summaries = 0usize;
            let mut pending: Vec<(u64, FlowKey, Popularity)> = Vec::with_capacity(batch);
            for payload in &payloads {
                let Ok((_, records)) = flownet::decode_export_packet_at(&mut decoder, payload, 0)
                else {
                    continue;
                };
                daemon.note_raw_bytes(payload.len() as u64);
                for r in &records {
                    pending.push((
                        r.last_ms,
                        schema.canonicalize(&r.flow_key()),
                        Popularity::flow(r.packets, r.bytes),
                    ));
                    if pending.len() >= batch {
                        summaries += daemon.ingest_stamped_batch(&pending).len();
                        pending.clear();
                    }
                }
            }
            if !pending.is_empty() {
                summaries += daemon.ingest_stamped_batch(&pending).len();
            }
            summaries += daemon.flush().len();
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(daemon.stats().records, n_records as u64);
            let row = PipelineRow {
                path: format!("pipeline/v5-rehash/{s}"),
                records_per_sec: n_records as f64 / secs,
                ns_per_record: secs * 1e9 / n_records as f64,
                datagrams: payloads.len() as u64,
                summaries,
                raw_bytes: daemon.stats().raw_bytes,
            };
            t.row(&[
                &row.path,
                &format!("{:.2} M", row.records_per_sec / 1e6),
                &format!("{:.0}", row.ns_per_record),
                &row.datagrams.to_string(),
                &row.summaries.to_string(),
                &format!("{:.1}", row.raw_bytes as f64 / (1024.0 * 1024.0)),
            ]);
            pipeline_rows.push(row);
        }
        for &s in &shard_counts {
            let mut dcfg = DaemonConfig::new(1);
            dcfg.window_ms = 1_000;
            dcfg.schema = schema;
            dcfg.tree = tree_cfg;
            dcfg.shards = s;
            let mut pipe = IngestPipeline::new(SiteDaemon::new(dcfg), batch);
            let start = Instant::now();
            let mut summaries = 0usize;
            for payload in &payloads {
                summaries += pipe.push_packet(payload).len();
            }
            let (rest, daemon) = pipe.finish();
            summaries += rest.len();
            let secs = start.elapsed().as_secs_f64();
            let row = PipelineRow {
                path: format!("pipeline/v5/{s}"),
                records_per_sec: n_records as f64 / secs,
                ns_per_record: secs * 1e9 / n_records as f64,
                datagrams: payloads.len() as u64,
                summaries,
                raw_bytes: daemon.stats().raw_bytes,
            };
            assert_eq!(daemon.stats().records, n_records as u64);
            t.row(&[
                &row.path,
                &format!("{:.2} M", row.records_per_sec / 1e6),
                &format!("{:.0}", row.ns_per_record),
                &row.datagrams.to_string(),
                &row.summaries.to_string(),
                &format!("{:.1}", row.raw_bytes as f64 / (1024.0 * 1024.0)),
            ]);
            pipeline_rows.push(row);
        }

        // ---- E7e: instrumentation overhead ----------------------------
        // The same single-shard run with the hot-path latency
        // histograms attached — the price of observability on the
        // tightest loop we have. Without the `hot-timers` feature the
        // stopwatches are zero-sized no-ops and the two rows must
        // coincide (`cargo run -p flowbench --no-default-features`).
        let run_once = |instrumented: bool| -> f64 {
            let mut dcfg = DaemonConfig::new(1);
            dcfg.window_ms = 1_000;
            dcfg.schema = schema;
            dcfg.tree = tree_cfg;
            dcfg.shards = 1;
            let mut pipe = IngestPipeline::new(SiteDaemon::new(dcfg), batch);
            if instrumented {
                let reg = flowmetrics::Registry::new();
                pipe.set_latency_instruments(
                    reg.histogram("flowtree_decode_seconds", "Per-packet decode latency."),
                    reg.histogram("flowtree_flush_seconds", "Per-batch flush latency."),
                );
            }
            let start = Instant::now();
            let mut summaries = 0usize;
            for payload in &payloads {
                summaries += pipe.push_packet(payload).len();
            }
            summaries += pipe.finish().0.len();
            let secs = start.elapsed().as_secs_f64();
            assert!(summaries > 0, "pipeline produced summaries");
            n_records as f64 / secs
        };
        println!(
            "\n== E7e: instrumentation overhead, single-shard pipeline \
             (hot-path timers {}) ==\n",
            if flowmetrics::Stopwatch::enabled() {
                "compiled in"
            } else {
                "compiled out"
            }
        );
        // Warm once, then an ABBA schedule with means: run position
        // drifts throughput by far more than the timers do (allocator
        // and cache state shift monotonically across runs), and the
        // balanced order cancels any linear drift instead of charging
        // it to whichever path ran second.
        let _ = run_once(false);
        let (mut off_rates, mut on_rates) = (Vec::new(), Vec::new());
        for &instrumented in &[false, true, true, false] {
            let rate = run_once(instrumented);
            if instrumented {
                on_rates.push(rate);
            } else {
                off_rates.push(rate);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (off, on) = (mean(&off_rates), mean(&on_rates));
        let overhead = (off / on - 1.0) * 100.0;
        println!("  metrics off: {:.2} M records/s", off / 1e6);
        println!(
            "  metrics on:  {:.2} M records/s  ({overhead:+.2}% overhead)",
            on / 1e6
        );
        instrumentation = Some((off, on));
    }

    // ---- E7f: socket path, loopback UDP → multi-lane ingest (--lanes) --
    if let Some(lanes_max) = lanes_max {
        let lanes_max = lanes_max.clamp(1, flowdist::lane::MAX_LANES);
        let reuseport = args.get::<u32>("reuseport").is_none_or(|v| v != 0);
        let fallback_recv = args.has("fallback-recv");
        let pin = args.has("pin");
        let mut sweep: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&l| l <= lanes_max)
            .collect();
        if !sweep.contains(&lanes_max) {
            sweep.push(lanes_max);
        }
        println!(
            "\n== E7f: socket path, loopback UDP → lanes → summaries \
             ({n_records} records in {} datagrams, reuseport={reuseport} \
             fallback_recv={fallback_recv} pin={pin}) ==\n",
            payloads.len()
        );
        let t = Table::new(&[
            "path",
            "records/s",
            "sent",
            "received",
            "loss %",
            "summaries",
            "mode",
        ]);
        for &lanes in &sweep {
            let knobs = Arc::new(AdmissionKnobs::default());
            knobs.set_pin_cores(pin);
            let opts = LaneOptions {
                lanes,
                recv_batch: 64,
                reuseport,
                force_fallback_recv: fallback_recv,
                receive_buffer_bytes: Some(32 << 20),
                knobs,
                ..LaneOptions::default()
            };
            let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(4_096);
            let drain = std::thread::spawn(move || rx.iter().count());
            let handle = spawn_multi_lane_ingest(
                "127.0.0.1:0",
                |_lane| {
                    let mut dcfg = DaemonConfig::new(1);
                    dcfg.window_ms = 1_000;
                    dcfg.schema = schema;
                    dcfg.tree = tree_cfg;
                    dcfg.shards = 1;
                    dcfg.transfer = TransferMode::Full;
                    IngestPipeline::new(SiteDaemon::new(dcfg), batch)
                },
                tx,
                opts,
            )
            .expect("bind ingest lanes");
            let to = handle.local_addr();
            let view = handle.view();
            let mode = if handle.is_reuseport() {
                "reuseport"
            } else if lanes == 1 {
                "single"
            } else {
                "fanout"
            };

            // One sender socket (= one exporter 4-tuple) per lane, so
            // the kernel's reuseport hash can actually spread load.
            // Each sender yields for 1 ms every 32 datagrams: the
            // offered load stays far above any one node's capacity
            // (so the receiver, not the pacing, is what's measured),
            // but on shared cores the lanes actually get scheduled
            // between bursts instead of the sender monopolizing the
            // CPU while the socket buffer overflows. Remaining loss
            // is measured, not assumed away.
            let senders = lanes.max(2);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for s in 0..senders {
                    let payloads = &payloads;
                    scope.spawn(move || {
                        let sock = UdpSocket::bind("127.0.0.1:0").expect("sender bind");
                        for (i, p) in payloads.iter().skip(s).step_by(senders).enumerate() {
                            // A full socket buffer surfaces as loss in
                            // the received count, never as a panic.
                            let _ = sock.send_to(p, to);
                            if i % 32 == 31 {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    });
                }
            });
            // Receive side keeps draining after the last send; clock
            // the run at the moment the datagram count goes quiet.
            let sent = payloads.len() as u64;
            let (mut last, mut last_change) = (0u64, Instant::now());
            loop {
                let now = view.snapshot().datagrams;
                if now != last {
                    last = now;
                    last_change = Instant::now();
                }
                if now >= sent || last_change.elapsed() > Duration::from_millis(500) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let secs = last_change.duration_since(start).as_secs_f64().max(1e-9);
            let report = handle.stop();
            drain.join().expect("drain thread");
            let row = SocketRow {
                lanes,
                reuseport: mode == "reuseport",
                fallback_recv,
                pin,
                records_per_sec: report.daemon.records as f64 / secs,
                sent,
                received: report.datagrams,
                records: report.daemon.records,
                summaries: report.daemon.summaries,
                loss_pct: 100.0 * (sent - report.datagrams.min(sent)) as f64 / sent as f64,
            };
            t.row(&[
                &format!("socket/v5/lanes={lanes}"),
                &format!("{:.2} M", row.records_per_sec / 1e6),
                &row.sent.to_string(),
                &row.received.to_string(),
                &format!("{:.2}", row.loss_pct),
                &row.summaries.to_string(),
                mode,
            ]);
            socket_rows.push(row);
        }
        if let (Some(one), Some(two)) = (
            socket_rows.iter().find(|r| r.lanes == 1),
            socket_rows.iter().find(|r| r.lanes == 2),
        ) {
            println!(
                "\n  lanes=2 vs lanes=1: {:.2}x",
                two.records_per_sec / one.records_per_sec
            );
        }
    }

    // ---- BENCH_ingest.json --------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"ingest\",\n");
    json.push_str(&format!("  \"packets\": {n},\n"));
    json.push_str(&format!("  \"flows\": {flows},\n"));
    json.push_str("  \"schema\": \"five_feature\",\n");
    json.push_str("  \"budget\": 40000,\n");
    json.push_str(&format!("  \"batch\": {batch},\n"));
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str("  \"paths\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"path\": \"{}\", \"updates_per_sec\": {:.0}, \"ns_per_update\": {:.1}, \
             \"mean_probes\": {:.3}, \"mean_search_work\": {:.3}, \"nodes\": {}, \
             \"speedup_vs_seed\": {:.3}}}{}\n",
            r.path,
            r.updates_per_sec,
            r.ns_per_update,
            r.mean_probes,
            r.mean_work,
            r.nodes,
            r.updates_per_sec / seed_rate,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]");
    if !pipeline_rows.is_empty() {
        json.push_str(",\n  \"pipeline\": [\n");
        for (i, r) in pipeline_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"path\": \"{}\", \"records_per_sec\": {:.0}, \"ns_per_record\": {:.1}, \
                 \"datagrams\": {}, \"summaries\": {}, \"raw_bytes\": {}}}{}\n",
                r.path,
                r.records_per_sec,
                r.ns_per_record,
                r.datagrams,
                r.summaries,
                r.raw_bytes,
                if i + 1 == pipeline_rows.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        json.push_str("  ]");
    }
    if !socket_rows.is_empty() {
        json.push_str(",\n  \"sockets\": [\n");
        for (i, r) in socket_rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"path\": \"socket/v5/lanes={}\", \"lanes\": {}, \"reuseport\": {}, \
                 \"fallback_recv\": {}, \"pin\": {}, \"records_per_sec\": {:.0}, \
                 \"datagrams_sent\": {}, \"datagrams_received\": {}, \"records\": {}, \
                 \"summaries\": {}, \"loss_pct\": {:.2}}}{}\n",
                r.lanes,
                r.lanes,
                r.reuseport,
                r.fallback_recv,
                r.pin,
                r.records_per_sec,
                r.sent,
                r.received,
                r.records,
                r.summaries,
                r.loss_pct,
                if i + 1 == socket_rows.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]");
    }
    if let Some((off, on)) = instrumentation {
        json.push_str(&format!(
            ",\n  \"instrumentation\": {{\"timers_compiled\": {}, \
             \"records_per_sec_off\": {off:.0}, \"records_per_sec_on\": {on:.0}, \
             \"overhead_pct\": {:.2}}}",
            flowmetrics::Stopwatch::enabled(),
            (off / on - 1.0) * 100.0,
        ));
    }
    json.push_str("\n}\n");
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }

    println!("\n(flat ns/update and flat probes across E7a/E7b = amortized O(1))");
}
