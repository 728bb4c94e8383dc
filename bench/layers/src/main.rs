//! `bench-layers` — the traced, in-process half of the benchmark.
//!
//! Links the repo's crates and times calls into each layer's *public*
//! functions, with spans recorded from this file (no instrumentation
//! inside the program). Two parts, both single-threaded over the same
//! seeded pools `bench-e2e` sends:
//!
//! * **micro**: per-layer unit costs (decode, admission, pipeline
//!   push, tree insert/merge/codec/queries);
//! * **replay**: the workload's own fleet — sites, tier-1 relays and
//!   root built from its committed spec — fed window by window, one
//!   trace per window (`decode → admit → pipeline.push → daemon.close →
//!   summary.encode → relay.ingest → relay.drain → summary.encode →
//!   spill.push → root.ingest → root.drain → view.extend → query.eval`),
//!   with the root checked against a flat collector.
//!
//! Output: `name value unit n` lines on stdout; the spans as JSON in
//! `--trace-out`. The functions called here are the benchmark's pinned
//! in-process surface; `bench/README.md` lists them.

// Shared with bench-e2e, which uses all of both.
#[allow(dead_code)]
#[path = "../../e2e/src/gen.rs"]
mod gen;
#[allow(dead_code)]
#[path = "../../e2e/src/workload.rs"]
mod workload;

use std::hint::black_box;
use std::io::Write as _;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use flowdist::{
    AdmissionConfig, AdmissionControl, Collector, DaemonConfig, IngestPipeline, SiteDaemon,
    SpillConfig, SpillQueue, Summary, SummaryKind, TransferMode,
};
use flowkey::Schema;
use flownet::{ExportDecoder, FlowRecord};
use flowquery::{Query, QueryEngine};
use flowrelay::spec::FleetSpec;
use flowrelay::{ExportConfig, QueryRouter, Relay, RelayConfig};
use flowtree_core::{Config, FlowTree, Metric, Popularity};
use gen::{Dgram, Pool};
use workload::{Load, Workload};

/// The exporter address the replay presents (the e2e generator's
/// datagrams all come from one loopback socket too).
const EXPORTER: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);
/// Event time of the first replayed window.
const T0_MS: u64 = 1_700_000_000_000;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("bench-layers: {msg}");
    std::process::exit(1);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: i32,
    window: i32,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: i32, window: i32) -> i32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            window,
        });
        self.spans.len() as i32 - 1
    }

    fn end(&mut self, id: i32) {
        self.spans[id as usize].end_ns = self.now();
    }

    /// Times `f` as a leaf span under `parent`.
    fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: i32,
        window: i32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, window);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"window\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.parent, s.window
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

struct Out(Vec<(String, f64, &'static str, usize)>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.0.push((name.to_string(), value, unit, n));
    }
}

// ---------------------------------------------------------------------------
// Building the pieces the way the runtimes build them
// ---------------------------------------------------------------------------

/// A site's pipeline exactly as `SiteRuntime::start` configures it
/// from its spec section's `window-ms`, `budget` and `batch`.
fn site_pipeline(site: u16, window_ms: u64, budget: usize, batch: usize) -> IngestPipeline {
    let mut cfg = DaemonConfig::new(site);
    cfg.window_ms = window_ms.max(1);
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(budget);
    cfg.transfer = TransferMode::Full;
    IngestPipeline::new(SiteDaemon::new(cfg), batch.max(1))
}

/// A relay exactly as `NodeRuntime::start` configures it.
fn relay_of(spec: &FleetSpec, name: &str) -> Relay {
    let node = &spec
        .relay(name)
        .unwrap_or_else(|| fail(format!("spec has no relay {name}")))
        .node;
    Relay::new(RelayConfig {
        name: node.name.clone(),
        agg_site: node.agg_site,
        expected: spec.coverage(name),
        schema: Schema::five_feature(),
        tree: Config::with_budget(node.budget),
        export: ExportConfig {
            mode: node.mode,
            linger_ms: node.linger_ms,
            max_bases: node.max_bases,
            max_base_nodes: node.max_base_nodes,
        },
    })
}

/// The datagrams of one window at one site, stamped: `per_window`
/// consecutive pool entries spread evenly over the window.
fn window_datagrams(
    pool: &mut Pool,
    pos: &mut usize,
    per_window: usize,
    start_ms: u64,
    span_ms: u64,
) -> Vec<Vec<u8>> {
    (0..per_window)
        .map(|i| {
            let len = pool.dgrams.len();
            let d: &mut Dgram = &mut pool.dgrams[*pos];
            *pos = (*pos + 1) % len;
            d.stamp(start_ms + i as u64 * span_ms / per_window as u64);
            d.bytes.clone()
        })
        .collect()
}

fn datagrams_per_window(wl: &Workload) -> usize {
    match wl.load {
        Load::Closed {
            datagrams_per_window,
            ..
        } => datagrams_per_window as usize,
        Load::Paced { per_site_hz } => (per_site_hz * wl.window_ms / 1000) as usize,
    }
}

// ---------------------------------------------------------------------------
// Micro: unit costs
// ---------------------------------------------------------------------------

/// The spec grammar's default site tree budget.
const SITE_BUDGET: usize = 1 << 16;

fn micro(out: &mut Out, seed: u64) {
    let bulk = workload::find("site_bulk").expect("workload table");
    let small = workload::find("site_smallpkt").expect("workload table");
    let mut errors = 0u64;
    let mut trees = Vec::new();
    let mut push_ns = [0.0f64; 2];
    let mut decode_ns = [0.0f64; 2];
    let mut insert_input: Vec<(flowkey::FlowKey, Popularity)> = Vec::new();

    for (which, wl) in [bulk, small].into_iter().enumerate() {
        let mut pool = gen::build_pools(&wl.pool, false, seed, 1).remove(0);
        let per_window = datagrams_per_window(wl);
        let mut pos = 0usize;
        let dgrams = window_datagrams(&mut pool, &mut pos, per_window, T0_MS, wl.window_ms);
        let records = (per_window * wl.pool.records_per_datagram) as f64;

        // flownet: decode_export_packet_at over one window of datagrams.
        let mut decoder = ExportDecoder::new();
        let t = Instant::now();
        for d in &dgrams {
            if black_box(flownet::decode_export_packet_at(&mut decoder, d, T0_MS)).is_err() {
                errors += 1;
            }
        }
        decode_ns[which] = t.elapsed().as_nanos() as f64 / records;
        if which == 0 {
            // Untimed: the bulk window's records as keyed masses, the
            // input of the tree-insert measurement below.
            let schema = Schema::five_feature();
            for d in &dgrams {
                if let Ok((_, recs)) = flownet::decode_export_packet_at(&mut decoder, d, T0_MS) {
                    insert_input.extend(recs.iter().map(|r| {
                        (
                            schema.canonicalize(&r.flow_key()),
                            Popularity::flow(r.packets, r.bytes),
                        )
                    }));
                }
            }
        }

        // flowdist::pipeline: push_packet over the same window, into a
        // site with the default budget and batch (site.spec's).
        let mut pipeline = site_pipeline(
            0,
            wl.window_ms,
            SITE_BUDGET,
            flowdist::pipeline::DEFAULT_BATCH,
        );
        let t = Instant::now();
        let mut closed = Vec::new();
        for d in &dgrams {
            closed.extend(pipeline.push_packet(d));
        }
        push_ns[which] = t.elapsed().as_nanos() as f64 / records;
        let (rest, _) = pipeline.finish();
        closed.extend(rest);
        trees.extend(closed.into_iter().map(|s| s.tree));
    }
    out.put("flownet.decode_v5_ns_per_rec", decode_ns[0], "ns", 1);
    out.put("flownet.decode_ipfix_ns_per_rec", decode_ns[1], "ns", 1);
    out.put("flownet.decode_errors", errors as f64, "count", 0);
    out.put("pipeline.push_bulk_ns_per_rec", push_ns[0], "ns", 1);
    out.put("pipeline.push_small_ns_per_rec", push_ns[1], "ns", 1);

    // flowdist::admission: the two calls the lane makes per datagram.
    let mut admission = AdmissionControl::new();
    let cfg = AdmissionConfig::default();
    let n = 1_000_000u64;
    let t = Instant::now();
    let mut admitted = 0u64;
    for i in 0..n {
        let now = T0_MS + i / 1000;
        if admission.admit_packet(EXPORTER, &cfg, now)
            && admission.admit_records(EXPORTER, 30, &cfg, now)
        {
            admitted += 1;
        }
    }
    black_box(admitted);
    out.put(
        "admission.ns_per_dgram",
        t.elapsed().as_nanos() as f64 / n as f64,
        "ns",
        1,
    );

    // flowtree-core: insert one bulk window's records into a fresh
    // site-budget tree.
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(SITE_BUDGET));
    let t = Instant::now();
    for chunk in insert_input.chunks(flowdist::pipeline::DEFAULT_BATCH) {
        tree.insert_batch(chunk);
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / insert_input.len().max(1) as f64;
    out.put("tree.insert_ns_per_rec", insert_ns, "ns", 1);
    out.put(
        "pipeline.self_ns_per_rec",
        push_ns[0] - decode_ns[0] - insert_ns,
        "ns",
        1,
    );
    out.put("tree.nodes_per_window", tree.len() as f64, "count", 0);
    trees.push(tree);

    // merge / codec / queries over those window trees.
    let big = Config::with_budget(1 << 20);
    let mut view = FlowTree::new(Schema::five_feature(), big);
    let refs: Vec<&FlowTree> = trees.iter().collect();
    let input_nodes: usize = refs.iter().map(|t| t.len()).sum();
    let t = Instant::now();
    view.merge_many(&refs)
        .unwrap_or_else(|e| fail(format!("merge_many: {e:?}")));
    out.put(
        "tree.merge_ns_per_node",
        t.elapsed().as_nanos() as f64 / input_nodes.max(1) as f64,
        "ns",
        1,
    );
    let t = Instant::now();
    let bytes = trees[0].encode();
    out.put(
        "tree.encode_ns_per_node",
        t.elapsed().as_nanos() as f64 / trees[0].len() as f64,
        "ns",
        1,
    );
    let t = Instant::now();
    let back =
        FlowTree::decode(&bytes, big).unwrap_or_else(|e| fail(format!("tree decode: {e:?}")));
    out.put(
        "tree.decode_ns_per_node",
        t.elapsed().as_nanos() as f64 / back.len() as f64,
        "ns",
        1,
    );
    let t = Instant::now();
    black_box(view.hhh(0.01, Metric::Packets));
    out.put("tree.hhh_ms", t.elapsed().as_secs_f64() * 1e3, "ms", 1);
    let t = Instant::now();
    black_box(view.top_k(10, Metric::Packets));
    out.put("tree.top_ms", t.elapsed().as_secs_f64() * 1e3, "ms", 1);

    // flowquery: parsing the round's six query texts.
    let texts = round_texts(T0_MS, 1000, 40);
    let reps = 2_000;
    let t = Instant::now();
    for _ in 0..reps {
        for q in &texts {
            black_box(flowquery::parse(q, u64::MAX - 1).ok());
        }
    }
    out.put(
        "query.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / (reps * texts.len()) as f64,
        "us",
        reps * texts.len(),
    );
}

/// The round of `bench-e2e`'s client, as query texts.
fn round_texts(first_ms: u64, window_ms: u64, scope_windows: u64) -> Vec<String> {
    let whole = format!(
        "from={first_ms} to={}",
        first_ms + scope_windows * window_ms
    );
    let old = format!(
        "from={first_ms} to={}",
        first_ms + scope_windows.min(10) * window_ms
    );
    vec![
        format!("pop {whole}"),
        format!("top 10 dst under dst=10.0.0.0/8 {whole}"),
        format!("hhh 0.01 by packets {whole}"),
        format!("drill src under src=10.0.0.0/8 {whole}"),
        format!("hhh 0.01 {whole}"),
        format!("bysite {old}"),
    ]
}

// ---------------------------------------------------------------------------
// Replay: the workload's fleet, one trace per window
// ---------------------------------------------------------------------------

struct SiteState {
    pipeline: IngestPipeline,
    admission: AdmissionControl,
    pool: usize,
    pos: usize,
    /// Index (into the relay vector) of the tier-1 relay it feeds.
    upstream: usize,
}

fn parse_query(text: &str) -> Query {
    flowquery::parse(text, u64::MAX - 1).unwrap_or_else(|e| fail(format!("query `{text}`: {e}")))
}

fn replay(out: &mut Out, wl: &Workload, spec: &FleetSpec, seed: u64, tracer: &mut Tracer) {
    let topo = spec.topology();
    // Relays in topology order, so QueryRouter can pair them up.
    let mut relays: Vec<Relay> = topo
        .relays
        .iter()
        .map(|r| relay_of(spec, &r.name))
        .collect();
    let root = topo.root();
    let index_of = |name: &str| {
        topo.index_of(name)
            .unwrap_or_else(|| fail(format!("no relay {name}")))
    };
    let nsites = spec.sites.len();
    let mut pools = gen::build_pools(&wl.pool, wl.per_site_pools, seed, nsites);
    println!("# pool {:016x}", gen::pools_hash(&pools));
    let mut sites: Vec<SiteState> = spec
        .sites
        .iter()
        .enumerate()
        .map(|(i, s)| SiteState {
            pipeline: site_pipeline(s.site, s.window_ms, s.budget, s.batch),
            admission: AdmissionControl::new(),
            pool: if wl.per_site_pools { i } else { 0 },
            pos: 0,
            upstream: index_of(&s.upstream),
        })
        .collect();
    // Exports of tier-1 relays wait in a spill queue like the shipper's.
    let mut spill = SpillQueue::in_memory(SpillConfig::default());
    // Reference: one flat collector fed every site window directly,
    // and a shadow collector fed the root's input, for the
    // collector-only costs.
    let root_cfg = relays[root].tree_cfg();
    let mut flat = Collector::new(Schema::five_feature(), root_cfg);
    let mut shadow = Collector::new(Schema::five_feature(), root_cfg);

    let per_window = datagrams_per_window(wl);
    let full_windows: i32 = if nsites == 1 { 4 } else { 10 };
    let span_ms = wl.window_ms;
    let admit_cfg = AdmissionConfig::default();
    // The round's scope, as bench-e2e's client asks for it; and a
    // scope that keeps growing whatever the workload, for the
    // collector-only view costs.
    let scope_to = T0_MS + wl.scope_windows * span_ms;
    let far = T0_MS + workload::WHOLE_RUN * span_ms;
    let queries: Vec<Query> = round_texts(T0_MS, span_ms, wl.scope_windows)
        .iter()
        .map(|t| parse_query(t))
        .collect();
    // Tier-1 relays again, re-exporting whole windows: what the delta
    // stream's bytes are measured against.
    let mut full_twins: Vec<Relay> = topo
        .relays
        .iter()
        .map(|r| {
            let mut twin = relay_of(spec, &r.name);
            twin.set_export_config(ExportConfig {
                mode: flowrelay::ExportMode::Full,
                ..*twin.export_config()
            });
            twin
        })
        .collect();

    let mut apply_full = Vec::new();
    let mut apply_delta = Vec::new();
    let mut view_ms = Vec::new();
    let mut hit_us = Vec::new();
    let mut frame_bytes = Vec::new();
    let mut site_windows = 0usize;

    // Two extra one-datagram windows push event time far enough for
    // the last full window to close.
    for k in 0..full_windows + 2 {
        let start_ms = T0_MS + k as u64 * span_ms;
        let count = if k < full_windows { per_window } else { 1 };
        // Harness work (stamping copies) happens before the window's
        // trace starts.
        let feeds: Vec<Vec<Vec<u8>>> = sites
            .iter_mut()
            .map(|s| window_datagrams(&mut pools[s.pool], &mut s.pos, count, start_ms, span_ms))
            .collect();
        let w = tracer.begin("window", -1, k);

        // Sites: decode, admit, push; the first datagram's records are
        // flushed on their own so the close they cause is isolated.
        let mut closed: Vec<(usize, Summary)> = Vec::new();
        for (si, dgrams) in feeds.iter().enumerate() {
            let s = &mut sites[si];
            let decoded: Vec<Vec<FlowRecord>> = tracer.leaf("decode", w, k, || {
                dgrams
                    .iter()
                    .map(|d| {
                        s.pipeline
                            .decode_packet_at(d, start_ms)
                            .unwrap_or_else(|| fail("the generator's datagram did not decode"))
                    })
                    .collect()
            });
            let admitted = tracer.leaf("admit", w, k, || {
                decoded
                    .iter()
                    .filter(|recs| {
                        s.admission.admit_packet(EXPORTER, &admit_cfg, start_ms)
                            && s.admission
                                .admit_records(EXPORTER, recs.len(), &admit_cfg, start_ms)
                    })
                    .count()
            });
            if admitted != decoded.len() {
                fail("admission refused a datagram with quotas off");
            }
            let mut summaries = tracer.leaf("pipeline.push", w, k, || {
                s.pipeline.push_records(&decoded[0])
            });
            let close = tracer.begin("daemon.close", w, k);
            let flushed = s.pipeline.flush_batches();
            tracer.end(close);
            if flushed.is_empty() {
                // Nothing was old enough to close (the run's first two
                // windows): this flush was plain pipeline work.
                tracer.spans[close as usize].name = "pipeline.push";
            }
            summaries.extend(flushed);
            summaries.extend(tracer.leaf("pipeline.push", w, k, || {
                let mut out = Vec::new();
                for recs in &decoded[1..] {
                    out.extend(s.pipeline.push_records(recs));
                }
                out
            }));
            closed.extend(summaries.into_iter().map(|sum| (si, sum)));
        }

        // Tier 1: every closed site window is encoded, applied at its
        // relay, and the relay drained — once per arriving frame, the
        // most re-exports the scheduler can be made to produce.
        let mut site_frames: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut exports: Vec<Vec<u8>> = Vec::new();
        for (si, summary) in closed {
            let frame = tracer.leaf("summary.encode", w, k, || summary.encode());
            let relay = &mut relays[sites[si].upstream];
            let outcome = tracer.leaf("relay.ingest", w, k, || relay.ingest_classified(&frame));
            if !matches!(outcome, flowrelay::FrameOutcome::Applied(_)) {
                fail(format!(
                    "tier-1 relay did not apply a site frame: {outcome:?}"
                ));
            }
            let due = tracer.leaf("relay.drain", w, k, || relay.drain_exports_at(u64::MAX / 2));
            for export in due {
                let bytes = tracer.leaf("summary.encode", w, k, || export.encode());
                let copy = bytes.clone();
                tracer.leaf("spill.push", w, k, || spill.push(copy));
                exports.push(bytes);
            }
            site_frames.push((si, frame));
        }

        // Root: apply every export, drain (a root still computes its
        // own exports), extend the round's view, evaluate the round.
        for bytes in &exports {
            let outcome = tracer.leaf("root.ingest", w, k, || {
                relays[root].ingest_classified(bytes)
            });
            if !matches!(outcome, flowrelay::FrameOutcome::Applied(_)) {
                fail(format!("root did not apply an export: {outcome:?}"));
            }
        }
        if !exports.is_empty() {
            tracer.leaf("root.drain", w, k, || {
                black_box(relays[root].drain_exports_at(u64::MAX / 2))
            });
            tracer.leaf("view.extend", w, k, || {
                black_box(relays[root].merged_view(None, T0_MS, scope_to))
            });
            let solo = topo_of(&relays[root], &topo);
            tracer.leaf("query.eval", w, k, || {
                let router = QueryRouter::new(&solo, std::slice::from_ref(&relays[root]));
                for q in &queries[..4] {
                    black_box(router.run(q));
                }
            });
        }
        tracer.end(w);

        // Outside the window's trace: the references. A flat collector
        // and full-mode twins of the tier-1 relays see every site
        // frame; a bare collector sees the root's input and gives the
        // collector-only costs (first view use builds, later uses
        // extend, an immediate repeat hits).
        for (si, frame) in &site_frames {
            site_windows += 1;
            frame_bytes.push(frame.len() as f64);
            flat.apply_bytes(frame)
                .unwrap_or_else(|e| fail(format!("flat apply: {e}")));
            let twin = &mut full_twins[sites[*si].upstream];
            if twin.ingest_frame(frame).is_err() {
                fail("full-mode twin refused a site frame");
            }
            black_box(twin.drain_exports_at(u64::MAX / 2));
        }
        for bytes in &exports {
            let kind = Summary::decode(bytes, root_cfg)
                .map(|s| s.kind)
                .unwrap_or(SummaryKind::Full);
            let t = Instant::now();
            shadow
                .apply_bytes(bytes)
                .unwrap_or_else(|e| fail(format!("shadow apply: {e}")));
            let us = t.elapsed().as_secs_f64() * 1e6;
            match kind {
                SummaryKind::Full => apply_full.push(us),
                SummaryKind::Delta => apply_delta.push(us),
            }
        }
        if !exports.is_empty() {
            let t = Instant::now();
            black_box(shadow.merged_view(None, T0_MS, far));
            view_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            black_box(shadow.merged_view(None, T0_MS, far));
            hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let replay_ns = sum(&tracer.durations("window"));

    // --- the root must equal a flat collector over the same site windows ---
    // Answers are compared over one window (a scope small enough that
    // neither side has compacted anything: compaction is lossy in the
    // estimates, though never in the totals) and, for `pop`, over the
    // whole run; stored windows are compared byte for byte.
    let mut root_nodes = 0usize;
    for k in 0..full_windows {
        let (from, to) = (T0_MS + k as u64 * span_ms, T0_MS + (k as u64 + 1) * span_ms);
        let have = relays[root].collector().merged(None, from, to);
        let want = flat.merged(None, from, to);
        if have.total() != want.total() {
            fail(format!(
                "window {k}: root holds {:?}, flat holds {:?}",
                have.total(),
                want.total()
            ));
        }
        root_nodes = root_nodes.max(have.len());
        if have.encode() != want.encode() {
            fail(format!(
                "window {k}: the root's re-export bytes differ from the flat collector's \
                 ({} vs {} nodes under a budget of {})",
                have.len(),
                want.len(),
                root_cfg.node_budget
            ));
        }
    }
    let router = QueryRouter::new(&topo, &relays);
    let flat_engine = QueryEngine::new(&flat);
    let mut checks: Vec<Query> = round_texts(T0_MS, span_ms, 1)[..4]
        .iter()
        .map(|t| parse_query(t))
        .collect();
    checks.push(queries[0].clone());
    for q in &checks {
        let routed = router.run(q);
        let want = flat_engine.run(q).render(Metric::Packets);
        let have = routed.output.render(Metric::Packets);
        if have != want {
            fail(format!(
                "hierarchy answer differs from the flat collector's:\n{have}\nvs\n{want}"
            ));
        }
    }
    println!(
        "# root == flat collector: answers and re-export bytes of {full_windows} windows identical \
         (largest root window {root_nodes} nodes, budget {})",
        root_cfg.node_budget
    );

    // --- metrics from the spans ---------------------------------------------
    out.put(
        "daemon.close_ms_per_window",
        median(&tracer.durations("daemon.close")) / 1e6,
        "ms",
        site_windows,
    );
    let encodes = tracer.durations("summary.encode");
    out.put(
        "summary.encode_us_per_frame",
        median(&encodes) / 1e3,
        "us",
        encodes.len(),
    );
    out.put(
        "summary.bytes_per_frame",
        median(&frame_bytes),
        "bytes",
        frame_bytes.len(),
    );
    let spills = tracer.durations("spill.push");
    out.put(
        "spill.push_us_per_frame",
        median(&spills) / 1e3,
        "us",
        spills.len(),
    );
    out.put(
        "relay.ingest_us_per_frame",
        median(&tracer.durations("relay.ingest")) / 1e3,
        "us",
        site_windows,
    );
    // One (tier-1 relay, window) pair per `sites / tier-1 relays` site windows.
    let relay_windows = site_windows * (relays.len() - 1).max(1) / nsites;
    out.put(
        "relay.drain_ms_per_window",
        sum(&tracer.durations("relay.drain")) / relay_windows.max(1) as f64 / 1e6,
        "ms",
        relay_windows,
    );
    let exported = |rs: &[Relay]| -> u64 {
        rs.iter()
            .enumerate()
            .filter(|(i, _)| *i != root)
            .map(|(_, r)| r.ledger().exported_bytes)
            .sum()
    };
    out.put(
        "relay.delta_bytes_ratio",
        exported(&relays) as f64 / exported(&full_twins).max(1) as f64,
        "ratio",
        0,
    );
    out.put(
        "collector.apply_full_us_per_frame",
        median(&apply_full),
        "us",
        apply_full.len(),
    );
    out.put(
        "collector.apply_delta_us_per_frame",
        median(&apply_delta),
        "us",
        apply_delta.len(),
    );
    out.put(
        "collector.view_build_ms",
        view_ms.first().copied().unwrap_or(0.0),
        "ms",
        1,
    );
    out.put(
        "collector.view_extend_ms",
        median(view_ms.get(1..).unwrap_or(&[])),
        "ms",
        view_ms.len().saturating_sub(1),
    );
    out.put("collector.view_hit_us", median(&hit_us), "us", hit_us.len());
    let vs = relays[root].collector().view_cache_stats();
    let lookups = vs.hits + vs.extends + vs.delta_extends + vs.rebuilds;
    out.put(
        "collector.view_hit_ratio",
        vs.hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );

    // Summary decode, on the site frames just produced (re-encoded from
    // the flat collector's stored windows would reorder work; decode
    // the tier-1 exports instead: they are what crosses the WAN).
    let pending: Vec<Vec<u8>> = spill.pending().map(|r| r.bytes.clone()).collect();
    let t = Instant::now();
    for bytes in &pending {
        black_box(Summary::decode(bytes, root_cfg).ok());
    }
    out.put(
        "summary.decode_us_per_frame",
        t.elapsed().as_secs_f64() * 1e6 / pending.len().max(1) as f64,
        "us",
        pending.len(),
    );

    // flowrelay::plan: the whole hierarchy in one router.
    let (lo, hi) = wl.region_sites;
    let sites_in =
        |range: std::ops::Range<u16>| range.map(|s| s.to_string()).collect::<Vec<_>>().join(",");
    let whole = format!("from={T0_MS} to={far}");
    let straddle = if nsites > hi as usize + 1 {
        (hi - 2).max(lo)..hi + 2
    } else {
        lo..hi
    };
    let routes = [
        (
            "query.route_root_ms",
            format!("hhh 0.01 by packets {whole}"),
        ),
        (
            "query.route_region_ms",
            format!("hhh 0.01 by packets sites={} {whole}", sites_in(lo..hi)),
        ),
        (
            "query.route_fanout_ms",
            format!("hhh 0.01 by packets sites={} {whole}", sites_in(straddle)),
        ),
        ("query.bysite_ms", format!("bysite {whole}")),
    ];
    for (name, text) in routes {
        let q = parse_query(&text);
        black_box(router.run(&q)); // first use builds the view; time the steady state
        let reps = 5;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(router.run(&q));
        }
        out.put(
            name,
            t.elapsed().as_secs_f64() * 1e3 / reps as f64,
            "ms",
            reps,
        );
    }
    // Unattributed: replay wall time no leaf span covers.
    let covered: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name != "window")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum();
    out.put(
        "layers.unattributed_pct",
        100.0 * (replay_ns - covered).max(0.0) / replay_ns,
        "%",
        0,
    );
}

/// A one-relay topology around `relay`, as `NodeRuntime` builds for its
/// own query listener.
fn topo_of(relay: &Relay, whole: &flowrelay::RelayTopology) -> flowrelay::RelayTopology {
    let spec = whole
        .relays
        .iter()
        .find(|r| r.name == relay.name())
        .expect("relay comes from this topology");
    flowrelay::RelayTopology {
        relays: vec![flowrelay::RelaySpec {
            name: spec.name.clone(),
            parent: None,
            agg_site: spec.agg_site,
            sites: relay.expected_coverage().iter().copied().collect(),
        }],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let name = get("--workload").unwrap_or_else(|| fail("missing --workload"));
    let wl = workload::find(&name).unwrap_or_else(|| fail(format!("unknown workload {name}")));
    let seed: u64 = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("missing --seed <n>"));
    let specs = get("--specs").unwrap_or_else(|| fail("missing --specs <dir>"));
    let path = format!("{specs}/{}", wl.spec);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let spec = FleetSpec::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));

    let mut out = Out(Vec::new());
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    micro(&mut out, seed);
    replay(&mut out, wl, &spec, seed, &mut tracer);
    if let Some(path) = get("--trace-out") {
        tracer
            .write_json(&path)
            .unwrap_or_else(|e| fail(format!("{path}: {e}")));
    }
    for (name, value, unit, n) in &out.0 {
        println!("{name} {value} {unit} {n}");
    }
}

#[cfg(test)]
mod tests {
    //! Generator correctness: `bench-e2e` cannot link `flownet`, so the
    //! checks that its std-only encoders speak the program's dialects
    //! live here.
    use super::*;
    use gen::{Format, PoolSpec, Rec, Zipf};

    fn spec(format: Format, records_per_datagram: usize, private_site: Option<u16>) -> PoolSpec {
        PoolSpec {
            format,
            datagrams: 300,
            records_per_datagram,
            flows: 10_000,
            private_site,
            template_every: 128,
        }
    }

    /// Every datagram of a pool decodes through the program's own
    /// decoder to exactly the records generated, stamp included.
    fn decodes_to_what_was_generated(spec: PoolSpec) {
        let mut generated: Vec<Rec> = Vec::new();
        let mut pool = Pool::build(&spec, &Zipf::over(spec.flows), 42, 3, |r| {
            generated.push(*r)
        });
        let mut decoder = ExportDecoder::new();
        let mut seen = 0usize;
        for (i, d) in pool.dgrams.iter_mut().enumerate() {
            let ts = T0_MS + 1_000 * i as u64 + 7;
            d.stamp(ts);
            let (_, records) = flownet::decode_export_packet(&mut decoder, &d.bytes)
                .unwrap_or_else(|e| panic!("datagram {i} does not decode: {e:?}"));
            assert_eq!(records.len(), d.records as usize);
            let mut packets = 0u64;
            for r in &records {
                let g = generated[seen];
                seen += 1;
                assert_eq!(r.src, IpAddr::V4(Ipv4Addr::from(g.src)));
                assert_eq!(r.dst, IpAddr::V4(Ipv4Addr::from(g.dst)));
                assert_eq!((r.sport, r.dport, r.proto), (g.sport, g.dport, g.proto));
                assert_eq!((r.packets, r.bytes), (g.packets as u64, g.bytes as u64));
                assert_eq!((r.first_ms, r.last_ms), (ts, ts));
                packets += r.packets;
            }
            // The mass the e2e run expects of a window is summed from
            // these per-datagram numbers, never from the program.
            assert_eq!(d.packets, packets);
        }
        assert_eq!(seen, generated.len());
    }

    #[test]
    fn v5_datagrams_decode_to_the_generated_records() {
        decodes_to_what_was_generated(spec(Format::NetflowV5, 30, None));
        decodes_to_what_was_generated(spec(Format::NetflowV5, 20, Some(5)));
    }

    #[test]
    fn ipfix_datagrams_decode_to_the_generated_records() {
        decodes_to_what_was_generated(spec(Format::Ipfix, 3, None));
    }

    #[test]
    fn a_seed_is_a_byte_identical_pool() {
        for wl in &workload::WORKLOADS {
            let small = PoolSpec {
                datagrams: 64,
                flows: 10_000,
                ..wl.pool
            };
            let hash =
                |seed| gen::pools_hash(&gen::build_pools(&small, wl.per_site_pools, seed, 4));
            assert_eq!(hash(9), hash(9), "{}", wl.name);
            assert_ne!(hash(9), hash(10), "{}", wl.name);
        }
    }

    #[test]
    fn site_pools_share_keys_but_not_draws() {
        let fleet = workload::find("fleet_fanin").unwrap();
        let small = PoolSpec {
            datagrams: 64,
            flows: 10_000,
            ..fleet.pool
        };
        let pools = gen::build_pools(&small, true, 1, 2);
        assert_ne!(pools[0].hash(), pools[1].hash());
    }
}
