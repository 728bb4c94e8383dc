//! The crash-safety property of the durable export tier: kill any
//! node between any two protocol steps, restart it from its journal
//! and spill, and the root converges to a state **byte-identical** to
//! an uninterrupted run of the same schedule — stored window trees,
//! epochs, seqs, merged views, and re-export bytes.
//!
//! The protocol is driven manually in-process (no TCP): a journaled
//! tier-1 relay drains into a disk spill, a journaled root applies
//! frames through `ingest_classified`, and acks are matched exactly
//! the way the shipper matches them. Crashes are a drop + reopen at
//! op granularity — the journal and spill write unbuffered, so the
//! on-disk state at a drop is the on-disk state at a `kill -9`
//! (the relayd smoke test covers the real SIGKILL).

mod common;

use common::Rng;
use flowdist::{
    EpochHeader, FsyncPolicy, Lineage, SpillConfig, SpillQueue, Summary, SummaryKind, WindowId,
};
use flowkey::{FlowKey, Schema};
use flowrelay::{ExportConfig, FrameOutcome, JournalConfig, Relay, RelayConfig};
use flowtree_core::{Config, FlowTree, Popularity};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const SPAN: u64 = 1_000;
const HORIZON_MS: u64 = 100 * SPAN;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowrelay-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn site_summary(site: u16, window: u64, hosts: u8, epoch: u64) -> Summary {
    let mut tree = FlowTree::new(Schema::five_feature(), Config::with_budget(4_096));
    for h in 0..hosts {
        let key: FlowKey =
            format!("src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                .parse()
                .unwrap();
        tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
    }
    Summary {
        site,
        window: WindowId {
            start_ms: window * SPAN,
            span_ms: SPAN,
        },
        seq: epoch,
        kind: SummaryKind::Full,
        lineage: Some(Lineage {
            provenance: vec![site],
            epoch: EpochHeader { epoch, base: None },
        }),
        tree,
    }
}

fn tier_cfg(name: &str, agg: u16, expected: &[u16]) -> RelayConfig {
    RelayConfig {
        name: name.into(),
        agg_site: agg,
        expected: expected.to_vec(),
        schema: Schema::five_feature(),
        tree: Config::with_budget(100_000),
        export: ExportConfig::default(),
    }
}

/// The tier-1 node: journaled relay + disk spill + the shipper's
/// pending-frame metadata (rebuilt from spill bytes after a crash,
/// exactly like `ExportShipper::new`).
struct Tier {
    relay: Relay,
    spill: SpillQueue,
    /// spill seq → (window_start_ms, exporter, epoch).
    meta: BTreeMap<u64, (u64, u16, u64)>,
}

fn open_tier(dir: &Path, crashed: bool, jcfg: JournalConfig) -> Tier {
    let (relay, _report) =
        Relay::open_journaled(tier_cfg("t1", 100, &[0, 1]), &dir.join("journal"), jcfg)
            .expect("open tier journal");
    let spill = SpillQueue::open(
        &dir.join("spill"),
        SpillConfig {
            fsync: FsyncPolicy::Never,
            ..SpillConfig::default()
        },
    )
    .expect("open tier spill");
    let mut meta = BTreeMap::new();
    for rec in spill.pending() {
        let s = Summary::decode(&rec.bytes, Config::with_budget(100_000)).unwrap();
        meta.insert(
            rec.seq,
            (s.window.start_ms, s.site, s.epoch().unwrap().epoch),
        );
    }
    let mut tier = Tier { relay, spill, meta };
    if crashed {
        // What relayd does on restart with an upstream configured:
        // anything exported but never acked is re-queued.
        tier.relay.rewind_unacked_exports();
    }
    tier
}

fn open_root(dir: &Path, jcfg: JournalConfig) -> Relay {
    Relay::open_journaled(tier_cfg("root", 200, &[0, 1]), &dir.join("journal"), jcfg)
        .expect("open root journal")
        .0
}

/// Drain the tier's exports into its spill, shipper-style.
fn drain(tier: &mut Tier) {
    for e in tier.relay.flush_exports() {
        let m = (e.window.start_ms, e.site, e.epoch().unwrap().epoch);
        let seq = tier.spill.next_seq();
        tier.spill.push(e.encode());
        tier.meta.insert(seq, m);
    }
}

/// Deliver every spilled frame to the root in order, applying the
/// shipper's non-positional ack matching to releases.
fn deliver(tier: &mut Tier, root: &mut Relay) {
    let pending: Vec<(u64, Vec<u8>)> = tier
        .spill
        .pending()
        .map(|r| (r.seq, r.bytes.clone()))
        .collect();
    for (_, bytes) in pending {
        match root.ingest_classified(&bytes) {
            FrameOutcome::Applied(pos) | FrameOutcome::Replayed(pos) => {
                tier.meta.retain(|_, m| {
                    !(m.0 == pos.window_start_ms && m.1 == pos.exporter && m.2 <= pos.epoch)
                });
                tier.relay.note_shipped(pos.window_start_ms, pos.epoch);
                let floor = tier
                    .meta
                    .keys()
                    .next()
                    .copied()
                    .unwrap_or_else(|| tier.spill.next_seq());
                tier.spill.ack_through(floor);
            }
            FrameOutcome::NeedsRebase(pos) => {
                // Orphan delta: no ack, ask the tier to rewind the
                // window. The rebasing full frame's later epoch-ack
                // clears this frame too (non-positional matching).
                tier.relay.request_rebase(pos.window_start_ms);
            }
            FrameOutcome::Rejected => panic!("the tier shipped a malformed frame"),
        }
    }
}

/// Everything observable about the root, as labeled byte sections:
/// stored slots (tree, epoch, seq) in sorted order, the merged view,
/// and what it would re-export upward.
fn fingerprint(root: &mut Relay) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut keys = root.collector().window_keys();
    keys.sort_unstable();
    for (w, site) in keys {
        out.push((
            format!("slot {w}/{site} epoch"),
            root.collector()
                .window_epoch(w, site)
                .to_le_bytes()
                .to_vec(),
        ));
        // Deliberately NOT fingerprinted: the slot's last-applied frame
        // seq. The tier's export seq is a global counter, and a rewound
        // re-export (same epoch, byte-identical tree) legitimately
        // carries a later seq — transport bookkeeping, not content.
        out.push((
            format!("slot {w}/{site} tree"),
            root.collector().window_tree(w, site).unwrap().encode(),
        ));
    }
    out.push((
        "merged view".into(),
        root.merged_view(None, 0, HORIZON_MS).encode(),
    ));
    for e in root.flush_exports() {
        out.push((
            format!("re-export {}/{}", e.window.start_ms, e.site),
            e.encode(),
        ));
    }
    out
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Site frame into the tier (site, window, hosts, per-slot epoch).
    Ingest(u16, u64, u8, u64),
    Drain,
    Deliver,
}

/// A random but deterministic op schedule: ingest-heavy, with drains
/// and deliveries at random cadences and monotone-growing site
/// content (so the export stream mixes deltas and fulls).
fn schedule(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut epochs: BTreeMap<(u16, u64), u64> = BTreeMap::new();
    let mut hosts: BTreeMap<(u16, u64), u8> = BTreeMap::new();
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        match rng.below(5) {
            0..=2 => {
                let site = rng.below(2) as u16;
                let window = rng.below(3);
                let epoch = epochs.entry((site, window)).or_insert(0);
                *epoch += 1;
                let h = hosts.entry((site, window)).or_insert(0);
                *h = (*h + 1 + rng.below(3) as u8).min(20);
                out.push(Op::Ingest(site, window, *h, *epoch));
            }
            3 => out.push(Op::Drain),
            _ => out.push(Op::Deliver),
        }
    }
    out
}

fn apply_op(op: Op, tier: &mut Tier, root: &mut Relay) {
    match op {
        Op::Ingest(site, window, hosts, epoch) => {
            let frame = site_summary(site, window, hosts, epoch).encode();
            match tier.relay.ingest_classified(&frame) {
                FrameOutcome::Applied(_) | FrameOutcome::Replayed(_) => {}
                other => panic!("site frame bounced at the tier: {other:?}"),
            }
        }
        Op::Drain => drain(tier),
        Op::Deliver => deliver(tier, root),
    }
}

/// Drain/deliver until nothing is pending anywhere.
fn quiesce(tier: &mut Tier, root: &mut Relay) {
    for _ in 0..50 {
        drain(tier);
        deliver(tier, root);
        if tier.spill.is_empty() && tier.meta.is_empty() {
            return;
        }
    }
    panic!(
        "did not quiesce: {} spilled, {} tracked",
        tier.spill.len(),
        tier.meta.len()
    );
}

/// One run of a schedule. `crashes` maps op index → which node dies
/// **before** that op executes; both nodes journal under `jcfg`.
fn run(
    tag: &str,
    ops: &[Op],
    crashes: &BTreeMap<usize, u8>,
    jcfg: JournalConfig,
) -> Vec<(String, Vec<u8>)> {
    let tdir = tmpdir(&format!("{tag}-tier"));
    let rdir = tmpdir(&format!("{tag}-root"));
    let mut tier = open_tier(&tdir, false, jcfg);
    let mut root = open_root(&rdir, jcfg);
    for (i, op) in ops.iter().enumerate() {
        match crashes.get(&i) {
            Some(0) => {
                drop(tier);
                tier = open_tier(&tdir, true, jcfg);
            }
            Some(_) => {
                drop(root);
                root = open_root(&rdir, jcfg);
            }
            None => {}
        }
        apply_op(*op, &mut tier, &mut root);
    }
    quiesce(&mut tier, &mut root);
    let print = fingerprint(&mut root);
    drop(tier);
    drop(root);
    let _ = std::fs::remove_dir_all(&tdir);
    let _ = std::fs::remove_dir_all(&rdir);
    print
}

/// The central property: for a spread of seeds, kill the tier or the
/// root at random points mid-stream and the root's final state is
/// byte-identical to the uninterrupted run. The second input compacts
/// on every append (`compact_wal_bytes: 1`), so every reopen restores
/// from a snapshot instead of replaying operations.
#[test]
fn crashed_runs_are_byte_identical_to_clean_runs() {
    let snapshot_every_append = JournalConfig {
        compact_wal_bytes: 1,
        ..JournalConfig::default()
    };
    for (input, jcfg) in [
        ("wal", JournalConfig::default()),
        ("snap", snapshot_every_append),
    ] {
        for seed in 0..10u64 {
            let ops = schedule(seed, 40);
            let clean = run(
                &format!("clean-{input}-{seed}"),
                &ops,
                &BTreeMap::new(),
                jcfg,
            );

            let mut rng = Rng::new(seed ^ 0xC4A5);
            let mut crashes = BTreeMap::new();
            for i in 0..ops.len() {
                if rng.chance(20) {
                    crashes.insert(i, (rng.below(2)) as u8);
                }
            }
            assert!(!crashes.is_empty(), "seed {seed} scheduled no crashes");
            let crashed = run(&format!("crash-{input}-{seed}"), &ops, &crashes, jcfg);
            let clean_names: Vec<&String> = clean.iter().map(|(n, _)| n).collect();
            let crashed_names: Vec<&String> = crashed.iter().map(|(n, _)| n).collect();
            assert_eq!(
                clean_names,
                crashed_names,
                "{input} seed {seed}: observable sections differ after {} crashes",
                crashes.len()
            );
            for ((name, want), (_, got)) in clean.iter().zip(crashed.iter()) {
                assert_eq!(
                    want,
                    got,
                    "{input} seed {seed}: `{name}` diverged after {} crashes",
                    crashes.len()
                );
            }
        }
    }
}

/// Spilled frames survive a restart, drain strictly in order, and a
/// second delivery of the same bytes is pure replay — no epoch moves.
#[test]
fn spill_redelivery_is_in_order_and_idempotent() {
    let tdir = tmpdir("redeliver-tier");
    let rdir = tmpdir("redeliver-root");
    let mut tier = open_tier(&tdir, false, JournalConfig::default());
    for seq in 1..=3u64 {
        let frame = site_summary(0, seq - 1, 3, 1).encode();
        tier.relay.ingest_classified(&frame);
        drain(&mut tier);
    }
    let before: Vec<Vec<u8>> = tier.spill.pending().map(|r| r.bytes.clone()).collect();
    assert_eq!(before.len(), 3);

    // Crash before anything ships.
    drop(tier);
    let mut tier = open_tier(&tdir, true, JournalConfig::default());
    let after: Vec<Vec<u8>> = tier.spill.pending().map(|r| r.bytes.clone()).collect();
    assert_eq!(before, after, "spill recovered byte-identically, in order");

    // First delivery applies in window order; a forced second delivery
    // of the same bytes only replays.
    let mut root = open_root(&rdir, JournalConfig::default());
    let mut outcomes = Vec::new();
    for bytes in &after {
        outcomes.push(root.ingest_classified(bytes));
    }
    for (i, o) in outcomes.iter().enumerate() {
        let FrameOutcome::Applied(pos) = o else {
            panic!("first delivery of frame {i} was {o:?}");
        };
        assert_eq!(pos.window_start_ms, i as u64 * SPAN, "drained in order");
    }
    let epochs: Vec<u64> = (0..3)
        .map(|w| root.collector().window_epoch(w * SPAN, 100))
        .collect();
    for bytes in &after {
        assert!(
            matches!(root.ingest_classified(bytes), FrameOutcome::Replayed(_)),
            "redelivery must be recognized as replay"
        );
    }
    let again: Vec<u64> = (0..3)
        .map(|w| root.collector().window_epoch(w * SPAN, 100))
        .collect();
    assert_eq!(epochs, again, "replays moved no epochs");
    deliver(&mut tier, &mut root);
    assert!(tier.spill.is_empty(), "acks drained the recovered spill");
    let _ = std::fs::remove_dir_all(&tdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// The shorter-retention regression: a root that already evicted a
/// window gets a delta based past its (now empty) ledger, answers
/// with a rebase-request, and the tier's full rebasing frame heals
/// the chain at the same epoch.
#[test]
fn shorter_retention_at_the_root_heals_via_rebase() {
    let tdir = tmpdir("retention-tier");
    let rdir = tmpdir("retention-root");
    let mut tier = open_tier(&tdir, false, JournalConfig::default());
    let mut root = open_root(&rdir, JournalConfig::default());

    // Epoch 1 ships and applies.
    tier.relay
        .ingest_classified(&site_summary(0, 0, 3, 1).encode());
    drain(&mut tier);
    deliver(&mut tier, &mut root);
    assert_eq!(root.collector().window_epoch(0, 100), 1);

    // The root's shorter retention evicts the window; the tier keeps
    // aggregating and ships a delta based on what the root forgot.
    root.evict_windows_before(SPAN);
    assert_eq!(root.collector().window_epoch(0, 100), 0);
    tier.relay
        .ingest_classified(&site_summary(0, 0, 6, 2).encode());
    drain(&mut tier);
    let shipped: Vec<Summary> = tier
        .spill
        .pending()
        .map(|r| Summary::decode(&r.bytes, Config::with_budget(100_000)).unwrap())
        .collect();
    assert!(
        shipped.iter().any(|s| s.kind == SummaryKind::Delta),
        "the steady state ships a delta"
    );
    let delta_epoch = shipped.last().unwrap().epoch().unwrap().epoch;

    // Delivery bounces (rebase-request), the tier rewinds, and the
    // rebasing full frame heals the window at the same epoch.
    deliver(&mut tier, &mut root);
    assert_eq!(root.ledger().rebase_requests, 1);
    assert_eq!(tier.relay.ledger().rebase_rewinds, 1);
    quiesce(&mut tier, &mut root);
    assert_eq!(root.collector().window_epoch(0, 100), delta_epoch);

    // The healed window matches a root that never evicted anything,
    // fed the same logical content through a fresh tier.
    let reference_dir = tmpdir("retention-ref");
    let mut reference = open_root(&reference_dir, JournalConfig::default());
    let ref_tier_dir = tmpdir("retention-ref-tier");
    let mut ref_tier = open_tier(&ref_tier_dir, false, JournalConfig::default());
    ref_tier
        .relay
        .ingest_classified(&site_summary(0, 0, 3, 1).encode());
    drain(&mut ref_tier);
    deliver(&mut ref_tier, &mut reference);
    ref_tier
        .relay
        .ingest_classified(&site_summary(0, 0, 6, 2).encode());
    quiesce(&mut ref_tier, &mut reference);
    assert_eq!(
        root.collector().window_tree(0, 100).unwrap().encode(),
        reference.collector().window_tree(0, 100).unwrap().encode(),
        "healed window is byte-identical to a never-evicted root"
    );

    // And the chain keeps moving: the next delta applies cleanly.
    tier.relay
        .ingest_classified(&site_summary(0, 0, 9, 3).encode());
    drain(&mut tier);
    let last = tier
        .spill
        .pending()
        .last()
        .map(|r| r.bytes.clone())
        .unwrap();
    let kind = Summary::decode(&last, Config::with_budget(100_000))
        .unwrap()
        .kind;
    deliver(&mut tier, &mut root);
    assert!(tier.spill.is_empty(), "post-heal export acked ({kind:?})");
    for d in [tdir, rdir, reference_dir, ref_tier_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
