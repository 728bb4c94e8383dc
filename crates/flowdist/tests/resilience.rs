//! Failure injection for the distributed layer: summary loss, frame
//! corruption, duplicated frames, and reordering — the collector must
//! degrade gracefully, never corrupt state, and keep exact accounting
//! for everything it did receive.

use flowdist::{
    Collector, DaemonConfig, DistError, SiteDaemon, Summary, SummaryKind, TransferMode,
};
use flowkey::Schema;
use flownet::FlowRecord;
use flowtree_core::Config;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn record(ts_ms: u64, host: u8, packets: u64) -> FlowRecord {
    let mut r = FlowRecord::v4(
        [10, 0, 0, host],
        [192, 0, 2, 1],
        2_000,
        443,
        6,
        packets,
        packets * 100,
    );
    r.first_ms = ts_ms;
    r.last_ms = ts_ms;
    r
}

fn summaries(transfer: TransferMode, windows: u64) -> Vec<Summary> {
    let mut cfg = DaemonConfig::new(1);
    cfg.window_ms = 1_000;
    cfg.schema = Schema::five_feature();
    cfg.tree = Config::with_budget(512);
    cfg.transfer = transfer;
    let mut d = SiteDaemon::new(cfg);
    let mut out = Vec::new();
    for w in 0..windows {
        for h in 0..6u8 {
            out.extend(d.ingest_record(&record(w * 1_000 + 10 + h as u64, h, 1 + w)));
        }
    }
    out.extend(d.flush());
    out
}

fn collector() -> Collector {
    Collector::new(Schema::five_feature(), Config::with_budget(512))
}

#[test]
fn full_mode_tolerates_arbitrary_loss() {
    let all = summaries(TransferMode::Full, 8);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut c = collector();
    let mut kept = 0u64;
    let mut kept_packets = 0i64;
    for s in &all {
        if rng.gen_bool(0.5) {
            continue; // the WAN ate it
        }
        c.apply_bytes(&s.encode())
            .expect("full summaries are independent");
        kept += 1;
        kept_packets += s.tree.total().packets;
    }
    assert_eq!(c.stored_windows() as u64, kept);
    assert_eq!(c.merged(None, 0, u64::MAX).total().packets, kept_packets);
    assert_eq!(c.ledger().rejected, 0);
}

#[test]
fn delta_mode_fails_closed_on_gaps() {
    let all = summaries(TransferMode::Delta, 6);
    assert!(all.iter().skip(1).all(|s| s.kind == SummaryKind::Delta));
    let mut c = collector();
    // Drop the 3rd summary; everything after it must be rejected (its
    // base is gone), everything before it must be intact.
    for (i, s) in all.iter().enumerate() {
        if i == 2 {
            continue;
        }
        let res = c.apply_bytes(&s.encode());
        if i < 2 {
            res.expect("pre-gap summaries apply");
        }
    }
    assert_eq!(c.stored_windows(), 2);
    assert!(c.ledger().rejected > 0);
    // The stored windows are still exactly right.
    let w0 = c.window_tree(0, 1).expect("window 0");
    assert_eq!(w0.total().packets, 6);
}

#[test]
fn corrupt_frames_never_corrupt_state() {
    let all = summaries(TransferMode::Full, 4);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut c = collector();
    for s in &all {
        let mut bytes = s.encode();
        // Half the frames get a random byte flipped.
        let corrupt = rng.gen_bool(0.5);
        if corrupt {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1u8 << rng.gen_range(0u32..8);
        }
        let _ = c.apply_bytes(&bytes);
    }
    // Whatever was accepted is internally consistent.
    let merged = c.merged(None, 0, u64::MAX);
    merged.validate();
    assert_eq!(
        c.ledger().summaries as usize + c.ledger().rejected as usize,
        all.len(),
        "every frame is either applied or counted as rejected"
    );
}

#[test]
fn duplicated_and_reordered_full_frames_are_idempotent_per_window() {
    let all = summaries(TransferMode::Full, 4);
    let mut c = collector();
    // Apply in reverse, then replay the same frames.
    for s in all.iter().rev() {
        c.apply_bytes(&s.encode())
            .expect("full frames apply in any order");
    }
    // A site frame is epoch 1 of its window: a duplicate does not
    // advance the slot and is refused without touching it.
    for s in all.iter().rev() {
        assert!(matches!(
            c.apply_bytes(&s.encode()),
            Err(DistError::EpochMismatch {
                have: 1,
                got: 1,
                ..
            })
        ));
    }
    assert_eq!(c.ledger().rejected, all.len() as u64);
    // State equals a single clean pass.
    let mut clean = collector();
    for s in &all {
        clean.apply_bytes(&s.encode()).unwrap();
    }
    assert_eq!(c.stored_windows(), clean.stored_windows());
    assert_eq!(
        c.merged(None, 0, u64::MAX).total(),
        clean.merged(None, 0, u64::MAX).total()
    );
}

#[test]
fn truncated_frames_at_every_cut_point_are_rejected() {
    let all = summaries(TransferMode::Full, 1);
    let bytes = all[0].encode();
    let mut c = collector();
    for cut in 0..bytes.len() {
        assert!(
            c.apply_bytes(&bytes[..cut]).is_err(),
            "cut at {cut} must be rejected"
        );
    }
    assert_eq!(c.stored_windows(), 0);
    assert_eq!(c.ledger().rejected as usize, bytes.len());
}
