//! Property: the pipeline's batch size is a throughput knob and nothing
//! else. Over seeded multi-exporter streams with event-time disorder
//! both inside and beyond the `open_windows` horizon, every batch size
//! must produce the same summaries, from the same `push_records` calls,
//! in the same order, with the same late drops:
//!
//! * with room for every node, byte-identical summary frames;
//! * under a tight budget (compaction at batch-dependent moments), the
//!   same windows carrying the same total mass.
//!
//! Which call a summary comes back from is the freshness half of the
//! claim: a window closes on the first record of a window far enough
//! ahead, not when some bucket happens to fill.

use flowdist::daemon::{DaemonConfig, SiteDaemon, TransferMode};
use flowdist::IngestPipeline;
use flownet::FlowRecord;
use flowtree_core::Config;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WINDOW_MS: u64 = 1_000;
const BATCHES: [usize; 4] = [1, 7, 64, 4_096];

/// One seeded stream, as the export packets it arrives in. Exporters
/// run skewed clocks that advance independently; within a packet,
/// records lag their exporter's clock by up to 1.5 windows, and about
/// one in twenty lags by 2–5 windows.
fn stream(seed: u64, exporters: usize) -> Vec<Vec<FlowRecord>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut clocks: Vec<u64> = (0..exporters)
        .map(|_| 5 * WINDOW_MS + rng.gen_range(0..2 * WINDOW_MS))
        .collect();
    let packets = rng.gen_range(30..90);
    (0..packets)
        .map(|_| {
            let e = rng.gen_range(0..exporters);
            clocks[e] += rng.gen_range(0..200u64);
            let n = rng.gen_range(1..30);
            (0..n)
                .map(|_| {
                    let lag = if rng.gen_bool(0.05) {
                        rng.gen_range(2 * WINDOW_MS..5 * WINDOW_MS)
                    } else {
                        rng.gen_range(0..WINDOW_MS * 3 / 2)
                    };
                    let ts = clocks[e] - lag;
                    let packets = rng.gen_range(1..10u64);
                    let mut r = FlowRecord::v4(
                        [10, e as u8, rng.gen_range(0..4), rng.gen_range(0..16)],
                        [192, 0, 2, rng.gen_range(0..3)],
                        rng.gen_range(40_000..40_008),
                        443,
                        6,
                        packets,
                        packets * 100,
                    );
                    r.first_ms = ts;
                    r.last_ms = ts;
                    r
                })
                .collect()
        })
        .collect()
}

/// What one run emitted: per summary, the index of the `push_records`
/// call that returned it (`packets.len()` for `finish`) and the frame.
struct Run {
    emitted: Vec<(usize, flowdist::Summary)>,
    late_drops: u64,
    records: u64,
}

fn run(
    packets: &[Vec<FlowRecord>],
    batch: usize,
    open_windows: usize,
    budget: usize,
    transfer: TransferMode,
) -> Run {
    let mut cfg = DaemonConfig::new(4);
    cfg.window_ms = WINDOW_MS;
    cfg.open_windows = open_windows;
    cfg.tree = Config::with_budget(budget);
    cfg.transfer = transfer;
    let mut p = IngestPipeline::new(SiteDaemon::new(cfg), batch);
    let mut emitted = Vec::new();
    for (i, records) in packets.iter().enumerate() {
        emitted.extend(p.push_records(records).into_iter().map(|s| (i, s)));
    }
    let (rest, daemon) = p.finish();
    emitted.extend(rest.into_iter().map(|s| (packets.len(), s)));
    Run {
        emitted,
        late_drops: daemon.stats().late_drops,
        records: daemon.stats().records,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_size_changes_no_summary_and_no_late_drop(
        seed in any::<u64>(),
        exporters in 1usize..5,
        open_windows in 1usize..4,
        tight in any::<bool>(),
        delta in any::<bool>(),
    ) {
        let packets = stream(seed, exporters);
        let sent: usize = packets.iter().map(Vec::len).sum();
        let budget = if tight { 96 } else { 1 << 16 };
        let transfer = if delta { TransferMode::Delta } else { TransferMode::Full };
        let runs: Vec<Run> = BATCHES
            .iter()
            .map(|&b| run(&packets, b, open_windows, budget, transfer))
            .collect();
        let reference = &runs[0];
        prop_assert_eq!(reference.records, sent as u64);
        prop_assert!(
            reference.emitted.iter().any(|(i, _)| *i < packets.len()),
            "windows close mid-stream, not only at finish"
        );
        for (run, batch) in runs.iter().zip(BATCHES).skip(1) {
            prop_assert_eq!(run.records, reference.records, "batch {}", batch);
            prop_assert_eq!(run.late_drops, reference.late_drops, "batch {} late drops", batch);
            prop_assert_eq!(run.emitted.len(), reference.emitted.len(), "batch {}", batch);
            for ((call, s), (ref_call, r)) in run.emitted.iter().zip(&reference.emitted) {
                prop_assert_eq!(
                    (call, s.seq, s.window, s.kind, s.tree.total()),
                    (ref_call, r.seq, r.window, r.kind, r.tree.total()),
                    "batch {}: emission order, timing and mass", batch
                );
                if !tight {
                    prop_assert!(s.encode() == r.encode(), "batch {}: summary bytes", batch);
                }
            }
        }
    }
}

/// The property above is not vacuous: the generator produces records
/// that are late under the default horizon and windows that close
/// while the stream is still running.
#[test]
fn streams_exercise_late_drops_and_mid_stream_closes() {
    let (mut late, mut closes) = (0u64, 0usize);
    for seed in 0..8 {
        let packets = stream(seed, 3);
        let r = run(&packets, 64, 2, 1 << 16, TransferMode::Full);
        late += r.late_drops;
        closes += r.emitted.iter().filter(|(i, _)| *i < packets.len()).count();
    }
    assert!(late > 0, "some records fall behind the horizon");
    assert!(closes > 8, "windows close mid-stream ({closes})");
}
