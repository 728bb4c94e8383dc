//! Scaled-down Fig. 3: Flowtree accuracy against exact ground truth.
//!
//! The full 6 M-packet regeneration lives in the `flowbench`
//! `fig3_heatmap` binary; this integration test runs the same pipeline
//! at CI scale (400 k packets, 8 K nodes) and asserts the paper's
//! qualitative claims hold:
//!
//! * a large share of retained flows sits exactly on the diagonal
//!   (paper: > 57 % at 6 M packets / 40 K nodes),
//! * every flow above 1 % of the packets is present in the tree,
//! * off-diagonal mass stays close to the diagonal.

use flowtrace::{profile, GroundTruth, TraceGen};
use flowtree::{Config, FlowTree, Popularity, Schema};

struct Accuracy {
    diagonal_share: f64,
    close_share: f64,
    heavy_missing: usize,
}

/// Runs the trace through `insert` packet by packet (`batch` = 1) or
/// through `insert_batch` in chunks of `batch` packets, the way a site
/// daemon ingests.
fn run(profile_name: &str, batch: usize) -> Accuracy {
    let mut cfg = flowtrace::profile::by_name(profile_name, 17).unwrap();
    cfg.packets = 400_000;
    cfg.flows = 120_000;
    let schema = Schema::four_feature();
    let mut tree = FlowTree::new(schema, Config::with_budget(8_000));
    let mut truth = GroundTruth::new();
    let mut pending = Vec::with_capacity(batch);
    for pkt in TraceGen::new(cfg) {
        let key = schema.canonicalize(&pkt.flow_key());
        truth.observe(key, Popularity::packet(pkt.wire_len));
        if batch == 1 {
            tree.insert(&key, Popularity::packet(pkt.wire_len));
            continue;
        }
        pending.push((key, Popularity::packet(pkt.wire_len)));
        if pending.len() == batch {
            tree.insert_batch(&pending);
            pending.clear();
        }
    }
    tree.insert_batch(&pending);
    assert_eq!(tree.total().packets, 400_000);

    // Estimated vs actual for every retained flow (the Fig. 3 axes).
    let actual = truth.actual_for_tree(&tree);
    let (mut diagonal, mut close, mut n) = (0usize, 0usize, 0usize);
    for view in tree.iter() {
        if view.key.is_root() {
            continue;
        }
        let est = tree.subtree_popularity(view.key).unwrap().packets;
        let act = actual.get(view.key).map(|p| p.packets).unwrap_or(0);
        n += 1;
        if est == act {
            diagonal += 1;
        }
        // "Close": within a factor 2 or ±5 packets (one heatmap cell).
        let ratio_ok = act > 0 && (est as f64 / act as f64).abs().log2().abs() <= 1.0;
        if est == act || ratio_ok || (est - act).abs() <= 5 {
            close += 1;
        }
    }

    // Every flow above 1 % of packets must be present.
    let threshold = 400_000 / 100;
    let heavy_missing = truth
        .iter()
        .filter(|(_, p)| p.packets >= threshold)
        .filter(|(k, _)| !tree.contains_key(k))
        .count();

    Accuracy {
        diagonal_share: diagonal as f64 / n.max(1) as f64,
        close_share: close as f64 / n.max(1) as f64,
        heavy_missing,
    }
}

/// The batch size a site daemon ingests with. Misses are placed after
/// the batch's hits and in chain order, which moves `touch` stamps and
/// lets the tree run over budget by a batch before it compacts; the
/// paper's claims must hold through that path at the per-packet
/// thresholds.
const SITE_BATCH: usize = 4_096;

#[test]
fn backbone_accuracy_matches_paper_shape() {
    for batch in [1, SITE_BATCH] {
        backbone_accuracy(batch);
    }
}

fn backbone_accuracy(batch: usize) {
    let acc = run("backbone", batch);
    assert!(
        acc.diagonal_share > 0.5,
        "diagonal share {:.3} (paper: > 0.57 at full scale)",
        acc.diagonal_share
    );
    assert!(
        acc.close_share > 0.9,
        "off-diagonal mass must hug the diagonal: {:.3}",
        acc.close_share
    );
    assert_eq!(acc.heavy_missing, 0, "all >1% flows must be present");
}

#[test]
fn transit_accuracy_matches_paper_shape() {
    for batch in [1, SITE_BATCH] {
        transit_accuracy(batch);
    }
}

fn transit_accuracy(batch: usize) {
    let acc = run("transit", batch);
    assert!(
        acc.diagonal_share > 0.4,
        "transit diagonal share {:.3}",
        acc.diagonal_share
    );
    assert!(acc.close_share > 0.85, "close share {:.3}", acc.close_share);
    assert_eq!(acc.heavy_missing, 0);
}

#[test]
fn adversarial_uniform_still_conserves_and_covers_heavy() {
    // Uniform popularity is the worst case for any popularity-based
    // summary — accuracy may drop but the structural guarantees hold.
    let mut cfg = profile::uniform(3);
    cfg.packets = 200_000;
    cfg.flows = 150_000;
    let schema = Schema::four_feature();
    let mut tree = FlowTree::new(schema, Config::with_budget(4_000));
    for pkt in TraceGen::new(cfg) {
        tree.insert(
            &schema.canonicalize(&pkt.flow_key()),
            Popularity::packet(pkt.wire_len),
        );
    }
    tree.validate();
    assert_eq!(tree.total().packets, 200_000);
    assert!(tree.len() <= 4_000);
}
