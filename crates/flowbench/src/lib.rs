//! # flowbench — the experiment harness
//!
//! One binary per paper artifact:
//!
//! | binary | experiment |
//! |---|---|
//! | `fig3_heatmap` | Fig. 3a/3b accuracy heatmaps + diagonal/coverage stats (E3–E5) |
//! | `storage_table` | the "> 95 % storage reduction" table (E6) |
//! | `querycost` | query time ∝ tree nodes (E8) |
//! | `mergediff` | merge exactness + full-vs-delta transfer sweep (E9) |
//! | `baseline_compare` | Flowtree vs Space-Saving/Count-Min/HHH/RHHH (E11) |
//! | `ablation` | eviction/estimator/budget design choices (E12) |
//!
//! Performance is measured by the repository's `bench/` workspace, not
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flowkey::Schema;
use flowtrace::{GroundTruth, TraceConfig, TraceGen};
use flowtree_core::{Config, FlowTree, Popularity};
use std::time::Instant;

/// Tiny `--key value` / `--flag` argument scanner (no clap offline).
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Args {
        Args { raw }
    }

    /// The value following `--name`, parsed.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Whether `--name` is present (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.raw.iter().any(|a| *a == format!("--{name}"))
    }
}

/// Builds a tree and the exact ground truth from a trace in one pass;
/// also returns the seconds spent inside `insert` (excluding truth
/// bookkeeping).
pub fn build_tree_and_truth(
    cfg: TraceConfig,
    schema: Schema,
    tree_cfg: Config,
) -> (FlowTree, GroundTruth, f64) {
    let mut tree = FlowTree::new(schema, tree_cfg);
    let mut truth = GroundTruth::new();
    let mut insert_secs = 0.0;
    for pkt in TraceGen::new(cfg) {
        let key = schema.canonicalize(&pkt.flow_key());
        let pop = Popularity::packet(pkt.wire_len);
        let t0 = Instant::now();
        tree.insert(&key, pop);
        insert_secs += t0.elapsed().as_secs_f64();
        truth.observe(key, pop);
    }
    (tree, truth, insert_secs)
}

/// A right-aligned fixed-width table printer for experiment output.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Prints the header row and remembers column widths.
    pub fn new(headers: &[&str]) -> Table {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(12)).collect();
        let t = Table { widths };
        t.row(headers);
        let rule: Vec<String> = t.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", rule.join("  "));
        t
    }

    /// Prints one row.
    pub fn row(&self, cells: &[&str]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Renders a log-log 2-D histogram (the Fig. 3 heatmap) as ASCII.
///
/// `cells[y][x]` counts flows with actual-popularity bucket `x` and
/// estimated-popularity bucket `y` (log2 buckets).
pub fn render_heatmap(cells: &[Vec<u64>]) -> String {
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    let max = cells
        .iter()
        .flat_map(|r| r.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1) as f64;
    let mut out = String::new();
    out.push_str("  est↑\n");
    for (y, row) in cells.iter().enumerate().rev() {
        out.push_str(&format!("{y:>4} |"));
        for &c in row {
            let shade = if c == 0 {
                shades[0]
            } else {
                let f = ((c as f64).ln_1p() / max.ln_1p() * (shades.len() - 1) as f64).ceil();
                shades[(f as usize).clamp(1, shades.len() - 1)]
            };
            out.push(shade);
        }
        out.push('\n');
    }
    out.push_str("     +");
    out.push_str(&"-".repeat(cells.first().map(|r| r.len()).unwrap_or(0)));
    out.push_str("→ actual (log2 buckets)\n");
    out
}

/// log2 bucket index of a popularity value (0 for ≤ 1).
pub fn log2_bucket(v: i64) -> usize {
    if v <= 1 {
        0
    } else {
        (63 - (v as u64).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1);
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1024), 10);
    }

    #[test]
    fn heatmap_renders_nonempty() {
        let cells = vec![vec![0, 1], vec![10, 0]];
        let s = render_heatmap(&cells);
        assert!(s.contains('#') || s.contains('@') || s.contains('*'));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn args_scanner() {
        let args = Args::from_vec(vec!["--packets".into(), "5000".into(), "--csv".into()]);
        assert_eq!(args.get::<u64>("packets"), Some(5000));
        assert!(args.has("csv"));
        assert!(!args.has("bogus"));
        assert_eq!(args.get::<u64>("missing"), None);
    }

    #[test]
    fn build_helper_conserves() {
        let mut cfg = flowtrace::profile::backbone(1);
        cfg.packets = 5_000;
        cfg.flows = 1_000;
        let (tree, truth, secs) =
            build_tree_and_truth(cfg, Schema::four_feature(), Config::with_budget(512));
        assert_eq!(tree.total().packets, 5_000);
        assert_eq!(truth.total().packets, 5_000);
        assert!(secs >= 0.0);
    }
}
