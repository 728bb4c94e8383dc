//! Flowtree configuration: node budget, eviction, and estimation policies.

use crate::pop::Metric;

/// How the self-adjustment step picks victims when the tree exceeds its
/// node budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the leaf with the smallest complementary popularity
    /// (ties broken towards the least recently touched). This is the
    /// paper's "summarize the unpopular flows" rule.
    #[default]
    SmallestFirst,
    /// Evict the least recently touched leaf (ties broken towards the
    /// smallest complementary popularity). Included for the ablation
    /// study — it favors *currency* over *popularity*.
    ColdFirst,
}

/// How queries for keys that are absent from the tree split the residual
/// (complementary) mass of the nearest retained ancestors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Estimator {
    /// Split residual mass uniformly over the ancestor's uncovered
    /// space: each hierarchy level halves the share (protocol and site
    /// steps divide by their fan-out). The paper's "decompose the query
    /// into a set of queries that can be answered by the given
    /// hierarchy".
    #[default]
    Uniform,
    /// Attribute no residual mass: a guaranteed lower bound.
    Conservative,
    /// Attribute the full residual mass of every overlapping ancestor:
    /// a guaranteed upper bound (the copy-down estimate).
    Optimistic,
}

/// Flowtree tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Maximum number of tree nodes, including the root and internal
    /// join nodes. The paper's evaluation uses 40 000.
    pub node_budget: usize,
    /// After a compaction the tree is shrunk to
    /// `node_budget * low_water` nodes, so compactions amortize over at
    /// least `(1 - low_water) * node_budget` subsequent inserts.
    pub low_water: f64,
    /// Counter used to rank popularity for eviction / top-k defaults.
    pub metric: Metric,
    /// Victim selection policy.
    pub eviction: EvictionPolicy,
    /// Residual-mass estimator for absent keys.
    pub estimator: Estimator,
}

impl Config {
    /// Smallest permitted node budget (root + a handful of children —
    /// anything lower cannot hold a meaningful summary).
    pub const MIN_BUDGET: usize = 16;

    /// The paper's evaluation configuration: 40 K nodes, packets metric.
    pub fn paper() -> Config {
        Config::with_budget(40_000)
    }

    /// Default configuration with an explicit node budget.
    pub fn with_budget(node_budget: usize) -> Config {
        Config {
            node_budget: node_budget.max(Self::MIN_BUDGET),
            low_water: 0.9,
            metric: Metric::Packets,
            eviction: EvictionPolicy::SmallestFirst,
            estimator: Estimator::Uniform,
        }
    }

    /// The post-compaction target size.
    pub fn compaction_target(&self) -> usize {
        let lw = self.low_water.clamp(0.1, 0.99);
        ((self.node_budget as f64 * lw) as usize).max(Self::MIN_BUDGET / 2)
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_fig3() {
        let c = Config::paper();
        assert_eq!(c.node_budget, 40_000);
        assert_eq!(c.metric, Metric::Packets);
    }

    #[test]
    fn budget_is_floored() {
        assert_eq!(Config::with_budget(1).node_budget, Config::MIN_BUDGET);
    }

    #[test]
    fn compaction_target_below_budget() {
        let c = Config::with_budget(1000);
        assert!(c.compaction_target() < 1000);
        assert!(c.compaction_target() >= 800);
    }
}
