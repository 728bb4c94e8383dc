//! # flowrelay — the hierarchical aggregation tier
//!
//! The journal version of the paper (Saidi et al., *Exploring
//! Network-Wide Flow Data with Flowyager*, IEEE TNSM 2020) deploys
//! Flowtrees not as a flat site→collector star but as a **hierarchy**:
//! sites feed regional aggregation relays, relays feed a root, and a
//! query is answered at the *lowest tier whose coverage contains its
//! scope* instead of re-merging every per-site tree at the top.
//!
//! ```text
//!                      ┌────────┐
//!                      │  root  │   tier 2: one pre-aggregated tree
//!                      └─┬────┬─┘           per (window, region)
//!              ┌─────────┘    └────────┐
//!          ┌───┴────┐             ┌────┴───┐
//!          │ relay A│             │ relay B│  tier 1: per-site trees,
//!          └─┬───┬──┘             └─┬───┬──┘          regional exports
//!          ┌─┘   └─┐              ┌─┘   └─┐
//!        site0   site1          site2   site3   site daemons (flowdist)
//! ```
//!
//! * [`RelayTopology`] — the declarative spec of the tree: who feeds
//!   whom, which real sites each relay owns.
//! * [`Relay`] — one aggregation node: ingests downstream summary
//!   frames (site summaries or other relays' aggregates) over the
//!   existing length-prefixed framing, folds each window's downstream
//!   trees into a **super-site summary** with the structural
//!   [`flowtree_core::FlowTree::merge_many`], and re-exports it
//!   upstream as a version-3 frame carrying a **site-set provenance
//!   header** and a content epoch ([`flowdist::summary`]). A site's own
//!   frames are version-3 too (epoch 1, provenance `[site]`); a frame
//!   without an epoch is refused.
//! * [`QueryRouter`] — the query planner: inspects a query's
//!   site-set and time-range scope and routes it to the cheapest
//!   tier — a relay's own pre-aggregated view when the scope is
//!   covered, falling back to fan-out over per-site trees (reusing
//!   [`flowdist::Collector::merged_view`]) when it is not.
//! * [`server`] — TCP: downstream frame ingest and a line-oriented
//!   query protocol over [`flowdist::net`]'s framing.
//! * [`runtime`] — one deployable node as a value: [`NodeRuntime`]
//!   bundles the listeners, export scheduler, durable shipper,
//!   journal recovery, stats endpoint, live reload, and graceful
//!   drain behind typed [`NodeConfig`]; `relayd` and the `flowctl`
//!   fleet launcher are thin shells over it.
//! * [`spec`] — the hand-rolled fleet-spec format `flowctl` parses:
//!   one INI-ish file describing every site and relay node of a
//!   deployment, validated through [`RelayTopology`].
//! * [`sim`] — stands up a site → relay → root hierarchy in-process
//!   from any packet trace, for tests and benches.
//!
//! The load-bearing invariant, property-tested in
//! `tests/hierarchy_equiv.rs`: with compaction out of play, a
//! root-tier query answer — and the root's re-exported wire bytes —
//! is **identical** to a flat [`flowdist::Collector`] fed the same
//! site windows. Aggregation changes where merges happen, never what
//! they produce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fleetview;
pub mod journal;
pub mod plan;
pub mod relay;
pub mod runtime;
pub mod server;
pub mod sim;
pub mod spec;
pub mod topology;

pub use journal::{JournalConfig, RecoveryReport};
pub use plan::{QueryRouter, Route, Routed};
pub use relay::{Compose, ExportConfig, ExportMode, FrameOutcome, Relay, RelayConfig, RelayLedger};
pub use runtime::{DrainReport, NodeConfig, NodeReload, NodeRuntime, RuntimeError};
pub use sim::{run_hierarchy, run_hierarchy_with, DrainCadence, HierarchyOptions, HierarchyReport};
pub use spec::{FleetSpec, RelayNodeSpec, SiteSpec, SpecError};
pub use topology::{RelaySpec, RelayTopology, TopologyError};

use flowdist::DistError;

/// Errors of the aggregation tier.
#[derive(Debug)]
pub enum RelayError {
    /// The underlying frame/codec/socket layer failed.
    Dist(DistError),
    /// A frame claimed coverage of a site outside this relay's
    /// expected coverage.
    CoverageViolation {
        /// The offending site.
        site: u16,
    },
    /// A frame claimed a site already covered by a different
    /// downstream — double counting, rejected.
    OverlappingProvenance {
        /// The doubly-claimed site.
        site: u16,
    },
    /// A frame's window span disagrees with the relay's established
    /// span.
    SpanMismatch,
    /// The topology spec is invalid.
    Topology(TopologyError),
}

impl From<DistError> for RelayError {
    fn from(e: DistError) -> Self {
        RelayError::Dist(e)
    }
}

impl From<TopologyError> for RelayError {
    fn from(e: TopologyError) -> Self {
        RelayError::Topology(e)
    }
}

impl core::fmt::Display for RelayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RelayError::Dist(e) => write!(f, "distribution layer: {e}"),
            RelayError::CoverageViolation { site } => {
                write!(f, "site {site} outside this relay's coverage")
            }
            RelayError::OverlappingProvenance { site } => {
                write!(f, "site {site} already covered by another downstream")
            }
            RelayError::SpanMismatch => f.write_str("window span mismatch"),
            RelayError::Topology(e) => write!(f, "topology: {e}"),
        }
    }
}

impl std::error::Error for RelayError {}
