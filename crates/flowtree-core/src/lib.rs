//! # flowtree-core — the Flowtree data structure
//!
//! A from-scratch implementation of the core contribution of *Flowtree:
//! Enabling Distributed Flow Summarization at Scale* (Saidi, Foucard,
//! Smaragdakis, Feldmann — ACM SIGCOMM 2018): a **self-adjusting,
//! bounded-size, mergeable summary of generalized network flows**.
//!
//! ## The idea in four sentences
//!
//! Every flow feature (IP, port, protocol…) has a natural hierarchy, so
//! any packet trace maps to a *flow graph* whose nodes are generalized
//! flows annotated with popularity. Flowtree keeps the popular nodes and
//! folds unpopular ones into their ancestors under a fixed node budget,
//! so the summary stays small while still covering *all* traffic (unlike
//! heavy-hitter-only sketches, medium and low-popularity flows remain
//! answerable with bounded error). Nodes store **complementary
//! popularity** — mass not attributed to retained descendants — which is
//! additive, so whole summaries can be **merged** and **diffed**
//! node-wise; that is what enables cheap distributed and
//! across-time summarization. Updates are amortized constant time;
//! queries cost at most one tree walk.
//!
//! ## Ingest entry points
//!
//! * [`FlowTree::insert`] — one update; the miss path uses a
//!   zero-rehash parent search (precomputed-hash index, rolling
//!   per-dimension hashes, root descent with an analytic LCCA — see
//!   the [`tree` hot-path notes](FlowTree)).
//! * [`FlowTree::insert_batch`] — bulk: canonicalize + hash each key
//!   once, settle the hits, place the misses in chain order from a
//!   descent finger (no upward probes, a few hops each), one budget
//!   check per batch.
//! * [`FlowTree::insert_batch_prehashed`] — for callers that already
//!   hold [`flowkey::key_hash`]es, like `flowdist`'s ingest pipeline,
//!   which hashes each record once at decode time.
//!
//! ## Quick start
//!
//! ```
//! use flowtree_core::{Config, FlowTree, Metric, Popularity};
//! use flowkey::Schema;
//!
//! // The paper's evaluation setup: 4-feature flows, 40 K node budget.
//! let mut tree = FlowTree::new(Schema::four_feature(), Config::paper());
//!
//! let key = "src=10.1.2.3/32 dst=192.0.2.7/32 sport=49152 dport=443"
//!     .parse()
//!     .unwrap();
//! tree.insert(&key, Popularity::packet(1500));
//!
//! // Point query (tracked ⇒ answered from the tree's own bookkeeping).
//! assert_eq!(tree.popularity(&key).est.packets, 1.0);
//!
//! // Hierarchical pattern query: "how much traffic to 192.0.2.0/24?"
//! let pat = "dst=192.0.2.0/24".parse().unwrap();
//! assert!(tree.estimate_pattern(&pat).packets >= 1.0);
//!
//! // Top flows and hierarchical heavy hitters.
//! let top = tree.top_k(10, Metric::Packets);
//! assert!(!top.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod config;
mod hasher;
mod pop;
mod query;
mod render;
mod table;
mod tree;

pub use codec::{CodecError, MAGIC, MAX_WIRE_NODES, VERSION};
pub use config::{Config, Estimator, EvictionPolicy};
pub use hasher::{fxhash, BuildFx, FxHasher};
pub use pop::{Metric, PopEst, Popularity};
pub use query::{HhhItem, QueryAnswer};
pub use tree::{FlowTree, NodeView, Stats, TreeError};
