//! # flowkey — generalized network flows and their natural hierarchy
//!
//! A *generalized flow* (Saidi et al., SIGCOMM 2018) is a tuple of
//! features — source/destination IP, source/destination port, protocol —
//! where every feature carries a **natural hierarchy** expressed through
//! wildcards: IP addresses generalize along network prefixes, ports along
//! dyadic port ranges, protocols to the protocol wildcard. Two extension
//! features from the paper's future-work system are also provided: dyadic
//! **time** buckets and the **monitor site**.
//!
//! The crate provides:
//!
//! * the individual feature types ([`IpNet`], [`PortRange`], [`Proto`],
//!   [`TimeBucket`], [`Site`]) with their one-step [`generalize`]
//!   operations,
//! * [`FlowKey`] — a point in the product lattice of all features, with
//!   containment, meet, and overlap tests,
//! * [`Schema`] — which features are active (1/2/4/5-feature flows and
//!   the extended schema) and how deep each hierarchy goes,
//! * the **canonical generalization chain** ([`chain`]) — a deterministic
//!   total order of one-step generalizations from any key up to the root,
//!   which is what turns the product lattice into the *tree* that
//!   `flowtree-core` maintains,
//! * a compact canonical byte packing ([`pack`]) used for hashing and
//!   serialization.
//!
//! [`generalize`]: FlowKey::generalize
//!
//! ## Example
//!
//! ```
//! use flowkey::{FlowKey, Schema, Dim};
//!
//! let schema = Schema::five_feature();
//! let key: FlowKey = "src=10.1.2.3/32 dst=192.0.2.7/32 sport=49152 dport=443 proto=6"
//!     .parse()
//!     .unwrap();
//! // One step up the canonical chain generalizes the least valuable
//! // feature first (ports before addresses).
//! let parent = schema.parent(&key).unwrap();
//! assert!(parent.contains(&key));
//! // The chain always terminates at the schema root (all wildcards).
//! let root = schema.root();
//! assert!(root.contains(&key));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod hash;
pub mod ipnet;
pub mod pack;
pub mod parse;
pub mod port;
pub mod proto;
pub mod schema;
pub mod site;
pub mod time;

mod key;

pub use chain::DepthProfile;
pub use hash::{dim_hash, dim_hash_at, key_hash, HashedChainUp};
pub use ipnet::{IpNet, Ipv4Net, Ipv6Net};
pub use key::FlowKey;
pub use port::PortRange;
pub use proto::Proto;
pub use schema::{ChainOrder, Schema, SchemaKind};
pub use site::Site;
pub use time::TimeBucket;

use core::fmt;

/// The dimensions (features) a generalized flow can carry.
///
/// The numeric discriminants are stable and used by the canonical byte
/// packing; do not reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Dim {
    /// Source IP prefix.
    SrcIp = 0,
    /// Destination IP prefix.
    DstIp = 1,
    /// Source port range.
    SrcPort = 2,
    /// Destination port range.
    DstPort = 3,
    /// IP protocol.
    Proto = 4,
    /// Dyadic time bucket (extension feature of the distributed system).
    Time = 5,
    /// Monitor location (extension feature of the distributed system).
    Site = 6,
}

/// Number of dimensions, i.e. the length of [`Dim::ALL`].
pub const NUM_DIMS: usize = 7;

impl Dim {
    /// All dimensions in declaration order.
    pub const ALL: [Dim; NUM_DIMS] = [
        Dim::SrcIp,
        Dim::DstIp,
        Dim::SrcPort,
        Dim::DstPort,
        Dim::Proto,
        Dim::Time,
        Dim::Site,
    ];

    /// Index of this dimension into per-dimension arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Dimension from its index. Panics if out of range.
    #[inline]
    pub fn from_index(i: usize) -> Dim {
        Dim::ALL[i]
    }

    /// Short lowercase name as used by the textual key syntax.
    pub const fn name(self) -> &'static str {
        match self {
            Dim::SrcIp => "src",
            Dim::DstIp => "dst",
            Dim::SrcPort => "sport",
            Dim::DstPort => "dport",
            Dim::Proto => "proto",
            Dim::Time => "time",
            Dim::Site => "site",
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced when parsing the textual feature / key syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An IP prefix was malformed (bad address, bad length, host bits set).
    BadPrefix(String),
    /// A port or port range was malformed or not dyadic.
    BadPort(String),
    /// A protocol name/number was not recognized.
    BadProto(String),
    /// A time bucket was malformed.
    BadTime(String),
    /// A site was malformed.
    BadSite(String),
    /// A `key=value` component was malformed or the key unknown.
    BadComponent(String),
    /// The same dimension appeared twice.
    DuplicateDim(Dim),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadPrefix(s) => write!(f, "bad IP prefix: {s}"),
            ParseError::BadPort(s) => write!(f, "bad port range: {s}"),
            ParseError::BadProto(s) => write!(f, "bad protocol: {s}"),
            ParseError::BadTime(s) => write!(f, "bad time bucket: {s}"),
            ParseError::BadSite(s) => write!(f, "bad site: {s}"),
            ParseError::BadComponent(s) => write!(f, "bad key component: {s}"),
            ParseError::DuplicateDim(d) => write!(f, "dimension given twice: {d}"),
        }
    }
}

impl std::error::Error for ParseError {}
