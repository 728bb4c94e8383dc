//! The declarative fleet spec `flowctl` launches from.
//!
//! One plain-text file describes a whole deployment — every site
//! daemon and every relay tier — so a site→relay→root fleet boots
//! from `flowctl run fleet.spec` instead of N hand-wired processes.
//! The format is deliberately tiny (hand-rolled, no serde): INI-ish
//! sections, `key = value` lines, `#`/`;` comments.
//!
//! ```text
//! [defaults]              # inherited by every node unless overridden
//! mode = delta
//! linger-ms = 1000
//! stats = 127.0.0.1:0     # give every node a stats endpoint
//!
//! [site 0]                # one UDP-ingest site daemon, site id 0
//! listen = 127.0.0.1:0
//! upstream = west         # the *relay name* it feeds
//!
//! [relay west]            # one aggregation relay called "west"
//! agg-site = 1001
//! sites = 0,1
//! parent = root           # omit on the root
//!
//! [relay root]
//! agg-site = 2000
//! ```
//!
//! Recognised keys — `[site N]`: `listen`, `upstream` (required),
//! `stats`, `window-ms`, `batch`, `budget`, the ingest-hardening
//! knobs `receive-buffer-bytes`, `packet-rate`, `packet-burst`,
//! `record-rate`, `record-burst`, `max-exporters`,
//! `max-open-windows` (see the README's Hardening section), plus the
//! scaling knobs `lanes`, `recv-batch`, `reuseport`, `pin-cores`
//! (see the README's Performance section).
//! `[relay NAME]`:
//! `agg-site` (required), `sites`, `parent`, `ingest`, `query`,
//! `stats`, `mode`, `linger-ms`, `drain-every-ms`, `max-bases`,
//! `max-base-nodes`, `budget`, `retention-ms`, `state-dir`, `fsync`,
//! `spill-max-bytes`, `reconnect-base-ms`, `reconnect-max-ms`,
//! `ack-stall-ms`.
//! `[defaults]` accepts any of these except the identity keys
//! (`upstream`, `parent`, `agg-site`, `sites`, `state-dir`) plus
//! `state-root` (each relay with no explicit `state-dir` gets
//! `<state-root>/<name>`). Sockets default to `127.0.0.1:0`; read the
//! resolved addresses back from the runtimes.
//!
//! [`FleetSpec::parse`] validates everything validatable without
//! binding a socket: the relay tree through
//! [`RelayTopology::validate`], and that every site feeds an existing
//! relay that directly owns its id.

use crate::runtime::NodeConfig;
use crate::topology::{RelaySpec, RelayTopology, TopologyError};
use flowdist::FsyncPolicy;
use std::path::PathBuf;

/// One site daemon in a fleet spec.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The site id (from the `[site N]` header).
    pub site: u16,
    /// UDP bind for NetFlow-style record ingest.
    pub listen: String,
    /// Name of the relay this site ships its summaries to.
    pub upstream: String,
    /// Optional bind for the plaintext stats endpoint.
    pub stats: Option<String>,
    /// Aggregation window width (ms).
    pub window_ms: u64,
    /// Pipeline flush batch.
    pub batch: usize,
    /// Tree node budget.
    pub budget: usize,
    /// Requested UDP `SO_RCVBUF` (best-effort; `None` = OS default).
    pub receive_buffer_bytes: Option<usize>,
    /// Per-exporter admission quotas (0 rates = unlimited).
    pub admission: flowdist::AdmissionConfig,
    /// Open-window bucket budget for the ingest pipeline (0 =
    /// unbounded).
    pub max_open_windows: u64,
    /// Independent listen→pipeline ingest lanes (1 = single reader).
    pub lanes: usize,
    /// Datagrams pulled per receive syscall.
    pub recv_batch: usize,
    /// Multi-socket `SO_REUSEPORT` mode for `lanes > 1` where
    /// supported.
    pub reuseport: bool,
    /// Pin lane threads to cores.
    pub pin_cores: bool,
}

/// One relay node in a fleet spec: the full [`NodeConfig`] (its
/// `upstream` is resolved by the launcher from `parent` at boot) plus
/// the parent link.
#[derive(Debug, Clone)]
pub struct RelayNodeSpec {
    /// Everything the node runtime needs (`upstream` left `None`;
    /// the launcher fills it with the parent's resolved ingest
    /// address).
    pub node: NodeConfig,
    /// Parent relay name; `None` for the root.
    pub parent: Option<String>,
}

/// A parsed, structurally-validated fleet description.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Site daemons, in file order.
    pub sites: Vec<SiteSpec>,
    /// Relay nodes, in file order.
    pub relays: Vec<RelayNodeSpec>,
}

/// Why a spec failed to parse or validate.
#[derive(Debug)]
pub enum SpecError {
    /// A line the parser cannot read (1-based line number).
    Syntax {
        /// The offending line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A section is missing a required key, or the fleet is
    /// structurally incoherent.
    Invalid(String),
    /// The relay tree itself is invalid.
    Topology(TopologyError),
}

impl core::fmt::Display for SpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpecError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            SpecError::Invalid(msg) => f.write_str(msg),
            SpecError::Topology(e) => write!(f, "relay topology: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<TopologyError> for SpecError {
    fn from(e: TopologyError) -> SpecError {
        SpecError::Topology(e)
    }
}

/// The `[defaults]` section, applied to every node that does not
/// override a key.
#[derive(Debug, Clone, Default)]
struct Defaults {
    mode: Option<String>,
    linger_ms: Option<u64>,
    drain_every_ms: Option<u64>,
    max_bases: Option<usize>,
    budget: Option<usize>,
    retention_ms: Option<u64>,
    fsync: Option<String>,
    spill_max_bytes: Option<u64>,
    reconnect_base_ms: Option<u64>,
    reconnect_max_ms: Option<u64>,
    ack_stall_ms: Option<u64>,
    window_ms: Option<u64>,
    batch: Option<usize>,
    stats: Option<String>,
    state_root: Option<String>,
    receive_buffer_bytes: Option<usize>,
    packet_rate: Option<u64>,
    packet_burst: Option<u64>,
    record_rate: Option<u64>,
    record_burst: Option<u64>,
    max_exporters: Option<usize>,
    max_open_windows: Option<u64>,
    lanes: Option<usize>,
    recv_batch: Option<usize>,
    reuseport: Option<bool>,
    pin_cores: Option<bool>,
    max_base_nodes: Option<usize>,
}

/// What section the parser is currently inside.
enum Section {
    None,
    Defaults,
    Site(usize),
    Relay(usize),
}

impl FleetSpec {
    /// Parses and validates a spec (see the module docs for the
    /// format).
    pub fn parse(text: &str) -> Result<FleetSpec, SpecError> {
        let syntax = |line: usize, msg: String| SpecError::Syntax { line, msg };
        let mut defaults = Defaults::default();
        // Raw per-section key/value lists; defaults are applied after
        // the whole file is read so a trailing [defaults] section
        // still counts.
        // (line, key, value) triples, grouped per section.
        type RawLines = Vec<(usize, String, String)>;
        let mut sites: Vec<(u16, RawLines)> = Vec::new();
        let mut relays: Vec<(String, RawLines)> = Vec::new();
        let mut cur = Section::None;
        let mut default_lines: Vec<(usize, String, String)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = match raw.find(['#', ';']) {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return Err(syntax(
                        lineno,
                        format!("unterminated section header: {raw}"),
                    ));
                };
                let header = header.trim();
                cur = if header == "defaults" {
                    Section::Defaults
                } else if let Some(id) = header.strip_prefix("site ") {
                    let site: u16 = id
                        .trim()
                        .parse()
                        .map_err(|_| syntax(lineno, format!("site id must be a u16, got {id}")))?;
                    if sites.iter().any(|(s, _)| *s == site) {
                        return Err(syntax(lineno, format!("duplicate section [site {site}]")));
                    }
                    sites.push((site, Vec::new()));
                    Section::Site(sites.len() - 1)
                } else if let Some(name) = header.strip_prefix("relay ") {
                    let name = name.trim().to_string();
                    if name.is_empty() {
                        return Err(syntax(lineno, "relay section needs a name".into()));
                    }
                    if relays.iter().any(|(n, _)| *n == name) {
                        return Err(syntax(lineno, format!("duplicate section [relay {name}]")));
                    }
                    relays.push((name, Vec::new()));
                    Section::Relay(relays.len() - 1)
                } else {
                    return Err(syntax(
                        lineno,
                        format!(
                            "unknown section [{header}] (expected defaults, site N, relay NAME)"
                        ),
                    ));
                };
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(syntax(lineno, format!("expected key = value, got: {raw}")));
            };
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            match cur {
                Section::None => {
                    return Err(syntax(lineno, format!("key {k} before any section")));
                }
                Section::Defaults => default_lines.push((lineno, k, v)),
                Section::Site(idx) => sites[idx].1.push((lineno, k, v)),
                Section::Relay(idx) => relays[idx].1.push((lineno, k, v)),
            }
        }

        for (lineno, k, v) in default_lines {
            match k.as_str() {
                "mode" => defaults.mode = Some(parse_mode_name(lineno, &v)?),
                "linger-ms" => defaults.linger_ms = Some(parse_num(lineno, &k, &v)?),
                "drain-every-ms" => defaults.drain_every_ms = Some(parse_num(lineno, &k, &v)?),
                "max-bases" => defaults.max_bases = Some(parse_num(lineno, &k, &v)?),
                "budget" => defaults.budget = Some(parse_num(lineno, &k, &v)?),
                "retention-ms" => defaults.retention_ms = Some(parse_num(lineno, &k, &v)?),
                "fsync" => defaults.fsync = Some(parse_fsync_name(lineno, &v)?),
                "spill-max-bytes" => defaults.spill_max_bytes = Some(parse_num(lineno, &k, &v)?),
                "reconnect-base-ms" => {
                    defaults.reconnect_base_ms = Some(parse_num(lineno, &k, &v)?)
                }
                "reconnect-max-ms" => defaults.reconnect_max_ms = Some(parse_num(lineno, &k, &v)?),
                "ack-stall-ms" => defaults.ack_stall_ms = Some(parse_num(lineno, &k, &v)?),
                "window-ms" => defaults.window_ms = Some(parse_num(lineno, &k, &v)?),
                "batch" => defaults.batch = Some(parse_num(lineno, &k, &v)?),
                "stats" => defaults.stats = Some(v),
                "state-root" => defaults.state_root = Some(v),
                "receive-buffer-bytes" => {
                    defaults.receive_buffer_bytes = Some(parse_num(lineno, &k, &v)?)
                }
                "packet-rate" => defaults.packet_rate = Some(parse_num(lineno, &k, &v)?),
                "packet-burst" => defaults.packet_burst = Some(parse_num(lineno, &k, &v)?),
                "record-rate" => defaults.record_rate = Some(parse_num(lineno, &k, &v)?),
                "record-burst" => defaults.record_burst = Some(parse_num(lineno, &k, &v)?),
                "max-exporters" => defaults.max_exporters = Some(parse_num(lineno, &k, &v)?),
                "max-open-windows" => defaults.max_open_windows = Some(parse_num(lineno, &k, &v)?),
                "lanes" => defaults.lanes = Some(parse_num(lineno, &k, &v)?),
                "recv-batch" => defaults.recv_batch = Some(parse_num(lineno, &k, &v)?),
                "reuseport" => defaults.reuseport = Some(parse_bool(lineno, &k, &v)?),
                "pin-cores" => defaults.pin_cores = Some(parse_bool(lineno, &k, &v)?),
                "max-base-nodes" => defaults.max_base_nodes = Some(parse_num(lineno, &k, &v)?),
                _ => {
                    return Err(syntax(lineno, format!("unknown [defaults] key: {k}")));
                }
            }
        }

        let mut out_sites = Vec::with_capacity(sites.len());
        for (site, lines) in sites {
            let mut admission = flowdist::AdmissionConfig::default();
            if let Some(v) = defaults.packet_rate {
                admission.packet_rate = v;
            }
            if let Some(v) = defaults.packet_burst {
                admission.packet_burst = v;
            }
            if let Some(v) = defaults.record_rate {
                admission.record_rate = v;
            }
            if let Some(v) = defaults.record_burst {
                admission.record_burst = v;
            }
            if let Some(v) = defaults.max_exporters {
                admission.max_exporters = v;
            }
            let mut s = SiteSpec {
                site,
                listen: "127.0.0.1:0".into(),
                upstream: String::new(),
                stats: defaults.stats.clone(),
                window_ms: defaults.window_ms.unwrap_or(300_000),
                batch: defaults.batch.unwrap_or(flowdist::pipeline::DEFAULT_BATCH),
                budget: defaults.budget.unwrap_or(1 << 16),
                receive_buffer_bytes: defaults.receive_buffer_bytes,
                admission,
                max_open_windows: defaults.max_open_windows.unwrap_or(256),
                lanes: defaults.lanes.unwrap_or(1),
                recv_batch: defaults.recv_batch.unwrap_or(32),
                reuseport: defaults.reuseport.unwrap_or(true),
                pin_cores: defaults.pin_cores.unwrap_or(false),
            };
            for (lineno, k, v) in lines {
                match k.as_str() {
                    "listen" => s.listen = v,
                    "upstream" => s.upstream = v,
                    "stats" => s.stats = Some(v),
                    "window-ms" => s.window_ms = parse_num(lineno, &k, &v)?,
                    "batch" => s.batch = parse_num(lineno, &k, &v)?,
                    "budget" => s.budget = parse_num(lineno, &k, &v)?,
                    "receive-buffer-bytes" => {
                        s.receive_buffer_bytes = Some(parse_num(lineno, &k, &v)?)
                    }
                    "packet-rate" => s.admission.packet_rate = parse_num(lineno, &k, &v)?,
                    "packet-burst" => s.admission.packet_burst = parse_num(lineno, &k, &v)?,
                    "record-rate" => s.admission.record_rate = parse_num(lineno, &k, &v)?,
                    "record-burst" => s.admission.record_burst = parse_num(lineno, &k, &v)?,
                    "max-exporters" => s.admission.max_exporters = parse_num(lineno, &k, &v)?,
                    "max-open-windows" => s.max_open_windows = parse_num(lineno, &k, &v)?,
                    "lanes" => s.lanes = parse_num(lineno, &k, &v)?,
                    "recv-batch" => s.recv_batch = parse_num(lineno, &k, &v)?,
                    "reuseport" => s.reuseport = parse_bool(lineno, &k, &v)?,
                    "pin-cores" => s.pin_cores = parse_bool(lineno, &k, &v)?,
                    _ => {
                        return Err(syntax(lineno, format!("unknown [site {site}] key: {k}")));
                    }
                }
            }
            if s.upstream.is_empty() {
                return Err(SpecError::Invalid(format!(
                    "[site {site}] needs upstream = <relay name>"
                )));
            }
            out_sites.push(s);
        }

        let mut out_relays = Vec::with_capacity(relays.len());
        for (name, lines) in relays {
            let mut node = NodeConfig::new(name.clone());
            node.sites = Vec::new();
            node.stats = defaults.stats.clone();
            if let Some(m) = &defaults.mode {
                node.mode = mode_from_name(m);
            }
            if let Some(v) = defaults.linger_ms {
                node.linger_ms = v;
            }
            if let Some(v) = defaults.drain_every_ms {
                node.drain_every_ms = v;
            }
            if let Some(v) = defaults.max_bases {
                node.max_bases = v;
            }
            if let Some(v) = defaults.max_base_nodes {
                node.max_base_nodes = v;
            }
            if let Some(v) = defaults.budget {
                node.budget = v;
            }
            if let Some(v) = defaults.retention_ms {
                node.retention_ms = v;
            }
            if let Some(f) = &defaults.fsync {
                node.fsync = fsync_from_name(f);
            }
            if let Some(v) = defaults.spill_max_bytes {
                node.spill_max_bytes = v;
            }
            if let Some(v) = defaults.reconnect_base_ms {
                node.reconnect_base_ms = v;
            }
            if let Some(v) = defaults.reconnect_max_ms {
                node.reconnect_max_ms = v;
            }
            if let Some(v) = defaults.ack_stall_ms {
                node.ack_stall_ms = v;
            }
            if let Some(root) = &defaults.state_root {
                node.state_dir = Some(PathBuf::from(root).join(&name));
            }
            let mut parent = None;
            let mut agg_site_set = false;
            for (lineno, k, v) in lines {
                match k.as_str() {
                    "agg-site" => {
                        node.agg_site = parse_num(lineno, &k, &v)?;
                        agg_site_set = true;
                    }
                    "sites" => node.sites = parse_site_list(lineno, &v)?,
                    "parent" => parent = Some(v),
                    "ingest" => node.ingest = v,
                    "query" => node.query = v,
                    "stats" => node.stats = Some(v),
                    "mode" => node.mode = mode_from_name(&parse_mode_name(lineno, &v)?),
                    "linger-ms" => node.linger_ms = parse_num(lineno, &k, &v)?,
                    "drain-every-ms" => node.drain_every_ms = parse_num(lineno, &k, &v)?,
                    "max-bases" => node.max_bases = parse_num(lineno, &k, &v)?,
                    "max-base-nodes" => node.max_base_nodes = parse_num(lineno, &k, &v)?,
                    "budget" => node.budget = parse_num(lineno, &k, &v)?,
                    "retention-ms" => node.retention_ms = parse_num(lineno, &k, &v)?,
                    "state-dir" => node.state_dir = Some(PathBuf::from(v)),
                    "fsync" => node.fsync = fsync_from_name(&parse_fsync_name(lineno, &v)?),
                    "spill-max-bytes" => node.spill_max_bytes = parse_num(lineno, &k, &v)?,
                    "reconnect-base-ms" => node.reconnect_base_ms = parse_num(lineno, &k, &v)?,
                    "reconnect-max-ms" => node.reconnect_max_ms = parse_num(lineno, &k, &v)?,
                    "ack-stall-ms" => node.ack_stall_ms = parse_num(lineno, &k, &v)?,
                    _ => {
                        return Err(syntax(lineno, format!("unknown [relay {name}] key: {k}")));
                    }
                }
            }
            if !agg_site_set {
                return Err(SpecError::Invalid(format!(
                    "[relay {name}] needs agg-site = <id>"
                )));
            }
            out_relays.push(RelayNodeSpec { node, parent });
        }

        let spec = FleetSpec {
            sites: out_sites,
            relays: out_relays,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The relay tree this spec describes.
    pub fn topology(&self) -> RelayTopology {
        RelayTopology {
            relays: self
                .relays
                .iter()
                .map(|r| RelaySpec {
                    name: r.node.name.clone(),
                    parent: r.parent.clone(),
                    agg_site: r.node.agg_site,
                    sites: r.node.sites.clone(),
                })
                .collect(),
        }
    }

    /// Everything checkable without binding a socket: the relay tree,
    /// and that every site feeds a relay that directly owns its id.
    /// (`parse` already calls this.)
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.relays.is_empty() {
            return Err(SpecError::Invalid(
                "a fleet needs at least one relay".into(),
            ));
        }
        self.topology().validate()?;
        for s in &self.sites {
            let Some(r) = self.relays.iter().find(|r| r.node.name == s.upstream) else {
                return Err(SpecError::Invalid(format!(
                    "[site {}] upstream {} names no relay in this spec",
                    s.site, s.upstream
                )));
            };
            if !r.node.sites.contains(&s.site) {
                return Err(SpecError::Invalid(format!(
                    "[site {}] feeds relay {} which does not list it in sites = …",
                    s.site, s.upstream
                )));
            }
        }
        Ok(())
    }

    /// Relay names parents-first (root, then its children, tier by
    /// tier): the boot order that lets a child resolve its parent's
    /// `:0` ingest bind to a concrete address.
    pub fn boot_order(&self) -> Vec<String> {
        let topo = self.topology();
        let mut order = vec![topo.root()];
        let mut i = 0;
        while i < order.len() {
            order.extend(topo.children_of(order[i]));
            i += 1;
        }
        order
            .into_iter()
            .map(|i| topo.relays[i].name.clone())
            .collect()
    }

    /// The relay node spec called `name`, if any.
    pub fn relay(&self, name: &str) -> Option<&RelayNodeSpec> {
        self.relays.iter().find(|r| r.node.name == name)
    }

    /// Every real site `name` covers — its direct `sites = …` plus
    /// everything owned below it. This (not the direct list) is what
    /// a launched node's `expected` coverage must be: a mid relay
    /// with no direct sites still ingests and re-exports everything
    /// its children own.
    pub fn coverage(&self, name: &str) -> Vec<u16> {
        let topo = self.topology();
        match topo.index_of(name) {
            Some(idx) => topo.coverage(idx).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Boots every relay in this process, root first, and returns the
    /// runtimes in boot order. This is the launcher's relay wiring in
    /// one place: each node's expected coverage is its whole subtree
    /// (not just its direct `sites = …` — the root usually owns none),
    /// and each child's `upstream` is its parent's *resolved* ingest
    /// address, so `:0` binds work.
    pub fn boot_relays(
        &self,
    ) -> Result<Vec<crate::runtime::NodeRuntime>, crate::runtime::RuntimeError> {
        let mut ingest: std::collections::HashMap<String, std::net::SocketAddr> =
            std::collections::HashMap::new();
        let mut out = Vec::new();
        for name in self.boot_order() {
            let r = self.relay(&name).expect("boot_order names spec relays");
            let mut node = r.node.clone();
            node.sites = self.coverage(&name);
            if let Some(parent) = &r.parent {
                node.upstream = Some(ingest[parent].to_string());
            }
            let rt = crate::runtime::NodeRuntime::start(node)?;
            ingest.insert(name, rt.ingest_addr());
            out.push(rt);
        }
        Ok(out)
    }
}

fn parse_num<T: std::str::FromStr>(line: usize, k: &str, v: &str) -> Result<T, SpecError> {
    v.parse().map_err(|_| SpecError::Syntax {
        line,
        msg: format!("{k} must be an integer, got {v}"),
    })
}

fn parse_bool(line: usize, k: &str, v: &str) -> Result<bool, SpecError> {
    match v {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(SpecError::Syntax {
            line,
            msg: format!("{k} must be 0/1 (or true/false), got {v}"),
        }),
    }
}

fn parse_site_list(line: usize, v: &str) -> Result<Vec<u16>, SpecError> {
    v.split(',')
        .map(|s| {
            s.trim().parse().map_err(|_| SpecError::Syntax {
                line,
                msg: format!("sites must be comma-separated u16 ids, got {v}"),
            })
        })
        .collect()
}

fn parse_mode_name(line: usize, v: &str) -> Result<String, SpecError> {
    match v {
        "full" | "delta" => Ok(v.to_string()),
        _ => Err(SpecError::Syntax {
            line,
            msg: format!("mode must be full or delta, got {v}"),
        }),
    }
}

fn mode_from_name(v: &str) -> crate::relay::ExportMode {
    match v {
        "full" => crate::relay::ExportMode::Full,
        _ => crate::relay::ExportMode::Delta,
    }
}

fn parse_fsync_name(line: usize, v: &str) -> Result<String, SpecError> {
    match v {
        "always" | "never" => Ok(v.to_string()),
        _ => Err(SpecError::Syntax {
            line,
            msg: format!("fsync must be always or never, got {v}"),
        }),
    }
}

fn fsync_from_name(v: &str) -> FsyncPolicy {
    match v {
        "always" => FsyncPolicy::Always,
        _ => FsyncPolicy::Never,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::ExportMode;

    const SPEC: &str = "\
# three-tier example
[defaults]
mode = delta
linger-ms = 700
stats = 127.0.0.1:0
window-ms = 60000

[site 0]
listen = 127.0.0.1:0
upstream = west

[site 1]
upstream = west
window-ms = 30000   ; per-site override

[site 2]
upstream = east

[relay west]
agg-site = 1001
sites = 0,1
parent = root
mode = full

[relay east]
agg-site = 1002
sites = 2
parent = root

[relay root]
agg-site = 2000
";

    #[test]
    fn parses_defaults_overrides_and_boot_order() {
        let spec = FleetSpec::parse(SPEC).unwrap();
        assert_eq!(spec.sites.len(), 3);
        assert_eq!(spec.relays.len(), 3);
        // Defaults applied, overrides win.
        assert_eq!(spec.sites[0].window_ms, 60_000);
        assert_eq!(spec.sites[1].window_ms, 30_000);
        assert_eq!(spec.sites[0].stats.as_deref(), Some("127.0.0.1:0"));
        let west = spec.relay("west").unwrap();
        assert_eq!(west.node.mode, ExportMode::Full);
        assert_eq!(west.node.linger_ms, 700);
        assert_eq!(west.parent.as_deref(), Some("root"));
        let root = spec.relay("root").unwrap();
        assert_eq!(root.node.mode, ExportMode::Delta);
        assert!(root.parent.is_none());
        assert!(root.node.sites.is_empty());
        // Root first, children after.
        let order = spec.boot_order();
        assert_eq!(order[0], "root");
        assert!(order.contains(&"west".into()) && order.contains(&"east".into()));
        spec.topology().validate().unwrap();
    }

    #[test]
    fn rejects_incoherent_fleets() {
        // Site feeding a relay that does not exist.
        let err = FleetSpec::parse(
            "[site 0]\nupstream = ghost\n[relay root]\nagg-site = 100\nsites = 0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
        // Site feeding a relay that does not own it.
        let err = FleetSpec::parse(
            "[site 5]\nupstream = root\n[relay root]\nagg-site = 100\nsites = 0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("does not list it"), "{err}");
        // Relay tree breakage surfaces through topology validation.
        let err = FleetSpec::parse(
            "[relay a]\nagg-site = 100\nsites = 0\n[relay b]\nagg-site = 101\nsites = 1\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Topology(_)), "{err}");
        // Missing required keys.
        let err = FleetSpec::parse("[relay root]\nsites = 0\n").unwrap_err();
        assert!(err.to_string().contains("agg-site"), "{err}");
        let err =
            FleetSpec::parse("[site 0]\n[relay root]\nagg-site = 9\nsites = 0\n").unwrap_err();
        assert!(err.to_string().contains("upstream"), "{err}");
    }

    #[test]
    fn lane_and_base_knobs_parse_with_defaults_and_overrides() {
        let spec = FleetSpec::parse(
            "\
[defaults]
lanes = 4
recv-batch = 16
reuseport = off
pin-cores = on
max-base-nodes = 500000

[site 0]
listen = 127.0.0.1:0
upstream = root

[site 1]
upstream = root
lanes = 2
recv-batch = 64
reuseport = on
pin-cores = 0

[relay root]
agg-site = 100
sites = 0,1
max-base-nodes = 250000
",
        )
        .unwrap();
        // Defaults inherited.
        assert_eq!(spec.sites[0].lanes, 4);
        assert_eq!(spec.sites[0].recv_batch, 16);
        assert!(!spec.sites[0].reuseport);
        assert!(spec.sites[0].pin_cores);
        // Per-site overrides win, with both boolean spellings.
        assert_eq!(spec.sites[1].lanes, 2);
        assert_eq!(spec.sites[1].recv_batch, 64);
        assert!(spec.sites[1].reuseport);
        assert!(!spec.sites[1].pin_cores);
        // The per-relay key beats the [defaults] value.
        let root = spec.relay("root").unwrap();
        assert_eq!(root.node.max_base_nodes, 250_000);

        // Built-in defaults when nothing is said.
        let spec =
            FleetSpec::parse("[site 0]\nupstream = root\n[relay root]\nagg-site = 1\nsites = 0\n")
                .unwrap();
        assert_eq!(spec.sites[0].lanes, 1);
        assert_eq!(spec.sites[0].recv_batch, 32);
        assert!(spec.sites[0].reuseport);
        assert!(!spec.sites[0].pin_cores);

        // A bad boolean names the offending value.
        let err = FleetSpec::parse("[defaults]\nreuseport = sideways\n").unwrap_err();
        assert!(err.to_string().contains("sideways"), "{err}");
    }

    #[test]
    fn rejects_syntax_errors_with_line_numbers() {
        let err = FleetSpec::parse("[defaults]\nbogus-key = 1\n").unwrap_err();
        assert!(matches!(err, SpecError::Syntax { line: 2, .. }), "{err}");
        let err = FleetSpec::parse("stray = 1\n").unwrap_err();
        assert!(matches!(err, SpecError::Syntax { line: 1, .. }), "{err}");
        let err = FleetSpec::parse("[what is this]\n").unwrap_err();
        assert!(matches!(err, SpecError::Syntax { line: 1, .. }), "{err}");
        let err = FleetSpec::parse("[relay r]\nmode = sideways\n").unwrap_err();
        assert!(err.to_string().contains("sideways"), "{err}");
    }
}
