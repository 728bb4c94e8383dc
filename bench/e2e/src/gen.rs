//! The seeded workload generator: splitmix64, a Zipf sampler, flow
//! synthesis, and std-only NetFlow v5 / IPFIX encoders.
//!
//! Deliberately independent of `flowtrace`/`flownet`: workload bytes
//! must not change when those crates do. `bench-layers` includes this
//! file by path and checks that the encoders decode through
//! `flownet::decode_export_packet` to exactly the records generated.
//!
//! A [`Pool`] is a fixed ring of pre-encoded datagrams. The sender
//! cycles through it and stamps each datagram's event time just before
//! the send ([`Dgram::stamp`]), so the per-send cost is a few byte
//! stores and the key sequence is a pure function of the seed.

/// splitmix64: the whole generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 output function, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over ranks `0..n` by inverse-CDF table lookup.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The benchmark's key-popularity law over `flows` ranks.
    pub fn over(flows: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(flows);
        let mut acc = 0.0;
        for rank in 1..=flows {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// One generated flow record, before encoding. Event time is not part
/// of it: every record of a datagram carries the datagram's stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec {
    pub src: [u8; 4],
    pub dst: [u8; 4],
    pub sport: u16,
    pub dport: u16,
    pub proto: u8,
    pub packets: u32,
    pub bytes: u32,
}

/// Wire dialect of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    NetflowV5,
    Ipfix,
}

/// What one pool is made of.
#[derive(Debug, Clone, Copy)]
pub struct PoolSpec {
    pub format: Format,
    pub datagrams: usize,
    pub records_per_datagram: usize,
    /// Ranks of the shared Zipf key population.
    pub flows: usize,
    /// `Some(site)`: every second record is drawn uniformly from 1024
    /// flows private to the site (sources in `10.<128+site>.0.0/16`)
    /// instead of the shared population.
    pub private_site: Option<u16>,
    /// IPFIX only: every n-th datagram of the ring (and the first)
    /// leads with the template set.
    pub template_every: usize,
}

const ZIPF_S: f64 = 1.1;
const DPORTS: [u16; 8] = [80, 443, 53, 123, 22, 25, 8080, 3306];

/// The 5-tuple of shared-population rank `rank`: sources spread over
/// 10.0.0.0/11, destinations split between 10.0.0.0/8 and
/// 172.16.0.0/12, so the benchmark's `top … under dst=10.0.0.0/8` and
/// `drill src under src=10.0.0.0/8` queries have structure to find.
///
/// The population is the same for every seed: which heavy hitters sit
/// under which prefix shapes the trees, and with it what the round's
/// queries cost, so a population that moved with the seed would put a
/// seed-to-seed spread on `query_round_p50_ms` several times the
/// run-to-run one. The seed picks the draw sequence over it.
fn shared_flow(rank: u64) -> ([u8; 4], [u8; 4], u16, u16, u8) {
    let h = mix(rank.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let g = mix(h);
    let src = [10, (h & 31) as u8, (h >> 8) as u8, (h >> 16) as u8];
    let dst = if h >> 63 == 0 {
        [10, 64 + ((g & 15) as u8), (g >> 8) as u8, (g >> 16) as u8]
    } else {
        [172, 16 + ((g & 15) as u8), (g >> 8) as u8, (g >> 16) as u8]
    };
    let sport = 1024 + ((h >> 24) % 50_000) as u16;
    let dport = DPORTS[((g >> 24) & 7) as usize];
    let proto = if (g >> 32) & 3 == 0 { 17 } else { 6 };
    (src, dst, sport, dport, proto)
}

/// Flows a site has to itself: drawn uniformly, so a 1000-record
/// window sees a few hundred of them and windows of one site overlap.
const PRIVATE_FLOWS: u64 = 1_024;

fn private_flow(site: u16, rng: &mut SplitMix64) -> ([u8; 4], [u8; 4], u16, u16, u8) {
    let flow = rng.next_u64() % PRIVATE_FLOWS;
    let h = mix(flow ^ ((site as u64) << 32));
    let src = [10, 128 + (site % 64) as u8, (h >> 8) as u8, (h >> 16) as u8];
    let dst = [10, 200, (h >> 24) as u8, (h >> 32) as u8];
    (
        src,
        dst,
        1024 + ((h >> 40) % 50_000) as u16,
        DPORTS[(h & 7) as usize],
        6,
    )
}

/// One pre-encoded datagram of a pool.
#[derive(Debug, Clone)]
pub struct Dgram {
    pub bytes: Vec<u8>,
    pub records: u32,
    /// Sum of the records' packet counts: the mass this datagram adds
    /// to whichever window its stamp falls in.
    pub packets: u64,
    format: Format,
    /// IPFIX: byte offset of the first record's flowStartMilliseconds
    /// (the template set, when present, shifts it).
    first_ts_off: usize,
}

const V5_HEADER: usize = 24;
const V5_RECORD: usize = 48;
const V5_UPTIME_MS: u32 = 3_600_000;
const IPFIX_HEADER: usize = 16;
const IPFIX_RECORD: usize = 45;
const IPFIX_TEMPLATE_ID: u16 = 256;
/// (information element, length): the nine fields of one data record.
const IPFIX_FIELDS: [(u16, u16); 9] = [
    (8, 4),   // sourceIPv4Address
    (12, 4),  // destinationIPv4Address
    (7, 2),   // sourceTransportPort
    (11, 2),  // destinationTransportPort
    (4, 1),   // protocolIdentifier
    (2, 8),   // packetDeltaCount
    (1, 8),   // octetDeltaCount
    (152, 8), // flowStartMilliseconds
    (153, 8), // flowEndMilliseconds
];

impl Dgram {
    /// Sets the event time (epoch ms) of every record in place.
    pub fn stamp(&mut self, ts_ms: u64) {
        match self.format {
            Format::NetflowV5 => {
                // Records carry first/last == the header's sysuptime,
                // so the header's export time is their event time.
                let secs = (ts_ms / 1000) as u32;
                let nsecs = ((ts_ms % 1000) * 1_000_000) as u32;
                self.bytes[8..12].copy_from_slice(&secs.to_be_bytes());
                self.bytes[12..16].copy_from_slice(&nsecs.to_be_bytes());
            }
            Format::Ipfix => {
                let secs = (ts_ms / 1000) as u32;
                self.bytes[4..8].copy_from_slice(&secs.to_be_bytes());
                let ts = ts_ms.to_be_bytes();
                for r in 0..self.records as usize {
                    let off = self.first_ts_off + r * IPFIX_RECORD;
                    self.bytes[off..off + 8].copy_from_slice(&ts);
                    self.bytes[off + 8..off + 16].copy_from_slice(&ts);
                }
            }
        }
    }
}

fn encode_v5(recs: &[Rec], sequence: u32) -> Dgram {
    assert!(
        !recs.is_empty() && recs.len() <= 30,
        "v5 carries 1..=30 records"
    );
    let mut b = Vec::with_capacity(V5_HEADER + recs.len() * V5_RECORD);
    b.extend_from_slice(&5u16.to_be_bytes());
    b.extend_from_slice(&(recs.len() as u16).to_be_bytes());
    b.extend_from_slice(&V5_UPTIME_MS.to_be_bytes());
    b.extend_from_slice(&[0u8; 8]); // unix secs + nsecs: stamped per send
    b.extend_from_slice(&sequence.to_be_bytes());
    b.extend_from_slice(&[0u8; 4]); // engine type/id, sampling
    for r in recs {
        b.extend_from_slice(&r.src);
        b.extend_from_slice(&r.dst);
        b.extend_from_slice(&[0u8; 8]); // nexthop, input/output if
        b.extend_from_slice(&r.packets.to_be_bytes());
        b.extend_from_slice(&r.bytes.to_be_bytes());
        b.extend_from_slice(&V5_UPTIME_MS.to_be_bytes()); // first
        b.extend_from_slice(&V5_UPTIME_MS.to_be_bytes()); // last
        b.extend_from_slice(&r.sport.to_be_bytes());
        b.extend_from_slice(&r.dport.to_be_bytes());
        b.extend_from_slice(&[0, 0, r.proto, 0]); // pad, flags, proto, tos
        b.extend_from_slice(&[0, 0, 0, 0, 32, 32, 0, 0]); // AS, masks, pad
    }
    Dgram {
        bytes: b,
        records: recs.len() as u32,
        packets: recs.iter().map(|r| r.packets as u64).sum(),
        format: Format::NetflowV5,
        first_ts_off: 0,
    }
}

fn encode_ipfix(recs: &[Rec], sequence: u32, with_template: bool) -> Dgram {
    let mut body = Vec::new();
    if with_template {
        let set_len = 4 + 4 + IPFIX_FIELDS.len() * 4;
        body.extend_from_slice(&2u16.to_be_bytes());
        body.extend_from_slice(&(set_len as u16).to_be_bytes());
        body.extend_from_slice(&IPFIX_TEMPLATE_ID.to_be_bytes());
        body.extend_from_slice(&(IPFIX_FIELDS.len() as u16).to_be_bytes());
        for (ie, len) in IPFIX_FIELDS {
            body.extend_from_slice(&ie.to_be_bytes());
            body.extend_from_slice(&len.to_be_bytes());
        }
    }
    body.extend_from_slice(&IPFIX_TEMPLATE_ID.to_be_bytes());
    body.extend_from_slice(&((4 + recs.len() * IPFIX_RECORD) as u16).to_be_bytes());
    let first_ts_off = IPFIX_HEADER + body.len() + 29;
    for r in recs {
        body.extend_from_slice(&r.src);
        body.extend_from_slice(&r.dst);
        body.extend_from_slice(&r.sport.to_be_bytes());
        body.extend_from_slice(&r.dport.to_be_bytes());
        body.push(r.proto);
        body.extend_from_slice(&(r.packets as u64).to_be_bytes());
        body.extend_from_slice(&(r.bytes as u64).to_be_bytes());
        body.extend_from_slice(&[0u8; 16]); // start/end ms: stamped per send
    }
    let mut b = Vec::with_capacity(IPFIX_HEADER + body.len());
    b.extend_from_slice(&10u16.to_be_bytes());
    b.extend_from_slice(&((IPFIX_HEADER + body.len()) as u16).to_be_bytes());
    b.extend_from_slice(&[0u8; 4]); // export time: stamped per send
    b.extend_from_slice(&sequence.to_be_bytes());
    b.extend_from_slice(&1u32.to_be_bytes()); // observation domain
    b.extend_from_slice(&body);
    Dgram {
        bytes: b,
        records: recs.len() as u32,
        packets: recs.iter().map(|r| r.packets as u64).sum(),
        format: Format::Ipfix,
        first_ts_off,
    }
}

/// A ring of pre-encoded datagrams.
#[derive(Debug)]
pub struct Pool {
    pub dgrams: Vec<Dgram>,
}

impl Pool {
    /// Builds the ring for `spec`. `seed` and `stream` (one per site)
    /// select an independent draw sequence over the shared key
    /// population. `on_record` sees every record in generation
    /// order (tests compare them to a decode).
    pub fn build(
        spec: &PoolSpec,
        zipf: &Zipf,
        seed: u64,
        stream: u64,
        mut on_record: impl FnMut(&Rec),
    ) -> Pool {
        assert_eq!(
            zipf.cdf.len(),
            spec.flows,
            "the sampler covers the spec's population"
        );
        let mut rng = SplitMix64(mix(seed ^ mix(stream)));
        let mut dgrams = Vec::with_capacity(spec.datagrams);
        let mut recs = Vec::with_capacity(spec.records_per_datagram);
        for d in 0..spec.datagrams {
            recs.clear();
            for i in 0..spec.records_per_datagram {
                let (src, dst, sport, dport, proto) = match spec.private_site {
                    Some(site) if i % 2 == 1 => private_flow(site, &mut rng),
                    _ => shared_flow(zipf.sample(&mut rng)),
                };
                let sizes = rng.next_u64();
                let packets = 1 + (sizes & 15) as u32;
                let rec = Rec {
                    src,
                    dst,
                    sport,
                    dport,
                    proto,
                    packets,
                    bytes: packets * (64 + ((sizes >> 8) % 1400) as u32),
                };
                on_record(&rec);
                recs.push(rec);
            }
            let sequence = (d * spec.records_per_datagram) as u32;
            dgrams.push(match spec.format {
                Format::NetflowV5 => encode_v5(&recs, sequence),
                Format::Ipfix => encode_ipfix(&recs, sequence, d % spec.template_every.max(1) == 0),
            });
        }
        Pool { dgrams }
    }

    /// FNV-1a over every datagram's bytes as built (before any stamp):
    /// printed with every run so two runs can be shown to have sent
    /// the same workload.
    pub fn hash(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for d in &self.dgrams {
            for &b in &d.bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// The pools of one workload over `nsites` sites: one shared pool, or
/// (`per_site`) one per site — the same key population, a different
/// draw stream, and the site's private prefix mixed in.
pub fn build_pools(spec: &PoolSpec, per_site: bool, seed: u64, nsites: usize) -> Vec<Pool> {
    let zipf = Zipf::over(spec.flows);
    if !per_site {
        return vec![Pool::build(spec, &zipf, seed, 0, |_| {})];
    }
    (0..nsites)
        .map(|site| {
            let spec = PoolSpec {
                private_site: Some(site as u16),
                ..*spec
            };
            Pool::build(&spec, &zipf, seed, 1 + site as u64, |_| {})
        })
        .collect()
}

/// Folds the pools' hashes into the one number a run prints.
pub fn pools_hash(pools: &[Pool]) -> u64 {
    pools.iter().fold(0u64, |h, p| h.rotate_left(7) ^ p.hash())
}
