//! Crash-safe relay persistence: snapshot + write-ahead log.
//!
//! A journaled relay ([`Relay::open_journaled`]) appends every
//! state-mutating operation to a WAL **after** it applied (and, on the
//! acked ingest path, before the ack goes out — so a crash between
//! apply and append means the sender never saw an ack, resends, and
//! the replay deduplicates). A restart replays the log through the
//! same entry points, deterministically reconstructing the epoch
//! chains, export positions, and working set instead of re-merging
//! from scratch — the other half of the durability story next to the
//! spill queue ([`flowdist::spill`]).
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/CURRENT            the live generation number (tmp+rename)
//! <dir>/snap-<gen>/        SummaryStore of reconstructed slot frames
//! <dir>/snap-<gen>.state   relay-side state (CRC-framed record)
//! <dir>/wal-<gen>.log      CRC-framed operation records
//! ```
//!
//! Records share the spill queue's `[u32 LE len][u32 LE crc][payload]`
//! framing; a torn tail (crash mid-append) stops replay at the last
//! intact record and is truncated. Compaction writes the **next**
//! generation completely, flips `CURRENT`, then deletes the old one —
//! a crash at any point leaves exactly one consistent generation
//! reachable (the stale one's files are swept on the next compact).
//!
//! Pinned delta bases are deliberately **not** persisted: after a
//! restart the first change of an affected window re-exports one full
//! rebasing frame and the chain continues — paying a frame of wire
//! bytes instead of snapshotting a tree per window.

use crate::relay::{Relay, RelayLedger, RelayState};
use crate::RelayError;
use flowdist::spill::crc32;
use flowdist::{
    DistError, EpochHeader, FsyncPolicy, Lineage, Summary, SummaryKind, SummaryStore, WindowId,
};
use flowkey::pack::{read_varint, write_varint};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// Journal tuning.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Compact (snapshot + fresh WAL) once the WAL exceeds this many
    /// bytes. 0 = never auto-compact.
    pub compact_wal_bytes: u64,
    /// Fsync policy for WAL appends and snapshot writes. The default
    /// ([`FsyncPolicy::Never`]) survives `kill -9`; `Always` also
    /// survives power loss.
    pub fsync: FsyncPolicy,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            compact_wal_bytes: 64 << 20,
            fsync: FsyncPolicy::Never,
        }
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// The generation recovered from (`CURRENT`).
    pub generation: u64,
    /// Slot frames restored from the snapshot store.
    pub snapshot_slots: usize,
    /// WAL records replayed.
    pub wal_records: u64,
    /// Torn/corrupt trailing WAL bytes truncated.
    pub torn_bytes: u64,
}

/// One WAL operation record (borrowing the caller's data — records
/// are encoded and written in place, never stored).
pub(crate) enum Record<'a> {
    /// A downstream frame that applied, verbatim.
    Frame(&'a [u8]),
    /// One drain's exported window starts, in export order.
    ExportBatch(&'a [u64]),
    /// [`Relay::mark_unshipped`].
    MarkUnshipped(u64),
    /// [`Relay::evict_windows_before`].
    Evict(u64),
    /// [`Relay::note_shipped`].
    Shipped {
        /// Window start (ms).
        start: u64,
        /// Acknowledged epoch.
        epoch: u64,
    },
    /// [`Relay::drop_export_bases`].
    DropBases,
}

const REC_FRAME: u8 = 1;
const REC_EXPORT_BATCH: u8 = 3;
const REC_MARK_UNSHIPPED: u8 = 4;
const REC_EVICT: u8 = 5;
const REC_SHIPPED: u8 = 6;
const REC_DROP_BASES: u8 = 7;

const FRAME_HEADER: usize = 8;

/// The append half of an attached journal (owned by the relay).
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    generation: u64,
    file: File,
    wal_bytes: u64,
    cfg: JournalConfig,
    error: Option<String>,
}

impl JournalWriter {
    pub(crate) fn append(&mut self, rec: Record<'_>) {
        if self.error.is_some() {
            return;
        }
        let mut payload = Vec::new();
        match rec {
            Record::Frame(bytes) => {
                payload.push(REC_FRAME);
                payload.extend_from_slice(bytes);
            }
            Record::ExportBatch(starts) => {
                payload.push(REC_EXPORT_BATCH);
                write_varint(&mut payload, starts.len() as u64);
                for &s in starts {
                    write_varint(&mut payload, s);
                }
            }
            Record::MarkUnshipped(start) => {
                payload.push(REC_MARK_UNSHIPPED);
                write_varint(&mut payload, start);
            }
            Record::Evict(cutoff) => {
                payload.push(REC_EVICT);
                write_varint(&mut payload, cutoff);
            }
            Record::Shipped { start, epoch } => {
                payload.push(REC_SHIPPED);
                write_varint(&mut payload, start);
                write_varint(&mut payload, epoch);
            }
            Record::DropBases => payload.push(REC_DROP_BASES),
        }
        if let Err(e) = write_record(&mut self.file, &payload, self.cfg.fsync) {
            self.error = Some(format!("wal append: {e}"));
            return;
        }
        self.wal_bytes += (FRAME_HEADER + payload.len()) as u64;
    }

    pub(crate) fn wants_compact(&self) -> bool {
        self.error.is_none()
            && self.cfg.compact_wal_bytes > 0
            && self.wal_bytes > self.cfg.compact_wal_bytes
    }

    pub(crate) fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

fn write_record(file: &mut File, payload: &[u8], fsync: FsyncPolicy) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    file.write_all(&buf)?;
    if fsync == FsyncPolicy::Always {
        file.sync_all()?;
    }
    Ok(())
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

fn snap_dir(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}"))
}

fn state_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snap-{generation}.state"))
}

fn read_current(dir: &Path) -> Result<u64, DistError> {
    match fs::read_to_string(dir.join("CURRENT")) {
        Ok(text) => Ok(text.trim().parse::<u64>().unwrap_or(0)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(0),
        Err(e) => Err(DistError::Io(e)),
    }
}

fn write_current(dir: &Path, generation: u64, fsync: FsyncPolicy) -> std::io::Result<()> {
    let tmp = dir.join("CURRENT.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(format!("{generation}\n").as_bytes())?;
    if fsync == FsyncPolicy::Always {
        f.sync_all()?;
    }
    drop(f);
    fs::rename(tmp, dir.join("CURRENT"))
}

impl Relay {
    /// Opens (or resumes) a journaled relay rooted at `dir`: restores
    /// the latest snapshot, replays the WAL through the normal entry
    /// points, and attaches the writer so every further mutation is
    /// logged. The returned relay holds exactly the epoch chains,
    /// export positions, and stored windows it held when the previous
    /// process died.
    pub fn open_journaled(
        cfg: crate::RelayConfig,
        dir: &Path,
        jcfg: JournalConfig,
    ) -> Result<(Relay, RecoveryReport), RelayError> {
        fs::create_dir_all(dir).map_err(|e| RelayError::Dist(DistError::Io(e)))?;
        let generation = read_current(dir)?;
        let tree_cfg = cfg.tree;
        let mut relay = Relay::new(cfg);
        let mut report = RecoveryReport {
            generation,
            ..RecoveryReport::default()
        };

        // Snapshot: slot frames into the collector, relay state on top.
        // Every relay slot carries an epoch; one that does not is a
        // state dir written by an older relay and fails the open.
        let spath = state_path(dir, generation);
        if spath.exists() {
            let state = read_state_file(&spath)?;
            let store = SummaryStore::open(snap_dir(dir, generation))?;
            for (site, start) in store.list()? {
                let summary = store.get(site, start, tree_cfg)?;
                if summary.lineage.is_none() {
                    return Err(DistError::BadFrame("summary without epoch").into());
                }
                relay
                    .collector_mut()
                    .apply_bytes(&summary.encode())
                    .map_err(RelayError::Dist)?;
                report.snapshot_slots += 1;
            }
            relay.restore_state(state);
        }

        // WAL: replay the intact prefix, truncate anything torn.
        let wpath = wal_path(dir, generation);
        if wpath.exists() {
            let mut data = Vec::new();
            File::open(&wpath)
                .and_then(|mut f| f.read_to_end(&mut data))
                .map_err(|e| RelayError::Dist(DistError::Io(e)))?;
            let good = replay_wal(&mut relay, &data, &mut report);
            if good < data.len() {
                report.torn_bytes = (data.len() - good) as u64;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wpath)
                    .map_err(|e| RelayError::Dist(DistError::Io(e)))?;
                f.set_len(good as u64)
                    .map_err(|e| RelayError::Dist(DistError::Io(e)))?;
            }
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wpath)
            .map_err(|e| RelayError::Dist(DistError::Io(e)))?;
        let wal_bytes = file
            .metadata()
            .map_err(|e| RelayError::Dist(DistError::Io(e)))?
            .len();
        *relay.journal_mut() = Some(JournalWriter {
            dir: dir.to_path_buf(),
            generation,
            file,
            wal_bytes,
            cfg: jcfg,
            error: None,
        });
        Ok((relay, report))
    }
}

/// Replays every intact WAL record; returns the byte length of the
/// intact prefix.
fn replay_wal(relay: &mut Relay, data: &[u8], report: &mut RecoveryReport) -> usize {
    let mut pos = 0usize;
    while data.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = pos.checked_add(FRAME_HEADER + len) else {
            break;
        };
        if end > data.len() {
            break;
        }
        let payload = &data[pos + FRAME_HEADER..end];
        if crc32(payload) != crc || payload.is_empty() {
            break;
        }
        if !replay_record(relay, payload) {
            break;
        }
        report.wal_records += 1;
        pos = end;
    }
    pos
}

/// Applies one decoded WAL record through the relay's normal entry
/// points (the journal is not yet attached, so nothing re-logs).
/// Returns false on a structurally invalid record — treated like a
/// torn tail.
fn replay_record(relay: &mut Relay, payload: &[u8]) -> bool {
    let body = &payload[1..];
    let mut pos = 0usize;
    let mut next = |body: &[u8]| -> Option<u64> {
        let (v, n) = read_varint(&body[pos..]).ok()?;
        pos += n;
        Some(v)
    };
    match payload[0] {
        REC_FRAME => {
            // Applied once before the crash; outcome is deterministic.
            let _ = relay.ingest_frame(body);
            true
        }
        REC_EXPORT_BATCH => {
            let Some(count) = next(body) else {
                return false;
            };
            let mut starts = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let Some(s) = next(body) else {
                    return false;
                };
                starts.push(s);
            }
            relay.replay_export_batch(&starts);
            true
        }
        REC_MARK_UNSHIPPED => match next(body) {
            Some(start) => {
                relay.mark_unshipped(start);
                true
            }
            None => false,
        },
        REC_EVICT => match next(body) {
            Some(cutoff) => {
                relay.evict_windows_before(cutoff);
                true
            }
            None => false,
        },
        REC_SHIPPED => match (next(body), next(body)) {
            (Some(start), Some(epoch)) => {
                relay.note_shipped(start, epoch);
                true
            }
            _ => false,
        },
        REC_DROP_BASES => {
            relay.drop_export_bases();
            true
        }
        _ => false,
    }
}

/// Compacts the attached journal: writes the next generation's
/// snapshot (slot frames + relay state), flips `CURRENT`, starts a
/// fresh WAL, and sweeps the previous generation. On error the
/// journal is marked broken (the relay keeps serving; crash-safety is
/// void until an operator intervenes).
pub(crate) fn compact(relay: &mut Relay) {
    let Some(writer) = relay.journal_mut().take() else {
        return;
    };
    let dir = writer.dir.clone();
    let cfg = writer.cfg;
    let old_gen = writer.generation;
    let next_gen = old_gen + 1;
    drop(writer);

    match write_snapshot(relay, &dir, next_gen, &cfg) {
        Ok(file) => {
            // Sweep the previous generation — `CURRENT` already points
            // past it, so a crash mid-sweep just leaves garbage the
            // next compact removes.
            let _ = fs::remove_file(wal_path(&dir, old_gen));
            let _ = fs::remove_file(state_path(&dir, old_gen));
            let _ = fs::remove_dir_all(snap_dir(&dir, old_gen));
            *relay.journal_mut() = Some(JournalWriter {
                dir,
                generation: next_gen,
                file,
                wal_bytes: 0,
                cfg,
                error: None,
            });
        }
        Err(e) => {
            // Reattach a broken writer so journal_error() surfaces it.
            if let Ok(file) = OpenOptions::new()
                .create(true)
                .append(true)
                .open(wal_path(&dir, old_gen))
            {
                *relay.journal_mut() = Some(JournalWriter {
                    dir,
                    generation: old_gen,
                    file,
                    wal_bytes: 0,
                    cfg,
                    error: Some(format!("compaction: {e}")),
                });
            }
        }
    }
}

/// Writes generation `gen`'s complete snapshot and fresh WAL, then
/// flips `CURRENT`. Returns the new WAL's append handle.
fn write_snapshot(
    relay: &Relay,
    dir: &Path,
    generation: u64,
    cfg: &JournalConfig,
) -> Result<File, DistError> {
    // A leftover half-written snapshot of this generation (crashed
    // compact) is overwritten from scratch.
    let sdir = snap_dir(dir, generation);
    let _ = fs::remove_dir_all(&sdir);
    let store = SummaryStore::open(&sdir)?;
    let span = relay.span_ms();
    for (start, site) in relay.collector().window_keys() {
        let Some(span) = span else { break };
        store.put(&reconstruct_slot(relay, start, site, span))?;
    }
    let state = relay.snapshot_state();
    write_state_file(&state_path(dir, generation), &state, cfg.fsync).map_err(DistError::Io)?;
    // Fresh WAL before the flip: once CURRENT points here, every file
    // of the generation exists.
    let wpath = wal_path(dir, generation);
    let _ = fs::remove_file(&wpath);
    let file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&wpath)
        .map_err(DistError::Io)?;
    write_current(dir, generation, cfg.fsync).map_err(DistError::Io)?;
    Ok(file)
}

/// Rebuilds the frame that restores one stored slot exactly: its
/// current tree, epoch, seq, and provenance, as a version-3 `Full`
/// frame (a relay stores only frames that carry an epoch).
fn reconstruct_slot(relay: &Relay, start: u64, site: u16, span: u64) -> Summary {
    let c = relay.collector();
    let provenance = c
        .window_provenance(start, site)
        .expect("a relay slot has a lineage");
    Summary {
        site,
        window: WindowId {
            start_ms: start,
            span_ms: span,
        },
        seq: c.window_seq(start, site),
        kind: SummaryKind::Full,
        lineage: Some(Lineage {
            provenance: provenance.to_vec(),
            epoch: EpochHeader {
                epoch: c.window_epoch(start, site),
                base: None,
            },
        }),
        tree: c.window_tree(start, site).expect("listed slot").clone(),
    }
}

const STATE_VERSION: u8 = 1;

fn write_state_file(path: &Path, state: &RelayState, fsync: FsyncPolicy) -> std::io::Result<()> {
    let mut payload = vec![STATE_VERSION];
    match state.span_ms {
        Some(span) => {
            payload.push(1);
            write_varint(&mut payload, span);
        }
        None => payload.push(0),
    }
    write_varint(&mut payload, state.seq);
    write_varint(&mut payload, state.provenance.len() as u64);
    for (key, sites) in &state.provenance {
        payload.extend_from_slice(&key.to_be_bytes());
        write_varint(&mut payload, sites.len() as u64);
        for s in sites {
            payload.extend_from_slice(&s.to_be_bytes());
        }
    }
    write_varint(&mut payload, state.windows.len() as u64);
    for &(start, content, exported, shipped) in &state.windows {
        write_varint(&mut payload, start);
        write_varint(&mut payload, content);
        write_varint(&mut payload, exported);
        write_varint(&mut payload, shipped);
    }
    write_varint(&mut payload, state.evicted.len() as u64);
    for &(start, epoch) in &state.evicted {
        write_varint(&mut payload, start);
        write_varint(&mut payload, epoch);
    }
    // The version-1 delta-chain positions: always none, since a relay
    // refuses frames without an epoch. The empty section keeps the
    // format.
    write_varint(&mut payload, 0);
    let counters = ledger_counters(&state.ledger);
    write_varint(&mut payload, counters.len() as u64);
    for c in counters {
        write_varint(&mut payload, c);
    }

    let tmp = path.with_extension("state.tmp");
    let mut f = File::create(&tmp)?;
    write_record(&mut f, &payload, fsync)?;
    drop(f);
    fs::rename(tmp, path)
}

fn read_state_file(path: &Path) -> Result<RelayState, RelayError> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| RelayError::Dist(DistError::Io(e)))?;
    let bad = || RelayError::Dist(DistError::BadFrame("corrupt journal state file"));
    if data.len() < FRAME_HEADER {
        return Err(bad());
    }
    let len = u32::from_le_bytes(data[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if FRAME_HEADER + len != data.len() || crc32(&data[FRAME_HEADER..]) != crc {
        return Err(bad());
    }
    let payload = &data[FRAME_HEADER..];
    if payload.first() != Some(&STATE_VERSION) {
        return Err(bad());
    }
    let mut pos = 1usize;
    let next = |payload: &[u8], pos: &mut usize| -> Result<u64, RelayError> {
        let (v, n) = read_varint(&payload[*pos..]).map_err(|_| bad())?;
        *pos += n;
        Ok(v)
    };
    let next_u16 = |payload: &[u8], pos: &mut usize| -> Result<u16, RelayError> {
        if *pos + 2 > payload.len() {
            return Err(bad());
        }
        let v = u16::from_be_bytes([payload[*pos], payload[*pos + 1]]);
        *pos += 2;
        Ok(v)
    };
    let span_ms = match payload.get(pos) {
        Some(0) => {
            pos += 1;
            None
        }
        Some(1) => {
            pos += 1;
            Some(next(payload, &mut pos)?)
        }
        _ => return Err(bad()),
    };
    let seq = next(payload, &mut pos)?;
    let mut provenance = Vec::new();
    for _ in 0..next(payload, &mut pos)? {
        let key = next_u16(payload, &mut pos)?;
        let n = next(payload, &mut pos)?;
        let mut sites = Vec::with_capacity(n as usize);
        for _ in 0..n {
            sites.push(next_u16(payload, &mut pos)?);
        }
        provenance.push((key, sites));
    }
    let mut windows = Vec::new();
    for _ in 0..next(payload, &mut pos)? {
        windows.push((
            next(payload, &mut pos)?,
            next(payload, &mut pos)?,
            next(payload, &mut pos)?,
            next(payload, &mut pos)?,
        ));
    }
    let mut evicted = Vec::new();
    for _ in 0..next(payload, &mut pos)? {
        evicted.push((next(payload, &mut pos)?, next(payload, &mut pos)?));
    }
    // Version-1 delta-chain positions: parsed and dropped.
    for _ in 0..next(payload, &mut pos)? {
        next_u16(payload, &mut pos)?;
        next(payload, &mut pos)?;
        next(payload, &mut pos)?;
    }
    let n = next(payload, &mut pos)? as usize;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push(next(payload, &mut pos)?);
    }
    let ledger = ledger_from_counters(&counters).ok_or_else(bad)?;
    if pos != payload.len() {
        return Err(bad());
    }
    Ok(RelayState {
        span_ms,
        seq,
        provenance,
        windows,
        evicted,
        ledger,
    })
}

fn ledger_counters(l: &RelayLedger) -> Vec<u64> {
    vec![
        l.frames,
        l.site_frames,
        l.agg_frames,
        l.rejected,
        l.exported,
        l.exported_bytes,
        l.full_exports,
        l.full_export_bytes,
        l.delta_exports,
        l.delta_export_bytes,
        l.delta_fallbacks,
        l.base_losses,
        l.late_downstream,
        l.replayed,
        l.rebase_requests,
        l.rebase_rewinds,
        l.reconnect_attempts,
        l.reconnect_failures,
        l.backoff_ms_total,
        l.spill_sheds,
        l.spill_shed_bytes,
    ]
}

fn ledger_from_counters(c: &[u64]) -> Option<RelayLedger> {
    // 19 counters = a snapshot from before the spill-shed ledger
    // fields existed; those recover as zero.
    if c.len() != 19 && c.len() != 21 {
        return None;
    }
    Some(RelayLedger {
        frames: c[0],
        site_frames: c[1],
        agg_frames: c[2],
        rejected: c[3],
        exported: c[4],
        exported_bytes: c[5],
        full_exports: c[6],
        full_export_bytes: c[7],
        delta_exports: c[8],
        delta_export_bytes: c[9],
        delta_fallbacks: c[10],
        base_losses: c[11],
        late_downstream: c[12],
        replayed: c[13],
        rebase_requests: c[14],
        rebase_rewinds: c[15],
        reconnect_attempts: c[16],
        reconnect_failures: c[17],
        backoff_ms_total: c[18],
        spill_sheds: c.get(19).copied().unwrap_or(0),
        spill_shed_bytes: c.get(20).copied().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::{FrameOutcome, RelayConfig};
    use flowdist::{Summary, SummaryKind, WindowId};
    use flowkey::{FlowKey, Schema};
    use flowtree_core::{Config, FlowTree, Popularity};

    const SPAN: u64 = 1_000;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flowrelay-journal-{tag}-{}",
            std::process::id() as u64
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg() -> RelayConfig {
        RelayConfig {
            name: "j".into(),
            agg_site: 100,
            expected: vec![0, 1],
            schema: Schema::five_feature(),
            tree: Config::with_budget(100_000),
            export: Default::default(),
        }
    }

    /// A site's frame for `window` at content epoch `epoch` (its seq
    /// too): a re-send of a window with new content takes a higher one.
    fn site_summary(site: u16, window: u64, hosts: std::ops::Range<u8>, epoch: u64) -> Summary {
        let schema = Schema::five_feature();
        let mut tree = FlowTree::new(schema, Config::with_budget(4_096));
        for h in hosts {
            let key: FlowKey =
                format!("src=10.{site}.0.{h}/32 dst=192.0.2.1/32 sport=40000 dport=443 proto=tcp")
                    .parse()
                    .unwrap();
            tree.insert(&key, Popularity::new(1 + h as i64, 100, 1));
        }
        Summary {
            site,
            window: WindowId {
                start_ms: window * SPAN,
                span_ms: SPAN,
            },
            seq: epoch,
            kind: SummaryKind::Full,
            lineage: Some(Lineage {
                provenance: vec![site],
                epoch: EpochHeader { epoch, base: None },
            }),
            tree,
        }
    }

    /// The journaled relay and a never-journaled twin fed the same
    /// operations must be indistinguishable after a crash+reopen.
    #[test]
    fn reopened_relay_resumes_exactly_where_it_died() {
        let dir = tmpdir("resume");
        let (mut r, report) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        assert_eq!(report.snapshot_slots, 0);
        let mut twin = Relay::new(cfg());
        for w in 0..2u64 {
            for s in 0..2u16 {
                let bytes = site_summary(s, w, 0..3, 1).encode();
                assert!(matches!(
                    r.ingest_classified(&bytes),
                    FrameOutcome::Applied(_)
                ));
                assert!(matches!(
                    twin.ingest_classified(&bytes),
                    FrameOutcome::Applied(_)
                ));
            }
        }
        // Export window 0, then late content arrives for it.
        let shipped: Vec<_> = r.flush_exports().iter().map(Summary::encode).collect();
        let twin_shipped: Vec<_> = twin.flush_exports().iter().map(Summary::encode).collect();
        assert_eq!(shipped, twin_shipped);
        let late = site_summary(0, 0, 0..5, 2).encode();
        assert!(matches!(
            r.ingest_classified(&late),
            FrameOutcome::Applied(_)
        ));
        assert!(matches!(
            twin.ingest_classified(&late),
            FrameOutcome::Applied(_)
        ));
        drop(r); // kill: everything after this lives only in the journal

        let (mut r2, report) =
            Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        assert!(report.wal_records > 0, "the WAL replayed the history");
        for w in 0..2u64 {
            for s in 0..2u16 {
                assert_eq!(
                    r2.collector().window_epoch(w * SPAN, s),
                    twin.collector().window_epoch(w * SPAN, s),
                    "window {w} site {s} epoch chain must survive the crash"
                );
            }
        }
        assert_eq!(
            r2.merged_view(None, 0, 2 * SPAN).encode(),
            twin.merged_view(None, 0, 2 * SPAN).encode()
        );
        // Export positions replayed too: both ships produce identical
        // remaining frames (the late delta), byte for byte.
        let rest: Vec<_> = r2.flush_exports().iter().map(Summary::encode).collect();
        let twin_rest: Vec<_> = twin.flush_exports().iter().map(Summary::encode).collect();
        assert_eq!(rest, twin_rest);
        assert!(!rest.is_empty());
    }

    /// A half-written trailing WAL record (torn by the crash) is
    /// truncated; everything before it survives.
    #[test]
    fn torn_wal_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let (mut r, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        let bytes = site_summary(0, 0, 0..3, 1).encode();
        assert!(matches!(
            r.ingest_classified(&bytes),
            FrameOutcome::Applied(_)
        ));
        drop(r);
        // Simulate a record torn mid-write.
        use std::io::Write as _;
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(wal_path(&dir, 0))
            .unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);
        let (r2, report) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        assert_eq!(report.torn_bytes, 11);
        assert_eq!(report.wal_records, 1);
        // The intact record survived: the frame's content is stored
        // at its seq and epoch.
        assert_eq!(r2.collector().window_seq(0, 0), 1);
        assert_eq!(r2.collector().window_epoch(0, 0), 1);
        assert!(r2.collector().window_tree(0, 0).is_some());
    }

    /// A tiny WAL bound forces compaction (snapshot + generation
    /// flip); the compacted state reopens identically.
    #[test]
    fn compaction_flips_generations_and_preserves_state() {
        let dir = tmpdir("compact");
        let jcfg = JournalConfig {
            compact_wal_bytes: 1,
            ..JournalConfig::default()
        };
        let (mut r, _) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        let mut twin = Relay::new(cfg());
        for w in 0..3u64 {
            for s in 0..2u16 {
                let bytes = site_summary(s, w, 0..3, 1).encode();
                let _ = r.ingest_classified(&bytes);
                let _ = twin.ingest_classified(&bytes);
            }
        }
        assert!(r.journal_error().is_none());
        drop(r);
        assert!(
            read_current(&dir).unwrap() > 0,
            "the WAL bound must have forced at least one compaction"
        );
        let (r2, report) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        assert!(report.generation > 0);
        assert!(
            report.snapshot_slots > 0,
            "state restored from the snapshot"
        );
        assert_eq!(
            r2.merged_view(None, 0, 3 * SPAN).encode(),
            twin.merged_view(None, 0, 3 * SPAN).encode()
        );
        for w in 0..3u64 {
            for s in 0..2u16 {
                assert_eq!(
                    r2.collector().window_epoch(w * SPAN, s),
                    twin.collector().window_epoch(w * SPAN, s)
                );
            }
        }
    }

    /// Journaled export batches replay their state transitions without
    /// re-shipping: a reopened relay with no new content has nothing
    /// to flush.
    #[test]
    fn replayed_export_batches_do_not_re_ship() {
        let dir = tmpdir("noreship");
        let (mut r, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        for s in 0..2u16 {
            let _ = r.ingest_classified(&site_summary(s, 0, 0..3, 1).encode());
        }
        let first = r.flush_exports();
        assert_eq!(first.len(), 1);
        let epoch = first[0].epoch().unwrap().epoch;
        r.note_shipped(0, epoch);
        drop(r);
        let (mut r2, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        assert!(
            r2.flush_exports().is_empty(),
            "replay must restore exported positions, not reset them"
        );
        // The ack survived too: nothing rewinds.
        assert_eq!(r2.rewind_unacked_exports(), 0);
    }

    /// Retention eviction is journaled: a reopened relay does not
    /// resurrect evicted windows, and the epoch chain still advances
    /// past them if content re-arrives.
    #[test]
    fn evictions_survive_reopen() {
        let dir = tmpdir("evict");
        let (mut r, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        for w in 0..2u64 {
            let _ = r.ingest_classified(&site_summary(0, w, 0..3, 1).encode());
        }
        let _ = r.flush_exports();
        assert_eq!(r.evict_windows_before(SPAN), 1);
        drop(r);
        let (mut r2, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        assert!(r2.collector().window_coverage(0).is_empty());
        assert!(!r2.collector().window_coverage(SPAN).is_empty());
        // Re-arrived content resumes the evicted chain strictly past
        // what was exported before eviction (replay rejects stale).
        let _ = r2.ingest_classified(&site_summary(0, 0, 0..4, 2).encode());
        let frames = r2.flush_exports();
        if let Some(f) = frames.iter().find(|f| f.window.start_ms == 0) {
            assert!(f.epoch().unwrap().epoch > 1);
        }
    }
}
