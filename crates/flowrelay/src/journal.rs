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
//! <dir>/CURRENT            the live generation number (atomic replace)
//! <dir>/wal-<gen>.log      the generation: snapshot, then operations
//! ```
//!
//! A generation is one file of [`flowdist::spill`] records. A
//! compacted generation opens with its snapshot: one `Slot` record per
//! stored window (the version-3 `Full` frame that restores the slot
//! exactly), then one `State` record (the relay's export state, epoch
//! chains, provenance and ledger). Operation records follow.
//! Generation 0 has no snapshot. Recovery is one scan: snapshot
//! records restore, operation records replay.
//!
//! A torn tail (crash mid-append) stops replay at the last intact
//! operation record and is truncated. A snapshot is written whole
//! before `CURRENT` names it, so a torn or corrupt record before the
//! `State` record fails the open instead. Compaction writes the
//! **next** generation completely, flips `CURRENT`, then deletes every
//! other generation's log — a crash at any point leaves exactly one
//! consistent generation reachable. `compact_wal_bytes` counts only
//! the operation bytes after the snapshot.
//!
//! Pinned delta bases are deliberately **not** persisted: after a
//! restart the first change of an affected window re-exports one full
//! rebasing frame and the chain continues — paying a frame of wire
//! bytes instead of snapshotting a tree per window.

use crate::relay::{Relay, RelayLedger, RelayState};
use crate::RelayError;
use flowdist::spill::{open_append, replace_file, scan_records, write_record};
use flowdist::{DistError, EpochHeader, FsyncPolicy, Lineage, Summary, SummaryKind, WindowId};
use flowkey::pack::{read_varint, write_varint};
use std::fs::{self, File};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Journal tuning.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Compact (snapshot + fresh WAL) once the operation records
    /// after the snapshot exceed this many bytes. 0 = never
    /// auto-compact.
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
    /// Slot frames restored from the snapshot's `Slot` records.
    pub snapshot_slots: usize,
    /// WAL operation records replayed (after the snapshot).
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
/// Snapshot: one stored slot as a version-3 `Full` frame.
const REC_SLOT: u8 = 8;
/// Snapshot: the relay state; the last snapshot record.
const REC_STATE: u8 = 9;

/// The append half of an attached journal (owned by the relay).
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    generation: u64,
    file: File,
    /// Operation bytes after the snapshot (what `compact_wal_bytes`
    /// bounds).
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
        let written = write_record(&mut self.file, &payload).and_then(|n| {
            if self.cfg.fsync == FsyncPolicy::Always {
                self.file.sync_all()?;
            }
            Ok(n)
        });
        match written {
            Ok(n) => self.wal_bytes += n,
            Err(e) => self.error = Some(format!("wal append: {e}")),
        }
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

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.log"))
}

/// An open-time error that names the journal file at fault.
fn bad_file(path: &Path, what: &str) -> RelayError {
    let msg = format!("{}: {what}", path.display());
    RelayError::Dist(DistError::Io(std::io::Error::new(
        ErrorKind::InvalidData,
        msg,
    )))
}

fn io_err(e: std::io::Error) -> RelayError {
    RelayError::Dist(DistError::Io(e))
}

/// The generation `CURRENT` names; 0 when there is no `CURRENT` yet.
fn read_current(dir: &Path) -> Result<u64, RelayError> {
    let path = dir.join("CURRENT");
    match fs::read_to_string(&path) {
        Ok(text) => text
            .trim()
            .parse::<u64>()
            .map_err(|_| bad_file(&path, "garbled generation pointer")),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(0),
        Err(e) => Err(io_err(e)),
    }
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
        fs::create_dir_all(dir).map_err(io_err)?;
        let generation = read_current(dir)?;
        // An older relay kept its snapshot beside the log.
        for old in [
            dir.join(format!("snap-{generation}.state")),
            dir.join(format!("snap-{generation}")),
        ] {
            if old.exists() {
                return Err(bad_file(&old, "snapshot of an older relay; drain it first"));
            }
        }
        let wpath = wal_path(dir, generation);
        let data = match fs::read(&wpath) {
            Ok(data) => data,
            Err(e) if e.kind() == ErrorKind::NotFound && !dir.join("CURRENT").exists() => {
                Vec::new()
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {
                return Err(bad_file(&wpath, "missing; CURRENT names it"))
            }
            Err(e) => return Err(io_err(e)),
        };
        let mut relay = Relay::new(cfg);
        let mut report = RecoveryReport {
            generation,
            ..RecoveryReport::default()
        };

        // One scan. Snapshot records restore the collector's slots
        // (no relay coverage checks) and then the relay state; every
        // later record replays an operation, up to the intact prefix.
        let mut in_snapshot = generation > 0;
        let (mut snapshot_end, mut good) = (0, 0);
        for (end, payload) in scan_records(&data) {
            if in_snapshot {
                match payload.split_first() {
                    Some((&REC_SLOT, frame)) => {
                        relay.collector_mut().apply_bytes(frame)?;
                        report.snapshot_slots += 1;
                    }
                    Some((&REC_STATE, state)) => {
                        let state = decode_state(state)
                            .ok_or_else(|| bad_file(&wpath, "corrupt snapshot state"))?;
                        relay.restore_state(state);
                        in_snapshot = false;
                        snapshot_end = end;
                    }
                    _ => return Err(bad_file(&wpath, "corrupt snapshot record")),
                }
            } else if replay_record(&mut relay, payload) {
                report.wal_records += 1;
            } else {
                break;
            }
            good = end;
        }
        if in_snapshot {
            return Err(bad_file(&wpath, "torn or corrupt snapshot"));
        }

        let file = open_append(&wpath, jcfg.fsync).map_err(io_err)?;
        if good < data.len() {
            report.torn_bytes = (data.len() - good) as u64;
            file.set_len(good as u64).map_err(io_err)?;
        }
        *relay.journal_mut() = Some(JournalWriter {
            dir: dir.to_path_buf(),
            generation,
            file,
            wal_bytes: (good - snapshot_end) as u64,
            cfg: jcfg,
            error: None,
        });
        Ok((relay, report))
    }
}

/// A forward reader over a record body.
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn varint(&mut self) -> Option<u64> {
        let (v, n) = read_varint(self.0).ok()?;
        self.0 = &self.0[n..];
        Some(v)
    }

    fn u16(&mut self) -> Option<u16> {
        let (head, rest) = self.0.split_first_chunk::<2>()?;
        self.0 = rest;
        Some(u16::from_be_bytes(*head))
    }

    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }
}

/// Applies one WAL operation record through the relay's normal entry
/// points (the journal is not yet attached, so nothing re-logs).
/// Returns false on a structurally invalid record — treated like a
/// torn tail.
fn replay_record(relay: &mut Relay, payload: &[u8]) -> bool {
    let Some((&kind, body)) = payload.split_first() else {
        return false;
    };
    let mut cur = Cursor(body);
    match kind {
        REC_FRAME => {
            // Applied once before the crash; outcome is deterministic.
            let _ = relay.ingest_frame(body);
        }
        REC_EXPORT_BATCH => {
            let starts = cur
                .varint()
                .and_then(|count| (0..count).map(|_| cur.varint()).collect::<Option<Vec<_>>>());
            let Some(starts) = starts else {
                return false;
            };
            relay.replay_export_batch(&starts);
        }
        REC_MARK_UNSHIPPED => match cur.varint() {
            Some(start) => relay.mark_unshipped(start),
            None => return false,
        },
        REC_EVICT => match cur.varint() {
            Some(cutoff) => {
                relay.evict_windows_before(cutoff);
            }
            None => return false,
        },
        REC_SHIPPED => match (cur.varint(), cur.varint()) {
            (Some(start), Some(epoch)) => relay.note_shipped(start, epoch),
            _ => return false,
        },
        REC_DROP_BASES => relay.drop_export_bases(),
        _ => return false,
    }
    true
}

/// Compacts the attached journal: writes the next generation's log
/// (snapshot first), flips `CURRENT`, and sweeps every other
/// generation. On error the journal is marked broken (the relay keeps
/// serving; crash-safety is void until an operator intervenes).
pub(crate) fn compact(relay: &mut Relay) {
    let Some(mut writer) = relay.journal_mut().take() else {
        return;
    };
    let next_gen = writer.generation + 1;
    match write_generation(relay, &writer.dir, next_gen, writer.cfg.fsync) {
        Ok(file) => {
            // `CURRENT` already points past every other log, so a crash
            // mid-sweep just leaves garbage the next compact removes.
            sweep_logs(&writer.dir, next_gen);
            writer.generation = next_gen;
            writer.file = file;
            writer.wal_bytes = 0;
        }
        Err(e) => writer.error = Some(format!("compaction: {e}")),
    }
    *relay.journal_mut() = Some(writer);
}

/// Writes generation `generation`'s log — one `Slot` record per stored
/// window, then the `State` record — and flips `CURRENT` to it.
/// Returns the log's append handle.
fn write_generation(
    relay: &Relay,
    dir: &Path,
    generation: u64,
    fsync: FsyncPolicy,
) -> std::io::Result<File> {
    // A leftover log of this generation (a compaction that crashed
    // before its flip) is rewritten from scratch.
    let path = wal_path(dir, generation);
    let _ = fs::remove_file(&path);
    let mut file = open_append(&path, fsync)?;
    if let Some(span) = relay.span_ms() {
        for (start, site) in relay.collector().window_keys() {
            let mut payload = vec![REC_SLOT];
            payload.extend_from_slice(&reconstruct_slot(relay, start, site, span).encode());
            write_record(&mut file, &payload)?;
        }
    }
    write_record(&mut file, &encode_state(&relay.snapshot_state()))?;
    if fsync == FsyncPolicy::Always {
        file.sync_all()?;
    }
    replace_file(
        &dir.join("CURRENT"),
        format!("{generation}\n").as_bytes(),
        fsync,
    )?;
    Ok(file)
}

/// Deletes every generation log but `keep`'s.
fn sweep_logs(dir: &Path, keep: u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let generation = name.to_str().and_then(|n| {
            n.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse::<u64>()
                .ok()
        });
        if generation.is_some_and(|g| g != keep) {
            let _ = fs::remove_file(entry.path());
        }
    }
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

/// The `State` record's payload.
fn encode_state(state: &RelayState) -> Vec<u8> {
    let mut payload = vec![REC_STATE];
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
        for v in [start, content, exported, shipped] {
            write_varint(&mut payload, v);
        }
    }
    write_varint(&mut payload, state.evicted.len() as u64);
    for &(start, epoch) in &state.evicted {
        write_varint(&mut payload, start);
        write_varint(&mut payload, epoch);
    }
    for c in ledger_counters(&state.ledger) {
        write_varint(&mut payload, c);
    }
    payload
}

/// Decodes a `State` record's body (the payload after its kind byte);
/// `None` if it is malformed.
fn decode_state(body: &[u8]) -> Option<RelayState> {
    let mut cur = Cursor(body);
    let span_ms = match cur.byte()? {
        0 => None,
        1 => Some(cur.varint()?),
        _ => return None,
    };
    let seq = cur.varint()?;
    let provenance = (0..cur.varint()?)
        .map(|_| {
            let key = cur.u16()?;
            let sites = (0..cur.varint()?)
                .map(|_| cur.u16())
                .collect::<Option<_>>()?;
            Some((key, sites))
        })
        .collect::<Option<_>>()?;
    let windows = (0..cur.varint()?)
        .map(|_| Some((cur.varint()?, cur.varint()?, cur.varint()?, cur.varint()?)))
        .collect::<Option<_>>()?;
    let evicted = (0..cur.varint()?)
        .map(|_| Some((cur.varint()?, cur.varint()?)))
        .collect::<Option<_>>()?;
    let mut counters = [0u64; 21];
    for c in &mut counters {
        *c = cur.varint()?;
    }
    if !cur.0.is_empty() {
        return None;
    }
    Some(RelayState {
        span_ms,
        seq,
        provenance,
        windows,
        evicted,
        ledger: ledger_from_counters(counters),
    })
}

fn ledger_counters(l: &RelayLedger) -> [u64; 21] {
    [
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

fn ledger_from_counters(c: [u64; 21]) -> RelayLedger {
    RelayLedger {
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
        spill_sheds: c[19],
        spill_shed_bytes: c[20],
    }
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
        drop(r2);

        // Past a snapshot the same holds: one more frame compacts into
        // generation 1, whose torn tail is truncated as before.
        let jcfg = JournalConfig {
            compact_wal_bytes: 1,
            ..JournalConfig::default()
        };
        let (mut r3, _) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        let bytes = site_summary(1, 0, 0..3, 1).encode();
        assert!(matches!(
            r3.ingest_classified(&bytes),
            FrameOutcome::Applied(_)
        ));
        drop(r3);
        assert_eq!(read_current(&dir).unwrap(), 1);
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(wal_path(&dir, 1))
            .unwrap();
        f.write_all(&[0x55; 11]).unwrap();
        drop(f);
        let (r4, report) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        assert_eq!(report.snapshot_slots, 2);
        assert_eq!(report.wal_records, 0);
        assert_eq!(report.torn_bytes, 11);
        assert_eq!(r4.collector().window_epoch(0, 1), 1);
        drop(r4);

        // A snapshot record is never a torn tail: a flipped byte in
        // the first slot frame fails the open and truncates nothing.
        let mut data = fs::read(wal_path(&dir, 1)).unwrap();
        data[12] ^= 0xFF;
        fs::write(wal_path(&dir, 1), &data).unwrap();
        let err = Relay::open_journaled(cfg(), &dir, jcfg)
            .expect_err("a corrupt snapshot fails the open");
        assert!(err.to_string().contains("wal-1.log"), "{err}");
        assert_eq!(fs::read(wal_path(&dir, 1)).unwrap(), data);
        // So does a snapshot cut short before its state record.
        data[12] ^= 0xFF;
        data.truncate(data.len() - 3);
        fs::write(wal_path(&dir, 1), &data).unwrap();
        assert!(Relay::open_journaled(cfg(), &dir, jcfg).is_err());
    }

    /// The journal directory holds `CURRENT` and one generation log.
    fn journal_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
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
        let generation = read_current(&dir).unwrap();
        assert!(generation > 2, "every append compacted");
        assert_eq!(
            journal_files(&dir),
            vec!["CURRENT".to_string(), format!("wal-{generation}.log")],
            "each compaction sweeps the generation before it"
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

    /// `compact_wal_bytes` bounds the operations after the snapshot,
    /// not the snapshot: a snapshot larger than the bound and one
    /// append after it do not compact again, before or after a reopen.
    #[test]
    fn a_snapshot_over_the_bound_does_not_compact_again() {
        let dir = tmpdir("bound");
        let frame_len = site_summary(0, 0, 0..3, 1).encode().len() as u64;
        let jcfg = JournalConfig {
            compact_wal_bytes: 4 * frame_len,
            ..JournalConfig::default()
        };
        let (mut r, _) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        let mut w = 0;
        while read_current(&dir).unwrap() == 0 {
            let _ = r.ingest_classified(&site_summary(0, w, 0..3, 1).encode());
            w += 1;
        }
        let snapshot = fs::metadata(wal_path(&dir, 1)).unwrap().len();
        assert!(snapshot > jcfg.compact_wal_bytes, "{snapshot} bytes");
        let _ = r.ingest_classified(&site_summary(0, w, 0..3, 1).encode());
        assert_eq!(
            read_current(&dir).unwrap(),
            1,
            "one append past the snapshot"
        );
        drop(r);
        let (mut r2, report) = Relay::open_journaled(cfg(), &dir, jcfg).unwrap();
        assert_eq!(report.snapshot_slots as u64, w);
        assert_eq!(report.wal_records, 1);
        let _ = r2.ingest_classified(&site_summary(0, w + 1, 0..3, 1).encode());
        assert_eq!(read_current(&dir).unwrap(), 1, "two appends after a reopen");
        assert!(r2.journal_error().is_none());
    }

    /// A `CURRENT` that is not a number fails the open instead of
    /// recovering generation 0.
    #[test]
    fn a_garbled_current_fails_the_open() {
        let dir = tmpdir("garbled");
        let (r, _) = Relay::open_journaled(cfg(), &dir, JournalConfig::default()).unwrap();
        drop(r);
        fs::write(dir.join("CURRENT"), "x7\n").unwrap();
        let err = Relay::open_journaled(cfg(), &dir, JournalConfig::default())
            .expect_err("a garbled CURRENT fails the open");
        assert!(err.to_string().contains("CURRENT"), "{err}");
    }

    /// A `CURRENT` naming a generation whose log is gone fails the
    /// open instead of starting an empty relay.
    #[test]
    fn a_current_without_its_log_fails_the_open() {
        let dir = tmpdir("nolog");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("CURRENT"), "3\n").unwrap();
        let err = Relay::open_journaled(cfg(), &dir, JournalConfig::default())
            .expect_err("a missing generation log fails the open");
        assert!(err.to_string().contains("wal-3.log"), "{err}");
    }

    /// A state dir of an older relay (its snapshot beside the log)
    /// fails the open and names the file; a generation-0 dir with only
    /// its log replays as before.
    #[test]
    fn an_old_layout_fails_the_open_naming_the_file() {
        for old in ["snap-3.state", "snap-3"] {
            let dir = tmpdir("old");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("CURRENT"), "3\n").unwrap();
            fs::write(wal_path(&dir, 3), b"").unwrap();
            if old.ends_with(".state") {
                fs::write(dir.join(old), b"state").unwrap();
            } else {
                fs::create_dir_all(dir.join(old)).unwrap();
            }
            let err = Relay::open_journaled(cfg(), &dir, JournalConfig::default())
                .expect_err("an old layout fails the open");
            assert!(err.to_string().contains(old), "{err}");
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
