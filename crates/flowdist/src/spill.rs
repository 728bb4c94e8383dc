//! Disk-backed spill queue for unacknowledged export frames, and the
//! one home of the workspace's on-disk record format.
//!
//! `relayd` used to keep pending exports in a bounded in-memory `Vec`:
//! an upstream outage longer than the buffer simply lost the chain,
//! and a crash lost everything. The spill queue makes the pending set
//! durable and the shed policy explicit:
//!
//! * Every enqueued frame is appended to an **append-only segment
//!   file** (`spill-<firstseq>.seg`) as one record before it counts as
//!   pending. A torn tail (crash mid-append) is detected by length/CRC
//!   and truncated on recovery — everything before it is intact.
//! * A tiny **ledger file** records the acked floor: the sequence
//!   number below which every frame has been acknowledged upstream.
//!   It is replaced atomically ([`replace_file`]) so recovery always
//!   sees a consistent floor. Segments entirely below the floor are
//!   deleted.
//! * Total on-disk bytes are **bounded** ([`SpillConfig::max_bytes`]);
//!   overflow sheds the *oldest* unacked frames first and accounts for
//!   every shed byte ([`SpillStats::shed_frames`]) — loss is a
//!   recorded decision, never an accident. Shed frames are returned to
//!   the caller so it can rewind the relay's export state
//!   (`mark_unshipped`) and re-export later.
//! * The **fsync policy** is a knob: [`FsyncPolicy::Always`] makes
//!   each append, each new file and each replace power-loss durable;
//!   [`FsyncPolicy::Never`] still survives `kill -9` (completed
//!   `write`s live in the page cache, which outlives the process) and
//!   is the right default for the kill-restart crash model the
//!   fault-injection suite pins.
//!
//! The in-memory front (`VecDeque`) mirrors the unacked suffix so the
//! hot path never re-reads disk; recovery rebuilds it by scanning the
//! segments from the ledger floor.
//!
//! ## Records
//!
//! A record is `[u32 LE len][u32 LE crc32][payload]`. Only
//! [`write_record`] writes one and only [`scan_records`] reads them
//! back, for spill segments and for the relay journal
//! (`flowrelay::journal`) alike.

use crate::DistError;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// When segment appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every append: durable against power loss.
    Always,
    /// No explicit sync: durable against process death (`kill -9`)
    /// but not power loss. The default — matches the crash model the
    /// recovery suite tests.
    #[default]
    Never,
}

/// Spill queue tuning.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Cap on total bytes across live segment files; overflow sheds
    /// the oldest unacked frames. 0 = unbounded.
    pub max_bytes: u64,
    /// Rotate to a new segment file once the active one reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// Fsync policy for segment appends, segment creation and ledger
    /// updates.
    pub fsync: FsyncPolicy,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            max_bytes: 256 << 20,
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Never,
        }
    }
}

/// Counters the spill queue maintains (monotonic over the queue's
/// lifetime, zeroed on construction — recovery re-counts recovered
/// frames as `recovered_frames`, not `pushed_frames`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Frames appended by [`SpillQueue::push`].
    pub pushed_frames: u64,
    /// Bytes appended (record payloads, excluding headers).
    pub pushed_bytes: u64,
    /// Frames acknowledged and released by [`SpillQueue::ack_through`].
    pub acked_frames: u64,
    /// Frames shed by the byte bound — explicit, accounted loss.
    pub shed_frames: u64,
    /// Payload bytes shed by the byte bound.
    pub shed_bytes: u64,
    /// Unacked frames recovered from disk at open.
    pub recovered_frames: u64,
    /// Trailing bytes truncated at open (torn tail after a crash).
    pub torn_bytes: u64,
    /// Disk I/O failures after which the queue dropped its disk
    /// backing and continued memory-only (see [`SpillQueue::push`]).
    pub io_errors: u64,
}

/// One queued frame: its queue sequence number and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRecord {
    /// Position in the queue's append order (strictly increasing,
    /// never reused).
    pub seq: u64,
    /// The frame bytes as handed to [`SpillQueue::push`].
    pub bytes: Vec<u8>,
}

struct Segment {
    path: PathBuf,
    /// Sequence one past the last record in the file.
    next_seq: u64,
    bytes: u64,
}

/// A durable FIFO of unacked export frames (see the module docs).
pub struct SpillQueue {
    dir: Option<PathBuf>,
    cfg: SpillConfig,
    /// Live segments, oldest first; the last one is the append target.
    segments: Vec<Segment>,
    active: Option<File>,
    /// The unacked suffix, oldest first, mirroring disk.
    pending: VecDeque<SpillRecord>,
    /// Every seq below this is acked (persisted in the ledger file).
    floor: u64,
    next_seq: u64,
    stats: SpillStats,
}

const REC_HEADER: usize = 8;

impl SpillQueue {
    /// Opens (or creates) a spill queue rooted at `dir`, recovering
    /// any unacked frames a previous process left behind. A torn tail
    /// is truncated; segments wholly below the acked floor are
    /// deleted.
    pub fn open(dir: &Path, cfg: SpillConfig) -> Result<SpillQueue, DistError> {
        fs::create_dir_all(dir).map_err(DistError::Io)?;
        let floor = read_ledger(&dir.join("ledger"))?;
        let mut q = SpillQueue {
            dir: Some(dir.to_path_buf()),
            cfg,
            segments: Vec::new(),
            active: None,
            pending: VecDeque::new(),
            floor,
            next_seq: floor,
            stats: SpillStats::default(),
        };
        q.recover()?;
        Ok(q)
    }

    /// A memory-only queue (no directory, nothing survives the
    /// process) — the fallback when no state dir is configured, with
    /// the same bounding and shed accounting.
    pub fn in_memory(cfg: SpillConfig) -> SpillQueue {
        SpillQueue {
            dir: None,
            cfg,
            segments: Vec::new(),
            active: None,
            pending: VecDeque::new(),
            floor: 0,
            next_seq: 0,
            stats: SpillStats::default(),
        }
    }

    fn recover(&mut self) -> Result<(), DistError> {
        let dir = self.dir.clone().expect("recover only on disk queues");
        let mut seg_starts: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).map_err(DistError::Io)? {
            let entry = entry.map_err(DistError::Io)?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("spill-")
                .and_then(|r| r.strip_suffix(".seg"))
            {
                if let Ok(first) = num.parse::<u64>() {
                    seg_starts.push(first);
                }
            }
        }
        seg_starts.sort_unstable();
        for first in seg_starts {
            let path = dir.join(format!("spill-{first:020}.seg"));
            let mut data = Vec::new();
            File::open(&path)
                .and_then(|mut f| f.read_to_end(&mut data))
                .map_err(DistError::Io)?;
            let records: Vec<(usize, &[u8])> = scan_records(&data).collect();
            let good_len = records.last().map_or(0, |&(end, _)| end);
            let next_seq = first + records.len() as u64;
            if next_seq <= self.floor {
                // Entirely acked: drop the file.
                fs::remove_file(&path).map_err(DistError::Io)?;
                continue;
            }
            if good_len < data.len() {
                // Torn tail from a crash mid-append: truncate to the
                // last intact record so future appends stay aligned.
                self.stats.torn_bytes += (data.len() - good_len) as u64;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(DistError::Io)?;
                f.set_len(good_len as u64).map_err(DistError::Io)?;
                if self.cfg.fsync == FsyncPolicy::Always {
                    f.sync_all().map_err(DistError::Io)?;
                }
            }
            for (i, (_, bytes)) in records.into_iter().enumerate() {
                let seq = first + i as u64;
                if seq >= self.floor {
                    self.stats.recovered_frames += 1;
                    self.pending.push_back(SpillRecord {
                        seq,
                        bytes: bytes.to_vec(),
                    });
                }
            }
            self.segments.push(Segment {
                path,
                next_seq,
                bytes: good_len as u64,
            });
            self.next_seq = self.next_seq.max(next_seq);
        }
        Ok(())
    }

    /// Appends a frame; it stays queued until acked or shed. Returns
    /// the frames shed to honor the byte bound (oldest first) so the
    /// caller can rewind their windows' export state.
    ///
    /// Disk trouble (a full or read-only volume, a yanked mount) never
    /// fails the push and never poisons the caller: the queue drops
    /// its disk backing, counts the event
    /// ([`SpillStats::io_errors`]), and continues memory-only with the
    /// same bounding and shed accounting — durability is lost, the
    /// export path is not.
    pub fn push(&mut self, bytes: Vec<u8>) -> Vec<SpillRecord> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.pushed_frames += 1;
        self.stats.pushed_bytes += bytes.len() as u64;
        if self.dir.is_some() && self.append_record(seq, &bytes).is_err() {
            self.degrade();
        }
        self.pending.push_back(SpillRecord { seq, bytes });
        self.enforce_bound()
    }

    /// Whether the queue still has a disk backing (false after
    /// [`SpillQueue::in_memory`] or an I/O degrade).
    pub fn disk_backed(&self) -> bool {
        self.dir.is_some()
    }

    /// Drops the disk backing after an I/O failure: pending frames
    /// stay queued in memory, future appends skip disk, and the event
    /// is counted. The on-disk files are left as-is — stale next to a
    /// newer ledger at worst, re-reconciled by the next clean open.
    fn degrade(&mut self) {
        self.stats.io_errors += 1;
        self.dir = None;
        self.active = None;
        self.segments.clear();
    }

    fn append_record(&mut self, seq: u64, bytes: &[u8]) -> Result<(), DistError> {
        let rec_len = (REC_HEADER + bytes.len()) as u64;
        let need_new = match self.segments.last() {
            Some(seg) => seg.bytes + rec_len > self.cfg.segment_bytes && seg.bytes > 0,
            None => true,
        };
        if need_new {
            let dir = self.dir.as_ref().expect("disk queue");
            let path = dir.join(format!("spill-{seq:020}.seg"));
            self.active = Some(open_append(&path, self.cfg.fsync).map_err(DistError::Io)?);
            self.segments.push(Segment {
                path,
                next_seq: seq,
                bytes: 0,
            });
        } else if self.active.is_none() {
            // Recovery left a tail segment with room: reopen it for
            // append instead of fragmenting into a new file.
            let seg = self.segments.last().expect("nonempty");
            self.active = Some(open_append(&seg.path, self.cfg.fsync).map_err(DistError::Io)?);
        }
        let file = self.active.as_mut().expect("active segment");
        write_record(file, bytes).map_err(DistError::Io)?;
        if self.cfg.fsync == FsyncPolicy::Always {
            file.sync_all().map_err(DistError::Io)?;
        }
        let seg = self.segments.last_mut().expect("segment just ensured");
        seg.next_seq = seq + 1;
        seg.bytes += rec_len;
        Ok(())
    }

    /// Releases every frame with `seq < upto`: they are delivered and
    /// acknowledged. Persists the new floor and deletes fully-acked
    /// segments; ledger I/O trouble degrades to memory-only (see
    /// [`SpillQueue::push`]) rather than failing the ack.
    pub fn ack_through(&mut self, upto: u64) {
        if upto <= self.floor {
            return;
        }
        while let Some(front) = self.pending.front() {
            if front.seq < upto {
                self.pending.pop_front();
                self.stats.acked_frames += 1;
            } else {
                break;
            }
        }
        self.floor = self.floor.max(upto);
        if self
            .persist_floor()
            .and_then(|()| self.drop_acked_segments())
            .is_err()
        {
            self.degrade();
        }
    }

    fn persist_floor(&mut self) -> Result<(), DistError> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(());
        };
        let floor = format!("{}\n", self.floor);
        replace_file(&dir.join("ledger"), floor.as_bytes(), self.cfg.fsync).map_err(DistError::Io)
    }

    fn drop_acked_segments(&mut self) -> Result<(), DistError> {
        if self.dir.is_none() {
            return Ok(());
        }
        // Never delete the active (last) segment: appends continue there.
        while self.segments.len() > 1 && self.segments[0].next_seq <= self.floor {
            let seg = self.segments.remove(0);
            fs::remove_file(&seg.path).map_err(DistError::Io)?;
        }
        // A lone fully-acked segment can go too once it has content.
        if self.segments.len() == 1 && self.segments[0].next_seq <= self.floor {
            let seg = self.segments.remove(0);
            fs::remove_file(&seg.path).map_err(DistError::Io)?;
            self.active = None;
        }
        Ok(())
    }

    fn enforce_bound(&mut self) -> Vec<SpillRecord> {
        let mut shed = Vec::new();
        if self.cfg.max_bytes == 0 {
            return shed;
        }
        while self.pending_bytes() > self.cfg.max_bytes && self.pending.len() > 1 {
            let rec = self.pending.pop_front().expect("nonempty");
            self.stats.shed_frames += 1;
            self.stats.shed_bytes += rec.bytes.len() as u64;
            self.floor = self.floor.max(rec.seq + 1);
            shed.push(rec);
        }
        if !shed.is_empty()
            && self
                .persist_floor()
                .and_then(|()| self.drop_acked_segments())
                .is_err()
        {
            self.degrade();
        }
        shed
    }

    /// Payload bytes currently pending (unacked).
    pub fn pending_bytes(&self) -> u64 {
        self.pending.iter().map(|r| r.bytes.len() as u64).sum()
    }

    /// Unacked frames, oldest first. The shipper resends exactly this
    /// suffix after a reconnect.
    pub fn pending(&self) -> impl Iterator<Item = &SpillRecord> {
        self.pending.iter()
    }

    /// The first unacked frame at or after `seq`, by binary search
    /// (seqs ascend: pushed at the back, released at the front).
    pub fn first_from(&self, seq: u64) -> Option<&SpillRecord> {
        self.pending
            .get(self.pending.partition_point(|r| r.seq < seq))
    }

    /// Number of unacked frames.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The sequence the next [`SpillQueue::push`] will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The acked floor: every seq below it is released.
    pub fn acked_floor(&self) -> u64 {
        self.floor
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }
}

/// Appends one `[u32 LE len][u32 LE crc32][payload]` record to `out`
/// in a single write; returns the bytes written, header included.
/// Syncing is the caller's: a file under [`FsyncPolicy::Always`]
/// calls `sync_all` after the records it must make durable.
pub fn write_record(out: &mut impl Write, payload: &[u8]) -> io::Result<u64> {
    let mut buf = Vec::with_capacity(REC_HEADER + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    out.write_all(&buf)?;
    Ok(buf.len() as u64)
}

/// Scans the records [`write_record`] wrote from the front of `data`,
/// yielding each one's payload with the byte offset just past it. The
/// scan stops at the first torn or CRC-bad record, so the last offset
/// yielded (0 if none) is the length of the intact prefix; anything
/// after it is a torn tail.
pub fn scan_records(data: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let header = data.get(pos..pos.checked_add(REC_HEADER)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let end = (pos + REC_HEADER).checked_add(len)?;
        let payload = data.get(pos + REC_HEADER..end)?;
        if crc32(payload) != crc {
            return None;
        }
        pos = end;
        Some((end, payload))
    })
}

/// Replaces `path` with `contents` atomically: the bytes go to
/// `<path>.tmp`, which is renamed over `path`, so a reader sees the
/// old file or the new one, never a mix. Under
/// [`FsyncPolicy::Always`] the file is synced before the rename and
/// its directory after it, so the replace also survives power loss.
pub fn replace_file(path: &Path, contents: &[u8], fsync: FsyncPolicy) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(contents)?;
    if fsync == FsyncPolicy::Always {
        f.sync_all()?;
    }
    drop(f);
    fs::rename(&tmp, path)?;
    if fsync == FsyncPolicy::Always {
        sync_parent(path)?;
    }
    Ok(())
}

/// Opens `path` for append, creating it if needed. Under
/// [`FsyncPolicy::Always`] its directory is synced too, so a newly
/// created file's name survives power loss.
pub fn open_append(path: &Path, fsync: FsyncPolicy) -> io::Result<File> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    if fsync == FsyncPolicy::Always {
        sync_parent(path)?;
    }
    Ok(file)
}

fn sync_parent(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

fn read_ledger(path: &Path) -> Result<u64, DistError> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(text.trim().parse::<u64>().unwrap_or(0)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(DistError::Io(e)),
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the usual zlib CRC,
/// table-driven, no dependencies.
pub fn crc32(data: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flowdist-spill-{tag}-{}",
            std::process::id() as u64
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn frame(i: u64, len: usize) -> Vec<u8> {
        let mut v = vec![(i & 0xFF) as u8; len];
        v[0] = (i >> 8) as u8;
        v
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn push_ack_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cfg = SpillConfig::default();
        {
            let mut q = SpillQueue::open(&dir, cfg.clone()).unwrap();
            for i in 0..10 {
                assert!(q.push(frame(i, 100)).is_empty());
            }
            q.ack_through(4);
            assert_eq!(q.len(), 6);
            assert_eq!(q.acked_floor(), 4);
        }
        // Reopen: the unacked suffix survives in order.
        let q = SpillQueue::open(&dir, cfg).unwrap();
        assert_eq!(q.len(), 6);
        assert_eq!(q.stats().recovered_frames, 6);
        let seqs: Vec<u64> = q.pending().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7, 8, 9]);
        let bytes: Vec<Vec<u8>> = q.pending().map(|r| r.bytes.clone()).collect();
        assert_eq!(bytes[0], frame(4, 100));
        assert_eq!(bytes[5], frame(9, 100));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let dir = tmpdir("torn");
        let cfg = SpillConfig::default();
        {
            let mut q = SpillQueue::open(&dir, cfg.clone()).unwrap();
            for i in 0..3 {
                q.push(frame(i, 64));
            }
        }
        // Corrupt: append a half-written record to the segment.
        let seg = dir.join(format!("spill-{:020}.seg", 0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x40, 0, 0, 0, 0xAA, 0xBB]).unwrap(); // len=64, torn
        drop(f);
        let q = SpillQueue::open(&dir, cfg.clone()).unwrap();
        assert_eq!(q.len(), 3, "intact records survive the torn tail");
        assert_eq!(q.stats().torn_bytes, 6);
        // And the truncation leaves the file appendable.
        let mut q = q;
        q.push(frame(3, 64));
        drop(q);
        let q = SpillQueue::open(&dir, cfg).unwrap();
        assert_eq!(q.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_crc_stops_the_scan_at_the_last_good_record() {
        let dir = tmpdir("crc");
        let cfg = SpillConfig::default();
        {
            let mut q = SpillQueue::open(&dir, cfg.clone()).unwrap();
            for i in 0..4 {
                q.push(frame(i, 32));
            }
        }
        let seg = dir.join(format!("spill-{:020}.seg", 0));
        let mut data = fs::read(&seg).unwrap();
        // Flip a payload byte in the third record.
        let rec = REC_HEADER + 32;
        data[2 * rec + REC_HEADER + 5] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        let q = SpillQueue::open(&dir, cfg).unwrap();
        assert_eq!(q.len(), 2, "records after the corruption are dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_bound_sheds_oldest_with_accounting() {
        let mut q = SpillQueue::in_memory(SpillConfig {
            max_bytes: 1_000,
            ..SpillConfig::default()
        });
        for i in 0..3 {
            assert!(q.push(frame(i, 300)).is_empty());
        }
        let shed = q.push(frame(3, 300));
        assert_eq!(shed.len(), 1, "oldest shed to fit 1000 bytes");
        assert_eq!(shed[0].seq, 0);
        let shed = q.push(frame(4, 300));
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].seq, 1);
        assert_eq!(q.stats().shed_frames, 2);
        assert_eq!(q.stats().shed_bytes, 600);
        assert_eq!(q.len(), 3);
        // An oversized single frame is never shed to nothing: the
        // newest frame always stays queued.
        let shed = q.push(frame(5, 5_000));
        assert_eq!(q.len(), 1);
        assert_eq!(shed.len(), 3);
    }

    #[test]
    fn bound_enforced_on_disk_queue_deletes_acked_segments() {
        let dir = tmpdir("bound");
        let cfg = SpillConfig {
            max_bytes: 2_000,
            segment_bytes: 500,
            fsync: FsyncPolicy::Never,
        };
        let mut q = SpillQueue::open(&dir, cfg.clone()).unwrap();
        for i in 0..12 {
            q.push(frame(i, 200));
        }
        assert!(q.pending_bytes() <= 2_000);
        assert!(q.stats().shed_frames > 0);
        // Ack everything; all but the active segment file disappear.
        q.ack_through(q.next_seq());
        assert!(q.is_empty());
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".seg")
            })
            .count();
        assert_eq!(segs, 0, "fully acked segments are deleted");
        // Floor survives reopen: nothing comes back.
        drop(q);
        let q = SpillQueue::open(&dir, cfg).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.next_seq(), 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rotation_and_multi_segment_recovery() {
        let dir = tmpdir("rotate");
        let cfg = SpillConfig {
            max_bytes: 0,
            segment_bytes: 300,
            fsync: FsyncPolicy::Always,
        };
        {
            let mut q = SpillQueue::open(&dir, cfg.clone()).unwrap();
            for i in 0..8 {
                q.push(frame(i, 100));
            }
            assert!(q.segments.len() > 1, "rotation produced segments");
        }
        let q = SpillQueue::open(&dir, cfg).unwrap();
        assert_eq!(q.len(), 8);
        let seqs: Vec<u64> = q.pending().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replayed_acks_and_backward_acks_are_no_ops() {
        let mut q = SpillQueue::in_memory(SpillConfig::default());
        for i in 0..5 {
            q.push(frame(i, 10));
        }
        q.ack_through(3);
        assert_eq!(q.len(), 2);
        q.ack_through(3);
        q.ack_through(1);
        assert_eq!(q.len(), 2, "stale acks change nothing");
        assert_eq!(q.acked_floor(), 3);
    }

    #[test]
    fn replace_file_swaps_content_and_leaves_no_temp_file() {
        let dir = tmpdir("replace");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pointer");
        for (i, fsync) in [FsyncPolicy::Always, FsyncPolicy::Never, FsyncPolicy::Always]
            .into_iter()
            .enumerate()
        {
            let text = format!("{i}\n");
            replace_file(&path, text.as_bytes(), fsync).unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), text);
            let names: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert_eq!(names, vec!["pointer".to_string()], "no .tmp left behind");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_scan_to_the_intact_prefix() {
        let mut data = Vec::new();
        for payload in [&b"one"[..], b"", b"three"] {
            write_record(&mut data, payload).unwrap();
        }
        let intact = data.len();
        write_record(&mut data, b"torn").unwrap();
        data.truncate(data.len() - 1);
        let records: Vec<(usize, &[u8])> = scan_records(&data).collect();
        let payloads: Vec<&[u8]> = records.iter().map(|&(_, p)| p).collect();
        assert_eq!(payloads, vec![&b"one"[..], b"", b"three"]);
        assert_eq!(records.last().unwrap().0, intact);
        // A flipped payload byte stops the scan before that record.
        data[REC_HEADER + 1] ^= 0xFF;
        assert_eq!(scan_records(&data).count(), 0);
    }

    // The degrade tests force I/O errors by planting a *directory*
    // where the queue will create its next file (EISDIR) — a read-only
    // mode bit would not do: the suite may run as root, which
    // bypasses permission checks entirely.

    #[test]
    fn segment_write_failure_degrades_to_memory_not_poison() {
        let dir = tmpdir("degrade-seg");
        let mut q = SpillQueue::open(&dir, SpillConfig::default()).unwrap();
        assert!(q.disk_backed());
        // The first push would create spill-<0>.seg; make that path a
        // directory so the open fails.
        fs::create_dir_all(dir.join(format!("spill-{:020}.seg", 0))).unwrap();
        let shed = q.push(frame(0, 100));
        assert!(shed.is_empty());
        assert!(!q.disk_backed(), "disk backing dropped");
        assert_eq!(q.stats().io_errors, 1);
        assert_eq!(q.len(), 1, "the frame still queues in memory");
        // The queue keeps working memory-only; no second error count.
        q.push(frame(1, 100));
        q.ack_through(1);
        assert_eq!(q.stats().io_errors, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pending().next().unwrap().seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_write_failure_degrades_to_memory_not_poison() {
        let dir = tmpdir("degrade-ledger");
        let mut q = SpillQueue::open(&dir, SpillConfig::default()).unwrap();
        q.push(frame(0, 100));
        q.push(frame(1, 100));
        assert_eq!(q.stats().io_errors, 0, "appends were healthy");
        // persist_floor creates ledger.tmp; make that path a directory.
        fs::create_dir_all(dir.join("ledger.tmp")).unwrap();
        q.ack_through(1);
        assert!(!q.disk_backed());
        assert_eq!(q.stats().io_errors, 1);
        assert_eq!(q.stats().acked_frames, 1, "the ack itself landed");
        assert_eq!(q.len(), 1);
        assert_eq!(q.acked_floor(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
