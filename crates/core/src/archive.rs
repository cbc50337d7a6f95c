//! Pluggable archive backends for the delta logger.
//!
//! The paper's §5 logging design (delta encoding + redundancy
//! elimination) produces a stream of [`LogRecord`]s per router. Where
//! that stream lives is this module's concern:
//!
//! * [`MemoryBackend`] — the original in-process `Vec<LogRecord>`;
//!   archives serialise byte-identically to the pre-backend `TableLog`.
//! * [`FileBackendV2`] — the writer: an append-only on-disk archive with
//!   a versioned header (magic, format version, interner epoch) followed
//!   by length-prefixed, CRC-checked frames. Full-snapshot records double
//!   as *checkpoints*: replay can start at the last one instead of the
//!   beginning, and a crash that truncates the tail recovers to the last
//!   intact record instead of refusing the archive.
//! * [`ArchiveReader`] — the read-only backend: the same scan without
//!   healing, safe against a live writer. It is also the only way
//!   version-1 archives are opened: v1 is read-only, kept so old files
//!   still `load`, `archive info|replay` and compact into v2.
//!
//! Every opener shares one frame reader (`read_frame`), one scan loop
//! (`Index::scan`) and one record iterator (`Records`).
//!
//! The [`crate::logger::TableLog`] owns one backend behind the
//! [`ArchiveBackend`] trait and never materialises more than one
//! snapshot while replaying (see [`crate::logger::ReplayIter`]).
//!
//! ## On-disk format (version 1, read-only)
//!
//! ```text
//! header  (24 bytes):  magic  b"MANTRARC"          [0..8)
//!                      format version  u16 LE = 1  [8..10)
//!                      flags           u16 LE = 0  [10..12)
//!                      interner epoch  u32 LE = 0  [12..16)
//!                      reserved        u64 LE = 0  [16..24)
//! record  (9 + n):     kind   u8  (0 = Full, 1 = Delta)
//!                      len    u32 LE (payload bytes)
//!                      crc    u32 LE (CRC-32/IEEE of the payload)
//!                      payload: the LogRecord as serde_json UTF-8
//! ```
//!
//! Version-1 archives always carry interner epoch 0. Recovery rule:
//! records are scanned from the header; the first frame that is
//! incomplete, has an unknown kind, or fails its CRC ends the archive.
//! This build writes no v1 archive, so opening one never writes either.
//!
//! ## On-disk format (version 2)
//!
//! Version 2 ([`FileBackendV2`]) keeps the 24-byte header (format
//! version 2, interner epoch ≥ 1) and the 9-byte frame shape, but the
//! payloads change from JSON to an id-keyed binary encoding:
//!
//! ```text
//! frame   (9 + n):     kind   u8  (0 = Full, 1 = Delta, 2 = Dict)
//!                      len    u32 LE (payload bytes)
//!                      crc    u32 LE (CRC-32/IEEE of kind ‖ payload)
//!                      payload (binary, LEB128 varints)
//! ```
//!
//! Strings, addresses, groups and prefixes are interned into an
//! archive-local [`ArchiveDict`] (built on [`crate::store::Interner`],
//! ids dense and first-seen ordered); record payloads carry the u32 ids.
//! Whenever an append interns new keys, the new dictionary entries are
//! persisted *before* the record in a kind-2 dictionary segment, so the
//! archive is always self-describing — replay never needs the live
//! `TableStore`. Each segment is stamped with the archive's interner
//! epoch and the per-table id watermark it extends; a segment whose
//! epoch or watermark does not match the reader's state ends the
//! archive (compaction bumps the epoch precisely so stale v2 payloads
//! can never be resolved against the wrong dictionary). Record payloads
//! begin with a varint sequence number checked against the record
//! index, so spliced, duplicated or dropped frames are detected even
//! when their CRCs are individually intact. The v2 CRC also covers the
//! frame's kind byte, so a Full/Delta flip cannot survive validation.
//! Recovery matches v1: the first bad frame ends the archive, and the
//! writer (only the writer) truncates the file there.

use std::collections::VecDeque;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};

use crate::logger::{LogRecord, ReplayIter, SnapshotParts, TableDelta};
use crate::store::Interner;
use crate::tables::{LearnedFrom, PairRow, RouteRow, SessionRow};

/// The archive file magic.
pub const MAGIC: [u8; 8] = *b"MANTRARC";
/// The original JSON-payload on-disk format version (read-only).
pub const FORMAT_VERSION: u16 = 1;
/// The id-keyed binary on-disk format version.
pub const FORMAT_VERSION_V2: u16 = 2;
/// Header length in bytes.
pub const HEADER_LEN: u64 = 24;
/// Record frame header length (kind + len + crc).
const FRAME_LEN: u64 = 9;
/// Frame kinds shared by both formats; `KIND_DICT` is v2-only.
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;
const KIND_DICT: u8 = 2;

// ---------------------------------------------------------------------
// CRC-32 (IEEE), table-driven
// ---------------------------------------------------------------------

const fn make_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = make_crc_table();

fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The v2 frame CRC: covers the kind byte as well as the payload, so a
/// bit flip that turns a Delta frame into a Full frame (or vice versa)
/// fails validation instead of silently re-basing replay.
fn crc32_v2(kind: u8, payload: &[u8]) -> u32 {
    crc32_update(crc32_update(0xFFFF_FFFF, &[kind]), payload) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Backend trait
// ---------------------------------------------------------------------

/// Accumulated accounting for one archive.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Records archived.
    pub records: u64,
    /// Full-snapshot records (replay entry points / checkpoints).
    pub checkpoints: u64,
    /// Archived bytes: frames (dictionary segments included) for file
    /// archives, serialised payloads for [`MemoryBackend`].
    pub bytes: u64,
    /// `fsync` calls issued (always 0 for the memory backend).
    pub fsyncs: u64,
    /// Bytes of truncated/corrupt tail past the last intact frame:
    /// cut off when the writer opened the archive (crash recovery), or
    /// skipped by an [`ArchiveReader`] at its last scan.
    pub recovered_bytes: u64,
    /// Appends accepted since the last `fsync` — the records a power
    /// loss right now could cost. Always 0 for the memory backend
    /// (nothing is durable either way) and immediately after a sync.
    /// For a [`ThreadedBackend`] this also counts records still queued
    /// for the writer thread: they are exposure exactly like unsynced
    /// frames.
    pub pending_appends: u64,
    /// Appends the backend itself failed to persist (failed frame
    /// writes, failed torn-tail heals, appends refused by a read-only
    /// [`ArchiveReader`]). The logger-level
    /// [`crate::logger::TableLog::write_errors`] counts the errors *it*
    /// observed; this counts them where they happened, which for a
    /// threaded writer includes failures the logger only learns about a
    /// cycle later.
    pub write_errors: u64,
    /// Records currently queued for a writer thread (buffered plus
    /// in-flight). Always 0 for synchronous backends.
    pub queue_depth: u64,
    /// The deepest the writer queue has ever been (buffered plus
    /// in-flight). Always 0 for synchronous backends.
    pub queue_high_water: u64,
    /// Wall-clock nanoseconds the *collection path* spent blocked on a
    /// full writer queue ([`BackpressureMode::Block`]).
    pub blocked_nanos: u64,
    /// Records dropped instead of written: shed on a full queue
    /// ([`BackpressureMode::Shed`]) or skipped by the writer thread to
    /// keep the delta chain replayable after an append failure.
    pub dropped_records: u64,
}

/// Identity of an archive's on-disk format, from [`ArchiveBackend::describe`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveInfo {
    /// MANTRARC format version; 0 for in-memory (no on-disk format).
    pub format_version: u16,
    /// The interner epoch stamped in the header (v2; v1 writes 0).
    /// Compaction bumps it so stale id-keyed payloads cannot be
    /// resolved against the rewritten dictionary.
    pub epoch: u32,
    /// Entries in the embedded dictionary (v2 only).
    pub dict_entries: u64,
}

/// When a file backend issues `fsync`. Checkpoints mark replay entry
/// points, so syncing there bounds loss to one delta chain; the record
/// and byte cadences trade durability for throughput on high-router-count
/// deployments where per-append syncing would serialise the fleet on the
/// disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncPolicy {
    /// Sync whenever a full-snapshot (checkpoint) record is appended.
    pub on_checkpoint: bool,
    /// Also sync after this many appends since the last sync (0 = off).
    pub every_records: usize,
    /// Also sync once this many bytes accumulate since the last sync
    /// (0 = off).
    pub every_bytes: u64,
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy {
            on_checkpoint: true,
            every_records: 0,
            every_bytes: 0,
        }
    }
}

impl SyncPolicy {
    /// A record-cadence policy (checkpoints still sync).
    pub fn every_records(n: usize) -> Self {
        SyncPolicy {
            every_records: n,
            ..SyncPolicy::default()
        }
    }

    fn due(&self, checkpoint: bool, since_records: u64, since_bytes: u64) -> bool {
        (checkpoint && self.on_checkpoint)
            || (self.every_records > 0 && since_records >= self.every_records as u64)
            || (self.every_bytes > 0 && since_bytes >= self.every_bytes)
    }
}

/// A streaming record iterator borrowed from a backend.
pub type RecordIter<'a> = Box<dyn Iterator<Item = io::Result<LogRecord>> + 'a>;

/// Where a [`crate::logger::TableLog`]'s records live.
///
/// `append` receives both the record and its serde_json rendering — the
/// logger already serialises every candidate record to pick the smaller
/// representation, so backends reuse that work instead of re-encoding,
/// and the two backends archive identical payload bytes by construction.
pub trait ArchiveBackend: fmt::Debug + Send {
    /// Backend name for metrics ("memory", "file").
    fn kind(&self) -> &'static str;

    /// Appends one record; `json` is its serialised payload.
    fn append(&mut self, rec: &LogRecord, json: &str) -> io::Result<()>;

    /// Records archived.
    fn len(&self) -> usize;

    /// True when nothing has been archived.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams every record from the start.
    fn records(&self) -> RecordIter<'_> {
        self.records_from(0)
    }

    /// Streams records starting at index `start`.
    fn records_from(&self, start: usize) -> RecordIter<'_>;

    /// Index of the last full-snapshot record, if any — the cheapest
    /// replay entry point for tail access.
    fn last_checkpoint(&self) -> Option<usize>;

    /// Accounting snapshot.
    fn stats(&self) -> ArchiveStats;

    /// Format identity (version/epoch/dictionary size). The default
    /// covers backends with no on-disk format (memory).
    fn describe(&self) -> ArchiveInfo {
        ArchiveInfo::default()
    }

    /// Forces durability (no-op for memory).
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// MemoryBackend
// ---------------------------------------------------------------------

/// The original in-process archive: a `Vec` of records.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    records: Vec<LogRecord>,
    last_checkpoint: Option<usize>,
    stats: ArchiveStats,
}

impl ArchiveBackend for MemoryBackend {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn append(&mut self, rec: &LogRecord, json: &str) -> io::Result<()> {
        if matches!(rec, LogRecord::Full(_)) {
            self.last_checkpoint = Some(self.records.len());
            self.stats.checkpoints += 1;
        }
        self.stats.records += 1;
        self.stats.bytes += json.len() as u64;
        self.records.push(rec.clone());
        Ok(())
    }

    fn len(&self) -> usize {
        self.records.len()
    }

    fn records_from(&self, start: usize) -> RecordIter<'_> {
        let start = start.min(self.records.len());
        Box::new(self.records[start..].iter().map(|r| Ok(r.clone())))
    }

    fn last_checkpoint(&self) -> Option<usize> {
        self.last_checkpoint
    }

    fn stats(&self) -> ArchiveStats {
        self.stats.clone()
    }
}

// ---------------------------------------------------------------------
// Headers and frames
// ---------------------------------------------------------------------

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Why an append through an [`ArchiveReader`] fails: v1 archives are
/// read-only in this build, v2 archives are read-only through a reader.
fn read_only_error(version: u16) -> io::Error {
    let msg = if version == FORMAT_VERSION {
        "MANTRARC v1 archives are read-only: rewrite this one as v2 with \
         `mantra archive compact --path FILE --out NEW` and append to NEW"
    } else {
        "archive opened read-only (ArchiveReader): appends are not allowed"
    };
    io::Error::new(io::ErrorKind::PermissionDenied, msg)
}

/// The error an unsupported (future) format version produces — raised by
/// whatever opens the archive, never silently degraded to legacy-JSONL
/// sniffing.
pub fn unsupported_version(version: u16) -> io::Error {
    bad_data(format!(
        "MANTRARC archive with unsupported format version {version}; this \
         build reads versions {FORMAT_VERSION} and {FORMAT_VERSION_V2} \
         (is the archive from a newer build?)"
    ))
}

/// Reads and validates an archive header's magic, returning
/// `(format_version, interner_epoch)` for the caller to dispatch on.
pub fn read_header(r: &mut impl Read) -> io::Result<(u16, u32)> {
    let mut header = [0u8; HEADER_LEN as usize];
    r.read_exact(&mut header)
        .map_err(|_| bad_data("archive too short for a MANTRARC header".into()))?;
    if header[0..8] != MAGIC {
        return Err(bad_data(format!(
            "unrecognised archive header {:?}: expected magic {:?} (MANTRARC)",
            &header[0..8],
            MAGIC
        )));
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    let epoch = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    Ok((version, epoch))
}

fn write_header(w: &mut impl Write, version: u16, epoch: u32) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN as usize];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&version.to_le_bytes());
    // flags and the reserved word are zero in both versions.
    header[12..16].copy_from_slice(&epoch.to_le_bytes());
    w.write_all(&header)
}

/// One v2 frame: header, then payload.
fn frame_bytes(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_LEN as usize + payload.len());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32_v2(kind, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads the frame that starts at byte `pos` (where `r` is positioned)
/// into `payload` and returns its kind and end offset. This is the one
/// frame reader every scan and every record read goes through: it fails
/// on a header cut short, a kind `version` does not define, a frame that
/// would run past `end` (so a corrupt length never drives a read or an
/// allocation beyond the archive) and a CRC mismatch.
fn read_frame(
    r: &mut impl Read,
    version: u16,
    pos: u64,
    end: u64,
    payload: &mut Vec<u8>,
) -> io::Result<(u8, u64)> {
    let mut frame = [0u8; FRAME_LEN as usize];
    r.read_exact(&mut frame)?;
    let kind = frame[0];
    let len = u64::from(u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]));
    let crc = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
    let v1 = version == FORMAT_VERSION;
    if kind > if v1 { KIND_DELTA } else { KIND_DICT } {
        return Err(bad_data(format!("unknown frame kind {kind} at byte {pos}")));
    }
    let next = pos + FRAME_LEN + len;
    if next > end {
        return Err(bad_data(format!(
            "frame at byte {pos} runs past the archive's logical end {end}"
        )));
    }
    payload.clear();
    payload.resize(len as usize, 0);
    r.read_exact(payload)?;
    let actual = if v1 {
        crc32(payload)
    } else {
        crc32_v2(kind, payload)
    };
    if actual != crc {
        return Err(bad_data(format!("frame at byte {pos} fails its CRC")));
    }
    Ok((kind, next))
}

// ---------------------------------------------------------------------
// MANTRARC v2: varint primitives
// ---------------------------------------------------------------------

fn put_uv(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// A bounds-checked cursor over one untrusted payload. Every read can
/// fail cleanly — decode paths must never panic, whatever the bytes.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> io::Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| bad_data("payload truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad_data("payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn uv(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = u64::from(b & 0x7F);
            if shift == 63 && low > 1 {
                break; // would overflow u64
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(bad_data("varint overflows u64".into()))
    }

    fn uv32(&mut self) -> io::Result<u32> {
        u32::try_from(self.uv()?).map_err(|_| bad_data("varint overflows u32".into()))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn expect_done(&self) -> io::Result<()> {
        if self.done() {
            Ok(())
        } else {
            Err(bad_data("trailing bytes after payload".into()))
        }
    }
}

// ---------------------------------------------------------------------
// MANTRARC v2: the embedded dictionary
// ---------------------------------------------------------------------

/// The archive-local interning dictionary for one v2 archive: router
/// names and session names, host addresses, group addresses and route
/// prefixes, each with dense first-seen-ordered u32 ids (the same
/// [`Interner`] the live [`crate::store::TableStore`] uses — but owned by
/// the archive, so replaying needs nothing but the file).
///
/// The writer persists new entries incrementally: whenever an append
/// interns keys the archive has not seen, a kind-2 dictionary segment
/// carrying exactly `keys()[watermark..]` is framed ahead of the record.
/// Readers rebuild the dictionary by applying segments in file order,
/// validating that each segment's epoch matches the header and that its
/// per-table base equals the current table length.
#[derive(Clone, Debug, Default)]
pub struct ArchiveDict {
    /// The archive's interner epoch (also stamped in the file header and
    /// in every segment). Compaction writes a fresh dictionary under a
    /// bumped epoch.
    pub epoch: u32,
    strings: Interner<String>,
    ips: Interner<Ip>,
    groups: Interner<GroupAddr>,
    prefixes: Interner<Prefix>,
}

/// Per-table id watermarks: entries below these are already on disk.
type DictMark = [usize; 4];

impl ArchiveDict {
    fn with_epoch(epoch: u32) -> Self {
        ArchiveDict {
            epoch,
            ..ArchiveDict::default()
        }
    }

    /// Total interned entries across all tables.
    pub fn len(&self) -> usize {
        self.strings.len() + self.ips.len() + self.groups.len() + self.prefixes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn watermark(&self) -> DictMark {
        [
            self.strings.len(),
            self.ips.len(),
            self.groups.len(),
            self.prefixes.len(),
        ]
    }

    /// Encodes the entries interned since `since` as one dictionary
    /// segment payload, or `None` when there are none.
    fn encode_new_entries(&self, since: DictMark) -> Option<Vec<u8>> {
        if self.watermark() == since {
            return None;
        }
        let [s, i, g, p] = since;
        let mut out = Vec::new();
        put_uv(&mut out, u64::from(self.epoch));
        let strings = &self.strings.keys()[s..];
        put_uv(&mut out, s as u64);
        put_uv(&mut out, strings.len() as u64);
        for st in strings {
            put_uv(&mut out, st.len() as u64);
            out.extend_from_slice(st.as_bytes());
        }
        let ips = &self.ips.keys()[i..];
        put_uv(&mut out, i as u64);
        put_uv(&mut out, ips.len() as u64);
        for ip in ips {
            put_uv(&mut out, u64::from(ip.0));
        }
        let groups = &self.groups.keys()[g..];
        put_uv(&mut out, g as u64);
        put_uv(&mut out, groups.len() as u64);
        for gr in groups {
            put_uv(&mut out, u64::from(gr.ip().0));
        }
        let prefixes = &self.prefixes.keys()[p..];
        put_uv(&mut out, p as u64);
        put_uv(&mut out, prefixes.len() as u64);
        for pf in prefixes {
            put_uv(&mut out, u64::from(pf.network().0));
            out.push(pf.len());
        }
        Some(out)
    }

    /// Applies one dictionary segment, validating its epoch stamp and
    /// that each table extends exactly from its current length.
    fn apply_segment(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut c = Cur::new(payload);
        let epoch = c.uv32()?;
        if epoch != self.epoch {
            return Err(bad_data(format!(
                "dictionary segment epoch {epoch} does not match archive epoch {}",
                self.epoch
            )));
        }
        fn check_base<K: Eq + std::hash::Hash + Clone>(
            interner: &Interner<K>,
            base: u64,
        ) -> io::Result<()> {
            if base != interner.len() as u64 {
                return Err(bad_data(format!(
                    "dictionary segment base {base} does not extend table of {}",
                    interner.len()
                )));
            }
            Ok(())
        }
        fn fresh<K: Eq + std::hash::Hash + Clone>(
            interner: &mut Interner<K>,
            key: &K,
        ) -> io::Result<()> {
            let expect = interner.len() as u32;
            if interner.intern(key) != expect {
                return Err(bad_data("duplicate dictionary entry".into()));
            }
            Ok(())
        }
        check_base(&self.strings, c.uv()?)?;
        for _ in 0..c.uv()? {
            let len = c.uv()? as usize;
            let s = std::str::from_utf8(c.bytes(len)?)
                .map_err(|e| bad_data(format!("dictionary string is not UTF-8: {e}")))?;
            fresh(&mut self.strings, &s.to_string())?;
        }
        check_base(&self.ips, c.uv()?)?;
        for _ in 0..c.uv()? {
            fresh(&mut self.ips, &Ip(c.uv32()?))?;
        }
        check_base(&self.groups, c.uv()?)?;
        for _ in 0..c.uv()? {
            let g = GroupAddr::new(Ip(c.uv32()?))
                .map_err(|e| bad_data(format!("dictionary group is not multicast: {e:?}")))?;
            fresh(&mut self.groups, &g)?;
        }
        check_base(&self.prefixes, c.uv()?)?;
        for _ in 0..c.uv()? {
            let net = Ip(c.uv32()?);
            let len = c.u8()?;
            let p = Prefix::new(net, len)
                .map_err(|e| bad_data(format!("dictionary prefix invalid: {e:?}")))?;
            fresh(&mut self.prefixes, &p)?;
        }
        c.expect_done()
    }

    fn str_at(&self, id: u32) -> io::Result<&String> {
        self.strings
            .keys()
            .get(id as usize)
            .ok_or_else(|| bad_data(format!("string id {id} not in dictionary")))
    }

    fn ip_at(&self, id: u32) -> io::Result<Ip> {
        self.ips
            .keys()
            .get(id as usize)
            .copied()
            .ok_or_else(|| bad_data(format!("address id {id} not in dictionary")))
    }

    fn group_at(&self, id: u32) -> io::Result<GroupAddr> {
        self.groups
            .keys()
            .get(id as usize)
            .copied()
            .ok_or_else(|| bad_data(format!("group id {id} not in dictionary")))
    }

    fn prefix_at(&self, id: u32) -> io::Result<Prefix> {
        self.prefixes
            .keys()
            .get(id as usize)
            .copied()
            .ok_or_else(|| bad_data(format!("prefix id {id} not in dictionary")))
    }
}

// ---------------------------------------------------------------------
// MANTRARC v2: record codec
// ---------------------------------------------------------------------

fn lf_code(lf: LearnedFrom) -> u8 {
    match lf {
        LearnedFrom::Dvmrp => 0,
        LearnedFrom::Pim => 1,
        LearnedFrom::Msdp => 2,
        LearnedFrom::Mbgp => 3,
        LearnedFrom::Igmp => 4,
    }
}

fn lf_from(code: u8) -> io::Result<LearnedFrom> {
    Ok(match code {
        0 => LearnedFrom::Dvmrp,
        1 => LearnedFrom::Pim,
        2 => LearnedFrom::Msdp,
        3 => LearnedFrom::Mbgp,
        4 => LearnedFrom::Igmp,
        c => return Err(bad_data(format!("unknown protocol code {c}"))),
    })
}

const PAIR_FORWARDING: u8 = 0x80;
const ROUTE_NEXT_HOP: u8 = 0x20;
const ROUTE_UPTIME: u8 = 0x40;
const ROUTE_REACHABLE: u8 = 0x80;
const SESSION_NAMED: u8 = 0x80;
const LF_MASK: u8 = 0x07;

fn flags_lf(flags: u8, allowed: u8) -> io::Result<LearnedFrom> {
    if flags & !(LF_MASK | allowed) != 0 {
        return Err(bad_data(format!("unknown flag bits 0x{flags:02x}")));
    }
    lf_from(flags & LF_MASK)
}

fn enc_pair(out: &mut Vec<u8>, d: &mut ArchiveDict, p: &PairRow) {
    put_uv(out, u64::from(d.ips.intern(&p.source)));
    put_uv(out, u64::from(d.groups.intern(&p.group)));
    put_uv(out, p.current_bw.bps());
    put_uv(out, p.avg_bw.bps());
    out.push(lf_code(p.learned_from) | if p.forwarding { PAIR_FORWARDING } else { 0 });
}

fn dec_pair(c: &mut Cur, d: &ArchiveDict) -> io::Result<PairRow> {
    let source = d.ip_at(c.uv32()?)?;
    let group = d.group_at(c.uv32()?)?;
    let current_bw = BitRate::from_bps(c.uv()?);
    let avg_bw = BitRate::from_bps(c.uv()?);
    let flags = c.u8()?;
    Ok(PairRow {
        source,
        group,
        current_bw,
        avg_bw,
        forwarding: flags & PAIR_FORWARDING != 0,
        learned_from: flags_lf(flags, PAIR_FORWARDING)?,
    })
}

fn enc_route(out: &mut Vec<u8>, d: &mut ArchiveDict, r: &RouteRow) {
    let mut flags = lf_code(r.learned_from);
    if r.next_hop.is_some() {
        flags |= ROUTE_NEXT_HOP;
    }
    if r.uptime.is_some() {
        flags |= ROUTE_UPTIME;
    }
    if r.reachable {
        flags |= ROUTE_REACHABLE;
    }
    put_uv(out, u64::from(d.prefixes.intern(&r.prefix)));
    out.push(flags);
    if let Some(nh) = r.next_hop {
        put_uv(out, u64::from(d.ips.intern(&nh)));
    }
    put_uv(out, u64::from(r.metric));
    if let Some(up) = r.uptime {
        put_uv(out, up.as_secs());
    }
}

fn dec_route(c: &mut Cur, d: &ArchiveDict) -> io::Result<RouteRow> {
    let prefix = d.prefix_at(c.uv32()?)?;
    let flags = c.u8()?;
    let learned_from = flags_lf(flags, ROUTE_NEXT_HOP | ROUTE_UPTIME | ROUTE_REACHABLE)?;
    let next_hop = if flags & ROUTE_NEXT_HOP != 0 {
        Some(d.ip_at(c.uv32()?)?)
    } else {
        None
    };
    let metric = c.uv32()?;
    let uptime = if flags & ROUTE_UPTIME != 0 {
        Some(SimDuration::secs(c.uv()?))
    } else {
        None
    };
    Ok(RouteRow {
        prefix,
        next_hop,
        metric,
        uptime,
        reachable: flags & ROUTE_REACHABLE != 0,
        learned_from,
    })
}

fn enc_session(out: &mut Vec<u8>, d: &mut ArchiveDict, s: &SessionRow) {
    let mut flags = lf_code(s.first_advertised);
    if s.name.is_some() {
        flags |= SESSION_NAMED;
    }
    put_uv(out, u64::from(d.groups.intern(&s.group)));
    out.push(flags);
    if let Some(name) = &s.name {
        put_uv(out, u64::from(d.strings.intern(name)));
    }
    put_uv(out, u64::from(s.density));
    put_uv(out, s.bandwidth.bps());
    put_uv(out, s.first_seen.as_secs());
}

fn dec_session(c: &mut Cur, d: &ArchiveDict) -> io::Result<SessionRow> {
    let group = d.group_at(c.uv32()?)?;
    let flags = c.u8()?;
    let first_advertised = flags_lf(flags, SESSION_NAMED)?;
    let name = if flags & SESSION_NAMED != 0 {
        Some(d.str_at(c.uv32()?)?.clone())
    } else {
        None
    };
    Ok(SessionRow {
        group,
        name,
        density: c.uv32()?,
        bandwidth: BitRate::from_bps(c.uv()?),
        first_advertised,
        first_seen: SimTime(c.uv()?),
    })
}

fn enc_sa(out: &mut Vec<u8>, d: &mut ArchiveDict, (g, s, at): &(GroupAddr, Ip, SimTime)) {
    put_uv(out, u64::from(d.groups.intern(g)));
    put_uv(out, u64::from(d.ips.intern(s)));
    put_uv(out, at.as_secs());
}

fn dec_sa(c: &mut Cur, d: &ArchiveDict) -> io::Result<(GroupAddr, Ip, SimTime)> {
    Ok((
        d.group_at(c.uv32()?)?,
        d.ip_at(c.uv32()?)?,
        SimTime(c.uv()?),
    ))
}

fn enc_section<T>(
    out: &mut Vec<u8>,
    d: &mut ArchiveDict,
    items: &[T],
    enc: impl Fn(&mut Vec<u8>, &mut ArchiveDict, &T),
) {
    put_uv(out, items.len() as u64);
    for item in items {
        enc(out, d, item);
    }
}

fn dec_section<T>(
    c: &mut Cur,
    d: &ArchiveDict,
    dec: impl Fn(&mut Cur, &ArchiveDict) -> io::Result<T>,
) -> io::Result<Vec<T>> {
    let n = c.uv()?;
    // No `with_capacity(n)`: a corrupt count must not drive allocation;
    // the cursor runs out of bytes long before a hostile count completes.
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(dec(c, d)?);
    }
    Ok(out)
}

/// Encodes one record as its v2 payload, interning keys into `dict`.
/// `seq` is the record's index in the archive, embedded (and CRC'd) so
/// readers can detect spliced or duplicated frames.
fn encode_record_v2(rec: &LogRecord, dict: &mut ArchiveDict, seq: u64) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    put_uv(&mut out, seq);
    match rec {
        LogRecord::Full(p) => {
            put_uv(&mut out, p.captured_at.as_secs());
            put_uv(&mut out, u64::from(dict.strings.intern(&p.router)));
            enc_section(&mut out, dict, &p.pairs, enc_pair);
            enc_section(&mut out, dict, &p.routes, enc_route);
            enc_section(&mut out, dict, &p.sa_cache, enc_sa);
            enc_section(&mut out, dict, &p.member_only_sessions, enc_session);
            (KIND_FULL, out)
        }
        LogRecord::Delta(del) => {
            put_uv(&mut out, del.captured_at.as_secs());
            enc_section(&mut out, dict, &del.pair_upserts, enc_pair);
            enc_section(&mut out, dict, &del.pair_removals, |o, d, (g, s)| {
                put_uv(o, u64::from(d.groups.intern(g)));
                put_uv(o, u64::from(d.ips.intern(s)));
            });
            enc_section(&mut out, dict, &del.route_upserts, enc_route);
            enc_section(&mut out, dict, &del.route_removals, |o, d, (lf, p)| {
                o.push(lf_code(*lf));
                put_uv(o, u64::from(d.prefixes.intern(p)));
            });
            enc_section(&mut out, dict, &del.sa_upserts, enc_sa);
            enc_section(&mut out, dict, &del.sa_removals, |o, d, (g, s)| {
                put_uv(o, u64::from(d.groups.intern(g)));
                put_uv(o, u64::from(d.ips.intern(s)));
            });
            enc_section(&mut out, dict, &del.session_upserts, enc_session);
            enc_section(&mut out, dict, &del.session_removals, |o, d, g| {
                put_uv(o, u64::from(d.groups.intern(g)));
            });
            (KIND_DELTA, out)
        }
    }
}

/// Checks a record's embedded sequence number against its index.
fn check_seq(seq: u64, expect: u64) -> io::Result<()> {
    if seq != expect {
        return Err(bad_data(format!(
            "record sequence {seq} where {expect} was expected \
             (spliced or duplicated frame)"
        )));
    }
    Ok(())
}

/// Decodes one v2 record payload, validating its embedded sequence
/// number against `expect_seq`.
fn decode_record_v2(
    kind: u8,
    payload: &[u8],
    dict: &ArchiveDict,
    expect_seq: u64,
) -> io::Result<LogRecord> {
    let mut c = Cur::new(payload);
    check_seq(c.uv()?, expect_seq)?;
    let rec = match kind {
        KIND_FULL => LogRecord::Full(SnapshotParts {
            captured_at: SimTime(c.uv()?),
            router: dict.str_at(c.uv32()?)?.clone(),
            pairs: dec_section(&mut c, dict, dec_pair)?,
            routes: dec_section(&mut c, dict, dec_route)?,
            sa_cache: dec_section(&mut c, dict, dec_sa)?,
            member_only_sessions: dec_section(&mut c, dict, dec_session)?,
            // Provenance is the file, not construction: let the first
            // use re-verify sortedness, exactly like the JSON decoder.
            presorted: false,
        }),
        KIND_DELTA => LogRecord::Delta(TableDelta {
            captured_at: SimTime(c.uv()?),
            pair_upserts: dec_section(&mut c, dict, dec_pair)?,
            pair_removals: dec_section(&mut c, dict, |c, d| {
                Ok((d.group_at(c.uv32()?)?, d.ip_at(c.uv32()?)?))
            })?,
            route_upserts: dec_section(&mut c, dict, dec_route)?,
            route_removals: dec_section(&mut c, dict, |c, d| {
                Ok((lf_from(c.u8()?)?, d.prefix_at(c.uv32()?)?))
            })?,
            sa_upserts: dec_section(&mut c, dict, dec_sa)?,
            sa_removals: dec_section(&mut c, dict, |c, d| {
                Ok((d.group_at(c.uv32()?)?, d.ip_at(c.uv32()?)?))
            })?,
            session_upserts: dec_section(&mut c, dict, dec_session)?,
            session_removals: dec_section(&mut c, dict, |c, d| d.group_at(c.uv32()?))?,
        }),
        k => return Err(bad_data(format!("unknown record kind {k}"))),
    };
    c.expect_done()?;
    Ok(rec)
}

/// Decodes one v1 record payload: the record as serde_json UTF-8.
fn decode_record_v1(payload: &[u8]) -> io::Result<LogRecord> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| bad_data(format!("record payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| bad_data(format!("bad record payload: {e}")))
}

// ---------------------------------------------------------------------
// The scanned index and the record iterator
// ---------------------------------------------------------------------

/// What a scan of one `.marc` file knows: every intact frame from the
/// header up to the logical end. The writer and [`ArchiveReader`] both
/// build it through [`Index::scan`]; the writer then extends it on every
/// append.
#[derive(Debug)]
struct Index {
    /// Format version from the header (1 or 2).
    version: u16,
    /// The embedded dictionary, interner epoch included (empty in v1).
    dict: ArchiveDict,
    /// Byte offset of each record frame, or of the dictionary frame that
    /// rides ahead of it, plus the end of the last record as a final
    /// sentinel.
    offsets: Vec<u64>,
    /// Record indices of the Full (checkpoint) records.
    checkpoints: Vec<usize>,
    /// `captured_at` of each record, in record order.
    times: Vec<SimTime>,
    /// Logical end: one past the last intact frame. A dictionary frame
    /// whose record was torn counts; its entries are just unreferenced.
    end: u64,
}

impl Index {
    fn new(version: u16, epoch: u32) -> Index {
        Index {
            version,
            dict: ArchiveDict::with_epoch(epoch),
            offsets: vec![HEADER_LEN],
            checkpoints: Vec::new(),
            times: Vec::new(),
            end: HEADER_LEN,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Reads `file`'s header and returns the file's length, first
    /// starting the index over if the file is no longer the one indexed:
    /// another version or epoch (compaction rewrites both), or shorter
    /// than the logical end.
    fn check_header(&mut self, file: &mut File) -> io::Result<u64> {
        let file_len = file.metadata()?.len();
        let (version, epoch) = read_header(file)?;
        if version != FORMAT_VERSION && version != FORMAT_VERSION_V2 {
            return Err(unsupported_version(version));
        }
        if (version, epoch) != (self.version, self.dict.epoch) || file_len < self.end {
            *self = Index::new(version, epoch);
        }
        Ok(file_len)
    }

    /// Extends the index over the intact frames between the logical end
    /// and `file_len`. The first frame that is torn, corrupt, out of
    /// sequence or stamped for another dictionary ends the scan, and so
    /// does `file_len`: the result is a consistent prefix even while a
    /// writer keeps appending past it. The scan never writes.
    fn scan(&mut self, file: &mut File, file_len: u64) -> io::Result<()> {
        file.seek(SeekFrom::Start(self.end))?;
        let mut r = BufReader::new(file);
        let mut payload = Vec::new();
        while let Ok((kind, next)) =
            read_frame(&mut r, self.version, self.end, file_len, &mut payload)
        {
            if kind == KIND_DICT {
                if self.dict.apply_segment(&payload).is_err() {
                    break; // stale epoch / out-of-order segment
                }
                self.end = next;
                continue;
            }
            match self.record_time(&payload) {
                Ok(at) => self.push(kind == KIND_FULL, at, next),
                Err(_) => break, // spliced/duplicated frame
            }
        }
        Ok(())
    }

    /// `captured_at` of the record after the last indexed one, from its
    /// payload. Both v2 record kinds lead with `seq, captured_at`
    /// varints, so this checks the sequence number without decoding the
    /// body; v1 payloads are JSON and are decoded whole.
    fn record_time(&self, payload: &[u8]) -> io::Result<SimTime> {
        if self.version == FORMAT_VERSION {
            return Ok(decode_record_v1(payload)?.captured_at());
        }
        let mut c = Cur::new(payload);
        check_seq(c.uv()?, self.len() as u64)?;
        Ok(SimTime(c.uv()?))
    }

    /// Indexes one record frame ending at `end`.
    fn push(&mut self, full: bool, at: SimTime, end: u64) {
        if full {
            self.checkpoints.push(self.len());
        }
        self.times.push(at);
        self.offsets.push(end);
        self.end = end;
    }

    /// Streams up to `count` decoded records from record `start` of the
    /// file at `path`.
    fn records<'a>(&'a self, path: &'a Path, start: usize, count: usize) -> RecordIter<'a> {
        let start = start.min(self.len());
        Box::new(Records {
            index: self,
            path,
            reader: None,
            payload: Vec::new(),
            pos: self.offsets[start],
            next: start,
            stop: start + count.min(self.len() - start),
        })
    }

    /// `base` with the record, checkpoint and byte counts of the index.
    fn stats(&self, base: ArchiveStats) -> ArchiveStats {
        ArchiveStats {
            records: self.len() as u64,
            checkpoints: self.checkpoints.len() as u64,
            bytes: self.end - HEADER_LEN,
            ..base
        }
    }

    fn describe(&self) -> ArchiveInfo {
        ArchiveInfo {
            format_version: self.version,
            epoch: self.dict.epoch,
            dict_entries: self.dict.len() as u64,
        }
    }
}

/// The one record iterator behind every file-backed archive: decodes the
/// records of an [`Index`]'s prefix, checking each frame again on the
/// way. Dictionary frames are checked and skipped — the index's
/// dictionary already holds every entry up to the logical end, and
/// within an epoch the dictionary only grows, so an early record decodes
/// the same against it. The file is opened on the first read and the
/// iterator fuses on the first error.
struct Records<'a> {
    index: &'a Index,
    path: &'a Path,
    reader: Option<BufReader<File>>,
    payload: Vec<u8>,
    /// Byte offset of the next frame.
    pos: u64,
    /// Index of the next record, and the index to stop at.
    next: usize,
    stop: usize,
}

impl Records<'_> {
    fn read_one(&mut self) -> io::Result<LogRecord> {
        let reader = match &mut self.reader {
            Some(reader) => reader,
            slot @ None => {
                let mut file = File::open(self.path)?;
                file.seek(SeekFrom::Start(self.pos))?;
                slot.insert(BufReader::new(file))
            }
        };
        let Index {
            version, dict, end, ..
        } = self.index;
        loop {
            let (kind, next) = read_frame(reader, *version, self.pos, *end, &mut self.payload)?;
            self.pos = next;
            if kind == KIND_DICT {
                continue;
            }
            return if *version == FORMAT_VERSION {
                decode_record_v1(&self.payload)
            } else {
                decode_record_v2(kind, &self.payload, dict, self.next as u64)
            };
        }
    }
}

impl Iterator for Records<'_> {
    type Item = io::Result<LogRecord>;

    fn next(&mut self) -> Option<io::Result<LogRecord>> {
        if self.next >= self.stop {
            return None;
        }
        let rec = self.read_one();
        self.next = if rec.is_ok() {
            self.next + 1
        } else {
            self.stop
        };
        Some(rec)
    }
}

// ---------------------------------------------------------------------
// FileBackendV2: the writer
// ---------------------------------------------------------------------

/// The id-keyed v2 on-disk archive writer (see the module docs for the
/// format): append-only frames, CRC validation and torn-tail truncation
/// on open, with record payloads binary-encoded against an embedded
/// [`ArchiveDict`].
#[derive(Debug)]
pub struct FileBackendV2 {
    path: PathBuf,
    file: File,
    index: Index,
    /// Dictionary entries already persisted in segments.
    persisted: DictMark,
    /// The counters the index does not hold: fsyncs, recovered bytes,
    /// pending appends and write errors.
    stats: ArchiveStats,
    /// When this backend fsyncs.
    pub sync: SyncPolicy,
    bytes_since_sync: u64,
    /// A frame write failed mid-way: bytes past the logical end may be
    /// on disk. The next append or sync re-truncates to the logical end
    /// before doing anything else, so a transient failure never corrupts
    /// the stream or silently drops the records written after it.
    torn: bool,
    /// Fault injection: the next append writes only this many bytes,
    /// then fails (see [`FileBackendV2::inject_torn_write`]).
    fail_next: Option<usize>,
}

impl FileBackendV2 {
    /// Creates a fresh v2 archive at `path` (epoch 1), truncating any
    /// existing file.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<FileBackendV2> {
        Self::create_with_epoch(path, 1)
    }

    /// Creates a fresh v2 archive under a caller-chosen interner epoch —
    /// compaction writes the rewrite under `source epoch + 1` so records
    /// from the old archive can never be resolved against the new
    /// dictionary.
    pub fn create_with_epoch(path: impl Into<PathBuf>, epoch: u32) -> io::Result<FileBackendV2> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        write_header(&mut file, FORMAT_VERSION_V2, epoch)?;
        file.sync_all()?;
        let stats = ArchiveStats {
            fsyncs: 1,
            ..ArchiveStats::default()
        };
        Ok(Self::with_index(
            path,
            file,
            Index::new(FORMAT_VERSION_V2, epoch),
            stats,
        ))
    }

    /// Opens an existing v2 archive for append, creating it if absent.
    ///
    /// This is [`ArchiveReader`]'s scan plus healing: the first bad frame
    /// ends the archive and the file is truncated there, so appends
    /// continue from a valid state ([`ArchiveStats::recovered_bytes`]).
    /// A v1 archive is refused: v1 is read-only.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FileBackendV2> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path);
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut index = Index::new(0, 0);
        let file_len = index.check_header(&mut file)?;
        if index.version != FORMAT_VERSION_V2 {
            return Err(read_only_error(index.version));
        }
        index.scan(&mut file, file_len)?;
        let recovered = file_len - index.end;
        if recovered > 0 {
            file.set_len(index.end)?;
            file.sync_all()?;
        }
        let stats = ArchiveStats {
            fsyncs: u64::from(recovered > 0),
            recovered_bytes: recovered,
            ..ArchiveStats::default()
        };
        Ok(Self::with_index(path, file, index, stats))
    }

    fn with_index(path: PathBuf, file: File, index: Index, stats: ArchiveStats) -> Self {
        FileBackendV2 {
            path,
            file,
            persisted: index.dict.watermark(),
            index,
            stats,
            sync: SyncPolicy::default(),
            bytes_since_sync: 0,
            torn: false,
            fail_next: None,
        }
    }

    /// The archive's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offsets of every record frame plus the end-of-archive
    /// sentinel. A record's dictionary frame sits ahead of it, at the
    /// record's own offset, so consecutive offsets bound whole appends.
    pub fn offsets(&self) -> &[u64] {
        &self.index.offsets
    }

    /// Fault injection for tests: the next `append` writes only
    /// `partial` bytes of its combined dict+record buffer, then fails
    /// as a torn write.
    #[doc(hidden)]
    pub fn inject_torn_write(&mut self, partial: usize) {
        self.fail_next = Some(partial);
    }

    /// Cuts a torn tail back to the logical end.
    fn heal(&mut self) -> io::Result<()> {
        if self.torn {
            self.file.set_len(self.index.end)?;
            self.torn = false;
        }
        Ok(())
    }

    /// Frames `rec`, behind a dictionary segment when it interned new
    /// keys, and writes both at the logical end. Returns the bytes
    /// written.
    fn write_record(&mut self, rec: &LogRecord) -> io::Result<u64> {
        self.heal()?;
        let seq = self.index.len() as u64;
        let (kind, payload) = encode_record_v2(rec, &mut self.index.dict, seq);
        // `persisted` only advances after the write succeeds, so entries
        // lost to a torn frame are re-emitted with the next record.
        let mut buf = match self.index.dict.encode_new_entries(self.persisted) {
            Some(seg) => frame_bytes(KIND_DICT, &seg),
            None => Vec::new(),
        };
        buf.extend_from_slice(&frame_bytes(kind, &payload));
        // A failed earlier write leaves the cursor wherever the OS
        // stopped; re-seek so a retried append lands at the logical end.
        self.file.seek(SeekFrom::Start(self.index.end))?;
        if let Some(partial) = self.fail_next.take() {
            let partial = partial.min(buf.len());
            let _ = self.file.write_all(&buf[..partial]);
            self.torn = partial > 0;
            return Err(io::Error::other("injected write failure (torn frame)"));
        }
        if let Err(e) = self.file.write_all(&buf) {
            self.torn = true;
            return Err(e);
        }
        Ok(buf.len() as u64)
    }
}

impl ArchiveBackend for FileBackendV2 {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn append(&mut self, rec: &LogRecord, _json: &str) -> io::Result<()> {
        let written = self
            .write_record(rec)
            .inspect_err(|_| self.stats.write_errors += 1)?;
        self.persisted = self.index.dict.watermark();
        let checkpoint = matches!(rec, LogRecord::Full(_));
        let end = self.index.end + written;
        self.index.push(checkpoint, rec.captured_at(), end);
        self.stats.pending_appends += 1;
        self.bytes_since_sync += written;
        if self.sync.due(
            checkpoint,
            self.stats.pending_appends,
            self.bytes_since_sync,
        ) {
            self.sync()?;
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn records_from(&self, start: usize) -> RecordIter<'_> {
        self.index.records(&self.path, start, usize::MAX)
    }

    fn last_checkpoint(&self) -> Option<usize> {
        self.index.checkpoints.last().copied()
    }

    fn stats(&self) -> ArchiveStats {
        self.index.stats(self.stats.clone())
    }

    fn describe(&self) -> ArchiveInfo {
        self.index.describe()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.heal().inspect_err(|_| self.stats.write_errors += 1)?;
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.stats.pending_appends = 0;
        self.bytes_since_sync = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// ThreadedBackend: per-router writer thread with bounded backpressure
// ---------------------------------------------------------------------

/// What an append does when the writer queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressureMode {
    /// Wait for the writer to free a slot; the wait is accounted in
    /// [`ArchiveStats::blocked_nanos`]. Collection slows but no record
    /// is ever lost. The default.
    #[default]
    Block,
    /// Fail the append immediately ([`ArchiveStats::dropped_records`]).
    /// Collection keeps its cadence; the logger records the error and
    /// health reports `archive_degraded` — loss is loud, never silent.
    Shed,
}

/// Configuration for a [`ThreadedBackend`] writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriterConfig {
    /// Maximum records outstanding (queued plus in-flight) before
    /// backpressure applies.
    pub capacity: usize,
    /// What a full queue does to the appender.
    pub mode: BackpressureMode,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig {
            capacity: 64,
            mode: BackpressureMode::Block,
        }
    }
}

/// std mutexes poison on panic; the writer protocol has no partially-
/// updated invariants worth preserving across one, so clear it —
/// matching the vendored parking_lot semantics used elsewhere.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn wait_clean<'a, T>(c: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    c.wait(g).unwrap_or_else(|p| p.into_inner())
}

/// The bounded queue between the collection path and the writer thread.
#[derive(Debug)]
struct WriterQueue {
    buf: VecDeque<(LogRecord, String)>,
    /// Records drained from `buf` that the writer is currently applying.
    /// They still count against capacity and `queue_depth`.
    in_flight: usize,
    shutdown: bool,
    /// A writer-side failure waiting to be reported: surfaced by the
    /// *next* `append` (or `sync`), since the append that queued the
    /// failing record already returned `Ok`.
    deferred_error: Option<String>,
}

/// Snapshot of the inner backend's observable state, refreshed by the
/// writer thread after each batch so `stats()`/`describe()` never block
/// behind a slow disk.
#[derive(Debug)]
struct WriterMirror {
    stats: ArchiveStats,
    info: ArchiveInfo,
}

#[derive(Debug)]
struct WriterShared {
    q: Mutex<WriterQueue>,
    /// Signalled when capacity frees up (blocking appenders wait here).
    not_full: Condvar,
    /// Signalled when records are queued or shutdown is requested.
    not_empty: Condvar,
    /// Signalled when the queue is fully drained (barriers wait here).
    idle: Condvar,
    backend: Mutex<Box<dyn ArchiveBackend>>,
    mirror: Mutex<WriterMirror>,
    high_water: AtomicU64,
    blocked_nanos: AtomicU64,
    dropped: AtomicU64,
    /// Append failures the writer observed. The inner backend may also
    /// count them in its own stats ([`ArchiveStats::write_errors`]);
    /// `stats()` reports the max of the two so backends that predate the
    /// field still surface their failures.
    write_errors: AtomicU64,
}

/// Wraps any [`ArchiveBackend`] behind a dedicated writer thread and a
/// bounded queue: `append` on the collection path becomes an enqueue,
/// and frame writes plus fsync batching happen off-path.
///
/// Ordering and content are preserved — the queue drains FIFO into the
/// inner backend, so after a drain barrier the archive is byte-identical
/// to what the inner backend would have produced synchronously. Reads
/// (`len`, `records`, `last_checkpoint`, `sync`) drain first and are
/// therefore barriers; `stats`/`describe` read a writer-maintained
/// mirror and never block behind the disk.
///
/// When an apply fails inside the writer, the error is *deferred*: the
/// next `append`/`sync` returns it (the logger then counts it and
/// forces a full snapshot). Until the next Full record arrives, queued
/// Deltas are skipped and counted in
/// [`ArchiveStats::dropped_records`] — they would replay against a base
/// the archive never stored, so dropping them keeps the stream a valid,
/// replayable prefix-plus-resume rather than a corrupt chain.
pub struct ThreadedBackend {
    shared: Arc<WriterShared>,
    cfg: WriterConfig,
    kind: &'static str,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ThreadedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedBackend")
            .field("kind", &self.kind)
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl ThreadedBackend {
    /// Moves `inner` onto a new writer thread behind a bounded queue.
    pub fn spawn(inner: Box<dyn ArchiveBackend>, cfg: WriterConfig) -> ThreadedBackend {
        let kind = match inner.kind() {
            "memory" => "memory+writer",
            "file" => "file+writer",
            "failing" => "failing+writer",
            _ => "threaded",
        };
        let mirror = WriterMirror {
            stats: inner.stats(),
            info: inner.describe(),
        };
        let shared = Arc::new(WriterShared {
            q: Mutex::new(WriterQueue {
                buf: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
                deferred_error: None,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            idle: Condvar::new(),
            backend: Mutex::new(inner),
            mirror: Mutex::new(mirror),
            high_water: AtomicU64::new(0),
            blocked_nanos: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("mantra-archive-writer".into())
            .spawn(move || Self::writer_loop(&worker))
            .expect("spawn archive writer thread");
        ThreadedBackend {
            shared,
            cfg: WriterConfig {
                capacity: cfg.capacity.max(1),
                mode: cfg.mode,
            },
            kind,
            handle: Some(handle),
        }
    }

    fn writer_loop(shared: &WriterShared) {
        // After a failed apply the archive is missing that record; any
        // queued Delta would replay against the wrong base, so skip (and
        // count) Deltas until the logger's forced Full re-anchors the
        // chain.
        let mut skipping = false;
        loop {
            let batch: Vec<(LogRecord, String)> = {
                let mut q = lock_clean(&shared.q);
                while q.buf.is_empty() && !q.shutdown {
                    q = wait_clean(&shared.not_empty, q);
                }
                if q.buf.is_empty() {
                    return; // shutdown with everything drained
                }
                let batch: Vec<_> = q.buf.drain(..).collect();
                q.in_flight = batch.len();
                batch
            };
            let mut backend = lock_clean(&shared.backend);
            for (rec, json) in &batch {
                if skipping {
                    if matches!(rec, LogRecord::Full(_)) {
                        skipping = false;
                    } else {
                        shared.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                if let Err(e) = backend.append(rec, json) {
                    shared.write_errors.fetch_add(1, Ordering::Relaxed);
                    skipping = true;
                    let mut q = lock_clean(&shared.q);
                    q.deferred_error = Some(e.to_string());
                }
            }
            {
                let mut m = lock_clean(&shared.mirror);
                m.stats = backend.stats();
                m.info = backend.describe();
            }
            drop(backend);
            let mut q = lock_clean(&shared.q);
            q.in_flight = 0;
            shared.not_full.notify_all();
            if q.buf.is_empty() {
                shared.idle.notify_all();
            }
        }
    }

    /// Blocks until every queued record has been applied to the inner
    /// backend — the drain barrier behind reads, `sync` and shutdown.
    fn drain(&self) {
        let mut q = lock_clean(&self.shared.q);
        while !q.buf.is_empty() || q.in_flight > 0 {
            q = wait_clean(&self.shared.idle, q);
        }
    }

    /// Runs `f` against the (drained, quiescent) inner backend and
    /// refreshes the stats mirror afterwards.
    fn with_drained<R>(&self, f: impl FnOnce(&mut dyn ArchiveBackend) -> R) -> R {
        self.drain();
        let mut backend = lock_clean(&self.shared.backend);
        let out = f(backend.as_mut());
        let mut m = lock_clean(&self.shared.mirror);
        m.stats = backend.stats();
        m.info = backend.describe();
        out
    }

    /// Records shed or skipped so far (exposed for tests and tooling).
    pub fn dropped_records(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Wall-clock nanoseconds appends spent blocked on a full queue.
    pub fn blocked_nanos(&self) -> u64 {
        self.shared.blocked_nanos.load(Ordering::Relaxed)
    }
}

impl ArchiveBackend for ThreadedBackend {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn append(&mut self, rec: &LogRecord, json: &str) -> io::Result<()> {
        let shared = &self.shared;
        let mut q = lock_clean(&shared.q);
        if let Some(msg) = q.deferred_error.take() {
            // Report the writer-side failure where the logger can see
            // it. This record is not enqueued — the logger treats the
            // Err as "not persisted" and forces the next record Full,
            // which re-anchors the delta chain.
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other(format!("archive writer: {msg}")));
        }
        while q.buf.len() + q.in_flight >= self.cfg.capacity {
            match self.cfg.mode {
                BackpressureMode::Shed => {
                    shared.dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::other(format!(
                        "archive writer queue full ({} records); record shed",
                        self.cfg.capacity
                    )));
                }
                BackpressureMode::Block => {
                    let start = Instant::now();
                    q = wait_clean(&shared.not_full, q);
                    shared
                        .blocked_nanos
                        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }
        }
        q.buf.push_back((rec.clone(), json.to_owned()));
        let depth = (q.buf.len() + q.in_flight) as u64;
        shared.high_water.fetch_max(depth, Ordering::Relaxed);
        drop(q);
        shared.not_empty.notify_one();
        Ok(())
    }

    fn len(&self) -> usize {
        self.with_drained(|b| b.len())
    }

    fn records_from(&self, start: usize) -> RecordIter<'_> {
        // Drain, then materialise under the backend lock: the iterator
        // must not hold the lock (or borrow the backend) while the
        // caller consumes it.
        let items: Vec<io::Result<LogRecord>> =
            self.with_drained(|b| b.records_from(start).collect());
        Box::new(items.into_iter())
    }

    fn last_checkpoint(&self) -> Option<usize> {
        self.with_drained(|b| b.last_checkpoint())
    }

    fn stats(&self) -> ArchiveStats {
        // Non-draining: the mirror (refreshed after every batch) plus a
        // live queue overlay. Monitoring must never stall behind a slow
        // disk — that is the point of the writer thread.
        let mut stats = lock_clean(&self.shared.mirror).stats.clone();
        let q = lock_clean(&self.shared.q);
        let depth = (q.buf.len() + q.in_flight) as u64;
        drop(q);
        stats.queue_depth = depth;
        stats.queue_high_water = self.shared.high_water.load(Ordering::Relaxed);
        stats.blocked_nanos = self.shared.blocked_nanos.load(Ordering::Relaxed);
        stats.dropped_records = self.shared.dropped.load(Ordering::Relaxed);
        stats.write_errors = stats
            .write_errors
            .max(self.shared.write_errors.load(Ordering::Relaxed));
        // Queued records are not on disk, let alone synced: they are
        // power-loss exposure and count as pending.
        stats.pending_appends += depth;
        stats
    }

    fn describe(&self) -> ArchiveInfo {
        lock_clean(&self.shared.mirror).info
    }

    fn sync(&mut self) -> io::Result<()> {
        let r = self.with_drained(|b| b.sync());
        let deferred = lock_clean(&self.shared.q).deferred_error.take();
        match deferred {
            Some(msg) => Err(io::Error::other(format!("archive writer: {msg}"))),
            None => r,
        }
    }
}

impl Drop for ThreadedBackend {
    fn drop(&mut self) {
        {
            let mut q = lock_clean(&self.shared.q);
            q.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        if let Some(handle) = self.handle.take() {
            // The writer drains everything still queued before exiting,
            // so dropping the backend is a durability barrier, not a
            // data loss event.
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------

/// How a monitor's per-router archives should be stored.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum ArchiveSpec {
    /// In-process `Vec` archives (the original behaviour).
    #[default]
    Memory,
    /// On-disk archives (MANTRARC v2), one `<router>.marc` file per
    /// router.
    File {
        /// Directory holding the archive files (created on demand).
        dir: PathBuf,
        /// When the backends fsync (checkpoints, record cadence, byte
        /// cadence).
        sync: SyncPolicy,
    },
    /// On-disk archives behind a per-router writer thread
    /// ([`ThreadedBackend`]): `append` on the collection path becomes a
    /// bounded enqueue and frame writes + fsync batching happen
    /// off-path.
    Threaded {
        /// Directory holding the archive files (created on demand).
        dir: PathBuf,
        /// When the backends fsync (checkpoints, record cadence, byte
        /// cadence) — applied by the writer thread, off-path.
        sync: SyncPolicy,
        /// Queue capacity and full-queue policy.
        writer: WriterConfig,
    },
}

impl ArchiveSpec {
    /// The archive file path for one router under this spec (file
    /// backends only). Router names are sanitised into file names.
    pub fn path_for(dir: &Path, router: &str) -> PathBuf {
        let safe: String = router
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        dir.join(format!("{safe}.marc"))
    }
}

// ---------------------------------------------------------------------
// ArchiveReader: the read-only backend
// ---------------------------------------------------------------------

/// A read-only view of a `.marc` archive that tolerates a concurrent
/// writer: the writer's scan without the healing.
///
/// On open (and on every [`ArchiveReader::refresh`]) it snapshots the
/// *logical end*: the last intact frame at or before the file length
/// observed at the start of the scan. Everything before that point is
/// immutable — the format is append-only and every v2 record payload
/// embeds its sequence number, so a frame that validates at index `i`
/// can only ever be record `i` — which makes replaying the snapshot
/// prefix consistent even while the writer keeps appending past it. A
/// torn tail (usually the writer's in-flight frame) simply ends the
/// prefix and is counted in [`ArchiveStats::recovered_bytes`]; the next
/// refresh picks the frame up once it completes. The file is never
/// written, and no state is shared with the owning backend: the reader
/// works entirely from the bytes on disk.
///
/// As an [`ArchiveBackend`] it serves `mantra archive info|replay`,
/// [`crate::logger::TableLog::load_read_only`] and every v1 archive:
/// appends fail and are counted in [`ArchiveStats::write_errors`]. The
/// scan also indexes `captured_at` per record and the checkpoint
/// positions, which is what time-travel queries
/// ([`ArchiveReader::records_at_or_before`]) read.
#[derive(Debug)]
pub struct ArchiveReader {
    path: PathBuf,
    index: Index,
    /// Bytes past the logical end at the last scan, and appends refused.
    stats: ArchiveStats,
}

impl ArchiveReader {
    /// Opens `path` read-only and scans its intact prefix.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<ArchiveReader> {
        let mut rd = ArchiveReader {
            path: path.into(),
            // Version 0 matches no header: the first refresh scans from
            // the start.
            index: Index::new(0, 0),
            stats: ArchiveStats::default(),
        };
        rd.refresh()?;
        Ok(rd)
    }

    /// Re-snapshots the logical end, scanning only the bytes appended
    /// since the last refresh. Returns how many new records became
    /// visible. If the archive was rewritten underneath (the interner
    /// epoch changed, or the file shrank — compaction does both), the
    /// reader starts over from the header.
    pub fn refresh(&mut self) -> io::Result<usize> {
        let mut file = File::open(&self.path)?;
        let file_len = self.index.check_header(&mut file)?;
        let before = self.index.len();
        self.index.scan(&mut file, file_len)?;
        self.stats.recovered_bytes = file_len - self.index.end;
        Ok(self.index.len() - before)
    }

    /// The archive's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The archive's interner epoch (changes when the file is rewritten
    /// by compaction — cache keys include it for exactly that reason).
    pub fn epoch(&self) -> u32 {
        self.index.dict.epoch
    }

    /// Records in the current snapshot prefix.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the snapshot prefix holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `captured_at` of every record in the snapshot, in record order.
    pub fn times(&self) -> &[SimTime] {
        &self.index.times
    }

    /// How many leading records were captured at or before `at`.
    /// Capture times are non-decreasing in record order, so this is the
    /// prefix length a time-travel query replays.
    pub fn records_at_or_before(&self, at: SimTime) -> usize {
        self.index.times.partition_point(|t| *t <= at)
    }

    /// Replays the first `count` records into full table snapshots —
    /// `count` capped to the snapshot prefix. The daemon's time-travel
    /// endpoint replays `records_at_or_before(at)` records.
    pub fn replay_prefix(&self, count: usize) -> ReplayIter<'_> {
        ReplayIter::new(self.index.records(&self.path, 0, count))
    }

    /// Replays every record in the snapshot prefix.
    pub fn replay(&self) -> ReplayIter<'_> {
        self.replay_prefix(self.len())
    }

    /// The deterministic [`replay_summary_line`] for the first `count`
    /// records — the unit daemon `/replay` responses are built from,
    /// byte-identical to `mantra archive replay` over the same prefix.
    pub fn summary_lines(&self, count: usize) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        for (i, t) in self.replay_prefix(count).enumerate() {
            lines.push(replay_summary_line(i, &t?));
        }
        Ok(lines)
    }
}

impl ArchiveBackend for ArchiveReader {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn append(&mut self, _rec: &LogRecord, _json: &str) -> io::Result<()> {
        self.stats.write_errors += 1;
        Err(read_only_error(self.index.version))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn records_from(&self, start: usize) -> RecordIter<'_> {
        self.index.records(&self.path, start, usize::MAX)
    }

    fn last_checkpoint(&self) -> Option<usize> {
        self.index.checkpoints.last().copied()
    }

    fn stats(&self) -> ArchiveStats {
        self.index.stats(self.stats.clone())
    }

    fn describe(&self) -> ArchiveInfo {
        self.index.describe()
    }
}

// ---------------------------------------------------------------------
// QueryCache: LRU over replay query results
// ---------------------------------------------------------------------

/// Key identifying one cached replay result: the archive path, the
/// interner epoch it was read under, and the replayed record range.
///
/// The key carries invalidation with it: a seq advance (new records)
/// changes the range a fresh query computes, and compaction changes the
/// epoch — either way the stale entry stops being addressed and ages
/// out of the LRU.
pub type QueryKey = (PathBuf, u32, (usize, usize));

/// Hit/miss/eviction accounting for a [`QueryCache`], surfaced through
/// `mantra health` and the HTML report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to replay the archive.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Folds another cache's counters into this one (fleet aggregation).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.entries += other.entries;
    }
}

/// A small LRU over replay query results, shared between the daemon's
/// HTTP workers. Entries are `Arc`ed so a hit is a clone, not a copy of
/// the replayed lines.
#[derive(Debug, Default)]
pub struct QueryCache {
    inner: Mutex<CacheInner>,
}

#[derive(Debug)]
struct CacheInner {
    /// Most-recently-used last; linear scans are fine at this capacity.
    entries: VecDeque<(QueryKey, Arc<Vec<String>>)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for CacheInner {
    fn default() -> Self {
        CacheInner {
            entries: VecDeque::new(),
            capacity: QueryCache::DEFAULT_CAPACITY,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl QueryCache {
    /// Default entry bound — replay results are a few KB each, so this
    /// keeps the cache well under a MB while covering a dashboard's
    /// worth of distinct queries.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache bounded to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(CacheInner {
                capacity: capacity.max(1),
                ..CacheInner::default()
            }),
        }
    }

    /// Looks up `key`, or computes, caches and returns the result.
    pub fn get_or_try_insert(
        &self,
        key: QueryKey,
        compute: impl FnOnce() -> io::Result<Vec<String>>,
    ) -> io::Result<Arc<Vec<String>>> {
        {
            let mut inner = lock_clean(&self.inner);
            if let Some(i) = inner.entries.iter().position(|(k, _)| *k == key) {
                let hit = inner.entries.remove(i).expect("position just found");
                let val = hit.1.clone();
                inner.entries.push_back(hit);
                inner.hits += 1;
                return Ok(val);
            }
            inner.misses += 1;
        }
        // Replay outside the lock: a slow archive scan must not block
        // other workers' cache hits.
        let val = Arc::new(compute()?);
        let mut inner = lock_clean(&self.inner);
        if !inner.entries.iter().any(|(k, _)| *k == key) {
            if inner.entries.len() >= inner.capacity {
                inner.entries.pop_front();
                inner.evictions += 1;
            }
            inner.entries.push_back((key, val.clone()));
        }
        Ok(val)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_clean(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len() as u64,
        }
    }
}

/// One deterministic line summarising a replayed snapshot — the unit the
/// `mantra archive replay` golden tests diff against.
pub fn replay_summary_line(index: usize, t: &crate::tables::Tables) -> String {
    format!(
        "{index:>4} {} {} sessions={} participants={} pairs={} routes={} sa={}",
        t.captured_at.iso8601(),
        t.router,
        t.sessions.len(),
        t.participants.len(),
        t.pairs.len(),
        t.routes.len(),
        t.sa_cache.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::{SnapshotParts, TableDelta};

    fn full_record(n: u64) -> (LogRecord, String) {
        let parts = SnapshotParts {
            captured_at: mantra_net::SimTime(n),
            router: "fixw".into(),
            ..SnapshotParts::default()
        };
        let rec = LogRecord::Full(parts);
        let json = serde_json::to_string(&rec).unwrap();
        (rec, json)
    }

    fn delta_record(n: u64) -> (LogRecord, String) {
        let rec = LogRecord::Delta(TableDelta {
            captured_at: mantra_net::SimTime(n),
            ..TableDelta::default()
        });
        let json = serde_json::to_string(&rec).unwrap();
        (rec, json)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mantra-archive-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupt_payload_ends_the_archive_at_the_last_valid_record() {
        let path = tmp("corrupt.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        for (rec, json) in [full_record(0), delta_record(1), delta_record(2)] {
            be.append(&rec, &json).unwrap();
        }
        let offsets = be.offsets().to_vec();
        drop(be);
        // Flip the last payload byte of record 1's batch.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offsets[2] as usize - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rd = ArchiveReader::open(&path).unwrap();
        assert_eq!(rd.len(), 1, "records after the corruption are dropped");
        assert_eq!(rd.stats().recovered_bytes, bytes.len() as u64 - offsets[1]);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the reader wrote");
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unrecognised_headers_are_rejected_with_a_clear_error() {
        let path = tmp("badmagic.marc");
        std::fs::write(&path, b"NOTANARCHIVE----------------").unwrap();
        let err = ArchiveReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("MANTRARC"), "{err}");
        // An unknown (future) version is called out explicitly, by the
        // reader and the writer alike.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&99u16.to_le_bytes());
        header.resize(HEADER_LEN as usize, 0);
        std::fs::write(&path, &header).unwrap();
        let err = ArchiveReader::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let err = FileBackendV2::open(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsyncs_happen_on_checkpoints_and_cadence() {
        let path = tmp("fsync.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        let base = be.stats().fsyncs;
        let (full, full_json) = full_record(0);
        be.append(&full, &full_json).unwrap();
        assert_eq!(be.stats().fsyncs, base + 1, "checkpoint syncs");
        assert_eq!(be.stats().pending_appends, 0);
        be.sync = SyncPolicy::every_records(2);
        for n in 1..=4 {
            let (d, j) = delta_record(n);
            be.append(&d, &j).unwrap();
        }
        assert_eq!(be.stats().fsyncs, base + 3, "every second delta syncs");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_cadence_and_pending_appends_account_durability() {
        let path = tmp("fsync-bytes.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        be.sync = SyncPolicy {
            on_checkpoint: false,
            every_records: 0,
            every_bytes: 1, // every append crosses the byte threshold
        };
        let (full, j) = full_record(0);
        be.append(&full, &j).unwrap();
        assert_eq!(be.stats().fsyncs, 2, "create + byte-cadence sync");
        assert_eq!(be.stats().pending_appends, 0);
        be.sync = SyncPolicy {
            on_checkpoint: false,
            every_records: 0,
            every_bytes: 0,
        };
        for n in 1..=3 {
            let (d, j) = delta_record(n);
            be.append(&d, &j).unwrap();
        }
        assert_eq!(be.stats().fsyncs, 2, "no further syncs");
        assert_eq!(be.stats().pending_appends, 3, "three records at risk");
        std::fs::remove_file(&path).unwrap();
    }

    fn rich_full(n: u64) -> (LogRecord, String) {
        use crate::tables::{PairRow, RouteRow, SessionRow};
        let g = GroupAddr::from_index;
        let parts = SnapshotParts {
            captured_at: SimTime(n),
            router: "fixw".into(),
            pairs: vec![PairRow {
                source: Ip::new(10, 0, 0, 1),
                group: g(1),
                current_bw: BitRate::from_kbps(64 + n),
                avg_bw: BitRate::from_kbps(60),
                forwarding: n.is_multiple_of(2),
                learned_from: LearnedFrom::Pim,
            }],
            routes: vec![
                RouteRow {
                    prefix: Prefix::new(Ip::new(128, 9, 0, 0), 16).unwrap(),
                    next_hop: Some(Ip::new(10, 0, 0, 2)),
                    metric: 3,
                    uptime: Some(SimDuration::secs(900 * n)),
                    reachable: true,
                    learned_from: LearnedFrom::Dvmrp,
                },
                RouteRow {
                    prefix: Prefix::new(Ip::new(192, 168, 0, 0), 24).unwrap(),
                    next_hop: None,
                    metric: 1,
                    uptime: None,
                    reachable: false,
                    learned_from: LearnedFrom::Mbgp,
                },
            ],
            sa_cache: vec![(g(1), Ip::new(10, 0, 0, 1), SimTime(n))],
            member_only_sessions: vec![SessionRow {
                group: g(2),
                name: Some("sap announce".into()),
                density: 4,
                bandwidth: BitRate::from_kbps(2),
                first_advertised: LearnedFrom::Igmp,
                first_seen: SimTime(n),
            }],
            presorted: false,
        };
        let rec = LogRecord::Full(parts);
        let json = serde_json::to_string(&rec).unwrap();
        (rec, json)
    }

    fn rich_delta(n: u64) -> (LogRecord, String) {
        let g = GroupAddr::from_index;
        let rec = LogRecord::Delta(TableDelta {
            captured_at: SimTime(n),
            pair_upserts: Vec::new(),
            pair_removals: vec![(g(1), Ip::new(10, 0, 0, 1))],
            route_upserts: Vec::new(),
            route_removals: vec![(
                LearnedFrom::Mbgp,
                Prefix::new(Ip::new(192, 168, 0, 0), 24).unwrap(),
            )],
            sa_upserts: vec![(g(3), Ip::new(10, 0, 9, 9), SimTime(n))],
            sa_removals: vec![(g(1), Ip::new(10, 0, 0, 1))],
            session_upserts: Vec::new(),
            session_removals: vec![g(2)],
        });
        let json = serde_json::to_string(&rec).unwrap();
        (rec, json)
    }

    fn json_of(rec: &LogRecord) -> String {
        serde_json::to_string(rec).unwrap()
    }

    /// Start of record `i`'s own frame: an append may lead with a
    /// dictionary frame, so skip it when one sits at the record offset.
    fn rec_frame_start(be: &FileBackendV2, i: usize) -> u64 {
        let s = be.offsets()[i];
        let bytes = std::fs::read(be.path()).unwrap();
        let frame = &bytes[s as usize..];
        if frame[0] == KIND_DICT {
            s + FRAME_LEN + u64::from(u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]))
        } else {
            s
        }
    }

    #[test]
    fn v2_backend_round_trips_records_and_reopens() {
        let path = tmp("v2-roundtrip.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        let recs = vec![rich_full(0), rich_delta(1), rich_delta(2), rich_full(3)];
        for (rec, json) in &recs {
            be.append(rec, json).unwrap();
        }
        assert_eq!(be.len(), 4);
        assert_eq!(be.last_checkpoint(), Some(3));
        assert!(
            rec_frame_start(&be, 0) > be.offsets()[0],
            "new keys force a dictionary segment ahead of the record"
        );
        let back: Vec<LogRecord> = be.records().map(|r| r.unwrap()).collect();
        for ((orig, _), got) in recs.iter().zip(&back) {
            assert_eq!(json_of(orig), json_of(got));
        }
        // Mid-archive entry (checkpoint resume) preloads the dictionary.
        let tail: Vec<LogRecord> = be.records_from(3).map(|r| r.unwrap()).collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(json_of(&tail[0]), json_of(&recs[3].0));
        let info = be.describe();
        assert_eq!(info.format_version, FORMAT_VERSION_V2);
        assert_eq!(info.epoch, 1);
        assert!(info.dict_entries > 0);
        drop(be);
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 4);
        assert_eq!(be.last_checkpoint(), Some(3));
        assert_eq!(be.stats().recovered_bytes, 0);
        let back: Vec<LogRecord> = be.records().map(|r| r.unwrap()).collect();
        assert_eq!(json_of(&back[2]), json_of(&recs[2].0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_truncated_tail_recovers_to_last_valid_record() {
        let path = tmp("v2-truncated.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        for (rec, json) in [rich_full(0), rich_delta(1), rich_delta(2)] {
            be.append(&rec, &json).unwrap();
        }
        let offsets = be.offsets().to_vec();
        drop(be);
        let cut = offsets[3] - 3;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 2, "last record dropped");
        assert!(be.stats().recovered_bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), offsets[2]);
        // Appending after recovery keeps the archive self-consistent.
        let mut be = be;
        let (rec, json) = rich_delta(9);
        be.append(&rec, &json).unwrap();
        let back: Vec<LogRecord> = be.records().map(|r| r.unwrap()).collect();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_kind_flip_is_caught_by_the_frame_crc() {
        let path = tmp("v2-kindflip.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        for (rec, json) in [rich_full(0), rich_delta(1), rich_delta(2)] {
            be.append(&rec, &json).unwrap();
        }
        let at = rec_frame_start(&be, 1) as usize;
        drop(be);
        // Flip record 1's kind byte from Delta to Full; the payload CRC
        // alone would still pass, but the v2 CRC covers the kind.
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[at], KIND_DELTA);
        bytes[at] = KIND_FULL;
        std::fs::write(&path, &bytes).unwrap();
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 1, "the flipped frame ends the archive");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_duplicated_record_frame_is_caught_by_its_sequence_number() {
        let path = tmp("v2-dup.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        for (rec, json) in [rich_full(0), rich_delta(1)] {
            be.append(&rec, &json).unwrap();
        }
        let span = (rec_frame_start(&be, 1) as usize, be.offsets()[2] as usize);
        drop(be);
        // Append a byte-exact copy of the last record frame (without its
        // dictionary frame): CRC-valid, but its sequence number repeats.
        let mut bytes = std::fs::read(&path).unwrap();
        let dup = bytes[span.0..span.1].to_vec();
        bytes.extend_from_slice(&dup);
        std::fs::write(&path, &bytes).unwrap();
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 2, "the duplicated frame is dropped");
        assert!(be.stats().recovered_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_epoch_mismatched_dictionary_segment_ends_the_archive() {
        let path = tmp("v2-epoch.marc");
        let mut be = FileBackendV2::create_with_epoch(&path, 7).unwrap();
        let (rec, json) = rich_full(0);
        be.append(&rec, &json).unwrap();
        assert_eq!(be.describe().epoch, 7);
        drop(be);
        // Rewrite the header epoch: every dictionary segment is now
        // stamped with the wrong epoch and replay must refuse the ids.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12..16].copy_from_slice(&8u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 0, "stale-epoch ids are never resolved");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_payloads_are_smaller_than_json_for_the_same_records() {
        let path = tmp("size-v2.marc");
        let mut mem = MemoryBackend::default();
        let mut v2 = FileBackendV2::create(&path).unwrap();
        for n in 0..8 {
            let (rec, json) = if n == 0 { rich_full(n) } else { rich_delta(n) };
            mem.append(&rec, &json).unwrap();
            v2.append(&rec, &json).unwrap();
        }
        // The memory backend counts the serde_json payloads alone; the
        // v2 frames, dictionary segments included, still undercut them.
        assert!(
            v2.stats().bytes < mem.stats().bytes,
            "v2 {} bytes should undercut JSON {} bytes",
            v2.stats().bytes,
            mem.stats().bytes
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memory_backend_accounts_checkpoints() {
        let mut be = MemoryBackend::default();
        for (rec, json) in [full_record(0), delta_record(1), full_record(2)] {
            be.append(&rec, &json).unwrap();
        }
        assert_eq!(be.len(), 3);
        assert_eq!(be.last_checkpoint(), Some(2));
        let s = be.stats();
        assert_eq!(s.records, 3);
        assert_eq!(s.checkpoints, 2);
        assert_eq!(s.fsyncs, 0);
        assert!(s.bytes > 0);
        assert_eq!(be.records_from(2).count(), 1);
    }

    #[test]
    fn torn_write_heals_on_next_append() {
        let path = tmp("torn-heal-append.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        be.sync = SyncPolicy::every_records(1);
        let (rec0, json0) = full_record(0);
        be.append(&rec0, &json0).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();

        // ENOSPC-style failure: 5 bytes of the frame land, then the
        // write fails.
        be.inject_torn_write(5);
        let (rec1, json1) = delta_record(1);
        let err = be.append(&rec1, &json1).unwrap_err();
        assert!(err.to_string().contains("torn frame"), "{err}");
        let s = be.stats();
        assert_eq!(s.write_errors, 1);
        assert_eq!(s.records, 1, "failed record must not be counted");
        // The torn bytes are on disk but bookkeeping never claims them:
        // the record they belonged to is lost, and pending_appends only
        // covers records the backend actually framed.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len + 5);
        assert_eq!(s.pending_appends, 0);

        // Next append heals: tail re-truncated, new frame lands at the
        // logical end with the next sequence number, stream replays
        // cleanly.
        let (rec2, json2) = full_record(2);
        be.append(&rec2, &json2).unwrap();
        assert_eq!(be.len(), 2);
        let back: Vec<LogRecord> = be.records().map(|r| r.unwrap()).collect();
        assert_eq!(back.len(), 2);
        drop(be);
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 2);
        assert_eq!(be.stats().recovered_bytes, 0, "heal already cut the tail");
        std::fs::remove_file(&path).unwrap();
    }
    #[test]
    fn torn_write_heals_on_sync_v2() {
        let path = tmp("torn-heal-v2.marc");
        let mut be = FileBackendV2::create(&path).unwrap();
        let (rec0, json0) = rich_full(0);
        be.append(&rec0, &json0).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();

        be.inject_torn_write(7);
        let (rec1, json1) = rich_delta(1);
        assert!(be.append(&rec1, &json1).is_err());
        assert_eq!(be.stats().write_errors, 1);
        assert!(std::fs::metadata(&path).unwrap().len() > good_len);

        // Sync heals the tail even with no intervening append.
        be.sync().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        assert_eq!(be.stats().pending_appends, 0);

        // And appends keep working; sequence numbers stay dense.
        let (rec2, json2) = rich_full(2);
        be.append(&rec2, &json2).unwrap();
        let back: Vec<LogRecord> = be.records().map(|r| r.unwrap()).collect();
        assert_eq!(back.len(), 2);
        drop(be);
        let be = FileBackendV2::open(&path).unwrap();
        assert_eq!(be.len(), 2);
        assert_eq!(be.stats().recovered_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn threaded_backend_matches_serial_and_drains_on_drop() {
        let serial_path = tmp("threaded-serial.marc");
        let threaded_path = tmp("threaded-writer.marc");
        let recs: Vec<_> = (0..10)
            .map(|n| {
                if n % 4 == 0 {
                    rich_full(n)
                } else {
                    rich_delta(n)
                }
            })
            .collect();

        let mut serial = FileBackendV2::create(&serial_path).unwrap();
        for (rec, json) in &recs {
            serial.append(rec, json).unwrap();
        }
        serial.sync().unwrap();
        drop(serial);

        let inner = Box::new(FileBackendV2::create(&threaded_path).unwrap());
        let mut be = ThreadedBackend::spawn(inner, WriterConfig::default());
        assert_eq!(be.kind(), "file+writer");
        for (rec, json) in &recs {
            be.append(rec, json).unwrap();
        }
        // len() is a drain barrier: all 10 records are applied after it.
        assert_eq!(be.len(), 10);
        assert_eq!(be.last_checkpoint(), Some(8));
        be.sync().unwrap();
        let s = be.stats();
        assert_eq!(s.records, 10);
        assert_eq!(s.queue_depth, 0);
        assert!(s.queue_high_water >= 1);
        assert_eq!(s.dropped_records, 0);
        assert_eq!(s.pending_appends, 0);
        drop(be);

        assert_eq!(
            std::fs::read(&serial_path).unwrap(),
            std::fs::read(&threaded_path).unwrap(),
            "threaded archive must be byte-identical to serial"
        );
        std::fs::remove_file(&serial_path).unwrap();
        std::fs::remove_file(&threaded_path).unwrap();
    }

    #[test]
    fn threaded_backend_defers_writer_errors_to_next_append() {
        let path = tmp("threaded-defer.marc");
        let mut inner = Box::new(FileBackendV2::create(&path).unwrap());
        inner.inject_torn_write(3);
        let mut be = ThreadedBackend::spawn(inner, WriterConfig::default());

        // This append enqueues fine; the failure happens on the writer
        // thread when the frame is applied.
        let (rec0, json0) = rich_full(0);
        be.append(&rec0, &json0).unwrap();
        be.drain();

        // The next append surfaces the deferred error.
        let (rec1, json1) = rich_delta(1);
        let err = be.append(&rec1, &json1).unwrap_err();
        assert!(err.to_string().contains("archive writer"), "{err}");
        let s = be.stats();
        assert!(s.write_errors >= 1);
        assert!(
            s.dropped_records >= 1,
            "the erroring append sheds its record"
        );

        // A Full record re-anchors the chain and lands cleanly.
        let (rec2, json2) = rich_full(2);
        be.append(&rec2, &json2).unwrap();
        assert_eq!(be.len(), 1, "only the re-anchoring full survives");
        drop(be);
        std::fs::remove_file(&path).unwrap();
    }
}
