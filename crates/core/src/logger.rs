//! The data logger: space-efficient archival of table snapshots.
//!
//! The paper names two storage-conservation techniques and this module
//! implements both:
//!
//! * **Storing only deltas** — instead of the full table, each cycle
//!   stores what changed since the previous one (with periodic full
//!   snapshots so archives remain seekable and loss-bounded).
//! * **Avoiding redundancy** — tables derivable from other tables are not
//!   stored at all. In this schema the Participant and Session tables are
//!   functions of the Pair table (plus IGMP-only sessions), so a log
//!   record carries only pairs, routes, the SA cache and the handful of
//!   member-only sessions; reconstruction rebuilds the rest.
//!
//! Reconstruction is lossless: replaying a log yields snapshots equal to
//! the originals, which the property tests assert.

use std::cell::{Cell, RefCell};
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use mantra_net::{GroupAddr, Ip, Prefix, SimTime};

use crate::archive::{
    read_header, ArchiveBackend, ArchiveInfo, ArchiveReader, ArchiveSpec, ArchiveStats,
    FileBackendV2, MemoryBackend, RecordIter, SyncPolicy, ThreadedBackend, FORMAT_VERSION, MAGIC,
};
use crate::store::{in_key_order, in_key_order_cached, Interner, TableStore};
use crate::tables::{LearnedFrom, PairRow, RouteRow, SessionRow, Tables};

/// What one cycle stores.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum LogRecord {
    /// A full (but redundancy-eliminated) snapshot.
    Full(SnapshotParts),
    /// Changes relative to the previous record.
    Delta(TableDelta),
}

impl LogRecord {
    /// When the snapshot this record stores was captured.
    pub fn captured_at(&self) -> SimTime {
        match self {
            LogRecord::Full(p) => p.captured_at,
            LogRecord::Delta(d) => d.captured_at,
        }
    }
}

/// The non-derivable parts of a snapshot.
#[derive(Clone, Debug, Default)]
pub struct SnapshotParts {
    /// Capture timestamp.
    pub captured_at: SimTime,
    /// Source router.
    pub router: String,
    /// All `(S,G)` pairs.
    pub pairs: Vec<PairRow>,
    /// All routes.
    pub routes: Vec<RouteRow>,
    /// The SA cache.
    pub sa_cache: Vec<(GroupAddr, Ip, SimTime)>,
    /// Sessions not derivable from pairs (IGMP-membership-only).
    pub member_only_sessions: Vec<SessionRow>,
    /// Whether every section above is known to be strictly key-sorted
    /// (true when built from `BTreeMap` iteration or a delta merge).
    /// A construction-time hint only — diffing skips its per-section
    /// sortedness re-verification when set; never serialized, and
    /// ignored by equality.
    pub presorted: bool,
}

impl PartialEq for SnapshotParts {
    fn eq(&self, other: &Self) -> bool {
        // `presorted` is a derived hint, not data.
        self.captured_at == other.captured_at
            && self.router == other.router
            && self.pairs == other.pairs
            && self.routes == other.routes
            && self.sa_cache == other.sa_cache
            && self.member_only_sessions == other.member_only_sessions
    }
}

// Hand-written (not derived) so `presorted` stays out of the archive:
// the serialized form carries exactly the six data fields in declaration
// order, byte-identical to the pre-hint derive output, and archives
// written before the hint existed still load.
impl Serialize for SnapshotParts {
    fn serialize<S: serde::ser::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let m = vec![
            (
                "captured_at".to_string(),
                serde::ser::to_value(&self.captured_at),
            ),
            ("router".to_string(), serde::ser::to_value(&self.router)),
            ("pairs".to_string(), serde::ser::to_value(&self.pairs)),
            ("routes".to_string(), serde::ser::to_value(&self.routes)),
            ("sa_cache".to_string(), serde::ser::to_value(&self.sa_cache)),
            (
                "member_only_sessions".to_string(),
                serde::ser::to_value(&self.member_only_sessions),
            ),
        ];
        s.serialize_value(serde::Value::Map(m))
    }
}

impl<'de> Deserialize<'de> for SnapshotParts {
    fn deserialize<D: serde::de::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let map = match d.take_value()? {
            serde::Value::Map(m) => m,
            other => {
                return Err(D::custom(format!(
                    "expected map for SnapshotParts, got {other:?}"
                )))
            }
        };
        let mut fields: [Option<serde::Value>; 6] = Default::default();
        for (k, v) in map {
            let slot = match k.as_str() {
                "captured_at" => 0,
                "router" => 1,
                "pairs" => 2,
                "routes" => 3,
                "sa_cache" => 4,
                "member_only_sessions" => 5,
                _ => continue,
            };
            fields[slot] = Some(v);
        }
        let mut take = |slot: usize, name: &str| {
            fields[slot]
                .take()
                .ok_or_else(|| D::custom(format!("missing field {name} in SnapshotParts")))
        };
        Ok(SnapshotParts {
            captured_at: serde::de::field::<_, D>(take(0, "captured_at")?)?,
            router: serde::de::field::<_, D>(take(1, "router")?)?,
            pairs: serde::de::field::<_, D>(take(2, "pairs")?)?,
            routes: serde::de::field::<_, D>(take(3, "routes")?)?,
            sa_cache: serde::de::field::<_, D>(take(4, "sa_cache")?)?,
            member_only_sessions: serde::de::field::<_, D>(take(5, "member_only_sessions")?)?,
            // Provenance unknown (archives can be hand-edited), so the
            // verifying path re-establishes sortedness on first use.
            presorted: false,
        })
    }
}

/// A delta between consecutive snapshots.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TableDelta {
    /// Capture timestamp of the new snapshot.
    pub captured_at: SimTime,
    /// Added or changed pairs.
    pub pair_upserts: Vec<PairRow>,
    /// Removed pairs.
    pub pair_removals: Vec<(GroupAddr, Ip)>,
    /// Added or changed routes.
    pub route_upserts: Vec<RouteRow>,
    /// Removed routes.
    pub route_removals: Vec<(LearnedFrom, Prefix)>,
    /// Added or changed SA entries.
    pub sa_upserts: Vec<(GroupAddr, Ip, SimTime)>,
    /// Removed SA entries.
    pub sa_removals: Vec<(GroupAddr, Ip)>,
    /// Added or changed member-only sessions.
    pub session_upserts: Vec<SessionRow>,
    /// Removed member-only sessions.
    pub session_removals: Vec<GroupAddr>,
}

impl SnapshotParts {
    /// Extracts the non-derivable parts of a snapshot.
    pub fn from_tables(t: &Tables) -> Self {
        SnapshotParts {
            captured_at: t.captured_at,
            router: t.router.clone(),
            pairs: t.pairs.values().cloned().collect(),
            routes: t.routes.values().cloned().collect(),
            sa_cache: t
                .sa_cache
                .iter()
                .map(|((g, s), at)| (*g, *s, *at))
                .collect(),
            member_only_sessions: t
                .sessions
                .values()
                .filter(|s| s.density == 0 && s.first_advertised == LearnedFrom::Igmp)
                .cloned()
                .collect(),
            // Every section above is collected from BTreeMap iteration
            // whose map key equals the section's diff key, so strict
            // sortedness holds by construction.
            presorted: true,
        }
    }

    /// Rebuilds the full four-table snapshot (the redundancy rule run
    /// forward).
    pub fn rebuild(&self) -> Tables {
        let mut t = Tables::new(self.router.clone(), self.captured_at);
        for s in &self.member_only_sessions {
            t.sessions.insert(s.group, s.clone());
        }
        for p in &self.pairs {
            t.add_pair(p.clone());
        }
        for r in &self.routes {
            t.add_route(r.clone());
        }
        for (g, s, at) in &self.sa_cache {
            t.sa_cache.insert((*g, *s), *at);
        }
        t
    }
}

/// Diffs one keyed section through the interner: one marking pass over
/// `prev`, one comparison pass over `next`, no map construction. Upserts
/// come out in `next` key order and removals in `prev` key order —
/// byte-identical to what the `BTreeMap`-based reference emits.
fn diff_section<T, K>(
    interner: &mut Interner<K>,
    (prev, prev_sorted): (&[T], bool),
    (next, next_sorted): (&[T], bool),
    key: impl Fn(&T) -> K,
    upserts: &mut Vec<T>,
    removals: &mut Vec<K>,
) where
    T: Clone + PartialEq,
    K: Ord + Copy + Eq + std::hash::Hash,
{
    let prev_s = in_key_order_cached(prev, &key, prev_sorted);
    let next_s = in_key_order_cached(next, &key, next_sorted);
    interner.begin_pass();
    for (i, row) in prev_s.iter().enumerate() {
        let id = interner.intern(&key(row));
        interner.mark(id, i as u32);
    }
    for row in &next_s {
        let id = interner.intern(&key(row));
        interner.see(id);
        match interner.marked(id) {
            Some(i) if prev_s[i as usize] == *row => {}
            _ => upserts.push((*row).clone()),
        }
    }
    for row in &prev_s {
        let id = interner.get(&key(row)).expect("marked in the prev pass");
        if !interner.seen(id) {
            removals.push(key(row));
        }
    }
}

/// Applies one keyed section as a two-pointer merge of the key-sorted base
/// and upsert lists: upserts win on key collision, removals filter the
/// merged stream, output stays key-sorted. Semantics match the reference
/// exactly, including a key in both upserts and removals ending removed.
fn apply_section<T, K>(
    interner: &mut Interner<K>,
    (base, base_sorted): (&[T], bool),
    upserts: &[T],
    removals: &[K],
    key: impl Fn(&T) -> K,
    out: &mut Vec<T>,
) where
    T: Clone,
    K: Ord + Copy + Eq + std::hash::Hash,
{
    let base_s = in_key_order_cached(base, &key, base_sorted);
    let ups_s = in_key_order(upserts, &key);
    interner.begin_pass();
    for k in removals {
        let id = interner.intern(k);
        interner.see(id);
    }
    let (mut i, mut j) = (0, 0);
    while i < base_s.len() || j < ups_s.len() {
        let take_upsert = match (base_s.get(i), ups_s.get(j)) {
            (Some(b), Some(u)) => key(u) <= key(b),
            (None, Some(_)) => true,
            _ => false,
        };
        let row: &T = if take_upsert {
            if base_s.get(i).is_some_and(|b| key(b) == key(ups_s[j])) {
                i += 1; // upsert overwrites the base row
            }
            let r = ups_s[j];
            j += 1;
            r
        } else {
            let r = base_s[i];
            i += 1;
            r
        };
        let removed = interner.get(&key(row)).is_some_and(|id| interner.seen(id));
        if !removed {
            out.push(row.clone());
        }
    }
}

/// Computes the delta taking `prev` to `next`, interning keys through
/// `store`. Reusing one store across cycles makes every later diff a pure
/// lookup-and-compare pass — the hot path of multi-router monitoring.
/// Output is byte-identical to [`diff_reference`].
pub fn diff_with(store: &mut TableStore, prev: &SnapshotParts, next: &SnapshotParts) -> TableDelta {
    let mut d = TableDelta {
        captured_at: next.captured_at,
        ..TableDelta::default()
    };
    diff_section(
        &mut store.pairs,
        (&prev.pairs, prev.presorted),
        (&next.pairs, next.presorted),
        |p| (p.group, p.source),
        &mut d.pair_upserts,
        &mut d.pair_removals,
    );
    diff_section(
        &mut store.routes,
        (&prev.routes, prev.presorted),
        (&next.routes, next.presorted),
        |r| (r.learned_from, r.prefix),
        &mut d.route_upserts,
        &mut d.route_removals,
    );
    diff_section(
        &mut store.pairs,
        (&prev.sa_cache, prev.presorted),
        (&next.sa_cache, next.presorted),
        |(g, s, _)| (*g, *s),
        &mut d.sa_upserts,
        &mut d.sa_removals,
    );
    diff_section(
        &mut store.groups,
        (&prev.member_only_sessions, prev.presorted),
        (&next.member_only_sessions, next.presorted),
        |s| s.group,
        &mut d.session_upserts,
        &mut d.session_removals,
    );
    d
}

/// Applies a delta to `base` through `store`, producing the next
/// snapshot's parts. Output is byte-identical to [`apply_reference`].
pub fn apply_with(
    store: &mut TableStore,
    base: &SnapshotParts,
    delta: &TableDelta,
) -> SnapshotParts {
    let mut next = SnapshotParts {
        captured_at: delta.captured_at,
        router: base.router.clone(),
        // The merge below emits each section in strictly increasing key
        // order with upserts deduplicated, so the output re-earns the
        // sortedness hint regardless of the base's provenance.
        presorted: true,
        ..SnapshotParts::default()
    };
    apply_section(
        &mut store.pairs,
        (&base.pairs, base.presorted),
        &delta.pair_upserts,
        &delta.pair_removals,
        |p| (p.group, p.source),
        &mut next.pairs,
    );
    apply_section(
        &mut store.routes,
        (&base.routes, base.presorted),
        &delta.route_upserts,
        &delta.route_removals,
        |r| (r.learned_from, r.prefix),
        &mut next.routes,
    );
    apply_section(
        &mut store.pairs,
        (&base.sa_cache, base.presorted),
        &delta.sa_upserts,
        &delta.sa_removals,
        |(g, s, _)| (*g, *s),
        &mut next.sa_cache,
    );
    apply_section(
        &mut store.groups,
        (&base.member_only_sessions, base.presorted),
        &delta.session_upserts,
        &delta.session_removals,
        |s| s.group,
        &mut next.member_only_sessions,
    );
    next
}

/// Computes the delta taking `prev` to `next` (throwaway interner — reuse
/// a [`TableStore`] via [`diff_with`] on hot paths).
pub fn diff(prev: &SnapshotParts, next: &SnapshotParts) -> TableDelta {
    diff_with(&mut TableStore::default(), prev, next)
}

/// Applies a delta to `base` (throwaway interner — reuse a [`TableStore`]
/// via [`apply_with`] on hot paths).
pub fn apply(base: &SnapshotParts, delta: &TableDelta) -> SnapshotParts {
    apply_with(&mut TableStore::default(), base, delta)
}

/// The pre-interning `BTreeMap`-based diff, kept as the behavioural
/// reference: property tests assert [`diff_with`] matches it and the
/// ablation bench measures the interning win against it.
pub fn diff_reference(prev: &SnapshotParts, next: &SnapshotParts) -> TableDelta {
    use std::collections::BTreeMap;
    let mut d = TableDelta {
        captured_at: next.captured_at,
        ..TableDelta::default()
    };
    // Pairs.
    let prev_pairs: BTreeMap<(GroupAddr, Ip), &PairRow> = prev
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p))
        .collect();
    let next_pairs: BTreeMap<(GroupAddr, Ip), &PairRow> = next
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p))
        .collect();
    for (k, row) in &next_pairs {
        if prev_pairs.get(k) != Some(row) {
            d.pair_upserts.push((*row).clone());
        }
    }
    for k in prev_pairs.keys() {
        if !next_pairs.contains_key(k) {
            d.pair_removals.push(*k);
        }
    }
    // Routes.
    let prev_routes: BTreeMap<(LearnedFrom, Prefix), &RouteRow> = prev
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r))
        .collect();
    let next_routes: BTreeMap<(LearnedFrom, Prefix), &RouteRow> = next
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r))
        .collect();
    for (k, row) in &next_routes {
        if prev_routes.get(k) != Some(row) {
            d.route_upserts.push((*row).clone());
        }
    }
    for k in prev_routes.keys() {
        if !next_routes.contains_key(k) {
            d.route_removals.push(*k);
        }
    }
    // SA cache.
    let prev_sa: BTreeMap<(GroupAddr, Ip), SimTime> = prev
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    let next_sa: BTreeMap<(GroupAddr, Ip), SimTime> = next
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    for (k, t) in &next_sa {
        if prev_sa.get(k) != Some(t) {
            d.sa_upserts.push((k.0, k.1, *t));
        }
    }
    for k in prev_sa.keys() {
        if !next_sa.contains_key(k) {
            d.sa_removals.push(*k);
        }
    }
    // Member-only sessions.
    let prev_s: BTreeMap<GroupAddr, &SessionRow> = prev
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s))
        .collect();
    let next_s: BTreeMap<GroupAddr, &SessionRow> = next
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s))
        .collect();
    for (g, row) in &next_s {
        if prev_s.get(g) != Some(row) {
            d.session_upserts.push((*row).clone());
        }
    }
    for g in prev_s.keys() {
        if !next_s.contains_key(g) {
            d.session_removals.push(*g);
        }
    }
    d
}

/// The pre-interning `BTreeMap`-based apply, kept as the behavioural
/// reference for [`apply_with`].
pub fn apply_reference(base: &SnapshotParts, delta: &TableDelta) -> SnapshotParts {
    use std::collections::BTreeMap;
    let mut pairs: BTreeMap<(GroupAddr, Ip), PairRow> = base
        .pairs
        .iter()
        .map(|p| ((p.group, p.source), p.clone()))
        .collect();
    for p in &delta.pair_upserts {
        pairs.insert((p.group, p.source), p.clone());
    }
    for k in &delta.pair_removals {
        pairs.remove(k);
    }
    let mut routes: BTreeMap<(LearnedFrom, Prefix), RouteRow> = base
        .routes
        .iter()
        .map(|r| ((r.learned_from, r.prefix), r.clone()))
        .collect();
    for r in &delta.route_upserts {
        routes.insert((r.learned_from, r.prefix), r.clone());
    }
    for k in &delta.route_removals {
        routes.remove(k);
    }
    let mut sa: BTreeMap<(GroupAddr, Ip), SimTime> = base
        .sa_cache
        .iter()
        .map(|(g, s, t)| ((*g, *s), *t))
        .collect();
    for (g, s, t) in &delta.sa_upserts {
        sa.insert((*g, *s), *t);
    }
    for k in &delta.sa_removals {
        sa.remove(k);
    }
    let mut sessions: BTreeMap<GroupAddr, SessionRow> = base
        .member_only_sessions
        .iter()
        .map(|s| (s.group, s.clone()))
        .collect();
    for s in &delta.session_upserts {
        sessions.insert(s.group, s.clone());
    }
    for g in &delta.session_removals {
        sessions.remove(g);
    }
    SnapshotParts {
        captured_at: delta.captured_at,
        router: base.router.clone(),
        pairs: pairs.into_values().collect(),
        routes: routes.into_values().collect(),
        sa_cache: sa.into_iter().map(|((g, s), t)| (g, s, t)).collect(),
        member_only_sessions: sessions.into_values().collect(),
        presorted: true, // straight out of BTreeMap iteration
    }
}

/// The append-only log for one router's snapshot stream.
///
/// Where the records live is delegated to an [`ArchiveBackend`]: the
/// default [`MemoryBackend`] keeps them in process (and serialises
/// byte-identically to the pre-backend log), while [`FileBackendV2`]
/// turns the log into a durable on-disk archive with checkpoints and
/// crash recovery. Appending is infallible either way — a failing backend
/// write is counted in [`TableLog::write_errors`] and surfaced through
/// [`TableLog::backend_error`] rather than panicking mid-cycle.
#[derive(Debug)]
pub struct TableLog {
    backend: Box<dyn ArchiveBackend>,
    tail: Option<SnapshotParts>,
    since_full: usize,
    /// Interner reused across appends when the caller does not share one.
    scratch: TableStore,
    /// A full snapshot is stored every this many records (bounds replay
    /// cost and the blast radius of a corrupt record).
    pub full_every: usize,
    /// Payload bytes the log stored (serialised records, before any
    /// backend framing).
    pub bytes_stored: usize,
    /// Bytes storing every snapshot in full would have cost — the paper's
    /// baseline for the space-conservation claim. Zero for archives
    /// reopened from disk (the baseline is not persisted).
    pub bytes_full_baseline: usize,
    /// Appends the backend failed to persist.
    pub write_errors: u64,
    /// True when the requested backend could not be opened and the log
    /// silently degraded to an in-memory archive — persistence the
    /// operator asked for is *not* happening, so the health registry and
    /// archive metrics surface this rather than leaving it buried in
    /// [`TableLog::backend_error`].
    pub fell_back: bool,
    backend_error: Option<String>,
    /// True once [`TableLog::seal`] ran: the archive is closed to
    /// appends until the router rejoins (see
    /// [`ArchiveSpec::rejoin_log`]). Reads keep working — a sealed
    /// archive is exactly a read-only one.
    sealed: bool,
    /// Archive reads that failed during [`TableLog::replay`]. Interior
    /// mutability because replay takes `&self`; surfaced through
    /// [`TableLog::replay_errors`] and the `archive_degraded` health
    /// flag instead of panicking the monitor.
    replay_errors: Cell<u64>,
    replay_error: RefCell<Option<String>>,
}

impl Default for TableLog {
    fn default() -> Self {
        TableLog {
            backend: Box::<MemoryBackend>::default(),
            tail: None,
            since_full: 0,
            scratch: TableStore::default(),
            full_every: 0,
            bytes_stored: 0,
            bytes_full_baseline: 0,
            write_errors: 0,
            fell_back: false,
            backend_error: None,
            sealed: false,
            replay_errors: Cell::new(0),
            replay_error: RefCell::new(None),
        }
    }
}

impl TableLog {
    /// An in-memory log storing a full snapshot every `full_every`
    /// records.
    pub fn new(full_every: usize) -> Self {
        TableLog {
            full_every: full_every.max(1),
            ..TableLog::default()
        }
    }

    /// A log writing into a caller-supplied (empty) backend.
    pub fn with_backend(backend: Box<dyn ArchiveBackend>, full_every: usize) -> Self {
        TableLog {
            backend,
            full_every: full_every.max(1),
            ..TableLog::default()
        }
    }

    /// Opens (or creates) an on-disk archive at `path` for appending
    /// through [`FileBackendV2`]. An existing v1 archive opens read-only
    /// instead: it replays, and every append fails (counted in
    /// [`TableLog::write_errors`]) with an error naming
    /// `mantra archive compact`, which rewrites it as v2. An unknown
    /// version fails loudly instead of guessing.
    ///
    /// The tail snapshot and delta cadence are rebuilt by replaying only
    /// the records from the last checkpoint — a reopened archive keeps
    /// appending deltas exactly as if the process had never stopped.
    pub fn open_file(path: &Path, full_every: usize) -> io::Result<TableLog> {
        let v1 = path.exists() && read_header(&mut std::fs::File::open(path)?)?.0 == FORMAT_VERSION;
        if v1 {
            return Self::open_file_read_only(path, full_every);
        }
        Self::resume(Box::new(FileBackendV2::open(path)?), full_every)
    }

    /// Opens an existing on-disk archive, of either version, for
    /// reading only through an [`ArchiveReader`]. The file is never
    /// written: a torn or corrupt tail is clamped to the last intact
    /// record in memory instead of being truncated away, so this is safe
    /// against an archive another process is actively appending to.
    /// Appends through the returned log fail (and are counted in
    /// [`TableLog::write_errors`]).
    pub fn open_file_read_only(path: &Path, full_every: usize) -> io::Result<TableLog> {
        Self::resume(Box::new(ArchiveReader::open(path)?), full_every)
    }

    /// Rebuilds the in-memory tail state (last snapshot, delta cadence)
    /// from an already-opened backend by replaying from its last
    /// checkpoint.
    fn resume(backend: Box<dyn ArchiveBackend>, full_every: usize) -> io::Result<TableLog> {
        let start = backend.last_checkpoint().unwrap_or(0);
        let mut store = TableStore::default();
        let mut tail: Option<SnapshotParts> = None;
        let mut since_full = 0usize;
        for rec in backend.records_from(start) {
            match rec? {
                LogRecord::Full(p) => {
                    since_full = 1;
                    tail = Some(p);
                }
                LogRecord::Delta(d) => {
                    let base = tail.as_ref().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "archive starts with a delta record",
                        )
                    })?;
                    since_full += 1;
                    tail = Some(apply_with(&mut store, base, &d));
                }
            }
        }
        let bytes_stored = backend.stats().bytes as usize;
        Ok(TableLog {
            backend,
            tail,
            since_full,
            scratch: store,
            full_every: full_every.max(1),
            bytes_stored,
            bytes_full_baseline: 0,
            write_errors: 0,
            fell_back: false,
            backend_error: None,
            sealed: false,
            replay_errors: Cell::new(0),
            replay_error: RefCell::new(None),
        })
    }

    /// Seals the archive when its router retires from the fleet.
    ///
    /// Sealing is a **drain barrier**: on threaded backends every queued
    /// append lands on disk before this returns, so the `.marc` file is
    /// byte-stable from this moment until the router rejoins. Further
    /// appends are refused (counted in [`TableLog::write_errors`]);
    /// replay and stats keep working. Idempotent.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        // `len` is the drain barrier on ThreadedBackend.
        let _ = self.backend.len();
        self.sealed = true;
    }

    /// True once the archive has been sealed by [`TableLog::seal`].
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// The backend's archive accounting. Non-draining on every backend:
    /// on [`ThreadedBackend`](crate::archive::ThreadedBackend) this reads
    /// the writer's mirror plus a live queue overlay, so health tables
    /// and daemon endpoints never stall behind a slow disk.
    pub fn archive_stats(&self) -> ArchiveStats {
        self.backend.stats()
    }

    /// The backend's format identity (version/epoch/dictionary size).
    /// Non-draining, like [`TableLog::archive_stats`].
    pub fn describe(&self) -> ArchiveInfo {
        self.backend.describe()
    }

    /// The backend's name ("memory", "file").
    pub fn backend_kind(&self) -> &'static str {
        self.backend.kind()
    }

    /// The last backend write failure, if any.
    pub fn backend_error(&self) -> Option<&str> {
        self.backend_error.as_deref()
    }

    /// Appends a snapshot, choosing full or delta representation. A delta
    /// record is used only when it is both due (within the full-snapshot
    /// cadence) and actually smaller than the full record — on tiny tables
    /// the delta framing can cost more than the data.
    ///
    /// Returns the delta taking the previous snapshot to this one whenever
    /// a previous snapshot exists — even on cycles that *store* a full
    /// checkpoint record — so streaming analysers can fold it without
    /// re-diffing. `None` only for the first append of a fresh log.
    pub fn append(&mut self, tables: &Tables) -> Option<TableDelta> {
        let mut store = std::mem::take(&mut self.scratch);
        let delta = self.append_with(&mut store, tables);
        self.scratch = store;
        delta
    }

    /// [`TableLog::append`] interning through a caller-owned store, so one
    /// store can serve every router's log (the monitor shares its
    /// pipeline-wide [`TableStore`] here).
    pub fn append_with(&mut self, store: &mut TableStore, tables: &Tables) -> Option<TableDelta> {
        if self.sealed {
            self.write_errors += 1;
            self.backend_error = Some("archive is sealed (router retired)".into());
            return None;
        }
        let parts = SnapshotParts::from_tables(tables);
        let full_record = LogRecord::Full(parts.clone());
        // The serialised text is kept, not just measured: the backend
        // archives exactly these bytes, so every backend stores the same
        // payload the size decision was made on.
        let full_json = serde_json::to_string(&full_record).unwrap_or_default();
        // The baseline is what storing the snapshot itself would cost.
        self.bytes_full_baseline += serde_json::to_string(&parts).map(|s| s.len()).unwrap_or(0);
        let delta = self
            .tail
            .as_ref()
            .map(|prev| diff_with(store, prev, &parts));
        let mut chosen = None;
        if let (Some(d), false) = (&delta, self.since_full >= self.full_every) {
            let delta_record = LogRecord::Delta(d.clone());
            if let Ok(delta_json) = serde_json::to_string(&delta_record) {
                if delta_json.len() < full_json.len() {
                    self.since_full += 1;
                    chosen = Some((delta_record, delta_json));
                }
            }
        }
        let (record, json) = chosen.unwrap_or_else(|| {
            self.since_full = 1;
            (full_record, full_json)
        });
        self.bytes_stored += json.len();
        if let Err(e) = self.backend.append(&record, &json) {
            self.write_errors += 1;
            self.backend_error = Some(e.to_string());
            // The record never reached the archive; a delta stored after
            // it would replay against a base the archive doesn't have.
            // Exhaust the cadence so the next append stores a full
            // snapshot and re-anchors the chain.
            self.since_full = self.full_every;
        }
        self.tail = Some(parts);
        delta
    }

    /// Number of stored records.
    ///
    /// **Drain barrier** on threaded backends: the count is only exact
    /// once queued appends have landed, so this blocks until the writer
    /// queue is empty. Concurrent observers (the daemon) must use
    /// [`TableLog::archive_stats`] (non-draining, includes queued
    /// records) or a read-only
    /// [`ArchiveReader`](crate::archive::ArchiveReader) instead.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// True when nothing has been appended. A drain barrier on threaded
    /// backends, like [`TableLog::len`].
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Storage saved relative to storing full snapshots, in `[0, 1)`.
    pub fn savings_ratio(&self) -> f64 {
        if self.bytes_full_baseline == 0 {
            0.0
        } else {
            1.0 - self.bytes_stored as f64 / self.bytes_full_baseline as f64
        }
    }

    /// Streams the log's snapshots in order, holding one current
    /// snapshot (plus the record being applied) in memory regardless of
    /// archive length.
    pub fn replay_iter(&self) -> ReplayIter<'_> {
        ReplayIter::new(self.backend.records())
    }

    /// Replays the log, returning every snapshot in order.
    ///
    /// An unreadable record ends the replay at the last clean snapshot
    /// instead of panicking: the error is counted in
    /// [`TableLog::replay_errors`] (which feeds the `archive_degraded`
    /// health flag) and kept in [`TableLog::last_replay_error`]. Callers
    /// that need the error itself use [`TableLog::try_replay`] or
    /// [`TableLog::replay_iter`].
    pub fn replay(&self) -> Vec<Tables> {
        let mut out = Vec::new();
        for step in self.replay_iter() {
            match step {
                Ok(tables) => out.push(tables),
                Err(e) => {
                    self.note_replay_error(&e);
                    break;
                }
            }
        }
        out
    }

    /// Replays the log, propagating the first archive read error (still
    /// counted in [`TableLog::replay_errors`], so health degrades even
    /// when the caller handles the error).
    pub fn try_replay(&self) -> io::Result<Vec<Tables>> {
        let mut out = Vec::new();
        for step in self.replay_iter() {
            match step {
                Ok(tables) => out.push(tables),
                Err(e) => {
                    self.note_replay_error(&e);
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    fn note_replay_error(&self, e: &io::Error) {
        self.replay_errors.set(self.replay_errors.get() + 1);
        *self.replay_error.borrow_mut() = Some(e.to_string());
    }

    /// Archive read failures observed by [`TableLog::replay`] /
    /// [`TableLog::try_replay`].
    pub fn replay_errors(&self) -> u64 {
        self.replay_errors.get()
    }

    /// The most recent replay failure, if any.
    pub fn last_replay_error(&self) -> Option<String> {
        self.replay_error.borrow().clone()
    }

    /// Replays only the final snapshot (cheap tail access).
    pub fn last(&self) -> Option<Tables> {
        self.tail.as_ref().map(|p| p.rebuild())
    }

    /// Writes the archive to disk as JSON-lines (one record per line) —
    /// the interchange shape of Mantra's long-term archives, identical
    /// for every backend.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        use std::io::Write as _;
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for rec in self.backend.records() {
            let line = serde_json::to_string(&rec?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            writeln!(w, "{line}")?;
        }
        w.flush()
    }

    /// Loads an archive from disk, sniffing the format: a `MANTRARC`
    /// header opens through [`TableLog::open_file`] (v2 for appending,
    /// v1 read-only, a clear unsupported-version error for anything
    /// newer — never a fallback to JSONL sniffing), JSON-lines
    /// loads the legacy [`TableLog::save`] shape into memory, and
    /// anything else is rejected with a clear error instead of a JSON
    /// parse failure.
    pub fn load(path: &Path, full_every: usize) -> io::Result<TableLog> {
        use std::io::Read as _;
        let mut head = Vec::new();
        std::fs::File::open(path)?
            .take(MAGIC.len() as u64)
            .read_to_end(&mut head)?;
        if head == MAGIC {
            return TableLog::open_file(path, full_every);
        }
        match head.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'{') | None => TableLog::load_jsonl(path, full_every),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unrecognised archive header in {}: expected a MANTRARC \
                     binary archive or a JSON-lines archive",
                    path.display()
                ),
            )),
        }
    }

    /// [`TableLog::load`] for read paths: MANTRARC archives open through
    /// [`TableLog::open_file_read_only`] (the file is never written),
    /// JSON-lines archives load into memory exactly as before (that
    /// path never mutated the file). `mantra archive info|replay` and
    /// every daemon read goes through here, so inspecting an archive
    /// can never truncate a live writer's in-flight frame.
    pub fn load_read_only(path: &Path, full_every: usize) -> io::Result<TableLog> {
        use std::io::Read as _;
        let mut head = Vec::new();
        std::fs::File::open(path)?
            .take(MAGIC.len() as u64)
            .read_to_end(&mut head)?;
        if head == MAGIC {
            return TableLog::open_file_read_only(path, full_every);
        }
        TableLog::load(path, full_every)
    }

    /// Loads a legacy JSON-lines archive written by [`TableLog::save`].
    /// The reloaded log replays identically; appending continues from
    /// the reloaded tail.
    fn load_jsonl(path: &Path, full_every: usize) -> io::Result<TableLog> {
        use std::io::BufRead as _;
        let file = std::fs::File::open(path)?;
        let mut log = TableLog::new(full_every);
        for line in std::io::BufReader::new(file).lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: LogRecord = serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            log.bytes_stored += line.len();
            let parts = match &rec {
                LogRecord::Full(p) => {
                    log.since_full = 1;
                    p.clone()
                }
                LogRecord::Delta(d) => {
                    let base = log.tail.as_ref().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "archive starts with a delta record",
                        )
                    })?;
                    log.since_full += 1;
                    let mut store = std::mem::take(&mut log.scratch);
                    let parts = apply_with(&mut store, base, d);
                    log.scratch = store;
                    parts
                }
            };
            log.bytes_full_baseline += serde_json::to_string(&parts).map(|s| s.len()).unwrap_or(0);
            log.backend
                .append(&rec, &line)
                .expect("memory append cannot fail");
            log.tail = Some(parts);
        }
        Ok(log)
    }
}

/// The streaming replay over a [`TableLog`]'s archive: full records
/// reset the cursor, delta records advance it, and each step yields the
/// rebuilt four-table snapshot. Memory use is one snapshot regardless of
/// how long the archive is — the property that makes FIXW-scale archives
/// replayable at all.
pub struct ReplayIter<'a> {
    records: RecordIter<'a>,
    store: TableStore,
    cur: Option<SnapshotParts>,
    done: bool,
}

impl<'a> ReplayIter<'a> {
    /// Replays `records`, which must start at a full record.
    pub(crate) fn new(records: RecordIter<'a>) -> Self {
        ReplayIter {
            records,
            store: TableStore::default(),
            cur: None,
            done: false,
        }
    }
}

impl Iterator for ReplayIter<'_> {
    type Item = io::Result<Tables>;

    fn next(&mut self) -> Option<io::Result<Tables>> {
        if self.done {
            return None;
        }
        let rec = match self.records.next()? {
            Ok(rec) => rec,
            Err(e) => {
                self.done = true;
                return Some(Err(e));
            }
        };
        let parts = match rec {
            LogRecord::Full(p) => p,
            LogRecord::Delta(d) => match self.cur.as_ref() {
                Some(base) => apply_with(&mut self.store, base, &d),
                None => {
                    self.done = true;
                    return Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "delta record without a base snapshot",
                    )));
                }
            },
        };
        let tables = parts.rebuild();
        self.cur = Some(parts);
        Some(Ok(tables))
    }
}

impl ArchiveSpec {
    /// Opens the log for one router under this spec. File backends that
    /// fail to open (unwritable directory, exhausted disk) fall back to
    /// an in-memory log so a collection cycle never dies on archival —
    /// the failure is visible through [`TableLog::backend_error`].
    pub fn open_log(&self, router: &str, full_every: usize) -> TableLog {
        fn fallback(full_every: usize, e: io::Error) -> TableLog {
            let mut log = TableLog::new(full_every);
            log.write_errors = 1;
            log.fell_back = true;
            log.backend_error = Some(format!("file archive unavailable, logging to memory: {e}"));
            log
        }
        match self {
            ArchiveSpec::Memory => TableLog::new(full_every),
            ArchiveSpec::File { dir, sync } => {
                match FileBackendV2::create(ArchiveSpec::path_for(dir, router)) {
                    Ok(mut backend) => {
                        backend.sync = *sync;
                        TableLog::with_backend(Box::new(backend), full_every)
                    }
                    Err(e) => fallback(full_every, e),
                }
            }
            ArchiveSpec::Threaded { dir, sync, writer } => {
                match FileBackendV2::create(ArchiveSpec::path_for(dir, router)) {
                    Ok(mut backend) => {
                        backend.sync = *sync;
                        let threaded = ThreadedBackend::spawn(Box::new(backend), *writer);
                        TableLog::with_backend(Box::new(threaded), full_every)
                    }
                    Err(e) => fallback(full_every, e),
                }
            }
        }
    }

    /// Reopens a sealed archive when its router rejoins the fleet.
    ///
    /// File-backed archives are rewritten in place at the **next interner
    /// epoch** (via [`compact_archive`] to a sibling temp file, then an
    /// atomic rename) and reopened for appending with the tail resumed —
    /// so payloads salvaged from the pre-retirement file can never be
    /// resolved against the post-rejoin dictionary, while the replayed
    /// history stays snapshot-identical. Memory archives simply unseal
    /// and continue. Any rewrite failure falls back to a fresh in-memory
    /// log with [`TableLog::fell_back`] set, mirroring
    /// [`ArchiveSpec::open_log`]: a rejoin never kills the cycle.
    pub fn rejoin_log(&self, router: &str, full_every: usize, sealed: TableLog) -> TableLog {
        fn fallback(full_every: usize, e: io::Error) -> TableLog {
            let mut log = TableLog::new(full_every);
            log.write_errors = 1;
            log.fell_back = true;
            log.backend_error = Some(format!("archive rejoin failed, logging to memory: {e}"));
            log
        }
        let (dir, sync, writer) = match self {
            ArchiveSpec::Memory => {
                let mut log = sealed;
                log.sealed = false;
                return log;
            }
            ArchiveSpec::File { dir, sync } => (dir, *sync, None),
            ArchiveSpec::Threaded { dir, sync, writer } => (dir, *sync, Some(*writer)),
        };
        let path = ArchiveSpec::path_for(dir, router);
        let tmp = path.with_extension("marc.rejoin");
        let opts = CompactOptions {
            full_every,
            drop_before: None,
            sync,
        };
        let rewritten = compact_archive(&sealed, &tmp, &opts);
        // Close both the sealed source and the rewrite before renaming.
        drop(sealed);
        match rewritten {
            Ok(rewrite) => drop(rewrite),
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                return fallback(full_every, e);
            }
        }
        let reopen = std::fs::rename(&tmp, &path).and_then(|()| {
            let mut backend = FileBackendV2::open(&path)?;
            backend.sync = sync;
            let boxed: Box<dyn ArchiveBackend> = match writer {
                Some(cfg) => Box::new(ThreadedBackend::spawn(Box::new(backend), cfg)),
                None => Box::new(backend),
            };
            TableLog::resume(boxed, full_every)
        });
        match reopen {
            Ok(log) => log,
            Err(e) => fallback(full_every, e),
        }
    }
}

/// Policies for [`compact_archive`].
#[derive(Clone, Debug)]
pub struct CompactOptions {
    /// Checkpoint cadence of the rewritten archive — compaction is also
    /// a re-checkpointing pass, so replay-entry density can be chosen
    /// independently of what the source archive used.
    pub full_every: usize,
    /// Drop snapshots captured before this time (a retention policy:
    /// fleet-day archives are compacted with the already-summarised
    /// prefix dropped).
    pub drop_before: Option<SimTime>,
    /// Fsync cadence for the rewrite.
    pub sync: SyncPolicy,
}

impl Default for CompactOptions {
    fn default() -> Self {
        CompactOptions {
            full_every: 96,
            drop_before: None,
            sync: SyncPolicy::default(),
        }
    }
}

/// Rewrites `src` as a fresh MANTRARC v2 archive at `out`, returning the
/// rewritten log and how many snapshots the retention policy dropped.
///
/// The rewrite replays the source and re-appends, so it re-checkpoints
/// on the new cadence, re-chooses full-vs-delta per record, and builds a
/// brand-new dictionary containing only keys the surviving records
/// reference — dead entries (routers renamed away, sessions long gone,
/// everything referenced only by dropped snapshots) are garbage
/// collected. The new archive's interner epoch is the source's epoch
/// plus one, so v2 payloads salvaged from the old file can never be
/// resolved against the new dictionary.
pub fn compact_archive(
    src: &TableLog,
    out: &Path,
    opts: &CompactOptions,
) -> io::Result<(TableLog, usize)> {
    let epoch = src.describe().epoch.saturating_add(1);
    let mut backend = FileBackendV2::create_with_epoch(out, epoch)?;
    backend.sync = opts.sync;
    let mut dst = TableLog::with_backend(Box::new(backend), opts.full_every);
    let mut dropped = 0usize;
    for tables in src.replay_iter() {
        let tables = tables?;
        if opts.drop_before.is_some_and(|ts| tables.captured_at < ts) {
            dropped += 1;
            continue;
        }
        dst.append(&tables);
        if let Some(e) = dst.backend_error() {
            return Err(io::Error::other(format!("compaction write failed: {e}")));
        }
    }
    Ok((dst, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::FORMAT_VERSION_V2;
    use mantra_net::BitRate;

    fn t(n: u64) -> SimTime {
        SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900)
    }

    fn g(i: u32) -> GroupAddr {
        GroupAddr::from_index(i)
    }

    fn snapshot(n: u64, pairs: &[(u32, Ip, u64)]) -> Tables {
        let mut tab = Tables::new("fixw", t(n));
        for (gi, src, kbps) in pairs {
            tab.add_pair(PairRow {
                source: *src,
                group: g(*gi),
                current_bw: BitRate::from_kbps(*kbps),
                avg_bw: BitRate::from_kbps(*kbps),
                forwarding: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        tab
    }

    #[test]
    fn replay_reconstructs_exactly() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let snaps = vec![
            snapshot(0, &[(0, s1, 64), (1, s2, 2)]),
            snapshot(1, &[(0, s1, 80), (1, s2, 2)]), // rate change
            snapshot(2, &[(0, s1, 80)]),             // s2 left
            snapshot(3, &[(0, s1, 80), (2, s2, 128)]), // new session
        ];
        let mut log = TableLog::new(100);
        for s in &snaps {
            log.append(s);
        }
        let replayed = log.replay();
        assert_eq!(replayed, snaps);
        assert_eq!(log.last().unwrap(), snaps[3]);
    }

    #[test]
    fn interned_diff_apply_match_reference_across_cycles() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let snaps = [
            snapshot(0, &[(0, s1, 64), (1, s2, 2)]),
            snapshot(1, &[(0, s1, 80), (1, s2, 2)]),
            snapshot(2, &[(0, s1, 80)]),
            snapshot(3, &[(0, s1, 80), (2, s2, 128)]),
        ];
        let parts: Vec<SnapshotParts> = snaps.iter().map(SnapshotParts::from_tables).collect();
        // One store reused across every cycle, as the monitor does.
        let mut store = TableStore::default();
        for w in parts.windows(2) {
            let fast = diff_with(&mut store, &w[0], &w[1]);
            let slow = diff_reference(&w[0], &w[1]);
            assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&slow).unwrap()
            );
            let applied = apply_with(&mut store, &w[0], &fast);
            assert_eq!(applied, apply_reference(&w[0], &slow));
            assert_eq!(applied, w[1]);
        }
    }

    #[test]
    fn deltas_save_space_on_stable_tables() {
        // A big, slowly-changing table (the paper's route-table case).
        let mut base = Tables::new("fixw", t(0));
        for i in 0..500u32 {
            base.add_route(RouteRow {
                prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
                next_hop: Some(Ip::new(10, 128, 0, 2)),
                metric: 3,
                uptime: None,
                reachable: true,
                learned_from: LearnedFrom::Dvmrp,
            });
        }
        let mut log = TableLog::new(1_000);
        for n in 0..50u64 {
            let mut s = base.clone();
            s.captured_at = t(n);
            // One route flaps each cycle.
            let key = (
                LearnedFrom::Dvmrp,
                Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + ((n as u32 % 500) << 16)), 16).unwrap(),
            );
            s.routes.get_mut(&key).unwrap().reachable = n % 2 == 0;
            log.append(&s);
        }
        assert!(
            log.savings_ratio() > 0.9,
            "delta log should save >90% on stable tables, saved {:.2}",
            log.savings_ratio()
        );
        assert_eq!(log.replay().len(), 50);
    }

    #[test]
    fn periodic_full_snapshots_bound_replay_chains() {
        // A table large enough that deltas genuinely beat full snapshots.
        let pairs: Vec<(u32, Ip, u64)> = (0..40u32).map(|i| (i, Ip(100 + i), 64)).collect();
        let mut log = TableLog::new(5);
        for n in 0..17u64 {
            let mut p = pairs.clone();
            p[0].2 = n; // one rate changes per cycle
            log.append(&snapshot(n, &p));
        }
        assert_eq!(log.archive_stats().checkpoints, 4, "full at 0, 5, 10, 15");
        assert_eq!(log.replay().len(), 17);
    }

    #[test]
    fn tiny_tables_prefer_full_records() {
        // When the delta framing would cost more than the data, the logger
        // stores full records even inside the delta cadence.
        let s1 = Ip::new(1, 1, 1, 1);
        let mut log = TableLog::new(100);
        for n in 0..5u64 {
            log.append(&snapshot(n, &[(0, s1, n)]));
        }
        assert!(
            log.bytes_stored <= log.bytes_full_baseline + 16 * log.len(),
            "stored {} vs baseline {}",
            log.bytes_stored,
            log.bytes_full_baseline
        );
        assert_eq!(log.replay().len(), 5);
    }

    #[test]
    fn member_only_sessions_survive_the_redundancy_rule() {
        let mut tab = Tables::new("fixw", t(0));
        tab.sessions.insert(
            g(9),
            SessionRow {
                group: g(9),
                name: None,
                density: 0,
                bandwidth: BitRate::ZERO,
                first_advertised: LearnedFrom::Igmp,
                first_seen: t(0),
            },
        );
        tab.add_pair(PairRow {
            source: Ip::new(1, 1, 1, 1),
            group: g(0),
            current_bw: BitRate::from_kbps(5),
            avg_bw: BitRate::from_kbps(5),
            forwarding: true,
            learned_from: LearnedFrom::Dvmrp,
        });
        let mut log = TableLog::new(10);
        log.append(&tab);
        let back = log.replay().pop().unwrap();
        assert_eq!(back, tab);
        assert!(back.sessions.contains_key(&g(9)));
    }

    #[test]
    fn save_load_round_trip() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let mut log = TableLog::new(3);
        let snaps: Vec<Tables> = (0..9u64)
            .map(|n| snapshot(n, &[(0, s1, 64 + n), (1, s2, 2)]))
            .collect();
        for s in &snaps {
            log.append(s);
        }
        let dir = std::env::temp_dir().join("mantra-logger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixw.jsonl");
        log.save(&path).unwrap();
        let loaded = TableLog::load(&path, 3).unwrap();
        assert_eq!(loaded.replay(), snaps);
        assert_eq!(loaded.len(), log.len());
        // Appending to a reloaded archive keeps working.
        let mut loaded = loaded;
        loaded.append(&snapshot(9, &[(0, s1, 99)]));
        assert_eq!(loaded.replay().len(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_orphan_delta() {
        let dir = std::env::temp_dir().join("mantra-logger-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let delta = LogRecord::Delta(TableDelta::default());
        std::fs::write(&path, serde_json::to_string(&delta).unwrap()).unwrap();
        assert!(TableLog::load(&path, 3).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_log_behaviour() {
        let log = TableLog::new(10);
        assert!(log.is_empty());
        assert!(log.last().is_none());
        assert!(log.replay().is_empty());
        assert_eq!(log.savings_ratio(), 0.0);
        assert_eq!(log.backend_kind(), "memory");
        assert!(log.backend_error().is_none());
    }

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mantra-logger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_backed_log_matches_memory_and_reopens() {
        let s1 = Ip::new(1, 1, 1, 1);
        let s2 = Ip::new(2, 2, 2, 2);
        let snaps: Vec<Tables> = (0..9u64)
            .map(|n| snapshot(n, &[(0, s1, 64 + n), (1, s2, 2)]))
            .collect();
        let dir = tmp_dir();
        let spec = ArchiveSpec::File {
            dir: dir.clone(),
            sync: SyncPolicy::default(),
        };
        let mut file_log = spec.open_log("fixw", 3);
        assert_eq!(file_log.describe().format_version, FORMAT_VERSION_V2);
        let mut mem_log = TableLog::new(3);
        assert_eq!(file_log.backend_kind(), "file");
        for s in &snaps {
            file_log.append(s);
            mem_log.append(s);
        }
        assert!(file_log.backend_error().is_none());
        assert_eq!(file_log.replay(), mem_log.replay());
        assert_eq!(file_log.bytes_stored, mem_log.bytes_stored);
        assert_eq!(
            file_log.archive_stats().checkpoints,
            mem_log.archive_stats().checkpoints
        );
        drop(file_log);
        // `load` sniffs the binary header and resumes from the last
        // checkpoint; appending continues seamlessly.
        let path = ArchiveSpec::path_for(&dir, "fixw");
        let mut reopened = TableLog::load(&path, 3).unwrap();
        assert_eq!(reopened.backend_kind(), "file");
        assert_eq!(reopened.replay(), snaps);
        assert_eq!(reopened.last().unwrap(), snaps[8]);
        reopened.append(&snapshot(9, &[(0, s1, 99)]));
        assert_eq!(reopened.replay().len(), 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_iter_streams_the_same_snapshots_as_replay() {
        let s1 = Ip::new(1, 1, 1, 1);
        let mut log = TableLog::new(4);
        for n in 0..11u64 {
            log.append(&snapshot(n, &[(0, s1, 64 + n), (1, Ip(50 + n as u32), 2)]));
        }
        let streamed: Vec<Tables> = log.replay_iter().map(|r| r.unwrap()).collect();
        assert_eq!(streamed, log.replay());
    }

    #[test]
    fn load_rejects_unrecognised_headers() {
        let path = tmp_dir().join("garbage.bin");
        std::fs::write(&path, b"\x7fELF not an archive at all").unwrap();
        let err = TableLog::load(&path, 3).unwrap_err();
        assert!(
            err.to_string().contains("unrecognised archive header"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_fails_loudly_on_unknown_mantrarc_versions() {
        // A future v3 archive must be refused with a version error, not
        // fall through to legacy-JSONL sniffing (which would report a
        // bewildering JSON parse failure on binary data).
        let path = tmp_dir().join("future.marc");
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&3u16.to_le_bytes());
        header.resize(24, 0);
        std::fs::write(&path, &header).unwrap();
        let err = TableLog::load(&path, 3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unsupported format version 3"), "{msg}");
        assert!(msg.contains("versions 1 and 2"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_drops_old_snapshots_gcs_the_dictionary_and_bumps_the_epoch() {
        let dir = tmp_dir();
        let spec = ArchiveSpec::File {
            dir: dir.clone(),
            sync: SyncPolicy::default(),
        };
        let mut log = spec.open_log("fixw-compact", 3);
        // Tables big enough that deltas beat full records; early cycles
        // reference hosts that later disappear entirely.
        let base: Vec<(u32, Ip, u64)> = (0..40u32).map(|i| (i, Ip(0x0a00_0000 + i), 64)).collect();
        for n in 0..10u64 {
            let mut pairs = base.clone();
            pairs[0].2 = 64 + n; // one rate changes per cycle
            if n < 4 {
                pairs.push((90 + n as u32, Ip(0x0909_0900 + n as u32), 8));
            }
            log.append(&snapshot(n, &pairs));
        }
        let out = dir.join("fixw-compacted.marc");
        let (compacted, dropped) = compact_archive(
            &log,
            &out,
            &CompactOptions {
                full_every: 4,
                drop_before: Some(t(4)),
                sync: SyncPolicy::default(),
            },
        )
        .unwrap();
        assert_eq!(dropped, 4);
        assert_eq!(compacted.replay(), log.replay()[4..].to_vec());
        assert_eq!(compacted.describe().epoch, log.describe().epoch + 1);
        assert!(
            compacted.describe().dict_entries < log.describe().dict_entries,
            "keys referenced only by dropped snapshots are GC'd \
             ({} vs {})",
            compacted.describe().dict_entries,
            log.describe().dict_entries
        );
        // The rewrite re-checkpoints on its own cadence and reloads.
        assert_eq!(compacted.archive_stats().checkpoints, 2);
        let reloaded = TableLog::load(&out, 4).unwrap();
        assert_eq!(reloaded.replay(), compacted.replay());
        std::fs::remove_file(&out).unwrap();
        std::fs::remove_file(ArchiveSpec::path_for(&dir, "fixw-compact")).unwrap();
    }

    #[test]
    fn unwritable_archive_dir_falls_back_to_memory() {
        let spec = ArchiveSpec::File {
            dir: std::path::PathBuf::from("/proc/no-such-dir/archives"),
            sync: SyncPolicy::default(),
        };
        let mut log = spec.open_log("fixw", 3);
        assert_eq!(log.backend_kind(), "memory");
        assert!(log.backend_error().is_some());
        log.append(&snapshot(0, &[(0, Ip::new(1, 1, 1, 1), 64)]));
        assert_eq!(log.replay().len(), 1, "collection keeps working");
    }
}
