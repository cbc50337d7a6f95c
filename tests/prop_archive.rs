//! Property-based tests for the archive backends: an on-disk archive
//! replays exactly what the in-memory backend holds, through the writer
//! and through the read-only reader alike, streaming replay is
//! indistinguishable from materialised replay, and a torn tail
//! (simulated crash mid-append) always recovers to the last intact record.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use mantra::core::archive::{
    ArchiveBackend, ArchiveReader, BackpressureMode, FileBackendV2, ThreadedBackend, WriterConfig,
};
use mantra::core::logger::TableLog;
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimTime};

fn arb_pair() -> impl Strategy<Value = PairRow> {
    (0u32..40, 1u32..2_000_000, 0u64..300_000, any::<bool>()).prop_map(
        |(g, src, bps, forwarding)| PairRow {
            source: Ip(src),
            group: GroupAddr::from_index(g),
            current_bw: BitRate::from_bps(bps),
            avg_bw: BitRate::from_bps(bps),
            forwarding,
            learned_from: LearnedFrom::Dvmrp,
        },
    )
}

fn arb_route() -> impl Strategy<Value = RouteRow> {
    (0u32..60, 1u32..32, any::<bool>()).prop_map(|(i, metric, reachable)| RouteRow {
        prefix: Prefix::new(Ip(Ip::new(128, 0, 0, 0).0 + (i << 16)), 16).unwrap(),
        next_hop: Some(Ip::new(10, 0, 0, 1)),
        metric,
        uptime: None,
        reachable,
        learned_from: LearnedFrom::Dvmrp,
    })
}

fn arb_snapshot(n: u64) -> impl Strategy<Value = Tables> {
    (
        proptest::collection::vec(arb_pair(), 0..30),
        proptest::collection::vec(arb_route(), 0..30),
    )
        .prop_map(move |(pairs, routes)| {
            let mut t = Tables::new(
                "fixw",
                SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900),
            );
            for p in pairs {
                if !t.pairs.contains_key(&(p.group, p.source)) {
                    t.add_pair(p);
                }
            }
            for r in routes {
                t.add_route(r);
            }
            t
        })
}

fn arb_stream(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Tables>> {
    proptest::collection::vec((0u64..100).prop_flat_map(arb_snapshot), len).prop_map(
        |mut streams| {
            // Re-stamp timestamps to be increasing (including the derived
            // first-seen fields, which add_pair anchored to the original
            // captured_at).
            for (i, s) in streams.iter_mut().enumerate() {
                let at = SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + i as u64 * 900);
                s.captured_at = at;
                for p in s.participants.values_mut() {
                    p.first_seen = at;
                }
                for sess in s.sessions.values_mut() {
                    sess.first_seen = at;
                }
            }
            streams
        },
    )
}

/// A fresh archive path per proptest case; cases within a test run
/// sequentially but distinct tests run on parallel threads.
fn tmp_archive() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("mantra-prop-archive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("case-{}.marc", SEQ.fetch_add(1, Ordering::Relaxed)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A file archive read back through the read-only backend
    /// ([`ArchiveReader`]) holds exactly what the writer indexed — same
    /// records, checkpoints, bytes and dictionary — and replays to the
    /// memory log's snapshots, from the start and from its last
    /// checkpoint.
    #[test]
    fn file_backend_round_trips_identically_to_memory(
        streams in arb_stream(1..10),
        full_every in 1usize..8,
    ) {
        let mut mem = TableLog::new(full_every);
        let path = tmp_archive();
        let backend = FileBackendV2::create(&path).unwrap();
        let mut file = TableLog::with_backend(Box::new(backend), full_every);
        for s in &streams {
            mem.append(s);
            file.append(s);
        }
        prop_assert_eq!(file.backend_error(), None);
        let rd = ArchiveReader::open(&path).unwrap();
        let (written, read) = (file.archive_stats(), rd.stats());
        prop_assert_eq!(
            (read.records, read.checkpoints, read.bytes, read.recovered_bytes),
            (written.records, written.checkpoints, written.bytes, 0)
        );
        prop_assert_eq!(rd.describe(), file.describe());
        let replayed: Vec<Tables> = rd.replay().collect::<std::io::Result<_>>().unwrap();
        prop_assert_eq!(&replayed, &mem.replay());
        drop(file);
        // Resuming replays from the reader's last checkpoint to the tail.
        let reopened = TableLog::load_read_only(&path, full_every).unwrap();
        prop_assert_eq!(reopened.last(), streams.last().cloned());
        prop_assert_eq!(reopened.replay(), streams);
        std::fs::remove_file(&path).unwrap();
    }

    /// Streaming replay yields exactly the sequence `replay()` returns,
    /// in order, with no trailing error.
    #[test]
    fn replay_iter_matches_replay(
        streams in arb_stream(1..10),
        full_every in 1usize..8,
    ) {
        let mut log = TableLog::new(full_every);
        for s in &streams {
            log.append(s);
        }
        let streamed: Vec<Tables> = log
            .replay_iter()
            .collect::<std::io::Result<Vec<_>>>()
            .unwrap();
        prop_assert_eq!(&streamed, &log.replay());
        prop_assert_eq!(streamed, streams);
    }

    /// Cutting an archive mid-frame (a crash during append) loses only the
    /// torn record: reopening drops the partial tail, reports how many
    /// bytes were discarded, and replays every record before the cut.
    #[test]
    fn truncated_tail_recovers_to_last_valid_record(
        streams in arb_stream(2..8),
        full_every in 1usize..4,
        cut_seed in 0usize..1_000,
        partial in 1u64..9,
    ) {
        let path = tmp_archive();
        let backend = FileBackendV2::create(&path).unwrap();
        let mut log = TableLog::with_backend(Box::new(backend), full_every);
        for s in &streams {
            log.append(s);
        }
        prop_assert_eq!(log.backend_error(), None);
        drop(log);
        // Batch offsets (plus the end-of-file sentinel) tell us where each
        // record's append starts; cut inside its first frame header (the
        // record's own, or the dictionary frame riding ahead of it).
        let offsets: Vec<u64> = FileBackendV2::open(&path).unwrap().offsets().to_vec();
        prop_assert_eq!(offsets.len(), streams.len() + 1);
        let k = 1 + cut_seed % (streams.len() - 1);
        let cut_at = offsets[k] + partial;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut_at).unwrap();
        drop(f);
        let recovered = TableLog::load(&path, full_every).unwrap();
        let stats = recovered.archive_stats();
        prop_assert_eq!(stats.records, k as u64);
        prop_assert_eq!(stats.recovered_bytes, partial);
        prop_assert_eq!(recovered.replay(), &streams[..k]);
        std::fs::remove_file(&path).unwrap();
    }

    /// The v2 backend (id-keyed records, embedded dictionary) replays to
    /// exactly the snapshots a memory log holds — same logical bytes, same
    /// checkpoint schedule — and survives a close/reopen cycle unchanged.
    #[test]
    fn v2_backend_round_trips_identically_to_memory(
        streams in arb_stream(1..10),
        full_every in 1usize..8,
    ) {
        let mut mem = TableLog::new(full_every);
        let path = tmp_archive();
        let backend = FileBackendV2::create(&path).unwrap();
        let mut file = TableLog::with_backend(Box::new(backend), full_every);
        for s in &streams {
            mem.append(s);
            file.append(s);
        }
        prop_assert_eq!(file.backend_error(), None);
        // Same logger-level accounting: the full-vs-delta choice is made
        // on the JSON rendering for every backend, so the checkpoint
        // schedule — and therefore replay — cannot diverge.
        prop_assert_eq!(file.bytes_stored, mem.bytes_stored);
        prop_assert_eq!(
            file.archive_stats().checkpoints,
            mem.archive_stats().checkpoints
        );
        prop_assert_eq!(file.replay(), mem.replay());
        drop(file);
        let reopened = TableLog::load(&path, full_every).unwrap();
        prop_assert_eq!(reopened.archive_stats().recovered_bytes, 0);
        prop_assert_eq!(reopened.describe().format_version, 2);
        prop_assert_eq!(reopened.replay(), streams);
        std::fs::remove_file(&path).unwrap();
    }

    /// The threaded writer archives the exact bytes the synchronous
    /// backend does — whatever the queue capacity, and even when the
    /// queue is tiny enough that backpressure engages. Dropping the
    /// backend is the shutdown drain barrier, so the on-disk files must
    /// compare byte-for-byte afterwards.
    #[test]
    fn threaded_writer_archives_byte_identical_to_serial(
        streams in arb_stream(2..10),
        full_every in 1usize..8,
        capacity in 1usize..6,
    ) {
        let serial_path = tmp_archive();
        let backend = FileBackendV2::create(&serial_path).unwrap();
        let mut serial = TableLog::with_backend(Box::new(backend), full_every);

        let threaded_path = tmp_archive();
        let inner = Box::new(FileBackendV2::create(&threaded_path).unwrap());
        let writer = ThreadedBackend::spawn(inner, WriterConfig {
            capacity,
            mode: BackpressureMode::Block,
        });
        let mut threaded = TableLog::with_backend(Box::new(writer), full_every);

        for s in &streams {
            serial.append(s);
            threaded.append(s);
        }
        prop_assert_eq!(serial.backend_error(), None);
        prop_assert_eq!(threaded.backend_error(), None);
        // len() is a drain barrier; after it the mirror-backed stats
        // must agree with the synchronous archive.
        prop_assert_eq!(threaded.len(), serial.len());
        prop_assert_eq!(threaded.replay(), serial.replay());
        let ts = threaded.archive_stats();
        prop_assert_eq!(ts.dropped_records, 0);
        prop_assert_eq!(ts.write_errors, 0);
        drop(serial);
        drop(threaded);
        prop_assert_eq!(
            std::fs::read(&serial_path).unwrap(),
            std::fs::read(&threaded_path).unwrap()
        );
        // And the threaded-written archive reopens as a normal file
        // archive, replaying the original stream.
        let reopened = TableLog::load(&threaded_path, full_every).unwrap();
        prop_assert_eq!(reopened.archive_stats().recovered_bytes, 0);
        prop_assert_eq!(reopened.replay(), streams);
        std::fs::remove_file(&serial_path).unwrap();
        std::fs::remove_file(&threaded_path).unwrap();
    }

    /// Arbitrary corruption of a valid v2 archive — a flipped byte, a
    /// truncation, a duplicated range, a deleted range — must never panic
    /// and never produce wrong rows: loading either fails cleanly or
    /// recovers to a strict prefix of the original stream.
    #[test]
    fn corrupted_v2_archive_loads_to_clean_error_or_intact_prefix(
        streams in arb_stream(2..8),
        full_every in 1usize..4,
        op in 0usize..4,
        a_seed in 0usize..100_000,
        b_seed in 0usize..10_000,
        flip in 1u8..255,
    ) {
        let path = tmp_archive();
        let backend = FileBackendV2::create(&path).unwrap();
        let mut log = TableLog::with_backend(Box::new(backend), full_every);
        for s in &streams {
            log.append(s);
        }
        prop_assert_eq!(log.backend_error(), None);
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let len = bytes.len();
        let a = a_seed % len;
        let b = (a + 1 + b_seed % 256).min(len);
        match op {
            0 => bytes[a] ^= flip,
            1 => bytes.truncate(a),
            2 => {
                let dup: Vec<u8> = bytes[a..b].to_vec();
                bytes.splice(a..a, dup);
            }
            _ => {
                bytes.drain(a..b);
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        // Loading must not panic. When it succeeds, every surviving
        // record is byte-faithful: the replay is a prefix of the stream
        // that was archived (possibly empty, never reordered or altered).
        if let Ok(recovered) = TableLog::load(&path, full_every) {
            let got = recovered.replay();
            prop_assert!(got.len() <= streams.len());
            prop_assert_eq!(got.as_slice(), &streams[..got.len()]);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
