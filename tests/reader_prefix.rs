//! The daemon's read path lives or dies on one invariant: an
//! [`ArchiveReader`] opened against *any* byte-length prefix of a v2
//! archive — including prefixes that end mid-frame, because the writer
//! is still appending — replays a clean prefix of the record stream,
//! never an error and never a torn row. These tests sweep every byte
//! growth point offline, chase a live writer with a refreshing reader,
//! and pin the read-only-opens-never-write guarantee with a
//! byte-identity check.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mantra::core::archive::{replay_summary_line, ArchiveBackend, ArchiveReader, FileBackendV2};
use mantra::core::logger::TableLog;
use mantra::core::tables::{LearnedFrom, PairRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, SimTime};

const FULL_EVERY: usize = 3;
const HEADER_LEN: u64 = 24;

/// Deterministic churn: full and delta records, dictionary growth and
/// checkpoints all appear (same shape the crash-injection suite uses).
fn snapshot(n: u64) -> Tables {
    let at = SimTime(SimTime::from_ymd(1998, 11, 1).as_secs() + n * 900);
    let mut t = Tables::new("fixw", at);
    for g in 0..12 {
        t.add_pair(PairRow {
            source: Ip(0x0a00_0000 + g),
            group: GroupAddr::from_index(g),
            current_bw: BitRate::from_bps(1_000 + 97 * n * u64::from(g == 0)),
            avg_bw: BitRate::from_bps(1_000),
            forwarding: g % 2 == 0,
            learned_from: LearnedFrom::Dvmrp,
        });
    }
    if n >= 3 {
        t.add_pair(PairRow {
            source: Ip(0x0a00_0100 + n as u32),
            group: GroupAddr::from_index(20 + n as u32),
            current_bw: BitRate::from_bps(500),
            avg_bw: BitRate::from_bps(500),
            forwarding: true,
            learned_from: LearnedFrom::Pim,
        });
    }
    t
}

fn stream() -> Vec<Tables> {
    (0..8).map(snapshot).collect()
}

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mantra-reader-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.marc"))
}

fn write_archive(path: &PathBuf, streams: &[Tables]) {
    let _ = std::fs::remove_file(path);
    let mut log =
        TableLog::with_backend(Box::new(FileBackendV2::create(path).unwrap()), FULL_EVERY);
    for s in streams {
        log.append(s);
    }
    assert_eq!(log.backend_error(), None);
}

#[test]
fn reader_at_every_byte_growth_point_yields_a_clean_prefix() {
    let streams = stream();
    let full = tmp_path("growth-full");
    write_archive(&full, &streams);
    let bytes = std::fs::read(&full).unwrap();

    // Ground truth: record-batch end offsets and the full summary.
    let offsets: Vec<u64> = FileBackendV2::open(&full).unwrap().offsets().to_vec();
    let ground: Vec<String> = streams
        .iter()
        .enumerate()
        .map(|(i, t)| replay_summary_line(i, t))
        .collect();

    // A writer extends the file one byte at a time, as far as any
    // concurrent observer can tell. At every possible length the reader
    // must open, see exactly the wholly-contained records, and replay
    // them without error.
    let prefix = tmp_path("growth-prefix");
    for cut in HEADER_LEN as usize..=bytes.len() {
        std::fs::write(&prefix, &bytes[..cut]).unwrap();
        let rd =
            ArchiveReader::open(&prefix).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        let expect = offsets[1..]
            .iter()
            .filter(|&&end| end <= cut as u64)
            .count();
        assert_eq!(rd.len(), expect, "cut {cut}: visible record count");
        let lines = rd
            .summary_lines(rd.len())
            .unwrap_or_else(|e| panic!("cut {cut}: replay failed: {e}"));
        assert_eq!(
            lines,
            ground[..expect],
            "cut {cut}: replay is not a clean prefix"
        );
        // The frozen prefix is never mutated by the read.
        assert_eq!(
            std::fs::metadata(&prefix).unwrap().len(),
            cut as u64,
            "cut {cut}"
        );
    }
    std::fs::remove_file(&full).unwrap();
    std::fs::remove_file(&prefix).unwrap();
}

#[test]
fn refreshing_reader_chases_a_live_writer_without_torn_rows() {
    let streams = stream();
    let ground: Vec<String> = streams
        .iter()
        .enumerate()
        .map(|(i, t)| replay_summary_line(i, t))
        .collect();
    let path = tmp_path("live");
    let _ = std::fs::remove_file(&path);

    let writer_path = path.clone();
    let writer_streams = streams.clone();
    let writer = std::thread::spawn(move || {
        let backend = FileBackendV2::create(&writer_path).unwrap();
        let mut log = TableLog::with_backend(Box::new(backend), FULL_EVERY);
        for s in &writer_streams {
            log.append(s);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(log.backend_error(), None);
    });

    // Open as soon as the header lands, then refresh until every record
    // is visible. Each snapshot must be a clean, monotonically growing
    // prefix of the final stream.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rd = loop {
        match ArchiveReader::open(&path) {
            Ok(rd) => break rd,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("reader never opened: {e}"),
        }
    };
    // The open already scanned whatever the writer had landed, so the
    // first prefix is checked before any refresh.
    let mut seen = rd.len();
    loop {
        let lines = rd.summary_lines(seen).unwrap();
        assert_eq!(
            lines,
            ground[..seen],
            "mid-write replay is not a clean prefix"
        );
        if seen == streams.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reader stalled at {seen} records"
        );
        std::thread::sleep(Duration::from_millis(1));
        let grew = rd.refresh().unwrap();
        assert_eq!(rd.len(), seen + grew, "refresh must only extend the prefix");
        seen = rd.len();
    }
    writer.join().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn read_only_opens_leave_a_torn_archive_byte_identical() {
    let streams = stream();
    let path = tmp_path("readonly-hash");
    write_archive(&path, &streams);

    // Tear the tail: the last frame loses its final 3 bytes, exactly
    // what a crashed writer leaves behind.
    let clean_len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(clean_len - 3).unwrap();
    drop(f);
    let before = std::fs::read(&path).unwrap();

    // Every read-only entry point: bytes untouched, clean prefix served.
    let rd = ArchiveReader::open(&path).unwrap();
    assert_eq!(rd.len(), streams.len() - 1);
    assert_eq!(
        rd.summary_lines(rd.len()).unwrap(),
        streams[..streams.len() - 1]
            .iter()
            .enumerate()
            .map(|(i, t)| replay_summary_line(i, t))
            .collect::<Vec<_>>()
    );
    assert_eq!(std::fs::read(&path).unwrap(), before, "ArchiveReader wrote");

    assert!(rd.stats().recovered_bytes > 0, "the torn tail is accounted");

    // Through a log the reader is the backend: it replays the prefix
    // and refuses appends, loudly.
    let mut log = TableLog::load_read_only(&path, FULL_EVERY).unwrap();
    assert_eq!(log.replay().as_slice(), &streams[..streams.len() - 1]);
    log.append(&streams[streams.len() - 1]);
    assert_eq!(log.write_errors, 1);
    assert!(log.backend_error().is_some_and(|e| e.contains("read-only")));
    assert_eq!(log.archive_stats().write_errors, 1);
    drop(log);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "TableLog::load_read_only wrote"
    );

    // The owning writer is the one allowed to heal: opening it
    // truncates the torn tail — strictly shorter, still a byte prefix.
    let be = FileBackendV2::open(&path).unwrap();
    assert_eq!(be.len(), streams.len() - 1);
    assert_eq!(be.stats().recovered_bytes, rd.stats().recovered_bytes);
    drop(be);
    let after = std::fs::read(&path).unwrap();
    assert!(after.len() < before.len(), "the writer's open did not heal");
    assert_eq!(&before[..after.len()], after.as_slice());
    std::fs::remove_file(&path).unwrap();
}
