//! Golden v1 fixture archives: committed MANTRARC v1 files that pin the
//! legacy on-disk format forever. Nothing writes v1 any more, so the
//! fixture is frozen: the reader must keep replaying it byte-identically
//! to a memory archive fed the same stream, recover damaged copies of it
//! to a clean prefix without writing, refuse appends with a pointer to
//! compaction, and `v1 → compact → v2` must preserve every row while
//! shrinking the file.
//!
//! The fixture stream is regenerated deterministically in-test (no
//! committed JSON), so a drift in either the fixture bytes or the reader
//! shows up as a replay diff.

use std::path::PathBuf;

use mantra::core::logger::{compact_archive, CompactOptions, TableLog};
use mantra::core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra::net::{BitRate, GroupAddr, Ip, Prefix, SimTime};

const FULL_EVERY: usize = 4;
const HEADER_LEN: u64 = 24;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/data/{name}"))
}

/// The canonical fixture stream: 10 cycles over a small multicast fleet
/// with per-cycle bandwidth drift, pair churn and a route flap — every
/// record kind and both full/delta encodings appear.
fn fixture_stream() -> Vec<Tables> {
    (0..10u64)
        .map(|n| {
            let at = SimTime(SimTime::from_ymd(1999, 2, 15).as_secs() + n * 900);
            let mut t = Tables::new("fixw", at);
            for g in 0..10u32 {
                t.add_pair(PairRow {
                    source: Ip(0x0a14_0000 + g),
                    group: GroupAddr::from_index(g),
                    current_bw: BitRate::from_bps(2_000 + 131 * n * u64::from(g == 1)),
                    avg_bw: BitRate::from_bps(2_000),
                    forwarding: g % 3 != 0,
                    learned_from: if g % 2 == 0 {
                        LearnedFrom::Dvmrp
                    } else {
                        LearnedFrom::Pim
                    },
                });
            }
            // Churn: a pair that joins halfway through.
            if n >= 5 {
                t.add_pair(PairRow {
                    source: Ip(0x0a14_0100 + n as u32),
                    group: GroupAddr::from_index(30 + n as u32),
                    current_bw: BitRate::from_bps(750),
                    avg_bw: BitRate::from_bps(750),
                    forwarding: true,
                    learned_from: LearnedFrom::Msdp,
                });
            }
            for i in 0..6u32 {
                // One prefix flaps reachability every other cycle.
                let reachable = i != 2 || n % 2 == 0;
                t.add_route(RouteRow {
                    prefix: Prefix::new(Ip(Ip::new(128, 111, 0, 0).0 + (i << 8)), 24).unwrap(),
                    next_hop: Some(Ip::new(10, 20, 0, 1)),
                    metric: 1 + i,
                    uptime: None,
                    reachable,
                    learned_from: LearnedFrom::Dvmrp,
                });
            }
            t
        })
        .collect()
}

/// Where each v1 frame of `bytes` starts, plus where the last one ends:
/// `starts[k]` is record `k`'s offset.
fn frame_starts(bytes: &[u8]) -> Vec<u64> {
    let mut starts = vec![HEADER_LEN];
    let mut pos = HEADER_LEN as usize;
    while pos + 9 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 9 + len;
        starts.push(pos as u64);
    }
    starts
}

/// Writes `bytes` to a scratch archive, loads it the way `mantra archive`
/// and the monitor do, and checks the load saw exactly `k` records with
/// `recovered` bytes dropped — and wrote nothing.
fn assert_loads_prefix(tag: &str, bytes: &[u8], k: usize, recovered: u64) {
    let path =
        std::env::temp_dir().join(format!("mantra-fixture-{tag}-{}.marc", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let streams = fixture_stream();
    for log in [
        TableLog::load(&path, FULL_EVERY).unwrap(),
        TableLog::load_read_only(&path, FULL_EVERY).unwrap(),
    ] {
        let stats = log.archive_stats();
        assert_eq!(stats.records, k as u64, "{tag}");
        assert_eq!(stats.recovered_bytes, recovered, "{tag}");
        assert_eq!(log.replay(), &streams[..k], "{tag}");
        assert_eq!(
            log.last().as_ref(),
            k.checked_sub(1).map(|i| &streams[i]),
            "{tag}"
        );
    }
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "{tag}: the load wrote"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v1_fixture_replays_byte_identically_to_memory() {
    let streams = fixture_stream();
    let log = TableLog::load(&fixture_path("fixw-v1.marc"), FULL_EVERY).unwrap();
    assert_eq!(log.backend_kind(), "file");
    assert_eq!(log.describe().format_version, 1);
    assert_eq!(log.archive_stats().recovered_bytes, 0);

    let mut mem = TableLog::new(FULL_EVERY);
    for s in &streams {
        mem.append(s);
    }
    // Same rows, same record kinds, same logical payload bytes: the v1
    // reader in the v2-capable build loses nothing.
    assert_eq!(log.replay(), streams);
    assert_eq!(log.replay(), mem.replay());
    // The fixture stores exactly the memory log's JSON payloads plus the
    // fixed 9-byte v1 frame header per record — pinning both the payload
    // bytes and the frame overhead.
    let stats = log.archive_stats();
    assert_eq!(stats.bytes, mem.bytes_stored as u64 + 9 * stats.records);
    assert_eq!(stats.checkpoints, mem.archive_stats().checkpoints);
}

#[test]
fn v1_fixture_compacts_to_an_equivalent_smaller_v2_archive() {
    let src = TableLog::load(&fixture_path("fixw-v1.marc"), FULL_EVERY).unwrap();
    let out = std::env::temp_dir().join(format!(
        "mantra-fixture-compact-{}.marc",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let (dst, dropped) = compact_archive(
        &src,
        &out,
        &CompactOptions {
            full_every: FULL_EVERY,
            ..CompactOptions::default()
        },
    )
    .unwrap();
    assert_eq!(dropped, 0);
    assert_eq!(dst.replay(), src.replay());
    // The rewrite bumps the dictionary epoch past the v1 source's 0 and
    // lands in the id-keyed format, which is strictly smaller on disk.
    let info = dst.describe();
    assert_eq!(info.format_version, 2);
    assert_eq!(info.epoch, 1);
    assert!(info.dict_entries > 0);
    assert!(
        dst.archive_stats().bytes < src.archive_stats().bytes,
        "v2 {} bytes vs v1 {} bytes",
        dst.archive_stats().bytes,
        src.archive_stats().bytes
    );
    // And the compacted archive reloads through the format sniffer.
    drop(dst);
    let reloaded = TableLog::load(&out, FULL_EVERY).unwrap();
    assert_eq!(reloaded.replay(), src.replay());
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn truncated_v1_fixture_loads_to_the_clean_prefix_without_writing() {
    let bytes = std::fs::read(fixture_path("fixw-v1.marc")).unwrap();
    let starts = frame_starts(&bytes);
    assert_eq!(starts.len(), fixture_stream().len() + 1);
    assert_eq!(*starts.last().unwrap(), bytes.len() as u64);
    // Every frame boundary ± 1, plus a stride across the whole file.
    let mut cuts: Vec<u64> = starts
        .iter()
        .flat_map(|&o| [o - 1, o, o + 1])
        .chain((HEADER_LEN..bytes.len() as u64).step_by(97))
        .filter(|&c| (HEADER_LEN..=bytes.len() as u64).contains(&c))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let k = starts[1..].iter().filter(|&&end| end <= cut).count();
        assert_loads_prefix(
            &format!("cut-{cut}"),
            &bytes[..cut as usize],
            k,
            cut - starts[k],
        );
    }
}

#[test]
fn byte_flipped_v1_fixture_loads_to_the_clean_prefix_without_writing() {
    let bytes = std::fs::read(fixture_path("fixw-v1.marc")).unwrap();
    let starts = frame_starts(&bytes);
    for k in 0..starts.len() - 1 {
        let (frame, end) = (starts[k] as usize, starts[k + 1] as usize);
        // The kind byte, a length byte, a CRC byte and payload bytes:
        // each one ends the archive at record k.
        for at in [
            frame,
            frame + 2,
            frame + 6,
            frame + 9,
            (frame + end) / 2,
            end - 1,
        ] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xA5;
            assert_loads_prefix(
                &format!("flip-{at}"),
                &flipped,
                k,
                bytes.len() as u64 - starts[k],
            );
        }
    }
}

#[test]
fn appending_to_a_loaded_v1_log_fails_with_the_compaction_hint() {
    let path =
        std::env::temp_dir().join(format!("mantra-fixture-append-{}.marc", std::process::id()));
    let bytes = std::fs::read(fixture_path("fixw-v1.marc")).unwrap();
    std::fs::write(&path, &bytes).unwrap();
    let mut log = TableLog::load(&path, FULL_EVERY).unwrap();
    let streams = fixture_stream();
    log.append(&streams[0]);
    assert_eq!(log.write_errors, 1);
    let err = log.backend_error().expect("the append must fail loudly");
    assert!(err.contains("mantra archive compact"), "{err}");
    assert_eq!(log.archive_stats().write_errors, 1);
    assert_eq!(log.replay(), streams, "the failed append changed nothing");
    drop(log);
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the append wrote");
    std::fs::remove_file(&path).unwrap();
}
