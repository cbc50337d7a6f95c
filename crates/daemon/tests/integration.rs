//! End-to-end daemon test: spawn `mantrad` in-process against a real
//! simulated internetwork and a real on-disk archive, then drive every
//! endpoint over actual TCP. The JSON assertions are golden *shapes* —
//! exact key names in exact order (the daemon's `Obj` builder preserves
//! insertion order) — plus the hard acceptance check: `/replay` lines
//! byte-identical to an offline [`ArchiveReader`] over the same archive.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use mantra_core::archive::ArchiveReader;
use mantra_core::collector::SimAccess;
use mantra_core::{ArchiveSpec, Monitor, MonitorConfig, SyncPolicy};
use mantra_daemon::{spawn, DaemonConfig, Engine};
use mantra_sim::Scenario;
use serde::Value;

const CYCLES: u64 = 4;

/// One blocking HTTP/1.1 GET: returns (status, content-type, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to mantrad");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status: u16 = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_type = head
        .lines()
        .find_map(|l| {
            let (name, v) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-type")
                .then(|| v.trim().to_string())
        })
        .unwrap_or_default();
    (status, content_type, body.to_string())
}

fn json(addr: SocketAddr, path: &str) -> Value {
    let (status, ct, body) = get(addr, path);
    assert_eq!(status, 200, "{path}: {body}");
    assert_eq!(ct, "application/json", "{path}");
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("{path}: bad JSON ({e}): {body}"))
}

/// The object's keys, in serialization order — the golden shape.
fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key:?} in {v:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => u64::try_from(*n).unwrap(),
        other => panic!("expected unsigned integer, got {other:?}"),
    }
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

const CACHE_KEYS: [&str; 4] = ["hits", "misses", "evictions", "entries"];
const PARSE_KEYS: [&str; 4] = ["parsed", "malformed", "skipped", "rejected_mixed"];

#[test]
fn daemon_serves_golden_json_and_replay_matches_offline_reader() {
    let dir = std::env::temp_dir().join(format!("mantrad-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The same engine `mantra daemon` builds: a warm scenario, two
    // monitored routers, archives on disk.
    let mut sc = Scenario::transition_snapshot(1998, 0.4);
    sc.sim.set_report_loss(0.0);
    let monitor = Monitor::new(MonitorConfig {
        routers: vec!["fixw".into(), "ucsb-gw".into()],
        interval: sc.sim.tick(),
        archive: ArchiveSpec::File {
            dir: dir.clone(),
            sync: SyncPolicy::default(),
        },
        ..MonitorConfig::default()
    });
    let interval = monitor.cfg.interval;
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".into(),
        router: "fixw".into(),
        refresh_secs: 1,
        tick: Duration::from_millis(5),
        max_cycles: Some(CYCLES),
        topology_events: vec![(
            mantra_net::SimTime::from_ymd(1999, 1, 1),
            "link fixw--ucsb-gw down".into(),
        )],
    };
    let handle = spawn(cfg, Engine::Single(monitor), move |engine: &mut Engine| {
        let next = sc.sim.clock + interval;
        sc.sim.advance_to(next);
        if let Engine::Single(m) = engine {
            m.run_cycle(&mut SimAccess::new(&sc.sim), next);
        }
        next
    })
    .expect("spawn mantrad");
    let addr = handle.addr();

    // Collection quiesces after max_cycles but the daemon keeps serving.
    let deadline = Instant::now() + Duration::from_secs(60);
    let health = loop {
        let h = json(addr, "/health");
        if uint(field(&h, "cycles")) >= CYCLES {
            break h;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached {CYCLES} cycles"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    // /health — golden shape, both routers present and healthy.
    assert_eq!(
        keys(&health),
        [
            "cycles",
            "now",
            "capture_failures",
            "anomalies",
            "query_cache",
            "topology_events",
            "routers"
        ]
    );
    // The configured churn timeline predates the scenario window, so it
    // is already visible — and keyed as {at, event} rows.
    let events = seq(field(&health, "topology_events"));
    assert_eq!(events.len(), 1);
    assert_eq!(keys(&events[0]), ["at", "event"]);
    assert_eq!(
        string(field(&events[0], "event")),
        "link fixw--ucsb-gw down"
    );
    assert_eq!(keys(field(&health, "query_cache")), CACHE_KEYS);
    let routers = seq(field(&health, "routers"));
    assert_eq!(routers.len(), 2);
    for (row, name) in routers.iter().zip(["fixw", "ucsb-gw"]) {
        assert_eq!(
            keys(row),
            [
                "router",
                "ok",
                "failed",
                "retries",
                "recovered",
                "salvaged",
                "raw_bytes",
                "last_success",
                "stale",
                "state",
                "missed_cycles",
                "rejoins",
                "archive_degraded"
            ]
        );
        assert_eq!(string(field(row, "state")), "active");
        assert_eq!(uint(field(row, "missed_cycles")), 0);
        assert_eq!(string(field(row, "router")), name);
        // Several captures land per cycle (one per table command); a
        // lossless run has a clean multiple of them and zero failures.
        let ok = uint(field(row, "ok"));
        assert!(ok >= CYCLES && ok.is_multiple_of(CYCLES), "{name}: ok={ok}");
        assert_eq!(uint(field(row, "failed")), 0, "{name}: lossless run");
        assert_eq!(field(row, "stale"), &Value::Bool(false), "{name}");
    }

    // /parse — totals accumulate across cycles, last covers one cycle.
    let parse = json(addr, "/parse");
    assert_eq!(keys(&parse), ["degraded", "totals", "last"]);
    assert_eq!(keys(field(&parse, "totals")), PARSE_KEYS);
    assert_eq!(keys(field(&parse, "last")), PARSE_KEYS);
    assert_eq!(field(&parse, "degraded"), &Value::Bool(false));
    let total_parsed = uint(field(field(&parse, "totals"), "parsed"));
    let last_parsed = uint(field(field(&parse, "last"), "parsed"));
    assert!(total_parsed >= last_parsed && last_parsed > 0);

    // /stats/usage — one UsageStats per completed cycle.
    let usage = json(addr, "/stats/usage?router=fixw");
    assert_eq!(
        keys(&usage),
        ["router", "state", "retired", "cycles", "usage"]
    );
    assert_eq!(string(field(&usage, "router")), "fixw");
    assert_eq!(string(field(&usage, "state")), "active");
    assert_eq!(field(&usage, "retired"), &Value::Bool(false));
    assert_eq!(uint(field(&usage, "cycles")), CYCLES);
    assert_eq!(seq(field(&usage, "usage")).len() as u64, CYCLES);

    // /anomalies — since is echoed (null without the parameter).
    let anomalies = json(addr, "/anomalies");
    assert_eq!(keys(&anomalies), ["since", "anomalies"]);
    assert_eq!(field(&anomalies, "since"), &Value::Null);
    let all = seq(field(&anomalies, "anomalies")).len();
    let late = json(addr, "/anomalies?since=2100-01-01");
    assert!(seq(field(&late, "anomalies")).len() <= all);
    assert_eq!(
        uint(field(&late, "since")),
        mantra_net::SimTime::from_ymd(2100, 1, 1).as_secs()
    );

    // /replay — the acceptance check: byte-identical to an offline
    // ArchiveReader over the same on-disk archive.
    let archive = ArchiveSpec::path_for(&dir, "fixw");
    let offline = ArchiveReader::open(&archive).expect("offline open");
    let offline_lines = offline.summary_lines(offline.len()).unwrap();
    assert_eq!(offline.len() as u64, CYCLES);

    let replay = json(addr, "/replay?router=fixw");
    assert_eq!(
        keys(&replay),
        ["router", "at", "records", "snapshots", "cache", "lines"]
    );
    assert_eq!(field(&replay, "at"), &Value::Null);
    assert_eq!(uint(field(&replay, "records")), CYCLES);
    assert_eq!(uint(field(&replay, "snapshots")), CYCLES);
    let served: Vec<&str> = seq(field(&replay, "lines")).iter().map(string).collect();
    assert_eq!(
        served, offline_lines,
        "daemon replay diverges from offline reader"
    );

    // Same query again: answered from the cache, and the counter proves it.
    let hits_before = uint(field(field(&replay, "cache"), "hits"));
    let again = json(addr, "/replay?router=fixw");
    let served_again: Vec<&str> = seq(field(&again, "lines")).iter().map(string).collect();
    assert_eq!(served_again, offline_lines);
    assert!(
        uint(field(field(&again, "cache"), "hits")) > hits_before,
        "repeat query did not hit the cache"
    );

    // Time travel: at= the second record's capture time replays exactly
    // the first two snapshots.
    let at = offline.times()[1].as_secs();
    let travel = json(addr, &format!("/replay?router=fixw&at={at}"));
    assert_eq!(uint(field(&travel, "at")), at);
    assert_eq!(uint(field(&travel, "records")), 2);
    let travelled: Vec<&str> = seq(field(&travel, "lines")).iter().map(string).collect();
    assert_eq!(travelled, &offline_lines[..2]);

    // Errors are JSON too, with the right statuses.
    for (path, want) in [
        ("/stats/usage", 400),
        ("/stats/usage?router=nowhere", 404),
        ("/replay", 400),
        ("/replay?router=nowhere", 404),
        ("/replay?router=fixw&at=whenever", 400),
        ("/no-such-endpoint", 404),
    ] {
        let (status, ct, body) = get(addr, path);
        assert_eq!(status, want, "{path}");
        assert_eq!(ct, "application/json", "{path}");
        let err: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(keys(&err), ["error"], "{path}");
    }

    // The live report: HTML with the auto-refresh strip wired in.
    let (status, ct, html) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(ct.starts_with("text/html"), "content-type {ct}");
    assert!(html.contains("<svg"), "report lost its charts");
    assert!(html.contains("id=\"live\""), "live status strip missing");
    assert!(html.contains("/health"), "live poller must query /health");

    handle.stop();
    assert!(archive_untouched_after_stop(&archive));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// After shutdown the archive is still a clean, openable v2 file — the
/// daemon's read path never left it mid-mutation.
fn archive_untouched_after_stop(path: &Path) -> bool {
    ArchiveReader::open(path).is_ok()
}
