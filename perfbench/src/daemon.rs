//! The `daemon_poll` workload: `mantra daemon` as a child process in
//! single mode, collecting into on-disk archives, queried over loopback
//! HTTP by an open-loop client.
//!
//! The client sends at a fixed rate over at most two connections at a
//! time, and times each request from when it was due. Request `i` is due
//! at a seeded random point of the `i`-th slot of length `1/rate`: the
//! jitter keeps requests from locking in phase with the daemon's 50 ms
//! accept poll, and one request per slot keeps bursts short.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use mantra_net::{SimDuration, SimTime};
use serde::Value;

use crate::cycles::{self, CycleRun, CycleSpec, World, DAEMON_SEED};
use crate::plan::{schedule, Planned, Query, REPLAY_GRID, STATUS};
use crate::stats::{peak_rss_mb, Samples};

/// The daemon workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct DaemonSpec {
    /// The daemon's `--tick-ms`: pause between collection cycles.
    pub tick_ms: u64,
    /// Mean request rate of the open loop, requests per second.
    pub rate: f64,
    /// Daemon starts timed for `setup_s` (the last one is measured).
    pub setups: usize,
    /// The daemon's collection, run in-process for the cycle metrics.
    pub collect: CycleSpec,
}

/// The router the per-router requests name: the first one the daemon
/// monitors in single mode.
const ROUTER: &str = "fixw";

/// At most this many requests in flight (one connection each).
const CONNECTIONS: usize = 2;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Everything one `daemon_poll` run measured.
#[derive(Debug, Default)]
pub struct DaemonRun {
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Latency from the due time, per class.
    pub status_ms: Samples,
    pub replay_ms: Samples,
    /// Client-side layers: connect, request service after connect, and
    /// how late the generator sent.
    pub connect_ms: Samples,
    pub status_svc_ms: Samples,
    pub replay_svc_ms: Samples,
    pub lateness_ms: Samples,
    pub bytes: u64,
    pub attempted: u64,
    pub errors: u64,
    pub cycles_per_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub failures: Vec<String>,
    /// The daemon's collection timed in-process.
    pub collect: CycleRun,
}

impl DaemonRun {
    fn fail(&mut self, what: String) {
        self.errors += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// A check on the daemon itself rather than on one response: it
    /// counts as attempted whether it passes or not.
    fn check<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }
}

/// A running `mantra daemon` child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: thread::JoinHandle<String>,
}

impl Daemon {
    fn spawn(mantra: &Path, dir: &Path, tick_ms: u64) -> Result<Daemon, String> {
        let mut child = Command::new(mantra)
            .args(["daemon", "--addr", "127.0.0.1:0", "--seed"])
            .arg(DAEMON_SEED.to_string())
            .arg("--archive-dir")
            .arg(dir)
            .args(["--tick-ms", &tick_ms.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mantra.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stderr for the daemon's whole life so it never blocks on
        // a full pipe; the listening line carries the bound address.
        let stderr = thread::spawn(move || {
            let mut seen = String::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("mantrad listening on http://") {
                    let _ = tx.send(addr.trim().to_string());
                }
                seen.push_str(&line);
                seen.push('\n');
            }
            seen
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr,
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => match addr.parse() {
                Ok(a) => {
                    daemon.addr = a;
                    Ok(daemon)
                }
                Err(e) => Err(format!("daemon address {addr:?}: {e}; {}", daemon.stop().1)),
            },
            Err(_) => Err(format!("daemon did not start: {}", daemon.stop().1)),
        }
    }

    /// Stops the daemon (SIGTERM, then SIGKILL after 5 s) and waits for
    /// it. Returns its peak RSS and its stderr.
    fn stop(mut self) -> (Option<f64>, String) {
        let pid = self.child.id().to_string();
        let rss = peak_rss_mb(&pid);
        let _ = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(5);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let stderr = self.stderr.join().unwrap_or_default();
        (rss, stderr)
    }
}

/// One HTTP/1.1 GET over a fresh connection: `(status, body, connect
/// time)`. The daemon closes the connection after each response.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String, Duration), String> {
    let t = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect = t.elapsed();
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("no status code")?;
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.trim().parse::<usize>().ok());
    if length != Some(body.len()) {
        return Err(format!(
            "body is {} bytes, Content-Length says {length:?}",
            body.len()
        ));
    }
    Ok((status, body.to_string(), connect))
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn uint(v: &Value, path: &[&str]) -> Option<u64> {
    let mut v = v;
    for key in path {
        v = field(v, key)?;
    }
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// `/health` as `(cycles, sim now, cache hits, cache misses)`.
fn health(addr: SocketAddr) -> Result<(u64, u64, u64, u64), String> {
    let (status, body, _) = get(addr, "/health")?;
    if status != 200 {
        return Err(format!("/health answered {status}"));
    }
    let v: Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let n = |p: &[&str]| uint(&v, p).ok_or_else(|| format!("/health has no {}", p.join(".")));
    Ok((
        n(&["cycles"])?,
        n(&["now"])?,
        n(&["query_cache", "hits"])?,
        n(&["query_cache", "misses"])?,
    ))
}

/// Spawns the daemon and times until `/health` reports a served cycle.
fn start(mantra: &Path, dir: &Path, tick_ms: u64) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(mantra, dir, tick_ms)?;
    loop {
        if let Ok((cycles, ..)) = health(daemon.addr) {
            if cycles >= 1 {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err(format!("no cycle served within 60 s; {}", daemon.stop().1));
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// One planned read as an HTTP request.
struct Request {
    due: Duration,
    path: String,
    replay: bool,
}

impl Request {
    fn new(p: &Planned, origin: SimTime, interval: SimDuration) -> Request {
        let path = match p.query {
            Query::Status(i) if STATUS[i] == "/stats/usage" => {
                format!("{}?router={ROUTER}", STATUS[i])
            }
            Query::Status(i) => STATUS[i].to_string(),
            Query::Replay(k) => {
                let at = origin + interval * k;
                format!("/replay?router={ROUTER}&at={}", at.as_secs())
            }
        };
        Request {
            due: p.due,
            path,
            replay: matches!(p.query, Query::Replay(_)),
        }
    }
}

/// One finished request.
struct Done {
    index: usize,
    lateness: Duration,
    latency: Duration,
    service: Duration,
    result: Result<(u16, String, Duration), String>,
    finished: Instant,
}

pub fn run(
    spec: DaemonSpec,
    mantra: &Path,
    seed: u64,
    load: Duration,
    work: &Path,
    traced: bool,
) -> DaemonRun {
    let mut out = DaemonRun::default();
    for i in 0..spec.setups.saturating_sub(1) {
        let dir = work.join(format!("setup-{i}"));
        if let Some((daemon, s)) = out.check(start(mantra, &dir, spec.tick_ms)) {
            out.setup_s.push(s);
            daemon.stop();
        }
    }
    out.collect = cycles::run(
        spec.collect,
        seed,
        Duration::ZERO,
        &work.join("collect"),
        traced,
        &[],
    );

    let sc = World::Daemon.build(DAEMON_SEED);
    let (origin, interval) = (sc.sim.clock, sc.sim.tick());
    drop(sc);
    let dir = work.join("daemon");
    let Some((daemon, s)) = out.check(start(mantra, &dir, spec.tick_ms)) else {
        return out;
    };
    out.setup_s.push(s);
    // Replays go to the first REPLAY_GRID cycle times; wait until all of
    // them are archived, so a fixed `at` always names the same prefix.
    let warm = origin + interval * REPLAY_GRID;
    let deadline = Instant::now() + Duration::from_secs(60);
    let warmed = loop {
        match health(daemon.addr) {
            Ok((_, now, ..)) if now >= warm.as_secs() => break Ok(()),
            Err(e) => break Err(e),
            _ if Instant::now() > deadline => {
                break Err("daemon did not collect the replay grid within 60 s".into())
            }
            _ => thread::sleep(Duration::from_millis(20)),
        }
    };
    out.check(warmed);
    let plan: Vec<Request> = schedule(spec.rate, load, seed)
        .iter()
        .map(|p| Request::new(p, origin, interval))
        .collect();
    let done = drive(daemon.addr, &plan);
    check_responses(&mut out, &plan, done);
    let (rss, _) = daemon.stop();
    if let Some(r) = out.check(rss.ok_or_else(|| "daemon peak RSS unreadable".to_string())) {
        out.peak_rss_mb = r;
    }
    out
}

/// Sends the plan over [`CONNECTIONS`] workers; each takes the next due
/// request, waits for its due time (or sends at once when late) and
/// reads the whole response.
fn drive(addr: SocketAddr, plan: &[Request]) -> Vec<Done> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut done: Vec<Done> = thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(p) = plan.get(i) else { return mine };
                        let due = t0 + p.due;
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let result = get(addr, &p.path);
                        let finished = Instant::now();
                        mine.push(Done {
                            index: i,
                            lateness: sent.saturating_duration_since(due),
                            latency: finished - due,
                            service: finished - sent,
                            result,
                            finished,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client worker panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.index);
    done
}

/// Checks every response (200, valid JSON, fixed-`at` replays identical
/// apart from the cache counters) and folds the timings.
fn check_responses(out: &mut DaemonRun, plan: &[Request], done: Vec<Done>) {
    let mut replays: std::collections::BTreeMap<&str, Value> = Default::default();
    let mut healths: Vec<(Instant, u64, u64, u64)> = Vec::new();
    for d in done {
        let p = &plan[d.index];
        out.attempted += 1;
        out.lateness_ms.push(ms(d.lateness));
        let (status, body, connect) = match d.result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{}: {e}", p.path));
                continue;
            }
        };
        out.connect_ms.push(ms(connect));
        out.bytes += body.len() as u64;
        if p.replay {
            out.replay_ms.push(ms(d.latency));
            out.replay_svc_ms.push(ms(d.service));
        } else {
            out.status_ms.push(ms(d.latency));
            out.status_svc_ms.push(ms(d.service));
        }
        if status != 200 {
            out.fail(format!("{}: status {status}", p.path));
            continue;
        }
        let v: Value = match serde_json::from_str(&body) {
            Ok(v) => v,
            Err(e) => {
                out.fail(format!("{}: invalid JSON: {e}", p.path));
                continue;
            }
        };
        if p.replay {
            let Value::Map(mut m) = v else {
                out.fail(format!("{}: not a JSON object", p.path));
                continue;
            };
            m.retain(|(k, _)| k != "cache");
            let stable = Value::Map(m);
            let first = replays.entry(&p.path).or_insert_with(|| stable.clone());
            if *first != stable {
                out.fail(format!("{}: body differs from its first answer", p.path));
            }
        } else if p.path == "/health" {
            let n = |k: &[&str]| uint(&v, k).unwrap_or(0);
            healths.push((
                d.finished,
                n(&["cycles"]),
                n(&["query_cache", "hits"]),
                n(&["query_cache", "misses"]),
            ));
        }
    }
    healths.sort_by_key(|h| h.0);
    if let (Some(a), Some(b)) = (healths.first(), healths.last()) {
        let secs = (b.0 - a.0).as_secs_f64();
        if secs > 0.0 {
            out.cycles_per_s = (b.1 - a.1) as f64 / secs;
        }
        out.cache_hits = b.2.saturating_sub(a.2);
        out.cache_misses = b.3.saturating_sub(a.3);
    }
    let collected = if out.cycles_per_s > 0.0 {
        Ok(())
    } else {
        Err("the daemon collected no cycles while serving".to_string())
    };
    out.check(collected);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
