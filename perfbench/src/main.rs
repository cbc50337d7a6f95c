//! One command that times a Mantra collection cycle and `mantra daemon`
//! end to end and layer by layer.
//!
//! ```text
//! perfbench --workload fixw_paper|fleet_ramp|daemon_poll --seed N \
//!           --seconds S --trace 0|1 --mantra PATH [--smoke]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any output check failed. `perfbench/README.md` describes the
//! workloads and metrics; `perfbench/run.py` builds and runs this.

mod cycles;
mod daemon;
mod plan;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use cycles::{CycleRun, CycleSpec, World};
use daemon::{DaemonRun, DaemonSpec};
use stats::{median, median_of, Samples};
use trace::{ms_per_cycle, LayerCycle, Layers};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    mantra: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut mantra, mut smoke) =
        (None, None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--mantra" => mantra = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        mantra: mantra.ok_or("--mantra is required")?,
        smoke,
    })
}

/// The three workloads. `--smoke` shrinks each to a few seconds.
fn fixw_paper(smoke: bool) -> CycleSpec {
    CycleSpec {
        world: World::FixwPaper,
        shards: 1,
        // At smoke size still long enough for a tail per episode, so the
        // twin fleet runs too.
        cycles: if smoke { 60 } else { 96 },
        // Ten rather than twelve worlds pay for the twin fleet: a run
        // stays about as long as without it.
        worlds: if smoke { 1 } else { 10 },
    }
}

fn fleet_ramp(smoke: bool) -> CycleSpec {
    CycleSpec {
        world: World::FleetRamp {
            routers: if smoke { 30 } else { 200 },
        },
        shards: 2,
        cycles: 4,
        worlds: if smoke { 1 } else { 12 },
    }
}

/// Requests per second of the read mix: well below mantrad's capacity at
/// the seed, about 20 per connection.
fn rate(smoke: bool) -> f64 {
    if smoke {
        10.0
    } else {
        20.0
    }
}

fn daemon_poll(smoke: bool) -> DaemonSpec {
    DaemonSpec {
        tick_ms: 100,
        rate: rate(smoke),
        setups: if smoke { 2 } else { 3 },
        collect: CycleSpec {
            world: World::Daemon,
            shards: 1,
            cycles: if smoke { 12 } else { 96 },
            // Replicas of the daemon's one world, folded into one episode
            // (see `World::replicated`).
            worlds: if smoke { 1 } else { 4 },
        },
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// `<name>.p50` over per-cycle (or per-request) samples and
    /// `<name>.total` over `per` episodes.
    fn ms(&mut self, name: &str, s: &Samples, per: f64) {
        self.put(&format!("{name}.p50"), s.p50(), "ms");
        self.put(&format!("{name}.total"), s.sum() / per, "ms");
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// End-to-end metrics of the cycle side (cycle workloads, and the
/// daemon's collection timed in-process).
fn cycle_e2e(m: &mut Metrics, r: &CycleRun) {
    let (tail, pct) = r.cycle_tail();
    println!(
        "# cycles measured: {} over {} episode(s); cycle_tail_ms is p{pct:.1} of each of {} sets of {} cycles, median over sets",
        r.cycle_ms.len(),
        r.episodes,
        r.tail_sets.len(),
        r.tail_sets.first().map_or(0, |s| s.len()),
    );
    let sets: Vec<String> = r
        .tail_sets
        .iter()
        .map(|s| format!("{:.2}/{:.2}", s.p50(), s.tail().0))
        .collect();
    println!("# per set p50/tail ms: {}", sets.join(" "));
    m.put("cycle_p50_ms", r.cycle_ms.p50(), "ms");
    m.put("cycle_tail_ms", tail, "ms");
    m.put(
        "rows_per_s",
        ratio(r.cycle_rows as f64, r.cycle_ms.sum() / 1e3),
        "1/s",
    );
    m.put(
        "archive_bytes_per_row",
        ratio(r.archive_bytes as f64, r.archive_rows as f64),
        "B",
    );
}

/// The Harrell–Davis p99 of a sample set.
fn p99(s: &Samples) -> f64 {
    s.hd(99.0)
}

fn end_to_end_cycles(r: &CycleRun) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&r.setup_s), "s");
    cycle_e2e(&mut m, r);
    m.put("peak_rss_mb", median(&r.peak_rss_mb), "MiB");
    let q = &r.queries;
    m.put("status_p50_ms", q.status_ms.p50(), "ms");
    m.put("status_p99_ms", median_of(&q.status_sets, p99), "ms");
    m.put("replay_p50_ms", q.replay_ms.p50(), "ms");
    m.put("replay_p99_ms", median_of(&q.replay_sets, p99), "ms");
    m.put(
        "collect_cycles_per_s",
        ratio(r.cycle_ms.len() as f64, r.loop_s),
        "1/s",
    );
    m
}

fn end_to_end_daemon(r: &DaemonRun) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(&r.setup_s), "s");
    cycle_e2e(&mut m, &r.collect);
    m.put("peak_rss_mb", r.peak_rss_mb, "MiB");
    m.put("status_p50_ms", r.status_ms.p50(), "ms");
    m.put("status_p99_ms", p99(&r.status_ms), "ms");
    m.put("replay_p50_ms", r.replay_ms.p50(), "ms");
    m.put("replay_p99_ms", p99(&r.replay_ms), "ms");
    m.put("collect_cycles_per_s", r.cycles_per_s, "1/s");
    m
}

/// Per-layer metrics of the traced cycle pipeline. Times are `.p50` per
/// measured cycle and `.total` per episode; counts are per episode.
fn cycle_layers(m: &mut Metrics, r: &CycleRun) {
    let tt = r.traced.as_ref().expect("a traced run");
    let layers = tt.tracer.layers(&tt.measured);
    let eps = r.episodes.max(1) as f64;
    let total = |c: &LayerCycle| c.total_ns;
    let mut timed = |name: &str, layer: &str| {
        m.ms(name, &ms_per_cycle(&layers, layer, total), eps);
    };
    timed("sim.advance_ms", "sim.advance");
    timed("router_cli.render_ms", "router_cli.render");
    timed("collector.capture_ms", "collector.capture");
    timed("processor.parse_ms", "processor.parse");
    timed("pipeline.enrich_ms", "pipeline.enrich");
    timed("logger.log_ms", "logger.log");
    timed("stats_stream.analyse_ms", "stats_stream.analyse");
    timed("anomaly.join_ms", "anomaly.join");
    let capture_self = ms_per_cycle(&layers, "collector.capture", |c| c.self_ns);
    m.ms("collector.self_ms", &capture_self, eps);
    let per_episode = |n: u64| n as f64 / eps;
    let renders =
        |f: fn(&LayerCycle) -> u64| per_episode(trace::sum(&layers, "router_cli.render", f));
    m.put("router_cli.bytes", renders(|c| c.items), "B");
    m.put("router_cli.calls", renders(|c| c.calls), "count");
    m.put(
        "collector.failures",
        per_episode(tt.failures + r.failed),
        "count",
    );
    m.put("processor.records", per_episode(tt.parsed), "count");
    m.put("processor.malformed", per_episode(tt.malformed), "count");
    m.put(
        "processor.useful_ratio",
        ratio(tt.parsed as f64, (tt.parsed + tt.malformed) as f64),
        "ratio",
    );
    m.put("pipeline.routers", per_episode(tt.routers), "count");
    m.put("logger.records", per_episode(tt.records), "count");
    m.put("archive.bytes_written", per_episode(tt.archive_bytes), "B");
    m.put("anomaly.detected", per_episode(tt.anomalies), "count");
    m.put("anomaly.join_views", per_episode(tt.join_views), "count");
    let traced_ms = ms_per_cycle(&layers, "cycle", total).sum();
    m.put(
        "trace.overhead_pct",
        100.0 * ratio(traced_ms - tt.untraced_ms, tt.untraced_ms),
        "%",
    );
    print_self_times(&layers);
}

/// Prints each stage's summed self time, largest first.
fn print_self_times(layers: &Layers) {
    let mut selfs: Vec<(f64, &str)> = layers
        .keys()
        .filter(|name| !matches!(**name, "cycle" | "sim.advance"))
        .map(|name| (trace::sum(layers, name, |c| c.self_ns) as f64 / 1e6, *name))
        .collect();
    selfs.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (ms, name) in selfs {
        println!("# self time {name:<22} {ms:>12.3} ms");
    }
}

fn per_layer_cycles(r: &CycleRun) -> Metrics {
    let mut m = Metrics::default();
    cycle_layers(&mut m, r);
    let q = &r.queries;
    let eps = r.episodes.max(1) as f64;
    m.ms("daemon.connect_ms", &q.resolve_ms, eps);
    m.ms("daemon.status_ms", &q.status_request_ms, eps);
    m.ms("daemon.replay_ms", &q.replay_ms, eps);
    m.put("daemon.bytes", q.bytes as f64 / eps, "B");
    m.put(
        "archive.cache_hit_ratio",
        ratio(q.cache_hits as f64, (q.cache_hits + q.cache_misses) as f64),
        "ratio",
    );
    m.ms("client.lateness_ms", &q.lateness_ms, eps);
    m.put(
        "query_error_rate",
        ratio(q.errors as f64, q.attempted as f64),
        "ratio",
    );
    m
}

fn per_layer_daemon(r: &DaemonRun) -> Metrics {
    let mut m = Metrics::default();
    cycle_layers(&mut m, &r.collect);
    m.ms("daemon.connect_ms", &r.connect_ms, 1.0);
    m.ms("daemon.status_ms", &r.status_svc_ms, 1.0);
    m.ms("daemon.replay_ms", &r.replay_svc_ms, 1.0);
    m.put("daemon.bytes", r.bytes as f64, "B");
    m.put(
        "archive.cache_hit_ratio",
        ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
        "ratio",
    );
    m.ms("client.lateness_ms", &r.lateness_ms, 1.0);
    m.put(
        "query_error_rate",
        ratio(r.errors as f64, r.attempted as f64),
        "ratio",
    );
    m
}

fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mem = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or("?".into(), |kb| format!("{:.1} GiB", kb / 1048576.0));
    format!(
        "{cpu}, {threads} hardware threads, {mem} RAM, {}",
        std::env::consts::OS
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("a working directory");
    let work = root.join(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let budget = Duration::from_secs(args.seconds);
    println!("# machine: {}", machine());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (metrics, attempted, failed, failures) = match args.workload.as_str() {
        "fixw_paper" | "fleet_ramp" => {
            let spec = if args.workload == "fixw_paper" {
                fixw_paper(args.smoke)
            } else {
                fleet_ramp(args.smoke)
            };
            // The read mix daemon_poll sends in a run, made after each episode.
            let reads = plan::schedule(rate(args.smoke), budget, args.seed);
            let r = cycles::run(spec, args.seed, budget, &work, args.trace, &reads);
            let m = if args.trace {
                per_layer_cycles(&r)
            } else {
                end_to_end_cycles(&r)
            };
            let attempted = r.checks + r.queries.attempted;
            (m, attempted, r.failed + r.queries.errors, r.failures)
        }
        "daemon_poll" => {
            let r = daemon::run(
                daemon_poll(args.smoke),
                &args.mantra,
                args.seed,
                budget,
                &work,
                args.trace,
            );
            let m = if args.trace {
                per_layer_daemon(&r)
            } else {
                end_to_end_daemon(&r)
            };
            let attempted = r.attempted + r.collect.checks;
            let mut failures = r.failures;
            failures.extend(r.collect.failures);
            (m, attempted, r.errors + r.collect.failed, failures)
        }
        other => {
            eprintln!(
                "perfbench: unknown workload {other:?} (fixw_paper, fleet_ramp, daemon_poll)"
            );
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    // Removes .bench_work too when no other run is using it.
    let _ = std::fs::remove_dir(root.join(".bench_work"));
    for f in &failures {
        println!("# CHECK FAILED: {f}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("# {name:<28} {value:>16.4} {unit}");
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
