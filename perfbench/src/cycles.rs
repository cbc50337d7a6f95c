//! The cycle workloads: a scenario's world advanced tick by tick and
//! monitored by a [`FleetMonitor`] with on-disk MANTRARC v2 archives.
//!
//! A run is a sequence of *rounds* of *episodes*. Each episode builds a
//! scenario (set-up), runs a fixed number of cycles and checks the
//! archives it wrote. A round is one episode per world, the worlds being
//! [`CycleSpec::worlds`] scenario seeds derived from `--seed`: averaging
//! over several worlds keeps one seed's table sizes from moving the
//! figures. Whole rounds are repeated while they fit in the run's time,
//! so the pooled samples come from the same fixed work however many
//! rounds ran, and a tail is taken within a fixed sample set (an episode
//! or a round) so that its percentile does not depend on the round count
//! either.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mantra_core::anomaly::InconsistencyMonitor;
use mantra_core::archive::{ArchiveReader, ArchiveSpec, SyncPolicy};
use mantra_core::monitor::CycleReport;
use mantra_core::pipeline::{
    AnalyseStage, EnrichStage, LogStage, ParallelCaptureStage, ParseStage, RouterState,
};
use mantra_core::{Collector, FleetMonitor, MonitorConfig, Stage, TableStore, Tables};
use mantra_net::{GroupAddr, SimTime};
use mantra_sim::{Scenario, Simulation};

use crate::plan::{Planned, Query, REPLAY_GRID, STATUS};
use crate::stats::{dir_bytes, median, peak_rss_mb, reset_peak_rss, Samples, TAIL_BEYOND};
use crate::trace::{TimingAccess, Tracer};

/// Which world a cycle workload monitors.
#[derive(Clone, Copy, Debug)]
pub enum World {
    /// `Scenario::fixw_six_months`: the paper's two collection points at
    /// the paper's 15-minute interval.
    FixwPaper,
    /// `Scenario::fleet_snapshot(seed, routers, 0.5)`: every router
    /// monitored, hourly ticks, tables that grow every cycle.
    FleetRamp { routers: usize },
    /// `Scenario::transition_snapshot(DAEMON_SEED, 0.4)` with 2% report
    /// loss, whatever the seed: what `mantra daemon --seed 1998` collects
    /// in single mode.
    Daemon,
}

/// The daemon's scenario seed: the CLI's default world, the same in every
/// run (`--seed` varies the request plan). A world drawn from `--seed`
/// made that one world's tick cost part of the spread across seeds.
pub const DAEMON_SEED: u64 = 1998;

impl World {
    /// Whether the world is the same whatever the seed, so that the
    /// episodes of a round are replicas of one episode. Their cycles are
    /// then folded into one set, each cycle at its fastest: replicas run
    /// seconds apart, so a slow spell of the shared machine rarely covers
    /// all of them, while twins (see [`CycleSpec::twin`]) run
    /// milliseconds apart and often meet the same spell.
    pub fn replicated(self) -> bool {
        matches!(self, World::Daemon)
    }

    pub fn build(self, seed: u64) -> Scenario {
        match self {
            World::FixwPaper => Scenario::fixw_six_months(seed),
            World::FleetRamp { routers } => Scenario::fleet_snapshot(seed, routers, 0.5),
            World::Daemon => {
                let mut sc = Scenario::transition_snapshot(DAEMON_SEED, 0.4);
                sc.sim.set_report_loss(0.02);
                sc
            }
        }
    }
}

/// A cycle workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct CycleSpec {
    pub world: World,
    pub shards: usize,
    /// Cycles per episode; the first one is part of set-up.
    pub cycles: usize,
    /// Episodes per round, each on its own scenario seed (replicas of
    /// one world when [`World::replicated`]).
    pub worlds: u64,
}

impl CycleSpec {
    /// Whether each episode has enough measured cycles for a tail of its
    /// own (see [`CycleRun::tail_sets`]).
    fn tail_per_episode(&self) -> bool {
        self.cycles > EPISODE_TAIL
    }

    /// Whether an untraced run times each cycle on twin fleets. Two
    /// identical fleets run the same cycle on the same world, taking
    /// turns to go first, and the cycle's time is the faster of the two.
    /// The work is deterministic, so the two differ only by what the
    /// shared machine did to them. Where episodes are many short cycles
    /// with a tail each, a burst of other load lands inside single cycles
    /// and would set the tail; it rarely slows a cycle and its twin both.
    /// Cycles of half a second and more (`fleet_ramp`) take such bursts
    /// into every cycle alike, and a twin would only lengthen the run.
    fn twin(&self) -> bool {
        self.tail_per_episode()
    }
}

/// An episode with at least this many measured cycles has a tail of its
/// own, at p80 or above.
const EPISODE_TAIL: usize = 5 * (TAIL_BEYOND + 1);

/// Everything one run of a cycle workload measured.
#[derive(Debug, Default)]
pub struct CycleRun {
    pub episodes: usize,
    pub setup_s: Vec<f64>,
    /// The process's peak RSS within each episode.
    pub peak_rss_mb: Vec<f64>,
    /// `FleetMonitor::run_cycle` wall time of each measured cycle (of
    /// each cycle at its fastest, for replicated worlds).
    pub cycle_ms: Samples,
    /// The same times split into the sets a tail is taken within: each
    /// episode when episodes have [`EPISODE_TAIL`] measured cycles, else
    /// each round (see [`CycleRun::cycle_tail`]).
    pub tail_sets: Vec<Samples>,
    /// Rows parsed in the measured cycles.
    pub cycle_rows: u64,
    /// Advance plus cycle time of the measured cycles.
    pub loop_s: f64,
    /// Bytes on disk and rows monitored, summed over episodes.
    pub archive_bytes: u64,
    pub archive_rows: u64,
    pub queries: Queries,
    pub checks: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Traced runs only.
    pub traced: Option<TracedTotals>,
}

/// The read mix made in-process (see [`query_phase`]).
#[derive(Debug, Default)]
pub struct Queries {
    /// One sample per turn through the four status endpoints.
    pub status_ms: Samples,
    /// One sample per status request.
    pub status_request_ms: Samples,
    pub replay_ms: Samples,
    /// The same samples split by episode: a p99 is taken within each
    /// episode's reads, so that it reads a typical world rather than the
    /// one world of the run with the most to read.
    pub status_sets: Vec<Samples>,
    pub replay_sets: Vec<Samples>,
    pub resolve_ms: Samples,
    pub lateness_ms: Samples,
    pub bytes: u64,
    pub attempted: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The first answer of each replayed (router, `at`) in the current
    /// episode.
    replays: BTreeMap<(String, u64), Arc<Vec<String>>>,
}

/// Per-cycle counters of a traced run and the untraced reference time.
#[derive(Debug, Default)]
pub struct TracedTotals {
    pub tracer: Tracer,
    /// Cycle ids whose spans count (set-up cycles excluded).
    pub measured: BTreeSet<u32>,
    pub parsed: u64,
    pub malformed: u64,
    pub failures: u64,
    pub routers: u64,
    pub records: u64,
    pub anomalies: u64,
    pub join_views: u64,
    pub archive_bytes: u64,
    /// Summed `run_cycle` time of the untraced fleet over the measured
    /// cycles, to set against the traced `cycle` spans.
    pub untraced_ms: f64,
    /// The fleet tier's global consistency join.
    pub join: InconsistencyMonitor,
}

impl CycleRun {
    /// The cycle tail and its percentile: the median over
    /// [`CycleRun::tail_sets`] of each set's tail. A set is a fixed piece
    /// of work, so the percentile is the same however many rounds fit in
    /// the run, and a burst of load on the shared machine moves one set's
    /// tail, not the figure.
    pub fn cycle_tail(&self) -> (f64, f64) {
        let tails: Vec<(f64, f64)> = self.tail_sets.iter().map(Samples::tail).collect();
        let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
        (median(&values), tails.first().map_or(0.0, |t| t.1))
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    fn note(&mut self, failure: String) {
        if self.failures.len() < 8 {
            self.failures.push(failure);
        }
    }
}

fn config(sc: &Scenario, dir: &Path) -> MonitorConfig {
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    MonitorConfig {
        routers,
        interval: sc.sim.tick(),
        archive: ArchiveSpec::File {
            dir: dir.to_path_buf(),
            sync: SyncPolicy::default(),
        },
        ..MonitorConfig::default()
    }
}

/// Runs rounds of `spec` until the next one would overrun `budget`
/// (always at least one). After each episode's cycles the `reads` are
/// made on its final state.
pub fn run(
    spec: CycleSpec,
    seed: u64,
    budget: Duration,
    work: &Path,
    traced: bool,
    reads: &[Planned],
) -> CycleRun {
    let started = Instant::now();
    let mut out = CycleRun {
        traced: traced.then(TracedTotals::default),
        ..CycleRun::default()
    };
    let per_episode = spec.tail_per_episode();
    loop {
        let t = Instant::now();
        let mut round = Vec::new();
        for world in 0..spec.worlds {
            let dir = work.join(format!("episode-{}", out.episodes));
            let world_seed = seed.wrapping_mul(spec.worlds).wrapping_add(world);
            round.push(episode(spec, world_seed, &dir, reads, &mut out));
            let _ = fs::remove_dir_all(&dir);
            out.episodes += 1;
        }
        if spec.world.replicated() {
            let rows = round[0].rows;
            out.check(round.iter().all(|m| m.rows == rows), || {
                "replicas of one world parsed different row counts".to_string()
            });
            round = vec![Measured::fastest(&round)];
        }
        let mut pooled = Samples::default();
        for m in round {
            let cycles: Samples = m.cycle_ms.into_iter().collect();
            out.cycle_ms.extend(&cycles);
            out.cycle_rows += m.rows;
            out.loop_s += m.loop_s.iter().sum::<f64>();
            if per_episode {
                out.tail_sets.push(cycles);
            } else {
                pooled.extend(&cycles);
            }
        }
        if !per_episode {
            out.tail_sets.push(pooled);
        }
        if started.elapsed() + t.elapsed() > budget {
            return out;
        }
    }
}

/// The measured cycles of one episode, in cycle order.
#[derive(Default)]
struct Measured {
    /// `FleetMonitor::run_cycle` wall time of each cycle, in ms.
    cycle_ms: Vec<f64>,
    /// Sim advance plus cycle time of each cycle, in s.
    loop_s: Vec<f64>,
    /// Rows parsed in these cycles.
    rows: u64,
}

impl Measured {
    /// Replicas of one episode folded into one: each cycle at the fastest
    /// any replica ran it.
    fn fastest(replicas: &[Measured]) -> Measured {
        let fold = |times: fn(&Measured) -> &Vec<f64>| -> Vec<f64> {
            (0..times(&replicas[0]).len())
                .map(|i| {
                    replicas
                        .iter()
                        .map(|r| times(r)[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        };
        Measured {
            cycle_ms: fold(|m| &m.cycle_ms),
            loop_s: fold(|m| &m.loop_s),
            rows: replicas[0].rows,
        }
    }
}

/// One episode; returns its measured cycles.
fn episode(
    spec: CycleSpec,
    seed: u64,
    dir: &Path,
    reads: &[Planned],
    out: &mut CycleRun,
) -> Measured {
    reset_peak_rss();
    let t0 = Instant::now();
    let mut sc = spec.world.build(seed);
    let fleet_dir = dir.join("fleet");
    let mut fleet = FleetMonitor::new(config(&sc, &fleet_dir), spec.shards);
    // Made once set-up has been timed.
    let mut twin: Option<FleetMonitor> = None;
    let mut shards = out
        .traced
        .as_ref()
        .map(|_| TracedShard::partition(config(&sc, &dir.join("traced")), spec.shards));
    let interval = fleet.cfg.interval;
    let start = sc.sim.clock;
    let mut rows = 0u64;
    let mut measured_cycles = Measured::default();
    out.queries.replays.clear();
    for k in 0..spec.cycles {
        let now = start + interval * (k as u64 + 1);
        let cycle_id = (out.episodes * spec.cycles + k) as u32;
        let measured = k > 0;
        let t_adv = Instant::now();
        match &out.traced {
            Some(tt) => tt
                .tracer
                .span("sim.advance", None, cycle_id, |_| sc.sim.advance_to(now)),
            None => sc.sim.advance_to(now),
        }
        let adv_s = t_adv.elapsed().as_secs_f64();
        // The traced pipeline (traced runs) or the twin (untraced runs,
        // see `CycleSpec::twin`) runs beside the fleet on the same world,
        // first on odd cycles and second on even ones, so neither side
        // always meets the caches the other warmed.
        let other_first = k % 2 == 1;
        let (mut traced, mut twinned) = (None, None);
        if other_first {
            traced = trace_cycle(shards.as_mut(), out, &sc.sim, now, cycle_id, measured);
            twinned = twin.as_mut().map(|f| timed_cycle(f, &sc.sim, now));
        }
        let (report, mut cycle_ms) = timed_cycle(&mut fleet, &sc.sim, now);
        if !measured {
            out.setup_s.push(t0.elapsed().as_secs_f64());
            if spec.twin() && out.traced.is_none() {
                twin = Some(FleetMonitor::new(
                    config(&sc, &dir.join("twin")),
                    spec.shards,
                ));
            }
        }
        if !other_first {
            traced = trace_cycle(shards.as_mut(), out, &sc.sim, now, cycle_id, measured);
            twinned = twin.as_mut().map(|f| timed_cycle(f, &sc.sim, now));
        }
        if let Some((twin_report, twin_ms)) = twinned {
            out.check(twin_report.per_router == report.per_router, || {
                format!("cycle {k}: the twin fleet's per-router usage/route stats differ")
            });
            cycle_ms = cycle_ms.min(twin_ms);
        }
        let parsed = fleet.parse_last().parsed as u64;
        rows += parsed;
        if let Some(tt) = out.traced.as_mut().filter(|_| measured) {
            tt.untraced_ms += cycle_ms;
        }
        if let Some(traced) = traced {
            out.check(traced.per_router == report.per_router, || {
                format!("cycle {k}: traced per-router usage/route stats differ from the fleet's")
            });
        }
        if !measured {
            continue;
        }
        measured_cycles.cycle_ms.push(cycle_ms);
        measured_cycles.loop_s.push(adv_s + cycle_ms / 1e3);
        measured_cycles.rows += parsed;
    }
    if !reads.is_empty() {
        // The replay grid's `k`-th time, wrapped onto the cycles run.
        let collected: Vec<SimTime> = (1..=(spec.cycles as u64).min(REPLAY_GRID))
            .map(|i| start + interval * i)
            .collect();
        let last = start + interval * spec.cycles as u64;
        query_phase(&fleet, last, &collected, reads, out);
    }
    out.peak_rss_mb.extend(peak_rss_mb("self"));
    verify_archives(&fleet, spec.cycles, out);
    out.archive_bytes += dir_bytes(&fleet_dir);
    out.archive_rows += rows;
    if let Some(tt) = out.traced.as_mut() {
        tt.archive_bytes += dir_bytes(&dir.join("traced"));
    }
    measured_cycles
}

/// One `FleetMonitor::run_cycle` and its wall time in ms.
fn timed_cycle(fleet: &mut FleetMonitor, sim: &Simulation, now: SimTime) -> (CycleReport, f64) {
    let t = Instant::now();
    let report = fleet.run_cycle(sim, now);
    (report, ms(t.elapsed()))
}

/// One traced cycle, when this is a traced run.
fn trace_cycle(
    shards: Option<&mut Vec<TracedShard>>,
    out: &mut CycleRun,
    sim: &Simulation,
    now: SimTime,
    cycle_id: u32,
    measured: bool,
) -> Option<CycleReport> {
    let (shards, tt) = (shards?, out.traced.as_mut()?);
    if measured {
        tt.measured.insert(cycle_id);
    }
    Some(traced_cycle(shards, sim, now, cycle_id, tt))
}

/// After the cycles: every router's archive replays without error, holds
/// one record per cycle, and its last record equals the monitor's latest
/// snapshot.
fn verify_archives(fleet: &FleetMonitor, cycles: usize, out: &mut CycleRun) {
    for router in &fleet.cfg.routers {
        let monitor = fleet.monitor_of(router).expect("configured router");
        let replayed = monitor
            .archive_path(router)
            .ok_or_else(|| "no archive path".to_string())
            .and_then(|p| ArchiveReader::open(p).map_err(|e| e.to_string()))
            .and_then(|reader| {
                let mut last: Option<Tables> = None;
                let mut n = 0;
                for t in reader.replay() {
                    last = Some(t.map_err(|e| e.to_string())?);
                    n += 1;
                }
                Ok((n, last))
            });
        let ok = match &replayed {
            Ok((n, last)) => *n == cycles && last.as_ref() == monitor.latest(router),
            Err(_) => false,
        };
        out.check(ok, || match replayed {
            Ok((n, _)) => format!("{router}: archive replays {n} records of {cycles}, or its last record is not the latest snapshot"),
            Err(e) => format!("{router}: archive does not replay: {e}"),
        });
    }
}

/// The read mix on an episode's final state, request by request in the
/// plan's order and back to back (in-process there is no accept poll to
/// wait for). Each read builds what mantrad's handler for that request
/// builds, from the same monitor calls; the per-router requests name the
/// first configured router, and replay grid time `k` is the `k`-th
/// cycle's time, wrapped onto the cycles run. A replay of a fixed `at`
/// must return the same lines every time. Lateness is the generator's own
/// gap between requests.
fn query_phase(
    fleet: &FleetMonitor,
    now: SimTime,
    collected: &[SimTime],
    reads: &[Planned],
    out: &mut CycleRun,
) {
    let router = fleet.cfg.routers[0].as_str();
    let q = &mut out.queries;
    let mut errors = Vec::new();
    let mut turn = 0.0;
    let (mut status, mut replay) = (Samples::default(), Samples::default());
    let mut done = Instant::now();
    for p in reads {
        q.lateness_ms.push(ms(done.elapsed()));
        let t = Instant::now();
        match p.query {
            Query::Status(i) => {
                let body = status_body(fleet, i, router, now);
                let took = ms(t.elapsed());
                done = Instant::now();
                q.status_request_ms.push(took);
                q.bytes += body.len() as u64;
                q.attempted += 1;
                turn += took;
                if i == STATUS.len() - 1 {
                    q.status_ms.push(turn);
                    status.push(turn);
                    turn = 0.0;
                }
            }
            Query::Replay(k) => {
                let at = collected[(k as usize - 1) % collected.len()];
                let monitor = fleet.monitor_of(router).expect("configured router");
                let _ = monitor.archive_path(router);
                q.resolve_ms.push(ms(t.elapsed()));
                let before = monitor.query_cache().stats();
                let body = monitor
                    .replay_lines_at(router, Some(at))
                    .map(|lines| (json(&*lines), lines));
                let took = ms(t.elapsed());
                done = Instant::now();
                q.replay_ms.push(took);
                replay.push(took);
                let after = monitor.query_cache().stats();
                q.cache_hits += after.hits - before.hits;
                q.cache_misses += after.misses - before.misses;
                q.attempted += 1;
                let error = match body {
                    Ok((body, lines)) => {
                        q.bytes += body.len() as u64;
                        let seen = q
                            .replays
                            .entry((router.to_string(), at.as_secs()))
                            .or_insert_with(|| Arc::clone(&lines));
                        (*seen != lines).then(|| "lines differ from its first answer".to_string())
                    }
                    Err(e) => Some(e.to_string()),
                };
                if let Some(e) = error {
                    q.errors += 1;
                    errors.push(format!("replay of {router} at {}: {e}", at.as_secs()));
                }
            }
        }
    }
    q.status_sets.push(status);
    q.replay_sets.push(replay);
    for e in errors {
        out.note(e);
    }
}

/// The JSON body mantrad builds for status endpoint `STATUS[endpoint]`
/// (`/stats/usage` for `router`), from the monitor calls its handler
/// makes.
fn status_body(fleet: &FleetMonitor, endpoint: usize, router: &str, now: SimTime) -> String {
    let cfg = &fleet.cfg;
    match STATUS[endpoint] {
        "/health" => {
            let rows: Vec<String> = cfg
                .routers
                .iter()
                .filter_map(|r| {
                    let h = fleet.monitor_of(r)?.router_health(r)?;
                    Some(format!(
                        "{{\"router\":{},\"ok\":{},\"failed\":{},\"retries\":{},\"recovered\":{},\"salvaged\":{},\"raw_bytes\":{},\"last_success\":{},\"stale\":{},\"state\":{},\"missed_cycles\":{},\"rejoins\":{},\"archive_degraded\":{}}}",
                        json(r),
                        h.successes,
                        h.failures,
                        h.retries,
                        h.retry_successes,
                        h.salvaged,
                        h.raw_bytes,
                        h.last_success.map_or("null".to_string(), |t| t.as_secs().to_string()),
                        h.is_stale(now, cfg.interval, cfg.stale_after_intervals),
                        json(&h.lifecycle(cfg.stale_after_intervals).label()),
                        h.missed_cycles,
                        h.rejoins,
                        h.archive_degraded,
                    ))
                })
                .collect();
            let c = fleet.query_cache_stats();
            format!(
                "{{\"cycles\":{},\"now\":{},\"capture_failures\":{},\"anomalies\":{},\"query_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{}}},\"topology_events\":[],\"routers\":[{}]}}",
                fleet.cycles(),
                now.as_secs(),
                fleet.capture_failures(),
                fleet.anomalies.len(),
                c.hits,
                c.misses,
                c.evictions,
                c.entries,
                rows.join(",")
            )
        }
        "/stats/usage" => {
            let state = fleet
                .monitor_of(router)
                .and_then(|m| m.lifecycle_of(router))
                .map_or("unknown".to_string(), |l| l.label());
            let history = fleet
                .monitor_of(router)
                .map_or(&[][..], |m| m.usage_history(router));
            format!(
                "{{\"router\":{},\"state\":{},\"retired\":{},\"cycles\":{},\"usage\":{}}}",
                json(router),
                json(&state),
                state == "retired",
                history.len(),
                json(history)
            )
        }
        "/anomalies" => format!(
            "{{\"since\":null,\"anomalies\":{}}}",
            json(&fleet.anomalies)
        ),
        _ => {
            let parse = |p: mantra_core::processor::ParseStats| {
                format!(
                    "{{\"parsed\":{},\"malformed\":{},\"skipped\":{},\"rejected_mixed\":{}}}",
                    p.parsed, p.malformed, p.skipped, p.rejected_mixed
                )
            };
            format!(
                "{{\"degraded\":{},\"totals\":{},\"last\":{}}}",
                fleet.parse_degraded(),
                parse(fleet.parse_totals()),
                parse(fleet.parse_last())
            )
        }
    }
}

fn json<T: serde::Serialize + ?Sized>(v: &T) -> String {
    serde_json::to_string(v).expect("monitor state serialises")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ----------------------------------------------------------------------
// The traced pipeline
// ----------------------------------------------------------------------

/// One shard's pipeline state, driven through the public `Stage::run`
/// calls in the order `Monitor::drive` uses, so that every stage call can
/// carry a span. Shards split the routers into contiguous chunks exactly
/// as `FleetMonitor::new` does.
struct TracedShard {
    cfg: MonitorConfig,
    collector: Collector,
    store: TableStore,
    state: Vec<RouterState>,
    session_names: BTreeMap<GroupAddr, String>,
    inconsistency: InconsistencyMonitor,
}

/// What one traced shard cycle produced besides its report.
#[derive(Default)]
struct ShardCounts {
    parsed: u64,
    malformed: u64,
    failures: u64,
    routers: u64,
    records: u64,
}

impl TracedShard {
    fn partition(cfg: MonitorConfig, shards: usize) -> Vec<TracedShard> {
        let n = cfg.routers.len();
        let chunk = n.div_ceil(shards.clamp(1, n.max(1))).max(1);
        cfg.routers
            .chunks(chunk)
            .map(|routers| TracedShard {
                cfg: MonitorConfig {
                    routers: routers.to_vec(),
                    cross_router_checks: false,
                    ..cfg.clone()
                },
                collector: Collector::with_retry(cfg.retry.clone()),
                store: TableStore::default(),
                state: Vec::new(),
                session_names: BTreeMap::new(),
                inconsistency: InconsistencyMonitor::default(),
            })
            .collect()
    }

    fn cycle(
        &mut self,
        access: &TimingAccess<'_, Simulation>,
        now: SimTime,
        parent: usize,
        cycle: u32,
    ) -> (CycleReport, ShardCounts) {
        let tracer = access.tracer;
        let mut counts = ShardCounts::default();
        let capture = tracer.open("collector.capture", Some(parent), cycle);
        access.enter(capture, cycle);
        let raw = ParallelCaptureStage {
            collector: &self.collector,
            routers: &self.cfg.routers,
            access,
        }
        .run(now);
        tracer.close(capture, 0);
        for rc in &raw.routers {
            self.collector.successes += rc.stats.successes;
            self.collector.failures += rc.stats.failures;
            counts.failures += rc.stats.failures;
        }
        let parsed = tracer.span("processor.parse", Some(parent), cycle, |_| {
            ParseStage { parallel: true }.run(raw)
        });
        for pr in &parsed.routers {
            counts.parsed += pr.parse.parsed as u64;
            counts.malformed += pr.parse.malformed as u64;
        }
        let enriched = tracer.span("pipeline.enrich", Some(parent), cycle, |_| {
            EnrichStage {
                store: &mut self.store,
                state: &mut self.state,
                session_names: &self.session_names,
                log_full_every: self.cfg.log_full_every,
                archive: &self.cfg.archive,
                retire_after: self.cfg.retire_after_intervals,
                parallel: true,
            }
            .run(parsed)
        });
        counts.routers += enriched.routers.len() as u64;
        let logged = tracer.span("logger.log", Some(parent), cycle, |_| {
            LogStage {
                store: &mut self.store,
                state: &mut self.state,
                parallel: true,
            }
            .run(enriched)
        });
        counts.records += logged.routers.len() as u64;
        let report = tracer.span("stats_stream.analyse", Some(parent), cycle, |_| {
            AnalyseStage {
                state: &mut self.state,
                threshold: self.cfg.threshold,
                injection_min_new: self.cfg.injection_min_new,
                inconsistency: &mut self.inconsistency,
                cross_router: self.cfg.cross_router_checks,
                parallel: true,
            }
            .run(logged)
        });
        (report, counts)
    }

    /// This shard's snapshots captured at `now`, in configuration order.
    fn views(&self, now: SimTime) -> impl Iterator<Item = &Tables> {
        self.cfg.routers.iter().filter_map(move |r| {
            let id = self.store.routers.get(r)?;
            let st = self.state.get(id as usize)?;
            st.prev.as_ref().filter(|t| t.captured_at == now)
        })
    }
}

/// One traced fleet cycle: shards run concurrently (as the fleet runs
/// them), then the global consistency join over this cycle's views.
fn traced_cycle(
    shards: &mut [TracedShard],
    sim: &Simulation,
    now: SimTime,
    cycle: u32,
    tt: &mut TracedTotals,
) -> CycleReport {
    let measured = tt.measured.contains(&cycle);
    let tracer = &tt.tracer;
    let root = tracer.open("cycle", None, cycle);
    let accesses: Vec<TimingAccess<'_, Simulation>> = shards
        .iter()
        .map(|_| TimingAccess::new(sim, tracer))
        .collect();
    let results: Vec<(CycleReport, ShardCounts)> = if shards.len() == 1 {
        vec![shards[0].cycle(&accesses[0], now, root, cycle)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .zip(&accesses)
                .map(|(shard, access)| s.spawn(move || shard.cycle(access, now, root, cycle)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced shard thread panicked"))
                .collect()
        })
    };
    let mut report = CycleReport {
        at: now,
        per_router: Vec::new(),
        anomalies: Vec::new(),
    };
    for (r, c) in results {
        report.per_router.extend(r.per_router);
        report.anomalies.extend(r.anomalies);
        if measured {
            tt.parsed += c.parsed;
            tt.malformed += c.malformed;
            tt.failures += c.failures;
            tt.routers += c.routers;
            tt.records += c.records;
        }
    }
    let views: Vec<&Tables> = shards.iter().flat_map(|s| s.views(now)).collect();
    let joined = tracer.span("anomaly.join", Some(root), cycle, |_| {
        tt.join.sweep(&views, now)
    });
    report.anomalies.extend(joined);
    if measured {
        tt.join_views += views.len() as u64;
        tt.anomalies += report.anomalies.len() as u64;
    }
    tracer.close(root, 0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        values.into_iter().collect()
    }

    #[test]
    fn replicas_fold_into_each_cycle_at_its_fastest() {
        let replica = |cycle_ms: Vec<f64>| Measured {
            loop_s: cycle_ms.iter().map(|ms| 0.01 + ms / 1e3).collect(),
            cycle_ms,
            rows: 7,
        };
        let a = replica(vec![5.0, 9.0, 6.0]);
        let b = replica(vec![6.0, 4.0, 6.5]);
        let folded = Measured::fastest(&[a, b]);
        assert_eq!(folded.cycle_ms, vec![5.0, 4.0, 6.0]);
        assert_eq!(folded.loop_s, vec![0.015, 0.014, 0.016]);
        assert_eq!(folded.rows, 7);
        // Identical replicas fold into themselves.
        let same = Measured::fastest(&[replica(vec![1.0, 2.0]), replica(vec![1.0, 2.0])]);
        assert_eq!(same.cycle_ms, vec![1.0, 2.0]);
    }

    #[test]
    fn cycle_tail_does_not_depend_on_how_many_rounds_fit() {
        // One fleet_ramp-shaped round: 8 small, 8 mid and 8 large cycles.
        let round = samples((0..24).map(|i| (i / 8 * 100 + i % 8) as f64));
        let one = CycleRun {
            tail_sets: vec![round.clone()],
            ..CycleRun::default()
        };
        let two = CycleRun {
            tail_sets: vec![round.clone(), round.clone()],
            ..CycleRun::default()
        };
        assert_eq!(one.cycle_tail(), (105.0, 100.0 * 14.0 / 24.0));
        assert_eq!(two.cycle_tail(), one.cycle_tail());
        // Pooling the two rounds would have moved the tail to a large cycle.
        let mut pooled = round.clone();
        pooled.extend(&round);
        assert_eq!(pooled.tail().0, 202.0);
    }
}
