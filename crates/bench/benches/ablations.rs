//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_logger_*` — full-snapshot vs delta vs delta+redundancy
//!   storage cost (the paper's two conservation techniques),
//! * `ablation_threshold_*` — sender-classification sweep around the
//!   paper's 4 kbps choice,
//! * `ablation_interval_*` — collection-interval sweep (cost side; the
//!   fidelity side lives in the figure binaries),
//! * `ablation_aggregate_*` — sequential vs rayon multi-router
//!   collection, the paper's announced enhancement,
//! * `ablation_interning_*` — BTreeMap-keyed reference delta diffing vs
//!   the interned [`TableStore`] merge-join on a 50-router × 96-cycle
//!   day of snapshots,
//! * `ablation_archive_*` — memory vs on-disk archive backends (MANTRARC
//!   v1 JSON payloads vs v2 id-keyed records): write a 50-router ×
//!   96-cycle day through each, stream it back, and compare bytes on
//!   disk,
//! * `ablation_log_*` — Log-stage on-path wall time with fsync-per-record
//!   persistence, synchronous writes vs the per-router writer thread,
//! * `ablation_fleet_*` — one sharded fleet-monitor cycle end-to-end at
//!   three fleet sizes (50 → 500 → 2000 routers, 4 shards), over the
//!   fleet-scale scenario with every router monitored,
//! * `ablation_churn_*` — the same fleet cycle under a churning topology
//!   (calm / flappy / partition schedules vs a static world): what
//!   dynamic membership costs, with a sharded-vs-single exactness
//!   assertion under churn,
//! * `ablation_parse_*` — the zero-copy span/byte Parse stage vs the
//!   kept string parser over a 500-router fleet capture corpus, with a
//!   bytes/sec accounting line and a strict zero-copy-wins assertion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use mantra_bench::{drive_for, monitor_for};
use mantra_core::aggregate::{collect_aggregate, collect_aggregate_sequential};
use mantra_core::archive::{
    BackpressureMode, FileBackendV2, SyncPolicy, ThreadedBackend, WriterConfig,
};
use mantra_core::collector::{preprocess_bytes, Capture, RouterAccess, SimAccess};
use mantra_core::logger::{diff_reference, diff_with, SnapshotParts, TableDelta, TableLog};
use mantra_core::processor::{process, reference};
use mantra_core::stats::{RouteStats, UsageStats};
use mantra_core::stats_stream::IncrementalStats;
use mantra_core::store::TableStore;
use mantra_core::tables::{LearnedFrom, PairRow, RouteRow, Tables};
use mantra_core::{FleetMonitor, MonitorConfig};
use mantra_net::{BitRate, GroupAddr, Ip, Prefix, SimDuration, SimTime};
use mantra_router_cli::TableKind;
use mantra_sim::{ChurnProfile, Scenario};

/// A short snapshot stream from a live scenario.
fn snapshot_stream(n: usize) -> Vec<Tables> {
    let mut sc = Scenario::fixw_six_months(7);
    let mut monitor = monitor_for(&sc);
    drive_for(&mut sc, &mut monitor, SimDuration::mins(15 * n as u64));
    monitor.log("fixw").expect("log exists").replay()
}

fn ablation_logger(c: &mut Criterion) {
    let stream = snapshot_stream(24);
    let mut group = c.benchmark_group("ablation_logger");
    group.sample_size(10);
    // Cost of appending under each strategy; the storage ratio is printed
    // once since criterion can't chart it.
    group.bench_function("full_snapshots", |b| {
        b.iter(|| {
            let mut log = TableLog::new(1); // full every time
            for s in &stream {
                log.append(s);
            }
            black_box(log.bytes_stored)
        })
    });
    group.bench_function("delta_encoded", |b| {
        b.iter(|| {
            let mut log = TableLog::new(96);
            for s in &stream {
                log.append(s);
            }
            black_box(log.bytes_stored)
        })
    });
    group.bench_function("serialize_parts_only", |b| {
        b.iter(|| {
            // Redundancy elimination alone: store the non-derivable parts
            // in full each cycle.
            let total: usize = stream
                .iter()
                .map(|s| {
                    serde_json::to_string(&SnapshotParts::from_tables(s))
                        .map(|j| j.len())
                        .unwrap_or(0)
                })
                .sum();
            black_box(total)
        })
    });
    group.finish();

    // Report the storage ratios once, outside measurement.
    let mut full = TableLog::new(1);
    let mut delta = TableLog::new(96);
    for s in &stream {
        full.append(s);
        delta.append(s);
    }
    println!(
        "[ablation_logger] full={}B delta={}B savings={:.1}% (baseline {}B)",
        full.bytes_stored,
        delta.bytes_stored,
        100.0 * delta.savings_ratio(),
        delta.bytes_full_baseline,
    );
}

fn ablation_threshold(c: &mut Criterion) {
    let stream = snapshot_stream(8);
    let snapshot = stream.last().expect("non-empty").clone();
    let mut group = c.benchmark_group("ablation_threshold");
    group.sample_size(20);
    for kbps in [1u64, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(kbps), &kbps, |b, kbps| {
            let th = BitRate::from_kbps(*kbps);
            b.iter(|| black_box(UsageStats::from_tables(&snapshot, th)))
        });
    }
    group.finish();
    // Classification sensitivity, printed once.
    for kbps in [1u64, 2, 4, 8, 16] {
        let u = UsageStats::from_tables(&snapshot, BitRate::from_kbps(kbps));
        println!(
            "[ablation_threshold] {kbps:>2} kbps: senders={} active_sessions={}",
            u.senders, u.active_sessions
        );
    }
}

fn ablation_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_interval");
    group.sample_size(10);
    for mins in [5u64, 15, 60] {
        group.bench_with_input(BenchmarkId::from_parameter(mins), &mins, |b, mins| {
            b.iter(|| {
                let mut sc = Scenario::transition_snapshot(13, 0.3);
                let mut monitor = monitor_for(&sc);
                monitor.cfg.interval = SimDuration::mins(*mins);
                // Equal simulated horizon; finer intervals cost more cycles.
                drive_for(&mut sc, &mut monitor, SimDuration::hours(3));
                black_box(monitor.cycles())
            })
        });
    }
    group.finish();
}

fn ablation_aggregate(c: &mut Criterion) {
    let mut sc = Scenario::transition_snapshot(17, 0.5);
    let mut monitor = monitor_for(&sc);
    drive_for(&mut sc, &mut monitor, SimDuration::hours(12));
    // Aggregate across every border router in the topology, not just the
    // two paper collection points — the multi-router scenario the paper's
    // conclusion argues for.
    let routers: Vec<String> = sc
        .sim
        .net
        .topo
        .domains()
        .iter()
        .filter_map(|d| d.border)
        .map(|r| sc.sim.net.topo.router(r).name.clone())
        .collect();
    let now = sc.sim.clock;
    let mut group = c.benchmark_group("ablation_aggregate");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(collect_aggregate_sequential(
                &sc.sim,
                &routers,
                &TableKind::ALL,
                now,
            ))
        })
    });
    group.bench_function("rayon_parallel", |b| {
        b.iter(|| black_box(collect_aggregate(&sc.sim, &routers, &TableKind::ALL, now)))
    });
    group.finish();
}

/// Deterministic synthetic snapshot streams: `routers` routers, `cycles`
/// 15-minute cycles each, with slow pair churn and route flapping — the
/// shape of a day of multi-router collection without simulator cost.
fn synthetic_streams(routers: usize, cycles: usize) -> Vec<Vec<SnapshotParts>> {
    synthetic_streams_with_churn(routers, cycles, 1)
}

/// Like [`synthetic_streams`], but row contents only change every `calm`
/// cycles: with `calm > 1` most consecutive snapshots diff to small (often
/// empty) deltas, the shape of a quiet production day.
fn synthetic_streams_with_churn(
    routers: usize,
    cycles: usize,
    calm: usize,
) -> Vec<Vec<SnapshotParts>> {
    (0..routers)
        .map(|r| {
            (0..cycles)
                .map(|c| {
                    let v = (c / calm) as u32;
                    let at = SimTime(SimTime::from_ymd(1999, 3, 1).as_secs() + c as u64 * 900);
                    let mut t = Tables::new(format!("r{r}"), at);
                    for k in 0..40u32 {
                        t.add_pair(PairRow {
                            source: Ip::new(10, r as u8, 0, (k % 24) as u8 + 1),
                            group: GroupAddr::from_index((k + v / 8) % 64),
                            current_bw: BitRate::from_bps(
                                1_000 + ((u64::from(v) * 37 + k as u64 * 13) % 7) * 500,
                            ),
                            avg_bw: BitRate::from_bps(0),
                            forwarding: !(k + v).is_multiple_of(5),
                            learned_from: LearnedFrom::Dvmrp,
                        });
                    }
                    for k in 0..60u32 {
                        t.add_route(RouteRow {
                            prefix: Prefix::new(Ip::new(128, (k % 200) as u8, 0, 0), 16).unwrap(),
                            next_hop: Some(Ip::new(10, r as u8, 0, 1)),
                            metric: 1 + (k + v) % 30,
                            uptime: None,
                            reachable: !(k + v / 4).is_multiple_of(11),
                            learned_from: LearnedFrom::Dvmrp,
                        });
                    }
                    SnapshotParts::from_tables(&t)
                })
                .collect()
        })
        .collect()
}

fn ablation_interning(c: &mut Criterion) {
    // One day of 15-minute cycles across 50 routers, diffed consecutively
    // — the monitor's hot loop, isolated.
    let streams = synthetic_streams(50, 96);
    let mut group = c.benchmark_group("ablation_interning");
    group.sample_size(10);
    group.bench_function("btreemap_reference", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for stream in &streams {
                for w in stream.windows(2) {
                    let d = diff_reference(&w[0], &w[1]);
                    total += d.pair_upserts.len() + d.route_upserts.len();
                }
            }
            black_box(total)
        })
    });
    group.bench_function("interned_store", |b| {
        b.iter(|| {
            // One store for the whole fleet, as the monitor holds it: keys
            // hash once on first sight, then every diff is a merge-join
            // over dense ids.
            let mut store = TableStore::default();
            let mut total = 0usize;
            for stream in &streams {
                for w in stream.windows(2) {
                    let d = diff_with(&mut store, &w[0], &w[1]);
                    total += d.pair_upserts.len() + d.route_upserts.len();
                }
            }
            black_box(total)
        })
    });
    group.finish();
}

fn ablation_archive(c: &mut Criterion) {
    // A 50-router day pushed through the storage path: append every cycle
    // to a delta log on each backend, then stream the whole archive back
    // with `replay_iter`. Calm churn (rows change every 8 cycles) keeps
    // the record mix delta-heavy, as on a quiet production day.
    let streams: Vec<Vec<Tables>> = synthetic_streams_with_churn(50, 96, 8)
        .into_iter()
        .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
        .collect();
    let dir = std::env::temp_dir().join(format!("mantra-bench-archive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let mut group = c.benchmark_group("ablation_archive");
    group.sample_size(10);
    group.bench_function("memory_write_replay", |b| {
        b.iter(|| {
            let mut snapshots = 0usize;
            for stream in &streams {
                let mut log = TableLog::new(96);
                for s in stream {
                    log.append(s);
                }
                snapshots += log.replay_iter().filter(|t| t.is_ok()).count();
            }
            black_box(snapshots)
        })
    });
    group.bench_function("file_v2_write_replay", |b| {
        b.iter(|| {
            let mut snapshots = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let path = dir.join(format!("r{r}-v2.marc"));
                let backend = FileBackendV2::create(&path).expect("create archive");
                let mut log = TableLog::with_backend(Box::new(backend), 96);
                for s in stream {
                    log.append(s);
                }
                assert!(log.backend_error().is_none());
                snapshots += log.replay_iter().filter(|t| t.is_ok()).count();
            }
            black_box(snapshots)
        })
    });
    group.finish();

    // Bytes-on-disk across the whole fleet-day, printed once: the v2
    // id-keyed frames, dictionary included, must land strictly below the
    // JSON payloads alone.
    let (mut mem_b, mut v2_b) = (0u64, 0u64);
    for (r, stream) in streams.iter().enumerate() {
        let mut mem = TableLog::new(96);
        let v2 = FileBackendV2::create(dir.join(format!("acct-{r}-v2.marc"))).expect("v2");
        let mut v2 = TableLog::with_backend(Box::new(v2), 96);
        for s in stream {
            mem.append(s);
            v2.append(s);
        }
        mem_b += mem.bytes_stored as u64;
        v2_b += v2.archive_stats().bytes;
    }
    assert!(
        v2_b < mem_b,
        "v2 must be smaller on disk than the JSON payloads: v2={v2_b}B json={mem_b}B"
    );
    println!(
        "[ablation_archive] fleet-day on disk: json-payload={mem_b}B v2-frames={v2_b}B \
         (v2/json = {:.1}%)",
        100.0 * v2_b as f64 / mem_b as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn ablation_log(c: &mut Criterion) {
    // The Log stage's on-path cost under the strictest durability
    // setting (fsync every record): the synchronous writer charges
    // encode + write + fsync to the collection path on every append,
    // the threaded writer charges an enqueue and pays the disk off-path.
    // Criterion times the whole fleet-day including the threaded
    // variant's drain barrier, so total I/O is identical; the printed
    // accounting line isolates the on-path share — what collection
    // actually waits on.
    let streams: Vec<Vec<Tables>> = synthetic_streams_with_churn(50, 96, 8)
        .into_iter()
        .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
        .collect();
    let dir = std::env::temp_dir().join(format!("mantra-bench-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let writer = WriterConfig {
        capacity: 64,
        mode: BackpressureMode::Block,
    };
    let mut group = c.benchmark_group("ablation_log");
    group.sample_size(10);
    group.bench_function("serial_fsync_each", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let mut backend =
                    FileBackendV2::create(dir.join(format!("s{r}.marc"))).expect("create archive");
                backend.sync = SyncPolicy::every_records(1);
                let mut log = TableLog::with_backend(Box::new(backend), 96);
                for s in stream {
                    log.append(s);
                }
                assert!(log.backend_error().is_none());
                total += log.len();
            }
            black_box(total)
        })
    });
    group.bench_function("threaded_block", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (r, stream) in streams.iter().enumerate() {
                let mut backend =
                    FileBackendV2::create(dir.join(format!("t{r}.marc"))).expect("create archive");
                backend.sync = SyncPolicy::every_records(1);
                let mut log = TableLog::with_backend(
                    Box::new(ThreadedBackend::spawn(Box::new(backend), writer)),
                    96,
                );
                for s in stream {
                    log.append(s);
                }
                // Drain barrier: the writer thread's I/O is paid inside
                // the timed region, keeping the totals comparable.
                total += log.len();
                assert!(log.backend_error().is_none());
            }
            black_box(total)
        })
    });
    group.finish();

    // On-path accounting, printed once: time only the append loops, with
    // the threaded variant's drain left outside the measured window.
    let (mut serial_ns, mut threaded_ns, mut appends) = (0u128, 0u128, 0usize);
    for (r, stream) in streams.iter().enumerate() {
        let mut backend =
            FileBackendV2::create(dir.join(format!("acct-{r}-serial.marc"))).expect("serial");
        backend.sync = SyncPolicy::every_records(1);
        let mut log = TableLog::with_backend(Box::new(backend), 96);
        let t0 = Instant::now();
        for s in stream {
            log.append(s);
        }
        serial_ns += t0.elapsed().as_nanos();
        assert!(log.backend_error().is_none());

        let mut backend =
            FileBackendV2::create(dir.join(format!("acct-{r}-threaded.marc"))).expect("threaded");
        backend.sync = SyncPolicy::every_records(1);
        let mut log = TableLog::with_backend(
            Box::new(ThreadedBackend::spawn(Box::new(backend), writer)),
            96,
        );
        let t0 = Instant::now();
        for s in stream {
            log.append(s);
        }
        threaded_ns += t0.elapsed().as_nanos();
        appends += stream.len();
        drop(log); // shutdown drain happens off the measured path
    }
    assert!(
        threaded_ns < serial_ns,
        "threaded on-path time must beat synchronous fsync-per-record: \
         threaded={threaded_ns}ns serial={serial_ns}ns"
    );
    println!(
        "[ablation_log] on-path Log-stage time over {appends} appends: \
         serial-fsync-each={:.1}ms threaded-block={:.1}ms ({:.1}% of serial)",
        serial_ns as f64 / 1e6,
        threaded_ns as f64 / 1e6,
        100.0 * threaded_ns as f64 / serial_ns as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn ablation_streaming(c: &mut Criterion) {
    // The Analyse stage's statistics cost, isolated: rebuilding
    // UsageStats/RouteStats from the full tables every cycle vs folding
    // the deltas the Log stage already computed into IncrementalStats.
    // Stormy churn (every row changes every cycle) vs calm (rows change
    // every 8th cycle): the rebuild's cost tracks table size and is
    // indifferent to churn; the fold's cost tracks the delta.
    let threshold = mantra_net::rate::SENDER_THRESHOLD;
    let mut group = c.benchmark_group("ablation_streaming");
    group.sample_size(10);
    for (label, calm) in [("stormy", 1usize), ("calm", 8)] {
        let parts = synthetic_streams_with_churn(50, 96, calm);
        let streams: Vec<Vec<Tables>> = parts
            .iter()
            .map(|stream| stream.iter().map(SnapshotParts::rebuild).collect())
            .collect();
        // Deltas precomputed outside the timed region: in the pipeline
        // the Log stage has already paid for them.
        let mut store = TableStore::default();
        let deltas: Vec<Vec<TableDelta>> = parts
            .iter()
            .map(|stream| {
                stream
                    .windows(2)
                    .map(|w| diff_with(&mut store, &w[0], &w[1]))
                    .collect()
            })
            .collect();
        group.bench_function(format!("full_rebuild_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for stream in &streams {
                    for t in stream {
                        let u = UsageStats::from_tables(t, threshold);
                        let r = RouteStats::from_tables(t);
                        acc += u.sessions + r.dvmrp_total;
                    }
                }
                black_box(acc)
            })
        });
        group.bench_function(format!("incremental_fold_{label}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for (stream, ds) in streams.iter().zip(&deltas) {
                    let mut inc = IncrementalStats::default();
                    inc.reseed(&stream[0], threshold);
                    acc += inc.usage().sessions + inc.route_stats().dvmrp_total;
                    for d in ds {
                        inc.fold(d);
                        acc += inc.usage().sessions + inc.route_stats().dvmrp_total;
                    }
                }
                black_box(acc)
            })
        });
        // Churn volume per variant, printed once for the record.
        let rows: usize = deltas
            .iter()
            .flatten()
            .map(|d| {
                d.pair_upserts.len()
                    + d.pair_removals.len()
                    + d.route_upserts.len()
                    + d.route_removals.len()
            })
            .sum();
        let cycles: usize = deltas.iter().map(Vec::len).sum();
        println!(
            "[ablation_streaming] {label}: {:.1} changed rows/delta over {cycles} deltas",
            rows as f64 / cycles.max(1) as f64
        );
    }
    group.finish();
}

/// A warmed fleet over the fleet-scale scenario, ready to cycle.
fn fleet_for(seed: u64, target: usize, shards: usize) -> (Scenario, FleetMonitor) {
    let sc = Scenario::fleet_snapshot(seed, target, 0.5);
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    let fleet = FleetMonitor::new(
        MonitorConfig {
            routers,
            interval: sc.sim.tick(),
            ..MonitorConfig::default()
        },
        shards,
    );
    (sc, fleet)
}

fn ablation_churn(c: &mut Criterion) {
    // What a churning world costs per fleet cycle: the same 200-router,
    // 4-shard cycle as `ablation_fleet`, under no churn and under each
    // profile. The dynamic-membership machinery — reconvergence after
    // neighbor loss, staleness tracking, seal-on-retire, rejoin — all
    // sits on this path.
    let mut group = c.benchmark_group("ablation_churn");
    group.sample_size(10);
    let profiles: [(&str, Option<ChurnProfile>); 4] = [
        ("static", None),
        ("calm", Some(ChurnProfile::Calm)),
        ("flappy", Some(ChurnProfile::Flappy)),
        ("partition", Some(ChurnProfile::Partition)),
    ];
    for (name, profile) in profiles {
        group.bench_with_input(BenchmarkId::from_parameter(name), &profile, |b, profile| {
            let (mut sc, mut fleet) = fleet_for(23, 200, 4);
            if let Some(p) = profile {
                sc.with_churn(*p, 23);
            }
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
            b.iter(|| {
                let next = sc.sim.clock + fleet.cfg.interval;
                sc.sim.advance_to(next);
                black_box(fleet.run_cycle(&sc.sim, next))
            });
        });
    }
    group.finish();

    // The churn exactness claim, asserted on the bench path too: under a
    // flappy schedule, sharded and unsharded runs stay bit-identical.
    let run = |shards: usize| {
        let (mut sc, mut fleet) = fleet_for(23, 50, shards);
        sc.with_churn(ChurnProfile::Flappy, 23);
        for _ in 0..4 {
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
        }
        (
            fleet.usage_history().to_vec(),
            fleet.route_history().to_vec(),
            fleet.anomalies.clone(),
        )
    };
    let (u1, r1, a1) = run(1);
    let (u4, r4, a4) = run(4);
    assert_eq!(u1, u4, "churned sharded usage must be bit-identical");
    assert_eq!(r1, r4, "churned sharded route stats must be bit-identical");
    assert_eq!(a1.len(), a4.len(), "churned anomaly stream must match");
    println!(
        "[ablation_churn] flappy schedule, shards 1 vs 4 over 4 cycles: \
         identical global stats ({} usage points, {} anomalies)",
        u1.len(),
        a1.len()
    );
}

fn ablation_fleet(c: &mut Criterion) {
    // The sharded fleet monitor end-to-end: one collection cycle —
    // advance the world one tick, capture every router across 4 shards
    // concurrently, merge through the aggregation tier — at three fleet
    // sizes spanning the scale-out roadmap (50 → 500 → 2000 routers).
    let mut group = c.benchmark_group("ablation_fleet");
    group.sample_size(10);
    for target in [50usize, 500, 2000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(target),
            &target,
            |b, &target| {
                let (mut sc, mut fleet) = fleet_for(23, target, 4);
                // Warm one cycle: steady-state deltas, not the first full
                // snapshots, are what scale-out costs.
                let next = sc.sim.clock + fleet.cfg.interval;
                sc.sim.advance_to(next);
                fleet.run_cycle(&sc.sim, next);
                b.iter(|| {
                    let next = sc.sim.clock + fleet.cfg.interval;
                    sc.sim.advance_to(next);
                    black_box(fleet.run_cycle(&sc.sim, next))
                });
            },
        );
    }
    group.finish();

    // The exactness claim, asserted once on the bench path too: a
    // 4-shard fleet and an unsharded one over identical worlds produce
    // identical global statistics and anomaly streams.
    let run = |shards: usize| {
        let (mut sc, mut fleet) = fleet_for(23, 50, shards);
        for _ in 0..3 {
            let next = sc.sim.clock + fleet.cfg.interval;
            sc.sim.advance_to(next);
            fleet.run_cycle(&sc.sim, next);
        }
        (
            fleet.usage_history().to_vec(),
            fleet.route_history().to_vec(),
            fleet.anomalies.clone(),
        )
    };
    let (u1, r1, a1) = run(1);
    let (u4, r4, a4) = run(4);
    assert_eq!(u1, u4, "sharded usage must be bit-identical");
    assert_eq!(r1, r4, "sharded route stats must be bit-identical");
    assert_eq!(a1.len(), a4.len(), "sharded anomaly stream must match");
    println!(
        "[ablation_fleet] shards 1 vs 4 over 3 cycles: identical global stats \
         ({} participants, {} anomalies)",
        u1.last().map_or(0, |u| u.participants),
        a1.len()
    );
}

fn ablation_report_loss(c: &mut Criterion) {
    // Route-count instability as a function of DVMRP report loss — the
    // mechanism behind Figure 7, quantified. Criterion measures the run
    // cost; the instability metric prints once per level.
    let mut group = c.benchmark_group("ablation_report_loss");
    group.sample_size(10);
    for loss_pct in [0u32, 10, 30] {
        group.bench_with_input(
            BenchmarkId::from_parameter(loss_pct),
            &loss_pct,
            |b, loss_pct| {
                b.iter(|| {
                    let mut sc = Scenario::transition_snapshot(19, 0.0);
                    sc.sim.set_report_loss(f64::from(*loss_pct) / 100.0);
                    let mut monitor = monitor_for(&sc);
                    drive_for(&mut sc, &mut monitor, SimDuration::hours(6));
                    let s = monitor.route_series("fixw", "r", |r| r.dvmrp_reachable as f64);
                    black_box(s.stddev())
                })
            },
        );
    }
    group.finish();
    for loss_pct in [0u32, 5, 10, 20, 30, 50] {
        let mut sc = Scenario::transition_snapshot(19, 0.0);
        sc.sim.set_report_loss(f64::from(loss_pct) / 100.0);
        let mut monitor = monitor_for(&sc);
        drive_for(&mut sc, &mut monitor, SimDuration::hours(6));
        let s = monitor.route_series("fixw", "r", |r| r.dvmrp_reachable as f64);
        println!(
            "[ablation_report_loss] {loss_pct:>2}% loss: route-count mean {:.0} stddev {:.1}",
            s.mean(),
            s.stddev()
        );
    }
}

fn ablation_parse(c: &mut Criterion) {
    // The zero-copy Parse stage vs the kept string parser
    // (`processor::reference`) over a fleet-scale capture corpus: every
    // table of every monitored router in a 500-router world across
    // several collection cycles, preprocessed once (preprocessing is
    // shared) and parsed repeatedly. The reference parser materialises
    // every line as `String` and splits on owned text; the byte parser
    // works on spans of the raw capture buffer.
    let mut sc = Scenario::fleet_snapshot(23, 500, 0.5);
    let routers: Vec<String> = sc
        .sim
        .monitored
        .iter()
        .map(|id| sc.sim.net.topo.router(*id).name.clone())
        .collect();
    let mut corpus: Vec<Vec<Capture>> = Vec::new();
    let mut total_bytes = 0usize;
    for _ in 0..4 {
        let now = sc.sim.clock + sc.sim.tick();
        sc.sim.advance_to(now);
        let mut access = SimAccess::new(&sc.sim);
        for router in &routers {
            let mut batch = Vec::new();
            for kind in TableKind::ALL {
                if let Ok(raw) = access.capture(router, kind, now) {
                    let cap = preprocess_bytes(router, kind, raw.into_bytes(), now);
                    total_bytes += cap.raw_bytes;
                    batch.push(cap);
                }
            }
            corpus.push(batch);
        }
    }

    let mut group = c.benchmark_group("ablation_parse");
    group.sample_size(10);
    group.bench_function("zero_copy", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for batch in &corpus {
                let (_, stats) = process(batch);
                rows += stats.parsed;
            }
            black_box(rows)
        })
    });
    group.bench_function("reference_string", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for batch in &corpus {
                let (_, stats) = reference::process(batch);
                rows += stats.parsed;
            }
            black_box(rows)
        })
    });
    group.finish();

    // Throughput accounting outside the criterion loops, and the claim
    // the refactor stands on: the span parser must beat the string one.
    const PASSES: u32 = 3;
    let timed = |f: &dyn Fn(&[Capture]) -> usize| {
        let t0 = Instant::now();
        let mut rows = 0usize;
        for _ in 0..PASSES {
            for batch in &corpus {
                rows += f(batch);
            }
        }
        (t0.elapsed().as_nanos().max(1), rows)
    };
    let (zc_ns, zc_rows) = timed(&|b| process(b).1.parsed);
    let (rf_ns, rf_rows) = timed(&|b| reference::process(b).1.parsed);
    assert_eq!(zc_rows, rf_rows, "parsers must agree on the corpus");
    let bytes = total_bytes as u64 * u64::from(PASSES);
    let rate = |ns: u128| bytes as f64 / (ns as f64 / 1e9) / 1e6;
    assert!(
        zc_ns < rf_ns,
        "zero-copy parse must beat the string parser: {zc_ns}ns vs {rf_ns}ns"
    );
    println!(
        "[ablation_parse] {} captures, {:.1} MB raw, {} rows/pass: \
         zero-copy={:.1} MB/s reference={:.1} MB/s ({:.2}x)",
        corpus.iter().map(Vec::len).sum::<usize>(),
        total_bytes as f64 / 1e6,
        zc_rows / PASSES as usize,
        rate(zc_ns),
        rate(rf_ns),
        rf_ns as f64 / zc_ns as f64
    );
}

criterion_group! {
    name = ablations;
    config = Criterion::default();
    targets = ablation_logger, ablation_threshold, ablation_interval,
              ablation_aggregate, ablation_interning, ablation_archive,
              ablation_log, ablation_streaming, ablation_fleet,
              ablation_churn, ablation_report_loss, ablation_parse
}
criterion_main!(ablations);
