//! Benchmark of the parallel sweep runner: wall-clock per scenario point and
//! serial vs. parallel speedup for a Figure-5-style sweep.
//!
//! Besides the usual printed timings, this bench emits a machine-readable
//! `BENCH_mobility.json` (path overridable via `BENCH_MOBILITY_OUT`) with
//! the total *and per-point* serial/parallel wall-clock, so the performance
//! trajectory can be tracked across PRs.
//!
//! Serial and parallel passes both run the registry's dyn-dispatched path
//! (`run_spec`) exactly as `figure5` does, so the `speedup` field isolates
//! the executor. A third, generic-fast-path pass (`run_scenario`) anchors
//! the `dyn_overhead` field and the byte-identity assertion (dyn ==
//! generic == parallel).
//!
//! A second trajectory file, `BENCH_engine.json` (path overridable via
//! `BENCH_ENGINE_OUT`), tracks the raw engine hot path: deliveries/sec of
//! the overhauled engine vs the pre-overhaul `ReferenceEngine` on the
//! shared ring/burst micro-workloads, plus scenario-level events/sec, peak
//! queue depth and the allocations-per-delivery sanity counter from
//! [`run_scenario_perf`] (including a `city-scale` point that exercises the
//! sharded clock table).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mhh_bench::engine_micro::{burst_new, burst_reference, measure, ring_new, ring_reference};
use mhh_bench::{bench_base, BENCH_FIG5_CONN_S};
use mhh_mobility::sweep::{available_workers, map_parallel};
use mhh_mobsim::experiments::figure5_with_workers;
use mhh_mobsim::json::Json;
use mhh_mobsim::{
    run_scenario, run_scenario_perf, run_scenario_phases, run_spec, scenarios, FanoutMode,
    Protocol, ProtocolRegistry, ProtocolSpec, RunResult, ScenarioConfig,
};

fn sweep_runner(c: &mut Criterion) {
    let base = bench_base();
    let workers = available_workers();

    let mut group = c.benchmark_group("sweep_runner");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for &(label, w) in &[("serial", 1usize), ("parallel", workers)] {
        group.bench_with_input(BenchmarkId::new("figure5", label), &w, |b, &w| {
            b.iter(|| {
                let fig = figure5_with_workers(&base, &BENCH_FIG5_CONN_S, w);
                std::hint::black_box(fig.points.len())
            })
        });
    }
    group.finish();

    // One precise, single-shot measurement pair for the JSON trajectory
    // file (the shim's group timings above are for humans). Both passes
    // time every point individually; the job list and per-point config
    // mirror `figure5` exactly, which the byte-identity assertion depends
    // on.
    let registry = ProtocolRegistry::builtin();
    let jobs: Vec<(f64, &ProtocolSpec)> = BENCH_FIG5_CONN_S
        .iter()
        .flat_map(|&conn| registry.specs().iter().map(move |spec| (conn, spec)))
        .collect();
    let point_config = |conn: f64| {
        ScenarioConfig {
            conn_mean_s: conn,
            ..base.clone()
        }
        .with_adaptive_duration(1.5)
    };

    // Generic reference pass: the monomorphized fast path, serial. Its
    // total wall-clock quantifies the cost of dyn dispatch (the
    // `dyn_overhead` field); its results anchor the byte-identity check.
    let tg = Instant::now();
    let mut generic_results: Vec<RunResult> = Vec::with_capacity(jobs.len());
    for &(conn, spec) in &jobs {
        let protocol = Protocol::ALL
            .into_iter()
            .find(|p| p.name() == spec.name())
            .expect("builtin specs map to Protocol variants");
        generic_results.push(run_scenario(&point_config(conn), protocol));
    }
    let generic_serial_s = tg.elapsed().as_secs_f64();

    // Serial and parallel passes, both on the dyn path `figure5` uses, so
    // the speedup isolates the executor (same dispatch on both sides).
    let t0 = Instant::now();
    let mut serial_wall_s = Vec::with_capacity(jobs.len());
    let mut serial_results: Vec<RunResult> = Vec::with_capacity(jobs.len());
    for &(conn, spec) in &jobs {
        let config = point_config(conn);
        let t = Instant::now();
        let result = run_spec(&config, spec);
        serial_wall_s.push(t.elapsed().as_secs_f64());
        serial_results.push(result);
    }
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel: Vec<(RunResult, f64)> = map_parallel(&jobs, workers, |&(conn, spec)| {
        let config = point_config(conn);
        let t = Instant::now();
        let result = run_spec(&config, spec);
        (result, t.elapsed().as_secs_f64())
    });
    let parallel_s = t1.elapsed().as_secs_f64();

    let parallel_results: Vec<&RunResult> = parallel.iter().map(|(r, _)| r).collect();
    assert_eq!(
        format!("{serial_results:?}"),
        format!("{parallel_results:?}"),
        "parallel sweep must be byte-identical to a serial run of the same seeds"
    );
    assert_eq!(
        format!("{generic_results:?}"),
        format!("{serial_results:?}"),
        "dyn-dispatched runs must be byte-identical to the generic fast path"
    );

    let per_point: Vec<Json> = jobs
        .iter()
        .enumerate()
        .map(|(i, &(conn, spec))| {
            Json::obj(vec![
                ("x", Json::Num(conn)),
                ("protocol", Json::str(spec.label())),
                ("mobility", Json::str(base.mobility.to_string())),
                ("topology", Json::str(base.topology.to_string())),
                ("serial_wall_s", Json::Num(serial_wall_s[i])),
                ("parallel_wall_s", Json::Num(parallel[i].1)),
            ])
        })
        .collect();

    let points = jobs.len();
    let doc = Json::obj(vec![
        ("bench", Json::str("sweep_runner/figure5")),
        ("scenario_points", Json::UInt(points as u64)),
        ("topology", Json::str(base.topology.to_string())),
        ("workers", Json::UInt(workers as u64)),
        ("serial_wall_s", Json::Num(serial_s)),
        ("parallel_wall_s", Json::Num(parallel_s)),
        ("generic_serial_wall_s", Json::Num(generic_serial_s)),
        ("serial_s_per_point", Json::Num(serial_s / points as f64)),
        (
            "parallel_s_per_point",
            Json::Num(parallel_s / points as f64),
        ),
        // Executor speedup: serial vs parallel on the *same* (dyn) path.
        ("speedup", Json::Num(serial_s / parallel_s)),
        // Cost of dyn dispatch: dyn serial vs generic serial.
        ("dyn_overhead", Json::Num(serial_s / generic_serial_s)),
        ("per_point_wall_s", Json::Arr(per_point)),
        // The bench always runs unbudgeted; the field keeps the trajectory
        // schema aligned with the budgeted figure/matrix JSONs, where
        // `skipped` lists the points a --budget-ms deadline dropped.
        ("skipped", Json::Arr(Vec::new())),
    ]);
    // Benches run with CWD = the package dir; anchor the default at the
    // workspace root so the trajectory file lands in one stable place.
    let out = std::env::var("BENCH_MOBILITY_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mobility.json").into()
    });
    std::fs::write(&out, doc.pretty() + "\n").expect("write BENCH_mobility.json");
    println!(
        "sweep_runner: {points} points, serial {serial_s:.2}s, parallel {parallel_s:.2}s \
         ({workers} workers, speedup {:.2}x, dyn overhead {:.2}x vs generic \
         {generic_serial_s:.2}s) -> {out}",
        serial_s / parallel_s,
        serial_s / generic_serial_s
    );

    engine_trajectory();
}

/// One micro comparison row: `(workload, deliveries, new, reference)`.
fn micro_row(workload: &str, deliveries: u64, new_s: f64, reference_s: f64) -> Json {
    let new_eps = deliveries as f64 / new_s;
    let ref_eps = deliveries as f64 / reference_s;
    println!(
        "engine_micro/{workload:<16} new {new_eps:>12.0} ev/s, reference {ref_eps:>12.0} ev/s \
         (speedup {:.2}x)",
        new_eps / ref_eps
    );
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("deliveries", Json::UInt(deliveries)),
        ("new_wall_s", Json::Num(new_s)),
        ("reference_wall_s", Json::Num(reference_s)),
        ("new_events_per_sec", Json::Num(new_eps)),
        ("reference_events_per_sec", Json::Num(ref_eps)),
        ("speedup", Json::Num(new_eps / ref_eps)),
    ])
}

/// Emit `BENCH_engine.json`: the raw-engine half of the perf trajectory.
fn engine_trajectory() {
    let tries = if criterion::fast_mode() { 1 } else { 5 };

    // Micro: overhauled vs reference engine on identical workloads. The
    // ring isolates per-delivery fixed cost; the burst stresses queue depth
    // and the clock table. These are the acceptance benchmarks — the
    // recorded speedup is the hot-path overhaul's ≥20 % deliveries/sec bar.
    let (ring_d, ring_new_s) = measure(tries, || ring_new(16, 100_000));
    let (ring_rd, ring_ref_s) = measure(tries, || ring_reference(16, 100_000));
    assert_eq!(ring_d, ring_rd);
    let (burst_d, burst_new_s) = measure(tries, || burst_new(64, 400, 128));
    let (burst_rd, burst_ref_s) = measure(tries, || burst_reference(64, 400, 128));
    assert_eq!(burst_d, burst_rd);
    let micro = vec![
        micro_row("ring_100k", ring_d, ring_new_s, ring_ref_s),
        micro_row("burst_dispatch", burst_d, burst_new_s, burst_ref_s),
    ];

    // Scenario-level: full pub/sub runs through `run_scenario_perf`. The
    // figure-bench base runs on the dense clock table; the reduced
    // `city-scale` point (full 2k-client population, shortened horizon)
    // runs on the sharded one. Each point also gets a *separate* profiled
    // pass (`run_scenario_phases`) — profiling adds per-delivery timer
    // reads, so the timing pass above it stays clean.
    let city = scenarios::find("city-scale").expect("registered").config;
    let city_short = ScenarioConfig {
        duration_s: 300.0,
        ..city
    };
    let scenario_points = [
        ("bench-fig5-base", bench_base()),
        ("city-scale-short", city_short),
    ];
    let mut scenario_rows = Vec::new();
    for (name, config) in scenario_points {
        let t = Instant::now();
        let (result, perf) = run_scenario_perf(&config, Protocol::Mhh);
        let wall = t.elapsed().as_secs_f64();
        let eps = perf.deliveries as f64 / wall;
        let apd = perf.alloc_events as f64 / perf.deliveries.max(1) as f64;
        let (_, _, phases) = run_scenario_phases(&config, Protocol::Mhh);
        let total_ns = phases.total_ns().max(1) as f64;
        println!(
            "engine_scenario/{name:<16} {eps:>12.0} ev/s, peak queue {:>8}, \
             allocs/delivery {apd:.6}, phases q/c/p/s {:.0}/{:.0}/{:.0}/{:.0}%",
            perf.peak_queue_depth,
            100.0 * phases.queue_ns as f64 / total_ns,
            100.0 * phases.clocks_ns as f64 / total_ns,
            100.0 * phases.protocol_ns as f64 / total_ns,
            100.0 * phases.stats_ns as f64 / total_ns,
        );
        assert!(result.reliable(), "{name}: MHH must stay reliable");
        scenario_rows.push(Json::obj(vec![
            ("scenario", Json::str(name)),
            ("protocol", Json::str("MHH")),
            ("deliveries", Json::UInt(perf.deliveries)),
            ("wall_s", Json::Num(wall)),
            ("events_per_sec", Json::Num(eps)),
            ("peak_queue_depth", Json::UInt(perf.peak_queue_depth as u64)),
            ("alloc_events", Json::UInt(perf.alloc_events)),
            ("allocs_per_delivery", Json::Num(apd)),
            ("phase_queue_ns", Json::UInt(phases.queue_ns)),
            ("phase_clocks_ns", Json::UInt(phases.clocks_ns)),
            ("phase_protocol_ns", Json::UInt(phases.protocol_ns)),
            ("phase_stats_ns", Json::UInt(phases.stats_ns)),
            (
                "phase_queue_frac",
                Json::Num(phases.queue_ns as f64 / total_ns),
            ),
            (
                "phase_clocks_frac",
                Json::Num(phases.clocks_ns as f64 / total_ns),
            ),
            (
                "phase_protocol_frac",
                Json::Num(phases.protocol_ns as f64 / total_ns),
            ),
            (
                "phase_stats_frac",
                Json::Num(phases.stats_ns as f64 / total_ns),
            ),
        ]));
    }

    // Fan-out trajectory: the serialize-once cached path vs the
    // clone-per-destination baseline on the `fan-out-storm` preset (100
    // publishers broadcasting to 2 000 subscribers with modeled payloads).
    // Delivery results are byte-identical between modes — asserted here, so
    // the recorded savings are measured on provably equivalent runs. The
    // cached path must hold a ≥10× margin on both fan-out allocations and
    // bytes serialized; fast mode trims the subscriber population, which
    // only *shrinks* the fan-out degree and thus tightens that bar.
    let storm = scenarios::find("fan-out-storm").expect("registered").config;
    let storm = if criterion::fast_mode() {
        ScenarioConfig {
            storm_subscribers: 400,
            ..storm
        }
    } else {
        storm
    };
    let mut fanout_rows = Vec::new();
    let mut fanout_results = Vec::new();
    for mode in [FanoutMode::Cached, FanoutMode::CloneBaseline] {
        let config = storm.clone().with_fanout_mode(mode);
        let t = Instant::now();
        let result = run_scenario(&config, Protocol::Mhh);
        let wall = t.elapsed().as_secs_f64();
        let eps = result.delivered_messages as f64 / wall;
        let traffic = result.traffic;
        println!(
            "engine_fanout/fan-out-storm {:<6} {eps:>12.0} ev/s, allocs {:>8}, \
             bytes serialized {:>12}",
            mode.label(),
            traffic.fanout_allocs,
            traffic.bytes_serialized,
        );
        fanout_rows.push(Json::obj(vec![
            ("mode", Json::str(mode.label())),
            ("delivered", Json::UInt(result.delivered_messages)),
            ("wall_s", Json::Num(wall)),
            ("events_per_sec", Json::Num(eps)),
            ("fanouts", Json::UInt(traffic.fanouts)),
            ("serializations", Json::UInt(traffic.serializations)),
            ("bytes_serialized", Json::UInt(traffic.bytes_serialized)),
            ("fanout_allocs", Json::UInt(traffic.fanout_allocs)),
            ("cache_hits", Json::UInt(traffic.cache_hits)),
            ("delivery_bytes", Json::UInt(traffic.delivery_bytes)),
        ]));
        fanout_results.push(result);
    }
    let (cached, clone) = (&fanout_results[0], &fanout_results[1]);
    assert_eq!(
        (cached.delivered_messages, cached.traffic.delivery_bytes),
        (clone.delivered_messages, clone.traffic.delivery_bytes),
        "cached and clone fan-out must deliver identically"
    );
    assert!(
        cached.traffic.fanout_allocs * 10 <= clone.traffic.fanout_allocs,
        "cached fan-out must allocate >=10x less (cached {} vs clone {})",
        cached.traffic.fanout_allocs,
        clone.traffic.fanout_allocs
    );
    assert!(
        cached.traffic.bytes_serialized * 10 <= clone.traffic.bytes_serialized,
        "cached fan-out must serialize >=10x fewer bytes (cached {} vs clone {})",
        cached.traffic.bytes_serialized,
        clone.traffic.bytes_serialized
    );
    println!(
        "engine_fanout/fan-out-storm cached saves {:.1}x allocations, {:.1}x bytes serialized",
        clone.traffic.fanout_allocs as f64 / cached.traffic.fanout_allocs.max(1) as f64,
        clone.traffic.bytes_serialized as f64 / cached.traffic.bytes_serialized.max(1) as f64,
    );

    let doc = Json::obj(vec![
        ("bench", Json::str("engine_hot_path")),
        ("micro", Json::Arr(micro)),
        ("scenarios", Json::Arr(scenario_rows)),
        (
            "fanout",
            Json::obj(vec![
                ("scenario", Json::str("fan-out-storm")),
                ("publishers", Json::UInt(storm.storm_publishers as u64)),
                ("subscribers", Json::UInt(storm.storm_subscribers as u64)),
                (
                    "payload_bytes_mean",
                    Json::UInt(storm.payload_bytes_mean as u64),
                ),
                ("host_workers", Json::UInt(available_workers() as u64)),
                (
                    "alloc_savings",
                    Json::Num(
                        clone.traffic.fanout_allocs as f64
                            / cached.traffic.fanout_allocs.max(1) as f64,
                    ),
                ),
                (
                    "bytes_savings",
                    Json::Num(
                        clone.traffic.bytes_serialized as f64
                            / cached.traffic.bytes_serialized.max(1) as f64,
                    ),
                ),
                ("modes", Json::Arr(fanout_rows)),
            ]),
        ),
    ]);
    let out = std::env::var("BENCH_ENGINE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").into());
    std::fs::write(&out, doc.pretty() + "\n").expect("write BENCH_engine.json");
    println!("engine_trajectory -> {out}");
}

criterion_group!(benches, sweep_runner);
criterion_main!(benches);
