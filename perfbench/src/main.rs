//! `mhh-perfbench`: the simulator's benchmark.
//!
//! ```text
//! mhh-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A workload is a batch job, from a `ScenarioConfig` to every `RunResult`
//! it produces; a run measures several instances of it, each with its own
//! seed derived from `--seed`. With `--trace 0` every instance's job runs
//! once and then again until `--seconds` have passed, and the end-to-end
//! metrics are reported. With `--trace 1` the job is rebuilt from public
//! calls with spans around each layer and a timing wrapper around each
//! protocol hook, and the per-layer metrics are reported. Either way the
//! outputs are checked; a failed check makes the result `"correct": false`
//! and the exit code 1. The last line of standard output is one JSON
//! object; a detailed record (and, traced, the spans) is written under
//! `.bench_out/`. See `perfbench/README.md`.

mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mhh_mobility::sweep::map_parallel;
use mhh_mobsim::experiments::{figure5_in, FIG5_CONN_PERIODS_S};
use mhh_mobsim::json::Json;
use mhh_mobsim::report;
use mhh_mobsim::scenarios;
use mhh_mobsim::{
    run_spec, run_spec_perf, ExperimentPoint, FigureResult, ProtocolRegistry, ProtocolSpec,
    RunResult, ScenarioConfig,
};
use mhh_perfbench::{
    delivery_failures, failed_frac, fnv1a, median, mid_quantile, node_other_s, quartiles,
    self_times, sweep_efficiency, tail_percentile,
};
use mhh_simnet::TrafficClass;

use traced::{setup_once, traced_run, Layers, Tracer, HOOKS};

/// Sweep workers of `figure-sweep` (fixed, so results do not depend on the
/// host's core count).
const SWEEP_WORKERS: usize = 2;

/// Set-up of every instance is timed in passes until this many seconds are
/// spent; `setup_s` is the median over all of them.
const SETUP_BUDGET_S: f64 = 1.0;

/// A traced run covers at least this many instances.
const MIN_TRACED: usize = 2;

/// The end-to-end metrics in the result line. `mhh_delay_tail_ms` is
/// measured and recorded with the others but left out: the highest
/// percentile with ten samples beyond it swings by 15–50 % between seeds,
/// more than any bound the result line is gated with.
const GATED: [&str; 7] = [
    "wall_s",
    "setup_s",
    "peak_rss_mib",
    "ok_frac",
    "mhh_delay_ms",
    "mhh_delay_p50_ms",
    "mhh_overhead_hops",
];

/// A run is abandoned as failed past this many seconds or this peak
/// resident memory, so a simulation that never terminates (or grows
/// without bound) fails fast instead of hanging or exhausting the host.
const WATCHDOG_S: u64 = 150;
const WATCHDOG_RSS_MIB: f64 = 1024.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CityFanout,
    HandoffChurn,
    LossyRecovery,
    LossyReplicated,
    FigureSweep,
}

const WORKLOADS: [(&str, Kind); 5] = [
    ("city-fanout", Kind::CityFanout),
    ("handoff-churn", Kind::HandoffChurn),
    ("lossy-recovery", Kind::LossyRecovery),
    ("lossy-replicated", Kind::LossyReplicated),
    ("figure-sweep", Kind::FigureSweep),
];

/// Registry names of the protocols any workload runs (report order).
const PROTOCOLS: [&str; 4] = ["mhh", "sub-unsub", "home-broker", "psvr"];

/// Simulated horizons (seconds), chosen so one instance takes half a second
/// to two seconds of host time.
const CITY_HORIZON_S: f64 = 50.0;
const CHURN_HORIZON_S: f64 = 45.0;
const CHURN_GRID_SIDE: usize = 8;
const LOSSY_HORIZON_S: f64 = 600.0;

/// Independent instances of the workload per benchmark run, each from its
/// own seed derived from `--seed`. A single seed's scenario has run-wide
/// random structure (topology, filters, who moves), so one instance says
/// little about the workload; the metrics are taken over all instances.
fn instance_count(kind: Kind) -> usize {
    match kind {
        Kind::CityFanout => 20,
        Kind::HandoffChurn => 11,
        Kind::LossyRecovery => 34,
        Kind::LossyReplicated => 12,
        Kind::FigureSweep => 11,
    }
}

/// The seed of every instance of one run: `--seed` (by default the
/// preset's own seed) mixed with the instance index by SplitMix64.
fn instance_seeds(kind: Kind, seed: Option<u64>) -> Vec<u64> {
    let base = seed.unwrap_or_else(|| scenario(kind, None).seed);
    (0..instance_count(kind) as u64)
        .map(|i| {
            let mut z = base.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

fn preset(name: &str) -> ScenarioConfig {
    scenarios::find(name)
        .unwrap_or_else(|| panic!("preset {name} is registered"))
        .config
}

/// The workload's scenario (for `figure-sweep`, the sweep's base), with
/// the seed overridden when one is given.
fn scenario(kind: Kind, seed: Option<u64>) -> ScenarioConfig {
    let mut config = match kind {
        Kind::CityFanout => ScenarioConfig {
            duration_s: CITY_HORIZON_S,
            ..preset("city-scale")
        },
        Kind::HandoffChurn => ScenarioConfig {
            conn_mean_s: 1.0,
            disc_mean_s: 30.0,
            mobile_fraction: 0.5,
            grid_side: CHURN_GRID_SIDE,
            duration_s: CHURN_HORIZON_S,
            ..preset("paper-fig5")
        },
        // The preset's crash storm, loss, corruption, dedup and retransmit,
        // but each restarting broker reloads its own synchronous checkpoint:
        // with neighbour replication on, about one seed in sixty never
        // terminates (`lossy-replicated` keeps that job runnable). Every
        // client moves, so each instance yields four times the preset's
        // MHH handoffs and the heavy-tailed delay mean settles.
        Kind::LossyRecovery => ScenarioConfig {
            checkpoint_replication_ms: 0,
            mobile_fraction: 1.0,
            ..scenario(Kind::LossyReplicated, None)
        },
        Kind::LossyReplicated => ScenarioConfig {
            duration_s: LOSSY_HORIZON_S,
            ..preset("lossy-crash-storm")
        }
        .with_payload_bytes(512)
        .with_mem_tracking(true),
        // The paper's Figure 5 environment on a 5×5 grid: same client
        // density, mobile share, period means and selectivity.
        Kind::FigureSweep => ScenarioConfig {
            grid_side: 5,
            ..preset("paper-fig5")
        },
    };
    config.engine_workers = 0;
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config
}

fn registry(kind: Kind) -> ProtocolRegistry {
    match kind {
        Kind::LossyRecovery | Kind::LossyReplicated => ProtocolRegistry::extended(),
        _ => ProtocolRegistry::builtin(),
    }
}

/// Every `(config, protocol)` run of one job, in result order. For
/// `figure-sweep` this is `figure5_in`'s own point list.
fn runs(kind: Kind, seed: Option<u64>) -> Vec<(ScenarioConfig, ProtocolSpec)> {
    let base = scenario(kind, seed);
    let registry = registry(kind);
    match kind {
        Kind::CityFanout => vec![(base, registry.find("mhh").expect("builtin").clone())],
        Kind::FigureSweep => FIG5_CONN_PERIODS_S
            .iter()
            .flat_map(|&conn| {
                registry.specs().iter().map(move |spec| {
                    let config = ScenarioConfig {
                        conn_mean_s: conn,
                        ..scenario(kind, seed)
                    }
                    .with_adaptive_duration(1.5);
                    (config, spec.clone())
                })
            })
            .collect(),
        _ => registry
            .specs()
            .iter()
            .map(|spec| (base.clone(), spec.clone()))
            .collect(),
    }
}

/// The output of one untraced job.
struct JobOut {
    results: Vec<RunResult>,
    /// `figure-sweep`'s rendered report.
    json: Option<String>,
}

impl JobOut {
    fn fingerprint(&self) -> u64 {
        let mut text = format!("{:?}", self.results);
        if let Some(json) = &self.json {
            text.push_str(json);
        }
        fnv1a(&text)
    }
}

/// Run one job the way a user would: `run_spec` per protocol, or the
/// Figure 5 sweep plus its JSON report.
fn job(kind: Kind, seed: Option<u64>, workers: usize) -> JobOut {
    if kind == Kind::FigureSweep {
        let fig = figure5_in(
            &registry(kind),
            &scenario(kind, seed),
            &FIG5_CONN_PERIODS_S,
            workers,
        );
        let json = report::to_json(&fig);
        return JobOut {
            results: fig.points.into_iter().map(|p| p.result).collect(),
            json: Some(json),
        };
    }
    JobOut {
        results: runs(kind, seed)
            .iter()
            .map(|(config, spec)| run_spec(config, spec))
            .collect(),
        json: None,
    }
}

/// Checks accumulated over one benchmark run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// The output checks every job must pass, whatever the mode.
fn check_results(kind: Kind, out: &JobOut, checks: &mut Checks) {
    for r in &out.results {
        match kind {
            Kind::CityFanout | Kind::HandoffChurn if r.protocol == "MHH" => checks
                .check(r.audit.is_reliable(), || {
                    format!("MHH must be exactly-once and ordered: {:?}", r.audit)
                }),
            Kind::LossyRecovery | Kind::LossyReplicated => checks
                .check(r.recovery.reconciles_with(&r.audit), || {
                    format!("{}: recovery ledger does not reconcile", r.protocol)
                }),
            _ => {}
        }
    }
}

/// Seconds one [`calibrate`] thread takes on the reference host (2 vCPUs
/// at 2.0 GHz, the host the baseline in `perfbench/baseline.json` was
/// measured on, when idle).
const REF_CAL_S: f64 = 0.055;

/// Entries of each calibration permutation (8 MiB of `u32`: beyond a
/// core's private caches, inside the shared one) and the steps taken
/// through it.
const CAL_ENTRIES: usize = 2_000_000;
const CAL_STEPS: usize = 300_000;

/// A fixed memory-latency kernel, independent of the simulator and of the
/// seed: rebuild `perm` as a random cyclic permutation (Sattolo's shuffle)
/// and follow it for [`CAL_STEPS`] dependent loads; returns its seconds.
/// Other tenants slow the simulator mostly through the shared cache and
/// memory, which a working set of this size tracks better than an in-cache
/// kernel does.
fn calibrate(perm: &mut [u32]) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i as u32;
    }
    for i in (1..perm.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        perm.swap(i, (x % i as u64) as usize);
    }
    let mut at = 0usize;
    for _ in 0..CAL_STEPS {
        at = perm[at] as usize;
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64()
}

/// Converts wall time into reference-host seconds: scaled by `REF_CAL_S`
/// over the mean of the [`calibrate`] runs just before and just after the
/// timed work, run at once on as many threads as the workload's jobs use.
/// Consecutive timings share the kernel run between them. The kernel's
/// buffers stay allocated for the whole run, so they add a known constant
/// to the process's resident memory.
struct Clock {
    bufs: Vec<Vec<u32>>,
    last: f64,
}

impl Clock {
    fn new(threads: usize) -> Self {
        let mut clock = Clock {
            bufs: vec![vec![0; CAL_ENTRIES]; threads],
            last: 0.0,
        };
        clock.last = clock.calibrate();
        clock
    }

    /// Mean seconds of one kernel run per thread.
    fn calibrate(&mut self) -> f64 {
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .bufs
                .iter_mut()
                .map(|buf| scope.spawn(|| calibrate(buf)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread"))
                .sum()
        });
        total / self.bufs.len() as f64
    }

    /// Resident MiB of the kernel's buffers.
    fn resident_mib(&self) -> f64 {
        (self.bufs.len() * CAL_ENTRIES * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// The factor that turns raw seconds since the previous call into
    /// reference-host seconds.
    fn factor(&mut self) -> f64 {
        let now = self.calibrate();
        let cal = (self.last + now) / 2.0;
        self.last = now;
        REF_CAL_S / cal
    }

    /// Run `f`; returns its value, its reference-host seconds and its raw
    /// wall seconds.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let t = Instant::now();
        let out = f();
        let raw = t.elapsed().as_secs_f64();
        (out, raw * self.factor(), raw)
    }
}

/// One metric value and its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Host peak resident set size of this process in MiB.
fn peak_rss_mib() -> f64 {
    #[repr(C)]
    struct RUsage {
        // ru_utime, ru_stime (two timevals), then 14 longs from ru_maxrss.
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage { fields: [0; 18] };
    // SAFETY: getrusage(RUSAGE_SELF) fills the caller-owned struct, whose
    // layout matches `struct rusage` on 64-bit Linux.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.fields[4] as f64 / 1024.0
}

/// The end-to-end metrics, measured with tracing off: every instance's job
/// once, then repeats in instance order until `seconds` have passed (at
/// least one repeat, which must reproduce its instance's fingerprint).
fn timed_run(
    kind: Kind,
    seeds: &[u64],
    seconds: f64,
    checks: &mut Checks,
    detail: &mut Vec<(&str, Json)>,
) -> Metrics {
    let threads = if kind == Kind::FigureSweep {
        SWEEP_WORKERS
    } else {
        1
    };
    let mut clock = Clock::new(threads);

    // Set-up of every instance, in passes until SETUP_BUDGET_S is spent;
    // each pass is calibrated as a whole.
    let plans: Vec<_> = seeds.iter().map(|&s| runs(kind, Some(s))).collect();
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    while setups_raw.is_empty() || setups_raw.iter().sum::<f64>() < SETUP_BUDGET_S {
        let pass: Vec<f64> = plans
            .iter()
            .map(|plan| plan.iter().map(|(c, s)| setup_once(c, s)).sum())
            .collect();
        let factor = clock.factor();
        setups.extend(pass.iter().map(|raw| raw * factor));
        setups_raw.extend(pass);
    }

    let start = Instant::now();
    let (mut walls, mut walls_raw) = (Vec::new(), Vec::new());
    let mut outs: Vec<JobOut> = Vec::new();
    let mut n = 0;
    while n <= seeds.len() || start.elapsed().as_secs_f64() < seconds {
        let i = n % seeds.len();
        // figure-sweep's first repeat runs on one worker, so its
        // fingerprint (report included) checks the 2-worker sweep against
        // the 1-worker one; its time is not a 2-worker time and is dropped.
        let serial = kind == Kind::FigureSweep && n == seeds.len();
        let workers = if serial { 1 } else { SWEEP_WORKERS };
        let (out, scaled, raw) = clock.time(|| job(kind, Some(seeds[i]), workers));
        if !serial {
            walls.push(scaled);
            walls_raw.push(raw);
        }
        checks.attempted += out.results.len() as u64;
        if outs.len() < seeds.len() {
            check_results(kind, &out, checks);
            outs.push(out);
        } else {
            checks.check(out.fingerprint() == outs[i].fingerprint(), || {
                if serial {
                    "the 1-worker sweep differs from the 2-worker sweep".to_string()
                } else {
                    format!("seed {}: a repeat changed the result fingerprint", seeds[i])
                }
            });
        }
        n += 1;
    }

    // The simulated metrics pool every MHH handoff of every instance.
    let mhh: Vec<&RunResult> = outs
        .iter()
        .flat_map(|o| &o.results)
        .filter(|r| r.protocol == "MHH")
        .collect();
    let mut delays: Vec<f64> = mhh.iter().flat_map(|r| r.ledger.delays_ms()).collect();
    delays.sort_by(f64::total_cmp);
    let hops: u64 = mhh.iter().map(|r| r.mobility_hops).sum();
    let handoffs: u64 = mhh.iter().map(|r| r.handoffs).sum();
    let tail = tail_percentile(&delays);
    checks.check(handoffs > 0 && tail.is_some(), || {
        format!("{} MHH delay samples are too few for a tail", delays.len())
    });
    let Some(tail) = tail else {
        return Metrics::new();
    };
    let audits = || outs.iter().flat_map(|o| o.results.iter().map(|r| &r.audit));
    let (failures, expected) = delivery_failures(audits());

    let mut m = Metrics::new();
    m.insert("wall_s".into(), (median(&walls), "s"));
    m.insert("setup_s".into(), (median(&setups), "s"));
    m.insert(
        "peak_rss_mib".into(),
        (peak_rss_mib() - clock.resident_mib(), "MiB"),
    );
    m.insert("ok_frac".into(), (1.0 - failed_frac(audits()), "ratio"));
    m.insert(
        "mhh_delay_ms".into(),
        (delays.iter().sum::<f64>() / delays.len() as f64, "ms"),
    );
    m.insert(
        "mhh_delay_p50_ms".into(),
        (mid_quantile(&delays, 50.0), "ms"),
    );
    m.insert("mhh_delay_tail_ms".into(), (tail.value, "ms"));
    m.insert(
        "mhh_overhead_hops".into(),
        (hops as f64 / handoffs as f64, "hops"),
    );

    let instances: Vec<Json> = outs
        .iter()
        .zip(seeds)
        .map(|(out, seed)| {
            let runs = out
                .results
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("protocol", Json::str(&r.protocol)),
                        ("expected", Json::Int(r.audit.expected as i64)),
                        ("lost", Json::Int(r.audit.lost as i64)),
                        ("duplicates", Json::Int(r.audit.duplicates as i64)),
                        ("out_of_order", Json::Int(r.audit.out_of_order as i64)),
                        ("handoffs", Json::Int(r.handoffs as i64)),
                        ("delay_samples", Json::Int(r.delay_samples as i64)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("seed", Json::str(seed.to_string())),
                (
                    "fingerprint",
                    Json::str(format!("{:016x}", out.fingerprint())),
                ),
                ("runs", Json::Arr(runs)),
            ])
        })
        .collect();
    let (w1, wm, w3) = quartiles(&walls);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    detail.extend([
        ("wall_s_jobs", nums(&walls)),
        ("wall_s_quartiles", nums(&[w1, wm, w3])),
        ("wall_s_raw_jobs", nums(&walls_raw)),
        ("wall_s_raw_median", Json::Num(median(&walls_raw))),
        ("setup_s_samples", nums(&setups)),
        ("setup_s_raw_median", Json::Num(median(&setups_raw))),
        ("failed_frac", Json::Num(failures as f64 / expected.max(1) as f64)),
        (
            "failed_frac_base",
            Json::str(format!(
                "(lost + duplicates + out_of_order) = {failures} over {expected} expected deliveries, summed over every run of every instance"
            )),
        ),
        ("mhh_delay_tail_percentile", Json::Num(tail.percentile)),
        ("mhh_delay_tail_samples", Json::Int(tail.samples as i64)),
        ("instances", Json::Arr(instances)),
    ]);
    m
}

/// Names and units of every per-layer metric, in report order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("topology.build_s".into(), "s"),
        ("workload.generate_s".into(), "s"),
        ("workload.timeline_entries".into(), "count"),
        ("deploy.build_s".into(), "s"),
        ("engine.drive_s".into(), "s"),
        ("engine.queue_s".into(), "s"),
        ("engine.clocks_s".into(), "s"),
        ("engine.node_s".into(), "s"),
        ("engine.stats_s".into(), "s"),
        ("engine.deliveries".into(), "count"),
        ("engine.ns_per_delivery".into(), "ns"),
        ("engine.peak_queue_depth".into(), "count"),
        ("engine.alloc_events".into(), "count"),
    ];
    for proto in PROTOCOLS {
        for hook in HOOKS {
            names.push((format!("proto.{proto}.{hook}.calls"), "count"));
            names.push((format!("proto.{proto}.{hook}.s"), "s"));
        }
    }
    names.push(("node.other_s".into(), "s"));
    names.push(("node.other_ns_per_delivery".into(), "ns"));
    for class in TrafficClass::ALL {
        if class != TrafficClass::Timer {
            names.push((format!("traffic.{}.messages", class_name(class)), "count"));
        }
    }
    for (name, unit) in [
        ("traffic.mobility_hops", "hops"),
        ("fanout.serializations", "count"),
        ("fanout.cache_hits", "count"),
        ("fanout.allocs", "count"),
        ("fanout.bytes_serialized", "B"),
        ("drops.fault", "count"),
        ("drops.loss", "count"),
        ("drops.corruption", "count"),
        ("reliability.retransmissions", "count"),
        ("reliability.duplicates_suppressed", "count"),
        ("reliability.stale_resubscribes", "count"),
        ("mem.buffered_bytes_peak", "B"),
        ("mem.checkpoint_bytes_peak", "B"),
        ("mem.dedup_bytes_peak", "B"),
        ("collect.audit_s", "s"),
        ("collect.handover_ledger_s", "s"),
        ("collect.recovery_ledger_s", "s"),
        ("collect.records", "count"),
        ("sweep.points", "count"),
        ("sweep.point_s_p50", "s"),
        ("sweep.point_s_max", "s"),
        ("sweep.efficiency", "ratio"),
        ("sweep.arena_alloc_events_warm", "count"),
        ("report.json_s", "s"),
        ("report.json_bytes", "B"),
        ("trace.overhead", "ratio"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

fn class_name(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::EventRouting => "event_routing",
        TrafficClass::EventDelivery => "event_delivery",
        TrafficClass::Subscription => "subscription",
        TrafficClass::MobilityControl => "mobility_control",
        TrafficClass::MobilityTransfer => "mobility_transfer",
        TrafficClass::ClientControl => "client_control",
        TrafficClass::Repair => "repair",
        TrafficClass::Timer => "timer",
    }
}

/// Sweep-executor numbers of `figure-sweep`'s traced pass.
#[derive(Default)]
struct SweepNumbers {
    point_s: Vec<f64>,
    wall_s: f64,
    alloc_events_warm: u64,
    json_s: f64,
    json_bytes: usize,
}

thread_local! {
    /// Whether this sweep worker thread has already run a point (its
    /// engine arena is then warm).
    static WARM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One traced pass over a job: the equivalence gate plus every per-layer
/// number.
fn traced_pass(
    kind: Kind,
    seed: Option<u64>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> BTreeMap<String, f64> {
    let root = tracer.open(&format!("workload.{}", workload_name(kind)), None);
    let plan = runs(kind, seed);

    // The untraced reference results and times, and for figure-sweep the
    // sweep executor and the report renderer timed from outside.
    let mut sweep = SweepNumbers::default();
    let (reference, untraced_s): (Vec<RunResult>, Vec<f64>) = if kind == Kind::FigureSweep {
        let user = job(kind, seed, SWEEP_WORKERS);
        let span = tracer.open("sweep", Some(root));
        let origin = Instant::now();
        let offset = tracer.now();
        let timed: Vec<(RunResult, f64, f64, u64)> =
            map_parallel(&plan, SWEEP_WORKERS, |(config, spec)| {
                let start = origin.elapsed().as_secs_f64();
                let (result, perf) = run_spec_perf(config, spec);
                let end = origin.elapsed().as_secs_f64();
                let warm = WARM.replace(true);
                (result, start, end, if warm { perf.alloc_events } else { 0 })
            });
        sweep.wall_s = tracer.close(span);
        for (_, start, end, _) in &timed {
            tracer.spans.push(mhh_perfbench::Span {
                name: "sweep.point".into(),
                start: offset + start,
                end: offset + end,
                parent: Some(span),
            });
        }
        sweep.point_s = timed.iter().map(|(_, s, e, _)| e - s).collect();
        sweep.alloc_events_warm = timed.iter().map(|t| t.3).sum();
        let fig = FigureResult {
            name: "figure5".to_string(),
            x_label: "avg. length of conn. period (s)".to_string(),
            points: plan
                .iter()
                .zip(&timed)
                .map(|((config, spec), (result, ..))| ExperimentPoint {
                    x: config.conn_mean_s,
                    protocol: spec.label().to_string(),
                    mobility: config.mobility.to_string(),
                    topology: config.topology.to_string(),
                    result: result.clone(),
                })
                .collect(),
            skipped: Vec::new(),
        };
        let (json, t) = tracer.span("report.json", root, || report::to_json(&fig));
        sweep.json_s = t;
        sweep.json_bytes = json.len();
        checks.attempted += plan.len() as u64;
        checks.check(user.json.as_deref() == Some(json.as_str()), || {
            "the composed sweep's report differs from figure5_in's".to_string()
        });
        (user.results, sweep.point_s.clone())
    } else {
        plan.iter()
            .map(|(config, spec)| tracer.span("untraced.run_spec", root, || run_spec(config, spec)))
            .unzip()
    };
    checks.attempted += reference.len() as u64;

    let mut layers = Layers::default();
    let mut traced_s = 0.0;
    let mut traced = Vec::new();
    for ((config, spec), expected) in plan.iter().zip(&reference) {
        let t = tracer.now();
        let (result, run_layers) = traced_run(tracer, root, config, spec);
        traced_s += tracer.now() - t;
        checks.attempted += 1;
        checks.check(format!("{result:?}") == format!("{expected:?}"), || {
            format!(
                "{} at conn {}s: the traced pipeline's RunResult differs from run_spec's",
                spec.name(),
                config.conn_mean_s
            )
        });
        layers.add(&run_layers);
        traced.push(result);
    }
    check_results(
        kind,
        &JobOut {
            results: traced,
            json: None,
        },
        checks,
    );
    tracer.close(root);

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("topology.build_s", layers.topology_s);
    put("workload.generate_s", layers.generate_s);
    put("workload.timeline_entries", layers.timeline_entries as f64);
    put("deploy.build_s", layers.deploy_s);
    put("engine.drive_s", layers.drive_s);
    let ph = layers.phases;
    put("engine.queue_s", ph.queue_ns as f64 * 1e-9);
    put("engine.clocks_s", ph.clocks_ns as f64 * 1e-9);
    put("engine.node_s", ph.protocol_ns as f64 * 1e-9);
    put("engine.stats_s", ph.stats_ns as f64 * 1e-9);
    let deliveries = layers.perf.deliveries.max(1) as f64;
    put("engine.deliveries", layers.perf.deliveries as f64);
    put("engine.ns_per_delivery", layers.drive_s * 1e9 / deliveries);
    put(
        "engine.peak_queue_depth",
        layers.perf.peak_queue_depth as f64,
    );
    put("engine.alloc_events", layers.perf.alloc_events as f64);
    for proto in PROTOCOLS {
        let stats = layers
            .hooks
            .iter()
            .find(|(n, _)| n == proto)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        for (i, hook) in HOOKS.iter().enumerate() {
            put(
                &format!("proto.{proto}.{hook}.calls"),
                stats.calls[i] as f64,
            );
            put(
                &format!("proto.{proto}.{hook}.s"),
                stats.ns[i] as f64 * 1e-9,
            );
        }
    }
    let other = node_other_s(ph.protocol_ns as f64 * 1e-9, &layers.hook_s());
    put("node.other_s", other);
    put("node.other_ns_per_delivery", other * 1e9 / deliveries);
    for (i, class) in TrafficClass::ALL.iter().enumerate() {
        if *class != TrafficClass::Timer {
            put(
                &format!("traffic.{}.messages", class_name(*class)),
                layers.traffic[i] as f64,
            );
        }
    }
    put("traffic.mobility_hops", layers.mobility_hops as f64);
    let f = layers.fanout;
    put("fanout.serializations", f.serializations as f64);
    put("fanout.cache_hits", f.cache_hits as f64);
    put("fanout.allocs", f.fanout_allocs as f64);
    put("fanout.bytes_serialized", f.bytes_serialized as f64);
    put("drops.fault", layers.drops[0] as f64);
    put("drops.loss", layers.drops[1] as f64);
    put("drops.corruption", layers.drops[2] as f64);
    put("reliability.retransmissions", layers.retransmissions as f64);
    put(
        "reliability.duplicates_suppressed",
        layers.duplicates_suppressed as f64,
    );
    put(
        "reliability.stale_resubscribes",
        layers.stale_resubscribes as f64,
    );
    put("mem.buffered_bytes_peak", f.buffered_bytes_peak as f64);
    put("mem.checkpoint_bytes_peak", f.checkpoint_bytes_peak as f64);
    put("mem.dedup_bytes_peak", f.dedup_bytes_peak as f64);
    put("collect.audit_s", layers.audit_s);
    put("collect.handover_ledger_s", layers.handover_ledger_s);
    put("collect.recovery_ledger_s", layers.recovery_ledger_s);
    put("collect.records", layers.records as f64);
    put("sweep.points", sweep.point_s.len() as f64);
    let (p50, max) = if sweep.point_s.is_empty() {
        (0.0, 0.0)
    } else {
        (
            median(&sweep.point_s),
            sweep.point_s.iter().copied().fold(0.0, f64::max),
        )
    };
    put("sweep.point_s_p50", p50);
    put("sweep.point_s_max", max);
    put(
        "sweep.efficiency",
        if sweep.point_s.is_empty() {
            0.0
        } else {
            sweep_efficiency(&sweep.point_s, SWEEP_WORKERS, sweep.wall_s)
        },
    );
    put(
        "sweep.arena_alloc_events_warm",
        sweep.alloc_events_warm as f64,
    );
    put("report.json_s", sweep.json_s);
    put("report.json_bytes", sweep.json_bytes as f64);
    put("trace.overhead", traced_s / untraced_s.iter().sum::<f64>());
    m
}

fn workload_name(kind: Kind) -> &'static str {
    WORKLOADS
        .iter()
        .find(|(_, k)| *k == kind)
        .map(|(n, _)| *n)
        .expect("every kind is listed")
}

/// The per-layer metrics: one traced pass per instance, in instance order
/// until `seconds` have passed (at least [`MIN_TRACED`] instances), medians
/// per metric across the passes.
fn traced_runs(
    kind: Kind,
    seeds: &[u64],
    seconds: f64,
    checks: &mut Checks,
    detail: &mut Vec<(&str, Json)>,
    out_stem: &str,
) -> Metrics {
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let mut passes: Vec<BTreeMap<String, f64>> = Vec::new();
    while passes.len() < MIN_TRACED.min(seeds.len())
        || (passes.len() < seeds.len() && start.elapsed().as_secs_f64() < seconds)
    {
        let seed = seeds[passes.len()];
        passes.push(traced_pass(kind, Some(seed), &mut tracer, checks));
    }
    let mut m = Metrics::new();
    for (name, unit) in per_layer_names() {
        let values: Vec<f64> = passes.iter().map(|p| p[&name]).collect();
        m.insert(name, (median(&values), unit));
    }

    // Self time per layer, summed over every span of that name.
    let own = self_times(&tracer.spans);
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, t) in tracer.spans.iter().zip(&own) {
        *by_layer.entry(span.name.as_str()).or_default() += t;
    }
    eprintln!("self time by layer over {} traced passes:", passes.len());
    for (name, t) in &by_layer {
        eprintln!("  {name:<28} {t:>10.4} s");
    }
    detail.push(("traced_passes", Json::Int(passes.len() as i64)));
    detail.push((
        "self_time_s",
        Json::Obj(
            by_layer
                .iter()
                .map(|(n, t)| (n.to_string(), Json::Num(*t)))
                .collect(),
        ),
    ));
    let spans = Json::Arr(
        tracer
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                ])
            })
            .collect(),
    );
    write_out(&format!("{out_stem}-spans.json"), &spans.pretty());
    m
}

fn write_out(file: &str, text: &str) {
    let dir = std::path::Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(dir.join(file), text))
    {
        eprintln!("could not write .bench_out/{file}: {e}");
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}

/// `--workload all`: every workload, timed then traced, each in its own
/// process so `peak_rss_mib` is that workload's alone.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    let mut rows = String::new();
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seconds", &args.seconds.to_string()]);
            cmd.args(["--trace", trace]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn a workload run");
            ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("").to_string();
            writeln!(rows, "{name} trace={trace}: {last}").expect("writing to a String");
        }
    }
    print!("{rows}");
    println!("{{\"correct\": {ok}}}");
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(&(name, kind)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };

    let seed_label = args
        .seed
        .map_or_else(|| "default".to_string(), |s| s.to_string());
    let stem = format!("{name}-seed{seed_label}-trace{}", args.trace as u8);
    let mut detail: Vec<(&str, Json)> = vec![
        ("workload", Json::str(name)),
        (
            "seed",
            Json::str(scenario(kind, args.seed).seed.to_string()),
        ),
        (
            "host_workers",
            Json::Int(mhh_mobility::sweep::available_workers() as i64),
        ),
    ];
    let seeds = instance_seeds(kind, args.seed);
    let (trace, seconds, spans_stem) = (args.trace, args.seconds, stem.clone());
    let worker = std::thread::spawn(move || {
        let mut checks = Checks::default();
        let metrics = if trace {
            traced_runs(kind, &seeds, seconds, &mut checks, &mut detail, &spans_stem)
        } else {
            timed_run(kind, &seeds, seconds, &mut checks, &mut detail)
        };
        (metrics, checks, detail)
    });
    // Supervise the worker, so a simulation that never terminates (or
    // grows without bound) fails the run instead of hanging it or
    // exhausting the host's memory.
    let start = Instant::now();
    while !worker.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(200));
        let (elapsed, rss) = (start.elapsed().as_secs(), peak_rss_mib());
        if elapsed >= WATCHDOG_S || rss >= WATCHDOG_RSS_MIB {
            eprintln!(
                "CHECK FAILED: run abandoned after {elapsed} s at {rss:.0} MiB peak RSS: \
                 a simulation did not terminate"
            );
            println!("{}", result_line(false, 1, 1, &Metrics::new()));
            std::process::exit(1);
        }
    }
    let Ok((metrics, checks, mut detail)) = worker.join() else {
        eprintln!("CHECK FAILED: the benchmark panicked");
        println!("{}", result_line(false, 1, 1, &Metrics::new()));
        std::process::exit(1);
    };
    let failed = checks.failures.len() as u64;
    let correct = failed == 0;
    detail.push((
        "check_failures",
        Json::Arr(checks.failures.iter().map(Json::str).collect()),
    ));
    detail.push((
        "metrics",
        Json::Obj(
            metrics
                .iter()
                .map(|(n, (v, u))| {
                    (
                        n.clone(),
                        Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        ),
    ));
    write_out(&format!("{stem}.json"), &Json::obj(detail).pretty());
    for (n, (v, u)) in &metrics {
        eprintln!("{name:<15} {n:<40} {v:>16.6} {u}");
    }
    let reported: Metrics = metrics
        .into_iter()
        .filter(|(n, _)| args.trace || GATED.contains(&n.as_str()))
        .collect();
    println!(
        "{}",
        result_line(correct, checks.attempted.max(1), failed, &reported)
    );
    if !correct {
        std::process::exit(1);
    }
}
