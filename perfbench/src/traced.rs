//! The traced run: the runner's pipeline rebuilt from public calls, with a
//! span around every call into a layer and a timing wrapper around every
//! mobility-protocol hook.
//!
//! [`traced_run`] mirrors `mhh_mobsim::runner::run_spec` step for step —
//! network, workload, protocol factory, deployment, lazy timeline
//! injection, `run_to_completion`, then the audit and both ledgers — so its
//! [`RunResult`] must equal `run_spec`'s. The caller checks that equality
//! (the equivalence gate); a drift in the runner shows up as a failed run
//! instead of silently skewing the layer numbers.

use std::sync::Arc;
use std::time::Instant;

use mhh_mobsim::metrics::ClientHandoverLog;
use mhh_mobsim::{
    HandoverLedger, ProtocolSpec, RecoveryLedger, RunResult, ScenarioConfig, TrafficReport,
    Workload,
};
use mhh_perfbench::Span;
use mhh_pubsub::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use mhh_pubsub::delivery::SubscriberLog;
use mhh_pubsub::{
    audit, repair_drives, BoxedMsg, BrokerId, ClientId, ConnectInfo, Deployment, DeploymentConfig,
    DynProtocol, Event, Filter, NetMsg, Peer,
};
use mhh_simnet::{
    DropCause, EngineArena, EnginePerf, PhaseBreakdown, SimDuration, SimTime, TrafficClass,
};

/// The four timed protocol hooks, in report order.
pub const HOOKS: [&str; 4] = ["connect", "disconnect", "msg", "event"];

/// Calls and nanoseconds per protocol hook (indexed like [`HOOKS`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    pub calls: [u64; 4],
    pub ns: [u64; 4],
}

impl HookStats {
    fn add(&mut self, other: &HookStats) {
        for i in 0..4 {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }

    /// Seconds spent in all four hooks together.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// A registry protocol wrapped so every hook call is counted and timed.
/// Delegates every call unchanged, so the run is behaviourally identical to
/// the unwrapped `Box<dyn DynProtocol>` deployment.
pub struct Timed {
    inner: Box<dyn DynProtocol>,
    stats: HookStats,
}

impl Timed {
    fn time<R>(&mut self, hook: usize, f: impl FnOnce(&mut Box<dyn DynProtocol>) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.stats.ns[hook] += start.elapsed().as_nanos() as u64;
        self.stats.calls[hook] += 1;
        out
    }
}

impl MobilityProtocol for Timed {
    type Msg = BoxedMsg;

    fn name(&self) -> &'static str {
        MobilityProtocol::name(&self.inner)
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.time(0, |p| p.on_client_connect(core, info, ctx));
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: Filter,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.time(1, |p| {
            p.on_client_disconnect(core, client, filter, proclaimed_dest, ctx)
        });
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: BoxedMsg,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.time(2, |p| p.on_protocol_msg(core, from, msg, ctx));
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: Event,
        from: Peer,
        ctx: &mut BrokerCtx<'_, BoxedMsg>,
    ) {
        self.time(3, |p| p.on_client_event(core, client, event, from, ctx));
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        MobilityProtocol::buffered_events(&self.inner)
    }

    fn buffered_bytes(&self) -> u64 {
        MobilityProtocol::buffered_bytes(&self.inner)
    }

    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, BoxedMsg>) {
        MobilityProtocol::on_restart(&mut self.inner, core, ctx);
    }
}

/// Spans of one traced process, kept in memory until the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the trace began.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        end - span.start
    }

    /// Run `f` inside a span and return its value and duration.
    pub fn span<R>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }
}

/// Per-layer numbers of one traced run (or a sum of several).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub topology_s: f64,
    pub generate_s: f64,
    pub timeline_entries: u64,
    pub deploy_s: f64,
    pub drive_s: f64,
    pub phases: PhaseBreakdown,
    pub perf: EnginePerf,
    /// Hook statistics per protocol registry name.
    pub hooks: Vec<(String, HookStats)>,
    pub traffic: [u64; TrafficClass::COUNT],
    pub mobility_hops: u64,
    pub fanout: TrafficReport,
    pub drops: [u64; 3],
    pub retransmissions: u64,
    pub duplicates_suppressed: u64,
    pub stale_resubscribes: u64,
    pub audit_s: f64,
    pub handover_ledger_s: f64,
    pub recovery_ledger_s: f64,
    pub records: u64,
}

impl Layers {
    /// Accumulate another run's layers into this sum: counts and times
    /// add, peaks take the maximum.
    pub fn add(&mut self, o: &Layers) {
        self.topology_s += o.topology_s;
        self.generate_s += o.generate_s;
        self.timeline_entries += o.timeline_entries;
        self.deploy_s += o.deploy_s;
        self.drive_s += o.drive_s;
        self.phases.queue_ns += o.phases.queue_ns;
        self.phases.clocks_ns += o.phases.clocks_ns;
        self.phases.protocol_ns += o.phases.protocol_ns;
        self.phases.stats_ns += o.phases.stats_ns;
        self.perf.deliveries += o.perf.deliveries;
        self.perf.peak_queue_depth = self.perf.peak_queue_depth.max(o.perf.peak_queue_depth);
        self.perf.alloc_events += o.perf.alloc_events;
        self.perf.fanout_allocs += o.perf.fanout_allocs;
        for (name, stats) in &o.hooks {
            match self.hooks.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.add(stats),
                None => self.hooks.push((name.clone(), *stats)),
            }
        }
        for i in 0..TrafficClass::COUNT {
            self.traffic[i] += o.traffic[i];
        }
        self.mobility_hops += o.mobility_hops;
        let (f, g) = (&mut self.fanout, &o.fanout);
        f.serializations += g.serializations;
        f.cache_hits += g.cache_hits;
        f.fanout_allocs += g.fanout_allocs;
        f.bytes_serialized += g.bytes_serialized;
        f.buffered_bytes_peak = f.buffered_bytes_peak.max(g.buffered_bytes_peak);
        f.checkpoint_bytes_peak = f.checkpoint_bytes_peak.max(g.checkpoint_bytes_peak);
        f.dedup_bytes_peak = f.dedup_bytes_peak.max(g.dedup_bytes_peak);
        for i in 0..3 {
            self.drops[i] += o.drops[i];
        }
        self.retransmissions += o.retransmissions;
        self.duplicates_suppressed += o.duplicates_suppressed;
        self.stale_resubscribes += o.stale_resubscribes;
        self.audit_s += o.audit_s;
        self.handover_ledger_s += o.handover_ledger_s;
        self.recovery_ledger_s += o.recovery_ledger_s;
        self.records += o.records;
    }

    /// Seconds spent in every protocol hook of every protocol.
    pub fn hook_s(&self) -> Vec<f64> {
        self.hooks.iter().map(|(_, h)| h.total_s()).collect()
    }
}

/// The substrate config of a scenario, field for field as the runner
/// derives it.
pub fn deployment_config(config: &ScenarioConfig) -> DeploymentConfig {
    DeploymentConfig {
        grid_side: config.grid_side,
        topology: config.topology.clone(),
        seed: config.seed,
        wired_latency: SimDuration::from_millis(config.wired_ms),
        wireless_latency: SimDuration::from_millis(config.wireless_ms),
        link_model: config.link_model(),
        covering: config.covering,
        engine_workers: config.engine_workers,
        fanout_mode: config.fanout_mode,
        retained: config.retained,
        shared_group_size: config.shared_group_size,
        track_mem: config.track_mem,
        dedup_window: config.dedup_window,
        retransmit: config.retransmit,
        checkpoint_replication_ms: config.checkpoint_replication_ms,
        replication_horizon_ms: (config.duration_s * 1000.0).ceil() as u64,
    }
}

/// One protocol run of one scenario through the composed pipeline, with
/// spans under `parent`. Returns the run's result and its layer numbers.
pub fn traced_run(
    tracer: &mut Tracer,
    parent: usize,
    config: &ScenarioConfig,
    spec: &ProtocolSpec,
) -> (RunResult, Layers) {
    let run = tracer.open(&format!("run.{}", spec.name()), Some(parent));
    let mut layers = Layers::default();

    let (network, t) = tracer.span("topology.build", run, || config.build_network());
    layers.topology_s = t;
    let (workload, t) = tracer.span("workload.generate", run, || {
        Workload::generate_on(config, &network)
    });
    layers.generate_s = t;
    layers.timeline_entries = workload.timeline.len() as u64;
    let (mut factory, _) = tracer.span("proto.instantiate", run, || {
        spec.instantiate(config, &network)
    });

    let dep_config = deployment_config(config);
    let faults = config.fault_schedule(&network);
    if let Err(e) = faults.validate(SimTime::from_secs_f64(config.duration_s)) {
        panic!("invalid fault schedule: {e}");
    }
    let (mut dep, t) = tracer.span("deploy.build", run, || {
        Deployment::build_on_in(
            network.clone(),
            &dep_config,
            &workload.clients,
            |b| Timed {
                inner: factory(b),
                stats: HookStats::default(),
            },
            EngineArena::new(),
        )
    });
    layers.deploy_s = t;

    let drive = tracer.open("engine.drive", Some(run));
    dep.engine.enable_phase_profile();
    if let Some(loss) = config.loss_model() {
        dep.engine.set_loss(loss);
    }
    let drives = if faults.is_empty() {
        Vec::new()
    } else {
        dep.engine.set_faults(Arc::new(faults.clone()));
        repair_drives(
            &faults,
            &network,
            &dep.book,
            SimDuration::from_secs_f64(config.faults.detection_delay_s),
        )
    };
    dep.engine
        .reserve_external_seqs((drives.len() + workload.timeline.len()) as u64);
    dep.arm_replication_ticks();
    for (at, node, msg) in drives {
        dep.engine.schedule_external_reserved(at, node, msg);
    }
    let mut order: Vec<usize> = (0..workload.timeline.len()).collect();
    order.sort_by_key(|&i| workload.timeline[i].at);
    for &i in &order {
        let entry = &workload.timeline[i];
        dep.engine.run_strictly_before(entry.at);
        dep.engine.schedule_external_reserved(
            entry.at,
            dep.book.client_node(entry.client),
            NetMsg::Action(entry.action.clone()),
        );
    }
    dep.engine.run_to_completion();
    layers.drive_s = tracer.close(drive);
    layers.perf = dep.engine.perf();
    layers.phases = dep
        .engine
        .phase_breakdown()
        .expect("the serial engine was asked to profile");
    let mut hooks = HookStats::default();
    for b in dep.brokers() {
        hooks.add(&b.proto.stats);
    }
    layers.hooks.push((spec.name().to_string(), hooks));

    let result = collect(
        tracer,
        run,
        config,
        spec.label(),
        &dep,
        &faults,
        &mut layers,
    );
    tracer.close(run);
    (result, layers)
}

/// The runner's end-of-run collection, with the audit and both ledgers
/// each in its own span.
fn collect(
    tracer: &mut Tracer,
    run: usize,
    config: &ScenarioConfig,
    label: &str,
    dep: &Deployment<Timed>,
    faults: &mhh_simnet::FaultSchedule,
    layers: &mut Layers,
) -> RunResult {
    let span = tracer.open("collect", Some(run));
    let ((published, buffered, logs, audit_result), t) = tracer.span("collect.audit", span, || {
        let published: Vec<Event> = dep.clients().flat_map(|c| c.published.clone()).collect();
        let buffered = dep.buffered_events();
        let logs: Vec<(ClientId, Filter, Vec<mhh_pubsub::DeliveryRecord>)> = dep
            .clients()
            .map(|c| (c.id, c.filter.clone(), c.received.clone()))
            .collect();
        let subscriber_logs: Vec<SubscriberLog<'_>> = logs
            .iter()
            .map(|(id, filter, recs)| SubscriberLog {
                client: *id,
                filter,
                deliveries: recs,
            })
            .collect();
        let audit_result = audit(&published, &subscriber_logs, &buffered);
        (published, buffered, logs, audit_result)
    });
    layers.audit_s = t;
    layers.records = logs.iter().map(|(_, _, r)| r.len() as u64).sum();

    let handover_logs: Vec<ClientHandoverLog<'_>> = dep
        .clients()
        .zip(logs.iter())
        .map(|(c, (_, filter, recs))| ClientHandoverLog {
            client: c.id,
            filter,
            disconnects: &c.disconnects,
            reconnects: &c.reconnects,
            deliveries: recs,
        })
        .collect();
    let (ledger, t) = tracer.span("collect.handover_ledger", span, || {
        HandoverLedger::assemble(&published, &handover_logs, &buffered)
    });
    layers.handover_ledger_s = t;
    let (mut recovery, t) = tracer.span("collect.recovery_ledger", span, || {
        RecoveryLedger::assemble(
            faults.windows(),
            dep.engine.drops(),
            &published,
            &handover_logs,
            &buffered,
        )
    });
    layers.recovery_ledger_s = t;
    recovery.duplicates_suppressed = dep.duplicates_suppressed();
    recovery.retransmissions = dep.retransmissions();
    recovery.stale_resubscribes = dep.stale_resubscribes();

    let stats = dep.engine.stats();
    for (i, class) in TrafficClass::ALL.iter().enumerate() {
        layers.traffic[i] = stats.class(*class).messages;
    }
    for d in dep.engine.drops() {
        layers.drops[match d.cause {
            DropCause::Fault(_) => 0,
            DropCause::Loss => 1,
            DropCause::Corruption => 2,
        }] += 1;
    }
    layers.retransmissions = recovery.retransmissions;
    layers.duplicates_suppressed = recovery.duplicates_suppressed;
    layers.stale_resubscribes = recovery.stale_resubscribes;

    let handoffs = ledger.handoff_count();
    let delay_samples = ledger.delays_ms().len() as u64;
    let avg_delay = ledger.mean_delay_ms();
    let mobility_hops = stats.mobility_hops();
    layers.mobility_hops = mobility_hops;
    let overhead = if handoffs == 0 {
        0.0
    } else {
        mobility_hops as f64 / handoffs as f64
    };
    let fanout = dep.fanout_stats();
    let traffic = TrafficReport {
        delivery_bytes: stats.class(TrafficClass::EventDelivery).bytes,
        total_wire_bytes: stats.total_bytes(),
        fanouts: fanout.fanouts,
        serializations: fanout.serializations,
        bytes_serialized: fanout.bytes_serialized,
        fanout_allocs: fanout.fanout_allocs,
        cache_hits: fanout.cache_hits,
        buffered_bytes_peak: dep.buffered_bytes_peak(),
        checkpoint_bytes_peak: dep.checkpoint_bytes_peak(),
        dedup_bytes_peak: dep.dedup_bytes_peak(),
    };
    layers.fanout = traffic;
    let result = RunResult {
        protocol: label.to_string(),
        handoffs,
        mobility_hops,
        overhead_per_handoff: overhead,
        avg_handoff_delay_ms: avg_delay,
        delay_samples,
        audit: audit_result,
        ledger,
        recovery,
        published: published.len() as u64,
        delivered_messages: stats.class(TrafficClass::EventDelivery).messages,
        total_hops: stats.total_hops(),
        sim_duration_s: config.duration_s,
        traffic,
    };
    tracer.close(span);
    result
}

/// The four set-up calls of one run, each timed standalone: network build,
/// workload generation, protocol factory and deployment build (with a
/// fresh engine arena). Returns their summed seconds.
pub fn setup_once(config: &ScenarioConfig, spec: &ProtocolSpec) -> f64 {
    let t = Instant::now();
    let network = config.build_network();
    let mut total = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let workload = Workload::generate_on(config, &network);
    total += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let factory = spec.instantiate(config, &network);
    total += t.elapsed().as_secs_f64();
    let dep_config = deployment_config(config);
    let t = Instant::now();
    let dep: Deployment<Box<dyn DynProtocol>> = Deployment::build_on_in(
        network.clone(),
        &dep_config,
        &workload.clients,
        factory,
        EngineArena::new(),
    );
    total += t.elapsed().as_secs_f64();
    drop(dep);
    total
}
