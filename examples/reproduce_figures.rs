//! Reproduce the paper's evaluation figures through the fluent `Sim` API.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example reproduce_figures            # both figures, reduced scale
//! cargo run --release --example reproduce_figures -- fig5    # Figure 5 only
//! cargo run --release --example reproduce_figures -- fig6    # Figure 6 only
//! cargo run --release --example reproduce_figures -- handover # §4.1 vs §4.2 comparison
//! cargo run --release --example reproduce_figures -- failure  # fault-injection panel
//! cargo run --release --example reproduce_figures -- traffic  # storm / byte-accounting panel
//! cargo run --release --example reproduce_figures -- reliability # lossy-link trade-off panel
//! cargo run --release --example reproduce_figures -- fig5 --paper-scale
//! cargo run --release --example reproduce_figures -- --workers 4
//! cargo run --release --example reproduce_figures -- --budget-ms 60000
//! cargo run --release --example reproduce_figures -- fig5 --dump-ledger ledgers.json
//! ```
//!
//! By default the sweeps run at a reduced scale (49 brokers, 5 clients per
//! broker) so the whole run finishes in a few minutes on a laptop while
//! preserving the figure *shapes*; `--paper-scale` switches to the paper's
//! full 100-broker / 1000-client environment (Figure 5) and 25–196 brokers
//! (Figure 6), which takes considerably longer. `--workers N` bounds the
//! sweep worker threads (default: all cores). `--budget-ms N` bounds each
//! sweep's wall-clock: points that cannot start in time are *recorded as
//! skipped* in the JSON output instead of silently truncating the sweep.
//!
//! The `handover` mode runs the proclaimed-vs-reactive comparison the
//! paper's §4.1 motivates: every registered protocol twice on the identical
//! move schedule (`proclaimed_fraction` 0 and 1), reporting the paired
//! per-handover first-delivery gaps from the handover ledger.
//!
//! The `failure` mode steps outside the paper's fault-free setting: it runs
//! all four protocols (the paper's three plus the self-stabilizing PSVR
//! variant) on the failure presets — a seeded broker crash storm and a
//! partitioned-city schedule — and reports per-outage time-to-repair and
//! loss counts from the recovery ledger, which reconcile exactly with the
//! delivery audit.
//!
//! The `traffic` mode runs the four MQTT-shaped storm presets (fan-in,
//! fan-out, retained replay, shared subscriptions) with MHH under both
//! fan-out modes — serialize-once cached and clone-per-destination — and
//! reports bytes on the wire, serialization counts and the cached path's
//! allocation savings on provably byte-identical delivery results.
//!
//! The `reliability` mode runs the `lossy-crash-storm` preset (2 % link
//! loss, 0.5 % corruption on top of a six-crash storm) for all four
//! protocols under three reliability modes — no reliability layer, broker
//! dedup watermarks alone, and dedup plus publisher ack/retransmit — and
//! tables the trade-off: audited losses and duplicates against suppression
//! and retransmission work, with every link drop accounted by cause.
//!
//! `--dump-ledger <path>` additionally exports every executed figure
//! point's complete per-handover ledger (one JSON record per handover:
//! kind, from→to, depart/arrive, first-delivery gap, buffered/lost/
//! duplicate counts) for external plotting of gap distributions.
//!
//! Every curve comes from the protocol registry, so a protocol registered
//! via `mhh_mobsim::protocols::register` before the sweep gains a column in
//! both figures automatically.
//!
//! Results are printed as tables and written as JSON next to the repository's
//! EXPERIMENTS.md.

use mhh_suite::mobility::sweep::available_workers;
use mhh_suite::mobsim::experiments::{
    failure_panel_budgeted_in, reliability_panel_budgeted_in, traffic_panel_budgeted_in,
    FigureResult, FIG5_CONN_PERIODS_S, FIG6_GRID_SIDES,
};
use mhh_suite::mobsim::report::{
    failure_to_json, figure_ledgers_json, proclaimed_to_json, reliability_to_json,
    render_failure_panel, render_figure, render_proclaimed, render_reliability_panel,
    render_traffic, to_json, traffic_to_json,
};
use mhh_suite::mobsim::{
    scenarios, ProtocolRegistry, Sim, SimBuilder, FAILURE_PRESETS, TRAFFIC_PRESETS,
};

/// Parse `--workers N` (defaults to all cores).
fn workers_flag(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(available_workers)
}

/// Parse `--budget-ms N` (default: unbudgeted).
fn budget_flag(args: &[String]) -> Option<u64> {
    args.iter()
        .position(|a| a == "--budget-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
}

/// Parse `--dump-ledger <path>` (default: no ledger export).
fn dump_ledger_flag(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--dump-ledger")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn builder(
    scenario: &str,
    paper_scale: bool,
    workers: usize,
    budget_ms: Option<u64>,
) -> SimBuilder {
    let mut b = Sim::scenario(scenario).workers(workers);
    if let Some(ms) = budget_ms {
        b = b.budget_ms(ms);
    }
    if paper_scale {
        b
    } else {
        b.grid_side(7).clients_per_broker(5).configure(|c| {
            c.publish_interval_s = 60.0;
            c.duration_s = 900.0;
        })
    }
}

fn report_skipped(skipped: &[String]) {
    if !skipped.is_empty() {
        println!(
            "budget exhausted: {} point(s) skipped: {}",
            skipped.len(),
            skipped.join(", ")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let workers = workers_flag(&args);
    let budget_ms = budget_flag(&args);
    let dump_ledger = dump_ledger_flag(&args);
    let mut executed_figures: Vec<FigureResult> = Vec::new();
    let modes = [
        "fig5",
        "fig6",
        "handover",
        "failure",
        "traffic",
        "reliability",
    ];
    let explicit = args.iter().any(|a| modes.contains(&a.as_str()));
    // Without an explicit mode the example keeps its documented default:
    // both figures. The handover comparison and failure panel are opt-in.
    let want = |name: &str| {
        if explicit {
            args.iter().any(|a| a == name)
        } else {
            name == "fig5" || name == "fig6"
        }
    };

    println!(
        "running at {} scale with {workers} workers{}",
        if paper_scale { "paper" } else { "reduced" },
        budget_ms
            .map(|ms| format!(", {ms} ms budget per sweep"))
            .unwrap_or_default()
    );

    if want("fig5") {
        let conn: &[f64] = if paper_scale {
            &FIG5_CONN_PERIODS_S
        } else {
            &[1.0, 10.0, 100.0, 1_000.0]
        };
        let fig = builder("paper-fig5", paper_scale, workers, budget_ms)
            .figure5(conn)
            .expect("paper-fig5 is registered");
        println!("{}", render_figure(&fig));
        report_skipped(&fig.skipped);
        std::fs::write("figure5.json", to_json(&fig)).expect("write figure5.json");
        println!("wrote figure5.json");
        executed_figures.push(fig);
    }
    if want("fig6") {
        let sides: &[usize] = if paper_scale {
            &FIG6_GRID_SIDES
        } else {
            &[5, 7, 10]
        };
        let fig = builder("paper-fig6", paper_scale, workers, budget_ms)
            .figure6(sides)
            .expect("paper-fig6 is registered");
        println!("{}", render_figure(&fig));
        report_skipped(&fig.skipped);
        std::fs::write("figure6.json", to_json(&fig)).expect("write figure6.json");
        println!("wrote figure6.json");
        executed_figures.push(fig);
    }
    if want("handover") {
        let cmp = builder("paper-fig5", paper_scale, workers, budget_ms)
            .compare_proclaimed()
            .expect("paper-fig5 is registered");
        println!("{}", render_proclaimed(&cmp));
        report_skipped(&cmp.skipped);
        std::fs::write("handover.json", proclaimed_to_json(&cmp)).expect("write handover.json");
        println!("wrote handover.json");
    }
    if want("failure") {
        let presets: Vec<_> = FAILURE_PRESETS
            .iter()
            .map(|name| scenarios::find(name).expect("failure preset registered"))
            .collect();
        let panel = failure_panel_budgeted_in(
            &ProtocolRegistry::extended(),
            &presets,
            workers,
            budget_ms.map(std::time::Duration::from_millis),
        );
        println!("{}", render_failure_panel(&panel));
        report_skipped(&panel.skipped);
        std::fs::write("failure_panel.json", failure_to_json(&panel))
            .expect("write failure_panel.json");
        println!("wrote failure_panel.json");
    }
    if want("traffic") {
        let presets: Vec<_> = TRAFFIC_PRESETS
            .iter()
            .map(|name| scenarios::find(name).expect("storm preset registered"))
            .collect();
        let panel = traffic_panel_budgeted_in(
            &presets,
            workers,
            budget_ms.map(std::time::Duration::from_millis),
        );
        println!("{}", render_traffic(&panel));
        report_skipped(&panel.skipped);
        std::fs::write("traffic_panel.json", traffic_to_json(&panel))
            .expect("write traffic_panel.json");
        println!("wrote traffic_panel.json");
    }
    if want("reliability") {
        let base = scenarios::find("lossy-crash-storm")
            .expect("lossy-crash-storm preset registered")
            .config;
        let panel = reliability_panel_budgeted_in(
            &ProtocolRegistry::extended(),
            &base,
            workers,
            budget_ms.map(std::time::Duration::from_millis),
        );
        println!("{}", render_reliability_panel(&panel));
        report_skipped(&panel.skipped);
        std::fs::write("reliability_panel.json", reliability_to_json(&panel))
            .expect("write reliability_panel.json");
        println!("wrote reliability_panel.json");
    }
    if let Some(path) = dump_ledger {
        // One document with every executed figure's per-handover records,
        // for external plotting of gap distributions.
        let docs: Vec<String> = executed_figures.iter().map(figure_ledgers_json).collect();
        let doc = format!("[{}]\n", docs.join(","));
        std::fs::write(&path, doc).expect("write ledger dump");
        println!(
            "wrote {path} ({} figure(s), {} handover record(s))",
            executed_figures.len(),
            executed_figures
                .iter()
                .flat_map(|f| f.points.iter())
                .map(|p| p.result.ledger.len())
                .sum::<usize>()
        );
    }
}
