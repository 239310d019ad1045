//! The paper's built-in scenarios, one module per figure/table/study.
//!
//! Every module renders the paper's rows for one entry of
//! [`paper_registry`], printed by `chiplet-scenario run <name>`.
//! Experiments that are a single declarative run are registered as
//! [`ScenarioKind::Spec`] entries (pure
//! [`ScenarioSpec`](chiplet_net::scenario::ScenarioSpec)s, rendered
//! generically); multi-run sweeps and comparisons are
//! [`ScenarioKind::Study`] entries that orchestrate their runs through the
//! scenario layer and render their own tables.

pub mod ablation_monolithic;
pub mod ablation_traffic;
pub mod bdp_control;
pub mod dse;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod flit_study;
pub mod fused_stack;
pub mod noc_study;
pub mod numa_study;
pub mod sweeps;
pub mod table1;
pub mod table2;
pub mod table3;

use std::fmt::Write;

use chiplet_net::metrics::MetricsRegistry;
use chiplet_net::scenario::{
    ScenarioEntry, ScenarioKind, ScenarioRegistry, ScenarioReport, ScenarioRun, SweepOutcome,
};

use crate::{f1, TextTable};

/// Renders any [`ScenarioReport`] as the standard flow table (or the
/// canonical one-line "not supported" note).
pub fn render_report(report: &ScenarioReport) -> String {
    if let Some(note) = report.unsupported_note() {
        return format!("{note}\n");
    }
    let outcome = report.outcome().expect("not unsupported");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario {} — backend {}, platform {}, seed {}, horizon {} ns",
        outcome.scenario,
        outcome.backend,
        outcome.platform,
        outcome.seed,
        outcome.horizon.as_nanos(),
    );
    let mut t = TextTable::new(vec![
        "flow",
        "offered GB/s",
        "achieved GB/s",
        "mean ns",
        "P999 ns",
    ]);
    for f in &outcome.flows {
        t.row(vec![
            f.name.clone(),
            f.offered_gb_s.map_or("max".to_string(), f1),
            f1(f.achieved_gb_s),
            f.mean_latency_ns.map_or("-".to_string(), f1),
            f.p999_latency_ns.map_or("-".to_string(), f1),
        ]);
    }
    let _ = write!(out, "{}", t.render());
    out
}

/// Renders a sweep outcome as one row per (point, flow): the axis label,
/// the flow, and its achieved bandwidth and latency.
pub fn render_sweep(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep {} — {} points",
        outcome.sweep,
        outcome.points.len()
    );
    let mut t = TextTable::new(vec![
        "point",
        "flow",
        "offered GB/s",
        "achieved GB/s",
        "mean ns",
        "P999 ns",
    ]);
    for p in &outcome.points {
        match p.report.outcome() {
            None => t.row(vec![
                p.label.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
            Some(o) => {
                for f in &o.flows {
                    t.row(vec![
                        p.label.clone(),
                        f.name.clone(),
                        f.offered_gb_s.map_or("max".to_string(), f1),
                        f1(f.achieved_gb_s),
                        f.mean_latency_ns.map_or("-".to_string(), f1),
                        f.p999_latency_ns.map_or("-".to_string(), f1),
                    ]);
                }
            }
        }
    }
    let _ = write!(out, "{}", t.render());
    out
}

/// Runs a registry built-in and renders it: studies return their own text,
/// declarative specs go through [`render_report`].
///
/// # Panics
///
/// Panics on an unknown name or a spec that doesn't resolve — built-ins
/// always do; the `chiplet-scenario` CLI handles user input gracefully.
pub fn render_named(name: &str) -> String {
    render_named_with_metrics(name, &mut MetricsRegistry::new())
}

/// [`render_named`], but folding the run's telemetry into `metrics` —
/// specs and sweeps run through the metric-aware scenario layer, studies
/// record whatever they instrument.
///
/// # Panics
///
/// Panics on an unknown name or a spec that doesn't resolve, like
/// [`render_named`].
pub fn render_named_with_metrics(name: &str, metrics: &mut MetricsRegistry) -> String {
    match paper_registry()
        .run_with_metrics(name, metrics)
        .unwrap_or_else(|| panic!("'{name}' is a registered scenario"))
        .unwrap_or_else(|e| panic!("built-in scenario '{name}' resolves: {e}"))
    {
        ScenarioRun::Text(text) => text,
        ScenarioRun::Report(report) => render_report(&report),
        ScenarioRun::Sweep(outcome) => render_sweep(&outcome),
        ScenarioRun::Dse(outcome) => dse::render_dse(&outcome),
    }
}

/// The registry of the paper's figures, tables, and companion studies.
pub fn paper_registry() -> ScenarioRegistry {
    let mut reg = ScenarioRegistry::new();
    reg.register(ScenarioEntry {
        name: "table1",
        summary: "Table 1: hardware specifications of the two processors",
        build: || ScenarioKind::Study(table1::render),
    });
    reg.register(ScenarioEntry {
        name: "table2",
        summary: "Table 2: data-path latency breakdown (pointer chasing)",
        build: || ScenarioKind::Study(table2::render),
    });
    reg.register(ScenarioEntry {
        name: "table3",
        summary: "Table 3: max bandwidth per core/CCX/CCD/CPU scope",
        build: || ScenarioKind::Study(table3::render),
    });
    reg.register(ScenarioEntry {
        name: "fig3",
        summary: "Figure 3: latency vs offered load on IF/GMI/P-Link",
        build: || ScenarioKind::Study(fig3::render),
    });
    reg.register(ScenarioEntry {
        name: "fig4",
        summary: "Figure 4: sender-driven bandwidth partitioning, four cases",
        build: || ScenarioKind::Study(fig4::render),
    });
    reg.register(ScenarioEntry {
        name: "fig5",
        summary: "Figure 5: bandwidth harvesting under fluctuating demands",
        build: || ScenarioKind::Study(fig5::render),
    });
    reg.register(ScenarioEntry {
        name: "fig5_if_9634",
        summary: "Figure 5 panel on the 9634 IF, as a pure fluid ScenarioSpec",
        build: || ScenarioKind::Spec(fig5::spec_if_9634()),
    });
    reg.register(ScenarioEntry {
        name: "fig5_plink_9634",
        summary: "Figure 5 panel on the 9634 P-Link, as a pure fluid ScenarioSpec",
        build: || ScenarioKind::Spec(fig5::spec_plink_9634()),
    });
    reg.register(ScenarioEntry {
        name: "fig5_if_7302",
        summary: "Figure 5 panel on the unstable 7302 IF, as a pure fluid ScenarioSpec",
        build: || ScenarioKind::Spec(fig5::spec_if_7302()),
    });
    reg.register(ScenarioEntry {
        name: "fig6",
        summary: "Figure 6: read/write interference on the EPYC 9634",
        build: || ScenarioKind::Study(fig6::render),
    });
    reg.register(ScenarioEntry {
        name: "bdp_control",
        summary: "BDP-adaptive traffic control: the bandwidth/latency frontier",
        build: || ScenarioKind::Study(bdp_control::render),
    });
    reg.register(ScenarioEntry {
        name: "numa_study",
        summary: "NUMA/NPS study on the dual-socket 2x EPYC 7302 testbed",
        build: || ScenarioKind::Study(numa_study::render),
    });
    reg.register(ScenarioEntry {
        name: "ablation_traffic",
        summary: "Ablation A: traffic-manager policies vs hardware partitioning",
        build: || ScenarioKind::Study(ablation_traffic::render),
    });
    reg.register(ScenarioEntry {
        name: "ablation_monolithic",
        summary: "Ablation B: the chiplet tax vs a monolithic baseline",
        build: || ScenarioKind::Study(ablation_monolithic::render),
    });
    reg.register(ScenarioEntry {
        name: "flit_study",
        summary: "CXL FLIT-framing ablation: 68 B vs 256 B formats",
        build: || ScenarioKind::Study(flit_study::render),
    });
    reg.register(ScenarioEntry {
        name: "fused_stack",
        summary: "Fused intra-/inter-host stack: 400 GbE DMA vs the chiplet network",
        build: || ScenarioKind::Study(fused_stack::render),
    });
    reg.register(ScenarioEntry {
        name: "noc_study",
        summary: "NoC design-space study: mesh/torus, buffered/bufferless",
        build: || ScenarioKind::Study(noc_study::render),
    });
    reg.register(ScenarioEntry {
        name: "fig3_sweep",
        summary: "Figure 3 load axis as a 24-point event-engine sweep",
        build: || ScenarioKind::Sweep(sweeps::fig3_sweep()),
    });
    reg.register(ScenarioEntry {
        name: "fig5_sweep",
        summary: "Figure 5 harvesting vs capacity x flow count (fluid sweep)",
        build: || ScenarioKind::Sweep(sweeps::fig5_sweep()),
    });
    reg.register(ScenarioEntry {
        name: "dse_epyc",
        summary: "10,800-design search over both EPYC platforms, 16 escalated",
        build: || ScenarioKind::Dse(dse::dse_epyc()),
    });
    reg.register(ScenarioEntry {
        name: "dse_smoke",
        summary: "480-design CI smoke search (determinism probe), 8 escalated",
        build: || ScenarioKind::Dse(dse::dse_smoke()),
    });
    reg
}
