//! `chiplet-dse`: analytical fast-path design-space exploration with
//! Pareto escalation to the event engine.
//!
//! The paper's §4 hardware-abstraction story implies a design space — CCD
//! counts, NoC grid shapes, per-class link capacities, CXL attach points —
//! that full DES runs explore at 7–62 ms per design. This module searches
//! it the RapidChiplet way: a deterministic [candidate generator]
//! enumerates inline-topology [`ScenarioSpec`]s over declarative axes, an
//! [analytical estimator](estimate) scores each candidate in tens of
//! microseconds (hop-walk latency, one-shot max-min bandwidth, closed-form
//! cost), a [Pareto extraction](pareto) keeps the non-dominated designs,
//! and only that frontier escalates to full event-engine runs through the
//! content-cached parallel [`SweepRunner`].
//!
//! Determinism end to end: candidates carry the sweep layer's
//! content-hash-derived seeds, the estimator is pure arithmetic, frontier
//! order is a total order over (metrics, hash), and the escalation reuses
//! the byte-stable sweep machinery — so a [`DseOutcome`] is byte-identical
//! across worker counts, cache states, and repeat runs.
//!
//! [candidate generator]: DseSpec::expand

pub mod estimate;
pub mod pareto;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use chiplet_sim::Bandwidth;
use chiplet_topology::PlatformSpec;
use serde::{Deserialize, Serialize};

use crate::metrics::{MetricKind, MetricsRegistry};
use crate::scenario::{
    parallel_ordered, seed_and_hash, ScenarioError, ScenarioSpec, SweepOutcome, SweepPoint,
    SweepRunner, SweepStats, TopologyChoice,
};

pub use estimate::{cost_proxy, estimate_design, estimate_on, DesignEstimate, FlowEstimate};
pub use pareto::{pareto_frontier, ParetoPoint};

/// Default cap on the number of candidates one search may expand to;
/// override per search with [`DseSpec::max_candidates`]. Far above the
/// sweep layer's DES-sized default because candidates cost microseconds,
/// not milliseconds.
pub const MAX_CANDIDATES: usize = 100_000;

fn invalid<T>(msg: impl Into<String>) -> Result<T, ScenarioError> {
    Err(ScenarioError::Invalid(msg.into()))
}

/// One design axis of a search. The expansion takes the cartesian product
/// of all axes, first axis outermost, and applies them to the base
/// scenario's platform in axis order — so a [`DseAxis::Platform`] axis,
/// which replaces the platform wholesale, belongs first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DseAxis {
    /// Named platform presets (`epyc_7302`, `epyc_9634`) as the starting
    /// point; later axes mutate the chosen preset.
    Platform {
        /// Preset names to sweep.
        values: Vec<String>,
    },
    /// Compute chiplets per socket.
    CcdCount {
        /// CCD counts to sweep.
        values: Vec<u32>,
    },
    /// I/O-die NoC grid as (columns, rows).
    QuadrantGrid {
        /// Grid shapes to sweep.
        values: Vec<(u8, u8)>,
    },
    /// Whether the die provisions the diagonal express route.
    DiagonalExpress {
        /// Settings to sweep.
        values: Vec<bool>,
    },
    /// Scales the per-CCD GMI read+write capacities.
    GmiScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// Scales the socket-wide NoC routing read+write capacities.
    NocScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// Number of UMC channels (== DIMMs) per socket.
    UmcCount {
        /// Channel counts to sweep.
        values: Vec<u32>,
    },
    /// Scales the per-UMC read+write capacities.
    UmcScale {
        /// Multipliers to sweep.
        values: Vec<f64>,
    },
    /// CXL attach points: device count, 0 = no CXL. A non-zero count on a
    /// platform without a CXL calibration borrows the EPYC 9634's.
    CxlDevices {
        /// Device counts to sweep.
        values: Vec<u32>,
    },
}

impl DseAxis {
    /// Number of settings on this axis.
    pub fn len(&self) -> usize {
        match self {
            DseAxis::Platform { values } => values.len(),
            DseAxis::CcdCount { values } => values.len(),
            DseAxis::QuadrantGrid { values } => values.len(),
            DseAxis::DiagonalExpress { values } => values.len(),
            DseAxis::GmiScale { values } => values.len(),
            DseAxis::NocScale { values } => values.len(),
            DseAxis::UmcCount { values } => values.len(),
            DseAxis::UmcScale { values } => values.len(),
            DseAxis::CxlDevices { values } => values.len(),
        }
    }

    /// True when the axis has no settings (an invalid search).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable `key=value` label of setting `idx`.
    fn label(&self, idx: usize) -> String {
        match self {
            DseAxis::Platform { values } => format!("platform={}", values[idx]),
            DseAxis::CcdCount { values } => format!("ccd={}", values[idx]),
            DseAxis::QuadrantGrid { values } => {
                format!("grid={}x{}", values[idx].0, values[idx].1)
            }
            DseAxis::DiagonalExpress { values } => format!("diag={}", values[idx]),
            DseAxis::GmiScale { values } => format!("gmi_scale={}", values[idx]),
            DseAxis::NocScale { values } => format!("noc_scale={}", values[idx]),
            DseAxis::UmcCount { values } => format!("umc={}", values[idx]),
            DseAxis::UmcScale { values } => format!("umc_scale={}", values[idx]),
            DseAxis::CxlDevices { values } => format!("cxl={}", values[idx]),
        }
    }

    /// Applies setting `idx` to a platform under construction.
    fn apply(&self, idx: usize, p: &mut PlatformSpec) -> Result<(), ScenarioError> {
        fn scale(b: &mut Bandwidth, s: f64) {
            *b = Bandwidth::from_gb_per_s(b.as_gb_per_s() * s);
        }
        match self {
            DseAxis::Platform { values } => {
                *p = TopologyChoice::Named(values[idx].clone()).platform()?;
            }
            DseAxis::CcdCount { values } => p.ccd_count = values[idx],
            DseAxis::QuadrantGrid { values } => p.quadrant_grid = values[idx],
            DseAxis::DiagonalExpress { values } => p.noc.diagonal_express = values[idx],
            DseAxis::GmiScale { values } => {
                let s = values[idx];
                if !(s.is_finite() && s > 0.0) {
                    return invalid(format!("gmi_scale axis: invalid multiplier {s}"));
                }
                scale(&mut p.caps.gmi_read, s);
                scale(&mut p.caps.gmi_write, s);
            }
            DseAxis::NocScale { values } => {
                let s = values[idx];
                if !(s.is_finite() && s > 0.0) {
                    return invalid(format!("noc_scale axis: invalid multiplier {s}"));
                }
                scale(&mut p.caps.noc_read, s);
                scale(&mut p.caps.noc_write, s);
            }
            DseAxis::UmcCount { values } => p.mem.umc_count = values[idx],
            DseAxis::UmcScale { values } => {
                let s = values[idx];
                if !(s.is_finite() && s > 0.0) {
                    return invalid(format!("umc_scale axis: invalid multiplier {s}"));
                }
                scale(&mut p.mem.umc_read_bw, s);
                scale(&mut p.mem.umc_write_bw, s);
            }
            DseAxis::CxlDevices { values } => {
                let n = values[idx];
                if n == 0 {
                    p.cxl = None;
                } else {
                    let mut cxl = match p.cxl.take() {
                        Some(cxl) => cxl,
                        // Borrow the 9634's CXL calibration for platforms
                        // without one; per-device capacities stay as-is,
                        // only the attach count varies.
                        None => PlatformSpec::epyc_9634()
                            .cxl
                            .expect("epyc_9634 carries a CXL calibration"),
                    };
                    cxl.device_count = n;
                    p.cxl = Some(cxl);
                }
            }
        }
        Ok(())
    }
}

/// A declarative design-space search: a base workload scenario plus design
/// axes over its platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseSpec {
    /// Search name (appears in the report).
    pub name: String,
    /// One-line description.
    #[serde(default)]
    pub description: String,
    /// The workload every candidate is scored under; its topology is the
    /// starting platform the axes mutate.
    pub base: ScenarioSpec,
    /// The design axes (cartesian product, first axis outermost).
    pub axes: Vec<DseAxis>,
    /// Expansion cap; `None` means [`MAX_CANDIDATES`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_candidates: Option<usize>,
    /// How many frontier designs escalate to full event-engine runs;
    /// `None` escalates the whole frontier.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub escalate: Option<usize>,
}

impl DseSpec {
    /// Serializes to pretty JSON (deterministic bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dse specs always serialize")
    }

    /// Parses a search back from [`DseSpec::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::Invalid(format!("JSON error: {e:?}")))
    }

    /// Expands the cartesian product of all axes into concrete candidates,
    /// in a stable order (first axis outermost, last fastest). Candidates
    /// are [`SweepPoint`]s — same content-hash and derived-seed scheme as
    /// sweep expansion — so the escalation path shares the sweep cache
    /// namespace and results never depend on execution order.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, ScenarioError> {
        if self.axes.is_empty() {
            return invalid(format!("search '{}' has no axes", self.name));
        }
        let mut total = 1usize;
        for (a, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return invalid(format!("search '{}': axis {a} has no values", self.name));
            }
            total = total.saturating_mul(axis.len());
        }
        let max_candidates = self.max_candidates.unwrap_or(MAX_CANDIDATES);
        if total > max_candidates {
            return invalid(format!(
                "search '{}' expands to {total} candidates (max_candidates limit \
                 {max_candidates}); raise `max_candidates` on the search to allow more",
                self.name
            ));
        }
        let base_platform = self.base.topology.platform()?;
        let base_seed = self.base.seed_or_default();
        let mut points = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.axes.len()];
        let mut render = Vec::new();
        loop {
            let mut platform = base_platform.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&idx) {
                axis.apply(i, &mut platform)?;
                labels.push(axis.label(i));
            }
            let label = labels.join(" ");
            let mut spec = self.base.clone();
            spec.topology = TopologyChoice::Inline(platform);
            spec.name = format!("{} [{label}]", self.name);
            // Same scheme as sweep expansion: hash the content before the
            // derived seed is written, then hash the final spec.
            let hash = seed_and_hash(&mut spec, base_seed, &mut render);
            points.push(SweepPoint { label, spec, hash });

            // Odometer increment, last axis fastest.
            let mut carry = true;
            for (i, axis) in self.axes.iter().enumerate().rev() {
                if !carry {
                    break;
                }
                idx[i] += 1;
                carry = idx[i] == axis.len();
                if carry {
                    idx[i] = 0;
                }
            }
            if carry {
                break;
            }
        }
        Ok(points)
    }
}

/// One frontier design in the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierEntry {
    /// The candidate's axis label.
    pub label: String,
    /// Content hash of the candidate spec (the escalation cache key).
    pub hash: String,
    /// Latency proxy, ns.
    pub latency_ns: f64,
    /// Bandwidth proxy, GB/s.
    pub bandwidth_gb_s: f64,
    /// Cost proxy, unitless.
    pub cost: f64,
}

/// The deterministic report of one search: byte-identical across worker
/// counts, cache states, and repeat runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseOutcome {
    /// Search name.
    pub dse: String,
    /// Candidates enumerated (after any budget truncation).
    pub candidates: usize,
    /// Candidates the estimator scored.
    pub scored: usize,
    /// Candidates rejected as infeasible (workload does not map onto the
    /// design).
    pub infeasible: usize,
    /// The Pareto frontier, in deterministic frontier order.
    pub frontier: Vec<FrontierEntry>,
    /// Full event-engine reports of the escalated frontier designs.
    pub escalation: SweepOutcome,
}

impl DseOutcome {
    /// Serializes to pretty JSON, deterministically.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("dse outcomes always serialize")
    }

    /// Parses back from [`DseOutcome::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Execution metadata of one search run (not part of the report bytes).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DseStats {
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates scored by the estimator.
    pub scored: usize,
    /// Infeasible candidates.
    pub infeasible: usize,
    /// Frontier size.
    pub frontier: usize,
    /// Designs escalated to the event engine.
    pub escalated: usize,
    /// Mean estimator time per scored candidate, ns.
    pub estimator_ns: f64,
    /// Escalation sweep execution stats (cache hits show up here).
    pub sweep: SweepStats,
}

/// Runs design-space searches: parallel scoring, frontier extraction, and
/// frontier escalation through the sweep runner.
#[derive(Debug, Clone, Default)]
pub struct DseRunner {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Escalation result cache directory (shared with the sweep runner's
    /// namespace); `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Deterministic-prefix truncation of the candidate list; `None` runs
    /// the full expansion. The CLI's `--budget N`.
    pub budget: Option<usize>,
}

impl DseRunner {
    /// A runner with `jobs` workers and no cache.
    pub fn with_jobs(jobs: usize) -> Self {
        DseRunner {
            jobs,
            ..Default::default()
        }
    }

    /// Expands, scores, extracts the frontier, and escalates. The outcome
    /// is byte-identical for any worker count.
    pub fn run(&self, spec: &DseSpec) -> Result<(DseOutcome, DseStats), ScenarioError> {
        let mut points = spec.expand()?;
        if let Some(budget) = self.budget {
            points.truncate(budget);
        }
        let candidates = points.len();

        // Score every candidate in parallel. Estimator failures mean the
        // workload does not map onto that design (e.g. a flow pinned to
        // CCD 7 on a 4-CCD candidate) — count them, don't fail the search.
        let spent_ns = AtomicU64::new(0);
        let estimates = parallel_ordered(&points, self.jobs, |_, point| {
            let started = std::time::Instant::now();
            let est = estimate_design(&point.spec);
            spent_ns.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            est.ok()
        });

        let mut scored_idx: Vec<usize> = Vec::with_capacity(points.len());
        let mut pareto_points: Vec<ParetoPoint> = Vec::with_capacity(points.len());
        for (i, est) in estimates.iter().enumerate() {
            let Some(est) = est else { continue };
            scored_idx.push(i);
            pareto_points.push(ParetoPoint {
                latency_ns: est.latency_ns,
                bandwidth_gb_s: est.bandwidth_gb_s,
                cost: est.cost,
                hash: u64::from_str_radix(&points[i].hash, 16).expect("hashes are 16 hex digits"),
            });
        }
        let scored = scored_idx.len();
        let infeasible = candidates - scored;

        let frontier_local = pareto_frontier(&pareto_points);
        let frontier: Vec<FrontierEntry> = frontier_local
            .iter()
            .map(|&k| {
                let i = scored_idx[k];
                FrontierEntry {
                    label: points[i].label.clone(),
                    hash: points[i].hash.clone(),
                    latency_ns: pareto_points[k].latency_ns,
                    bandwidth_gb_s: pareto_points[k].bandwidth_gb_s,
                    cost: pareto_points[k].cost,
                }
            })
            .collect();

        // Escalate the frontier head to full event-engine runs.
        let escalate = spec.escalate.unwrap_or(frontier_local.len());
        let escalated: Vec<SweepPoint> = frontier_local
            .iter()
            .take(escalate)
            .map(|&k| points[scored_idx[k]].clone())
            .collect();
        let sweep_runner = SweepRunner {
            jobs: self.jobs,
            cache_dir: self.cache_dir.clone(),
        };
        let (escalation, sweep_stats) =
            sweep_runner.run_points(&format!("{}/frontier", spec.name), escalated)?;

        let stats = DseStats {
            candidates,
            scored,
            infeasible,
            frontier: frontier.len(),
            escalated: escalation.points.len(),
            estimator_ns: if scored > 0 {
                spent_ns.load(Ordering::Relaxed) as f64 / scored as f64
            } else {
                0.0
            },
            sweep: sweep_stats,
        };
        Ok((
            DseOutcome {
                dse: spec.name.clone(),
                candidates,
                scored,
                infeasible,
                frontier,
                escalation,
            },
            stats,
        ))
    }

    /// Like [`DseRunner::run`], but instruments the search into `metrics`
    /// with **volatile** families (excluded from the default OpenMetrics
    /// dump, like all execution telemetry): `dse_candidates_scored_total`,
    /// `dse_infeasible_total`, `dse_frontier_size`, `dse_escalated_total`,
    /// and `dse_estimator_ns`, labelled `{dse}`.
    pub fn run_with_metrics(
        &self,
        spec: &DseSpec,
        metrics: &mut MetricsRegistry,
    ) -> Result<(DseOutcome, DseStats), ScenarioError> {
        let (outcome, stats) = self.run(spec)?;
        metrics.describe_volatile(
            "dse_candidates_scored_total",
            MetricKind::Counter,
            "Design candidates scored by the analytical estimator.",
        );
        metrics.describe_volatile(
            "dse_infeasible_total",
            MetricKind::Counter,
            "Design candidates the workload does not map onto.",
        );
        metrics.describe_volatile(
            "dse_frontier_size",
            MetricKind::Gauge,
            "Designs on the Pareto frontier.",
        );
        metrics.describe_volatile(
            "dse_escalated_total",
            MetricKind::Counter,
            "Frontier designs escalated to full event-engine runs.",
        );
        metrics.describe_volatile(
            "dse_estimator_ns",
            MetricKind::Gauge,
            "Mean estimator time per scored candidate, ns.",
        );
        let labels = [("dse", outcome.dse.as_str())];
        metrics.counter_add("dse_candidates_scored_total", &labels, stats.scored as f64);
        metrics.counter_add("dse_infeasible_total", &labels, stats.infeasible as f64);
        metrics.gauge_set("dse_frontier_size", &labels, stats.frontier as f64);
        metrics.counter_add("dse_escalated_total", &labels, stats.escalated as f64);
        metrics.gauge_set("dse_estimator_ns", &labels, stats.estimator_ns);
        Ok((outcome, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        BackendKind, CoreSelect, EngineFlow, EngineOptions, ScenarioFlow, TargetSpec,
    };
    use chiplet_sim::{ByteSize, SimTime};

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit_dse".into(),
            description: String::new(),
            topology: TopologyChoice::Named("epyc_9634".into()),
            backend: BackendKind::Event,
            seed: Some(42),
            horizon: SimTime::from_micros(10),
            policy: Default::default(),
            engine: Some(EngineOptions {
                deterministic_memory: true,
                ..Default::default()
            }),
            fluid: None,
            flows: vec![ScenarioFlow {
                name: "probe".into(),
                demand: None,
                engine: Some(EngineFlow {
                    cores: CoreSelect::Ccd(0),
                    nic: None,
                    target: TargetSpec::AllDimms,
                    op: None,
                    pattern: None,
                    working_set: Some(ByteSize::from_mib(64)),
                    start: None,
                    stop: None,
                }),
                links: Vec::new(),
            }],
        }
    }

    fn small_search() -> DseSpec {
        DseSpec {
            name: "unit_search".into(),
            description: String::new(),
            base: base_spec(),
            axes: vec![
                DseAxis::CcdCount {
                    values: vec![2, 4, 12],
                },
                DseAxis::GmiScale {
                    values: vec![0.5, 1.0],
                },
            ],
            max_candidates: None,
            escalate: Some(2),
        }
    }

    #[test]
    fn expansion_is_stable_and_content_hashed() {
        let search = small_search();
        let a = search.expand().unwrap();
        let b = search.expand().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
        assert_eq!(a[0].label, "ccd=2 gmi_scale=0.5");
        assert_eq!(a[5].label, "ccd=12 gmi_scale=1");
        // Distinct designs hash (and therefore seed) differently.
        let hashes: std::collections::BTreeSet<_> = a.iter().map(|p| p.hash.clone()).collect();
        assert_eq!(hashes.len(), 6);
        assert_ne!(a[0].spec.seed, a[1].spec.seed);
    }

    #[test]
    fn candidate_hash_matches_sweep_spec_hash() {
        let points = small_search().expand().unwrap();
        for p in &points {
            assert_eq!(crate::scenario::spec_hash(&p.spec), p.hash);
        }
    }

    #[test]
    fn axes_mutate_the_inline_platform() {
        let points = small_search().expand().unwrap();
        let TopologyChoice::Inline(p0) = &points[0].spec.topology else {
            panic!("candidates carry inline platforms");
        };
        assert_eq!(p0.ccd_count, 2);
        assert!((p0.caps.gmi_read.as_gb_per_s() - 16.6).abs() < 0.01);
        let TopologyChoice::Inline(p5) = &points[5].spec.topology else {
            panic!();
        };
        assert_eq!(p5.ccd_count, 12);
        assert!((p5.caps.gmi_read.as_gb_per_s() - 33.2).abs() < 0.01);
    }

    #[test]
    fn infeasible_candidates_are_counted_not_fatal() {
        let mut search = small_search();
        // Pin the workload to CCD 5: the 2- and 4-CCD candidates can't host
        // it (2 settings × gmi axis = 4 infeasible candidates).
        for flow in &mut search.base.flows {
            if let Some(engine) = &mut flow.engine {
                engine.cores = CoreSelect::Ccd(5);
            }
        }
        let (outcome, stats) = DseRunner::with_jobs(1).run(&search).unwrap();
        assert_eq!(outcome.candidates, 6);
        assert_eq!(outcome.infeasible, 4);
        assert_eq!(outcome.scored, 2);
        assert_eq!(stats.infeasible, 4);
    }

    #[test]
    fn outcome_bytes_are_jobs_invariant() {
        let search = small_search();
        let (a, _) = DseRunner::with_jobs(1).run(&search).unwrap();
        let (b, _) = DseRunner::with_jobs(4).run(&search).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.escalation.points.len(), 2);
    }

    #[test]
    fn budget_truncates_the_deterministic_prefix() {
        let search = small_search();
        let full = search.expand().unwrap();
        let runner = DseRunner {
            jobs: 1,
            cache_dir: None,
            budget: Some(3),
        };
        let (outcome, _) = runner.run(&search).unwrap();
        assert_eq!(outcome.candidates, 3);
        let budget_hashes: Vec<_> = outcome.frontier.iter().map(|f| f.hash.clone()).collect();
        for h in &budget_hashes {
            assert!(full[..3].iter().any(|p| &p.hash == h));
        }
    }

    #[test]
    fn outcome_roundtrips_through_json() {
        let (outcome, _) = DseRunner::with_jobs(2).run(&small_search()).unwrap();
        let back = DseOutcome::from_json(&outcome.to_json()).unwrap();
        assert_eq!(outcome, back);
    }

    #[test]
    fn cxl_axis_toggles_the_attach_points() {
        let mut search = small_search();
        search.axes = vec![DseAxis::CxlDevices { values: vec![0, 2] }];
        let points = search.expand().unwrap();
        let TopologyChoice::Inline(p0) = &points[0].spec.topology else {
            panic!();
        };
        assert!(p0.cxl.is_none());
        let TopologyChoice::Inline(p1) = &points[1].spec.topology else {
            panic!();
        };
        assert_eq!(p1.cxl.as_ref().map(|c| c.device_count), Some(2));
    }

    #[test]
    fn volatile_metrics_are_emitted() {
        let mut metrics = MetricsRegistry::new();
        let (_, stats) = DseRunner::with_jobs(2)
            .run_with_metrics(&small_search(), &mut metrics)
            .unwrap();
        assert_eq!(stats.scored, 6);
        let dump = metrics.to_openmetrics_with_volatile();
        assert!(dump.contains("dse_candidates_scored_total"));
        assert!(dump.contains("dse_frontier_size"));
        assert!(dump.contains("dse_escalated_total"));
        assert!(dump.contains("dse_estimator_ns"));
        let default_dump = metrics.to_openmetrics();
        assert!(!default_dump.contains("dse_estimator_ns"));
    }
}
