//! The declarative scenario layer: experiments as data, not code.
//!
//! The paper's §4 future directions call for flow abstractions over a
//! hardware-abstracted chiplet layer; this module is the workspace's
//! version of that idea for *experiments*. A [`ScenarioSpec`] names a
//! platform, a set of flows with [demand schedules], a traffic policy, a
//! horizon, a seed, and a backend — and both engines run it:
//!
//! * [`EventEngineBackend`] drives the transaction-level
//!   [`Engine`](crate::engine::Engine) (microsecond horizons, real latency
//!   distributions);
//! * [`FluidBackend`] drives [`chiplet_fluid::FluidSim`] (second-scale
//!   bandwidth-sharing dynamics).
//!
//! Both produce the same [`ScenarioReport`]: per-flow achieved bandwidth,
//! latency when the backend measures it, and optional bandwidth traces.
//! Specs serialize losslessly to JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]), and a given spec + seed yields a
//! byte-identical report on every run.
//!
//! The [`ScenarioRegistry`] maps names to built-in scenarios (the paper's
//! figures and tables, plus the ablation studies), so benchmark binaries
//! shrink to thin wrappers and new experiments are JSON files rather than
//! Rust programs.
//!
//! [demand schedules]: chiplet_sim::DemandSchedule

mod backend;
mod hash;
mod registry;
mod report;
mod spec;
mod sweep;

#[cfg(test)]
mod tests;

pub use backend::{describe_fluid_metrics, Backend, EventEngineBackend, FluidBackend};
pub use hash::spec_hash;
pub(crate) use hash::{seed_and_hash, splitmix64};
pub use registry::{ScenarioEntry, ScenarioKind, ScenarioRegistry, ScenarioRun};
pub use report::{FlowReport, ScenarioOutcome, ScenarioReport};
pub use spec::{
    BackendKind, CoreSelect, EngineFlow, EngineOptions, FluidLinkSpec, FluidOptions, ScenarioError,
    ScenarioFlow, ScenarioSpec, TargetSpec, TopologyChoice,
};
pub use sweep::{
    cache_path, effective_jobs, effective_jobs_with, load_cache_entry, parallel_ordered, run_specs,
    run_specs_with_metrics, store_cache_entry, CacheLookup, SweepAxis, SweepOutcome, SweepPoint,
    SweepPointResult, SweepRunner, SweepSpec, SweepStats, MAX_POINTS,
};
