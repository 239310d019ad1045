use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimDuration, SimTime};

use super::*;

fn event_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "unit_event".into(),
        description: "one CCD reading all DIMMs".into(),
        topology: TopologyChoice::Named("epyc_7302".into()),
        backend: BackendKind::Event,
        seed: Some(7),
        horizon: SimTime::from_micros(30),
        policy: Default::default(),
        engine: Some(EngineOptions {
            deterministic_memory: true,
            ..Default::default()
        }),
        fluid: None,
        flows: vec![ScenarioFlow {
            name: "probe".into(),
            demand: Some(DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(
                8.0,
            )))),
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

fn fluid_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "unit_fluid".into(),
        description: String::new(),
        topology: TopologyChoice::Named("epyc_9634".into()),
        backend: BackendKind::Fluid,
        seed: None,
        horizon: SimTime::from_millis(200),
        policy: Default::default(),
        engine: None,
        fluid: Some(FluidOptions {
            links: vec![FluidLinkSpec::Named("if_9634".into())],
            dt: Some(SimDuration::from_millis(1)),
            sample: Some(SimDuration::from_millis(20)),
        }),
        flows: vec![
            ScenarioFlow {
                name: "greedy".into(),
                demand: None,
                engine: None,
                links: vec![0],
            },
            ScenarioFlow {
                name: "capped".into(),
                demand: Some(DemandSchedule::constant(Some(Bandwidth::from_gb_per_s(
                    4.0,
                )))),
                engine: None,
                links: vec![0],
            },
        ],
    }
}

#[test]
fn spec_round_trips_through_json() {
    for spec in [event_spec(), fluid_spec()] {
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round trip parses");
        assert_eq!(back, spec);
        // Deterministic bytes: serializing the parsed copy reproduces the
        // original text exactly.
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn event_backend_runs_and_is_seed_stable() {
    let spec = event_spec();
    let a = spec.run().expect("spec resolves");
    let b = spec.run().expect("spec resolves");
    assert_eq!(a.to_json(), b.to_json(), "same spec + seed ⇒ same report");

    let outcome = a.outcome().expect("completes");
    assert_eq!(outcome.backend, "event");
    assert_eq!(outcome.seed, 7);
    let flow = outcome.flow("probe").expect("flow reported");
    assert_eq!(flow.offered_gb_s, Some(8.0));
    assert!(flow.achieved_gb_s > 4.0, "got {}", flow.achieved_gb_s);
    assert!(flow.mean_latency_ns.unwrap() > 0.0);
    assert!(flow.completed > 0);

    // A different seed must still run (and virtually always differs).
    let mut other = event_spec();
    other.seed = Some(8);
    assert!(other.run().expect("spec resolves").outcome().is_some());
}

#[test]
fn fluid_backend_runs_and_is_seed_stable() {
    let spec = fluid_spec();
    let a = spec.run().expect("spec resolves");
    let b = spec.run().expect("spec resolves");
    assert_eq!(a.to_json(), b.to_json());

    let outcome = a.outcome().expect("completes");
    assert_eq!(outcome.backend, "fluid");
    assert_eq!(outcome.seed, 42, "default seed");
    let greedy = outcome.flow("greedy").expect("flow reported");
    let capped = outcome.flow("capped").expect("flow reported");
    assert!(!greedy.trace.is_empty(), "fluid traces are native output");
    assert!(
        greedy.mean_latency_ns.is_none(),
        "fluid measures no latency"
    );
    // The greedy flow harvests whatever the capped flow leaves on the link.
    assert!(greedy.achieved_gb_s > capped.achieved_gb_s);
    assert!(capped.achieved_gb_s <= 4.0 + 1e-9);
}

#[test]
fn report_round_trips_through_json() {
    let report = event_spec().run().expect("spec resolves");
    let back = ScenarioReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(back, report);

    let unsup = ScenarioReport::unsupported("fig3e", "EPYC 7302", "platform has no CXL device");
    assert!(unsup.is_unsupported());
    assert_eq!(
        unsup.unsupported_note().as_deref(),
        Some("fig3e on EPYC 7302: not supported")
    );
    assert_eq!(
        ScenarioReport::from_json(&unsup.to_json()).expect("parses"),
        unsup
    );
}

#[test]
fn bad_specs_are_rejected_with_reasons() {
    // Unknown platform name.
    let mut spec = event_spec();
    spec.topology = TopologyChoice::Named("epyc_1234".into());
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("unknown platform"), "{err}");

    // Event backend needs an engine mapping per flow.
    let mut spec = event_spec();
    spec.flows[0].engine = None;
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("no engine mapping"), "{err}");

    // CXL target on a platform without CXL.
    let mut spec = event_spec();
    spec.flows[0].engine.as_mut().unwrap().target = TargetSpec::Cxl(0);
    let err = spec.run().unwrap_err();
    assert!(
        err.to_string().contains("CXL device 0 not present"),
        "{err}"
    );

    // The measured window [warmup, horizon] must not be empty.
    for (horizon, warmup) in [(0, None), (2_000, None), (5_000, Some(5_000))] {
        let mut spec = event_spec();
        spec.horizon = SimTime::from_nanos(horizon);
        spec.engine.as_mut().unwrap().warmup = warmup.map(SimDuration::from_nanos);
        let err = spec.run().unwrap_err().to_string();
        assert!(
            err.contains("horizon") && err.contains("engine.warmup"),
            "{err}"
        );
    }

    // Fluid backend needs a link table…
    let mut spec = fluid_spec();
    spec.fluid = None;
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("fluid.links"), "{err}");

    // …in-range link references…
    let mut spec = fluid_spec();
    spec.flows[0].links = vec![3];
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    // …and every flow to cross at least one link.
    let mut spec = fluid_spec();
    spec.flows[0].links = Vec::new();
    let err = spec.run().unwrap_err();
    assert!(err.to_string().contains("crosses no fluid links"), "{err}");
}

mod json_roundtrip_props {
    use chiplet_fluid::FluidLink;
    use chiplet_mem::{OpKind, Pattern};
    use chiplet_sim::{Bandwidth, ByteSize, DemandSchedule, SimDuration, SimTime};
    use chiplet_topology::PlatformSpec;
    use proptest::prelude::*;

    use crate::scenario::hash::fnv1a64;
    use crate::scenario::*;
    use crate::traffic::TrafficPolicy;

    /// Names and descriptions: zero to three fragments drawn from plain,
    /// non-ASCII and hostile text — quotes, backslashes, every class of
    /// control character, and the literal `"seed": ` key a content hash
    /// splits the rendering at.
    fn arb_name() -> impl Strategy<Value = String> {
        const FRAGMENTS: [&str; 10] = [
            "probe",
            "rx burst",
            "ccd0→cxl",
            "λ-flow 😀 é",
            "with \"quotes\"\n",
            "back\\slash\\",
            "\u{0}\u{1}\u{8}\t\r\u{c}\u{1f}\u{7f}",
            "\"seed\": ",
            "\n  \"seed\": 7,",
            "}\n",
        ];
        prop::collection::vec(0usize..FRAGMENTS.len(), 0..4)
            .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
    }

    fn arb_bw() -> impl Strategy<Value = Bandwidth> {
        // Any finite f64 round-trips: the writer prints the shortest decimal
        // that parses back to the same bits, so odd magnitudes are fine.
        (1u64..u64::from(u32::MAX)).prop_map(|b| Bandwidth::from_bytes_per_s(b as f64 * 1.7))
    }

    fn arb_demand() -> impl Strategy<Value = DemandSchedule> {
        (
            prop::bool::ANY,
            prop::collection::vec((1u64..5_000_000, prop::option::of(arb_bw())), 1..5),
        )
            .prop_map(|(constant, raw)| {
                if constant {
                    DemandSchedule::constant(raw[0].1)
                } else {
                    // Strictly increasing from zero: cumulative gaps.
                    let mut t = 0u64;
                    let pieces = raw
                        .into_iter()
                        .enumerate()
                        .map(|(i, (gap, d))| {
                            if i > 0 {
                                t += gap;
                            }
                            (SimTime::from_nanos(t), d)
                        })
                        .collect();
                    DemandSchedule::piecewise(pieces)
                }
            })
    }

    fn arb_cores() -> impl Strategy<Value = CoreSelect> {
        (0u8..5, prop::collection::vec(0u32..256, 0..4), 0u32..64).prop_map(|(k, ids, n)| match k {
            0 => CoreSelect::Cores(ids),
            1 => CoreSelect::Ccd(n),
            2 => CoreSelect::Ccds(ids),
            3 => CoreSelect::Ccx(n),
            _ => CoreSelect::All,
        })
    }

    fn arb_target() -> impl Strategy<Value = TargetSpec> {
        (0u8..3, prop::collection::vec(0u32..24, 0..4), 0u32..4).prop_map(|(k, ds, dev)| match k {
            0 => TargetSpec::AllDimms,
            1 => TargetSpec::Dimms(ds),
            _ => TargetSpec::Cxl(dev),
        })
    }

    fn arb_engine_flow() -> impl Strategy<Value = EngineFlow> {
        (
            (arb_cores(), prop::option::of(0u32..4), arb_target()),
            (0usize..4, 0usize..4, prop::option::of(1u64..4096)),
            (
                prop::option::of(0u64..100_000_000),
                prop::option::of(0u64..100_000_000),
            ),
        )
            .prop_map(
                |((cores, nic, target), (op, pat, ws), (start, stop))| EngineFlow {
                    cores,
                    nic,
                    target,
                    op: [
                        None,
                        Some(OpKind::Read),
                        Some(OpKind::WriteTemporal),
                        Some(OpKind::WriteNonTemporal),
                    ][op],
                    pattern: [
                        None,
                        Some(Pattern::Sequential),
                        Some(Pattern::Random),
                        Some(Pattern::PointerChase),
                    ][pat],
                    working_set: ws.map(ByteSize::from_mib),
                    start: start.map(SimTime::from_nanos),
                    stop: stop.map(SimTime::from_nanos),
                },
            )
    }

    fn arb_policy() -> impl Strategy<Value = TrafficPolicy> {
        (
            0u8..5,
            prop::collection::vec(1u64..64, 0..4),
            1u64..1_000_000,
        )
            .prop_map(|(k, v, i)| match k {
                0 => TrafficPolicy::HardwareDefault,
                1 => TrafficPolicy::MaxMinFair,
                2 => TrafficPolicy::WeightedFair {
                    weights: v.iter().map(|&w| w as f64 / 4.0).collect(),
                },
                3 => TrafficPolicy::RateLimit {
                    caps_gb_s: v.iter().map(|&w| w as f64 * 1.5).collect(),
                },
                _ => TrafficPolicy::BdpAdaptive {
                    latency_factor: 1.0 + i as f64 / 1e6,
                    interval_ns: i,
                },
            })
    }

    fn arb_topology() -> impl Strategy<Value = TopologyChoice> {
        (0u8..6).prop_map(|k| match k {
            0 => TopologyChoice::Named("epyc_7302".into()),
            1 => TopologyChoice::Named("epyc_9634".into()),
            2 => TopologyChoice::Named("dual_epyc_7302".into()),
            3 => TopologyChoice::Named("epyc_9634_nic".into()),
            4 => TopologyChoice::Inline(PlatformSpec::epyc_9634()),
            _ => TopologyChoice::Inline(PlatformSpec::monolithic_baseline()),
        })
    }

    fn arb_engine_opts() -> impl Strategy<Value = EngineOptions> {
        (
            prop::option::of(1u64..10_000),
            prop::bool::ANY,
            prop::option::of(1u64..100_000),
            prop::option::of(1u32..64),
            prop::option::of(1u64..100_000),
            prop::option::of(1usize..8),
        )
            .prop_map(|(warmup, det, tw, ts, mw, workers)| EngineOptions {
                warmup: warmup.map(SimDuration::from_nanos),
                deterministic_memory: det,
                trace_window: tw.map(SimDuration::from_nanos),
                trace_sampling: ts,
                metrics_window: mw.map(SimDuration::from_nanos),
                profile_phases: None,
                workers,
            })
    }

    fn arb_fluid_opts() -> impl Strategy<Value = FluidOptions> {
        (
            prop::collection::vec(0u8..4, 1..4),
            prop::option::of(1u64..10_000_000),
            prop::option::of(1u64..100_000_000),
        )
            .prop_map(|(links, dt, sample)| FluidOptions {
                links: links
                    .into_iter()
                    .map(|k| match k {
                        0 => FluidLinkSpec::Named("if_9634".into()),
                        1 => FluidLinkSpec::Named("plink_9634".into()),
                        2 => FluidLinkSpec::Named("if_7302".into()),
                        _ => FluidLinkSpec::Inline(FluidLink::if_7302()),
                    })
                    .collect(),
                dt: dt.map(SimDuration::from_nanos),
                sample: sample.map(SimDuration::from_nanos),
            })
    }

    fn arb_flow() -> impl Strategy<Value = ScenarioFlow> {
        (
            arb_name(),
            prop::option::of(arb_demand()),
            prop::option::of(arb_engine_flow()),
            prop::collection::vec(0usize..4, 0..3),
        )
            .prop_map(|(name, demand, engine, links)| ScenarioFlow {
                name,
                demand,
                engine,
                links,
            })
    }

    fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
        (
            (arb_name(), arb_name(), arb_topology(), prop::bool::ANY),
            (
                prop::option::of(0u64..=u64::MAX),
                1u64..10_000_000_000,
                arb_policy(),
            ),
            (
                prop::option::of(arb_engine_opts()),
                prop::option::of(arb_fluid_opts()),
            ),
            prop::collection::vec(arb_flow(), 0..4),
        )
            .prop_map(
                |(
                    (name, description, topology, event),
                    (seed, horizon, policy),
                    (engine, fluid),
                    flows,
                )| ScenarioSpec {
                    name,
                    description,
                    topology,
                    backend: if event {
                        BackendKind::Event
                    } else {
                        BackendKind::Fluid
                    },
                    seed,
                    horizon: SimTime::from_nanos(horizon),
                    policy,
                    engine,
                    fluid,
                    flows,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Serialization is lossless and byte-deterministic over the whole
        /// spec space — including unicode names, full-range seeds, inline
        /// platforms, and every policy/selector variant.
        #[test]
        fn arbitrary_specs_round_trip_through_json(spec in arb_spec()) {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json).expect("generated spec parses back");
            prop_assert_eq!(&back, &spec);
            prop_assert_eq!(back.to_json(), json);
        }

        /// The one-render hash path equals hashing `to_json()` bytes, both
        /// for the content key before the seed is derived and for the
        /// final spec after it is written — even into a stale buffer.
        #[test]
        fn seed_and_hash_equals_hashing_to_json(spec in arb_spec(), base_seed in 0u64..=u64::MAX) {
            let key_hash = fnv1a64(spec.to_json().as_bytes());
            prop_assert_eq!(spec_hash(&spec), format!("{key_hash:016x}"));

            let mut seeded = spec.clone();
            let mut buf = b"stale bytes from an earlier spec".to_vec();
            let hash = seed_and_hash(&mut seeded, base_seed, &mut buf);
            prop_assert_eq!(seeded.seed, Some(splitmix64(base_seed ^ key_hash)));
            prop_assert_eq!(&hash, &format!("{:016x}", fnv1a64(seeded.to_json().as_bytes())));
            prop_assert_eq!(spec_hash(&seeded), hash);
        }
    }
}

mod sweeps {
    use super::*;

    fn fluid_sweep() -> SweepSpec {
        SweepSpec {
            name: "unit_sweep".into(),
            description: "demand × capacity grid over the fluid harvest scenario".into(),
            base: fluid_spec(),
            axes: vec![
                SweepAxis::DemandGbS {
                    flow: "capped".into(),
                    values: vec![Some(2.0), Some(4.0), None],
                },
                SweepAxis::LinkCapacityGbS {
                    link: 0,
                    values: vec![20.0, 33.2],
                },
            ],
            max_points: None,
        }
    }

    #[test]
    fn expansion_is_deterministic_ordered_and_seed_derived() {
        let sweep = fluid_sweep();
        let a = sweep.expand().expect("expands");
        let b = sweep.expand().expect("expands");
        assert_eq!(a, b, "expansion is a pure function of the spec");
        assert_eq!(a.len(), 6, "cartesian product of 3 × 2");
        // First axis outermost, labels in key=value form.
        assert_eq!(a[0].label, "demand[capped]=2 cap[link0]=20");
        assert_eq!(a[1].label, "demand[capped]=2 cap[link0]=33.2");
        assert_eq!(a[4].label, "demand[capped]=max cap[link0]=20");
        // Hashes are distinct and seeds are derived (≠ base seed).
        let mut hashes: Vec<&str> = a.iter().map(|p| p.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6, "every point hashes uniquely");
        let base = sweep.base.seed_or_default();
        for p in &a {
            let s = p.spec.seed.expect("derived seed set");
            assert_ne!(s, base, "per-point seeds are mixed, not the base seed");
        }
    }

    #[test]
    fn sweep_round_trips_through_json() {
        let sweep = fluid_sweep();
        let json = sweep.to_json();
        let back = SweepSpec::from_json(&json).expect("parses");
        assert_eq!(back, sweep);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn runner_is_worker_count_invariant() {
        let sweep = fluid_sweep();
        let (serial, s1) = SweepRunner::with_jobs(1).run(&sweep).expect("runs");
        let (wide, s8) = SweepRunner::with_jobs(8).run(&sweep).expect("runs");
        assert_eq!(
            serial.to_json(),
            wide.to_json(),
            "aggregate bytes must not depend on worker count"
        );
        assert_eq!(s1.executed, 6);
        assert_eq!(s8.executed, 6);
        assert_eq!(s1.cached, 0);
    }

    #[test]
    fn runner_cache_hits_reproduce_cold_bytes() {
        let dir = std::env::temp_dir().join(format!("chiplet-sweep-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = SweepRunner {
            jobs: 2,
            cache_dir: Some(dir.clone()),
        };
        let sweep = fluid_sweep();
        let (cold, cold_stats) = runner.run(&sweep).expect("cold run");
        assert_eq!(cold_stats.executed, 6);
        assert_eq!(cold_stats.cached, 0);
        assert!(
            std::fs::read_dir(&dir).unwrap().count() >= 6,
            "cache populated"
        );
        let (warm, warm_stats) = runner.run(&sweep).expect("warm run");
        assert_eq!(warm_stats.cached, 6, "second run is fully cached");
        assert_eq!(warm_stats.executed, 0);
        assert_eq!(warm_stats.corrupt_healed, 0);
        assert_eq!(cold.to_json(), warm.to_json(), "cache is transparent");
        // Corrupt one entry: it re-runs, and the healing is counted.
        let victim = dir.join(format!("{}.json", cold.points[0].hash));
        std::fs::write(&victim, "{ not json").unwrap();
        let (healed, healed_stats) = runner.run(&sweep).expect("heals corrupt entries");
        assert_eq!(healed_stats.executed, 1);
        assert_eq!(healed_stats.cached, 5);
        assert_eq!(healed_stats.corrupt_healed, 1, "healing is never silent");
        assert_eq!(healed.to_json(), cold.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_cache_writers_never_yield_a_torn_read() {
        // Hammer one cache key from many writer threads while readers poll:
        // atomic tmp + rename publication means a reader sees Miss (before
        // the first rename) or a complete entry — never Corrupt, and never
        // bytes that match neither writer's payload.
        let dir = std::env::temp_dir().join(format!("chiplet-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let report_a = fluid_spec().run().expect("runs").to_json();
        let mut spec_b = fluid_spec();
        spec_b.seed = Some(99);
        spec_b.horizon = SimTime::from_millis(100);
        let report_b = spec_b.run().expect("runs").to_json();
        assert_ne!(report_a, report_b, "two distinct payloads");

        let hash = "00c0ffee00c0ffee";
        std::thread::scope(|scope| {
            for w in 0..4 {
                let (dir, a, b) = (&dir, report_a.as_str(), report_b.as_str());
                scope.spawn(move || {
                    for i in 0..50 {
                        let payload = if (w + i) % 2 == 0 { a } else { b };
                        store_cache_entry(dir, hash, payload).expect("store");
                    }
                });
            }
            for _ in 0..4 {
                let (dir, a, b) = (&dir, report_a.as_str(), report_b.as_str());
                scope.spawn(move || {
                    for _ in 0..200 {
                        match load_cache_entry(dir, hash) {
                            CacheLookup::Hit(report) => {
                                let json = report.to_json();
                                assert!(
                                    json == a || json == b,
                                    "read must match one writer's payload"
                                );
                            }
                            CacheLookup::Miss => {}
                            CacheLookup::Corrupt => panic!("torn cache read"),
                        }
                    }
                });
            }
        });
        // The final state is one complete entry; temp files are all renamed.
        assert!(matches!(load_cache_entry(&dir, hash), CacheLookup::Hit(_)));
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(leftovers, 0, "every temp file is renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_hash_matches_expanded_point_hashes() {
        for point in fluid_sweep().expand().expect("expands") {
            assert_eq!(spec_hash(&point.spec), point.hash);
        }
    }

    #[test]
    fn effective_jobs_never_zero_and_never_oversubscribes() {
        let cores = 8;
        for hint in [0, 1, cores, 2 * cores] {
            for items in [0, 1, 5, 100] {
                // Auto-sized (jobs = 0): stays within the host's cores even
                // after dividing by the engine-worker hint, and never hits 0.
                let auto = effective_jobs_with(0, items, cores, hint);
                assert!(auto >= 1, "hint={hint} items={items}");
                assert!(auto <= cores, "hint={hint} items={items}");
                assert!(auto <= items.max(1), "hint={hint} items={items}");
                if hint >= 1 {
                    assert!(
                        auto.saturating_mul(hint) <= cores.max(hint),
                        "jobs × engine workers must not oversubscribe: \
                         hint={hint} items={items} auto={auto}"
                    );
                }
                // Explicit jobs: taken as-is, but still clamped to the work
                // and never 0.
                for jobs in [1, 3, cores] {
                    let got = effective_jobs_with(jobs, items, cores, hint);
                    assert!(got >= 1);
                    assert_eq!(got, jobs.min(items.max(1)));
                }
            }
        }
        // Degenerate hosts: zero/unknown parallelism still yields one job.
        assert_eq!(effective_jobs_with(0, 10, 0, 0), 1);
        assert_eq!(effective_jobs_with(0, 10, 1, 16), 1);
    }

    #[test]
    fn bad_sweeps_are_rejected_with_reasons() {
        // No axes.
        let mut sweep = fluid_sweep();
        sweep.axes.clear();
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("no axes"), "{err}");

        // An empty axis.
        let mut sweep = fluid_sweep();
        sweep.axes[0] = SweepAxis::Seed { values: Vec::new() };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("no values"), "{err}");

        // Unknown flow name.
        let mut sweep = fluid_sweep();
        sweep.axes[0] = SweepAxis::DemandGbS {
            flow: "nobody".into(),
            values: vec![None],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("unknown flow"), "{err}");

        // Out-of-range link.
        let mut sweep = fluid_sweep();
        sweep.axes[1] = SweepAxis::LinkCapacityGbS {
            link: 9,
            values: vec![10.0],
        };
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Explosive product.
        let mut sweep = fluid_sweep();
        sweep.axes = vec![
            SweepAxis::Seed {
                values: (0..200).collect(),
            },
            SweepAxis::HorizonUs {
                values: (1..=200).collect(),
            },
        ];
        let err = sweep.expand().unwrap_err();
        assert!(err.to_string().contains("max"), "{err}");
    }

    #[test]
    fn flow_count_axis_replicates_in_place() {
        let mut sweep = fluid_sweep();
        sweep.axes = vec![SweepAxis::FlowCount {
            flow: "capped".into(),
            values: vec![1, 3],
        }];
        let points = sweep.expand().expect("expands");
        assert_eq!(points.len(), 2);
        let names: Vec<&str> = points[0]
            .spec
            .flows
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["greedy", "capped"], "count 1 keeps the flow as-is");
        let names: Vec<&str> = points[1]
            .spec
            .flows
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, ["greedy", "capped#0", "capped#1", "capped#2"]);
    }

    #[test]
    fn mlp_axis_inlines_a_patched_platform() {
        let mut sweep = fluid_sweep();
        sweep.base = event_spec();
        sweep.axes = vec![SweepAxis::MlpReadOutstanding {
            values: vec![8, 16],
        }];
        let points = sweep.expand().expect("expands");
        for (p, want) in points.iter().zip([8u32, 16]) {
            let platform = p.spec.topology.platform().unwrap();
            assert_eq!(platform.mlp.core_read_outstanding, want);
            assert!(matches!(p.spec.topology, TopologyChoice::Inline(_)));
        }
    }

    #[test]
    fn parallel_ordered_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [0, 1, 3, 8] {
            let out = parallel_ordered(&items, jobs, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let want: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
        assert!(parallel_ordered(&Vec::<u8>::new(), 4, |_, _| 0).is_empty());
    }

    #[test]
    fn registry_runs_sweeps_with_the_default_runner() {
        let mut reg = ScenarioRegistry::new();
        reg.register(ScenarioEntry {
            name: "unit_sweep",
            summary: "grid over the fluid harvest scenario",
            build: || {
                ScenarioKind::Sweep(SweepSpec {
                    name: "unit_sweep".into(),
                    description: String::new(),
                    base: super::fluid_spec(),
                    axes: vec![SweepAxis::HorizonUs {
                        values: vec![100, 200],
                    }],
                    max_points: None,
                })
            },
        });
        match reg.run("unit_sweep") {
            Some(Ok(ScenarioRun::Sweep(outcome))) => {
                assert_eq!(outcome.points.len(), 2);
                assert!(outcome.points.iter().all(|p| p.report.outcome().is_some()));
            }
            _ => panic!("sweep entry should run"),
        }
    }
}

#[test]
fn constant_demand_compiles_to_the_offered_path() {
    let spec = event_spec();
    let topo = spec.topology.resolve().unwrap();
    let flow = spec.compile_flow(&spec.flows[0], &topo).unwrap();
    assert_eq!(flow.offered, Some(Bandwidth::from_gb_per_s(8.0)));
    assert!(
        flow.demand.is_none(),
        "constant schedules use the fast path"
    );

    // A piecewise schedule stays a schedule.
    let mut spec = event_spec();
    spec.flows[0].demand = Some(DemandSchedule::piecewise(vec![
        (SimTime::ZERO, None),
        (
            SimTime::from_micros(10),
            Some(Bandwidth::from_gb_per_s(2.0)),
        ),
    ]));
    let flow = spec.compile_flow(&spec.flows[0], &topo).unwrap();
    assert!(flow.offered.is_none());
    assert!(flow.demand.is_some());
}

mod metric_runs {
    use super::*;
    use crate::metrics::{lint_openmetrics, MetricsRegistry};

    #[test]
    fn event_backend_metrics_are_deterministic_and_labelled() {
        let dump = || {
            let mut m = MetricsRegistry::new();
            event_spec().run_with_metrics(&mut m).unwrap();
            m.to_openmetrics()
        };
        let (a, b) = (dump(), dump());
        assert_eq!(a, b, "same spec + seed must dump identical bytes");
        lint_openmetrics(&a).unwrap();
        assert!(a.contains(r#"scenario="unit_event""#));
        assert!(a.contains(r#"backend="event""#));
        assert!(a.contains("chiplet_flow_completions_total{"));
        assert!(a.contains("chiplet_flow_latency_ns{"));
    }

    #[test]
    fn fluid_backend_metrics_count_every_epoch() {
        let mut m = MetricsRegistry::new();
        fluid_spec().run_with_metrics(&mut m).unwrap();
        let labels = [("backend", "fluid"), ("scenario", "unit_fluid")];
        // 200 ms horizon at dt = 1 ms.
        assert_eq!(m.counter_value("fluid_ticks", &labels), Some(200.0));
        let per_flow = [
            ("backend", "fluid"),
            ("flow", "greedy"),
            ("scenario", "unit_fluid"),
        ];
        assert!(m.counter_value("fluid_flow_bytes", &per_flow).unwrap() > 0.0);
        lint_openmetrics(&m.to_openmetrics()).unwrap();
    }

    #[test]
    fn run_specs_with_metrics_is_jobs_invariant() {
        let mut second = fluid_spec();
        second.name = "unit_fluid_b".into();
        let specs = vec![fluid_spec(), second];
        let dump = |jobs| {
            let mut m = MetricsRegistry::new();
            let reports = run_specs_with_metrics(&specs, jobs, &mut m).unwrap();
            (m.to_openmetrics(), reports)
        };
        let (m1, r1) = dump(1);
        let (m4, r4) = dump(4);
        assert_eq!(m1, m4, "metrics must not depend on worker count");
        assert_eq!(r1, r4);
        assert!(m1.contains(r#"scenario="unit_fluid_b""#));
    }

    #[test]
    fn sweep_metrics_split_deterministic_from_volatile() {
        let sweep = SweepSpec {
            name: "unit_metric_sweep".into(),
            description: String::new(),
            base: fluid_spec(),
            axes: vec![SweepAxis::DemandGbS {
                flow: "capped".into(),
                values: vec![Some(2.0), None],
            }],
            max_points: None,
        };
        let dump = |jobs| {
            let mut m = MetricsRegistry::new();
            SweepRunner::with_jobs(jobs)
                .run_with_metrics(&sweep, &mut m)
                .unwrap();
            (m.to_openmetrics(), m.to_openmetrics_with_volatile())
        };
        let (d1, v1) = dump(1);
        let (d4, _) = dump(4);
        assert_eq!(d1, d4, "default dump must not depend on worker count");
        lint_openmetrics(&d1).unwrap();
        assert!(d1.contains("sweep_flow_achieved_gb_s{"));
        assert!(!d1.contains("sweep_point_wall_seconds"));
        assert!(v1.contains("sweep_point_wall_seconds{"));
        assert!(v1.contains("sweep_jobs{"));
        assert!(v1.contains("sweep_cache_misses_total{"));
        assert!(v1.contains("sweep_cache_corrupt_healed_total{"));
    }
}
