//! End-to-end tests of the scenario-serving daemon: byte identity with the
//! batch CLI, fair-queue admission control, streaming progress, cache
//! integrity under concurrent load, and metrics hygiene.

use std::path::{Path, PathBuf};

use chiplet_bench::scenarios::paper_registry;
use chiplet_bench::serve::hammer::{hammer, HammerOptions};
use chiplet_bench::serve::{http, obs, ServeConfig, Server};
use chiplet_net::scenario::{ScenarioKind, SweepRunner, SweepSpec};
use chiplet_net::{describe_serve_metrics, lint_openmetrics, MetricsRegistry};
use chiplet_sim::SimTime;

fn registered_sweep(name: &str) -> SweepSpec {
    match (paper_registry().get(name).expect("registered").build)() {
        ScenarioKind::Sweep(s) => s,
        _ => panic!("{name} is a sweep"),
    }
}

fn fig5_sweep() -> SweepSpec {
    registered_sweep("fig5_sweep")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chiplet-serve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn(cache_dir: Option<PathBuf>, max_pending: usize, max_client: usize) -> Server {
    spawn_with_log(cache_dir, max_pending, max_client, None)
}

fn spawn_with_log(
    cache_dir: Option<PathBuf>,
    max_pending: usize,
    max_client: usize,
    access_log: Option<PathBuf>,
) -> Server {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_dir,
        max_pending,
        max_client_pending: max_client,
        access_log,
        recorder: 256,
    })
    .expect("daemon binds")
}

#[test]
fn served_sweep_bytes_match_the_batch_runner() {
    let dir = scratch_dir("bytes");
    let server = spawn(Some(dir.clone()), 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();

    let (status, served) =
        http::fetch(&addr, "POST", "/v1/sweep?client=t1", Some(&sweep.to_json()))
            .expect("POST /v1/sweep");
    assert_eq!(status, 200, "{served}");

    let (batch, _) = SweepRunner::with_jobs(0).run(&sweep).expect("batch run");
    assert_eq!(
        served,
        format!("{}\n", batch.to_json()),
        "daemon and batch CLI must produce identical bytes"
    );

    // A second submission is served from cache/dedup — still identical.
    let (status, again) = http::fetch(&addr, "POST", "/v1/sweep?client=t2", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 200);
    assert_eq!(again, served, "cached responses are byte-identical too");

    // And the named-registry route resolves to the same sweep.
    let (status, named) =
        http::fetch(&addr, "POST", "/v1/sweep?name=fig5_sweep", None).expect("named sweep");
    assert_eq!(status, 200);
    assert_eq!(named, served);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_sweep_reports_every_point_then_done() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(
        &addr,
        "POST",
        "/v1/sweep?client=s1&stream=1",
        Some(&sweep.to_json()),
    )
    .expect("streamed sweep");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    let total = sweep.expand().unwrap().len();
    assert_eq!(
        lines.len(),
        total + 1,
        "one line per point plus done:\n{body}"
    );
    for (i, line) in lines[..total].iter().enumerate() {
        assert!(line.contains("\"event\":\"point\""), "{line}");
        assert!(line.contains(&format!("\"index\":{i}")), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    assert!(lines[total].contains("\"event\":\"done\""), "{body}");
    assert!(lines[total].contains("\"failed\":0"), "{body}");
    server.shutdown();
}

#[test]
fn over_limit_submissions_get_a_clean_429() {
    // Global cap below the sweep's point count: all-or-nothing admission
    // must reject the whole batch regardless of queue state.
    let server = spawn(None, 4, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(
        &addr,
        "POST",
        "/v1/sweep?client=big",
        Some(&sweep.to_json()),
    )
    .expect("POST /v1/sweep");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");

    // A single point still fits: the daemon stays serviceable.
    let point = &sweep.expand().unwrap()[0];
    let (status, _) = http::fetch(
        &addr,
        "POST",
        "/v1/run?client=small",
        Some(&point.spec.to_json()),
    )
    .expect("POST /v1/run");
    assert_eq!(status, 200);

    // The reject landed in the metrics, labelled by client.
    let (status, metrics) = http::fetch(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    lint_openmetrics(&metrics).expect("metrics lint");
    assert!(
        metrics.contains("chiplet_serve_admission_rejects_total{client=\"big\"} 1"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn per_client_cap_rejects_independently_of_global() {
    let server = spawn(None, 4096, 4);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, body) = http::fetch(&addr, "POST", "/v1/sweep?client=c1", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("client over limit"), "{body}");
    server.shutdown();
}

#[test]
fn bad_submissions_fail_cleanly() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let cases = [
        ("POST", "/v1/run", Some("{ not json"), 400),
        ("POST", "/v1/run", None, 400),
        ("POST", "/v1/run?name=fig99", None, 404),
        ("POST", "/v1/sweep?name=fig3", None, 400), // a spec, not a sweep
        ("GET", "/v1/nowhere", None, 404),
        ("DELETE", "/v1/run", None, 405),
    ];
    for (method, route, body, want) in cases {
        let (status, text) = http::fetch(&addr, method, route, body).expect("request");
        assert_eq!(status, want, "{method} {route}: {text}");
        assert!(text.contains("\"error\""), "{method} {route}: {text}");
    }
    let (status, health) = http::fetch(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, health.as_str()), (200, "ok\n"));
    server.shutdown();
}

/// A spec the engine cannot run (horizon 0, inside the default warmup) is
/// answered with a typed error, and the daemon's only worker survives to
/// serve the next, valid request.
#[test]
fn zero_horizon_spec_is_an_error_and_the_worker_survives() {
    let server = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: None,
        max_pending: 16,
        max_client_pending: 16,
        access_log: None,
        recorder: 16,
    })
    .expect("daemon binds");
    let addr = server.addr().to_string();
    let spec = registered_sweep("fig3_sweep")
        .expand()
        .expect("fig3_sweep expands")
        .swap_remove(0)
        .spec;
    let mut bad = spec.clone();
    bad.horizon = SimTime::ZERO;

    let (status, body) =
        http::fetch(&addr, "POST", "/v1/run", Some(&bad.to_json())).expect("POST /v1/run");
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("horizon") && body.contains("engine.warmup"),
        "{body}"
    );

    let (status, body) =
        http::fetch(&addr, "POST", "/v1/run", Some(&spec.to_json())).expect("POST /v1/run");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, format!("{}\n", spec.run().expect("runs").to_json()));
    server.shutdown();
}

/// Reads the access log once it holds at least `want` lines (the daemon
/// appends each line just after the response bytes reach the client, so a
/// fresh reader can race the final append) and lints it.
fn read_access_log(path: &Path, want: usize) -> Vec<obs::AccessRecord> {
    for _ in 0..200 {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.lines().count() >= want {
            return obs::lint_access_log(&text).expect("access log lints clean");
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("access log never reached {want} lines");
}

#[test]
fn forced_parallel_fallback_is_attributed_end_to_end() {
    // An event-backend spec that asks for parallel execution (workers: 2)
    // while also sampling every span forces the engine's
    // parallel→sequential downgrade with reason "trace_sampling". That
    // reason must surface in the access log, the /v1/status flight
    // recorder, and the fallback counter — the full attribution chain.
    let dir = scratch_dir("fallback");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("access.jsonl");
    let server = spawn_with_log(None, 4096, 4096, Some(log.clone()));
    let addr = server.addr().to_string();

    let mut spec = registered_sweep("fig3_sweep").expand().expect("expand")[0]
        .spec
        .clone();
    let mut opts = spec.engine.clone().unwrap_or_default();
    opts.workers = Some(2);
    opts.trace_sampling = Some(1);
    spec.engine = Some(opts);

    let (status, headers, body) =
        http::fetch_with_headers(&addr, "POST", "/v1/run?client=fb", Some(&spec.to_json()))
            .expect("POST /v1/run");
    assert_eq!(status, 200, "{body}");
    let rid = http::header(&headers, "X-Request-Id")
        .expect("X-Request-Id header")
        .to_string();

    // Access log: the request's line names the downgrade reason.
    let records = read_access_log(&log, 1);
    let rec = records
        .iter()
        .find(|r| r.id == rid)
        .expect("logged request id");
    assert_eq!(rec.fallback.as_deref(), Some("trace_sampling"), "{rec:?}");
    assert_eq!(rec.disposition, "executed");
    assert_eq!(rec.outcome, "ok");

    // /v1/status: recent and slow entries carry the same attribution.
    let (status, doc) = http::fetch(&addr, "GET", "/v1/status", None).expect("GET /v1/status");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&doc).expect("status is JSON");
    for section in ["recent", "slow"] {
        let entries = v
            .get(section)
            .and_then(|s| s.as_seq())
            .unwrap_or_else(|| panic!("{section} missing:\n{doc}"));
        assert!(
            entries.iter().any(|e| {
                e.get("id").and_then(|x| x.as_str()) == Some(rid.as_str())
                    && e.get("fallback").and_then(|x| x.as_str()) == Some("trace_sampling")
            }),
            "{section} lacks the fallback-attributed request:\n{doc}"
        );
    }

    // /metrics: the per-reason counter ticked.
    let (status, metrics) = http::fetch(&addr, "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    lint_openmetrics(&metrics).expect("metrics lint");
    assert!(
        metrics.contains("chiplet_serve_fallback_total{reason=\"trace_sampling\"} 1"),
        "{metrics}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_endpoint_reports_live_introspection() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let (status, _) = http::fetch(&addr, "POST", "/v1/sweep?client=st", Some(&sweep.to_json()))
        .expect("POST /v1/sweep");
    assert_eq!(status, 200);

    let (status, doc) = http::fetch(&addr, "GET", "/v1/status", None).expect("GET /v1/status");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&doc).expect("status is JSON");
    assert_eq!(v.get("workers").and_then(|x| x.as_u64()), Some(4), "{doc}");
    for key in [
        "uptime_ns",
        "busy_workers",
        "queue_depth",
        "queue_depth_by_client",
        "inflight_keys",
        "recorder",
        "recent",
        "slow",
    ] {
        assert!(v.get(key).is_some(), "status lacks {key}:\n{doc}");
    }
    let recorder = v.get("recorder").expect("recorder");
    assert_eq!(
        recorder.get("capacity").and_then(|x| x.as_u64()),
        Some(256),
        "{doc}"
    );
    assert!(
        recorder.get("recorded").and_then(|x| x.as_u64()) >= Some(1),
        "{doc}"
    );

    // Every recorded span tiles exactly: Σ phase durations == e2e_ns.
    let recent = v.get("recent").and_then(|s| s.as_seq()).expect("recent");
    assert!(!recent.is_empty(), "{doc}");
    for entry in recent {
        let phases = entry
            .get("phases")
            .and_then(|p| p.as_map())
            .expect("phases");
        let sum: u64 = phases.iter().filter_map(|(_, d)| d.as_u64()).sum();
        assert_eq!(
            Some(sum),
            entry.get("e2e_ns").and_then(|x| x.as_u64()),
            "span does not tile: {doc}"
        );
    }
    server.shutdown();
}

#[test]
fn trace_endpoint_exports_valid_chrome_json() {
    let server = spawn(None, 4096, 4096);
    let addr = server.addr().to_string();
    let sweep = fig5_sweep();
    let point = &sweep.expand().expect("expand")[0];
    for client in ["t1", "t2"] {
        let (status, _) = http::fetch(
            &addr,
            "POST",
            &format!("/v1/run?client={client}"),
            Some(&point.spec.to_json()),
        )
        .expect("POST /v1/run");
        assert_eq!(status, 200);
    }

    let (status, body) = http::fetch(&addr, "GET", "/v1/trace", None).expect("GET /v1/trace");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&body).expect("trace is JSON");
    assert_eq!(
        v.get("displayTimeUnit").and_then(|x| x.as_str()),
        Some("ns"),
        "{body}"
    );
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_seq())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "{body}");
    // One umbrella slice per request plus one slice per non-zero phase,
    // and the per-client process naming metadata.
    for cat in ["serve", "phase"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} events:\n{body}"
        );
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name")),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn access_log_captures_every_request_exactly_once() {
    let dir = scratch_dir("log");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("access.jsonl");
    let server = spawn_with_log(None, 4096, 4096, Some(log.clone()));
    let addr = server.addr().to_string();
    let points = fig5_sweep().expand().expect("expand");

    let mut ids = Vec::new();
    for (i, point) in points.iter().cycle().take(6).enumerate() {
        let client = format!("c{}", i % 3);
        let (status, headers, body) = http::fetch_with_headers(
            &addr,
            "POST",
            &format!("/v1/run?client={client}"),
            Some(&point.spec.to_json()),
        )
        .expect("POST /v1/run");
        assert_eq!(status, 200, "{body}");
        ids.push(
            http::header(&headers, "X-Request-Id")
                .expect("X-Request-Id header")
                .to_string(),
        );
    }

    let records = read_access_log(&log, ids.len());
    assert_eq!(records.len(), ids.len(), "dropped or duplicated lines");
    for id in &ids {
        assert_eq!(
            records.iter().filter(|r| &r.id == id).count(),
            1,
            "{id} must be logged exactly once"
        );
    }
    // The lint already checks tiling; spot-check the fields tests rely on.
    for rec in &records {
        assert_eq!(rec.phases.iter().map(|&(_, d)| d).sum::<u64>(), rec.e2e_ns);
        assert_eq!(rec.outcome, "ok");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_metric_families_stay_out_of_default_dumps() {
    // Regression for batch byte-identity: every serving family is volatile,
    // so a default (non-volatile) dump — what the batch CLI writes — stays
    // byte-identical to a registry that never served anything.
    let mut m = MetricsRegistry::new();
    describe_serve_metrics(&mut m);
    let at = SimTime::from_nanos(1);
    m.observe("chiplet_serve_e2e_ns", &[("client", "c")], at, 123.0);
    m.observe("chiplet_serve_phase_ns", &[("phase", "exec")], at, 45.0);
    m.observe("chiplet_serve_queue_wait_ns", &[("client", "c")], at, 6.0);
    m.counter_add(
        "chiplet_serve_requests",
        &[("route", "/v1/run"), ("outcome", "ok")],
        1.0,
    );
    m.counter_add(
        "chiplet_serve_fallback",
        &[("reason", "trace_sampling")],
        1.0,
    );
    assert_eq!(
        m.to_openmetrics(),
        "# EOF\n",
        "a serve family leaked into the default dump"
    );
    let vol = m.to_openmetrics_with_volatile();
    lint_openmetrics(&vol).expect("volatile dump lints");
    for fam in [
        "chiplet_serve_e2e_ns",
        "chiplet_serve_phase_ns",
        "chiplet_serve_queue_wait_ns",
        "chiplet_serve_requests_total",
        "chiplet_serve_fallback_total",
    ] {
        assert!(
            vol.contains(fam),
            "{fam} missing from volatile dump:\n{vol}"
        );
    }
}

#[test]
fn load_test_thousand_concurrent_submissions_match_batch_bytes() {
    // The acceptance load test: ≥ 1000 concurrent single-point submissions
    // from ≥ 4 clients, byte-identical to the batch CLI, zero torn cache
    // entries, metrics lint-clean. `hammer` verifies all of it internally;
    // the assertions below just surface which check failed.
    let report = hammer(
        &fig5_sweep(),
        &HammerOptions {
            submissions: 1000,
            clients: 4,
            addr: None,
            cache_dir: None,
        },
    )
    .expect("hammer runs");
    assert_eq!(report.mismatches, 0, "{}", report.summary());
    assert_eq!(report.failures, 0, "{}", report.summary());
    assert_eq!(report.torn_entries, 0, "{}", report.summary());
    assert!(
        report.metrics_errors.is_empty(),
        "metrics: {:?}",
        report.metrics_errors
    );
    assert!(
        report.log_errors.is_empty(),
        "access log: {:?}",
        report.log_errors
    );
    assert_eq!(
        report.span_violations,
        0,
        "phase spans must tile e2e exactly: {}",
        report.summary()
    );
    assert_eq!(report.submissions, 1000);
    assert_eq!(report.clients, 4);
}
