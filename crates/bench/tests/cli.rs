//! `chiplet-scenario` and `bench-check` CLI error paths: bad input must exit
//! non-zero with a one-line diagnostic on stderr — never a panic or a zero
//! exit.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scenario_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chiplet-scenario"))
        .args(args)
        .output()
        .expect("chiplet-scenario spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scratch file path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("chiplet-cli-{}-{name}", std::process::id()))
}

#[test]
fn run_missing_file_fails_cleanly() {
    let out = scenario_cli(&["run", "/nonexistent/nowhere.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("/nonexistent/nowhere.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn run_malformed_json_fails_cleanly() {
    let path = scratch("malformed.json");
    std::fs::write(&path, "{ this is not json").unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("JSON error"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn run_invalid_spec_fails_cleanly() {
    // Structurally valid JSON referencing a platform that doesn't exist.
    let path = scratch("badplatform.json");
    let spec = r#"{
      "name": "bad",
      "description": "",
      "topology": { "Named": "epyc_1234" },
      "backend": "Event",
      "seed": 1,
      "horizon": 1000,
      "policy": "HardwareDefault",
      "engine": null,
      "fluid": null,
      "flows": []
    }"#;
    std::fs::write(&path, spec).unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown platform"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// A spec whose horizon does not exceed the engine warmup (here 0) is a
/// typed error naming both fields, not a panic (exit 101).
#[test]
fn run_zero_horizon_fails_cleanly() {
    let path = scratch("zerohorizon.json");
    std::fs::write(&path, ZERO_HORIZON_SPEC).unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert_ne!(out.status.code(), Some(101), "a panic exit");
    let err = stderr_of(&out);
    assert!(
        err.contains("horizon") && err.contains("engine.warmup"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

/// An event-engine spec with a zero horizon.
const ZERO_HORIZON_SPEC: &str = r#"{
  "name": "zero_horizon",
  "topology": { "Named": "epyc_7302" },
  "backend": "Event",
  "horizon": 0,
  "flows": [
    {
      "name": "probe",
      "engine": { "cores": { "Ccd": 0 }, "target": "AllDimms" }
    }
  ]
}"#;

#[test]
fn run_unknown_name_fails_cleanly() {
    let out = scenario_cli(&["run", "fig99"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown scenario 'fig99'"), "{err}");
}

#[test]
fn sweep_missing_file_fails_cleanly() {
    let out = scenario_cli(&["sweep", "/nonexistent/sweep.json"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("/nonexistent/sweep.json"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_malformed_json_fails_cleanly() {
    let path = scratch("badsweep.json");
    std::fs::write(&path, "[1, 2,").unwrap();
    let out = scenario_cli(&["sweep", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("JSON error"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_unknown_name_fails_cleanly() {
    let out = scenario_cli(&["sweep", "no_such_sweep"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown sweep 'no_such_sweep'"), "{err}");
}

#[test]
fn sweep_rejects_non_sweep_entries() {
    let out = scenario_cli(&["sweep", "fig3"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("not a sweep"), "{err}");
}

#[test]
fn sweep_rejects_invalid_axes_cleanly() {
    // A well-formed SweepSpec whose axis targets a flow that doesn't exist.
    let path = scratch("badaxis.json");
    let sweep = r#"{
      "name": "bad_axis",
      "description": "",
      "base": {
        "name": "base",
        "description": "",
        "topology": { "Named": "epyc_9634" },
        "backend": "Fluid",
        "seed": 1,
        "horizon": 1000000,
        "policy": "HardwareDefault",
        "engine": null,
        "fluid": { "links": [ { "Named": "if_9634" } ], "dt": null, "sample": null },
        "flows": [ { "name": "f", "demand": null, "engine": null, "links": [0] } ]
      },
      "axes": [ { "DemandGbS": { "flow": "ghost", "values": [null] } } ]
    }"#;
    std::fs::write(&path, sweep).unwrap();
    let out = scenario_cli(&["sweep", path.to_str().unwrap(), "--no-cache"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown flow"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = scenario_cli(&["sweep", "fig5_sweep", "--jobs"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--jobs needs a value"));

    let out = scenario_cli(&["sweep", "fig5_sweep", "--jobs", "many"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--jobs needs a number"));

    let out = scenario_cli(&["run", "fig5_if_9634", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown flag --frobnicate"));
}

#[test]
fn engine_workers_on_ineligible_spec_warns_on_stderr() {
    // A tracing-enabled spec cannot run the parallel engine; asking for
    // workers must produce a loud stderr warning, not a silent downgrade.
    let path = scratch("traced.json");
    let spec = r#"{
      "name": "traced",
      "description": "",
      "topology": { "Named": "epyc_7302" },
      "backend": "Event",
      "seed": 1,
      "horizon": 10000,
      "policy": "HardwareDefault",
      "engine": { "warmup": 2000, "deterministic_memory": false,
                  "trace_window": null, "trace_sampling": 8 },
      "fluid": null,
      "flows": [ { "name": "probe", "demand": null,
                   "engine": { "cores": { "Ccd": 0 },
                               "target": "AllDimms" },
                   "links": [] } ]
    }"#;
    std::fs::write(&path, spec).unwrap();
    let out = scenario_cli(&["run", path.to_str().unwrap(), "--engine-workers", "4"]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("fell back") && err.contains("trace_sampling"),
        "expected a loud fallback warning, got: {err}"
    );

    // The same spec without --engine-workers is not a downgrade: silent.
    let out = scenario_cli(&["run", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains("fell back"),
        "{}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sweep_runs_end_to_end_with_cache() {
    let dir = scratch("cachedir");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    let cold = scenario_cli(&["sweep", "fig5_sweep", "--json", "--cache-dir", dir_s]);
    assert!(cold.status.success(), "{}", stderr_of(&cold));
    assert!(
        stderr_of(&cold).contains("0 cached"),
        "{}",
        stderr_of(&cold)
    );

    let warm = scenario_cli(&["sweep", "fig5_sweep", "--json", "--cache-dir", dir_s]);
    assert!(warm.status.success(), "{}", stderr_of(&warm));
    assert!(
        stderr_of(&warm).contains("0 executed"),
        "{}",
        stderr_of(&warm)
    );

    assert_eq!(cold.stdout, warm.stdout, "cache must be transparent");
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-check"))
        .args(args)
        .output()
        .expect("bench-check spawns")
}

/// Bad `bench-check` arguments are a usage error (exit 2), not a panic:
/// the flag's value swapped with the fresh file, a missing value, a value
/// that is no number, and unreadable paths.
#[test]
fn bench_check_bad_arguments_are_usage_errors() {
    let fresh = scratch("fresh.jsonl");
    std::fs::write(&fresh, "{\"id\": \"a\", \"mean_ns\": 1.0}\n").unwrap();
    let fresh_s = fresh.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["--max-regression", fresh_s, "0.25"],
            "non-negative number",
        ),
        (&[fresh_s, "--max-regression"], "needs a value"),
        (&[fresh_s, "--max-regression", "lots"], "'lots'"),
        (&["/nonexistent/fresh.jsonl"], "/nonexistent/fresh.jsonl"),
        (
            &[fresh_s, "/nonexistent/base.json"],
            "/nonexistent/base.json",
        ),
    ];
    for (args, want) in cases {
        let out = bench_check(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr_of(&out);
        assert!(
            err.contains(want) && err.contains("usage:"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_file(&fresh);
}

/// The baseline and fresh files given the wrong way round are a usage
/// error naming what is wrong with the supposed baseline, not a panic.
#[test]
fn bench_check_swapped_files_are_a_usage_error() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let fresh = scratch("swapped.jsonl");
    std::fs::write(&fresh, "{\"id\": \"a\", \"mean_ns\": 1.0}\n").unwrap();
    let out = bench_check(&[baseline, fresh.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("no \"benches\" object"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let _ = std::fs::remove_file(&fresh);
}
