//! End-to-end checks of the `run_spt` command line: `--trace --stats-json`
//! must produce a Konata-loadable O3PipeView trace and an `spt-stats-v1`
//! JSON document that round-trips through the `spt-util` parser, passes
//! the schema checker and names its threat model and input seed; flags
//! that contradict each other must be refused.

use spt_bench::statsdoc::RUN_DOC;
use spt_util::schema::{read_document, validate};
use spt_util::{parse_o3_trace, Json};
use std::process::Command;

#[test]
fn run_spt_emits_valid_trace_and_stats_json() {
    let dir = std::env::temp_dir().join("spt_cli_observability_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.out");
    let stats_path = dir.join("stats.json");

    let output = Command::new(env!("CARGO_BIN_EXE_run_spt"))
        .args([
            "--executable",
            "chacha20",
            "--enable-spt",
            "--untaint-method",
            "bwd",
            "--enable-shadow-l1",
            "--threat-model",
            "futuristic",
            "--seed",
            "5",
            "--budget",
            "2000",
            "--trace",
            trace_path.to_str().unwrap(),
            "--stats-json",
            stats_path.to_str().unwrap(),
        ])
        .output()
        .expect("run_spt spawns");
    assert!(
        output.status.success(),
        "run_spt failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("numCycles"), "stats.txt dump still printed:\n{stdout}");

    // The trace parses as strict O3PipeView and covers the whole budget.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let summary = parse_o3_trace(&trace).expect("trace is well-formed O3PipeView").summary();
    assert!(summary.retired >= 2000, "trace covers the retired budget");
    // `--trace` emits SPTEvent lines so the output is tracediff-ready; an
    // SPT config taints at least one destination register.
    assert!(summary.events > 0, "SPT trace carries SPTEvent lines");
    assert!(trace.contains("\nSPTEvent:taint:"), "taint events present");

    // The stats document parses, carries the schema tag, and agrees with
    // the stats.txt dump on the headline counter.
    let text = std::fs::read_to_string(&stats_path).expect("stats JSON written");
    let doc = Json::parse(&text).expect("stats JSON parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("spt-stats-v1"));
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some("chacha20"));
    validate(&doc, &[&RUN_DOC]).expect("stats document passes the schema checker");
    assert_eq!(doc.get("threat").and_then(Json::as_str), Some("futuristic"));
    assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(5));
    let cycles = doc
        .get("machine")
        .and_then(|m| m.get("cycles"))
        .and_then(Json::as_u64)
        .expect("machine.cycles present");
    let dumped: u64 = stdout
        .lines()
        .find(|l| l.starts_with("numCycles"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("numCycles line parses");
    assert_eq!(cycles, dumped, "JSON and stats.txt agree on cycle count");
    assert!(doc.get("telemetry").is_some(), "--stats-json enables telemetry histograms");
    let rob = doc
        .get("telemetry")
        .and_then(|t| t.get("rob_occupancy"))
        .expect("rob_occupancy histogram present");
    for key in ["p50", "p90", "p99"] {
        assert!(rob.get(key).and_then(Json::as_u64).is_some(), "histogram surfaces {key}");
    }
    let digest = doc.get("observation_digest").and_then(Json::as_str).expect("digest present");
    assert!(
        digest.len() == 16 && digest.chars().all(|c| c.is_ascii_hexdigit()),
        "digest is 16 hex chars: {digest}"
    );

    // Round-trip: re-serializing the parsed tree reproduces the document.
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc, "document round-trips");

    // The same configuration under the other threat model and the default
    // seed is told apart by the identity fields.
    let spectre_path = dir.join("spectre.json");
    let status = Command::new(env!("CARGO_BIN_EXE_run_spt"))
        .args(["--executable", "chacha20", "--enable-spt", "--untaint-method", "bwd"])
        .args(["--enable-shadow-l1", "--threat-model", "spectre", "--budget", "200"])
        .args(["--stats-json", spectre_path.to_str().unwrap()])
        .output()
        .expect("run_spt spawns")
        .status;
    assert!(status.success());
    let spectre = read_document(&spectre_path).expect("stats JSON written");
    validate(&spectre, &[&RUN_DOC]).expect("spectre document passes the schema checker");
    assert_eq!(spectre.get("config"), doc.get("config"));
    assert_eq!(spectre.get("threat").and_then(Json::as_str), Some("spectre"));
    assert_eq!(spectre.get("seed").and_then(Json::as_u64), Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_spt_refuses_contradictory_flags() {
    let run = |flags: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_run_spt"))
            .args(["--executable", "chacha20", "--budget", "100"])
            .args(flags)
            .output()
            .expect("run_spt spawns")
    };
    let refused: [(&[&str], &str); 7] = [
        (&["--enable-spt", "--enable-shadow-l1", "--enable-shadow-mem"], "mutually exclusive"),
        (&["--enable-shadow-l1"], "require --enable-spt"),
        (&["--enable-shadow-mem"], "require --enable-spt"),
        (&["--stt", "--enable-spt"], "--stt"),
        (&["--stt", "--untaint-method", "fwd"], "--stt"),
        (&["--untaint-method", "bwd"], "requires --enable-spt"),
        (&["--jobs", "2"], "usage"),
    ];
    for (flags, message) in refused {
        let out = run(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?} must exit 2:\n{stderr}");
        assert!(stderr.contains(message), "{flags:?} must say `{message}`:\n{stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} must not simulate");
    }
    for flags in [&["--stt"][..], &["--enable-spt", "--enable-shadow-mem"]] {
        assert!(run(flags).status.success(), "{flags:?} is a valid combination");
    }
}
