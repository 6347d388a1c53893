//! End-to-end check of `run_spt --trace --stats-json`: the binary must
//! produce a Konata-loadable O3PipeView trace and an `spt-stats-v1` JSON
//! document that round-trips through the `spt-util` parser.

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

    let _ = std::fs::remove_dir_all(&dir);
}
