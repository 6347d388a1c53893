//! End-to-end trace-diff coverage: generate two `run_spt --trace`-style
//! traces of the same workload (UnsafeBaseline vs the full SPT design),
//! diff them with the real `tracediff` binary, and check the acceptance
//! invariants — ≥99% alignment, at least one transmitter-delay-attributed
//! stall for SPT, a zero-delta self-diff, and an `spt-attrib-v1` JSON
//! document that the `validate` binary accepts. Traces of two different
//! input seeds fall below the alignment floor and write no document.

use spt_attrib::{diff_traces, StallCause};
use spt_bench::runner::{prepare_machine, run_prepared};
use spt_core::{Config, ThreatModel};
use spt_util::{parse_o3_trace, Json, O3PipeViewSink};
use spt_workloads::{full_suite, Scale, Workload};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

const BUDGET: u64 = 3_000;

fn workload() -> Workload {
    workload_seeded(0)
}

/// mcf built with input seed `seed`: the paper's pointer-chasing proxy,
/// whose load-to-load chains keep transmitters tainted long enough that
/// SPT reliably delays them. The seed is process-global, so every
/// workload is built under one lock.
fn workload_seeded(seed: u64) -> Workload {
    static SEED_LOCK: Mutex<()> = Mutex::new(());
    let _guard = SEED_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    spt_workloads::set_input_seed(seed);
    let suite = full_suite(Scale::Bench);
    spt_workloads::set_input_seed(0);
    suite.into_iter().find(|w| w.name == "mcf").expect("mcf in suite")
}

fn trace_to_file(w: &Workload, cfg: Config, path: &PathBuf) {
    let file = std::fs::File::create(path).expect("create trace file");
    let mut m = prepare_machine(w, cfg);
    m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    run_prepared(&mut m, w, cfg, BUDGET).expect("run completes");
    m.take_trace_sink().expect("sink attached").flush().expect("trace flushed");
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spt-attrib-{}-{name}", std::process::id()))
}

#[test]
fn tracediff_attributes_spt_stalls_end_to_end() {
    let w = workload();
    let base_path = temp("base.trace");
    let spt_path = temp("spt.trace");
    trace_to_file(&w, Config::unsafe_baseline(ThreatModel::Futuristic), &base_path);
    trace_to_file(&w, Config::spt_full(ThreatModel::Futuristic), &spt_path);

    // Library-level checks on the same pair the binary will see.
    let base = parse_o3_trace(&std::fs::read_to_string(&base_path).unwrap()).expect("base parses");
    let spt = parse_o3_trace(&std::fs::read_to_string(&spt_path).unwrap()).expect("spt parses");
    assert!(spt.summary().events > 0, "SPT trace carries SPTEvent lines");
    let diff = diff_traces(&base, &spt);
    assert!(
        diff.alignment.rate() >= 0.99,
        "alignment rate {} below the 99% acceptance floor",
        diff.alignment.rate()
    );
    assert!(
        diff.cause_count(StallCause::TransmitterDelay) + diff.cause_count(StallCause::ShadowL1Wait)
            >= 1,
        "expected at least one transmitter-delay-attributed stall under SPT"
    );
    // Every slowed instruction carries a named cause by construction; spot
    // check the totals are non-trivial.
    assert!(diff.total_delta > 0, "SPT should cost cycles on mcf");

    // Binary end-to-end: report + JSON document + self-validation.
    let json_path = temp("diff.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tracediff"))
        .args([
            base_path.to_str().unwrap(),
            spt_path.to_str().unwrap(),
            "--top",
            "5",
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("tracediff runs");
    assert!(out.status.success(), "tracediff failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8 report");
    assert!(stdout.contains("delayed-transmitter"), "report names the cause:\n{stdout}");
    assert!(stdout.contains("top 5 stalls"), "report has the top-N table:\n{stdout}");

    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).expect("doc parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("spt-attrib-v1"));
    assert!(doc.get("stall_count").and_then(Json::as_u64).unwrap() >= 1);

    let validated = Command::new(env!("CARGO_BIN_EXE_validate"))
        .arg(&json_path)
        .output()
        .expect("validate runs");
    assert!(
        validated.status.success(),
        "validate rejected the document: {}",
        String::from_utf8_lossy(&validated.stderr)
    );
    let verdict = String::from_utf8_lossy(&validated.stdout);
    assert!(verdict.contains("valid spt-attrib-v1 (tracediff)"), "{verdict}");

    for p in [&base_path, &spt_path, &json_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn self_diff_reports_zero_deltas() {
    let w = workload();
    let path = temp("self.trace");
    trace_to_file(&w, Config::spt_full(ThreatModel::Futuristic), &path);

    let t = parse_o3_trace(&std::fs::read_to_string(&path).unwrap()).expect("parses");
    let diff = diff_traces(&t, &t);
    assert_eq!(diff.total_delta, 0, "self-diff must be cycle-identical");
    assert!(diff.stalls.is_empty(), "self-diff must report no stalls");
    assert!((diff.alignment.rate() - 1.0).abs() < 1e-12);
    for cause in spt_attrib::diff::ALL_CAUSES {
        assert_eq!(diff.cause_cycles(cause), 0, "{} cycles in a self-diff", cause.label());
    }

    // And through the binary, which also exercises the alignment gate.
    let out = Command::new(env!("CARGO_BIN_EXE_tracediff"))
        .args([path.to_str().unwrap(), path.to_str().unwrap()])
        .output()
        .expect("tracediff runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("no slowed instructions"), "self-diff report:\n{stdout}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn misaligned_traces_write_no_document() {
    let cfg = Config::unsafe_baseline(ThreatModel::Futuristic);
    let paths = [temp("seed0.trace"), temp("seed1.trace")];
    for (seed, path) in paths.iter().enumerate() {
        trace_to_file(&workload_seeded(seed as u64), cfg, path);
    }
    let json_path = temp("misaligned.json");
    let out = Command::new(env!("CARGO_BIN_EXE_tracediff"))
        .args([paths[0].to_str().unwrap(), paths[1].to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("tracediff runs");
    assert_eq!(out.status.code(), Some(1), "traces of different seeds must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("below --min-align"), "{stderr}");
    assert!(!json_path.exists(), "a rejected diff wrote {}", json_path.display());

    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
}
