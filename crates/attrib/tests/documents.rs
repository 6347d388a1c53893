//! One table over every JSON document kind the workspace writes, checked
//! by the one schema checker against `spt_attrib::DOCUMENTS`:
//!
//! * a freshly emitted document passes;
//! * deleting any required key, or giving any declared value the wrong
//!   JSON type, fails with that key's path;
//! * each rule beyond the shape (tags, positive throughputs, non-empty
//!   lists, positive stall deltas with named causes, integral stage
//!   deltas, stack sums, tolerance, consistency flags) has a failing case.

use spt_attrib::{account_matrix, accounting_document, diff_document, diff_traces};
use spt_attrib::{AccountingOptions, DOCUMENTS};
use spt_bench::reproduce::{CellStore, Plan};
use spt_bench::runner::{bench_suite, prepare_machine, run_prepared, SweepOptions};
use spt_bench::simbench::{self, SimbenchOptions};
use spt_bench::statsdoc::{rows_document, run_document};
use spt_core::{Config, ThreatModel};
use spt_util::schema::{validate, Schema, SchemaError, Shape};
use spt_util::{parse_o3_trace, Json, O3PipeViewSink};
use spt_workloads::Workload;
use std::sync::OnceLock;

const BUDGET: u64 = 500;

fn workload(suite: &[Workload], name: &str) -> Workload {
    suite.iter().find(|w| w.name == name).expect("workload in suite").clone()
}

fn traced(w: &Workload, cfg: Config, name: &str) -> spt_util::ParsedTrace {
    let path = std::env::temp_dir().join(format!("spt-documents-{}-{name}", std::process::id()));
    let mut m = prepare_machine(w, cfg);
    let file = std::fs::File::create(&path).expect("trace file");
    m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    run_prepared(&mut m, w, cfg, BUDGET).expect("run completes");
    m.take_trace_sink().expect("sink attached").flush().expect("trace flushed");
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    parse_o3_trace(&text).expect("trace parses")
}

/// One freshly emitted document of every kind, under its expected name;
/// built once for both tests.
fn fresh_documents() -> &'static [(&'static str, Json)] {
    static DOCS: OnceLock<Vec<(&'static str, Json)>> = OnceLock::new();
    DOCS.get_or_init(emit_documents)
}

fn emit_documents() -> Vec<(&'static str, Json)> {
    let suite = bench_suite();
    let (chacha, mcf) = (workload(&suite, "chacha20"), workload(&suite, "mcf"));
    let spt = Config::spt_full(ThreatModel::Futuristic);
    let base = Config::unsafe_baseline(ThreatModel::Futuristic);

    let mut m = prepare_machine(&chacha, spt);
    m.enable_telemetry();
    run_prepared(&mut m, &chacha, spt, BUDGET).expect("run completes");
    let run = run_document(&m, chacha.name, spt.name(), BUDGET);

    let mut plan = Plan::default();
    plan.add(chacha.name, base);
    plan.add(mcf.name, spt);
    let store = CellStore::simulate(plan, &suite, SweepOptions::new(BUDGET)).expect("cells run");
    let rows = rows_document(&store);

    let m =
        simbench::measure(SimbenchOptions { budget: 300, iters: 1, jobs: 2, ..Default::default() })
            .expect("simbench runs");
    let measured = simbench::document(&m);
    let compared = simbench::with_baseline(measured.clone(), &measured).expect("self-comparison");

    let diff = diff_traces(&traced(&mcf, base, "base"), &traced(&mcf, spt, "spt"));
    assert!(!diff.stalls.is_empty(), "SPT slows some mcf instruction");
    let tracediff = diff_document(&diff, "base.trace", "spt.trace", 20);

    let opts = AccountingOptions { budget: 1_000, jobs: 2, verbose: false, tolerance: 0.05 };
    let report = account_matrix(ThreatModel::Spectre, &[mcf], opts).expect("sweep completes");
    let accounting = accounting_document(&report);

    vec![
        ("spt-stats-v1 (run)", run),
        ("spt-stats-v1 (rows)", rows),
        ("spt-simbench-v1", measured),
        ("spt-simbench-v1", compared),
        ("spt-attrib-v1 (tracediff)", tracediff),
        ("spt-attrib-v1 (fig7-accounting)", accounting),
    ]
}

fn check(doc: &Json) -> Result<&'static Schema, SchemaError> {
    validate(doc, &DOCUMENTS)
}

fn child(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

/// The value at a checker path such as `configs[2].workloads[0].cycles`.
fn at<'a>(doc: &'a mut Json, path: &str) -> &'a mut Json {
    let mut v = doc;
    for part in path.split('.') {
        let mut pieces = part.split('[');
        let key = pieces.next().expect("split yields one piece");
        if !key.is_empty() {
            let Json::Obj(pairs) = v else { panic!("{path}: `{key}` is not in an object") };
            v = &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key present").1;
        }
        for index in pieces {
            let i: usize = index.trim_end_matches(']').parse().expect("array index");
            let Json::Arr(items) = v else { panic!("{path}: [{i}] is not in an array") };
            v = &mut items[i];
        }
    }
    v
}

fn deleted(doc: &Json, path: &str) -> Json {
    let mut doc = doc.clone();
    let (parent, key) = path.rsplit_once('.').unwrap_or(("", path));
    let parent = if parent.is_empty() { &mut doc } else { at(&mut doc, parent) };
    let Json::Obj(pairs) = parent else { panic!("{path}: parent is not an object") };
    pairs.retain(|(k, _)| k != key);
    doc
}

fn replaced(doc: &Json, path: &str, value: Json) -> Json {
    let mut doc = doc.clone();
    *at(&mut doc, path) = value;
    doc
}

/// A value of a JSON type the shape does not accept.
fn wrong_type(shape: &Shape) -> Json {
    match shape {
        Shape::Int | Shape::Num | Shape::Positive => Json::str("1"),
        Shape::Str | Shape::NonEmptyStr | Shape::Hex16 => Json::U64(1),
        Shape::Bool => Json::str("true"),
        Shape::Arr(_) | Shape::NonEmptyArr(_) => Json::obj::<&str>([]),
        Shape::Obj(_) | Shape::Map(_) => Json::arr([]),
    }
}

/// Every mutation the shape makes detectable: `(path, required, shape)`
/// for each declared value present in `v`.
fn declared<'s>(shape: &'s Shape, v: &Json, path: &str, out: &mut Vec<(String, bool, &'s Shape)>) {
    match shape {
        Shape::Obj(fields) => {
            for f in *fields {
                for key in f.keys.split_whitespace() {
                    if let Some(x) = v.get(key) {
                        let p = child(path, key);
                        out.push((p.clone(), f.required, f.shape));
                        declared(f.shape, x, &p, out);
                    }
                }
            }
        }
        Shape::Map(inner) => {
            if let Json::Obj(pairs) = v {
                for (k, x) in pairs {
                    let p = child(path, k);
                    out.push((p.clone(), false, inner));
                    declared(inner, x, &p, out);
                }
            }
        }
        Shape::Arr(inner) | Shape::NonEmptyArr(inner) => {
            for (i, x) in v.as_arr().unwrap_or_default().iter().enumerate() {
                let p = format!("{path}[{i}]");
                out.push((p.clone(), false, inner));
                declared(inner, x, &p, out);
            }
        }
        _ => {}
    }
}

fn fails_at(doc: &Json, path: &str, message: &str) {
    match check(doc) {
        Ok(s) => panic!("accepted as {} despite a broken `{path}`", s.name()),
        Err(e) => {
            assert_eq!(e.path, path, "wrong path in `{e}`");
            assert!(e.message.contains(message), "`{e}` does not say `{message}`");
        }
    }
}

#[test]
fn every_document_kind_is_checked_field_by_field() {
    let docs = fresh_documents();
    for (name, doc) in docs {
        let schema = check(doc).unwrap_or_else(|e| panic!("fresh {name} rejected: {e}"));
        assert_eq!(schema.name(), *name);
        let back = Json::parse(&doc.to_string_pretty()).expect("round-trips");
        assert_eq!(check(&back).expect("reparsed document passes").name(), *name);

        let mut tags = vec!["schema"];
        tags.extend(schema.kind.map(|_| "kind"));
        for tag in tags {
            fails_at(&deleted(doc, tag), tag, "missing required key");
            fails_at(&replaced(doc, tag, Json::U64(1)), tag, "expected a string");
            fails_at(&replaced(doc, tag, Json::str("spt-other-v9")), tag, "unknown");
        }

        let mut cases = Vec::new();
        declared(&schema.shape, doc, "", &mut cases);
        let required = cases.iter().filter(|c| c.1).count();
        assert!(required >= 5, "{name}: only {required} required keys declared");
        for (path, required, shape) in &cases {
            if *required {
                fails_at(&deleted(doc, path), path, "missing required key");
            }
            fails_at(&replaced(doc, path, wrong_type(shape)), path, "expected");
        }
    }
    // Every declared schema was exercised.
    for s in DOCUMENTS {
        assert!(docs.iter().any(|(name, _)| *name == s.name()), "no fresh {}", s.name());
    }
}

#[test]
fn every_rule_beyond_the_shape_can_fail() {
    let docs = fresh_documents();
    let doc = |name: &str| &docs.iter().find(|(n, _)| *n == name).expect("kind emitted").1;

    let run = doc("spt-stats-v1 (run)");
    fails_at(
        &replaced(run, "observation_digest", Json::str("f729824577")),
        "observation_digest",
        "hex",
    );
    fails_at(&replaced(run, "workload", Json::str("")), "workload", "must not be empty");
    let rows = doc("spt-stats-v1 (rows)");
    fails_at(&replaced(rows, "cells", Json::arr([])), "cells", "must not be empty");
    assert_eq!(rows.get("budget").and_then(Json::as_u64), Some(BUDGET));
    assert_eq!(rows.get("seed").and_then(Json::as_u64), Some(0));
    for key in ["seed", "budget"] {
        fails_at(&deleted(rows, key), key, "missing required key");
        fails_at(&replaced(rows, key, Json::str("0")), key, "expected");
    }

    let sim = doc("spt-simbench-v1");
    for (path, value) in [
        ("configs[0].geomean_sim_cycles_per_sec", Json::F64(0.0)),
        ("configs[1].geomean_retired_per_sec", Json::F64(-2.0)),
        ("configs[3].workloads[9].best_secs", Json::F64(0.0)),
        ("configs[2].workloads[0].cycles", Json::I64(-1)),
        ("configs[0].workloads[4].sim_cycles_per_sec", Json::F64(-1e6)),
    ] {
        fails_at(&replaced(sim, path, value), path, "finite and positive");
    }
    fails_at(&replaced(sim, "configs", Json::arr([])), "configs", "must not be empty");
    fails_at(
        &replaced(sim, "configs[1].workloads", Json::arr([])),
        "configs[1].workloads",
        "must not be empty",
    );
    let compared = &docs.iter().filter(|(n, _)| *n == "spt-simbench-v1").nth(1).unwrap().1;
    let path = "baseline.configs[0].workloads[0].retired_per_sec";
    fails_at(&replaced(compared, path, Json::F64(0.0)), path, "finite and positive");
    assert!(simbench::with_baseline(sim.clone(), &replaced(sim, "configs", Json::arr([])))
        .is_err_and(|e| e.path == "baseline.configs"));

    let diff = doc("spt-attrib-v1 (tracediff)");
    for delta in [Json::U64(0), Json::I64(-5)] {
        fails_at(&replaced(diff, "stalls[0].delta", delta), "stalls[0].delta", "positive");
    }
    fails_at(&replaced(diff, "stalls[0].cause", Json::str("")), "stalls[0].cause", "empty");
    for stage in
        ["fetch_to_dispatch", "dispatch_to_issue", "issue_to_complete", "complete_to_retire"]
    {
        for parent in ["stalls[0].stages", "totals.stages"] {
            let path = format!("{parent}.{stage}");
            fails_at(&replaced(diff, &path, Json::F64(1.5)), &path, "expected an integer");
        }
    }

    let acc = doc("spt-attrib-v1 (fig7-accounting)");
    let cells = acc.get("cells").and_then(Json::as_arr).expect("cells");
    let i = cells.iter().position(|c| c.get("delta").and_then(Json::as_i64) != Some(0));
    let i = i.expect("some SPT cell is slower than the baseline");
    let cell = |key: &str| format!("cells[{i}].{key}");
    let stack_sum = cells[i].get("stack_sum").and_then(Json::as_f64).unwrap();
    fails_at(
        &replaced(acc, &cell("stack_sum"), Json::F64(stack_sum + 1e-3)),
        &cell("stack_sum"),
        "!= stack_sum",
    );
    let delta = cells[i].get("delta").and_then(Json::as_i64).unwrap() as f64;
    let far = 2.0 * delta.abs() + 10.0;
    let mut skewed = replaced(acc, &cell("stack_sum"), Json::F64(far));
    *at(&mut skewed, &cell("components")) = Json::obj([
        ("transmitter_delay", Json::F64(far)),
        ("resolution_delay", Json::F64(0.0)),
        ("backpressure", Json::F64(0.0)),
    ]);
    fails_at(&skewed, &cell("delta"), "misses measured delta");
    fails_at(
        &replaced(acc, &cell("consistent"), Json::Bool(false)),
        &cell("consistent"),
        "not true",
    );
    fails_at(&replaced(acc, "cells", Json::arr([])), "cells", "must not be empty");
    fails_at(&replaced(acc, "kind", Json::str("tracediff")), "trace_a", "missing required key");
}
