//! Versioned `spt-attrib-v1` JSON documents and human-readable reports.
//!
//! Two document kinds share the schema tag:
//!
//! * `"tracediff"` ([`diff_document`]) — one trace-pair diff: alignment
//!   quality, per-stage and per-cause totals, and the slowed
//!   instructions;
//! * `"fig7-accounting"` ([`accounting_document`]) — one accounted
//!   Figure-7 matrix: per-cell stacked components with the consistency
//!   verdict.
//!
//! [`TRACEDIFF_DOC`] and [`ACCOUNTING_DOC`] declare both shapes for
//! [`spt_util::schema::validate`], which the `validate` binary runs. Each
//! adds rules the shape cannot say: every stall has a positive delta (and,
//! by its shape, a named cause), and every accounting cell's stack sums to
//! its components and reproduces its delta within the document's own
//! tolerance.

use crate::accounting::AccountingReport;
use crate::diff::{StageDeltas, TraceDiff};
use spt_util::schema::{req, Schema, SchemaError, Shape};
use spt_util::Json;

/// Schema identifier stamped into every document this module emits.
pub const ATTRIB_SCHEMA: &str = "spt-attrib-v1";

fn stages_json(s: &StageDeltas) -> Json {
    Json::obj([
        ("fetch_to_dispatch", Json::I64(s.fetch_to_dispatch)),
        ("dispatch_to_issue", Json::I64(s.dispatch_to_issue)),
        ("issue_to_complete", Json::I64(s.issue_to_complete)),
        ("complete_to_retire", Json::I64(s.complete_to_retire)),
    ])
}

/// Builds the `"tracediff"` document. `trace_a`/`trace_b` label the
/// inputs; `max_stalls` caps the embedded stall list (the totals always
/// cover everything).
pub fn diff_document(d: &TraceDiff, trace_a: &str, trace_b: &str, max_stalls: usize) -> Json {
    let stalls = d
        .stalls
        .iter()
        .take(max_stalls)
        .map(|s| {
            Json::obj([
                ("rank", Json::U64(s.rank)),
                ("seq_a", Json::U64(s.seq_a)),
                ("seq_b", Json::U64(s.seq_b)),
                ("pc", Json::str(format!("0x{:x}", s.pc))),
                ("disasm", Json::str(&s.disasm)),
                ("delta", Json::I64(s.delta)),
                ("stages", stages_json(&s.stages)),
                ("cause", Json::str(s.cause.label())),
                ("detail", Json::str(&s.detail)),
            ])
        })
        .collect::<Vec<_>>();
    let causes = d
        .cause_totals
        .iter()
        .map(|&(cause, cycles, count)| {
            Json::obj([
                ("cause", Json::str(cause.label())),
                ("cycles", Json::U64(cycles)),
                ("instructions", Json::U64(count)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("schema", Json::str(ATTRIB_SCHEMA)),
        ("kind", Json::str("tracediff")),
        ("trace_a", Json::str(trace_a)),
        ("trace_b", Json::str(trace_b)),
        (
            "alignment",
            Json::obj([
                ("retired_a", Json::U64(d.alignment.retired_a as u64)),
                ("retired_b", Json::U64(d.alignment.retired_b as u64)),
                ("matched", Json::U64(d.alignment.pairs.len() as u64)),
                ("rate", Json::F64(d.alignment.rate())),
                ("pc_mismatches", Json::U64(d.alignment.pc_mismatches as u64)),
            ]),
        ),
        (
            "totals",
            Json::obj([
                ("cycles_a", Json::U64(d.cycles_a)),
                ("cycles_b", Json::U64(d.cycles_b)),
                ("latency_delta", Json::I64(d.total_delta)),
                ("improvement_cycles", Json::I64(d.improvement_cycles)),
                ("stages", stages_json(&d.stage_totals)),
                ("causes", Json::Arr(causes)),
            ]),
        ),
        ("stall_count", Json::U64(d.stalls.len() as u64)),
        ("stalls", Json::Arr(stalls)),
    ])
}

/// Builds the `"fig7-accounting"` document.
pub fn accounting_document(r: &AccountingReport) -> Json {
    let mut cells = Vec::with_capacity(r.workloads.len() * r.configs.len());
    for wrow in &r.cells {
        for c in wrow {
            cells.push(Json::obj([
                ("workload", Json::str(&c.workload)),
                ("config", Json::str(&c.config)),
                ("cycles", Json::U64(c.cycles)),
                ("retired", Json::U64(c.retired)),
                ("base_cycles", Json::U64(c.base_cycles)),
                ("delta", Json::I64(c.delta)),
                (
                    "components",
                    Json::obj([
                        ("transmitter_delay", Json::F64(c.transmitter_delay)),
                        ("resolution_delay", Json::F64(c.resolution_delay)),
                        ("backpressure", Json::F64(c.backpressure)),
                    ]),
                ),
                ("raw_transmitter_delay", Json::U64(c.raw_transmitter)),
                ("raw_resolution_delay", Json::U64(c.raw_resolution)),
                ("scale", Json::F64(c.scale)),
                ("stack_sum", Json::F64(c.stack_sum())),
                ("consistent", Json::Bool(c.consistent(r.tolerance))),
                (
                    "occupancy",
                    Json::obj([
                        ("rob_p50", Json::U64(c.rob_occ_p50)),
                        ("rob_p99", Json::U64(c.rob_occ_p99)),
                        ("xmit_delay_p99", Json::U64(c.xmit_delay_p99)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("schema", Json::str(ATTRIB_SCHEMA)),
        ("kind", Json::str("fig7-accounting")),
        ("threat", Json::str(r.threat.to_string())),
        ("budget", Json::U64(r.budget)),
        ("tolerance", Json::F64(r.tolerance)),
        ("consistent", Json::Bool(r.consistent())),
        ("worst_relative_error", Json::F64(r.worst_relative_error())),
        ("configs", Json::arr(r.configs.iter().map(Json::str))),
        ("workloads", Json::arr(r.workloads.iter().map(Json::str))),
        ("cells", Json::Arr(cells)),
    ])
}

const STAGES: Shape = Shape::Obj(&[req(
    "fetch_to_dispatch dispatch_to_issue issue_to_complete complete_to_retire",
    &Shape::Int,
)]);

const CAUSE: Shape =
    Shape::Obj(&[req("cause", &Shape::NonEmptyStr), req("cycles instructions", &Shape::Int)]);

const STALL: Shape = Shape::Obj(&[
    req("rank seq_a seq_b delta", &Shape::Int),
    req("pc cause", &Shape::NonEmptyStr),
    req("disasm detail", &Shape::Str),
    req("stages", &STAGES),
]);

/// The `"tracediff"` document: [`diff_document`]'s output.
pub static TRACEDIFF_DOC: Schema = Schema {
    tag: ATTRIB_SCHEMA,
    kind: Some("tracediff"),
    shape: Shape::Obj(&[
        req("trace_a trace_b", &Shape::Str),
        req(
            "alignment",
            &Shape::Obj(&[
                req("retired_a retired_b matched pc_mismatches", &Shape::Int),
                req("rate", &Shape::Num),
            ]),
        ),
        req(
            "totals",
            &Shape::Obj(&[
                req("cycles_a cycles_b latency_delta improvement_cycles", &Shape::Int),
                req("stages", &STAGES),
                req("causes", &Shape::Arr(&CAUSE)),
            ]),
        ),
        req("stall_count", &Shape::Int),
        req("stalls", &Shape::Arr(&STALL)),
    ]),
    rules: Some(stalls_are_slowdowns),
};

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or_default()
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn stalls_are_slowdowns(doc: &Json) -> Result<(), SchemaError> {
    for (i, s) in items(doc, "stalls").iter().enumerate() {
        let delta = num(s, "delta");
        if delta <= 0.0 {
            return Err(SchemaError::at(
                format!("stalls[{i}].delta"),
                format!("stall delta must be positive, got {delta}"),
            ));
        }
    }
    Ok(())
}

const CELL: Shape = Shape::Obj(&[
    req("workload config", &Shape::NonEmptyStr),
    req("cycles retired base_cycles delta raw_transmitter_delay raw_resolution_delay", &Shape::Int),
    req("components", &Shape::Obj(&[req(COMPONENTS, &Shape::Num)])),
    req("scale stack_sum", &Shape::Num),
    req("consistent", &Shape::Bool),
    req("occupancy", &Shape::Obj(&[req("rob_p50 rob_p99 xmit_delay_p99", &Shape::Int)])),
]);

const COMPONENTS: &str = "transmitter_delay resolution_delay backpressure";

/// The `"fig7-accounting"` document: [`accounting_document`]'s output.
pub static ACCOUNTING_DOC: Schema = Schema {
    tag: ATTRIB_SCHEMA,
    kind: Some("fig7-accounting"),
    shape: Shape::Obj(&[
        req("threat", &Shape::NonEmptyStr),
        req("budget", &Shape::Int),
        req("tolerance worst_relative_error", &Shape::Num),
        req("consistent", &Shape::Bool),
        req("configs workloads", &Shape::Arr(&Shape::NonEmptyStr)),
        req("cells", &Shape::NonEmptyArr(&CELL)),
    ]),
    rules: Some(stacks_add_up),
};

fn stacks_add_up(doc: &Json) -> Result<(), SchemaError> {
    let tol = num(doc, "tolerance");
    for (i, c) in items(doc, "cells").iter().enumerate() {
        let at = |key: &str| format!("cells[{i}].{key}");
        let comp = c.get("components").unwrap_or(&Json::Null);
        let stack: f64 = COMPONENTS.split_whitespace().map(|key| num(comp, key)).sum();
        let recorded = num(c, "stack_sum");
        if (stack - recorded).abs() > 1e-6 {
            return Err(SchemaError::at(
                at("stack_sum"),
                format!("components sum {stack} != stack_sum {recorded}"),
            ));
        }
        let delta = num(c, "delta");
        let err = (stack - delta).abs() / delta.abs().max(1.0);
        if err > tol {
            return Err(SchemaError::at(
                at("delta"),
                format!(
                    "stack {stack:.1} misses measured delta {delta} by {:.1}% (> {:.1}%)",
                    err * 100.0,
                    tol * 100.0
                ),
            ));
        }
        if c.get("consistent").and_then(Json::as_bool) != Some(true) {
            return Err(SchemaError::at(at("consistent"), "consistency flag is not true"));
        }
    }
    Ok(())
}

/// Renders the human-readable top-N stall report for `tracediff`.
pub fn render_diff_report(d: &TraceDiff, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "aligned {}/{} retired instructions ({:.2}% — {} PC mismatches)",
        d.alignment.pairs.len(),
        d.alignment.retired_a.max(d.alignment.retired_b),
        d.alignment.rate() * 100.0,
        d.alignment.pc_mismatches
    );
    let _ = writeln!(
        out,
        "cycles: {} -> {} (end-to-end {:+}); summed per-instruction latency delta {:+} \
         ({:+} from speedups)",
        d.cycles_a,
        d.cycles_b,
        d.cycles_b as i64 - d.cycles_a as i64,
        d.total_delta,
        d.improvement_cycles
    );
    let _ = writeln!(out, "\nper-cause totals (slowed instructions only):");
    for &(cause, cycles, count) in &d.cause_totals {
        let _ = writeln!(out, "  {:<20} {:>10} cycles  {:>8} insts", cause.label(), cycles, count);
    }
    let s = &d.stage_totals;
    let _ = writeln!(
        out,
        "\nper-stage totals: fetch->dispatch {:+}, dispatch->issue {:+}, \
         issue->complete {:+}, complete->retire {:+}",
        s.fetch_to_dispatch, s.dispatch_to_issue, s.issue_to_complete, s.complete_to_retire
    );
    if d.stalls.is_empty() {
        let _ = writeln!(out, "\nno slowed instructions — traces are cycle-identical");
        return out;
    }
    let _ = writeln!(out, "\ntop {} stalls:", top.min(d.stalls.len()));
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>18} {:>7}  {:<20} detail",
        "rank", "seq_b", "pc", "delta", "cause"
    );
    for stall in d.stalls.iter().take(top) {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>18} {:>+7}  {:<20} {}",
            stall.rank,
            stall.seq_b,
            format!("0x{:x}", stall.pc),
            stall.delta,
            stall.cause.label(),
            stall.detail
        );
    }
    out
}

/// Renders the human-readable per-cell accounting table for
/// `fig7_attrib`.
pub fn render_accounting(r: &AccountingReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<22} {:>9} {:>8} {:>10} {:>10} {:>10} {:>7}",
        "workload", "config", "cycles", "delta", "xmit", "resolve", "backpress", "ok"
    );
    for wrow in &r.cells {
        for c in wrow {
            let _ = writeln!(
                out,
                "{:<14} {:<22} {:>9} {:>+8} {:>10.1} {:>10.1} {:>10.1} {:>7}",
                c.workload,
                c.config,
                c.cycles,
                c.delta,
                c.transmitter_delay,
                c.resolution_delay,
                c.backpressure,
                if c.consistent(r.tolerance) { "yes" } else { "NO" }
            );
        }
    }
    let _ = writeln!(
        out,
        "\nstack-sum check: worst relative error {:.3}% (tolerance {:.1}%) — {}",
        r.worst_relative_error() * 100.0,
        r.tolerance * 100.0,
        if r.consistent() { "consistent" } else { "INCONSISTENT" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_traces;
    use spt_util::schema::validate;
    use spt_util::trace::{OwnedInstRecord, ParsedEvent, ParsedTrace, SptTraceEvent};

    fn rec(seq: u64, pc: u64, issue: u64, complete: u64, retire: u64) -> OwnedInstRecord {
        OwnedInstRecord {
            seq,
            pc,
            disasm: "ld".into(),
            fetch_cycle: 0,
            rename_cycle: 1,
            issue_cycle: Some(issue),
            complete_cycle: Some(complete),
            retire_cycle: Some(retire),
        }
    }

    fn sample_diff() -> TraceDiff {
        let a = ParsedTrace { records: vec![rec(1, 0x40, 2, 4, 6)], events: vec![] };
        let b = ParsedTrace {
            records: vec![rec(1, 0x40, 7, 9, 11)],
            events: vec![ParsedEvent {
                cycle: 5,
                after_block: 0,
                event: SptTraceEvent::TransmitterDelayed { seq: 1, pc: 0x40 },
            }],
        };
        diff_traces(&a, &b)
    }

    fn kind_of(doc: &Json) -> Result<&'static str, SchemaError> {
        validate(doc, &[&TRACEDIFF_DOC, &ACCOUNTING_DOC]).map(|s| s.kind.unwrap_or_default())
    }

    #[test]
    fn diff_document_validates_and_roundtrips() {
        let doc = diff_document(&sample_diff(), "a.trace", "b.trace", 50);
        assert_eq!(kind_of(&doc).unwrap(), "tracediff");
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(kind_of(&back).unwrap(), "tracediff");
        assert_eq!(back.get("stall_count").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn tampered_stall_fails_validation() {
        let mut doc = diff_document(&sample_diff(), "a", "b", 50);
        // Force a non-positive stall delta through re-parse surgery.
        let mut text = doc.to_string();
        text = text.replace("\"delta\":5", "\"delta\":-5");
        doc = Json::parse(&text).unwrap();
        let err = kind_of(&doc).unwrap_err();
        assert!(err.message.contains("positive"), "unexpected error: {err}");
        assert_eq!(err.path, "stalls[0].delta");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = Json::obj([("schema", Json::str("nope")), ("kind", Json::str("tracediff"))]);
        let err = kind_of(&doc).unwrap_err();
        assert!(err.message.contains("unknown schema"), "unexpected error: {err}");
        assert_eq!(err.path, "schema");
    }

    #[test]
    fn report_renders_causes_and_stalls() {
        let text = render_diff_report(&sample_diff(), 10);
        assert!(text.contains("delayed-transmitter"));
        assert!(text.contains("top 1 stalls"));
        assert!(text.contains("0x40"));
    }
}
