//! Versioned JSON stats documents (`--stats-json`).
//!
//! Two document shapes share the `spt-stats-v1` schema tag:
//!
//! * [`run_document`] — one simulation: run identity, every machine / SPT /
//!   cache / TLB / frontend counter, the optional telemetry histograms, and
//!   the attacker-observation digest (hex, so the full 64 bits survive
//!   consumers that parse numbers as doubles);
//! * [`rows_document`] — one `reproduce` pass: its workload input seed and
//!   budget, then identity, cycles, retired count and headline counters of
//!   every simulated cell.
//!
//! Serialization is `spt_util::Json` (hand-rolled; the workspace is
//! offline), so documents round-trip exactly through `Json::parse`.
//!
//! # Schema history
//!
//! `spt-stats-v1` is additive-stable: consumers must ignore unknown keys.
//! Additions so far (no version bump — strictly new fields):
//!
//! * telemetry histograms now carry `p50`/`p90`/`p99` summary fields
//!   (bucket-upper-bound estimates, clamped to the observed max) next to
//!   `mean`/`max`;
//! * rows-document cells carry `broadcast_width`, which tells the
//!   width-ablation cells of one configuration apart;
//! * both documents carry `kind` (`"run"` or `"rows"`), which tells the
//!   two shapes apart for the checker;
//! * the run document carries `threat` (the threat model, which `config`
//!   does not name) and `seed` (the workload input seed), so runs that
//!   differ only in those no longer share one identity;
//! * the rows document carries `seed` and `budget`, which change every
//!   cell, so two passes that differ only in those no longer share one
//!   identity.
//!
//! [`RUN_DOC`] and [`ROWS_DOC`] declare both shapes for
//! [`spt_util::schema::validate`]. They require every field the writers
//! emit, so a document written before `kind`, `threat`, `seed` and
//! `budget` existed does not pass, and they allow unknown keys.
//!
//! A removal or meaning change of an existing field would require bumping
//! to `spt-stats-v2`. The per-model matrix document of the former
//! Figure-7 binary is gone: its cells are all in the rows document.

use crate::reproduce::CellStore;
use crate::runner::RunRow;
use spt_mem::CacheStats;
use spt_ooo::Machine;
use spt_util::schema::{opt, req, Schema, Shape};
use spt_util::Json;

/// Schema identifier stamped into every document this module emits.
pub const STATS_SCHEMA: &str = "spt-stats-v1";

fn cache_json(s: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::U64(s.hits)),
        ("misses", Json::U64(s.misses)),
        ("miss_rate", Json::F64(s.miss_rate())),
        ("evictions", Json::U64(s.evictions)),
        ("writebacks", Json::U64(s.writebacks)),
        ("mshr_rejections", Json::U64(s.mshr_rejections)),
    ])
}

const CACHE: Shape = Shape::Obj(&[
    req("hits misses evictions writebacks mshr_rejections", &Shape::Int),
    req("miss_rate", &Shape::Num),
]);

const BUCKETS: Shape = Shape::Arr(&Shape::Obj(&[req("lo hi count", &Shape::Int)]));

const HISTOGRAM: Shape = Shape::Obj(&[
    req("kind", &Shape::NonEmptyStr),
    req("samples sum max p50 p90 p99", &Shape::Int),
    req("mean", &Shape::Num),
    req("buckets", &BUCKETS),
]);

const MACHINE: Shape = Shape::Obj(&[
    req("cycles retired fetched squashes branch_mispredicts indirect_mispredicts", &Shape::Int),
    req("retired_branches mem_violations stl_forwards", &Shape::Int),
    req("transmitter_delay_cycles resolution_delay_cycles", &Shape::Int),
    req("ipc mispredict_rate", &Shape::Num),
    req("spt", &SPT),
]);

const SPT: Shape = Shape::Obj(&[
    req("untaint_events", &Shape::Map(&Shape::Int)),
    req("untaint_events_total untainting_cycles broadcasts_deferred", &Shape::Int),
    req("untaints_per_cycle_hist", &Shape::Arr(&Shape::Int)),
]);

const PREDICTIONS: &str = "cond_predictions direct_predictions indirect_predictions \
                           ras_predictions total_predictions";

/// The run document: [`run_document`]'s output.
pub static RUN_DOC: Schema = Schema {
    tag: STATS_SCHEMA,
    kind: Some("run"),
    shape: Shape::Obj(&[
        req("workload config threat", &Shape::NonEmptyStr),
        req("seed budget", &Shape::Int),
        req("machine", &MACHINE),
        req("caches", &Shape::Obj(&[req("l1d l2 l3 l1i", &CACHE)])),
        req("dtlb", &Shape::Obj(&[req("hits misses", &Shape::Int)])),
        req("frontend", &Shape::Obj(&[req(PREDICTIONS, &Shape::Int)])),
        req("observation_digest", &Shape::Hex16),
        opt("telemetry", &Shape::Map(&HISTOGRAM)),
    ]),
    rules: None,
};

/// The rows document: [`rows_document`]'s output.
pub static ROWS_DOC: Schema = Schema {
    tag: STATS_SCHEMA,
    kind: Some("rows"),
    shape: Shape::Obj(&[
        req("seed budget", &Shape::Int),
        req(
            "cells",
            &Shape::NonEmptyArr(&Shape::Obj(&[
                req("workload config threat", &Shape::NonEmptyStr),
                req("cycles retired broadcast_width untaint_events_total", &Shape::Int),
                req("transmitter_delay_cycles resolution_delay_cycles", &Shape::Int),
                req("ipc", &Shape::Num),
            ])),
        ),
    ]),
    rules: None,
};

/// Builds the single-run stats document for a finished machine.
///
/// `workload` and `config` identify the run, with the machine's threat
/// model and the workload input seed; the digest is read from the
/// machine, so call this *after* `Machine::run`.
pub fn run_document(m: &Machine, workload: &str, config: &str, budget: u64) -> Json {
    let stats = m.stats();
    let fe = m.frontend_stats();
    let (dtlb_hits, dtlb_misses) = m.dtlb_stats();
    let mut doc = Json::obj([
        ("schema", Json::str(STATS_SCHEMA)),
        ("kind", Json::str("run")),
        ("workload", Json::str(workload)),
        ("config", Json::str(config)),
        ("threat", Json::str(m.protection().threat.to_string())),
        ("seed", Json::U64(spt_workloads::input_seed())),
        ("budget", Json::U64(budget)),
        ("machine", stats.to_json()),
        (
            "caches",
            Json::obj([
                ("l1d", cache_json(m.mem().l1().stats())),
                ("l2", cache_json(m.mem().l2().stats())),
                ("l3", cache_json(m.mem().l3().stats())),
                ("l1i", cache_json(m.icache_stats())),
            ]),
        ),
        ("dtlb", Json::obj([("hits", Json::U64(dtlb_hits)), ("misses", Json::U64(dtlb_misses))])),
        (
            "frontend",
            Json::obj([
                ("cond_predictions", Json::U64(fe.cond_predictions)),
                ("direct_predictions", Json::U64(fe.direct_predictions)),
                ("indirect_predictions", Json::U64(fe.indirect_predictions)),
                ("ras_predictions", Json::U64(fe.ras_predictions)),
                ("total_predictions", Json::U64(fe.total())),
            ]),
        ),
        ("observation_digest", Json::str(format!("{:016x}", m.observation_digest()))),
    ]);
    if let Some(t) = m.telemetry() {
        doc.push("telemetry", t.to_json());
    }
    doc
}

fn row_json(cell: &RunRow) -> Json {
    Json::obj([
        ("workload", Json::str(&cell.workload)),
        ("config", Json::str(&cell.config)),
        ("threat", Json::str(cell.threat.to_string())),
        ("cycles", Json::U64(cell.cycles)),
        ("retired", Json::U64(cell.retired)),
        ("ipc", Json::F64(cell.stats.ipc())),
        ("transmitter_delay_cycles", Json::U64(cell.stats.transmitter_delay_cycles)),
        ("resolution_delay_cycles", Json::U64(cell.stats.resolution_delay_cycles)),
        ("untaint_events_total", Json::U64(cell.stats.spt.events.total())),
    ])
}

/// Builds the sweep stats document for every cell of a store, in plan
/// order, under the store's workload input seed and budget.
pub fn rows_document(store: &CellStore) -> Json {
    let cells = store.plan().cells().iter().zip(store.rows()).map(|((_, cfg), row)| {
        let mut cell = row_json(row);
        cell.push("broadcast_width", Json::U64(cfg.broadcast_width as u64));
        cell
    });
    Json::obj([
        ("schema", Json::str(STATS_SCHEMA)),
        ("kind", Json::str("rows")),
        ("seed", Json::U64(store.seed)),
        ("budget", Json::U64(store.budget)),
        ("cells", Json::arr(cells)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{prepare_machine, run_prepared};
    use spt_core::{Config, ThreatModel};
    use spt_util::schema::validate;
    use spt_workloads::Scale;

    #[test]
    fn run_document_roundtrips_and_carries_digest() {
        let w = &spt_workloads::ct_suite(Scale::Bench)[1]; // chacha20
        let cfg = Config::spt_full(ThreatModel::Spectre);
        let mut m = prepare_machine(w, cfg);
        m.enable_telemetry();
        run_prepared(&mut m, w, cfg, 1_000).expect("runs");
        let doc = run_document(&m, w.name, cfg.name(), 1_000);
        let back = Json::parse(&doc.to_string()).expect("round-trips");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(STATS_SCHEMA));
        let schema = validate(&back, &[&ROWS_DOC, &RUN_DOC]).expect("run document validates");
        assert_eq!(schema.kind, Some("run"));
        assert_eq!(back.get("threat").and_then(Json::as_str), Some("spectre"));
        let digest = back.get("observation_digest").and_then(Json::as_str).unwrap();
        assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
        assert_eq!(u64::from_str_radix(digest, 16).unwrap(), m.observation_digest());
        assert!(back.get("telemetry").and_then(|t| t.get("rob_occupancy")).is_some());
        assert!(
            back.get("machine").and_then(|s| s.get("cycles")).and_then(Json::as_u64).unwrap() > 0
        );
        assert!(back
            .get("caches")
            .and_then(|c| c.get("l1d"))
            .and_then(|c| c.get("hits"))
            .is_some());
    }
}
