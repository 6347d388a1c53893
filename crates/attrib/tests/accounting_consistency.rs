//! The stacked cycle-accounting contract: every cell's components sum to
//! the measured cycle delta within tolerance, and the emitted
//! `spt-attrib-v1` document passes the schema checker.

use spt_attrib::{account_matrix, accounting_document, AccountingOptions, DOCUMENTS};
use spt_core::ThreatModel;
use spt_util::schema::validate;
use spt_util::Json;
use spt_workloads::{full_suite, Scale};

#[test]
fn stack_sums_match_measured_deltas() {
    let suite = full_suite(Scale::Bench);
    // One transmitter-heavy workload (mcf) and one resolution-heavy one
    // (leela) cover both normalization paths.
    let picked: Vec<_> =
        suite.into_iter().filter(|w| w.name == "mcf" || w.name == "leela").collect();
    assert_eq!(picked.len(), 2, "probe workloads present in the suite");

    let opts = AccountingOptions { budget: 2_000, jobs: 2, verbose: false, tolerance: 0.05 };
    let report = account_matrix(ThreatModel::Spectre, &picked, opts).expect("sweep completes");

    assert_eq!(report.cells.len(), 2);
    assert_eq!(report.cells[0].len(), report.configs.len());
    assert!(
        report.consistent(),
        "inconsistent cells: {:?} (worst error {:.3}%)",
        report.inconsistent_cells(),
        report.worst_relative_error() * 100.0
    );
    // The baseline column accounts to an all-zero stack.
    let base_col = report.configs.iter().position(|c| c == "UnsafeBaseline").unwrap();
    for wrow in &report.cells {
        let b = &wrow[base_col];
        assert_eq!(b.delta, 0);
        assert_eq!(b.stack_sum(), 0.0);
    }

    let doc = accounting_document(&report);
    assert_eq!(validate(&doc, &DOCUMENTS).unwrap().kind, Some("fig7-accounting"));
    // And after a text round-trip, as `validate FILE` consumes it.
    let back = Json::parse(&doc.to_string_pretty()).expect("round-trips");
    assert_eq!(validate(&back, &DOCUMENTS).unwrap().kind, Some("fig7-accounting"));
    assert_eq!(back.get("consistent").and_then(Json::as_bool), Some(true));
}
