//! Cycle attribution: turning the paper's aggregate overhead numbers into
//! per-instruction and per-component explanations.
//!
//! The bench layer measures *how much* each protection costs (Figure 7's
//! normalized execution time); this crate explains *where* those cycles
//! go, with two engines:
//!
//! * **Trace diff** ([`align`], [`diff`]) — parse two O3PipeView traces of
//!   the same workload under different configurations (emitted by
//!   `run_spt --trace`, which interleaves `SPTEvent:` lines), align the
//!   retired instruction streams, and attribute every per-instruction
//!   cycle delta to a pipeline-stage interval and a named stall cause
//!   (delayed transmitter, shadow-L1 wait, deferred branch resolution,
//!   plain backpressure). Driven by the `tracediff` binary.
//! * **Cycle accounting** ([`accounting`]) — run the Figure-7 matrix with
//!   telemetry enabled and regenerate each cell as a stacked breakdown
//!   (base cycles + transmitter-delay + resolution-delay + backpressure
//!   residual) with a per-cell stack-sum consistency check. Driven by the
//!   `fig7_attrib` binary.
//!
//! Both emit versioned `spt-attrib-v1` JSON documents ([`attribdoc`]).
//! The `validate FILE...` binary checks any document the workspace writes
//! against its declared schema ([`DOCUMENTS`]).
//!
//! See DESIGN.md §6e for the alignment algorithm, the stall taxonomy, and
//! the overlap normalization behind the stacked breakdown.

pub mod accounting;
pub mod align;
pub mod attribdoc;
pub mod diff;

pub use accounting::{account_matrix, AccountedCell, AccountingOptions, AccountingReport};
pub use align::{align_retired, Alignment};
pub use attribdoc::{
    accounting_document, diff_document, render_accounting, render_diff_report, ACCOUNTING_DOC,
    ATTRIB_SCHEMA, TRACEDIFF_DOC,
};
pub use diff::{diff_traces, StageDeltas, Stall, StallCause, TraceDiff};

use spt_bench::simbench::SIMBENCH_DOC;
use spt_bench::statsdoc::{ROWS_DOC, RUN_DOC};
use spt_util::schema::Schema;

/// The schema of every JSON document the workspace writes: the
/// `spt-stats-v1` run and rows documents, `spt-simbench-v1`, and the
/// `spt-attrib-v1` tracediff and fig7-accounting documents.
pub static DOCUMENTS: [&Schema; 5] =
    [&RUN_DOC, &ROWS_DOC, &SIMBENCH_DOC, &TRACEDIFF_DOC, &ACCOUNTING_DOC];
