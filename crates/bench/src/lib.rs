//! Experiment harness for the SPT reproduction.
//!
//! | binary | purpose |
//! |---|---|
//! | `reproduce` | every §9 artifact: Figures 7–9, §9.2 headline numbers, §9.4 width ablation, §6.3 policy ablation, Table 3 (see `DESIGN.md` §5) |
//! | `run_spt` | single-run front-end mirroring the artifact's `run_spt.py` |
//! | `simbench` | host simulation throughput (`spt-simbench-v1`) |
//!
//! The library half holds the shared runner with its bounded worker pool
//! ([`runner`]), the plan / cell store / renderers behind `reproduce`
//! ([`reproduce`]), and the `spt-stats-v1` JSON documents ([`statsdoc`]).
//! Each document module declares its schema; `validate FILE...` in
//! `spt-attrib` checks written documents against them.

pub mod reproduce;
pub mod runner;
pub mod simbench;
pub mod statsdoc;

pub use reproduce::{CellStore, Plan};
pub use runner::{
    default_jobs, prepare_machine, run_indexed, run_prepared, run_workload, RunRow, SweepError,
    SweepOptions, DEFAULT_BUDGET,
};
pub use statsdoc::{rows_document, run_document, STATS_SCHEMA};
