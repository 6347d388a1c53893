//! Shared infrastructure with no simulator dependencies: the bounded
//! deterministic worker pool every sweep and fuzz driver fans out over
//! ([`run_indexed`]), a tiny platform-independent folding digest
//! ([`Fnv64`]) used to summarize attacker-observable microarchitectural
//! state, the windowed bitset [`SeqSet`] behind the pipeline's in-flight
//! sequence-number indices, and the observability substrate — a hand-rolled [`Json`] tree
//! (the workspace is offline, so no serde), telemetry [`Histogram`]s, and
//! the [`TraceSink`] pipeline-trace plumbing with its gem5
//! O3PipeView-compatible emitter, and the declared document shapes with
//! the one checker, reader and writer every JSON document goes through
//! ([`schema`]).
//!
//! This crate sits at the bottom of the dependency DAG (next to `spt-isa`)
//! precisely so that both the measurement side (`spt-bench`) and the
//! correctness side (`spt-fuzz`) can share one pool and one digest without
//! depending on each other.

pub mod digest;
pub mod hist;
pub mod json;
pub mod pool;
pub mod schema;
pub mod seqset;
pub mod trace;

pub use digest::Fnv64;
pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use pool::{default_jobs, run_indexed};
pub use seqset::SeqSet;
pub use trace::{
    parse_o3_trace, InstRecord, O3PipeViewSink, O3TraceSummary, OwnedInstRecord, ParsedEvent,
    ParsedTrace, SptTraceEvent, TraceSink, TICKS_PER_CYCLE,
};
