//! Pipeline observability end to end: run one workload under the full SPT
//! design with an O3PipeView trace and telemetry enabled, then validate
//! the trace and print the occupancy/latency histograms.
//!
//! ```text
//! cargo run --release --example trace_pipeline
//! ```
//!
//! The trace written to `results/trace_pipeline.out` is gem5
//! O3PipeView-format, so it loads directly in Konata
//! (<https://github.com/shioyadan/Konata>): File → Open → pick the file.

use spt_bench::runner::{prepare_machine, run_prepared};
use spt_bench::statsdoc::run_document;
use spt_repro::core::{Config, ThreatModel};
use spt_util::{parse_o3_trace, O3PipeViewSink};
use std::path::Path;

fn main() {
    let suite = spt_repro::workloads::ct_suite(spt_repro::workloads::Scale::Bench);
    let w = &suite[1]; // chacha20: short, branchy enough to show squashes
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    let budget = 2_000;

    let trace_path = Path::new("results/trace_pipeline.out");
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    let file = std::fs::File::create(trace_path).expect("create trace file");

    let mut m = prepare_machine(w, cfg);
    // `with_events` interleaves SPTEvent: lines (taint/untaint/stall
    // causes) that `tracediff` consumes; Konata skips them.
    m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    m.enable_telemetry();
    run_prepared(&mut m, w, cfg, budget).expect("run completes");
    m.take_trace_sink().expect("sink attached").flush().expect("trace written");

    let text = std::fs::read_to_string(trace_path).expect("read trace back");
    let summary = parse_o3_trace(&text).expect("trace is well-formed O3PipeView").summary();
    println!("wrote {} — load it in Konata to scrub the pipeline", trace_path.display());
    println!(
        "trace: {} instructions ({} retired, {} squashed)",
        summary.instructions, summary.retired, summary.squashed
    );

    let doc = run_document(&m, w.name, cfg.name(), budget);
    println!("\nspt-stats-v1 document (also what `run_spt --stats-json` writes):");
    println!("{}", doc.to_string_pretty());
}
