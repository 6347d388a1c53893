//! Diffs two O3PipeView traces of the same workload and attributes every
//! slowed instruction to a pipeline stage and a named stall cause.
//!
//! ```text
//! run_spt --executable mcf_like --trace base.trace
//! run_spt --executable mcf_like --enable-spt --untaint-method bwd \
//!         --enable-shadow-l1 --trace spt.trace
//! tracediff base.trace spt.trace --top 20 --json diff.json
//! validate diff.json
//! ```
//!
//! The baseline trace comes first. Traces must be produced by
//! `run_spt --trace` (or any `O3PipeViewSink::with_events` sink) so the
//! `SPTEvent:` lines needed for cause attribution are present — a trace
//! without them still diffs, but every stall degrades to `backpressure`.
//!
//! Exits non-zero when a trace fails to parse or the alignment rate drops
//! below `--min-align` (default 0.99, the acceptance floor for
//! same-workload traces); a rejected pair writes no `--json` document.

use spt_attrib::{diff_traces, render_diff_report};
use spt_util::parse_o3_trace;
use spt_util::schema::write_document;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: tracediff <base-trace> <cmp-trace> [--top N] [--json FILE] [--min-align RATE]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut traces: Vec<PathBuf> = Vec::new();
    let mut top = 10usize;
    let mut json_out: Option<PathBuf> = None;
    let mut min_align = 0.99f64;

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--top" => top = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_out = Some(PathBuf::from(value(&mut i))),
            "--min-align" => min_align = value(&mut i).parse().unwrap_or_else(|_| usage()),
            flag if flag.starts_with("--") => usage(),
            _ => traces.push(PathBuf::from(&args[i])),
        }
        i += 1;
    }

    if traces.len() != 2 {
        usage();
    }
    let mut parsed = Vec::with_capacity(2);
    for path in &traces {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            exit(1);
        });
        parsed.push(parse_o3_trace(&text).unwrap_or_else(|e| {
            eprintln!("{}: malformed O3PipeView trace: {e}", path.display());
            exit(1);
        }));
    }

    let diff = diff_traces(&parsed[0], &parsed[1]);
    println!("tracediff {} (baseline) vs {}", traces[0].display(), traces[1].display());
    print!("{}", render_diff_report(&diff, top));

    if diff.alignment.rate() < min_align {
        eprintln!(
            "alignment rate {:.4} below --min-align {min_align} — are these traces of the \
             same workload and seed?",
            diff.alignment.rate()
        );
        exit(1);
    }

    if let Some(path) = &json_out {
        let doc = spt_attrib::diff_document(
            &diff,
            &traces[0].display().to_string(),
            &traces[1].display().to_string(),
            top.max(100),
        );
        if let Err(e) = write_document(&doc, path) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}
