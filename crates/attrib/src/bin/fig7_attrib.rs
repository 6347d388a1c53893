//! Regenerates the Figure-7 matrix as stacked cycle-accounting
//! breakdowns: for every (workload, config) cell, where the overhead
//! cycles went (transmitter delay, resolution delay, backpressure
//! residual), with a per-cell stack-sum consistency check.
//!
//! ```text
//! cargo run -p spt-attrib --release --bin fig7_attrib -- \
//!     [--model spectre|futuristic|both] [--budget N] [--jobs N] [--seed N]
//!     [--quick] [--tolerance F] [--json FILE]
//! validate FILE
//! ```
//!
//! With `--model both`, `--json attrib.json` writes `attrib_futuristic.json`
//! and `attrib_spectre.json`.
//!
//! Exits non-zero if any cell's stacked components miss the measured
//! cycle delta by more than `--tolerance` (default 5%).

use spt_attrib::{account_matrix, accounting_document, render_accounting, AccountingOptions};
use spt_bench::runner::{bench_suite, exit_sweep_error};
use spt_core::ThreatModel;
use spt_util::schema::write_document;
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: fig7_attrib [--model spectre|futuristic|both] [--budget N] [--jobs N]\n\
         \x20      [--seed N] [--quick] [--verbose] [--tolerance F] [--json FILE]"
    );
    exit(2);
}

fn model_suffixed(path: &Path, model: ThreatModel, multi: bool) -> PathBuf {
    if !multi {
        return path.to_path_buf();
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("attrib");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}_{model}.{ext}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = AccountingOptions::default();
    let mut models = vec![ThreatModel::Futuristic, ThreatModel::Spectre];
    let mut seed = 0u64;
    let mut json_out: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--budget" => opts.budget = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--jobs" => {
                opts.jobs = value(&mut i).parse::<usize>().unwrap_or_else(|_| usage()).max(1)
            }
            "--seed" => seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--quick" => opts.budget = 5_000,
            "--verbose" => opts.verbose = true,
            "--tolerance" => opts.tolerance = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--json" => json_out = Some(PathBuf::from(value(&mut i))),
            "--model" => {
                models = match value(&mut i).as_str() {
                    "spectre" => vec![ThreatModel::Spectre],
                    "futuristic" => vec![ThreatModel::Futuristic],
                    "both" => vec![ThreatModel::Futuristic, ThreatModel::Spectre],
                    _ => usage(),
                };
            }
            _ => usage(),
        }
        i += 1;
    }

    // Apply before any workload is constructed: the suites sample their
    // input data at build time.
    spt_workloads::set_input_seed(seed);
    let suite = bench_suite();
    let multi = models.len() > 1;
    let mut all_consistent = true;
    for model in models {
        eprintln!(
            "== Figure 7 cycle accounting, {model} model (budget {} retired, seed {seed}, \
             {} jobs, tolerance {:.1}%) ==",
            opts.budget,
            opts.jobs,
            opts.tolerance * 100.0
        );
        let report = account_matrix(model, &suite, opts).unwrap_or_else(|e| exit_sweep_error(&e));
        println!("\nFigure 7 stacked cycle accounting ({model} model, seed {seed})\n");
        print!("{}", render_accounting(&report));
        if !report.consistent() {
            all_consistent = false;
            for (w, c) in report.inconsistent_cells() {
                eprintln!("INCONSISTENT cell: {w} under {c}");
            }
        }
        if let Some(path) = &json_out {
            let doc = accounting_document(&report);
            let out = model_suffixed(path, model, multi);
            match write_document(&doc, &out) {
                Ok(()) => eprintln!("wrote {}", out.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", out.display());
                    exit(1);
                }
            }
        }
    }
    if !all_consistent {
        eprintln!("stack-sum consistency check FAILED");
        exit(1);
    }
}
