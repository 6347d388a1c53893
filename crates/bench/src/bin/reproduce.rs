//! Regenerates every §9 artifact from one simulation pass: Figure 7 (both
//! models, table and CSVs), the §9.2 headline numbers, Figures 8 and 9,
//! the §6.3 policy ablation, the §9.4 broadcast-width ablation and
//! Table 3.
//!
//! ```text
//! cargo run -p spt-bench --release --bin reproduce -- [--budget N] [--jobs N]
//!     [--seed N] [--stats-json FILE] [--verbose]
//! ```
//!
//! Run from the repository root: writes `results/*` and refreshes the
//! generated blocks of `EXPERIMENTS.md`. Exits 1 if a cell wedges or an
//! artifact cannot be written; output bytes do not depend on `--jobs`.

use spt_bench::reproduce::{self, CellStore};
use spt_bench::runner::{bench_suite, exit_sweep_error, SweepOptions, DEFAULT_BUDGET};
use spt_bench::statsdoc::rows_document;
use spt_util::schema::write_document;
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--budget N] [--jobs N] [--seed N] [--stats-json FILE] [--verbose]"
    );
    exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut opts = SweepOptions::new(DEFAULT_BUDGET);
    let mut seed = 0u64;
    let mut stats_json: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--budget" => opts.budget = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => opts = opts.jobs(value().parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--stats-json" => stats_json = Some(PathBuf::from(value())),
            "--verbose" => opts.verbose = true,
            _ => usage(),
        }
    }

    // Apply before any workload is constructed: the suites sample their
    // input data (arrays, hash keys, pointer graphs) at build time.
    spt_workloads::set_input_seed(seed);
    let suite = bench_suite();
    let plan = reproduce::plan(&suite);
    println!(
        "reproduce: {} distinct cells (budget {}, seed {seed}, {} jobs)",
        plan.len(),
        opts.budget,
        opts.jobs
    );
    let store = CellStore::simulate(plan, &suite, opts).unwrap_or_else(|e| exit_sweep_error(&e));
    let artifacts = reproduce::render(&store, &suite);
    if let Err(e) = reproduce::write(Path::new("."), &artifacts) {
        eprintln!("reproduce: cannot write {e}");
        exit(1);
    }
    for (file, _) in &artifacts {
        println!("wrote results/{file}");
    }
    println!("refreshed EXPERIMENTS.md");
    if let Some(path) = stats_json {
        if let Err(e) = write_document(&rows_document(&store), &path) {
            eprintln!("reproduce: cannot write {}: {e}", path.display());
            exit(1);
        }
        println!("wrote {}", path.display());
    }
}
