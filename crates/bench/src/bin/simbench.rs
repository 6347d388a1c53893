//! `simbench` — host simulation-throughput benchmark.
//!
//! Times the fixed workload basket under the standard config set and
//! writes a versioned `spt-simbench-v1` JSON document (see
//! `spt_bench::simbench`). Two modes:
//!
//! * measure (default): run the basket, print a table, write `--out`;
//! * `--baseline FILE`: measure, then embed FILE as the "before" side and
//!   per-config speedups into the emitted document.
//!
//! `validate FILE` (in `spt-attrib`) checks a written document.

use spt_bench::simbench::{document, measure, with_baseline, SimbenchOptions};
use spt_util::schema::{read_document, write_document};
use spt_util::Json;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: simbench [--budget N] [--iters N] [--jobs N] [--seed N] \
                     [--quick] [--verbose] [--out FILE] [--baseline FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SimbenchOptions::default();
    let mut quick = false;
    let mut seed = 0u64;
    let mut out: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;

    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("simbench: {flag} needs a value");
            exit(2);
        })
    };
    let num = |v: String, flag: &str| -> u64 {
        v.parse().unwrap_or_else(|_| {
            eprintln!("simbench: {flag} takes a number, got `{v}`");
            exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => opts.budget = num(value(&mut i, "--budget"), "--budget"),
            "--iters" => opts.iters = num(value(&mut i, "--iters"), "--iters") as u32,
            "--jobs" => opts.jobs = (num(value(&mut i, "--jobs"), "--jobs") as usize).max(1),
            "--seed" => seed = num(value(&mut i, "--seed"), "--seed"),
            "--quick" => quick = true,
            "--verbose" => opts.verbose = true,
            "--out" => out = Some(PathBuf::from(value(&mut i, "--out"))),
            "--baseline" => baseline = Some(PathBuf::from(value(&mut i, "--baseline"))),
            other => {
                eprintln!("simbench: unknown flag `{other}`");
                eprintln!("{USAGE}");
                exit(2);
            }
        }
        i += 1;
    }

    spt_workloads::set_input_seed(seed);
    if quick {
        opts.budget = opts.budget.min(5_000);
        opts.iters = 1;
    }

    let m = measure(opts).unwrap_or_else(|e| {
        eprintln!("simbench failed: {e}");
        exit(1);
    });

    println!(
        "simbench: budget {} / iters {} / jobs {} / threat {}",
        m.budget, m.iters, m.jobs, m.threat
    );
    println!("{:<22} {:>16} {:>16}", "config", "Mcycles/s (geo)", "Minstrs/s (geo)");
    for run in &m.configs {
        println!(
            "{:<22} {:>16.3} {:>16.3}",
            run.config,
            run.geomean_cycles_per_sec() / 1e6,
            run.geomean_retired_per_sec() / 1e6
        );
    }

    let mut doc = document(&m);
    if let Some(path) = baseline {
        let before = read_document(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            exit(2);
        });
        doc = with_baseline(doc, &before).unwrap_or_else(|e| {
            eprintln!("simbench: {e}");
            exit(1);
        });
        if let Some(Json::Arr(speedups)) = doc.get("speedup") {
            println!("{:<22} {:>16}", "config", "speedup vs base");
            for s in speedups {
                let name = s.get("config").and_then(Json::as_str).unwrap_or("?");
                let r = s.get("sim_cycles_per_sec_speedup").and_then(Json::as_f64).unwrap_or(0.0);
                println!("{name:<22} {r:>15.2}x");
            }
        }
    }

    if let Some(path) = out {
        match write_document(&doc, &path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                exit(1);
            }
        }
    }
}
