//! A command-line front-end mirroring the paper artifact's `run_spt.py`
//! interface (appendix A.4): pick a workload and a protection
//! configuration with the same flags the gem5 artifact used, and get a
//! `stats.txt`-style dump.
//!
//! ```text
//! cargo run -p spt-bench --release --bin run_spt -- \
//!     --executable perlbench --enable-spt --threat-model futuristic \
//!     --untaint-method bwd --enable-shadow-l1 [--budget N] [--track-insts]
//! ```
//!
//! | artifact flag | here |
//! |---|---|
//! | `--executable <path>` | `--executable <workload name>` (see `--list`) |
//! | `--enable-spt` | same |
//! | `--threat-model spectre\|futuristic` | same |
//! | `--untaint-method none\|fwd\|bwd\|ideal` | same |
//! | `--enable-shadow-l1` / `--enable-shadow-mem` | same (mutually exclusive) |
//! | `--track-insts` | prints the untaint-event breakdown |
//! | `--output-dir` | stdout (redirect as needed) |
//!
//! Omitting `--enable-spt` gives the UnsafeBaseline, exactly as in the
//! artifact ("to run InsecureBaseline, simply provide the --executable and
//! nothing else"). `--stt` selects the STT comparison design. Flags that
//! contradict each other exit 2: both shadow flags, a shadow flag or
//! `--untaint-method` without `--enable-spt`, and `--stt` with
//! `--enable-spt` or `--untaint-method`.

use spt_bench::runner::exit_sweep_error;
use spt_bench::runner::{prepare_machine, run_prepared};
use spt_bench::statsdoc::run_document;
use spt_core::{Config, ShadowMode, ThreatModel, UntaintMethod};
use spt_util::schema::write_document;
use spt_util::O3PipeViewSink;
use spt_workloads::{full_suite, Scale};
use std::fs::File;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: run_spt --executable <workload> [--enable-spt] [--stt]\n\
         \x20      [--threat-model spectre|futuristic] [--untaint-method none|fwd|bwd|ideal]\n\
         \x20      [--enable-shadow-l1 | --enable-shadow-mem] [--budget N]\n\
         \x20      [--seed N] [--trace <o3-trace-file>] [--stats-json <json-file>]\n\
         \x20      [--track-insts] [--list]"
    );
    std::process::exit(2);
}

fn reject(message: &str) -> ! {
    eprintln!("run_spt: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut executable: Option<String> = None;
    let mut enable_spt = false;
    let mut stt = false;
    let mut threat = ThreatModel::Futuristic;
    let mut untaint: Option<UntaintMethod> = None;
    let (mut shadow_l1, mut shadow_mem) = (false, false);
    let mut budget = 30_000u64;
    let mut seed = 0u64;
    let mut track_insts = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut stats_json_path: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--executable" => {
                i += 1;
                executable = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--enable-spt" => enable_spt = true,
            "--stt" => stt = true,
            "--threat-model" => {
                i += 1;
                threat = match args.get(i).map(String::as_str) {
                    Some("spectre") => ThreatModel::Spectre,
                    Some("futuristic") => ThreatModel::Futuristic,
                    _ => usage(),
                };
            }
            "--untaint-method" => {
                i += 1;
                untaint = Some(match args.get(i).map(String::as_str) {
                    Some("none") => UntaintMethod::None,
                    Some("fwd") => UntaintMethod::Fwd,
                    Some("bwd") => UntaintMethod::Bwd,
                    Some("ideal") => UntaintMethod::Ideal,
                    _ => usage(),
                });
            }
            "--enable-shadow-l1" => shadow_l1 = true,
            "--enable-shadow-mem" => shadow_mem = true,
            "--budget" => {
                i += 1;
                budget = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
                spt_workloads::set_input_seed(seed);
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--stats-json" => {
                i += 1;
                stats_json_path = Some(args.get(i).map(PathBuf::from).unwrap_or_else(|| usage()));
            }
            "--track-insts" => track_insts = true,
            "--list" => {
                println!("available workloads:");
                for w in full_suite(Scale::Bench) {
                    println!("  {:<12} {}", w.name, w.description);
                }
                return;
            }
            _ => usage(),
        }
        i += 1;
    }

    let shadow = match (shadow_l1, shadow_mem) {
        (true, true) => reject("--enable-shadow-l1 and --enable-shadow-mem are mutually exclusive"),
        (true, false) => ShadowMode::L1,
        (false, true) => ShadowMode::Mem,
        (false, false) => ShadowMode::None,
    };
    if stt && (enable_spt || untaint.is_some()) {
        reject("--stt selects STT; it cannot be combined with --enable-spt or --untaint-method");
    }
    if !enable_spt && untaint.is_some() {
        reject("--untaint-method requires --enable-spt (as in the artifact)");
    }
    if !enable_spt && shadow != ShadowMode::None {
        reject("--enable-shadow-l1 and --enable-shadow-mem require --enable-spt");
    }

    let config = if stt {
        Config::stt(threat)
    } else if enable_spt {
        let mut c = Config::secure_baseline(threat);
        c.untaint = untaint.unwrap_or(UntaintMethod::None);
        c.shadow = shadow;
        c
    } else {
        Config::unsafe_baseline(threat)
    };

    let name = executable.unwrap_or_else(|| usage());
    let suite = full_suite(Scale::Bench);
    let Some(w) = suite.iter().find(|w| w.name == name) else {
        eprintln!("unknown workload `{name}`; use --list");
        std::process::exit(2);
    };

    eprintln!("running {} under {config} (seed {seed}) ...", w.name);
    let mut m = prepare_machine(w, config);
    if let Some(path) = &trace_path {
        let file = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {}: {e}", path.display());
            std::process::exit(1);
        });
        // Event lines (`SPTEvent:`) make the trace diffable by
        // `tracediff`; Konata ignores them.
        m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    }
    if stats_json_path.is_some() {
        m.enable_telemetry();
    }
    let row = run_prepared(&mut m, w, config, budget).unwrap_or_else(|e| exit_sweep_error(&e));
    if let Some(mut sink) = m.take_trace_sink() {
        if let Err(e) = sink.flush() {
            eprintln!("error writing trace: {e}");
            std::process::exit(1);
        }
        eprintln!("O3PipeView trace written to {}", trace_path.as_ref().unwrap().display());
    }
    if let Some(path) = &stats_json_path {
        let doc = run_document(&m, w.name, config.name(), budget);
        if let Err(e) = write_document(&doc, path) {
            eprintln!("cannot write stats JSON {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("stats JSON written to {}", path.display());
    }

    // stats.txt-style output (the artifact's "the one of most interest will
    // be numCycles").
    println!("inputSeed                 {seed:>14}   # workload input seed (--seed)");
    println!("numCycles                 {:>14}   # cycles to retire the budget", row.cycles);
    println!("numRetired                {:>14}   # instructions retired", row.retired);
    println!(
        "ipc                       {:>14.4}   # retired instructions per cycle",
        row.stats.ipc()
    );
    println!(
        "numFetched                {:>14}   # instructions fetched (incl. wrong path)",
        row.stats.fetched
    );
    println!("numSquashes               {:>14}   # pipeline squashes", row.stats.squashes);
    println!(
        "branchMispredicts         {:>14}   # conditional mispredictions",
        row.stats.branch_mispredicts
    );
    println!(
        "indirectMispredicts       {:>14}   # indirect-target mispredictions",
        row.stats.indirect_mispredicts
    );
    println!(
        "memOrderViolations        {:>14}   # store->load order violations",
        row.stats.mem_violations
    );
    println!("stlForwards               {:>14}   # store-to-load forwards", row.stats.stl_forwards);
    println!(
        "xmitDelayCycles           {:>14}   # transmitter-slot cycles blocked by taint",
        row.stats.transmitter_delay_cycles
    );
    println!(
        "resolutionDelayCycles     {:>14}   # deferred branch-resolution cycles",
        row.stats.resolution_delay_cycles
    );
    println!(
        "untaintEvents             {:>14}   # registers untainted (all mechanisms)",
        row.stats.spt.events.total()
    );
    println!(
        "untaintingCycles          {:>14}   # cycles with >=1 untaint",
        row.stats.spt.untainting_cycles
    );
    println!(
        "untaintDeferred           {:>14}   # broadcasts deferred by the width limit",
        row.stats.spt.broadcasts_deferred
    );
    if track_insts {
        println!("\n# untaint-event breakdown (--track-insts):");
        for (kind, count) in row.stats.spt.events.iter() {
            println!("untaint.{:<16} {:>14}", kind.label(), count);
        }
    }
}
