//! The repository benchmark: Figure-7 sweeps split by branchiness, a fuzz
//! campaign and a trace-diff pass, each with checked outputs, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <fig7-branchy|fig7-straight|fuzz|tracediff> \
//!           --seed N --seconds S --trace <0|1>
//! perfbench --list                      # every metric, unit and direction
//! perfbench --record-expected          # store expected outputs of the stored seeds
//! perfbench --split-table              # measurements behind the fig7 split
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A fuller document with
//! a provenance header (and, for traced runs, every span) is written to
//! `out/` beside this package. The exit code is 1 when any output check
//! failed and 2 on a usage or set-up error.

mod calib;
mod catalog;
mod expect;
mod report;
mod spans;
mod work;

use catalog::{END_TO_END, PER_LAYER};
use report::median;
use spans::Tracer;
use spt_util::Json;
use std::process::ExitCode;
use std::time::Instant;
use work::Kind;

/// Set-ups before the first op: at least [`SETUP_MIN_REPEATS`], and more
/// until [`SETUP_MIN_SECONDS`] have passed. One more set-up runs between
/// ops every second, so `setup_s`, their median, spans the run as `wall_s`
/// does (host speed drifts over seconds).
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: perfbench --workload <fig7-branchy|fig7-straight|fuzz|tracediff> \
                     --seed N --seconds S [--trace 0|1]\n       perfbench --list\n       \
                     perfbench --record-expected\n       perfbench --split-table";

enum Mode {
    Bench { kind: Kind, seed: u64, seconds: f64, trace: bool },
    List,
    Record,
    SplitTable,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let (mut list, mut record, mut split) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--list" => list = true,
            "--record-expected" => record = true,
            "--split-table" => split = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if list {
        return Ok(Mode::List);
    }
    if record {
        return Ok(Mode::Record);
    }
    if split {
        return Ok(Mode::SplitTable);
    }
    let seed = seed.ok_or("--seed is required")?;
    Ok(Mode::Bench {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Mode::List) => {
            print!("{}", catalog::listing());
            Ok(true)
        }
        Ok(Mode::Record) => record().map(|()| true),
        Ok(Mode::SplitTable) => work::split_table().map(|t| {
            print!("{t}");
            true
        }),
        Ok(Mode::Bench { kind, seed, seconds, trace }) => bench(kind, seed, seconds, trace),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Thread CPU seconds of every set-up in a run, and of the suite build in
/// each.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
}

impl SetupTimes {
    fn time(&mut self, kind: Kind, seed: u64, tracer: &mut Tracer) -> Result<work::Setup, String> {
        let t = spans::thread_cpu_ns();
        let s = work::setup(kind, seed, false, tracer)?;
        self.setup_s.push((spans::thread_cpu_ns() - t) as f64 / 1e9);
        self.build_s.push(s.build_ns as f64 / 1e9);
        Ok(s)
    }
}

/// One benchmark run. Returns whether every output check passed.
fn bench(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let mut tracer = Tracer::new();
    let mut times = SetupTimes::default();
    // Spans are recorded for the first set-up only.
    tracer.set_recording(trace);
    let mut setup = times.time(kind, seed, &mut tracer)?;
    tracer.set_recording(false);
    let started = Instant::now();
    while times.setup_s.len() < SETUP_MIN_REPEATS
        || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS
    {
        setup = times.time(kind, seed, &mut tracer)?;
    }
    let mut resetup_error = None;
    let r = work::run(&setup, seconds, trace, tracer, || {
        if let Err(e) = times.time(kind, seed, &mut Tracer::new()) {
            resetup_error.get_or_insert(e);
        }
    });
    if let Some(e) = resetup_error {
        return Err(e);
    }
    let (setup_s, build_s) = (times.setup_s, times.build_s);
    let probe_ns: Vec<f64> = r.probe_ns.iter().map(|&x| x as f64).collect();
    let setup_scale = calib::PROBE_REF_NS / median(&probe_ns);
    let (metrics, table) = if trace {
        (report::per_layer(&r, median(&build_s)), PER_LAYER)
    } else {
        (report::end_to_end(&r, median(&setup_s) * setup_scale), END_TO_END)
    };
    for e in &r.failures {
        eprintln!("perfbench: check failed: {e}");
    }
    let error_rate = r.failed as f64 / r.attempted as f64;
    eprintln!(
        "perfbench: {} seed {seed}: {} ops attempted, {} failed, error_rate {error_rate}",
        kind.name(),
        r.attempted,
        r.failed
    );

    let metrics_json = Json::Obj(
        table
            .iter()
            .map(|x| {
                let v =
                    Json::obj([("value", Json::F64(metrics[x.name])), ("unit", Json::str(x.unit))]);
                (x.name.to_string(), v)
            })
            .collect(),
    );
    let line = Json::obj([
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed)),
        ("metrics", metrics_json.clone()),
    ]);

    let mut doc = Json::obj([
        ("provenance", expect::provenance(expect::RESULT_SCHEMA, Some(kind), &[seed])),
        ("seconds", Json::F64(seconds)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(r.failed == 0)),
        ("attempted", Json::U64(r.attempted)),
        ("failed", Json::U64(r.failed)),
        ("error_rate", Json::F64(error_rate)),
        ("failures", Json::arr(r.failures.iter().map(Json::str))),
        ("setup_repeats", Json::U64(setup_s.len() as u64)),
        ("setup_cpu_s", Json::arr(setup_s.iter().map(|&s| Json::F64(s)))),
        ("unscaled_wall_s", Json::F64(report::fixed_work_s(&r.untraced_ms))),
        ("probe_ns", Json::arr(r.probe_ns.iter().map(|&x| Json::U64(x)))),
        ("pass_s", Json::arr(r.pass_s.iter().map(|&s| Json::F64(s)))),
        (
            "op_ms_samples",
            Json::arr(r.untraced_ms.iter().map(|v| Json::arr(v.iter().map(|&x| Json::F64(x))))),
        ),
        ("metrics", metrics_json),
    ]);
    if trace {
        doc.push("spans", r.tracer.to_json());
    }
    let name = format!("{}-seed{seed}-trace{}.json", kind.name(), u8::from(trace));
    expect::write(&expect::bench_dir().join("out").join(name), &doc)?;

    println!("{}", line.to_string());
    Ok(r.failed == 0)
}

/// Runs one pass of every workload for each stored seed and stores the
/// records.
fn record() -> Result<(), String> {
    let mut by_seed = std::collections::BTreeMap::new();
    for seed in expect::STORED_SEEDS {
        let records: &mut std::collections::BTreeMap<_, _> = by_seed.entry(seed).or_default();
        for kind in Kind::ALL {
            let setup = work::setup(kind, seed, true, &mut Tracer::new())?;
            let r = work::run(&setup, 0.0, false, Tracer::new(), || ());
            if r.failed > 0 {
                return Err(format!("{} seed {seed}: {}", kind.name(), r.failures.join("; ")));
            }
            eprintln!("perfbench: {} seed {seed}: {} records", kind.name(), r.records.len());
            records.extend(r.records);
        }
    }
    let path = expect::save(&by_seed)?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}
