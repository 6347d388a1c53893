//! Host-throughput measurement (`simbench`).
//!
//! Every paper artifact is bottlenecked on how many *simulated* cycles per
//! *host* second `Machine::step_cycle` sustains, so this module gives the
//! repo a perf trajectory: a fixed workload basket is run under a fixed
//! config set, each cell is timed on the host, and the results are emitted
//! as a versioned `spt-simbench-v1` JSON document
//! (`BENCH_simthroughput.json`). Passing a previous document back in via
//! `--baseline` embeds a before/after comparison, so a single committed
//! file carries both sides of an optimization PR.
//!
//! Measurement notes: each cell is run `iters` times and the *best* wall
//! time is kept (minimum-of-N is the standard way to strip scheduler noise
//! from a deterministic computation); the default is sequential execution
//! because concurrent cells contend for cache and memory bandwidth —
//! `--jobs N` trades fidelity for wall time and is what CI's smoke job
//! uses.

use crate::runner::{prepare_machine, run_indexed, SweepError};
use spt_core::{Config, ThreatModel};
use spt_ooo::RunLimits;
use spt_util::Json;
use spt_workloads::{full_suite, Scale, Workload};
use std::time::Instant;

/// Schema identifier stamped into every document this module emits.
pub const SIMBENCH_SCHEMA: &str = "spt-simbench-v1";

/// The fixed workload basket: a deliberate slice of the Figure-7 suite
/// (five SPECint proxies, three SPECfp proxies, two constant-time kernels)
/// chosen once so throughput numbers stay comparable across PRs. Adding or
/// reordering names invalidates historical comparisons — bump the schema
/// version instead.
pub const BASKET: &[&str] = &[
    "gcc",
    "mcf",
    "xalancbmk",
    "deepsjeng",
    "xz",
    "bwaves",
    "povray",
    "imagick",
    "chacha20",
    "djbsort",
];

/// The configurations timed, in report order. `UnsafeBaseline` and
/// `SPT{Bwd,ShadowL1}` are the two the acceptance gate reads;
/// `SecureBaseline` and `STT` bracket the protection spectrum.
pub fn bench_configs(threat: ThreatModel) -> Vec<Config> {
    vec![
        Config::unsafe_baseline(threat),
        Config::secure_baseline(threat),
        Config::spt_full(threat),
        Config::stt(threat),
    ]
}

/// Resolves the basket against the bench-scale suite, panicking if a name
/// has gone missing (a silent partial basket would skew the geomeans).
pub fn basket_workloads() -> Vec<Workload> {
    let suite = full_suite(Scale::Bench);
    BASKET
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|w| w.name == *name)
                .unwrap_or_else(|| panic!("simbench basket workload `{name}` not in suite"))
                .clone()
        })
        .collect()
}

/// One timed (config, workload) cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Simulated cycles per run (identical across iterations — the
    /// simulator is deterministic).
    pub cycles: u64,
    /// Instructions retired per run.
    pub retired: u64,
    /// Best-of-N host wall time for one run, in seconds.
    pub best_secs: f64,
}

impl Cell {
    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.best_secs
    }

    /// Retired instructions per host second.
    pub fn retired_per_sec(&self) -> f64 {
        self.retired as f64 / self.best_secs
    }
}

/// All cells for one configuration.
#[derive(Clone, Debug)]
pub struct ConfigRun {
    /// Configuration display name.
    pub config: String,
    /// One cell per basket workload, in [`BASKET`] order.
    pub cells: Vec<Cell>,
}

impl ConfigRun {
    /// Geometric mean of simulated cycles/sec over the basket.
    pub fn geomean_cycles_per_sec(&self) -> f64 {
        geomean(self.cells.iter().map(Cell::cycles_per_sec))
    }

    /// Geometric mean of retired instructions/sec over the basket.
    pub fn geomean_retired_per_sec(&self) -> f64 {
        geomean(self.cells.iter().map(Cell::retired_per_sec))
    }
}

/// A full simbench measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Retired-instruction budget per run.
    pub budget: u64,
    /// Timing iterations per cell (best kept).
    pub iters: u32,
    /// Worker threads the sweep ran under.
    pub jobs: usize,
    /// Threat model (host throughput is measured under one model).
    pub threat: ThreatModel,
    /// One entry per [`bench_configs`] configuration.
    pub configs: Vec<ConfigRun>,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0_f64, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    assert!(n > 0, "geomean over empty set");
    (log_sum / f64::from(n)).exp()
}

/// Knobs for one measurement.
#[derive(Clone, Copy, Debug)]
pub struct SimbenchOptions {
    /// Retired-instruction budget per run.
    pub budget: u64,
    /// Timing iterations per cell.
    pub iters: u32,
    /// Worker threads (1 = sequential, the high-fidelity default).
    pub jobs: usize,
    /// Threat model to measure under.
    pub threat: ThreatModel,
    /// Log each cell as it completes.
    pub verbose: bool,
}

impl Default for SimbenchOptions {
    fn default() -> SimbenchOptions {
        SimbenchOptions {
            budget: crate::runner::DEFAULT_BUDGET,
            iters: 3,
            jobs: 1,
            threat: ThreatModel::Futuristic,
            verbose: false,
        }
    }
}

/// Runs and times the full basket × config matrix.
///
/// # Errors
///
/// Returns the first wedged cell in deterministic order, as
/// [`crate::runner::suite_matrix`] does.
pub fn measure(opts: SimbenchOptions) -> Result<Measurement, SweepError> {
    let workloads = basket_workloads();
    let configs = bench_configs(opts.threat);
    let cells = workloads.len() * configs.len();
    let results = run_indexed(cells, opts.jobs, |i| {
        let (c, w) = (i / workloads.len(), i % workloads.len());
        let (cfg, wl) = (configs[c], &workloads[w]);
        let mut best = f64::INFINITY;
        let (mut cycles, mut retired) = (0u64, 0u64);
        for _ in 0..opts.iters.max(1) {
            let mut m = prepare_machine(wl, cfg);
            let start = Instant::now();
            let out = m.run(RunLimits::retired(opts.budget)).map_err(|source| SweepError {
                workload: wl.name.to_string(),
                config: cfg.name().to_string(),
                threat: cfg.threat,
                source,
            })?;
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            best = best.min(secs);
            cycles = out.cycles;
            retired = out.retired;
        }
        if opts.verbose {
            eprintln!(
                "  {} / {}: {:.2} Mcycles/s",
                cfg.name(),
                wl.name,
                cycles as f64 / best / 1e6
            );
        }
        Ok(Cell { workload: wl.name.to_string(), cycles, retired, best_secs: best })
    });

    let mut runs = Vec::with_capacity(configs.len());
    let mut iter = results.into_iter();
    for cfg in &configs {
        let mut cells = Vec::with_capacity(workloads.len());
        for _ in 0..workloads.len() {
            cells.push(iter.next().expect("pool returns one result per cell")?);
        }
        runs.push(ConfigRun { config: cfg.name().to_string(), cells });
    }
    Ok(Measurement {
        budget: opts.budget,
        iters: opts.iters.max(1),
        jobs: opts.jobs,
        threat: opts.threat,
        configs: runs,
    })
}

/// Renders a measurement as an `spt-simbench-v1` document.
pub fn document(m: &Measurement) -> Json {
    Json::obj([
        ("schema", Json::str(SIMBENCH_SCHEMA)),
        ("budget", Json::U64(m.budget)),
        ("iters", Json::U64(u64::from(m.iters))),
        ("jobs", Json::U64(m.jobs as u64)),
        ("threat", Json::str(m.threat.to_string())),
        ("basket", Json::arr(BASKET.iter().map(|w| Json::str(*w)))),
        (
            "configs",
            Json::arr(m.configs.iter().map(|run| {
                Json::obj([
                    ("config", Json::str(run.config.clone())),
                    ("geomean_sim_cycles_per_sec", Json::F64(run.geomean_cycles_per_sec())),
                    ("geomean_retired_per_sec", Json::F64(run.geomean_retired_per_sec())),
                    (
                        "workloads",
                        Json::arr(run.cells.iter().map(|c| {
                            Json::obj([
                                ("workload", Json::str(c.workload.clone())),
                                ("cycles", Json::U64(c.cycles)),
                                ("retired", Json::U64(c.retired)),
                                ("best_secs", Json::F64(c.best_secs)),
                                ("sim_cycles_per_sec", Json::F64(c.cycles_per_sec())),
                                ("retired_per_sec", Json::F64(c.retired_per_sec())),
                            ])
                        })),
                    ),
                ])
            })),
        ),
    ])
}

/// A schema violation found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spt-simbench-v1 schema violation: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SchemaError> {
    obj.get(key).ok_or_else(|| SchemaError(format!("missing field `{key}`")))
}

fn number(obj: &Json, key: &str) -> Result<f64, SchemaError> {
    match field(obj, key)? {
        Json::U64(v) => Ok(*v as f64),
        Json::I64(v) => Ok(*v as f64),
        Json::F64(v) => Ok(*v),
        _ => Err(SchemaError(format!("field `{key}` is not a number"))),
    }
}

/// Validates a parsed document against the `spt-simbench-v1` schema: tag,
/// config list shape, per-workload cell fields, and strictly positive
/// throughput numbers. CI's `bench-smoke` job runs this (via
/// `simbench --validate`) on the artifact it just produced.
pub fn validate(doc: &Json) -> Result<(), SchemaError> {
    match field(doc, "schema")? {
        Json::Str(s) if s == SIMBENCH_SCHEMA => {}
        other => return Err(SchemaError(format!("schema tag is {other}, want {SIMBENCH_SCHEMA}"))),
    }
    number(doc, "budget")?;
    number(doc, "iters")?;
    let configs = match field(doc, "configs")? {
        Json::Arr(items) if !items.is_empty() => items,
        _ => return Err(SchemaError("`configs` must be a non-empty array".into())),
    };
    for cfg in configs {
        field(cfg, "config")?;
        for key in ["geomean_sim_cycles_per_sec", "geomean_retired_per_sec"] {
            let v = number(cfg, key)?;
            if !(v.is_finite() && v > 0.0) {
                return Err(SchemaError(format!("`{key}` must be finite and positive, got {v}")));
            }
        }
        let cells = match field(cfg, "workloads")? {
            Json::Arr(items) if !items.is_empty() => items,
            _ => return Err(SchemaError("`workloads` must be a non-empty array".into())),
        };
        for cell in cells {
            field(cell, "workload")?;
            for key in ["cycles", "retired", "best_secs", "sim_cycles_per_sec", "retired_per_sec"] {
                let v = number(cell, key)?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(SchemaError(format!(
                        "`{key}` must be finite and positive, got {v}"
                    )));
                }
            }
        }
    }
    if let Some(baseline) = doc.get("baseline") {
        field(baseline, "configs")?;
    }
    Ok(())
}

/// Embeds a baseline (pre-optimization) document and the per-config
/// speedups into a fresh measurement document, producing the committed
/// before/after artifact.
///
/// # Errors
///
/// Fails if the baseline does not validate or measures different configs.
pub fn with_baseline(mut doc: Json, baseline: &Json) -> Result<Json, SchemaError> {
    validate(&doc)?;
    validate(baseline)?;
    let speedups: Vec<Json> = {
        let after = match field(&doc, "configs")? {
            Json::Arr(items) => items,
            _ => unreachable!("validated above"),
        };
        let before = match field(baseline, "configs")? {
            Json::Arr(items) => items,
            _ => unreachable!("validated above"),
        };
        after
            .iter()
            .map(|a| {
                let name = match field(a, "config")? {
                    Json::Str(s) => s.clone(),
                    other => return Err(SchemaError(format!("config name is {other}"))),
                };
                let b = before
                    .iter()
                    .find(|b| matches!(b.get("config"), Some(Json::Str(s)) if *s == name))
                    .ok_or_else(|| {
                        SchemaError(format!("baseline has no `{name}` config to compare against"))
                    })?;
                let ratio = number(a, "geomean_sim_cycles_per_sec")?
                    / number(b, "geomean_sim_cycles_per_sec")?;
                Ok(Json::obj([
                    ("config", Json::str(name)),
                    ("sim_cycles_per_sec_speedup", Json::F64(ratio)),
                ]))
            })
            .collect::<Result<_, SchemaError>>()?
    };
    doc.push("baseline", baseline.clone());
    doc.push("speedup", Json::arr(speedups));
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_measurement() -> Measurement {
        measure(SimbenchOptions {
            budget: 300,
            iters: 1,
            jobs: crate::runner::default_jobs(),
            ..SimbenchOptions::default()
        })
        .expect("tiny simbench runs")
    }

    #[test]
    fn document_round_trips_and_validates() {
        let m = tiny_measurement();
        let doc = document(&m);
        validate(&doc).expect("fresh document validates");
        let reparsed = Json::parse(&doc.to_string()).expect("document parses");
        validate(&reparsed).expect("reparsed document validates");
        assert_eq!(m.configs.len(), 4);
        assert_eq!(m.configs[0].cells.len(), BASKET.len());
    }

    #[test]
    fn baseline_embedding_computes_speedups() {
        let m = tiny_measurement();
        let doc = document(&m);
        let merged = with_baseline(doc.clone(), &doc).expect("self-comparison works");
        validate(&merged).expect("merged document validates");
        let speedups = merged.get("speedup").expect("speedup array present");
        if let Json::Arr(items) = speedups {
            assert_eq!(items.len(), 4);
            for s in items {
                if let Some(Json::F64(r)) = s.get("sim_cycles_per_sec_speedup") {
                    assert!((r - 1.0).abs() < 1e-9, "self-speedup must be 1.0, got {r}");
                } else {
                    panic!("speedup entry missing ratio");
                }
            }
        } else {
            panic!("speedup is not an array");
        }
    }

    #[test]
    fn validation_rejects_wrong_schema_tag() {
        let doc = Json::obj([("schema", Json::str("spt-stats-v1"))]);
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn basket_names_all_resolve() {
        assert_eq!(basket_workloads().len(), BASKET.len());
    }
}
