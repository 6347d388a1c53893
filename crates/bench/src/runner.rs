//! Shared simulation runner for the experiment binaries.
//!
//! Every cell of the paper's evaluation matrix (workload × configuration ×
//! threat model) is an independent simulation, so sweeps fan out over a
//! bounded worker pool ([`run_indexed`]) sized by
//! [`std::thread::available_parallelism`] and overridable with `--jobs N`.
//! Results are written into pre-indexed slots, so every table derived from
//! them (see [`crate::reproduce`]) is byte-identical to a sequential run
//! regardless of scheduling.

use spt_core::{Config, ThreatModel};
use spt_mem::MemSystem;
use spt_ooo::{CoreConfig, Machine, MachineStats, RunLimits, SimError};
use spt_workloads::{Scale, Workload};
use std::fmt;

// The pool lives in `spt-util` (shared with `spt-fuzz`); re-exported here
// so existing `spt_bench::runner::run_indexed` callers keep working.
pub use spt_util::{default_jobs, run_indexed};

/// Default retired-instruction budget per (workload, config) run.
///
/// Every configuration retires exactly this many instructions of the same
/// program, so cycle counts are directly comparable (the gem5 SimPoint
/// methodology's fixed-work principle).
pub const DEFAULT_BUDGET: u64 = 30_000;

/// One completed run.
#[derive(Clone, Debug)]
pub struct RunRow {
    /// Workload name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// Attack model.
    pub threat: ThreatModel,
    /// Cycles taken to retire the budget.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Full machine statistics.
    pub stats: MachineStats,
}

/// A simulation failure carrying the identity of the sweep cell that
/// wedged, so a single bad (workload, config, threat) pair produces one
/// clear diagnostic instead of tearing down a long sweep with a panic.
#[derive(Clone, Debug)]
pub struct SweepError {
    /// Workload name of the failed cell.
    pub workload: String,
    /// The failed cell's configuration as its `Display` shows it: name,
    /// threat model and any non-default broadcast width.
    pub config: String,
    /// Attack model of the failed cell.
    pub threat: ThreatModel,
    /// The underlying simulator error.
    pub source: SimError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} under {}: {}", self.workload, self.config, self.source)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Builds the machine for one (workload, config) cell: default core,
/// default memory system with the workload's data image applied.
///
/// Callers that need observability attach a trace sink or enable
/// telemetry on the returned machine before handing it to
/// [`run_prepared`]; [`run_workload`] is the plain compose-and-run path.
pub fn prepare_machine(w: &Workload, cfg: Config) -> Machine {
    let mut mem = MemSystem::default();
    *mem.store() = w.image.clone();
    Machine::with_memory(w.program.clone(), CoreConfig::default(), cfg, mem)
}

/// Runs a machine built by [`prepare_machine`] for `budget` retired
/// instructions and returns the row.
///
/// # Errors
///
/// Returns a [`SweepError`] identifying the (workload, config, threat)
/// cell if the simulator deadlocks (a bug, not a measurement).
pub fn run_prepared(
    m: &mut Machine,
    w: &Workload,
    cfg: Config,
    budget: u64,
) -> Result<RunRow, SweepError> {
    let out = m.run(RunLimits::retired(budget)).map_err(|source| SweepError {
        workload: w.name.to_string(),
        config: cfg.to_string(),
        threat: cfg.threat,
        source,
    })?;
    Ok(RunRow {
        workload: w.name.to_string(),
        config: cfg.name().to_string(),
        threat: cfg.threat,
        cycles: out.cycles,
        retired: out.retired,
        stats: m.stats(),
    })
}

/// Runs one workload under one configuration for `budget` retired
/// instructions and returns the row.
///
/// # Errors
///
/// Returns a [`SweepError`] identifying the (workload, config, threat)
/// cell if the simulator deadlocks (a bug, not a measurement).
pub fn run_workload(w: &Workload, cfg: Config, budget: u64) -> Result<RunRow, SweepError> {
    let mut m = prepare_machine(w, cfg);
    run_prepared(&mut m, w, cfg, budget)
}

/// Knobs shared by every sweep entry point.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Retired-instruction budget per run.
    pub budget: u64,
    /// Log each (workload, config) pair as it is dispatched.
    pub verbose: bool,
    /// Worker threads (`--jobs N`); `1` means fully sequential.
    pub jobs: usize,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions { budget: DEFAULT_BUDGET, verbose: false, jobs: default_jobs() }
    }
}

impl SweepOptions {
    /// Options with the given budget and default parallelism.
    pub fn new(budget: u64) -> SweepOptions {
        SweepOptions { budget, ..SweepOptions::default() }
    }

    /// Overrides the worker count.
    pub fn jobs(mut self, jobs: usize) -> SweepOptions {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables or disables per-run dispatch logging.
    pub fn verbose(mut self, verbose: bool) -> SweepOptions {
        self.verbose = verbose;
        self
    }
}

/// Display name of the configuration every normalization divides by
/// (paper Table 2's insecure baseline).
pub const BASELINE_CONFIG: &str = "UnsafeBaseline";

/// Reports a failed sweep cell and exits: the standard way every binary
/// surfaces a wedged (workload, config, threat) pair.
pub fn exit_sweep_error(e: &SweepError) -> ! {
    eprintln!("sweep failed: {e}");
    std::process::exit(1);
}

/// Builds the standard bench-scale workload suite.
pub fn bench_suite() -> Vec<Workload> {
    spt_workloads::full_suite(Scale::Bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_workload_quickly() {
        let w = &spt_workloads::ct_suite(Scale::Bench)[1]; // chacha20
        let row = run_workload(w, Config::unsafe_baseline(ThreatModel::Spectre), 2_000)
            .expect("chacha20 runs");
        assert!(row.retired >= 2_000);
        assert!(row.cycles > 0);
        assert!(row.stats.ipc() > 0.1, "chacha20 should have reasonable IPC");
    }

    #[test]
    fn a_machine_copies_only_the_pages_it_writes() {
        let w = spt_workloads::spec::fotonik(Scale::Bench);
        let image = w.image.image_pages();
        assert_eq!(image, 2048, "two 4 MiB fields");
        let mut m = prepare_machine(&w, Config::spt_full(ThreatModel::Futuristic));
        assert_eq!(m.mem().store_ref().private_pages(), 0, "start-up copies no page");
        m.run(RunLimits::retired(5_000)).expect("fotonik3d runs");
        let private = m.mem().store_ref().private_pages();
        assert!(private > 0, "the streaming update writes its field");
        assert!(private * 32 < image, "{private} of {image} pages copied in 5 000 instructions");
        assert_eq!(w.image.private_pages(), 0, "the workload's image is untouched");
    }

    #[test]
    fn pool_is_reexported_from_util() {
        // The pool itself is unit-tested in `spt-util`; this guards the
        // re-export path the binaries and older callers rely on.
        assert_eq!(run_indexed(4, 2, |i| i + 1), vec![1, 2, 3, 4]);
        assert!(default_jobs() >= 1);
    }
}
