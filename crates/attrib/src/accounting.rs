//! Figure-7-style stacked cycle accounting from run telemetry.
//!
//! Where [`crate::diff`] explains one run pair instruction by
//! instruction, this module explains the whole Figure-7 matrix cell by
//! cell: each (workload, config) cycle count becomes a stack of
//!
//! * **base** — the UnsafeBaseline cycles for the same workload,
//! * **transmitter-delay** — cycles transmitters spent held by the taint
//!   gate ([`spt_ooo::MachineStats::transmitter_delay_cycles`]),
//! * **resolution-delay** — cycles branch resolutions were deferred,
//! * **backpressure** — the residual of the measured delta no direct SPT
//!   counter explains (occupancy-induced second-order cost).
//!
//! # Overlap normalization
//!
//! The two SPT counters are *per-blocked-instruction per-cycle*: several
//! transmitters can be held in the same machine cycle, and a held
//! transmitter hides under a deferred branch, so their raw sum can exceed
//! the end-to-end cycle delta (they overlap). The stack therefore
//! normalizes: if the raw counters under-explain the delta, the remainder
//! is named backpressure; if they over-explain it, both components are
//! scaled by `delta / explained` (the cell records the scale factor); a
//! negative delta (protected run faster — wrong-path cache pollution can
//! legitimately do this) puts the whole delta in backpressure. The
//! stack-sum consistency check (`|stack − delta| ≤ tol·max(|delta|, 1)`)
//! then guards the arithmetic end to end, and the per-cell occupancy
//! percentiles (from the telemetry histograms) let a reader judge the
//! backpressure share.

use spt_bench::runner::{prepare_machine, run_prepared, RunRow, SweepError, BASELINE_CONFIG};
use spt_core::{Config, ThreatModel};
use spt_util::run_indexed;
use spt_workloads::Workload;

/// Knobs for [`account_matrix`].
#[derive(Clone, Copy, Debug)]
pub struct AccountingOptions {
    /// Retired-instruction budget per cell.
    pub budget: u64,
    /// Worker threads.
    pub jobs: usize,
    /// Log each cell as it is dispatched.
    pub verbose: bool,
    /// Stack-sum consistency tolerance (fraction of the measured delta).
    pub tolerance: f64,
}

impl Default for AccountingOptions {
    fn default() -> Self {
        AccountingOptions {
            budget: spt_bench::runner::DEFAULT_BUDGET,
            jobs: spt_util::default_jobs(),
            verbose: false,
            tolerance: 0.05,
        }
    }
}

/// One accounted matrix cell.
#[derive(Clone, Debug)]
pub struct AccountedCell {
    /// Workload name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// UnsafeBaseline cycles for the same workload.
    pub base_cycles: u64,
    /// `cycles - base_cycles`.
    pub delta: i64,
    /// Raw transmitter-delay counter (pre-normalization).
    pub raw_transmitter: u64,
    /// Raw resolution-delay counter (pre-normalization).
    pub raw_resolution: u64,
    /// Normalized transmitter-delay component of the stack.
    pub transmitter_delay: f64,
    /// Normalized resolution-delay component of the stack.
    pub resolution_delay: f64,
    /// Residual component of the stack.
    pub backpressure: f64,
    /// Factor the raw SPT counters were scaled by (1.0 = unscaled; < 1.0
    /// when they over-explained the delta through overlap).
    pub scale: f64,
    /// ROB-occupancy p50 from telemetry (cycles sampled).
    pub rob_occ_p50: u64,
    /// ROB-occupancy p99 from telemetry.
    pub rob_occ_p99: u64,
    /// Per-transmitter delay p99 from telemetry.
    pub xmit_delay_p99: u64,
}

impl AccountedCell {
    /// The stacked components summed (should reproduce `delta`).
    pub fn stack_sum(&self) -> f64 {
        self.transmitter_delay + self.resolution_delay + self.backpressure
    }

    /// Whether the stack reproduces the measured delta within
    /// `tolerance` (a fraction of `max(|delta|, 1)`).
    pub fn consistent(&self, tolerance: f64) -> bool {
        self.relative_error() <= tolerance
    }

    /// `|stack − delta|` as a fraction of `max(|delta|, 1)`.
    pub fn relative_error(&self) -> f64 {
        (self.stack_sum() - self.delta as f64).abs() / (self.delta.unsigned_abs().max(1) as f64)
    }
}

/// Splits a measured cycle delta into the stacked components (see the
/// module docs for the normalization rules). Returns
/// `(transmitter, resolution, backpressure, scale)`.
pub fn breakdown(delta: i64, raw_transmitter: u64, raw_resolution: u64) -> (f64, f64, f64, f64) {
    if delta <= 0 {
        // Protected run no slower: nothing for the SPT counters to
        // explain; the (possibly negative) delta is all second-order.
        return (0.0, 0.0, delta as f64, 1.0);
    }
    let explained = (raw_transmitter + raw_resolution) as f64;
    let delta_f = delta as f64;
    if explained <= delta_f {
        (raw_transmitter as f64, raw_resolution as f64, delta_f - explained, 1.0)
    } else {
        let scale = delta_f / explained;
        (raw_transmitter as f64 * scale, raw_resolution as f64 * scale, 0.0, scale)
    }
}

/// The accounted Figure-7 matrix for one threat model.
#[derive(Clone, Debug)]
pub struct AccountingReport {
    /// Attack model.
    pub threat: ThreatModel,
    /// Budget each cell ran for.
    pub budget: u64,
    /// Consistency tolerance the report was checked against.
    pub tolerance: f64,
    /// Configuration names in Table-2 order.
    pub configs: Vec<String>,
    /// Workload names in suite order.
    pub workloads: Vec<String>,
    /// `cells[w][c]`.
    pub cells: Vec<Vec<AccountedCell>>,
}

impl AccountingReport {
    /// Whether every cell's stack reproduces its measured delta within
    /// the report tolerance.
    pub fn consistent(&self) -> bool {
        self.cells.iter().flatten().all(|c| c.consistent(self.tolerance))
    }

    /// The largest relative stack-sum error over all cells.
    pub fn worst_relative_error(&self) -> f64 {
        self.cells.iter().flatten().map(AccountedCell::relative_error).fold(0.0, f64::max)
    }

    /// Cells failing the consistency check, as `(workload, config)`.
    pub fn inconsistent_cells(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .flatten()
            .filter(|c| !c.consistent(self.tolerance))
            .map(|c| (c.workload.clone(), c.config.clone()))
            .collect()
    }
}

/// Telemetry extract carried out of the worker closure alongside the row.
struct CellRun {
    row: RunRow,
    rob_occ_p50: u64,
    rob_occ_p99: u64,
    xmit_delay_p99: u64,
}

/// Runs the Figure-7 matrix with telemetry enabled and accounts every
/// cell. Cell order matches the sequential nested loop (workloads outer,
/// Table-2 configs inner) at any job count, like
/// [`spt_bench::reproduce::CellStore::simulate`].
///
/// # Errors
///
/// Returns the first failing cell in deterministic order if any
/// simulation deadlocks.
pub fn account_matrix(
    threat: ThreatModel,
    workloads: &[Workload],
    opts: AccountingOptions,
) -> Result<AccountingReport, SweepError> {
    let configs = Config::table2(threat);
    let cells = workloads.len() * configs.len();
    let results = run_indexed(cells, opts.jobs, |i| {
        let (w, c) = (i / configs.len(), i % configs.len());
        if opts.verbose {
            eprintln!("  accounting {} under {} ...", workloads[w].name, configs[c]);
        }
        let mut m = prepare_machine(&workloads[w], configs[c]);
        m.enable_telemetry();
        let row = run_prepared(&mut m, &workloads[w], configs[c], opts.budget)?;
        let t = m.telemetry().expect("telemetry enabled above");
        Ok(CellRun {
            row,
            rob_occ_p50: t.rob_occupancy.percentile(0.50),
            rob_occ_p99: t.rob_occupancy.percentile(0.99),
            xmit_delay_p99: t.xmit_delay.percentile(0.99),
        })
    });

    let mut runs: Vec<Vec<CellRun>> = Vec::with_capacity(workloads.len());
    let mut row = Vec::with_capacity(configs.len());
    for result in results {
        row.push(result?);
        if row.len() == configs.len() {
            runs.push(std::mem::replace(&mut row, Vec::with_capacity(configs.len())));
        }
    }

    let config_names: Vec<String> = configs.iter().map(|c| c.name().to_string()).collect();
    let baseline = config_names
        .iter()
        .position(|c| c == BASELINE_CONFIG)
        .expect("Table 2 always contains the UnsafeBaseline");

    let accounted = runs
        .into_iter()
        .map(|wrow| {
            let base_cycles = wrow[baseline].row.cycles;
            wrow.into_iter()
                .map(|cell| {
                    let delta = cell.row.cycles as i64 - base_cycles as i64;
                    let raw_t = cell.row.stats.transmitter_delay_cycles;
                    let raw_r = cell.row.stats.resolution_delay_cycles;
                    let (t, r, b, scale) = breakdown(delta, raw_t, raw_r);
                    AccountedCell {
                        workload: cell.row.workload,
                        config: cell.row.config,
                        cycles: cell.row.cycles,
                        retired: cell.row.retired,
                        base_cycles,
                        delta,
                        raw_transmitter: raw_t,
                        raw_resolution: raw_r,
                        transmitter_delay: t,
                        resolution_delay: r,
                        backpressure: b,
                        scale,
                        rob_occ_p50: cell.rob_occ_p50,
                        rob_occ_p99: cell.rob_occ_p99,
                        xmit_delay_p99: cell.xmit_delay_p99,
                    }
                })
                .collect()
        })
        .collect();

    Ok(AccountingReport {
        threat,
        budget: opts.budget,
        tolerance: opts.tolerance,
        configs: config_names,
        workloads: workloads.iter().map(|w| w.name.to_string()).collect(),
        cells: accounted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_under_explained_leaves_residual() {
        let (t, r, b, scale) = breakdown(100, 30, 20);
        assert_eq!((t, r, b, scale), (30.0, 20.0, 50.0, 1.0));
        assert_eq!(t + r + b, 100.0);
    }

    #[test]
    fn breakdown_over_explained_scales() {
        // Overlapping counters: 150 + 90 raw vs a delta of 120.
        let (t, r, b, scale) = breakdown(120, 150, 90);
        assert!((scale - 0.5).abs() < 1e-12);
        assert!((t - 75.0).abs() < 1e-9);
        assert!((r - 45.0).abs() < 1e-9);
        assert_eq!(b, 0.0);
        assert!((t + r + b - 120.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_negative_delta_is_all_backpressure() {
        let (t, r, b, scale) = breakdown(-40, 500, 10);
        assert_eq!((t, r), (0.0, 0.0));
        assert_eq!(b, -40.0);
        assert_eq!(scale, 1.0);
    }

    #[test]
    fn cell_consistency_is_relative() {
        let cell = AccountedCell {
            workload: "w".into(),
            config: "c".into(),
            cycles: 1_100,
            retired: 1_000,
            base_cycles: 1_000,
            delta: 100,
            raw_transmitter: 60,
            raw_resolution: 10,
            transmitter_delay: 60.0,
            resolution_delay: 10.0,
            backpressure: 30.0,
            scale: 1.0,
            rob_occ_p50: 0,
            rob_occ_p99: 0,
            xmit_delay_p99: 0,
        };
        assert!(cell.consistent(0.05));
        assert_eq!(cell.relative_error(), 0.0);
        let mut off = cell;
        off.backpressure = 41.0; // stack 111 vs delta 100 → 11% off
        assert!(!off.consistent(0.05));
        assert!(off.consistent(0.2));
    }
}
