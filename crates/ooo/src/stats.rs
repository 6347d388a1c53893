//! Machine-level statistics and run outcomes.

use spt_core::SptStats;
use spt_util::Json;
use std::error::Error;
use std::fmt;

/// Counters accumulated by one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions fetched (including wrong path).
    pub fetched: u64,
    /// Pipeline squashes (mispredictions + memory-order violations).
    pub squashes: u64,
    /// Conditional-branch mispredictions (resolved wrong path).
    pub branch_mispredicts: u64,
    /// Indirect-target mispredictions.
    pub indirect_mispredicts: u64,
    /// Retired conditional branches.
    pub retired_branches: u64,
    /// Memory-order violations (store found a younger load with stale data).
    pub mem_violations: u64,
    /// Cycle-counts during which a ready transmitter was blocked only by
    /// the protection policy.
    pub transmitter_delay_cycles: u64,
    /// Cycle-counts during which branch-resolution effects were deferred by
    /// the protection policy.
    pub resolution_delay_cycles: u64,
    /// Loads that received forwarded store data.
    pub stl_forwards: u64,
    /// SPT taint-engine statistics (zeroed for non-SPT configurations).
    pub spt: SptStats,
}

impl MachineStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over retired conditional branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.retired_branches == 0 {
            0.0
        } else {
            self.branch_mispredicts as f64 / self.retired_branches as f64
        }
    }

    /// Renders every counter (plus derived rates and the SPT sub-block) as
    /// one JSON object — the `machine` section of the stats document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::U64(self.cycles)),
            ("retired", Json::U64(self.retired)),
            ("fetched", Json::U64(self.fetched)),
            ("ipc", Json::F64(self.ipc())),
            ("squashes", Json::U64(self.squashes)),
            ("branch_mispredicts", Json::U64(self.branch_mispredicts)),
            ("indirect_mispredicts", Json::U64(self.indirect_mispredicts)),
            ("retired_branches", Json::U64(self.retired_branches)),
            ("mispredict_rate", Json::F64(self.mispredict_rate())),
            ("mem_violations", Json::U64(self.mem_violations)),
            ("transmitter_delay_cycles", Json::U64(self.transmitter_delay_cycles)),
            ("resolution_delay_cycles", Json::U64(self.resolution_delay_cycles)),
            ("stl_forwards", Json::U64(self.stl_forwards)),
            ("spt", self.spt.to_json()),
        ])
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The program retired `Halt`.
    Halted,
    /// The retired-instruction budget was reached.
    RetireBudget,
    /// The cycle budget was reached.
    CycleBudget,
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Cycles executed.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Why the run stopped.
    pub reason: StopReason,
}

/// A simulation error (machine wedged — always a simulator bug, never a
/// legal program outcome).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No instruction retired for an implausibly long time.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Instructions retired before the machine wedged.
        retired: u64,
        /// PC of the reorder-buffer head, if any.
        head_pc: Option<u64>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, retired, head_pc } => {
                write!(
                    f,
                    "pipeline deadlock at cycle {cycle} after {retired} retired \
                     (head pc {head_pc:?})"
                )
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = MachineStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn rates() {
        let s = MachineStats {
            cycles: 100,
            retired: 250,
            retired_branches: 10,
            branch_mispredicts: 2,
            ..MachineStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_has_counters_and_spt_block() {
        let s = MachineStats {
            cycles: 100,
            retired: 250,
            transmitter_delay_cycles: 17,
            ..MachineStats::default()
        };
        let j = s.to_json();
        assert_eq!(j.get("cycles").and_then(Json::as_u64), Some(100));
        assert_eq!(j.get("transmitter_delay_cycles").and_then(Json::as_u64), Some(17));
        assert!((j.get("ipc").and_then(Json::as_f64).unwrap() - 2.5).abs() < 1e-12);
        assert!(j.get("spt").and_then(|s| s.get("untaint_events_total")).is_some());
        // Round-trips through the text form.
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(back.get("retired").and_then(Json::as_u64), Some(250));
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::Deadlock { cycle: 10, retired: 7, head_pc: Some(3) };
        let text = e.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("7 retired"));
    }
}
