//! Branch prediction and fetch direction for the SPT reproduction.
//!
//! Implements an LTAGE-style predictor (paper Table 1): a bimodal base
//! predictor plus four TAGE tagged components with geometric history
//! lengths, a branch target buffer for direct/indirect targets, and a
//! return address stack. The [`Frontend`] facade owns the speculative
//! global history and RAS, supports checkpoint/restore across squashes,
//! and is trained at branch resolution.
//!
//! STT/SPT's implicit-channel rule "tainted data must not affect predictor
//! state" (paper §2.2.1, §6.4) is satisfied structurally: the predictor is
//! only ever trained with the outcome of a branch whose resolution effects
//! have been allowed by the protection policy (i.e. whose predicate is
//! untainted or which has reached the visibility point).
//!
//! # Example
//!
//! ```
//! use spt_frontend::Frontend;
//! use spt_isa::{BranchCond, Inst, Reg};
//!
//! let mut fe = Frontend::new();
//! let br = Inst::Branch { cond: BranchCond::Ne, rs1: Reg::R1, rs2: Reg::R0, target: 7 };
//! // Train an always-taken branch at pc 3; the predictor learns it.
//! for _ in 0..64 {
//!     let p = fe.predict(3, &br);
//!     fe.train(3, &br, true, 7, p.info.as_ref());
//! }
//! let p = fe.predict(3, &br);
//! assert!(p.predicted_taken);
//! assert_eq!(p.next_pc, 7);
//! ```

pub mod btb;
pub mod ghr;
pub mod ras;
pub mod tage;

pub use btb::Btb;
pub use ghr::Ghr;
pub use ras::Ras;
pub use tage::{PredictInfo, Tage};

use spt_isa::Inst;

/// The result of predicting one instruction at fetch.
#[derive(Clone, Debug)]
pub struct FetchPrediction {
    /// Predicted next PC.
    pub next_pc: u64,
    /// For conditional branches, the predicted direction.
    pub predicted_taken: bool,
    /// TAGE bookkeeping required to train/deallocate at resolution.
    pub info: Option<PredictInfo>,
}

/// Snapshot of speculative frontend state, restored on squash.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    ghr: Ghr,
    ras: Ras,
}

/// Prediction-volume counters, by control-flow class.
///
/// Counted at *predict* time, so wrong-path instructions are included —
/// these measure frontend work, not architectural branch counts (those
/// live in the machine's retire-side stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Conditional branches predicted (TAGE lookups).
    pub cond_predictions: u64,
    /// Direct jumps and calls steered.
    pub direct_predictions: u64,
    /// Indirect jumps/calls predicted via the BTB.
    pub indirect_predictions: u64,
    /// Returns predicted via the RAS.
    pub ras_predictions: u64,
}

impl FrontendStats {
    /// Total predictions across classes.
    pub fn total(&self) -> u64 {
        self.cond_predictions
            + self.direct_predictions
            + self.indirect_predictions
            + self.ras_predictions
    }
}

/// The branch-prediction frontend: TAGE + BTB + RAS + speculative GHR.
#[derive(Clone, Debug)]
pub struct Frontend {
    tage: Tage,
    btb: Btb,
    ras: Ras,
    ghr: Ghr,
    stats: FrontendStats,
}

impl Default for Frontend {
    fn default() -> Frontend {
        Frontend::new()
    }
}

impl Frontend {
    /// Creates an untrained frontend.
    pub fn new() -> Frontend {
        Frontend {
            tage: Tage::new(),
            btb: Btb::new(),
            ras: Ras::new(),
            ghr: Ghr::new(),
            stats: FrontendStats::default(),
        }
    }

    /// Prediction-volume counters accumulated so far.
    pub fn stats(&self) -> &FrontendStats {
        &self.stats
    }

    /// Captures the speculative state (GHR + RAS) *before* predicting an
    /// instruction, so a later squash can rewind past it.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint { ghr: self.ghr.clone(), ras: self.ras.clone() }
    }

    /// Restores a checkpoint taken by [`Frontend::checkpoint`].
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.ghr = cp.ghr.clone();
        self.ras = cp.ras.clone();
    }

    /// Predicts the next PC for `inst` at `pc`, speculatively updating the
    /// GHR (for conditional branches) and RAS (for calls/returns).
    pub fn predict(&mut self, pc: u64, inst: &Inst) -> FetchPrediction {
        match *inst {
            Inst::Branch { target, .. } => {
                self.stats.cond_predictions += 1;
                let (taken, info) = self.tage.predict(pc, &self.ghr);
                self.ghr.push(taken);
                FetchPrediction {
                    next_pc: if taken { target as u64 } else { pc + 1 },
                    predicted_taken: taken,
                    info: Some(info),
                }
            }
            Inst::Jump { target } => {
                self.stats.direct_predictions += 1;
                FetchPrediction { next_pc: target as u64, predicted_taken: true, info: None }
            }
            Inst::Call { target, .. } => {
                self.stats.direct_predictions += 1;
                self.ras.push(pc + 1);
                FetchPrediction { next_pc: target as u64, predicted_taken: true, info: None }
            }
            Inst::CallInd { .. } => {
                self.stats.indirect_predictions += 1;
                self.ras.push(pc + 1);
                let next_pc = self.btb.lookup(pc).unwrap_or(pc + 1);
                FetchPrediction { next_pc, predicted_taken: true, info: None }
            }
            Inst::Ret { .. } => {
                self.stats.ras_predictions += 1;
                let next_pc = self.ras.pop().unwrap_or(pc + 1);
                FetchPrediction { next_pc, predicted_taken: true, info: None }
            }
            Inst::JumpInd { .. } => {
                self.stats.indirect_predictions += 1;
                let next_pc = self.btb.lookup(pc).unwrap_or(pc + 1);
                FetchPrediction { next_pc, predicted_taken: true, info: None }
            }
            _ => FetchPrediction { next_pc: pc + 1, predicted_taken: false, info: None },
        }
    }

    /// Trains the predictor with a resolved control-flow instruction.
    ///
    /// Called when the branch's resolution effects are permitted by the
    /// protection policy, so tainted data never reaches predictor state.
    pub fn train(
        &mut self,
        pc: u64,
        inst: &Inst,
        taken: bool,
        target: u64,
        info: Option<&PredictInfo>,
    ) {
        if inst.is_cond_branch() {
            if let Some(info) = info {
                self.tage.update(pc, info, taken);
            }
        }
        if inst.is_indirect() && !matches!(inst, Inst::Ret { .. }) {
            self.btb.update(pc, target);
        }
    }

    /// Rewinds speculative state to `cp` (taken before the mispredicted
    /// instruction was predicted) and replays the instruction's own GHR/RAS
    /// effect with the *actual* outcome, so fetch restarts consistently.
    pub fn recover(&mut self, cp: &Checkpoint, pc: u64, inst: &Inst, actual_taken: bool) {
        self.restore(cp);
        match *inst {
            Inst::Branch { .. } => self.ghr.push(actual_taken),
            Inst::Call { .. } | Inst::CallInd { .. } => self.ras.push(pc + 1),
            Inst::Ret { .. } => {
                let _ = self.ras.pop();
            }
            _ => {}
        }
    }

    /// Read access to the global history register (tests).
    pub fn ghr(&self) -> &Ghr {
        &self.ghr
    }

    /// Read access to the return address stack (tests).
    pub fn ras(&self) -> &Ras {
        &self.ras
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_isa::{BranchCond, Reg};

    fn branch(target: u32) -> Inst {
        Inst::Branch { cond: BranchCond::Ne, rs1: Reg::R1, rs2: Reg::R0, target }
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut fe = Frontend::new();
        let cp = fe.checkpoint();
        fe.predict(1, &branch(10));
        fe.predict(5, &Inst::Call { target: 20, link: Reg::R31 });
        fe.restore(&cp);
        assert_eq!(fe.ghr(), &Ghr::new());
        assert!(fe.ras().is_empty());
    }

    #[test]
    fn call_ret_pairs_predict_via_ras() {
        let mut fe = Frontend::new();
        fe.predict(10, &Inst::Call { target: 50, link: Reg::R31 });
        let p = fe.predict(55, &Inst::Ret { link: Reg::R31 });
        assert_eq!(p.next_pc, 11);
    }

    #[test]
    fn indirect_jump_uses_btb_after_training() {
        let mut fe = Frontend::new();
        let jr = Inst::JumpInd { base: Reg::R4 };
        let p = fe.predict(7, &jr);
        assert_eq!(p.next_pc, 8, "untrained BTB falls through");
        fe.train(7, &jr, true, 42, None);
        let p = fe.predict(7, &jr);
        assert_eq!(p.next_pc, 42);
    }

    #[test]
    fn prediction_counters_by_class() {
        let mut fe = Frontend::new();
        fe.predict(1, &branch(9));
        fe.predict(2, &Inst::Jump { target: 8 });
        fe.predict(3, &Inst::Call { target: 20, link: Reg::R31 });
        fe.predict(21, &Inst::Ret { link: Reg::R31 });
        fe.predict(4, &Inst::JumpInd { base: Reg::R4 });
        fe.predict(5, &Inst::Nop); // non-control-flow: uncounted
        let s = fe.stats();
        assert_eq!(s.cond_predictions, 1);
        assert_eq!(s.direct_predictions, 2);
        assert_eq!(s.indirect_predictions, 1);
        assert_eq!(s.ras_predictions, 1);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn recover_replays_actual_outcome() {
        let mut fe = Frontend::new();
        let cp = fe.checkpoint();
        let p = fe.predict(3, &branch(9));
        assert!(!p.predicted_taken, "untrained predictor defaults not-taken");
        fe.recover(&cp, 3, &branch(9), true);
        // GHR now contains exactly one bit: `true`.
        assert_eq!(fe.ghr().len(), 1);
        assert!(fe.ghr().bit(0));
    }
}
