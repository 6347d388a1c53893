//! Greedy instruction-deletion shrinker.
//!
//! Candidate instructions are replaced by `Nop` rather than removed:
//! branch targets are absolute instruction indices, so deleting an
//! instruction would silently retarget every later branch. The pass
//! repeats until no single replacement keeps the failure alive, which is
//! usually enough to strip a generated program down to the handful of
//! instructions that matter.

use crate::generator::TestProgram;
use spt_isa::{Inst, Program};

/// Maximum full passes over the program (each pass is O(n) candidate
/// re-checks, and re-checks run the whole differential/relational
/// machinery, so this is the knob bounding shrink cost).
const MAX_PASSES: usize = 4;

/// Shrinks `tp` while `still_fails` holds, returning the smallest variant
/// found. `still_fails(&tp)` must be `true` on entry for the result to be
/// meaningful (the original is returned unchanged otherwise).
pub fn shrink<F>(tp: &TestProgram, mut still_fails: F) -> TestProgram
where
    F: FnMut(&TestProgram) -> bool,
{
    let mut insts: Vec<Inst> = tp.program.insts().to_vec();
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for i in 0..insts.len() {
            if matches!(insts[i], Inst::Nop | Inst::Halt) {
                continue;
            }
            let saved = insts[i];
            insts[i] = Inst::Nop;
            let candidate = tp.with_program(Program::from_insts(insts.clone()));
            if still_fails(&candidate) {
                changed = true;
            } else {
                insts[i] = saved;
            }
        }
        if !changed {
            break;
        }
    }
    tp.with_program(Program::from_insts(insts))
}

/// Live (non-`Nop`, non-`Halt`) instructions — the size the shrinker
/// minimizes.
pub fn live_insts(p: &Program) -> usize {
    p.insts().iter().filter(|i| !matches!(i, Inst::Nop | Inst::Halt)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use spt_isa::interp::Interp;
    use spt_isa::Reg;

    /// Shrink against a cheap predicate (final value of one register) to
    /// exercise the mechanics without paying for pipeline runs.
    #[test]
    fn shrinks_to_the_dataflow_of_one_register() {
        let tp = generate(7);
        let final_r20 = |t: &TestProgram| -> Option<u64> {
            let mut it = Interp::with_memory(&t.program, t.memory(&t.secret));
            it.run(400_000).ok()?;
            Some(it.reg(Reg::R20))
        };
        let want = final_r20(&tp).expect("seed 7 halts");
        let shrunk = shrink(&tp, |cand| final_r20(cand) == Some(want));
        assert_eq!(final_r20(&shrunk), Some(want), "shrinking preserved the predicate");
        assert!(
            live_insts(&shrunk.program) < live_insts(&tp.program),
            "expected at least one instruction to be removable"
        );
    }
}
