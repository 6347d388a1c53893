//! Public-API behavioural tests for the branch-prediction structures.
//!
//! The inline unit tests pin implementation details; these pin the
//! *contracts* the out-of-order frontend relies on: untrained defaults,
//! trainability, aliasing behaviour, and snapshot/restore recovery after a
//! squash (the frontend recovers the RAS and GHR by restoring a clone
//! taken at the checkpointed branch).

use proptest::prelude::*;
use spt_frontend::{Btb, Frontend, Ghr, Ras, Tage};
use spt_isa::{BranchCond, Inst, Reg};

#[test]
fn ghr_tracks_and_folds_recent_history() {
    let mut ghr = Ghr::new();
    assert!(ghr.is_empty());
    assert_eq!(ghr.fold(16, 10), 0, "empty history folds to zero");

    ghr.push(true);
    ghr.push(false);
    ghr.push(true);
    assert_eq!(ghr.len(), 3);
    assert!(ghr.bit(0), "bit 0 is the most recent outcome");
    assert!(!ghr.bit(1));
    assert!(ghr.bit(2));

    // Folding is confined to out_bits and sensitive to recent outcomes.
    for bits in [1, 7, 10] {
        assert!(ghr.fold(130, bits) < (1u32 << bits), "fold must fit in {bits} bits");
    }
    let before = ghr.fold(8, 10);
    ghr.push(true);
    assert_ne!(ghr.fold(8, 10), before, "a new outcome perturbs the fold");
}

#[test]
fn ghr_snapshot_restores_across_squash() {
    let mut ghr = Ghr::new();
    for i in 0..20 {
        ghr.push(i % 3 == 0);
    }
    let checkpoint = ghr.clone();
    let fold = ghr.fold(44, 10);
    ghr.push(true); // wrong-path outcome
    ghr.push(true);
    let ghr = checkpoint; // squash: restore the checkpoint
    assert_eq!(ghr.fold(44, 10), fold);
    assert_eq!(ghr.len(), 20);
}

#[test]
fn tage_untrained_predicts_not_taken() {
    let tage = Tage::new();
    let ghr = Ghr::new();
    for pc in [4, 0x40, 0x1234, 0xfff7] {
        let (pred, _) = tage.predict(pc, &ghr);
        assert!(!pred, "untrained prediction for pc {pc:#x} should be not-taken");
    }
}

#[test]
fn tage_learns_a_strong_bias_quickly() {
    let mut tage = Tage::new();
    let ghr = Ghr::new();
    let pc = 0x100;
    for _ in 0..4 {
        let (_, info) = tage.predict(pc, &ghr);
        tage.update(pc, &info, true);
    }
    let (pred, _) = tage.predict(pc, &ghr);
    assert!(pred, "four taken outcomes must flip the bimodal counter");
}

#[test]
fn tage_learns_a_history_pattern_the_bimodal_cannot() {
    // Period-2 alternation keeps a 2-bit bimodal counter hovering around
    // the decision boundary; only the tagged history components can track
    // it. Feed the *global* history as the frontend would.
    let mut tage = Tage::new();
    let mut ghr = Ghr::new();
    let pc = 0x2a8;
    let (mut correct, mut total) = (0u32, 0u32);
    for i in 0..400u32 {
        let taken = i % 2 == 0;
        let (pred, info) = tage.predict(pc, &ghr);
        if i >= 300 {
            total += 1;
            correct += u32::from(pred == taken);
        }
        tage.update(pc, &info, taken);
        ghr.push(taken);
    }
    assert!(
        correct * 100 >= total * 90,
        "expected the tagged components to learn the alternation; got {correct}/{total}"
    );
}

#[test]
fn tage_training_does_not_bleed_into_other_pcs() {
    let mut tage = Tage::new();
    let ghr = Ghr::new();
    let trained = 0x400;
    for _ in 0..64 {
        let (_, info) = tage.predict(trained, &ghr);
        tage.update(trained, &info, true);
    }
    let (pred, _) = tage.predict(0x404, &ghr);
    assert!(!pred, "a neighbouring untrained branch keeps the default prediction");
}

#[test]
fn ras_is_lifo_and_survives_checkpoint_recovery() {
    let mut ras = Ras::new();
    ras.push(0x100);
    ras.push(0x200);
    let checkpoint = ras.clone();

    // Wrong-path speculation: a call and two returns beyond the checkpoint.
    ras.push(0xbad);
    ras.pop();
    ras.pop();
    assert_ne!(ras, checkpoint);

    // Squash: restore, then the good path sees the checkpointed stack.
    let mut ras = checkpoint;
    assert_eq!(ras.pop(), Some(0x200));
    assert_eq!(ras.pop(), Some(0x100));
    assert_eq!(ras.pop(), None);
}

#[test]
fn ras_overflow_discards_oldest_only() {
    let mut ras = Ras::new();
    let n = Ras::DEPTH as u64 + 3;
    for i in 0..n {
        ras.push(0x1000 + i);
    }
    assert_eq!(ras.len(), Ras::DEPTH, "depth is capped");
    for i in (3..n).rev() {
        assert_eq!(ras.pop(), Some(0x1000 + i), "newest DEPTH entries are intact");
    }
    // The three oldest were overwritten by the wrap, not recoverable.
    assert!(ras.pop().is_some() || ras.is_empty());
}

#[test]
fn btb_direct_mapped_aliasing() {
    let mut btb = Btb::new();
    let a = 0x80;
    let b = a + (1 << 12); // same index, different tag
    btb.update(a, 0x1111);
    assert_eq!(btb.lookup(a), Some(0x1111));
    assert_eq!(btb.lookup(b), None, "tag mismatch must not alias");

    btb.update(b, 0x2222);
    assert_eq!(btb.lookup(b), Some(0x2222));
    assert_eq!(btb.lookup(a), None, "direct-mapped conflict evicts the old entry");

    btb.update(a, 0x3333);
    assert_eq!(btb.lookup(a), Some(0x3333), "re-training restores the mapping");
}

/// One step of a random frontend drive.
#[derive(Clone, Debug)]
enum FeOp {
    /// Predict a conditional branch at this pc, then train it with the
    /// given outcome.
    Branch(u64, bool),
    /// Take a checkpoint (kept on a stack of up to eight).
    Checkpoint,
    /// Restore the checkpoint this many entries down the stack.
    Restore(usize),
    /// Recover a mispredicted branch at this pc with this outcome from the
    /// checkpoint this many entries down the stack.
    Recover(usize, u64, bool),
}

fn fe_op() -> impl Strategy<Value = FeOp> {
    prop_oneof![
        (0u64..64, any::<bool>()).prop_map(|(pc, t)| FeOp::Branch(pc, t)),
        (0u64..64, any::<bool>()).prop_map(|(pc, t)| FeOp::Branch(pc, t)),
        (0u64..64, any::<bool>()).prop_map(|(pc, t)| FeOp::Branch(pc, t)),
        Just(FeOp::Checkpoint),
        (0usize..8).prop_map(FeOp::Restore),
        (0usize..8, 0u64..64, any::<bool>()).prop_map(|(k, pc, t)| FeOp::Recover(k, pc, t)),
    ]
}

proptest! {
    /// The folded history registers TAGE reads equal a from-scratch
    /// `Ghr::fold` after every predict, checkpoint, restore and recover,
    /// including across the 130-bit longest history and the 256-bit
    /// saturation of the register.
    #[test]
    fn folded_history_matches_refold_through_squashes(
        ops in proptest::collection::vec(fe_op(), 1..800)
    ) {
        let mut fe = Frontend::new();
        let mut checkpoints = vec![fe.checkpoint()];
        for op in ops {
            match op {
                FeOp::Branch(pc, taken) => {
                    let br = Inst::Branch {
                        cond: BranchCond::Ne,
                        rs1: Reg::R1,
                        rs2: Reg::R0,
                        target: pc as u32 + 5,
                    };
                    let p = fe.predict(pc, &br);
                    fe.train(pc, &br, taken, pc + 5, p.info.as_ref());
                }
                FeOp::Checkpoint => {
                    if checkpoints.len() == 8 {
                        checkpoints.remove(0);
                    }
                    checkpoints.push(fe.checkpoint());
                }
                FeOp::Restore(k) => {
                    let cp = &checkpoints[checkpoints.len() - 1 - k % checkpoints.len()];
                    fe.restore(cp);
                }
                FeOp::Recover(k, pc, taken) => {
                    let br = Inst::Branch {
                        cond: BranchCond::Eq,
                        rs1: Reg::R2,
                        rs2: Reg::R0,
                        target: pc as u32 + 9,
                    };
                    let cp = &checkpoints[checkpoints.len() - 1 - k % checkpoints.len()];
                    fe.recover(cp, pc, &br, taken);
                }
            }
            let ghr = fe.ghr();
            for (k, &(h, o)) in Ghr::FOLDS.iter().enumerate() {
                prop_assert_eq!(ghr.folded(k), ghr.fold(h, o), "fold ({}, {})", h, o);
            }
        }
    }
}
