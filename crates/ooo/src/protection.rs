//! The protection scheme the pipeline consults (paper §6.3–6.4).
//!
//! The schemes differ in one decision: when a transmitter may issue and
//! when a branch (or a deferred memory-order violation) may apply its
//! resolution. Both wait until the instruction's leak operands are
//! untainted or it reaches the visibility point (VP) — STT's
//! implicit-channel rule, which SPT inherits — so [`Protection`] exposes
//! that as one gate, [`Protection::leak_allowed`], plus the lifecycle hooks
//! that keep each scheme's taint state current.
//!
//! Under STT the VP disjunct never changes a verdict: an entry at the VP
//! has only older instructions ahead of it, and the VP frontier — which
//! `update_vp` advances before any stage consults the gate — has passed
//! every one of them, so no leak operand can descend from a load past it.
//! The gate asserts this in debug builds.

use crate::rob::RobEntry;
use spt_core::{
    Config, PhysReg, ProtectionKind, RenameInfo, Seq, SttTracker, TaintEngine, TaintMask,
};
use spt_isa::Inst;

/// The active protection scheme and its taint state.
#[derive(Clone, Debug)]
pub(crate) enum Protection {
    /// UnsafeBaseline: nothing is ever held back.
    Unsafe,
    /// SPT's taint engine; with untainting off this is SecureBaseline,
    /// whose transmitters only ever pass the gate at the VP.
    Spt(Box<TaintEngine>),
    /// STT's s-taint tracker.
    Stt(SttTracker),
}

impl Protection {
    /// Builds the scheme `cfg` selects for a core with `num_phys`
    /// physical registers.
    pub(crate) fn new(cfg: Config, num_phys: usize) -> Protection {
        match cfg.kind {
            ProtectionKind::Unsafe => Protection::Unsafe,
            ProtectionKind::Stt => Protection::Stt(SttTracker::new(num_phys)),
            ProtectionKind::Spt => {
                let mut engine = TaintEngine::new(cfg, num_phys);
                // Physical register 0 (the architectural constant zero) is
                // public: its value is program text. SecureBaseline tracks
                // no taint, so there it stays tainted and transmitters wait
                // for the VP regardless.
                if cfg.untaint.forward() {
                    // A synthetic Const rename on phys 0, immediately retired.
                    engine.rename(RenameInfo {
                        seq: 0,
                        class: spt_isa::InstClass::Const,
                        srcs: [None, None, None],
                        dest: Some(0),
                        load_bytes: None,
                    });
                    engine.retire(0);
                }
                Protection::Spt(Box::new(engine))
            }
        }
    }

    /// The SPT taint engine, if this is SPT (or SecureBaseline).
    pub(crate) fn engine(&self) -> Option<&TaintEngine> {
        match self {
            Protection::Spt(engine) => Some(engine),
            _ => None,
        }
    }

    /// Mutable access to the SPT taint engine.
    pub(crate) fn engine_mut(&mut self) -> Option<&mut TaintEngine> {
        match self {
            Protection::Spt(engine) => Some(engine),
            _ => None,
        }
    }

    /// The one protection gate: whether `e` may leak its operands now —
    /// issue as a transmitter, or apply a branch resolution or violation
    /// squash. True once every leak operand is untainted or `e` has
    /// reached the VP.
    pub(crate) fn leak_allowed(&self, e: &RobEntry) -> bool {
        match self {
            Protection::Unsafe => true,
            Protection::Spt(engine) => e.vp || engine.leak_operands_clear(e.seq),
            Protection::Stt(stt) => {
                let clear = || {
                    e.inst.sources().iter().enumerate().all(|(i, (_, role))| {
                        !role.leaks_at_vp() || e.srcs[i].is_none_or(|p| !stt.tainted(p))
                    })
                };
                debug_assert!(
                    !e.vp || clear(),
                    "STT entry {} at the VP has a tainted leak operand",
                    e.seq
                );
                e.vp || clear()
            }
        }
    }

    /// Registers a renamed instruction. Returns the destination's taint
    /// under SPT, `None` under the other schemes.
    pub(crate) fn rename(
        &mut self,
        seq: Seq,
        inst: Inst,
        srcs: [Option<PhysReg>; 3],
        dest: Option<PhysReg>,
    ) -> Option<TaintMask> {
        match self {
            Protection::Unsafe => None,
            Protection::Spt(engine) => {
                let mut info_srcs = [None; 3];
                for (k, (_, role)) in inst.sources().iter().enumerate() {
                    info_srcs[k] = Some((srcs[k].expect("looked up"), role));
                }
                Some(engine.rename(RenameInfo {
                    seq,
                    class: inst.class(),
                    srcs: info_srcs,
                    dest,
                    load_bytes: match inst {
                        Inst::Load { size, .. } => Some(size.bytes()),
                        _ => None,
                    },
                }))
            }
            Protection::Stt(stt) => {
                if matches!(inst, Inst::Load { .. }) {
                    if let Some(d) = dest {
                        stt.rename_load(seq, d);
                    }
                } else {
                    stt.rename_alu(&srcs, dest);
                }
                None
            }
        }
    }

    /// Entries `newly_vp` reached the VP this cycle, and every entry up to
    /// seq `frontier` is non-speculative for younger ones: SPT declassifies
    /// the new entries' leak operands (§6.6), STT advances its frontier.
    pub(crate) fn reach_vp(&mut self, newly_vp: &[Seq], frontier: Option<Seq>) {
        match self {
            Protection::Unsafe => {}
            Protection::Spt(engine) => {
                for &seq in newly_vp {
                    engine.declassify_vp(seq);
                }
            }
            Protection::Stt(stt) => {
                if let Some(f) = frontier {
                    stt.advance_vp_frontier(f);
                }
            }
        }
    }

    /// Entry `seq` retired.
    pub(crate) fn retire(&mut self, seq: Seq) {
        if let Some(engine) = self.engine_mut() {
            engine.retire(seq);
        }
    }

    /// Every entry with seq `from` or younger was squashed.
    pub(crate) fn squash_from(&mut self, from: Seq) {
        if let Some(engine) = self.engine_mut() {
            engine.squash_from(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_core::{ThreatModel, UntaintKind};
    use spt_isa::{MemSize, Reg};

    /// A load of `[base]` at `seq` reading phys `addr`, writing phys `dest`.
    fn load(seq: Seq, addr: PhysReg, dest: PhysReg) -> RobEntry {
        let inst = Inst::Load {
            rd: Reg::R1,
            base: Reg::R2,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8,
        };
        RobEntry::new(seq, 0, inst, [Some(addr), None, None], Some((Reg::R1, dest, 0)), 0, 1, false)
    }

    fn rename(p: &mut Protection, e: &RobEntry) -> Option<TaintMask> {
        p.rename(e.seq, e.inst, e.srcs, e.dest.map(|(_, new, _)| new))
    }

    #[test]
    fn unsafe_always_allows() {
        let mut p = Protection::new(Config::unsafe_baseline(ThreatModel::Futuristic), 16);
        let e = load(1, 5, 6);
        assert_eq!(rename(&mut p, &e), None);
        assert!(p.leak_allowed(&e));
    }

    #[test]
    fn spt_allows_at_the_vp_or_with_clear_leak_operands() {
        let mut p = Protection::new(Config::spt_full(ThreatModel::Futuristic), 16);
        // Phys 5 holds tainted program data.
        let mut e = load(1, 5, 6);
        assert!(rename(&mut p, &e).is_some_and(|m| m.any()));
        assert!(!p.leak_allowed(&e));
        e.vp = true;
        assert!(p.leak_allowed(&e));

        let e = load(2, 5, 7);
        rename(&mut p, &e);
        assert!(!p.leak_allowed(&e));
        p.engine_mut().expect("SPT engine").untaint_operand(2, 0, UntaintKind::StlBackward);
        assert!(p.leak_allowed(&e));

        // The constant-zero register is public from the start, except under
        // SecureBaseline, which only ever allows at the VP.
        let e = load(3, 0, 8);
        rename(&mut p, &e);
        assert!(p.leak_allowed(&e));
        let mut p = Protection::new(Config::secure_baseline(ThreatModel::Spectre), 16);
        let mut e = load(1, 0, 6);
        rename(&mut p, &e);
        assert!(!p.leak_allowed(&e));
        e.vp = true;
        assert!(p.leak_allowed(&e));
    }

    #[test]
    fn stt_blocks_a_load_past_the_frontier_until_reach_vp_passes_it() {
        let mut p = Protection::new(Config::stt(ThreatModel::Futuristic), 16);
        // Seq 5 loads phys 3; seq 6's address is phys 3.
        let first = load(5, 1, 3);
        let second = load(6, 3, 4);
        assert_eq!(rename(&mut p, &first), None);
        assert_eq!(rename(&mut p, &second), None);
        assert!(p.leak_allowed(&first), "an address with no load ancestry is public");
        assert!(!p.leak_allowed(&second));
        p.reach_vp(&[5], Some(4));
        assert!(!p.leak_allowed(&second));
        p.reach_vp(&[], Some(5));
        assert!(p.leak_allowed(&second));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "at the VP has a tainted leak operand")]
    fn stt_gate_asserts_vp_implies_clear() {
        let mut p = Protection::new(Config::stt(ThreatModel::Futuristic), 16);
        rename(&mut p, &load(5, 1, 3));
        let mut e = load(6, 3, 4);
        rename(&mut p, &e);
        e.vp = true;
        p.leak_allowed(&e);
    }
}
