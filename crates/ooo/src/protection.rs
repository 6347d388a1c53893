//! The protection scheme the pipeline consults (paper §6), and all of its
//! state.
//!
//! The schemes differ in one decision: when a transmitter may issue and
//! when a branch (or a deferred memory-order violation) may apply its
//! resolution. Both wait until the instruction's leak operands are
//! untainted or it reaches the visibility point (VP) — STT's
//! implicit-channel rule, which SPT inherits — so [`Protection`] exposes
//! that as one gate, [`Protection::leak_allowed`].
//!
//! Its lifecycle hooks are the only way the pipeline touches a scheme's
//! taint state: rename, reaching the VP, memory access, load data
//! arrival, store drain, retire, squash, the per-cycle untaint step with
//! the §6.7 store-to-load pass, and the §8 validator drain. SPT owns its
//! register taint engine (§6.3–6.6), the memory taint shadow (§6.8), the
//! recently retired loads that shadow still waits on, and the optional §8
//! validator; STT owns its s-taint tracker. Every hook but rename and
//! reaching the VP is a no-op under Unsafe and STT.
//!
//! Under STT the VP disjunct never changes a verdict: an entry at the VP
//! has only older instructions ahead of it, and the VP frontier — which
//! `update_vp` advances before any stage consults the gate — has passed
//! every one of them, so no leak operand can descend from a load past it.
//! The gate asserts this in debug builds.

use crate::rename::RegisterFile;
use crate::rob::{ExecState, RobEntry, RobIndex};
use crate::sched::{RetiredLoadTable, Scheduler};
use crate::validate::SecurityValidator;
use spt_core::{
    Config, PhysReg, ProtectionKind, RenameInfo, Seq, ShadowMode, ShadowTaint, SptStats,
    SttTracker, TaintEngine, TaintMask, UntaintKind,
};
use spt_isa::Inst;
use spt_mem::LineEvent;
use std::collections::VecDeque;

/// The active protection scheme and its taint state.
#[derive(Clone, Debug)]
pub(crate) enum Protection {
    /// UnsafeBaseline: nothing is ever held back.
    Unsafe,
    /// SPT; with untainting off this is SecureBaseline, whose transmitters
    /// only ever pass the gate at the VP.
    Spt(Box<Spt>),
    /// STT's s-taint tracker.
    Stt(SttTracker),
}

/// SPT's state.
#[derive(Clone, Debug)]
pub(crate) struct Spt {
    engine: TaintEngine,
    /// Memory taint: the shadow L1 or the whole-memory shadow (§6.8).
    shadow: ShadowTaint,
    /// Recently retired, non-forwarded loads whose output register may
    /// still be declassified by an in-flight consumer's visibility point.
    /// When a broadcast untaints such an output, the §6.8 load rule ②
    /// applies (paper §8, proof case 3): the load is non-speculative, its
    /// address is public, so the read bytes become inferable.
    retired_loads: RetiredLoadTable,
    /// Optional §8 model attacker cross-checking every untaint decision.
    validator: Option<SecurityValidator>,
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
                Protection::Spt(Box::new(Spt {
                    engine,
                    shadow: ShadowTaint::new(cfg.shadow),
                    retired_loads: RetiredLoadTable::new(num_phys, 128),
                    validator: None,
                }))
            }
        }
    }

    /// The one protection gate: whether `e` may leak its operands now —
    /// issue as a transmitter, or apply a branch resolution or violation
    /// squash. True once every leak operand is untainted or `e` has
    /// reached the VP.
    pub(crate) fn leak_allowed(&self, e: &RobEntry) -> bool {
        match self {
            Protection::Unsafe => true,
            Protection::Spt(spt) => e.vp || spt.engine.leak_operands_clear(e.seq),
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

    /// Registers the instruction at `pc` renamed as `seq`. Returns the
    /// destination's taint under SPT, `None` under the other schemes.
    pub(crate) fn rename(
        &mut self,
        seq: Seq,
        pc: u64,
        inst: Inst,
        srcs: [Option<PhysReg>; 3],
        dest: Option<PhysReg>,
    ) -> Option<TaintMask> {
        match self {
            Protection::Unsafe => None,
            Protection::Spt(spt) => {
                if let Some(d) = dest {
                    // A recycled register no longer holds a retired load's
                    // value.
                    spt.retired_loads.clear_phys(d);
                }
                let mut info_srcs = [None; 3];
                for (k, (_, role)) in inst.sources().iter().enumerate() {
                    info_srcs[k] = Some((srcs[k].expect("looked up"), role));
                }
                let taint = spt.engine.rename(RenameInfo {
                    seq,
                    class: inst.class(),
                    srcs: info_srcs,
                    dest,
                    load_bytes: match inst {
                        Inst::Load { size, .. } => Some(size.bytes()),
                        _ => None,
                    },
                });
                if let Some(v) = spt.validator.as_mut() {
                    v.on_rename(seq, pc, inst, srcs, dest, dest.is_some() && taint.is_clear());
                }
                Some(taint)
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
            Protection::Spt(spt) => {
                for &seq in newly_vp {
                    spt.engine.declassify_vp(seq);
                }
            }
            Protection::Stt(stt) => {
                if let Some(f) = frontier {
                    stt.advance_vp_frontier(f);
                }
            }
        }
    }

    /// The load or store `seq` issued with address `addr`, raising
    /// `l1_events` in the L1D (none for a store, which touches the cache
    /// when it drains, or an oblivious load): the shadow L1 mirrors them,
    /// and the validator learns the (leaked) address.
    pub(crate) fn mem_access(&mut self, seq: Seq, addr: u64, l1_events: &[LineEvent]) {
        if let Protection::Spt(spt) = self {
            for &ev in l1_events {
                spt.shadow.on_l1_event(ev);
            }
            if let Some(v) = spt.validator.as_mut() {
                v.on_mem_addr(seq, addr);
            }
        }
    }

    /// Load `e`'s data arrived: applies the §6.8 load rules, and makes a
    /// non-forwarded load wait in `sched.shadow_wait` for the post-hoc
    /// rule ② when that can ever run.
    pub(crate) fn load_data(&mut self, e: &RobEntry, sched: &mut Scheduler) {
        let Protection::Spt(spt) = self else { return };
        if e.mem.fwd_from.is_some() {
            // Forwarded data flows via STLPublic (the untaint step).
            return;
        }
        if spt.engine.config().untaint.forward() && spt.tracks_memory() {
            sched.shadow_wait.insert(e.seq);
        }
        // Oblivious loads bypassed the cache entirely, so the shadow has
        // nothing to say.
        let Some(addr) = e.mem.addr.filter(|_| !e.mem.oblivious) else { return };
        if spt.engine.dest_mask(e.seq).is_some_and(|m| m.is_clear()) {
            // Load rule ②: the output is already public, so the read bytes
            // are provably public.
            spt.clear_read_bytes(addr, e.mem.bytes, e.dest.map(|(_, p, _)| p));
            return;
        }
        let kind = match spt.engine.config().shadow {
            ShadowMode::None => return, // loaded data stays tainted
            ShadowMode::L1 => UntaintKind::ShadowL1,
            ShadowMode::Mem => UntaintKind::ShadowMem,
        };
        let mask = spt.shadow.read_mask(addr, e.mem.bytes);
        spt.engine.set_load_output(e.seq, mask, kind);
    }

    /// Store `e` drained to memory, raising `l1_events` in the L1D: the
    /// written bytes take the data operand's taint (§6.8 store rule ①).
    pub(crate) fn drain_store(&mut self, e: &RobEntry, l1_events: &[LineEvent]) {
        let Protection::Spt(spt) = self else { return };
        let addr = e.mem.addr.expect("completed store has an address");
        let bytes = e.mem.bytes;
        let data_idx = e.inst.store_data_src().expect("store has data operand");
        let data_mask = spt.engine.operand_mask(e.seq, data_idx).unwrap_or(TaintMask::ALL);
        for &ev in l1_events {
            spt.shadow.on_l1_event(ev);
        }
        spt.shadow.store(addr, bytes, data_mask);
        if let Some(v) = spt.validator.as_mut() {
            let mut public_mask = 0u8;
            for i in 0..bytes.min(8) {
                if !data_mask.byte_tainted(i) {
                    public_mask |= 1 << i;
                }
            }
            v.on_store_drain(e.seq, addr, bytes, data_idx, public_mask);
        }
    }

    /// Entry `e` retired. A non-forwarded load whose read bytes are not
    /// yet public is remembered until a broadcast untaints its output.
    pub(crate) fn retire(&mut self, e: &RobEntry) {
        let Protection::Spt(spt) = self else { return };
        if e.is_load()
            && e.mem.fwd_from.is_none()
            && e.mem.accessed
            && !e.mem.range_cleared
            && spt.tracks_memory()
            && !spt.engine.dest_mask(e.seq).is_some_and(|m| m.is_clear())
        {
            if let (Some(addr), Some((_, phys, _))) = (e.mem.addr, e.dest) {
                spt.retired_loads.insert(phys, addr, e.mem.bytes);
            }
        }
        spt.engine.retire(e.seq);
        if let Some(v) = spt.validator.as_mut() {
            v.on_retire(e.seq);
        }
    }

    /// Every entry with seq `from` or younger was squashed.
    pub(crate) fn squash_from(&mut self, from: Seq) {
        if let Protection::Spt(spt) = self {
            spt.engine.squash_from(from);
            if let Some(v) = spt.validator.as_mut() {
                v.on_squash(from);
            }
        }
    }

    /// One cycle of SPT untaint propagation: the engine's broadcast step,
    /// load rule ② for the retired loads whose output it untainted, and
    /// the §6.7 store-to-load pass over the forwarding pairs in `rob`.
    /// Returns whether any state changed, and the registers broadcast.
    pub(crate) fn untaint_step(
        &mut self,
        rob: &mut VecDeque<RobEntry>,
        index: &RobIndex,
        sched: &mut Scheduler,
    ) -> (bool, Vec<(PhysReg, UntaintKind)>) {
        let Protection::Spt(spt) = self else { return (false, Vec::new()) };
        let mut progress = !spt.engine.quiescent();
        let step = spt.engine.step();
        if let Some(v) = spt.validator.as_mut() {
            for &(phys, kind) in &step.broadcasts {
                v.on_broadcast(phys, kind);
            }
        }
        if spt.tracks_memory() {
            for &(phys, _) in &step.broadcasts {
                if let Some(r) = spt.retired_loads.take(phys) {
                    spt.clear_read_bytes(r.addr, r.bytes, Some(phys));
                }
            }
        }
        progress |= spt.stl_pass(rob, index, sched);
        (progress, step.broadcasts)
    }

    /// Resolves the validator checks whose leaked values `rf` now holds.
    /// Returns whether any resolved.
    pub(crate) fn drain_validator(&mut self, rf: &RegisterFile) -> bool {
        match self {
            Protection::Spt(spt) => spt
                .validator
                .as_mut()
                .is_some_and(|v| v.drain(|p| rf.is_ready(p).then(|| rf.read(p)))),
            _ => false,
        }
    }

    /// Attaches the §8 validator (SPT only: it models SPT's semantics).
    pub(crate) fn enable_validation(&mut self) {
        if let Protection::Spt(spt) = self {
            spt.validator = Some(SecurityValidator::new());
        }
    }

    /// Finalizes the validator against `rf` and returns its findings.
    pub(crate) fn validation_report(&mut self, rf: &RegisterFile) -> Option<(u64, Vec<String>)> {
        let Protection::Spt(spt) = self else { return None };
        let v = spt.validator.as_mut()?;
        v.finish(|p| rf.is_ready(p).then(|| rf.read(p)));
        Some((v.checks_passed(), v.violations().to_vec()))
    }

    /// SPT's taint-engine statistics.
    pub(crate) fn spt_stats(&self) -> Option<&SptStats> {
        match self {
            Protection::Spt(spt) => Some(spt.engine.stats()),
            _ => None,
        }
    }

    /// Whether an untaint step would change nothing.
    pub(crate) fn quiescent(&self) -> bool {
        match self {
            Protection::Spt(spt) => spt.engine.quiescent(),
            _ => true,
        }
    }

    /// Whether the shadow taints the byte at `addr` (always true when no
    /// memory taint is tracked).
    pub(crate) fn shadow_byte_tainted(&self, addr: u64) -> bool {
        match self {
            Protection::Spt(spt) => spt.shadow.probe_byte(addr),
            _ => true,
        }
    }

    /// Number of tracked recently retired loads.
    pub(crate) fn retired_loads_live(&self) -> usize {
        match self {
            Protection::Spt(spt) => spt.retired_loads.live(),
            _ => 0,
        }
    }
}

impl Spt {
    fn tracks_memory(&self) -> bool {
        self.engine.config().shadow != ShadowMode::None
    }

    /// Load rule ② (§6.8): the `bytes` at `addr` a load read into `phys`
    /// are inferable, so their memory taint clears.
    fn clear_read_bytes(&mut self, addr: u64, bytes: u64, phys: Option<PhysReg>) {
        self.shadow.clear_range(addr, bytes);
        if let (Some(v), Some(p)) = (self.validator.as_mut(), phys) {
            v.on_mem_inferable(addr, bytes, p);
        }
    }

    /// Recomputes `STLPublic` for forwarding pairs and propagates untaint
    /// across public pairs (§6.7 rules ① and ②), then clears the memory
    /// taint of loads that reached the VP with a public output. Returns
    /// whether it changed state.
    fn stl_pass(
        &mut self,
        rob: &mut VecDeque<RobEntry>,
        index: &RobIndex,
        sched: &mut Scheduler,
    ) -> bool {
        let untaint = self.engine.config().untaint;
        if !untaint.forward() {
            return false;
        }
        let mut progress = false;
        let engine = &mut self.engine;

        // Forwarded loads, oldest first (the scheduler tracks them).
        let mut snapshot = std::mem::take(&mut sched.stl_snapshot);
        snapshot.clear();
        snapshot.extend(sched.fwd_loads.iter());

        for &l_seq in &snapshot {
            let i = index.get(l_seq).expect("tracked forwarded load is in the ROB");
            let (s_seq, already_public) = {
                let l = &rob[i];
                debug_assert!(l.is_load());
                (l.mem.fwd_from.expect("tracked"), l.mem.stl_public)
            };
            let public = already_public || {
                // ② all of the load's address operands are public,
                let load_addr_public = engine.leak_operands_clear(l_seq);
                // ③ every store older than L and younger than or equal to S
                // has a public address. Stores that already retired reached
                // their VP, which declassified their addresses.
                let stores_public =
                    sched.stores.range(s_seq..l_seq).all(|s| engine.leak_operands_clear(s));
                load_addr_public && stores_public
            };
            if !public {
                continue;
            }
            if !already_public {
                rob[i].mem.stl_public = true;
                progress = true;
            }
            // Rule ①: forward untaint of the load output from the store's
            // data operand. If the store already retired we can no longer
            // observe its data taint; stay conservative.
            let data_idx = index.get(s_seq).and_then(|j| rob[j].inst.store_data_src());
            let Some(data_idx) = data_idx else { continue };
            if let Some(v) = self.validator.as_mut() {
                progress |= v.on_stl_pair(l_seq, s_seq, data_idx);
            }
            if let Some(mask) = engine.operand_mask(s_seq, data_idx) {
                if mask.is_clear() {
                    engine.set_load_output(l_seq, TaintMask::NONE, UntaintKind::StlForward);
                }
            }
            // Rule ②: backward untaint of the store data from the load
            // output.
            if untaint.backward() {
                if let Some(dmask) = engine.dest_mask(l_seq) {
                    if dmask.is_clear() {
                        engine.untaint_operand(s_seq, data_idx, UntaintKind::StlBackward);
                    }
                }
            }
        }

        // Post-hoc shadow rule ② (§6.8, justified by the §8 proof's third
        // case): once a load has reached the VP (its address is public and
        // the access is publicly known) and its output register becomes
        // untainted — typically because a younger transmitter declassified
        // it — the read bytes are inferable, so the L1 taint can clear.
        // This is what lets hot, repeatedly-leaked data (jump tables,
        // indices, node pointers) become public in the shadow L1.
        if self.tracks_memory() {
            // Candidates: completed, non-forwarded loads (`load_data` adds
            // them to `shadow_wait`); they wait here until they reach the
            // VP and their output untaints, or leave the ROB.
            snapshot.clear();
            snapshot.extend(sched.shadow_wait.iter());
            for &seq in &snapshot {
                let i = index.get(seq).expect("tracked load is in the ROB");
                let e = &rob[i];
                debug_assert!(
                    e.is_load() && e.state == ExecState::Done && e.mem.fwd_from.is_none()
                );
                if !e.vp || e.mem.range_cleared {
                    continue;
                }
                let Some(addr) = e.mem.addr else { continue };
                if self.engine.dest_mask(seq).is_some_and(|m| m.is_clear()) {
                    let (bytes, phys) = (e.mem.bytes, e.dest.map(|(_, p, _)| p));
                    self.clear_read_bytes(addr, bytes, phys);
                    rob[i].mem.range_cleared = true;
                    sched.shadow_wait.remove(seq);
                    progress = true;
                }
            }
        }
        snapshot.clear();
        sched.stl_snapshot = snapshot;
        progress
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
        p.rename(e.seq, e.pc, e.inst, e.srcs, e.dest.map(|(_, new, _)| new))
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
        let Protection::Spt(spt) = &mut p else { unreachable!("SPT config") };
        spt.engine.untaint_operand(2, 0, UntaintKind::StlBackward);
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
