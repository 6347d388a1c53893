//! The SPT taint engine: rename-time tainting, per-cycle two-phase untaint
//! propagation with bounded broadcast width, and declassification at the
//! visibility point (paper §6.3–6.6, §7.3).
//!
//! The engine mirrors the paper's hardware organisation:
//!
//! * **Global register taint** (the RAT/PRF taint bits): one [`TaintMask`]
//!   per physical register, consulted at rename and updated only by
//!   broadcasts.
//! * **Slots** (the RS-slot taint replicas): one per in-flight (ROB
//!   resident) instruction, holding *local* copies of its operand and
//!   destination taint plus per-register *untaint broadcast flags*.
//!
//! Each cycle, [`TaintEngine::step`] runs the paper's two phases:
//! phase 1 applies the forward/backward rules of [`crate::algebra`]
//! locally to every slot; phase 2 broadcasts at most `broadcast_width`
//! newly-untainted physical registers (destinations before sources, older
//! slots before younger ones), which updates the global taint and every
//! replica. Under [`crate::UntaintMethod::Ideal`] the two phases iterate to a
//! fixpoint with unbounded width within the single call.

use crate::algebra::{backward_untaints, forward_untaints};
use crate::config::Config;
use crate::stats::{SptStats, UntaintKind};
use crate::taint::TaintMask;
use spt_isa::{InstClass, OperandRole};
use spt_util::SeqSet;
use std::collections::VecDeque;

/// Physical register identifier.
pub type PhysReg = u32;

/// Global instruction sequence number (monotonic, never reused).
pub type Seq = u64;

/// Information the pipeline supplies when an instruction is renamed.
#[derive(Clone, Copy, Debug)]
pub struct RenameInfo {
    /// The instruction's sequence number.
    pub seq: Seq,
    /// Untaint-algebra class.
    pub class: InstClass,
    /// Source operands: physical register and role (up to 3: indexed
    /// stores read base, index and data).
    pub srcs: [Option<(PhysReg, OperandRole)>; 3],
    /// Destination physical register, if any.
    pub dest: Option<PhysReg>,
    /// For loads: access width in bytes (bounds the rename-time taint of
    /// the zero-extended destination).
    pub load_bytes: Option<u64>,
}

#[derive(Clone, Copy, Debug)]
struct SlotReg {
    phys: PhysReg,
    taint: TaintMask,
    pending: Option<UntaintKind>,
}

impl SlotReg {
    fn new(phys: PhysReg, taint: TaintMask) -> SlotReg {
        SlotReg { phys, taint, pending: None }
    }

    /// Locally untaints this register and flags it for broadcast.
    /// Returns whether anything changed.
    fn untaint(&mut self, kind: UntaintKind) -> bool {
        if self.taint.any() {
            self.taint = TaintMask::NONE;
            if self.pending.is_none() {
                self.pending = Some(kind);
            }
            true
        } else {
            false
        }
    }
}

#[derive(Clone, Debug)]
struct Slot {
    class: InstClass,
    srcs: [Option<(SlotReg, OperandRole)>; 3],
    dest: Option<SlotReg>,
    /// Retired but kept visible to the rules for the commit-latency grace
    /// window (see [`TaintEngine::retire`]).
    in_grace: bool,
}

/// Replica address inside a slot: `0` is the destination, `1..=3` are the
/// source operands by *array* index (holes never carry pending flags).
/// Ordering `(seq, pos)` therefore enumerates pending broadcasts exactly
/// as the paper requires: older slots first, destinations before sources.
const DEST_POS: u8 = 0;

fn src_pos(array_idx: usize) -> u8 {
    array_idx as u8 + 1
}

/// The `pending_q` key of replica `pos` of slot `seq`: `seq << 2 | pos`,
/// so ascending keys are ascending `(seq, pos)`.
fn replica_key(seq: Seq, pos: u8) -> u64 {
    seq << 2 | u64::from(pos)
}

/// Inverse of [`replica_key`].
fn replica_of(key: u64) -> (Seq, u8) {
    (key >> 2, (key & 3) as u8)
}

/// One physical register's list of slots holding a replica of it (see
/// `TaintEngine::deps`). Seqs whose slot is gone are stale and skipped by
/// every walk, so dropping them never changes an outcome; the list drops
/// them whenever it is walked and, so that a register no walk reaches
/// (a long-lived public one, read by every loop iteration) stays bounded,
/// whenever a push has doubled its length since the last such pass.
#[derive(Clone, Debug, Default)]
struct DepList {
    seqs: Vec<Seq>,
    /// Length right after the last compaction.
    compacted: usize,
}

impl DepList {
    /// Lists shorter than this are never compacted on push.
    const MIN_COMPACT: usize = 16;

    /// Appends `seq`, first dropping every seq `live` rejects if the list
    /// has doubled since its last compaction (amortized O(1) per push).
    fn push(&mut self, seq: Seq, live: impl FnMut(Seq) -> bool) {
        if self.seqs.len() >= (2 * self.compacted).max(Self::MIN_COMPACT) {
            self.retain(live);
        }
        self.seqs.push(seq);
    }

    /// Keeps the seqs `keep` accepts, in order (a compaction).
    fn retain(&mut self, mut keep: impl FnMut(Seq) -> bool) {
        self.seqs.retain(|&seq| keep(seq));
        self.compacted = self.seqs.len();
    }
}

/// Order-stable slot storage keyed by sequence number.
///
/// Sequence numbers are monotonic and never reused (squash recovery drops
/// a suffix; new instructions always get fresh numbers), so the live seq
/// range is a window: a `VecDeque` indexed by `seq - base` gives O(1)
/// lookup, insertion order *is* seq order (the broadcast priority order),
/// and iteration never touches a hash function — the previous `BTreeMap`
/// cost a pointer chase per lookup and the pre-slab engine scanned every
/// entry per cycle.
#[derive(Clone, Debug, Default)]
struct SlotSlab {
    /// Sequence number of `entries[0]`.
    base: Seq,
    /// One entry per seq in `[base, base + entries.len())`; `None` marks a
    /// removed (retired/squashed) or never-inserted slot.
    entries: VecDeque<Option<Slot>>,
    /// Number of `Some` entries.
    live: usize,
}

impl SlotSlab {
    fn index(&self, seq: Seq) -> Option<usize> {
        if seq < self.base {
            return None;
        }
        let idx = (seq - self.base) as usize;
        (idx < self.entries.len()).then_some(idx)
    }

    fn get(&self, seq: Seq) -> Option<&Slot> {
        self.entries[self.index(seq)?].as_ref()
    }

    fn get_mut(&mut self, seq: Seq) -> Option<&mut Slot> {
        let idx = self.index(seq)?;
        self.entries[idx].as_mut()
    }

    fn contains(&self, seq: Seq) -> bool {
        self.get(seq).is_some()
    }

    fn insert(&mut self, seq: Seq, slot: Slot) {
        if self.entries.is_empty() {
            self.base = seq;
        }
        assert!(
            seq >= self.base,
            "slot seq {seq} below slab base {} — seqs are never reused",
            self.base
        );
        let idx = (seq - self.base) as usize;
        while self.entries.len() <= idx {
            self.entries.push_back(None);
        }
        if self.entries[idx].replace(slot).is_none() {
            self.live += 1;
        }
    }

    fn remove(&mut self, seq: Seq) -> Option<Slot> {
        let idx = self.index(seq)?;
        let slot = self.entries[idx].take();
        if slot.is_some() {
            self.live -= 1;
            // Advance the window past leading holes so the deque tracks the
            // in-flight span instead of the whole program.
            while matches!(self.entries.front(), Some(None)) {
                self.entries.pop_front();
                self.base += 1;
            }
            if self.entries.is_empty() {
                self.live = 0;
            }
        }
        slot
    }

    /// Removes every slot with `seq >= from` (squash recovery).
    fn truncate_from(&mut self, from: Seq) {
        let keep = from.saturating_sub(self.base).min(self.entries.len() as u64) as usize;
        while self.entries.len() > keep {
            if self.entries.pop_back().flatten().is_some() {
                self.live -= 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// The registers untainted (broadcast) during one [`TaintEngine::step`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepResult {
    /// Broadcast register IDs with the mechanism that untainted each.
    pub broadcasts: Vec<(PhysReg, UntaintKind)>,
}

/// The SPT taint-tracking engine (see module docs).
///
/// The engine is event-driven: instead of rescanning every slot per step,
/// it maintains
///
/// * `deps` — per physical register, the slots holding a replica of it, so
///   a broadcast touches exactly the slots that reference the register;
/// * `pending_q` — the replica positions whose untaint flags await the
///   broadcast bus, pre-sorted in bus priority order;
/// * `rules_q` — the slots whose replicas changed since the rules last ran
///   (a slot's rule outcome is a pure function of its own replicas, so an
///   untouched slot can never newly fire).
///
/// All three are redundant indices over the slot replicas; every public
/// entry point keeps them exact, and the results are bit-identical to the
/// scan-everything engine (enforced by `tests/equivalence.rs`).
#[derive(Clone, Debug)]
pub struct TaintEngine {
    cfg: Config,
    reg_taint: Vec<TaintMask>,
    slots: SlotSlab,
    /// Per physical register: live slots holding a replica of it (stale
    /// seqs are skipped, and compacted when the list is next walked or has
    /// doubled since its last compaction).
    deps: Vec<DepList>,
    /// Replica positions with a set pending-untaint flag, keyed by
    /// [`replica_key`] in bus priority order (older slots first,
    /// destination before sources).
    pending_q: SeqSet,
    /// Slots whose replicas changed since the last phase-1 pass.
    rules_q: SeqSet,
    /// Pending broadcasts whose slot retired before the width-limited bus
    /// got to them; they keep highest priority (they are the oldest).
    orphans: Vec<(PhysReg, UntaintKind)>,
    /// Whether taint state changed since the last quiescent step.
    dirty: bool,
    /// Retired instructions whose slots stay visible to the rules for a few
    /// more cycles (commit latency: the paper backward-untaints "to the
    /// head of the ROB", and real commit takes several stages; the instant
    /// retirement of this simulator would otherwise remove producers in the
    /// same cycle their consumers' declassification broadcasts). Entries
    /// are `(seq, expire_at)` against the `steps` counter; a slot finalized
    /// early (recycled register) leaves a stale entry that expires as a
    /// no-op.
    grace_q: VecDeque<(Seq, u64)>,
    /// Count of [`Self::step`] calls that reached aging (drives `grace_q`).
    steps: u64,
    stats: SptStats,
}

impl TaintEngine {
    /// Creates an engine for `num_phys` physical registers, all initially
    /// tainted (paper §6.3: "all program data starts off as tainted").
    pub fn new(cfg: Config, num_phys: usize) -> TaintEngine {
        TaintEngine {
            cfg,
            reg_taint: vec![TaintMask::ALL; num_phys],
            slots: SlotSlab::default(),
            deps: vec![DepList::default(); num_phys],
            pending_q: SeqSet::new(),
            rules_q: SeqSet::new(),
            orphans: Vec::new(),
            dirty: false,
            grace_q: VecDeque::new(),
            steps: 0,
            stats: SptStats::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SptStats {
        &self.stats
    }

    /// Global (broadcast-visible) taint of a physical register.
    pub fn reg_taint(&self, phys: PhysReg) -> TaintMask {
        self.reg_taint[phys as usize]
    }

    /// Number of live slots (in-flight instructions being tracked).
    pub fn live_slots(&self) -> usize {
        self.slots.len()
    }

    /// Registers an instruction at rename and returns the taint assigned to
    /// its destination (paper §7.3 "Tainting"):
    ///
    /// * loads are conservatively tainted in their loaded byte range;
    /// * `Const` outputs are public (§6.5) — counted as a `LoadImm` event;
    /// * otherwise the destination is tainted iff any operand is.
    pub fn rename(&mut self, info: RenameInfo) -> TaintMask {
        let mut srcs: [Option<(SlotReg, OperandRole)>; 3] = [None, None, None];
        let mut any_src_tainted = false;
        for (i, src) in info.srcs.iter().enumerate() {
            if let Some((phys, role)) = *src {
                let t = self.reg_taint[phys as usize];
                any_src_tainted |= t.any();
                srcs[i] = Some((SlotReg::new(phys, t), role));
            }
        }

        let dest_taint = match info.class {
            InstClass::Load => TaintMask::for_bytes(0..info.load_bytes.unwrap_or(8)),
            InstClass::Const => {
                if self.cfg.untaint.forward() {
                    self.stats.events[UntaintKind::LoadImm] += 1;
                    TaintMask::NONE
                } else {
                    // SecureBaseline tracks nothing: stay tainted.
                    TaintMask::ALL
                }
            }
            _ => {
                if any_src_tainted {
                    TaintMask::ALL
                } else {
                    TaintMask::NONE
                }
            }
        };

        let dest = info.dest.map(|phys| {
            // The physical register is being recycled: any queued untaint
            // information about its *previous* value must not leak onto the
            // new value.
            self.purge_recycled_phys(phys);
            self.reg_taint[phys as usize] = dest_taint;
            SlotReg::new(phys, dest_taint)
        });

        // Index the new slot under every register it holds a replica of
        // (after inserting it: a compaction keeps only live slots).
        let held = srcs.map(|s| s.map(|(r, _)| r.phys));
        let dest_phys = dest.map(|d| d.phys);
        self.slots.insert(info.seq, Slot { class: info.class, srcs, dest, in_grace: false });
        for phys in held.into_iter().chain([dest_phys]).flatten() {
            let slots = &self.slots;
            self.deps[phys as usize].push(info.seq, |seq| slots.contains(seq));
        }
        if self.cfg.untaint.forward() {
            self.rules_q.insert(info.seq);
        }
        dest_taint
    }

    /// Drops stale state referring to a recycled physical register: orphan
    /// broadcasts for it, and any grace-period retired slot that references
    /// it (the slot's other pendings are preserved). Only the slots indexed
    /// under the register are visited.
    fn purge_recycled_phys(&mut self, phys: PhysReg) {
        self.orphans.retain(|(p, _)| *p != phys);
        let mut list = std::mem::take(&mut self.deps[phys as usize]);
        // One in-order pass: finalize grace slots (in list order, so orphan
        // push order is unchanged) and compact, keeping only live slots.
        list.retain(|seq| match self.slots.get(seq) {
            Some(slot) if slot.in_grace => {
                self.finalize_retire(seq, Some(phys));
                false
            }
            live => live.is_some(),
        });
        self.deps[phys as usize] = list;
    }

    /// Whether source operand `idx` of slot `seq` is tainted in the slot's
    /// local view (the gating condition for transmitters). Unknown slots
    /// and absent operands read as public.
    pub fn operand_tainted(&self, seq: Seq, idx: usize) -> bool {
        self.slots
            .get(seq)
            .and_then(|s| s.srcs.get(idx).and_then(|o| o.as_ref()))
            .is_some_and(|(r, _)| r.taint.any())
    }

    /// Whether every operand of `seq` that leaks at the VP (addresses,
    /// predicates, jump targets) is locally public.
    pub fn leak_operands_clear(&self, seq: Seq) -> bool {
        let Some(slot) = self.slots.get(seq) else { return true };
        slot.srcs.iter().flatten().all(|(r, role)| !role.leaks_at_vp() || r.taint.is_clear())
    }

    /// The slot-local taint mask of source operand `idx`, if present.
    pub fn operand_mask(&self, seq: Seq, idx: usize) -> Option<TaintMask> {
        self.slots.get(seq)?.srcs.get(idx)?.as_ref().map(|(r, _)| r.taint)
    }

    /// The slot-local taint mask of the destination, if present.
    pub fn dest_mask(&self, seq: Seq) -> Option<TaintMask> {
        self.slots.get(seq)?.dest.as_ref().map(|r| r.taint)
    }

    /// Declassifies the leak-role operands of `seq` — called when a
    /// transmitter or control-flow instruction reaches the visibility point
    /// (§6.3/§6.6: "the operands of transmitters/branches are untainted
    /// when the instruction becomes non-speculative").
    pub fn declassify_vp(&mut self, seq: Seq) {
        // SecureBaseline performs no untaint propagation whatsoever; the
        // transmitter itself executes because it reached the VP.
        if !self.cfg.untaint.forward() {
            return;
        }
        let Some(slot) = self.slots.get_mut(seq) else { return };
        let is_cf = slot.class == InstClass::ControlFlow;
        let kind =
            if is_cf { UntaintKind::DeclassifyBranch } else { UntaintKind::DeclassifyTransmit };
        let mut changed = false;
        for (i, src) in slot.srcs.iter_mut().enumerate() {
            if let Some(src) = src {
                if src.1.leaks_at_vp() && src.0.untaint(kind) {
                    self.pending_q.insert(replica_key(seq, src_pos(i)));
                    changed = true;
                }
            }
        }
        if changed {
            self.rules_q.insert(seq);
        }
        self.dirty |= changed;
    }

    /// Sets the slot-local taint of a load's output to `mask` (intersected
    /// with the current taint), attributing a full clear to `kind`. Used on
    /// load completion with shadow-L1/shadow-memory byte taint (§6.8) or
    /// store-to-load forwarding under `STLPublic` (§6.7).
    pub fn set_load_output(&mut self, seq: Seq, mask: TaintMask, kind: UntaintKind) {
        let Some(slot) = self.slots.get_mut(seq) else { return };
        let Some(dest) = slot.dest.as_mut() else { return };
        let new = dest.taint.intersect(mask);
        if new.is_clear() && dest.taint.any() {
            if dest.untaint(kind) {
                self.pending_q.insert(replica_key(seq, DEST_POS));
            }
            self.rules_q.insert(seq);
            self.dirty = true;
        } else {
            if new != dest.taint {
                self.rules_q.insert(seq);
                self.dirty = true;
            }
            dest.taint = new;
        }
    }

    /// Explicitly untaints source operand `idx` of `seq` (store-to-load
    /// backward untaint, §6.7 rule ②).
    pub fn untaint_operand(&mut self, seq: Seq, idx: usize, kind: UntaintKind) {
        if let Some(slot) = self.slots.get_mut(seq) {
            if let Some(Some((reg, _))) = slot.srcs.get_mut(idx) {
                if reg.untaint(kind) {
                    self.pending_q.insert(replica_key(seq, src_pos(idx)));
                    self.rules_q.insert(seq);
                    self.dirty = true;
                }
            }
        }
    }

    /// Number of engine steps a retired slot stays visible to the rules.
    const RETIRE_GRACE: u8 = 4;

    /// Marks an instruction retired. Its slot stays visible to the untaint
    /// rules for `RETIRE_GRACE` steps (commit latency), then is
    /// removed with un-broadcast untaint flags preserved as orphans. With
    /// untainting off no rule ever reads it, so it is removed at once.
    pub fn retire(&mut self, seq: Seq) {
        if !self.cfg.untaint.forward() {
            self.finalize_retire(seq, None);
        } else if let Some(slot) = self.slots.get_mut(seq) {
            slot.in_grace = true;
            // An entry expires on the (RETIRE_GRACE + 1)-th aging pass after
            // retirement, matching the old decrement-to-zero counters.
            self.grace_q.push_back((seq, self.steps + u64::from(Self::RETIRE_GRACE) + 1));
        }
    }

    /// Finally removes a retired slot, preserving pending broadcasts except
    /// for `skip_phys` (a recycled register whose old value is dead).
    fn finalize_retire(&mut self, seq: Seq, skip_phys: Option<PhysReg>) {
        if let Some(slot) = self.slots.remove(seq) {
            let mut keep = |r: &SlotReg| {
                if let Some(kind) = r.pending {
                    if skip_phys != Some(r.phys) {
                        self.orphans.push((r.phys, kind));
                    }
                }
            };
            if let Some(d) = &slot.dest {
                keep(d);
            }
            for (r, _) in slot.srcs.iter().flatten() {
                keep(r);
            }
            for pos in DEST_POS..=src_pos(2) {
                self.pending_q.remove(replica_key(seq, pos));
            }
            self.rules_q.remove(seq);
        }
    }

    /// Ages the retired-slot grace periods (called once per step). Stale
    /// entries (slots already finalized by a register recycle) expire as
    /// no-ops.
    fn age_retired(&mut self) {
        self.steps += 1;
        while let Some(&(seq, expire_at)) = self.grace_q.front() {
            if expire_at > self.steps {
                break;
            }
            self.grace_q.pop_front();
            self.finalize_retire(seq, None);
        }
    }

    /// Whether [`Self::step`] would change nothing: no taint state changed
    /// since the last quiescent step, no orphan broadcast is waiting and no
    /// retired slot is still in its grace window (or untainting is off
    /// altogether). While this holds a step is a no-op apart from the aging
    /// counter, which only matters relative to a grace entry, so a caller
    /// may skip steps without changing any later outcome.
    pub fn quiescent(&self) -> bool {
        !self.cfg.untaint.forward()
            || (!self.dirty && self.orphans.is_empty() && self.grace_q.is_empty())
    }

    /// Removes all slots with `seq >= from` (squash recovery). Their
    /// pending untaints are dropped: a squashed instruction's inference
    /// never happened architecturally.
    pub fn squash_from(&mut self, from: Seq) {
        self.slots.truncate_from(from);
        self.pending_q.truncate_from(replica_key(from, DEST_POS));
        self.rules_q.truncate_from(from);
    }

    /// Phase 1: applies the §6.6 rules locally — but only to slots whose
    /// replicas changed since the last pass (`rules_q`). A rule reads
    /// nothing but its own slot's replicas, so an untouched slot that did
    /// not fire before cannot fire now; visiting only the changed set is
    /// exactly equivalent to the old visit-everything pass.
    fn apply_rules_locally(&mut self) {
        let fwd = self.cfg.untaint.forward();
        let bwd = self.cfg.untaint.backward();
        if !fwd {
            return;
        }
        // The pass adds nothing to `rules_q`, so the drained queue goes back
        // empty with its allocation.
        let mut queue = std::mem::take(&mut self.rules_q);
        for seq in &queue {
            let Some(slot) = self.slots.get_mut(seq) else { continue };
            let mut src_tainted = [false; 3];
            let mut n_srcs = 0;
            for (r, _) in slot.srcs.iter().flatten() {
                src_tainted[n_srcs] = r.taint.any();
                n_srcs += 1;
            }
            if let Some(dest) = slot.dest.as_mut() {
                if dest.taint.any()
                    && forward_untaints(slot.class, &src_tainted[..n_srcs])
                    && dest.untaint(UntaintKind::Forward)
                {
                    self.pending_q.insert(replica_key(seq, DEST_POS));
                }
            }
            if bwd {
                let dest_tainted = slot.dest.as_ref().is_none_or(|d| d.taint.any());
                // Backward rules need a register destination whose value the
                // attacker can read; instructions without one don't apply.
                if slot.dest.is_some() && !dest_tainted {
                    let back = backward_untaints(slot.class, &src_tainted[..n_srcs], dest_tainted);
                    let mut packed = 0;
                    for i in 0..slot.srcs.len() {
                        if let Some(src) = slot.srcs[i].as_mut() {
                            if back.get(packed).copied().unwrap_or(false)
                                && src.0.untaint(UntaintKind::Backward)
                            {
                                self.pending_q.insert(replica_key(seq, src_pos(i)));
                            }
                            packed += 1;
                        }
                    }
                }
            }
        }
        debug_assert!(self.rules_q.is_empty());
        queue.clear();
        self.rules_q = queue;
    }

    /// Phase 2: selects at most `width` pending untaints (orphans first,
    /// then destinations before sources within each slot, older slots
    /// first), clears them globally and in every replica. Returns the
    /// chosen broadcasts and whether any pending flags remain.
    fn broadcast(&mut self, width: usize) -> (Vec<(PhysReg, UntaintKind)>, bool) {
        let mut chosen: Vec<(PhysReg, UntaintKind)> = Vec::new();
        let mut deferred = 0u64;

        // Selection: orphans keep highest priority, then the queued pending
        // replicas, which `(seq, pos)` ordering already lists oldest slot
        // first with destinations before sources.
        for &(phys, kind) in &self.orphans {
            if self.reg_taint[phys as usize].is_clear() {
                continue; // already public globally; nothing to broadcast
            }
            if chosen.iter().any(|(p, _)| *p == phys) {
                continue; // same register already selected this cycle
            }
            if chosen.len() < width {
                chosen.push((phys, kind));
            } else {
                deferred += 1;
            }
        }
        // Every queued flag's register is globally tainted here: flags are
        // only ever set on locally tainted replicas, local taint implies
        // global taint, and the replica walk below strips the flags of every
        // register it publishes the moment the register goes public. So the
        // scan can stop once the bus is full — each unvisited entry either
        // shares a chosen register (the old walk skipped it silently; the
        // walk below consumes it) or is deferred, and the exact deferred
        // count falls out as `queued - consumed` afterwards.
        let queued = self.pending_q.len() as u64;
        for key in &self.pending_q {
            if chosen.len() >= width {
                break;
            }
            let (seq, pos) = replica_of(key);
            let slot = self.slots.get(seq).expect("pending_q references a live slot");
            let r = if pos == DEST_POS {
                slot.dest.as_ref().expect("pending dest replica exists")
            } else {
                &slot.srcs[pos as usize - 1].as_ref().expect("pending src replica exists").0
            };
            debug_assert!(
                self.reg_taint[r.phys as usize].any(),
                "queued pending flag for a globally public register"
            );
            let kind = r.pending.expect("queued replica has a pending flag");
            if !chosen.iter().any(|(p, _)| *p == r.phys) {
                chosen.push((r.phys, kind));
            }
        }

        // Apply the selected broadcasts: global taint, then every replica
        // of each chosen register — `deps` lists exactly the slots holding
        // one, so nothing else is touched. A cleared replica can enable new
        // rule firings in its slot, so those slots re-enter `rules_q`.
        for &(phys, kind) in &chosen {
            self.reg_taint[phys as usize] = TaintMask::NONE;
            self.stats.events[kind] += 1;
        }
        let mut consumed = 0u64;
        for &(phys, _) in &chosen {
            let mut list = std::mem::take(&mut self.deps[phys as usize]);
            list.retain(|seq| {
                let Some(slot) = self.slots.get_mut(seq) else { return false };
                let mut touched = false;
                if let Some(d) = slot.dest.as_mut() {
                    if d.phys == phys {
                        d.taint = TaintMask::NONE;
                        if d.pending.take().is_some() {
                            self.pending_q.remove(replica_key(seq, DEST_POS));
                            consumed += 1;
                        }
                        touched = true;
                    }
                }
                for i in 0..slot.srcs.len() {
                    if let Some((r, _)) = slot.srcs[i].as_mut() {
                        if r.phys == phys {
                            r.taint = TaintMask::NONE;
                            if r.pending.take().is_some() {
                                self.pending_q.remove(replica_key(seq, src_pos(i)));
                                consumed += 1;
                            }
                            touched = true;
                        }
                    }
                }
                if touched {
                    self.rules_q.insert(seq);
                }
                true
            });
            self.deps[phys as usize] = list;
        }

        // Flags still queued all belong to registers the bus had no room
        // for this cycle (the selection invariant above rules out stale
        // public entries), so the old drop-public sweep over the whole
        // queue is a no-op and the deferred tally is what the replica
        // walks did not consume.
        deferred += queued - consumed;
        #[cfg(debug_assertions)]
        for (seq, _pos) in self.pending_q.iter().map(replica_of) {
            let slot = self.slots.get(seq).expect("pending_q references a live slot");
            let phys = if _pos == DEST_POS {
                slot.dest.as_ref().expect("pending dest replica exists").phys
            } else {
                slot.srcs[_pos as usize - 1].as_ref().expect("pending src replica exists").0.phys
            };
            debug_assert!(
                self.reg_taint[phys as usize].any(),
                "pending flag survived for a globally public register"
            );
        }
        let mut remaining = !self.pending_q.is_empty();
        self.orphans.retain(|(p, _)| {
            // Drop chosen and already-public orphans.
            self.reg_taint[*p as usize].any()
        });
        remaining |= !self.orphans.is_empty();

        self.stats.broadcasts_deferred += deferred;
        (chosen, remaining)
    }

    /// Runs one cycle of untaint propagation and returns the registers
    /// broadcast as untainted. Under [`crate::UntaintMethod::Ideal`], iterates to
    /// a fixpoint with unbounded width.
    pub fn step(&mut self) -> StepResult {
        if !self.cfg.untaint.forward() {
            return StepResult::default();
        }
        self.age_retired();
        // Quiescence: rules can only fire after some taint state changed
        // (declassification, broadcast, load completion, STL untaint).
        if !self.dirty && self.orphans.is_empty() {
            return StepResult::default();
        }
        let mut broadcasts = Vec::new();
        let mut remaining;
        if self.cfg.untaint.ideal() {
            loop {
                self.apply_rules_locally();
                let (batch, rem) = self.broadcast(usize::MAX);
                remaining = rem;
                if batch.is_empty() {
                    break;
                }
                broadcasts.extend(batch);
            }
        } else {
            self.apply_rules_locally();
            let (batch, rem) = self.broadcast(self.cfg.broadcast_width);
            remaining = rem;
            broadcasts = batch;
        }
        // Stay dirty while broadcasts happened this cycle (replica updates
        // can enable new rule firings) or pending flags remain queued.
        self.dirty = !broadcasts.is_empty() || remaining;
        self.stats.record_untaint_cycle(broadcasts.len());
        StepResult { broadcasts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThreatModel;
    use spt_isa::OperandRole::*;

    const P: usize = 64;

    fn engine(cfg: Config) -> TaintEngine {
        TaintEngine::new(cfg, P)
    }

    fn full() -> TaintEngine {
        engine(Config::spt_full(ThreatModel::Futuristic))
    }

    fn ri(
        seq: Seq,
        class: InstClass,
        srcs: &[(PhysReg, spt_isa::OperandRole)],
        dest: Option<PhysReg>,
    ) -> RenameInfo {
        let mut s: [Option<(PhysReg, spt_isa::OperandRole)>; 3] = [None, None, None];
        for (i, &x) in srcs.iter().enumerate() {
            s[i] = Some(x);
        }
        RenameInfo { seq, class, srcs: s, dest, load_bytes: None }
    }

    #[test]
    fn rename_const_is_public_and_counted() {
        let mut e = full();
        let t = e.rename(ri(1, InstClass::Const, &[], Some(5)));
        assert!(t.is_clear());
        assert!(e.reg_taint(5).is_clear());
        assert_eq!(e.stats().events[UntaintKind::LoadImm], 1);
    }

    #[test]
    fn rename_const_stays_tainted_under_secure_baseline() {
        let mut e = engine(Config::secure_baseline(ThreatModel::Futuristic));
        let t = e.rename(ri(1, InstClass::Const, &[], Some(5)));
        assert!(t.any());
    }

    #[test]
    fn rename_propagates_source_taint() {
        let mut e = full();
        e.rename(ri(1, InstClass::Const, &[], Some(1))); // r1 public
                                                         // r2 = r1 + r3 where r3 (phys 3) is still tainted.
        let t = e.rename(ri(2, InstClass::Invertible2, &[(1, Data), (3, Data)], Some(2)));
        assert!(t.any());
        // r4 = r1 + r1: all public.
        let t = e.rename(ri(3, InstClass::Invertible2, &[(1, Data), (1, Data)], Some(4)));
        assert!(t.is_clear());
    }

    #[test]
    fn load_rename_taints_loaded_bytes_only() {
        let mut e = full();
        let t = e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(7),
            load_bytes: Some(1),
        });
        assert_eq!(t, TaintMask::for_bytes(0..1));
        assert!(t.any());
        assert!(!t.field(3), "upper bytes of a byte load are public zeros");
    }

    #[test]
    fn vp_declassify_then_broadcast_forward_chain() {
        let mut e = full();
        // I1: load r10 <- (r2): r2 tainted address.
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        // I2: r11 = r2 + r12 (r12 public via const).
        e.rename(ri(2, InstClass::Const, &[], Some(12)));
        e.rename(ri(3, InstClass::Invertible2, &[(2, Data), (12, Data)], Some(11)));
        assert!(e.reg_taint(11).any());

        // I1 reaches VP: r2 declassified.
        e.declassify_vp(1);
        assert!(!e.operand_tainted(1, 0), "slot-local view updates immediately");
        assert!(e.reg_taint(2).any(), "global view waits for broadcast");

        // Cycle 1: broadcast of r2.
        let r = e.step();
        assert_eq!(r.broadcasts, vec![(2, UntaintKind::DeclassifyTransmit)]);
        assert!(e.reg_taint(2).is_clear());

        // Cycle 2: forward rule fires in I3's slot, broadcasting r11.
        let r = e.step();
        assert_eq!(r.broadcasts, vec![(11, UntaintKind::Forward)]);
        assert!(e.reg_taint(11).is_clear());
        assert_eq!(e.stats().events[UntaintKind::Forward], 1);
    }

    #[test]
    fn backward_untaint_through_invertible_add() {
        // Paper Figure 4: I1: r0 = r1 + r2; I2: load <- (r0); I3: r4 = r0 + r2.
        let mut e = full();
        e.rename(ri(1, InstClass::Invertible2, &[(1, Data), (2, Data)], Some(0)));
        e.rename(RenameInfo {
            seq: 2,
            class: InstClass::Load,
            srcs: [Some((0, Address)), None, None],
            dest: Some(3),
            load_bytes: Some(8),
        });
        e.rename(ri(3, InstClass::Invertible2, &[(0, Data), (2, Data)], Some(4)));

        // The load reaches the VP: r0 declassified. Also declassify r2 via
        // another transmitter to enable the backward inference of r1.
        e.declassify_vp(2);
        e.rename(RenameInfo {
            seq: 4,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(5),
            load_bytes: Some(8),
        });
        e.declassify_vp(4);

        // Broadcast r0 and r2 (width 3 allows both in one cycle).
        let r = e.step();
        let regs: Vec<PhysReg> = r.broadcasts.iter().map(|b| b.0).collect();
        assert_eq!(regs, vec![0, 2]);

        // Next cycle: backward rule in I1 infers r1 (r0 = r1 + r2, r0 and r2
        // public); forward rule in I3 clears r4.
        let r = e.step();
        let mut regs: Vec<PhysReg> = r.broadcasts.iter().map(|b| b.0).collect();
        regs.sort_unstable();
        assert_eq!(regs, vec![1, 4]);
        assert_eq!(e.stats().events[UntaintKind::Backward], 1);
        assert_eq!(e.stats().events[UntaintKind::Forward], 1);
    }

    #[test]
    fn backward_requires_bwd_config() {
        let mut e = engine(Config::spt_fwd(ThreatModel::Futuristic));
        e.rename(ri(1, InstClass::Copy, &[(1, Data)], Some(0)));
        e.rename(RenameInfo {
            seq: 2,
            class: InstClass::Load,
            srcs: [Some((0, Address)), None, None],
            dest: Some(3),
            load_bytes: Some(8),
        });
        e.declassify_vp(2);
        e.step(); // broadcast r0
        let r = e.step();
        assert!(r.broadcasts.is_empty(), "Fwd config must not run backward rules");
        assert!(e.reg_taint(1).any());
    }

    #[test]
    fn broadcast_width_limits_and_defers() {
        let mut cfg = Config::spt_fwd(ThreatModel::Futuristic);
        cfg.broadcast_width = 1;
        let mut e = engine(cfg);
        // Two loads declassify two different address registers at once.
        for (seq, addr_reg, dest) in [(1u64, 2u32, 10u32), (2, 3, 11)] {
            e.rename(RenameInfo {
                seq,
                class: InstClass::Load,
                srcs: [Some((addr_reg, Address)), None, None],
                dest: Some(dest),
                load_bytes: Some(8),
            });
            e.declassify_vp(seq);
        }
        let r = e.step();
        assert_eq!(r.broadcasts.len(), 1);
        assert_eq!(r.broadcasts[0].0, 2, "older slot has priority");
        assert!(e.stats().broadcasts_deferred > 0);
        let r = e.step();
        assert_eq!(r.broadcasts.len(), 1);
        assert_eq!(r.broadcasts[0].0, 3);
    }

    #[test]
    fn ideal_mode_converges_in_one_step() {
        let mut e = engine(Config::spt_ideal(ThreatModel::Futuristic));
        // Chain: r0 -> r1 -> r2 -> r3 via copies; declassify r0.
        e.rename(ri(1, InstClass::Copy, &[(0, Data)], Some(1)));
        e.rename(ri(2, InstClass::Copy, &[(1, Data)], Some(2)));
        e.rename(ri(3, InstClass::Copy, &[(2, Data)], Some(3)));
        e.rename(RenameInfo {
            seq: 4,
            class: InstClass::Load,
            srcs: [Some((0, Address)), None, None],
            dest: Some(9),
            load_bytes: Some(8),
        });
        e.declassify_vp(4);
        let r = e.step();
        let mut regs: Vec<PhysReg> = r.broadcasts.iter().map(|b| b.0).collect();
        regs.sort_unstable();
        assert_eq!(regs, vec![0, 1, 2, 3], "ideal propagation reaches the whole chain");
        // The census recorded one cycle with 4 untaints.
        assert_eq!(e.stats().untaint_cycle_hist[3], 1);
    }

    #[test]
    fn monotonicity_taint_never_returns() {
        // Once broadcast-untainted, stepping more never re-taints.
        let mut e = full();
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        e.declassify_vp(1);
        e.step();
        assert!(e.reg_taint(2).is_clear());
        for _ in 0..5 {
            e.step();
            assert!(e.reg_taint(2).is_clear());
        }
    }

    #[test]
    fn retire_preserves_pending_broadcasts() {
        let mut cfg = Config::spt_fwd(ThreatModel::Futuristic);
        cfg.broadcast_width = 1;
        let mut e = engine(cfg);
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        e.declassify_vp(1);
        // Retire before any broadcast happened: the slot survives for the
        // commit-latency grace window, then its pendings become orphans.
        e.retire(1);
        let r = e.step();
        assert_eq!(r.broadcasts, vec![(2, UntaintKind::DeclassifyTransmit)]);
        assert!(e.reg_taint(2).is_clear());
        // After the grace period the slot is gone.
        for _ in 0..=TaintEngine::RETIRE_GRACE {
            e.step();
        }
        assert_eq!(e.live_slots(), 0);
    }

    #[test]
    fn recycled_phys_drops_stale_pendings() {
        let mut e = full();
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        e.declassify_vp(1);
        e.retire(1);
        // Physical register 2 is recycled for a new (tainted) value before
        // the pending broadcast drains: the stale untaint must be dropped.
        e.rename(ri(2, InstClass::Lossy, &[(3, Data)], Some(2)));
        let r = e.step();
        assert!(r.broadcasts.is_empty(), "stale untaint must not reach the new value");
        assert!(e.reg_taint(2).any());
    }

    #[test]
    fn squash_drops_pending_inferences() {
        let mut e = full();
        e.rename(RenameInfo {
            seq: 5,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        e.declassify_vp(5);
        e.squash_from(5);
        let r = e.step();
        assert!(r.broadcasts.is_empty());
        assert!(e.reg_taint(2).any(), "squashed declassification must not leak out");
    }

    #[test]
    fn shadow_load_output_untaint() {
        let mut e = full();
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        // Shadow L1 reports the loaded bytes are public.
        e.set_load_output(1, TaintMask::NONE, UntaintKind::ShadowL1);
        let r = e.step();
        assert_eq!(r.broadcasts, vec![(10, UntaintKind::ShadowL1)]);
        assert_eq!(e.stats().events[UntaintKind::ShadowL1], 1);
    }

    #[test]
    fn partially_tainted_load_output_does_not_broadcast() {
        let mut e = full();
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        // Only the low byte is public.
        e.set_load_output(1, TaintMask::from_bits(0b1110), UntaintKind::ShadowL1);
        let r = e.step();
        assert!(r.broadcasts.is_empty());
        assert_eq!(e.dest_mask(1), Some(TaintMask::from_bits(0b1110)));
    }

    #[test]
    fn secure_baseline_never_untaints() {
        let mut e = engine(Config::secure_baseline(ThreatModel::Futuristic));
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Load,
            srcs: [Some((2, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        e.declassify_vp(1);
        let r = e.step();
        assert!(r.broadcasts.is_empty());
        assert!(e.reg_taint(2).any());
    }

    #[test]
    fn broadcast_order_is_stable_across_insertion_histories() {
        // The slab keys slots by sequence number, so broadcast priority is
        // a pure function of the live slot set — independent of how the
        // engine got there. Build the same final slots two ways (straight
        // line vs. with an interleaved squashed wrong-path burst and an
        // extra retired-then-purged slot) and demand identical broadcast
        // streams.
        let build_direct = |mut seqs: Vec<Seq>| -> TaintEngine {
            let mut e = full();
            seqs.sort_unstable();
            for seq in seqs {
                e.rename(RenameInfo {
                    seq,
                    class: InstClass::Load,
                    srcs: [Some(((seq % 7) as PhysReg + 1, Address)), None, None],
                    dest: Some(30 + (seq % 16) as PhysReg),
                    load_bytes: Some(8),
                });
                e.declassify_vp(seq);
            }
            e
        };
        let seqs: Vec<Seq> = vec![2, 3, 5, 8, 13];
        let mut a = build_direct(seqs.clone());

        let mut b = full();
        for (i, &seq) in seqs.iter().enumerate() {
            b.rename(RenameInfo {
                seq,
                class: InstClass::Load,
                srcs: [Some(((seq % 7) as PhysReg + 1, Address)), None, None],
                dest: Some(30 + (seq % 16) as PhysReg),
                load_bytes: Some(8),
            });
            b.declassify_vp(seq);
            if i == 2 {
                // Wrong-path burst: younger slots that are squashed away
                // before the next right-path instruction arrives.
                for wrong in 20..24u64 {
                    b.rename(ri(wrong, InstClass::Lossy, &[(6, Data)], Some(50)));
                }
                b.squash_from(20);
            }
        }
        for &seq in &seqs {
            assert_eq!(a.operand_mask(seq, 0), b.operand_mask(seq, 0));
        }
        for _ in 0..12 {
            assert_eq!(
                a.step().broadcasts,
                b.step().broadcasts,
                "broadcast order must not depend on insertion history"
            );
        }
        assert_eq!(a.stats().decision_digest(), b.stats().decision_digest());
    }

    #[test]
    fn convergence_bound_three_visits() {
        // Paper §6.6: each slot is examined at most 3 times before its
        // registers stabilize. We verify global convergence: with N slots
        // and ideal mode, a single step reaches the fixpoint; with bounded
        // width, at most (3 regs per slot * N) steps are ever needed.
        let mut e = full();
        let n = 20;
        // Build a copy chain r0 -> r1 -> ... -> r(n).
        for i in 0..n {
            e.rename(ri(i as Seq + 1, InstClass::Copy, &[(i, Data)], Some(i + 1)));
        }
        e.rename(RenameInfo {
            seq: 100,
            class: InstClass::Load,
            srcs: [Some((0, Address)), None, None],
            dest: Some(60),
            load_bytes: Some(8),
        });
        e.declassify_vp(100);
        let mut total = 0;
        for _ in 0..(3 * (n as usize + 1)) {
            total += e.step().broadcasts.len();
        }
        assert_eq!(total as u32, n + 1, "the whole chain converges within the bound");
        for i in 0..=n {
            assert!(e.reg_taint(i).is_clear());
        }
    }

    /// A public register is never broadcast and, while it is not
    /// reallocated, never recycled, so no walk ever compacts its dependent
    /// list: the push-side compaction must keep it bounded by the live
    /// readers instead of by every reader it ever had.
    #[test]
    fn reading_a_public_register_keeps_its_dependent_list_bounded() {
        let mut e = full();
        e.rename(ri(1, InstClass::Const, &[], Some(1)));
        assert!(e.reg_taint(1).is_clear());
        e.retire(1);
        for seq in 2..10_002 {
            e.rename(ri(seq, InstClass::Store, &[(1, Address)], None));
            e.retire(seq);
            e.step();
        }
        let len = e.deps[1].seqs.len();
        assert!(len <= DepList::MIN_COMPACT, "10 000 reads left {len} entries");
        assert!(e.live_slots() <= usize::from(TaintEngine::RETIRE_GRACE) + 1);
    }
}

#[cfg(test)]
mod grace_tests {
    use super::*;
    use crate::config::{Config, ThreatModel};
    use spt_isa::OperandRole::*;

    /// Regression test for a soundness bug found by the §8 validator: a
    /// grace entry whose ttl reached zero in the same pass as another
    /// entry's expiry was dropped from the list without finalization,
    /// leaking its slot forever. The stale slot could later fire a forward
    /// untaint on a recycled physical register.
    #[test]
    fn every_retired_slot_is_finalized_after_grace() {
        let mut e = TaintEngine::new(Config::spt_full(ThreatModel::Futuristic), 64);
        // Retire slots on staggered cycles so ttls interleave.
        for k in 0..10u64 {
            e.rename(RenameInfo {
                seq: k + 1,
                class: InstClass::Load,
                srcs: [Some(((k % 8) as PhysReg + 1, Address)), None, None],
                dest: Some(20 + k as PhysReg),
                load_bytes: Some(8),
            });
        }
        for k in 0..10u64 {
            e.retire(k + 1);
            e.step();
        }
        for _ in 0..=TaintEngine::RETIRE_GRACE as usize + 1 {
            e.step();
        }
        assert_eq!(e.live_slots(), 0, "all retired slots must be finalized");
    }

    /// SecureBaseline never steps its rules, so a retired slot must not
    /// wait for a grace period (or a recycled register) to be freed: slots
    /// of operand-less instructions (`Nop`, `Jump`, `Halt`) would live
    /// forever.
    #[test]
    fn secure_baseline_frees_retired_slots_at_once() {
        let mut e = TaintEngine::new(Config::secure_baseline(ThreatModel::Futuristic), 64);
        for seq in 1..=10_000 {
            let class = InstClass::ControlFlow;
            e.rename(RenameInfo { seq, class, srcs: [None; 3], dest: None, load_bytes: None });
            e.retire(seq);
            e.step();
        }
        assert_eq!(e.live_slots(), 0);
    }

    #[test]
    fn stale_slot_cannot_fire_on_recycled_register() {
        let mut e = TaintEngine::new(Config::spt_full(ThreatModel::Futuristic), 64);
        // Slot 1: lossy op producing p10 from tainted p5.
        e.rename(RenameInfo {
            seq: 1,
            class: InstClass::Lossy,
            srcs: [Some((5, Data)), None, None],
            dest: Some(10),
            load_bytes: None,
        });
        e.retire(1);
        // Recycle p10 for a new tainted value while slot 1 is in grace.
        e.rename(RenameInfo {
            seq: 2,
            class: InstClass::Load,
            srcs: [Some((6, Address)), None, None],
            dest: Some(10),
            load_bytes: Some(8),
        });
        // Now declassify p5 (slot 1's source) via a transmitter.
        e.rename(RenameInfo {
            seq: 3,
            class: InstClass::Load,
            srcs: [Some((5, Address)), None, None],
            dest: Some(11),
            load_bytes: Some(8),
        });
        e.declassify_vp(3);
        // Step far past the grace period: the recycled p10 (the load output
        // of seq 2) must never be untainted by slot 1's stale forward rule.
        for _ in 0..12 {
            e.step();
            assert!(
                e.reg_taint(10).any(),
                "stale slot untainted a recycled register (soundness bug)"
            );
        }
    }
}
