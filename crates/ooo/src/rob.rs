//! Reorder buffer entry types and the seq → ROB index.

use spt_core::{PhysReg, Seq};
use spt_isa::{Inst, Reg};
use std::collections::VecDeque;

/// Id of a frontend snapshot in the machine's snapshot ring: the
/// speculative GHR + RAS state an instruction was fetched under, which
/// squash recovery rewinds to, and for control flow the TAGE bookkeeping
/// trained at retire.
pub type SnapId = u64;

/// Execution status of an in-flight instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecState {
    /// Waiting in the reservation station for operands / protection.
    Waiting,
    /// Issued to an execution unit; completes at `done_at`.
    Issued,
    /// Result produced and written back.
    Done,
}

/// Memory-side state for load/store entries.
#[derive(Clone, Debug, Default)]
pub struct MemState {
    /// Effective address, once computed.
    pub addr: Option<u64>,
    /// Access width in bytes.
    pub bytes: u64,
    /// Loads: value read (from cache or forwarding). Stores: value to write.
    pub value: u64,
    /// Loads: the store that forwarded the data, if any.
    pub fwd_from: Option<Seq>,
    /// Loads: `STLPublic(S, L)` (§6.7) holds: store `S` forwards to this
    /// load `L`, and the addresses of `L` and of every store from `S` up
    /// to `L` are untainted. Only then may untaint cross the pair without
    /// revealing a secret address alias (Figure 5). Once true it stays
    /// true; every untaint pass recomputes it until then.
    pub stl_public: bool,
    /// Stores: the oldest younger load that executed with stale data; the
    /// squash is deferred until the implicit branch is public (§6.7).
    pub pending_violation: Option<Seq>,
    /// Loads: the access has touched the cache (state change happened).
    pub accessed: bool,
    /// Loads: the post-hoc shadow clear (§6.8 rule ②) already ran.
    pub range_cleared: bool,
    /// Loads: executed obliviously (SDO policy): fixed latency, no cache
    /// state change, no shadow interaction.
    pub oblivious: bool,
}

/// Per-stage timestamps for observability.
///
/// Recorded unconditionally (plain stores, never read back by any stage),
/// so tracing imposes no timing or digest difference when disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTiming {
    /// Cycle the instruction entered the fetch queue.
    pub fetch_cycle: u64,
    /// Cycle it was renamed into the ROB.
    pub rename_cycle: u64,
    /// Cycle it issued to a functional unit / memory port.
    pub issue_cycle: Option<u64>,
    /// Cycle its result wrote back.
    pub complete_cycle: Option<u64>,
    /// Cycles this (transmitter) instruction was ready but blocked by the
    /// protection gate — the per-instruction share of
    /// `MachineStats::transmitter_delay_cycles`.
    pub xmit_delay_cycles: u64,
}

/// One reorder buffer entry.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global sequence number (monotonic, never reused).
    pub seq: Seq,
    /// PC of the instruction.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Source physical registers, in `Inst::sources` order.
    pub srcs: [Option<PhysReg>; 3],
    /// Destination: `(arch, new phys, old phys)`.
    pub dest: Option<(Reg, PhysReg, PhysReg)>,
    /// Execution status.
    pub state: ExecState,
    /// Completion cycle when `Issued`.
    pub done_at: u64,
    /// Computed result (for register-writing instructions).
    pub result: u64,
    /// Whether the instruction still occupies a reservation-station slot.
    pub in_rs: bool,
    /// Number of source operands still waiting on an unready physical
    /// register (scheduler wakeup bookkeeping; duplicated sources count
    /// once per slot). The entry sits in the ready queue iff it is
    /// `Waiting` with `pending_srcs == 0`.
    pub pending_srcs: u8,
    /// The frontend snapshot this instruction was fetched under (the state
    /// before its own prediction); a control-flow instruction's snapshot
    /// also holds its TAGE bookkeeping.
    pub snap: SnapId,
    /// Predicted next PC (what fetch followed).
    pub pred_next: u64,
    /// Predicted direction for conditional branches.
    pub pred_taken: bool,
    /// Actual next PC, once executed (control flow).
    pub actual_next: Option<u64>,
    /// Actual direction for conditional branches.
    pub actual_taken: bool,
    /// Control-flow resolution effects have been applied (redirect/confirm).
    /// Non-control-flow instructions are resolved from the start.
    pub resolved: bool,
    /// Reached the visibility point under the configured threat model.
    pub vp: bool,
    /// VP declassification has been performed for this entry.
    pub declassified: bool,
    /// Load/store state.
    pub mem: MemState,
    /// Stage timestamps for pipeline tracing.
    pub timing: StageTiming,
}

impl RobEntry {
    /// Creates a freshly renamed entry.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seq: Seq,
        pc: u64,
        inst: Inst,
        srcs: [Option<PhysReg>; 3],
        dest: Option<(Reg, PhysReg, PhysReg)>,
        snap: SnapId,
        pred_next: u64,
        pred_taken: bool,
    ) -> RobEntry {
        let is_cf = inst.is_control_flow();
        // Direct unconditional control flow is never mispredicted: the
        // target is program text. It resolves immediately.
        let auto_resolved = !is_cf || matches!(inst, Inst::Jump { .. } | Inst::Call { .. });
        let bytes = match inst {
            Inst::Load { size, .. } | Inst::Store { size, .. } => size.bytes(),
            _ => 0,
        };
        RobEntry {
            seq,
            pc,
            inst,
            srcs,
            dest,
            state: ExecState::Waiting,
            done_at: 0,
            result: 0,
            in_rs: true,
            pending_srcs: 0,
            snap,
            pred_next,
            pred_taken,
            actual_next: None,
            actual_taken: false,
            resolved: auto_resolved,
            vp: false,
            declassified: false,
            mem: MemState { bytes, ..MemState::default() },
            timing: StageTiming::default(),
        }
    }

    /// Whether this entry is a load.
    pub fn is_load(&self) -> bool {
        matches!(self.inst, Inst::Load { .. })
    }

    /// Whether this entry is a store.
    pub fn is_store(&self) -> bool {
        matches!(self.inst, Inst::Store { .. })
    }

    /// Whether execution is finished and the entry could retire (modulo
    /// being at the head and resolution).
    pub fn completed(&self) -> bool {
        self.state == ExecState::Done
    }

    /// Whether the byte ranges of two memory accesses overlap.
    pub fn ranges_overlap(a: u64, abytes: u64, b: u64, bbytes: u64) -> bool {
        a < b.wrapping_add(bbytes) && b < a.wrapping_add(abytes)
    }

    /// Whether range `(a, abytes)` fully covers `(b, bbytes)`.
    pub fn range_covers(a: u64, abytes: u64, b: u64, bbytes: u64) -> bool {
        a <= b && b.wrapping_add(bbytes) <= a.wrapping_add(abytes)
    }
}

/// O(1) seq → ROB index. The ROB is sorted by seq but squashes leave gaps,
/// so index arithmetic alone is not enough; this keeps a sequence-keyed
/// window over the in-flight range mapping each seq to its *absolute*
/// dispatch position (stable under `pop_front`), from which the current
/// physical index is `abs - popped`. The window only ever grows at the back
/// (dispatch), shrinks at the front (retire), and truncates (squash) —
/// mirroring the only three ways the ROB itself mutates.
#[derive(Clone, Debug, Default)]
pub(crate) struct RobIndex {
    /// Seq corresponding to `win[0]` (meaningful while `win` is non-empty).
    base: Seq,
    /// Absolute dispatch position per seq; `u64::MAX` marks a squash gap.
    win: VecDeque<u64>,
    /// Entries retired off the ROB front so far.
    popped: u64,
    /// Entries ever dispatched (the next absolute position).
    pushed: u64,
}

impl RobIndex {
    const GAP: u64 = u64::MAX;

    pub(crate) fn get(&self, seq: Seq) -> Option<usize> {
        let off = seq.checked_sub(self.base)?;
        match self.win.get(off as usize) {
            Some(&abs) if abs != Self::GAP => Some((abs - self.popped) as usize),
            _ => None,
        }
    }

    /// Records a dispatch; seqs are strictly increasing, so any skipped
    /// range (a squashed suffix refetched under fresh seqs) becomes gaps.
    pub(crate) fn push(&mut self, seq: Seq) {
        if self.win.is_empty() {
            self.base = seq;
        }
        while self.base + (self.win.len() as u64) < seq {
            self.win.push_back(Self::GAP);
        }
        self.win.push_back(self.pushed);
        self.pushed += 1;
    }

    /// Records the head retiring, then sheds any leading gaps.
    pub(crate) fn pop_front(&mut self) {
        let abs = self.win.pop_front().expect("retired head is indexed");
        debug_assert_eq!(abs, self.popped);
        self.base += 1;
        self.popped += 1;
        while let Some(&Self::GAP) = self.win.front() {
            self.win.pop_front();
            self.base += 1;
        }
    }

    /// Drops every seq younger than `seq` (suffix squash). Rolls `pushed`
    /// back so absolute positions stay contiguous over the surviving
    /// entries — the invariant `physical = abs - popped` depends on it.
    pub(crate) fn squash_after(&mut self, seq: Seq) {
        let keep = (seq + 1).saturating_sub(self.base);
        if keep == 0 {
            self.win.clear();
        } else if (keep as usize) < self.win.len() {
            self.win.truncate(keep as usize);
        }
        while let Some(&Self::GAP) = self.win.back() {
            self.win.pop_back();
        }
        self.pushed = match self.win.back() {
            Some(&abs) => abs + 1,
            None => self.popped,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_and_cover() {
        assert!(RobEntry::ranges_overlap(0, 8, 4, 8));
        assert!(!RobEntry::ranges_overlap(0, 4, 4, 4));
        assert!(RobEntry::range_covers(0, 8, 0, 8));
        assert!(RobEntry::range_covers(0, 8, 4, 4));
        assert!(!RobEntry::range_covers(0, 8, 4, 8));
        assert!(!RobEntry::range_covers(4, 4, 0, 8));
    }

    #[test]
    fn entry_stays_slim() {
        // Rename moves one entry into the ROB per instruction, and most of
        // them are squashed on branchy code: the frontend state lives in
        // the machine's snapshot ring, not here.
        assert!(std::mem::size_of::<RobEntry>() <= 264, "{}", std::mem::size_of::<RobEntry>());
    }
}
