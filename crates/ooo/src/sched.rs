//! Event-driven scheduler bookkeeping for the machine hot loop.
//!
//! The straightforward pipeline model walks the whole ROB once (or more)
//! per stage per cycle, making simulation cost O(ROB size) even when
//! almost nothing happens in a cycle. The structures here turn each stage
//! into O(work actually done):
//!
//! * [`Scheduler::waiters`] — per-physical-register wakeup lists. A
//!   renamed instruction with unready operands registers itself on each
//!   unready source; writeback wakes exactly the dependents of the
//!   register it wrote.
//! * [`Scheduler::ready`] — an age-ordered ready queue. Issue iterates
//!   only instructions that are dispatched *and* have all operands ready,
//!   in sequence (= age) order, exactly the set the full ROB scan would
//!   have selected.
//! * [`Scheduler::completions`] — a min-heap of `(done_at, seq)` for
//!   issued instructions. Writeback pops due completions instead of
//!   scanning for them. Due entries are re-sorted by seq before
//!   processing so same-cycle completions apply in age order (the shadow
//!   read-mask vs. clear-range ordering is observable).
//! * Age-ordered index sets ([`Scheduler::stores`], [`Scheduler::loads`],
//!   [`Scheduler::resolvable_cf`], [`Scheduler::pending_viol`],
//!   [`Scheduler::fwd_loads`], [`Scheduler::shadow_wait`]) so the LSQ
//!   searches, branch/violation resolution and the §6.7/§6.8 passes visit
//!   only candidate entries, still in the original scan order.
//!   `resolvable_cf` holds only *completed* unresolved control flow:
//!   writeback adds a branch when it becomes `Done`, so branch resolution
//!   never visits one still waiting to execute.
//! * The visibility-point cursor ([`Scheduler::ok_count`],
//!   [`Scheduler::vp_len`]). Per-entry "self-ok" (see
//!   `Machine::update_vp`) is monotone — once an entry stops blocking
//!   younger instructions' VP it never starts again — and the VP prefix
//!   survives squashes (only younger entries are removed) and retirement
//!   (head entries leave the prefix), so a persistent cursor replaces the
//!   full walk.
//!
//! Every age-ordered set, the ready queue included, is a
//! [`spt_util::SeqSet`]: a bitset over the in-flight window of sequence
//! numbers. Insert, remove and membership are one word update, iteration
//! walks words in seq order (skipping squash holes 64 seqs at a time), and
//! a squash truncates the suffix, so each rename, issue, retire and squash
//! costs O(1) per set it touches.
//!
//! Everything here is bookkeeping over `Seq` values; the ROB entries stay
//! the single source of truth. Lists tolerate stale seqs (squashed
//! instructions): sequence numbers are never reused, so a stale seq
//! simply no longer resolves to a ROB entry and is skipped. The
//! `tests/equivalence.rs` harness pins the rewrite to bit-identical
//! results against goldens captured from the pre-rewrite walk-everything
//! scheduler.

use spt_core::{PhysReg, Seq};
use spt_util::SeqSet;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Scheduler-side index structures (see module docs). Owned by `Machine`;
/// the pipeline stages keep them in sync with the ROB.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scheduler {
    /// Per-physical-register wakeup lists: seqs of dispatched instructions
    /// waiting on this register. Drained when the register is written;
    /// cleared when the register is reallocated (any residue then belongs
    /// to squashed consumers of its previous life).
    pub waiters: Vec<Vec<Seq>>,
    /// Dispatched entries whose operands are all ready, in age order.
    pub ready: SeqSet,
    /// `(done_at, seq)` for issued, not yet written-back entries. Entries
    /// for squashed instructions are skipped lazily on pop.
    pub completions: BinaryHeap<Reverse<(u64, Seq)>>,
    /// Completed control-flow entries whose resolution effects are still
    /// pending (writeback adds them; resolution removes them).
    pub resolvable_cf: SeqSet,
    /// Stores carrying a deferred memory-order violation (§6.7).
    pub pending_viol: SeqSet,
    /// Stores currently in the ROB (store-queue searches).
    pub stores: SeqSet,
    /// Loads currently in the ROB (violation searches).
    pub loads: SeqSet,
    /// Loads that received store-to-load forwarded data (§6.7 pass).
    pub fwd_loads: SeqSet,
    /// Completed non-forwarded loads awaiting the post-hoc §6.8 rule-②
    /// shadow clear (only populated when that pass can ever run).
    pub shadow_wait: SeqSet,
    /// Visibility-point cursor: number of leading ROB entries that were
    /// "self-ok" as of the last `update_vp` (monotone per entry).
    pub ok_count: usize,
    /// Number of leading ROB entries marked `vp` (= `min(ok_count + 1,
    /// rob.len())` after each `update_vp`).
    pub vp_len: usize,

    // Reusable per-cycle scratch buffers (the hot loop allocates nothing).
    pub newly_vp: Vec<Seq>,
    pub due: Vec<Seq>,
    pub ready_snapshot: Vec<Seq>,
    pub resolve_snapshot: Vec<Seq>,
    pub stl_snapshot: Vec<Seq>,
    pub squash_snapshot: Vec<Seq>,
}

impl Scheduler {
    pub fn new(num_phys: usize) -> Scheduler {
        Scheduler { waiters: vec![Vec::new(); num_phys], ..Scheduler::default() }
    }

    /// Drops every tracked seq `>= first` (a squash removed them from the
    /// ROB). The completion heap and the wakeup lists are cleaned lazily.
    pub fn squash_from(&mut self, first: Seq) {
        for set in [
            &mut self.ready,
            &mut self.resolvable_cf,
            &mut self.pending_viol,
            &mut self.stores,
            &mut self.loads,
            &mut self.fwd_loads,
            &mut self.shadow_wait,
        ] {
            set.truncate_from(first);
        }
    }
}

/// One tracked recently retired load (its output register may still be
/// declassified by an in-flight consumer's visibility point, clearing the
/// read bytes in the shadow — §6.8 rule ②, paper §8 proof case 3).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetiredLoad {
    pub addr: u64,
    pub bytes: u64,
}

/// Capacity-bounded, phys-indexed table of recently retired loads.
///
/// Replaces a `VecDeque` that rename scanned linearly on every allocation
/// (`retain(|r| r.phys != new)`) and untaint broadcasts searched
/// linearly. Lookup/removal by physical register is O(1); insertion-order
/// eviction uses a FIFO of `(phys, generation)` with lazily skipped
/// tombstones, so the capacity bound evicts the oldest *live* entry,
/// exactly like the old `pop_front`.
///
/// Invariant (inherited from the old structure): at most one live entry
/// per physical register — a register must be recycled through rename
/// (which clears its entry) before another load can retire into it.
#[derive(Clone, Debug)]
pub(crate) struct RetiredLoadTable {
    /// Live entry per phys: `(generation, load)`.
    slots: Vec<Option<(u64, RetiredLoad)>>,
    /// Insertion order; stale `(phys, gen)` pairs are skipped on eviction.
    fifo: VecDeque<(PhysReg, u64)>,
    next_gen: u64,
    live: usize,
    cap: usize,
}

impl RetiredLoadTable {
    pub fn new(num_phys: usize, cap: usize) -> RetiredLoadTable {
        RetiredLoadTable {
            slots: vec![None; num_phys],
            fifo: VecDeque::with_capacity(cap),
            next_gen: 0,
            live: 0,
            cap,
        }
    }

    /// Number of live entries (diagnostics / tests).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Records a retired load, evicting the oldest live entry when full.
    pub fn insert(&mut self, phys: PhysReg, addr: u64, bytes: u64) {
        while self.live >= self.cap {
            let (p, g) = self.fifo.pop_front().expect("live entries imply FIFO nodes");
            if self.slots[p as usize].is_some_and(|(gen, _)| gen == g) {
                self.slots[p as usize] = None;
                self.live -= 1;
            }
        }
        debug_assert!(
            self.slots[phys as usize].is_none(),
            "a register is recycled through rename before it can host a second retired load"
        );
        let gen = self.next_gen;
        self.next_gen += 1;
        self.slots[phys as usize] = Some((gen, RetiredLoad { addr, bytes }));
        self.fifo.push_back((phys, gen));
        self.live += 1;
    }

    /// Removes and returns the entry for `phys`, if any (its tombstone
    /// stays in the FIFO and is skipped on eviction).
    pub fn take(&mut self, phys: PhysReg) -> Option<RetiredLoad> {
        let (_, load) = self.slots[phys as usize].take()?;
        self.live -= 1;
        Some(load)
    }

    /// Drops the entry for `phys` (rename recycled the register).
    pub fn clear_phys(&mut self, phys: PhysReg) {
        let _ = self.take(phys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_squash_drops_young_seqs_from_every_set() {
        let mut s = Scheduler::new(8);
        for seq in [1u64, 5, 9] {
            s.ready.insert(seq);
            s.resolvable_cf.insert(seq);
            s.pending_viol.insert(seq);
            s.stores.insert(seq);
            s.loads.insert(seq);
            s.fwd_loads.insert(seq);
            s.shadow_wait.insert(seq);
        }
        s.squash_from(5);
        for set in [
            &s.ready,
            &s.resolvable_cf,
            &s.pending_viol,
            &s.stores,
            &s.loads,
            &s.fwd_loads,
            &s.shadow_wait,
        ] {
            assert_eq!(set.iter().collect::<Vec<_>>(), vec![1]);
        }
    }

    #[test]
    fn retired_load_table_caps_and_evicts_oldest_live() {
        let mut t = RetiredLoadTable::new(16, 3);
        t.insert(1, 0x100, 8);
        t.insert(2, 0x200, 8);
        t.insert(3, 0x300, 8);
        assert_eq!(t.live(), 3);
        // Full: the next insert evicts phys 1 (oldest).
        t.insert(4, 0x400, 8);
        assert_eq!(t.live(), 3);
        assert!(t.take(1).is_none(), "oldest entry was evicted");
        assert_eq!(t.take(2).map(|r| r.addr), Some(0x200));
    }

    #[test]
    fn retired_load_table_eviction_skips_tombstones() {
        let mut t = RetiredLoadTable::new(16, 2);
        t.insert(1, 0x100, 8);
        t.insert(2, 0x200, 8);
        // Rename recycles phys 1: its FIFO node becomes a tombstone.
        t.clear_phys(1);
        assert_eq!(t.live(), 1);
        t.insert(3, 0x300, 8);
        // Full again; the eviction must skip phys 1's tombstone and evict
        // phys 2, the oldest *live* entry.
        t.insert(4, 0x400, 8);
        assert_eq!(t.live(), 2);
        assert!(t.take(2).is_none(), "phys 2 evicted, not a tombstone");
        assert_eq!(t.take(3).map(|r| r.addr), Some(0x300));
        assert_eq!(t.take(4).map(|r| r.addr), Some(0x400));
    }

    #[test]
    fn retired_load_table_generations_disambiguate_reinsertion() {
        let mut t = RetiredLoadTable::new(16, 2);
        t.insert(1, 0x100, 8);
        t.clear_phys(1);
        // Phys 1 hosts a new load: the old FIFO node must not evict it.
        t.insert(1, 0x111, 8);
        t.insert(2, 0x200, 8);
        // Table is full; evicting must pop the stale (1, gen0) node,
        // recognise it as stale, and evict the *current* phys-1 entry.
        t.insert(3, 0x300, 8);
        assert_eq!(t.live(), 2);
        assert!(t.take(1).is_none(), "current phys-1 entry was the oldest live");
        assert_eq!(t.take(2).map(|r| r.addr), Some(0x200));
    }
}
