//! The frontend snapshot ring: the speculative GHR + RAS states squash
//! recovery can rewind to, one per control-flow instruction in flight
//! rather than one per instruction.
//!
//! Fetch tags every instruction with the id of the *open* snapshot, the
//! frontend state it was fetched under. Only a control-flow prediction, a
//! mispredict recovery or a violation restore changes that state, so the
//! straight-line run between two control-flow instructions shares one
//! snapshot. A control-flow instruction closes its snapshot (the state
//! before its own prediction) and stores its [`PredictInfo`] there for
//! training at retire; the next fetch opens a new one. A squash truncates
//! the ring after the recovery point (the truncated ids are reused; every
//! instruction that held one was squashed), and retire drops every
//! snapshot older than the oldest instruction in flight, so the ring holds
//! at most one snapshot per control-flow instruction in the ROB and fetch
//! queue, plus the open one.

use crate::rob::SnapId;
use spt_frontend::{Checkpoint, Frontend, PredictInfo};
use std::collections::VecDeque;

/// The machine's snapshot ring (see module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct SnapshotRing {
    /// Id of `ring[0]`.
    base: SnapId,
    ring: VecDeque<(Checkpoint, Option<PredictInfo>)>,
    /// Whether the back snapshot is open: it still equals the frontend's
    /// speculative state.
    open: bool,
}

impl SnapshotRing {
    /// The id of the snapshot of `fe`'s current state, taken first if the
    /// state changed since the last one.
    pub(crate) fn open(&mut self, fe: &Frontend) -> SnapId {
        if !self.open {
            self.ring.push_back((fe.checkpoint(), None));
            self.open = true;
        }
        self.base + self.ring.len() as SnapId - 1
    }

    /// Closes the open snapshot `id` for the control-flow instruction
    /// fetched under it, keeping that instruction's predictor bookkeeping.
    pub(crate) fn close(&mut self, id: SnapId, info: Option<PredictInfo>) {
        let i = self.index(id);
        debug_assert!(self.open && i + 1 == self.ring.len(), "snapshot {id} is not the open one");
        self.ring[i].1 = info;
        self.open = false;
    }

    /// The frontend state snapshot `id` holds.
    pub(crate) fn checkpoint(&self, id: SnapId) -> &Checkpoint {
        &self.ring[self.index(id)].0
    }

    /// The predictor bookkeeping of the control-flow instruction that
    /// closed snapshot `id`.
    pub(crate) fn predict_info(&self, id: SnapId) -> Option<&PredictInfo> {
        self.ring[self.index(id)].1.as_ref()
    }

    /// Mispredict recovery of the branch that closed `id`: drops every
    /// younger snapshot. The frontend then replays the branch's actual
    /// outcome, so the next fetch opens a new snapshot.
    pub(crate) fn truncate_after(&mut self, id: SnapId) {
        let keep = self.index(id) + 1;
        self.ring.truncate(keep);
        self.open = false;
    }

    /// Violation recovery to the victim fetched under `id`: drops every
    /// younger snapshot, and `id`, whose closing instruction was squashed
    /// and whose state the frontend is restored to, is open again.
    pub(crate) fn reopen(&mut self, id: SnapId) {
        let keep = self.index(id) + 1;
        self.ring.truncate(keep);
        self.ring[keep - 1].1 = None;
        self.open = true;
    }

    /// Drops every snapshot older than `oldest`, the snapshot of the
    /// oldest instruction in flight; with nothing in flight, every
    /// snapshot but the open one.
    pub(crate) fn release(&mut self, oldest: Option<SnapId>) {
        let keep_from =
            oldest.unwrap_or(self.base + self.ring.len() as SnapId - SnapId::from(self.open));
        while self.base < keep_from {
            self.ring.pop_front();
            self.base += 1;
        }
    }

    /// Number of snapshots held.
    pub(crate) fn len(&self) -> usize {
        self.ring.len()
    }

    fn index(&self, id: SnapId) -> usize {
        debug_assert!(
            id >= self.base && id - self.base < self.ring.len() as SnapId,
            "snapshot {id} outside the ring [{}, {})",
            self.base,
            self.base + self.ring.len() as SnapId
        );
        (id - self.base) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_isa::{BranchCond, Inst, Reg};

    const BRANCH: Inst =
        Inst::Branch { cond: BranchCond::Ne, rs1: Reg::R1, rs2: Reg::R0, target: 9 };

    #[test]
    fn straight_line_fetch_shares_one_snapshot() {
        let (mut fe, mut ring) = (Frontend::new(), SnapshotRing::default());
        let a = ring.open(&fe);
        assert_eq!(ring.open(&fe), a);
        let p = fe.predict(2, &BRANCH);
        ring.close(a, p.info);
        let b = ring.open(&fe);
        assert_eq!((b, ring.open(&fe), ring.len()), (a + 1, b, 2));
        assert!(ring.predict_info(a).is_some() && ring.predict_info(b).is_none());
    }

    #[test]
    fn recovery_truncates_and_release_keeps_the_oldest_in_flight() {
        let (mut fe, mut ring) = (Frontend::new(), SnapshotRing::default());
        let mut ids = Vec::new();
        for pc in 0..4 {
            let id = ring.open(&fe);
            let p = fe.predict(pc, &BRANCH);
            ring.close(id, p.info);
            ids.push(id);
        }
        // A violation victim fetched under ids[1]: the frontend returns to
        // that state and the snapshot is open again.
        fe.restore(ring.checkpoint(ids[1]));
        ring.reopen(ids[1]);
        assert_eq!((ring.len(), ring.open(&fe)), (2, ids[1]));
        assert!(ring.predict_info(ids[1]).is_none());
        // The branch that closed ids[0] mispredicted.
        ring.truncate_after(ids[0]);
        assert_eq!(ring.len(), 1);
        let next = ring.open(&fe);
        assert_eq!(next, ids[1], "a squashed snapshot's id is reused");
        ring.release(Some(next));
        assert_eq!(ring.len(), 1);
        ring.release(None);
        assert_eq!(ring.len(), 1, "the open snapshot stays");
        let p = fe.predict(9, &BRANCH);
        ring.close(next, p.info);
        ring.release(None);
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.open(&fe), next + 1);
    }
}
