//! Aligning the retired instruction streams of two traces.
//!
//! Sequence numbers cannot be compared across configurations: seqs are
//! assigned at rename and wrong-path fetches consume them, so two runs of
//! the same program under different protections burn through the seq
//! space at different rates. What *is* comparable is the retired stream —
//! both runs retire the same architectural instruction sequence — so
//! alignment pairs retired records by **retire rank** and verifies each
//! pair by PC.
//!
//! Within one trace, squash/re-fetch epochs are already unambiguous: the
//! machine never reuses a sequence number, so a re-fetched instance of
//! the same static instruction carries a fresh (strictly larger) seq and
//! its squashed predecessor a `retire:0` record. [`align_retired`]
//! asserts this invariant (strictly increasing seq over the retired
//! stream) rather than inventing a separate epoch field; the
//! `tests/observability.rs` regression test drives a branch-mispredicting
//! workload through the emitter to pin it.
//!
//! A small resync window absorbs tail divergence (one run may overshoot
//! the retirement budget by a few instructions, and a PC glitch must not
//! desynchronize the whole tail): on a PC mismatch the aligner scans up
//! to [`RESYNC_WINDOW`] records ahead on either side for the first
//! re-match, counting everything it skipped as unmatched.

use spt_util::trace::{OwnedInstRecord, ParsedTrace};

/// How far the aligner scans ahead (on either side) to re-synchronize
/// after a PC mismatch.
pub const RESYNC_WINDOW: usize = 8;

/// Result of aligning two retired streams.
#[derive(Clone, Debug, Default)]
pub struct Alignment {
    /// Matched pairs as indices into `a.records` / `b.records`, in retire
    /// order.
    pub pairs: Vec<(usize, usize)>,
    /// Retired records in trace A.
    pub retired_a: usize,
    /// Retired records in trace B.
    pub retired_b: usize,
    /// Retired records skipped because their PCs disagreed (both sides
    /// counted once per resync step).
    pub pc_mismatches: usize,
}

impl Alignment {
    /// Fraction of the larger retired stream that was matched (1.0 for
    /// two empty traces).
    pub fn rate(&self) -> f64 {
        let denom = self.retired_a.max(self.retired_b);
        if denom == 0 {
            1.0
        } else {
            self.pairs.len() as f64 / denom as f64
        }
    }
}

/// Indices of retired records, asserting the never-reused-seq invariant
/// that makes (seq, epoch) disambiguation unnecessary.
fn retired_indices(t: &ParsedTrace, label: &str) -> Vec<usize> {
    let mut last_seq = 0u64;
    let mut out = Vec::new();
    for (i, r) in t.records.iter().enumerate() {
        if r.retired() {
            assert!(
                r.seq > last_seq || last_seq == 0,
                "trace {label}: retired seq {} not strictly increasing after {} — \
                 a squash/re-fetch epoch reused a sequence number",
                r.seq,
                last_seq
            );
            last_seq = r.seq;
            out.push(i);
        }
    }
    out
}

/// Aligns the retired streams of two traces of the same workload by
/// retire rank, PC-verified, with a bounded resync window.
///
/// # Panics
///
/// Panics if either trace's retired stream has non-increasing sequence
/// numbers (a trace-emission bug: seqs are never reused, so squash
/// epochs must already be distinguishable).
pub fn align_retired(a: &ParsedTrace, b: &ParsedTrace) -> Alignment {
    let ra = retired_indices(a, "A");
    let rb = retired_indices(b, "B");
    let mut out = Alignment {
        pairs: Vec::with_capacity(ra.len().min(rb.len())),
        retired_a: ra.len(),
        retired_b: rb.len(),
        pc_mismatches: 0,
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < ra.len() && j < rb.len() {
        let pa = a.records[ra[i]].pc;
        let pb = b.records[rb[j]].pc;
        if pa == pb {
            out.pairs.push((ra[i], rb[j]));
            i += 1;
            j += 1;
            continue;
        }
        // Resync: find the nearest re-match within the window, preferring
        // the smallest total skip.
        let mut best: Option<(usize, usize)> = None;
        for skip in 1..=RESYNC_WINDOW {
            if i + skip < ra.len() && a.records[ra[i + skip]].pc == pb {
                best = Some((skip, 0));
                break;
            }
            if j + skip < rb.len() && b.records[rb[j + skip]].pc == pa {
                best = Some((0, skip));
                break;
            }
        }
        match best {
            Some((da, db)) => {
                out.pc_mismatches += da + db;
                i += da;
                j += db;
            }
            None => {
                out.pc_mismatches += 1;
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Convenience accessor: the record pair at alignment index `k`.
pub fn pair_records<'t>(
    a: &'t ParsedTrace,
    b: &'t ParsedTrace,
    alignment: &Alignment,
    k: usize,
) -> (&'t OwnedInstRecord, &'t OwnedInstRecord) {
    let (ia, ib) = alignment.pairs[k];
    (&a.records[ia], &b.records[ib])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_util::trace::OwnedInstRecord;

    fn retired_rec(seq: u64, pc: u64) -> OwnedInstRecord {
        OwnedInstRecord {
            seq,
            pc,
            disasm: "nop".into(),
            fetch_cycle: seq,
            rename_cycle: seq + 1,
            issue_cycle: Some(seq + 2),
            complete_cycle: Some(seq + 3),
            retire_cycle: Some(seq + 4),
        }
    }

    fn squashed_rec(seq: u64, pc: u64) -> OwnedInstRecord {
        OwnedInstRecord {
            issue_cycle: None,
            complete_cycle: None,
            retire_cycle: None,
            ..retired_rec(seq, pc)
        }
    }

    fn trace(records: Vec<OwnedInstRecord>) -> ParsedTrace {
        ParsedTrace { records, events: Vec::new() }
    }

    #[test]
    fn identical_streams_align_fully() {
        let a = trace(vec![retired_rec(1, 0x40), squashed_rec(2, 0x44), retired_rec(3, 0x44)]);
        let b = trace(vec![retired_rec(1, 0x40), retired_rec(2, 0x44)]);
        let al = align_retired(&a, &b);
        assert_eq!(al.pairs, vec![(0, 0), (2, 1)]);
        assert_eq!((al.retired_a, al.retired_b), (2, 2));
        assert_eq!(al.pc_mismatches, 0);
        assert!((al.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_overshoot_keeps_rate_high() {
        let mut recs = Vec::new();
        for s in 1..=100u64 {
            recs.push(retired_rec(s, 0x40 + s * 4));
        }
        let a = trace(recs.clone());
        recs.push(retired_rec(101, 0x1000)); // B retired a few extra
        let b = trace(recs);
        let al = align_retired(&a, &b);
        assert_eq!(al.pairs.len(), 100);
        assert!(al.rate() > 0.99);
    }

    #[test]
    fn resync_skips_one_sided_extra() {
        // B has one extra retired instruction in the middle; the window
        // must skip it and keep the tail aligned.
        let a = trace(vec![retired_rec(1, 0x40), retired_rec(2, 0x48), retired_rec(3, 0x4c)]);
        let b = trace(vec![
            retired_rec(1, 0x40),
            retired_rec(2, 0x999),
            retired_rec(3, 0x48),
            retired_rec(4, 0x4c),
        ]);
        let al = align_retired(&a, &b);
        assert_eq!(al.pairs.len(), 3);
        assert_eq!(al.pc_mismatches, 1);
        let (_, rb) = pair_records(&a, &b, &al, 2);
        assert_eq!(rb.pc, 0x4c);
    }

    #[test]
    #[should_panic(expected = "not strictly increasing")]
    fn reused_seq_in_retired_stream_is_a_bug() {
        let a = trace(vec![retired_rec(5, 0x40), retired_rec(5, 0x44)]);
        let _ = align_retired(&a, &a);
    }

    #[test]
    fn empty_traces_align_trivially() {
        let al = align_retired(&trace(vec![]), &trace(vec![]));
        assert!((al.rate() - 1.0).abs() < 1e-12);
        assert!(al.pairs.is_empty());
    }
}
