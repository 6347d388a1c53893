//! Attributing per-instruction cycle deltas to stages and stall causes.
//!
//! For every aligned pair (see [`crate::align`]) the differ splits the
//! instruction's fetch-to-retire latency change into the four
//! pipeline-stage intervals the O3PipeView record exposes
//! (fetch→dispatch, dispatch→issue, issue→complete, complete→retire) and
//! labels each *slowed* instruction with **why**, by cross-referencing
//! the `SPTEvent:` lines of the protected trace:
//!
//! 1. the instruction itself was a held transmitter (`xmit-delay` events
//!    carry its seq) — subclassified as a **shadow-L1 wait** when its
//!    release coincides with a shadow-hierarchy untaint broadcast;
//! 2. the instruction was a branch whose own resolution was deferred
//!    (`resolve-defer` events carry its seq);
//! 3. its retirement was blocked behind an *older* deferred branch or
//!    held transmitter (an event with a smaller seq inside the
//!    instruction's complete→retire window);
//! 4. otherwise: plain **backpressure** — the residual cause naming
//!    queue/occupancy effects, so every positive delta has a label.
//!
//! Order matters: a transmitter that is itself held *and* stuck behind a
//! deferred branch is attributed to its own gate (the proximate cause the
//! protection inserted).

use crate::align::{align_retired, Alignment};
use spt_util::trace::{OwnedInstRecord, ParsedTrace, SptTraceEvent};
use std::collections::{HashMap, HashSet};

/// Why a slowed instruction lost cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// Residual: slowed with no SPT event of its own in range —
    /// queue/occupancy backpressure from the protection's traffic.
    #[default]
    Backpressure,
    /// Held at issue by the transmitter taint gate.
    TransmitterDelay,
    /// Held at issue by the taint gate and released by a shadow-L1/Mem
    /// untaint broadcast (the shadow structure's fill latency is the
    /// bottleneck).
    ShadowL1Wait,
    /// A tainted branch whose squash/redirect was deferred, or a victim
    /// retiring behind one.
    ResolutionDeferral,
}

/// All causes, in report order.
pub const ALL_CAUSES: [StallCause; 4] = [
    StallCause::TransmitterDelay,
    StallCause::ShadowL1Wait,
    StallCause::ResolutionDeferral,
    StallCause::Backpressure,
];

impl StallCause {
    /// Stable label used in reports and `spt-attrib-v1` documents.
    pub fn label(&self) -> &'static str {
        match self {
            StallCause::TransmitterDelay => "delayed-transmitter",
            StallCause::ShadowL1Wait => "shadow-l1-wait",
            StallCause::ResolutionDeferral => "deferred-resolution",
            StallCause::Backpressure => "backpressure",
        }
    }
}

/// Per-stage cycle deltas (B minus A) for one aligned pair, over the four
/// O3PipeView stage intervals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageDeltas {
    /// fetch→dispatch (front-end + rename backpressure).
    pub fetch_to_dispatch: i64,
    /// dispatch→issue (operand wait; where the taint gate holds
    /// transmitters).
    pub dispatch_to_issue: i64,
    /// issue→complete (execution/memory latency).
    pub issue_to_complete: i64,
    /// complete→retire (ROB wait; where deferred resolutions queue).
    pub complete_to_retire: i64,
}

impl StageDeltas {
    /// Sum over the four intervals — the instruction's total
    /// fetch-to-retire latency change.
    pub fn total(&self) -> i64 {
        self.fetch_to_dispatch
            + self.dispatch_to_issue
            + self.issue_to_complete
            + self.complete_to_retire
    }

    /// The interval that lost the most cycles (for the residual-cause
    /// detail string).
    pub fn dominant(&self) -> &'static str {
        let stages = [
            ("fetch-to-dispatch", self.fetch_to_dispatch),
            ("dispatch-to-issue", self.dispatch_to_issue),
            ("issue-to-complete", self.issue_to_complete),
            ("complete-to-retire", self.complete_to_retire),
        ];
        stages.iter().max_by_key(|(_, v)| *v).map(|(n, _)| *n).unwrap_or("none")
    }
}

/// Stage interval lengths of one retired record. Records missing an
/// issue/complete timestamp (should not happen for retired instructions)
/// contribute zero-length execution intervals rather than poisoning the
/// diff.
fn intervals(r: &OwnedInstRecord) -> [u64; 4] {
    let issue = r.issue_cycle.unwrap_or(r.rename_cycle);
    let complete = r.complete_cycle.unwrap_or(issue);
    let retire = r.retire_cycle.unwrap_or(complete);
    [
        r.rename_cycle.saturating_sub(r.fetch_cycle),
        issue.saturating_sub(r.rename_cycle),
        complete.saturating_sub(issue),
        retire.saturating_sub(complete),
    ]
}

/// One slowed instruction: where the cycles went and why.
#[derive(Clone, Debug)]
pub struct Stall {
    /// Retire rank (position in the aligned retired stream).
    pub rank: u64,
    /// Sequence number in trace A (baseline).
    pub seq_a: u64,
    /// Sequence number in trace B (protected).
    pub seq_b: u64,
    /// Program counter (identical on both sides by construction).
    pub pc: u64,
    /// Disassembly from trace B.
    pub disasm: String,
    /// Total latency delta in cycles (positive = slower under B).
    pub delta: i64,
    /// Stage-interval split of `delta`.
    pub stages: StageDeltas,
    /// Attributed cause.
    pub cause: StallCause,
    /// Human-readable evidence for the attribution.
    pub detail: String,
}

/// The full diff of two traces.
#[derive(Clone, Debug, Default)]
pub struct TraceDiff {
    /// Stream alignment (counts + match rate).
    pub alignment: Alignment,
    /// Last retire cycle of trace A.
    pub cycles_a: u64,
    /// Last retire cycle of trace B.
    pub cycles_b: u64,
    /// Sum of per-instruction latency deltas over all aligned pairs.
    pub total_delta: i64,
    /// Cycles gained by instructions that got *faster* under B (≤ 0;
    /// wrong-path cache pollution can legitimately cause this).
    pub improvement_cycles: i64,
    /// Per-stage totals over all aligned pairs.
    pub stage_totals: StageDeltas,
    /// `(cause, cycles, instruction count)` over slowed instructions, in
    /// [`ALL_CAUSES`] order.
    pub cause_totals: [(StallCause, u64, u64); 4],
    /// Every slowed instruction (delta > 0), sorted by descending delta
    /// then retire rank.
    pub stalls: Vec<Stall>,
}

impl TraceDiff {
    /// Total cycles attributed to `cause`.
    pub fn cause_cycles(&self, cause: StallCause) -> u64 {
        self.cause_totals.iter().find(|(c, ..)| *c == cause).map(|&(_, cy, _)| cy).unwrap_or(0)
    }

    /// Number of slowed instructions attributed to `cause`.
    pub fn cause_count(&self, cause: StallCause) -> u64 {
        self.cause_totals.iter().find(|(c, ..)| *c == cause).map(|&(.., n)| n).unwrap_or(0)
    }
}

/// Event index over the protected trace, keyed the ways classification
/// needs.
struct EventIndex {
    /// seq → cycles it was held as a transmitter.
    xmit_by_seq: HashMap<u64, u64>,
    /// seq → cycles its resolution was deferred.
    defer_by_seq: HashMap<u64, u64>,
    /// All `(cycle, seq)` transmitter-hold events, sorted by cycle.
    xmit_events: Vec<(u64, u64)>,
    /// All `(cycle, seq)` resolve-defer events, sorted by cycle.
    defer_events: Vec<(u64, u64)>,
    /// Cycles on which a shadow-hierarchy untaint broadcast fired.
    shadow_untaint_cycles: HashSet<u64>,
}

impl EventIndex {
    fn build(t: &ParsedTrace) -> EventIndex {
        let mut idx = EventIndex {
            xmit_by_seq: HashMap::new(),
            defer_by_seq: HashMap::new(),
            xmit_events: Vec::new(),
            defer_events: Vec::new(),
            shadow_untaint_cycles: HashSet::new(),
        };
        for e in &t.events {
            match &e.event {
                SptTraceEvent::TransmitterDelayed { seq, .. } => {
                    *idx.xmit_by_seq.entry(*seq).or_insert(0) += 1;
                    idx.xmit_events.push((e.cycle, *seq));
                }
                SptTraceEvent::ResolutionDeferred { seq, .. } => {
                    *idx.defer_by_seq.entry(*seq).or_insert(0) += 1;
                    idx.defer_events.push((e.cycle, *seq));
                }
                SptTraceEvent::Untaint { mechanism, .. } => {
                    if mechanism.starts_with("shadow") {
                        idx.shadow_untaint_cycles.insert(e.cycle);
                    }
                }
                SptTraceEvent::TaintDest { .. } => {}
            }
        }
        idx.xmit_events.sort_unstable();
        idx.defer_events.sort_unstable();
        idx
    }

    /// Smallest event seq older than `seq` within `[lo, hi]` cycles, if
    /// any (used for blocked-behind attribution).
    fn older_in_window(events: &[(u64, u64)], seq: u64, lo: u64, hi: u64) -> Option<u64> {
        let start = events.partition_point(|&(c, _)| c < lo);
        events[start..]
            .iter()
            .take_while(|&&(c, _)| c <= hi)
            .filter(|&&(_, s)| s < seq)
            .map(|&(_, s)| s)
            .min()
    }
}

/// Classifies one slowed pair. `rb` is the record from the protected
/// trace.
fn classify(rb: &OwnedInstRecord, idx: &EventIndex) -> (StallCause, String) {
    if let Some(&held) = idx.xmit_by_seq.get(&rb.seq) {
        // The gate releases a transmitter the same cycle the untaint
        // broadcast lands (untaint_step runs before issue in the machine's
        // cycle order), so a shadow-mechanism broadcast on the issue cycle
        // identifies a shadow-structure wait.
        let shadow =
            rb.issue_cycle.map(|c| idx.shadow_untaint_cycles.contains(&c)).unwrap_or(false);
        let cause = if shadow { StallCause::ShadowL1Wait } else { StallCause::TransmitterDelay };
        let via = if shadow { " (released by shadow untaint)" } else { "" };
        return (cause, format!("held {held} cycle(s) by the transmitter taint gate{via}"));
    }
    if let Some(&held) = idx.defer_by_seq.get(&rb.seq) {
        return (
            StallCause::ResolutionDeferral,
            format!("own resolution deferred {held} cycle(s) while tainted"),
        );
    }
    let (lo, hi) =
        (rb.complete_cycle.unwrap_or(rb.rename_cycle), rb.retire_cycle.unwrap_or(u64::MAX));
    if let Some(older) = EventIndex::older_in_window(&idx.defer_events, rb.seq, lo, hi) {
        return (
            StallCause::ResolutionDeferral,
            format!("retire blocked behind deferred branch seq {older}"),
        );
    }
    if let Some(older) = EventIndex::older_in_window(&idx.xmit_events, rb.seq, lo, hi) {
        return (
            StallCause::TransmitterDelay,
            format!("retire blocked behind held transmitter seq {older}"),
        );
    }
    (StallCause::Backpressure, String::new())
}

/// Diffs two parsed traces of the same workload: `a` is the baseline,
/// `b` the configuration under study. Every aligned pair contributes its
/// stage deltas; every slowed pair (positive total delta) becomes a
/// [`Stall`] with a named cause.
///
/// A self-diff (`a == b`) yields zero deltas and no stalls.
pub fn diff_traces(a: &ParsedTrace, b: &ParsedTrace) -> TraceDiff {
    let alignment = align_retired(a, b);
    let idx = EventIndex::build(b);
    let mut out = TraceDiff {
        cycles_a: a.last_retire_cycle(),
        cycles_b: b.last_retire_cycle(),
        cause_totals: [
            (StallCause::TransmitterDelay, 0, 0),
            (StallCause::ShadowL1Wait, 0, 0),
            (StallCause::ResolutionDeferral, 0, 0),
            (StallCause::Backpressure, 0, 0),
        ],
        ..TraceDiff::default()
    };
    for (rank, &(ia, ib)) in alignment.pairs.iter().enumerate() {
        let (ra, rb) = (&a.records[ia], &b.records[ib]);
        let (sa, sb) = (intervals(ra), intervals(rb));
        let stages = StageDeltas {
            fetch_to_dispatch: sb[0] as i64 - sa[0] as i64,
            dispatch_to_issue: sb[1] as i64 - sa[1] as i64,
            issue_to_complete: sb[2] as i64 - sa[2] as i64,
            complete_to_retire: sb[3] as i64 - sa[3] as i64,
        };
        let delta = stages.total();
        out.total_delta += delta;
        out.stage_totals.fetch_to_dispatch += stages.fetch_to_dispatch;
        out.stage_totals.dispatch_to_issue += stages.dispatch_to_issue;
        out.stage_totals.issue_to_complete += stages.issue_to_complete;
        out.stage_totals.complete_to_retire += stages.complete_to_retire;
        if delta < 0 {
            out.improvement_cycles += delta;
            continue;
        }
        if delta == 0 {
            continue;
        }
        let (cause, mut detail) = classify(rb, &idx);
        if detail.is_empty() {
            detail = format!("no SPT event in range; dominant interval {}", stages.dominant());
        }
        let slot = out.cause_totals.iter_mut().find(|(c, ..)| *c == cause).expect("cause slot");
        slot.1 += delta as u64;
        slot.2 += 1;
        out.stalls.push(Stall {
            rank: rank as u64,
            seq_a: ra.seq,
            seq_b: rb.seq,
            pc: rb.pc,
            disasm: rb.disasm.clone(),
            delta,
            stages,
            cause,
            detail,
        });
    }
    out.stalls.sort_by(|x, y| y.delta.cmp(&x.delta).then(x.rank.cmp(&y.rank)));
    out.alignment = alignment;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_util::trace::{OwnedInstRecord, ParsedEvent};

    fn rec(
        seq: u64,
        pc: u64,
        fetch: u64,
        issue: u64,
        complete: u64,
        retire: u64,
    ) -> OwnedInstRecord {
        OwnedInstRecord {
            seq,
            pc,
            disasm: format!("inst@{pc:x}"),
            fetch_cycle: fetch,
            rename_cycle: fetch + 1,
            issue_cycle: Some(issue),
            complete_cycle: Some(complete),
            retire_cycle: Some(retire),
        }
    }

    fn ev(cycle: u64, event: SptTraceEvent) -> ParsedEvent {
        ParsedEvent { cycle, after_block: 0, event }
    }

    #[test]
    fn self_diff_is_all_zero() {
        let t = ParsedTrace {
            records: vec![rec(1, 0x40, 0, 3, 5, 8), rec(2, 0x44, 1, 4, 6, 9)],
            events: vec![ev(3, SptTraceEvent::TransmitterDelayed { seq: 1, pc: 0x40 })],
        };
        let d = diff_traces(&t, &t);
        assert_eq!(d.total_delta, 0);
        assert!(d.stalls.is_empty());
        assert_eq!(d.stage_totals, StageDeltas::default());
        assert!((d.alignment.rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn held_transmitter_is_attributed_to_the_gate() {
        let a = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 4, 6)], events: vec![] };
        // Same instruction issues 5 cycles later under protection, with
        // xmit-delay events naming it.
        let b = ParsedTrace {
            records: vec![rec(9, 0x40, 0, 7, 9, 11)],
            events: (2..7)
                .map(|c| ev(c, SptTraceEvent::TransmitterDelayed { seq: 9, pc: 0x40 }))
                .collect(),
        };
        let d = diff_traces(&a, &b);
        assert_eq!(d.total_delta, 5);
        assert_eq!(d.stalls.len(), 1);
        let s = &d.stalls[0];
        assert_eq!(s.cause, StallCause::TransmitterDelay);
        assert_eq!(s.stages.dispatch_to_issue, 5);
        assert_eq!((s.seq_a, s.seq_b), (1, 9));
        assert!(s.detail.contains("held 5 cycle(s)"));
        assert_eq!(d.cause_cycles(StallCause::TransmitterDelay), 5);
        assert_eq!(d.cause_count(StallCause::TransmitterDelay), 1);
    }

    #[test]
    fn shadow_release_subclassifies() {
        let a = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 4, 6)], events: vec![] };
        let b = ParsedTrace {
            records: vec![rec(1, 0x40, 0, 7, 9, 11)],
            events: vec![
                ev(6, SptTraceEvent::TransmitterDelayed { seq: 1, pc: 0x40 }),
                ev(7, SptTraceEvent::Untaint { phys: 3, mechanism: "shadow-l1".into(), seq: 1 }),
            ],
        };
        let d = diff_traces(&a, &b);
        assert_eq!(d.stalls[0].cause, StallCause::ShadowL1Wait);
        assert_eq!(d.cause_cycles(StallCause::ShadowL1Wait), 5);
    }

    #[test]
    fn blocked_behind_deferred_branch() {
        let a = ParsedTrace { records: vec![rec(2, 0x44, 0, 2, 4, 6)], events: vec![] };
        // Completes on time but retires late, with an older branch's
        // resolve-defer events inside the complete→retire window.
        let b = ParsedTrace {
            records: vec![rec(8, 0x44, 0, 2, 4, 12)],
            events: vec![
                ev(5, SptTraceEvent::ResolutionDeferred { seq: 3, pc: 0x30 }),
                ev(6, SptTraceEvent::ResolutionDeferred { seq: 3, pc: 0x30 }),
            ],
        };
        let d = diff_traces(&a, &b);
        assert_eq!(d.stalls[0].cause, StallCause::ResolutionDeferral);
        assert!(d.stalls[0].detail.contains("seq 3"));
        assert_eq!(d.stalls[0].stages.complete_to_retire, 6);
    }

    #[test]
    fn residual_is_named_backpressure() {
        let a = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 4, 6)], events: vec![] };
        let b = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 8, 10)], events: vec![] };
        let d = diff_traces(&a, &b);
        assert_eq!(d.stalls[0].cause, StallCause::Backpressure);
        assert!(d.stalls[0].detail.contains("issue-to-complete"));
    }

    #[test]
    fn improvements_are_tracked_not_stalled() {
        let a = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 10, 12)], events: vec![] };
        let b = ParsedTrace { records: vec![rec(1, 0x40, 0, 2, 4, 6)], events: vec![] };
        let d = diff_traces(&a, &b);
        assert!(d.stalls.is_empty());
        assert_eq!(d.total_delta, -6);
        assert_eq!(d.improvement_cycles, -6);
    }
}
