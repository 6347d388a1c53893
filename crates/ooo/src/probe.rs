//! The machine's one observer path: an opt-in `Probe` carrying the
//! pipeline trace sink, the run [`Telemetry`] histograms, and the
//! per-physical-register taint-episode table both of them read.
//!
//! The machine carries an `Option<Box<Probe>>`: an unobserved run pays one
//! null test per report site and nothing else. The probe only *reads*
//! simulator state (departing ROB entries, occupancy counts, broadcast
//! events) and never feeds back, so attaching a sink or enabling telemetry
//! cannot change cycle counts or attacker-observation digests.

use crate::machine::DelayNote;
use crate::rob::RobEntry;
use spt_core::{PhysReg, UntaintKind};
use spt_util::{Histogram, InstRecord, Json, SptTraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Histograms accumulated over a run when telemetry is enabled.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// ROB entries in flight, sampled once per cycle.
    pub rob_occupancy: Histogram,
    /// Reservation-station slots in use, sampled once per cycle.
    pub rs_occupancy: Histogram,
    /// Load-queue slots in use, sampled once per cycle.
    pub lq_occupancy: Histogram,
    /// Store-queue slots in use, sampled once per cycle.
    pub sq_occupancy: Histogram,
    /// L1D misses outstanding (MSHR utilization), sampled once per cycle.
    pub mshr_inflight: Histogram,
    /// Cycles from a register being born tainted at rename to its untaint
    /// broadcast (registers that die tainted are not counted).
    pub taint_latency: Histogram,
    /// Per-transmitter total cycles blocked by the protection gate
    /// (recorded at retire; zero-delay transmitters are included so the
    /// distribution has a baseline).
    pub xmit_delay: Histogram,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            rob_occupancy: Histogram::linear(8),
            rs_occupancy: Histogram::linear(4),
            lq_occupancy: Histogram::linear(2),
            sq_occupancy: Histogram::linear(2),
            mshr_inflight: Histogram::linear(1),
            taint_latency: Histogram::log2(),
            xmit_delay: Histogram::log2(),
        }
    }
}

impl Telemetry {
    /// Renders every histogram as one JSON object (the `telemetry` section
    /// of the stats document).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rob_occupancy", self.rob_occupancy.to_json()),
            ("rs_occupancy", self.rs_occupancy.to_json()),
            ("lq_occupancy", self.lq_occupancy.to_json()),
            ("sq_occupancy", self.sq_occupancy.to_json()),
            ("mshr_inflight", self.mshr_inflight.to_json()),
            ("taint_to_untaint_cycles", self.taint_latency.to_json()),
            ("transmitter_delay_cycles", self.xmit_delay.to_json()),
        ])
    }
}

/// One physical register's latest taint episode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Episode {
    /// Sequence number of the instruction whose rename last tainted the
    /// register (0 = never seen). Kept after the episode ends, so every
    /// later `Untaint` event still names it.
    producer: u64,
    /// Birth cycle + 1 while the episode is live (0 = none), feeding
    /// [`Telemetry::taint_latency`].
    born: u64,
}

/// The optional observers of one machine and the bookkeeping they share.
pub(crate) struct Probe {
    /// Pipeline trace sink, if attached.
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    /// Occupancy/latency histograms, if enabled.
    pub(crate) telemetry: Option<Telemetry>,
    /// Taint episodes by physical register.
    episodes: Vec<Episode>,
}

impl Probe {
    /// A probe with neither observer, for `num_phys` physical registers.
    pub(crate) fn new(num_phys: usize) -> Probe {
        Probe { sink: None, telemetry: None, episodes: vec![Episode::default(); num_phys] }
    }

    /// Enables telemetry. Its latencies count only episodes born from here
    /// on.
    pub(crate) fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.episodes.iter_mut().for_each(|ep| ep.born = 0);
            self.telemetry = Some(Telemetry::default());
        }
    }

    /// Register `phys` was born tainted at `cycle`, renamed by `seq`.
    pub(crate) fn taint(&mut self, cycle: u64, seq: u64, phys: PhysReg) {
        if let Some(ep) = self.episodes.get_mut(phys as usize) {
            *ep = Episode { producer: seq, born: cycle + 1 };
        }
        if let Some(sink) = &mut self.sink {
            sink.event(cycle, &SptTraceEvent::TaintDest { seq, phys });
        }
    }

    /// This cycle's untaint broadcasts, in bus order.
    pub(crate) fn untaint(&mut self, cycle: u64, broadcasts: &[(PhysReg, UntaintKind)]) {
        for &(phys, kind) in broadcasts {
            let mut producer = 0;
            if let Some(ep) = self.episodes.get_mut(phys as usize) {
                producer = ep.producer;
                if let Some(t) = self.telemetry.as_mut().filter(|_| ep.born > 0) {
                    t.taint_latency.record(cycle.saturating_sub(ep.born - 1));
                }
                ep.born = 0;
            }
            if let Some(sink) = &mut self.sink {
                let mechanism = kind.label().into();
                sink.event(cycle, &SptTraceEvent::Untaint { phys, mechanism, seq: producer });
            }
        }
    }

    /// `e` retired at `cycle`.
    pub(crate) fn retire(&mut self, e: &RobEntry, cycle: u64) {
        self.emit(e, Some(cycle));
        if let Some(t) = &mut self.telemetry {
            if e.inst.is_transmitter() {
                t.xmit_delay.record(e.timing.xmit_delay_cycles);
            }
        }
    }

    /// `e` was squashed; a tainted destination dies without an untaint.
    pub(crate) fn squash(&mut self, e: &RobEntry) {
        self.emit(e, None);
        if let Some(ep) = e.dest.and_then(|(_, new, _)| self.episodes.get_mut(new as usize)) {
            ep.born = 0;
        }
    }

    /// Reports a departing instruction to the sink. The disassembly is
    /// only formatted when a sink is attached.
    fn emit(&mut self, e: &RobEntry, retire_cycle: Option<u64>) {
        let Some(sink) = &mut self.sink else { return };
        let disasm = e.inst.to_string();
        sink.inst(&InstRecord {
            seq: e.seq,
            pc: e.pc,
            disasm: &disasm,
            fetch_cycle: e.timing.fetch_cycle,
            rename_cycle: e.timing.rename_cycle,
            issue_cycle: e.timing.issue_cycle,
            complete_cycle: e.timing.complete_cycle,
            retire_cycle,
        });
    }

    /// Reports the delay `notes` (ROB indices into `rob`) once for every
    /// cycle in `cycles`, cycle by cycle.
    pub(crate) fn delays(
        &mut self,
        cycles: Range<u64>,
        notes: &[DelayNote],
        rob: &VecDeque<RobEntry>,
    ) {
        let Some(sink) = &mut self.sink else { return };
        for cycle in cycles {
            for &note in notes {
                let event = match note {
                    DelayNote::Transmitter(i) => {
                        SptTraceEvent::TransmitterDelayed { seq: rob[i].seq, pc: rob[i].pc }
                    }
                    DelayNote::Resolution(i) => {
                        SptTraceEvent::ResolutionDeferred { seq: rob[i].seq, pc: rob[i].pc }
                    }
                };
                sink.event(cycle, &event);
            }
        }
    }

    /// Records the occupancy samples `[rob, rs, lq, sq, mshr]` for `n`
    /// cycles that all share them. `occupancy` runs only with telemetry
    /// enabled.
    pub(crate) fn sample(&mut self, n: u64, occupancy: impl FnOnce() -> [u64; 5]) {
        if let Some(t) = &mut self.telemetry {
            let [rob, rs, lq, sq, mshr] = occupancy();
            t.rob_occupancy.record_n(rob, n);
            t.rs_occupancy.record_n(rs, n);
            t.lq_occupancy.record_n(lq, n);
            t.sq_occupancy.record_n(sq, n);
            t.mshr_inflight.record_n(mshr, n);
        }
    }
}

impl Clone for Probe {
    /// A cloned machine keeps its telemetry but not the sink: sinks own
    /// writers and are not duplicable.
    fn clone(&self) -> Probe {
        Probe { sink: None, telemetry: self.telemetry.clone(), episodes: self.episodes.clone() }
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Probe")
            .field("sink", &self.sink.is_some())
            .field("telemetry", &self.telemetry)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_isa::{Inst, Reg};
    use spt_util::ParsedTrace;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn telemetry_probe() -> Probe {
        let mut p = Probe::new(8);
        p.enable_telemetry();
        p
    }

    fn latency(p: &Probe) -> &Histogram {
        &p.telemetry.as_ref().expect("enabled").taint_latency
    }

    /// A squashable entry whose destination is physical register `phys`.
    fn entry(seq: u64, phys: PhysReg) -> RobEntry {
        let inst = Inst::MovImm { rd: Reg::R1, imm: 0 };
        RobEntry::new(seq, 0x40, inst, [None; 3], Some((Reg::R1, phys, 0)), 0, 0x48, false)
    }

    #[test]
    fn taint_latency_measures_birth_to_broadcast() {
        let mut p = telemetry_probe();
        p.taint(10, 1, 3);
        p.untaint(25, &[(3, UntaintKind::Forward)]);
        assert_eq!(latency(&p).samples(), 1);
        assert_eq!(latency(&p).max(), 15);
        // A second untaint of the same register without a rebirth is a
        // no-op.
        p.untaint(30, &[(3, UntaintKind::Forward)]);
        assert_eq!(latency(&p).samples(), 1);
    }

    #[test]
    fn squashed_registers_do_not_pollute_latency() {
        let mut p = telemetry_probe();
        p.taint(5, 1, 2);
        p.squash(&entry(1, 2));
        p.untaint(1000, &[(2, UntaintKind::Forward)]);
        assert_eq!(latency(&p).samples(), 0);
    }

    #[test]
    fn out_of_range_phys_ignored() {
        let mut p = telemetry_probe();
        p.taint(1, 1, 100);
        p.untaint(2, &[(100, UntaintKind::Forward)]);
        assert_eq!(latency(&p).samples(), 0);
    }

    #[test]
    fn births_before_telemetry_are_not_measured() {
        let mut p = Probe::new(8);
        p.taint(1, 1, 3);
        p.enable_telemetry();
        p.untaint(9, &[(3, UntaintKind::Forward)]);
        assert_eq!(latency(&p).samples(), 0);
    }

    #[test]
    fn producer_survives_untaint_and_squash_and_only_the_birth_clears() {
        let trace = Rc::new(RefCell::new(ParsedTrace::default()));
        let mut p = telemetry_probe();
        p.sink = Some(Box::new(Rc::clone(&trace)));
        p.taint(10, 42, 3);
        p.untaint(20, &[(3, UntaintKind::Forward)]);
        assert_eq!(p.episodes[3], Episode { producer: 42, born: 0 });
        p.taint(30, 43, 3);
        p.squash(&entry(43, 3));
        assert_eq!(p.episodes[3], Episode { producer: 43, born: 0 });
        // A later broadcast still names the last producer, and measures
        // no latency for the squashed episode.
        p.untaint(40, &[(3, UntaintKind::ShadowL1)]);
        assert_eq!(latency(&p).samples(), 1);
        let t = trace.borrow();
        let untaint = |seq, mechanism: &'static str| SptTraceEvent::Untaint {
            phys: 3,
            mechanism: mechanism.into(),
            seq,
        };
        assert_eq!((t.events[1].cycle, &t.events[1].event), (20, &untaint(42, "forward")));
        assert_eq!((t.events[3].cycle, &t.events[3].event), (40, &untaint(43, "shadow-l1")));
        assert_eq!(t.records.len(), 1, "the squash is traced");
    }

    #[test]
    fn json_has_all_sections() {
        let j = Telemetry::default().to_json();
        for key in [
            "rob_occupancy",
            "rs_occupancy",
            "lq_occupancy",
            "sq_occupancy",
            "mshr_inflight",
            "taint_to_untaint_cycles",
            "transmitter_delay_cycles",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }
}
