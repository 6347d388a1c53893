//! The out-of-order machine: fetch → rename → issue → execute → resolve →
//! retire, with SPT / STT / baseline protection hooks.
//!
//! # Stage ordering
//!
//! Each [`Machine::step_cycle`] processes stages in reverse pipeline order
//! so that information never flows through more than one stage per cycle:
//! visibility-point update, retire, untaint propagation, writeback,
//! resolution, issue/execute, rename/dispatch, fetch.
//!
//! # Protection semantics (paper §6)
//!
//! * **Transmitters** (loads and stores, §9.1) may only issue when the
//!   protection policy allows: always (Unsafe), at the VP (SecureBaseline),
//!   when their leaking operands are untainted or at the VP (SPT), or when
//!   their operands are not s-tainted (STT).
//! * **Branch-resolution effects** (redirect/squash, and the confirmation
//!   that unblocks the VP of younger instructions) are deferred until the
//!   predicate/target is untainted or the branch reaches the VP — STT's
//!   implicit-channel rule, inherited by SPT (§6.4). Wrong-path
//!   instructions keep fetching and executing (under protection) in the
//!   meantime.
//! * **Predictor state** is only ever trained at retire, with resolved
//!   (hence declassified) outcomes, so tainted data never reaches it.
//! * **Store-to-load forwarding** always performs the cache access under
//!   protection, and untaint propagates across a forwarding pair only once
//!   `STLPublic` holds (§6.7). Memory-dependence-violation squashes are
//!   likewise deferred until the implicit branch is public.
//!
//! Transmitter issue, branch resolution and violation squashes all ask the
//! same gate, `Protection::leak_allowed` in the crate-private `protection`
//! module: leak operands untainted, or the entry at the VP.

use crate::config::CoreConfig;
use crate::protection::Protection;
use crate::rename::RegisterFile;
use crate::rob::{ExecState, RobEntry};
use crate::sched::{RetiredLoadTable, Scheduler};
use crate::stats::{MachineStats, RunOutcome, SimError, StopReason};
use crate::telemetry::Telemetry;
use crate::validate::SecurityValidator;
use spt_core::{Config, Seq, ShadowTaint, StlCondition, TaintMask, UntaintKind};
use spt_frontend::{Checkpoint, FetchPrediction, Frontend, PredictInfo};
use spt_isa::{Inst, Program, Reg};
use spt_mem::{Cache, HierarchyConfig, Level, MemSystem, Tlb};
use spt_util::{InstRecord, SptTraceEvent, TraceHandle, TraceSink};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// O(1) seq → ROB index. The ROB is sorted by seq but squashes leave gaps,
/// so index arithmetic alone is not enough; this keeps a sequence-keyed
/// window over the in-flight range mapping each seq to its *absolute*
/// dispatch position (stable under `pop_front`), from which the current
/// physical index is `abs - popped`. The window only ever grows at the back
/// (dispatch), shrinks at the front (retire), and truncates (squash) —
/// mirroring the only three ways the ROB itself mutates.
#[derive(Clone, Debug, Default)]
struct RobIndex {
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

    fn get(&self, seq: Seq) -> Option<usize> {
        let off = seq.checked_sub(self.base)?;
        match self.win.get(off as usize) {
            Some(&abs) if abs != Self::GAP => Some((abs - self.popped) as usize),
            _ => None,
        }
    }

    /// Records a dispatch; seqs are strictly increasing, so any skipped
    /// range (a squashed suffix refetched under fresh seqs) becomes gaps.
    fn push(&mut self, seq: Seq) {
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
    fn pop_front(&mut self) {
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
    fn squash_after(&mut self, seq: Seq) {
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

/// Limits for [`Machine::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Stop after this many cycles.
    pub max_cycles: u64,
    /// Stop once this many instructions have retired.
    pub max_retired: u64,
}

impl Default for RunLimits {
    fn default() -> RunLimits {
        RunLimits { max_cycles: u64::MAX, max_retired: u64::MAX }
    }
}

impl RunLimits {
    /// Limit by retired instructions only.
    pub fn retired(n: u64) -> RunLimits {
        RunLimits { max_retired: n, ..RunLimits::default() }
    }

    /// Limit by cycles only.
    pub fn cycles(n: u64) -> RunLimits {
        RunLimits { max_cycles: n, ..RunLimits::default() }
    }
}

/// One delay counted in the current cycle, by ROB index: the record
/// [`Machine::run`] replays for every cycle it fast-forwards over.
#[derive(Clone, Copy, Debug)]
enum DelayNote {
    /// A transmitter held back by the protection gate.
    Transmitter(usize),
    /// A branch resolution or violation squash deferred.
    Resolution(usize),
}

#[derive(Clone, Debug)]
struct Fetched {
    pc: u64,
    inst: Inst,
    checkpoint: Checkpoint,
    pred_next: u64,
    pred_taken: bool,
    pred_info: Option<PredictInfo>,
    fetch_cycle: u64,
}

/// The simulated machine.
///
/// # Example
///
/// ```
/// use spt_ooo::{CoreConfig, Machine, RunLimits};
/// use spt_core::{Config, ThreatModel};
/// use spt_isa::asm::Assembler;
/// use spt_isa::Reg;
///
/// let mut a = Assembler::new();
/// a.mov_imm(Reg::R1, 2);
/// a.mov_imm(Reg::R2, 40);
/// a.add(Reg::R3, Reg::R1, Reg::R2);
/// a.halt();
/// let p = a.assemble()?;
///
/// let mut m = Machine::new(p, CoreConfig::default(),
///                          Config::spt_full(ThreatModel::Futuristic));
/// let out = m.run(RunLimits::default())?;
/// assert_eq!(m.reg(Reg::R3), 42);
/// assert_eq!(out.retired, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    core: CoreConfig,
    prot: Config,
    program: Program,
    mem: MemSystem,
    fe: Frontend,
    rf: RegisterFile,
    rob: VecDeque<RobEntry>,
    rob_pos: RobIndex,
    fetch_q: VecDeque<Fetched>,
    /// The protection scheme: the leak gate and its taint state.
    protection: Protection,
    shadow: ShadowTaint,
    fetch_pc: u64,
    fetch_stalled: bool,
    next_seq: Seq,
    cycle: u64,
    halted: bool,
    rs_used: usize,
    lq_used: usize,
    sq_used: usize,
    stats: MachineStats,
    last_retire_cycle: u64,
    /// Recently retired, non-forwarded loads whose output register may
    /// still be declassified by an in-flight consumer's visibility point.
    /// When a broadcast untaints such an output, the §6.8 load rule ②
    /// applies (paper §8, proof case 3): the load is non-speculative, its
    /// address is public, so the read bytes become inferable.
    retired_loads: RetiredLoadTable,
    /// Event-driven scheduler bookkeeping: wakeup lists, ready queue,
    /// completion heap, candidate index sets and the VP cursor (see
    /// `sched` module docs). Pure acceleration structures over the ROB.
    sched: Scheduler,
    /// Optional §8 model attacker cross-checking every untaint decision.
    validator: Option<SecurityValidator>,
    /// L1 instruction cache (Table 1: 32 KiB, 4-way, 2-cycle). Instructions
    /// are 8 bytes, so a 64-byte line holds 8 of them. Misses stall fetch
    /// for an L2-hit latency (code is assumed L2-resident).
    icache: Cache,
    ifetch_stall_until: u64,
    last_fetch_line: u64,
    /// Data TLB: 64 entries, 4-way, 30-cycle page walk. Translation happens
    /// at issue time, so the §7.4 rule "delaying execution (including TLB
    /// accesses, etc.)" is covered by the transmitter gate.
    dtlb: Tlb,
    /// Worst-case memory latency, used by the SDO oblivious policy.
    worst_mem_latency: u64,
    /// Rolling digest of `(pc, cycle)` for every retired transmitter — the
    /// retire-timing side of the attacker observation (a transmitter's
    /// completion time is exactly what a contention/timing attacker
    /// measures). Folded into [`Machine::observation_digest`].
    transmit_obs: spt_util::Fnv64,
    /// Pipeline trace probe: a null test when disabled, an O3PipeView (or
    /// test) sink when attached. Never read by any stage, so it cannot
    /// affect timing. Cloning the machine yields a disabled handle.
    trace: TraceHandle,
    /// Per-physical-register producer seq of the live taint episode, so
    /// `Untaint` trace events can name the instruction whose output they
    /// declassify. Written only when a trace sink is attached (grown
    /// lazily from empty) and never read by any stage, so it cannot
    /// affect timing.
    taint_src: Vec<u64>,
    /// Opt-in occupancy/latency histograms; one null test per cycle when
    /// disabled.
    telemetry: Option<Box<Telemetry>>,
    /// Set by every stage that changes machine state other than the delay
    /// counters; cleared at the start of each cycle. A cycle that ends
    /// with it clear is a fixed point (see [`Machine::fast_forward`]).
    progress: bool,
    /// This cycle's delay notes, in emission order.
    delay_notes: Vec<DelayNote>,
    /// Cycles [`Machine::run`] skipped as repeats of a quiet cycle.
    fast_forwarded: u64,
}

impl Machine {
    /// Creates a machine with the default (paper Table 1) memory hierarchy.
    pub fn new(program: Program, core: CoreConfig, prot: Config) -> Machine {
        Machine::with_memory(program, core, prot, MemSystem::new(HierarchyConfig::default()))
    }

    /// Creates a machine over a pre-built (possibly pre-initialized) memory
    /// system.
    pub fn with_memory(
        program: Program,
        core: CoreConfig,
        prot: Config,
        mem: MemSystem,
    ) -> Machine {
        let protection = Protection::new(prot, core.num_phys);
        // Memory taint is tracked only alongside SPT's register taint.
        let shadow = ShadowTaint::new(if protection.engine().is_some() {
            prot.shadow
        } else {
            spt_core::ShadowMode::None
        });
        let mut m = Machine {
            core,
            prot,
            program,
            mem,
            fe: Frontend::new(),
            rf: RegisterFile::new(core.num_phys),
            rob: VecDeque::with_capacity(core.rob_size),
            rob_pos: RobIndex::default(),
            fetch_q: VecDeque::with_capacity(core.fetch_queue),
            protection,
            shadow,
            fetch_pc: 0,
            fetch_stalled: false,
            next_seq: 1,
            cycle: 0,
            halted: false,
            rs_used: 0,
            lq_used: 0,
            sq_used: 0,
            stats: MachineStats::default(),
            last_retire_cycle: 0,
            retired_loads: RetiredLoadTable::new(core.num_phys, 128),
            sched: Scheduler::new(core.num_phys),
            validator: None,
            icache: Cache::new(spt_mem::CacheConfig {
                geometry: spt_mem::CacheGeometry {
                    size_bytes: 32 * 1024,
                    assoc: 4,
                    line_bytes: 64,
                },
                hit_latency: 2,
                mshrs: 16,
            }),
            ifetch_stall_until: 0,
            last_fetch_line: u64::MAX,
            dtlb: Tlb::new(64, 4, 30),
            worst_mem_latency: 0,
            transmit_obs: spt_util::Fnv64::new(),
            trace: TraceHandle::disabled(),
            taint_src: Vec::new(),
            telemetry: None,
            progress: false,
            delay_notes: Vec::new(),
            fast_forwarded: 0,
        };
        {
            let h = m.mem.config();
            m.worst_mem_latency =
                h.l1.hit_latency + h.l2.hit_latency + h.l3.hit_latency + h.dram_latency;
        }
        m
    }

    /// The protection configuration.
    pub fn protection(&self) -> &Config {
        &self.prot
    }

    /// Enables the §8 security validator: every subsequent untaint decision
    /// must be independently derivable by the model attacker. Only
    /// meaningful for SPT configurations (the validator models SPT's
    /// semantics).
    pub fn enable_validation(&mut self) {
        if self.protection.engine().is_some() {
            self.validator = Some(SecurityValidator::new());
        }
    }

    /// Attaches a pipeline trace sink. Every subsequently retired or
    /// squashed instruction is reported to it, along with SPT taint/untaint
    /// and delay events. Replaces any previous sink.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = TraceHandle::new(sink);
    }

    /// Detaches and returns the trace sink, if one was attached. Callers
    /// should [`TraceSink::flush`] it to surface buffered I/O errors.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.take()
    }

    /// Enables occupancy/latency telemetry from this point on.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(Telemetry::new(self.core.num_phys)));
        }
    }

    /// The telemetry histograms, if [`Machine::enable_telemetry`] was
    /// called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// L1 instruction-cache statistics.
    pub fn icache_stats(&self) -> &spt_mem::CacheStats {
        self.icache.stats()
    }

    /// Data-TLB hit/miss counters.
    pub fn dtlb_stats(&self) -> (u64, u64) {
        (self.dtlb.hits(), self.dtlb.misses())
    }

    /// Frontend prediction-volume counters.
    pub fn frontend_stats(&self) -> &spt_frontend::FrontendStats {
        self.fe.stats()
    }

    /// Whether the data TLB currently caches `addr`'s page (the TLB-side
    /// attacker observation, paper §2.1).
    pub fn probe_tlb(&self, addr: u64) -> bool {
        self.dtlb.probe(addr)
    }

    /// Whether the shadow taint for the byte at `addr` is (still) tainted —
    /// the persistence check for declared secrets. Always true when no
    /// memory taint is tracked.
    pub fn shadow_byte_tainted(&self, addr: u64) -> bool {
        self.shadow.probe_byte(addr)
    }

    /// Number of tracked recently retired loads (diagnostics; bounded by
    /// the table capacity of 128).
    pub fn retired_loads_live(&self) -> usize {
        self.retired_loads.live()
    }

    /// O(1) seq → current ROB index via the side window; `None` means the
    /// instruction was squashed or retired.
    fn rob_index(&self, seq: Seq) -> Option<usize> {
        let idx = self.rob_pos.get(seq);
        debug_assert_eq!(
            idx,
            self.rob.binary_search_by_key(&seq, |e| e.seq).ok(),
            "side index out of sync for seq {seq}"
        );
        idx
    }

    /// Finalizes and returns the validator's findings: the number of
    /// justified untaint decisions and any Theorem-1 violations.
    pub fn validation_report(&mut self) -> Option<(u64, Vec<String>)> {
        let mut v = self.validator.take()?;
        let rf = &self.rf;
        v.finish(|p| if rf.is_ready(p) { Some(rf.read(p)) } else { None });
        let report = (v.checks_passed(), v.violations().to_vec());
        self.validator = Some(v);
        Some(report)
    }

    /// The memory system (for initialization and attack-receiver probing).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Read-only memory system access.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Innermost cache level holding `addr` — the covert-channel receiver.
    pub fn probe(&self, addr: u64) -> Level {
        self.mem.probe(addr)
    }

    /// Architectural register value (meaningful when the pipeline is
    /// drained, i.e. after `run` returns or before it starts).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.rf.arch_read(reg)
    }

    /// Sets an architectural register before the run starts. The value is
    /// treated as tainted program data (paper §6.3: all data starts
    /// tainted).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.rf.arch_write(reg, value);
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles [`Machine::run`] skipped as exact repeats of a quiet cycle.
    /// They still count as simulated cycles; this is a diagnostic and not
    /// part of [`MachineStats`].
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// Whether `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Snapshot of every architectural register, indexed by register
    /// number. Meaningful when the pipeline is drained (after `run` returns
    /// or before it starts) — the differential harness compares this
    /// against the reference interpreter.
    pub fn arch_regs(&self) -> Vec<u64> {
        Reg::all().map(|r| self.rf.arch_read(r)).collect()
    }

    /// Digest of everything a microarchitectural attacker can observe
    /// about this run: the tag state of the data-side cache hierarchy and
    /// the L1I, the data-TLB reach, the retire timing of every transmitter,
    /// total cycles and retired count, and (under SPT) every untaint
    /// decision the taint engine took.
    ///
    /// The relational fuzzing harness runs a program twice with only the
    /// secret bytes varied: under a sound protection this digest must be
    /// identical (the paper's Theorem-1 non-interference claim), while
    /// under UnsafeBaseline a transient secret-indexed access makes it
    /// diverge.
    pub fn observation_digest(&self) -> u64 {
        let mut h = spt_util::Fnv64::new();
        h.write_u64(self.transmit_obs.finish());
        h.write_u64(self.mem.cache_digest());
        h.write_u64(self.icache.state_digest());
        h.write_u64(self.dtlb.state_digest());
        h.write_u64(self.cycle);
        h.write_u64(self.stats.retired);
        h.write_u64(self.stats.squashes);
        if let Some(e) = self.protection.engine() {
            h.write_u64(e.stats().decision_digest());
        }
        h.finish()
    }

    /// Statistics snapshot (includes taint-engine statistics).
    pub fn stats(&self) -> MachineStats {
        let mut s = self.stats.clone();
        s.cycles = self.cycle;
        if let Some(e) = self.protection.engine() {
            s.spt = e.stats().clone();
        }
        s
    }

    /// Runs until `Halt` retires or a limit is hit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if no instruction retires for an
    /// implausibly long stretch (a simulator bug, not a program outcome).
    pub fn run(&mut self, limits: RunLimits) -> Result<RunOutcome, SimError> {
        const WATCHDOG: u64 = 100_000;
        while !self.halted {
            if self.cycle >= limits.max_cycles {
                return Ok(self.outcome(StopReason::CycleBudget));
            }
            if self.stats.retired >= limits.max_retired {
                return Ok(self.outcome(StopReason::RetireBudget));
            }
            self.step_cycle();
            if !self.progress {
                // Never skip past the cycle budget or the watchdog cycle,
                // so both stop exactly where stepping would.
                let limit = limits.max_cycles.min(self.last_retire_cycle + WATCHDOG + 1);
                self.fast_forward(limit);
            }
            if self.cycle - self.last_retire_cycle > WATCHDOG {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    retired: self.stats.retired,
                    head_pc: self.rob.front().map(|e| e.pc),
                });
            }
        }
        Ok(self.outcome(StopReason::Halted))
    }

    fn outcome(&self, reason: StopReason) -> RunOutcome {
        RunOutcome { cycles: self.cycle, retired: self.stats.retired, reason }
    }

    /// Advances the machine by exactly one cycle. [`Machine::run`] must end
    /// in the same state as calling this alone (`tests/fast_forward.rs`).
    pub fn step_cycle(&mut self) {
        self.progress = false;
        self.delay_notes.clear();
        self.update_vp();
        self.retire();
        self.untaint_step();
        // Resolve validator checks before rename can recycle registers:
        // the attacker observes leaked values when they leak, not later.
        self.drain_validator();
        self.writeback();
        self.resolve();
        self.issue();
        self.rename();
        self.fetch();
        self.drain_validator();
        self.sample_telemetry(1);
        self.cycle += 1;
    }

    fn drain_validator(&mut self) {
        if let Some(mut v) = self.validator.take() {
            let rf = &self.rf;
            self.progress |= v.drain(|p| if rf.is_ready(p) { Some(rf.read(p)) } else { None });
            self.validator = Some(v);
        }
    }

    /// Records the per-cycle occupancy samples `n` times (once per cycle
    /// from the current one on, which must all share the same occupancy).
    fn sample_telemetry(&mut self, n: u64) {
        if let Some(t) = &mut self.telemetry {
            t.rob_occupancy.record_n(self.rob.len() as u64, n);
            t.rs_occupancy.record_n(self.rs_used as u64, n);
            t.lq_occupancy.record_n(self.lq_used as u64, n);
            t.sq_occupancy.record_n(self.sq_used as u64, n);
            t.mshr_inflight.record_n(self.mem.l1().mshrs_in_flight(self.cycle) as u64, n);
        }
    }

    /// Skips the cycles that would repeat the quiet cycle just simulated.
    ///
    /// If no stage changed machine state other than the delay counters
    /// (`progress` is clear) and the taint engine is quiescent, the state
    /// entering this cycle equals the state entering the previous one, so
    /// every cycle repeats it until a timed condition changes. The timers
    /// are the earliest pending completion, the cycle fetch resumes after
    /// an I-cache miss (inclusive: fetch runs *at* that cycle), the next
    /// L1 MSHR expiry (telemetry samples the in-flight count) and `limit`.
    /// Each skipped cycle replays the quiet cycle's delay counters, its
    /// delay trace events stamped with the skipped cycle, and the
    /// telemetry samples.
    fn fast_forward(&mut self, limit: u64) {
        if self.protection.engine().is_some_and(|e| !e.quiescent()) {
            return;
        }
        let now = self.cycle;
        let mut target = limit;
        if let Some(&Reverse((t, _))) = self.sched.completions.peek() {
            target = target.min(t);
        }
        if self.ifetch_stall_until >= now {
            target = target.min(self.ifetch_stall_until);
        }
        if let Some(t) = self.mem.l1().next_mshr_expiry(now) {
            target = target.min(t);
        }
        if target <= now {
            return;
        }
        let n = target - now;
        let mut xmit = 0;
        for &note in &self.delay_notes {
            if let DelayNote::Transmitter(i) = note {
                xmit += 1;
                self.rob[i].timing.xmit_delay_cycles += n;
            }
        }
        let res = self.delay_notes.len() as u64 - xmit;
        self.stats.transmitter_delay_cycles += xmit * n;
        self.stats.resolution_delay_cycles += res * n;
        if self.trace.enabled() {
            for cycle in now..target {
                for k in 0..self.delay_notes.len() {
                    self.trace_delay(self.delay_notes[k], cycle);
                }
            }
        }
        self.sample_telemetry(n);
        self.cycle = target;
        self.fast_forwarded += n;
    }

    // ------------------------------------------------------------------
    // Visibility point
    // ------------------------------------------------------------------

    /// Advances the visibility-point cursor over entries that have become
    /// "self-ok", marking newly uncovered entries as having reached the
    /// VP, performs VP declassification (§6.6), and advances the STT
    /// frontier.
    ///
    /// Self-ok — whether this entry is non-speculative enough for younger
    /// instructions — is monotone per entry (each conjunct only ever flips
    /// towards ok while the entry lives), and the VP prefix survives both
    /// retirement (head entries leave it) and squashes (only younger
    /// entries are removed), so the persistent cursor visits each entry
    /// O(1) times total instead of once per cycle.
    fn update_vp(&mut self) {
        let futuristic = matches!(self.prot.threat, spt_core::ThreatModel::Futuristic);
        let len = self.rob.len();
        let ok_before = self.sched.ok_count;
        let mut newly_vp = std::mem::take(&mut self.sched.newly_vp);
        newly_vp.clear();

        loop {
            // Entries up to (and including) the cursor are at the VP.
            while self.sched.vp_len < (self.sched.ok_count + 1).min(len) {
                let e = &mut self.rob[self.sched.vp_len];
                debug_assert!(!e.vp);
                e.vp = true;
                e.declassified = true;
                newly_vp.push(e.seq);
                self.sched.vp_len += 1;
            }
            if self.sched.ok_count >= len {
                break;
            }
            // Is this entry itself non-speculative enough for younger
            // instructions? Spectre: only unresolved control flow keeps
            // younger instructions speculative. Futuristic: any incomplete
            // instruction does.
            let e = &self.rob[self.sched.ok_count];
            let self_ok = if futuristic {
                e.completed() && e.resolved && e.mem.pending_violation.is_none()
            } else {
                // Spectre model, augmented for data speculation (paper §8:
                // "a variant of the Spectre model where the VP is augmented
                // to consider data speculation"): a store whose address is
                // still unknown keeps younger instructions speculative,
                // because a memory-order violation could squash them. This
                // makes reaching the VP imply retirement, which the
                // declassification axiom relies on.
                (!e.inst.is_control_flow() || e.resolved)
                    && (!e.is_store() || e.state != ExecState::Waiting)
                    && e.mem.pending_violation.is_none()
            };
            if !self_ok {
                break;
            }
            self.sched.ok_count += 1;
        }
        self.progress |= !newly_vp.is_empty() || self.sched.ok_count != ok_before;
        let frontier = self.sched.ok_count.checked_sub(1).map(|i| self.rob[i].seq);

        self.protection.reach_vp(&newly_vp, frontier);
        self.sched.newly_vp = newly_vp;
    }

    // ------------------------------------------------------------------
    // Trace emission
    // ------------------------------------------------------------------

    /// Reports a departing instruction (retired or squashed) to the trace
    /// sink. The disassembly string is only formatted when a sink is
    /// attached.
    fn emit_inst(&mut self, e: &RobEntry, retire_cycle: Option<u64>, squash_cycle: Option<u64>) {
        if !self.trace.enabled() {
            return;
        }
        let disasm = e.inst.to_string();
        if let Some(sink) = self.trace.sink() {
            sink.inst(&InstRecord {
                seq: e.seq,
                pc: e.pc,
                disasm: &disasm,
                fetch_cycle: e.timing.fetch_cycle,
                rename_cycle: e.timing.rename_cycle,
                issue_cycle: e.timing.issue_cycle,
                complete_cycle: e.timing.complete_cycle,
                retire_cycle,
                squash_cycle,
            });
        }
    }

    /// Counts a transmitter-slot cycle blocked by the protection gate,
    /// both globally and on the blocked instruction itself.
    fn note_xmit_blocked(&mut self, i: usize) {
        self.stats.transmitter_delay_cycles += 1;
        self.rob[i].timing.xmit_delay_cycles += 1;
        self.delay_notes.push(DelayNote::Transmitter(i));
        self.trace_delay(DelayNote::Transmitter(i), self.cycle);
    }

    /// Counts a deferred branch-resolution cycle for the entry at ROB
    /// index `i`.
    fn note_resolution_deferred(&mut self, i: usize) {
        self.stats.resolution_delay_cycles += 1;
        self.delay_notes.push(DelayNote::Resolution(i));
        self.trace_delay(DelayNote::Resolution(i), self.cycle);
    }

    /// Reports a delay note to the trace sink as happening at `cycle`.
    fn trace_delay(&mut self, note: DelayNote, cycle: u64) {
        if !self.trace.enabled() {
            return;
        }
        let event = match note {
            DelayNote::Transmitter(i) => {
                SptTraceEvent::TransmitterDelayed { seq: self.rob[i].seq, pc: self.rob[i].pc }
            }
            DelayNote::Resolution(i) => {
                SptTraceEvent::ResolutionDeferred { seq: self.rob[i].seq, pc: self.rob[i].pc }
            }
        };
        if let Some(sink) = self.trace.sink() {
            sink.event(cycle, &event);
        }
    }

    // ------------------------------------------------------------------
    // Retire
    // ------------------------------------------------------------------

    fn retire(&mut self) {
        for _ in 0..self.core.retire_width {
            let Some(head) = self.rob.front() else { break };
            if !(head.completed() && head.resolved && head.mem.pending_violation.is_none()) {
                break;
            }
            // Retires, or a store drain touches the L1 even when it is busy.
            self.progress = true;
            let seq = head.seq;

            if head.is_store() {
                let addr = head.mem.addr.expect("completed store has an address");
                let bytes = head.mem.bytes;
                let value = head.mem.value;
                let data_idx = head.inst.store_data_src().expect("store has data operand");
                let data_mask = self
                    .protection
                    .engine()
                    .and_then(|e| e.operand_mask(seq, data_idx))
                    .unwrap_or(TaintMask::ALL);
                match self.mem.write_timed(addr, value, bytes, self.cycle) {
                    Err(_busy) => break, // retry next cycle
                    Ok(out) => {
                        for ev in out.l1_events {
                            self.shadow.on_l1_event(ev);
                        }
                        // §6.8 store rule ①: the written bytes take the data
                        // operand's taint.
                        self.shadow.store(addr, bytes, data_mask);
                        if let Some(v) = self.validator.as_mut() {
                            let mut public_mask = 0u8;
                            for i in 0..bytes.min(8) {
                                if !data_mask.byte_tainted(i) {
                                    public_mask |= 1 << i;
                                }
                            }
                            v.on_store_drain(seq, addr, bytes, data_idx, public_mask);
                        }
                    }
                }
            }

            let head = self.rob.pop_front().expect("head exists");
            self.rob_pos.pop_front();
            // The retired head satisfied the retire condition, which
            // implies self-ok under both threat models, so it was inside
            // the VP cursor's prefix.
            debug_assert!(self.sched.ok_count > 0 && self.sched.vp_len > 0);
            self.sched.ok_count = self.sched.ok_count.saturating_sub(1);
            self.sched.vp_len = self.sched.vp_len.saturating_sub(1);
            if head.is_load() {
                self.sched.loads.remove(&seq);
                self.sched.fwd_loads.remove(&seq);
                self.sched.shadow_wait.remove(&seq);
            }
            if head.is_store() {
                self.sched.stores.remove(&seq);
            }
            self.emit_inst(&head, Some(self.cycle), None);
            if let Some(t) = &mut self.telemetry {
                if head.inst.is_transmitter() {
                    t.xmit_delay.record(head.timing.xmit_delay_cycles);
                }
            }
            if head.inst.is_transmitter() {
                self.transmit_obs.write_u64(head.pc);
                self.transmit_obs.write_u64(self.cycle);
            }
            if head.is_load()
                && head.mem.fwd_from.is_none()
                && head.mem.accessed
                && !matches!(self.prot.shadow, spt_core::ShadowMode::None)
            {
                if let (Some(addr), Some((_, phys, _))) = (head.mem.addr, head.dest) {
                    if self
                        .protection
                        .engine()
                        .is_some_and(|e| e.dest_mask(seq).is_some_and(|m| m.is_clear()))
                        || head.mem.range_cleared
                    {
                        // Already public: nothing more to track.
                    } else {
                        self.retired_loads.insert(phys, addr, head.mem.bytes);
                    }
                }
            }
            if head.inst.is_control_flow() {
                let target = head.actual_next.unwrap_or(head.pred_next);
                self.fe.train(
                    head.pc,
                    &head.inst,
                    head.actual_taken,
                    target,
                    head.pred_info.as_ref(),
                );
                if head.inst.is_cond_branch() {
                    self.stats.retired_branches += 1;
                }
            }
            if let Some((_, _new, old)) = head.dest {
                self.rf.release(old);
            }
            self.protection.retire(seq);
            if let Some(v) = self.validator.as_mut() {
                v.on_retire(seq);
            }
            if head.is_load() {
                self.lq_used -= 1;
            }
            if head.is_store() {
                self.sq_used -= 1;
            }
            self.stats.retired += 1;
            self.last_retire_cycle = self.cycle;
            if matches!(head.inst, Inst::Halt) {
                self.halted = true;
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Untaint propagation + store-to-load untaint gating
    // ------------------------------------------------------------------

    fn untaint_step(&mut self) {
        if let Some(engine) = self.protection.engine_mut() {
            self.progress |= !engine.quiescent();
            let step = engine.step();
            if let Some(v) = self.validator.as_mut() {
                for &(phys, kind) in &step.broadcasts {
                    v.on_broadcast(phys, kind);
                }
            }
            if self.trace.enabled() || self.telemetry.is_some() {
                for &(phys, kind) in &step.broadcasts {
                    let cycle = self.cycle;
                    // Producer seq of the episode being closed (0 when the
                    // birth was never observed, e.g. sink attached late).
                    let seq = self.taint_src.get(phys as usize).copied().unwrap_or(0);
                    if let Some(sink) = self.trace.sink() {
                        sink.event(
                            cycle,
                            &SptTraceEvent::Untaint { phys, mechanism: kind.label(), seq },
                        );
                    }
                    if let Some(t) = &mut self.telemetry {
                        t.on_untaint(phys, cycle);
                    }
                }
            }
            if !matches!(self.prot.shadow, spt_core::ShadowMode::None) {
                for &(phys, _) in &step.broadcasts {
                    if let Some(r) = self.retired_loads.take(phys) {
                        self.shadow.clear_range(r.addr, r.bytes);
                        if let Some(v) = self.validator.as_mut() {
                            v.on_mem_inferable(r.addr, r.bytes, phys);
                        }
                    }
                }
            }
            self.stl_pass();
        }
    }

    /// Recomputes `STLPublic` for forwarding pairs and propagates untaint
    /// across public pairs (§6.7 rules ① and ②).
    fn stl_pass(&mut self) {
        let Some(engine) = self.protection.engine_mut() else { return };
        if !engine.config().untaint.forward() {
            return;
        }
        let backward = engine.config().untaint.backward();

        // Forwarded loads, oldest first (the scheduler tracks them).
        let mut snapshot = std::mem::take(&mut self.sched.stl_snapshot);
        snapshot.clear();
        snapshot.extend(self.sched.fwd_loads.iter().copied());

        for &l_seq in &snapshot {
            let i = self.rob_pos.get(l_seq).expect("tracked forwarded load is in the ROB");
            let (s_seq, already_public) = {
                let l = &self.rob[i];
                debug_assert!(l.is_load());
                (l.mem.fwd_from.expect("tracked"), l.mem.stl.is_some_and(|c| c.is_public()))
            };
            let public = already_public || {
                // ② all of the load's address operands are public,
                let load_addr_public = engine.leak_operands_clear(l_seq);
                // ③ every store older than L and younger than or equal to S
                // has a public address. Stores that already retired reached
                // their VP, which declassified their addresses.
                let stores_public =
                    self.sched.stores.range(s_seq..l_seq).all(|&s| engine.leak_operands_clear(s));
                load_addr_public && stores_public
            };
            let stl = Some(if public { StlCondition::public() } else { StlCondition::pending(1) });
            if self.rob[i].mem.stl != stl {
                self.rob[i].mem.stl = stl;
                self.progress = true;
            }
            if !public {
                continue;
            }
            // Rule ①: forward untaint of the load output from the store's
            // data operand. If the store already retired we can no longer
            // observe its data taint; stay conservative.
            let data_idx = self.rob_pos.get(s_seq).and_then(|j| self.rob[j].inst.store_data_src());
            let Some(data_idx) = data_idx else { continue };
            if let Some(v) = self.validator.as_mut() {
                self.progress |= v.on_stl_pair(l_seq, s_seq, data_idx);
            }
            if let Some(mask) = engine.operand_mask(s_seq, data_idx) {
                if mask.is_clear() {
                    engine.set_load_output(l_seq, TaintMask::NONE, UntaintKind::StlForward);
                }
            }
            // Rule ②: backward untaint of the store data from the load
            // output.
            if backward {
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
        if !matches!(self.prot.shadow, spt_core::ShadowMode::None) {
            // Candidates: completed, non-forwarded loads (writeback adds
            // them to `shadow_wait`); they wait here until they reach the
            // VP and their output untaints, or leave the ROB.
            snapshot.clear();
            snapshot.extend(self.sched.shadow_wait.iter().copied());
            for &seq in &snapshot {
                let i = self.rob_index(seq).expect("tracked load is in the ROB");
                let e = &self.rob[i];
                debug_assert!(
                    e.is_load() && e.state == ExecState::Done && e.mem.fwd_from.is_none()
                );
                if !e.vp || e.mem.range_cleared {
                    continue;
                }
                let Some(addr) = e.mem.addr else { continue };
                let engine = self.protection.engine().expect("stl_pass runs with engine");
                if engine.dest_mask(seq).is_some_and(|m| m.is_clear()) {
                    let bytes = e.mem.bytes;
                    let phys = e.dest.map(|(_, p, _)| p);
                    self.shadow.clear_range(addr, bytes);
                    self.rob[i].mem.range_cleared = true;
                    self.sched.shadow_wait.remove(&seq);
                    self.progress = true;
                    if let (Some(v), Some(p)) = (self.validator.as_mut(), phys) {
                        v.on_mem_inferable(addr, bytes, p);
                    }
                }
            }
        }
        snapshot.clear();
        self.sched.stl_snapshot = snapshot;
    }

    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    fn writeback(&mut self) {
        // Pop due completions; skip heap entries whose instruction was
        // squashed (seqs are never reused, so absence from the ROB — or a
        // state other than `Issued` — means stale). Same-cycle
        // completions must apply oldest-first (a younger load's shadow
        // read-mask observes an older load's clear-range), so the due set
        // is re-sorted by seq before processing.
        let mut due = std::mem::take(&mut self.sched.due);
        due.clear();
        while let Some(&Reverse((t, seq))) = self.sched.completions.peek() {
            if t > self.cycle {
                break;
            }
            self.sched.completions.pop();
            if let Some(i) = self.rob_index(seq) {
                if self.rob[i].state == ExecState::Issued {
                    due.push(seq);
                }
            }
        }
        due.sort_unstable();
        self.progress |= !due.is_empty();
        for &seq in &due {
            let i = self.rob_index(seq).expect("validated on pop");
            let e = &self.rob[i];
            debug_assert!(e.state == ExecState::Issued && e.done_at <= self.cycle);
            let is_load = e.is_load();
            let dest = e.dest;
            let result = if is_load { self.rob[i].mem.value } else { self.rob[i].result };
            self.rob[i].state = ExecState::Done;
            self.rob[i].timing.complete_cycle = Some(self.cycle);
            if let Some((_, phys, _)) = dest {
                self.rf.write(phys, result);
                self.wake_dependents(phys);
            }
            if is_load {
                self.finish_load_taint(i, seq);
                if self.rob[i].mem.fwd_from.is_none() && self.stl_shadow_tracking() {
                    self.sched.shadow_wait.insert(seq);
                }
            }
        }
        due.clear();
        self.sched.due = due;
    }

    /// Whether the post-hoc §6.8 rule-② pass at the end of `stl_pass` can
    /// ever run (it needs the taint engine, forward untainting and a
    /// shadow memory) — the gate for tracking `shadow_wait` candidates.
    fn stl_shadow_tracking(&self) -> bool {
        self.protection.engine().is_some()
            && self.prot.untaint.forward()
            && !matches!(self.prot.shadow, spt_core::ShadowMode::None)
    }

    /// Wakes instructions waiting on `phys` after it was written: each
    /// drops one pending operand and enters the ready queue at zero.
    /// Stale seqs (squashed consumers of a previous life of `phys`) no
    /// longer resolve to a ROB entry and are skipped.
    fn wake_dependents(&mut self, phys: spt_core::PhysReg) {
        let mut list = std::mem::take(&mut self.sched.waiters[phys as usize]);
        for &seq in &list {
            if let Some(i) = self.rob_index(seq) {
                let e = &mut self.rob[i];
                debug_assert!(e.state == ExecState::Waiting && e.pending_srcs > 0);
                e.pending_srcs -= 1;
                if e.pending_srcs == 0 {
                    self.sched.ready.insert(seq);
                }
            }
        }
        list.clear();
        self.sched.waiters[phys as usize] = list;
    }

    /// Applies the §6.8 load rules when a load's data arrives.
    fn finish_load_taint(&mut self, idx: usize, seq: Seq) {
        let Some(engine) = self.protection.engine_mut() else { return };
        let e = &self.rob[idx];
        if e.mem.fwd_from.is_some() || e.mem.oblivious {
            // Forwarded data flows via STLPublic (stl_pass); oblivious loads
            // bypassed the cache entirely, so the shadow has nothing to say.
            return;
        }
        let Some(addr) = e.mem.addr else { return };
        let bytes = e.mem.bytes;
        let kind = match self.prot.shadow {
            spt_core::ShadowMode::L1 => UntaintKind::ShadowL1,
            spt_core::ShadowMode::Mem => UntaintKind::ShadowMem,
            spt_core::ShadowMode::None => UntaintKind::ShadowL1, // unused
        };
        let dest_clear = engine.dest_mask(seq).is_some_and(|m| m.is_clear());
        if dest_clear {
            // Load rule ②: the output is already public, so the read bytes
            // are provably public.
            self.shadow.clear_range(addr, bytes);
            let phys = self.rob[idx].dest.map(|(_, p, _)| p);
            if let (Some(v), Some(p)) = (self.validator.as_mut(), phys) {
                v.on_mem_inferable(addr, bytes, p);
            }
        } else {
            let mask = self.shadow.read_mask(addr, bytes);
            engine.set_load_output(seq, mask, kind);
        }
    }

    // ------------------------------------------------------------------
    // Resolution (branches + deferred memory-order violations)
    // ------------------------------------------------------------------

    fn resolve(&mut self) {
        let mut snapshot = std::mem::take(&mut self.sched.resolve_snapshot);
        // At most one squash per cycle: violations are only considered
        // when no branch squashed (short-circuit).
        let _ = self.resolve_branches(&mut snapshot) || self.resolve_violations(&mut snapshot);
        snapshot.clear();
        self.sched.resolve_snapshot = snapshot;
    }

    /// Branch resolution: apply effects for allowed, completed control
    /// flow, oldest first; at most one squash per cycle (the oldest).
    /// Returns whether a squash happened.
    fn resolve_branches(&mut self, snapshot: &mut Vec<Seq>) -> bool {
        snapshot.clear();
        snapshot.extend(self.sched.unresolved_cf.iter().copied());
        for &seq in snapshot.iter() {
            let i = self.rob_index(seq).expect("tracked control flow is in the ROB");
            let e = &self.rob[i];
            debug_assert!(e.inst.is_control_flow() && !e.resolved);
            if e.state != ExecState::Done {
                continue;
            }
            if !self.protection.leak_allowed(e) {
                self.note_resolution_deferred(i);
                continue;
            }
            let e = &mut self.rob[i];
            e.resolved = true;
            self.sched.unresolved_cf.remove(&seq);
            self.progress = true;
            let actual = e.actual_next.expect("executed control flow has a target");
            if actual != e.pred_next {
                let pc = e.pc;
                let inst = e.inst;
                let taken = e.actual_taken;
                let cp = e.checkpoint.clone();
                if inst.is_cond_branch() {
                    self.stats.branch_mispredicts += 1;
                } else {
                    self.stats.indirect_mispredicts += 1;
                }
                self.squash_after(seq);
                self.fe.recover(&cp, pc, &inst, taken);
                self.fetch_pc = actual;
                self.fetch_stalled = false;
                self.fetch_q.clear();
                self.stats.squashes += 1;
                return true;
            }
        }
        false
    }

    /// Deferred memory-order violation squashes (§6.7): allowed when the
    /// implicit branch (the store/load addresses) is public or the store
    /// reached the VP. Returns whether a squash happened.
    fn resolve_violations(&mut self, snapshot: &mut Vec<Seq>) -> bool {
        snapshot.clear();
        snapshot.extend(self.sched.pending_viol.iter().copied());
        for &seq in snapshot.iter() {
            let i = self.rob_index(seq).expect("tracked store is in the ROB");
            let e = &self.rob[i];
            let Some(victim_seq) = e.mem.pending_violation else { continue };
            if !self.protection.leak_allowed(e) {
                self.note_resolution_deferred(i);
                continue;
            }
            self.progress = true;
            let Some(vi) = self.rob_index(victim_seq) else {
                self.rob[i].mem.pending_violation = None;
                self.sched.pending_viol.remove(&seq);
                continue;
            };
            let victim = &self.rob[vi];
            let pc = victim.pc;
            let cp = victim.checkpoint.clone();
            self.squash_after(victim_seq - 1);
            self.rob[i].mem.pending_violation = None;
            self.sched.pending_viol.remove(&seq);
            self.fe.restore(&cp);
            self.fetch_pc = pc;
            self.fetch_stalled = false;
            self.fetch_q.clear();
            self.stats.squashes += 1;
            return true;
        }
        false
    }

    /// Removes every entry younger than `seq`, rolling back renaming.
    fn squash_after(&mut self, seq: Seq) {
        while let Some(tail) = self.rob.back() {
            if tail.seq <= seq {
                break;
            }
            let e = self.rob.pop_back().expect("tail exists");
            self.emit_inst(&e, None, Some(self.cycle));
            if let Some((arch, new, old)) = e.dest {
                self.rf.rollback(arch, new, old);
                if let Some(t) = &mut self.telemetry {
                    t.on_squash_reg(new);
                }
            }
            if e.in_rs {
                self.rs_used -= 1;
            }
            if e.is_load() {
                self.lq_used -= 1;
            }
            if e.is_store() {
                self.sq_used -= 1;
            }
        }
        self.rob_pos.squash_after(seq);
        self.sched.squash_from(seq + 1);
        self.sched.ok_count = self.sched.ok_count.min(self.rob.len());
        self.sched.vp_len = self.sched.vp_len.min(self.rob.len());
        // Clear dangling violation victims (the completion heap and
        // wakeup lists shed squashed seqs lazily).
        let mut snapshot = std::mem::take(&mut self.sched.squash_snapshot);
        snapshot.clear();
        snapshot.extend(self.sched.pending_viol.iter().copied());
        for &s in &snapshot {
            let i = self.rob_index(s).expect("tracked store is in the ROB");
            if self.rob[i].mem.pending_violation.is_some_and(|v| v > seq) {
                self.rob[i].mem.pending_violation = None;
                self.sched.pending_viol.remove(&s);
            }
        }
        snapshot.clear();
        self.sched.squash_snapshot = snapshot;
        self.protection.squash_from(seq + 1);
        if let Some(v) = self.validator.as_mut() {
            v.on_squash(seq + 1);
        }
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn srcs_ready(&self, e: &RobEntry) -> bool {
        e.srcs.iter().flatten().all(|&p| self.rf.is_ready(p))
    }

    fn issue(&mut self) {
        let mut issued = 0;
        let mut mem_issued = 0;
        // The ready queue holds exactly the dispatched entries with all
        // operands ready, in age order — the set and order the full ROB
        // scan used to select. Entries blocked by a structural or
        // protection gate stay queued and retry next cycle.
        let mut snapshot = std::mem::take(&mut self.sched.ready_snapshot);
        snapshot.clear();
        snapshot.extend(self.sched.ready.iter().copied());
        for &seq in &snapshot {
            if issued >= self.core.issue_width {
                break;
            }
            let i = self.rob_index(seq).expect("ready entry is in the ROB");
            debug_assert!(self.rob[i].state == ExecState::Waiting);
            debug_assert!(self.srcs_ready(&self.rob[i]));
            let inst = self.rob[i].inst;
            match inst {
                Inst::Load { .. } => {
                    if mem_issued >= self.core.mem_ports {
                        continue;
                    }
                    if !self.protection.leak_allowed(&self.rob[i]) {
                        // SDO-style policy (§6.3): execute the unsafe load
                        // obliviously instead of delaying it.
                        if self.prot.policy == spt_core::Policy::Oblivious
                            && self.try_issue_load_oblivious(i)
                        {
                            issued += 1;
                            mem_issued += 1;
                        } else {
                            self.note_xmit_blocked(i);
                        }
                        continue;
                    }
                    if self.try_issue_load(i) {
                        issued += 1;
                        mem_issued += 1;
                    }
                }
                Inst::Store { .. } => {
                    if mem_issued >= self.core.mem_ports {
                        continue;
                    }
                    if !self.protection.leak_allowed(&self.rob[i]) {
                        self.note_xmit_blocked(i);
                        continue;
                    }
                    self.issue_store(i);
                    issued += 1;
                    mem_issued += 1;
                }
                _ => {
                    // Variable-time instructions are transmitters when the
                    // configuration protects that channel (§2.1).
                    if self.rob[i].inst.is_variable_time()
                        && self.prot.variable_time_transmitters
                        && !self.protection.leak_allowed(&self.rob[i])
                    {
                        self.note_xmit_blocked(i);
                        continue;
                    }
                    self.issue_alu(i);
                    issued += 1;
                }
            }
        }
        snapshot.clear();
        self.sched.ready_snapshot = snapshot;
        self.progress |= issued > 0;
    }

    fn read_src(&self, e: &RobEntry, idx: usize) -> u64 {
        e.srcs[idx].map_or(0, |p| self.rf.read(p))
    }

    /// Effective address of a load/store entry (operands must be ready).
    fn effective_addr(&self, e: &RobEntry) -> u64 {
        match e.inst {
            Inst::Load { index, scale, offset, .. } | Inst::Store { index, scale, offset, .. } => {
                let base = self.read_src(e, 0);
                let idx = if index.is_zero() { 0 } else { self.read_src(e, 1) };
                base.wrapping_add(idx << scale).wrapping_add(offset as u64)
            }
            _ => unreachable!("effective_addr on non-memory instruction"),
        }
    }

    fn issue_alu(&mut self, i: usize) {
        let e = &self.rob[i];
        let pc = e.pc;
        let (result, actual_next, actual_taken, latency) = match e.inst {
            Inst::Nop | Inst::Halt => (0, None, false, 1),
            Inst::MovImm { imm, .. } => (imm as u64, None, false, 1),
            Inst::Mov { .. } => (self.read_src(e, 0), None, false, 1),
            Inst::Alu { op, .. } => {
                let (a, b) = (self.read_src(e, 0), self.read_src(e, 1));
                (op.eval(a, b), None, false, op.variable_latency(a, b))
            }
            Inst::AluImm { op, imm, .. } => {
                let a = self.read_src(e, 0);
                (op.eval(a, imm as u64), None, false, op.variable_latency(a, imm as u64))
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(self.read_src(e, 0), self.read_src(e, 1));
                (0, Some(if taken { target as u64 } else { pc + 1 }), taken, 1)
            }
            Inst::Jump { target } => (0, Some(target as u64), true, 1),
            Inst::JumpInd { .. } => (0, Some(self.read_src(e, 0)), true, 1),
            Inst::Call { target, .. } => (pc + 1, Some(target as u64), true, 1),
            Inst::CallInd { .. } => (pc + 1, Some(self.read_src(e, 0)), true, 1),
            Inst::Ret { .. } => (0, Some(self.read_src(e, 0)), true, 1),
            Inst::Load { .. } | Inst::Store { .. } => unreachable!("handled by memory paths"),
        };
        let e = &mut self.rob[i];
        e.result = result;
        e.actual_next = actual_next;
        e.actual_taken = actual_taken;
        e.state = ExecState::Issued;
        e.done_at = self.cycle + latency;
        e.timing.issue_cycle = Some(self.cycle);
        e.in_rs = false;
        let (seq, done_at) = (e.seq, e.done_at);
        self.rs_used -= 1;
        self.sched.ready.remove(&seq);
        self.sched.completions.push(Reverse((done_at, seq)));
    }

    /// Store-queue search for load `seq` reading `bytes` at `addr`,
    /// youngest older store first. `Some(Some((store, value)))`: a store
    /// fully covers the load and forwards its data; `Some(None)`: no store
    /// with a known address overlaps it; `None`: a partial overlap.
    fn store_forward(&self, seq: Seq, addr: u64, bytes: u64) -> Option<Option<(Seq, u64)>> {
        for &s_seq in self.sched.stores.range(..seq).rev() {
            let j = self.rob_index(s_seq).expect("tracked store is in the ROB");
            let s = &self.rob[j];
            let Some(sa) = s.mem.addr else { continue }; // unknown address: speculate no-alias
            if RobEntry::range_covers(sa, s.mem.bytes, addr, bytes) {
                let shifted = s.mem.value >> (8 * (addr - sa));
                let masked =
                    if bytes == 8 { shifted } else { shifted & ((1u64 << (8 * bytes)) - 1) };
                return Some(Some((s.seq, masked)));
            }
            if RobEntry::ranges_overlap(sa, s.mem.bytes, addr, bytes) {
                return None;
            }
        }
        Some(None)
    }

    /// Attempts to issue the load at ROB index `i`. Returns `false` if it
    /// must retry later (forwarding blocked or MSHRs busy).
    fn try_issue_load(&mut self, i: usize) -> bool {
        let e = &self.rob[i];
        debug_assert!(e.is_load());
        let addr = self.effective_addr(e);
        let bytes = e.mem.bytes;
        let seq = e.seq;

        // Partial overlap: wait until the store drains to memory.
        let Some(forward) = self.store_forward(seq, addr, bytes) else { return false };

        let protected = self.prot.protected();
        // From here on the TLB and the cache change state, even if the
        // access then finds every MSHR busy.
        self.progress = true;
        // Address translation (the TLB channel, §2.1/§7.4): charged before
        // the cache access, covered by the same transmitter gate.
        let tlb_extra = self.dtlb.translate(addr);
        let (value, done_at, fwd_from) = match forward {
            Some((s_seq, v)) => {
                if protected {
                    // STT/SPT forwarding security: the load always accesses
                    // the cache so the forwarding decision is invisible.
                    match self.mem.access_timed(addr, self.cycle, false) {
                        Err(_busy) => return false,
                        Ok(out) => {
                            for ev in out.l1_events {
                                self.shadow.on_l1_event(ev);
                            }
                            (v, out.done_at + tlb_extra, Some(s_seq))
                        }
                    }
                } else {
                    (v, self.cycle + 1 + tlb_extra, Some(s_seq))
                }
            }
            None => match self.mem.read_timed(addr, bytes, self.cycle) {
                Err(_busy) => return false,
                Ok((v, out)) => {
                    for ev in out.l1_events {
                        self.shadow.on_l1_event(ev);
                    }
                    (v, out.done_at + tlb_extra, None)
                }
            },
        };

        if fwd_from.is_some() {
            self.stats.stl_forwards += 1;
        }
        if let Some(v) = self.validator.as_mut() {
            v.on_mem_addr(seq, addr);
        }
        let e = &mut self.rob[i];
        e.mem.addr = Some(addr);
        e.mem.value = value;
        e.mem.fwd_from = fwd_from;
        e.mem.accessed = true;
        e.state = ExecState::Issued;
        e.done_at = done_at;
        e.timing.issue_cycle = Some(self.cycle);
        e.in_rs = false;
        self.rs_used -= 1;
        self.sched.ready.remove(&seq);
        self.sched.completions.push(Reverse((done_at, seq)));
        if fwd_from.is_some() {
            self.sched.fwd_loads.insert(seq);
        }
        true
    }

    /// SDO-style oblivious issue: the load completes in worst-case time
    /// without touching any cache state, so its execution reveals nothing
    /// about its (tainted) address. Store-queue forwarding still applies
    /// (it is invisible to the attacker); partial overlaps fall back to the
    /// delay policy.
    fn try_issue_load_oblivious(&mut self, i: usize) -> bool {
        let e = &self.rob[i];
        debug_assert!(e.is_load());
        if !self.srcs_ready(e) {
            return false;
        }
        let addr = self.effective_addr(e);
        let bytes = e.mem.bytes;
        let seq = e.seq;

        // Partial overlap: fall back to delaying.
        let Some(forward) = self.store_forward(seq, addr, bytes) else { return false };
        let value = match forward {
            Some((_, v)) => v,
            None => self.mem.store_ref().read(addr, bytes),
        };

        if let Some(v) = self.validator.as_mut() {
            v.on_mem_addr(seq, addr);
        }
        let done_at = self.cycle + self.worst_mem_latency;
        let e = &mut self.rob[i];
        e.mem.addr = Some(addr);
        e.mem.value = value;
        e.mem.fwd_from = forward.map(|(s, _)| s);
        e.mem.accessed = true;
        e.mem.oblivious = true;
        e.state = ExecState::Issued;
        e.done_at = done_at;
        e.timing.issue_cycle = Some(self.cycle);
        e.in_rs = false;
        self.rs_used -= 1;
        self.sched.ready.remove(&seq);
        self.sched.completions.push(Reverse((done_at, seq)));
        if forward.is_some() {
            self.sched.fwd_loads.insert(seq);
        }
        true
    }

    fn issue_store(&mut self, i: usize) {
        let e = &self.rob[i];
        let Inst::Store { size, .. } = e.inst else { unreachable!() };
        let addr = self.effective_addr(e);
        let data_idx = e.inst.store_data_src().expect("store has data operand");
        let value = size.truncate(self.read_src(e, data_idx));
        let bytes = e.mem.bytes;
        let seq = e.seq;

        // Memory-order violation check: younger loads that already executed
        // with data not sourced from this store.
        let mut victim: Option<Seq> = None;
        for &l_seq in self.sched.loads.range(seq + 1..) {
            let k = self.rob_index(l_seq).expect("tracked load is in the ROB");
            let l = &self.rob[k];
            if l.state == ExecState::Waiting || !l.mem.accessed {
                continue;
            }
            let Some(la) = l.mem.addr else { continue };
            if !RobEntry::ranges_overlap(addr, bytes, la, l.mem.bytes) {
                continue;
            }
            let got_ours = l.mem.fwd_from == Some(seq);
            let got_younger_store = l.mem.fwd_from.is_some_and(|f| f > seq);
            if !got_ours && !got_younger_store {
                victim = Some(l.seq);
                break;
            }
        }

        if let Some(v) = self.validator.as_mut() {
            v.on_mem_addr(seq, addr);
        }
        let tlb_extra = self.dtlb.translate(addr);
        let e = &mut self.rob[i];
        e.mem.addr = Some(addr);
        e.mem.value = value;
        e.state = ExecState::Issued;
        e.done_at = self.cycle + 1 + tlb_extra;
        e.timing.issue_cycle = Some(self.cycle);
        e.in_rs = false;
        let done_at = e.done_at;
        if let Some(v) = victim {
            e.mem.pending_violation = Some(v);
            self.stats.mem_violations += 1;
            self.sched.pending_viol.insert(seq);
        }
        self.rs_used -= 1;
        self.sched.ready.remove(&seq);
        self.sched.completions.push(Reverse((done_at, seq)));
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn rename(&mut self) {
        for _ in 0..self.core.rename_width {
            if self.halted {
                break;
            }
            if self.rob.len() >= self.core.rob_size || self.rs_used >= self.core.rs_size {
                break;
            }
            let Some(f) = self.fetch_q.front() else { break };
            let inst = f.inst;
            if inst.is_transmitter() {
                if matches!(inst, Inst::Load { .. }) && self.lq_used >= self.core.lq_size {
                    break;
                }
                if matches!(inst, Inst::Store { .. }) && self.sq_used >= self.core.sq_size {
                    break;
                }
            }
            if inst.dest().is_some() && self.rf.free_count() == 0 {
                break;
            }
            let f = self.fetch_q.pop_front().expect("front exists");
            self.progress = true;

            // Look up sources before allocating the destination (an
            // instruction may read and write the same architectural reg).
            let mut srcs: [Option<spt_core::PhysReg>; 3] = [None, None, None];
            for (k, (reg, _)) in inst.sources().iter().enumerate() {
                srcs[k] = Some(self.rf.lookup(reg));
            }
            let dest = inst.dest().map(|arch| {
                let (new, old) = self.rf.allocate(arch).expect("free list checked");
                // A recycled physical register no longer refers to the
                // retired load's value, and any leftover waiters belong to
                // squashed consumers of its previous life.
                self.retired_loads.clear_phys(new);
                self.sched.waiters[new as usize].clear();
                (arch, new, old)
            });

            let seq = self.next_seq;
            self.next_seq += 1;

            let dest_taint = self.protection.rename(seq, inst, srcs, dest.map(|(_, new, _)| new));
            if let Some(dest_taint) = dest_taint {
                if let Some(v) = self.validator.as_mut() {
                    v.on_rename(
                        seq,
                        f.pc,
                        inst,
                        srcs,
                        dest.map(|(_, new, _)| new),
                        dest.is_some() && dest_taint.is_clear(),
                    );
                }
                if !dest_taint.is_clear() {
                    if let Some((_, new, _)) = dest {
                        let cycle = self.cycle;
                        if self.trace.enabled() {
                            let idx = new as usize;
                            if idx >= self.taint_src.len() {
                                self.taint_src.resize(idx + 1, 0);
                            }
                            self.taint_src[idx] = seq;
                        }
                        if let Some(sink) = self.trace.sink() {
                            sink.event(cycle, &SptTraceEvent::TaintDest { seq, phys: new });
                        }
                        if let Some(t) = &mut self.telemetry {
                            t.on_taint(new, cycle);
                        }
                    }
                }
            }

            let fetch_cycle = f.fetch_cycle;
            let mut entry = RobEntry::new(
                seq,
                f.pc,
                inst,
                srcs,
                dest,
                f.checkpoint,
                f.pred_next,
                f.pred_taken,
                f.pred_info,
            );
            entry.timing.fetch_cycle = fetch_cycle;
            entry.timing.rename_cycle = self.cycle;
            // Scheduler dispatch: register on the wakeup list of every
            // unready source (duplicates count once per operand slot), or
            // go straight to the ready queue.
            let mut pending = 0u8;
            for &p in entry.srcs.iter().flatten() {
                if !self.rf.is_ready(p) {
                    self.sched.waiters[p as usize].push(seq);
                    pending += 1;
                }
            }
            entry.pending_srcs = pending;
            if pending == 0 {
                self.sched.ready.insert(seq);
            }
            if entry.is_load() {
                self.lq_used += 1;
                self.sched.loads.insert(seq);
            }
            if entry.is_store() {
                self.sq_used += 1;
                self.sched.stores.insert(seq);
            }
            if entry.inst.is_control_flow() && !entry.resolved {
                self.sched.unresolved_cf.insert(seq);
            }
            self.rs_used += 1;
            self.rob_pos.push(entry.seq);
            self.rob.push_back(entry);
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        for _ in 0..self.core.fetch_width {
            if self.fetch_stalled || self.halted {
                break;
            }
            if self.fetch_q.len() >= self.core.fetch_queue {
                break;
            }
            if self.cycle < self.ifetch_stall_until {
                break;
            }
            // Past the stall checks every attempt changes fetch state.
            self.progress = true;
            let pc = self.fetch_pc;
            // L1I timing: 8-byte instructions, 8 per 64-byte line.
            let line = pc / 8;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                if !self.icache.lookup(line * 64, false) {
                    self.icache.fill(line * 64, false);
                    // Code is L2-resident: a miss costs an L2 round trip.
                    self.ifetch_stall_until = self.cycle + 20;
                    break;
                }
            }
            let Some(inst) = self.program.fetch(pc) else {
                // Wrong-path fetch ran off the program; wait for a redirect.
                self.fetch_stalled = true;
                break;
            };
            let checkpoint = self.fe.checkpoint();
            let pred = if inst.is_control_flow() {
                self.fe.predict(pc, &inst)
            } else {
                FetchPrediction { next_pc: pc + 1, predicted_taken: false, info: None }
            };
            self.stats.fetched += 1;
            let stall = matches!(inst, Inst::Halt);
            self.fetch_q.push_back(Fetched {
                pc,
                inst,
                checkpoint,
                pred_next: pred.next_pc,
                pred_taken: pred.predicted_taken,
                pred_info: pred.info,
                fetch_cycle: self.cycle,
            });
            self.fetch_pc = pred.next_pc;
            if stall {
                self.fetch_stalled = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_core::ThreatModel;
    use spt_isa::asm::Assembler;
    use spt_isa::interp::Interp;

    fn all_configs() -> Vec<Config> {
        let mut v = Vec::new();
        for t in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            v.extend(Config::table2(t));
        }
        v
    }

    fn sum_program() -> Program {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0);
        a.mov_imm(Reg::R2, 0);
        a.mov_imm(Reg::R3, 100);
        a.label("loop");
        a.add(Reg::R2, Reg::R2, Reg::R1);
        a.addi(Reg::R1, Reg::R1, 1);
        a.blt(Reg::R1, Reg::R3, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn loop_sum_matches_interpreter_under_every_config() {
        let p = sum_program();
        let mut interp = Interp::new(&p);
        interp.run(10_000).unwrap();
        let expected = interp.reg(Reg::R2);
        assert_eq!(expected, 4950);
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            let out = m.run(RunLimits::default()).unwrap_or_else(|e| panic!("{cfg}: {e}"));
            assert_eq!(m.reg(Reg::R2), expected, "config {cfg}");
            assert_eq!(out.reason, StopReason::Halted, "config {cfg}");
        }
    }

    #[test]
    fn store_load_roundtrip_all_sizes() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x2000);
        a.mov_imm(Reg::R2, 0x1122_3344_5566_7788u64 as i64);
        a.store(Reg::R2, Reg::R1, 0, spt_isa::MemSize::B8);
        a.load(Reg::R3, Reg::R1, 0, spt_isa::MemSize::B8);
        a.load(Reg::R4, Reg::R1, 0, spt_isa::MemSize::B4);
        a.load(Reg::R5, Reg::R1, 2, spt_isa::MemSize::B2);
        a.load(Reg::R6, Reg::R1, 7, spt_isa::MemSize::B1);
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R3), 0x1122_3344_5566_7788, "{cfg}");
            assert_eq!(m.reg(Reg::R4), 0x5566_7788, "{cfg}");
            // Bytes 2..4 little-endian: 0x66, 0x55.
            assert_eq!(m.reg(Reg::R5), 0x5566, "{cfg}");
            assert_eq!(m.reg(Reg::R6), 0x11, "{cfg}");
        }
    }

    #[test]
    fn store_to_load_forwarding_is_architecturally_invisible() {
        // Tight store→load with data still in flight: forwarding must give
        // the new value under every configuration.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x3000);
        a.mov_imm(Reg::R2, 11);
        a.mov_imm(Reg::R3, 22);
        a.st(Reg::R2, Reg::R1, 0);
        a.st(Reg::R3, Reg::R1, 0);
        a.ld(Reg::R4, Reg::R1, 0);
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R4), 22, "{cfg}");
        }
    }

    #[test]
    fn pointer_chase_matches_interpreter() {
        // A linked-list walk seeded in memory, exercising load→address
        // dependences under protection.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x4000); // head
        a.mov_imm(Reg::R2, 0); // sum of payloads
        a.mov_imm(Reg::R3, 0); // count
        a.mov_imm(Reg::R4, 8);
        a.label("walk");
        a.ld(Reg::R5, Reg::R1, 8); // payload
        a.add(Reg::R2, Reg::R2, Reg::R5);
        a.ld(Reg::R1, Reg::R1, 0); // next
        a.addi(Reg::R3, Reg::R3, 1);
        a.bne(Reg::R1, Reg::R0, "walk");
        a.halt();
        let p = a.assemble().unwrap();

        let nodes = 16u64;
        let mut init = Vec::new();
        for i in 0..nodes {
            let base = 0x4000 + i * 0x40;
            let next = if i + 1 < nodes { base + 0x40 } else { 0 };
            init.push((base, next));
            init.push((base + 8, i * 3 + 1));
        }

        let mut interp = Interp::new(&p);
        for &(addr, v) in &init {
            interp.mem_mut().write(addr, v, 8);
        }
        interp.run(100_000).unwrap();
        let expected = interp.reg(Reg::R2);

        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            for &(addr, v) in &init {
                m.mem_mut().store().write(addr, v, 8);
            }
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R2), expected, "{cfg}");
            assert_eq!(m.reg(Reg::R3), nodes, "{cfg}");
        }
    }

    #[test]
    fn call_ret_and_indirect_jumps() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R10, 0);
        a.mov_imm(Reg::R11, 5);
        a.label("loop");
        a.call("inc", Reg::R31);
        a.addi(Reg::R11, Reg::R11, -1);
        a.bne(Reg::R11, Reg::R0, "loop");
        a.halt();
        a.label("inc");
        a.addi(Reg::R10, Reg::R10, 7);
        a.ret(Reg::R31);
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R10), 35, "{cfg}");
        }
    }

    #[test]
    fn unsafe_is_fastest_secure_baseline_slowest() {
        // The canonical overhead ordering on a memory-bound loop.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x8000);
        a.mov_imm(Reg::R2, 0);
        a.mov_imm(Reg::R3, 256);
        a.mov_imm(Reg::R4, 0);
        a.label("loop");
        a.ld(Reg::R5, Reg::R1, 0);
        a.add(Reg::R2, Reg::R2, Reg::R5);
        a.addi(Reg::R1, Reg::R1, 8);
        a.addi(Reg::R4, Reg::R4, 1);
        a.blt(Reg::R4, Reg::R3, "loop");
        a.halt();
        let p = a.assemble().unwrap();

        let run = |cfg: Config| {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap().cycles
        };
        let t = ThreatModel::Futuristic;
        let unsafe_c = run(Config::unsafe_baseline(t));
        let spt_c = run(Config::spt_full(t));
        let secure_c = run(Config::secure_baseline(t));
        assert!(unsafe_c <= spt_c, "unsafe {unsafe_c} vs spt {spt_c}");
        assert!(spt_c <= secure_c, "spt {spt_c} vs secure {secure_c}");
        assert!(
            secure_c > unsafe_c * 3 / 2,
            "SecureBaseline must pay heavily on a load loop: {secure_c} vs {unsafe_c}"
        );
    }

    #[test]
    fn branch_mispredictions_are_squashed_correctly() {
        // A data-dependent branch pattern the predictor cannot learn:
        // results must still be exact.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x9000); // array of pseudo-random bits
        a.mov_imm(Reg::R2, 0); // taken count
        a.mov_imm(Reg::R3, 64);
        a.mov_imm(Reg::R4, 0);
        a.label("loop");
        a.ld(Reg::R5, Reg::R1, 0);
        a.beq(Reg::R5, Reg::R0, "skip");
        a.addi(Reg::R2, Reg::R2, 1);
        a.label("skip");
        a.addi(Reg::R1, Reg::R1, 8);
        a.addi(Reg::R4, Reg::R4, 1);
        a.blt(Reg::R4, Reg::R3, "loop");
        a.halt();
        let p = a.assemble().unwrap();

        let mut expected = 0;
        let bits: Vec<u64> = (0..64u64)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234);
                x ^= x >> 31;
                x & 1
            })
            .collect();
        for &b in &bits {
            if b != 0 {
                expected += 1;
            }
        }

        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            for (i, &b) in bits.iter().enumerate() {
                m.mem_mut().store().write(0x9000 + 8 * i as u64, b, 8);
            }
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R2), expected, "{cfg}");
            if !cfg.protected() {
                assert!(m.stats().branch_mispredicts > 0, "pattern must mispredict");
            }
        }
    }

    #[test]
    fn run_limits_stop_early() {
        let p = sum_program();
        let mut m = Machine::new(
            p.clone(),
            CoreConfig::default(),
            Config::unsafe_baseline(ThreatModel::Spectre),
        );
        let out = m.run(RunLimits::retired(50)).unwrap();
        assert_eq!(out.reason, StopReason::RetireBudget);
        assert!(out.retired >= 50);

        let mut m =
            Machine::new(p, CoreConfig::default(), Config::unsafe_baseline(ThreatModel::Spectre));
        let out = m.run(RunLimits::cycles(10)).unwrap();
        assert_eq!(out.reason, StopReason::CycleBudget);
        assert_eq!(out.cycles, 10);
    }

    #[test]
    fn tiny_core_still_correct() {
        let p = sum_program();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::tiny(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R2), 4950, "{cfg}");
        }
    }

    #[test]
    fn spt_produces_untaint_events() {
        let p = sum_program();
        let mut m =
            Machine::new(p, CoreConfig::default(), Config::spt_full(ThreatModel::Futuristic));
        m.run(RunLimits::default()).unwrap();
        let s = m.stats();
        assert!(s.spt.events.total() > 0, "SPT must record untaint events");
        assert!(s.spt.events[UntaintKind::LoadImm] > 0);
    }

    #[test]
    fn transient_load_changes_cache_state() {
        // The essence of Spectre: on the unsafe baseline, a squashed load
        // still fills the cache.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 1);
        // A branch that is always taken but predicted not-taken initially.
        a.beq(Reg::R1, Reg::R0, "cold"); // never taken... predictor default is not-taken, so
                                         // actually use the reverse: bne is taken; untrained predicts not-taken -> wrong path
                                         // falls through into the transient load.
        a.jmp("done");
        a.label("cold");
        a.nop();
        a.label("done");
        a.halt();
        // Simpler deterministic construction below.
        let mut b = Assembler::new();
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, 0xA000);
        b.bne(Reg::R1, Reg::R0, "skip"); // taken, but untrained predictor says not-taken
        b.ld(Reg::R3, Reg::R2, 0); // transient wrong-path load
        b.label("skip");
        b.halt();
        let p = b.assemble().unwrap();
        drop(a);

        let mut m = Machine::new(
            p.clone(),
            CoreConfig::default(),
            Config::unsafe_baseline(ThreatModel::Futuristic),
        );
        m.run(RunLimits::default()).unwrap();
        assert_ne!(m.probe(0xA000), Level::Dram, "transient load must fill the cache");
        assert_eq!(m.reg(Reg::R3), 0, "the load was squashed architecturally");
    }

    #[test]
    fn spt_blocks_transient_load_with_tainted_address() {
        // Same shape, but the wrong-path load's address comes from program
        // data (a prior load) that was never leaked: SPT must delay it
        // until squash, leaving the cache untouched. The branch predicate
        // hangs off a slow dependent-load chain so the speculation window
        // is wide enough for the gadget to fire on the unsafe baseline.
        let mut b = Assembler::new();
        b.mov_imm(Reg::R2, 0x5000);
        b.mov_imm(Reg::R6, 0x20000);
        b.ld(Reg::R8, Reg::R6, 0); // cold load (reads 0)
        b.ld(Reg::R7, Reg::R8, 0x30000); // dependent cold load (reads 0)
        b.ld(Reg::R4, Reg::R2, 0); // secret value (never leaked elsewhere)
        b.beq(Reg::R7, Reg::R0, "skip"); // taken; untrained predictor says not-taken
        b.shli(Reg::R5, Reg::R4, 6); // wrong path: secret * 64
        b.addi(Reg::R5, Reg::R5, 0xB000);
        b.ld(Reg::R3, Reg::R5, 0); // transmit(secret)
        b.label("skip");
        b.halt();
        let p = b.assemble().unwrap();

        let secret = 3u64;
        let leak_line = 0xB000 + secret * 64;

        let run = |cfg: Config| {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.mem_mut().store().write(0x5000, secret, 8);
            m.run(RunLimits::default()).unwrap();
            m.probe(leak_line)
        };
        assert_ne!(
            run(Config::unsafe_baseline(ThreatModel::Futuristic)),
            Level::Dram,
            "unsafe baseline leaks"
        );
        assert_eq!(
            run(Config::spt_full(ThreatModel::Futuristic)),
            Level::Dram,
            "SPT blocks the transient transmitter"
        );
        assert_eq!(
            run(Config::spt_full(ThreatModel::Spectre)),
            Level::Dram,
            "SPT blocks under Spectre model too"
        );
        assert_eq!(run(Config::secure_baseline(ThreatModel::Futuristic)), Level::Dram);
    }
}

#[cfg(test)]
mod memory_order_tests {
    use super::*;
    use spt_core::ThreatModel;
    use spt_isa::asm::Assembler;

    fn all_configs() -> Vec<Config> {
        let mut v = Vec::new();
        for t in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            v.extend(Config::table2(t));
        }
        v
    }

    #[test]
    fn memory_dependence_violation_is_detected_and_squashed() {
        // The store's address arrives late (dependent on a cold load); the
        // younger load to the same address issues speculatively, reads
        // stale data, and must be squashed and re-executed.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x6000);
        a.ld(Reg::R2, Reg::R1, 0); // cold load, reads 0
        a.addi(Reg::R3, Reg::R2, 0x7000); // store address, known late
        a.mov_imm(Reg::R4, 99);
        a.st(Reg::R4, Reg::R3, 0);
        a.mov_imm(Reg::R5, 0x7000);
        a.ld(Reg::R6, Reg::R5, 0); // speculates past the unknown store addr
        a.halt();
        let p = a.assemble().unwrap();

        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R6), 99, "{cfg}: load must see the store's value");
        }
        // On the unprotected machine the speculation definitely happens.
        let mut m = Machine::new(
            p,
            CoreConfig::default(),
            Config::unsafe_baseline(ThreatModel::Futuristic),
        );
        m.run(RunLimits::default()).unwrap();
        assert!(m.stats().mem_violations > 0, "violation must be detected");
        assert!(m.stats().squashes > 0, "violation must squash");
    }

    #[test]
    fn partial_overlap_store_blocks_load_until_drain() {
        // An 8-byte store partially overlapping a 4-byte load cannot
        // forward; the load must wait for the store to drain and then read
        // the merged bytes from memory.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x2000);
        a.mov_imm(Reg::R2, 0x1111_2222_3333_4444);
        a.st(Reg::R2, Reg::R1, 0); // bytes 0x2000..0x2008
        a.load(Reg::R3, Reg::R1, 4, spt_isa::MemSize::B8); // 0x2004..0x200c: partial
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            // Pre-existing bytes above the store.
            m.mem_mut().store().write(0x2008, 0xaabb_ccdd, 4);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R3), 0xaabb_ccdd_1111_2222, "{cfg}");
        }
    }

    #[test]
    fn forwarding_extracts_subrange_of_wider_store() {
        // A narrow load fully covered by a wider store forwards the right
        // byte slice.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x3000);
        a.mov_imm(Reg::R2, 0x8877_6655_4433_2211u64 as i64);
        a.st(Reg::R2, Reg::R1, 0);
        a.load(Reg::R3, Reg::R1, 2, spt_isa::MemSize::B2); // bytes 2..4
        a.load(Reg::R4, Reg::R1, 5, spt_isa::MemSize::B1); // byte 5
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R3), 0x4433, "{cfg}");
            assert_eq!(m.reg(Reg::R4), 0x66, "{cfg}");
        }
    }

    #[test]
    fn indexed_addressing_through_the_pipeline() {
        // base + index*scale + offset, with the index loaded from memory.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x4000); // index array
        a.mov_imm(Reg::R2, 0x5000); // data array
        a.ld(Reg::R3, Reg::R1, 0); // index = 6
        a.load_idx(Reg::R4, Reg::R2, Reg::R3, 3, 8, spt_isa::MemSize::B8); // data[6+1]
        a.store_idx(Reg::R4, Reg::R2, Reg::R3, 3, -8, spt_isa::MemSize::B8); // data[6-1] = it
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in all_configs() {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.mem_mut().store().write(0x4000, 6, 8);
            m.mem_mut().store().write(0x5000 + 7 * 8, 777, 8);
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R4), 777, "{cfg}");
            assert_eq!(m.mem().store_ref().read(0x5000 + 5 * 8, 8), 777, "{cfg}");
        }
    }

    #[test]
    fn wrong_path_fetch_past_program_end_recovers() {
        // A mispredicted indirect jump sends fetch to garbage; the machine
        // must stall fetch and recover on resolution.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x9000);
        a.ld(Reg::R2, Reg::R1, 0); // loads a huge bogus target slowly
        a.jr(Reg::R2); // untrained BTB predicts fall-through
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            p,
            CoreConfig::default(),
            Config::unsafe_baseline(ThreatModel::Futuristic),
        );
        // The actual target is the halt instruction (pc 3).
        m.mem_mut().store().write(0x9000, 3, 8);
        let out = m.run(RunLimits::default()).unwrap();
        assert_eq!(out.reason, StopReason::Halted);
    }
}

#[cfg(test)]
mod sdo_tests {
    use super::*;
    use spt_core::ThreatModel;
    use spt_isa::asm::Assembler;

    fn gather_program() -> Program {
        // Gather loop: each gather's address comes from a loaded index, the
        // pattern the delay policy pays for most.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x1000); // index array
        a.mov_imm(Reg::R2, 0x8000); // data array
        a.mov_imm(Reg::R3, 0); // k
        a.mov_imm(Reg::R4, 64); // count
        a.mov_imm(Reg::R6, 0); // acc
        a.label("loop");
        a.ldx8(Reg::R5, Reg::R1, Reg::R3);
        a.ldx8(Reg::R5, Reg::R2, Reg::R5);
        a.add(Reg::R6, Reg::R6, Reg::R5);
        a.addi(Reg::R3, Reg::R3, 1);
        a.blt(Reg::R3, Reg::R4, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    fn init_machine(cfg: Config) -> Machine {
        let mut m = Machine::new(gather_program(), CoreConfig::default(), cfg);
        for k in 0..64u64 {
            m.mem_mut().store().write(0x1000 + 8 * k, (k * 7) % 64, 8);
            m.mem_mut().store().write(0x8000 + 8 * ((k * 7) % 64), k + 1, 8);
        }
        m
    }

    #[test]
    fn oblivious_policy_is_architecturally_identical() {
        let mut delay = init_machine(Config::spt_full(ThreatModel::Futuristic));
        delay.run(RunLimits::default()).unwrap();
        let mut sdo = init_machine(Config::spt_sdo(ThreatModel::Futuristic));
        sdo.run(RunLimits::default()).unwrap();
        assert_eq!(delay.reg(Reg::R6), sdo.reg(Reg::R6));
        assert!(delay.reg(Reg::R6) > 0);
    }

    #[test]
    fn oblivious_loads_leave_no_cache_footprint() {
        // Under SDO, the gathers into the data array execute obliviously on
        // their first encounter (tainted index), leaving the data lines
        // uncached — while the delay policy eventually performs real,
        // cache-filling accesses.
        let mut sdo = init_machine(Config::spt_sdo(ThreatModel::Futuristic));
        sdo.run(RunLimits::cycles(300)).unwrap();
        // Early in the run, before any index is declassified at the VP, no
        // data-array line may be cached.
        let touched = (0..8u64).filter(|k| sdo.probe(0x8000 + 64 * k) != Level::Dram).count();
        assert_eq!(touched, 0, "oblivious execution must not fill data lines early");
    }

    #[test]
    fn sdo_config_name_and_policy() {
        let c = Config::spt_sdo(ThreatModel::Spectre);
        assert_eq!(c.name(), "SPT{Bwd,ShadowL1}+SDO");
        assert_eq!(c.policy, spt_core::Policy::Oblivious);
    }
}

#[cfg(test)]
mod vp_tests {
    use super::*;
    use spt_core::ThreatModel;
    use spt_isa::asm::Assembler;

    /// A slow load followed by independent ALU work and a dependent
    /// transmitter: under Futuristic the transmitter's VP waits for the slow
    /// load; under Spectre it only waits for branch resolution.
    fn vp_program() -> Program {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x20000); // cold address
        a.mov_imm(Reg::R2, 0x1000); // warm-ish address
        a.ld(Reg::R3, Reg::R1, 0); // slow independent load
        a.ld(Reg::R4, Reg::R2, 0); // load whose output feeds an address
        a.ldx8(Reg::R5, Reg::R2, Reg::R4); // transmitter with tainted index
        a.halt();
        a.assemble().unwrap()
    }

    fn cycles(threat: ThreatModel) -> u64 {
        let mut m =
            Machine::new(vp_program(), CoreConfig::default(), Config::secure_baseline(threat));
        m.run(RunLimits::default()).unwrap().cycles
    }

    #[test]
    fn futuristic_vp_waits_for_all_older_instructions() {
        // SecureBaseline releases transmitters at the VP: the dependent
        // gather must wait for the slow load's completion only under the
        // Futuristic model, making it measurably slower than Spectre.
        let fut = cycles(ThreatModel::Futuristic);
        let spe = cycles(ThreatModel::Spectre);
        assert!(
            fut > spe + 50,
            "Futuristic ({fut}) must serialize behind the cold load vs Spectre ({spe})"
        );
    }

    #[test]
    fn unresolved_branch_blocks_spectre_vp() {
        // A branch whose predicate depends on a slow load blocks the VP of
        // younger transmitters under both models.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x30000);
        a.ld(Reg::R2, Reg::R1, 0); // slow load (reads 0)
        a.beq(Reg::R2, Reg::R0, "next"); // resolution waits on the load
        a.label("next");
        a.mov_imm(Reg::R3, 0x1000);
        a.ld(Reg::R4, Reg::R3, 0); // transmitter behind the branch
        a.halt();
        let p = a.assemble().unwrap();

        let run = |cfg: Config| {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap().cycles
        };
        let unprotected = run(Config::unsafe_baseline(ThreatModel::Spectre));
        let secure = run(Config::secure_baseline(ThreatModel::Spectre));
        assert!(
            secure > unprotected + 50,
            "the delayed transmitter must wait for branch resolution: {secure} vs {unprotected}"
        );
    }

    #[test]
    fn icache_misses_are_counted_but_small_loops_hit() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0);
        a.mov_imm(Reg::R2, 2000);
        a.label("spin");
        a.addi(Reg::R1, Reg::R1, 1);
        a.blt(Reg::R1, Reg::R2, "spin");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m =
            Machine::new(p, CoreConfig::default(), Config::unsafe_baseline(ThreatModel::Spectre));
        let out = m.run(RunLimits::default()).unwrap();
        // The loop spans one or two I-lines: a couple of cold misses, then
        // pure hits — fetch must not bottleneck the loop.
        assert!(out.cycles < 4000, "loop must run near 2 IPC, got {} cycles", out.cycles);
    }
}

#[cfg(test)]
mod structural_tests {
    use super::*;
    use spt_core::ThreatModel;
    use spt_isa::asm::Assembler;

    /// Saturate the store queue: a burst of stores larger than the SQ must
    /// stall rename, drain in order, and still produce correct memory.
    #[test]
    fn store_queue_saturation() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x2000);
        for k in 0..48 {
            a.mov_imm(Reg::R2, 100 + k);
            a.st(Reg::R2, Reg::R1, 8 * k);
        }
        a.halt();
        let p = a.assemble().unwrap();
        for cfg in [
            Config::unsafe_baseline(ThreatModel::Futuristic),
            Config::spt_full(ThreatModel::Futuristic),
        ] {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            m.run(RunLimits::default()).unwrap();
            for k in 0..48u64 {
                assert_eq!(m.mem().store_ref().read(0x2000 + 8 * k, 8), 100 + k, "{cfg}");
            }
        }
    }

    /// Saturate the load queue with independent cache misses.
    #[test]
    fn load_queue_saturation() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x10000);
        a.mov_imm(Reg::R2, 0);
        for k in 0..40 {
            a.ld(Reg::R3, Reg::R1, 4096 * k); // distinct pages: misses + TLB walks
            a.add(Reg::R2, Reg::R2, Reg::R3);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            p,
            CoreConfig::default(),
            Config::unsafe_baseline(ThreatModel::Futuristic),
        );
        for k in 0..40u64 {
            m.mem_mut().store().write(0x10000 + 4096 * k, k + 1, 8);
        }
        m.run(RunLimits::default()).unwrap();
        assert_eq!(m.reg(Reg::R2), (1..=40).sum::<u64>());
    }

    /// Deep nested mispredictions: alternating data-dependent branches that
    /// the predictor cannot learn, squashing into each other.
    #[test]
    fn nested_misprediction_recovery() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x3000);
        a.mov_imm(Reg::R2, 0); // i
        a.mov_imm(Reg::R3, 32);
        a.mov_imm(Reg::R4, 0); // acc
        a.label("loop");
        a.ldx8(Reg::R5, Reg::R1, Reg::R2);
        a.beq(Reg::R5, Reg::R0, "a0");
        a.addi(Reg::R4, Reg::R4, 1);
        a.andi(Reg::R6, Reg::R5, 2);
        a.beq(Reg::R6, Reg::R0, "a1");
        a.addi(Reg::R4, Reg::R4, 10);
        a.label("a1");
        a.label("a0");
        a.addi(Reg::R2, Reg::R2, 1);
        a.blt(Reg::R2, Reg::R3, "loop");
        a.halt();
        let p = a.assemble().unwrap();

        // Pseudo-random cell values 0..4.
        let vals: Vec<u64> = (0..32u64)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcdef;
                x ^= x >> 29;
                x % 4
            })
            .collect();
        let expected: u64 = vals
            .iter()
            .map(|&v| {
                if v == 0 {
                    0
                } else if v & 2 == 0 {
                    1
                } else {
                    11
                }
            })
            .sum();

        for cfg in [
            Config::unsafe_baseline(ThreatModel::Spectre),
            Config::spt_full(ThreatModel::Spectre),
            Config::spt_full(ThreatModel::Futuristic),
            Config::stt(ThreatModel::Futuristic),
        ] {
            let mut m = Machine::new(p.clone(), CoreConfig::default(), cfg);
            for (i, &v) in vals.iter().enumerate() {
                m.mem_mut().store().write(0x3000 + 8 * i as u64, v, 8);
            }
            m.run(RunLimits::default()).unwrap();
            assert_eq!(m.reg(Reg::R4), expected, "{cfg}");
        }
    }

    /// The retired-load table (§6.8 rule-② tracking) must stay capacity-
    /// bounded and evict its oldest live entry when full, with execution
    /// still architecturally exact.
    ///
    /// Loads of secret data whose values are never consumed by a
    /// transmitter retire tainted and are never declassified, so their
    /// table entries persist until the destination register is recycled
    /// through rename. The enlarged core lets every load rename before
    /// most of them retire; after the last rename no allocation ever
    /// recycles a register, so the entries accumulate past the 128-entry
    /// capacity and the eviction path must run.
    #[test]
    fn retired_load_table_hits_capacity_and_stays_bounded() {
        const LOADS: u64 = 300;
        let mut a = Assembler::new();
        a.mov_imm(Reg::R29, 0x6000);
        for i in 0..LOADS {
            // One cache line per load: every access misses, so retirement
            // falls far behind fetch and the post-rename window holds well
            // over 128 tainted loads.
            a.ld(Reg::R1, Reg::R29, (64 * i) as i64);
        }
        a.halt();
        let p = a.assemble().unwrap();

        let core = CoreConfig {
            rob_size: 384,
            rs_size: 384,
            lq_size: 384,
            num_phys: 512,
            ..CoreConfig::default()
        };
        let mut m = Machine::new(p, core, Config::spt_full(ThreatModel::Futuristic));
        for i in 0..LOADS {
            m.mem_mut().store().write(0x6000 + 64 * i, i * 7 + 3, 8);
        }

        let mut max_live = 0;
        let mut cycles = 0u64;
        while !m.halted() {
            m.step_cycle();
            let live = m.retired_loads_live();
            assert!(live <= 128, "table exceeded its capacity: {live}");
            max_live = max_live.max(live);
            cycles += 1;
            assert!(cycles < 100_000, "watchdog");
        }
        assert_eq!(max_live, 128, "the workload must fill the table and force eviction");
        assert_eq!(m.reg(Reg::R1), (LOADS - 1) * 7 + 3);
    }

    /// Register-file pressure: a long dependence chain that renames every
    /// architectural register repeatedly.
    #[test]
    fn physical_register_recycling() {
        let mut a = Assembler::new();
        for r in 1..30u8 {
            a.mov_imm(Reg::from_index(r as usize), r as i64);
        }
        a.mov_imm(Reg::R30, 0);
        a.mov_imm(Reg::R31, 50);
        a.label("loop");
        for r in 1..30u8 {
            let reg = Reg::from_index(r as usize);
            a.addi(reg, reg, 1);
        }
        a.addi(Reg::R30, Reg::R30, 1);
        a.blt(Reg::R30, Reg::R31, "loop");
        a.halt();
        let p = a.assemble().unwrap();
        let mut m =
            Machine::new(p, CoreConfig::default(), Config::spt_full(ThreatModel::Futuristic));
        m.run(RunLimits::default()).unwrap();
        for r in 1..30u64 {
            assert_eq!(m.reg(Reg::from_index(r as usize)), r + 50);
        }
    }
}
