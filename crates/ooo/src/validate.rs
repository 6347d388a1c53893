//! An executable version of the paper's security proof (§8).
//!
//! Theorem 1 (the contrapositive of Definition 1) says: *if data gets
//! untainted in SPT's speculative execution, then it is not secret in the
//! non-speculative execution* — i.e. its value is `f(O)` for a function
//! `f` known to the attacker and operands `O` of transmitters that reached
//! the visibility point.
//!
//! [`SecurityValidator`] checks this dynamically. It plays the §8 model
//! attacker: it sees the dynamic instruction stream (Property 1: the ROB
//! contents are public), the operands of transmitters/branches that reach
//! the VP (the declassification axiom), and nothing else. Every time the
//! SPT machinery untaints a register or memory range, the validator must
//! *independently re-derive the value* from its own knowledge:
//!
//! * `LoadImm` — the value is program text (an immediate or `pc + 1`);
//! * `DeclassifyTransmit` / `DeclassifyBranch` — axiom: the operand leaks
//!   in the non-speculative execution (the VP construction guarantees the
//!   instruction retires — see the Spectre-model data-speculation
//!   augmentation in [`crate::machine`]);
//! * `Forward` — recompute `f(srcs)` from known source values and compare;
//! * `Backward` — invert a consuming instruction from its known output and
//!   remaining inputs and compare;
//! * `StlForward` / `StlBackward` — equate the forwarding pair's values;
//! * `ShadowL1` / `ShadowMem` — assemble the value from known memory bytes;
//! * memory ranges cleared by the §6.8 rules — require the proving
//!   register/bytes to be known.
//!
//! Knowledge is keyed by *dynamic value* — the sequence number of the
//! producing instruction — because physical registers are recycled while
//! the attacker's memory of leaked values is permanent.
//!
//! Any failure is recorded as a violation: it would mean SPT revealed a
//! value the attacker could not already infer — exactly what Theorem 1
//! forbids. The integration tests run every workload and both attacks
//! under every SPT configuration with the validator enabled and assert
//! zero violations.

use spt_core::{PhysReg, Seq, UntaintKind};
use spt_isa::{AluOp, Inst};
use std::collections::{BTreeMap, HashMap};

/// Partially-known value: `mask` bit `i` set means byte `i` is known.
#[derive(Clone, Copy, Debug, Default)]
struct Known {
    value: u64,
    mask: u8,
}

impl Known {
    const FULL: u8 = 0xff;

    fn full(value: u64) -> Known {
        Known { value, mask: Known::FULL }
    }

    fn is_full(&self) -> bool {
        self.mask == Known::FULL
    }

    fn byte(&self, i: u64) -> Option<u8> {
        if (self.mask >> i) & 1 == 1 {
            Some((self.value >> (8 * i)) as u8)
        } else {
            None
        }
    }
}

/// A source operand reference: the physical register and the dynamic value
/// identity (producing instruction) it held at rename.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ValRef {
    phys: PhysReg,
    /// Producing instruction, or `None` for initial architectural state
    /// (which is tainted program data — unknown to the attacker).
    producer: Option<Seq>,
}

#[derive(Clone, Debug)]
struct Recorded {
    pc: u64,
    inst: Inst,
    srcs: [Option<ValRef>; 3],
    dest: Option<PhysReg>,
    /// The value the destination register held before this rename, so a
    /// squash can roll the mapping back.
    prev_producer: Option<Seq>,
    /// Effective address, once issued (loads/stores).
    addr: Option<u64>,
    retired: bool,
}

#[derive(Clone, Debug)]
enum Check {
    /// A register broadcast as untainted must be justifiable. `producer`
    /// is the dynamic value the register held at broadcast time.
    Broadcast { producer: Seq, kind: UntaintKind, phys: PhysReg },
    /// A destination that was public at rename must be computable.
    RenameClear { seq: Seq },
    /// A memory range whose taint was cleared must be derivable from the
    /// proving value.
    MemInferable { addr: u64, bytes: u64, producer: Seq },
    /// Bytes a store drained with a public taint must carry known data.
    StoreDrain { store_seq: Seq, addr: u64, data_idx: usize, public_mask: u8 },
}

/// The §8 model attacker (see module docs).
#[derive(Clone, Debug, Default)]
pub struct SecurityValidator {
    /// Attacker-derived values, keyed by producing instruction.
    known: HashMap<Seq, Known>,
    known_mem: HashMap<u64, u8>,
    insts: BTreeMap<Seq, Recorded>,
    /// Current dynamic value held by each physical register.
    producer_of: HashMap<PhysReg, Seq>,
    stl_pairs: Vec<(Seq, Seq, usize)>, // (load, store, data operand index)
    pending: Vec<Check>,
    violations: Vec<String>,
    checks_passed: u64,
    /// Diagnostic log of accepted broadcast checks.
    pub accepted_log: Vec<(Seq, UntaintKind)>,
}

impl SecurityValidator {
    /// Creates an attacker with no knowledge (all data secret).
    pub fn new() -> SecurityValidator {
        SecurityValidator::default()
    }

    /// Violations found so far (empty = Theorem 1 held).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of untaint decisions successfully justified.
    pub fn checks_passed(&self) -> u64 {
        self.checks_passed
    }

    fn violate(&mut self, msg: String) {
        if self.violations.len() < 32 {
            self.violations.push(msg);
        }
    }

    fn val_ref(&self, phys: PhysReg) -> ValRef {
        ValRef { phys, producer: self.producer_of.get(&phys).copied() }
    }

    /// Known value of a source reference: the zero register is the public
    /// constant 0; otherwise look up the dynamic value.
    fn lookup(&self, r: ValRef) -> Option<Known> {
        if r.phys == 0 {
            return Some(Known::full(0));
        }
        self.known.get(&r.producer?).copied()
    }

    fn lookup_full(&self, r: ValRef) -> Option<u64> {
        self.lookup(r).filter(|k| k.is_full()).map(|k| k.value)
    }

    /// Records a renamed instruction (the attacker sees the ROB contents).
    pub fn on_rename(
        &mut self,
        seq: Seq,
        pc: u64,
        inst: Inst,
        srcs: [Option<PhysReg>; 3],
        dest: Option<PhysReg>,
        dest_clear: bool,
    ) {
        let src_refs = srcs.map(|s| s.map(|p| self.val_ref(p)));
        let mut prev_producer = None;
        if let Some(d) = dest {
            prev_producer = self.producer_of.insert(d, seq);
            // Zero-extension knowledge: a k-byte load's upper bytes are
            // architecturally zero — program semantics, hence public.
            if let Inst::Load { size, .. } = inst {
                let mut mask = 0u8;
                for b in size.bytes()..8 {
                    mask |= 1 << b;
                }
                if mask != 0 {
                    self.known.insert(seq, Known { value: 0, mask });
                }
            }
        }
        self.insts.insert(
            seq,
            Recorded { pc, inst, srcs: src_refs, dest, prev_producer, addr: None, retired: false },
        );
        if dest_clear {
            self.pending.push(Check::RenameClear { seq });
        }
        // Bound the window by pruning old retired instructions (the
        // attacker forgets nothing in principle; the checker only needs
        // the active window).
        while self.insts.len() > 8192 {
            let (&oldest, rec) = self.insts.iter().next().expect("non-empty");
            if !rec.retired {
                break;
            }
            self.insts.remove(&oldest);
            self.known.remove(&oldest);
        }
    }

    /// Records a load/store effective address (public once the access is
    /// allowed to execute).
    pub fn on_mem_addr(&mut self, seq: Seq, addr: u64) {
        if let Some(r) = self.insts.get_mut(&seq) {
            r.addr = Some(addr);
        }
    }

    /// Records a broadcast untaint to be justified once the value is
    /// architecturally available.
    pub fn on_broadcast(&mut self, phys: PhysReg, kind: UntaintKind) {
        match self.producer_of.get(&phys).copied() {
            Some(producer) => self.pending.push(Check::Broadcast { producer, kind, phys }),
            None => {
                if phys != 0 {
                    self.violate(format!("broadcast p{phys} ({kind}) with no recorded producer"));
                }
            }
        }
    }

    /// Records an established `STLPublic` forwarding pair. Returns whether
    /// the pair was new.
    pub fn on_stl_pair(&mut self, load_seq: Seq, store_seq: Seq, data_idx: usize) -> bool {
        if self.stl_pairs.iter().any(|&(l, s, _)| l == load_seq && s == store_seq) {
            return false;
        }
        self.stl_pairs.push((load_seq, store_seq, data_idx));
        if self.stl_pairs.len() > 256 {
            self.stl_pairs.remove(0);
        }
        true
    }

    /// The machine cleared the taint of memory range `[addr, addr+bytes)`
    /// because register `phys` (holding those bytes) is public. Checked at
    /// drain time, after the broadcast that justifies the value resolves.
    pub fn on_mem_inferable(&mut self, addr: u64, bytes: u64, phys: PhysReg) {
        match self.producer_of.get(&phys).copied() {
            Some(producer) => self.pending.push(Check::MemInferable { addr, bytes, producer }),
            None => self.violate(format!(
                "mem range {addr:#x}+{bytes} cleared by p{phys} with no producer"
            )),
        }
    }

    /// A store drained to memory: bytes written with a public taint
    /// (`public_mask` bit per byte) must carry attacker-known data; tainted
    /// bytes erase memory knowledge immediately.
    pub fn on_store_drain(
        &mut self,
        store_seq: Seq,
        addr: u64,
        bytes: u64,
        data_idx: usize,
        public_mask: u8,
    ) {
        for i in 0..bytes.min(8) {
            if (public_mask >> i) & 1 == 0 {
                self.known_mem.remove(&(addr + i));
            }
        }
        if public_mask != 0 {
            self.pending.push(Check::StoreDrain { store_seq, addr, data_idx, public_mask });
        }
    }

    /// Marks an instruction retired (it stays usable as justification).
    pub fn on_retire(&mut self, seq: Seq) {
        if let Some(r) = self.insts.get_mut(&seq) {
            r.retired = true;
        }
    }

    /// Drops squashed instructions: their dataflow never happened and must
    /// not justify anything.
    pub fn on_squash(&mut self, from: Seq) {
        let removed = self.insts.split_off(&from);
        self.known.retain(|&s, _| s < from);
        // Roll the register mappings back, youngest squashed rename first,
        // mirroring the machine's RAT rollback.
        for (&seq, rec) in removed.iter().rev() {
            if let Some(d) = rec.dest {
                if self.producer_of.get(&d) == Some(&seq) {
                    match rec.prev_producer {
                        Some(prev) => {
                            self.producer_of.insert(d, prev);
                        }
                        None => {
                            self.producer_of.remove(&d);
                        }
                    }
                }
            }
        }
        self.stl_pairs.retain(|&(l, s, _)| l < from && s < from);
        self.pending.retain(|c| match c {
            Check::Broadcast { producer, .. } => *producer < from,
            Check::RenameClear { seq } => *seq < from,
            Check::MemInferable { producer, .. } => *producer < from,
            Check::StoreDrain { store_seq, .. } => *store_seq < from,
        });
    }

    fn eval_inst(inst: &Inst, pc: u64, src_vals: &[Option<u64>]) -> Option<u64> {
        Some(match *inst {
            Inst::MovImm { imm, .. } => imm as u64,
            Inst::Mov { .. } => src_vals.first().copied().flatten()?,
            Inst::Alu { op, .. } => op.eval(src_vals[0]?, src_vals[1]?),
            Inst::AluImm { op, imm, .. } => op.eval(src_vals[0]?, imm as u64),
            Inst::Call { .. } | Inst::CallInd { .. } => pc + 1,
            _ => return None,
        })
    }

    /// Inverse of an invertible consumer: recover the unknown source from
    /// the known output and remaining inputs.
    fn invert_inst(
        inst: &Inst,
        dest_val: u64,
        src_vals: &[Option<u64>],
        unknown_idx: usize,
    ) -> Option<u64> {
        match *inst {
            Inst::Mov { .. } => Some(dest_val),
            Inst::AluImm { op: AluOp::Add, imm, .. } => Some(dest_val.wrapping_sub(imm as u64)),
            Inst::AluImm { op: AluOp::Sub, imm, .. } => Some(dest_val.wrapping_add(imm as u64)),
            Inst::AluImm { op: AluOp::Xor, imm, .. } => Some(dest_val ^ imm as u64),
            Inst::Alu { op: AluOp::Add, .. } => {
                Some(dest_val.wrapping_sub(src_vals[1 - unknown_idx]?))
            }
            Inst::Alu { op: AluOp::Sub, .. } => {
                if unknown_idx == 0 {
                    Some(dest_val.wrapping_add(src_vals[1]?))
                } else {
                    Some(src_vals[0]?.wrapping_sub(dest_val))
                }
            }
            Inst::Alu { op: AluOp::Xor, .. } => Some(dest_val ^ src_vals[1 - unknown_idx]?),
            _ => None,
        }
    }

    fn src_vals(&self, rec: &Recorded) -> Vec<Option<u64>> {
        rec.srcs.iter().map(|s| s.and_then(|r| self.lookup_full(r))).collect()
    }

    /// Whether `producer`'s register still holds that dynamic value (so it
    /// can be observed through the PRF). Values overwritten by newer
    /// renames can only be justified structurally.
    fn observable(&self, producer: Seq, dest: PhysReg) -> bool {
        self.producer_of.get(&dest) == Some(&producer)
    }

    /// Attempts one pending check. `Ok(Some(..))` = justified (knowledge to
    /// record), `Ok(None)` = not resolvable yet, `Err` = violation.
    fn try_check(
        &self,
        check: &Check,
        value_of: &impl Fn(PhysReg) -> Option<u64>,
    ) -> Result<Option<(Seq, Known)>, String> {
        match *check {
            Check::MemInferable { addr, bytes, producer } => {
                let Some(k) = self.known.get(&producer).copied() else {
                    return Err(format!(
                        "mem range {addr:#x}+{bytes}: proving value (seq {producer}) unknown"
                    ));
                };
                for i in 0..bytes.min(8) {
                    if k.byte(i).is_none() {
                        return Err(format!(
                            "mem range {addr:#x}+{bytes}: byte {i} of seq {producer} unknown"
                        ));
                    }
                }
                Ok(Some((producer, k)))
            }
            Check::StoreDrain { store_seq, addr, data_idx, public_mask } => {
                let Some(rec) = self.insts.get(&store_seq) else {
                    // Store pruned from the window: cannot re-check.
                    return Ok(Some((store_seq, Known::default())));
                };
                let Some(data_ref) = rec.srcs.get(data_idx).copied().flatten() else {
                    return Err(format!("store @{addr:#x}: missing data operand"));
                };
                let Some(k) = self.lookup(data_ref) else {
                    return Err(format!(
                        "store @{addr:#x}: bytes public but data {data_ref:?} unknown"
                    ));
                };
                for i in 0..8u64 {
                    if (public_mask >> i) & 1 == 1 && k.byte(i).is_none() {
                        return Err(format!(
                            "store @{addr:#x}: byte {i} public but unknown in {data_ref:?}"
                        ));
                    }
                }
                Ok(Some((store_seq, k)))
            }
            Check::RenameClear { seq } => {
                let Some(rec) = self.insts.get(&seq) else { return Ok(None) };
                let Some(dest) = rec.dest else { return Ok(None) };
                let src_vals = self.src_vals(rec);
                let computed = Self::eval_inst(&rec.inst, rec.pc, &src_vals);
                if !self.observable(seq, dest) {
                    // Overwritten before observation: structural check only.
                    return match computed {
                        Some(v) => Ok(Some((seq, Known::full(v)))),
                        None => Err(format!(
                            "rename-clear {seq}: cannot compute {} from attacker knowledge",
                            rec.inst
                        )),
                    };
                }
                let Some(actual) = value_of(dest) else { return Ok(None) };
                match computed {
                    Some(v) if v == actual => Ok(Some((seq, Known::full(actual)))),
                    Some(v) => Err(format!(
                        "rename-clear {seq}: computed {v:#x} != actual {actual:#x} for {}",
                        rec.inst
                    )),
                    None => Err(format!(
                        "rename-clear {seq}: cannot compute {} from attacker knowledge",
                        rec.inst
                    )),
                }
            }
            Check::Broadcast { producer, kind, phys } => {
                self.check_broadcast(producer, kind, value_of).map_err(|e| format!("{e} (p{phys})"))
            }
        }
    }

    fn check_broadcast(
        &self,
        producer: Seq,
        kind: UntaintKind,
        value_of: &impl Fn(PhysReg) -> Option<u64>,
    ) -> Result<Option<(Seq, Known)>, String> {
        let Some(rec) = self.insts.get(&producer) else {
            // Producer pruned from the window: accept axiomatic kinds only.
            return match kind {
                UntaintKind::DeclassifyTransmit | UntaintKind::DeclassifyBranch => {
                    Ok(Some((producer, Known::default())))
                }
                _ => Err(format!("{kind} seq {producer}: producer left the window")),
            };
        };
        let Some(dest) = rec.dest else {
            return Err(format!("{kind} seq {producer}: producer has no destination"));
        };
        let observable = self.observable(producer, dest);
        let actual = if observable {
            match value_of(dest) {
                Some(v) => Some(v),
                None => return Ok(None), // value not architecturally ready yet
            }
        } else {
            None
        };
        let accept = |v: u64| -> Result<Option<(Seq, Known)>, String> {
            match actual {
                Some(a) if a != v => {
                    Err(format!("{kind} seq {producer}: derived {v:#x} != actual {a:#x}"))
                }
                _ => Ok(Some((producer, Known::full(v)))),
            }
        };

        match kind {
            UntaintKind::LoadImm => match Self::eval_inst(&rec.inst, rec.pc, &[None, None, None]) {
                Some(v) => accept(v),
                None => Err(format!("load-imm seq {producer}: {} is not a constant", rec.inst)),
            },
            UntaintKind::DeclassifyTransmit | UntaintKind::DeclassifyBranch => {
                // Axiom — but the value must really be a leaking operand of
                // some recorded transmitter/control-flow instruction.
                let justified = self.insts.values().any(|r| {
                    (r.inst.is_transmitter()
                        || r.inst.is_control_flow()
                        || r.inst.is_variable_time())
                        && r.inst.sources().iter().enumerate().any(|(i, (_, role))| {
                            role.leaks_at_vp()
                                && r.srcs[i].is_some_and(|s| s.producer == Some(producer))
                        })
                });
                if justified {
                    Ok(Some((producer, actual.map(Known::full).unwrap_or_default())))
                } else {
                    Err(format!(
                        "declassify seq {producer}: not an operand of any transmitter/branch"
                    ))
                }
            }
            UntaintKind::Forward => {
                let src_vals = self.src_vals(rec);
                match Self::eval_inst(&rec.inst, rec.pc, &src_vals) {
                    Some(v) => accept(v),
                    None => Err(format!(
                        "forward seq {producer}: {} not computable from knowledge",
                        rec.inst
                    )),
                }
            }
            UntaintKind::Backward => {
                for (&cseq, consumer) in &self.insts {
                    let Some(dest_val) =
                        self.known.get(&cseq).filter(|k| k.is_full()).map(|k| k.value)
                    else {
                        continue;
                    };
                    for i in 0..3 {
                        if consumer.srcs[i].is_none_or(|s| s.producer != Some(producer)) {
                            continue;
                        }
                        let src_vals = self.src_vals(consumer);
                        if let Some(v) = Self::invert_inst(&consumer.inst, dest_val, &src_vals, i) {
                            if actual.is_none_or(|a| a == v) {
                                return Ok(Some((producer, Known::full(v))));
                            }
                        }
                    }
                }
                Err(format!("backward seq {producer}: no invertible justification"))
            }
            UntaintKind::StlForward => {
                for &(l, s, data_idx) in &self.stl_pairs {
                    if l != producer {
                        continue;
                    }
                    let (Some(lr), Some(sr)) = (self.insts.get(&l), self.insts.get(&s)) else {
                        continue;
                    };
                    let Some(data) =
                        sr.srcs.get(data_idx).copied().flatten().and_then(|r| self.lookup_full(r))
                    else {
                        continue;
                    };
                    let (Some(la), Some(sa)) = (lr.addr, sr.addr) else { continue };
                    let shifted = data >> (8 * (la - sa));
                    let bytes = match lr.inst {
                        Inst::Load { size, .. } => size.bytes(),
                        _ => 8,
                    };
                    let masked =
                        if bytes == 8 { shifted } else { shifted & ((1u64 << (8 * bytes)) - 1) };
                    if actual.is_none_or(|a| a == masked) {
                        return Ok(Some((producer, Known::full(masked))));
                    }
                }
                Err(format!("stl-forward seq {producer}: no public forwarding pair"))
            }
            UntaintKind::StlBackward => {
                // `producer` here is the *store data* value revealed by the
                // load's output under STLPublic.
                for &(l, s, data_idx) in &self.stl_pairs {
                    let (Some(lr), Some(sr)) = (self.insts.get(&l), self.insts.get(&s)) else {
                        continue;
                    };
                    if sr.srcs.get(data_idx).copied().flatten().map(|r| r.producer)
                        != Some(Some(producer))
                    {
                        continue;
                    }
                    let Some(out) = self.known.get(&l).filter(|k| k.is_full()) else { continue };
                    let (Some(la), Some(sa)) = (lr.addr, sr.addr) else { continue };
                    let lbytes = match lr.inst {
                        Inst::Load { size, .. } => size.bytes(),
                        _ => 8,
                    };
                    let sbytes = match sr.inst {
                        Inst::Store { size, .. } => size.bytes(),
                        _ => 8,
                    };
                    // The load reveals the store data when it reads the
                    // whole stored range from the same base.
                    if la == sa && lbytes >= sbytes {
                        let v = if sbytes == 8 {
                            out.value
                        } else {
                            out.value & ((1u64 << (8 * sbytes)) - 1)
                        };
                        // The store data register may hold more than the
                        // stored bytes; only those bytes are revealed.
                        let mut mask = 0u8;
                        for b in 0..sbytes {
                            mask |= 1 << b;
                        }
                        if actual.is_none_or(|a| sbytes == 8 && a == v || sbytes < 8) {
                            return Ok(Some((producer, Known { value: v, mask })));
                        }
                    }
                }
                Err(format!("stl-backward seq {producer}: no public forwarding pair"))
            }
            UntaintKind::ShadowL1 | UntaintKind::ShadowMem => {
                let Some(addr) = rec.addr else {
                    return Err(format!("shadow seq {producer}: producing load has no address"));
                };
                let bytes = match rec.inst {
                    Inst::Load { size, .. } => size.bytes(),
                    _ => return Err(format!("shadow seq {producer}: producer is not a load")),
                };
                let mut v = 0u64;
                for i in 0..bytes {
                    match self.known_mem.get(&(addr + i)) {
                        Some(&b) => v |= (b as u64) << (8 * i),
                        None => {
                            return Err(format!(
                                "shadow seq {producer}: byte {:#x} not attacker-known",
                                addr + i
                            ))
                        }
                    }
                }
                accept(v)
            }
        }
    }

    /// Resolves pending checks whose values are now available; call once
    /// per cycle with a reader for ready physical registers. Returns
    /// whether any check settled.
    pub fn drain(&mut self, value_of: impl Fn(PhysReg) -> Option<u64>) -> bool {
        let mut settled = false;
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.pending.len() {
                let check = self.pending[i].clone();
                match self.try_check(&check, &value_of) {
                    Ok(Some((seq, knowledge))) => {
                        if let Check::Broadcast { kind, .. } = check {
                            self.accepted_log.push((seq, kind));
                        }
                        match check {
                            Check::MemInferable { addr, bytes, .. } => {
                                for b in 0..bytes.min(8) {
                                    if let Some(byte) = knowledge.byte(b) {
                                        self.known_mem.insert(addr + b, byte);
                                    }
                                }
                            }
                            Check::StoreDrain { addr, public_mask, .. } => {
                                for b in 0..8u64 {
                                    if (public_mask >> b) & 1 == 1 {
                                        if let Some(byte) = knowledge.byte(b) {
                                            self.known_mem.insert(addr + b, byte);
                                        }
                                    }
                                }
                            }
                            _ => {
                                if knowledge.mask != 0 {
                                    self.known.insert(seq, knowledge);
                                }
                            }
                        }
                        self.checks_passed += 1;
                        self.pending.swap_remove(i);
                        progressed = true;
                    }
                    Ok(None) => i += 1,
                    Err(_) => i += 1, // maybe resolvable later; final pass reports
                }
            }
            if !progressed {
                break;
            }
            settled = true;
        }
        settled
    }

    /// Diagnostic: explains the knowledge status of a recorded instruction
    /// and its source ancestry (used when debugging violations).
    pub fn explain(&self, seq: Seq, depth: usize) -> String {
        let mut out = String::new();
        let indent = "  ".repeat(depth);
        let Some(rec) = self.insts.get(&seq) else {
            return format!("{indent}seq {seq}: <not recorded>\n");
        };
        let k = self.known.get(&seq);
        out.push_str(&format!("{indent}seq {seq}: {} @pc{} known={:?}\n", rec.inst, rec.pc, k));
        if depth < 6 {
            for s in rec.srcs.iter().flatten() {
                match s.producer {
                    Some(p) => out.push_str(&self.explain(p, depth + 1)),
                    None => out.push_str(&format!(
                        "{}p{}: <initial architectural state>\n",
                        "  ".repeat(depth + 1),
                        s.phys
                    )),
                }
            }
        }
        out
    }

    /// Final sweep at end of run: anything still unjustifiable whose value
    /// exists is a violation.
    pub fn finish(&mut self, value_of: impl Fn(PhysReg) -> Option<u64>) {
        self.drain(&value_of);
        let pending = std::mem::take(&mut self.pending);
        for check in pending {
            match self.try_check(&check, &value_of) {
                Ok(Some(_)) | Ok(None) => {}
                Err(msg) => self.violate(msg),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_isa::{AluOp, MemSize, Reg};

    fn load(rd: Reg, base: Reg) -> Inst {
        Inst::Load { rd, base, index: Reg::R0, scale: 0, offset: 0, size: MemSize::B8 }
    }

    fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::Alu { op: AluOp::Add, rd, rs1, rs2 }
    }

    /// Forward justification: the attacker recomputes `f(srcs)` and accepts
    /// only a matching value.
    #[test]
    fn forward_justification_checks_the_value() {
        let mut v = SecurityValidator::new();
        // seq 1: movi p5, 10 (public at rename).
        v.on_rename(1, 0, Inst::MovImm { rd: Reg::R5, imm: 10 }, [None, None, None], Some(5), true);
        // seq 2: movi p6, 32.
        v.on_rename(2, 1, Inst::MovImm { rd: Reg::R6, imm: 32 }, [None, None, None], Some(6), true);
        // seq 3: p7 = p5 + p6 — forward-broadcast as public.
        v.on_rename(3, 2, add(Reg::R7, Reg::R5, Reg::R6), [Some(5), Some(6), None], Some(7), false);
        v.on_broadcast(7, UntaintKind::Forward);
        v.finish(|p| match p {
            5 => Some(10),
            6 => Some(32),
            7 => Some(42),
            _ => None,
        });
        assert!(v.violations().is_empty(), "{:?}", v.violations());
        assert!(v.checks_passed() >= 3);
    }

    /// A forward broadcast with a wrong value (planted corruption) is
    /// flagged.
    #[test]
    fn forward_justification_rejects_wrong_values() {
        let mut v = SecurityValidator::new();
        v.on_rename(1, 0, Inst::MovImm { rd: Reg::R5, imm: 10 }, [None, None, None], Some(5), true);
        v.on_rename(2, 1, Inst::MovImm { rd: Reg::R6, imm: 32 }, [None, None, None], Some(6), true);
        v.on_rename(3, 2, add(Reg::R7, Reg::R5, Reg::R6), [Some(5), Some(6), None], Some(7), false);
        v.on_broadcast(7, UntaintKind::Forward);
        v.finish(|p| match p {
            5 => Some(10),
            6 => Some(32),
            7 => Some(99), // corrupted: 10 + 32 != 99
            _ => None,
        });
        assert!(!v.violations().is_empty());
    }

    /// Backward justification: the unknown addend is recovered by
    /// inverting a consumer whose output and other input are known.
    #[test]
    fn backward_justification_inverts_the_consumer() {
        let mut v = SecurityValidator::new();
        // p5 = secret (load, no knowledge).
        v.on_rename(1, 0, load(Reg::R5, Reg::R1), [Some(1), None, None], Some(5), false);
        v.on_mem_addr(1, 0x100);
        // p6 = movi 7 (public).
        v.on_rename(2, 1, Inst::MovImm { rd: Reg::R6, imm: 7 }, [None, None, None], Some(6), true);
        // p7 = p5 + p6; p7 later used as a load address and declassified.
        v.on_rename(3, 2, add(Reg::R7, Reg::R5, Reg::R6), [Some(5), Some(6), None], Some(7), false);
        v.on_rename(4, 3, load(Reg::R8, Reg::R7), [Some(7), None, None], Some(8), false);
        v.on_mem_addr(4, 107);
        v.on_broadcast(7, UntaintKind::DeclassifyTransmit); // addr operand at VP
        v.on_broadcast(5, UntaintKind::Backward); // p5 = p7 - p6 = 100
        v.finish(|p| match p {
            5 => Some(100),
            6 => Some(7),
            7 => Some(107),
            _ => None,
        });
        assert!(v.violations().is_empty(), "{:?}", v.violations());
    }

    /// A declassification of a value that never fed any transmitter or
    /// branch is unjustifiable.
    #[test]
    fn unfounded_declassification_is_flagged() {
        let mut v = SecurityValidator::new();
        v.on_rename(1, 0, load(Reg::R5, Reg::R1), [Some(1), None, None], Some(5), false);
        // p5 never appears as a leak-role operand anywhere.
        v.on_broadcast(5, UntaintKind::DeclassifyTransmit);
        v.finish(|_| Some(0));
        assert!(!v.violations().is_empty());
    }

    /// Squash rolls back register mappings so later broadcasts attribute to
    /// the surviving producer.
    #[test]
    fn squash_rolls_back_value_identity() {
        let mut v = SecurityValidator::new();
        // seq 1 writes p5 (movi 10).
        v.on_rename(1, 0, Inst::MovImm { rd: Reg::R5, imm: 10 }, [None, None, None], Some(5), true);
        // Wrong path: seq 2 overwrites p5's identity.
        v.on_rename(2, 1, load(Reg::R5, Reg::R1), [Some(1), None, None], Some(5), false);
        v.on_squash(2);
        // A transmitter uses p5; at broadcast time the identity must be
        // seq 1 again.
        v.on_rename(3, 2, load(Reg::R9, Reg::R5), [Some(5), None, None], Some(9), false);
        v.on_mem_addr(3, 10);
        v.on_broadcast(5, UntaintKind::DeclassifyTransmit);
        v.finish(|p| match p {
            5 => Some(10),
            _ => None,
        });
        assert!(v.violations().is_empty(), "{:?}", v.violations());
    }

    /// Shadow justification requires the memory bytes to be known.
    #[test]
    fn shadow_requires_known_memory() {
        let mut v = SecurityValidator::new();
        // A store of a known value makes the bytes known.
        v.on_rename(
            1,
            0,
            Inst::MovImm { rd: Reg::R2, imm: 0xab },
            [None, None, None],
            Some(2),
            true,
        );
        v.on_rename(
            2,
            1,
            Inst::Store {
                src: Reg::R2,
                base: Reg::R3,
                index: Reg::R0,
                scale: 0,
                offset: 0,
                size: MemSize::B8,
            },
            [Some(3), Some(2), None],
            None,
            false,
        );
        v.on_store_drain(2, 0x2000, 8, 1, 0xff);
        // A later load of those bytes broadcast as shadow-public.
        v.on_rename(3, 2, load(Reg::R6, Reg::R4), [Some(4), None, None], Some(6), false);
        v.on_mem_addr(3, 0x2000);
        v.on_broadcast(6, UntaintKind::ShadowL1);
        v.finish(|p| match p {
            2 => Some(0xab),
            6 => Some(0xab),
            _ => None,
        });
        assert!(v.violations().is_empty(), "{:?}", v.violations());

        // Without the store, the same broadcast is a violation.
        let mut v = SecurityValidator::new();
        v.on_rename(3, 2, load(Reg::R6, Reg::R4), [Some(4), None, None], Some(6), false);
        v.on_mem_addr(3, 0x2000);
        v.on_broadcast(6, UntaintKind::ShadowL1);
        v.finish(|p| (p == 6).then_some(0xab));
        assert!(!v.violations().is_empty());
    }
}
