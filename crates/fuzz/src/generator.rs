//! Seeded, constrained program generator.
//!
//! Programs are built from templates whose union covers the behaviours the
//! pipeline and the taint engine must agree on: ALU dataflow, masked
//! data-dependent loads, store→load-forwarding pairs, pointer chases,
//! counted loops, data-dependent forward branches, architectural secret
//! reads, and a Spectre-v1 gadget whose *transient* secret-indexed probe
//! load is the relational harness's positive control (it must leak under
//! the unsafe baseline and must not under any protected configuration).
//!
//! Three construction rules make every generated program safe to assert on:
//!
//! 1. **Termination** — back-edges exist only in counted loops with a
//!    dedicated counter register, so every program halts.
//! 2. **Bounded footprint** — every address is `region base + masked or
//!    bounded offset` into one of the disjoint regions below, so the
//!    architectural end-state can be compared byte-for-byte.
//! 3. **Taint discipline** — the generator tracks which scratch registers
//!    hold secret-derived values and never routes them into addresses or
//!    branch predicates, except in the deliberate-leak template, which
//!    sets [`TestProgram::expect_arch_leak`] so the relational harness
//!    classifies the program instead of asserting on it. Inside loops the
//!    tracking is made path-insensitive by confining secret writes to a
//!    register pool chosen at loop entry (a register written with a secret
//!    late in the body is live at the body's *top* on iterations ≥ 2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spt_isa::asm::Assembler;
use spt_isa::interp::SparseMem;
use spt_isa::{AluOp, BranchCond, MemSize, Program, Reg};

/// Public data readable through masked data-dependent indices.
pub const DATA_BASE: u64 = 0x1_0000;
/// Bytes in the data region.
pub const DATA_LEN: u64 = 4096;
/// Offsets below the split are read via masked indices; offsets at or
/// above are reserved for store→load-forwarding pairs (which may store
/// secret-derived values). Disjoint halves guarantee a masked public load
/// can never read back a secret-derived value.
pub const DATA_RW_SPLIT: u64 = 2048;
/// Base of the designated secret region (one cache line).
pub const SECRET_BASE: u64 = 0x2_0000;
/// Secret bytes per program.
pub const SECRET_LEN: u64 = 64;
/// Flush+reload style probe array indexed by `secret_byte << 6`.
pub const PROBE_BASE: u64 = 0x3_0000;
/// Probe bytes (256 cache lines).
pub const PROBE_LEN: u64 = 256 * 64;
/// Pointer-chase ring of 8-byte nodes forming a single cycle.
pub const PTR_BASE: u64 = 0x4_0000;
/// Nodes in the pointer ring.
pub const PTR_NODES: u64 = 64;
/// Write-only sink; secret-derived values may be stored here (fixed,
/// public addresses) and are never loaded back.
pub const SINK_BASE: u64 = 0x5_0000;
/// Sink bytes.
pub const SINK_LEN: u64 = 64;
/// Never-initialized, never-warmed region: reads miss to DRAM, giving the
/// Spectre gadget its long transient window.
pub const COLD_BASE: u64 = 0x8_0000;
/// Cold bytes the gadget may touch.
pub const COLD_LEN: u64 = 1024;

const DATA_PTR: Reg = Reg::R1;
const SECRET_PTR: Reg = Reg::R2;
const PROBE_PTR: Reg = Reg::R3;
const CHASE: Reg = Reg::R4;
const COLD_PTR: Reg = Reg::R5;
const SINK_PTR: Reg = Reg::R6;
const COUNTERS: [Reg; 2] = [Reg::R8, Reg::R9];
const FIRST_SCRATCH: usize = 16;
const NUM_SCRATCH: usize = 16;

/// Secret variant B is variant A with every byte XORed by this. It is odd,
/// so bit 0 of every secret byte flips — the deliberate-leak template
/// branches on that bit to guarantee an architectural trace divergence.
pub const SECRET_FLIP: u8 = 0xa5;

const FIXED_ALU: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Sar,
    AluOp::Mul,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Seq,
    AluOp::Sne,
];

const CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

/// A generated program plus the initial-memory and secret inputs needed to
/// run it, and the generator's own expectations about it.
#[derive(Clone, Debug)]
pub struct TestProgram {
    /// The program text.
    pub program: Program,
    /// Initial public memory as `(address, 8-byte word)` pairs.
    pub mem_words: Vec<(u64, u64)>,
    /// Secret variant A, written at [`SECRET_BASE`].
    pub secret: Vec<u8>,
    /// The program branches architecturally on a secret bit, so the
    /// non-speculative leak traces of the two secret variants must differ.
    pub expect_arch_leak: bool,
    /// The program contains a Spectre-v1 gadget, so the unsafe baseline's
    /// observation digests should diverge across secret variants.
    pub has_gadget: bool,
}

impl TestProgram {
    /// The same inputs and expectations with a different program (used by
    /// the shrinker).
    pub fn with_program(&self, program: Program) -> TestProgram {
        TestProgram { program, ..self.clone() }
    }

    /// The initial memory for secret variant `secret`: the public words
    /// plus `secret` at [`SECRET_BASE`]. An oracle that starts many runs
    /// from it freezes it once ([`SparseMem::freeze`]) and clones that.
    pub fn memory(&self, secret: &[u8]) -> SparseMem {
        let mut mem = SparseMem::new();
        for &(addr, word) in &self.mem_words {
            mem.write(addr, word, 8);
        }
        mem.write_bytes(SECRET_BASE, secret);
        mem
    }

    /// The disjoint regions a generated program confines its memory
    /// accesses to, as `(base, len)`; the differential harness compares
    /// the architectural end-state of exactly these bytes.
    pub fn footprint() -> [(u64, u64); 6] {
        [
            (DATA_BASE, DATA_LEN),
            (SECRET_BASE, SECRET_LEN),
            (PROBE_BASE, PROBE_LEN),
            (PTR_BASE, PTR_NODES * 8),
            (SINK_BASE, SINK_LEN),
            (COLD_BASE, COLD_LEN),
        ]
    }
}

struct Gen {
    a: Assembler,
    rng: SmallRng,
    /// Per-scratch-register "may hold a secret-derived value" flags.
    secret: [bool; NUM_SCRATCH],
    /// While inside a loop: the mask of scratch registers secret writes are
    /// confined to. Pool registers stay flagged secret for the whole loop.
    pool: Option<[bool; NUM_SCRATCH]>,
    labels: u32,
    gadgets: u32,
    arch_leak: bool,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            a: Assembler::new(),
            rng: SmallRng::seed_from_u64(seed),
            secret: [false; NUM_SCRATCH],
            pool: None,
            labels: 0,
            gadgets: 0,
            arch_leak: false,
        }
    }

    fn fresh_label(&mut self) -> String {
        self.labels += 1;
        format!("L{}", self.labels)
    }

    fn scratch(&mut self) -> Reg {
        Reg::from_index(FIRST_SCRATCH + self.rng.gen_range(0..NUM_SCRATCH))
    }

    fn flag(&self, r: Reg) -> bool {
        self.secret[r.index() - FIRST_SCRATCH]
    }

    fn set_flag(&mut self, r: Reg, v: bool) {
        self.secret[r.index() - FIRST_SCRATCH] = v;
    }

    fn in_pool(&self, r: Reg) -> bool {
        self.pool.is_some_and(|m| m[r.index() - FIRST_SCRATCH])
    }

    /// Destination for a value the generator wants to treat as clean. When
    /// a loop pool is active and the pick lands in the pool, the register
    /// keeps its conservative secret flag.
    fn any_dest(&mut self, value_secret: bool, conditional: bool) -> Reg {
        let d = self.scratch();
        let idx = d.index() - FIRST_SCRATCH;
        if self.in_pool(d) {
            // Pool registers stay flagged for the loop's duration.
        } else if conditional {
            self.secret[idx] |= value_secret;
        } else {
            self.secret[idx] = value_secret;
        }
        d
    }

    /// Destination for a secret-derived value: confined to the pool while
    /// one is active.
    fn secret_dest(&mut self) -> Reg {
        if let Some(mask) = self.pool {
            for _ in 0..32 {
                let i = self.rng.gen_range(0..NUM_SCRATCH);
                if mask[i] {
                    let r = Reg::from_index(FIRST_SCRATCH + i);
                    self.set_flag(r, true);
                    return r;
                }
            }
            // Pools always contain at least one register; scan as backstop.
            let i = (0..NUM_SCRATCH).find(|&i| mask[i]).expect("non-empty pool");
            let r = Reg::from_index(FIRST_SCRATCH + i);
            self.set_flag(r, true);
            r
        } else {
            let r = self.scratch();
            self.set_flag(r, true);
            r
        }
    }

    /// A register that is guaranteed secret-free on every dynamic path.
    /// Mints a constant if no scratch register qualifies; falls back to
    /// `r0` in the degenerate all-secret-in-a-loop case.
    fn clean_scratch(&mut self) -> Reg {
        for _ in 0..12 {
            let r = self.scratch();
            if !self.flag(r) {
                return r;
            }
        }
        if let Some(i) = (0..NUM_SCRATCH).find(|&i| !self.secret[i]) {
            return Reg::from_index(FIRST_SCRATCH + i);
        }
        if self.pool.is_none() {
            let r = self.scratch();
            let imm = self.rng.gen_range(1..512);
            self.a.mov_imm(r, imm);
            self.set_flag(r, false);
            return r;
        }
        Reg::ZERO
    }

    fn prologue(&mut self) {
        self.a.mov_imm(DATA_PTR, DATA_BASE as i64);
        self.a.mov_imm(SECRET_PTR, SECRET_BASE as i64);
        self.a.mov_imm(PROBE_PTR, PROBE_BASE as i64);
        self.a.mov_imm(CHASE, PTR_BASE as i64);
        self.a.mov_imm(COLD_PTR, COLD_BASE as i64);
        self.a.mov_imm(SINK_PTR, SINK_BASE as i64);
        for i in 0..NUM_SCRATCH {
            let imm = self.rng.gen_range(0..1024);
            self.a.mov_imm(Reg::from_index(FIRST_SCRATCH + i), imm);
        }
    }

    fn alu_inst(&mut self, conditional: bool) {
        let op = FIXED_ALU[self.rng.gen_range(0..FIXED_ALU.len())];
        let s1 = self.scratch();
        if self.rng.gen_range(0..2) == 0 {
            let s2 = self.scratch();
            let t = self.flag(s1) || self.flag(s2);
            let d = if t { self.secret_dest() } else { self.any_dest(false, conditional) };
            self.a.alu(op, d, s1, s2);
        } else {
            let imm = self.rng.gen_range(-64..64);
            let t = self.flag(s1);
            let d = if t { self.secret_dest() } else { self.any_dest(false, conditional) };
            self.a.alu_imm(op, d, s1, imm);
        }
    }

    /// Data-dependent load at a masked, always-public index.
    fn public_load(&mut self) {
        let s = self.clean_scratch();
        let idx = self.any_dest(false, false);
        let mask = (DATA_RW_SPLIT - 8) as i64 & !7;
        self.a.andi(idx, s, mask);
        let d = self.any_dest(false, false);
        self.a.load_idx(d, DATA_PTR, idx, 0, 0, MemSize::B8);
    }

    /// Architectural secret read (a byte of the secret region).
    fn secret_load(&mut self) {
        let off = self.rng.gen_range(0..SECRET_LEN) as i64;
        let d = self.secret_dest();
        self.a.load(d, SECRET_PTR, off, MemSize::B1);
    }

    /// Store then reload the same address (exercises the store queue and
    /// the STLPublic forwarding rules). Secretness of the reload equals the
    /// secretness of the stored value *at store time*.
    fn store_forward(&mut self) {
        let slots = (DATA_LEN - DATA_RW_SPLIT) / 8;
        let off = (DATA_RW_SPLIT + 8 * self.rng.gen_range(0..slots)) as i64;
        let v = self.scratch();
        let vs = self.flag(v);
        self.a.store(v, DATA_PTR, off, MemSize::B8);
        let fillers = self.rng.gen_range(0..=2);
        for _ in 0..fillers {
            self.alu_inst(false);
        }
        let d = if vs { self.secret_dest() } else { self.any_dest(false, false) };
        self.a.load(d, DATA_PTR, off, MemSize::B8);
    }

    /// Walk the pointer ring a few hops.
    fn ptr_chase(&mut self) {
        let hops = self.rng.gen_range(1..=3);
        for _ in 0..hops {
            self.a.ld(CHASE, CHASE, 0);
        }
    }

    /// Forward branch on public data, conditionally skipping a few ALU ops.
    fn data_branch(&mut self) {
        let l = self.fresh_label();
        let s1 = self.clean_scratch();
        let s2 = if self.rng.gen_range(0..2) == 0 { Reg::ZERO } else { self.clean_scratch() };
        let cond = CONDS[self.rng.gen_range(0..CONDS.len())];
        self.a.branch(cond, s1, s2, &l);
        let skipped = self.rng.gen_range(1..=3);
        for _ in 0..skipped {
            self.alu_inst(true);
        }
        self.a.label(&l);
    }

    /// Store a (possibly secret) value to the write-only sink at a fixed
    /// public address.
    fn sink_store(&mut self) {
        let v = self.scratch();
        let off = 8 * self.rng.gen_range(0..(SINK_LEN / 8)) as i64;
        self.a.store(v, SINK_PTR, off, MemSize::B8);
    }

    /// Deliberate architectural leak: branch on bit 0 of a *freshly loaded*
    /// secret byte. [`SECRET_FLIP`] is odd, so that bit flips between the
    /// two variants and the non-speculative leak traces are guaranteed to
    /// differ — a may-depend register would not give that guarantee.
    fn secret_branch(&mut self) {
        let off = self.rng.gen_range(0..SECRET_LEN) as i64;
        let t = self.secret_dest();
        self.a.ldb(t, SECRET_PTR, off);
        self.a.andi(t, t, 1);
        let l = self.fresh_label();
        self.a.bne(t, Reg::ZERO, &l);
        self.a.nop();
        self.a.label(&l);
        self.arch_leak = true;
    }

    /// Spectre-v1 gadget. Two chained cold-DRAM loads feed an untrained
    /// branch, opening a transient window hundreds of cycles long; the
    /// wrong path loads a (pre-warmed) secret byte and uses it to index the
    /// probe array. Architectural state is unaffected — the branch is
    /// always taken — but under the unsafe baseline the probe access
    /// imprints `secret << 6` on the cache digest.
    fn gadget(&mut self) {
        let mut idxs: Vec<usize> = (FIRST_SCRATCH..FIRST_SCRATCH + NUM_SCRATCH).collect();
        for k in 0..5 {
            let j = k + self.rng.gen_range(0..(idxs.len() - k));
            idxs.swap(k, j);
        }
        let [tw, t0, t0b, t1, t2] = [0, 1, 2, 3, 4].map(|k| Reg::from_index(idxs[k]));
        let g = self.gadgets as i64;
        self.gadgets += 1;
        let warm_off = self.rng.gen_range(0..SECRET_LEN) as i64;
        let leak_off = self.rng.gen_range(0..SECRET_LEN) as i64;
        let l = self.fresh_label();
        // Warm the (single-line) secret region so the transient secret load
        // hits L1 inside the window. This is an architectural secret read.
        self.a.ldb(tw, SECRET_PTR, warm_off);
        self.set_flag(tw, true);
        // Chained cold loads: the second's address depends on the first, so
        // the branch resolves only after two DRAM round trips.
        self.a.ld(t0, COLD_PTR, g * 128);
        self.set_flag(t0, false);
        self.a.load_idx(t0b, COLD_PTR, t0, 0, g * 128 + 64, MemSize::B8);
        self.set_flag(t0b, false);
        // Cold memory is all-zero, so this branch is always taken; the
        // untrained predictor says fall-through.
        self.a.beq(t0b, Reg::ZERO, &l);
        // Transient-only path: t1/t2 are architecturally dead.
        self.a.ldb(t1, SECRET_PTR, leak_off);
        self.a.shli(t1, t1, 6);
        self.a.load_idx(t2, PROBE_PTR, t1, 0, 0, MemSize::B8);
        self.a.label(&l);
    }

    fn counted_loop(&mut self, depth: usize) {
        let ctr = COUNTERS[depth];
        let trips = self.rng.gen_range(2..=4);
        self.a.mov_imm(ctr, trips);
        let outermost = self.pool.is_none();
        if outermost {
            // Secret writes inside the loop are confined to the currently
            // secret registers plus a few extras, all flagged for the whole
            // loop (a late secret write is live at the body top from
            // iteration 2 on).
            let mut mask = self.secret;
            let mut extras = 4;
            let mut attempts = 0;
            while extras > 0 && attempts < 64 {
                attempts += 1;
                let i = self.rng.gen_range(0..NUM_SCRATCH);
                if !mask[i] {
                    mask[i] = true;
                    extras -= 1;
                }
            }
            for (i, &pooled) in mask.iter().enumerate() {
                if pooled {
                    self.secret[i] = true;
                }
            }
            self.pool = Some(mask);
        }
        let l = self.fresh_label();
        self.a.label(&l);
        let blocks = self.rng.gen_range(1..=3);
        for _ in 0..blocks {
            self.block(depth + 1);
        }
        self.a.subi(ctr, ctr, 1);
        self.a.bne(ctr, Reg::ZERO, &l);
        if outermost {
            self.pool = None;
        }
    }

    fn block(&mut self, depth: usize) {
        let roll = self.rng.gen_range(0..100);
        match roll {
            0..=21 => {
                let n = self.rng.gen_range(1..=4);
                for _ in 0..n {
                    self.alu_inst(false);
                }
            }
            22..=35 => self.public_load(),
            36..=47 => self.store_forward(),
            48..=57 => self.ptr_chase(),
            58..=69 => self.data_branch(),
            70..=79 => self.secret_load(),
            80..=84 => self.sink_store(),
            85..=87 => self.secret_branch(),
            88..=89 if depth < COUNTERS.len() => self.counted_loop(depth),
            90..=99 if depth == 0 && self.gadgets < 2 => self.gadget(),
            _ => {
                // Re-rolled loop/gadget slots at disallowed depth.
                let n = self.rng.gen_range(1..=3);
                for _ in 0..n {
                    self.alu_inst(false);
                }
            }
        }
    }
}

/// Generates the test program for `seed`. Deterministic: equal seeds give
/// byte-identical programs, memory images, and secrets.
pub fn generate(seed: u64) -> TestProgram {
    let mut g = Gen::new(seed);
    g.prologue();
    let blocks = g.rng.gen_range(4..=9);
    for _ in 0..blocks {
        g.block(0);
    }
    g.a.halt();
    let Gen { a, mut rng, gadgets, arch_leak, .. } = g;
    let program = a.assemble().expect("generated programs always assemble");

    let mut mem_words = Vec::new();
    for i in 0..(DATA_LEN / 8) {
        mem_words.push((DATA_BASE + i * 8, rng.gen::<u64>()));
    }
    // Pointer ring: a single cycle through all nodes (any odd stride is
    // coprime with the power-of-two node count).
    let stride = 2 * rng.gen_range(0..(PTR_NODES / 2)) + 1;
    for i in 0..PTR_NODES {
        mem_words.push((PTR_BASE + i * 8, PTR_BASE + ((i + stride) % PTR_NODES) * 8));
    }
    let secret: Vec<u8> = (0..SECRET_LEN).map(|_| rng.gen::<u8>()).collect();

    TestProgram { program, mem_words, secret, expect_arch_leak: arch_leak, has_gadget: gadgets > 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_isa::interp::Interp;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.program.to_string(), b.program.to_string());
        assert_eq!(a.mem_words, b.mem_words);
        assert_eq!(a.secret, b.secret);
        assert_eq!((a.expect_arch_leak, a.has_gadget), (b.expect_arch_leak, b.has_gadget));
        let c = generate(43);
        assert_ne!(a.program.to_string(), c.program.to_string(), "seeds decorrelate");
    }

    #[test]
    fn generated_programs_halt_on_the_interpreter() {
        for seed in 0..32 {
            let tp = generate(seed);
            let mut it = Interp::with_memory(&tp.program, tp.memory(&tp.secret));
            it.run(400_000).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn feature_mix_is_reachable() {
        let (mut gadgets, mut leaks) = (0, 0);
        for seed in 0..64 {
            let tp = generate(seed);
            gadgets += u32::from(tp.has_gadget);
            leaks += u32::from(tp.expect_arch_leak);
        }
        assert!(gadgets >= 8, "gadget template too rare: {gadgets}/64");
        assert!(leaks >= 2, "arch-leak template too rare: {leaks}/64");
        assert!(leaks <= 40, "arch-leak template too common: {leaks}/64");
    }
}
