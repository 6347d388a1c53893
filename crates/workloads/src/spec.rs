//! SPEC CPU2017 proxy kernels.
//!
//! Each proxy reproduces the microarchitectural character of one SPEC2017
//! benchmark — the features that determine SPT's per-benchmark behaviour
//! in paper Figures 7–8:
//!
//! | proxy | character |
//! |---|---|
//! | `perlbench` | interpreter: loaded-opcode *indirect dispatch* + hash loads |
//! | `gcc` | linked-list IR walk with branchy kind dispatch |
//! | `mcf` | pointer chasing over a DRAM-sized ring, branch on loaded cost |
//! | `omnetpp` | heap sift-down: loaded comparisons steer both branches and addresses |
//! | `xalancbmk` | binary-tree descent through loaded child pointers |
//! | `x264` | SAD over byte blocks: streaming loads, branch-free absolute difference |
//! | `deepsjeng` | hash-indexed table probes + branchy evaluation |
//! | `leela` | board scan with neighbour gathers and loaded-cell branches |
//! | `exchange2` | explicit-stack backtracking: store/load forwarding heavy |
//! | `xz` | byte-compare match loops with data-dependent early exit |
//! | `bwaves` | streaming 3-point stencil (FP stand-in), few branches |
//! | `cactuBSSN` | wide-neighbourhood stencil, L2-resident grid |
//! | `namd` | pair-list gather + arithmetic, L1-resident |
//! | `parest` | CSR sparse mat-vec: indirect `x[col[j]]` gathers |
//! | `povray` | multiply-heavy ray tests, branches on *computed* values |
//! | `fotonik3d` | DRAM-bound streaming update, almost no branches |
//!
//! All working-set sizes refer to [`Scale::Bench`]; [`Scale::Test`] shrinks
//! both footprints and iteration counts so the kernels halt quickly for
//! interpreter-vs-pipeline correctness checks.

use crate::{Category, Scale, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spt_isa::asm::Assembler;
use spt_isa::interp::SparseMem;
use spt_isa::Reg;

const R: [Reg; 32] = [
    Reg::R0,
    Reg::R1,
    Reg::R2,
    Reg::R3,
    Reg::R4,
    Reg::R5,
    Reg::R6,
    Reg::R7,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
    Reg::R16,
    Reg::R17,
    Reg::R18,
    Reg::R19,
    Reg::R20,
    Reg::R21,
    Reg::R22,
    Reg::R23,
    Reg::R24,
    Reg::R25,
    Reg::R26,
    Reg::R27,
    Reg::R28,
    Reg::R29,
    Reg::R30,
    Reg::R31,
];

fn rng_for(name: &str) -> SmallRng {
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Mix in the process-wide input seed; the default of 0 contributes a
    // zero XOR term, leaving the historical streams untouched.
    seed ^= crate::input_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    SmallRng::seed_from_u64(seed)
}

/// Writes `n` rows of `K` words as `K` parallel arrays starting at `bases`,
/// drawing the rows with `row` in order: interleaved draws land in
/// separate arrays a page of each at a time, with no intermediate vector.
fn write_columns<const K: usize>(
    image: &mut SparseMem,
    bases: [u64; K],
    n: u64,
    mut row: impl FnMut() -> [u64; K],
) {
    const ROWS: usize = 512; // one page of each array
    let mut cols = [[0u64; ROWS]; K];
    for start in (0..n).step_by(ROWS) {
        let len = ROWS.min((n - start) as usize);
        for i in 0..len {
            for (col, word) in cols.iter_mut().zip(row()) {
                col[i] = word;
            }
        }
        for (col, base) in cols.iter().zip(bases) {
            image.write_words(base + 8 * start, col[..len].iter().copied());
        }
    }
}

/// `perlbench`: bytecode interpreter with indirect dispatch.
pub fn perlbench(scale: Scale) -> Workload {
    const CODE: u64 = 0x10_0000;
    const JT: u64 = 0x11_0000;
    const HASH: u64 = 0x12_0000;
    let (code_len, hash_words, iters) = match scale {
        Scale::Test => (64u64, 512u64, 2u64),
        Scale::Bench => (512, 32_768, 1_000_000),
    };
    let hash_mask = (hash_words - 1) as i64;

    let (pc, code, jt, hash, acc, op, t, clen, it, nit) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(code, CODE as i64);
    a.mov_imm(jt, JT as i64);
    a.mov_imm(hash, HASH as i64);
    a.mov_imm(clen, code_len as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0x1234);
    a.label("outer");
    a.mov_imm(pc, 0);
    a.label("dispatch");
    a.ldx8(op, code, pc); // opcode (loaded data)
    a.ldx8(t, jt, op); // handler address: `op` is a leaked index operand
    a.jr(t);
    a.label("op0"); // arithmetic
    a.addi(acc, acc, 13);
    a.jmp("next");
    a.label("op1"); // logical
    a.xori(acc, acc, 0x5a5a);
    a.jmp("next");
    a.label("op2"); // hash probe
    a.muli(t, acc, 0x9e3779b9);
    a.shri(t, t, 8);
    a.andi(t, t, hash_mask);
    a.ldx8(t, hash, t);
    a.add(acc, acc, t);
    a.jmp("next");
    a.label("op3"); // shift/mix
    a.shli(t, acc, 1);
    a.xor(acc, acc, t);
    a.jmp("next");
    a.label("op4"); // hash store
    a.muli(t, acc, 0x85eb_ca6b);
    a.shri(t, t, 9);
    a.andi(t, t, hash_mask);
    a.stx8(acc, hash, t);
    a.label("next");
    a.addi(pc, pc, 1);
    a.blt(pc, clen, "dispatch");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();
    let program = a.assemble().expect("perlbench assembles");

    let mut rng = rng_for("perlbench");
    let mut image = SparseMem::new();
    image.write_words(CODE, (0..code_len).map(|_| rng.gen_range(0..5)));
    image.write_words(
        JT,
        ["op0", "op1", "op2", "op3", "op4"].map(|label| program.label_pc(label).expect("label")),
    );
    image.write_words(HASH, (0..hash_words).map(|_| rng.gen_range(0..1000)));
    Workload {
        name: "perlbench",
        category: Category::SpecInt,
        description: "interpreter dispatch: loaded opcodes drive indirect jumps and hash probes",
        program,
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `gcc`: linked-list walk with branchy per-node transforms.
pub fn gcc(scale: Scale) -> Workload {
    const NODES: u64 = 0x20_0000;
    let (count, iters) = match scale {
        Scale::Test => (64u64, 2u64),
        Scale::Bench => (16_384, 1_000_000), // 512 KiB of 32-byte nodes
    };
    let (cur, kind, val, acc, it, nit, base, off) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let mut a = Assembler::new();
    a.mov_imm(nit, iters as i64);
    a.mov_imm(base, NODES as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(cur, NODES as i64);
    a.label("walk");
    a.ld(kind, cur, 8);
    a.ld(val, cur, 16);
    a.beq(kind, Reg::R0, "k0");
    a.subi(kind, kind, 1);
    a.beq(kind, Reg::R0, "k1");
    a.sub(acc, acc, val); // kind 2
    a.jmp("cont");
    a.label("k0");
    a.add(acc, acc, val);
    a.jmp("cont");
    a.label("k1");
    a.xor(acc, acc, val);
    a.label("cont");
    // Offset-based next link (as in arena/index-based IRs): the `add` is
    // invertible, so declassifying `cur` backward-untaints the loaded
    // offset (paper §6.6 rule ②). The loop exit tests the computed pointer,
    // not the raw offset, so the offset itself is never a branch predicate.
    a.ld(off, cur, 0);
    a.add(cur, base, off);
    a.bne(cur, base, "walk");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("gcc");
    // Random permutation walk over the node array.
    let mut order: Vec<u64> = (0..count).collect();
    for i in (1..count as usize).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    // Three words per 32-byte node, filled in walk order.
    let mut nodes = vec![[0u64; 3]; count as usize];
    for w in 0..count as usize {
        let next_off = if w + 1 < count as usize { order[w + 1] * 32 } else { 0 };
        nodes[order[w] as usize] = [next_off, rng.gen_range(0..3), rng.gen_range(0..4096)];
    }
    let mut image = SparseMem::new();
    image.write_words(NODES, nodes.iter().flat_map(|&[next, kind, val]| [next, kind, val, 0]));
    Workload {
        name: "gcc",
        category: Category::SpecInt,
        description: "IR list walk: loaded next-pointers plus kind-dispatch branches",
        program: a.assemble().expect("gcc assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `mcf`: DRAM-bound pointer chasing with a branch on loaded cost.
///
/// Four independent chains are chased in parallel — real mcf exposes
/// memory-level parallelism across arcs, which is exactly what delaying
/// loads to the VP destroys (the chains serialize behind each other's
/// visibility points).
pub fn mcf(scale: Scale) -> Workload {
    const ARCS: u64 = 0x40_0000;
    const CHAINS: usize = 4;
    let (count, steps, iters) = match scale {
        Scale::Test => (64u64, 32u64, 1u64),
        Scale::Bench => (65_536, 100_000, 1_000_000), // 4 MiB of 64-byte arcs
    };
    let cur = [R[1], R[2], R[3], R[4]];
    let (cost, acc, step, nstep, it, nit, thr) = (R[5], R[6], R[7], R[8], R[20], R[21], R[9]);
    let mut a = Assembler::new();
    a.mov_imm(nstep, steps as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(thr, 500);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    for (c, reg) in cur.iter().enumerate() {
        a.mov_imm(*reg, (ARCS + (c as u64) * (count / CHAINS as u64) * 64) as i64);
    }
    a.mov_imm(step, 0);
    a.label("chase");
    for (c, reg) in cur.iter().enumerate() {
        a.ld(cost, *reg, 8);
        let skip = format!("cheap{c}");
        a.blt(cost, thr, &skip);
        a.addi(acc, acc, 1);
        a.label(&skip);
        a.ld(*reg, *reg, 0); // next arc (loaded -> address): the chase
                             // Reduced-cost bookkeeping: ALU work overlapping the chase, as in
                             // the real simplex pricing loop.
        a.muli(cost, cost, 3);
        a.shri(cost, cost, 1);
        a.add(acc, acc, cost);
        a.xori(acc, acc, 0x55);
        a.addi(acc, acc, 7);
        a.shli(cost, acc, 2);
        a.sub(acc, acc, cost);
    }
    a.addi(step, step, 1);
    a.blt(step, nstep, "chase");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("mcf");
    let mut order: Vec<u64> = (0..count).collect();
    for i in (1..count as usize).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    // Two words per 64-byte arc, filled in ring order.
    let mut arcs = vec![[0u64; 2]; count as usize];
    for w in 0..count as usize {
        let next = ARCS + order[(w + 1) % count as usize] * 64; // ring
        arcs[order[w] as usize] = [next, rng.gen_range(0..1000)];
    }
    // The chain entry points are fixed arc slots; make sure each points
    // into the ring.
    for c in 0..CHAINS {
        let next = ARCS + order[rng.gen_range(0..count as usize)] * 64;
        arcs[c * (count as usize / CHAINS)] = [next, rng.gen_range(0..1000)];
    }
    let mut image = SparseMem::new();
    image.write_words(ARCS, arcs.iter().flat_map(|&[next, cost]| [next, cost, 0, 0, 0, 0, 0, 0]));
    Workload {
        name: "mcf",
        category: Category::SpecInt,
        description:
            "network-simplex arc chasing: four parallel loaded-address chains, cache-hostile",
        program: a.assemble().expect("mcf assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `omnetpp`: event-heap sift-down.
pub fn omnetpp(scale: Scale) -> Workload {
    const HEAP: u64 = 0x60_0000;
    let (n, iters) = match scale {
        Scale::Test => (255u64, 8u64),
        Scale::Bench => (65_535, 2_000_000), // 512 KiB heap
    };
    let (i, n_r, child, vi, vc, t, it, nit) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let heap = R[11];
    let mut a = Assembler::new();
    a.mov_imm(heap, HEAP as i64);
    a.mov_imm(n_r, n as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    // Perturb the root so each sift does real work.
    a.ld(vi, heap, 0);
    a.muli(vi, vi, 0x9e3779b9);
    a.shri(vi, vi, 3);
    a.st(vi, heap, 0);
    a.mov_imm(i, 0);
    a.label("sift");
    // child = 2i+1; if child >= n stop.
    a.shli(child, i, 1);
    a.addi(child, child, 1);
    a.bge(child, n_r, "done_sift");
    // Load both children, pick the smaller (branch on loaded data).
    a.ldx8(vc, heap, child);
    a.load_idx(t, heap, child, 3, 8, spt_isa::MemSize::B8); // right child
    a.bge(t, vc, "left_ok");
    a.mov(vc, t);
    a.addi(child, child, 1);
    a.label("left_ok");
    a.ldx8(vi, heap, i);
    a.bge(vc, vi, "done_sift"); // heap property holds: stop
    a.stx8(vc, heap, i); // swap
    a.stx8(vi, heap, child);
    a.mov(i, child);
    a.jmp("sift");
    a.label("done_sift");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("omnetpp");
    let mut image = SparseMem::new();
    image.write_words(HEAP, (0..=n).map(|_| rng.gen_range(0..1_000_000)));
    Workload {
        name: "omnetpp",
        category: Category::SpecInt,
        description: "event-queue sift-down: loaded values steer branches and the next address",
        program: a.assemble().expect("omnetpp assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `xalancbmk`: binary-tree descent.
pub fn xalancbmk(scale: Scale) -> Workload {
    const TREE: u64 = 0x80_0000;
    const KEYS: u64 = 0x90_0000;
    let (nodes, nkeys, iters) = match scale {
        Scale::Test => (63u64, 8u64, 2u64),
        Scale::Bench => (65_535, 512, 1_000_000), // 2 MiB tree
    };
    let (cur, key, nodekey, t, ki, nk, it, nit, keys_r, tree_r) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(keys_r, KEYS as i64);
    a.mov_imm(tree_r, TREE as i64);
    a.mov_imm(nk, nkeys as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(ki, 0);
    a.label("keys");
    a.ldx8(key, keys_r, ki);
    a.mov_imm(cur, TREE as i64);
    a.label("descend");
    a.ld(nodekey, cur, 16);
    a.blt(key, nodekey, "go_left");
    a.ld(t, cur, 8); // right child offset (loaded)
    a.jmp("check");
    a.label("go_left");
    a.ld(t, cur, 0); // left child offset (loaded)
    a.label("check");
    // Offset-based child link: the invertible `add` lets declassification
    // of `cur` backward-untaint the loaded offset, whose L1 bytes then
    // clear — repeated descents over the hot tree get faster. The loop
    // exit compares the computed pointer so the offset never feeds a
    // branch directly.
    a.add(cur, tree_r, t);
    a.bne(cur, tree_r, "descend");
    a.addi(ki, ki, 1);
    a.blt(ki, nk, "keys");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("xalancbmk");
    let mut image = SparseMem::new();
    // A complete binary tree of 32-byte nodes laid out level-by-level with
    // randomized keys that respect BST order loosely (exact order is
    // irrelevant: descent terminates at a leaf regardless).
    image.write_words(
        TREE,
        (0..nodes).flat_map(|k| {
            let child = |c: u64| if c < nodes { c * 32 } else { 0 };
            [child(2 * k + 1), child(2 * k + 2), rng.gen_range(0..1_000_000), 0]
        }),
    );
    image.write_words(KEYS, (0..nkeys).map(|_| rng.gen_range(0..1_000_000)));
    Workload {
        name: "xalancbmk",
        category: Category::SpecInt,
        description: "DOM-tree descent: loaded child pointers plus key-compare branches",
        program: a.assemble().expect("xalancbmk assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `x264`: sum of absolute differences over byte blocks.
pub fn x264(scale: Scale) -> Workload {
    const BLK_A: u64 = 0xa0_0000;
    const BLK_B: u64 = 0xa1_0000;
    let (len, iters) = match scale {
        Scale::Test => (256u64, 2u64),
        Scale::Bench => (16_384, 2_000_000),
    };
    let (j, va, vb, d, m, acc, len_r, it, nit, pa, pb) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11]);
    let mut a = Assembler::new();
    a.mov_imm(pa, BLK_A as i64);
    a.mov_imm(pb, BLK_B as i64);
    a.mov_imm(len_r, len as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("sad");
    a.ldxb(va, pa, j);
    a.ldxb(vb, pb, j);
    a.sub(d, va, vb);
    a.sari(m, d, 63);
    a.xor(d, d, m);
    a.sub(d, d, m); // |va - vb| branch-free
    a.add(acc, acc, d);
    a.addi(j, j, 1);
    a.blt(j, len_r, "sad");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("x264");
    let mut image = SparseMem::new();
    write_columns(&mut image, [BLK_A, BLK_B], len / 8, || [rng.gen(), rng.gen()]);
    Workload {
        name: "x264",
        category: Category::SpecInt,
        description: "SAD kernel: streaming byte loads, branch-free arithmetic, L1-resident",
        program: a.assemble().expect("x264 assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `deepsjeng`: transposition-table probes.
pub fn deepsjeng(scale: Scale) -> Workload {
    const TABLE: u64 = 0xb0_0000;
    let (words, iters) = match scale {
        Scale::Test => (512u64, 64u64),
        Scale::Bench => (131_072, 4_000_000), // 1 MiB table
    };
    let mask = (words - 1) as i64;
    let (h, e, t, acc, it, nit, tab) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7]);
    let mut a = Assembler::new();
    a.mov_imm(tab, TABLE as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(h, 0x1357_9bdf);
    a.mov_imm(acc, 0);
    a.label("probe");
    a.muli(h, h, 0x2545_f491);
    a.addi(h, h, 0x9e37);
    a.shri(t, h, 16);
    a.andi(t, t, mask);
    a.ldx8(e, tab, t); // table entry (loaded)
    a.andi(t, e, 1);
    a.beq(t, Reg::R0, "miss"); // branch on loaded data
    a.addi(acc, acc, 3);
    a.jmp("cont");
    a.label("miss");
    a.subi(acc, acc, 1);
    a.label("cont");
    // Position evaluation: mobility/material arithmetic between probes.
    a.xor(acc, acc, e);
    a.muli(t, acc, 0x6a09);
    a.shri(t, t, 7);
    a.add(acc, acc, t);
    a.shli(t, acc, 3);
    a.sub(acc, t, acc);
    a.andi(acc, acc, 0xffff_ffff);
    a.ori(acc, acc, 1);
    a.addi(it, it, 1);
    a.blt(it, nit, "probe");
    a.halt();

    let mut rng = rng_for("deepsjeng");
    let mut image = SparseMem::new();
    image.write_words(TABLE, (0..words).map(|_| rng.gen::<u64>() & 0xffff));
    Workload {
        name: "deepsjeng",
        category: Category::SpecInt,
        description:
            "transposition-table probes: hashed addresses, hard-to-predict loaded branches",
        program: a.assemble().expect("deepsjeng assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `leela`: board scan with neighbour gathers.
pub fn leela(scale: Scale) -> Workload {
    const BOARD: u64 = 0xc0_0000;
    let (dim, iters) = match scale {
        Scale::Test => (16u64, 2u64),
        Scale::Bench => (256, 50_000), // 64 KiB board of bytes
    };
    let cells = dim * dim;
    let (i, c, n1, n2, acc, cells_r, it, nit, board) =
        (R[1], R[2], R[3], R[4], R[5], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(board, BOARD as i64);
    a.mov_imm(cells_r, (cells - dim) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(i, 1);
    a.label("scan");
    a.ldxb(c, board, i);
    a.beq(c, Reg::R0, "empty"); // branch on loaded cell
    a.load_idx(n1, board, i, 0, 1, spt_isa::MemSize::B1); // east neighbour
    a.load_idx(n2, board, i, 0, dim as i64, spt_isa::MemSize::B1); // south neighbour
    a.add(acc, acc, n1);
    a.add(acc, acc, n2);
    a.label("empty");
    a.addi(i, i, 1);
    a.blt(i, cells_r, "scan");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("leela");
    let mut image = SparseMem::new();
    image.write_words(
        BOARD,
        (0..cells / 8).map(|_| (0..8).fold(0u64, |w, b| w | rng.gen_range(0..3u64) << (8 * b))),
    );
    Workload {
        name: "leela",
        category: Category::SpecInt,
        description: "Go-board scan: byte gathers with occupancy branches",
        program: a.assemble().expect("leela assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `exchange2`: explicit-stack backtracking.
pub fn exchange2(scale: Scale) -> Workload {
    const STACK: u64 = 0xd0_0000;
    let (depth, iters) = match scale {
        Scale::Test => (16u64, 4u64),
        Scale::Bench => (64, 2_000_000),
    };
    let (sp, v, d, acc, depth_r, it, nit, t) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let mut a = Assembler::new();
    a.mov_imm(depth_r, depth as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.mov_imm(v, 0x1234_5678);
    a.label("outer");
    a.mov_imm(sp, STACK as i64);
    a.mov_imm(d, 0);
    // Push phase: store candidate states.
    a.label("push");
    a.st(v, sp, 0);
    a.muli(v, v, 0x41c6_4e6d);
    a.addi(v, v, 12345);
    a.shri(t, v, 16);
    a.xor(v, v, t);
    a.addi(sp, sp, 8);
    a.addi(d, d, 1);
    a.blt(d, depth_r, "push");
    // Pop phase: reload in reverse, branch on parity of each state.
    a.label("pop");
    a.subi(sp, sp, 8);
    a.ld(t, sp, 0); // forwarded from the push in the same window
    a.andi(t, t, 1);
    a.beq(t, Reg::R0, "even");
    a.addi(acc, acc, 1);
    a.label("even");
    a.subi(d, d, 1);
    a.bne(d, Reg::R0, "pop");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    Workload {
        name: "exchange2",
        category: Category::SpecInt,
        description: "backtracking on an explicit stack: dense store-to-load forwarding",
        program: a.assemble().expect("exchange2 assembles"),
        image: SparseMem::new(),
        secret_ranges: vec![],
    }
}

/// `xz`: match-length loops over a history buffer.
pub fn xz(scale: Scale) -> Workload {
    const HIST: u64 = 0xe0_0000;
    let (hist_len, iters) = match scale {
        Scale::Test => (4096u64, 80u64),
        Scale::Bench => (4_194_304, 300_000), // 4 MiB history
    };
    let mask = (hist_len - 1) as i64;
    let (p1, p2, c1, c2, j, h, acc, it, nit, hist, t, sixteen) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11], R[12]);
    let mut a = Assembler::new();
    a.mov_imm(hist, HIST as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(sixteen, 64);
    a.mov_imm(it, 0);
    a.mov_imm(h, 0xbeef);
    a.mov_imm(acc, 0);
    a.label("outer");
    // Pick two pseudo-random window offsets.
    a.muli(h, h, 0x2545_f491);
    a.addi(h, h, 7);
    a.andi(p1, h, mask);
    a.shri(t, h, 13);
    a.andi(p2, t, mask);
    a.add(p1, p1, hist);
    a.add(p2, p2, hist);
    a.mov_imm(j, 0);
    a.label("match");
    // memcmp-style word compares with CRC-ish accumulation in between.
    a.load_idx(c1, p1, j, 0, 0, spt_isa::MemSize::B8);
    a.load_idx(c2, p2, j, 0, 0, spt_isa::MemSize::B8);
    a.muli(t, acc, 0x1db7);
    a.shri(t, t, 3);
    a.xor(acc, acc, t);
    a.bne(c1, c2, "mismatch"); // data-dependent early exit
    a.addi(j, j, 8);
    a.blt(j, sixteen, "match");
    a.label("mismatch");
    a.add(acc, acc, j);
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("xz");
    let mut image = SparseMem::new();
    // Low-entropy bytes so matches have varied lengths.
    image.write_words(
        HIST,
        (0..hist_len / 8).map(|_| (0..8).fold(0u64, |w, b| w | rng.gen_range(0..4u64) << (8 * b))),
    );
    Workload {
        name: "xz",
        category: Category::SpecInt,
        description: "LZ match loops: byte compares with data-dependent exits over a big history",
        program: a.assemble().expect("xz assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `bwaves`: streaming 3-point stencil.
pub fn bwaves(scale: Scale) -> Workload {
    const SRC: u64 = 0x100_0000;
    const DST: u64 = 0x140_0000;
    let (n, iters) = match scale {
        Scale::Test => (256u64, 2u64),
        Scale::Bench => (262_144, 200_000), // 2 MiB per array
    };
    let (j, v0, v1, v2, n_r, it, nit, src, dst) =
        (R[1], R[2], R[3], R[4], R[6], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(src, SRC as i64);
    a.mov_imm(dst, DST as i64);
    a.mov_imm(n_r, (n - 2) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("stencil");
    a.ldx8(v0, src, j);
    a.load_idx(v1, src, j, 3, 8, spt_isa::MemSize::B8);
    a.load_idx(v2, src, j, 3, 16, spt_isa::MemSize::B8);
    a.muli(v1, v1, 3);
    a.add(v0, v0, v1);
    a.add(v0, v0, v2);
    a.shri(v0, v0, 2);
    a.stx8(v0, dst, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "stencil");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("bwaves");
    let mut image = SparseMem::new();
    image.write_words(SRC, (0..n).map(|_| rng.gen_range(0..1u64 << 32)));
    Workload {
        name: "bwaves",
        category: Category::SpecFp,
        description: "blast-wave stencil: streaming loads/stores, loop-only branches",
        program: a.assemble().expect("bwaves assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `cactuBSSN`: wide-neighbourhood stencil on an L2-resident grid.
pub fn cactu(scale: Scale) -> Workload {
    const GRID: u64 = 0x180_0000;
    const OUT: u64 = 0x1c0_0000;
    let (dim, iters) = match scale {
        Scale::Test => (16u64, 2u64),
        Scale::Bench => (160, 20_000), // ~200 KiB grid
    };
    let n = dim * dim;
    let (j, acc, v, lim, it, nit, grid, out) = (R[1], R[2], R[3], R[5], R[6], R[7], R[8], R[9]);
    let mut a = Assembler::new();
    a.mov_imm(grid, GRID as i64);
    a.mov_imm(out, OUT as i64);
    a.mov_imm(lim, (n - dim - 1) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, (dim + 1) as i64);
    a.label("point");
    a.mov_imm(acc, 0);
    for off in [-(dim as i64) * 8, -8, 0, 8, dim as i64 * 8] {
        a.load_idx(v, grid, j, 3, off, spt_isa::MemSize::B8);
        a.muli(v, v, 5);
        a.add(acc, acc, v);
        a.shri(acc, acc, 1);
    }
    a.stx8(acc, out, j);
    a.addi(j, j, 1);
    a.blt(j, lim, "point");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("cactu");
    let mut image = SparseMem::new();
    image.write_words(GRID, (0..n).map(|_| rng.gen_range(0..1u64 << 24)));
    Workload {
        name: "cactuBSSN",
        category: Category::SpecFp,
        description: "relativity stencil: five-point gathers, arithmetic dense, L2 resident",
        program: a.assemble().expect("cactu assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `namd`: pair-list gather with L1-resident positions.
pub fn namd(scale: Scale) -> Workload {
    const IDX: u64 = 0x200_0000;
    const POS: u64 = 0x201_0000;
    let (npos, npairs, iters) = match scale {
        Scale::Test => (128u64, 64u64, 2u64),
        Scale::Bench => (2048, 1024, 500_000), // 16 KiB positions, pair list reused
    };
    let (k, i1, i2, x1, x2, d, acc, t, np, it, nit, idx, pos) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11], R[12], R[13]);
    let mut a = Assembler::new();
    a.mov_imm(idx, IDX as i64);
    a.mov_imm(pos, POS as i64);
    a.mov_imm(np, npairs as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(k, 0);
    a.label("pair");
    a.shli(t, k, 1); // pairs have a 16-byte stride: index in 8-byte units
    a.ldx8(i1, idx, t);
    a.load_idx(i2, idx, t, 3, 8, spt_isa::MemSize::B8);
    a.ldx8(x1, pos, i1); // gather: the loaded index is a leaked operand
    a.ldx8(x2, pos, i2);
    a.sub(d, x1, x2);
    a.mul(d, d, d);
    a.shri(d, d, 8);
    a.add(acc, acc, d);
    a.addi(k, k, 1);
    a.blt(k, np, "pair");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("namd");
    let mut image = SparseMem::new();
    image.write_words(
        IDX,
        (0..npairs).flat_map(|_| [rng.gen_range(0..npos), rng.gen_range(0..npos)]),
    );
    image.write_words(POS, (0..npos).map(|_| rng.gen_range(0..1u64 << 20)));
    Workload {
        name: "namd",
        category: Category::SpecFp,
        description: "molecular pair gather: small hot positions array, forward-untaint friendly",
        program: a.assemble().expect("namd assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `parest`: CSR sparse matrix-vector product.
pub fn parest(scale: Scale) -> Workload {
    const COL: u64 = 0x240_0000;
    const VAL: u64 = 0x280_0000;
    const X: u64 = 0x2c0_0000;
    const Y: u64 = 0x2d0_0000;
    let (rows, nnz_per_row, iters) = match scale {
        Scale::Test => (32u64, 4u64, 2u64),
        Scale::Bench => (16_384, 8, 200_000), // 1 MiB of values + 1 MiB of x
    };
    let ncols = rows;
    let (r_i, j, c, v, x, acc, t, rows_r, nnz_r, it, nit) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11]);
    let (col_r, val_r, x_r, y_r) = (R[12], R[13], R[14], R[15]);
    let mut a = Assembler::new();
    a.mov_imm(col_r, COL as i64);
    a.mov_imm(val_r, VAL as i64);
    a.mov_imm(x_r, X as i64);
    a.mov_imm(y_r, Y as i64);
    a.mov_imm(rows_r, rows as i64);
    a.mov_imm(nnz_r, nnz_per_row as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(r_i, 0);
    a.label("row");
    a.mov_imm(acc, 0);
    a.mov_imm(j, 0);
    a.label("nz");
    a.mul(t, r_i, nnz_r);
    a.add(t, t, j);
    a.ldx8(c, col_r, t); // column index (loaded)
    a.ldx8(v, val_r, t);
    a.ldx8(x, x_r, c); // x[col[j]] gather: the loaded index is leaked
    a.mul(x, x, v);
    a.add(acc, acc, x);
    a.addi(j, j, 1);
    a.blt(j, nnz_r, "nz");
    a.stx8(acc, y_r, r_i);
    a.addi(r_i, r_i, 1);
    a.blt(r_i, rows_r, "row");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("parest");
    let mut image = SparseMem::new();
    write_columns(&mut image, [COL, VAL], rows * nnz_per_row, || {
        [rng.gen_range(0..ncols), rng.gen_range(0..256)]
    });
    image.write_words(X, (0..ncols).map(|_| rng.gen_range(0..4096)));
    Workload {
        name: "parest",
        category: Category::SpecFp,
        description: "FEM sparse mat-vec: streaming CSR with indirect x[col[j]] gathers",
        program: a.assemble().expect("parest assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `povray`: multiply-heavy ray-intersection tests.
pub fn povray(scale: Scale) -> Workload {
    const SPHERES: u64 = 0x300_0000;
    let (nspheres, iters) = match scale {
        Scale::Test => (16u64, 4u64),
        Scale::Bench => (256, 1_000_000),
    };
    let (s, cx, r2, dx, disc, acc, t, ns, it, nit, sph, ray) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11], R[12]);
    let mut a = Assembler::new();
    a.mov_imm(sph, SPHERES as i64);
    a.mov_imm(ns, nspheres as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.mov_imm(ray, 1000);
    a.label("outer");
    a.mov_imm(s, 0);
    a.label("sphere");
    a.shli(t, s, 1); // 16-byte sphere records
    a.ldx8(cx, sph, t); // centre
    a.load_idx(r2, sph, t, 3, 8, spt_isa::MemSize::B8); // radius^2
    a.sub(dx, cx, ray);
    a.mul(disc, dx, dx);
    a.muli(disc, disc, 3);
    a.shri(disc, disc, 2);
    a.sub(disc, r2, disc);
    // Branch on a *computed* sign — SPT forward-untaints this quickly once
    // the sphere data has been declassified by earlier iterations.
    a.bge(disc, Reg::R0, "hit");
    a.jmp("cont");
    a.label("hit");
    a.add(acc, acc, disc);
    a.label("cont");
    a.addi(s, s, 1);
    a.blt(s, ns, "sphere");
    a.muli(ray, ray, 13);
    a.andi(ray, ray, 0xffff);
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("povray");
    let mut image = SparseMem::new();
    image.write_words(
        SPHERES,
        (0..nspheres).flat_map(|_| [rng.gen_range(0..65_536), rng.gen_range(0..1u64 << 28)]),
    );
    Workload {
        name: "povray",
        category: Category::SpecFp,
        description: "ray-sphere tests: multiply chains with sign branches, tiny working set",
        program: a.assemble().expect("povray assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `fotonik3d`: DRAM-bound field update.
pub fn fotonik(scale: Scale) -> Workload {
    const E: u64 = 0x340_0000;
    const H: u64 = 0x380_0000;
    let (n, iters) = match scale {
        Scale::Test => (512u64, 2u64),
        Scale::Bench => (524_288, 100_000), // 4 MiB per field
    };
    let (j, e, h, t, n_r, it, nit, e_r, h_r) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9]);
    let mut a = Assembler::new();
    a.mov_imm(e_r, E as i64);
    a.mov_imm(h_r, H as i64);
    a.mov_imm(n_r, n as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("update");
    a.ldx8(h, h_r, j);
    a.shri(h, h, 2);
    a.ldx8(e, e_r, j);
    a.add(t, e, h);
    a.stx8(t, e_r, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "update");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("fotonik");
    let mut image = SparseMem::new();
    write_columns(&mut image, [E, H], n, || {
        [rng.gen_range(0..1u64 << 30), rng.gen_range(0..1u64 << 30)]
    });
    Workload {
        name: "fotonik3d",
        category: Category::SpecFp,
        description: "FDTD field update: pure streaming, DRAM-bandwidth bound, loop-only branches",
        program: a.assemble().expect("fotonik assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `lbm`: lattice-Boltzmann fluid solver.
pub fn lbm(scale: Scale) -> Workload {
    const DIST: u64 = 0x400_0000;
    const OUT: u64 = 0x440_0000;
    let (cells, iters) = match scale {
        Scale::Test => (256u64, 2u64),
        Scale::Bench => (262_144, 100_000), // 2 MiB distributions
    };
    let (j, acc, v, n_r, it, nit, dist, out) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let mut a = Assembler::new();
    a.mov_imm(dist, DIST as i64);
    a.mov_imm(out, OUT as i64);
    a.mov_imm(n_r, (cells - 8) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("cell");
    a.mov_imm(acc, 0);
    // Gather a 5-direction neighbourhood of distribution values and relax.
    for off in [0i64, 8, 16, 32, 56] {
        a.load_idx(v, dist, j, 3, off, spt_isa::MemSize::B8);
        a.muli(v, v, 3);
        a.shri(v, v, 2);
        a.add(acc, acc, v);
    }
    a.shri(acc, acc, 1);
    a.stx8(acc, out, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "cell");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("lbm");
    let mut image = SparseMem::new();
    image.write_words(DIST, (0..cells).map(|_| rng.gen_range(0..1u64 << 28)));
    Workload {
        name: "lbm",
        category: Category::SpecFp,
        description: "lattice-Boltzmann relaxation: wide streaming gathers, store heavy",
        program: a.assemble().expect("lbm assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `wrf`: weather model column physics with lookup tables.
pub fn wrf(scale: Scale) -> Workload {
    const FIELD: u64 = 0x480_0000;
    const TABLE: u64 = 0x4c0_0000;
    let (cells, table_words, iters) = match scale {
        Scale::Test => (128u64, 128u64, 2u64),
        Scale::Bench => (65_536, 2048, 100_000),
    };
    let tmask = (table_words - 1) as i64;
    let (j, v, t, idx, acc, n_r, it, nit, field, table) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(field, FIELD as i64);
    a.mov_imm(table, TABLE as i64);
    a.mov_imm(n_r, cells as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("col");
    a.ldx8(v, field, j); // field value (loaded)
                         // Saturation lookup: the table index derives from the loaded value —
                         // a loaded-data-to-address flow, declassified per access.
    a.shri(idx, v, 6);
    a.andi(idx, idx, tmask);
    a.ldx8(t, table, idx);
    a.mul(t, t, v);
    a.shri(t, t, 12);
    a.add(acc, acc, t);
    a.stx8(acc, field, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "col");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("wrf");
    let mut image = SparseMem::new();
    image.write_words(FIELD, (0..cells).map(|_| rng.gen_range(0..1u64 << 20)));
    image.write_words(TABLE, (0..table_words).map(|_| rng.gen_range(1..4096)));
    Workload {
        name: "wrf",
        category: Category::SpecFp,
        description: "column physics: streaming field update through hot lookup tables",
        program: a.assemble().expect("wrf assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `cam4`: atmosphere model with conditional physics branches.
pub fn cam4(scale: Scale) -> Workload {
    const STATE: u64 = 0x500_0000;
    let (cells, iters) = match scale {
        Scale::Test => (256u64, 2u64),
        Scale::Bench => (131_072, 100_000), // 1 MiB state
    };
    let (j, v, acc, thr, n_r, it, nit, st) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let mut a = Assembler::new();
    a.mov_imm(st, STATE as i64);
    a.mov_imm(thr, 1 << 19);
    a.mov_imm(n_r, cells as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("cell");
    a.ldx8(v, st, j);
    // Conditional physics: branch on loaded humidity-like value.
    a.blt(v, thr, "dry");
    a.muli(v, v, 7);
    a.shri(v, v, 3);
    a.jmp("wet");
    a.label("dry");
    a.addi(v, v, 97);
    a.label("wet");
    a.add(acc, acc, v);
    a.stx8(v, st, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "cell");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("cam4");
    let mut image = SparseMem::new();
    image.write_words(STATE, (0..cells).map(|_| rng.gen_range(0..1u64 << 20)));
    Workload {
        name: "cam4",
        category: Category::SpecFp,
        description: "atmosphere physics: streaming with hard-to-predict loaded-value branches",
        program: a.assemble().expect("cam4 assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `imagick`: 2D convolution.
pub fn imagick(scale: Scale) -> Workload {
    const IMG: u64 = 0x540_0000;
    const DST: u64 = 0x580_0000;
    let (dim, iters) = match scale {
        Scale::Test => (16u64, 2u64),
        Scale::Bench => (256, 20_000), // 512 KiB image
    };
    let n = dim * dim;
    let (j, acc, v, lim, it, nit, img, dst) = (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8]);
    let mut a = Assembler::new();
    a.mov_imm(img, IMG as i64);
    a.mov_imm(dst, DST as i64);
    a.mov_imm(lim, (n - 2 * dim - 2) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, (dim + 1) as i64);
    a.label("pixel");
    a.mov_imm(acc, 0);
    for (off, w) in [
        (-(dim as i64) * 8 - 8, 1i64),
        (-(dim as i64) * 8, 2),
        (-(dim as i64) * 8 + 8, 1),
        (-8, 2),
        (0, 4),
        (8, 2),
        (dim as i64 * 8 - 8, 1),
        (dim as i64 * 8, 2),
        (dim as i64 * 8 + 8, 1),
    ] {
        a.load_idx(v, img, j, 3, off, spt_isa::MemSize::B8);
        a.muli(v, v, w);
        a.add(acc, acc, v);
    }
    a.shri(acc, acc, 4);
    a.stx8(acc, dst, j);
    a.addi(j, j, 1);
    a.blt(j, lim, "pixel");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("imagick");
    let mut image = SparseMem::new();
    image.write_words(IMG, (0..n).map(|_| rng.gen_range(0..256)));
    Workload {
        name: "imagick",
        category: Category::SpecFp,
        description: "3x3 convolution: nine-point gathers, multiply dense, branch light",
        program: a.assemble().expect("imagick assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `nab`: molecular dynamics with iterative reciprocal refinement.
pub fn nab(scale: Scale) -> Workload {
    const POS: u64 = 0x5c0_0000;
    let (npos, iters) = match scale {
        Scale::Test => (64u64, 4u64),
        Scale::Bench => (4096, 200_000), // 32 KiB positions
    };
    let (k, x1, x2, d, r, t, acc, np, it, nit, pos) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10], R[11]);
    let mut a = Assembler::new();
    a.mov_imm(pos, POS as i64);
    a.mov_imm(np, (npos - 1) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.mov_imm(acc, 0);
    a.label("outer");
    a.mov_imm(k, 0);
    a.label("pair");
    a.ldx8(x1, pos, k);
    a.load_idx(x2, pos, k, 3, 8, spt_isa::MemSize::B8);
    a.sub(d, x1, x2);
    a.mul(d, d, d);
    a.ori(d, d, 1);
    // Newton-style reciprocal refinement: a serial multiply chain per
    // pair (the latency-bound inner loop nab is known for).
    a.mov_imm(r, 1 << 20);
    for _ in 0..3 {
        a.mul(t, r, d);
        a.shri(t, t, 21);
        a.muli(t, t, -1);
        a.addi(t, t, 2 << 20);
        a.mul(r, r, t);
        a.shri(r, r, 21);
    }
    a.add(acc, acc, r);
    a.addi(k, k, 1);
    a.blt(k, np, "pair");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("nab");
    let mut image = SparseMem::new();
    image.write_words(POS, (0..npos).map(|_| rng.gen_range(1..1u64 << 16)));
    Workload {
        name: "nab",
        category: Category::SpecFp,
        description: "nucleic-acid dynamics: serial multiply chains dominate, few branches",
        program: a.assemble().expect("nab assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// `roms`: ocean model multi-field stencil.
pub fn roms(scale: Scale) -> Workload {
    const U: u64 = 0x600_0000;
    const W: u64 = 0x640_0000;
    const OUT: u64 = 0x680_0000;
    let (n, iters) = match scale {
        Scale::Test => (256u64, 2u64),
        Scale::Bench => (262_144, 100_000), // 2 MiB per field
    };
    let (j, u, w, v, n_r, it, nit, u_r, w_r, out) =
        (R[1], R[2], R[3], R[4], R[5], R[6], R[7], R[8], R[9], R[10]);
    let mut a = Assembler::new();
    a.mov_imm(u_r, U as i64);
    a.mov_imm(w_r, W as i64);
    a.mov_imm(out, OUT as i64);
    a.mov_imm(n_r, (n - 2) as i64);
    a.mov_imm(nit, iters as i64);
    a.mov_imm(it, 0);
    a.label("outer");
    a.mov_imm(j, 0);
    a.label("point");
    a.ldx8(u, u_r, j);
    a.load_idx(v, u_r, j, 3, 8, spt_isa::MemSize::B8);
    a.add(u, u, v);
    a.ldx8(w, w_r, j);
    a.load_idx(v, w_r, j, 3, 16, spt_isa::MemSize::B8);
    a.sub(w, w, v);
    a.mul(u, u, w);
    a.shri(u, u, 8);
    a.stx8(u, out, j);
    a.addi(j, j, 1);
    a.blt(j, n_r, "point");
    a.addi(it, it, 1);
    a.blt(it, nit, "outer");
    a.halt();

    let mut rng = rng_for("roms");
    let mut image = SparseMem::new();
    write_columns(&mut image, [U, W], n, || {
        [rng.gen_range(0..1u64 << 16), rng.gen_range(0..1u64 << 16)]
    });
    Workload {
        name: "roms",
        category: Category::SpecFp,
        description: "ocean-model stencil: two streamed fields combined, bandwidth bound",
        program: a.assemble().expect("roms assembles"),
        image: image.freeze(),
        secret_ranges: vec![],
    }
}

/// The 22-benchmark SPEC CPU2017-rate proxy suite in Figure-7 order
/// (integer suite first, then floating point).
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![
        perlbench(scale),
        gcc(scale),
        mcf(scale),
        omnetpp(scale),
        xalancbmk(scale),
        x264(scale),
        deepsjeng(scale),
        leela(scale),
        exchange2(scale),
        xz(scale),
        bwaves(scale),
        cactu(scale),
        namd(scale),
        parest(scale),
        povray(scale),
        lbm(scale),
        wrf(scale),
        cam4(scale),
        imagick(scale),
        nab(scale),
        fotonik(scale),
        roms(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_proxy_halts_and_is_deterministic() {
        for w in suite(Scale::Test) {
            let mut i1 = w.interp();
            i1.run(3_000_000).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(i1.halted(), "{}", w.name);
            let mut i2 = w.interp();
            i2.run(3_000_000).unwrap();
            assert_eq!(i1.retired(), i2.retired(), "{}", w.name);
        }
    }

    #[test]
    fn proxies_execute_meaningful_instruction_counts() {
        for w in suite(Scale::Test) {
            let mut i = w.interp();
            i.run(3_000_000).unwrap();
            assert!(
                i.retired() > 500,
                "{} retired only {} instructions at test scale",
                w.name,
                i.retired()
            );
        }
    }

    #[test]
    fn bench_scale_assembles() {
        // Bench-scale programs are identical code with bigger parameters;
        // just verify they build and their memory images are sized sanely.
        let suite = suite(Scale::Bench);
        let words: usize = suite.iter().map(|w| w.image.image_pages() * 4096 / 8).sum();
        assert!(words > 500_000, "bench memory images should be substantial, got {words} words");
        for w in &suite {
            // exchange2 keeps all of its data on its explicit stack.
            assert_eq!(w.image.image_pages() == 0, w.name == "exchange2", "{}", w.name);
        }
    }

    #[test]
    fn perlbench_jump_table_points_into_program() {
        let w = perlbench(Scale::Test);
        let plen = w.program.len() as u64;
        for (k, label) in ["op0", "op1", "op2", "op3", "op4"].iter().enumerate() {
            let val = w.image.read(0x11_0000 + 8 * k as u64, 8);
            assert!(val < plen, "jump table entry {val} out of program bounds");
            assert_eq!(Some(val), w.program.label_pc(label), "jump table entry {k}");
        }
    }
}
