//! Constant-time (data-oblivious) kernels (paper §9.1: bitslice AES,
//! ChaCha20, djbsort).
//!
//! All three kernels have the defining constant-time property: secret data
//! flows only through ALU dataflow — never into load/store addresses or
//! branch predicates. Loop counters, table indices and comparator indices
//! are public. This is exactly the discipline the paper's security
//! definition rewards: the secrets are never transmitted over a
//! non-speculative covert channel, so SPT keeps them tainted forever while
//! still executing the (public-address) loads and stores at full speed once
//! their addresses untaint.
//!
//! * [`chacha20`] — a real ChaCha20 block function (RFC 8439), verified
//!   against the RFC test vector.
//! * [`bitslice`] — a bitsliced χ-based permutation in the style of
//!   bitslice AES (ctaes): 64 parallel S-box evaluations per boolean
//!   operation over 5 lanes, with θ-style diffusion and per-round
//!   constants.
//! * [`ctsort`] — a Batcher odd-even mergesort network over 64 elements in
//!   the style of djbsort: data-independent compare-exchange sequence with
//!   branchless min/max.

use crate::{Category, Scale, Workload};
use spt_isa::asm::Assembler;
use spt_isa::interp::SparseMem;
use spt_isa::Reg;

/// Base address of the ChaCha20 initial-state block.
pub const CHACHA_INIT: u64 = 0x1_0000;
/// Base address of the ChaCha20 output block.
pub const CHACHA_OUT: u64 = 0x1_1000;

/// Emits a ChaCha20 quarter round on 32-bit words held in 64-bit registers
/// (`mask` holds `0xffff_ffff`).
fn quarter_round(a: &mut Assembler, xa: Reg, xb: Reg, xc: Reg, xd: Reg, t: Reg, mask: Reg) {
    let rot = |a: &mut Assembler, x: Reg, n: i64| {
        a.shli(t, x, n);
        a.shri(x, x, 32 - n);
        a.or(x, x, t);
        a.and(x, x, mask);
    };
    a.add(xa, xa, xb);
    a.and(xa, xa, mask);
    a.xor(xd, xd, xa);
    rot(a, xd, 16);
    a.add(xc, xc, xd);
    a.and(xc, xc, mask);
    a.xor(xb, xb, xc);
    rot(a, xb, 12);
    a.add(xa, xa, xb);
    a.and(xa, xa, mask);
    a.xor(xd, xd, xa);
    rot(a, xd, 8);
    a.add(xc, xc, xd);
    a.and(xc, xc, mask);
    a.xor(xb, xb, xc);
    rot(a, xb, 7);
}

/// Builds the ChaCha20 block-function workload.
///
/// The initial state (constants, key, counter, nonce) lives at
/// [`CHACHA_INIT`] as sixteen 8-byte words (each holding one 32-bit state
/// word); the generated key-stream block is stored at [`CHACHA_OUT`]. The
/// key words are the declared secret.
pub fn chacha20(scale: Scale) -> Workload {
    chacha20_blocks(scale.iters(2, 1_000_000))
}

/// ChaCha20 with an explicit block count (used by the RFC-vector test).
pub fn chacha20_blocks(nblocks: u64) -> Workload {
    let x = |i: usize| Reg::from_index(1 + i); // r1..r16 = state
    let t = Reg::R17;
    let tmp = Reg::R18;
    let round = Reg::R19;
    let mask = Reg::R20;
    let block = Reg::R21;
    let init = Reg::R22;
    let out = Reg::R23;
    let nblk = Reg::R24;
    let ten = Reg::R26;

    let mut a = Assembler::new();
    a.mov_imm(init, CHACHA_INIT as i64);
    a.mov_imm(out, CHACHA_OUT as i64);
    a.mov_imm(mask, 0xffff_ffff);
    a.mov_imm(nblk, nblocks as i64);
    a.mov_imm(ten, 10);
    a.mov_imm(block, 0);
    a.label("block_loop");
    for i in 0..16 {
        a.ld(x(i), init, 8 * i as i64);
    }
    // Per-block counter: x12 += block (mod 2^32).
    a.add(x(12), x(12), block);
    a.and(x(12), x(12), mask);
    a.mov_imm(round, 0);
    a.label("rounds");
    // Column rounds.
    quarter_round(&mut a, x(0), x(4), x(8), x(12), t, mask);
    quarter_round(&mut a, x(1), x(5), x(9), x(13), t, mask);
    quarter_round(&mut a, x(2), x(6), x(10), x(14), t, mask);
    quarter_round(&mut a, x(3), x(7), x(11), x(15), t, mask);
    // Diagonal rounds.
    quarter_round(&mut a, x(0), x(5), x(10), x(15), t, mask);
    quarter_round(&mut a, x(1), x(6), x(11), x(12), t, mask);
    quarter_round(&mut a, x(2), x(7), x(8), x(13), t, mask);
    quarter_round(&mut a, x(3), x(4), x(9), x(14), t, mask);
    a.addi(round, round, 1);
    a.blt(round, ten, "rounds");
    // Add the initial state (with the per-block counter) and store.
    for i in 0..16 {
        a.ld(t, init, 8 * i as i64);
        if i == 12 {
            a.add(t, t, block);
        }
        a.add(tmp, x(i), t);
        a.and(tmp, tmp, mask);
        a.st(tmp, out, 8 * i as i64);
    }
    a.addi(block, block, 1);
    a.blt(block, nblk, "block_loop");
    a.halt();

    // RFC 8439 §2.3.2 initial state: constants, key 00..1f, counter 1,
    // nonce 00:00:00:09 / 00:00:00:4a / 00:00:00:00.
    let consts = [0x6170_7865u64, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    // Key words: bytes 4k..4k+3 little-endian.
    let key =
        (0..8u64).map(|k| (4 * k) | ((4 * k + 1) << 8) | ((4 * k + 2) << 16) | ((4 * k + 3) << 24));
    let counter_nonce = [1, 0x0900_0000, 0x4a00_0000, 0];
    let mut image = SparseMem::new();
    image.write_words(CHACHA_INIT, consts.into_iter().chain(key).chain(counter_nonce));

    Workload {
        name: "chacha20",
        category: Category::ConstantTime,
        description: "ChaCha20 block function (RFC 8439): ALU-bound, secrets never reach addresses",
        program: a.assemble().expect("chacha20 assembles"),
        image: image.freeze(),
        secret_ranges: vec![(CHACHA_INIT + 32, 64)], // the 8 key words
    }
}

/// Base address of the bitslice kernel's secret input lanes.
pub const BITSLICE_IN: u64 = 0x2_0000;
/// Base address of the bitslice round-constant table.
pub const BITSLICE_RC: u64 = 0x2_1000;
/// Base address of the bitslice kernel's output.
pub const BITSLICE_OUT: u64 = 0x2_2000;

/// Builds the bitsliced permutation workload: 24 rounds of θ-diffusion,
/// lane rotations, the χ S-box layer (64 S-boxes per boolean op — the
/// bitslice technique of ctaes), and round-constant injection, iterated
/// over the state in an outer loop.
pub fn bitslice(scale: Scale) -> Workload {
    let iters = scale.iters(4, 1_000_000);
    let lane = |i: usize| Reg::from_index(1 + i); // r1..r5
    let copy = |i: usize| Reg::from_index(6 + i); // r6..r10
    let t = Reg::R17;
    let t2 = Reg::R18;
    let round = Reg::R19;
    let iter = Reg::R21;
    let inp = Reg::R22;
    let outp = Reg::R23;
    let niter = Reg::R24;
    let rc = Reg::R25;
    let rounds_max = Reg::R26;

    let rotl64 = |a: &mut Assembler, x: Reg, n: i64| {
        if n == 0 {
            return;
        }
        a.shli(t, x, n);
        a.shri(x, x, 64 - n);
        a.or(x, x, t);
    };

    let mut a = Assembler::new();
    a.mov_imm(inp, BITSLICE_IN as i64);
    a.mov_imm(outp, BITSLICE_OUT as i64);
    a.mov_imm(rc, BITSLICE_RC as i64);
    a.mov_imm(niter, iters as i64);
    a.mov_imm(rounds_max, 24);
    a.mov_imm(iter, 0);
    for i in 0..5 {
        a.ld(lane(i), inp, 8 * i as i64);
    }
    a.label("iter_loop");
    a.mov_imm(round, 0);
    a.label("round_loop");
    // θ: parity of all lanes, rotated, injected everywhere.
    a.xor(t2, lane(0), lane(1));
    a.xor(t2, t2, lane(2));
    a.xor(t2, t2, lane(3));
    a.xor(t2, t2, lane(4));
    rotl64(&mut a, t2, 1);
    for i in 0..5 {
        a.xor(lane(i), lane(i), t2);
    }
    // ρ: distinct lane rotations.
    for (i, &r) in [0i64, 1, 62, 28, 27].iter().enumerate() {
        rotl64(&mut a, lane(i), r);
    }
    // χ: lane_i = old_i ^ (!old_{i+1} & old_{i+2}) — the bitsliced S-box.
    for i in 0..5 {
        a.mov(copy(i), lane(i));
    }
    for i in 0..5 {
        a.xori(t2, copy((i + 1) % 5), -1);
        a.and(t2, t2, copy((i + 2) % 5));
        a.xor(lane(i), copy(i), t2);
    }
    // ι: round constant from the public table.
    a.ldx8(t2, rc, round);
    a.xor(lane(0), lane(0), t2);
    a.addi(round, round, 1);
    a.blt(round, rounds_max, "round_loop");
    // Persist state and continue permuting it.
    for i in 0..5 {
        a.st(lane(i), outp, 8 * i as i64);
    }
    a.addi(iter, iter, 1);
    a.blt(iter, niter, "iter_loop");
    a.halt();

    let mut image = SparseMem::new();
    // Secret input lanes.
    image.write_words(BITSLICE_IN, (0..5).map(|i| 0x0123_4567_89ab_cdefu64.rotate_left(7 * i)));
    image.write_words(
        BITSLICE_RC,
        (0..24u64).map(|r| (r + 1).wrapping_mul(0x9e37_79b9) & 0xffff_ffff),
    );

    Workload {
        name: "bitslice",
        category: Category::ConstantTime,
        description: "bitsliced chi-permutation (bitslice-AES style): boolean-op bound",
        program: a.assemble().expect("bitslice assembles"),
        image: image.freeze(),
        secret_ranges: vec![(BITSLICE_IN, 40)],
    }
}

/// Base address of the sorting network's comparator pair table.
pub const CTSORT_PAIRS: u64 = 0x3_0000;
/// Base address of the (secret) data array to sort.
pub const CTSORT_DATA: u64 = 0x3_4000;
/// Number of elements sorted.
pub const CTSORT_N: usize = 64;

/// Generates the comparator sequence of Batcher's odd-even mergesort for a
/// power-of-two `n`. Each pair `(i, j)` with `i < j` compare-exchanges
/// `data[i]`/`data[j]` so the minimum lands at `i`.
pub fn batcher_network(n: usize) -> Vec<(usize, usize)> {
    assert!(n.is_power_of_two());
    let mut pairs = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        pairs.push((i + j, i + j + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// Builds the constant-time sorting-network workload (djbsort style):
/// the comparator schedule is public (table-driven), the compared data is
/// secret, and min/max are computed branchlessly.
pub fn ctsort(scale: Scale) -> Workload {
    let iters = scale.iters(2, 1_000_000);
    let pairs = batcher_network(CTSORT_N);

    let i_r = Reg::R1;
    let j_r = Reg::R2;
    let ai = Reg::R3;
    let _aj = Reg::R4;
    let va = Reg::R5;
    let vb = Reg::R6;
    let c = Reg::R7;
    let d = Reg::R8;
    let mn = Reg::R9;
    let mx = Reg::R10;
    let k = Reg::R11;
    let npairs = Reg::R12;
    let ptab = Reg::R13;
    let pdata = Reg::R14;
    let iter = Reg::R15;
    let niter = Reg::R16;

    let mut a = Assembler::new();
    a.mov_imm(ptab, CTSORT_PAIRS as i64);
    a.mov_imm(pdata, CTSORT_DATA as i64);
    a.mov_imm(npairs, pairs.len() as i64);
    a.mov_imm(niter, iters as i64);
    a.mov_imm(iter, 0);
    a.label("iter_loop");
    a.mov_imm(k, 0);
    a.label("cmp_loop");
    // Load the (public) comparator indices: 16-byte pair records.
    a.shli(ai, k, 1);
    a.ldx8(i_r, ptab, ai);
    a.load_idx(j_r, ptab, ai, 3, 8, spt_isa::MemSize::B8);
    // Load the two (secret) elements through their (public) indices.
    a.ldx8(va, pdata, i_r);
    a.ldx8(vb, pdata, j_r);
    // Branchless min/max: min = b - (b - a) * (a < b).
    a.sltu(c, va, vb);
    a.sub(d, vb, va);
    a.mul(d, d, c);
    a.sub(mn, vb, d);
    a.add(mx, va, vb);
    a.sub(mx, mx, mn);
    a.stx8(mn, pdata, i_r);
    a.stx8(mx, pdata, j_r);
    a.addi(k, k, 1);
    a.blt(k, npairs, "cmp_loop");
    a.addi(iter, iter, 1);
    a.blt(iter, niter, "iter_loop");
    a.halt();

    let mut image = SparseMem::new();
    image.write_words(CTSORT_PAIRS, pairs.iter().flat_map(|&(i, j)| [i as u64, j as u64]));
    // Secret data: a fixed scrambled permutation of 0..N.
    image.write_words(
        CTSORT_DATA,
        (0..CTSORT_N as u64).map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) & 0xffff),
    );

    Workload {
        name: "djbsort",
        category: Category::ConstantTime,
        description: "constant-time sorting network (djbsort style): public schedule, secret data",
        program: a.assemble().expect("ctsort assembles"),
        image: image.freeze(),
        secret_ranges: vec![(CTSORT_DATA, 8 * CTSORT_N as u64)],
    }
}

/// The constant-time suite, in the paper's order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![bitslice(scale), chacha20(scale), ctsort(scale)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha20_matches_rfc_8439_vector() {
        // RFC 8439 §2.3.2: state after the block function (keystream words).
        let expected: [u64; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
            0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
            0xe883d0cb, 0x4e3c50a2,
        ];
        let w = chacha20_blocks(1);
        let mut i = w.interp();
        i.run(100_000).unwrap();
        assert!(i.halted());
        for (k, &e) in expected.iter().enumerate() {
            let got = i.mem().read(CHACHA_OUT + 8 * k as u64, 8);
            assert_eq!(got, e, "keystream word {k}");
        }
    }

    #[test]
    fn batcher_network_sorts_everything() {
        // Simulate the network on adversarial inputs.
        for n in [2usize, 4, 8, 16, 64] {
            let pairs = batcher_network(n);
            for seed in 0..50u64 {
                let mut data: Vec<u64> = (0..n as u64)
                    .map(|i| {
                        let mut x = (i + 1).wrapping_mul(seed.wrapping_mul(0x9e37) + 0x1234_5677);
                        x ^= x >> 7;
                        x % 97
                    })
                    .collect();
                for &(i, j) in &pairs {
                    assert!(i < j);
                    if data[i] > data[j] {
                        data.swap(i, j);
                    }
                }
                assert!(data.windows(2).all(|w| w[0] <= w[1]), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn ctsort_program_sorts_on_interpreter() {
        let w = ctsort(Scale::Test);
        let mut i = w.interp();
        i.run(3_000_000).unwrap();
        assert!(i.halted());
        let sorted: Vec<u64> =
            (0..CTSORT_N as u64).map(|k| i.mem().read(CTSORT_DATA + 8 * k, 8)).collect();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "{sorted:?}");
    }

    #[test]
    fn bitslice_is_deterministic_and_nontrivial() {
        let w = bitslice(Scale::Test);
        let mut i1 = w.interp();
        i1.run(3_000_000).unwrap();
        let out1: Vec<u64> = (0..5).map(|k| i1.mem().read(BITSLICE_OUT + 8 * k, 8)).collect();
        let mut i2 = w.interp();
        i2.run(3_000_000).unwrap();
        let out2: Vec<u64> = (0..5).map(|k| i2.mem().read(BITSLICE_OUT + 8 * k, 8)).collect();
        assert_eq!(out1, out2);
        assert!(out1.iter().any(|&x| x != 0), "permutation must scramble the state");
    }

    #[test]
    fn ct_kernels_never_leak_secrets_nonspeculatively() {
        // The defining constant-time property, checked on the ground-truth
        // leak trace: no transmitted address or branch outcome may depend
        // on the secret bytes. We verify by flipping secret bits and
        // asserting the leak trace is identical.
        // Each kernel's secret words get a new value in a clone of its
        // image; the base image must not see the writes.
        let flipped = |w: &Workload, flip: fn(u64) -> u64| {
            let mut image = w.image.clone();
            for &(base, len) in &w.secret_ranges {
                for addr in (base..base + len).step_by(8) {
                    image.write(addr, flip(image.read(addr, 8)), 8);
                }
            }
            for &(base, len) in &w.secret_ranges {
                assert_ne!(
                    image.read_bytes(base, len as usize),
                    w.image.read_bytes(base, len as usize),
                    "{}: the flip must change the secret, in the clone only",
                    w.name
                );
            }
            Workload { image, ..w.clone() }
        };
        let chacha = chacha20_blocks(1);
        let sort = ctsort(Scale::Test);
        assert_eq!(chacha.secret_ranges, [(CHACHA_INIT + 32, 64)]);
        assert_eq!(sort.secret_ranges, [(CTSORT_DATA, 8 * CTSORT_N as u64)]);
        for (w_base, w_flipped) in [
            (chacha.clone(), flipped(&chacha, |v| v ^ 0xffff_ffff)),
            (sort.clone(), flipped(&sort, |v| v.wrapping_mul(3).wrapping_add(17) % 9973)),
        ] {
            let trace = |w: &Workload| {
                let mut i = w.interp();
                i.enable_trace();
                i.run(3_000_000).unwrap();
                i.trace().unwrap().to_vec()
            };
            let t1 = trace(&w_base);
            let t2 = trace(&w_flipped);
            assert_eq!(t1, t2, "{}: leak trace must be secret-independent", w_base.name);
        }
    }
}
