//! Property-based tests for the ISA layer: codec round-trips over the full
//! encodable instruction space, interpreter algebraic identities, and
//! sparse-memory consistency.

use proptest::prelude::*;
use spt_isa::encode::{decode, encode};
use spt_isa::interp::SparseMem;
use spt_isa::{AluOp, BranchCond, Inst, MemSize, Reg};
use std::collections::HashMap;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).expect("in range"))
}

fn alu_strategy() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
        Just(AluOp::Mul),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Seq),
        Just(AluOp::Sne),
    ]
}

fn cond_strategy() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn size_strategy() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4), Just(MemSize::B8)]
}

/// Addresses where `SparseMem` changes path: the last 8 bytes of a page (an
/// access there may cross into the next one), the last 8 bytes before
/// `u64::MAX` (an access there wraps to address 0), the first bytes of the
/// address space (where wrapped bytes land), and anywhere inside a page.
fn mem_addr_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..3, 4088u64..4096).prop_map(|(page, off)| page * 4096 + off),
        u64::MAX - 7..=u64::MAX,
        0u64..8,
        (0u64..3, 0u64..4096).prop_map(|(page, off)| page * 4096 + off),
    ]
}

/// One memory operation: `(kind, addr, value, size)`. Kinds 0-1 write,
/// 2-3 read, 4 copies `3 * size` bytes in and back out with
/// `write_bytes`/`read_bytes`, 5 writes `size` words with `write_words`.
fn mem_op_strategy() -> impl Strategy<Value = (u8, u64, u64, u64)> {
    (0u8..6, mem_addr_strategy(), any::<u64>(), prop_oneof![Just(1u64), Just(2), Just(4), Just(8)])
}

/// Byte `a` of a flat model (unwritten bytes read zero).
fn model_byte(model: &HashMap<u64, u8>, a: u64) -> u8 {
    model.get(&a).copied().unwrap_or(0)
}

/// Applies one [`mem_op_strategy`] op to `m` and to the flat `model`,
/// checking every read against the model and, after the op, the touched
/// bytes and 8 neighbours on each side.
fn mem_step(
    m: &mut SparseMem,
    model: &mut HashMap<u64, u8>,
    (kind, addr, value, size): (u8, u64, u64, u64),
) -> Result<(), TestCaseError> {
    let at = |i: u64| addr.wrapping_add(i);
    let touched = match kind {
        0 | 1 => {
            m.write(addr, value, size);
            for i in 0..size {
                model.insert(at(i), (value >> (8 * i)) as u8);
            }
            size
        }
        2 | 3 => {
            let composed =
                (0..size).map(|i| u64::from(m.read_u8(at(i))) << (8 * i)).fold(0, |v, b| v | b);
            let want = (0..size)
                .map(|i| u64::from(model_byte(model, at(i))) << (8 * i))
                .fold(0, |v, b| v | b);
            prop_assert_eq!(m.read(addr, size), composed, "read({:#x}, {})", addr, size);
            prop_assert_eq!(composed, want, "read({:#x}, {})", addr, size);
            size
        }
        4 => {
            let bytes: Vec<u8> =
                (0..3 * size).map(|i| (value >> (8 * (i % 8))) as u8 ^ i as u8).collect();
            m.write_bytes(addr, &bytes);
            for (i, &b) in bytes.iter().enumerate() {
                model.insert(at(i as u64), b);
            }
            prop_assert_eq!(m.read_bytes(addr, bytes.len()), bytes);
            3 * size
        }
        _ => {
            // `size` consecutive words, as memory images are built.
            let words: Vec<u64> = (0..size).map(|i| value.rotate_left(8 * i as u32) ^ i).collect();
            m.write_words(addr, words.iter().copied());
            for (i, w) in words.iter().enumerate() {
                for (j, &b) in w.to_le_bytes().iter().enumerate() {
                    model.insert(at(8 * i as u64 + j as u64), b);
                }
            }
            8 * size
        }
    };
    for i in 0..touched + 16 {
        let a = addr.wrapping_sub(8).wrapping_add(i);
        prop_assert_eq!(
            m.read_u8(a),
            model_byte(model, a),
            "byte {:#x} after op at {:#x}",
            a,
            addr
        );
    }
    Ok(())
}

/// `m` agrees with `model` on every byte the model holds and on 64 bytes
/// around each probe address, by `read_u8` and by `read_bytes`.
fn same_bytes(
    m: &SparseMem,
    model: &HashMap<u64, u8>,
    probes: &[u64],
    what: &str,
) -> Result<(), TestCaseError> {
    for (&a, &b) in model {
        prop_assert_eq!(m.read_u8(a), b, "{}: byte {:#x}", what, a);
    }
    for &p in probes {
        let start = p.wrapping_sub(16);
        let want: Vec<u8> = (0..64).map(|i| model_byte(model, start.wrapping_add(i))).collect();
        prop_assert_eq!(m.read_bytes(start, 64), want, "{}: 64 bytes at {:#x}", what, start);
    }
    Ok(())
}

const IMM_MAX: i64 = (1 << 34) - 1;

fn inst_strategy() -> impl Strategy<Value = Inst> {
    let imm = -(1i64 << 34)..=IMM_MAX;
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        (reg_strategy(), imm.clone()).prop_map(|(rd, imm)| Inst::MovImm { rd, imm }),
        (reg_strategy(), reg_strategy()).prop_map(|(rd, rs)| Inst::Mov { rd, rs }),
        (alu_strategy(), reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(op, rd, rs1, rs2)| Inst::Alu { op, rd, rs1, rs2 }),
        (alu_strategy(), reg_strategy(), reg_strategy(), imm.clone())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        (reg_strategy(), reg_strategy(), reg_strategy(), 0u8..4, imm.clone(), size_strategy())
            .prop_map(|(rd, base, index, scale, offset, size)| Inst::Load {
                rd,
                base,
                index,
                scale,
                offset,
                size
            }),
        (reg_strategy(), reg_strategy(), reg_strategy(), 0u8..4, imm, size_strategy()).prop_map(
            |(src, base, index, scale, offset, size)| Inst::Store {
                src,
                base,
                index,
                scale,
                offset,
                size
            }
        ),
        (cond_strategy(), reg_strategy(), reg_strategy(), any::<u32>())
            .prop_map(|(cond, rs1, rs2, target)| Inst::Branch { cond, rs1, rs2, target }),
        any::<u32>().prop_map(|target| Inst::Jump { target }),
        reg_strategy().prop_map(|base| Inst::JumpInd { base }),
        (any::<u32>(), reg_strategy()).prop_map(|(target, link)| Inst::Call { target, link }),
        (reg_strategy(), reg_strategy()).prop_map(|(base, link)| Inst::CallInd { base, link }),
        reg_strategy().prop_map(|link| Inst::Ret { link }),
    ]
}

proptest! {
    /// decode(encode(i)) == i for every encodable instruction.
    #[test]
    fn codec_roundtrip(inst in inst_strategy()) {
        let word = encode(inst).expect("in-range instruction encodes");
        prop_assert_eq!(decode(word).expect("decodes"), inst);
    }

    /// The branch condition and its negation partition every input pair.
    #[test]
    fn branch_negation_partitions(cond in cond_strategy(), a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(cond.eval(a, b), cond.negate().eval(a, b));
    }

    /// ALU identities the backward-untaint rules rely on: invertible ops
    /// really are invertible.
    #[test]
    fn invertible_ops_are_invertible(a in any::<u64>(), b in any::<u64>()) {
        let sum = AluOp::Add.eval(a, b);
        prop_assert_eq!(AluOp::Sub.eval(sum, b), a);
        let diff = AluOp::Sub.eval(a, b);
        prop_assert_eq!(AluOp::Add.eval(diff, b), a);
        let x = AluOp::Xor.eval(a, b);
        prop_assert_eq!(AluOp::Xor.eval(x, b), a);
    }

    /// Memory writes then reads of arbitrary sizes round-trip the written
    /// (truncated) bytes, including across page boundaries.
    #[test]
    fn sparse_mem_write_read(addr in 0u64..100_000, value in any::<u64>(), size_sel in 0usize..4) {
        let size = [1u64, 2, 4, 8][size_sel];
        let mut m = SparseMem::new();
        m.write(addr, value, size);
        let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
        prop_assert_eq!(m.read(addr, size), value & mask);
    }

    /// Writes to disjoint ranges never interfere.
    #[test]
    fn sparse_mem_disjoint_writes(
        a in 0u64..50_000, va in any::<u64>(), vb in any::<u64>()
    ) {
        let b = a + 8;
        let mut m = SparseMem::new();
        m.write(a, va, 8);
        m.write(b, vb, 8);
        prop_assert_eq!(m.read(a, 8), va);
        prop_assert_eq!(m.read(b, 8), vb);
    }

    /// Word and slice accesses agree with a byte-wise oracle over mixed-size
    /// sequences that cross pages and wrap at `u64::MAX`: every read equals
    /// the composition of `read_u8`, and a write changes exactly its own
    /// bytes.
    #[test]
    fn sparse_mem_matches_bytewise_oracle(
        ops in proptest::collection::vec(mem_op_strategy(), 1..48)
    ) {
        let mut m = SparseMem::new();
        let mut oracle = HashMap::new();
        for op in ops {
            mem_step(&mut m, &mut oracle, op)?;
        }
    }

    /// Clones of a frozen image behave like a flat byte map: reads fall
    /// through to the image, the first write to a page copies it, and a
    /// write to one clone is invisible to the image and to a sibling clone.
    /// Freezing a clone whose image is shared keeps its contents.
    #[test]
    fn frozen_image_clones_match_a_flat_model(
        setup in proptest::collection::vec(mem_op_strategy(), 0..24),
        ops_a in proptest::collection::vec(mem_op_strategy(), 1..32),
        ops_b in proptest::collection::vec(mem_op_strategy(), 0..16),
    ) {
        let mut image = SparseMem::new();
        let mut base = HashMap::new();
        for op in setup {
            mem_step(&mut image, &mut base, op)?;
        }
        let image = image.freeze();
        prop_assert_eq!(image.private_pages(), 0);
        let (mut a, mut model_a) = (image.clone(), base.clone());
        let (mut b, mut model_b) = (image.clone(), base.clone());
        prop_assert_eq!(a.private_pages(), 0, "a clone copies no page");
        for &op in &ops_a {
            mem_step(&mut a, &mut model_a, op)?;
        }
        let probes: Vec<u64> = ops_a.iter().chain(&ops_b).map(|&(_, addr, ..)| addr).collect();
        same_bytes(&image, &base, &probes, "image after writes to a clone")?;
        same_bytes(&b, &base, &probes, "sibling after writes to a clone")?;
        for &op in &ops_b {
            mem_step(&mut b, &mut model_b, op)?;
        }
        same_bytes(&a, &model_a, &probes, "clone after writes to its sibling")?;
        let a = a.freeze();
        prop_assert_eq!(a.private_pages(), 0);
        same_bytes(&a, &model_a, &probes, "clone after its own freeze")?;
        same_bytes(&image, &base, &probes, "image after a clone's freeze")?;
    }

    /// Sources/dest classification is stable: every instruction has at
    /// most 3 sources, and leak-role sources imply the instruction is a
    /// transmitter or control flow.
    #[test]
    fn operand_classification_invariants(inst in inst_strategy()) {
        let srcs = inst.sources();
        prop_assert!(srcs.len() <= 3);
        for (_, role) in srcs.iter() {
            if role.leaks_at_vp() {
                prop_assert!(
                    inst.is_transmitter() || inst.is_control_flow(),
                    "leaking operand on non-transmitter {inst:?}"
                );
            }
        }
        if let Some(d) = inst.dest() {
            prop_assert!(!d.is_zero());
        }
    }
}
