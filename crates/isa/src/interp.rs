//! Reference functional interpreter.
//!
//! Executes a [`Program`] with simple in-order semantics. The out-of-order
//! pipeline in `spt-ooo` must produce exactly the architectural state this
//! interpreter produces, for every protection configuration — protections
//! change *timing*, never *results*. Integration tests enforce this.
//!
//! The interpreter can also record the program's *non-speculative leak
//! trace*: the operand values passed to transmitters (load/store addresses)
//! and control-flow instructions. This is the ground truth for the paper's
//! security definition (§6.2): data is secret iff it never flows into this
//! trace.

use crate::inst::Inst;
use crate::program::Program;
use crate::reg::Reg;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Sparse byte-addressable memory used by the interpreter.
///
/// Memory is a map from page number to a 4 KiB page. An access that stays
/// inside one page costs one map lookup (two if it falls through to the
/// image below); one that crosses a page boundary, or wraps at `u64::MAX`,
/// goes byte by byte.
///
/// A memory can also sit on top of a shared, read-only *image*:
/// [`SparseMem::freeze`] moves every page into the image, and a clone of
/// the frozen memory shares it for the cost of one reference count. Reads
/// look in the memory's own (private) pages first, then in the image. The
/// first write to a page copies the image's page, or a zero page, into the
/// private map; later accesses to it cost exactly what they cost without an
/// image. So a machine started from a workload's image copies only the
/// pages it writes.
#[derive(Clone, Debug, Default)]
pub struct SparseMem {
    pages: PageMap,
    image: Option<Arc<PageMap>>,
}

type PageMap = HashMap<u64, Box<[u8; PAGE]>, BuildHasherDefault<PageHasher>>;

const PAGE: usize = 4096;

/// Hashes a page number with one multiply.
///
/// Page numbers are not attacker-chosen, so SipHash's flooding resistance
/// buys nothing here and costs most of a lookup. The multiply carries every
/// key bit upward, and the final rotate brings the well-mixed high bits down
/// to where the table takes its bucket index.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

/// A private copy of the image's `page`, or a zero page: the first write
/// to a page of a [`SparseMem`].
#[cold]
fn copy_in(image: Option<&PageMap>, page: u64) -> Box<[u8; PAGE]> {
    match image.and_then(|i| i.get(&page)) {
        Some(p) => p.clone(),
        None => Box::new([0; PAGE]),
    }
}

/// Mask of the low `size` bytes (`size <= 8`).
fn low_bytes(size: u64) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * size)) - 1
    }
}

/// Page number and offset within it.
fn split(addr: u64) -> (u64, usize) {
    (addr / PAGE as u64, (addr % PAGE as u64) as usize)
}

impl SparseMem {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> SparseMem {
        SparseMem::default()
    }

    /// Moves every private page into the shared image and returns the
    /// memory, whose clones then share those pages instead of copying
    /// them. No page is copied unless the image is already shared with
    /// another memory.
    pub fn freeze(self) -> SparseMem {
        let image = match self.image {
            None => self.pages,
            Some(image) => {
                let mut image = Arc::unwrap_or_clone(image);
                image.extend(self.pages);
                image
            }
        };
        SparseMem { pages: PageMap::default(), image: Some(Arc::new(image)) }
    }

    /// Number of pages this memory holds privately: pages written since
    /// the last [`SparseMem::freeze`] (a diagnostic of copy-on-write).
    pub fn private_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages in the shared image (0 before the first freeze).
    pub fn image_pages(&self) -> usize {
        self.image.as_ref().map_or(0, |i| i.len())
    }

    #[inline]
    fn page(&self, page: u64) -> Option<&[u8; PAGE]> {
        match self.pages.get(&page) {
            Some(p) => Some(p),
            None => self.image.as_ref()?.get(&page).map(|p| &**p),
        }
    }

    #[inline]
    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE] {
        let image = &self.image;
        self.pages.entry(page).or_insert_with(|| copy_in(image.as_deref(), page))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        let (page, off) = split(addr);
        self.page(page).map_or(0, |p| p[off])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let (page, off) = split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Reads `size` bytes little-endian, zero-extended to 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `size > 8`.
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!(size <= 8);
        let (page, off) = split(addr);
        if off <= PAGE - 8 {
            // One fixed-width load: a variable-length copy would be a
            // `memcpy` call on the simulator's hottest memory path.
            return self.page(page).map_or(0, |p| {
                let word: [u8; 8] = p[off..off + 8].try_into().expect("8 bytes");
                u64::from_le_bytes(word) & low_bytes(size)
            });
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size > 8`.
    pub fn write(&mut self, addr: u64, value: u64, size: u64) {
        assert!(size <= 8);
        let (page, off) = split(addr);
        if off <= PAGE - 8 {
            // Merge into the 8-byte word at `addr`, fixed-width as in `read`.
            let word = &mut self.page_mut(page)[off..off + 8];
            let old = u64::from_le_bytes((&*word).try_into().expect("8 bytes"));
            let mask = low_bytes(size);
            word.copy_from_slice(&((old & !mask) | (value & mask)).to_le_bytes());
            return;
        }
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Copies a byte slice into memory starting at `addr`, wrapping at
    /// `u64::MAX` as [`SparseMem::write`] does.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let (page, off) = split(addr);
            let n = bytes.len().min(PAGE - off);
            self.page_mut(page)[off..off + n].copy_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Writes `words` as consecutive little-endian 8-byte words from
    /// `addr`, wrapping at `u64::MAX` as [`SparseMem::write`] does. The
    /// words land a page at a time, one map lookup per page instead of one
    /// per word, which is how memory images are built.
    pub fn write_words(&mut self, mut addr: u64, words: impl IntoIterator<Item = u64>) {
        let mut words = words.into_iter().fuse();
        self.pages.reserve(words.size_hint().0 / (PAGE / 8));
        while let Some(first) = words.next() {
            let (page, off) = split(addr);
            if off > PAGE - 8 {
                // This word crosses a page boundary.
                self.write(addr, first, 8);
                addr = addr.wrapping_add(8);
                continue;
            }
            let p = self.page_mut(page);
            p[off..off + 8].copy_from_slice(&first.to_le_bytes());
            let mut end = off + 8;
            while end <= PAGE - 8 {
                let Some(w) = words.next() else { break };
                p[end..end + 8].copy_from_slice(&w.to_le_bytes());
                end += 8;
            }
            addr = addr.wrapping_add((end - off) as u64);
        }
    }

    /// Reads `len` bytes starting at `addr`, wrapping at `u64::MAX` as
    /// [`SparseMem::read`] does.
    pub fn read_bytes(&self, mut addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let (page, off) = split(addr);
            let n = (len - out.len()).min(PAGE - off);
            match self.page(page) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u64);
        }
        out
    }
}

/// What a non-speculative leak event revealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeakKind {
    /// A load executed with this address.
    LoadAddr,
    /// A store executed with this address.
    StoreAddr,
    /// A conditional branch resolved with this outcome (0/1).
    BranchOutcome,
    /// An indirect jump/call/return revealed this target.
    JumpTarget,
}

/// One entry of the non-speculative leak trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeakEvent {
    /// PC of the leaking instruction.
    pub pc: u64,
    /// What kind of channel leaked.
    pub kind: LeakKind,
    /// The leaked value (address, outcome bit, or target).
    pub value: u64,
}

/// Error produced by [`Interp::step`] / [`Interp::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The PC left the program text without halting.
    PcOutOfBounds(u64),
    /// `run` exhausted its step budget before `Halt`.
    StepLimit(u64),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::PcOutOfBounds(pc) => write!(f, "pc {pc} out of program bounds"),
            InterpError::StepLimit(n) => write!(f, "program did not halt within {n} steps"),
        }
    }
}

impl Error for InterpError {}

/// Reference interpreter state.
///
/// # Example
///
/// ```
/// use spt_isa::asm::Assembler;
/// use spt_isa::interp::Interp;
/// use spt_isa::Reg;
///
/// let mut a = Assembler::new();
/// a.mov_imm(Reg::R1, 0x100);
/// a.mov_imm(Reg::R2, 99);
/// a.st(Reg::R2, Reg::R1, 0);
/// a.ld(Reg::R3, Reg::R1, 0);
/// a.halt();
/// let p = a.assemble()?;
/// let mut i = Interp::new(&p);
/// i.run(100)?;
/// assert_eq!(i.reg(Reg::R3), 99);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    regs: [u64; Reg::COUNT],
    pc: u64,
    halted: bool,
    retired: u64,
    mem: SparseMem,
    trace: Option<Vec<LeakEvent>>,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at PC 0 with zeroed registers and memory.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            regs: [0; Reg::COUNT],
            pc: 0,
            halted: false,
            retired: 0,
            mem: SparseMem::new(),
            trace: None,
        }
    }

    /// Creates an interpreter with pre-initialized memory.
    pub fn with_memory(program: &'p Program, mem: SparseMem) -> Interp<'p> {
        Interp { mem, ..Interp::new(program) }
    }

    /// Enables recording of the non-speculative leak trace.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// The recorded leak trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[LeakEvent]> {
        self.trace.as_deref()
    }

    /// Current value of `reg`.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.index()]
    }

    /// Sets `reg` (writes to `r0` are ignored).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    /// Read access to memory.
    pub fn mem(&self) -> &SparseMem {
        &self.mem
    }

    /// Mutable access to memory (e.g. for input initialization).
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        &mut self.mem
    }

    /// Whether the program has executed `Halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    fn leak(&mut self, pc: u64, kind: LeakKind, value: u64) {
        if let Some(t) = &mut self.trace {
            t.push(LeakEvent { pc, kind, value });
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::PcOutOfBounds`] if the PC leaves the program.
    pub fn step(&mut self) -> Result<(), InterpError> {
        if self.halted {
            return Ok(());
        }
        let pc = self.pc;
        let inst = self.program.fetch(pc).ok_or(InterpError::PcOutOfBounds(pc))?;
        let mut next = pc + 1;
        match inst {
            Inst::Nop => {}
            Inst::Halt => self.halted = true,
            Inst::MovImm { rd, imm } => self.set_reg(rd, imm as u64),
            Inst::Mov { rd, rs } => self.set_reg(rd, self.reg(rs)),
            Inst::Alu { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)))
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm as u64))
            }
            Inst::Load { rd, base, index, scale, offset, size } => {
                let addr = self
                    .reg(base)
                    .wrapping_add(self.reg(index) << scale)
                    .wrapping_add(offset as u64);
                self.leak(pc, LeakKind::LoadAddr, addr);
                let v = self.mem.read(addr, size.bytes());
                self.set_reg(rd, v);
            }
            Inst::Store { src, base, index, scale, offset, size } => {
                let addr = self
                    .reg(base)
                    .wrapping_add(self.reg(index) << scale)
                    .wrapping_add(offset as u64);
                self.leak(pc, LeakKind::StoreAddr, addr);
                self.mem.write(addr, self.reg(src), size.bytes());
            }
            Inst::Branch { cond, rs1, rs2, target } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                self.leak(pc, LeakKind::BranchOutcome, taken as u64);
                if taken {
                    next = target as u64;
                }
            }
            Inst::Jump { target } => next = target as u64,
            Inst::JumpInd { base } => {
                next = self.reg(base);
                self.leak(pc, LeakKind::JumpTarget, next);
            }
            Inst::Call { target, link } => {
                self.set_reg(link, pc + 1);
                next = target as u64;
            }
            Inst::CallInd { base, link } => {
                self.set_reg(link, pc + 1);
                next = self.reg(base);
                self.leak(pc, LeakKind::JumpTarget, next);
            }
            Inst::Ret { link } => {
                next = self.reg(link);
                self.leak(pc, LeakKind::JumpTarget, next);
            }
        }
        self.retired += 1;
        if !self.halted {
            self.pc = next;
        }
        Ok(())
    }

    /// Runs until `Halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::StepLimit`] if the budget is exhausted, or
    /// [`InterpError::PcOutOfBounds`] if execution escapes the program.
    pub fn run(&mut self, max_steps: u64) -> Result<(), InterpError> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(());
            }
            self.step()?;
        }
        if self.halted {
            Ok(())
        } else {
            Err(InterpError::StepLimit(max_steps))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn sparse_mem_roundtrip() {
        let mut m = SparseMem::new();
        m.write(0x12345, 0xdead_beef_cafe_f00d, 8);
        assert_eq!(m.read(0x12345, 8), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read(0x12345, 4), 0xcafe_f00d);
        assert_eq!(m.read(0x12345, 1), 0x0d);
        // Cross-page write.
        m.write(4095, 0xaabb, 2);
        assert_eq!(m.read_u8(4095), 0xbb);
        assert_eq!(m.read_u8(4096), 0xaa);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SparseMem::new();
        assert_eq!(m.read(0xffff_ffff_0000, 8), 0);
    }

    #[test]
    fn call_ret() {
        let mut a = Assembler::new();
        a.call("double", Reg::R31); // 0
        a.halt(); // 1
        a.label("double");
        a.add(Reg::R1, Reg::R1, Reg::R1); // 2
        a.ret(Reg::R31); // 3
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p);
        i.set_reg(Reg::R1, 21);
        i.run(100).unwrap();
        assert_eq!(i.reg(Reg::R1), 42);
        assert_eq!(i.retired(), 4);
    }

    #[test]
    fn leak_trace_records_transmitters() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0x1000);
        a.ld(Reg::R2, Reg::R1, 8);
        a.st(Reg::R2, Reg::R1, 16);
        a.beq(Reg::R2, Reg::R0, "skip");
        a.nop();
        a.label("skip");
        a.halt();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p);
        i.enable_trace();
        i.run(100).unwrap();
        let trace = i.trace().unwrap();
        assert_eq!(
            trace,
            &[
                LeakEvent { pc: 1, kind: LeakKind::LoadAddr, value: 0x1008 },
                LeakEvent { pc: 2, kind: LeakKind::StoreAddr, value: 0x1010 },
                LeakEvent { pc: 3, kind: LeakKind::BranchOutcome, value: 1 },
            ]
        );
    }

    #[test]
    fn step_limit_error() {
        let mut a = Assembler::new();
        a.label("spin");
        a.jmp("spin");
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(10), Err(InterpError::StepLimit(10)));
    }

    #[test]
    fn pc_out_of_bounds() {
        let p = Program::from_insts(vec![Inst::Nop]);
        let mut i = Interp::new(&p);
        i.step().unwrap();
        assert_eq!(i.step(), Err(InterpError::PcOutOfBounds(1)));
    }

    #[test]
    fn zero_reg_is_never_written() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 55);
        a.halt();
        let p = a.assemble().unwrap();
        let mut i = Interp::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.reg(Reg::R0), 0);
    }

    use crate::program::Program;
}
