//! Property-based tests for the memory hierarchy: functional/timing-split
//! consistency, probe monotonicity, inclusion-style invariants, and a
//! differential check of `Cache` against a reference model with one
//! allocation per set.

use proptest::prelude::*;
use spt_mem::{
    Cache, CacheConfig, CacheGeometry, CacheStats, HierarchyConfig, Level, LineEvent, MemSystem,
};

#[derive(Clone, Debug)]
enum MemOp {
    Read { addr: u32, size_sel: u8 },
    Write { addr: u32, value: u64, size_sel: u8 },
    FlushLine { addr: u32 },
}

fn op_strategy() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (any::<u32>(), any::<u8>()).prop_map(|(addr, size_sel)| MemOp::Read { addr, size_sel }),
        (any::<u32>(), any::<u64>(), any::<u8>())
            .prop_map(|(addr, value, size_sel)| MemOp::Write { addr, value, size_sel }),
        any::<u32>().prop_map(|addr| MemOp::FlushLine { addr }),
    ]
}

fn size(sel: u8) -> u64 {
    [1u64, 2, 4, 8][sel as usize % 4]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The caches are timing-only: an oracle flat memory always agrees
    /// with the hierarchy's functional results, no matter the op sequence.
    #[test]
    fn functional_results_match_flat_memory(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let mut sys = MemSystem::new(HierarchyConfig::default());
        let mut oracle = spt_isa::interp::SparseMem::new();
        let mut now = 0u64;
        for op in &ops {
            now += 500; // generous spacing: no MSHR pressure
            match *op {
                MemOp::Read { addr, size_sel } => {
                    let addr = addr as u64 % 1_000_000;
                    let sz = size(size_sel);
                    let (got, _) = sys.read_timed(addr, sz, now).expect("no busy at this pace");
                    prop_assert_eq!(got, oracle.read(addr, sz));
                }
                MemOp::Write { addr, value, size_sel } => {
                    let addr = addr as u64 % 1_000_000;
                    let sz = size(size_sel);
                    sys.write_timed(addr, value, sz, now).expect("no busy");
                    oracle.write(addr, value, sz);
                }
                MemOp::FlushLine { addr } => {
                    sys.flush_line(addr as u64 % 1_000_000);
                }
            }
        }
    }

    /// Timing sanity: completion is never before the L1 hit latency, and a
    /// repeat access to the same line is at least as fast.
    #[test]
    fn latency_bounds(addr in any::<u32>()) {
        let mut sys = MemSystem::new(HierarchyConfig::default());
        let cfg = *sys.config();
        let addr = addr as u64;
        let (_, first) = sys.read_timed(addr, 8, 0).unwrap();
        prop_assert!(first.done_at >= cfg.l1.hit_latency);
        let (_, second) = sys.read_timed(addr, 8, first.done_at).unwrap();
        prop_assert!(second.done_at - first.done_at <= first.done_at);
        prop_assert_eq!(second.served_by, Level::L1);
    }

    /// Probe never lies: immediately after a completed access, the line is
    /// resident in L1; after flushing, it is gone from every level.
    #[test]
    fn probe_tracks_residency(addr in any::<u32>()) {
        let addr = addr as u64;
        let mut sys = MemSystem::new(HierarchyConfig::default());
        sys.read_timed(addr, 1, 0).unwrap();
        prop_assert_eq!(sys.probe(addr), Level::L1);
        sys.flush_line(addr);
        prop_assert_eq!(sys.probe(addr), Level::Dram);
    }
}

/// One line of the reference model.
#[derive(Clone, Copy, Debug, Default)]
struct RefLine {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// The cache as a plain `Vec` per set, every set allocated up front: the
/// layout `Cache` is checked against.
struct RefCache {
    sets: Vec<Vec<RefLine>>,
    line_bytes: u64,
    tick: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(g: CacheGeometry) -> RefCache {
        RefCache {
            sets: vec![vec![RefLine::default(); g.assoc]; g.sets()],
            line_bytes: g.line_bytes as u64,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets.len() as u64 + set as u64) * self.line_bytes
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    fn lookup(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = self.tick;
            l.dirty |= write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        false
    }

    fn fill(&mut self, addr: u64, write: bool) -> Vec<LineEvent> {
        self.tick += 1;
        let (set, tag) = self.index(addr);
        let ways = &self.sets[set];
        let victim = ways.iter().position(|l| !l.valid).unwrap_or_else(|| {
            (0..ways.len()).min_by_key(|&i| ways[i].lru).expect("a set has ways")
        });
        let old = ways[victim];
        let mut events = Vec::new();
        if old.valid {
            events.push(LineEvent::Evict { line_addr: self.addr_of(set, old.tag) });
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(old.dirty);
        }
        self.sets[set][victim] = RefLine { valid: true, dirty: write, tag, lru: self.tick };
        events.push(LineEvent::Fill { line_addr: addr / self.line_bytes * self.line_bytes });
        events
    }

    fn invalidate(&mut self, addr: u64) -> Option<LineEvent> {
        let (set, tag) = self.index(addr);
        let l = self.sets[set].iter_mut().find(|l| l.valid && l.tag == tag)?;
        l.valid = false;
        l.dirty = false;
        Some(LineEvent::Evict { line_addr: addr / self.line_bytes * self.line_bytes })
    }

    fn flush(&mut self) -> Vec<LineEvent> {
        let mut events = Vec::new();
        for set in 0..self.sets.len() {
            for way in 0..self.sets[set].len() {
                let l = self.sets[set][way];
                if l.valid {
                    events.push(LineEvent::Evict { line_addr: self.addr_of(set, l.tag) });
                    self.sets[set][way].valid = false;
                    self.sets[set][way].dirty = false;
                }
            }
        }
        events
    }

    /// Every non-empty set in order: its index, then its sorted
    /// `(tag, dirty)` pairs.
    fn state_digest(&self) -> u64 {
        let mut h = spt_util::Fnv64::new();
        for (set, ways) in self.sets.iter().enumerate() {
            let mut present: Vec<(u64, bool)> =
                ways.iter().filter(|l| l.valid).map(|l| (l.tag, l.dirty)).collect();
            if present.is_empty() {
                continue;
            }
            present.sort_unstable();
            h.write_u64(set as u64);
            for (tag, dirty) in present {
                h.write_u64(tag);
                h.write_u64(u64::from(dirty));
            }
        }
        h.finish()
    }
}

#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Lookup { write: bool },
    Fill { write: bool },
    Invalidate,
    Flush,
    Probe,
}

/// An op with a set choice, a tag choice and a byte offset. Fills are
/// twice as likely as lookups; one op in 50 flushes the whole cache.
fn cache_op_strategy() -> impl Strategy<Value = (CacheOp, u8, u8, u8)> {
    let op = (0u8..50, any::<bool>()).prop_map(|(n, write)| match n {
        0 => CacheOp::Flush,
        1..=12 => CacheOp::Lookup { write },
        13..=36 => CacheOp::Fill { write },
        37..=43 => CacheOp::Invalidate,
        _ => CacheOp::Probe,
    });
    (op, 0u8..4, any::<u8>(), any::<u8>())
}

/// Runs `ops` on a `Cache` and the reference model of geometry `g`,
/// comparing every result and the observable state after every op.
fn check_against_reference(
    g: CacheGeometry,
    ops: &[(CacheOp, u8, u8, u8)],
) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(CacheConfig { geometry: g, hit_latency: 1, mshrs: 1 });
    let mut model = RefCache::new(g);
    // Four sets, each with `2 * assoc + 2` possible tags, so that sets
    // fill, evict and get invalidated within a few hundred ops.
    let sets = g.sets() as u64;
    let chosen_sets = [0, 1, sets / 2 + 1, sets - 1];
    for &(op, set_sel, tag_sel, offset) in ops {
        let tag = u64::from(tag_sel) % (2 * g.assoc as u64 + 2);
        let line = tag * sets + chosen_sets[usize::from(set_sel)];
        let addr = line * g.line_bytes as u64 + u64::from(offset) % g.line_bytes as u64;
        match op {
            CacheOp::Lookup { write } => {
                prop_assert_eq!(cache.lookup(addr, write), model.lookup(addr, write), "{:?}", op)
            }
            CacheOp::Fill { write } => {
                prop_assert_eq!(cache.fill(addr, write), model.fill(addr, write), "{:?}", op)
            }
            CacheOp::Invalidate => prop_assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
            CacheOp::Flush => prop_assert_eq!(cache.flush(), model.flush()),
            CacheOp::Probe => {}
        }
        prop_assert_eq!(cache.probe(addr), model.probe(addr), "probe {:#x}", addr);
        prop_assert_eq!(cache.state_digest(), model.state_digest(), "after {:?} {:#x}", op, addr);
        prop_assert_eq!(*cache.stats(), model.stats);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// 4 sets x 2 ways: every chosen set fills and evicts within a few ops.
    #[test]
    fn cache_matches_reference_on_a_small_geometry(
        ops in proptest::collection::vec(cache_op_strategy(), 1..300)
    ) {
        let g = CacheGeometry { size_bytes: 512, assoc: 2, line_bytes: 64 };
        check_against_reference(g, &ops)?;
    }

    /// The Table-1 L3 (2048 sets x 16 ways): the geometry whose cold
    /// construction and digest the lazily materialized sets cut.
    #[test]
    fn cache_matches_reference_on_the_l3_geometry(
        ops in proptest::collection::vec(cache_op_strategy(), 1..400)
    ) {
        check_against_reference(HierarchyConfig::default().l3.geometry, &ops)?;
    }
}
