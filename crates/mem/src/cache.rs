//! A single set-associative, write-back, write-allocate cache with LRU
//! replacement and a bounded MSHR file.

use std::fmt;
use std::ops::Range;

/// Geometric parameters of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// This is the construction-time validator: indexing uses masks derived
    /// from it exactly once (in [`Cache::new`] / `Tlb::new`), so the
    /// assertions here run per cache built, not per access.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent: capacity not divisible by
    /// `assoc * line_bytes`, line size not a power of two, or a
    /// non-power-of-two set count. The last is load-bearing for
    /// correctness, not just speed — set selection masks with `sets - 1`
    /// while the tag drops `log2(sets)` bits, and both are only consistent
    /// when `sets` is a power of two (a non-pow2 count would silently alias
    /// distinct lines into one set while giving them distinct tags).
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let per_way = self.size_bytes / self.assoc;
        assert!(
            per_way.is_multiple_of(self.line_bytes) && per_way > 0,
            "inconsistent cache geometry {self:?}"
        );
        let sets = per_way / self.line_bytes;
        assert!(sets.is_power_of_two(), "set count {sets} must be a power of two ({self:?})");
        sets
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }
}

/// Full configuration of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Geometry (capacity, associativity, line size).
    pub geometry: CacheGeometry,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
    /// Number of miss-status-holding registers (outstanding misses).
    pub mshrs: usize,
}

/// Counters accumulated by a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Accesses rejected because all MSHRs were busy.
    pub mshr_rejections: u64,
}

impl CacheStats {
    /// Miss rate over all accesses, or 0 if there were none.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A line-granularity state-change event, reported so that SPT's shadow L1
/// (paper §7.5) can mirror fill/evict decisions without owning tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A line was filled (allocated); its shadow taint must be set to
    /// all-tainted (paper §7.5: "when an L1D line is filled, it is
    /// considered tainted").
    Fill {
        /// Line-aligned address of the filled line.
        line_addr: u64,
    },
    /// A line was evicted or invalidated.
    Evict {
        /// Line-aligned address of the evicted line.
        line_addr: u64,
    },
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

#[derive(Clone, Copy, Debug)]
struct Mshr {
    line_addr: u64,
    ready_at: u64,
}

/// The result of a tag lookup with fill-on-miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// For a miss that coalesced onto an in-flight MSHR for the same line,
    /// the cycle at which that miss completes.
    pub coalesced_ready_at: Option<u64>,
    /// L1-relevant line events (fills/evictions) caused by this access.
    pub events: Vec<LineEvent>,
}

/// One level of the cache hierarchy.
///
/// Sets are materialized on their first fill, so a cold cache costs what it
/// touches rather than its capacity. `lines` starts as one block of `assoc`
/// invalid lines that every never-filled set shares; `slot[s]` is the
/// offset of set `s`'s ways in `lines`, and 0 until `s` is first filled.
/// A never-filled set therefore reads as all-invalid with no branch, and
/// only `fill` may write a line that is not already valid.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    slot: Vec<u32>,
    // `u32` like the offsets, so `slot + assoc` cannot overflow and the
    // hot path bounds-checks a set's ways with one compare.
    assoc: u32,
    mshrs: Vec<Mshr>,
    tick: u64,
    stats: CacheStats,
    // Indexing constants derived from the geometry once at construction
    // (validated by `CacheGeometry::sets`); set selection and tag
    // extraction sit on the hottest loop in the simulator and must not
    // re-run the geometry assertions per access.
    set_mask: usize,
    line_shift: u32,
    set_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent geometry (see [`CacheGeometry::sets`]),
    /// or if the lines of every set plus the shared block overflow a `u32`
    /// offset.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.geometry.sets();
        let assoc = cfg.geometry.assoc;
        assert!(u32::try_from((sets + 1) * assoc).is_ok(), "too many lines for u32 set offsets");
        Cache {
            cfg,
            lines: vec![Line::default(); assoc],
            slot: vec![0; sets],
            assoc: assoc as u32,
            mshrs: Vec::with_capacity(cfg.mshrs),
            tick: 0,
            stats: CacheStats::default(),
            set_mask: sets - 1,
            line_shift: cfg.geometry.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
        }
    }

    #[inline]
    fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & self.set_mask
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) >> self.set_shift
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr & !((1u64 << self.line_shift) - 1)
    }

    /// Where set `set_idx`'s ways sit in `lines` (the shared invalid block
    /// if the set was never filled).
    #[inline]
    fn ways(&self, set_idx: usize) -> Range<usize> {
        let base = self.slot[set_idx] as usize;
        base..base + self.assoc as usize
    }

    /// The address of the line with `tag` in set `set_idx`.
    fn addr_of(&self, tag: u64, set_idx: usize) -> u64 {
        (tag * self.slot.len() as u64 + set_idx as u64) * self.cfg.geometry.line_bytes as u64
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Checks whether a line is present *without* disturbing LRU state or
    /// statistics. This is the attacker's observation primitive and is also
    /// used by tests.
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag(addr);
        self.lines[self.ways(self.set_index(addr))].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Returns `true` if a free MSHR is available at `now` (expired entries
    /// are recycled), or if the line at `addr` can coalesce onto an
    /// outstanding miss.
    pub fn mshr_available(&mut self, addr: u64, now: u64) -> bool {
        self.expire_mshrs(now);
        let line = self.line_of(addr);
        self.mshrs.len() < self.cfg.mshrs || self.mshrs.iter().any(|m| m.line_addr == line)
    }

    /// The earliest cycle at which an MSHR will free up.
    pub fn earliest_mshr_free(&self) -> Option<u64> {
        self.mshrs.iter().map(|m| m.ready_at).min()
    }

    /// Number of misses still outstanding at `now` (telemetry probe; does
    /// not recycle expired entries).
    pub fn mshrs_in_flight(&self, now: u64) -> usize {
        self.mshrs.iter().filter(|m| m.ready_at > now).count()
    }

    /// The earliest cycle after `now` at which an outstanding miss
    /// completes, i.e. the next cycle at which
    /// [`Self::mshrs_in_flight`] changes. Entries that already expired but
    /// were not yet recycled are ignored.
    pub fn next_mshr_expiry(&self, now: u64) -> Option<u64> {
        self.mshrs.iter().map(|m| m.ready_at).filter(|&t| t > now).min()
    }

    fn expire_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|m| m.ready_at > now);
    }

    /// Records an outstanding miss completing at `ready_at`.
    ///
    /// Returns `false` (and counts an MSHR rejection) if no MSHR is free;
    /// returns `true` without allocating if the line already has one.
    pub fn allocate_mshr(&mut self, addr: u64, now: u64, ready_at: u64) -> bool {
        self.expire_mshrs(now);
        let line = self.line_of(addr);
        if self.mshrs.iter().any(|m| m.line_addr == line) {
            return true;
        }
        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.mshr_rejections += 1;
            return false;
        }
        self.mshrs.push(Mshr { line_addr: line, ready_at });
        true
    }

    /// The completion cycle of an outstanding miss on `addr`'s line, if any.
    pub fn outstanding_miss(&self, addr: u64) -> Option<u64> {
        let line = self.line_of(addr);
        self.mshrs.iter().find(|m| m.line_addr == line).map(|m| m.ready_at)
    }

    /// Performs a tag lookup; on hit, updates LRU (and dirtiness for
    /// writes). Does *not* fill on miss — the hierarchy decides that.
    pub fn lookup(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let tag = self.tag(addr);
        let set_idx = self.set_index(addr);
        let tick = self.tick;
        let ways = self.ways(set_idx);
        // A hit writes only a valid line, so the shared block stays invalid.
        for line in &mut self.lines[ways] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                if write {
                    line.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Allocates a line for `addr` (after a miss), evicting the LRU way if
    /// needed. Returns the events (eviction, then fill).
    pub fn fill(&mut self, addr: u64, write: bool) -> Vec<LineEvent> {
        self.tick += 1;
        let tag = self.tag(addr);
        let set_idx = self.set_index(addr);
        let line_addr = self.line_of(addr);
        let tick = self.tick;

        if self.slot[set_idx] == 0 {
            // First fill of this set: give it ways of its own.
            self.slot[set_idx] = self.lines.len() as u32;
            self.lines.resize(self.lines.len() + self.assoc as usize, Line::default());
        }
        let ways = self.ways(set_idx);
        let mut events = Vec::new();
        let set = &self.lines[ways.clone()];
        // Prefer an invalid way; otherwise evict LRU.
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("cache set cannot be empty")
        });
        let v = set[victim];
        if v.valid {
            events.push(LineEvent::Evict { line_addr: self.addr_of(v.tag, set_idx) });
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.lines[ways.start + victim] = Line { valid: true, dirty: write, tag, lru: tick };
        events.push(LineEvent::Fill { line_addr });
        events
    }

    /// Folds the attacker-observable tag state into a digest: for every
    /// set, the sorted `(tag, dirty)` pairs of its valid lines.
    ///
    /// This is exactly the state a probe-based receiver can reconstruct
    /// (which lines are present, and — via writeback timing — which are
    /// dirty). LRU tick values are deliberately excluded: they encode the
    /// absolute access count, not a per-line observable, and would make
    /// digests of behaviourally identical runs differ spuriously.
    ///
    /// Never-filled sets hold no valid line and add nothing, so only
    /// filled sets are visited, in set order.
    pub fn fold_state(&self, h: &mut spt_util::Fnv64) {
        let mut present: Vec<(u64, bool)> = Vec::with_capacity(self.assoc as usize);
        for (set_idx, &base) in self.slot.iter().enumerate() {
            if base == 0 {
                continue;
            }
            present.clear();
            let ways = &self.lines[self.ways(set_idx)];
            present.extend(ways.iter().filter(|l| l.valid).map(|l| (l.tag, l.dirty)));
            if present.is_empty() {
                continue;
            }
            present.sort_unstable();
            h.write_u64(set_idx as u64);
            for &(tag, dirty) in &present {
                h.write_u64(tag);
                h.write_u64(u64::from(dirty));
            }
        }
    }

    /// One-shot [`Self::fold_state`] digest.
    pub fn state_digest(&self) -> u64 {
        let mut h = spt_util::Fnv64::new();
        self.fold_state(&mut h);
        h.finish()
    }

    /// Invalidates the line containing `addr` if present, returning the
    /// eviction event.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineEvent> {
        let tag = self.tag(addr);
        let set_idx = self.set_index(addr);
        let line_addr = self.line_of(addr);
        let ways = self.ways(set_idx);
        for line in &mut self.lines[ways] {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                return Some(LineEvent::Evict { line_addr });
            }
        }
        None
    }

    /// Invalidates every line (used between penetration-test phases).
    pub fn flush(&mut self) -> Vec<LineEvent> {
        let mut events = Vec::new();
        for set_idx in 0..self.slot.len() {
            if self.slot[set_idx] == 0 {
                continue;
            }
            for way in self.ways(set_idx) {
                let line = self.lines[way];
                if line.valid {
                    events.push(LineEvent::Evict { line_addr: self.addr_of(line.tag, set_idx) });
                    self.lines[way] = Line { valid: false, dirty: false, ..line };
                }
            }
        }
        events
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}B {}-way {}B-line cache: {} hits, {} misses ({:.1}% miss)",
            self.cfg.geometry.size_bytes,
            self.cfg.geometry.assoc,
            self.cfg.geometry.line_bytes,
            self.stats.hits,
            self.stats.misses,
            self.stats.miss_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            geometry: CacheGeometry { size_bytes: 512, assoc: 2, line_bytes: 64 },
            hit_latency: 2,
            mshrs: 2,
        })
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry { size_bytes: 32 * 1024, assoc: 8, line_bytes: 64 };
        assert_eq!(g.sets(), 64);
        assert_eq!(g.line_addr(0x12345), 0x12340);
    }

    // Regression: a geometry with a non-power-of-two set count (3 sets
    // here) used to pass `sets()` validation while `set_index` masked with
    // `sets - 1`, silently aliasing sets 1/2/3 and making tag/index
    // inconsistent. It must be rejected at validation time.
    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_set_count_rejected() {
        let g = CacheGeometry { size_bytes: 3 * 64, assoc: 1, line_bytes: 64 };
        let _ = g.sets();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_cache_construction_rejected() {
        let _ = Cache::new(CacheConfig {
            geometry: CacheGeometry { size_bytes: 6 * 64, assoc: 2, line_bytes: 64 },
            hit_latency: 1,
            mshrs: 1,
        });
    }

    #[test]
    fn mshrs_in_flight_counts_outstanding() {
        let mut c = small_cache();
        assert_eq!(c.mshrs_in_flight(0), 0);
        c.allocate_mshr(0x1000, 0, 100);
        c.allocate_mshr(0x2000, 0, 50);
        assert_eq!(c.mshrs_in_flight(0), 2);
        assert_eq!(c.mshrs_in_flight(50), 1); // the 0x2000 miss completed
        assert_eq!(c.mshrs_in_flight(100), 0);
    }

    #[test]
    fn next_mshr_expiry_skips_expired_entries() {
        let mut c = small_cache();
        assert_eq!(c.next_mshr_expiry(0), None);
        c.allocate_mshr(0x1000, 0, 100);
        c.allocate_mshr(0x2000, 0, 50);
        assert_eq!(c.next_mshr_expiry(0), Some(50));
        assert_eq!(c.next_mshr_expiry(49), Some(50));
        // Expired at 50 but not yet recycled: the next change is at 100.
        assert_eq!(c.next_mshr_expiry(50), Some(100));
        assert_eq!(c.next_mshr_expiry(100), None);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert!(!c.lookup(0x1000, false));
        c.fill(0x1000, false);
        assert!(c.lookup(0x1000, false));
        assert!(c.lookup(0x1038, false), "same line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small_cache();
        c.fill(0x1000, false);
        let before = *c.stats();
        assert!(c.probe(0x1000));
        assert!(!c.probe(0x2000));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // Set index = (addr/64) & 3. Addresses with the same set: step 256.
        c.fill(0x0, false); // set 0
        c.fill(0x100, false); // set 0
        c.lookup(0x0, false); // touch first line: now 0x100 is LRU
        let events = c.fill(0x200, false);
        assert!(events.contains(&LineEvent::Evict { line_addr: 0x100 }));
        assert!(c.probe(0x0));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn dirty_writeback_counted() {
        let mut c = small_cache();
        c.fill(0x0, true); // dirty fill
        c.fill(0x100, false);
        c.fill(0x200, false); // evicts 0x0 (LRU), which is dirty
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn mshr_limits_and_coalescing() {
        let mut c = small_cache(); // 2 MSHRs
        assert!(c.allocate_mshr(0x1000, 0, 100));
        assert!(c.allocate_mshr(0x2000, 0, 120));
        // Same line as the first: coalesces, no new MSHR.
        assert!(c.allocate_mshr(0x1020, 0, 999));
        assert_eq!(c.outstanding_miss(0x1008), Some(100));
        // A third distinct line is rejected.
        assert!(!c.allocate_mshr(0x3000, 0, 130));
        assert_eq!(c.stats().mshr_rejections, 1);
        // After the first completes, space frees up.
        assert!(c.allocate_mshr(0x3000, 101, 130));
    }

    fn l3_geometry_cache() -> Cache {
        Cache::new(HierarchyConfig::default().l3)
    }

    #[test]
    fn sets_are_materialized_on_first_fill() {
        let mut c = l3_geometry_cache();
        let (assoc, sets) = (c.assoc as usize, c.slot.len() as u64);
        assert_eq!(c.lines.len(), assoc, "a fresh cache holds only the shared block");
        // Three distinct sets, the first filled twice (same set, new tag).
        for addr in [0x0, 0x40, 0x80, sets * 64] {
            c.fill(addr, false);
        }
        assert_eq!(c.lines.len(), 4 * assoc, "k = 3 filled sets hold (k + 1) * assoc lines");
        assert!(c.lookup(0x40, false) && !c.lookup(0xc0, false));
        assert!(c.lines[..assoc].iter().all(|l| !l.valid), "the shared block stays invalid");
    }

    #[test]
    fn an_emptied_set_folds_like_a_never_filled_one() {
        let mut c = l3_geometry_cache();
        let cold = c.state_digest();
        c.fill(0x1000, true);
        assert_ne!(c.state_digest(), cold);
        assert_eq!(c.invalidate(0x1000), Some(LineEvent::Evict { line_addr: 0x1000 }));
        assert_eq!(c.state_digest(), cold);
        c.fill(0x2000, false);
        c.flush();
        assert_eq!(c.state_digest(), cold);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small_cache();
        c.fill(0x0, false);
        c.fill(0x40, false);
        assert_eq!(c.invalidate(0x0), Some(LineEvent::Evict { line_addr: 0x0 }));
        assert_eq!(c.invalidate(0x0), None);
        let evs = c.flush();
        assert_eq!(evs, vec![LineEvent::Evict { line_addr: 0x40 }]);
        assert!(!c.probe(0x40));
    }
}
