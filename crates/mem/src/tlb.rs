//! Data TLB model.
//!
//! The TLB is one of the paper's §2.1 covert channels ("attacks have been
//! demonstrated that create program data-dependent contention on ... TLBs
//! ... page tables"), which is why §7.4 delays a protected load/store's
//! *entire* execution — "including TLB accesses, etc." — until its address
//! operands are untainted. The simulator performs translation at issue
//! time, so that gating automatically covers the TLB channel; this module
//! supplies the timing: a TLB miss adds a page-walk latency to the access.
//!
//! Translation itself is identity (the simulator is single-address-space);
//! only the timing and the reach-tracking matter.

/// A set-associative data TLB with LRU replacement.
///
/// # Example
///
/// ```
/// use spt_mem::Tlb;
/// let mut tlb = Tlb::new(64, 4, 30);
/// assert_eq!(tlb.translate(0x1234), 30, "cold miss pays the walk");
/// assert_eq!(tlb.translate(0x1ff8), 0, "same page hits");
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    sets: Vec<Vec<TlbEntry>>,
    // Precomputed at construction (set count validated power-of-two there);
    // `translate` runs on every memory issue and must not redo the math.
    set_mask: usize,
    walk_latency: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct TlbEntry {
    valid: bool,
    vpn: u64,
    lru: u64,
}

impl Tlb {
    /// Page size in bytes.
    pub const PAGE: u64 = 4096;

    /// Creates a TLB with `entries` total entries, `assoc` ways, and a
    /// fixed `walk_latency` charged on each miss.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc` with a
    /// power-of-two set count.
    pub fn new(entries: usize, assoc: usize, walk_latency: u64) -> Tlb {
        assert!(assoc > 0 && entries.is_multiple_of(assoc), "inconsistent TLB geometry");
        let sets = entries / assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            sets: vec![vec![TlbEntry::default(); assoc]; sets],
            set_mask: sets - 1,
            walk_latency,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `addr`, returning the extra latency (0 on a hit, the
    /// page-walk latency on a miss). Fills the entry on a miss.
    pub fn translate(&mut self, addr: u64) -> u64 {
        self.tick += 1;
        let vpn = addr / Self::PAGE;
        let set_idx = (vpn as usize) & self.set_mask;
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        for e in set.iter_mut() {
            if e.valid && e.vpn == vpn {
                e.lru = tick;
                self.hits += 1;
                return 0;
            }
        }
        self.misses += 1;
        let victim = set.iter().position(|e| !e.valid).unwrap_or_else(|| {
            set.iter().enumerate().min_by_key(|(_, e)| e.lru).map(|(i, _)| i).expect("ways")
        });
        set[victim] = TlbEntry { valid: true, vpn, lru: tick };
        self.walk_latency
    }

    /// Whether a page is currently cached, without disturbing state (the
    /// TLB-side attacker observation).
    pub fn probe(&self, addr: u64) -> bool {
        let vpn = addr / Self::PAGE;
        let set = &self.sets[(vpn as usize) & self.set_mask];
        set.iter().any(|e| e.valid && e.vpn == vpn)
    }

    /// Folds the attacker-observable reach state into a digest: for every
    /// set, the sorted VPNs of its valid entries (a contention-channel
    /// attacker learns exactly which pages are cached). LRU ticks are
    /// excluded for the same reason as in `Cache::fold_state`.
    pub fn fold_state(&self, h: &mut spt_util::Fnv64) {
        let mut vpns = Vec::new();
        for (set_idx, set) in self.sets.iter().enumerate() {
            vpns.clear();
            vpns.extend(set.iter().filter(|e| e.valid).map(|e| e.vpn));
            if vpns.is_empty() {
                continue;
            }
            vpns.sort_unstable();
            h.write_u64(set_idx as u64);
            for &vpn in &vpns {
                h.write_u64(vpn);
            }
        }
    }

    /// One-shot [`Self::fold_state`] digest.
    pub fn state_digest(&self) -> u64 {
        let mut h = spt_util::Fnv64::new();
        self.fold_state(&mut h);
        h.finish()
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses (page walks) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(8, 2, 25);
        assert_eq!(t.translate(0x0000), 25);
        assert_eq!(t.translate(0x0fff), 0, "same page");
        assert_eq!(t.translate(0x1000), 25, "next page misses");
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = Tlb::new(8, 2, 25); // 4 sets
                                        // Pages mapping to the same set: vpn step = 4.
        let page = |i: u64| i * 4 * Tlb::PAGE;
        t.translate(page(0));
        t.translate(page(1));
        t.translate(page(0)); // touch: page(1) becomes LRU
        t.translate(page(2)); // evicts page(1)
        assert!(t.probe(page(0)));
        assert!(!t.probe(page(1)));
        assert!(t.probe(page(2)));
    }

    // Regression companion to the cache-geometry fix: a non-pow2 set
    // count would make the `set_mask` indexing alias sets.
    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_set_count_rejected() {
        let _ = Tlb::new(12, 2, 25); // 6 sets
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut t = Tlb::new(8, 2, 25);
        t.translate(0x5000);
        let (h, m) = (t.hits(), t.misses());
        assert!(t.probe(0x5000));
        assert!(!t.probe(0x9000));
        assert_eq!((t.hits(), t.misses()), (h, m));
    }
}
