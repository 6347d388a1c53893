//! TAGE conditional-branch predictor (LTAGE-style, paper Table 1).
//!
//! A bimodal base table plus [`Tage::TABLES`] tagged components with
//! geometrically increasing history lengths. Prediction is provided by the
//! longest-history component whose tag matches; allocation on misprediction
//! follows the standard TAGE policy with usefulness counters and periodic
//! decay.

use crate::ghr::Ghr;

/// Per-prediction bookkeeping carried from predict to update.
#[derive(Clone, Debug)]
pub struct PredictInfo {
    /// Final predicted direction.
    pub pred: bool,
    /// Providing tagged table, or `None` for the bimodal base.
    provider: Option<usize>,
    /// Prediction of the alternate provider.
    altpred: bool,
    /// Whether the alternate provider was a tagged table.
    alt_is_tagged: bool,
    /// Index computed per tagged table.
    indices: [usize; Tage::TABLES],
    /// Tag computed per tagged table.
    tags: [u16; Tage::TABLES],
    /// Bimodal index.
    bim_idx: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8,    // 3-bit signed: -4..=3
    useful: u8, // 2-bit
}

/// The TAGE predictor.
#[derive(Clone, Debug)]
pub struct Tage {
    bimodal: Vec<u8>, // 2-bit counters
    tables: Vec<Vec<TaggedEntry>>,
    lfsr: u32,
    updates: u64,
}

impl Tage {
    /// Number of tagged components.
    pub const TABLES: usize = 4;
    pub(crate) const HIST_LENS: [u32; Self::TABLES] = [8, 16, 44, 130];
    pub(crate) const TABLE_BITS: u32 = 10; // 1024 entries
    /// Equal to `TABLE_BITS`, so one folded register serves the index and
    /// the first tag hash.
    pub(crate) const TAG_BITS: u32 = Self::TABLE_BITS;
    const BIM_BITS: u32 = 12; // 4096 entries
    const U_DECAY_PERIOD: u64 = 1 << 18;

    /// Creates an untrained predictor (bimodal weakly not-taken).
    pub fn new() -> Tage {
        Tage {
            bimodal: vec![1; 1 << Self::BIM_BITS],
            tables: vec![vec![TaggedEntry::default(); 1 << Self::TABLE_BITS]; Self::TABLES],
            lfsr: 0xace1,
            updates: 0,
        }
    }

    fn bim_index(pc: u64) -> usize {
        (pc as usize) & ((1 << Self::BIM_BITS) - 1)
    }

    // Fold `2 * table` is the table's history folded to `TABLE_BITS`
    // (= `TAG_BITS`) and fold `2 * table + 1` to `TAG_BITS - 1`; see
    // `Ghr::FOLDS`.
    fn index(pc: u64, ghr: &Ghr, table: usize) -> usize {
        let h = ghr.folded(2 * table);
        ((pc as u32) ^ (pc as u32 >> Self::TABLE_BITS) ^ h) as usize & ((1 << Self::TABLE_BITS) - 1)
    }

    fn tag(pc: u64, ghr: &Ghr, table: usize) -> u16 {
        let h1 = ghr.folded(2 * table);
        let h2 = ghr.folded(2 * table + 1) << 1;
        (((pc as u32) ^ h1 ^ h2) & ((1 << Self::TAG_BITS) - 1)) as u16
    }

    fn next_rand(&mut self) -> u32 {
        // 16-bit Galois LFSR: deterministic allocation tie-breaking.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb == 1 {
            self.lfsr ^= 0xb400;
        }
        self.lfsr
    }

    /// Predicts the direction of the branch at `pc` under history `ghr`.
    pub fn predict(&self, pc: u64, ghr: &Ghr) -> (bool, PredictInfo) {
        #[cfg(debug_assertions)]
        for (k, &(h, o)) in Ghr::FOLDS.iter().enumerate() {
            debug_assert_eq!(ghr.folded(k), ghr.fold(h, o), "folded history ({h}, {o}) drifted");
        }
        let mut indices = [0usize; Self::TABLES];
        let mut tags = [0u16; Self::TABLES];
        for t in 0..Self::TABLES {
            indices[t] = Self::index(pc, ghr, t);
            tags[t] = Self::tag(pc, ghr, t);
        }
        let bim_idx = Self::bim_index(pc);
        let bim_pred = self.bimodal[bim_idx] >= 2;

        let mut provider = None;
        let mut altpred = bim_pred;
        let mut alt_is_tagged = false;
        let mut pred = bim_pred;
        // Scan from longest history down; first match provides, second is alt.
        for t in (0..Self::TABLES).rev() {
            let e = &self.tables[t][indices[t]];
            if e.tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                    pred = e.ctr >= 0;
                } else {
                    altpred = e.ctr >= 0;
                    alt_is_tagged = true;
                    break;
                }
            }
        }
        (pred, PredictInfo { pred, provider, altpred, alt_is_tagged, indices, tags, bim_idx })
    }

    fn bump_ctr(ctr: &mut i8, taken: bool) {
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = (*ctr - 1).max(-4);
        }
    }

    /// Trains the predictor with the resolved outcome.
    pub fn update(&mut self, _pc: u64, info: &PredictInfo, taken: bool) {
        self.updates += 1;
        // Periodic graceful decay of usefulness counters.
        if self.updates.is_multiple_of(Self::U_DECAY_PERIOD) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        let correct = info.pred == taken;

        match info.provider {
            Some(t) => {
                let e = &mut self.tables[t][info.indices[t]];
                Self::bump_ctr(&mut e.ctr, taken);
                if info.pred != info.altpred {
                    if correct {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Also train bimodal when the alternate was the base.
                if !info.alt_is_tagged {
                    let b = &mut self.bimodal[info.bim_idx];
                    *b = if taken { (*b + 1).min(3) } else { b.saturating_sub(1) };
                }
            }
            None => {
                let b = &mut self.bimodal[info.bim_idx];
                *b = if taken { (*b + 1).min(3) } else { b.saturating_sub(1) };
            }
        }

        // On misprediction, allocate in a longer-history table.
        if !correct {
            let start = info.provider.map_or(0, |t| t + 1);
            if start < Self::TABLES {
                // Find candidates with useful == 0.
                let mut candidates = [0usize; Self::TABLES];
                let mut n = 0;
                for t in start..Self::TABLES {
                    if self.tables[t][info.indices[t]].useful == 0 {
                        candidates[n] = t;
                        n += 1;
                    }
                }
                let candidates = &candidates[..n];
                if candidates.is_empty() {
                    // Decay usefulness of all would-be victims.
                    for t in start..Self::TABLES {
                        let e = &mut self.tables[t][info.indices[t]];
                        e.useful = e.useful.saturating_sub(1);
                    }
                } else {
                    // Prefer shorter history with probability ~1/2 per step.
                    let mut chosen = candidates[0];
                    for &c in &candidates[1..] {
                        if self.next_rand() & 1 == 0 {
                            break;
                        }
                        chosen = c;
                    }
                    let e = &mut self.tables[chosen][info.indices[chosen]];
                    *e = TaggedEntry {
                        tag: info.tags[chosen],
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                }
            }
        }
    }
}

impl Default for Tage {
    fn default() -> Tage {
        Tage::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pattern<F: Fn(u64) -> bool>(pc: u64, iters: u64, f: F) -> u64 {
        let mut tage = Tage::new();
        let mut ghr = Ghr::new();
        let mut mispredicts = 0;
        for i in 0..iters {
            let taken = f(i);
            let (pred, info) = tage.predict(pc, &ghr);
            if pred != taken {
                mispredicts += 1;
            }
            tage.update(pc, &info, taken);
            ghr.push(taken);
        }
        mispredicts
    }

    #[test]
    fn learns_always_taken() {
        let m = run_pattern(0x40, 1000, |_| true);
        assert!(m < 10, "always-taken should be nearly perfect, got {m} mispredicts");
    }

    #[test]
    fn learns_short_period_pattern() {
        // Period-4 pattern TTTN requires history; bimodal alone can't learn it.
        let m = run_pattern(0x44, 4000, |i| i % 4 != 3);
        assert!(m < 200, "period-4 pattern should be learned, got {m} mispredicts");
    }

    #[test]
    fn learns_long_history_pattern() {
        // Period-24: needs a tagged component with history > 16.
        let m = run_pattern(0x48, 20_000, |i| (i % 24) < 12);
        assert!(m < 2_000, "period-24 pattern should be learned by long-history tables, got {m}");
    }

    #[test]
    fn random_data_near_50_percent() {
        // A pseudo-random pattern: TAGE cannot beat ~50%, but must not crash
        // or pathologically exceed it.
        let m = run_pattern(0x4c, 4000, |i| {
            let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            x ^= x >> 31;
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 29;
            x & 1 == 1
        });
        assert!(m > 800, "pseudorandom branches cannot be well predicted, got {m}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_much() {
        let mut tage = Tage::new();
        let mut ghr = Ghr::new();
        let mut mispredicts = 0;
        for i in 0..2000u64 {
            for pc in [0x100u64, 0x200, 0x300] {
                let taken = pc == 0x200; // one always-taken, two never-taken
                let (pred, info) = tage.predict(pc, &ghr);
                if pred != taken && i > 16 {
                    mispredicts += 1;
                }
                tage.update(pc, &info, taken);
                ghr.push(taken);
            }
        }
        assert!(mispredicts < 60, "got {mispredicts}");
    }
}

#[cfg(test)]
mod allocation_tests {
    use super::*;

    /// The usefulness mechanism must protect a well-performing long-history
    /// entry from being clobbered by an unrelated branch's allocations.
    #[test]
    fn useful_entries_resist_eviction() {
        let mut tage = Tage::new();
        let mut ghr = Ghr::new();
        // Train a period-6 pattern until a tagged entry provides correctly.
        let pat = |i: u64| (i % 6) < 3;
        let mut correct_streak = 0;
        for i in 0..6000u64 {
            let taken = pat(i);
            let (pred, info) = tage.predict(0x80, &ghr);
            correct_streak = if pred == taken { correct_streak + 1 } else { 0 };
            tage.update(0x80, &info, taken);
            ghr.push(taken);
            if correct_streak > 64 {
                break;
            }
        }
        assert!(correct_streak > 64, "the pattern must be learned first");
        // Hammer with conflicting branches (mispredicting constantly, which
        // triggers allocation attempts).
        let mut x = 0x12345u64;
        for i in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1000 + (x % 64);
            let taken = (x >> 33) & 1 == 1;
            let (_, info) = tage.predict(pc, &ghr);
            tage.update(pc, &info, taken);
            // Keep the victim pattern going so its history stays aligned.
            let t = pat(i);
            let (_, vinfo) = tage.predict(0x80, &ghr);
            tage.update(0x80, &vinfo, t);
            ghr.push(t);
        }
        // The victim branch must still predict far better than chance.
        let mut wrong = 0;
        for i in 0..600u64 {
            let taken = pat(i);
            let (pred, info) = tage.predict(0x80, &ghr);
            if pred != taken {
                wrong += 1;
            }
            tage.update(0x80, &info, taken);
            ghr.push(taken);
        }
        assert!(wrong < 200, "trained pattern must survive interference, {wrong}/600 wrong");
    }

    /// Prediction is a pure function: predicting twice without an update
    /// returns the same answer (no hidden state mutation in predict).
    #[test]
    fn predict_is_pure() {
        let mut tage = Tage::new();
        let mut ghr = Ghr::new();
        for i in 0..200u64 {
            let taken = i % 3 == 0;
            let (p1, _) = tage.predict(0x44, &ghr);
            let (p2, info) = tage.predict(0x44, &ghr);
            assert_eq!(p1, p2);
            tage.update(0x44, &info, taken);
            ghr.push(taken);
        }
    }
}
