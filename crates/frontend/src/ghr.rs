//! Global history register.

use crate::tage::Tage;

/// A 256-bit global branch-history shift register.
///
/// Bit 0 is the most recent outcome. Besides the raw bits it carries the
/// folded views TAGE indexes and tags with ([`Ghr::FOLDS`]), updated on
/// every [`Ghr::push`] in O(1) instead of refolded per prediction.
/// [`Ghr::fold`] computes any fold from scratch and is their reference.
///
/// # Example
///
/// ```
/// use spt_frontend::Ghr;
/// let mut g = Ghr::new();
/// g.push(true);
/// g.push(false);
/// assert!(!g.bit(0)); // most recent
/// assert!(g.bit(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ghr {
    words: [u64; Self::WORDS],
    len: u32,
    /// `fold(h, o)` for each `(h, o)` in [`Ghr::FOLDS`], kept current by
    /// `push`. They are a function of `words`, so they ride along in every
    /// clone, checkpoint and restore.
    folded: [u16; Self::FOLDS.len()],
}

impl Ghr {
    const WORDS: usize = 4;
    /// Capacity in bits.
    pub const BITS: u32 = 256;

    /// The `(hist_bits, out_bits)` folds kept incrementally: for each TAGE
    /// table `t`, entry `2t` folds its history to the index (and first tag
    /// hash) width and entry `2t + 1` to the second tag hash width.
    pub const FOLDS: [(u32, u32); 2 * Tage::TABLES] = {
        let mut folds = [(0, 0); 2 * Tage::TABLES];
        let mut t = 0;
        while t < Tage::TABLES {
            folds[2 * t] = (Tage::HIST_LENS[t], Tage::TABLE_BITS);
            folds[2 * t + 1] = (Tage::HIST_LENS[t], Tage::TAG_BITS - 1);
            t += 1;
        }
        folds
    };

    /// Creates an empty (all-zero) history.
    pub fn new() -> Ghr {
        Ghr { words: [0; Self::WORDS], len: 0, folded: [0; Self::FOLDS.len()] }
    }

    /// Shifts in a new outcome as bit 0.
    pub fn push(&mut self, taken: bool) {
        // Circular-shift update of each fold: history bit `i` lands on fold
        // bit `i mod o`, so shifting the history rotates the fold by one,
        // the new outcome enters at bit 0 and the outgoing bit `h - 1`
        // (read before the shift) leaves from bit `h mod o`.
        for (f, &(h, o)) in self.folded.iter_mut().zip(Self::FOLDS.iter()) {
            let c = u32::from(*f);
            let rotated = ((c << 1) | (c >> (o - 1))) & ((1 << o) - 1);
            let outgoing = (self.words[((h - 1) / 64) as usize] >> ((h - 1) % 64)) as u32 & 1;
            *f = (rotated ^ taken as u32 ^ (outgoing << (h % o))) as u16;
        }
        let mut carry = taken as u64;
        for w in &mut self.words {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        self.len = (self.len + 1).min(Self::BITS);
    }

    /// The `i`-th most recent outcome (`i = 0` is the newest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < Self::BITS);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Number of outcomes pushed so far, saturating at 256.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no outcomes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The incrementally kept fold `k`: equal to `fold(h, o)` for
    /// `(h, o) = Ghr::FOLDS[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= Ghr::FOLDS.len()`.
    pub fn folded(&self, k: usize) -> u32 {
        u32::from(self.folded[k])
    }

    /// Folds the most recent `hist_bits` of history into `out_bits` bits by
    /// XOR-folding: history bit `i` lands on output bit `i mod out_bits`.
    /// This is the from-scratch reference for [`Ghr::folded`].
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or > 32, or `hist_bits > 256`.
    pub fn fold(&self, hist_bits: u32, out_bits: u32) -> u32 {
        assert!(out_bits > 0 && out_bits <= 32);
        assert!(hist_bits <= Self::BITS);
        // Word-at-a-time: gather each `out_bits`-wide chunk (the last one
        // partial) straight out of the packed words instead of bit by bit.
        let mut acc: u32 = 0;
        let mut p = 0;
        while p < hist_bits {
            let take = out_bits.min(hist_bits - p);
            let w = (p / 64) as usize;
            let off = p % 64;
            let mut chunk = self.words[w] >> off;
            let got = 64 - off;
            // `p + take <= 256` keeps this in bounds whenever it fires.
            if got < take && w + 1 < Self::WORDS {
                chunk |= self.words[w + 1] << got;
            }
            let cmask = if take == 32 { u32::MAX } else { (1u32 << take) - 1 };
            acc ^= (chunk as u32) & cmask;
            p += take;
        }
        let mask = if out_bits == 32 { u32::MAX } else { (1u32 << out_bits) - 1 };
        acc & mask
    }
}

impl Default for Ghr {
    fn default() -> Ghr {
        Ghr::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_across_words() {
        let mut g = Ghr::new();
        g.push(true);
        for _ in 0..64 {
            g.push(false);
        }
        assert!(g.bit(64), "the original bit moved into the second word");
        assert!(!g.bit(0));
    }

    #[test]
    fn len_saturates() {
        let mut g = Ghr::new();
        for _ in 0..300 {
            g.push(true);
        }
        assert_eq!(g.len(), 256);
    }

    #[test]
    fn fold_depends_on_history() {
        let mut a = Ghr::new();
        let mut b = Ghr::new();
        for i in 0..44 {
            a.push(i % 3 == 0);
            b.push(i % 5 == 0);
        }
        assert_ne!(a.fold(44, 10), b.fold(44, 10));
        // Output is masked to out_bits.
        assert!(a.fold(130, 10) < 1024);
    }

    #[test]
    fn fold_zero_history_is_zero() {
        let g = Ghr::new();
        assert_eq!(g.fold(130, 10), 0);
    }
}
