//! An ordered set of `u64` keys stored as a bitset over a sliding window.
//!
//! The simulator's in-flight bookkeeping (ready queue, LSQ indices, the
//! taint engine's work queues) holds sequence numbers drawn from a narrow,
//! moving window: keys enter near the young end, leave near the old end,
//! and squashes drop a suffix. [`SeqSet`] stores exactly that window as
//! one bit per key, so a membership change is one word update, and
//! iteration walks words in key order, skipping 64 absent keys at a time.
//!
//! Memory is proportional to the span between the smallest and largest
//! key present, not to the number of keys, so the set suits keys that
//! stay close together.

use std::collections::vec_deque;
use std::collections::VecDeque;
use std::ops::{Bound, RangeBounds};

/// An ordered set of `u64` keys over a sliding bitset window (see the
/// module docs).
///
/// # Example
///
/// ```
/// use spt_util::SeqSet;
/// let mut s = SeqSet::new();
/// for k in [70, 3, 200, 64] {
///     s.insert(k);
/// }
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 70, 200]);
/// assert_eq!(s.range(..70).rev().collect::<Vec<_>>(), vec![64, 3]);
/// s.truncate_from(70);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SeqSet {
    /// Word number (`key >> 6`) of `words[0]`.
    base: u64,
    /// One bit per key in `[base * 64, (base + words.len()) * 64)`. The
    /// first and last words are never zero, so the window is exactly the
    /// span of the keys present.
    words: VecDeque<u64>,
    len: usize,
}

impl SeqSet {
    /// Creates an empty set.
    pub fn new() -> SeqSet {
        SeqSet::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every key (keeps the allocation).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// The slot of word number `w` in `words`, if the window covers it.
    fn slot(&self, w: u64) -> Option<usize> {
        let i = w.checked_sub(self.base)?;
        (i < self.words.len() as u64).then_some(i as usize)
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.slot(key >> 6).is_some_and(|i| self.words[i] >> (key & 63) & 1 == 1)
    }

    /// Adds `key`; returns whether it was absent.
    pub fn insert(&mut self, key: u64) -> bool {
        let w = key >> 6;
        if self.words.is_empty() {
            self.base = w;
            self.words.push_back(0);
        } else if w < self.base {
            for _ in w..self.base {
                self.words.push_front(0);
            }
            self.base = w;
        } else {
            let end = self.base + self.words.len() as u64;
            for _ in end..=w {
                self.words.push_back(0);
            }
        }
        let word = &mut self.words[(w - self.base) as usize];
        let bit = 1u64 << (key & 63);
        let absent = *word & bit == 0;
        *word |= bit;
        self.len += absent as usize;
        absent
    }

    /// Removes `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(i) = self.slot(key >> 6) else { return false };
        let bit = 1u64 << (key & 63);
        if self.words[i] & bit == 0 {
            return false;
        }
        self.words[i] &= !bit;
        self.len -= 1;
        if self.words[i] == 0 {
            self.trim();
        }
        true
    }

    /// Removes every key `>= from` (a squash dropped them).
    pub fn truncate_from(&mut self, from: u64) {
        let w = from >> 6;
        if w < self.base {
            self.clear();
            return;
        }
        let Some(i) = self.slot(w) else { return };
        for dropped in self.words.drain(i + 1..) {
            self.len -= dropped.count_ones() as usize;
        }
        let keep = (1u64 << (from & 63)) - 1;
        self.len -= (self.words[i] & !keep).count_ones() as usize;
        self.words[i] &= keep;
        self.trim();
    }

    /// Restores the window invariant: drops zero words at either end.
    fn trim(&mut self) {
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 1;
        }
    }

    /// Iterates every key in ascending order.
    pub fn iter(&self) -> Range<'_> {
        self.range(..)
    }

    /// Iterates the keys within `range` in ascending order; `.rev()`
    /// iterates them in descending order.
    pub fn range<R: RangeBounds<u64>>(&self, range: R) -> Range<'_> {
        let lo = match range.start_bound() {
            Bound::Included(&k) => k,
            Bound::Excluded(&k) if k < u64::MAX => k + 1,
            Bound::Excluded(_) => return Range::empty(&self.words),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&k) => k,
            Bound::Excluded(&k) if k > 0 => k - 1,
            Bound::Excluded(_) => return Range::empty(&self.words),
            Bound::Unbounded => u64::MAX,
        };
        if self.words.is_empty() || lo > hi {
            return Range::empty(&self.words);
        }
        let last = self.base + self.words.len() as u64 - 1;
        let (lo_w, hi_w) = ((lo >> 6).max(self.base), (hi >> 6).min(last));
        if lo_w > hi_w {
            return Range::empty(&self.words);
        }
        let lo_mask = if lo_w == lo >> 6 { u64::MAX << (lo & 63) } else { u64::MAX };
        let hi_mask = if hi_w == hi >> 6 { u64::MAX >> (63 - (hi & 63)) } else { u64::MAX };
        let (i, j) = ((lo_w - self.base) as usize, (hi_w - self.base) as usize);
        if i == j {
            return Range {
                words: self.words.range(0..0),
                front: self.words[i] & lo_mask & hi_mask,
                front_at: lo_w << 6,
                back: 0,
                back_at: hi_w << 6,
            };
        }
        Range {
            words: self.words.range(i + 1..j),
            front: self.words[i] & lo_mask,
            front_at: lo_w << 6,
            back: self.words[j] & hi_mask,
            back_at: hi_w << 6,
        }
    }
}

/// Ascending (or, reversed, descending) iterator over a [`SeqSet`] range.
///
/// The range's end words are held as masked bit words; whole words
/// between them come straight from the set.
#[derive(Clone, Debug)]
pub struct Range<'a> {
    /// Words strictly between the front and back words.
    words: vec_deque::Iter<'a, u64>,
    /// Unvisited keys of the front word, and that word's first key.
    front: u64,
    front_at: u64,
    /// Unvisited keys of the back word, and that word's first key.
    back: u64,
    back_at: u64,
}

impl<'a> Range<'a> {
    fn empty(words: &'a VecDeque<u64>) -> Range<'a> {
        Range { words: words.range(0..0), front: 0, front_at: 0, back: 0, back_at: 0 }
    }
}

impl Iterator for Range<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.front != 0 {
                let key = self.front_at + u64::from(self.front.trailing_zeros());
                self.front &= self.front - 1;
                return Some(key);
            }
            if let Some(&w) = self.words.next() {
                self.front = w;
                self.front_at += 64;
                continue;
            }
            // The middle is spent: only the back word is left.
            if self.back == 0 {
                return None;
            }
            self.front = std::mem::take(&mut self.back);
            self.front_at = self.back_at;
        }
    }
}

impl DoubleEndedIterator for Range<'_> {
    fn next_back(&mut self) -> Option<u64> {
        loop {
            if self.back != 0 {
                let bit = 63 - self.back.leading_zeros();
                self.back &= !(1u64 << bit);
                return Some(self.back_at + u64::from(bit));
            }
            if let Some(&w) = self.words.next_back() {
                self.back = w;
                self.back_at -= 64;
                continue;
            }
            // The middle is spent: only the front word is left.
            if self.front == 0 {
                return None;
            }
            self.back = std::mem::take(&mut self.front);
            self.back_at = self.front_at;
        }
    }
}

impl<'a> IntoIterator for &'a SeqSet {
    type Item = u64;
    type IntoIter = Range<'a>;

    fn into_iter(self) -> Range<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn window_slides_with_the_keys() {
        let mut s = SeqSet::new();
        for k in 1000..1200 {
            s.insert(k);
        }
        for k in 1000..1190 {
            s.remove(k);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.words.len(), 1, "leading words were dropped as they emptied");
        assert_eq!(s.iter().collect::<Vec<_>>(), (1190..1200).collect::<Vec<_>>());
        // Inserting below the window grows it downward.
        s.insert(5);
        assert_eq!(s.iter().next(), Some(5));
        s.remove(5);
        assert_eq!(s.words.len(), 1);
    }

    #[test]
    fn range_and_truncate_at_word_edges() {
        let mut s = SeqSet::new();
        for k in [0, 63, 64, 127, 128] {
            s.insert(k);
        }
        assert_eq!(s.range(63..128).collect::<Vec<_>>(), vec![63, 64, 127]);
        assert_eq!(s.range(..=64).rev().collect::<Vec<_>>(), vec![64, 63, 0]);
        assert_eq!(s.range(..0).count(), 0);
        s.truncate_from(64);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63]);
        s.truncate_from(0);
        assert!(s.is_empty());
        assert!(s.words.is_empty());

        let mut top = SeqSet::new();
        top.insert(u64::MAX - 1);
        top.insert(u64::MAX);
        assert_eq!(top.range(u64::MAX..).collect::<Vec<_>>(), vec![u64::MAX]);
        assert_eq!(top.range(..u64::MAX).rev().collect::<Vec<_>>(), vec![u64::MAX - 1]);
        top.truncate_from(u64::MAX);
        assert_eq!(top.iter().collect::<Vec<_>>(), vec![u64::MAX - 1]);
    }

    #[test]
    fn iteration_meets_in_the_middle() {
        let s: SeqSet = {
            let mut s = SeqSet::new();
            for k in (0..400).step_by(7) {
                s.insert(k);
            }
            s
        };
        let mut it = s.iter();
        let mut got = Vec::new();
        loop {
            match (it.next(), it.next_back()) {
                (Some(a), Some(b)) => {
                    got.push(a);
                    got.push(b);
                }
                (Some(a), None) => got.push(a),
                (None, _) => break,
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..400).step_by(7).collect::<Vec<_>>());
    }

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64),
        Remove(u64),
        Range(u64, u64),
        RevBelow(u64),
        Truncate(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Keys near a drifting window, as the simulator produces them.
        prop_oneof![
            (0u64..600).prop_map(Op::Insert),
            (0u64..600).prop_map(Op::Insert),
            (0u64..600).prop_map(Op::Remove),
            (0u64..600, 0u64..600).prop_map(|(a, b)| Op::Range(a, b)),
            (0u64..600).prop_map(Op::RevBelow),
            (0u64..700).prop_map(Op::Truncate),
        ]
    }

    proptest! {
        /// Every operation agrees with a `BTreeSet` model, and so do
        /// `contains` and `len` after every step.
        #[test]
        fn matches_btreeset(ops in proptest::collection::vec(op(), 1..200)) {
            let mut s = SeqSet::new();
            let mut m = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(k) => prop_assert_eq!(s.insert(k), m.insert(k)),
                    Op::Remove(k) => prop_assert_eq!(s.remove(k), m.remove(&k)),
                    Op::Range(a, b) => {
                        let (lo, hi) = (a.min(b), a.max(b));
                        prop_assert_eq!(
                            s.range(lo..hi).collect::<Vec<_>>(),
                            m.range(lo..hi).copied().collect::<Vec<_>>()
                        );
                        prop_assert_eq!(
                            s.range(lo..=hi).collect::<Vec<_>>(),
                            m.range(lo..=hi).copied().collect::<Vec<_>>()
                        );
                    }
                    Op::RevBelow(k) => prop_assert_eq!(
                        s.range(..k).rev().collect::<Vec<_>>(),
                        m.range(..k).rev().copied().collect::<Vec<_>>()
                    ),
                    Op::Truncate(k) => {
                        s.truncate_from(k);
                        let _ = m.split_off(&k);
                    }
                }
                prop_assert_eq!(s.len(), m.len());
                prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
                for k in 0..620 {
                    prop_assert_eq!(s.contains(k), m.contains(&k));
                }
                prop_assert!(s.words.front() != Some(&0) && s.words.back() != Some(&0));
            }
        }
    }
}
