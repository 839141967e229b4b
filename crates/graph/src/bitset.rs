//! A fixed-capacity bit set used for reachability closures.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
///
/// All operations are bounds-checked in debug builds; indices must be
/// `< len()`.
///
/// # Example
///
/// ```
/// use mfhls_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into `self`'s word buffer, reallocating only when
    /// `source` needs more words than the buffer holds.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices this set can hold (`0..len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `i`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bitset index {i} out of range {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test. Out-of-range indices are reported absent.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Removes every element of `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `true` if `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over set indices in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to hold the maximum element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Ascending iterator over a [`BitSet`], created by [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn remove_round_trip() {
        let mut s = BitSet::new(10);
        s.insert(5);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn set_operations() {
        let mut a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3].into_iter().collect();
        let mut a2 = a.clone();
        a.intersect_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
        a2.difference_with(&b);
        assert_eq!(a2.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn union_and_disjoint() {
        let mut a = BitSet::new(8);
        a.insert(1);
        let mut b = BitSet::new(8);
        b.insert(6);
        assert!(a.is_disjoint(&b));
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 6]);
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn empty_set_iter() {
        let s = BitSet::new(0);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn extend_works() {
        let mut s = BitSet::new(10);
        s.extend([1, 3, 5]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn debug_shows_elements() {
        let s: BitSet = [2, 4].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 4}");
    }
}
