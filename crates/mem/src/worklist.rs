//! [`WorkSet`]: the worklist every activity-proportional phase of the
//! cycle loop iterates instead of sweeping the machine.
//!
//! A fixed-capacity set of small indices (routers, router ports, tiles,
//! barrier nodes) kept as a bitmap. The code that creates a piece of work
//! inserts its index; the phase that consumes the work walks the set in
//! *ascending index order* — the order the full sweep it replaces visited
//! the same elements in, which is what keeps arbitration, event logs and
//! checkpoint bytes identical — and removes what it finished.

/// A set of indices below a fixed capacity, iterated in ascending order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkSet {
    words: Vec<u64>,
    capacity: usize,
}

impl WorkSet {
    /// An empty set over the indices `0..capacity`.
    pub fn new(capacity: usize) -> WorkSet {
        WorkSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The set holding every index `0..capacity`.
    pub fn full(capacity: usize) -> WorkSet {
        let mut set = WorkSet::new(capacity);
        set.insert_all();
        set
    }

    /// Adds `i`, which must be below the capacity.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i` (a no-op when absent).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Adds every index below the capacity.
    pub fn insert_all(&mut self) {
        self.words.fill(u64::MAX);
        let tail = self.capacity % 64;
        if tail != 0 {
            *self.words.last_mut().expect("tail implies a word") = (1 << tail) - 1;
        }
    }

    /// Removes every index.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Adds every index of `other`, a set of the same capacity.
    pub fn union_with(&mut self, other: &WorkSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Whether the set holds no index.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// How many indices are members of both `self` and `other`, a set of
    /// the same capacity: one popcount per word.
    #[inline]
    pub fn count_and(&self, other: &WorkSet) -> usize {
        debug_assert_eq!(self.capacity, other.capacity);
        (self.words.iter().zip(&other.words))
            .map(|(w, o)| (w & o).count_ones() as usize)
            .sum()
    }

    /// The members of `self` that are not members of `other`, a set of the
    /// same capacity, in ascending order: a walk over one masked word at a
    /// time, so the indices `other` holds cost nothing.
    #[inline]
    pub fn iter_and_not<'a>(&'a self, other: &'a WorkSet) -> AndNot<'a> {
        debug_assert_eq!(self.capacity, other.capacity);
        AndNot {
            words: &self.words,
            not: &other.words,
            next_word: 0,
            rest: 0,
        }
    }

    /// The smallest member at or above `from`: the cursor of a walk that
    /// edits the set as it goes (`while let Some(i) = set.first_from(cur)`
    /// with `cur = i + 1`), which an iterator's borrow would forbid.
    #[inline]
    pub fn first_from(&self, from: usize) -> Option<usize> {
        let mut wi = from / 64;
        let mut word = *self.words.get(wi)? & (u64::MAX << (from % 64));
        while word == 0 {
            wi += 1;
            word = *self.words.get(wi)?;
        }
        Some(wi * 64 + word.trailing_zeros() as usize)
    }

    /// The members among the eight indices `8 * group ..= 8 * group + 7`,
    /// as a mask (bit `k` for index `8 * group + k`). Lets a set indexed
    /// `router * 8 + port` answer "which ports of this router" in one load.
    #[inline]
    pub fn octet(&self, group: usize) -> u8 {
        (self.words[group / 8] >> (group % 8 * 8)) as u8
    }

    /// Word `i` of the bitmap (bit `k` for index `64 * i + k`), or `None`
    /// past the last word: lets a walk that edits the set copy one word
    /// and visit its members without re-reading the set per member, when
    /// the edits can only remove members it has already visited.
    #[inline]
    pub fn word(&self, i: usize) -> Option<u64> {
        self.words.get(i).copied()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            next_word: 0,
            rest: 0,
        }
    }
}

/// Ascending walk over a [`WorkSet`] (see [`WorkSet::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the first word not yet loaded into `rest`.
    next_word: usize,
    /// Members of the current word still to yield.
    rest: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            self.rest = *self.words.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

/// Ascending walk over the difference of two [`WorkSet`]s (see
/// [`WorkSet::iter_and_not`]).
#[derive(Debug, Clone)]
pub struct AndNot<'a> {
    words: &'a [u64],
    not: &'a [u64],
    /// Index of the first word not yet loaded into `rest`.
    next_word: usize,
    /// Members of the current masked word still to yield.
    rest: u64,
}

impl Iterator for AndNot<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.rest == 0 {
            let word = *self.words.get(self.next_word)?;
            self.rest = word & !self.not[self.next_word];
            self.next_word += 1;
        }
        let bit = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_members_in_ascending_order_across_words() {
        let mut s = WorkSet::new(200);
        for i in [199, 0, 64, 63, 130, 7] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 7, 63, 64, 130, 199]);
        // The cursor walk sees the same order and tolerates removal.
        let (mut cur, mut seen) = (0, Vec::new());
        while let Some(i) = s.first_from(cur) {
            s.remove(i);
            seen.push(i);
            cur = i + 1;
        }
        assert_eq!(seen, [0, 7, 63, 64, 130, 199]);
        assert!(s.is_empty());
        assert_eq!(s.first_from(0), None);
        assert_eq!(s.first_from(200), None);
    }

    #[test]
    fn full_set_stops_at_the_capacity() {
        for cap in [0, 1, 63, 64, 65, 128, 130] {
            let s = WorkSet::full(cap);
            assert!(s.iter().eq(0..cap), "capacity {cap}");
        }
    }

    #[test]
    fn octets_and_unions() {
        let mut s = WorkSet::new(160 * 8);
        s.insert(9 * 8 + 1);
        s.insert(9 * 8 + 6);
        s.insert(10 * 8);
        assert_eq!(s.octet(9), 0b100_0010);
        assert_eq!(s.octet(10), 1);
        assert_eq!(s.octet(11), 0);
        assert_eq!(s.word(1), Some(0x1_4200));
        assert_eq!(s.word(20), None);
        let mut t = WorkSet::new(160 * 8);
        t.insert(3);
        t.union_with(&s);
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            [3, 9 * 8 + 1, 9 * 8 + 6, 10 * 8]
        );
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn intersections_and_differences_work_a_word_at_a_time() {
        let cap = 200;
        let (mut a, mut b) = (WorkSet::new(cap), WorkSet::new(cap));
        for i in [0, 5, 63, 64, 100, 127, 128, 199] {
            a.insert(i);
        }
        for i in [5, 64, 101, 127, 199] {
            b.insert(i);
        }
        assert_eq!(a.count_and(&b), 4);
        assert_eq!(b.count_and(&a), 4);
        assert_eq!(a.iter_and_not(&b).collect::<Vec<_>>(), [0, 63, 100, 128]);
        assert_eq!(b.iter_and_not(&a).collect::<Vec<_>>(), [101]);
        assert!(a.contains(63) && !a.contains(62) && !a.contains(cap + 64));
        // Against a member-by-member reference, over every word boundary.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..50 {
            let (mut x, mut y) = (WorkSet::new(cap), WorkSet::new(cap));
            for i in 0..cap {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match rng >> 62 {
                    0 => x.insert(i),
                    1 => y.insert(i),
                    2 => {
                        x.insert(i);
                        y.insert(i);
                    }
                    _ => {}
                }
            }
            let both = (0..cap).filter(|&i| x.contains(i) && y.contains(i)).count();
            let only: Vec<usize> = (0..cap)
                .filter(|&i| x.contains(i) && !y.contains(i))
                .collect();
            assert_eq!(x.count_and(&y), both);
            assert_eq!(x.iter_and_not(&y).collect::<Vec<_>>(), only);
        }
        assert_eq!(WorkSet::new(0).iter_and_not(&WorkSet::new(0)).next(), None);
        assert_eq!(
            WorkSet::full(cap).iter_and_not(&WorkSet::full(cap)).next(),
            None
        );
    }
}
