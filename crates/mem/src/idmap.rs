//! [`IdMap`]: the table of in-flight operations a scoreboard or a memory
//! side keeps by request id.
//!
//! Ids are handed out in ascending order and most operations retire in
//! roughly that order, so the table is a `VecDeque` of `(id, value)` pairs
//! kept in key order: every lookup is a binary search over a few dozen
//! entries, a new highest id lands at the back, and a removal near the front
//! is a short shift.
//! Nothing is hashed, and once the deque has grown to its high-water mark
//! nothing is allocated. The snapshot encoding is the one a `HashMap` of the
//! same pairs has: a `u64` length, then the pairs in key order.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Pairs `(id, value)` with distinct ids, kept in ascending id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap<K, V> {
    entries: VecDeque<(K, V)>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> IdMap<K, V> {
        IdMap {
            entries: VecDeque::new(),
        }
    }
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// The position of `id`, or where it would go.
    fn find(&self, id: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&id))
    }

    /// Inserts `value` under `id`, replacing any value already there.
    pub fn insert(&mut self, id: K, value: V) {
        match self.find(id) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (id, value)),
        }
    }

    /// The value under `id`.
    pub fn get(&self, id: K) -> Option<&V> {
        self.find(id).ok().map(|at| &self.entries[at].1)
    }

    /// The value under `id`, mutably.
    pub fn get_mut(&mut self, id: K) -> Option<&mut V> {
        self.find(id).ok().map(|at| &mut self.entries[at].1)
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: K) -> Option<V> {
        let at = self.find(id).ok()?;
        self.entries.remove(at).map(|(_, value)| value)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The values, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, value)| value)
    }

    /// The values, mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, value)| value)
    }
}

impl<K: Snap + Ord + Copy, V: Snap> Snap for IdMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        self.entries.save(w);
    }

    /// Refuses a stream whose ids are not strictly ascending: the table
    /// never holds one, and a lookup would miss in it.
    fn load(r: &mut SnapReader) -> Result<IdMap<K, V>, SnapError> {
        let entries = Vec::<(K, V)>::load(r)?;
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(SnapError::Bad("id map keys not strictly ascending"));
        }
        Ok(IdMap {
            entries: entries.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn encode<T: Snap>(value: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn follows_a_hash_map_and_encodes_like_one() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut map, mut reference) = (IdMap::default(), HashMap::new());
        // Ids issued in order, wrapping past u32::MAX, retired in any order.
        let mut id = u32::MAX - 40;
        for step in 0..2000u32 {
            if next() % 3 != 0 || reference.is_empty() {
                map.insert(id, step);
                reference.insert(id, step);
                id = id.wrapping_add(1);
            } else {
                let keys: Vec<u32> = reference.keys().copied().collect();
                let victim = keys[(next() % keys.len() as u64) as usize];
                assert_eq!(map.remove(victim), reference.remove(&victim));
            }
            assert_eq!(map.remove(id), None, "an id not yet issued");
            assert_eq!(encode(&map), encode(&reference), "after step {step}");
        }
        for (k, v) in &reference {
            assert_eq!(map.get(*k), Some(v));
        }
        let bytes = encode(&map);
        assert_eq!(
            IdMap::<u32, u32>::load(&mut SnapReader::new(&bytes)).unwrap(),
            map
        );
    }

    #[test]
    fn insert_replaces_and_load_refuses_disorder() {
        let mut map = IdMap::default();
        map.insert(5u64, 'a' as u32);
        map.insert(3, 1);
        map.insert(5, 2);
        assert_eq!(map.values().copied().collect::<Vec<_>>(), vec![1, 2]);
        *map.get_mut(3).unwrap() = 7;
        assert_eq!(map.get(3), Some(&7));
        let disordered = encode(&vec![(5u64, 1u32), (3, 2)]);
        let duplicated = encode(&vec![(3u64, 1u32), (3, 2)]);
        for bytes in [disordered, duplicated] {
            let loaded = IdMap::<u64, u32>::load(&mut SnapReader::new(&bytes));
            assert_eq!(
                loaded,
                Err(SnapError::Bad("id map keys not strictly ascending"))
            );
        }
    }
}
