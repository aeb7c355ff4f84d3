//! Direct-mapped instruction cache model.
//!
//! Each HB tile has a 4 KB direct-mapped icache with 4-instruction (16 B)
//! lines and 12-bit tags, giving 16 MB of program space — effectively
//! unlimited for data-parallel kernels. Branch targets are pre-computed
//! into the immediate field on refill, acting as a zero-area BTB (modelled
//! by the static predictor having correct targets).

/// Direct-mapped icache tag array. Data lives in the shared program image;
/// only hit/miss behaviour is modelled here.
#[derive(Debug, Clone)]
pub struct ICache {
    /// Tag per line; `None` = invalid (cold).
    tags: Vec<Option<u32>>,
    line_shift: u32,
    index_mask: u32,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// Creates an icache of `size_bytes` with 16-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a power of two or smaller than one
    /// line.
    pub fn new(size_bytes: u32) -> ICache {
        assert!(size_bytes.is_power_of_two() && size_bytes >= 16);
        let lines = size_bytes / 16;
        ICache {
            tags: vec![None; lines as usize],
            line_shift: 4,
            index_mask: lines - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `pc`; on a miss the line is installed (the refill penalty
    /// is charged by the core). Returns `true` on hit.
    pub fn access(&mut self, pc: u32) -> bool {
        let line = pc >> self.line_shift;
        let index = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.trailing_ones();
        if self.tags[index] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.tags[index] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// Non-mutating lookup: whether an [`access`](Self::access) of `pc`
    /// would hit right now. Used by the event scheduler to decide if a
    /// stalled tile's next fetch is free (park) or a miss (step it so the
    /// refill is charged on the right cycle).
    pub fn would_hit(&self, pc: u32) -> bool {
        let line = pc >> self.line_shift;
        let index = (line & self.index_mask) as usize;
        let tag = line >> self.index_mask.trailing_ones();
        self.tags[index] == Some(tag)
    }

    /// Number of cache lines.
    pub fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Invalidates one line, as the parity logic does when an injected bit
    /// flip is detected in the tag or data array: the next access to the
    /// line is a forced (correct) refill, so the flip costs a miss but can
    /// never corrupt execution.
    pub fn invalidate_line(&mut self, index: usize) {
        let n = self.tags.len();
        self.tags[index % n] = None;
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

hb_mem::snap_state!(ICache [b"ICAC"] {
    save: hits, misses;
    fixed: tags;
    host: line_shift, index_mask;
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hits_within_line() {
        let mut ic = ICache::new(4096);
        assert!(!ic.access(0x100)); // cold
        assert!(ic.access(0x104));
        assert!(ic.access(0x108));
        assert!(ic.access(0x10c));
        assert!(!ic.access(0x110)); // next line
    }

    #[test]
    fn conflict_misses_on_aliasing_lines() {
        let mut ic = ICache::new(4096);
        assert!(!ic.access(0x0));
        assert!(!ic.access(4096)); // same index, different tag
        assert!(!ic.access(0x0)); // evicted
        assert_eq!(ic.misses(), 3);
    }

    #[test]
    fn invalidated_line_forces_one_refill() {
        let mut ic = ICache::new(4096);
        assert_eq!(ic.lines(), 256);
        assert!(!ic.access(0x100));
        assert!(ic.access(0x104));
        // 0x100 lives in line 0x10; a parity flip invalidates it.
        ic.invalidate_line(0x10);
        assert!(!ic.access(0x100), "invalidated line must miss once");
        assert!(ic.access(0x104), "refill restores the line");
        // Indices wrap so any u16 line id from a fault plan is safe.
        ic.invalidate_line(0x10 + 256);
        assert!(!ic.access(0x100));
    }

    #[test]
    fn loop_smaller_than_cache_streams_from_cache() {
        let mut ic = ICache::new(4096);
        // Warm a 1 KB loop.
        for pc in (0..1024u32).step_by(4) {
            ic.access(pc);
        }
        let miss_before = ic.misses();
        for _ in 0..10 {
            for pc in (0..1024u32).step_by(4) {
                assert!(ic.access(pc));
            }
        }
        assert_eq!(ic.misses(), miss_before);
    }
}
