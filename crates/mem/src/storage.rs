//! Functional byte storage backing a Cell's DRAM address range.

/// A flat little-endian byte store. Timing is modelled separately by
/// [`Hbm2Channel`](crate::Hbm2Channel); this type holds the actual data that
/// cache refills read and evictions write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dram {
    pub(crate) bytes: Vec<u8>,
}

impl Dram {
    /// Allocates `size` bytes of zeroed storage.
    pub fn new(size: usize) -> Dram {
        Dram {
            bytes: vec![0; size],
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the store has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds capacity.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(
            self.bytes[addr as usize..addr as usize + 4]
                .try_into()
                .unwrap(),
        )
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds capacity.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.bytes[addr as usize..addr as usize + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads an `f32` stored at `addr`.
    pub fn read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: u32, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.bytes[addr as usize]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.bytes[addr as usize] = value;
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes([self.bytes[addr as usize], self.bytes[addr as usize + 1]])
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.bytes[addr as usize..addr as usize + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Borrowed view of `len` bytes at `addr`.
    pub fn slice(&self, addr: u32, len: usize) -> &[u8] {
        &self.bytes[addr as usize..addr as usize + len]
    }

    /// The maximal runs of 4 KiB blocks that hold a non-zero byte, ascending,
    /// as `(offset, bytes)`; every byte outside them is zero. Whoever must
    /// walk the image (the job digest, the checkpoint) walks these instead.
    ///
    /// Stateless on purpose: every call compares each block with a zero
    /// block, at `memcmp` speed. A dirty-block bitmap would put host state on
    /// every write path and into restore; an allocator high-water mark is
    /// unsound under a fault that corrupts a store address.
    pub fn extents(&self) -> impl Iterator<Item = (usize, &[u8])> {
        const BLOCK: usize = 4096;
        static ZERO_BLOCK: [u8; BLOCK] = [0; BLOCK];
        let live = |block: &[u8]| *block != ZERO_BLOCK[..block.len()];
        let mut blocks = self.bytes.chunks(BLOCK).map(live).enumerate().peekable();
        std::iter::from_fn(move || {
            let (first, _) = blocks.find(|&(_, live)| live)?;
            let run = 1 + std::iter::from_fn(|| blocks.next_if(|&(_, live)| live)).count();
            let (start, end) = (first * BLOCK, ((first + run) * BLOCK).min(self.bytes.len()));
            Some((start, &self.bytes[start..end]))
        })
    }

    /// Copies `data` into the store at `addr`.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Copies a `u32` slice into the store at `addr` (little-endian).
    pub fn write_u32_slice(&mut self, addr: u32, data: &[u32]) {
        for (i, &w) in data.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, w);
        }
    }

    /// Copies an `f32` slice into the store at `addr`.
    pub fn write_f32_slice(&mut self, addr: u32, data: &[f32]) {
        for (i, &w) in data.iter().enumerate() {
            self.write_f32(addr + 4 * i as u32, w);
        }
    }

    /// Reads `n` little-endian `u32`s starting at `addr`.
    pub fn read_u32_slice(&self, addr: u32, n: usize) -> Vec<u32> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u32)).collect()
    }

    /// Reads `n` `f32`s starting at `addr`.
    pub fn read_f32_slice(&self, addr: u32, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_round_trip() {
        let mut d = Dram::new(64);
        d.write_u32(8, 0xdead_beef);
        assert_eq!(d.read_u32(8), 0xdead_beef);
        // Little-endian layout.
        assert_eq!(d.read_u8(8), 0xef);
        assert_eq!(d.read_u8(11), 0xde);
    }

    #[test]
    fn f32_round_trip() {
        let mut d = Dram::new(16);
        d.write_f32(0, -1.5);
        assert_eq!(d.read_f32(0), -1.5);
    }

    #[test]
    fn slice_round_trip() {
        let mut d = Dram::new(64);
        d.write_u32_slice(0, &[1, 2, 3, 4]);
        assert_eq!(d.read_u32_slice(0, 4), vec![1, 2, 3, 4]);
        d.write_f32_slice(16, &[0.5, 2.5]);
        assert_eq!(d.read_f32_slice(16, 2), vec![0.5, 2.5]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let d = Dram::new(4);
        d.read_u32(4);
    }
}
