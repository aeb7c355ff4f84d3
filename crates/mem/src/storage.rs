//! Functional byte storage backing a Cell's DRAM address range.

use std::ops::Range;

/// Bytes per page: the unit storage is allocated in and the unit
/// [`Dram::extents`] reports in.
const PAGE: usize = 4096;

type Page = [u8; PAGE];

/// What an absent page reads as, and what a page is compared with to tell
/// whether it holds data.
static ZERO_BLOCK: Page = [0; PAGE];

/// A little-endian byte store, kept in 4 KiB pages. Timing is modelled
/// separately by [`Hbm2Channel`](crate::Hbm2Channel); this type holds the
/// actual data that cache refills read and evictions write.
///
/// A page is allocated on its first write and an absent page reads as zero,
/// so an image costs what was written to it, not its capacity: a 16 MiB
/// Cell whose kernel touched ~130 KB builds, restores and digests in that
/// much. Equality is by content.
#[derive(Debug, Clone, Eq)]
pub struct Dram {
    pages: Box<[Option<Box<Page>>]>,
    len: usize,
}

impl Dram {
    /// `size` bytes of zeroed storage, none of it allocated.
    pub fn new(size: usize) -> Dram {
        Dram {
            pages: vec![None; size.div_ceil(PAGE)].into_boxed_slice(),
            len: size,
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Splits `[at, at + n)` at page boundaries into `(page, offset in the
    /// page, span of the caller's buffer)` pieces.
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the image.
    fn pieces(&self, at: usize, n: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
        assert!(
            at.checked_add(n).is_some_and(|end| end <= self.len),
            "DRAM access of {n} bytes at {at:#x} past the {}-byte image",
            self.len
        );
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < n).then(|| {
                let (page, offset) = ((at + done) / PAGE, (at + done) % PAGE);
                let take = (PAGE - offset).min(n - done);
                done += take;
                (page, offset, done - take..done)
            })
        })
    }

    fn page_mut(&mut self, page: usize) -> &mut Page {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE]))
    }

    /// Copies `buf.len()` bytes at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the image.
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) {
        for (page, offset, span) in self.pieces(addr as usize, buf.len()) {
            let bytes = self.pages[page].as_deref().unwrap_or(&ZERO_BLOCK);
            buf[span.clone()].copy_from_slice(&bytes[offset..offset + span.len()]);
        }
    }

    /// Copies `data` into the store at byte offset `at`.
    pub(crate) fn write_at(&mut self, at: usize, data: &[u8]) {
        for (page, offset, span) in self.pieces(at, data.len()) {
            self.page_mut(page)[offset..offset + span.len()].copy_from_slice(&data[span]);
        }
    }

    /// Copies `data` into the store at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range ends past the image.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        self.write_at(addr as usize, data);
    }

    /// Writes byte `i` of `line` to `addr + i` for every bit `i` set in
    /// `mask`: the dirty or valid bytes of a cache line (at most 64).
    pub fn write_masked(&mut self, addr: u32, line: &[u8], mask: u64) {
        for (page, offset, span) in self.pieces(addr as usize, line.len()) {
            let bytes = self.page_mut(page);
            for i in span.clone() {
                if mask & (1 << i) != 0 {
                    bytes[offset + i - span.start] = line[i];
                }
            }
        }
    }

    fn read_array<const N: usize>(&self, addr: u32) -> [u8; N] {
        let mut bytes = [0; N];
        self.read_into(addr, &mut bytes);
        bytes
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds capacity.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds capacity.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
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
        self.read_array::<1>(addr)[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.write_bytes(addr, &[value]);
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// The maximal runs of pages that hold a non-zero byte, ascending, as
    /// `(offset, pages)`: a run's bytes are its pages' in order, the last
    /// page of the image cut at its end. Every byte outside them is zero.
    /// Whoever must walk the image (the job digest, the checkpoint) walks
    /// these instead.
    ///
    /// An allocated page that holds only zeros is no extent, so the runs are
    /// a function of the content alone. The page table is the data, not a
    /// dirty bitmap beside it: a written page must exist either way, and an
    /// allocator high-water mark would be unsound under a fault that
    /// corrupts a store address.
    pub fn extents(&self) -> impl Iterator<Item = (usize, Vec<&[u8]>)> {
        let len = self.len;
        let mut live = (self.pages.iter().enumerate())
            .map(move |(page, bytes)| {
                let at = page * PAGE;
                let bytes = bytes.as_deref().filter(|bytes| **bytes != ZERO_BLOCK);
                (at, bytes.map(|bytes| &bytes[..PAGE.min(len - at)]))
            })
            .peekable();
        std::iter::from_fn(move || {
            let (offset, first) = live.find_map(|(at, bytes)| Some((at, bytes?)))?;
            let mut run = vec![first];
            while let Some((_, Some(bytes))) = live.next_if(|(_, bytes)| bytes.is_some()) {
                run.push(bytes);
            }
            Some((offset, run))
        })
    }

    /// Drops every page: the image reads as zero again.
    pub(crate) fn clear(&mut self) {
        self.pages.fill(None);
    }

    /// Writes `words` little-endian from `addr` on, a page-sized buffer of
    /// them at a time.
    fn write_words(&mut self, mut addr: u32, words: impl Iterator<Item = u32>) {
        let mut buf = [0; PAGE];
        let mut words = words.peekable();
        while words.peek().is_some() {
            let mut n = 0;
            for (slot, word) in buf.chunks_exact_mut(4).zip(&mut words) {
                slot.copy_from_slice(&word.to_le_bytes());
                n += 4;
            }
            self.write_bytes(addr, &buf[..n]);
            addr += n as u32;
        }
    }

    /// Copies a `u32` slice into the store at `addr` (little-endian).
    pub fn write_u32_slice(&mut self, addr: u32, data: &[u32]) {
        self.write_words(addr, data.iter().copied());
    }

    /// Copies an `f32` slice into the store at `addr`.
    pub fn write_f32_slice(&mut self, addr: u32, data: &[f32]) {
        self.write_words(addr, data.iter().map(|f| f.to_bits()));
    }

    /// Reads `n` little-endian `u32`s starting at `addr`.
    pub fn read_u32_slice(&self, addr: u32, n: usize) -> Vec<u32> {
        let mut bytes = vec![0; 4 * n];
        self.read_into(addr, &mut bytes);
        let word = |w: &[u8]| u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        bytes.chunks_exact(4).map(word).collect()
    }

    /// Reads `n` `f32`s starting at `addr`.
    pub fn read_f32_slice(&self, addr: u32, n: usize) -> Vec<f32> {
        let words = self.read_u32_slice(addr, n);
        words.into_iter().map(f32::from_bits).collect()
    }
}

impl PartialEq for Dram {
    /// Content equality: an absent page equals an allocated page of zeros.
    fn eq(&self, other: &Dram) -> bool {
        self.len == other.len
            && (self.pages.iter().zip(&other.pages)).all(|pair| match pair {
                (None, None) => true,
                (a, b) => {
                    a.as_deref().unwrap_or(&ZERO_BLOCK) == b.as_deref().unwrap_or(&ZERO_BLOCK)
                }
            })
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

    /// Two pages and a ragged third of 100 bytes.
    const RAGGED: usize = 2 * PAGE + 100;

    #[test]
    fn words_straddle_page_boundaries_and_the_ragged_last_page() {
        let mut d = Dram::new(RAGGED);
        d.write_u32(4094, 0x0403_0201);
        d.write_u16(2 * PAGE as u32 - 1, 0xbbaa);
        d.write_u32(RAGGED as u32 - 4, 0xfeed_f00d);
        assert_eq!(d.read_u32(4094), 0x0403_0201);
        assert_eq!((d.read_u8(4095), d.read_u8(4096)), (0x02, 0x03));
        assert_eq!(d.read_u16(4095), 0x0302);
        assert_eq!(d.read_u32(4095), 0x0004_0302);
        assert_eq!(d.read_u16(2 * PAGE as u32 - 1), 0xbbaa);
        assert_eq!(d.read_u32(RAGGED as u32 - 4), 0xfeed_f00d);
        let mut line = [0; 8];
        d.read_into(4092, &mut line);
        assert_eq!(line, [0, 0, 1, 2, 3, 4, 0, 0]);
        // A masked line write across the boundary touches only its bits.
        d.write_masked(4092, &[9; 8], 0b1000_0001);
        d.read_into(4092, &mut line);
        assert_eq!(line, [9, 0, 1, 2, 3, 4, 0, 9]);
        // More than a page of words, from an address off the word grid.
        let words: Vec<u32> = (1..1101).map(|i| i * 0x0301).collect();
        d.write_u32_slice(3002, &words);
        assert_eq!(d.read_u32_slice(3002, words.len()), words);
        assert_eq!(d.read_u16(3000), 0);
    }

    #[test]
    fn every_access_past_the_image_panics() {
        let d = Dram::new(RAGGED);
        let end = RAGGED as u32;
        let reads: [&dyn Fn(); 4] = [
            &|| {
                d.read_u8(end);
            },
            &|| {
                d.read_u16(end - 1);
            },
            &|| {
                d.read_u32(end - 3);
            },
            &|| d.read_into(end - 7, &mut [0; 8]),
        ];
        for read in reads {
            let d = std::panic::AssertUnwindSafe(read);
            assert!(std::panic::catch_unwind(d).is_err());
        }
        let writes: [fn(&mut Dram); 4] = [
            |d| d.write_u8(RAGGED as u32, 1),
            |d| d.write_u16(RAGGED as u32 - 1, 1),
            |d| d.write_u32(u32::MAX, 1),
            |d| d.write_masked(RAGGED as u32 - 4, &[1; 8], 0),
        ];
        for write in writes {
            let mut d = Dram::new(RAGGED);
            assert!(std::panic::catch_unwind(move || write(&mut d)).is_err());
        }
    }

    #[test]
    fn an_allocated_zero_page_is_no_extent_and_equals_a_fresh_image() {
        let mut d = Dram::new(RAGGED);
        d.write_u32(PAGE as u32 + 8, 7);
        d.write_u32(PAGE as u32 + 8, 0);
        assert_eq!(d.extents().count(), 0);
        assert_eq!(d, Dram::new(RAGGED));
        assert_eq!(Dram::new(RAGGED), d);
        assert_ne!(d, Dram::new(RAGGED + 1));
        d.write_u8(0, 1);
        assert_ne!(d, Dram::new(RAGGED));
        d.clear();
        assert_eq!(d, Dram::new(RAGGED));
    }

    #[test]
    fn clones_are_independent() {
        let mut a = Dram::new(RAGGED);
        a.write_u32(4094, 5);
        let mut b = a.clone();
        b.write_u32(4094, 6);
        b.write_u8(0, 1);
        assert_eq!((a.read_u32(4094), a.read_u8(0)), (5, 0));
        assert_eq!((b.read_u32(4094), b.read_u8(0)), (6, 1));
        a.write_u8(2 * PAGE as u32, 3);
        assert_eq!(b.read_u8(2 * PAGE as u32), 0);
    }
}
