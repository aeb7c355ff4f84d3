//! Small deterministic pseudo-random number generator.
//!
//! The simulator needs reproducible randomness in three places: the workload
//! generators (`hb-workloads`), randomized tests (differential fuzzing,
//! model-based cache checks, NoC traffic), and bench input synthesis. None of
//! them need cryptographic quality — they need *determinism across runs and
//! platforms* so that a failing seed can be replayed. This crate provides a
//! single dependency-free generator: `xoshiro256**` seeded via `splitmix64`,
//! the same construction rvr-style interpreters and test harnesses use.
//!
//! The stream for a given seed is part of this crate's contract: changing it
//! invalidates recorded failing seeds, so treat the output sequence as
//! stable.

#![forbid(unsafe_code)]

/// `xoshiro256**` PRNG with a `splitmix64` seeding routine.
///
/// Deterministic for a given seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds give equal
    /// streams; nearby seeds give unrelated streams (splitmix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u64` in `[0, bound)`. Debiased via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)` (half-open, like `Range<u32>`).
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below((hi - lo) as u64) as u32
    }

    /// Uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo.wrapping_add(self.below(lo.abs_diff(hi)) as i64)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.f32() * (hi - lo)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.index(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_stream_is_stable() {
        // Pins the stream: recorded failing seeds elsewhere depend on it.
        let mut r = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        let expect: Vec<u64> = vec![
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
            7684712102626143532,
        ];
        assert_eq!(first, expect);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.range_u32(10, 20);
            assert!((10..20).contains(&v));
            let f = r.f32();
            assert!((0.0..1.0).contains(&f));
            let i = r.range_i64(-5, 5);
            assert!((-5..5).contains(&i));
        }
        // below(1) must always be 0.
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn shuffle_and_pick_cover_all_elements() {
        let mut r = Rng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..16).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*r.pick(&[0usize, 1, 2, 3])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
