//! A tiny deterministic pseudo-random number generator.
//!
//! The simulator needs reproducible randomness for synthetic workload
//! generation (vertex jitter, texture noise) and seeded tests. Both must
//! replay bit-identically from a seed across runs
//! and platforms, so the generator is a fixed algorithm owned by this
//! crate rather than an external dependency: SplitMix64 (Steele et al.,
//! *Fast Splittable Pseudorandom Number Generators*, OOPSLA 2014) — a
//! 64-bit state mixed through two xor-shift-multiply rounds, passing
//! BigCrush while being a handful of instructions per draw.

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use attila_sim::TinyRng;
///
/// let mut a = TinyRng::new(7);
/// let mut b = TinyRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.range_u32(0, 10);
/// assert!(x < 10);
/// let f = a.range_f32(-1.0, 1.0);
/// assert!((-1.0..1.0).contains(&f));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TinyRng {
    state: u64,
}

impl TinyRng {
    /// Creates a generator from a seed; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        TinyRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `[lo, hi)`. Empty ranges return `lo`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        if hi <= lo {
            return lo;
        }
        let span = u64::from(hi - lo);
        lo + (self.next_u64() % span) as u32
    }

    /// A uniform integer in `[lo, hi)`. Empty ranges return `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// A uniform float in `[lo, hi)`. Empty ranges return `lo`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        if hi <= lo {
            return lo;
        }
        lo + self.unit_f32() * (hi - lo)
    }

    /// A uniform float in `[0, 1)` with 24 bits of precision.
    pub fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// A fair coin flip.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Draws `true` with probability `num / denom` (saturating at 1).
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        if denom == 0 {
            return true;
        }
        self.next_u64() % denom < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..8).map({ let mut r = TinyRng::new(1); move |_| r.next_u64() }).collect();
        let b: Vec<u64> = (0..8).map({ let mut r = TinyRng::new(1); move |_| r.next_u64() }).collect();
        let c: Vec<u64> = (0..8).map({ let mut r = TinyRng::new(2); move |_| r.next_u64() }).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = TinyRng::new(42);
        for _ in 0..1000 {
            let x = r.range_u32(3, 17);
            assert!((3..17).contains(&x));
            let f = r.range_f32(-0.5, 0.25);
            assert!((-0.5..0.25).contains(&f));
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = TinyRng::new(9);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[r.range_u32(0, 8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b} far from 1000");
        }
    }

    #[test]
    fn empty_ranges_degenerate_to_lo() {
        let mut r = TinyRng::new(0);
        assert_eq!(r.range_u32(5, 5), 5);
        assert_eq!(r.range_f32(1.0, 1.0), 1.0);
    }
}
