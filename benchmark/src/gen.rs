//! Seeded input generation. `--seed` reaches the program only through
//! the inputs made here.

/// One SplitMix64 round: the unit of "work" task bodies and stream
/// stages perform, and the generator behind every seeded input.
#[inline]
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `rounds` chained SplitMix64 rounds.
#[inline]
pub fn mix(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = splitmix(x);
    }
    x
}

/// A SplitMix64 sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
