//! The benchmark's own seeded generator and stream hash. Every workload
//! input is derived from the `--seed` argument through [`Rng`], so one
//! seed always yields one operation stream.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// workloads (or two threads) given the same seed draw different
    /// sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `n` values spread over `[lo, hi)`: one uniform draw in each of `n`
/// equal strata, in shuffled order. Every block of `n` draws then covers
/// the whole range, so blocks (and runs with different seeds) carry the
/// same mix of cheap and expensive inputs.
pub fn stratified(rng: &mut Rng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    let mut values: Vec<f64> = (0..n)
        .map(|k| lo + width * (k as f64 + rng.unit()))
        .collect();
    rng.shuffle(&mut values);
    values
}

/// FNV-1a over a sequence of strings (each followed by a separator byte):
/// the fingerprint the determinism test compares op streams by.
pub fn stream_hash<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for item in items {
        for b in item.bytes().chain(std::iter::once(0xFF)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}
