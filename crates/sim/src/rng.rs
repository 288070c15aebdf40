//! Deterministic random-number generation.
//!
//! Simulation runs must be exactly reproducible from a seed, including
//! across releases of third-party crates, so the generator itself —
//! xoshiro256++ seeded through SplitMix64 — is implemented here rather
//! than taken from `rand`. The type still implements [`rand::RngCore`],
//! so the distribution machinery from `rand` works on top of it.

use rand::{Error, RngCore, SeedableRng};

/// A seedable, forkable xoshiro256++ generator.
///
/// [`SimRng::fork`] derives an independent child stream, letting each
/// simulation component (sensor noise, workload arrivals, …) own its own
/// generator so adding randomness to one component never perturbs the
/// draws seen by another.
///
/// # Example
///
/// ```
/// use leakctl_sim::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
///
/// let mut child = a.fork("sensor-noise");
/// let x: f64 = child.gen_range(0.0..1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scale from a 53-bit integer to a double in `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Box–Muller radius `sqrt(-2·ln u1)` from a raw draw. The mantissa
/// trick `(a >> 11) + 1` keeps `u1` in `(0, 1]`, so `ln` stays finite.
#[inline]
fn box_muller_radius(a: u64) -> f64 {
    let u1 = ((a >> 11) as f64 + 1.0) * UNIT;
    (-2.0 * u1.ln()).sqrt()
}

/// Box–Muller angle `2π·u2` from a raw draw, `u2` in `[0, 1)`.
#[inline]
fn box_muller_angle(b: u64) -> f64 {
    std::f64::consts::TAU * ((b >> 11) as f64 * UNIT)
}

/// The Box–Muller transform of one raw `(a, b)` pair — the formula
/// every standard-normal draw of [`SimRng`] goes through.
#[inline]
fn box_muller(a: u64, b: u64) -> f64 {
    box_muller_radius(a) * box_muller_angle(b).cos()
}

/// Angle buckets of [`gaussians_from_raw`]: the top bits of the raw
/// angle draw, so bucket `k` holds angles in `[k·π/8, (k+1)·π/8)`.
const ANGLE_BITS: u32 = 4;

/// Draws per chunk of [`SimRng::fill_gaussian_streams`]. Its scratch
/// lives on the stack (32 KiB), so a refill never touches the heap.
const CHUNK: usize = 1024;

/// Standard-normal values from the raw `(a, b)` pairs of the streams
/// `first..`, `PER_STREAM` pairs per stream in stream order, written
/// draw-major into `out` (which holds every stream): pair `j` of stream
/// `s` lands in `out[j · streams + s]` as [`box_muller`]`(a, b)`. The
/// `cos` calls are issued bucket by bucket (see
/// [`SimRng::fill_gaussian_streams`]); `by_angle` is scratch.
fn gaussians_from_raw<const PER_STREAM: usize>(
    raw: &[u64],
    first: usize,
    out: &mut [f64],
    by_angle: &mut [(f64, usize)],
) {
    let streams = out.len() / PER_STREAM;
    let count = raw.len() / (2 * PER_STREAM);
    let bucket = |b: u64| (b >> (64 - ANGLE_BITS)) as usize;
    // Radii in natural order, walking `out` front to back (it may be
    // cold); the angle factor multiplies in below.
    for j in 0..PER_STREAM {
        let row = &mut out[j * streams + first..][..count];
        for (s, z) in row.iter_mut().enumerate() {
            *z = box_muller_radius(raw[2 * (s * PER_STREAM + j)]);
        }
    }
    // Counting sort of (angle, destination) by angle bucket, so the
    // `cos` loop below reads its arguments in sequence.
    let mut start = [0usize; 1 << ANGLE_BITS];
    for pair in raw.chunks_exact(2) {
        start[bucket(pair[1])] += 1;
    }
    let mut next = 0;
    for slot in &mut start {
        let size = *slot;
        *slot = next;
        next += size;
    }
    for (s, draws) in raw.chunks_exact(2 * PER_STREAM).enumerate() {
        for (j, pair) in draws.chunks_exact(2).enumerate() {
            let slot = &mut start[bucket(pair[1])];
            by_angle[*slot] = (box_muller_angle(pair[1]), j * streams + first + s);
            *slot += 1;
        }
    }
    for &(angle, at) in &by_angle[..raw.len() / 2] {
        out[at] *= angle.cos();
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The child stream depends on the parent's *current* state and the
    /// label, and advances the parent once, so repeated forks with the
    /// same label yield different streams.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Self {
        // Mix the label into a 64-bit tag with FNV-1a.
        let mut tag: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            tag ^= u64::from(b);
            tag = tag.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let parent_draw = self.next_u64();
        Self::seed(parent_draw ^ tag)
    }

    /// Draws a `f64` uniformly from `[0, 1)`.
    #[must_use]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * UNIT
    }

    /// Draws from the standard normal distribution via Box–Muller.
    #[must_use]
    pub fn next_gaussian(&mut self) -> f64 {
        let a = self.next_u64();
        let b = self.next_u64();
        box_muller(a, b)
    }

    /// Draws `PER_STREAM` standard-normal values from each generator of
    /// `streams` in turn, writing them draw-major: with `n` streams,
    /// `out[j · n + s]` is the `j`-th draw of stream `s`, so each run of
    /// `n` values is one draw of every stream. Every value and every
    /// generator's final state are bit-identical to `PER_STREAM`
    /// [`SimRng::next_gaussian`] calls on each stream.
    ///
    /// The cost of a draw is libm's, not the generator's, and with
    /// uniformly random angles about half of it is branch misses in
    /// `cos`: it picks its polynomial and its π/2 quadrant by comparing
    /// the argument, and random angles defeat the predictor there. So,
    /// for up to 1024 draws at a time, the raw draws are taken first, in
    /// stream order; the radii follow in natural order; then the `cos`
    /// calls run grouped by the top four bits of each angle's raw draw —
    /// sixteen π/8 buckets whose edges include every π/4 quadrant
    /// boundary, so consecutive calls mostly take the same branches.
    /// Reordering is safe because `ln`, `sqrt` and `cos` are pure: the
    /// same calls on the same arguments give the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not hold `PER_STREAM` values per stream.
    /// `PER_STREAM` must lie in `1..=1024` (checked at compile time).
    pub fn fill_gaussian_streams<'a, const PER_STREAM: usize>(
        streams: impl IntoIterator<Item = &'a mut SimRng>,
        out: &mut [f64],
    ) {
        const { assert!(PER_STREAM > 0 && PER_STREAM <= CHUNK) };
        let total = out.len() / PER_STREAM;
        let mut raw = [0u64; 2 * CHUNK];
        let mut by_angle = [(0.0, 0); CHUNK];
        let mut streams = streams.into_iter();
        let mut first = 0;
        loop {
            let mut count = 0;
            // Chunks first: `zip` must not pull a stream it cannot fit.
            for (raw, rng) in raw.chunks_exact_mut(2 * PER_STREAM).zip(streams.by_ref()) {
                // A local copy keeps the state in registers: the
                // compiler cannot tell `raw` apart from `rng`.
                let mut local = rng.clone();
                raw.fill_with(|| local.next_u64());
                *rng = local;
                count += 1;
            }
            if count == 0 {
                break;
            }
            assert!(
                first + count <= total,
                "out holds {PER_STREAM} draws per stream"
            );
            let raw = &raw[..2 * PER_STREAM * count];
            gaussians_from_raw::<PER_STREAM>(raw, first, out, &mut by_angle);
            first += count;
        }
        assert_eq!(
            first * PER_STREAM,
            out.len(),
            "out holds {PER_STREAM} draws per stream"
        );
    }

    /// Draws from the exponential distribution with the given rate
    /// (events per unit time).
    ///
    /// # Panics
    ///
    /// Panics when `rate` is not strictly positive.
    #[must_use]
    pub fn next_exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.next_f64(); // (0, 1]
        -u.ln() / rate
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        // xoshiro256++
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for SimRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        Self::seed(u64::from_le_bytes(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed(99);
        let mut parent2 = SimRng::seed(99);
        let mut c1 = parent1.fork("noise");
        let mut c2 = parent2.fork("noise");
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // A different label yields a different stream.
        let mut parent3 = SimRng::seed(99);
        let mut c3 = parent3.fork("arrivals");
        let matches = (0..32)
            .filter(|_| SimRng::seed(99).fork("noise").next_u64() == c3.next_u64())
            .count();
        assert!(matches < 4);
    }

    #[test]
    fn repeated_forks_same_label_differ() {
        let mut parent = SimRng::seed(5);
        let mut a = parent.fork("x");
        let mut b = parent.fork("x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    /// `streams` forked generators through the batch, checked draw by
    /// draw against `next_gaussian` on clones.
    fn check_batch<const LEN: usize>(shape: &mut SimRng, streams: usize) {
        let mut batch: Vec<SimRng> = (0..streams).map(|s| shape.fork(&format!("s{s}"))).collect();
        let mut reference = batch.clone();
        let mut out = vec![0.0; streams * LEN];
        SimRng::fill_gaussian_streams::<LEN>(&mut batch, &mut out);
        for (s, rng) in reference.iter_mut().enumerate() {
            for j in 0..LEN {
                let (got, want) = (out[j * streams + s], rng.next_gaussian());
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{streams}x{LEN}: stream {s} draw {j}"
                );
            }
        }
        // Every generator stays in lockstep afterwards.
        assert_eq!(batch, reference, "{streams}x{LEN}");
    }

    #[test]
    fn gaussian_streams_bit_identical_to_sequential_draws() {
        // Every length 1–40 at random stream counts 1–100, so batches
        // span one to four 1024-draw chunks and end mid-chunk.
        let mut shape = SimRng::seed(2024);
        macro_rules! lengths {
            ($($len:literal)*) => {$(
                for _ in 0..3 {
                    let streams = 1 + (shape.next_u64() % 100) as usize;
                    check_batch::<$len>(&mut shape, streams);
                }
            )*};
        }
        lengths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20
                 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40);
        // A server's bank: 71 noisy channels of 16, two chunks.
        check_batch::<16>(&mut shape, 71);
    }

    #[test]
    fn gaussian_batch_matches_the_formula_at_raw_edges() {
        let mut b_edges = vec![0, u64::MAX];
        for k in 1..16u64 {
            b_edges.extend([(k << 60) - 1, k << 60]);
        }
        let mut raw = Vec::new();
        for a in [0, 1, 1 << 11, u64::MAX - (1 << 11), u64::MAX] {
            for &b in &b_edges {
                raw.extend([a, b]);
            }
        }
        // One draw per stream: the draw-major output is in raw order.
        let mut out = vec![0.0; raw.len() / 2];
        gaussians_from_raw::<1>(&raw, 0, &mut out, &mut [(0.0, 0); CHUNK]);
        for (pair, got) in raw.chunks_exact(2).zip(&out) {
            let want = box_muller(pair[0], pair[1]);
            assert!(want.is_finite(), "{pair:?}");
            assert_eq!(got.to_bits(), want.to_bits(), "{pair:?}");
        }
        // a = 0 is the smallest u1, 2^-53: the largest radius, finite.
        let r_max = box_muller_radius(0);
        assert!((r_max - (106.0 * std::f64::consts::LN_2).sqrt()).abs() < 1e-12);
        // a = u64::MAX is u1 = 1: a zero radius.
        assert_eq!(box_muller_radius(u64::MAX), 0.0);
        // The bucket edge k << 60 is the angle k·π/8; the draw just
        // below it may round onto the edge, which only costs a branch.
        for k in 1..16u64 {
            let edge = std::f64::consts::TAU * (k as f64 / 16.0);
            assert_eq!(box_muller_angle(k << 60).to_bits(), edge.to_bits());
            assert!(box_muller_angle((k << 60) - 1) <= edge);
        }
        assert!(box_muller_angle(u64::MAX) < std::f64::consts::TAU);
    }

    #[test]
    fn gaussian_moments_plausible() {
        let mut rng = SimRng::seed(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed(13);
        let rate = 0.25;
        let n = 50_000;
        let mean = (0..n).map(|_| rng.next_exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean} too far from 1/rate");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let _ = SimRng::seed(0).next_exponential(0.0);
    }

    #[test]
    fn works_with_rand_distributions() {
        let mut rng = SimRng::seed(21);
        let x: f64 = rng.gen_range(10.0..20.0);
        assert!((10.0..20.0).contains(&x));
        let b: bool = rng.gen_bool(0.5);
        let _ = b;
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed(77);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn seedable_from_seed() {
        let a = SimRng::from_seed(42u64.to_le_bytes());
        let b = SimRng::seed(42);
        assert_eq!(a, b);
    }
}
