//! Deterministic, forkable random number generation.
//!
//! Every stochastic element of a simulation (workload arrivals, failure
//! times, topology generation) draws from a [`SimRng`] derived from a single
//! run seed, so that a run is exactly reproducible from its seed alone.
//! Independent subsystems *fork* their own streams by label, which keeps the
//! streams decoupled: adding draws in one subsystem does not perturb another.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// A deterministic random stream.
///
/// # Examples
///
/// ```
/// use lems_sim::rng::SimRng;
///
/// let mut a = SimRng::seed(42).fork("workload");
/// let mut b = SimRng::seed(42).fork("workload");
/// assert_eq!(a.range(0..100u32), b.range(0..100u32));
///
/// // Different labels give decoupled streams.
/// let mut c = SimRng::seed(42).fork("failures");
/// let _ = c.range(0..100u32); // does not affect `a`/`b`
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: StdRng,
    seed: u64,
}

impl SimRng {
    /// Creates the root stream for a run from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream (or its root) was created from.
    pub fn root_seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent labelled stream.
    ///
    /// Forking does not consume randomness from `self`, so the set of forks
    /// taken from a root is stable regardless of draw order.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with the root seed. Stable across
        // platforms and Rust versions (unlike `DefaultHasher`).
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let derived = h ^ self.seed.rotate_left(17);
        SimRng {
            inner: StdRng::seed_from_u64(derived),
            seed: derived,
        }
    }

    /// Derives an independent stream from a numeric salt — the indexed
    /// counterpart of [`SimRng::fork`], for per-actor or per-attempt streams
    /// where the discriminant is a dense integer rather than a label.
    ///
    /// Like `fork`, this does not consume randomness from `self`: the
    /// stream for a given salt is the same regardless of draw order or of
    /// which other salts were forked.
    pub fn fork_u64(&self, salt: u64) -> SimRng {
        // FNV-1a over the salt's little-endian bytes, mixed exactly as the
        // labelled fork mixes, so `fork_u64(n)` and `fork(label)` draw from
        // disjoint families unless the label collides byte-for-byte.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in salt.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let derived = h ^ self.seed.rotate_left(17);
        SimRng {
            inner: StdRng::seed_from_u64(derived),
            seed: derived,
        }
    }

    /// Uniform draw from a range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed duration with the given mean.
    ///
    /// Used for Poisson inter-arrival times and failure/repair processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        let mean_units = mean.as_units();
        assert!(
            mean_units > 0.0 && mean_units.is_finite(),
            "exponential mean must be positive, got {mean_units}"
        );
        // Inverse-CDF sampling; 1-u avoids ln(0).
        let u: f64 = self.inner.gen();
        let draw = -mean_units * (1.0 - u).ln();
        SimDuration::from_units(draw.min(mean_units * 1e6))
    }

    /// Picks an index in `0..len` (uniform).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty collection");
        self.inner.gen_range(0..len)
    }

    /// Picks a reference to a uniformly random element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples an index from a discrete distribution proportional to
    /// `weights`.
    ///
    /// Zipf-style recipient popularity in the workload generators is built
    /// on this.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.inner.gen::<f64>() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_draw_order() {
        let root = SimRng::seed(7);
        let mut f1 = root.fork("a");
        // Draw from the root's clone heavily; fork again — identical stream.
        let mut noisy = root.clone();
        for _ in 0..50 {
            let _ = noisy.next_u64();
        }
        let mut f2 = noisy.fork("a");
        for _ in 0..20 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let root = SimRng::seed(7);
        let mut a = root.fork("x");
        let mut b = root.fork("y");
        let same = (0..16).all(|_| a.next_u64() == b.next_u64());
        assert!(!same, "labelled forks should diverge");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(42.0));
    }

    #[test]
    fn exp_duration_mean_roughly_correct() {
        let mut r = SimRng::seed(11);
        let mean = SimDuration::from_units(2.0);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| r.exp_duration(mean).as_units()).sum();
        let avg = total / n as f64;
        assert!(
            (avg - 2.0).abs() < 0.1,
            "empirical mean {avg} too far from 2.0"
        );
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let mut r = SimRng::seed(3);
        let weights = [0.0, 9.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::seed(5);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn index_empty_panics() {
        SimRng::seed(0).index(0);
    }
}
