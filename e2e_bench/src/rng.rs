//! Seeded input generation: a small splitmix64 generator and the
//! Poisson arrival schedule the open loop sends on.

/// splitmix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap at `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// An independent stream derived from this seed and a label.
    pub fn derive(seed: u64, label: u64) -> Self {
        let mut s = Self::new(seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407));
        s.next_u64();
        s
    }
}

/// Due times (seconds from the start) of a Poisson process at `rate`
/// over `[0, horizon)`.
pub fn poisson_times(rng: &mut SplitMix, rate: f64, horizon: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = rng.exp_gap(rate);
    while t < horizon {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// Due times of a fixed-rate feed at `rate` over `[0, horizon)`: one
/// event per period, placed uniformly in the middle half of its period,
/// so consecutive events are at least half a period apart.
pub fn jittered_times(rng: &mut SplitMix, rate: f64, horizon: f64) -> Vec<f64> {
    let period = 1.0 / rate;
    (0..(horizon * rate).floor() as usize)
        .map(|i| (i as f64 + 0.25 + 0.5 * rng.unit()) * period)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_times(&mut SplitMix::new(5), 100.0, 2.0);
        let b = poisson_times(&mut SplitMix::new(5), 100.0, 2.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 200 expected arrivals; a 5-sigma band.
        assert!((130..270).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn jittered_feed_keeps_half_a_period_apart() {
        let t = jittered_times(&mut SplitMix::new(9), 2.0, 20.0);
        assert_eq!(t.len(), 40);
        assert!(t.windows(2).all(|w| w[1] - w[0] >= 0.25));
        assert!(t.iter().all(|&x| (0.0..20.0).contains(&x)));
    }
}
