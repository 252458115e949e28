//! Sample statistics and operation accounting.

/// Value at quantile `q ∈ [0, 1]` of an unsorted sample, nearest rank on
/// `q·(n-1)` (the rule `ppr-bench`'s `percentile` uses). Empty → 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let idx = ((q * (s.len() - 1) as f64).round() as usize).min(s.len() - 1);
    s[idx]
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
    n - 1 - idx
}

/// Minimum number of samples beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The highest of `candidates` (ascending quantiles) that leaves at least
/// [`TAIL_SUPPORT`] samples beyond it in a sample of `n`, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= TAIL_SUPPORT)
}

/// Attempted / succeeded / failed operations of one run. Every operation
/// is recorded once, as ok or failed; a later check that finds an ok
/// operation wrong moves it to failed, so `attempted == ok + failed`
/// always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    /// Record `n` operations that completed without error.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
        self.ok += n;
    }

    /// Record `n` operations that failed outright.
    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Move up to `n` operations recorded as ok to failed (an oracle or
    /// bit-identity mismatch, a worker restart during the run).
    pub fn demote(&mut self, n: u64) {
        let n = n.min(self.ok);
        self.ok -= n;
        self.failed += n;
    }

    /// Add another tally's operations to this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    /// Failed / attempted.
    pub fn fail_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The accounting identity every run must satisfy.
    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 952 samples: rank round(0.99 * 951) = 941, ten above it.
        assert_eq!(samples_beyond(952, 0.99), 10);
        assert_eq!(highest_supported(952, &[0.5, 0.9, 0.99]), Some(0.99));
        // One sample fewer leaves only nine beyond the p99: fall back.
        assert_eq!(samples_beyond(951, 0.99), 9);
        assert_eq!(highest_supported(951, &[0.5, 0.9, 0.99]), Some(0.9));
        // The p90 needs 97 samples, the p50 21.
        assert_eq!(highest_supported(97, &[0.5, 0.9]), Some(0.9));
        assert_eq!(highest_supported(96, &[0.5, 0.9]), Some(0.5));
        assert_eq!(highest_supported(21, &[0.5, 0.9]), Some(0.5));
        assert_eq!(highest_supported(20, &[0.5, 0.9]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&xs), 3.0);
    }

    #[test]
    fn tally_stays_balanced() {
        let mut t = Tally::default();
        t.ok(100);
        t.fail(3);
        t.demote(2);
        assert!(t.balanced());
        assert_eq!((t.attempted, t.ok, t.failed), (103, 98, 5));
        // Demoting more than was ok cannot break the identity.
        t.demote(1_000);
        assert!(t.balanced());
        assert_eq!(t.ok, 0);
        assert_eq!(t.failed, 103);
        assert_eq!(t.fail_rate(), 1.0);
    }
}
