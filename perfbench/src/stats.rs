//! Order statistics and the benchmark's seeded generator.

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule; 0 for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Each item's best (lowest) value over its repeats, for the items that
/// have any. Every item of a workload is repeated the same number of
/// times; another tenant of the shared host has to stall all of an
/// item's repeats to move its best, so percentiles across items describe
/// the work each input costs, which code changes move and host noise
/// mostly does not.
pub fn best_per_item(samples: impl IntoIterator<Item = (usize, f64)>, items: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; items];
    for (item, value) in samples {
        best[item] = best[item].min(value);
    }
    best.into_iter().filter(|v| v.is_finite()).collect()
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (`None` below 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    let p = (100.0 * (n - 10) as f64 / n as f64).floor();
    Some(p.min(99.9))
}

/// SplitMix64: the benchmark's own generator for workload inputs, so a
/// seed fixes the request schedule independently of the program's RNGs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x7F4A_7C15_9E37_79B9)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// `cycles` back-to-back permutations of `0..n`: every item appears
    /// exactly `cycles` times, so counts averaged over the sequence do not
    /// depend on the seed.
    pub fn cycles(&mut self, n: usize, cycles: usize) -> Vec<usize> {
        (0..cycles).flat_map(|_| self.permutation(n)).collect()
    }
}
