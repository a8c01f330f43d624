//! Seeded randomness, percentiles and the sustained-rate search.
//!
//! Everything here is pure so the self-tests can pin it down.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator. Inputs are a pure function
/// of the seed, so a seed always reproduces the same workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_bec4_0000_0001)
    }

    /// An independent stream for one part of a workload, so adding a
    /// draw in one part does not shift the inputs of another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Poisson arrivals at `rate` per second over `duration`: offsets from
/// the phase start at which each request is due.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let horizon = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 8);
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Whether a sample of `n` supports percentile `q`: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// A latency sample reduced to the figures the report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            p90: percentile(&v, 0.9),
            p99: percentile(&v, 0.99),
            max: v[v.len() - 1],
        })
    }

    /// One report line; a percentile the sample cannot support is
    /// flagged rather than hidden.
    pub fn describe(&self, unit: &str) -> String {
        let flag = |q: f64| {
            if supports(self.n, q) {
                ""
            } else {
                " (unsupported)"
            }
        };
        format!(
            "n={} p50={:.4}{unit} p90={:.4}{unit}{} p99={:.4}{unit}{} max={:.4}{unit}",
            self.n,
            self.p50,
            self.p90,
            flag(0.9),
            self.p99,
            flag(0.99),
            self.max
        )
    }
}

/// Highest rate in `[lo, hi]` that `passes`, by bisection on a
/// geometric scale. `lo` is assumed sustainable; a failing `lo` returns
/// `lo` so the caller can tell. Runs exactly `steps` probes, so the
/// search always ends, and for a `passes` that is monotone (pass below
/// some capacity, fail above) the answer rises with the capacity.
pub fn sustained_search(
    lo: f64,
    hi: f64,
    steps: usize,
    mut passes: impl FnMut(f64) -> bool,
) -> f64 {
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..steps {
        let mid = (good * bad).sqrt();
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        let s = Summary::of(&[1.0; 50]).unwrap();
        assert!(s.describe("ms").contains("p90=1.0000ms (unsupported)"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(&mut Rng::new(7), 500.0, Duration::from_secs(2));
        let b = poisson_schedule(&mut Rng::new(7), 500.0, Duration::from_secs(2));
        let c = poisson_schedule(&mut Rng::new(8), 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly the offered rate, and ordered in time.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|d| *d < Duration::from_secs(2)));
    }

    #[test]
    fn streams_are_independent_and_repeatable() {
        let x: Vec<u64> = (0..4).map(|_| Rng::stream(1, "a").next_u64()).collect();
        assert!(x.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(1, "a").next_u64(),
            Rng::stream(1, "b").next_u64()
        );
        assert_ne!(
            Rng::stream(1, "a").next_u64(),
            Rng::stream(2, "a").next_u64()
        );
        let mut r = Rng::new(3);
        assert!((0..1000).all(|_| r.below(5) < 5));
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn sustained_search_terminates_and_is_monotone() {
        let mut probes = 0;
        let found = sustained_search(100.0, 10_000.0, 8, |r| {
            probes += 1;
            r <= 1_700.0
        });
        assert_eq!(probes, 8);
        assert!(found <= 1_700.0 && found > 1_500.0, "{found}");

        let mut last = 0.0;
        for capacity in [300.0, 900.0, 1_700.0, 4_000.0, 9_000.0] {
            let found = sustained_search(100.0, 10_000.0, 8, |r| r <= capacity);
            assert!(found >= last, "capacity {capacity}: {found} < {last}");
            assert!(found <= capacity);
            last = found;
        }
        // Nothing sustainable above the floor: the floor comes back.
        assert_eq!(sustained_search(100.0, 10_000.0, 8, |_| false), 100.0);
    }
}
