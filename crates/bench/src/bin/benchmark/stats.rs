//! Order statistics over timing samples.

/// Sample count, median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Nearest rank of percentile `p` among `n` samples: `ceil(p% of n)`,
/// less the rounding error that would turn 99.9 % of 10 000 into 9991.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending sample;
/// 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    // Linear interpolation between closest ranks, so that a median of
    // an even-sized sample is the mean of the middle two.
    let at = |q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Summary {
        n: v.len(),
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// The percentiles a tail may be reported at.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it (the median when none does): a tail read off
/// fewer samples than that is one outlier, not a percentile.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .unwrap_or(LADDER[0])
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(xs: &[f64], p: f64) -> f64 {
    percentile(&sorted(xs), p)
}

/// `(percentile chosen, its value)` for the tail of `xs`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let p = tail_percentile(xs.len());
    (p, percentile_of(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        // 100 samples: rank 90 leaves exactly ten beyond.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(tail(&xs), (90.0, 90.0));
    }

    #[test]
    fn summary_interpolates_quartiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.median), (4, 2.5));
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert_eq!(summarize(&[]).median, 0.0);
    }
}
