//! Sample summaries: median, the rounds' best decile and the
//! tail-percentile rule.

use crate::registry::Better;

/// Timings of one kind of operation, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_secs(&mut self, secs: f64) {
        self.0.push(secs * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn median(&self) -> f64 {
        quantile(&self.0, 0.5)
    }

    /// The tail value and the percentile it is: see [`tail_percentile`].
    pub fn tail(&self) -> (f64, u32) {
        let p = tail_percentile(self.0.len());
        (quantile(&self.0, f64::from(p) / 100.0), p)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The decile of `values` on the better side: the first where lower is
/// better, the ninth where higher is.
///
/// Identical rounds differ only by what the host adds — its other tenants
/// take a core, or share one, for seconds to minutes at a time — and that
/// only ever slows a round. The rounds' median follows such a spell as soon
/// as it covers half the run; the best decile holds while a tenth of the
/// rounds stay clear of it, and with the few dozen rounds of a run it still
/// rests on several of them, where the minimum would report the one
/// luckiest.
pub fn best_decile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.1),
        Better::Higher => quantile(values, 0.9),
    }
}

/// `numerator / denominator`, or 0 where there was nothing to divide by —
/// a layer that did no work has no rate.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The highest of p95, p90, p75 and p50 that still has at least ten samples
/// beyond it — p95 needs 200 samples, p90 100, p75 40. Below that a tail is
/// not supported and the median stands in. The steps keep the choice the
/// same from run to run while the sample count moves a little.
pub fn tail_percentile(samples: usize) -> u32 {
    [95u32, 90, 75]
        .into_iter()
        .find(|&p| samples as f64 * f64::from(100 - p) / 100.0 >= 10.0)
        .unwrap_or(50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50);
        assert_eq!(tail_percentile(39), 50);
        assert_eq!(tail_percentile(40), 75);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(100_000), 95);
        for n in 40..1000usize {
            let p = tail_percentile(n);
            assert!(n as f64 * f64::from(100 - p) / 100.0 >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // The better side: low for a latency, high for a rate; a slow
        // stretch that leaves a tenth of the rounds alone leaves it be.
        let rounds = [
            10.0, 10.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0, 14.0,
        ];
        assert_eq!(best_decile(&rounds, Better::Lower), 10.0);
        assert_eq!(median(&rounds), 14.0);
        assert!((best_decile(&v, Better::Lower) - 1.3).abs() < 1e-9);
        assert!((best_decile(&v, Better::Higher) - 3.7).abs() < 1e-9);
        let s = Samples((1..=200).map(f64::from).collect());
        assert_eq!(s.tail().1, 95);
        assert!((s.tail().0 - 190.05).abs() < 1e-9);
    }
}
