//! Order statistics over timing samples.

/// Sorts samples ascending (total order, so a NaN cannot panic the sort).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `p`-th percentile (0–100) of ascending `sorted` samples, linearly
/// interpolated between closest ranks. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Samples a tail percentile must leave beyond it to be reported.
const TAIL_SAMPLES: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99 when the samples allow it).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// p99 when at least [`TAIL_SAMPLES`] samples lie beyond it, otherwise the
/// percentile that leaves exactly that many beyond it, `100 × (1 − 10/n)`.
/// `None` when there are too few samples for any percentile to qualify.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Interpolated at rank r, the samples strictly beyond are those above
    // index floor(r).
    let p99_rank = 0.99 * (n - 1) as f64;
    let p = if p99_rank.floor() as usize + TAIL_SAMPLES < n {
        99.0
    } else {
        100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64)
    };
    Some(Tail {
        percentile: p,
        value: percentile(sorted, p),
        samples: n,
    })
}

/// The [`tail`] value, or the largest sample when there are too few for
/// any percentile to leave ten beyond it (0 for no samples). For per-layer
/// figures, where a handful of samples is still worth reporting.
pub fn tail_or_max(sorted: &[f64]) -> f64 {
    tail(sorted).map_or_else(|| sorted.last().copied().unwrap_or(0.0), |t| t.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    fn beyond(sorted: &[f64], value: f64) -> usize {
        sorted.iter().filter(|&&x| x > value).count()
    }

    #[test]
    fn p99_when_enough_samples_lie_beyond_it() {
        let s = ramp(2000);
        let t = tail(&s).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 2000);
        assert!(beyond(&s, t.value) >= TAIL_SAMPLES);
    }

    #[test]
    fn falls_back_to_the_percentile_with_ten_beyond() {
        for n in [11usize, 12, 50, 705, 900] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            assert!(t.percentile < 99.0, "n={n}: {t:?}");
            assert_eq!(beyond(&s, t.value), TAIL_SAMPLES, "n={n}: {t:?}");
            // p99 itself would leave fewer than ten beyond it.
            assert!(beyond(&s, percentile(&s, 99.0)) < TAIL_SAMPLES, "n={n}");
        }
        // 705 blocks: p98.58, the highest that leaves ten blocks beyond.
        let t = tail(&ramp(705)).unwrap();
        assert!((t.percentile - 98.58156).abs() < 1e-4, "{t:?}");
        for n in [902usize, 1000, 5000] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            assert_eq!(t.percentile, 99.0, "n={n}");
            assert!(beyond(&s, t.value) >= TAIL_SAMPLES, "n={n}");
        }
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail_or_max(&ramp(10)), 10.0);
        assert_eq!(tail_or_max(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_median_ignores_order() {
        assert_eq!(percentile(&[1.0, 3.0], 50.0), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
